//! Streaming iteration strategies (paper §2.2, Fig. 3).
//!
//! A multi-input service composes its port streams with an iteration
//! strategy: the **dot product** pairs items of equal index (producing
//! `min(n, m)` invocations), the **cross product** combines everything
//! with everything (`n × m` invocations, concatenated index vectors).
//!
//! The engine is *streaming*: tokens arrive in any order (data and
//! service parallelism reorder completions — the causality problem of
//! §3.3), and matches are emitted as soon as they exist. Identity is
//! the token's [`DataIndex`], exactly the provenance-based pairing the
//! paper prescribes.

use crate::backend::IdHasher;
use crate::graph::IterationStrategy;
use crate::token::{DataIndex, Token};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A matched tuple ready to be fired: one token per input port, plus
/// the invocation's result index. The tuple is shared: the ready
/// queue, the pending invocation and the backend job all hold it by
/// reference count.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedSet {
    pub tokens: Arc<[Token]>,
    pub index: DataIndex,
}

/// Per-processor incremental matcher.
#[derive(Debug)]
pub struct MatchEngine {
    strategy: IterationStrategy,
    ports: usize,
    /// Dot state: the unmatched tokens of each index that has any, one
    /// hash join over every port. Looked up by index only, never
    /// iterated, so the table's order cannot show.
    dot: HashMap<DataIndex, DotSlot, IdHasher>,
    /// Tokens currently queued in `dot`, kept as a count so
    /// [`MatchEngine::pending`] — read on every port-room check — is
    /// O(1) however many indices wait.
    dot_pending: usize,
    /// Cross state: per port, all tokens seen so far.
    cross: Vec<Vec<Token>>,
}

/// The unmatched tokens of one index. Each port queues its tokens in
/// arrival order: the oldest is the port's head, and the later ones,
/// which only loop feedback resending an index brings, wait in one
/// overflow in arrival order. A match takes every head, so at rest at
/// least one port has none.
#[derive(Debug)]
struct DotSlot {
    heads: Box<[Option<Token>]>,
    overflow: VecDeque<(usize, Token)>,
}

impl MatchEngine {
    pub fn new(strategy: IterationStrategy, ports: usize) -> Self {
        MatchEngine {
            strategy,
            ports,
            dot: HashMap::default(),
            dot_pending: 0,
            cross: (0..ports).map(|_| Vec::new()).collect(),
        }
    }

    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Feed one token into `port`; returns every invocation tuple this
    /// arrival completes.
    pub fn push(&mut self, port: usize, token: Token) -> Vec<MatchedSet> {
        let mut out = VecDeque::new();
        self.push_into(port, token, &mut out);
        out.into()
    }

    /// Feed one token into `port`, appending every invocation tuple this
    /// arrival completes to `ready`, in the order they are to fire.
    pub fn push_into(&mut self, port: usize, token: Token, ready: &mut VecDeque<MatchedSet>) {
        assert!(port < self.ports(), "port {port} out of range");
        if self.ports() == 1 {
            let index = token.index.clone();
            ready.push_back(MatchedSet {
                tokens: Arc::from([token]),
                index,
            });
            return;
        }
        match self.strategy {
            IterationStrategy::Dot => self.push_dot(port, token, ready),
            IterationStrategy::Cross => self.push_cross(port, token, ready),
        }
    }

    /// Queue `token` at its index and, when that gives every port a
    /// head there, take the heads as a match, in port order, and
    /// promote each port's next queued token: one lookup, and one
    /// removal when the index has nothing left.
    fn push_dot(&mut self, port: usize, token: Token, ready: &mut VecDeque<MatchedSet>) {
        let ports = self.ports;
        let slot = self
            .dot
            .entry(token.index.clone())
            .or_insert_with(|| DotSlot {
                heads: (0..ports).map(|_| None).collect(),
                overflow: VecDeque::new(),
            });
        self.dot_pending += 1;
        let head = &mut slot.heads[port];
        if head.is_some() {
            slot.overflow.push_back((port, token));
            return;
        }
        *head = Some(token);
        if slot.heads.iter().any(Option::is_none) {
            return;
        }
        let tokens: Arc<[Token]> = (slot.heads.iter_mut())
            .map(|head| head.take().expect("every port has a head"))
            .collect();
        self.dot_pending -= ports;
        let index = tokens[port].index.clone();
        if slot.overflow.is_empty() {
            self.dot.remove(&index);
        } else {
            for (p, head) in slot.heads.iter_mut().enumerate() {
                let next = slot.overflow.iter().position(|&(q, _)| q == p);
                *head = next.and_then(|k| slot.overflow.remove(k)).map(|(_, t)| t);
            }
        }
        ready.push_back(MatchedSet { tokens, index });
    }

    /// Combine the newcomer with every combination of the other ports'
    /// retained tokens, then retain it. Combinations are enumerated as
    /// an odometer over the other ports, the highest port turning
    /// fastest; each tuple is assembled in port order.
    fn push_cross(&mut self, port: usize, token: Token, ready: &mut VecDeque<MatchedSet>) {
        let ports = self.ports();
        let others = (0..ports).filter(|&p| p != port);
        if others.clone().all(|p| !self.cross[p].is_empty()) {
            let mut digits = vec![0; ports];
            'combos: loop {
                let tokens: Arc<[Token]> = (0..ports)
                    .map(|p| match p == port {
                        true => token.clone(),
                        false => self.cross[p][digits[p]].clone(),
                    })
                    .collect();
                let index = tokens[1..]
                    .iter()
                    .fold(tokens[0].index.clone(), |acc, t| acc.concat(&t.index));
                ready.push_back(MatchedSet { tokens, index });
                for p in others.clone().rev() {
                    digits[p] += 1;
                    if digits[p] < self.cross[p].len() {
                        continue 'combos;
                    }
                    digits[p] = 0;
                }
                break;
            }
        }
        self.cross[port].push(token);
    }

    /// Tokens buffered without a complete match yet (dot only; cross
    /// never holds back a possible combination).
    pub fn pending(&self) -> usize {
        self.dot_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataValue;

    fn tok(src: &str, i: u32) -> Token {
        Token::from_source(src, i, DataValue::Str(format!("{src}{i}")))
    }

    #[test]
    fn single_port_fires_every_token() {
        let mut e = MatchEngine::new(IterationStrategy::Dot, 1);
        let out = e.push(0, tok("a", 3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, DataIndex::single(3));
    }

    #[test]
    fn dot_pairs_equal_indices_in_order() {
        let mut e = MatchEngine::new(IterationStrategy::Dot, 2);
        assert!(e.push(0, tok("a", 0)).is_empty());
        assert!(e.push(0, tok("a", 1)).is_empty());
        let m = e.push(1, tok("b", 0));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].index, DataIndex::single(0));
        assert_eq!(m[0].tokens[0].value.as_str(), Some("a0"));
        assert_eq!(m[0].tokens[1].value.as_str(), Some("b0"));
        let m = e.push(1, tok("b", 1));
        assert_eq!(m[0].index, DataIndex::single(1));
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn dot_is_order_insensitive() {
        // Tokens arriving out of order (the DP/SP causality problem)
        // still pair by index, not by arrival rank.
        let mut e = MatchEngine::new(IterationStrategy::Dot, 2);
        assert!(e.push(0, tok("a", 1)).is_empty());
        assert!(e.push(1, tok("b", 0)).is_empty());
        let m = e.push(0, tok("a", 0));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].index, DataIndex::single(0));
        let m = e.push(1, tok("b", 1));
        assert_eq!(m[0].index, DataIndex::single(1));
    }

    #[test]
    fn dot_produces_min_n_m_results() {
        let mut e = MatchEngine::new(IterationStrategy::Dot, 2);
        let mut matches = 0;
        for i in 0..5 {
            matches += e.push(0, tok("a", i)).len();
        }
        for i in 0..3 {
            matches += e.push(1, tok("b", i)).len();
        }
        assert_eq!(matches, 3, "min(5, 3)");
        assert_eq!(e.pending(), 2, "two unmatched `a` tokens remain");
    }

    #[test]
    fn dot_with_duplicate_index_queues_fifo() {
        // Loop feedback can resend index 0; pair occurrences in FIFO order.
        let mut e = MatchEngine::new(IterationStrategy::Dot, 2);
        e.push(0, Token::from_source("a", 0, DataValue::from("first")));
        e.push(0, Token::from_source("a", 0, DataValue::from("second")));
        let m1 = e.push(1, tok("b", 0));
        assert_eq!(m1[0].tokens[0].value.as_str(), Some("first"));
        let m2 = e.push(1, tok("b", 0));
        assert_eq!(m2[0].tokens[0].value.as_str(), Some("second"));
    }

    #[test]
    fn cross_produces_n_times_m_results() {
        let mut e = MatchEngine::new(IterationStrategy::Cross, 2);
        let mut total = 0;
        for i in 0..4 {
            total += e.push(0, tok("a", i)).len();
        }
        for j in 0..3 {
            total += e.push(1, tok("b", j)).len();
        }
        assert_eq!(total, 12, "4 × 3 combinations");
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn cross_concatenates_indices_in_port_order() {
        let mut e = MatchEngine::new(IterationStrategy::Cross, 2);
        e.push(0, tok("a", 2));
        let m = e.push(1, tok("b", 5));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].index, DataIndex(Arc::from([2, 5])));
        // New arrival on port 0 pairs with the retained b5.
        let m = e.push(0, tok("a", 3));
        assert_eq!(m[0].index, DataIndex(Arc::from([3, 5])));
    }

    #[test]
    fn cross_with_three_ports() {
        let mut e = MatchEngine::new(IterationStrategy::Cross, 3);
        e.push(0, tok("a", 0));
        e.push(1, tok("b", 0));
        assert!(e.push(1, tok("b", 1)).is_empty(), "port 2 still empty");
        let m = e.push(2, tok("c", 0));
        assert_eq!(m.len(), 2, "1 × 2 × 1 combos completed by c0");
        let e2 = e.push(2, tok("c", 1));
        assert_eq!(e2.len(), 2);
    }

    #[test]
    fn interleaved_arrival_emits_every_cross_combo_exactly_once() {
        let mut e = MatchEngine::new(IterationStrategy::Cross, 2);
        let mut seen = std::collections::BTreeSet::new();
        let pushes = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
        for (port, i) in pushes {
            for m in e.push(port, tok(if port == 0 { "a" } else { "b" }, i)) {
                assert!(
                    seen.insert(m.index.clone()),
                    "duplicate combo {:?}",
                    m.index
                );
            }
        }
        assert_eq!(seen.len(), 9, "3 × 3");
    }

    /// The dot engine the hash join replaced, kept as its oracle: per
    /// port, an ordered map from index to the tokens queued there.
    #[derive(Default)]
    struct PerPortQueues {
        dot: Vec<std::collections::BTreeMap<DataIndex, VecDeque<Token>>>,
        pending: usize,
    }

    impl PerPortQueues {
        fn new(ports: usize) -> Self {
            let dot = (0..ports).map(|_| Default::default()).collect();
            PerPortQueues { dot, pending: 0 }
        }

        fn push(&mut self, port: usize, token: Token) -> Vec<MatchedSet> {
            let index = token.index.clone();
            let queue = self.dot[port].entry(index.clone()).or_default();
            queue.push_back(token);
            self.pending += 1;
            let complete = (self.dot.iter()).all(|m| m.get(&index).is_some_and(|q| !q.is_empty()));
            if !complete {
                return Vec::new();
            }
            let tokens: Arc<[Token]> = (self.dot.iter_mut())
                .map(|m| {
                    let q = m.get_mut(&index).expect("checked above");
                    let t = q.pop_front().expect("checked non-empty");
                    if q.is_empty() {
                        m.remove(&index);
                    }
                    t
                })
                .collect();
            self.pending -= tokens.len();
            vec![MatchedSet { tokens, index }]
        }
    }

    /// Seeded streams of 2–4 ports, pushed in random port order, with
    /// indices drawn from a small space so they recur (loop feedback
    /// resending an index) and a share of them of depth 2: after every
    /// push the hash join emits what the per-port queues emit, tokens,
    /// index and order, and holds as many tokens back.
    #[test]
    fn the_hash_join_matches_the_per_port_queues_push_by_push() {
        use moteur_gridsim::Rng;
        for seed in 0..300 {
            let mut rng = Rng::new(seed);
            let ports = 2 + rng.index(3);
            let mut engine = MatchEngine::new(IterationStrategy::Dot, ports);
            let mut oracle = PerPortQueues::new(ports);
            let mut matched = 0;
            for step in 0..120u32 {
                let port = rng.index(ports);
                let index: Arc<[u32]> = match rng.chance(0.25) {
                    true => Arc::from([rng.index(3) as u32, rng.index(3) as u32]),
                    false => Arc::from([rng.index(6) as u32]),
                };
                let token = Token {
                    value: DataValue::from(f64::from(step)),
                    index: DataIndex(index),
                    history: crate::token::History::source("s", step),
                };
                let want = oracle.push(port, token.clone());
                let got = engine.push(port, token);
                assert_eq!(got, want, "seed {seed}, step {step}");
                assert_eq!(engine.pending(), oracle.pending, "seed {seed}, step {step}");
                matched += got.len();
            }
            assert!(matched > 0, "seed {seed} matched nothing");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pushing_to_bad_port_panics() {
        MatchEngine::new(IterationStrategy::Dot, 2).push(5, tok("a", 0));
    }
}
