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

use crate::graph::IterationStrategy;
use crate::token::{DataIndex, Token};
use std::collections::{BTreeMap, VecDeque};

/// A matched tuple ready to be fired: one token per input port, plus
/// the invocation's result index.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedSet {
    pub tokens: Vec<Token>,
    pub index: DataIndex,
}

/// Per-processor incremental matcher.
#[derive(Debug)]
pub struct MatchEngine {
    strategy: IterationStrategy,
    /// Dot state: per port, tokens queued by index (queues handle loop
    /// feedback where the same index legitimately recurs).
    dot: Vec<BTreeMap<DataIndex, VecDeque<Token>>>,
    /// Tokens currently queued in `dot`, kept as a count so
    /// [`MatchEngine::pending`] — read on every port-room check — is
    /// O(1) however long the queues grow.
    dot_pending: usize,
    /// Cross state: per port, all tokens seen so far.
    cross: Vec<Vec<Token>>,
}

impl MatchEngine {
    pub fn new(strategy: IterationStrategy, ports: usize) -> Self {
        MatchEngine {
            strategy,
            dot: (0..ports).map(|_| BTreeMap::new()).collect(),
            dot_pending: 0,
            cross: (0..ports).map(|_| Vec::new()).collect(),
        }
    }

    pub fn ports(&self) -> usize {
        self.dot.len()
    }

    /// Feed one token into `port`; returns every invocation tuple this
    /// arrival completes.
    pub fn push(&mut self, port: usize, token: Token) -> Vec<MatchedSet> {
        assert!(port < self.ports(), "port {port} out of range");
        if self.ports() == 1 {
            let index = token.index.clone();
            return vec![MatchedSet {
                tokens: vec![token],
                index,
            }];
        }
        match self.strategy {
            IterationStrategy::Dot => self.push_dot(port, token),
            IterationStrategy::Cross => self.push_cross(port, token),
        }
    }

    fn push_dot(&mut self, port: usize, token: Token) -> Vec<MatchedSet> {
        let index = token.index.clone();
        self.dot[port]
            .entry(index.clone())
            .or_default()
            .push_back(token);
        self.dot_pending += 1;
        // A match exists when every port has a queued token at `index`.
        let ready = self
            .dot
            .iter()
            .all(|m| m.get(&index).is_some_and(|q| !q.is_empty()));
        if !ready {
            return Vec::new();
        }
        let tokens: Vec<Token> = self
            .dot
            .iter_mut()
            .map(|m| {
                let q = m.get_mut(&index).expect("checked above");
                let t = q.pop_front().expect("checked non-empty");
                if q.is_empty() {
                    m.remove(&index);
                }
                t
            })
            .collect();
        self.dot_pending -= tokens.len();
        vec![MatchedSet { tokens, index }]
    }

    fn push_cross(&mut self, port: usize, token: Token) -> Vec<MatchedSet> {
        // Combine the newcomer with every existing combination of the
        // other ports, then retain it.
        let mut partials: Vec<Vec<&Token>> = vec![Vec::new()];
        for (p, seen) in self.cross.iter().enumerate() {
            if p == port {
                continue;
            }
            let mut next = Vec::new();
            for partial in &partials {
                for t in seen {
                    let mut np = partial.clone();
                    np.push(t);
                    next.push(np);
                }
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }
        let mut out = Vec::new();
        for combo in partials {
            // Assemble in port order, inserting the new token at `port`.
            let mut tokens: Vec<Token> = Vec::with_capacity(self.ports());
            let mut it = combo.into_iter();
            for p in 0..self.ports() {
                if p == port {
                    tokens.push(token.clone());
                } else {
                    tokens.push((*it.next().expect("combo covers other ports")).clone());
                }
            }
            let index = tokens
                .iter()
                .fold(DataIndex::scalar(), |acc, t| acc.concat(&t.index));
            out.push(MatchedSet { tokens, index });
        }
        self.cross[port].push(token);
        out
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
        assert_eq!(m[0].index, DataIndex(vec![2, 5]));
        // New arrival on port 0 pairs with the retained b5.
        let m = e.push(0, tok("a", 3));
        assert_eq!(m[0].index, DataIndex(vec![3, 5]));
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
        let mut seen = std::collections::HashSet::new();
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn pushing_to_bad_port_panics() {
        MatchEngine::new(IterationStrategy::Dot, 2).push(5, tok("a", 0));
    }
}
