//! The one static analysis: stream cardinalities, computed once.
//!
//! Paper §3.5 prices a workflow by its invocation counts. One fixpoint
//! over the processor graph gives every processor's output stream and
//! every input-port stream a [`Card`] with two halves:
//!
//! - `mono`, a monomial over source names. Each source contributes one
//!   symbol, and crossing two sources of sizes `n` and `m` yields an
//!   `n·m` stream. With every source sized `n_D`, a monomial of total
//!   degree `d` is an `n_D^d` stream: the invocation count `--predict`
//!   charges and M020/M021 reason about. `None` where the count is not
//!   statically determinable (cycles, merged or unconnected ports).
//! - `items`, an interval `[lo, hi]` bounding the stream's length under
//!   the analysed [`SourceSizes`]. Every construct the monomial gives up
//!   on still gets a sound interval, so byte estimates always exist. The
//!   invariant is containment: whatever the stream's length at run time,
//!   it lies inside the interval.
//!
//! Neither half is derivable from the other. A dot of `n(a)` and `n(b)`
//! stays `n(a)` symbolically, while its interval is the min under
//! per-source sizes; a dot of a one-item stream with an empty source is
//! `1` symbolically but `[0, 0]` as an interval.
//!
//! The same pass records what the rules read about wiring: each input
//! port's feeder links, each output port's consumer count, and each
//! processor's SCC and cycle membership.

use crate::graph::{IterationStrategy, Processor, ProcessorKind, Workflow};
use std::collections::BTreeMap;
use std::fmt;

/// A bound on a stream's length: between `lo` and `hi` items, with
/// `hi = None` meaning *unbounded* (cycles whose trip count is only
/// known at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardInterval {
    /// Fewest items the stream can carry.
    pub lo: u64,
    /// Most items the stream can carry; `None` when unbounded.
    pub hi: Option<u64>,
}

impl CardInterval {
    /// The exactly-`n` interval `[n, n]`.
    pub fn exact(n: u64) -> Self {
        CardInterval { lo: n, hi: Some(n) }
    }

    /// The unbounded interval `[0, ∞)`.
    pub fn unbounded() -> Self {
        CardInterval { lo: 0, hi: None }
    }

    /// Does the interval contain `n`?
    pub fn contains(&self, n: u64) -> bool {
        self.lo <= n && self.hi.is_none_or(|hi| n <= hi)
    }

    /// Interval of `min(a, b)`: the minimum can be as small as the
    /// smaller `lo` and no larger than the smaller `hi` (dot pairing
    /// truncates to the shortest stream).
    pub fn min(self, other: Self) -> Self {
        CardInterval {
            lo: self.lo.min(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
        }
    }

    /// Scale both bounds by a per-item byte size, saturating.
    pub fn scale(self, bytes: u64) -> Self {
        CardInterval {
            lo: self.lo.saturating_mul(bytes),
            hi: self.hi.map(|h| h.saturating_mul(bytes)),
        }
    }
}

/// Interval of `a + b` (stream merge), saturating.
impl std::ops::Add for CardInterval {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        CardInterval {
            lo: self.lo.saturating_add(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }
}

/// Interval of `a × b` (cross product), saturating. A guaranteed zero
/// factor annihilates even an unbounded one: no tuples can ever
/// assemble.
impl std::ops::Mul for CardInterval {
    type Output = Self;

    fn mul(self, other: Self) -> Self {
        CardInterval {
            lo: self.lo.saturating_mul(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.saturating_mul(b)),
                (Some(0), None) | (None, Some(0)) => Some(0),
                _ => None,
            },
        }
    }
}

impl fmt::Display for CardInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hi {
            Some(hi) if hi == self.lo => write!(f, "{}", self.lo),
            Some(hi) => write!(f, "[{}, {}]", self.lo, hi),
            None => write!(f, "[{}, ∞)", self.lo),
        }
    }
}

/// Per-source stream sizes the analysis assumes. Sources absent from
/// the map get [`SourceSizes::default_n`] items exactly.
#[derive(Debug, Clone)]
pub struct SourceSizes {
    /// Item count assumed for sources not listed in `per_source` — the
    /// paper's smallest campaign (12 image pairs) by default, matching
    /// the M021 example convention.
    pub default_n: u64,
    /// Explicit per-source item counts, by processor name.
    pub per_source: BTreeMap<String, u64>,
}

impl Default for SourceSizes {
    fn default() -> Self {
        SourceSizes::uniform(12)
    }
}

impl SourceSizes {
    /// Uniform sizing: every source carries exactly `n` items.
    pub fn uniform(n: u64) -> Self {
        SourceSizes {
            default_n: n,
            per_source: BTreeMap::new(),
        }
    }

    /// Override one source's item count.
    pub fn with(mut self, source: impl Into<String>, n: u64) -> Self {
        self.per_source.insert(source.into(), n);
        self
    }

    fn of(&self, name: &str) -> u64 {
        self.per_source.get(name).copied().unwrap_or(self.default_n)
    }
}

/// The cardinality of one token stream, both halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Card {
    /// Exponent per source name: `{a: 1, b: 2}` is `n(a)·n(b)^2`, the
    /// empty map exactly one item. `None` when not statically
    /// determinable.
    pub mono: Option<BTreeMap<String, u32>>,
    /// Bound on the stream's length under the analysed source sizes.
    pub items: CardInterval,
}

impl Card {
    fn unknown(items: CardInterval) -> Self {
        Card { mono: None, items }
    }

    /// Total degree of the monomial (0 for a one-item stream).
    pub fn degree(&self) -> Option<u32> {
        self.mono.as_ref().map(|m| m.values().sum())
    }

    /// Stream length with every source sized `n_data`.
    pub fn count(&self, n_data: usize) -> Option<u64> {
        self.degree().map(|d| (n_data as u64).saturating_pow(d))
    }

    /// The monomial symbolically: `1`, `n(src)`, `n(a)·n(b)`,
    /// `n(x)^2` or `?`.
    pub fn render(&self) -> String {
        let Some(m) = &self.mono else {
            return "?".to_string();
        };
        if m.is_empty() {
            return "1".to_string();
        }
        let parts: Vec<String> = m
            .iter()
            .map(|(s, e)| match e {
                1 => format!("n({s})"),
                e => format!("n({s})^{e}"),
            })
            .collect();
        parts.join("·")
    }
}

/// What the static analysis knows about one workflow, indexed by
/// [`crate::graph::ProcId`].
#[derive(Debug)]
pub(crate) struct StaticFacts {
    /// Each processor's output stream. For a service that is its
    /// invocation count, for a sink what it collects.
    pub out: Vec<Card>,
    /// Each processor's input-port streams (empty when a feeder is a
    /// processor that does not exist).
    pub ports: Vec<Vec<Card>>,
    /// Indices into `Workflow::links` of the links feeding each input
    /// port.
    pub feeders: Vec<Vec<Vec<usize>>>,
    /// Number of links leaving each output port.
    pub consumers: Vec<Vec<usize>>,
    /// Each processor's strongly connected component
    /// ([`Workflow::scc_ids`]).
    pub scc: Vec<usize>,
    /// Which processors sit on a data-link cycle
    /// ([`Workflow::cycle_members`]): a non-trivial SCC or a self-link.
    pub in_cycle: Vec<bool>,
}

impl StaticFacts {
    /// Run the analysis with sources sized by `sizes`.
    ///
    /// Rules, for both halves:
    ///
    /// - a source emits its declared item count, symbol `n(name)`;
    /// - a processor on a data-link cycle (non-trivial SCC or self-loop)
    ///   is `(?, [0, ∞))`: trip counts are run-time properties;
    /// - an unconnected input port is `(?, [0, 0])`; a port fed by
    ///   several links sees their merged stream, `(?, sum)`;
    /// - a barrier consumes whole streams and fires once, as does a
    ///   processor without inputs: `(1, [1, 1])`;
    /// - a dot product truncates to the shortest port stream: the first
    ///   port of least degree, and the interval min;
    /// - a cross product multiplies port streams: exponents add,
    ///   intervals multiply;
    /// - a sink collects its first port's stream unchanged; a sink that
    ///   declares no port collects nothing, `(?, [0, 0])`.
    pub fn of(wf: &Workflow, sizes: &SourceSizes) -> StaticFacts {
        let n = wf.processors.len();
        let mut feeders: Vec<Vec<Vec<usize>>> = wf
            .processors
            .iter()
            .map(|p| vec![Vec::new(); p.inputs.len()])
            .collect();
        let mut consumers: Vec<Vec<usize>> = wf
            .processors
            .iter()
            .map(|p| vec![0; p.outputs.len()])
            .collect();
        for (i, l) in wf.links.iter().enumerate() {
            if let Some(f) = feeders
                .get_mut(l.to.proc.0)
                .and_then(|f| f.get_mut(l.to.port))
            {
                f.push(i);
            }
            if let Some(c) = consumers
                .get_mut(l.from.proc.0)
                .and_then(|c| c.get_mut(l.from.port))
            {
                *c += 1;
            }
        }
        let (scc, in_cycle) = wf.cycles();

        let mut out: Vec<Option<Card>> = vec![None; n];
        let mut ports: Vec<Option<Vec<Card>>> = vec![None; n];
        // Cycles resolve immediately, so the acyclic remainder
        // converges in ≤ n passes.
        for _ in 0..=n {
            let mut changed = false;
            for v in 0..n {
                if ports[v].is_none() {
                    ports[v] = port_cards(wf, &feeders[v], &out);
                    changed |= ports[v].is_some();
                }
                if out[v].is_some() {
                    continue;
                }
                let p = &wf.processors[v];
                out[v] = if in_cycle[v] {
                    Some(Card::unknown(CardInterval::unbounded()))
                } else if p.kind == ProcessorKind::Source {
                    Some(Card {
                        mono: Some(BTreeMap::from([(p.name.clone(), 1)])),
                        items: CardInterval::exact(sizes.of(&p.name)),
                    })
                } else {
                    ports[v].as_deref().map(|ins| transfer(p, ins))
                };
                changed |= out[v].is_some();
            }
            if !changed {
                break;
            }
        }
        StaticFacts {
            // Only a link from a processor that does not exist leaves
            // anything unresolved; stay sound with the unbounded interval.
            out: out
                .into_iter()
                .map(|c| c.unwrap_or_else(|| Card::unknown(CardInterval::unbounded())))
                .collect(),
            ports: ports.into_iter().map(Option::unwrap_or_default).collect(),
            feeders,
            consumers,
            scc,
            in_cycle,
        }
    }
}

/// Each input port's stream, or `None` while a feeder is unresolved.
fn port_cards(wf: &Workflow, feeders: &[Vec<usize>], out: &[Option<Card>]) -> Option<Vec<Card>> {
    let feeder = |l: usize| out.get(wf.links[l].from.proc.0)?.as_ref();
    feeders
        .iter()
        .map(|links| match links.as_slice() {
            [] => Some(Card::unknown(CardInterval::exact(0))),
            [l] => feeder(*l).cloned(),
            many => many
                .iter()
                .try_fold(CardInterval::exact(0), |sum, &l| {
                    Some(sum + feeder(l)?.items)
                })
                .map(Card::unknown),
        })
        .collect()
}

/// A processor's output stream from its input-port streams.
fn transfer(p: &Processor, ins: &[Card]) -> Card {
    if p.kind == ProcessorKind::Sink {
        // Whatever a hand-built sink declares (extra ports, sync, cross),
        // it collects its first port's stream.
        return ins
            .first()
            .cloned()
            .unwrap_or(Card::unknown(CardInterval::exact(0)));
    }
    if p.synchronization || ins.is_empty() {
        return Card {
            mono: Some(BTreeMap::new()),
            items: CardInterval::exact(1),
        };
    }
    let monos: Option<Vec<&BTreeMap<String, u32>>> = ins.iter().map(|c| c.mono.as_ref()).collect();
    let items = ins.iter().map(|c| c.items);
    let (mono, items) = match p.iteration {
        IterationStrategy::Dot => (
            monos.and_then(|ms| {
                ms.into_iter()
                    .min_by_key(|m| m.values().sum::<u32>())
                    .cloned()
            }),
            items.reduce(CardInterval::min),
        ),
        IterationStrategy::Cross => (
            monos.map(|ms| {
                let mut acc: BTreeMap<String, u32> = BTreeMap::new();
                for (s, e) in ms.into_iter().flatten() {
                    *acc.entry(s.clone()).or_insert(0) += e;
                }
                acc
            }),
            items.reduce(|a, b| a * b),
        ),
    };
    Card {
        mono,
        items: items.unwrap_or(CardInterval::exact(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProcId;
    use crate::service::{ServiceBinding, ServiceProfile};
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

    fn desc(name: &str, inputs: &[&str]) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: inputs
                .iter()
                .map(|i| InputSlot {
                    name: (*i).into(),
                    option: format!("-{i}"),
                    access: Some(AccessMethod::Gfn),
                    bytes: None,
                })
                .collect(),
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    fn service(wf: &mut Workflow, name: &str, inputs: &[&str]) -> ProcId {
        wf.add_service(
            name,
            inputs,
            &["out"],
            ServiceBinding::descriptor(desc(name, inputs), ServiceProfile::new(1.0)),
        )
    }

    fn items(wf: &Workflow, sizes: &SourceSizes) -> Vec<CardInterval> {
        StaticFacts::of(wf, sizes)
            .out
            .into_iter()
            .map(|c| c.items)
            .collect()
    }

    #[test]
    fn interval_arithmetic_and_rendering() {
        let three = CardInterval::exact(3);
        let wide = CardInterval { lo: 2, hi: Some(5) };
        let inf = CardInterval::unbounded();
        assert_eq!(three.min(wide), CardInterval { lo: 2, hi: Some(3) });
        assert_eq!(
            three * wide,
            CardInterval {
                lo: 6,
                hi: Some(15)
            }
        );
        assert_eq!(three + wide, CardInterval { lo: 5, hi: Some(8) });
        // The unbounded stream could be empty, so the min's floor is 0.
        assert_eq!(wide.min(inf), CardInterval { lo: 0, hi: Some(5) });
        assert_eq!(CardInterval::exact(0) * inf, CardInterval::exact(0));
        assert!(inf.contains(u64::MAX));
        assert!(!wide.contains(6));
        assert_eq!(three.to_string(), "3");
        assert_eq!(wide.to_string(), "[2, 5]");
        assert_eq!(inf.to_string(), "[0, ∞)");
        assert_eq!(
            wide.scale(10),
            CardInterval {
                lo: 20,
                hi: Some(50)
            }
        );
    }

    #[test]
    fn saturating_never_wraps() {
        let huge = CardInterval::exact(u64::MAX / 2);
        let prod = huge * huge;
        assert_eq!(prod.hi, Some(u64::MAX));
        assert_eq!((huge + huge).hi, Some(u64::MAX - 1));
        assert_eq!(huge.scale(u64::MAX).lo, u64::MAX);
    }

    #[test]
    fn empty_input_sets_propagate_zero() {
        // A campaign with no data at all.
        let mut wf = Workflow::new("empty");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", sink, "in").unwrap();
        let iv = items(&wf, &SourceSizes::uniform(0));
        assert_eq!(iv[a.0], CardInterval::exact(0));
        assert_eq!(iv[sink.0], CardInterval::exact(0));
    }

    #[test]
    fn zero_cardinality_port_annihilates_cross_products() {
        // One empty source against a full one.
        let mut wf = Workflow::new("zero-port");
        let full = wf.add_source("full");
        let empty = wf.add_source("empty");
        let x = service(&mut wf, "x", &["a", "b"]);
        wf.set_iteration(x, IterationStrategy::Cross);
        let sink = wf.add_sink("sink");
        wf.connect(full, "out", x, "a").unwrap();
        wf.connect(empty, "out", x, "b").unwrap();
        wf.connect(x, "out", sink, "in").unwrap();
        let sizes = SourceSizes::uniform(12).with("empty", 0);
        assert_eq!(items(&wf, &sizes)[x.0], CardInterval::exact(0));
    }

    #[test]
    fn unconnected_input_port_means_no_invocations() {
        let mut wf = Workflow::new("unfed");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in", "never_fed"]);
        wf.connect(src, "out", a, "in").unwrap();
        let facts = StaticFacts::of(&wf, &SourceSizes::uniform(5));
        // Dot of [5,5] with [0,0] can never assemble a tuple, and the
        // unfed port has no monomial.
        assert_eq!(facts.out[a.0], Card::unknown(CardInterval::exact(0)));
        assert_eq!(facts.feeders[a.0], [vec![0], vec![]]);
        assert_eq!(facts.consumers[a.0], [0]);
    }

    #[test]
    fn nested_dot_within_cross() {
        // d = dot(a, b) feeding x = cross(d, c). Exact counts:
        // |d| = min(n, m) = 3, |x| = 3 × k = 12.
        let mut wf = Workflow::new("nested");
        let a = wf.add_source("a");
        let b = wf.add_source("b");
        let c = wf.add_source("c");
        let d = service(&mut wf, "d", &["l", "r"]);
        let x = service(&mut wf, "x", &["l", "r"]);
        wf.set_iteration(x, IterationStrategy::Cross);
        let sink = wf.add_sink("sink");
        wf.connect(a, "out", d, "l").unwrap();
        wf.connect(b, "out", d, "r").unwrap();
        wf.connect(d, "out", x, "l").unwrap();
        wf.connect(c, "out", x, "r").unwrap();
        wf.connect(x, "out", sink, "in").unwrap();
        let sizes = SourceSizes::uniform(3).with("b", 7).with("c", 4);
        let facts = StaticFacts::of(&wf, &sizes);
        assert_eq!(facts.out[d.0].items, CardInterval::exact(3));
        assert_eq!(facts.out[x.0].items, CardInterval::exact(12));
        assert_eq!(facts.out[sink.0].items, CardInterval::exact(12));
        // Symbolically the dot keeps its first shortest stream, n(a).
        assert_eq!(facts.out[d.0].render(), "n(a)");
        assert_eq!(facts.out[x.0].render(), "n(a)·n(c)");
    }

    #[test]
    fn the_halves_part_ways_on_a_one_item_stream_dotted_with_an_empty_source() {
        // Why `items` is not the monomial evaluated under the sizes.
        let mut wf = Workflow::new("one-vs-empty");
        let src = wf.add_source("src");
        let empty = wf.add_source("empty");
        let all = service(&mut wf, "all", &["in"]);
        wf.set_synchronization(all, true);
        let d = service(&mut wf, "d", &["one", "none"]);
        wf.connect(src, "out", all, "in").unwrap();
        wf.connect(all, "out", d, "one").unwrap();
        wf.connect(empty, "out", d, "none").unwrap();
        let facts = StaticFacts::of(&wf, &SourceSizes::uniform(4).with("empty", 0));
        assert_eq!(facts.out[d.0].render(), "1");
        assert_eq!(facts.out[d.0].items, CardInterval::exact(0));
    }

    #[test]
    fn barriers_and_cycles() {
        let mut wf = Workflow::new("sync-cycle");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in"]);
        let barrier = service(&mut wf, "barrier", &["in"]);
        wf.set_synchronization(barrier, true);
        let looper = service(&mut wf, "looper", &["in", "feedback"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", barrier, "in").unwrap();
        wf.connect(barrier, "out", looper, "in").unwrap();
        wf.connect(looper, "out", looper, "feedback").unwrap();
        wf.connect(looper, "out", sink, "in").unwrap();
        let facts = StaticFacts::of(&wf, &SourceSizes::uniform(9));
        assert_eq!(facts.out[barrier.0].items, CardInterval::exact(1));
        assert_eq!(facts.out[barrier.0].render(), "1");
        assert_eq!(
            facts.out[looper.0],
            Card::unknown(CardInterval::unbounded())
        );
        // The sink inherits the loop's unboundedness.
        assert_eq!(facts.out[sink.0].items, CardInterval::unbounded());
        // A cycle member's ports are still known where they are fed
        // from outside the cycle.
        assert_eq!(facts.ports[looper.0][0].render(), "1");
        assert_eq!(facts.ports[looper.0][1].render(), "?");
    }

    #[test]
    fn a_sink_without_ports_collects_nothing() {
        // Only reachable by hand: the link into its port #0 is an M001.
        let mut wf = Workflow::new("portless-sink");
        let src = wf.add_source("src");
        let sink = wf.add_sink("sink");
        wf.processors[sink.0].inputs.clear();
        wf.links.push(crate::graph::Link {
            from: crate::graph::PortRef { proc: src, port: 0 },
            to: crate::graph::PortRef {
                proc: sink,
                port: 0,
            },
        });
        let facts = StaticFacts::of(&wf, &SourceSizes::uniform(5));
        assert_eq!(facts.out[sink.0], Card::unknown(CardInterval::exact(0)));
    }

    #[test]
    fn merged_streams_sum() {
        let mut wf = Workflow::new("merge");
        let a = wf.add_source("a");
        let b = wf.add_source("b");
        let m = service(&mut wf, "m", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(a, "out", m, "in").unwrap();
        wf.connect(b, "out", m, "in").unwrap();
        wf.connect(m, "out", sink, "in").unwrap();
        let facts = StaticFacts::of(&wf, &SourceSizes::uniform(4).with("b", 6));
        assert_eq!(facts.out[m.0], Card::unknown(CardInterval::exact(10)));
        assert_eq!(facts.consumers[a.0], [1]);
        assert_eq!(facts.feeders[m.0], [vec![0, 1]]);
    }

    /// Property: wherever the monomial is known, its count under
    /// uniform sizes lies inside the interval. The check against counts
    /// the enactor observes is ROADMAP item 2's.
    #[test]
    fn intervals_contain_monomial_counts() {
        let mut checked = 0;
        for case in 0..600 {
            let (wf, sizes) = crate::random_workflow::random_workflow(case);
            let n = sizes.default_n;
            let facts = StaticFacts::of(&wf, &SourceSizes::uniform(n));
            for (proc, card) in facts
                .out
                .iter()
                .chain(facts.ports.iter().flatten())
                .enumerate()
            {
                if let Some(count) = card.count(n as usize) {
                    checked += 1;
                    assert!(
                        card.items.contains(count),
                        "case {case} stream {proc}: {} = {count} outside {}",
                        card.render(),
                        card.items
                    );
                }
            }
        }
        assert!(checked > 3000, "only {checked} streams had a monomial");
    }
}
