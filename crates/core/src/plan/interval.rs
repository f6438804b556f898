//! The interval cardinality abstract domain.
//!
//! Generalizes the exact M020 cardinality algebra
//! ([`crate::lint::rules::cardinality`]) from monomials over source
//! sizes to `[lo, hi]` *bounds* on stream lengths: every construct the
//! exact algebra must give up on (cycles, merged streams, unconnected
//! ports) still gets a sound interval, so downstream byte estimates
//! always exist. The invariant — checked by a property test against the
//! exact algebra — is containment: whatever the true stream length is
//! at run time, it lies inside the interval.

use crate::graph::{IterationStrategy, ProcId, ProcessorKind, Workflow};
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

    /// Is the interval a single point?
    pub fn is_exact(&self) -> bool {
        self.hi == Some(self.lo)
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
        SourceSizes {
            default_n: 12,
            per_source: BTreeMap::new(),
        }
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

/// Interval on the *output* stream of every processor (indexed by
/// [`ProcId`]), propagated from `sizes` through iteration strategies.
///
/// Transfer rules, mirroring the exact algebra where it is defined and
/// staying sound where it is not:
///
/// - a source emits exactly its declared item count;
/// - any processor on a data-link cycle (non-trivial SCC or self-loop)
///   is `[0, ∞)` — trip counts are run-time properties;
/// - a synchronization barrier consumes whole streams and fires once;
/// - a dot product truncates to the shortest input port stream
///   ([`CardInterval::min`]);
/// - a cross product multiplies port streams (`Mul for CardInterval`);
/// - an input port fed by several links sees the merged stream
///   (`Add for CardInterval` over feeders), one fed by none is `[0, 0]`;
/// - a sink passes its input port stream through.
pub fn output_intervals(wf: &Workflow, sizes: &SourceSizes) -> Vec<CardInterval> {
    let n = wf.processors.len();
    let in_cycle = wf.cycle_members();

    let mut out: Vec<Option<CardInterval>> = vec![None; n];
    // Fixpoint iteration; cycles resolve immediately, so the acyclic
    // remainder converges in ≤ n passes exactly like the exact algebra.
    for _ in 0..=n {
        let mut changed = false;
        for v in 0..n {
            if out[v].is_some() {
                continue;
            }
            let p = &wf.processors[v];
            let interval = if in_cycle[v] {
                Some(CardInterval::unbounded())
            } else if p.kind == ProcessorKind::Source {
                Some(CardInterval::exact(sizes.of(&p.name)))
            } else {
                input_intervals(wf, ProcId(v), &out).map(|ins| combine(p, &ins))
            };
            if interval.is_some() {
                out[v] = interval;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Anything still unresolved is downstream of nothing computable —
    // stay sound with the unbounded interval.
    out.into_iter()
        .map(|c| c.unwrap_or_else(CardInterval::unbounded))
        .collect()
}

/// Interval on each *input port* stream of `proc`, or `None` while a
/// predecessor is still unresolved. Multiple feeders merge (sum);
/// an unconnected port carries nothing.
pub fn input_intervals(
    wf: &Workflow,
    proc: ProcId,
    out: &[Option<CardInterval>],
) -> Option<Vec<CardInterval>> {
    let p = wf.processor(proc);
    let n_ports = if p.kind == ProcessorKind::Sink {
        1
    } else {
        p.inputs.len()
    };
    let mut intervals = Vec::with_capacity(n_ports);
    for port in 0..n_ports {
        let mut acc: Option<CardInterval> = None;
        for l in wf
            .links
            .iter()
            .filter(|l| l.to.proc == proc && l.to.port == port)
        {
            let feeder = (*out.get(l.from.proc.0)?)?;
            acc = Some(match acc {
                None => feeder,
                Some(prev) => prev + feeder,
            });
        }
        intervals.push(acc.unwrap_or(CardInterval::exact(0)));
    }
    Some(intervals)
}

/// Combine input-port intervals under the processor's iteration
/// strategy into its output-stream interval.
fn combine(p: &crate::graph::Processor, inputs: &[CardInterval]) -> CardInterval {
    if p.kind == ProcessorKind::Sink {
        // A sink collects its input stream unchanged.
        return inputs.first().copied().unwrap_or(CardInterval::exact(0));
    }
    if p.synchronization {
        // A barrier consumes its entire input streams and fires once.
        return CardInterval::exact(1);
    }
    if inputs.is_empty() {
        // A no-input service never assembles a tuple beyond the empty
        // one (sources are handled by the caller).
        return CardInterval::exact(1);
    }
    match p.iteration {
        IterationStrategy::Dot => inputs
            .iter()
            .copied()
            .reduce(CardInterval::min)
            .unwrap_or(CardInterval::exact(0)),
        IterationStrategy::Cross => inputs
            .iter()
            .copied()
            .reduce(|a, b| a * b)
            .unwrap_or(CardInterval::exact(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::rules::cardinality::output_cardinalities;
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
        // Satellite edge case: a campaign with no data at all.
        let mut wf = Workflow::new("empty");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", sink, "in").unwrap();
        let iv = output_intervals(&wf, &SourceSizes::uniform(0));
        assert_eq!(iv[a.0], CardInterval::exact(0));
        assert_eq!(iv[sink.0], CardInterval::exact(0));
    }

    #[test]
    fn zero_cardinality_port_annihilates_cross_products() {
        // Satellite edge case: one empty source against a full one.
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
        let iv = output_intervals(&wf, &sizes);
        assert_eq!(iv[x.0], CardInterval::exact(0));
    }

    #[test]
    fn unconnected_input_port_means_no_invocations() {
        let mut wf = Workflow::new("unfed");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in", "never_fed"]);
        wf.connect(src, "out", a, "in").unwrap();
        let iv = output_intervals(&wf, &SourceSizes::uniform(5));
        // Dot of [5,5] with [0,0] can never assemble a tuple.
        assert_eq!(iv[a.0], CardInterval::exact(0));
    }

    #[test]
    fn nested_dot_within_cross() {
        // Satellite edge case: d = dot(a, b) feeding x = cross(d, c).
        // Exact counts: |d| = min(n, m) = 3, |x| = 3 × k = 12.
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
        let iv = output_intervals(&wf, &sizes);
        assert_eq!(iv[d.0], CardInterval::exact(3));
        assert_eq!(iv[x.0], CardInterval::exact(12));
        assert_eq!(iv[sink.0], CardInterval::exact(12));
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
        let iv = output_intervals(&wf, &SourceSizes::uniform(9));
        assert_eq!(iv[barrier.0], CardInterval::exact(1));
        assert_eq!(iv[looper.0], CardInterval::unbounded());
        // The sink inherits the loop's unboundedness.
        assert_eq!(iv[sink.0], CardInterval::unbounded());
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
        let iv = output_intervals(&wf, &SourceSizes::uniform(4).with("b", 6));
        assert_eq!(iv[m.0], CardInterval::exact(10));
    }

    /// Property (satellite): on workflows where the exact algebra is
    /// defined, the interval always contains the exact count. Random
    /// layered DAGs from a deterministic LCG — no external rand crate.
    #[test]
    fn intervals_contain_exact_counts() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            // xorshift*; plenty for structural fuzzing.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        for case in 0..200 {
            let mut wf = Workflow::new(format!("fuzz{case}"));
            let n_sources = 1 + next(3) as usize;
            let mut pool: Vec<ProcId> = (0..n_sources)
                .map(|i| wf.add_source(format!("s{i}")))
                .collect();
            let n_services = 1 + next(5) as usize;
            for i in 0..n_services {
                let fan_in = 1 + next(2.min(pool.len() as u64)) as usize;
                let ports: Vec<String> = (0..fan_in).map(|p| format!("in{p}")).collect();
                let port_refs: Vec<&str> = ports.iter().map(String::as_str).collect();
                let svc = service(&mut wf, &format!("v{i}"), &port_refs);
                if next(2) == 0 {
                    wf.set_iteration(svc, IterationStrategy::Cross);
                }
                for port in &ports {
                    let feeder = pool[next(pool.len() as u64) as usize];
                    wf.connect(feeder, "out", svc, port).unwrap();
                }
                pool.push(svc);
            }
            let n = 1 + next(6);
            let exact = output_cardinalities(&wf);
            let intervals = output_intervals(&wf, &SourceSizes::uniform(n));
            for (proc, (card, interval)) in exact.iter().zip(&intervals).enumerate() {
                if let Some(count) = card.count(n as usize) {
                    assert!(
                        interval.contains(count),
                        "case {case} proc {proc}: exact {count} outside {interval}"
                    );
                }
            }
        }
    }
}
