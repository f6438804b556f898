//! Critical-path analysis over a finished run's invocation records:
//! which chain of invocations determined the makespan, and which
//! services dominate it.
//!
//! The enactor fires an invocation the moment its inputs exist, so the
//! producer that *triggered* an invocation is the latest-finishing
//! record that completed no later than the consumer was submitted. A
//! backward walk from the last-finishing invocation along that relation
//! reconstructs the critical chain without needing the dataflow graph.
//!
//! Alongside the chain, [`analyze`] fits the paper's §5.2 completion
//! model per service — completion time of the i-th data item against i,
//! whose y-intercept estimates latency and slope the pipelining period
//! — so the report carries the same metrics as the makespan model.

use crate::trace::{InvocationRecord, WorkflowResult};
use std::collections::HashMap;

/// One link of the critical chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    pub processor: String,
    pub index: String,
    pub submitted_secs: f64,
    pub started_secs: f64,
    pub finished_secs: f64,
    pub retries: u32,
}

impl PathStep {
    pub fn wait_secs(&self) -> f64 {
        self.started_secs - self.submitted_secs
    }

    pub fn exec_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }
}

/// Time one service contributes to the critical chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceShare {
    pub processor: String,
    pub steps: usize,
    pub wait_secs: f64,
    pub exec_secs: f64,
}

impl ServiceShare {
    pub fn total_secs(&self) -> f64 {
        self.wait_secs + self.exec_secs
    }
}

/// Least-squares line through a service's completion times (§5.2):
/// `finish(i) ≈ intercept + slope · i` over its invocations in data
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineFit {
    pub processor: String,
    pub invocations: usize,
    pub intercept_secs: f64,
    pub slope_secs: f64,
    pub r_squared: f64,
}

/// The full analysis of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    pub makespan_secs: f64,
    /// Critical chain in execution order (first fired → last finished).
    pub steps: Vec<PathStep>,
    /// Per-service contribution, largest first.
    pub shares: Vec<ServiceShare>,
    /// Per-service completion-time fits (services with ≥ 2 invocations).
    pub fits: Vec<PipelineFit>,
}

impl CriticalPath {
    /// Fraction of the makespan covered by the chain (ideally ≈ 1; a
    /// low value means the walk lost the chain, e.g. on an empty run).
    pub fn coverage(&self) -> f64 {
        if self.makespan_secs <= 0.0 {
            return 0.0;
        }
        self.shares
            .iter()
            .map(ServiceShare::total_secs)
            .sum::<f64>()
            / self.makespan_secs
    }
}

fn step_of(r: &InvocationRecord) -> PathStep {
    PathStep {
        processor: r.processor.clone(),
        index: r.index.to_string(),
        submitted_secs: r.submitted.as_secs_f64(),
        started_secs: r.started.as_secs_f64(),
        finished_secs: r.finished.as_secs_f64(),
        retries: r.retries,
    }
}

/// Analyze a finished run.
pub fn analyze(result: &WorkflowResult) -> CriticalPath {
    let records = &result.invocations;
    let mut steps: Vec<PathStep> = Vec::new();
    if let Some(last) = records.iter().max_by(|a, b| {
        a.finished
            .partial_cmp(&b.finished)
            .unwrap_or(std::cmp::Ordering::Equal)
    }) {
        let mut cur = last;
        steps.push(step_of(cur));
        loop {
            let eps = 1e-9;
            let producer = records
                .iter()
                .filter(|r| !std::ptr::eq(*r, cur))
                .filter(|r| r.finished.as_secs_f64() <= cur.submitted.as_secs_f64() + eps)
                .max_by(|a, b| {
                    a.finished
                        .partial_cmp(&b.finished)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match producer {
                // Only follow the producer that actually gated this
                // submission: its completion coincides with it.
                Some(p)
                    if (p.finished.as_secs_f64() - cur.submitted.as_secs_f64()).abs() < 1e-6 =>
                {
                    steps.push(step_of(p));
                    cur = p;
                }
                _ => break,
            }
        }
        steps.reverse();
    }

    let mut shares: HashMap<String, ServiceShare> = HashMap::new();
    for s in &steps {
        let e = shares
            .entry(s.processor.clone())
            .or_insert_with(|| ServiceShare {
                processor: s.processor.clone(),
                steps: 0,
                wait_secs: 0.0,
                exec_secs: 0.0,
            });
        e.steps += 1;
        e.wait_secs += s.wait_secs();
        e.exec_secs += s.exec_secs();
    }
    let mut shares: Vec<ServiceShare> = shares.into_values().collect();
    shares.sort_by(|a, b| {
        b.total_secs()
            .partial_cmp(&a.total_secs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut seen: Vec<&str> = Vec::new();
    for r in records {
        if !seen.contains(&r.processor.as_str()) {
            seen.push(&r.processor);
        }
    }
    let fits = seen
        .iter()
        .filter_map(|p| {
            let of = result.invocations_of(p);
            fit(p, &of)
        })
        .collect();

    CriticalPath {
        makespan_secs: result.makespan.as_secs_f64(),
        steps,
        shares,
        fits,
    }
}

/// Least squares of finish time against data rank.
fn fit(processor: &str, records: &[&InvocationRecord]) -> Option<PipelineFit> {
    if records.len() < 2 {
        return None;
    }
    let n = records.len() as f64;
    let ys: Vec<f64> = records.iter().map(|r| r.finished.as_secs_f64()).collect();
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (i, y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    Some(PipelineFit {
        processor: processor.to_string(),
        invocations: records.len(),
        intercept_secs: intercept,
        slope_secs: slope,
        r_squared,
    })
}

/// Human-readable report of a `CriticalPath`.
pub fn render(cp: &CriticalPath) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "critical path ({:.1} s makespan)", cp.makespan_secs);
    let _ = writeln!(out, "  per-service contribution:");
    for s in &cp.shares {
        let pct = if cp.makespan_secs > 0.0 {
            100.0 * s.total_secs() / cp.makespan_secs
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "    {:<16} {:>5.1}%  exec {:>8.1} s  wait {:>8.1} s  ({} steps)",
            s.processor, pct, s.exec_secs, s.wait_secs, s.steps
        );
    }
    if !cp.fits.is_empty() {
        let _ = writeln!(
            out,
            "  completion-time fits (finish ≈ intercept + slope·i):"
        );
        for f in &cp.fits {
            let _ = writeln!(
                out,
                "    {:<16} intercept {:>8.1} s  slope {:>7.2} s/item  r² {:.3}  (n={})",
                f.processor, f.intercept_secs, f.slope_secs, f.r_squared, f.invocations
            );
        }
    }
    let _ = writeln!(out, "  chain ({} steps):", cp.steps.len());
    for s in &cp.steps {
        let _ = writeln!(
            out,
            "    {:>9.1} s  {:<16} {:<10} wait {:>7.1} s  exec {:>7.1} s",
            s.submitted_secs,
            s.processor,
            s.index,
            s.wait_secs(),
            s.exec_secs()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::DataIndex;
    use moteur_gridsim::{SimDuration, SimTime};
    use std::collections::HashMap;

    fn rec(proc: &str, i: u32, sub: f64, start: f64, end: f64) -> InvocationRecord {
        InvocationRecord {
            processor: proc.into(),
            index: DataIndex::single(i),
            submitted: SimTime::from_secs_f64(sub),
            started: SimTime::from_secs_f64(start),
            finished: SimTime::from_secs_f64(end),
            retries: 0,
        }
    }

    fn result(makespan: f64, invocations: Vec<InvocationRecord>) -> WorkflowResult {
        WorkflowResult {
            sink_outputs: HashMap::new(),
            sink_counts: HashMap::new(),
            makespan: SimDuration::from_secs_f64(makespan),
            invocations,
            jobs_submitted: 0,
            bytes_transferred: 0,
            quarantined: vec![],
        }
    }

    #[test]
    fn chain_follows_producers_backwards() {
        // A(0→10) feeds B(10→25) feeds C(25→38); D is off-path.
        let r = result(
            38.0,
            vec![
                rec("A", 0, 0.0, 2.0, 10.0),
                rec("D", 0, 0.0, 1.0, 5.0),
                rec("B", 0, 10.0, 12.0, 25.0),
                rec("C", 0, 25.0, 30.0, 38.0),
            ],
        );
        let cp = analyze(&r);
        let chain: Vec<&str> = cp.steps.iter().map(|s| s.processor.as_str()).collect();
        assert_eq!(chain, vec!["A", "B", "C"]);
        assert!(
            (cp.coverage() - 1.0).abs() < 1e-9,
            "coverage {}",
            cp.coverage()
        );
        assert_eq!(cp.shares[0].processor, "B", "B is the longest step");
    }

    #[test]
    fn fit_recovers_linear_pipeline() {
        // finish(i) = 100 + 30 i — a perfect SP pipeline.
        let recs: Vec<InvocationRecord> = (0..5)
            .map(|i| rec("P", i, 0.0, 0.0, 100.0 + 30.0 * i as f64))
            .collect();
        let r = result(220.0, recs);
        let cp = analyze(&r);
        let f = cp.fits.iter().find(|f| f.processor == "P").unwrap();
        assert!((f.intercept_secs - 100.0).abs() < 1e-6, "{f:?}");
        assert!((f.slope_secs - 30.0).abs() < 1e-6, "{f:?}");
        assert!((f.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_benign() {
        let cp = analyze(&result(0.0, vec![]));
        assert!(cp.steps.is_empty());
        assert_eq!(cp.coverage(), 0.0);
        assert!(render(&cp).contains("critical path"));
    }

    #[test]
    fn render_mentions_every_share() {
        let r = result(
            10.0,
            vec![rec("A", 0, 0.0, 1.0, 6.0), rec("B", 0, 6.0, 7.0, 10.0)],
        );
        let text = render(&analyze(&r));
        assert!(text.contains('A') && text.contains('B'), "{text}");
        assert!(
            text.contains("intercept") || !text.contains("fits"),
            "{text}"
        );
    }
}
