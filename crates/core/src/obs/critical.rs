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

use crate::trace::{per_processor, InvocationRecord};
use moteur_gridsim::SimDuration;

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
    pub steps: Vec<InvocationRecord>,
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

/// Analyze a finished run from its invocation records.
pub fn analyze(records: &[InvocationRecord], makespan: SimDuration) -> CriticalPath {
    let mut chain = Vec::from_iter(records.iter().max_by_key(|r| r.finished));
    while let Some(&cur) = chain.last() {
        let producer = records
            .iter()
            .filter(|r| !std::ptr::eq(*r, cur))
            .filter(|r| r.finished.as_secs_f64() <= cur.submitted.as_secs_f64() + 1e-9)
            .max_by_key(|r| r.finished);
        match producer {
            // Only follow the producer that actually gated this
            // submission: its completion coincides with it. Records
            // that take no time (cache replays on an ideal grid) can
            // gate each other at one instant; the walk stops where it
            // would revisit one.
            Some(p)
                if (p.finished.as_secs_f64() - cur.submitted.as_secs_f64()).abs() < 1e-6
                    && !chain.iter().any(|c| std::ptr::eq(*c, p)) =>
            {
                chain.push(p);
            }
            _ => break,
        }
    }
    let steps: Vec<InvocationRecord> = chain.into_iter().rev().cloned().collect();

    // In chain order, so services with equal shares keep one order.
    let mut shares: Vec<ServiceShare> = per_processor(&steps)
        .into_iter()
        .map(|(processor, on_chain)| ServiceShare {
            processor: processor.to_string(),
            steps: on_chain.len(),
            wait_secs: on_chain.iter().map(|s| s.wait_secs()).sum(),
            exec_secs: on_chain.iter().map(|s| s.exec_secs()).sum(),
        })
        .collect();
    shares.sort_by(|a, b| {
        b.total_secs()
            .partial_cmp(&a.total_secs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let fits = per_processor(records)
        .into_iter()
        .filter_map(|(p, mut of)| {
            of.sort_by(|a, b| a.index.cmp(&b.index));
            fit(p, &of)
        })
        .collect();

    CriticalPath {
        makespan_secs: makespan.as_secs_f64(),
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
            s.submitted.as_secs_f64(),
            s.processor,
            s.index.to_string(),
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
    use moteur_gridsim::SimTime;

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

    fn analyze_at(makespan: f64, records: &[InvocationRecord]) -> CriticalPath {
        analyze(records, SimDuration::from_secs_f64(makespan))
    }

    #[test]
    fn chain_follows_producers_backwards() {
        // A(0→10) feeds B(10→25) feeds C(25→38); D is off-path.
        let cp = analyze_at(
            38.0,
            &[
                rec("A", 0, 0.0, 2.0, 10.0),
                rec("D", 0, 0.0, 1.0, 5.0),
                rec("B", 0, 10.0, 12.0, 25.0),
                rec("C", 0, 25.0, 30.0, 38.0),
            ],
        );
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
    fn instantaneous_records_end_the_walk_instead_of_cycling() {
        // Two zero-length records at one instant each look like the
        // other's producer.
        let cp = analyze_at(
            5.0,
            &[rec("A", 0, 5.0, 5.0, 5.0), rec("B", 0, 5.0, 5.0, 5.0)],
        );
        assert_eq!(cp.steps.len(), 2, "{:?}", cp.steps);
        let shares: Vec<&str> = cp.shares.iter().map(|s| s.processor.as_str()).collect();
        assert_eq!(shares, ["A", "B"], "equal shares keep chain order");
    }

    #[test]
    fn fit_recovers_linear_pipeline() {
        // finish(i) = 100 + 30 i — a perfect SP pipeline.
        let recs: Vec<InvocationRecord> = (0..5)
            .map(|i| rec("P", i, 0.0, 0.0, 100.0 + 30.0 * i as f64))
            .collect();
        let cp = analyze_at(220.0, &recs);
        let f = cp.fits.iter().find(|f| f.processor == "P").unwrap();
        assert!((f.intercept_secs - 100.0).abs() < 1e-6, "{f:?}");
        assert!((f.slope_secs - 30.0).abs() < 1e-6, "{f:?}");
        assert!((f.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_benign() {
        let cp = analyze_at(0.0, &[]);
        assert!(cp.steps.is_empty());
        assert_eq!(cp.coverage(), 0.0);
        assert!(render(&cp).contains("critical path"));
    }

    #[test]
    fn render_mentions_every_share() {
        let cp = analyze_at(
            10.0,
            &[rec("A", 0, 0.0, 1.0, 6.0), rec("B", 0, 6.0, 7.0, 10.0)],
        );
        let text = render(&cp);
        assert!(text.contains('A') && text.contains('B'), "{text}");
        assert!(
            text.contains("intercept") || !text.contains("fits"),
            "{text}"
        );
    }
}
