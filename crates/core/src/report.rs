//! Per-service execution reports from a run's invocation trace — the
//! operational view a workflow user reads after a campaign: how many
//! invocations each service fired, how long they computed, and how much
//! grid overhead they paid.

use crate::trace::WorkflowResult;
use moteur_gridsim::percentile;
use std::collections::BTreeMap;

/// Aggregated timings of one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    pub processor: String,
    pub invocations: usize,
    pub retries: u32,
    /// Mean/min/max of (finished − started): the execution window.
    pub mean_execution_secs: f64,
    pub min_execution_secs: f64,
    pub max_execution_secs: f64,
    /// Execution-window distribution tails (linear interpolation).
    pub p50_execution_secs: f64,
    pub p95_execution_secs: f64,
    pub p99_execution_secs: f64,
    /// Mean of (started − submitted): grid overhead before execution.
    pub mean_wait_secs: f64,
    /// Sum of execution windows (total busy time).
    pub total_execution_secs: f64,
}

/// Compute per-processor statistics, sorted by processor name.
pub fn service_stats(result: &WorkflowResult) -> Vec<ServiceStats> {
    let mut groups: BTreeMap<&str, Vec<(f64, f64, u32)>> = BTreeMap::new();
    for r in &result.invocations {
        let exec = r.finished.since(r.started).as_secs_f64();
        let wait = r.started.since(r.submitted).as_secs_f64();
        groups
            .entry(&r.processor)
            .or_default()
            .push((exec, wait, r.retries));
    }
    groups
        .into_iter()
        .map(|(name, rows)| {
            let n = rows.len() as f64;
            let execs: Vec<f64> = rows.iter().map(|(e, _, _)| *e).collect();
            ServiceStats {
                processor: name.to_string(),
                invocations: rows.len(),
                retries: rows.iter().map(|(_, _, r)| *r).sum(),
                mean_execution_secs: execs.iter().sum::<f64>() / n,
                min_execution_secs: execs.iter().copied().fold(f64::INFINITY, f64::min),
                max_execution_secs: execs.iter().copied().fold(0.0, f64::max),
                p50_execution_secs: percentile(&execs, 0.50),
                p95_execution_secs: percentile(&execs, 0.95),
                p99_execution_secs: percentile(&execs, 0.99),
                mean_wait_secs: rows.iter().map(|(_, w, _)| w).sum::<f64>() / n,
                total_execution_secs: execs.iter().sum(),
            }
        })
        .collect()
}

/// Render the stats as an aligned text table.
pub fn render_report(result: &WorkflowResult) -> String {
    let stats = service_stats(result);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "service",
        "invoc",
        "retries",
        "mean exec",
        "p50 exec",
        "p95 exec",
        "max exec",
        "mean wait",
        "busy total"
    ));
    out.push_str(&"-".repeat(106));
    out.push('\n');
    for s in &stats {
        out.push_str(&format!(
            "{:<24} {:>6} {:>7} {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s\n",
            s.processor,
            s.invocations,
            s.retries,
            s.mean_execution_secs,
            s.p50_execution_secs,
            s.p95_execution_secs,
            s.max_execution_secs,
            s.mean_wait_secs,
            s.total_execution_secs,
        ));
    }
    out.push_str(&format!(
        "makespan {:.1}s over {} jobs\n",
        result.makespan.as_secs_f64(),
        result.jobs_submitted
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::DataIndex;
    use crate::trace::InvocationRecord;
    use moteur_gridsim::{SimDuration, SimTime};
    use std::collections::HashMap;

    fn result_with(records: Vec<InvocationRecord>) -> WorkflowResult {
        WorkflowResult {
            sink_outputs: HashMap::new(),
            sink_counts: HashMap::new(),
            makespan: SimDuration::from_secs(100),
            invocations: records,
            jobs_submitted: 3,
            bytes_transferred: 0,
            quarantined: vec![],
        }
    }

    fn rec(proc: &str, submit: f64, start: f64, end: f64, retries: u32) -> InvocationRecord {
        InvocationRecord {
            processor: proc.into(),
            index: DataIndex::single(0),
            submitted: SimTime::from_secs_f64(submit),
            started: SimTime::from_secs_f64(start),
            finished: SimTime::from_secs_f64(end),
            retries,
        }
    }

    #[test]
    fn stats_aggregate_per_processor() {
        let r = result_with(vec![
            rec("A", 0.0, 10.0, 30.0, 0),
            rec("A", 0.0, 20.0, 60.0, 1),
            rec("B", 5.0, 15.0, 20.0, 0),
        ]);
        let stats = service_stats(&r);
        assert_eq!(stats.len(), 2);
        let a = &stats[0];
        assert_eq!(a.processor, "A");
        assert_eq!(a.invocations, 2);
        assert_eq!(a.retries, 1);
        assert!(
            (a.mean_execution_secs - 30.0).abs() < 1e-9,
            "mean of 20 and 40"
        );
        assert!((a.min_execution_secs - 20.0).abs() < 1e-9);
        assert!((a.max_execution_secs - 40.0).abs() < 1e-9);
        assert!((a.mean_wait_secs - 15.0).abs() < 1e-9, "mean of 10 and 20");
        assert!((a.total_execution_secs - 60.0).abs() < 1e-9);
        // Two samples 20 and 40: p50 interpolates to 30, p95/p99 near 40.
        assert!((a.p50_execution_secs - 30.0).abs() < 1e-9);
        assert!(a.p95_execution_secs <= a.p99_execution_secs);
        assert!((a.p99_execution_secs - 39.8).abs() < 0.2 + 1e-9);
        let b = &stats[1];
        assert_eq!(b.invocations, 1);
        assert!(
            (b.p50_execution_secs - 5.0).abs() < 1e-9,
            "single sample = every percentile"
        );
        assert!((b.p99_execution_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn report_renders_rows_and_makespan() {
        let r = result_with(vec![rec("crestLines", 0.0, 1.0, 2.0, 0)]);
        let text = render_report(&r);
        assert!(text.contains("crestLines"), "{text}");
        assert!(text.contains("makespan 100.0s over 3 jobs"));
    }

    #[test]
    fn empty_result_renders_header_only() {
        let r = result_with(vec![]);
        assert!(service_stats(&r).is_empty());
        assert!(render_report(&r).contains("makespan"));
    }
}
