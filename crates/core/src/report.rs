//! Per-service execution reports from a run's invocation trace — the
//! operational view a workflow user reads after a campaign: how many
//! invocations each service fired, how long they computed, and how much
//! grid overhead they paid.

use crate::trace::{per_processor, InvocationRecord};
use moteur_gridsim::{percentile, SimDuration};

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
pub fn service_stats(records: &[InvocationRecord]) -> Vec<ServiceStats> {
    let mut groups = per_processor(records);
    groups.sort_by_key(|(name, _)| *name);
    groups
        .into_iter()
        .map(|(name, rows)| {
            let n = rows.len() as f64;
            let execs: Vec<f64> = rows.iter().map(|r| r.exec_secs()).collect();
            ServiceStats {
                processor: name.to_string(),
                invocations: rows.len(),
                retries: rows.iter().map(|r| r.retries).sum(),
                mean_execution_secs: execs.iter().sum::<f64>() / n,
                min_execution_secs: execs.iter().copied().fold(f64::INFINITY, f64::min),
                max_execution_secs: execs.iter().copied().fold(0.0, f64::max),
                p50_execution_secs: percentile(&execs, 0.50),
                p95_execution_secs: percentile(&execs, 0.95),
                p99_execution_secs: percentile(&execs, 0.99),
                mean_wait_secs: rows.iter().map(|r| r.wait_secs()).sum::<f64>() / n,
                total_execution_secs: execs.iter().sum(),
            }
        })
        .collect()
}

/// Render the stats as an aligned text table, closed by the run's
/// makespan and job count.
pub fn render_report(records: &[InvocationRecord], makespan: SimDuration, jobs: usize) -> String {
    let stats = service_stats(records);
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
        "makespan {:.1}s over {jobs} jobs\n",
        makespan.as_secs_f64()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::DataIndex;
    use moteur_gridsim::SimTime;

    fn render(records: &[InvocationRecord]) -> String {
        render_report(records, SimDuration::from_secs(100), 3)
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
        let r = [
            rec("B", 5.0, 15.0, 20.0, 0),
            rec("A", 0.0, 10.0, 30.0, 0),
            rec("A", 0.0, 20.0, 60.0, 1),
        ];
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
        let text = render(&[rec("crestLines", 0.0, 1.0, 2.0, 0)]);
        assert!(text.contains("crestLines"), "{text}");
        assert!(text.contains("makespan 100.0s over 3 jobs"));
    }

    #[test]
    fn empty_result_renders_header_only() {
        assert!(service_stats(&[]).is_empty());
        assert!(render(&[]).contains("makespan"));
    }
}
