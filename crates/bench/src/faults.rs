//! Fault-injection benchmark: the Bronze-Standard campaign under an
//! unreliable grid, enacted once per fault-tolerance strategy.
//!
//! The grid is `egee_2006` with its middleware-level resubmission
//! disabled (`max_retries = 0`), so every failure — at the configured
//! `failure_probability`, ≥ the preset's 4% — surfaces to the enactor
//! and the retry policies actually differ. Three strategies compete:
//!
//! - **naive** — the legacy enactor: immediate fixed resubmission, no
//!   timeout. An RB-saturation stall (the 5% long-tail match delay) or
//!   a slow failure detection holds the whole makespan hostage.
//! - **backoff** — exponential backoff between resubmissions. Kinder
//!   to the broker under correlated failure bursts, but each retry
//!   waits, so the makespan is not expected to improve.
//! - **timeout+replication** — a percentile-adaptive timeout declares
//!   outliers and races a speculative replica against each (first
//!   completion wins). This is the strategy that should beat naive.
//!
//! `BENCH_faults.json` records the per-strategy makespans and the
//! timeout/replica/resubmission traffic; the CI gate
//! ([`crate::gate::FAULTS`]) requires `timeout+replication` to beat
//! `naive` on mean makespan.

use crate::bronze::{bronze_inputs, bronze_workflow};
use moteur::obs::json::{self, JsonObject};
use moteur::{
    Enactment, EnactorConfig, FtConfig, FtPolicy, MoteurError, Obs, RetryPolicy, RingBufferSink,
    SimBackend, TimeoutAction, TimeoutPolicy,
};
use moteur_gridsim::GridConfig;

/// Schema tag of [`render_faults_json`].
pub const FAULTS_SCHEMA: &str = "moteur-bench/faults/v1";

/// The competing fault-tolerance strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStrategy {
    Naive,
    Backoff,
    TimeoutReplication,
}

impl FaultStrategy {
    pub const ALL: [FaultStrategy; 3] = [
        FaultStrategy::Naive,
        FaultStrategy::Backoff,
        FaultStrategy::TimeoutReplication,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            FaultStrategy::Naive => "naive",
            FaultStrategy::Backoff => "backoff",
            FaultStrategy::TimeoutReplication => "timeout+replication",
        }
    }

    /// The enactor configuration this strategy stands for.
    pub fn ft_config(self) -> FtConfig {
        let policy = match self {
            FaultStrategy::Naive => FtPolicy::fixed(3),
            FaultStrategy::Backoff => FtPolicy {
                retry: RetryPolicy::ExponentialBackoff {
                    max_retries: 3,
                    base_delay: 30.0,
                    factor: 2.0,
                    max_delay: 300.0,
                },
                timeout: TimeoutPolicy::None,
                on_timeout: TimeoutAction::Resubmit,
            },
            FaultStrategy::TimeoutReplication => FtPolicy {
                retry: RetryPolicy::Fixed { max_retries: 3 },
                // 2 × the observed p75: tight enough to catch the RB
                // stalls and slow failure detections, loose enough that
                // ordinary queueing noise never trips it. Warm-up
                // (fallback ∞) leaves the first completions untimed.
                timeout: TimeoutPolicy::Adaptive {
                    percentile: 0.75,
                    multiplier: 2.0,
                    min_samples: 3,
                    fallback: f64::INFINITY,
                },
                on_timeout: TimeoutAction::Replicate { max_replicas: 2 },
            },
        };
        // Quarantine instead of aborting so one astronomically unlucky
        // item cannot void a whole campaign; the report counts them.
        FtConfig::from_legacy(3)
            .with_default(policy)
            .with_continue_on_error(true)
    }
}

/// What one strategy did over all repeats.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    pub strategy: &'static str,
    pub makespans_secs: Vec<f64>,
    pub mean_makespan_secs: f64,
    pub max_makespan_secs: f64,
    /// Totals across all repeats.
    pub jobs_submitted: usize,
    pub timeouts: u64,
    pub replicas: u64,
    pub resubmissions: u64,
    pub quarantined: usize,
}

/// Campaign shape: size, seeds, and how unreliable the grid is.
#[derive(Debug, Clone)]
pub struct FaultsSpec {
    pub n_data: usize,
    pub seed: u64,
    pub repeats: usize,
    /// Per-attempt failure probability (the `egee_2006` preset is 4%).
    pub failure_probability: f64,
}

impl Default for FaultsSpec {
    fn default() -> Self {
        FaultsSpec {
            n_data: 6,
            seed: 2006,
            repeats: 5,
            failure_probability: GridConfig::egee_2006().failure_probability,
        }
    }
}

impl FaultsSpec {
    /// The grid under test: `egee_2006` with middleware resubmission
    /// disabled so every failure reaches the enactor.
    fn grid(&self) -> GridConfig {
        let mut grid = GridConfig::egee_2006();
        grid.failure_probability = self.failure_probability;
        grid.max_retries = 0;
        grid
    }
}

/// The full campaign result (`BENCH_faults.json`).
#[derive(Debug, Clone)]
pub struct FaultsReport {
    pub spec: FaultsSpec,
    /// One outcome per strategy, in [`FaultStrategy::ALL`] order.
    pub outcomes: Vec<StrategyOutcome>,
}

impl FaultsReport {
    pub fn outcome(&self, strategy: &str) -> Option<&StrategyOutcome> {
        self.outcomes.iter().find(|o| o.strategy == strategy)
    }

    /// The gate's verdict ([`crate::gate::FAULTS`]) on this report.
    pub fn ok(&self) -> bool {
        crate::gate::FAULTS.passes(&render_faults_json(self))
    }

    /// `naive_mean / replication_mean` — headline speed-up.
    pub fn replication_speedup(&self) -> f64 {
        match (
            self.outcome(FaultStrategy::Naive.name()),
            self.outcome(FaultStrategy::TimeoutReplication.name()),
        ) {
            (Some(n), Some(r)) if r.mean_makespan_secs > 0.0 => {
                n.mean_makespan_secs / r.mean_makespan_secs
            }
            _ => f64::NAN,
        }
    }
}

/// Run the campaign: every strategy over the same seeds on the same
/// unreliable grid.
pub fn run_faults(spec: &FaultsSpec) -> Result<FaultsReport, MoteurError> {
    if spec.n_data == 0 || spec.repeats == 0 {
        return Err(MoteurError::new(
            "faults campaign needs n_data and repeats > 0",
        ));
    }
    let workflow = bronze_workflow();
    let inputs = bronze_inputs(spec.n_data);
    let mut outcomes = Vec::new();
    for strategy in FaultStrategy::ALL {
        let ft = strategy.ft_config();
        let mut makespans = Vec::new();
        let (mut jobs, mut timeouts, mut replicas, mut resubs, mut quarantined) = (0, 0, 0, 0, 0);
        for r in 0..spec.repeats {
            let seed = spec.seed + 1000 * r as u64;
            let (sink, buffer) = RingBufferSink::new(1 << 16);
            let obs = Obs::new(vec![Box::new(sink)]);
            let mut backend = SimBackend::with_obs(spec.grid(), seed, &obs);
            let config = EnactorConfig::sp_dp().with_seed(seed);
            let result = Enactment::new(&workflow, &inputs, config)
                .ft(&ft)
                .obs(obs)
                .run(&mut backend)?;
            makespans.push(result.makespan.as_secs_f64());
            jobs += result.jobs_submitted;
            quarantined += result.quarantined.len();
            for event in buffer.snapshot() {
                match event.kind() {
                    "job_timed_out" => timeouts += 1,
                    "job_replicated" => replicas += 1,
                    "job_resubmitted" => resubs += 1,
                    _ => {}
                }
            }
        }
        let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
        let max = makespans.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        outcomes.push(StrategyOutcome {
            strategy: strategy.name(),
            makespans_secs: makespans,
            mean_makespan_secs: mean,
            max_makespan_secs: max,
            jobs_submitted: jobs,
            timeouts,
            replicas,
            resubmissions: resubs,
            quarantined,
        });
    }
    Ok(FaultsReport {
        spec: spec.clone(),
        outcomes,
    })
}

/// Serialise the report (`BENCH_faults.json`).
pub fn render_faults_json(report: &FaultsReport) -> String {
    let outcomes = json::array(report.outcomes.iter().map(|o| {
        JsonObject::new()
            .str("strategy", o.strategy)
            .num("mean_makespan_secs", o.mean_makespan_secs)
            .num("max_makespan_secs", o.max_makespan_secs)
            .raw(
                "makespans_secs",
                &json::array(o.makespans_secs.iter().map(f64::to_string)),
            )
            .uint("jobs_submitted", o.jobs_submitted as u64)
            .uint("timeouts", o.timeouts)
            .uint("replicas", o.replicas)
            .uint("resubmissions", o.resubmissions)
            .uint("quarantined", o.quarantined as u64)
            .finish()
    }));
    crate::gate::FAULTS.render_with_verdict(|ok| {
        JsonObject::new()
            .str("schema", FAULTS_SCHEMA)
            .str("workflow", "bronze")
            .str("grid", "egee-2006 (middleware retries off)")
            .str("config", "sp+dp")
            .uint("n_data", report.spec.n_data as u64)
            .uint("seed", report.spec.seed)
            .uint("repeats", report.spec.repeats as u64)
            .num("failure_probability", report.spec.failure_probability)
            .bool("ok", ok)
            .num("replication_speedup", report.replication_speedup())
            .raw("strategies", &outcomes)
            .finish()
    })
}

/// Human rendering, one strategy per block.
pub fn render_faults(report: &FaultsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault injection: bronze on egee-2006 (p_fail {:.0}%, middleware retries off), \
         sp+dp, n_data {} x {} seeds",
        report.spec.failure_probability * 100.0,
        report.spec.n_data,
        report.spec.repeats,
    );
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "  {:<20} mean {:>9.1} s  max {:>9.1} s  ({} jobs, {} resubmissions, \
             {} timeouts, {} replicas, {} quarantined)",
            o.strategy,
            o.mean_makespan_secs,
            o.max_makespan_secs,
            o.jobs_submitted,
            o.resubmissions,
            o.timeouts,
            o.replicas,
            o.quarantined,
        );
    }
    let _ = writeln!(
        out,
        "  replication vs naive: {:.2}x {}",
        report.replication_speedup(),
        if report.ok() { "(ok)" } else { "(GATE FAILS)" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> FaultsSpec {
        FaultsSpec {
            n_data: 4,
            seed: 2006,
            repeats: 3,
            ..FaultsSpec::default()
        }
    }

    #[test]
    fn replication_beats_naive_on_the_unreliable_grid() {
        let report = run_faults(&quick_spec()).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        let naive = report.outcome("naive").unwrap();
        let repl = report.outcome("timeout+replication").unwrap();
        assert!(
            repl.mean_makespan_secs < naive.mean_makespan_secs,
            "replication {} vs naive {}",
            repl.mean_makespan_secs,
            naive.mean_makespan_secs
        );
        assert!(repl.timeouts > 0, "the adaptive timeout never fired");
        assert!(repl.replicas > 0, "no replica was launched");
        assert!(report.ok());
        assert!(report.replication_speedup() > 1.0);
    }

    #[test]
    fn failures_surface_to_the_enactor_as_resubmissions() {
        let report = run_faults(&quick_spec()).unwrap();
        // With middleware retries off and p_fail 4%, at least one of
        // naive's 3 × 25 jobs must have failed and been resubmitted.
        let naive = report.outcome("naive").unwrap();
        assert!(naive.resubmissions > 0, "no failure reached the enactor");
        assert_eq!(naive.quarantined, 0, "nothing should fail terminally");
    }

    #[test]
    fn faults_json_carries_the_schema_and_all_strategies() {
        let report = run_faults(&FaultsSpec {
            n_data: 2,
            seed: 7,
            repeats: 1,
            ..FaultsSpec::default()
        })
        .unwrap();
        let json = render_faults_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/faults/v1\""));
        assert!(json.contains("\"naive\""));
        assert!(json.contains("\"backoff\""));
        assert!(json.contains("\"timeout+replication\""));
        assert!(json.contains("\"replication_speedup\""));
        let human = render_faults(&report);
        assert!(human.contains("fault injection"));
        assert!(human.contains("naive"));
    }
}
