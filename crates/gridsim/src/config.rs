//! Grid model configuration and the presets used by the experiments.

use crate::rng::Distribution;

/// How a computing element's batch scheduler orders its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Strict arrival order, user and background jobs interleaved.
    #[default]
    Fifo,
    /// User (grid-VO) jobs are dispatched before queued background
    /// jobs — a cluster granting the virtual organisation elevated
    /// batch priority.
    UserPriority,
}

/// Periodic maintenance: every `period` seconds the CE stops accepting
/// work for `duration` seconds (running jobs drain gracefully).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Downtime {
    pub period: f64,
    pub duration: f64,
}

/// Configuration of one computing element (a batch-scheduled cluster).
#[derive(Debug, Clone)]
pub struct CeConfig {
    pub name: String,
    /// Number of worker slots.
    pub slots: usize,
    /// Relative worker speed (1.0 = reference machine; compute time is
    /// divided by this).
    pub speed: f64,
    /// Mean inter-arrival time (s) of background (other-user) jobs;
    /// `None` disables background load on this CE.
    pub background_interarrival: Option<Distribution>,
    /// Duration distribution of background jobs.
    pub background_duration: Distribution,
    /// Background jobs already queued when the simulation starts.
    pub initial_backlog: usize,
    /// Batch queue ordering.
    pub discipline: QueueDiscipline,
    /// Optional periodic maintenance windows.
    pub downtime: Option<Downtime>,
    /// Diurnal modulation of the background arrival rate: the rate is
    /// multiplied by `1 + amplitude·sin(2πt/86400)`. 0 disables it.
    pub diurnal_amplitude: f64,
}

impl CeConfig {
    pub fn new(name: impl Into<String>, slots: usize, speed: f64) -> Self {
        CeConfig {
            name: name.into(),
            slots,
            speed,
            background_interarrival: None,
            background_duration: Distribution::Constant(0.0),
            initial_backlog: 0,
            discipline: QueueDiscipline::Fifo,
            downtime: None,
            diurnal_amplitude: 0.0,
        }
    }
}

/// Network and storage model shared by all transfers.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Per-transfer fixed cost (s): SRM negotiation, catalog lookup…
    pub transfer_latency: f64,
    /// Storage-element bandwidth seen by one transfer (bytes/s).
    pub bandwidth: f64,
    /// Transfer slowdown per concurrently running user job
    /// (`effective_time = base * (1 + congestion * active_jobs)`).
    pub congestion: f64,
}

/// Full grid model configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    pub ces: Vec<CeConfig>,
    /// User-interface submission overhead (UI → broker).
    pub submission_overhead: Distribution,
    /// Broker matchmaking delay (broker → CE queue).
    pub match_delay: Distribution,
    /// Delay between job termination and the submitter seeing it.
    pub notify_delay: Distribution,
    /// Probability that an attempt fails at the end of execution.
    pub failure_probability: f64,
    /// Delay before a failure is detected and the job resubmitted.
    pub failure_detection: Distribution,
    /// Resubmission budget after the first attempt.
    pub max_retries: u32,
    pub network: NetworkConfig,
    /// Job duration the broker assumes when ranking CE queues (s).
    pub typical_job_duration: f64,
    /// Period (s) at which the information system refreshes the
    /// broker's view of CE queues; staleness causes herding.
    pub info_refresh_period: f64,
    /// Per-job multiplicative compute-time jitter (sampled once per
    /// attempt), modelling worker heterogeneity inside a CE.
    pub compute_jitter: Distribution,
}

impl GridConfig {
    /// An idealised infinite grid: one enormous CE, zero overheads, no
    /// failures, reference-speed workers. On this backend the enactor's
    /// makespan must match the theoretical model of paper §3.5 exactly.
    pub fn ideal() -> Self {
        GridConfig {
            ces: vec![CeConfig::new("ideal", 1_000_000, 1.0)],
            submission_overhead: Distribution::Constant(0.0),
            match_delay: Distribution::Constant(0.0),
            notify_delay: Distribution::Constant(0.0),
            failure_probability: 0.0,
            failure_detection: Distribution::Constant(0.0),
            max_retries: 0,
            network: NetworkConfig {
                transfer_latency: 0.0,
                bandwidth: f64::INFINITY,
                congestion: 0.0,
            },
            typical_job_duration: 1.0,
            info_refresh_period: 1.0,
            compute_jitter: Distribution::Constant(1.0),
        }
    }

    /// A model of the 2006 EGEE production infrastructure as the paper
    /// describes it: thousands of slots split across many computing
    /// centres, submission/scheduling/queuing overhead of the order of
    /// ten minutes with a ±five-minute spread and a heavy tail
    /// (resubmitted or blocked jobs), multi-user background load, and a
    /// non-negligible failure rate.
    pub fn egee_2006() -> Self {
        let mut ces = Vec::new();
        // A few large, fast centres and many small, loaded ones — the
        // paper's "pool of thousands computing resources assembled in
        // computing centers, each running its internal batch scheduler".
        for i in 0..4 {
            let mut ce = CeConfig::new(format!("large-{i}"), 120, 1.0 + 0.1 * i as f64);
            ce.background_interarrival = Some(Distribution::Exponential { mean: 25.0 });
            ce.background_duration = Distribution::LogNormal {
                median: 1800.0,
                sigma: 1.0,
            };
            ce.initial_backlog = 40;
            ces.push(ce);
        }
        for i in 0..12 {
            let mut ce = CeConfig::new(format!("small-{i}"), 24, 0.7 + 0.05 * (i % 6) as f64);
            ce.background_interarrival = Some(Distribution::Exponential { mean: 90.0 });
            ce.background_duration = Distribution::LogNormal {
                median: 2400.0,
                sigma: 1.1,
            };
            ce.initial_backlog = 15;
            ces.push(ce);
        }
        GridConfig {
            ces,
            // "around 10 minutes and quite variable (± 5 minutes)",
            // split across the submission chain. Medians chosen so the
            // chain's total overhead has median ≈ 8–10 min with a heavy
            // upper tail.
            submission_overhead: Distribution::LogNormal {
                median: 45.0,
                sigma: 0.5,
            },
            match_delay: Distribution::Mixture {
                first: Box::new(Distribution::LogNormal {
                    median: 90.0,
                    sigma: 0.6,
                }),
                // Occasionally the RB is saturated and matching stalls.
                second: Box::new(Distribution::LogNormal {
                    median: 900.0,
                    sigma: 0.5,
                }),
                p_second: 0.05,
            },
            notify_delay: Distribution::LogNormal {
                median: 30.0,
                sigma: 0.5,
            },
            failure_probability: 0.04,
            failure_detection: Distribution::LogNormal {
                median: 600.0,
                sigma: 0.4,
            },
            max_retries: 3,
            network: NetworkConfig {
                // SRM/catalog negotiation dominates small transfers.
                transfer_latency: 8.0,
                bandwidth: 2.0e6, // 2 MB/s per stream, 2006 WAN
                congestion: 0.002,
            },
            typical_job_duration: 600.0,
            info_refresh_period: 240.0,
            compute_jitter: Distribution::Uniform { lo: 0.85, hi: 1.3 },
        }
    }

    /// The labels [`GridConfig::preset`] resolves, as "unknown grid"
    /// messages list them.
    pub const PRESETS: &'static str = "egee|ideal";

    /// Resolve a preset by its CLI label (`egee`, `ideal`); `None` for
    /// an unknown label.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "egee" => Some(Self::egee_2006()),
            "ideal" => Some(Self::ideal()),
            _ => None,
        }
    }

    /// Total worker slots across the grid.
    pub fn total_slots(&self) -> usize {
        self.ces.iter().map(|c| c.slots).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_grid_has_no_overhead_sources() {
        let c = GridConfig::ideal();
        assert_eq!(c.submission_overhead.mean(), 0.0);
        assert_eq!(c.failure_probability, 0.0);
        assert_eq!(c.ces.len(), 1);
        assert!(c.total_slots() >= 1_000_000);
    }

    #[test]
    fn egee_preset_matches_paper_scale_description() {
        let c = GridConfig::egee_2006();
        // "thousands of computing resources": several hundred slots at
        // least, spread over many centres.
        assert!(c.ces.len() >= 10);
        assert!(c.total_slots() >= 500);
        // Overhead chain mean of the order of minutes.
        let chain_mean =
            c.submission_overhead.mean() + c.match_delay.mean() + c.notify_delay.mean();
        assert!(
            chain_mean > 120.0 && chain_mean < 1200.0,
            "chain mean {chain_mean}"
        );
        assert!(c.failure_probability > 0.0);
    }

    #[test]
    fn presets_resolve_exactly_the_listed_labels() {
        for name in GridConfig::PRESETS.split('|') {
            assert!(GridConfig::preset(name).is_some(), "{name}");
        }
        assert_eq!(GridConfig::preset("ideal").unwrap().ces.len(), 1);
        assert!(GridConfig::preset("egee").unwrap().ces.len() >= 10);
        assert!(GridConfig::preset("virtual").is_none());
    }

    #[test]
    fn all_ces_have_positive_speed_and_slots() {
        for ce in GridConfig::egee_2006().ces {
            assert!(ce.speed > 0.0);
            assert!(ce.slots > 0);
        }
    }
}
