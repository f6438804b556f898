//! Enactor configuration: which of the paper's optimizations are
//! enabled. Workflow (graph) parallelism is inherent and always on.

/// Service-level objective: the makespan the run is expected to track,
/// normally the `crate::lint::predict` eq. 1–4 prediction for the
/// active configuration. With an SLO set, the enactor projects the
/// completion time after every finished invocation
/// (`elapsed × expected_jobs / completed`) and emits
/// [`crate::obs::TraceEvent::SloBreached`] whenever the projection
/// first exceeds `predicted_makespan_secs × factor` — the burn-rate
/// signal an operator alerts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Predicted makespan in virtual seconds (eq. 1–4).
    pub predicted_makespan_secs: f64,
    /// Breach threshold as a multiple of the prediction (e.g. `1.5`).
    pub factor: f64,
    /// Expected number of completed invocations for the whole run,
    /// used to extrapolate progress into a projected completion time.
    pub expected_jobs: usize,
}

/// Execution configuration — the six experimental configurations of
/// paper Table 1 are combinations of these three flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnactorConfig {
    /// DP: a service may process several data sets concurrently.
    pub data_parallelism: bool,
    /// SP: pipelining — a service may start on data set `j` before its
    /// predecessors finished the rest of the stream.
    pub service_parallelism: bool,
    /// JG: merge sequential descriptor-bound processors into single
    /// grid jobs before enactment.
    pub job_grouping: bool,
    /// Seed for stochastic cost models.
    pub seed: u64,
    /// Data batching — the paper's §5.4 future work ("grouping jobs of
    /// a single service, thus finding a trade-off between data
    /// parallelism and the system's overhead"): up to this many ready
    /// invocations of one descriptor-bound service are submitted as a
    /// single grid job. 1 disables batching.
    pub data_batching: usize,
    /// Run the static lint ([`crate::lint_workflow`]) before enacting
    /// and refuse workflows with an error-severity finding. `moteur run
    /// --no-verify` turns this off, falling back to the lint's
    /// structural subset, [`crate::Workflow::validate`].
    pub preflight: bool,
    /// Optional SLO to track during enactment; `None` disables the
    /// burn-rate check.
    pub slo: Option<SloConfig>,
    /// Capacity of every inter-processor edge, in queued-or-in-flight
    /// data items. A producer whose consumer is full suspends and
    /// resumes when the consumer drains — back-pressure end to end, so
    /// peak memory is O(capacity). The same value bounds what a run
    /// retains: the first `port_capacity` sink tokens and a window of
    /// `max(port_capacity, 512)` timeout samples. The enactor retains no
    /// invocation records at any capacity; a [`crate::RecordSink`]
    /// attached to the run keeps all of them. The default, `usize::MAX`,
    /// never fills: every source emits its whole stream at start and
    /// every sink token is retained.
    pub port_capacity: usize,
}

impl Default for EnactorConfig {
    fn default() -> Self {
        EnactorConfig {
            data_parallelism: true,
            service_parallelism: true,
            job_grouping: false,
            seed: 0,
            data_batching: 1,
            preflight: true,
            slo: None,
            port_capacity: usize::MAX,
        }
    }
}

impl EnactorConfig {
    /// NOP: workflow parallelism only (the paper's baseline).
    pub fn nop() -> Self {
        EnactorConfig {
            data_parallelism: false,
            service_parallelism: false,
            job_grouping: false,
            ..Default::default()
        }
    }

    /// JG only.
    pub fn jg() -> Self {
        EnactorConfig {
            job_grouping: true,
            ..Self::nop()
        }
    }

    /// SP only.
    pub fn sp() -> Self {
        EnactorConfig {
            service_parallelism: true,
            ..Self::nop()
        }
    }

    /// DP only.
    pub fn dp() -> Self {
        EnactorConfig {
            data_parallelism: true,
            ..Self::nop()
        }
    }

    /// SP + DP.
    pub fn sp_dp() -> Self {
        EnactorConfig {
            data_parallelism: true,
            service_parallelism: true,
            ..Self::nop()
        }
    }

    /// Resolve a preset by its CLI / protocol label (`nop`, `jg`, `sp`,
    /// `dp`, `sp+dp`, `sp+dp+jg`); `None` for an unknown label.
    pub fn preset(label: &str) -> Option<Self> {
        match label {
            "nop" => Some(Self::nop()),
            "jg" => Some(Self::jg()),
            "sp" => Some(Self::sp()),
            "dp" => Some(Self::dp()),
            "sp+dp" => Some(Self::sp_dp()),
            "sp+dp+jg" => Some(Self::sp_dp_jg()),
            _ => None,
        }
    }

    /// SP + DP + JG — everything on.
    pub fn sp_dp_jg() -> Self {
        EnactorConfig {
            job_grouping: true,
            ..Self::sp_dp()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable data batching (§5.4 future work) with the given batch
    /// size.
    pub fn with_batching(mut self, batch: usize) -> Self {
        self.data_batching = batch.max(1);
        self
    }

    /// Skip the pre-flight lint (`moteur run --no-verify`).
    pub fn without_preflight(mut self) -> Self {
        self.preflight = false;
        self
    }

    /// Track the given SLO during enactment (`moteur run --slo`).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Bound every inter-processor edge to `cap` data items queued or
    /// in flight (clamped to ≥ 1). See [`EnactorConfig::port_capacity`].
    pub fn with_port_capacity(mut self, cap: usize) -> Self {
        self.port_capacity = cap.max(1);
        self
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match (
            self.service_parallelism,
            self.data_parallelism,
            self.job_grouping,
        ) {
            (false, false, false) => "NOP",
            (false, false, true) => "JG",
            (true, false, false) => "SP",
            (false, true, false) => "DP",
            (true, true, false) => "SP+DP",
            (true, true, true) => "SP+DP+JG",
            (true, false, true) => "SP+JG",
            (false, true, true) => "DP+JG",
        }
    }

    /// The six configurations of Table 1, in the paper's row order.
    pub fn table1_configurations() -> [EnactorConfig; 6] {
        [
            Self::nop(),
            Self::jg(),
            Self::sp(),
            Self::dp(),
            Self::sp_dp(),
            Self::sp_dp_jg(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_rows() {
        let labels: Vec<&str> = EnactorConfig::table1_configurations()
            .iter()
            .map(EnactorConfig::label)
            .collect();
        assert_eq!(labels, ["NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"]);
    }

    #[test]
    fn presets_set_expected_flags() {
        assert!(!EnactorConfig::nop().data_parallelism);
        assert!(!EnactorConfig::nop().service_parallelism);
        assert!(EnactorConfig::dp().data_parallelism);
        assert!(!EnactorConfig::dp().service_parallelism);
        assert!(EnactorConfig::sp_dp_jg().job_grouping);
        assert!(EnactorConfig::default().data_parallelism);
    }

    #[test]
    fn with_seed_sets_seed() {
        assert_eq!(EnactorConfig::nop().with_seed(7).seed, 7);
    }

    #[test]
    fn port_capacity_defaults_off_and_clamps_to_one() {
        assert_eq!(EnactorConfig::default().port_capacity, usize::MAX);
        assert_eq!(EnactorConfig::sp_dp().port_capacity, usize::MAX);
        assert_eq!(
            EnactorConfig::sp_dp().with_port_capacity(8).port_capacity,
            8
        );
        assert_eq!(
            EnactorConfig::sp_dp().with_port_capacity(0).port_capacity,
            1
        );
    }
}
