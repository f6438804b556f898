//! The one campaign runner: a [`CampaignSpec`] names a workflow, a grid
//! preset, the data-set sizes, a seed and a number of repeats, and
//! [`run_campaign`] enacts each `(configuration, size, repeat)` cell
//! exactly once. Everything the evaluation shows — Table 1, Table 2,
//! Fig. 10, the §5 speed-ups ([`crate::paper`]) and the observatory's
//! `BENCH_point.json` / `BENCH_summary.json` ([`crate::sweep`]) — is a
//! pure function of the [`Cell`]s it returns.

use crate::bronze::{bronze_chain_inputs, bronze_chain_workflow, bronze_inputs, bronze_workflow};
use moteur::{
    Enactment, EnactorConfig, InputData, MoteurError, Obs, SimBackend, Workflow, WorkflowResult,
};
use moteur_analysis::{mean, Series};
use moteur_gridsim::GridConfig;

/// Which workflow a campaign enacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignWorkflow {
    /// The critical-path streaming chain — exact under eq. 1–4.
    Chain,
    /// The full Fig. 9 DAG — realistic, with branch slack the model
    /// deliberately ignores.
    Bronze,
}

impl CampaignWorkflow {
    pub fn name(self) -> &'static str {
        match self {
            Self::Chain => "bronze-chain",
            Self::Bronze => "bronze",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "chain" | "bronze-chain" => Some(Self::Chain),
            "bronze" => Some(Self::Bronze),
            _ => None,
        }
    }

    pub fn workflow(self) -> Workflow {
        match self {
            Self::Chain => bronze_chain_workflow(),
            Self::Bronze => bronze_workflow(),
        }
    }

    fn inputs(self, n_data: usize) -> InputData {
        match self {
            Self::Chain => bronze_chain_inputs(n_data),
            Self::Bronze => bronze_inputs(n_data),
        }
    }
}

/// Everything that determines a campaign's cells.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub workflow: CampaignWorkflow,
    /// A [`GridConfig::preset`] name (`ideal`, `egee`).
    pub grid: String,
    /// Data-set sizes (`n_data`); at least two for a line fit.
    pub sizes: Vec<usize>,
    pub seed: u64,
    /// Seeds per `(configuration, size)`: repeat `r` enacts with
    /// enactor seed `seed + r` on a grid seeded `seed + 1000·r`.
    pub repeats: usize,
}

impl CampaignSpec {
    /// The observatory's campaign: the chain on the ideal grid, where
    /// the closed forms are exact, so any drift is a regression in the
    /// enactor, the model or the instrumentation.
    pub fn ideal_chain(sizes: Vec<usize>) -> Self {
        Self {
            workflow: CampaignWorkflow::Chain,
            grid: "ideal".to_string(),
            sizes,
            seed: 2006,
            repeats: 1,
        }
    }

    /// The paper's campaign: the Fig. 9 DAG on the EGEE grid.
    pub fn paper(sizes: &[usize], seed: u64, repeats: usize) -> Self {
        Self {
            workflow: CampaignWorkflow::Bronze,
            grid: "egee".to_string(),
            sizes: sizes.to_vec(),
            seed,
            repeats,
        }
    }
}

/// One enactment: a configuration at a size under one repeat's seeds.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub config: EnactorConfig,
    pub n_data: usize,
    pub repeat: usize,
    pub makespan_secs: f64,
    pub jobs_submitted: usize,
}

impl Cell {
    fn new(config: EnactorConfig, n_data: usize, repeat: usize, result: &WorkflowResult) -> Self {
        Self {
            config,
            n_data,
            repeat,
            makespan_secs: result.makespan.as_secs_f64(),
            jobs_submitted: result.jobs_submitted,
        }
    }
}

/// The only place a campaign cell meets the enactor: a fresh simulated
/// grid per call, so a cell's value depends on nothing but its
/// arguments.
fn enact(
    workflow: &Workflow,
    inputs: &InputData,
    grid: GridConfig,
    config: EnactorConfig,
    grid_seed: u64,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    let mut backend = SimBackend::with_obs(grid, grid_seed, &obs);
    Enactment::new(workflow, inputs, config)
        .obs(obs)
        .run(&mut backend)
}

/// Enact every Table-1 configuration at every size `repeats` times.
/// Cells come size-major, then in the paper's Table 1 row order, then
/// by repeat.
pub fn run_campaign(spec: &CampaignSpec) -> Result<Vec<Cell>, MoteurError> {
    if spec.sizes.is_empty() {
        return Err(MoteurError::new("campaign needs at least one size"));
    }
    let grid = GridConfig::preset(&spec.grid).ok_or_else(|| {
        let presets = GridConfig::PRESETS;
        MoteurError::new(format!("unknown grid `{}` ({presets})", spec.grid))
    })?;
    let workflow = spec.workflow.workflow();
    let mut cells = Vec::new();
    for &n_data in &spec.sizes {
        let inputs = spec.workflow.inputs(n_data);
        for config in EnactorConfig::table1_configurations() {
            for repeat in 0..spec.repeats.max(1) {
                let r = repeat as u64;
                let config = config.with_seed(spec.seed + r);
                let grid_seed = spec.seed + 1000 * r;
                let result = enact(
                    &workflow,
                    &inputs,
                    grid.clone(),
                    config,
                    grid_seed,
                    Obs::off(),
                )?;
                cells.push(Cell::new(config, n_data, repeat, &result));
            }
        }
    }
    Ok(cells)
}

/// The makespans of one `(configuration, size)` across its repeats.
pub fn samples(cells: &[Cell], label: &str, n_data: usize) -> Vec<f64> {
    let mine = cells
        .iter()
        .filter(|c| c.config.label() == label && c.n_data == n_data);
    mine.map(|c| c.makespan_secs).collect()
}

/// One series per configuration, in Table 1 row order: the mean
/// makespan over the repeats at each of `sizes`.
pub fn mean_series(cells: &[Cell], sizes: &[usize]) -> Vec<Series> {
    EnactorConfig::table1_configurations()
        .iter()
        .map(|config| {
            let label = config.label();
            let at = |&n: &usize| (n as f64, mean(&samples(cells, label, n)));
            Series::new(label, sizes.iter().map(at).collect())
        })
        .collect()
}

/// Enact the Bronze-Standard workflow once for `(config, n_pairs)` on a
/// fresh simulated EGEE grid with the given seed.
pub fn run_point(config: EnactorConfig, n_pairs: usize, seed: u64) -> Cell {
    run_point_observed(config, n_pairs, seed, Obs::off()).0
}

/// Like [`run_point`], but with event sinks attached to both the enactor
/// and the grid simulator, and the full [`WorkflowResult`] returned so
/// callers can export Chrome traces, metrics snapshots or critical-path
/// reports from a campaign cell.
pub fn run_point_observed(
    config: EnactorConfig,
    n_pairs: usize,
    seed: u64,
    obs: Obs,
) -> (Cell, WorkflowResult) {
    let (workflow, inputs) = (bronze_workflow(), bronze_inputs(n_pairs));
    let result = enact(
        &workflow,
        &inputs,
        GridConfig::egee_2006(),
        config,
        seed,
        obs,
    )
    .expect("bronze campaign must complete");
    (Cell::new(config, n_pairs, 0, &result), result)
}

/// The paper's data-set sizes (12, 66, 126 image pairs).
pub const PAPER_SIZES: [usize; 3] = [12, 66, 126];

/// Reduced sizes for quick smoke runs and CI.
pub const QUICK_SIZES: [usize; 3] = [4, 8, 16];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_runs_and_counts_jobs() {
        let p = run_point(EnactorConfig::sp_dp(), 3, 7);
        // 6 jobs per pair + 1 synchronization job.
        assert_eq!(p.jobs_submitted, 19);
        assert!(p.makespan_secs > 0.0);
    }

    #[test]
    fn grouping_reduces_submissions_to_4_per_pair() {
        let p = run_point(EnactorConfig::sp_dp_jg(), 3, 7);
        assert_eq!(p.jobs_submitted, 13, "4 jobs per pair + 1 sync");
    }

    #[test]
    fn paper_job_counts_at_12_pairs() {
        // §4.4: 12 pairs → 72 registration submissions.
        let p = run_point(EnactorConfig::sp_dp(), 12, 3);
        assert_eq!(p.jobs_submitted, 12 * 6 + 1);
    }

    #[test]
    fn campaign_produces_six_ordered_series() {
        let cells = run_campaign(&CampaignSpec::paper(&[2, 4], 1, 1)).unwrap();
        assert_eq!(cells.len(), 6 * 2);
        let series = mean_series(&cells, &[2, 4]);
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"]);
        for s in &series {
            assert_eq!(s.points.len(), 2);
        }
    }

    /// The property every rendering rests on: a cell is a function of
    /// (workflow, grid, configuration, size, seed, repeat) and of
    /// nothing else the spec asks for.
    #[test]
    fn a_cell_does_not_depend_on_the_other_cells_of_its_spec() {
        let alone = run_campaign(&CampaignSpec::paper(&[2], 5, 1)).unwrap();
        let among = run_campaign(&CampaignSpec::paper(&[2, 3], 5, 2)).unwrap();
        assert_eq!((alone.len(), among.len()), (6, 6 * 2 * 2));
        for a in &alone {
            let shared: Vec<&Cell> = among
                .iter()
                .filter(|c| c.config.label() == a.config.label() && c.n_data == 2 && c.repeat == 0)
                .collect();
            let [b] = shared[..] else {
                panic!("{}: {shared:?}", a.config.label());
            };
            assert_eq!(a.makespan_secs, b.makespan_secs, "{}", a.config.label());
            assert_eq!(a.jobs_submitted, b.jobs_submitted, "{}", a.config.label());
        }
        // The one-off runner is the same cell again.
        let point = run_point(EnactorConfig::dp().with_seed(5), 2, 5);
        assert_eq!(samples(&alone, "DP", 2), [point.makespan_secs]);
    }

    #[test]
    fn an_empty_or_misnamed_campaign_is_an_error_not_a_panic() {
        assert!(run_campaign(&CampaignSpec::ideal_chain(Vec::new())).is_err());
        let mut spec = CampaignSpec::ideal_chain(vec![1]);
        spec.grid = "virtual".to_string();
        let err = run_campaign(&spec).unwrap_err();
        assert!(err.message().contains("unknown grid `virtual`"), "{err}");
    }

    #[test]
    fn observed_point_matches_blind_point_and_counts_jobs() {
        let (sink, registry) = moteur::MetricsSink::new();
        let obs = Obs::new(vec![Box::new(sink)]);
        let (p, result) = run_point_observed(EnactorConfig::sp_dp(), 3, 7, obs);
        let blind = run_point(EnactorConfig::sp_dp(), 3, 7);
        assert_eq!(
            p.jobs_submitted, blind.jobs_submitted,
            "observation must not perturb the run"
        );
        assert!((p.makespan_secs - blind.makespan_secs).abs() < 1e-9);
        let reg = registry.lock().unwrap();
        assert_eq!(reg.counter("job_submitted") as usize, result.jobs_submitted);
    }

    #[test]
    fn optimized_configurations_beat_nop() {
        let n = 6;
        let nop = run_point(EnactorConfig::nop(), n, 42).makespan_secs;
        let spdp = run_point(EnactorConfig::sp_dp(), n, 42).makespan_secs;
        let all = run_point(EnactorConfig::sp_dp_jg(), n, 42).makespan_secs;
        assert!(spdp < nop, "SP+DP {spdp} vs NOP {nop}");
        assert!(all < spdp, "SP+DP+JG {all} vs SP+DP {spdp}");
    }
}
