//! Campaign sweeps for the perf observatory: run the six Table-1
//! configurations over a range of campaign sizes, fit the paper's
//! y-intercept/slope model (§4) to each, check model-vs-observed drift
//! (eq. 1–4), and serialise everything in the stable `BENCH_*` schemas
//! CI regenerates and compares with the committed files.
//!
//! The default load is [`bronze_chain_workflow`]: the Bronze-Standard
//! critical path as a pure streaming pipeline on [`GridConfig::ideal`].
//! On that combination the closed forms are exact, so any drift is a
//! regression in the enactor, the model, or the instrumentation — the
//! sweep doubles as an end-to-end correctness probe. `--workflow bronze`
//! and `--grid egee` switch to the full Fig. 9 DAG on the stochastic
//! EGEE grid for realistic (but noisy) numbers.

use crate::bronze::{bronze_chain_inputs, bronze_chain_workflow, bronze_inputs, bronze_workflow};
use moteur::lint::CONFIG_KEYS;
use moteur::obs::json::{array, JsonObject};
use moteur::{
    check_drift, predict, Enactment, EnactorConfig, InputData, MoteurError, Observation,
    SimBackend, Workflow,
};
use moteur_analysis::{linear_regression, Line};
use moteur_gridsim::GridConfig;

/// Which workflow a sweep enacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkflow {
    /// The critical-path streaming chain — exact under eq. 1–4.
    Chain,
    /// The full Fig. 9 DAG — realistic, with branch slack the model
    /// deliberately ignores.
    Bronze,
}

impl SweepWorkflow {
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

    fn workflow(self) -> Workflow {
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

/// Which simulated grid a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepGrid {
    /// Zero overhead, no failures, unbounded resources — deterministic.
    Ideal,
    /// The paper's EGEE characterisation — stochastic.
    Egee,
}

impl SweepGrid {
    pub fn name(self) -> &'static str {
        match self {
            Self::Ideal => "ideal",
            Self::Egee => "egee",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        [Self::Ideal, Self::Egee]
            .into_iter()
            .find(|g| g.name() == s)
    }

    fn config(self) -> GridConfig {
        GridConfig::preset(self.name()).expect("every sweep grid names a preset")
    }
}

/// Everything that determines a sweep's numbers.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Campaign sizes (`n_data`) to sweep over; at least two for a fit.
    pub sizes: Vec<usize>,
    pub seed: u64,
    pub workflow: SweepWorkflow,
    pub grid: SweepGrid,
    /// Per-job overhead fed to the model (the paper's `R`). Zero on the
    /// ideal grid.
    pub overhead: f64,
    /// Relative-error tolerance for the drift check.
    pub tolerance: f64,
}

impl SweepSpec {
    /// The default observatory sweep: chain workflow, ideal grid,
    /// zero modelled overhead, 5 % drift tolerance.
    pub fn new(sizes: Vec<usize>) -> Self {
        Self {
            sizes,
            seed: 2006,
            workflow: SweepWorkflow::Chain,
            grid: SweepGrid::Ideal,
            overhead: 0.0,
            tolerance: 0.05,
        }
    }
}

/// One measured cell of the sweep: a configuration at a campaign size.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Canonical lowercase key (`lint::predict` spelling).
    pub config: &'static str,
    pub n_data: usize,
    pub makespan_secs: f64,
    pub jobs_submitted: usize,
    pub predicted_secs: f64,
    /// `|observed − predicted| / predicted`.
    pub rel_error: f64,
}

/// Per-configuration roll-up across the sweep.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    pub config: &'static str,
    /// `None` only for degenerate sweeps (fewer than two sizes).
    pub fit: Option<Line>,
    /// Observed makespan at the largest swept size.
    pub makespan_at_max: f64,
    /// Worst model-vs-observed relative error across the sweep.
    pub max_rel_error: f64,
    /// True when every point stayed within the drift tolerance.
    pub drift_ok: bool,
}

/// The full campaign result in summary form.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    pub workflow: &'static str,
    pub grid: &'static str,
    pub seed: u64,
    pub sizes: Vec<usize>,
    pub overhead: f64,
    pub tolerance: f64,
    /// One entry per Table-1 configuration, paper row order.
    pub configs: Vec<ConfigSummary>,
    /// Named makespan ratios at the largest size, e.g.
    /// `("nop_over_sp_dp", 4.1)`.
    pub speedups: Vec<(&'static str, f64)>,
}

impl BenchSummary {
    pub fn config(&self, key: &str) -> Option<&ConfigSummary> {
        self.configs.iter().find(|c| c.config == key)
    }
}

/// Intern an enactor label (`"SP+DP"`) as its canonical predict key.
fn config_key(label: &str) -> &'static str {
    CONFIG_KEYS
        .iter()
        .find(|k| k.eq_ignore_ascii_case(label))
        .expect("table1 label must have a predict key")
}

/// The speed-up ratios the summary records, as (name, numerator,
/// denominator) over `makespan_at_max`.
const SPEEDUP_RATIOS: [(&str, &str, &str); 3] = [
    ("nop_over_sp", "nop", "sp"),
    ("nop_over_sp_dp", "nop", "sp+dp"),
    ("nop_over_sp_dp_jg", "nop", "sp+dp+jg"),
];

/// Run the sweep: every Table-1 configuration at every size, one fresh
/// simulated grid per cell, model prediction and drift per point.
pub fn run_sweep(spec: &SweepSpec) -> Result<(Vec<BenchPoint>, BenchSummary), MoteurError> {
    if spec.sizes.is_empty() {
        return Err(MoteurError::new("sweep needs at least one campaign size"));
    }
    let workflow = spec.workflow.workflow();
    let mut points: Vec<BenchPoint> = Vec::new();
    for &n in &spec.sizes {
        let prediction = predict(&workflow, n, spec.overhead)?;
        for cfg in EnactorConfig::table1_configurations() {
            let key = config_key(cfg.label());
            let inputs = spec.workflow.inputs(n);
            let mut backend = SimBackend::new(spec.grid.config(), spec.seed);
            let result =
                Enactment::new(&workflow, &inputs, cfg.with_seed(spec.seed)).run(&mut backend)?;
            let makespan = result.makespan.as_secs_f64();
            let drift = check_drift(
                &prediction,
                &[Observation {
                    config: key.to_string(),
                    makespan_secs: makespan,
                }],
                spec.tolerance,
            );
            let entry = drift
                .entries
                .first()
                .expect("every table1 config has a prediction row");
            points.push(BenchPoint {
                config: key,
                n_data: n,
                makespan_secs: makespan,
                jobs_submitted: result.jobs_submitted,
                predicted_secs: entry.predicted_secs,
                rel_error: entry.rel_error,
            });
        }
    }

    let max_n = *spec.sizes.iter().max().expect("sizes not empty");
    let configs: Vec<ConfigSummary> = EnactorConfig::table1_configurations()
        .iter()
        .map(|cfg| {
            let key = config_key(cfg.label());
            let mine: Vec<&BenchPoint> = points.iter().filter(|p| p.config == key).collect();
            let sweep: Vec<(f64, f64)> = mine
                .iter()
                .map(|p| (p.n_data as f64, p.makespan_secs))
                .collect();
            let at_max = mine
                .iter()
                .find(|p| p.n_data == max_n)
                .expect("every config measured at max size");
            ConfigSummary {
                config: key,
                fit: linear_regression(&sweep),
                makespan_at_max: at_max.makespan_secs,
                max_rel_error: mine.iter().map(|p| p.rel_error).fold(0.0, f64::max),
                drift_ok: mine.iter().all(|p| p.rel_error <= spec.tolerance),
            }
        })
        .collect();

    let speedup_of = |key: &str| {
        configs
            .iter()
            .find(|c| c.config == key)
            .map(|c| c.makespan_at_max)
    };
    let speedups = SPEEDUP_RATIOS
        .iter()
        .filter_map(
            |&(name, num, den)| match (speedup_of(num), speedup_of(den)) {
                (Some(n), Some(d)) if d > 0.0 => Some((name, n / d)),
                _ => None,
            },
        )
        .collect();

    let summary = BenchSummary {
        workflow: spec.workflow.name(),
        grid: spec.grid.name(),
        seed: spec.seed,
        sizes: spec.sizes.clone(),
        overhead: spec.overhead,
        tolerance: spec.tolerance,
        configs,
        speedups,
    };
    Ok((points, summary))
}

/// Schema tag of [`render_points_json`].
pub const POINT_SCHEMA: &str = "moteur-bench/point/v1";
/// Schema tag of [`render_summary_json`].
pub const SUMMARY_SCHEMA: &str = "moteur-bench/summary/v1";

/// Serialise the raw sweep points (`BENCH_point.json`).
pub fn render_points_json(spec: &SweepSpec, points: &[BenchPoint]) -> String {
    let rows = points.iter().map(|p| {
        JsonObject::new()
            .str("config", p.config)
            .uint("n_data", p.n_data as u64)
            .num("makespan_secs", p.makespan_secs)
            .uint("jobs", p.jobs_submitted as u64)
            .num("predicted_secs", p.predicted_secs)
            .num("rel_error", p.rel_error)
            .finish()
    });
    JsonObject::new()
        .str("schema", POINT_SCHEMA)
        .str("workflow", spec.workflow.name())
        .str("grid", spec.grid.name())
        .uint("seed", spec.seed)
        .num("overhead", spec.overhead)
        .raw("points", &array(rows))
        .finish()
}

/// Serialise the roll-up (`BENCH_summary.json`).
pub fn render_summary_json(summary: &BenchSummary) -> String {
    let configs = summary.configs.iter().map(|c| {
        let mut o = JsonObject::new().str("config", c.config);
        match &c.fit {
            Some(fit) => {
                o = o
                    .num("intercept", fit.intercept)
                    .num("slope", fit.slope)
                    .num("r_squared", fit.r_squared);
                // The paper's break-even indicator: the campaign size
                // at which variable cost catches up with fixed cost.
                // Undefined for a (numerically) flat line.
                o = if fit.slope.abs() < 1e-12 {
                    o.raw("intercept_slope_ratio", "null")
                } else {
                    o.num("intercept_slope_ratio", fit.intercept / fit.slope)
                };
            }
            None => {
                o = o
                    .raw("intercept", "null")
                    .raw("slope", "null")
                    .raw("r_squared", "null")
                    .raw("intercept_slope_ratio", "null");
            }
        }
        o.num("makespan_at_max", c.makespan_at_max)
            .num("max_rel_error", c.max_rel_error)
            .bool("drift_ok", c.drift_ok)
            .finish()
    });
    let mut speedups = JsonObject::new();
    for (name, ratio) in &summary.speedups {
        speedups = speedups.num(name, *ratio);
    }
    JsonObject::new()
        .str("schema", SUMMARY_SCHEMA)
        .str("workflow", summary.workflow)
        .str("grid", summary.grid)
        .uint("seed", summary.seed)
        .raw(
            "sizes",
            &array(summary.sizes.iter().map(ToString::to_string)),
        )
        .num("overhead", summary.overhead)
        .num("tolerance", summary.tolerance)
        .raw("configs", &array(configs))
        .raw("speedups", &speedups.finish())
        .finish()
}

/// Human rendering of the summary, one line per configuration.
pub fn render_summary(summary: &BenchSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} grid, sizes {:?} (seed {}):",
        summary.workflow, summary.grid, summary.sizes, summary.seed
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>10} {:>8} {:>12} {:>10}  drift",
        "config", "intercept", "slope", "r2", "at_max", "max_err%"
    );
    for c in &summary.configs {
        let (i, s, r2) = c.fit.map_or((f64::NAN, f64::NAN, f64::NAN), |f| {
            (f.intercept, f.slope, f.r_squared)
        });
        let _ = writeln!(
            out,
            "  {:<10} {:>12.1} {:>10.2} {:>8.4} {:>12.1} {:>10.2}  {}",
            c.config,
            i,
            s,
            r2,
            c.makespan_at_max,
            c.max_rel_error * 100.0,
            if c.drift_ok { "ok" } else { "DRIFT" }
        );
    }
    for (name, ratio) in &summary.speedups {
        let _ = writeln!(out, "  speedup {name} = {ratio:.2}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> SweepSpec {
        SweepSpec::new(vec![1, 2, 4])
    }

    #[test]
    fn chain_sweep_on_the_ideal_grid_matches_the_model_exactly() {
        let (points, summary) = run_sweep(&quick_spec()).unwrap();
        assert_eq!(points.len(), 6 * 3);
        assert_eq!(summary.configs.len(), 6);
        for c in &summary.configs {
            assert!(c.drift_ok, "{} drifted: {}", c.config, c.max_rel_error);
            assert!(c.max_rel_error <= 0.05);
            let fit = c.fit.expect("three sizes fit a line");
            assert!(fit.r_squared >= 0.99, "{}: r2 {}", c.config, fit.r_squared);
        }
        // The chain totals 330 s of compute; stage max is 120 s.
        let nop = summary.config("nop").unwrap();
        let fit = nop.fit.unwrap();
        assert!((fit.slope - 330.0).abs() < 1e-6, "nop slope {}", fit.slope);
        assert!(fit.intercept.abs() < 1e-6);
        let sp = summary.config("sp").unwrap().fit.unwrap();
        assert!((sp.slope - 120.0).abs() < 1e-6, "sp slope {}", sp.slope);
        assert!((sp.intercept - 210.0).abs() < 1e-6);
        // DP-style configurations are flat at one chain latency.
        for key in ["dp", "sp+dp", "sp+dp+jg"] {
            let c = summary.config(key).unwrap();
            assert!(
                (c.makespan_at_max - 330.0).abs() < 1e-6,
                "{key}: {}",
                c.makespan_at_max
            );
            assert!(c.fit.unwrap().slope.abs() < 1e-9);
        }
    }

    #[test]
    fn speedups_cover_the_three_ratios() {
        let (_, summary) = run_sweep(&quick_spec()).unwrap();
        let names: Vec<&str> = summary.speedups.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["nop_over_sp", "nop_over_sp_dp", "nop_over_sp_dp_jg"]
        );
        for (name, ratio) in &summary.speedups {
            assert!(*ratio >= 1.0, "{name} = {ratio}");
        }
    }

    #[test]
    fn json_renderings_carry_the_schema_tags() {
        let spec = SweepSpec::new(vec![1, 2]);
        let (points, summary) = run_sweep(&spec).unwrap();
        let pj = render_points_json(&spec, &points);
        assert!(pj.contains("\"schema\":\"moteur-bench/point/v1\""));
        assert!(pj.contains("\"config\":\"sp+dp\""));
        let sj = render_summary_json(&summary);
        assert!(sj.contains("\"schema\":\"moteur-bench/summary/v1\""));
        assert!(sj.contains("\"speedups\":{"));
        assert!(sj.contains("\"drift_ok\":true"));
        // Flat configurations have no break-even ratio.
        assert!(sj.contains("\"intercept_slope_ratio\":null"));
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let mut spec = quick_spec();
        spec.sizes.clear();
        assert!(run_sweep(&spec).is_err());
    }
}
