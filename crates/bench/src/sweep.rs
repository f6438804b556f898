//! The observatory's reading of a campaign's cells: the paper's
//! y-intercept/slope model (§4) fitted to each configuration,
//! model-vs-observed drift per cell (eq. 1–4), and both serialised in
//! the stable `BENCH_*` schemas CI regenerates and compares with the
//! committed files.
//!
//! The default load is [`CampaignSpec::ideal_chain`]: the
//! Bronze-Standard critical path as a pure streaming pipeline on
//! [`moteur_gridsim::GridConfig::ideal`]. On that combination the
//! closed forms are exact, so any drift is a regression in the enactor,
//! the model, or the instrumentation — the sweep doubles as an
//! end-to-end correctness probe. `--workflow bronze` and `--grid egee`
//! switch to the full Fig. 9 DAG on the stochastic EGEE grid for
//! realistic (but noisy) numbers.

use crate::campaign::{mean_series, CampaignSpec, Cell};
use moteur::lint::CONFIG_KEYS;
use moteur::obs::json::{array, JsonObject};
use moteur::{check_drift, predict, Drift, MoteurError};
use moteur_analysis::{compare, Line};

/// What the cells are held against: the per-job overhead fed to the
/// model (the paper's `R`; zero on the ideal grid) and the
/// relative-error tolerance of the drift check.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub overhead: f64,
    pub tolerance: f64,
}

impl Default for Model {
    /// Zero modelled overhead, 5 % drift tolerance.
    fn default() -> Self {
        Self {
            overhead: 0.0,
            tolerance: 0.05,
        }
    }
}

/// Per-configuration roll-up across the sweep.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    /// Canonical lowercase key (`lint::predict` spelling).
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

/// A campaign read against the model: what both `BENCH_point.json` and
/// `BENCH_summary.json` render.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    pub spec: CampaignSpec,
    pub model: Model,
    pub cells: Vec<Cell>,
    /// One entry per cell, in cell order.
    pub drift: Vec<Drift>,
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

/// The speed-ups the summary records, as (name, reference, analyzed)
/// over the Table-1 labels.
const SPEEDUP_RATIOS: [(&str, &str, &str); 3] = [
    ("nop_over_sp", "NOP", "SP"),
    ("nop_over_sp_dp", "NOP", "SP+DP"),
    ("nop_over_sp_dp_jg", "NOP", "SP+DP+JG"),
];

/// Every cell against the model's prediction for its size.
fn drift(spec: &CampaignSpec, model: Model, cells: &[Cell]) -> Result<Vec<Drift>, MoteurError> {
    let workflow = spec.workflow.workflow();
    let mut drift = Vec::with_capacity(cells.len());
    for group in cells.chunk_by(|a, b| a.n_data == b.n_data) {
        let prediction = predict(&workflow, group[0].n_data, model.overhead)?;
        for c in group {
            drift.push(
                check_drift(&prediction, c.config.label(), c.makespan_secs)
                    .ok_or_else(|| MoteurError::new("a campaign cell has no prediction row"))?,
            );
        }
    }
    Ok(drift)
}

/// Read the cells of `spec` against the model: drift per cell, and per
/// configuration the fitted line, the makespan at the largest size and
/// the speed-ups there.
pub fn summarize(
    spec: &CampaignSpec,
    model: Model,
    cells: Vec<Cell>,
) -> Result<BenchSummary, MoteurError> {
    let drift = drift(spec, model, &cells)?;
    let max_n = spec.sizes.iter().max().map_or(0.0, |&n| n as f64);
    let series = mean_series(&cells, &spec.sizes);
    let configs = series
        .iter()
        .map(|s| {
            let mine = cells.iter().zip(&drift);
            let mine = mine.filter(|(c, _)| c.config.label() == s.label);
            let rel_errors: Vec<f64> = mine.map(|(_, d)| d.rel_error).collect();
            ConfigSummary {
                config: config_key(&s.label),
                fit: s.fit(),
                makespan_at_max: s
                    .time_at(max_n)
                    .expect("the largest size is one of the series' sizes"),
                max_rel_error: rel_errors.iter().copied().fold(0.0, f64::max),
                drift_ok: rel_errors.iter().all(|e| *e <= model.tolerance),
            }
        })
        .collect();
    let by_label = |label: &str| series.iter().find(|s| s.label == label);
    let speedups = SPEEDUP_RATIOS
        .iter()
        .filter_map(|&(name, reference, analyzed)| {
            let c = compare(by_label(reference)?, by_label(analyzed)?);
            let at_max = c.speedups.iter().find(|(n, _)| *n == max_n)?;
            Some((name, at_max.1))
        })
        .collect();
    Ok(BenchSummary {
        spec: spec.clone(),
        model,
        cells,
        drift,
        configs,
        speedups,
    })
}

/// Schema tag of [`render_points_json`].
pub const POINT_SCHEMA: &str = "moteur-bench/point/v1";
/// Schema tag of [`render_summary_json`].
pub const SUMMARY_SCHEMA: &str = "moteur-bench/summary/v1";

/// Serialise the raw cells (`BENCH_point.json`).
pub fn render_points_json(summary: &BenchSummary) -> String {
    let rows = summary.cells.iter().zip(&summary.drift).map(|(c, d)| {
        JsonObject::new()
            .str("config", config_key(c.config.label()))
            .uint("n_data", c.n_data as u64)
            .num("makespan_secs", c.makespan_secs)
            .uint("jobs", c.jobs_submitted as u64)
            .num("predicted_secs", d.predicted_secs)
            .num("rel_error", d.rel_error)
            .finish()
    });
    JsonObject::new()
        .str("schema", POINT_SCHEMA)
        .str("workflow", summary.spec.workflow.name())
        .str("grid", &summary.spec.grid)
        .uint("seed", summary.spec.seed)
        .num("overhead", summary.model.overhead)
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
    let spec = &summary.spec;
    JsonObject::new()
        .str("schema", SUMMARY_SCHEMA)
        .str("workflow", spec.workflow.name())
        .str("grid", &spec.grid)
        .uint("seed", spec.seed)
        .raw("sizes", &array(spec.sizes.iter().map(ToString::to_string)))
        .num("overhead", summary.model.overhead)
        .num("tolerance", summary.model.tolerance)
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
        summary.spec.workflow.name(),
        summary.spec.grid,
        summary.spec.sizes,
        summary.spec.seed
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
    use crate::campaign::run_campaign;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec::ideal_chain(vec![1, 2, 4])
    }

    fn sweep(spec: &CampaignSpec) -> BenchSummary {
        let cells = run_campaign(spec).unwrap();
        summarize(spec, Model::default(), cells).unwrap()
    }

    #[test]
    fn chain_sweep_on_the_ideal_grid_matches_the_model_exactly() {
        let summary = sweep(&quick_spec());
        assert_eq!(summary.cells.len(), 6 * 3);
        assert_eq!(summary.drift.len(), 6 * 3);
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
        let summary = sweep(&quick_spec());
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
        let summary = sweep(&CampaignSpec::ideal_chain(vec![1, 2]));
        let pj = render_points_json(&summary);
        assert!(pj.contains("\"schema\":\"moteur-bench/point/v1\""));
        assert!(pj.contains("\"config\":\"sp+dp\""));
        let sj = render_summary_json(&summary);
        assert!(sj.contains("\"schema\":\"moteur-bench/summary/v1\""));
        assert!(sj.contains("\"speedups\":{"));
        assert!(sj.contains("\"drift_ok\":true"));
        // Flat configurations have no break-even ratio.
        assert!(sj.contains("\"intercept_slope_ratio\":null"));
    }
}
