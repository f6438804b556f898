//! Warm-restart benchmark: the same campaign enacted twice against one
//! provenance-keyed data manager.
//!
//! The cold run populates the store (every probe misses, so its
//! makespan must still satisfy the eq. 1–4 drift check — memoization
//! may not perturb the cold path). The warm run then replays the same
//! inputs: every deterministic grid job is elided into a constant-cost
//! fetch, and the makespan collapses from the chain's compute total to
//! a few seconds of simulated transfers. The resulting
//! `BENCH_warm.json` documents the speed-up alongside the regular
//! observatory artifacts.

use crate::bronze::{bronze_chain_inputs, bronze_chain_workflow};
use moteur::obs::json::JsonObject;
use moteur::{
    check_drift, predict, DataStore, Enactment, EnactorConfig, MetricsSink, MoteurError, Obs,
    Observation, SimBackend, StoreConfig,
};
use moteur_gridsim::GridConfig;

/// Schema tag of [`render_warm_json`].
pub const WARM_SCHEMA: &str = "moteur-bench/warm/v1";

/// Everything measured by one cold/warm pair.
#[derive(Debug, Clone)]
pub struct WarmReport {
    pub n_data: usize,
    pub seed: u64,
    pub cold_makespan_secs: f64,
    pub warm_makespan_secs: f64,
    /// Grid jobs submitted by the cold run (fetches never count).
    pub cold_jobs: usize,
    pub warm_jobs: usize,
    /// Model prediction for the cold run (sp+dp, eq. 1–4).
    pub predicted_secs: f64,
    pub rel_error: f64,
    pub drift_ok: bool,
    /// Cache traffic of the *warm* run only.
    pub hits: u64,
    pub misses: u64,
    /// `cold_makespan / warm_makespan`.
    pub speedup: f64,
    pub store_entries: usize,
    pub store_bytes: u64,
}

impl WarmReport {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Run the cold/warm pair: Bronze-Standard chain, ideal grid, SP+DP —
/// the deterministic cell of the sweep, so both makespans are exact.
pub fn run_warm_pair(n_data: usize, seed: u64) -> Result<WarmReport, MoteurError> {
    let workflow = bronze_chain_workflow();
    let config = EnactorConfig::sp_dp().with_seed(seed);
    let tolerance = 0.05;
    let prediction = predict(&workflow, n_data, 0.0)?;
    let mut store = DataStore::in_memory(StoreConfig::default());

    // Cold: populate the store; all probes miss.
    let mut backend = SimBackend::new(GridConfig::ideal(), seed);
    let cold = Enactment::new(&workflow, &bronze_chain_inputs(n_data), config)
        .store(Some(&mut store))
        .run(&mut backend)?;
    let cold_makespan_secs = cold.makespan.as_secs_f64();
    let drift = check_drift(
        &prediction,
        &[Observation {
            config: "sp+dp".to_string(),
            makespan_secs: cold_makespan_secs,
        }],
        tolerance,
    );
    let entry = drift
        .entries
        .first()
        .ok_or_else(|| MoteurError::new("no sp+dp prediction row"))?;
    let (predicted_secs, rel_error) = (entry.predicted_secs, entry.rel_error);

    // Warm: same inputs, fresh grid, shared store — and a metrics sink
    // so the cache traffic shows up the same way it would in a user's
    // OpenMetrics exposition.
    let (sink, registry) = MetricsSink::new();
    let obs = Obs::new(vec![Box::new(sink)]);
    let mut backend = SimBackend::with_obs(GridConfig::ideal(), seed, &obs);
    let warm = Enactment::new(&workflow, &bronze_chain_inputs(n_data), config)
        .obs(obs.clone())
        .store(Some(&mut store))
        .run(&mut backend)?;
    obs.flush()
        .map_err(|e| MoteurError::new(format!("flushing metrics: {e}")))?;
    let (hits, misses) = {
        let reg = registry.lock().expect("metrics registry");
        (reg.counter("cache_hit"), reg.counter("cache_miss"))
    };
    let warm_makespan_secs = warm.makespan.as_secs_f64();
    let stats = store.stats();

    Ok(WarmReport {
        n_data,
        seed,
        cold_makespan_secs,
        warm_makespan_secs,
        cold_jobs: cold.jobs_submitted,
        warm_jobs: warm.jobs_submitted,
        predicted_secs,
        rel_error,
        drift_ok: rel_error <= tolerance,
        hits,
        misses,
        speedup: if warm_makespan_secs > 0.0 {
            cold_makespan_secs / warm_makespan_secs
        } else {
            f64::INFINITY
        },
        store_entries: stats.entries,
        store_bytes: stats.bytes,
    })
}

/// Serialise the report (`BENCH_warm.json`).
pub fn render_warm_json(report: &WarmReport) -> String {
    JsonObject::new()
        .str("schema", WARM_SCHEMA)
        .str("workflow", "bronze-chain")
        .str("grid", "ideal")
        .str("config", "sp+dp")
        .uint("n_data", report.n_data as u64)
        .uint("seed", report.seed)
        .num("cold_makespan_secs", report.cold_makespan_secs)
        .num("warm_makespan_secs", report.warm_makespan_secs)
        .uint("cold_jobs", report.cold_jobs as u64)
        .uint("warm_jobs", report.warm_jobs as u64)
        .num("predicted_secs", report.predicted_secs)
        .num("rel_error", report.rel_error)
        .bool("drift_ok", report.drift_ok)
        .uint("cache_hits", report.hits)
        .uint("cache_misses", report.misses)
        .num("hit_ratio", report.hit_ratio())
        .num("speedup", report.speedup)
        .uint("store_entries", report.store_entries as u64)
        .uint("store_bytes", report.store_bytes)
        .finish()
}

/// Human rendering, one line per fact.
pub fn render_warm(report: &WarmReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "warm-restart pair: bronze-chain on ideal grid, sp+dp, n_data {} (seed {})",
        report.n_data, report.seed
    );
    let _ = writeln!(
        out,
        "  cold: {:.1} s, {} jobs (predicted {:.1} s, err {:.2}%, drift {})",
        report.cold_makespan_secs,
        report.cold_jobs,
        report.predicted_secs,
        report.rel_error * 100.0,
        if report.drift_ok { "ok" } else { "DRIFT" }
    );
    let _ = writeln!(
        out,
        "  warm: {:.1} s, {} jobs, {} hits / {} misses ({:.0}% hit ratio)",
        report.warm_makespan_secs,
        report.warm_jobs,
        report.hits,
        report.misses,
        report.hit_ratio() * 100.0
    );
    let _ = writeln!(
        out,
        "  speedup {:.1}x; store holds {} entries ({} bytes)",
        report.speedup, report.store_entries, report.store_bytes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_run_elides_all_grid_jobs_and_beats_cold() {
        let r = run_warm_pair(4, 2006).unwrap();
        assert!(r.drift_ok, "cold run drifted: {}", r.rel_error);
        // The chain is fully deterministic: every warm invocation hits.
        assert_eq!(r.warm_jobs, 0, "warm run should submit no grid jobs");
        assert_eq!(r.misses, 0);
        assert_eq!(r.hits as usize, r.cold_jobs);
        assert!((r.hit_ratio() - 1.0).abs() < f64::EPSILON);
        assert!(
            r.warm_makespan_secs < r.cold_makespan_secs / 10.0,
            "warm {} vs cold {}",
            r.warm_makespan_secs,
            r.cold_makespan_secs
        );
        assert!(r.speedup > 10.0);
        assert!(r.store_entries > 0 && r.store_bytes > 0);
    }

    #[test]
    fn warm_json_carries_the_schema_tag() {
        let r = run_warm_pair(2, 7).unwrap();
        let json = render_warm_json(&r);
        assert!(json.contains("\"schema\":\"moteur-bench/warm/v1\""));
        assert!(json.contains("\"cache_hits\""));
        assert!(json.contains("\"speedup\""));
        // The human rendering mentions the same headline numbers.
        let human = render_warm(&r);
        assert!(human.contains("speedup"));
        assert!(human.contains("hit ratio"));
    }
}
