//! Campaign runner: enact the Bronze-Standard workflow on the simulated
//! EGEE grid under each optimization configuration — the machinery
//! behind Table 1, Table 2, Fig. 10 and the §5 speed-up analyses.

use crate::bronze::{bronze_inputs, bronze_workflow};
use moteur::{Enactment, EnactorConfig, Obs, SimBackend, WorkflowResult};
use moteur_analysis::Series;
use moteur_gridsim::GridConfig;

/// One campaign measurement.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    pub config: EnactorConfig,
    pub n_pairs: usize,
    pub makespan_secs: f64,
    pub jobs_submitted: usize,
}

/// Enact the workflow once for `(config, n_pairs)` on a fresh simulated
/// grid with the given seed.
pub fn run_point(config: EnactorConfig, n_pairs: usize, seed: u64) -> CampaignPoint {
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
) -> (CampaignPoint, WorkflowResult) {
    let workflow = bronze_workflow();
    let inputs = bronze_inputs(n_pairs);
    let mut backend = SimBackend::with_obs(GridConfig::egee_2006(), seed, &obs);
    let result = Enactment::new(&workflow, &inputs, config)
        .obs(obs)
        .run(&mut backend)
        .expect("bronze campaign must complete");
    let point = CampaignPoint {
        config,
        n_pairs,
        makespan_secs: result.makespan.as_secs_f64(),
        jobs_submitted: result.jobs_submitted,
    };
    (point, result)
}

/// Run every configuration over every size; returns one series per
/// configuration in the paper's Table 1 row order. Each (config, size)
/// cell is averaged over `repeats` seeds.
pub fn run_campaign(
    sizes: &[usize],
    seed: u64,
    repeats: usize,
) -> Vec<(Series, Vec<CampaignPoint>)> {
    EnactorConfig::table1_configurations()
        .iter()
        .map(|cfg| {
            let mut points = Vec::new();
            let series_points = sizes
                .iter()
                .map(|&n| {
                    let mut total = 0.0;
                    for r in 0..repeats.max(1) {
                        let p =
                            run_point(cfg.with_seed(seed + r as u64), n, seed + 1000 * r as u64);
                        total += p.makespan_secs;
                        points.push(p);
                    }
                    (n as f64, total / repeats.max(1) as f64)
                })
                .collect();
            (Series::new(cfg.label(), series_points), points)
        })
        .collect()
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
        let results = run_campaign(&[2, 4], 1, 1);
        assert_eq!(results.len(), 6);
        let labels: Vec<&str> = results.iter().map(|(s, _)| s.label.as_str()).collect();
        assert_eq!(labels, ["NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"]);
        for (s, pts) in &results {
            assert_eq!(s.points.len(), 2);
            assert_eq!(pts.len(), 2);
        }
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
