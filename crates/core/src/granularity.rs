//! Probabilistic job-granularity optimization — the paper's §5.4
//! future work: *"we plan to address this problem by grouping jobs of a
//! single service, thus finding a trade-off between data parallelism
//! and the system's overhead"* and *"a probabilistic modeling
//! considering the variable nature of the grid infrastructure"* (their
//! follow-up reference \[12\]).
//!
//! Model: `n` independent data, batched `g` per grid job, run with full
//! data parallelism on an unloaded grid whose per-job overhead is
//! lognormal(median `m`, shape `σ`). The makespan is dominated by the
//! slowest of the `J = ⌈n/g⌉` jobs:
//!
//! ```text
//! E[makespan](g) ≈ m·exp(σ·Φ⁻¹(J/(J+1))) + g·T
//! ```
//!
//! Larger batches mean fewer draws from the heavy-tailed overhead
//! distribution (smaller expected maximum) but more sequential compute
//! per job — a convex trade-off whose argmin is the recommended batch
//! size. Overhead parameters can be fitted from observed per-job
//! overheads, so the granularity can adapt to the current grid weather.

/// Lognormal overhead model plus workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityModel {
    /// Median per-job grid overhead (s).
    pub overhead_median: f64,
    /// Lognormal shape of the overhead.
    pub overhead_sigma: f64,
    /// Compute time per datum (s).
    pub compute_seconds: f64,
    /// Number of data to process.
    pub n_data: usize,
}

impl GranularityModel {
    /// Expected makespan when batching `batch` data per job under full
    /// data parallelism.
    pub fn expected_makespan(&self, batch: usize) -> f64 {
        let batch = batch.clamp(1, self.n_data.max(1));
        let jobs = self.n_data.div_ceil(batch).max(1);
        let q = jobs as f64 / (jobs as f64 + 1.0);
        let expected_max_overhead =
            self.overhead_median * (self.overhead_sigma * inverse_normal_cdf(q)).exp();
        expected_max_overhead + batch as f64 * self.compute_seconds
    }

    /// Batch size minimising the expected makespan.
    pub fn optimal_batch(&self) -> usize {
        (1..=self.n_data.max(1))
            .min_by(|&a, &b| {
                self.expected_makespan(a)
                    .partial_cmp(&self.expected_makespan(b))
                    .expect("finite makespans")
            })
            .unwrap_or(1)
    }

    /// Fit the overhead distribution from observed per-job overheads in
    /// seconds (log space mean/std) — adapting the granularity to the
    /// observed grid load.
    pub fn fit_overheads(overheads: &[f64], compute_seconds: f64, n_data: usize) -> Self {
        let logs: Vec<f64> = overheads.iter().map(|o| o.max(1e-3).ln()).collect();
        let (median, sigma) = if logs.is_empty() {
            (0.0, 0.0)
        } else {
            let mean = logs.iter().sum::<f64>() / logs.len() as f64;
            let var = logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / logs.len() as f64;
            (mean.exp(), var.sqrt())
        };
        GranularityModel {
            overhead_median: median,
            overhead_sigma: sigma,
            compute_seconds,
            n_data,
        }
    }
}

/// Acklam's rational approximation of the standard normal quantile
/// function Φ⁻¹ (absolute error < 1.2e-9 over (0, 1)).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile only defined on (0, 1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239e0,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cdf_reference_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.84134) - 0.99998).abs() < 1e-3);
        assert!(inverse_normal_cdf(0.999) > 3.0);
        assert!(inverse_normal_cdf(1e-6) < -4.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn inverse_cdf_rejects_out_of_range() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn constant_overhead_prefers_no_batching() {
        // σ = 0: the max equals the median whatever J is, so every
        // batch > 1 only adds compute time.
        let m = GranularityModel {
            overhead_median: 300.0,
            overhead_sigma: 0.0,
            compute_seconds: 60.0,
            n_data: 50,
        };
        assert_eq!(m.optimal_batch(), 1);
    }

    #[test]
    fn heavy_tails_prefer_larger_batches() {
        let mk = |sigma: f64| GranularityModel {
            overhead_median: 300.0,
            overhead_sigma: sigma,
            compute_seconds: 30.0,
            n_data: 100,
        };
        let g_low = mk(0.2).optimal_batch();
        let g_high = mk(1.5).optimal_batch();
        assert!(
            g_high > g_low,
            "more variable grids favour coarser jobs: σ=0.2 → {g_low}, σ=1.5 → {g_high}"
        );
        assert!(g_high > 1);
    }

    #[test]
    fn expensive_compute_prefers_smaller_batches() {
        let mk = |t: f64| GranularityModel {
            overhead_median: 600.0,
            overhead_sigma: 1.0,
            compute_seconds: t,
            n_data: 100,
        };
        assert!(mk(600.0).optimal_batch() <= mk(10.0).optimal_batch());
    }

    #[test]
    fn makespan_is_convexish_around_the_optimum() {
        let m = GranularityModel {
            overhead_median: 600.0,
            overhead_sigma: 1.0,
            compute_seconds: 60.0,
            n_data: 126,
        };
        let g = m.optimal_batch();
        let at = |x: usize| m.expected_makespan(x);
        assert!(at(g) <= at((g + 1).min(126)));
        assert!(at(g) <= at(g.saturating_sub(1).max(1)));
        // All-in-one-job is bad when compute is non-trivial.
        assert!(at(126) > at(g));
    }

    #[test]
    fn batch_clamps_to_data_count() {
        let m = GranularityModel {
            overhead_median: 100.0,
            overhead_sigma: 0.5,
            compute_seconds: 10.0,
            n_data: 5,
        };
        assert_eq!(m.expected_makespan(99), m.expected_makespan(5));
    }

    #[test]
    fn fit_recovers_lognormal_parameters() {
        use moteur_gridsim::{Distribution, GridConfig, GridJobSpec, GridSim};
        let mut cfg = GridConfig::ideal();
        cfg.submission_overhead = Distribution::LogNormal {
            median: 200.0,
            sigma: 0.6,
        };
        let mut sim = GridSim::new(cfg, 9);
        for i in 0..400 {
            sim.submit(GridJobSpec::new(format!("j{i}"), 50.0));
        }
        let overheads: Vec<f64> = std::iter::from_fn(|| sim.next_completion())
            .map(|r| r.overhead().as_secs_f64())
            .collect();
        let model = GranularityModel::fit_overheads(&overheads, 50.0, 100);
        assert!(
            (model.overhead_median - 200.0).abs() < 25.0,
            "median {}",
            model.overhead_median
        );
        assert!(
            (model.overhead_sigma - 0.6).abs() < 0.08,
            "sigma {}",
            model.overhead_sigma
        );
    }

    #[test]
    fn fit_on_no_samples_is_degenerate_but_safe() {
        let m = GranularityModel::fit_overheads(&[], 10.0, 20);
        assert_eq!(m.overhead_median, 0.0);
        assert_eq!(m.optimal_batch(), 1);
    }
}
