//! Ablation (DESIGN.md §5, beyond the paper's figures): how the
//! SP-over-DP speed-up depends on grid-overhead *variability*.
//!
//! §3.5.4 proves S_SDP = 1 under constant execution times and argues
//! the measured ≈2× comes entirely from the production grid's
//! variability. This harness sweeps the overhead's lognormal shape σ
//! while holding its *mean* fixed, runs the Bronze-Standard workflow
//! under DP and DP+SP, and shows the speed-up rising from ≈1 with the
//! variability — a quantitative confirmation of the paper's argument.

use moteur::{Enactment, EnactorConfig, SimBackend};
use moteur_analysis::Table;
use moteur_bench::{bronze_inputs, bronze_workflow};
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};

/// Unloaded grid whose only stochastic element is the matchmaking
/// delay: lognormal with mean fixed at `mean` and shape `sigma`.
fn grid_with_sigma(mean: f64, sigma: f64) -> GridConfig {
    // mean = median·exp(σ²/2)  ⇒  median = mean·exp(−σ²/2).
    let median = mean * (-sigma * sigma / 2.0).exp();
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        submission_overhead: Distribution::Constant(60.0),
        match_delay: if sigma == 0.0 {
            Distribution::Constant(mean)
        } else {
            Distribution::LogNormal { median, sigma }
        },
        notify_delay: Distribution::Constant(30.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 5.0,
            bandwidth: 2.0e6,
            congestion: 0.0,
        },
        typical_job_duration: 600.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_pairs = if args.iter().any(|a| a == "--quick") {
        6
    } else {
        20
    };
    let repeats = 5u64;
    let workflow = bronze_workflow();
    let inputs = bronze_inputs(n_pairs);

    println!("SP benefit vs overhead variability ({n_pairs} image pairs, mean overhead 500 s, {repeats} seeds)");
    println!();
    let mut table = Table::new(&["overhead sigma", "DP (s)", "DP+SP (s)", "SP speed-up"]);
    for sigma in [0.0, 0.3, 0.6, 0.9, 1.2, 1.5] {
        let mut dp_total = 0.0;
        let mut dsp_total = 0.0;
        for seed in 0..repeats {
            let mut b1 = SimBackend::new(grid_with_sigma(500.0, sigma), seed);
            dp_total += Enactment::new(&workflow, &inputs, EnactorConfig::dp())
                .run(&mut b1)
                .expect("dp run")
                .makespan
                .as_secs_f64();
            let mut b2 = SimBackend::new(grid_with_sigma(500.0, sigma), seed);
            dsp_total += Enactment::new(&workflow, &inputs, EnactorConfig::sp_dp())
                .run(&mut b2)
                .expect("dsp run")
                .makespan
                .as_secs_f64();
        }
        let (dp, dsp) = (dp_total / repeats as f64, dsp_total / repeats as f64);
        table.add_row(vec![
            format!("{sigma:.1}"),
            format!("{dp:.0}"),
            format!("{dsp:.0}"),
            format!("{:.2}x", dp / dsp),
        ]);
    }
    println!("{}", table.render());
    println!("At sigma = 0 the speed-up collapses towards the theoretical S_SDP = 1;");
    println!("it grows with the variability — the paper's explanation of its S5.2 result.");
}
