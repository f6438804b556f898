//! Run the Bronze-Standard workflow on the *simulated EGEE grid* under
//! all six optimization configurations — a reduced-size version of the
//! paper's Table 1 experiment that finishes in seconds.
//!
//! Run with: `cargo run --release --example grid_campaign [n_pairs]`

use moteur_repro::analysis::{compare, fmt_secs, Series, Table};
use moteur_repro::moteur::EnactorConfig;

fn main() {
    let n_pairs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(12);
    println!("Bronze-Standard campaign on the simulated EGEE grid, {n_pairs} image pairs\n");

    let mut table = Table::new(&[
        "Configuration",
        "time (s)",
        "time (h)",
        "jobs",
        "speed-up vs NOP",
    ]);
    let mut nop_time = None;
    let mut series = Vec::new();
    for config in EnactorConfig::table1_configurations() {
        let point = moteur_bench::run_point(config, n_pairs, 2006);
        if config.label() == "NOP" {
            nop_time = Some(point.makespan_secs);
        }
        let speedup = nop_time.map_or(1.0, |n| n / point.makespan_secs);
        table.add_row(vec![
            config.label().to_string(),
            fmt_secs(point.makespan_secs),
            format!("{:.2}", point.makespan_secs / 3600.0),
            point.jobs_submitted.to_string(),
            format!("{speedup:.2}x"),
        ]);
        series.push(Series::new(
            config.label(),
            vec![(n_pairs as f64, point.makespan_secs)],
        ));
    }
    println!("{}", table.render());

    let nop = series.iter().find(|s| s.label == "NOP").expect("NOP ran");
    let best = series
        .iter()
        .find(|s| s.label == "SP+DP+JG")
        .expect("SP+DP+JG ran");
    let c = compare(nop, best);
    println!(
        "full optimization speed-up at {n_pairs} pairs: {:.1}x (the paper reports ~9x at 126)",
        c.speedups[0].1
    );
    println!("\nFor the full Table 1/2 reproduction run:");
    println!("  cargo run --release --bin moteur-bench -- paper --repeats 5 --out-dir results");
}
