//! The enactor's work per completion must not grow with the number of
//! invocations in flight. With unbounded ports the two-stage local
//! chain puts the whole stream in flight at once, so a per-completion
//! walk over the pending set makes the run quadratic: four times the
//! items then cost about sixteen times the wall clock instead of four.
//!
//! Checked under the default fault-tolerance configuration (no timeout
//! armed) and again under a fixed timeout too long ever to fire — the
//! second is the case a "skip the walk when no policy is set" shortcut
//! would still lose.

use moteur::{Enactment, EnactorConfig, FtConfig, FtPolicy, TimeoutPolicy, VirtualBackend};
use moteur_bench::stream::{stream_chain, stream_inputs};
use std::time::Instant;

const N: usize = 5_000;

/// Best-of-3 wall seconds of one unbounded enactment of `n` items.
fn best_of_three(n: usize, ft: &FtConfig) -> f64 {
    let workflow = stream_chain();
    let inputs = stream_inputs(n);
    (0..3)
        .map(|_| {
            let mut backend = VirtualBackend::new();
            let start = Instant::now();
            let result = Enactment::new(&workflow, &inputs, EnactorConfig::sp_dp())
                .ft(ft)
                .run(&mut backend)
                .unwrap();
            assert_eq!(result.sink_count("out"), n);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn four_times_the_items_cost_about_four_times_the_time() {
    let never_fires = FtConfig::default().with_default(FtPolicy {
        timeout: TimeoutPolicy::Fixed { seconds: 1e9 },
        ..FtConfig::default().default
    });
    for (label, ft) in [
        ("no timeout", FtConfig::default()),
        ("armed timeout", never_fires),
    ] {
        let small = best_of_three(N, &ft);
        let large = best_of_three(4 * N, &ft);
        let ratio = large / (4.0 * small);
        eprintln!("{label}: {small:.4} s -> {large:.4} s, ratio {ratio:.2}");
        assert!(
            ratio <= 2.0,
            "{label}: {N} items in {small:.4} s, {} in {large:.4} s: ratio {ratio:.2} \
             (1.0 is linear, 4.0 quadratic)",
            4 * N
        );
    }
}
