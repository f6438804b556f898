//! The profiler's cost contract on the bronze bench: enabling the
//! scoped timers must not slow the enactor by more than 5 %.
//!
//! The run is sized so that one enactment takes at least 50 ms of a
//! debug build (a shorter one is dominated by scheduler noise). Both
//! configurations are measured as best-of-N interleaved runs (the
//! minimum is robust against scheduler preemption) and the comparison
//! retries a few times before failing.

use moteur::{Enactment, EnactorConfig, Obs, Prof, SimBackend};
use moteur_bench::{bronze_chain_inputs, bronze_chain_workflow};
use moteur_gridsim::GridConfig;
use std::time::Instant;

const ITEMS: usize = 1200;

/// One bronze-chain campaign; returns the host wall seconds.
fn one_run(prof: Prof) -> f64 {
    let workflow = bronze_chain_workflow();
    let inputs = bronze_chain_inputs(ITEMS);
    let obs = Obs::off().with_prof(prof);
    let mut backend = SimBackend::with_obs(GridConfig::ideal(), 2006, &obs);
    let config = EnactorConfig::sp_dp().with_seed(2006);
    let start = Instant::now();
    let result = Enactment::new(&workflow, &inputs, config)
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    assert_eq!(result.jobs_submitted, 5 * ITEMS, "5 services per item");
    start.elapsed().as_secs_f64()
}

#[test]
fn enabled_profiler_costs_under_five_percent_on_the_bronze_bench() {
    const ROUNDS: usize = 5;
    const ATTEMPTS: usize = 3;
    // Warm-up: fault the workflow parse, allocator arenas and code
    // pages out of the measurement.
    one_run(Prof::off());
    one_run(Prof::enabled());
    let mut overhead = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let mut best_off = f64::INFINITY;
        let mut best_on = f64::INFINITY;
        for _ in 0..ROUNDS {
            best_off = best_off.min(one_run(Prof::off()));
            best_on = best_on.min(one_run(Prof::enabled()));
        }
        overhead = (best_on - best_off) / best_off;
        if overhead < 0.05 {
            return;
        }
        eprintln!(
            "attempt {attempt}: profiler overhead {:.1}% (off {best_off:.4}s, on {best_on:.4}s)",
            overhead * 100.0
        );
    }
    panic!(
        "profiler overhead {:.1}% exceeds the 5% budget",
        overhead * 100.0
    );
}
