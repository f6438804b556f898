//! Harness of the replay probes: time a call into one public function
//! of the product over a fixed number of iterations. Which function and
//! which inputs is decided in [`crate::sut`]; the names are in
//! [`crate::spec`].

use crate::stats;
use crate::sut;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name → value, as a run collects them.
pub type Values = BTreeMap<String, f64>;

/// Timed batches per probe; the reported time is their median.
const BATCHES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ns_per_op: f64,
    /// 0 unless the counting allocator is installed.
    pub allocs_per_op: f64,
}

/// Run `f` `iters` times on a state made by `fresh`, [`BATCHES`] times
/// over (after one untimed call on a state of its own). Building and
/// dropping the state is not timed. Allocation counts are exact and
/// come from the last batch.
pub fn probe<S, T>(
    iters: usize,
    mut fresh: impl FnMut() -> S,
    mut f: impl FnMut(&mut S, usize) -> T,
) -> Sample {
    assert!(iters > 0);
    {
        let mut state = fresh();
        black_box(f(&mut state, 0));
    }
    let mut times = Vec::with_capacity(BATCHES);
    let mut allocs = 0;
    for _ in 0..BATCHES {
        let mut state = fresh();
        let allocs_before = sut::allocs();
        let start = Instant::now();
        for i in 0..iters {
            black_box(f(black_box(&mut state), i));
        }
        times.push(start.elapsed().as_nanos() as f64 / iters as f64);
        allocs = sut::allocs() - allocs_before;
        drop(state);
    }
    Sample {
        ns_per_op: stats::median(&times),
        allocs_per_op: allocs as f64 / iters as f64,
    }
}

/// [`probe`] for a call that needs no state.
pub fn probe_fn<T>(iters: usize, mut f: impl FnMut() -> T) -> Sample {
    probe(iters, || (), |(), _| f())
}

/// Cost at `n` over four times the cost at `n / 4`: 1.0 means linear,
/// 4.0 quadratic.
pub fn scaling_4x(cost_at_n: f64, cost_at_quarter: f64) -> f64 {
    if cost_at_quarter > 0.0 {
        cost_at_n / (4.0 * cost_at_quarter)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_iterations_and_rebuilds_state_per_batch() {
        let mut built = 0;
        let mut calls = 0;
        let s = probe(
            10,
            || {
                built += 1;
                Vec::<usize>::new()
            },
            |v, i| {
                calls += 1;
                v.push(i);
                v.len()
            },
        );
        assert_eq!(built, 1 + BATCHES);
        assert_eq!(calls, 1 + BATCHES * 10);
        assert!(s.ns_per_op >= 0.0);
    }

    #[test]
    fn scaling_ratio_reads_one_for_linear_cost() {
        assert_eq!(scaling_4x(400.0, 100.0), 1.0);
        assert_eq!(scaling_4x(1600.0, 100.0), 4.0);
        assert_eq!(scaling_4x(1.0, 0.0), 0.0);
    }
}
