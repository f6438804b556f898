//! Scale-campaign integration with the counting allocator installed:
//! the allocation columns carry real numbers here, so this harness can
//! pin the event loop's per-event allocation rate — the regression
//! assertion for the queue-churn fixes (buffer reuse in `submit` /
//! `on_completion_delivered`, pre-sized event queue).

#[global_allocator]
static ALLOC: moteur_prof::alloc::CountingAlloc = moteur_prof::alloc::CountingAlloc;

use moteur_bench::gate::{DEFAULT_THRESHOLD, SCALE};
use moteur_bench::scale::{render_scale_json, run_scale, ScaleSpec, ALLOCS_PER_EVENT_BUDGET};

fn quick_spec() -> ScaleSpec {
    ScaleSpec {
        target_events: 100_000,
        enact_jobs: 250,
        seed: 2006,
    }
}

#[test]
fn simulator_allocation_rate_stays_inside_the_budget() {
    let report = run_scale(&quick_spec()).unwrap();
    assert!(
        report.alloc_installed,
        "this harness installs the allocator"
    );
    assert!(report.peak_alloc_bytes > 0);
    assert!(
        report.allocs_per_event <= ALLOCS_PER_EVENT_BUDGET,
        "event loop allocates {:.2}/event, budget {ALLOCS_PER_EVENT_BUDGET}",
        report.allocs_per_event
    );
    // The steady-state loop reuses its buffers: drained job records are
    // swapped out rather than cloned, submissions move their name into
    // the record, and the heap is pre-sized. Averaged over 10^5 events
    // that keeps the rate below one allocation per event; per-event
    // cloning anywhere on the hot path pushes it well above 1.
    assert!(
        report.allocs_per_event < 1.0,
        "event-queue churn crept back in: {:.2} allocs/event",
        report.allocs_per_event
    );
    assert!(report.ok(), "{report:?}");
}

#[test]
fn fresh_scale_json_passes_its_own_gate() {
    let report = run_scale(&quick_spec()).unwrap();
    let json = render_scale_json(&report);
    let checks = SCALE.check(&json, Some(&json), DEFAULT_THRESHOLD).unwrap();
    // 4 absolute checks (allocator installed) + 2 baseline axes.
    assert_eq!(checks.len(), 6, "{checks:?}");
    assert!(checks.iter().all(|c| c.ok), "{checks:?}");
}
