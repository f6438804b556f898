//! Scale-campaign integration with the counting allocator installed:
//! the allocation columns carry real numbers here, so this harness can
//! pin the event loop's per-event allocation rate — the regression
//! assertion for the queue-churn fixes (buffer reuse in `submit` /
//! `on_completion_delivered`, pre-sized event queue) — and what it
//! costs to render an event as a JSONL line.

#[global_allocator]
static ALLOC: moteur_prof::alloc::CountingAlloc = moteur_prof::alloc::CountingAlloc;

use moteur_bench::gate::SCALE;
use moteur_bench::scale::{render_scale_json, run_scale, ScaleSpec, ALLOCS_PER_EVENT_BUDGET};
use std::sync::{Mutex, MutexGuard};

/// The allocation counters are process-wide and the test harness runs
/// tests on several threads: each test counts under this lock.
fn counting_alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn quick_spec() -> ScaleSpec {
    ScaleSpec {
        target_events: 100_000,
        enact_jobs: 250,
        seed: 2006,
    }
}

#[test]
fn simulator_allocation_rate_stays_inside_the_budget() {
    let _alone = counting_alone();
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
    let _alone = counting_alone();
    let report = run_scale(&quick_spec()).unwrap();
    let json = render_scale_json(&report);
    let checks = SCALE.check(&json).unwrap();
    // Both targets, and the allocation budget (allocator installed).
    assert_eq!(checks.len(), 3, "{checks:?}");
    assert!(checks.iter().all(|c| c.ok), "{checks:?}");
}

/// `TraceEvent::to_json` writes keys, escapes and numbers straight into
/// one line-sized buffer: one allocation per event, a second for the
/// few lines that outgrow it. A `String` per key or per value (sixteen
/// allocations per event, as it once was) fails this by a wide margin.
#[test]
fn rendering_an_event_as_json_allocates_at_most_twice() {
    let _alone = counting_alone();
    let (sink, buffer) = moteur::RingBufferSink::new(1 << 20);
    let obs = moteur::Obs::new(vec![Box::new(sink)]);
    moteur_bench::campaign::run_point_observed(moteur::EnactorConfig::sp_dp(), 20, 2006, obs);
    let events = buffer.snapshot();
    assert!(events.len() > 1_000, "{} events", events.len());

    let before = moteur_prof::alloc::allocs();
    let bytes: usize = events.iter().map(|e| e.to_json().len()).sum();
    let per_event = (moteur_prof::alloc::allocs() - before) as f64 / events.len() as f64;
    assert!(bytes > events.len());
    assert!(
        per_event <= 2.0,
        "{per_event:.2} allocations per to_json over {} events",
        events.len()
    );
}
