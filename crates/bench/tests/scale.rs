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
    // Both targets, and the two allocation budgets (allocator
    // installed).
    assert_eq!(checks.len(), 4, "{checks:?}");
    assert!(checks.iter().all(|c| c.ok), "{checks:?}");
}

/// A firing checks its tuple against its processor's compiled job
/// template and hands the backend the template and the tuple: no
/// command line, fetch or store name is written, and the one string a
/// firing formats is each delivered file's GFN. About 9.2 allocations a
/// firing on this run; rendering each job's plan at firing, as the
/// enactor did before, cost about 22, and rebuilding descriptors, slot
/// bindings, a catalog and joined command-line parts per firing, as it
/// did before that, about 86.
#[test]
fn a_firing_allocates_at_most_ten_times() {
    let _alone = counting_alone();
    let prof = moteur::Prof::enabled();
    let obs = moteur::Obs::off().with_prof(prof.clone());
    let mut backend =
        moteur::SimBackend::with_obs(moteur_gridsim::GridConfig::egee_2006(), 2006, &obs);
    let result = moteur::Enactment::new(
        &moteur_bench::bronze::bronze_workflow(),
        &moteur_bench::bronze::bronze_inputs(50),
        moteur::EnactorConfig::sp_dp_jg().with_seed(2006),
    )
    .obs(obs)
    .run(&mut backend)
    .unwrap();
    assert_eq!(result.jobs_submitted, 4 * 50 + 1);
    let report = prof.report();
    let fire = report
        .subsystems
        .iter()
        .find(|s| s.subsystem == moteur_prof::Subsystem::Fire)
        .unwrap();
    assert!(fire.calls > 0 && fire.allocs > 0, "{fire:?}");
    let per_call = fire.allocs as f64 / fire.calls as f64;
    assert!(
        per_call <= 10.0,
        "{per_call:.1} allocations per firing over {} firings",
        fire.calls
    );
}

/// A streamed item's trip through the enactor costs reference counts:
/// the input stream, processor names, data indices and match tuples are
/// shared, and a routed token moves into its last target. What is left
/// per item is its source token, one match tuple, pending entry and
/// history node per service, and the local services' own output lists:
/// about 16 allocations. Copying them, as the enactor once did, costs
/// about 42 an item on this run.
#[test]
fn a_streamed_item_allocates_at_most_twenty_times() {
    let _alone = counting_alone();
    const ITEMS: usize = 20_000;
    let workflow = moteur_bench::stream::stream_chain();
    let inputs = moteur_bench::stream::stream_inputs(ITEMS);
    let config = moteur::EnactorConfig::sp_dp()
        .with_seed(2006)
        .with_port_capacity(64);
    let before = moteur_prof::alloc::allocs();
    let result = moteur::Enactment::new(&workflow, &inputs, config)
        .run(&mut moteur::VirtualBackend::new())
        .unwrap();
    let per_item = (moteur_prof::alloc::allocs() - before) as f64 / ITEMS as f64;
    assert_eq!(result.sink_count("out"), ITEMS);
    assert!(
        per_item <= 20.0,
        "{per_item:.1} allocations per streamed item over {ITEMS} items"
    );
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

/// The events of a 20-pair Bronze sp+dp run, as every sink test here
/// replays them.
fn captured_events() -> Vec<moteur::TraceEvent> {
    let (sink, buffer) = moteur::RingBufferSink::new(1 << 20);
    let obs = moteur::Obs::new(vec![Box::new(sink)]);
    moteur_bench::campaign::run_point_observed(moteur::EnactorConfig::sp_dp(), 20, 2006, obs);
    let events = buffer.snapshot();
    assert!(events.len() > 1_000, "{} events", events.len());
    events
}

/// Allocations made by `record`ing `events` into `sinks`, after their
/// first event (which sizes the buffers the rest reuse).
fn allocs_after_the_first_event(
    mut sinks: Vec<Box<dyn moteur::EventSink>>,
    events: &[moteur::TraceEvent],
) -> u64 {
    for sink in &mut sinks {
        sink.record(&events[0]);
    }
    let before = moteur_prof::alloc::allocs();
    for event in &events[1..] {
        for sink in &mut sinks {
            sink.record(event);
        }
    }
    moteur_prof::alloc::allocs() - before
}

/// A `JsonlSink` renders every event into the one line buffer it keeps,
/// sized for the longest lines of a grid run, so an event costs no
/// allocation. A `String` per line, as `to_json` makes, is one per
/// event.
#[test]
fn a_jsonl_sink_allocates_nothing_per_event_after_its_first_line() {
    let _alone = counting_alone();
    let events = captured_events();
    let jsonl = moteur::JsonlSink::new(Box::new(std::io::sink()));
    let allocs = allocs_after_the_first_event(vec![Box::new(jsonl)], &events);
    assert_eq!(allocs, 0, "over {} events", events.len() - 1);
}

/// A span is typed: its name is its phase or its invocation id, its
/// attributes are values under static keys, at most two inline, so
/// folding an event into the tree allocates nothing but the growth of
/// the span vector and of the lifecycle maps: 0.005 an event on this
/// capture. A `String` per name and per attribute key and value, as
/// the spans once held, is 0.33.
#[test]
fn a_span_sink_allocates_next_to_nothing_per_event() {
    let _alone = counting_alone();
    let events = captured_events();
    let allocs = allocs_after_the_first_event(vec![Box::new(moteur::SpanSink::new().0)], &events);
    let per_event = allocs as f64 / (events.len() - 1) as f64;
    assert!(
        per_event <= 0.01,
        "{per_event:.3} allocations per event over {} events",
        events.len() - 1
    );
}

/// The four standard sinks resolve each series, counter and gauge once
/// and then update it by position, the JSONL line is rendered into a
/// reused buffer and a span holds no string of its own. What is left
/// per event is the growth of the gauge, timeline and span vectors and
/// the lifecycle entries: 0.23 allocations (0.56 while spans held their
/// names and attributes as strings). Formatting the series names per
/// event and a `String` per line, as the sinks once did, costs 4.8 an
/// event on this capture.
#[test]
fn the_four_standard_sinks_allocate_at_most_a_quarter_per_event() {
    let _alone = counting_alone();
    let events = captured_events();
    let sinks: Vec<Box<dyn moteur::EventSink>> = vec![
        Box::new(moteur::JsonlSink::new(Box::new(std::io::sink()))),
        Box::new(moteur::MetricsSink::new().0),
        Box::new(moteur::SpanSink::new().0),
        Box::new(moteur::TimelineSink::new()),
    ];
    let allocs = allocs_after_the_first_event(sinks, &events);
    let per_event = allocs as f64 / (events.len() - 1) as f64;
    assert!(
        per_event <= 0.25,
        "{per_event:.2} allocations per event over {} events",
        events.len() - 1
    );
}
