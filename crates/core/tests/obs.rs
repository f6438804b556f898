//! Event-stream invariants of the observability layer: every run that
//! submits a job must account for it with exactly one terminal event,
//! timestamps must be causally ordered per invocation, metrics must
//! reconcile with the `WorkflowResult`, and observation must never
//! perturb the simulation.

use moteur::prelude::*;
use moteur::{
    chrome_trace_with_metrics, critical_path, EventBuffer, InvocationRecord, JsonlSink,
    MetricsSink, RecordSink, RingBufferSink,
};
use moteur_gridsim::GridConfig;
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::sync::{Arc, Mutex};

fn descriptor(name: &str, inputs: &[&str], outputs: &[&str]) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: inputs
            .iter()
            .map(|i| InputSlot {
                name: i.to_string(),
                option: format!("-{i}"),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            })
            .collect(),
        outputs: outputs
            .iter()
            .map(|o| OutputSlot {
                name: o.to_string(),
                option: format!("-{o}"),
                access: AccessMethod::Gfn,
            })
            .collect(),
        sandboxes: vec![],
        nondeterministic: false,
    }
}

fn dsvc(name: &str, inputs: &[&str], outputs: &[&str], secs: f64) -> ServiceBinding {
    ServiceBinding::descriptor(descriptor(name, inputs, outputs), ServiceProfile::new(secs))
}

/// A two-stage pipeline with a branch: src → prep → {left, right} → sink.
fn pipeline() -> (Workflow, InputData) {
    let mut wf = Workflow::new("obs-pipeline");
    let src = wf.add_source("imgs");
    let prep = wf.add_service(
        "prep",
        &["in"],
        &["out"],
        dsvc("prep", &["in"], &["out"], 60.0),
    );
    let left = wf.add_service(
        "left",
        &["in"],
        &["out"],
        dsvc("left", &["in"], &["out"], 120.0),
    );
    let right = wf.add_service(
        "right",
        &["in"],
        &["out"],
        dsvc("right", &["in"], &["out"], 90.0),
    );
    let sink = wf.add_sink("results");
    wf.connect(src, "out", prep, "in").unwrap();
    wf.connect(prep, "out", left, "in").unwrap();
    wf.connect(prep, "out", right, "in").unwrap();
    wf.connect(left, "out", sink, "in").unwrap();
    wf.connect(right, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "imgs",
        (0..6)
            .map(|j| DataValue::File {
                gfn: format!("gfn://img/{j}"),
                bytes: 1000,
            })
            .collect(),
    );
    (wf, inputs)
}

fn run_with_obs(obs: Obs, seed: u64) -> WorkflowResult {
    let (wf, inputs) = pipeline();
    let mut backend = SimBackend::with_obs(GridConfig::egee_2006(), seed, &obs);
    Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_seed(seed))
        .obs(obs)
        .run(&mut backend)
        .expect("pipeline completes")
}

fn captured(seed: u64) -> (Vec<TraceEvent>, WorkflowResult) {
    let (sink, buffer): (RingBufferSink, EventBuffer) = RingBufferSink::new(100_000);
    let result = run_with_obs(Obs::new(vec![Box::new(sink)]), seed);
    assert_eq!(
        buffer.dropped(),
        0,
        "ring buffer must not wrap in this test"
    );
    (buffer.snapshot(), result)
}

#[test]
fn every_submitted_job_reaches_exactly_one_terminal_event() {
    let (events, result) = captured(3);
    let submitted: Vec<u64> = events
        .iter()
        .filter(|e| e.kind() == "job_submitted")
        .filter_map(moteur::TraceEvent::invocation)
        .collect();
    assert_eq!(
        submitted.len(),
        result.jobs_submitted,
        "one submission event per job"
    );
    for inv in submitted {
        let terminals = events
            .iter()
            .filter(|e| e.invocation() == Some(inv) && e.is_terminal())
            .count();
        assert_eq!(
            terminals, 1,
            "invocation {inv} must have exactly one terminal event"
        );
    }
    // Grid-side accounting closes too: one delivery per grid submission.
    let grid_subs = events
        .iter()
        .filter(|e| e.kind() == "grid_submitted")
        .count();
    let grid_delivered = events
        .iter()
        .filter(|e| e.kind() == "grid_delivered")
        .count();
    assert_eq!(grid_subs, grid_delivered);
}

#[test]
fn timestamps_are_causally_ordered_per_invocation() {
    let (events, _) = captured(5);
    let invocations: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(moteur::TraceEvent::invocation)
        .collect();
    assert!(!invocations.is_empty());
    for inv in invocations {
        let mine: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.invocation() == Some(inv))
            .collect();
        for pair in mine.windows(2) {
            assert!(
                pair[0].at() <= pair[1].at(),
                "invocation {inv}: {:?} observed after {:?}",
                pair[1],
                pair[0]
            );
        }
        // Input staging happens while the job is composed, so any
        // `edge_staged` events precede the submission that carries them.
        let first_lifecycle = mine.iter().find(|e| e.kind() != "edge_staged");
        assert_eq!(first_lifecycle.map(|e| e.kind()), Some("job_submitted"));
        assert!(mine.last().is_some_and(|e| e.is_terminal()));
    }
}

#[test]
fn metrics_reconcile_with_workflow_result() {
    let (sink, registry): (MetricsSink, Arc<Mutex<moteur::MetricsRegistry>>) = MetricsSink::new();
    let result = run_with_obs(Obs::new(vec![Box::new(sink)]), 7);
    let reg = registry.lock().unwrap();
    assert_eq!(reg.counter("job_submitted") as usize, result.jobs_submitted);
    assert_eq!(
        reg.counter("job_completed") as usize,
        result.jobs_submitted,
        "failure-free seed: every job completes"
    );
    // All in-flight gauges drain back to zero; the total peaked above it.
    let inflight = reg.gauge("inflight_total").expect("gauge exists");
    assert_eq!(inflight.current, 0, "run finished with jobs in flight?");
    assert!(inflight.peak > 0);
    for (name, g) in reg.gauges() {
        if name.starts_with("inflight") {
            assert_eq!(g.current, 0, "{name} did not drain");
        }
    }
    // Grid overhead was observed for every delivered job.
    let overhead = reg
        .histogram("grid_overhead_secs")
        .expect("histogram exists");
    assert_eq!(overhead.count as usize, result.jobs_submitted);
    assert!(overhead.mean() > 0.0, "EGEE overhead is never free");
}

#[test]
fn jsonl_sink_writes_one_parsable_object_per_event() {
    let shared: Arc<Mutex<Vec<u8>>> = Arc::default();
    struct SharedWriter(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sink = JsonlSink::new(Box::new(SharedWriter(Arc::clone(&shared))));
    let obs = Obs::new(vec![Box::new(sink)]);
    let result = run_with_obs(obs.clone(), 11);
    obs.flush().expect("flush succeeds");
    let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > result.jobs_submitted * 2,
        "lifecycle has many events per job"
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\""),
            "line is a JSON object: {line}"
        );
        assert!(line.ends_with('}'), "single-line object: {line}");
        assert!(
            line.contains("\"t\":"),
            "every event is timestamped: {line}"
        );
    }
}

#[test]
fn observation_does_not_perturb_the_run() {
    let (wf, inputs) = pipeline();
    let mut blind_backend = SimBackend::new(GridConfig::egee_2006(), 13);
    let blind = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_seed(13))
        .run(&mut blind_backend)
        .expect("pipeline completes");
    let (sink, _buffer) = RingBufferSink::new(100_000);
    let observed = run_with_obs(Obs::new(vec![Box::new(sink)]), 13);
    assert_eq!(
        blind.makespan, observed.makespan,
        "observation changed the clock"
    );
    assert_eq!(blind.jobs_submitted, observed.jobs_submitted);
    assert_eq!(blind.completed_invocations, observed.completed_invocations);
}

/// The invocation records of a tiny fully-deterministic run, for
/// byte-reproducibility checks: constant-cost services on the ideal
/// grid (constant overheads, no failures), so every timestamp is the
/// same on every execution.
fn deterministic_records() -> Vec<InvocationRecord> {
    let mut wf = Workflow::new("golden");
    let src = wf.add_source("in");
    let a = wf.add_service("A", &["in"], &["out"], dsvc("A", &["in"], &["out"], 30.0));
    let b = wf.add_service("B", &["in"], &["out"], dsvc("B", &["in"], &["out"], 45.0));
    let sink = wf.add_sink("out");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(a, "out", b, "in").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "in",
        (0..3)
            .map(|j| DataValue::File {
                gfn: format!("gfn://golden/{j}"),
                bytes: 100,
            })
            .collect(),
    );
    let mut backend = SimBackend::new(GridConfig::ideal(), 1);
    let (sink, records) = RecordSink::new();
    Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_seed(1))
        .obs(Obs::new(vec![Box::new(sink)]))
        .run(&mut backend)
        .expect("golden workflow completes");
    records.snapshot()
}

#[test]
fn chrome_trace_is_byte_reproducible_and_matches_the_golden_file() {
    let first = chrome_trace_with_metrics(&deterministic_records(), None);
    let second = chrome_trace_with_metrics(&deterministic_records(), None);
    assert_eq!(first, second, "two identical runs must serialise equally");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("MOTEUR_BLESS").is_some() {
        std::fs::write(golden_path, &first).expect("write golden file");
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file committed (regenerate with MOTEUR_BLESS=1)");
    assert_eq!(
        first, golden,
        "chrome export changed; if intentional, regenerate with \
         MOTEUR_BLESS=1 cargo test -p moteur --test obs"
    );
}

#[test]
fn span_sink_reconstructs_the_grid_lifecycle_of_a_real_run() {
    let (sink, spans) = moteur::SpanSink::new();
    let result = run_with_obs(Obs::new(vec![Box::new(sink)]), 19);
    let tree = spans.snapshot();
    let root = tree.roots().next().expect("workflow root span");
    assert_eq!(
        tree.roots().count(),
        1,
        "exactly one workflow root: {}",
        tree.render()
    );
    // Root covers the run: its duration matches the makespan shape
    // (first event to last terminal).
    assert!(root.end.is_some(), "root closed");
    // One item span per submitted job, each fully phased.
    let items: Vec<&moteur::Span> = tree
        .spans()
        .iter()
        .filter(|s| s.kind == moteur::SpanKind::DataItem)
        .collect();
    assert_eq!(items.len(), result.jobs_submitted);
    for item in &items {
        assert!(item.end.is_some(), "item {} left open", item.name);
        let phases: Vec<&'static str> = tree.children(item.id).map(|p| p.kind.name()).collect();
        // Every lifecycle starts with a submission and ends with the
        // transfer; failed attempts splice extra scheduling/queuing/
        // execution phases in between, so require coverage, not an
        // exact sequence.
        assert_eq!(phases.first(), Some(&"submission"), "{phases:?}");
        assert_eq!(phases.last(), Some(&"transfer"), "{phases:?}");
        for required in ["scheduling", "queuing", "execution"] {
            assert!(
                phases.contains(&required),
                "item {} missing {required}: {phases:?}",
                item.name
            );
        }
    }
    // Phase totals agree with the metrics-layer overhead definition:
    // submission+scheduling+queuing+transfer is the non-execution part.
    let durations = tree.phase_durations();
    assert!(
        durations["execution"].0 as usize >= result.jobs_submitted,
        "at least one execution per job (retries add more)"
    );
    assert!(tree.overhead_secs() > 0.0, "EGEE overhead is never free");
}

#[test]
fn chrome_trace_and_critical_path_cover_the_run() {
    let (sink, records) = RecordSink::new();
    let result = run_with_obs(Obs::new(vec![Box::new(sink)]), 17);
    let records = records.snapshot();
    assert_eq!(records.len(), result.completed_invocations);
    let trace = chrome_trace_with_metrics(&records, None);
    let exec_spans = trace.matches("\"cat\":\"exec\"").count();
    assert_eq!(exec_spans, records.len(), "one exec span per invocation");
    assert!(trace.contains("\"displayTimeUnit\":\"ms\""));
    let cp = critical_path(&records, result.makespan);
    assert!(cp.makespan_secs > 0.0);
    assert!(!cp.steps.is_empty());
    assert!(cp.coverage() > 0.0 && cp.coverage() <= 1.0 + 1e-9);
}
