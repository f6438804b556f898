//! Bounded-port streaming enactment: back-pressure end to end from
//! source cursors through service chains, suspend/resume transitions,
//! barrier collection points on bounded edges, graceful degradation
//! under quarantine, and the obligation that the eager cold path stays
//! byte-identical when ports are unbounded.

use moteur::prelude::*;
use moteur::{EventBuffer, RingBufferSink};

fn capture() -> (Obs, EventBuffer) {
    let (sink, buffer) = RingBufferSink::new(100_000);
    (Obs::new(vec![Box::new(sink)]), buffer)
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn negate(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(-x))])
}

/// nums → double → negate → sink.
fn chain() -> Workflow {
    let mut wf = Workflow::new("chain");
    let src = wf.add_source("nums");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let n = wf.add_service("negate", &["in"], &["out"], ServiceBinding::local(negate));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", d, "in").unwrap();
    wf.connect(d, "out", n, "in").unwrap();
    wf.connect(n, "out", sink, "in").unwrap();
    wf
}

fn nums(n: usize) -> InputData {
    InputData::new().set("nums", (0..n).map(|i| DataValue::from(i as f64)).collect())
}

fn sorted_sink(r: &WorkflowResult, name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = r
        .sink(name)
        .iter()
        .map(|t| t.value.as_num().unwrap())
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

#[test]
fn bounded_ports_deliver_the_same_results_as_eager_enactment() {
    let wf = chain();
    let inputs = nums(50);
    let mut eager_backend = VirtualBackend::new();
    let eager = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut eager_backend)
        .unwrap();
    let mut backend = VirtualBackend::new();
    // Capacity 64 > stream length: nothing is truncated, so the full
    // result sets are comparable.
    let streamed = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_port_capacity(64))
        .run(&mut backend)
        .unwrap();
    assert_eq!(sorted_sink(&streamed, "sink"), sorted_sink(&eager, "sink"));
    assert_eq!(streamed.sink_count("sink"), 50);
    assert_eq!(eager.sink_count("sink"), 50);
    assert_eq!(streamed.jobs_submitted, eager.jobs_submitted);
}

#[test]
fn capacity_one_pipeline_completes_with_exact_sink_counts() {
    let wf = chain();
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &nums(12), EnactorConfig::sp_dp().with_port_capacity(1))
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink_count("sink"), 12, "every item flowed through");
    // Streaming bounds the retained sample to the port capacity; the
    // tally stays exact.
    assert_eq!(r.sink("sink").len(), 1);
    assert_eq!(r.jobs_submitted, 24);
}

#[test]
fn streaming_truncates_retained_outputs_but_keeps_exact_tallies() {
    let wf = chain();
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(
        &wf,
        &nums(100),
        EnactorConfig::sp_dp().with_port_capacity(4),
    )
    .run(&mut backend)
    .unwrap();
    assert_eq!(r.sink_count("sink"), 100);
    assert_eq!(r.sink("sink").len(), 4, "retained sample is O(capacity)");
    assert_eq!(r.invocations.len(), 4, "records are O(capacity) too");
}

#[test]
fn full_ports_suspend_the_producer_and_drains_resume_it() {
    let wf = chain();
    let (obs, buffer) = capture();
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &nums(20), EnactorConfig::sp_dp().with_port_capacity(1))
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink_count("sink"), 20);
    let events = buffer.snapshot();
    let suspends = events
        .iter()
        .filter(|e| e.kind() == "port_suspended")
        .count();
    let resumes = events.iter().filter(|e| e.kind() == "port_resumed").count();
    assert!(suspends > 0, "capacity 1 under 20 items must block");
    assert!(resumes > 0, "a drained port must resume its producer");
    // Transitions are edge-triggered: suspends and resumes interleave,
    // so they differ by at most one.
    assert!(
        suspends.abs_diff(resumes) <= 1,
        "{suspends} suspends vs {resumes} resumes"
    );
    let json = events
        .iter()
        .find(|e| e.kind() == "port_suspended")
        .unwrap()
        .to_json();
    assert!(json.contains(r#""capacity":1"#), "{json}");
    assert!(json.contains(r#""depth":"#), "{json}");
}

#[test]
fn barrier_on_a_bounded_port_still_collects_the_whole_stream() {
    let mean = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let list = inputs[0].value.as_list().ok_or("expected a list")?;
        let sum: f64 = list.iter().map(|v| v.as_num().unwrap()).sum();
        Ok(vec![(
            "out".into(),
            DataValue::from(sum / list.len() as f64),
        )])
    };
    let mut wf = Workflow::new("sync");
    let src = wf.add_source("nums");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let m = wf.add_service("mean", &["values"], &["out"], ServiceBinding::local(mean));
    wf.set_synchronization(m, true);
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", d, "in").unwrap();
    wf.connect(d, "out", m, "values").unwrap();
    wf.connect(m, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("nums", (1..=8).map(|i| DataValue::from(i as f64)).collect());
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_port_capacity(2))
        .run(&mut backend)
        .unwrap();
    // The barrier is a documented unbounded collection point: all 8
    // doubled items reach it despite the bounded upstream edge, and it
    // fires once over the whole stream.
    let out = r.sink("sink");
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].value.as_num(), Some(9.0), "mean of 2..=16");
    assert_eq!(r.sink_count("sink"), 1);
}

#[test]
fn quarantine_under_bounded_ports_frees_the_port_slot() {
    let filter = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        match inputs[0].value.as_str() {
            Some("poison") => Err("poisoned input".into()),
            _ => Ok(vec![("out".into(), inputs[0].value.clone())]),
        }
    };
    let forward = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![("out".into(), inputs[0].value.clone())])
    };
    let mut wf = Workflow::new("poisoned");
    let src = wf.add_source("s");
    let f = wf.add_service("filter", &["in"], &["out"], ServiceBinding::local(filter));
    let n = wf.add_service("next", &["in"], &["out"], ServiceBinding::local(forward));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", f, "in").unwrap();
    wf.connect(f, "out", n, "in").unwrap();
    wf.connect(n, "out", sink, "in").unwrap();
    let values: Vec<DataValue> = (0..9)
        .map(|i| {
            if i == 4 {
                "poison".into()
            } else {
                format!("v{i}").into()
            }
        })
        .collect();
    let inputs = InputData::new().set("s", values);
    let ft = FtConfig::from_legacy(0).with_continue_on_error(true);
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_port_capacity(2))
        .ft(&ft)
        .run(&mut backend)
        .expect("quarantine must release the port slot, not wedge the stream");
    assert_eq!(r.quarantined.len(), 1);
    assert_eq!(r.quarantined[0].processor, "filter");
    assert_eq!(
        r.sink_count("sink"),
        8,
        "everything but the poisoned item flowed through the bounded port"
    );
}

#[test]
fn unbounded_cold_path_emits_no_port_events_and_stays_byte_stable() {
    let wf = chain();
    let inputs = nums(16);
    let trace = |_: ()| -> Vec<String> {
        let (obs, buffer) = capture();
        let mut backend = VirtualBackend::new();
        // Default configuration: port_capacity is unbounded.
        Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
            .obs(obs)
            .run(&mut backend)
            .unwrap();
        buffer.snapshot().iter().map(TraceEvent::to_json).collect()
    };
    let first = trace(());
    let second = trace(());
    assert_eq!(first, second, "eager traces are run-to-run byte-identical");
    assert!(
        !first
            .iter()
            .any(|l| l.contains("port_suspended") || l.contains("port_resumed")),
        "unbounded ports must never surface streaming events"
    );
}
