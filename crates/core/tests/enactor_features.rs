//! Functional tests of the enactor's service-based features: iteration
//! strategies end-to-end, synchronization barriers (§2.3), optimization
//! loops (Fig. 2), provenance-based pairing under out-of-order
//! completion (§3.3/§4.1), coordination constraints, job grouping
//! equivalence (§3.6) and failure recovery.

use moteur::prelude::*;
use moteur::{HistoryNode, InvocationRecord, RecordBuffer, RecordSink};
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

/// An `Obs` whose one sink keeps the invocation records.
fn recorded() -> (Obs, RecordBuffer) {
    let (sink, records) = RecordSink::new();
    (Obs::new(vec![Box::new(sink)]), records)
}

/// The records of `processor`.
fn of<'a>(records: &'a [InvocationRecord], processor: &str) -> Vec<&'a InvocationRecord> {
    records
        .iter()
        .filter(|r| r.processor == processor)
        .collect()
}

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

fn file_inputs(n: usize, prefix: &str) -> Vec<DataValue> {
    (0..n)
        .map(|j| DataValue::File {
            gfn: format!("gfn://{prefix}/{j}"),
            bytes: 1000,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Iteration strategies end to end
// ---------------------------------------------------------------------

#[test]
fn dot_product_workflow_produces_min_n_m_results() {
    let mut wf = Workflow::new("dot");
    let a = wf.add_source("A");
    let b = wf.add_source("B");
    let svc = wf.add_service(
        "pair",
        &["x", "y"],
        &["out"],
        dsvc("pair", &["x", "y"], &["out"], 1.0),
    );
    let sink = wf.add_sink("sink");
    wf.connect(a, "out", svc, "x").unwrap();
    wf.connect(b, "out", svc, "y").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();

    let inputs = InputData::new()
        .set("A", file_inputs(5, "a"))
        .set("B", file_inputs(3, "b"));
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), 3, "dot: min(5, 3)");
    assert_eq!(r.jobs_submitted, 3);
}

#[test]
fn cross_product_workflow_produces_n_times_m_results() {
    let mut wf = Workflow::new("cross");
    let a = wf.add_source("A");
    let b = wf.add_source("B");
    let svc = wf.add_service(
        "combine",
        &["x", "y"],
        &["out"],
        dsvc("combine", &["x", "y"], &["out"], 1.0),
    );
    wf.set_iteration(svc, IterationStrategy::Cross);
    let sink = wf.add_sink("sink");
    wf.connect(a, "out", svc, "x").unwrap();
    wf.connect(b, "out", svc, "y").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();

    let inputs = InputData::new()
        .set("A", file_inputs(4, "a"))
        .set("B", file_inputs(3, "b"));
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), 12, "cross: 4 × 3");
    // All index pairs distinct and two-dimensional.
    let mut seen = std::collections::BTreeSet::new();
    for t in r.sink("sink") {
        assert_eq!(t.index.depth(), 2);
        assert!(seen.insert(t.index.clone()));
    }
}

// ---------------------------------------------------------------------
// Provenance under out-of-order completion (the causality problem)
// ---------------------------------------------------------------------

#[test]
fn dot_pairing_is_correct_when_branches_complete_out_of_order() {
    // Branch A is slow for early indices, branch B slow for late ones,
    // so with DP the two streams complete in opposite orders. The dot
    // join must still pair A_j with B_j.
    let mut wf = Workflow::new("causality");
    let src = wf.add_source("imgs");
    let nd = 6u32;
    let slow_early = CostModel::by_index(move |idx| (nd - idx.0[0]) as f64 * 5.0);
    let slow_late = CostModel::by_index(|idx| (idx.0[0] + 1) as f64 * 5.0);
    let a = wf.add_service(
        "A",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("A", &["in"], &["out"]),
            ServiceProfile::new(0.0).with_cost(slow_early),
        ),
    );
    let b = wf.add_service(
        "B",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("B", &["in"], &["out"]),
            ServiceProfile::new(0.0).with_cost(slow_late),
        ),
    );
    let join = wf.add_service(
        "join",
        &["x", "y"],
        &["out"],
        dsvc("join", &["x", "y"], &["out"], 1.0),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(src, "out", b, "in").unwrap();
    wf.connect(a, "out", join, "x").unwrap();
    wf.connect(b, "out", join, "y").unwrap();
    wf.connect(join, "out", sink, "in").unwrap();

    let inputs = InputData::new().set("imgs", file_inputs(nd as usize, "img"));
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), nd as usize);
    for t in r.sink("sink") {
        // The history tree must show both inputs deriving from the
        // *same* source position (correct dot pairing).
        let sources = t.history.sources();
        assert_eq!(sources.len(), 2, "join of A and B branches");
        assert_eq!(
            sources[0].1, sources[1].1,
            "A_j paired with B_j: {sources:?}"
        );
        assert!(involves(&t.history, "A") && involves(&t.history, "B"));
        assert!(involves(&t.history, "join"));
    }
}

// ---------------------------------------------------------------------
// Fan-out: copies to every target but the last, shared handles
// ---------------------------------------------------------------------

/// Does any node of `history` record an invocation of `processor`?
fn involves(history: &History, processor: &str) -> bool {
    let mut next = vec![history];
    while let Some(h) = next.pop() {
        if let HistoryNode::Derived {
            processor: p,
            inputs,
        } = h.node()
        {
            if **p == *processor {
                return true;
            }
            next.extend(inputs.iter().map(|i| &**i));
        }
    }
    false
}

/// The derived node's processor name and inputs.
fn derived(h: &History) -> (&std::sync::Arc<str>, &[std::sync::Arc<History>]) {
    match h.node() {
        HistoryNode::Derived { processor, inputs } => (processor, inputs),
        other => panic!("expected a derived node, got {other:?}"),
    }
}

#[test]
fn a_fanned_out_token_reaches_every_consumer_and_shares_its_history() {
    // items → {left, right, raw}: two local services and a sink on one
    // output port. The sink is the last target, the one the token is
    // moved into.
    let left = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("not a number")?;
        Ok(vec![("out".into(), DataValue::from(x * 2.0))])
    };
    let right = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("not a number")?;
        Ok(vec![("out".into(), DataValue::from(x + 1.0))])
    };
    let mut wf = Workflow::new("fanout");
    let src = wf.add_source("items");
    let l = wf.add_service("left", &["in"], &["out"], ServiceBinding::local(left));
    let r = wf.add_service("right", &["in"], &["out"], ServiceBinding::local(right));
    let raw = wf.add_sink("raw");
    let left_out = wf.add_sink("left_out");
    let right_out = wf.add_sink("right_out");
    wf.connect(src, "out", l, "in").unwrap();
    wf.connect(src, "out", r, "in").unwrap();
    wf.connect(src, "out", raw, "in").unwrap();
    wf.connect(l, "out", left_out, "in").unwrap();
    wf.connect(r, "out", right_out, "in").unwrap();

    const N: usize = 40;
    let inputs = InputData::new().set("items", (0..N).map(|i| DataValue::from(i as f64)).collect());
    for config in [
        EnactorConfig::sp_dp().with_port_capacity(4),
        EnactorConfig::sp_dp(),
    ] {
        let result = Enactment::new(&wf, &inputs, config)
            .run(&mut VirtualBackend::new())
            .unwrap();
        for sink in ["raw", "left_out", "right_out"] {
            assert_eq!(result.sink_count(sink), N, "{sink} at {config:?}");
        }
        let position = |t: &Token| t.index.0[0] as f64;
        let value = |t: &Token| t.value.as_num().unwrap();
        assert!(result.sink("raw").iter().all(|t| value(t) == position(t)));
        let lefts = result.sink("left_out");
        assert!(lefts.iter().all(|t| value(t) == 2.0 * position(t)));
        assert!(result
            .sink("right_out")
            .iter()
            .all(|t| value(t) == position(t) + 1.0));

        // Both branches and the raw sink hold the one source leaf.
        let mut shared = 0;
        for l in lefts {
            let Some(r) = result.sink("right_out").iter().find(|r| r.index == l.index) else {
                continue;
            };
            let (_, l_inputs) = derived(&l.history);
            let (_, r_inputs) = derived(&r.history);
            assert!(std::sync::Arc::ptr_eq(&l_inputs[0], &r_inputs[0]));
            if let Some(t) = result.sink("raw").iter().find(|t| t.index == l.index) {
                assert!(std::sync::Arc::ptr_eq(&l_inputs[0], &t.history));
            }
            shared += 1;
        }
        assert!(shared > 0, "no index retained by both branch sinks");

        // Two derived nodes of one processor share its interned name.
        let (first, _) = derived(&lefts[0].history);
        let (second, _) = derived(&lefts[1].history);
        assert_eq!(&**first, "left");
        assert!(std::sync::Arc::ptr_eq(first, second));
    }
}

// ---------------------------------------------------------------------
// Synchronization barriers
// ---------------------------------------------------------------------

#[test]
fn synchronization_processor_fires_once_with_whole_streams() {
    // source → double → mean(sync) → sink, with local services.
    let double = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![(
            "out".into(),
            DataValue::from(inputs[0].value.as_num().unwrap() * 2.0),
        )])
    };
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

    let inputs = InputData::new().set("nums", vec![1.0.into(), 2.0.into(), 3.0.into(), 4.0.into()]);
    let mut backend = VirtualBackend::new();
    let (obs, records) = recorded();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    let out = r.sink("sink");
    assert_eq!(out.len(), 1, "a barrier produces a single result");
    assert_eq!(out[0].value.as_num(), Some(5.0), "mean of 2,4,6,8");
    let records = records.snapshot();
    assert_eq!(of(&records, "mean").len(), 1);
    // The barrier started only after every `double` finished.
    let last_double = of(&records, "double")
        .iter()
        .map(|i| i.finished)
        .max()
        .unwrap();
    assert!(of(&records, "mean")[0].submitted >= last_double);
}

#[test]
fn descriptor_bound_barrier_runs_on_grid_backend() {
    // The Bronze-Standard MultiTransfoTest pattern: grid services then a
    // grid barrier consuming all results.
    let mut wf = Workflow::new("gridsync");
    let src = wf.add_source("imgs");
    let reg = wf.add_service(
        "register",
        &["in"],
        &["trf"],
        dsvc("register", &["in"], &["trf"], 30.0),
    );
    let test = wf.add_service(
        "test",
        &["trfs"],
        &["report"],
        dsvc("test", &["trfs"], &["report"], 10.0),
    );
    wf.set_synchronization(test, true);
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", reg, "in").unwrap();
    wf.connect(reg, "trf", test, "trfs").unwrap();
    wf.connect(test, "report", sink, "in").unwrap();

    let inputs = InputData::new().set("imgs", file_inputs(5, "img"));
    let mut backend = SimBackend::new(GridConfig::ideal(), 1);
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), 1);
    assert_eq!(r.jobs_submitted, 6, "5 registrations + 1 barrier job");
    // Ideal grid: barrier starts at 30s (after all registers), ends 40s.
    assert!(
        (r.makespan.as_secs_f64() - 40.0).abs() < 1e-6,
        "{:?}",
        r.makespan
    );
}

// ---------------------------------------------------------------------
// Optimization loops (Fig. 2)
// ---------------------------------------------------------------------

#[test]
fn fig2_loop_iterates_until_runtime_convergence() {
    // P1 initialises a counter; P2 increments; P3 routes to `again`
    // until the counter reaches a threshold that depends on the datum.
    let init = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![(
            "out".into(),
            DataValue::from(inputs[0].value.as_num().unwrap()),
        )])
    };
    let incr = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![(
            "out".into(),
            DataValue::from(inputs[0].value.as_num().unwrap() + 1.0),
        )])
    };
    let check = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let v = inputs[0].value.as_num().unwrap();
        if v >= 5.0 {
            Ok(vec![("done".into(), DataValue::from(v))])
        } else {
            Ok(vec![("again".into(), DataValue::from(v))])
        }
    };
    let mut wf = Workflow::new("fig2");
    let src = wf.add_source("source");
    let p1 = wf.add_service("P1", &["in"], &["out"], ServiceBinding::local(init));
    let p2 = wf.add_service("P2", &["in"], &["out"], ServiceBinding::local(incr));
    let p3 = wf.add_service(
        "P3",
        &["in"],
        &["again", "done"],
        ServiceBinding::local(check),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p1, "in").unwrap();
    wf.connect(p1, "out", p2, "in").unwrap();
    wf.connect(p2, "out", p3, "in").unwrap();
    wf.connect(p3, "again", p2, "in").unwrap();
    wf.connect(p3, "done", sink, "in").unwrap();
    assert!(wf.has_cycle(), "this is the Fig. 2 shape");

    // Data 0 starts at 0 (needs 5 iterations), data 1 at 3 (needs 2).
    let inputs = InputData::new().set("source", vec![0.0.into(), 3.0.into()]);
    let mut backend = VirtualBackend::new();
    let (obs, records) = recorded();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    let mut results: Vec<f64> = r
        .sink("sink")
        .iter()
        .map(|t| t.value.as_num().unwrap())
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(results, vec![5.0, 5.0], "both converge to the threshold");
    // Iteration counts decided at run time: 5 + 2 = 7 P2 invocations.
    let records = records.snapshot();
    assert_eq!(of(&records, "P2").len(), 7);
    assert_eq!(of(&records, "P3").len(), 7);
}

// ---------------------------------------------------------------------
// Coordination constraints
// ---------------------------------------------------------------------

#[test]
fn control_link_orders_independent_services() {
    let mut wf = Workflow::new("control");
    let src = wf.add_source("s");
    let a = wf.add_service("A", &["in"], &["out"], dsvc("A", &["in"], &["out"], 10.0));
    let b = wf.add_service("B", &["in"], &["out"], dsvc("B", &["in"], &["out"], 1.0));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(src, "out", b, "in").unwrap();
    wf.connect(a, "out", sink, "in").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();
    wf.add_control(a, b);

    let inputs = InputData::new().set("s", file_inputs(3, "d"));
    let mut backend = VirtualBackend::new();
    let (obs, records) = recorded();
    Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    let records = records.snapshot();
    let a_done = of(&records, "A").iter().map(|i| i.finished).max().unwrap();
    let b_start = of(&records, "B").iter().map(|i| i.submitted).min().unwrap();
    assert!(b_start >= a_done, "B must wait for A via the control link");
}

// ---------------------------------------------------------------------
// Job grouping
// ---------------------------------------------------------------------

/// Deterministic grid: constant overheads, one fat CE.
fn quiet_grid() -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 1000, 1.0)],
        submission_overhead: Distribution::Constant(60.0),
        match_delay: Distribution::Constant(60.0),
        notify_delay: Distribution::Constant(0.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 5.0,
            bandwidth: 1e6,
            congestion: 0.0,
        },
        typical_job_duration: 100.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

fn two_stage_workflow() -> Workflow {
    let mut wf = Workflow::new("jg");
    let src = wf.add_source("imgs");
    let a = wf.add_service(
        "crestLines",
        &["in"],
        &["crest"],
        dsvc("crestLines", &["in"], &["crest"], 90.0),
    );
    let b = wf.add_service(
        "crestMatch",
        &["crest"],
        &["trf"],
        dsvc("crestMatch", &["crest"], &["trf"], 30.0),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(a, "crest", b, "crest").unwrap();
    wf.connect(b, "trf", sink, "in").unwrap();
    wf
}

#[test]
fn grouping_halves_submissions_and_cuts_overhead() {
    let wf = two_stage_workflow();
    let inputs = InputData::new().set("imgs", file_inputs(4, "img"));

    let mut b1 = SimBackend::new(quiet_grid(), 7);
    let plain = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut b1)
        .unwrap();
    let mut b2 = SimBackend::new(quiet_grid(), 7);
    let grouped = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp_jg())
        .run(&mut b2)
        .unwrap();

    assert_eq!(plain.jobs_submitted, 8, "2 jobs × 4 data");
    assert_eq!(grouped.jobs_submitted, 4, "1 grouped job × 4 data");
    assert_eq!(plain.sink("sink").len(), grouped.sink("sink").len());
    assert!(
        grouped.makespan < plain.makespan,
        "grouping removes one 120 s overhead per datum: {} vs {}",
        grouped.makespan,
        plain.makespan
    );
    // With constant overheads the gain is exactly one submission chain
    // (120 s) plus the elided intermediate transfers.
    let gain = plain.makespan.as_secs_f64() - grouped.makespan.as_secs_f64();
    assert!(gain > 100.0, "gain {gain}");
}

#[test]
fn grouping_preserves_results_and_provenance_shape() {
    let wf = two_stage_workflow();
    let inputs = InputData::new().set("imgs", file_inputs(3, "img"));
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp_jg())
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), 3);
    for t in r.sink("sink") {
        // Each result is a file produced by the merged processor.
        let (gfn, _) = t.value.as_file().expect("file output");
        assert!(
            gfn.contains("crestMatch"),
            "exposed output of the last stage: {gfn}"
        );
        assert!(involves(&t.history, "crestLines+crestMatch"));
    }
}

// ---------------------------------------------------------------------
// Failures
// ---------------------------------------------------------------------

#[test]
fn enactor_resubmits_terminally_failed_grid_jobs() {
    let mut cfg = quiet_grid();
    cfg.failure_probability = 0.4;
    cfg.max_retries = 0; // the *grid* never retries; the enactor must
    let wf = two_stage_workflow();
    let inputs = InputData::new().set("imgs", file_inputs(6, "img"));
    let mut backend = SimBackend::new(cfg, 11);
    let (obs, records) = recorded();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(obs)
        .run(&mut backend)
        .unwrap();
    assert_eq!(r.sink("sink").len(), 6, "all results eventually delivered");
    let retried: u32 = records.snapshot().iter().map(|i| i.retries).sum();
    assert!(
        retried > 0,
        "with p=0.4 over 12 jobs some retries must happen"
    );
}

#[test]
fn local_service_errors_abort_the_workflow() {
    let bad = |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> { Err("broken".into()) };
    let mut wf = Workflow::new("bad");
    let src = wf.add_source("s");
    let p = wf.add_service("bad", &["in"], &["out"], ServiceBinding::local(bad));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", vec![1.0.into()]);
    let mut backend = VirtualBackend::new();
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap_err();
    assert!(err.to_string().contains("broken"), "{err}");
}

/// Enact `wf` without the preflight lint, keeping the JSONL stream.
fn enact_unchecked(
    wf: &Workflow,
    inputs: &InputData,
) -> (Result<WorkflowResult, MoteurError>, String) {
    let (sink, buffer) = moteur::RingBufferSink::new(1 << 16);
    let mut backend = VirtualBackend::new();
    let result = Enactment::new(wf, inputs, EnactorConfig::sp_dp().without_preflight())
        .obs(Obs::new(vec![Box::new(sink)]))
        .run(&mut backend);
    let stream = buffer
        .snapshot()
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    (result, stream)
}

/// A descriptor-bound processor that cannot bind what it is fed fails
/// the run when it first fires — after staging the ports up to the
/// faulty one, before any job is submitted — with the binding's message.
/// Over an empty stream nothing fires, so the same workflow succeeds.
#[test]
fn binding_faults_fail_the_run_at_the_first_firing() {
    // `extra` has no slot in the descriptor.
    let mut unknown_port = Workflow::new("faulty");
    let src = unknown_port.add_source("s");
    let p = unknown_port.add_service(
        "p",
        &["in", "extra"],
        &["out"],
        dsvc("p", &["in"], &["out"], 10.0),
    );
    let sink = unknown_port.add_sink("sink");
    unknown_port.connect(src, "out", p, "in").unwrap();
    unknown_port.connect(src, "out", p, "extra").unwrap();
    unknown_port.connect(p, "out", sink, "in").unwrap();
    // The file slot `in` is fed numbers.
    let mut non_file = Workflow::new("faulty");
    let src = non_file.add_source("s");
    let p = non_file.add_service("p", &["in"], &["out"], dsvc("p", &["in"], &["out"], 10.0));
    let sink = non_file.add_sink("sink");
    non_file.connect(src, "out", p, "in").unwrap();
    non_file.connect(p, "out", sink, "in").unwrap();

    for (wf, items, message, staged) in [
        (
            &unknown_port,
            file_inputs(3, "in"),
            "`p`: input port `extra` has no matching descriptor slot".to_string(),
            2,
        ),
        (
            &non_file,
            vec![1.0.into(), 2.0.into()],
            format!(
                "`p`: file slot `in` received a non-file value {:?}",
                DataValue::from(1.0)
            ),
            1,
        ),
    ] {
        let (result, stream) = enact_unchecked(wf, &InputData::new().set("s", items));
        assert_eq!(result.unwrap_err(), MoteurError::new(message));
        assert_eq!(
            stream.matches("\"edge_staged\"").count(),
            staged,
            "{stream}"
        );
        assert!(!stream.contains("\"job_submitted\""), "{stream}");

        let (result, stream) = enact_unchecked(wf, &InputData::new().set("s", vec![]));
        let result = result.expect("nothing fires over an empty source");
        assert_eq!(result.jobs_submitted, 0);
        assert!(!stream.contains("\"edge_staged\""), "{stream}");
    }
}

#[test]
fn missing_source_data_is_reported() {
    let wf = two_stage_workflow();
    let mut backend = VirtualBackend::new();
    let err = Enactment::new(&wf, &InputData::new(), EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap_err();
    assert!(
        err.to_string().contains("no input data for source"),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Local backend end to end
// ---------------------------------------------------------------------

#[test]
fn local_backend_runs_a_real_pipeline_on_threads() {
    let square = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("not a number")?;
        Ok(vec![("out".into(), DataValue::from(x * x))])
    };
    let negate = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("not a number")?;
        Ok(vec![("out".into(), DataValue::from(-x))])
    };
    let mut wf = Workflow::new("threads");
    let src = wf.add_source("nums");
    let s = wf.add_service("square", &["in"], &["out"], ServiceBinding::local(square));
    let n = wf.add_service("negate", &["in"], &["out"], ServiceBinding::local(negate));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", s, "in").unwrap();
    wf.connect(s, "out", n, "in").unwrap();
    wf.connect(n, "out", sink, "in").unwrap();

    let inputs = InputData::new().set("nums", (0..20).map(|i| DataValue::from(i as f64)).collect());
    let mut backend = LocalBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut backend)
        .unwrap();
    let mut got: Vec<f64> = r
        .sink("sink")
        .iter()
        .map(|t| t.value.as_num().unwrap())
        .collect();
    got.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut want: Vec<f64> = (0..20).map(|i| -((i * i) as f64)).collect();
    want.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(got, want);
}

/// A descriptor-bound processor has no place on the real-thread
/// backend: its first submission is refused with an error, not a
/// panic, and the run aborts — the local calls already running on
/// worker threads are cancelled and the error comes back from `run`.
#[test]
fn local_backend_refuses_a_descriptor_bound_processor_and_aborts() {
    let slow = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        std::thread::sleep(std::time::Duration::from_millis(200));
        Ok(vec![("out".into(), inputs[0].value.clone())])
    };
    let mut wf = Workflow::new("mixed");
    let src = wf.add_source("s");
    let l = wf.add_service("slow", &["in"], &["out"], ServiceBinding::local(slow));
    let g = wf.add_service(
        "grid",
        &["in"],
        &["out"],
        dsvc("grid", &["in"], &["out"], 10.0),
    );
    let (ls, gs) = (wf.add_sink("local_out"), wf.add_sink("grid_out"));
    wf.connect(src, "out", l, "in").unwrap();
    wf.connect(src, "out", g, "in").unwrap();
    wf.connect(l, "out", ls, "in").unwrap();
    wf.connect(g, "out", gs, "in").unwrap();
    let inputs = InputData::new().set("s", file_inputs(2, "in"));
    let (sink, buffer) = moteur::RingBufferSink::new(1 << 10);
    let mut backend = LocalBackend::new();
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(Obs::new(vec![Box::new(sink)]))
        .run(&mut backend)
        .unwrap_err();
    assert_eq!(
        err.message(),
        "LocalBackend cannot execute grid jobs; run `grid` on SimBackend"
    );
    let aborted: Vec<String> = buffer
        .snapshot()
        .iter()
        .map(TraceEvent::to_json)
        .filter(|e| e.contains("job_cancelled"))
        .collect();
    assert_eq!(
        aborted.len(),
        2,
        "both local calls were cancelled: {aborted:?}"
    );
    assert!(aborted
        .iter()
        .all(|e| e.contains("\"abort\"") && e.contains("\"slow\"")));
}
