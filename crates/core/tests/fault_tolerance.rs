//! Fault-tolerant enactment end to end: retry policies (fixed /
//! backoff), timeout-triggered resubmission and speculative
//! replication (first completion wins), CE blacklisting, graceful
//! degradation under `--continue-on-error`, and the abort path's
//! obligation to cancel — not abandon — in-flight invocations.

use moteur::prelude::*;
use moteur::{EventBuffer, QuarantineEntry, RecordBuffer, RecordSink, RingBufferSink};
use moteur_gridsim::{GridConfig, SimEvent};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

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

fn file_inputs(n: usize, prefix: &str) -> Vec<DataValue> {
    (0..n)
        .map(|j| DataValue::File {
            gfn: format!("gfn://{prefix}/{j}"),
            bytes: 1000,
        })
        .collect()
}

fn capture() -> (Obs, EventBuffer) {
    let (sink, buffer) = RingBufferSink::new(100_000);
    (Obs::new(vec![Box::new(sink)]), buffer)
}

/// An `Obs` whose one sink keeps the invocation records.
fn recorded() -> (Obs, RecordBuffer) {
    let (sink, records) = RecordSink::new();
    (Obs::new(vec![Box::new(sink)]), records)
}

/// src → filter → next → sink, where `filter` rejects the value
/// "poison" and forwards everything else.
fn poisoned_workflow() -> (Workflow, InputData) {
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
    let inputs = InputData::new().set(
        "s",
        vec!["a".into(), "poison".into(), "b".into(), "c".into()],
    );
    (wf, inputs)
}

// ---------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------

#[test]
fn continue_on_error_quarantines_the_item_and_keeps_the_rest_flowing() {
    let (wf, inputs) = poisoned_workflow();
    let ft = FtConfig::from_legacy(0).with_continue_on_error(true);
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .run(&mut backend)
        .expect("degrades instead of aborting");
    assert!(!r.ok());
    assert_eq!(r.sink("sink").len(), 3, "a, b, c made it through");
    assert_eq!(r.quarantined.len(), 1);
    let q: &QuarantineEntry = &r.quarantined[0];
    assert_eq!(q.processor, "filter");
    assert!(q.error.contains("poisoned input"), "{}", q.error);
    assert_eq!(
        q.descendants,
        vec!["next".to_string(), "sink".to_string()],
        "history-tree descendants that lost the item"
    );
    let report = r.report();
    assert!(!report.ok());
    let json = report.to_json();
    assert!(json.contains("\"quarantined\":1"), "{json}");
    assert!(json.contains("\"processor\":\"filter\""), "{json}");
}

#[test]
fn without_continue_on_error_the_same_failure_aborts() {
    let (wf, inputs) = poisoned_workflow();
    let ft = FtConfig::from_legacy(0);
    let mut backend = VirtualBackend::new();
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .run(&mut backend)
        .unwrap_err();
    assert!(err.to_string().contains("poisoned input"), "{err}");
}

// ---------------------------------------------------------------------
// Retry policies
// ---------------------------------------------------------------------

#[test]
fn local_failures_respect_the_retry_policy() {
    // Historically only grid jobs were resubmitted; a local failure
    // aborted immediately regardless of the retry budget.
    let calls = Arc::new(AtomicU32::new(0));
    let calls_in = calls.clone();
    let flaky = move |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
            Err("transient".into())
        } else {
            Ok(vec![("out".into(), inputs[0].value.clone())])
        }
    };
    let mut wf = Workflow::new("flaky-local");
    let src = wf.add_source("s");
    let p = wf.add_service("flaky", &["in"], &["out"], ServiceBinding::local(flaky));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", vec![1.0.into()]);
    let ft = FtConfig::from_legacy(2);
    let mut backend = VirtualBackend::new();
    let (obs, records) = recorded();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .expect("third attempt succeeds");
    assert_eq!(calls.load(Ordering::SeqCst), 3, "initial + 2 retries");
    assert_eq!(r.sink("sink").len(), 1);
    assert_eq!(records.snapshot()[0].retries, 2);
}

#[test]
fn exponential_backoff_spaces_resubmissions_in_virtual_time() {
    let calls = Arc::new(AtomicU32::new(0));
    let calls_in = calls.clone();
    let flaky = move |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
            Err("transient".into())
        } else {
            Ok(vec![("out".into(), inputs[0].value.clone())])
        }
    };
    let mut wf = Workflow::new("backoff");
    let src = wf.add_source("s");
    let p = wf.add_service("flaky", &["in"], &["out"], ServiceBinding::local(flaky));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", vec![1.0.into()]);
    let ft = FtConfig::from_legacy(0).with_default(FtPolicy {
        retry: RetryPolicy::ExponentialBackoff {
            max_retries: 3,
            base_delay: 10.0,
            factor: 2.0,
            max_delay: 60.0,
        },
        timeout: TimeoutPolicy::None,
        on_timeout: TimeoutAction::Resubmit,
    });
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .run(&mut backend)
        .expect("third attempt succeeds");
    // Local calls cost no virtual time, so the makespan is exactly the
    // two backoff waits: 10 s + 20 s.
    let makespan = r.makespan.as_secs_f64();
    assert!(
        (makespan - 30.0).abs() < 1e-6,
        "makespan {makespan} != 10 + 20"
    );
}

#[test]
fn enactor_retries_compose_with_grid_middleware_retries() {
    // With failure probability 1 every submission chain fails: the grid
    // burns its own `max_retries` (G) per submission, then the enactor
    // resubmits E times. Total: E+1 job records of G+1 attempts each —
    // composition, not multiplication.
    let mut cfg = GridConfig::ideal();
    cfg.failure_probability = 1.0;
    cfg.max_retries = 1; // G
    let mut wf = Workflow::new("compose");
    let src = wf.add_source("s");
    let p = wf.add_service(
        "job",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("job", &["in"], &["out"]),
            ServiceProfile::new(10.0),
        ),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", file_inputs(1, "in"));
    let ft = FtConfig::from_legacy(2); // E
    let (obs, events) = capture();
    let mut backend = SimBackend::with_obs(cfg, 7, &obs);
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .run(&mut backend)
        .unwrap_err();
    assert!(err.to_string().contains("failed"), "{err}");
    // Per simulator job: the attempt number of its last enqueue, and
    // whether it was delivered.
    let mut jobs = std::collections::BTreeMap::<u64, (u32, bool)>::new();
    for event in events.snapshot() {
        match event {
            TraceEvent::Grid(SimEvent::JobEnqueued { job, attempt, .. }) => {
                jobs.entry(job.0).or_default().0 = attempt;
            }
            TraceEvent::Grid(SimEvent::JobDelivered { job, .. }) => {
                jobs.entry(job.0).or_default().1 = true;
            }
            _ => {}
        }
    }
    assert_eq!(jobs.len(), 3, "E+1 enactor submissions");
    for (attempts, delivered) in jobs.into_values() {
        assert!(delivered, "every chain reaches the submitter");
        assert_eq!(attempts, 2, "each chain burns G+1 grid attempts");
    }
}

// ---------------------------------------------------------------------
// Timeouts and speculative replication
// ---------------------------------------------------------------------

/// One descriptor-bound processor whose compute time is `long` for
/// index 0 and `short` for the rest.
fn outlier_workflow(n: usize, short: f64, long: f64) -> (Workflow, InputData) {
    let mut wf = Workflow::new("outlier");
    let src = wf.add_source("s");
    let cost = CostModel::by_index(move |idx| if idx.0[0] == 0 { long } else { short });
    let p = wf.add_service(
        "job",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("job", &["in"], &["out"]),
            ServiceProfile::new(0.0).with_cost(cost),
        ),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", file_inputs(n, "in"));
    (wf, inputs)
}

#[test]
fn replication_races_a_slow_job_and_first_completion_wins() {
    let (wf, inputs) = outlier_workflow(1, 100.0, 100.0);
    let ft = FtConfig::from_legacy(0).with_default(FtPolicy {
        retry: RetryPolicy::Fixed { max_retries: 0 },
        timeout: TimeoutPolicy::Fixed { seconds: 30.0 },
        on_timeout: TimeoutAction::Replicate { max_replicas: 1 },
    });
    let (obs, buffer) = capture();
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .expect("the original attempt wins the race");
    assert!(r.ok());
    assert_eq!(r.sink("sink").len(), 1);
    // Original runs 0→100; the replica starts at the 30 s timeout and
    // would finish at 130, so the original wins at t=100.
    assert!(
        (r.makespan.as_secs_f64() - 100.0).abs() < 1e-6,
        "makespan {}",
        r.makespan.as_secs_f64()
    );
    let events = buffer.snapshot();
    let kinds: Vec<&str> = events.iter().map(moteur::TraceEvent::kind).collect();
    assert!(kinds.contains(&"job_timed_out"), "{kinds:?}");
    assert!(kinds.contains(&"job_replicated"), "{kinds:?}");
    assert!(
        kinds.contains(&"job_cancelled"),
        "the losing replica is cancelled: {kinds:?}"
    );
    assert_eq!(r.jobs_submitted, 1, "replicas are not counted as jobs");
}

/// Regression for the critical-path analyzer under PR 5's
/// fault-tolerance events: a replication race leaves only the winning
/// attempt's timing in the invocation records, so the losing replica
/// (which would have finished *after* the makespan) must never extend
/// the reconstructed critical path.
#[test]
fn critical_path_ignores_cancelled_and_replicated_attempts() {
    let (wf, inputs) = outlier_workflow(3, 20.0, 100.0);
    let ft = FtConfig::from_legacy(0).with_default(FtPolicy {
        retry: RetryPolicy::Fixed { max_retries: 0 },
        timeout: TimeoutPolicy::Fixed { seconds: 30.0 },
        on_timeout: TimeoutAction::Replicate { max_replicas: 1 },
    });
    let (sink, buffer) = RingBufferSink::new(100_000);
    let (records_sink, records) = RecordSink::new();
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(Obs::new(vec![Box::new(sink), Box::new(records_sink)]))
        .run(&mut backend)
        .expect("the original attempt wins the race");
    let records = records.snapshot();
    // Item 0 runs 0→100 and times out at 30; its replica (30→130)
    // loses and is cancelled when the original completes at t=100.
    let events = buffer.snapshot();
    let kinds: Vec<&str> = events.iter().map(moteur::TraceEvent::kind).collect();
    assert!(kinds.contains(&"job_replicated"), "{kinds:?}");
    assert!(kinds.contains(&"job_cancelled"), "{kinds:?}");

    let makespan = r.makespan.as_secs_f64();
    assert!((makespan - 100.0).abs() < 1e-6, "makespan {makespan}");
    let cp = moteur::critical_path(&records, r.makespan);
    // The cancelled replica's would-be completion (t=130) must not
    // surface anywhere in the chain: no step outlives the makespan and
    // the chain ends exactly at the winning attempt's completion.
    for step in &cp.steps {
        assert!(
            step.finished.as_secs_f64() <= makespan + 1e-9,
            "step {step:?} outlives the {makespan} s makespan"
        );
    }
    let last = cp.steps.last().expect("non-empty chain");
    assert!(
        (last.finished.as_secs_f64() - makespan).abs() < 1e-6,
        "chain must end at the winner's completion, got {last:?}"
    );
    // One record per logical invocation: the replica never becomes a
    // second record for (processor, index).
    let mut seen = std::collections::BTreeSet::new();
    for rec in &records {
        assert!(
            seen.insert((rec.processor.clone(), format!("{:?}", rec.index))),
            "duplicate record for {} {:?}",
            rec.processor,
            rec.index
        );
    }
}

#[test]
fn timeout_resubmission_exhausts_the_retry_budget_then_fails() {
    let (wf, inputs) = outlier_workflow(1, 100.0, 100.0);
    let ft = FtConfig::from_legacy(0).with_default(FtPolicy {
        retry: RetryPolicy::Fixed { max_retries: 1 },
        timeout: TimeoutPolicy::Fixed { seconds: 10.0 },
        on_timeout: TimeoutAction::Resubmit,
    });
    let (obs, buffer) = capture();
    let mut backend = VirtualBackend::new();
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .unwrap_err();
    assert!(err.to_string().contains("timed out"), "{err}");
    let events = buffer.snapshot();
    let timeouts = events
        .iter()
        .filter(|e| e.kind() == "job_timed_out")
        .count();
    assert_eq!(timeouts, 2, "one resubmission, one terminal timeout");
    // The workflow aborted at t=20, not after the 100 s job.
    assert!(
        (backend.now().as_secs_f64() - 20.0).abs() < 1e-6,
        "clock {}",
        backend.now().as_secs_f64()
    );
}

#[test]
fn adaptive_timeout_learns_from_completions_and_catches_the_outlier() {
    // 7 fast 10 s jobs plus one 1000 s outlier. The adaptive policy has
    // no fallback budget (warm-up is uncapped); once the fast wave
    // completes, 3 × median ≈ 30 s retroactively declares the outlier
    // late, and a replica... would not help on the deterministic
    // VirtualBackend — resubmission cannot either, but the budget-1
    // resubmit path plus continue_on_error quarantines it instead of
    // hanging for 1000 s.
    let (wf, inputs) = outlier_workflow(8, 10.0, 1000.0);
    let ft = FtConfig::from_legacy(0)
        .with_default(FtPolicy {
            retry: RetryPolicy::Fixed { max_retries: 0 },
            timeout: TimeoutPolicy::Adaptive {
                percentile: 0.5,
                multiplier: 3.0,
                min_samples: 4,
                fallback: f64::INFINITY,
            },
            on_timeout: TimeoutAction::Resubmit,
        })
        .with_continue_on_error(true);
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .run(&mut backend)
        .expect("degrades gracefully");
    assert_eq!(r.sink("sink").len(), 7, "the fast jobs all delivered");
    assert_eq!(r.quarantined.len(), 1, "the outlier was quarantined");
    assert!(
        r.makespan.as_secs_f64() < 100.0,
        "the run must not wait out the 1000 s outlier: {}",
        r.makespan.as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// CE blacklisting
// ---------------------------------------------------------------------

#[test]
fn repeated_failures_blacklist_the_computing_element() {
    let mut cfg = GridConfig::ideal();
    cfg.failure_probability = 1.0;
    cfg.max_retries = 0;
    let mut wf = Workflow::new("blacklist");
    let src = wf.add_source("s");
    let p = wf.add_service(
        "job",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("job", &["in"], &["out"]),
            ServiceProfile::new(5.0),
        ),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", file_inputs(1, "in"));
    let ft = FtConfig::from_legacy(6)
        .with_ce_blacklist(2)
        .with_continue_on_error(true);
    let (obs, buffer) = capture();
    let mut backend = SimBackend::new(cfg, 3);
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .expect("degrades gracefully");
    assert!(!r.ok(), "with p=1 the item is eventually quarantined");
    let events = buffer.snapshot();
    assert!(
        events.iter().any(|e| e.kind() == "ce_blacklisted"),
        "two consecutive failures on one CE must blacklist it"
    );
}

// ---------------------------------------------------------------------
// Abort path
// ---------------------------------------------------------------------

#[test]
fn abort_cancels_pending_invocations_instead_of_abandoning_them() {
    let bad = |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> { Err("broken".into()) };
    let mut wf = Workflow::new("abort");
    let src = wf.add_source("s");
    let slow = wf.add_service(
        "slow",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(
            descriptor("slow", &["in"], &["out"]),
            ServiceProfile::new(500.0),
        ),
    );
    let b = wf.add_service("bad", &["in"], &["out"], ServiceBinding::local(bad));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", slow, "in").unwrap();
    wf.connect(src, "out", b, "in").unwrap();
    wf.connect(slow, "out", sink, "in").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", file_inputs(1, "in"));
    let ft = FtConfig::from_legacy(0);
    let (obs, buffer) = capture();
    let mut backend = VirtualBackend::new();
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .unwrap_err();
    assert!(err.to_string().contains("broken"), "{err}");
    let events = buffer.snapshot();
    // Every submitted invocation must reach exactly one terminal event
    // even on abort: `bad` fails, `slow` is cancelled — none abandoned.
    let submitted: Vec<u64> = events
        .iter()
        .filter(|e| e.kind() == "job_submitted")
        .filter_map(moteur::TraceEvent::invocation)
        .collect();
    assert_eq!(submitted.len(), 2);
    for inv in submitted {
        let terminals = events
            .iter()
            .filter(|e| e.invocation() == Some(inv) && e.is_terminal())
            .count();
        assert_eq!(terminals, 1, "invocation {inv} left without a terminal");
    }
    assert!(
        events.iter().any(|e| e.kind() == "job_cancelled"),
        "the in-flight `slow` job must be explicitly cancelled"
    );
}

// ---------------------------------------------------------------------
// Quarantine vs the data manager
// ---------------------------------------------------------------------

#[test]
fn quarantined_invocations_are_never_memoized() {
    let (wf, inputs) = outlier_workflow(4, 10.0, 1000.0);
    let ft = FtConfig::from_legacy(0)
        .with_default(FtPolicy {
            retry: RetryPolicy::Fixed { max_retries: 0 },
            timeout: TimeoutPolicy::Fixed { seconds: 50.0 },
            on_timeout: TimeoutAction::Resubmit,
        })
        .with_continue_on_error(true);
    let mut store = DataStore::in_memory(StoreConfig::default());
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .store(Some(&mut store))
        .run(&mut backend)
        .expect("degrades gracefully");
    assert_eq!(r.quarantined.len(), 1);
    assert_eq!(
        store.stats().invocations,
        3,
        "only the completed invocations are memoized"
    );
    // A warm re-run replays the three completed items from the store
    // and re-attempts (and re-quarantines) the poisoned one.
    let (obs, buffer) = capture();
    let mut backend2 = VirtualBackend::new();
    let r2 = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .store(Some(&mut store))
        .run(&mut backend2)
        .expect("still degrades gracefully");
    assert_eq!(r2.quarantined.len(), 1, "the poison is not cached away");
    let hits = buffer
        .snapshot()
        .iter()
        .filter(|e| e.kind() == "cache_hit")
        .count();
    assert_eq!(hits, 3, "completed items replay; the quarantined never");
}

// ---------------------------------------------------------------------
// Local backend: late completions of timed-out attempts
// ---------------------------------------------------------------------

#[test]
fn local_backend_discards_late_completion_after_timeout_resubmit() {
    // LocalBackend::cancel is always `false` — a spawned worker thread
    // cannot be stopped, so a timed-out attempt's completion WILL
    // arrive after its resubmission already won. The enactor must
    // discard it, not double-record the invocation or die on an
    // unknown tag.
    let calls = Arc::new(AtomicU32::new(0));
    let seen = calls.clone();
    let slow_once = move |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        if seen.fetch_add(1, Ordering::SeqCst) == 0 {
            // First attempt outlives its 80ms timeout by a wide margin
            // and lands while the tail service still holds the run
            // loop open.
            std::thread::sleep(std::time::Duration::from_millis(400));
        } else {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Ok(vec![("out".into(), inputs[0].value.clone())])
    };
    let tail = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        // Long enough that the workflow is still running when the
        // first attempt's late completion surfaces at ~400ms.
        std::thread::sleep(std::time::Duration::from_millis(600));
        Ok(vec![("out".into(), inputs[0].value.clone())])
    };
    let mut wf = Workflow::new("late");
    let src = wf.add_source("s");
    let p = wf.add_service("slow", &["in"], &["out"], ServiceBinding::local(slow_once));
    let t = wf.add_service("tail", &["in"], &["out"], ServiceBinding::local(tail));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", t, "in").unwrap();
    wf.connect(t, "out", sink, "in").unwrap();
    let inputs = InputData::new().set("s", vec![DataValue::from(7.0)]);
    // Only `slow` times out; generous retries absorb scheduler noise.
    let ft = FtConfig::from_legacy(0).with_policy(
        "slow",
        FtPolicy {
            retry: RetryPolicy::Fixed { max_retries: 5 },
            timeout: TimeoutPolicy::Fixed { seconds: 0.08 },
            on_timeout: TimeoutAction::Resubmit,
        },
    );
    let mut backend = LocalBackend::new();
    let (obs, records) = recorded();
    let r = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .ft(&ft)
        .obs(obs)
        .run(&mut backend)
        .expect("late completion is discarded, not fatal");
    assert_eq!(r.sink("sink").len(), 1, "exactly one result delivered");
    let records = records.snapshot();
    let slow: Vec<_> = records.iter().filter(|i| i.processor == "slow").collect();
    assert_eq!(
        slow.len(),
        1,
        "the invocation is recorded once, not once per attempt"
    );
    let slow_rec = slow[0];
    assert!(slow_rec.retries >= 1, "the timeout consumed a retry");
    assert!(
        calls.load(Ordering::SeqCst) >= 2,
        "both the original and the resubmitted attempt really ran"
    );
}
