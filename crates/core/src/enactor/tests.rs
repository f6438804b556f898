//! The deadline index against its oracle: the full scan over `pending`
//! that `next_wake` and `handle_timeouts` used to be, kept here as the
//! reference every step of a seeded random enactment is compared with.
//! And the `compat` shims against the [`Enactment`] each forwards to.

use super::attempts::PendingJob;
use super::*;
use crate::backend::{BackendCompletion, ServiceOutputs};
use crate::ft::{FtPolicy, RetryPolicy, TimeoutAction, TimeoutPolicy};
use crate::obs::sinks::RingBufferSink;
use crate::service::{ServiceBinding, ServiceProfile};
use crate::store::StoreConfig;
use moteur_gridsim::SimDuration;
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

impl WorkflowInstance {
    /// The live deadline of one pending invocation, as the scan saw it.
    fn scan_deadline(&self, p: &PendingJob) -> Option<SimTime> {
        if p.muted || p.attempts.is_empty() {
            return None;
        }
        self.timeout_secs_for(p.proc)
            .map(|s| p.window_start + SimDuration::from_secs_f64(s))
    }

    fn scan_next_wake(&self) -> Option<SimTime> {
        let timeouts = self.pending.values().filter_map(|p| self.scan_deadline(p));
        timeouts.chain(self.deferred.iter().map(|&(t, _)| t)).min()
    }

    fn scan_expired(&self, now: SimTime) -> Vec<u64> {
        let mut expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| self.scan_deadline(p).is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable();
        expired
    }

    /// The index holds exactly the armed invocations, under their
    /// current keys, and answers like the scan.
    fn assert_index_matches_scan(&self, now: SimTime, step: &str) {
        let mut indexed: Vec<(usize, SimTime, u64)> = Vec::new();
        for (p, armed) in self.armed.iter().enumerate() {
            indexed.extend(armed.iter().map(|&(opened, id)| (p, opened, id)));
        }
        let mut scanned: Vec<(usize, SimTime, u64)> = self
            .pending
            .iter()
            .filter_map(|(&id, p)| Some((p.proc.0, p.armed_since()?, id)))
            .collect();
        scanned.sort_unstable();
        assert_eq!(indexed, scanned, "index contents after {step}");
        assert_eq!(self.next_wake(), self.scan_next_wake(), "after {step}");
        assert_eq!(self.expired_at(now), self.scan_expired(now), "after {step}");
    }
}

/// What the test backend does with one submission: how long it runs
/// and whether it fails.
pub(crate) type Fate = Box<dyn FnMut(&str) -> (f64, bool)>;

/// A virtual-time backend whose job durations and failures are chosen
/// by the test; cancellation retracts the job.
pub(crate) struct FatedBackend {
    clock: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    results: HashMap<u64, Result<Option<ServiceOutputs>, String>>,
    fate: Fate,
}

impl FatedBackend {
    pub(crate) fn new(fate: Fate) -> Self {
        FatedBackend {
            clock: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            results: HashMap::new(),
            fate,
        }
    }

    /// Drop cancelled entries off the top of the heap.
    fn skip_cancelled(&mut self) {
        while let Some(&Reverse((_, _, tag))) = self.heap.peek() {
            if self.results.contains_key(&tag) {
                break;
            }
            self.heap.pop();
        }
    }
}

impl Backend for FatedBackend {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        let (secs, fails) = (self.fate)(&job.processor);
        let outputs = match job.payload {
            _ if fails => Err("injected failure".to_string()),
            JobPayload::Local { service, inputs } => service.invoke(&inputs).map(Some),
            _ => Ok(None),
        };
        self.results.insert(job.invocation.0, outputs);
        let end = self.clock + SimDuration::from_secs_f64(secs);
        self.heap.push(Reverse((end, self.seq, job.invocation.0)));
        self.seq += 1;
        Ok(())
    }

    fn wait_next(&mut self) -> Option<BackendCompletion> {
        self.skip_cancelled();
        let Reverse((at, _, tag)) = self.heap.pop()?;
        self.clock = self.clock.max(at);
        Some(BackendCompletion {
            invocation: InvocationId(tag),
            outputs: self.results.remove(&tag).expect("live entry"),
            started_at: at,
            finished_at: at,
            ce: None,
        })
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        self.skip_cancelled();
        match self.heap.peek() {
            Some(&Reverse((at, _, _))) if at <= deadline => {
                WaitOutcome::Completion(self.wait_next().expect("peeked"))
            }
            _ => {
                self.clock = self.clock.max(deadline);
                WaitOutcome::TimedOut
            }
        }
    }

    fn cancel(&mut self, invocation: InvocationId) -> bool {
        self.results.remove(&invocation.0).is_some()
    }

    fn now(&self) -> SimTime {
        self.clock
    }
}

fn forward(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    Ok(vec![("out".into(), inputs[0].value.clone())])
}

pub(crate) fn items(n: u64) -> InputData {
    InputData::new().set("s", (0..n).map(|i| DataValue::from(i as f64)).collect())
}

/// A random tree-shaped DAG: every service reads one earlier node
/// (the source or a service), and every leaf gets its own sink.
pub(crate) fn random_dag(rng: &mut Rng) -> Workflow {
    let mut wf = Workflow::new("random");
    let mut nodes = vec![wf.add_source("s")];
    let mut has_consumer = vec![false];
    for k in 0..2 + rng.index(4) {
        let from = rng.index(nodes.len());
        let p = wf.add_service(
            format!("p{k}"),
            &["in"],
            &["out"],
            ServiceBinding::local(forward),
        );
        wf.connect(nodes[from], "out", p, "in").unwrap();
        has_consumer[from] = true;
        nodes.push(p);
        has_consumer.push(false);
    }
    for (k, &leaf) in nodes.iter().enumerate().filter(|(k, _)| !has_consumer[*k]) {
        let sink = wf.add_sink(format!("sink{k}"));
        wf.connect(leaf, "out", sink, "in").unwrap();
    }
    wf
}

pub(crate) fn random_policy(rng: &mut Rng) -> FtPolicy {
    let retry = if rng.chance(0.5) {
        RetryPolicy::Fixed { max_retries: 3 }
    } else {
        RetryPolicy::ExponentialBackoff {
            max_retries: 3,
            base_delay: 4.0,
            factor: 2.0,
            max_delay: 30.0,
        }
    };
    let timeout = match rng.index(3) {
        0 => TimeoutPolicy::None,
        1 => TimeoutPolicy::Fixed { seconds: 35.0 },
        _ => TimeoutPolicy::Adaptive {
            percentile: 0.5,
            multiplier: 1.5,
            min_samples: 2,
            fallback: 40.0,
        },
    };
    let on_timeout = if rng.chance(0.5) {
        TimeoutAction::Resubmit
    } else {
        TimeoutAction::Replicate { max_replicas: 2 }
    };
    FtPolicy {
        retry,
        timeout,
        on_timeout,
    }
}

/// Enact with the public step API, exactly as the one-shot loop does,
/// checking the index against the scan after every step. Returns how
/// many timer wake-ups found something expired.
fn enact_checked(
    wf: &Workflow,
    inputs: &InputData,
    ft: FtConfig,
    backend: &mut FatedBackend,
) -> (WorkflowResult, usize) {
    let mut ctx = EnactCtx {
        backend,
        store: None,
    };
    let config = EnactorConfig::sp_dp();
    let compiled = CompiledWorkflow::compile(wf, &config).unwrap();
    let mut inst =
        WorkflowInstance::start(compiled, inputs, config, ft, &mut ctx, Obs::off()).unwrap();
    let mut timeouts = 0;
    loop {
        inst.pump(&mut ctx).unwrap();
        inst.assert_index_matches_scan(ctx.backend.now(), "pump");
        if inst.inflight() == 0 {
            break;
        }
        let outcome = match inst.next_wake() {
            None => WaitOutcome::Completion(ctx.backend.wait_next().expect("jobs in flight")),
            Some(deadline) => ctx.backend.wait_next_until(deadline),
        };
        match outcome {
            WaitOutcome::Completion(c) => {
                inst.deliver(&mut ctx, c).unwrap();
                inst.assert_index_matches_scan(ctx.backend.now(), "deliver");
            }
            WaitOutcome::TimedOut => {
                timeouts += usize::from(!inst.expired_at(ctx.backend.now()).is_empty());
                inst.on_timer(&mut ctx).unwrap();
                inst.assert_index_matches_scan(ctx.backend.now(), "on_timer");
            }
        }
    }
    let now = ctx.backend.now();
    (inst.finish(now).unwrap(), timeouts)
}

#[test]
fn the_deadline_index_agrees_with_the_full_scan_at_every_step() {
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
    let mut timeouts = 0;
    let mut quarantined = 0;
    for _ in 0..150 {
        let wf = random_dag(&mut rng);
        let inputs = items(3 + rng.index(6) as u64);
        let mut ft = FtConfig::from_legacy(0)
            .with_default(random_policy(&mut rng))
            .with_continue_on_error(true);
        if rng.chance(0.5) {
            // One processor under a policy of its own, so budgets differ
            // between the per-processor sets.
            ft = ft.with_policy("p1", random_policy(&mut rng));
        }
        let mut fate_rng = rng.fork(1);
        let mut backend = FatedBackend::new(Box::new(move |_| {
            let secs = match fate_rng.index(7) {
                0 => 400.0,
                _ => 5.0 + fate_rng.index(20) as f64,
            };
            (secs, fate_rng.chance(1.0 / 6.0))
        }));
        let (result, fired) = enact_checked(&wf, &inputs, ft, &mut backend);
        timeouts += fired;
        quarantined += result.quarantined.len();
    }
    // The campaign has to reach the paths the index exists for.
    assert!(timeouts > 100, "only {timeouts} timer wake-ups expired");
    assert!(quarantined > 0, "no retry budget was ever exhausted");
}

#[test]
fn windows_expiring_at_the_same_instant_are_handled_in_logical_id_order() {
    // `fast` is declared first but submitted last: `slow` (id 0) and
    // `gate` (id 1) fire at t=0, `fast` (id 2) when `gate` delivers at
    // t=10. A 20 s budget on `fast` and 30 s on `slow` both run out at
    // t=30, and the processor order of the index (fast, slow) is the
    // reverse of the logical id order the handling promises.
    let mut wf = Workflow::new("tie");
    let s = wf.add_source("s");
    let fast = wf.add_service("fast", &["in"], &["out"], ServiceBinding::local(forward));
    let slow = wf.add_service("slow", &["in"], &["out"], ServiceBinding::local(forward));
    let gate = wf.add_service("gate", &["in"], &["out"], ServiceBinding::local(forward));
    wf.connect(s, "out", slow, "in").unwrap();
    wf.connect(s, "out", gate, "in").unwrap();
    wf.connect(gate, "out", fast, "in").unwrap();
    for (k, leaf) in [fast, slow].into_iter().enumerate() {
        let sink = wf.add_sink(format!("sink{k}"));
        wf.connect(leaf, "out", sink, "in").unwrap();
    }
    let timeout = |seconds| FtPolicy {
        timeout: TimeoutPolicy::Fixed { seconds },
        ..FtPolicy::fixed(0)
    };
    let ft = FtConfig::from_legacy(0)
        .with_policy("fast", timeout(20.0))
        .with_policy("slow", timeout(30.0))
        .with_continue_on_error(true);
    let mut backend = FatedBackend::new(Box::new(|processor| match processor {
        "gate" => (10.0, false),
        _ => (1000.0, false),
    }));
    let mut ctx = EnactCtx {
        backend: &mut backend,
        store: None,
    };
    let config = EnactorConfig::sp_dp();
    let compiled = CompiledWorkflow::compile(&wf, &config).unwrap();
    let mut inst =
        WorkflowInstance::start(compiled, &items(1), config, ft, &mut ctx, Obs::off()).unwrap();
    inst.pump(&mut ctx).unwrap();
    let c = ctx.backend.wait_next().expect("gate is running");
    inst.deliver(&mut ctx, c).unwrap();
    inst.pump(&mut ctx).unwrap();
    let both = SimTime::from_secs_f64(30.0);
    assert_eq!(inst.next_wake(), Some(both));
    assert!(matches!(
        ctx.backend.wait_next_until(both),
        WaitOutcome::TimedOut
    ));
    assert_eq!(inst.expired_at(both), vec![0, 2]);
    inst.on_timer(&mut ctx).unwrap();
    assert_eq!(inst.inflight(), 0);
    let result = inst.finish(both).unwrap();
    let order: Vec<&str> = result
        .quarantined
        .iter()
        .map(|q| q.processor.as_str())
        .collect();
    assert_eq!(order, ["slow", "fast"], "ascending logical id");
}

/// A → B over `n` files, both stages descriptor-bound, so a data
/// manager has something to memoize.
pub(crate) fn descriptor_chain(n: usize) -> (Workflow, InputData) {
    let stage = |name: &str| {
        let descriptor = ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: vec![InputSlot {
                name: "in".into(),
                option: "-i".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            }],
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        };
        ServiceBinding::descriptor(descriptor, ServiceProfile::new(10.0))
    };
    let mut wf = Workflow::new("shims");
    let s = wf.add_source("s");
    let a = wf.add_service("A", &["in"], &["out"], stage("A"));
    let b = wf.add_service("B", &["in"], &["out"], stage("B"));
    let sink = wf.add_sink("sink");
    wf.connect(s, "out", a, "in").unwrap();
    wf.connect(a, "out", b, "in").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();
    let files = (0..n).map(|j| DataValue::File {
        gfn: format!("gfn://in/{j}"),
        bytes: 100,
    });
    (wf, InputData::new().set("s", files.collect()))
}

/// One way into the enactor, given everything any of them takes.
type WayIn<'a> =
    &'a dyn Fn(&mut FatedBackend, Obs, &mut DataStore) -> Result<WorkflowResult, MoteurError>;

/// What the test compares of one pass: makespan, `jobs_submitted` and
/// the sink tallies.
type Headline = (SimDuration, usize, Vec<(String, usize)>);

/// Enact twice over one store — cold, then warm — on a backend that
/// fails every fourth submission. Returns the JSONL event stream of
/// both passes and each pass's headline.
fn cold_then_warm(enact: WayIn) -> (String, Vec<Headline>) {
    let mut store = DataStore::in_memory(StoreConfig::default());
    let mut stream = String::new();
    let mut results = Vec::new();
    for _pass in 0..2 {
        let mut submissions = 0;
        let mut backend = FatedBackend::new(Box::new(move |_| {
            submissions += 1;
            (10.0, submissions % 4 == 0)
        }));
        let (sink, buffer) = RingBufferSink::new(100_000);
        let result = enact(&mut backend, Obs::new(vec![Box::new(sink)]), &mut store).unwrap();
        stream.extend(buffer.snapshot().iter().map(|e| e.to_json() + "\n"));
        let mut sinks: Vec<_> = result.sink_counts.into_iter().collect();
        sinks.sort();
        results.push((result.makespan, result.jobs_submitted, sinks));
    }
    (stream, results)
}

#[test]
fn each_compat_shim_enacts_exactly_like_the_enactment_it_forwards_to() {
    let (wf, inputs) = descriptor_chain(9);
    let config = EnactorConfig::sp_dp().with_seed(3);
    // Unlike the default, no retry and no abort: a shim that dropped
    // `ft` would retry where the enactment quarantines.
    let ft = FtConfig::from_legacy(0).with_continue_on_error(true);
    let table: [(&str, WayIn, WayIn); 3] = [
        (
            "run_observed",
            &|b, obs, _| compat::run_observed(&wf, &inputs, config, b, obs),
            &|b, obs, _| Enactment::new(&wf, &inputs, config).obs(obs).run(b),
        ),
        (
            "run_fault_tolerant",
            &|b, obs, _| compat::run_fault_tolerant(&wf, &inputs, config, &ft, b, obs),
            &|b, obs, _| Enactment::new(&wf, &inputs, config).ft(&ft).obs(obs).run(b),
        ),
        (
            "run_fault_tolerant_cached",
            &|b, obs, s| compat::run_fault_tolerant_cached(&wf, &inputs, config, &ft, b, obs, s),
            &|b, obs, s| {
                let enactment = Enactment::new(&wf, &inputs, config).ft(&ft).obs(obs);
                enactment.store(Some(s)).run(b)
            },
        ),
    ];
    let mut streams = Vec::new();
    for (name, shim, enactment) in table {
        let forwarded = cold_then_warm(shim);
        assert_eq!(forwarded, cold_then_warm(enactment), "{name}");
        streams.push(forwarded.0);
    }
    // The three rows are three different enactments: what each shim
    // forwards (the observer, `ft`, the store) changed the stream.
    assert!(streams[0].contains("job_resubmitted") && !streams[0].contains("job_failed"));
    assert!(streams[1].contains("job_failed") && !streams[1].contains("cache_hit"));
    assert!(streams[2].contains("job_failed") && streams[2].contains("cache_hit"));
}
