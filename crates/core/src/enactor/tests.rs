//! The instance's lazily kept state against its oracles, compared
//! after every step of seeded random enactments: the deadline index
//! against the full scan over `pending` that `next_wake` and
//! `handle_timeouts` used to be, and the kept exhaustion array against
//! the fixpoint every firing round used to recompute from scratch.

use super::attempts::PendingJob;
use super::*;
use crate::backend::{BackendCompletion, ServiceOutputs, VirtualBackend};
use crate::ft::{FtPolicy, RetryPolicy, TimeoutAction, TimeoutPolicy};
use crate::graph::ProcessorKind;
use crate::service::{ServiceBinding, ServiceProfile};
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

    /// "Will emit no more tokens", computed from scratch over the
    /// current state: the fixpoint every firing round recomputed
    /// before exhaustion was kept.
    fn fresh_exhausted(&self) -> Vec<bool> {
        let compiled = &self.compiled;
        let wf = &compiled.workflow;
        let n = wf.processors.len();
        let quiet = |m: usize| self.states[m].ready.is_empty() && self.states[m].inflight == 0;
        let mut exhausted = vec![false; n];
        loop {
            let mut changed = false;
            for p in 0..n {
                if exhausted[p] {
                    continue;
                }
                let in_links = |m: usize| wf.links.iter().filter(move |l| l.to.proc.0 == m);
                let preds = |ex: &[bool]| in_links(p).all(|l| ex[l.from.proc.0]);
                let proc = &wf.processors[p];
                let value = match proc.kind {
                    ProcessorKind::Source => self
                        .source_cursors
                        .iter()
                        .all(|c| c.proc.0 != p || c.remaining() == 0),
                    ProcessorKind::Sink => preds(&exhausted),
                    ProcessorKind::Service if compiled.graph.in_cycle[p] => {
                        let scc = compiled.graph.scc(p);
                        (0..n).filter(|&m| compiled.graph.scc(m) == scc).all(|m| {
                            quiet(m)
                                && in_links(m)
                                    .map(|l| l.from.proc.0)
                                    .filter(|&q| compiled.graph.scc(q) != scc)
                                    .all(|q| exhausted[q])
                        })
                    }
                    ProcessorKind::Service => {
                        quiet(p)
                            && (!proc.synchronization || self.states[p].barrier_fired)
                            && preds(&exhausted)
                    }
                };
                if value {
                    exhausted[p] = true;
                    changed = true;
                }
            }
            if !changed {
                return exhausted;
            }
        }
    }

    /// Exhaustion is what a fresh fixpoint says once the stale mark is
    /// cleared, and never claims more than it while the mark is set;
    /// no invocation of a processor without a timeout is armed.
    fn assert_lazy_state_matches_oracles(&self, step: &str) {
        let fresh = self.fresh_exhausted();
        if self.exhausted_stale {
            for (p, (&kept, &now)) in self.exhausted.iter().zip(&fresh).enumerate() {
                assert!(
                    !kept || now,
                    "processor {p} exhausted too early after {step}"
                );
            }
        } else {
            assert_eq!(self.exhausted, fresh, "exhaustion after {step}");
        }
        for (p, armed) in self.armed.iter().enumerate() {
            if self.policies[p].timeout == TimeoutPolicy::None {
                assert!(armed.is_empty(), "untimed processor {p} armed after {step}");
            }
        }
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
    results: HashMap<u64, Result<Option<ServiceOutputs>, String>, IdHasher>,
    fate: Fate,
}

impl FatedBackend {
    pub(crate) fn new(fate: Fate) -> Self {
        FatedBackend {
            clock: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            results: HashMap::default(),
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

    fn wait(&mut self, deadline: Option<SimTime>) -> WaitOutcome {
        self.skip_cancelled();
        match self.heap.peek() {
            Some(&Reverse((at, _, tag))) if deadline.is_none_or(|d| at <= d) => {
                self.heap.pop();
                self.clock = self.clock.max(at);
                WaitOutcome::Completion(BackendCompletion {
                    invocation: InvocationId(tag),
                    outputs: self.results.remove(&tag).expect("live entry"),
                    started_at: at,
                    finished_at: at,
                    ce: None,
                })
            }
            _ => {
                if let Some(d) = deadline {
                    self.clock = self.clock.max(d);
                }
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

/// A backend that accepts every job and never runs one: a shared
/// backend that lost its work.
#[derive(Default)]
pub(crate) struct LostJobs {
    clock: SimTime,
}

impl Backend for LostJobs {
    fn submit(&mut self, _job: BackendJob) -> Result<(), MoteurError> {
        Ok(())
    }

    fn wait(&mut self, deadline: Option<SimTime>) -> WaitOutcome {
        if let Some(d) = deadline {
            self.clock = self.clock.max(d);
        }
        WaitOutcome::TimedOut
    }

    fn cancel(&mut self, _invocation: InvocationId) -> bool {
        false
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
/// checking the lazily kept state against its oracles after every
/// step. Returns how many timer wake-ups found something expired.
fn enact_checked(
    wf: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: FtConfig,
    backend: &mut FatedBackend,
) -> (WorkflowResult, usize) {
    let mut ctx = EnactCtx {
        backend,
        store: None,
    };
    let compiled = CompiledWorkflow::compile(wf, &config).unwrap();
    let mut inst =
        WorkflowInstance::start(compiled, inputs, config, ft, &mut ctx, Obs::off()).unwrap();
    let mut timeouts = 0;
    loop {
        inst.pump(&mut ctx).unwrap();
        inst.assert_index_matches_scan(ctx.backend.now(), "pump");
        inst.assert_lazy_state_matches_oracles("pump");
        if inst.inflight() == 0 {
            break;
        }
        let wake = inst.next_wake();
        match ctx.backend.wait(wake) {
            WaitOutcome::Completion(c) => {
                inst.deliver(&mut ctx, c).unwrap();
                inst.assert_index_matches_scan(ctx.backend.now(), "deliver");
                inst.assert_lazy_state_matches_oracles("deliver");
            }
            WaitOutcome::TimedOut => {
                assert!(wake.is_some(), "jobs in flight");
                timeouts += usize::from(!inst.expired_at(ctx.backend.now()).is_empty());
                inst.on_timer(&mut ctx).unwrap();
                inst.assert_index_matches_scan(ctx.backend.now(), "on_timer");
                inst.assert_lazy_state_matches_oracles("on_timer");
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
        let config = EnactorConfig::sp_dp();
        let (result, fired) = enact_checked(&wf, &inputs, config, ft, &mut backend);
        timeouts += fired;
        quarantined += result.quarantined.len();
    }
    // The campaign has to reach the paths the index exists for.
    assert!(timeouts > 100, "only {timeouts} timer wake-ups expired");
    assert!(quarantined > 0, "no retry budget was ever exhausted");
}

/// Fig. 2's loop body: a number goes up by one, anything else passes.
fn increment(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let value = &inputs[0].value;
    let next = value
        .as_num()
        .map_or(value.clone(), |v| DataValue::from(v + 1.0));
    Ok(vec![("out".into(), next)])
}

/// Fig. 2's exit test: a number below 6 goes round again.
fn converged(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let value = inputs[0].value.clone();
    let port = match value.as_num() {
        Some(v) if v < 6.0 => "again",
        _ => "done",
    };
    Ok(vec![(port.into(), value)])
}

/// What `random_shaped` put in a workflow.
#[derive(Default)]
struct Shape {
    barrier: bool,
    control: bool,
    cycle: bool,
}

/// `random_dag`'s tree, with each reader of exhaustion but the SP-off
/// stage gate added at random: one service a synchronization barrier,
/// one service a Fig. 2 loop (an incrementer and its exit test on a
/// data cycle), and a control link from one service to a later one.
fn random_shaped(rng: &mut Rng) -> (Workflow, Shape) {
    let mut wf = Workflow::new("shaped");
    let mut shape = Shape::default();
    // Every node with the output port its consumers read.
    let mut nodes = vec![(wf.add_source("s"), "out")];
    let mut has_consumer = vec![false];
    let services = 2 + rng.index(4);
    let barrier = rng.chance(0.5).then(|| rng.index(services));
    let cycle = rng.chance(0.5).then(|| rng.index(services));
    for k in 0..services {
        let from = rng.index(nodes.len());
        let (upstream, port) = nodes[from];
        let node = if cycle == Some(k) {
            let body = wf.add_service(
                format!("p{k}"),
                &["in"],
                &["out"],
                ServiceBinding::local(increment),
            );
            let exit = wf.add_service(
                format!("p{k}exit"),
                &["in"],
                &["again", "done"],
                ServiceBinding::local(converged),
            );
            wf.connect(upstream, port, body, "in").unwrap();
            wf.connect(body, "out", exit, "in").unwrap();
            wf.connect(exit, "again", body, "in").unwrap();
            shape.cycle = true;
            (exit, "done")
        } else {
            let p = wf.add_service(
                format!("p{k}"),
                &["in"],
                &["out"],
                ServiceBinding::local(forward),
            );
            wf.connect(upstream, port, p, "in").unwrap();
            if barrier == Some(k) {
                wf.set_synchronization(p, true);
                shape.barrier = true;
            }
            (p, "out")
        };
        has_consumer[from] = true;
        nodes.push(node);
        has_consumer.push(false);
    }
    if rng.chance(0.5) {
        // Nodes are in data order, so a link from an earlier service
        // to a later one never contradicts the data flow.
        let before = 1 + rng.index(services - 1);
        let after = before + 1 + rng.index(services - before);
        wf.add_control(nodes[before].0, nodes[after].0);
        shape.control = true;
    }
    for (k, &(leaf, port)) in nodes.iter().enumerate().filter(|(k, _)| !has_consumer[*k]) {
        let sink = wf.add_sink(format!("sink{k}"));
        wf.connect(leaf, port, sink, "in").unwrap();
    }
    (wf, shape)
}

#[test]
fn kept_exhaustion_agrees_with_a_fresh_fixpoint_at_every_step() {
    let mut rng = Rng::new(0x5EED_E8A5);
    let (mut barriers, mut controls, mut cycles, mut sp_off) = (0, 0, 0, 0);
    for _ in 0..200 {
        let (wf, shape) = random_shaped(&mut rng);
        let mut config = [
            EnactorConfig::nop(),
            EnactorConfig::sp(),
            EnactorConfig::dp(),
            EnactorConfig::sp_dp(),
        ][rng.index(4)];
        if !shape.control && rng.chance(0.5) {
            // Back-pressure drains the source in pieces. (A control
            // link behind a bounded edge can wait on a producer its own
            // full ports hold back, so those runs stay unbounded.)
            config = config.with_port_capacity(1 + rng.index(3));
        }
        let ft = FtConfig::from_legacy(0)
            .with_default(random_policy(&mut rng))
            .with_continue_on_error(true);
        let mut fate_rng = rng.fork(1);
        let mut backend = FatedBackend::new(Box::new(move |_| {
            (5.0 + fate_rng.index(40) as f64, fate_rng.chance(1.0 / 8.0))
        }));
        let inputs = items(1 + rng.index(6) as u64);
        let (result, _) = enact_checked(&wf, &inputs, config, ft, &mut backend);
        assert!(result.completed_invocations > 0);
        barriers += usize::from(shape.barrier);
        controls += usize::from(shape.control);
        cycles += usize::from(shape.cycle);
        sp_off += usize::from(!config.service_parallelism);
    }
    // Every reader of exhaustion is reached many times over.
    for (reader, runs) in [
        ("barrier", barriers),
        ("control link", controls),
        ("cycle", cycles),
        ("SP off", sp_off),
    ] {
        assert!(runs > 50, "only {runs} runs with a {reader}");
    }
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
    let c = ctx
        .backend
        .wait(None)
        .completion()
        .expect("gate is running");
    inst.deliver(&mut ctx, c).unwrap();
    inst.pump(&mut ctx).unwrap();
    let both = SimTime::from_secs_f64(30.0);
    assert_eq!(inst.next_wake(), Some(both));
    assert!(matches!(
        ctx.backend.wait(Some(both)),
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

/// With jobs in flight, no timer armed and nothing the backend can
/// deliver, the one-shot wait loop fails instead of spinning.
#[test]
fn a_backend_that_loses_its_jobs_starves_the_run() {
    let (wf, inputs) = descriptor_chain(2);
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut LostJobs::default())
        .unwrap_err();
    assert_eq!(err.message(), "backend starved with jobs in flight");
}

/// A virtual backend that holds every grid job's plan, as the backend
/// reads it, to the plan the enactor rendered eagerly before plans were
/// rendered on read (see [`GridPlan::eager`]), and counts the jobs of
/// each shape it saw.
#[derive(Default)]
struct PlanCheck {
    inner: VirtualBackend,
    /// Single-stage, grouped, batched and barrier jobs.
    seen: [usize; 4],
}

impl Backend for PlanCheck {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        if let JobPayload::Grid { plan, .. } = &job.payload {
            let rendered = plan.render();
            assert_eq!(rendered, plan.eager(), "{}", job.processor);
            let (fetch, store) = plan.sizes();
            assert_eq!(
                fetch,
                rendered.fetch.iter().map(|f| f.bytes).collect::<Vec<_>>()
            );
            assert_eq!(
                store,
                rendered.store.iter().map(|f| f.bytes).collect::<Vec<_>>()
            );
            assert_eq!(plan.fetch_bytes(), rendered.fetch_bytes());
            assert_eq!(plan.store_bytes(), rendered.store_bytes());
            assert_eq!(plan.commands(), rendered.command_lines.len());
            let lines = &rendered.command_lines;
            let shape = match () {
                _ if lines[0].ends_with("collected inputs>") => 3,
                _ if rendered.store.len() > 2 || lines.len() > 2 => 2,
                _ if lines.len() == 2 => 1,
                _ => 0,
            };
            self.seen[shape] += 1;
        }
        self.inner.submit(job)
    }
    fn wait(&mut self, deadline: Option<SimTime>) -> WaitOutcome {
        self.inner.wait(deadline)
    }
    fn cancel(&mut self, invocation: InvocationId) -> bool {
        self.inner.cancel(invocation)
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// crestLines → crestMatch (groupable) → a descriptor-bound barrier,
/// over image pairs in which one GFN is bound to both ports at two
/// sizes and others name an executable or a sandbox of the job.
fn crest_pairs() -> (Workflow, InputData) {
    let matcher = ExecutableDescriptor::parse(
        r#"<description><executable name="CrestMatch">
             <access type="URL"><path value="http://colors.unice.fr"/></access>
             <value value="CrestMatch.pl"/>
             <input name="c1" option="-c1"><access type="GFN"/></input>
             <input name="c2" option="-c2"><access type="GFN"/></input>
             <output name="transfo" option="-o"><access type="GFN"/></output>
           </executable></description>"#,
    )
    .unwrap();
    let collect = ExecutableDescriptor::parse(
        r#"<description><executable name="Collect">
             <access type="URL"><path value="http://colors.unice.fr"/></access>
             <value value="collect"/>
             <input name="transfo" option="-t"><access type="GFN"/></input>
             <output name="summary" option="-o"><access type="GFN"/></output>
           </executable></description>"#,
    )
    .unwrap();
    let lines = ServiceProfile::new(10.0)
        .with_fixed_param("scale", "2")
        .with_output_bytes("crest_reference", 400_000)
        .with_output_bytes("crest_floating", 400_000);
    let mut wf = Workflow::new("crest");
    let floating = wf.add_source("floating");
    let reference = wf.add_source("reference");
    let l = wf.add_service(
        "crestLines",
        &["floating_image", "reference_image"],
        &["crest_reference", "crest_floating"],
        ServiceBinding::descriptor(moteur_wrapper::crest_lines_example(), lines),
    );
    let m = wf.add_service(
        "crestMatch",
        &["c1", "c2"],
        &["transfo"],
        ServiceBinding::descriptor(matcher, ServiceProfile::new(5.0)),
    );
    let c = wf.add_service(
        "collect",
        &["transfo"],
        &["summary"],
        ServiceBinding::descriptor(collect, ServiceProfile::new(1.0)),
    );
    wf.set_synchronization(c, true);
    let sink = wf.add_sink("sink");
    wf.connect(floating, "out", l, "floating_image").unwrap();
    wf.connect(reference, "out", l, "reference_image").unwrap();
    wf.connect(l, "crest_reference", m, "c1").unwrap();
    wf.connect(l, "crest_floating", m, "c2").unwrap();
    wf.connect(m, "transfo", c, "transfo").unwrap();
    wf.connect(c, "summary", sink, "in").unwrap();
    let file = |gfn: &str, bytes| DataValue::File {
        gfn: gfn.into(),
        bytes,
    };
    let floating_images = vec![
        file("gfn://img/same", 10),
        file("http://colors.unice.fr/CrestLines.pl", 5),
        file("gfn://img/f2", 7),
        file("http://colors.unice.fr/CrestMatch.pl", 11),
        file("gfn://img/f4", 8),
    ];
    let reference_images = vec![
        file("gfn://img/same", 20),
        file("http://colors.unice.fr/copy", 9),
        file("gfn://img/same", 30),
        file("gfn://img/r3", 12),
        file("gfn://img/f4", 13),
    ];
    let inputs = InputData::new()
        .set("floating", floating_images)
        .set("reference", reference_images);
    (wf, inputs)
}

/// Every grid job's plan, rendered on read, is the plan its members'
/// eager fill (and absorb) renders, and the sizes the backend is handed
/// are that plan's: single-stage jobs, the crestLines → crestMatch group,
/// batches of three of each, and the barrier.
#[test]
fn every_plan_rendered_on_read_is_the_eager_plan() {
    let (wf, inputs) = crest_pairs();
    let mut seen = [0; 4];
    for config in [
        EnactorConfig::sp_dp(),
        EnactorConfig::sp_dp_jg(),
        EnactorConfig::sp_dp().with_batching(3),
        EnactorConfig::sp_dp_jg().with_batching(3),
    ] {
        let mut backend = PlanCheck::default();
        let result = Enactment::new(&wf, &inputs, config)
            .run(&mut backend)
            .unwrap();
        assert_eq!(result.sink_counts["sink"], 1);
        for (total, n) in seen.iter_mut().zip(backend.seen) {
            *total += n;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}
