//! The event-driven scheduler against the scheduler it replaced. In
//! *exhaustive* mode a daemon treats every running instance as
//! runnable and due in every round, scans every instance for the
//! deadline and timers all of them — no runnable set, no wake index.
//! Seeded scripts of submit / cancel / step / drain run against one
//! daemon of each mode in lockstep; they must hand the backend the
//! same submissions at the same times, answer every submit and `list`
//! identically after every request, and parse and compile as often.

use super::*;
use crate::backend::BackendJob;
use crate::enactor::tests::{
    descriptor_chain, items, random_dag, random_policy, FatedBackend, LostJobs,
};
use crate::store::StoreConfig;
use moteur_gridsim::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Test-only state of a [`Daemon`]: the mode switch and the pump log.
#[derive(Default)]
pub(super) struct Probe {
    pub(super) exhaustive: bool,
    pub(super) pumps: usize,
    /// Pumps that dispatched nothing.
    pub(super) idle_pumps: usize,
    /// Instances a pump left at their fixpoint and that nothing has
    /// touched since: pumping one again is wasted work.
    settled: BTreeSet<u32>,
}

impl Probe {
    /// `quiescent` is what the instance answered before the pump.
    pub(super) fn pumped(&mut self, id: u32, fired: usize, quiescent: bool) {
        self.pumps += 1;
        self.idle_pumps += usize::from(fired == 0);
        assert!(
            !quiescent || fired == 0,
            "instance {id} called itself quiescent and then dispatched {fired}"
        );
        assert!(
            self.exhaustive || !self.settled.contains(&id),
            "instance {id} was pumped again with nothing touching it since its fixpoint"
        );
    }

    pub(super) fn settled(&mut self, id: u32) {
        self.settled.insert(id);
    }

    pub(super) fn touched(&mut self, id: u32) {
        self.settled.remove(&id);
    }
}

impl Daemon {
    /// Exhaustive mode's round prologue: everything running is
    /// runnable and may have a backoff due.
    pub(super) fn probe_round(&mut self) {
        if !self.probe.exhaustive {
            return;
        }
        for tenant in &mut self.tenants {
            tenant.runnable = tenant.running.clone();
            for &id in &tenant.running {
                self.slots[id as usize - 1].due = true;
            }
        }
    }

    /// Exhaustive mode's deadline: ask every running instance.
    pub(super) fn scan_next_wake(&self) -> Option<SimTime> {
        let running = self.slots.iter().filter_map(|s| match &s.body {
            Body::Running(instance) => instance.next_wake(),
            _ => None,
        });
        running.min()
    }
}

/// Workflows from a key string instead of SCUFL: `dag <seed>` is one of
/// the enactor tests' random tree DAGs over local services, `barrier
/// <seed>` the same with `p1` a synchronization barrier that a control
/// link orders after `p0`, `chain` a two-stage descriptor chain
/// (memoizable, so later submissions replay the first one's results
/// from the shared store). The input text is the item count. Any other
/// key, or an input text that is not a count, is rejected.
fn parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    let n: usize = inputs.parse().map_err(|_| MoteurError::new("bad inputs"))?;
    if workflow == "chain" {
        return Ok(descriptor_chain(n));
    }
    let (kind, seed) = workflow
        .split_once(' ')
        .ok_or_else(|| MoteurError::new("unknown workflow key"))?;
    let seed: u64 = seed.parse().map_err(|_| MoteurError::new("bad seed"))?;
    let mut wf = random_dag(&mut Rng::new(seed));
    match kind {
        "dag" => {}
        "barrier" => {
            let (p0, p1) = (wf.find("p0").unwrap(), wf.find("p1").unwrap());
            wf.set_synchronization(p1, true);
            wf.add_control(p0, p1);
        }
        _ => return Err(MoteurError::new("unknown workflow key")),
    }
    Ok((wf, items(n as u64)))
}

/// Every submission a backend was handed: `(scoped tag, time)`.
type Log = Rc<RefCell<Vec<(u64, SimTime)>>>;

/// A [`FatedBackend`] that logs every submission it is handed.
struct Recorder {
    inner: FatedBackend,
    log: Log,
}

impl Backend for Recorder {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        self.log
            .borrow_mut()
            .push((job.invocation.0, self.inner.now()));
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

#[derive(Debug, Clone, Copy)]
struct Knobs {
    weight: u32,
    quantum: usize,
    max_inflight_jobs: usize,
    max_inflight_workflows: usize,
}

const TENANTS: [&str; 3] = ["a", "b", "c"];

fn daemon(exhaustive: bool, knobs: Knobs, fate_seed: u64) -> (Daemon, Log) {
    let mut fate = Rng::new(fate_seed);
    let inner = FatedBackend::new(Box::new(move |_| {
        let secs = match fate.index(7) {
            0 => 400.0,
            _ => 5.0 + fate.index(20) as f64,
        };
        (secs, fate.chance(1.0 / 6.0))
    }));
    let log = Log::default();
    let backend = Recorder {
        inner,
        log: Rc::clone(&log),
    };
    let config = DaemonConfig {
        tenant_defaults: TenantConfig {
            weight: 1,
            max_inflight_workflows: knobs.max_inflight_workflows,
            max_inflight_jobs: knobs.max_inflight_jobs,
        },
        quantum: knobs.quantum,
        ..DaemonConfig::default()
    };
    let store = DataStore::in_memory(StoreConfig::default());
    let mut d = Daemon::new(Box::new(backend), store, parser, config);
    // Tenant `a` carries the weight under test, `b` and `c` the next
    // two of {1, 2, 3}.
    for (k, tenant) in TENANTS.iter().enumerate() {
        let weight = (knobs.weight + k as u32 - 1) % 3 + 1;
        let tenant_config = TenantConfig {
            weight,
            ..d.config.tenant_defaults
        };
        d.set_tenant(tenant, tenant_config).unwrap();
    }
    d.probe.exhaustive = exhaustive;
    (d, log)
}

enum Op {
    Submit {
        tenant: &'static str,
        workflow: String,
        inputs: String,
        config: EnactorConfig,
        ft: Box<FtConfig>,
    },
    Cancel(u32),
    Step(usize),
    Drain,
}

fn script(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut submitted = 0u32;
    for _ in 0..12 + rng.index(12) {
        match rng.index(10) {
            0..=5 => {
                // Few distinct texts, so the source cache hits; an
                // unknown key or an inputs text that is not a count is
                // rejected by the parser.
                let workflow = match rng.index(10) {
                    0 | 1 => "chain".to_string(),
                    2 | 3 => format!("barrier {}", rng.index(3)),
                    4 => format!("bogus {}", rng.index(3)),
                    _ => format!("dag {}", rng.index(3)),
                };
                let inputs = match rng.index(20) {
                    0 => "many".to_string(),
                    n => (1 + n % 8).to_string(),
                };
                let mut config = [
                    EnactorConfig::sp_dp(),
                    EnactorConfig::sp_dp(),
                    EnactorConfig::dp(),
                    EnactorConfig::nop(),
                ][rng.index(4)];
                if rng.chance(0.25) {
                    config.port_capacity = 2;
                }
                let mut ft = FtConfig::from_legacy(0)
                    .with_default(random_policy(rng))
                    .with_continue_on_error(rng.chance(0.7));
                if rng.chance(0.5) {
                    ft = ft.with_policy("p1", random_policy(rng));
                }
                ops.push(Op::Submit {
                    tenant: TENANTS[rng.index(3)],
                    workflow,
                    inputs,
                    config,
                    ft: Box::new(ft),
                });
                submitted += 1;
            }
            6 if submitted > 0 => ops.push(Op::Cancel(1 + rng.index(submitted as usize) as u32)),
            9 => ops.push(Op::Drain),
            _ => ops.push(Op::Step(1 + rng.index(6))),
        }
    }
    ops.push(Op::Drain);
    ops
}

/// `drain`, but a scheduler that stops making progress fails the test
/// instead of hanging it.
fn drain_bounded(d: &mut Daemon, what: &str) {
    for _ in 0..100_000 {
        if !d.step() {
            return;
        }
    }
    panic!("{what}: no end of the drain in 100000 steps");
}

/// What a submit answered; `None` for every other op.
fn apply(d: &mut Daemon, op: &Op, what: &str) -> Option<Result<u32, String>> {
    match op {
        Op::Submit {
            tenant,
            workflow,
            inputs,
            config,
            ft,
        } => {
            let submitted = d.submit(tenant, workflow, inputs, *config, (**ft).clone());
            return Some(submitted.map_err(|e| e.message().to_string()));
        }
        Op::Cancel(id) => {
            d.cancel(*id);
        }
        Op::Step(n) => {
            for _ in 0..*n {
                d.step();
            }
        }
        Op::Drain => drain_bounded(d, what),
    }
    None
}

#[test]
fn event_driven_and_exhaustive_scheduling_submit_the_same_jobs_at_the_same_times() {
    let mut scripts = 0;
    let mut submissions = 0;
    let (mut parses, mut rejected) = (0, 0);
    let mut pumps = (0, 0);
    let mut idle_pumps = (0, 0);
    let mut finished = [0usize; 5];
    for weight in [1, 2, 3] {
        for quantum in [1, 4] {
            for max_inflight_jobs in [2, 256] {
                for max_inflight_workflows in [1, 4] {
                    let knobs = Knobs {
                        weight,
                        quantum,
                        max_inflight_jobs,
                        max_inflight_workflows,
                    };
                    for seed in 0..9u64 {
                        let what = format!("{knobs:?} seed {seed}");
                        let mut rng = Rng::new(0xDAE0 + scripts);
                        let ops = script(&mut rng);
                        let (mut event, event_log) = daemon(false, knobs, seed);
                        let (mut exhaustive, exhaustive_log) = daemon(true, knobs, seed);
                        for (k, op) in ops.iter().enumerate() {
                            let answer = apply(&mut event, op, &what);
                            assert_eq!(answer, apply(&mut exhaustive, op, &what), "{what}: op {k}");
                            rejected += usize::from(matches!(answer, Some(Err(_))));
                            assert_eq!(event.list(), exhaustive.list(), "{what}: after op {k}");
                            let (m, x) = (event.metrics(), exhaustive.metrics());
                            assert_eq!(m, x, "{what}: after op {k}");
                            for t in &m.tenants {
                                assert!(
                                    t.inflight_jobs <= max_inflight_jobs,
                                    "{what}: after op {k}: {t:?}"
                                );
                            }
                        }
                        assert_eq!(*event_log.borrow(), *exhaustive_log.borrow(), "{what}");
                        let (e, x) = (&event.sources, &exhaustive.sources);
                        assert_eq!((e.parses, e.compiles), (x.parses, x.compiles), "{what}");
                        parses += e.parses;
                        scripts += 1;
                        submissions += event_log.borrow().len();
                        pumps.0 += event.probe.pumps;
                        pumps.1 += exhaustive.probe.pumps;
                        idle_pumps.0 += event.probe.idle_pumps;
                        idle_pumps.1 += exhaustive.probe.idle_pumps;
                        for (state, n) in event.counts.iter().enumerate() {
                            finished[state] += n;
                        }
                    }
                }
            }
        }
    }
    eprintln!(
        "{scripts} scripts, {submissions} backend submissions, {parses} parses, \
         {rejected} rejected submits; pumps {} event-driven ({} idle) vs {} exhaustive \
         ({} idle); instances by state {finished:?}",
        pumps.0, idle_pumps.0, pumps.1, idle_pumps.1
    );
    assert!(scripts >= 200);
    assert!(rejected > 0, "the scripts reach the parser's rejection");
    // The campaign has to reach what it is about: every terminal state,
    // and a scheduler that skips most of what the exhaustive one pumps.
    let [queued, running, succeeded, failed, cancelled] = finished;
    assert_eq!((queued, running), (0, 0), "every script ends drained");
    assert!(succeeded > 0 && failed > 0 && cancelled > 0, "{finished:?}");
    assert!(pumps.0 * 2 < pumps.1, "{pumps:?}");
}

/// The daemon's starved run: a running instance whose jobs the shared
/// backend lost, with no timer armed, is failed rather than waited on.
#[test]
fn instances_whose_jobs_the_backend_lost_fail() {
    let store = DataStore::in_memory(StoreConfig::default());
    let backend = Box::new(LostJobs::default());
    let mut d = Daemon::new(backend, store, parser, DaemonConfig::default());
    let config = EnactorConfig::sp_dp();
    let id = d.submit("a", "chain", "2", config, FtConfig::default());
    let id = id.expect("the chain submits");
    assert_eq!(d.drain(), 0);
    let status = d.status(id).unwrap();
    assert_eq!(status.state, InstanceState::Failed, "{status:?}");
    assert_eq!(
        status.error.as_deref(),
        Some("backend returned no completion for in-flight work")
    );
}
