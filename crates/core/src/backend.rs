//! Execution backends: where fired invocations actually run.
//!
//! The enactor is written against one small trait with asynchronous
//! submission semantics — submit never blocks, completions are pulled —
//! mirroring the paper's §3.1 requirement that service calls be
//! non-blocking so every level of parallelism can be exploited.
//!
//! Three implementations:
//!
//! - [`VirtualBackend`] — zero-overhead virtual time with unlimited
//!   parallelism; job duration is exactly the declared compute time.
//!   On this backend the enactor must reproduce the theoretical model
//!   of paper §3.5 to the microsecond (asserted by tests).
//! - [`SimBackend`] — the EGEE-like discrete-event grid simulator
//!   ([`moteur_gridsim`]); used by all campaign experiments.
//! - [`LocalBackend`] — real execution of [`LocalService`]s on spawned
//!   worker threads (the paper's "spawning independent system threads
//!   for each processor being executed"), timed with the wall clock.

use crate::error::MoteurError;
use crate::service::LocalService;
use crate::token::Token;
use crate::value::DataValue;
use moteur_gridsim::{GridConfig, GridJobSpec, GridSim, JobOutcome, SimTime};
use moteur_wrapper::JobPlan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Correlation id for one fired invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvocationId(pub u64);

/// Hasher of the maps keyed by ids the program mints itself
/// (invocation and attempt tags): `RandomState`'s SipHash with fixed
/// keys. Nobody hostile picks these keys, and under insert/remove churn
/// a table grows or rehashes in place depending on where its
/// tombstones fall, i.e. on the hash keys — per-process keys made the
/// live-byte high-water mark of a run differ from one process to the
/// next. No iteration order is relied on either way.
pub(crate) type IdHasher = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// What to run.
#[derive(Clone)]
pub enum JobPayload {
    /// A wrapper-service grid job: transfer plan plus compute seconds.
    /// The plan is shared, so the copy the enactor keeps for a possible
    /// resubmission costs a reference count, not the command lines.
    Grid {
        plan: Arc<JobPlan>,
        compute_seconds: f64,
    },
    /// An in-process service call with its input tokens.
    Local {
        service: Arc<dyn LocalService>,
        inputs: Vec<Token>,
    },
    /// A cache-elided invocation: no computation, only the simulated
    /// transfer of already-stored results back to the enactor (the
    /// data manager's fetch cost).
    Fetch { transfer_seconds: f64 },
}

impl std::fmt::Debug for JobPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobPayload::Grid {
                plan,
                compute_seconds,
            } => f
                .debug_struct("Grid")
                .field("commands", &plan.command_lines.len())
                .field("compute_seconds", compute_seconds)
                .finish(),
            JobPayload::Local { inputs, .. } => f
                .debug_struct("Local")
                .field("inputs", &inputs.len())
                .finish(),
            JobPayload::Fetch { transfer_seconds } => f
                .debug_struct("Fetch")
                .field("transfer_seconds", transfer_seconds)
                .finish(),
        }
    }
}

/// A submitted job.
#[derive(Debug, Clone)]
pub struct BackendJob {
    pub invocation: InvocationId,
    pub processor: String,
    pub payload: JobPayload,
}

/// Result of a finished job.
#[derive(Debug)]
pub struct BackendCompletion {
    pub invocation: InvocationId,
    /// `Ok(Some(outputs))` for local services, `Ok(None)` for grid jobs
    /// (the enactor synthesised the output file tokens at submission),
    /// `Err` for a failed execution.
    pub outputs: Result<Option<ServiceOutputs>, String>,
    pub started_at: SimTime,
    pub finished_at: SimTime,
    /// Computing element the final attempt ran on, when the backend
    /// knows one (only [`SimBackend`]). Feeds CE blacklisting.
    pub ce: Option<usize>,
}

/// What [`Backend::wait_next_until`] produced.
#[derive(Debug)]
pub enum WaitOutcome {
    /// A job finished before the deadline.
    Completion(BackendCompletion),
    /// The deadline passed first; the backend clock now sits at (or
    /// past) the deadline even when nothing was in flight.
    TimedOut,
}

/// An asynchronous execution backend.
pub trait Backend {
    /// Non-blocking submission. `Err` means the job was *not* accepted
    /// (e.g. an invocation tag that would corrupt a shared namespace)
    /// and no completion will ever surface for it; the caller must
    /// treat this as a hard enactment failure rather than retry.
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError>;
    /// Block (or advance virtual time) until the next completion;
    /// `None` when nothing is in flight.
    fn wait_next(&mut self) -> Option<BackendCompletion>;
    /// Like [`Backend::wait_next`], but give up once the backend clock
    /// reaches `deadline` — the enactor's timeout and backoff timer.
    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome;
    /// Best-effort cancellation of an in-flight submission. `true`
    /// guarantees no completion will surface for it; `false` means the
    /// backend cannot retract it (already delivered, unknown, or — on
    /// [`LocalBackend`] — a thread that cannot be stopped) and the
    /// caller must discard any late completion itself.
    fn cancel(&mut self, invocation: InvocationId) -> bool;
    /// Stop (or resume) routing new submissions to a computing
    /// element. A no-op on backends without a broker.
    fn blacklist_ce(&mut self, _ce: usize, _blocked: bool) {}
    /// Current time on this backend's clock.
    fn now(&self) -> SimTime;
}

// ---------------------------------------------------------------------
// VirtualBackend
// ---------------------------------------------------------------------

/// Output list of a service invocation: `(port name, value)` pairs.
pub type ServiceOutputs = Vec<(String, DataValue)>;

/// What [`VirtualBackend`] holds for one submitted invocation.
#[derive(Debug)]
struct VirtualJob {
    started: SimTime,
    /// Result of a local call, executed eagerly at submission.
    local: Option<Result<ServiceOutputs, String>>,
}

/// Ideal virtual-time backend: unlimited parallelism, zero overhead.
#[derive(Default, Debug)]
pub struct VirtualBackend {
    clock: SimTime,
    heap: BinaryHeap<Reverse<(SimTime, u64, InvocationId)>>,
    seq: u64,
    /// Exactly the in-flight set, by invocation tag: inserted at
    /// submit, removed at delivery or cancellation.
    in_flight: HashMap<u64, VirtualJob, IdHasher>,
    /// Invocations cancelled while still on the heap; their entries are
    /// discarded (without advancing the clock) when popped.
    cancelled: HashSet<u64, IdHasher>,
}

impl VirtualBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop the next non-cancelled heap entry into a completion.
    fn pop_live(&mut self) -> Option<BackendCompletion> {
        loop {
            let Reverse((at, _, invocation)) = self.heap.pop()?;
            if self.cancelled.remove(&invocation.0) {
                continue;
            }
            self.clock = self.clock.max(at);
            let job = self.in_flight.remove(&invocation.0);
            let started_at = job.as_ref().map_or(SimTime::ZERO, |j| j.started);
            let outputs = match job.and_then(|j| j.local) {
                Some(result) => result.map(Some),
                None => Ok(None),
            };
            return Some(BackendCompletion {
                invocation,
                outputs,
                started_at,
                finished_at: at,
                ce: None,
            });
        }
    }
}

impl Backend for VirtualBackend {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        let started = self.clock;
        let (seconds, local) = match job.payload {
            JobPayload::Grid {
                compute_seconds, ..
            } => (compute_seconds, None),
            // Local calls are logic, not timing: run eagerly, zero
            // virtual duration.
            JobPayload::Local { service, inputs } => (0.0, Some(service.invoke(&inputs))),
            JobPayload::Fetch { transfer_seconds } => (transfer_seconds, None),
        };
        self.in_flight
            .insert(job.invocation.0, VirtualJob { started, local });
        let end = started + moteur_gridsim::SimDuration::from_secs_f64(seconds);
        self.heap.push(Reverse((end, self.seq, job.invocation)));
        self.seq += 1;
        Ok(())
    }

    fn wait_next(&mut self) -> Option<BackendCompletion> {
        self.pop_live()
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        loop {
            let head = self.heap.peek().map(|Reverse((at, _, inv))| (*at, *inv));
            match head {
                Some((_, inv)) if self.cancelled.remove(&inv.0) => {
                    self.heap.pop();
                }
                Some((at, _)) if at <= deadline => {
                    let c = self.pop_live().expect("peeked a live entry");
                    return WaitOutcome::Completion(c);
                }
                _ => {
                    self.clock = self.clock.max(deadline);
                    return WaitOutcome::TimedOut;
                }
            }
        }
    }

    fn cancel(&mut self, invocation: InvocationId) -> bool {
        // Removed here, so a double cancel is false; the heap entry
        // stays behind and is discarded when it surfaces.
        let live = self.in_flight.remove(&invocation.0).is_some();
        if live {
            self.cancelled.insert(invocation.0);
        }
        live
    }

    fn now(&self) -> SimTime {
        self.clock
    }
}

// ---------------------------------------------------------------------
// SimBackend
// ---------------------------------------------------------------------

/// Backend running grid jobs on the discrete-event EGEE simulator.
#[derive(Debug)]
pub struct SimBackend {
    sim: GridSim,
    /// Latest simulator job for each invocation tag, so cancellation
    /// can reach back into the simulator. A resubmission with the same
    /// tag overwrites the entry — only the live attempt is cancellable.
    jobs: HashMap<u64, moteur_gridsim::JobId, IdHasher>,
}

impl SimBackend {
    pub fn new(config: GridConfig, seed: u64) -> Self {
        SimBackend {
            sim: GridSim::new(config, seed),
            jobs: HashMap::default(),
        }
    }

    /// Like [`SimBackend::new`], but forwarding every simulator
    /// lifecycle event ([`moteur_gridsim::SimEvent`]) into `obs` as
    /// grid-level [`crate::obs::TraceEvent`]s. With a disabled handle
    /// no observer is installed and the simulator's hot path is
    /// untouched.
    pub fn with_obs(config: GridConfig, seed: u64, obs: &crate::obs::Obs) -> Self {
        let mut backend = Self::new(config, seed);
        if obs.enabled() {
            let forward = obs.clone();
            backend.sim.set_observer(Box::new(move |e| {
                forward.record(&crate::obs::TraceEvent::from_sim(e));
            }));
        }
        if obs.prof().is_enabled() {
            backend.sim.set_prof(obs.prof().clone());
        }
        backend
    }

    /// Access the underlying simulator (job records, etc.).
    pub fn sim(&self) -> &GridSim {
        &self.sim
    }

    /// Map a simulator completion into the backend vocabulary.
    fn convert(c: moteur_gridsim::GridJobCompletion) -> BackendCompletion {
        let outputs = match c.outcome {
            JobOutcome::Success => Ok(None),
            JobOutcome::Failed => Err(format!(
                "grid job `{}` failed after {} attempts",
                c.record.name, c.record.attempts
            )),
        };
        BackendCompletion {
            invocation: InvocationId(c.tag),
            outputs,
            started_at: c.record.started_at,
            finished_at: c.delivered_at,
            ce: c.record.ce.map(|ce| ce.0),
        }
    }
}

impl Backend for SimBackend {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        match job.payload {
            JobPayload::Grid {
                plan,
                compute_seconds,
            } => {
                let spec = GridJobSpec::new(job.processor, compute_seconds)
                    .with_files(
                        plan.fetch.iter().map(|f| f.bytes).collect(),
                        plan.store.iter().map(|f| f.bytes).collect(),
                    )
                    .with_tag(job.invocation.0);
                let id = self.sim.submit(spec);
                self.jobs.insert(job.invocation.0, id);
            }
            JobPayload::Local { .. } => {
                panic!(
                    "SimBackend cannot execute in-process services; bind `{}` to a descriptor",
                    job.processor
                );
            }
            JobPayload::Fetch { transfer_seconds } => {
                let id = self
                    .sim
                    .submit_fetch(job.processor, transfer_seconds, job.invocation.0);
                self.jobs.insert(job.invocation.0, id);
            }
        }
        Ok(())
    }

    fn wait_next(&mut self) -> Option<BackendCompletion> {
        let c = self.sim.next_completion()?;
        self.jobs.remove(&c.tag);
        Some(Self::convert(c))
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        match self.sim.next_completion_until(deadline) {
            Some(c) => {
                self.jobs.remove(&c.tag);
                WaitOutcome::Completion(Self::convert(c))
            }
            None => WaitOutcome::TimedOut,
        }
    }

    fn cancel(&mut self, invocation: InvocationId) -> bool {
        match self.jobs.remove(&invocation.0) {
            Some(id) => self.sim.cancel(id),
            None => false,
        }
    }

    fn blacklist_ce(&mut self, ce: usize, blocked: bool) {
        self.sim.set_ce_blocked(ce, blocked);
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }
}

// ---------------------------------------------------------------------
// LocalBackend
// ---------------------------------------------------------------------

/// Real-thread backend: each submission spawns a worker thread (the
/// paper's per-call threads) and completions arrive over a channel.
pub struct LocalBackend {
    started: Instant,
    tx: std::sync::mpsc::Sender<BackendCompletion>,
    rx: std::sync::mpsc::Receiver<BackendCompletion>,
    in_flight: usize,
}

impl std::fmt::Debug for LocalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalBackend")
            .field("started", &self.started)
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

impl Default for LocalBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalBackend {
    pub fn new() -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        LocalBackend {
            started: Instant::now(),
            tx,
            rx,
            in_flight: 0,
        }
    }

    fn wall_now(&self) -> SimTime {
        SimTime::from_secs_f64(self.started.elapsed().as_secs_f64())
    }
}

impl Backend for LocalBackend {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        match job.payload {
            JobPayload::Local { service, inputs } => {
                let tx = self.tx.clone();
                let started = self.started;
                let invocation = job.invocation;
                self.in_flight += 1;
                std::thread::spawn(move || {
                    let t0 = SimTime::from_secs_f64(started.elapsed().as_secs_f64());
                    let result = service.invoke(&inputs);
                    let t1 = SimTime::from_secs_f64(started.elapsed().as_secs_f64());
                    let _ = tx.send(BackendCompletion {
                        invocation,
                        outputs: result.map(Some),
                        started_at: t0,
                        finished_at: t1,
                        ce: None,
                    });
                });
            }
            JobPayload::Grid { .. } => {
                panic!(
                    "LocalBackend cannot execute grid jobs; run `{}` on SimBackend",
                    job.processor
                );
            }
            JobPayload::Fetch { .. } => {
                // Cached results are already in process memory; on the
                // wall clock a fetch completes immediately.
                let now = self.wall_now();
                self.in_flight += 1;
                let _ = self.tx.send(BackendCompletion {
                    invocation: job.invocation,
                    outputs: Ok(None),
                    started_at: now,
                    finished_at: now,
                    ce: None,
                });
            }
        }
        Ok(())
    }

    fn wait_next(&mut self) -> Option<BackendCompletion> {
        if self.in_flight == 0 {
            return None;
        }
        let c = self.rx.recv().ok()?;
        self.in_flight -= 1;
        Some(c)
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        let remaining = deadline.since(self.wall_now());
        let dur = std::time::Duration::from_secs_f64(remaining.as_secs_f64());
        if self.in_flight == 0 {
            // Nothing can complete; honour the contract that the clock
            // reaches the deadline (a real backoff sleep).
            std::thread::sleep(dur);
            return WaitOutcome::TimedOut;
        }
        match self.rx.recv_timeout(dur) {
            Ok(c) => {
                self.in_flight -= 1;
                WaitOutcome::Completion(c)
            }
            Err(_) => WaitOutcome::TimedOut,
        }
    }

    fn cancel(&mut self, _invocation: InvocationId) -> bool {
        // A spawned worker thread cannot be stopped; its completion
        // will still arrive and the caller must discard it.
        false
    }

    fn now(&self) -> SimTime {
        self.wall_now()
    }
}

// ---------------------------------------------------------------------
// ScopedBackend
// ---------------------------------------------------------------------

/// A per-instance view of a shared backend, used by the enactment
/// daemon to multiplex many [`crate::WorkflowInstance`]s over one
/// backend. Every invocation tag submitted through the view is offset
/// into a disjoint namespace — `instance << 32 | local_tag` — so job
/// routing, timeout cancellation and abort-drain from one instance can
/// never reach a sibling's jobs. The daemon waits on the *raw* backend
/// and uses [`ScopedBackend::instance_of`] to route each completion to
/// its owner, then [`ScopedBackend::local_tag`] to restore the tag the
/// instance knows.
pub struct ScopedBackend<'a> {
    inner: &'a mut dyn Backend,
    base: u64,
}

impl std::fmt::Debug for ScopedBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedBackend")
            .field("instance", &(self.base >> 32))
            .finish_non_exhaustive()
    }
}

impl<'a> ScopedBackend<'a> {
    /// Wrap `inner`, namespacing every tag under `instance`.
    pub fn new(inner: &'a mut dyn Backend, instance: u32) -> Self {
        ScopedBackend {
            inner,
            base: u64::from(instance) << 32,
        }
    }

    /// Which instance a raw (namespaced) tag belongs to.
    pub fn instance_of(tag: u64) -> u32 {
        (tag >> 32) as u32
    }

    /// The instance-local tag inside a raw (namespaced) tag.
    pub fn local_tag(tag: u64) -> u64 {
        tag & 0xFFFF_FFFF
    }

    fn strip(&self, mut c: BackendCompletion) -> BackendCompletion {
        debug_assert_eq!(
            c.invocation.0 & !0xFFFF_FFFF,
            self.base,
            "completion crossed an instance boundary through a scoped wait"
        );
        c.invocation = InvocationId(Self::local_tag(c.invocation.0));
        c
    }
}

impl Backend for ScopedBackend<'_> {
    fn submit(&mut self, mut job: BackendJob) -> Result<(), MoteurError> {
        // A tag ≥ 2^32 would bleed into the instance bits: completions
        // for it would be routed to a *different* tenant and its own
        // enactor would hang waiting for a job that never returns. A
        // hard error (not a debug assertion) because release builds hit
        // it too.
        if job.invocation.0 > 0xFFFF_FFFF {
            return Err(MoteurError::new(format!(
                "instance-local tag {} overflows the 32-bit job namespace \
                 (instance {})",
                job.invocation.0,
                self.base >> 32
            )));
        }
        job.invocation = InvocationId(self.base | job.invocation.0);
        self.inner.submit(job)
    }

    /// Only meaningful while this instance's jobs are the only ones in
    /// flight (the one-shot path); the daemon waits on the raw backend.
    fn wait_next(&mut self) -> Option<BackendCompletion> {
        self.inner.wait_next().map(|c| self.strip(c))
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        match self.inner.wait_next_until(deadline) {
            WaitOutcome::Completion(c) => WaitOutcome::Completion(self.strip(c)),
            WaitOutcome::TimedOut => WaitOutcome::TimedOut,
        }
    }

    fn cancel(&mut self, invocation: InvocationId) -> bool {
        self.inner.cancel(InvocationId(self.base | invocation.0))
    }

    fn blacklist_ce(&mut self, ce: usize, blocked: bool) {
        self.inner.blacklist_ce(ce, blocked);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    fn grid_job(id: u64, secs: f64) -> BackendJob {
        BackendJob {
            invocation: InvocationId(id),
            processor: format!("p{id}"),
            payload: JobPayload::Grid {
                plan: Arc::new(JobPlan {
                    command_lines: vec!["x".into()],
                    fetch: vec![],
                    store: vec![],
                }),
                compute_seconds: secs,
            },
        }
    }

    #[test]
    fn virtual_backend_orders_by_duration() {
        let mut b = VirtualBackend::new();
        b.submit(grid_job(1, 30.0)).unwrap();
        b.submit(grid_job(2, 10.0)).unwrap();
        let first = b.wait_next().unwrap();
        assert_eq!(first.invocation, InvocationId(2));
        assert!((first.finished_at.as_secs_f64() - 10.0).abs() < 1e-9);
        let second = b.wait_next().unwrap();
        assert_eq!(second.invocation, InvocationId(1));
        assert!((b.now().as_secs_f64() - 30.0).abs() < 1e-9);
        assert!(b.wait_next().is_none());
    }

    #[test]
    fn virtual_backend_submissions_after_time_advances_stack_up() {
        let mut b = VirtualBackend::new();
        b.submit(grid_job(1, 10.0)).unwrap();
        b.wait_next().unwrap();
        b.submit(grid_job(2, 5.0)).unwrap(); // starts at t=10
        let c = b.wait_next().unwrap();
        assert!((c.finished_at.as_secs_f64() - 15.0).abs() < 1e-9);
        assert!((c.started_at.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn virtual_backend_runs_local_services_eagerly() {
        let svc = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
            Ok(vec![("out".into(), inputs[0].value.clone())])
        };
        let mut b = VirtualBackend::new();
        b.submit(BackendJob {
            invocation: InvocationId(9),
            processor: "local".into(),
            payload: JobPayload::Local {
                service: Arc::new(svc),
                inputs: vec![Token::from_source("s", 0, DataValue::from("v"))],
            },
        })
        .unwrap();
        let c = b.wait_next().unwrap();
        let outs = c.outputs.unwrap().unwrap();
        assert_eq!(outs[0].1.as_str(), Some("v"));
        assert_eq!(
            c.finished_at,
            SimTime::ZERO,
            "local calls cost no virtual time"
        );
    }

    #[test]
    fn sim_backend_runs_grid_jobs_with_overhead() {
        let mut b = SimBackend::new(GridConfig::egee_2006(), 5);
        b.submit(grid_job(1, 60.0)).unwrap();
        let c = b.wait_next().unwrap();
        assert_eq!(c.invocation, InvocationId(1));
        assert!(c.outputs.is_ok());
        assert!(c.finished_at.as_secs_f64() > 60.0, "overhead must exist");
        assert_eq!(b.now(), c.finished_at);
    }

    #[test]
    #[should_panic(expected = "cannot execute in-process services")]
    fn sim_backend_rejects_local_payloads() {
        let svc = |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> { Ok(vec![]) };
        let mut b = SimBackend::new(GridConfig::ideal(), 1);
        let _ = b.submit(BackendJob {
            invocation: InvocationId(1),
            processor: "x".into(),
            payload: JobPayload::Local {
                service: Arc::new(svc),
                inputs: vec![],
            },
        });
    }

    #[test]
    fn local_backend_runs_services_on_threads() {
        let svc = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
            let n = inputs[0].value.as_num().unwrap();
            Ok(vec![("out".into(), DataValue::from(n * 2.0))])
        };
        let mut b = LocalBackend::new();
        for i in 0..4 {
            b.submit(BackendJob {
                invocation: InvocationId(i),
                processor: "dbl".into(),
                payload: JobPayload::Local {
                    service: Arc::new(svc),
                    inputs: vec![Token::from_source("s", i as u32, DataValue::from(i as f64))],
                },
            })
            .unwrap();
        }
        let mut results = Vec::new();
        while let Some(c) = b.wait_next() {
            let outs = c.outputs.unwrap().unwrap();
            results.push((c.invocation.0, outs[0].1.as_num().unwrap()));
        }
        results.sort_by_key(|(i, _)| *i);
        assert_eq!(results, vec![(0, 0.0), (1, 2.0), (2, 4.0), (3, 6.0)]);
    }

    #[test]
    fn virtual_backend_cancel_suppresses_the_completion() {
        let mut b = VirtualBackend::new();
        b.submit(grid_job(1, 30.0)).unwrap();
        b.submit(grid_job(2, 10.0)).unwrap();
        assert!(b.cancel(InvocationId(2)));
        assert!(!b.cancel(InvocationId(2)), "double cancel is false");
        let only = b.wait_next().unwrap();
        assert_eq!(only.invocation, InvocationId(1));
        assert!(b.wait_next().is_none());
    }

    #[test]
    fn virtual_backend_wait_until_times_out_and_advances_the_clock() {
        let mut b = VirtualBackend::new();
        b.submit(grid_job(1, 100.0)).unwrap();
        match b.wait_next_until(SimTime::from_secs_f64(40.0)) {
            WaitOutcome::TimedOut => {}
            WaitOutcome::Completion(c) => panic!("early completion {c:?}"),
        }
        assert!((b.now().as_secs_f64() - 40.0).abs() < 1e-9);
        match b.wait_next_until(SimTime::from_secs_f64(500.0)) {
            WaitOutcome::Completion(c) => {
                assert_eq!(c.invocation, InvocationId(1));
                assert!((c.finished_at.as_secs_f64() - 100.0).abs() < 1e-9);
            }
            WaitOutcome::TimedOut => panic!("completion was due at t=100"),
        }
    }

    #[test]
    fn sim_backend_cancel_reaches_into_the_simulator() {
        let mut b = SimBackend::new(GridConfig::ideal(), 5);
        b.submit(grid_job(1, 60.0)).unwrap();
        b.submit(grid_job(2, 60.0)).unwrap();
        assert!(b.cancel(InvocationId(2)));
        let c = b.wait_next().unwrap();
        assert_eq!(c.invocation, InvocationId(1));
        assert!(b.wait_next().is_none());
    }

    #[test]
    fn sim_backend_reports_the_ce_of_the_final_attempt() {
        let mut b = SimBackend::new(GridConfig::egee_2006(), 5);
        b.submit(grid_job(1, 60.0)).unwrap();
        let c = b.wait_next().unwrap();
        assert!(c.ce.is_some(), "grid jobs ran somewhere: {c:?}");
    }

    #[test]
    fn scoped_backend_namespaces_tags_and_round_trips_completions() {
        let mut raw = VirtualBackend::new();
        {
            let mut scoped = ScopedBackend::new(&mut raw, 3);
            scoped.submit(grid_job(7, 10.0)).unwrap();
        }
        // The raw backend sees the namespaced tag…
        let c = raw.wait_next().unwrap();
        assert_eq!(c.invocation.0, (3u64 << 32) | 7);
        assert_eq!(ScopedBackend::instance_of(c.invocation.0), 3);
        assert_eq!(ScopedBackend::local_tag(c.invocation.0), 7);
        // …and a scoped wait strips it back to the local tag.
        let mut scoped = ScopedBackend::new(&mut raw, 3);
        scoped.submit(grid_job(7, 5.0)).unwrap();
        let c = scoped.wait_next().unwrap();
        assert_eq!(c.invocation, InvocationId(7));
    }

    #[test]
    fn scoped_backend_cancel_cannot_reach_a_sibling_instance() {
        let mut raw = VirtualBackend::new();
        ScopedBackend::new(&mut raw, 1)
            .submit(grid_job(7, 10.0))
            .unwrap();
        ScopedBackend::new(&mut raw, 2)
            .submit(grid_job(7, 20.0))
            .unwrap();
        // Instance 1 cancels its own tag 7; instance 2's tag 7 survives.
        assert!(ScopedBackend::new(&mut raw, 1).cancel(InvocationId(7)));
        let c = raw.wait_next().unwrap();
        assert_eq!(ScopedBackend::instance_of(c.invocation.0), 2);
        assert!(raw.wait_next().is_none());
        // Cancelling a tag the instance never submitted is a no-op.
        assert!(!ScopedBackend::new(&mut raw, 1).cancel(InvocationId(99)));
    }

    #[test]
    fn scoped_backend_rejects_tags_that_overflow_the_namespace() {
        // Regression: this used to be a debug_assert!, so release
        // builds silently corrupted the instance namespace — tag
        // 2^32 + 7 from instance 1 masqueraded as instance 2's tag 7.
        // It must be a hard error in every build profile.
        let mut raw = VirtualBackend::new();
        let mut scoped = ScopedBackend::new(&mut raw, 1);
        let err = scoped
            .submit(grid_job(1u64 << 32 | 7, 10.0))
            .expect_err("overflowing tag must be rejected");
        assert!(
            err.message().contains("overflows the 32-bit job namespace"),
            "unexpected error: {}",
            err.message()
        );
        // Nothing reached the raw backend.
        assert!(raw.wait_next().is_none());
        // The boundary tag itself is still fine.
        ScopedBackend::new(&mut raw, 1)
            .submit(grid_job(0xFFFF_FFFF, 1.0))
            .unwrap();
        assert!(raw.wait_next().is_some());
    }

    #[test]
    fn local_backend_propagates_service_errors() {
        let svc =
            |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> { Err("kaboom".into()) };
        let mut b = LocalBackend::new();
        b.submit(BackendJob {
            invocation: InvocationId(1),
            processor: "bad".into(),
            payload: JobPayload::Local {
                service: Arc::new(svc),
                inputs: vec![],
            },
        })
        .unwrap();
        let c = b.wait_next().unwrap();
        assert_eq!(c.outputs.unwrap_err(), "kaboom");
        assert!(b.wait_next().is_none());
    }
}
