//! The workflow enactor: MOTEUR's execution engine.
//!
//! Combines, per the paper, four optimization levels:
//!
//! - **workflow parallelism** (§3.2) — independent graph branches fire
//!   concurrently; inherent in the event loop, always on;
//! - **data parallelism** (§3.3) — with DP on, a service may have any
//!   number of invocations in flight; with DP off, at most one;
//! - **service parallelism** (§3.4) — with SP on, a service fires as
//!   soon as an input match exists (pipelining); with SP off, a service
//!   behaves like a stage barrier: it fires only once all its data
//!   predecessors are *exhausted* (will produce nothing more);
//! - **job grouping** (§3.6) — applied as a graph transform before
//!   enactment (see [`crate::grouping`]).
//!
//! Synchronization processors (§2.3) consume their entire input streams
//! in a single invocation once their upstream is exhausted. Cycles
//! (optimization loops, Fig. 2) are supported: processors inside a
//! strongly connected component ignore the SP-off stage barrier for
//! intra-cycle predecessors, and exhaustion of a cycle is detected
//! collectively.
//!
//! [`Enactment`] is the one way in; behind it is one
//! [`WorkflowInstance`], whose `impl` is split by decision over this
//! file (instance, wait loop, `finish`) and `ports`, `compose`,
//! `attempts` and `completion` — DESIGN §4.3 maps which owns what.

mod attempts;
#[doc(hidden)]
pub mod compat;
mod compile;
mod completion;
mod compose;
mod ports;

use crate::backend::{Backend, BackendJob, IdHasher, InvocationId, JobPayload, WaitOutcome};
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::ft::{FtConfig, QuarantineEntry};
use crate::graph::{ProcId, Workflow};
use crate::iterate::{MatchEngine, MatchedSet};
use crate::obs::prof::Subsystem;
use crate::obs::{Obs, TraceEvent};
use crate::store::DataStore;
use crate::token::Token;
use crate::trace::WorkflowResult;
use crate::value::DataValue;
use attempts::PendingJob;
pub(crate) use compile::{CompileBits, CompiledWorkflow};
use moteur_gridsim::{Rng, SimTime};
use ports::SourceCursor;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The workflow's input data: one value stream per source name (the
/// on-disk form is the input data-set XML language, see `moteur-scufl`).
/// Each stream is shared, never copied: an enactment's source cursor
/// reads it in place.
#[derive(Debug, Clone, Default)]
pub struct InputData {
    streams: HashMap<String, Arc<Vec<DataValue>>>,
}

impl InputData {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(mut self, source: impl Into<String>, values: Vec<DataValue>) -> Self {
        self.streams.insert(source.into(), Arc::new(values));
        self
    }

    pub fn get(&self, source: &str) -> Option<&[DataValue]> {
        self.streams.get(source).map(|values| values.as_slice())
    }

    /// The shared stream of `source`.
    fn stream(&self, source: &str) -> Option<&Arc<Vec<DataValue>>> {
        self.streams.get(source)
    }
}

/// One enactment of `workflow` over `inputs`: the crate's entry point
/// (the crate-level quickstart runs one).
#[derive(Debug)]
pub struct Enactment<'a> {
    workflow: &'a Workflow,
    inputs: &'a InputData,
    config: EnactorConfig,
    ft: Option<&'a FtConfig>,
    obs: Obs,
    store: Option<&'a mut DataStore>,
}

impl<'a> Enactment<'a> {
    /// Untraced, without a data manager, under [`FtConfig::default`]
    /// (immediate resubmission of a failed job, no timeout, abort on a
    /// terminal failure).
    pub fn new(workflow: &'a Workflow, inputs: &'a InputData, config: EnactorConfig) -> Self {
        Enactment {
            workflow,
            inputs,
            config,
            ft: None,
            obs: Obs::off(),
            store: None,
        }
    }

    /// Enact under an explicit fault-tolerance configuration: retry
    /// policies, timeouts with resubmission or speculative replication,
    /// CE blacklisting and graceful degradation (see [`FtConfig`]).
    pub fn ft(mut self, ft: &'a FtConfig) -> Self {
        self.ft = Some(ft);
        self
    }

    /// Emit a [`TraceEvent`] through `obs` at every enactment step.
    /// With [`Obs::off`] emission sites cost one branch and build
    /// nothing.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach a provenance-keyed data manager (`None` detaches it): a
    /// descriptor-bound invocation the store knows is replayed at the
    /// store's transfer cost instead of running its grid job, and
    /// completed invocations are recorded back, so a second run over
    /// the same inputs short-circuits all deterministic grid work (see
    /// [`DataStore`]). Quarantined invocations never complete, so a
    /// degraded run cannot poison the store.
    pub fn store(mut self, store: Option<&'a mut DataStore>) -> Self {
        self.store = store;
        self
    }

    /// Enact on `backend`: compile the workflow, start one instance,
    /// wait on the backend until it is idle, finish it.
    pub fn run<B: Backend>(self, backend: &mut B) -> Result<WorkflowResult, MoteurError> {
        let ft = self.ft.cloned().unwrap_or_default();
        let mut ctx = EnactCtx {
            backend,
            store: self.store,
        };
        let mut instance = WorkflowInstance::start(
            CompiledWorkflow::compile(self.workflow, &self.config)?,
            self.inputs,
            self.config,
            ft,
            &mut ctx,
            self.obs,
        )?;
        {
            let prof = instance.obs.prof().clone();
            let _prof = prof.scope(Subsystem::EnactorLoop);
            if let Err(e) = instance.wait_until_idle(&mut ctx) {
                // A workflow abort must not abandon in-flight
                // invocations: cancel their backend jobs and close
                // their spans before the error propagates.
                instance.abort(&mut ctx);
                return Err(e);
            }
        }
        let now = ctx.backend.now();
        instance.finish(now)
    }
}

/// The mutable environment a [`WorkflowInstance`] steps against: the
/// execution backend and (optionally) the provenance-keyed data
/// manager. Borrowed per call rather than owned by the instance so a
/// daemon can share one backend and one memo table across many live
/// instances — each step reborrows them for exactly its duration.
///
/// `B` stays generic (instead of `dyn Backend`) so [`Enactment::run`]
/// keeps its statically dispatched hot path; a multiplexer that needs
/// erasure can instantiate it with a concrete adapter such as
/// [`crate::backend::ScopedBackend`].
pub struct EnactCtx<'b, B: Backend + ?Sized> {
    /// Where fired invocations run.
    pub backend: &'b mut B,
    /// Provenance-keyed data manager; `None` → memoization disabled.
    pub store: Option<&'b mut DataStore>,
}

impl<B: Backend + ?Sized> std::fmt::Debug for EnactCtx<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnactCtx")
            .field("store", &self.store.as_deref().map(DataStore::stats))
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for WorkflowInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowInstance")
            .field("workflow", &self.compiled.workflow.name)
            .field("inflight", &self.inflight_total)
            .field("jobs_submitted", &self.jobs_submitted)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

struct ProcState {
    engine: MatchEngine,
    ready: VecDeque<MatchedSet>,
    inflight: usize,
    barrier_fired: bool,
    /// For synchronization processors: the collected streams, per port.
    sync_buffers: Vec<Vec<Token>>,
    /// Currently blocked on a full downstream port. Tracked so the
    /// suspend/resume trace events fire once per transition rather
    /// than once per blocked firing attempt.
    suspended: bool,
}

/// Smallest window of completion-duration samples kept per processor
/// for the adaptive timeout statistics. The window is a ring
/// (overwritten oldest-first) of `max(port_capacity, SAMPLE_WINDOW)`
/// samples, so it stays O(capacity) however long the stream is.
const SAMPLE_WINDOW: usize = 512;

/// A resumable workflow enactment: the paper's event loop broken into
/// cooperative steps so a daemon can multiplex many live instances
/// over one shared backend and one shared data manager.
///
/// An instance owns all per-run state, shares its [`CompiledWorkflow`]
/// with every other instance started from it, and holds **neither**
/// the backend nor the store — those are borrowed per step through an
/// [`EnactCtx`], which is what lets N instances share them.
/// [`Enactment::run`] is a single-instance session:
/// [`WorkflowInstance::start`], a wait loop over the same steps,
/// [`WorkflowInstance::finish`].
pub struct WorkflowInstance {
    /// The (post-grouping) workflow and what was derived from it.
    /// Shared, so a firing can hold the processor's binding by
    /// reference count while it mutates the rest of the instance.
    compiled: Arc<CompiledWorkflow>,
    config: EnactorConfig,
    ft: FtConfig,
    rng: Rng,
    states: Vec<ProcState>,
    pending: HashMap<u64, PendingJob, IdHasher>,
    /// The deadline index: per processor, its armed invocations keyed
    /// `(window_start, logical id)`. Every change to a pending
    /// invocation goes through `insert_pending`, `update_pending` or
    /// `remove_pending`, which keep this in step.
    armed: Vec<BTreeSet<(SimTime, u64)>>,
    next_invocation: u64,
    jobs_submitted: usize,
    inflight_total: usize,
    /// Stage-in + stage-out bytes committed to the grid across every
    /// submitted attempt (retries and replicas transfer again). The
    /// ground truth the per-link timeline series must sum to.
    bytes_transferred: u64,
    /// Successfully completed logical invocations, for SLO projection.
    completed: usize,
    /// Completed workflow invocations, each member of a batch counted.
    completed_invocations: usize,
    /// Whether the last SLO projection exceeded the threshold (the
    /// breach event fires on the false→true transition only).
    slo_breached: bool,
    /// The first `port_capacity` tokens each sink received, by
    /// processor id (empty for everything that is not a sink).
    sink_outputs: Vec<Vec<Token>>,
    /// Tokens delivered per sink, by processor id — the full tally.
    sink_counts: Vec<usize>,
    /// Unemitted source streams, one cursor per source.
    source_cursors: Vec<SourceCursor>,
    /// Per processor, "will emit no more tokens": refilled by every
    /// firing round, kept here so a round allocates nothing.
    exhausted: Vec<bool>,
    /// Per-processor write cursor into the `proc_samples` ring.
    sample_cursors: Vec<usize>,
    start_time: SimTime,
    obs: Obs,
    /// Fresh attempt tag → logical invocation id. Same-tag failure
    /// resubmits need no entry; only replicas and timeout resubmits
    /// are registered here.
    attempt_of: HashMap<u64, u64, IdHasher>,
    /// Attempt tags whose backend job could not be retracted
    /// ([`Backend::cancel`] returned `false`); their late completions
    /// are dropped on arrival.
    cancelled_attempts: HashSet<u64, IdHasher>,
    /// Backoff queue: `(due time, logical invocation)` awaiting
    /// resubmission. Deferred invocations still count as in flight.
    deferred: Vec<(SimTime, u64)>,
    /// Per-processor submission→delivery durations of successful
    /// completions, feeding percentile-adaptive timeouts.
    proc_samples: Vec<Vec<f64>>,
    /// Consecutive enactor-visible failures per computing element.
    ce_failures: HashMap<usize, u32>,
    blacklisted: HashSet<usize>,
    quarantined: Vec<QuarantineEntry>,
}

impl WorkflowInstance {
    /// Prepare a resumable instance of `compiled` over `inputs`:
    /// per-run state and source-token emission — with
    /// [`CompiledWorkflow::compile`], everything [`Enactment::run`]
    /// does before its first backend wait. `config` must carry the
    /// bits `compiled` was compiled under.
    ///
    /// The returned instance holds no backend or store borrow; step it
    /// with [`WorkflowInstance::pump`], [`WorkflowInstance::deliver`]
    /// and [`WorkflowInstance::on_timer`] against any [`EnactCtx`],
    /// then close it with [`WorkflowInstance::finish`] (or
    /// [`WorkflowInstance::abort`]).
    pub fn start<B: Backend + ?Sized>(
        compiled: Arc<CompiledWorkflow>,
        inputs: &InputData,
        config: EnactorConfig,
        ft: FtConfig,
        ctx: &mut EnactCtx<'_, B>,
        obs: Obs,
    ) -> Result<Self, MoteurError> {
        debug_assert_eq!(compiled.bits(), CompileBits::of(&config));
        let mut instance = Self::new(compiled, config, ft, ctx.backend.now(), obs);
        instance.emit_sources(inputs, ctx)?;
        Ok(instance)
    }

    /// [`WorkflowInstance::pump_budgeted`] without a budget: fire to
    /// fixpoint, exactly one iteration of the one-shot wait loop's
    /// firing half.
    pub fn pump<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<usize, MoteurError> {
        self.pump_budgeted(ctx, None)
    }

    /// Logical invocations currently in flight (running at the
    /// backend or waiting in the backoff queue).
    pub fn inflight(&self) -> usize {
        self.inflight_total
    }

    /// Backend jobs submitted so far (cache replays excluded).
    pub fn jobs_submitted(&self) -> usize {
        self.jobs_submitted
    }

    fn new(
        compiled: Arc<CompiledWorkflow>,
        config: EnactorConfig,
        ft: FtConfig,
        start_time: SimTime,
        obs: Obs,
    ) -> Self {
        let workflow = &compiled.workflow;
        let states = workflow
            .processors
            .iter()
            .map(|p| ProcState {
                engine: MatchEngine::new(p.iteration, p.inputs.len().max(1)),
                ready: VecDeque::new(),
                inflight: 0,
                barrier_fired: false,
                sync_buffers: vec![Vec::new(); p.inputs.len()],
                suspended: false,
            })
            .collect();
        let n_procs = workflow.processors.len();
        WorkflowInstance {
            compiled,
            config,
            ft,
            rng: Rng::new(config.seed ^ 0x4D4F_5445_5552), // "MOTEUR"
            states,
            pending: HashMap::default(),
            armed: vec![BTreeSet::new(); n_procs],
            next_invocation: 0,
            jobs_submitted: 0,
            inflight_total: 0,
            bytes_transferred: 0,
            completed: 0,
            completed_invocations: 0,
            slo_breached: false,
            sink_outputs: vec![Vec::new(); n_procs],
            sink_counts: vec![0; n_procs],
            source_cursors: Vec::new(),
            exhausted: vec![false; n_procs],
            sample_cursors: vec![0; n_procs],
            start_time,
            obs,
            attempt_of: HashMap::default(),
            cancelled_attempts: HashSet::default(),
            deferred: Vec::new(),
            proc_samples: vec![Vec::new(); n_procs],
            ce_failures: HashMap::new(),
            blacklisted: HashSet::new(),
            quarantined: Vec::new(),
        }
    }

    /// The one-shot wait loop: step the instance against the backend
    /// until nothing is in flight.
    fn wait_until_idle<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        loop {
            self.pump(ctx)?;
            if self.inflight_total == 0 {
                return self.deadlock_check();
            }
            let outcome = match self.next_wake() {
                Some(deadline) => ctx.backend.wait_next_until(deadline),
                None => WaitOutcome::Completion(
                    ctx.backend
                        .wait_next()
                        .ok_or_else(|| MoteurError::new("backend starved with jobs in flight"))?,
                ),
            };
            match outcome {
                WaitOutcome::Completion(c) => self.deliver(ctx, c)?,
                WaitOutcome::TimedOut => self.on_timer(ctx)?,
            }
        }
    }

    /// The wait loop's post-conditions: nothing runnable may be left
    /// behind once the instance reports itself idle.
    fn deadlock_check(&self) -> Result<(), MoteurError> {
        for c in &self.source_cursors {
            let left = c.remaining();
            if left > 0 {
                return Err(MoteurError::new(format!(
                    "deadlock: source `{}` still holds {left} unemitted items",
                    c.name
                )));
            }
        }
        for (i, st) in self.states.iter().enumerate() {
            let p = &self.compiled.workflow.processors[i];
            if !st.ready.is_empty() {
                return Err(MoteurError::new(format!(
                    "deadlock: `{}` still has {} ready invocations",
                    p.name,
                    st.ready.len()
                )));
            }
            if p.synchronization && !st.barrier_fired {
                return Err(MoteurError::new(format!(
                    "deadlock: synchronization processor `{}` never fired",
                    p.name
                )));
            }
        }
        Ok(())
    }

    /// Consume an idle instance and produce its [`WorkflowResult`].
    ///
    /// `now` is the backend clock at completion (the instance holds no
    /// backend borrow, so the caller supplies it). Fails with the same
    /// deadlock post-conditions the one-shot wait loop enforces when
    /// runnable work was left behind.
    pub fn finish(self, now: SimTime) -> Result<WorkflowResult, MoteurError> {
        self.deadlock_check()?;
        // Name-keyed on the way out; a sink nothing reached has no entry.
        let mut sink_outputs = HashMap::new();
        let mut sink_counts = HashMap::new();
        let tallies = self.sink_outputs.into_iter().zip(self.sink_counts);
        for (p, (tokens, count)) in tallies.enumerate().filter(|(_, (_, n))| *n > 0) {
            let name = &self.compiled.workflow.processors[p].name;
            sink_outputs.insert(name.clone(), tokens);
            sink_counts.insert(name.clone(), count);
        }
        Ok(WorkflowResult {
            sink_outputs,
            sink_counts,
            makespan: now.since(self.start_time),
            completed_invocations: self.completed_invocations,
            jobs_submitted: self.jobs_submitted,
            bytes_transferred: self.bytes_transferred,
            quarantined: self.quarantined,
        })
    }

    /// The next unused tag: logical invocations and the fresh attempt
    /// tags of replicas and timeout resubmits share one numbering.
    fn next_id(&mut self) -> InvocationId {
        let id = InvocationId(self.next_invocation);
        self.next_invocation += 1;
        id
    }

    /// The backend job carrying `payload` for `proc` under `tag`.
    fn backend_job(&self, proc: ProcId, tag: InvocationId, payload: JobPayload) -> BackendJob {
        BackendJob {
            invocation: tag,
            processor: Arc::clone(&self.compiled.names[proc.0]),
            payload,
        }
    }

    /// Sample the enactor-side gauges into the trace: in-flight and
    /// backoff-deferred invocations, quarantined items, and the data
    /// manager's occupancy. Called after every transition that moves
    /// one of them; each logical invocation holds exactly one
    /// `inflight` unit from submission to its terminal event, however
    /// many attempts (retries, replicas) it spawns.
    fn emit_gauges<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) {
        if !self.obs.enabled() {
            return;
        }
        let (cache_entries, cache_bytes) = ctx.store.as_deref().map_or((0, 0), |s| {
            let stats = s.stats();
            (stats.entries, stats.bytes)
        });
        self.obs.record(&TraceEvent::EnactorGauges {
            at: ctx.backend.now(),
            inflight: self.inflight_total,
            deferred: self.deferred.len(),
            quarantined: self.quarantined.len(),
            cache_entries,
            cache_bytes,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests;
