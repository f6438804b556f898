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

use crate::backend::{
    Backend, BackendCompletion, BackendJob, InvocationId, JobPayload, ServiceOutputs, WaitOutcome,
};
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::ft::{FtConfig, QuarantineEntry, TimeoutAction};
use crate::graph::{ProcId, ProcessorKind, Workflow};
use crate::iterate::{MatchEngine, MatchedSet};
use crate::obs::prof::Subsystem;
use crate::obs::{Obs, TraceEvent};
use crate::service::{CostModel, GroupSource, GroupedBinding, ServiceBinding, ServiceProfile};
use crate::store::{
    descriptor_digest, group_digest, invocation_key, DataStore, HistoryXmlCache, InvocationKey,
};
use crate::token::{DataIndex, History, Token};
use crate::trace::{InvocationRecord, WorkflowResult};
use crate::value::DataValue;
use moteur_gridsim::{Rng, SimDuration, SimTime};
use moteur_wrapper::{
    compose_group, plan_single, Binding, Catalog, ExecutableDescriptor, GroupMember, JobPlan,
    TransferFile,
};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The workflow's input data: one value stream per source name (the
/// on-disk form is the input data-set XML language, see `moteur-scufl`).
#[derive(Debug, Clone, Default)]
pub struct InputData {
    streams: HashMap<String, Vec<DataValue>>,
}

impl InputData {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(mut self, source: impl Into<String>, values: Vec<DataValue>) -> Self {
        self.streams.insert(source.into(), values);
        self
    }

    pub fn get(&self, source: &str) -> Option<&[DataValue]> {
        self.streams.get(source).map(Vec::as_slice)
    }
}

/// Enact `workflow` over `inputs` on `backend` with the given
/// configuration. This is the crate's main entry point.
pub fn run<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    backend: &mut B,
) -> Result<WorkflowResult, MoteurError> {
    enact(workflow, inputs, config, None, backend, Obs::off(), None)
}

/// [`run`] with observability: every enactment step emits a
/// [`TraceEvent`] through `obs`. With [`Obs::off`] this is exactly
/// [`run`] — emission sites cost one branch and build nothing.
pub fn run_observed<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    backend: &mut B,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    enact(workflow, inputs, config, None, backend, obs, None)
}

/// [`run_observed`] with a provenance-keyed data manager: before each
/// descriptor-bound invocation is handed to the grid, `store` is
/// consulted with its invocation key; on a hit the grid job is elided
/// and the memoized outputs are replayed at the store's configured
/// transfer cost. Completed invocations are recorded back into the
/// store, so a second run over the same inputs (same process or a
/// warm restart from a persisted store) short-circuits all
/// deterministic grid work.
pub fn run_cached<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    backend: &mut B,
    obs: Obs,
    store: &mut DataStore,
) -> Result<WorkflowResult, MoteurError> {
    enact(workflow, inputs, config, None, backend, obs, Some(store))
}

/// [`run_observed`] under an explicit fault-tolerance configuration:
/// per-processor retry policies (fixed / exponential / jittered
/// backoff), timeout-triggered resubmission or speculative replication
/// (first completion wins), CE blacklisting, and — with
/// [`FtConfig::continue_on_error`] — graceful degradation: a terminally
/// failed data item and its history-tree descendants are quarantined
/// instead of aborting the workflow, and surface in
/// [`WorkflowResult::quarantined`].
pub fn run_fault_tolerant<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut B,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    enact(workflow, inputs, config, Some(ft), backend, obs, None)
}

/// [`run_fault_tolerant`] with a provenance-keyed data manager (see
/// [`run_cached`]). Quarantined invocations never complete, so their
/// outputs are never memoized — a degraded run cannot poison the store.
pub fn run_fault_tolerant_cached<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut B,
    obs: Obs,
    store: &mut DataStore,
) -> Result<WorkflowResult, MoteurError> {
    enact(
        workflow,
        inputs,
        config,
        Some(ft),
        backend,
        obs,
        Some(store),
    )
}

/// The one-shot session behind every `run*` entry point: start one
/// instance, wait on the backend until it is idle, finish it. Without
/// an explicit `ft`, the configuration's single retry counter is
/// expressed as a fixed-policy fault-tolerance configuration.
fn enact<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: Option<&FtConfig>,
    backend: &mut B,
    obs: Obs,
    store: Option<&mut DataStore>,
) -> Result<WorkflowResult, MoteurError> {
    let ft = ft
        .cloned()
        .unwrap_or_else(|| FtConfig::from_legacy(config.max_job_retries));
    let mut ctx = EnactCtx { backend, store };
    let mut instance = WorkflowInstance::start(workflow, inputs, config, ft, &mut ctx, obs)?;
    instance.event_loop(&mut ctx)?;
    let now = ctx.backend.now();
    instance.finish(now)
}

/// The mutable environment a [`WorkflowInstance`] steps against: the
/// execution backend and (optionally) the provenance-keyed data
/// manager. Borrowed per call rather than owned by the instance so a
/// daemon can share one backend and one memo table across many live
/// instances — each step reborrows them for exactly its duration.
///
/// `B` stays generic (instead of `dyn Backend`) so the one-shot entry
/// points keep their statically dispatched hot path; a multiplexer
/// that needs erasure can instantiate it with a concrete adapter such
/// as [`crate::backend::ScopedBackend`].
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
            .field("workflow", &self.workflow.name)
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

/// One source's unemitted input stream. The enactor pulls items off
/// the cursor one at a time, by move, while the source's downstream
/// ports have room — the head of the end-to-end back-pressure chain.
/// With unbounded ports there is always room, so the first pump drains
/// every cursor.
struct SourceCursor {
    proc: ProcId,
    name: String,
    values: std::vec::IntoIter<DataValue>,
    /// Stream position of the next item to emit.
    next: u32,
}

/// Smallest window of completion-duration samples kept per processor
/// for the adaptive timeout statistics. The window is a ring
/// (overwritten oldest-first) of `max(port_capacity, SAMPLE_WINDOW)`
/// samples, so it stays O(capacity) however long the stream is.
const SAMPLE_WINDOW: usize = 512;

/// One workflow invocation carried by a backend job (batched grid jobs
/// carry several).
struct PendEntry {
    index: DataIndex,
    input_histories: Vec<Arc<History>>,
    /// Pre-synthesised output tokens for grid jobs (`None` → the
    /// completion carries real outputs from a local service).
    grid_outputs: Option<ServiceOutputs>,
    /// `Some` when the data manager missed on this invocation: record
    /// the outputs under this key once the job completes.
    cache_key: Option<InvocationKey>,
}

struct PendingJob {
    proc: ProcId,
    entries: Vec<PendEntry>,
    /// Retained for enactor-level resubmission of failed grid jobs.
    payload: JobPayload,
    retries: u32,
    submitted: SimTime,
    /// Attempt tags currently live at the backend. Failure resubmits
    /// reuse the logical tag (the failed attempt has terminally
    /// completed); timeout resubmits and speculative replicas carry
    /// fresh tags. Empty while the invocation waits in the backoff
    /// queue.
    attempts: Vec<u64>,
    /// When the current timeout window opened: original submission,
    /// restarted on every resubmission and extended on every replica.
    window_start: SimTime,
    /// True once timeouts stopped applying (replica cap reached, or a
    /// cache replay that cannot time out).
    muted: bool,
    /// Speculative replicas launched so far.
    replicas: u32,
}

impl PendingJob {
    /// When the timeout window this invocation is *armed* under opened:
    /// `None` while timeouts do not apply to it (muted, or waiting in
    /// the backoff queue with no live attempt). Its key in the
    /// processor's deadline index.
    fn armed_since(&self) -> Option<SimTime> {
        (!self.muted && !self.attempts.is_empty()).then_some(self.window_start)
    }
}

/// The workflow's links, compiled once at [`WorkflowInstance::start`]
/// so that routing a token, checking port room and checking control
/// links read a per-processor list instead of scanning every link.
struct Routes {
    /// `targets[proc][out_port]` → the `(consumer, in_port)` ends of
    /// the links leaving that port, in link order.
    targets: Vec<Vec<Vec<(ProcId, usize)>>>,
    /// Per processor, the consumers on its *bounded* outgoing edges.
    /// Sinks and synchronization barriers are unbounded collection
    /// points, intra-cycle edges must buffer whole streams, and with SP
    /// off every stage is a barrier: those edges never fill and are
    /// left out here, once.
    bounded: Vec<Vec<usize>>,
    /// Per processor, the processors a control link orders before it.
    control_before: Vec<Vec<usize>>,
}

impl Routes {
    /// `workflow` has passed [`Workflow::validate`], so every link end
    /// names an existing processor and port.
    fn compile(
        workflow: &Workflow,
        config: &EnactorConfig,
        scc_ids: &[usize],
        in_cycle: &[bool],
    ) -> Self {
        let n = workflow.processors.len();
        let mut targets: Vec<Vec<Vec<(ProcId, usize)>>> = workflow
            .processors
            .iter()
            .map(|p| vec![Vec::new(); p.outputs.len()])
            .collect();
        let mut bounded = vec![Vec::new(); n];
        for l in &workflow.links {
            let (p, q) = (l.from.proc.0, l.to.proc.0);
            targets[p][l.from.port].push((l.to.proc, l.to.port));
            let consumer = &workflow.processors[q];
            let collects = consumer.kind != ProcessorKind::Service || consumer.synchronization;
            let intra_cycle = in_cycle[p] && scc_ids[q] == scc_ids[p];
            if config.service_parallelism && !collects && !intra_cycle {
                bounded[p].push(q);
            }
        }
        let mut control_before = vec![Vec::new(); n];
        for &(before, after) in &workflow.control {
            control_before[after.0].push(before.0);
        }
        Routes {
            targets,
            bounded,
            control_before,
        }
    }
}

/// A resumable workflow enactment: the paper's event loop broken into
/// cooperative steps so a daemon can multiplex many live instances
/// over one shared backend and one shared data manager.
///
/// An instance owns its (post-grouping) workflow and all per-run
/// state, but **not** the backend or the store — those are borrowed
/// per step through an [`EnactCtx`], which is what lets N instances
/// share them. The one-shot entry points ([`run`] and friends) are
/// now a single-instance session: [`WorkflowInstance::start`], the
/// same wait loop, [`WorkflowInstance::finish`].
pub struct WorkflowInstance {
    /// Shared so a firing can hold the processor's binding by
    /// reference count while it mutates the rest of the instance.
    workflow: Arc<Workflow>,
    config: EnactorConfig,
    ft: FtConfig,
    rng: Rng,
    states: Vec<ProcState>,
    /// SCC id per processor and whether that SCC is a real cycle.
    scc_ids: Vec<usize>,
    in_cycle: Vec<bool>,
    routes: Routes,
    pending: HashMap<u64, PendingJob>,
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
    /// Per-processor write cursor into the `proc_samples` ring.
    sample_cursors: Vec<usize>,
    records: Vec<InvocationRecord>,
    start_time: SimTime,
    obs: Obs,
    /// Memoized history-tree serialisations shared by every probe and
    /// insert of this run: `provenance_key` renders each distinct tree
    /// once instead of once per call.
    history_xml: HistoryXmlCache,
    /// Per-processor service digest: `Some` for deterministic
    /// descriptor- or group-bound processors when a store is attached,
    /// `None` for everything uncacheable (local bindings, sources,
    /// sinks, non-deterministic descriptors).
    digests: Vec<Option<u64>>,
    /// Fresh attempt tag → logical invocation id. Same-tag failure
    /// resubmits need no entry; only replicas and timeout resubmits
    /// are registered here.
    attempt_of: HashMap<u64, u64>,
    /// Attempt tags whose backend job could not be retracted
    /// ([`Backend::cancel`] returned `false`); their late completions
    /// are dropped on arrival.
    cancelled_attempts: HashSet<u64>,
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

/// Outcome of consulting the data manager for one ready invocation.
enum CacheProbe {
    /// Caching disabled, or this invocation is not memoizable.
    Uncached,
    /// Memoized result: replay `outputs` after a simulated transfer.
    Hit {
        outputs: ServiceOutputs,
        transfer_seconds: f64,
    },
    /// Memoizable but unknown: record under this key on completion.
    Miss(InvocationKey),
}

impl WorkflowInstance {
    /// Prepare a resumable instance: preflight lint, job grouping,
    /// graph validation and source-token emission — everything the
    /// one-shot entry points do before their first backend wait.
    ///
    /// The returned instance holds no backend or store borrow; step it
    /// with [`WorkflowInstance::pump`], [`WorkflowInstance::deliver`]
    /// and [`WorkflowInstance::on_timer`] against any [`EnactCtx`],
    /// then close it with [`WorkflowInstance::finish`] (or
    /// [`WorkflowInstance::abort`]).
    pub fn start<B: Backend + ?Sized>(
        workflow: &Workflow,
        inputs: &InputData,
        config: EnactorConfig,
        ft: FtConfig,
        ctx: &mut EnactCtx<'_, B>,
        obs: Obs,
    ) -> Result<Self, MoteurError> {
        if config.preflight {
            // Error-severity lint findings are exactly the structural
            // conditions under which enactment would panic, deadlock or
            // silently drop data — refuse them up front with a typed
            // error instead. Run on the pre-grouping workflow so
            // findings carry the source spans of the workflow the user
            // wrote.
            let findings = crate::lint::lint_errors(workflow);
            if !findings.is_empty() {
                let summary = findings
                    .diagnostics
                    .iter()
                    .map(|d| format!("[{}] {}", d.code, d.message))
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(MoteurError::lint(findings.errors(), summary));
            }
        }
        let workflow = if config.job_grouping {
            crate::grouping::group_workflow(workflow)?
        } else {
            workflow.clone()
        };
        workflow.validate()?;
        let mut instance = Self::new(workflow, config, ft, ctx, obs);
        instance.emit_sources(inputs, ctx)?;
        Ok(instance)
    }

    /// Advance the instance without waiting: fire every ready
    /// invocation the configuration (and `budget`) permits, then
    /// resubmit any backoff-deferred work that has come due. Returns
    /// how many invocations were dispatched to the backend.
    pub fn pump_budgeted<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        budget: Option<usize>,
    ) -> Result<usize, MoteurError> {
        let fired = self.fire_phase_budgeted(ctx, budget)?;
        self.service_deferred(ctx)?;
        Ok(fired)
    }

    /// [`WorkflowInstance::pump_budgeted`] without a budget: fire to
    /// fixpoint, exactly one iteration of the one-shot event loop's
    /// firing half.
    pub fn pump<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<usize, MoteurError> {
        self.pump_budgeted(ctx, None)
    }

    /// Deliver one backend completion addressed to this instance. On
    /// error the workflow has terminally failed; the caller must
    /// [`WorkflowInstance::abort`] it so no backend job is left behind.
    pub fn deliver<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        completion: BackendCompletion,
    ) -> Result<(), MoteurError> {
        self.handle_completion(ctx, completion)
    }

    /// Act on every pending invocation whose timeout window has
    /// expired and every backoff deferral that has come due at the
    /// backend clock. Call after a backend wait timed out at
    /// [`WorkflowInstance::next_wake`].
    pub fn on_timer<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        self.handle_timeouts(ctx)
    }

    /// Cancel every in-flight attempt of this instance at the backend
    /// and drop its backoff queue. Through a
    /// [`crate::backend::ScopedBackend`] this retracts only the
    /// instance's own attempt tags — sibling instances sharing the
    /// underlying backend are untouched.
    pub fn abort<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) {
        self.drain_pending(ctx);
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

    /// Successfully completed logical invocations so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Data items quarantined under `continue_on_error` so far.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Name of the (post-grouping) workflow this instance enacts.
    pub fn workflow_name(&self) -> &str {
        &self.workflow.name
    }

    fn new<B: Backend + ?Sized>(
        workflow: Workflow,
        config: EnactorConfig,
        ft: FtConfig,
        ctx: &mut EnactCtx<'_, B>,
        obs: Obs,
    ) -> Self {
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
        let scc_ids = workflow.scc_ids();
        let mut scc_sizes: HashMap<usize, usize> = HashMap::new();
        for &id in &scc_ids {
            *scc_sizes.entry(id).or_insert(0) += 1;
        }
        let in_cycle: Vec<bool> = (0..workflow.processors.len())
            .map(|v| {
                scc_sizes[&scc_ids[v]] > 1
                    || workflow
                        .links
                        .iter()
                        .any(|l| l.from.proc.0 == v && l.to.proc.0 == v)
            })
            .collect();
        let digests = if ctx.store.is_some() {
            workflow
                .processors
                .iter()
                .map(|p| match &p.binding {
                    Some(ServiceBinding::Descriptor {
                        descriptor,
                        profile,
                    }) if !descriptor.nondeterministic => {
                        Some(descriptor_digest(descriptor, profile))
                    }
                    Some(ServiceBinding::Grouped(g))
                        if g.stages.iter().all(|s| !s.descriptor.nondeterministic) =>
                    {
                        Some(group_digest(g))
                    }
                    _ => None,
                })
                .collect()
        } else {
            vec![None; workflow.processors.len()]
        };
        let start_time = ctx.backend.now();
        let n_procs = workflow.processors.len();
        let routes = Routes::compile(&workflow, &config, &scc_ids, &in_cycle);
        WorkflowInstance {
            workflow: Arc::new(workflow),
            config,
            ft,
            rng: Rng::new(config.seed ^ 0x4D4F_5445_5552), // "MOTEUR"
            states,
            scc_ids,
            in_cycle,
            routes,
            pending: HashMap::new(),
            armed: vec![BTreeSet::new(); n_procs],
            next_invocation: 0,
            jobs_submitted: 0,
            inflight_total: 0,
            bytes_transferred: 0,
            completed: 0,
            slo_breached: false,
            sink_outputs: vec![Vec::new(); n_procs],
            sink_counts: vec![0; n_procs],
            source_cursors: Vec::new(),
            sample_cursors: vec![0; n_procs],
            records: Vec::new(),
            start_time,
            obs,
            history_xml: HistoryXmlCache::new(),
            digests,
            attempt_of: HashMap::new(),
            cancelled_attempts: HashSet::new(),
            deferred: Vec::new(),
            proc_samples: vec![Vec::new(); n_procs],
            ce_failures: HashMap::new(),
            blacklisted: HashSet::new(),
            quarantined: Vec::new(),
        }
    }

    /// Consult the data manager for a ready invocation of `proc`.
    ///
    /// An invocation is memoizable when the processor has a
    /// deterministic service digest and every matched input token has a
    /// provenance key (no [`DataValue::Opaque`] anywhere in its value).
    fn probe_cache<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        matched: &MatchedSet,
    ) -> CacheProbe {
        let Some(digest) = self.digests[proc.0] else {
            return CacheProbe::Uncached;
        };
        if ctx.store.is_none() {
            return CacheProbe::Uncached;
        }
        let prof = self.obs.prof().clone();
        let mut pkeys = Vec::with_capacity(matched.tokens.len());
        {
            let _prof = prof.scope(Subsystem::ProvenanceKey);
            for token in &matched.tokens {
                match self
                    .history_xml
                    .provenance_key(&token.value, &token.history)
                {
                    Some(k) => pkeys.push(k),
                    None => return CacheProbe::Uncached,
                }
            }
        }
        let store = ctx.store.as_deref_mut().expect("checked above");
        let key = invocation_key(&self.workflow.processors[proc.0].name, digest, &pkeys);
        let _prof = prof.scope(Subsystem::StoreIo);
        match store.lookup(key) {
            Some(outputs) => {
                let transfer_seconds = store
                    .fetch_cost()
                    .map_or(0.0, |d| d.sample(&mut self.rng).max(0.0));
                CacheProbe::Hit {
                    outputs,
                    transfer_seconds,
                }
            }
            None => CacheProbe::Miss(key),
        }
    }

    /// Submit a cache hit: the grid job is elided and replaced by a
    /// pure transfer fetching the memoized outputs from the store.
    /// Deliberately does **not** count towards `jobs_submitted` and
    /// emits [`TraceEvent::CacheHit`] instead of `JobSubmitted`.
    fn submit_cached<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        entries: Vec<PendEntry>,
        invocation: InvocationId,
        transfer_seconds: f64,
    ) -> Result<(), MoteurError> {
        let payload = JobPayload::Fetch { transfer_seconds };
        let submitted = ctx.backend.now();
        let n_outputs = entries
            .iter()
            .map(|e| e.grid_outputs.as_ref().map_or(0, Vec::len))
            .sum();
        self.obs.emit(|| TraceEvent::CacheHit {
            at: submitted,
            invocation: invocation.0,
            processor: self.workflow.processors[proc.0].name.clone(),
            outputs: n_outputs,
            transfer_seconds,
        });
        ctx.backend
            .submit(self.backend_job(proc, invocation, payload.clone()))?;
        self.insert_pending(
            invocation.0,
            PendingJob {
                proc,
                entries,
                payload,
                retries: 0,
                submitted,
                attempts: vec![invocation.0],
                window_start: submitted,
                // A cache replay is a pure transfer; it never times out
                // (born muted, it never enters the deadline index).
                muted: true,
                replicas: 0,
            },
        );
        self.emit_gauges(ctx);
        Ok(())
    }

    fn emit_sources<B: Backend + ?Sized>(
        &mut self,
        inputs: &InputData,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        for src in self.workflow.sources() {
            let name = self.workflow.processor(src).name.clone();
            let values = inputs
                .get(&name)
                .ok_or_else(|| MoteurError::new(format!("no input data for source `{name}`")))?
                .to_vec();
            self.source_cursors.push(SourceCursor {
                proc: src,
                name,
                values: values.into_iter(),
                next: 0,
            });
        }
        // Sources emit at start time as far as their ports allow; the
        // rest follows on demand as downstream ports drain.
        self.pump_sources(ctx);
        Ok(())
    }

    /// Emit the next items of every source whose downstream ports have
    /// room, suspending the source (once, with a trace event) when
    /// they fill and resuming it when they drain. Returns whether
    /// anything was emitted.
    fn pump_sources<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) -> bool {
        let mut emitted = false;
        for c in 0..self.source_cursors.len() {
            let proc = self.source_cursors[c].proc;
            while !self.source_cursors[c].values.as_slice().is_empty() {
                if !self.has_port_room(proc.0) {
                    self.set_suspended(ctx, proc.0, true);
                    break;
                }
                self.set_suspended(ctx, proc.0, false);
                let cursor = &mut self.source_cursors[c];
                let value = cursor.values.next().expect("checked non-empty");
                let token = Token::from_source(&cursor.name, cursor.next, value);
                cursor.next += 1;
                self.route(ctx, proc, 0, token);
                emitted = true;
            }
        }
        emitted
    }

    /// Is there room on every outgoing edge of `p` for one more data
    /// item? Capacity is a property of the edge: sinks and
    /// synchronization processors are documented unbounded collection
    /// points, and SP-off stage barriers and intra-cycle edges must
    /// buffer whole streams by construction, so those edges never
    /// fill (and are not in `Routes::bounded`); every other edge holds
    /// `port_capacity` items.
    fn has_port_room(&self, p: usize) -> bool {
        self.routes.bounded[p]
            .iter()
            .all(|&q| self.port_depth(p, q) < self.config.port_capacity)
    }

    /// Occupancy of the edge `p → q`: items queued at the
    /// consumer (complete matches plus partial tokens waiting in its
    /// match engine) plus the producer's in-flight invocations, each
    /// of which delivers one more item on completion.
    fn port_depth(&self, p: usize, q: usize) -> usize {
        self.states[q].ready.len() + self.states[q].engine.pending() + self.states[p].inflight
    }

    /// Record a suspend/resume transition of `p`'s output ports,
    /// emitting the trace event only on the edge (idempotent within a
    /// state).
    fn set_suspended<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        p: usize,
        blocked: bool,
    ) {
        if self.states[p].suspended == blocked {
            return;
        }
        self.states[p].suspended = blocked;
        if !self.obs.enabled() {
            return;
        }
        let depth = self.routes.targets[p]
            .iter()
            .flatten()
            .map(|&(q, _)| self.port_depth(p, q.0))
            .max()
            .unwrap_or(0);
        let at = ctx.backend.now();
        let processor = self.workflow.processors[p].name.clone();
        let capacity = self.config.port_capacity;
        self.obs.record(&if blocked {
            TraceEvent::PortSuspended {
                at,
                processor,
                depth,
                capacity,
            }
        } else {
            TraceEvent::PortResumed {
                at,
                processor,
                depth,
                capacity,
            }
        });
    }

    fn event_loop<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        let prof = self.obs.prof().clone();
        let _prof = prof.scope(Subsystem::EnactorLoop);
        let result = self.event_loop_inner(ctx);
        if result.is_err() {
            // A workflow abort must not abandon in-flight invocations:
            // cancel their backend jobs and close their spans before
            // the error propagates.
            self.drain_pending(ctx);
        }
        result
    }

    fn event_loop_inner<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        loop {
            self.fire_phase(ctx)?;
            if self.inflight_total == 0 {
                break;
            }
            self.service_deferred(ctx)?;
            match self.next_wake() {
                None => {
                    let completion = ctx
                        .backend
                        .wait_next()
                        .ok_or_else(|| MoteurError::new("backend starved with jobs in flight"))?;
                    self.handle_completion(ctx, completion)?;
                }
                Some(deadline) => match ctx.backend.wait_next_until(deadline) {
                    WaitOutcome::Completion(c) => self.handle_completion(ctx, c)?,
                    WaitOutcome::TimedOut => self.handle_timeouts(ctx)?,
                },
            }
        }
        self.deadlock_check()
    }

    /// The one-shot loop's post-conditions: nothing runnable may be
    /// left behind once the instance reports itself idle.
    fn deadlock_check(&self) -> Result<(), MoteurError> {
        for c in &self.source_cursors {
            let left = c.values.len();
            if left > 0 {
                return Err(MoteurError::new(format!(
                    "deadlock: source `{}` still holds {left} unemitted items",
                    c.name
                )));
            }
        }
        for (i, st) in self.states.iter().enumerate() {
            let p = &self.workflow.processors[i];
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
    /// deadlock post-conditions the one-shot event loop enforces when
    /// runnable work was left behind.
    pub fn finish(self, now: SimTime) -> Result<WorkflowResult, MoteurError> {
        self.deadlock_check()?;
        // Name-keyed on the way out; a sink nothing reached has no entry.
        let mut sink_outputs = HashMap::new();
        let mut sink_counts = HashMap::new();
        let tallies = self.sink_outputs.into_iter().zip(self.sink_counts);
        for (p, (tokens, count)) in tallies.enumerate().filter(|(_, (_, n))| *n > 0) {
            let name = &self.workflow.processors[p].name;
            sink_outputs.insert(name.clone(), tokens);
            sink_counts.insert(name.clone(), count);
        }
        Ok(WorkflowResult {
            sink_outputs,
            sink_counts,
            makespan: now.since(self.start_time),
            invocations: self.records,
            jobs_submitted: self.jobs_submitted,
            bytes_transferred: self.bytes_transferred,
            quarantined: self.quarantined,
        })
    }

    /// The earliest instant anything scheduled by the fault-tolerance
    /// machinery becomes actionable: a pending invocation's timeout
    /// deadline or a backoff-deferred resubmission's due time. `None`
    /// when only completions can move the workflow forward.
    ///
    /// A timeout budget is a property of the *processor* (its policy
    /// and its completion samples), not of the job, so every armed
    /// invocation of a processor has the deadline `window_start +
    /// budget` with one shared budget, and the earliest of them belongs
    /// to the smallest `window_start` — the first key of the
    /// processor's deadline index. The minimum is therefore taken over
    /// processors, not over pending invocations, with the budget
    /// evaluated once per processor per call. It is still evaluated on
    /// demand (deadlines are not stored), so an adaptive timeout keeps
    /// tightening over already-running jobs as samples accrue.
    pub fn next_wake(&self) -> Option<SimTime> {
        let timeouts = self.armed.iter().enumerate().filter_map(|(p, armed)| {
            let &(opened, _) = armed.first()?;
            Some(opened + self.timeout_budget(ProcId(p))?)
        });
        let backoffs = self.deferred.iter().map(|&(due, _)| due);
        timeouts.chain(backoffs).min()
    }

    /// Current timeout budget of `proc` in seconds, from its policy and
    /// the observed completion durations. `None` → no timeout applies.
    fn timeout_secs_for(&self, proc: ProcId) -> Option<f64> {
        let name = &self.workflow.processors[proc.0].name;
        self.ft
            .policy_for(name)
            .timeout
            .timeout_secs(&self.proc_samples[proc.0])
    }

    /// [`WorkflowInstance::timeout_secs_for`] on the virtual clock.
    fn timeout_budget(&self, proc: ProcId) -> Option<SimDuration> {
        self.timeout_secs_for(proc).map(SimDuration::from_secs_f64)
    }

    /// The pending invocations whose timeout window has expired at
    /// `now`, in ascending logical id — the order they are acted on,
    /// whichever processor they belong to. Each processor's index is
    /// ordered by `window_start` and its budget is shared (see
    /// [`WorkflowInstance::next_wake`]), so the expired invocations of
    /// a processor are exactly a prefix of its index.
    fn expired_at(&self, now: SimTime) -> Vec<u64> {
        let mut expired = Vec::new();
        for (p, armed) in self.armed.iter().enumerate() {
            if armed.is_empty() {
                continue;
            }
            let Some(budget) = self.timeout_budget(ProcId(p)) else {
                continue;
            };
            let due = armed
                .iter()
                .take_while(|&&(opened, _)| opened + budget <= now);
            expired.extend(due.map(|&(_, logical)| logical));
        }
        expired.sort_unstable();
        expired
    }

    /// Take a new invocation of `pend.proc` into the pending table, the
    /// in-flight counts and the deadline index.
    fn insert_pending(&mut self, logical: u64, pend: PendingJob) {
        if let Some(opened) = pend.armed_since() {
            self.armed[pend.proc.0].insert((opened, logical));
        }
        self.states[pend.proc.0].inflight += 1;
        self.inflight_total += 1;
        self.pending.insert(logical, pend);
    }

    /// Change a pending invocation, re-keying it in the deadline index
    /// when the change moved its timeout window, muted it or took its
    /// last live attempt away.
    fn update_pending<R>(&mut self, logical: u64, change: impl FnOnce(&mut PendingJob) -> R) -> R {
        let pend = self
            .pending
            .get_mut(&logical)
            .expect("updated invocation is pending");
        let before = pend.armed_since();
        let result = change(pend);
        let after = pend.armed_since();
        if before != after {
            let armed = &mut self.armed[pend.proc.0];
            if let Some(opened) = before {
                armed.remove(&(opened, logical));
            }
            if let Some(opened) = after {
                armed.insert((opened, logical));
            }
        }
        result
    }

    /// Take a terminated invocation out of the pending table, the
    /// in-flight counts and the deadline index.
    fn remove_pending(&mut self, logical: u64) -> PendingJob {
        let pend = self
            .pending
            .remove(&logical)
            .expect("removed invocation is pending");
        if let Some(opened) = pend.armed_since() {
            self.armed[pend.proc.0].remove(&(opened, logical));
        }
        self.states[pend.proc.0].inflight -= 1;
        self.inflight_total -= 1;
        pend
    }

    /// The backend job carrying `payload` for `proc` under `tag`.
    fn backend_job(&self, proc: ProcId, tag: InvocationId, payload: JobPayload) -> BackendJob {
        BackendJob {
            invocation: tag,
            processor: self.workflow.processors[proc.0].name.clone(),
            payload,
        }
    }

    /// Deliver a token to every input port linked to `(proc, out_port)`.
    fn route<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        out_port: usize,
        token: Token,
    ) {
        self.obs.emit(|| {
            let producer = &self.workflow.processors[proc.0];
            TraceEvent::TokenEmitted {
                at: ctx.backend.now(),
                processor: producer.name.clone(),
                port: producer.outputs.get(out_port).cloned().unwrap_or_default(),
                index: token.index.to_string(),
            }
        });
        for &(tp, tport) in &self.routes.targets[proc.0][out_port] {
            let target = &self.workflow.processors[tp.0];
            match target.kind {
                ProcessorKind::Sink => {
                    self.sink_counts[tp.0] += 1;
                    let out = &mut self.sink_outputs[tp.0];
                    // Only the first `port_capacity` sink tokens are
                    // retained; `sink_counts` carries the full tally.
                    if out.len() < self.config.port_capacity {
                        out.push(token.clone());
                    }
                }
                ProcessorKind::Service if target.synchronization => {
                    self.states[tp.0].sync_buffers[tport].push(token.clone());
                }
                ProcessorKind::Service => {
                    let matches = self.states[tp.0].engine.push(tport, token.clone());
                    if self.obs.enabled() {
                        for m in &matches {
                            self.obs.record(&TraceEvent::MatchFired {
                                at: ctx.backend.now(),
                                processor: target.name.clone(),
                                index: m.index.to_string(),
                                inputs: m.tokens.len(),
                            });
                        }
                    }
                    self.states[tp.0].ready.extend(matches);
                }
                ProcessorKind::Source => {
                    // A link into a source is rejected by validate();
                    // unreachable in practice.
                }
            }
        }
    }

    /// Fire everything the configuration permits, to fixpoint.
    fn fire_phase<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<usize, MoteurError> {
        self.fire_phase_budgeted(ctx, None)
    }

    /// [`WorkflowInstance::fire_phase`] with an optional submission
    /// budget — the daemon's weighted fair-share quantum. With a
    /// budget of `Some(b)` at most `b` invocations are dispatched
    /// before returning; `None` fires to fixpoint (the one-shot
    /// behaviour, byte-identical traces included). Returns how many
    /// invocations were dispatched.
    fn fire_phase_budgeted<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        budget: Option<usize>,
    ) -> Result<usize, MoteurError> {
        let prof = self.obs.prof().clone();
        let _prof = prof.scope(Subsystem::Fire);
        let mut dispatched = 0usize;
        loop {
            if budget.is_some_and(|b| dispatched >= b) {
                return Ok(dispatched);
            }
            // Feed the pipeline before firing so ports freed by the
            // previous round pull the next items off the source
            // cursors. Source emission is not a dispatch and never
            // counts against the daemon's budget.
            let mut fired = self.pump_sources(ctx);
            let exhausted = self.compute_exhausted();
            for p in 0..self.workflow.processors.len() {
                let proc = &self.workflow.processors[p];
                if proc.kind != ProcessorKind::Service {
                    continue;
                }
                // `workflow` is owned now, so `proc` cannot outlive a
                // `&mut self` call: hoist what the firing loop needs.
                let synchronization = proc.synchronization;
                let local_binding = matches!(proc.binding, Some(ServiceBinding::Local(_)));
                if synchronization {
                    if !self.states[p].barrier_fired
                        && self.preds_exhausted(p, &exhausted, true)
                        && self.control_ok(p, &exhausted)
                    {
                        self.fire_barrier(ctx, ProcId(p))?;
                        fired = true;
                        dispatched += 1;
                    }
                    continue;
                }
                while !self.states[p].ready.is_empty()
                    && self.can_fire(p, &exhausted)
                    && budget.is_none_or(|b| dispatched < b)
                {
                    self.set_suspended(ctx, p, false);
                    let batchable = self.config.data_batching > 1 && !local_binding;
                    if batchable {
                        let k = self.config.data_batching.min(self.states[p].ready.len());
                        let batch: Vec<MatchedSet> = (0..k)
                            .map(|_| self.states[p].ready.pop_front().expect("len checked"))
                            .collect();
                        self.fire_batch(ctx, ProcId(p), batch)?;
                    } else {
                        let matched = self.states[p].ready.pop_front().expect("checked non-empty");
                        self.fire(ctx, ProcId(p), matched)?;
                    }
                    fired = true;
                    dispatched += 1;
                }
                // A processor held back *only* by a full downstream
                // port is suspended: it transitions once into the
                // suspended state and resumes when the port drains.
                if !self.states[p].ready.is_empty()
                    && self.can_fire_ignoring_room(p, &exhausted)
                    && !self.has_port_room(p)
                {
                    self.set_suspended(ctx, p, true);
                }
            }
            if !fired {
                return Ok(dispatched);
            }
        }
    }

    fn can_fire(&self, p: usize, exhausted: &[bool]) -> bool {
        self.has_port_room(p) && self.can_fire_ignoring_room(p, exhausted)
    }

    /// [`WorkflowInstance::can_fire`] minus the port-room
    /// check — the configuration-level gates only (DP, SP, control
    /// links). Used to distinguish "suspended on back-pressure" from
    /// "not runnable anyway".
    fn can_fire_ignoring_room(&self, p: usize, exhausted: &[bool]) -> bool {
        if !self.config.data_parallelism && self.states[p].inflight >= 1 {
            return false;
        }
        if !self.config.service_parallelism && !self.preds_exhausted(p, exhausted, false) {
            return false;
        }
        self.control_ok(p, exhausted)
    }

    /// Are all data predecessors of `p` exhausted? Predecessors inside
    /// the same cycle are skipped unless `include_cycle` (barriers may
    /// not sit inside cycles anyway).
    fn preds_exhausted(&self, p: usize, exhausted: &[bool], include_cycle: bool) -> bool {
        // Straight over the links: a predecessor feeding several ports
        // is checked once per link, which `all` does not mind, and this
        // runs on every firing round.
        self.workflow.in_links(ProcId(p)).all(|l| {
            let q = l.from.proc.0;
            if !include_cycle && self.in_cycle[p] && self.scc_ids[q] == self.scc_ids[p] {
                true
            } else {
                exhausted[q]
            }
        })
    }

    fn control_ok(&self, p: usize, exhausted: &[bool]) -> bool {
        self.routes.control_before[p]
            .iter()
            .all(|&before| exhausted[before])
    }

    /// Fixpoint computation of "will emit no more tokens".
    fn compute_exhausted(&self) -> Vec<bool> {
        let n = self.workflow.processors.len();
        let mut ex = vec![false; n];
        loop {
            let mut changed = false;
            for p in 0..n {
                if ex[p] {
                    continue;
                }
                let proc = &self.workflow.processors[p];
                let quiet = self.states[p].ready.is_empty() && self.states[p].inflight == 0;
                let value = match proc.kind {
                    // A source is exhausted once its cursor drained.
                    ProcessorKind::Source => self
                        .source_cursors
                        .iter()
                        .all(|c| c.proc.0 != p || c.values.as_slice().is_empty()),
                    ProcessorKind::Sink => self.preds_exhausted(p, &ex, true),
                    ProcessorKind::Service => {
                        if self.in_cycle[p] {
                            // A cycle exhausts collectively: every
                            // member quiet and every external
                            // predecessor exhausted.
                            let scc = self.scc_ids[p];
                            let members: Vec<usize> =
                                (0..n).filter(|&m| self.scc_ids[m] == scc).collect();
                            members.iter().all(|&m| {
                                self.states[m].ready.is_empty()
                                    && self.states[m].inflight == 0
                                    && self
                                        .workflow
                                        .in_links(ProcId(m))
                                        .map(|l| l.from.proc.0)
                                        .filter(|&q| self.scc_ids[q] != scc)
                                        .all(|q| ex[q])
                            })
                        } else if proc.synchronization {
                            quiet
                                && self.states[p].barrier_fired
                                && self.preds_exhausted(p, &ex, true)
                        } else {
                            quiet && self.preds_exhausted(p, &ex, true)
                        }
                    }
                };
                if value {
                    ex[p] = true;
                    changed = true;
                }
            }
            if !changed {
                return ex;
            }
        }
    }

    fn fire<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        matched: MatchedSet,
    ) -> Result<(), MoteurError> {
        let invocation = InvocationId(self.next_invocation);
        self.next_invocation += 1;
        // Consult the data manager before touching the binding: a hit
        // needs none of it (an unbound processor has no digest, so it
        // cannot hit).
        let probe = self.probe_cache(ctx, proc, &matched);
        if let CacheProbe::Hit {
            outputs,
            transfer_seconds,
        } = probe
        {
            let entry = PendEntry {
                index: matched.index,
                input_histories: matched.tokens.iter().map(|t| t.history.clone()).collect(),
                grid_outputs: Some(outputs),
                cache_key: None,
            };
            return self.submit_cached(ctx, proc, vec![entry], invocation, transfer_seconds);
        }
        let cache_key = match probe {
            CacheProbe::Miss(key) => {
                self.obs.emit(|| TraceEvent::CacheMiss {
                    at: ctx.backend.now(),
                    invocation: invocation.0,
                    processor: self.workflow.processors[proc.0].name.clone(),
                });
                Some(key)
            }
            _ => None,
        };
        let workflow = Arc::clone(&self.workflow);
        let binding = workflow.processors[proc.0]
            .binding
            .as_ref()
            .ok_or_else(|| MoteurError::new("firing an unbound processor"))?;
        let (payload, grid_outputs) = match binding {
            ServiceBinding::Local(service) => (
                JobPayload::Local {
                    service: service.clone(),
                    inputs: matched.tokens.clone(),
                },
                None,
            ),
            ServiceBinding::Descriptor {
                descriptor,
                profile,
            } => {
                let (plan, compute, outputs) = self
                    .build_descriptor_job(ctx, proc, descriptor, profile, &matched, invocation)?;
                (
                    JobPayload::Grid {
                        plan: Arc::new(plan),
                        compute_seconds: compute,
                    },
                    Some(outputs),
                )
            }
            ServiceBinding::Grouped(group) => {
                let (plan, compute, outputs) =
                    self.build_grouped_job(ctx, proc, group, &matched, invocation)?;
                (
                    JobPayload::Grid {
                        plan: Arc::new(plan),
                        compute_seconds: compute,
                    },
                    Some(outputs),
                )
            }
        };
        let entry = PendEntry {
            index: matched.index,
            input_histories: matched.tokens.iter().map(|t| t.history.clone()).collect(),
            grid_outputs,
            cache_key,
        };
        self.submit(ctx, proc, vec![entry], invocation, payload)
    }

    /// Submit several ready invocations of one descriptor-bound service
    /// as a single grid job — the paper's §5.4 single-service grouping.
    fn fire_batch<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        batch: Vec<MatchedSet>,
    ) -> Result<(), MoteurError> {
        let invocation = InvocationId(self.next_invocation);
        self.next_invocation += 1;
        // Consult the data manager first: memoized members leave the
        // batch and are replayed as individual fetches; only the
        // misses travel to the grid as one grouped job.
        let mut misses: Vec<(MatchedSet, Option<InvocationKey>)> = Vec::with_capacity(batch.len());
        for matched in batch {
            match self.probe_cache(ctx, proc, &matched) {
                CacheProbe::Hit {
                    outputs,
                    transfer_seconds,
                } => {
                    let hit_invocation = InvocationId(self.next_invocation);
                    self.next_invocation += 1;
                    let entry = PendEntry {
                        index: matched.index,
                        input_histories: matched.tokens.iter().map(|t| t.history.clone()).collect(),
                        grid_outputs: Some(outputs),
                        cache_key: None,
                    };
                    self.submit_cached(ctx, proc, vec![entry], hit_invocation, transfer_seconds)?;
                }
                CacheProbe::Miss(key) => misses.push((matched, Some(key))),
                CacheProbe::Uncached => misses.push((matched, None)),
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        let workflow = Arc::clone(&self.workflow);
        let binding = workflow.processors[proc.0]
            .binding
            .as_ref()
            .ok_or_else(|| MoteurError::new("firing an unbound processor"))?;
        let mut command_lines = Vec::new();
        let mut fetch: Vec<TransferFile> = Vec::new();
        let mut store: Vec<TransferFile> = Vec::new();
        let mut compute_total = 0.0;
        let mut entries = Vec::with_capacity(misses.len());
        for (k, (matched, cache_key)) in misses.into_iter().enumerate() {
            let sub_invocation = InvocationId(invocation.0 * 1_000_000 + k as u64);
            if cache_key.is_some() {
                self.obs.emit(|| TraceEvent::CacheMiss {
                    at: ctx.backend.now(),
                    invocation: sub_invocation.0,
                    processor: self.workflow.processors[proc.0].name.clone(),
                });
            }
            let (plan, compute, outputs) = match binding {
                ServiceBinding::Descriptor {
                    descriptor,
                    profile,
                } => self.build_descriptor_job(
                    ctx,
                    proc,
                    descriptor,
                    profile,
                    &matched,
                    sub_invocation,
                )?,
                ServiceBinding::Grouped(group) => {
                    self.build_grouped_job(ctx, proc, group, &matched, sub_invocation)?
                }
                ServiceBinding::Local(_) => {
                    return Err(MoteurError::new("local services cannot be batched"))
                }
            };
            command_lines.extend(plan.command_lines);
            for f in plan.fetch {
                if !fetch.iter().any(|e| e.name == f.name) {
                    fetch.push(f);
                }
            }
            store.extend(plan.store);
            compute_total += compute;
            entries.push(PendEntry {
                index: matched.index,
                input_histories: matched.tokens.iter().map(|t| t.history.clone()).collect(),
                grid_outputs: Some(outputs),
                cache_key,
            });
        }
        let plan = JobPlan {
            command_lines,
            fetch,
            store,
        };
        self.submit(
            ctx,
            proc,
            entries,
            invocation,
            JobPayload::Grid {
                plan: Arc::new(plan),
                compute_seconds: compute_total,
            },
        )
    }

    /// Bytes a payload moves over its CE's network link (stage-in +
    /// stage-out). Local and cache-fetch payloads move no grid bytes.
    fn payload_bytes(payload: &JobPayload) -> u64 {
        match payload {
            JobPayload::Grid { plan, .. } => {
                plan.fetch.iter().map(|f| f.bytes).sum::<u64>()
                    + plan.store.iter().map(|f| f.bytes).sum::<u64>()
            }
            _ => 0,
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

    /// Burn-rate check against the configured SLO: extrapolate the
    /// completion time from progress so far and emit
    /// [`TraceEvent::SloBreached`] on the transition into breach.
    fn check_slo<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) {
        let Some(slo) = self.config.slo else { return };
        if self.completed == 0 || slo.predicted_makespan_secs <= 0.0 {
            return;
        }
        let elapsed = ctx.backend.now().since(self.start_time).as_secs_f64();
        let expected = slo.expected_jobs.max(self.completed);
        let projected = elapsed * expected as f64 / self.completed as f64;
        let breached = projected > slo.predicted_makespan_secs * slo.factor;
        if breached && !self.slo_breached {
            let completed = self.completed;
            self.obs.emit(|| TraceEvent::SloBreached {
                at: ctx.backend.now(),
                predicted_secs: slo.predicted_makespan_secs,
                projected_secs: projected,
                factor: slo.factor,
                completed,
                expected,
            });
        }
        self.slo_breached = breached;
    }

    fn submit<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        entries: Vec<PendEntry>,
        invocation: InvocationId,
        payload: JobPayload,
    ) -> Result<(), MoteurError> {
        let submitted = ctx.backend.now();
        // Emit before handing the job to the backend so the enactor's
        // submission event precedes any grid-side event for the same
        // invocation (the simulated broker reacts synchronously).
        self.obs.emit(|| TraceEvent::JobSubmitted {
            at: submitted,
            invocation: invocation.0,
            processor: self.workflow.processors[proc.0].name.clone(),
            grid: matches!(payload, JobPayload::Grid { .. }),
            batched: entries.len(),
        });
        ctx.backend
            .submit(self.backend_job(proc, invocation, payload.clone()))?;
        self.jobs_submitted += 1;
        self.bytes_transferred += Self::payload_bytes(&payload);
        self.insert_pending(
            invocation.0,
            PendingJob {
                proc,
                entries,
                payload,
                retries: 0,
                submitted,
                attempts: vec![invocation.0],
                window_start: submitted,
                muted: false,
                replicas: 0,
            },
        );
        self.emit_gauges(ctx);
        Ok(())
    }

    /// Bind one port's token into a descriptor slot.
    fn bind_port(
        binding: Binding,
        descriptor: &ExecutableDescriptor,
        slot_name: &str,
        token: &Token,
        catalog: &mut Catalog,
        proc_name: &str,
    ) -> Result<Binding, MoteurError> {
        let slot = descriptor.input(slot_name).ok_or_else(|| {
            MoteurError::new(format!(
                "`{proc_name}`: input port `{slot_name}` has no matching descriptor slot"
            ))
        })?;
        if slot.is_file() {
            match &token.value {
                DataValue::File { gfn, bytes } => {
                    catalog.register(gfn.clone(), *bytes);
                    Ok(binding.bind_file(slot_name, gfn.clone()))
                }
                other => Err(MoteurError::new(format!(
                    "`{proc_name}`: file slot `{slot_name}` received a non-file value {other:?}"
                ))),
            }
        } else {
            Ok(binding.bind_value(slot_name, token.value.to_param_string()))
        }
    }

    fn output_gfn(&self, proc_name: &str, invocation: InvocationId, slot: &str) -> String {
        format!(
            "gfn://{}/{}/{}/{}",
            self.workflow.name, proc_name, invocation.0, slot
        )
    }

    /// Observed bytes a token contributes to grid stage-in: file sizes,
    /// summed through collected lists. Literal parameters travel inside
    /// the job description and count as zero.
    fn staged_bytes(value: &DataValue) -> u64 {
        match value {
            DataValue::File { bytes, .. } => *bytes,
            DataValue::List(items) => items.iter().map(Self::staged_bytes).sum(),
            _ => 0,
        }
    }

    fn build_descriptor_job<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        descriptor: &ExecutableDescriptor,
        profile: &ServiceProfile,
        matched: &MatchedSet,
        invocation: InvocationId,
    ) -> Result<(JobPlan, f64, ServiceOutputs), MoteurError> {
        let p = &self.workflow.processors[proc.0];
        // Every file the plan looks up is registered by this build
        // (inputs via `bind_port`, outputs below), so the catalog is
        // O(job), not O(stream length).
        let mut catalog = Catalog::new();
        let mut binding = Binding::new();
        for (port_idx, port_name) in p.inputs.iter().enumerate() {
            let token = &matched.tokens[port_idx];
            self.obs.emit(|| TraceEvent::EdgeStaged {
                at: ctx.backend.now(),
                invocation: invocation.0,
                processor: p.name.clone(),
                port: port_name.clone(),
                bytes: Self::staged_bytes(&token.value),
            });
            binding =
                Self::bind_port(binding, descriptor, port_name, token, &mut catalog, &p.name)?;
        }
        for (slot, value) in &profile.fixed_params {
            binding = binding.bind_value(slot.clone(), value.clone());
        }
        let mut outputs = Vec::new();
        for out in &descriptor.outputs {
            let gfn = self.output_gfn(&p.name, invocation, &out.name);
            let bytes = profile.output_size(&out.name);
            catalog.register(gfn.clone(), bytes);
            binding = binding.bind_output(out.name.clone(), gfn.clone(), bytes);
            outputs.push((out.name.clone(), DataValue::File { gfn, bytes }));
        }
        let plan = plan_single(descriptor, &binding, &catalog)?;
        let compute = eval_cost_with(&mut self.rng, &profile.compute, &matched.index);
        Ok((plan, compute, outputs))
    }

    fn build_grouped_job<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        group: &GroupedBinding,
        matched: &MatchedSet,
        invocation: InvocationId,
    ) -> Result<(JobPlan, f64, ServiceOutputs), MoteurError> {
        let p = &self.workflow.processors[proc.0];
        let mut catalog = Catalog::new();
        let mut members: Vec<GroupMember> = Vec::with_capacity(group.stages.len());
        let mut stage_outputs: Vec<HashMap<String, (String, u64)>> = Vec::new();
        let mut compute_total = 0.0;
        for (k, stage) in group.stages.iter().enumerate() {
            let mut binding = Binding::new();
            for (slot_name, source) in &stage.inputs {
                match source {
                    GroupSource::ExternalPort(i) => {
                        let token = &matched.tokens[*i];
                        self.obs.emit(|| TraceEvent::EdgeStaged {
                            at: ctx.backend.now(),
                            invocation: invocation.0,
                            processor: p.name.clone(),
                            port: p.inputs[*i].clone(),
                            bytes: Self::staged_bytes(&token.value),
                        });
                        binding = Self::bind_port(
                            binding,
                            &stage.descriptor,
                            slot_name,
                            token,
                            &mut catalog,
                            &p.name,
                        )?;
                    }
                    GroupSource::StageOutput { stage: j, slot } => {
                        let (gfn, _bytes) = stage_outputs
                            .get(*j)
                            .and_then(|m| m.get(slot))
                            .ok_or_else(|| {
                                MoteurError::new(format!(
                                    "grouped `{}`: stage {k} consumes missing output `{slot}` of stage {j}",
                                    p.name
                                ))
                            })?
                            .clone();
                        binding = binding.bind_file(slot_name.clone(), gfn);
                    }
                }
            }
            for (slot, value) in &stage.profile.fixed_params {
                binding = binding.bind_value(slot.clone(), value.clone());
            }
            let mut outs = HashMap::new();
            for out in &stage.descriptor.outputs {
                let gfn = format!(
                    "gfn://{}/{}~{}/{}/{}",
                    self.workflow.name, p.name, stage.name, invocation.0, out.name
                );
                let bytes = stage.profile.output_size(&out.name);
                catalog.register(gfn.clone(), bytes);
                binding = binding.bind_output(out.name.clone(), gfn.clone(), bytes);
                outs.insert(out.name.clone(), (gfn, bytes));
            }
            stage_outputs.push(outs);
            compute_total += eval_cost_with(&mut self.rng, &stage.profile.compute, &matched.index);
            members.push(GroupMember {
                descriptor: stage.descriptor.clone(),
                binding,
            });
        }
        // Exposed outputs become the grouped processor's output tokens,
        // aligned with its output-port order.
        let mut outputs = Vec::new();
        let mut external = Vec::new();
        for (port_idx, (stage_idx, slot)) in group.exposed_outputs.iter().enumerate() {
            let (gfn, bytes) = stage_outputs[*stage_idx]
                .get(slot)
                .ok_or_else(|| {
                    MoteurError::new(format!(
                        "grouped `{}`: exposed output `{slot}` missing from stage {stage_idx}",
                        p.name
                    ))
                })?
                .clone();
            external.push(gfn.clone());
            outputs.push((p.outputs[port_idx].clone(), DataValue::File { gfn, bytes }));
        }
        let plan = compose_group(&members, &catalog, &external)?;
        self.obs.emit(|| TraceEvent::GroupComposed {
            at: ctx.backend.now(),
            processor: p.name.clone(),
            stages: group.stages.len(),
            commands: plan.command_lines.len(),
        });
        Ok((plan, compute_total, outputs))
    }

    fn fire_barrier<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
    ) -> Result<(), MoteurError> {
        let workflow = Arc::clone(&self.workflow);
        let p = &workflow.processors[proc.0];
        let buffers = std::mem::take(&mut self.states[proc.0].sync_buffers);
        let mut tokens = Vec::with_capacity(buffers.len());
        let mut histories = Vec::new();
        for buf in &buffers {
            histories.extend(buf.iter().map(|t| t.history.clone()));
            tokens.push(Token {
                value: DataValue::List(buf.iter().map(|t| t.value.clone()).collect()),
                index: DataIndex::scalar(),
                history: History::derived(
                    format!("{}:collect", p.name),
                    buf.iter().map(|t| t.history.clone()).collect(),
                ),
            });
        }
        self.states[proc.0].barrier_fired = true;
        self.obs.emit(|| TraceEvent::BarrierReleased {
            at: ctx.backend.now(),
            processor: p.name.clone(),
            inputs: buffers.iter().map(Vec::len).sum(),
        });
        let invocation = InvocationId(self.next_invocation);
        self.next_invocation += 1;
        let binding = p
            .binding
            .as_ref()
            .ok_or_else(|| MoteurError::new("synchronization processor without binding"))?;
        let matched = MatchedSet {
            tokens,
            index: DataIndex::scalar(),
        };
        let entry = |grid_outputs: Option<ServiceOutputs>| PendEntry {
            index: matched.index.clone(),
            input_histories: matched.tokens.iter().map(|t| t.history.clone()).collect(),
            grid_outputs,
            // Synchronization barriers consume whole streams; they are
            // never memoized.
            cache_key: None,
        };
        match binding {
            ServiceBinding::Local(service) => self.submit(
                ctx,
                proc,
                vec![entry(None)],
                invocation,
                JobPayload::Local {
                    service: service.clone(),
                    inputs: buffers_to_tokens(&buffers, p),
                },
            ),
            ServiceBinding::Descriptor {
                descriptor,
                profile,
            } => {
                // A descriptor-bound barrier consumes arbitrarily many
                // files per slot, which the one-value-per-slot wrapper
                // binding cannot express: build its plan directly.
                let mut fetch: Vec<TransferFile> = Vec::new();
                let mut n_inputs = 0usize;
                for (port_idx, buf) in buffers.iter().enumerate() {
                    for t in buf {
                        self.obs.emit(|| TraceEvent::EdgeStaged {
                            at: ctx.backend.now(),
                            invocation: invocation.0,
                            processor: p.name.clone(),
                            port: p.inputs[port_idx].clone(),
                            bytes: Self::staged_bytes(&t.value),
                        });
                        if let DataValue::File { gfn, bytes } = &t.value {
                            fetch.push(TransferFile {
                                name: gfn.clone(),
                                bytes: *bytes,
                            });
                        }
                        n_inputs += 1;
                    }
                }
                let mut outputs = Vec::new();
                let mut store = Vec::new();
                for out in &descriptor.outputs {
                    let gfn = self.output_gfn(&p.name, invocation, &out.name);
                    let bytes = profile.output_size(&out.name);
                    store.push(TransferFile {
                        name: gfn.clone(),
                        bytes,
                    });
                    outputs.push((out.name.clone(), DataValue::File { gfn, bytes }));
                }
                let plan = JobPlan {
                    command_lines: vec![format!(
                        "{} <{} collected inputs>",
                        descriptor.executable.value, n_inputs
                    )],
                    fetch,
                    store,
                };
                let compute = eval_cost_with(&mut self.rng, &profile.compute, &DataIndex::scalar());
                self.submit(
                    ctx,
                    proc,
                    vec![entry(Some(outputs))],
                    invocation,
                    JobPayload::Grid {
                        plan: Arc::new(plan),
                        compute_seconds: compute,
                    },
                )
            }
            ServiceBinding::Grouped(_) => Err(MoteurError::new(
                "synchronization processors cannot be grouped",
            )),
        }
    }

    fn handle_completion<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        c: BackendCompletion,
    ) -> Result<(), MoteurError> {
        let tag = c.invocation.0;
        if self.cancelled_attempts.remove(&tag) {
            // Late completion of an attempt the backend could not
            // retract — its invocation was superseded or aborted.
            return Ok(());
        }
        let logical = self.attempt_of.remove(&tag).unwrap_or(tag);
        if !self.pending.contains_key(&logical) {
            return Err(MoteurError::new("completion for unknown invocation"));
        }
        match c.outputs {
            Err(ref message) => {
                let message = message.clone();
                self.handle_failure(ctx, logical, tag, c.ce, message)
            }
            Ok(_) => self.handle_success(ctx, logical, tag, c),
        }
    }

    /// One attempt of `logical` failed. Applies, in order: CE failure
    /// bookkeeping, replica survival (another attempt still racing),
    /// the processor's retry policy (immediate or backoff-deferred
    /// resubmission), and finally terminal failure.
    fn handle_failure<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
        tag: u64,
        ce: Option<usize>,
        message: String,
    ) -> Result<(), MoteurError> {
        if let Some(ce) = ce {
            self.note_ce_failure(ctx, ce);
        }
        let proc = self.pending[&logical].proc;
        let policy = *self.ft.policy_for(&self.workflow.processors[proc.0].name);
        let max_retries = policy.retry.max_retries();
        // Losing the last live attempt disarms the invocation: it
        // leaves the deadline index until it is resubmitted, so a
        // backoff deferral cannot time out.
        let (live, retry) = self.update_pending(logical, |p| {
            p.attempts.retain(|&t| t != tag);
            let retry = (p.attempts.is_empty() && p.retries < max_retries).then(|| {
                p.retries += 1;
                p.retries
            });
            (p.attempts.len(), retry)
        });
        if live > 0 {
            // A speculative replica is still running; the race is not
            // lost yet.
            return Ok(());
        }
        let Some(retry) = retry else {
            return self.terminal_failure(ctx, logical, message);
        };
        let delay = policy.retry.delay(retry, &mut self.rng);
        if delay > 0.0 {
            let due = ctx.backend.now() + SimDuration::from_secs_f64(delay);
            self.deferred.push((due, logical));
            self.emit_gauges(ctx);
        } else {
            self.resubmit(ctx, logical)?;
        }
        Ok(())
    }

    /// Resubmit `logical` now, reusing its logical tag (the previous
    /// attempt has terminally completed, so the tag is free), and
    /// restart its timeout window.
    fn resubmit<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
    ) -> Result<(), MoteurError> {
        let now = ctx.backend.now();
        let (payload, retry, proc) = self.update_pending(logical, |p| {
            p.attempts = vec![logical];
            p.window_start = now;
            (p.payload.clone(), p.retries, p.proc)
        });
        self.obs.emit(|| TraceEvent::JobResubmitted {
            at: now,
            invocation: logical,
            processor: self.workflow.processors[proc.0].name.clone(),
            retry,
            attempt: logical,
        });
        self.bytes_transferred += Self::payload_bytes(&payload);
        ctx.backend
            .submit(self.backend_job(proc, InvocationId(logical), payload))
    }

    /// Resubmit every backoff-deferred invocation whose due time has
    /// arrived.
    fn service_deferred<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        let now = ctx.backend.now();
        let mut due: Vec<u64> = Vec::new();
        self.deferred.retain(|&(t, id)| {
            if t <= now {
                due.push(id);
                false
            } else {
                true
            }
        });
        let serviced = !due.is_empty();
        for logical in due {
            self.resubmit(ctx, logical)?;
        }
        if serviced {
            self.emit_gauges(ctx);
        }
        Ok(())
    }

    /// Act on every pending invocation whose timeout window expired:
    /// the expired prefix of each processor's deadline index (see
    /// [`WorkflowInstance::expired_at`] for why a prefix is all of
    /// them), merged and handled in ascending logical id.
    fn handle_timeouts<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        for logical in self.expired_at(ctx.backend.now()) {
            self.handle_one_timeout(ctx, logical)?;
        }
        Ok(())
    }

    fn handle_one_timeout<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
    ) -> Result<(), MoteurError> {
        let now = ctx.backend.now();
        let (proc, retries, replicas) = {
            let p = &self.pending[&logical];
            (p.proc, p.retries, p.replicas)
        };
        let workflow = Arc::clone(&self.workflow);
        let name = &workflow.processors[proc.0].name;
        let policy = *self.ft.policy_for(name);
        let budget = self.timeout_secs_for(proc).unwrap_or(0.0);
        match policy.on_timeout {
            TimeoutAction::Resubmit => {
                self.cancel_attempts(ctx, logical);
                if retries < policy.retry.max_retries() {
                    self.obs.emit(|| TraceEvent::JobTimedOut {
                        at: now,
                        invocation: logical,
                        processor: name.clone(),
                        timeout_secs: budget,
                        action: "resubmit",
                    });
                    // Fresh tag: the cancelled attempt may still
                    // surface on backends that cannot retract work.
                    let fresh = self.next_invocation;
                    self.next_invocation += 1;
                    self.attempt_of.insert(fresh, logical);
                    let (payload, retry) = self.update_pending(logical, |p| {
                        p.retries += 1;
                        p.attempts = vec![fresh];
                        p.window_start = now;
                        (p.payload.clone(), p.retries)
                    });
                    self.obs.emit(|| TraceEvent::JobResubmitted {
                        at: now,
                        invocation: logical,
                        processor: name.clone(),
                        retry,
                        attempt: fresh,
                    });
                    self.bytes_transferred += Self::payload_bytes(&payload);
                    ctx.backend
                        .submit(self.backend_job(proc, InvocationId(fresh), payload))?;
                } else {
                    self.obs.emit(|| TraceEvent::JobTimedOut {
                        at: now,
                        invocation: logical,
                        processor: name.clone(),
                        timeout_secs: budget,
                        action: "fail",
                    });
                    self.terminal_failure(
                        ctx,
                        logical,
                        format!("timed out after {budget:.1}s with the retry budget exhausted"),
                    )?;
                }
            }
            TimeoutAction::Replicate { max_replicas } => {
                if replicas < max_replicas {
                    self.obs.emit(|| TraceEvent::JobTimedOut {
                        at: now,
                        invocation: logical,
                        processor: name.clone(),
                        timeout_secs: budget,
                        action: "replicate",
                    });
                    let fresh = self.next_invocation;
                    self.next_invocation += 1;
                    self.attempt_of.insert(fresh, logical);
                    let (payload, n) = self.update_pending(logical, |p| {
                        p.replicas += 1;
                        p.attempts.push(fresh);
                        p.window_start = now;
                        (p.payload.clone(), p.replicas)
                    });
                    self.obs.emit(|| TraceEvent::JobReplicated {
                        at: now,
                        invocation: logical,
                        processor: name.clone(),
                        replica: n,
                        attempt: fresh,
                    });
                    self.bytes_transferred += Self::payload_bytes(&payload);
                    ctx.backend
                        .submit(self.backend_job(proc, InvocationId(fresh), payload))?;
                } else {
                    // Replica cap reached: let the race run to the end.
                    self.update_pending(logical, |p| p.muted = true);
                }
            }
        }
        Ok(())
    }

    /// Cancel every live attempt of `logical` at the backend. Attempts
    /// the backend cannot retract are remembered so their late
    /// completions are dropped.
    fn cancel_attempts<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>, logical: u64) {
        let attempts = self.update_pending(logical, |p| std::mem::take(&mut p.attempts));
        for tag in attempts {
            self.attempt_of.remove(&tag);
            if !ctx.backend.cancel(InvocationId(tag)) {
                self.cancelled_attempts.insert(tag);
            }
        }
    }

    /// Count one enactor-visible failure against `ce`; blacklist it at
    /// the configured consecutive-failure threshold.
    fn note_ce_failure<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>, ce: usize) {
        let n = self.ce_failures.entry(ce).or_insert(0);
        *n += 1;
        let failures = *n;
        if let Some(threshold) = self.ft.ce_blacklist_threshold {
            if failures >= threshold && self.blacklisted.insert(ce) {
                let at = ctx.backend.now();
                ctx.backend.blacklist_ce(ce, true);
                self.obs
                    .emit(|| TraceEvent::CeBlacklisted { at, ce, failures });
            }
        }
    }

    /// `logical` has exhausted its fault-tolerance options. Under
    /// `continue_on_error` the carried data items are quarantined —
    /// no tokens are routed, so their history-tree descendants simply
    /// never fire — and the workflow keeps going; otherwise the
    /// enactment aborts.
    fn terminal_failure<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
        message: String,
    ) -> Result<(), MoteurError> {
        let pend = self.remove_pending(logical);
        let workflow = Arc::clone(&self.workflow);
        let name = &workflow.processors[pend.proc.0].name;
        self.obs.emit(|| TraceEvent::JobFailed {
            at: ctx.backend.now(),
            invocation: logical,
            processor: name.clone(),
            error: message.clone(),
        });
        if self.ft.continue_on_error {
            let descendants = self.descendants_of(pend.proc);
            for entry in &pend.entries {
                self.quarantined.push(QuarantineEntry {
                    processor: name.clone(),
                    index: entry.index.to_string(),
                    error: message.clone(),
                    descendants: descendants.clone(),
                });
            }
            self.emit_gauges(ctx);
            Ok(())
        } else {
            Err(MoteurError::new(format!(
                "invocation of `{name}` failed: {message}"
            )))
        }
    }

    /// Downstream processors reachable from `proc` over data links, in
    /// breadth-first order — the descendants a quarantined item will
    /// never reach.
    fn descendants_of(&self, proc: ProcId) -> Vec<String> {
        let mut seen = vec![false; self.workflow.processors.len()];
        seen[proc.0] = true;
        let mut queue = VecDeque::from([proc]);
        let mut out = Vec::new();
        while let Some(p) = queue.pop_front() {
            for l in &self.workflow.links {
                if l.from.proc == p && !seen[l.to.proc.0] {
                    seen[l.to.proc.0] = true;
                    out.push(self.workflow.processors[l.to.proc.0].name.clone());
                    queue.push_back(l.to.proc);
                }
            }
        }
        out
    }

    /// Cancel and close every in-flight invocation: the workflow is
    /// aborting and nothing may be left with an open span or a live
    /// backend job.
    fn drain_pending<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) {
        let at = ctx.backend.now();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for logical in ids {
            self.cancel_attempts(ctx, logical);
            let pend = self.remove_pending(logical);
            self.obs.emit(|| TraceEvent::JobCancelled {
                at,
                invocation: logical,
                processor: self.workflow.processors[pend.proc.0].name.clone(),
                reason: "abort",
            });
        }
        self.deferred.clear();
        self.emit_gauges(ctx);
    }

    /// The winning attempt of `logical` completed: cancel the losers,
    /// record the duration sample, and route the outputs.
    fn handle_success<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
        winner: u64,
        c: BackendCompletion,
    ) -> Result<(), MoteurError> {
        let mut pend = self.remove_pending(logical);
        let proc_id = pend.proc;
        let workflow = Arc::clone(&self.workflow);
        let proc = &workflow.processors[proc_id.0];
        for tag in pend.attempts.drain(..) {
            if tag == winner {
                continue;
            }
            self.attempt_of.remove(&tag);
            if !ctx.backend.cancel(InvocationId(tag)) {
                self.cancelled_attempts.insert(tag);
            }
            let at = ctx.backend.now();
            self.obs.emit(|| TraceEvent::JobCancelled {
                at,
                invocation: tag,
                processor: proc.name.clone(),
                reason: "superseded",
            });
        }
        if let Some(ce) = c.ce {
            // A success resets the CE's consecutive-failure count.
            self.ce_failures.insert(ce, 0);
        }
        let sample = c.finished_at.since(pend.submitted).as_secs_f64();
        let samples = &mut self.proc_samples[proc_id.0];
        let window = self.config.port_capacity.max(SAMPLE_WINDOW);
        if samples.len() >= window {
            // The timeout statistics are bounded: overwrite the oldest
            // sample (percentiles don't care about order).
            let slot = self.sample_cursors[proc_id.0] % window;
            samples[slot] = sample;
            self.sample_cursors[proc_id.0] = self.sample_cursors[proc_id.0].wrapping_add(1);
        } else {
            samples.push(sample);
        }
        let local_outputs = c.outputs.expect("failure case handled by caller");
        for mut entry in pend.entries {
            let outputs = match (&local_outputs, entry.grid_outputs.take()) {
                (_, Some(synthesised)) => synthesised,
                (Some(outs), None) => outs.clone(),
                (None, None) => {
                    return Err(MoteurError::new(
                        "grid completion without synthesised outputs",
                    ))
                }
            };
            // Only the first `port_capacity` invocation records are
            // retained (`completed` and `sink_counts` carry the full
            // tallies).
            if self.records.len() < self.config.port_capacity {
                self.records.push(InvocationRecord {
                    processor: proc.name.clone(),
                    index: entry.index.clone(),
                    submitted: pend.submitted,
                    started: c.started_at,
                    finished: c.finished_at,
                    retries: pend.retries,
                });
            }
            let history = History::derived(proc.name.clone(), entry.input_histories);
            if let Some(key) = entry.cache_key.filter(|_| ctx.store.is_some()) {
                let prof = self.obs.prof().clone();
                let _prof = prof.scope(Subsystem::StoreIo);
                let mut recorded = Vec::with_capacity(outputs.len());
                for (port_name, value) in &outputs {
                    let pk = {
                        let _prof = prof.scope(Subsystem::ProvenanceKey);
                        self.history_xml.provenance_key(value, &history)
                    };
                    let store = ctx.store.as_deref_mut().expect("checked above");
                    match pk.and_then(|k| store.insert_with_key(k, value)) {
                        Some(pk) => recorded.push((port_name.clone(), pk)),
                        None => {
                            recorded.clear();
                            break;
                        }
                    }
                }
                let store = ctx.store.as_deref_mut().expect("checked above");
                // Only a complete output set makes a replayable
                // invocation; partial ones (an Opaque output, or an
                // output too large for the store's budget) are dropped.
                if !recorded.is_empty() && recorded.len() == outputs.len() {
                    store.record_invocation(key, proc.name.clone(), recorded);
                }
            }
            for (port_name, value) in outputs {
                let port_idx = proc
                    .outputs
                    .iter()
                    .position(|o| *o == port_name)
                    .ok_or_else(|| {
                        MoteurError::new(format!(
                            "service `{}` produced a value on unknown port `{port_name}`",
                            proc.name
                        ))
                    })?;
                let token = Token {
                    value,
                    index: entry.index.clone(),
                    history: history.clone(),
                };
                self.route(ctx, proc_id, port_idx, token);
            }
        }
        self.obs.emit(|| TraceEvent::JobCompleted {
            at: ctx.backend.now(),
            invocation: logical,
            processor: proc.name.clone(),
        });
        self.completed += 1;
        self.check_slo(ctx);
        self.emit_gauges(ctx);
        Ok(())
    }
}

/// Evaluate a cost model against only the rng — a free function so
/// call sites can keep a disjoint borrow of the owned workflow alive.
fn eval_cost_with(rng: &mut Rng, cost: &CostModel, index: &DataIndex) -> f64 {
    match cost {
        CostModel::Fixed(v) => *v,
        CostModel::Stochastic(d) => d.sample(rng),
        CostModel::ByIndex(f) => f(index),
    }
}

/// Input tokens handed to a *local* synchronization service: one list
/// token per port.
fn buffers_to_tokens(buffers: &[Vec<Token>], p: &crate::graph::Processor) -> Vec<Token> {
    buffers
        .iter()
        .map(|buf| Token {
            value: DataValue::List(buf.iter().map(|t| t.value.clone()).collect()),
            index: DataIndex::scalar(),
            history: History::derived(
                format!("{}:collect", p.name),
                buf.iter().map(|t| t.history.clone()).collect(),
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests;
