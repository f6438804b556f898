//! Multi-tenant enactment daemon: a long-lived service multiplexing
//! many concurrent [`WorkflowInstance`]s over one shared backend and
//! one shared provenance memo table.
//!
//! The paper's MOTEUR enactor is a one-shot engine — load one SCUFL
//! workflow, enact it, exit. The daemon is the production step beyond
//! the paper (ROADMAP item 1): `submit` accepts SCUFL source plus a
//! tenant id, every live instance is stepped cooperatively through the
//! resumable [`WorkflowInstance`] state machine, and the shared
//! [`DataStore`] turns the data-parallel cache into a *cross-tenant*
//! memo table — the second tenant submitting an identical workflow
//! replays the first tenant's results instead of recomputing them.
//!
//! Isolation comes from [`ScopedBackend`]: each instance's invocation
//! tags live in a disjoint 32-bit-shifted namespace, so completions
//! route back to their owner and a cancel can never retract a
//! sibling's jobs. Fairness comes from weighted round-robin dispatch:
//! each scheduling round gives every tenant a dispatch budget of
//! `weight × quantum` invocations (further capped by the tenant's
//! in-flight job ceiling), so one flooding tenant cannot starve the
//! rest. Admission control bounds live workflows per tenant; excess
//! submissions queue and admit as earlier ones finish.
//!
//! The daemon is event-driven: a scheduling round visits only the
//! *runnable* instances — those started, delivered to, timed or
//! overtaken by the clock since they were last seen at their firing
//! fixpoint — a timer wakes only the instances whose cached deadline
//! has passed (the *wake index*), and a (workflow, inputs) text pair is
//! parsed, and a workflow text compiled, once per daemon (`cache`), not
//! once per submission. DESIGN §4.16 has the argument for why skipping
//! everything else changes no backend submission.
//!
//! The control protocol lives in [`protocol`]: newline-delimited JSON
//! (`moteur/daemon/v1`) served over stdin/stdout or a Unix socket by
//! `moteur daemon`.

mod cache;
pub mod protocol;

use crate::backend::{Backend, BackendCompletion, InvocationId, ScopedBackend, WaitOutcome};
use crate::config::EnactorConfig;
use crate::enactor::{EnactCtx, InputData, WorkflowInstance};
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::graph::Workflow;
use crate::obs::Obs;
use crate::store::{DataStore, StoreStats};
use cache::{Source, SourceCache, Text};
use moteur_gridsim::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// How the daemon turns SCUFL source into an enactable workflow.
///
/// The core crate has no SCUFL parser (that lives in `moteur-scufl`,
/// which depends on core), so the embedder injects one
/// (`moteur_scufl::parse_submission`): the two arguments are the
/// workflow XML and the input-data XML.
///
/// The result must be a function of the two texts alone — the same
/// texts, the same workflow and inputs, or the same error. The daemon
/// relies on it: a pair it has parsed before is not parsed again, and
/// a call for a new inputs text under a known workflow text keeps only
/// the inputs.
pub type ScuflParser = fn(&str, &str) -> Result<(Workflow, InputData), MoteurError>;

/// Per-tenant admission and fairness knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Relative share of each scheduling round's dispatch budget.
    pub weight: u32,
    /// Live (admitted, unfinished) workflows allowed at once; further
    /// submissions queue.
    pub max_inflight_workflows: usize,
    /// Backend jobs the tenant may have in flight across all its
    /// instances.
    pub max_inflight_jobs: usize,
}

impl TenantConfig {
    /// Refuse a configuration under which `tenant`'s workflows could
    /// never finish, naming the field: a zero weight grants a zero
    /// dispatch budget every round, a zero workflow ceiling leaves
    /// every submission queued and a zero job ceiling admits
    /// workflows that then never dispatch.
    fn check(&self, tenant: &str) -> Result<(), MoteurError> {
        let zero = if self.weight == 0 {
            "weight 0 would never be scheduled"
        } else if self.max_inflight_workflows == 0 {
            "max_inflight_workflows 0 would queue its workflows forever"
        } else if self.max_inflight_jobs == 0 {
            "max_inflight_jobs 0 would never dispatch a job"
        } else {
            return Ok(());
        };
        Err(MoteurError::new(format!(
            "tenant `{tenant}`: {zero}; configure a positive value"
        )))
    }
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_inflight_workflows: 4,
            max_inflight_jobs: 256,
        }
    }
}

/// Daemon-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Applied to tenants without an explicit override.
    pub tenant_defaults: TenantConfig,
    /// Invocations one weight unit may dispatch per scheduling round;
    /// `0` is treated as `1`.
    pub quantum: usize,
    /// Per-tenant overrides of the defaults.
    pub tenant_overrides: BTreeMap<String, TenantConfig>,
}

impl DaemonConfig {
    /// The effective configuration of `tenant`.
    pub fn tenant(&self, tenant: &str) -> TenantConfig {
        self.tenant_overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.tenant_defaults)
    }

    fn quantum(&self) -> usize {
        self.quantum.max(1)
    }
}

/// Lifecycle of one submitted workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Accepted but waiting for an admission slot.
    Queued,
    /// Admitted and being stepped.
    Running,
    /// Finished with a valid [`crate::WorkflowResult`].
    Succeeded,
    /// Terminally failed (enactment error or deadlock).
    Failed,
    /// Cancelled by the tenant; in-flight jobs were drained.
    Cancelled,
}

impl InstanceState {
    /// Protocol label (`queued`, `running`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            InstanceState::Queued => "queued",
            InstanceState::Running => "running",
            InstanceState::Succeeded => "succeeded",
            InstanceState::Failed => "failed",
            InstanceState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(
            self,
            InstanceState::Succeeded | InstanceState::Failed | InstanceState::Cancelled
        )
    }
}

/// A parsed submission waiting for admission. It holds its cache
/// entries' parses, so their eviction cannot strand it.
struct QueuedWork {
    source: Arc<Source>,
    inputs: Arc<InputData>,
    config: EnactorConfig,
    ft: FtConfig,
}

enum Body {
    Queued(Box<QueuedWork>),
    Running(Box<WorkflowInstance>),
    Finished,
}

struct Slot {
    id: u32,
    tenant: String,
    workflow_name: String,
    state: InstanceState,
    submitted_at: SimTime,
    first_job_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    error: Option<String>,
    store_hits: u64,
    store_misses: u64,
    jobs_submitted: usize,
    makespan_secs: Option<f64>,
    body: Body,
    /// The instance's `next_wake()` as of its last touch — its key in
    /// [`Daemon::wake`]. Deadlines, adaptive budgets and deferrals
    /// change only when the instance is touched, so this is exact.
    wake: Option<SimTime>,
    /// The clock passed `wake` since the last pump: a backoff may be
    /// due, which the next pump resubmits even on a spent budget (the
    /// invocation already holds its share of the job ceiling).
    due: bool,
}

impl Slot {
    fn inflight(&self) -> usize {
        match &self.body {
            Body::Running(i) => i.inflight(),
            _ => 0,
        }
    }
}

/// One tenant's instances and counters. Every collection holds ids of
/// this tenant only, so a scheduling round never looks at a finished
/// instance or at another tenant's.
#[derive(Default)]
struct TenantState {
    name: String,
    store_hits: u64,
    store_misses: u64,
    /// Submissions waiting for a workflow slot, oldest first.
    queued: VecDeque<u32>,
    /// Admitted, unfinished instances.
    running: BTreeSet<u32>,
    /// The running instances a pump may move: touched (started,
    /// delivered to, timed, overtaken by the clock) since a dispatch
    /// round last saw them at their firing fixpoint.
    runnable: BTreeSet<u32>,
    /// Sum of `inflight()` over `running`, kept at every touch.
    inflight_jobs: usize,
}

/// Point-in-time view of one instance, rendered by `status` / `list`.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStatus {
    pub id: u32,
    pub tenant: String,
    pub workflow: String,
    pub state: InstanceState,
    pub submitted_at: f64,
    pub first_job_at: Option<f64>,
    pub finished_at: Option<f64>,
    pub inflight: usize,
    pub jobs_submitted: usize,
    pub store_hits: u64,
    pub store_misses: u64,
    pub makespan_secs: Option<f64>,
    pub error: Option<String>,
}

/// Per-tenant slice of [`DaemonMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    pub tenant: String,
    pub running: usize,
    pub queued: usize,
    pub inflight_jobs: usize,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl TenantMetrics {
    /// Hits over lookups attributed to this tenant; 0 with no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.store_hits + self.store_misses;
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }
}

/// Daemon-level gauges plus per-tenant label families.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonMetrics {
    pub running: usize,
    pub queued: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub cancelled: usize,
    pub store: StoreStats,
    pub tenants: Vec<TenantMetrics>,
}

/// The multi-tenant enactment service.
pub struct Daemon {
    backend: Box<dyn Backend>,
    store: DataStore,
    config: DaemonConfig,
    /// Sorted by name: the order a dispatch round visits them in.
    tenants: Vec<TenantState>,
    slots: Vec<Slot>,
    /// Instances per [`InstanceState`], by discriminant.
    counts: [usize; 5],
    /// The wake index: `(cached next_wake, id)` of every running
    /// instance that has one. Its first key is the daemon's deadline.
    wake: BTreeSet<(SimTime, u32)>,
    /// The only way to the parser: every parse and compile goes
    /// through it.
    sources: SourceCache,
    #[cfg(test)]
    probe: tests::Probe,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("instances", &self.slots.len())
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// A daemon over `backend` with `store` as the shared memo table.
    pub fn new(
        backend: Box<dyn Backend>,
        store: DataStore,
        parser: ScuflParser,
        config: DaemonConfig,
    ) -> Self {
        Daemon {
            backend,
            store,
            config,
            tenants: Vec::new(),
            slots: Vec::new(),
            counts: [0; 5],
            wake: BTreeSet::new(),
            sources: SourceCache::new(parser),
            #[cfg(test)]
            probe: tests::Probe::default(),
        }
    }

    /// Override the admission / fairness knobs of one tenant. A zero
    /// weight or a zero ceiling is rejected: the tenant's workflows
    /// would be accepted and then never finish.
    pub fn set_tenant(&mut self, tenant: &str, config: TenantConfig) -> Result<(), MoteurError> {
        config.check(tenant)?;
        self.config.tenant_overrides.insert(tenant.into(), config);
        Ok(())
    }

    /// Shared memo table (for inspection; the daemon owns it).
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Current backend clock.
    pub fn now(&self) -> SimTime {
        self.backend.now()
    }

    /// Accept a workflow submission from `tenant`. The source is
    /// parsed immediately, unless the daemon parsed the same pair of
    /// texts before (malformed SCUFL is rejected here, not later); the
    /// instance is admitted at once when the tenant has a free workflow
    /// slot, otherwise it queues. Returns the instance id used by
    /// `status` / `cancel`.
    pub fn submit(
        &mut self,
        tenant: &str,
        workflow_xml: &str,
        inputs_xml: &str,
        config: EnactorConfig,
        ft: FtConfig,
    ) -> Result<u32, MoteurError> {
        // A config constructed directly (bypassing `set_tenant`) can
        // still carry a zero: reject loudly at the protocol boundary
        // instead of accepting a workflow that would hang.
        self.config.tenant(tenant).check(tenant)?;
        // Refused before the cache is looked at: a refusal evicts
        // nothing.
        let id = u32::try_from(self.slots.len() + 1)
            .map_err(|_| MoteurError::new("daemon instance table full"))?;
        let (source, inputs) = self
            .sources
            .parse(Text::of(workflow_xml), Text::of(inputs_xml))?;
        let workflow_name = source.workflow.name.clone();
        let t = match self.tenant_index(tenant) {
            Ok(t) => t,
            Err(t) => {
                let state = TenantState {
                    name: tenant.into(),
                    ..TenantState::default()
                };
                self.tenants.insert(t, state);
                t
            }
        };
        self.tenants[t].queued.push_back(id);
        self.counts[InstanceState::Queued as usize] += 1;
        self.slots.push(Slot {
            id,
            tenant: tenant.into(),
            workflow_name,
            state: InstanceState::Queued,
            submitted_at: self.backend.now(),
            first_job_at: None,
            finished_at: None,
            error: None,
            store_hits: 0,
            store_misses: 0,
            jobs_submitted: 0,
            makespan_secs: None,
            body: Body::Queued(Box::new(QueuedWork {
                source,
                inputs,
                config,
                ft,
            })),
            wake: None,
            due: false,
        });
        self.schedule();
        Ok(id)
    }

    /// Cancel a queued or running instance, draining its in-flight
    /// jobs from the shared backend (`WorkflowInstance::abort`
    /// through a `ScopedBackend` retracts only this instance's
    /// attempt tags). `false` when the id is unknown or the instance
    /// already reached a terminal state.
    pub fn cancel(&mut self, id: u32) -> bool {
        let Some(i) = self.slot_index(id) else {
            return false;
        };
        if self.slots[i].state.is_terminal() {
            return false;
        }
        self.end(i, InstanceState::Cancelled, None);
        // A workflow slot freed up; admit queued work.
        self.schedule();
        true
    }

    /// Status of one instance; `None` for an unknown id.
    pub fn status(&self, id: u32) -> Option<InstanceStatus> {
        self.slot_index(id).map(|i| self.status_of(&self.slots[i]))
    }

    /// Status of every instance, in submission order.
    pub fn list(&self) -> Vec<InstanceStatus> {
        self.slots.iter().map(|s| self.status_of(s)).collect()
    }

    /// Daemon gauges plus per-tenant families, tenants sorted by name.
    pub fn metrics(&self) -> DaemonMetrics {
        let tenants = self
            .tenants
            .iter()
            .map(|t| TenantMetrics {
                tenant: t.name.clone(),
                running: t.running.len(),
                queued: t.queued.len(),
                inflight_jobs: t.inflight_jobs,
                store_hits: t.store_hits,
                store_misses: t.store_misses,
            })
            .collect();
        let count = |state: InstanceState| self.counts[state as usize];
        DaemonMetrics {
            running: count(InstanceState::Running),
            queued: count(InstanceState::Queued),
            succeeded: count(InstanceState::Succeeded),
            failed: count(InstanceState::Failed),
            cancelled: count(InstanceState::Cancelled),
            store: self.store.stats(),
            tenants,
        }
    }

    /// Step the daemon through one backend wait: admit and pump every
    /// runnable instance, then block on the earliest of the next
    /// completion and the first key of the wake index. Returns `false`
    /// once no instance is running (queued without running cannot
    /// happen: zero workflow ceilings are refused).
    pub fn step(&mut self) -> bool {
        self.schedule();
        if self.counts[InstanceState::Running as usize] == 0 {
            return false;
        }
        let wake = self.next_wake();
        let timed_out = match self.backend.wait(wake) {
            WaitOutcome::Completion(c) => {
                self.route(c);
                false
            }
            WaitOutcome::TimedOut if wake.is_some() => true,
            WaitOutcome::TimedOut => {
                // Running instances but nothing at the backend and no
                // timer: the shared backend lost their jobs. Fail them
                // rather than spin forever.
                for id in self.running_ids() {
                    self.end(
                        id as usize - 1,
                        InstanceState::Failed,
                        Some("backend returned no completion for in-flight work".into()),
                    );
                }
                return true;
            }
        };
        self.wake_due(timed_out);
        true
    }

    /// Run [`Daemon::step`] until every instance reaches a terminal
    /// state; returns how many succeeded overall.
    pub fn drain(&mut self) -> usize {
        while self.step() {}
        self.counts[InstanceState::Succeeded as usize]
    }

    // -- internals ----------------------------------------------------

    fn slot_index(&self, id: u32) -> Option<usize> {
        // Ids are 1-based submission order.
        let i = (id as usize).checked_sub(1)?;
        (i < self.slots.len()).then_some(i)
    }

    /// Where `tenant` is, or where it would be inserted.
    fn tenant_index(&self, tenant: &str) -> Result<usize, usize> {
        self.tenants
            .binary_search_by(|t| t.name.as_str().cmp(tenant))
    }

    /// The tenant of slot `i`; a slot's tenant exists from `submit` on.
    fn tenant_of(&self, i: usize) -> usize {
        self.tenant_index(&self.slots[i].tenant)
            .expect("a submitted slot's tenant is registered")
    }

    fn status_of(&self, s: &Slot) -> InstanceStatus {
        InstanceStatus {
            id: s.id,
            tenant: s.tenant.clone(),
            workflow: s.workflow_name.clone(),
            state: s.state,
            submitted_at: s.submitted_at.as_secs_f64(),
            first_job_at: s.first_job_at.map(SimTime::as_secs_f64),
            finished_at: s.finished_at.map(SimTime::as_secs_f64),
            inflight: s.inflight(),
            jobs_submitted: s.jobs_submitted,
            store_hits: s.store_hits,
            store_misses: s.store_misses,
            makespan_secs: s.makespan_secs,
            error: s.error.clone(),
        }
    }

    fn set_state(&mut self, i: usize, state: InstanceState) {
        self.counts[self.slots[i].state as usize] -= 1;
        self.counts[state as usize] += 1;
        self.slots[i].state = state;
    }

    /// Every running instance, ids ascending.
    fn running_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .tenants
            .iter()
            .flat_map(|t| t.running.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Take slot `i` out of its tenant's collections and the wake
    /// index and stamp its end; hands back the instance if it was
    /// running.
    fn retire(&mut self, i: usize) -> Option<Box<WorkflowInstance>> {
        let t = self.tenant_of(i);
        let (slot, tenant) = (&mut self.slots[i], &mut self.tenants[t]);
        slot.finished_at = Some(self.backend.now());
        match std::mem::replace(&mut slot.body, Body::Finished) {
            Body::Running(instance) => {
                tenant.running.remove(&slot.id);
                tenant.runnable.remove(&slot.id);
                tenant.inflight_jobs -= instance.inflight();
                if let Some(at) = slot.wake.take() {
                    self.wake.remove(&(at, slot.id));
                }
                Some(instance)
            }
            Body::Queued(_) => {
                tenant.queued.retain(|&id| id != slot.id);
                None
            }
            Body::Finished => None,
        }
    }

    /// End slot `i` short of success: retract whatever it has at the
    /// backend and record why.
    fn end(&mut self, i: usize, state: InstanceState, error: Option<String>) {
        if let Some(mut instance) = self.retire(i) {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), self.slots[i].id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            instance.abort(&mut ctx);
        }
        self.set_state(i, state);
        self.slots[i].error = error;
    }

    /// One step of running instance `i` against its scoped view of the
    /// shared backend and store — the only way the daemon touches an
    /// instance, so everything derived from instance state is brought
    /// up to date here: store traffic is credited to the slot and its
    /// tenant, the tenant's in-flight jobs and the wake index follow
    /// the instance, and the instance is runnable again. An error
    /// fails the instance and yields `None`.
    fn touch<R>(
        &mut self,
        i: usize,
        step: impl FnOnce(&mut WorkflowInstance, &mut EnactCtx<'_>) -> Result<R, MoteurError>,
    ) -> Option<R> {
        let t = self.tenant_of(i);
        let (slot, tenant) = (&mut self.slots[i], &mut self.tenants[t]);
        let Body::Running(instance) = &mut slot.body else {
            return None;
        };
        let before = self.store.stats();
        let inflight = instance.inflight();
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = step(instance, &mut ctx);
        let after = self.store.stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        slot.store_hits += hits;
        slot.store_misses += misses;
        tenant.store_hits += hits;
        tenant.store_misses += misses;
        slot.jobs_submitted = instance.jobs_submitted();
        tenant.inflight_jobs = tenant.inflight_jobs - inflight + instance.inflight();
        tenant.runnable.insert(slot.id);
        let wake = instance.next_wake();
        if wake != slot.wake {
            if let Some(at) = slot.wake {
                self.wake.remove(&(at, slot.id));
            }
            if let Some(at) = wake {
                self.wake.insert((at, slot.id));
            }
            slot.wake = wake;
        }
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                self.end(i, InstanceState::Failed, Some(e.message().into()));
                None
            }
        }
    }

    /// Admission + weighted fair dispatch + reaping, to fixpoint.
    fn schedule(&mut self) {
        let mut idle = Vec::new();
        loop {
            self.admit();
            let dispatched = self.dispatch_round(&mut idle);
            // Finished instances free admission slots mid-fixpoint.
            self.reap(&mut idle);
            if dispatched == 0 && !self.has_admittable() {
                break;
            }
        }
    }

    /// One weighted round-robin dispatch round: each tenant gets a
    /// budget of `weight × quantum` dispatches (capped by what its
    /// in-flight job ceiling leaves), spread over its *runnable*
    /// instances in submission order. An instance leaves the runnable
    /// set when it is at its firing fixpoint: its pump came back under
    /// the budget it was given (the firing loop stops early only on
    /// the budget) or it is quiescent, which needs no pump to see. It
    /// is reported in `idle` when it then has nothing in flight.
    /// [`Daemon::schedule`] repeats rounds until one dispatches
    /// nothing, so dispatch reaches the same fixpoint as the one-shot
    /// engine's fire-to-fixpoint phase — just interleaved fairly
    /// across tenants.
    fn dispatch_round(&mut self, idle: &mut Vec<u32>) -> usize {
        #[cfg(test)]
        self.probe_round();
        let mut dispatched = 0;
        for t in 0..self.tenants.len() {
            if self.tenants[t].runnable.is_empty() {
                continue;
            }
            let cfg = self.config.tenant(&self.tenants[t].name);
            // saturating_mul: an extreme `--weights` value must clamp
            // the budget, not overflow it to a tiny (or panicking) cap.
            let mut remaining = (cfg.weight as usize)
                .saturating_mul(self.config.quantum())
                .min(
                    cfg.max_inflight_jobs
                        .saturating_sub(self.tenants[t].inflight_jobs),
                );
            // Pumping edits the set, so walk it by cursor (ids start
            // at 1).
            let mut last = 0u32;
            while let Some(&id) = last
                .checked_add(1)
                .and_then(|from| self.tenants[t].runnable.range(from..).next())
            {
                last = id;
                let i = id as usize - 1;
                // Pump what has something to fire and a budget to fire
                // it under; a due backoff is resubmitted regardless.
                let due = std::mem::take(&mut self.slots[i].due);
                let Body::Running(instance) = &self.slots[i].body else {
                    unreachable!("a runnable id is a running instance")
                };
                let fired = if due || (remaining > 0 && !instance.quiescent()) {
                    self.pump(i, remaining)
                } else {
                    0
                };
                // An error in the pump has failed and retired it.
                if let Body::Running(instance) = &self.slots[i].body {
                    if fired < remaining || instance.quiescent() {
                        self.tenants[t].runnable.remove(&id);
                        #[cfg(test)]
                        self.probe.settled(id);
                        if instance.inflight() == 0 {
                            idle.push(id);
                        }
                    }
                }
                remaining -= fired.min(remaining);
                dispatched += fired;
            }
        }
        dispatched
    }

    /// Is any queued submission admissible right now?
    fn has_admittable(&self) -> bool {
        self.tenants.iter().any(|t| {
            !t.queued.is_empty()
                && t.running.len() < self.config.tenant(&t.name).max_inflight_workflows
        })
    }

    /// Admit each tenant's oldest queued submissions while it has a
    /// free workflow slot.
    fn admit(&mut self) {
        for t in 0..self.tenants.len() {
            let cap = self
                .config
                .tenant(&self.tenants[t].name)
                .max_inflight_workflows;
            while self.tenants[t].running.len() < cap {
                let Some(id) = self.tenants[t].queued.pop_front() else {
                    break;
                };
                self.start(id as usize - 1, t);
            }
        }
    }

    /// Compile (or find compiled) and start the queued submission in
    /// slot `i` of tenant `t`; a rejection makes it a failed instance.
    fn start(&mut self, i: usize, t: usize) {
        let slot = &mut self.slots[i];
        let Body::Queued(work) = std::mem::replace(&mut slot.body, Body::Finished) else {
            unreachable!("queued state carries queued work")
        };
        let QueuedWork {
            source,
            inputs,
            config,
            ft,
        } = *work;
        let started = self.sources.compile(&source, &config).and_then(|compiled| {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            WorkflowInstance::start(compiled, &inputs, config, ft, &mut ctx, Obs::off())
        });
        match started {
            Ok(instance) => {
                slot.body = Body::Running(Box::new(instance));
                self.tenants[t].running.insert(slot.id);
                self.tenants[t].runnable.insert(slot.id);
                self.set_state(i, InstanceState::Running);
            }
            Err(e) => self.end(i, InstanceState::Failed, Some(e.message().into())),
        }
    }

    /// Pump running instance `i` under a dispatch budget; returns how
    /// many invocations it dispatched. Errors fail the instance.
    fn pump(&mut self, i: usize, budget: usize) -> usize {
        #[cfg(test)]
        let quiescent = matches!(&self.slots[i].body, Body::Running(x) if x.quiescent());
        let fired = self
            .touch(i, |instance, ctx| instance.pump_budgeted(ctx, Some(budget)))
            .unwrap_or(0);
        #[cfg(test)]
        self.probe.pumped(self.slots[i].id, fired, quiescent);
        if fired > 0 && self.slots[i].first_job_at.is_none() {
            self.slots[i].first_job_at = Some(self.backend.now());
        }
        fired
    }

    /// Finish the instances the round found at their fixpoint with
    /// nothing in flight. Mirrors the one-shot loop's exit condition:
    /// after a fire-to-fixpoint, zero in-flight work means done.
    fn reap(&mut self, idle: &mut Vec<u32>) {
        idle.sort_unstable();
        for id in idle.drain(..) {
            let i = id as usize - 1;
            let Some(instance) = self.retire(i) else {
                continue;
            };
            match instance.finish(self.backend.now()) {
                Ok(result) => {
                    self.set_state(i, InstanceState::Succeeded);
                    let slot = &mut self.slots[i];
                    slot.jobs_submitted = result.jobs_submitted;
                    slot.makespan_secs = Some(result.makespan.as_secs_f64());
                }
                Err(e) => {
                    self.set_state(i, InstanceState::Failed);
                    self.slots[i].error = Some(e.message().into());
                }
            }
        }
    }

    /// Route one raw backend completion to its owning instance.
    fn route(&mut self, mut c: BackendCompletion) {
        let id = ScopedBackend::instance_of(c.invocation.0);
        c.invocation = InvocationId(ScopedBackend::local_tag(c.invocation.0));
        // A late completion of an unknown, cancelled or failed
        // instance is dropped (`touch` finds nothing running).
        if let Some(i) = self.slot_index(id) {
            #[cfg(test)]
            self.probe.touched(id);
            self.touch(i, |instance, ctx| instance.deliver(ctx, c));
        }
    }

    /// The daemon's deadline: the earliest cached wake time.
    fn next_wake(&self) -> Option<SimTime> {
        #[cfg(test)]
        if self.probe.exhaustive {
            return self.scan_next_wake();
        }
        self.wake.first().map(|&(at, _)| at)
    }

    /// After a backend wait: every instance whose cached wake time the
    /// clock has reached is runnable again, in id order. When the wait
    /// `timed_out` each first acts on its expired timeouts; a wake time
    /// still standing afterwards is a due backoff, which the next pump
    /// resubmits.
    fn wake_due(&mut self, timed_out: bool) {
        let now = self.backend.now();
        for id in self.woken(now) {
            let i = id as usize - 1;
            if timed_out {
                // The method path is one instantiation of `on_timer`;
                // `touch` needs it for every scoped-backend lifetime.
                #[allow(clippy::redundant_closure_for_method_calls)]
                self.touch(i, |instance, ctx| instance.on_timer(ctx));
            }
            let slot = &mut self.slots[i];
            if slot.state == InstanceState::Running && slot.wake.is_some_and(|at| at <= now) {
                slot.due = true;
                let t = self.tenant_of(i);
                self.tenants[t].runnable.insert(id);
            }
            #[cfg(test)]
            self.probe.touched(id);
        }
    }

    /// Ids in the wake index at or before `now`, ascending.
    fn woken(&self, now: SimTime) -> Vec<u32> {
        #[cfg(test)]
        if self.probe.exhaustive {
            return self.running_ids();
        }
        let mut ids: Vec<u32> = self
            .wake
            .iter()
            .take_while(|&&(at, _)| at <= now)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

// The daemon's behavioural tests live in `tests/daemon.rs`: they
// parse SCUFL through `moteur-scufl`, whose dev-dependency cycle
// resolves to a *separate* build of this crate inside unit tests.
// `tests.rs` here checks the scheduler against its exhaustive mode on
// workflows built without a parser.
#[cfg(test)]
mod tests;
