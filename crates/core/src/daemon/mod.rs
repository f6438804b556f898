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
//! The control protocol lives in [`protocol`]: newline-delimited JSON
//! (`moteur/daemon/v1`) served over stdin/stdout or a Unix socket by
//! `moteur daemon`.

pub mod protocol;

use crate::backend::{Backend, BackendCompletion, InvocationId, ScopedBackend, WaitOutcome};
use crate::config::EnactorConfig;
use crate::enactor::{EnactCtx, InputData, WorkflowInstance};
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::graph::Workflow;
use crate::obs::Obs;
use crate::store::{DataStore, StoreStats};
use moteur_gridsim::SimTime;
use std::collections::BTreeMap;

/// How the daemon turns SCUFL source into an enactable workflow.
///
/// The core crate has no SCUFL parser (that lives in `moteur-scufl`,
/// which depends on core), so the embedder injects one: the two
/// arguments are the workflow XML and the input-data XML.
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

/// A parsed submission waiting for admission.
struct QueuedWork {
    workflow: Workflow,
    inputs: InputData,
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
}

impl Slot {
    fn inflight(&self) -> usize {
        match &self.body {
            Body::Running(i) => i.inflight(),
            _ => 0,
        }
    }
}

#[derive(Default)]
struct TenantState {
    store_hits: u64,
    store_misses: u64,
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
    parser: ScuflParser,
    config: DaemonConfig,
    tenants: BTreeMap<String, TenantState>,
    slots: Vec<Slot>,
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
            parser,
            config,
            tenants: BTreeMap::new(),
            slots: Vec::new(),
        }
    }

    /// Override the admission / fairness knobs of one tenant. A weight
    /// of zero is rejected: it would grant the tenant a zero dispatch
    /// budget every round, silently starving its admitted workflows
    /// forever.
    pub fn set_tenant(&mut self, tenant: &str, config: TenantConfig) -> Result<(), MoteurError> {
        if config.weight == 0 {
            return Err(MoteurError::new(format!(
                "tenant `{tenant}`: weight 0 would starve its workflows \
                 forever; use a positive weight"
            )));
        }
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
    /// parsed immediately (malformed SCUFL is rejected here, not
    /// later); the instance is admitted at once when the tenant has a
    /// free workflow slot, otherwise it queues. Returns the instance
    /// id used by `status` / `cancel`.
    pub fn submit(
        &mut self,
        tenant: &str,
        workflow_xml: &str,
        inputs_xml: &str,
        config: EnactorConfig,
        ft: FtConfig,
    ) -> Result<u32, MoteurError> {
        if self.config.tenant(tenant).weight == 0 {
            // A zero-weight tenant gets a zero dispatch budget every
            // round: its workflows would admit and then hang forever.
            // Reject loudly at the protocol boundary instead.
            return Err(MoteurError::new(format!(
                "tenant `{tenant}` has weight 0 and would never be \
                 scheduled; configure a positive weight"
            )));
        }
        let (workflow, inputs) = (self.parser)(workflow_xml, inputs_xml)?;
        let id = u32::try_from(self.slots.len() + 1)
            .map_err(|_| MoteurError::new("daemon instance table full"))?;
        self.tenants.entry(tenant.into()).or_default();
        self.slots.push(Slot {
            id,
            tenant: tenant.into(),
            workflow_name: workflow.name.clone(),
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
                workflow,
                inputs,
                config,
                ft,
            })),
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
        let slot = &mut self.slots[i];
        if let Body::Running(instance) = &mut slot.body {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            instance.abort(&mut ctx);
        }
        slot.body = Body::Finished;
        slot.state = InstanceState::Cancelled;
        slot.finished_at = Some(self.backend.now());
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
        let mut running = 0;
        let mut queued = 0;
        let mut succeeded = 0;
        let mut failed = 0;
        let mut cancelled = 0;
        for s in &self.slots {
            match s.state {
                InstanceState::Queued => queued += 1,
                InstanceState::Running => running += 1,
                InstanceState::Succeeded => succeeded += 1,
                InstanceState::Failed => failed += 1,
                InstanceState::Cancelled => cancelled += 1,
            }
        }
        let tenants = self
            .tenants
            .iter()
            .map(|(name, t)| TenantMetrics {
                tenant: name.clone(),
                running: self.count_state(name, InstanceState::Running),
                queued: self.count_state(name, InstanceState::Queued),
                inflight_jobs: self.tenant_inflight_jobs(name),
                store_hits: t.store_hits,
                store_misses: t.store_misses,
            })
            .collect();
        DaemonMetrics {
            running,
            queued,
            succeeded,
            failed,
            cancelled,
            store: self.store.stats(),
            tenants,
        }
    }

    /// Step the daemon through one backend wait: admit and pump every
    /// runnable instance, then block on the earliest of the next
    /// completion and the next fault-tolerance deadline. Returns
    /// `false` once no instance is queued or running.
    pub fn step(&mut self) -> bool {
        self.schedule();
        let live: Vec<u32> = self
            .slots
            .iter()
            .filter(|s| s.state == InstanceState::Running)
            .map(|s| s.id)
            .collect();
        if live.is_empty() {
            // Queued without running can only mean admission is wedged
            // (a tenant configured with zero workflow slots).
            return false;
        }
        let mut wake: Option<SimTime> = None;
        for &id in &live {
            let i = self.slot_index(id).expect("listed above");
            if let Body::Running(instance) = &self.slots[i].body {
                if let Some(w) = instance.next_wake() {
                    wake = Some(wake.map_or(w, |c| c.min(w)));
                }
            }
        }
        match wake {
            None => match self.backend.wait_next() {
                Some(c) => self.route(c),
                None => {
                    // Running instances but nothing at the backend and
                    // no timer: the shared backend lost their jobs.
                    // Fail them rather than spin forever.
                    for id in live {
                        self.fail(
                            id,
                            "backend returned no completion for in-flight work".into(),
                        );
                    }
                }
            },
            Some(deadline) => match self.backend.wait_next_until(deadline) {
                WaitOutcome::Completion(c) => self.route(c),
                WaitOutcome::TimedOut => {
                    for id in live {
                        self.timer(id);
                    }
                }
            },
        }
        true
    }

    /// Run [`Daemon::step`] until every instance reaches a terminal
    /// state; returns how many succeeded overall.
    pub fn drain(&mut self) -> usize {
        while self.step() {}
        self.slots
            .iter()
            .filter(|s| s.state == InstanceState::Succeeded)
            .count()
    }

    // -- internals ----------------------------------------------------

    fn slot_index(&self, id: u32) -> Option<usize> {
        // Ids are 1-based submission order.
        let i = (id as usize).checked_sub(1)?;
        (i < self.slots.len()).then_some(i)
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

    fn count_state(&self, tenant: &str, state: InstanceState) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tenant == tenant && s.state == state)
            .count()
    }

    fn tenant_inflight_jobs(&self, tenant: &str) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tenant == tenant)
            .map(Slot::inflight)
            .sum()
    }

    /// Credit a store-stats delta to slot `i` and its tenant.
    fn attribute(&mut self, i: usize, before: StoreStats) {
        let after = self.store.stats();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let slot = &mut self.slots[i];
        slot.store_hits += hits;
        slot.store_misses += misses;
        if let Some(t) = self.tenants.get_mut(&slot.tenant) {
            t.store_hits += hits;
            t.store_misses += misses;
        }
    }

    fn fail(&mut self, id: u32, message: String) {
        let Some(i) = self.slot_index(id) else { return };
        let slot = &mut self.slots[i];
        if let Body::Running(instance) = &mut slot.body {
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            instance.abort(&mut ctx);
        }
        slot.body = Body::Finished;
        slot.state = InstanceState::Failed;
        slot.error = Some(message);
        slot.finished_at = Some(self.backend.now());
    }

    /// Admission + weighted fair dispatch + reaping, to fixpoint.
    fn schedule(&mut self) {
        loop {
            self.admit();
            let dispatched = self.dispatch_round();
            // Finished instances free admission slots mid-fixpoint.
            self.reap();
            if dispatched == 0 && !self.has_admittable() {
                break;
            }
        }
    }

    /// One weighted round-robin dispatch round: each tenant gets a
    /// budget of `weight × quantum` dispatches (capped by its
    /// in-flight job ceiling), spread over its running instances in
    /// submission order. [`Daemon::schedule`] repeats rounds until one
    /// dispatches nothing, so dispatch reaches the same fixpoint as
    /// the one-shot engine's fire-to-fixpoint phase — just interleaved
    /// fairly across tenants.
    fn dispatch_round(&mut self) -> usize {
        let tenant_names: Vec<String> = self.tenants.keys().cloned().collect();
        let mut dispatched = 0;
        for tenant in &tenant_names {
            let cfg = self.config.tenant(tenant);
            // saturating_mul: an extreme `--weights` value must clamp
            // the budget, not overflow it to a tiny (or panicking) cap.
            let cap = (cfg.weight as usize)
                .saturating_mul(self.config.quantum())
                .min(
                    cfg.max_inflight_jobs
                        .saturating_sub(self.tenant_inflight_jobs(tenant)),
                );
            let mut remaining = cap;
            let ids: Vec<u32> = self
                .slots
                .iter()
                .filter(|s| s.tenant == *tenant && s.state == InstanceState::Running)
                .map(|s| s.id)
                .collect();
            for id in ids {
                if remaining == 0 {
                    break;
                }
                let fired = self.pump(id, Some(remaining));
                remaining -= fired.min(remaining);
                dispatched += fired;
            }
        }
        dispatched
    }

    /// Is any queued submission admissible right now?
    fn has_admittable(&self) -> bool {
        self.slots.iter().any(|s| {
            s.state == InstanceState::Queued
                && self.count_state(&s.tenant, InstanceState::Running)
                    < self.config.tenant(&s.tenant).max_inflight_workflows
        })
    }

    /// Admit queued submissions whose tenant has a free workflow slot.
    fn admit(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].state != InstanceState::Queued {
                continue;
            }
            let tenant = self.slots[i].tenant.clone();
            let cfg = self.config.tenant(&tenant);
            if self.count_state(&tenant, InstanceState::Running) >= cfg.max_inflight_workflows {
                continue;
            }
            let body = std::mem::replace(&mut self.slots[i].body, Body::Finished);
            let Body::Queued(work) = body else {
                unreachable!("queued state carries queued work")
            };
            let before = self.store.stats();
            let id = self.slots[i].id;
            let mut scoped = ScopedBackend::new(self.backend.as_mut(), id);
            let mut ctx = EnactCtx {
                backend: &mut scoped,
                store: Some(&mut self.store),
            };
            match WorkflowInstance::start(
                &work.workflow,
                &work.inputs,
                work.config,
                work.ft,
                &mut ctx,
                Obs::off(),
            ) {
                Ok(instance) => {
                    self.slots[i].body = Body::Running(Box::new(instance));
                    self.slots[i].state = InstanceState::Running;
                    self.attribute(i, before);
                }
                Err(e) => {
                    self.attribute(i, before);
                    self.fail(id, e.message().into());
                }
            }
        }
    }

    /// Pump one running instance under a dispatch budget; returns how
    /// many invocations it dispatched. Errors fail the instance.
    fn pump(&mut self, id: u32, budget: Option<usize>) -> usize {
        let Some(i) = self.slot_index(id) else {
            return 0;
        };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return 0;
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.pump_budgeted(&mut ctx, budget);
        let jobs = instance.jobs_submitted();
        self.slots[i].jobs_submitted = jobs;
        self.attribute(i, before);
        match result {
            Ok(fired) => {
                if fired > 0 && self.slots[i].first_job_at.is_none() {
                    self.slots[i].first_job_at = Some(self.backend.now());
                }
                fired
            }
            Err(e) => {
                self.fail(id, e.message().into());
                0
            }
        }
    }

    /// Finish every running instance whose work is exhausted. Mirrors
    /// the one-shot loop's exit condition: after a fire-to-fixpoint
    /// with nothing dispatched, zero in-flight work means done.
    fn reap(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].state != InstanceState::Running || self.slots[i].inflight() > 0 {
                continue;
            }
            // A final unbudgeted pump distinguishes "done" from "ready
            // work parked behind a budget cap".
            let id = self.slots[i].id;
            if self.pump(id, None) > 0 || self.slots[i].state != InstanceState::Running {
                continue;
            }
            let body = std::mem::replace(&mut self.slots[i].body, Body::Finished);
            let Body::Running(instance) = body else {
                unreachable!("running state carries an instance")
            };
            let now = self.backend.now();
            let slot = &mut self.slots[i];
            slot.finished_at = Some(now);
            match instance.finish(now) {
                Ok(result) => {
                    slot.state = InstanceState::Succeeded;
                    slot.jobs_submitted = result.jobs_submitted;
                    slot.makespan_secs = Some(result.makespan.as_secs_f64());
                }
                Err(e) => {
                    slot.state = InstanceState::Failed;
                    slot.error = Some(e.message().into());
                }
            }
        }
    }

    /// Route one raw backend completion to its owning instance.
    fn route(&mut self, mut c: BackendCompletion) {
        let id = ScopedBackend::instance_of(c.invocation.0);
        c.invocation = InvocationId(ScopedBackend::local_tag(c.invocation.0));
        let Some(i) = self.slot_index(id) else {
            return; // late completion of an unknown instance: drop
        };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return; // instance already cancelled/failed: drop
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.deliver(&mut ctx, c);
        self.attribute(i, before);
        if let Err(e) = result {
            self.fail(id, e.message().into());
        }
    }

    /// A backend wait timed out at an instance deadline: let every
    /// running instance act on expired timeouts and due backoffs.
    fn timer(&mut self, id: u32) {
        let Some(i) = self.slot_index(id) else { return };
        let before = self.store.stats();
        let slot = &mut self.slots[i];
        let Body::Running(instance) = &mut slot.body else {
            return;
        };
        let mut scoped = ScopedBackend::new(self.backend.as_mut(), slot.id);
        let mut ctx = EnactCtx {
            backend: &mut scoped,
            store: Some(&mut self.store),
        };
        let result = instance.on_timer(&mut ctx);
        self.attribute(i, before);
        if let Err(e) = result {
            self.fail(id, e.message().into());
        }
    }
}

// The daemon's behavioural tests live in `tests/daemon.rs`: they
// parse SCUFL through `moteur-scufl`, whose dev-dependency cycle
// resolves to a *separate* build of this crate inside unit tests.
