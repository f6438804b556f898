//! Attempts: the pending table and its deadline index, timeouts, the
//! one way an invocation gets another attempt (retry, timeout
//! resubmission, speculative replica), failure, quarantine and abort.

use super::{EnactCtx, WorkflowInstance};
use crate::backend::{Backend, InvocationId, JobPayload, ServiceOutputs};
use crate::error::MoteurError;
use crate::ft::{QuarantineEntry, TimeoutAction};
use crate::graph::ProcId;
use crate::obs::TraceEvent;
use crate::store::InvocationKey;
use crate::token::{DataIndex, History, Token};
use moteur_gridsim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// One workflow invocation carried by a backend job (batched grid jobs
/// carry several).
pub(super) struct PendEntry {
    pub(super) index: DataIndex,
    pub(super) input_histories: Vec<Arc<History>>,
    /// Pre-synthesised output tokens for grid jobs (`None` → the
    /// completion carries real outputs from a local service).
    pub(super) grid_outputs: Option<ServiceOutputs>,
    /// `Some` when the data manager missed on this invocation: record
    /// the outputs under this key once the job completes.
    pub(super) cache_key: Option<InvocationKey>,
}

impl PendEntry {
    /// The entry of the invocation at `index` consuming `tokens`.
    pub(super) fn of(
        index: DataIndex,
        tokens: &[Token],
        grid_outputs: Option<ServiceOutputs>,
        cache_key: Option<InvocationKey>,
    ) -> Self {
        PendEntry {
            index,
            input_histories: tokens.iter().map(|t| t.history.clone()).collect(),
            grid_outputs,
            cache_key,
        }
    }
}

pub(super) struct PendingJob {
    pub(super) proc: ProcId,
    pub(super) entries: Vec<PendEntry>,
    /// Retained for enactor-level resubmission of failed grid jobs.
    pub(super) payload: JobPayload,
    pub(super) retries: u32,
    pub(super) submitted: SimTime,
    /// Attempt tags currently live at the backend. Failure resubmits
    /// reuse the logical tag (the failed attempt has terminally
    /// completed); timeout resubmits and speculative replicas carry
    /// fresh tags. Empty while the invocation waits in the backoff
    /// queue.
    pub(super) attempts: Vec<u64>,
    /// When the current timeout window opened: original submission,
    /// restarted on every resubmission and extended on every replica.
    pub(super) window_start: SimTime,
    /// True once timeouts stopped applying (replica cap reached, or a
    /// cache replay that cannot time out).
    pub(super) muted: bool,
    /// Speculative replicas launched so far.
    pub(super) replicas: u32,
}

impl PendingJob {
    /// When the timeout window this invocation is *armed* under opened:
    /// `None` while timeouts do not apply to it (muted, or waiting in
    /// the backoff queue with no live attempt). Its key in the
    /// processor's deadline index.
    pub(super) fn armed_since(&self) -> Option<SimTime> {
        (!self.muted && !self.attempts.is_empty()).then_some(self.window_start)
    }
}

impl WorkflowInstance {
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
            let budget = self.timeout_secs_for(ProcId(p))?;
            Some(opened + SimDuration::from_secs_f64(budget))
        });
        let backoffs = self.deferred.iter().map(|&(due, _)| due);
        timeouts.chain(backoffs).min()
    }

    /// Current timeout budget of `proc` in seconds, from its policy and
    /// the observed completion durations. `None` → no timeout applies.
    pub(super) fn timeout_secs_for(&self, proc: ProcId) -> Option<f64> {
        let name = &self.compiled.workflow.processors[proc.0].name;
        self.ft
            .policy_for(name)
            .timeout
            .timeout_secs(&self.proc_samples[proc.0])
    }

    /// The pending invocations whose timeout window has expired at
    /// `now`, in ascending logical id — the order they are acted on,
    /// whichever processor they belong to. Each processor's index is
    /// ordered by `window_start` and its budget is shared (see
    /// [`WorkflowInstance::next_wake`]), so the expired invocations of
    /// a processor are exactly a prefix of its index.
    pub(super) fn expired_at(&self, now: SimTime) -> Vec<u64> {
        let mut expired = Vec::new();
        for (p, armed) in self.armed.iter().enumerate() {
            if armed.is_empty() {
                continue;
            }
            let Some(budget) = self.timeout_secs_for(ProcId(p)) else {
                continue;
            };
            let budget = SimDuration::from_secs_f64(budget);
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
    pub(super) fn insert_pending(&mut self, logical: u64, pend: PendingJob) {
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
    pub(super) fn remove_pending(&mut self, logical: u64) -> PendingJob {
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

    /// Bytes a payload moves over its CE's network link (stage-in +
    /// stage-out). Local and cache-fetch payloads move no grid bytes.
    pub(super) fn payload_bytes(payload: &JobPayload) -> u64 {
        match payload {
            JobPayload::Grid { plan, .. } => plan.fetch_bytes() + plan.store_bytes(),
            _ => 0,
        }
    }

    /// Launch one more attempt of `logical` and restart its timeout
    /// window: the one mechanism behind retry and replication. After a
    /// failure (`on_timeout` is `None`) the attempt reuses the logical
    /// tag, which the terminally completed predecessor left free. After
    /// a timeout it carries a fresh tag — the cancelled attempt may
    /// still surface on backends that cannot retract work — and either
    /// replaces the attempts, consuming a retry, or races them as a
    /// speculative replica.
    fn launch_attempt<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        logical: u64,
        on_timeout: Option<TimeoutAction>,
    ) -> Result<(), MoteurError> {
        let now = ctx.backend.now();
        let tag = if on_timeout.is_some() {
            let fresh = self.next_id().0;
            self.attempt_of.insert(fresh, logical);
            fresh
        } else {
            logical
        };
        let replica = matches!(on_timeout, Some(TimeoutAction::Replicate { .. }));
        let (payload, proc, nth) = self.update_pending(logical, |p| {
            p.window_start = now;
            if replica {
                p.replicas += 1;
                p.attempts.push(tag);
                (p.payload.clone(), p.proc, p.replicas)
            } else {
                p.retries += u32::from(on_timeout.is_some());
                p.attempts = vec![tag];
                (p.payload.clone(), p.proc, p.retries)
            }
        });
        self.obs.emit(|| {
            let processor = self.compiled.workflow.processors[proc.0].name.clone();
            if replica {
                TraceEvent::JobReplicated {
                    at: now,
                    invocation: logical,
                    processor,
                    replica: nth,
                    attempt: tag,
                }
            } else {
                TraceEvent::JobResubmitted {
                    at: now,
                    invocation: logical,
                    processor,
                    retry: nth,
                    attempt: tag,
                }
            }
        });
        self.bytes_transferred += Self::payload_bytes(&payload);
        ctx.backend
            .submit(self.backend_job(proc, InvocationId(tag), payload))
    }

    /// One attempt of `logical` failed. Applies, in order: CE failure
    /// bookkeeping, replica survival (another attempt still racing),
    /// the processor's retry policy (immediate or backoff-deferred
    /// resubmission), and finally terminal failure.
    pub(super) fn handle_failure<B: Backend + ?Sized>(
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
        let policy = *self
            .ft
            .policy_for(&self.compiled.workflow.processors[proc.0].name);
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
            Ok(())
        } else {
            self.launch_attempt(ctx, logical, None)
        }
    }

    /// Resubmit every backoff-deferred invocation whose due time has
    /// arrived.
    pub(super) fn service_deferred<B: Backend + ?Sized>(
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
            self.launch_attempt(ctx, logical, None)?;
        }
        if serviced {
            self.emit_gauges(ctx);
        }
        Ok(())
    }

    /// Act on every pending invocation whose timeout window has expired
    /// at the backend clock: the expired prefix of each processor's
    /// deadline index (`expired_at` says why a prefix is all of them),
    /// merged and handled in ascending logical id. Call after a backend
    /// wait timed out at [`WorkflowInstance::next_wake`]; backoff
    /// deferrals that came due are resubmitted by the next pump.
    pub fn on_timer<B: Backend + ?Sized>(
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
        let (proc, retries, replicas) = {
            let p = &self.pending[&logical];
            (p.proc, p.retries, p.replicas)
        };
        let policy = *self
            .ft
            .policy_for(&self.compiled.workflow.processors[proc.0].name);
        let budget = self.timeout_secs_for(proc).unwrap_or(0.0);
        let action = match policy.on_timeout {
            TimeoutAction::Replicate { max_replicas } if replicas >= max_replicas => {
                // Replica cap reached: let the race run to the end.
                self.update_pending(logical, |p| p.muted = true);
                return Ok(());
            }
            TimeoutAction::Replicate { .. } => "replicate",
            TimeoutAction::Resubmit => {
                let attempts = self.update_pending(logical, |p| std::mem::take(&mut p.attempts));
                self.cancel_attempts(ctx, proc, attempts, false);
                if retries < policy.retry.max_retries() {
                    "resubmit"
                } else {
                    "fail"
                }
            }
        };
        self.obs.emit(|| TraceEvent::JobTimedOut {
            at: ctx.backend.now(),
            invocation: logical,
            processor: self.compiled.workflow.processors[proc.0].name.clone(),
            timeout_secs: budget,
            action,
        });
        if action == "fail" {
            let message = format!("timed out after {budget:.1}s with the retry budget exhausted");
            self.terminal_failure(ctx, logical, message)
        } else {
            self.launch_attempt(ctx, logical, Some(policy.on_timeout))
        }
    }

    /// Cancel `attempts` of an invocation of `proc` at the backend.
    /// Attempts the backend cannot retract are remembered so their late
    /// completions are dropped. The `superseded` losers of a replica
    /// race each close their span with a `JobCancelled` of their own.
    pub(super) fn cancel_attempts<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        attempts: Vec<u64>,
        superseded: bool,
    ) {
        for tag in attempts {
            self.attempt_of.remove(&tag);
            if !ctx.backend.cancel(InvocationId(tag)) {
                self.cancelled_attempts.insert(tag);
            }
            if superseded {
                self.obs.emit(|| TraceEvent::JobCancelled {
                    at: ctx.backend.now(),
                    invocation: tag,
                    processor: self.compiled.workflow.processors[proc.0].name.clone(),
                    reason: "superseded",
                });
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
        let compiled = Arc::clone(&self.compiled);
        let name = &compiled.workflow.processors[pend.proc.0].name;
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
        let mut seen = vec![false; self.compiled.workflow.processors.len()];
        seen[proc.0] = true;
        let mut queue = VecDeque::from([proc]);
        let mut out = Vec::new();
        while let Some(p) = queue.pop_front() {
            for &(q, _) in self.compiled.routes.targets[p.0].iter().flatten() {
                if !seen[q.0] {
                    seen[q.0] = true;
                    out.push(self.compiled.workflow.processors[q.0].name.clone());
                    queue.push_back(q);
                }
            }
        }
        out
    }

    /// Cancel every in-flight attempt of this instance at the backend,
    /// close its span and drop the backoff queue: nothing may be left
    /// with an open span or a live backend job. Through a
    /// [`crate::backend::ScopedBackend`] this retracts only the
    /// instance's own attempt tags — sibling instances sharing the
    /// underlying backend are untouched.
    pub fn abort<B: Backend + ?Sized>(&mut self, ctx: &mut EnactCtx<'_, B>) {
        let at = ctx.backend.now();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for logical in ids {
            let pend = self.remove_pending(logical);
            self.cancel_attempts(ctx, pend.proc, pend.attempts, false);
            self.obs.emit(|| TraceEvent::JobCancelled {
                at,
                invocation: logical,
                processor: self.compiled.workflow.processors[pend.proc.0].name.clone(),
                reason: "abort",
            });
        }
        self.deferred.clear();
        self.emit_gauges(ctx);
    }
}
