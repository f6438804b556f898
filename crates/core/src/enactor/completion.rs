//! Completion: what a backend completion does to the instance — late
//! attempts dropped, failures handed to `attempts`, and a success
//! recorded, memoized and routed downstream.

use super::{EnactCtx, WorkflowInstance, SAMPLE_WINDOW};
use crate::backend::{Backend, BackendCompletion};
use crate::error::MoteurError;
use crate::obs::prof::Subsystem;
use crate::obs::TraceEvent;
use crate::token::{History, Token};
use crate::trace::InvocationRecord;
use std::sync::Arc;

impl WorkflowInstance {
    /// Deliver one backend completion addressed to this instance. On
    /// error the workflow has terminally failed; the caller must
    /// [`WorkflowInstance::abort`] it so no backend job is left behind.
    pub fn deliver<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        completion: BackendCompletion,
    ) -> Result<(), MoteurError> {
        let tag = completion.invocation.0;
        if self.cancelled_attempts.remove(&tag) {
            // Late completion of an attempt the backend could not
            // retract — its invocation was superseded or aborted.
            return Ok(());
        }
        let logical = self.attempt_of.remove(&tag).unwrap_or(tag);
        if !self.pending.contains_key(&logical) {
            return Err(MoteurError::new("completion for unknown invocation"));
        }
        match completion.outputs {
            Err(ref message) => {
                let message = message.clone();
                self.handle_failure(ctx, logical, tag, completion.ce, message)
            }
            Ok(_) => self.handle_success(ctx, logical, tag, completion),
        }
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
        let compiled = Arc::clone(&self.compiled);
        let proc = &compiled.workflow.processors[proc_id.0];
        pend.attempts.retain(|&tag| tag != winner);
        self.cancel_attempts(ctx, proc_id, pend.attempts, true);
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
}
