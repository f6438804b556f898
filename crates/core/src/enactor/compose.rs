//! Composition: what a firing hands to the backend. The cache probe,
//! the single and the batched firing over one per-member step (checking
//! the matched tuple against the processor's compiled job template), the
//! one first submission, and the barrier's job. A grid job carries its
//! template and input tuples; its plan is rendered only when read.

use super::attempts::{PendEntry, PendingJob};
use super::{EnactCtx, WorkflowInstance};
use crate::backend::{GridMember, GridPlan, InvocationId, JobPayload, ServiceOutputs};
use crate::error::MoteurError;
use crate::ft::TimeoutPolicy;
use crate::graph::ProcId;
use crate::iterate::MatchedSet;
use crate::obs::prof::Subsystem;
use crate::obs::TraceEvent;
use crate::service::{CostModel, ServiceBinding};
use crate::store::{invocation_key, provenance_key, InvocationKey};
use crate::token::{DataIndex, History, Token};
use crate::value::DataValue;
use moteur_gridsim::Rng;
use moteur_wrapper::{BoundOutput, JobTemplate, SlotValue};
use std::sync::Arc;

impl WorkflowInstance {
    /// The key a ready invocation of `proc` over `tokens` is memoized
    /// under, when it is memoizable: a data manager is attached, the
    /// processor has a deterministic service digest and every input
    /// token has a provenance key (no [`DataValue::Opaque`] anywhere in
    /// its value).
    fn memo_key(
        &self,
        ctx: &EnactCtx<'_>,
        proc: ProcId,
        tokens: &[Token],
    ) -> Option<InvocationKey> {
        let digest = self.compiled.digests[proc.0]?;
        ctx.store.as_ref()?;
        let mut pkeys = Vec::with_capacity(tokens.len());
        {
            let _prof = self.obs.prof().scope(Subsystem::ProvenanceKey);
            for token in tokens {
                pkeys.push(provenance_key(&token.value, &token.history)?);
            }
        }
        let name = &self.compiled.workflow.processors[proc.0].name;
        Some(invocation_key(name, digest, &pkeys))
    }

    /// The first half of firing one ready invocation, single or batch
    /// member: consult the data manager before touching the binding (a
    /// hit needs none of it; an unbound processor has no digest, so it
    /// cannot hit). A memoized invocation is replayed here after a
    /// simulated transfer — under `id`, or under a fresh id when it
    /// leaves a batch — and `None` comes back; otherwise the entry its
    /// job will carry: the shared input tuple, and the key to record the
    /// outputs under when the invocation is memoizable.
    fn admit(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        matched: MatchedSet,
        id: Option<InvocationId>,
    ) -> Result<Option<PendEntry>, MoteurError> {
        let MatchedSet { tokens, index } = matched;
        let cache_key = self.memo_key(ctx, proc, &tokens);
        if let (Some(key), Some(store)) = (cache_key, ctx.store.as_deref_mut()) {
            let io = self.obs.prof().scope(Subsystem::StoreIo);
            if let Some(outputs) = store.lookup(key) {
                let cost = store.fetch_cost();
                let transfer_seconds = cost.map_or(0.0, |d| d.sample(&mut self.rng).max(0.0));
                drop(io);
                let id = id.unwrap_or_else(|| self.next_id());
                let entry = PendEntry::of(index, tokens, Some(outputs), None);
                let replay = JobPayload::Fetch { transfer_seconds };
                self.submit(ctx, proc, vec![entry], id, replay)?;
                return Ok(None);
            }
        }
        Ok(Some(PendEntry::of(index, tokens, None, cache_key)))
    }

    /// The second half, for a grid-bound member the data manager did
    /// not know: check its input tuple against the processor's template
    /// under the member's own `id` (a binding fault fails the firing
    /// here) and synthesise the outputs `entry` will deliver. Returns
    /// the template its job renders from and its compute seconds.
    fn compose_member(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        entry: &mut PendEntry,
        id: InvocationId,
    ) -> Result<(Arc<JobTemplate>, f64), MoteurError> {
        if entry.cache_key.is_some() {
            self.obs.emit(|| TraceEvent::CacheMiss {
                at: ctx.backend.now(),
                invocation: id.0,
                processor: Arc::clone(&self.compiled.names[proc.0]),
            });
        }
        let compiled = Arc::clone(&self.compiled);
        let p = &compiled.workflow.processors[proc.0];
        let Some(template) = &compiled.templates[proc.0] else {
            return Err(MoteurError::new(match p.binding {
                Some(ServiceBinding::Local(_)) => "local services compose no grid job",
                _ => "firing an unbound processor",
            }));
        };
        let tokens = &entry.inputs;
        template.check(tokens, |port| {
            self.obs.emit(|| TraceEvent::EdgeStaged {
                at: ctx.backend.now(),
                invocation: id.0,
                processor: Arc::clone(&compiled.names[proc.0]),
                port: p.inputs[port].clone(),
                bytes: Self::staged_bytes(&tokens[port].value),
            });
        })?;
        let compute = match &p.binding {
            Some(ServiceBinding::Descriptor { profile, .. }) => {
                eval_cost_with(&mut self.rng, &profile.compute, &entry.index)
            }
            Some(ServiceBinding::Grouped(group)) => {
                self.obs.emit(|| TraceEvent::GroupComposed {
                    at: ctx.backend.now(),
                    processor: Arc::clone(&compiled.names[proc.0]),
                    stages: group.stages.len(),
                    commands: template.stages(),
                });
                let mut compute = 0.0;
                for stage in &group.stages {
                    compute += eval_cost_with(&mut self.rng, &stage.profile.compute, &entry.index);
                }
                compute
            }
            _ => unreachable!("only grid bindings have a job template"),
        };
        entry.grid_outputs = Some(file_outputs(template.outputs(id.0)));
        Ok((Arc::clone(template), compute))
    }

    pub(super) fn fire(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        matched: MatchedSet,
    ) -> Result<(), MoteurError> {
        let invocation = self.next_id();
        let Some(mut entry) = self.admit(ctx, proc, matched, Some(invocation))? else {
            return Ok(());
        };
        let binding = &self.compiled.workflow.processors[proc.0].binding;
        let payload = if let Some(ServiceBinding::Local(service)) = binding {
            JobPayload::Local {
                service: service.clone(),
                inputs: Arc::clone(&entry.inputs),
            }
        } else {
            let (template, compute_seconds) =
                self.compose_member(ctx, proc, &mut entry, invocation)?;
            let member = GridMember {
                inputs: Arc::clone(&entry.inputs),
                invocation: invocation.0,
            };
            JobPayload::Grid {
                plan: Arc::new(GridPlan::members(template, member, Vec::new())),
                compute_seconds,
            }
        };
        self.submit(ctx, proc, vec![entry], invocation, payload)
    }

    /// Submit several ready invocations of one descriptor-bound service
    /// as a single grid job — the paper's §5.4 single-service grouping.
    pub(super) fn fire_batch(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        batch: Vec<MatchedSet>,
    ) -> Result<(), MoteurError> {
        let invocation = self.next_id();
        // Consult the data manager first: memoized members leave the
        // batch and are replayed as individual fetches; only the
        // misses travel to the grid as one grouped job.
        let mut misses = Vec::with_capacity(batch.len());
        for matched in batch {
            misses.extend(self.admit(ctx, proc, matched, None)?);
        }
        let n_misses = misses.len();
        let mut job = None;
        let mut entries = Vec::with_capacity(n_misses);
        for (k, mut entry) in misses.into_iter().enumerate() {
            let id = InvocationId(invocation.0 * 1_000_000 + k as u64);
            let (template, compute) = self.compose_member(ctx, proc, &mut entry, id)?;
            let member = GridMember {
                inputs: Arc::clone(&entry.inputs),
                invocation: id.0,
            };
            entries.push(entry);
            match &mut job {
                // The first member leads the job: a batch of one runs
                // it alone.
                None => job = Some((template, member, Vec::with_capacity(n_misses - 1), compute)),
                Some((_, _, rest, compute_total)) => {
                    rest.push(member);
                    *compute_total += compute;
                }
            }
        }
        let Some((template, first, rest, compute_seconds)) = job else {
            return Ok(());
        };
        let payload = JobPayload::Grid {
            plan: Arc::new(GridPlan::members(template, first, rest)),
            compute_seconds,
        };
        self.submit(ctx, proc, entries, invocation, payload)
    }

    /// Hand the first attempt of `invocation` to the backend and take
    /// it into the pending table. A cache replay (a `Fetch` payload) is
    /// a pure transfer in place of the elided grid job: it emits
    /// [`TraceEvent::CacheHit`] instead of `JobSubmitted`, deliberately
    /// does **not** count towards `jobs_submitted`, and never times out.
    /// Neither does an invocation of a processor without a timeout:
    /// both are born muted and never enter the deadline index.
    fn submit(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        entries: Vec<PendEntry>,
        invocation: InvocationId,
        payload: JobPayload,
    ) -> Result<(), MoteurError> {
        let submitted = ctx.backend.now();
        let replay = matches!(payload, JobPayload::Fetch { .. });
        let untimed = self.policies[proc.0].timeout == TimeoutPolicy::None;
        // Emit before handing the job to the backend so the enactor's
        // submission event precedes any grid-side event for the same
        // invocation (the simulated broker reacts synchronously).
        self.obs.emit(|| {
            let processor = Arc::clone(&self.compiled.names[proc.0]);
            match payload {
                JobPayload::Fetch { transfer_seconds } => TraceEvent::CacheHit {
                    at: submitted,
                    invocation: invocation.0,
                    processor,
                    outputs: entries
                        .iter()
                        .map(|e| e.grid_outputs.as_ref().map_or(0, Vec::len))
                        .sum(),
                    transfer_seconds,
                },
                _ => TraceEvent::JobSubmitted {
                    at: submitted,
                    invocation: invocation.0,
                    processor,
                    grid: matches!(payload, JobPayload::Grid { .. }),
                    batched: entries.len(),
                },
            }
        });
        ctx.backend
            .submit(self.backend_job(proc, invocation, payload.clone()))?;
        self.jobs_submitted += usize::from(!replay);
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
                muted: replay || untimed,
                replicas: 0,
            },
        );
        self.emit_gauges(ctx);
        Ok(())
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

    pub(super) fn fire_barrier(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
    ) -> Result<(), MoteurError> {
        let compiled = Arc::clone(&self.compiled);
        let p = &compiled.workflow.processors[proc.0];
        let buffers = std::mem::take(&mut self.states[proc.0].sync_buffers);
        let n_inputs: usize = buffers.iter().map(Vec::len).sum();
        // One list token per port: the whole collected stream, its
        // values moved out of the buffer.
        let tokens: Arc<[Token]> = buffers
            .into_iter()
            .map(|buf| {
                let histories = buf.iter().map(|t| Arc::clone(&t.history)).collect();
                Token {
                    value: DataValue::List(buf.into_iter().map(|t| t.value).collect()),
                    index: DataIndex::scalar(),
                    history: History::derived(format!("{}:collect", p.name), histories),
                }
            })
            .collect();
        self.states[proc.0].barrier_fired = true;
        self.exhausted_stale = true;
        self.obs.emit(|| TraceEvent::BarrierReleased {
            at: ctx.backend.now(),
            processor: Arc::clone(&compiled.names[proc.0]),
            inputs: n_inputs,
        });
        let invocation = self.next_id();
        let binding = p
            .binding
            .as_ref()
            .ok_or_else(|| MoteurError::new("synchronization processor without binding"))?;
        // Synchronization barriers consume whole streams; they are
        // never memoized.
        let mut entry = PendEntry::of(DataIndex::scalar(), Arc::clone(&tokens), None, None);
        let payload = match binding {
            ServiceBinding::Local(service) => JobPayload::Local {
                service: service.clone(),
                inputs: tokens,
            },
            ServiceBinding::Descriptor { profile, .. } => {
                // A descriptor-bound barrier consumes arbitrarily many
                // files per slot, which a job template's one value per
                // slot cannot express: its job stages in every file it
                // collected and names its outputs as its template does.
                for (port_idx, list) in tokens.iter().enumerate() {
                    for value in list.value.as_list().unwrap_or_default() {
                        self.obs.emit(|| TraceEvent::EdgeStaged {
                            at: ctx.backend.now(),
                            invocation: invocation.0,
                            processor: Arc::clone(&compiled.names[proc.0]),
                            port: p.inputs[port_idx].clone(),
                            bytes: Self::staged_bytes(value),
                        });
                    }
                }
                let template = compiled.templates[proc.0].as_ref();
                let template = Arc::clone(template.expect("a grid binding"));
                entry.grid_outputs = Some(file_outputs(template.outputs(invocation.0)));
                let index = DataIndex::scalar();
                JobPayload::Grid {
                    plan: Arc::new(GridPlan::barrier(template, tokens, invocation.0)),
                    compute_seconds: eval_cost_with(&mut self.rng, &profile.compute, &index),
                }
            }
            ServiceBinding::Grouped(_) => {
                return Err(MoteurError::new(
                    "synchronization processors cannot be grouped",
                ))
            }
        };
        self.submit(ctx, proc, vec![entry], invocation, payload)
    }
}

/// The files a grid job delivers, as the tokens' values.
fn file_outputs(outputs: Vec<BoundOutput>) -> ServiceOutputs {
    outputs
        .into_iter()
        .map(|o| {
            (
                o.slot,
                DataValue::File {
                    gfn: o.gfn,
                    bytes: o.bytes,
                },
            )
        })
        .collect()
}

/// A token, as the value a job input carries.
impl SlotValue for Token {
    fn file(&self) -> Option<(&str, u64)> {
        self.value.as_file()
    }

    fn write_param(&self, out: &mut String) {
        self.value.write_param(out);
    }

    fn describe(&self) -> String {
        format!("{:?}", self.value)
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
