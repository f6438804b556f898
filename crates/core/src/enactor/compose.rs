//! Composition: what a firing hands to the backend. The cache probe,
//! the single and the batched firing over one per-member step, the one
//! first submission, and the descriptor, grouped and barrier job plans.

use super::attempts::{PendEntry, PendingJob};
use super::{EnactCtx, WorkflowInstance};
use crate::backend::{Backend, InvocationId, JobPayload, ServiceOutputs};
use crate::error::MoteurError;
use crate::graph::ProcId;
use crate::iterate::MatchedSet;
use crate::obs::prof::Subsystem;
use crate::obs::TraceEvent;
use crate::service::{CostModel, GroupSource, GroupedBinding, ServiceBinding, ServiceProfile};
use crate::store::{invocation_key, InvocationKey};
use crate::token::{DataIndex, History, Token};
use crate::value::DataValue;
use moteur_gridsim::Rng;
use moteur_wrapper::{
    compose_group, plan_single, Binding, Catalog, ExecutableDescriptor, GroupMember, JobPlan,
    TransferFile,
};
use std::collections::HashMap;
use std::sync::Arc;

impl WorkflowInstance {
    /// The key a ready invocation of `proc` over `tokens` is memoized
    /// under, when it is memoizable: a data manager is attached, the
    /// processor has a deterministic service digest and every input
    /// token has a provenance key (no [`DataValue::Opaque`] anywhere in
    /// its value).
    fn memo_key<B: Backend + ?Sized>(
        &mut self,
        ctx: &EnactCtx<'_, B>,
        proc: ProcId,
        tokens: &[Token],
    ) -> Option<InvocationKey> {
        let digest = self.compiled.digests[proc.0]?;
        ctx.store.as_ref()?;
        let mut pkeys = Vec::with_capacity(tokens.len());
        {
            let prof = self.obs.prof().clone();
            let _prof = prof.scope(Subsystem::ProvenanceKey);
            for token in tokens {
                pkeys.push(
                    self.history_xml
                        .provenance_key(&token.value, &token.history)?,
                );
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
    /// leaves a batch — and `None` comes back; otherwise its input
    /// tokens and the entry its job will carry, holding the key to
    /// record the outputs under when the invocation is memoizable.
    fn admit<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        matched: MatchedSet,
        id: Option<InvocationId>,
    ) -> Result<Option<(Vec<Token>, PendEntry)>, MoteurError> {
        let MatchedSet { tokens, index } = matched;
        let cache_key = self.memo_key(ctx, proc, &tokens);
        if let (Some(key), Some(store)) = (cache_key, ctx.store.as_deref_mut()) {
            let prof = self.obs.prof().clone();
            let io = prof.scope(Subsystem::StoreIo);
            if let Some(outputs) = store.lookup(key) {
                let cost = store.fetch_cost();
                let transfer_seconds = cost.map_or(0.0, |d| d.sample(&mut self.rng).max(0.0));
                drop(io);
                let id = id.unwrap_or_else(|| self.next_id());
                let entry = PendEntry::of(index, &tokens, Some(outputs), None);
                let replay = JobPayload::Fetch { transfer_seconds };
                self.submit(ctx, proc, vec![entry], id, replay)?;
                return Ok(None);
            }
        }
        let entry = PendEntry::of(index, &tokens, None, cache_key);
        Ok(Some((tokens, entry)))
    }

    /// The second half, for a grid-bound member the data manager did
    /// not know: compose its job plan under the member's own `id` and
    /// synthesise the outputs `entry` will deliver. Returns the plan
    /// and its compute seconds.
    fn compose_member<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        tokens: &[Token],
        entry: &mut PendEntry,
        id: InvocationId,
    ) -> Result<(JobPlan, f64), MoteurError> {
        if entry.cache_key.is_some() {
            self.obs.emit(|| TraceEvent::CacheMiss {
                at: ctx.backend.now(),
                invocation: id.0,
                processor: self.compiled.workflow.processors[proc.0].name.clone(),
            });
        }
        let compiled = Arc::clone(&self.compiled);
        let (plan, outputs, compute) = match &compiled.workflow.processors[proc.0].binding {
            Some(ServiceBinding::Descriptor {
                descriptor,
                profile,
            }) => {
                let (plan, outputs) =
                    self.build_descriptor_job(ctx, proc, descriptor, profile, tokens, id)?;
                let compute = eval_cost_with(&mut self.rng, &profile.compute, &entry.index);
                (plan, outputs, compute)
            }
            Some(ServiceBinding::Grouped(group)) => {
                let (plan, outputs) = self.build_grouped_job(ctx, proc, group, tokens, id)?;
                let mut compute = 0.0;
                for stage in &group.stages {
                    compute += eval_cost_with(&mut self.rng, &stage.profile.compute, &entry.index);
                }
                (plan, outputs, compute)
            }
            Some(ServiceBinding::Local(_)) => {
                return Err(MoteurError::new("local services compose no grid job"))
            }
            None => return Err(MoteurError::new("firing an unbound processor")),
        };
        entry.grid_outputs = Some(outputs);
        Ok((plan, compute))
    }

    pub(super) fn fire<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        matched: MatchedSet,
    ) -> Result<(), MoteurError> {
        let invocation = self.next_id();
        let Some((tokens, mut entry)) = self.admit(ctx, proc, matched, Some(invocation))? else {
            return Ok(());
        };
        let binding = &self.compiled.workflow.processors[proc.0].binding;
        let payload = if let Some(ServiceBinding::Local(service)) = binding {
            JobPayload::Local {
                service: service.clone(),
                inputs: tokens,
            }
        } else {
            let (plan, compute_seconds) =
                self.compose_member(ctx, proc, &tokens, &mut entry, invocation)?;
            JobPayload::Grid {
                plan: Arc::new(plan),
                compute_seconds,
            }
        };
        self.submit(ctx, proc, vec![entry], invocation, payload)
    }

    /// Submit several ready invocations of one descriptor-bound service
    /// as a single grid job — the paper's §5.4 single-service grouping.
    pub(super) fn fire_batch<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
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
        let mut job: Option<(JobPlan, f64)> = None;
        let mut entries = Vec::with_capacity(misses.len());
        for (k, (tokens, mut entry)) in misses.into_iter().enumerate() {
            let member = InvocationId(invocation.0 * 1_000_000 + k as u64);
            let (plan, compute) = self.compose_member(ctx, proc, &tokens, &mut entry, member)?;
            entries.push(entry);
            match &mut job {
                // The first member's plan is the batch's: a batch of
                // one submits it untouched.
                None => job = Some((plan, compute)),
                Some((merged, compute_total)) => {
                    merged.absorb(plan);
                    *compute_total += compute;
                }
            }
        }
        let Some((plan, compute_seconds)) = job else {
            return Ok(());
        };
        let payload = JobPayload::Grid {
            plan: Arc::new(plan),
            compute_seconds,
        };
        self.submit(ctx, proc, entries, invocation, payload)
    }

    /// Hand the first attempt of `invocation` to the backend and take
    /// it into the pending table. A cache replay (a `Fetch` payload) is
    /// a pure transfer in place of the elided grid job: it emits
    /// [`TraceEvent::CacheHit`] instead of `JobSubmitted`, deliberately
    /// does **not** count towards `jobs_submitted`, and never times out
    /// (born muted, it never enters the deadline index).
    fn submit<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        entries: Vec<PendEntry>,
        invocation: InvocationId,
        payload: JobPayload,
    ) -> Result<(), MoteurError> {
        let submitted = ctx.backend.now();
        let replay = matches!(payload, JobPayload::Fetch { .. });
        // Emit before handing the job to the backend so the enactor's
        // submission event precedes any grid-side event for the same
        // invocation (the simulated broker reacts synchronously).
        self.obs.emit(|| {
            let processor = self.compiled.workflow.processors[proc.0].name.clone();
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
                muted: replay,
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
            self.compiled.workflow.name, proc_name, invocation.0, slot
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
        tokens: &[Token],
        invocation: InvocationId,
    ) -> Result<(JobPlan, ServiceOutputs), MoteurError> {
        let p = &self.compiled.workflow.processors[proc.0];
        // Every file the plan looks up is registered by this build
        // (inputs via `bind_port`, outputs below), so the catalog is
        // O(job), not O(stream length).
        let mut catalog = Catalog::new();
        let mut binding = Binding::new();
        for (port_idx, port_name) in p.inputs.iter().enumerate() {
            let token = &tokens[port_idx];
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
        Ok((plan_single(descriptor, &binding, &catalog)?, outputs))
    }

    fn build_grouped_job<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        group: &GroupedBinding,
        tokens: &[Token],
        invocation: InvocationId,
    ) -> Result<(JobPlan, ServiceOutputs), MoteurError> {
        let p = &self.compiled.workflow.processors[proc.0];
        let mut catalog = Catalog::new();
        let mut members: Vec<GroupMember> = Vec::with_capacity(group.stages.len());
        let mut stage_outputs: Vec<HashMap<String, (String, u64)>> = Vec::new();
        for (k, stage) in group.stages.iter().enumerate() {
            let mut binding = Binding::new();
            for (slot_name, source) in &stage.inputs {
                match source {
                    GroupSource::ExternalPort(i) => {
                        let token = &tokens[*i];
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
                    self.compiled.workflow.name, p.name, stage.name, invocation.0, out.name
                );
                let bytes = stage.profile.output_size(&out.name);
                catalog.register(gfn.clone(), bytes);
                binding = binding.bind_output(out.name.clone(), gfn.clone(), bytes);
                outs.insert(out.name.clone(), (gfn, bytes));
            }
            stage_outputs.push(outs);
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
        Ok((plan, outputs))
    }

    pub(super) fn fire_barrier<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
    ) -> Result<(), MoteurError> {
        let compiled = Arc::clone(&self.compiled);
        let p = &compiled.workflow.processors[proc.0];
        let buffers = std::mem::take(&mut self.states[proc.0].sync_buffers);
        // One list token per port: the whole collected stream.
        let tokens: Vec<Token> = buffers
            .iter()
            .map(|buf| Token {
                value: DataValue::List(buf.iter().map(|t| t.value.clone()).collect()),
                index: DataIndex::scalar(),
                history: History::derived(
                    format!("{}:collect", p.name),
                    buf.iter().map(|t| t.history.clone()).collect(),
                ),
            })
            .collect();
        self.states[proc.0].barrier_fired = true;
        let n_inputs: usize = buffers.iter().map(Vec::len).sum();
        self.obs.emit(|| TraceEvent::BarrierReleased {
            at: ctx.backend.now(),
            processor: p.name.clone(),
            inputs: n_inputs,
        });
        let invocation = self.next_id();
        let binding = p
            .binding
            .as_ref()
            .ok_or_else(|| MoteurError::new("synchronization processor without binding"))?;
        // Synchronization barriers consume whole streams; they are
        // never memoized.
        let mut entry = PendEntry::of(DataIndex::scalar(), &tokens, None, None);
        let payload = match binding {
            ServiceBinding::Local(service) => JobPayload::Local {
                service: service.clone(),
                inputs: tokens,
            },
            ServiceBinding::Descriptor {
                descriptor,
                profile,
            } => {
                // A descriptor-bound barrier consumes arbitrarily many
                // files per slot, which the one-value-per-slot wrapper
                // binding cannot express: build its plan directly.
                let mut fetch: Vec<TransferFile> = Vec::new();
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
                entry.grid_outputs = Some(outputs);
                let plan = JobPlan {
                    command_lines: vec![format!(
                        "{} <{} collected inputs>",
                        descriptor.executable.value, n_inputs
                    )],
                    fetch,
                    store,
                };
                let index = DataIndex::scalar();
                JobPayload::Grid {
                    plan: Arc::new(plan),
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

/// Evaluate a cost model against only the rng — a free function so
/// call sites can keep a disjoint borrow of the owned workflow alive.
fn eval_cost_with(rng: &mut Rng, cost: &CostModel, index: &DataIndex) -> f64 {
    match cost {
        CostModel::Fixed(v) => *v,
        CostModel::Stochastic(d) => d.sample(rng),
        CostModel::ByIndex(f) => f(index),
    }
}
