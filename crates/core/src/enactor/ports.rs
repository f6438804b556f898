//! Ports: the compiled links, source cursors, port room and
//! back-pressure, token routing, exhaustion, and the firing phase that
//! decides which ready invocation may go next.

use super::{EnactCtx, InputData, WorkflowInstance};
use crate::backend::Backend;
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::graph::{ProcId, ProcessorKind, Workflow};
use crate::iterate::MatchedSet;
use crate::obs::prof::Subsystem;
use crate::obs::TraceEvent;
use crate::service::ServiceBinding;
use crate::token::Token;
use crate::value::DataValue;

/// One source's unemitted input stream. The enactor pulls items off
/// the cursor one at a time, by move, while the source's downstream
/// ports have room — the head of the end-to-end back-pressure chain.
/// With unbounded ports there is always room, so the first pump drains
/// every cursor.
pub(super) struct SourceCursor {
    pub(super) proc: ProcId,
    pub(super) name: String,
    pub(super) values: std::vec::IntoIter<DataValue>,
    /// Stream position of the next item to emit.
    next: u32,
}

/// The workflow's links, compiled once per [`super::CompiledWorkflow`]
/// so that routing a token, checking port room and checking control
/// links read a per-processor list instead of scanning every link.
pub(super) struct Routes {
    /// `targets[proc][out_port]` → the `(consumer, in_port)` ends of
    /// the links leaving that port, in link order.
    pub(super) targets: Vec<Vec<Vec<(ProcId, usize)>>>,
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
    pub(super) fn compile(
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

impl WorkflowInstance {
    pub(super) fn emit_sources<B: Backend + ?Sized>(
        &mut self,
        inputs: &InputData,
        ctx: &mut EnactCtx<'_, B>,
    ) -> Result<(), MoteurError> {
        for src in self.compiled.workflow.sources() {
            let name = self.compiled.workflow.processor(src).name.clone();
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
        self.compiled.routes.bounded[p]
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
        let depth = self.compiled.routes.targets[p]
            .iter()
            .flatten()
            .map(|&(q, _)| self.port_depth(p, q.0))
            .max()
            .unwrap_or(0);
        let at = ctx.backend.now();
        let processor = self.compiled.workflow.processors[p].name.clone();
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

    /// Deliver a token to every input port linked to `(proc, out_port)`.
    pub(super) fn route<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        proc: ProcId,
        out_port: usize,
        token: Token,
    ) {
        self.obs.emit(|| {
            let producer = &self.compiled.workflow.processors[proc.0];
            TraceEvent::TokenEmitted {
                at: ctx.backend.now(),
                processor: producer.name.clone(),
                port: producer.outputs.get(out_port).cloned().unwrap_or_default(),
                index: token.index.to_string(),
            }
        });
        for &(tp, tport) in &self.compiled.routes.targets[proc.0][out_port] {
            let target = &self.compiled.workflow.processors[tp.0];
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

    /// Advance the instance without waiting: fire every ready
    /// invocation the configuration permits, to fixpoint, then resubmit
    /// any backoff-deferred work that has come due. `budget` is the
    /// daemon's weighted fair-share quantum: with `Some(b)` at most `b`
    /// invocations are dispatched before returning; `None` fires to
    /// fixpoint (the one-shot behaviour, byte-identical traces
    /// included). Returns how many invocations were dispatched to the
    /// backend.
    pub fn pump_budgeted<B: Backend + ?Sized>(
        &mut self,
        ctx: &mut EnactCtx<'_, B>,
        budget: Option<usize>,
    ) -> Result<usize, MoteurError> {
        let prof = self.obs.prof().clone();
        let firing = prof.scope(Subsystem::Fire);
        let mut dispatched = 0usize;
        loop {
            if budget.is_some_and(|b| dispatched >= b) {
                break;
            }
            // Feed the pipeline before firing so ports freed by the
            // previous round pull the next items off the source
            // cursors. Source emission is not a dispatch and never
            // counts against the daemon's budget.
            let mut fired = self.pump_sources(ctx);
            let exhausted = self.compute_exhausted();
            for p in 0..self.compiled.workflow.processors.len() {
                let proc = &self.compiled.workflow.processors[p];
                if proc.kind != ProcessorKind::Service {
                    continue;
                }
                // `workflow` is owned now, so `proc` cannot outlive a
                // `&mut self` call: hoist what the firing loop needs.
                let local_binding = matches!(proc.binding, Some(ServiceBinding::Local(_)));
                if proc.synchronization {
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
                    && self.has_port_room(p)
                    && self.can_fire_ignoring_room(p, &exhausted)
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
                break;
            }
        }
        drop(firing);
        self.service_deferred(ctx)?;
        Ok(dispatched)
    }

    /// Is the instance certainly at its firing fixpoint, so that no pump
    /// can dispatch or emit until a delivery or a timer changes it?
    /// Nothing is ready, every source cursor is drained, and every
    /// barrier has fired or still has an invocation in flight upstream
    /// of it (with nothing ready and nothing left to emit, a processor
    /// is exhausted exactly when nothing at or above it is in flight
    /// and every barrier above it has fired). Sufficient, not
    /// necessary: ready work held back by a gate answers `false`, and
    /// the next pump finds that fixpoint itself.
    pub fn quiescent(&self) -> bool {
        let drained = |c: &SourceCursor| c.values.as_slice().is_empty();
        let held = |p: usize| {
            let above = &self.compiled.barrier_ancestors[p];
            above.iter().any(|&q| self.states[q].inflight > 0)
        };
        let processors = &self.compiled.workflow.processors;
        self.source_cursors.iter().all(drained)
            && self
                .states
                .iter()
                .zip(processors)
                .enumerate()
                .all(|(p, (state, proc))| {
                    state.ready.is_empty()
                        && (!proc.synchronization || state.barrier_fired || held(p))
                })
    }

    /// The configuration-level gates on firing `p` (DP, SP, control
    /// links), port room aside — what tells "suspended on
    /// back-pressure" from "not runnable anyway".
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
        self.compiled.workflow.in_links(ProcId(p)).all(|l| {
            let q = l.from.proc.0;
            if !include_cycle
                && self.compiled.in_cycle[p]
                && self.compiled.scc_ids[q] == self.compiled.scc_ids[p]
            {
                true
            } else {
                exhausted[q]
            }
        })
    }

    fn control_ok(&self, p: usize, exhausted: &[bool]) -> bool {
        self.compiled.routes.control_before[p]
            .iter()
            .all(|&before| exhausted[before])
    }

    /// Fixpoint computation of "will emit no more tokens".
    fn compute_exhausted(&self) -> Vec<bool> {
        let n = self.compiled.workflow.processors.len();
        let mut ex = vec![false; n];
        loop {
            let mut changed = false;
            for p in 0..n {
                if ex[p] {
                    continue;
                }
                let proc = &self.compiled.workflow.processors[p];
                let quiet = self.states[p].ready.is_empty() && self.states[p].inflight == 0;
                let value = match proc.kind {
                    // A source is exhausted once its cursor drained.
                    ProcessorKind::Source => self
                        .source_cursors
                        .iter()
                        .all(|c| c.proc.0 != p || c.values.as_slice().is_empty()),
                    ProcessorKind::Sink => self.preds_exhausted(p, &ex, true),
                    ProcessorKind::Service => {
                        if self.compiled.in_cycle[p] {
                            // A cycle exhausts collectively: every
                            // member quiet and every external
                            // predecessor exhausted.
                            let scc = self.compiled.scc_ids[p];
                            let members: Vec<usize> = (0..n)
                                .filter(|&m| self.compiled.scc_ids[m] == scc)
                                .collect();
                            members.iter().all(|&m| {
                                self.states[m].ready.is_empty()
                                    && self.states[m].inflight == 0
                                    && self
                                        .compiled
                                        .workflow
                                        .in_links(ProcId(m))
                                        .map(|l| l.from.proc.0)
                                        .filter(|&q| self.compiled.scc_ids[q] != scc)
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
}
