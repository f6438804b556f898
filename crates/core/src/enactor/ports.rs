//! Ports: the compiled links, source cursors, port room and
//! back-pressure, token routing, exhaustion, and the firing phase that
//! decides which ready invocation may go next.

use super::{EnactCtx, InputData, WorkflowInstance};
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::graph::{GraphIndex, ProcId, ProcessorKind, Workflow};
use crate::iterate::MatchedSet;
use crate::obs::prof::Subsystem;
use crate::obs::TraceEvent;
use crate::service::ServiceBinding;
use crate::token::Token;
use crate::value::DataValue;
use std::sync::Arc;

/// One source's input stream and how far it has been emitted. The
/// stream is the caller's [`InputData`] stream, shared by reference
/// count, never copied. The enactor pulls items off the cursor one at a
/// time, cloning each value as it becomes a token, while the source's
/// downstream ports have room — the head of the end-to-end
/// back-pressure chain. With unbounded ports there is always room, so
/// the first pump drains every cursor.
pub(super) struct SourceCursor {
    pub(super) proc: ProcId,
    pub(super) name: Arc<str>,
    values: Arc<Vec<DataValue>>,
    /// Stream position of the next item to emit.
    next: u32,
}

impl SourceCursor {
    /// Items not emitted yet.
    pub(super) fn remaining(&self) -> usize {
        self.values.len() - self.next as usize
    }

    /// The next item as a source token; `None` once drained.
    fn emit(&mut self) -> Option<Token> {
        let value = self.values.get(self.next as usize)?.clone();
        let token = Token::from_source(Arc::clone(&self.name), self.next, value);
        self.next += 1;
        Some(token)
    }
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
    /// `workflow` has passed the structural gate
    /// ([`Workflow::validate`]), or is the grouping of one that has, so
    /// every link end names an existing processor and port and every
    /// coordination constraint an existing processor.
    pub(super) fn compile(workflow: &Workflow, config: &EnactorConfig, graph: &GraphIndex) -> Self {
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
            let intra_cycle = graph.in_cycle[p] && graph.scc(q) == graph.scc(p);
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
    pub(super) fn emit_sources(
        &mut self,
        inputs: &InputData,
        ctx: &mut EnactCtx<'_>,
    ) -> Result<(), MoteurError> {
        for src in self.compiled.workflow.sources() {
            let name = Arc::clone(&self.compiled.names[src.0]);
            let values = inputs
                .stream(&name)
                .ok_or_else(|| MoteurError::new(format!("no input data for source `{name}`")))?;
            self.source_cursors.push(SourceCursor {
                proc: src,
                values: Arc::clone(values),
                name,
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
    fn pump_sources(&mut self, ctx: &mut EnactCtx<'_>) -> bool {
        let mut emitted = false;
        for c in 0..self.source_cursors.len() {
            let proc = self.source_cursors[c].proc;
            while self.source_cursors[c].remaining() > 0 {
                if !self.has_port_room(proc.0) {
                    self.set_suspended(ctx, proc.0, true);
                    break;
                }
                self.set_suspended(ctx, proc.0, false);
                let token = self.source_cursors[c].emit().expect("checked non-empty");
                self.route(ctx, proc, 0, token);
                emitted = true;
                // A drained source is exhausted.
                self.exhausted_stale |= self.source_cursors[c].remaining() == 0;
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
    fn set_suspended(&mut self, ctx: &mut EnactCtx<'_>, p: usize, blocked: bool) {
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
        let processor = Arc::clone(&self.compiled.names[p]);
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

    /// Deliver a token to every input port linked to `(proc, out_port)`:
    /// each target but the last gets a copy, the last takes the token.
    pub(super) fn route(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        proc: ProcId,
        out_port: usize,
        token: Token,
    ) {
        self.obs.emit(|| {
            let producer = &self.compiled.workflow.processors[proc.0];
            TraceEvent::TokenEmitted {
                at: ctx.backend.now(),
                processor: Arc::clone(&self.compiled.names[proc.0]),
                port: producer.outputs.get(out_port).cloned().unwrap_or_default(),
                index: token.index.to_string(),
            }
        });
        let compiled = Arc::clone(&self.compiled);
        let Some((&(last, last_port), rest)) =
            compiled.routes.targets[proc.0][out_port].split_last()
        else {
            return;
        };
        for &(tp, tport) in rest {
            self.route_to(ctx, tp, tport, token.clone());
        }
        self.route_to(ctx, last, last_port, token);
    }

    /// Deliver a token to input port `tport` of `tp`.
    fn route_to(&mut self, ctx: &mut EnactCtx<'_>, tp: ProcId, tport: usize, token: Token) {
        let target = &self.compiled.workflow.processors[tp.0];
        match target.kind {
            ProcessorKind::Sink => {
                self.sink_counts[tp.0] += 1;
                let out = &mut self.sink_outputs[tp.0];
                // Only the first `port_capacity` sink tokens are
                // retained; `sink_counts` carries the full tally.
                if out.len() < self.config.port_capacity {
                    out.push(token);
                }
            }
            ProcessorKind::Service if target.synchronization => {
                self.states[tp.0].sync_buffers[tport].push(token);
            }
            ProcessorKind::Service => {
                let state = &mut self.states[tp.0];
                let first = state.ready.len();
                state.engine.push_into(tport, token, &mut state.ready);
                if self.obs.enabled() {
                    for m in self.states[tp.0].ready.range(first..) {
                        self.obs.record(&TraceEvent::MatchFired {
                            at: ctx.backend.now(),
                            processor: Arc::clone(&self.compiled.names[tp.0]),
                            index: m.index.to_string(),
                            inputs: m.tokens.len(),
                        });
                    }
                }
            }
            ProcessorKind::Source => {
                // A link into a source is rejected by validate();
                // unreachable in practice.
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
    pub fn pump_budgeted(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        budget: Option<usize>,
    ) -> Result<usize, MoteurError> {
        let firing = self.obs.prof().open(Subsystem::Fire);
        let dispatched = self.fire_ready(ctx, budget);
        self.obs.prof().close(firing);
        let dispatched = dispatched?;
        self.service_deferred(ctx)?;
        Ok(dispatched)
    }

    /// The firing half of [`WorkflowInstance::pump_budgeted`]: fire to
    /// fixpoint or to the budget; how many invocations went out.
    fn fire_ready(
        &mut self,
        ctx: &mut EnactCtx<'_>,
        budget: Option<usize>,
    ) -> Result<usize, MoteurError> {
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
            if self.exhausted_stale {
                self.compute_exhausted();
            }
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
                        && self.preds_exhausted(p, true)
                        && self.control_ok(p)
                    {
                        self.fire_barrier(ctx, ProcId(p))?;
                        fired = true;
                        dispatched += 1;
                    }
                    continue;
                }
                while !self.states[p].ready.is_empty()
                    && self.has_port_room(p)
                    && self.can_fire_ignoring_room(p)
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
                    && self.can_fire_ignoring_room(p)
                    && !self.has_port_room(p)
                {
                    self.set_suspended(ctx, p, true);
                }
            }
            if !fired {
                break;
            }
        }
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
        let drained = |c: &SourceCursor| c.remaining() == 0;
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
    fn can_fire_ignoring_room(&self, p: usize) -> bool {
        if !self.config.data_parallelism && self.states[p].inflight >= 1 {
            return false;
        }
        if !self.config.service_parallelism && !self.preds_exhausted(p, false) {
            return false;
        }
        self.control_ok(p)
    }

    /// Are all data predecessors of `p` exhausted (as of the firing
    /// round's [`WorkflowInstance::compute_exhausted`])? Predecessors inside
    /// the same cycle are skipped unless `include_cycle` (compilation
    /// refuses a barrier on a cycle).
    fn preds_exhausted(&self, p: usize, include_cycle: bool) -> bool {
        let graph = &self.compiled.graph;
        let own_cycle = !include_cycle && graph.in_cycle[p];
        graph
            .preds(p)
            .all(|q| (own_cycle && graph.scc(q) == graph.scc(p)) || self.exhausted[q])
    }

    fn control_ok(&self, p: usize) -> bool {
        self.compiled.routes.control_before[p]
            .iter()
            .all(|&before| self.exhausted[before])
    }

    /// "Will emit no more tokens", into `self.exhausted`; clears the
    /// stale mark. Exhaustion is monotone: a drained source stays
    /// drained, and a quiet processor whose predecessors are exhausted
    /// never receives another token. So the kept array is only ever
    /// extended, and a round with no stale mark skips this: only the
    /// changes that set the mark can make a processor exhausted.
    ///
    /// One pass over the components in topological order: every
    /// predecessor outside a component is final when the component is
    /// visited. A cycle exhausts collectively, once every member is
    /// quiet and every predecessor outside it is exhausted; its members
    /// are swept until none changes, for a sink a hand-built graph puts
    /// on one.
    fn compute_exhausted(&mut self) {
        self.exhausted_stale = false;
        let (graph, processors) = (&self.compiled.graph, &self.compiled.workflow.processors);
        let quiet =
            |me: &Self, m: usize| me.states[m].ready.is_empty() && me.states[m].inflight == 0;
        for component in graph.components() {
            let members = || component.iter().map(|&m| m as usize);
            let mut collective = None;
            loop {
                let mut changed = false;
                for p in members() {
                    if self.exhausted[p] {
                        continue;
                    }
                    let value = match processors[p].kind {
                        // A source is exhausted once its cursor drained.
                        ProcessorKind::Source => self
                            .source_cursors
                            .iter()
                            .all(|c| c.proc.0 != p || c.remaining() == 0),
                        ProcessorKind::Sink => self.preds_exhausted(p, true),
                        ProcessorKind::Service if graph.in_cycle[p] => *collective
                            .get_or_insert_with(|| {
                                members().all(|m| {
                                    quiet(self, m)
                                        && graph
                                            .preds(m)
                                            .filter(|&q| graph.scc(q) != graph.scc(p))
                                            .all(|q| self.exhausted[q])
                                })
                            }),
                        ProcessorKind::Service => {
                            quiet(self, p)
                                && (!processors[p].synchronization || self.states[p].barrier_fired)
                                && self.preds_exhausted(p, true)
                        }
                    };
                    if value {
                        self.exhausted[p] = true;
                        changed = true;
                    }
                }
                if !changed || component.len() == 1 {
                    break;
                }
            }
        }
    }
}
