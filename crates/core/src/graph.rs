//! The service-based workflow graph (paper §2.1).
//!
//! A workflow is a directed graph of *processors* with named input and
//! output *ports*; *data links* connect output ports to input ports and
//! *coordination constraints* (control links) order processors without
//! moving data. Sources have no inputs, sinks no outputs. Unlike
//! task-based DAG managers, the graph may contain cycles (paper Fig. 2):
//! the number of loop iterations is decided at run time by conditional
//! output routing.

use crate::error::MoteurError;
use crate::service::ServiceBinding;
use moteur_xml::Span;

/// Index of a processor inside its workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// What role a processor plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorKind {
    /// Produces the workflow's input data (one implicit output port).
    Source,
    /// Collects results (one implicit input port).
    Sink,
    /// An application service.
    Service,
}

/// Iteration strategy composing a multi-input service's port streams
/// (paper §2.2, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IterationStrategy {
    /// Pair items with equal index vectors — `min(n, m)` invocations.
    #[default]
    Dot,
    /// All combinations — `n × m` invocations, concatenated indices.
    Cross,
}

/// A workflow node.
#[derive(Debug, Clone)]
pub struct Processor {
    pub name: String,
    pub kind: ProcessorKind,
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
    pub iteration: IterationStrategy,
    /// Synchronization processor (paper §2.3): consumes its entire
    /// input streams at once, after all its ancestors completed.
    pub synchronization: bool,
    pub binding: Option<ServiceBinding>,
    /// Declared per-item size in bytes of the data this node emits.
    /// Meaningful for sources (`<source bytes="…"/>`), where no
    /// descriptor exists to carry an `<outputsize>`; the static planner
    /// falls back to the consumer's declared slot size, then to its
    /// default, when absent.
    pub item_bytes: Option<u64>,
}

/// One end of a data link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    pub proc: ProcId,
    pub port: usize,
}

/// A data link from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub from: PortRef,
    pub to: PortRef,
}

/// Byte spans locating each workflow construct in the document it was
/// parsed from — the side table the [`crate::lint`] diagnostics engine
/// uses to point at SCUFL source. Builder-constructed workflows leave
/// it empty; graph transforms (grouping) do not maintain it.
#[derive(Debug, Clone, Default)]
pub struct SourceSpans {
    /// The root `<scufl>` element.
    pub workflow: Span,
    /// One span per processor, parallel to `Workflow::processors`.
    pub processors: Vec<Span>,
    /// One span per data link, parallel to `Workflow::links`.
    pub links: Vec<Span>,
    /// One span per coordination constraint, parallel to
    /// `Workflow::control`.
    pub control: Vec<Span>,
    /// `(processor, slot)` spans of `<param>` elements.
    pub params: Vec<(ProcId, String, Span)>,
    /// `(processor, slot)` spans of `<outputsize>` elements.
    pub outputsizes: Vec<(ProcId, String, Span)>,
}

impl SourceSpans {
    /// Span of processor `id`, or [`Span::EMPTY`] when untracked.
    pub fn processor(&self, id: ProcId) -> Span {
        self.processors.get(id.0).copied().unwrap_or(Span::EMPTY)
    }

    /// Span of the `i`-th data link, or [`Span::EMPTY`] when untracked.
    pub fn link(&self, i: usize) -> Span {
        self.links.get(i).copied().unwrap_or(Span::EMPTY)
    }

    /// Span of the `i`-th coordination constraint.
    pub fn control_edge(&self, i: usize) -> Span {
        self.control.get(i).copied().unwrap_or(Span::EMPTY)
    }

    /// Span of the `<param slot=…>` element on `id`, if tracked.
    pub fn param(&self, id: ProcId, slot: &str) -> Span {
        self.params
            .iter()
            .find(|(p, s, _)| *p == id && s == slot)
            .map_or(Span::EMPTY, |(_, _, sp)| *sp)
    }

    /// Span of the `<outputsize slot=…>` element on `id`, if tracked.
    pub fn outputsize(&self, id: ProcId, slot: &str) -> Span {
        self.outputsizes
            .iter()
            .find(|(p, s, _)| *p == id && s == slot)
            .map_or(Span::EMPTY, |(_, _, sp)| *sp)
    }
}

/// The workflow graph.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pub name: String,
    pub processors: Vec<Processor>,
    pub links: Vec<Link>,
    /// Coordination constraints: `(before, after)` — `after` may not
    /// fire until `before` is exhausted.
    pub control: Vec<(ProcId, ProcId)>,
    /// Source-location side table populated by the Scufl parser;
    /// empty for programmatically built workflows.
    pub spans: SourceSpans,
}

impl Workflow {
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a data source with the given name (one output port `out`).
    pub fn add_source(&mut self, name: impl Into<String>) -> ProcId {
        self.push(Processor {
            name: name.into(),
            kind: ProcessorKind::Source,
            inputs: vec![],
            outputs: vec!["out".into()],
            iteration: IterationStrategy::Dot,
            synchronization: false,
            binding: None,
            item_bytes: None,
        })
    }

    /// Add a data sink (one input port `in`).
    pub fn add_sink(&mut self, name: impl Into<String>) -> ProcId {
        self.push(Processor {
            name: name.into(),
            kind: ProcessorKind::Sink,
            inputs: vec!["in".into()],
            outputs: vec![],
            iteration: IterationStrategy::Dot,
            synchronization: false,
            binding: None,
            item_bytes: None,
        })
    }

    /// Add a service processor.
    pub fn add_service(
        &mut self,
        name: impl Into<String>,
        inputs: &[&str],
        outputs: &[&str],
        binding: ServiceBinding,
    ) -> ProcId {
        self.push(Processor {
            name: name.into(),
            kind: ProcessorKind::Service,
            inputs: inputs
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            outputs: outputs
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            iteration: IterationStrategy::Dot,
            synchronization: false,
            binding: Some(binding),
            item_bytes: None,
        })
    }

    pub fn push(&mut self, processor: Processor) -> ProcId {
        self.processors.push(processor);
        ProcId(self.processors.len() - 1)
    }

    pub fn processor(&self, id: ProcId) -> &Processor {
        &self.processors[id.0]
    }

    pub fn processor_mut(&mut self, id: ProcId) -> &mut Processor {
        &mut self.processors[id.0]
    }

    /// Set a processor's iteration strategy.
    pub fn set_iteration(&mut self, id: ProcId, strategy: IterationStrategy) {
        self.processors[id.0].iteration = strategy;
    }

    /// Mark a processor as a synchronization barrier.
    pub fn set_synchronization(&mut self, id: ProcId, sync: bool) {
        self.processors[id.0].synchronization = sync;
    }

    /// Declare the per-item size (bytes) of the data a node emits —
    /// used by `moteur::plan` to bound transfer volumes on edges whose
    /// producer has no descriptor (sources).
    pub fn set_item_bytes(&mut self, id: ProcId, bytes: u64) {
        self.processors[id.0].item_bytes = Some(bytes);
    }

    /// Find a processor by name.
    pub fn find(&self, name: &str) -> Option<ProcId> {
        self.processors
            .iter()
            .position(|p| p.name == name)
            .map(ProcId)
    }

    fn port_index(ports: &[String], name: &str) -> Option<usize> {
        ports.iter().position(|p| p == name)
    }

    /// Connect `from_proc.out_port` to `to_proc.in_port` (by port name).
    pub fn connect(
        &mut self,
        from_proc: ProcId,
        out_port: &str,
        to_proc: ProcId,
        in_port: &str,
    ) -> Result<(), MoteurError> {
        let fp = self
            .processors
            .get(from_proc.0)
            .ok_or_else(|| MoteurError::new("bad source processor id"))?;
        let tp = self
            .processors
            .get(to_proc.0)
            .ok_or_else(|| MoteurError::new("bad target processor id"))?;
        let from_port = Self::port_index(&fp.outputs, out_port).ok_or_else(|| {
            MoteurError::new(format!("`{}` has no output port `{out_port}`", fp.name))
        })?;
        let to_port = Self::port_index(&tp.inputs, in_port).ok_or_else(|| {
            MoteurError::new(format!("`{}` has no input port `{in_port}`", tp.name))
        })?;
        self.links.push(Link {
            from: PortRef {
                proc: from_proc,
                port: from_port,
            },
            to: PortRef {
                proc: to_proc,
                port: to_port,
            },
        });
        Ok(())
    }

    /// Add a coordination constraint: `after` waits for `before`.
    pub fn add_control(&mut self, before: ProcId, after: ProcId) {
        self.control.push((before, after));
    }

    /// Sources of the workflow.
    pub fn sources(&self) -> Vec<ProcId> {
        (0..self.processors.len())
            .map(ProcId)
            .filter(|&p| self.processors[p.0].kind == ProcessorKind::Source)
            .collect()
    }

    /// Sinks of the workflow.
    pub fn sinks(&self) -> Vec<ProcId> {
        (0..self.processors.len())
            .map(ProcId)
            .filter(|&p| self.processors[p.0].kind == ProcessorKind::Sink)
            .collect()
    }

    /// Does the graph contain a data-link cycle?
    pub fn has_cycle(&self) -> bool {
        GraphIndex::of(self).in_cycle.contains(&true)
    }

    /// Number of *services* on the longest source→sink path (`n_W` of
    /// the theoretical model, §3.5.1). Only valid for acyclic graphs.
    pub fn critical_path_services(&self) -> Result<usize, MoteurError> {
        Ok(self.critical_path()?.len())
    }

    /// The service processors along the longest source→sink path, in
    /// execution order — the critical path of the theoretical model.
    /// Only valid for acyclic graphs.
    pub fn critical_path(&self) -> Result<Vec<ProcId>, MoteurError> {
        self.critical_path_in(&GraphIndex::of(self))
    }

    /// [`Workflow::critical_path`] read from this workflow's index.
    pub(crate) fn critical_path_in(&self, graph: &GraphIndex) -> Result<Vec<ProcId>, MoteurError> {
        if graph.in_cycle.contains(&true) {
            return Err(MoteurError::new(
                "critical path undefined on cyclic workflows",
            ));
        }
        // Per processor, the most services on a path starting there and
        // the successor it continues through. Successors come first in
        // reverse topological order, so each is final when read; among
        // equally long ones the last distinct successor in link order
        // wins.
        let n = self.processors.len();
        let mut best: Vec<(usize, Option<usize>)> = vec![(0, None); n];
        let mut seen = vec![usize::MAX; n];
        for v in graph.order.iter().rev().map(|&v| v as usize) {
            let own = usize::from(self.processors[v].kind == ProcessorKind::Service);
            let mut next: Option<(usize, usize)> = None;
            for s in graph.succs(v) {
                if std::mem::replace(&mut seen[s], v) != v
                    && next.is_none_or(|(len, _)| best[s].0 >= len)
                {
                    next = Some((best[s].0, s));
                }
            }
            best[v] = next.map_or((own, None), |(len, s)| (own + len, Some(s)));
        }
        let mut path = Vec::new();
        let mut cur = (0..n).max_by_key(|&v| best[v].0);
        while let Some(v) = cur {
            if self.processors[v].kind == ProcessorKind::Service {
                path.push(ProcId(v));
            }
            cur = best[v].1;
        }
        Ok(path)
    }

    /// Structural validation: the lint's structural rules — M001
    /// (every link and coordination constraint names existing processors
    /// and ports), M007 (unique names), M008 (services bound, sources and
    /// sinks not) and M010 (every input port fed). The first finding is
    /// the error. See [`crate::lint`].
    pub fn validate(&self) -> Result<(), MoteurError> {
        crate::lint::rules::validate(self).map(drop)
    }
}

/// The workflow's structure, built once in O(P + L) and read by every
/// walk over it: processor-level adjacency in both directions, as flat
/// arrays in link order, and the strongly connected components in
/// topological order of the condensation. The lint and the planner
/// hold one in their `StaticFacts`, a compiled workflow one for the
/// graph it enacts.
///
/// The links must name existing processors (the structural gate's
/// M001 condition); ports are not read.
#[derive(Debug)]
pub(crate) struct GraphIndex {
    /// `preds[pred_at[p]..pred_at[p + 1]]` holds the producer of each
    /// link into `p`, in link order, and `in_links` at the same
    /// positions the link's index.
    pred_at: Vec<u32>,
    preds: Vec<u32>,
    in_links: Vec<u32>,
    /// `succs[succ_at[p]..succ_at[p + 1]]`: the consumer of each link
    /// out of `p`, in link order.
    succ_at: Vec<u32>,
    succs: Vec<u32>,
    /// Component id per processor (same id ⇔ same cycle), numbered as
    /// Tarjan completes them: in reverse topological order of the
    /// condensation.
    scc: Vec<u32>,
    /// Which processors sit on a data-link cycle: the members of a
    /// non-trivial component, and processors with a self-link.
    pub(crate) in_cycle: Vec<bool>,
    /// Every processor once, components in topological order, each
    /// component's members adjacent and in index order.
    order: Vec<u32>,
}

impl GraphIndex {
    /// Index `wf`: both adjacencies, then Tarjan over the successors
    /// with an explicit call stack, visiting roots in index order and
    /// successors in link order.
    pub(crate) fn of(wf: &Workflow) -> GraphIndex {
        #[cfg(test)]
        INDEX_BUILDS.with(|n| n.set(n.get() + 1));
        let n = wf.processors.len();
        let (mut pred_at, mut succ_at) = (vec![0u32; n + 1], vec![0u32; n + 1]);
        for l in &wf.links {
            pred_at[l.to.proc.0 + 1] += 1;
            succ_at[l.from.proc.0 + 1] += 1;
        }
        for p in 0..n {
            pred_at[p + 1] += pred_at[p];
            succ_at[p + 1] += succ_at[p];
        }
        let (mut next_pred, mut next_succ) = (pred_at.clone(), succ_at.clone());
        let mut preds = vec![0u32; wf.links.len()];
        let mut in_links = vec![0u32; wf.links.len()];
        let mut succs = vec![0u32; wf.links.len()];
        for (i, l) in wf.links.iter().enumerate() {
            let (from, to) = (l.from.proc.0, l.to.proc.0);
            let at = next_pred[to] as usize;
            (preds[at], in_links[at]) = (from as u32, i as u32);
            succs[next_succ[from] as usize] = to as u32;
            next_pred[to] += 1;
            next_succ[from] += 1;
        }

        const UNSEEN: u32 = u32::MAX;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut scc = vec![0u32; n];
        let mut components = 0u32;
        // Each frame is a processor and the position of the next
        // successor it visits.
        let mut calls: Vec<(usize, usize)> = Vec::new();
        let mut visited = 0u32;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    (index[v], low[v]) = (visited, visited);
                    visited += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                    calls.push((v, succ_at[v] as usize));
                }
                let Some((v, at)) = calls.last_mut() else {
                    break;
                };
                let v = *v;
                if *at < succ_at[v + 1] as usize {
                    let w = succs[*at] as usize;
                    *at += 1;
                    if index[w] == UNSEEN {
                        enter = Some(w);
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                calls.pop();
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("v is on the stack") as usize;
                        on_stack[w] = false;
                        scc[w] = components;
                        if w == v {
                            break;
                        }
                    }
                    components += 1;
                }
                if let Some(&(u, _)) = calls.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }

        // Members per component, then every component placed at its
        // topological position: the last one Tarjan completed first.
        let mut size = vec![0u32; components as usize];
        for &c in &scc {
            size[c as usize] += 1;
        }
        let mut in_cycle: Vec<bool> = scc.iter().map(|&c| size[c as usize] > 1).collect();
        for l in wf.links.iter().filter(|l| l.from.proc == l.to.proc) {
            in_cycle[l.from.proc.0] = true;
        }
        let mut slot = vec![0u32; components as usize];
        for c in (0..slot.len().saturating_sub(1)).rev() {
            slot[c] = slot[c + 1] + size[c + 1];
        }
        let mut order = vec![0u32; n];
        for (p, &c) in scc.iter().enumerate() {
            order[slot[c as usize] as usize] = p as u32;
            slot[c as usize] += 1;
        }
        GraphIndex {
            pred_at,
            preds,
            in_links,
            succ_at,
            succs,
            scc,
            in_cycle,
            order,
        }
    }

    /// The producer of each link into `p`, in link order (a producer
    /// feeding `p` over several links appears once per link).
    pub(crate) fn preds(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.pred_at[p] as usize..self.pred_at[p + 1] as usize;
        self.preds[range].iter().map(|&q| q as usize)
    }

    /// The index into `Workflow::links` of each link into `p`, in link
    /// order.
    pub(crate) fn in_links(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.pred_at[p] as usize..self.pred_at[p + 1] as usize;
        self.in_links[range].iter().map(|&l| l as usize)
    }

    /// The consumer of each link out of `p`, in link order.
    pub(crate) fn succs(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let range = self.succ_at[p] as usize..self.succ_at[p + 1] as usize;
        self.succs[range].iter().map(|&q| q as usize)
    }

    /// Which processors `roots` reach, themselves included, following
    /// links `forward` or against them.
    pub(crate) fn closure(&self, roots: impl Iterator<Item = usize>, forward: bool) -> Vec<bool> {
        let mut found = vec![false; self.scc.len()];
        let mut stack: Vec<usize> = roots
            .filter(|&v| !std::mem::replace(&mut found[v], true))
            .collect();
        while let Some(v) = stack.pop() {
            let (at, next) = match forward {
                true => (&self.succ_at, &self.succs),
                false => (&self.pred_at, &self.preds),
            };
            for &w in &next[at[v] as usize..at[v + 1] as usize] {
                if !std::mem::replace(&mut found[w as usize], true) {
                    stack.push(w as usize);
                }
            }
        }
        found
    }

    /// The component id of `p`.
    pub(crate) fn scc(&self, p: usize) -> usize {
        self.scc[p] as usize
    }

    /// The components' members, components in topological order: every
    /// link either stays inside a component or leads to a later one.
    pub(crate) fn components(&self) -> impl Iterator<Item = &[u32]> {
        self.order
            .chunk_by(|&a, &b| self.scc[a as usize] == self.scc[b as usize])
    }
}

#[cfg(test)]
thread_local! {
    /// [`GraphIndex::of`] calls made on this thread, for the tests.
    pub(crate) static INDEX_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceProfile;
    use moteur_wrapper::crest_lines_example;

    fn dummy_binding() -> ServiceBinding {
        ServiceBinding::descriptor(crest_lines_example(), ServiceProfile::new(1.0))
    }

    /// The paper's Fig. 1: P1 → P2, P1 → P3 (plus source/sink plumbing).
    fn fig1() -> (Workflow, [ProcId; 5]) {
        let mut w = Workflow::new("fig1");
        let src = w.add_source("source");
        let p1 = w.add_service("P1", &["in"], &["out"], dummy_binding());
        let p2 = w.add_service("P2", &["in"], &["out"], dummy_binding());
        let p3 = w.add_service("P3", &["in"], &["out"], dummy_binding());
        let sink = w.add_sink("sink");
        w.connect(src, "out", p1, "in").unwrap();
        w.connect(p1, "out", p2, "in").unwrap();
        w.connect(p1, "out", p3, "in").unwrap();
        w.connect(p2, "out", sink, "in").unwrap();
        w.connect(p3, "out", sink, "in").unwrap();
        (w, [src, p1, p2, p3, sink])
    }

    #[test]
    fn builder_and_lookup() {
        let (w, [src, p1, ..]) = fig1();
        assert_eq!(w.find("P1"), Some(p1));
        assert_eq!(w.find("missing"), None);
        assert_eq!(w.processor(src).kind, ProcessorKind::Source);
        assert_eq!(w.sources(), vec![src]);
        assert_eq!(w.sinks().len(), 1);
    }

    #[test]
    fn preds_and_succs() {
        let (w, [src, p1, p2, p3, sink]) = fig1();
        let graph = GraphIndex::of(&w);
        assert_eq!(graph.preds(p1.0).collect::<Vec<_>>(), [src.0]);
        assert_eq!(graph.succs(p1.0).collect::<Vec<_>>(), [p2.0, p3.0]);
        assert_eq!(graph.preds(sink.0).collect::<Vec<_>>(), [p2.0, p3.0]);
        assert_eq!(graph.in_links(sink.0).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn connect_rejects_unknown_ports() {
        let (mut w, [_, p1, p2, ..]) = fig1();
        assert!(w.connect(p1, "nope", p2, "in").is_err());
        assert!(w.connect(p1, "out", p2, "nope").is_err());
    }

    #[test]
    fn validate_accepts_fig1() {
        fig1().0.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unconnected_input() {
        let mut w = Workflow::new("w");
        let _ = w.add_service("lonely", &["in"], &["out"], dummy_binding());
        let err = w.validate().unwrap_err();
        assert!(err.to_string().contains("not connected"));
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut w = Workflow::new("w");
        w.add_source("x");
        w.add_source("x");
        assert!(w.validate().unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_service_without_binding() {
        let mut w = Workflow::new("w");
        let s = w.add_source("s");
        let p = w.push(Processor {
            name: "p".into(),
            kind: ProcessorKind::Service,
            inputs: vec!["in".into()],
            outputs: vec![],
            iteration: IterationStrategy::Dot,
            synchronization: false,
            binding: None,
            item_bytes: None,
        });
        w.connect(s, "out", p, "in").unwrap();
        assert!(w.validate().unwrap_err().to_string().contains("no binding"));
    }

    #[test]
    fn fig1_is_acyclic_with_critical_path_2() {
        let (w, _) = fig1();
        assert!(!w.has_cycle());
        // Longest service chain: P1 → P2 (or P1 → P3) = 2 services.
        assert_eq!(w.critical_path_services().unwrap(), 2);
    }

    /// The paper's Fig. 2 loop: P1 → P2 → P3 → (sink | back to P2).
    fn fig2() -> (Workflow, [ProcId; 5]) {
        let mut w = Workflow::new("fig2");
        let src = w.add_source("source");
        let p1 = w.add_service("P1", &["in"], &["out"], dummy_binding());
        let p2 = w.add_service("P2", &["in"], &["out"], dummy_binding());
        let p3 = w.add_service("P3", &["in"], &["again", "done"], dummy_binding());
        let sink = w.add_sink("sink");
        w.connect(src, "out", p1, "in").unwrap();
        w.connect(p1, "out", p2, "in").unwrap();
        w.connect(p2, "out", p3, "in").unwrap();
        w.connect(p3, "again", p2, "in").unwrap();
        w.connect(p3, "done", sink, "in").unwrap();
        (w, [src, p1, p2, p3, sink])
    }

    #[test]
    fn fig2_loop_is_detected_as_cycle() {
        let (w, [_, _, p2, p3, _]) = fig2();
        assert!(w.has_cycle());
        let graph = GraphIndex::of(&w);
        assert_eq!(graph.scc(p2.0), graph.scc(p3.0), "P2 and P3 share a cycle");
        // Every processor in exactly one component, in topological
        // order: the loop's two members together, everything else alone.
        let components: Vec<&[u32]> = graph.components().collect();
        assert_eq!(components, [&[0][..], &[1], &[2, 3], &[4]]);
        assert!(w.critical_path_services().is_err());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut w = Workflow::new("w");
        let s = w.add_source("s");
        let p = w.add_service("p", &["in"], &["out"], dummy_binding());
        w.connect(s, "out", p, "in").unwrap();
        w.connect(p, "out", p, "in").unwrap();
        assert!(w.has_cycle());
    }

    #[test]
    fn control_links_are_recorded() {
        let (mut w, [_, p1, p2, ..]) = fig1();
        w.add_control(p1, p2);
        assert_eq!(w.control, vec![(p1, p2)]);
    }

    /// A workflow of `n` processors of random kinds joined by random
    /// links, duplicates and self-links included; with `acyclic`, every
    /// link runs forward in a random order of the processors.
    fn random_digraph(case: u64, acyclic: bool) -> Workflow {
        let mut rng = moteur_gridsim::Rng::new(case);
        let n = 1 + rng.index(14);
        let mut w = Workflow::new("digraph");
        let mut rank: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let kind =
                [ProcessorKind::Source, ProcessorKind::Service][usize::from(rng.chance(0.8))];
            w.push(Processor {
                name: format!("p{i}"),
                kind,
                inputs: vec!["in".into()],
                outputs: vec!["out".into()],
                iteration: IterationStrategy::Dot,
                synchronization: false,
                binding: None,
                item_bytes: None,
            });
            rank.swap(i, rng.index(i + 1));
        }
        for _ in 0..rng.index(3 * n + 1) {
            let (mut a, mut b) = (rng.index(n), rng.index(n));
            if acyclic {
                if a == b {
                    continue;
                }
                if rank[a] > rank[b] {
                    (a, b) = (b, a);
                }
            }
            w.links.push(Link {
                from: PortRef {
                    proc: ProcId(a),
                    port: 0,
                },
                to: PortRef {
                    proc: ProcId(b),
                    port: 0,
                },
            });
        }
        w
    }

    /// The index against the recursive oracles: Tarjan's numbering, the
    /// cycle members and the critical path (tie-breaks included), and
    /// components in topological order.
    fn assert_matches_oracles(w: &Workflow, what: &str) {
        let graph = GraphIndex::of(w);
        let ids: Vec<usize> = (0..w.processors.len()).map(|p| graph.scc(p)).collect();
        assert_eq!(ids, crate::graph_oracle::scc_ids(w), "{what}: SCC ids");
        assert_eq!(
            graph.in_cycle,
            crate::graph_oracle::cycle_members(w),
            "{what}"
        );
        let paths = (w.critical_path(), crate::graph_oracle::critical_path(w));
        match paths {
            (Ok(index), Ok(oracle)) => assert_eq!(index, oracle, "{what}: critical path"),
            (Err(_), Err(_)) => {}
            other => panic!("{what}: critical paths {other:?}"),
        }
        let mut position = vec![0; w.processors.len()];
        for (i, component) in graph.components().enumerate() {
            for &p in component {
                position[p as usize] = i;
            }
        }
        for l in &w.links {
            assert!(
                position[l.from.proc.0] <= position[l.to.proc.0],
                "{what}: order"
            );
        }
    }

    #[test]
    fn the_index_matches_the_recursive_oracles() {
        use crate::hostile_structure::{mutate, MUTATIONS};
        for case in 0..600 {
            let (wf, _) = crate::random_workflow::random_workflow(case);
            assert_matches_oracles(&wf, &format!("random {case}"));
            let grouped = crate::grouping::group_workflow(&wf).unwrap();
            assert_matches_oracles(&grouped, &format!("random {case} grouped"));
            for m in MUTATIONS {
                let mutant = mutate(wf.clone(), case, m);
                let n = mutant.processors.len();
                if mutant
                    .links
                    .iter()
                    .all(|l| l.from.proc.0 < n && l.to.proc.0 < n)
                {
                    assert_matches_oracles(&mutant, &format!("random {case} {m:?}"));
                }
            }
            assert_matches_oracles(&random_digraph(case, false), &format!("digraph {case}"));
            assert_matches_oracles(&random_digraph(case, true), &format!("dag {case}"));
        }
    }

    /// No walk over the graph recurses: a 200,000-service chain passes
    /// the critical path, the gate, the lint, grouping and compilation
    /// on a 1 MiB stack (each recursive walk needed a frame per
    /// service).
    #[test]
    fn a_long_chain_is_analysed_and_compiled_on_a_small_stack() {
        const SERVICES: usize = 200_000;
        let run = || {
            let mut w = Workflow::new("chain");
            let echo = |_: &[crate::token::Token]| -> Result<Vec<(String, crate::value::DataValue)>, String> {
                Ok(vec![])
            };
            let binding = ServiceBinding::local(echo);
            let mut prev = (w.add_source("src"), "out");
            for i in 0..SERVICES {
                let p = w.add_service(format!("s{i}"), &["in"], &["out"], binding.clone());
                w.connect(prev.0, prev.1, p, "in").unwrap();
                prev = (p, "out");
            }
            let sink = w.add_sink("sink");
            w.connect(prev.0, prev.1, sink, "in").unwrap();
            assert_eq!(w.critical_path_services().unwrap(), SERVICES);
            w.validate().unwrap();
            assert!(!crate::lint::lint_workflow(&w).has_errors());
            let grouped = crate::grouping::group_workflow(&w).unwrap();
            assert_eq!(grouped.processors.len(), SERVICES + 2);
            let config = crate::EnactorConfig::sp_dp_jg();
            crate::enactor::CompiledWorkflow::compile(&w, &config).unwrap();
        };
        let thread = std::thread::Builder::new().stack_size(1 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }
}
