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
use std::collections::HashSet;

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

    /// Links arriving at `proc`.
    pub fn in_links(&self, proc: ProcId) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.to.proc == proc)
    }

    /// Links leaving `proc`.
    pub fn out_links(&self, proc: ProcId) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.from.proc == proc)
    }

    /// Direct data predecessors (deduplicated).
    pub fn data_preds(&self, proc: ProcId) -> Vec<ProcId> {
        let mut seen = HashSet::new();
        self.in_links(proc)
            .map(|l| l.from.proc)
            .filter(|p| seen.insert(*p))
            .collect()
    }

    /// Direct data successors (deduplicated).
    pub fn data_succs(&self, proc: ProcId) -> Vec<ProcId> {
        let mut seen = HashSet::new();
        self.out_links(proc)
            .map(|l| l.to.proc)
            .filter(|p| seen.insert(*p))
            .collect()
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

    /// For each processor, the id of its strongly connected component
    /// (same id ⇔ same cycle). Tarjan numbers the components in reverse
    /// topological order of the condensation. Singletons without
    /// self-loops are the acyclic part; larger components are the
    /// service-approach loops.
    pub fn scc_ids(&self) -> Vec<usize> {
        struct TarjanState {
            index: Vec<Option<usize>>,
            lowlink: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next_index: usize,
            ids: Vec<usize>,
            components: usize,
        }
        fn strongconnect(v: usize, adj: &[Vec<usize>], st: &mut TarjanState) {
            st.index[v] = Some(st.next_index);
            st.lowlink[v] = st.next_index;
            st.next_index += 1;
            st.stack.push(v);
            st.on_stack[v] = true;
            for &w in &adj[v] {
                if st.index[w].is_none() {
                    strongconnect(w, adj, st);
                    st.lowlink[v] = st.lowlink[v].min(st.lowlink[w]);
                } else if st.on_stack[w] {
                    st.lowlink[v] = st.lowlink[v].min(st.index[w].unwrap());
                }
            }
            if st.lowlink[v] == st.index[v].unwrap() {
                loop {
                    let w = st.stack.pop().unwrap();
                    st.on_stack[w] = false;
                    st.ids[w] = st.components;
                    if w == v {
                        break;
                    }
                }
                st.components += 1;
            }
        }

        #[cfg(test)]
        TARJAN_PASSES.with(|n| n.set(n.get() + 1));
        let n = self.processors.len();
        let mut adj = vec![Vec::new(); n];
        for l in &self.links {
            adj[l.from.proc.0].push(l.to.proc.0);
        }
        let mut st = TarjanState {
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            ids: vec![0; n],
            components: 0,
        };
        for v in 0..n {
            if st.index[v].is_none() {
                strongconnect(v, &adj, &mut st);
            }
        }
        st.ids
    }

    /// Which processors sit on a data-link cycle: the members of a
    /// non-trivial SCC, and processors with a self-link.
    pub fn cycle_members(&self) -> Vec<bool> {
        self.cycles().1
    }

    /// [`Workflow::scc_ids`] and [`Workflow::cycle_members`] from one
    /// Tarjan pass.
    pub(crate) fn cycles(&self) -> (Vec<usize>, Vec<bool>) {
        let scc_ids = self.scc_ids();
        let mut size = vec![0usize; scc_ids.len()];
        for &c in &scc_ids {
            size[c] += 1;
        }
        let mut on_cycle: Vec<bool> = scc_ids.iter().map(|&c| size[c] > 1).collect();
        for l in self.links.iter().filter(|l| l.from.proc == l.to.proc) {
            on_cycle[l.from.proc.0] = true;
        }
        (scc_ids, on_cycle)
    }

    /// Does the graph contain a data-link cycle?
    pub fn has_cycle(&self) -> bool {
        self.cycle_members().contains(&true)
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
        if self.has_cycle() {
            return Err(MoteurError::new(
                "critical path undefined on cyclic workflows",
            ));
        }
        // Memoised longest path (service count) with successor tracking.
        fn longest(
            w: &Workflow,
            v: usize,
            memo: &mut [Option<(usize, Option<usize>)>],
        ) -> (usize, Option<usize>) {
            if let Some(m) = memo[v] {
                return m;
            }
            let own = usize::from(w.processors[v].kind == ProcessorKind::Service);
            let best = w
                .data_succs(ProcId(v))
                .into_iter()
                .map(|s| (longest(w, s.0, memo).0, s.0))
                .max_by_key(|(len, _)| *len);
            let r = match best {
                Some((len, succ)) => (own + len, Some(succ)),
                None => (own, None),
            };
            memo[v] = Some(r);
            r
        }
        let mut memo = vec![None; self.processors.len()];
        let start = (0..self.processors.len()).max_by_key(|&v| longest(self, v, &mut memo).0);
        let mut path = Vec::new();
        let mut cur = start;
        while let Some(v) = cur {
            if self.processors[v].kind == ProcessorKind::Service {
                path.push(ProcId(v));
            }
            cur = memo[v].and_then(|(_, succ)| succ);
        }
        Ok(path)
    }

    /// Structural validation: the lint's structural rules — M001
    /// (every link and coordination constraint names existing processors
    /// and ports), M007 (unique names), M008 (services bound, sources and
    /// sinks not) and M010 (every input port fed). The first finding is
    /// the error. See [`crate::lint`].
    pub fn validate(&self) -> Result<(), MoteurError> {
        crate::lint::rules::validate(self)
    }
}

#[cfg(test)]
thread_local! {
    /// [`Workflow::scc_ids`] calls made on this thread, for the tests.
    pub(crate) static TARJAN_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
        assert_eq!(w.data_preds(p1), vec![src]);
        let mut succs = w.data_succs(p1);
        succs.sort();
        assert_eq!(succs, vec![p2, p3]);
        assert_eq!(w.data_preds(sink).len(), 2);
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
        let ids = w.scc_ids();
        assert_eq!(ids[p2.0], ids[p3.0], "P2 and P3 share a cycle");
        // Every processor in exactly one component: the loop's two
        // members together, everything else alone.
        let mut sizes = vec![0; w.processors.len()];
        for &id in &ids {
            sizes[id] += 1;
        }
        sizes.retain(|&s| s > 0);
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1, 1, 2]);
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
}
