//! The job-grouping graph transform (paper §3.6).
//!
//! Merges a service P into the one service Q that every data link out
//! of P ends at, into a *virtual grouped service* submitted as one grid
//! job, until no pair merges, so chains of any length collapse. On the
//! paper's application (Fig. 9) this merges `crestLines`+`crestMatch` and
//! `PFMatchICP`+`PFRegister`, cutting 6 job submissions per image pair
//! down to 4. [`blocking`] holds the conditions: both members are
//! descriptor-bound (or grouped) dot-product services, neither is a
//! barrier, on a cycle or under a coordination constraint, and each of
//! Q's ports is fed by one link from P or by other producers only.

use crate::error::MoteurError;
use crate::graph::{GraphIndex, IterationStrategy, ProcId, Processor, ProcessorKind, Workflow};
use crate::service::{GroupSource, GroupedBinding, GroupedStage, ServiceBinding};
use std::collections::BTreeSet;
use std::mem::take;

/// Apply grouping repeatedly until no pair can be merged.
pub fn group_workflow(workflow: &Workflow) -> Result<Workflow, MoteurError> {
    let grouped = group(workflow, &GraphIndex::of(workflow))?;
    Ok(grouped.map_or_else(|| workflow.clone(), |(grouped, _)| grouped))
}

/// [`group_workflow`] given `workflow`'s index: the grouped graph and
/// its own index, or `None` when no pair merges.
///
/// Each step merges the first live processor that passes the §3.6 test
/// with its sole service consumer, by position: the written processors,
/// then the merged ones in creation order, as if each merge rebuilt the
/// graph without the pair and appended the merged processor. The
/// worklist holds, in that order, every processor not yet tested: all at
/// first, then after each merge the merged processor and each producer
/// that fed both members, the only verdicts a merge can change.
pub(crate) fn group(
    workflow: &Workflow,
    graph: &GraphIndex,
) -> Result<Option<(Workflow, GraphIndex)>, MoteurError> {
    let mut work = Work::new(workflow, graph);
    let mut worklist: BTreeSet<usize> = (0..workflow.processors.len()).collect();
    while let Some(p) = worklist.pop_first() {
        let q = sole_service_consumer(&work.wf, &work, ProcId(p));
        if let Some(q) = q.filter(|&q| blocking(&work.wf, &work, ProcId(p), q).is_none()) {
            worklist.remove(&q.0);
            worklist.extend(work.merge(p, q.0)?);
        }
    }
    if work.live.len() == workflow.processors.len() {
        return Ok(None);
    }
    let grouped = work.finish();
    let graph = GraphIndex::of(&grouped);
    Ok(Some((grouped, graph)))
}

/// The structure the §3.6 test reads: the written graph's
/// [`GraphIndex`], or the lists [`group`] edits in place.
pub(crate) trait Adjacency {
    /// The consumer of each link out of `p`.
    fn succs(&self, p: usize) -> impl Iterator<Item = usize> + '_;
    /// The index into the workflow's links of each link into `p`.
    fn in_links(&self, p: usize) -> impl Iterator<Item = usize> + '_;
    /// Whether `p` sits on a data-link cycle.
    fn in_cycle(&self, p: usize) -> bool;
}

impl Adjacency for GraphIndex {
    fn succs(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        GraphIndex::succs(self, p)
    }
    fn in_links(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        GraphIndex::in_links(self, p)
    }
    fn in_cycle(&self, p: usize) -> bool {
        self.in_cycle[p]
    }
}

/// The graph [`group`] merges in place. Processors keep their slots:
/// the written ones, then each merged one appended. `ins` and `outs`
/// list each slot's links by their index into `wf.links`, where a
/// dropped link stays, still leaving its retired producer.
struct Work {
    wf: Workflow,
    ins: Vec<Vec<usize>>,
    outs: Vec<Vec<usize>>,
    /// The written graph's: merging neither makes nor breaks a cycle.
    in_cycle: Vec<bool>,
    live: Vec<bool>,
}

impl Adjacency for Work {
    fn succs(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.outs[p].iter().map(|&l| self.wf.links[l].to.proc.0)
    }
    fn in_links(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.ins[p].iter().copied()
    }
    fn in_cycle(&self, p: usize) -> bool {
        self.in_cycle.get(p) == Some(&true)
    }
}

impl Work {
    fn new(wf: &Workflow, graph: &GraphIndex) -> Work {
        let n = wf.processors.len();
        let mut work = Work {
            wf: wf.clone(),
            ins: vec![Vec::new(); n],
            outs: vec![Vec::new(); n],
            in_cycle: graph.in_cycle.clone(),
            live: vec![true; n],
        };
        for (i, l) in wf.links.iter().enumerate() {
            work.ins[l.to.proc.0].push(i);
            work.outs[l.from.proc.0].push(i);
        }
        work
    }

    /// Merge P into its sole consumer Q: retire both, append the merged
    /// processor (P's ports, then each Q port P does not feed; Q's
    /// outputs), drop the P→Q links (all of P's) and re-point the rest.
    /// Returns the processors to test again: the merged one, and each
    /// producer that fed both members.
    fn merge(&mut self, p: usize, q: usize) -> Result<Vec<usize>, MoteurError> {
        let m = self.wf.processors.len();
        let (pg, mut inputs) = take_group(&mut self.wf.processors[p])?;
        let (qg, _) = take_group(&mut self.wf.processors[q])?;
        let (pp, qp) = (&self.wf.processors[p], &self.wf.processors[q]);
        // Where each Q port reads inside the group: the output of P's
        // that feeds it (one at most, as `blocking` passed), or the
        // merged port it becomes.
        let mut from_p = vec![None; qp.inputs.len()];
        let links = self.ins[q].iter().map(|&l| &self.wf.links[l]);
        for l in links.filter(|l| l.from.proc.0 == p) {
            let (stage, slot) = pg.exposed_outputs[l.from.port].clone();
            from_p[l.to.port] = Some(GroupSource::StageOutput { stage, slot });
        }
        let source: Vec<GroupSource> = (from_p.into_iter().zip(&qp.inputs))
            .map(|(src, port)| {
                src.unwrap_or_else(|| {
                    inputs.push(format!("{}.{port}", qp.name));
                    GroupSource::ExternalPort(inputs.len() - 1)
                })
            })
            .collect();
        let shift = pg.stages.len();
        let mut stages = pg.stages;
        stages.extend(qg.stages.into_iter().map(|mut stage| {
            for (_, src) in &mut stage.inputs {
                match src {
                    GroupSource::StageOutput { stage, .. } => *stage += shift,
                    GroupSource::ExternalPort(i) => *src = source[*i].clone(),
                }
            }
            stage
        }));
        let exposed_outputs = (qg.exposed_outputs.into_iter())
            .map(|(stage, slot)| (stage + shift, slot))
            .collect();
        let merged = Processor {
            name: format!("{}+{}", pp.name, qp.name),
            kind: ProcessorKind::Service,
            inputs,
            outputs: qp.outputs.clone(),
            iteration: IterationStrategy::Dot,
            synchronization: false,
            binding: Some(ServiceBinding::Grouped(GroupedBinding {
                stages,
                exposed_outputs,
            })),
            item_bytes: None,
        };

        let (mut ins, outs) = (take(&mut self.ins[p]), take(&mut self.outs[q]));
        let fed_p: Vec<ProcId> = ins.iter().map(|&l| self.wf.links[l].from.proc).collect();
        let mut again = vec![m];
        for &l in &ins {
            self.wf.links[l].to.proc = ProcId(m);
        }
        for l in take(&mut self.ins[q]) {
            let link = &mut self.wf.links[l];
            if let GroupSource::ExternalPort(port) = source[link.to.port] {
                again.extend(fed_p.contains(&link.from.proc).then_some(link.from.proc.0));
                (link.to.proc, link.to.port) = (ProcId(m), port);
                ins.push(l);
            }
        }
        for &l in &outs {
            self.wf.links[l].from.proc = ProcId(m);
        }
        self.wf.processors.push(merged);
        self.ins.push(ins);
        self.outs.push(outs);
        self.live.push(true);
        (self.live[p], self.live[q]) = (false, false);
        Ok(again)
    }

    /// The grouped graph: the live processors in slot order, then every
    /// link not dropped, in the written order, both renumbered.
    fn finish(self) -> Workflow {
        let (wf, live) = (self.wf, self.live);
        let mut out = Workflow::new(wf.name);
        let mut id = vec![ProcId(usize::MAX); live.len()];
        for (slot, proc) in wf.processors.into_iter().enumerate() {
            if live[slot] {
                id[slot] = out.push(proc);
            }
        }
        for mut l in wf.links.into_iter().filter(|l| live[l.from.proc.0]) {
            (l.from.proc, l.to.proc) = (id[l.from.proc.0], id[l.to.proc.0]);
            out.links.push(l);
        }
        for (a, b) in wf.control {
            out.control.push((id[a.0], id[b.0]));
        }
        out
    }
}

/// The first §3.6 condition that keeps a (P, Q) pair apart, naming the
/// processor or port it holds against. M031 renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocker<'a> {
    /// A synchronization barrier must see the whole input stream.
    Sync(&'a str),
    /// A cycle's iteration count is only known at run time.
    Cycle(&'a str),
    /// Fusing a cross product would change the invocation count.
    Cross(&'a str),
    /// Without an executable descriptor there is no command line to
    /// chain.
    Unbound(&'a str),
    /// Grouping would bypass a coordination constraint.
    Control(&'a str),
    /// Q's input `port` mixes P's data with other producers'.
    MixedPort {
        port: &'a str,
        p: &'a str,
        q: &'a str,
    },
}

/// The service every data link out of service `p` ends at, when it is
/// one service other than `p`: the candidate pairs of §3.6.
pub(crate) fn sole_service_consumer(
    wf: &Workflow,
    graph: &impl Adjacency,
    p: ProcId,
) -> Option<ProcId> {
    if wf.processor(p).kind != ProcessorKind::Service {
        return None;
    }
    let mut succs = graph.succs(p.0);
    let q = succs.next()?;
    let sole = succs.all(|s| s == q) && q != p.0;
    (sole && wf.processors[q].kind == ProcessorKind::Service).then_some(ProcId(q))
}

/// The first §3.6 condition that makes the candidate pair (P, Q)
/// ungroupable, checking each of P and Q for sync, cycle, iteration,
/// binding and control in turn, then Q's ports; `None` when the pair
/// groups. The transform and M030/M031 both decide here.
pub(crate) fn blocking<'a>(
    wf: &'a Workflow,
    graph: &impl Adjacency,
    p: ProcId,
    q: ProcId,
) -> Option<Blocker<'a>> {
    for id in [p, q] {
        let proc = wf.processor(id);
        let name = proc.name.as_str();
        if proc.synchronization {
            return Some(Blocker::Sync(name));
        }
        if graph.in_cycle(id.0) {
            return Some(Blocker::Cycle(name));
        }
        if proc.iteration != IterationStrategy::Dot {
            return Some(Blocker::Cross(name));
        }
        if !matches!(
            proc.binding,
            Some(ServiceBinding::Descriptor { .. } | ServiceBinding::Grouped(_))
        ) {
            return Some(Blocker::Unbound(name));
        }
        if wf.control.iter().any(|&(a, b)| a == id || b == id) {
            return Some(Blocker::Control(name));
        }
    }
    // Each Q input port must be fed either by exactly one P output or
    // only by other producers — otherwise the fused job cannot tell
    // which tuple element feeds which slot. One pass counts each
    // port's links, and those from P.
    let q_proc = wf.processor(q);
    let mut fed = vec![(0, 0); q_proc.inputs.len()];
    for l in graph.in_links(q.0).map(|l| &wf.links[l]) {
        if let Some((all, from_p)) = fed.get_mut(l.to.port) {
            *all += 1;
            *from_p += usize::from(l.from.proc == p);
        }
    }
    let port = fed
        .iter()
        .position(|&(all, from_p)| from_p > 0 && (from_p != all || from_p > 1))?;
    Some(Blocker::MixedPort {
        port: &q_proc.inputs[port],
        p: &wf.processor(p).name,
        q: &q_proc.name,
    })
}

/// Take a retiring member's binding, viewed as a [`GroupedBinding`],
/// with the names its ports take in the merged processor: a single
/// stage's prefixed by its name, so ports stay unique across merges; a
/// group's are already.
fn take_group(p: &mut Processor) -> Result<(GroupedBinding, Vec<String>), MoteurError> {
    match p.binding.take() {
        Some(ServiceBinding::Grouped(g)) => Ok((g, p.inputs.clone())),
        Some(ServiceBinding::Descriptor {
            descriptor,
            profile,
        }) => {
            let inputs = (p.inputs.iter().enumerate())
                .filter(|(_, port)| profile.fixed_param(port).is_none())
                .map(|(i, port)| (port.clone(), GroupSource::ExternalPort(i)))
                .collect();
            let name = p.name.clone();
            let ports = p.inputs.iter().map(|i| format!("{name}.{i}")).collect();
            let stages = vec![GroupedStage {
                name,
                descriptor,
                profile,
                inputs,
            }];
            let exposed_outputs = p.outputs.iter().map(|o| (0, o.clone())).collect();
            let binding = GroupedBinding {
                stages,
                exposed_outputs,
            };
            Ok((binding, ports))
        }
        _ => Err(MoteurError::new(format!("`{}` is not groupable", p.name))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceProfile;
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

    fn desc(name: &str, inputs: &[&str], outputs: &[&str]) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: inputs
                .iter()
                .map(|i| InputSlot {
                    name: i.to_string(),
                    option: format!("-{i}"),
                    access: Some(AccessMethod::Gfn),
                    bytes: None,
                })
                .collect(),
            outputs: outputs
                .iter()
                .map(|o| OutputSlot {
                    name: o.to_string(),
                    option: format!("-{o}"),
                    access: AccessMethod::Gfn,
                })
                .collect(),
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    fn svc(name: &str, inputs: &[&str], outputs: &[&str]) -> ServiceBinding {
        ServiceBinding::descriptor(desc(name, inputs, outputs), ServiceProfile::new(10.0))
    }

    /// source → A → B → sink (a plain sequential chain).
    fn chain2() -> Workflow {
        let mut w = Workflow::new("chain");
        let s = w.add_source("src");
        let a = w.add_service("A", &["in"], &["mid"], svc("A", &["in"], &["mid"]));
        let b = w.add_service("B", &["mid"], &["out"], svc("B", &["mid"], &["out"]));
        let k = w.add_sink("sink");
        w.connect(s, "out", a, "in").unwrap();
        w.connect(a, "mid", b, "mid").unwrap();
        w.connect(b, "out", k, "in").unwrap();
        w
    }

    #[test]
    fn chain_of_two_collapses_to_one_grouped_service() {
        let g = group_workflow(&chain2()).unwrap();
        g.validate().unwrap();
        let services: Vec<&Processor> = g
            .processors
            .iter()
            .filter(|p| p.kind == ProcessorKind::Service)
            .collect();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].name, "A+B");
        match services[0].binding.as_ref().unwrap() {
            ServiceBinding::Grouped(gb) => {
                assert_eq!(gb.stages.len(), 2);
                assert_eq!(gb.stages[0].name, "A");
                assert_eq!(gb.stages[1].name, "B");
                // B's input comes from A's `mid` output.
                assert_eq!(
                    gb.stages[1].inputs[0].1,
                    GroupSource::StageOutput {
                        stage: 0,
                        slot: "mid".into()
                    }
                );
                assert_eq!(gb.exposed_outputs, vec![(1, "out".to_string())]);
            }
            other => panic!("expected grouped binding, got {other:?}"),
        }
    }

    #[test]
    fn chain_of_three_collapses_fully() {
        let mut w = Workflow::new("chain3");
        let s = w.add_source("src");
        let a = w.add_service("A", &["in"], &["x"], svc("A", &["in"], &["x"]));
        let b = w.add_service("B", &["x"], &["y"], svc("B", &["x"], &["y"]));
        let c = w.add_service("C", &["y"], &["z"], svc("C", &["y"], &["z"]));
        let k = w.add_sink("sink");
        w.connect(s, "out", a, "in").unwrap();
        w.connect(a, "x", b, "x").unwrap();
        w.connect(b, "y", c, "y").unwrap();
        w.connect(c, "z", k, "in").unwrap();
        let g = group_workflow(&w).unwrap();
        g.validate().unwrap();
        let services: Vec<&Processor> = g
            .processors
            .iter()
            .filter(|p| p.kind == ProcessorKind::Service)
            .collect();
        assert_eq!(services.len(), 1);
        match services[0].binding.as_ref().unwrap() {
            ServiceBinding::Grouped(gb) => assert_eq!(gb.stages.len(), 3),
            _ => panic!("expected grouped"),
        }
    }

    #[test]
    fn branching_producer_is_not_grouped() {
        // A feeds both B and C → A must stay separate.
        let mut w = Workflow::new("branch");
        let s = w.add_source("src");
        let a = w.add_service("A", &["in"], &["o"], svc("A", &["in"], &["o"]));
        let b = w.add_service("B", &["i"], &["o"], svc("B", &["i"], &["o"]));
        let c = w.add_service("C", &["i"], &["o"], svc("C", &["i"], &["o"]));
        let k = w.add_sink("sink");
        w.connect(s, "out", a, "in").unwrap();
        w.connect(a, "o", b, "i").unwrap();
        w.connect(a, "o", c, "i").unwrap();
        w.connect(b, "o", k, "in").unwrap();
        w.connect(c, "o", k, "in").unwrap();
        let g = group_workflow(&w).unwrap();
        assert_eq!(
            g.processors
                .iter()
                .filter(|p| p.kind == ProcessorKind::Service)
                .count(),
            3,
            "no grouping should occur"
        );
    }

    #[test]
    fn consumer_with_external_inputs_still_groups() {
        // Like crestLines+crestMatch: B also reads the source directly.
        let mut w = Workflow::new("ext");
        let s = w.add_source("src");
        let a = w.add_service("A", &["img"], &["crest"], svc("A", &["img"], &["crest"]));
        let b = w.add_service(
            "B",
            &["crest", "img"],
            &["trf"],
            svc("B", &["crest", "img"], &["trf"]),
        );
        let k = w.add_sink("sink");
        w.connect(s, "out", a, "img").unwrap();
        w.connect(a, "crest", b, "crest").unwrap();
        w.connect(s, "out", b, "img").unwrap();
        w.connect(b, "trf", k, "in").unwrap();
        let g = group_workflow(&w).unwrap();
        g.validate().unwrap();
        let merged = g.find("A+B").expect("A and B merged");
        let mp = g.processor(merged);
        assert_eq!(mp.inputs, vec!["A.img".to_string(), "B.img".to_string()]);
        // The source now feeds both merged ports.
        let feeds: Vec<usize> = g
            .links
            .iter()
            .filter(|l| l.to.proc == merged)
            .map(|l| l.to.port)
            .collect();
        assert_eq!(feeds.len(), 2);
    }

    #[test]
    fn synchronization_processors_are_never_grouped() {
        let mut w = chain2();
        let b = w.find("B").unwrap();
        w.set_synchronization(b, true);
        let g = group_workflow(&w).unwrap();
        assert!(g.find("A+B").is_none());
    }

    #[test]
    fn local_bound_services_are_never_grouped() {
        let mut w = Workflow::new("local");
        let s = w.add_source("src");
        let svc_fn =
            |_: &[crate::token::Token]| -> Result<Vec<(String, crate::value::DataValue)>, String> {
                Ok(vec![])
            };
        let a = w.add_service("A", &["in"], &["o"], ServiceBinding::local(svc_fn));
        let b = w.add_service("B", &["i"], &[], ServiceBinding::local(svc_fn));
        w.connect(s, "out", a, "in").unwrap();
        w.connect(a, "o", b, "i").unwrap();
        let g = group_workflow(&w).unwrap();
        assert!(g.find("A+B").is_none());
    }

    #[test]
    fn cross_product_consumers_are_not_grouped() {
        let mut w = chain2();
        let b = w.find("B").unwrap();
        w.set_iteration(b, IterationStrategy::Cross);
        let g = group_workflow(&w).unwrap();
        assert!(g.find("A+B").is_none());
    }

    #[test]
    fn control_constrained_services_are_not_grouped() {
        let mut w = chain2();
        let a = w.find("A").unwrap();
        let b = w.find("B").unwrap();
        w.add_control(a, b);
        let g = group_workflow(&w).unwrap();
        assert!(g.find("A+B").is_none());
    }

    /// A source feeding `lengths.len()` descriptor chains, each into a
    /// sink of its own; `order` lists the chain of each service in the
    /// order they are added, so the chains interleave as it says.
    fn chains(lengths: &[usize], order: &[usize]) -> Workflow {
        let mut w = Workflow::new("chains");
        let s = w.add_source("src");
        let mut tail: Vec<(ProcId, usize)> = vec![(s, 0); lengths.len()];
        for &c in order {
            let name = format!("c{c}s{}", tail[c].1);
            let v = w.add_service(&name, &["in"], &["out"], svc(&name, &["in"], &["out"]));
            w.connect(tail[c].0, "out", v, "in").unwrap();
            tail[c] = (v, tail[c].1 + 1);
        }
        for (c, &(v, len)) in tail.iter().enumerate() {
            assert_eq!(len, lengths[c]);
            let k = w.add_sink(format!("k{c}"));
            w.connect(v, "out", k, "in").unwrap();
        }
        w
    }

    /// A source into a chain of `n` descriptor services into a sink.
    fn chain(n: usize) -> Workflow {
        chains(&[n], &vec![0; n])
    }

    /// `src → A → B → C → sink` plus `A → C`: A feeds two services,
    /// so only (B, C) is a candidate pair until they merge.
    fn diamond() -> Workflow {
        let mut w = Workflow::new("diamond");
        let s = w.add_source("src");
        let a = w.add_service("A", &["in"], &["o"], svc("A", &["in"], &["o"]));
        let b = w.add_service("B", &["i"], &["o"], svc("B", &["i"], &["o"]));
        let c = w.add_service("C", &["x", "y"], &["o"], svc("C", &["x", "y"], &["o"]));
        let k = w.add_sink("sink");
        w.connect(s, "out", a, "in").unwrap();
        w.connect(a, "o", b, "i").unwrap();
        w.connect(b, "o", c, "x").unwrap();
        w.connect(a, "o", c, "y").unwrap();
        w.connect(c, "o", k, "in").unwrap();
        w
    }

    /// `P1 → Q` and `P2 → Q` on separate ports, both fed by the source.
    fn in_tree() -> Workflow {
        let mut w = Workflow::new("in-tree");
        let s = w.add_source("src");
        let p1 = w.add_service("P1", &["in"], &["o"], svc("P1", &["in"], &["o"]));
        let p2 = w.add_service("P2", &["in"], &["o"], svc("P2", &["in"], &["o"]));
        let q = w.add_service("Q", &["a", "b"], &["o"], svc("Q", &["a", "b"], &["o"]));
        let k = w.add_sink("sink");
        w.connect(s, "out", p1, "in").unwrap();
        w.connect(s, "out", p2, "in").unwrap();
        w.connect(p1, "o", q, "a").unwrap();
        w.connect(p2, "o", q, "b").unwrap();
        w.connect(q, "o", k, "in").unwrap();
        w
    }

    /// A chain of `n` services each reading the previous one's output
    /// and the source, the first with a fixed parameter port and the
    /// last fed from the second source on a third port.
    fn external_inputs(n: usize) -> Workflow {
        let mut w = Workflow::new("external");
        let (s, t) = (w.add_source("src"), w.add_source("other"));
        let mut prev = None;
        for i in 0..n {
            let name = format!("e{i}");
            let ports = ["prev", "img", "extra"];
            let binding = ServiceBinding::descriptor(
                desc(&name, &ports, &["out"]),
                ServiceProfile::new(1.0).with_fixed_param("extra", "2"),
            );
            let v = w.add_service(&name, &ports, &["out"], binding);
            w.connect(prev.unwrap_or(s), "out", v, "prev").unwrap();
            w.connect(s, "out", v, "img").unwrap();
            if i + 1 == n {
                w.connect(t, "out", v, "extra").unwrap();
            }
            prev = Some(v);
        }
        let k = w.add_sink("sink");
        w.connect(prev.unwrap(), "out", k, "in").unwrap();
        w
    }

    /// Bronze-Standard's topology (paper Fig. 9): its ports in
    /// declaration order, `crestLines`' fixed `scale` parameter and the
    /// synchronization barrier.
    fn bronze() -> Workflow {
        let mut w = Workflow::new("bronze-standard");
        let [r, f, m] =
            ["referenceImage", "floatingImage", "methodToTest"].map(|s| w.add_source(s));
        let mut service = |name: &str, ins: &[&str], outs: &[&str]| {
            let mut profile = ServiceProfile::new(10.0);
            if ins.contains(&"scale") {
                profile = profile.with_fixed_param("scale", "2");
            }
            let binding = ServiceBinding::descriptor(desc(name, ins, outs), profile);
            w.add_service(name, ins, outs, binding)
        };
        let images = ["floating_image", "reference_image"];
        let lines = service(
            "crestLines",
            &[images[0], images[1], "scale"],
            &["crest_reference", "crest_floating"],
        );
        let matcher = service(
            "crestMatch",
            &["crest_reference", "crest_floating"],
            &["transfo"],
        );
        let icp = service(
            "PFMatchICP",
            &["init", images[0], images[1]],
            &["raw_transfo"],
        );
        let register = service("PFRegister", &["raw"], &["transfo"]);
        let yasmina = service("Yasmina", &["init", images[0], images[1]], &["transfo"]);
        let baladin = service("Baladin", &["init", images[0], images[1]], &["transfo"]);
        let ins = [
            "method",
            "transfo_cm",
            "transfo_pf",
            "transfo_y",
            "transfo_b",
        ];
        let test = service(
            "MultiTransfoTest",
            &ins,
            &["accuracy_translation", "accuracy_rotation"],
        );
        w.set_synchronization(test, true);
        let sinks = ["accuracy_translation", "accuracy_rotation"].map(|k| w.add_sink(k));
        let links = [
            (r, "out", lines, "reference_image"),
            (f, "out", lines, "floating_image"),
            (lines, "crest_reference", matcher, "crest_reference"),
            (lines, "crest_floating", matcher, "crest_floating"),
            (matcher, "transfo", icp, "init"),
            (matcher, "transfo", yasmina, "init"),
            (matcher, "transfo", baladin, "init"),
            (r, "out", icp, "reference_image"),
            (f, "out", icp, "floating_image"),
            (r, "out", yasmina, "reference_image"),
            (f, "out", yasmina, "floating_image"),
            (r, "out", baladin, "reference_image"),
            (f, "out", baladin, "floating_image"),
            (icp, "raw_transfo", register, "raw"),
            (m, "out", test, "method"),
            (matcher, "transfo", test, "transfo_cm"),
            (register, "transfo", test, "transfo_pf"),
            (yasmina, "transfo", test, "transfo_y"),
            (baladin, "transfo", test, "transfo_b"),
            (test, "accuracy_translation", sinks[0], "in"),
            (test, "accuracy_rotation", sinks[1], "in"),
        ];
        for (from, out, to, port) in links {
            w.connect(from, out, to, port).unwrap();
        }
        w
    }

    /// [`group`] against the rebuild-and-rescan loop it replaced: the
    /// same processors, names, stage order, port names, bindings, links
    /// and control edges, in the same order, and the same index.
    /// Returns whether a pair merged.
    fn matches_oracle(wf: &Workflow, what: &str) -> bool {
        let graph = GraphIndex::of(wf);
        let grouped = group(wf, &graph).unwrap();
        let oracle = crate::grouping_oracle::group(wf, &graph).unwrap();
        assert_eq!(format!("{grouped:?}"), format!("{oracle:?}"), "{what}");
        // A binding's `Debug` names only its stages: compare them whole.
        let bindings = |g: &Option<(Workflow, GraphIndex)>| -> Vec<String> {
            let Some((wf, _)) = g else { return Vec::new() };
            let binding = |p: &Processor| match &p.binding {
                Some(ServiceBinding::Grouped(g)) => format!("{g:?}"),
                Some(ServiceBinding::Descriptor {
                    descriptor,
                    profile,
                }) => {
                    format!("{descriptor:?} {profile:?}")
                }
                other => format!("{other:?}"),
            };
            wf.processors.iter().map(binding).collect()
        };
        assert_eq!(bindings(&grouped), bindings(&oracle), "{what}");
        grouped.is_some()
    }

    #[test]
    fn grouping_in_place_matches_the_rebuilding_oracle() {
        use crate::hostile_structure::{mutate, MUTATIONS};
        let (mut cases, mut merged) = (0, 0);
        let mut check = |wf: &Workflow, what: &str| {
            cases += 1;
            merged += usize::from(matches_oracle(wf, what));
        };
        for case in 0..600 {
            let (wf, _) = crate::random_workflow::random_workflow(case);
            check(&wf, &format!("random {case}"));
            for m in MUTATIONS {
                let mutant = mutate(wf.clone(), case, m);
                if mutant.validate().is_ok() {
                    check(&mutant, &format!("random {case} {m:?}"));
                }
            }
        }
        check(&bronze(), "bronze");
        check(&diamond(), "diamond");
        check(&in_tree(), "in-tree");
        for n in 1..=64 {
            check(&chain(n), &format!("chain {n}"));
            check(&external_inputs(n), &format!("external inputs {n}"));
        }
        // Chain 0 starts first; chain 1 finishes merging first.
        check(&chains(&[4, 2], &[0, 1, 1, 0, 0, 0]), "interleaved");
        check(
            &chains(&[5, 3, 2], &[0, 1, 2, 0, 2, 1, 0, 1, 0, 0]),
            "three interleaved",
        );
        eprintln!("{cases} graphs, {merged} with a merge, equal to the oracle");
        assert!(merged >= 190, "{merged} of {cases} graphs merged a pair");
    }

    /// The diamond `A → B → C, A → C` fuses whole: once B and C merge,
    /// A feeds only `B+C`, a pair M030 could not name.
    #[test]
    fn merging_runs_to_a_fixpoint_that_closes_diamonds() {
        let w = diamond();
        let report = crate::lint::lint_workflow(&w);
        let m030: Vec<&str> = (report.diagnostics.iter())
            .filter(|d| d.code == "M030")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(m030.len(), 1, "{m030:?}");
        assert!(m030[0].starts_with("`B` and `C` form"), "{}", m030[0]);
        let g = group_workflow(&w).unwrap();
        g.validate().unwrap();
        let names: Vec<&str> = g.processors.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["src", "sink", "A+B+C"]);
        let merged = g.processor(g.find("A+B+C").unwrap());
        let Some(ServiceBinding::Grouped(gb)) = &merged.binding else {
            panic!("expected grouped");
        };
        let stages: Vec<&str> = gb.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages, ["A", "B", "C"]);
        assert_eq!(merged.inputs, ["A.in"]);
    }

    /// Stage order follows merge order: P1 merges into Q first, then P2
    /// into `P1+Q`, so P2's stage comes first.
    #[test]
    fn an_in_tree_stages_its_producers_in_merge_order() {
        let g = group_workflow(&in_tree()).unwrap();
        g.validate().unwrap();
        let names: Vec<&str> = g.processors.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["src", "sink", "P2+P1+Q"]);
        let merged = g.processor(g.find("P2+P1+Q").unwrap());
        let Some(ServiceBinding::Grouped(gb)) = &merged.binding else {
            panic!("expected grouped");
        };
        let stages: Vec<&str> = gb.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages, ["P2", "P1", "Q"]);
    }

    /// Graph indices one compile builds.
    fn index_builds(wf: &Workflow, config: crate::EnactorConfig) -> usize {
        let count = || crate::graph::INDEX_BUILDS.with(std::cell::Cell::get);
        let before = count();
        crate::enactor::CompiledWorkflow::compile(wf, &config).unwrap();
        count() - before
    }

    /// One structure pass per graph: the preflight's analysis serves
    /// grouping and, when nothing merges, the enacted graph; a graph
    /// grouping rebuilt gets one pass of its own.
    #[test]
    fn a_compile_analyses_each_graph_once() {
        use crate::EnactorConfig;
        let two = chain2();
        assert_eq!(index_builds(&two, EnactorConfig::sp_dp()), 1);
        assert_eq!(index_builds(&two, EnactorConfig::sp_dp_jg()), 2);
        let no_preflight = EnactorConfig::sp_dp_jg().without_preflight();
        assert_eq!(index_builds(&two, no_preflight), 2);
        let mut crossed = chain2();
        crossed.set_iteration(crossed.find("B").unwrap(), IterationStrategy::Cross);
        assert_eq!(index_builds(&crossed, EnactorConfig::sp_dp_jg()), 1);
        assert_eq!(index_builds(&crossed, no_preflight), 1);
        // Four merges, one index for the grouped graph.
        let five = chain(5);
        assert_eq!(index_builds(&five, EnactorConfig::sp_dp_jg()), 2);
        assert_eq!(index_builds(&five, no_preflight), 2);
    }

    #[test]
    fn grouped_workflow_passes_validation_and_preserves_sinks() {
        let g = group_workflow(&chain2()).unwrap();
        g.validate().unwrap();
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.sources().len(), 1);
    }
}
