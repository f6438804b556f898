//! The job-grouping graph transform (paper §3.6).
//!
//! Finds sequential chains of descriptor-bound services — P whose every
//! output link targets a single successor Q — and merges them into a
//! *virtual grouped service* submitted as one grid job. On the paper's
//! application (Fig. 9) this merges `crestLines`+`crestMatch` and
//! `PFMatchICP`+`PFRegister`, cutting 6 job submissions per image pair
//! down to 4.
//!
//! A pair (P, Q) is groupable when:
//!
//! - both are plain services bound to descriptors (or already-grouped
//!   services, so chains of any length collapse),
//! - neither is a synchronization processor or involved in a cycle or
//!   a coordination constraint,
//! - every data link out of P ends at Q (so no third party needs P's
//!   outputs), and each of Q's input ports is fed either only by P or
//!   only by non-P processors,
//! - both use the dot-product iteration strategy (grouping must not
//!   change invocation cardinality).

use crate::error::MoteurError;
use crate::graph::{IterationStrategy, ProcId, Processor, ProcessorKind, Workflow};
use crate::service::{GroupSource, GroupedBinding, GroupedStage, ServiceBinding};

/// Apply grouping repeatedly until no pair can be merged.
pub fn group_workflow(workflow: &Workflow) -> Result<Workflow, MoteurError> {
    let grouped = group(workflow, &mut workflow.cycle_members())?;
    Ok(grouped.unwrap_or_else(|| workflow.clone()))
}

/// [`group_workflow`] given which processors of `workflow` sit on a
/// data-link cycle; `None` when no pair merges. A merge keeps the other
/// processors in order and appends the merged node, which sits on no
/// cycle (neither half did, and every link out of P ends at Q), so
/// `in_cycle` is carried across merges rather than recomputed: on
/// return it describes the grouped graph.
pub(crate) fn group(
    workflow: &Workflow,
    in_cycle: &mut Vec<bool>,
) -> Result<Option<Workflow>, MoteurError> {
    let mut grouped: Option<Workflow> = None;
    loop {
        let wf = grouped.as_ref().unwrap_or(workflow);
        let Some((p, q)) = find_groupable_pair(wf, in_cycle) else {
            return Ok(grouped);
        };
        let merged = merge_pair(wf, p, q)?;
        for id in [p.0.max(q.0), p.0.min(q.0)] {
            in_cycle.remove(id);
        }
        in_cycle.push(false);
        grouped = Some(merged);
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
pub(crate) fn sole_service_consumer(wf: &Workflow, p: ProcId) -> Option<ProcId> {
    if wf.processor(p).kind != ProcessorKind::Service {
        return None;
    }
    let succs = wf.data_succs(p);
    let [q] = succs[..] else { return None };
    (q != p && wf.processor(q).kind == ProcessorKind::Service).then_some(q)
}

/// The first §3.6 condition that makes the candidate pair (P, Q)
/// ungroupable, checking each of P and Q for sync, cycle, iteration,
/// binding and control in turn, then Q's ports; `None` when the pair
/// groups. The transform and M030/M031 both decide here.
pub(crate) fn blocking<'a>(
    wf: &'a Workflow,
    p: ProcId,
    q: ProcId,
    in_cycle: &[bool],
) -> Option<Blocker<'a>> {
    for id in [p, q] {
        let proc = wf.processor(id);
        let name = proc.name.as_str();
        if proc.synchronization {
            return Some(Blocker::Sync(name));
        }
        if in_cycle[id.0] {
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
    // which tuple element feeds which slot.
    let q_proc = wf.processor(q);
    for (port, name) in q_proc.inputs.iter().enumerate() {
        let (mut from_p, mut fed) = (0, 0);
        for l in wf
            .links
            .iter()
            .filter(|l| l.to.proc == q && l.to.port == port)
        {
            fed += 1;
            from_p += usize::from(l.from.proc == p);
        }
        if from_p > 0 && (from_p != fed || from_p > 1) {
            return Some(Blocker::MixedPort {
                port: name,
                p: &wf.processor(p).name,
                q: &q_proc.name,
            });
        }
    }
    None
}

fn find_groupable_pair(wf: &Workflow, in_cycle: &[bool]) -> Option<(ProcId, ProcId)> {
    (0..wf.processors.len()).map(ProcId).find_map(|p| {
        let q = sole_service_consumer(wf, p)?;
        blocking(wf, p, q, in_cycle).is_none().then_some((p, q))
    })
}

/// View any groupable binding as a [`GroupedBinding`].
fn as_group(p: &Processor) -> Result<GroupedBinding, MoteurError> {
    match &p.binding {
        Some(ServiceBinding::Grouped(g)) => Ok(g.clone()),
        Some(ServiceBinding::Descriptor {
            descriptor,
            profile,
        }) => {
            let fixed: std::collections::HashSet<&str> = profile
                .fixed_params
                .iter()
                .map(|(s, _)| s.as_str())
                .collect();
            let inputs = p
                .inputs
                .iter()
                .enumerate()
                .filter(|(_, port)| !fixed.contains(port.as_str()))
                .map(|(i, port)| (port.clone(), GroupSource::ExternalPort(i)))
                .collect();
            Ok(GroupedBinding {
                stages: vec![GroupedStage {
                    name: p.name.clone(),
                    descriptor: descriptor.clone(),
                    profile: profile.clone(),
                    inputs,
                }],
                exposed_outputs: p.outputs.iter().map(|o| (0, o.clone())).collect(),
            })
        }
        _ => Err(MoteurError::new(format!("`{}` is not groupable", p.name))),
    }
}

fn merge_pair(wf: &Workflow, p_id: ProcId, q_id: ProcId) -> Result<Workflow, MoteurError> {
    let p = wf.processor(p_id);
    let q = wf.processor(q_id);
    let pg = as_group(p)?;
    let qg = as_group(q)?;
    let p_stage_count = pg.stages.len();

    // Classify Q's input ports: fed by P (→ which P output port) or
    // external (→ new merged port index).
    #[derive(Clone, Copy)]
    enum QPort {
        FromP { p_out_port: usize },
        External { merged_port: usize },
    }
    let mut q_port_kind = Vec::with_capacity(q.inputs.len());
    let mut merged_inputs: Vec<String> = p
        .inputs
        .iter()
        .map(|port| prefixed(&p.name, port, p.binding.as_ref()))
        .collect();
    for (port, port_name) in q.inputs.iter().enumerate() {
        let feeder = wf
            .links
            .iter()
            .find(|l| l.to.proc == q_id && l.to.port == port && l.from.proc == p_id);
        match feeder {
            Some(l) => q_port_kind.push(QPort::FromP {
                p_out_port: l.from.port,
            }),
            None => {
                q_port_kind.push(QPort::External {
                    merged_port: merged_inputs.len(),
                });
                merged_inputs.push(format!("{}.{}", q.name, port_name));
            }
        }
    }

    // Remap Q's stage input sources into the merged group.
    let remap = |src: &GroupSource| -> GroupSource {
        match src {
            GroupSource::StageOutput { stage, slot } => GroupSource::StageOutput {
                stage: stage + p_stage_count,
                slot: slot.clone(),
            },
            GroupSource::ExternalPort(qi) => match q_port_kind[*qi] {
                QPort::FromP { p_out_port } => {
                    let (stage, slot) = pg.exposed_outputs[p_out_port].clone();
                    GroupSource::StageOutput { stage, slot }
                }
                QPort::External { merged_port } => GroupSource::ExternalPort(merged_port),
            },
        }
    };
    let mut stages = pg.stages.clone();
    for stage in &qg.stages {
        stages.push(GroupedStage {
            name: stage.name.clone(),
            descriptor: stage.descriptor.clone(),
            profile: stage.profile.clone(),
            inputs: stage
                .inputs
                .iter()
                .map(|(s, src)| (s.clone(), remap(src)))
                .collect(),
        });
    }
    let exposed_outputs = qg
        .exposed_outputs
        .iter()
        .map(|(stage, slot)| (stage + p_stage_count, slot.clone()))
        .collect();

    let merged = Processor {
        name: format!("{}+{}", p.name, q.name),
        kind: ProcessorKind::Service,
        inputs: merged_inputs,
        outputs: q.outputs.clone(),
        iteration: IterationStrategy::Dot,
        synchronization: false,
        binding: Some(ServiceBinding::Grouped(GroupedBinding {
            stages,
            exposed_outputs,
        })),
        item_bytes: None,
    };

    // Rebuild the workflow with P and Q replaced by the merged node.
    let mut out = Workflow::new(wf.name.clone());
    let mut id_map: Vec<Option<ProcId>> = vec![None; wf.processors.len()];
    for (i, proc) in wf.processors.iter().enumerate() {
        if ProcId(i) == p_id || ProcId(i) == q_id {
            continue;
        }
        id_map[i] = Some(out.push(proc.clone()));
    }
    let merged_id = out.push(merged);
    id_map[p_id.0] = Some(merged_id);
    id_map[q_id.0] = Some(merged_id);

    for l in &wf.links {
        // Internal P→Q links disappear.
        if l.from.proc == p_id && l.to.proc == q_id {
            continue;
        }
        let (from_proc, from_port) = if l.from.proc == q_id {
            (merged_id, l.from.port) // Q's outputs keep their positions
        } else {
            (id_map[l.from.proc.0].expect("mapped"), l.from.port)
        };
        let (to_proc, to_port) = if l.to.proc == p_id {
            (merged_id, l.to.port) // P's inputs keep their positions
        } else if l.to.proc == q_id {
            let QPort::External { merged_port } = q_port_kind[l.to.port] else {
                unreachable!("non-P links to a P-fed port were excluded by the pair check")
            };
            (merged_id, merged_port)
        } else {
            (id_map[l.to.proc.0].expect("mapped"), l.to.port)
        };
        out.links.push(crate::graph::Link {
            from: crate::graph::PortRef {
                proc: from_proc,
                port: from_port,
            },
            to: crate::graph::PortRef {
                proc: to_proc,
                port: to_port,
            },
        });
    }
    for (a, b) in &wf.control {
        out.control.push((
            id_map[a.0].expect("control procs are never grouped"),
            id_map[b.0].expect("control procs are never grouped"),
        ));
    }
    Ok(out)
}

/// Merged input-port name. Single-stage descriptor processors keep the
/// raw slot names prefixed by their own name so the ports stay unique
/// across repeated merges.
fn prefixed(proc_name: &str, port: &str, binding: Option<&ServiceBinding>) -> String {
    match binding {
        Some(ServiceBinding::Grouped(_)) => port.to_string(), // already prefixed
        _ => format!("{proc_name}.{port}"),
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

    /// Property: the cycle membership [`group`] carries across merges is
    /// the grouped graph's own.
    #[test]
    fn carried_cycle_membership_is_the_grouped_graphs() {
        let mut merged = 0;
        for case in 0..600 {
            let (wf, _) = crate::random_workflow::random_workflow(case);
            let mut in_cycle = wf.cycle_members();
            if let Some(grouped) = group(&wf, &mut in_cycle).unwrap() {
                assert_eq!(in_cycle, grouped.cycle_members(), "case {case}");
                merged += 1;
            }
        }
        assert!(merged > 20, "{merged} cases merged");
    }

    /// Tarjan passes one compile makes.
    fn tarjan_passes(wf: &Workflow, config: crate::EnactorConfig) -> usize {
        let count = || crate::graph::TARJAN_PASSES.with(std::cell::Cell::get);
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
        let chain = chain2();
        assert_eq!(tarjan_passes(&chain, EnactorConfig::sp_dp()), 1);
        assert_eq!(tarjan_passes(&chain, EnactorConfig::sp_dp_jg()), 2);
        let no_preflight = EnactorConfig::sp_dp_jg().without_preflight();
        assert_eq!(tarjan_passes(&chain, no_preflight), 2);
        let mut crossed = chain2();
        crossed.set_iteration(crossed.find("B").unwrap(), IterationStrategy::Cross);
        assert_eq!(tarjan_passes(&crossed, EnactorConfig::sp_dp_jg()), 1);
        assert_eq!(tarjan_passes(&crossed, no_preflight), 1);
    }

    #[test]
    fn grouped_workflow_passes_validation_and_preserves_sinks() {
        let g = group_workflow(&chain2()).unwrap();
        g.validate().unwrap();
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.sources().len(), 1);
    }
}
