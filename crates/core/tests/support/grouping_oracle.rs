//! The job-grouping loop the in-place merge replaced, kept verbatim as
//! an oracle: find the first groupable pair by a scan from processor 0,
//! rebuild the whole workflow with the pair merged, index it anew, and
//! start over. The crate's unit tests require `grouping::group` to give
//! a `Debug`-identical graph on the random and hostile workflows,
//! Bronze and hand-built shapes.
//!
//! Included only by the crate root, which must have `MoteurError`,
//! `ProcId`, `ProcessorKind` and `Workflow` in scope; the rest is named
//! by its path in the crate.

use super::{MoteurError, ProcId, ProcessorKind, Workflow};
use crate::graph::{GraphIndex, IterationStrategy, Processor};
use crate::grouping::{blocking, sole_service_consumer};
use crate::service::{GroupSource, GroupedBinding, GroupedStage, ServiceBinding};

/// [`group_workflow`](crate::group_workflow) given `workflow`'s index:
/// the grouped graph and its own index, or `None` when no pair merges.
pub fn group(
    workflow: &Workflow,
    graph: &GraphIndex,
) -> Result<Option<(Workflow, GraphIndex)>, MoteurError> {
    let mut grouped: Option<(Workflow, GraphIndex)> = None;
    loop {
        let (wf, graph) = grouped.as_ref().map_or((workflow, graph), |(w, g)| (w, g));
        let Some((p, q)) = find_groupable_pair(wf, graph) else {
            return Ok(grouped);
        };
        let merged = merge_pair(wf, graph, p, q)?;
        let index = GraphIndex::of(&merged);
        grouped = Some((merged, index));
    }
}

fn find_groupable_pair(wf: &Workflow, graph: &GraphIndex) -> Option<(ProcId, ProcId)> {
    (0..wf.processors.len()).map(ProcId).find_map(|p| {
        let q = sole_service_consumer(wf, graph, p)?;
        blocking(wf, graph, p, q).is_none().then_some((p, q))
    })
}

fn merge_pair(
    wf: &Workflow,
    graph: &GraphIndex,
    p_id: ProcId,
    q_id: ProcId,
) -> Result<Workflow, MoteurError> {
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
        let feeder = graph
            .in_links(q_id.0)
            .map(|l| &wf.links[l])
            .find(|l| l.to.port == port && l.from.proc == p_id);
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

/// View any groupable binding as a [`GroupedBinding`].
fn as_group(p: &Processor) -> Result<GroupedBinding, MoteurError> {
    match &p.binding {
        Some(ServiceBinding::Grouped(g)) => Ok(g.clone()),
        Some(ServiceBinding::Descriptor {
            descriptor,
            profile,
        }) => {
            let fixed: std::collections::BTreeSet<&str> = profile
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

/// Merged input-port name. Single-stage descriptor processors keep the
/// raw slot names prefixed by their own name so the ports stay unique
/// across repeated merges.
fn prefixed(proc_name: &str, port: &str, binding: Option<&ServiceBinding>) -> String {
    match binding {
        Some(ServiceBinding::Grouped(_)) => port.to_string(), // already prefixed
        _ => format!("{proc_name}.{port}"),
    }
}
