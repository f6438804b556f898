//! Compilation: everything an enactment derives from the workflow and
//! three configuration bits alone, done once and shared by every
//! instance started from it — building a workflow leaves a service
//! that is then run many times.

use super::ports::Routes;
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::graph::{GraphIndex, Processor, Workflow};
use crate::lint::rules::lint_with_facts;
use crate::lint::Severity;
use crate::service::{GroupSource, ServiceBinding, ServiceProfile};
use crate::store::{descriptor_digest, group_digest};
use moteur_wrapper::{ExecutableDescriptor, Feed, JobTemplate, StageSpec};
use std::sync::Arc;

/// The configuration bits compilation reads: `preflight` decides
/// whether the lint runs, `job_grouping` which graph is enacted and
/// `service_parallelism` which edges are bounded. Two configurations
/// with equal bits share a [`CompiledWorkflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompileBits(u8);

impl CompileBits {
    pub(crate) fn of(config: &EnactorConfig) -> Self {
        CompileBits(
            u8::from(config.preflight)
                | u8::from(config.job_grouping) << 1
                | u8::from(config.service_parallelism) << 2,
        )
    }

    pub(crate) fn as_u8(self) -> u8 {
        self.0
    }
}

/// A workflow that passed the structural gate (and, unless opted out,
/// the preflight lint), grouped, with the structure every firing reads
/// precomputed. Immutable and shared: a [`super::WorkflowInstance`]
/// holds it by reference count.
pub(crate) struct CompiledWorkflow {
    /// The enacted (post-grouping) graph.
    pub(super) workflow: Workflow,
    /// Per-processor name, interned once: every backend job and history
    /// node of every instance holds it by reference count.
    pub(super) names: Vec<Arc<str>>,
    /// The enacted graph's adjacency, components and cycle membership.
    pub(super) graph: GraphIndex,
    pub(super) routes: Routes,
    /// Per-processor service digest: `Some` for deterministic
    /// descriptor- or group-bound processors, `None` for everything
    /// uncacheable (local bindings, sources, sinks, non-deterministic
    /// descriptors). Read only while a store is attached.
    pub(super) digests: Vec<Option<u64>>,
    /// Per-processor job-plan template: `Some` for descriptor-bound and
    /// grouped processors. A firing checks its tokens against it, and
    /// its grid job carries it to render the plan from.
    pub(super) templates: Vec<Option<Arc<JobTemplate>>>,
    /// Per synchronization processor, everything upstream of it over
    /// data links (empty for every other processor): while one of them
    /// has an invocation in flight the barrier cannot be released.
    pub(super) barrier_ancestors: Vec<Vec<usize>>,
    bits: CompileBits,
}

impl CompiledWorkflow {
    /// The structural gate (inside the preflight lint, or alone),
    /// the graph's one analysis, the barrier-on-cycle refusal, job
    /// grouping, link compilation, interned names, service digests and
    /// job templates — in the order a rejection is reported (a template
    /// holds its faults until its first firing).
    pub(crate) fn compile(
        workflow: &Workflow,
        config: &EnactorConfig,
    ) -> Result<Arc<Self>, MoteurError> {
        let graph = if config.preflight {
            // Error-severity lint findings are exactly the structural
            // conditions under which enactment would panic, deadlock or
            // silently drop data — refuse them up front with a typed
            // error instead. Run on the pre-grouping workflow so
            // findings carry the source spans of the workflow the user
            // wrote.
            let (findings, facts) = lint_with_facts(workflow);
            match facts {
                Some(facts) if !findings.has_errors() => facts.graph,
                _ => {
                    let summary = findings
                        .at_least(Severity::Error)
                        .map(|d| format!("[{}] {}", d.code, d.message))
                        .collect::<Vec<_>>()
                        .join("; ");
                    return Err(MoteurError::lint(findings.errors(), summary));
                }
            }
        } else {
            crate::lint::rules::validate(workflow)?
        };
        // A barrier releases once, taking its buffers (paper §2.3): a
        // token looping back to it would have nowhere to go.
        let mut on_cycle = workflow.processors.iter().zip(&graph.in_cycle);
        if let Some((p, _)) = on_cycle.find(|(p, &c)| c && p.synchronization) {
            return Err(MoteurError::new(format!(
                "synchronization processor `{}` sits on a data cycle",
                p.name
            )));
        }
        // Grouping builds a new graph, with its own index, only when it
        // merges a pair.
        let grouped = match config.job_grouping {
            true => crate::grouping::group(workflow, &graph)?,
            false => None,
        };
        let (workflow, graph) = grouped.unwrap_or_else(|| (workflow.clone(), graph));
        let routes = Routes::compile(&workflow, config, &graph);
        let names = workflow
            .processors
            .iter()
            .map(|p| Arc::from(p.name.as_str()))
            .collect();
        let digests = workflow
            .processors
            .iter()
            .map(|p| match &p.binding {
                Some(ServiceBinding::Descriptor {
                    descriptor,
                    profile,
                }) if !descriptor.nondeterministic => Some(descriptor_digest(descriptor, profile)),
                Some(ServiceBinding::Grouped(g))
                    if g.stages.iter().all(|s| !s.descriptor.nondeterministic) =>
                {
                    Some(group_digest(g))
                }
                _ => None,
            })
            .collect();
        let templates = workflow
            .processors
            .iter()
            .map(|p| job_template(&workflow.name, p).map(Arc::new))
            .collect();
        let barrier_ancestors = workflow
            .processors
            .iter()
            .enumerate()
            .map(|(p, proc)| match proc.synchronization {
                true => {
                    let above = graph.closure(std::iter::once(p), false);
                    (0..above.len()).filter(|&q| above[q] && q != p).collect()
                }
                false => Vec::new(),
            })
            .collect();
        Ok(Arc::new(CompiledWorkflow {
            workflow,
            names,
            graph,
            routes,
            digests,
            templates,
            barrier_ancestors,
            bits: CompileBits::of(config),
        }))
    }

    /// The bits this workflow was compiled under.
    pub(crate) fn bits(&self) -> CompileBits {
        self.bits
    }
}

/// The job-plan template of `p` when it runs on the grid: a descriptor
/// bound to its input ports, then its fixed parameters, delivering every
/// output under the slot's name; or a grouped binding's stages,
/// delivering its exposed outputs on its output ports.
fn job_template(workflow: &str, p: &Processor) -> Option<JobTemplate> {
    match p.binding.as_ref()? {
        ServiceBinding::Local(_) => None,
        ServiceBinding::Descriptor {
            descriptor,
            profile,
        } => {
            let ports = p.inputs.iter().enumerate();
            let feeds = ports.map(|(i, port)| (port.as_str(), Feed::Port(i)));
            let spec = stage_spec(None, descriptor, profile, feeds.collect());
            let exposed: Vec<_> = descriptor
                .outputs
                .iter()
                .map(|o| (o.name.as_str(), 0, o.name.as_str()))
                .collect();
            Some(JobTemplate::compile(workflow, &p.name, &[spec], &exposed))
        }
        ServiceBinding::Grouped(group) => {
            let stages: Vec<_> = group
                .stages
                .iter()
                .map(|s| {
                    let feeds = s.inputs.iter().map(|(slot, source)| {
                        let feed = match source {
                            GroupSource::ExternalPort(i) => Feed::Port(*i),
                            GroupSource::StageOutput { stage, slot } => Feed::Stage {
                                stage: *stage,
                                slot,
                            },
                        };
                        (slot.as_str(), feed)
                    });
                    stage_spec(Some(&s.name), &s.descriptor, &s.profile, feeds.collect())
                })
                .collect();
            let exposed: Vec<_> = p
                .outputs
                .iter()
                .zip(&group.exposed_outputs)
                .map(|(port, (stage, slot))| (port.as_str(), *stage, slot.as_str()))
                .collect();
            Some(JobTemplate::compile(workflow, &p.name, &stages, &exposed))
        }
    }
}

/// A stage fed by `feeds`, then by its fixed parameters.
fn stage_spec<'a>(
    group_member: Option<&'a str>,
    descriptor: &'a ExecutableDescriptor,
    profile: &'a ServiceProfile,
    mut feeds: Vec<(&'a str, Feed<'a>)>,
) -> StageSpec<'a> {
    let params = profile.fixed_params.iter();
    feeds.extend(params.map(|(slot, value)| (slot.as_str(), Feed::Param(value))));
    StageSpec {
        group_member,
        descriptor,
        feeds,
        output_bytes: descriptor
            .outputs
            .iter()
            .map(|o| profile.output_size(&o.name))
            .collect(),
    }
}
