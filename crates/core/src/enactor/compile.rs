//! Compilation: everything an enactment derives from the workflow and
//! three configuration bits alone, done once and shared by every
//! instance started from it — building a workflow leaves a service
//! that is then run many times.

use super::ports::Routes;
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::graph::{ProcId, Workflow};
use crate::service::ServiceBinding;
use crate::store::{descriptor_digest, group_digest};
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

/// A workflow that passed the preflight lint, grouped and validated,
/// with the structure every firing reads precomputed. Immutable and
/// shared: a [`super::WorkflowInstance`] holds it by reference count.
pub(crate) struct CompiledWorkflow {
    /// The enacted (post-grouping) graph.
    pub(super) workflow: Workflow,
    /// SCC id per processor and whether that SCC is a real cycle.
    pub(super) scc_ids: Vec<usize>,
    pub(super) in_cycle: Vec<bool>,
    pub(super) routes: Routes,
    /// Per-processor service digest: `Some` for deterministic
    /// descriptor- or group-bound processors, `None` for everything
    /// uncacheable (local bindings, sources, sinks, non-deterministic
    /// descriptors). Read only while a store is attached.
    pub(super) digests: Vec<Option<u64>>,
    /// Per synchronization processor, everything upstream of it over
    /// data links (empty for every other processor): while one of them
    /// has an invocation in flight the barrier cannot be released.
    pub(super) barrier_ancestors: Vec<Vec<usize>>,
    bits: CompileBits,
}

impl CompiledWorkflow {
    /// Preflight lint, job grouping, graph validation, link compilation
    /// and service digests — in the order a rejection is reported.
    pub(crate) fn compile(
        workflow: &Workflow,
        config: &EnactorConfig,
    ) -> Result<Arc<Self>, MoteurError> {
        if config.preflight {
            // Error-severity lint findings are exactly the structural
            // conditions under which enactment would panic, deadlock or
            // silently drop data — refuse them up front with a typed
            // error instead. Run on the pre-grouping workflow so
            // findings carry the source spans of the workflow the user
            // wrote.
            let findings = crate::lint::lint_errors(workflow);
            if !findings.is_empty() {
                let summary = findings
                    .diagnostics
                    .iter()
                    .map(|d| format!("[{}] {}", d.code, d.message))
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(MoteurError::lint(findings.errors(), summary));
            }
        }
        let workflow = if config.job_grouping {
            crate::grouping::group_workflow(workflow)?
        } else {
            workflow.clone()
        };
        workflow.validate()?;
        let scc_ids = workflow.scc_ids();
        let in_cycle = workflow.cycle_members();
        let routes = Routes::compile(&workflow, config, &scc_ids, &in_cycle);
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
        let barrier_ancestors = workflow
            .processors
            .iter()
            .enumerate()
            .map(|(p, proc)| match proc.synchronization {
                true => ancestors(&workflow, p),
                false => Vec::new(),
            })
            .collect();
        Ok(Arc::new(CompiledWorkflow {
            workflow,
            scc_ids,
            in_cycle,
            routes,
            digests,
            barrier_ancestors,
            bits: CompileBits::of(config),
        }))
    }

    /// The bits this workflow was compiled under.
    pub(crate) fn bits(&self) -> CompileBits {
        self.bits
    }
}

/// The processors with a data path into `p`, nearest first.
fn ancestors(workflow: &Workflow, p: usize) -> Vec<usize> {
    let mut seen = vec![false; workflow.processors.len()];
    seen[p] = true;
    let mut found = Vec::new();
    let mut next = vec![p];
    while let Some(q) = next.pop() {
        for link in workflow.in_links(ProcId(q)) {
            let from = link.from.proc.0;
            if !std::mem::replace(&mut seen[from], true) {
                found.push(from);
                next.push(from);
            }
        }
    }
    found
}
