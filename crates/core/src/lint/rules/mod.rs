//! The static rule registry.
//!
//! Each submodule contributes one family of checks over the parsed
//! [`Workflow`] (plus its `SourceSpans` side table) and the one
//! `StaticFacts` analysis [`lint_workflow`] computes for all of them:
//!
//! | module         | codes       | concern                               |
//! |----------------|-------------|---------------------------------------|
//! | [`graph`]      | M001–M008   | graph structure & reachability        |
//! | [`ports`]      | M010–M014   | port wiring and slot declarations     |
//! | [`cardinality`]| M020–M021   | iteration-strategy cardinality        |
//! | [`grouping`]   | M030–M031   | §3.6 job-grouping legality            |
//! | [`coordination`]| M040–M042  | barriers & coordination constraints   |
//! | [`descriptors`]| M050–M051, M070 | descriptor/catalog cross-validation |
//! | [`plan_rules`] | M080–M085   | interval cardinality & transfer model |
//!
//! Codes M060–M065 are reserved for the Scufl parse stage (emitted by
//! `moteur-scufl`'s lenient parser, before a graph exists). M070 warns
//! on non-deterministic services the data manager cannot memoize.
//! M086–M089 are reserved for future planner-backed rules.
//!
//! M001, M007, M008 and M010 are the structural gate: they run first,
//! read no analysis, and are all that [`Workflow::validate`] checks, so
//! a workflow the enactor compiles without the preflight lint has still
//! passed the same rules.

pub mod cardinality;
pub mod coordination;
pub mod descriptors;
pub mod docs;
pub mod graph;
pub mod grouping;
pub mod plan_rules;
pub mod ports;

use crate::error::MoteurError;
use crate::graph::Workflow;
use crate::lint::diag::LintReport;
use crate::plan::facts::StaticFacts;
use crate::plan::PlanOptions;

/// Run every registered rule over `workflow` and return the sorted
/// report. This is the graph-stage half of `moteur lint`; parse-stage
/// diagnostics (M06x) come from the Scufl lenient parser.
pub fn lint_workflow(workflow: &Workflow) -> LintReport {
    lint_with_facts(workflow).0
}

/// [`lint_workflow`], also handing back the analysis the rules read:
/// `None` when a dangling reference ended the stage at the gate. The
/// enactor's preflight keeps it, so a workflow is analysed once.
pub(crate) fn lint_with_facts(workflow: &Workflow) -> (LintReport, Option<StaticFacts>) {
    let mut report = LintReport::default();
    let facts = gate(workflow, &mut report).then(|| {
        // The lint sizing convention, shared with the M080–M085 cap and
        // item size.
        let opts = PlanOptions::default();
        let facts = StaticFacts::of(workflow, &opts.sizes);
        graph::check(workflow, &facts, &mut report);
        ports::check(workflow, &facts, &mut report);
        cardinality::check(workflow, &facts, &mut report);
        grouping::check(workflow, &facts, &mut report);
        coordination::check(workflow, &facts, &mut report);
        descriptors::check(workflow, &mut report);
        plan_rules::check(workflow, &facts, &opts, &mut report);
        facts
    });
    report.sort();
    (report, facts)
}

/// The structural rules, run before any analysis: M001 (dangling links
/// and coordination constraints), M007 (duplicate names), M008
/// (bindings) and M010 (unconnected inputs). Returns whether every edge
/// names existing processors: every later rule indexes processors by
/// edge end, so when one does not, M001 ends the stage.
fn gate(workflow: &Workflow, report: &mut LintReport) -> bool {
    if !graph::references_resolve(workflow, report) {
        return false;
    }
    graph::duplicate_names(workflow, report);
    graph::missing_bindings(workflow, report);
    ports::unconnected_inputs(workflow, report);
    true
}

/// [`Workflow::validate`]: the gate's first finding as the error.
pub(crate) fn validate(workflow: &Workflow) -> Result<(), MoteurError> {
    let mut report = LintReport::default();
    gate(workflow, &mut report);
    let first = report.diagnostics.into_iter().next();
    first.map_or(Ok(()), |d| Err(MoteurError::new(d.message)))
}
