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

pub mod cardinality;
pub mod coordination;
pub mod descriptors;
pub mod docs;
pub mod graph;
pub mod grouping;
pub mod plan_rules;
pub mod ports;

use crate::graph::Workflow;
use crate::lint::diag::LintReport;
use crate::plan::facts::StaticFacts;
use crate::plan::PlanOptions;

/// Run every registered rule over `workflow` and return the sorted
/// report. This is the graph-stage half of `moteur lint`; parse-stage
/// diagnostics (M06x) come from the Scufl lenient parser.
pub fn lint_workflow(workflow: &Workflow) -> LintReport {
    let mut report = LintReport::default();
    // Every later rule indexes processors by link endpoint, so a link to
    // a processor that does not exist ends the stage at its M001.
    if graph::links_reach_processors(workflow, &mut report) {
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
    }
    report.sort();
    report
}

/// Error-severity subset used as the enactor's pre-flight: structural
/// conditions under which enactment would panic, deadlock or silently
/// drop data. Warnings and notes are not evaluated here.
pub fn lint_errors(workflow: &Workflow) -> LintReport {
    let mut full = lint_workflow(workflow);
    full.diagnostics
        .retain(|d| d.severity == crate::lint::diag::Severity::Error);
    full
}
