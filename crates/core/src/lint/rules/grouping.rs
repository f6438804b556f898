//! Job-grouping legality rules (M030–M031, paper §3.6).
//!
//! Decides with [`crate::group_workflow`]'s own test
//! (`grouping::blocking`), but instead of merging it *explains*: M030 points out
//! sequential pairs the `jg` optimisation would fuse (saving one grid
//! submission per invocation), M031 points out pairs that look
//! sequential yet cannot legally be fused, with the §3.6 condition that
//! blocks them.

use crate::graph::{ProcId, Workflow};
use crate::grouping::{blocking, sole_service_consumer, Blocker};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::StaticFacts;
use std::fmt;

/// Run the §3.6 job-grouping rules (M030–M031).
pub(crate) fn check(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    for p_id in (0..wf.processors.len()).map(ProcId) {
        // Only pairs where *every* output of P flows to one service Q
        // are even candidates; branching producers are ordinary
        // workflow structure, not a missed optimisation.
        let Some(q_id) = sole_service_consumer(wf, &facts.graph, p_id) else {
            continue;
        };
        let (p, q) = (&wf.processor(p_id).name, &wf.processor(q_id).name);
        let d = match blocking(wf, &facts.graph, p_id, q_id) {
            None => Diagnostic::note(
                "M030",
                format!(
                    "`{p}` and `{q}` form a sequential chain: job grouping (§3.6) \
                     would run them as one grid job"
                ),
            )
            .with_help("enact with the `jg` (or `sp+dp+jg`) configuration to fuse them"),
            Some(reason) => Diagnostic::note(
                "M031",
                format!("`{p}` feeds only `{q}` but the pair cannot be grouped: {reason}"),
            ),
        };
        report.push(
            d.primary(wf.spans.processor(p_id), "produces only for the next stage")
                .secondary(wf.spans.processor(q_id), "sole consumer"),
        );
    }
}

impl fmt::Display for Blocker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::Sync(name) => write!(
                f,
                "`{name}` is a synchronization barrier and must see the whole input stream"
            ),
            Blocker::Cycle(name) => write!(
                f,
                "`{name}` is part of a cycle, whose iteration count is only known at run time"
            ),
            Blocker::Cross(name) => write!(
                f,
                "`{name}` uses the cross-product iteration strategy; fusing it would change \
                 the invocation count"
            ),
            Blocker::Unbound(name) => write!(
                f,
                "`{name}` is not bound to an executable descriptor, so there is no command \
                 line to chain"
            ),
            Blocker::Control(name) => write!(
                f,
                "`{name}` is subject to a coordination constraint, which grouping would bypass"
            ),
            Blocker::MixedPort { port, p, q } => write!(
                f,
                "input port `{port}` of `{q}` mixes data from `{p}` with other producers"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_workflow;
    use crate::lint::rules::lint_workflow;

    /// Property: on the random workflows, every sole-consumer service
    /// pair gets M030 exactly when [`blocking`] finds nothing and M031
    /// naming the blocker otherwise, and [`group_workflow`] changes the
    /// graph exactly when some M030 fires.
    #[test]
    fn m030_fires_iff_nothing_blocks_and_grouping_agrees() {
        let (mut groupable, mut blocked) = (0, 0);
        for case in 0..600 {
            let (wf, _) = crate::random_workflow::random_workflow(case);
            let report = lint_workflow(&wf);
            let message = |prefix: &str| {
                report
                    .diagnostics
                    .iter()
                    .find(|d| d.message.starts_with(prefix))
                    .map(|d| (d.code, d.message.as_str()))
            };
            let graph = crate::graph::GraphIndex::of(&wf);
            let mut pairs = 0;
            for p_id in (0..wf.processors.len()).map(ProcId) {
                let Some(q_id) = sole_service_consumer(&wf, &graph, p_id) else {
                    continue;
                };
                pairs += 1;
                let (p, q) = (&wf.processor(p_id).name, &wf.processor(q_id).name);
                match blocking(&wf, &graph, p_id, q_id) {
                    None => {
                        let found = message(&format!("`{p}` and `{q}` form"));
                        assert_eq!(found.map(|f| f.0), Some("M030"), "case {case}: {p}→{q}");
                        groupable += 1;
                    }
                    Some(reason) => {
                        let found = message(&format!("`{p}` feeds only `{q}` but"));
                        let (code, text) = found.unwrap_or_else(|| panic!("case {case}: {p}→{q}"));
                        assert_eq!(code, "M031");
                        assert!(text.ends_with(&reason.to_string()), "case {case}: {text}");
                        blocked += 1;
                    }
                }
            }
            let count = |code: &str| report.diagnostics.iter().filter(|d| d.code == code).count();
            assert_eq!(count("M030") + count("M031"), pairs, "case {case}");
            let grouped = group_workflow(&wf).unwrap();
            assert_eq!(
                grouped.processors.len() < wf.processors.len(),
                count("M030") > 0,
                "case {case}"
            );
        }
        assert!(
            groupable > 20 && blocked > 100,
            "{groupable} groupable, {blocked} blocked"
        );
    }
}
