//! Barrier and coordination-constraint rules (M040–M042).
//!
//! Synchronization barriers and `<coordination>` edges both throttle
//! parallelism (they defeat the Σ_SP/Σ_DP optimisations of eq. 2–4), so
//! ones that buy nothing are worth flagging.

use crate::graph::{GraphIndex, ProcId, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::StaticFacts;

/// Run the barrier/coordination rules (M040–M042).
pub(crate) fn check(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    no_op_barriers(wf, facts, report);
    coordination_cycles(wf, &facts.graph, report);
    redundant_coordination(wf, &facts.graph, report);
}

/// M040: a synchronization barrier that never holds anything back —
/// either it has no inbound data at all, or every input stream already
/// carries a single item. It still serialises the workflow (a barrier
/// caps its segment's data parallelism, paper §3.4) for no benefit.
fn no_op_barriers(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        if !p.synchronization {
            continue;
        }
        let id = ProcId(i);
        let has_inbound = facts.graph.preds(i).next().is_some();
        let ins = &facts.ports[i];
        let all_single = !ins.is_empty() && ins.iter().all(|c| c.degree() == Some(0));
        if !has_inbound {
            report.push(
                Diagnostic::warning(
                    "M040",
                    format!("barrier `{}` has no inbound data to synchronize", p.name),
                )
                .primary(wf.spans.processor(id), "sync=\"true\" declared here")
                .with_help("remove sync=\"true\" or connect the inputs it should wait for"),
            );
        } else if all_single {
            report.push(
                Diagnostic::warning(
                    "M040",
                    format!(
                        "barrier `{}` only ever sees single-item streams: the barrier \
                         is a no-op but still blocks service parallelism",
                        p.name
                    ),
                )
                .primary(wf.spans.processor(id), "sync=\"true\" declared here")
                .with_help("drop sync=\"true\"; every upstream stream already has cardinality 1"),
            );
        }
    }
}

/// M041: a coordination constraint `a before b` while `b` already
/// precedes `a` through data and/or control edges. The enactor can
/// never satisfy both orders: `b`'s jobs wait on `a`, whose inputs wait
/// on `b` — a deadlock, not a cycle bounded by conditional routing.
fn coordination_cycles(wf: &Workflow, graph: &GraphIndex, report: &mut LintReport) {
    for (ci, &(a, b)) in wf.control.iter().enumerate() {
        if a == b {
            report.push(
                Diagnostic::error(
                    "M041",
                    format!(
                        "coordination constraint on `{}` orders the processor before itself",
                        wf.processor(a).name
                    ),
                )
                .primary(wf.spans.control_edge(ci), "declared here"),
            );
            continue;
        }
        if reaches(wf, graph, b, a, ci) {
            report.push(
                Diagnostic::error(
                    "M041",
                    format!(
                        "coordination constraint `{} before {}` contradicts the existing \
                         `{} → {}` ordering: enactment deadlocks",
                        wf.processor(a).name,
                        wf.processor(b).name,
                        wf.processor(b).name,
                        wf.processor(a).name,
                    ),
                )
                .primary(wf.spans.control_edge(ci), "declared here")
                .with_help("drop this constraint or reverse it to match the data flow"),
            );
        }
    }
}

/// Can `from` reach `to` through data links and control edges (skipping
/// control edge `skip`, the one under examination)?
fn reaches(wf: &Workflow, graph: &GraphIndex, from: ProcId, to: ProcId, skip: usize) -> bool {
    let mut seen = vec![false; wf.processors.len()];
    let mut stack = vec![from];
    seen[from.0] = true;
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        for s in graph.succs(v.0) {
            if !std::mem::replace(&mut seen[s], true) {
                stack.push(ProcId(s));
            }
        }
        for (ci, &(a, b)) in wf.control.iter().enumerate() {
            if ci != skip && a == v && !seen[b.0] {
                seen[b.0] = true;
                stack.push(b);
            }
        }
    }
    false
}

/// M042: a coordination constraint between two processors a data link
/// already orders. The data dependency enforces the same sequencing,
/// so the constraint only disqualifies both endpoints from job
/// grouping (§3.6) without adding anything.
fn redundant_coordination(wf: &Workflow, graph: &GraphIndex, report: &mut LintReport) {
    for (ci, &(a, b)) in wf.control.iter().enumerate() {
        if a == b {
            continue; // M041's case
        }
        let direct = graph.succs(a.0).any(|s| s == b.0);
        if direct {
            report.push(
                Diagnostic::warning(
                    "M042",
                    format!(
                        "coordination constraint `{} before {}` duplicates an existing \
                         data link",
                        wf.processor(a).name,
                        wf.processor(b).name,
                    ),
                )
                .primary(wf.spans.control_edge(ci), "declared here")
                .secondary(
                    wf.spans.processor(a),
                    "already feeds the constrained processor",
                )
                .with_help(
                    "remove the constraint; the data dependency already enforces this order \
                     and the constraint blocks job grouping (§3.6)",
                ),
            );
        }
    }
}
