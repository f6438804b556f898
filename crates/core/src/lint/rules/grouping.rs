//! Job-grouping legality rules (M030–M031, paper §3.6).
//!
//! Mirrors the conditions of [`crate::group_workflow`]'s transform, but
//! instead of merging it *explains*: M030 points out sequential pairs
//! the `jg` optimisation would fuse (saving one grid submission per
//! invocation), M031 points out pairs that look sequential yet cannot
//! legally be fused, with the §3.6 condition that blocks them.

use crate::graph::{IterationStrategy, ProcId, ProcessorKind, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::service::ServiceBinding;

/// Run the §3.6 job-grouping rules (M030–M031).
pub fn check(wf: &Workflow, report: &mut LintReport) {
    let in_cycle = wf.cycle_members();
    for (i, p) in wf.processors.iter().enumerate() {
        let p_id = ProcId(i);
        if p.kind != ProcessorKind::Service {
            continue;
        }
        // Only pairs where *every* output of P flows to one service Q
        // are even candidates; branching producers are ordinary
        // workflow structure, not a missed optimisation.
        let succs = wf.data_succs(p_id);
        let [q_id] = succs.as_slice() else { continue };
        let q_id = *q_id;
        if q_id == p_id || wf.processor(q_id).kind != ProcessorKind::Service {
            continue;
        }
        match blocking_reason(wf, p_id, q_id, &in_cycle) {
            None => {
                let q = wf.processor(q_id);
                report.push(
                    Diagnostic::note(
                        "M030",
                        format!(
                            "`{}` and `{}` form a sequential chain: job grouping (§3.6) \
                             would run them as one grid job",
                            p.name, q.name
                        ),
                    )
                    .primary(wf.spans.processor(p_id), "produces only for the next stage")
                    .secondary(wf.spans.processor(q_id), "sole consumer")
                    .with_help("enact with the `jg` (or `sp+dp+jg`) configuration to fuse them"),
                );
            }
            Some(reason) => {
                let q = wf.processor(q_id);
                report.push(
                    Diagnostic::note(
                        "M031",
                        format!(
                            "`{}` feeds only `{}` but the pair cannot be grouped: {reason}",
                            p.name, q.name
                        ),
                    )
                    .primary(wf.spans.processor(p_id), "produces only for the next stage")
                    .secondary(wf.spans.processor(q_id), "sole consumer"),
                );
            }
        }
    }
}

/// First §3.6 condition that makes (P, Q) ungroupable, or `None` when
/// the pair is groupable. Kept in the same order as
/// `grouping::is_groupable_service` so the two stay in agreement.
fn blocking_reason(wf: &Workflow, p_id: ProcId, q_id: ProcId, in_cycle: &[bool]) -> Option<String> {
    for id in [p_id, q_id] {
        let p = wf.processor(id);
        if p.synchronization {
            return Some(format!(
                "`{}` is a synchronization barrier and must see the whole input stream",
                p.name
            ));
        }
        if in_cycle[id.0] {
            return Some(format!(
                "`{}` is part of a cycle, whose iteration count is only known at run time",
                p.name
            ));
        }
        if p.iteration != IterationStrategy::Dot {
            return Some(format!(
                "`{}` uses the cross-product iteration strategy; fusing it would change \
                 the invocation count",
                p.name
            ));
        }
        if !matches!(
            p.binding,
            Some(ServiceBinding::Descriptor { .. }) | Some(ServiceBinding::Grouped(_))
        ) {
            return Some(format!(
                "`{}` is not bound to an executable descriptor, so there is no command \
                 line to chain",
                p.name
            ));
        }
        if wf.control.iter().any(|(a, b)| *a == id || *b == id) {
            return Some(format!(
                "`{}` is subject to a coordination constraint, which grouping would bypass",
                p.name
            ));
        }
    }
    // Each Q input port must be fed either by exactly one P output or
    // only by non-P producers — otherwise the fused job cannot tell
    // which tuple element feeds which slot.
    let q = wf.processor(q_id);
    for (port, pname) in q.inputs.iter().enumerate() {
        let feeders: Vec<ProcId> = wf
            .links
            .iter()
            .filter(|l| l.to.proc == q_id && l.to.port == port)
            .map(|l| l.from.proc)
            .collect();
        let from_p = feeders.iter().filter(|f| **f == p_id).count();
        if from_p > 0 && (from_p != feeders.len() || from_p > 1) {
            return Some(format!(
                "input port `{pname}` of `{}` mixes data from `{}` with other producers",
                q.name,
                wf.processor(p_id).name
            ));
        }
    }
    None
}
