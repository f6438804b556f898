//! Port-typing rules (M010–M014): wiring completeness and
//! `<param>`/`<outputsize>` slot declarations.

use crate::graph::{ProcId, ProcessorKind, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::StaticFacts;
use crate::service::ServiceBinding;

/// Run the port wiring and slot declaration rules (M011–M014); M010
/// belongs to the structural gate, which runs first.
pub(crate) fn check(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    multiply_fed_ports(wf, facts, report);
    slot_declarations(wf, report);
    unconsumed_outputs(wf, facts, report);
}

/// M010: an input port of a non-source processor with no inbound link.
/// The iteration strategy can never assemble a complete input tuple, so
/// the processor silently never fires. Scans the links rather than
/// reading [`StaticFacts::feeders`], so the gate builds no analysis.
pub(super) fn unconnected_inputs(wf: &Workflow, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind == ProcessorKind::Source {
            continue;
        }
        for (port, pname) in p.inputs.iter().enumerate() {
            let fed = wf
                .links
                .iter()
                .any(|l| l.to.proc.0 == i && l.to.port == port);
            if !fed {
                report.push(
                    Diagnostic::error(
                        "M010",
                        format!("input port `{pname}` of `{}` is not connected", p.name),
                    )
                    .primary(wf.spans.processor(ProcId(i)), "declared here")
                    .with_help(format!(
                        "add a <link to=\"{}:{pname}\"/>, or fix the slot with a <param>",
                        p.name
                    )),
                );
            }
        }
    }
}

/// M011: two or more links feed the same input port of a non-sync
/// processor. The streams interleave in completion order, so pairing
/// under the iteration strategy becomes non-deterministic.
/// Synchronization barriers are exempt: they consume entire streams.
fn multiply_fed_ports(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        if p.synchronization {
            continue;
        }
        for (pname, feeders) in p.inputs.iter().zip(&facts.feeders[i]) {
            if feeders.len() > 1 {
                let mut d = Diagnostic::warning(
                    "M011",
                    format!(
                        "input port `{pname}` of `{}` is fed by {} links: streams \
                         interleave non-deterministically",
                        p.name,
                        feeders.len()
                    ),
                )
                .primary(wf.spans.link(feeders[0]), "first feeder")
                .with_help(
                    "feed each port from one producer, or mark the processor sync=\"true\" \
                     to consume whole streams",
                );
                for &li in &feeders[1..] {
                    d = d.secondary(wf.spans.link(li), "also feeds the same port");
                }
                report.push(d);
            }
        }
    }
}

/// M012 (error) / M013 (warning): `<param>` and `<outputsize>`
/// declarations naming slots the descriptor does not declare. A bad
/// `<param slot>` silently fixes nothing, leaving the real slot
/// dangling; a bad `<outputsize>` silently sizes nothing.
fn slot_declarations(wf: &Workflow, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        let Some(ServiceBinding::Descriptor {
            descriptor,
            profile,
        }) = &p.binding
        else {
            continue;
        };
        let id = ProcId(i);
        for (slot, _) in &profile.fixed_params {
            if descriptor.input(slot).is_none() {
                let available: Vec<&str> =
                    descriptor.inputs.iter().map(|s| s.name.as_str()).collect();
                report.push(
                    Diagnostic::error(
                        "M012",
                        format!("<param> on `{}` fixes unknown slot `{slot}`", p.name),
                    )
                    .primary(wf.spans.param(id, slot), "no such input slot")
                    .secondary(wf.spans.processor(id), "descriptor declared here")
                    .with_help(format!("declared input slots: {}", available.join(", "))),
                );
            }
        }
        for (slot, _) in &profile.output_bytes {
            if descriptor.output(slot).is_none() {
                let available: Vec<&str> =
                    descriptor.outputs.iter().map(|s| s.name.as_str()).collect();
                report.push(
                    Diagnostic::warning(
                        "M013",
                        format!("<outputsize> on `{}` sizes unknown slot `{slot}`", p.name),
                    )
                    .primary(wf.spans.outputsize(id, slot), "no such output slot")
                    .with_help(format!("declared output slots: {}", available.join(", "))),
                );
            }
        }
    }
}

/// M014: a service output port nothing consumes. Legal (the job still
/// runs) but the produced file is transferred and registered for
/// nobody.
fn unconsumed_outputs(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind != ProcessorKind::Service {
            continue;
        }
        for (pname, &consumers) in p.outputs.iter().zip(&facts.consumers[i]) {
            if consumers == 0 {
                report.push(
                    Diagnostic::note(
                        "M014",
                        format!("output port `{pname}` of `{}` is never consumed", p.name),
                    )
                    .primary(wf.spans.processor(ProcId(i)), "declared here"),
                );
            }
        }
    }
}
