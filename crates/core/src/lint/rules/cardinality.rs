//! Iteration-strategy cardinality rules (M020–M021), over the monomial
//! half of the static analysis (`plan::facts`): each source contributes
//! one symbol, and with every source sized `n_D` a stream of total
//! degree `d` carries `n_D^d` items.

use crate::graph::{IterationStrategy, ProcId, ProcessorKind, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::{Card, StaticFacts};

/// Run the iteration-strategy cardinality rules (M020–M021).
pub(crate) fn check(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind != ProcessorKind::Service || p.synchronization {
            continue;
        }
        match p.iteration {
            IterationStrategy::Dot => dot_mismatch(wf, ProcId(i), &facts.ports[i], report),
            IterationStrategy::Cross => cross_blowup(wf, ProcId(i), &facts.out[i], report),
        }
    }
}

/// M020: a dot-product processor whose input streams have different
/// total degrees. Index-wise pairing runs out of items on the shorter
/// stream, silently dropping the tail of the longer one.
fn dot_mismatch(wf: &Workflow, id: ProcId, inputs: &[Card], report: &mut LintReport) {
    let p = wf.processor(id);
    let degrees: Vec<(usize, u32)> = inputs
        .iter()
        .enumerate()
        .filter_map(|(port, c)| c.degree().map(|d| (port, d)))
        .collect();
    // Only monomial streams participate: a one-item stream against an
    // n-stream is the degree-0 vs degree-1 case and *is* reported.
    if degrees.len() < 2 {
        return;
    }
    let (min_port, min_d) = *degrees.iter().min_by_key(|(_, d)| *d).unwrap();
    let (max_port, max_d) = *degrees.iter().max_by_key(|(_, d)| *d).unwrap();
    if min_d == max_d {
        return;
    }
    report.push(
        Diagnostic::warning(
            "M020",
            format!(
                "dot-product `{}` pairs streams of different cardinality: port `{}` \
                 carries {} items but port `{}` carries {}",
                p.name,
                p.inputs[max_port],
                inputs[max_port].render(),
                p.inputs[min_port],
                inputs[min_port].render(),
            ),
        )
        .primary(
            wf.spans.processor(id),
            "dot pairing truncates to the shortest stream",
        )
        .with_help(
            "use iteration=\"cross\" to combine all items, or sync=\"true\" to consume \
             whole streams",
        ),
    );
}

/// M021: a cross-product processor whose output stream has total degree
/// ≥ 2 — the invocation count grows as a power of the input size.
fn cross_blowup(wf: &Workflow, id: ProcId, out: &Card, report: &mut LintReport) {
    let p = wf.processor(id);
    let Some(d) = out.degree() else { return };
    if d < 2 {
        return;
    }
    let example_n = 12usize; // the paper's smallest campaign
    let example = out.count(example_n).unwrap_or(0);
    report.push(
        Diagnostic::warning(
            "M021",
            format!(
                "cross-product `{}` multiplies its input streams: {} invocations \
                 (degree {d}; e.g. {example} jobs at {example_n} items per source)",
                p.name,
                out.render(),
            ),
        )
        .primary(
            wf.spans.processor(id),
            format!("invocation count is a degree-{d} polynomial"),
        )
        .with_help("if the streams are index-correlated, iteration=\"dot\" avoids the blowup"),
    );
}
