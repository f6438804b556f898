//! Graph-structure rules (M001–M008): link sanity, reachability,
//! cycles and naming.

use crate::graph::{ProcId, ProcessorKind, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::StaticFacts;
use std::collections::{BTreeMap, HashMap};

/// Run the graph reachability, self-link and cycle rules (M002–M006);
/// M001, M007 and M008 belong to the structural gate, which runs first.
pub(crate) fn check(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    self_links(wf, report);
    cycles(wf, facts, report);
    reachability(wf, report);
}

/// M001: a link references a processor or port that does not exist, or
/// a coordination constraint a processor that does not exist. Reports
/// every such edge and returns whether every edge's processors exist
/// (a link to a missing *port* still reaches its processor).
///
/// The Scufl parser emits M001 for unresolved *names*; this covers the
/// programmatic case of out-of-range indices, which would panic the
/// enactor's token router.
pub(super) fn references_resolve(wf: &Workflow, report: &mut LintReport) -> bool {
    let mut processors_exist = true;
    for (i, l) in wf.links.iter().enumerate() {
        let span = wf.spans.link(i);
        let bad = match (
            wf.processors.get(l.from.proc.0),
            wf.processors.get(l.to.proc.0),
        ) {
            (None, _) | (_, None) => {
                processors_exist = false;
                Some("references a processor that does not exist".to_string())
            }
            (Some(fp), Some(tp)) => {
                if l.from.port >= fp.outputs.len() {
                    Some(format!("`{}` has no output port #{}", fp.name, l.from.port))
                } else if l.to.port >= tp.inputs.len() {
                    Some(format!("`{}` has no input port #{}", tp.name, l.to.port))
                } else {
                    None
                }
            }
        };
        if let Some(why) = bad {
            report.push(
                Diagnostic::error("M001", format!("dangling link: {why}"))
                    .primary(span, "link declared here")
                    .with_help(
                        "every link must connect an existing output port to an existing input port",
                    ),
            );
        }
    }
    let n = wf.processors.len();
    for (i, &(before, after)) in wf.control.iter().enumerate() {
        if before.0 >= n || after.0 >= n {
            processors_exist = false;
            report.push(
                Diagnostic::error(
                    "M001",
                    "dangling coordination constraint: references a processor that does not exist",
                )
                .primary(wf.spans.control_edge(i), "constraint declared here")
                .with_help("every coordination constraint must order two existing processors"),
            );
        }
    }
    processors_exist
}

/// M007: two processors share a name — links and input bindings resolve
/// by name, so the second processor shadows the first.
pub(super) fn duplicate_names(wf: &Workflow, report: &mut LintReport) {
    let mut first: HashMap<&str, ProcId> = HashMap::new();
    for (i, p) in wf.processors.iter().enumerate() {
        match first.entry(p.name.as_str()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(ProcId(i));
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                report.push(
                    Diagnostic::error("M007", format!("duplicate processor name `{}`", p.name))
                        .primary(wf.spans.processor(ProcId(i)), "redeclared here")
                        .secondary(wf.spans.processor(*e.get()), "first declared here")
                        .with_help("rename one of the processors; links resolve by name"),
                );
            }
        }
    }
}

/// M008: a service processor with no service binding can never be
/// invoked; a source or sink with one would never invoke it.
pub(super) fn missing_bindings(wf: &Workflow, report: &mut LintReport) {
    for (i, p) in wf.processors.iter().enumerate() {
        let message = match (p.kind, &p.binding) {
            (ProcessorKind::Service, None) => format!("service `{}` has no binding", p.name),
            (ProcessorKind::Source | ProcessorKind::Sink, Some(_)) => {
                format!("source/sink `{}` must not have a binding", p.name)
            }
            _ => continue,
        };
        report.push(
            Diagnostic::error("M008", message)
                .primary(wf.spans.processor(ProcId(i)), "declared here")
                .with_help("bind each service, and only services, to an executable descriptor"),
        );
    }
}

/// M005: a link from a processor to itself. The token would need to
/// exist before the invocation that produces it.
fn self_links(wf: &Workflow, report: &mut LintReport) {
    for (i, l) in wf.links.iter().enumerate() {
        if l.from.proc == l.to.proc {
            let name = &wf.processor(l.from.proc).name;
            report.push(
                Diagnostic::warning("M005", format!("`{name}` is linked to itself"))
                    .primary(wf.spans.link(i), "self-link declared here")
                    .with_help(
                        "route loop iterations through a distinct processor with conditional \
                         output routing (paper Fig. 2)",
                    ),
            );
        }
    }
}

/// M004 (error) / M006 (note): data-link cycles.
///
/// The paper allows cycles *with conditional routing* — an output link
/// leaving the cycle bounds the iteration count at run time (Fig. 2).
/// A cycle no link ever leaves can never deliver a result: every token
/// circulates forever.
fn cycles(wf: &Workflow, facts: &StaticFacts, report: &mut LintReport) {
    let scc = &facts.scc;
    let mut members: BTreeMap<usize, Vec<ProcId>> = BTreeMap::new();
    for v in (0..scc.len()).filter(|&v| facts.in_cycle[v]) {
        members.entry(scc[v]).or_default().push(ProcId(v));
    }
    for (cid, procs) in members {
        let mut names: Vec<&str> = procs
            .iter()
            .map(|p| wf.processors[p.0].name.as_str())
            .collect();
        names.sort_unstable();
        let has_exit = wf
            .links
            .iter()
            .any(|l| scc[l.from.proc.0] == cid && scc[l.to.proc.0] != cid);
        let span = wf.spans.processor(procs[0]);
        if has_exit {
            report.push(
                Diagnostic::note(
                    "M006",
                    format!(
                        "cycle through {}: iteration count is decided at run time by \
                         conditional output routing",
                        names.join(" → ")
                    ),
                )
                .primary(span, "part of the cycle"),
            );
        } else {
            report.push(
                Diagnostic::error(
                    "M004",
                    format!(
                        "closed cycle through {}: no link leaves the cycle, so tokens \
                         circulate forever",
                        names.join(" → ")
                    ),
                )
                .primary(span, "part of the cycle")
                .with_help("add an output link from a cycle member to a processor outside it"),
            );
        }
    }
}

/// M002 (error) / M003 (warning): reachability.
///
/// A processor no source can feed never receives a token and never
/// fires (M002). A reachable processor from which no sink is reachable
/// computes results that are silently discarded (M003).
fn reachability(wf: &Workflow, report: &mut LintReport) {
    let n = wf.processors.len();
    // Forward closure from sources.
    let mut reachable = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&v| wf.processors[v].kind == ProcessorKind::Source)
        .collect();
    for &v in &stack {
        reachable[v] = true;
    }
    while let Some(v) = stack.pop() {
        for s in wf.data_succs(ProcId(v)) {
            if !reachable[s.0] {
                reachable[s.0] = true;
                stack.push(s.0);
            }
        }
    }
    // Backward closure from sinks.
    let mut feeds_sink = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&v| wf.processors[v].kind == ProcessorKind::Sink)
        .collect();
    for &v in &stack {
        feeds_sink[v] = true;
    }
    while let Some(v) = stack.pop() {
        for p in wf.data_preds(ProcId(v)) {
            if !feeds_sink[p.0] {
                feeds_sink[p.0] = true;
                stack.push(p.0);
            }
        }
    }
    for v in 0..n {
        let p = &wf.processors[v];
        let span = wf.spans.processor(ProcId(v));
        if !reachable[v] {
            report.push(
                Diagnostic::error(
                    "M002",
                    format!(
                        "{} `{}` is unreachable from any source",
                        kind_name(p.kind),
                        p.name
                    ),
                )
                .primary(span, "never receives data")
                .with_help("connect it (transitively) to a <source>, or remove it"),
            );
        } else if !feeds_sink[v] && p.kind != ProcessorKind::Sink {
            report.push(
                Diagnostic::warning(
                    "M003",
                    format!(
                        "{} `{}` cannot reach any sink: its results are discarded",
                        kind_name(p.kind),
                        p.name
                    ),
                )
                .primary(span, "dead end")
                .with_help("link its outputs (transitively) to a <sink>, or remove it"),
            );
        }
    }
}

fn kind_name(kind: ProcessorKind) -> &'static str {
    match kind {
        ProcessorKind::Source => "source",
        ProcessorKind::Sink => "sink",
        ProcessorKind::Service => "processor",
    }
}
