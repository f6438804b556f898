//! Planner-backed rules (M080–M085): findings that need the interval
//! cardinality domain and the static transfer model of [`crate::plan_workflow`],
//! not just graph shape.
//!
//! The family reads the same analysis `moteur plan` reports on, with
//! the lint-context sizing convention (12 items per source, matching
//! the M021 example): M080/M082 bound invocation counts, M081/M083
//! weigh edges in bytes, M084/M085 flag pipeline- and cache-hostile
//! topology.

use crate::graph::{ProcId, ProcessorKind, Workflow};
use crate::lint::diag::{Diagnostic, LintReport};
use crate::plan::facts::{CardInterval, StaticFacts};
use crate::plan::{transfer_edges, PlanOptions};
use crate::service::ServiceBinding;

/// Byte threshold below which M081/M083 stay quiet: flows under 1 MiB
/// are noise on any 2006-era grid link.
const BYTE_FLOOR: u64 = 1 << 20;

/// Run the interval-cardinality and transfer-model rules (M080–M085)
/// over `facts`, which were built with `opts.sizes`.
pub(crate) fn check(
    wf: &Workflow,
    facts: &StaticFacts,
    opts: &PlanOptions,
    report: &mut LintReport,
) {
    let edges = transfer_edges(wf, facts, opts.default_item_bytes);

    // M080: a cardinality explosion the cap can prove. Cycle-driven
    // unbounded streams are M006's concern, not a provable explosion.
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind != ProcessorKind::Service {
            continue;
        }
        if let Some(hi) = facts.out[i].items.hi {
            if hi >= opts.explosion_cap {
                report.push(
                    Diagnostic::warning(
                        "M080",
                        format!(
                            "`{}` can fire up to {hi} times (cap {}): the campaign \
                             explodes combinatorially",
                            p.name, opts.explosion_cap
                        ),
                    )
                    .primary(
                        wf.spans.processor(ProcId(i)),
                        "invocation bound exceeds cap",
                    )
                    .with_help(
                        "replace cross-products on correlated streams with iteration=\"dot\", \
                         or reduce upstream fan-out",
                    ),
                );
            }
        }
    }

    // M081: one edge carries the majority of the workflow's bytes — a
    // partitioning opportunity `moteur plan` can quantify.
    let grid_edges: Vec<_> = edges.iter().filter(|e| e.grid).collect();
    if grid_edges.len() >= 2 {
        let total: u64 = grid_edges
            .iter()
            .filter_map(|e| e.bytes.hi)
            .fold(0u64, u64::saturating_add);
        for e in &grid_edges {
            let Some(hi) = e.bytes.hi else { continue };
            if total > 0 && hi >= BYTE_FLOOR && hi.saturating_mul(2) >= total {
                report.push(
                    Diagnostic::note(
                        "M081",
                        format!(
                            "edge {}:{} → {}:{} dominates the data flow: up to {hi} of \
                             {total} bytes transit it",
                            e.from, e.from_port, e.to, e.to_port
                        ),
                    )
                    .primary(span_of(wf, &e.to), "most enactor-routed bytes arrive here")
                    .with_help("`moteur plan` reports a site partition that internalizes it"),
                );
            }
        }
    }

    // M082: a service the cardinality analysis proves can never fire.
    // Distinct from M002 (unreachable) and M010 (unconnected): the
    // wiring may be complete, but an empty stream upstream starves it.
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind != ProcessorKind::Service {
            continue;
        }
        if facts.out[i].items == CardInterval::exact(0) {
            report.push(
                Diagnostic::warning(
                    "M082",
                    format!(
                        "`{}` can never fire: its invocation interval is exactly 0",
                        p.name
                    ),
                )
                .primary(
                    wf.spans.processor(ProcId(i)),
                    "dead under the declared inputs",
                )
                .with_help(
                    "an upstream port receives no items — check dot pairings and \
                     unconnected ports on its ancestors",
                ),
            );
        }
    }

    // M083: an unconsumed output port whose stream is provably heavy.
    // M014 notes the structural fact; this warns when the discarded
    // bytes are material.
    for (i, p) in wf.processors.iter().enumerate() {
        if p.kind != ProcessorKind::Service {
            continue;
        }
        for (pname, &consumers) in p.outputs.iter().zip(&facts.consumers[i]) {
            if consumers > 0 {
                continue;
            }
            let size = match &p.binding {
                Some(ServiceBinding::Descriptor { profile, .. }) => profile.output_size(pname),
                _ => crate::plan::DEFAULT_ITEM_BYTES,
            };
            let Some(hi) = facts.out[i].items.hi else {
                continue;
            };
            let wasted = hi.saturating_mul(size);
            if wasted >= BYTE_FLOOR {
                report.push(
                    Diagnostic::warning(
                        "M083",
                        format!(
                            "output port `{pname}` of `{}` discards up to {wasted} bytes \
                             per campaign: it is produced, registered and never consumed",
                            p.name
                        ),
                    )
                    .primary(wf.spans.processor(ProcId(i)), "unconsumed heavy output")
                    .with_help("link the port to a consumer or a sink, or drop the output"),
                );
            }
        }
    }

    // M084: a barrier astride a pipelinable service chain. Service
    // parallelism streams items through the chain; the barrier drains
    // the whole upstream stream before anything downstream starts.
    for (i, p) in wf.processors.iter().enumerate() {
        if !(p.kind == ProcessorKind::Service && p.synchronization) {
            continue;
        }
        let mut preds: Vec<usize> = facts.graph.preds(i).collect();
        preds.sort_unstable();
        preds.dedup();
        let upstream_items = preds
            .iter()
            .map(|&pr| facts.out[pr].items)
            .fold(CardInterval::exact(0), |a, b| a + b);
        let pipelinable = upstream_items.hi.is_none_or(|hi| hi > 1);
        let is_service = |q: usize| wf.processors[q].kind == ProcessorKind::Service;
        let service_pred = preds.iter().any(|&pr| is_service(pr));
        let service_succ = facts.graph.succs(i).any(is_service);
        if pipelinable && service_pred && service_succ {
            report.push(
                Diagnostic::note(
                    "M084",
                    format!(
                        "barrier `{}` serializes an otherwise-pipelinable chain: \
                         downstream services wait for all {upstream_items} upstream items",
                        p.name
                    ),
                )
                .primary(
                    wf.spans.processor(ProcId(i)),
                    "sync=\"true\" drains the stream",
                )
                .with_help(
                    "if downstream services do not need the whole stream, drop \
                     sync=\"true\" to let service parallelism stream through",
                ),
            );
        }
    }

    // M085: memoization defeated downstream of a nondeterministic
    // service. M070 warns at the nondeterministic service itself; this
    // note marks the deterministic descendants whose cache keys will
    // never repeat across runs because their *inputs* differ each time.
    let nondet: Vec<usize> = wf
        .processors
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            matches!(&p.binding, Some(ServiceBinding::Descriptor { descriptor, .. })
                if descriptor.nondeterministic)
        })
        .map(|(i, _)| i)
        .collect();
    if !nondet.is_empty() {
        // The roots are non-deterministic, so never reported themselves.
        let tainted = facts.graph.closure(nondet.iter().copied(), true);
        for (i, p) in wf.processors.iter().enumerate() {
            let deterministic_descriptor = matches!(
                &p.binding,
                Some(ServiceBinding::Descriptor { descriptor, .. })
                    if !descriptor.nondeterministic
            );
            if tainted[i] && deterministic_descriptor {
                let origin = &wf.processors[nondet[0]].name;
                report.push(
                    Diagnostic::note(
                        "M085",
                        format!(
                            "memoization of `{}` is defeated: its inputs derive from \
                             non-deterministic `{origin}`, so cached invocations never \
                             match on warm runs",
                            p.name
                        ),
                    )
                    .primary(
                        wf.spans.processor(ProcId(i)),
                        "downstream of nondeterminism",
                    )
                    .with_help(
                        "expect this service to re-execute on every warm restart even \
                         though it is deterministic itself",
                    ),
                );
            }
        }
    }
}

/// Span of a processor looked up by name (edge reports carry names).
fn span_of(wf: &Workflow, name: &str) -> moteur_xml::Span {
    wf.find(name)
        .map_or(moteur_xml::Span::EMPTY, |id| wf.spans.processor(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IterationStrategy;
    use crate::lint::rules::lint_workflow;
    use crate::service::ServiceProfile;
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

    fn desc(name: &str, inputs: &[&str], nondet: bool) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: inputs
                .iter()
                .map(|i| InputSlot {
                    name: (*i).into(),
                    option: format!("-{i}"),
                    access: Some(AccessMethod::Gfn),
                    bytes: None,
                })
                .collect(),
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: nondet,
        }
    }

    fn service(wf: &mut Workflow, name: &str, inputs: &[&str]) -> ProcId {
        wf.add_service(
            name,
            inputs,
            &["out"],
            ServiceBinding::descriptor(desc(name, inputs, false), ServiceProfile::new(1.0)),
        )
    }

    fn codes(wf: &Workflow) -> Vec<&'static str> {
        lint_workflow(wf)
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn m080_fires_on_provable_explosions() {
        // Six chained cross-products: 12^6 ≈ 3·10⁶ ≥ the 10⁶ cap.
        let mut wf = Workflow::new("boom");
        let mut feeders: Vec<ProcId> = (0..6).map(|i| wf.add_source(format!("s{i}"))).collect();
        let mut prev: Option<ProcId> = None;
        for i in 0..6 {
            let x = service(&mut wf, &format!("x{i}"), &["l", "r"]);
            wf.set_iteration(x, IterationStrategy::Cross);
            let left = prev.unwrap_or_else(|| feeders.pop().unwrap());
            let right = feeders.pop().unwrap_or(left);
            wf.connect(left, "out", x, "l").unwrap();
            wf.connect(right, "out", x, "r").unwrap();
            prev = Some(x);
        }
        let sink = wf.add_sink("sink");
        wf.connect(prev.unwrap(), "out", sink, "in").unwrap();
        assert!(codes(&wf).contains(&"M080"));
    }

    #[test]
    fn m082_fires_on_starved_descendants() {
        // `a` has an unfed second port (M010), so `b` downstream can
        // never fire either — that consequence is M082's.
        let mut wf = Workflow::new("starved");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in", "never_fed"]);
        let b = service(&mut wf, "b", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", b, "in").unwrap();
        wf.connect(b, "out", sink, "in").unwrap();
        let report = lint_workflow(&wf);
        let dead: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "M082")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(dead.len(), 2, "both a and b are dead: {dead:?}");
    }

    #[test]
    fn m083_weighs_unconsumed_outputs() {
        let mut wf = Workflow::new("waste");
        let src = wf.add_source("src");
        let heavy = wf.add_service(
            "heavy",
            &["in"],
            &["out", "debug"],
            ServiceBinding::descriptor(
                {
                    let mut d = desc("heavy", &["in"], false);
                    d.outputs.push(OutputSlot {
                        name: "debug".into(),
                        option: "-d".into(),
                        access: AccessMethod::Gfn,
                    });
                    d
                },
                ServiceProfile::new(1.0).with_output_bytes("debug", 10_000_000),
            ),
        );
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", heavy, "in").unwrap();
        wf.connect(heavy, "out", sink, "in").unwrap();
        let report = lint_workflow(&wf);
        // M014 notes the structural fact; M083 warns about the weight.
        assert!(report.diagnostics.iter().any(|d| d.code == "M014"));
        let m083 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "M083")
            .expect("M083 fires");
        assert!(m083.message.contains("120000000"), "{}", m083.message);
    }

    #[test]
    fn m084_fires_between_services_not_before_sinks() {
        let mut wf = Workflow::new("barrier");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in"]);
        let mid = service(&mut wf, "mid", &["in"]);
        wf.set_synchronization(mid, true);
        let b = service(&mut wf, "b", &["in"]);
        let tail = service(&mut wf, "tail", &["in"]);
        wf.set_synchronization(tail, true);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", mid, "in").unwrap();
        wf.connect(mid, "out", b, "in").unwrap();
        wf.connect(b, "out", tail, "in").unwrap();
        wf.connect(tail, "out", sink, "in").unwrap();
        let m084: Vec<String> = lint_workflow(&wf)
            .diagnostics
            .iter()
            .filter(|d| d.code == "M084")
            .map(|d| d.message.clone())
            .collect();
        // `mid` serializes a→b; `tail` (bronze's MultiTransfoTest
        // shape) only feeds the sink and is fine.
        assert_eq!(m084.len(), 1, "{m084:?}");
        assert!(m084[0].contains("`mid`"));
    }

    #[test]
    fn m081_notes_the_dominant_edge() {
        // src ships 1 MB images; everything downstream is tiny.
        let mut wf = Workflow::new("dominated");
        let src = wf.add_source("src");
        wf.set_item_bytes(src, 1_000_000);
        let a = wf.add_service(
            "a",
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                desc("a", &["in"], false),
                ServiceProfile::new(1.0).with_output_bytes("out", 100),
            ),
        );
        let b = service(&mut wf, "b", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", b, "in").unwrap();
        wf.connect(b, "out", sink, "in").unwrap();
        let report = lint_workflow(&wf);
        let m081 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "M081")
            .expect("M081 fires");
        assert!(m081.message.contains("src:out → a:in"), "{}", m081.message);
    }

    #[test]
    fn m085_taints_descendants_of_nondeterminism() {
        let mut wf = Workflow::new("nondet");
        let src = wf.add_source("src");
        let dice = wf.add_service(
            "dice",
            &["in"],
            &["out"],
            ServiceBinding::descriptor(desc("dice", &["in"], true), ServiceProfile::new(1.0)),
        );
        let pure = service(&mut wf, "pure", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", dice, "in").unwrap();
        wf.connect(dice, "out", pure, "in").unwrap();
        wf.connect(pure, "out", sink, "in").unwrap();
        let report = lint_workflow(&wf);
        // M070 at the origin, M085 at the pure descendant only.
        assert!(report.diagnostics.iter().any(|d| d.code == "M070"));
        let m085: Vec<&String> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "M085")
            .map(|d| &d.message)
            .collect();
        assert_eq!(m085.len(), 1, "{m085:?}");
        assert!(m085[0].contains("`pure`"));
    }

    #[test]
    fn clean_pipelines_stay_quiet() {
        let mut wf = Workflow::new("clean");
        let src = wf.add_source("src");
        let a = service(&mut wf, "a", &["in"]);
        let b = service(&mut wf, "b", &["in"]);
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", b, "in").unwrap();
        wf.connect(b, "out", sink, "in").unwrap();
        let found = codes(&wf);
        for code in ["M080", "M081", "M082", "M083", "M084", "M085"] {
            assert!(!found.contains(&code), "{code} fired on a clean chain");
        }
    }
}
