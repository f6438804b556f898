//! Hostile structure over the seeded random workflows
//! (`support/random_workflow.rs`): each case as drawn, with one link
//! endpoint (processor or port) moved out of range, and with a
//! coordination constraint naming a processor that does not exist at
//! either end.
//!
//! The lint reports an error for every mutant, and enactment refuses
//! every mutant with an `Err` under sp+dp and sp+dp+jg, with and without
//! the preflight lint. No input, mutated or not, may panic the lint,
//! compilation or the enactor.

use moteur::{
    lint_workflow, Enactment, EnactorConfig, InputData, IterationStrategy, ProcId, ServiceBinding,
    ServiceProfile, SourceSizes, Token, VirtualBackend, Workflow,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "support/random_workflow.rs"]
mod random_workflow;

const CASES: u64 = 400;

#[derive(Debug, Clone, Copy)]
enum Mutation {
    LinkFromProc,
    LinkToProc,
    LinkFromPort,
    LinkToPort,
    ControlBefore,
    ControlAfter,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::LinkFromProc,
    Mutation::LinkToProc,
    Mutation::LinkFromPort,
    Mutation::LinkToPort,
    Mutation::ControlBefore,
    Mutation::ControlAfter,
];

/// `wf` with `mutation` applied to its `case`-th link (modulo the link
/// count) or to a new coordination constraint.
fn mutate(mut wf: Workflow, case: u64, mutation: Mutation) -> Workflow {
    let n = wf.processors.len();
    let li = case as usize % wf.links.len();
    let some = ProcId(case as usize % n);
    let link = &mut wf.links[li];
    match mutation {
        Mutation::LinkFromProc => link.from.proc = ProcId(n),
        Mutation::LinkToProc => link.to.proc = ProcId(n + 1),
        Mutation::LinkFromPort => link.from.port = wf.processors[link.from.proc.0].outputs.len(),
        Mutation::LinkToPort => link.to.port = wf.processors[link.to.proc.0].inputs.len(),
        Mutation::ControlBefore => wf.add_control(ProcId(n), some),
        Mutation::ControlAfter => wf.add_control(some, ProcId(n + 2)),
    }
    wf
}

fn inputs(wf: &Workflow) -> InputData {
    wf.sources()
        .into_iter()
        .fold(InputData::new(), |inputs, s| {
            inputs.set(wf.processor(s).name.clone(), vec!["D0".into(), "D1".into()])
        })
}

fn configs() -> [(&'static str, EnactorConfig); 4] {
    [
        ("sp+dp", EnactorConfig::sp_dp()),
        ("sp+dp+jg", EnactorConfig::sp_dp_jg()),
        (
            "sp+dp/no-preflight",
            EnactorConfig::sp_dp().without_preflight(),
        ),
        (
            "sp+dp+jg/no-preflight",
            EnactorConfig::sp_dp_jg().without_preflight(),
        ),
    ]
}

#[test]
fn hostile_structure_is_refused_and_never_panics() {
    let mut failures = Vec::new();
    for case in 0..CASES {
        let (wf, _) = random_workflow::random_workflow(case);
        let variants = std::iter::once((None, wf.clone()))
            .chain(MUTATIONS.map(|m| (Some(m), mutate(wf.clone(), case, m))));
        for (mutation, wf) in variants {
            let row = |what: &str| format!("case {case} {mutation:?} {what}");
            match catch_unwind(AssertUnwindSafe(|| lint_workflow(&wf))) {
                Err(_) => failures.push(row("lint panicked")),
                Ok(report) if mutation.is_some() && !report.has_errors() => {
                    failures.push(row("lint reported no error"));
                }
                Ok(_) => {}
            }
            let inputs = inputs(&wf);
            for (name, config) in configs() {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    Enactment::new(&wf, &inputs, config).run(&mut VirtualBackend::new())
                }));
                match run {
                    Err(_) => failures.push(row(&format!("{name}: enactment panicked"))),
                    Ok(Ok(_)) if mutation.is_some() => {
                        failures.push(row(&format!("{name}: enactment accepted it")));
                    }
                    Ok(_) => {}
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
