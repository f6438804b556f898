//! The hostile mutations of the seeded random workflows: one link
//! endpoint (processor or port) moved out of range, or a coordination
//! constraint naming a processor that does not exist at either end.
//! `hostile_structure.rs` requires the lint and enactment to refuse
//! every mutant; the crate's unit tests check the graph index on the
//! mutants whose links still name existing processors.
//!
//! The including module must have `ProcId` and `Workflow` in scope.

use super::{ProcId, Workflow};

#[derive(Debug, Clone, Copy)]
pub enum Mutation {
    LinkFromProc,
    LinkToProc,
    LinkFromPort,
    LinkToPort,
    ControlBefore,
    ControlAfter,
}

pub const MUTATIONS: [Mutation; 6] = [
    Mutation::LinkFromProc,
    Mutation::LinkToProc,
    Mutation::LinkFromPort,
    Mutation::LinkToPort,
    Mutation::ControlBefore,
    Mutation::ControlAfter,
];

/// `wf` with `mutation` applied to its `case`-th link (modulo the link
/// count) or to a new coordination constraint.
pub fn mutate(mut wf: Workflow, case: u64, mutation: Mutation) -> Workflow {
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
