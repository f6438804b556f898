//! The recursive structure walks the graph index replaced, kept
//! verbatim as oracles: Tarjan's SCC numbering by recursion over a
//! private adjacency, and the critical path by memoised recursion over
//! deduplicated successors. The crate's unit tests compare the index
//! and `Workflow::critical_path` with them on the random and hostile
//! workflows and their groupings.
//!
//! The including module must have `MoteurError`, `ProcId`,
//! `ProcessorKind` and `Workflow` in scope.

use super::{MoteurError, ProcId, ProcessorKind, Workflow};
use std::collections::BTreeSet;

/// Direct data successors (deduplicated).
pub fn data_succs(wf: &Workflow, proc: ProcId) -> Vec<ProcId> {
    let mut seen = BTreeSet::new();
    wf.links
        .iter()
        .filter(move |l| l.from.proc == proc)
        .map(|l| l.to.proc)
        .filter(|p| seen.insert(*p))
        .collect()
}

/// For each processor, the id of its strongly connected component
/// (same id ⇔ same cycle). Tarjan numbers the components in reverse
/// topological order of the condensation.
pub fn scc_ids(wf: &Workflow) -> Vec<usize> {
    struct TarjanState {
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next_index: usize,
        ids: Vec<usize>,
        components: usize,
    }
    fn strongconnect(v: usize, adj: &[Vec<usize>], st: &mut TarjanState) {
        st.index[v] = Some(st.next_index);
        st.lowlink[v] = st.next_index;
        st.next_index += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &adj[v] {
            if st.index[w].is_none() {
                strongconnect(w, adj, st);
                st.lowlink[v] = st.lowlink[v].min(st.lowlink[w]);
            } else if st.on_stack[w] {
                st.lowlink[v] = st.lowlink[v].min(st.index[w].unwrap());
            }
        }
        if st.lowlink[v] == st.index[v].unwrap() {
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                st.ids[w] = st.components;
                if w == v {
                    break;
                }
            }
            st.components += 1;
        }
    }

    let n = wf.processors.len();
    let mut adj = vec![Vec::new(); n];
    for l in &wf.links {
        adj[l.from.proc.0].push(l.to.proc.0);
    }
    let mut st = TarjanState {
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        ids: vec![0; n],
        components: 0,
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &adj, &mut st);
        }
    }
    st.ids
}

/// Which processors sit on a data-link cycle: the members of a
/// non-trivial SCC, and processors with a self-link.
pub fn cycle_members(wf: &Workflow) -> Vec<bool> {
    let scc_ids = scc_ids(wf);
    let mut size = vec![0usize; scc_ids.len()];
    for &c in &scc_ids {
        size[c] += 1;
    }
    let mut on_cycle: Vec<bool> = scc_ids.iter().map(|&c| size[c] > 1).collect();
    for l in wf.links.iter().filter(|l| l.from.proc == l.to.proc) {
        on_cycle[l.from.proc.0] = true;
    }
    on_cycle
}

/// The service processors along the longest source→sink path, in
/// execution order — the critical path of the theoretical model.
/// Only valid for acyclic graphs.
pub fn critical_path(wf: &Workflow) -> Result<Vec<ProcId>, MoteurError> {
    if cycle_members(wf).contains(&true) {
        return Err(MoteurError::new(
            "critical path undefined on cyclic workflows",
        ));
    }
    // Memoised longest path (service count) with successor tracking.
    fn longest(
        w: &Workflow,
        v: usize,
        memo: &mut [Option<(usize, Option<usize>)>],
    ) -> (usize, Option<usize>) {
        if let Some(m) = memo[v] {
            return m;
        }
        let own = usize::from(w.processors[v].kind == ProcessorKind::Service);
        let best = data_succs(w, ProcId(v))
            .into_iter()
            .map(|s| (longest(w, s.0, memo).0, s.0))
            .max_by_key(|(len, _)| *len);
        let r = match best {
            Some((len, succ)) => (own + len, Some(succ)),
            None => (own, None),
        };
        memo[v] = Some(r);
        r
    }
    let mut memo = vec![None; wf.processors.len()];
    let start = (0..wf.processors.len()).max_by_key(|&v| longest(wf, v, &mut memo).0);
    let mut path = Vec::new();
    let mut cur = start;
    while let Some(v) = cur {
        if wf.processors[v].kind == ProcessorKind::Service {
            path.push(ProcId(v));
        }
        cur = memo[v].and_then(|(_, succ)| succ);
    }
    Ok(path)
}
