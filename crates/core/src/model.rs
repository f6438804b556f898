//! The theoretical execution-time model of paper §3.5.
//!
//! For a workflow whose critical path holds `n_W` services processing
//! `n_D` independent data sets, with `T[i][j]` the duration of data set
//! `j` on service `i`, the paper derives closed forms for the total
//! execution time Σ under each parallelism configuration (eqs. 1–4):
//!
//! - sequential:            `Σ     = Σ_i Σ_j T[i][j]`
//! - data parallelism:      `Σ_DP  = Σ_i max_j T[i][j]`
//! - service parallelism:   `Σ_SP  = T[n_W−1][n_D−1] + m[n_W−1][n_D−1]`
//!   with the pipeline recursion on `m`
//! - both:                  `Σ_DSP = max_j Σ_i T[i][j]`
//!
//! plus asymptotic speed-ups under the constant-time assumption
//! (§3.5.4). Tests in `tests/model_vs_enactor.rs` assert the *enactor*
//! reproduces these formulas exactly on an ideal backend.

use crate::error::MoteurError;
use crate::graph::Workflow;
use crate::service::{CostModel, ServiceBinding};
use crate::token::DataIndex;

/// The `T[i][j]` duration matrix: `t[i][j]` is the time of data set `j`
/// on the `i`-th service of the critical path (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeMatrix {
    t: Vec<Vec<f64>>,
}

impl TimeMatrix {
    /// Build from explicit rows (each row = one service, `n_D` columns).
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "need at least one service");
        let nd = rows[0].len();
        assert!(nd > 0, "need at least one data set");
        assert!(rows.iter().all(|r| r.len() == nd), "ragged matrix");
        TimeMatrix { t: rows }
    }

    /// Constant-time matrix `T[i][j] = value` (the §3.5.4 assumption).
    pub fn constant(n_w: usize, n_d: usize, value: f64) -> Self {
        Self::new(vec![vec![value; n_d]; n_w])
    }

    /// Generate from a function of (service, data) indices.
    pub fn from_fn(n_w: usize, n_d: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        Self::new(
            (0..n_w)
                .map(|i| (0..n_d).map(|j| f(i, j)).collect())
                .collect(),
        )
    }

    pub fn n_services(&self) -> usize {
        self.t.len()
    }

    pub fn n_data(&self) -> usize {
        self.t[0].len()
    }

    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.t[i][j]
    }

    /// Eq. (1): no data or service parallelism.
    pub fn sigma_sequential(&self) -> f64 {
        self.t.iter().flatten().sum()
    }

    /// Eq. (2): data parallelism only — services run as stages, each
    /// stage lasting as long as its slowest data set.
    pub fn sigma_dp(&self) -> f64 {
        self.t
            .iter()
            .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .sum()
    }

    /// Eq. (3): service parallelism only — the classic pipeline
    /// recursion. `m[i][j]` is the time at which service `i` *starts*
    /// data set `j`.
    #[allow(clippy::needless_range_loop)] // the m[i][j] recursion mirrors the paper's notation
    pub fn sigma_sp(&self) -> f64 {
        let (nw, nd) = (self.n_services(), self.n_data());
        let mut m = vec![vec![0.0f64; nd]; nw];
        // The first row and column are prefix sums: kept running, in
        // `Iterator::sum`'s order and from its -0.0, so each value is
        // the one summing its prefix anew gave.
        let (mut row, mut column) = (-0.0, -0.0);
        for j in 1..nd {
            row += self.t[0][j - 1];
            m[0][j] = row;
        }
        for i in 1..nw {
            column += self.t[i - 1][0];
            m[i][0] = column;
        }
        for i in 1..nw {
            for j in 1..nd {
                m[i][j] = f64::max(
                    self.t[i - 1][j] + m[i - 1][j],
                    self.t[i][j - 1] + m[i][j - 1],
                );
            }
        }
        self.t[nw - 1][nd - 1] + m[nw - 1][nd - 1]
    }

    /// Eq. (4): both parallelisms — each data set flows through the
    /// chain independently.
    pub fn sigma_dsp(&self) -> f64 {
        (0..self.n_data())
            .map(|j| (0..self.n_services()).map(|i| self.t[i][j]).sum())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl TimeMatrix {
    /// Build the critical-path `T[i][j]` matrix of a workflow: row `i`
    /// is the `i`-th service on the critical path, `T[i][j]` its cost
    /// for data set `j` plus `per_job_overhead` — letting the §3.5
    /// formulas *predict* a campaign's makespans before running it.
    ///
    /// Only descriptor-bound services have declared costs (stochastic
    /// models contribute their mean); local services are rejected.
    pub fn from_workflow(
        workflow: &Workflow,
        n_data: usize,
        per_job_overhead: f64,
    ) -> Result<TimeMatrix, MoteurError> {
        Self::from_workflow_with(workflow, n_data, per_job_overhead, |_| 0.0)
    }

    /// Like [`TimeMatrix::from_workflow`], with `extra` seconds added to
    /// every job of each critical-path service — the hook the static
    /// planner uses to charge per-job data-transfer time (eq. 1–4 plus
    /// a transfer term) without duplicating the cost-model evaluation.
    pub fn from_workflow_with(
        workflow: &Workflow,
        n_data: usize,
        per_job_overhead: f64,
        extra: impl Fn(crate::graph::ProcId) -> f64,
    ) -> Result<TimeMatrix, MoteurError> {
        assert!(n_data > 0, "need at least one data set");
        let path = workflow.critical_path()?;
        Self::along(workflow, path, n_data, per_job_overhead, extra)
    }

    /// [`TimeMatrix::from_workflow_with`] along a critical path already
    /// found.
    pub(crate) fn along(
        workflow: &Workflow,
        path: Vec<crate::graph::ProcId>,
        n_data: usize,
        per_job_overhead: f64,
        extra: impl Fn(crate::graph::ProcId) -> f64,
    ) -> Result<TimeMatrix, MoteurError> {
        if path.is_empty() {
            return Err(MoteurError::new("workflow has no services"));
        }
        let mut rows = Vec::with_capacity(path.len());
        for id in path {
            let p = workflow.processor(id);
            let cost = match &p.binding {
                Some(ServiceBinding::Descriptor { profile, .. }) => &profile.compute,
                Some(ServiceBinding::Grouped(g)) => {
                    // Sum of stage costs; evaluated per data index below
                    // via a closure-free two-pass (stochastic stages use
                    // their means).
                    let row: Vec<f64> = (0..n_data)
                        .map(|j| {
                            per_job_overhead
                                + extra(id)
                                + g.stages
                                    .iter()
                                    .map(|s| eval_mean_cost(&s.profile.compute, j))
                                    .sum::<f64>()
                        })
                        .collect();
                    rows.push(row);
                    continue;
                }
                _ => {
                    return Err(MoteurError::new(format!(
                        "`{}` has no declared cost model",
                        p.name
                    )))
                }
            };
            rows.push(
                (0..n_data)
                    .map(|j| per_job_overhead + extra(id) + eval_mean_cost(cost, j))
                    .collect(),
            );
        }
        Ok(TimeMatrix::new(rows))
    }
}

/// Deterministic expectation of a cost model for data index `j`.
fn eval_mean_cost(cost: &CostModel, j: usize) -> f64 {
    match cost {
        CostModel::Fixed(v) => *v,
        CostModel::Stochastic(d) => d.mean(),
        CostModel::ByIndex(f) => f(&DataIndex::single(j as u32)),
    }
}

/// §3.5.4, constant T: speed-up of DP alone, `S_DP = n_D`.
pub fn speedup_dp_constant(n_d: usize) -> f64 {
    n_d as f64
}

/// §3.5.4, constant T: speed-up of SP alone,
/// `S_SP = n_D·n_W / (n_D + n_W − 1)`.
pub fn speedup_sp_constant(n_w: usize, n_d: usize) -> f64 {
    (n_d * n_w) as f64 / (n_d + n_w - 1) as f64
}

/// §3.5.4, constant T: speed-up DP adds when SP is already on,
/// `S_DSP = (n_D + n_W − 1) / n_W`.
pub fn speedup_dp_given_sp_constant(n_w: usize, n_d: usize) -> f64 {
    (n_d + n_w - 1) as f64 / n_w as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_matrix_closed_forms() {
        // §3.5.4: Σ = nD·nW·T, Σ_DP = Σ_DSP = nW·T, Σ_SP = (nD+nW−1)·T.
        let (nw, nd, t) = (5, 12, 7.0);
        let m = TimeMatrix::constant(nw, nd, t);
        assert_eq!(m.sigma_sequential(), nd as f64 * nw as f64 * t);
        assert_eq!(m.sigma_dp(), nw as f64 * t);
        assert_eq!(m.sigma_dsp(), nw as f64 * t);
        assert_eq!(m.sigma_sp(), (nd + nw - 1) as f64 * t);
    }

    #[test]
    fn constant_speedups_match_ratios() {
        let (nw, nd, t) = (5, 126, 3.0);
        let m = TimeMatrix::constant(nw, nd, t);
        assert!((m.sigma_sequential() / m.sigma_dp() - speedup_dp_constant(nd)).abs() < 1e-9);
        assert!((m.sigma_sequential() / m.sigma_sp() - speedup_sp_constant(nw, nd)).abs() < 1e-9);
        assert!((m.sigma_sp() / m.sigma_dsp() - speedup_dp_given_sp_constant(nw, nd)).abs() < 1e-9);
        // SP adds nothing when DP is already on (S_SDP = 1).
        assert!((m.sigma_dp() / m.sigma_dsp() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn massively_data_parallel_limit() {
        // nW = 1: Σ_DP = Σ_DSP = max_j, Σ = Σ_SP = sum_j (§3.5.4).
        let m = TimeMatrix::new(vec![vec![3.0, 9.0, 4.0]]);
        assert_eq!(m.sigma_dp(), 9.0);
        assert_eq!(m.sigma_dsp(), 9.0);
        assert_eq!(m.sigma_sequential(), 16.0);
        assert_eq!(m.sigma_sp(), 16.0);
    }

    #[test]
    fn non_data_intensive_limit() {
        // nD = 1: all four coincide at Σ_i T[i][0].
        let m = TimeMatrix::new(vec![vec![2.0], vec![5.0], vec![1.0]]);
        for v in [
            m.sigma_sequential(),
            m.sigma_dp(),
            m.sigma_sp(),
            m.sigma_dsp(),
        ] {
            assert_eq!(v, 8.0);
        }
    }

    #[test]
    fn fig6_example_sp_beats_dp_alone_under_variable_times() {
        // Fig. 6: 3 services, 3 data; D0 twice as long on P1, D1 three
        // times as long on P2. With variable times Σ_DSP < Σ_DP.
        let t = TimeMatrix::new(vec![
            vec![2.0, 1.0, 1.0], // P1: D0 twice as long
            vec![1.0, 3.0, 1.0], // P2: D1 three times as long
            vec![1.0, 1.0, 1.0], // P3
        ]);
        assert_eq!(t.sigma_dp(), 2.0 + 3.0 + 1.0);
        assert_eq!(t.sigma_dsp(), 5.0, "max_j column sums: (4, 5, 3)");
        assert!(t.sigma_dsp() < t.sigma_dp());
    }

    #[test]
    fn sp_recursion_hand_checked() {
        // 2 services × 2 data, uneven: verify m by hand.
        // t = [[1, 4], [2, 1]]
        // m[0][1] = 1; m[1][0] = 1;
        // m[1][1] = max(t[0][1]+m[0][1], t[1][0]+m[1][0]) = max(5, 3) = 5
        // Σ_SP = t[1][1] + m[1][1] = 6.
        let t = TimeMatrix::new(vec![vec![1.0, 4.0], vec![2.0, 1.0]]);
        assert_eq!(t.sigma_sp(), 6.0);
    }

    #[test]
    fn partial_order_of_sigmas() {
        // Always: Σ_DSP ≤ Σ_DP ≤ Σ and Σ_DSP ≤ Σ_SP ≤ Σ.
        let t = TimeMatrix::from_fn(4, 7, |i, j| 1.0 + ((i * 31 + j * 17) % 13) as f64);
        assert!(t.sigma_dsp() <= t.sigma_dp() + 1e-12);
        assert!(t.sigma_dsp() <= t.sigma_sp() + 1e-12);
        assert!(t.sigma_dp() <= t.sigma_sequential() + 1e-12);
        assert!(t.sigma_sp() <= t.sigma_sequential() + 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_panics() {
        TimeMatrix::new(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn from_workflow_builds_critical_path_rows() {
        use crate::graph::Workflow;
        use crate::service::{ServiceBinding, ServiceProfile};
        use moteur_wrapper::crest_lines_example;
        let mut wf = Workflow::new("w");
        let s = wf.add_source("src");
        let a = wf.add_service(
            "A",
            &["floating_image", "reference_image"],
            &["crest_reference", "crest_floating"],
            ServiceBinding::descriptor(crest_lines_example(), ServiceProfile::new(90.0)),
        );
        let k = wf.add_sink("sink");
        wf.connect(s, "out", a, "floating_image").unwrap();
        wf.connect(s, "out", a, "reference_image").unwrap();
        wf.connect(a, "crest_reference", k, "in").unwrap();
        let t = TimeMatrix::from_workflow(&wf, 3, 100.0).unwrap();
        assert_eq!(t.n_services(), 1);
        assert_eq!(t.n_data(), 3);
        assert_eq!(t.get(0, 0), 190.0, "overhead + compute");
    }

    #[test]
    fn from_workflow_rejects_local_bindings_and_empty_graphs() {
        use crate::graph::Workflow;
        use crate::service::ServiceBinding;
        use crate::token::Token;
        use crate::value::DataValue;
        let mut wf = Workflow::new("w");
        let s = wf.add_source("src");
        let svc = |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> { Ok(vec![]) };
        let a = wf.add_service("A", &["in"], &["out"], ServiceBinding::local(svc));
        wf.connect(s, "out", a, "in").unwrap();
        assert!(TimeMatrix::from_workflow(&wf, 2, 0.0)
            .unwrap_err()
            .to_string()
            .contains("no declared cost model"));
        let empty = Workflow::new("e");
        assert!(TimeMatrix::from_workflow(&empty, 2, 0.0).is_err());
    }

    #[test]
    fn accessors() {
        let t = TimeMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(t.n_services(), 2);
        assert_eq!(t.n_data(), 3);
        assert_eq!(t.get(1, 2), 12.0);
    }
}
