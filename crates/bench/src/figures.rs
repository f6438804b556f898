//! The evidence that is not the campaign: the execution diagrams of
//! Figs. 4–6 and the §3.5 model check on an ideal backend, and the two
//! extensions beyond the paper's figures (SP gain vs overhead
//! variability, §5.4 batch-size trade-off) on purpose-built grids.
//! Each function returns the text `moteur-bench <name>` prints.

use crate::bronze::{bronze_inputs, bronze_workflow};
use moteur::model::{speedup_dp_constant, speedup_dp_given_sp_constant, speedup_sp_constant};
use moteur::prelude::*;
use moteur::{diagram, GranularityModel, TimeMatrix};
use moteur_analysis::Table;
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::fmt::Write as _;

/// A one-file-in, one-file-out executable.
fn pass_through(name: &str) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: vec![InputSlot {
            name: "in".into(),
            option: "-i".into(),
            access: Some(AccessMethod::Gfn),
            bytes: None,
        }],
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-o".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: false,
    }
}

/// `source → services… → sink`, each service a [`pass_through`] named
/// by its profile's position (`P1`, `P2`, …).
fn chain(source: &str, profiles: Vec<ServiceProfile>) -> Workflow {
    let mut wf = Workflow::new("fig1");
    let mut prev = wf.add_source(source);
    for (i, profile) in profiles.into_iter().enumerate() {
        let name = format!("P{}", i + 1);
        let binding = ServiceBinding::descriptor(pass_through(&name), profile);
        let svc = wf.add_service(&name, &["in"], &["out"], binding);
        wf.connect(prev, "out", svc, "in")
            .expect("ports of the chain exist");
        prev = svc;
    }
    let sink = wf.add_sink("sink");
    wf.connect(prev, "out", sink, "in")
        .expect("ports of the chain exist");
    wf
}

fn files(source: &str, n: usize, bytes: u64) -> InputData {
    let file = |j| DataValue::File {
        gfn: format!("gfn://d{j}"),
        bytes,
    };
    InputData::new().set(source, (0..n).map(file).collect())
}

/// Enact the Fig. 1 chain P1 → P2 → P3… with the per-(service, data)
/// durations of `t` on an ideal backend.
fn enact_matrix(t: &TimeMatrix, config: EnactorConfig) -> Result<WorkflowResult, MoteurError> {
    let profiles = (0..t.n_services()).map(|i| {
        let row: Vec<f64> = (0..t.n_data()).map(|j| t.get(i, j)).collect();
        ServiceProfile::new(0.0).with_cost(CostModel::by_index(move |idx| row[idx.0[0] as usize]))
    });
    let workflow = chain("source", profiles.collect());
    let mut backend = VirtualBackend::new();
    Enactment::new(&workflow, &files("source", t.n_data(), 0), config).run(&mut backend)
}

/// E4/E5/E6 — the execution diagrams of **Figures 4, 5 and 6**: the
/// Fig. 1 three-service chain over three data sets under data
/// parallelism (Fig. 4), service parallelism (Fig. 5), and both with
/// non-constant execution times (Fig. 6, with/without SP).
pub fn diagrams() -> Result<String, MoteurError> {
    let constant = TimeMatrix::constant(3, 3, 1.0);
    // Fig. 6: D0 takes twice as long on P1 (submitted twice after an
    // error); D1 takes three times as long on P2 (blocked in a queue).
    let variable = TimeMatrix::new(vec![
        vec![2.0, 1.0, 1.0],
        vec![1.0, 3.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ]);
    let figures = [
        (
            "Figure 4: data-parallel execution (DP on, SP off), constant T",
            "DP",
            &constant,
            EnactorConfig::dp(),
        ),
        (
            "Figure 5: service-parallel execution (SP on, DP off), constant T",
            "SP",
            &constant,
            EnactorConfig::sp(),
        ),
        (
            "Figure 6 left: DP only, variable T",
            "DP, variable T",
            &variable,
            EnactorConfig::dp(),
        ),
        (
            "Figure 6 right: DP + SP, variable T (computations overlap)",
            "DP+SP, variable T",
            &variable,
            EnactorConfig::sp_dp(),
        ),
    ];
    let mut out = String::new();
    let mut totals = Vec::new();
    for (heading, title, t, config) in figures {
        let result = enact_matrix(t, config)?;
        let total = result.makespan.as_secs_f64();
        let _ = writeln!(out, "=== {heading} ===\n{title}  (total {total} s)");
        let rows = diagram::render(&result.invocations, &["P3", "P2", "P1"]);
        let _ = writeln!(out, "{rows}");
        totals.push(total);
    }
    let _ = writeln!(
        out,
        "Fig. 6 conclusion: with variable execution times, enabling SP on top of DP\n\
         shortens the makespan ({} s -> {} s) even though the constant-time model\n\
         predicts no gain (S_SDP = 1).",
        totals[2], totals[3]
    );
    Ok(out)
}

/// E7 — the §3.5 theoretical model: the four Σ expressions and the
/// asymptotic speed-ups for the paper's application shape (n_W = 5,
/// n_D ∈ {12, 66, 126}) under the constant-time assumption, checked
/// against the enactor on an ideal backend.
pub fn theory() -> Result<String, MoteurError> {
    let nw = 5; // the paper's application: 5 services on the critical path
    let t_unit = 100.0;
    let mut table = Table::new(&[
        "n_D",
        "Sigma",
        "Sigma_DP",
        "Sigma_SP",
        "Sigma_DSP",
        "S_DP",
        "S_SP",
        "S_DSP",
        "enactor=model",
    ]);
    for nd in [12usize, 66, 126] {
        let t = TimeMatrix::constant(nw, nd, t_unit);
        let (seq, dp, sp, dsp) = (
            t.sigma_sequential(),
            t.sigma_dp(),
            t.sigma_sp(),
            t.sigma_dsp(),
        );
        // Enactor agreement on the smallest case (larger ones follow by
        // the tested invariants; keep the command fast).
        let agree = if nd == 12 {
            let mut ok = true;
            for (config, sigma) in [
                (EnactorConfig::nop(), seq),
                (EnactorConfig::dp(), dp),
                (EnactorConfig::sp(), sp),
                (EnactorConfig::sp_dp(), dsp),
            ] {
                let measured = enact_matrix(&t, config)?.makespan.as_secs_f64();
                ok &= (measured - sigma).abs() < 1e-6;
            }
            if ok {
                "yes"
            } else {
                "NO"
            }
        } else {
            "-"
        };
        table.add_row(vec![
            nd.to_string(),
            format!("{seq:.0}"),
            format!("{dp:.0}"),
            format!("{sp:.0}"),
            format!("{dsp:.0}"),
            format!("{:.2}", speedup_dp_constant(nd)),
            format!("{:.2}", speedup_sp_constant(nw, nd)),
            format!("{:.2}", speedup_dp_given_sp_constant(nw, nd)),
            agree.to_string(),
        ]);
    }
    Ok(format!(
        "S3.5 theoretical model, constant T = {t_unit} s, n_W = {nw}\n\n\
         {}\n\
         Under constant T, SP adds nothing once DP is on (Sigma_DP = Sigma_DSP);\n\
         the production-grid experiments (table1/speedups) show why that breaks:\n\
         grid overhead is large and variable, so T is never constant (S3.5.4).\n",
        table.render()
    ))
}

/// An unloaded, failure-free grid of one large CE: whatever the caller
/// makes stochastic is the only stochastic element.
fn quiet_grid() -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        info_refresh_period: 3600.0,
        ..GridConfig::ideal()
    }
}

/// Mean makespan of `config` over grid seeds `0..repeats`.
fn mean_makespan(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    grid: &GridConfig,
    repeats: u64,
) -> Result<f64, MoteurError> {
    let mut total = 0.0;
    for seed in 0..repeats {
        let mut backend = SimBackend::new(grid.clone(), seed);
        let result = Enactment::new(workflow, inputs, config).run(&mut backend)?;
        total += result.makespan.as_secs_f64();
    }
    Ok(total / repeats as f64)
}

/// E13 — ablation (DESIGN.md §5, beyond the paper's figures): how the
/// SP-over-DP speed-up depends on grid-overhead *variability*.
///
/// §3.5.4 proves S_SDP = 1 under constant execution times and argues
/// the measured ≈2× comes entirely from the production grid's
/// variability. This sweeps the matchmaking delay's lognormal shape σ
/// while holding its *mean* fixed, runs the Bronze-Standard workflow
/// under DP and DP+SP, and shows the speed-up rising from ≈1 with the
/// variability — a quantitative confirmation of the paper's argument.
pub fn ablation(quick: bool) -> Result<String, MoteurError> {
    let n_pairs = if quick { 6 } else { 20 };
    let (mean, repeats) = (500.0, 5);
    let workflow = bronze_workflow();
    let inputs = bronze_inputs(n_pairs);
    let mut table = Table::new(&["overhead sigma", "DP (s)", "DP+SP (s)", "SP speed-up"]);
    for sigma in [0.0_f64, 0.3, 0.6, 0.9, 1.2, 1.5] {
        // mean = median·exp(σ²/2)  ⇒  median = mean·exp(−σ²/2).
        let median = mean * (-sigma * sigma / 2.0).exp();
        let grid = GridConfig {
            submission_overhead: Distribution::Constant(60.0),
            match_delay: if sigma == 0.0 {
                Distribution::Constant(mean)
            } else {
                Distribution::LogNormal { median, sigma }
            },
            notify_delay: Distribution::Constant(30.0),
            network: NetworkConfig {
                transfer_latency: 5.0,
                bandwidth: 2.0e6,
                congestion: 0.0,
            },
            typical_job_duration: 600.0,
            ..quiet_grid()
        };
        let dp = mean_makespan(&workflow, &inputs, EnactorConfig::dp(), &grid, repeats)?;
        let dsp = mean_makespan(&workflow, &inputs, EnactorConfig::sp_dp(), &grid, repeats)?;
        table.add_row(vec![
            format!("{sigma:.1}"),
            format!("{dp:.0}"),
            format!("{dsp:.0}"),
            format!("{:.2}x", dp / dsp),
        ]);
    }
    Ok(format!(
        "SP benefit vs overhead variability ({n_pairs} image pairs, mean overhead {mean:.0} s, {repeats} seeds)\n\n\
         {}\n\
         At sigma = 0 the speed-up collapses towards the theoretical S_SDP = 1;\n\
         it grows with the variability — the paper's explanation of its S5.2 result.\n",
        table.render()
    ))
}

/// E14 — §5.4 future work: the data-batching granularity swept on the
/// simulated grid against the probabilistic model's optimal batch size.
///
/// A single-service, massively data-parallel workflow (the §3.5.4
/// "massively data-parallel" limit) processes `n` data with batch
/// size g ∈ {1, 2, …}: larger batches pay fewer draws from the heavy
/// tailed overhead distribution but serialise more compute.
pub fn granularity() -> Result<String, MoteurError> {
    let n_data = 126;
    let compute = 60.0;
    let (median, sigma) = (300.0, 1.0);
    let repeats = 8;

    let workflow = chain("data", vec![ServiceProfile::new(compute)]);
    let inputs = files("data", n_data, 1_000);
    let grid = GridConfig {
        submission_overhead: Distribution::LogNormal { median, sigma },
        typical_job_duration: 300.0,
        ..quiet_grid()
    };
    let model = GranularityModel {
        overhead_median: median,
        overhead_sigma: sigma,
        compute_seconds: compute,
        n_data,
    };
    let mut table = Table::new(&[
        "batch g",
        "jobs",
        "simulated makespan (s)",
        "model prediction (s)",
    ]);
    for g in [1usize, 2, 3, 4, 6, 9, 14, 21, 42, 126] {
        let config = EnactorConfig::sp_dp().with_batching(g);
        let simulated = mean_makespan(&workflow, &inputs, config, &grid, repeats)?;
        table.add_row(vec![
            g.to_string(),
            n_data.div_ceil(g).to_string(),
            format!("{simulated:.0}"),
            format!("{:.0}", model.expected_makespan(g)),
        ]);
    }
    Ok(format!(
        "Batch-size sweep: {n_data} data, {compute:.0} s compute each, lognormal overhead (median {median:.0} s, sigma {sigma})\n\n\
         {}\n\
         model-recommended batch size: g* = {} (expected makespan {:.0} s)\n\
         The measured optimum should sit near g*: the trade-off between data\n\
         parallelism and per-job overhead that the paper left as future work.\n",
        table.render(),
        model.optimal_batch(),
        model.expected_makespan(model.optimal_batch())
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_diagrams_show_the_paper_totals() {
        let text = diagrams().unwrap();
        for total in [
            "DP  (total 3 s)",
            "SP  (total 5 s)",
            "DP, variable T  (total 6 s)",
            "DP+SP, variable T  (total 5 s)",
            "(6 s -> 5 s)",
        ] {
            assert!(text.contains(total), "{total}: {text}");
        }
    }

    #[test]
    fn the_enactor_agrees_with_the_model() {
        let text = theory().unwrap();
        assert!(text.contains(" yes\n"), "{text}");
        assert!(!text.contains("NO"), "{text}");
    }

    #[test]
    fn without_variability_sp_adds_nothing_to_dp() {
        let text = ablation(true).unwrap();
        let constant = text.lines().find(|l| l.starts_with("0.0")).expect("row");
        assert!(constant.ends_with("1.00x"), "{text}");
    }
}
