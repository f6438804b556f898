//! Static makespan/job-count prediction (`moteur lint --predict`).
//!
//! Evaluates the paper's closed forms (eq. 1–4, §3.5) over the
//! workflow's declared cost models *without enacting anything*: for a
//! campaign of `n_data` input sets it predicts, per parallelism
//! configuration, how many grid jobs would be submitted and what the
//! makespan would be. The same [`TimeMatrix`] the enactor-vs-model
//! tests validate does the arithmetic, so the prediction agrees with
//! `moteur run` on an ideal backend by construction.

use crate::error::MoteurError;
use crate::graph::{GraphIndex, ProcessorKind, Workflow};
use crate::model::TimeMatrix;
use crate::obs::json::{array, JsonObject, JsonValue};
use crate::plan::central_transfer_seconds;
use crate::plan::facts::{SourceSizes, StaticFacts};
use std::fmt::Write as _;

/// One configuration's predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionRow {
    /// Configuration label, matching `moteur run --config`.
    pub config: &'static str,
    /// Grid jobs the campaign would submit.
    pub jobs: u64,
    /// Predicted makespan in seconds (eq. 1–4 on the critical path).
    pub makespan: f64,
}

/// The full prediction for one workflow and campaign size.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Input-set size the campaign was predicted for.
    pub n_data: usize,
    /// Per-job grid latency assumed (seconds).
    pub overhead: f64,
    /// Services on the critical path (the paper's `n_W`).
    pub n_services: usize,
    /// One row per enactment configuration, `nop` first.
    pub rows: Vec<PredictionRow>,
}

impl Prediction {
    /// The row for one configuration label (`"sp+dp"`, ...).
    pub fn row(&self, config: &str) -> Option<&PredictionRow> {
        self.rows.iter().find(|r| r.config == config)
    }
}

/// Predict job counts and makespans for every enactment configuration.
///
/// `overhead` is the per-job grid latency (the paper's submission +
/// scheduling overhead), added to every job's duration.
pub fn predict(wf: &Workflow, n_data: usize, overhead: f64) -> Result<Prediction, MoteurError> {
    // Infinite bandwidth makes every transfer free — eq. 1–4 verbatim.
    predict_with_transfer(wf, n_data, overhead, f64::INFINITY)
}

/// Like [`predict`], with each job additionally charged the time to
/// move its input and output items through the central enactor at
/// `bandwidth` bytes/s (item sizes from the static transfer model).
/// Grouped configurations benefit twice: fewer jobs *and* no transfers
/// on the edges a group internalizes.
pub fn predict_with_transfer(
    wf: &Workflow,
    n_data: usize,
    overhead: f64,
    bandwidth: f64,
) -> Result<Prediction, MoteurError> {
    if n_data == 0 {
        return Err(MoteurError::new("prediction needs at least one data set"));
    }
    // One index per graph: the written graph's serves grouping and its
    // own pricing; the grouped graph's comes with it.
    let graph = GraphIndex::of(wf);
    let grouped = crate::grouping::group(wf, &graph)?;
    let base = price(wf, graph, n_data, overhead, bandwidth)?;
    let ((base, base_jobs), (grouped, grouped_jobs)) = match grouped {
        Some((grouped, graph)) => (base, price(&grouped, graph, n_data, overhead, bandwidth)?),
        None => (base.clone(), base),
    };
    let rows = [
        ("nop", base_jobs, base.sigma_sequential()),
        ("jg", grouped_jobs, grouped.sigma_sequential()),
        ("dp", base_jobs, base.sigma_dp()),
        ("sp", base_jobs, base.sigma_sp()),
        ("sp+dp", base_jobs, base.sigma_dsp()),
        ("sp+dp+jg", grouped_jobs, grouped.sigma_dsp()),
    ];
    Ok(Prediction {
        n_data,
        overhead,
        n_services: base.n_services(),
        rows: (rows.into_iter())
            .map(|(config, jobs, makespan)| PredictionRow {
                config,
                jobs,
                makespan,
            })
            .collect(),
    })
}

/// One graph's eq. 1–4 matrix, each job charged its central transfers,
/// and the jobs a campaign submits — both from one static analysis.
fn price(
    wf: &Workflow,
    graph: GraphIndex,
    n_data: usize,
    overhead: f64,
    bandwidth: f64,
) -> Result<(TimeMatrix, u64), MoteurError> {
    let facts = StaticFacts::of(wf, graph, &SourceSizes::uniform(n_data as u64));
    let xfer = central_transfer_seconds(wf, &facts, bandwidth);
    let path = wf.critical_path_in(&facts.graph)?;
    let matrix = TimeMatrix::along(wf, path, n_data, overhead, |id| {
        xfer.get(&wf.processor(id).name).copied().unwrap_or(0.0)
    })?;
    // One job per service invocation. Barriers fire once; other
    // services once per item of their output stream, defaulting to
    // `n_data` when its monomial is unknown.
    let jobs = wf
        .processors
        .iter()
        .zip(&facts.out)
        .filter(|(p, _)| p.kind == ProcessorKind::Service)
        .map(|(p, card)| {
            if p.synchronization {
                1
            } else {
                card.count(n_data).unwrap_or(n_data as u64)
            }
        })
        .sum();
    Ok((matrix, jobs))
}

/// Render the prediction as an aligned table.
pub fn render_prediction(pred: &Prediction) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "prediction for n_data = {}, per-job overhead = {}s, critical path = {} services \
         (eq. 1-4, §3.5):",
        pred.n_data, pred.overhead, pred.n_services
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>14}",
        "config", "jobs", "makespan(s)"
    );
    for r in &pred.rows {
        let _ = writeln!(out, "  {:<10} {:>8} {:>14.2}", r.config, r.jobs, r.makespan);
    }
    out
}

/// Serialise the prediction for `moteur lint --predict --json`.
pub fn prediction_to_json(pred: &Prediction) -> String {
    let rows = pred.rows.iter().map(|r| {
        JsonObject::new()
            .str("config", r.config)
            .uint("jobs", r.jobs)
            .num("makespan", r.makespan)
            .finish()
    });
    JsonObject::new()
        .uint("n_data", pred.n_data as u64)
        .num("overhead", pred.overhead)
        .uint("n_services", pred.n_services as u64)
        .raw("rows", &array(rows))
        .finish()
}

/// The closed set of configuration keys a prediction can contain, in
/// row order.
pub const CONFIG_KEYS: [&str; 6] = ["nop", "jg", "dp", "sp", "sp+dp", "sp+dp+jg"];

/// Parse a prediction back from its [`prediction_to_json`] rendering —
/// the machine-readable contract of `moteur lint --predict --json` that
/// the drift layer and external tools consume.
pub fn prediction_from_json(json: &str) -> Result<Prediction, MoteurError> {
    let bad = |what: &str| MoteurError::new(format!("prediction JSON: {what}"));
    let value = JsonValue::parse(json).map_err(|e| bad(&format!("parse error: {e}")))?;
    let n_data = value
        .u64_at("n_data")
        .ok_or_else(|| bad("missing n_data"))? as usize;
    let overhead = value
        .f64_at("overhead")
        .ok_or_else(|| bad("missing overhead"))?;
    let n_services = value
        .u64_at("n_services")
        .ok_or_else(|| bad("missing n_services"))? as usize;
    let rows = value.array_at("rows").ok_or_else(|| bad("missing rows"))?;
    let mut parsed = Vec::with_capacity(rows.len());
    for row in rows {
        let config_str = row
            .str_at("config")
            .ok_or_else(|| bad("row missing config"))?;
        // Configs are a closed set; intern against it rather than leak.
        let config = CONFIG_KEYS
            .iter()
            .find(|k| **k == config_str)
            .copied()
            .ok_or_else(|| bad(&format!("unknown config '{config_str}'")))?;
        parsed.push(PredictionRow {
            config,
            jobs: row.u64_at("jobs").ok_or_else(|| bad("row missing jobs"))?,
            makespan: row
                .f64_at("makespan")
                .ok_or_else(|| bad("row missing makespan"))?,
        });
    }
    Ok(Prediction {
        n_data,
        overhead,
        n_services,
        rows: parsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceBinding, ServiceProfile};
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

    fn desc(name: &str, input: &str, output: &str) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: vec![InputSlot {
                name: input.into(),
                option: "-i".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            }],
            outputs: vec![OutputSlot {
                name: output.into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    /// source → s0 → s1 → s2 → s3 → s4 → sink, each costing `t`.
    fn chain(n_w: usize, t: f64) -> Workflow {
        let mut wf = Workflow::new("chain");
        let src = wf.add_source("src");
        let mut prev = src;
        let mut prev_port = "out".to_string();
        for i in 0..n_w {
            let name = format!("s{i}");
            let svc = wf.add_service(
                &name,
                &["in"],
                &["out"],
                ServiceBinding::descriptor(desc(&name, "in", "out"), ServiceProfile::new(t)),
            );
            wf.connect(prev, &prev_port, svc, "in").unwrap();
            prev = svc;
            prev_port = "out".to_string();
        }
        let sink = wf.add_sink("sink");
        wf.connect(prev, "out", sink, "in").unwrap();
        wf
    }

    /// One index per graph: the written chain's serves grouping and its
    /// pricing, and grouping hands over the grouped graph's.
    #[test]
    fn a_prediction_indexes_each_graph_once() {
        let count = || crate::graph::INDEX_BUILDS.with(std::cell::Cell::get);
        let before = count();
        predict(&chain(5, 100.0), 12, 0.0).unwrap();
        assert_eq!(count() - before, 2);
        let before = count();
        predict(&chain(1, 100.0), 12, 0.0).unwrap();
        assert_eq!(count() - before, 1, "nothing merges: one graph");
    }

    #[test]
    fn constant_chain_matches_the_papers_closed_forms() {
        // §3.5.4 with T constant: Σ = n_D·n_W·T, Σ_DP = Σ_DSP = n_W·T,
        // Σ_SP = (n_D + n_W − 1)·T — the `theory` bench's table.
        let (n_w, t) = (5, 100.0);
        let wf = chain(n_w, t);
        for n_d in [12usize, 66, 126] {
            let p = predict(&wf, n_d, 0.0).unwrap();
            assert_eq!(p.n_services, n_w);
            let tol = 1e-9;
            assert!((p.row("nop").unwrap().makespan - (n_d * n_w) as f64 * t).abs() < tol);
            assert!((p.row("dp").unwrap().makespan - n_w as f64 * t).abs() < tol);
            assert!((p.row("sp+dp").unwrap().makespan - n_w as f64 * t).abs() < tol);
            assert!((p.row("sp").unwrap().makespan - (n_d + n_w - 1) as f64 * t).abs() < tol);
            // The whole chain groups into one job per data set.
            assert_eq!(p.row("nop").unwrap().jobs, (n_d * n_w) as u64);
            assert_eq!(p.row("jg").unwrap().jobs, n_d as u64);
            assert!((p.row("jg").unwrap().makespan - (n_d * n_w) as f64 * t).abs() < tol);
            assert!((p.row("sp+dp+jg").unwrap().makespan - n_w as f64 * t).abs() < tol);
        }
    }

    #[test]
    fn overhead_is_charged_per_job() {
        let wf = chain(2, 10.0);
        let p = predict(&wf, 3, 5.0).unwrap();
        // nop: 3 data × 2 services × (10 + 5).
        assert!((p.row("nop").unwrap().makespan - 90.0).abs() < 1e-9);
        // jg: one grouped job per data set = 3 × (5 + 20).
        assert!((p.row("jg").unwrap().makespan - 75.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_term_charges_declared_item_sizes() {
        // src (2 MB/item) → a (1 MB outputs) → b (1 MB outputs) → sink,
        // 1 MB/s links: a moves 3 MB per job, b 2 MB.
        let mut wf = Workflow::new("xfer");
        let src = wf.add_source("src");
        wf.set_item_bytes(src, 2_000_000);
        let a = wf.add_service(
            "a",
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                desc("a", "in", "out"),
                ServiceProfile::new(10.0).with_output_bytes("out", 1_000_000),
            ),
        );
        let b = wf.add_service(
            "b",
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                desc("b", "in", "out"),
                ServiceProfile::new(10.0).with_output_bytes("out", 1_000_000),
            ),
        );
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", b, "in").unwrap();
        wf.connect(b, "out", sink, "in").unwrap();

        let free = predict(&wf, 4, 0.0).unwrap();
        let priced = predict_with_transfer(&wf, 4, 0.0, 1.0e6).unwrap();
        let tol = 1e-9;
        assert!((free.row("sp+dp").unwrap().makespan - 20.0).abs() < tol);
        // (10 + 3) + (10 + 2) per data set.
        assert!((priced.row("sp+dp").unwrap().makespan - 25.0).abs() < tol);
        // Grouping internalizes a→b: the grouped job moves only the
        // 2 MB input and the final 1 MB output.
        assert!(
            priced.row("sp+dp+jg").unwrap().makespan < priced.row("sp+dp").unwrap().makespan - tol
        );
    }

    #[test]
    fn rejects_empty_campaigns() {
        let wf = chain(1, 1.0);
        assert!(predict(&wf, 0, 0.0).is_err());
        assert!(predict(&wf, 1, 0.0).is_ok());
    }

    #[test]
    fn render_and_json_contain_every_config() {
        let wf = chain(2, 10.0);
        let p = predict(&wf, 4, 0.0).unwrap();
        let table = render_prediction(&p);
        let json = prediction_to_json(&p);
        for config in ["nop", "jg", "dp", "sp", "sp+dp", "sp+dp+jg"] {
            assert!(table.contains(config), "table missing {config}");
            assert!(json.contains(&format!("\"config\":\"{config}\"")));
        }
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(parsed.get("rows").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let wf = chain(3, 7.5);
        let original = predict(&wf, 12, 2.5).unwrap();
        let recovered = prediction_from_json(&prediction_to_json(&original)).unwrap();
        assert_eq!(recovered, original);
    }

    #[test]
    fn malformed_prediction_json_is_rejected_with_context() {
        for (input, what) in [
            ("not json", "parse error"),
            ("{}", "missing n_data"),
            (
                "{\"n_data\":1,\"overhead\":0,\"n_services\":1}",
                "missing rows",
            ),
            (
                "{\"n_data\":1,\"overhead\":0,\"n_services\":1,\
                 \"rows\":[{\"config\":\"warp9\",\"jobs\":1,\"makespan\":1}]}",
                "unknown config",
            ),
            (
                "{\"n_data\":1,\"overhead\":0,\"n_services\":1,\
                 \"rows\":[{\"config\":\"nop\",\"makespan\":1}]}",
                "row missing jobs",
            ),
        ] {
            let err = prediction_from_json(input).unwrap_err().to_string();
            assert!(err.contains(what), "{input} -> {err}");
        }
    }
}
