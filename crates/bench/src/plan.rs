//! Static-plan benchmark: does `moteur plan` predict what the enactor
//! actually moves?
//!
//! Two workflows run on the frictionless grid with a [`TimelineSink`]
//! attached, which accumulates the observed bytes staged per (consumer,
//! input port) from the enactor's `edge_staged` events:
//!
//! - **bronze** — the Fig. 9 DAG, dot iteration plus a synchronization
//!   barrier, with source sizes declared to match the actual input
//!   files.
//! - **cross** — a two-source cross-product sweep into a barrier, so
//!   the quadratic invocation count (and its re-fetch of every input
//!   per tuple) must be bounded too.
//!
//! The gate requires *containment*: every statically derived per-edge
//! byte interval must contain the observed per-(consumer, port) total.
//! Separately, on a data-heavy bronze variant (crest lines as large as
//! the images they trace) the partitioned makespan prediction must beat
//! the centralized one — the planner's grouping recommendation has to
//! pay for itself in its own cost model.

use crate::bronze::{bronze_inputs, bronze_workflow, bronze_workflow_xml, IMAGE_BYTES};
use moteur::obs::json::JsonObject;
use moteur::{
    plan_workflow, CardInterval, DataValue, Enactment, EnactorConfig, FtConfig, InputData,
    MoteurError, Obs, PlanOptions, SimBackend, SourceSizes, TimelineSink, Workflow,
};
use moteur_gridsim::GridConfig;
use moteur_scufl::parse_workflow;

/// Schema tag of [`render_plan_bench_json`].
pub const PLAN_BENCH_SCHEMA: &str = "moteur-bench/plan/v1";

/// Per-item payload of the cross-sweep workflow's sources (1 MiB).
const CROSS_ITEM_BYTES: u64 = 1_048_576;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Input-set size per source (bronze pairs / cross items).
    pub n_data: usize,
    /// Simulation seed (the ideal grid is deterministic anyway).
    pub seed: u64,
}

impl Default for PlanSpec {
    fn default() -> Self {
        PlanSpec {
            n_data: 6,
            seed: 2006,
        }
    }
}

/// One edge's static-vs-observed comparison.
#[derive(Debug, Clone)]
pub struct EdgeCheck {
    /// Consumer processor.
    pub to: String,
    /// Consumer input port.
    pub to_port: String,
    /// Static transfer-volume bound from `moteur plan`.
    pub bytes: CardInterval,
    /// Bytes the enactor actually staged onto this port, summed over
    /// the campaign.
    pub observed: u64,
    /// `bytes.contains(observed)`.
    pub contained: bool,
}

/// What one workflow's run measured.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// `"bronze"` or `"cross"`.
    pub scenario: &'static str,
    /// Grid edges only (enactor-internal sink deliveries are not
    /// staged into jobs and carry no observable transfer).
    pub edges: Vec<EdgeCheck>,
    /// Observed makespan on the ideal grid (context, not gated).
    pub makespan_secs: f64,
    /// Jobs the enactor submitted.
    pub jobs_submitted: usize,
}

impl PlanOutcome {
    /// Did every static interval contain its observed total?
    pub fn all_contained(&self) -> bool {
        !self.edges.is_empty() && self.edges.iter().all(|e| e.contained)
    }
}

/// The full benchmark result (`BENCH_plan.json`).
#[derive(Debug, Clone)]
pub struct PlanBenchReport {
    /// Campaign shape the report was produced under.
    pub spec: PlanSpec,
    /// One outcome per workflow.
    pub outcomes: Vec<PlanOutcome>,
    /// Predicted centralized makespan of the data-heavy bronze variant.
    pub heavy_centralized: f64,
    /// Predicted makespan with the greedy site partition applied.
    pub heavy_partitioned: f64,
}

impl PlanBenchReport {
    /// The named outcome.
    pub fn outcome(&self, scenario: &str) -> Option<&PlanOutcome> {
        self.outcomes.iter().find(|o| o.scenario == scenario)
    }

    /// The gate's verdict ([`crate::gate::PLAN`]) on this report.
    pub fn ok(&self) -> bool {
        crate::gate::PLAN.passes(&render_plan_bench_json(self))
    }
}

/// The Fig. 9 workflow with crest lines as heavy as the images they
/// trace: the crestLines → crestMatch edges now dominate, so the
/// partitioner's first merge internalizes real volume.
fn data_heavy_bronze() -> Workflow {
    let xml =
        bronze_workflow_xml().replace(r#"bytes="400000""#, &format!("bytes=\"{IMAGE_BYTES}\""));
    parse_workflow(&xml).expect("the data-heavy bronze variant is valid")
}

/// A two-source cross-product sweep feeding a barrier: `n²` service
/// invocations, each re-fetching one item per port.
fn cross_workflow_xml() -> String {
    format!(
        r#"<scufl name="cross-sweep">
  <source name="paramsA" bytes="{CROSS_ITEM_BYTES}"/>
  <source name="paramsB" bytes="{CROSS_ITEM_BYTES}"/>
  <processor name="sweep" compute="30" iteration="cross">
    <executable name="sweep">
      <access type="URL"><path value="http://example.org"/></access>
      <value value="sweep"/>
      <input name="a" option="-a"><access type="GFN"/></input>
      <input name="b" option="-b"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="4096"/>
  </processor>
  <processor name="reduce" compute="10" sync="true">
    <executable name="reduce">
      <access type="URL"><path value="http://example.org"/></access>
      <value value="reduce"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="best" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="best" bytes="512"/>
  </processor>
  <sink name="result"/>
  <link from="paramsA:out" to="sweep:a"/>
  <link from="paramsB:out" to="sweep:b"/>
  <link from="sweep:out" to="reduce:in"/>
  <link from="reduce:best" to="result:in"/>
</scufl>"#
    )
}

fn cross_inputs(n_data: usize) -> InputData {
    let files = |prefix: &str| -> Vec<DataValue> {
        (0..n_data)
            .map(|j| DataValue::File {
                gfn: format!("gfn://sweep/{prefix}{j:03}.dat"),
                bytes: CROSS_ITEM_BYTES,
            })
            .collect()
    };
    InputData::new()
        .set("paramsA", files("a"))
        .set("paramsB", files("b"))
}

/// Run both workflows and compare static bounds against observed
/// per-edge staging.
pub fn run_plan_bench(spec: &PlanSpec) -> Result<PlanBenchReport, MoteurError> {
    if spec.n_data == 0 {
        return Err(MoteurError::new("plan benchmark needs n_data > 0"));
    }
    let n = spec.n_data as u64;
    // Bronze's method list always has one item, whatever the pair count.
    let bronze_sizes = SourceSizes::uniform(n).with("methodToTest", 1);
    let scenarios: [(&'static str, Workflow, InputData, SourceSizes); 2] = [
        (
            "bronze",
            bronze_workflow(),
            bronze_inputs(spec.n_data),
            bronze_sizes.clone(),
        ),
        (
            "cross",
            parse_workflow(&cross_workflow_xml()).expect("the cross-sweep workflow is valid"),
            cross_inputs(spec.n_data),
            SourceSizes::uniform(n),
        ),
    ];
    let ft = FtConfig::from_legacy(3);
    let mut outcomes = Vec::new();
    for (scenario, wf, inputs, sizes) in scenarios {
        let opts = PlanOptions {
            sizes,
            ..PlanOptions::default()
        };
        let plan = plan_workflow(&wf, &opts);
        let sink = TimelineSink::new();
        let state = sink.state();
        let obs = Obs::new(vec![Box::new(sink)]);
        let mut backend = SimBackend::with_obs(GridConfig::ideal(), spec.seed, &obs);
        let config = EnactorConfig::sp_dp().with_seed(spec.seed);
        let result = Enactment::new(&wf, &inputs, config)
            .ft(&ft)
            .obs(obs)
            .run(&mut backend)?;
        let state = state.lock().expect("timeline state");
        let edges = plan
            .edges
            .iter()
            .filter(|e| e.grid)
            .map(|e| {
                let observed = state
                    .stats
                    .edge_bytes
                    .get(&(e.to.clone(), e.to_port.clone()))
                    .copied()
                    .unwrap_or(0);
                EdgeCheck {
                    to: e.to.clone(),
                    to_port: e.to_port.clone(),
                    bytes: e.bytes,
                    observed,
                    contained: e.bytes.contains(observed),
                }
            })
            .collect();
        outcomes.push(PlanOutcome {
            scenario,
            edges,
            makespan_secs: result.makespan.as_secs_f64(),
            jobs_submitted: result.jobs_submitted,
        });
    }
    let heavy = plan_workflow(
        &data_heavy_bronze(),
        &PlanOptions {
            sizes: bronze_sizes,
            ..PlanOptions::default()
        },
    );
    let heavy_centralized = heavy.makespan_centralized.ok_or_else(|| {
        MoteurError::new("data-heavy bronze variant is acyclic, expected makespan")
    })?;
    let heavy_partitioned = heavy.makespan_partitioned.ok_or_else(|| {
        MoteurError::new("data-heavy bronze variant is acyclic, expected makespan")
    })?;
    Ok(PlanBenchReport {
        spec: spec.clone(),
        outcomes,
        heavy_centralized,
        heavy_partitioned,
    })
}

/// Serialise the report (`BENCH_plan.json`).
pub fn render_plan_bench_json(report: &PlanBenchReport) -> String {
    let outcomes = moteur::obs::json::array(report.outcomes.iter().map(|o| {
        let edges = moteur::obs::json::array(o.edges.iter().map(|e| {
            let obj = JsonObject::new()
                .str("to", &e.to)
                .str("to_port", &e.to_port)
                .uint("bytes_lo", e.bytes.lo);
            let obj = match e.bytes.hi {
                Some(hi) => obj.uint("bytes_hi", hi),
                None => obj.raw("bytes_hi", "null"),
            };
            obj.uint("observed", e.observed)
                .bool("contained", e.contained)
                .finish()
        }));
        JsonObject::new()
            .str("scenario", o.scenario)
            .num("makespan_secs", o.makespan_secs)
            .uint("jobs_submitted", o.jobs_submitted as u64)
            .bool("all_contained", o.all_contained())
            .raw("edges", &edges)
            .finish()
    }));
    crate::gate::PLAN.render_with_verdict(|ok| {
        JsonObject::new()
            .str("schema", PLAN_BENCH_SCHEMA)
            .uint("n_data", report.spec.n_data as u64)
            .uint("seed", report.spec.seed)
            .num("heavy_centralized_secs", report.heavy_centralized)
            .num("heavy_partitioned_secs", report.heavy_partitioned)
            .bool("ok", ok)
            .raw("scenarios", &outcomes)
            .finish()
    })
}

/// Human rendering, one workflow per block.
pub fn render_plan_bench(report: &PlanBenchReport) -> String {
    use std::fmt::Write as _;
    let failed = crate::gate::PLAN.failures(&render_plan_bench_json(report));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "static plan vs observed staging: n_data {} (seed {})",
        report.spec.n_data, report.spec.seed,
    );
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "  {:<8} makespan {:>9.1} s  {} jobs  {} grid edges",
            o.scenario,
            o.makespan_secs,
            o.jobs_submitted,
            o.edges.len(),
        );
        for e in &o.edges {
            let _ = writeln!(
                out,
                "    {:<40} static {:<22} observed {:>12} {}",
                format!("{}:{}", e.to, e.to_port),
                e.bytes.to_string(),
                e.observed,
                if e.contained { "(ok)" } else { "(OUTSIDE)" },
            );
        }
    }
    let _ = writeln!(
        out,
        "  data-heavy bronze: centralized {:.1} s, partitioned {:.1} s {}",
        report.heavy_centralized,
        report.heavy_partitioned,
        if failed.iter().any(|what| what == "plan/partition_advantage") {
            "(GATE FAILS)"
        } else {
            "(partition pays)"
        },
    );
    let _ = writeln!(
        out,
        "  containment + partition advantage: {}",
        if report.ok() { "(ok)" } else { "(GATE FAILS)" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> PlanSpec {
        PlanSpec {
            n_data: 3,
            seed: 2006,
        }
    }

    #[test]
    fn static_intervals_contain_observed_bytes_on_bronze() {
        let report = run_plan_bench(&quick_spec()).unwrap();
        let bronze = report.outcome("bronze").unwrap();
        assert!(!bronze.edges.is_empty());
        for e in &bronze.edges {
            assert!(
                e.contained,
                "{}:{} static {} observed {}",
                e.to, e.to_port, e.bytes, e.observed
            );
        }
        // Declared sizes equal actual file sizes, so the bound is
        // exact, not merely containing: images move 3 × 7.8 MB.
        let crest_ref = bronze
            .edges
            .iter()
            .find(|e| e.to == "crestLines" && e.to_port == "reference_image")
            .unwrap();
        assert_eq!(crest_ref.observed, 3 * crate::bronze::IMAGE_BYTES);
        assert_eq!(
            crest_ref.bytes,
            CardInterval::exact(3 * crate::bronze::IMAGE_BYTES)
        );
    }

    #[test]
    fn cross_product_refetch_is_bounded() {
        let report = run_plan_bench(&quick_spec()).unwrap();
        let cross = report.outcome("cross").unwrap();
        assert!(cross.all_contained(), "{cross:?}");
        // 3×3 tuples each stage one 1 MiB item per port.
        let a = cross
            .edges
            .iter()
            .find(|e| e.to == "sweep" && e.to_port == "a")
            .unwrap();
        assert_eq!(a.observed, 9 * CROSS_ITEM_BYTES);
        assert!(a.bytes.contains(a.observed));
    }

    #[test]
    fn the_partition_beats_centralized_on_the_heavy_variant() {
        let report = run_plan_bench(&quick_spec()).unwrap();
        assert!(
            report.heavy_partitioned < report.heavy_centralized,
            "partitioned {} >= centralized {}",
            report.heavy_partitioned,
            report.heavy_centralized
        );
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn plan_bench_json_is_tagged_and_complete() {
        let report = run_plan_bench(&quick_spec()).unwrap();
        let json = render_plan_bench_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/plan/v1\""));
        assert!(json.contains("\"bronze\""));
        assert!(json.contains("\"cross\""));
        assert!(json.contains("\"heavy_partitioned_secs\""));
        let human = render_plan_bench(&report);
        assert!(human.contains("static plan vs observed staging"));
        assert!(human.contains("(ok)"));
    }
}
