//! Streaming campaign: push a million-item stream through a bounded-port
//! service chain and prove the enactor's memory high-water mark is
//! O(port-capacity), not O(stream length).
//!
//! The same chain on the same enactment path at two port capacities,
//! run with the counting allocator attached:
//!
//! - **eager reference** — a small slice of the stream (default 10⁴
//!   items, and half of that) at the default, unbounded capacity,
//!   sampling live heap bytes before and after while the
//!   [`moteur::WorkflowResult`] is still held. The slope of the two
//!   deltas over the item counts is the per-item retained footprint
//!   when nothing ever fills (tokens, history trees, sink outputs; the
//!   result keeps no invocation records, which a `moteur::RecordSink`
//!   builds only when one is attached), whose projection onto the full
//!   stream is what a bounded capacity must undercut. What a run keeps
//!   whatever its length (the result's maps, say) cancels in the slope.
//! - **stream** — the full stream (default 10⁶ items) through the same
//!   chain at capacity `port_capacity`. The input vector is an
//!   unavoidable O(n) cost and is measured separately; everything the
//!   *pipeline* adds on top of it — ready queues, in-flight
//!   invocations, the retained result — must stay inside
//!   [`PIPELINE_PEAK_BUDGET`] regardless of stream length.
//!
//! `BENCH_stream.json` (schema [`STREAM_SCHEMA`]) records the item and
//! job counts, the input and pipeline footprints and the eager
//! projection — counts and live bytes only, so two runs write the same
//! file; [`crate::gate::STREAM`] gates on completion, the absolute
//! pipeline budget and the requirement that the pipeline peak
//! undercuts the eager projection by at least 4×. Items per second are
//! `benchmark/`'s to measure (`stream_chain`), and that the unbounded
//! regime keeps pace with the bounded one is held by
//! `tests/linearity.rs`.

use moteur::obs::json::JsonObject;
use moteur::{
    DataValue, Enactment, EnactorConfig, InputData, MoteurError, ServiceBinding, Token,
    VirtualBackend, Workflow,
};

/// Schema tag of [`render_stream_json`].
pub const STREAM_SCHEMA: &str = "moteur-bench/stream/v1";

/// Ceiling on the bounded pipeline's peak live bytes *beyond* the
/// input vector, independent of stream length.
///
/// At port capacity 64 the pipeline retains a few hundred tokens,
/// in-flight jobs and capped sink samples — about 130 kB. The source
/// cursor shares the input stream instead of copying it, so 4 MiB
/// fails any copy of a million-item stream (32 MB of numbers) while
/// leaving an order of magnitude of headroom.
pub const PIPELINE_PEAK_BUDGET: u64 = 4 * 1024 * 1024;

/// Minimum factor by which the bounded pipeline peak must undercut
/// the unbounded-capacity projection for the same stream length.
pub const EAGER_UNDERCUT_FACTOR: f64 = 4.0;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream length of the bounded-port phase.
    pub n_items: usize,
    /// Port capacity of every bounded inter-service edge.
    pub port_capacity: usize,
    /// Stream length of the unbounded reference phase, which also runs
    /// half as many (kept small: its whole point is to measure the
    /// per-item retained footprint that would make the full stream
    /// infeasible). At least 2.
    pub eager_items: usize,
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            n_items: 1_000_000,
            port_capacity: 64,
            eager_items: 10_000,
            seed: 2006,
        }
    }
}

/// The full campaign result (`BENCH_stream.json`).
#[derive(Debug, Clone)]
pub struct StreamReport {
    pub spec: StreamSpec,
    /// Whether the counting global allocator was installed; without it
    /// every byte axis reads 0 and only the functional checks apply.
    pub alloc_installed: bool,
    /// Exact sink tally of the bounded phase.
    pub items_completed: usize,
    pub jobs_submitted: usize,
    /// Live-byte cost of materialising the input stream (O(n_items),
    /// unavoidable: the stream exists before enactment starts).
    pub input_bytes: u64,
    /// Peak live bytes the bounded pipeline added beyond the
    /// materialised inputs — the axis that must stay independent of
    /// stream length. The source cursor reads the input stream in
    /// place (it holds it by reference count), so nothing here grows
    /// with `n_items`: not a copy of the inputs, nor the per-item
    /// tokens and history trees that make unbounded enactment
    /// O(n_items × ~420 B).
    pub pipeline_peak_bytes: u64,
    /// Retained footprint per item of the unbounded reference phase.
    pub eager_bytes_per_item: f64,
    /// `eager_bytes_per_item × n_items`: what unbounded ports would
    /// retain on the full stream.
    pub eager_projected_bytes: f64,
}

impl StreamReport {
    /// The gate's verdict ([`crate::gate::STREAM`]) on this report.
    pub fn ok(&self) -> bool {
        crate::gate::STREAM.passes(&render_stream_json(self))
    }
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn shift(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x + 1.0))])
}

/// items → double → shift → out: two local services per item, so a
/// million-item stream is two million invocations.
pub fn stream_chain() -> Workflow {
    let mut wf = Workflow::new("stream-chain");
    let src = wf.add_source("items");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let s = wf.add_service("shift", &["in"], &["out"], ServiceBinding::local(shift));
    let sink = wf.add_sink("out");
    wf.connect(src, "out", d, "in").unwrap();
    wf.connect(d, "out", s, "in").unwrap();
    wf.connect(s, "out", sink, "in").unwrap();
    wf
}

pub fn stream_inputs(n: usize) -> InputData {
    InputData::new().set("items", (0..n).map(|i| DataValue::from(i as f64)).collect())
}

/// Run both phases and assemble the report. The bounded phase runs
/// first so the process-wide peak high-water mark during it is not
/// contaminated by the unbounded reference.
pub fn run_stream(spec: &StreamSpec) -> Result<StreamReport, MoteurError> {
    if spec.n_items == 0 || spec.port_capacity == 0 || spec.eager_items < 2 {
        return Err(MoteurError::new(
            "stream campaign needs n_items and port_capacity > 0, eager_items >= 2",
        ));
    }
    let workflow = stream_chain();

    // Phase 1: the bounded-port stream.
    let live_before_inputs = moteur_prof::alloc::live_bytes();
    let inputs = stream_inputs(spec.n_items);
    let live_after_inputs = moteur_prof::alloc::live_bytes();
    let input_bytes = live_after_inputs.saturating_sub(live_before_inputs);
    let config = EnactorConfig::sp_dp()
        .with_seed(spec.seed)
        .with_port_capacity(spec.port_capacity);
    let mut backend = VirtualBackend::new();
    let result = Enactment::new(&workflow, &inputs, config).run(&mut backend)?;
    // Anything the pipeline allocated on top of the materialised
    // inputs pushed the high-water mark to at least `live + X`, so
    // peak − live bounds X from above (conservatively: it also counts
    // headroom the mark already had before the run).
    let pipeline_peak_bytes = moteur_prof::alloc::peak_bytes().saturating_sub(live_after_inputs);
    let items_completed = result.sink_count("out");
    let jobs_submitted = result.jobs_submitted;
    drop(result);
    drop(inputs);

    // Phase 2: the unbounded reference at two lengths, measured on live
    // bytes (immune to the high-water mark left behind by phase 1).
    let short = spec.eager_items / 2;
    let retained_short = eager_retained(&workflow, short, spec.seed)?;
    let retained_full = eager_retained(&workflow, spec.eager_items, spec.seed)?;
    let eager_bytes_per_item =
        (retained_full as f64 - retained_short as f64) / (spec.eager_items - short) as f64;

    Ok(StreamReport {
        spec: spec.clone(),
        alloc_installed: moteur_prof::alloc::installed(),
        items_completed,
        jobs_submitted,
        input_bytes,
        pipeline_peak_bytes,
        eager_bytes_per_item,
        eager_projected_bytes: eager_bytes_per_item * spec.n_items as f64,
    })
}

/// Live bytes an unbounded-capacity run over `n` items holds while its
/// result is alive.
fn eager_retained(workflow: &Workflow, n: usize, seed: u64) -> Result<u64, MoteurError> {
    let inputs = stream_inputs(n);
    let live_before = moteur_prof::alloc::live_bytes();
    let mut backend = VirtualBackend::new();
    let result = Enactment::new(workflow, &inputs, EnactorConfig::sp_dp().with_seed(seed))
        .run(&mut backend)?;
    let retained = moteur_prof::alloc::live_bytes().saturating_sub(live_before);
    drop(result);
    Ok(retained)
}

/// Serialise the report (`BENCH_stream.json`).
pub fn render_stream_json(report: &StreamReport) -> String {
    crate::gate::STREAM.render_with_verdict(|ok| {
        JsonObject::new()
            .str("schema", STREAM_SCHEMA)
            .uint("n_items", report.spec.n_items as u64)
            .uint("port_capacity", report.spec.port_capacity as u64)
            .uint("eager_items", report.spec.eager_items as u64)
            .uint("seed", report.spec.seed)
            .bool("alloc_installed", report.alloc_installed)
            .uint("items_completed", report.items_completed as u64)
            .uint("jobs_submitted", report.jobs_submitted as u64)
            .uint("input_bytes", report.input_bytes)
            .uint("pipeline_peak_bytes", report.pipeline_peak_bytes)
            .uint("pipeline_peak_budget", PIPELINE_PEAK_BUDGET)
            .num("eager_bytes_per_item", report.eager_bytes_per_item)
            .num("eager_projected_bytes", report.eager_projected_bytes)
            .bool("ok", ok)
            .finish()
    })
}

/// Human rendering.
pub fn render_stream(report: &StreamReport) -> String {
    use std::fmt::Write as _;
    const MB: f64 = 1024.0 * 1024.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stream campaign (seed {}): {} items through port capacity {}",
        report.spec.seed, report.spec.n_items, report.spec.port_capacity,
    );
    let _ = writeln!(
        out,
        "  stream    {:>12} items  ({} jobs)",
        report.items_completed, report.jobs_submitted,
    );
    if report.alloc_installed {
        let _ = writeln!(
            out,
            "  memory    inputs {:.1} MB, pipeline peak {:.1} MB (budget {:.0} MB)",
            report.input_bytes as f64 / MB,
            report.pipeline_peak_bytes as f64 / MB,
            PIPELINE_PEAK_BUDGET as f64 / MB,
        );
        let _ = writeln!(
            out,
            "  eager ref {:.0} B/item retained -> {:.1} MB projected over the full stream",
            report.eager_bytes_per_item,
            report.eager_projected_bytes / MB,
        );
    } else {
        let _ = writeln!(out, "  memory    counting allocator not installed");
    }
    let _ = writeln!(
        out,
        "  stream invariants: {}",
        if report.ok() { "(ok)" } else { "(GATE FAILS)" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> StreamSpec {
        StreamSpec {
            n_items: 5_000,
            port_capacity: 16,
            eager_items: 1_000,
            seed: 2006,
        }
    }

    #[test]
    fn stream_campaign_completes_every_item() {
        let report = run_stream(&quick_spec()).unwrap();
        assert_eq!(report.items_completed, 5_000, "{report:?}");
        assert_eq!(report.jobs_submitted, 10_000, "two services per item");
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn stream_json_carries_the_schema_and_memory_axes() {
        let report = run_stream(&StreamSpec {
            n_items: 500,
            port_capacity: 8,
            eager_items: 100,
            seed: 7,
        })
        .unwrap();
        let json = render_stream_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/stream/v1\""));
        assert!(json.contains("\"items_completed\":500"));
        assert!(json.contains("\"pipeline_peak_bytes\""));
        assert!(json.contains("\"eager_projected_bytes\""));
        let human = render_stream(&report);
        assert!(human.contains("stream campaign"));
        assert!(human.contains("500 items  (1000 jobs)"));
    }

    #[test]
    fn zero_shapes_are_rejected() {
        for spec in [
            StreamSpec {
                n_items: 0,
                ..quick_spec()
            },
            StreamSpec {
                port_capacity: 0,
                ..quick_spec()
            },
            StreamSpec {
                eager_items: 0,
                ..quick_spec()
            },
            StreamSpec {
                eager_items: 1,
                ..quick_spec()
            },
        ] {
            assert!(run_stream(&spec).is_err());
        }
    }
}
