//! Adapting job granularity to the observed grid load — the workflow
//! the paper sketches in §5.4: probe the grid, fit the overhead
//! distribution from the probe's invocation records, let the probabilistic
//! model pick a batch size, and run the remaining workload with it.
//!
//! The model assumes per-job overheads are independent draws (an
//! uncongested grid with spare slots); this example runs on such a
//! grid. On a *saturated* grid, queue contention couples the jobs and
//! batching can cut both ways — `cargo run --bin moteur-bench --
//! granularity` explores that regime quantitatively.
//!
//! Run with: `cargo run --release --example adaptive_granularity`

use moteur_repro::gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_repro::moteur::prelude::*;
use moteur_repro::moteur::{GranularityModel, RecordSink, SimBackend};
use moteur_repro::wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

const COMPUTE_SECS: f64 = 60.0;

/// An uncongested grid with heavy-tailed per-job overhead — the regime
/// the §5.4 probabilistic model targets.
fn spiky_grid() -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        submission_overhead: Distribution::LogNormal {
            median: 250.0,
            sigma: 1.0,
        },
        match_delay: Distribution::Constant(0.0),
        notify_delay: Distribution::Constant(0.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 2.0,
            bandwidth: 2.0e6,
            congestion: 0.0,
        },
        typical_job_duration: 300.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

fn workflow() -> Workflow {
    let descriptor = ExecutableDescriptor {
        executable: FileItem {
            name: "process".into(),
            access: AccessMethod::Local,
            value: "process".into(),
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
    };
    let mut wf = Workflow::new("adaptive");
    let src = wf.add_source("data");
    let svc = wf.add_service(
        "process",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(descriptor, ServiceProfile::new(COMPUTE_SECS)),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    wf
}

fn inputs(lo: usize, hi: usize) -> InputData {
    InputData::new().set(
        "data",
        (lo..hi)
            .map(|j| DataValue::File {
                gfn: format!("gfn://d/{j}"),
                bytes: 4_096,
            })
            .collect(),
    )
}

fn main() {
    let wf = workflow();
    let total = 126usize;
    let probetotal = 16usize;

    // Phase 1: probe wave, unbatched, to sample today's grid weather.
    println!(
        "phase 1: probing the grid with {probetotal} unbatched jobs...",
        probetotal = probetotal
    );
    let mut backend = SimBackend::new(spiky_grid(), 99);
    let (sink, records) = RecordSink::new();
    let probe = Enactment::new(&wf, &inputs(0, probetotal), EnactorConfig::sp_dp())
        .obs(Obs::new(vec![Box::new(sink)]))
        .run(&mut backend)
        .expect("probe wave");
    // A job's grid overhead is its turnaround minus its compute time.
    let overheads: Vec<f64> = records
        .snapshot()
        .iter()
        .map(|r| r.finished.since(r.submitted).as_secs_f64() - COMPUTE_SECS)
        .collect();
    let model = GranularityModel::fit_overheads(&overheads, COMPUTE_SECS, total - probetotal);
    println!(
        "  fitted overhead: median {:.0} s, sigma {:.2} (from {} records)",
        model.overhead_median,
        model.overhead_sigma,
        overheads.len()
    );
    let g = model.optimal_batch();
    println!(
        "  recommended batch size: g* = {g} (predicted makespan {:.0} s)",
        model.expected_makespan(g)
    );

    // Phase 2: the remaining workload, batched as recommended, on the
    // same (still loaded) grid.
    println!(
        "\nphase 2: processing the remaining {} data with batch size {g}...",
        total - probetotal
    );
    let batched = Enactment::new(
        &wf,
        &inputs(probetotal, total),
        EnactorConfig::sp_dp().with_batching(g),
    )
    .run(&mut backend)
    .expect("batched wave");

    // Counterfactual: the same wave without batching, fresh identical grid.
    let mut fresh = SimBackend::new(spiky_grid(), 99);
    let _warmup = Enactment::new(&wf, &inputs(0, probetotal), EnactorConfig::sp_dp())
        .run(&mut fresh)
        .expect("counterfactual warm-up");
    let unbatched = Enactment::new(&wf, &inputs(probetotal, total), EnactorConfig::sp_dp())
        .run(&mut fresh)
        .expect("counterfactual wave");

    println!(
        "  probe wave:        {:>8.0} s, {} jobs",
        probe.makespan.as_secs_f64(),
        probe.jobs_submitted
    );
    println!(
        "  adaptive batched:  {:>8.0} s, {} jobs",
        batched.makespan.as_secs_f64(),
        batched.jobs_submitted
    );
    println!(
        "  unbatched control: {:>8.0} s, {} jobs",
        unbatched.makespan.as_secs_f64(),
        unbatched.jobs_submitted
    );
    println!(
        "\nadaptive granularity saved {:.0}% of the makespan on this run",
        100.0 * (1.0 - batched.makespan.as_secs_f64() / unbatched.makespan.as_secs_f64())
    );
}
