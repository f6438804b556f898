//! §5.4 future work: sweep the data-batching granularity on the
//! simulated grid and compare against the probabilistic model's
//! prediction of the optimal batch size.
//!
//! A single-service, massively data-parallel workflow (the §3.5.4
//! "massively data-parallel" limit) processes `n` data with batch
//! size g ∈ {1, 2, …}: larger batches pay fewer draws from the heavy
//! tailed overhead distribution but serialise more compute.

use moteur::prelude::*;
use moteur::GranularityModel;
use moteur_analysis::Table;
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn workflow(compute: f64) -> Workflow {
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
    let mut wf = Workflow::new("sweep");
    let src = wf.add_source("data");
    let svc = wf.add_service(
        "process",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(descriptor, ServiceProfile::new(compute)),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    wf
}

fn grid(median: f64, sigma: f64) -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        submission_overhead: Distribution::LogNormal { median, sigma },
        match_delay: Distribution::Constant(0.0),
        notify_delay: Distribution::Constant(0.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 0.0,
            bandwidth: f64::INFINITY,
            congestion: 0.0,
        },
        typical_job_duration: 300.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

fn main() {
    let n_data = 126;
    let compute = 60.0;
    let (median, sigma) = (300.0, 1.0);
    let repeats = 8u64;

    let wf = workflow(compute);
    let inputs = InputData::new().set(
        "data",
        (0..n_data)
            .map(|j| DataValue::File {
                gfn: format!("gfn://d/{j}"),
                bytes: 1_000,
            })
            .collect(),
    );
    let model = GranularityModel {
        overhead_median: median,
        overhead_sigma: sigma,
        compute_seconds: compute,
        n_data,
    };

    println!(
        "Batch-size sweep: {n_data} data, {compute:.0} s compute each, lognormal overhead (median {median:.0} s, sigma {sigma})"
    );
    println!();
    let mut table = Table::new(&[
        "batch g",
        "jobs",
        "simulated makespan (s)",
        "model prediction (s)",
    ]);
    for g in [1usize, 2, 3, 4, 6, 9, 14, 21, 42, 126] {
        let mut total = 0.0;
        for seed in 0..repeats {
            let mut backend = SimBackend::new(grid(median, sigma), seed);
            total += Enactment::new(&wf, &inputs, EnactorConfig::sp_dp().with_batching(g))
                .run(&mut backend)
                .expect("sweep run")
                .makespan
                .as_secs_f64();
        }
        table.add_row(vec![
            g.to_string(),
            n_data.div_ceil(g).to_string(),
            format!("{:.0}", total / repeats as f64),
            format!("{:.0}", model.expected_makespan(g)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "model-recommended batch size: g* = {} (expected makespan {:.0} s)",
        model.optimal_batch(),
        model.expected_makespan(model.optimal_batch())
    );
    println!("The measured optimum should sit near g*: the trade-off between data");
    println!("parallelism and per-job overhead that the paper left as future work.");
}
