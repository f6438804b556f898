//! Tests of the §5.4 future-work feature: data batching — submitting
//! several invocations of a single service as one grid job, trading
//! data parallelism against per-job overhead.

use moteur::prelude::*;
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn descriptor(name: &str) -> ExecutableDescriptor {
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

fn single_service_workflow(compute: f64) -> Workflow {
    let mut wf = Workflow::new("batch");
    let src = wf.add_source("data");
    let svc = wf.add_service(
        "process",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(descriptor("process"), ServiceProfile::new(compute)),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    wf
}

fn inputs(n: usize) -> InputData {
    InputData::new().set(
        "data",
        (0..n)
            .map(|j| DataValue::File {
                gfn: format!("gfn://d/{j}"),
                bytes: 100,
            })
            .collect(),
    )
}

/// Grid with a fixed 100 s per-job overhead and no noise.
fn overhead_grid() -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 1000, 1.0)],
        submission_overhead: Distribution::Constant(50.0),
        match_delay: Distribution::Constant(50.0),
        notify_delay: Distribution::Constant(0.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 0.0,
            bandwidth: f64::INFINITY,
            congestion: 0.0,
        },
        typical_job_duration: 100.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

#[test]
fn batching_reduces_job_count_and_preserves_results() {
    let wf = single_service_workflow(10.0);
    let data = inputs(12);
    let mut b1 = SimBackend::new(overhead_grid(), 1);
    let plain = Enactment::new(&wf, &data, EnactorConfig::sp_dp())
        .run(&mut b1)
        .unwrap();
    let mut b2 = SimBackend::new(overhead_grid(), 1);
    let batched = Enactment::new(&wf, &data, EnactorConfig::sp_dp().with_batching(4))
        .run(&mut b2)
        .unwrap();
    assert_eq!(plain.jobs_submitted, 12);
    assert_eq!(batched.jobs_submitted, 3, "12 data / batch 4");
    assert_eq!(plain.sink("sink").len(), batched.sink("sink").len());
    // Every result token still has its own index and provenance.
    let mut indices: Vec<_> = batched
        .sink("sink")
        .iter()
        .map(|t| t.index.clone())
        .collect();
    indices.sort();
    indices.dedup();
    assert_eq!(indices.len(), 12);
}

#[test]
fn batching_trades_overhead_against_parallelism() {
    // Constant 100 s overhead, 10 s compute, 12 data, sequential-within
    // batch: batch g costs 100 + 10·g; with unlimited slots makespan is
    // one batch's cost. g=1 → 110; g=12 → 220; g=3 → 130.
    let wf = single_service_workflow(10.0);
    let data = inputs(12);
    let time_at = |g: usize| -> f64 {
        let mut backend = SimBackend::new(overhead_grid(), 1);
        Enactment::new(&wf, &data, EnactorConfig::sp_dp().with_batching(g))
            .run(&mut backend)
            .unwrap()
            .makespan
            .as_secs_f64()
    };
    assert!((time_at(1) - 110.0).abs() < 1e-6, "{}", time_at(1));
    assert!((time_at(3) - 130.0).abs() < 1e-6, "{}", time_at(3));
    assert!((time_at(12) - 220.0).abs() < 1e-6, "{}", time_at(12));
}

#[test]
fn batching_wins_when_the_sequential_baseline_pays_overhead_per_job() {
    // With DP off (one job at a time), batching strictly helps: the
    // overhead is paid once per batch instead of once per datum.
    let wf = single_service_workflow(10.0);
    let data = inputs(12);
    let time_at = |g: usize| -> f64 {
        let mut backend = SimBackend::new(overhead_grid(), 1);
        Enactment::new(&wf, &data, EnactorConfig::nop().with_batching(g))
            .run(&mut backend)
            .unwrap()
            .makespan
            .as_secs_f64()
    };
    // g=1: 12 × 110 = 1320. g=4: 3 × 140 = 420. g=12: 220.
    assert!((time_at(1) - 1320.0).abs() < 1e-6);
    assert!((time_at(4) - 420.0).abs() < 1e-6);
    assert!((time_at(12) - 220.0).abs() < 1e-6);
}

#[test]
fn batched_jobs_failures_retry_the_whole_batch() {
    let mut grid = overhead_grid();
    grid.failure_probability = 0.4;
    grid.max_retries = 0; // enactor-level retries only
    let wf = single_service_workflow(5.0);
    let data = inputs(9);
    let mut backend = SimBackend::new(grid, 3);
    let result = Enactment::new(&wf, &data, EnactorConfig::sp_dp().with_batching(3))
        .run(&mut backend)
        .unwrap();
    assert_eq!(
        result.sink("sink").len(),
        9,
        "all data processed despite failures"
    );
    assert!(
        result.invocations.iter().any(|r| r.retries > 0),
        "some batch retried"
    );
}

#[test]
fn local_services_are_never_batched() {
    let double = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![(
            "out".into(),
            DataValue::from(inputs[0].value.as_num().unwrap() * 2.0),
        )])
    };
    let mut wf = Workflow::new("local");
    let src = wf.add_source("data");
    let svc = wf.add_service("dbl", &["in"], &["out"], ServiceBinding::local(double));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    let data = InputData::new().set("data", (0..6).map(|i| DataValue::from(i as f64)).collect());
    let mut backend = VirtualBackend::new();
    let r = Enactment::new(&wf, &data, EnactorConfig::sp_dp().with_batching(3))
        .run(&mut backend)
        .unwrap();
    assert_eq!(
        r.jobs_submitted, 6,
        "each local call remains its own invocation"
    );
    assert_eq!(r.sink("sink").len(), 6);
}

#[test]
fn batching_composes_with_job_grouping() {
    // Chain A→B grouped into one virtual service, then batched 2-wide:
    // 8 data → 4 jobs, each carrying 2 grouped invocations.
    let mut wf = Workflow::new("jg+batch");
    let src = wf.add_source("data");
    let a = wf.add_service(
        "A",
        &["in"],
        &["mid"],
        ServiceBinding::descriptor(
            {
                let mut d = descriptor("A");
                d.outputs[0].name = "mid".into();
                d
            },
            ServiceProfile::new(10.0),
        ),
    );
    let b = wf.add_service(
        "B",
        &["mid"],
        &["out"],
        ServiceBinding::descriptor(
            {
                let mut d = descriptor("B");
                d.inputs[0].name = "mid".into();
                d
            },
            ServiceProfile::new(10.0),
        ),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(a, "mid", b, "mid").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();

    let data = inputs(8);
    let mut backend = SimBackend::new(overhead_grid(), 1);
    let cfg = EnactorConfig::sp_dp_jg().with_batching(2);
    let r = Enactment::new(&wf, &data, cfg).run(&mut backend).unwrap();
    assert_eq!(r.jobs_submitted, 4, "8 data / (2 per batch), A+B fused");
    assert_eq!(r.sink("sink").len(), 8);
}

/// A→B chain of descriptor-bound services, so a replayed output of A
/// is B's memoizable input.
fn two_stage_workflow() -> Workflow {
    let mut wf = Workflow::new("batch-store");
    let src = wf.add_source("data");
    let stage =
        |name: &str| ServiceBinding::descriptor(descriptor(name), ServiceProfile::new(10.0));
    let a = wf.add_service("A", &["in"], &["out"], stage("A"));
    let b = wf.add_service("B", &["in"], &["out"], stage("B"));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", a, "in").unwrap();
    wf.connect(a, "out", b, "in").unwrap();
    wf.connect(b, "out", sink, "in").unwrap();
    wf
}

fn run_with_store(data: &InputData, batch: usize, store: &mut DataStore) -> WorkflowResult {
    let mut backend = SimBackend::new(overhead_grid(), 1);
    Enactment::new(
        &two_stage_workflow(),
        data,
        EnactorConfig::sp_dp().with_batching(batch),
    )
    .store(Some(store))
    .run(&mut backend)
    .unwrap()
}

#[test]
fn batched_and_unbatched_runs_agree_against_a_half_warm_store() {
    // Warm over the first 5 of 10 items: with 3 per batch the second
    // batch of A is two hits and a miss.
    let half_warm = || {
        let mut store = DataStore::in_memory(StoreConfig::default());
        run_with_store(&inputs(5), 1, &mut store);
        store
    };
    let data = inputs(10);
    let plain = run_with_store(&data, 1, &mut half_warm());
    let batched = run_with_store(&data, 3, &mut half_warm());
    assert_eq!(plain.jobs_submitted, 10, "5 misses × 2 stages");
    assert_eq!(
        batched.jobs_submitted, 6,
        "the misses travel as {{5}}, {{6,7,8}}, {{9}} through each stage"
    );
    let by_index = |r: &WorkflowResult| {
        let mut tokens = r.sink("sink").to_vec();
        tokens.sort_by(|a, b| a.index.cmp(&b.index));
        tokens
    };
    let (plain, batched) = (by_index(&plain), by_index(&batched));
    assert_eq!(plain.len(), 10);
    // The warm half is replayed from the store: the very same tokens.
    assert_eq!(plain[..5], batched[..5]);
    // A computed output's file name carries the id of the job that
    // wrote it, which batching renumbers; everything else is equal.
    let shape = |t: &Token| {
        (
            t.index.clone(),
            t.history.clone(),
            t.value.as_file().map(|f| f.1),
        )
    };
    assert_eq!(
        plain.iter().map(shape).collect::<Vec<_>>(),
        batched.iter().map(shape).collect::<Vec<_>>()
    );
}

#[test]
fn a_fully_warm_batched_rerun_submits_no_grid_job() {
    let mut store = DataStore::in_memory(StoreConfig::default());
    let data = inputs(10);
    let cold = run_with_store(&data, 3, &mut store);
    assert_eq!(cold.jobs_submitted, 8, "⌈10/3⌉ batches × 2 stages");
    let warm = run_with_store(&data, 3, &mut store);
    assert_eq!(warm.jobs_submitted, 0, "every batch member is replayed");
    assert_eq!(warm.sink("sink").len(), 10);
}
