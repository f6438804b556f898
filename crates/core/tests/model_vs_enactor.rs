//! E7 — the enactor must reproduce the theoretical model of paper §3.5
//! *exactly* on an ideal backend: a linear chain of `n_W` services over
//! `n_D` data sets with declared durations `T[i][j]` yields makespans
//! equal to eqs. (1)–(4) under the corresponding configuration.

use moteur::prelude::*;
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn pass_through_descriptor(name: &str) -> ExecutableDescriptor {
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

/// Linear chain: source → S0 → … → S{nW−1} → sink, service `i` taking
/// `t.get(i, j)` seconds on data set `j`.
fn chain_workflow(t: &TimeMatrix) -> Workflow {
    let mut wf = Workflow::new("chain");
    let src = wf.add_source("source");
    let mut prev = (src, "out".to_string());
    for i in 0..t.n_services() {
        let row: Vec<f64> = (0..t.n_data()).map(|j| t.get(i, j)).collect();
        let cost = CostModel::by_index(move |idx| row[idx.0[0] as usize]);
        let svc = wf.add_service(
            format!("S{i}").as_str(),
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                pass_through_descriptor(&format!("S{i}")),
                ServiceProfile::new(0.0).with_cost(cost),
            ),
        );
        wf.connect(prev.0, &prev.1, svc, "in").unwrap();
        prev = (svc, "out".to_string());
    }
    let sink = wf.add_sink("sink");
    wf.connect(prev.0, &prev.1, sink, "in").unwrap();
    wf
}

fn inputs_for(t: &TimeMatrix) -> InputData {
    InputData::new().set(
        "source",
        (0..t.n_data())
            .map(|j| DataValue::File {
                gfn: format!("gfn://in/{j}"),
                bytes: 0,
            })
            .collect(),
    )
}

fn enact(t: &TimeMatrix, config: EnactorConfig) -> WorkflowResult {
    let wf = chain_workflow(t);
    let mut backend = VirtualBackend::new();
    Enactment::new(&wf, &inputs_for(t), config)
        .run(&mut backend)
        .expect("enactment succeeds")
}

fn assert_close(measured: f64, expected: f64, what: &str) {
    assert!(
        (measured - expected).abs() < 1e-5,
        "{what}: measured {measured}, model {expected}"
    );
}

#[test]
fn sequential_matches_eq1() {
    let t = TimeMatrix::from_fn(3, 4, |i, j| 1.0 + (i * 7 + j * 3) as f64);
    let r = enact(&t, EnactorConfig::nop());
    assert_close(r.makespan.as_secs_f64(), t.sigma_sequential(), "NOP");
    assert_eq!(r.jobs_submitted, 12);
    assert_eq!(r.sink("sink").len(), 4);
}

#[test]
fn data_parallel_matches_eq2() {
    let t = TimeMatrix::from_fn(3, 5, |i, j| 2.0 + ((i + 2 * j) % 4) as f64);
    let r = enact(&t, EnactorConfig::dp());
    assert_close(r.makespan.as_secs_f64(), t.sigma_dp(), "DP");
}

#[test]
fn service_parallel_matches_eq3() {
    let t = TimeMatrix::from_fn(4, 6, |i, j| 1.0 + ((3 * i + 5 * j) % 7) as f64);
    let r = enact(&t, EnactorConfig::sp());
    assert_close(r.makespan.as_secs_f64(), t.sigma_sp(), "SP");
}

#[test]
fn data_and_service_parallel_matches_eq4() {
    let t = TimeMatrix::from_fn(4, 6, |i, j| 1.0 + ((i * 11 + j * 13) % 9) as f64);
    let r = enact(&t, EnactorConfig::sp_dp());
    assert_close(r.makespan.as_secs_f64(), t.sigma_dsp(), "DSP");
}

#[test]
fn constant_time_speedups_match_section_354() {
    // nW = 5, nD = 12 (the paper's application shape at its smallest).
    let (nw, nd) = (5, 12);
    let t = TimeMatrix::constant(nw, nd, 10.0);
    let seq = enact(&t, EnactorConfig::nop()).makespan.as_secs_f64();
    let dp = enact(&t, EnactorConfig::dp()).makespan.as_secs_f64();
    let sp = enact(&t, EnactorConfig::sp()).makespan.as_secs_f64();
    let dsp = enact(&t, EnactorConfig::sp_dp()).makespan.as_secs_f64();
    assert_close(
        seq / dp,
        moteur::model::speedup_dp_constant(nd),
        "S_DP = nD",
    );
    assert_close(seq / sp, moteur::model::speedup_sp_constant(nw, nd), "S_SP");
    assert_close(
        sp / dsp,
        moteur::model::speedup_dp_given_sp_constant(nw, nd),
        "S_DSP",
    );
    assert_close(
        dp / dsp,
        1.0,
        "SP adds nothing under constant T when DP is on",
    );
}

#[test]
fn fig6_variable_times_make_sp_beneficial_even_with_dp() {
    // The Fig. 6 scenario: D0 slow on P1, D1 slow on P2.
    let t = TimeMatrix::new(vec![
        vec![2.0, 1.0, 1.0],
        vec![1.0, 3.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ]);
    let dp = enact(&t, EnactorConfig::dp()).makespan.as_secs_f64();
    let dsp = enact(&t, EnactorConfig::sp_dp()).makespan.as_secs_f64();
    assert_close(dp, 6.0, "Σ_DP");
    assert_close(dsp, 5.0, "Σ_DSP");
    assert!(
        dsp < dp,
        "service parallelism must help under variable times"
    );
}

#[test]
fn massively_data_parallel_single_service() {
    let t = TimeMatrix::new(vec![vec![3.0, 9.0, 4.0, 2.0]]);
    assert_close(
        enact(&t, EnactorConfig::dp()).makespan.as_secs_f64(),
        9.0,
        "max_j",
    );
    assert_close(
        enact(&t, EnactorConfig::sp()).makespan.as_secs_f64(),
        18.0,
        "SP useless when nW = 1",
    );
}

#[test]
fn non_data_intensive_single_datum() {
    let t = TimeMatrix::new(vec![vec![2.0], vec![5.0], vec![1.0]]);
    for config in EnactorConfig::table1_configurations() {
        if config.job_grouping {
            continue; // grouping changes the chain itself
        }
        let r = enact(&t, config);
        assert_close(r.makespan.as_secs_f64(), 8.0, config.label());
    }
}

/// The enactor equals the model on pseudo-random matrices, for all four
/// parallelism configurations. Deterministic seeded sweep over every
/// (nW, nD) shape (no external property-testing dependency: the
/// workspace builds offline).
#[test]
fn enactor_equals_model_on_random_matrices() {
    for nw in 1usize..5 {
        for nd in 1usize..7 {
            for seed in [0u64, 97, 491, 999] {
                let t = TimeMatrix::from_fn(nw, nd, |i, j| {
                    1.0 + ((seed as usize * 31 + i * 17 + j * 7) % 23) as f64
                });
                let check = |measured: f64, expected: f64, what: &str| {
                    assert!(
                        (measured - expected).abs() < 1e-5,
                        "{what} at nw={nw} nd={nd} seed={seed}: {measured} vs {expected}"
                    );
                };
                check(
                    enact(&t, EnactorConfig::nop()).makespan.as_secs_f64(),
                    t.sigma_sequential(),
                    "NOP",
                );
                check(
                    enact(&t, EnactorConfig::dp()).makespan.as_secs_f64(),
                    t.sigma_dp(),
                    "DP",
                );
                check(
                    enact(&t, EnactorConfig::sp()).makespan.as_secs_f64(),
                    t.sigma_sp(),
                    "SP",
                );
                check(
                    enact(&t, EnactorConfig::sp_dp()).makespan.as_secs_f64(),
                    t.sigma_dsp(),
                    "DSP",
                );
            }
        }
    }
}

/// Faster configurations never lose: the partial order of §3.5 holds
/// for every seeded matrix.
#[test]
fn optimizations_never_slow_down() {
    for seed in 0u64..32 {
        let t = TimeMatrix::from_fn(3, 5, |i, j| {
            1.0 + ((seed as usize * 13 + i * 5 + j * 11) % 17) as f64
        });
        let seq = enact(&t, EnactorConfig::nop()).makespan.as_secs_f64();
        let dp = enact(&t, EnactorConfig::dp()).makespan.as_secs_f64();
        let sp = enact(&t, EnactorConfig::sp()).makespan.as_secs_f64();
        let dsp = enact(&t, EnactorConfig::sp_dp()).makespan.as_secs_f64();
        assert!(dp <= seq + 1e-9, "seed {seed}");
        assert!(sp <= seq + 1e-9, "seed {seed}");
        assert!(dsp <= dp + 1e-9, "seed {seed}");
        assert!(dsp <= sp + 1e-9, "seed {seed}");
    }
}
