//! Property-style tests of enactor invariants over exhaustively
//! enumerated workflow shapes: whatever the parallelism configuration
//! or batching, the *results* (cardinalities, values, provenance) must
//! be identical — only timing may change.
//!
//! The parameter spaces here are small enough to sweep completely, so
//! these run every shape rather than a random sample (and need no
//! external property-testing dependency: the workspace builds offline).

use moteur::prelude::*;
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn descriptor(name: &str, inputs: usize) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: (0..inputs)
            .map(|i| InputSlot {
                name: format!("in{i}"),
                option: format!("-i{i}"),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            })
            .collect(),
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-o".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: false,
    }
}

/// A randomly shaped layered workflow: `width` parallel chains of
/// `depth` services over one source, merged into one final dot-join.
fn layered_workflow(width: usize, depth: usize) -> Workflow {
    let mut wf = Workflow::new("layered");
    let src = wf.add_source("data");
    let mut chain_ends = Vec::new();
    for w in 0..width {
        let mut prev = (src, "out".to_string());
        for d in 0..depth {
            let name = format!("s{w}_{d}");
            let svc = wf.add_service(
                &name,
                &["in0"],
                &["out"],
                ServiceBinding::descriptor(
                    descriptor(&name, 1),
                    ServiceProfile::new(1.0 + (w * 7 + d * 3) as f64),
                ),
            );
            wf.connect(prev.0, &prev.1, svc, "in0").unwrap();
            prev = (svc, "out".to_string());
        }
        chain_ends.push(prev.0);
    }
    let join_inputs: Vec<String> = (0..width).map(|i| format!("in{i}")).collect();
    let join_refs: Vec<&str> = join_inputs.iter().map(String::as_str).collect();
    let join = wf.add_service(
        "join",
        &join_refs,
        &["out"],
        ServiceBinding::descriptor(descriptor("join", width), ServiceProfile::new(2.0)),
    );
    for (i, end) in chain_ends.iter().enumerate() {
        wf.connect(*end, "out", join, &format!("in{i}")).unwrap();
    }
    let sink = wf.add_sink("sink");
    wf.connect(join, "out", sink, "in").unwrap();
    wf
}

fn inputs(n: usize) -> InputData {
    InputData::new().set(
        "data",
        (0..n)
            .map(|j| DataValue::File {
                gfn: format!("gfn://d/{j}"),
                bytes: 64,
            })
            .collect(),
    )
}

/// A config-independent fingerprint of the results: sorted (index,
/// source-provenance) of every sink token.
fn fingerprint(r: &WorkflowResult) -> Vec<(DataIndex, Vec<(String, u32)>)> {
    let mut v: Vec<(DataIndex, Vec<(String, u32)>)> = r
        .sink("sink")
        .iter()
        .map(|t| (t.index.clone(), t.history.sources()))
        .collect();
    v.sort();
    v
}

/// Parallelism configuration must never change what is computed.
/// Exhaustive over width × depth × n_data.
#[test]
fn results_are_independent_of_configuration() {
    for width in 1usize..4 {
        for depth in 1usize..4 {
            for n_data in 1usize..6 {
                let wf = layered_workflow(width, depth);
                let data = inputs(n_data);
                let reference = {
                    let mut backend = VirtualBackend::new();
                    fingerprint(
                        &Enactment::new(&wf, &data, EnactorConfig::nop())
                            .run(&mut backend)
                            .unwrap(),
                    )
                };
                for config in [
                    EnactorConfig::dp(),
                    EnactorConfig::sp(),
                    EnactorConfig::sp_dp(),
                    EnactorConfig::sp_dp_jg(),
                    EnactorConfig::sp_dp().with_batching(3),
                ] {
                    let mut backend = VirtualBackend::new();
                    let r = Enactment::new(&wf, &data, config)
                        .run(&mut backend)
                        .unwrap();
                    assert_eq!(
                        fingerprint(&r).len(),
                        reference.len(),
                        "{}: cardinality changed at {width}x{depth}x{n_data}",
                        config.label()
                    );
                    // Dot joins pair per-index: every result derives from a
                    // single source position across all chains.
                    for (_, sources) in fingerprint(&r) {
                        let positions: std::collections::HashSet<u32> =
                            sources.iter().map(|(_, p)| *p).collect();
                        assert_eq!(positions.len(), 1, "provenance mixes data sets");
                    }
                }
            }
        }
    }
}

/// Every invocation record respects submitted ≤ started ≤ finished,
/// and the makespan covers the last completion. Exhaustive.
#[test]
fn invocation_records_are_well_formed() {
    for width in 1usize..3 {
        for depth in 1usize..4 {
            for n_data in 1usize..5 {
                let wf = layered_workflow(width, depth);
                let mut backend = VirtualBackend::new();
                let r = Enactment::new(&wf, &inputs(n_data), EnactorConfig::sp_dp())
                    .run(&mut backend)
                    .unwrap();
                assert_eq!(r.invocations.len(), (width * depth + 1) * n_data);
                let mut last = 0.0f64;
                for rec in &r.invocations {
                    assert!(rec.submitted <= rec.started);
                    assert!(rec.started <= rec.finished);
                    last = last.max(rec.finished.as_secs_f64());
                }
                assert!((r.makespan.as_secs_f64() - last).abs() < 1e-6);
            }
        }
    }
}

/// Batching never changes the number of results, only job counts.
/// Exhaustive over batch size × data-set size.
#[test]
fn batching_preserves_cardinality() {
    for batch in 1usize..8 {
        for n_data in 1usize..10 {
            let wf = layered_workflow(1, 2);
            let data = inputs(n_data);
            let mut b1 = VirtualBackend::new();
            let plain = Enactment::new(&wf, &data, EnactorConfig::sp_dp())
                .run(&mut b1)
                .unwrap();
            let mut b2 = VirtualBackend::new();
            let batched = Enactment::new(&wf, &data, EnactorConfig::sp_dp().with_batching(batch))
                .run(&mut b2)
                .unwrap();
            assert_eq!(plain.sink("sink").len(), batched.sink("sink").len());
            assert!(batched.jobs_submitted <= plain.jobs_submitted);
        }
    }
}
