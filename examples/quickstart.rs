//! Quickstart: build the paper's Fig. 1 workflow (P1 feeding P2 and
//! P3), enact it over three data sets under each parallelism
//! configuration on an ideal virtual-time backend, and print the
//! execution diagrams that reproduce Figs. 4 and 5.
//!
//! Run with: `cargo run --example quickstart`

use moteur_repro::moteur::prelude::*;
use moteur_repro::moteur::{diagram, RecordSink};
use moteur_repro::wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

fn unit_service(name: &str) -> ServiceBinding {
    let descriptor = ExecutableDescriptor {
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
    };
    // Every invocation takes exactly 1 s of (virtual) compute.
    ServiceBinding::descriptor(descriptor, ServiceProfile::new(1.0))
}

fn main() {
    // The Fig. 1 graph: source → P1 → {P2, P3} → sink.
    let mut wf = Workflow::new("fig1");
    let src = wf.add_source("source");
    let p1 = wf.add_service("P1", &["in"], &["out"], unit_service("P1"));
    let p2 = wf.add_service("P2", &["in"], &["out"], unit_service("P2"));
    let p3 = wf.add_service("P3", &["in"], &["out"], unit_service("P3"));
    let sink = wf.add_sink("results");
    wf.connect(src, "out", p1, "in").unwrap();
    wf.connect(p1, "out", p2, "in").unwrap();
    wf.connect(p1, "out", p3, "in").unwrap();
    wf.connect(p2, "out", sink, "in").unwrap();
    wf.connect(p3, "out", sink, "in").unwrap();

    // Three independent data sets D0, D1, D2 (§3.3).
    let inputs = InputData::new().set(
        "source",
        (0..3)
            .map(|j| DataValue::File {
                gfn: format!("gfn://data/D{j}"),
                bytes: 1000,
            })
            .collect(),
    );

    for config in [
        EnactorConfig::nop(),
        EnactorConfig::dp(),
        EnactorConfig::sp(),
        EnactorConfig::sp_dp(),
    ] {
        let mut backend = VirtualBackend::new();
        // The diagram reads the invocation records this sink keeps.
        let (sink, records) = RecordSink::new();
        let result = Enactment::new(&wf, &inputs, config)
            .obs(Obs::new(vec![Box::new(sink)]))
            .run(&mut backend)
            .expect("enactment succeeds");
        println!(
            "=== {} === makespan {} s, {} jobs, {} results collected",
            config.label(),
            result.makespan.as_secs_f64(),
            result.jobs_submitted,
            result.sink("results").len()
        );
        println!(
            "{}",
            diagram::render(&records.snapshot(), &["P3", "P2", "P1"])
        );
    }
    println!("Workflow parallelism lets P2 and P3 overlap in every configuration;");
    println!("DP stacks the three data sets into one slot per service (Fig. 4);");
    println!("SP pipelines them across services (Fig. 5).");
}
