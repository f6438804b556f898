//! E4/E5/E6 — regenerate the execution diagrams of **Figures 4, 5
//! and 6**: the Fig. 1 three-service chain over three data sets on an
//! ideal backend, under data parallelism (Fig. 4), service parallelism
//! (Fig. 5), and both with non-constant execution times (Fig. 6,
//! with/without SP).

use moteur::prelude::*;
use moteur::{diagram, TimeMatrix};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

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

/// The Fig. 1 chain P1 → P2 → P3 with per-(service, data) durations.
fn chain(t: &TimeMatrix) -> Workflow {
    let mut wf = Workflow::new("fig1");
    let src = wf.add_source("source");
    let mut prev = src;
    for i in 0..t.n_services() {
        let row: Vec<f64> = (0..t.n_data()).map(|j| t.get(i, j)).collect();
        let name = format!("P{}", i + 1);
        let svc = wf.add_service(
            &name,
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                pass_through(&name),
                ServiceProfile::new(0.0)
                    .with_cost(CostModel::by_index(move |idx| row[idx.0[0] as usize])),
            ),
        );
        wf.connect(prev, "out", svc, "in").unwrap();
        prev = svc;
    }
    let sink = wf.add_sink("sink");
    wf.connect(prev, "out", sink, "in").unwrap();
    wf
}

fn enact(t: &TimeMatrix, config: EnactorConfig) -> WorkflowResult {
    let inputs = InputData::new().set(
        "source",
        (0..t.n_data())
            .map(|j| DataValue::File {
                gfn: format!("gfn://d{j}"),
                bytes: 0,
            })
            .collect(),
    );
    let mut backend = VirtualBackend::new();
    Enactment::new(&chain(t), &inputs, config)
        .run(&mut backend)
        .expect("diagram runs succeed")
}

fn show(title: &str, result: &WorkflowResult) {
    println!("{title}  (total {} s)", result.makespan.as_secs_f64());
    println!(
        "{}",
        diagram::render(&result.invocations, &["P3", "P2", "P1"])
    );
}

fn main() {
    let constant = TimeMatrix::constant(3, 3, 1.0);

    println!("=== Figure 4: data-parallel execution (DP on, SP off), constant T ===");
    show("DP", &enact(&constant, EnactorConfig::dp()));

    println!("=== Figure 5: service-parallel execution (SP on, DP off), constant T ===");
    show("SP", &enact(&constant, EnactorConfig::sp()));

    // Fig. 6: D0 takes twice as long on P1 (submitted twice after an
    // error); D1 takes three times as long on P2 (blocked in a queue).
    let variable = TimeMatrix::new(vec![
        vec![2.0, 1.0, 1.0],
        vec![1.0, 3.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ]);
    println!("=== Figure 6 left: DP only, variable T ===");
    show("DP, variable T", &enact(&variable, EnactorConfig::dp()));
    println!("=== Figure 6 right: DP + SP, variable T (computations overlap) ===");
    show(
        "DP+SP, variable T",
        &enact(&variable, EnactorConfig::sp_dp()),
    );

    println!(
        "Fig. 6 conclusion: with variable execution times, enabling SP on top of DP\n\
         shortens the makespan ({} s -> {} s) even though the constant-time model\n\
         predicts no gain (S_SDP = 1).",
        enact(&variable, EnactorConfig::dp()).makespan.as_secs_f64(),
        enact(&variable, EnactorConfig::sp_dp())
            .makespan
            .as_secs_f64(),
    );
}
