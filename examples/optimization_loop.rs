//! The paper's Fig. 2 workflow: a service-based optimization loop whose
//! iteration count is decided *at run time* — the pattern that task
//! based (DAG) workflow managers cannot express at all (§2.1).
//!
//! P1 initialises an estimate, P2 performs one optimization step, P3
//! evaluates the convergence criterion and routes the datum either back
//! to P2 (`again` port) or to the sink (`done` port). Here the "codes"
//! are a toy 1-D gradient descent on f(x) = (x − target)², one
//! independent descent per input datum.
//!
//! Run with: `cargo run --example optimization_loop`

use moteur_repro::moteur::prelude::*;
use moteur_repro::moteur::RecordSink;

const TARGET: f64 = 3.0;
const RATE: f64 = 0.4;
const EPSILON: f64 = 1e-3;

fn main() {
    // P1: initial criterion value (the paper: "the output of processor
    // P1 would correspond to the initial value of this criterion").
    let init = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x0 = inputs[0].value.as_num().ok_or("expected a number")?;
        Ok(vec![("out".into(), DataValue::from(x0))])
    };
    // P2: one gradient-descent step.
    let step = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("expected a number")?;
        let grad = 2.0 * (x - TARGET);
        Ok(vec![("out".into(), DataValue::from(x - RATE * grad))])
    };
    // P3: convergence test with conditional output routing.
    let check = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
        let x = inputs[0].value.as_num().ok_or("expected a number")?;
        let port = if (x - TARGET).abs() < EPSILON {
            "done"
        } else {
            "again"
        };
        Ok(vec![(port.into(), DataValue::from(x))])
    };

    let mut wf = Workflow::new("fig2-loop");
    let src = wf.add_source("source");
    let p1 = wf.add_service("P1", &["in"], &["out"], ServiceBinding::local(init));
    let p2 = wf.add_service("P2", &["in"], &["out"], ServiceBinding::local(step));
    let p3 = wf.add_service(
        "P3",
        &["in"],
        &["again", "done"],
        ServiceBinding::local(check),
    );
    let sink = wf.add_sink("converged");
    wf.connect(src, "out", p1, "in").unwrap();
    wf.connect(p1, "out", p2, "in").unwrap();
    wf.connect(p2, "out", p3, "in").unwrap();
    wf.connect(p3, "again", p2, "in").unwrap(); // the loop of Fig. 2
    wf.connect(p3, "done", sink, "in").unwrap();
    assert!(
        wf.has_cycle(),
        "this graph would be illegal for a DAG manager"
    );

    // Several descents from very different starting points: each needs
    // a different number of iterations, unknown before execution.
    let starts = [0.0, 10.0, -50.0, 3.4, 1e6];
    let inputs = InputData::new().set(
        "source",
        starts.iter().map(|&x| DataValue::from(x)).collect(),
    );

    let mut backend = LocalBackend::new();
    let (sink, records) = RecordSink::new();
    let result = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .obs(Obs::new(vec![Box::new(sink)]))
        .run(&mut backend)
        .expect("loop converges");
    let p2: Vec<_> = records
        .snapshot()
        .into_iter()
        .filter(|r| r.processor == "P2")
        .collect();

    println!("start        iterations   final x");
    println!("----------------------------------");
    let per_datum: Vec<usize> = starts
        .iter()
        .enumerate()
        .map(|(j, _)| {
            p2.iter()
                .filter(|r| r.index == DataIndex::single(j as u32))
                .count()
        })
        .collect();
    for (j, (&x0, iters)) in starts.iter().zip(&per_datum).enumerate() {
        let out = result
            .sink("converged")
            .iter()
            .find(|t| t.index == DataIndex::single(j as u32))
            .and_then(|t| t.value.as_num())
            .expect("every datum converges");
        println!("{x0:<12} {iters:<12} {out:.5}");
    }
    println!();
    println!(
        "total P2 invocations: {} — determined at run time, impossible to declare statically",
        p2.len()
    );
}
