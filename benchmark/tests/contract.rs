//! The binaries against `BENCHMARK.json`: every metric the file names
//! appears on the result line with its unit, and nothing else does.
//! Runs the cheapest workload (`memo_cold`) for a fraction of a second;
//! `--trace 1` goes to the untraced binary on purpose, so the hand-over
//! to the traced one is covered too.

use moteur_benchmark::json::Value;
use moteur_benchmark::runner::parse_result_line;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moteur-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// (name, unit) of every metric under `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).unwrap().as_str().unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// (name, unit) of every metric on the last line of `stdout`.
fn printed(stdout: &str) -> Vec<(String, String)> {
    let doc = Value::parse(stdout.lines().last().unwrap()).unwrap();
    doc.get("metrics")
        .unwrap()
        .members()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn untraced_run_prints_exactly_the_end_to_end_metrics() {
    let out = run(&[
        "--workload",
        "memo_cold",
        "--seed",
        "11",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--setup-reps",
        "2",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert_eq!(printed(&stdout), declared("end_to_end"));
    let line = parse_result_line(&stdout).unwrap();
    assert!(line.correct && line.failed == 0 && line.attempted >= 3);
    assert!(
        line.metrics.iter().all(|(_, v)| *v > 0.0),
        "end-to-end metrics are never 0: {line:?}"
    );
    assert!(stdout.lines().any(|l| l.starts_with("#exact ")));
}

#[test]
fn traced_run_prints_exactly_the_per_layer_metrics_and_measures_its_probes() {
    let out = run(&[
        "--workload",
        "memo_cold",
        "--seed",
        "12",
        "--seconds",
        "0.1",
        "--trace",
        "1",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert_eq!(printed(&stdout), declared("per_layer"));
    let line = parse_result_line(&stdout).unwrap();
    let value = |name: &str| line.metrics.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(value("makespan_virtual_s"), 330.0);
    assert_eq!(value("grid_jobs"), 5000.0);
    assert_eq!(value("store.misses"), 5000.0);
    for measured in [
        "store.insert.ns_per_op",
        "store.insert.allocs_per_op",
        "store.disk.save.ns_per_entry",
        "stage.store_save.ms",
        "prof.provenance_key.calls",
        "alloc.allocs_per_item",
        "alloc.peak_live_mb",
    ] {
        assert!(value(measured) > 0.0, "{measured} was not measured");
    }
    assert_eq!(
        value("gridsim.drain.ns_per_event"),
        0.0,
        "a probe whose home is another workload reads 0"
    );
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-memo_cold.json");
    let spans = Value::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
    assert!(!spans.get("spans").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "memo_cold", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "memo_cold",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "memo_cold",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["--frobnicate", "1"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
