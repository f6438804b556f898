//! End-to-end tests of the `moteur` CLI binary: the full user journey
//! from `moteur example` through `run`, `validate`, `group` and `dot`.

use std::process::Command;

fn moteur() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur"))
}

fn in_temp_dir() -> tempdir::TempDir {
    tempdir::TempDir::new()
}

/// Minimal self-cleaning temp dir (no external crate).
mod tempdir {
    use std::path::{Path, PathBuf};

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new() -> TempDir {
            let base = std::env::temp_dir().join(format!(
                "moteur-cli-test-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&base).expect("create temp dir");
            TempDir(base)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn example_then_validate_then_run_round_trip() {
    let dir = in_temp_dir();
    let out = moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.path().join("bronze-standard.xml").exists());
    assert!(dir.path().join("inputs-12.xml").exists());

    let out = moteur()
        .args(["validate", "bronze-standard.xml"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OK"), "{text}");
    assert!(text.contains("critical path 5"), "{text}");

    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "sp+dp+jg",
            "--seed",
            "7",
            "--report",
            "--provenance",
            "prov.xml",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("completed in"), "{text}");
    assert!(
        text.contains("49 jobs submitted"),
        "grouped: 4×12 + 1: {text}"
    );
    assert!(
        text.contains("crestLines+crestMatch"),
        "report shows grouped services: {text}"
    );
    assert!(
        text.contains("sink accuracy_rotation: 1 result(s)"),
        "{text}"
    );
    // Provenance export parses and names the barrier.
    let prov = std::fs::read_to_string(dir.path().join("prov.xml")).expect("provenance file");
    assert!(prov.contains("<provenance>"), "{prov}");
    assert!(prov.contains("MultiTransfoTest"), "{prov}");
}

#[test]
fn dot_export_is_valid_graphviz_shape() {
    let dir = in_temp_dir();
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    let out = moteur()
        .args(["dot", "bronze-standard.xml"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(
        text.contains("doubleoctagon"),
        "MultiTransfoTest is a barrier: {text}"
    );
    assert!(text.trim_end().ends_with('}'), "{text}");
}

#[test]
fn group_reports_the_merged_processors() {
    let dir = in_temp_dir();
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    let out = moteur()
        .args(["group", "bronze-standard.xml"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("crestLines+crestMatch"), "{text}");
    assert!(text.contains("PFMatchICP+PFRegister"), "{text}");
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = moteur().output().expect("spawn");
    assert!(!out.status.success());
    let out = moteur()
        .args(["validate", "/nonexistent.xml"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("moteur:"));
    let dir = in_temp_dir();
    std::fs::write(dir.path().join("bad.xml"), "<scufl><mystery/></scufl>").unwrap();
    let out = moteur()
        .args(["validate", "bad.xml"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let out = moteur()
        .args(["run", "bad.xml", "missing.xml"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

/// Regression: a timeline file is outside input; nesting deep enough
/// to overflow the recursive JSON parser's stack must fail like any
/// other malformed file, not abort the process.
#[test]
fn timeline_render_rejects_deeply_nested_json_without_aborting() {
    let dir = in_temp_dir();
    std::fs::write(dir.path().join("deep.json"), "[".repeat(300_000)).unwrap();
    let out = moteur()
        .args(["timeline", "render", "deep.json"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "a clean failure, not a signal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("moteur: deep.json: nesting"), "{stderr}");
}

#[test]
fn unknown_config_is_rejected() {
    let dir = in_temp_dir();
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "warp9",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown config"));
}

#[test]
fn observability_flags_produce_trace_metrics_and_events() {
    let dir = in_temp_dir();
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "sp+dp",
            "--seed",
            "7",
            "--events",
            "events.jsonl",
            "--chrome-trace",
            "trace.json",
            "--metrics",
            "metrics.json",
            "--critical-path",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("73 jobs submitted"), "6×12 + 1 sync: {text}");
    assert!(text.contains("critical path"), "{text}");
    assert!(text.contains("per-service contribution"), "{text}");

    // Chrome trace is a complete-span envelope.
    let trace = std::fs::read_to_string(dir.path().join("trace.json")).expect("trace file");
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "{}",
        &trace[..80.min(trace.len())]
    );
    assert!(trace.contains("\"ph\":\"X\""), "complete spans present");
    assert!(trace.contains("\"ph\":\"C\""), "counter tracks present");
    assert!(trace.contains("crestLines"), "service lanes are named");

    // Metrics snapshot reconciles with the run banner.
    let metrics = std::fs::read_to_string(dir.path().join("metrics.json")).expect("metrics file");
    assert!(metrics.contains("\"job_submitted\":73"), "{metrics}");
    assert!(metrics.contains("grid_overhead_secs"), "{metrics}");

    // Every JSONL line is a typed, timestamped object; every submission
    // reaches a terminal event.
    let events = std::fs::read_to_string(dir.path().join("events.jsonl")).expect("events file");
    let mut submitted = 0;
    let mut terminal = 0;
    for line in events.lines() {
        assert!(line.starts_with("{\"type\":\""), "{line}");
        assert!(line.contains("\"t\":"), "{line}");
        if line.starts_with("{\"type\":\"job_submitted\"") {
            submitted += 1;
        }
        if line.starts_with("{\"type\":\"job_completed\"")
            || line.starts_with("{\"type\":\"job_failed\"")
        {
            terminal += 1;
        }
    }
    assert_eq!(submitted, 73);
    assert_eq!(terminal, 73);
}

#[test]
fn openmetrics_and_spans_flags_expose_the_perf_observatory() {
    let dir = in_temp_dir();
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "sp+dp",
            "--seed",
            "7",
            "--grid",
            "ideal",
            "--openmetrics",
            "metrics.om",
            "--spans",
            "spans.jsonl",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The exposition is spec-shaped: typed families, labelled samples,
    // histogram buckets ending at +Inf, single EOF terminator.
    let om = std::fs::read_to_string(dir.path().join("metrics.om")).expect("openmetrics file");
    assert!(om.contains("# TYPE moteur_events_total counter"), "{om}");
    assert!(
        om.contains("moteur_events_total{kind=\"job_submitted\"} 73"),
        "{om}"
    );
    assert!(
        om.contains("moteur_service_inflight{service=\"crestLines\"}"),
        "{om}"
    );
    assert!(
        om.contains("moteur_grid_overhead_seconds_bucket{le=\"+Inf\"} 73"),
        "{om}"
    );
    assert!(
        om.contains("moteur_phase_duration_seconds_sum{phase=\"execution\"}"),
        "{om}"
    );
    assert!(om.contains("moteur_makespan_seconds 465"), "{om}");
    assert!(om.ends_with("# EOF\n"), "terminated exposition");
    assert_eq!(om.matches("# EOF").count(), 1);

    // The span export is one JSON object per span, hierarchically
    // linked: exactly one root, every other span names a parent.
    let spans = std::fs::read_to_string(dir.path().join("spans.jsonl")).expect("spans file");
    let mut roots = 0;
    let mut items = 0;
    for line in spans.lines() {
        assert!(line.starts_with("{\"id\":"), "{line}");
        if !line.contains("\"parent\":") {
            roots += 1;
        }
        if line.contains("\"kind\":\"item\"") {
            items += 1;
        }
    }
    assert_eq!(roots, 1, "single workflow root");
    assert_eq!(items, 73, "one item span per job");
}

#[test]
fn gridsim_binary_runs_a_synthetic_load_with_openmetrics() {
    let dir = in_temp_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_moteur-gridsim"))
        .args([
            "--jobs",
            "8",
            "--compute",
            "60",
            "--seed",
            "11",
            "--openmetrics",
            "grid.om",
            "--spans",
            "grid-spans.jsonl",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("delivered 8/8 jobs"), "{text}");
    assert!(text.contains("overhead: mean"), "{text}");

    let om = std::fs::read_to_string(dir.path().join("grid.om")).expect("openmetrics file");
    assert!(
        om.contains("moteur_events_total{kind=\"grid_delivered\"} 8"),
        "{om}"
    );
    assert!(om.contains("# TYPE moteur_ce_queue_depth gauge"), "{om}");
    assert!(om.contains("moteur_grid_overhead_seconds_count 8"), "{om}");
    assert!(om.ends_with("# EOF\n"), "{om}");

    let spans = std::fs::read_to_string(dir.path().join("grid-spans.jsonl")).expect("spans file");
    let items = spans
        .lines()
        .filter(|l| l.contains("\"kind\":\"item\""))
        .count();
    assert_eq!(items, 8, "one item span per synthetic job");
    // EGEE overheads are stochastic but never zero: each item carries
    // a queuing phase.
    assert!(spans.contains("\"kind\":\"queuing\""), "{spans}");
}
