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
            "--emit",
            "report=-,provenance=prov.xml",
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
            "--emit",
            "events=events.jsonl,chrome-trace=trace.json,metrics=metrics.json,critical-path=-",
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
            "--emit",
            "openmetrics=metrics.om,spans=spans.jsonl",
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
            "--emit",
            "openmetrics=grid.om,spans=grid-spans.jsonl",
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

fn gridsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur-gridsim"))
}

/// Exit code, stdout and stderr of one invocation in `dir`.
fn outcome(mut command: Command, dir: &tempdir::TempDir, args: &[&str]) -> (i32, String, String) {
    let out = command
        .args(args)
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    (
        out.status.code().expect("exited, not signalled"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn example_dir() -> tempdir::TempDir {
    let dir = in_temp_dir();
    let (code, _, stderr) = outcome(moteur(), &dir, &["example"]);
    assert_eq!(code, 0, "{stderr}");
    dir
}

const RUN: [&str; 3] = ["run", "bronze-standard.xml", "inputs-12.xml"];

/// A usage error: exit 2, nothing on stdout, one line on stderr that
/// names the subcommand and the flag.
fn assert_usage_error(
    command: Command,
    dir: &tempdir::TempDir,
    args: &[&str],
    who: &str,
    what: &str,
) {
    let (code, stdout, stderr) = outcome(command, dir, args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?} must not run anything");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{who}: ")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains(what), "{args:?}: {stderr}");
}

/// Every subcommand of both binaries refuses a flag it does not
/// declare, a value flag at the end of the line and a value flag
/// followed by another flag — each of these used to exit 0 (or run a
/// different experiment) without a word.
#[test]
fn undeclared_flags_and_missing_values_are_usage_errors_everywhere() {
    let dir = example_dir();
    // (subcommand and operands, one of its value flags, one of its switches)
    let with_flags: [(&[&str], &str, &str); 5] = [
        (&RUN, "--cache-dir", "--no-verify"),
        (&["daemon"], "--socket", "--check-protocol"),
        (&["timeline", "render", "t.json"], "--width", "--width"),
        (&["lint", "bronze-standard.xml"], "--ndata", "--json"),
        (&["plan", "bronze-standard.xml"], "--cap", "--json"),
    ];
    for (base, value_flag, other) in with_flags {
        let who = format!("moteur {}", base[0]);
        let needs = format!("{value_flag} needs a value");
        for (extra, what) in [
            (&["--bogus"][..], "unknown flag `--bogus`"),
            (&[value_flag], &needs),
            (&[value_flag, other], &needs),
        ] {
            assert_usage_error(moteur(), &dir, &[base, extra].concat(), &who, what);
        }
    }
    for base in [
        &["validate", "bronze-standard.xml"][..],
        &["group", "bronze-standard.xml"],
        &["dot", "bronze-standard.xml"],
        &["cache", "stats", "nowhere"],
        &["example"],
    ] {
        let who = format!("moteur {}", base[0]);
        let args = [base, &["--jsno"]].concat();
        assert_usage_error(moteur(), &dir, &args, &who, "unknown flag `--jsno`");
    }
    assert!(
        !dir.path().join("nowhere").exists(),
        "cache opened no store"
    );

    let who = "moteur-gridsim";
    assert_usage_error(gridsim(), &dir, &["--bogus"], who, "unknown flag `--bogus`");
    assert_usage_error(gridsim(), &dir, &["--jobs"], who, "--jobs needs a value");
    assert_usage_error(
        gridsim(),
        &dir,
        &["--jobs", "--seed", "1"],
        who,
        "--jobs needs a value",
    );

    // The two motivating lines: neither may write or batch anything.
    let typo = [&RUN[..], &["--evnts", "x.jsonl", "--batch", "zz"]].concat();
    assert_usage_error(
        moteur(),
        &dir,
        &typo,
        "moteur run",
        "unknown flag `--evnts`",
    );
    assert!(!dir.path().join("x.jsonl").exists());
}

/// A present-but-mistyped value is an error, never the default: `--seed
/// x` used to run seed 2006 and `--batch x` used to batch nothing. The
/// value errors that were already caught keep their message and exit 1.
#[test]
fn mistyped_values_fail_before_anything_is_enacted() {
    let dir = example_dir();
    for (flag, value, message) in [
        ("--seed", "x", "moteur: --seed needs an integer\n"),
        ("--batch", "x", "moteur: --batch needs a positive integer\n"),
        (
            "--max-retries",
            "abc",
            "moteur: --max-retries needs a valid number, got `abc`\n",
        ),
        (
            "--slo",
            "fast",
            "moteur: --slo needs a number (multiple of the predicted makespan)\n",
        ),
        (
            "--fetch-cost",
            "cheap",
            "moteur: --fetch-cost needs a number (seconds)\n",
        ),
    ] {
        let args = [&RUN[..], &[flag, value]].concat();
        let (code, stdout, stderr) = outcome(moteur(), &dir, &args);
        assert_eq!((code, stdout.as_str()), (1, ""), "{flag}: {stderr}");
        assert_eq!(stderr, message);
    }
    let (code, stdout, stderr) = outcome(gridsim(), &dir, &["--seed", "x"]);
    assert_eq!((code, stdout.as_str()), (1, ""), "{stderr}");
    assert_eq!(stderr, "moteur-gridsim: --seed needs an integer\n");
    let (code, _, stderr) = outcome(moteur(), &dir, &["daemon", "--max-jobs", "many"]);
    assert_eq!(code, 1);
    assert_eq!(stderr, "moteur: --max-jobs needs an integer, got `many`\n");
}

/// The fourteen per-format flags are gone, not aliased: each fails like
/// any undeclared flag, with the `--emit` spelling as a hint. `--events
/// --report` used to write a file called `--report`.
#[test]
fn removed_output_flags_point_at_emit() {
    let dir = example_dir();
    for (flag, hint) in [
        ("--events", "use --emit events=PATH"),
        ("--chrome-trace", "use --emit chrome-trace=PATH"),
        ("--metrics", "use --emit metrics=PATH"),
        ("--openmetrics", "use --emit openmetrics=PATH"),
        ("--spans", "use --emit spans=PATH"),
        ("--timeline", "use --emit timeline=PATH"),
        ("--timeline-csv", "use --emit timeline-csv=PATH"),
        ("--profile", "use --emit profile=PATH"),
        ("--profile-collapsed", "use --emit profile-collapsed=PATH"),
        ("--provenance", "use --emit provenance=PATH"),
        ("--workflow-report", "use --emit workflow-report=PATH"),
        ("--report", "use --emit report=-"),
        ("--critical-path", "use --emit critical-path=-"),
        ("--diagram", "use --emit diagram=-"),
    ] {
        let args = [&RUN[..], &[flag, "out.file"]].concat();
        assert_usage_error(moteur(), &dir, &args, "moteur run", hint);
    }
    assert!(!dir.path().join("out.file").exists());
    let args = [&RUN[..], &["--events", "--report"]].concat();
    assert_usage_error(
        moteur(),
        &dir,
        &args,
        "moteur run",
        "unknown flag `--events`",
    );
    assert!(!dir.path().join("--report").exists());
    assert_usage_error(
        gridsim(),
        &dir,
        &["--jobs", "2", "--events", "out.file"],
        "moteur-gridsim",
        "use --emit events=PATH",
    );
}

#[test]
fn emit_rejects_malformed_specs_before_enacting() {
    let dir = example_dir();
    let run = |spec: &str| outcome(moteur(), &dir, &[&RUN[..], &["--emit", spec]].concat());
    let grid = |spec: &str| outcome(gridsim(), &dir, &["--jobs", "2", "--emit", spec]);
    let all = "report|provenance|events|metrics|chrome-trace|spans|openmetrics|profile|\
               profile-collapsed|timeline|timeline-csv|critical-path|diagram|workflow-report";
    let seven = "events|spans|openmetrics|profile|profile-collapsed|timeline|timeline-csv";
    for ((code, stdout, stderr), message) in [
        (
            run("evnts=e.jsonl"),
            format!("moteur: --emit: unknown kind `evnts` ({all})\n"),
        ),
        (
            run("events=a.jsonl,events=b.jsonl"),
            "moteur: --emit: `events` given twice\n".to_string(),
        ),
        (
            run("report"),
            "moteur: --emit `report` needs KIND=PATH\n".to_string(),
        ),
        (
            run("metrics=-"),
            "moteur: --emit: `metrics` is not text; give it a file, not `-`\n".to_string(),
        ),
        (
            grid("evnts=e.jsonl"),
            format!("moteur-gridsim: --emit: unknown kind `evnts` ({seven})\n"),
        ),
        (
            grid("report=-"),
            format!(
                "moteur-gridsim: --emit: `report` needs a workflow result, \
                 which only `moteur run` has ({seven})\n"
            ),
        ),
    ] {
        assert_eq!((code, stdout.as_str()), (1, ""), "{stderr}");
        assert_eq!(stderr, message);
    }
    assert!(!dir.path().join("a.jsonl").exists(), "no sink was created");
}

const FILE_KINDS: [(&str, &str); 11] = [
    ("provenance", "provenance written to provenance.out"),
    ("events", "events written to events.out"),
    ("metrics", "metrics written to metrics.out"),
    (
        "chrome-trace",
        "chrome trace written to chrome-trace.out (load in ui.perfetto.dev)",
    ),
    ("spans", "spans written to spans.out ("),
    ("openmetrics", "openmetrics written to openmetrics.out"),
    ("profile", "profile written to profile.out"),
    (
        "profile-collapsed",
        "collapsed stacks written to profile-collapsed.out",
    ),
    ("timeline", "timeline written to timeline.out"),
    ("timeline-csv", "timeline csv written to timeline-csv.out"),
    (
        "workflow-report",
        "workflow report written to workflow-report.out",
    ),
];

/// All fourteen kinds in one `--emit`: every file exists and is not
/// empty, every text kind is on stdout, every "written to" line is
/// printed exactly once.
#[test]
fn one_emit_writes_all_fourteen_kinds() {
    let dir = example_dir();
    let mut spec: Vec<String> = FILE_KINDS
        .iter()
        .map(|(kind, _)| format!("{kind}={kind}.out"))
        .collect();
    spec.extend(["report=-", "critical-path=-", "diagram=-"].map(String::from));
    let args = [&RUN[..], &["--config", "sp+dp+jg", "--seed", "7", "--emit"]].concat();
    let (code, stdout, stderr) = outcome(moteur(), &dir, &[&args[..], &[&spec.join(",")]].concat());
    assert_eq!(code, 0, "{stderr}");
    for (kind, line) in FILE_KINDS {
        let len = std::fs::metadata(dir.path().join(format!("{kind}.out")))
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
            .len();
        assert!(len > 0, "{kind} is empty");
        assert_eq!(stdout.matches(line).count(), 1, "{line}: {stdout}");
    }
    assert_eq!(stdout.matches(" written to ").count(), 11, "{stdout}");
    for section in [
        "makespan 4229.8s over 49 jobs", // report
        "critical path",
        "per-service contribution",
        "bottleneck: ",           // rides along with the timeline
        "\nMultiTransfoTest | X", // diagram lane
    ] {
        assert!(stdout.contains(section), "{section}: {stdout}");
    }
    assert!(stderr.contains("prof: subsystem hot spots"), "{stderr}");
    let prof = std::fs::read_to_string(dir.path().join("profile.out")).unwrap();
    assert!(prof.contains("moteur/prof/v1"), "{prof}");
    let timeline = std::fs::read_to_string(dir.path().join("timeline.out")).unwrap();
    assert!(timeline.contains("moteur/timeline/v1"), "{timeline}");
    let report = std::fs::read_to_string(dir.path().join("workflow-report.out")).unwrap();
    assert!(report.contains("\"ok\":true"), "{report}");

    // A text kind given a PATH goes to the file instead of stdout.
    let spec = "report=report.txt";
    let (code, stdout, stderr) = outcome(moteur(), &dir, &[&args[..], &[spec]].concat());
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("report written to report.txt"), "{stdout}");
    assert!(!stdout.contains("makespan 4229.8s"), "{stdout}");
    let report = std::fs::read_to_string(dir.path().join("report.txt")).unwrap();
    assert!(
        report.ends_with("makespan 4229.8s over 49 jobs\n"),
        "{report}"
    );
}

#[test]
fn one_emit_writes_all_seven_gridsim_kinds() {
    let dir = in_temp_dir();
    let offered: Vec<(&str, &str)> = FILE_KINDS
        .into_iter()
        .filter(|(kind, _)| {
            !["provenance", "metrics", "chrome-trace", "workflow-report"].contains(kind)
        })
        .collect();
    assert_eq!(offered.len(), 7);
    let spec: Vec<String> = offered
        .iter()
        .map(|(kind, _)| format!("{kind}={kind}.out"))
        .collect();
    let (code, stdout, stderr) = outcome(
        gridsim(),
        &dir,
        &["--jobs", "25", "--seed", "7", "--emit", &spec.join(",")],
    );
    assert_eq!(code, 0, "{stderr}");
    for (kind, line) in offered {
        let len = std::fs::metadata(dir.path().join(format!("{kind}.out")))
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
            .len();
        assert!(len > 0, "{kind} is empty");
        assert_eq!(stdout.matches(line).count(), 1, "{line}: {stdout}");
    }
    assert_eq!(stdout.matches(" written to ").count(), 7, "{stdout}");
    assert!(stdout.contains("delivered 25/25 jobs"), "{stdout}");
    assert!(stdout.contains("bottleneck: "), "{stdout}");
    assert!(stderr.contains("prof: subsystem hot spots"), "{stderr}");
}

/// `--help` is the one synopsis: exit 0, on stdout, every subcommand
/// and every flag of the tables, the `--emit` kinds from the export
/// table.
#[test]
fn help_lists_every_subcommand_and_flag() {
    let dir = in_temp_dir();
    let (code, help, _) = outcome(moteur(), &dir, &["--help"]);
    assert_eq!(code, 0);
    for line in [
        "moteur run <workflow.xml> <inputs.xml> [--config LABEL]",
        "moteur daemon [--socket PATH]",
        "moteur timeline render <timeline.json> [--heatmap METRIC] [--width N]",
        "moteur lint <workflow.xml> [--json]",
        "[--explain M0xx]",
        "moteur plan <workflow.xml> [--json]",
        "moteur validate <workflow.xml>",
        "moteur cache <stats|gc|clear> <dir>",
        "moteur example",
        "[--no-verify]",
        "[--emit KIND=PATH,..]",
        "critical-path diagram workflow-report",
        "PATH `-` prints report, critical-path, diagram to stdout",
    ] {
        assert!(help.contains(line), "{line}: {help}");
    }
    let (code, run_help, _) = outcome(moteur(), &dir, &["run", "--help"]);
    assert_eq!(code, 0);
    assert!(
        help.starts_with(&run_help),
        "one subcommand's section of the same text"
    );
    let (code, grid_help, _) = outcome(gridsim(), &dir, &["--help"]);
    assert_eq!(code, 0);
    assert!(grid_help.starts_with("moteur-gridsim [--jobs N] [--compute SECS] [--seed N]"));
    assert!(grid_help.contains("profile-collapsed"), "{grid_help}");
    assert!(!grid_help.contains("workflow-report"), "{grid_help}");
    // No subcommand is a usage error that names them all.
    let (code, stdout, stderr) = outcome(moteur(), &dir, &[]);
    assert_eq!((code, stdout.as_str()), (2, ""));
    assert!(
        stderr.contains("<run|daemon|timeline|lint|plan|validate|group|dot|cache|example>"),
        "{stderr}"
    );
    let (code, _, stderr) = outcome(moteur(), &dir, &["run", "--grid", "mars"]);
    assert_eq!(code, 1, "operands are checked first: {stderr}");
    let dir = example_dir();
    let (code, _, stderr) = outcome(moteur(), &dir, &[&RUN[..], &["--grid", "mars"]].concat());
    assert_eq!(code, 1);
    assert_eq!(stderr, "moteur: unknown grid `mars` (egee|ideal)\n");
    let (_, _, stderr) = outcome(moteur(), &dir, &["daemon", "--grid", "mars"]);
    assert_eq!(stderr, "moteur: unknown grid `mars` (virtual|egee|ideal)\n");
    let (_, _, stderr) = outcome(gridsim(), &dir, &["--grid", "mars"]);
    assert_eq!(stderr, "moteur-gridsim: unknown grid `mars` (egee|ideal)\n");
}
