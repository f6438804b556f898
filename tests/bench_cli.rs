//! `moteur-bench` driven as a process: every campaign command writes
//! the same bytes on every run — which is what lets the committed
//! documents be the baseline — flags keep their rejection messages, and
//! a line the flag table does not declare is refused before anything is
//! enacted or written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moteur-bench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("moteur-bench runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moteur-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_nothing_written(dir: &Path, by: &str) {
    let entries = std::fs::read_dir(dir).expect("temp dir is readable");
    let names: Vec<_> = entries.map(|e| e.expect("entry").file_name()).collect();
    assert!(names.is_empty(), "{by} wrote {names:?}");
}

/// Every field a campaign writes is a function of (code, seed, command
/// line): no wall clock, and no table whose growth depends on the
/// per-process hash keys (`stream`'s live-byte high-water mark did,
/// through the enactor's and the backend's id-keyed maps). The sizes
/// are reduced; `ci.sh` makes the same comparison at full size against
/// the committed files.
#[test]
fn every_campaign_command_writes_the_same_bytes_on_every_run() {
    let commands: [(&[&str], &[&str]); 9] = [
        (
            &["paper", "--quick", "--repeats", "2"],
            &["table1.txt", "table2.txt", "speedups.txt", "fig10.txt"],
        ),
        (
            &["campaign", "--sweep", "ndata=1..2"],
            &["BENCH_point.json", "BENCH_summary.json"],
        ),
        (&["warm", "--ndata", "2"], &["BENCH_warm.json"]),
        (&["faults", "--repeats", "3"], &["BENCH_faults.json"]),
        (
            &["timeline", "--ideal-ndata", "2"],
            &["BENCH_timeline.json"],
        ),
        (&["plan", "--ndata", "2"], &["BENCH_plan.json"]),
        (
            &["scale", "--events", "20000", "--jobs", "100"],
            &["BENCH_scale.json"],
        ),
        (
            &[
                "stream",
                "--items",
                "50000",
                "--capacity",
                "16",
                "--eager-items",
                "2000",
            ],
            &["BENCH_stream.json"],
        ),
        (
            &["daemon", "--workflows", "8", "--tenants", "4"],
            &["BENCH_daemon.json"],
        ),
    ];
    let (first, second) = (temp_dir("once"), temp_dir("twice"));
    for (args, files) in commands {
        for dir in [&first, &second] {
            let out = bench(dir, args);
            assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        }
        for file in files {
            let read = |dir: &Path| std::fs::read_to_string(dir.join(file)).expect(file);
            assert_eq!(read(&first), read(&second), "{file}");
        }
    }
    std::fs::remove_dir_all(&first).ok();
    std::fs::remove_dir_all(&second).ok();
}

#[test]
fn flags_keep_their_rejection_messages() {
    let dir = temp_dir("flags");
    for (args, message) in [
        (
            &["warm", "--ndata", "0"][..],
            "--ndata needs a positive integer",
        ),
        (&["faults", "--seed", "x"], "--seed needs an integer"),
        (
            &["faults", "--repeats", "-1"],
            "--repeats needs a positive integer",
        ),
        (
            &["faults", "--failure-probability", "2"],
            "--failure-probability needs a fraction in [0, 1]",
        ),
        (
            &["scale", "--events", "0"],
            "--events needs a positive integer",
        ),
        (
            &["stream", "--capacity", "x"],
            "--capacity needs a positive integer",
        ),
        (
            &["daemon", "--tenants", "0"],
            "--tenants needs a positive integer",
        ),
        (
            &["campaign", "--overhead", "x"],
            "--overhead needs a number (seconds)",
        ),
        (
            &["paper", "--quick", "--repeats", "x"],
            "--repeats needs a positive integer",
        ),
        (
            &["paper", "--quick", "--seed", "x"],
            "--seed needs an integer",
        ),
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            stderr(&out),
            format!("moteur-bench: {message}\n"),
            "{args:?}"
        );
    }
    assert_eq!(bench(&dir, &["bogus"]).status.code(), Some(2));
    assert_nothing_written(&dir, "a refused line");
    std::fs::remove_dir_all(&dir).ok();
}

/// The thirteen subcommands, each with one of its value flags (`None`
/// for the four that take none).
const SUBCOMMANDS: [(&str, Option<&str>); 13] = [
    ("paper", Some("--repeats")),
    ("diagrams", None),
    ("theory", None),
    ("ablation", None),
    ("granularity", None),
    ("campaign", Some("--sweep")),
    ("warm", Some("--seed")),
    ("faults", Some("--failure-probability")),
    ("timeline", Some("--loaded-ndata")),
    ("plan", Some("--ndata")),
    ("scale", Some("--events")),
    ("stream", Some("--capacity")),
    ("daemon", Some("--tenants")),
];

/// A line the table does not declare exits 2 naming the subcommand and
/// the flag, with nothing on stdout and nothing written: a typo costs
/// one error message instead of a silently different experiment.
fn assert_usage_error(dir: &Path, args: &[&str], what: &str) {
    let out = bench(dir, args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    let expected = format!("moteur-bench {}: {what}", args[0]);
    assert!(
        stderr(&out).starts_with(&expected),
        "{args:?}: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert_nothing_written(dir, &format!("{args:?}"));
}

#[test]
fn undeclared_flags_and_missing_values_are_usage_errors_on_every_subcommand() {
    let dir = temp_dir("usage");
    for (name, value_flag) in SUBCOMMANDS {
        assert_usage_error(&dir, &[name, "--bogus"], "unknown flag `--bogus`");
        let Some(flag) = value_flag else { continue };
        let needs = format!("{flag} needs a value");
        assert_usage_error(&dir, &[name, flag], &needs);
        assert_usage_error(&dir, &[name, flag, "--out-dir", "."], &needs);
    }

    // The four lines that exited 0 on a different experiment.
    assert_usage_error(
        &dir,
        &["warm", "--ndta", "3", "--bogus"],
        "unknown flag `--ndta`",
    );
    assert_usage_error(&dir, &["warm", "--seed"], "--seed needs a value (N)");
    assert_usage_error(
        &dir,
        &["paper", "--quik", "--sed", "7"],
        "unknown flag `--quik`",
    );
    let out = bench(&dir, &["paper", "--quick", "--repeats", "x"]);
    assert_eq!(out.status.code(), Some(1));
    assert_nothing_written(&dir, "a mistyped --repeats");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_the_thirteen_subcommands_and_their_flags() {
    let dir = temp_dir("help");
    let out = bench(&dir, &["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    let heads = help.lines().filter(|l| l.starts_with("moteur-bench "));
    let names: Vec<&str> = heads.map(|l| l.split(' ').nth(1).unwrap()).collect();
    assert_eq!(names, SUBCOMMANDS.map(|(name, _)| name));
    for (name, flag) in SUBCOMMANDS {
        let own = bench(&dir, &[name, "--help"]);
        let own = String::from_utf8_lossy(&own.stdout).into_owned();
        assert!(help.contains(&own), "{name}: {own}");
        if let Some(flag) = flag {
            assert!(own.contains(&format!("[{flag} ")), "{name}: {own}");
        }
    }
    assert_nothing_written(&dir, "--help");
    std::fs::remove_dir_all(&dir).ok();
}
