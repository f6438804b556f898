//! `moteur-bench` driven as a process: every campaign command writes
//! the same bytes on every run — which is what lets the committed
//! documents be the baseline — and flags keep their rejection messages.

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

/// Every field a campaign writes is a function of (code, seed, command
/// line): no wall clock, and no table whose growth depends on the
/// per-process hash keys (`stream`'s live-byte high-water mark did,
/// through the enactor's and the backend's id-keyed maps). The sizes
/// are reduced; `ci.sh` makes the same comparison at full size against
/// the committed files.
#[test]
fn every_campaign_command_writes_the_same_bytes_on_every_run() {
    let commands: [(&[&str], &[&str]); 8] = [
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
    std::fs::remove_dir_all(&dir).ok();
}
