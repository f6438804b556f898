//! Reproducibility contract of `--seed`: two enactments with the same
//! seed are byte-for-byte identical in their event logs, across both
//! the `moteur` enactor and the `moteur-gridsim` standalone simulator —
//! and the data manager's warm restart holds across separate processes.

use std::path::Path;
use std::process::Command;

fn moteur() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur"))
}

fn gridsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur-gridsim"))
}

/// Minimal self-cleaning temp dir (no external crate).
mod tempdir {
    use std::path::{Path, PathBuf};

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new() -> TempDir {
            let base = std::env::temp_dir().join(format!(
                "moteur-determinism-test-{}-{:?}",
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

fn write_example(dir: &Path) {
    let out = moteur()
        .arg("example")
        .current_dir(dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn run_with_events(dir: &Path, seed: &str, events: &str) {
    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "sp+dp",
            "--seed",
            seed,
            "--emit",
            &format!("events={events}"),
        ])
        .current_dir(dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn same_seed_enactments_write_identical_event_logs() {
    let dir = tempdir::TempDir::new();
    write_example(dir.path());
    run_with_events(dir.path(), "42", "a.jsonl");
    run_with_events(dir.path(), "42", "b.jsonl");
    run_with_events(dir.path(), "43", "c.jsonl");
    let a = std::fs::read(dir.path().join("a.jsonl")).expect("a.jsonl");
    let b = std::fs::read(dir.path().join("b.jsonl")).expect("b.jsonl");
    let c = std::fs::read(dir.path().join("c.jsonl")).expect("c.jsonl");
    assert!(!a.is_empty(), "event log must not be empty");
    assert_eq!(a, b, "same seed must be byte-identical");
    // The default EGEE grid is stochastic, so a different seed must
    // actually change the trace — otherwise the seed is not wired in.
    assert_ne!(a, c, "different seeds must diverge on the EGEE grid");
}

#[test]
fn same_seed_gridsim_runs_write_identical_event_logs() {
    let dir = tempdir::TempDir::new();
    let run = |seed: &str, events: &str| {
        let out = gridsim()
            .args(["--jobs", "8", "--seed", seed, "--emit"])
            .arg(format!("events={events}"))
            .current_dir(dir.path())
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run("9", "a.jsonl");
    run("9", "b.jsonl");
    let a = std::fs::read(dir.path().join("a.jsonl")).expect("a.jsonl");
    let b = std::fs::read(dir.path().join("b.jsonl")).expect("b.jsonl");
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

fn run_with_timeline(dir: &Path, seed: &str, timeline: &str) {
    let out = moteur()
        .args([
            "run",
            "bronze-standard.xml",
            "inputs-12.xml",
            "--config",
            "sp+dp",
            "--seed",
            seed,
            "--emit",
            &format!("timeline={timeline}"),
        ])
        .current_dir(dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The timeline export is virtual-time-only, so two enactments with
/// the same workflow and seed must serialise to byte-identical
/// `moteur/timeline/v1` documents even across separate processes.
#[test]
fn same_seed_enactments_write_identical_timelines() {
    let dir = tempdir::TempDir::new();
    write_example(dir.path());
    run_with_timeline(dir.path(), "42", "a.json");
    run_with_timeline(dir.path(), "42", "b.json");
    run_with_timeline(dir.path(), "43", "c.json");
    let a = std::fs::read(dir.path().join("a.json")).expect("a.json");
    let b = std::fs::read(dir.path().join("b.json")).expect("b.json");
    let c = std::fs::read(dir.path().join("c.json")).expect("c.json");
    assert!(!a.is_empty(), "timeline must not be empty");
    assert!(
        std::str::from_utf8(&a)
            .expect("utf-8")
            .contains("moteur/timeline/v1"),
        "timeline must carry its schema tag"
    );
    assert_eq!(a, b, "same seed must be byte-identical");
    assert_ne!(a, c, "different seeds must diverge on the EGEE grid");
}

/// Same contract for the standalone simulator's `--timeline`.
#[test]
fn same_seed_gridsim_runs_write_identical_timelines() {
    let dir = tempdir::TempDir::new();
    let run = |seed: &str, timeline: &str| {
        let out = gridsim()
            .args(["--jobs", "8", "--seed", seed, "--emit"])
            .arg(format!("timeline={timeline}"))
            .current_dir(dir.path())
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run("9", "a.json");
    run("9", "b.json");
    let a = std::fs::read(dir.path().join("a.json")).expect("a.json");
    let b = std::fs::read(dir.path().join("b.json")).expect("b.json");
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The data manager's warm restart across *processes*: a second
/// `moteur run --cache-dir` in a fresh process loads the persisted
/// store and elides every deterministic grid job (only the
/// uncacheable synchronization barrier is resubmitted).
#[test]
fn warm_restart_across_processes_elides_grid_jobs() {
    let dir = tempdir::TempDir::new();
    write_example(dir.path());
    let enact_cached = || {
        let out = moteur()
            .args([
                "run",
                "bronze-standard.xml",
                "inputs-12.xml",
                "--config",
                "sp+dp",
                "--grid",
                "ideal",
                "--seed",
                "7",
                "--cache-dir",
                "cache",
            ])
            .current_dir(dir.path())
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = enact_cached();
    assert!(cold.contains("73 jobs submitted"), "cold: {cold}");
    let warm = enact_cached();
    assert!(
        warm.contains("1 jobs submitted"),
        "warm should keep only the barrier: {warm}"
    );
    assert!(warm.contains("72 hits"), "warm: {warm}");

    // The maintenance subcommand reads the same on-disk store.
    let out = moteur()
        .args(["cache", "stats", "cache"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stats = String::from_utf8_lossy(&out.stdout);
    assert!(stats.contains("72 invocations"), "{stats}");

    let out = moteur()
        .args(["cache", "clear", "cache"])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let recold = enact_cached();
    assert!(
        recold.contains("73 jobs submitted"),
        "cleared cache re-runs everything: {recold}"
    );
}
