//! Determinism contract of `--profile`: the canonical `moteur/prof/v1`
//! document contains only call and allocation counters — never wall
//! time — so two processes given identical inputs must write
//! byte-identical files, and the JSON codec must round-trip them
//! exactly.

use moteur_repro::moteur::{prof_from_json, prof_to_json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn moteur() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur"))
}

fn gridsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur-gridsim"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let base = std::env::temp_dir().join(format!(
            "moteur-profile-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&base).expect("create temp dir");
        TempDir(base)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn moteur_run_profiles_are_byte_identical_across_processes() {
    let dir = TempDir::new("run");
    assert!(moteur()
        .arg("example")
        .current_dir(dir.path())
        .output()
        .unwrap()
        .status
        .success());
    for profile in ["p1.json", "p2.json"] {
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
                &format!("profile={profile},profile-collapsed=stacks.folded"),
            ])
            .current_dir(dir.path())
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The hot-spot table lands on stderr so stdout stays scriptable.
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("prof: subsystem hot spots"), "{err}");
        assert!(err.contains("enactor_loop"), "{err}");
    }
    let p1 = std::fs::read(dir.path().join("p1.json")).expect("first profile");
    let p2 = std::fs::read(dir.path().join("p2.json")).expect("second profile");
    assert_eq!(p1, p2, "profile JSON differs between identical processes");

    // The canonical document round-trips through the codec exactly.
    let text = String::from_utf8(p1).expect("utf8 profile");
    let report = prof_from_json(&text).expect("parse canonical profile");
    assert_eq!(prof_to_json(&report), text);
    assert!(text.contains("\"schema\":\"moteur/prof/v1\""));
    assert!(text.contains("\"subsystem\":\"enactor_loop\""));

    // The collapsed export is flamegraph-shaped: `stack weight` lines
    // rooted at `moteur`.
    let folded =
        std::fs::read_to_string(dir.path().join("stacks.folded")).expect("collapsed stacks");
    for line in folded.lines() {
        assert!(line.starts_with("moteur;"), "{line}");
        let (_, weight) = line.rsplit_once(' ').expect("weighted line");
        weight.parse::<u64>().expect("integer weight");
    }
    assert!(folded.contains("moteur;enactor_loop;fire"), "{folded}");
}

#[test]
fn gridsim_profiles_are_byte_identical_across_processes() {
    let dir = TempDir::new("gridsim");
    for profile in ["g1.json", "g2.json"] {
        let out = gridsim()
            .args(["--jobs", "25", "--seed", "11", "--emit"])
            .arg(format!("profile={profile}"))
            .current_dir(dir.path())
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let g1 = std::fs::read(dir.path().join("g1.json")).expect("first profile");
    let g2 = std::fs::read(dir.path().join("g2.json")).expect("second profile");
    assert_eq!(g1, g2, "profile JSON differs between identical processes");

    let text = String::from_utf8(g1).expect("utf8 profile");
    let report = prof_from_json(&text).expect("parse canonical profile");
    assert_eq!(prof_to_json(&report), text);
    // The uninstrumented binary never installs the counting allocator,
    // so the allocation counters are deterministically zero.
    assert!(!text.contains("\"allocs\":1"), "{text}");
    assert!(text.contains("\"subsystem\":\"event_queue\""));
}

#[test]
fn openmetrics_exposition_carries_prof_counters_when_profiling() {
    let dir = TempDir::new("openmetrics");
    let out = gridsim()
        .args([
            "--jobs",
            "8",
            "--seed",
            "3",
            "--emit",
            "profile=p.json,openmetrics=grid.om",
        ])
        .current_dir(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let om = std::fs::read_to_string(dir.path().join("grid.om")).expect("openmetrics file");
    // OpenMetrics names the family without the `_total` suffix.
    assert!(om.contains("# TYPE moteur_prof_calls counter"), "{om}");
    assert!(
        om.contains("moteur_prof_calls_total{subsystem=\"event_queue\"}"),
        "{om}"
    );
    assert!(om.ends_with("# EOF\n"), "single terminator preserved");
    assert_eq!(om.matches("# EOF").count(), 1);
}
