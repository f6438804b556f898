//! `moteur-bench` driven as a process: the baseline refresh only ever
//! installs a document the comparison itself would accept, and flags
//! keep their rejection messages.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(dir: &Path, args: &[&str], update_baseline: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_moteur-bench"));
    cmd.current_dir(dir).args(args);
    if update_baseline {
        cmd.env("MOTEUR_BENCH_UPDATE_BASELINE", "1");
    } else {
        cmd.env_remove("MOTEUR_BENCH_UPDATE_BASELINE");
    }
    cmd.output().expect("moteur-bench runs")
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

#[test]
fn baseline_refresh_refuses_documents_the_gate_would_not_read() {
    let dir = temp_dir("refresh");
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect(file);
    let refresh = |summary: &str, scale: &str| {
        let args = [
            "gate",
            "--summary",
            summary,
            "--baseline",
            "base.json",
            "--scale",
            scale,
            "--scale-baseline",
            "scale_base.json",
        ];
        bench(&dir, &args, true)
    };

    let out = bench(&dir, &["campaign", "--sweep", "ndata=1..2"], false);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = bench(&dir, &["scale", "--events", "2000", "--jobs", "10"], false);
    assert!(out.status.success(), "{}", stderr(&out));

    // Well-formed documents seed both baselines, byte for byte …
    let out = refresh("BENCH_summary.json", "BENCH_scale.json");
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(read("base.json"), read("BENCH_summary.json"));
    assert_eq!(read("scale_base.json"), read("BENCH_scale.json"));
    // … and the gate then passes against them.
    let compare = [
        "gate",
        "--baseline",
        "base.json",
        "--scale-baseline",
        "scale_base.json",
    ];
    let out = bench(&dir, &compare, false);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // A truncated, non-JSON or wrong-schema summary exits non-zero and
    // leaves both baselines untouched.
    let summary = read("BENCH_summary.json");
    std::fs::write(dir.join("truncated.json"), &summary[..summary.len() / 2]).unwrap();
    std::fs::write(dir.join("text.json"), "not json\n").unwrap();
    for (bad, names) in [
        ("truncated.json", "summary: "),
        ("text.json", "summary: "),
        ("BENCH_point.json", "summary: unsupported schema"),
    ] {
        let out = refresh(bad, "BENCH_scale.json");
        assert_eq!(out.status.code(), Some(1), "{bad}");
        assert!(stderr(&out).contains(names), "{bad}: {}", stderr(&out));
        assert_eq!(read("base.json"), summary, "{bad}");
        assert_eq!(read("scale_base.json"), read("BENCH_scale.json"), "{bad}");
    }
    // So does a bad scale document: nothing is written unless every
    // document is good.
    std::fs::write(dir.join("base.json"), "old summary baseline").unwrap();
    let out = refresh("BENCH_summary.json", "BENCH_summary.json");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("scale: unsupported schema"));
    assert_eq!(read("base.json"), "old summary baseline");

    std::fs::remove_dir_all(&dir).ok();
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
            &["gate", "--threshold", "x"],
            "--threshold needs a fraction (e.g. 0.10)",
        ),
    ] {
        let out = bench(&dir, args, false);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            stderr(&out),
            format!("moteur-bench: {message}\n"),
            "{args:?}"
        );
    }
    assert_eq!(bench(&dir, &["bogus"], false).status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
