//! The modes that cover every workload: each workload runs in a child
//! process of its own (so `peak_rss_mb` is that workload's alone), one
//! after the other.

use crate::json;
use crate::runner::{self, ResultLine};
use crate::spec::{self, Workload};
use crate::workloads;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

#[derive(Debug, Clone)]
struct ChildRun {
    workload: &'static Workload,
    line: ResultLine,
    /// The seed-determined metrics (untraced runs only).
    exact: Vec<(String, f64)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.line
            .metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// One contract-mode run in a child process; its report is echoed.
fn child(w: &'static Workload, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let (stdout, ok) = runner::child_run(w, seed, seconds, traced, &[])?;
    for line in stdout.lines().filter(|l| !l.starts_with(['{', '#'])) {
        println!("{line}");
    }
    let line = runner::parse_result_line(&stdout).map_err(|e| {
        let exit = if ok { "" } else { " (the run exited non-zero)" };
        format!("{}: {e}{exit}", w.name)
    })?;
    let exact = if traced {
        Vec::new()
    } else {
        runner::parse_exact_line(&stdout)?
    };
    Ok(ChildRun {
        workload: w,
        line,
        exact,
    })
}

fn run_set(seed: u64, seconds: f64, traced: bool) -> Result<Vec<ChildRun>, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| child(w, seed, seconds, traced))
        .collect()
}

fn all_correct(set: &[ChildRun]) -> bool {
    set.iter().all(|r| r.line.correct)
}

/// `run` / `trace`: every workload once, every metric by name.
pub fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<ExitCode, String> {
    let set = run_set(seed, seconds, traced)?;
    println!();
    if traced {
        println!(
            "per-layer metrics are listed per workload above; span files are in benchmark/out/"
        );
    } else {
        let mut header = format!("{:<16}", "workload");
        for m in spec::end_to_end() {
            let _ = write!(header, " {:>16}", format!("{} [{}]", m.name, m.unit));
        }
        println!("{header} {:>8} {:>7}", "ops", "failed");
        for r in &set {
            let mut row = format!("{:<16}", r.workload.name);
            for m in spec::end_to_end() {
                let _ = write!(row, " {:>16.4}", r.metric(&m.name).unwrap_or(0.0));
            }
            println!("{row} {:>8} {:>7}", r.line.attempted, r.line.failed);
        }
    }
    Ok(if all_correct(&set) {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one op produced a wrong output");
        ExitCode::FAILURE
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where the numbers were taken: CPU, cores, kernel, compiler, commit.
fn machine_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let dir = workloads::bench_dir().display().to_string();
    let commit =
        command_line("git", &["-C", &dir, "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
        json::quote(&cpu),
        json::quote(&kernel),
        json::quote(&rustc),
        json::quote(&commit)
    )
}

fn object(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One compared number of `agree`.
struct Row {
    workload: &'static str,
    metric: String,
    first: f64,
    second: f64,
    /// `None` for the metrics that must repeat exactly.
    bound: Option<f64>,
}

impl Row {
    /// Distance between the two runs as a share of the first.
    fn difference(&self) -> f64 {
        if self.first == self.second {
            0.0
        } else if self.first == 0.0 {
            f64::INFINITY
        } else {
            ((self.second - self.first) / self.first).abs()
        }
    }

    fn ok(&self) -> bool {
        match self.bound {
            None => self.first == self.second,
            Some(bound) => self.difference() < bound,
        }
    }
}

fn compare(first: &[ChildRun], second: &[ChildRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for m in spec::end_to_end() {
            rows.push(Row {
                workload: a.workload.name,
                first: a.metric(&m.name).unwrap_or(0.0),
                second: b.metric(&m.name).unwrap_or(0.0),
                metric: m.name,
                bound: m.bound,
            });
        }
        for ((name, x), (_, y)) in a.exact.iter().zip(&b.exact) {
            rows.push(Row {
                workload: a.workload.name,
                metric: name.clone(),
                first: *x,
                second: *y,
                bound: None,
            });
        }
    }
    rows
}

/// `agree`: the untraced set twice and the traced set once. Fails
/// unless every exact metric is identical between the two untraced sets
/// and every timed metric differs by less than its bound. Writes
/// `results/agreement.json` and the first numbers, `results/baseline.json`.
pub fn agree(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    println!("== first untraced set ==");
    let first = run_set(seed, seconds, false)?;
    println!("== second untraced set ==");
    let second = run_set(seed, seconds, false)?;
    println!("== traced set ==");
    let traced = run_set(seed, seconds, true)?;
    let rows = compare(&first, &second);
    let agreed = rows.iter().all(Row::ok);
    let correct = all_correct(&first) && all_correct(&second) && all_correct(&traced);

    println!();
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>10} {:>8}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>9.2}% {:>8} {}",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.difference() * 100.0,
            r.bound
                .map_or("exact".to_owned(), |b| format!("{:.0}%", b * 100.0)),
            if r.ok() { "" } else { "DISAGREES" }
        );
    }

    let machine = machine_json();
    let head = |schema: &str| {
        format!(
            "\"schema\": \"moteur-benchmark/{schema}/v1\",\n  \"machine\": {machine},\n  \
             \"seed\": {seed},\n  \"seconds\": {}",
            json::number(seconds)
        )
    };
    let row_docs: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": {}, \"metric\": {}, \"first\": {}, \"second\": {}, \
                 \"difference\": {}, \"bound\": {}, \"ok\": {}}}",
                json::quote(r.workload),
                json::quote(&r.metric),
                json::number(r.first),
                json::number(r.second),
                json::number(r.difference().min(f64::MAX)),
                r.bound.map_or("\"exact\"".to_owned(), json::number),
                r.ok()
            )
        })
        .collect();
    let agreement = format!(
        "{{\n  {},\n  \"agree\": {agreed},\n  \"rows\": [\n{}\n  ]\n}}\n",
        head("agreement"),
        row_docs.join(",\n")
    );
    let workload_docs: Vec<String> = first
        .iter()
        .zip(&traced)
        .map(|(e2e, layers)| {
            format!(
                "    {}: {{\n      \"ops\": {}, \"failed\": {},\n      \"end_to_end\": {},\n      \
                 \"exact\": {},\n      \"per_layer\": {}\n    }}",
                json::quote(e2e.workload.name),
                e2e.line.attempted,
                e2e.line.failed,
                object(&e2e.line.metrics),
                object(&e2e.exact),
                object(&layers.line.metrics)
            )
        })
        .collect();
    let baseline = format!(
        "{{\n  {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        head("baseline"),
        workload_docs.join(",\n")
    );
    let results = workloads::bench_dir().join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("creating {}: {e}", results.display()))?;
    for (name, doc) in [("agreement.json", agreement), ("baseline.json", baseline)] {
        let path = results.join(name);
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(if agreed && correct {
        println!("the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: the sets disagree or an output was wrong");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(first: f64, second: f64, bound: Option<f64>) -> Row {
        Row {
            workload: "w",
            metric: "m".into(),
            first,
            second,
            bound,
        }
    }

    #[test]
    fn timed_rows_agree_within_their_bound_and_exact_rows_only_when_identical() {
        assert!(row(1.0, 1.09, Some(0.10)).ok());
        assert!(row(1.0, 0.91, Some(0.10)).ok());
        assert!(!row(1.0, 1.11, Some(0.10)).ok());
        assert!(row(330.0, 330.0, None).ok());
        assert!(!row(330.0, 330.000_001, None).ok());
        assert!(row(0.0, 0.0, None).ok());
        assert!(!row(0.0, 1.0, Some(0.10)).ok());
    }
}
