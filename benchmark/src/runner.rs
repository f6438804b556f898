//! One run of one workload in this process: set-up, the timed closed
//! loop (one thread, one client, the next op starts when the previous
//! one returned), the output checks, and the result line.

use crate::json;
use crate::probes::Values;
use crate::span::{self, Tracer};
use crate::spec::{self, Kind, Metric, Workload};
use crate::stats;
use crate::sut;
use crate::workloads::{self, Observed, Prepared};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Exactly this many set-ups, all before the first op. `None`:
    /// [`spec::SETUP_REPS_BEFORE`] before the first op and one more after
    /// every op.
    pub setup_reps: Option<usize>,
}

/// What a run measured. `values` holds every metric by name.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Why ops failed, for the human-readable report.
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn out_dir(args: &RunArgs, traced: bool) -> PathBuf {
    workloads::bench_dir().join("out").join(format!(
        "{}-seed{}-t{}",
        args.workload.name,
        args.seed,
        u8::from(traced)
    ))
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// One timed set-up into `<run dir>/<sub>`.
fn set_up_once(args: &RunArgs, traced: bool, sub: &str) -> Result<(Prepared, f64), String> {
    let dir = out_dir(args, traced).join(sub);
    let start = Instant::now();
    let prepared = workloads::setup(args.workload.kind, args.workload.size, args.seed, &dir)?;
    Ok((prepared, start.elapsed().as_secs_f64()))
}

/// The set-ups before the first op; the inputs of the last one are the
/// ones the ops run on. Returns the wall seconds of each.
fn set_up(args: &RunArgs, traced: bool) -> Result<(Prepared, Vec<f64>), String> {
    let reps = args.setup_reps.unwrap_or(spec::SETUP_REPS_BEFORE).max(1);
    let mut times = Vec::with_capacity(reps);
    loop {
        let (prepared, seconds) = set_up_once(args, traced, "run")?;
        times.push(seconds);
        if times.len() == reps {
            return Ok((prepared, times));
        }
    }
}

/// The closed loop: ops back to back for `seconds`, at least
/// [`spec::MIN_REPS`] of them; rep *i* runs with seed `seed + i`. Stops
/// early once [`spec::MIN_REPS`] ops have failed: the run is incorrect
/// by then and an op that fails at once would otherwise spin.
/// `after_op` runs after every op, outside its timing.
fn measure(
    p: &Prepared,
    args: &RunArgs,
    seconds: f64,
    profile: bool,
    tracer: &mut Tracer,
    mut after_op: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Observed>, RunResult), String> {
    let mut ops = Vec::new();
    let mut result = RunResult::default();
    let begin = Instant::now();
    let mut rep = 0;
    while rep < spec::MIN_REPS || begin.elapsed().as_secs_f64() < seconds {
        tracer.begin_op(rep as u32);
        let outcome = workloads::op(p, args.seed.wrapping_add(rep as u64), rep, profile, tracer)
            .and_then(|seen| workloads::check(p.kind, p, &seen).map(|()| seen));
        result.attempted += 1;
        match outcome {
            Ok(seen) => ops.push(seen),
            Err(e) => {
                result.failed += 1;
                result.errors.push(format!("op {rep}: {e}"));
                if result.failed as usize >= spec::MIN_REPS {
                    break;
                }
            }
        }
        rep += 1;
        after_op()?;
    }
    tracer.begin_op(rep as u32);
    Ok((ops, result))
}

/// The metrics that repeat exactly per seed, from the first
/// [`spec::MIN_REPS`] ops, plus the share of failed ops.
fn exact_metrics(ops: &[Observed], result: &mut RunResult) {
    let first = &ops[..ops.len().min(spec::MIN_REPS)];
    let mean_of = |f: fn(&Observed) -> f64| stats::mean(&first.iter().map(f).collect::<Vec<_>>());
    let v = &mut result.values;
    v.insert("makespan_virtual_s".into(), mean_of(|o| o.makespan_s));
    v.insert("grid_jobs".into(), mean_of(|o| o.grid_jobs as f64));
    v.insert("store.hits".into(), mean_of(|o| o.store_hits as f64));
    v.insert("store.misses".into(), mean_of(|o| o.store_misses as f64));
    let ttfj: Vec<f64> = first
        .iter()
        .filter_map(|o| o.daemon.as_ref())
        .flat_map(|d| d.ttfj_s.iter().copied())
        .collect();
    v.insert("ttfj_virtual_p99_s".into(), stats::percentile(&ttfj, 99.0));
    v.insert(
        "failed_share".into(),
        result.failed as f64 / result.attempted as f64,
    );
}

/// Per-submit latency percentiles over every op of the run.
fn submit_percentiles(ops: &[Observed], values: &mut Values) {
    let submit_ms: Vec<f64> = ops
        .iter()
        .filter_map(|o| o.daemon.as_ref())
        .flat_map(|d| d.submit_ms.iter().copied())
        .collect();
    values.insert("submit_p50_ms".into(), stats::percentile(&submit_ms, 50.0));
    values.insert("submit_p90_ms".into(), stats::percentile(&submit_ms, 90.0));
    values.insert("submit_samples".into(), submit_ms.len() as f64);
}

fn walls(ops: &[Observed]) -> Vec<f64> {
    ops.iter().map(|o| o.wall_s).collect()
}

/// Run `body`, then delete the run's scratch directory (generated
/// inputs, stores) whatever the outcome, so repeated runs do not fill
/// the disk. Span files live beside it and stay.
fn with_scratch<T>(args: &RunArgs, traced: bool, body: impl FnOnce() -> T) -> T {
    let outcome = body();
    let _ = std::fs::remove_dir_all(out_dir(args, traced));
    outcome
}

/// The end-to-end run: no spans, profiler off, system allocator.
pub fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    with_scratch(args, false, || untraced(args))
}

fn untraced(args: &RunArgs) -> Result<RunResult, String> {
    let (prepared, mut setup_times) = set_up(args, false)?;
    // Further set-ups are spread over the rest of the run, one after
    // every op, so that `setup_s` sees the same stretch of host time as
    // `wall_s` and not one short window before it. They start once the
    // ops every run performs are done and the memory high-water mark
    // has been read: a set-up builds a second copy of the inputs, which
    // must not count as the workload's memory.
    let interleave = args.setup_reps.is_none();
    let mut ops_done = 0;
    let mut peak_rss = None;
    let (ops, mut result) = measure(
        &prepared,
        args,
        args.seconds,
        false,
        &mut Tracer::off(),
        || {
            ops_done += 1;
            if ops_done == spec::MIN_REPS {
                peak_rss = Some(peak_rss_mb()?);
            }
            if interleave && ops_done >= spec::MIN_REPS {
                setup_times.push(set_up_once(args, false, "again")?.1);
            }
            Ok(())
        },
    )?;
    if ops.is_empty() {
        return Err(format!("no op succeeded: {}", result.errors.join("; ")));
    }
    let wall_s = stats::median(&walls(&ops));
    let v = &mut result.values;
    v.insert("setup_s".into(), stats::median(&setup_times));
    v.insert("wall_s".into(), wall_s);
    v.insert("wall_samples".into(), ops.len() as f64);
    v.insert("setup_samples".into(), setup_times.len() as f64);
    v.insert("items_per_s".into(), args.workload.size as f64 / wall_s);
    v.insert(
        "peak_rss_mb".into(),
        peak_rss.ok_or("the run ended before its first ops were done")?,
    );
    submit_percentiles(&ops, &mut result.values);
    exact_metrics(&ops, &mut result);
    Ok(result)
}

/// Shares of a traced run's `--seconds`: the untraced baseline child,
/// then this process's traced ops; the probes take what they take.
const BASELINE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.4;

/// One contract-mode run of `w` in a child process — the binary of the
/// pair that serves `traced` — with `extra` arguments appended. Returns
/// its standard output and whether it exited with 0.
pub fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: &[&str],
) -> Result<(String, bool), String> {
    let exe = sibling_binary(traced)?;
    let output = Command::new(&exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

/// `wall_s` of a short untraced run of the same workload and seed, from
/// the sibling binary that has no counting allocator.
fn untraced_baseline(args: &RunArgs) -> Result<f64, String> {
    let (stdout, ok) = child_run(
        args.workload,
        args.seed,
        args.seconds * BASELINE_SHARE,
        false,
        &["--setup-reps", "1"],
    )?;
    if !ok {
        return Err(format!("untraced baseline run failed:\n{stdout}"));
    }
    parse_result_line(&stdout)?
        .metrics
        .iter()
        .find(|(name, _)| name == "wall_s")
        .map(|(_, value)| *value)
        .ok_or_else(|| "baseline run reported no wall_s".to_owned())
}

/// The per-layer run: spans around the driver's calls, the product's
/// profiler on, the counting allocator installed, then the replay
/// probes whose home is this workload.
pub fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    with_scratch(args, true, || traced(args))
}

fn traced(args: &RunArgs) -> Result<RunResult, String> {
    if !sut::alloc_counter_installed() {
        return Err("the traced run needs the binary with the counting allocator".into());
    }
    let baseline_wall_s = untraced_baseline(args)?;
    let (prepared, _) = set_up(
        &RunArgs {
            setup_reps: Some(1),
            ..args.clone()
        },
        true,
    )?;
    let mut tracer = Tracer::on();
    let allocs_before = sut::allocs();
    let (ops, mut result) = measure(
        &prepared,
        args,
        args.seconds * TRACED_SHARE,
        true,
        &mut tracer,
        || Ok(()),
    )?;
    let allocs = sut::allocs() - allocs_before;
    if ops.is_empty() {
        return Err(format!("no op succeeded: {}", result.errors.join("; ")));
    }
    let n_ops = result.attempted as f64;
    let v = &mut result.values;
    v.insert(
        "alloc.allocs_per_item".into(),
        allocs as f64 / (n_ops * args.workload.size as f64),
    );
    v.insert(
        "alloc.peak_live_mb".into(),
        sut::alloc_peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    let traced_wall_s = stats::median(&walls(&ops));
    v.insert(
        "trace.overhead_share".into(),
        (traced_wall_s - baseline_wall_s) / baseline_wall_s,
    );

    // Stage self times, per op, and as a share of the whole op.
    let own = span::self_times(tracer.spans());
    let total_ns: u64 = own.values().sum();
    for stage in spec::STAGES {
        let ns = own.get(stage).copied().unwrap_or(0) as f64;
        v.insert(format!("stage.{stage}.ms"), ns / n_ops / 1e6);
        v.insert(format!("stage.{stage}.share"), ns / total_ns.max(1) as f64);
    }
    // The product's own profiler inside `enact`, per op.
    for sub in spec::PROF_SUBSYSTEMS {
        let rows: Vec<_> = ops
            .iter()
            .filter_map(|o| o.prof.iter().find(|r| r.subsystem == sub))
            .collect();
        let mean = |f: fn(&workloads::ProfRow) -> f64| {
            stats::mean(&rows.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        v.insert(format!("prof.{sub}.calls"), mean(|r| r.calls as f64));
        v.insert(format!("prof.{sub}.wall_ms"), mean(|r| r.wall_ms));
        v.insert(format!("prof.{sub}.allocs"), mean(|r| r.allocs as f64));
    }
    submit_percentiles(&ops, &mut result.values);
    exact_metrics(&ops, &mut result);

    sut::run_probes(&prepared, args.seed, &mut result.values)?;

    let trace_path = workloads::bench_dir()
        .join("out")
        .join(format!("trace-{}.json", args.workload.name));
    std::fs::write(&trace_path, tracer.to_json(args.workload.name))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let kind = args.workload.kind;
    let missing: Vec<String> = spec::per_layer()
        .into_iter()
        .filter(|m| measured_here(m, kind) && !result.values.contains_key(&m.name))
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        return Err(format!("no value for {}", missing.join(", ")));
    }
    Ok(result)
}

/// Does the traced run of `kind` measure `metric`?
fn measured_here(metric: &Metric, kind: Kind) -> bool {
    metric.home.is_none_or(|home| home == kind)
}

/// The other binary of the pair, next to the running one.
pub fn sibling_binary(traced: bool) -> Result<PathBuf, String> {
    let name = if traced {
        "moteur-benchmark-traced"
    } else {
        "moteur-benchmark"
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let sibling = exe.with_file_name(name);
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} not found; build both binaries with `cargo build --release`",
            sibling.display()
        ))
    }
}

/// The last line of a run's standard output, as the contract defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value) in output order.
    pub metrics: Vec<(String, f64)>,
}

/// Render the result line for `metrics`, in their order; a per-layer
/// metric this workload does not measure reads 0.
pub fn result_line(result: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = result.values.get(&m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        body.join(", ")
    )
}

pub fn parse_result_line(stdout: &str) -> Result<ResultLine, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let doc = json::Value::parse(last).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or(format!("result line has no `{k}`"));
    let count = |k: &str| -> Result<u64, String> {
        field(k)?
            .as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
            .ok_or(format!("`{k}` is not a whole number"))
    };
    let metrics = field("metrics")?
        .members()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(json::Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric `{name}` has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ResultLine {
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// The `#exact` line an untraced run prints before its result line:
/// the seed-determined metrics, for `agree` to compare.
pub fn exact_line(result: &RunResult) -> String {
    let body: Vec<String> = spec::EXACT
        .iter()
        .map(|name| {
            let value = result.values.get(*name).copied().unwrap_or(0.0);
            format!("{}: {}", json::quote(name), json::number(value))
        })
        .collect();
    format!("#exact {{{}}}", body.join(", "))
}

pub fn parse_exact_line(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#exact "))
        .ok_or("the run printed no #exact line")?;
    json::Value::parse(line)?
        .members()
        .ok_or("#exact is not an object")?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|v| (k.clone(), v))
                .ok_or(format!("#exact {k}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RunResult {
        let mut r = RunResult {
            attempted: 12,
            failed: 0,
            ..RunResult::default()
        };
        for m in spec::end_to_end() {
            r.values.insert(m.name, 1.5);
        }
        for name in spec::EXACT {
            r.values.insert(name.into(), 330.0);
        }
        r
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys_and_round_trips() {
        let line = result_line(&sample_result(), &spec::end_to_end());
        let doc = json::Value::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = parse_result_line(&format!("human text\n{line}\n")).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        let names: Vec<String> = parsed.metrics.iter().map(|(n, _)| n.clone()).collect();
        let spec_names: Vec<String> = spec::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names, spec_names,
            "every end-to-end metric and nothing else"
        );
    }

    #[test]
    fn traced_result_line_has_every_per_layer_metric_and_zero_for_foreign_probes() {
        let mut r = sample_result();
        r.values.insert("xmlish.write.ns_per_op".into(), 42.0);
        let parsed = parse_result_line(&result_line(&r, &spec::per_layer())).unwrap();
        assert_eq!(parsed.metrics.len(), spec::per_layer().len());
        let get = |n: &str| parsed.metrics.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("xmlish.write.ns_per_op"), 42.0);
        assert_eq!(get("gridsim.drain.ns_per_event"), 0.0);
        assert_eq!(get("makespan_virtual_s"), 330.0);
    }

    #[test]
    fn exact_line_round_trips() {
        let r = sample_result();
        let parsed = parse_exact_line(&format!("x\n{}\n{{}}\n", exact_line(&r))).unwrap();
        assert_eq!(parsed.len(), spec::EXACT.len());
        assert!(parsed.iter().all(|(_, v)| *v == 330.0));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = sample_result();
        r.failed = 1;
        let parsed = parse_result_line(&result_line(&r, &spec::end_to_end())).unwrap();
        assert!(!parsed.correct);
        assert_eq!(parsed.failed, 1);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn home_decides_which_traced_run_measures_a_probe() {
        let layers = spec::per_layer();
        let of = |n: &str| layers.iter().find(|m| m.name == n).unwrap();
        assert!(measured_here(of("grid_jobs"), Kind::StreamChain));
        assert!(measured_here(
            of("gridsim.drain.ns_per_event"),
            Kind::BronzeDspJg
        ));
        assert!(!measured_here(
            of("gridsim.drain.ns_per_event"),
            Kind::MemoWarm
        ));
    }
}
