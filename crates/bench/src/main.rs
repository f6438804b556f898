//! `moteur-bench` — the perf observatory's campaign driver.
//!
//! ```text
//! moteur-bench campaign [--sweep ndata=1..6] [--seed N]
//!                       [--workflow chain|bronze] [--grid ideal|egee]
//!                       [--overhead SECS] [--tolerance FRAC]
//!                       [--out-dir DIR]
//! moteur-bench warm [--ndata N] [--seed N] [--out-dir DIR]
//! moteur-bench faults [--ndata N] [--seed N] [--repeats R]
//!                     [--failure-probability P] [--out-dir DIR]
//! moteur-bench timeline [--ideal-ndata N] [--loaded-ndata N] [--seed N]
//!                       [--out-dir DIR]
//! moteur-bench plan [--ndata N] [--seed N] [--out-dir DIR]
//! moteur-bench scale [--events N] [--jobs N] [--seed N] [--out-dir DIR]
//! moteur-bench stream [--items N] [--capacity N] [--eager-items N]
//!                     [--seed N] [--out-dir DIR]
//! moteur-bench daemon [--workflows N] [--tenants N] [--ndata N]
//!                     [--out-dir DIR]
//! ```
//!
//! Every field of every document is a function of (code, seed,
//! command line): virtual seconds, job, hit and call counts,
//! allocation counts and live bytes, no wall clock (`benchmark/` owns
//! that). Two runs of one command write the same bytes, so the
//! committed `BENCH_*.json` are the baseline: `ci.sh` regenerates all
//! nine and ends with `git diff --exit-code`. Every pass criterion
//! named below is a row of a table in `moteur_bench::gate`; a campaign
//! command exits by its table's verdict on the file it wrote.
//!
//! `campaign` runs the six Table-1 configurations over the sweep and
//! writes `BENCH_point.json` (raw cells) and `BENCH_summary.json`
//! (fits, drift, speed-ups) into `--out-dir` (default: the current
//! directory), exiting non-zero when model and enactor drift apart.
//! `warm` enacts one campaign twice against a shared data manager and
//! writes the cold-vs-warm comparison to `BENCH_warm.json`.
//! `faults` enacts the campaign on an unreliable grid under the three
//! fault-tolerance strategies and writes `BENCH_faults.json`, exiting
//! non-zero unless timeout+replication beats the naive strategy.
//! `timeline` enacts the campaign with the telemetry pipeline attached
//! (ideal and queue-saturated regimes) and writes
//! `BENCH_timeline.json`, exiting non-zero unless the byte accounting
//! reconciles and the loaded regime is attributed to the CE queues.
//! `plan` checks `moteur plan`'s static per-edge byte bounds against
//! the enactor's observed per-port staging and writes
//! `BENCH_plan.json`, exiting non-zero unless every interval contains
//! the observed bytes and the site partition beats centralized routing
//! on the data-heavy bronze variant.
//! `daemon` submits a concurrent wave of identical Bronze-Standard
//! chains across several tenants of one enactment daemon sharing a
//! memo table, and writes time-to-first-job percentiles (virtual
//! seconds) and the cross-tenant cache-hit ratio to `BENCH_daemon.json`,
//! exiting non-zero unless every submission succeeds, the wave
//! reuses ≥ 90% of the seed tenant's derivations and the p99
//! time-to-first-job stays bounded.
//! `scale` pushes the simulator through a million events and the
//! enactor through ten thousand jobs with the self-profiler attached
//! and writes `BENCH_scale.json` (event and job counts, allocations
//! per event, peak live bytes, per-subsystem call counts), exiting
//! non-zero when a target is missed or the allocation budget is blown.
//! `stream` pushes a million-item stream through a bounded-port chain
//! and writes `BENCH_stream.json` (item and job counts, input vs
//! pipeline peak bytes, the eager projection), exiting non-zero unless
//! the pipeline high-water mark stays O(port-capacity).

use moteur_bench::daemon::{render_daemon, render_daemon_json, run_daemon_campaign};
use moteur_bench::faults::{render_faults, render_faults_json, run_faults, FaultsSpec};
use moteur_bench::gate::{Campaign, DAEMON, FAULTS, PLAN, SCALE, STREAM, SUMMARY, TIMELINE, WARM};
use moteur_bench::plan::{render_plan_bench, render_plan_bench_json, run_plan_bench, PlanSpec};
use moteur_bench::scale::{render_scale, render_scale_json, run_scale, ScaleSpec};
use moteur_bench::stream::{render_stream, render_stream_json, run_stream, StreamSpec};
use moteur_bench::sweep::{
    render_points_json, render_summary, render_summary_json, run_sweep, SweepGrid, SweepSpec,
    SweepWorkflow,
};
use moteur_bench::timeline::{render_timeline, render_timeline_json, run_timeline, TimelineSpec};
use moteur_bench::warm::{render_warm, render_warm_json, run_warm_pair};
use moteur_gridsim::GridConfig;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The scale and stream campaigns report real allocation counts and
/// live-heap high-water marks, so this binary routes every allocation
/// through the profiler's counting wrapper around the system allocator.
#[global_allocator]
static ALLOC: moteur_prof::alloc::CountingAlloc = moteur_prof::alloc::CountingAlloc;

/// A subcommand's outcome: the exit code, or the message to fail with.
type Outcome = Result<ExitCode, Box<dyn std::error::Error>>;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `name`'s value parsed and validated, or `default` when the flag is
/// absent; anything else fails with "`name` needs `needs`".
fn flag<T: FromStr>(
    args: &[String],
    name: &str,
    default: T,
    needs: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match flag_value(args, name).map(str::parse) {
        None => Ok(default),
        Some(Ok(v)) if valid(&v) => Ok(v),
        Some(_) => Err(format!("{name} needs {needs}")),
    }
}

fn any<T>(_: &T) -> bool {
    true
}

fn positive<T: FromStr + PartialOrd + Default>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    let above_zero = |v: &T| *v > T::default();
    flag(args, name, default, "a positive integer", above_zero)
}

fn seed(args: &[String], default: u64) -> Result<u64, String> {
    flag(args, "--seed", default, "an integer", any)
}

fn usage() -> ExitCode {
    eprintln!("usage: moteur-bench campaign [--sweep ndata=1..6] [--seed N]");
    eprintln!("                    [--workflow chain|bronze] [--grid ideal|egee]");
    eprintln!("                    [--overhead SECS] [--tolerance FRAC] [--out-dir DIR]");
    eprintln!("       moteur-bench warm [--ndata N] [--seed N] [--out-dir DIR]");
    eprintln!("       moteur-bench faults [--ndata N] [--seed N] [--repeats R]");
    eprintln!("                    [--failure-probability P] [--out-dir DIR]");
    eprintln!("       moteur-bench timeline [--ideal-ndata N] [--loaded-ndata N] [--seed N]");
    eprintln!("                    [--out-dir DIR]");
    eprintln!("       moteur-bench plan [--ndata N] [--seed N] [--out-dir DIR]");
    eprintln!("       moteur-bench scale [--events N] [--jobs N] [--seed N] [--out-dir DIR]");
    eprintln!("       moteur-bench stream [--items N] [--capacity N] [--eager-items N]");
    eprintln!("                    [--seed N] [--out-dir DIR]");
    eprintln!("       moteur-bench daemon [--workflows N] [--tenants N] [--ndata N]");
    eprintln!("                    [--out-dir DIR]");
    ExitCode::from(2)
}

/// Parse `ndata=1..6` / `1..6` / `ndata=2,4,8` into sizes.
fn parse_sweep(spec: &str) -> Option<Vec<usize>> {
    let spec = spec.strip_prefix("ndata=").unwrap_or(spec);
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: usize = lo.parse().ok()?;
        let hi: usize = hi.parse().ok()?;
        if lo == 0 || hi < lo {
            return None;
        }
        return Some((lo..=hi).collect());
    }
    let sizes: Vec<usize> = spec
        .split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    (!sizes.is_empty() && !sizes.contains(&0)).then_some(sizes)
}

fn write_doc(args: &[String], file: &str, json: String) -> Result<String, String> {
    let path = Path::new(flag_value(args, "--out-dir").unwrap_or(".")).join(file);
    std::fs::write(&path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The tail every campaign command shares: print the human report,
/// write the document, and exit by the campaign's gate table evaluated
/// over the document just written.
fn conclude(args: &[String], campaign: &Campaign, human: &str, json: String) -> Outcome {
    print!("{human}");
    let failed = campaign.failures(&json);
    println!("wrote {}", write_doc(args, &campaign.file(), json)?);
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "moteur-bench: {} campaign failed: {}",
        campaign.name,
        failed.join(", ")
    );
    Ok(ExitCode::FAILURE)
}

fn cmd_campaign(args: &[String]) -> Outcome {
    let sizes = parse_sweep(flag_value(args, "--sweep").unwrap_or("ndata=1..6"))
        .ok_or("--sweep needs `ndata=LO..HI` or `ndata=A,B,C` (all > 0)")?;
    let mut spec = SweepSpec::new(sizes);
    spec.seed = seed(args, spec.seed)?;
    if let Some(s) = flag_value(args, "--workflow") {
        spec.workflow =
            SweepWorkflow::parse(s).ok_or(format!("unknown workflow `{s}` (chain|bronze)"))?;
    }
    if let Some(s) = flag_value(args, "--grid") {
        spec.grid =
            SweepGrid::parse(s).ok_or(format!("unknown grid `{s}` ({})", GridConfig::PRESETS))?;
    }
    spec.overhead = flag(args, "--overhead", spec.overhead, "a number (seconds)", any)?;
    spec.tolerance = flag(
        args,
        "--tolerance",
        spec.tolerance,
        "a fraction (e.g. 0.05)",
        any,
    )?;

    eprintln!(
        "sweeping {} on the {} grid over n_data {:?}...",
        spec.workflow.name(),
        spec.grid.name(),
        spec.sizes
    );
    let (points, summary) = run_sweep(&spec)?;
    let point_path = write_doc(args, "BENCH_point.json", render_points_json(&spec, &points))?;
    let human = format!(
        "{}wrote {point_path} ({} points)\n",
        render_summary(&summary),
        points.len()
    );
    conclude(args, &SUMMARY, &human, render_summary_json(&summary))
}

fn cmd_warm(args: &[String]) -> Outcome {
    let n_data: usize = positive(args, "--ndata", 6)?;
    let seed = seed(args, 2006)?;
    eprintln!("warm-restart pair: bronze-chain, ideal grid, sp+dp, n_data {n_data}...");
    let report = run_warm_pair(n_data, seed)?;
    conclude(
        args,
        &WARM,
        &render_warm(&report),
        render_warm_json(&report),
    )
}

fn cmd_faults(args: &[String]) -> Outcome {
    let mut spec = FaultsSpec::default();
    spec.n_data = positive(args, "--ndata", spec.n_data)?;
    spec.seed = seed(args, spec.seed)?;
    spec.repeats = positive(args, "--repeats", spec.repeats)?;
    let (p, fraction) = (spec.failure_probability, "a fraction in [0, 1]");
    spec.failure_probability = flag(args, "--failure-probability", p, fraction, |p| {
        (0.0..=1.0).contains(p)
    })?;
    eprintln!(
        "fault injection: bronze on unreliable egee-2006 (p_fail {:.0}%), n_data {} x {} seeds...",
        spec.failure_probability * 100.0,
        spec.n_data,
        spec.repeats
    );
    let report = run_faults(&spec)?;
    conclude(
        args,
        &FAULTS,
        &render_faults(&report),
        render_faults_json(&report),
    )
}

fn cmd_timeline(args: &[String]) -> Outcome {
    let mut spec = TimelineSpec::default();
    spec.ideal_n_data = positive(args, "--ideal-ndata", spec.ideal_n_data)?;
    spec.loaded_n_data = positive(args, "--loaded-ndata", spec.loaded_n_data)?;
    spec.seed = seed(args, spec.seed)?;
    eprintln!(
        "timeline telemetry: bronze sp+dp, ideal n_data {} / egee n_data {}...",
        spec.ideal_n_data, spec.loaded_n_data
    );
    let report = run_timeline(&spec)?;
    conclude(
        args,
        &TIMELINE,
        &render_timeline(&report),
        render_timeline_json(&report),
    )
}

fn cmd_plan(args: &[String]) -> Outcome {
    let mut spec = PlanSpec::default();
    spec.n_data = positive(args, "--ndata", spec.n_data)?;
    spec.seed = seed(args, spec.seed)?;
    eprintln!(
        "static plan check: bronze + cross sweep on the ideal grid, n_data {}...",
        spec.n_data
    );
    let report = run_plan_bench(&spec)?;
    conclude(
        args,
        &PLAN,
        &render_plan_bench(&report),
        render_plan_bench_json(&report),
    )
}

fn cmd_scale(args: &[String]) -> Outcome {
    let mut spec = ScaleSpec::default();
    spec.target_events = positive(args, "--events", spec.target_events)?;
    spec.enact_jobs = positive(args, "--jobs", spec.enact_jobs)?;
    spec.seed = seed(args, spec.seed)?;
    eprintln!(
        "scale campaign: {} gridsim events + {} enactor jobs (seed {})...",
        spec.target_events, spec.enact_jobs, spec.seed
    );
    let report = run_scale(&spec)?;
    conclude(
        args,
        &SCALE,
        &render_scale(&report),
        render_scale_json(&report),
    )
}

fn cmd_stream(args: &[String]) -> Outcome {
    let mut spec = StreamSpec::default();
    spec.n_items = positive(args, "--items", spec.n_items)?;
    spec.port_capacity = positive(args, "--capacity", spec.port_capacity)?;
    spec.eager_items = positive(args, "--eager-items", spec.eager_items)?;
    spec.seed = seed(args, spec.seed)?;
    eprintln!(
        "stream campaign: {} items through port capacity {} (seed {})...",
        spec.n_items, spec.port_capacity, spec.seed
    );
    let report = run_stream(&spec)?;
    conclude(
        args,
        &STREAM,
        &render_stream(&report),
        render_stream_json(&report),
    )
}

fn cmd_daemon(args: &[String]) -> Outcome {
    let n_workflows: usize = positive(args, "--workflows", 100)?;
    let n_tenants: usize = positive(args, "--tenants", 4)?;
    let n_data: usize = positive(args, "--ndata", 2)?;
    eprintln!(
        "daemon wave: {n_workflows} bronze-chain submissions across {n_tenants} tenants (n_data {n_data})..."
    );
    let report = run_daemon_campaign(n_workflows, n_tenants, n_data)?;
    conclude(
        args,
        &DAEMON,
        &render_daemon(&report),
        render_daemon_json(&report),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first().map(String::as_str) {
        Some("campaign") => cmd_campaign,
        Some("warm") => cmd_warm,
        Some("faults") => cmd_faults,
        Some("timeline") => cmd_timeline,
        Some("plan") => cmd_plan,
        Some("scale") => cmd_scale,
        Some("stream") => cmd_stream,
        Some("daemon") => cmd_daemon,
        _ => return usage(),
    };
    cmd(&args[1..]).unwrap_or_else(|msg| {
        eprintln!("moteur-bench: {msg}");
        ExitCode::FAILURE
    })
}
