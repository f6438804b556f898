//! `moteur-bench` — the paper's evidence and the perf observatory, one
//! subcommand each.
//!
//! `moteur-bench --help` prints every subcommand with its flags; that
//! text is derived from the flag tables below (and `ci.sh` copies it
//! into the README), so there is no second synopsis to keep in step.
//! What each campaign measures and what fails it is told once, in the
//! crate documentation of `moteur_bench`; its pass criteria are rows of
//! a table in `moteur_bench::gate`, and a campaign command exits by its
//! table's verdict on the file it wrote.

use moteur_repro::bench::gate::{
    Campaign, DAEMON, FAULTS, PLAN, SCALE, STREAM, SUMMARY, TIMELINE, WARM,
};
use moteur_repro::bench::timeline::{
    render_timeline, render_timeline_json, run_timeline, TimelineSpec,
};
use moteur_repro::bench::{
    ablation, diagrams, granularity, render_daemon, render_daemon_json, render_faults,
    render_faults_json, render_plan_bench, render_plan_bench_json, render_points_json,
    render_scale, render_scale_json, render_stream, render_stream_json, render_summary,
    render_summary_json, render_warm, render_warm_json, run_campaign, run_daemon_campaign,
    run_faults, run_paper, run_plan_bench, run_scale, run_stream, run_warm_pair, summarize, theory,
    BenchSummary, CampaignSpec, CampaignWorkflow, FaultsSpec, Model, PlanSpec, ScaleSpec,
    StreamSpec,
};
use moteur_repro::cli::{command, dispatch, switch, text, typed, Args, Command, Flag, Outcome};
use moteur_repro::gridsim::GridConfig;
use moteur_repro::moteur::MoteurError;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The scale and stream campaigns report real allocation counts and
/// live-heap high-water marks, so this binary routes every allocation
/// through the profiler's counting wrapper around the system allocator.
#[global_allocator]
static ALLOC: moteur_prof::alloc::CountingAlloc = moteur_prof::alloc::CountingAlloc;

const BIN: &str = "moteur-bench";

// What a mistyped value is told it needs.
const INT: &str = "an integer";
const POSITIVE: &str = "a positive integer";
const SWEEP: &str = "`ndata=LO..HI` or `ndata=A,B,C` (all > 0)";

// The flag tables: one flag per line (hence the `rustfmt::skip`s), a
// flag more than one subcommand declares spelled once.
const SEED: Flag = typed("--seed", "N", INT, "seed (default 2006)");
const OUT_DIR: Flag = text("--out-dir", "DIR", "where to write (default .)");
const QUICK: Flag = switch("--quick", "sizes that finish in seconds");

#[rustfmt::skip]
const PAPER: &[Flag] = &[
    QUICK,
    SEED,
    typed("--repeats", "N", POSITIVE, "seeds per (configuration, size) (default 1)"),
    OUT_DIR,
];

#[rustfmt::skip]
const CAMPAIGN: &[Flag] = &[
    typed("--sweep", "ndata=LO..HI", SWEEP, "sizes, or ndata=A,B,C (default ndata=1..6)"),
    SEED,
    text("--workflow", "NAME", "chain|bronze (default chain)"),
    text("--grid", "NAME", "ideal|egee (default ideal)"),
    typed("--overhead", "SECS", "a number (seconds)", "per-job overhead fed to eqs. 1-4 (default 0)"),
    typed("--tolerance", "FRAC", "a fraction (e.g. 0.05)", "relative drift allowed (default 0.05)"),
    OUT_DIR,
];

#[rustfmt::skip]
const WARM_FLAGS: &[Flag] = &[
    typed("--ndata", "N", POSITIVE, "campaign size (default 6)"),
    SEED,
    OUT_DIR,
];

#[rustfmt::skip]
const FAULTS_FLAGS: &[Flag] = &[
    typed("--ndata", "N", POSITIVE, "campaign size (default 6)"),
    SEED,
    typed("--repeats", "R", POSITIVE, "seeds per strategy (default 5)"),
    typed("--failure-probability", "P", "a fraction in [0, 1]", "per-attempt failure probability (default 0.04)"),
    OUT_DIR,
];

#[rustfmt::skip]
const TIMELINE_FLAGS: &[Flag] = &[
    typed("--ideal-ndata", "N", POSITIVE, "size of the byte-accounting regime (default 6)"),
    typed("--loaded-ndata", "N", POSITIVE, "size of the queue-saturated regime (default 24)"),
    SEED,
    OUT_DIR,
];

#[rustfmt::skip]
const PLAN_FLAGS: &[Flag] = &[
    typed("--ndata", "N", POSITIVE, "input-set size per source (default 6)"),
    SEED,
    OUT_DIR,
];

#[rustfmt::skip]
const SCALE_FLAGS: &[Flag] = &[
    typed("--events", "N", POSITIVE, "simulator events to reach (default 1000000)"),
    typed("--jobs", "N", POSITIVE, "grid jobs through the enactor (default 10000)"),
    SEED,
    OUT_DIR,
];

#[rustfmt::skip]
const STREAM_FLAGS: &[Flag] = &[
    typed("--items", "N", POSITIVE, "stream length (default 1000000)"),
    typed("--capacity", "N", POSITIVE, "port capacity of every edge (default 64)"),
    typed("--eager-items", "N", POSITIVE, "length of the unbounded reference (default 10000)"),
    SEED,
    OUT_DIR,
];

#[rustfmt::skip]
const DAEMON_FLAGS: &[Flag] = &[
    typed("--workflows", "N", POSITIVE, "submissions in the wave (default 100)"),
    typed("--tenants", "N", POSITIVE, "tenants sharing the memo table (default 4)"),
    typed("--ndata", "N", POSITIVE, "size of each submission (default 2)"),
    OUT_DIR,
];

#[rustfmt::skip]
static COMMANDS: [Command; 13] = [
    command("paper", "", "Table 1, Table 2, speed-ups and Fig. 10 from one Bronze/EGEE campaign", PAPER, cmd_paper),
    command("diagrams", "", "print the execution diagrams of Figs. 4, 5 and 6", &[], |_| print(diagrams())),
    command("theory", "", "print the S3.5 model next to the enactor on an ideal backend", &[], |_| print(theory())),
    command("ablation", "", "print the SP-over-DP speed-up against overhead variability", &[QUICK], cmd_ablation),
    command("granularity", "", "print the S5.4 batch-size sweep next to the model's optimum", &[], |_| print(granularity())),
    command("campaign", "", "six configurations over a sweep vs eqs. 1-4: BENCH_point/summary.json", CAMPAIGN, cmd_campaign),
    command("warm", "", "cold then warm run against one data manager: BENCH_warm.json", WARM_FLAGS, cmd_warm),
    command("faults", "", "three retry strategies on an unreliable grid: BENCH_faults.json", FAULTS_FLAGS, cmd_faults),
    command("timeline", "", "telemetry, ideal and queue-saturated regimes: BENCH_timeline.json", TIMELINE_FLAGS, cmd_timeline),
    command("plan", "", "static byte bounds vs observed staging: BENCH_plan.json", PLAN_FLAGS, cmd_plan),
    command("scale", "", "a million simulator events, ten thousand jobs: BENCH_scale.json", SCALE_FLAGS, cmd_scale),
    command("stream", "", "a million items through bounded ports: BENCH_stream.json", STREAM_FLAGS, cmd_stream),
    command("daemon", "", "a submission wave across tenants of one daemon: BENCH_daemon.json", DAEMON_FLAGS, cmd_daemon),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(BIN, &COMMANDS, &args)
}

/// `ndata=1..6` / `1..6` / `ndata=2,4,8`: the sizes of a sweep, all > 0.
struct Sizes(Vec<usize>);

impl FromStr for Sizes {
    type Err = ();

    fn from_str(spec: &str) -> Result<Self, ()> {
        let spec = spec.strip_prefix("ndata=").unwrap_or(spec);
        let sizes: Vec<usize> = match spec.split_once("..") {
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (lo.parse().or(Err(()))?, hi.parse().or(Err(()))?);
                (lo..=hi).collect()
            }
            None => {
                let each = spec.split(',').map(|s| s.trim().parse());
                each.collect::<Result<_, _>>().or(Err(()))?
            }
        };
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(());
        }
        Ok(Sizes(sizes))
    }
}

/// A probability: a number in [0, 1].
struct Fraction(f64);

impl FromStr for Fraction {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.parse() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(Fraction(p)),
            _ => Err(()),
        }
    }
}

/// A `usize` flag that must be positive, or `default` when absent.
fn positive(args: &Args, name: &str, default: usize) -> Result<usize, String> {
    let given: Option<NonZeroUsize> = args.parsed(name)?;
    Ok(given.map_or(default, NonZeroUsize::get))
}

fn seed(args: &Args) -> Result<u64, String> {
    Ok(args.parsed("--seed")?.unwrap_or(2006))
}

/// A campaign's result, or its failure as the one line `main` prints.
fn ran<T>(result: Result<T, MoteurError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// The body of a subcommand that only prints.
fn print(text: Result<String, MoteurError>) -> Outcome {
    print!("{}", ran(text)?);
    Ok(ExitCode::SUCCESS)
}

fn write_doc(args: &Args, file: &str, text: &str) -> Result<String, String> {
    let path = Path::new(args.value("--out-dir").unwrap_or(".")).join(file);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The tail every campaign command shares: print the report's human
/// rendering, write its document, and exit by the campaign's gate table
/// evaluated over the document just written.
fn conclude<R>(
    args: &Args,
    campaign: &Campaign,
    report: Result<R, MoteurError>,
    human: impl Fn(&R) -> String,
    json: impl Fn(&R) -> String,
) -> Outcome {
    let report = ran(report)?;
    print!("{}", human(&report));
    let json = json(&report);
    let failed = campaign.failures(&json);
    println!(
        "wrote {}",
        write_doc(args, &campaign.file(), &(json + "\n"))?
    );
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "{BIN}: {} campaign failed: {}",
        campaign.name,
        failed.join(", ")
    );
    Ok(ExitCode::FAILURE)
}

fn cmd_paper(args: &Args) -> Outcome {
    let quick = args.has("--quick");
    let seed = seed(args)?;
    let repeats = positive(args, "--repeats", 1)?;
    eprintln!(
        "paper campaign: bronze on egee-2006, 6 configurations x {} sizes (seed {seed}, {repeats} repeat(s))...",
        if quick { "quick" } else { "the paper's" }
    );
    for (file, text) in ran(run_paper(quick, seed, repeats))? {
        println!("wrote {}", write_doc(args, file, &text)?);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ablation(args: &Args) -> Outcome {
    print(ablation(args.has("--quick")))
}

fn cmd_campaign(args: &Args) -> Outcome {
    let sizes = args.parsed("--sweep")?;
    let sizes = sizes.map_or_else(|| (1..=6).collect(), |Sizes(sizes)| sizes);
    let mut spec = CampaignSpec::ideal_chain(sizes);
    spec.seed = seed(args)?;
    if let Some(s) = args.value("--workflow") {
        spec.workflow = CampaignWorkflow::parse(s)
            .ok_or_else(|| format!("unknown workflow `{s}` (chain|bronze)"))?;
    }
    if let Some(s) = args.value("--grid") {
        if GridConfig::preset(s).is_none() {
            return Err(format!("unknown grid `{s}` ({})", GridConfig::PRESETS));
        }
        spec.grid = s.to_string();
    }
    let mut model = Model::default();
    model.overhead = args.parsed("--overhead")?.unwrap_or(model.overhead);
    model.tolerance = args.parsed("--tolerance")?.unwrap_or(model.tolerance);

    eprintln!(
        "sweeping {} on the {} grid over n_data {:?}...",
        spec.workflow.name(),
        spec.grid,
        spec.sizes
    );
    let summary = ran(run_campaign(&spec).and_then(|cells| summarize(&spec, model, cells)))?;
    let points = render_points_json(&summary) + "\n";
    let point_path = write_doc(args, "BENCH_point.json", &points)?;
    let human = |s: &BenchSummary| {
        let points = s.cells.len();
        format!(
            "{}wrote {point_path} ({points} points)\n",
            render_summary(s)
        )
    };
    conclude(args, &SUMMARY, Ok(summary), human, render_summary_json)
}

fn cmd_warm(args: &Args) -> Outcome {
    let n_data = positive(args, "--ndata", 6)?;
    let seed = seed(args)?;
    eprintln!("warm-restart pair: bronze-chain, ideal grid, sp+dp, n_data {n_data}...");
    let report = run_warm_pair(n_data, seed);
    conclude(args, &WARM, report, render_warm, render_warm_json)
}

fn cmd_faults(args: &Args) -> Outcome {
    let mut spec = FaultsSpec::default();
    spec.n_data = positive(args, "--ndata", spec.n_data)?;
    spec.seed = seed(args)?;
    spec.repeats = positive(args, "--repeats", spec.repeats)?;
    if let Some(Fraction(p)) = args.parsed("--failure-probability")? {
        spec.failure_probability = p;
    }
    eprintln!(
        "fault injection: bronze on unreliable egee-2006 (p_fail {:.0}%), n_data {} x {} seeds...",
        spec.failure_probability * 100.0,
        spec.n_data,
        spec.repeats
    );
    let report = run_faults(&spec);
    conclude(args, &FAULTS, report, render_faults, render_faults_json)
}

fn cmd_timeline(args: &Args) -> Outcome {
    let mut spec = TimelineSpec::default();
    spec.ideal_n_data = positive(args, "--ideal-ndata", spec.ideal_n_data)?;
    spec.loaded_n_data = positive(args, "--loaded-ndata", spec.loaded_n_data)?;
    spec.seed = seed(args)?;
    eprintln!(
        "timeline telemetry: bronze sp+dp, ideal n_data {} / egee n_data {}...",
        spec.ideal_n_data, spec.loaded_n_data
    );
    let report = run_timeline(&spec);
    conclude(
        args,
        &TIMELINE,
        report,
        render_timeline,
        render_timeline_json,
    )
}

fn cmd_plan(args: &Args) -> Outcome {
    let mut spec = PlanSpec::default();
    spec.n_data = positive(args, "--ndata", spec.n_data)?;
    spec.seed = seed(args)?;
    eprintln!(
        "static plan check: bronze + cross sweep on the ideal grid, n_data {}...",
        spec.n_data
    );
    let report = run_plan_bench(&spec);
    conclude(
        args,
        &PLAN,
        report,
        render_plan_bench,
        render_plan_bench_json,
    )
}

fn cmd_scale(args: &Args) -> Outcome {
    let mut spec = ScaleSpec::default();
    if let Some(events) = args.parsed::<NonZeroU64>("--events")? {
        spec.target_events = events.get();
    }
    spec.enact_jobs = positive(args, "--jobs", spec.enact_jobs)?;
    spec.seed = seed(args)?;
    eprintln!(
        "scale campaign: {} gridsim events + {} enactor jobs (seed {})...",
        spec.target_events, spec.enact_jobs, spec.seed
    );
    let report = run_scale(&spec);
    conclude(args, &SCALE, report, render_scale, render_scale_json)
}

fn cmd_stream(args: &Args) -> Outcome {
    let mut spec = StreamSpec::default();
    spec.n_items = positive(args, "--items", spec.n_items)?;
    spec.port_capacity = positive(args, "--capacity", spec.port_capacity)?;
    spec.eager_items = positive(args, "--eager-items", spec.eager_items)?;
    spec.seed = seed(args)?;
    eprintln!(
        "stream campaign: {} items through port capacity {} (seed {})...",
        spec.n_items, spec.port_capacity, spec.seed
    );
    let report = run_stream(&spec);
    conclude(args, &STREAM, report, render_stream, render_stream_json)
}

fn cmd_daemon(args: &Args) -> Outcome {
    let n_workflows = positive(args, "--workflows", 100)?;
    let n_tenants = positive(args, "--tenants", 4)?;
    let n_data = positive(args, "--ndata", 2)?;
    eprintln!(
        "daemon wave: {n_workflows} bronze-chain submissions across {n_tenants} tenants (n_data {n_data})..."
    );
    let report = run_daemon_campaign(n_workflows, n_tenants, n_data);
    conclude(args, &DAEMON, report, render_daemon, render_daemon_json)
}
