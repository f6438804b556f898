//! `moteur` — command-line workflow enactor.
//!
//! The user-facing face of the reproduction (the paper's MOTEUR was
//! "freely available for download"): load a Scufl workflow and an input
//! data-set document, enact on the simulated grid, and report.
//!
//! `moteur --help` prints every subcommand with its flags; that text is
//! derived from the flag tables below (and `ci.sh` copies it into the
//! README), so there is no second synopsis to keep in step.
//!
//! `--cache-dir` attaches the provenance-keyed data manager: completed
//! deterministic invocations are memoized into `DIR`, and a later run
//! over the same inputs (same process or a warm restart) elides the
//! memoized grid jobs, replaying their outputs at `--fetch-cost`
//! simulated seconds per hit.
//!
//! The fault-tolerance flags select the retry policy applied to failed
//! invocations, an optional timeout (fixed seconds, or percentile-
//! adaptive with `--adaptive-timeout`, where `--timeout` then serves as
//! the warm-up fallback budget) with its action (cancel-and-resubmit,
//! or speculative replication — first completion wins), and CE
//! blacklisting. `--continue-on-error` quarantines terminally failed
//! data items instead of aborting: the run completes the independent
//! items, prints a workflow report (JSON with `--emit
//! workflow-report=PATH`), and exits non-zero.
//!
//! Every run output is one kind of `--emit kind=path[,kind=path]`
//! (`moteur_repro::emit` holds the table): `timeline` records
//! virtual-time resource series (per-CE queue depth/running/utilization,
//! per-link bytes and bandwidth, enactor gauges) into a byte-stable
//! `moteur/timeline/v1` JSON file and prints a bottleneck attribution;
//! `profile` enables the always-compiled self-profiler and writes the
//! canonical `moteur/prof/v1` document (deterministic: byte-identical
//! across processes for the same run), `profile-collapsed` a
//! collapsed-stack export loadable by inferno/flamegraph.pl, and either
//! also prints the sorted hot-spot table to stderr. `--slo FACTOR` arms
//! a burn-rate check against the eq. 1–4 predicted makespan, emitting
//! `slo_breached` when the projected makespan exceeds prediction ×
//! FACTOR.

use moteur_repro::bench::{bronze_inputs, bronze_workflow_xml};
use moteur_repro::cli::{command, dispatch, switch, text, typed, Args, Command, Flag, Outcome};
use moteur_repro::emit::{self, Emit, Need};
use moteur_repro::gridsim::{Distribution, GridConfig};
use moteur_repro::moteur::lint::{explain, prediction_to_json, render_explain, LintReport};
use moteur_repro::moteur::{
    check_protocol, group_workflow, lint_workflow, plan_to_json, plan_workflow, predict,
    render_human, render_plan, render_prediction, report_to_json, serve, to_dot, Backend, Daemon,
    DaemonConfig, DataStore, DataValue, Enactment, EnactorConfig, FtConfig, FtPolicy, InputData,
    MoteurError, PlanOptions, RetryPolicy, SimBackend, SloConfig, SourceSizes, StoreConfig,
    TenantConfig, Timeline, TimeoutAction, TimeoutPolicy, VirtualBackend, Workflow,
};
use moteur_repro::scufl::{
    lint_source, parse_input_data, parse_workflow, write_input_data, write_workflow,
};
use std::process::ExitCode;

const BIN: &str = "moteur";

// What a mistyped value is told it needs (`{}` is the value).
const INT: &str = "an integer";
const POSITIVE: &str = "a positive integer";
const SECONDS: &str = "a number (seconds)";
const NUMBER: &str = "a valid number, got `{}`";
const SLO: &str = "a number (multiple of the predicted makespan)";

// The flag tables: one flag per line (hence the `rustfmt::skip`s), a
// flag more than one subcommand declares spelled once.
#[rustfmt::skip]
const SEED: Flag = typed("--seed", "N", INT, "seed of the simulated grid (default 2006)");
const JSON: Flag = switch("--json", "machine-readable output");
const DENY_WARNINGS: Flag = switch("--deny-warnings", "warnings fail too (exit 1)");
#[rustfmt::skip]
const NDATA: Flag = typed("--ndata", "N", POSITIVE, "campaign size predicted for (default 12)");
#[rustfmt::skip]
const OVERHEAD: Flag = typed("--overhead", "S", SECONDS, "per-job grid overhead of the prediction");

#[rustfmt::skip]
const RUN: &[Flag] = &[
    text("--config", "LABEL", "nop|jg|sp|dp|sp+dp|sp+dp+jg (default sp+dp)"),
    SEED,
    text("--grid", "NAME", "egee|ideal (default egee)"),
    typed("--batch", "G", POSITIVE, "data items per grid job"),
    switch("--no-verify", "enact even if the lint pre-flight finds errors"),
    text("--cache-dir", "DIR", "memoize invocations into the store in DIR"),
    typed("--fetch-cost", "SECS", SECONDS, "simulated cost of replaying a result"),
    switch("--continue-on-error", "quarantine failed items instead of aborting; exit 1"),
    text("--retry-policy", "POLICY", "fixed|backoff|jitter (default fixed)"),
    typed("--max-retries", "N", NUMBER, "resubmissions per invocation"),
    typed("--retry-base", "S", NUMBER, "first backoff delay (default 10)"),
    typed("--retry-factor", "F", NUMBER, "backoff growth (default 2)"),
    typed("--retry-max-delay", "S", NUMBER, "backoff ceiling (default 300)"),
    typed("--timeout", "S", NUMBER, "per-job timeout; the warm-up budget when adaptive"),
    switch("--adaptive-timeout", "time out at 3x the observed p95 job duration"),
    text("--on-timeout", "ACTION", "resubmit|replicate (default resubmit)"),
    typed("--max-replicas", "N", NUMBER, "speculative copies under replicate (default 1)"),
    typed("--blacklist-after", "N", NUMBER, "failures before a CE is avoided"),
    typed("--slo", "FACTOR", SLO, "breach when the projected makespan exceeds eq. 1-4 x FACTOR"),
    text("--emit", "KIND=PATH,..", "write the run's outputs, one PATH per KIND"),
];

#[rustfmt::skip]
const DAEMON: &[Flag] = &[
    text("--socket", "PATH", "listen on a unix socket instead of stdin/stdout"),
    text("--cache", "DIR", "persist the shared memo table in DIR"),
    typed("--fetch-cost", "SECS", "seconds, got `{}`", "simulated cost of replaying a result"),
    text("--grid", "NAME", "virtual|egee|ideal (default virtual)"),
    SEED,
    typed("--quantum", "N", INT, "jobs an instance may start per turn (default 8)"),
    typed("--max-workflows", "N", "an integer, got `{}`", "in-flight workflows per tenant"),
    typed("--max-jobs", "N", "an integer, got `{}`", "in-flight jobs per tenant"),
    text("--weights", "T=W,..", "fair-share weight per tenant"),
    switch("--check-protocol", "round-trip every message type and exit"),
];

#[rustfmt::skip]
const TIMELINE: &[Flag] = &[
    text("--heatmap", "METRIC", "one row per CE of `*.METRIC` (e.g. queue_depth)"),
    typed("--width", "N", POSITIVE, "columns (default 72)"),
];

#[rustfmt::skip]
const LINT: &[Flag] = &[
    JSON,
    DENY_WARNINGS,
    switch("--predict", "add the eq. 1-4 makespan/job-count table"),
    NDATA,
    OVERHEAD,
    text("--explain", "M0xx", "describe one rule code (no workflow needed)"),
];

#[rustfmt::skip]
const PLAN: &[Flag] = &[
    JSON,
    DENY_WARNINGS,
    NDATA,
    OVERHEAD,
    typed("--bandwidth", "BPS", "a number (bytes/second)", "enactor link bandwidth"),
    typed("--cap", "N", POSITIVE, "cardinality at which a cross product explodes"),
    typed("--max-fragment", "N", POSITIVE, "largest site fragment"),
];

#[rustfmt::skip]
static COMMANDS: [Command; 10] = [
    command("run", "<workflow.xml> <inputs.xml>", "enact on the simulated grid", RUN, cmd_run)
        .hooks(emit::removed_flag, || emit::help(true)),
    command("daemon", "", "serve moteur/daemon/v1 on stdin/stdout or a socket", DAEMON, cmd_daemon),
    command("timeline", "render <timeline.json>", "re-render a timeline", TIMELINE, cmd_timeline),
    command("lint", "<workflow.xml>", "static diagnostics; exit 1 if they fail", LINT, cmd_lint),
    command("plan", "<workflow.xml>", "cardinalities, transfers, site partition", PLAN, cmd_plan),
    command("validate", "<workflow.xml>", "parse and check a workflow", &[], cmd_validate),
    command("group", "<workflow.xml>", "print the grouped workflow", &[], cmd_group),
    command("dot", "<workflow.xml>", "Graphviz export", &[], cmd_dot),
    command("cache", "<stats|gc|clear> <dir>", "inspect or maintain a store", &[], cmd_cache),
    command("example", "", "write bronze-standard.xml and inputs-12.xml", &[], cmd_example),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(BIN, &COMMANDS, &args)
}

/// The subcommand was not given its operands: its synopsis, exit 2.
fn usage(name: &str) -> Outcome {
    let command = COMMANDS.iter().find(|c| c.name == name).expect("declared");
    eprint!("usage: {}", command.help(BIN));
    Ok(ExitCode::from(2))
}

/// Exit 0 when the lint report passes, 1 when it fails.
fn verdict(passes: bool) -> Outcome {
    Ok(if passes {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_workflow(path: &str) -> Result<Workflow, String> {
    parse_workflow(&read(path)?).map_err(|e| e.to_string())
}

/// `moteur timeline render` — re-render a timeline JSON export (from
/// `--emit timeline=PATH` of `moteur run` or `moteur-gridsim`) as ASCII
/// sparklines, or as a per-CE heatmap with `--heatmap METRIC` (e.g.
/// `--heatmap queue_depth`).
fn cmd_timeline(args: &Args) -> Outcome {
    let [action, path] = args.operands[..] else {
        return usage("timeline");
    };
    if action != "render" {
        return Err(format!("unknown timeline action `{action}` (render)"));
    }
    let tl = Timeline::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let width: usize = args.parsed("--width")?.unwrap_or(72);
    match args.value("--heatmap") {
        Some(metric) => {
            let rendered = tl.render_heatmap(metric, width);
            if rendered.is_empty() {
                return Err(format!("{path}: no series named `*.{metric}`"));
            }
            print!("{rendered}");
        }
        None => print!("{}", tl.render(width)),
    }
    Ok(ExitCode::SUCCESS)
}

/// Parse and lint a workflow file: the source, the workflow if it
/// parses, and the sorted report of both passes.
fn lint_file(path: &str) -> Result<(String, Option<Workflow>, LintReport), String> {
    let text = read(path)?;
    let (wf, parse_diags) = lint_source(&text);
    let mut report = LintReport::new(parse_diags);
    if let Some(wf) = &wf {
        report.extend(lint_workflow(wf).diagnostics);
    }
    report.sort();
    Ok((text, wf, report))
}

/// `moteur lint` — run every static rule over a workflow file and
/// render the findings rustc-style (or as JSON). Exit code 0 when the
/// report passes, 1 when it fails (errors, or warnings under
/// `--deny-warnings`), 2 on usage errors.
fn cmd_lint(args: &Args) -> Outcome {
    if let Some(code) = args.value("--explain") {
        // Table-driven from the rule registry, so a code printed by CI
        // always resolves to its documentation.
        let doc = explain(code)
            .ok_or_else(|| format!("unknown rule code `{code}` (expected M000–M085)"))?;
        print!("{}", render_explain(doc));
        return Ok(ExitCode::SUCCESS);
    }
    let Some(&path) = args.operands.first() else {
        return usage("lint");
    };
    let n_data: usize = args.parsed("--ndata")?.unwrap_or(12);
    let overhead: f64 = args.parsed("--overhead")?.unwrap_or(0.0);
    let (text, wf, report) = lint_file(path)?;

    let prediction = match (args.has("--predict"), &wf) {
        (true, Some(wf)) => {
            Some(predict(wf, n_data, overhead).map_err(|e| format!("--predict: {}", e.message()))?)
        }
        (true, None) => {
            return Err("--predict: workflow does not parse; fix the errors first".to_string())
        }
        (false, _) => None,
    };

    if args.has("--json") {
        let lint_json = report_to_json(&report);
        match &prediction {
            // One JSON document even when both halves are requested.
            Some(p) => println!(
                "{{\"lint\":{lint_json},\"prediction\":{}}}",
                prediction_to_json(p)
            ),
            None => println!("{lint_json}"),
        }
    } else {
        print!("{}", render_human(&report, path, Some(&text)));
        if let Some(p) = &prediction {
            println!();
            print!("{}", render_prediction(p));
        }
    }
    verdict(!report.fails(args.has("--deny-warnings")))
}

/// `moteur plan` — the whole-workflow static dataflow analysis: interval
/// cardinalities per processor, per-edge transfer-volume bounds, a greedy
/// site partition minimizing enactor-routed bytes, and the eq. 1–4
/// makespan prediction with and without that partition. Lint runs first
/// (same exit-code contract as `moteur lint`), so `plan --deny-warnings`
/// subsumes a lint gate.
fn cmd_plan(args: &Args) -> Outcome {
    let Some(&path) = args.operands.first() else {
        return usage("plan");
    };
    let defaults = PlanOptions::default();
    let opts = PlanOptions {
        sizes: SourceSizes::uniform(args.parsed("--ndata")?.unwrap_or(12)),
        overhead: args.parsed("--overhead")?.unwrap_or(defaults.overhead),
        bandwidth: args.parsed("--bandwidth")?.unwrap_or(defaults.bandwidth),
        explosion_cap: args.parsed("--cap")?.unwrap_or(defaults.explosion_cap),
        max_fragment: args
            .parsed("--max-fragment")?
            .unwrap_or(defaults.max_fragment),
        ..defaults
    };

    let (text, wf, report) = lint_file(path)?;
    let Some(wf) = &wf else {
        print!("{}", render_human(&report, path, Some(&text)));
        return Ok(ExitCode::FAILURE);
    };
    let plan = plan_workflow(wf, &opts);
    if args.has("--json") {
        println!("{}", plan_to_json(&plan));
    } else {
        if !report.diagnostics.is_empty() {
            print!("{}", render_human(&report, path, Some(&text)));
            println!();
        }
        print!("{}", render_plan(&plan));
    }
    verdict(!report.fails(args.has("--deny-warnings")))
}

fn cmd_validate(args: &Args) -> Outcome {
    let path = args
        .operands
        .first()
        .ok_or("validate needs a workflow file")?;
    let wf = load_workflow(path)?;
    println!(
        "{}: OK — {} processors, {} links, {} sources, {} sinks, critical path {}",
        path,
        wf.processors.len(),
        wf.links.len(),
        wf.sources().len(),
        wf.sinks().len(),
        wf.critical_path_services()
            .map_or_else(|_| "n/a (cyclic)".into(), |n| n.to_string()),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_group(args: &Args) -> Outcome {
    let path = args.operands.first().ok_or("group needs a workflow file")?;
    let wf = load_workflow(path)?;
    let grouped = group_workflow(&wf).map_err(|e| e.to_string())?;
    eprintln!(
        "grouping: {} processors -> {}",
        wf.processors.len(),
        grouped.processors.len()
    );
    // Grouped bindings have no XML form; print the structure.
    for p in &grouped.processors {
        println!("{:?} {}", p.kind, p.name);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dot(args: &Args) -> Outcome {
    let path = args.operands.first().ok_or("dot needs a workflow file")?;
    print!("{}", to_dot(&load_workflow(path)?));
    Ok(ExitCode::SUCCESS)
}

/// `moteur cache` — inspect or maintain a persisted data-manager store
/// without enacting anything.
fn cmd_cache(args: &Args) -> Outcome {
    let [action, dir] = args.operands[..] else {
        return Err("cache needs an action (stats|gc|clear) and a store directory".to_string());
    };
    let mut store = DataStore::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    match action {
        "stats" => println!("{dir}: {}", store.stats()),
        "gc" => {
            let pruned = store.gc();
            store.save().map_err(|e| e.to_string())?;
            println!(
                "pruned {pruned} dangling invocation(s); now {}",
                store.stats()
            );
        }
        "clear" => {
            store.clear();
            store.save().map_err(|e| e.to_string())?;
            println!("cleared {dir}");
        }
        other => return Err(format!("unknown cache action `{other}` (stats|gc|clear)")),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_example(_args: &Args) -> Outcome {
    let wf_path = "bronze-standard.xml";
    let data_path = "inputs-12.xml";
    std::fs::write(wf_path, bronze_workflow_xml()).map_err(|e| e.to_string())?;
    let data = bronze_inputs(12);
    let doc = write_input_data(&[
        (
            "referenceImage",
            data.get("referenceImage").expect("built-in"),
        ),
        (
            "floatingImage",
            data.get("floatingImage").expect("built-in"),
        ),
        ("methodToTest", data.get("methodToTest").expect("built-in")),
    ])
    .expect("built-in inputs serialise");
    std::fs::write(data_path, doc).map_err(|e| e.to_string())?;
    println!("wrote {wf_path} and {data_path}");
    println!("try: moteur run {wf_path} {data_path} --config sp+dp+jg --emit report=-");
    Ok(ExitCode::SUCCESS)
}

/// SCUFL parser handed to the daemon so submissions carry workflow
/// source inline instead of file paths (the daemon may outlive the
/// submitting client's working directory).
fn daemon_parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    let w = parse_workflow(workflow).map_err(|e| MoteurError::new(e.message))?;
    let i = parse_input_data(inputs).map_err(|e| MoteurError::new(e.message))?;
    Ok((w, i))
}

fn cmd_daemon(args: &Args) -> Outcome {
    if args.has("--check-protocol") {
        let ops = check_protocol().map_err(|e| e.to_string())?;
        println!(
            "moteur/daemon/v1 protocol ok ({} ops): {}",
            ops.len(),
            ops.join(", ")
        );
        return Ok(ExitCode::SUCCESS);
    }

    let seed: u64 = args.parsed("--seed")?.unwrap_or(2006);
    let backend: Box<dyn Backend> = match args.value("--grid").unwrap_or("virtual") {
        "virtual" => Box::new(VirtualBackend::new()),
        name => match GridConfig::preset(name) {
            Some(grid) => Box::new(SimBackend::new(grid, seed)),
            None => {
                let names = GridConfig::PRESETS;
                return Err(format!("unknown grid `{name}` (virtual|{names})"));
            }
        },
    };

    let mut store_config = StoreConfig::default();
    if let Some(secs) = args.parsed("--fetch-cost")? {
        store_config = store_config.with_fetch_cost(Some(Distribution::Constant(secs)));
    }
    let store = match args.value("--cache") {
        Some(dir) => DataStore::open(dir, store_config).map_err(|e| e.to_string())?,
        None => DataStore::in_memory(store_config),
    };

    let mut tenant_defaults = TenantConfig::default();
    if let Some(n) = args.parsed("--max-workflows")? {
        tenant_defaults.max_inflight_workflows = n;
    }
    if let Some(n) = args.parsed("--max-jobs")? {
        tenant_defaults.max_inflight_jobs = n;
    }
    let mut config = DaemonConfig {
        tenant_defaults,
        quantum: args.parsed("--quantum")?.unwrap_or(8),
        ..DaemonConfig::default()
    };
    for pair in args.value("--weights").unwrap_or("").split(',') {
        if pair.is_empty() {
            continue;
        }
        let Some((name, weight)) = pair.split_once('=') else {
            return Err(format!("--weights wants tenant=WEIGHT pairs, got `{pair}`"));
        };
        let Ok(weight) = weight.parse::<u32>() else {
            return Err(format!("weight for `{name}` must be an integer"));
        };
        if weight == 0 {
            return Err(format!(
                "weight for `{name}` must be positive: weight 0 would \
                 starve the tenant's workflows forever"
            ));
        }
        config.tenant_overrides.insert(
            name.to_string(),
            TenantConfig {
                weight,
                ..config.tenant_defaults
            },
        );
    }

    let mut daemon = Daemon::new(backend, store, daemon_parser, config);
    match args.value("--socket") {
        Some(path) => serve_socket(&mut daemon, path),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            serve(&mut daemon, stdin.lock(), &mut out).map(|_| ())
        }
    }
    .map_err(|e| e.to_string())?;
    // Persist the memo table so the next daemon (or one-shot run)
    // starts warm; in-memory stores make this a no-op.
    daemon.store().save().map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// Accept-loop for `--socket`: serve one connection at a time (the
/// daemon itself is single-threaded by design — concurrency lives in
/// the multiplexed instances) until a client sends `shutdown`.
#[cfg(unix)]
fn serve_socket(daemon: &mut Daemon, path: &str) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("moteur daemon: listening on {path}");
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let reader = std::io::BufReader::new(stream.try_clone()?);
                let mut writer = stream;
                match serve(daemon, reader, &mut writer) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(e) => eprintln!("moteur daemon: connection error: {e}"),
                }
            }
            Err(e) => eprintln!("moteur daemon: accept error: {e}"),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_daemon: &mut Daemon, _path: &str) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket needs a unix platform; use stdin/stdout mode instead",
    ))
}

/// Build the fault-tolerance configuration from `moteur run` flags.
/// Without any FT flag this is [`FtConfig::default`] (immediate
/// resubmission of a failed job, no timeout).
fn parse_ft_config(args: &Args) -> Result<FtConfig, String> {
    let defaults = FtConfig::default();
    let max_retries: u32 = args
        .parsed("--max-retries")?
        .unwrap_or(defaults.default.retry.max_retries());
    let base_delay: f64 = args.parsed("--retry-base")?.unwrap_or(10.0);
    let factor: f64 = args.parsed("--retry-factor")?.unwrap_or(2.0);
    let max_delay: f64 = args.parsed("--retry-max-delay")?.unwrap_or(300.0);
    let retry = match args.value("--retry-policy").unwrap_or("fixed") {
        "fixed" => RetryPolicy::Fixed { max_retries },
        "backoff" => RetryPolicy::ExponentialBackoff {
            max_retries,
            base_delay,
            factor,
            max_delay,
        },
        "jitter" => RetryPolicy::Jittered {
            max_retries,
            base_delay,
            factor,
            max_delay,
        },
        other => {
            return Err(format!(
                "unknown retry policy `{other}` (fixed|backoff|jitter)"
            ))
        }
    };

    let timeout_secs: Option<f64> = args.parsed("--timeout")?;
    let timeout = if args.has("--adaptive-timeout") {
        // `--timeout` doubles as the warm-up fallback; without it the
        // timeout stays disabled until enough completions accrue.
        TimeoutPolicy::Adaptive {
            percentile: 0.95,
            multiplier: 3.0,
            min_samples: 5,
            fallback: timeout_secs.unwrap_or(f64::INFINITY),
        }
    } else {
        match timeout_secs {
            Some(seconds) => TimeoutPolicy::Fixed { seconds },
            None => TimeoutPolicy::None,
        }
    };

    let max_replicas: u32 = args.parsed("--max-replicas")?.unwrap_or(1);
    let on_timeout = match args.value("--on-timeout").unwrap_or("resubmit") {
        "resubmit" => TimeoutAction::Resubmit,
        "replicate" => TimeoutAction::Replicate { max_replicas },
        other => {
            return Err(format!(
                "unknown timeout action `{other}` (resubmit|replicate)"
            ))
        }
    };

    let mut ft = defaults
        .with_default(FtPolicy {
            retry,
            timeout,
            on_timeout,
        })
        .with_continue_on_error(args.has("--continue-on-error"));
    if let Some(threshold) = args.parsed::<u32>("--blacklist-after")? {
        ft = ft.with_ce_blacklist(threshold);
    }
    Ok(ft)
}

fn cmd_run(args: &Args) -> Outcome {
    let [wf_path, data_path, ..] = args.operands[..] else {
        return Err("run needs a workflow file and an input data file".to_string());
    };
    let wf = load_workflow(wf_path)?;
    let inputs = parse_input_data(&read(data_path)?).map_err(|e| e.to_string())?;

    let config_name = args.value("--config").unwrap_or("sp+dp");
    let Some(mut config) = EnactorConfig::preset(config_name) else {
        return Err(format!("unknown config `{config_name}`"));
    };
    let seed: u64 = args.parsed("--seed")?.unwrap_or(2006);
    config = config.with_seed(seed);
    if let Some(batch) = args.parsed("--batch")? {
        config = config.with_batching(batch);
    }
    if args.has("--no-verify") {
        config = config.without_preflight();
    }
    let mut emit = Emit::parse(args.value("--emit"), true)?;
    if let Some(factor) = args.parsed::<f64>("--slo")? {
        // Objective = the paper's eq. 1–4 makespan for this campaign
        // size, scaled by the tolerated burn factor.
        let n_data = wf
            .sources()
            .iter()
            .map(|&p| {
                inputs
                    .get(&wf.processors[p.0].name)
                    .map_or(0, <[DataValue]>::len)
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let prediction =
            predict(&wf, n_data, 0.0).map_err(|e| format!("--slo: {}", e.message()))?;
        let Some(row) = prediction.row(config_name) else {
            return Err(format!("--slo: no prediction for config `{config_name}`"));
        };
        config = config.with_slo(SloConfig {
            predicted_makespan_secs: row.makespan,
            factor,
            expected_jobs: row.jobs as usize,
        });
        eprintln!(
            "slo: predicted makespan {:.1} s x {factor} => breach above {:.1} s",
            row.makespan,
            row.makespan * factor,
        );
        // The burn-rate check samples the timeline, and a run that arms
        // it wants the bottleneck attribution that comes with it.
        emit.require(Need::Timeline);
    }
    let grid_name = args.value("--grid").unwrap_or("egee");
    let grid = GridConfig::preset(grid_name)
        .ok_or_else(|| format!("unknown grid `{grid_name}` ({})", GridConfig::PRESETS))?;
    let cache_dir = args.value("--cache-dir");
    let fetch_cost: Option<f64> = args.parsed("--fetch-cost")?;
    if fetch_cost.is_some() && cache_dir.is_none() {
        return Err("--fetch-cost requires --cache-dir".to_string());
    }
    let mut store = match cache_dir {
        Some(dir) => {
            // Memoization advisories (M070) never block enactment, so
            // the error-only preflight skips them; surface them here
            // where the user has actually asked for caching.
            for d in lint_workflow(&wf)
                .diagnostics
                .iter()
                .filter(|d| d.code == "M070")
            {
                eprintln!("warning[M070]: {}", d.message);
            }
            let mut store_config = StoreConfig::default();
            if let Some(secs) = fetch_cost {
                store_config = store_config.with_fetch_cost(Some(Distribution::Constant(secs)));
            }
            Some(DataStore::open(dir, store_config).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let ft = parse_ft_config(args)?;
    let (obs, sinks) = emit.attach()?;

    eprintln!(
        "enacting `{}` [{}] on the {grid_name} grid (seed {seed})...",
        wf.name,
        config.label(),
    );
    let mut backend = SimBackend::with_obs(grid, seed, &obs);
    let enactment = Enactment::new(&wf, &inputs, config)
        .ft(&ft)
        .obs(obs.clone())
        .store(store.as_mut());
    let result = match enactment.run(&mut backend) {
        Ok(r) => r,
        Err(e) if e.is_lint() => {
            return Err(format!(
                "{e}\n  run `moteur lint {wf_path}` for details, or `--no-verify` to enact anyway"
            ))
        }
        Err(e) => return Err(e.to_string()),
    };
    obs.flush()
        .map_err(|e| format!("flushing event sinks: {e}"))?;
    if let Some(s) = &store {
        s.save().map_err(|e| format!("saving cache: {e}"))?;
        println!("cache {}: {}", cache_dir.unwrap_or_default(), s.stats());
    }
    println!(
        "completed in {:.1} s simulated time ({:.2} h), {} jobs submitted",
        result.makespan.as_secs_f64(),
        result.makespan.as_secs_f64() / 3600.0,
        result.jobs_submitted,
    );
    for (sink, tokens) in &result.sink_outputs {
        println!("sink {sink}: {} result(s)", tokens.len());
    }
    emit.write(&sinks, Some((&wf, &result)))?;
    // Round-trip sanity so `moteur run` doubles as a format checker.
    if write_workflow(&wf).is_err() {
        eprintln!("note: workflow contains bindings with no XML form");
    }
    // A degraded run delivered results, but items are missing.
    verdict(result.report().ok())
}
