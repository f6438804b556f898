//! `moteur` — command-line workflow enactor.
//!
//! The user-facing face of the reproduction (the paper's MOTEUR was
//! "freely available for download"): load a Scufl workflow and an input
//! data-set document, enact on the simulated grid, and report.
//!
//! ```text
//! moteur run <workflow.xml> <inputs.xml> [--config sp+dp] [--seed N]
//!            [--grid egee|ideal] [--batch G] [--report] [--diagram]
//!            [--provenance out.xml] [--events out.jsonl]
//!            [--chrome-trace trace.json] [--metrics metrics.json]
//!            [--openmetrics metrics.om] [--spans spans.jsonl]
//!            [--critical-path] [--cache-dir DIR] [--fetch-cost SECS]
//!            [--continue-on-error] [--workflow-report out.json]
//!            [--retry-policy fixed|backoff|jitter] [--max-retries N]
//!            [--retry-base S] [--retry-factor F] [--retry-max-delay S]
//!            [--timeout S] [--adaptive-timeout]
//!            [--on-timeout resubmit|replicate] [--max-replicas N]
//!            [--blacklist-after N]
//!            [--timeline out.json] [--timeline-csv out.csv] [--slo FACTOR]
//!            [--profile out.json] [--profile-collapsed out.folded]
//! moteur timeline render <timeline.json> [--heatmap METRIC] [--width N]
//! moteur lint <workflow.xml> [--json] [--deny-warnings] [--predict]
//! moteur validate <workflow.xml>
//! moteur group <workflow.xml>          # print the grouped workflow
//! moteur dot <workflow.xml>            # Graphviz export
//! moteur cache <stats|gc|clear> <dir>  # inspect/maintain a data-manager store
//! moteur example                       # write bronze-standard.xml + inputs-12.xml
//! ```
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
//! items, prints a workflow report (JSON with `--workflow-report`),
//! and exits non-zero.
//!
//! `--timeline` records virtual-time resource series (per-CE queue
//! depth/running/utilization, per-link bytes and bandwidth, enactor
//! gauges) into a byte-stable `moteur/timeline/v1` JSON file and prints
//! a bottleneck attribution; `--slo FACTOR` arms a burn-rate check
//! against the eq. 1–4 predicted makespan, emitting `slo_breached`
//! when the projected makespan exceeds prediction × FACTOR.
//!
//! `--profile` enables the always-compiled self-profiler and writes the
//! canonical `moteur/prof/v1` document (deterministic: byte-identical
//! across processes for the same run); `--profile-collapsed` writes a
//! collapsed-stack export loadable by inferno/flamegraph.pl. Either
//! flag also prints the sorted hot-spot table to stderr.

use moteur_repro::bench::{bronze_inputs, bronze_workflow_xml};
use moteur_repro::gridsim::Distribution;
use moteur_repro::gridsim::GridConfig;
use moteur_repro::moteur::lint::{explain, prediction_to_json, render_explain, LintReport};
use moteur_repro::moteur::{
    check_protocol, chrome_trace_with_metrics, critical_path, detect_bottlenecks, diagram,
    export_provenance, group_workflow, lint_workflow, plan_to_json, plan_workflow, predict,
    prof_to_json, render_critical_path, render_human, render_openmetrics_with_prof, render_plan,
    render_prediction, render_report, report_to_json, serve, to_dot, Backend, Daemon, DaemonConfig,
    DataStore, Enactment, EnactorConfig, EventSink, FtConfig, FtPolicy, InputData, JsonlSink,
    MetricsSink, MoteurError, Obs, PlanOptions, Prof, RetryPolicy, SimBackend, SloConfig,
    SourceSizes, SpanSink, StoreConfig, TenantConfig, Timeline, TimelineSink, TimeoutAction,
    TimeoutPolicy, VirtualBackend, Workflow,
};
use moteur_repro::scufl::{
    lint_source, parse_input_data, parse_workflow, write_input_data, write_workflow,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("group") => cmd_group(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("example") => cmd_example(),
        _ => {
            eprintln!(
                "usage: moteur <run|timeline|lint|plan|validate|group|dot|cache|example> ..."
            );
            eprintln!("  run <workflow.xml> <inputs.xml> [--config nop|jg|sp|dp|sp+dp|sp+dp+jg]");
            eprintln!("      [--seed N] [--grid egee|ideal] [--batch G] [--report] [--diagram]");
            eprintln!("      [--provenance out.xml] [--events out.jsonl]");
            eprintln!("      [--chrome-trace trace.json] [--metrics metrics.json]");
            eprintln!("      [--openmetrics metrics.om] [--spans spans.jsonl]");
            eprintln!("      [--critical-path] [--no-verify]");
            eprintln!("      [--cache-dir DIR] [--fetch-cost SECS]");
            eprintln!("      [--continue-on-error] [--workflow-report out.json]");
            eprintln!("      [--retry-policy fixed|backoff|jitter] [--max-retries N]");
            eprintln!("      [--retry-base S] [--retry-factor F] [--retry-max-delay S]");
            eprintln!("      [--timeout S] [--adaptive-timeout]");
            eprintln!("      [--on-timeout resubmit|replicate] [--max-replicas N]");
            eprintln!("      [--blacklist-after N]");
            eprintln!("      [--timeline out.json] [--timeline-csv out.csv] [--slo FACTOR]");
            eprintln!("      [--profile out.json] [--profile-collapsed out.folded]");
            eprintln!("  daemon [--socket PATH] [--cache DIR] [--fetch-cost SECS]");
            eprintln!("      [--grid virtual|ideal|egee] [--seed N] [--quantum N]");
            eprintln!("      [--max-workflows N] [--max-jobs N] [--weights t=W,...]");
            eprintln!("      [--check-protocol]");
            eprintln!("  timeline render <timeline.json> [--heatmap METRIC] [--width N]");
            eprintln!("  lint <workflow.xml> [--json] [--deny-warnings] [--predict]");
            eprintln!("      [--ndata N] [--overhead S]");
            eprintln!("  lint --explain M0xx                  # describe one rule code");
            eprintln!("  plan <workflow.xml> [--json] [--deny-warnings] [--ndata N]");
            eprintln!("      [--overhead S] [--bandwidth BPS] [--cap N] [--max-fragment N]");
            eprintln!("  validate <workflow.xml>");
            eprintln!("  group <workflow.xml>");
            eprintln!("  dot <workflow.xml>");
            eprintln!("  cache <stats|gc|clear> <dir>");
            eprintln!("  example");
            ExitCode::from(2)
        }
    }
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("moteur: {msg}");
    ExitCode::FAILURE
}

fn load_workflow(path: &str) -> Result<moteur_repro::moteur::Workflow, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_workflow(&text).map_err(|e| e.to_string())
}

/// `moteur timeline render` — re-render a timeline JSON export (from
/// `moteur run --timeline` or `moteur-gridsim --timeline`) as ASCII
/// sparklines, or as a per-CE heatmap with `--heatmap METRIC` (e.g.
/// `--heatmap queue_depth`).
fn cmd_timeline(args: &[String]) -> ExitCode {
    let (Some(action), Some(path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: moteur timeline render <timeline.json> [--heatmap METRIC] [--width N]");
        return ExitCode::from(2);
    };
    if action != "render" {
        return fail(format!("unknown timeline action `{action}` (render)"));
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {path}: {e}")),
    };
    let tl = match Timeline::from_json(&text) {
        Ok(tl) => tl,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let width: usize = match flag_value(args, "--width").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(72),
        Err(_) => return fail("--width needs a positive integer"),
    };
    match flag_value(args, "--heatmap") {
        Some(metric) => {
            let rendered = tl.render_heatmap(metric, width);
            if rendered.is_empty() {
                return fail(format!("{path}: no series named `*.{metric}`"));
            }
            print!("{rendered}");
        }
        None => print!("{}", tl.render(width)),
    }
    ExitCode::SUCCESS
}

/// `moteur lint` — run every static rule over a workflow file and
/// render the findings rustc-style (or as JSON). Exit code 0 when the
/// report passes, 1 when it fails (errors, or warnings under
/// `--deny-warnings`), 2 on usage errors.
fn cmd_lint(args: &[String]) -> ExitCode {
    if let Some(code) = flag_value(args, "--explain") {
        // Table-driven from the rule registry, so a code printed by CI
        // always resolves to its documentation.
        return match explain(code) {
            Some(doc) => {
                print!("{}", render_explain(doc));
                ExitCode::SUCCESS
            }
            None => fail(format!("unknown rule code `{code}` (expected M000–M085)")),
        };
    }
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: moteur lint <workflow.xml> [--json] [--deny-warnings] [--predict]");
        eprintln!("       moteur lint --explain M0xx");
        eprintln!(
            "       [--ndata N] [--overhead S]   (prediction campaign size / per-job overhead)"
        );
        return ExitCode::from(2);
    };
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let want_predict = args.iter().any(|a| a == "--predict");
    let n_data: usize = match flag_value(args, "--ndata").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(12),
        Err(_) => return fail("--ndata needs a positive integer"),
    };
    let overhead: f64 = match flag_value(args, "--overhead").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(0.0),
        Err(_) => return fail("--overhead needs a number (seconds)"),
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {path}: {e}")),
    };
    let (wf, parse_diags) = lint_source(&text);
    let mut report = LintReport::new(parse_diags);
    if let Some(wf) = &wf {
        report.extend(lint_workflow(wf).diagnostics);
    }
    report.sort();

    let prediction = match (want_predict, &wf) {
        (true, Some(wf)) => match predict(wf, n_data, overhead) {
            Ok(p) => Some(p),
            Err(e) => return fail(format!("--predict: {}", e.message())),
        },
        (true, None) => return fail("--predict: workflow does not parse; fix the errors first"),
        (false, _) => None,
    };

    if json {
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
    if report.fails(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `moteur plan` — the whole-workflow static dataflow analysis: interval
/// cardinalities per processor, per-edge transfer-volume bounds, a greedy
/// site partition minimizing enactor-routed bytes, and the eq. 1–4
/// makespan prediction with and without that partition. Lint runs first
/// (same exit-code contract as `moteur lint`), so `plan --deny-warnings`
/// subsumes a lint gate.
fn cmd_plan(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: moteur plan <workflow.xml> [--json] [--deny-warnings]");
        eprintln!("       [--ndata N] [--overhead S] [--bandwidth BPS]");
        eprintln!("       [--cap N] [--max-fragment N]");
        return ExitCode::from(2);
    };
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let defaults = PlanOptions::default();
    let n_data: u64 = match flag_value(args, "--ndata").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(12),
        Err(_) => return fail("--ndata needs a positive integer"),
    };
    let overhead: f64 = match flag_value(args, "--overhead").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(defaults.overhead),
        Err(_) => return fail("--overhead needs a number (seconds)"),
    };
    let bandwidth: f64 = match flag_value(args, "--bandwidth").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(defaults.bandwidth),
        Err(_) => return fail("--bandwidth needs a number (bytes/second)"),
    };
    let explosion_cap: u64 = match flag_value(args, "--cap").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(defaults.explosion_cap),
        Err(_) => return fail("--cap needs a positive integer"),
    };
    let max_fragment: usize = match flag_value(args, "--max-fragment")
        .map(str::parse)
        .transpose()
    {
        Ok(v) => v.unwrap_or(defaults.max_fragment),
        Err(_) => return fail("--max-fragment needs a positive integer"),
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("reading {path}: {e}")),
    };
    let (wf, parse_diags) = lint_source(&text);
    let mut report = LintReport::new(parse_diags);
    if let Some(wf) = &wf {
        report.extend(lint_workflow(wf).diagnostics);
    }
    report.sort();
    let Some(wf) = &wf else {
        print!("{}", render_human(&report, path, Some(&text)));
        return ExitCode::FAILURE;
    };

    let opts = PlanOptions {
        sizes: SourceSizes::uniform(n_data),
        overhead,
        bandwidth,
        explosion_cap,
        max_fragment,
        ..defaults
    };
    let plan = plan_workflow(wf, &opts);
    if json {
        println!("{}", plan_to_json(&plan));
    } else {
        if !report.diagnostics.is_empty() {
            print!("{}", render_human(&report, path, Some(&text)));
            println!();
        }
        print!("{}", render_plan(&plan));
    }
    if report.fails(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("validate needs a workflow file");
    };
    match load_workflow(path) {
        Ok(wf) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_group(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("group needs a workflow file");
    };
    let wf = match load_workflow(path) {
        Ok(wf) => wf,
        Err(e) => return fail(e),
    };
    match group_workflow(&wf) {
        Ok(grouped) => {
            eprintln!(
                "grouping: {} processors -> {}",
                wf.processors.len(),
                grouped.processors.len()
            );
            // Grouped bindings have no XML form; print the structure.
            for p in &grouped.processors {
                println!("{:?} {}", p.kind, p.name);
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_dot(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail("dot needs a workflow file");
    };
    match load_workflow(path) {
        Ok(wf) => {
            print!("{}", to_dot(&wf));
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `moteur cache` — inspect or maintain a persisted data-manager store
/// without enacting anything.
fn cmd_cache(args: &[String]) -> ExitCode {
    let (Some(action), Some(dir)) = (args.first(), args.get(1)) else {
        return fail("cache needs an action (stats|gc|clear) and a store directory");
    };
    let mut store = match DataStore::open(dir, StoreConfig::default()) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    match action.as_str() {
        "stats" => {
            println!("{dir}: {}", store.stats());
            ExitCode::SUCCESS
        }
        "gc" => {
            let pruned = store.gc();
            if let Err(e) = store.save() {
                return fail(e);
            }
            println!(
                "pruned {pruned} dangling invocation(s); now {}",
                store.stats()
            );
            ExitCode::SUCCESS
        }
        "clear" => {
            store.clear();
            if let Err(e) = store.save() {
                return fail(e);
            }
            println!("cleared {dir}");
            ExitCode::SUCCESS
        }
        other => fail(format!("unknown cache action `{other}` (stats|gc|clear)")),
    }
}

fn cmd_example() -> ExitCode {
    let wf_path = "bronze-standard.xml";
    let data_path = "inputs-12.xml";
    if let Err(e) = std::fs::write(wf_path, bronze_workflow_xml()) {
        return fail(e);
    }
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
    if let Err(e) = std::fs::write(data_path, doc) {
        return fail(e);
    }
    println!("wrote {wf_path} and {data_path}");
    println!("try: moteur run {wf_path} {data_path} --config sp+dp+jg --report");
    ExitCode::SUCCESS
}

/// SCUFL parser handed to the daemon so submissions carry workflow
/// source inline instead of file paths (the daemon may outlive the
/// submitting client's working directory).
fn daemon_parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    let w = parse_workflow(workflow).map_err(|e| MoteurError::new(e.message))?;
    let i = parse_input_data(inputs).map_err(|e| MoteurError::new(e.message))?;
    Ok((w, i))
}

fn cmd_daemon(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--check-protocol") {
        return match check_protocol() {
            Ok(ops) => {
                println!(
                    "moteur/daemon/v1 protocol ok ({} ops): {}",
                    ops.len(),
                    ops.join(", ")
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }

    let seed: u64 = match flag_value(args, "--seed").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(2006),
        Err(_) => return fail("--seed needs an integer"),
    };
    let backend: Box<dyn Backend> = match flag_value(args, "--grid").unwrap_or("virtual") {
        "virtual" => Box::new(VirtualBackend::new()),
        "ideal" => Box::new(SimBackend::new(GridConfig::ideal(), seed)),
        "egee" => Box::new(SimBackend::new(GridConfig::egee_2006(), seed)),
        other => return fail(format!("unknown grid `{other}` (virtual|ideal|egee)")),
    };

    let mut store_config = StoreConfig::default();
    if let Some(v) = flag_value(args, "--fetch-cost") {
        let Ok(secs) = v.parse::<f64>() else {
            return fail(format!("--fetch-cost needs seconds, got `{v}`"));
        };
        store_config = store_config.with_fetch_cost(Some(Distribution::Constant(secs)));
    }
    let store = match flag_value(args, "--cache") {
        Some(dir) => match DataStore::open(dir, store_config) {
            Ok(s) => s,
            Err(e) => return fail(e),
        },
        None => DataStore::in_memory(store_config),
    };

    let mut tenant_defaults = TenantConfig::default();
    if let Some(v) = flag_value(args, "--max-workflows") {
        match v.parse() {
            Ok(n) => tenant_defaults.max_inflight_workflows = n,
            Err(_) => return fail(format!("--max-workflows needs an integer, got `{v}`")),
        }
    }
    if let Some(v) = flag_value(args, "--max-jobs") {
        match v.parse() {
            Ok(n) => tenant_defaults.max_inflight_jobs = n,
            Err(_) => return fail(format!("--max-jobs needs an integer, got `{v}`")),
        }
    }
    let quantum: usize = match flag_value(args, "--quantum").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(8),
        Err(_) => return fail("--quantum needs an integer"),
    };
    let mut config = DaemonConfig {
        tenant_defaults,
        quantum,
        ..DaemonConfig::default()
    };
    if let Some(spec) = flag_value(args, "--weights") {
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let Some((name, weight)) = pair.split_once('=') else {
                return fail(format!("--weights wants tenant=WEIGHT pairs, got `{pair}`"));
            };
            let Ok(weight) = weight.parse::<u32>() else {
                return fail(format!("weight for `{name}` must be an integer"));
            };
            if weight == 0 {
                return fail(format!(
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
    }

    let mut daemon = Daemon::new(backend, store, daemon_parser, config);
    let served = match flag_value(args, "--socket") {
        Some(path) => serve_socket(&mut daemon, path),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            serve(&mut daemon, stdin.lock(), &mut out).map(|_| ())
        }
    };
    if let Err(e) = served {
        return fail(e);
    }
    // Persist the memo table so the next daemon (or one-shot run)
    // starts warm; in-memory stores make this a no-op.
    if let Err(e) = daemon.store().save() {
        return fail(e);
    }
    ExitCode::SUCCESS
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

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Build the fault-tolerance configuration from `moteur run` flags.
/// Without any FT flag this is [`FtConfig::default`] (immediate
/// resubmission of a failed job, no timeout).
fn parse_ft_config(args: &[String]) -> Result<FtConfig, String> {
    fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
        flag_value(args, flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} needs a valid number, got `{v}`"))
            })
            .transpose()
    }

    let defaults = FtConfig::default();
    let max_retries: u32 =
        parsed(args, "--max-retries")?.unwrap_or(defaults.default.retry.max_retries());
    let base_delay: f64 = parsed(args, "--retry-base")?.unwrap_or(10.0);
    let factor: f64 = parsed(args, "--retry-factor")?.unwrap_or(2.0);
    let max_delay: f64 = parsed(args, "--retry-max-delay")?.unwrap_or(300.0);
    let retry = match flag_value(args, "--retry-policy").unwrap_or("fixed") {
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

    let timeout_secs: Option<f64> = parsed(args, "--timeout")?;
    let timeout = if args.iter().any(|a| a == "--adaptive-timeout") {
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

    let max_replicas: u32 = parsed(args, "--max-replicas")?.unwrap_or(1);
    let on_timeout = match flag_value(args, "--on-timeout").unwrap_or("resubmit") {
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
        .with_continue_on_error(args.iter().any(|a| a == "--continue-on-error"));
    if let Some(threshold) = parsed::<u32>(args, "--blacklist-after")? {
        ft = ft.with_ce_blacklist(threshold);
    }
    Ok(ft)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (Some(wf_path), Some(data_path)) = (args.first(), args.get(1)) else {
        return fail("run needs a workflow file and an input data file");
    };
    let wf = match load_workflow(wf_path) {
        Ok(wf) => wf,
        Err(e) => return fail(e),
    };
    let inputs = match std::fs::read_to_string(data_path)
        .map_err(|e| format!("reading {data_path}: {e}"))
        .and_then(|t| parse_input_data(&t).map_err(|e| e.to_string()))
    {
        Ok(d) => d,
        Err(e) => return fail(e),
    };

    let label = flag_value(args, "--config").unwrap_or("sp+dp");
    let Some(mut config) = EnactorConfig::preset(label) else {
        return fail(format!("unknown config `{label}`"));
    };
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2006);
    config = config.with_seed(seed);
    if let Some(batch) = flag_value(args, "--batch").and_then(|v| v.parse().ok()) {
        config = config.with_batching(batch);
    }
    if args.iter().any(|a| a == "--no-verify") {
        config = config.without_preflight();
    }
    let config_name = flag_value(args, "--config").unwrap_or("sp+dp");
    if let Some(factor) = flag_value(args, "--slo") {
        let Ok(factor) = factor.parse::<f64>() else {
            return fail("--slo needs a number (multiple of the predicted makespan)");
        };
        // Objective = the paper's eq. 1–4 makespan for this campaign
        // size, scaled by the tolerated burn factor.
        let n_data = wf
            .sources()
            .iter()
            .map(|&p| {
                inputs
                    .get(&wf.processors[p.0].name)
                    .map_or(0, <[moteur_repro::moteur::DataValue]>::len)
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let prediction = match predict(&wf, n_data, 0.0) {
            Ok(p) => p,
            Err(e) => return fail(format!("--slo: {}", e.message())),
        };
        let Some(row) = prediction.row(config_name) else {
            return fail(format!("--slo: no prediction for config `{config_name}`"));
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
    }
    let grid = match flag_value(args, "--grid").unwrap_or("egee") {
        "egee" => GridConfig::egee_2006(),
        "ideal" => GridConfig::ideal(),
        other => return fail(format!("unknown grid `{other}`")),
    };
    let cache_dir = flag_value(args, "--cache-dir");
    let fetch_cost: Option<f64> = match flag_value(args, "--fetch-cost").map(str::parse).transpose()
    {
        Ok(v) => v,
        Err(_) => return fail("--fetch-cost needs a number (seconds)"),
    };
    if fetch_cost.is_some() && cache_dir.is_none() {
        return fail("--fetch-cost requires --cache-dir");
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
            match DataStore::open(dir, store_config) {
                Ok(s) => Some(s),
                Err(e) => return fail(e),
            }
        }
        None => None,
    };

    // Observability sinks are only attached when a flag asks for them, so
    // a plain `moteur run` keeps the zero-overhead no-op path.
    let events_path = flag_value(args, "--events");
    let metrics_path = flag_value(args, "--metrics");
    let chrome_path = flag_value(args, "--chrome-trace");
    let openmetrics_path = flag_value(args, "--openmetrics");
    let spans_path = flag_value(args, "--spans");
    let mut sinks: Vec<Box<dyn EventSink>> = Vec::new();
    if let Some(path) = events_path {
        match JsonlSink::create(path) {
            Ok(sink) => sinks.push(Box::new(sink)),
            Err(e) => return fail(format!("creating {path}: {e}")),
        }
    }
    let metrics = if metrics_path.is_some() || chrome_path.is_some() || openmetrics_path.is_some() {
        let (sink, registry) = MetricsSink::new();
        sinks.push(Box::new(sink));
        Some(registry)
    } else {
        None
    };
    let spans = if spans_path.is_some() || openmetrics_path.is_some() {
        let (sink, buffer) = SpanSink::new();
        sinks.push(Box::new(sink));
        Some(buffer)
    } else {
        None
    };
    let timeline_path = flag_value(args, "--timeline");
    let timeline_csv_path = flag_value(args, "--timeline-csv");
    let timeline = if timeline_path.is_some()
        || timeline_csv_path.is_some()
        || flag_value(args, "--slo").is_some()
    {
        let sink = TimelineSink::new();
        let state = sink.state();
        sinks.push(Box::new(sink));
        Some(state)
    } else {
        None
    };
    let profile_path = flag_value(args, "--profile");
    let profile_collapsed_path = flag_value(args, "--profile-collapsed");
    let prof = if profile_path.is_some() || profile_collapsed_path.is_some() {
        Prof::enabled()
    } else {
        Prof::off()
    };
    let obs = Obs::new(sinks).with_prof(prof.clone());

    eprintln!(
        "enacting `{}` [{}] on the {} grid (seed {seed})...",
        wf.name,
        config.label(),
        flag_value(args, "--grid").unwrap_or("egee")
    );
    let ft = match parse_ft_config(args) {
        Ok(ft) => ft,
        Err(e) => return fail(e),
    };
    let mut backend = SimBackend::with_obs(grid, seed, &obs);
    let enactment = Enactment::new(&wf, &inputs, config)
        .ft(&ft)
        .obs(obs.clone())
        .store(store.as_mut());
    let result = match enactment.run(&mut backend) {
        Ok(r) => r,
        Err(e) if e.is_lint() => {
            return fail(format!(
                "{e}\n  run `moteur lint {wf_path}` for details, or `--no-verify` to enact anyway"
            ))
        }
        Err(e) => return fail(e),
    };
    if let Err(e) = obs.flush() {
        return fail(format!("flushing event sinks: {e}"));
    }
    if let Some(s) = &store {
        if let Err(e) = s.save() {
            return fail(format!("saving cache: {e}"));
        }
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
    if args.iter().any(|a| a == "--report") {
        println!();
        print!("{}", render_report(&result));
    }
    if let Some(path) = flag_value(args, "--provenance") {
        match std::fs::write(path, export_provenance(&result)) {
            Ok(()) => println!("provenance written to {path}"),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if let Some(path) = events_path {
        println!("events written to {path}");
    }
    if let Some(path) = metrics_path {
        let registry = metrics.as_ref().expect("metrics sink installed");
        let json = registry.lock().expect("metrics registry").to_json();
        match std::fs::write(path, json) {
            Ok(()) => println!("metrics written to {path}"),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if let Some(path) = chrome_path {
        let registry = metrics.as_ref().expect("metrics sink installed");
        let guard = registry.lock().expect("metrics registry");
        let json = chrome_trace_with_metrics(&result, Some(&guard));
        drop(guard);
        match std::fs::write(path, json) {
            Ok(()) => println!("chrome trace written to {path} (load in ui.perfetto.dev)"),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if let Some(path) = spans_path {
        let tree = spans.as_ref().expect("span sink installed").snapshot();
        match std::fs::write(path, tree.to_jsonl()) {
            Ok(()) => println!("spans written to {path} ({} spans)", tree.len()),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if let Some(path) = openmetrics_path {
        let registry = metrics.as_ref().expect("metrics sink installed");
        let tree = spans.as_ref().expect("span sink installed").snapshot();
        let guard = registry.lock().expect("metrics registry");
        let prof_report = prof.is_enabled().then(|| prof.report());
        let text = render_openmetrics_with_prof(&guard, Some(&tree), prof_report.as_ref());
        drop(guard);
        match std::fs::write(path, text) {
            Ok(()) => println!("openmetrics written to {path}"),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if prof.is_enabled() {
        let report = prof.report();
        if let Some(path) = profile_path {
            match std::fs::write(path, prof_to_json(&report)) {
                Ok(()) => println!("profile written to {path}"),
                Err(e) => return fail(format!("writing {path}: {e}")),
            }
        }
        if let Some(path) = profile_collapsed_path {
            match std::fs::write(path, report.render_collapsed()) {
                Ok(()) => println!("collapsed stacks written to {path}"),
                Err(e) => return fail(format!("writing {path}: {e}")),
            }
        }
        eprint!("{}", report.render_table());
    }
    if let Some(state) = &timeline {
        let state = state.lock().expect("timeline state");
        if let Some(path) = timeline_path {
            match std::fs::write(path, state.timeline.to_json()) {
                Ok(()) => println!("timeline written to {path}"),
                Err(e) => return fail(format!("writing {path}: {e}")),
            }
        }
        if let Some(path) = timeline_csv_path {
            match std::fs::write(path, state.timeline.to_csv()) {
                Ok(()) => println!("timeline csv written to {path}"),
                Err(e) => return fail(format!("writing {path}: {e}")),
            }
        }
        println!();
        print!("{}", detect_bottlenecks(&state.stats).render());
    }
    if args.iter().any(|a| a == "--critical-path") {
        println!();
        print!("{}", render_critical_path(&critical_path(&result)));
    }
    if args.iter().any(|a| a == "--diagram") {
        let names: Vec<&str> = wf
            .processors
            .iter()
            .filter(|p| p.kind == moteur_repro::moteur::ProcessorKind::Service)
            .map(|p| p.name.as_str())
            .collect();
        println!();
        print!("{}", diagram::render(&result.invocations, &names));
    }
    // Round-trip sanity so `moteur run` doubles as a format checker.
    if write_workflow(&wf).is_err() {
        eprintln!("note: workflow contains bindings with no XML form");
    }
    let report = result.report();
    if !report.ok() {
        println!();
        print!("{}", report.render());
    }
    if let Some(path) = flag_value(args, "--workflow-report") {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("workflow report written to {path}"),
            Err(e) => return fail(format!("writing {path}: {e}")),
        }
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        // Degraded run: results were delivered but items are missing.
        ExitCode::FAILURE
    }
}
