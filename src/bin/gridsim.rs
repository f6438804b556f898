//! `moteur-gridsim` — drive the grid simulator directly, without the
//! workflow enactor, and expose the same observability surface as
//! `moteur run`: `--emit` offers the rows of `moteur_repro::emit` that
//! need no workflow result.
//!
//! Useful for characterising the simulated infrastructure itself: how
//! big and how variable is the per-job overhead a given grid
//! configuration produces, independent of any workflow structure.
//! `moteur-gridsim --help` prints the flags (derived from the table
//! below).
//!
//! `--emit profile=PATH` enables the deterministic self-profiler: the
//! canonical `moteur/prof/v1` document it writes contains only call and
//! allocation counters, so two runs with identical inputs produce
//! byte-identical files.
//!
//! `--emit timeline=PATH` samples the same virtual-time resource series
//! as `moteur run` (per-CE queue depth/running/utilization, per-link
//! bytes and bandwidth) and prints a bottleneck attribution.

use moteur_repro::cli::{command, text, typed, Args, Command, Flag, Outcome};
use moteur_repro::emit::{self, Emit};
use moteur_repro::gridsim::{summarize, GridConfig, GridJobSpec, GridSim, JobOutcome};
use moteur_repro::moteur::TraceEvent;
use std::process::ExitCode;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    typed("--jobs", "N", "a positive integer", "jobs to submit (default 25)"),
    typed("--compute", "SECS", "a number (seconds)", "compute time of each job (default 120)"),
    typed("--seed", "N", "an integer", "seed of the simulated grid (default 2006)"),
    text("--grid", "NAME", "egee|ideal (default egee)"),
    text("--emit", "KIND=PATH,..", "write the run's outputs, one PATH per KIND"),
];

const ABOUT: &str = "submit N identical jobs to the simulated grid";
static COMMAND: Command =
    command("", "", ABOUT, FLAGS, run).hooks(emit::removed_flag, || emit::help(false));

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    COMMAND.main("moteur-gridsim", &args)
}

fn run(args: &Args) -> Outcome {
    let jobs: usize = args.parsed("--jobs")?.unwrap_or(25);
    let compute: f64 = args.parsed("--compute")?.unwrap_or(120.0);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(2006);
    let grid_name = args.value("--grid").unwrap_or("egee");
    let grid = GridConfig::preset(grid_name)
        .ok_or_else(|| format!("unknown grid `{grid_name}` ({})", GridConfig::PRESETS))?;
    let emit = Emit::parse(args.value("--emit"), false)?;
    let (obs, sinks) = emit.attach()?;

    eprintln!("submitting {jobs} jobs of {compute}s to the {grid_name} grid (seed {seed})...");
    let mut sim = GridSim::new(grid, seed);
    if obs.enabled() {
        let forward = obs.clone();
        sim.set_observer(Box::new(move |e| {
            forward.record(&TraceEvent::from_sim(e));
        }));
    }
    if obs.prof().is_enabled() {
        sim.set_prof(obs.prof().clone());
    }
    sim.reserve_jobs(jobs);
    for i in 0..jobs {
        // Synthesize the enactor-level submission the span/metric
        // layers key item lifecycles on: here each grid job is its own
        // "invocation" of one synthetic service.
        obs.record(&TraceEvent::JobSubmitted {
            at: sim.now(),
            invocation: i as u64,
            processor: "synthetic".to_string(),
            grid: true,
            batched: 1,
        });
        sim.submit(
            GridJobSpec::new(format!("job{i}"), compute)
                .with_tag(i as u64)
                .with_files(vec![7_800_000], vec![400_000]),
        );
    }
    let mut delivered = 0usize;
    while let Some(done) = sim.next_completion() {
        let event = if done.outcome == JobOutcome::Success {
            TraceEvent::JobCompleted {
                at: done.delivered_at,
                invocation: done.tag,
                processor: "synthetic".to_string(),
            }
        } else {
            TraceEvent::JobFailed {
                at: done.delivered_at,
                invocation: done.tag,
                processor: "synthetic".to_string(),
                error: "grid job failed beyond retry budget".to_string(),
            }
        };
        obs.record(&event);
        delivered += 1;
    }
    obs.flush()
        .map_err(|e| format!("flushing event sinks: {e}"))?;

    let summary = summarize(sim.records());
    println!(
        "delivered {delivered}/{jobs} jobs; makespan {:.1}s; {} failures, {} resubmissions",
        summary.makespan_secs, summary.failures, summary.resubmissions
    );
    println!(
        "overhead: mean {:.1}s ± {:.1}s, p50 {:.1}s, p95 {:.1}s, p99 {:.1}s",
        summary.mean_overhead_secs,
        summary.std_overhead_secs,
        summary.p50_overhead_secs,
        summary.p95_overhead_secs,
        summary.p99_overhead_secs,
    );
    println!(
        "mean queue wait {:.1}s, mean compute {:.1}s",
        summary.mean_queue_wait_secs, summary.mean_compute_secs
    );

    emit.write(&sinks, None)?;
    Ok(ExitCode::SUCCESS)
}
