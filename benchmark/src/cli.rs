//! Command line of both binaries.
//!
//! ```text
//! moteur-benchmark --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json contract)
//! moteur-benchmark run   [--seed N] [--seconds S]                  every workload, end-to-end metrics
//! moteur-benchmark trace [--seed N] [--seconds S]                  every workload, per-layer metrics
//! moteur-benchmark agree [--seed N] [--seconds S]                  two untraced sets + one traced; writes results/
//! moteur-benchmark spec                                            print BENCHMARK.json
//! ```

use crate::campaign;
use crate::runner::{self, RunArgs, RunResult};
use crate::spec;
use crate::sut;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: moteur-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       moteur-benchmark <run|trace|agree> [--seed <n>] [--seconds <s>]
       moteur-benchmark spec";

/// Default seed of the campaign modes (the paper's year).
const DEFAULT_SEED: u64 = 2006;

/// `--flag value` pairs after an optional leading mode word.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let raw = self.0.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map(Some)
            .map_err(|_| format!("bad value for {flag}: `{raw}`"))
    }

    fn require<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?.ok_or(format!("missing {flag}"))
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        for pair in self.0.chunks(2) {
            if !known.contains(&pair[0].as_str()) {
                return Err(format!("unknown argument `{}`", pair[0]));
            }
        }
        Ok(())
    }
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let s = flags
        .get::<f64>("--seconds")?
        .unwrap_or(spec::RUN_SECONDS as f64);
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be positive, got {s}"))
    }
}

/// Entry point shared by the two binaries.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moteur-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let campaign_args = |rest: &[String]| -> Result<(u64, f64), String> {
        let flags = Flags(rest);
        flags.check_known(&["--seed", "--seconds"])?;
        Ok((
            flags.get("--seed")?.unwrap_or(DEFAULT_SEED),
            seconds(&flags)?,
        ))
    };
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let (seed, seconds) = campaign_args(&args[1..])?;
            campaign::run_all(seed, seconds, false)
        }
        Some("trace") => {
            let (seed, seconds) = campaign_args(&args[1..])?;
            campaign::run_all(seed, seconds, true)
        }
        Some("agree") => {
            let (seed, seconds) = campaign_args(&args[1..])?;
            campaign::agree(seed, seconds)
        }
        Some(_) => one_run(args),
    }
}

/// The contract mode: one workload, one result line.
fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    flags.check_known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--setup-reps",
    ])?;
    let name: String = flags.require("--workload")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let traced = match flags.require::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    // End-to-end numbers come from the binary without the counting
    // allocator, per-layer numbers from the one with it: hand the run
    // to the other binary of the pair when this is the wrong one.
    if traced != sut::alloc_counter_installed() {
        let exe = runner::sibling_binary(traced)?;
        let status = Command::new(&exe)
            .args(args)
            .status()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        return Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(
                status
                    .code()
                    .and_then(|c| u8::try_from(c).ok())
                    .unwrap_or(1),
            )
        });
    }
    let run = RunArgs {
        workload,
        seed: flags.require("--seed")?,
        seconds: seconds(&flags)?,
        setup_reps: flags.get("--setup-reps")?,
    };
    let (result, metrics) = if traced {
        (runner::run_traced(&run)?, spec::per_layer())
    } else {
        (runner::run_untraced(&run)?, spec::end_to_end())
    };
    print_report(&run, &result, traced);
    if !traced {
        println!("{}", runner::exact_line(&result));
    }
    println!("{}", runner::result_line(&result, &metrics));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Human-readable summary, before the machine-readable last line.
fn print_report(run: &RunArgs, result: &RunResult, traced: bool) {
    let w = run.workload;
    println!(
        "workload {} seed {} ({} {} per op, {} run): {} ops attempted, {} failed",
        w.name,
        run.seed,
        w.size,
        w.item,
        if traced { "traced" } else { "untraced" },
        result.attempted,
        result.failed
    );
    for e in &result.errors {
        println!("  FAILED {e}");
    }
    let value = |name: &str| result.values.get(name).copied().unwrap_or(0.0);
    if traced {
        for m in spec::per_layer() {
            if let Some(v) = result.values.get(&m.name) {
                println!("  {:<44} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        return;
    }
    for m in spec::end_to_end() {
        println!("  {:<20} {:>14.4} {}", m.name, value(&m.name), m.unit);
    }
    println!(
        "  wall_s is the median of {} ops; setup_s the median of {} set-ups",
        value("wall_samples"),
        value("setup_samples")
    );
    if value("submit_samples") > 0.0 {
        println!(
            "  submit_p50_ms {:.4} ms, submit_p90_ms {:.4} ms over {} submits",
            value("submit_p50_ms"),
            value("submit_p90_ms"),
            value("submit_samples")
        );
    }
}
