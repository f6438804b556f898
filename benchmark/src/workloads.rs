//! Set-up, one op and the output check of each workload. The calls into
//! the product live in [`crate::sut`]; this module owns what surrounds
//! them: which files exist, which seed an op gets, what a correct
//! outcome looks like.

use crate::gen::{self, ScriptLine};
use crate::span::Tracer;
use crate::spec::{self, Kind};
use crate::sut;
use std::path::{Path, PathBuf};

/// One row of the product's own profiler, per op.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRow {
    pub subsystem: &'static str,
    pub calls: u64,
    pub wall_ms: f64,
    pub allocs: u64,
}

/// What the four standard sinks saw (`bronze_observed`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observers {
    pub jsonl_lines: u64,
    pub jsonl_bytes: u64,
    pub metrics_jobs_submitted: u64,
    pub spans: u64,
    pub timeline_series: u64,
}

/// What the daemon reported (`daemon_wave`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonFacts {
    pub responses: u64,
    pub responses_ok: u64,
    pub instances: u64,
    pub succeeded: u64,
    /// Parse + apply of each `submit` line, host milliseconds.
    pub submit_ms: Vec<f64>,
    /// Submit-to-first-job of each instance, virtual seconds.
    pub ttfj_s: Vec<f64>,
}

/// Everything one op let the driver observe, in product-neutral terms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// First file read to last product call; checking excluded.
    pub wall_s: f64,
    /// Tokens each workflow sink received, sorted by sink name.
    pub sinks: Vec<(String, u64)>,
    pub grid_jobs: u64,
    pub makespan_s: f64,
    pub store_hits: u64,
    pub store_misses: u64,
    /// `stream_chain`: (source position, value) of sampled sink tokens.
    pub samples: Vec<(usize, f64)>,
    pub observers: Option<Observers>,
    pub daemon: Option<DaemonFacts>,
    /// Filled when the op ran with the product's profiler attached.
    pub prof: Vec<ProfRow>,
}

/// Inputs of one workload at one size, generated from one seed.
#[derive(Debug)]
pub struct Prepared {
    pub kind: Kind,
    pub size: usize,
    pub dir: PathBuf,
    pub workflow: PathBuf,
    pub inputs: PathBuf,
    /// `memo_warm`: the store a cold run populated during set-up.
    pub store: PathBuf,
    pub values: Vec<f64>,
    pub stream: Option<sut::StreamInputs>,
    pub script: Vec<ScriptLine>,
}

/// The benchmark's own directory (`benchmark/` of the checkout that
/// built this binary).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn vendored(name: &str) -> PathBuf {
    bench_dir().join("workloads").join(name)
}

fn io<T>(what: &str, path: &Path, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what} {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    io("writing", path, std::fs::write(path, text))
}

/// Generate and write the inputs of `kind` at `size` into `dir`; for
/// `memo_warm` also populate its store with one checked cold run.
pub fn prepare(kind: Kind, size: usize, seed: u64, dir: &Path) -> Result<Prepared, String> {
    io("creating", dir, std::fs::create_dir_all(dir))?;
    let mut p = Prepared {
        kind,
        size,
        dir: dir.to_path_buf(),
        workflow: PathBuf::new(),
        inputs: dir.join("inputs.xml"),
        store: dir.join("store"),
        values: Vec::new(),
        stream: None,
        script: Vec::new(),
    };
    match kind {
        Kind::BronzeDspJg | Kind::BronzeObserved => {
            p.workflow = vendored("bronze-standard.xml");
            write(&p.inputs, &gen::bronze_inputs_xml(seed, size))?;
        }
        Kind::MemoCold | Kind::MemoWarm => {
            p.workflow = vendored("bronze-chain.xml");
            write(&p.inputs, &gen::chain_inputs_xml(seed, size))?;
            if kind == Kind::MemoWarm {
                let _ = std::fs::remove_dir_all(&p.store);
                let cold = sut::memo_op(&p, &p.store, seed, false, &mut Tracer::off())?;
                check(Kind::MemoCold, &p, &cold)?;
            }
        }
        Kind::StreamChain => {
            p.values = gen::stream_values(seed, size);
            p.stream = Some(sut::StreamInputs::new(&p.values));
        }
        Kind::DaemonWave => {
            p.workflow = vendored("bronze-standard.xml");
            let xml = io("reading", &p.workflow, std::fs::read_to_string(&p.workflow))?;
            p.script = gen::daemon_script(seed, &xml, spec::wave_shape(size));
            let text: String = p.script.iter().map(|l| format!("{}\n", l.text)).collect();
            write(&dir.join("script.ndjson"), &text)?;
        }
    }
    Ok(p)
}

/// One set-up: generate and write the inputs, populate the store where
/// the workload needs one, and run one untimed, checked warm-up op at a
/// tenth of the size.
pub fn setup(kind: Kind, size: usize, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let _ = std::fs::remove_dir_all(dir);
    let prepared = prepare(kind, size, seed, dir)?;
    let warm = prepare(
        kind,
        (size / spec::WARMUP_DIVISOR).max(1),
        seed,
        &dir.join("warmup"),
    )?;
    let seen = op(&warm, seed, 0, false, &mut Tracer::off())?;
    check(kind, &warm, &seen)?;
    Ok(prepared)
}

/// One op of the workload. `rep` only names scratch directories.
pub fn op(
    p: &Prepared,
    seed: u64,
    rep: usize,
    profile: bool,
    tracer: &mut Tracer,
) -> Result<Observed, String> {
    match p.kind {
        Kind::BronzeDspJg => sut::bronze_op(p, seed, false, profile, tracer),
        Kind::BronzeObserved => sut::bronze_op(p, seed, true, profile, tracer),
        Kind::StreamChain => sut::stream_op(p, seed, profile, tracer),
        Kind::MemoCold => {
            let store = p.dir.join(format!("cold-{rep}"));
            let _ = std::fs::remove_dir_all(&store);
            let seen = sut::memo_op(p, &store, seed, profile, tracer);
            let _ = std::fs::remove_dir_all(&store);
            seen
        }
        Kind::MemoWarm => sut::memo_op(p, &p.store, seed, profile, tracer),
        Kind::DaemonWave => sut::daemon_op(p, tracer),
    }
}

/// Services on the bronze chain: grid jobs and store entries per image.
pub const CHAIN_SERVICES: u64 = 5;
/// Grid jobs per image pair of the Bronze Standard under job grouping
/// (§3.6: crestLines+crestMatch and PFMatchICP+PFRegister merge, so 6
/// jobs become 4), plus the one synchronisation job.
pub const BRONZE_GROUPED_JOBS_PER_PAIR: u64 = 4;
/// Σ of the chain's compute times: eqs. 1–4 under sp+dp on the ideal
/// grid give exactly this makespan whatever the number of images.
pub const CHAIN_MAKESPAN_S: f64 = 330.0;
/// Memo-table lookups per `daemon_wave` submission: one per grouped
/// grid job of each of the 12 pairs; the synchronisation job is never
/// looked up. How many of them hit is recorded as an exact count
/// (`store.hits`), not prescribed: it depends on which of the 50
/// documents the seed draws more than once.
pub const WAVE_LOOKUPS_PER_SUBMISSION: u64 = BRONZE_GROUPED_JOBS_PER_PAIR * spec::WAVE_PAIRS as u64;

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Is `seen` what a correct run of `p` produces?
pub fn check(kind: Kind, p: &Prepared, seen: &Observed) -> Result<(), String> {
    let n = p.size as u64;
    let sinks = |want: &[(&str, u64)]| {
        let want: Vec<(String, u64)> = want.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        expect("sink counts", seen.sinks.clone(), want)
    };
    match kind {
        Kind::BronzeDspJg | Kind::BronzeObserved => {
            // MultiTransfoTest is a synchronisation barrier: it fires
            // once over all pairs, so each sink receives one token.
            sinks(&[("accuracy_rotation", 1), ("accuracy_translation", 1)])?;
            expect(
                "grid_jobs",
                seen.grid_jobs,
                BRONZE_GROUPED_JOBS_PER_PAIR * n + 1,
            )?;
            if kind == Kind::BronzeObserved {
                let o = seen.observers.as_ref().ok_or("no sink tallies")?;
                expect(
                    "metrics sink job_submitted",
                    o.metrics_jobs_submitted,
                    seen.grid_jobs,
                )?;
                if o.jsonl_lines < seen.grid_jobs || o.jsonl_bytes == 0 {
                    return Err(format!("JSONL sink wrote {} lines", o.jsonl_lines));
                }
                if o.spans < seen.grid_jobs || o.timeline_series == 0 {
                    return Err(format!(
                        "span sink holds {} spans, timeline {} series",
                        o.spans, o.timeline_series
                    ));
                }
            }
        }
        Kind::StreamChain => {
            sinks(&[("out", n)])?;
            expect("grid_jobs", seen.grid_jobs, 2 * n)?;
            if seen.samples.is_empty() {
                return Err("no sink sample to check".into());
            }
            for &(position, value) in &seen.samples {
                let x = *p
                    .values
                    .get(position)
                    .ok_or(format!("sample from position {position}"))?;
                expect("sampled 2x+1", value, 2.0 * x + 1.0)?;
            }
        }
        Kind::MemoCold => {
            sinks(&[("accuracy", n)])?;
            expect("grid_jobs", seen.grid_jobs, CHAIN_SERVICES * n)?;
            expect("makespan", seen.makespan_s, CHAIN_MAKESPAN_S)?;
            expect("store hits", seen.store_hits, 0)?;
            expect("store misses", seen.store_misses, CHAIN_SERVICES * n)?;
        }
        Kind::MemoWarm => {
            sinks(&[("accuracy", n)])?;
            expect("grid_jobs", seen.grid_jobs, 0)?;
            expect("store hits", seen.store_hits, CHAIN_SERVICES * n)?;
            expect("store misses", seen.store_misses, 0)?;
        }
        Kind::DaemonWave => {
            let d = seen.daemon.as_ref().ok_or("no daemon facts")?;
            expect("responses", d.responses, p.script.len() as u64)?;
            expect("responses with \"ok\":true", d.responses_ok, d.responses)?;
            expect("instances", d.instances, n)?;
            expect("instances succeeded", d.succeeded, n)?;
            expect("submit samples", d.submit_ms.len() as u64, n)?;
            expect("ttfj samples", d.ttfj_s.len() as u64, n)?;
            expect(
                "store lookups",
                seen.store_hits + seen.store_misses,
                WAVE_LOOKUPS_PER_SUBMISSION * n,
            )?;
            // Every miss runs on the grid, plus one barrier job each.
            expect("grid_jobs", seen.grid_jobs, seen.store_misses + n)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(kind: Kind, size: usize) -> Prepared {
        Prepared {
            kind,
            size,
            dir: PathBuf::new(),
            workflow: PathBuf::new(),
            inputs: PathBuf::new(),
            store: PathBuf::new(),
            values: vec![1.0, 2.0, 3.0],
            stream: None,
            script: Vec::new(),
        }
    }

    fn good_cold(n: u64) -> Observed {
        Observed {
            sinks: vec![("accuracy".into(), n)],
            grid_jobs: 5 * n,
            makespan_s: 330.0,
            store_misses: 5 * n,
            ..Observed::default()
        }
    }

    #[test]
    fn a_correct_outcome_passes_and_each_corruption_fails() {
        let p = prepared(Kind::MemoCold, 10);
        assert_eq!(check(Kind::MemoCold, &p, &good_cold(10)), Ok(()));
        let corruptions: [fn(&mut Observed); 4] = [
            |o| o.grid_jobs += 1,
            |o| o.makespan_s = 330.5,
            |o| o.store_hits = 1,
            |o| o.sinks[0].1 -= 1,
        ];
        for corrupt in corruptions {
            let mut o = good_cold(10);
            corrupt(&mut o);
            assert!(check(Kind::MemoCold, &p, &o).is_err(), "{o:?}");
        }
        // The same outcome is wrong for the warm run of the same inputs.
        assert!(check(Kind::MemoWarm, &p, &good_cold(10)).is_err());
    }

    #[test]
    fn stream_samples_are_checked_against_the_generated_values() {
        let p = prepared(Kind::StreamChain, 3);
        let mut o = Observed {
            sinks: vec![("out".into(), 3)],
            grid_jobs: 6,
            samples: vec![(0, 3.0), (2, 7.0)],
            ..Observed::default()
        };
        assert_eq!(check(Kind::StreamChain, &p, &o), Ok(()));
        o.samples[1].1 = 6.0;
        assert!(check(Kind::StreamChain, &p, &o).is_err());
        o.samples.clear();
        assert!(check(Kind::StreamChain, &p, &o).is_err());
    }
}
