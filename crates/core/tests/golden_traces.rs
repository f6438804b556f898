//! Golden trace digests: length + FNV-1a 64 of the full JSONL event
//! stream (or protocol response stream) of a fixed set of seeded runs,
//! of the documents the standard sinks derive from four of those
//! streams, of what the invocation-record readers (report, critical
//! path, Chrome trace, diagram) render for the same four runs, and of
//! every job plan four grid runs hand their backend (command lines,
//! stage-ins, registrations, compute seconds), committed in
//! `tests/golden/trace_digests.txt`. A refactor
//! of the enactor or of a sink must leave every line of that file
//! untouched; regenerate only for an intended behaviour change with
//! `MOTEUR_BLESS=1 cargo test -p moteur --test golden_traces` (same
//! convention as `tests/golden/chrome_trace.json`). Every event line is
//! also compared with the former line writer's
//! (`support/event_line_oracle.rs`), and with what a `JsonlSink` on the
//! same run streamed.

#[path = "support/event_line_oracle.rs"]
mod event_line_oracle;

use event_line_oracle::OracleLine;
use moteur::obs::json::JsonValue;
use moteur::prelude::*;
use moteur::{
    chrome_trace_with_metrics, critical_path, detect_bottlenecks, diagram, render_critical_path,
    render_openmetrics_with_prof, render_report, serve, BackendJob, Daemon, DaemonConfig, Fnv1a,
    InvocationId, InvocationRecord, JobPayload, JsonlSink, MetricsSink, RecordSink, RingBufferSink,
    SloConfig, SpanSink, TimelineSink, WaitOutcome,
};
use moteur_gridsim::{GridConfig, SimTime};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const BRONZE_XML: &str = include_str!("../../../examples/workflows/bronze-standard.xml");
const IMAGE_BYTES: u64 = 7_864_320;

/// Every `TraceEvent::kind()` tag; the golden streams together must
/// exercise each of them.
const KINDS: [&str; 29] = [
    "token_emitted",
    "match_fired",
    "group_composed",
    "barrier_released",
    "job_submitted",
    "job_resubmitted",
    "job_completed",
    "job_failed",
    "job_timed_out",
    "job_replicated",
    "job_cancelled",
    "ce_blacklisted",
    "cache_hit",
    "cache_miss",
    "edge_staged",
    "grid_submitted",
    "grid_matched",
    "grid_enqueued",
    "grid_started",
    "grid_finished",
    "grid_resubmitted",
    "grid_delivered",
    "grid_cancelled",
    "ce_capacity",
    "grid_link_transfer",
    "enactor_gauges",
    "port_suspended",
    "port_resumed",
    "slo_breached",
];

/// Suffixes of the derived-document lines, in [`Observed::derived`]
/// order.
const DERIVED: [&str; 6] = [
    "metrics",
    "openmetrics",
    "spans",
    "timeline_json",
    "timeline_csv",
    "bottlenecks",
];

fn digest_line(name: &str, stream: &str) -> String {
    let mut hash = Fnv1a::new();
    hash.write(stream.as_bytes());
    format!("{name} len={} fnv1a={:016x}\n", stream.len(), hash.finish())
}

/// The JSONL event stream of a run plus the documents the metrics,
/// span and timeline sinks derived from it (one per [`DERIVED`] name),
/// and what the readers of its invocation records render.
struct Observed {
    stream: String,
    derived: [String; 6],
    records: String,
}

impl Observed {
    /// Two runs back to back: each stream and each document appended.
    fn then(mut self, next: Observed) -> Observed {
        self.stream += &next.stream;
        for (doc, more) in self.derived.iter_mut().zip(next.derived) {
            *doc += &more;
        }
        self.records += &next.records;
        self
    }

    /// One digest line per derived document, named `<name>.<suffix>`.
    fn derived_lines(&self, name: &str) -> String {
        DERIVED
            .iter()
            .zip(&self.derived)
            .map(|(suffix, doc)| digest_line(&format!("{name}.{suffix}"), doc))
            .collect()
    }
}

/// The report, critical path, Chrome trace and execution diagram of a
/// run's invocation records, concatenated; the diagram's rows are the
/// processors in order of first completion.
fn records_doc(records: &[InvocationRecord], result: &WorkflowResult) -> String {
    let mut processors: Vec<&str> = Vec::new();
    for r in records {
        if !processors.contains(&r.processor.as_str()) {
            processors.push(&r.processor);
        }
    }
    render_report(records, result.makespan, result.jobs_submitted)
        + &render_critical_path(&critical_path(records, result.makespan))
        + &chrome_trace_with_metrics(records, None)
        + &diagram::render(records, &processors)
}

/// A writer whose bytes the test reads back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("shared bytes").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `enact` with a capturing sink, a JSONL sink, the three standard
/// deriving sinks and a record sink attached, and return what they
/// recorded.
fn observe(enact: impl FnOnce(Obs) -> WorkflowResult) -> Observed {
    let (sink, buffer) = RingBufferSink::new(1_000_000);
    let written = Shared::default();
    let (metrics, registry) = MetricsSink::new();
    let (spans, tree) = SpanSink::new();
    let timeline = TimelineSink::new();
    let state = timeline.state();
    let (records_sink, records) = RecordSink::new();
    let obs = Obs::new(vec![
        Box::new(sink),
        Box::new(JsonlSink::new(Box::new(written.clone()))),
        Box::new(metrics),
        Box::new(spans),
        Box::new(timeline),
        Box::new(records_sink),
    ]);
    let result = enact(obs.clone());
    obs.flush().expect("in-memory writer");
    assert_eq!(buffer.dropped(), 0, "ring buffer must not wrap");
    let stream: String = buffer
        .snapshot()
        .iter()
        .map(|e| {
            let line = e.to_json();
            assert_eq!(line, e.oracle_line(), "the former writer's bytes");
            line + "\n"
        })
        .collect();
    let written = written.0.lock().expect("shared bytes");
    assert!(
        *written == stream.as_bytes(),
        "the JSONL sink streams the events' lines"
    );
    let registry = registry.lock().expect("metrics registry");
    let tree = tree.snapshot();
    let state = state.lock().expect("timeline state");
    Observed {
        stream,
        derived: [
            registry.to_json(),
            render_openmetrics_with_prof(&registry, Some(&tree), None),
            tree.to_jsonl(),
            state.timeline.to_json(),
            state.timeline.to_csv(),
            detect_bottlenecks(&state.stats).to_json(),
        ],
        records: records_doc(&records.snapshot(), &result),
    }
}

/// The JSONL event stream of `enact`.
fn jsonl(enact: impl FnOnce(Obs) -> WorkflowResult) -> String {
    observe(enact).stream
}

fn bronze() -> Workflow {
    moteur_scufl::parse_workflow(BRONZE_XML).expect("bronze-standard.xml parses")
}

fn bronze_inputs(n_pairs: usize) -> InputData {
    let imgs = |prefix: &str| -> Vec<DataValue> {
        (0..n_pairs)
            .map(|j| DataValue::File {
                gfn: format!("gfn://lacassagne/{prefix}{j:03}.hdr"),
                bytes: IMAGE_BYTES,
            })
            .collect()
    };
    InputData::new()
        .set("referenceImage", imgs("ref"))
        .set("floatingImage", imgs("float"))
        .set(
            "methodToTest",
            vec![DataValue::File {
                gfn: "gfn://lacassagne/method.txt".into(),
                bytes: 64,
            }],
        )
}

/// A [`SimBackend`] that writes down every job it is handed, in
/// submission order: processor and invocation tag, then for a grid job
/// its compute seconds (as bits), command lines, stage-ins and
/// registrations with their sizes.
struct PlanLog<'a> {
    inner: SimBackend,
    log: &'a mut String,
}

impl Backend for PlanLog<'_> {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        let _ = writeln!(self.log, "{} {}", job.processor, job.invocation.0);
        if let JobPayload::Grid {
            plan,
            compute_seconds,
        } = &job.payload
        {
            let _ = writeln!(self.log, "compute {:016x}", compute_seconds.to_bits());
            let plan = plan.render();
            for line in &plan.command_lines {
                let _ = writeln!(self.log, "$ {line}");
            }
            for f in &plan.fetch {
                let _ = writeln!(self.log, "< {} {}", f.name, f.bytes);
            }
            for f in &plan.store {
                let _ = writeln!(self.log, "> {} {}", f.name, f.bytes);
            }
        }
        self.inner.submit(job)
    }
    fn wait(&mut self, deadline: Option<SimTime>) -> WaitOutcome {
        self.inner.wait(deadline)
    }
    fn cancel(&mut self, invocation: InvocationId) -> bool {
        self.inner.cancel(invocation)
    }
    fn blacklist_ce(&mut self, ce: usize, blocked: bool) {
        self.inner.blacklist_ce(ce, blocked);
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

/// Bronze-Standard on the 2006 EGEE grid model under `config`, and the
/// plans its jobs carried.
fn bronze_on_egee(config: EnactorConfig, n_pairs: usize) -> (Observed, String) {
    let mut plans = String::new();
    let observed = observe(|obs| {
        let mut backend = PlanLog {
            inner: SimBackend::with_obs(GridConfig::egee_2006(), config.seed, &obs),
            log: &mut plans,
        };
        Enactment::new(&bronze(), &bronze_inputs(n_pairs), config)
            .obs(obs)
            .run(&mut backend)
            .expect("bronze completes")
    });
    (observed, plans)
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn negate(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(-x))])
}

/// nums → double → negate → sink over 100 items at the given capacity
/// (`None` → the default configuration).
fn chain(capacity: Option<usize>) -> String {
    let mut wf = Workflow::new("chain");
    let src = wf.add_source("nums");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let n = wf.add_service("negate", &["in"], &["out"], ServiceBinding::local(negate));
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", d, "in").unwrap();
    wf.connect(d, "out", n, "in").unwrap();
    wf.connect(n, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "nums",
        (0..100).map(|i| DataValue::from(i as f64)).collect(),
    );
    let mut config = EnactorConfig::sp_dp();
    if let Some(cap) = capacity {
        config = config.with_port_capacity(cap);
    }
    let stream = jsonl(|obs| {
        let mut backend = VirtualBackend::new();
        Enactment::new(&wf, &inputs, config)
            .obs(obs)
            .run(&mut backend)
            .expect("chain completes")
    });
    assert_eq!(
        stream.contains("port_suspended") && stream.contains("port_resumed"),
        capacity.is_some(),
        "bounded chains suspend and resume; the default never does"
    );
    stream
}

fn descriptor(name: &str) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: vec![InputSlot {
            name: "in".into(),
            option: "-in".into(),
            access: Some(AccessMethod::Gfn),
            bytes: None,
        }],
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-out".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: false,
    }
}

/// The `fault_tolerance.rs` outlier scenario — 11 fast jobs and one
/// 1000 s outlier — under a percentile-adaptive timeout that
/// replicates, then mutes: samples accrue, the deadline tightens over
/// the running outlier, a replica races it.
fn adaptive_timeout_with_replication() -> Observed {
    let mut wf = Workflow::new("outlier");
    let src = wf.add_source("s");
    let cost = CostModel::by_index(|idx| {
        if idx.0[0] == 0 {
            1000.0
        } else {
            10.0 + f64::from(idx.0[0])
        }
    });
    let p = wf.add_service(
        "job",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(descriptor("job"), ServiceProfile::new(0.0).with_cost(cost)),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", p, "in").unwrap();
    wf.connect(p, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "s",
        (0..12)
            .map(|j| DataValue::File {
                gfn: format!("gfn://in/{j}"),
                bytes: 1000,
            })
            .collect(),
    );
    let ft = FtConfig::from_legacy(1).with_default(FtPolicy {
        retry: RetryPolicy::Fixed { max_retries: 1 },
        timeout: TimeoutPolicy::Adaptive {
            percentile: 0.5,
            multiplier: 3.0,
            min_samples: 4,
            fallback: f64::INFINITY,
        },
        on_timeout: TimeoutAction::Replicate { max_replicas: 2 },
    });
    let observed = observe(|obs| {
        let mut backend = VirtualBackend::new();
        Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
            .ft(&ft)
            .obs(obs)
            .run(&mut backend)
            .expect("the outlier eventually completes")
    });
    for kind in ["job_timed_out", "job_replicated", "job_cancelled"] {
        assert!(
            observed.stream.contains(kind),
            "scenario must exercise {kind}"
        );
    }
    observed
}

/// A store-backed enactment, cold then warm over one in-memory store:
/// the second stream is all cache hits.
fn cached_cold_then_warm() -> Observed {
    let mut store = DataStore::in_memory(StoreConfig::default());
    let config = EnactorConfig::sp_dp_jg().with_seed(5);
    let pass = |store: &mut DataStore| {
        observe(|obs| {
            let mut backend = SimBackend::with_obs(GridConfig::ideal(), 5, &obs);
            Enactment::new(&bronze(), &bronze_inputs(6), config)
                .obs(obs)
                .store(Some(store))
                .run(&mut backend)
                .expect("cached bronze completes")
        })
    };
    let cold = pass(&mut store);
    let warm = pass(&mut store);
    assert!(warm.stream.contains("cache_hit"), "the warm pass replays");
    cold.then(warm)
}

/// The five-service critical path of the Bronze Standard (crestLines →
/// … → MultiTransfoTest), every stage descriptor-bound.
fn bronze_chain() -> Workflow {
    let mut wf = Workflow::new("bronze-chain");
    let mut prev = wf.add_source("images");
    for (name, compute) in [
        ("crestLines", 90.0),
        ("crestMatch", 35.0),
        ("PFMatchICP", 60.0),
        ("PFRegister", 25.0),
        ("MultiTransfoTest", 120.0),
    ] {
        let profile = ServiceProfile::new(compute).with_output_bytes("out", 2048);
        let stage = wf.add_service(
            name,
            &["in"],
            &["out"],
            ServiceBinding::descriptor(descriptor(name), profile),
        );
        wf.connect(prev, "out", stage, "in").unwrap();
        prev = stage;
    }
    let sink = wf.add_sink("accuracy");
    wf.connect(prev, "out", sink, "in").unwrap();
    wf
}

fn chain_images(n: usize) -> InputData {
    InputData::new().set(
        "images",
        (0..n)
            .map(|j| DataValue::File {
                gfn: format!("gfn://lacassagne/pair{j:03}.hdr"),
                bytes: IMAGE_BYTES,
            })
            .collect(),
    )
}

/// The Bronze chain, three invocations per grid job, against a store a
/// run over the first half of the images left behind: memoized members
/// leave their batch and are replayed as individual fetches (the second
/// batch of the first stage is two hits and a miss), the misses travel
/// as one grid job.
fn batched_half_warm_store() -> String {
    let config = EnactorConfig::sp_dp().with_seed(9).with_batching(3);
    let mut store = DataStore::in_memory(StoreConfig::default());
    let mut pass = |n: usize| {
        jsonl(|obs| {
            let mut backend = SimBackend::with_obs(GridConfig::egee_2006(), 9, &obs);
            Enactment::new(&bronze_chain(), &chain_images(n), config)
                .obs(obs)
                .store(Some(&mut store))
                .run(&mut backend)
                .expect("batched chain completes")
        })
    };
    pass(5);
    let stream = pass(10);
    for trace in ["cache_hit", "cache_miss", "\"batched\":3", "\"batched\":1"] {
        assert!(stream.contains(trace), "scenario must exercise {trace}");
    }
    stream
}

/// The Bronze chain on a grid that fails a quarter of its jobs, under
/// exponential backoff plus a fixed timeout that resubmits: failed
/// attempts wait in the backoff queue and come back under their own
/// tag, timed-out attempts are cancelled and relaunched under a fresh
/// one. The plans of every attempt come back beside the observation.
fn backoff_then_timeout_resubmit() -> (Observed, String) {
    let mut grid = GridConfig::egee_2006();
    grid.failure_probability = 0.25;
    grid.max_retries = 0; // every failure reaches the enactor
    let ft = FtConfig::from_legacy(0)
        .with_default(FtPolicy {
            retry: RetryPolicy::ExponentialBackoff {
                max_retries: 4,
                base_delay: 30.0,
                factor: 2.0,
                max_delay: 300.0,
            },
            timeout: TimeoutPolicy::Fixed { seconds: 900.0 },
            on_timeout: TimeoutAction::Resubmit,
        })
        .with_continue_on_error(true);
    let config = EnactorConfig::sp_dp().with_seed(13);
    let mut plans = String::new();
    let observed = observe(|obs| {
        let mut backend = PlanLog {
            inner: SimBackend::with_obs(grid, 13, &obs),
            log: &mut plans,
        };
        Enactment::new(&bronze_chain(), &chain_images(12), config)
            .ft(&ft)
            .obs(obs)
            .run(&mut backend)
            .expect("degrades instead of aborting")
    });
    let resubmits: Vec<JsonValue> = observed
        .stream
        .lines()
        .filter(|l| l.contains("\"job_resubmitted\""))
        .map(|l| JsonValue::parse(l).expect("events are JSON"))
        .collect();
    let same_tag = |e: &JsonValue| e.u64_at("attempt") == e.u64_at("invocation");
    assert!(
        resubmits.iter().any(same_tag),
        "a backoff deferral came due and reused its tag"
    );
    assert!(
        !resubmits.iter().all(same_tag),
        "a timeout relaunched under a fresh tag"
    );
    assert!(observed.stream.contains("\"action\":\"resubmit\""));
    (observed, plans)
}

/// The Bronze chain on a grid that fails a quarter of its jobs, with
/// CE blacklisting after two consecutive failures and an SLO the run
/// cannot meet: the only scenario that blacklists a CE and breaches.
fn blacklist_and_slo_breach() -> String {
    let mut grid = GridConfig::egee_2006();
    grid.failure_probability = 0.25;
    grid.max_retries = 0;
    let ft = FtConfig::from_legacy(3)
        .with_ce_blacklist(2)
        .with_continue_on_error(true);
    let config = EnactorConfig::sp_dp().with_seed(17).with_slo(SloConfig {
        predicted_makespan_secs: 600.0,
        factor: 1.5,
        expected_jobs: 60,
    });
    let stream = jsonl(|obs| {
        let mut backend = SimBackend::with_obs(grid, 17, &obs);
        Enactment::new(&bronze_chain(), &chain_images(12), config)
            .ft(&ft)
            .obs(obs)
            .run(&mut backend)
            .expect("degrades instead of aborting")
    });
    for kind in ["ce_blacklisted", "slo_breached"] {
        assert!(stream.contains(kind), "scenario must exercise {kind}");
    }
    stream
}

/// Four tenants submit one workflow each (distinct stream lengths),
/// the daemon drains, and every `status` plus the final `metrics`
/// response is part of the golden stream.
fn daemon_wave() -> String {
    let workflow = r#"<scufl name="tiny">
  <source name="s" bytes="64"/>
  <processor name="p" compute="5">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="10"/>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="p:in"/>
  <link from="p:out" to="k:in"/>
</scufl>"#;
    let esc = |s: &str| s.replace('"', "\\\"").replace('\n', "\\n");
    let mut session = String::new();
    for (t, tenant) in ["alice", "bob", "carol", "dave"].iter().enumerate() {
        let items: String = (0..3 + 2 * t)
            .map(|j| format!(r#"<item type="file" gfn="gfn://x/i{j}" bytes="64"/>"#))
            .collect();
        let inputs = format!(r#"<inputdata><input name="s">{items}</input></inputdata>"#);
        session.push_str(&format!(
            "{{\"schema\":\"moteur/daemon/v1\",\"op\":\"submit\",\"tenant\":\"{tenant}\",\"workflow\":\"{}\",\"inputs\":\"{}\"}}\n",
            esc(workflow),
            esc(&inputs)
        ));
    }
    session.push_str("{\"schema\":\"moteur/daemon/v1\",\"op\":\"metrics\"}\n");
    session.push_str("{\"schema\":\"moteur/daemon/v1\",\"op\":\"drain\"}\n");
    for id in 1..=4 {
        session.push_str(&format!(
            "{{\"schema\":\"moteur/daemon/v1\",\"op\":\"status\",\"id\":{id}}}\n"
        ));
    }
    session.push_str("{\"schema\":\"moteur/daemon/v1\",\"op\":\"metrics\"}\n");
    session.push_str("{\"schema\":\"moteur/daemon/v1\",\"op\":\"shutdown\"}\n");
    let mut daemon = Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        moteur_scufl::parse_submission,
        DaemonConfig::default(),
    );
    let mut out = Vec::new();
    serve(&mut daemon, session.as_bytes(), &mut out).expect("in-memory io");
    let out = String::from_utf8(out).expect("responses are utf-8");
    assert_eq!(
        out.matches(r#""state":"succeeded""#).count(),
        4,
        "all four tenants finish: {out}"
    );
    out
}

#[test]
fn trace_digests_match_the_committed_goldens() {
    let (bronze_jg, jg_plans) = bronze_on_egee(EnactorConfig::sp_dp_jg().with_seed(11), 12);
    let (bronze_batch, batch_plans) =
        bronze_on_egee(EnactorConfig::sp_dp().with_seed(7).with_batching(3), 12);
    let (bronze_nop, nop_plans) = bronze_on_egee(EnactorConfig::nop().with_seed(3), 4);
    let adaptive = adaptive_timeout_with_replication();
    let cached = cached_cold_then_warm();
    let (backoff, backoff_plans) = backoff_then_timeout_resubmit();
    let streams = [
        ("bronze_sp_dp_jg_egee_seed11", bronze_jg.stream.clone()),
        ("bronze_sp_dp_batch3_egee_seed7", bronze_batch.stream),
        ("bronze_nop_egee_seed3", bronze_nop.stream),
        ("chain_default", chain(None)),
        ("chain_capacity_1", chain(Some(1))),
        ("chain_capacity_4", chain(Some(4))),
        ("chain_capacity_64", chain(Some(64))),
        ("adaptive_timeout_replication", adaptive.stream.clone()),
        ("run_cached_cold_then_warm", cached.stream.clone()),
        ("daemon_wave_4_tenants", daemon_wave()),
        ("batched_half_warm_store", batched_half_warm_store()),
        ("backoff_then_timeout_resubmit", backoff.stream.clone()),
        ("blacklist_and_slo_breach", blacklist_and_slo_breach()),
    ];
    let mut actual: String = streams
        .iter()
        .map(|(name, stream)| digest_line(name, stream))
        .collect();
    for (name, observed) in [
        ("bronze_sp_dp_jg_egee_seed11", &bronze_jg),
        ("adaptive_timeout_replication", &adaptive),
        ("run_cached_cold_then_warm", &cached),
        ("backoff_then_timeout_resubmit", &backoff),
    ] {
        actual += &observed.derived_lines(name);
    }
    for (name, observed) in [
        ("bronze_sp_dp_jg_egee_seed11", &bronze_jg),
        ("adaptive_timeout_replication", &adaptive),
        ("run_cached_cold_then_warm", &cached),
        ("backoff_then_timeout_resubmit", &backoff),
    ] {
        actual += &digest_line(&format!("{name}.records"), &observed.records);
    }
    for (name, plans) in [
        ("bronze_sp_dp_jg_egee_seed11", &jg_plans),
        ("bronze_sp_dp_batch3_egee_seed7", &batch_plans),
        ("bronze_nop_egee_seed3", &nop_plans),
        ("backoff_then_timeout_resubmit", &backoff_plans),
    ] {
        assert!(plans.contains("\n$ "), "{name} submits grid jobs");
        actual += &digest_line(&format!("{name}.plans"), plans);
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_digests.txt"
    );
    if std::env::var_os("MOTEUR_BLESS").is_some() {
        std::fs::write(golden_path, &actual).expect("write golden file");
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file committed (regenerate with MOTEUR_BLESS=1)");
    for (got, want) in actual.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "trace changed; if intentional, regenerate with \
             MOTEUR_BLESS=1 cargo test -p moteur --test golden_traces"
        );
    }
    assert_eq!(actual, golden, "golden file has a different set of lines");

    let missing: Vec<&str> = KINDS
        .into_iter()
        .filter(|kind| {
            let tag = format!("\"type\":\"{kind}\"");
            !streams.iter().any(|(_, stream)| stream.contains(&tag))
        })
        .collect();
    assert!(missing.is_empty(), "no golden stream emits {missing:?}");
}
