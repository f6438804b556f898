//! The system under test, as the benchmark sees it. This is the only
//! file of the benchmark that names product symbols: every other module
//! goes through the functions below, so a rename or an entry-point
//! consolidation in the product is absorbed here (README, "Product
//! surface", lists what must survive or be retargeted).
//!
//! Layers are measured from outside, by timing calls into their public
//! functions; nothing in the product is edited or instrumented for it.

use crate::gen::{self, LineKind};
use crate::probes::{probe, probe_fn, scaling_4x, Sample, Values};
use crate::span::Tracer;
use crate::spec::{self, Kind};
use crate::workloads::{self, DaemonFacts, Observed, Observers, Prepared, ProfRow};
use moteur::lint::JsonValue;
use moteur::obs::timeline::TimelineState;
use moteur::{
    daemon_apply, group_workflow, history_to_xml, invocation_key, lint_workflow, plan_workflow,
    predict, provenance_key, run_fault_tolerant, run_fault_tolerant_cached, run_observed, Backend,
    BackendJob, Daemon, DaemonConfig, DataStore, DataValue, EnactorConfig, EventSink, FtConfig,
    History, HistoryXmlCache, InputData, InstanceState, InvocationId, IterationStrategy,
    JobPayload, JsonlSink, MatchEngine, MetricsRegistry, MetricsSink, MoteurError, Obs,
    PlanOptions, Prof, ProvenanceKey, Request, ServiceBinding, SimBackend, SpanBuffer, SpanSink,
    StoreConfig, TimelineSink, Token, TraceEvent, VirtualBackend, Workflow, WorkflowResult,
};
use moteur_gridsim::{GridConfig, GridJobSpec, GridSim};
use moteur_prof::alloc;
use moteur_scufl::{parse_input_data, parse_workflow, write_workflow};
use moteur_wrapper::{compose_group, Binding, Catalog, ExecutableDescriptor, GroupMember};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Allocation counters (all zero in the untraced binary)
// ---------------------------------------------------------------------

/// The counting allocator the traced binary installs as its global
/// allocator.
pub use moteur_prof::alloc::CountingAlloc;

/// Whether this binary installed the counting allocator.
pub fn alloc_counter_installed() -> bool {
    alloc::installed()
}

/// Allocations since process start.
pub fn allocs() -> u64 {
    alloc::allocs()
}

/// High-water mark of live heap bytes.
pub fn alloc_peak_bytes() -> u64 {
    alloc::peak_bytes()
}

// ---------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------

fn prof_handle(profile: bool) -> Prof {
    if profile {
        Prof::enabled()
    } else {
        Prof::off()
    }
}

fn prof_rows(prof: &Prof) -> Vec<ProfRow> {
    if !prof.is_enabled() {
        return Vec::new();
    }
    prof.report()
        .subsystems
        .iter()
        .map(|s| ProfRow {
            subsystem: s.subsystem.name(),
            calls: s.calls,
            wall_ms: s.wall_nanos as f64 / 1e6,
            allocs: s.allocs,
        })
        .collect()
}

/// The stages every file-based op starts with.
fn read_and_parse(p: &Prepared, t: &mut Tracer) -> Result<(Workflow, InputData), String> {
    let stage = t.enter("read_files");
    let workflow_xml = read(&p.workflow)?;
    let inputs_xml = read(&p.inputs)?;
    t.exit(stage);
    let stage = t.enter("scufl_parse");
    let workflow = parse_workflow(&workflow_xml).map_err(text)?;
    let inputs = parse_input_data(&inputs_xml).map_err(text)?;
    t.exit(stage);
    Ok((workflow, inputs))
}

fn observed(result: &WorkflowResult, wall_s: f64, prof: &Prof) -> Observed {
    let mut sinks: Vec<(String, u64)> = result
        .sink_counts
        .iter()
        .map(|(name, n)| (name.clone(), *n as u64))
        .collect();
    sinks.sort();
    Observed {
        wall_s,
        sinks,
        grid_jobs: result.jobs_submitted as u64,
        makespan_s: result.makespan.as_secs_f64(),
        prof: prof_rows(prof),
        ..Observed::default()
    }
}

/// A writer that only counts, so the JSONL sink does all of its work
/// and no disk is involved.
#[derive(Debug, Clone, Default)]
struct CountingWriter {
    bytes: Arc<AtomicU64>,
    lines: Arc<AtomicU64>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        self.lines.fetch_add(newlines as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Read-side handles of the four standard sinks.
struct SinkTaps {
    jsonl: CountingWriter,
    metrics: Arc<Mutex<MetricsRegistry>>,
    spans: SpanBuffer,
    timeline: Arc<Mutex<TimelineState>>,
}

impl SinkTaps {
    fn tally(&self) -> Observers {
        let timeline = self.timeline.lock().expect("timeline state lock");
        Observers {
            jsonl_lines: self.jsonl.lines.load(Ordering::Relaxed),
            jsonl_bytes: self.jsonl.bytes.load(Ordering::Relaxed),
            metrics_jobs_submitted: self
                .metrics
                .lock()
                .expect("metrics registry lock")
                .counter("job_submitted"),
            spans: self.spans.snapshot().len() as u64,
            timeline_series: timeline.timeline.series().count() as u64,
        }
    }
}

/// The sinks `moteur run --events --metrics --spans --timeline` attaches.
fn standard_sinks() -> (Vec<Box<dyn EventSink>>, SinkTaps) {
    let jsonl = CountingWriter::default();
    let (metrics_sink, metrics) = MetricsSink::new();
    let (span_sink, spans) = SpanSink::new();
    let timeline_sink = TimelineSink::new();
    let taps = SinkTaps {
        jsonl: jsonl.clone(),
        metrics,
        spans,
        timeline: timeline_sink.state(),
    };
    let sinks: Vec<Box<dyn EventSink>> = vec![
        Box::new(JsonlSink::new(Box::new(jsonl))),
        Box::new(metrics_sink),
        Box::new(span_sink),
        Box::new(timeline_sink),
    ];
    (sinks, taps)
}

/// `bronze_dsp_jg` / `bronze_observed`: XML on disk → parse → enact on
/// the EGEE-like grid with every optimisation on.
pub fn bronze_op(
    p: &Prepared,
    seed: u64,
    with_sinks: bool,
    profile: bool,
    t: &mut Tracer,
) -> Result<Observed, String> {
    let prof = prof_handle(profile);
    let start = Instant::now();
    let op = t.enter("op");
    let (workflow, inputs) = read_and_parse(p, t)?;
    let stage = t.enter("enact");
    let (obs, taps) = if with_sinks {
        let (sinks, taps) = standard_sinks();
        (Obs::new(sinks), Some(taps))
    } else {
        (Obs::off(), None)
    };
    let obs = obs.with_prof(prof.clone());
    let mut backend = SimBackend::with_obs(GridConfig::egee_2006(), seed, &obs);
    let result = run_fault_tolerant(
        &workflow,
        &inputs,
        EnactorConfig::sp_dp_jg().with_seed(seed),
        &FtConfig::default(),
        &mut backend,
        obs.clone(),
    )
    .map_err(text)?;
    obs.flush().map_err(text)?;
    t.exit(stage);
    t.exit(op);
    let mut seen = observed(&result, start.elapsed().as_secs_f64(), &prof);
    seen.observers = taps.map(|taps| taps.tally());
    Ok(seen)
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn shift(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x + 1.0))])
}

/// items → double → shift → out: two local services per item.
fn local_chain() -> Workflow {
    let mut wf = Workflow::new("stream-chain");
    let src = wf.add_source("items");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let s = wf.add_service("shift", &["in"], &["out"], ServiceBinding::local(shift));
    let sink = wf.add_sink("out");
    for (from, to) in [(src, d), (d, s), (s, sink)] {
        wf.connect(from, "out", to, "in")
            .expect("the chain's ports exist");
    }
    wf
}

/// The local chain and its materialised input stream. Local services
/// are closures, so this workload has no XML form; the stream exists
/// before enactment starts and is built during set-up.
pub struct StreamInputs {
    workflow: Workflow,
    inputs: InputData,
}

impl StreamInputs {
    pub fn new(values: &[f64]) -> Self {
        StreamInputs {
            workflow: local_chain(),
            inputs: InputData::new().set(
                "items",
                values.iter().map(|&x| DataValue::from(x)).collect(),
            ),
        }
    }
}

impl std::fmt::Debug for StreamInputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamInputs").finish_non_exhaustive()
    }
}

fn enact_chain(
    stream: &StreamInputs,
    seed: u64,
    capacity: Option<usize>,
    prof: &Prof,
) -> Result<WorkflowResult, String> {
    let mut config = EnactorConfig::sp_dp().with_seed(seed);
    if let Some(capacity) = capacity {
        config = config.with_port_capacity(capacity);
    }
    let obs = Obs::off().with_prof(prof.clone());
    run_observed(
        &stream.workflow,
        &stream.inputs,
        config,
        &mut VirtualBackend::new(),
        obs,
    )
    .map_err(text)
}

/// `stream_chain`: the numeric stream through bounded ports.
pub fn stream_op(
    p: &Prepared,
    seed: u64,
    profile: bool,
    t: &mut Tracer,
) -> Result<Observed, String> {
    let stream = p.stream.as_ref().ok_or("stream inputs were not set up")?;
    let prof = prof_handle(profile);
    let start = Instant::now();
    let op = t.enter("op");
    let stage = t.enter("enact");
    let result = enact_chain(stream, seed, Some(spec::STREAM_PORT_CAPACITY), &prof)?;
    t.exit(stage);
    t.exit(op);
    let mut seen = observed(&result, start.elapsed().as_secs_f64(), &prof);
    // Streaming keeps the first `capacity` sink tokens as a sample.
    seen.samples = result
        .sink("out")
        .iter()
        .filter_map(|token| {
            let position = *token.index.0.first()? as usize;
            Some((position, token.value.as_num()?))
        })
        .collect();
    Ok(seen)
}

/// `memo_cold` / `memo_warm`: the bronze chain against an on-disk store
/// on the ideal grid. Cold when `store_dir` is empty, warm when a
/// previous run of the same inputs saved into it.
pub fn memo_op(
    p: &Prepared,
    store_dir: &Path,
    seed: u64,
    profile: bool,
    t: &mut Tracer,
) -> Result<Observed, String> {
    let prof = prof_handle(profile);
    let start = Instant::now();
    let op = t.enter("op");
    let (workflow, inputs) = read_and_parse(p, t)?;
    let stage = t.enter("store_open");
    let mut store = DataStore::open(store_dir, StoreConfig::default()).map_err(text)?;
    t.exit(stage);
    let stage = t.enter("enact");
    let obs = Obs::off().with_prof(prof.clone());
    let mut backend = SimBackend::with_obs(GridConfig::ideal(), seed, &obs);
    let result = run_fault_tolerant_cached(
        &workflow,
        &inputs,
        EnactorConfig::sp_dp().with_seed(seed),
        &FtConfig::default(),
        &mut backend,
        obs,
        &mut store,
    )
    .map_err(text)?;
    t.exit(stage);
    let stage = t.enter("store_save");
    store.save().map_err(text)?;
    t.exit(stage);
    t.exit(op);
    let mut seen = observed(&result, start.elapsed().as_secs_f64(), &prof);
    let stats = store.stats();
    seen.store_hits = stats.hits;
    seen.store_misses = stats.misses;
    Ok(seen)
}

fn scufl_parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    let workflow = parse_workflow(workflow).map_err(|e| MoteurError::new(e.message))?;
    let inputs = parse_input_data(inputs).map_err(|e| MoteurError::new(e.message))?;
    Ok((workflow, inputs))
}

fn new_daemon() -> Daemon {
    Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        scufl_parser,
        DaemonConfig::default(),
    )
}

/// Feed a protocol script to a fresh daemon, line by line, the way
/// `serve` does: parse the request, apply it, keep the response.
fn replay_script(
    script: &[gen::ScriptLine],
    t: &mut Tracer,
) -> Result<(Daemon, Vec<String>, Vec<f64>), String> {
    let mut daemon = new_daemon();
    let mut responses = Vec::with_capacity(script.len());
    let mut submit_ms = Vec::new();
    for line in script {
        let begin = Instant::now();
        let stage = t.enter("protocol_parse");
        let request = Request::parse(&line.text)?;
        t.exit(stage);
        let stage = t.enter(match line.kind {
            LineKind::Submit => "apply_submit",
            LineKind::Status => "apply_status",
            LineKind::Metrics => "apply_metrics",
            LineKind::Drain => "apply_drain",
        });
        responses.push(daemon_apply(&mut daemon, &request));
        t.exit(stage);
        if line.kind == LineKind::Submit {
            submit_ms.push(begin.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((daemon, responses, submit_ms))
}

/// `daemon_wave`: the protocol script against one daemon on the ideal
/// virtual-time backend with a shared in-memory store. The daemon has
/// no profiler hook, so `prof.*` stays empty here.
pub fn daemon_op(p: &Prepared, t: &mut Tracer) -> Result<Observed, String> {
    let start = Instant::now();
    let op = t.enter("op");
    let (daemon, responses, submit_ms) = replay_script(&p.script, t)?;
    t.exit(op);
    let wall_s = start.elapsed().as_secs_f64();

    let instances = daemon.list();
    let stats = daemon.store().stats();
    let makespans: Vec<f64> = instances.iter().filter_map(|s| s.makespan_secs).collect();
    Ok(Observed {
        wall_s,
        grid_jobs: instances.iter().map(|s| s.jobs_submitted as u64).sum(),
        makespan_s: crate::stats::mean(&makespans),
        store_hits: stats.hits,
        store_misses: stats.misses,
        daemon: Some(DaemonFacts {
            responses: responses.len() as u64,
            responses_ok: responses
                .iter()
                .filter(|r| r.contains("\"ok\":true"))
                .count() as u64,
            instances: instances.len() as u64,
            succeeded: instances
                .iter()
                .filter(|s| s.state == InstanceState::Succeeded)
                .count() as u64,
            submit_ms,
            ttfj_s: instances
                .iter()
                .filter_map(|s| Some(s.first_job_at? - s.submitted_at))
                .collect(),
        }),
        ..Observed::default()
    })
}

// ---------------------------------------------------------------------
// Replay probes
// ---------------------------------------------------------------------

fn put(out: &mut Values, name: &str, value: f64) {
    out.insert(name.to_owned(), value);
}

/// Record `<stem>.ns_per_<per>` — the time of one call divided by its
/// `units` — and the allocation count the spec lists for the probe, if
/// any: `<stem>.allocs_per_<per>` (divided likewise) or
/// `<stem>.allocs_per_op` (of one whole call).
fn put_sample(out: &mut Values, stem: &str, per: &str, units: f64, s: Sample) {
    put(out, &format!("{stem}.ns_per_{per}"), s.ns_per_op / units);
    let listed = |name: &str| spec::per_layer().iter().any(|m| m.name == name);
    let per_unit = format!("{stem}.allocs_per_{per}");
    let per_call = format!("{stem}.allocs_per_op");
    if listed(&per_unit) {
        put(out, &per_unit, s.allocs_per_op / units);
    } else if listed(&per_call) {
        put(out, &per_call, s.allocs_per_op);
    }
}

/// The probes whose home is `p.kind`, on inputs captured from `p`.
pub fn run_probes(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    match p.kind {
        Kind::BronzeDspJg => probes_bronze(p, seed, out),
        Kind::BronzeObserved => probes_observed(p, seed, out),
        Kind::StreamChain => probes_stream(seed, out),
        Kind::MemoCold => probes_memo_cold(p, seed, out),
        Kind::MemoWarm => probes_memo_warm(p, seed, out),
        Kind::DaemonWave => probes_daemon(p, seed, out),
    }
}

/// Items of the eager/streaming enactor probes (jobs = 2 × items).
const CHAIN_PROBE_ITEMS: usize = 5000;

fn chain_cost(items: usize, seed: u64, capacity: Option<usize>) -> Result<f64, String> {
    let stream = StreamInputs::new(&gen::stream_values(seed, items));
    let mut failed = None;
    let s = probe_fn(1, || {
        if let Err(e) = enact_chain(&stream, seed, capacity, &Prof::off()) {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(s.ns_per_op), Err)
}

/// `enactor.<mode>.ns_per_job` and `.scaling_4x` on the 2-stage local
/// chain at [`CHAIN_PROBE_ITEMS`] and a quarter of it.
fn probe_chain_enactor(
    mode: &str,
    capacity: Option<usize>,
    seed: u64,
    out: &mut Values,
) -> Result<(), String> {
    let full = chain_cost(CHAIN_PROBE_ITEMS, seed, capacity)?;
    let quarter = chain_cost(CHAIN_PROBE_ITEMS / 4, seed, capacity)?;
    put(
        out,
        &format!("enactor.{mode}.ns_per_job"),
        full / (2 * CHAIN_PROBE_ITEMS) as f64,
    );
    put(
        out,
        &format!("enactor.{mode}.scaling_4x"),
        scaling_4x(full, quarter),
    );
    Ok(())
}

fn descriptor_of(workflow: &Workflow, processor: &str) -> Result<ExecutableDescriptor, String> {
    let p = workflow
        .processors
        .iter()
        .find(|p| p.name == processor)
        .ok_or(format!("no processor `{processor}`"))?;
    match &p.binding {
        Some(ServiceBinding::Descriptor { descriptor, .. }) => Ok(descriptor.clone()),
        _ => Err(format!("`{processor}` is not descriptor-bound")),
    }
}

/// Simulator events per `gridsim.drain` call.
const GRIDSIM_PROBE_EVENTS: u64 = 500_000;

fn probes_bronze(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    let workflow = parse_workflow(&read(&p.workflow)?).map_err(text)?;
    put_sample(
        out,
        "lint.predict",
        "op",
        1.0,
        probe_fn(20, || predict(&workflow, p.size, 300.0)),
    );
    let options = PlanOptions::default();
    put_sample(
        out,
        "plan.analyze",
        "op",
        1.0,
        probe_fn(200, || plan_workflow(&workflow, &options)),
    );
    put_sample(
        out,
        "grouping.group_workflow",
        "op",
        1.0,
        probe_fn(200, || group_workflow(&workflow)),
    );

    let crest_lines = descriptor_of(&workflow, "crestLines")?;
    let crest_match = descriptor_of(&workflow, "crestMatch")?;
    let descriptor_xml = crest_lines.to_xml().to_pretty_string();
    put_sample(
        out,
        "wrapper.descriptor_parse",
        "op",
        1.0,
        probe_fn(2000, || ExecutableDescriptor::parse(&descriptor_xml)),
    );
    // The §3.6 group of one image pair: crestLines feeding crestMatch.
    let members = [
        GroupMember {
            descriptor: crest_lines,
            binding: Binding::new()
                .bind_file("floating_image", "gfn://probe/float.hdr")
                .bind_file("reference_image", "gfn://probe/ref.hdr")
                .bind_value("scale", "2")
                .bind_output("crest_reference", "gfn://probe/crest_ref", 400_000)
                .bind_output("crest_floating", "gfn://probe/crest_float", 400_000),
        },
        GroupMember {
            descriptor: crest_match,
            binding: Binding::new()
                .bind_file("crest_reference", "gfn://probe/crest_ref")
                .bind_file("crest_floating", "gfn://probe/crest_float")
                .bind_output("transfo", "gfn://probe/transfo", 2048),
        },
    ];
    let mut catalog = Catalog::new();
    catalog.register("gfn://probe/float.hdr", 7_864_320);
    catalog.register("gfn://probe/ref.hdr", 7_864_320);
    let external = ["gfn://probe/transfo".to_owned()];
    compose_group(&members, &catalog, &external).map_err(text)?;
    put_sample(
        out,
        "wrapper.compose_group",
        "op",
        1.0,
        probe_fn(2000, || compose_group(&members, &catalog, &external)),
    );

    // Waves of 500 synthetic jobs against egee_2006 until the simulator
    // has processed GRIDSIM_PROBE_EVENTS events.
    let mut events = 0;
    let drain = probe_fn(1, || {
        let mut sim = GridSim::new(GridConfig::egee_2006(), seed);
        let mut submitted = 0;
        while sim.events_processed() < GRIDSIM_PROBE_EVENTS {
            sim.reserve_jobs(500);
            for _ in 0..500 {
                sim.submit(
                    GridJobSpec::new(String::new(), 120.0)
                        .with_tag(submitted)
                        .with_files(vec![7_800_000], vec![400_000]),
                );
                submitted += 1;
            }
            while sim.next_completion().is_some() {}
        }
        events = sim.events_processed();
    });
    put_sample(out, "gridsim.drain", "event", events as f64, drain);

    probe_chain_enactor("eager", None, seed, out)
}

/// An [`EventSink`] that keeps every event, to replay them later.
#[derive(Debug, Clone, Default)]
struct Capture(Arc<Mutex<Vec<TraceEvent>>>);

impl EventSink for Capture {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("capture lock").push(event.clone());
    }
}

/// Pairs of the bronze run whose events the sink probes replay.
const CAPTURE_PAIRS: usize = 100;

fn probes_observed(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    let workflow = parse_workflow(&read(&p.workflow)?).map_err(text)?;
    let inputs = parse_input_data(&gen::bronze_inputs_xml(seed, CAPTURE_PAIRS)).map_err(text)?;
    let capture = Capture::default();
    let obs = Obs::new(vec![Box::new(capture.clone())]);
    let mut backend = SimBackend::with_obs(GridConfig::egee_2006(), seed, &obs);
    run_fault_tolerant(
        &workflow,
        &inputs,
        EnactorConfig::sp_dp_jg().with_seed(seed),
        &FtConfig::default(),
        &mut backend,
        obs,
    )
    .map_err(text)?;
    drop(backend);
    let events = std::mem::take(&mut *capture.0.lock().expect("capture lock"));
    if events.is_empty() {
        return Err("the capture run emitted no event".into());
    }
    let n = events.len();

    put_sample(
        out,
        "obs.event.to_json",
        "op",
        1.0,
        probe(n, || (), |(), i| events[i].to_json()),
    );
    let mut replay = |stem: &str, sinks: fn() -> Vec<Box<dyn EventSink>>| {
        let s = probe(n, || Obs::new(sinks()), |obs, i| obs.record(&events[i]));
        put_sample(out, stem, "event", 1.0, s);
    };
    replay("obs.sink.jsonl", || {
        vec![Box::new(JsonlSink::new(
            Box::new(CountingWriter::default()),
        ))]
    });
    replay("obs.sink.metrics", || vec![Box::new(MetricsSink::new().0)]);
    replay("obs.sink.span", || vec![Box::new(SpanSink::new().0)]);
    replay("obs.sink.timeline", || vec![Box::new(TimelineSink::new())]);
    replay("obs.fanout4", || standard_sinks().0);
    Ok(())
}

/// A history tree as deep as the bronze chain's final output.
fn chain_history(position: u32) -> Arc<History> {
    let mut h = History::source("images", position);
    for processor in [
        "crestLines",
        "crestMatch",
        "PFMatchICP",
        "PFRegister",
        "MultiTransfoTest",
    ] {
        h = History::derived(processor, vec![h]);
    }
    h
}

fn file_value(i: usize) -> DataValue {
    DataValue::File {
        gfn: format!("gfn://probe/out{i:06}.trf"),
        bytes: 2048,
    }
}

/// Tokens already waiting on the other port of the cross-product probe.
const CROSS_WAITING: u32 = 32;

fn probes_stream(seed: u64, out: &mut Values) -> Result<(), String> {
    const PUSHES: usize = 20_000;
    let tokens = |source: &str| -> Vec<Token> {
        (0..PUSHES as u32)
            .rev()
            .map(|i| Token::from_source(source, i, DataValue::from(f64::from(i))))
            .collect()
    };
    // One op = one complete dot match: a token on each of two ports.
    let dot = probe(
        PUSHES,
        || {
            (
                MatchEngine::new(IterationStrategy::Dot, 2),
                tokens("a"),
                tokens("b"),
            )
        },
        |(engine, a, b), _| {
            engine.push(0, a.pop().expect("one token per iteration"));
            engine.push(1, b.pop().expect("one token per iteration"))
        },
    );
    put_sample(out, "iterate.dot_push", "op", 1.0, dot);
    // One op = one arrival completing CROSS_WAITING cross matches.
    let cross = probe(
        PUSHES / 10,
        || {
            let mut engine = MatchEngine::new(IterationStrategy::Cross, 2);
            for i in 0..CROSS_WAITING {
                engine.push(1, Token::from_source("b", i, DataValue::from(f64::from(i))));
            }
            (engine, tokens("a"))
        },
        |(engine, a), _| engine.push(0, a.pop().expect("one token per iteration")),
    );
    put_sample(out, "iterate.cross_push", "op", 1.0, cross);

    let history = chain_history(7);
    put_sample(
        out,
        "provenance.history_to_xml",
        "op",
        1.0,
        probe_fn(20_000, || history_to_xml(&history).to_pretty_string()),
    );

    let submit_wait = probe(PUSHES, VirtualBackend::new, |backend, i| {
        backend
            .submit(BackendJob {
                invocation: InvocationId(i as u64),
                processor: "probe".into(),
                payload: JobPayload::Fetch {
                    transfer_seconds: 1.0,
                },
            })
            .expect("the virtual backend accepts every job");
        backend.wait_next()
    });
    put_sample(out, "backend.virtual.submit_wait", "op", 1.0, submit_wait);

    probe_chain_enactor("stream", Some(spec::STREAM_PORT_CAPACITY), seed, out)
}

/// Entries of the in-memory stores the store probes work on.
const STORE_PROBE_ENTRIES: usize = 5000;

fn probes_memo_cold(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    let history = chain_history(7);
    let value = file_value(7);
    put_sample(
        out,
        "store.key.provenance_key",
        "op",
        1.0,
        probe_fn(20_000, || provenance_key(&value, &history)),
    );
    let cached = probe(
        20_000,
        || {
            let mut cache = HistoryXmlCache::new();
            cache.provenance_key(&value, &history);
            cache
        },
        |cache, _| cache.provenance_key(&value, &history),
    );
    put_sample(out, "store.key.provenance_key_cached", "op", 1.0, cached);
    let input_keys = [ProvenanceKey(0x1234_5678_9abc_def0), ProvenanceKey(42)];
    put_sample(
        out,
        "store.key.invocation_key",
        "op",
        1.0,
        probe(
            20_000,
            || (),
            |(), i| invocation_key("crestMatch", i as u64, &input_keys),
        ),
    );

    let n = STORE_PROBE_ENTRIES;
    let values: Vec<DataValue> = (0..n).map(file_value).collect();
    let memory = || DataStore::in_memory(StoreConfig::default());
    let insert = probe(n, memory, |store, i| store.insert(&values[i], &history));
    put_sample(out, "store.insert", "op", 1.0, insert);
    let record = probe(n, memory, |store, i| {
        let key = invocation_key("probe", i as u64, &[]);
        store.record_invocation(key, "probe", vec![("out".into(), ProvenanceKey(i as u64))]);
    });
    put_sample(out, "store.record_invocation", "op", 1.0, record);
    let miss = probe(
        n,
        || filled_store(&values, &history),
        |store, i| store.lookup(invocation_key("absent", i as u64, &[])),
    );
    put_sample(out, "store.lookup_miss", "op", 1.0, miss);

    // Save the store one cold op of this workload leaves behind.
    let dir = p.dir.join("probe-save");
    let _ = std::fs::remove_dir_all(&dir);
    memo_op(p, &dir, seed, false, &mut Tracer::off())?;
    let store = DataStore::open(&dir, StoreConfig::default()).map_err(text)?;
    let entries = store.stats().entries;
    let mut failed = None;
    let save = probe_fn(3, || {
        if let Err(e) = store.save() {
            failed = Some(text(e));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failed {
        return Err(e);
    }
    put_sample(out, "store.disk.save", "entry", entries as f64, save);
    Ok(())
}

/// An in-memory store holding `values` and one memoized invocation per
/// value, keyed `invocation_key("probe", i, [])`.
fn filled_store(values: &[DataValue], history: &History) -> DataStore {
    let mut store = DataStore::in_memory(StoreConfig::default());
    for (i, value) in values.iter().enumerate() {
        let data_key = store
            .insert(value, history)
            .expect("file values are cacheable");
        store.record_invocation(
            invocation_key("probe", i as u64, &[]),
            "probe",
            vec![("out".into(), data_key)],
        );
    }
    store
}

/// One timed `DataStore::open` of `dir`: (total ns, entries loaded).
fn time_open(dir: &Path) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let store = DataStore::open(dir, StoreConfig::default()).map_err(text)?;
    let ns = start.elapsed().as_nanos() as f64;
    Ok((ns, store.stats().entries))
}

fn probes_memo_warm(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    let history = chain_history(7);
    let values: Vec<DataValue> = (0..STORE_PROBE_ENTRIES).map(file_value).collect();
    let hit = probe(
        values.len(),
        || filled_store(&values, &history),
        |store, i| store.lookup(invocation_key("probe", i as u64, &[])),
    );
    put_sample(out, "store.lookup_hit", "op", 1.0, hit);

    // Open the workload's own store and one a quarter of its size. One
    // timed call each: at 5000 entries a single open takes seconds.
    let quarter_dir = p.dir.join("probe-quarter");
    let _ = std::fs::remove_dir_all(&quarter_dir);
    let quarter = workloads::prepare(Kind::MemoWarm, p.size / 4, seed, &quarter_dir)?;
    let (quarter_ns, quarter_entries) = time_open(&quarter.store)?;
    let (full_ns, full_entries) = time_open(&p.store)?;
    put(
        out,
        "store.disk.open.quarter.ns_per_entry",
        quarter_ns / quarter_entries as f64,
    );
    put(
        out,
        "store.disk.open.full.ns_per_entry",
        full_ns / full_entries as f64,
    );
    put(
        out,
        "store.disk.open.scaling_4x",
        scaling_4x(full_ns, quarter_ns),
    );

    let index = read(&quarter.store.join("index.json"))?;
    let _ = std::fs::remove_dir_all(&quarter_dir);
    JsonValue::parse(&index)?;
    put_sample(
        out,
        "json.parse.index",
        "byte",
        index.len() as f64,
        probe_fn(5, || JsonValue::parse(&index)),
    );
    Ok(())
}

/// Pairs of the large input document `xmlish.parse.inputs` reads.
const LARGE_DOCUMENT_PAIRS: usize = 3000;

fn probes_daemon(p: &Prepared, seed: u64, out: &mut Values) -> Result<(), String> {
    let workflow_xml = read(&p.workflow)?;
    let large_doc = gen::bronze_inputs_xml(seed, LARGE_DOCUMENT_PAIRS);
    let small_doc = gen::bronze_inputs_xml(seed, spec::WAVE_PAIRS);
    let root = moteur_xml::parse(&workflow_xml).map_err(text)?;
    let workflow = parse_workflow(&workflow_xml).map_err(text)?;
    moteur_xml::parse(&large_doc).map_err(text)?;

    put_sample(
        out,
        "xmlish.parse.workflow",
        "byte",
        workflow_xml.len() as f64,
        probe_fn(500, || moteur_xml::parse(&workflow_xml)),
    );
    put_sample(
        out,
        "xmlish.parse.inputs",
        "byte",
        large_doc.len() as f64,
        probe_fn(5, || moteur_xml::parse(&large_doc)),
    );
    put_sample(
        out,
        "xmlish.write",
        "op",
        1.0,
        probe_fn(500, || root.to_pretty_string()),
    );
    put_sample(
        out,
        "scufl.parse_workflow",
        "op",
        1.0,
        probe_fn(500, || parse_workflow(&workflow_xml)),
    );
    put_sample(
        out,
        "scufl.parse_input_data",
        "op",
        1.0,
        probe_fn(500, || parse_input_data(&small_doc)),
    );
    put_sample(
        out,
        "scufl.write_workflow",
        "op",
        1.0,
        probe_fn(500, || write_workflow(&workflow)),
    );
    put_sample(
        out,
        "lint.lint_workflow",
        "op",
        1.0,
        probe_fn(500, || lint_workflow(&workflow)),
    );

    let submit_line = &p
        .script
        .iter()
        .find(|l| l.kind == LineKind::Submit)
        .ok_or("the script has no submit line")?
        .text;
    put_sample(
        out,
        "json.parse.submit",
        "byte",
        submit_line.len() as f64,
        probe_fn(500, || JsonValue::parse(submit_line)),
    );
    put_sample(
        out,
        "daemon.protocol.parse_submit",
        "op",
        1.0,
        probe_fn(500, || Request::parse(submit_line)),
    );

    let config = EnactorConfig::preset("sp+dp+jg").ok_or("no sp+dp+jg preset")?;
    let submit = probe(50, new_daemon, |daemon, i| {
        let tenant = format!("tenant-{}", i % spec::WAVE_TENANTS);
        daemon.submit(
            &tenant,
            &workflow_xml,
            &small_doc,
            config,
            FtConfig::default(),
        )
    });
    put_sample(out, "daemon.submit", "op", 1.0, submit);
    // One wave's worth of running instances; a step routes one
    // completion, and the wave has several hundred.
    let step = probe(
        200,
        || {
            let mut daemon = new_daemon();
            for i in 0..spec::WAVE_SUBMITS {
                let tenant = format!("tenant-{}", i % spec::WAVE_TENANTS);
                daemon
                    .submit(
                        &tenant,
                        &workflow_xml,
                        &small_doc,
                        config,
                        FtConfig::default(),
                    )
                    .expect("the vendored workflow is accepted");
            }
            daemon
        },
        |daemon, _| daemon.step(),
    );
    put_sample(out, "daemon.step", "op", 1.0, step);

    // Read-side calls against the daemon this workload's script leaves:
    // `p.size` finished instances, and a quarter of that for the ratio.
    let (mut daemon, _, _) = replay_script(&p.script, &mut Tracer::off())?;
    let n = p.size as u32;
    put_sample(
        out,
        "daemon.status",
        "op",
        1.0,
        probe(2000, || (), |(), i| daemon.status(1 + i as u32 % n)),
    );
    put_sample(
        out,
        "daemon.metrics",
        "op",
        1.0,
        probe_fn(200, || daemon.metrics()),
    );
    let list = probe_fn(200, || daemon.list());
    put_sample(out, "daemon.list", "op", 1.0, list);
    let render = probe(
        2000,
        || (),
        |(), i| {
            let request = Request::Status {
                id: 1 + i as u32 % n,
            };
            daemon_apply(&mut daemon, &request)
        },
    );
    put_sample(out, "daemon.protocol.render_status", "op", 1.0, render);

    let quarter_script = gen::daemon_script(seed, &workflow_xml, spec::wave_shape(p.size / 4));
    let (quarter_daemon, _, _) = replay_script(&quarter_script, &mut Tracer::off())?;
    let quarter_list = probe_fn(200, || quarter_daemon.list());
    put(
        out,
        "daemon.list.scaling_4x",
        scaling_4x(list.ns_per_op, quarter_list.ns_per_op),
    );
    Ok(())
}
