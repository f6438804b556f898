//! The benchmark's definition: workloads with their sizes and reasons,
//! every metric with unit, direction and bound. `BENCHMARK.json` is
//! rendered from these tables (`moteur-benchmark spec`) and a test keeps
//! the committed file equal to them.

use crate::gen::WaveShape;
use crate::json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;
/// Ops every run performs whatever `--seconds` says. The exact metrics
/// (`makespan_virtual_s`, `grid_jobs`, store counts, `ttfj_virtual_p99_s`)
/// are taken from these ops only — seeds `seed..seed+MIN_REPS` — so
/// they depend on the seed and not on how fast the host is.
pub const MIN_REPS: usize = 3;
/// Set-ups an untraced run performs before its first op; one more
/// follows every op. `setup_s` is the median over all of them.
pub const SETUP_REPS_BEFORE: usize = 3;
/// The warm-up op that belongs to set-up runs at this share of the size.
pub const WARMUP_DIVISOR: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    BronzeDspJg,
    BronzeObserved,
    StreamChain,
    MemoCold,
    MemoWarm,
    DaemonWave,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Items per op: what `items_per_s` counts.
    pub size: usize,
    pub item: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: Kind::BronzeDspJg,
        name: "bronze_dsp_jg",
        size: 3000,
        item: "pairs",
        why: "Bronze-Standard on egee_2006, sp+dp+jg, default eager path, no sinks, no store: \
              enactor fire/route, grouping and wrapper do ~90% of the work, gridsim ~10%.",
    },
    Workload {
        kind: Kind::BronzeObserved,
        name: "bronze_observed",
        size: 1000,
        item: "pairs",
        why: "Same op with the four standard sinks attached: sink fan-out and event-to-JSON \
              dominate, so a sink change moves this workload and must not move bronze_dsp_jg.",
    },
    Workload {
        kind: Kind::StreamChain,
        name: "stream_chain",
        size: 500_000,
        item: "items",
        why: "Two local services over a numeric stream with port capacity 64: streaming path, \
              ports, match engine, tokens; gridsim, store and XML idle. The memory workload.",
    },
    Workload {
        kind: Kind::MemoCold,
        name: "memo_cold",
        size: 1000,
        item: "images",
        why: "Bronze chain into an empty on-disk store on the ideal grid: provenance keying, \
              insert, record_invocation and save, i.e. store writes; makespan is exactly 330 s.",
    },
    Workload {
        kind: Kind::MemoWarm,
        name: "memo_warm",
        size: 1000,
        item: "images",
        why: "Same chain against the store a cold run left: open (JSON parse of the disk files), \
              lookup and fetch replay, i.e. store reads; no grid job runs.",
    },
    Workload {
        kind: Kind::DaemonWave,
        name: "daemon_wave",
        size: 500,
        item: "workflows",
        why: "Protocol script of submit/status/metrics/drain waves against one daemon: the only \
              workload where JSON, xmlish, scufl, lint and admission run per request.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Port capacity of `stream_chain`.
pub const STREAM_PORT_CAPACITY: usize = 64;
/// Shape of one `daemon_wave` submission wave.
pub const WAVE_SUBMITS: usize = 8;
pub const WAVE_TENANTS: usize = 4;
pub const WAVE_DOCUMENTS: usize = 50;
pub const WAVE_PAIRS: usize = 12;

/// The `daemon_wave` script shape for `submissions` submissions.
pub fn wave_shape(submissions: usize) -> WaveShape {
    WaveShape {
        submissions,
        per_wave: WAVE_SUBMITS,
        tenants: WAVE_TENANTS,
        documents: WAVE_DOCUMENTS,
        pairs: WAVE_PAIRS,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
    /// Per-layer only: the workload whose traced run measures it.
    /// `None` means every traced run does. Elsewhere it reads 0.
    pub home: Option<Kind>,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    home: Option<Kind>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
        home,
    }
}

/// What a user of the system sees; measured by the untraced binary.
///
/// The timing bounds are 25 %, the contract's maximum, not ISSUE 11's
/// 10 %. Across ten seeds the interquartile spread of `wall_s` on the
/// sizing box was 2–8 % of the median in quiet stretches, but the host (a
/// shared VM) has slow stretches of up to a minute in which whole runs
/// read 1.3–1.6× slower, and one of three ten-run passes caught enough
/// of them to spread 23 %. That is host noise, not seed: a tighter bound
/// would reject PRs at random.
pub fn end_to_end() -> Vec<Metric> {
    let e2e = |name: &str, unit, better, bound| Metric {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
        home: None,
    };
    vec![
        e2e("setup_s", "s", Better::Lower, 0.25),
        e2e("wall_s", "s", Better::Lower, 0.25),
        e2e("items_per_s", "1/s", Better::Higher, 0.25),
        e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    ]
}

/// Metrics that repeat exactly for a given seed on any host. The
/// untraced run prints them on its `#exact` line and `agree` requires
/// them identical between two sets of runs.
pub const EXACT: [&str; 6] = [
    "makespan_virtual_s",
    "grid_jobs",
    "failed_share",
    "ttfj_virtual_p99_s",
    "store.hits",
    "store.misses",
];

/// Stage spans the driver records around its own calls.
pub const STAGES: [&str; 10] = [
    "read_files",
    "scufl_parse",
    "store_open",
    "enact",
    "store_save",
    "protocol_parse",
    "apply_submit",
    "apply_status",
    "apply_metrics",
    "apply_drain",
];

/// Subsystems of the product's own profiler reported under `prof.*`.
pub const PROF_SUBSYSTEMS: [&str; 7] = [
    "enactor_loop",
    "fire",
    "provenance_key",
    "store_io",
    "sinks",
    "event_queue",
    "pick_ce",
];

/// Replay probes: metric name, unit, home workload. A name ending in
/// `allocs_per_op`/`allocs_per_event` is the allocation count of the
/// probe named before it.
const PROBES: [(&str, &str, Kind); 66] = {
    use Kind::*;
    [
        ("xmlish.parse.workflow.ns_per_byte", "ns/byte", DaemonWave),
        (
            "xmlish.parse.workflow.allocs_per_op",
            "allocs/op",
            DaemonWave,
        ),
        ("xmlish.parse.inputs.ns_per_byte", "ns/byte", DaemonWave),
        ("xmlish.parse.inputs.allocs_per_op", "allocs/op", DaemonWave),
        ("xmlish.write.ns_per_op", "ns/op", DaemonWave),
        ("scufl.parse_workflow.ns_per_op", "ns/op", DaemonWave),
        (
            "scufl.parse_workflow.allocs_per_op",
            "allocs/op",
            DaemonWave,
        ),
        ("scufl.parse_input_data.ns_per_op", "ns/op", DaemonWave),
        (
            "scufl.parse_input_data.allocs_per_op",
            "allocs/op",
            DaemonWave,
        ),
        ("scufl.write_workflow.ns_per_op", "ns/op", DaemonWave),
        ("lint.lint_workflow.ns_per_op", "ns/op", DaemonWave),
        ("lint.lint_workflow.allocs_per_op", "allocs/op", DaemonWave),
        ("json.parse.submit.ns_per_byte", "ns/byte", DaemonWave),
        (
            "daemon.protocol.parse_submit.ns_per_op",
            "ns/op",
            DaemonWave,
        ),
        (
            "daemon.protocol.render_status.ns_per_op",
            "ns/op",
            DaemonWave,
        ),
        ("daemon.submit.ns_per_op", "ns/op", DaemonWave),
        ("daemon.step.ns_per_op", "ns/op", DaemonWave),
        ("daemon.status.ns_per_op", "ns/op", DaemonWave),
        ("daemon.metrics.ns_per_op", "ns/op", DaemonWave),
        ("daemon.list.ns_per_op", "ns/op", DaemonWave),
        ("daemon.list.scaling_4x", "ratio", DaemonWave),
        ("lint.predict.ns_per_op", "ns/op", BronzeDspJg),
        ("plan.analyze.ns_per_op", "ns/op", BronzeDspJg),
        ("grouping.group_workflow.ns_per_op", "ns/op", BronzeDspJg),
        ("wrapper.descriptor_parse.ns_per_op", "ns/op", BronzeDspJg),
        ("wrapper.compose_group.ns_per_op", "ns/op", BronzeDspJg),
        ("gridsim.drain.ns_per_event", "ns/event", BronzeDspJg),
        (
            "gridsim.drain.allocs_per_event",
            "allocs/event",
            BronzeDspJg,
        ),
        ("enactor.eager.ns_per_job", "ns/job", BronzeDspJg),
        ("enactor.eager.scaling_4x", "ratio", BronzeDspJg),
        ("obs.event.to_json.ns_per_op", "ns/op", BronzeObserved),
        (
            "obs.event.to_json.allocs_per_op",
            "allocs/op",
            BronzeObserved,
        ),
        ("obs.sink.jsonl.ns_per_event", "ns/event", BronzeObserved),
        (
            "obs.sink.jsonl.allocs_per_event",
            "allocs/event",
            BronzeObserved,
        ),
        ("obs.sink.metrics.ns_per_event", "ns/event", BronzeObserved),
        (
            "obs.sink.metrics.allocs_per_event",
            "allocs/event",
            BronzeObserved,
        ),
        ("obs.sink.span.ns_per_event", "ns/event", BronzeObserved),
        (
            "obs.sink.span.allocs_per_event",
            "allocs/event",
            BronzeObserved,
        ),
        ("obs.sink.timeline.ns_per_event", "ns/event", BronzeObserved),
        (
            "obs.sink.timeline.allocs_per_event",
            "allocs/event",
            BronzeObserved,
        ),
        ("obs.fanout4.ns_per_event", "ns/event", BronzeObserved),
        (
            "obs.fanout4.allocs_per_event",
            "allocs/event",
            BronzeObserved,
        ),
        ("iterate.dot_push.ns_per_op", "ns/op", StreamChain),
        ("iterate.dot_push.allocs_per_op", "allocs/op", StreamChain),
        ("iterate.cross_push.ns_per_op", "ns/op", StreamChain),
        ("iterate.cross_push.allocs_per_op", "allocs/op", StreamChain),
        ("provenance.history_to_xml.ns_per_op", "ns/op", StreamChain),
        (
            "provenance.history_to_xml.allocs_per_op",
            "allocs/op",
            StreamChain,
        ),
        (
            "backend.virtual.submit_wait.ns_per_op",
            "ns/op",
            StreamChain,
        ),
        ("enactor.stream.ns_per_job", "ns/job", StreamChain),
        ("enactor.stream.scaling_4x", "ratio", StreamChain),
        ("store.key.provenance_key.ns_per_op", "ns/op", MemoCold),
        (
            "store.key.provenance_key.allocs_per_op",
            "allocs/op",
            MemoCold,
        ),
        (
            "store.key.provenance_key_cached.ns_per_op",
            "ns/op",
            MemoCold,
        ),
        ("store.key.invocation_key.ns_per_op", "ns/op", MemoCold),
        ("store.insert.ns_per_op", "ns/op", MemoCold),
        ("store.insert.allocs_per_op", "allocs/op", MemoCold),
        ("store.record_invocation.ns_per_op", "ns/op", MemoCold),
        ("store.lookup_miss.ns_per_op", "ns/op", MemoCold),
        ("store.disk.save.ns_per_entry", "ns/entry", MemoCold),
        ("store.lookup_hit.ns_per_op", "ns/op", MemoWarm),
        ("store.lookup_hit.allocs_per_op", "allocs/op", MemoWarm),
        ("store.disk.open.quarter.ns_per_entry", "ns/entry", MemoWarm),
        ("store.disk.open.full.ns_per_entry", "ns/entry", MemoWarm),
        ("store.disk.open.scaling_4x", "ratio", MemoWarm),
        ("json.parse.index.ns_per_byte", "ns/byte", MemoWarm),
    ]
};

/// Metrics of single layers; measured by the traced binary.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = vec![
        layer("makespan_virtual_s", "virtual_s", Lower, None),
        layer("grid_jobs", "count", Lower, None),
        layer("failed_share", "share", Lower, None),
        layer("store.hits", "count", Higher, None),
        layer("store.misses", "count", Lower, None),
        layer("submit_p50_ms", "ms/submit", Lower, Some(Kind::DaemonWave)),
        layer("submit_p90_ms", "ms/submit", Lower, Some(Kind::DaemonWave)),
        layer(
            "ttfj_virtual_p99_s",
            "virtual_s",
            Lower,
            Some(Kind::DaemonWave),
        ),
        layer("trace.overhead_share", "share", Lower, None),
        layer("alloc.peak_live_mb", "MB", Lower, None),
        layer("alloc.allocs_per_item", "allocs/item", Lower, None),
    ];
    for stage in STAGES {
        out.push(layer(format!("stage.{stage}.ms"), "ms/op", Lower, None));
        out.push(layer(format!("stage.{stage}.share"), "share", Lower, None));
    }
    for sub in PROF_SUBSYSTEMS {
        out.push(layer(format!("prof.{sub}.calls"), "calls/op", Lower, None));
        out.push(layer(format!("prof.{sub}.wall_ms"), "ms/op", Lower, None));
        out.push(layer(
            format!("prof.{sub}.allocs"),
            "allocs/op",
            Lower,
            None,
        ));
    }
    for (name, unit, home) in PROBES {
        out.push(layer(name, unit, Lower, Some(home)));
    }
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| {
        let bound = m.bound.map_or(String::new(), |b| {
            format!(", \"bound\": {}", json::number(b))
        });
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::quote(&m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str())
        )
    };
    let list = |ms: Vec<Metric>| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let why = format!("{} {} per op. {}", w.size, w.item, w.why);
            assert!(
                why.len() <= 200,
                "`why` of {} is {} chars",
                w.name,
                why.len()
            );
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(&why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(end_to_end()),
        list(per_layer())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        for m in &all {
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name.to_owned()), "duplicate name {}", w.name);
        }
        assert!(
            per_layer().len() <= 128,
            "{} per-layer metrics",
            per_layer().len()
        );
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for name in EXACT {
            assert!(per_layer().iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
        );
        let doc = json::Value::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
