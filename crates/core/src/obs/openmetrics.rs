//! OpenMetrics text exposition: the one writer of the format.
//!
//! Every exposition the program emits goes through this module's
//! `Writer`: a run's ([`render`]: its metrics, its span phases and, when
//! profiled, the `moteur_prof_*` families) and the daemon's
//! ([`render_daemon`]). Each is one scrapeable snapshot in the
//! [OpenMetrics text format] (the Prometheus exposition format plus the
//! `# EOF` terminator), so counters, gauges and histograms are
//! consumable by standard tooling without JSON post-processing:
//!
//! ```text
//! # TYPE moteur_build_info gauge
//! moteur_build_info{version="0.7.0"} 1 5823
//! # TYPE moteur_events_total counter
//! moteur_events_total{kind="job_submitted"} 61 5823
//! # TYPE moteur_grid_overhead_seconds histogram
//! moteur_grid_overhead_seconds_bucket{le="15"} 4 5823
//! …
//! moteur_grid_overhead_seconds_bucket{le="+Inf"} 61 5823
//! moteur_grid_overhead_seconds_sum 1234.5 5823
//! moteur_grid_overhead_seconds_count 61 5823
//! # EOF
//! ```
//!
//! Samples are exemplar-free. Whether they carry a timestamp is chosen
//! per family: a run's registry and span families carry the registry's
//! latest *virtual* time, so output stays byte-deterministic for a fixed
//! workflow and seed; the profiler's families (measured wall-clock
//! quantities) and the daemon's (it outlives any single virtual-time
//! run) carry none.
//!
//! Metric values reflect end-of-run state (gauges expose their final
//! value and their peak as two series). Span phases, when a
//! [`SpanTree`] is supplied, surface as per-phase duration sums and
//! counts — the decomposition §4 of the paper uses to attribute a
//! makespan to grid overhead versus execution.
//!
//! [OpenMetrics text format]:
//!     https://prometheus.io/docs/specs/om/open_metrics_spec/

use super::metrics::MetricsRegistry;
use super::prof::{ProfReport, SubsystemStat};
use super::span::SpanTree;
use crate::daemon::DaemonMetrics;
use std::fmt::{Display, Write as _};

/// Format a sample value: integers render bare, floats via the shortest
/// round-trip form, non-finite values per the exposition spec.
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Sanitise a free-form name into a metric-name-safe suffix.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The one writer of the text format: family headers, sample lines
/// with escaped label values, and the terminator.
struct Writer {
    out: String,
    /// Timestamp appended to each sample written while it is set: a
    /// run's latest virtual time. Exemplar-free, and — being virtual —
    /// byte-stable for a fixed workflow and seed, unlike a wall-clock
    /// stamp. Families written after it is cleared carry none.
    ts: Option<String>,
}

impl Writer {
    fn new(ts: Option<f64>) -> Self {
        Writer {
            out: String::new(),
            ts: ts.map(num),
        }
    }

    /// Open a family: its `# TYPE` line, then its `# HELP` line if any.
    fn family(&mut self, name: &str, kind: &str, help: Option<&str>) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        if let Some(help) = help {
            let _ = writeln!(self.out, "# HELP {name} {help}");
        }
    }

    /// One sample line. Label values are escaped (`\`, `"`, newline).
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.out.push_str(name);
        for (i, (key, v)) in labels.iter().enumerate() {
            self.out.push(if i == 0 { '{' } else { ',' });
            let _ = write!(self.out, "{key}=\"");
            for c in v.chars() {
                match c {
                    '\\' => self.out.push_str("\\\\"),
                    '"' => self.out.push_str("\\\""),
                    '\n' => self.out.push_str("\\n"),
                    _ => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = write!(self.out, " {value}");
        if let Some(ts) = &self.ts {
            let _ = write!(self.out, " {ts}");
        }
        self.out.push('\n');
    }

    /// Close the snapshot with its one terminator.
    fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

/// Render a run as one OpenMetrics snapshot, `# EOF`-terminated: the
/// registry, the span phases when a span tree is supplied, and the
/// `moteur_prof_*` families of the active subsystems when a profiler
/// report is. Registry and span samples carry the registry's latest
/// virtual time as their timestamp; profiler samples carry none. The
/// snapshot always includes a `moteur_build_info{version=…} 1` gauge.
pub fn render(
    registry: &MetricsRegistry,
    spans: Option<&SpanTree>,
    prof: Option<&ProfReport>,
) -> String {
    let mut w = Writer::new(Some(registry.latest()));

    // Build identity first, so a scrape is attributable to a release
    // even when the run produced no events.
    w.family("moteur_build_info", "gauge", None);
    w.sample(
        "moteur_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1,
    );

    // Event counters all share one family, labelled by event kind.
    if registry.counters().next().is_some() {
        w.family("moteur_events_total", "counter", None);
        for (kind, value) in registry.counters() {
            w.sample("moteur_events_total", &[("kind", kind)], value);
        }
    }

    // Data-manager families, derived from the cache lifecycle counters:
    // dedicated names so dashboards need no event-kind joins.
    let hits = registry.counter("cache_hit");
    let misses = registry.counter("cache_miss");
    if hits + misses > 0 {
        w.family("moteur_cache_hits_total", "counter", None);
        w.sample("moteur_cache_hits_total", &[], hits);
        w.family("moteur_cache_misses_total", "counter", None);
        w.sample("moteur_cache_misses_total", &[], misses);
        w.family("moteur_cache_hit_ratio", "gauge", None);
        let ratio = hits as f64 / (hits + misses) as f64;
        w.sample("moteur_cache_hit_ratio", &[], num(ratio));
    }

    // Gauges: group the known naming schemes into labelled families so
    // `inflight.crestLines` and `inflight.crestMatch` are one metric.
    // (label key, label value, current, peak) per family member.
    type FamilyMembers = Vec<(String, String, i64, i64)>;
    let mut families: Vec<(String, FamilyMembers)> = Vec::new();
    for (name, gauge) in registry.gauges() {
        let (family, label_key, label_value) = if name == "inflight_total" {
            ("moteur_inflight".to_string(), None, String::new())
        } else if let Some(svc) = name.strip_prefix("inflight.") {
            (
                "moteur_service_inflight".to_string(),
                Some("service"),
                svc.to_string(),
            )
        } else if let Some(ce) = name.strip_prefix("queue_depth.ce") {
            (
                "moteur_ce_queue_depth".to_string(),
                Some("ce"),
                ce.to_string(),
            )
        } else if let Some(ce) = name.strip_prefix("busy.ce") {
            ("moteur_ce_busy".to_string(), Some("ce"), ce.to_string())
        } else {
            (format!("moteur_{}", sanitise(name)), None, String::new())
        };
        let entry = match families.iter_mut().find(|(f, _)| *f == family) {
            Some(e) => e,
            None => {
                families.push((family, Vec::new()));
                families.last_mut().expect("just pushed")
            }
        };
        entry.1.push((
            label_key.unwrap_or("").to_string(),
            label_value,
            gauge.current,
            gauge.peak,
        ));
    }
    for (family, samples) in &families {
        for (name, peak) in [(family.clone(), false), (format!("{family}_peak"), true)] {
            w.family(&name, "gauge", None);
            for (key, value, current, top) in samples {
                let label = [(key.as_str(), value.as_str())];
                let labels: &[_] = if key.is_empty() { &[] } else { &label };
                w.sample(&name, labels, if peak { top } else { current });
            }
        }
    }

    // Histograms: cumulative buckets with the mandatory +Inf bound.
    for (name, hist) in registry.histograms() {
        let family = if name == "grid_overhead_secs" {
            "moteur_grid_overhead_seconds".to_string()
        } else {
            format!("moteur_{}", sanitise(name))
        };
        w.family(&family, "histogram", None);
        let bucket = format!("{family}_bucket");
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds().iter().zip(hist.bucket_counts()) {
            cumulative += count;
            w.sample(&bucket, &[("le", &num(*bound))], cumulative);
        }
        w.sample(&bucket, &[("le", "+Inf")], hist.count);
        w.sample(&format!("{family}_sum"), &[], num(hist.sum));
        w.sample(&format!("{family}_count"), &[], hist.count);
    }

    // Span phases: per-phase duration totals and counts, plus the
    // derived overhead share.
    if let Some(tree) = spans {
        let durations = tree.phase_durations();
        if !durations.is_empty() {
            w.family("moteur_phase_duration_seconds_sum", "gauge", None);
            for (phase, (_, sum)) in &durations {
                w.sample(
                    "moteur_phase_duration_seconds_sum",
                    &[("phase", phase)],
                    num(*sum),
                );
            }
            w.family("moteur_phase_count", "gauge", None);
            for (phase, (count, _)) in &durations {
                w.sample("moteur_phase_count", &[("phase", phase)], count);
            }
            w.family("moteur_grid_overhead_total_seconds", "gauge", None);
            w.sample(
                "moteur_grid_overhead_total_seconds",
                &[],
                num(tree.overhead_secs()),
            );
        }
        if let Some(root) = tree.roots().next() {
            w.family("moteur_makespan_seconds", "gauge", None);
            w.sample("moteur_makespan_seconds", &[], num(root.duration_secs()));
        }
    }

    // Self-profiler families, active subsystems only, so an unprofiled
    // run's snapshot is unchanged. Their wall time is measured, not
    // virtual, so these samples carry no timestamp.
    let active: Vec<&SubsystemStat> = prof.map_or_else(Vec::new, |report| {
        report.subsystems.iter().filter(|s| s.calls > 0).collect()
    });
    if !active.is_empty() {
        w.ts = None;
        let families = [
            ("moteur_prof_calls", "Profiled scope entries per subsystem."),
            (
                "moteur_prof_wall_seconds",
                "Inclusive wall time per subsystem (measured).",
            ),
            (
                "moteur_prof_alloc_bytes",
                "Bytes allocated inside profiled scopes (0 without the counting allocator).",
            ),
        ];
        for (column, (family, help)) in families.into_iter().enumerate() {
            w.family(family, "counter", Some(help));
            let total = format!("{family}_total");
            for s in &active {
                let values = [
                    s.calls.to_string(),
                    num(s.wall_nanos as f64 / 1e9),
                    s.alloc_bytes.to_string(),
                ];
                w.sample(
                    &total,
                    &[("subsystem", s.subsystem.name())],
                    &values[column],
                );
            }
        }
    }

    w.finish()
}

/// Render a daemon metrics snapshot as OpenMetrics text: daemon-level
/// gauges (live / queued / finished instances, shared-store counters)
/// plus per-tenant label families, tenants in sorted order so the
/// snapshot is byte-stable. Timestamp-free — the daemon outlives any
/// single virtual-time run.
pub fn render_daemon(m: &DaemonMetrics) -> String {
    let mut w = Writer::new(None);
    w.family("moteur_daemon_instances", "gauge", None);
    for (state, n) in [
        ("running", m.running),
        ("queued", m.queued),
        ("succeeded", m.succeeded),
        ("failed", m.failed),
        ("cancelled", m.cancelled),
    ] {
        w.sample("moteur_daemon_instances", &[("state", state)], n);
    }
    w.family("moteur_daemon_store_entries", "gauge", None);
    w.sample("moteur_daemon_store_entries", &[], m.store.entries);
    w.family("moteur_daemon_store_lookups", "counter", None);
    for (outcome, n) in [("hit", m.store.hits), ("miss", m.store.misses)] {
        w.sample(
            "moteur_daemon_store_lookups_total",
            &[("outcome", outcome)],
            n,
        );
    }
    w.family("moteur_daemon_store_hit_ratio", "gauge", None);
    w.sample(
        "moteur_daemon_store_hit_ratio",
        &[],
        num(m.store.hit_ratio()),
    );
    let tenant_families = [
        ("moteur_daemon_tenant_running", "gauge"),
        ("moteur_daemon_tenant_queued", "gauge"),
        ("moteur_daemon_tenant_inflight_jobs", "gauge"),
        ("moteur_daemon_tenant_store_hits", "counter"),
        ("moteur_daemon_tenant_store_misses", "counter"),
    ];
    for (column, (family, kind)) in tenant_families.into_iter().enumerate() {
        w.family(family, kind, None);
        let name = if kind == "counter" {
            format!("{family}_total")
        } else {
            family.to_string()
        };
        for t in &m.tenants {
            let values = [
                t.running as u64,
                t.queued as u64,
                t.inflight_jobs as u64,
                t.store_hits,
                t.store_misses,
            ];
            w.sample(&name, &[("tenant", &t.tenant)], values[column]);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::grid;
    use crate::obs::metrics::Histogram;
    use crate::obs::span::SpanSink;
    use crate::obs::{EventSink, TraceEvent};
    use moteur_gridsim::SimTime;

    #[test]
    fn empty_registry_renders_build_info_and_the_terminator() {
        let reg = MetricsRegistry::new();
        let expected = format!(
            "# TYPE moteur_build_info gauge\n\
             moteur_build_info{{version=\"{}\"}} 1 0\n\
             # EOF\n",
            env!("CARGO_PKG_VERSION"),
        );
        assert_eq!(render(&reg, None, None), expected);
    }

    #[test]
    fn counters_gauges_histograms_render_in_spec_shape() {
        let mut reg = MetricsRegistry::new();
        reg.inc("job_submitted", 3);
        reg.gauge_add("inflight_total", 0.0, 2);
        reg.gauge_add("inflight.crest\"Lines", 0.0, 1);
        reg.gauge_set("queue_depth.ce0", 1.0, 4);
        reg.observe(
            "grid_overhead_secs",
            || Histogram::with_bounds(vec![10.0, 20.0]),
            5.0,
        );
        reg.observe(
            "grid_overhead_secs",
            || Histogram::with_bounds(vec![10.0, 20.0]),
            50.0,
        );
        reg.touch(120.0);
        let text = render(&reg, None, None);
        assert!(text.contains("# TYPE moteur_events_total counter\n"));
        // Every sample carries the registry's latest virtual time.
        assert!(text.contains("moteur_events_total{kind=\"job_submitted\"} 3 120\n"));
        assert!(text.contains("moteur_inflight 2 120\n"));
        // Label values are escaped.
        assert!(text.contains("moteur_service_inflight{service=\"crest\\\"Lines\"} 1 120\n"));
        assert!(text.contains("moteur_ce_queue_depth{ce=\"0\"} 4 120\n"));
        assert!(text.contains("moteur_inflight_peak 2 120\n"));
        // Buckets are cumulative and +Inf covers everything.
        assert!(text.contains("moteur_grid_overhead_seconds_bucket{le=\"10\"} 1 120\n"));
        assert!(text.contains("moteur_grid_overhead_seconds_bucket{le=\"20\"} 1 120\n"));
        assert!(text.contains("moteur_grid_overhead_seconds_bucket{le=\"+Inf\"} 2 120\n"));
        assert!(text.contains("moteur_grid_overhead_seconds_sum 55 120\n"));
        assert!(text.contains("moteur_grid_overhead_seconds_count 2 120\n"));
        // Build identity is always present.
        assert!(text.contains("# TYPE moteur_build_info gauge\n"));
        assert!(text.contains(&format!(
            "moteur_build_info{{version=\"{}\"}} 1 120\n",
            env!("CARGO_PKG_VERSION"),
        )));
        assert!(text.ends_with("# EOF\n"));
        // Exactly one terminator.
        assert_eq!(text.matches("# EOF").count(), 1);
    }

    #[test]
    fn an_idle_profiler_leaves_the_run_exposition_unchanged() {
        let mut reg = MetricsRegistry::new();
        reg.inc("job_submitted", 1);
        let idle = crate::obs::prof::Prof::off().report();
        assert_eq!(render(&reg, None, Some(&idle)), render(&reg, None, None));
    }

    /// The span tree of one grid job: submitted at 0, executing from 10
    /// to 30, delivered and completed at 31.
    fn one_grid_job_tree() -> crate::obs::span::SpanTree {
        let (mut sink, buf) = SpanSink::new();
        let t = SimTime::from_secs_f64;
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 0,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&grid::submitted(4.0, 0));
        sink.record(&grid::enqueued(6.0, 0, 0, 1));
        sink.record(&grid::started(10.0, 0, 0));
        sink.record(&grid::finished(30.0, 0, 0, true));
        sink.record(&grid::delivered(31.0, 0, true));
        sink.record(&TraceEvent::JobCompleted {
            at: t(31.0),
            invocation: 0,
            processor: "p".into(),
            completion: Box::default(),
        });
        buf.snapshot()
    }

    #[test]
    fn span_phases_surface_as_duration_families() {
        let tree = one_grid_job_tree();
        let text = render(&MetricsRegistry::new(), Some(&tree), None);
        assert!(
            text.contains("moteur_phase_duration_seconds_sum{phase=\"execution\"} 20 0\n"),
            "{text}"
        );
        assert!(text.contains("moteur_phase_count{phase=\"queuing\"} 1 0\n"));
        // Overhead = 4 + 2 + 4 + 1 = 11; makespan = 31.
        assert!(text.contains("moteur_grid_overhead_total_seconds 11 0\n"));
        assert!(text.contains("moteur_makespan_seconds 31 0\n"));
    }

    #[test]
    fn a_profiled_run_is_one_exposition_with_unstamped_prof_families_last() {
        use moteur_prof::{ProfReport, Subsystem, SubsystemStat};
        let mut reg = MetricsRegistry::new();
        reg.inc("job_submitted", 2);
        reg.touch(7.5);
        let stat = |subsystem, calls, wall_nanos, alloc_bytes| SubsystemStat {
            subsystem,
            calls,
            wall_nanos,
            allocs: 0,
            alloc_bytes,
        };
        let report = ProfReport {
            subsystems: vec![
                stat(Subsystem::EnactorLoop, 3, 1_500_000_000, 4096),
                stat(Subsystem::Fire, 0, 0, 0),
                stat(Subsystem::PickCe, 12, 250_000, 0),
            ],
            paths: vec![],
        };
        let tree = one_grid_job_tree();
        let expected = format!(
            "# TYPE moteur_build_info gauge\n\
             moteur_build_info{{version=\"{}\"}} 1 7.5\n\
             # TYPE moteur_events_total counter\n\
             moteur_events_total{{kind=\"job_submitted\"}} 2 7.5\n\
             # TYPE moteur_phase_duration_seconds_sum gauge\n\
             moteur_phase_duration_seconds_sum{{phase=\"execution\"}} 20 7.5\n\
             moteur_phase_duration_seconds_sum{{phase=\"queuing\"}} 4 7.5\n\
             moteur_phase_duration_seconds_sum{{phase=\"scheduling\"}} 2 7.5\n\
             moteur_phase_duration_seconds_sum{{phase=\"submission\"}} 4 7.5\n\
             moteur_phase_duration_seconds_sum{{phase=\"transfer\"}} 1 7.5\n\
             # TYPE moteur_phase_count gauge\n\
             moteur_phase_count{{phase=\"execution\"}} 1 7.5\n\
             moteur_phase_count{{phase=\"queuing\"}} 1 7.5\n\
             moteur_phase_count{{phase=\"scheduling\"}} 1 7.5\n\
             moteur_phase_count{{phase=\"submission\"}} 1 7.5\n\
             moteur_phase_count{{phase=\"transfer\"}} 1 7.5\n\
             # TYPE moteur_grid_overhead_total_seconds gauge\n\
             moteur_grid_overhead_total_seconds 11 7.5\n\
             # TYPE moteur_makespan_seconds gauge\n\
             moteur_makespan_seconds 31 7.5\n\
             # TYPE moteur_prof_calls counter\n\
             # HELP moteur_prof_calls Profiled scope entries per subsystem.\n\
             moteur_prof_calls_total{{subsystem=\"enactor_loop\"}} 3\n\
             moteur_prof_calls_total{{subsystem=\"pick_ce\"}} 12\n\
             # TYPE moteur_prof_wall_seconds counter\n\
             # HELP moteur_prof_wall_seconds Inclusive wall time per subsystem (measured).\n\
             moteur_prof_wall_seconds_total{{subsystem=\"enactor_loop\"}} 1.5\n\
             moteur_prof_wall_seconds_total{{subsystem=\"pick_ce\"}} 0.00025\n\
             # TYPE moteur_prof_alloc_bytes counter\n\
             # HELP moteur_prof_alloc_bytes Bytes allocated inside profiled scopes (0 without the counting allocator).\n\
             moteur_prof_alloc_bytes_total{{subsystem=\"enactor_loop\"}} 4096\n\
             moteur_prof_alloc_bytes_total{{subsystem=\"pick_ce\"}} 0\n\
             # EOF\n",
            env!("CARGO_PKG_VERSION"),
        );
        assert_eq!(
            crate::render_openmetrics_with_prof(&reg, Some(&tree), Some(&report)),
            expected
        );
    }

    #[test]
    fn daemon_exposition_escapes_tenant_labels_and_carries_no_timestamps() {
        use crate::daemon::{DaemonMetrics, TenantMetrics};
        let tenant =
            |name: &str, running, queued, inflight_jobs, store_hits, store_misses| TenantMetrics {
                tenant: name.to_string(),
                running,
                queued,
                inflight_jobs,
                store_hits,
                store_misses,
            };
        let m = DaemonMetrics {
            running: 1,
            queued: 2,
            succeeded: 3,
            failed: 0,
            cancelled: 4,
            store: crate::store::StoreStats {
                entries: 5,
                hits: 3,
                misses: 1,
                ..Default::default()
            },
            tenants: vec![
                tenant("a\"b\\c\n", 1, 2, 6, 3, 0),
                tenant("z", 0, 0, 0, 0, 1),
            ],
        };
        let expected = r#"# TYPE moteur_daemon_instances gauge
moteur_daemon_instances{state="running"} 1
moteur_daemon_instances{state="queued"} 2
moteur_daemon_instances{state="succeeded"} 3
moteur_daemon_instances{state="failed"} 0
moteur_daemon_instances{state="cancelled"} 4
# TYPE moteur_daemon_store_entries gauge
moteur_daemon_store_entries 5
# TYPE moteur_daemon_store_lookups counter
moteur_daemon_store_lookups_total{outcome="hit"} 3
moteur_daemon_store_lookups_total{outcome="miss"} 1
# TYPE moteur_daemon_store_hit_ratio gauge
moteur_daemon_store_hit_ratio 0.75
# TYPE moteur_daemon_tenant_running gauge
moteur_daemon_tenant_running{tenant="a\"b\\c\n"} 1
moteur_daemon_tenant_running{tenant="z"} 0
# TYPE moteur_daemon_tenant_queued gauge
moteur_daemon_tenant_queued{tenant="a\"b\\c\n"} 2
moteur_daemon_tenant_queued{tenant="z"} 0
# TYPE moteur_daemon_tenant_inflight_jobs gauge
moteur_daemon_tenant_inflight_jobs{tenant="a\"b\\c\n"} 6
moteur_daemon_tenant_inflight_jobs{tenant="z"} 0
# TYPE moteur_daemon_tenant_store_hits counter
moteur_daemon_tenant_store_hits_total{tenant="a\"b\\c\n"} 3
moteur_daemon_tenant_store_hits_total{tenant="z"} 0
# TYPE moteur_daemon_tenant_store_misses counter
moteur_daemon_tenant_store_misses_total{tenant="a\"b\\c\n"} 0
moteur_daemon_tenant_store_misses_total{tenant="z"} 1
# EOF
"#;
        assert_eq!(render_daemon(&m), expected);
    }
}
