//! OpenMetrics text exposition of a run's metrics and span phases.
//!
//! Renders one scrapeable snapshot in the [OpenMetrics text format]
//! (the Prometheus exposition format plus the `# EOF` terminator), so
//! counters, gauges and histograms are consumable by standard tooling
//! without JSON post-processing:
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
//! Samples are exemplar-free but timestamp-bearing: the trailing field
//! is the registry's latest *virtual* time, so output stays
//! byte-deterministic for a fixed workflow and seed.
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
use super::span::SpanTree;
use std::fmt::Write as _;

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

/// Escape a label value (`\`, `"`, newline).
fn escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
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

struct Renderer {
    out: String,
    /// Timestamp appended to every sample: the registry's latest
    /// virtual time. Exemplar-free, and — being virtual — byte-stable
    /// for a fixed workflow and seed, unlike a wall-clock stamp.
    ts: String,
}

impl Renderer {
    fn typed(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {value} {}", self.ts);
        } else {
            let rendered = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(self.out, "{name}{{{rendered}}} {value} {}", self.ts);
        }
    }
}

/// Render the registry (and optionally a span tree) as an OpenMetrics
/// text snapshot, `# EOF`-terminated. Every sample carries the
/// registry's latest virtual time as its timestamp, and the snapshot
/// always includes a `moteur_build_info{version=…} 1` gauge.
pub fn render(registry: &MetricsRegistry, spans: Option<&SpanTree>) -> String {
    let mut r = Renderer {
        out: String::new(),
        ts: num(registry.latest()),
    };

    // Build identity first, so a scrape is attributable to a release
    // even when the run produced no events.
    r.typed("moteur_build_info", "gauge");
    r.sample(
        "moteur_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        "1",
    );

    // Event counters all share one family, labelled by event kind.
    if registry.counters().next().is_some() {
        r.typed("moteur_events_total", "counter");
        for (kind, value) in registry.counters() {
            r.sample("moteur_events_total", &[("kind", kind)], &value.to_string());
        }
    }

    // Data-manager families, derived from the cache lifecycle counters:
    // dedicated names so dashboards need no event-kind joins.
    let hits = registry.counter("cache_hit");
    let misses = registry.counter("cache_miss");
    if hits + misses > 0 {
        r.typed("moteur_cache_hits_total", "counter");
        r.sample("moteur_cache_hits_total", &[], &hits.to_string());
        r.typed("moteur_cache_misses_total", "counter");
        r.sample("moteur_cache_misses_total", &[], &misses.to_string());
        r.typed("moteur_cache_hit_ratio", "gauge");
        let ratio = hits as f64 / (hits + misses) as f64;
        r.sample("moteur_cache_hit_ratio", &[], &num(ratio));
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
        r.typed(family, "gauge");
        for (key, value, current, _) in samples {
            let labels: Vec<(&str, &str)> = if key.is_empty() {
                vec![]
            } else {
                vec![(key.as_str(), value.as_str())]
            };
            r.sample(family, &labels, &current.to_string());
        }
        let peak_family = format!("{family}_peak");
        r.typed(&peak_family, "gauge");
        for (key, value, _, peak) in samples {
            let labels: Vec<(&str, &str)> = if key.is_empty() {
                vec![]
            } else {
                vec![(key.as_str(), value.as_str())]
            };
            r.sample(&peak_family, &labels, &peak.to_string());
        }
    }

    // Histograms: cumulative buckets with the mandatory +Inf bound.
    for (name, hist) in registry.histograms() {
        let family = if name == "grid_overhead_secs" {
            "moteur_grid_overhead_seconds".to_string()
        } else {
            format!("moteur_{}", sanitise(name))
        };
        r.typed(&family, "histogram");
        let bucket = format!("{family}_bucket");
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds().iter().zip(hist.bucket_counts()) {
            cumulative += count;
            r.sample(&bucket, &[("le", &num(*bound))], &cumulative.to_string());
        }
        r.sample(&bucket, &[("le", "+Inf")], &hist.count.to_string());
        r.sample(&format!("{family}_sum"), &[], &num(hist.sum));
        r.sample(&format!("{family}_count"), &[], &hist.count.to_string());
    }

    // Span phases: per-phase duration totals and counts, plus the
    // derived overhead share.
    if let Some(tree) = spans {
        let durations = tree.phase_durations();
        if !durations.is_empty() {
            r.typed("moteur_phase_duration_seconds_sum", "gauge");
            for (phase, (_, sum)) in &durations {
                r.sample(
                    "moteur_phase_duration_seconds_sum",
                    &[("phase", phase)],
                    &num(*sum),
                );
            }
            r.typed("moteur_phase_count", "gauge");
            for (phase, (count, _)) in &durations {
                r.sample(
                    "moteur_phase_count",
                    &[("phase", phase)],
                    &count.to_string(),
                );
            }
            r.typed("moteur_grid_overhead_total_seconds", "gauge");
            r.sample(
                "moteur_grid_overhead_total_seconds",
                &[],
                &num(tree.overhead_secs()),
            );
        }
        if let Some(root) = tree.roots().next() {
            r.typed("moteur_makespan_seconds", "gauge");
            r.sample("moteur_makespan_seconds", &[], &num(root.duration_secs()));
        }
    }

    r.out.push_str("# EOF\n");
    r.out
}

/// Render a daemon metrics snapshot as OpenMetrics text: daemon-level
/// gauges (live / queued / finished instances, shared-store counters)
/// plus per-tenant label families, tenants in sorted order so the
/// snapshot is byte-stable. Timestamp-free — the daemon outlives any
/// single virtual-time run.
pub fn render_daemon(m: &crate::daemon::DaemonMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE moteur_daemon_instances gauge");
    for (state, n) in [
        ("running", m.running),
        ("queued", m.queued),
        ("succeeded", m.succeeded),
        ("failed", m.failed),
        ("cancelled", m.cancelled),
    ] {
        let _ = writeln!(out, "moteur_daemon_instances{{state=\"{state}\"}} {n}");
    }
    let _ = writeln!(out, "# TYPE moteur_daemon_store_entries gauge");
    let _ = writeln!(out, "moteur_daemon_store_entries {}", m.store.entries);
    let _ = writeln!(out, "# TYPE moteur_daemon_store_lookups counter");
    for (outcome, n) in [("hit", m.store.hits), ("miss", m.store.misses)] {
        let _ = writeln!(
            out,
            "moteur_daemon_store_lookups_total{{outcome=\"{outcome}\"}} {n}"
        );
    }
    let _ = writeln!(out, "# TYPE moteur_daemon_store_hit_ratio gauge");
    let _ = writeln!(
        out,
        "moteur_daemon_store_hit_ratio {}",
        num(m.store.hit_ratio())
    );
    for (family, kind) in [
        ("moteur_daemon_tenant_running", "gauge"),
        ("moteur_daemon_tenant_queued", "gauge"),
        ("moteur_daemon_tenant_inflight_jobs", "gauge"),
        ("moteur_daemon_tenant_store_hits", "counter"),
        ("moteur_daemon_tenant_store_misses", "counter"),
    ] {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for t in &m.tenants {
            let value = match family {
                "moteur_daemon_tenant_running" => t.running as u64,
                "moteur_daemon_tenant_queued" => t.queued as u64,
                "moteur_daemon_tenant_inflight_jobs" => t.inflight_jobs as u64,
                "moteur_daemon_tenant_store_hits" => t.store_hits,
                _ => t.store_misses,
            };
            let name = if kind == "counter" {
                format!("{family}_total")
            } else {
                family.to_string()
            };
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {value}", escape(&t.tenant));
        }
    }
    out.push_str("# EOF\n");
    out
}

/// `render` plus the `moteur_prof_*` self-profiler families. The prof
/// fragment is inserted before the `# EOF` terminator; a `None` or
/// inactive report leaves the snapshot byte-identical to `render`.
pub fn render_with_prof(
    registry: &MetricsRegistry,
    spans: Option<&SpanTree>,
    prof: Option<&moteur_prof::ProfReport>,
) -> String {
    let mut out = render(registry, spans);
    let fragment = prof
        .map(super::prof::openmetrics_fragment)
        .unwrap_or_default();
    if !fragment.is_empty() {
        let eof = out.len() - "# EOF\n".len();
        out.insert_str(eof, &fragment);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(render(&reg, None), expected);
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
        let text = render(&reg, None);
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
    fn span_phases_surface_as_duration_families() {
        let (mut sink, buf) = SpanSink::new();
        let t = SimTime::from_secs_f64;
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 0,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&TraceEvent::GridSubmitted {
            at: t(4.0),
            invocation: 0,
            name: "j".into(),
        });
        sink.record(&TraceEvent::GridEnqueued {
            at: t(6.0),
            invocation: 0,
            ce: 0,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(10.0),
            invocation: 0,
            ce: 0,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(30.0),
            invocation: 0,
            ce: 0,
            success: true,
        });
        sink.record(&TraceEvent::GridDelivered {
            at: t(31.0),
            invocation: 0,
            success: true,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(31.0),
            invocation: 0,
            processor: "p".into(),
        });
        let tree = buf.snapshot();
        let text = render(&MetricsRegistry::new(), Some(&tree));
        assert!(
            text.contains("moteur_phase_duration_seconds_sum{phase=\"execution\"} 20 0\n"),
            "{text}"
        );
        assert!(text.contains("moteur_phase_count{phase=\"queuing\"} 1 0\n"));
        // Overhead = 4 + 2 + 4 + 1 = 11; makespan = 31.
        assert!(text.contains("moteur_grid_overhead_total_seconds 11 0\n"));
        assert!(text.contains("moteur_makespan_seconds 31 0\n"));
    }
}
