//! Chrome trace-event export: render a finished run as a JSON file
//! loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Each service gets its own track; data-parallel invocations that
//! overlap in time are spread over per-service *lanes* (one thread id
//! per lane) so DP width is directly visible, and service parallelism
//! shows up as overlap between tracks. Every invocation renders as two
//! complete (`ph:"X"`) spans: the grid-overhead wait (submitted →
//! started) and the execution (started → finished). With a metrics
//! registry, gauge timelines (queue depth, in-flight invocations) are
//! added as counter (`ph:"C"`) tracks.

use super::json::JsonObject;
use super::metrics::MetricsRegistry;
use crate::trace::{per_processor, InvocationRecord};

const PID: i64 = 1;

fn usec(secs: f64) -> f64 {
    secs * 1e6
}

/// Export a run's invocation records as Chrome trace JSON, adding
/// counter tracks from `metrics` gauge timelines when given.
pub fn chrome_trace_with_metrics(
    records: &[InvocationRecord],
    metrics: Option<&MetricsRegistry>,
) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        JsonObject::new()
            .str("ph", "M")
            .str("name", "process_name")
            .int("pid", PID)
            .int("tid", 0)
            .raw(
                "args",
                &JsonObject::new().str("name", "moteur enactor").finish(),
            )
            .finish(),
    );

    // Service order: first appearance in the invocation record stream.
    let mut next_tid: i64 = 1;
    for (proc, mut records) in per_processor(records) {
        // Total order (SimTime is integral µs) with the data index as
        // tie-breaker: equal-timestamp events always serialise the same
        // way, keeping the export byte-reproducible.
        records.sort_by(|a, b| a.submitted.cmp(&b.submitted).then(a.index.cmp(&b.index)));
        // Greedy lane allocation: a record reuses the first lane that
        // is free by the time it is submitted.
        let mut lane_ends: Vec<f64> = Vec::new();
        let mut lane_tids: Vec<i64> = Vec::new();
        for rec in records {
            let sub = rec.submitted.as_secs_f64();
            let start = rec.started.as_secs_f64();
            let end = rec.finished.as_secs_f64();
            let lane = match lane_ends.iter().position(|&e| e <= sub + 1e-9) {
                Some(i) => i,
                None => {
                    lane_ends.push(f64::NEG_INFINITY);
                    let tid = next_tid;
                    next_tid += 1;
                    lane_tids.push(tid);
                    let label = if lane_ends.len() == 1 {
                        proc.to_string()
                    } else {
                        format!("{proc} #{}", lane_ends.len())
                    };
                    events.push(
                        JsonObject::new()
                            .str("ph", "M")
                            .str("name", "thread_name")
                            .int("pid", PID)
                            .int("tid", tid)
                            .raw("args", &JsonObject::new().str("name", &label).finish())
                            .finish(),
                    );
                    lane_ends.len() - 1
                }
            };
            lane_ends[lane] = end;
            let tid = lane_tids[lane];
            if start > sub {
                events.push(
                    JsonObject::new()
                        .str("ph", "X")
                        .str("name", &format!("{proc} (wait)"))
                        .str("cat", "wait")
                        .int("pid", PID)
                        .int("tid", tid)
                        .num("ts", usec(sub))
                        .num("dur", usec(start - sub))
                        .raw(
                            "args",
                            &JsonObject::new()
                                .str("index", &rec.index.to_string())
                                .finish(),
                        )
                        .finish(),
                );
            }
            events.push(
                JsonObject::new()
                    .str("ph", "X")
                    .str("name", proc)
                    .str("cat", "exec")
                    .int("pid", PID)
                    .int("tid", tid)
                    .num("ts", usec(start))
                    .num("dur", usec((end - start).max(0.0)))
                    .raw(
                        "args",
                        &JsonObject::new()
                            .str("index", &rec.index.to_string())
                            .uint("retries", u64::from(rec.retries))
                            .finish(),
                    )
                    .finish(),
            );
        }
    }

    if let Some(reg) = metrics {
        for (name, gauge) in reg.gauges() {
            for (t, v) in &gauge.timeline {
                events.push(
                    JsonObject::new()
                        .str("ph", "C")
                        .str("name", name)
                        .int("pid", PID)
                        .num("ts", usec(*t))
                        .raw("args", &JsonObject::new().int("value", *v).finish())
                        .finish(),
                );
            }
        }
    }

    JsonObject::new()
        .raw("traceEvents", &super::json::array(events))
        .str("displayTimeUnit", "ms")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::DataIndex;
    use moteur_gridsim::SimTime;

    fn rec(proc: &str, i: u32, sub: f64, start: f64, end: f64) -> InvocationRecord {
        InvocationRecord {
            processor: proc.into(),
            index: DataIndex::single(i),
            submitted: SimTime::from_secs_f64(sub),
            started: SimTime::from_secs_f64(start),
            finished: SimTime::from_secs_f64(end),
            retries: 0,
        }
    }

    #[test]
    fn overlapping_invocations_get_distinct_lanes() {
        // Two overlapping P1 invocations (DP) and one disjoint one.
        let r = [
            rec("P1", 0, 0.0, 1.0, 10.0),
            rec("P1", 1, 0.0, 2.0, 12.0),
            rec("P1", 2, 20.0, 21.0, 30.0),
        ];
        let json = chrome_trace_with_metrics(&r, None);
        assert!(json.contains("\"name\":\"P1\""));
        assert!(
            json.contains("\"name\":\"P1 #2\""),
            "second lane needed: {json}"
        );
        assert!(
            !json.contains("\"name\":\"P1 #3\""),
            "third record reuses lane 1"
        );
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn wait_and_exec_spans_are_emitted_in_microseconds() {
        let r = [rec("P2", 0, 1.0, 3.0, 4.0)];
        let json = chrome_trace_with_metrics(&r, None);
        assert!(json.contains("\"name\":\"P2 (wait)\""));
        assert!(json.contains("\"ts\":1000000"));
        assert!(json.contains("\"dur\":2000000"), "wait = 2 s: {json}");
        assert!(json.contains("\"ts\":3000000"));
    }

    #[test]
    fn gauge_timelines_become_counter_tracks() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("queue_depth.ce0", 0.5, 3);
        let r = [rec("P1", 0, 0.0, 0.0, 1.0)];
        let json = chrome_trace_with_metrics(&r, Some(&reg));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"queue_depth.ce0\""));
        assert!(json.contains("\"value\":3"));
    }

    #[test]
    fn empty_run_still_produces_a_valid_envelope() {
        let json = chrome_trace_with_metrics(&[], None);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("process_name"));
    }
}
