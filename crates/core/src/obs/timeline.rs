//! Virtual-time resource time-series: where time and bytes go.
//!
//! The paper reasons about makespan with aggregate equations; at
//! production scale the binding question becomes *which* CE queue
//! saturates, *which* link carries the intermediate data, and whether
//! the run is tracking its prediction. This module records grid and
//! enactor state as named series over **virtual time only** — no wall
//! clock anywhere, so the output is byte-stable for a fixed workflow
//! and seed:
//!
//! - per-CE queue depth, running jobs and utilization
//!   (`ce<N>.queue_depth` / `ce<N>.running` / `ce<N>.utilization`),
//! - per-link bytes and instantaneous bandwidth occupancy
//!   (`link.ce<N>.bytes` / `link.ce<N>.bandwidth`),
//! - stored bytes on the storage element backing the data manager
//!   (`store.bytes` / `store.entries`),
//! - enactor gauges (`enactor.inflight` / `enactor.deferred` /
//!   `enactor.quarantined`) and lifecycle counters.
//!
//! Every series has a **fixed capacity**: when it fills, every other
//! point is dropped and the acceptance stride doubles, so long runs
//! degrade resolution instead of growing memory — deterministic
//! downsampling, dependent only on the sample sequence. Counters keep
//! an exact running `total` untouched by downsampling (the acceptance
//! invariant "per-link byte totals sum to the enactor's transferred
//! bytes" survives any capacity).
//!
//! Export: versioned JSON ([`TIMELINE_SCHEMA`]), CSV, and an ASCII
//! sparkline/heatmap renderer (`moteur timeline render`). The
//! [`TimelineSink`] also aggregates [`ResourceStats`] — phase totals,
//! per-CE busy integrals, per-service durations — the input to
//! [`crate::detect_bottlenecks`].

use super::json::{self, JsonObject, JsonValue};
use super::{EventSink, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Version tag of the timeline JSON export.
pub const TIMELINE_SCHEMA: &str = "moteur/timeline/v1";

/// Default per-series point capacity.
pub const DEFAULT_CAPACITY: usize = 512;

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A level sampled at transitions (queue depth, inflight count).
    Gauge,
    /// A monotonic accumulation; points sample the running total.
    Counter,
}

impl SeriesKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }
}

/// One named time-series with deterministic fixed-capacity
/// downsampling.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub kind: SeriesKind,
    capacity: usize,
    points: Vec<(f64, f64)>,
    /// Only every `keep_every`-th sample is stored; doubles whenever
    /// the buffer fills and every other point is dropped.
    keep_every: u64,
    /// Samples offered since creation.
    seen: u64,
    /// Exact running total (counters only; downsampling never touches
    /// it).
    total: f64,
    /// Most recent sample, always retained so the final state is exact
    /// even when the stride would have skipped it.
    last: Option<(f64, f64)>,
}

impl Series {
    fn new(name: &str, kind: SeriesKind, capacity: usize) -> Series {
        Series {
            name: name.to_string(),
            kind,
            capacity: capacity.max(8),
            points: Vec::new(),
            keep_every: 1,
            seen: 0,
            total: 0.0,
            last: None,
        }
    }

    fn sample(&mut self, t: f64, v: f64) {
        self.last = Some((t, v));
        if self.seen.is_multiple_of(self.keep_every) {
            self.points.push((t, v));
            if self.points.len() >= self.capacity {
                let mut i = 0usize;
                self.points.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.keep_every *= 2;
            }
        }
        self.seen += 1;
    }

    /// Exact accumulated total (counters; 0 for gauges).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Samples offered to the series (before downsampling).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The stored points plus the always-retained latest sample.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        let mut pts = self.points.clone();
        if let Some(last) = self.last {
            if pts.last() != Some(&last) {
                pts.push(last);
            }
        }
        pts
    }

    /// Largest sampled value (0 when empty).
    pub fn peak(&self) -> f64 {
        self.samples()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max)
    }
}

/// A set of named series sharing one capacity.
#[derive(Debug, Clone)]
pub struct Timeline {
    capacity: usize,
    series: BTreeMap<String, Series>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Timeline {
        Timeline {
            capacity: capacity.max(8),
            series: BTreeMap::new(),
        }
    }

    fn series_mut(&mut self, name: &str, kind: SeriesKind) -> &mut Series {
        let capacity = self.capacity;
        super::metrics::entry(&mut self.series, name, || Series::new(name, kind, capacity))
    }

    /// Sample a gauge level at virtual time `t`.
    pub fn gauge(&mut self, name: &str, t: f64, value: f64) {
        self.series_mut(name, SeriesKind::Gauge).sample(t, value);
    }

    /// Add `delta` to a counter and sample the running total.
    pub fn counter(&mut self, name: &str, t: f64, delta: f64) {
        let s = self.series_mut(name, SeriesKind::Counter);
        s.total += delta;
        let total = s.total;
        s.sample(t, total);
    }

    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// All series in name order (deterministic iteration).
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.series.values()
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Versioned single-line JSON export ([`TIMELINE_SCHEMA`]),
    /// byte-stable for a fixed event sequence.
    pub fn to_json(&self) -> String {
        let series = json::array(self.series.values().map(|s| {
            let points = json::array(
                s.samples()
                    .iter()
                    .map(|&(t, v)| format!("[{},{}]", json::num(t), json::num(v))),
            );
            let o = JsonObject::new()
                .str("name", &s.name)
                .str("kind", s.kind.as_str())
                .uint("seen", s.seen);
            let o = match s.kind {
                SeriesKind::Counter => o.num("total", s.total),
                SeriesKind::Gauge => o,
            };
            o.raw("points", &points).finish()
        }));
        JsonObject::new()
            .str("schema", TIMELINE_SCHEMA)
            .uint("capacity", self.capacity as u64)
            .raw("series", &series)
            .finish()
    }

    /// CSV export: `series,kind,t,value` in series-name order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,kind,t,value\n");
        for s in self.series.values() {
            for (t, v) in s.samples() {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    s.name,
                    s.kind.as_str(),
                    json::num(t),
                    json::num(v)
                ));
            }
        }
        out
    }

    /// Parse a [`Timeline::to_json`] export back (for
    /// `moteur timeline render`).
    pub fn from_json(text: &str) -> Result<Timeline, String> {
        let obj = JsonValue::parse(text)?;
        match obj.str_at("schema") {
            Some(TIMELINE_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported timeline schema `{other}`")),
            None => return Err("timeline: missing schema field".into()),
        }
        let capacity = obj
            .u64_at("capacity")
            .map_or(DEFAULT_CAPACITY, |c| c as usize);
        let mut timeline = Timeline::with_capacity(capacity);
        let series = obj
            .array_at("series")
            .ok_or("timeline: missing series array")?;
        for e in series {
            let name = e.str_at("name").ok_or("timeline: series without name")?;
            let kind = match e.str_at("kind") {
                Some("counter") => SeriesKind::Counter,
                _ => SeriesKind::Gauge,
            };
            let mut s = Series::new(name, kind, capacity);
            for p in e.array_at("points").unwrap_or_default() {
                if let Some([JsonValue::Number(t), JsonValue::Number(v), ..]) = p.as_array() {
                    s.points.push((*t, *v));
                    s.last = Some((*t, *v));
                }
            }
            s.seen = e.u64_at("seen").unwrap_or(0);
            s.total = e.f64_at("total").unwrap_or(0.0);
            timeline.series.insert(s.name.clone(), s);
        }
        Ok(timeline)
    }

    /// Latest virtual time across all series.
    pub fn t_end(&self) -> f64 {
        self.series
            .values()
            .filter_map(|s| s.last.map(|(t, _)| t))
            .fold(0.0f64, f64::max)
    }

    /// ASCII overview: one sparkline row per series.
    pub fn render(&self, width: usize) -> String {
        let width = width.clamp(10, 200);
        let t_end = self.t_end();
        let label_w = self
            .series
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = format!(
            "timeline ({} series, t = 0..{:.0}s, {} cols)\n",
            self.series.len(),
            t_end,
            width
        );
        if self.series.is_empty() {
            out.push_str("(empty)\n");
            return out;
        }
        for s in self.series.values() {
            let buckets = bucketize(&s.samples(), t_end, width);
            let peak = buckets.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
            let row: String = buckets
                .iter()
                .map(|b| match b {
                    None => ' ',
                    Some(v) => shade(*v, peak),
                })
                .collect();
            let last = s.last.map_or(0.0, |(_, v)| v);
            out.push_str(&format!(
                "{:label_w$} |{row}| peak={} last={}\n",
                s.name,
                fmt_value(peak),
                fmt_value(last)
            ));
        }
        out
    }

    /// ASCII heatmap of every series named `<row>.<metric>`: one row
    /// per matching series, columns are time buckets, intensity is
    /// normalised against the global peak.
    pub fn render_heatmap(&self, metric: &str, width: usize) -> String {
        let width = width.clamp(10, 200);
        let suffix = format!(".{metric}");
        let t_end = self.t_end();
        let rows: Vec<&Series> = self
            .series
            .values()
            .filter(|s| s.name.ends_with(&suffix))
            .collect();
        if rows.is_empty() {
            return format!("no `{metric}` series recorded\n");
        }
        let grids: Vec<(String, Vec<Option<f64>>)> = rows
            .iter()
            .map(|s| {
                let label = s.name[..s.name.len() - suffix.len()].to_string();
                (label, bucketize(&s.samples(), t_end, width))
            })
            .collect();
        let peak = grids
            .iter()
            .flat_map(|(_, b)| b.iter().flatten())
            .fold(0.0f64, |a, &b| a.max(b));
        let label_w = grids.iter().map(|(l, _)| l.len()).max().unwrap_or(2);
        let secs_per_col = if width > 0 { t_end / width as f64 } else { 0.0 };
        let mut out = format!(
            "{metric} heatmap (t = 0..{t_end:.0}s, 1 col = {secs_per_col:.0}s, peak = {})\n",
            fmt_value(peak)
        );
        for (label, buckets) in grids {
            let row: String = buckets
                .iter()
                .map(|b| match b {
                    None => ' ',
                    Some(v) => shade(*v, peak),
                })
                .collect();
            out.push_str(&format!("{label:label_w$} |{row}|\n"));
        }
        out
    }
}

/// Render a sample value for the ASCII views: whole numbers bare,
/// small fractions (utilization, ratios) with two decimals.
fn fmt_value(v: f64) -> String {
    if v.abs() < 10.0 && v.fract() != 0.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.0}")
    }
}

/// Bucket samples over `[0, t_end]` into `width` cells, keeping the
/// max per cell (a step-function hold between samples would hide
/// spikes).
fn bucketize(samples: &[(f64, f64)], t_end: f64, width: usize) -> Vec<Option<f64>> {
    let mut buckets: Vec<Option<f64>> = vec![None; width];
    if t_end <= 0.0 || samples.is_empty() {
        if let Some(&(_, v)) = samples.first() {
            buckets[0] = Some(v);
        }
        return buckets;
    }
    for &(t, v) in samples {
        let i = ((t / t_end) * width as f64) as usize;
        let i = i.min(width - 1);
        buckets[i] = Some(buckets[i].map_or(v, |b: f64| b.max(v)));
    }
    buckets
}

/// ASCII intensity ramp (no Unicode — terminals on the grid UI nodes
/// of 2006 did not have it either).
const RAMP: &[u8] = b" .:-=+*#%@";

fn shade(v: f64, peak: f64) -> char {
    if peak <= 0.0 {
        return RAMP[1] as char;
    }
    let idx = ((v / peak) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.clamp(1, RAMP.len() - 1)] as char
}

// ---------------------------------------------------------------------
// ResourceStats: exact aggregates alongside the (downsampled) series
// ---------------------------------------------------------------------

/// Per-CE resource aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CeStats {
    /// Integral of busy worker slots over virtual time (slot-seconds).
    pub busy_slot_secs: f64,
    /// Worker-slot capacity (latest observation).
    pub slots: usize,
    /// Largest observed user queue depth.
    pub peak_queue_depth: usize,
    /// Internal: last busy level and its timestamp, for the integral.
    last_busy: usize,
    last_t: f64,
}

/// One per-service grid-job duration sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationSample {
    pub invocation: u64,
    pub secs: f64,
}

/// Exact phase and resource aggregates collected by [`TimelineSink`] —
/// unlike the series, these are never downsampled, so totals (the
/// per-link byte sums, the phase attribution) are exact.
#[derive(Debug, Clone, Default)]
pub struct ResourceStats {
    /// Total time user attempts sat in CE batch queues.
    pub queue_wait_secs: f64,
    /// Total stage-in + stage-out transfer time (congestion included).
    pub transfer_secs: f64,
    /// Total pure compute time (execution minus transfers).
    pub compute_secs: f64,
    /// Bytes through each CE's network link (stage-in + stage-out, per
    /// started attempt — retries transfer again).
    pub link_bytes: BTreeMap<usize, u64>,
    /// Per-CE busy integrals and peaks.
    pub ces: BTreeMap<usize, CeStats>,
    /// Bytes staged into grid jobs per (consumer processor, input
    /// port) — the observed counterpart of `moteur plan`'s static
    /// per-edge transfer bounds.
    pub edge_bytes: BTreeMap<(String, String), u64>,
    /// Submission→completion durations per service (logical
    /// invocations that completed successfully).
    pub service_durations: BTreeMap<String, Vec<DurationSample>>,
    /// Completed / failed / cancelled invocation counts.
    pub completed: usize,
    pub failed: usize,
    pub cancelled: usize,
    /// `SloBreached` events observed.
    pub slo_breaches: usize,
    /// Latest virtual time seen on any event.
    pub t_end: f64,
}

impl ResourceStats {
    /// Sum of bytes over every link.
    pub fn total_link_bytes(&self) -> u64 {
        self.link_bytes.values().sum()
    }

    /// Busy fraction per CE over `[0, t_end]`, assuming the level held
    /// since the last observation.
    pub fn ce_utilization(&self) -> BTreeMap<usize, f64> {
        self.ces
            .iter()
            .map(|(&ce, s)| {
                let tail = (self.t_end - s.last_t).max(0.0) * s.last_busy as f64;
                let denom = s.slots as f64 * self.t_end;
                let u = if denom > 0.0 {
                    ((s.busy_slot_secs + tail) / denom).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                (ce, u)
            })
            .collect()
    }
}

/// Grid-level lifecycle marks of one attempt, for phase attribution.
#[derive(Debug, Clone, Copy, Default)]
struct JobMarks {
    enqueued: Option<f64>,
    started: Option<f64>,
    /// Transfer seconds of the current attempt (from the link event).
    attempt_transfer: f64,
}

/// Shared state behind a [`TimelineSink`] handle.
///
/// Like the series, the two maps are bounded by what is in flight, not
/// by the length of the run: each entry is dropped by the event that
/// ends its lifecycle, so a daemon-lifetime sink does not grow.
#[derive(Debug, Default)]
pub struct TimelineState {
    pub timeline: Timeline,
    pub stats: ResourceStats,
    /// By attempt tag, from the attempt's first grid event until its
    /// `GridDelivered` or `GridCancelled`.
    marks: HashMap<u64, JobMarks>,
    /// Service and submission time by logical invocation id, from
    /// `JobSubmitted` / `CacheHit` until the invocation's terminal
    /// event.
    services: HashMap<u64, (String, f64)>,
}

/// An [`EventSink`] sampling every lifecycle event into a [`Timeline`]
/// and exact [`ResourceStats`].
#[derive(Debug)]
pub struct TimelineSink {
    state: Arc<Mutex<TimelineState>>,
}

impl TimelineSink {
    pub fn new() -> TimelineSink {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> TimelineSink {
        TimelineSink {
            state: Arc::new(Mutex::new(TimelineState {
                timeline: Timeline::with_capacity(capacity),
                ..TimelineState::default()
            })),
        }
    }

    /// Shared handle onto the accumulating state; lock it after
    /// `obs.flush()` to export.
    pub fn state(&self) -> Arc<Mutex<TimelineState>> {
        Arc::clone(&self.state)
    }

    /// Clone out the timeline and stats (post-run convenience).
    pub fn snapshot(&self) -> (Timeline, ResourceStats) {
        let state = self.state.lock().expect("timeline state lock poisoned");
        (state.timeline.clone(), state.stats.clone())
    }
}

impl Default for TimelineSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for TimelineSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut state = self.state.lock().expect("timeline state lock poisoned");
        let state = &mut *state;
        let t = event.at().as_secs_f64();
        state.stats.t_end = state.stats.t_end.max(t);
        match event {
            TraceEvent::CeCapacity {
                ce,
                busy,
                queued_user,
                slots,
                ..
            } => {
                state
                    .timeline
                    .gauge(&format!("ce{ce}.queue_depth"), t, *queued_user as f64);
                state
                    .timeline
                    .gauge(&format!("ce{ce}.running"), t, *busy as f64);
                if *slots > 0 {
                    state.timeline.gauge(
                        &format!("ce{ce}.utilization"),
                        t,
                        *busy as f64 / *slots as f64,
                    );
                }
                let s = state.stats.ces.entry(*ce).or_default();
                s.busy_slot_secs += s.last_busy as f64 * (t - s.last_t).max(0.0);
                s.last_busy = *busy;
                s.last_t = t;
                s.slots = *slots;
                s.peak_queue_depth = s.peak_queue_depth.max(*queued_user);
            }
            TraceEvent::GridLinkTransfer {
                invocation,
                ce,
                bytes_in,
                bytes_out,
                stage_in_secs,
                stage_out_secs,
                ..
            } => {
                let bytes = bytes_in + bytes_out;
                let secs = stage_in_secs + stage_out_secs;
                state
                    .timeline
                    .counter(&format!("link.ce{ce}.bytes"), t, bytes as f64);
                let occupancy = if secs > 0.0 { bytes as f64 / secs } else { 0.0 };
                state
                    .timeline
                    .gauge(&format!("link.ce{ce}.bandwidth"), t, occupancy);
                *state.stats.link_bytes.entry(*ce).or_insert(0) += bytes;
                state.stats.transfer_secs += secs;
                let m = state.marks.entry(*invocation).or_default();
                m.attempt_transfer = secs;
            }
            TraceEvent::JobSubmitted {
                invocation,
                processor,
                ..
            } => {
                state.services.insert(*invocation, (processor.clone(), t));
                state.timeline.counter("enactor.jobs_submitted", t, 1.0);
            }
            TraceEvent::EdgeStaged {
                processor,
                port,
                bytes,
                ..
            } => {
                *state
                    .stats
                    .edge_bytes
                    .entry((processor.clone(), port.clone()))
                    .or_insert(0) += bytes;
            }
            TraceEvent::CacheHit {
                invocation,
                processor,
                ..
            } => {
                state.services.insert(*invocation, (processor.clone(), t));
                state.timeline.counter("enactor.cache_hits", t, 1.0);
            }
            TraceEvent::GridEnqueued { invocation, .. } => {
                state.marks.entry(*invocation).or_default().enqueued = Some(t);
            }
            TraceEvent::GridStarted { invocation, .. } => {
                let m = state.marks.entry(*invocation).or_default();
                if let Some(enq) = m.enqueued.take() {
                    state.stats.queue_wait_secs += (t - enq).max(0.0);
                }
                m.started = Some(t);
            }
            TraceEvent::GridFinished { invocation, .. } => {
                let m = state.marks.entry(*invocation).or_default();
                if let Some(start) = m.started.take() {
                    let exec = (t - start).max(0.0);
                    state.stats.compute_secs += (exec - m.attempt_transfer).max(0.0);
                    m.attempt_transfer = 0.0;
                }
            }
            TraceEvent::GridDelivered { invocation, .. }
            | TraceEvent::GridCancelled { invocation, .. } => {
                state.marks.remove(invocation);
            }
            TraceEvent::JobCompleted { invocation, .. } => {
                state.stats.completed += 1;
                state.timeline.counter("enactor.completed", t, 1.0);
                if let Some((service, submitted)) = state.services.remove(invocation) {
                    state
                        .stats
                        .service_durations
                        .entry(service)
                        .or_default()
                        .push(DurationSample {
                            invocation: *invocation,
                            secs: (t - submitted).max(0.0),
                        });
                }
            }
            TraceEvent::JobFailed { invocation, .. } => {
                state.stats.failed += 1;
                state.timeline.counter("enactor.failed", t, 1.0);
                state.services.remove(invocation);
            }
            TraceEvent::JobCancelled {
                invocation, reason, ..
            } => {
                state.stats.cancelled += 1;
                state.timeline.counter("enactor.cancelled", t, 1.0);
                // A superseded attempt is not an invocation: its tag is
                // fresh, or it is the logical id of the invocation whose
                // `JobCompleted` is the next event and still needs the
                // entry.
                if *reason != "superseded" {
                    state.services.remove(invocation);
                }
            }
            TraceEvent::EnactorGauges {
                inflight,
                deferred,
                quarantined,
                cache_entries,
                cache_bytes,
                ..
            } => {
                state
                    .timeline
                    .gauge("enactor.inflight", t, *inflight as f64);
                state
                    .timeline
                    .gauge("enactor.deferred", t, *deferred as f64);
                state
                    .timeline
                    .gauge("enactor.quarantined", t, *quarantined as f64);
                state
                    .timeline
                    .gauge("store.entries", t, *cache_entries as f64);
                state.timeline.gauge("store.bytes", t, *cache_bytes as f64);
            }
            TraceEvent::PortSuspended {
                processor, depth, ..
            } => {
                state
                    .timeline
                    .gauge(&format!("port.depth.{processor}"), t, *depth as f64);
                state.timeline.counter("enactor.port_suspends", t, 1.0);
            }
            TraceEvent::PortResumed {
                processor, depth, ..
            } => {
                state
                    .timeline
                    .gauge(&format!("port.depth.{processor}"), t, *depth as f64);
                state.timeline.counter("enactor.port_resumes", t, 1.0);
            }
            TraceEvent::SloBreached { .. } => {
                state.stats.slo_breaches += 1;
                state.timeline.counter("enactor.slo_breaches", t, 1.0);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_total_is_exact_under_downsampling() {
        let mut tl = Timeline::with_capacity(8);
        for i in 0..1000u64 {
            tl.counter("c", i as f64, 3.0);
        }
        let s = tl.get("c").expect("series exists");
        assert!((s.total() - 3000.0).abs() < 1e-9, "total {}", s.total());
        assert!(
            s.samples().len() <= 9,
            "capacity respected: {}",
            s.samples().len()
        );
        assert_eq!(s.seen(), 1000);
    }

    #[test]
    fn downsampling_is_deterministic_and_keeps_endpoints() {
        let run = || {
            let mut tl = Timeline::with_capacity(16);
            for i in 0..500u64 {
                tl.gauge("g", i as f64, (i % 17) as f64);
            }
            tl.to_json()
        };
        assert_eq!(run(), run(), "same samples, same bytes");
        let mut tl = Timeline::with_capacity(16);
        for i in 0..500u64 {
            tl.gauge("g", i as f64, i as f64);
        }
        let samples = tl.get("g").expect("series").samples();
        assert_eq!(samples.first().expect("first").0, 0.0);
        assert_eq!(samples.last().expect("last").0, 499.0, "latest retained");
    }

    #[test]
    fn wraparound_halves_points_and_doubles_stride() {
        let mut tl = Timeline::with_capacity(8);
        for i in 0..8u64 {
            tl.gauge("g", i as f64, 1.0);
        }
        let stored = tl.get("g").expect("series").points.len();
        assert!(stored < 8, "buffer halved at capacity: {stored}");
        for i in 8..64u64 {
            tl.gauge("g", i as f64, 1.0);
        }
        assert!(
            tl.get("g").expect("series").points.len() < 8,
            "stays bounded"
        );
    }

    #[test]
    fn empty_timeline_exports_and_renders() {
        let tl = Timeline::new();
        let json = tl.to_json();
        assert!(json.contains(TIMELINE_SCHEMA), "{json}");
        assert!(json.contains("\"series\":[]"), "{json}");
        assert_eq!(tl.to_csv(), "series,kind,t,value\n");
        assert!(tl.render(60).contains("(empty)"));
        let back = Timeline::from_json(&json).expect("round-trip");
        assert!(back.is_empty());
    }

    #[test]
    fn json_round_trips() {
        let mut tl = Timeline::with_capacity(32);
        tl.gauge("ce0.queue_depth", 0.0, 2.0);
        tl.gauge("ce0.queue_depth", 5.5, 4.0);
        tl.counter("link.ce0.bytes", 1.0, 1000.0);
        tl.counter("link.ce0.bytes", 2.0, 500.0);
        let json = tl.to_json();
        let back = Timeline::from_json(&json).expect("parse");
        assert_eq!(back.to_json(), json, "round-trip is byte-stable");
        assert!((back.get("link.ce0.bytes").expect("series").total() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn renderers_cover_heatmap_and_sparklines() {
        let mut tl = Timeline::new();
        for ce in 0..3 {
            for i in 0..20 {
                tl.gauge(
                    &format!("ce{ce}.queue_depth"),
                    i as f64 * 10.0,
                    ((i + ce) % 7) as f64,
                );
            }
        }
        let heat = tl.render_heatmap("queue_depth", 40);
        assert!(heat.contains("queue_depth heatmap"), "{heat}");
        assert!(heat.contains("ce0"), "{heat}");
        assert!(heat.lines().count() >= 4, "{heat}");
        assert!(heat.is_ascii(), "ASCII only: {heat}");
        let spark = tl.render(40);
        assert!(spark.contains("ce2.queue_depth"), "{spark}");
        assert!(tl.render_heatmap("nothing", 40).contains("no `nothing`"));
    }

    #[test]
    fn sink_aggregates_phases_and_link_bytes() {
        use moteur_gridsim::SimTime;
        let t = SimTime::from_secs_f64;
        let mut sink = TimelineSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 1,
            processor: "svc".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&TraceEvent::GridEnqueued {
            at: t(1.0),
            invocation: 1,
            ce: 0,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(11.0),
            invocation: 1,
            ce: 0,
        });
        sink.record(&TraceEvent::GridLinkTransfer {
            at: t(11.0),
            invocation: 1,
            ce: 0,
            bytes_in: 700,
            bytes_out: 300,
            stage_in_secs: 3.0,
            stage_out_secs: 1.0,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(25.0),
            invocation: 1,
            ce: 0,
            success: true,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(26.0),
            invocation: 1,
            processor: "svc".into(),
        });
        let (timeline, stats) = sink.snapshot();
        assert!((stats.queue_wait_secs - 10.0).abs() < 1e-9);
        assert!((stats.transfer_secs - 4.0).abs() < 1e-9);
        assert!((stats.compute_secs - 10.0).abs() < 1e-9);
        assert_eq!(stats.total_link_bytes(), 1000);
        assert_eq!(stats.completed, 1);
        let link = timeline.get("link.ce0.bytes").expect("link series");
        assert!((link.total() - 1000.0).abs() < 1e-9);
        let d = &stats.service_durations["svc"];
        assert_eq!(d.len(), 1);
        assert!((d[0].secs - 26.0).abs() < 1e-9);
    }

    /// The sink's per-invocation and per-attempt entries end with the
    /// lifecycle they belong to: after every kind of lifecycle has run
    /// to its end nothing is left, and dropping them moved no aggregate
    /// (the expected numbers are what the never-forgetting sink
    /// computed for the same events).
    #[test]
    fn sink_forgets_finished_invocations_and_attempts() {
        use moteur_gridsim::SimTime;
        let at = SimTime::from_secs_f64;
        let processor = || "svc".to_string();
        // One grid attempt under `tag`: queued at `t`, started 10 s
        // later with 4 s of transfers, then run for 20 s unless `cut`.
        let attempt = |tag: u64, t: f64, cut: bool| {
            let mut events = vec![
                TraceEvent::GridEnqueued {
                    at: at(t),
                    invocation: tag,
                    ce: 0,
                    attempt: 1,
                },
                TraceEvent::GridStarted {
                    at: at(t + 10.0),
                    invocation: tag,
                    ce: 0,
                },
                TraceEvent::GridLinkTransfer {
                    at: at(t + 10.0),
                    invocation: tag,
                    ce: 0,
                    bytes_in: 700,
                    bytes_out: 300,
                    stage_in_secs: 3.0,
                    stage_out_secs: 1.0,
                },
            ];
            if !cut {
                events.push(TraceEvent::GridFinished {
                    at: at(t + 30.0),
                    invocation: tag,
                    ce: 0,
                    success: true,
                });
            }
            events
        };
        let submitted = |invocation: u64| TraceEvent::JobSubmitted {
            at: at(0.0),
            invocation,
            processor: processor(),
            grid: true,
            batched: 1,
        };
        let delivered = |t: f64, invocation: u64, success: bool| TraceEvent::GridDelivered {
            at: at(t),
            invocation,
            success,
        };
        let grid_cancelled = |t: f64, invocation: u64| TraceEvent::GridCancelled {
            at: at(t),
            invocation,
        };
        let completed = |t: f64, invocation: u64| TraceEvent::JobCompleted {
            at: at(t),
            invocation,
            processor: processor(),
        };
        let cancelled = |t: f64, invocation: u64, reason: &'static str| TraceEvent::JobCancelled {
            at: at(t),
            invocation,
            processor: processor(),
            reason,
        };

        // 1: one attempt, delivered.
        let mut events = vec![submitted(1)];
        events.extend(attempt(1, 0.0, false));
        events.extend([delivered(31.0, 1, true), completed(31.0, 1)]);
        // 2: timed out mid-run, resubmitted under the fresh tag 1002.
        events.push(submitted(2));
        events.extend(attempt(2, 0.0, true));
        events.push(grid_cancelled(100.0, 2));
        events.extend(attempt(1002, 100.0, false));
        events.extend([delivered(131.0, 1002, true), completed(131.0, 2)]);
        // 3: the replica 1003 loses to the original attempt.
        events.push(submitted(3));
        events.extend(attempt(3, 0.0, false));
        events.extend(attempt(1003, 15.0, true));
        events.extend([
            delivered(31.0, 3, true),
            grid_cancelled(31.0, 1003),
            cancelled(31.0, 1003, "superseded"),
            completed(31.0, 3),
        ]);
        // 4: the replica 1004 wins; the loser carries the logical id
        // and is cancelled before the invocation completes.
        events.push(submitted(4));
        events.extend(attempt(4, 50.0, true));
        events.extend(attempt(1004, 0.0, false));
        events.extend([
            delivered(31.0, 1004, true),
            grid_cancelled(31.0, 4),
            cancelled(31.0, 4, "superseded"),
            completed(31.0, 4),
        ]);
        // 5: failed for good.
        events.push(submitted(5));
        events.extend(attempt(5, 0.0, false));
        events.extend([
            delivered(31.0, 5, false),
            TraceEvent::JobFailed {
                at: at(31.0),
                invocation: 5,
                processor: processor(),
                error: "boom".into(),
            },
        ]);
        // 6: drained by an abort while queued. 7: answered by the data
        // manager, no grid event at all.
        events.extend([
            submitted(6),
            TraceEvent::GridEnqueued {
                at: at(1.0),
                invocation: 6,
                ce: 0,
                attempt: 1,
            },
            grid_cancelled(2.0, 6),
            cancelled(2.0, 6, "abort"),
            TraceEvent::CacheHit {
                at: at(5.0),
                invocation: 7,
                processor: processor(),
                outputs: 1,
                transfer_seconds: 2.0,
            },
            completed(7.0, 7),
        ]);

        let mut sink = TimelineSink::new();
        for event in &events {
            sink.record(event);
        }
        let state = sink.state();
        let state = state.lock().unwrap();
        assert!(state.marks.is_empty(), "{:?}", state.marks);
        assert!(state.services.is_empty(), "{:?}", state.services);
        let stats = &state.stats;
        // Eight attempts started (10 s queued, 4 s of transfers each);
        // the five that finished computed 20 s − 4 s.
        assert_eq!(stats.queue_wait_secs, 80.0);
        assert_eq!(stats.transfer_secs, 32.0);
        assert_eq!(stats.compute_secs, 80.0);
        assert_eq!(stats.total_link_bytes(), 8000);
        assert_eq!(
            (stats.completed, stats.failed, stats.cancelled),
            (5, 1, 3),
            "{stats:?}"
        );
        let durations: Vec<(u64, f64)> = stats.service_durations["svc"]
            .iter()
            .map(|d| (d.invocation, d.secs))
            .collect();
        assert_eq!(
            durations,
            [(1, 31.0), (2, 131.0), (3, 31.0), (4, 31.0), (7, 2.0)]
        );
        assert_eq!(stats.t_end, 131.0);
    }

    #[test]
    fn ce_utilization_integrates_busy_levels() {
        use moteur_gridsim::SimTime;
        let t = SimTime::from_secs_f64;
        let mut sink = TimelineSink::new();
        let cap = |at: f64, busy: usize, queued_user: usize| TraceEvent::CeCapacity {
            at: t(at),
            ce: 0,
            busy,
            queued: queued_user,
            queued_user,
            slots: 2,
            up: true,
        };
        sink.record(&cap(0.0, 2, 3));
        sink.record(&cap(50.0, 1, 0));
        sink.record(&cap(100.0, 0, 0));
        let (_, stats) = sink.snapshot();
        // 2 slots busy for 50s + 1 slot for 50s = 150 slot-seconds of a
        // 200 slot-second budget.
        let u = stats.ce_utilization()[&0];
        assert!((u - 0.75).abs() < 1e-9, "utilization {u}");
        assert_eq!(stats.ces[&0].peak_queue_depth, 3);
    }
}
