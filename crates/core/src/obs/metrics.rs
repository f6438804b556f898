//! Metrics derived from the event stream: monotonic counters, gauges
//! with full timelines, and fixed-bucket histograms, exported as one
//! JSON snapshot.
//!
//! [`MetricsSink`] is an [`EventSink`] that folds [`TraceEvent`]s into
//! a shared [`MetricsRegistry`]:
//!
//! - one counter per event kind (`job_submitted`, `grid_delivered`, …);
//! - `inflight.<service>` and `inflight_total` gauges tracking DP depth;
//! - `queue_depth.ce<N>` / `busy.ce<N>` gauges from CE capacity samples
//!   (user jobs only, so they return to zero when a workload drains);
//! - a `grid_overhead_secs` histogram of per-job grid overhead
//!   (submission + brokering + queue wait + notification), the paper's
//!   central nuisance variable.

use super::json::{array, JsonObject};
use super::{EventSink, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// An instantaneous value with its peak and full history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    pub current: i64,
    pub peak: i64,
    /// `(seconds, value)` after every change, in time order.
    pub timeline: Vec<(f64, i64)>,
}

impl Gauge {
    fn update(&mut self, at: f64, value: i64) {
        self.current = value;
        self.peak = self.peak.max(value);
        self.timeline.push((at, value));
    }
}

/// Histogram over fixed, caller-chosen bucket upper bounds (the last
/// bucket is the implicit `+inf` overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Histogram {
    /// `bounds` must be strictly increasing; bucket `i` counts values
    /// `<= bounds[i]` (and greater than the previous bound).
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Buckets sized for grid overheads: seconds to about an hour.
    pub fn overhead_buckets() -> Self {
        Self::with_bounds(vec![
            15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3840.0,
        ])
    }

    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket upper bounds (the overflow bucket's `+inf` is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the containing bucket, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if target <= next as f64 {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                let frac = (target - cumulative as f64) / c as f64;
                let v = lo + (hi - lo) * frac;
                return v.clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }
}

/// `map[name]`, inserted from `make` when absent. The key is looked up
/// first: a metric is created once and updated per event, and
/// `entry(name.to_string())` would allocate the key on every update.
pub(super) fn entry<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    name: &str,
    make: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), make());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// All metrics of one run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    /// Latest virtual time observed on any event, in seconds — the
    /// timestamp the OpenMetrics exposition stamps every sample with.
    latest: f64,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the registry's virtual clock to at least `at` seconds.
    pub fn touch(&mut self, at: f64) {
        if at > self.latest {
            self.latest = at;
        }
    }

    /// Latest virtual time observed, in seconds (0 before any event).
    pub fn latest(&self) -> f64 {
        self.latest
    }

    pub fn inc(&mut self, name: &str, by: u64) {
        *entry(&mut self.counters, name, || 0) += by;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&String, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    pub fn gauge_add(&mut self, name: &str, at: f64, delta: i64) {
        let g = entry(&mut self.gauges, name, Gauge::default);
        let value = g.current + delta;
        g.update(at, value);
    }

    pub fn gauge_set(&mut self, name: &str, at: f64, value: i64) {
        entry(&mut self.gauges, name, Gauge::default).update(at, value);
    }

    pub fn gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&String, &Gauge)> {
        self.gauges.iter()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&String, &Histogram)> {
        self.histograms.iter()
    }

    pub fn observe(&mut self, name: &str, make: impl FnOnce() -> Histogram, value: f64) {
        entry(&mut self.histograms, name, make).observe(value);
    }

    /// Full snapshot as a JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`.
    pub fn to_json(&self) -> String {
        let counters = {
            let mut o = JsonObject::new();
            for (k, v) in &self.counters {
                o = o.uint(k, *v);
            }
            o.finish()
        };
        let gauges = {
            let mut o = JsonObject::new();
            for (k, g) in &self.gauges {
                let timeline = array(
                    g.timeline
                        .iter()
                        .map(|(t, v)| format!("[{},{}]", super::json::num(*t), v)),
                );
                o = o.raw(
                    k,
                    &JsonObject::new()
                        .int("current", g.current)
                        .int("peak", g.peak)
                        .raw("timeline", &timeline)
                        .finish(),
                );
            }
            o.finish()
        };
        let histograms = {
            let mut o = JsonObject::new();
            for (k, h) in &self.histograms {
                let bounds = array(h.bounds.iter().map(|b| super::json::num(*b)));
                let counts = array(h.counts.iter().map(std::string::ToString::to_string));
                o = o.raw(
                    k,
                    &JsonObject::new()
                        .uint("count", h.count)
                        .num("sum", h.sum)
                        .num("mean", h.mean())
                        .num("min", if h.count == 0 { 0.0 } else { h.min })
                        .num("max", if h.count == 0 { 0.0 } else { h.max })
                        .num("p50", h.quantile(0.50))
                        .num("p95", h.quantile(0.95))
                        .num("p99", h.quantile(0.99))
                        .raw("bounds", &bounds)
                        .raw("counts", &counts)
                        .finish(),
                );
            }
            o.finish()
        };
        JsonObject::new()
            .raw("counters", &counters)
            .raw("gauges", &gauges)
            .raw("histograms", &histograms)
            .finish()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct JobTimes {
    submitted: Option<f64>,
    started: Option<f64>,
    finished: Option<f64>,
}

/// Folds the event stream into a shared [`MetricsRegistry`].
#[derive(Debug)]
pub struct MetricsSink {
    registry: Arc<Mutex<MetricsRegistry>>,
    times: HashMap<u64, JobTimes>,
    /// Logical invocations currently holding an inflight-gauge unit,
    /// with the processor whose per-service gauge they incremented.
    /// One attempt tag = one gauge increment: fault-tolerance events
    /// (backoff deferrals, replicas, superseded-replica cancellations)
    /// reference tags that were never inserted here, so they cannot
    /// double-count — a decrement happens only when the tag that
    /// incremented is removed.
    live: HashMap<u64, String>,
}

impl MetricsSink {
    /// Returns the sink and the shared registry to snapshot afterwards.
    pub fn new() -> (Self, Arc<Mutex<MetricsRegistry>>) {
        let registry = Arc::new(Mutex::new(MetricsRegistry::new()));
        (
            MetricsSink {
                registry: registry.clone(),
                times: HashMap::new(),
                live: HashMap::new(),
            },
            registry,
        )
    }
}

impl EventSink for MetricsSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at().as_secs_f64();
        let mut reg = self.registry.lock().expect("metrics registry lock");
        reg.touch(at);
        reg.inc(event.kind(), 1);
        match event {
            TraceEvent::JobSubmitted {
                invocation,
                processor,
                ..
            } => {
                if self.live.insert(*invocation, processor.clone()).is_none() {
                    reg.gauge_add("inflight_total", at, 1);
                    reg.gauge_add(&format!("inflight.{processor}"), at, 1);
                }
                self.times.entry(*invocation).or_default().submitted = Some(at);
            }
            // A cache hit replaces JobSubmitted for its invocation: the
            // matching JobCompleted still fires, so the inflight gauges
            // must be incremented here to stay balanced.
            TraceEvent::CacheHit {
                invocation,
                processor,
                ..
            } => {
                if self.live.insert(*invocation, processor.clone()).is_none() {
                    reg.gauge_add("inflight_total", at, 1);
                    reg.gauge_add(&format!("inflight.{processor}"), at, 1);
                }
                self.times.entry(*invocation).or_default().submitted = Some(at);
            }
            // Terminal events release the inflight unit — but only the
            // tag that acquired one. A `JobCancelled` for a superseded
            // replica carries the replica's fresh tag (never inserted),
            // so the logical invocation's unit survives until its own
            // terminal event; an abort-drain cancellation carries the
            // logical tag and correctly releases it.
            TraceEvent::JobCompleted { invocation, .. }
            | TraceEvent::JobFailed { invocation, .. }
            | TraceEvent::JobCancelled { invocation, .. } => {
                if let Some(processor) = self.live.remove(invocation) {
                    reg.gauge_add("inflight_total", at, -1);
                    reg.gauge_add(&format!("inflight.{processor}"), at, -1);
                }
            }
            TraceEvent::GridSubmitted { invocation, .. } => {
                self.times.entry(*invocation).or_default().submitted = Some(at);
            }
            TraceEvent::GridStarted { invocation, .. } => {
                self.times.entry(*invocation).or_default().started = Some(at);
            }
            TraceEvent::GridFinished { invocation, .. } => {
                self.times.entry(*invocation).or_default().finished = Some(at);
            }
            TraceEvent::GridDelivered { invocation, .. } => {
                if let Some(t) = self.times.remove(invocation) {
                    if let (Some(sub), Some(start), Some(fin)) =
                        (t.submitted, t.started, t.finished)
                    {
                        // Grid overhead = everything but execution:
                        // wait before start + notification after finish.
                        let overhead = (start - sub) + (at - fin);
                        reg.observe("grid_overhead_secs", Histogram::overhead_buckets, overhead);
                    }
                }
            }
            TraceEvent::CeCapacity {
                ce,
                busy,
                queued_user,
                ..
            } => {
                reg.gauge_set(&format!("queue_depth.ce{ce}"), at, *queued_user as i64);
                reg.gauge_set(&format!("busy.ce{ce}"), at, *busy as i64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moteur_gridsim::SimTime;

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::with_bounds(vec![10.0, 20.0, 40.0]);
        for v in [5.0, 6.0, 15.0, 25.0, 35.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert!((h.mean() - 136.0 / 6.0).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 50.0, "max clamps the overflow bucket");
        assert!(h.quantile(0.0) >= 5.0);
        assert_eq!(Histogram::with_bounds(vec![1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn gauge_tracks_peak_and_timeline() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_add("g", 0.0, 2);
        reg.gauge_add("g", 1.0, 3);
        reg.gauge_add("g", 2.0, -5);
        let g = reg.gauge("g").unwrap();
        assert_eq!(g.current, 0);
        assert_eq!(g.peak, 5);
        assert_eq!(g.timeline, vec![(0.0, 2), (1.0, 5), (2.0, 0)]);
    }

    #[test]
    fn sink_derives_overhead_from_lifecycle() {
        let (mut sink, registry) = MetricsSink::new();
        let t = SimTime::from_secs_f64;
        sink.record(&TraceEvent::GridSubmitted {
            at: t(0.0),
            invocation: 1,
            name: "j".into(),
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(100.0),
            invocation: 1,
            ce: 0,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(160.0),
            invocation: 1,
            ce: 0,
            success: true,
        });
        sink.record(&TraceEvent::GridDelivered {
            at: t(165.0),
            invocation: 1,
            success: true,
        });
        let reg = registry.lock().unwrap();
        assert_eq!(reg.counter("grid_delivered"), 1);
        let h = reg.histogram("grid_overhead_secs").unwrap();
        assert_eq!(h.count, 1);
        // Overhead: 100 wait + 5 notify = 105.
        assert!((h.sum - 105.0).abs() < 1e-9);
    }

    #[test]
    fn inflight_releases_once_per_attempt_tag() {
        let (mut sink, registry) = MetricsSink::new();
        let t = SimTime::from_secs_f64;
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 1,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        // Fault-tolerance churn: a timeout replica (fresh tag 50) is
        // launched and later cancelled as superseded. Neither event
        // may move the inflight gauges — tag 50 never incremented.
        sink.record(&TraceEvent::JobReplicated {
            at: t(10.0),
            invocation: 1,
            processor: "p".into(),
            replica: 1,
            attempt: 50,
        });
        sink.record(&TraceEvent::JobCancelled {
            at: t(20.0),
            invocation: 50,
            processor: "p".into(),
            reason: "superseded",
        });
        {
            let reg = registry.lock().unwrap();
            assert_eq!(reg.gauge("inflight_total").unwrap().current, 1);
        }
        // The logical invocation's terminal event releases exactly one
        // unit; the gauge returns to zero, not below.
        sink.record(&TraceEvent::JobCompleted {
            at: t(30.0),
            invocation: 1,
            processor: "p".into(),
        });
        let reg = registry.lock().unwrap();
        let g = reg.gauge("inflight_total").unwrap();
        assert_eq!(g.current, 0, "balanced");
        assert_eq!(g.peak, 1, "no double count");
        assert_eq!(reg.gauge("inflight.p").unwrap().current, 0);
        assert!((reg.latest() - 30.0).abs() < 1e-9, "virtual clock tracked");
    }

    #[test]
    fn abort_cancellation_releases_the_inflight_unit() {
        let (mut sink, registry) = MetricsSink::new();
        let t = SimTime::from_secs_f64;
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 3,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&TraceEvent::JobCancelled {
            at: t(5.0),
            invocation: 3,
            processor: "p".into(),
            reason: "abort",
        });
        let reg = registry.lock().unwrap();
        assert_eq!(reg.gauge("inflight_total").unwrap().current, 0);
    }

    #[test]
    fn snapshot_is_valid_shaped_json() {
        let (mut sink, registry) = MetricsSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: SimTime::ZERO,
            invocation: 0,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        let json = registry.lock().unwrap().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"job_submitted\":1"));
        assert!(json.contains("\"inflight.p\""));
        assert!(json.ends_with('}'));
        // Balanced braces/brackets — cheap structural sanity check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
