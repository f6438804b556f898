//! Observability: structured event tracing, metrics and trace export
//! for the enactor and the grid simulator.
//!
//! The paper's analyses (§4–§5) all reduce to questions about *when
//! things happened*: how long jobs waited in batch queues, how deep the
//! DP/SP pipelines ran, which service dominated the makespan. This
//! module captures that information as a stream of [`TraceEvent`]s
//! covering the full lifecycle —
//!
//! ```text
//! enactor:  TokenEmitted → MatchFired / BarrierReleased /
//!           GroupComposed → JobSubmitted → (JobResubmitted)* →
//!           JobCompleted | JobFailed
//!           (with a data manager: CacheMiss before JobSubmitted, or
//!           CacheHit → JobCompleted when the grid job is elided)
//! grid:     Grid(SimEvent): JobSubmitted → JobMatched → JobEnqueued →
//!           JobStarted → JobFinished → (JobResubmitted → …)* →
//!           JobDelivered | JobCancelled, plus CeCapacity samples
//! ```
//!
//! — delivered to pluggable [`EventSink`]s through a cheap [`Obs`]
//! handle. The grid half is the simulator's own [`SimEvent`], carried
//! as is. The two layers correlate through the invocation id: the
//! enactor tags every grid job with it ([`crate::backend::SimBackend`]
//! puts it in [`moteur_gridsim::GridJobSpec::with_tag`]), and the
//! simulator echoes it back as every [`SimEvent`]'s `tag`.
//!
//! Tracing is strictly pay-for-use: [`Obs::off`] keeps every emission
//! site a single branch, and events are built lazily (closures passed to
//! [`Obs::emit`]) so the hot path allocates nothing when tracing is off.
//!
//! Consumers:
//!
//! - [`crate::RingBufferSink`], [`crate::JsonlSink`] — in-memory ring
//!   buffer, JSONL writer;
//! - [`crate::MetricsSink`] — counters, gauges with timelines, fixed-bucket
//!   histograms, exported as one JSON snapshot;
//! - [`crate::chrome_trace_with_metrics`] — Chrome trace-event
//!   (Perfetto-loadable) export of the DP/SP pipeline structure;
//! - [`crate::critical_path`] — critical-path analysis of a finished run.

pub(crate) mod chrome;
pub(crate) mod critical;
pub(crate) mod detect;
pub(crate) mod drift;
pub mod json;
pub(crate) mod lifecycle;
pub(crate) mod metrics;
pub(crate) mod openmetrics;
pub(crate) mod prof;
pub(crate) mod sinks;
pub(crate) mod span;
pub mod timeline;

use json::{key, Line};
use moteur_gridsim::{JobOutcome, SimEvent, SimTime};
use std::sync::{Arc, Mutex};

/// One observable transition, at enactor or grid level. `at` is always
/// the backend clock (virtual time for simulated backends, wall time
/// for [`crate::backend::LocalBackend`]). A `processor` is the shared
/// name the compiled workflow interned, so building an event copies no
/// name.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A processor (or source) delivered a token downstream.
    TokenEmitted {
        at: SimTime,
        processor: Arc<str>,
        port: String,
        index: String,
    },
    /// An iteration-strategy match completed: a service has a full
    /// input set and may fire.
    MatchFired {
        at: SimTime,
        processor: Arc<str>,
        index: String,
        inputs: usize,
    },
    /// A grouped (JG) job was composed from several workflow stages.
    GroupComposed {
        at: SimTime,
        processor: Arc<str>,
        stages: usize,
        commands: usize,
    },
    /// A synchronization barrier released: all upstream streams
    /// exhausted, the collected inputs fired as one invocation.
    BarrierReleased {
        at: SimTime,
        processor: Arc<str>,
        inputs: usize,
    },
    /// The enactor handed an invocation to the backend. `batched` is
    /// the number of workflow invocations the job carries (>1 under
    /// data batching).
    JobSubmitted {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        grid: bool,
        batched: usize,
    },
    /// Enactor-level resubmission of a terminally failed grid job.
    /// `attempt` is the backend tag of the new attempt: equal to
    /// `invocation` for failure resubmits (the logical tag is free
    /// again), a fresh tag for timeout resubmits whose cancelled
    /// predecessor may still surface.
    JobResubmitted {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        retry: u32,
        attempt: u64,
    },
    /// The invocation completed; its outputs were routed. Terminal.
    JobCompleted {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        /// What its invocation records need; not rendered in the JSONL.
        completion: Box<Completion>,
    },
    /// The invocation failed beyond the retry budget. Terminal.
    JobFailed {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        error: String,
    },
    /// The invocation outlived its timeout policy; the enactor reacted
    /// (`action` is `"resubmit"` or `"replicate"`).
    JobTimedOut {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        timeout_secs: f64,
        action: &'static str,
    },
    /// A speculative replica was launched for a still-running
    /// invocation (`replica` counts from 1). First completion wins.
    /// `attempt` is the replica's fresh backend tag: grid-level events
    /// for the replica carry it, not the logical invocation id.
    JobReplicated {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        replica: u32,
        attempt: u64,
    },
    /// The invocation was cancelled — a losing replica after the
    /// winner completed, or a pending job drained on workflow abort.
    /// Terminal.
    JobCancelled {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        reason: &'static str,
    },
    /// A computing element was blacklisted after repeated failures;
    /// the backend stops routing new jobs to it.
    CeBlacklisted {
        at: SimTime,
        ce: usize,
        failures: u32,
    },
    /// The data manager answered the invocation from its cache: the
    /// grid job is elided and replaced by a simulated fetch of the
    /// `outputs` stored results, costing `transfer_seconds`.
    CacheHit {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        outputs: usize,
        transfer_seconds: f64,
    },
    /// The data manager had no usable entry for the invocation; the
    /// job proceeds to the backend as usual.
    CacheMiss {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
    },
    /// The enactor bound `bytes` of file data to input `port` of
    /// `processor` while composing a grid job: the observed counterpart
    /// of `moteur plan`'s static per-edge transfer bounds, keyed by
    /// consumer and port. One event per staged token; whole-stream
    /// barrier fetches emit one event per collected file.
    EdgeStaged {
        at: SimTime,
        invocation: u64,
        processor: Arc<str>,
        port: String,
        bytes: u64,
    },
    /// A grid-level transition, as the simulator emitted it: its `tag`
    /// is the backend tag of the attempt (the invocation id, or a
    /// replica's or timeout resubmit's fresh tag).
    Grid(SimEvent),
    /// Periodic enactor-side resource gauges: invocations in flight,
    /// backoff-deferred resubmissions, quarantined items, and the data
    /// manager's occupancy (zero when no store is attached).
    EnactorGauges {
        at: SimTime,
        inflight: usize,
        deferred: usize,
        quarantined: usize,
        cache_entries: usize,
        cache_bytes: u64,
    },
    /// Streaming enactment: a processor's downstream port filled to
    /// capacity and the processor stopped firing (back-pressure).
    /// Emitted once per transition into the suspended state.
    PortSuspended {
        at: SimTime,
        processor: Arc<str>,
        /// Deepest outgoing-edge occupancy at suspension.
        depth: usize,
        capacity: usize,
    },
    /// Streaming enactment: a suspended processor's downstream port
    /// drained below capacity and it resumed firing. Emitted once per
    /// transition out of the suspended state.
    PortResumed {
        at: SimTime,
        processor: Arc<str>,
        /// Deepest outgoing-edge occupancy at resumption.
        depth: usize,
        capacity: usize,
    },
    /// The run's projected completion (linear burn rate over completed
    /// invocations) exceeded the predicted makespan by the configured
    /// factor. Emitted once, at the first breach.
    SloBreached {
        at: SimTime,
        predicted_secs: f64,
        projected_secs: f64,
        factor: f64,
        completed: usize,
        expected: usize,
    },
}

/// The payload of [`TraceEvent::JobCompleted`] a [`crate::RecordSink`]
/// turns into one invocation record per data index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Completion {
    /// When the enactor first submitted the invocation. Every producer
    /// of `JobCompleted` fills it: the timeline's durations end here.
    pub submitted: SimTime,
    /// The winning attempt's execution window.
    pub started: SimTime,
    pub finished: SimTime,
    /// Enactor-level retries it took.
    pub retries: u32,
    /// The data index of every workflow invocation the job carried.
    pub indices: Vec<crate::token::DataIndex>,
}

/// Declares [`KINDS`] and each kind's line head from one list, so a
/// kind is named in one place.
macro_rules! kinds {
    ($($kind:literal,)*) => {
        /// Every [`TraceEvent::kind`], in declaration order (a grid
        /// event's kinds where `Grid` stands).
        pub(crate) const KINDS: [&str; 29] = [$($kind,)*];

        /// Each kind's JSONL line head, by [`TraceEvent::kind_index`]:
        /// the line up to the value of its `t` field.
        const HEADS: [&str; 29] = [$(concat!("{\"type\":\"", $kind, "\",\"t\":"),)*];
    };
}

kinds! {
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
}

impl TraceEvent {
    /// Stable snake_case tag, used as the JSON `type` field and as the
    /// metrics counter key.
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// Position of [`TraceEvent::kind`] in [`KINDS`]: a dense index a
    /// sink can keep per-kind state under.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            TraceEvent::TokenEmitted { .. } => 0,
            TraceEvent::MatchFired { .. } => 1,
            TraceEvent::GroupComposed { .. } => 2,
            TraceEvent::BarrierReleased { .. } => 3,
            TraceEvent::JobSubmitted { .. } => 4,
            TraceEvent::JobResubmitted { .. } => 5,
            TraceEvent::JobCompleted { .. } => 6,
            TraceEvent::JobFailed { .. } => 7,
            TraceEvent::JobTimedOut { .. } => 8,
            TraceEvent::JobReplicated { .. } => 9,
            TraceEvent::JobCancelled { .. } => 10,
            TraceEvent::CeBlacklisted { .. } => 11,
            TraceEvent::CacheHit { .. } => 12,
            TraceEvent::CacheMiss { .. } => 13,
            TraceEvent::EdgeStaged { .. } => 14,
            TraceEvent::Grid(e) => match e {
                SimEvent::JobSubmitted { .. } => 15,
                SimEvent::JobMatched { .. } => 16,
                SimEvent::JobEnqueued { .. } => 17,
                SimEvent::JobStarted { .. } => 18,
                SimEvent::JobFinished { .. } => 19,
                SimEvent::JobResubmitted { .. } => 20,
                SimEvent::JobDelivered { .. } => 21,
                SimEvent::JobCancelled { .. } => 22,
                SimEvent::CeCapacity { .. } => 23,
                SimEvent::LinkTransfer { .. } => 24,
            },
            TraceEvent::EnactorGauges { .. } => 25,
            TraceEvent::PortSuspended { .. } => 26,
            TraceEvent::PortResumed { .. } => 27,
            TraceEvent::SloBreached { .. } => 28,
        }
    }

    /// Backend-clock timestamp of the transition.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::TokenEmitted { at, .. }
            | TraceEvent::MatchFired { at, .. }
            | TraceEvent::GroupComposed { at, .. }
            | TraceEvent::BarrierReleased { at, .. }
            | TraceEvent::JobSubmitted { at, .. }
            | TraceEvent::JobResubmitted { at, .. }
            | TraceEvent::JobCompleted { at, .. }
            | TraceEvent::JobFailed { at, .. }
            | TraceEvent::JobTimedOut { at, .. }
            | TraceEvent::JobReplicated { at, .. }
            | TraceEvent::JobCancelled { at, .. }
            | TraceEvent::CeBlacklisted { at, .. }
            | TraceEvent::CacheHit { at, .. }
            | TraceEvent::CacheMiss { at, .. }
            | TraceEvent::EdgeStaged { at, .. }
            | TraceEvent::EnactorGauges { at, .. }
            | TraceEvent::PortSuspended { at, .. }
            | TraceEvent::PortResumed { at, .. }
            | TraceEvent::SloBreached { at, .. } => *at,
            TraceEvent::Grid(e) => e.at(),
        }
    }

    /// The invocation id, for job-lifecycle events (a grid event's
    /// `tag`).
    pub fn invocation(&self) -> Option<u64> {
        match self {
            TraceEvent::JobSubmitted { invocation, .. }
            | TraceEvent::JobResubmitted { invocation, .. }
            | TraceEvent::JobCompleted { invocation, .. }
            | TraceEvent::JobFailed { invocation, .. }
            | TraceEvent::JobTimedOut { invocation, .. }
            | TraceEvent::JobReplicated { invocation, .. }
            | TraceEvent::JobCancelled { invocation, .. }
            | TraceEvent::CacheHit { invocation, .. }
            | TraceEvent::CacheMiss { invocation, .. }
            | TraceEvent::EdgeStaged { invocation, .. } => Some(*invocation),
            TraceEvent::Grid(e) => e.tag(),
            _ => None,
        }
    }

    /// True for the events that end an invocation's enactor-level
    /// lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TraceEvent::JobCompleted { .. }
                | TraceEvent::JobFailed { .. }
                | TraceEvent::JobCancelled { .. }
        )
    }

    /// One-line JSON rendering (the JSONL schema): `type`, `t`, the
    /// `invocation` when there is one, then the variant's own fields.
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(json::LINE_CAPACITY);
        self.write_json(&mut line);
        line
    }

    /// Append [`TraceEvent::to_json`]'s line to `out`, so a writer that
    /// keeps one buffer renders every event without allocating. One
    /// pass: the kind's constant head, then each field after its
    /// pre-quoted key.
    pub fn write_json(&self, out: &mut String) {
        let mut line = Line::open(out, HEADS[self.kind_index()]).secs(self.at().0);
        if let Some(invocation) = self.invocation() {
            line = line.uint(key!("invocation"), invocation);
        }
        match self {
            TraceEvent::TokenEmitted {
                processor,
                port,
                index,
                ..
            } => line
                .str(key!("processor"), processor)
                .str(key!("port"), port)
                .str(key!("index"), index),
            TraceEvent::MatchFired {
                processor,
                index,
                inputs,
                ..
            } => line
                .str(key!("processor"), processor)
                .str(key!("index"), index)
                .uint(key!("inputs"), *inputs as u64),
            TraceEvent::GroupComposed {
                processor,
                stages,
                commands,
                ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("stages"), *stages as u64)
                .uint(key!("commands"), *commands as u64),
            TraceEvent::BarrierReleased {
                processor, inputs, ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("inputs"), *inputs as u64),
            TraceEvent::JobSubmitted {
                processor,
                grid,
                batched,
                ..
            } => line
                .str(key!("processor"), processor)
                .bool(key!("grid"), *grid)
                .uint(key!("batched"), *batched as u64),
            TraceEvent::JobResubmitted {
                processor,
                retry,
                attempt,
                ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("retry"), u64::from(*retry))
                .uint(key!("attempt"), *attempt),
            TraceEvent::JobCompleted { processor, .. }
            | TraceEvent::CacheMiss { processor, .. } => line.str(key!("processor"), processor),
            TraceEvent::JobFailed {
                processor, error, ..
            } => line
                .str(key!("processor"), processor)
                .str(key!("error"), error),
            TraceEvent::JobTimedOut {
                processor,
                timeout_secs,
                action,
                ..
            } => line
                .str(key!("processor"), processor)
                .num(key!("timeout_secs"), *timeout_secs)
                .str(key!("action"), action),
            TraceEvent::JobReplicated {
                processor,
                replica,
                attempt,
                ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("replica"), u64::from(*replica))
                .uint(key!("attempt"), *attempt),
            TraceEvent::JobCancelled {
                processor, reason, ..
            } => line
                .str(key!("processor"), processor)
                .str(key!("reason"), reason),
            TraceEvent::CeBlacklisted { ce, failures, .. } => line
                .uint(key!("ce"), *ce as u64)
                .uint(key!("failures"), u64::from(*failures)),
            TraceEvent::CacheHit {
                processor,
                outputs,
                transfer_seconds,
                ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("outputs"), *outputs as u64)
                .num(key!("transfer_seconds"), *transfer_seconds),
            TraceEvent::EdgeStaged {
                processor,
                port,
                bytes,
                ..
            } => line
                .str(key!("processor"), processor)
                .str(key!("port"), port)
                .uint(key!("bytes"), *bytes),
            TraceEvent::Grid(e) => grid_fields(line, e),
            TraceEvent::EnactorGauges {
                inflight,
                deferred,
                quarantined,
                cache_entries,
                cache_bytes,
                ..
            } => line
                .uint(key!("inflight"), *inflight as u64)
                .uint(key!("deferred"), *deferred as u64)
                .uint(key!("quarantined"), *quarantined as u64)
                .uint(key!("cache_entries"), *cache_entries as u64)
                .uint(key!("cache_bytes"), *cache_bytes),
            TraceEvent::PortSuspended {
                processor,
                depth,
                capacity,
                ..
            }
            | TraceEvent::PortResumed {
                processor,
                depth,
                capacity,
                ..
            } => line
                .str(key!("processor"), processor)
                .uint(key!("depth"), *depth as u64)
                .uint(key!("capacity"), *capacity as u64),
            TraceEvent::SloBreached {
                predicted_secs,
                projected_secs,
                factor,
                completed,
                expected,
                ..
            } => line
                .num(key!("predicted_secs"), *predicted_secs)
                .num(key!("projected_secs"), *projected_secs)
                .num(key!("factor"), *factor)
                .uint(key!("completed"), *completed as u64)
                .uint(key!("expected"), *expected as u64),
        }
        .close();
    }
}

/// The grid half of the JSONL schema: a simulator event's fields after
/// its head and its `tag` (rendered as the `invocation`). A CE renders
/// as its index and an outcome as `success`; the simulator's own job id
/// is not rendered.
fn grid_fields<'a>(line: Line<'a>, e: &SimEvent) -> Line<'a> {
    let success = |outcome: &JobOutcome| *outcome == JobOutcome::Success;
    match e {
        SimEvent::JobSubmitted { name, .. } => line.str(key!("name"), name),
        SimEvent::JobMatched { ce, .. } | SimEvent::JobStarted { ce, .. } => {
            line.uint(key!("ce"), ce.0 as u64)
        }
        SimEvent::JobEnqueued { ce, attempt, .. } => line
            .uint(key!("ce"), ce.0 as u64)
            .uint(key!("attempt"), u64::from(*attempt)),
        SimEvent::JobFinished { ce, outcome, .. } => line
            .uint(key!("ce"), ce.0 as u64)
            .bool(key!("success"), success(outcome)),
        SimEvent::JobResubmitted { attempt, .. } => line.uint(key!("attempt"), u64::from(*attempt)),
        SimEvent::JobDelivered { outcome, .. } => line.bool(key!("success"), success(outcome)),
        SimEvent::JobCancelled { .. } => line,
        SimEvent::CeCapacity {
            ce,
            busy,
            queued,
            queued_user,
            slots,
            up,
            ..
        } => line
            .uint(key!("ce"), ce.0 as u64)
            .uint(key!("busy"), *busy as u64)
            .uint(key!("queued"), *queued as u64)
            .uint(key!("queued_user"), *queued_user as u64)
            .uint(key!("slots"), *slots as u64)
            .bool(key!("up"), *up),
        SimEvent::LinkTransfer {
            ce,
            bytes_in,
            bytes_out,
            stage_in_secs,
            stage_out_secs,
            ..
        } => line
            .uint(key!("ce"), ce.0 as u64)
            .uint(key!("bytes_in"), *bytes_in)
            .uint(key!("bytes_out"), *bytes_out)
            .num(key!("stage_in_secs"), *stage_in_secs)
            .num(key!("stage_out_secs"), *stage_out_secs),
    }
}

/// A consumer of [`TraceEvent`]s. Sinks are driven from one thread at a
/// time (the [`Obs`] handle serialises access), but must be `Send` so
/// an `Obs` can cross thread boundaries.
pub trait EventSink: Send {
    fn record(&mut self, event: &TraceEvent);

    /// Flush buffered output (files); default no-op.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Shared fan-out list behind an enabled [`Obs`] handle.
type SharedSinks = Arc<Mutex<Vec<Box<dyn EventSink>>>>;

/// Cheap, cloneable handle through which instrumented code emits
/// events. [`Obs::off`] is the zero-cost disabled state: emission sites
/// reduce to one `Option` check and never construct the event.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<SharedSinks>,
    /// Self-profiler handle carried alongside the sinks so every layer
    /// that already threads an `Obs` gets profiling for free.
    prof: prof::Prof,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("profiling", &self.prof.is_enabled())
            .finish()
    }
}

impl Obs {
    /// Tracing disabled: every emission is a no-op.
    pub fn off() -> Self {
        Obs {
            inner: None,
            prof: prof::Prof::off(),
        }
    }

    /// Tracing enabled, fanning out to `sinks`. An empty sink list
    /// degenerates to [`Obs::off`].
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        if sinks.is_empty() {
            Obs::off()
        } else {
            Obs {
                inner: Some(Arc::new(Mutex::new(sinks))),
                prof: prof::Prof::off(),
            }
        }
    }

    /// Attach a profiler handle. Works on both enabled and disabled
    /// handles — profiling and tracing are independent axes.
    #[must_use]
    pub fn with_prof(mut self, prof: prof::Prof) -> Self {
        self.prof = prof;
        self
    }

    /// The attached profiler ([`prof::Prof::off`] unless installed via
    /// [`Obs::with_prof`]). Cheap to clone; scopes taken from it are
    /// no-ops when profiling is disabled.
    pub fn prof(&self) -> &prof::Prof {
        &self.prof
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event, building it only when tracing is enabled.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.record(&build());
        }
    }

    /// Record a pre-built event (used by forwarding adapters).
    pub fn record(&self, event: &TraceEvent) {
        if let Some(inner) = &self.inner {
            let _prof = self.prof.scope(prof::Subsystem::Sinks);
            let mut sinks = inner.lock().expect("obs sink lock poisoned");
            for sink in sinks.iter_mut() {
                sink.record(event);
            }
        }
    }

    /// Flush every sink.
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            let mut sinks = inner.lock().expect("obs sink lock poisoned");
            for sink in sinks.iter_mut() {
                sink.flush()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_builds_events() {
        let obs = Obs::off();
        let mut built = false;
        obs.emit(|| {
            built = true;
            TraceEvent::TokenEmitted {
                at: SimTime::ZERO,
                processor: "p".into(),
                port: "out".into(),
                index: "[0]".into(),
            }
        });
        assert!(!built, "disabled obs must not invoke the builder");
        assert!(!obs.enabled());
    }

    #[test]
    fn empty_sink_list_is_off() {
        assert!(!Obs::new(Vec::new()).enabled());
    }

    #[test]
    fn json_schema_is_stable() {
        let e = TraceEvent::JobSubmitted {
            at: SimTime::from_secs_f64(1.5),
            invocation: 7,
            processor: "crestLines".into(),
            grid: true,
            batched: 1,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"job_submitted\",\"t\":1.5,\"invocation\":7,\
             \"processor\":\"crestLines\",\"grid\":true,\"batched\":1}"
        );
        assert_eq!(e.kind(), "job_submitted");
        assert_eq!(e.invocation(), Some(7));
        assert!(!e.is_terminal());
        assert!(TraceEvent::JobCompleted {
            at: SimTime::ZERO,
            invocation: 7,
            processor: "x".into(),
            completion: Box::default(),
        }
        .is_terminal());
    }

    #[test]
    fn the_completion_payload_is_boxed_and_not_rendered() {
        // Unboxed, the payload would make every event 128 bytes.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 80);
        let e = TraceEvent::JobCompleted {
            at: SimTime::from_secs_f64(3.0),
            invocation: 2,
            processor: "p".into(),
            completion: Box::new(Completion {
                retries: 4,
                indices: vec![crate::token::DataIndex::single(1)],
                ..Completion::default()
            }),
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"job_completed\",\"t\":3,\"invocation\":2,\"processor\":\"p\"}"
        );
    }

    /// One event of every variant, in [`KINDS`] order.
    fn one_of_each() -> Vec<TraceEvent> {
        let at = SimTime::ZERO;
        let p = || Arc::<str>::from("p");
        vec![
            TraceEvent::TokenEmitted {
                at,
                processor: p(),
                port: "out".into(),
                index: "[0]".into(),
            },
            TraceEvent::MatchFired {
                at,
                processor: p(),
                index: "[0]".into(),
                inputs: 1,
            },
            TraceEvent::GroupComposed {
                at,
                processor: p(),
                stages: 2,
                commands: 2,
            },
            TraceEvent::BarrierReleased {
                at,
                processor: p(),
                inputs: 1,
            },
            TraceEvent::JobSubmitted {
                at,
                invocation: 1,
                processor: p(),
                grid: true,
                batched: 1,
            },
            TraceEvent::JobResubmitted {
                at,
                invocation: 1,
                processor: p(),
                retry: 1,
                attempt: 1,
            },
            TraceEvent::JobCompleted {
                at,
                invocation: 1,
                processor: p(),
                completion: Box::default(),
            },
            TraceEvent::JobFailed {
                at,
                invocation: 1,
                processor: p(),
                error: "e".into(),
            },
            TraceEvent::JobTimedOut {
                at,
                invocation: 1,
                processor: p(),
                timeout_secs: 1.0,
                action: "resubmit",
            },
            TraceEvent::JobReplicated {
                at,
                invocation: 1,
                processor: p(),
                replica: 1,
                attempt: 2,
            },
            TraceEvent::JobCancelled {
                at,
                invocation: 1,
                processor: p(),
                reason: "abort",
            },
            TraceEvent::CeBlacklisted {
                at,
                ce: 0,
                failures: 3,
            },
            TraceEvent::CacheHit {
                at,
                invocation: 1,
                processor: p(),
                outputs: 1,
                transfer_seconds: 0.0,
            },
            TraceEvent::CacheMiss {
                at,
                invocation: 1,
                processor: p(),
            },
            TraceEvent::EdgeStaged {
                at,
                invocation: 1,
                processor: p(),
                port: "in".into(),
                bytes: 1,
            },
            grid::submitted(0.0, 1),
            grid::matched(0.0, 1, 0),
            grid::enqueued(0.0, 1, 0, 1),
            grid::started(0.0, 1, 0),
            grid::finished(0.0, 1, 0, true),
            grid::resubmitted(0.0, 1, 2),
            grid::delivered(0.0, 1, true),
            grid::cancelled(0.0, 1),
            grid::capacity(0.0, 0, 1, 0, 2),
            grid::link(0.0, 1, 0, 1, 1, 1.0, 1.0),
            TraceEvent::EnactorGauges {
                at,
                inflight: 0,
                deferred: 0,
                quarantined: 0,
                cache_entries: 0,
                cache_bytes: 0,
            },
            TraceEvent::PortSuspended {
                at,
                processor: p(),
                depth: 1,
                capacity: 1,
            },
            TraceEvent::PortResumed {
                at,
                processor: p(),
                depth: 0,
                capacity: 1,
            },
            TraceEvent::SloBreached {
                at,
                predicted_secs: 1.0,
                projected_secs: 2.0,
                factor: 1.5,
                completed: 1,
                expected: 2,
            },
        ]
    }

    #[test]
    fn every_kind_index_is_its_tag_s_position_in_kinds() {
        let events = one_of_each();
        assert_eq!(events.len(), KINDS.len(), "one event per kind");
        for (position, event) in events.iter().enumerate() {
            assert_eq!(event.kind_index(), position, "{event:?}");
            assert_eq!(event.kind(), KINDS[position]);
            let line = json::JsonValue::parse(&event.to_json()).expect("event JSON");
            assert_eq!(line.str_at("type"), Some(KINDS[position]));
        }
        let tags: std::collections::BTreeSet<&str> = KINDS.into_iter().collect();
        assert_eq!(tags.len(), KINDS.len(), "each kind is its own counter");
    }

    #[test]
    fn grid_events_render_their_tag_as_the_invocation() {
        let t = grid::delivered(9.0, 42, true);
        assert_eq!(t.invocation(), Some(42));
        assert_eq!(t.kind(), "grid_delivered");
        assert_eq!(
            t.to_json(),
            "{\"type\":\"grid_delivered\",\"t\":9,\"invocation\":42,\"success\":true}"
        );
        let c = grid::capacity(0.0, 2, 1, 2, 8);
        assert_eq!(c.kind(), "ce_capacity");
        assert_eq!(c.invocation(), None);
        assert_eq!(
            c.to_json(),
            "{\"type\":\"ce_capacity\",\"t\":0,\"ce\":2,\"busy\":1,\
             \"queued\":2,\"queued_user\":2,\"slots\":8,\"up\":true}"
        );
        let t = grid::link(3.0, 7, 2, 1_000, 500, 2.0, 1.0);
        assert_eq!(t.kind(), "grid_link_transfer");
        assert_eq!(t.invocation(), Some(7));
        assert_eq!(
            t.to_json(),
            "{\"type\":\"grid_link_transfer\",\"t\":3,\"invocation\":7,\
             \"ce\":2,\"bytes_in\":1000,\"bytes_out\":500,\
             \"stage_in_secs\":2,\"stage_out_secs\":1}"
        );
    }
}

/// Terse [`TraceEvent::Grid`] constructors for the sinks' unit tests:
/// times in seconds, a CE by its index, the simulator's job id equal to
/// the tag.
#[cfg(test)]
pub(crate) mod grid {
    use super::TraceEvent;
    use moteur_gridsim::{CeId, JobId, JobOutcome, SimEvent, SimTime};

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn outcome(success: bool) -> JobOutcome {
        if success {
            JobOutcome::Success
        } else {
            JobOutcome::Failed
        }
    }

    pub(crate) fn submitted(t: f64, tag: u64) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobSubmitted {
            at: at(t),
            job: JobId(tag),
            tag,
            name: format!("j{tag}"),
        })
    }

    pub(crate) fn matched(t: f64, tag: u64, ce: usize) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobMatched {
            at: at(t),
            job: JobId(tag),
            tag,
            ce: CeId(ce),
        })
    }

    pub(crate) fn enqueued(t: f64, tag: u64, ce: usize, attempt: u32) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobEnqueued {
            at: at(t),
            job: JobId(tag),
            tag,
            ce: CeId(ce),
            attempt,
        })
    }

    pub(crate) fn started(t: f64, tag: u64, ce: usize) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobStarted {
            at: at(t),
            job: JobId(tag),
            tag,
            ce: CeId(ce),
        })
    }

    pub(crate) fn finished(t: f64, tag: u64, ce: usize, success: bool) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobFinished {
            at: at(t),
            job: JobId(tag),
            tag,
            ce: CeId(ce),
            outcome: outcome(success),
        })
    }

    pub(crate) fn resubmitted(t: f64, tag: u64, attempt: u32) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobResubmitted {
            at: at(t),
            job: JobId(tag),
            tag,
            attempt,
        })
    }

    pub(crate) fn delivered(t: f64, tag: u64, success: bool) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobDelivered {
            at: at(t),
            job: JobId(tag),
            tag,
            outcome: outcome(success),
        })
    }

    pub(crate) fn cancelled(t: f64, tag: u64) -> TraceEvent {
        TraceEvent::Grid(SimEvent::JobCancelled {
            at: at(t),
            job: JobId(tag),
            tag,
        })
    }

    /// An up CE whose whole queue is user jobs.
    pub(crate) fn capacity(
        t: f64,
        ce: usize,
        busy: usize,
        queued_user: usize,
        slots: usize,
    ) -> TraceEvent {
        TraceEvent::Grid(SimEvent::CeCapacity {
            at: at(t),
            ce: CeId(ce),
            busy,
            queued: queued_user,
            queued_user,
            slots,
            up: true,
        })
    }

    pub(crate) fn link(
        t: f64,
        tag: u64,
        ce: usize,
        bytes_in: u64,
        bytes_out: u64,
        stage_in_secs: f64,
        stage_out_secs: f64,
    ) -> TraceEvent {
        TraceEvent::Grid(SimEvent::LinkTransfer {
            at: at(t),
            job: JobId(tag),
            tag,
            ce: CeId(ce),
            bytes_in,
            bytes_out,
            stage_in_secs,
            stage_out_secs,
        })
    }
}
