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
//! grid:     GridSubmitted → GridMatched → GridEnqueued → GridStarted →
//!           GridFinished → (GridResubmitted → …)* → GridDelivered,
//!           plus CeCapacity samples
//! ```
//!
//! — delivered to pluggable [`EventSink`]s through a cheap [`Obs`]
//! handle. The two layers correlate through the invocation id: the
//! enactor tags every grid job with it ([`crate::backend::SimBackend`]
//! puts it in [`moteur_gridsim::GridJobSpec::with_tag`]), and the
//! simulator echoes it back in every [`moteur_gridsim::SimEvent`].
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
//! - [`crate::chrome_trace`] — Chrome trace-event (Perfetto-loadable) export of the
//!   DP/SP pipeline structure;
//! - [`crate::critical_path`] — critical-path analysis of a finished run.

pub(crate) mod chrome;
pub(crate) mod critical;
pub(crate) mod detect;
pub(crate) mod drift;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod openmetrics;
pub(crate) mod prof;
pub(crate) mod sinks;
pub(crate) mod span;
pub mod timeline;

use json::JsonObject;
use moteur_gridsim::{SimEvent, SimTime};
use std::sync::{Arc, Mutex};

/// One observable transition, at enactor or grid level. `at` is always
/// the backend clock (virtual time for simulated backends, wall time
/// for [`crate::backend::LocalBackend`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A processor (or source) delivered a token downstream.
    TokenEmitted {
        at: SimTime,
        processor: String,
        port: String,
        index: String,
    },
    /// An iteration-strategy match completed: a service has a full
    /// input set and may fire.
    MatchFired {
        at: SimTime,
        processor: String,
        index: String,
        inputs: usize,
    },
    /// A grouped (JG) job was composed from several workflow stages.
    GroupComposed {
        at: SimTime,
        processor: String,
        stages: usize,
        commands: usize,
    },
    /// A synchronization barrier released: all upstream streams
    /// exhausted, the collected inputs fired as one invocation.
    BarrierReleased {
        at: SimTime,
        processor: String,
        inputs: usize,
    },
    /// The enactor handed an invocation to the backend. `batched` is
    /// the number of workflow invocations the job carries (>1 under
    /// data batching).
    JobSubmitted {
        at: SimTime,
        invocation: u64,
        processor: String,
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
        processor: String,
        retry: u32,
        attempt: u64,
    },
    /// The invocation completed; its outputs were routed. Terminal.
    JobCompleted {
        at: SimTime,
        invocation: u64,
        processor: String,
    },
    /// The invocation failed beyond the retry budget. Terminal.
    JobFailed {
        at: SimTime,
        invocation: u64,
        processor: String,
        error: String,
    },
    /// The invocation outlived its timeout policy; the enactor reacted
    /// (`action` is `"resubmit"` or `"replicate"`).
    JobTimedOut {
        at: SimTime,
        invocation: u64,
        processor: String,
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
        processor: String,
        replica: u32,
        attempt: u64,
    },
    /// The invocation was cancelled — a losing replica after the
    /// winner completed, or a pending job drained on workflow abort.
    /// Terminal.
    JobCancelled {
        at: SimTime,
        invocation: u64,
        processor: String,
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
        processor: String,
        outputs: usize,
        transfer_seconds: f64,
    },
    /// The data manager had no usable entry for the invocation; the
    /// job proceeds to the backend as usual.
    CacheMiss {
        at: SimTime,
        invocation: u64,
        processor: String,
    },
    /// The enactor bound `bytes` of file data to input `port` of
    /// `processor` while composing a grid job: the observed counterpart
    /// of `moteur plan`'s static per-edge transfer bounds, keyed by
    /// consumer and port. One event per staged token; whole-stream
    /// barrier fetches emit one event per collected file.
    EdgeStaged {
        at: SimTime,
        invocation: u64,
        processor: String,
        port: String,
        bytes: u64,
    },

    /// The grid user interface accepted the job (follows the enactor's
    /// `JobSubmitted` after the submission overhead).
    GridSubmitted {
        at: SimTime,
        invocation: u64,
        name: String,
    },
    /// The resource broker matched the job to a computing element.
    GridMatched {
        at: SimTime,
        invocation: u64,
        ce: usize,
    },
    /// The job entered a CE batch queue (`attempt` counts from 1).
    GridEnqueued {
        at: SimTime,
        invocation: u64,
        ce: usize,
        attempt: u32,
    },
    /// A worker slot started executing the job.
    GridStarted {
        at: SimTime,
        invocation: u64,
        ce: usize,
    },
    /// The execution attempt finished on its worker.
    GridFinished {
        at: SimTime,
        invocation: u64,
        ce: usize,
        success: bool,
    },
    /// A failed attempt re-entered the grid submission chain.
    GridResubmitted {
        at: SimTime,
        invocation: u64,
        attempt: u32,
    },
    /// The completion reached the submitter — terminal at grid level.
    GridDelivered {
        at: SimTime,
        invocation: u64,
        success: bool,
    },
    /// The submitter cancelled the grid job — terminal at grid level.
    GridCancelled { at: SimTime, invocation: u64 },
    /// A computing element's occupancy or availability changed.
    CeCapacity {
        at: SimTime,
        ce: usize,
        busy: usize,
        queued: usize,
        queued_user: usize,
        slots: usize,
        up: bool,
    },
    /// A started grid attempt committed its stage-in/stage-out bytes to
    /// the CE's network link (congested durations included). Retried
    /// attempts transfer — and therefore emit — again.
    GridLinkTransfer {
        at: SimTime,
        invocation: u64,
        ce: usize,
        bytes_in: u64,
        bytes_out: u64,
        stage_in_secs: f64,
        stage_out_secs: f64,
    },

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
        processor: String,
        /// Deepest outgoing-edge occupancy at suspension.
        depth: usize,
        capacity: usize,
    },
    /// Streaming enactment: a suspended processor's downstream port
    /// drained below capacity and it resumed firing. Emitted once per
    /// transition out of the suspended state.
    PortResumed {
        at: SimTime,
        processor: String,
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

impl TraceEvent {
    /// Stable snake_case tag, used as the JSON `type` field and as the
    /// metrics counter key.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TokenEmitted { .. } => "token_emitted",
            TraceEvent::MatchFired { .. } => "match_fired",
            TraceEvent::GroupComposed { .. } => "group_composed",
            TraceEvent::BarrierReleased { .. } => "barrier_released",
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::JobResubmitted { .. } => "job_resubmitted",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JobFailed { .. } => "job_failed",
            TraceEvent::JobTimedOut { .. } => "job_timed_out",
            TraceEvent::JobReplicated { .. } => "job_replicated",
            TraceEvent::JobCancelled { .. } => "job_cancelled",
            TraceEvent::CeBlacklisted { .. } => "ce_blacklisted",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::EdgeStaged { .. } => "edge_staged",
            TraceEvent::GridSubmitted { .. } => "grid_submitted",
            TraceEvent::GridMatched { .. } => "grid_matched",
            TraceEvent::GridEnqueued { .. } => "grid_enqueued",
            TraceEvent::GridStarted { .. } => "grid_started",
            TraceEvent::GridFinished { .. } => "grid_finished",
            TraceEvent::GridResubmitted { .. } => "grid_resubmitted",
            TraceEvent::GridDelivered { .. } => "grid_delivered",
            TraceEvent::GridCancelled { .. } => "grid_cancelled",
            TraceEvent::CeCapacity { .. } => "ce_capacity",
            TraceEvent::GridLinkTransfer { .. } => "grid_link_transfer",
            TraceEvent::EnactorGauges { .. } => "enactor_gauges",
            TraceEvent::PortSuspended { .. } => "port_suspended",
            TraceEvent::PortResumed { .. } => "port_resumed",
            TraceEvent::SloBreached { .. } => "slo_breached",
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
            | TraceEvent::GridSubmitted { at, .. }
            | TraceEvent::GridMatched { at, .. }
            | TraceEvent::GridEnqueued { at, .. }
            | TraceEvent::GridStarted { at, .. }
            | TraceEvent::GridFinished { at, .. }
            | TraceEvent::GridResubmitted { at, .. }
            | TraceEvent::GridDelivered { at, .. }
            | TraceEvent::GridCancelled { at, .. }
            | TraceEvent::CeCapacity { at, .. }
            | TraceEvent::GridLinkTransfer { at, .. }
            | TraceEvent::EnactorGauges { at, .. }
            | TraceEvent::PortSuspended { at, .. }
            | TraceEvent::PortResumed { at, .. }
            | TraceEvent::SloBreached { at, .. } => *at,
        }
    }

    /// The invocation id, for job-lifecycle events.
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
            | TraceEvent::EdgeStaged { invocation, .. }
            | TraceEvent::GridSubmitted { invocation, .. }
            | TraceEvent::GridMatched { invocation, .. }
            | TraceEvent::GridEnqueued { invocation, .. }
            | TraceEvent::GridStarted { invocation, .. }
            | TraceEvent::GridFinished { invocation, .. }
            | TraceEvent::GridResubmitted { invocation, .. }
            | TraceEvent::GridDelivered { invocation, .. }
            | TraceEvent::GridCancelled { invocation, .. }
            | TraceEvent::GridLinkTransfer { invocation, .. } => Some(*invocation),
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

    /// Adapt a simulator event. The simulator's correlation tag *is*
    /// the enactor invocation id.
    pub fn from_sim(e: &SimEvent) -> TraceEvent {
        match e {
            SimEvent::JobSubmitted { at, tag, name, .. } => TraceEvent::GridSubmitted {
                at: *at,
                invocation: *tag,
                name: name.clone(),
            },
            SimEvent::JobMatched { at, tag, ce, .. } => TraceEvent::GridMatched {
                at: *at,
                invocation: *tag,
                ce: ce.0,
            },
            SimEvent::JobEnqueued {
                at,
                tag,
                ce,
                attempt,
                ..
            } => TraceEvent::GridEnqueued {
                at: *at,
                invocation: *tag,
                ce: ce.0,
                attempt: *attempt,
            },
            SimEvent::JobStarted { at, tag, ce, .. } => TraceEvent::GridStarted {
                at: *at,
                invocation: *tag,
                ce: ce.0,
            },
            SimEvent::JobFinished {
                at,
                tag,
                ce,
                outcome,
                ..
            } => TraceEvent::GridFinished {
                at: *at,
                invocation: *tag,
                ce: ce.0,
                success: *outcome == moteur_gridsim::JobOutcome::Success,
            },
            SimEvent::JobResubmitted {
                at, tag, attempt, ..
            } => TraceEvent::GridResubmitted {
                at: *at,
                invocation: *tag,
                attempt: *attempt,
            },
            SimEvent::JobDelivered {
                at, tag, outcome, ..
            } => TraceEvent::GridDelivered {
                at: *at,
                invocation: *tag,
                success: *outcome == moteur_gridsim::JobOutcome::Success,
            },
            SimEvent::JobCancelled { at, tag, .. } => TraceEvent::GridCancelled {
                at: *at,
                invocation: *tag,
            },
            SimEvent::CeCapacity {
                at,
                ce,
                busy,
                queued,
                queued_user,
                slots,
                up,
            } => TraceEvent::CeCapacity {
                at: *at,
                ce: ce.0,
                busy: *busy,
                queued: *queued,
                queued_user: *queued_user,
                slots: *slots,
                up: *up,
            },
            SimEvent::LinkTransfer {
                at,
                tag,
                ce,
                bytes_in,
                bytes_out,
                stage_in_secs,
                stage_out_secs,
                ..
            } => TraceEvent::GridLinkTransfer {
                at: *at,
                invocation: *tag,
                ce: ce.0,
                bytes_in: *bytes_in,
                bytes_out: *bytes_out,
                stage_in_secs: *stage_in_secs,
                stage_out_secs: *stage_out_secs,
            },
        }
    }

    /// One-line JSON rendering (the JSONL schema).
    pub fn to_json(&self) -> String {
        let base = JsonObject::new()
            .str("type", self.kind())
            .num("t", self.at().as_secs_f64());
        match self {
            TraceEvent::TokenEmitted {
                processor,
                port,
                index,
                ..
            } => base
                .str("processor", processor)
                .str("port", port)
                .str("index", index)
                .finish(),
            TraceEvent::MatchFired {
                processor,
                index,
                inputs,
                ..
            } => base
                .str("processor", processor)
                .str("index", index)
                .uint("inputs", *inputs as u64)
                .finish(),
            TraceEvent::GroupComposed {
                processor,
                stages,
                commands,
                ..
            } => base
                .str("processor", processor)
                .uint("stages", *stages as u64)
                .uint("commands", *commands as u64)
                .finish(),
            TraceEvent::BarrierReleased {
                processor, inputs, ..
            } => base
                .str("processor", processor)
                .uint("inputs", *inputs as u64)
                .finish(),
            TraceEvent::JobSubmitted {
                invocation,
                processor,
                grid,
                batched,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .bool("grid", *grid)
                .uint("batched", *batched as u64)
                .finish(),
            TraceEvent::JobResubmitted {
                invocation,
                processor,
                retry,
                attempt,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .uint("retry", u64::from(*retry))
                .uint("attempt", *attempt)
                .finish(),
            TraceEvent::JobCompleted {
                invocation,
                processor,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .finish(),
            TraceEvent::JobFailed {
                invocation,
                processor,
                error,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .str("error", error)
                .finish(),
            TraceEvent::JobTimedOut {
                invocation,
                processor,
                timeout_secs,
                action,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .num("timeout_secs", *timeout_secs)
                .str("action", action)
                .finish(),
            TraceEvent::JobReplicated {
                invocation,
                processor,
                replica,
                attempt,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .uint("replica", u64::from(*replica))
                .uint("attempt", *attempt)
                .finish(),
            TraceEvent::JobCancelled {
                invocation,
                processor,
                reason,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .str("reason", reason)
                .finish(),
            TraceEvent::CeBlacklisted { ce, failures, .. } => base
                .uint("ce", *ce as u64)
                .uint("failures", u64::from(*failures))
                .finish(),
            TraceEvent::CacheHit {
                invocation,
                processor,
                outputs,
                transfer_seconds,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .uint("outputs", *outputs as u64)
                .num("transfer_seconds", *transfer_seconds)
                .finish(),
            TraceEvent::CacheMiss {
                invocation,
                processor,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .finish(),
            TraceEvent::EdgeStaged {
                invocation,
                processor,
                port,
                bytes,
                ..
            } => base
                .uint("invocation", *invocation)
                .str("processor", processor)
                .str("port", port)
                .uint("bytes", *bytes)
                .finish(),
            TraceEvent::GridSubmitted {
                invocation, name, ..
            } => base
                .uint("invocation", *invocation)
                .str("name", name)
                .finish(),
            TraceEvent::GridMatched { invocation, ce, .. } => base
                .uint("invocation", *invocation)
                .uint("ce", *ce as u64)
                .finish(),
            TraceEvent::GridEnqueued {
                invocation,
                ce,
                attempt,
                ..
            } => base
                .uint("invocation", *invocation)
                .uint("ce", *ce as u64)
                .uint("attempt", u64::from(*attempt))
                .finish(),
            TraceEvent::GridStarted { invocation, ce, .. } => base
                .uint("invocation", *invocation)
                .uint("ce", *ce as u64)
                .finish(),
            TraceEvent::GridFinished {
                invocation,
                ce,
                success,
                ..
            } => base
                .uint("invocation", *invocation)
                .uint("ce", *ce as u64)
                .bool("success", *success)
                .finish(),
            TraceEvent::GridResubmitted {
                invocation,
                attempt,
                ..
            } => base
                .uint("invocation", *invocation)
                .uint("attempt", u64::from(*attempt))
                .finish(),
            TraceEvent::GridDelivered {
                invocation,
                success,
                ..
            } => base
                .uint("invocation", *invocation)
                .bool("success", *success)
                .finish(),
            TraceEvent::GridCancelled { invocation, .. } => {
                base.uint("invocation", *invocation).finish()
            }
            TraceEvent::CeCapacity {
                ce,
                busy,
                queued,
                queued_user,
                slots,
                up,
                ..
            } => base
                .uint("ce", *ce as u64)
                .uint("busy", *busy as u64)
                .uint("queued", *queued as u64)
                .uint("queued_user", *queued_user as u64)
                .uint("slots", *slots as u64)
                .bool("up", *up)
                .finish(),
            TraceEvent::GridLinkTransfer {
                invocation,
                ce,
                bytes_in,
                bytes_out,
                stage_in_secs,
                stage_out_secs,
                ..
            } => base
                .uint("invocation", *invocation)
                .uint("ce", *ce as u64)
                .uint("bytes_in", *bytes_in)
                .uint("bytes_out", *bytes_out)
                .num("stage_in_secs", *stage_in_secs)
                .num("stage_out_secs", *stage_out_secs)
                .finish(),
            TraceEvent::EnactorGauges {
                inflight,
                deferred,
                quarantined,
                cache_entries,
                cache_bytes,
                ..
            } => base
                .uint("inflight", *inflight as u64)
                .uint("deferred", *deferred as u64)
                .uint("quarantined", *quarantined as u64)
                .uint("cache_entries", *cache_entries as u64)
                .uint("cache_bytes", *cache_bytes)
                .finish(),
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
            } => base
                .str("processor", processor)
                .uint("depth", *depth as u64)
                .uint("capacity", *capacity as u64)
                .finish(),
            TraceEvent::SloBreached {
                predicted_secs,
                projected_secs,
                factor,
                completed,
                expected,
                ..
            } => base
                .num("predicted_secs", *predicted_secs)
                .num("projected_secs", *projected_secs)
                .num("factor", *factor)
                .uint("completed", *completed as u64)
                .uint("expected", *expected as u64)
                .finish(),
        }
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
        if let Some(inner) = &self.inner {
            let event = build();
            let _prof = self.prof.scope(prof::Subsystem::Sinks);
            let mut sinks = inner.lock().expect("obs sink lock poisoned");
            for sink in sinks.iter_mut() {
                sink.record(&event);
            }
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
    use moteur_gridsim::{CeId, JobId, JobOutcome};

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
            processor: "x".into()
        }
        .is_terminal());
    }

    #[test]
    fn sim_events_adapt_with_tag_as_invocation() {
        let s = SimEvent::JobDelivered {
            at: SimTime::from_secs_f64(9.0),
            job: JobId(3),
            tag: 42,
            outcome: JobOutcome::Success,
        };
        let t = TraceEvent::from_sim(&s);
        assert_eq!(t.invocation(), Some(42));
        assert_eq!(t.kind(), "grid_delivered");
        let c = SimEvent::CeCapacity {
            at: SimTime::ZERO,
            ce: CeId(2),
            busy: 1,
            queued: 4,
            queued_user: 2,
            slots: 8,
            up: true,
        };
        assert_eq!(TraceEvent::from_sim(&c).kind(), "ce_capacity");
        let l = SimEvent::LinkTransfer {
            at: SimTime::from_secs_f64(3.0),
            job: JobId(1),
            tag: 7,
            ce: CeId(2),
            bytes_in: 1_000,
            bytes_out: 500,
            stage_in_secs: 2.0,
            stage_out_secs: 1.0,
        };
        let t = TraceEvent::from_sim(&l);
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
