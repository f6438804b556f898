//! The event line writer that the one-pass `TraceEvent::write_json`
//! replaced, kept as its oracle: a `JsonObject` chain after the
//! `kind()`, `at()` and `invocation()` lookups. The method body and
//! `grid_fields` are the former `crates/core/src/obs/mod.rs` text
//! verbatim but for the method's `pub`, which a trait impl may not
//! carry; this header, the `use` lines and the trait are new. Included
//! with `#[path]` by the tests that compare the two writers byte for
//! byte.

use moteur::obs::json::JsonObject;
use moteur::TraceEvent;
use moteur_gridsim::{JobOutcome, SimEvent};

/// The former writer, under a name of its own.
pub trait OracleLine {
    /// The event's line as the former writer rendered it.
    fn oracle_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    fn write_json(&self, out: &mut String);
}

impl OracleLine for TraceEvent {
    /// Append [`TraceEvent::to_json`]'s line to `out`, so a writer that
    /// keeps one line buffer renders every event without allocating.
    fn write_json(&self, out: &mut String) {
        let mut base = JsonObject::append_to(std::mem::take(out))
            .str("type", self.kind())
            .micros_as_secs("t", self.at().0);
        if let Some(invocation) = self.invocation() {
            base = base.uint("invocation", invocation);
        }
        let base = match self {
            TraceEvent::TokenEmitted {
                processor,
                port,
                index,
                ..
            } => base
                .str("processor", processor)
                .str("port", port)
                .str("index", index),
            TraceEvent::MatchFired {
                processor,
                index,
                inputs,
                ..
            } => base
                .str("processor", processor)
                .str("index", index)
                .uint("inputs", *inputs as u64),
            TraceEvent::GroupComposed {
                processor,
                stages,
                commands,
                ..
            } => base
                .str("processor", processor)
                .uint("stages", *stages as u64)
                .uint("commands", *commands as u64),
            TraceEvent::BarrierReleased {
                processor, inputs, ..
            } => base
                .str("processor", processor)
                .uint("inputs", *inputs as u64),
            TraceEvent::JobSubmitted {
                processor,
                grid,
                batched,
                ..
            } => base
                .str("processor", processor)
                .bool("grid", *grid)
                .uint("batched", *batched as u64),
            TraceEvent::JobResubmitted {
                processor,
                retry,
                attempt,
                ..
            } => base
                .str("processor", processor)
                .uint("retry", u64::from(*retry))
                .uint("attempt", *attempt),
            TraceEvent::JobCompleted { processor, .. }
            | TraceEvent::CacheMiss { processor, .. } => base.str("processor", processor),
            TraceEvent::JobFailed {
                processor, error, ..
            } => base.str("processor", processor).str("error", error),
            TraceEvent::JobTimedOut {
                processor,
                timeout_secs,
                action,
                ..
            } => base
                .str("processor", processor)
                .num("timeout_secs", *timeout_secs)
                .str("action", action),
            TraceEvent::JobReplicated {
                processor,
                replica,
                attempt,
                ..
            } => base
                .str("processor", processor)
                .uint("replica", u64::from(*replica))
                .uint("attempt", *attempt),
            TraceEvent::JobCancelled {
                processor, reason, ..
            } => base.str("processor", processor).str("reason", reason),
            TraceEvent::CeBlacklisted { ce, failures, .. } => base
                .uint("ce", *ce as u64)
                .uint("failures", u64::from(*failures)),
            TraceEvent::CacheHit {
                processor,
                outputs,
                transfer_seconds,
                ..
            } => base
                .str("processor", processor)
                .uint("outputs", *outputs as u64)
                .num("transfer_seconds", *transfer_seconds),
            TraceEvent::EdgeStaged {
                processor,
                port,
                bytes,
                ..
            } => base
                .str("processor", processor)
                .str("port", port)
                .uint("bytes", *bytes),
            TraceEvent::Grid(e) => grid_fields(base, e),
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
                .uint("cache_bytes", *cache_bytes),
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
                .uint("capacity", *capacity as u64),
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
                .uint("expected", *expected as u64),
        };
        *out = base.finish();
    }
}

/// The grid half of the JSONL schema: a simulator event's fields after
/// `type`, `t` and `invocation` (its `tag`). A CE renders as its index
/// and an outcome as `success`; the simulator's own job id is not
/// rendered.
fn grid_fields(o: JsonObject, e: &SimEvent) -> JsonObject {
    let success = |outcome: &JobOutcome| *outcome == JobOutcome::Success;
    match e {
        SimEvent::JobSubmitted { name, .. } => o.str("name", name),
        SimEvent::JobMatched { ce, .. } | SimEvent::JobStarted { ce, .. } => {
            o.uint("ce", ce.0 as u64)
        }
        SimEvent::JobEnqueued { ce, attempt, .. } => o
            .uint("ce", ce.0 as u64)
            .uint("attempt", u64::from(*attempt)),
        SimEvent::JobFinished { ce, outcome, .. } => {
            o.uint("ce", ce.0 as u64).bool("success", success(outcome))
        }
        SimEvent::JobResubmitted { attempt, .. } => o.uint("attempt", u64::from(*attempt)),
        SimEvent::JobDelivered { outcome, .. } => o.bool("success", success(outcome)),
        SimEvent::JobCancelled { .. } => o,
        SimEvent::CeCapacity {
            ce,
            busy,
            queued,
            queued_user,
            slots,
            up,
            ..
        } => o
            .uint("ce", ce.0 as u64)
            .uint("busy", *busy as u64)
            .uint("queued", *queued as u64)
            .uint("queued_user", *queued_user as u64)
            .uint("slots", *slots as u64)
            .bool("up", *up),
        SimEvent::LinkTransfer {
            ce,
            bytes_in,
            bytes_out,
            stage_in_secs,
            stage_out_secs,
            ..
        } => o
            .uint("ce", ce.0 as u64)
            .uint("bytes_in", *bytes_in)
            .uint("bytes_out", *bytes_out)
            .num("stage_in_secs", *stage_in_secs)
            .num("stage_out_secs", *stage_out_secs),
    }
}
