//! Fault tolerance: retry policies, timeouts, speculative replication
//! and graceful degradation.
//!
//! The paper's experimental ground (§2, §6) is a production grid where
//! jobs fail, stall in batch queues, and occasionally become extreme
//! outliers (the long-tailed match delay of `egee_2006`). A single
//! "resubmit up to N times, then abort the workflow" counter — the
//! enactor's historical behaviour — wastes both makespan and completed
//! work. This module provides the vocabulary the enactor wires in:
//!
//! - [`RetryPolicy`] — how a *failed* invocation is resubmitted: fixed
//!   (immediate), exponential backoff, or jittered backoff;
//! - [`TimeoutPolicy`] + [`TimeoutAction`] — when a *running*
//!   invocation is declared an outlier, and whether it is resubmitted
//!   (cancel + fresh submission) or speculatively replicated (first
//!   completion wins, losers cancelled);
//! - [`FtConfig`] — per-processor policy table plus CE blacklisting
//!   and the `--continue-on-error` switch;
//! - [`QuarantineEntry`] / [`WorkflowReport`] — the degradation
//!   record: which data items were quarantined, which downstream
//!   processors lost them, and a machine-readable run report.

use crate::obs::json::{self, JsonObject};
use moteur_gridsim::{percentile, Rng};
use std::collections::BTreeMap;

/// How a failed invocation is retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// Resubmit immediately, up to `max_retries` times — the legacy
    /// `max_job_retries` behaviour.
    Fixed { max_retries: u32 },
    /// Resubmit after `base_delay * factor^(retry-1)` seconds, capped
    /// at `max_delay`. Spreads resubmissions of a correlated failure
    /// burst over time.
    ExponentialBackoff {
        max_retries: u32,
        base_delay: f64,
        factor: f64,
        max_delay: f64,
    },
    /// Exponential backoff with the delay drawn uniformly from
    /// `[0, full_delay]` (decorrelated jitter), so retries of many
    /// simultaneous failures do not herd back onto the broker at once.
    Jittered {
        max_retries: u32,
        base_delay: f64,
        factor: f64,
        max_delay: f64,
    },
}

impl RetryPolicy {
    /// The retry budget (attempts = `max_retries + 1`).
    pub fn max_retries(&self) -> u32 {
        match *self {
            RetryPolicy::Fixed { max_retries }
            | RetryPolicy::ExponentialBackoff { max_retries, .. }
            | RetryPolicy::Jittered { max_retries, .. } => max_retries,
        }
    }

    /// Seconds to wait before resubmission number `retry` (counted
    /// from 1). Zero means "resubmit now".
    pub fn delay(&self, retry: u32, rng: &mut Rng) -> f64 {
        match *self {
            RetryPolicy::Fixed { .. } => 0.0,
            RetryPolicy::ExponentialBackoff {
                base_delay,
                factor,
                max_delay,
                ..
            } => backoff(base_delay, factor, max_delay, retry),
            RetryPolicy::Jittered {
                base_delay,
                factor,
                max_delay,
                ..
            } => rng.uniform() * backoff(base_delay, factor, max_delay, retry),
        }
    }
}

fn backoff(base_delay: f64, factor: f64, max_delay: f64, retry: u32) -> f64 {
    let exp = retry.saturating_sub(1).min(62);
    (base_delay * factor.powi(exp as i32))
        .min(max_delay)
        .max(0.0)
}

/// When a running invocation is declared an outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeoutPolicy {
    /// Never time out.
    None,
    /// A fixed wall/virtual-time budget per submission.
    Fixed { seconds: f64 },
    /// `multiplier ×` the observed `percentile` of this processor's
    /// completed submission→delivery durations. Until `min_samples`
    /// completions are observed the `fallback` budget applies
    /// (non-finite fallback disables the timeout during warm-up).
    Adaptive {
        percentile: f64,
        multiplier: f64,
        min_samples: usize,
        fallback: f64,
    },
}

impl TimeoutPolicy {
    /// The timeout budget in seconds given this processor's observed
    /// completed durations, or `None` when no timeout applies.
    pub fn timeout_secs(&self, samples: &[f64]) -> Option<f64> {
        match *self {
            TimeoutPolicy::None => None,
            TimeoutPolicy::Fixed { seconds } => finite(seconds),
            TimeoutPolicy::Adaptive {
                percentile: q,
                multiplier,
                min_samples,
                fallback,
            } => {
                if samples.len() >= min_samples.max(1) {
                    finite(percentile(samples, q) * multiplier)
                } else {
                    finite(fallback)
                }
            }
        }
    }
}

fn finite(v: f64) -> Option<f64> {
    (v.is_finite() && v > 0.0).then_some(v)
}

/// What to do when the timeout fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Cancel the running attempt and resubmit (consumes one retry).
    Resubmit,
    /// Keep the original running and launch a speculative replica —
    /// first completion wins, the losers are cancelled. At most
    /// `max_replicas` replicas per invocation.
    Replicate { max_replicas: u32 },
}

/// The complete fault-tolerance policy for one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtPolicy {
    pub retry: RetryPolicy,
    pub timeout: TimeoutPolicy,
    pub on_timeout: TimeoutAction,
}

impl FtPolicy {
    /// The legacy behaviour: immediate resubmission, no timeout.
    pub fn fixed(max_retries: u32) -> Self {
        FtPolicy {
            retry: RetryPolicy::Fixed { max_retries },
            timeout: TimeoutPolicy::None,
            on_timeout: TimeoutAction::Resubmit,
        }
    }
}

/// Workflow-wide fault-tolerance configuration: a default policy, a
/// per-processor override table, CE blacklisting, and the graceful
/// degradation switch.
#[derive(Debug, Clone, PartialEq)]
pub struct FtConfig {
    pub default: FtPolicy,
    /// Per-processor overrides (BTreeMap for deterministic iteration).
    pub per_processor: BTreeMap<String, FtPolicy>,
    /// Blacklist a computing element once this many *consecutive*
    /// enactor-visible failures land on it. `None` disables.
    pub ce_blacklist_threshold: Option<u32>,
    /// Quarantine terminally failed data items (and their history-tree
    /// descendants) instead of aborting the workflow.
    pub continue_on_error: bool,
}

impl FtConfig {
    /// Reproduce the pre-`ft` enactor: one fixed retry counter, no
    /// timeouts, no blacklisting, abort on terminal failure.
    pub fn from_legacy(max_job_retries: u32) -> Self {
        FtConfig {
            default: FtPolicy::fixed(max_job_retries),
            per_processor: BTreeMap::new(),
            ce_blacklist_threshold: None,
            continue_on_error: false,
        }
    }

    /// Replace the default policy.
    pub fn with_default(mut self, policy: FtPolicy) -> Self {
        self.default = policy;
        self
    }

    /// Override the policy of one processor.
    pub fn with_policy(mut self, processor: impl Into<String>, policy: FtPolicy) -> Self {
        self.per_processor.insert(processor.into(), policy);
        self
    }

    /// Enable (or disable) graceful degradation.
    pub fn with_continue_on_error(mut self, on: bool) -> Self {
        self.continue_on_error = on;
        self
    }

    /// Enable CE blacklisting after `threshold` consecutive failures.
    pub fn with_ce_blacklist(mut self, threshold: u32) -> Self {
        self.ce_blacklist_threshold = Some(threshold.max(1));
        self
    }

    /// The policy governing `processor`.
    pub fn policy_for(&self, processor: &str) -> &FtPolicy {
        self.per_processor.get(processor).unwrap_or(&self.default)
    }
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig::from_legacy(5)
    }
}

/// One quarantined data item: a terminal failure that
/// `--continue-on-error` contained instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The processor whose invocation failed.
    pub processor: String,
    /// The data index of the failed invocation (e.g. `[3]`).
    pub index: String,
    /// The terminal error message.
    pub error: String,
    /// Downstream processors that will never receive this item — the
    /// failed item's history-tree descendants, in topological order.
    pub descendants: Vec<String>,
}

impl QuarantineEntry {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("processor", &self.processor)
            .str("index", &self.index)
            .str("error", &self.error)
            .raw(
                "descendants",
                &json::array(
                    self.descendants
                        .iter()
                        .map(|d| format!("\"{}\"", json::escape(d))),
                ),
            )
            .finish()
    }
}

/// The per-item outcome summary of a (possibly degraded) enactment.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowReport {
    /// Invocations that completed and routed their outputs.
    pub completed_invocations: usize,
    /// Jobs handed to the backend.
    pub jobs_submitted: usize,
    /// Total virtual (or wall) execution time in seconds.
    pub makespan_secs: f64,
    /// Quarantined items, in quarantine order.
    pub quarantined: Vec<QuarantineEntry>,
}

impl WorkflowReport {
    /// True when every data item completed.
    pub fn ok(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Single-line JSON rendering (schema `moteur/workflow-report/v1`).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("schema", "moteur/workflow-report/v1")
            .bool("ok", self.ok())
            .uint("completed_invocations", self.completed_invocations as u64)
            .uint("jobs_submitted", self.jobs_submitted as u64)
            .num("makespan_secs", self.makespan_secs)
            .uint("quarantined", self.quarantined.len() as u64)
            .raw(
                "items",
                &json::array(self.quarantined.iter().map(QuarantineEntry::to_json)),
            )
            .finish()
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workflow report: {} — {} invocation(s) completed, {} quarantined, makespan {:.1}s",
            if self.ok() { "ok" } else { "degraded" },
            self.completed_invocations,
            self.quarantined.len(),
            self.makespan_secs,
        );
        for q in &self.quarantined {
            let _ = writeln!(out, "  quarantined {}{}: {}", q.processor, q.index, q.error);
            if !q.descendants.is_empty() {
                let _ = writeln!(out, "    lost downstream: {}", q.descendants.join(", "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_has_zero_delay_and_the_declared_budget() {
        let p = RetryPolicy::Fixed { max_retries: 5 };
        let mut rng = Rng::new(1);
        assert_eq!(p.max_retries(), 5);
        assert_eq!(p.delay(1, &mut rng), 0.0);
        assert_eq!(p.delay(5, &mut rng), 0.0);
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let p = RetryPolicy::ExponentialBackoff {
            max_retries: 8,
            base_delay: 10.0,
            factor: 2.0,
            max_delay: 60.0,
        };
        let mut rng = Rng::new(1);
        assert_eq!(p.delay(1, &mut rng), 10.0);
        assert_eq!(p.delay(2, &mut rng), 20.0);
        assert_eq!(p.delay(3, &mut rng), 40.0);
        assert_eq!(p.delay(4, &mut rng), 60.0, "capped");
        assert_eq!(p.delay(30, &mut rng), 60.0, "stays capped");
    }

    #[test]
    fn jittered_backoff_stays_within_the_envelope() {
        let p = RetryPolicy::Jittered {
            max_retries: 8,
            base_delay: 10.0,
            factor: 2.0,
            max_delay: 300.0,
        };
        let mut rng = Rng::new(42);
        for retry in 1..=6 {
            let full = backoff(10.0, 2.0, 300.0, retry);
            for _ in 0..50 {
                let d = p.delay(retry, &mut rng);
                assert!((0.0..=full).contains(&d), "retry {retry}: {d} > {full}");
            }
        }
    }

    #[test]
    fn fixed_timeout_ignores_samples() {
        let t = TimeoutPolicy::Fixed { seconds: 120.0 };
        assert_eq!(t.timeout_secs(&[]), Some(120.0));
        assert_eq!(t.timeout_secs(&[1.0, 2.0]), Some(120.0));
        assert_eq!(TimeoutPolicy::None.timeout_secs(&[1.0]), None);
    }

    #[test]
    fn adaptive_timeout_uses_fallback_until_enough_samples() {
        let t = TimeoutPolicy::Adaptive {
            percentile: 0.5,
            multiplier: 3.0,
            min_samples: 3,
            fallback: 1000.0,
        };
        assert_eq!(t.timeout_secs(&[10.0]), Some(1000.0), "warm-up fallback");
        assert_eq!(
            t.timeout_secs(&[10.0, 10.0, 10.0]),
            Some(30.0),
            "3 × median"
        );
        let disabled = TimeoutPolicy::Adaptive {
            percentile: 0.5,
            multiplier: 3.0,
            min_samples: 3,
            fallback: f64::INFINITY,
        };
        assert_eq!(disabled.timeout_secs(&[]), None, "no budget in warm-up");
    }

    #[test]
    fn config_lookup_prefers_the_processor_override() {
        let special = FtPolicy::fixed(9);
        let cfg = FtConfig::from_legacy(2).with_policy("crestLines", special);
        assert_eq!(cfg.policy_for("crestLines").retry.max_retries(), 9);
        assert_eq!(cfg.policy_for("other").retry.max_retries(), 2);
        assert!(!cfg.continue_on_error);
        assert!(cfg.ce_blacklist_threshold.is_none());
    }

    #[test]
    fn report_json_and_render_are_stable() {
        let report = WorkflowReport {
            completed_invocations: 11,
            jobs_submitted: 12,
            makespan_secs: 1234.5,
            quarantined: vec![QuarantineEntry {
                processor: "crestLines".into(),
                index: "[3]".into(),
                error: "grid job failed".into(),
                descendants: vec!["crestMatch".into(), "PFMatchICP".into()],
            }],
        };
        assert!(!report.ok());
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"moteur/workflow-report/v1\",\"ok\":false,\
             \"completed_invocations\":11,\"jobs_submitted\":12,\
             \"makespan_secs\":1234.5,\"quarantined\":1,\
             \"items\":[{\"processor\":\"crestLines\",\"index\":\"[3]\",\
             \"error\":\"grid job failed\",\
             \"descendants\":[\"crestMatch\",\"PFMatchICP\"]}]}"
        );
        let text = report.render();
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("crestLines[3]"), "{text}");
        assert!(text.contains("crestMatch, PFMatchICP"), "{text}");
        let ok = WorkflowReport {
            completed_invocations: 3,
            jobs_submitted: 3,
            makespan_secs: 1.0,
            quarantined: vec![],
        };
        assert!(ok.ok());
        assert!(ok.render().contains("ok"));
    }
}
