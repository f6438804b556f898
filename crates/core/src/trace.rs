//! Run results and per-invocation traces.

use crate::ft::{QuarantineEntry, WorkflowReport};
use crate::token::{DataIndex, Token};
use moteur_gridsim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Timing of one fired invocation, for diagrams and analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    pub processor: String,
    pub index: DataIndex,
    /// When the enactor fired it.
    pub submitted: SimTime,
    /// When execution actually started (after grid overhead).
    pub started: SimTime,
    pub finished: SimTime,
    /// Enactor-level retries performed for this invocation.
    pub retries: u32,
}

impl InvocationRecord {
    pub fn duration(&self) -> SimDuration {
        self.finished.since(self.submitted)
    }
}

/// Outcome of a workflow enactment.
#[derive(Debug)]
pub struct WorkflowResult {
    /// Tokens collected by each sink, keyed by sink name, in arrival
    /// order: the first [`crate::EnactorConfig::port_capacity`] tokens
    /// per sink (all of them under the default capacity);
    /// `sink_counts` carries the full tally.
    pub sink_outputs: HashMap<String, Vec<Token>>,
    /// Total number of tokens each sink received — exact whatever the
    /// port capacity.
    pub sink_counts: HashMap<String, usize>,
    /// Total execution time (Σ of the paper's model).
    pub makespan: SimDuration,
    /// One record per fired invocation, in completion order (the
    /// first `port_capacity` of them).
    pub invocations: Vec<InvocationRecord>,
    /// Number of jobs submitted to the backend (the paper's job
    /// counts: 72/396/756 ungrouped, fewer with JG).
    pub jobs_submitted: usize,
    /// Stage-in + stage-out bytes committed to the grid across every
    /// submitted attempt (retries and replicas transfer again). The
    /// timeline's per-link byte series sum to exactly this.
    pub bytes_transferred: u64,
    /// Data items quarantined under `continue_on_error` instead of
    /// aborting the workflow. Empty on a fully successful run.
    pub quarantined: Vec<QuarantineEntry>,
}

impl WorkflowResult {
    /// Tokens a named sink received.
    pub fn sink(&self, name: &str) -> &[Token] {
        self.sink_outputs.get(name).map_or(&[], Vec::as_slice)
    }

    /// How many tokens a named sink received in total (exact even
    /// when a port capacity truncates [`WorkflowResult::sink`]).
    pub fn sink_count(&self, name: &str) -> usize {
        self.sink_counts.get(name).copied().unwrap_or(0)
    }

    /// True when no data item was quarantined.
    pub fn ok(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Summarise the run as a [`WorkflowReport`] (per-item outcomes,
    /// JSON-renderable, exit-code-bearing).
    pub fn report(&self) -> WorkflowReport {
        WorkflowReport {
            completed_invocations: self.invocations.len(),
            jobs_submitted: self.jobs_submitted,
            makespan_secs: self.makespan.as_secs_f64(),
            quarantined: self.quarantined.clone(),
        }
    }

    /// Invocation records of one processor, sorted by data index.
    pub fn invocations_of(&self, processor: &str) -> Vec<&InvocationRecord> {
        let mut v: Vec<&InvocationRecord> = self
            .invocations
            .iter()
            .filter(|r| r.processor == processor)
            .collect();
        v.sort_by(|a, b| a.index.cmp(&b.index));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataValue;

    #[test]
    fn record_duration() {
        let r = InvocationRecord {
            processor: "p".into(),
            index: DataIndex::single(0),
            submitted: SimTime::from_secs_f64(5.0),
            started: SimTime::from_secs_f64(8.0),
            finished: SimTime::from_secs_f64(15.0),
            retries: 0,
        };
        assert_eq!(r.duration(), SimDuration::from_secs(10));
    }

    #[test]
    fn result_sink_and_filtering() {
        let mut sink_outputs = HashMap::new();
        sink_outputs.insert(
            "accuracy".to_string(),
            vec![Token::from_source("s", 0, DataValue::from(1.0))],
        );
        let r = WorkflowResult {
            sink_counts: sink_outputs
                .iter()
                .map(|(k, v)| (k.clone(), v.len()))
                .collect(),
            sink_outputs,
            makespan: SimDuration::from_secs(1),
            invocations: vec![
                InvocationRecord {
                    processor: "b".into(),
                    index: DataIndex::single(1),
                    submitted: SimTime::ZERO,
                    started: SimTime::ZERO,
                    finished: SimTime::ZERO,
                    retries: 0,
                },
                InvocationRecord {
                    processor: "b".into(),
                    index: DataIndex::single(0),
                    submitted: SimTime::ZERO,
                    started: SimTime::ZERO,
                    finished: SimTime::ZERO,
                    retries: 0,
                },
            ],
            jobs_submitted: 2,
            bytes_transferred: 0,
            quarantined: vec![],
        };
        assert!(r.ok());
        let report = r.report();
        assert_eq!(report.completed_invocations, 2);
        assert!(report.ok());
        assert_eq!(r.sink("accuracy").len(), 1);
        assert_eq!(r.sink_count("accuracy"), 1);
        assert_eq!(r.sink_count("missing"), 0);
        assert!(r.sink("missing").is_empty());
        let of_b = r.invocations_of("b");
        assert_eq!(of_b.len(), 2);
        assert!(of_b[0].index < of_b[1].index, "sorted by index");
    }
}
