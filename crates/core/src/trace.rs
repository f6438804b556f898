//! Run results, and the per-invocation records a [`RecordSink`] builds
//! from the event stream.

use crate::ft::{QuarantineEntry, WorkflowReport};
use crate::obs::{EventSink, TraceEvent};
use crate::token::{DataIndex, Token};
use moteur_gridsim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Timing of one completed workflow invocation, for diagrams and
/// analysis.
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
    /// Grid overhead before execution: submitted → started.
    pub fn wait_secs(&self) -> f64 {
        self.started.since(self.submitted).as_secs_f64()
    }

    /// The execution window: started → finished.
    pub fn exec_secs(&self) -> f64 {
        self.finished.since(self.started).as_secs_f64()
    }
}

/// An [`EventSink`] that builds one [`InvocationRecord`] per data index
/// of every [`TraceEvent::JobCompleted`], in completion order, and
/// keeps all of them.
#[derive(Debug)]
pub struct RecordSink(Arc<Mutex<Vec<InvocationRecord>>>);

/// The read side of a [`RecordSink`].
#[derive(Debug, Clone)]
pub struct RecordBuffer(Arc<Mutex<Vec<InvocationRecord>>>);

impl RecordSink {
    /// Returns the sink and a shared handle to read the records after
    /// (or during) the run.
    pub fn new() -> (Self, RecordBuffer) {
        let records = Arc::new(Mutex::new(Vec::new()));
        (RecordSink(Arc::clone(&records)), RecordBuffer(records))
    }
}

impl RecordBuffer {
    /// Copy of the records so far, in completion order.
    pub fn snapshot(&self) -> Vec<InvocationRecord> {
        self.0.lock().expect("record lock").clone()
    }
}

impl EventSink for RecordSink {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::JobCompleted {
            processor,
            completion: c,
            ..
        } = event
        {
            let mut records = self.0.lock().expect("record lock");
            records.extend(c.indices.iter().map(|index| InvocationRecord {
                processor: processor.to_string(),
                index: index.clone(),
                submitted: c.submitted,
                started: c.started,
                finished: c.finished,
                retries: c.retries,
            }));
        }
    }
}

/// `records` per processor: processors in order of first appearance,
/// each one's records in completion order.
pub(crate) fn per_processor(records: &[InvocationRecord]) -> Vec<(&str, Vec<&InvocationRecord>)> {
    let mut groups: Vec<(&str, Vec<&InvocationRecord>)> = Vec::new();
    for r in records {
        match groups.iter_mut().find(|(p, _)| *p == r.processor) {
            Some((_, of)) => of.push(r),
            None => groups.push((&r.processor, vec![r])),
        }
    }
    groups
}

/// Outcome of a workflow enactment. What happened to each invocation is
/// in the event stream; attach a [`RecordSink`] to keep its records.
#[derive(Debug)]
pub struct WorkflowResult {
    /// Tokens collected by each sink, keyed by sink name, in arrival
    /// order: the first [`crate::EnactorConfig::port_capacity`] tokens
    /// per sink (all of them under the default capacity);
    /// `sink_counts` carries the full tally.
    pub sink_outputs: BTreeMap<String, Vec<Token>>,
    /// Total number of tokens each sink received — exact whatever the
    /// port capacity.
    pub sink_counts: BTreeMap<String, usize>,
    /// Total execution time (Σ of the paper's model).
    pub makespan: SimDuration,
    /// Workflow invocations that completed (each member of a batched
    /// job counts) — exact whatever the port capacity.
    pub completed_invocations: usize,
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
            completed_invocations: self.completed_invocations,
            jobs_submitted: self.jobs_submitted,
            makespan_secs: self.makespan.as_secs_f64(),
            quarantined: self.quarantined.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Completion;
    use crate::value::DataValue;

    #[test]
    fn record_sink_keeps_one_record_per_batched_index() {
        let (mut sink, buffer) = RecordSink::new();
        let at = SimTime::from_secs_f64;
        sink.record(&TraceEvent::JobCompleted {
            at: at(15.0),
            invocation: 3,
            processor: "p".into(),
            completion: Box::new(Completion {
                submitted: at(5.0),
                started: at(8.0),
                finished: at(15.0),
                retries: 1,
                indices: vec![DataIndex::single(2), DataIndex::single(0)],
            }),
        });
        sink.record(&TraceEvent::JobFailed {
            at: at(16.0),
            invocation: 4,
            processor: "p".into(),
            error: "boom".into(),
        });
        let records = buffer.snapshot();
        assert_eq!(records.len(), 2, "one per index, none for a failure");
        assert_eq!(records[0].index, DataIndex::single(2), "carried order");
        assert_eq!(
            (records[1].retries, records[1].processor.as_str()),
            (1, "p")
        );
        assert!((records[0].wait_secs() - 3.0).abs() < 1e-9);
        assert!((records[0].exec_secs() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn per_processor_groups_by_first_appearance() {
        let rec = |processor: &str, i: u32| InvocationRecord {
            processor: processor.into(),
            index: DataIndex::single(i),
            submitted: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            retries: 0,
        };
        let records = [rec("b", 1), rec("a", 0), rec("b", 0)];
        let groups = per_processor(&records);
        let names: Vec<&str> = groups.iter().map(|(p, _)| *p).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(
            groups[0].1[1].index,
            DataIndex::single(0),
            "completion order"
        );
    }

    #[test]
    fn result_sink_and_report() {
        let mut sink_outputs = BTreeMap::new();
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
            completed_invocations: 2,
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
    }
}
