//! Grid job descriptions, lifecycle records and outcomes.

use crate::time::{SimDuration, SimTime};

/// Identifier of a job inside one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Identifier of a computing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CeId(pub usize);

/// What the caller asks the grid to run.
///
/// `compute_seconds` is the job's duration on a reference-speed worker;
/// the assigned CE's speed factor scales it. File sizes drive the
/// stage-in/stage-out transfer model. The `tag` is opaque to the
/// simulator and lets the enactor correlate completions with workflow
/// invocations.
#[derive(Debug, Clone)]
pub struct GridJobSpec {
    pub name: String,
    pub compute_seconds: f64,
    /// Sizes (bytes) of files staged in before execution.
    pub input_files: Vec<u64>,
    /// Sizes (bytes) of files registered on storage after execution.
    pub output_files: Vec<u64>,
    pub tag: u64,
}

impl GridJobSpec {
    pub fn new(name: impl Into<String>, compute_seconds: f64) -> Self {
        GridJobSpec {
            name: name.into(),
            compute_seconds,
            input_files: Vec::new(),
            output_files: Vec::new(),
            tag: 0,
        }
    }

    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    pub fn with_files(mut self, input: Vec<u64>, output: Vec<u64>) -> Self {
        self.input_files = input;
        self.output_files = output;
        self
    }

    pub fn total_input_bytes(&self) -> u64 {
        self.input_files.iter().sum()
    }

    pub fn total_output_bytes(&self) -> u64 {
        self.output_files.iter().sum()
    }
}

/// Final state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed successfully (possibly after resubmissions).
    Success,
    /// Failed and exhausted its resubmission budget.
    Failed,
}

/// Timestamped record of one job's trip through the grid; the paper's
/// overhead analysis (submission + scheduling + queuing + transfers) is
/// computed from these fields. The simulator holds it while the job is
/// in flight and hands it to the submitter, once, as the job's
/// completion ([`crate::GridSim::next_completion`]).
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: JobId,
    pub name: String,
    pub tag: u64,
    /// When the user interface accepted the job.
    pub submitted_at: SimTime,
    /// When the resource broker picked a CE (last attempt).
    pub matched_at: SimTime,
    /// When the job entered the CE batch queue (last attempt).
    pub enqueued_at: SimTime,
    /// When a worker started executing it (last attempt).
    pub started_at: SimTime,
    /// When execution (incl. stage-out) finished.
    pub finished_at: SimTime,
    /// When the completion became visible to the submitter.
    pub delivered_at: SimTime,
    pub ce: Option<CeId>,
    /// 1 for a job that succeeded first time.
    pub attempts: u32,
    pub stage_in: SimDuration,
    pub compute: SimDuration,
    pub stage_out: SimDuration,
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Total time from submission to delivery.
    pub fn turnaround(&self) -> SimDuration {
        self.delivered_at.since(self.submitted_at)
    }

    /// Grid overhead: everything except the (scaled) compute time —
    /// submission, brokering, queuing, transfers and notification,
    /// accumulated over all attempts.
    pub fn overhead(&self) -> SimDuration {
        self.turnaround() - self.compute
    }

    /// Time spent waiting in batch queues (last attempt only).
    pub fn queue_wait(&self) -> SimDuration {
        self.started_at.since(self.enqueued_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        JobRecord {
            id: JobId(1),
            name: "j".into(),
            tag: 7,
            submitted_at: SimTime::from_secs_f64(0.0),
            matched_at: SimTime::from_secs_f64(10.0),
            enqueued_at: SimTime::from_secs_f64(20.0),
            started_at: SimTime::from_secs_f64(120.0),
            finished_at: SimTime::from_secs_f64(200.0),
            delivered_at: SimTime::from_secs_f64(205.0),
            ce: Some(CeId(0)),
            attempts: 1,
            stage_in: SimDuration::from_secs(5),
            compute: SimDuration::from_secs(70),
            stage_out: SimDuration::from_secs(5),
            outcome: JobOutcome::Success,
        }
    }

    #[test]
    fn turnaround_spans_submit_to_delivery() {
        assert_eq!(record().turnaround(), SimDuration::from_secs(205));
    }

    #[test]
    fn overhead_excludes_compute() {
        assert_eq!(record().overhead(), SimDuration::from_secs(135));
    }

    #[test]
    fn queue_wait_is_enqueue_to_start() {
        assert_eq!(record().queue_wait(), SimDuration::from_secs(100));
    }

    #[test]
    fn spec_byte_totals() {
        let s = GridJobSpec::new("x", 1.0).with_files(vec![10, 20], vec![5]);
        assert_eq!(s.total_input_bytes(), 30);
        assert_eq!(s.total_output_bytes(), 5);
    }
}
