//! The invocation → attempt join under every fold sink.
//!
//! [`crate::MetricsSink`], [`crate::SpanSink`] and
//! [`super::timeline::TimelineSink`] fold the event stream into their
//! own documents from the same facts: which attempt tag runs for which
//! invocation, an attempt's grid marks, and when both may be forgotten.
//! [`Lifecycle`] is the one definition of those facts. Each sink, boxed
//! on its own behind [`super::EventSink`], owns one and folds its
//! [`Step`]s. Entries live while they are in flight:
//!
//! - an *invocation* is a logical one (`JobSubmitted` / `CacheHit`) or a
//!   replica (`JobReplicated`, keyed by its tag). It ends at the first
//!   terminal event naming its id, a replica also with the invocation it
//!   races for. A superseded loser's `JobCancelled` names the loser, the
//!   logical id when a replica won, so the `JobCompleted` that follows
//!   finds no entry;
//! - an *attempt* is one backend tag: an invocation's own, a timeout
//!   resubmit's or a replica's. It ends at its grid `JobDelivered` /
//!   `JobCancelled` or at its invocation's end.

use super::TraceEvent;
use crate::backend::IdHasher;
use moteur_gridsim::{SimEvent, SimTime};
use std::collections::HashMap;

/// One open invocation or replica, with the sink's data for it.
#[derive(Debug)]
struct Invocation<D> {
    replica: bool,
    /// Resubmit aliases and replicas: they end with it.
    tags: Vec<u64>,
    data: D,
}

/// One attempt's marks, in seconds of virtual time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Attempt {
    /// The open invocation it runs for; `None` for a tag no enactor
    /// event introduced (a bare simulator run).
    pub(crate) invocation: Option<u64>,
    /// The enactor's or the grid's submission, whichever came last.
    pub(crate) submitted: Option<f64>,
    /// A CE enqueue not yet followed by a start.
    pub(crate) enqueued: Option<f64>,
    pub(crate) started: Option<f64>,
    pub(crate) finished: Option<f64>,
    /// Stage-in + stage-out seconds of the running try.
    pub(crate) transfer: f64,
    /// The last transition: where the attempt's next grid phase starts.
    pub(crate) last: SimTime,
}

/// What one event did to the join.
#[derive(Debug)]
pub(crate) enum Step<D> {
    /// Nothing a sink folds.
    Other,
    /// `JobSubmitted` / `CacheHit` opened a logical invocation; `false`
    /// when its id was open already.
    Opened(bool),
    /// A grid event moved or ended an attempt, carried as it was before.
    Moved(Attempt),
    /// A terminal event ended an open invocation, and the replicas still
    /// open under it.
    Ended {
        replica: bool,
        data: D,
        replicas: Vec<D>,
    },
}

/// Invocation and attempt entries by id.
#[derive(Debug)]
pub(crate) struct Lifecycle<D = ()> {
    invocations: HashMap<u64, Invocation<D>, IdHasher>,
    attempts: HashMap<u64, Attempt, IdHasher>,
}

impl<D> Default for Lifecycle<D> {
    fn default() -> Self {
        Lifecycle {
            invocations: HashMap::default(),
            attempts: HashMap::default(),
        }
    }
}

impl<D> Lifecycle<D> {
    /// The sink's data for open invocation `id`.
    pub(crate) fn data(&self, id: u64) -> Option<&D> {
        self.invocations.get(&id).map(|i| &i.data)
    }

    /// Apply `event`. `open` makes the sink's data for an invocation the
    /// event opens, from the data of the one a replica races for.
    pub(crate) fn record(
        &mut self,
        event: &TraceEvent,
        open: impl FnOnce(Option<&D>) -> D,
    ) -> Step<D> {
        let at = event.at();
        match event {
            TraceEvent::JobSubmitted { invocation, .. }
            | TraceEvent::CacheHit { invocation, .. } => {
                let entry = Invocation {
                    replica: false,
                    tags: Vec::new(),
                    data: open(None),
                };
                let fresh = self.invocations.insert(*invocation, entry).is_none();
                self.attempt(*invocation, *invocation, at).submitted = Some(at.as_secs_f64());
                Step::Opened(fresh)
            }
            TraceEvent::JobReplicated {
                invocation,
                attempt,
                ..
            } => {
                if let Some(owner) = self.invocations.get_mut(invocation) {
                    owner.tags.push(*attempt);
                    let entry = Invocation {
                        replica: true,
                        tags: Vec::new(),
                        data: open(Some(&owner.data)),
                    };
                    self.invocations.insert(*attempt, entry);
                    self.attempt(*attempt, *attempt, at);
                }
                Step::Other
            }
            // A timeout and a resubmission restart the logical attempt's
            // phase clock; a resubmission under a fresh tag adds an alias.
            TraceEvent::JobTimedOut { invocation, .. }
            | TraceEvent::JobResubmitted { invocation, .. } => {
                if let Some(attempt) = self.attempts.get_mut(invocation) {
                    attempt.last = at;
                }
                let entry = self.invocations.get_mut(invocation);
                if let (TraceEvent::JobResubmitted { attempt, .. }, Some(entry)) = (event, entry) {
                    if attempt != invocation {
                        entry.tags.push(*attempt);
                    }
                    self.attempt(*attempt, *invocation, at);
                }
                Step::Other
            }
            TraceEvent::JobCompleted { invocation, .. }
            | TraceEvent::JobFailed { invocation, .. }
            | TraceEvent::JobCancelled { invocation, .. } => self.end(*invocation),
            TraceEvent::Grid(e) => self.grid(e, at),
            _ => Step::Other,
        }
    }

    /// Attempt `tag` of `invocation`, created if absent, last moved `at`.
    fn attempt(&mut self, tag: u64, invocation: u64, at: SimTime) -> &mut Attempt {
        let attempt = self.attempts.entry(tag).or_default();
        attempt.invocation = Some(invocation);
        attempt.last = at;
        attempt
    }

    fn end(&mut self, invocation: u64) -> Step<D> {
        let Some(ended) = self.invocations.remove(&invocation) else {
            return Step::Other;
        };
        self.attempts.remove(&invocation);
        let mut replicas = Vec::new();
        for tag in ended.tags {
            self.attempts.remove(&tag);
            replicas.extend(self.invocations.remove(&tag).map(|r| r.data));
        }
        Step::Ended {
            replica: ended.replica,
            data: ended.data,
            replicas,
        }
    }

    fn grid(&mut self, e: &SimEvent, at: SimTime) -> Step<D> {
        let Some(tag) = e.tag() else {
            return Step::Other;
        };
        if let SimEvent::JobDelivered { .. } | SimEvent::JobCancelled { .. } = e {
            return self.attempts.remove(&tag).map_or(Step::Other, Step::Moved);
        }
        let attempt = self.attempts.entry(tag).or_default();
        let before = *attempt;
        let t = Some(at.as_secs_f64());
        match e {
            SimEvent::JobSubmitted { .. } => attempt.submitted = t,
            SimEvent::JobEnqueued { .. } => attempt.enqueued = t,
            SimEvent::JobStarted { .. } => (attempt.enqueued, attempt.started) = (None, t),
            SimEvent::JobFinished { .. } => (attempt.finished, attempt.transfer) = (t, 0.0),
            SimEvent::LinkTransfer {
                stage_in_secs,
                stage_out_secs,
                ..
            } => attempt.transfer = stage_in_secs + stage_out_secs,
            _ => {}
        }
        // A match and a link transfer happen inside a phase; the rest end one.
        if let SimEvent::JobMatched { .. } | SimEvent::LinkTransfer { .. } = e {
            return Step::Moved(before);
        }
        attempt.last = at;
        Step::Moved(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::GridPhase;
    use crate::obs::{grid, Completion, EventSink, Obs};
    use crate::{MetricsSink, Span, SpanKind, SpanName, SpanSink, TimelineSink};
    use std::sync::{Arc, Mutex};

    /// A sink handed to an `Obs` that the test can still reach.
    struct Shared<S>(Arc<Mutex<S>>);

    impl<S: EventSink> EventSink for Shared<S> {
        fn record(&mut self, event: &TraceEvent) {
            self.0.lock().unwrap().record(event);
        }
    }

    fn shared<S: EventSink + 'static>(sink: S) -> (Arc<Mutex<S>>, Box<dyn EventSink>) {
        let sink = Arc::new(Mutex::new(sink));
        (Arc::clone(&sink), Box::new(Shared(sink)))
    }

    fn is_empty<D>(life: &Lifecycle<D>) -> bool {
        life.invocations.is_empty() && life.attempts.is_empty()
    }

    /// Eight invocations of `svc` (one of `race`), each run to its end
    /// as the enactor and the simulator report it: one attempt; a
    /// timeout resubmit under a fresh tag; a replica that loses; a
    /// replica that wins; a failure; an abort; a cache hit; one run off
    /// the grid. Then two grid jobs no enactor event names, as a bare
    /// simulator run submits them: one delivered, one cancelled.
    fn script() -> Vec<TraceEvent> {
        let at = SimTime::from_secs_f64;
        // One grid attempt under `tag`: queued at `t`, started 10 s
        // later with 4 s of transfers, then run for 20 s unless `cut`.
        let attempt = |tag: u64, t: f64, cut: bool| {
            let mut events = vec![
                grid::enqueued(t, tag, 0, 1),
                grid::started(t + 10.0, tag, 0),
                grid::link(t + 10.0, tag, 0, 700, 300, 3.0, 1.0),
            ];
            if !cut {
                events.push(grid::finished(t + 30.0, tag, 0, true));
            }
            events
        };
        let processor =
            |invocation: u64| Arc::<str>::from(if invocation == 4 { "race" } else { "svc" });
        let submitted = |invocation: u64| TraceEvent::JobSubmitted {
            at: at(0.0),
            invocation,
            processor: processor(invocation),
            grid: true,
            batched: 1,
        };
        let completed = |t: f64, invocation: u64, submitted: f64| TraceEvent::JobCompleted {
            at: at(t),
            invocation,
            processor: processor(invocation),
            completion: Box::new(Completion {
                submitted: at(submitted),
                ..Completion::default()
            }),
        };
        let cancelled = |t: f64, invocation: u64, reason: &'static str| TraceEvent::JobCancelled {
            at: at(t),
            invocation,
            processor: processor(invocation),
            reason,
        };
        let timed_out = |t: f64, invocation: u64, action: &'static str| TraceEvent::JobTimedOut {
            at: at(t),
            invocation,
            processor: processor(invocation),
            timeout_secs: t,
            action,
        };
        let replicated = |t: f64, invocation: u64| TraceEvent::JobReplicated {
            at: at(t),
            invocation,
            processor: processor(invocation),
            replica: 1,
            attempt: 1000 + invocation,
        };

        // 1: one attempt, delivered.
        let mut events = vec![submitted(1)];
        events.extend(attempt(1, 0.0, false));
        events.extend([grid::delivered(31.0, 1, true), completed(31.0, 1, 0.0)]);
        // 2: timed out mid-run, resubmitted under the fresh tag 1002.
        events.push(submitted(2));
        events.extend(attempt(2, 0.0, true));
        events.extend([
            grid::cancelled(100.0, 2),
            timed_out(100.0, 2, "resubmit"),
            TraceEvent::JobResubmitted {
                at: at(100.0),
                invocation: 2,
                processor: processor(2),
                retry: 1,
                attempt: 1002,
            },
        ]);
        events.extend(attempt(1002, 100.0, false));
        events.extend([grid::delivered(131.0, 1002, true), completed(131.0, 2, 0.0)]);
        // 3: the replica 1003 loses to the original attempt, whose
        // cancellation names the replica.
        events.push(submitted(3));
        events.extend(attempt(3, 0.0, false));
        events.extend([timed_out(15.0, 3, "replicate"), replicated(15.0, 3)]);
        events.extend(attempt(1003, 15.0, true));
        events.extend([
            grid::delivered(31.0, 3, true),
            grid::cancelled(31.0, 1003),
            cancelled(31.0, 1003, "superseded"),
            completed(31.0, 3, 0.0),
        ]);
        // 4: the replica 1004 wins; the loser's cancellation carries
        // the logical id and comes before the invocation completes.
        events.extend([submitted(4), replicated(0.0, 4)]);
        events.extend(attempt(4, 50.0, true));
        events.extend(attempt(1004, 0.0, false));
        events.extend([
            grid::delivered(31.0, 1004, true),
            grid::cancelled(31.0, 4),
            cancelled(31.0, 4, "superseded"),
            completed(31.0, 4, 0.0),
        ]);
        // 5: failed for good.
        events.push(submitted(5));
        events.extend(attempt(5, 0.0, false));
        events.extend([
            grid::delivered(31.0, 5, false),
            TraceEvent::JobFailed {
                at: at(31.0),
                invocation: 5,
                processor: processor(5),
                error: "boom".into(),
            },
        ]);
        // 6: drained by an abort while queued. 7: answered by the data
        // manager, never on the grid.
        events.extend([
            submitted(6),
            grid::enqueued(1.0, 6, 0, 1),
            grid::cancelled(2.0, 6),
            cancelled(2.0, 6, "abort"),
            TraceEvent::CacheHit {
                at: at(5.0),
                invocation: 7,
                processor: processor(7),
                outputs: 1,
                transfer_seconds: 2.0,
            },
            completed(7.0, 7, 5.0),
        ]);
        // 8: run by a local service.
        events.extend([
            TraceEvent::JobSubmitted {
                at: at(0.0),
                invocation: 8,
                processor: processor(8),
                grid: false,
                batched: 1,
            },
            completed(5.0, 8, 0.0),
        ]);
        // 2000 and 2001: bare grid jobs, owned by no invocation.
        events.push(grid::submitted(200.0, 2000));
        events.extend(attempt(2000, 200.0, false));
        events.extend([
            grid::delivered(231.0, 2000, true),
            grid::submitted(6.0, 2001),
            grid::cancelled(9.0, 2001),
        ]);
        events
    }

    /// Every sink's entries end with the lifecycle they belong to, and
    /// ending them moved no aggregate: the timeline's numbers are what
    /// its never-forgetting predecessor computed for the same events.
    #[test]
    fn every_sink_forgets_finished_invocations_and_attempts() {
        let (metrics, registry) = MetricsSink::new();
        let (spans, buffer) = SpanSink::new();
        let ((metrics, metrics_box), (spans, spans_box)) = (shared(metrics), shared(spans));
        let timeline = TimelineSink::new();
        let state = timeline.state();
        let obs = Obs::new(vec![metrics_box, spans_box, Box::new(timeline)]);
        for event in script() {
            obs.record(&event);
        }

        let metrics = metrics.lock().unwrap();
        let spans = spans.lock().unwrap();
        let state = state.lock().unwrap();
        assert!(is_empty(&metrics.life), "{:?}", metrics.life);
        assert!(is_empty(&spans.life), "{:?}", spans.life);
        assert!(is_empty(&state.life), "{:?}", state.life);

        // The winning replica's invocation releases exactly one unit,
        // records one duration and leaves no span open.
        let reg = registry.lock().unwrap();
        let race = reg.gauge("inflight.race").unwrap();
        assert_eq!(race.timeline, [(0.0, 1), (31.0, 0)]);
        assert_eq!(reg.gauge("inflight_total").unwrap().current, 0);
        assert_eq!(reg.gauge("inflight.svc").unwrap().current, 0);
        let durations = |service: &str| -> Vec<(u64, f64)> {
            let samples = &state.stats.service_durations[service];
            samples.iter().map(|d| (d.invocation, d.secs)).collect()
        };
        assert_eq!(durations("race"), [(4, 31.0)]);
        let tree = buffer.snapshot();
        let at = SimTime::from_secs_f64;
        let open: Vec<String> = tree
            .spans()
            .iter()
            .filter(|s| s.end.is_none())
            .map(|s| s.name.to_string())
            .collect();
        assert!(open.is_empty(), "open spans {open:?}");
        let is_replica = |s: &&Span| s.name == SpanName::Invocation(1004);
        let replica = tree.spans().iter().find(is_replica).unwrap();
        assert_eq!(replica.attr("replica_of").as_deref(), Some("4"));
        // The bare jobs have no item to hang phases on: only they were
        // seen by the grid's submission, and only the root reaches 231 s.
        let bare = |s: &&Span| {
            s.kind == SpanKind::Phase(GridPhase::Submission)
                || (s.parent.is_some() && s.end > Some(at(131.0)))
        };
        let bare: Vec<&Span> = tree.spans().iter().filter(bare).collect();
        assert!(bare.is_empty(), "phases of bare jobs {bare:?}");

        // Nine attempts started (10 s queued, 4 s of transfers each);
        // the six that finished computed 20 s − 4 s. The bare ones count.
        let stats = &state.stats;
        assert_eq!(stats.queue_wait_secs, 90.0);
        assert_eq!(stats.transfer_secs, 36.0);
        assert_eq!(stats.compute_secs, 96.0);
        assert_eq!(stats.total_link_bytes(), 9000);
        let total = |name| state.timeline.get(name).expect(name).total();
        assert_eq!(
            (
                total("enactor.completed"),
                total("enactor.failed"),
                total("enactor.cancelled")
            ),
            (6.0, 1.0, 3.0),
            "{stats:?}"
        );
        assert_eq!(
            durations("svc"),
            [(1, 31.0), (2, 131.0), (3, 31.0), (7, 2.0), (8, 5.0)]
        );
        assert_eq!(stats.t_end, 231.0);
        // The three enactor attempts with an enactor submission, a start
        // and a finish, and the bare job with a grid one, are delivered
        // with 10 s of wait + 1 s of notification.
        let overhead = reg.histogram("grid_overhead_secs").unwrap();
        assert_eq!((overhead.count, overhead.sum), (4, 44.0));
    }
}
