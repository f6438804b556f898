//! Hierarchical spans over the [`TraceEvent`] stream.
//!
//! Raw events answer "what happened when"; spans answer "what contained
//! what". [`SpanSink`] folds the flat event stream into a tree —
//!
//! ```text
//! workflow
//! ├── service crestLines
//! │   ├── item 0                    (one invocation)
//! │   │   ├── submission            (enactor → grid UI)
//! │   │   ├── scheduling            (UI → CE queue, via the broker)
//! │   │   ├── queuing               (batch queue wait)
//! │   │   ├── execution             (worker occupancy)
//! │   │   └── transfer              (completion → submitter)
//! │   └── item 1 …
//! └── service crestMatch …
//! ```
//!
//! — which is exactly the decomposition the paper needs to attribute a
//! makespan to grid overhead (everything but `execution`) versus useful
//! compute. Phase spans are created *retrospectively* when their end
//! marker arrives, so a run on a non-grid backend (no `Grid` events)
//! simply yields item spans without phases. A resubmitted job gets a
//! fresh scheduling/queuing/execution chain per attempt, so retries are
//! visible as repeated phases under one item.

use super::lifecycle::{Lifecycle, Step};
use super::{EventSink, TraceEvent};
use moteur_gridsim::{JobOutcome, SimEvent, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Identifier of a span inside one [`SpanTree`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub usize);

/// The five grid phases of one invocation attempt, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GridPhase {
    /// Enactor hand-off → grid user interface acceptance.
    Submission,
    /// UI acceptance → broker match → CE queue entry.
    Scheduling,
    /// Batch-queue wait until a worker slot frees.
    Queuing,
    /// Worker occupancy (stage-in + compute + stage-out).
    Execution,
    /// Completion visible on the worker → submitter notified.
    Transfer,
}

impl GridPhase {
    /// Stable snake_case name, used in rendering and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            GridPhase::Submission => "submission",
            GridPhase::Scheduling => "scheduling",
            GridPhase::Queuing => "queuing",
            GridPhase::Execution => "execution",
            GridPhase::Transfer => "transfer",
        }
    }

    /// All phases, lifecycle order.
    pub const ALL: [GridPhase; 5] = [
        GridPhase::Submission,
        GridPhase::Scheduling,
        GridPhase::Queuing,
        GridPhase::Execution,
        GridPhase::Transfer,
    ];
}

/// The level of a span in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole enactment (root).
    Workflow,
    /// All invocations of one processor.
    Service,
    /// One invocation (one data item through one service).
    DataItem,
    /// One grid phase of one invocation attempt.
    Phase(GridPhase),
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Workflow => "workflow",
            SpanKind::Service => "service",
            SpanKind::DataItem => "item",
            SpanKind::Phase(p) => p.name(),
        }
    }
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub kind: SpanKind,
    /// Workflow/service name, `item <invocation>` or the phase name.
    pub name: String,
    pub start: SimTime,
    /// `None` while the span is still open (run aborted mid-flight).
    pub end: Option<SimTime>,
    /// Free-form attributes (`ce`, `attempt`, `batched`, `error`, …),
    /// in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Span length; open spans report zero.
    pub fn duration_secs(&self) -> f64 {
        self.end
            .map_or(0.0, |e| e.as_secs_f64() - self.start.as_secs_f64())
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An immutable snapshot of the span hierarchy of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id.0)
    }

    /// Top-level spans (normally exactly one workflow span).
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Direct children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Spans of one kind, in creation order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// `(count, total seconds)` aggregated per grid phase, keyed by the
    /// phase's stable name. Phases that never occurred are absent.
    pub fn phase_durations(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if let SpanKind::Phase(p) = s.kind {
                let e = out.entry(p.name()).or_insert((0u64, 0.0f64));
                e.0 += 1;
                e.1 += s.duration_secs();
            }
        }
        out
    }

    /// Total grid overhead: every phase except `execution`.
    pub fn overhead_secs(&self) -> f64 {
        self.phase_durations()
            .iter()
            .filter(|(name, _)| **name != "execution")
            .map(|(_, (_, sum))| sum)
            .sum()
    }

    /// Indented text rendering of the tree with per-span durations.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut stack: Vec<(SpanId, usize)> = self
            .roots()
            .map(|s| (s.id, 0))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        while let Some((id, depth)) = stack.pop() {
            let s = &self.spans[id.0];
            let open = if s.end.is_none() { " (open)" } else { "" };
            let label = if s.name == s.kind.name() {
                s.name.clone()
            } else {
                format!("{} {}", s.kind.name(), s.name)
            };
            let _ = writeln!(
                out,
                "{:indent$}{} [{:.1}s @ {:.1}s]{}",
                "",
                label,
                s.duration_secs(),
                s.start.as_secs_f64(),
                open,
                indent = depth * 2
            );
            let children: Vec<(SpanId, usize)> =
                self.children(id).map(|c| (c.id, depth + 1)).collect();
            for c in children.into_iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// JSONL rendering: one span object per line, parent by id.
    pub fn to_jsonl(&self) -> String {
        use super::json::JsonObject;
        let mut out = String::new();
        for s in &self.spans {
            let mut o = JsonObject::new()
                .uint("id", s.id.0 as u64)
                .str("kind", s.kind.name())
                .str("name", &s.name)
                .num("start", s.start.as_secs_f64());
            if let Some(p) = s.parent {
                o = o.uint("parent", p.0 as u64);
            }
            if let Some(e) = s.end {
                o = o.num("end", e.as_secs_f64());
            }
            for (k, v) in &s.attrs {
                o = o.str(k, v);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// Shared read handle over a [`SpanSink`]'s tree.
#[derive(Debug, Clone)]
pub struct SpanBuffer {
    inner: Arc<Mutex<SpanTree>>,
}

impl SpanBuffer {
    /// Copy of the tree as recorded so far.
    pub fn snapshot(&self) -> SpanTree {
        self.inner.lock().expect("span tree lock").clone()
    }
}

/// [`EventSink`] folding the event stream into a `SpanTree`.
#[derive(Debug)]
pub struct SpanSink {
    tree: Arc<Mutex<SpanTree>>,
    root: Option<SpanId>,
    services: BTreeMap<String, SpanId>,
    /// The item span of each open invocation (a replica's is its own
    /// sibling span); an attempt's phases hang under its invocation's.
    pub(super) life: Lifecycle<SpanId>,
}

impl SpanSink {
    /// Returns the sink and a shared handle to read the tree after (or
    /// during) the run.
    pub fn new() -> (Self, SpanBuffer) {
        let tree = Arc::new(Mutex::new(SpanTree::default()));
        (
            SpanSink {
                tree: tree.clone(),
                root: None,
                services: BTreeMap::new(),
                life: Lifecycle::default(),
            },
            SpanBuffer { inner: tree },
        )
    }

    fn open(
        tree: &mut SpanTree,
        parent: Option<SpanId>,
        kind: SpanKind,
        name: String,
        start: SimTime,
        attrs: Vec<(String, String)>,
    ) -> SpanId {
        let id = SpanId(tree.spans.len());
        tree.spans.push(Span {
            id,
            parent,
            kind,
            name,
            start,
            end: None,
            attrs,
        });
        id
    }

    /// The item span of the invocation `event` opens: under its service,
    /// marked cached for a cache hit (its only phase is the fetch's
    /// transfer), or for a replica beside the item `of` it races, so the
    /// two attempts' phase chains stay disjoint.
    fn open_item(
        tree: &mut SpanTree,
        services: &mut BTreeMap<String, SpanId>,
        root: SpanId,
        event: &TraceEvent,
        of: Option<&SpanId>,
    ) -> SpanId {
        let at = event.at();
        let service = match event {
            TraceEvent::JobSubmitted { processor, .. } | TraceEvent::CacheHit { processor, .. } => {
                Some(*super::metrics::entry(services, processor, || {
                    let name = processor.to_string();
                    Self::open(tree, Some(root), SpanKind::Service, name, at, Vec::new())
                }))
            }
            _ => None,
        };
        let (parent, name, attrs) = match event {
            TraceEvent::JobReplicated {
                invocation,
                replica,
                attempt,
                ..
            } => {
                let attrs = vec![
                    ("replica_of".to_string(), invocation.to_string()),
                    ("replica".to_string(), replica.to_string()),
                ];
                (of.and_then(|of| tree.spans[of.0].parent), attempt, attrs)
            }
            TraceEvent::JobSubmitted {
                invocation,
                batched,
                ..
            } => {
                let batched = (*batched > 1).then(|| ("batched".to_string(), batched.to_string()));
                (service, invocation, batched.into_iter().collect())
            }
            TraceEvent::CacheHit { invocation, .. } => {
                let cached = ("cached".to_string(), "true".to_string());
                (service, invocation, vec![cached])
            }
            _ => unreachable!("only JobSubmitted, CacheHit and JobReplicated open an invocation"),
        };
        let name = name.to_string();
        Self::open(tree, parent, SpanKind::DataItem, name, at, attrs)
    }

    /// Extend every ancestor's end to at least `at`.
    fn close_ancestors(tree: &mut SpanTree, from: SpanId, at: SimTime) {
        let mut cursor = tree.spans[from.0].parent;
        while let Some(id) = cursor {
            if tree.spans[id.0].end.is_none_or(|e| e < at) {
                tree.spans[id.0].end = Some(at);
            }
            cursor = tree.spans[id.0].parent;
        }
    }
}

impl EventSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at();
        let mut tree = self.tree.lock().expect("span tree lock");
        let tree = &mut *tree;
        let root = *self.root.get_or_insert_with(|| {
            let name = "workflow".to_string();
            Self::open(tree, None, SpanKind::Workflow, name, at, Vec::new())
        });
        // The root tracks the latest timestamp seen, so it is always a
        // closed, full-run span once the stream ends.
        if tree.spans[root.0].end.is_none_or(|e| e < at) {
            tree.spans[root.0].end = Some(at);
        }
        let services = &mut self.services;
        let step = self
            .life
            .record(event, |of| Self::open_item(tree, services, root, event, of));
        match event {
            // A grid transition retro-creates the finished phase span
            // that began at the attempt's previous one (a timeout or a
            // resubmission restarts that clock, so the next scheduling
            // span starts there, not at the failed finish).
            TraceEvent::Grid(e) => {
                let Step::Moved(attempt) = step else { return };
                let Some(&item) = attempt.invocation.and_then(|i| self.life.data(i)) else {
                    return;
                };
                let phase = match e {
                    SimEvent::JobSubmitted { .. } => GridPhase::Submission,
                    SimEvent::JobEnqueued { .. } => GridPhase::Scheduling,
                    SimEvent::JobStarted { .. } => GridPhase::Queuing,
                    SimEvent::JobFinished { .. } => GridPhase::Execution,
                    SimEvent::JobDelivered { .. } => GridPhase::Transfer,
                    _ => return,
                };
                let attr = |key: &str, value: String| (key.to_string(), value);
                let attrs = match e {
                    SimEvent::JobEnqueued { ce, attempt, .. } => {
                        vec![
                            attr("ce", ce.0.to_string()),
                            attr("attempt", attempt.to_string()),
                        ]
                    }
                    SimEvent::JobFinished { outcome, .. } => {
                        vec![attr(
                            "success",
                            (*outcome == JobOutcome::Success).to_string(),
                        )]
                    }
                    _ => Vec::new(),
                };
                let (kind, name) = (SpanKind::Phase(phase), phase.name().to_string());
                let id = Self::open(tree, Some(item), kind, name, attempt.last, attrs);
                tree.spans[id.0].end = Some(at);
            }
            TraceEvent::JobTimedOut {
                invocation, action, ..
            } => {
                if let Some(item) = self.life.data(*invocation) {
                    let attr = ("timed_out".to_string(), action.to_string());
                    tree.spans[item.0].attrs.push(attr);
                }
            }
            TraceEvent::CeBlacklisted { ce, failures, .. } => {
                tree.spans[root.0].attrs.push((
                    format!("blacklisted_ce{ce}"),
                    format!("{failures} failures"),
                ));
            }
            // A terminal event closes the item span, recording why a
            // failed or cancelled invocation ended, and the replica
            // spans still open under it: a winning replica's own span
            // gets no terminal event, its invocation's does.
            _ => {
                let Step::Ended { data, replicas, .. } = step else {
                    return;
                };
                let attr = match event {
                    TraceEvent::JobFailed { error, .. } => Some(("error", error.clone())),
                    TraceEvent::JobCancelled { reason, .. } => {
                        Some(("cancelled", (*reason).to_string()))
                    }
                    _ => None,
                };
                let item = &mut tree.spans[data.0];
                item.end = Some(at);
                if let Some((key, value)) = attr {
                    item.attrs.push((key.to_string(), value));
                }
                Self::close_ancestors(tree, data, at);
                for replica in replicas {
                    tree.spans[replica.0].end.get_or_insert(at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::grid;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Full grid lifecycle of one invocation under one service.
    fn lifecycle(sink: &mut SpanSink, inv: u64, proc: &str, base: f64) {
        sink.record(&TraceEvent::JobSubmitted {
            at: t(base),
            invocation: inv,
            processor: proc.into(),
            grid: true,
            batched: 1,
        });
        sink.record(&grid::submitted(base + 10.0, inv));
        sink.record(&grid::matched(base + 15.0, inv, 2));
        sink.record(&grid::enqueued(base + 20.0, inv, 2, 1));
        sink.record(&grid::started(base + 50.0, inv, 2));
        sink.record(&grid::finished(base + 150.0, inv, 2, true));
        sink.record(&grid::delivered(base + 155.0, inv, true));
        sink.record(&TraceEvent::JobCompleted {
            at: t(base + 155.0),
            invocation: inv,
            processor: proc.into(),
            completion: Box::default(),
        });
    }

    #[test]
    fn builds_four_level_hierarchy_with_five_phases() {
        let (mut sink, buf) = SpanSink::new();
        lifecycle(&mut sink, 7, "crestLines", 0.0);
        let tree = buf.snapshot();
        let root = tree.roots().next().expect("root span");
        assert_eq!(root.kind, SpanKind::Workflow);
        assert_eq!(root.end, Some(t(155.0)));
        let service = tree.children(root.id).next().expect("service span");
        assert_eq!(service.kind, SpanKind::Service);
        assert_eq!(service.name, "crestLines");
        assert_eq!(service.end, Some(t(155.0)));
        let item = tree.children(service.id).next().expect("item span");
        assert_eq!(item.kind, SpanKind::DataItem);
        let phases: Vec<&'static str> = tree.children(item.id).map(|s| s.kind.name()).collect();
        assert_eq!(
            phases,
            [
                "submission",
                "scheduling",
                "queuing",
                "execution",
                "transfer"
            ]
        );
        // Phase windows partition [0, 155]: 10 + 10 + 30 + 100 + 5.
        let durs = tree.phase_durations();
        assert_eq!(durs["submission"], (1, 10.0));
        assert_eq!(durs["scheduling"], (1, 10.0));
        assert_eq!(durs["queuing"], (1, 30.0));
        assert_eq!(durs["execution"], (1, 100.0));
        assert_eq!(durs["transfer"], (1, 5.0));
        assert!((tree.overhead_secs() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn services_are_shared_and_extended_across_items() {
        let (mut sink, buf) = SpanSink::new();
        lifecycle(&mut sink, 0, "p", 0.0);
        lifecycle(&mut sink, 1, "p", 200.0);
        let tree = buf.snapshot();
        let services: Vec<&Span> = tree.of_kind(SpanKind::Service).collect();
        assert_eq!(services.len(), 1, "one span per service");
        assert_eq!(services[0].start, t(0.0));
        assert_eq!(services[0].end, Some(t(355.0)));
        assert_eq!(tree.of_kind(SpanKind::DataItem).count(), 2);
    }

    #[test]
    fn resubmission_yields_repeated_phases_under_one_item() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 3,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&grid::submitted(5.0, 3));
        sink.record(&grid::enqueued(10.0, 3, 0, 1));
        sink.record(&grid::started(20.0, 3, 0));
        sink.record(&grid::finished(30.0, 3, 0, false));
        sink.record(&grid::resubmitted(40.0, 3, 1));
        sink.record(&grid::enqueued(45.0, 3, 1, 2));
        sink.record(&grid::started(50.0, 3, 1));
        sink.record(&grid::finished(60.0, 3, 1, true));
        sink.record(&grid::delivered(62.0, 3, true));
        sink.record(&TraceEvent::JobCompleted {
            at: t(62.0),
            invocation: 3,
            processor: "p".into(),
            completion: Box::default(),
        });
        let tree = buf.snapshot();
        let durs = tree.phase_durations();
        assert_eq!(durs["execution"], (2, 20.0), "two attempts");
        // Second scheduling span starts at the resubmission (40), not
        // at the failed finish (30): 45 − 40 = 5.
        assert_eq!(durs["scheduling"].0, 2);
        assert!((durs["scheduling"].1 - (5.0 + 5.0)).abs() < 1e-9);
        let execs: Vec<&Span> = tree
            .of_kind(SpanKind::Phase(GridPhase::Execution))
            .collect();
        assert_eq!(execs[0].attr("success"), Some("false"));
        assert_eq!(execs[1].attr("success"), Some("true"));
    }

    #[test]
    fn timeout_resubmit_continues_phases_under_the_same_item() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 5,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&grid::submitted(2.0, 5));
        sink.record(&TraceEvent::JobTimedOut {
            at: t(60.0),
            invocation: 5,
            processor: "p".into(),
            timeout_secs: 60.0,
            action: "resubmit",
        });
        // The timeout resubmit carries a fresh backend tag (42): its
        // grid events must still land under item 5.
        sink.record(&TraceEvent::JobResubmitted {
            at: t(60.0),
            invocation: 5,
            processor: "p".into(),
            retry: 1,
            attempt: 42,
        });
        sink.record(&grid::enqueued(65.0, 42, 1, 1));
        sink.record(&grid::started(70.0, 42, 1));
        sink.record(&grid::finished(80.0, 42, 1, true));
        sink.record(&TraceEvent::JobCompleted {
            at: t(82.0),
            invocation: 5,
            processor: "p".into(),
            completion: Box::default(),
        });
        let tree = buf.snapshot();
        let items: Vec<&Span> = tree.of_kind(SpanKind::DataItem).collect();
        assert_eq!(items.len(), 1, "resubmits do not grow sibling items");
        let item = items[0];
        assert_eq!(item.attr("timed_out"), Some("resubmit"));
        assert_eq!(item.end, Some(t(82.0)));
        // The fresh attempt's phases hang off the one item span, and
        // its scheduling starts at the resubmission (60), not at the
        // submission: 65 − 60 = 5.
        let durs = tree.phase_durations();
        assert_eq!(durs["scheduling"], (1, 5.0));
        assert_eq!(durs["execution"], (1, 10.0));
        let sched = tree
            .of_kind(SpanKind::Phase(GridPhase::Scheduling))
            .next()
            .unwrap();
        assert_eq!(sched.parent, Some(item.id));
    }

    #[test]
    fn replicas_are_sibling_spans_and_losers_do_not_linger() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 7,
            processor: "p".into(),
            grid: true,
            batched: 1,
        });
        sink.record(&grid::submitted(1.0, 7));
        sink.record(&TraceEvent::JobTimedOut {
            at: t(50.0),
            invocation: 7,
            processor: "p".into(),
            timeout_secs: 50.0,
            action: "replicate",
        });
        sink.record(&TraceEvent::JobReplicated {
            at: t(50.0),
            invocation: 7,
            processor: "p".into(),
            replica: 1,
            attempt: 99,
        });
        // The replica runs its own grid chain…
        sink.record(&grid::enqueued(55.0, 99, 2, 1));
        sink.record(&grid::started(60.0, 99, 2));
        // …the original loses the race and is superseded, then the
        // logical invocation completes.
        sink.record(&grid::finished(90.0, 99, 2, true));
        sink.record(&TraceEvent::JobCancelled {
            at: t(92.0),
            invocation: 7,
            processor: "p".into(),
            reason: "superseded",
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(92.0),
            invocation: 7,
            processor: "p".into(),
            completion: Box::default(),
        });
        let tree = buf.snapshot();
        let items: Vec<&Span> = tree.of_kind(SpanKind::DataItem).collect();
        assert_eq!(items.len(), 2, "replica appears as a sibling item");
        let (orig, replica) = (items[0], items[1]);
        assert_eq!(orig.parent, replica.parent, "siblings under one service");
        assert_eq!(replica.attr("replica_of"), Some("7"));
        assert_eq!(replica.attr("replica"), Some("1"));
        // Every span is closed — no open replica after the terminal
        // event, even though only the original got a JobCancelled.
        assert!(tree.spans().iter().all(|s| s.end.is_some()));
        assert_eq!(replica.end, Some(t(92.0)));
        // The replica's execution phase sits under the replica span.
        let exec = tree
            .of_kind(SpanKind::Phase(GridPhase::Execution))
            .next()
            .unwrap();
        assert_eq!(exec.parent, Some(replica.id));
    }

    #[test]
    fn ce_blacklisting_annotates_the_workflow_root() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::CeBlacklisted {
            at: t(30.0),
            ce: 4,
            failures: 3,
        });
        let tree = buf.snapshot();
        let root = tree.roots().next().expect("root");
        assert_eq!(root.attr("blacklisted_ce4"), Some("3 failures"));
    }

    #[test]
    fn non_grid_backend_yields_items_without_phases() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 0,
            processor: "local".into(),
            grid: false,
            batched: 1,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(9.0),
            invocation: 0,
            processor: "local".into(),
            completion: Box::default(),
        });
        let tree = buf.snapshot();
        assert_eq!(tree.of_kind(SpanKind::DataItem).count(), 1);
        assert!(tree.phase_durations().is_empty());
        assert_eq!(tree.overhead_secs(), 0.0);
    }

    #[test]
    fn failed_item_records_the_error_and_render_is_indented() {
        let (mut sink, buf) = SpanSink::new();
        sink.record(&TraceEvent::JobSubmitted {
            at: t(0.0),
            invocation: 1,
            processor: "p".into(),
            grid: true,
            batched: 3,
        });
        sink.record(&TraceEvent::JobFailed {
            at: t(4.0),
            invocation: 1,
            processor: "p".into(),
            error: "boom".into(),
        });
        let tree = buf.snapshot();
        let item = tree.of_kind(SpanKind::DataItem).next().unwrap();
        assert_eq!(item.attr("error"), Some("boom"));
        assert_eq!(item.attr("batched"), Some("3"));
        let text = tree.render();
        assert!(text.starts_with("workflow"), "{text}");
        assert!(text.contains("\n  service p"), "{text}");
        assert!(text.contains("\n    item 1"), "{text}");
        let jsonl = tree.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"error\":\"boom\""));
    }
}
