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
//! marker arrives, so a run on a non-grid backend (no `Grid*` events)
//! simply yields item spans without phases. A resubmitted job gets a
//! fresh scheduling/queuing/execution chain per attempt, so retries are
//! visible as repeated phases under one item.

use super::{EventSink, TraceEvent};
use moteur_gridsim::SimTime;
use std::collections::{BTreeMap, HashMap};
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

/// Per-invocation assembly state.
#[derive(Debug, Clone, Copy)]
struct ItemState {
    span: SpanId,
    /// Start marker of the next retro-created phase span.
    mark: SimTime,
}

/// [`EventSink`] folding the event stream into a `SpanTree`.
#[derive(Debug)]
pub struct SpanSink {
    tree: Arc<Mutex<SpanTree>>,
    root: Option<SpanId>,
    services: HashMap<String, SpanId>,
    items: HashMap<u64, ItemState>,
    /// Fresh attempt tags registered per logical invocation by the
    /// fault-tolerance machinery (timeout resubmits continue the same
    /// item span; speculative replicas get sibling spans). Cleared on
    /// the logical invocation's terminal event so a winning replica's
    /// span is closed even though only the loser receives an explicit
    /// `JobCancelled`.
    attempts_of: HashMap<u64, Vec<u64>>,
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
                services: HashMap::new(),
                items: HashMap::new(),
                attempts_of: HashMap::new(),
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
    ) -> SpanId {
        let id = SpanId(tree.spans.len());
        tree.spans.push(Span {
            id,
            parent,
            kind,
            name,
            start,
            end: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Retro-create a finished phase span `[state.mark, at]` under the
    /// invocation's item span and advance the marker.
    fn phase(
        tree: &mut SpanTree,
        state: &mut ItemState,
        phase: GridPhase,
        at: SimTime,
        attrs: &[(&str, String)],
    ) {
        let id = Self::open(
            tree,
            Some(state.span),
            SpanKind::Phase(phase),
            phase.name().to_string(),
            state.mark,
        );
        tree.spans[id.0].end = Some(at);
        for (k, v) in attrs {
            tree.spans[id.0].attrs.push(((*k).to_string(), v.clone()));
        }
        state.mark = at;
    }
}

impl EventSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at();
        let mut tree = self.tree.lock().expect("span tree lock");
        let root = *self.root.get_or_insert_with(|| {
            Self::open(
                &mut tree,
                None,
                SpanKind::Workflow,
                "workflow".to_string(),
                at,
            )
        });
        // The root tracks the latest timestamp seen, so it is always a
        // closed, full-run span once the stream ends.
        if tree.spans[root.0].end.is_none_or(|e| e < at) {
            tree.spans[root.0].end = Some(at);
        }
        match event {
            TraceEvent::JobSubmitted {
                invocation,
                processor,
                batched,
                ..
            } => {
                let service = *self.services.entry(processor.clone()).or_insert_with(|| {
                    Self::open(
                        &mut tree,
                        Some(root),
                        SpanKind::Service,
                        processor.clone(),
                        at,
                    )
                });
                let item = Self::open(
                    &mut tree,
                    Some(service),
                    SpanKind::DataItem,
                    invocation.to_string(),
                    at,
                );
                if *batched > 1 {
                    tree.spans[item.0]
                        .attrs
                        .push(("batched".to_string(), batched.to_string()));
                }
                self.items.insert(
                    *invocation,
                    ItemState {
                        span: item,
                        mark: at,
                    },
                );
            }
            // A cache-elided invocation: open the item span like a
            // submission would, but mark it cached. The only phase it
            // can accrue is the fetch's transfer — submission,
            // scheduling, queuing and execution never appear.
            TraceEvent::CacheHit {
                invocation,
                processor,
                ..
            } => {
                let service = *self.services.entry(processor.clone()).or_insert_with(|| {
                    Self::open(
                        &mut tree,
                        Some(root),
                        SpanKind::Service,
                        processor.clone(),
                        at,
                    )
                });
                let item = Self::open(
                    &mut tree,
                    Some(service),
                    SpanKind::DataItem,
                    invocation.to_string(),
                    at,
                );
                tree.spans[item.0]
                    .attrs
                    .push(("cached".to_string(), "true".to_string()));
                self.items.insert(
                    *invocation,
                    ItemState {
                        span: item,
                        mark: at,
                    },
                );
            }
            TraceEvent::GridSubmitted { invocation, .. } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    Self::phase(&mut tree, s, GridPhase::Submission, at, &[]);
                }
            }
            TraceEvent::GridEnqueued {
                invocation,
                ce,
                attempt,
                ..
            } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    Self::phase(
                        &mut tree,
                        s,
                        GridPhase::Scheduling,
                        at,
                        &[("ce", ce.to_string()), ("attempt", attempt.to_string())],
                    );
                }
            }
            TraceEvent::GridStarted { invocation, .. } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    Self::phase(&mut tree, s, GridPhase::Queuing, at, &[]);
                }
            }
            TraceEvent::GridFinished {
                invocation,
                success,
                ..
            } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    Self::phase(
                        &mut tree,
                        s,
                        GridPhase::Execution,
                        at,
                        &[("success", success.to_string())],
                    );
                }
            }
            TraceEvent::GridDelivered { invocation, .. } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    Self::phase(&mut tree, s, GridPhase::Transfer, at, &[]);
                }
            }
            TraceEvent::GridResubmitted { invocation, .. } => {
                // Failure-detection gap: advance the marker so the next
                // attempt's scheduling span starts at resubmission, not
                // at the failed finish.
                if let Some(s) = self.items.get_mut(invocation) {
                    s.mark = at;
                }
            }
            TraceEvent::JobTimedOut {
                invocation, action, ..
            } => {
                if let Some(s) = self.items.get_mut(invocation) {
                    tree.spans[s.span.0]
                        .attrs
                        .push(("timed_out".to_string(), (*action).to_string()));
                    s.mark = at;
                }
            }
            TraceEvent::JobResubmitted {
                invocation,
                attempt,
                ..
            } => {
                // An enactor-level resubmission is a fresh try of the
                // same data item: its grid phases continue under the
                // one item span. Timeout resubmits carry a fresh
                // backend tag — alias it so the new attempt's `Grid*`
                // events (keyed by that tag) still find the item.
                if let Some(s) = self.items.get_mut(invocation) {
                    s.mark = at;
                    let state = *s;
                    if attempt != invocation {
                        self.items.insert(*attempt, ItemState { mark: at, ..state });
                        self.attempts_of
                            .entry(*invocation)
                            .or_default()
                            .push(*attempt);
                    }
                }
            }
            TraceEvent::JobReplicated {
                invocation,
                attempt,
                replica,
                ..
            } => {
                // A speculative replica races the original attempt: it
                // appears as a sibling item span under the same
                // service, so both attempts' phase chains stay
                // disjoint. The loser is closed by its `JobCancelled`
                // (reason `superseded`); a winning replica is closed
                // by the logical invocation's terminal event below.
                if let Some(s) = self.items.get(invocation).copied() {
                    let parent = tree.spans[s.span.0].parent;
                    let span = Self::open(
                        &mut tree,
                        parent,
                        SpanKind::DataItem,
                        attempt.to_string(),
                        at,
                    );
                    tree.spans[span.0]
                        .attrs
                        .push(("replica_of".to_string(), invocation.to_string()));
                    tree.spans[span.0]
                        .attrs
                        .push(("replica".to_string(), replica.to_string()));
                    self.items.insert(*attempt, ItemState { span, mark: at });
                    self.attempts_of
                        .entry(*invocation)
                        .or_default()
                        .push(*attempt);
                }
            }
            TraceEvent::CeBlacklisted { ce, failures, .. } => {
                tree.spans[root.0].attrs.push((
                    format!("blacklisted_ce{ce}"),
                    format!("{failures} failures"),
                ));
            }
            TraceEvent::JobCompleted { invocation, .. } => {
                if let Some(s) = self.items.remove(invocation) {
                    tree.spans[s.span.0].end = Some(at);
                    Self::close_ancestors(&mut tree, s.span, at);
                    Self::close_attempts(
                        &mut self.attempts_of,
                        &mut self.items,
                        &mut tree,
                        *invocation,
                        s.span,
                        at,
                    );
                }
            }
            TraceEvent::JobFailed {
                invocation, error, ..
            } => {
                if let Some(s) = self.items.remove(invocation) {
                    tree.spans[s.span.0].end = Some(at);
                    tree.spans[s.span.0]
                        .attrs
                        .push(("error".to_string(), error.clone()));
                    Self::close_ancestors(&mut tree, s.span, at);
                    Self::close_attempts(
                        &mut self.attempts_of,
                        &mut self.items,
                        &mut tree,
                        *invocation,
                        s.span,
                        at,
                    );
                }
            }
            TraceEvent::JobCancelled {
                invocation, reason, ..
            } => {
                if let Some(s) = self.items.remove(invocation) {
                    tree.spans[s.span.0].end = Some(at);
                    tree.spans[s.span.0]
                        .attrs
                        .push(("cancelled".to_string(), (*reason).to_string()));
                    Self::close_ancestors(&mut tree, s.span, at);
                    Self::close_attempts(
                        &mut self.attempts_of,
                        &mut self.items,
                        &mut tree,
                        *invocation,
                        s.span,
                        at,
                    );
                }
            }
            _ => {}
        }
    }
}

impl SpanSink {
    /// Drop every fresh attempt tag registered for `logical` and close
    /// any still-open sibling replica span at `at` (a winning replica
    /// never receives its own terminal event — the logical invocation
    /// does).
    fn close_attempts(
        attempts_of: &mut HashMap<u64, Vec<u64>>,
        items: &mut HashMap<u64, ItemState>,
        tree: &mut SpanTree,
        logical: u64,
        item: SpanId,
        at: SimTime,
    ) {
        for tag in attempts_of.remove(&logical).unwrap_or_default() {
            if let Some(a) = items.remove(&tag) {
                if a.span != item && tree.spans[a.span.0].end.is_none() {
                    tree.spans[a.span.0].end = Some(at);
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        sink.record(&TraceEvent::GridSubmitted {
            at: t(base + 10.0),
            invocation: inv,
            name: format!("j{inv}"),
        });
        sink.record(&TraceEvent::GridMatched {
            at: t(base + 15.0),
            invocation: inv,
            ce: 2,
        });
        sink.record(&TraceEvent::GridEnqueued {
            at: t(base + 20.0),
            invocation: inv,
            ce: 2,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(base + 50.0),
            invocation: inv,
            ce: 2,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(base + 150.0),
            invocation: inv,
            ce: 2,
            success: true,
        });
        sink.record(&TraceEvent::GridDelivered {
            at: t(base + 155.0),
            invocation: inv,
            success: true,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(base + 155.0),
            invocation: inv,
            processor: proc.into(),
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
        sink.record(&TraceEvent::GridSubmitted {
            at: t(5.0),
            invocation: 3,
            name: "j3".into(),
        });
        sink.record(&TraceEvent::GridEnqueued {
            at: t(10.0),
            invocation: 3,
            ce: 0,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(20.0),
            invocation: 3,
            ce: 0,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(30.0),
            invocation: 3,
            ce: 0,
            success: false,
        });
        sink.record(&TraceEvent::GridResubmitted {
            at: t(40.0),
            invocation: 3,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridEnqueued {
            at: t(45.0),
            invocation: 3,
            ce: 1,
            attempt: 2,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(50.0),
            invocation: 3,
            ce: 1,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(60.0),
            invocation: 3,
            ce: 1,
            success: true,
        });
        sink.record(&TraceEvent::GridDelivered {
            at: t(62.0),
            invocation: 3,
            success: true,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(62.0),
            invocation: 3,
            processor: "p".into(),
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
        sink.record(&TraceEvent::GridSubmitted {
            at: t(2.0),
            invocation: 5,
            name: "j5".into(),
        });
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
        sink.record(&TraceEvent::GridEnqueued {
            at: t(65.0),
            invocation: 42,
            ce: 1,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(70.0),
            invocation: 42,
            ce: 1,
        });
        sink.record(&TraceEvent::GridFinished {
            at: t(80.0),
            invocation: 42,
            ce: 1,
            success: true,
        });
        sink.record(&TraceEvent::JobCompleted {
            at: t(82.0),
            invocation: 5,
            processor: "p".into(),
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
        sink.record(&TraceEvent::GridSubmitted {
            at: t(1.0),
            invocation: 7,
            name: "j7".into(),
        });
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
        sink.record(&TraceEvent::GridEnqueued {
            at: t(55.0),
            invocation: 99,
            ce: 2,
            attempt: 1,
        });
        sink.record(&TraceEvent::GridStarted {
            at: t(60.0),
            invocation: 99,
            ce: 2,
        });
        // …the original loses the race and is superseded, then the
        // logical invocation completes.
        sink.record(&TraceEvent::GridFinished {
            at: t(90.0),
            invocation: 99,
            ce: 2,
            success: true,
        });
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
