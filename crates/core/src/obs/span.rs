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
//!
//! A span owns no string of its own: its [`SpanName`] is its kind's
//! static name, the processor's interned name or the invocation id, and
//! its attributes are typed [`SpanAttr`] values under static keys, the
//! first two kept inline. Only [`SpanTree::to_jsonl`],
//! [`SpanTree::render`] and [`Span::attr`] turn them into text. The tree
//! is shared with its snapshots rather than copied into them.

use super::lifecycle::{Lifecycle, Step};
use super::{EventSink, TraceEvent};
use moteur_gridsim::{JobOutcome, SimEvent, SimTime};
use std::borrow::Cow;
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

/// What a span is called, besides its kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanName {
    /// The workflow root's and a phase's: the name of its kind.
    Static(&'static str),
    /// A service span's: the processor's interned name.
    Service(Arc<str>),
    /// An item span's: its invocation id (a replica's backend tag).
    Invocation(u64),
}

impl std::fmt::Display for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanName::Static(name) => f.write_str(name),
            SpanName::Service(name) => f.write_str(name),
            SpanName::Invocation(id) => write!(f, "{id}"),
        }
    }
}

/// One typed span attribute; [`SpanAttr::key`] and [`SpanAttr::value`]
/// are its text.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanAttr {
    /// A scheduling phase's CE index.
    Ce(usize),
    /// A scheduling phase's attempt, from 1.
    Attempt(u32),
    /// An execution phase's outcome.
    Success(bool),
    /// An item whose job carries more than one workflow invocation.
    Batched(usize),
    /// An item the data manager answered from its cache.
    Cached,
    /// A replica item's logical invocation.
    ReplicaOf(u64),
    /// A replica item's number, from 1.
    Replica(u32),
    /// Why a failed item ended.
    Error(Box<str>),
    /// Why a cancelled item ended.
    Cancelled(&'static str),
    /// An item's timeout reaction (`resubmit` or `replicate`).
    TimedOut(&'static str),
    /// The root's: a CE the submitter blacklisted, after `failures`.
    Blacklisted { ce: usize, failures: u32 },
}

impl SpanAttr {
    /// The attribute's key; a blacklisting's names its CE
    /// (`blacklisted_ce4`), every other key is static.
    pub fn key(&self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            SpanAttr::Ce(_) => "ce",
            SpanAttr::Attempt(_) => "attempt",
            SpanAttr::Success(_) => "success",
            SpanAttr::Batched(_) => "batched",
            SpanAttr::Cached => "cached",
            SpanAttr::ReplicaOf(_) => "replica_of",
            SpanAttr::Replica(_) => "replica",
            SpanAttr::Error(_) => "error",
            SpanAttr::Cancelled(_) => "cancelled",
            SpanAttr::TimedOut(_) => "timed_out",
            SpanAttr::Blacklisted { ce, .. } => return Cow::Owned(format!("blacklisted_ce{ce}")),
        })
    }

    /// The attribute's value as text.
    pub fn value(&self) -> Cow<'_, str> {
        match self {
            SpanAttr::Ce(n) | SpanAttr::Batched(n) => Cow::Owned(n.to_string()),
            SpanAttr::Attempt(n) | SpanAttr::Replica(n) => Cow::Owned(n.to_string()),
            SpanAttr::ReplicaOf(id) => Cow::Owned(id.to_string()),
            SpanAttr::Success(ok) => Cow::Borrowed(if *ok { "true" } else { "false" }),
            SpanAttr::Cached => Cow::Borrowed("true"),
            SpanAttr::Error(error) => Cow::Borrowed(error),
            SpanAttr::Cancelled(why) | SpanAttr::TimedOut(why) => Cow::Borrowed(why),
            SpanAttr::Blacklisted { failures, .. } => Cow::Owned(format!("{failures} failures")),
        }
    }
}

/// A span's attributes, in insertion order. A span opens with at most
/// two, kept inline; only a later timeout, error or blacklisting goes
/// to the heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAttrs {
    inline: [Option<SpanAttr>; 2],
    more: Vec<SpanAttr>,
}

impl SpanAttrs {
    pub fn iter(&self) -> impl Iterator<Item = &SpanAttr> {
        self.inline.iter().flatten().chain(&self.more)
    }

    fn push(&mut self, attr: SpanAttr) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(attr),
            None => self.more.push(attr),
        }
    }
}

impl<const N: usize> From<[SpanAttr; N]> for SpanAttrs {
    fn from(attrs: [SpanAttr; N]) -> Self {
        let mut all = SpanAttrs::default();
        for attr in attrs {
            all.push(attr);
        }
        all
    }
}

/// One node of the span tree. It owns no heap memory of its own unless
/// it carries more than two attributes or an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub kind: SpanKind,
    pub name: SpanName,
    pub start: SimTime,
    /// `None` while the span is still open (run aborted mid-flight).
    pub end: Option<SimTime>,
    pub attrs: SpanAttrs,
}

impl Span {
    /// Span length; open spans report zero.
    pub fn duration_secs(&self) -> f64 {
        self.end
            .map_or(0.0, |e| e.as_secs_f64() - self.start.as_secs_f64())
    }

    /// The value of the first attribute keyed `key`, as text.
    pub fn attr(&self, key: &str) -> Option<Cow<'_, str>> {
        let attr = self.attrs.iter().find(|a| a.key() == key)?;
        Some(attr.value())
    }
}

/// An immutable snapshot of the span hierarchy of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Shared with the snapshots taken of it: a snapshot copies
    /// nothing, and the sink's next event copies the spans if one is
    /// still held.
    spans: Arc<Vec<Span>>,
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
        for s in self.spans.iter() {
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
            let name = s.name.to_string();
            let label = if name == s.kind.name() {
                name
            } else {
                format!("{} {name}", s.kind.name())
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
        for s in self.spans.iter() {
            let mut o = JsonObject::new()
                .uint("id", s.id.0 as u64)
                .str("kind", s.kind.name())
                .str("name", &s.name.to_string())
                .num("start", s.start.as_secs_f64());
            if let Some(p) = s.parent {
                o = o.uint("parent", p.0 as u64);
            }
            if let Some(e) = s.end {
                o = o.num("end", e.as_secs_f64());
            }
            for attr in s.attrs.iter() {
                o = o.str(&attr.key(), &attr.value());
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
    /// The tree as recorded so far. It shares the sink's spans: taking
    /// it copies none, and the sink copies them once if it records
    /// while the snapshot is held.
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
        spans: &mut Vec<Span>,
        parent: Option<SpanId>,
        kind: SpanKind,
        name: SpanName,
        start: SimTime,
        attrs: SpanAttrs,
    ) -> SpanId {
        let id = SpanId(spans.len());
        spans.push(Span {
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
        spans: &mut Vec<Span>,
        services: &mut BTreeMap<String, SpanId>,
        root: SpanId,
        event: &TraceEvent,
        of: Option<&SpanId>,
    ) -> SpanId {
        let at = event.at();
        let service = match event {
            TraceEvent::JobSubmitted { processor, .. } | TraceEvent::CacheHit { processor, .. } => {
                Some(*super::metrics::entry(services, processor, || {
                    let name = SpanName::Service(processor.clone());
                    Self::open(
                        spans,
                        Some(root),
                        SpanKind::Service,
                        name,
                        at,
                        SpanAttrs::default(),
                    )
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
                let attrs = [
                    SpanAttr::ReplicaOf(*invocation),
                    SpanAttr::Replica(*replica),
                ];
                (of.and_then(|of| spans[of.0].parent), attempt, attrs.into())
            }
            TraceEvent::JobSubmitted {
                invocation,
                batched,
                ..
            } => {
                let attrs = if *batched > 1 {
                    [SpanAttr::Batched(*batched)].into()
                } else {
                    SpanAttrs::default()
                };
                (service, invocation, attrs)
            }
            TraceEvent::CacheHit { invocation, .. } => {
                (service, invocation, [SpanAttr::Cached].into())
            }
            _ => unreachable!("only JobSubmitted, CacheHit and JobReplicated open an invocation"),
        };
        let name = SpanName::Invocation(*name);
        Self::open(spans, parent, SpanKind::DataItem, name, at, attrs)
    }

    /// Extend every ancestor's end to at least `at`.
    fn close_ancestors(spans: &mut [Span], from: SpanId, at: SimTime) {
        let mut cursor = spans[from.0].parent;
        while let Some(id) = cursor {
            if spans[id.0].end.is_none_or(|e| e < at) {
                spans[id.0].end = Some(at);
            }
            cursor = spans[id.0].parent;
        }
    }
}

impl EventSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at();
        let mut tree = self.tree.lock().expect("span tree lock");
        // Unshared but for a snapshot taken since the last event, which
        // this first write after it copies.
        let spans = Arc::make_mut(&mut tree.spans);
        let root = *self.root.get_or_insert_with(|| {
            let name = SpanName::Static(SpanKind::Workflow.name());
            Self::open(
                spans,
                None,
                SpanKind::Workflow,
                name,
                at,
                SpanAttrs::default(),
            )
        });
        // The root tracks the latest timestamp seen, so it is always a
        // closed, full-run span once the stream ends.
        if spans[root.0].end.is_none_or(|e| e < at) {
            spans[root.0].end = Some(at);
        }
        let services = &mut self.services;
        let step = self.life.record(event, |of| {
            Self::open_item(spans, services, root, event, of)
        });
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
                let attrs = match e {
                    SimEvent::JobEnqueued { ce, attempt, .. } => {
                        [SpanAttr::Ce(ce.0), SpanAttr::Attempt(*attempt)].into()
                    }
                    SimEvent::JobFinished { outcome, .. } => {
                        [SpanAttr::Success(*outcome == JobOutcome::Success)].into()
                    }
                    _ => SpanAttrs::default(),
                };
                let (kind, name) = (SpanKind::Phase(phase), SpanName::Static(phase.name()));
                let id = Self::open(spans, Some(item), kind, name, attempt.last, attrs);
                spans[id.0].end = Some(at);
            }
            TraceEvent::JobTimedOut {
                invocation, action, ..
            } => {
                if let Some(item) = self.life.data(*invocation) {
                    spans[item.0].attrs.push(SpanAttr::TimedOut(action));
                }
            }
            TraceEvent::CeBlacklisted { ce, failures, .. } => {
                let (ce, failures) = (*ce, *failures);
                spans[root.0]
                    .attrs
                    .push(SpanAttr::Blacklisted { ce, failures });
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
                    TraceEvent::JobFailed { error, .. } => {
                        Some(SpanAttr::Error(error.as_str().into()))
                    }
                    TraceEvent::JobCancelled { reason, .. } => Some(SpanAttr::Cancelled(reason)),
                    _ => None,
                };
                let item = &mut spans[data.0];
                item.end = Some(at);
                if let Some(attr) = attr {
                    item.attrs.push(attr);
                }
                Self::close_ancestors(spans, data, at);
                for replica in replicas {
                    spans[replica.0].end.get_or_insert(at);
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
        assert_eq!(service.name, SpanName::Service("crestLines".into()));
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
        assert_eq!(execs[0].attr("success").as_deref(), Some("false"));
        assert_eq!(execs[1].attr("success").as_deref(), Some("true"));
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
        assert_eq!(item.attr("timed_out").as_deref(), Some("resubmit"));
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
        assert_eq!(replica.attr("replica_of").as_deref(), Some("7"));
        assert_eq!(replica.attr("replica").as_deref(), Some("1"));
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
        assert_eq!(root.attr("blacklisted_ce4").as_deref(), Some("3 failures"));
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
        assert_eq!(item.attr("error").as_deref(), Some("boom"));
        assert_eq!(item.attr("batched").as_deref(), Some("3"));
        let text = tree.render();
        assert!(text.starts_with("workflow"), "{text}");
        assert!(text.contains("\n  service p"), "{text}");
        assert!(text.contains("\n    item 1"), "{text}");
        let jsonl = tree.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"error\":\"boom\""));
    }
}
