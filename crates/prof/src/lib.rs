//! # moteur-prof
//!
//! A deterministic, always-compiled self-profiler for the enactor and
//! the grid simulator: scoped RAII timers over a *fixed* set of
//! subsystems, with call counts, inclusive wall-time totals and
//! allocation accounting (when the [`alloc::CountingAlloc`] global
//! allocator is installed by the binary — see the module docs).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** [`Prof::off`] carries no state; taking a
//!    [`ProfScope`] on a disabled handle is one branch — no clock read,
//!    no atomics, no allocation. The profiler is always compiled in
//!    (no feature flags), so instrumentation sites never rot.
//! 2. **Deterministic canonical output.** The subsystem set is a closed
//!    enum with a fixed order; call counts and call-path counts are
//!    functions of the (seed-deterministic) program, never of the
//!    machine. Wall-clock durations and allocator figures are *measured*
//!    and therefore excluded from the canonical JSON document (see
//!    [`ProfReport`]) — they surface in the human hot-spot table, the
//!    collapsed-stack export and the OpenMetrics counters instead.
//! 3. **Cheap when on.** Slots are relaxed atomics; a scope costs two
//!    monotonic clock reads plus a handful of uncontended atomic adds.
//!
//! Timers are *inclusive*: a `provenance_key` scope entered inside the
//! `enactor_loop` scope counts toward both. The per-path table (used by
//! the collapsed-stack export) keeps the nesting exact, so exclusive
//! time can be recovered by subtracting children from parents.

pub mod alloc;

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The instrumented subsystems. A closed set: adding a variant is an
/// API change (extend [`Subsystem::ALL`] and [`Subsystem::name`]), which
/// keeps every export stable and every report comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// The enactor's fire/wait/route event loop, inclusive of all work
    /// below it.
    EnactorLoop,
    /// Firing phase: matching tokens, composing jobs, submission.
    Fire,
    /// The simulator broker's `pick_ce` matchmaking scan.
    PickCe,
    /// Provenance keying (value bytes + the history tree's structural
    /// digest): a firing's input keys, and each output's keyed insert
    /// into the data store.
    ProvenanceKey,
    /// Data-manager store operations: probe, lookup, insert, save/load.
    StoreIo,
    /// The discrete-event queue: scheduling and popping events.
    EventQueue,
    /// Simulator event dispatch (one popped event, handling included).
    SimStep,
    /// Fan-out of trace events into the attached sinks (JSONL, metrics,
    /// spans, timeline).
    Sinks,
}

impl Subsystem {
    /// Every subsystem, in canonical report order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::EnactorLoop,
        Subsystem::Fire,
        Subsystem::PickCe,
        Subsystem::ProvenanceKey,
        Subsystem::StoreIo,
        Subsystem::EventQueue,
        Subsystem::SimStep,
        Subsystem::Sinks,
    ];

    /// Stable snake_case name used in every export.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::EnactorLoop => "enactor_loop",
            Subsystem::Fire => "fire",
            Subsystem::PickCe => "pick_ce",
            Subsystem::ProvenanceKey => "provenance_key",
            Subsystem::StoreIo => "store_io",
            Subsystem::EventQueue => "event_queue",
            Subsystem::SimStep => "sim_step",
            Subsystem::Sinks => "sinks",
        }
    }

    /// Inverse of [`Subsystem::name`].
    pub fn from_name(name: &str) -> Option<Subsystem> {
        Subsystem::ALL.iter().copied().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> Option<Subsystem> {
        Subsystem::ALL.get(i).copied()
    }
}

const N_SUBSYSTEMS: usize = Subsystem::ALL.len();

/// One subsystem's accumulators. Relaxed atomics: totals are exact (no
/// sample loss), only cross-slot ordering is unspecified, which a
/// post-run snapshot never observes.
///
/// A subsystem's calls and wall time are the sums over the call paths
/// that end in it (every scope lands in exactly one), so closing a
/// scope adds them once, in the path table; `calls` and `wall_nanos`
/// here take only what a full path table turned away.
#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    wall_nanos: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

/// One call path's accumulators. `key` is the packed path, 0 while the
/// slot is free (a packed path is never 0).
#[derive(Debug, Default)]
struct PathSlot {
    key: AtomicU64,
    calls: AtomicU64,
    wall_nanos: AtomicU64,
}

/// Capacity of the call-path table (a power of two). A run of this
/// workspace produces under ten distinct paths; past the capacity a new
/// path still counts toward its subsystem's totals and only the path
/// table misses it, like a nesting deeper than [`MAX_DEPTH`].
const PATH_SLOTS: usize = 64;

#[derive(Debug)]
struct ProfInner {
    slots: [Slot; N_SUBSYSTEMS],
    /// Packed call path → stats: an open-addressed table of atomics, so
    /// closing a scope takes no lock and never allocates. Snapshots
    /// sort by packed path, so their order does not depend on discovery
    /// order.
    paths: [PathSlot; PATH_SLOTS],
}

impl ProfInner {
    /// Count `calls` invocations totalling `wall_nanos` of the
    /// subsystem `path` ends in, reached along `path`.
    fn add(&self, path: u64, calls: u64, wall_nanos: u64) {
        // Fibonacci hashing: paths differ in their low bytes.
        let hash = path.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (hash >> (u64::BITS - PATH_SLOTS.trailing_zeros())) as usize;
        for _ in 0..PATH_SLOTS {
            let slot = &self.paths[i];
            let key = match slot.key.load(Ordering::Relaxed) {
                0 => slot
                    .key
                    .compare_exchange(0, path, Ordering::Relaxed, Ordering::Relaxed)
                    .map_or_else(|claimed| claimed, |_| path),
                key => key,
            };
            if key == path {
                slot.calls.fetch_add(calls, Ordering::Relaxed);
                slot.wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
                return;
            }
            i = (i + 1) % PATH_SLOTS;
        }
        let slot = &self.slots[leaf_index(path)];
        slot.calls.fetch_add(calls, Ordering::Relaxed);
        slot.wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
    }
}

thread_local! {
    /// The current call path on this thread, packed one byte per level
    /// (`subsystem index + 1`, outermost in the most significant
    /// occupied byte). Shared by all [`Prof`] handles; guards save and
    /// restore it, so interleaved profilers stay correct.
    static CURRENT_PATH: Cell<u64> = const { Cell::new(0) };
}

/// Maximum tracked nesting depth (one byte per level in the packed
/// path). Deeper scopes still count toward their subsystem totals; only
/// the path table saturates.
const MAX_DEPTH: u32 = 8;

fn push_path(path: u64, subsystem: Subsystem) -> u64 {
    let level = subsystem.index() as u64 + 1;
    if path >> ((MAX_DEPTH - 1) * 8) != 0 {
        // Saturated: the innermost tracked level stands for everything
        // below it, so a path always ends in the subsystem it counts.
        return (path & !0xff) | level;
    }
    (path << 8) | level
}

/// Index of the subsystem a (non-empty) packed path ends in.
fn leaf_index(path: u64) -> usize {
    (path & 0xff) as usize - 1
}

/// Unpack a path into subsystem names, outermost first.
fn unpack_path(mut path: u64) -> Vec<&'static str> {
    let mut rev = Vec::new();
    while path != 0 {
        let idx = (path & 0xff) as usize;
        if let Some(s) = Subsystem::from_index(idx - 1) {
            rev.push(s.name());
        }
        path >>= 8;
    }
    rev.reverse();
    rev
}

/// Cheap cloneable profiler handle, mirroring the `Obs` idiom: a
/// disabled handle ([`Prof::off`]) makes every instrumentation site a
/// single branch.
#[derive(Debug, Clone, Default)]
pub struct Prof {
    inner: Option<Arc<ProfInner>>,
}

impl Prof {
    /// Profiling disabled: scopes are no-ops, reports are empty.
    pub fn off() -> Prof {
        Prof { inner: None }
    }

    /// Profiling enabled with fresh counters.
    pub fn enabled() -> Prof {
        Prof {
            inner: Some(Arc::new(ProfInner {
                slots: Default::default(),
                paths: std::array::from_fn(|_| PathSlot::default()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Enter `subsystem`: returns an RAII guard that accumulates the
    /// scope's call count, inclusive wall time and allocator deltas on
    /// drop. On a disabled handle this is a no-op (no clock read).
    #[inline]
    pub fn scope(&self, subsystem: Subsystem) -> ProfScope<'_> {
        match &self.inner {
            None => ProfScope { active: None },
            Some(inner) => {
                let (prev_path, path) = CURRENT_PATH.with(|c| {
                    let prev = c.get();
                    let path = push_path(prev, subsystem);
                    c.set(path);
                    (prev, path)
                });
                let (start_allocs, start_bytes) = alloc::totals();
                ProfScope {
                    active: Some(ActiveScope {
                        inner,
                        subsystem,
                        start: Instant::now(),
                        start_allocs,
                        start_bytes,
                        prev_path,
                        path,
                    }),
                }
            }
        }
    }

    /// Record `calls` completed invocations of `subsystem` totalling
    /// `wall_nanos`, attributed one level below the current call path,
    /// without opening a scope per invocation.
    ///
    /// Hot loops use this instead of [`Prof::scope`]: the simulator
    /// dispatches millions of events per second, and a scope per event
    /// would spend more time reading the clock and updating the path
    /// table than stepping the simulation. The enclosing drain loop
    /// opens one real scope (which carries the wall time and the
    /// allocator deltas) and batch-counts its iterations through here.
    pub fn add_batch(&self, subsystem: Subsystem, calls: u64, wall_nanos: u64) {
        let Some(inner) = &self.inner else { return };
        if calls == 0 && wall_nanos == 0 {
            return;
        }
        let path = push_path(CURRENT_PATH.with(Cell::get), subsystem);
        inner.add(path, calls, wall_nanos);
    }

    /// Snapshot the counters into an immutable report.
    pub fn report(&self) -> ProfReport {
        let Some(inner) = &self.inner else {
            return ProfReport::default();
        };
        let mut subsystems: Vec<SubsystemStat> = Subsystem::ALL
            .iter()
            .map(|&s| {
                let slot = &inner.slots[s.index()];
                SubsystemStat {
                    subsystem: s,
                    calls: slot.calls.load(Ordering::Relaxed),
                    wall_nanos: slot.wall_nanos.load(Ordering::Relaxed),
                    allocs: slot.allocs.load(Ordering::Relaxed),
                    alloc_bytes: slot.alloc_bytes.load(Ordering::Relaxed),
                }
            })
            .collect();
        let mut by_path: Vec<(u64, u64, u64)> = inner
            .paths
            .iter()
            .map(|slot| {
                (
                    slot.key.load(Ordering::Relaxed),
                    slot.calls.load(Ordering::Relaxed),
                    slot.wall_nanos.load(Ordering::Relaxed),
                )
            })
            .filter(|&(packed, ..)| packed != 0)
            .collect();
        by_path.sort_unstable();
        for &(packed, calls, wall_nanos) in &by_path {
            let stat = &mut subsystems[leaf_index(packed)];
            stat.calls += calls;
            stat.wall_nanos += wall_nanos;
        }
        let paths = by_path
            .into_iter()
            .map(|(packed, calls, wall_nanos)| PathEntry {
                stack: unpack_path(packed).join(";"),
                calls,
                wall_nanos,
            })
            .collect();
        ProfReport { subsystems, paths }
    }
}

struct ActiveScope<'a> {
    inner: &'a ProfInner,
    subsystem: Subsystem,
    start: Instant,
    start_allocs: u64,
    start_bytes: u64,
    prev_path: u64,
    path: u64,
}

impl std::fmt::Debug for ActiveScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveScope")
            .field("subsystem", &self.subsystem)
            .finish_non_exhaustive()
    }
}

/// RAII guard returned by [`Prof::scope`]; accumulates on drop.
#[derive(Debug)]
pub struct ProfScope<'a> {
    active: Option<ActiveScope<'a>>,
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        let Some(scope) = self.active.take() else {
            return;
        };
        let nanos = u64::try_from(scope.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (allocs, bytes) = alloc::totals();
        // Nothing was allocated (or the counting allocator is not
        // installed): leave the slot's cache line alone.
        if allocs != scope.start_allocs {
            let slot = &scope.inner.slots[scope.subsystem.index()];
            slot.allocs
                .fetch_add(allocs.saturating_sub(scope.start_allocs), Ordering::Relaxed);
            slot.alloc_bytes
                .fetch_add(bytes.saturating_sub(scope.start_bytes), Ordering::Relaxed);
        }
        CURRENT_PATH.with(|c| c.set(scope.prev_path));
        scope.inner.add(scope.path, 1, nanos);
    }
}

/// Measured totals of one subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsystemStat {
    pub subsystem: Subsystem,
    pub calls: u64,
    /// Inclusive wall time (measured; excluded from the canonical JSON).
    pub wall_nanos: u64,
    /// Allocations observed while the scope was open (0 unless the
    /// counting allocator is installed).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// One nesting path (`"enactor_loop;fire;pick_ce"`) with its totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    pub stack: String,
    pub calls: u64,
    pub wall_nanos: u64,
}

/// A point-in-time snapshot of a [`Prof`]. Rendering lives here (human
/// table, collapsed stacks); the canonical JSON codec lives in
/// `moteur::obs::prof`, next to the JSON parser.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// One entry per [`Subsystem`], in [`Subsystem::ALL`] order.
    pub subsystems: Vec<SubsystemStat>,
    /// Call paths sorted by packed path value (deterministic).
    pub paths: Vec<PathEntry>,
}

impl ProfReport {
    /// Total measured wall nanos across root scopes (paths of depth 1),
    /// the denominator for per-subsystem fractions.
    pub fn root_wall_nanos(&self) -> u64 {
        self.paths
            .iter()
            .filter(|p| !p.stack.contains(';'))
            .map(|p| p.wall_nanos)
            .sum()
    }

    /// Wall-time fraction of one subsystem relative to the root total;
    /// 0 when nothing was measured.
    pub fn fraction(&self, subsystem: Subsystem) -> f64 {
        let total = self.root_wall_nanos();
        if total == 0 {
            return 0.0;
        }
        let mine = self
            .subsystems
            .iter()
            .find(|s| s.subsystem == subsystem)
            .map_or(0, |s| s.wall_nanos);
        mine as f64 / total as f64
    }

    /// The sorted hot-spot table (wall-time descending, zero-call
    /// subsystems omitted).
    pub fn render_table(&self) -> String {
        let mut rows: Vec<&SubsystemStat> =
            self.subsystems.iter().filter(|s| s.calls > 0).collect();
        rows.sort_by(|a, b| {
            b.wall_nanos
                .cmp(&a.wall_nanos)
                .then(a.subsystem.cmp(&b.subsystem))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "prof: subsystem hot spots (inclusive wall time)\n  {:<16} {:>12} {:>12} {:>8} {:>12} {:>12}",
            "subsystem", "calls", "wall_ms", "share", "allocs", "alloc_kb"
        );
        for s in rows {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12.3} {:>7.1}% {:>12} {:>12.1}",
                s.subsystem.name(),
                s.calls,
                s.wall_nanos as f64 / 1e6,
                self.fraction(s.subsystem) * 100.0,
                s.allocs,
                s.alloc_bytes as f64 / 1024.0,
            );
        }
        out
    }

    /// Collapsed-stack export, one `frame;frame;... weight` line per
    /// call path with *exclusive* wall nanos as the weight —
    /// `inferno`/`flamegraph.pl` consume this directly. Every frame is
    /// prefixed with a `moteur` root so independent runs collapse into
    /// one flame graph.
    pub fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for entry in &self.paths {
            // Exclusive weight: subtract the wall time of the entry's
            // direct children (paths extending it by one frame).
            let prefix = format!("{};", entry.stack);
            let children: u64 = self
                .paths
                .iter()
                .filter(|p| p.stack.starts_with(&prefix) && !p.stack[prefix.len()..].contains(';'))
                .map(|p| p.wall_nanos)
                .sum();
            let exclusive = entry.wall_nanos.saturating_sub(children);
            let _ = writeln!(out, "moteur;{} {exclusive}", entry.stack);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prof_counts_nothing() {
        let prof = Prof::off();
        {
            let _a = prof.scope(Subsystem::EnactorLoop);
            let _b = prof.scope(Subsystem::PickCe);
        }
        assert!(!prof.is_enabled());
        let report = prof.report();
        assert!(report.subsystems.is_empty());
        assert!(report.paths.is_empty());
        assert_eq!(report.root_wall_nanos(), 0);
    }

    #[test]
    fn scopes_count_calls_and_nesting() {
        let prof = Prof::enabled();
        for _ in 0..3 {
            let _outer = prof.scope(Subsystem::EnactorLoop);
            for _ in 0..2 {
                let _inner = prof.scope(Subsystem::PickCe);
            }
        }
        let report = prof.report();
        let stat = |s: Subsystem| {
            report
                .subsystems
                .iter()
                .find(|x| x.subsystem == s)
                .copied()
                .unwrap()
        };
        assert_eq!(stat(Subsystem::EnactorLoop).calls, 3);
        assert_eq!(stat(Subsystem::PickCe).calls, 6);
        assert_eq!(stat(Subsystem::Fire).calls, 0);
        // Paths: the root and the nested pair.
        let stacks: Vec<(&str, u64)> = report
            .paths
            .iter()
            .map(|p| (p.stack.as_str(), p.calls))
            .collect();
        assert_eq!(
            stacks,
            vec![("enactor_loop", 3), ("enactor_loop;pick_ce", 6)]
        );
        // The root total excludes nested paths.
        assert_eq!(
            report.root_wall_nanos(),
            report.paths[0].wall_nanos,
            "only depth-1 paths are roots"
        );
    }

    #[test]
    fn sibling_scopes_do_not_inherit_each_other() {
        let prof = Prof::enabled();
        {
            let _a = prof.scope(Subsystem::Fire);
        }
        {
            let _b = prof.scope(Subsystem::Sinks);
        }
        let report = prof.report();
        let stacks: Vec<&str> = report.paths.iter().map(|p| p.stack.as_str()).collect();
        assert_eq!(stacks, vec!["fire", "sinks"]);
    }

    #[test]
    fn collapsed_export_uses_exclusive_weights() {
        let prof = Prof::enabled();
        {
            let _outer = prof.scope(Subsystem::EnactorLoop);
            let _inner = prof.scope(Subsystem::ProvenanceKey);
        }
        let report = prof.report();
        let collapsed = report.render_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("moteur;enactor_loop "));
        assert!(lines[1].starts_with("moteur;enactor_loop;provenance_key "));
        let weight = |line: &str| -> u64 { line.rsplit(' ').next().unwrap().parse().unwrap() };
        let outer = report.paths[0].wall_nanos;
        let inner = report.paths[1].wall_nanos;
        assert_eq!(weight(lines[0]), outer - inner);
        assert_eq!(weight(lines[1]), inner);
    }

    #[test]
    fn table_renders_nonzero_rows_sorted_by_wall() {
        let prof = Prof::enabled();
        {
            let _s = prof.scope(Subsystem::StoreIo);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = prof.scope(Subsystem::PickCe);
        }
        let table = prof.report().render_table();
        let store = table.find("store_io").unwrap();
        let pick = table.find("pick_ce").unwrap();
        assert!(store < pick, "slower subsystem listed first:\n{table}");
        assert!(!table.contains("event_queue"), "zero rows omitted");
    }

    #[test]
    fn batch_counts_attribute_under_the_enclosing_scope() {
        let prof = Prof::enabled();
        {
            let _drain = prof.scope(Subsystem::EventQueue);
            prof.add_batch(Subsystem::SimStep, 1000, 0);
        }
        prof.add_batch(Subsystem::SimStep, 0, 0); // no-op
        let report = prof.report();
        let steps = report
            .subsystems
            .iter()
            .find(|s| s.subsystem == Subsystem::SimStep)
            .unwrap();
        assert_eq!(steps.calls, 1000);
        assert_eq!(steps.wall_nanos, 0);
        let nested = report
            .paths
            .iter()
            .find(|p| p.stack == "event_queue;sim_step")
            .expect("batch lands below the open scope");
        assert_eq!(nested.calls, 1000);
        // A disabled handle swallows batches like it swallows scopes.
        Prof::off().add_batch(Subsystem::SimStep, 5, 5);
        assert!(Prof::off().report().subsystems.is_empty());
    }

    #[test]
    fn a_saturated_path_ends_in_the_scope_it_counts() {
        let prof = Prof::enabled();
        fn recurse(prof: &Prof, depth: u32) {
            let _s = prof.scope(Subsystem::Fire);
            if depth > 1 {
                recurse(prof, depth - 1);
            } else {
                let _leaf = prof.scope(Subsystem::PickCe);
            }
        }
        recurse(&prof, MAX_DEPTH);
        let report = prof.report();
        let calls = |s: Subsystem| report.subsystems[s.index()].calls;
        assert_eq!(calls(Subsystem::Fire), u64::from(MAX_DEPTH));
        assert_eq!(calls(Subsystem::PickCe), 1);
        let deepest = report.paths.last().expect("paths recorded");
        assert_eq!(deepest.stack.matches(';').count() + 1, MAX_DEPTH as usize);
        assert!(deepest.stack.ends_with(";pick_ce"), "{}", deepest.stack);
    }

    #[test]
    fn a_full_path_table_still_counts_every_call() {
        // 8 roots + 64 nested pairs: more distinct paths than slots.
        let prof = Prof::enabled();
        for outer in Subsystem::ALL {
            let _outer = prof.scope(outer);
            for inner in Subsystem::ALL {
                let _inner = prof.scope(inner);
            }
        }
        let report = prof.report();
        assert_eq!(report.paths.len(), PATH_SLOTS);
        for stat in &report.subsystems {
            assert_eq!(stat.calls, 1 + N_SUBSYSTEMS as u64, "{:?}", stat.subsystem);
        }
    }

    #[test]
    fn subsystem_names_round_trip() {
        for s in Subsystem::ALL {
            assert_eq!(Subsystem::from_name(s.name()), Some(s));
        }
        assert_eq!(Subsystem::from_name("nope"), None);
    }

    #[test]
    fn deep_nesting_saturates_instead_of_corrupting() {
        let prof = Prof::enabled();
        fn recurse(prof: &Prof, depth: u32) {
            if depth == 0 {
                return;
            }
            let _s = prof.scope(Subsystem::Fire);
            recurse(prof, depth - 1);
        }
        recurse(&prof, MAX_DEPTH + 4);
        let report = prof.report();
        let fire = report
            .subsystems
            .iter()
            .find(|s| s.subsystem == Subsystem::Fire)
            .unwrap();
        assert_eq!(fire.calls, u64::from(MAX_DEPTH) + 4);
        // The path table holds at most MAX_DEPTH levels.
        let deepest = report
            .paths
            .iter()
            .map(|p| p.stack.matches(';').count() + 1)
            .max()
            .unwrap();
        assert_eq!(deepest, MAX_DEPTH as usize);
    }
}
