//! The provenance-keyed data manager: a content-addressed store with
//! invocation memoization and warm-restart persistence.
//!
//! Every optimization in the paper (DP, SP, JG) amortises the grid
//! overhead of *recomputing* data; this module eliminates the
//! recomputation itself when identical work is re-enacted. Data items
//! are addressed by [`ProvenanceKey`] — a hash of the canonical value
//! bytes and the history tree's structural digest (computed once per
//! node when the node is minted; see [`key`]), so two runs that derive
//! the same value through the same lineage agree on the address without
//! coordination. Completed invocations are indexed by
//! [`InvocationKey`] (service name, descriptor digest, input keys in
//! port order); the enactor consults that index before submitting a
//! grid job and, on a hit, replaces the job with a simulated *fetch*
//! of the cached results (see [`DataStore::fetch_cost`]).
//!
//! The store is bounded: every entry is charged its logical payload
//! footprint and an LRU sweep evicts the coldest entries once
//! [`StoreConfig::max_bytes`] is exceeded. An invocation whose outputs
//! were evicted simply misses — [`DataStore::gc`] prunes such dangling
//! index entries.
//!
//! With a directory attached ([`DataStore::open`]/[`DataStore::save`])
//! the store persists as a versioned `index.json` plus a `store.jsonl`
//! data file, giving `moteur run --cache-dir` warm restarts across
//! processes.

mod disk;
pub mod key;

pub use key::{
    descriptor_digest, group_digest, invocation_key, provenance_key, InvocationKey, ProvenanceKey,
};

use crate::backend::IdHasher;
use crate::error::MoteurError;
use crate::token::History;
use crate::value::DataValue;
use moteur_gridsim::Distribution;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// On-disk schema tag; bump on any incompatible layout or key change
/// (v2: provenance keys hash the history tree's structural digest, not
/// its XML rendering, so every v1 key names nothing a v2 build mints).
pub const STORE_SCHEMA: &str = "moteur-store/v2";

/// Tuning knobs of a [`DataStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Eviction threshold over the summed entry footprints.
    pub max_bytes: u64,
    /// Simulated cost (seconds) of fetching one cached invocation's
    /// results back from storage — keeps the makespan model honest
    /// about data movement. `None` makes cache hits free.
    pub fetch_cost: Option<Distribution>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_bytes: 256 * 1024 * 1024,
            fetch_cost: Some(Distribution::Constant(1.0)),
        }
    }
}

impl StoreConfig {
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    pub fn with_fetch_cost(mut self, cost: Option<Distribution>) -> Self {
        self.fetch_cost = cost;
        self
    }
}

/// A stored data item.
#[derive(Debug, Clone)]
struct DataEntry {
    value: DataValue,
    /// Logical payload size charged against [`StoreConfig::max_bytes`].
    footprint: u64,
    /// LRU clock value of the last insert or hit.
    last_used: u64,
}

/// A memoized invocation: which service ran and which stored items its
/// output ports map to.
#[derive(Debug, Clone)]
struct InvocationEntry {
    service: String,
    outputs: Vec<(String, ProvenanceKey)>,
}

/// Point-in-time counters of a [`DataStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    pub entries: usize,
    pub bytes: u64,
    pub invocations: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl StoreStats {
    /// Hits over lookups; 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries ({} bytes), {} invocations; {} hits / {} misses ({:.0}% hit ratio), {} evictions",
            self.entries,
            self.bytes,
            self.invocations,
            self.hits,
            self.misses,
            self.hit_ratio() * 100.0,
            self.evictions
        )
    }
}

/// Logical payload size of a value: what the entry is charged for
/// eviction purposes. Files count their registered size (the dominant
/// term for data-intensive runs), scalars their encoded width.
fn value_footprint(value: &DataValue) -> u64 {
    match value {
        DataValue::Str(s) => s.len() as u64,
        DataValue::Num(_) => 8,
        DataValue::File { bytes, .. } => *bytes,
        DataValue::List(items) => 8 + items.iter().map(value_footprint).sum::<u64>(),
        DataValue::Opaque(_) => 0,
    }
}

/// The content-addressed data store. See the module docs.
///
/// Both maps hash with `IdHasher`: their keys are already FNV digests
/// the program computed, so a keyed SipHash adds cost and nothing else
/// (keys loaded from a cache directory were written there by this
/// program; whoever can rewrite that directory can make it serve wrong
/// results anyway, so flooding one bucket is no new exposure).
/// No output depends on their iteration order: saves sort by key, and
/// eviction picks the smallest `(last_used, key)` pair, which no two
/// entries share.
#[derive(Debug, Default)]
pub struct DataStore {
    config: StoreConfig,
    dir: Option<PathBuf>,
    data: HashMap<ProvenanceKey, DataEntry, IdHasher>,
    invocations: HashMap<InvocationKey, InvocationEntry, IdHasher>,
    bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Whether the persisted contents (data and index; the LRU clock
    /// and the counters are not persisted) changed since the last load
    /// or save. Atomic only so [`DataStore::save`] can clear it through
    /// `&self`.
    dirty: AtomicBool,
}

impl DataStore {
    /// A process-local store with no persistence directory.
    pub fn in_memory(config: StoreConfig) -> Self {
        DataStore {
            config,
            dir: None,
            data: HashMap::default(),
            invocations: HashMap::default(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty: AtomicBool::new(false),
        }
    }

    /// Open (or initialise) a persistent store rooted at `dir`. An
    /// existing store is loaded and its schema version checked; a fresh
    /// directory starts empty — nothing is written until [`save`], and
    /// that first save writes the (possibly empty) pair of files.
    ///
    /// [`save`]: DataStore::save
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, MoteurError> {
        let dir = dir.as_ref();
        let mut store = Self::open_cleared(dir, config)?;
        // A loaded store has nothing to write back; a directory missing
        // either file gets the pair on the first save.
        *store.dirty.get_mut() = !disk::load(&mut store, dir)?;
        Ok(store)
    }

    /// An empty store rooted at `dir`, whatever the directory holds:
    /// nothing is read, and the next [`save`] overwrites both files.
    /// This is how `moteur cache clear` empties a store this build
    /// cannot load (an older schema, or corrupt files).
    ///
    /// [`save`]: DataStore::save
    pub fn open_cleared(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, MoteurError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut store = Self::in_memory(config);
        store.dir = Some(dir.to_path_buf());
        *store.dirty.get_mut() = true;
        Ok(store)
    }

    /// Persist the store into its directory (no-op for in-memory
    /// stores, and for a store whose contents have not changed since
    /// it was loaded or last saved: the files already hold them, and
    /// leaving them alone keeps whatever a concurrent writer added).
    /// Writes are whole-file and sorted by key, so saving the same
    /// contents twice produces byte-identical files.
    pub fn save(&self) -> Result<(), MoteurError> {
        match &self.dir {
            Some(dir) if self.dirty.load(Ordering::Relaxed) => {
                disk::save(self, dir)?;
                self.dirty.store(false, Ordering::Relaxed);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The directory backing this store, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The configured fetch-cost distribution for cache hits.
    pub fn fetch_cost(&self) -> Option<&Distribution> {
        self.config.fetch_cost.as_ref()
    }

    /// Insert (or refresh) one data item, returning its key. `None`
    /// when the value is uncacheable (opaque payloads) or larger than
    /// the whole store budget.
    pub fn insert(&mut self, value: &DataValue, history: &History) -> Option<ProvenanceKey> {
        let key = provenance_key(value, history)?;
        self.tick += 1;
        if let Some(entry) = self.data.get_mut(&key) {
            entry.last_used = self.tick;
            return Some(key);
        }
        let footprint = value_footprint(value);
        if footprint > self.config.max_bytes {
            return None;
        }
        self.evict_to_fit(footprint);
        self.bytes += footprint;
        *self.dirty.get_mut() = true;
        self.data.insert(
            key,
            DataEntry {
                value: value.clone(),
                footprint,
                last_used: self.tick,
            },
        );
        Some(key)
    }

    /// Record a completed invocation: its outputs (port name → stored
    /// key, in output-port order) become retrievable via `key`.
    pub fn record_invocation(
        &mut self,
        key: InvocationKey,
        service: impl Into<String>,
        outputs: Vec<(String, ProvenanceKey)>,
    ) {
        *self.dirty.get_mut() = true;
        self.invocations.insert(
            key,
            InvocationEntry {
                service: service.into(),
                outputs,
            },
        );
    }

    /// Look up a memoized invocation. A hit requires the index entry
    /// *and* every referenced data item (eviction may have removed
    /// some); partial entries count as misses. Hits refresh the LRU
    /// clock of every returned item.
    pub fn lookup(&mut self, key: InvocationKey) -> Option<Vec<(String, DataValue)>> {
        // `invocations` is read while `data` is written: disjoint fields.
        let Some(outputs) = Self::complete_outputs(&self.invocations, &self.data, key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.tick += 1;
        let mut out = Vec::with_capacity(outputs.len());
        for (port, pk) in outputs {
            let entry = self.data.get_mut(pk).expect("checked above");
            entry.last_used = self.tick;
            out.push((port.clone(), entry.value.clone()));
        }
        Some(out)
    }

    /// Whether an invocation would hit, without touching the counters
    /// or the LRU clock.
    pub fn contains(&self, key: InvocationKey) -> bool {
        Self::complete_outputs(&self.invocations, &self.data, key).is_some()
    }

    /// The recorded outputs of `key`, if all of them are still stored.
    /// Takes the two maps rather than `&self` so a caller can go on to
    /// write `data` while holding the result.
    fn complete_outputs<'a>(
        invocations: &'a HashMap<InvocationKey, InvocationEntry, IdHasher>,
        data: &HashMap<ProvenanceKey, DataEntry, IdHasher>,
        key: InvocationKey,
    ) -> Option<&'a [(String, ProvenanceKey)]> {
        invocations
            .get(&key)
            .map(|inv| inv.outputs.as_slice())
            .filter(|outs| outs.iter().all(|(_, pk)| data.contains_key(pk)))
    }

    /// Drop invocation-index entries whose data items were evicted.
    /// Returns how many entries were pruned.
    pub fn gc(&mut self) -> usize {
        let data = &self.data;
        let before = self.invocations.len();
        self.invocations
            .retain(|_, inv| inv.outputs.iter().all(|(_, pk)| data.contains_key(pk)));
        let pruned = before - self.invocations.len();
        *self.dirty.get_mut() |= pruned > 0;
        pruned
    }

    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.data.len(),
            bytes: self.bytes,
            invocations: self.invocations.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Evict least-recently-used entries until `incoming` more bytes
    /// fit under the budget.
    fn evict_to_fit(&mut self, incoming: u64) {
        while self.bytes + incoming > self.config.max_bytes && !self.data.is_empty() {
            let coldest = self
                .data
                .iter()
                .min_by_key(|(k, e)| (e.last_used, k.0))
                .map(|(k, _)| *k)
                .expect("non-empty checked");
            let entry = self.data.remove(&coldest).expect("key just found");
            self.bytes -= entry.footprint;
            self.evictions += 1;
        }
    }

    // -- crate-internal accessors for the disk codec -----------------

    pub(crate) fn iter_data(&self) -> impl Iterator<Item = (ProvenanceKey, &DataValue, u64, u64)> {
        self.data
            .iter()
            .map(|(k, e)| (*k, &e.value, e.footprint, e.last_used))
    }

    pub(crate) fn iter_invocations(
        &self,
    ) -> impl Iterator<Item = (InvocationKey, &str, &[(String, ProvenanceKey)])> {
        self.invocations
            .iter()
            .map(|(k, e)| (*k, e.service.as_str(), e.outputs.as_slice()))
    }

    /// Load-path insert: trusts the persisted key and footprint. A
    /// repeated key replaces the earlier entry and its charge.
    pub(crate) fn load_data(
        &mut self,
        key: ProvenanceKey,
        value: DataValue,
        footprint: u64,
    ) -> Result<(), MoteurError> {
        self.tick += 1;
        let entry = DataEntry {
            value,
            footprint,
            last_used: self.tick,
        };
        let replaced = self.data.insert(key, entry).map_or(0, |old| old.footprint);
        self.bytes = (self.bytes - replaced)
            .checked_add(footprint)
            .ok_or_else(|| disk::bad("entry footprints overflow"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(gfn: &str, bytes: u64) -> DataValue {
        DataValue::File {
            gfn: gfn.into(),
            bytes,
        }
    }

    fn keyed(store: &mut DataStore, gfn: &str, bytes: u64, pos: u32) -> ProvenanceKey {
        store
            .insert(&file(gfn, bytes), &History::source("s", pos))
            .expect("files are cacheable")
    }

    #[test]
    fn lookup_round_trips_recorded_invocations() {
        let mut store = DataStore::in_memory(StoreConfig::default());
        let pk = keyed(&mut store, "gfn://a", 100, 0);
        let ik = invocation_key("svc", 7, &[ProvenanceKey(1)]);
        assert!(store.lookup(ik).is_none(), "unknown invocation misses");
        store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
        let outs = store.lookup(ik).expect("recorded invocation hits");
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "out");
        assert_eq!(outs[0].1.as_file(), Some(("gfn://a", 100)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let mut store = DataStore::in_memory(
            StoreConfig::default()
                .with_max_bytes(250)
                .with_fetch_cost(None),
        );
        let a = keyed(&mut store, "gfn://a", 100, 0);
        let b = keyed(&mut store, "gfn://b", 100, 1);
        // Touch `a` so `b` is the LRU victim.
        let ika = invocation_key("svc", 0, &[]);
        store.record_invocation(ika, "svc", vec![("out".into(), a)]);
        store.lookup(ika).unwrap();
        let _c = keyed(&mut store, "gfn://c", 100, 2);
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 250);
        assert!(store.contains(ika), "recently used entry survived");
        let ikb = invocation_key("svc", 1, &[]);
        store.record_invocation(ikb, "svc", vec![("out".into(), b)]);
        assert!(
            store.lookup(ikb).is_none(),
            "invocation with an evicted output misses"
        );
        assert_eq!(store.gc(), 1, "gc prunes the dangling index entry");
        assert_eq!(store.gc(), 0);
    }

    #[test]
    fn oversized_values_are_refused() {
        let mut store = DataStore::in_memory(StoreConfig::default().with_max_bytes(10));
        assert!(store
            .insert(&file("gfn://big", 11), &History::source("s", 0))
            .is_none());
        assert_eq!(store.stats().entries, 0);
    }
}
