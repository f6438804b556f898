//! On-disk codec of a [`DataStore`]: a versioned `index.json` (schema
//! tag + invocation index) plus a `store.jsonl` data file (one entry
//! per line).
//!
//! Both files are rewritten whole on [`DataStore::save`], sorted by
//! key, so identical contents serialise byte-identically — which is
//! why a store nothing changed in since it was loaded or saved skips
//! the write: the files already hold exactly those bytes. Loading is
//! one linear pass over each file through `obs::json`'s cursor, with no
//! tree in between; it verifies the schema tag before any entry loads
//! and rejects anything else with a typed error — an older (v1) store
//! or a future layout is never silently misread.
//!
//! Numbers are stored as the hex spelling of their IEEE-754 bit
//! pattern: JSON has no NaN/∞ and decimal round-trips are easy to get
//! subtly wrong, while the bit pattern is exactly what the
//! [`ProvenanceKey`] hashed.

use super::{DataStore, InvocationKey, ProvenanceKey, STORE_SCHEMA};
use crate::error::MoteurError;
use crate::obs::json::{push_escaped, push_hex16, push_u64, Cursor};
use crate::value::DataValue;
use std::borrow::Cow;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub(super) const INDEX_FILE: &str = "index.json";
pub(super) const DATA_FILE: &str = "store.jsonl";
pub(super) const LOCK_FILE: &str = ".moteur-store.lock";

/// How long a save or load waits for a concurrent writer to finish
/// before failing with a stale-lock diagnostic.
const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Advisory cross-process lock on a cache directory, held for the
/// duration of a save or load so concurrent writers serialise instead
/// of interleaving the `index.json` / `store.jsonl` pair. Std-only:
/// the lock is a `create_new` file (atomic on every platform) removed
/// on drop; a crashed holder leaves a stale file the error message
/// names.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(dir: &Path, timeout: Duration) -> Result<LockGuard, MoteurError> {
        let path = dir.join(LOCK_FILE);
        let deadline = Instant::now() + timeout;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        return Err(MoteurError::new(format!(
                            "data store at {} is locked by another writer \
                             (if no other process is running, remove the stale lock {})",
                            dir.display(),
                            path.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Write `contents` to `path` atomically: a same-directory temp file
/// renamed into place, so a reader (or a crash) never observes a
/// half-written file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Append the JSON encoding of `value` to `out`; `false` (with `out`
/// holding a partial encoding) when it holds an opaque value, which
/// has none.
fn push_value(out: &mut String, value: &DataValue) -> bool {
    match value {
        DataValue::Str(s) => {
            out.push_str("{\"t\":\"str\",\"v\":\"");
            push_escaped(out, s);
            out.push_str("\"}");
        }
        DataValue::Num(n) => {
            out.push_str("{\"t\":\"num\",\"bits\":\"");
            push_hex16(out, n.to_bits());
            out.push_str("\"}");
        }
        DataValue::File { gfn, bytes } => {
            out.push_str("{\"t\":\"file\",\"gfn\":\"");
            push_escaped(out, gfn);
            out.push_str("\",\"bytes\":");
            push_u64(out, *bytes);
            out.push('}');
        }
        DataValue::List(items) => {
            out.push_str("{\"t\":\"list\",\"items\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if !push_value(out, item) {
                    return false;
                }
            }
            out.push_str("]}");
        }
        DataValue::Opaque(_) => return false,
    }
    true
}

pub(super) fn bad(what: &str) -> MoteurError {
    MoteurError::new(format!("corrupt data store: {what}"))
}

/// Starting capacity per row of either file: a 1000-image Bronze store
/// writes ≈ 100 bytes per index row and ≈ 125 per data line.
const ROW_CAPACITY: usize = 128;

/// Serialise `store` into `dir` (both files rewritten whole, under the
/// directory's advisory lock, each renamed into place atomically). Each
/// file's text is dropped before the next one is built.
pub(super) fn save(store: &DataStore, dir: &Path) -> Result<(), MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    write_atomic(&dir.join(INDEX_FILE), &index_text(store))?;
    write_atomic(&dir.join(DATA_FILE), &data_text(store)?)?;
    Ok(())
}

/// `index.json`: the schema tag and the invocations, sorted by key.
fn index_text(store: &DataStore) -> String {
    let mut invocations: Vec<_> = store.iter_invocations().collect();
    invocations.sort_unstable_by_key(|(k, _, _)| *k);
    let mut index = String::with_capacity(ROW_CAPACITY * (invocations.len() + 1));
    index.push_str("{\"schema\":\"");
    push_escaped(&mut index, STORE_SCHEMA);
    index.push_str("\",\"invocations\":[");
    for (i, (key, service, outputs)) in invocations.into_iter().enumerate() {
        if i > 0 {
            index.push(',');
        }
        index.push_str("{\"key\":\"");
        push_hex16(&mut index, key.0);
        index.push_str("\",\"service\":\"");
        push_escaped(&mut index, service);
        index.push_str("\",\"outputs\":[");
        for (j, (port, pk)) in outputs.iter().enumerate() {
            if j > 0 {
                index.push(',');
            }
            index.push_str("{\"port\":\"");
            push_escaped(&mut index, port);
            index.push_str("\",\"pk\":\"");
            push_hex16(&mut index, pk.0);
            index.push_str("\"}");
        }
        index.push_str("]}");
    }
    index.push_str("]}\n");
    index
}

/// `store.jsonl`: one line per entry, sorted by key.
fn data_text(store: &DataStore) -> Result<String, MoteurError> {
    let mut entries: Vec<_> = store.iter_data().collect();
    entries.sort_unstable_by_key(|(k, _, _, _)| *k);
    let mut jsonl = String::with_capacity(ROW_CAPACITY * entries.len());
    for (key, value, footprint, _) in entries {
        jsonl.push_str("{\"pk\":\"");
        push_hex16(&mut jsonl, key.0);
        jsonl.push_str("\",\"footprint\":");
        push_u64(&mut jsonl, footprint);
        jsonl.push_str(",\"value\":");
        if !push_value(&mut jsonl, value) {
            return Err(MoteurError::new("opaque value in the data store"));
        }
        jsonl.push_str("}\n");
    }
    Ok(jsonl)
}

/// A decode that read well-formed JSON: the value, or what in the
/// document's shape is wrong.
type Decoded<T> = Result<T, MoteurError>;

/// One memoized invocation as `index.json` lists it.
type Row = (InvocationKey, String, Vec<(String, ProvenanceKey)>);

/// Read the value of a field into `slot` unless an earlier occurrence
/// of its key filled it: the first occurrence wins, as it does for a
/// field lookup on a parsed tree. A later one is validated and skipped.
fn once<'a, T>(
    cur: &mut Cursor<'a>,
    slot: &mut Option<T>,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return cur.skip();
    }
    *slot = Some(read(cur)?);
    Ok(())
}

/// Read an array whose elements `decode` reads: `None` when the value
/// is not an array, else its elements or the first element's error.
/// Every element is read either way, so a syntax error further on still
/// wins over a shape error, as it does for a document parsed whole.
fn decode_array<'a, T>(
    cur: &mut Cursor<'a>,
    mut decode: impl FnMut(&mut Cursor<'a>) -> Result<Decoded<T>, String>,
) -> Result<Option<Decoded<Vec<T>>>, String> {
    let mut out = Ok(Vec::new());
    let is_array = cur.array(|cur| {
        let item = decode(cur)?;
        if let Ok(items) = &mut out {
            match item {
                Ok(item) => items.push(item),
                Err(e) => out = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(is_array.then_some(out))
}

fn decode_value(cur: &mut Cursor<'_>) -> Result<Decoded<DataValue>, String> {
    let (mut tag, mut v, mut bits, mut gfn, mut bytes, mut items) =
        (None, None, None, None, None, None);
    cur.object(|cur, key| match key {
        "t" => once(cur, &mut tag, Cursor::str),
        "v" => once(cur, &mut v, Cursor::str),
        "bits" => once(cur, &mut bits, Cursor::str),
        "gfn" => once(cur, &mut gfn, Cursor::str),
        "bytes" => once(cur, &mut bytes, Cursor::u64),
        "items" => once(cur, &mut items, |cur| decode_array(cur, decode_value)),
        _ => cur.skip(),
    })?;
    let Some(tag) = tag.flatten() else {
        return Ok(Err(bad("value without a `t` tag")));
    };
    Ok(match &*tag {
        "str" => v
            .flatten()
            .map(|v| DataValue::Str(v.into_owned()))
            .ok_or_else(|| bad("str value without `v`")),
        "num" => bits
            .flatten()
            .and_then(|s| u64::from_str_radix(&s, 16).ok())
            .map(|bits| DataValue::Num(f64::from_bits(bits)))
            .ok_or_else(|| bad("num value without hex `bits`")),
        "file" => match (gfn.flatten(), bytes.flatten()) {
            (None, _) => Err(bad("file value without `gfn`")),
            (_, None) => Err(bad("file value without valid `bytes`")),
            (Some(gfn), Some(bytes)) => Ok(DataValue::File {
                gfn: gfn.into_owned(),
                bytes,
            }),
        },
        "list" => match items.flatten() {
            None => Err(bad("list value without `items`")),
            Some(items) => items.map(DataValue::List),
        },
        other => Err(bad(&format!("unknown value tag `{other}`"))),
    })
}

/// One `store.jsonl` line: its key, footprint and value.
fn decode_entry(line: &str) -> Result<Decoded<(ProvenanceKey, u64, DataValue)>, String> {
    let mut cur = Cursor::new(line);
    let (mut pk, mut footprint, mut value) = (None, None, None);
    cur.object(|cur, key| match key {
        "pk" => once(cur, &mut pk, Cursor::str),
        "footprint" => once(cur, &mut footprint, Cursor::u64),
        "value" => once(cur, &mut value, decode_value),
        _ => cur.skip(),
    })?;
    cur.end()?;
    let Some(key) = pk.flatten().and_then(|pk| ProvenanceKey::from_hex(&pk)) else {
        return Ok(Err(bad("entry without a valid `pk`")));
    };
    let Some(footprint) = footprint.flatten() else {
        return Ok(Err(bad("entry without a valid `footprint`")));
    };
    Ok(match value {
        None => Err(bad("entry without a `value`")),
        Some(value) => value.map(|value| (key, footprint, value)),
    })
}

fn decode_output(cur: &mut Cursor<'_>) -> Result<Decoded<(String, ProvenanceKey)>, String> {
    let (mut port, mut pk) = (None, None);
    cur.object(|cur, key| match key {
        "port" => once(cur, &mut port, Cursor::str),
        "pk" => once(cur, &mut pk, Cursor::str),
        _ => cur.skip(),
    })?;
    let Some(port) = port.flatten() else {
        return Ok(Err(bad("output without a `port`")));
    };
    Ok(pk
        .flatten()
        .and_then(|pk| ProvenanceKey::from_hex(&pk))
        .map(|pk| (port.into_owned(), pk))
        .ok_or_else(|| bad("output without a valid `pk`")))
}

fn decode_row(cur: &mut Cursor<'_>) -> Result<Decoded<Row>, String> {
    let (mut key, mut service, mut outputs) = (None, None, None);
    cur.object(|cur, field| match field {
        "key" => once(cur, &mut key, Cursor::str),
        "service" => once(cur, &mut service, Cursor::str),
        "outputs" => once(cur, &mut outputs, |cur| decode_array(cur, decode_output)),
        _ => cur.skip(),
    })?;
    let Some(key) = key.flatten().and_then(|k| InvocationKey::from_hex(&k)) else {
        return Ok(Err(bad("invocation without a valid `key`")));
    };
    let Some(service) = service.flatten() else {
        return Ok(Err(bad("invocation without a `service`")));
    };
    Ok(match outputs.flatten() {
        None => Err(bad("invocation without an `outputs` array")),
        Some(outputs) => outputs.map(|outputs| (key, service.into_owned(), outputs)),
    })
}

/// `index.json`: its schema tag and its invocation rows, each `None`
/// when absent or mistyped.
type Index<'a> = (Option<Cow<'a, str>>, Option<Decoded<Vec<Row>>>);

fn decode_index(text: &str) -> Result<Index<'_>, String> {
    let mut cur = Cursor::new(text);
    let (mut schema, mut rows) = (None, None);
    cur.object(|cur, key| match key {
        "schema" => once(cur, &mut schema, Cursor::str),
        "invocations" => once(cur, &mut rows, |cur| decode_array(cur, decode_row)),
        _ => cur.skip(),
    })?;
    cur.end()?;
    Ok((schema.flatten(), rows.flatten()))
}

/// The text of the store file `name` in `dir`, or `None` when there is
/// no such file. Bytes that are not UTF-8 are corruption, reported
/// with the file and the offset of the first bad byte.
fn read_if_present(dir: &Path, name: &str) -> Result<Option<String>, MoteurError> {
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => String::from_utf8(bytes).map(Some).map_err(|e| {
            let at = e.utf8_error().valid_up_to();
            bad(&format!("{name}: invalid UTF-8 at byte {at}"))
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Load `dir` into an empty `store`, verifying the schema tag before
/// any entry loads. Takes the same advisory lock as [`save`] so the
/// `index.json` / `store.jsonl` pair is read as one coherent snapshot.
/// A directory without `index.json` loads nothing, whatever else it
/// holds. Returns whether both files were there.
///
/// Each file is decoded as the cursor reads it, with no tree: any
/// syntax error in a document comes first, then what is wrong with its
/// shape, in the order the fields are checked below.
pub(super) fn load(store: &mut DataStore, dir: &Path) -> Result<bool, MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    let Some(index_text) = read_if_present(dir, INDEX_FILE)? else {
        return Ok(false);
    };
    let (schema, rows) = decode_index(&index_text).map_err(|e| bad(&format!("index.json: {e}")))?;
    match schema {
        Some(s) if s == STORE_SCHEMA => {}
        Some(other) => {
            let dir = dir.display();
            return Err(MoteurError::new(format!(
                "data store at {dir} has schema `{other}`, this build reads `{STORE_SCHEMA}` \
                 (clear it with `moteur cache clear {dir}` to rebuild it)"
            )));
        }
        None => return Err(bad("index.json without a schema tag")),
    }

    let data_text = read_if_present(dir, DATA_FILE)?;
    for line in data_text.iter().flat_map(|text| text.lines()) {
        if line.trim().is_empty() {
            continue;
        }
        let (key, footprint, value) =
            decode_entry(line).map_err(|e| bad(&format!("store.jsonl: {e}")))??;
        store.load_data(key, value, footprint)?;
    }

    let rows = rows.ok_or_else(|| bad("index.json without an `invocations` array"))??;
    for (key, service, outputs) in rows {
        store.record_invocation(key, service, outputs);
    }
    Ok(data_text.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{invocation_key, StoreConfig};
    use crate::token::History;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moteur-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistence_round_trips_values_and_invocations() {
        let dir = temp_dir("roundtrip");
        let mut store = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let h = History::derived("proc", vec![History::source("s", 0)]);
        let list = DataValue::List(vec![
            DataValue::from("x"),
            DataValue::Num(f64::NAN),
            DataValue::File {
                gfn: "gfn://f".into(),
                bytes: 42,
            },
        ]);
        let pk = store.insert(&list, &h).unwrap();
        let ik = invocation_key("svc", 1, &[ProvenanceKey(9)]);
        store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
        store.save().unwrap();

        let mut reloaded = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let outs = reloaded.lookup(ik).expect("warm restart hits");
        let items = outs[0].1.as_list().unwrap();
        assert_eq!(items[0].as_str(), Some("x"));
        assert!(items[1].as_num().unwrap().is_nan(), "NaN bit pattern kept");
        assert_eq!(items[2].as_file(), Some(("gfn://f", 42)));
        assert_eq!(reloaded.stats().bytes, store.stats().bytes);

        // Saving identical contents twice is byte-stable.
        reloaded.save().unwrap();
        let a = std::fs::read(dir.join(DATA_FILE)).unwrap();
        store.save().unwrap();
        let b = std::fs::read(dir.join(DATA_FILE)).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Save a fixed store into `dir`: a file, a NaN number, a string
    /// every escape class touches, a nested list and an invocation with
    /// two outputs (and one with none).
    fn save_mixed_store(dir: &Path) {
        let mut store = DataStore::open(dir, StoreConfig::default()).unwrap();
        let values = [
            DataValue::File {
                gfn: "gfn://bronze/img 01.hdr".into(),
                bytes: 8_388_608,
            },
            DataValue::Num(f64::NAN),
            DataValue::from("say \"hi\"\\path\u{1}\tend é"),
            DataValue::List(vec![
                DataValue::Num(-0.5),
                DataValue::List(vec![DataValue::from(""), DataValue::Num(1e300)]),
                DataValue::File {
                    gfn: "gfn://x".into(),
                    bytes: 0,
                },
            ]),
        ];
        let keys: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, v)| store.insert(v, &History::source("s", i as u32)).unwrap())
            .collect();
        store.record_invocation(
            invocation_key("crest\"lines", 3, &keys[..2]),
            "crest\"lines",
            vec![("crest".into(), keys[0]), ("out\\1".into(), keys[3])],
        );
        store.record_invocation(invocation_key("empty", 0, &[]), "empty", vec![]);
        store.save().unwrap();
    }

    /// The saved bytes of [`save_mixed_store`], pinned by an FNV-1a
    /// digest of the file pair.
    #[test]
    fn saved_bytes_are_pinned() {
        let dir = temp_dir("golden");
        save_mixed_store(&dir);
        let (index, data) = files(&dir);
        let mut h = crate::store::key::Fnv1a::new();
        h.write(&index);
        h.write(&data);
        assert_eq!(
            (index.len(), data.len(), format!("{:016x}", h.finish())),
            (250, 528, "896c2ceca35216a9".to_string()),
            "{}{}",
            String::from_utf8_lossy(&index),
            String::from_utf8_lossy(&data)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store of `n` one-output invocations over 100-byte files, saved
    /// into `dir`; returns the invocation keys in insertion order.
    fn saved_store(dir: &Path, n: u32) -> Vec<InvocationKey> {
        let mut store = DataStore::open(dir, StoreConfig::default()).unwrap();
        let keys = (0..n)
            .map(|i| {
                let value = DataValue::File {
                    gfn: format!("gfn://img{i:04}.hdr"),
                    bytes: 100,
                };
                let pk = store.insert(&value, &History::source("s", i)).unwrap();
                let ik = invocation_key("svc", u64::from(i), &[pk]);
                store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
                ik
            })
            .collect();
        store.save().unwrap();
        keys
    }

    fn empty_index() -> String {
        format!("{{\"schema\":\"{STORE_SCHEMA}\",\"invocations\":[]}}\n")
    }

    fn files(dir: &Path) -> (Vec<u8>, Vec<u8>) {
        (
            std::fs::read(dir.join(INDEX_FILE)).unwrap(),
            std::fs::read(dir.join(DATA_FILE)).unwrap(),
        )
    }

    #[test]
    fn a_hits_only_session_leaves_the_directory_alone() {
        let dir = temp_dir("clean");
        let keys = saved_store(&dir, 20);
        let mut reader = DataStore::open(&dir, StoreConfig::default()).unwrap();
        // Another process adds an entry while the reader is live.
        let mut writer = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let pk = writer
            .insert(&DataValue::from("late"), &History::source("s", 99))
            .unwrap();
        writer.record_invocation(invocation_key("svc", 99, &[pk]), "svc", vec![]);
        writer.save().unwrap();
        let before = files(&dir);
        let mtime = |name| {
            std::fs::metadata(dir.join(name))
                .unwrap()
                .modified()
                .unwrap()
        };
        let stamps = (mtime(INDEX_FILE), mtime(DATA_FILE));

        for ik in &keys {
            assert!(reader.lookup(*ik).is_some());
        }
        assert_eq!(reader.gc(), 0, "nothing dangling, nothing pruned");
        reader.save().unwrap();
        assert_eq!(files(&dir), before, "the writer's additions survive");
        assert_eq!((mtime(INDEX_FILE), mtime(DATA_FILE)), stamps);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [INDEX_FILE, DATA_FILE], "no .tmp or lock residue");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_mutation_makes_the_next_save_write() {
        let small = || StoreConfig::default().with_max_bytes(250);
        let dir = temp_dir("dirty");
        // A fresh directory gets its (empty) pair on the first save.
        DataStore::open(&dir, small()).unwrap().save().unwrap();
        assert_eq!(files(&dir).0, empty_index().into_bytes());
        saved_store(&dir, 2);

        // Each step reopens (clean), mutates one way, saves, and must
        // find the files changed.
        let step = |what: &str, mutate: &dyn Fn(&mut DataStore)| {
            let before = files(&dir);
            let mut store = DataStore::open(&dir, small()).unwrap();
            mutate(&mut store);
            store.save().unwrap();
            let after = files(&dir);
            assert_ne!(after, before, "{what} was not saved");
            store.save().unwrap();
            assert_eq!(files(&dir), after, "a second save has nothing to add");
        };
        step("insert", &|s| {
            s.insert(&DataValue::from("x"), &History::source("s", 7));
        });
        step("record_invocation", &|s| {
            s.record_invocation(invocation_key("svc", 7, &[]), "svc", vec![]);
        });
        step("eviction", &|s| {
            let big = DataValue::File {
                gfn: "gfn://big".into(),
                bytes: 200,
            };
            s.insert(&big, &History::source("s", 8));
            assert!(s.stats().evictions > 0);
        });
        step("gc", &|s| assert!(s.gc() > 0, "evicted outputs dangle"));
        DataStore::open_cleared(&dir, small())
            .unwrap()
            .save()
            .unwrap();
        assert_eq!(
            files(&dir),
            (empty_index().into_bytes(), Vec::new()),
            "a cleared store saves empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_files_are_errors_never_panics() {
        let dir = temp_dir("truncated");
        saved_store(&dir, 200);
        let (index, data) = files(&dir);
        let open = || DataStore::open(&dir, StoreConfig::default());
        for cut in (0..index.len() - 1).step_by(97) {
            std::fs::write(dir.join(INDEX_FILE), &index[..cut]).unwrap();
            assert!(open().is_err(), "index.json cut at {cut}");
        }
        std::fs::write(dir.join(INDEX_FILE), &index).unwrap();
        for cut in (0..data.len()).step_by(97) {
            std::fs::write(dir.join(DATA_FILE), &data[..cut]).unwrap();
            // A cut between lines is a shorter, well-formed file.
            let whole_lines = cut == 0 || data[cut - 1] == b'\n' || data[cut] == b'\n';
            match open() {
                Ok(store) if whole_lines => {
                    let lines = data[..cut].split(|b| *b == b'\n').filter(|l| !l.is_empty());
                    assert_eq!(store.stats().entries, lines.count());
                }
                Ok(_) => panic!("store.jsonl cut mid-line at {cut} loaded"),
                Err(e) => assert!(!whole_lines, "store.jsonl cut at {cut}: {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_byte_counts_are_typed_errors() {
        let dir = temp_dir("numbers");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), empty_index()).unwrap();
        let row = |pk: u64, footprint: &str, bytes: &str| {
            format!(
                "{{\"pk\":\"{pk:016x}\",\"footprint\":{footprint},\
                 \"value\":{{\"t\":\"file\",\"gfn\":\"g\",\"bytes\":{bytes}}}}}\n"
            )
        };
        let open = |text: String| {
            std::fs::write(dir.join(DATA_FILE), text).unwrap();
            DataStore::open(&dir, StoreConfig::default())
        };
        for bad in [
            "-5.5",
            "-1",
            "0.5",
            "1e300",
            "9007199254740994",
            "\"7\"",
            "null",
        ] {
            let err = open(row(1, bad, "7")).unwrap_err().to_string();
            assert!(
                err.contains("corrupt data store") && err.contains("footprint"),
                "{bad}: {err}"
            );
            let err = open(row(1, "7", bad)).unwrap_err().to_string();
            assert!(
                err.contains("corrupt data store") && err.contains("bytes"),
                "{bad}: {err}"
            );
        }
        // The largest exact integer loads; enough of them overflow the
        // byte gauge, which is an error rather than a wrapped total.
        let max = "9007199254740992";
        assert_eq!(open(row(1, max, max)).unwrap().stats().bytes, 1 << 53);
        let many: String = (0..2048).map(|pk| row(pk, max, "7")).collect();
        let err = open(many).unwrap_err().to_string();
        assert!(
            err.contains("corrupt data store") && err.contains("overflow"),
            "{err}"
        );
        // A repeated `pk` line replaces the entry and its charge.
        let stats = open(row(1, "100", "7") + &row(1, "30", "7") + &row(2, "5", "7"))
            .unwrap()
            .stats();
        assert_eq!((stats.entries, stats.bytes), (2, 35));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_cache_dir_do_not_corrupt_it() {
        let dir = temp_dir("concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let mut handles = Vec::new();
        for writer in 0..2u32 {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                // Each handle holds its own view of the shared cache
                // dir and saves it repeatedly, racing the other.
                let mut store = DataStore::open(&dir, StoreConfig::default()).unwrap();
                for round in 0..20u32 {
                    let h =
                        History::derived(format!("w{writer}"), vec![History::source("s", round)]);
                    let pk = store
                        .insert(&DataValue::from(format!("v{writer}-{round}")), &h)
                        .unwrap();
                    let ik = invocation_key("svc", u64::from(writer * 1000 + round), &[pk]);
                    store.record_invocation(ik, "svc", vec![("out".into(), pk)]);
                    store.save().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Whichever writer saved last, the on-disk pair must parse
        // cleanly and hold that writer's full 20 invocations (plus any
        // it loaded from the other writer when it opened the dir).
        let reloaded = DataStore::open(&dir, StoreConfig::default()).unwrap();
        let n = reloaded.stats().invocations;
        assert!((20..=40).contains(&n), "torn write detected: {n} rows");
        assert!(
            !dir.join(LOCK_FILE).exists(),
            "lock released after the last save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_held_lock_times_out_with_a_stale_lock_diagnostic() {
        let dir = temp_dir("locked");
        std::fs::create_dir_all(&dir).unwrap();
        let _held = LockGuard::acquire(&dir, Duration::ZERO).unwrap();
        let err = LockGuard::acquire(&dir, Duration::ZERO).unwrap_err();
        assert!(
            err.to_string().contains("locked by another writer"),
            "{err}"
        );
        assert!(err.to_string().contains(LOCK_FILE), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        // v1 keyed by the history's XML rendering: none of its keys is
        // one this build mints, so it is refused like a future layout.
        for schema in ["moteur-store/v1", "moteur-store/v999"] {
            let dir = temp_dir("schema");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(INDEX_FILE),
                format!("{{\"schema\":\"{schema}\",\"invocations\":[]}}\n"),
            )
            .unwrap();
            let err = DataStore::open(&dir, StoreConfig::default())
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("`{schema}`")), "{err}");
            assert!(err.contains("`moteur-store/v2`"), "{err}");
            assert!(err.contains("moteur cache clear"), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_lines_surface_as_typed_errors() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), empty_index()).unwrap();
        std::fs::write(dir.join(DATA_FILE), "not json\n").unwrap();
        assert!(DataStore::open(&dir, StoreConfig::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parse-then-decode load the cursor replaced, kept as the fuzz
    /// oracle: each file is parsed whole into a `JsonValue` tree, then
    /// its fields are read off the tree.
    mod tree_oracle {
        use super::super::*;
        use crate::obs::json::JsonValue;
        use crate::store::StoreConfig;

        fn decode_value(v: &JsonValue) -> Result<DataValue, MoteurError> {
            let tag = v
                .str_at("t")
                .ok_or_else(|| bad("value without a `t` tag"))?;
            match tag {
                "str" => Ok(DataValue::Str(
                    v.str_at("v")
                        .ok_or_else(|| bad("str value without `v`"))?
                        .to_string(),
                )),
                "num" => {
                    let bits = v
                        .str_at("bits")
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or_else(|| bad("num value without hex `bits`"))?;
                    Ok(DataValue::Num(f64::from_bits(bits)))
                }
                "file" => Ok(DataValue::File {
                    gfn: v
                        .str_at("gfn")
                        .ok_or_else(|| bad("file value without `gfn`"))?
                        .to_string(),
                    bytes: v
                        .u64_at("bytes")
                        .ok_or_else(|| bad("file value without valid `bytes`"))?,
                }),
                "list" => {
                    let items = v
                        .array_at("items")
                        .ok_or_else(|| bad("list value without `items`"))?;
                    Ok(DataValue::List(
                        items.iter().map(decode_value).collect::<Result<_, _>>()?,
                    ))
                }
                other => Err(bad(&format!("unknown value tag `{other}`"))),
            }
        }

        fn load(store: &mut DataStore, dir: &Path) -> Result<(), MoteurError> {
            let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
            let index_text = std::fs::read_to_string(dir.join(INDEX_FILE))?;
            let index =
                JsonValue::parse(&index_text).map_err(|e| bad(&format!("index.json: {e}")))?;
            match index.str_at("schema") {
                Some(s) if s == STORE_SCHEMA => {}
                Some(other) => {
                    let dir = dir.display();
                    return Err(MoteurError::new(format!(
                        "data store at {dir} has schema `{other}`, this build reads \
                         `{STORE_SCHEMA}` (clear it with `moteur cache clear {dir}` to \
                         rebuild it)"
                    )));
                }
                None => return Err(bad("index.json without a schema tag")),
            }

            let data_path = dir.join(DATA_FILE);
            if data_path.exists() {
                let text = std::fs::read_to_string(&data_path)?;
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let row =
                        JsonValue::parse(line).map_err(|e| bad(&format!("store.jsonl: {e}")))?;
                    let key = row
                        .str_at("pk")
                        .and_then(ProvenanceKey::from_hex)
                        .ok_or_else(|| bad("entry without a valid `pk`"))?;
                    let footprint = row
                        .u64_at("footprint")
                        .ok_or_else(|| bad("entry without a valid `footprint`"))?;
                    let value = decode_value(
                        row.get("value")
                            .ok_or_else(|| bad("entry without a `value`"))?,
                    )?;
                    store.load_data(key, value, footprint)?;
                }
            }

            let rows = index
                .array_at("invocations")
                .ok_or_else(|| bad("index.json without an `invocations` array"))?;
            for row in rows {
                let key = row
                    .str_at("key")
                    .and_then(InvocationKey::from_hex)
                    .ok_or_else(|| bad("invocation without a valid `key`"))?;
                let service = row
                    .str_at("service")
                    .ok_or_else(|| bad("invocation without a `service`"))?
                    .to_string();
                let outs = row
                    .array_at("outputs")
                    .ok_or_else(|| bad("invocation without an `outputs` array"))?;
                let mut outputs = Vec::with_capacity(outs.len());
                for o in outs {
                    let port = o
                        .str_at("port")
                        .ok_or_else(|| bad("output without a `port`"))?
                        .to_string();
                    let pk = o
                        .str_at("pk")
                        .and_then(ProvenanceKey::from_hex)
                        .ok_or_else(|| bad("output without a valid `pk`"))?;
                    outputs.push((port, pk));
                }
                store.record_invocation(key, service, outputs);
            }
            Ok(())
        }

        /// `DataStore::open` as it was: probe for each file, then load.
        pub(super) fn open(dir: &Path) -> Result<DataStore, MoteurError> {
            let mut store = DataStore::open_cleared(dir, StoreConfig::default())?;
            let indexed = dir.join(INDEX_FILE).exists();
            if indexed {
                load(&mut store, dir)?;
            }
            *store.dirty.get_mut() = !(indexed && dir.join(DATA_FILE).exists());
            Ok(store)
        }
    }

    /// Everything a load decides, as text: each entry's value bits,
    /// charge and LRU stamp, the byte gauge, the index and the dirty
    /// flag.
    fn snapshot(store: &DataStore) -> String {
        let mut entries: Vec<_> = store.iter_data().collect();
        entries.sort_by_key(|(k, _, _, _)| *k);
        let mut out = String::new();
        for (key, value, footprint, last_used) in entries {
            let mut encoded = String::new();
            assert!(push_value(&mut encoded, value), "a loaded value encodes");
            out += &format!("{key} {footprint} {last_used} {encoded}\n");
        }
        let mut rows: Vec<_> = store.iter_invocations().collect();
        rows.sort_by_key(|(k, _, _)| *k);
        for (key, service, outputs) in rows {
            out += &format!("{key} {service:?} {outputs:?}\n");
        }
        let dirty = store.dirty.load(std::sync::atomic::Ordering::Relaxed);
        out + &format!("bytes {} dirty {dirty}", store.bytes)
    }

    /// How a pair of files opened.
    enum Opened {
        Loaded,
        Refused,
        /// Refused at the read of a file that is not UTF-8.
        NotUtf8,
    }

    /// Write the pair (`None` leaves a file out), open it both ways and
    /// require the same store or the same error; how it opened. A file
    /// that is not UTF-8 is the one exception: the tree's read fails
    /// with the bare i/o error, and the cursor's must name the file and
    /// the first bad byte instead.
    fn assert_agrees(dir: &Path, index: Option<&[u8]>, data: Option<&[u8]>, case: &str) -> Opened {
        for (name, bytes) in [(INDEX_FILE, index), (DATA_FILE, data)] {
            let path = dir.join(name);
            match bytes {
                Some(bytes) => std::fs::write(path, bytes).unwrap(),
                None => {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        let open = |result: Result<DataStore, MoteurError>| {
            result.map(|s| snapshot(&s)).map_err(|e| e.to_string())
        };
        let cursor = open(DataStore::open(dir, StoreConfig::default()));
        let tree = open(tree_oracle::open(dir));
        if tree
            .as_ref()
            .is_err_and(|e| e.contains("did not contain valid UTF-8"))
        {
            // Both read the index first, and the data file only once
            // the index decoded.
            let files = [(INDEX_FILE, index), (DATA_FILE, data)];
            let first_bad = files.into_iter().find_map(|(name, bytes)| {
                let at = std::str::from_utf8(bytes?).err()?.valid_up_to();
                Some(format!(
                    "moteur error: corrupt data store: {name}: invalid UTF-8 at byte {at}"
                ))
            });
            assert_eq!(
                cursor,
                Err(first_bad.expect("a file is not UTF-8")),
                "{case}"
            );
            return Opened::NotUtf8;
        }
        assert_eq!(cursor, tree, "{case}");
        match &cursor {
            Ok(_) => Opened::Loaded,
            Err(e) => {
                // Besides corruption, the one refusal the tree made
                // too: a schema tag of another version.
                assert!(
                    e.contains("corrupt data store") || e.contains("has schema"),
                    "{case}: {e}"
                );
                Opened::Refused
            }
        }
    }

    #[test]
    fn the_cursor_loads_every_cut_of_both_files_as_the_tree_did() {
        let dir = temp_dir("fuzz-cuts");
        save_mixed_store(&dir);
        let (index, data) = files(&dir);
        assert_agrees(&dir, Some(&index), Some(&data), "whole");
        assert_agrees(&dir, Some(&index), None, "no data file");
        assert_agrees(&dir, None, Some(&data), "no index");
        for cut in 0..=index.len() {
            assert_agrees(
                &dir,
                Some(&index[..cut]),
                Some(&data),
                &format!("index cut {cut}"),
            );
        }
        for cut in 0..=data.len() {
            assert_agrees(
                &dir,
                Some(&index),
                Some(&data[..cut]),
                &format!("data cut {cut}"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_cursor_loads_seeded_byte_mutations_as_the_tree_did() {
        const ALPHABET: &[u8] = b"{}[]\":,\\ \n\t-+.eE0123456789abcdeftrunlsvpk\x01\xc3\xff";
        let dir = temp_dir("fuzz-mutations");
        save_mixed_store(&dir);
        let pair = files(&dir);
        let mut rng = moteur_gridsim::Rng::new(43);
        let (mut loaded, mut refused, mut not_utf8) = (0, 0, 0);
        for case in 0..3000 {
            let (mut index, mut data) = pair.clone();
            for _ in 0..1 + rng.index(3) {
                let file = if rng.chance(0.5) {
                    &mut index
                } else {
                    &mut data
                };
                let at = rng.index(file.len() + 1);
                let byte = ALPHABET[rng.index(ALPHABET.len())];
                match rng.index(4) {
                    0 if at < file.len() => file[at] = byte,
                    1 if at < file.len() => {
                        file.remove(at);
                    }
                    2 => file.insert(at, byte),
                    _ => {
                        let end = (at + rng.index(40)).min(file.len());
                        let span = file[at..end].to_vec();
                        file.splice(at..at, span);
                    }
                }
            }
            match assert_agrees(&dir, Some(&index), Some(&data), &format!("mutation {case}")) {
                Opened::Loaded => loaded += 1,
                Opened::Refused => refused += 1,
                Opened::NotUtf8 => not_utf8 += 1,
            }
        }
        // Every outcome is exercised, not just the refusal.
        assert!(
            loaded > 100 && refused > 100 && not_utf8 > 100,
            "{loaded} loaded, {refused} refused, {not_utf8} not UTF-8"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_cursor_reads_reordered_duplicated_and_unknown_fields_as_the_tree_did() {
        let dir = temp_dir("fuzz-fields");
        std::fs::create_dir_all(&dir).unwrap();
        let schema = format!("\"schema\":\"{STORE_SCHEMA}\"");
        let row = r#"{"key":"00000000000000aa","service":"svc","outputs":[{"port":"out","pk":"0000000000000001"}]}"#;
        let indexes = [
            format!("{{{schema},\"invocations\":[{row}]}}"),
            format!("{{\"invocations\":[{row}],{schema}}}"),
            format!("{{\"extra\":{{\"deep\":[1,{{\"x\":null}}]}},{schema},\"invocations\":[]}}"),
            format!("{{{schema},{schema},\"invocations\":[{row}],\"invocations\":7}}"),
            format!("{{\"schema\":7,{schema},\"invocations\":[]}}"),
            format!("{{\"schema\":\"moteur-store/v1\",{schema},\"invocations\":[]}}"),
            format!("{{{schema},\"invocations\":{{}},\"invocations\":[]}}"),
            format!("{{{schema},\"invocations\":[{row},7,{row}]}}"),
            format!(
                "{{{schema},\"invocations\":[{{\"outputs\":[{{\"pk\":\"0000000000000001\",\
                 \"port\":\"p\",\"port\":\"q\"}}],\"service\":\"s\",\"x\":[],\
                 \"key\":\"00000000000000bb\",\"key\":\"zz\"}}]}}"
            ),
            format!("{{{schema},\"invocations\":[{{\"key\":\"+0000000000000bb\",\"service\":\"s\",\"outputs\":[]}}]}}"),
            format!("{{{schema},\"invocations\":[{{\"key\":\"00000000000000bb\",\"service\":\"s\\u00e9\",\"outputs\":[{{\"port\":\"p\",\"pk\":1}}]}}]}}"),
            format!("{{{schema}}}"),
            "[]".to_string(),
        ];
        let value = r#"{"t":"file","gfn":"g","bytes":7}"#;
        let lines = [
            format!(r#"{{"pk":"0000000000000001","footprint":7,"value":{value}}}"#),
            format!(r#"{{"value":{value},"footprint":7,"pk":"0000000000000001"}}"#),
            format!(r#"{{"footprint":7,"pk":"0000000000000001","u":[{{}}],"value":{value}}}"#),
            format!(r#"{{"pk":"0000000000000001","pk":7,"footprint":7,"value":{value}}}"#),
            format!(r#"{{"pk":7,"pk":"0000000000000001","footprint":7,"value":{value}}}"#),
            format!(r#"{{"pk":"0000000000000001","footprint":7,"value":{value},"value":7}}"#),
            format!(r#"{{"pk":"0000000000000001","footprint":7,"value":7,"value":{value}}}"#),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"bytes":7,"gfn":"g","t":"file"}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"t":"str","t":"num","v":"a\"b"}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"items":[{"v":"x","t":"str"},{"t":"num","bits":"+1"}],"t":"list"}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"items":[{"t":"bogus"},{"t":"str"}],"t":"list"}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"t":"list","items":[{"t":"str"}],"items":[]}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"t":"str","v":"x","items":[{"t":"bogus"}]}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"t":"num","bits":"00000000000000000000ff"}}"#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7}"#.to_string(),
            r#"{"pk":"0000000000000001","value":{"t":"str","v":"x"}} "#.to_string(),
            r#"{"pk":"0000000000000001","footprint":7,"value":{"t":7}} trailing"#.to_string(),
            r#"{"footprint":7,"value":{"t":"str","v":"x"},"pk":"0000000000000001","pk":"0000000000000002"}"#.to_string(),
            "[1,2]".to_string(),
            String::new(),
        ];
        let numbers = [
            "-1",
            "-0",
            "0.5",
            "1e300",
            "9007199254740992",
            "9007199254740994",
            "\"7\"",
            "null",
            "true",
            "[7]",
            "{\"n\":7}",
            "7e0",
            "1-2",
        ];
        let mut cases: Vec<(String, String)> = Vec::new();
        for index in &indexes {
            cases.push((index.clone(), lines[0].clone()));
        }
        for line in &lines {
            cases.push((indexes[0].clone(), format!("{line}\n{}\n", lines[0])));
        }
        for n in numbers {
            let entry = |footprint: &str, bytes: &str| {
                format!(
                    r#"{{"pk":"0000000000000001","footprint":{footprint},"value":{{"t":"file","gfn":"g","bytes":{bytes}}}}}"#
                )
            };
            cases.push((indexes[0].clone(), entry(n, "7")));
            cases.push((indexes[0].clone(), entry("7", n)));
        }
        for (index, data) in &cases {
            let case = format!("{index}\n{data}");
            assert_agrees(&dir, Some(index.as_bytes()), Some(data.as_bytes()), &case);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
