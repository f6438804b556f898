//! On-disk codec of a [`DataStore`]: a versioned `index.json` (schema
//! tag + invocation index) plus a `store.jsonl` data file (one entry
//! per line).
//!
//! Both files are rewritten whole on [`DataStore::save`], sorted by
//! key, so identical contents serialise byte-identically — which is
//! why a store nothing changed in since it was loaded or saved skips
//! the write: the files already hold exactly those bytes. Loading is
//! one linear pass over each file; it verifies the schema tag first and
//! rejects anything else with a typed error — an older (v1) store or a
//! future layout is never silently misread.
//!
//! Numbers are stored as the hex spelling of their IEEE-754 bit
//! pattern: JSON has no NaN/∞ and decimal round-trips are easy to get
//! subtly wrong, while the bit pattern is exactly what the
//! [`ProvenanceKey`] hashed.

use super::{DataStore, InvocationKey, ProvenanceKey, STORE_SCHEMA};
use crate::error::MoteurError;
use crate::obs::json::JsonValue;
use crate::obs::json::{array, JsonObject};
use crate::value::DataValue;
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

fn encode_value(value: &DataValue) -> Option<String> {
    Some(match value {
        DataValue::Str(s) => JsonObject::new().str("t", "str").str("v", s).finish(),
        DataValue::Num(n) => JsonObject::new()
            .str("t", "num")
            .str("bits", &format!("{:016x}", n.to_bits()))
            .finish(),
        DataValue::File { gfn, bytes } => JsonObject::new()
            .str("t", "file")
            .str("gfn", gfn)
            .uint("bytes", *bytes)
            .finish(),
        DataValue::List(items) => {
            let encoded: Option<Vec<String>> = items.iter().map(encode_value).collect();
            JsonObject::new()
                .str("t", "list")
                .raw("items", &array(encoded?))
                .finish()
        }
        DataValue::Opaque(_) => return None,
    })
}

pub(super) fn bad(what: &str) -> MoteurError {
    MoteurError::new(format!("corrupt data store: {what}"))
}

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

/// Serialise `store` into `dir` (both files rewritten whole, under the
/// directory's advisory lock, each renamed into place atomically).
pub(super) fn save(store: &DataStore, dir: &Path) -> Result<(), MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    let mut invocations: Vec<_> = store.iter_invocations().collect();
    invocations.sort_by_key(|(k, _, _)| *k);
    let rows = invocations.into_iter().map(|(key, service, outputs)| {
        let outs = outputs.iter().map(|(port, pk)| {
            JsonObject::new()
                .str("port", port)
                .str("pk", &pk.to_hex())
                .finish()
        });
        JsonObject::new()
            .str("key", &key.to_hex())
            .str("service", service)
            .raw("outputs", &array(outs))
            .finish()
    });
    let index = JsonObject::new()
        .str("schema", STORE_SCHEMA)
        .raw("invocations", &array(rows))
        .finish();
    write_atomic(&dir.join(INDEX_FILE), &(index + "\n"))?;

    let mut entries: Vec<_> = store.iter_data().collect();
    entries.sort_by_key(|(k, _, _, _)| *k);
    let mut jsonl = String::new();
    for (key, value, footprint, _) in entries {
        let encoded = encode_value(value)
            .ok_or_else(|| MoteurError::new("opaque value in the data store"))?;
        jsonl.push_str(
            &JsonObject::new()
                .str("pk", &key.to_hex())
                .uint("footprint", footprint)
                .raw("value", &encoded)
                .finish(),
        );
        jsonl.push('\n');
    }
    write_atomic(&dir.join(DATA_FILE), &jsonl)?;
    Ok(())
}

/// Load `dir` into an empty `store`, verifying the schema tag. Takes
/// the same advisory lock as [`save`] so the `index.json` /
/// `store.jsonl` pair is read as one coherent snapshot.
pub(super) fn load(store: &mut DataStore, dir: &Path) -> Result<(), MoteurError> {
    let _lock = LockGuard::acquire(dir, LOCK_TIMEOUT)?;
    let index_text = std::fs::read_to_string(dir.join(INDEX_FILE))?;
    let index = JsonValue::parse(&index_text).map_err(|e| bad(&format!("index.json: {e}")))?;
    match index.str_at("schema") {
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

    let data_path = dir.join(DATA_FILE);
    if data_path.exists() {
        let text = std::fs::read_to_string(&data_path)?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let row = JsonValue::parse(line).map_err(|e| bad(&format!("store.jsonl: {e}")))?;
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
}
