//! The content-hash-keyed experiment **result cache**.
//!
//! One entry per executed scenario, keyed by [`result_key`]: FNV-1a
//! ([`ehp_sim_core::hash`]) over the running build's
//! [`build_fingerprint`], the experiment id, and the scenario's
//! canonical (compact, key-sorted, seed-resolved) JSON. Any input that
//! could change the outcome changes the key:
//!
//! * a different parameter, name, or seed changes the canonical JSON;
//! * any rebuild of the binary changes the fingerprint, so an entry is
//!   only ever read back by the build that wrote it. Invalidation holds
//!   by construction; there is no version number to bump.
//!
//! The discipline is **degrade-to-empty, byte-identical hot or cold**.
//! Every load failure — missing file, unparsable JSON, key mismatch —
//! is a miss, never an error; a corrupted entry is recomputed and
//! overwritten. Disk writes go through a same-directory temp file plus
//! rename so concurrent batches never observe a torn entry.
//!
//! Two stores share the code path: [`ResultCache::disk`] (one file per
//! key under `target/result-cache/`) for the CLI and the serve daemon,
//! and [`ResultCache::memory`] for tests and the `serve_audit`
//! experiment, which must stay filesystem-free and deterministic.

use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ehp_sim_core::hash::{fnv1a_extend, FNV_OFFSET};
use ehp_sim_core::json::Json;

/// A hash of the running executable's file metadata, computed once per
/// process; `None` if unreadable (callers then run uncached rather than
/// key under a value another build could share).
#[must_use]
pub fn build_fingerprint() -> Option<u64> {
    static BUILD: OnceLock<Option<u64>> = OnceLock::new();
    *BUILD.get_or_init(|| file_fingerprint(&std::env::current_exe().ok()?))
}

/// Hashes the device, inode, length and nanosecond mtime of `path`: a
/// rebuild writes a new file, a copy lives on another inode. Metadata,
/// not bytes: hashing a multi-megabyte binary costs milliseconds.
fn file_fingerprint(path: &Path) -> Option<u64> {
    let m = fs::metadata(path).ok()?;
    let (mtime, nsec) = (m.mtime() as u64, m.mtime_nsec() as u64);
    let mut h = FNV_OFFSET;
    for v in [m.dev(), m.ino(), m.len(), mtime, nsec] {
        h = fnv1a_extend(h, &v.to_le_bytes());
    }
    Some(h)
}

/// Derives the cache key for one scenario execution under `build`
/// (normally [`build_fingerprint`]).
///
/// `canonical_scenario` must be the scenario's compact JSON with the
/// seed already resolved — two spellings of the same scenario hash
/// identically, and two scenarios differing in any executed input
/// (params, name, seed) hash apart.
#[must_use]
pub fn result_key(build: u64, experiment: &str, canonical_scenario: &str) -> u64 {
    let mut h = fnv1a_extend(FNV_OFFSET, &build.to_le_bytes());
    h = fnv1a_extend(h, experiment.as_bytes());
    h = fnv1a_extend(h, b"\0");
    fnv1a_extend(h, canonical_scenario.as_bytes())
}

/// Monotonic cache traffic counters (reported by `ehp serve` stats and
/// the `cache_stats.json` artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a cached outcome.
    pub hits: u64,
    /// Lookups that found nothing usable (including corrupt entries).
    pub misses: u64,
    /// Outcomes written (or overwritten) into the cache.
    pub stores: u64,
}

impl CacheCounters {
    /// Counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("stores", Json::from(self.stores)),
        ])
    }
}

/// Where entries live.
#[derive(Debug)]
enum Store {
    /// In-memory map, for tests and deterministic audit experiments.
    Memory(BTreeMap<u64, Json>),
    /// One file per key under this directory.
    Disk(PathBuf),
}

/// The result cache: a [`Store`] plus traffic counters.
#[derive(Debug)]
pub struct ResultCache {
    store: Store,
    counters: CacheCounters,
}

impl ResultCache {
    /// A disk-backed cache rooted at `dir` (created lazily on first
    /// store; a missing directory just means every lookup misses).
    #[must_use]
    pub fn disk(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            store: Store::Disk(dir.into()),
            counters: CacheCounters::default(),
        }
    }

    /// An in-memory cache.
    #[must_use]
    pub fn memory() -> ResultCache {
        ResultCache {
            store: Store::Memory(BTreeMap::new()),
            counters: CacheCounters::default(),
        }
    }

    /// Traffic counters so far.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.json"))
    }

    /// Looks up a cached outcome; every failure mode is a miss.
    pub fn lookup(&mut self, key: u64) -> Option<Json> {
        let found = match &self.store {
            Store::Memory(map) => map.get(&key).cloned(),
            Store::Disk(dir) => fs::read_to_string(Self::entry_path(dir, key))
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|entry| decode_entry(&entry, key)),
        };
        match found {
            Some(outcome) => {
                self.counters.hits += 1;
                Some(outcome)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Stores (or overwrites) an outcome; returns whether the write
    /// stuck. Disk failures are swallowed — a cache that cannot write
    /// degrades to recomputation, it does not fail the batch.
    pub fn store(&mut self, key: u64, outcome: &Json) -> bool {
        let entry = Json::object([
            ("key", Json::from(format!("{key:016x}"))),
            ("outcome", outcome.clone()),
        ]);
        let ok = match &mut self.store {
            Store::Memory(map) => {
                map.insert(key, outcome.clone());
                true
            }
            Store::Disk(dir) => write_atomically(dir, key, &entry.to_string_compact()),
        };
        if ok {
            self.counters.stores += 1;
        }
        ok
    }
}

/// Validates one on-disk entry; `None` (a miss) unless the
/// self-recorded key matches.
fn decode_entry(entry: &Json, key: u64) -> Option<Json> {
    let recorded = u64::from_str_radix(entry.get("key")?.as_str()?, 16).ok()?;
    if recorded != key {
        return None;
    }
    entry.get("outcome").cloned()
}

/// Write-to-temp-then-rename so concurrent readers never see a torn
/// entry; any step failing simply drops the write.
fn write_atomically(dir: &Path, key: u64, contents: &str) -> bool {
    if fs::create_dir_all(dir).is_err() {
        return false;
    }
    let tmp = dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
    if fs::write(&tmp, contents).is_err() {
        return false;
    }
    let ok = fs::rename(&tmp, ResultCache::entry_path(dir, key)).is_ok();
    if !ok {
        let _ = fs::remove_file(&tmp);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tag: &str) -> Json {
        Json::object([("status", Json::from("ok")), ("tag", Json::from(tag))])
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/serve-cache-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_depends_on_every_input() {
        let k = result_key(1, "figure20", r#"{"experiment":"figure20"}"#);
        assert_eq!(k, result_key(1, "figure20", r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key(2, "figure20", r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key(1, "figure19", r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key(1, "figure20", r#"{"experiment":"figure19"}"#));
    }

    #[test]
    fn memory_round_trip_and_counters() {
        let mut c = ResultCache::memory();
        let k = result_key(1, "x", "{}");
        assert_eq!(c.lookup(k), None);
        assert!(c.store(k, &outcome("a")));
        assert_eq!(c.lookup(k), Some(outcome("a")));
        assert_eq!(
            c.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );
    }

    #[test]
    fn disk_round_trip_survives_a_new_handle() {
        let dir = tmp_dir("round-trip");
        let k = result_key(1, "x", "{}");
        let mut c = ResultCache::disk(&dir);
        assert_eq!(c.lookup(k), None, "cold cache must miss");
        assert!(c.store(k, &outcome("a")));
        // A fresh handle (fresh process in real life) sees the entry.
        let mut c2 = ResultCache::disk(&dir);
        assert_eq!(c2.lookup(k), Some(outcome("a")));
    }

    #[test]
    fn corrupted_and_mismatched_entries_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let k = result_key(1, "x", "{}");
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(k, &outcome("a")));

        // Truncated JSON → miss.
        fs::write(ResultCache::entry_path(&dir, k), "{\"schema\": \"ehp").unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(k), None);

        // Entry without a recorded key → miss.
        let entry = Json::object([("outcome", outcome("a"))]);
        fs::write(ResultCache::entry_path(&dir, k), entry.to_string_compact()).unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(k), None);

        // Entry renamed under a different key (key mismatch) → miss.
        let other = result_key(1, "y", "{}");
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(k, &outcome("a")));
        fs::rename(
            ResultCache::entry_path(&dir, k),
            ResultCache::entry_path(&dir, other),
        )
        .unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(other), None);

        // Overwriting repairs the slot.
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(other, &outcome("b")));
        assert_eq!(c.lookup(other), Some(outcome("b")));
    }

    #[test]
    fn a_copied_or_retouched_binary_misses_every_entry() {
        use std::time::{Duration, SystemTime};

        let dir = tmp_dir("fingerprint");
        fs::create_dir_all(&dir).unwrap();
        let exe = dir.join("ehp");
        fs::write(&exe, "build").unwrap();
        let touch = |path: &Path, secs| {
            let file = fs::File::options().write(true).open(path).unwrap();
            file.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
                .unwrap();
        };
        touch(&exe, 1_000_000);
        let built = file_fingerprint(&exe).unwrap();
        assert_eq!(built, file_fingerprint(&exe).unwrap(), "stable per file");

        // A copy with the same length and mtime: only its inode differs,
        // since it coexists with the original.
        let copy = dir.join("ehp-copy");
        fs::copy(&exe, &copy).unwrap();
        touch(&copy, 1_000_000);
        let copied = file_fingerprint(&copy).unwrap();
        // The same file after an explicit change of its mtime.
        touch(&exe, 2_000_000);
        let retouched = file_fingerprint(&exe).unwrap();

        let scenario = r#"{"experiment":"figure20"}"#;
        let mut c = ResultCache::memory();
        c.store(result_key(built, "figure20", scenario), &outcome("a"));
        for other in [copied, retouched] {
            assert_ne!(other, built);
            assert_eq!(c.lookup(result_key(other, "figure20", scenario)), None);
        }
        assert_eq!(
            c.lookup(result_key(built, "figure20", scenario)),
            Some(outcome("a"))
        );
    }

    #[test]
    fn missing_directory_is_just_a_miss() {
        let mut c = ResultCache::disk("/nonexistent/definitely/not/here");
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.counters().misses, 1);
    }
}
