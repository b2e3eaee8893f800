//! The content-addressed result cache.
//!
//! Keys are [`crate::spec::RunRequest::spec_hash`] values: SHA-256 over
//! the canonical spec, so two requests share an entry exactly when their
//! result-determining fields agree. Lookups go memory → disk:
//!
//! * the in-memory tier is a bounded LRU of rendered payloads;
//! * the disk tier persists every insert under the cache directory
//!   (`results/cache/` by default) as `<model>/<hash>.out` (the payload,
//!   the exact bytes the figure binary would print) next to
//!   `<model>/<hash>.spec` (the canonical spec that produced it).
//!
//! `<model>` is [`hbc_core::pins::model_digest`], a digest over the
//! simulator's pinned results. The spec alone does not determine the
//! payload — the model does too — so a build whose pins differ reads and
//! writes a different namespace and never replays another build's
//! figures.
//!
//! Entries are written atomically (temp file + rename), so a crashed or
//! killed server never leaves a half-written payload a later server
//! could replay. Every disk hit re-checks the stored canonical spec
//! against the request's; a mismatch — a SHA-256 collision or a
//! corrupted/renamed entry — is treated as a miss.
//!
//! # Example
//!
//! ```
//! use hbc_serve::cache::{ResultCache, Tier};
//!
//! let cache = ResultCache::in_memory(4);
//! assert!(cache.get("deadbeef", "{\"spec\":1}").is_none());
//! cache.put("deadbeef", "{\"spec\":1}", "payload\n");
//! let (body, tier) = cache.get("deadbeef", "{\"spec\":1}").unwrap();
//! assert_eq!((body.as_str(), tier), ("payload\n", Tier::Memory));
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Locked;

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU.
    Memory,
    /// The on-disk store (the entry was promoted into memory).
    Disk,
}

/// One in-memory entry: the payload plus an LRU stamp.
#[derive(Debug, Clone)]
struct Entry {
    body: String,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Lru {
    entries: BTreeMap<String, Entry>,
    tick: u64,
}

impl Lru {
    fn get(&mut self, hash: &str) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(hash)?;
        entry.stamp = tick;
        Some(entry.body.clone())
    }

    /// Inserts, returning how many entries were evicted to make room.
    fn put(&mut self, hash: &str, body: &str, capacity: usize) -> u64 {
        if capacity == 0 {
            return 0;
        }
        self.tick += 1;
        self.entries.insert(hash.to_string(), Entry { body: body.to_string(), stamp: self.tick });
        let mut evicted = 0;
        while self.entries.len() > capacity {
            // O(n) victim scan; the LRU is small (tens of entries) and
            // eviction happens at most once per insert.
            let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(hash, _)| hash.clone())
            else {
                break;
            };
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// A two-tier (memory LRU + disk) content-addressed store of rendered
/// experiment payloads. Shared across worker threads; all methods take
/// `&self`.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    capacity: usize,
    lru: Locked<Lru>,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache persisting to this model's namespace under `dir`, holding
    /// at most `capacity` entries in memory. The directory is created on
    /// first insert.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize) -> Self {
        ResultCache {
            dir: Some(dir.into().join(hbc_core::pins::model_digest())),
            capacity,
            lru: Locked::default(),
            evictions: AtomicU64::new(0),
        }
    }

    /// A memory-only cache (no persistence) — used by tests and by
    /// `--cache-dir none`.
    pub fn in_memory(capacity: usize) -> Self {
        ResultCache { dir: None, capacity, lru: Locked::default(), evictions: AtomicU64::new(0) }
    }

    /// The on-disk location of this model's entries, if persistence is
    /// enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up `hash`, verifying `canonical` against the stored spec on
    /// a disk hit. Returns the payload and the tier that served it; a
    /// disk hit is promoted into the memory LRU.
    pub fn get(&self, hash: &str, canonical: &str) -> Option<(String, Tier)> {
        if let Some(body) = self.lru.with(|lru| lru.get(hash)) {
            return Some((body, Tier::Memory));
        }
        let dir = self.dir.as_ref()?;
        let body = read_to_string_if_present(&dir.join(format!("{hash}.out")))?;
        let stored_spec = read_to_string_if_present(&dir.join(format!("{hash}.spec")));
        // A content-address hit whose stored spec disagrees with the
        // request's canonical spec: SHA-256 collision or corrupted entry.
        // Re-simulating is always safe.
        if stored_spec.as_deref() != Some(canonical) {
            return None;
        }
        let evicted = self.lru.with(|lru| lru.put(hash, &body, self.capacity));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Some((body, Tier::Disk))
    }

    /// Inserts a payload under `hash`, persisting it (and the canonical
    /// spec that produced it) if a directory is configured. Disk errors
    /// are reported to the caller but the memory tier is always updated —
    /// a full disk degrades persistence, not serving.
    pub fn put(&self, hash: &str, canonical: &str, body: &str) -> io::Result<()> {
        let evicted = self.lru.with(|lru| lru.put(hash, body, self.capacity));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        write_atomic(&dir.join(format!("{hash}.spec")), canonical.as_bytes())?;
        write_atomic(&dir.join(format!("{hash}.out")), body.as_bytes())
    }

    /// Number of entries currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.lru.with(|lru| lru.entries.len())
    }

    /// Total memory-tier entries evicted since creation (inserts and disk
    /// promotions both count; the `serve.cache.evictions` metric).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Reads a file that may legitimately not exist; any other error also
/// reads as "absent" (the cache must never turn an I/O error into a
/// failed request — a miss just re-simulates).
fn read_to_string_if_present(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename, so readers only ever observe complete entries.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hbc-serve-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_lru_evicts_least_recent() {
        let cache = ResultCache::in_memory(2);
        cache.put("a", "sa", "1").unwrap();
        cache.put("b", "sb", "2").unwrap();
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get("a", "sa").map(|(b, _)| b).as_deref(), Some("1")); // refresh a
        cache.put("c", "sc", "3").unwrap();
        assert_eq!(cache.memory_len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("b", "sb").is_none(), "b was the LRU victim");
        assert!(cache.get("a", "sa").is_some());
        assert!(cache.get("c", "sc").is_some());
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let first = ResultCache::new(&dir, 4);
        first.put("h1", "spec1", "body1\n").unwrap();
        drop(first);

        let second = ResultCache::new(&dir, 4);
        let (body, tier) = second.get("h1", "spec1").expect("disk hit");
        assert_eq!((body.as_str(), tier), ("body1\n", Tier::Disk));
        // Promoted: the next lookup is a memory hit.
        assert_eq!(second.get("h1", "spec1").expect("memory hit").1, Tier::Memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_of_another_model_are_misses() {
        let dir = temp_dir("namespace");
        let plant = |at: &Path| {
            std::fs::create_dir_all(at).unwrap();
            std::fs::write(at.join("h.spec"), "spec").unwrap();
            std::fs::write(at.join("h.out"), "stale").unwrap();
        };
        // The layout before namespacing, and another build's namespace.
        plant(&dir);
        plant(&dir.join("0000000000000000"));
        let cache = ResultCache::new(&dir, 0);
        assert_eq!(cache.dir(), Some(dir.join(hbc_core::pins::model_digest()).as_path()));
        assert!(cache.get("h", "spec").is_none(), "another model's payload is not replayed");
        cache.put("h", "spec", "fresh").unwrap();
        assert_eq!(cache.get("h", "spec").map(|(b, _)| b).as_deref(), Some("fresh"));
        assert_eq!(std::fs::read_to_string(dir.join("h.out")).unwrap(), "stale");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_mismatch_is_a_miss() {
        let dir = temp_dir("mismatch");
        let cache = ResultCache::new(&dir, 0); // no memory tier: force disk reads
        cache.put("h", "the-real-spec", "body").unwrap();
        assert!(cache.get("h", "an-imposter-spec").is_none());
        assert!(cache.get("h", "the-real-spec").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_zero_keeps_nothing_in_memory() {
        let cache = ResultCache::in_memory(0);
        cache.put("a", "s", "1").unwrap();
        assert_eq!(cache.memory_len(), 0);
        assert!(cache.get("a", "s").is_none());
    }
}
