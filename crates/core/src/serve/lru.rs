//! A bounded, Mutex-sharded LRU for ad-hoc query results.
//!
//! The precomputed indexes answer the hot routes without any locking;
//! only `/v1/query` — arbitrary cross-dimension filters whose key space
//! is too large to precompute — goes through this cache. The map is
//! split into [`SHARDS`] independently-locked shards (key hash picks
//! the shard) so concurrent misses on different filters never serialize
//! behind one lock, and the total capacity is distributed exactly across
//! shards so the whole cache never holds more than its configured entry
//! count (pinned by the LRU invariants in `core/tests/serve_prop.rs`).
//!
//! Shards are small (capacity/[`SHARDS`] entries), so each one is a
//! plain vector scanned linearly: at these sizes that beats a linked
//! structure and keeps the code obviously correct for the eviction-order
//! proptests.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independently-locked shards.
pub(super) const SHARDS: usize = 8;

/// What one [`ShardedLru::get_or_insert_with`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LruOutcome {
    /// The value was already cached.
    Hit,
    /// The value was computed and cached (evicting an entry when true).
    Miss {
        /// An existing entry was evicted to make room.
        evicted: bool,
    },
}

/// One shard: an exact least-recently-used map over owned strings.
#[derive(Debug, Default)]
pub struct LruShard {
    cap: usize,
    tick: u64,
    entries: Vec<(String, String, u64)>,
}

impl LruShard {
    /// An empty shard holding at most `cap` entries.
    pub fn new(cap: usize) -> LruShard {
        LruShard { cap, tick: 0, entries: Vec::with_capacity(cap.min(64)) }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shard's capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub(crate) fn touch(&mut self, key: &str) -> Option<&str> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.iter_mut().find(|(k, _, _)| k == key)?;
        e.2 = tick;
        Some(&e.1)
    }

    /// Looks `key` up like `touch`, with the value cloned out.
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.touch(key).map(str::to_string)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry
    /// when full. Returns whether an eviction happened. A shard with
    /// zero capacity caches nothing. Inserting an existing key refreshes
    /// its value and recency without evicting.
    pub fn insert(&mut self, key: String, value: String) -> bool {
        self.insert_str(&key, &value)
    }

    /// [`insert`](Self::insert) from borrowed strings: a refreshed or
    /// evicted entry's own strings are overwritten in place, so only an
    /// insert into free room allocates.
    pub(crate) fn insert_str(&mut self, key: &str, value: &str) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.tick += 1;
        let full = self.entries.len() >= self.cap;
        let slot = match self.entries.iter_mut().find(|(k, _, _)| k == key) {
            Some(e) => Some((e, false)),
            None if full => self.entries.iter_mut().min_by_key(|(_, _, t)| *t).map(|e| (e, true)),
            None => None,
        };
        let Some((e, evicted)) = slot else {
            self.entries.push((key.to_string(), value.to_string(), self.tick));
            return false;
        };
        if evicted {
            e.0.clear();
            e.0.push_str(key);
        }
        e.1.clear();
        e.1.push_str(value);
        e.2 = self.tick;
        evicted
    }

    /// The key that would be evicted by the next overflowing insert
    /// (the least recently used), if any.
    pub fn eviction_candidate(&self) -> Option<&str> {
        self.entries.iter().min_by_key(|(_, _, t)| *t).map(|(k, _, _)| k.as_str())
    }
}

/// The sharded cache: `SHARDS` locks, total capacity distributed
/// exactly (shard `i` gets `cap/SHARDS` plus one of the remainder).
#[derive(Debug)]
pub struct ShardedLru {
    shards: Vec<Mutex<LruShard>>,
}

/// A shard, even after a holder panicked: the shard changes only by whole
/// lookups and inserts.
fn lock(shard: &Mutex<LruShard>) -> MutexGuard<'_, LruShard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the key bytes — stable across runs, so shard placement
/// (and therefore eviction behaviour) is deterministic.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries across all shards.
    pub fn new(capacity: usize) -> ShardedLru {
        let shards = (0..SHARDS)
            .map(|i| {
                let cap = capacity / SHARDS + usize::from(i < capacity % SHARDS);
                Mutex::new(LruShard::new(cap))
            })
            .collect();
        ShardedLru { shards }
    }

    /// Total configured capacity.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity()).sum()
    }

    /// Entries currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the cached value for `key` to `out`, or has `f` append it
    /// and caches what it appended. A hit is copied out under the shard
    /// lock; the lock is *not* held while `f` runs, so a slow fold never
    /// blocks other shards' hits; two racing misses on the same key both
    /// compute and the later insert refreshes.
    pub(crate) fn get_or_insert_into(
        &self,
        key: &str,
        out: &mut String,
        f: impl FnOnce(&mut String),
    ) -> LruOutcome {
        let shard = &self.shards[(fnv1a(key) % SHARDS as u64) as usize];
        if let Some(v) = lock(shard).touch(key) {
            out.push_str(v);
            return LruOutcome::Hit;
        }
        let start = out.len();
        f(out);
        let evicted = lock(shard).insert_str(key, &out[start..]);
        LruOutcome::Miss { evicted }
    }

    /// Returns the cached value for `key`, computing and caching it via
    /// `f` on a miss.
    pub fn get_or_insert_with(
        &self,
        key: &str,
        f: impl FnOnce() -> String,
    ) -> (String, LruOutcome) {
        let mut v = String::new();
        let outcome = self.get_or_insert_into(key, &mut v, |out| *out = f());
        (v, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_evicts_least_recently_used() {
        let mut s = LruShard::new(2);
        assert!(!s.insert("a".into(), "1".into()));
        assert!(!s.insert("b".into(), "2".into()));
        assert_eq!(s.get("a"), Some("1".into()));
        // "b" is now the oldest; inserting "c" must evict it.
        assert_eq!(s.eviction_candidate(), Some("b"));
        assert!(s.insert("c".into(), "3".into()));
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get("a"), Some("1".into()));
        assert_eq!(s.get("c"), Some("3".into()));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let lru = ShardedLru::new(0);
        let (v, out) = lru.get_or_insert_with("k", || "v".into());
        assert_eq!(v, "v");
        assert_eq!(out, LruOutcome::Miss { evicted: false });
        let (_, out) = lru.get_or_insert_with("k", || "v".into());
        assert_eq!(out, LruOutcome::Miss { evicted: false });
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn capacity_is_distributed_exactly() {
        for cap in [0, 1, 7, 8, 9, 100] {
            assert_eq!(ShardedLru::new(cap).capacity(), cap, "capacity {cap}");
        }
    }

    #[test]
    fn sharded_hits_after_misses() {
        let lru = ShardedLru::new(16);
        for i in 0..8 {
            let key = format!("k{i}");
            let (_, out) = lru.get_or_insert_with(&key, || format!("v{i}"));
            assert!(matches!(out, LruOutcome::Miss { .. }));
            let (v, out) = lru.get_or_insert_with(&key, || unreachable!("must hit"));
            assert_eq!(v, format!("v{i}"));
            assert_eq!(out, LruOutcome::Hit);
        }
    }
}
