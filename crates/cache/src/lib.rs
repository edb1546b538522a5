//! `usim_cache` — an epoch-aware result cache for the SimRank query engine.
//!
//! The paper's estimators pay hundreds of random walks per similarity query;
//! under a serving workload popular vertex pairs are asked again and again.
//! This crate provides the subsystem that makes repeats cheap without ever
//! changing an answer:
//!
//! * **Sharded, capacity-bounded map.**  [`ResultCache`] spreads entries
//!   over `N` independently locked shards (default
//!   [`DEFAULT_SHARDS`]), so concurrent serving threads rarely contend;
//!   each shard is bounded to `capacity / N` entries and evicts with a
//!   second-chance (CLOCK) policy when full — recently hit entries survive
//!   capacity pressure, cold ones go first.
//! * **Epoch validation.**  Every entry is tagged with the engine update
//!   epoch it was computed under.  A lookup only hits when the entry's
//!   epoch equals the caller's current epoch, so applying a graph-update
//!   batch invalidates the *whole* cache logically in O(1) — no scan, no
//!   flush; stale entries are refreshed in place on the next insert and
//!   evicted preferentially under capacity pressure.
//! * **Observability.**  Hit / miss / stale / eviction / insertion
//!   counters are lock-free atomics, snapshotted by [`ResultCache::stats`]
//!   — the `usim serve` `stats` frame surfaces them on the wire.
//!
//! The cache is generic over key and value so the map layer stays free of
//! engine types; the domain key for pair queries is [`PairKey`]
//! (query kind + unordered vertex pair).  The engine-facing integration —
//! `CachedQueryEngine`, which guarantees cached answers are *bit-identical*
//! to uncached ones at any thread count and across update epochs — lives
//! in `usim_core::cached`.  Each cache there belongs to one engine and so
//! to one fixed SimRank configuration, which is why keys carry no config.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use ugraph::VertexId;

/// Default shard count of a [`ResultCache`] (a power of two; each shard has
/// its own lock, so this bounds reader contention, not capacity).
pub const DEFAULT_SHARDS: usize = 16;

/// What kind of answer a [`PairKey`] names.  `Score` and `Profile` entries
/// for the same pair are distinct: a profile is the per-step meeting vector,
/// a score is its Eq. 12 combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// A single SimRank score `s⁽ⁿ⁾(u, v)`.
    Score,
    /// A per-step meeting-probability profile of `(u, v)`.
    Profile,
}

/// The domain cache key for pair queries: query kind and the *unordered*
/// vertex pair, stored as `(min(u, v), max(u, v))`.  The engine keys its
/// RNG streams on `(seed, vertex)`, so `s(u, v)` and `s(v, u)` are the same
/// bits and share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// What kind of answer this key names.
    pub kind: QueryKind,
    /// The smaller vertex of the pair.
    pub u: VertexId,
    /// The larger vertex of the pair.
    pub v: VertexId,
}

impl PairKey {
    fn new(kind: QueryKind, u: VertexId, v: VertexId) -> Self {
        PairKey {
            kind,
            u: u.min(v),
            v: u.max(v),
        }
    }

    /// Key of the cached score of the pair `{u, v}`.
    pub fn score(u: VertexId, v: VertexId) -> Self {
        PairKey::new(QueryKind::Score, u, v)
    }

    /// Key of the cached meeting profile of the pair `{u, v}`.
    pub fn profile(u: VertexId, v: VertexId) -> Self {
        PairKey::new(QueryKind::Profile, u, v)
    }
}

/// A point-in-time snapshot of a cache's counters (see
/// [`ResultCache::stats`]).  Counters are cumulative since construction;
/// `entries` is the current live entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (entry present, epoch matched).
    pub hits: u64,
    /// Lookups that found no entry at all.
    pub misses: u64,
    /// Lookups that found an entry computed under an older epoch; the
    /// caller recomputes.  Counted separately from `misses` so operators
    /// can tell cold keys from invalidation churn.
    pub stale: u64,
    /// Entries removed to make room under capacity pressure (stale entries
    /// are taken first, then the CLOCK sweep picks a cold one).
    pub evictions: u64,
    /// Entries written (fresh keys and epoch-refreshes of existing keys).
    pub insertions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

#[derive(Debug)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    epoch: u64,
    /// Second-chance bit: set on every hit, cleared when the CLOCK hand
    /// passes over the entry.
    referenced: bool,
}

/// One shard: a bounded map plus the CLOCK queue ordering eviction
/// candidates.  Every resident key appears in the queue exactly once —
/// lookups never remove entries (stale hits are only counted), so the two
/// structures stay in lockstep and the sweep below always terminates on a
/// resident entry.
#[derive(Debug)]
struct ShardState<K, V> {
    map: HashMap<K, Entry<V>, BuildHasherDefault<DefaultHasher>>,
    clock: VecDeque<K>,
}

impl<K: Hash + Eq + Clone, V> ShardState<K, V> {
    fn new() -> Self {
        ShardState {
            map: HashMap::default(),
            clock: VecDeque::new(),
        }
    }

    /// Evicts one entry with the CLOCK (second-chance) sweep, preferring
    /// stale entries: stale → evict immediately; referenced → clear the bit
    /// and push to the back; unreferenced → evict.  Terminates because after
    /// one full lap every key has lost its referenced bit, so the second
    /// encounter always evicts.
    fn evict_one(&mut self, current_epoch: u64, counters: &Counters) {
        let mut lap = self.clock.len().saturating_mul(2);
        while let Some(key) = self.clock.pop_front() {
            match self.map.get_mut(&key) {
                None => {} // unreachable by the lockstep invariant; skip
                Some(entry) if entry.epoch != current_epoch => {
                    self.map.remove(&key);
                    counters.evictions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(entry) if entry.referenced && lap > 0 => {
                    entry.referenced = false;
                    self.clock.push_back(key);
                    lap -= 1;
                }
                Some(_) => {
                    self.map.remove(&key);
                    counters.evictions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// A thread-safe, sharded, capacity-bounded, epoch-tagged cache.
///
/// `get` only returns entries whose stored epoch equals the epoch the
/// caller passes, so bumping an engine's update epoch invalidates every
/// entry logically in O(1).  Values are returned by clone; keep them cheap
/// (scores, small vectors).
///
/// # Example
///
/// ```
/// use usim_cache::ResultCache;
///
/// let cache: ResultCache<u32, f64> = ResultCache::new(128);
/// assert_eq!(cache.get(&7, 0), None);          // cold: miss
/// cache.insert(7, 0.25, 0);
/// assert_eq!(cache.get(&7, 0), Some(0.25));    // hit at the same epoch
/// assert_eq!(cache.get(&7, 1), None);          // epoch moved on: stale
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.stale), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct ResultCache<K, V> {
    shards: Vec<Mutex<ShardState<K, V>>>,
    per_shard_capacity: usize,
    capacity: usize,
    counters: Counters,
}

impl<K: Hash + Eq + Clone, V: Clone> ResultCache<K, V> {
    /// Builds a cache bounded to `capacity` total entries, spread over
    /// [`DEFAULT_SHARDS`] shards (fewer when `capacity` is smaller than the
    /// default shard count, so tiny caches still enforce their bound
    /// exactly).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a zero-capacity cache cannot hold
    /// an answer; callers model "caching off" by not constructing one.
    pub fn new(capacity: usize) -> Self {
        ResultCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Builds a cache with an explicit shard count.  The count is rounded
    /// to a power of two and clamped down so the per-shard bounds
    /// (`capacity / shards`, at least 1 each) never sum past `capacity` —
    /// the capacity bound is strict, the shard count is advisory.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` or `shards` is zero.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(
            capacity > 0,
            "cache capacity must be positive (0 = don't build a cache)"
        );
        assert!(shards > 0, "shard count must be positive");
        // Largest power of two that is <= both the request and the
        // capacity, so `shards * (capacity / shards) <= capacity` holds
        // with every shard holding at least one entry.
        let largest_fitting = 1usize << (usize::BITS - 1 - capacity.leading_zeros());
        let shards = shards.next_power_of_two().min(largest_fitting);
        let per_shard_capacity = capacity / shards;
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(ShardState::new())).collect(),
            per_shard_capacity,
            capacity,
            counters: Counters::new(),
        }
    }

    /// The configured total capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    fn shard_for(&self, key: &K) -> &Mutex<ShardState<K, V>> {
        let mut hasher = DefaultHasher::default();
        key.hash(&mut hasher);
        // The map inside each shard uses the same hasher over the same key;
        // remix and take the upper 32 bits for the shard index so shard
        // choice and bucket choice (low bits) stay decorrelated at any
        // realistic shard count.
        let remixed = hasher.finish().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let index = (remixed >> 32) as usize & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Looks `key` up at `epoch`.  Returns a clone of the value only when
    /// an entry exists *and* was stored under the same epoch; an entry from
    /// another epoch is counted in [`CacheStats::stale`] and the caller
    /// recomputes.  Stale entries stay resident until the caller's
    /// [`ResultCache::insert`] refreshes them in place or capacity pressure
    /// evicts them (the sweep takes stale entries first), so the eviction
    /// queue and the map never drift apart.
    pub fn get(&self, key: &K, epoch: u64) -> Option<V> {
        let mut shard = self.shard_for(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.referenced = true;
                let value = entry.value.clone();
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                self.counters.stale.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` for `key` as computed under `epoch`, evicting (CLOCK,
    /// stale-first) when the shard is at capacity.  Re-inserting an existing
    /// key replaces its value and epoch in place.
    pub fn insert(&self, key: K, value: V, epoch: u64) {
        let mut shard = self.shard_for(&key).lock();
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.epoch = epoch;
            entry.referenced = true;
            self.counters.insertions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while shard.map.len() >= self.per_shard_capacity {
            shard.evict_one(epoch, &self.counters);
        }
        shard.map.insert(
            key.clone(),
            Entry {
                value,
                epoch,
                referenced: false,
            },
        );
        shard.clock.push_back(key);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the counters and the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stale: self.counters.stale.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trip_at_matching_epoch() {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(64);
        let key = PairKey::score(1, 2);
        assert_eq!(cache.get(&key, 0), None);
        cache.insert(key, 0.5, 0);
        assert_eq!(cache.get(&key, 0), Some(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_mismatch_is_a_stale_lookup_not_a_hit() {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(64);
        let key = PairKey::score(1, 2);
        cache.insert(key, 0.5, 3);
        assert_eq!(cache.get(&key, 4), None, "newer epoch never hits");
        let stats = cache.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.hits, 0);
        // The slot refreshes in place at the new epoch.
        cache.insert(key, 0.7, 4);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key, 4), Some(0.7));
    }

    #[test]
    fn score_and_profile_keys_are_distinct() {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(64);
        cache.insert(PairKey::score(1, 2), 0.25, 0);
        assert_eq!(cache.get(&PairKey::profile(1, 2), 0), None);
        assert_eq!(
            cache.get(&PairKey::score(2, 1), 0),
            Some(0.25),
            "unordered pair"
        );
        assert_eq!(cache.get(&PairKey::score(1, 2), 0), Some(0.25));
    }

    #[test]
    fn reinsert_refreshes_value_and_epoch_in_place() {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(8);
        let key = PairKey::score(0, 1);
        cache.insert(key, 0.1, 0);
        cache.insert(key, 0.2, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key, 0), None);
        assert_eq!(cache.get(&key, 1), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ResultCache::<u64, f64>::new(0);
    }
}
