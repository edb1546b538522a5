//! The serving engine: one reader/writer-locked [`QueryEngine`] with an
//! epoch-validated, bit-identical result cache in front of it.
//!
//! [`QueryEngine`] answers queries through `&self`, but
//! [`QueryEngine::apply_updates`] takes `&mut self`: the overlay patches
//! rows and the pooled arenas are invalidated, so updates must exclude
//! concurrent readers.  [`CachedQueryEngine`] owns the engine behind a
//! reader/writer lock — every query takes the read lock, every update
//! batch the write lock — and pairs it with an optional
//! [`usim_cache::ResultCache`] keyed on `(query kind, unordered vertex
//! pair)` and tagged with the update epoch each answer was computed under.
//! The cache is private to its engine, whose config never changes, so the
//! config needs no place in the key.  The contract is the project's
//! signature invariant, extended to the cache:
//!
//! > **Cached answers are bit-identical to uncached ones**, at any worker
//! > count, before and after arbitrary update rounds.
//!
//! Three properties make that easy to guarantee:
//!
//! * every pair's answer is a pure function of `(graph state, config)` —
//!   the engine's RNG streams are keyed on `(seed, vertex)`, with a twin
//!   stream for the self-pair's second set, never on call order or argument
//!   order — so replaying a stored answer *is* recomputing it;
//! * every lookup and every fill happen under **one read-lock
//!   acquisition**, so the epoch used to validate entries is exactly the
//!   epoch of the graph the misses are computed on — a concurrent
//!   [`CachedQueryEngine::apply_updates`] (write lock) can never interleave
//!   half-way through a query;
//! * an update bumps the engine epoch, which logically invalidates every
//!   cache entry in O(1): entries from older epochs never hit (counted as
//!   `stale`), so no scan or flush runs inside the write lock.
//!
//! Each query frame is one typed call: [`CachedQueryEngine::scores`]
//! (similarity and batch frames), [`CachedQueryEngine::profile`] or
//! [`CachedQueryEngine::top_k`].  Each takes an optional [`StageTrace`];
//! the per-request methods without one are one-line calls of them.
//!
//! Next to the result cache sits the **walk-set memo**: vertex → that
//! vertex's walk set at the current epoch.  The misses a query computes
//! fill it, and every later pair or `top_k` candidate naming the vertex
//! reads the set instead of sampling its walks again.  A set is a pure
//! function of `(seed, vertex, graph state)`, so memo-warm answers are the
//! bits of a bare [`QueryEngine`].  The memo holds at most the result
//! cache's capacity in sets; when full it computes without keeping.  A
//! sampled set is moved into the memo, not copied.
//!
//! The memo also keeps **two-hop rows**: for a vertex `a`, the
//! `(w, Pr(a →₂ w))` entries that exact `m(2)`'s scatter leaves in its
//! table, in first-touch order (12 bytes each).  A pair whose smaller
//! endpoint has a kept row fills the table from it instead of reading the
//! row's two-hop arcs (about eleven per entry on R-MAT), and the other side
//! gathers as before, so every `m(2)` keeps its bits.  Rows are kept on
//! *second sight*: a vertex's first miss in an epoch only marks it, its
//! second records and keeps the row.  The byte rule: kept rows, with the
//! map slots of marked vertices, hold at most 4 KiB per set of capacity
//! (256 MiB at 65,536); once a row does not fit, the epoch keeps no more.
//!
//! [`CachedQueryEngine::apply_updates`] clears sets, rows and marks under
//! the write lock, in O(entries).
//!
//! With the cache disabled (capacity 0) there is no memo either, and every
//! call goes straight to the engine's own entry points — which already
//! deduplicate repeated pairs within one batch.

use crate::engine::{
    candidate_pairs, dedup_pairs, rank, QueryEngine, QueryError, TwoHopRow, WalkSet,
};
use crate::meeting::MeetingProfile;
use crate::top_k::ScoredVertex;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ugraph::{GraphUpdate, UpdateError, UpdateSummary, VertexId};
use usim_cache::{CacheStats, PairKey, ResultCache};
use usim_obs::{time_stage, Stage, StageTrace};

// The audit serving relies on, checked at compile time: the engine (CSR
// base + delta overlay + the Mutex-protected scratch pool) must be
// shareable across serving threads.  If a future field introduces
// thread-unsafe interior mutability (`Cell`, `Rc`, raw pointers), this
// fails to compile instead of corrupting a live server.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<CachedQueryEngine>();
    assert_send_sync::<crate::SimRankConfig>();
    assert_send_sync::<QueryError>();
};

/// A memoised answer: the score of a pair or its full meeting profile
/// (distinguished by the key's [`usim_cache::QueryKind`], mirrored here so
/// a corrupted pairing degrades to a recompute, never a wrong answer).
#[derive(Debug, Clone)]
enum CachedAnswer {
    Score(f64),
    Profile(MeetingProfile),
}

/// Shards of a [`WalkSetMemo`] (each with its own lock).
const MEMO_SHARDS: usize = 16;

/// Bytes of two-hop rows a memo may keep per set of its capacity: 256 MiB
/// at a capacity of 65,536.  A row is kept only while the rows already kept
/// leave room for it.
const ROW_BYTES_PER_SET: usize = 4096;

/// A snapshot of one structure of the walk-set memo (see
/// [`CachedQueryEngine::walk_set_stats`] and
/// [`CachedQueryEngine::two_hop_row_stats`]).  `hits` and `misses` are
/// cumulative since construction; `entries` and `bytes` describe what is
/// kept at the current epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Walk sets, or two-hop rows, kept.
    pub entries: usize,
    /// Bytes they hold: each one's fields and heap capacity plus its map
    /// slot and reference counts (for rows, also the map slots of vertices
    /// seen once).
    pub bytes: usize,
    /// Lookups that found the vertex's set or row.
    pub hits: u64,
    /// Lookups that did not, so the set was sampled or the row scattered.
    pub misses: u64,
}

/// Lock-free counters behind one [`MemoStats`].
#[derive(Debug, Default)]
struct MemoCounters {
    entries: AtomicUsize,
    bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCounters {
    fn count_lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserves `bytes` if that keeps the total within `budget`.
    fn reserve_bytes(&self, bytes: usize, budget: usize) -> bool {
        let before = self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if before + bytes <= budget {
            return true;
        }
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        false
    }

    fn reset(&self) {
        self.entries.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// What a two-hop-row lookup found (see [`WalkSetMemo::row`]).
pub(crate) enum RowLookup {
    /// The vertex's kept row.
    Hit(Arc<TwoHopRow>),
    /// A miss on a vertex seen before in this epoch, with room left: record
    /// the row and offer it ([`WalkSetMemo::offer_row`]).
    Keep,
    /// A miss to compute without keeping.
    Skip,
}

/// One shard: vertex → walk set, and vertex → two-hop row (`None` for a
/// vertex whose row has been computed once in this epoch).
#[derive(Debug, Default)]
struct MemoShard {
    sets: HashMap<VertexId, Arc<WalkSet>>,
    rows: HashMap<VertexId, Option<Arc<TwoHopRow>>>,
}

/// The epoch-scoped memo of a [`CachedQueryEngine`]: vertex → its
/// [`WalkSet`] and its [`TwoHopRow`] at the current update epoch, with at
/// most `capacity` sets and `capacity × ROW_BYTES_PER_SET` bytes of rows.
/// Fills happen under the engine's read lock and clears under its write
/// lock, so everything kept belongs to the epoch being served.
///
/// A row is kept on *second sight*: the first miss on a vertex in an epoch
/// only marks it seen, and the second records the row and keeps it.  Most
/// vertices a `churn` round reads are read once before the next update
/// clears the memo, so they never pay for a row copy.  Once a row does not
/// fit, no further row is kept until the next clear.
#[derive(Debug)]
pub(crate) struct WalkSetMemo {
    shards: Vec<Mutex<MemoShard>>,
    capacity: usize,
    row_budget: usize,
    rows_full: AtomicBool,
    sets: MemoCounters,
    rows: MemoCounters,
}

impl WalkSetMemo {
    pub(crate) fn new(capacity: usize) -> Self {
        WalkSetMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
            capacity,
            row_budget: capacity.saturating_mul(ROW_BYTES_PER_SET),
            rows_full: AtomicBool::new(false),
            sets: MemoCounters::default(),
            rows: MemoCounters::default(),
        }
    }

    fn shard(&self, vertex: VertexId) -> &Mutex<MemoShard> {
        let mixed = u64::from(vertex).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 32) as usize % MEMO_SHARDS]
    }

    /// `vertex`'s kept set, counting the lookup as a hit or a miss.
    pub(crate) fn get(&self, vertex: VertexId) -> Option<Arc<WalkSet>> {
        let set = self.shard(vertex).lock().sets.get(&vertex).cloned();
        self.sets.count_lookup(set.is_some());
        set
    }

    /// Keeps `vertex`'s freshly sampled set when there is room, taking it
    /// out of `set` (left empty) instead of copying it, and returns it.  Two
    /// workers that sampled the same vertex offer equal sets; the second is
    /// returned but not kept.  With no room, `set` is left as it is.
    pub(crate) fn offer(&self, vertex: VertexId, set: &mut WalkSet) -> Option<Arc<WalkSet>> {
        if self.sets.entries.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.sets.entries.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let kept = Arc::new(std::mem::take(set));
        let bytes = kept.bytes() + Self::SLOT_BYTES;
        let mut shard = self.shard(vertex).lock();
        match shard.sets.entry(vertex) {
            Entry::Occupied(_) => {
                self.sets.entries.fetch_sub(1, Ordering::Relaxed);
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&kept));
                self.sets.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        Some(kept)
    }

    /// `vertex`'s kept two-hop row, or what to do on the miss: the first
    /// miss in an epoch marks the vertex seen, the second asks for the row.
    /// Counts the lookup as a hit or a miss.
    pub(crate) fn row(&self, vertex: VertexId) -> RowLookup {
        let full = self.rows_full.load(Ordering::Relaxed);
        let mut shard = self.shard(vertex).lock();
        let lookup = match shard.rows.get(&vertex) {
            Some(Some(row)) => RowLookup::Hit(Arc::clone(row)),
            Some(None) if !full => RowLookup::Keep,
            Some(None) => RowLookup::Skip,
            None if full => RowLookup::Skip,
            None => {
                if self
                    .rows
                    .reserve_bytes(Self::ROW_SLOT_BYTES, self.row_budget)
                {
                    shard.rows.insert(vertex, None);
                } else {
                    self.rows_full.store(true, Ordering::Relaxed);
                }
                RowLookup::Skip
            }
        };
        drop(shard);
        self.rows.count_lookup(matches!(lookup, RowLookup::Hit(_)));
        lookup
    }

    /// Keeps `vertex`'s freshly recorded row, answering a
    /// [`RowLookup::Keep`], if it fits the budget; a row that does not fit
    /// stops the keeping of rows until the next clear.
    pub(crate) fn offer_row(&self, vertex: VertexId, row: TwoHopRow) {
        let bytes = row.bytes() + 2 * std::mem::size_of::<usize>();
        if !self.rows.reserve_bytes(bytes, self.row_budget) {
            self.rows_full.store(true, Ordering::Relaxed);
            return;
        }
        let row = Arc::new(row);
        let mut shard = self.shard(vertex).lock();
        match shard.rows.get_mut(&vertex) {
            Some(slot @ None) => {
                *slot = Some(row);
                self.rows.entries.fetch_add(1, Ordering::Relaxed);
            }
            // A racing worker kept an equal row first.
            _ => {
                self.rows.bytes.fetch_sub(bytes, Ordering::Relaxed);
            }
        }
    }

    /// A set's map slot plus an `Arc`'s two reference counts.
    const SLOT_BYTES: usize =
        std::mem::size_of::<(VertexId, Arc<WalkSet>)>() + 2 * std::mem::size_of::<usize>();

    /// A row's map slot, counted from the vertex's first sight.
    const ROW_SLOT_BYTES: usize = std::mem::size_of::<(VertexId, Option<Arc<TwoHopRow>>)>();

    /// The two-hop rows' counters.
    pub(crate) fn row_stats(&self) -> MemoStats {
        self.rows.stats()
    }

    /// Drops every kept set and row and every seen mark; O(entries).
    /// Called under the engine's write lock, so no reader is filling the
    /// memo meanwhile.
    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            // Fresh maps: clearing in place would keep the largest table
            // the memo ever grew to, and `clear` walks it.
            if !shard.sets.is_empty() {
                shard.sets = HashMap::new();
            }
            if !shard.rows.is_empty() {
                shard.rows = HashMap::new();
            }
        }
        self.sets.reset();
        self.rows.reset();
        self.rows_full.store(false, Ordering::Relaxed);
    }
}

/// A reader/writer-locked [`QueryEngine`] with an optional epoch-validated
/// result cache in front of it — the one engine type the server answers
/// through.  Every query returns `(epoch, answer)` captured under one
/// read-lock acquisition, which is what the wire protocol stamps on
/// responses.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use ugraph::{GraphUpdate, UncertainGraphBuilder};
/// use usim_core::{CachedQueryEngine, QueryEngine, SimRankConfig};
///
/// let g = UncertainGraphBuilder::new(3)
///     .arc(2, 0, 0.9)
///     .arc(2, 1, 0.8)
///     .build()
///     .unwrap();
/// let config = SimRankConfig::default().with_samples(100);
/// let cached = Arc::new(CachedQueryEngine::new(QueryEngine::new(&g, config), 1024));
/// let uncached = CachedQueryEngine::new(QueryEngine::new(&g, config), 0);
///
/// // Readers run concurrently.  The first ask fills the cache, the second
/// // is served from it — bit-identical to the cache-free engine either way.
/// let worker = {
///     let cached = Arc::clone(&cached);
///     std::thread::spawn(move || cached.similarity(0, 1).unwrap())
/// };
/// let (epoch, a) = worker.join().unwrap();
/// let (_, b) = cached.similarity(0, 1).unwrap();
/// let (_, c) = uncached.similarity(0, 1).unwrap();
/// assert_eq!((epoch, a), (0, b));
/// assert_eq!(a, c);
/// assert_eq!(cached.cache_stats().unwrap().hits, 1);
///
/// // A writer excludes readers for one atomic batch; the epoch bump
/// // logically drops every cached entry the batch may have changed.
/// cached
///     .apply_updates(&[GraphUpdate::SetProbability { source: 2, target: 0, probability: 0.1 }])
///     .unwrap();
/// let (epoch, after) = cached.similarity(0, 1).unwrap();
/// assert_eq!(epoch, 1);
/// assert_ne!(a, after);
/// ```
#[derive(Debug)]
pub struct CachedQueryEngine {
    engine: RwLock<QueryEngine>,
    cache: Option<Caches>,
}

/// The result cache and the walk-set memo, both bounded by one capacity.
#[derive(Debug)]
struct Caches {
    results: ResultCache<PairKey, CachedAnswer>,
    walk_sets: WalkSetMemo,
}

impl CachedQueryEngine {
    /// Takes ownership of `engine` behind a reader/writer lock, with a
    /// result cache bounded to `capacity` entries and a walk-set memo
    /// bounded to `capacity` sets and `capacity` × 4 KiB of two-hop rows in
    /// front of it; `capacity == 0` disables both (no map is allocated).
    pub fn new(engine: QueryEngine, capacity: usize) -> Self {
        CachedQueryEngine {
            engine: RwLock::new(engine),
            cache: (capacity > 0).then(|| Caches {
                results: ResultCache::new(capacity),
                walk_sets: WalkSetMemo::new(capacity),
            }),
        }
    }

    /// Runs `f` under a single read-lock acquisition.
    ///
    /// Use this when a response must couple several engine facts (epoch,
    /// vertex and arc counts, config): separate calls could interleave with
    /// a writer and pair a new epoch with an old arc count.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ugraph::{GraphUpdate, UncertainGraphBuilder};
    /// use usim_core::{CachedQueryEngine, QueryEngine, SimRankConfig};
    ///
    /// let g = UncertainGraphBuilder::new(3)
    ///     .arc(2, 0, 0.9)
    ///     .arc(2, 1, 0.8)
    ///     .build()
    ///     .unwrap();
    /// let config = SimRankConfig::default().with_samples(100);
    /// let engine = Arc::new(CachedQueryEngine::new(QueryEngine::new(&g, config), 0));
    ///
    /// // A reader captures the epoch and the facts it describes as one
    /// // consistent tuple, from any thread.
    /// let worker = {
    ///     let engine = Arc::clone(&engine);
    ///     std::thread::spawn(move || {
    ///         engine.with_read(|e| (e.update_epoch(), e.num_arcs(), e.similarity(0, 1)))
    ///     })
    /// };
    /// let (epoch, arcs, score) = worker.join().unwrap();
    /// assert_eq!((epoch, arcs), (0, 2));
    /// assert_eq!(score, engine.similarity(0, 1).unwrap().1);
    ///
    /// // A writer excludes readers for one atomic batch; later reads see
    /// // the new epoch together with the new graph.
    /// engine
    ///     .apply_updates(&[GraphUpdate::DeleteArc { source: 2, target: 0 }])
    ///     .unwrap();
    /// assert_eq!(engine.with_read(|e| (e.update_epoch(), e.num_arcs())), (1, 1));
    /// ```
    pub fn with_read<R>(&self, f: impl FnOnce(&QueryEngine) -> R) -> R {
        f(&self.engine.read())
    }

    /// How many update batches the engine has applied.
    pub fn update_epoch(&self) -> u64 {
        self.with_read(QueryEngine::update_epoch)
    }

    /// Whether a cache is attached.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The configured cache capacity (0 when disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.results.capacity())
    }

    /// Snapshot of the cache counters, or `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.results.stats())
    }

    /// Snapshot of the walk-set memo's sets, or `None` when caching is
    /// disabled.
    pub fn walk_set_stats(&self) -> Option<MemoStats> {
        self.cache.as_ref().map(|c| c.walk_sets.sets.stats())
    }

    /// Snapshot of the walk-set memo's two-hop rows, or `None` when caching
    /// is disabled.
    pub fn two_hop_row_stats(&self) -> Option<MemoStats> {
        self.cache.as_ref().map(|c| c.walk_sets.row_stats())
    }

    /// `(epoch, score)` of one pair (see [`QueryEngine::try_similarity`]).
    pub fn similarity(&self, u: VertexId, v: VertexId) -> Result<(u64, f64), QueryError> {
        self.scores(&[(u, v)], None)
            .map(|(epoch, scores)| (epoch, scores[0]))
    }

    /// [`CachedQueryEngine::scores`] without a trace.
    pub fn batch_similarities(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<(u64, Vec<f64>), QueryError> {
        self.scores(pairs, None)
    }

    /// [`CachedQueryEngine::top_k`] without a trace.
    pub fn batch_top_k_similar_to(
        &self,
        query: VertexId,
        candidates: &[VertexId],
        k: usize,
    ) -> Result<(u64, Vec<ScoredVertex>), QueryError> {
        self.top_k(query, candidates, k, None)
    }

    /// `(epoch, scores)` of a pair batch in input order (see
    /// [`QueryEngine::batch_similarities`]), under one read lock.  Cached
    /// pairs are served from the cache; the misses are computed as one
    /// engine batch (each distinct pair sampled once) and inserted for the
    /// next ask.  With a trace, cache probes count toward `cache_lookup`
    /// and walks toward `walk_sample`.
    pub fn scores(
        &self,
        pairs: &[(VertexId, VertexId)],
        trace: Option<&StageTrace>,
    ) -> Result<(u64, Vec<f64>), QueryError> {
        self.with_read(|e| {
            e.validate_vertices(pairs.iter().flat_map(|&(u, v)| [u, v]))?;
            let epoch = e.update_epoch();
            Ok((epoch, self.scores_for(e, epoch, pairs, trace)))
        })
    }

    /// `(epoch, meeting profile)` of one pair (see
    /// [`QueryEngine::try_profile`]), under one read lock, served from the
    /// cache when present and inserted on a miss.
    pub fn profile(
        &self,
        u: VertexId,
        v: VertexId,
        trace: Option<&StageTrace>,
    ) -> Result<(u64, MeetingProfile), QueryError> {
        self.with_read(|e| {
            e.validate_vertices([u, v])?;
            let epoch = e.update_epoch();
            let Some(Caches { results, walk_sets }) = &self.cache else {
                return Ok((
                    epoch,
                    time_stage(trace, Stage::WalkSample, || e.profile(u, v)),
                ));
            };
            let key = PairKey::profile(u, v);
            let hit = time_stage(trace, Stage::CacheLookup, || results.get(&key, epoch));
            if let Some(CachedAnswer::Profile(profile)) = hit {
                return Ok((epoch, profile));
            }
            let profile = time_stage(trace, Stage::WalkSample, || e.profile_memo(u, v, walk_sets));
            results.insert(key, CachedAnswer::Profile(profile.clone()), epoch);
            Ok((epoch, profile))
        })
    }

    /// `(epoch, ranked candidates)` (see
    /// [`QueryEngine::batch_top_k_similar_to`]), under one read lock.  The
    /// candidate pair scores go through the cache like
    /// [`CachedQueryEngine::scores`]; with a trace, ranking counts toward
    /// `merge`.
    pub fn top_k(
        &self,
        query: VertexId,
        candidates: &[VertexId],
        k: usize,
        trace: Option<&StageTrace>,
    ) -> Result<(u64, Vec<ScoredVertex>), QueryError> {
        self.with_read(|e| {
            e.validate_vertices(std::iter::once(query).chain(candidates.iter().copied()))?;
            let epoch = e.update_epoch();
            let pairs = candidate_pairs(query, candidates, k);
            let scores = self.scores_for(e, epoch, &pairs, trace);
            Ok((
                epoch,
                time_stage(trace, Stage::Merge, || rank(&pairs, &scores, k)),
            ))
        })
    }

    /// Applies an update batch and returns `(summary, new epoch)` captured
    /// under one write-lock acquisition, while no query is in flight (see
    /// [`QueryEngine::apply_updates`]; a rejected batch leaves the engine
    /// untouched).  The epoch bump invalidates every cached entry: each
    /// one reads as `stale` from then on and is recomputed on its next ask.
    /// The walk-set memo (sets, rows and seen marks) is cleared before the
    /// write lock is released.
    pub fn apply_updates(
        &self,
        updates: &[GraphUpdate],
    ) -> Result<(UpdateSummary, u64), UpdateError> {
        let mut e = self.engine.write();
        let summary = e.apply_updates(updates)?;
        if let Some(cache) = &self.cache {
            cache.walk_sets.clear();
        }
        Ok((summary, e.update_epoch()))
    }

    /// Scores for `pairs` in input order at `epoch`, serving hits from the
    /// cache and computing the misses as one engine batch, on the memo's
    /// walk sets, under the read lock already held by the caller (so
    /// `epoch` cannot move while the misses are computed or inserted).  Ids
    /// must already be validated: cached entries were validated when first
    /// computed, and vertex count never changes, so partial cache service
    /// cannot mask a bad id.
    fn scores_for(
        &self,
        e: &QueryEngine,
        epoch: u64,
        pairs: &[(VertexId, VertexId)],
        trace: Option<&StageTrace>,
    ) -> Vec<f64> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let Some(Caches { results, walk_sets }) = &self.cache else {
            return time_stage(trace, Stage::WalkSample, || e.batch_scores(pairs, None));
        };
        let mut scores = vec![0.0f64; pairs.len()];
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut misses: Vec<(VertexId, VertexId)> = Vec::new();
        time_stage(trace, Stage::CacheLookup, || {
            for (slot, &(u, v)) in pairs.iter().enumerate() {
                match results.get(&PairKey::score(u, v), epoch) {
                    Some(CachedAnswer::Score(score)) => scores[slot] = score,
                    // A profile under a score key cannot happen (the kind is
                    // in the key); recompute rather than trust a corrupt
                    // pairing.
                    Some(CachedAnswer::Profile(_)) | None => {
                        miss_slots.push(slot);
                        misses.push((u, v));
                    }
                }
            }
        });
        if !misses.is_empty() {
            // Deduplicate the misses so each distinct pair is computed and
            // inserted once; one engine batch covers them all, sharded
            // across workers.
            let (distinct, distinct_of) = dedup_pairs(&misses);
            let computed = time_stage(trace, Stage::WalkSample, || {
                e.batch_scores(&distinct, Some(walk_sets))
            });
            for (&slot, &index) in miss_slots.iter().zip(distinct_of.iter()) {
                scores[slot] = computed[index];
            }
            for (&(u, v), &score) in distinct.iter().zip(computed.iter()) {
                results.insert(PairKey::score(u, v), CachedAnswer::Score(score), epoch);
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRankConfig;
    use ugraph::UncertainGraphBuilder;

    fn fig1_graph() -> ugraph::UncertainGraph {
        UncertainGraphBuilder::new(5)
            .arc(0, 2, 0.8)
            .arc(0, 3, 0.5)
            .arc(1, 0, 0.8)
            .arc(1, 2, 0.9)
            .arc(2, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 4, 0.6)
            .arc(3, 1, 0.8)
            .build()
            .unwrap()
    }

    fn engines(capacity: usize) -> (CachedQueryEngine, QueryEngine) {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        (
            CachedQueryEngine::new(QueryEngine::new(&g, config), capacity),
            QueryEngine::new(&g, config),
        )
    }

    fn all_pairs() -> Vec<(VertexId, VertexId)> {
        (0..5).flat_map(|u| (0..5).map(move |v| (u, v))).collect()
    }

    #[test]
    fn cached_answers_are_bit_identical_to_the_engine() {
        let (cached, reference) = engines(256);
        let pairs = all_pairs();
        // Twice: the second run is served from the cache.
        for _ in 0..2 {
            let (epoch, scores) = cached.batch_similarities(&pairs).unwrap();
            assert_eq!(epoch, 0);
            assert_eq!(scores, reference.batch_similarities(&pairs).unwrap());
            let (_, score) = cached.similarity(1, 2).unwrap();
            assert_eq!(score, reference.similarity(1, 2));
            let (_, profile) = cached.profile(2, 3, None).unwrap();
            assert_eq!(profile, reference.profile(2, 3));
            let (_, ranked) = cached.batch_top_k_similar_to(0, &[1, 2, 3, 4], 2).unwrap();
            assert_eq!(
                ranked,
                reference
                    .batch_top_k_similar_to(0, &[1, 2, 3, 4], 2)
                    .unwrap()
            );
        }
        let stats = cached.cache_stats().unwrap();
        assert!(stats.hits > 0, "second pass must hit: {stats:?}");
    }

    #[test]
    fn memo_warm_answers_equal_a_bare_engine_across_updates_and_when_full() {
        let g = fig1_graph();
        let rounds = [
            GraphUpdate::SetProbability {
                source: 0,
                target: 2,
                probability: 0.05,
            },
            GraphUpdate::InsertArc {
                source: 4,
                target: 0,
                probability: 0.7,
            },
        ];
        for sampler in [crate::SamplerKind::Legacy, crate::SamplerKind::Alias] {
            let config = SimRankConfig::default()
                .with_samples(90)
                .with_seed(13)
                .with_sampler(sampler);
            for capacity in [1, 256] {
                let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), capacity);
                let mut bare = QueryEngine::new(&g, config);
                for round in 0..=rounds.len() {
                    // Scores, then profiles and rankings of the same pairs:
                    // result-cache misses whose vertices the memo holds.
                    let pairs = all_pairs();
                    let (_, scores) = cached.batch_similarities(&pairs).unwrap();
                    assert_eq!(scores, bare.batch_similarities(&pairs).unwrap());
                    for &(u, v) in &pairs {
                        let (_, profile) = cached.profile(u, v, None).unwrap();
                        assert_eq!(profile, bare.profile(u, v), "({u}, {v})");
                    }
                    for query in 0..5 {
                        let (_, ranked) = cached.top_k(query, &[0, 1, 2, 3, 4], 5, None).unwrap();
                        let want = bare.batch_top_k_similar_to(query, &[0, 1, 2, 3, 4], 5);
                        assert_eq!(ranked, want.unwrap());
                    }
                    let memo = cached.walk_set_stats().unwrap();
                    assert!(memo.hits > 0, "{sampler}, {capacity}: {memo:?}");
                    assert!((1..=capacity).contains(&memo.entries), "{memo:?}");
                    assert!(memo.bytes >= memo.entries * std::mem::size_of::<WalkSet>());
                    if let Some(update) = rounds.get(round) {
                        cached.apply_updates(&[*update]).unwrap();
                        bare.apply_updates(&[*update]).unwrap();
                        let cleared = cached.walk_set_stats().unwrap();
                        assert_eq!((cleared.entries, cleared.bytes), (0, 0));
                    }
                }
            }
        }
    }

    /// Three layers of eight: `0..8` point at most of `8..16`, which point
    /// at most of `16..24`.  An in-neighbour two-hop row of the top layer
    /// lands several paths on each bottom vertex.
    fn layered_graph() -> ugraph::UncertainGraph {
        let mut builder = UncertainGraphBuilder::new(24);
        for (low, high) in [(0u32, 8u32), (8, 16)] {
            for s in low..high {
                for t in (high..high + 8).filter(|t| (s + 2 * t) % 3 != 0) {
                    builder = builder.arc(s, t, 0.15 + 0.1 * ((s * t) % 8) as f64);
                }
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn a_vertex_keeps_its_two_hop_row_on_its_second_miss() {
        let g = layered_graph();
        let config = SimRankConfig::default().with_samples(40).with_seed(5);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 64);
        let mut bare = QueryEngine::new(&g, config);
        let rows = || {
            let rows = cached.two_hop_row_stats().unwrap();
            (rows.entries, rows.hits, rows.misses)
        };
        // 16 is the smaller endpoint of every pair, whose row m(2) reads.
        assert_eq!(
            cached.similarity(16, 17).unwrap().1,
            bare.similarity(16, 17)
        );
        assert_eq!(rows(), (0, 0, 1), "the first miss keeps no row");
        let marked = cached.two_hop_row_stats().unwrap().bytes;
        assert!(marked > 0, "the mark's map slot is counted");
        assert_eq!(
            cached.similarity(16, 18).unwrap().1,
            bare.similarity(16, 18)
        );
        assert_eq!(rows(), (1, 0, 2), "the second miss keeps the row");
        assert!(cached.two_hop_row_stats().unwrap().bytes > marked);
        assert_eq!(
            cached.similarity(19, 16).unwrap().1,
            bare.similarity(19, 16)
        );
        assert_eq!(rows(), (1, 1, 2));

        // An update drops rows and marks: the next miss is a first sight.
        let update = [GraphUpdate::SetProbability {
            source: 1,
            target: 9,
            probability: 0.9,
        }];
        cached.apply_updates(&update).unwrap();
        bare.apply_updates(&update).unwrap();
        let cleared = cached.two_hop_row_stats().unwrap();
        assert_eq!((cleared.entries, cleared.bytes), (0, 0));
        assert_eq!(
            cached.similarity(16, 20).unwrap().1,
            bare.similarity(16, 20)
        );
        assert_eq!(rows(), (0, 1, 3));
    }

    #[test]
    fn memo_warm_answers_equal_a_bare_engine_when_only_one_side_keeps_a_row() {
        let g = layered_graph();
        let config = SimRankConfig::default().with_samples(40).with_seed(9);
        let bare = QueryEngine::new(&g, config);
        let bits = |p: &MeetingProfile| p.meeting.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        // (16, 17) scatters 16's row; (17, 22) fills the table from 17's.
        // Each order gets a fresh engine, so neither is a result-cache hit.
        for (u, v) in [(16, 17), (17, 16), (17, 22), (22, 17)] {
            let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 256);
            // Two misses keep 17's row; 16 and 22 are never the smaller
            // endpoint twice, so theirs are not kept.
            cached.batch_similarities(&[(17, 20), (17, 21)]).unwrap();
            let (_, profile) = cached.profile(u, v, None).unwrap();
            let want = bare.profile(u, v);
            assert!(want.meeting[2] > 0.0, "({u}, {v})");
            assert_eq!(bits(&profile), bits(&want), "({u}, {v})");
            let rows = cached.two_hop_row_stats().unwrap();
            let hits = u64::from(u.min(v) == 17);
            assert_eq!((rows.entries, rows.hits), (1, hits), "({u}, {v}): {rows:?}");
        }
    }

    #[test]
    fn two_hop_rows_stop_at_the_byte_budget() {
        // Capacity 1 allows 4 KiB of rows.
        let memo = WalkSetMemo::new(1);
        for vertex in [1, 2, 3] {
            assert!(matches!(memo.row(vertex), RowLookup::Skip));
        }
        let marks = memo.row_stats().bytes;
        assert_eq!(marks, 3 * WalkSetMemo::ROW_SLOT_BYTES);
        let row = |entries: u32| TwoHopRow {
            targets: (0..entries).collect(),
            sums: vec![0.25; entries as usize],
        };
        assert!(matches!(memo.row(1), RowLookup::Keep));
        memo.offer_row(1, row(8));
        assert!(matches!(memo.row(1), RowLookup::Hit(_)));
        // 400 entries take 4.8 KB: the row is dropped, and the epoch keeps
        // no further row, even one that would fit.
        assert!(matches!(memo.row(2), RowLookup::Keep));
        memo.offer_row(2, row(400));
        assert!(matches!(memo.row(2), RowLookup::Skip));
        assert!(matches!(memo.row(3), RowLookup::Skip));
        let rows = memo.row_stats();
        assert_eq!(rows.entries, 1);
        assert!(rows.bytes <= 4096, "{rows:?}");
        // A clear starts a new epoch with the whole budget.
        memo.clear();
        assert!(matches!(memo.row(2), RowLookup::Skip));
        assert!(matches!(memo.row(2), RowLookup::Keep));
        assert_eq!(memo.row_stats().entries, 0);
    }

    #[test]
    fn reversed_pairs_share_one_cache_entry() {
        let (cached, reference) = engines(64);
        let (_, forward) = cached.batch_similarities(&[(1, 2), (3, 0)]).unwrap();
        let inserted = cached.cache_stats().unwrap().insertions;
        let (_, reversed) = cached.batch_similarities(&[(2, 1), (0, 3)]).unwrap();
        assert_eq!(forward, reversed);
        assert_eq!(
            reversed,
            reference.batch_similarities(&[(2, 1), (0, 3)]).unwrap()
        );
        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.insertions, inserted, "the reversed pairs hit");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let (cached, reference) = engines(0);
        assert!(!cached.cache_enabled());
        assert_eq!(cached.cache_capacity(), 0);
        assert!(cached.cache_stats().is_none());
        assert!(cached.walk_set_stats().is_none());
        let (epoch, scores) = cached.batch_similarities(&all_pairs()).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(scores, reference.batch_similarities(&all_pairs()).unwrap());
    }

    #[test]
    fn updates_invalidate_by_epoch_and_answers_track_the_live_graph() {
        let (cached, mut reference) = engines(256);
        let pairs = all_pairs();
        let (_, before) = cached.batch_similarities(&pairs).unwrap();
        let updates = [GraphUpdate::SetProbability {
            source: 0,
            target: 2,
            probability: 0.05,
        }];
        let (summary, epoch) = cached.apply_updates(&updates).unwrap();
        assert_eq!((summary.reweighted, epoch), (1, 1));
        reference.apply_updates(&updates).unwrap();
        let (epoch, after) = cached.batch_similarities(&pairs).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(after, reference.batch_similarities(&pairs).unwrap());
        assert_ne!(before, after);
        let stats = cached.cache_stats().unwrap();
        assert!(
            stats.stale > 0,
            "old-epoch entries must read as stale: {stats:?}"
        );
        // Asking again at the new epoch hits.
        let hits_before = cached.cache_stats().unwrap().hits;
        cached.batch_similarities(&pairs).unwrap();
        assert!(cached.cache_stats().unwrap().hits > hits_before);
    }

    /// Two disconnected components: queries in one, updates in the other.
    /// Walks can never cross, so an update in one component cannot change
    /// an answer in the other.
    fn two_component_graph() -> ugraph::UncertainGraph {
        UncertainGraphBuilder::new(6)
            // Component A: vertices 0..3.
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.8)
            .arc(1, 0, 0.7)
            // Component B: vertices 3..6.
            .arc(5, 3, 0.9)
            .arc(5, 4, 0.8)
            .build()
            .unwrap()
    }

    #[test]
    fn any_update_invalidates_every_entry_even_in_another_component() {
        let g = two_component_graph();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 256);
        let pairs: Vec<(VertexId, VertexId)> = vec![(0, 1), (0, 2), (1, 2)];
        cached.batch_similarities(&pairs).unwrap();
        cached.profile(0, 1, None).unwrap();

        // The round only touches component B, yet the epoch bump drops the
        // whole cache: every component-A entry reads as stale, none hits.
        let updates = [GraphUpdate::SetProbability {
            source: 5,
            target: 3,
            probability: 0.2,
        }];
        let (_, epoch) = cached.apply_updates(&updates).unwrap();
        assert_eq!(epoch, 1);
        let before = cached.cache_stats().unwrap();
        let (epoch, after) = cached.batch_similarities(&pairs).unwrap();
        let (_, after_profile) = cached.profile(0, 1, None).unwrap();
        assert_eq!(epoch, 1);
        let stats = cached.cache_stats().unwrap();
        assert_eq!(
            (stats.stale - before.stale, stats.hits - before.hits),
            (pairs.len() as u64 + 1, 0),
            "every cached pair recomputes after an update: {stats:?}"
        );

        // The recomputed answers are bit-identical to a fresh engine built
        // on the updated graph.
        let mut reference = QueryEngine::new(&g, config);
        reference.apply_updates(&updates).unwrap();
        assert_eq!(after, reference.batch_similarities(&pairs).unwrap());
        assert_eq!(after_profile, reference.profile(0, 1));
    }

    #[test]
    fn intra_batch_duplicates_hit_within_one_request() {
        let (cached, reference) = engines(64);
        let batch = [(0, 1), (2, 3), (0, 1), (0, 1), (2, 3)];
        let (_, scores) = cached.batch_similarities(&batch).unwrap();
        assert_eq!(scores, reference.batch_similarities(&batch).unwrap());
        assert_eq!(scores[0], scores[2]);
        // Only the two distinct pairs were ever inserted.
        assert_eq!(cached.cache_stats().unwrap().insertions, 2);
    }

    #[test]
    fn error_semantics_match_the_engine_even_on_cached_pairs() {
        let (cached, _) = engines(64);
        cached.similarity(0, 1).unwrap(); // (0, 1) is now cached
        let expected = QueryError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 5,
        };
        // A batch containing a cached pair and a bad id still rejects the
        // whole batch up front, like the raw engine.
        assert_eq!(
            cached.batch_similarities(&[(0, 1), (99, 0)]).unwrap_err(),
            expected
        );
        assert_eq!(cached.similarity(0, 99).unwrap_err(), expected);
        assert_eq!(cached.profile(99, 0, None).unwrap_err(), expected);
        // Ids are validated even when k == 0 skips scoring, exactly like
        // the engine.
        assert_eq!(
            cached.batch_top_k_similar_to(99, &[0], 2).unwrap_err(),
            expected
        );
        assert_eq!(
            cached.batch_top_k_similar_to(0, &[99], 0).unwrap_err(),
            expected
        );
    }

    #[test]
    fn typed_calls_answer_like_the_engine_and_track_the_epoch() {
        let (cached, mut reference) = engines(64);
        let expected_err = QueryError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 5,
        };
        assert_eq!(cached.scores(&[(1, 2), (99, 0)], None), Err(expected_err));
        assert_eq!(cached.profile(0, 99, None), Err(expected_err));
        assert_eq!(cached.top_k(99, &[0, 1], 2, None), Err(expected_err));
        assert_eq!(cached.profile(2, 3, None), Ok((0, reference.profile(2, 3))));

        // After an update round, every call reports the new epoch and the
        // post-update answers.
        let updates = [GraphUpdate::SetProbability {
            source: 0,
            target: 2,
            probability: 0.05,
        }];
        cached.apply_updates(&updates).unwrap();
        reference.apply_updates(&updates).unwrap();
        assert_eq!(
            cached.scores(&[(0, 1)], None),
            Ok((1, vec![reference.similarity(0, 1)]))
        );
        let candidates: Vec<VertexId> = (0..5).collect();
        assert_eq!(
            cached.top_k(0, &candidates, 3, None),
            Ok((
                1,
                reference.batch_top_k_similar_to(0, &candidates, 3).unwrap()
            ))
        );
        assert_eq!(cached.top_k(0, &candidates, 0, None), Ok((1, Vec::new())));
        assert_eq!(cached.scores(&[], None), Ok((1, Vec::new())));
    }

    #[test]
    fn concurrent_readers_and_a_writer_stay_deterministic() {
        let config = SimRankConfig::default().with_samples(100).with_seed(3);
        let pairs: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let round = |round: u64| {
            [GraphUpdate::SetProbability {
                source: 0,
                target: 2,
                probability: 0.1 + 0.15 * round as f64,
            }]
        };

        // A fresh engine's answers at every epoch the writer will produce.
        let reference: Vec<Vec<f64>> = (0..=5)
            .map(|epoch| {
                let mut fresh = QueryEngine::new(&fig1_graph(), config);
                for r in 0..epoch {
                    fresh.apply_updates(&round(r)).unwrap();
                }
                fresh.batch_similarities(&pairs).unwrap()
            })
            .collect();

        for capacity in [0, 64] {
            let cached = std::sync::Arc::new(CachedQueryEngine::new(
                QueryEngine::new(&fig1_graph(), config),
                capacity,
            ));
            // Several readers serve batches while one writer applies
            // rounds.  Whatever the interleaving, each served batch pairs an
            // epoch with exactly that epoch's answers.
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cached = std::sync::Arc::clone(&cached);
                    let pairs = pairs.clone();
                    std::thread::spawn(move || {
                        (0..20)
                            .map(|_| cached.batch_similarities(&pairs).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let writer = {
                let cached = std::sync::Arc::clone(&cached);
                std::thread::spawn(move || {
                    for r in 0..5 {
                        cached.apply_updates(&round(r)).unwrap();
                    }
                })
            };
            writer.join().unwrap();
            assert_eq!(cached.update_epoch(), 5);
            for reader in readers {
                for (epoch, answer) in reader.join().unwrap() {
                    assert_eq!(
                        answer, reference[epoch as usize],
                        "capacity {capacity}: epoch {epoch} diverged from a fresh engine"
                    );
                }
            }
        }
    }

    #[test]
    fn rejected_updates_and_bad_queries_stay_typed() {
        let (cached, _) = engines(64);
        assert_eq!(
            cached
                .apply_updates(&[GraphUpdate::DeleteArc {
                    source: 0,
                    target: 4
                }])
                .unwrap_err(),
            UpdateError::ArcNotFound {
                source: 0,
                target: 4
            }
        );
        assert_eq!(cached.update_epoch(), 0);
        assert_eq!(
            cached.similarity(0, 99).unwrap_err(),
            QueryError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 5
            }
        );
        assert!(cached.profile(99, 0, None).is_err());
    }
}
