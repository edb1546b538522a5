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
//! The same capacity switches on the engine's own **walk-set memo**
//! ([`crate::memo`]): [`CachedQueryEngine::new`] gives the engine a memo of
//! that many per-vertex walk sets (and that many × 4 KiB of two-hop rows),
//! which every engine query path reads and fills and
//! [`QueryEngine::apply_updates`] clears under the write lock.  Its
//! counters are [`QueryEngine::walk_set_stats`] and
//! [`QueryEngine::two_hop_row_stats`], read through
//! [`CachedQueryEngine::with_read`].
//!
//! With the cache disabled (capacity 0) there is no memo either, and every
//! pair a frame names is computed, each distinct pair once.
//!
//! A frame runs on the thread that calls it — in the server, its
//! connection's thread — and never enters rayon: its distinct misses are
//! computed in input order with one pooled scratch, so the server's
//! parallelism is its connections (`usim serve --workers`), one level, with
//! no OS thread spawned per frame.  [`QueryEngine::batch_similarities`] and
//! [`QueryEngine::batch_profile`] keep sharding across rayon workers for the
//! CLI's batch commands.

use crate::engine::{candidate_pairs, dedup_pairs, rank, QueryEngine, QueryError};
use crate::meeting::MeetingProfile;
use crate::top_k::ScoredVertex;
use parking_lot::RwLock;
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
    results: Option<ResultCache<PairKey, CachedAnswer>>,
}

impl CachedQueryEngine {
    /// Takes ownership of `engine` behind a reader/writer lock, with a
    /// result cache bounded to `capacity` entries in front of it, and gives
    /// the engine a walk-set memo bounded to `capacity` sets and `capacity`
    /// × 4 KiB of two-hop rows; `capacity == 0` disables both (no map is
    /// allocated).
    pub fn new(mut engine: QueryEngine, capacity: usize) -> Self {
        engine.keep_walk_sets(capacity);
        CachedQueryEngine {
            engine: RwLock::new(engine),
            results: (capacity > 0).then(|| ResultCache::new(capacity)),
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
        self.results.is_some()
    }

    /// The configured cache capacity (0 when disabled).
    pub fn cache_capacity(&self) -> usize {
        self.results.as_ref().map_or(0, ResultCache::capacity)
    }

    /// Snapshot of the cache counters, or `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.results.as_ref().map(ResultCache::stats)
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
    /// pairs are served from the cache; the misses are computed on the
    /// calling thread (each distinct pair once) and inserted for the next
    /// ask.  With a trace, cache probes count toward `cache_lookup`
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
            let sample = || time_stage(trace, Stage::WalkSample, || e.profile(u, v));
            let Some(results) = &self.results else {
                return Ok((epoch, sample()));
            };
            let key = PairKey::profile(u, v);
            let hit = time_stage(trace, Stage::CacheLookup, || results.get(&key, epoch));
            if let Some(CachedAnswer::Profile(profile)) = hit {
                return Ok((epoch, profile));
            }
            let profile = sample();
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
    /// one reads as `stale` from then on and is recomputed on its next ask;
    /// the engine clears its walk-set memo before the write lock is
    /// released.
    pub fn apply_updates(
        &self,
        updates: &[GraphUpdate],
    ) -> Result<(UpdateSummary, u64), UpdateError> {
        let mut e = self.engine.write();
        let summary = e.apply_updates(updates)?;
        Ok((summary, e.update_epoch()))
    }

    /// Scores for `pairs` in input order at `epoch`, serving hits from the
    /// cache and computing each distinct miss once on the calling thread
    /// with one pooled scratch, under the read lock already held by the
    /// caller (so `epoch` cannot move while the misses are computed or
    /// inserted).  Ids must already be validated: cached entries were
    /// validated when first computed, and vertex count never changes, so
    /// partial cache service cannot mask a bad id.
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
        let Some(results) = &self.results else {
            let (distinct, slots) = dedup_pairs(pairs);
            let computed = time_stage(trace, Stage::WalkSample, || e.sequential_scores(&distinct));
            return slots.into_iter().map(|slot| computed[slot]).collect();
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
            // inserted once, in input order on this connection's thread.
            let (distinct, distinct_of) = dedup_pairs(&misses);
            let computed = time_stage(trace, Stage::WalkSample, || e.sequential_scores(&distinct));
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
    use crate::engine::WalkSet;
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
                    let memo = cached.with_read(QueryEngine::walk_set_stats).unwrap();
                    assert!(memo.hits > 0, "{sampler}, {capacity}: {memo:?}");
                    assert!((1..=capacity).contains(&memo.entries), "{memo:?}");
                    assert!(memo.bytes >= memo.entries * std::mem::size_of::<WalkSet>());
                    if let Some(update) = rounds.get(round) {
                        cached.apply_updates(&[*update]).unwrap();
                        bare.apply_updates(&[*update]).unwrap();
                        let cleared = cached.with_read(QueryEngine::walk_set_stats).unwrap();
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
            let rows = cached.with_read(QueryEngine::two_hop_row_stats).unwrap();
            (rows.entries, rows.hits, rows.misses)
        };
        // 16 is the smaller endpoint of every pair, whose row m(2) reads.
        assert_eq!(
            cached.similarity(16, 17).unwrap().1,
            bare.similarity(16, 17)
        );
        assert_eq!(rows(), (0, 0, 1), "the first miss keeps no row");
        let marked = cached
            .with_read(QueryEngine::two_hop_row_stats)
            .unwrap()
            .bytes;
        assert!(marked > 0, "the mark's map slot is counted");
        assert_eq!(
            cached.similarity(16, 18).unwrap().1,
            bare.similarity(16, 18)
        );
        assert_eq!(rows(), (1, 0, 2), "the second miss keeps the row");
        assert!(
            cached
                .with_read(QueryEngine::two_hop_row_stats)
                .unwrap()
                .bytes
                > marked
        );
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
        let cleared = cached.with_read(QueryEngine::two_hop_row_stats).unwrap();
        assert_eq!((cleared.entries, cleared.bytes), (0, 0));
        assert_eq!(
            cached.similarity(16, 20).unwrap().1,
            bare.similarity(16, 20)
        );
        assert_eq!(rows(), (0, 1, 3));
    }

    #[test]
    fn a_rejected_update_batch_leaves_the_memo_as_it_was() {
        let g = layered_graph();
        let config = SimRankConfig::default().with_samples(40).with_seed(5);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 64);
        let bare = QueryEngine::new(&g, config);
        let memo =
            || cached.with_read(|e| (e.walk_set_stats().unwrap(), e.two_hop_row_stats().unwrap()));
        // 16 is the smaller endpoint twice, so it keeps its row; 17 once, so
        // it is only marked.  Every endpoint keeps its set.  One pair at a
        // time, so no two workers miss on one vertex at once.
        for (u, v) in [(16, 18), (16, 19), (17, 20)] {
            assert_eq!(cached.similarity(u, v).unwrap().1, bare.similarity(u, v));
        }
        let (sets, rows) = memo();
        assert_eq!(
            (sets.entries, sets.hits, sets.misses),
            (5, 1, 5),
            "{sets:?}"
        );
        assert_eq!(
            (rows.entries, rows.hits, rows.misses),
            (1, 0, 3),
            "{rows:?}"
        );

        // A valid edit, then a missing arc: the whole batch is rejected.
        let rejected = [
            GraphUpdate::SetProbability {
                source: 1,
                target: 9,
                probability: 0.9,
            },
            GraphUpdate::DeleteArc {
                source: 0,
                target: 23,
            },
        ];
        assert_eq!(
            cached.apply_updates(&rejected).unwrap_err(),
            UpdateError::ArcNotFound {
                source: 0,
                target: 23
            }
        );
        assert_eq!(cached.update_epoch(), 0);
        assert_eq!(memo(), (sets, rows), "sets, rows and marks are kept");

        // The next query hits the kept sets and 16's row, and 17's mark makes
        // its next miss keep its row.
        assert_eq!(
            cached.similarity(16, 20).unwrap().1,
            bare.similarity(16, 20)
        );
        assert_eq!(
            cached.similarity(17, 21).unwrap().1,
            bare.similarity(17, 21)
        );
        let (sets_after, rows_after) = memo();
        assert_eq!(sets_after.hits, sets.hits + 3, "{sets_after:?}");
        assert_eq!(sets_after.misses, sets.misses + 1, "{sets_after:?}");
        assert_eq!(
            (rows_after.entries, rows_after.hits, rows_after.misses),
            (2, 1, 4),
            "{rows_after:?}"
        );
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
            let rows = cached.with_read(QueryEngine::two_hop_row_stats).unwrap();
            let hits = u64::from(u.min(v) == 17);
            assert_eq!((rows.entries, rows.hits), (1, hits), "({u}, {v}): {rows:?}");
        }
    }

    #[test]
    fn a_frame_runs_on_the_calling_thread_with_one_scratch() {
        // A 64-vertex circulant: every vertex has in-arcs, so every pair
        // samples walks, and a rayon chunk of a few pairs outlives the
        // spawn of the next chunk's thread.
        let mut builder = UncertainGraphBuilder::new(64);
        for s in 0..64u32 {
            let mut targets = vec![(s + 1) % 64, (7 * s + 3) % 64, (13 * s + 5) % 64];
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                builder = builder.arc(s, t, 0.5 + 0.05 * f64::from(s % 8));
            }
        }
        let g = builder.build().unwrap();
        let config = SimRankConfig::default().with_samples(2000).with_seed(11);
        let pairs: Vec<(VertexId, VertexId)> = (0..32).map(|u| (u, u + 20)).collect();
        let candidates: Vec<VertexId> = (32..64).collect();
        let bare = QueryEngine::new(&g, config);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for capacity in [0, 256] {
            let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), capacity);
            // Inside a 4-thread install a rayon batch would check out one
            // scratch per chunk; a frame computed on the calling thread
            // checks out one, whatever the installed thread count.
            pool.install(|| {
                let (_, scores) = cached.batch_similarities(&pairs).unwrap();
                assert_eq!(scores, bare.batch_similarities(&pairs).unwrap());
                let (_, ranked) = cached.top_k(40, &candidates, 5, None).unwrap();
                let want = bare.batch_top_k_similar_to(40, &candidates, 5);
                assert_eq!(ranked, want.unwrap());
            });
            assert_eq!(
                cached.with_read(QueryEngine::pooled_scratches),
                1,
                "capacity {capacity}"
            );
        }
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
        assert!(cached.with_read(QueryEngine::walk_set_stats).is_none());
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
