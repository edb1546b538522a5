//! The serving engine: one reader/writer-locked [`QueryEngine`] with an
//! epoch-validated, bit-identical result cache in front of it.
//!
//! [`QueryEngine`] answers queries through `&self`, but
//! [`QueryEngine::apply_updates`] takes `&mut self`: the overlay patches
//! rows and the pooled arenas are invalidated, so updates must exclude
//! concurrent readers.  [`CachedQueryEngine`] owns the engine behind a
//! reader/writer lock — every query takes the read lock, every update
//! batch the write lock — and pairs it with an optional
//! [`usim_cache::ResultCache`] keyed on `(query kind, ordered vertex pair,
//! config fingerprint)` and tagged with the update epoch each answer was
//! computed under.  The contract is the project's signature invariant,
//! extended to the cache:
//!
//! > **Cached answers are bit-identical to uncached ones**, at any worker
//! > count, before and after arbitrary update rounds.
//!
//! Three properties make that easy to guarantee:
//!
//! * every pair's answer is a pure function of `(graph state, config)` —
//!   the engine's RNG streams are keyed on `(seed, u, v)`, never on call
//!   order — so replaying a stored answer *is* recomputing it;
//! * every lookup and every fill happen under **one read-lock
//!   acquisition**, so the epoch used to validate entries is exactly the
//!   epoch of the graph the misses are computed on — a concurrent
//!   [`CachedQueryEngine::apply_updates`] (write lock) can never interleave
//!   half-way through a batch;
//! * an update bumps the engine epoch, which logically invalidates every
//!   cache entry in O(1): entries from older epochs never hit (counted as
//!   `stale`), so no scan or flush runs inside the write lock.
//!
//! Every query goes through [`CachedQueryEngine::serve_batch_with_trace`];
//! the per-request methods are one-slot calls of it.
//!
//! # Footprint-based survival
//!
//! The epoch bump alone would throw away every entry on every update round,
//! even rounds that cannot have changed the entry's answer.  Each cached
//! answer therefore carries the [`ugraph::VertexFootprint`] of its walks
//! (recorded by [`QueryEngine::batch_similarities_traced`] /
//! [`QueryEngine::profile_traced`] at zero RNG cost), and
//! [`CachedQueryEngine::apply_updates`] runs
//! [`usim_cache::ResultCache::revalidate`] inside the write lock: entries
//! whose footprint is disjoint from the round's touched-vertex set
//! ([`ugraph::footprint::touched_vertices`] — both endpoints of every
//! update) are **re-stamped** to the new epoch and keep hitting; the rest
//! go stale exactly as before.  Safety is one-sided: an answer depends only
//! on the adjacency rows of vertices its walks visited, the footprint is a
//! superset of those, and bloom false positives only kill entries — never
//! let one survive a round that touched it.
//!
//! With the cache disabled (capacity 0) every slot goes straight to the
//! engine's own entry points — which already deduplicate repeated pairs
//! within one batch.

use crate::config::{SamplerKind, SimRankConfig, WalkDirection};
use crate::engine::{QueryEngine, QueryError};
use crate::meeting::MeetingProfile;
use crate::top_k::ScoredVertex;
use parking_lot::RwLock;
use std::ops::Range;
use ugraph::{GraphUpdate, UpdateError, UpdateSummary, VertexId};
use usim_cache::{CacheStats, ConfigFingerprint, PairKey, ResultCache};
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
    assert_send_sync::<SimRankConfig>();
    assert_send_sync::<QueryError>();
};

/// The concrete cache type the engine integration uses: pair keys to
/// cached answers.
pub type QueryCache = ResultCache<PairKey, CachedAnswer>;

/// A memoised answer: the score of a pair or its full meeting profile
/// (distinguished by the key's [`usim_cache::QueryKind`], mirrored here so
/// a corrupted pairing degrades to a recompute, never a wrong answer).
#[derive(Debug, Clone)]
pub enum CachedAnswer {
    /// A single SimRank score.
    Score(f64),
    /// A per-step meeting-probability profile.
    Profile(MeetingProfile),
}

/// One logical query inside an engine batch — the unit a request
/// coalescer collects from concurrent connections and hands to
/// [`CachedQueryEngine::serve_batch_with_trace`] as one slot.
///
/// The variants mirror the server's query request types (`similarity`,
/// `profile`, `top_k`, `batch`); updates and metadata requests are never
/// batched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoalescedQuery {
    /// One pair score — [`CachedQueryEngine::similarity`].
    Similarity(VertexId, VertexId),
    /// One pair meeting-probability profile (see [`QueryEngine::profile`]).
    Profile(VertexId, VertexId),
    /// Ranked candidates for one query vertex —
    /// [`CachedQueryEngine::batch_top_k_similar_to`].
    TopK {
        /// The query vertex.
        query: VertexId,
        /// The candidate vertices to rank.
        candidates: Vec<VertexId>,
        /// How many ranked results to keep.
        k: usize,
    },
    /// Scores of a pair batch in input order —
    /// [`CachedQueryEngine::batch_similarities`].
    Scores(Vec<(VertexId, VertexId)>),
}

/// The answer to one [`CoalescedQuery`] slot, carrying exactly what the
/// matching [`QueryEngine`] entry point would have returned.
#[derive(Debug, Clone, PartialEq)]
pub enum CoalescedAnswer {
    /// Answer to [`CoalescedQuery::Similarity`].
    Similarity(f64),
    /// Answer to [`CoalescedQuery::Profile`].
    Profile(MeetingProfile),
    /// Answer to [`CoalescedQuery::TopK`].
    TopK(Vec<ScoredVertex>),
    /// Answer to [`CoalescedQuery::Scores`].
    Scores(Vec<f64>),
}

/// Fingerprints a [`SimRankConfig`] for cache keys: every field that can
/// change an answer (decay, horizon, samples, phase switch, seed,
/// direction, sampler backend) contributes its bit pattern.
///
/// The config is *destructured* rather than read field-by-field, so adding
/// a field to [`SimRankConfig`] without deciding how it feeds the
/// fingerprint is a compile error, not a silent cache-collision bug.
pub fn config_fingerprint(config: &SimRankConfig) -> ConfigFingerprint {
    let SimRankConfig {
        decay,
        horizon,
        num_samples,
        phase_switch,
        seed,
        direction,
        sampler,
    } = *config;
    ConfigFingerprint::from_words(&[
        decay.to_bits(),
        horizon as u64,
        num_samples as u64,
        phase_switch as u64,
        seed,
        match direction {
            WalkDirection::InNeighbors => 0,
            WalkDirection::OutNeighbors => 1,
        },
        match sampler {
            SamplerKind::Legacy => 0,
            SamplerKind::Alias => 1,
        },
    ])
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
    cache: Option<QueryCache>,
    fingerprint: ConfigFingerprint,
}

impl CachedQueryEngine {
    /// Takes ownership of `engine` behind a reader/writer lock, with a
    /// result cache bounded to `capacity` entries in front of it;
    /// `capacity == 0` disables caching entirely (no map is allocated).
    pub fn new(engine: QueryEngine, capacity: usize) -> Self {
        let fingerprint = config_fingerprint(engine.config());
        CachedQueryEngine {
            engine: RwLock::new(engine),
            cache: (capacity > 0).then(|| QueryCache::new(capacity)),
            fingerprint,
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
        self.cache.as_ref().map_or(0, |c| c.capacity())
    }

    /// Snapshot of the cache counters, or `None` when caching is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// `(epoch, score)` of one pair (see [`QueryEngine::try_similarity`]).
    pub fn similarity(&self, u: VertexId, v: VertexId) -> Result<(u64, f64), QueryError> {
        match self.serve_one(CoalescedQuery::Similarity(u, v))? {
            (epoch, CoalescedAnswer::Similarity(score)) => Ok((epoch, score)),
            _ => unreachable!("a similarity slot answers with a score"),
        }
    }

    /// `(epoch, scores)` of a batch in input order (see
    /// [`QueryEngine::batch_similarities`]).  Cached pairs are served from
    /// the cache, the misses are computed as one engine batch (each
    /// distinct pair sampled once) and inserted for the next ask.
    pub fn batch_similarities(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<(u64, Vec<f64>), QueryError> {
        match self.serve_one(CoalescedQuery::Scores(pairs.to_vec()))? {
            (epoch, CoalescedAnswer::Scores(scores)) => Ok((epoch, scores)),
            _ => unreachable!("a scores slot answers with scores"),
        }
    }

    /// `(epoch, ranked candidates)` (see
    /// [`QueryEngine::batch_top_k_similar_to`]); the per-pair scores behind
    /// the ranking go through the cache.
    pub fn batch_top_k_similar_to(
        &self,
        query: VertexId,
        candidates: &[VertexId],
        k: usize,
    ) -> Result<(u64, Vec<ScoredVertex>), QueryError> {
        let slot = CoalescedQuery::TopK {
            query,
            candidates: candidates.to_vec(),
            k,
        };
        match self.serve_one(slot)? {
            (epoch, CoalescedAnswer::TopK(ranked)) => Ok((epoch, ranked)),
            _ => unreachable!("a top-k slot answers with a ranking"),
        }
    }

    /// One slot through [`CachedQueryEngine::serve_batch_with_trace`].
    fn serve_one(&self, query: CoalescedQuery) -> Result<(u64, CoalescedAnswer), QueryError> {
        let (epoch, answers) = self.serve_batch_with_trace(std::slice::from_ref(&query), None);
        let answer = answers.into_iter().next().expect("one answer per slot")?;
        Ok((epoch, answer))
    }

    /// Answers a batch of heterogeneous queries — the one entry point the
    /// server answers every query frame through, coalesced or not.  Every
    /// slot is served under **one** read-lock acquisition, so all answers
    /// share one epoch, and all the pair scores the batch needs (similarity
    /// pairs, `batch` pairs, and each top-k's candidate pairs) are gathered
    /// into **one** cached engine batch, which dedups repeated pairs across
    /// slots — concurrent clients asking overlapping questions pay for each
    /// distinct pair once.
    ///
    /// Answers are bit-identical to calling the matching [`QueryEngine`]
    /// entry points one at a time: the scores come off the same pair-keyed
    /// RNG streams regardless of batch shape, and ranking goes through the
    /// same `rank_candidates` helper.
    /// Validation stays per-slot — an invalid query turns into its own
    /// `Err` and never poisons the rest of the batch.
    ///
    /// With a trace attached, cache probes count toward `cache_lookup`,
    /// walks toward `walk_sample`, and top-k ranking toward `merge`.
    pub fn serve_batch_with_trace(
        &self,
        queries: &[CoalescedQuery],
        trace: Option<&StageTrace>,
    ) -> (u64, Vec<Result<CoalescedAnswer, QueryError>>) {
        self.with_read(|e| {
            let epoch = e.update_epoch();
            // Pass 1: validate each slot (same id order as the per-request
            // entry points, so error values match exactly) and lay out the
            // pair scores it needs as one contiguous range of `wanted`.
            let mut wanted: Vec<(VertexId, VertexId)> = Vec::new();
            let ranges: Vec<Result<Range<usize>, QueryError>> = queries
                .iter()
                .map(|query| {
                    let start = wanted.len();
                    match query {
                        CoalescedQuery::Similarity(u, v) => {
                            e.validate_vertices([*u, *v])?;
                            wanted.push((*u, *v));
                        }
                        CoalescedQuery::Profile(u, v) => e.validate_vertices([*u, *v])?,
                        CoalescedQuery::TopK {
                            query,
                            candidates,
                            k,
                        } => {
                            e.validate_vertices(
                                std::iter::once(*query).chain(candidates.iter().copied()),
                            )?;
                            // Exactly the pairs `rank_candidates` asks for
                            // (none when k == 0: it returns before scoring).
                            if *k > 0 {
                                wanted.extend(crate::engine::candidate_pairs(*query, candidates));
                            }
                        }
                        CoalescedQuery::Scores(pairs) => {
                            e.validate_vertices(pairs.iter().flat_map(|&(u, v)| [u, v]))?;
                            wanted.extend_from_slice(pairs);
                        }
                    }
                    Ok(start..wanted.len())
                })
                .collect();

            // One cached engine batch for every slot.  Validation above
            // excluded every out-of-range id, so this cannot fail; if it
            // somehow does, every valid slot reports it.
            let scores = self.scores_for(e, epoch, &wanted, trace);

            // Pass 2: assemble per-slot answers from the slot's range.
            let answers = queries
                .iter()
                .zip(ranges)
                .map(|(query, range)| {
                    let range = range?;
                    let scores = &scores.as_ref().map_err(|error| *error)?[range.clone()];
                    match query {
                        CoalescedQuery::Similarity(..) => {
                            Ok(CoalescedAnswer::Similarity(scores[0]))
                        }
                        CoalescedQuery::Profile(u, v) => Ok(CoalescedAnswer::Profile(
                            self.profile_at(e, epoch, *u, *v, trace),
                        )),
                        CoalescedQuery::TopK {
                            query,
                            candidates,
                            k,
                        } => time_stage(trace, Stage::Merge, || {
                            crate::engine::rank_candidates(*query, candidates, *k, |pairs| {
                                debug_assert_eq!(pairs, &wanted[range]);
                                Ok(scores.to_vec())
                            })
                        })
                        .map(CoalescedAnswer::TopK),
                        CoalescedQuery::Scores(_) => Ok(CoalescedAnswer::Scores(scores.to_vec())),
                    }
                })
                .collect();
            (epoch, answers)
        })
    }

    /// Applies an update batch and returns `(summary, new epoch)` captured
    /// under one write-lock acquisition, while no query is in flight (see
    /// [`QueryEngine::apply_updates`]; a rejected batch leaves the engine
    /// untouched).  The epoch bump invalidates every cached entry by
    /// default; immediately after it (still inside the write lock, so no
    /// reader can race the sweep) the cache is revalidated against the
    /// round's touched-vertex set — entries whose walk footprint is
    /// disjoint from every updated endpoint are re-stamped to the new epoch
    /// and keep serving hits.
    pub fn apply_updates(
        &self,
        updates: &[GraphUpdate],
    ) -> Result<(UpdateSummary, u64), UpdateError> {
        let mut e = self.engine.write();
        let from_epoch = e.update_epoch();
        let summary = e.apply_updates(updates)?;
        let to_epoch = e.update_epoch();
        if let Some(cache) = &self.cache {
            let touched = ugraph::footprint::touched_vertices(updates);
            cache.revalidate(&touched, from_epoch, to_epoch);
        }
        Ok((summary, to_epoch))
    }

    /// The profile of one validated pair at `epoch`, served from the cache
    /// when present and inserted on a miss (the caller holds the read lock).
    fn profile_at(
        &self,
        e: &QueryEngine,
        epoch: u64,
        u: VertexId,
        v: VertexId,
        trace: Option<&StageTrace>,
    ) -> MeetingProfile {
        let Some(cache) = &self.cache else {
            return time_stage(trace, Stage::WalkSample, || e.profile(u, v));
        };
        let key = PairKey::profile(u, v, self.fingerprint);
        let hit = time_stage(trace, Stage::CacheLookup, || cache.get(&key, epoch));
        if let Some(CachedAnswer::Profile(profile)) = hit {
            return profile;
        }
        let (profile, footprint) = time_stage(trace, Stage::WalkSample, || e.profile_traced(u, v));
        cache.insert_with_footprint(
            key,
            CachedAnswer::Profile(profile.clone()),
            epoch,
            footprint,
        );
        profile
    }

    /// Scores for `pairs` in input order at `epoch`, serving hits from the
    /// cache and computing the misses as one engine batch under the read
    /// lock already held by the caller (so `epoch` cannot move while the
    /// misses are computed or inserted).  Ids must already be validated:
    /// cached entries were validated when first computed, and vertex count
    /// never changes, so partial cache service cannot mask a bad id.
    fn scores_for(
        &self,
        e: &QueryEngine,
        epoch: u64,
        pairs: &[(VertexId, VertexId)],
        trace: Option<&StageTrace>,
    ) -> Result<Vec<f64>, QueryError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let Some(cache) = &self.cache else {
            return time_stage(trace, Stage::WalkSample, || e.batch_similarities(pairs));
        };
        let mut scores = vec![0.0f64; pairs.len()];
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut misses: Vec<(VertexId, VertexId)> = Vec::new();
        time_stage(trace, Stage::CacheLookup, || {
            for (slot, &(u, v)) in pairs.iter().enumerate() {
                match cache.get(&PairKey::score(u, v, self.fingerprint), epoch) {
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
            let (distinct, distinct_of) = crate::engine::dedup_pairs(&misses);
            let computed = time_stage(trace, Stage::WalkSample, || {
                e.batch_similarities_traced(&distinct)
            })?;
            for (&slot, &index) in miss_slots.iter().zip(distinct_of.iter()) {
                scores[slot] = computed[index].0;
            }
            for (&(u, v), &(score, footprint)) in distinct.iter().zip(computed.iter()) {
                cache.insert_with_footprint(
                    PairKey::score(u, v, self.fingerprint),
                    CachedAnswer::Score(score),
                    epoch,
                    footprint,
                );
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `(epoch, profile)` of one pair through a one-slot served batch.
    fn profile(
        cached: &CachedQueryEngine,
        u: VertexId,
        v: VertexId,
    ) -> Result<(u64, MeetingProfile), QueryError> {
        let (epoch, answers) =
            cached.serve_batch_with_trace(&[CoalescedQuery::Profile(u, v)], None);
        match answers.into_iter().next().unwrap()? {
            CoalescedAnswer::Profile(profile) => Ok((epoch, profile)),
            other => panic!("a profile slot answered {other:?}"),
        }
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
            let (_, profile) = profile(&cached, 2, 3).unwrap();
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
    fn disabled_cache_is_a_pass_through() {
        let (cached, reference) = engines(0);
        assert!(!cached.cache_enabled());
        assert_eq!(cached.cache_capacity(), 0);
        assert!(cached.cache_stats().is_none());
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
    /// Walks can never cross, so footprints and touched sets are disjoint.
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
    fn entries_survive_updates_disjoint_from_their_footprint() {
        let g = two_component_graph();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 256);
        let pairs: Vec<(VertexId, VertexId)> = vec![(0, 1), (0, 2), (1, 2)];
        let (_, before) = cached.batch_similarities(&pairs).unwrap();

        // The round only touches component B: every component-A entry's
        // footprint is disjoint from {3, 5} and must survive.
        let updates = [GraphUpdate::SetProbability {
            source: 5,
            target: 3,
            probability: 0.2,
        }];
        let (_, epoch) = cached.apply_updates(&updates).unwrap();
        assert_eq!(epoch, 1);
        let stats = cached.cache_stats().unwrap();
        assert_eq!(
            (stats.survived, stats.killed),
            (pairs.len() as u64, 0),
            "disjoint round must re-stamp everything: {stats:?}"
        );

        // The repeat ask is served entirely from the cache…
        let misses_before = stats.misses;
        let (epoch, after) = cached.batch_similarities(&pairs).unwrap();
        assert_eq!(epoch, 1);
        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.misses, misses_before, "no recompute after survival");
        assert_eq!(after, before, "component A is untouched by the update");

        // …and the survivors are bit-identical to a fresh engine built on
        // the updated graph (the ground truth for "survival was sound").
        let mut reference = QueryEngine::new(&g, config);
        reference.apply_updates(&updates).unwrap();
        assert_eq!(after, reference.batch_similarities(&pairs).unwrap());
    }

    #[test]
    fn entries_touching_the_updated_region_still_die() {
        let g = two_component_graph();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 256);
        cached.batch_similarities(&[(0, 1), (3, 4)]).unwrap();

        // Touches component A (vertex 0 is in (0, 1)'s footprint — both
        // walks start there or reach it); (3, 4) lives in B and survives.
        let updates = [GraphUpdate::SetProbability {
            source: 1,
            target: 0,
            probability: 0.2,
        }];
        cached.apply_updates(&updates).unwrap();
        let stats = cached.cache_stats().unwrap();
        assert_eq!(
            (stats.survived, stats.killed),
            (1, 1),
            "A-side entry dies, B-side survives: {stats:?}"
        );

        // The dead pair recomputes against the live graph.
        let mut reference = QueryEngine::new(&g, config);
        reference.apply_updates(&updates).unwrap();
        let (_, scores) = cached.batch_similarities(&[(0, 1), (3, 4)]).unwrap();
        assert_eq!(
            scores,
            reference.batch_similarities(&[(0, 1), (3, 4)]).unwrap()
        );
    }

    #[test]
    fn profile_entries_survive_disjoint_rounds_too() {
        let g = two_component_graph();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 256);
        let (_, before) = profile(&cached, 0, 1).unwrap();
        cached
            .apply_updates(&[GraphUpdate::InsertArc {
                source: 4,
                target: 3,
                probability: 0.5,
            }])
            .unwrap();
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.survived, stats.killed), (1, 0), "{stats:?}");
        let hits_before = stats.hits;
        let (epoch, after) = profile(&cached, 0, 1).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(after, before);
        assert_eq!(cached.cache_stats().unwrap().hits, hits_before + 1);
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
        assert_eq!(profile(&cached, 99, 0).unwrap_err(), expected);
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

    /// The served batch against a plain [`QueryEngine`] on the same graph
    /// and config, one entry point per slot — not against the wrapper's own
    /// per-request methods, which are one-slot calls of the same path.
    fn assert_serve_batch_matches_per_request_calls(
        cached: &CachedQueryEngine,
        reference: &QueryEngine,
    ) {
        let candidates: Vec<VertexId> = (0..5).collect();
        let queries = vec![
            CoalescedQuery::Similarity(1, 3),
            CoalescedQuery::Scores(all_pairs()),
            CoalescedQuery::Profile(2, 4),
            CoalescedQuery::TopK {
                query: 0,
                candidates: candidates.clone(),
                k: 3,
            },
            // Duplicates across slots: the shared engine batch dedups them.
            CoalescedQuery::Similarity(1, 3),
            CoalescedQuery::Scores(vec![(1, 3), (3, 1), (0, 0)]),
            CoalescedQuery::TopK {
                query: 0,
                candidates,
                k: 0,
            },
        ];
        let (epoch, answers) = cached.serve_batch_with_trace(&queries, None);
        assert_eq!(epoch, reference.update_epoch());
        assert_eq!(answers.len(), queries.len());
        for (query, answer) in queries.iter().zip(&answers) {
            let expected = match query {
                CoalescedQuery::Similarity(u, v) => {
                    CoalescedAnswer::Similarity(reference.similarity(*u, *v))
                }
                CoalescedQuery::Profile(u, v) => {
                    CoalescedAnswer::Profile(reference.profile(*u, *v))
                }
                CoalescedQuery::TopK {
                    query,
                    candidates,
                    k,
                } => CoalescedAnswer::TopK(
                    reference
                        .batch_top_k_similar_to(*query, candidates, *k)
                        .unwrap(),
                ),
                CoalescedQuery::Scores(pairs) => {
                    CoalescedAnswer::Scores(reference.batch_similarities(pairs).unwrap())
                }
            };
            assert_eq!(answer.as_ref().unwrap(), &expected, "{query:?}");
        }
    }

    #[test]
    fn serve_batch_is_bit_identical_to_per_request_calls() {
        for capacity in [0, 256] {
            let (cached, reference) = engines(capacity);
            // Twice with the cache on: the second batch is served from it.
            assert_serve_batch_matches_per_request_calls(&cached, &reference);
            assert_serve_batch_matches_per_request_calls(&cached, &reference);
        }
    }

    #[test]
    fn serve_batch_isolates_invalid_slots_and_tracks_the_epoch() {
        let (cached, mut reference) = engines(64);
        let queries = vec![
            CoalescedQuery::Similarity(0, 99), // invalid
            CoalescedQuery::Similarity(0, 1),
            CoalescedQuery::Scores(vec![(1, 2), (99, 0)]), // invalid
            CoalescedQuery::TopK {
                query: 99, // invalid
                candidates: vec![0, 1],
                k: 2,
            },
            CoalescedQuery::Profile(2, 3),
        ];
        let (epoch, answers) = cached.serve_batch_with_trace(&queries, None);
        assert_eq!(epoch, 0);
        let expected_err = QueryError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 5,
        };
        assert_eq!(answers[0], Err(expected_err));
        assert_eq!(
            answers[1],
            Ok(CoalescedAnswer::Similarity(reference.similarity(0, 1)))
        );
        assert_eq!(answers[2], Err(expected_err));
        assert_eq!(answers[3], Err(expected_err));
        assert_eq!(
            answers[4],
            Ok(CoalescedAnswer::Profile(reference.profile(2, 3)))
        );

        // After an update round, serve_batch reports the new epoch and the
        // post-update scores.
        let updates = [GraphUpdate::SetProbability {
            source: 0,
            target: 2,
            probability: 0.05,
        }];
        cached.apply_updates(&updates).unwrap();
        reference.apply_updates(&updates).unwrap();
        let (epoch, answers) =
            cached.serve_batch_with_trace(&[CoalescedQuery::Similarity(0, 1)], None);
        assert_eq!(epoch, 1);
        assert_eq!(
            answers[0],
            Ok(CoalescedAnswer::Similarity(reference.similarity(0, 1)))
        );

        let (epoch, answers) = cached.serve_batch_with_trace(&[], None);
        assert_eq!((epoch, answers.len()), (1, 0));
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
                    let slot = [CoalescedQuery::Scores(pairs.clone())];
                    std::thread::spawn(move || {
                        (0..20)
                            .map(|_| {
                                let (epoch, mut answers) =
                                    cached.serve_batch_with_trace(&slot, None);
                                (epoch, answers.pop().unwrap().unwrap())
                            })
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
                        answer,
                        CoalescedAnswer::Scores(reference[epoch as usize].clone()),
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
        assert!(profile(&cached, 99, 0).is_err());
    }

    #[test]
    fn fingerprint_separates_configs() {
        let base = SimRankConfig::default();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
        for other in [
            base.with_decay(0.7),
            base.with_horizon(6),
            base.with_samples(999),
            base.with_phase_switch(2),
            base.with_seed(123),
            base.with_direction(WalkDirection::OutNeighbors),
            base.with_sampler(SamplerKind::Alias),
        ] {
            assert_ne!(
                config_fingerprint(&base),
                config_fingerprint(&other),
                "{other:?} must fingerprint differently"
            );
        }
    }

    #[test]
    fn every_config_field_feeds_the_fingerprint() {
        // Exhaustiveness guard: destructure the config with no `..` rest
        // pattern.  Adding a field to `SimRankConfig` breaks this test (and
        // `config_fingerprint` itself, which destructures the same way) at
        // compile time, forcing the author to decide how the new field
        // contributes to cache keys.
        let SimRankConfig {
            decay,
            horizon,
            num_samples,
            phase_switch,
            seed,
            direction,
            sampler,
        } = SimRankConfig::default();
        assert_eq!(decay, 0.6);
        assert_eq!(horizon, 5);
        assert_eq!(num_samples, 1000);
        assert_eq!(phase_switch, 1);
        assert_eq!(seed, 0x5eed_cafe);
        assert_eq!(direction, WalkDirection::InNeighbors);
        assert_eq!(sampler, SamplerKind::Legacy);
    }
}
