//! The batch query engine: CSR-backed, thread-sharded, deterministic — and
//! dynamic.
//!
//! The paper's evaluation — and any service built on these estimators —
//! issues *batches* of queries against one graph.  [`QueryEngine`] is the
//! subsystem built for that workload:
//!
//! * the graph is the base of a [`DeltaOverlay`]: walks read its forward
//!   or reverse CSR arrays in place, so no estimator ever materialises a
//!   transposed graph copy, and [`QueryEngine::apply_updates`] mutates the
//!   live graph (arc insertions, deletions, probability changes) without
//!   rebuilding the engine — the overlay compacts itself back into a fresh CSR once churn
//!   crosses its [`CompactionPolicy`] threshold;
//! * every worker draws its scratch (a [`WalkArena`] plus walk buffers) from
//!   a pool owned by the engine, so sampling is allocation-free in steady
//!   state *across* batches; applying updates bumps every pooled arena's
//!   epoch ([`WalkArena::invalidate`]), discarding all memoized arc
//!   instantiations without reallocating a single buffer;
//! * every pair draws its randomness from a **pair-keyed RNG stream**
//!   (seeded from `(config.seed, u, v)`), so the result of a batch is
//!   *bit-identical* to looping [`QueryEngine::profile`] over the pairs
//!   sequentially — **regardless of the number of rayon threads** or how the
//!   batch is sharded across them.  Because overlay reads return the
//!   identical base slices for untouched vertices, this determinism also
//!   survives updates: an engine that applied updates returns bit-identical
//!   scores to a fresh engine built on the mutated graph.
//!
//! Batch entry points validate every vertex id up front and return a typed
//! [`QueryError`] instead of panicking deep inside the CSR arrays — ids
//! arriving from pair files or network requests are input, not invariants.
//!
//! The engine implements the paper's Sampling algorithm (Section VI-B,
//! Fig. 4) per pair; the exact and two-phase algorithms keep their dedicated
//! estimators, which share the same CSR fast path for their sampling phases.

use crate::config::{SamplerKind, SimRankConfig, WalkDirection};
use crate::meeting::MeetingProfile;
use crate::top_k::ScoredVertex;
use crate::SimRankEstimator;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rwalk::arena::{AliasSampler, CsrSampler, WalkArena, DEAD};
use std::fmt;
use ugraph::{
    CompactionPolicy, DeltaOverlay, GraphUpdate, OverlayAliasView, OverlayView, UncertainGraph,
    UpdateError, UpdateSummary, VertexId,
};

/// Derives the deterministic RNG seed of a pair `(u, v)` from the engine
/// seed: a SplitMix64 finalizer over the packed pair, xor-folded with the
/// engine seed.  Stable across runs, platforms and thread counts.
fn pair_seed(seed: u64, u: VertexId, v: VertexId) -> u64 {
    let mut z = (u as u64) << 32 | v as u64;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a batch query was rejected before any walk was sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// A query referenced a vertex id `>= num_vertices`.  Out-of-range ids
    /// in a pairs file used to panic deep inside the CSR offset arrays; the
    /// batch entry points now reject them up front.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices of the engine's graph.
        num_vertices: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "query references vertex {vertex}, but the graph has {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-worker scratch: one arena plus the two walk-position buffers.
/// Checked out of the engine's [`ScratchPool`] for the duration of one query
/// (or one worker's chunk of a batch) and returned afterwards, so buffers
/// are reused across batches, not just within one.
#[derive(Debug, Default)]
struct Scratch {
    arena: WalkArena,
    walk_u: Vec<VertexId>,
    walk_v: Vec<VertexId>,
}

/// A lock-protected free list of [`Scratch`] instances.  Checkout pops (or
/// creates) a scratch; drop of the guard pushes it back.  The lock is taken
/// once per worker chunk, not per pair, so contention is negligible.
#[derive(Default)]
struct ScratchPool {
    free: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    fn checkout(&self) -> PooledScratch<'_> {
        let scratch = self.free.lock().pop().unwrap_or_default();
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }
}

impl fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchPool")
            .field("pooled", &self.free.lock().len())
            .finish()
    }
}

/// RAII checkout of a [`Scratch`] from a [`ScratchPool`].
struct PooledScratch<'p> {
    pool: &'p ScratchPool,
    scratch: Option<Scratch>,
}

impl PooledScratch<'_> {
    fn get_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.free.lock().push(scratch);
        }
    }
}

/// CSR-backed batch SimRank query engine (sampling estimator semantics) over
/// a live, updatable graph.
///
/// Build it once per graph and issue any number of single-pair or batch
/// queries (`&self`, freely shared across threads); apply
/// [`GraphUpdate`] batches through [`QueryEngine::apply_updates`] (`&mut
/// self`) to mutate the graph in place without rebuilding the engine.
///
/// # Example
///
/// ```
/// use ugraph::{GraphUpdate, UncertainGraphBuilder};
/// use usim_core::{QueryEngine, SimRankConfig};
///
/// let g = UncertainGraphBuilder::new(4)
///     .arc(2, 0, 0.9)
///     .arc(2, 1, 0.8)
///     .arc(3, 2, 0.7)
///     .build()
///     .unwrap();
/// let mut engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(200));
/// let batch = engine.batch_similarities(&[(0, 1), (1, 2)]).unwrap();
/// // Batch output is bit-identical to sequential per-pair queries.
/// assert_eq!(batch[0], engine.similarity(0, 1));
/// assert_eq!(batch[1], engine.similarity(1, 2));
///
/// // The graph is live: re-weight an arc and query again, same engine.
/// engine
///     .apply_updates(&[GraphUpdate::SetProbability { source: 2, target: 0, probability: 0.1 }])
///     .unwrap();
/// assert_ne!(engine.similarity(0, 1), batch[0]);
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    graph: DeltaOverlay,
    config: SimRankConfig,
    /// Bumped on every applied update batch; exposed for observability and
    /// used to reason about arena invalidation.
    epoch: u64,
    scratch: ScratchPool,
}

impl QueryEngine {
    /// Builds the engine for a copy of `graph` under `config`; queries
    /// never touch the original again.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        Self::from_csr(graph.clone(), config)
    }

    /// Builds the engine on `graph` itself, without a copy — the snapshot
    /// boot path: no per-edge validation, sorting or CSR rebuild happens
    /// here, so booting from a [`ugraph::snapshot`] is O(read).
    ///
    /// Answers are bit-identical to an engine built with
    /// [`QueryEngine::new`] on the same graph: walks only ever see the CSR
    /// arrays, and the RNG streams are keyed on `(seed, u, v)`, not on how
    /// the arrays came to be in memory.
    ///
    /// Under [`SamplerKind::Alias`] a graph that already carries alias
    /// tables (loaded from a snapshot with the alias sections) boots without
    /// any table construction; one without them gets its tables built here,
    /// so older snapshots keep working.
    pub fn from_csr(graph: UncertainGraph, config: SimRankConfig) -> Self {
        Self::from_overlay(DeltaOverlay::new(graph), config)
    }

    fn from_overlay(mut graph: DeltaOverlay, config: SimRankConfig) -> Self {
        config.validate();
        if config.sampler == SamplerKind::Alias {
            // No-op when the base already carries tables (snapshot boot).
            graph.build_alias_tables();
        }
        QueryEngine {
            graph,
            config,
            epoch: 0,
            scratch: ScratchPool::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// The live graph: CSR base plus pending deltas.
    pub fn graph(&self) -> &DeltaOverlay {
        &self.graph
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of live arcs (base arcs plus inserts minus deletes).
    pub fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// How many update batches this engine has applied.
    pub fn update_epoch(&self) -> u64 {
        self.epoch
    }

    /// Replaces the overlay's compaction policy (takes effect on the next
    /// [`QueryEngine::apply_updates`]).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.graph.set_compaction_policy(policy);
    }

    /// Materialises the live graph as an [`UncertainGraph`] snapshot.
    pub fn snapshot(&self) -> UncertainGraph {
        self.graph.to_graph()
    }

    /// Applies a batch of graph updates atomically: the batch is validated
    /// first and an `Err` leaves the engine untouched.
    ///
    /// On success the live views serve the new adjacency immediately, the
    /// update epoch is bumped, and every pooled worker arena is invalidated
    /// in O(1) ([`WalkArena::invalidate`]) — memoized arc instantiations
    /// recorded against the old graph are unreachable without a single
    /// buffer being reallocated.  When accumulated churn crosses the
    /// overlay's [`CompactionPolicy`] threshold the deltas are folded back
    /// into a fresh CSR base (reported in the returned
    /// [`UpdateSummary::compacted`]).
    ///
    /// Determinism: after any sequence of updates the engine's scores are
    /// bit-identical to those of a fresh engine built on the mutated graph
    /// with the same config.
    ///
    /// # Example
    ///
    /// ```
    /// use ugraph::{GraphUpdate, UncertainGraphBuilder, UpdateError};
    /// use usim_core::{QueryEngine, SimRankConfig};
    ///
    /// let g = UncertainGraphBuilder::new(3)
    ///     .arc(2, 0, 0.9)
    ///     .arc(2, 1, 0.8)
    ///     .build()
    ///     .unwrap();
    /// let mut engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(100));
    /// let summary = engine
    ///     .apply_updates(&[
    ///         GraphUpdate::InsertArc { source: 0, target: 1, probability: 0.5 },
    ///         GraphUpdate::SetProbability { source: 2, target: 0, probability: 0.4 },
    ///     ])
    ///     .unwrap();
    /// assert_eq!((summary.inserted, summary.reweighted), (1, 1));
    /// assert_eq!(engine.update_epoch(), 1);
    ///
    /// // Batches are atomic: one bad update rejects the whole batch and
    /// // leaves the engine untouched.
    /// let err = engine
    ///     .apply_updates(&[
    ///         GraphUpdate::DeleteArc { source: 0, target: 1 },
    ///         GraphUpdate::DeleteArc { source: 1, target: 0 }, // no such arc
    ///     ])
    ///     .unwrap_err();
    /// assert_eq!(err, UpdateError::ArcNotFound { source: 1, target: 0 });
    /// assert_eq!(engine.update_epoch(), 1);
    /// assert_eq!(engine.num_arcs(), 3);
    /// ```
    pub fn apply_updates(&mut self, updates: &[GraphUpdate]) -> Result<UpdateSummary, UpdateError> {
        let summary = self.graph.apply_all(updates)?;
        if summary.compacted {
            usim_obs::walk_metrics().count_compaction();
        }
        self.epoch += 1;
        for scratch in self.scratch.free.get_mut().iter_mut() {
            scratch.arena.invalidate();
        }
        Ok(summary)
    }

    /// The direction-resolved live view walks run on: the reverse
    /// (transpose) view for the SimRank convention of in-neighbor walks, the
    /// forward view for [`WalkDirection::OutNeighbors`].
    #[inline]
    fn view(&self) -> OverlayView<'_> {
        match self.config.direction {
            WalkDirection::InNeighbors => self.graph.reverse(),
            WalkDirection::OutNeighbors => self.graph.forward(),
        }
    }

    /// The direction-resolved alias-table view of the live graph; only
    /// meaningful under [`SamplerKind::Alias`], whose constructors build the
    /// tables up front.
    #[inline]
    fn alias_view(&self) -> OverlayAliasView<'_> {
        match self.config.direction {
            WalkDirection::InNeighbors => self.graph.reverse_alias(),
            WalkDirection::OutNeighbors => self.graph.forward_alias(),
        }
        .expect("alias tables are built at engine construction under SamplerKind::Alias")
    }

    /// Validates every id of a batch against the graph, so the hot path can
    /// index the CSR arrays unchecked.  Public so wrappers that answer part
    /// of a batch from elsewhere (the caching layer) can keep the engine's
    /// reject-the-whole-batch-up-front semantics without computing anything.
    pub fn validate_vertices(
        &self,
        ids: impl IntoIterator<Item = VertexId>,
    ) -> Result<(), QueryError> {
        let num_vertices = self.num_vertices();
        for vertex in ids {
            if (vertex as usize) >= num_vertices {
                return Err(QueryError::VertexOutOfRange {
                    vertex,
                    num_vertices,
                });
            }
        }
        Ok(())
    }

    /// Estimated meeting probabilities `m̂(0), …, m̂(n)` of one pair, using
    /// the pair's own deterministic RNG stream.
    ///
    /// Repeated calls with the same pair return identical profiles (the
    /// stream is keyed on `(seed, u, v)`, not on call order), and a batch
    /// query over pairs containing `(u, v)` returns this exact profile for
    /// that entry.
    ///
    /// # Panics
    ///
    /// Panics when `u` or `v` is out of range; use [`QueryEngine::try_profile`]
    /// for unvalidated input.
    ///
    /// # Example
    ///
    /// ```
    /// use ugraph::UncertainGraphBuilder;
    /// use usim_core::{QueryEngine, SimRankConfig};
    ///
    /// let g = UncertainGraphBuilder::new(3)
    ///     .arc(2, 0, 0.9)
    ///     .arc(2, 1, 0.8)
    ///     .build()
    ///     .unwrap();
    /// let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(500));
    /// let profile = engine.profile(0, 1);
    /// // One meeting probability per step 0..=n, combined under Eq. 12.
    /// assert_eq!(profile.meeting.len(), engine.config().horizon + 1);
    /// assert_eq!(profile.score(), engine.similarity(0, 1));
    /// // Streams are pair-keyed: repeating the call replays the estimate.
    /// assert_eq!(profile, engine.profile(0, 1));
    /// ```
    pub fn profile(&self, u: VertexId, v: VertexId) -> MeetingProfile {
        let mut scratch = self.scratch.checkout();
        self.profile_with(scratch.get_mut(), u, v)
    }

    /// Fallible [`QueryEngine::profile`]: out-of-range ids are a typed
    /// [`QueryError`] instead of a panic.
    pub fn try_profile(&self, u: VertexId, v: VertexId) -> Result<MeetingProfile, QueryError> {
        self.validate_vertices([u, v])?;
        Ok(self.profile(u, v))
    }

    /// Estimated SimRank `s⁽ⁿ⁾(u, v)` (the combination of
    /// [`QueryEngine::profile`] under Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics when `u` or `v` is out of range; use
    /// [`QueryEngine::try_similarity`] for unvalidated input.
    pub fn similarity(&self, u: VertexId, v: VertexId) -> f64 {
        self.profile(u, v).score()
    }

    /// Fallible [`QueryEngine::similarity`]: out-of-range ids are a typed
    /// [`QueryError`] instead of a panic.
    pub fn try_similarity(&self, u: VertexId, v: VertexId) -> Result<f64, QueryError> {
        Ok(self.try_profile(u, v)?.score())
    }

    /// The walk loop shared by every query path.
    fn profile_with(&self, scratch: &mut Scratch, u: VertexId, v: VertexId) -> MeetingProfile {
        let num_vertices = self.num_vertices();
        assert!(
            (u as usize) < num_vertices && (v as usize) < num_vertices,
            "query pair ({u}, {v}) out of range (graph has {num_vertices} vertices)"
        );
        let n = self.config.horizon;
        let num_samples = self.config.num_samples;
        let mut rng = StdRng::seed_from_u64(pair_seed(self.config.seed, u, v));
        let mut meeting = vec![0.0f64; n + 1];
        meeting[0] = if u == v { 1.0 } else { 0.0 };
        // Walk metrics are derived from the positions buffers the samplers
        // already wrote — the tally consumes zero
        // RNG draws and never branches on sampled values, so metered and
        // unmetered calls are bit-identical.  One relaxed load per query
        // when metering is off.
        let metered = usim_obs::walk_metrics().enabled();
        let mut tally = usim_obs::WalkTally::default();
        match self.config.sampler {
            SamplerKind::Legacy => {
                let sampler = CsrSampler::new(self.view());
                for _ in 0..num_samples {
                    sampler.sample_walk_into(
                        &mut scratch.arena,
                        u,
                        n,
                        &mut rng,
                        &mut scratch.walk_u,
                    );
                    sampler.sample_walk_into(
                        &mut scratch.arena,
                        v,
                        n,
                        &mut rng,
                        &mut scratch.walk_v,
                    );
                    if metered {
                        tally_pair_walks(
                            &mut tally,
                            &scratch.walk_u,
                            &scratch.walk_v,
                            &self.view(),
                            self.config.sampler,
                        );
                    }
                    count_meetings(&mut meeting, &scratch.walk_u, &scratch.walk_v);
                }
            }
            SamplerKind::Alias => {
                let sampler = AliasSampler::new(self.alias_view());
                for _ in 0..num_samples {
                    sampler.sample_walk_into(u, n, &mut rng, &mut scratch.walk_u);
                    sampler.sample_walk_into(v, n, &mut rng, &mut scratch.walk_v);
                    if metered {
                        tally_pair_walks(
                            &mut tally,
                            &scratch.walk_u,
                            &scratch.walk_v,
                            &self.view(),
                            self.config.sampler,
                        );
                    }
                    count_meetings(&mut meeting, &scratch.walk_u, &scratch.walk_v);
                }
            }
        }
        if metered {
            usim_obs::walk_metrics().flush(&tally);
        }
        for slot in meeting.iter_mut().skip(1) {
            *slot /= num_samples as f64;
        }
        MeetingProfile::new(meeting, self.config.decay)
    }

    /// Shards `pairs` across rayon workers (one pooled scratch per worker
    /// chunk) and maps `f` over them, in input order.
    fn par_map_pairs<R: Send>(
        &self,
        pairs: &[(VertexId, VertexId)],
        f: impl Fn(&mut Scratch, VertexId, VertexId) -> R + Sync,
    ) -> Vec<R> {
        pairs
            .par_iter()
            .map_init(
                || self.scratch.checkout(),
                |scratch, &(u, v)| f(scratch.get_mut(), u, v),
            )
            .collect()
    }

    /// Computes `f` once per *distinct* pair and scatters the results back
    /// to input order.  A batch with repeated pairs (hot pairs in serving
    /// traffic, symmetric pair files) samples each distinct pair's walks
    /// once instead of once per occurrence; because every pair draws from
    /// its own `(seed, u, v)`-keyed RNG stream, duplicates were bit-equal
    /// anyway, so the output is unchanged — only cheaper.
    fn par_map_distinct<R: Clone + Send>(
        &self,
        pairs: &[(VertexId, VertexId)],
        f: impl Fn(&mut Scratch, VertexId, VertexId) -> R + Sync,
    ) -> Vec<R> {
        let (distinct, slots) = dedup_pairs(pairs);
        if distinct.len() == pairs.len() {
            // No duplicates: skip the scatter pass entirely.
            return self.par_map_pairs(pairs, f);
        }
        let results = self.par_map_pairs(&distinct, f);
        slots
            .into_iter()
            .map(|slot| results[slot].clone())
            .collect()
    }

    /// Meeting profiles for a batch of pairs, sharded across rayon workers
    /// (one pooled [`WalkArena`] per worker), in input order.  Repeated
    /// pairs are sampled once and their profile is replicated (pair-keyed
    /// RNG streams make the copies bit-equal to recomputation).
    ///
    /// Bit-identical to `pairs.iter().map(|&(u, v)| self.profile(u, v))` at
    /// any thread count.  Every id is validated up front: an out-of-range id
    /// anywhere in the batch returns [`QueryError::VertexOutOfRange`] before
    /// any walk is sampled.
    pub fn batch_profile(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<MeetingProfile>, QueryError> {
        self.validate_vertices(pairs.iter().flat_map(|&(u, v)| [u, v]))?;
        Ok(self.par_map_distinct(pairs, |scratch, u, v| self.profile_with(scratch, u, v)))
    }

    /// SimRank scores for a batch of pairs, in input order.  Bit-identical
    /// to sequential [`QueryEngine::similarity`] calls at any thread count;
    /// out-of-range ids are rejected up front like
    /// [`QueryEngine::batch_profile`], and repeated pairs are sampled once
    /// (their scores were bit-equal anyway — see
    /// [`QueryEngine::batch_profile`]).
    ///
    /// # Example
    ///
    /// ```
    /// use ugraph::UncertainGraphBuilder;
    /// use usim_core::{QueryEngine, QueryError, SimRankConfig};
    ///
    /// let g = UncertainGraphBuilder::new(3)
    ///     .arc(2, 0, 0.9)
    ///     .arc(2, 1, 0.8)
    ///     .build()
    ///     .unwrap();
    /// let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(200));
    /// let scores = engine.batch_similarities(&[(0, 1), (1, 2)]).unwrap();
    /// // Sharding is invisible: the batch equals the sequential loop.
    /// assert_eq!(scores[0], engine.similarity(0, 1));
    /// assert_eq!(scores[1], engine.similarity(1, 2));
    ///
    /// // Ids are validated up front — a typed error, not a panic.
    /// assert_eq!(
    ///     engine.batch_similarities(&[(0, 9)]).unwrap_err(),
    ///     QueryError::VertexOutOfRange { vertex: 9, num_vertices: 3 }
    /// );
    /// ```
    pub fn batch_similarities(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<f64>, QueryError> {
        self.validate_vertices(pairs.iter().flat_map(|&(u, v)| [u, v]))?;
        Ok(self.par_map_distinct(pairs, |scratch, u, v| {
            self.profile_with(scratch, u, v).score()
        }))
    }

    /// The `k` candidates most similar to `query` (the query vertex itself
    /// and duplicate candidates are skipped), evaluated as one batch, in
    /// descending score order with ties broken by vertex id.
    ///
    /// `k` semantics are explicit: `k == 0` returns an empty vector without
    /// evaluating anything, and `k` larger than the distinct candidate
    /// count returns all of them, sorted.
    pub fn batch_top_k_similar_to(
        &self,
        query: VertexId,
        candidates: &[VertexId],
        k: usize,
    ) -> Result<Vec<ScoredVertex>, QueryError> {
        self.validate_vertices(std::iter::once(query).chain(candidates.iter().copied()))?;
        let pairs = candidate_pairs(query, candidates, k);
        let scores = self.batch_similarities(&pairs)?;
        Ok(rank(&pairs, &scores, k))
    }
}

/// Folds one sample pair's walks into a [`usim_obs::WalkTally`]: walk and
/// step counts per backend, deaths, meetings, and patched- vs base-row
/// attribution of every sampled transition (the overlay serves the same
/// patched rows to both backends, so one [`OverlayView`] answers for both).
/// Runs only when metering is on; reads the positions buffers the samplers
/// already wrote.
fn tally_pair_walks(
    tally: &mut usim_obs::WalkTally,
    walk_u: &[VertexId],
    walk_v: &[VertexId],
    view: &OverlayView<'_>,
    sampler: SamplerKind,
) {
    tally.walks += 2;
    for walk in [walk_u, walk_v] {
        // A transition was sampled at every position before the first DEAD
        // slot (the dying transition included); a full-horizon walk sampled
        // one per non-final position.
        let first_dead = walk.iter().position(|&p| p == DEAD);
        let steps = first_dead.unwrap_or(walk.len() - 1) as u64;
        match sampler {
            SamplerKind::Legacy => tally.steps_legacy += steps,
            SamplerKind::Alias => tally.steps_alias += steps,
        }
        if first_dead.is_some() {
            tally.deaths += 1;
        }
        for &position in &walk[..steps as usize] {
            if view.is_patched(position) {
                tally.rows_patched += 1;
            } else {
                tally.rows_base += 1;
            }
        }
    }
    for (&a, &b) in walk_u.iter().zip(walk_v.iter()).skip(1) {
        if a != DEAD && a == b {
            tally.meetings += 1;
        }
    }
}

/// Accumulates the per-step meetings of one walk pair into `meeting`
/// (step 0 is handled by the caller; a dead slot never meets).
#[inline]
fn count_meetings(meeting: &mut [f64], walk_u: &[VertexId], walk_v: &[VertexId]) {
    for (k, slot) in meeting.iter_mut().enumerate().skip(1) {
        let a = walk_u[k];
        if a != DEAD && a == walk_v[k] {
            *slot += 1.0;
        }
    }
}

/// Splits `pairs` into the distinct pairs (first-occurrence order) and a
/// per-input slot map into that distinct list, so callers compute each
/// distinct pair once and scatter the results back to input order.
pub(crate) fn dedup_pairs(
    pairs: &[(VertexId, VertexId)],
) -> (Vec<(VertexId, VertexId)>, Vec<usize>) {
    let mut first_index = std::collections::HashMap::with_capacity(pairs.len());
    let mut distinct: Vec<(VertexId, VertexId)> = Vec::with_capacity(pairs.len());
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&pair| {
            *first_index.entry(pair).or_insert_with(|| {
                distinct.push(pair);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

/// The pairs a top-`k` ranking for `query` scores: none when `k == 0`,
/// else `(query, v)` for every distinct candidate `v != query`, in
/// ascending `v` order.
pub(crate) fn candidate_pairs(
    query: VertexId,
    candidates: &[VertexId],
    k: usize,
) -> Vec<(VertexId, VertexId)> {
    if k == 0 {
        return Vec::new();
    }
    let mut unique: Vec<VertexId> = candidates.iter().copied().filter(|&v| v != query).collect();
    unique.sort_unstable();
    unique.dedup();
    unique.into_iter().map(|v| (query, v)).collect()
}

/// The `k` best of [`candidate_pairs`] given their `scores`: descending
/// score, ties broken by vertex id.  Shared by
/// [`QueryEngine::batch_top_k_similar_to`] and the caching layer, so both
/// rank identically.
pub(crate) fn rank(pairs: &[(VertexId, VertexId)], scores: &[f64], k: usize) -> Vec<ScoredVertex> {
    let mut scored: Vec<ScoredVertex> = pairs
        .iter()
        .zip(scores)
        .map(|(&(_, vertex), &score)| ScoredVertex { vertex, score })
        .collect();
    crate::top_k::sort_descending_by_score(&mut scored, |s| s.score, |s| s.vertex as u64);
    scored.truncate(k);
    scored
}

impl SimRankEstimator for QueryEngine {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        QueryEngine::similarity(self, u, v)
    }

    fn name(&self) -> &'static str {
        "QueryEngine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEstimator;
    use rayon::ThreadPoolBuilder;
    use ugraph::UncertainGraphBuilder;

    fn fig1_graph() -> UncertainGraph {
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

    fn all_ordered_pairs(n: u32) -> Vec<(VertexId, VertexId)> {
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    #[test]
    fn batch_equals_sequential_bit_for_bit() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(300).with_seed(7));
        let pairs = all_ordered_pairs(5);
        let batch = engine.batch_similarities(&pairs).unwrap();
        let sequential: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| engine.similarity(u, v))
            .collect();
        assert_eq!(batch, sequential);
        let profiles = engine.batch_profile(&pairs).unwrap();
        for (profile, &(u, v)) in profiles.iter().zip(&pairs) {
            assert_eq!(profile, &engine.profile(u, v));
        }
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(200).with_seed(3));
        let pairs = all_ordered_pairs(5);
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let a = single.install(|| engine.batch_similarities(&pairs).unwrap());
        let b = many.install(|| engine.batch_similarities(&pairs).unwrap());
        assert_eq!(a, b, "pair-keyed RNG streams must make sharding invisible");
    }

    #[test]
    fn estimates_are_close_to_the_exact_baseline() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(4000).with_seed(17);
        let baseline = BaselineEstimator::new(&g, config);
        let engine = QueryEngine::new(&g, config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (3, 4)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = engine.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.03,
                "pair ({u},{v}): exact {exact}, engine {estimate}"
            );
        }
    }

    #[test]
    fn repeated_queries_and_duplicate_batch_entries_are_identical() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(100).with_seed(9));
        assert_eq!(engine.similarity(0, 1), engine.similarity(0, 1));
        let batch = engine
            .batch_similarities(&[(0, 1), (2, 3), (0, 1)])
            .unwrap();
        assert_eq!(batch[0], batch[2]);
    }

    #[test]
    fn duplicate_heavy_batches_dedupe_without_changing_output() {
        // Each distinct pair is sampled once and its result replicated; the
        // output must stay bit-identical to the sequential per-pair loop, in
        // input order, for scores and profiles alike.
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(120).with_seed(31));
        let batch: Vec<(VertexId, VertexId)> = vec![
            (0, 1),
            (1, 0),
            (0, 1),
            (2, 3),
            (0, 1),
            (2, 3),
            (3, 4),
            (0, 1),
        ];
        let scores = engine.batch_similarities(&batch).unwrap();
        let sequential: Vec<f64> = batch
            .iter()
            .map(|&(u, v)| engine.similarity(u, v))
            .collect();
        assert_eq!(scores, sequential);
        let profiles = engine.batch_profile(&batch).unwrap();
        for (profile, &(u, v)) in profiles.iter().zip(&batch) {
            assert_eq!(profile, &engine.profile(u, v));
        }
    }

    #[test]
    fn different_pairs_use_different_streams() {
        // (u, v) and (v, u) are distinct streams; both estimate the same
        // symmetric quantity but need not be bit-equal.
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(2000).with_seed(5));
        let ab = engine.similarity(0, 1);
        let ba = engine.similarity(1, 0);
        assert!((ab - ba).abs() < 0.05, "symmetric in expectation");
        assert_ne!(
            pair_seed(5, 0, 1),
            pair_seed(5, 1, 0),
            "pair seeds are order-sensitive"
        );
    }

    #[test]
    fn seed_changes_the_whole_batch() {
        let g = fig1_graph();
        let pairs = all_ordered_pairs(5);
        let a = QueryEngine::new(&g, SimRankConfig::default().with_samples(50).with_seed(1))
            .batch_similarities(&pairs)
            .unwrap();
        let b = QueryEngine::new(&g, SimRankConfig::default().with_samples(50).with_seed(2))
            .batch_similarities(&pairs)
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn top_k_pairs_dedupes_ranks_and_truncates() {
        let g = fig1_graph();
        let mut engine =
            QueryEngine::new(&g, SimRankConfig::default().with_samples(400).with_seed(11));
        let pairs = vec![(0u32, 1u32), (1, 0), (2, 3), (0, 2), (4, 4), (3, 2)];
        let top = crate::top_k_pairs(&mut engine, pairs, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        for scored in &top {
            assert!([(0, 1), (2, 3), (0, 2)].contains(&scored.pair));
        }
    }

    #[test]
    fn top_k_zero_is_empty_and_large_k_is_clamped() {
        let g = fig1_graph();
        let mut engine =
            QueryEngine::new(&g, SimRankConfig::default().with_samples(50).with_seed(2));
        let pairs = vec![(0u32, 1u32), (1, 0), (2, 3), (4, 4)];
        assert!(crate::top_k_pairs(&mut engine, pairs.clone(), 0).is_empty());
        // k beyond the distinct non-self pairs {(0,1), (2,3)}: clamped.
        let all = crate::top_k_pairs(&mut engine, pairs, 100);
        assert_eq!(all.len(), 2);
        assert!(all[0].score >= all[1].score);
        // Same two semantics for the vertex-ranking variant.
        assert!(engine
            .batch_top_k_similar_to(0, &[1, 2, 0], 0)
            .unwrap()
            .is_empty());
        let ranked = engine.batch_top_k_similar_to(0, &[1, 2, 0, 1], 99).unwrap();
        assert_eq!(ranked.len(), 2, "query vertex and duplicates skipped");
    }

    #[test]
    fn top_k_similar_to_excludes_query_and_sorts() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(400).with_seed(13));
        let candidates: Vec<VertexId> = vec![0, 1, 2, 3, 4, 4, 1];
        let top = engine.batch_top_k_similar_to(1, &candidates, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|s| s.vertex != 1));
        for window in top.windows(2) {
            assert!(window[0].score >= window[1].score);
        }
    }

    #[test]
    fn trait_impl_matches_inherent_method() {
        let g = fig1_graph();
        let mut engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(100));
        let via_inherent = QueryEngine::similarity(&engine, 2, 3);
        let via_trait = SimRankEstimator::similarity(&mut engine, 2, 3);
        assert_eq!(via_inherent, via_trait);
        assert_eq!(engine.name(), "QueryEngine");
        assert_eq!(engine.num_vertices(), 5);
        assert_eq!(engine.num_arcs(), 8);
        assert_eq!(engine.graph().base().num_arcs(), 8);
        assert_eq!(engine.config().num_samples, 100);
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(10));
        assert!(engine.batch_similarities(&[]).unwrap().is_empty());
        assert!(engine.batch_profile(&[]).unwrap().is_empty());
        assert!(engine.batch_top_k_similar_to(0, &[], 5).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default());
        let _ = engine.similarity(0, 99);
    }

    #[test]
    fn out_of_range_batch_ids_are_typed_errors_not_panics() {
        let g = fig1_graph();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(10));
        let expected = QueryError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 5,
        };
        assert_eq!(
            engine.batch_similarities(&[(0, 1), (99, 2)]).unwrap_err(),
            expected
        );
        assert_eq!(engine.batch_profile(&[(99, 0)]).unwrap_err(), expected);
        assert_eq!(
            engine.batch_top_k_similar_to(99, &[0, 1], 2).unwrap_err(),
            expected
        );
        assert_eq!(
            engine.batch_top_k_similar_to(0, &[1, 99], 2).unwrap_err(),
            expected
        );
        assert_eq!(engine.try_similarity(0, 99).unwrap_err(), expected);
        assert!(engine.try_similarity(0, 1).is_ok());
        let message = expected.to_string();
        assert!(message.contains("99") && message.contains('5'), "{message}");
    }

    #[test]
    fn apply_updates_changes_scores_and_matches_a_fresh_engine() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(400).with_seed(19);
        let mut engine = QueryEngine::new(&g, config);
        let pairs = all_ordered_pairs(5);
        let before = engine.batch_similarities(&pairs).unwrap();

        let updates = [
            GraphUpdate::DeleteArc {
                source: 1,
                target: 2,
            },
            GraphUpdate::InsertArc {
                source: 4,
                target: 2,
                probability: 0.9,
            },
            GraphUpdate::SetProbability {
                source: 0,
                target: 2,
                probability: 0.05,
            },
        ];
        let summary = engine.apply_updates(&updates).unwrap();
        assert_eq!(summary.inserted, 1);
        assert_eq!(summary.deleted, 1);
        assert_eq!(summary.reweighted, 1);
        assert_eq!(engine.num_arcs(), 8);
        assert_eq!(engine.update_epoch(), 1);

        let after = engine.batch_similarities(&pairs).unwrap();
        assert_ne!(before, after, "updates must be visible to queries");

        // The dynamic engine must be bit-identical to a fresh engine built
        // on the mutated graph — with and without compaction.
        let fresh = QueryEngine::new(&engine.snapshot(), config);
        assert_eq!(after, fresh.batch_similarities(&pairs).unwrap());
        engine.set_compaction_policy(CompactionPolicy::eager());
        engine.apply_updates(&[]).unwrap();
        assert_eq!(engine.graph().patched_vertices(), 0, "compacted");
        assert_eq!(after, engine.batch_similarities(&pairs).unwrap());
    }

    #[test]
    fn rejected_updates_leave_the_engine_untouched() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(100).with_seed(23);
        let mut engine = QueryEngine::new(&g, config);
        let pairs = all_ordered_pairs(5);
        let before = engine.batch_similarities(&pairs).unwrap();
        let err = engine
            .apply_updates(&[
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 0,
                    probability: 0.5,
                },
                GraphUpdate::DeleteArc {
                    source: 0,
                    target: 4,
                },
            ])
            .unwrap_err();
        assert_eq!(
            err,
            UpdateError::ArcNotFound {
                source: 0,
                target: 4
            }
        );
        assert_eq!(engine.update_epoch(), 0);
        assert_eq!(engine.batch_similarities(&pairs).unwrap(), before);
    }

    #[test]
    fn alias_batch_equals_sequential_bit_for_bit() {
        let g = fig1_graph();
        let engine = QueryEngine::new(
            &g,
            SimRankConfig::default()
                .with_samples(300)
                .with_seed(7)
                .with_sampler(SamplerKind::Alias),
        );
        assert!(engine.graph().base().has_alias_tables());
        let pairs = all_ordered_pairs(5);
        let batch = engine.batch_similarities(&pairs).unwrap();
        let sequential: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| engine.similarity(u, v))
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn alias_batch_results_are_thread_count_invariant() {
        let g = fig1_graph();
        let engine = QueryEngine::new(
            &g,
            SimRankConfig::default()
                .with_samples(200)
                .with_seed(3)
                .with_sampler(SamplerKind::Alias),
        );
        let pairs = all_ordered_pairs(5);
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let a = single.install(|| engine.batch_similarities(&pairs).unwrap());
        let b = many.install(|| engine.batch_similarities(&pairs).unwrap());
        assert_eq!(a, b, "alias mode is pair-keyed too: sharding is invisible");
    }

    #[test]
    fn alias_estimates_match_the_exact_baseline_at_short_horizons() {
        // The alias backend draws every step from the exact expected
        // one-step marginal W(1); for horizons ≤ 2 walk probabilities factor
        // through W(1) and W(2) exactly, so its estimates converge to the
        // same limit as the exact baseline.
        let g = fig1_graph();
        let config = SimRankConfig::default()
            .with_horizon(2)
            .with_samples(4000)
            .with_seed(17)
            .with_sampler(SamplerKind::Alias);
        let baseline = BaselineEstimator::new(&g, config);
        let engine = QueryEngine::new(&g, config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (3, 4)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = engine.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.03,
                "pair ({u},{v}): exact {exact}, alias {estimate}"
            );
        }
    }

    #[test]
    fn alias_and_legacy_are_distinct_backends() {
        // Same seed, same graph: the two sampler kinds consume randomness
        // differently and are not expected to be bit-equal.
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(200).with_seed(7);
        let legacy = QueryEngine::new(&g, config);
        let alias = QueryEngine::new(&g, config.with_sampler(SamplerKind::Alias));
        let pairs = all_ordered_pairs(5);
        assert_ne!(
            legacy.batch_similarities(&pairs).unwrap(),
            alias.batch_similarities(&pairs).unwrap()
        );
    }

    #[test]
    fn alias_updates_match_a_fresh_engine_with_and_without_compaction() {
        // The overlay patches alias rows for update endpoints only; answers
        // must still be bit-identical to a fresh engine that rebuilt every
        // table from scratch — before and after compaction folds the patched
        // rows back into the base tables.
        let g = fig1_graph();
        let config = SimRankConfig::default()
            .with_samples(400)
            .with_seed(19)
            .with_sampler(SamplerKind::Alias);
        let mut engine = QueryEngine::new(&g, config);
        let pairs = all_ordered_pairs(5);
        let before = engine.batch_similarities(&pairs).unwrap();

        let updates = [
            GraphUpdate::DeleteArc {
                source: 1,
                target: 2,
            },
            GraphUpdate::InsertArc {
                source: 4,
                target: 2,
                probability: 0.9,
            },
            GraphUpdate::SetProbability {
                source: 0,
                target: 2,
                probability: 0.05,
            },
        ];
        engine.apply_updates(&updates).unwrap();
        let after = engine.batch_similarities(&pairs).unwrap();
        assert_ne!(before, after, "updates must be visible in alias mode");

        let fresh = QueryEngine::new(&engine.snapshot(), config);
        assert_eq!(after, fresh.batch_similarities(&pairs).unwrap());
        engine.set_compaction_policy(CompactionPolicy::eager());
        engine.apply_updates(&[]).unwrap();
        assert_eq!(engine.graph().patched_vertices(), 0, "compacted");
        assert!(
            engine.graph().base().has_alias_tables(),
            "tables survive compaction"
        );
        assert_eq!(after, engine.batch_similarities(&pairs).unwrap());
    }

    #[test]
    fn certain_update_degenerates_to_the_exact_baseline() {
        // Re-weight every arc to probability 1 via updates; the engine must
        // then agree with the exact baseline on the *certain* graph.
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(4000).with_seed(29);
        let mut engine = QueryEngine::new(&g, config);
        let updates: Vec<GraphUpdate> = g
            .arcs()
            .map(|a| GraphUpdate::SetProbability {
                source: a.source,
                target: a.target,
                probability: 1.0,
            })
            .collect();
        engine.apply_updates(&updates).unwrap();
        let baseline = BaselineEstimator::new(&g.certain(), config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = engine.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.03,
                "pair ({u},{v}): exact {exact}, engine {estimate}"
            );
        }
    }
}
