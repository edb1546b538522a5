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
//! * every walk set draws its randomness from a **vertex-keyed RNG stream**
//!   (seeded from `(config.seed, w)` for the set of vertex `w`), so a pair's
//!   answer is a pure function of its two vertices: `s(u, v)` and `s(v, u)`
//!   are bit-identical, and the result of a batch is *bit-identical* to
//!   looping [`QueryEngine::profile`] over the pairs sequentially —
//!   **regardless of the number of rayon threads**, how the batch is
//!   sharded across them, or which other pairs share it.  A self-pair
//!   `(u, u)` scores `u`'s set against a second, independent *twin* set
//!   drawn from a `(config.seed, u, twin)` stream.  Because overlay reads
//!   return the identical base slices for untouched vertices, this
//!   determinism also survives updates: an engine that applied updates
//!   returns bit-identical scores to a fresh engine built on the mutated
//!   graph.
//!
//! Batch entry points validate every vertex id up front and return a typed
//! [`QueryError`] instead of panicking deep inside the CSR arrays — ids
//! arriving from pair files or network requests are input, not invariants.
//!
//! Per pair, the engine serves the paper's two-phase SR-TS with `l = 2`
//! (Section VI-C): `m(1)` and `m(2)` are exact, computed from the cached
//! one-step marginals of the live rows with zero RNG draws, and `m(k)` for
//! `k ≥ 3` is estimated from **every** pair of sampled walks,
//! `Σ_w cᵤᵏ(w)·cᵥᵏ(w) / N²`, rather than Eq. 13's `N` index-matched pairs.
//! All three cut the variance, so the default `N` is 100 where Eq. 13 needs
//! the paper's 1000 for a larger error.  `m(2)` is exact because a two-step
//! walk leaves its start only once (Lemma 3: `W(2) = W(1)²`), which a
//! self-loop at the start breaks: a pair with a self-loop endpoint keeps the
//! sampled `m̂(2)`.  The engine takes `l = 2` whatever
//! [`SimRankConfig::phase_switch`] says; the paper's estimators
//! (`SamplingEstimator`, `TwoPhaseEstimator`, `SpeedupEstimator`) keep
//! Eq. 13 and honour it.
//!
//! A bare engine keeps no walks and no two-hop rows across calls.  An
//! engine handed to [`crate::CachedQueryEngine::new`] with a capacity above
//! 0 (`usim serve --cache-capacity`) owns a walk-set memo ([`crate::memo`]):
//! each vertex's walk set and two-hop row `Pr(a →₂ w)` at the current
//! epoch, which every query path reads instead of sampling the set or
//! scattering the row's two-hop arcs, with the same answer bits, and which
//! [`QueryEngine::apply_updates`] clears.

use crate::config::{SamplerKind, SimRankConfig, WalkDirection};
use crate::meeting::MeetingProfile;
use crate::memo::{MemoStats, RowLookup, WalkSetMemo};
use crate::top_k::ScoredVertex;
use crate::SimRankEstimator;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rwalk::arena::{alias_walk, WalkArena, DEAD};
use std::fmt;
use std::sync::Arc;
use ugraph::{
    CompactionPolicy, DeltaOverlay, GraphUpdate, OverlayView, UncertainGraph, UpdateError,
    UpdateSummary, VertexId,
};

/// The RNG stream one walk set is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// The vertex's own walks, shared by every pair that names it.
    Vertex(VertexId),
    /// A second, independent set from the same start, scored against the
    /// vertex's own set for the self-pair `(u, u)`.
    Twin(VertexId),
}

impl Stream {
    /// The vertex the set's walks start from.
    fn start(self) -> VertexId {
        match self {
            Stream::Vertex(w) | Stream::Twin(w) => w,
        }
    }

    /// The deterministic RNG seed of the stream: a SplitMix64 finalizer
    /// over the packed `(vertex, tag)` (tag 0 for the vertex's own set, 1
    /// for its twin), offset by the engine seed.  Stable across runs,
    /// platforms and thread counts.
    fn seed(self, seed: u64) -> u64 {
        let tag = match self {
            Stream::Vertex(_) => 0,
            Stream::Twin(_) => 1,
        };
        let mut z = u64::from(self.start()) << 32 | tag;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One vertex's `N` sampled walks as the all-pairs estimate reads them: for
/// every step `k` in `2..=n`, the positions of the live walks after `k`
/// steps, sorted (dead walks meet nothing and are dropped).  Step 2 is read
/// only by pairs with a self-loop endpoint, whose `m(2)` stays sampled.
///
/// A set depends only on `(seed, vertex, graph, config)`, so any number of
/// pairs can share it: the engine's memo keeps it per vertex for the
/// current update epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WalkSet {
    /// Step `k`'s sorted positions are `positions[bounds[k - 2]..bounds[k - 1]]`.
    positions: Vec<VertexId>,
    /// Run boundaries in `positions`: `0`, then the end of each step's run.
    bounds: Vec<u32>,
}

impl WalkSet {
    /// Rebuilds the set from `N` raw walks, walk-major with `stride`
    /// (`n + 1`) positions per walk.  A fresh set's buffers are allocated
    /// at their exact final lengths, so a set the memo takes holds no spare
    /// capacity.
    fn fill(&mut self, walks: &[VertexId], stride: usize) {
        let live = |k: usize| walks.iter().skip(k).step_by(stride).filter(|&&w| w != DEAD);
        self.positions.clear();
        self.positions
            .reserve_exact((2..stride).map(|k| live(k).count()).sum());
        self.bounds.clear();
        self.bounds.reserve_exact(stride - 1);
        self.bounds.push(0);
        for k in 2..stride {
            let start = self.positions.len();
            self.positions.extend(live(k));
            self.positions[start..].sort_unstable();
            let end = u32::try_from(self.positions.len())
                .expect("a walk set holds fewer than 2^32 positions");
            self.bounds.push(end);
        }
    }

    /// The sorted live positions after `k` steps, `2 ≤ k ≤ n`.
    fn step(&self, k: usize) -> &[VertexId] {
        &self.positions[self.bounds[k - 2] as usize..self.bounds[k - 1] as usize]
    }

    /// Bytes the set holds: its own fields plus their heap capacity.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positions.capacity() * std::mem::size_of::<VertexId>()
            + self.bounds.capacity() * std::mem::size_of::<u32>()
    }
}

/// One vertex `a`'s two-hop row `T_a[w] = Σₓ W1(a, x)·W1(x, w)` exactly as
/// [`exact_step_two`]'s scatter leaves it in its table: the written `w` in
/// first-touch order (a `w` whose sum is `+0.0` may appear twice) and each
/// one's final sum.  Filling a table from it writes the bits the scatter
/// would have summed.
#[derive(Debug)]
pub(crate) struct TwoHopRow {
    pub(crate) targets: Vec<VertexId>,
    pub(crate) sums: Vec<f64>,
}

impl TwoHopRow {
    /// Bytes the row holds: its own fields plus their heap capacity.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
            + self.sums.capacity() * std::mem::size_of::<f64>()
    }
}

/// The walk pairs (one walk from each list) that sit at the same vertex:
/// `Σ_w c_a(w)·c_b(w)` over two sorted position lists, by a merge-join that
/// multiplies the lengths of equal runs.  Symmetric in its arguments.
fn count_meetings(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut met) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let w = a[i];
                let (i0, j0) = (i, j);
                while i < a.len() && a[i] == w {
                    i += 1;
                }
                while j < b.len() && b[j] == w {
                    j += 1;
                }
                met += ((i - i0) * (j - j0)) as u64;
            }
        }
    }
    met
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

/// Per-worker scratch: one arena, the walks being sampled, the pair's two
/// walk sets and exact `m(2)`'s dense two-hop table (8 B per vertex plus
/// the scatter's list of written slots).  Checked out of the engine's
/// [`ScratchPool`] for the duration of one query (or one worker's chunk of
/// a batch) and returned afterwards, so buffers are reused across batches,
/// not just within one.
#[derive(Debug, Default)]
struct Scratch {
    sampler: SetSampler,
    /// The pair's two walk sets, when they are sampled here rather than
    /// read from a memo.
    set_u: WalkSet,
    set_v: WalkSet,
    /// One endpoint's two-hop row `Pr(a →₂ w)`, for exact `m(2)`.
    two_hop: TwoHopTable,
}

/// What sampling one walk set needs: the legacy sampler's arena and the raw
/// walks.
#[derive(Debug, Default)]
struct SetSampler {
    arena: WalkArena,
    /// All `N` walks of one set, walk-major: walk `i` occupies
    /// `i·(n + 1)..(i + 1)·(n + 1)`.
    walks: Vec<VertexId>,
}

/// A pair side's walk set: kept by the memo, or sampled into the scratch.
enum SetRef<'s> {
    Kept(Arc<WalkSet>),
    Sampled(&'s WalkSet),
}

impl std::ops::Deref for SetRef<'_> {
    type Target = WalkSet;

    fn deref(&self) -> &WalkSet {
        match self {
            SetRef::Kept(set) => set,
            SetRef::Sampled(set) => set,
        }
    }
}

/// One endpoint's two-hop row `T_a[w]`, dense over the vertices: `sums`
/// reads `+0.0` wherever the current pair wrote nothing, so a gather reads
/// any slot without asking whether it was written.  After each pair
/// [`exact_step_two`] zeroes exactly the slots it wrote.
#[derive(Debug, Default)]
struct TwoHopTable {
    sums: Vec<f64>,
    /// Every slot the scatter wrote, in first-touch order, in
    /// `touched[..written]`; a slot whose running sum was still `+0.0` may
    /// be listed twice.  Grown ahead of each row and never shrunk, so the
    /// scatter writes every arc's target at `written` rather than pushing
    /// only first touches.
    touched: Vec<VertexId>,
    written: usize,
}

impl TwoHopTable {
    /// Sizes the (clean) table for `num_vertices`.
    fn begin(&mut self, num_vertices: usize) {
        if self.sums.len() < num_vertices {
            self.sums.resize(num_vertices, 0.0);
        }
    }

    /// Adds `a`'s two-hop arcs `W1(a, x)·W1(x, w)` into the table, in row
    /// order.  A slot is listed on its first touch without a branch: it is
    /// written to the list every time and kept when its sum was `+0.0`.
    /// Every value is a product of finite, non-negative marginals, so the
    /// first touch's `+0.0 + v` is `v`.
    fn scatter(&mut self, view: &OverlayView<'_>, a: VertexId) {
        let mut written = 0;
        for (&x, &p) in view.neighbors(a).iter().zip(view.one_step_marginals(a)) {
            let targets = view.neighbors(x);
            if self.touched.len() < written + targets.len() {
                self.touched.resize(written + targets.len(), 0);
            }
            for (&w, &q) in targets.iter().zip(view.one_step_marginals(x)) {
                let sum = &mut self.sums[w as usize];
                self.touched[written] = w;
                written += usize::from(*sum == 0.0);
                *sum += p * q;
            }
        }
        self.written = written;
    }

    /// Writes a kept row's sums into the table.
    fn fill(&mut self, row: &TwoHopRow) {
        for (&w, &sum) in row.targets.iter().zip(&row.sums) {
            self.sums[w as usize] = sum;
        }
    }

    /// The row the last scatter left in the table, for the memo.
    fn row(&self) -> TwoHopRow {
        let targets = self.touched[..self.written].to_vec();
        let sums = targets.iter().map(|&w| self.sums[w as usize]).collect();
        TwoHopRow { targets, sums }
    }

    /// Zeroes the slots the pair wrote: the `kept` row's targets when it
    /// filled the table, else the scatter's list.
    fn clear(&mut self, kept: Option<&TwoHopRow>) {
        let written = match kept {
            Some(row) => &row.targets[..],
            None => &self.touched[..self.written],
        };
        for &w in written {
            self.sums[w as usize] = 0.0;
        }
        self.written = 0;
    }
}

/// A lock-protected free list of [`Scratch`] instances.  Checkout pops (or
/// creates) a scratch; drop of the guard pushes it back.  The lock is taken
/// once per call — one served frame, one single-pair query or one rayon
/// chunk of a CLI batch — not per pair, so contention is negligible.
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

    #[cfg(test)]
    fn len(&self) -> usize {
        self.free.lock().len()
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
        // A call that panicked may have left two-hop sums in the table,
        // which the next pair would read, so its scratch is not pooled.
        if std::thread::panicking() {
            return;
        }
        if let Some(scratch) = self.scratch.take() {
            self.pool.free.lock().push(scratch);
        }
    }
}

/// CSR-backed batch SimRank query engine (SR-TS with exact `m(1)` and
/// `m(2)` and the all-pairs walk estimate) over a live, updatable graph.
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
    /// The walk-set memo of the current epoch; `None` for a bare engine.
    memo: Option<WalkSetMemo>,
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
    /// arrays, and the RNG streams are keyed on `(seed, vertex)` (plus the
    /// self-pair's twin tag), not on how the arrays came to be in memory.
    ///
    /// Nothing derived is built here, under either [`SamplerKind`]: the
    /// walked direction's coin thresholds, one-step marginals and alias rows
    /// are built on their first read, the latter two row by row, and the
    /// other direction's are never built.
    pub fn from_csr(graph: UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        QueryEngine {
            graph: DeltaOverlay::new(graph),
            config,
            epoch: 0,
            scratch: ScratchPool::default(),
            memo: None,
        }
    }

    /// Gives the engine a walk-set memo of `capacity` sets (and `capacity` ×
    /// 4 KiB of two-hop rows), or none when `capacity` is 0; used by
    /// [`crate::CachedQueryEngine::new`].
    pub(crate) fn keep_walk_sets(&mut self, capacity: usize) {
        self.memo = (capacity > 0).then(|| WalkSetMemo::new(capacity));
    }

    /// Snapshot of the walk-set memo's sets, or `None` without a memo.
    pub fn walk_set_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(WalkSetMemo::set_stats)
    }

    /// Snapshot of the walk-set memo's two-hop rows, or `None` without a
    /// memo.
    pub fn two_hop_row_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(WalkSetMemo::row_stats)
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
    /// update epoch is bumped, every pooled worker arena is invalidated in
    /// O(1) ([`WalkArena::invalidate`]) — memoized arc instantiations
    /// recorded against the old graph are unreachable without a single
    /// buffer being reallocated — and the walk-set memo, if any, drops its
    /// sets, rows and seen marks.  When accumulated churn crosses the
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
            scratch.sampler.arena.invalidate();
        }
        if let Some(memo) = &mut self.memo {
            memo.clear();
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

    /// Estimated meeting probabilities `m̂(0), …, m̂(n)` of one pair, from
    /// the walk sets of its two vertices' deterministic RNG streams (the
    /// self-pair `(u, u)` scores `u`'s set against its twin set).
    ///
    /// Repeated calls with the same pair return identical profiles (the
    /// streams are keyed on `(seed, vertex)`, not on call order), `(u, v)`
    /// and `(v, u)` return the same bits, and a batch query over pairs
    /// containing `(u, v)` returns this exact profile for that entry.
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
    /// // Streams are vertex-keyed: repeating the call replays the estimate,
    /// // and the argument order does not matter.
    /// assert_eq!(profile, engine.profile(0, 1));
    /// assert_eq!(profile, engine.profile(1, 0));
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

    /// The estimate shared by every query path, metered when walk metrics
    /// are on.
    ///
    /// Walk metrics are derived from the positions buffers the samplers
    /// already wrote — the tally consumes zero RNG draws and never branches
    /// on sampled values, so metered and unmetered calls are bit-identical.
    /// One relaxed load per query when metering is off.
    fn profile_with(&self, scratch: &mut Scratch, u: VertexId, v: VertexId) -> MeetingProfile {
        if !usim_obs::walk_metrics().enabled() {
            return self.sample_profile(scratch, u, v, None);
        }
        let mut tally = usim_obs::WalkTally::default();
        let profile = self.sample_profile(scratch, u, v, Some(&mut tally));
        usim_obs::walk_metrics().flush(&tally);
        profile
    }

    /// [`QueryEngine::profile_with`]'s estimate, the walks it samples
    /// folded into `tally` when one is given.  The tally is an argument, not
    /// the process-global switch, so a test can meter one call while other
    /// tests query concurrently.
    ///
    /// The estimator is SR-TS with `l = 2` (Section VI-C) plus the
    /// all-pairs meeting estimate:
    ///
    /// * `m(1)` and `m(2)` are exact ([`exact_step_one`],
    ///   [`exact_step_two`]), with zero RNG draws, except that a pair with a
    ///   self-loop endpoint keeps the sampled `m̂(2)`;
    /// * `m(k)` for the sampled steps is `Σ_w cᵤᵏ(w)·cᵥᵏ(w) / N²`, where
    ///   `cᵤᵏ(w)` counts `u`'s walks at `w` after `k` steps.  Every walk
    ///   starts a fresh possible world and the two sets come from different
    ///   streams, so `u`'s walks are independent of `v`'s and all `N²` walk
    ///   pairs are unbiased samples of Eq. 12's product of marginals.  The
    ///   sum is an integer and is divided once, so the estimate is
    ///   deterministic; it is symmetric in the two sets, and so is every
    ///   exact step, so `(u, v)` and `(v, u)` give the same bits.
    ///
    /// With a memo, `u`'s set is read from it when it holds one; otherwise
    /// it is sampled and offered to it.  The self-pair's twin set is always
    /// sampled.  Exact `m(2)` reads and offers two-hop rows the same way.
    fn sample_profile(
        &self,
        scratch: &mut Scratch,
        u: VertexId,
        v: VertexId,
        mut tally: Option<&mut usim_obs::WalkTally>,
    ) -> MeetingProfile {
        let num_vertices = self.num_vertices();
        assert!(
            (u as usize) < num_vertices && (v as usize) < num_vertices,
            "query pair ({u}, {v}) out of range (graph has {num_vertices} vertices)"
        );
        let n = self.config.horizon;
        // Every walk terminates at a dead end, so a walk from a vertex with
        // no arc in the walk direction is dead from step 1 on and meets
        // nothing: for u ≠ v every m(k) is exactly 0, the profile the
        // estimate would give.  Streams are vertex-keyed, so skipping this
        // pair's walks changes no other pair.
        let view = self.view();
        if u != v && (view.degree(u) == 0 || view.degree(v) == 0) {
            return MeetingProfile::new(vec![0.0; n + 1], self.config.decay);
        }
        let Scratch {
            sampler,
            set_u,
            set_v,
            two_hop,
        } = scratch;
        let mut meeting = vec![0.0f64; n + 1];
        meeting[0] = if u == v { 1.0 } else { 0.0 };
        meeting[1] = exact_step_one(&view, u, v);
        // W(2) = W(1)² unless a walk can leave its start twice in two steps,
        // which only a self-loop at the start allows (Lemma 3).
        let first_sampled = if n >= 2 && !view.has_arc(u, u) && !view.has_arc(v, v) {
            meeting[2] = exact_step_two(&view, u, v, two_hop, self.memo.as_ref());
            3
        } else {
            2
        };
        if first_sampled > n {
            return MeetingProfile::new(meeting, self.config.decay);
        }
        let other = if u == v {
            Stream::Twin(u)
        } else {
            Stream::Vertex(v)
        };
        let set_u = self.walk_set(sampler, set_u, Stream::Vertex(u), tally.as_deref_mut());
        let set_v = self.walk_set(sampler, set_v, other, tally.as_deref_mut());
        let num_samples = self.config.num_samples as f64;
        let walk_pairs = num_samples * num_samples;
        let mut met_total = 0;
        for (k, slot) in meeting.iter_mut().enumerate().skip(first_sampled) {
            let met = count_meetings(set_u.step(k), set_v.step(k));
            *slot = met as f64 / walk_pairs;
            met_total += met;
        }
        if let Some(tally) = tally {
            tally.meetings += met_total;
        }
        MeetingProfile::new(meeting, self.config.decay)
    }

    /// `stream`'s walk set: the memo's copy when it keeps one (twin sets are
    /// never kept), else sampled into `buf` and offered to the memo, which
    /// takes the buffer when it has room and leaves `buf` empty.
    fn walk_set<'s>(
        &self,
        sampler: &mut SetSampler,
        buf: &'s mut WalkSet,
        stream: Stream,
        tally: Option<&mut usim_obs::WalkTally>,
    ) -> SetRef<'s> {
        let memo = self
            .memo
            .as_ref()
            .filter(|_| matches!(stream, Stream::Vertex(_)));
        if let Some(set) = memo.and_then(|memo| memo.get(stream.start())) {
            return SetRef::Kept(set);
        }
        self.sample_set(sampler, buf, stream, tally);
        match memo.and_then(|memo| memo.offer(stream.start(), buf)) {
            Some(set) => SetRef::Kept(set),
            None => SetRef::Sampled(buf),
        }
    }

    /// Samples `stream`'s `N` walks (Eq. 13's walks from one vertex, one
    /// fresh possible world each) into `set`, folding them into `tally` when
    /// one is given.  The walks are drawn in order from one stream, so the
    /// walks at `N` are a prefix of the walks at any larger `N`.
    fn sample_set(
        &self,
        sampler: &mut SetSampler,
        set: &mut WalkSet,
        stream: Stream,
        tally: Option<&mut usim_obs::WalkTally>,
    ) {
        let view = self.view();
        let (start, n) = (stream.start(), self.config.horizon);
        let mut rng = StdRng::seed_from_u64(stream.seed(self.config.seed));
        let SetSampler { arena, walks } = sampler;
        walks.clear();
        for _ in 0..self.config.num_samples {
            match self.config.sampler {
                SamplerKind::Legacy => arena.sample_walk(&view, start, n, &mut rng, walks),
                SamplerKind::Alias => alias_walk(&view, start, n, &mut rng, walks),
            }
        }
        if let Some(tally) = tally {
            tally_walks(tally, walks, n + 1, &view, self.config.sampler);
        }
        set.fill(walks, n + 1);
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

    /// Computes `f` once per *distinct unordered* pair and scatters the
    /// results back to input order.  A batch with repeated pairs (hot pairs
    /// in serving traffic, symmetric pair files) scores each distinct pair
    /// once instead of once per occurrence; because a pair's answer depends
    /// only on its two vertices' streams, `(u, v)` and `(v, u)` were
    /// bit-equal anyway, so the output is unchanged — only cheaper.
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
    /// pairs, in either order, are scored once and their profile is
    /// replicated (vertex-keyed RNG streams make the copies bit-equal to
    /// recomputation).
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
    /// [`QueryEngine::batch_profile`], and repeated pairs are scored once
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

    /// Scores of `distinct` pairs (already deduplicated, ids validated) in
    /// input order, computed on the calling thread with one pooled scratch:
    /// the serving path's entry, where each connection thread computes its
    /// own frame and parallelism comes from the connections.  Bit-identical
    /// to [`QueryEngine::batch_similarities`].
    pub(crate) fn sequential_scores(&self, distinct: &[(VertexId, VertexId)]) -> Vec<f64> {
        let mut scratch = self.scratch.checkout();
        distinct
            .iter()
            .map(|&(u, v)| self.profile_with(scratch.get_mut(), u, v).score())
            .collect()
    }

    /// How many scratches the pool holds between queries: the most that
    /// were ever checked out at once.
    #[cfg(test)]
    pub(crate) fn pooled_scratches(&self) -> usize {
        self.scratch.len()
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

/// Folds one walk set's freshly sampled walks (walk-major, `stride`
/// positions each) into a [`usim_obs::WalkTally`]: walk and step counts per
/// backend, deaths, patched- vs base-row attribution of every sampled
/// transition (the overlay serves the same patched rows to both backends,
/// so one [`OverlayView`] answers for both) and the legacy sampler's
/// instantiated rows.  Runs only when metering is on, once per sampled set,
/// so a set read from the memo adds nothing.
fn tally_walks(
    tally: &mut usim_obs::WalkTally,
    walks: &[VertexId],
    stride: usize,
    view: &OverlayView<'_>,
    sampler: SamplerKind,
) {
    for walk in walks.chunks_exact(stride) {
        tally.walks += 1;
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
        let sampled = &walk[..steps as usize];
        for &position in sampled {
            if view.is_patched(position) {
                tally.rows_patched += 1;
            } else {
                tally.rows_base += 1;
            }
        }
        if sampler == SamplerKind::Legacy {
            // The arena instantiates a row on the first visit to each
            // vertex a transition leaves from, so the rows are the distinct
            // positions before the last transition (at most n of them).
            let first_visits = sampled
                .iter()
                .enumerate()
                .filter(|&(k, p)| !sampled[..k].contains(p))
                .count();
            tally.rows_instantiated += first_visits as u64;
        }
    }
}

/// Exact `m(1)(u, v) = Σ_w Pr(u →₁ w)·Pr(v →₁ w)` on the live rows of the
/// walk direction (the first step of SR-TS's exact phase), with zero RNG draws.
///
/// A merge-join of the two sorted rows finds the shared neighbours; with
/// none, `m(1) = 0` and neither row's marginals are read.  Otherwise it sums
/// the products of the two rows' cached one-step marginals
/// ([`OverlayView::one_step_marginals`], each row computed once, on its
/// first read) over the shared arcs, in row order.  A patched overlay row
/// caches its own marginals, reset by every edit, so an engine that applied
/// updates gives the bits of a fresh engine on its snapshot.
fn exact_step_one(view: &OverlayView<'_>, u: VertexId, v: VertexId) -> f64 {
    let mut shared = shared_arcs(view.neighbors(u), view.neighbors(v)).peekable();
    if shared.peek().is_none() {
        return 0.0;
    }
    let (marginals_u, marginals_v) = (view.one_step_marginals(u), view.one_step_marginals(v));
    shared.map(|(i, j)| marginals_u[i] * marginals_v[j]).sum()
}

/// Exact `m(2)(u, v) = Σ_w Pr(u →₂ w)·Pr(v →₂ w)` from the cached one-step
/// marginals ([`OverlayView::one_step_marginals`]), with zero RNG draws, for
/// a pair whose endpoints have no self-loop in the walk direction: then a
/// two-step walk leaves its start once and `W(2) = W(1)²` (Lemma 3).
///
/// `a = min(u, v)` scatters its two-hop row `T[w] = Σₓ W1(a, x)·W1(x, w)`
/// into the dense `table`; `b = max(u, v)` sums `Σ_y W1(b, y)·Σ_w W1(y, w)·T[w]`,
/// reading `+0.0` from every slot `a` does not reach.  Taking the sides by
/// id makes `m(2)(u, v)` and `m(2)(v, u)` bit-identical.  Patched rows cache
/// their own marginals, as for [`exact_step_one`], so an engine that applied
/// updates gives the bits of a fresh engine.  The table is all `+0.0` again
/// when the call returns.
///
/// With a `memo`, a kept [`TwoHopRow`] of `a` fills the table instead of the
/// scatter, writing the same sums; when the memo asks to keep `a`'s row,
/// the scatter's written slots and their sums are offered to it.
fn exact_step_two(
    view: &OverlayView<'_>,
    u: VertexId,
    v: VertexId,
    table: &mut TwoHopTable,
    memo: Option<&WalkSetMemo>,
) -> f64 {
    let (a, b) = (u.min(v), u.max(v));
    let row = |x: VertexId| view.neighbors(x).iter().zip(view.one_step_marginals(x));
    table.begin(view.num_vertices());
    let kept = match memo.map(|memo| (memo, memo.row(a))) {
        Some((_, RowLookup::Hit(kept))) => {
            table.fill(&kept);
            Some(kept)
        }
        Some((memo, RowLookup::Keep)) => {
            table.scatter(view, a);
            memo.offer_row(a, table.row());
            None
        }
        _ => {
            table.scatter(view, a);
            None
        }
    };
    let sums = &table.sums;
    let m2 = row(b)
        .map(|(&y, &p)| p * row(y).map(|(&w, &q)| q * sums[w as usize]).sum::<f64>())
        .sum();
    table.clear(kept.as_deref());
    m2
}

/// The index pairs `(i, j)` with `a[i] == b[j]` of two sorted rows, in
/// ascending order (a merge-join).
fn shared_arcs<'r>(
    a: &'r [VertexId],
    b: &'r [VertexId],
) -> impl Iterator<Item = (usize, usize)> + 'r {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    return Some((i - 1, j - 1));
                }
            }
        }
        None
    })
}

/// Splits `pairs` into the distinct unordered pairs, each as `(min, max)`
/// in first-occurrence order, and a per-input slot map into that distinct
/// list, so callers compute each distinct pair once and scatter the results
/// back to input order.  Answers are symmetric, so `(u, v)` and `(v, u)`
/// share a slot.
pub(crate) fn dedup_pairs(
    pairs: &[(VertexId, VertexId)],
) -> (Vec<(VertexId, VertexId)>, Vec<usize>) {
    let mut first_index = std::collections::HashMap::with_capacity(pairs.len());
    let mut distinct: Vec<(VertexId, VertexId)> = Vec::with_capacity(pairs.len());
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&(u, v)| {
            let pair = (u.min(v), u.max(v));
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
        assert_eq!(
            a, b,
            "vertex-keyed RNG streams must make sharding invisible"
        );
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

    /// Six vertices on a directed ring with chords both ways, so in-neighbour
    /// walks cycle and revisit their start.
    fn cyclic_graph() -> UncertainGraph {
        UncertainGraphBuilder::new(6)
            .arc(0, 1, 0.9)
            .arc(1, 2, 0.7)
            .arc(2, 3, 0.8)
            .arc(3, 4, 0.6)
            .arc(4, 5, 0.9)
            .arc(5, 0, 0.75)
            .arc(0, 3, 0.5)
            .arc(3, 0, 0.4)
            .arc(2, 5, 0.65)
            .arc(4, 1, 0.55)
            .build()
            .unwrap()
    }

    #[test]
    fn answers_are_bitwise_symmetric_before_and_after_updates() {
        let updates = [
            GraphUpdate::SetProbability {
                source: 0,
                target: 3,
                probability: 0.95,
            },
            GraphUpdate::InsertArc {
                source: 1,
                target: 4,
                probability: 0.6,
            },
        ];
        for g in [fig1_graph(), cyclic_graph()] {
            for sampler in SAMPLER_KINDS {
                let config = SimRankConfig::default()
                    .with_samples(80)
                    .with_seed(5)
                    .with_sampler(sampler);
                let mut engine = QueryEngine::new(&g, config);
                let n = g.num_vertices() as VertexId;
                for round in 0..2 {
                    let mut sampled_nonzero = 0;
                    for (u, v) in all_ordered_pairs(n).into_iter().filter(|&(u, v)| u < v) {
                        let (uv, vu) = (engine.profile(u, v), engine.profile(v, u));
                        assert_eq!(
                            profile_bits(&uv),
                            profile_bits(&vu),
                            "{sampler}, round {round}: ({u}, {v})"
                        );
                        sampled_nonzero += usize::from(uv.meeting[3..].iter().any(|&m| m > 0.0));
                    }
                    assert!(sampled_nonzero > 0, "{sampler}: no sampled meeting");
                    if round == 0 {
                        engine.apply_updates(&updates).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn a_pairs_bits_do_not_depend_on_the_rest_of_its_batch() {
        let g = cyclic_graph();
        let pairs = all_ordered_pairs(6);
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(60)
                .with_seed(71)
                .with_sampler(sampler);
            let engine = QueryEngine::new(&g, config);
            let alone: Vec<u64> = pairs
                .iter()
                .map(|&pair| engine.batch_similarities(&[pair]).unwrap()[0].to_bits())
                .collect();
            // The whole batch, reversed, and in strided slices with
            // different neighbours each.
            let whole = engine.batch_similarities(&pairs).unwrap();
            assert_eq!(whole.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), alone);
            let reversed: Vec<_> = pairs.iter().rev().copied().collect();
            let mut backwards = engine.batch_similarities(&reversed).unwrap();
            backwards.reverse();
            assert_eq!(
                backwards.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                alone
            );
            for stride in [2, 5, 7] {
                for offset in 0..stride {
                    let slice: Vec<_> =
                        pairs.iter().skip(offset).step_by(stride).copied().collect();
                    let scores = engine.batch_similarities(&slice).unwrap();
                    for (i, score) in scores.iter().enumerate() {
                        assert_eq!(
                            score.to_bits(),
                            alone[offset + i * stride],
                            "{sampler}: {:?} in a stride-{stride} slice",
                            slice[i]
                        );
                    }
                }
            }
        }
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
        assert_eq!(
            a, b,
            "alias mode is vertex-keyed too: sharding is invisible"
        );
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
        // must still be bit-identical to a fresh engine whose rows are all
        // built from scratch — before and after compaction folds the patched
        // rows back into the base.
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

    /// Fig. 1 plus vertex 5, whose one arc leaves it (5 → 0): under
    /// in-neighbour walks it has degree 0, so every walk from it dies at
    /// step 1.  Vertex 4 has no out-arcs, the same for out-neighbour walks.
    fn fig1_with_a_source_vertex() -> UncertainGraph {
        let mut arcs: Vec<_> = fig1_graph()
            .arcs()
            .map(|a| (a.source, a.target, a.probability))
            .collect();
        arcs.push((5, 0, 0.9));
        UncertainGraph::from_arcs(6, arcs).unwrap()
    }

    const SAMPLER_KINDS: [SamplerKind; 2] = [SamplerKind::Legacy, SamplerKind::Alias];

    fn assert_zero_profile(engine: &QueryEngine, u: VertexId, v: VertexId) {
        // Exactly what counting the walks gives: m(0) = 0 for u ≠ v, no
        // meeting at any k ≥ 1, every entry +0.0.
        let profile = engine.profile(u, v);
        assert_eq!(profile.meeting.len(), engine.config().horizon + 1);
        for (k, m) in profile.meeting.iter().enumerate() {
            assert_eq!(m.to_bits(), 0.0f64.to_bits(), "({u}, {v}) m({k}) = {m}");
        }
        assert_eq!(profile.score().to_bits(), 0.0f64.to_bits());
        let batch = engine.batch_similarities(&[(u, v), (v, u)]).unwrap();
        assert!(batch.iter().all(|s| s.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn pairs_with_a_dead_endpoint_have_the_all_zero_profile() {
        let g = fig1_with_a_source_vertex();
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(300)
                .with_seed(31)
                .with_sampler(sampler);
            let engine = QueryEngine::new(&g, config);
            for other in [0, 1, 3] {
                assert_zero_profile(&engine, 5, other);
            }
            let out_walks =
                QueryEngine::new(&g, config.with_direction(WalkDirection::OutNeighbors));
            for other in [0, 3, 5] {
                assert_zero_profile(&out_walks, 4, other);
            }
        }
    }

    /// One stream's raw walks, walk-major, as the engine samples them.
    fn raw_walks(engine: &QueryEngine, stream: Stream) -> Vec<VertexId> {
        let mut sampler = SetSampler::default();
        engine.sample_set(&mut sampler, &mut WalkSet::default(), stream, None);
        sampler.walks
    }

    /// The raw walks a pair's two sets are built from: `u`'s own and `v`'s
    /// own, or `u`'s twin set for the self-pair.
    fn pair_walks(engine: &QueryEngine, u: VertexId, v: VertexId) -> [Vec<VertexId>; 2] {
        let other = if u == v {
            Stream::Twin(u)
        } else {
            Stream::Vertex(v)
        };
        [
            raw_walks(engine, Stream::Vertex(u)),
            raw_walks(engine, other),
        ]
    }

    /// The meeting walk pairs at step `k` by the definition: every
    /// (u-walk, v-walk) pair compared.
    fn brute_force_meetings(walks: &[Vec<VertexId>; 2], stride: usize, k: usize) -> u64 {
        let at_k = |walks: &[VertexId]| -> Vec<VertexId> {
            walks.iter().skip(k).step_by(stride).copied().collect()
        };
        let (from_u, from_v) = (at_k(&walks[0]), at_k(&walks[1]));
        let mut met = 0u64;
        for &a in &from_u {
            for &b in &from_v {
                met += u64::from(a != DEAD && a == b);
            }
        }
        met
    }

    /// Fig. 1 plus the self-loops 2 → 2 and 4 → 4: a walk from 2 or 4 can
    /// leave its start twice in two steps, so `W(2) ≠ W(1)²` on their rows.
    fn fig1_with_self_loops() -> UncertainGraph {
        let mut arcs: Vec<_> = fig1_graph()
            .arcs()
            .map(|a| (a.source, a.target, a.probability))
            .collect();
        arcs.extend([(2, 2, 0.5), (4, 4, 0.6)]);
        UncertainGraph::from_arcs(5, arcs).unwrap()
    }

    fn touches_a_self_loop(u: VertexId, v: VertexId) -> bool {
        [2, 4].contains(&u) || [2, 4].contains(&v)
    }

    #[test]
    fn all_pair_meetings_equal_the_brute_force_double_loop_bit_for_bit() {
        // Exact m(2) leaves k ≥ 3 to the walks; a self-loop endpoint hands
        // k = 2 back to them.
        let self_loop_pairs: Vec<_> = all_ordered_pairs(5)
            .into_iter()
            .filter(|&(u, v)| touches_a_self_loop(u, v))
            .collect();
        let cases = [
            (fig1_with_a_source_vertex(), all_ordered_pairs(5), 3),
            (fig1_with_self_loops(), self_loop_pairs, 2),
        ];
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(64)
                .with_seed(41)
                .with_sampler(sampler);
            let stride = config.horizon + 1;
            let mut scratch = Scratch::default();
            let mut nonzero = 0;
            for (graph, pairs, first_sampled) in &cases {
                let engine = QueryEngine::new(graph, config);
                for &(u, v) in pairs {
                    let mut tally = usim_obs::WalkTally::default();
                    let profile = engine.sample_profile(&mut scratch, u, v, Some(&mut tally));
                    let walks = pair_walks(&engine, u, v);
                    assert_eq!(walks[0].len(), 64 * stride);
                    let mut met = 0;
                    for k in *first_sampled..stride {
                        let count = brute_force_meetings(&walks, stride, k);
                        let expected = count as f64 / (64.0 * 64.0);
                        assert_eq!(
                            profile.meeting[k].to_bits(),
                            expected.to_bits(),
                            "{sampler}: m({k})({u}, {v})"
                        );
                        nonzero += usize::from(count > 0);
                        met += count;
                    }
                    assert_eq!(
                        tally.meetings, met,
                        "{sampler}: metered meetings ({u}, {v})"
                    );
                }
            }
            assert!(nonzero > 40, "{sampler}: only {nonzero} non-zero m(k)");
        }
    }

    #[test]
    fn a_self_loop_endpoint_keeps_the_sampled_m2() {
        let g = fig1_with_self_loops();
        let baseline = BaselineEstimator::new(&g, SimRankConfig::default());
        // The rule is not vacuous: on a self-loop row W(1)² misses W(2).
        let overlay = DeltaOverlay::new(g.clone());
        let w1_squared =
            exact_step_two(&overlay.reverse(), 2, 3, &mut TwoHopTable::default(), None);
        assert!((w1_squared - baseline.profile(2, 3).meeting[2]).abs() > 1e-3);
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(64)
                .with_seed(61)
                .with_sampler(sampler);
            let engine = QueryEngine::new(&g, config);
            let stride = config.horizon + 1;
            let mut scratch = Scratch::default();
            let (mut sampled_nonzero, mut exact_nonzero) = (0, 0);
            for (u, v) in all_ordered_pairs(5) {
                let profile = engine.sample_profile(&mut scratch, u, v, None);
                if touches_a_self_loop(u, v) {
                    let count = brute_force_meetings(&pair_walks(&engine, u, v), stride, 2);
                    let sampled = count as f64 / (64.0 * 64.0);
                    assert_eq!(
                        profile.meeting[2].to_bits(),
                        sampled.to_bits(),
                        "{sampler}: m(2)({u}, {v}) must be the walks' count"
                    );
                    sampled_nonzero += usize::from(count > 0);
                } else {
                    let exact = baseline.profile(u, v).meeting[2];
                    assert!(
                        (exact - profile.meeting[2]).abs() <= 1e-12,
                        "{sampler}: m(2)({u}, {v}) is {}, Baseline says {exact}",
                        profile.meeting[2]
                    );
                    exact_nonzero += usize::from(exact > 0.0);
                }
            }
            assert!(sampled_nonzero > 5, "{sampler}: {sampled_nonzero} sampled");
            assert!(exact_nonzero > 0, "{sampler}: every exact m(2) is zero");
        }
    }

    #[test]
    fn m2_bits_are_symmetric_in_the_pair() {
        for g in [fig1_graph(), fig1_with_a_source_vertex()] {
            for sampler in SAMPLER_KINDS {
                let config = SimRankConfig::default()
                    .with_samples(10)
                    .with_seed(67)
                    .with_sampler(sampler);
                let engine = QueryEngine::new(&g, config);
                let n = g.num_vertices() as VertexId;
                let mut nonzero = 0;
                for (u, v) in all_ordered_pairs(n).into_iter().filter(|&(u, v)| u < v) {
                    let (uv, vu) = (engine.profile(u, v), engine.profile(v, u));
                    assert_eq!(
                        uv.meeting[2].to_bits(),
                        vu.meeting[2].to_bits(),
                        "{sampler}: m(2)({u}, {v})"
                    );
                    nonzero += usize::from(uv.meeting[2] > 0.0);
                }
                assert!(nonzero > 0, "{sampler}: every m(2) is zero");
            }
        }
    }

    /// Vertices `0..20` point at `20` (the hub) and at a few of `21..40`,
    /// so in in-neighbour walks every `(20, x)` pair shares part of the
    /// hub's 20-arc row.
    fn hub_graph() -> UncertainGraph {
        let mut builder = UncertainGraphBuilder::new(40);
        for s in 0..20u32 {
            builder = builder.arc(s, 20, 0.05 + 0.045 * s as f64);
            for t in 21..40u32 {
                if (s * 7 + t * 3) % 5 == 0 {
                    builder = builder.arc(s, t, 0.1 + 0.04 * ((s + t) % 20) as f64);
                }
            }
        }
        builder.build().unwrap()
    }

    /// The hub graph plus feeders `40..48`, each pointing at most of
    /// `0..20`: a two-hop row from the hub or from one of `21..40` lands
    /// its paths on the eight feeders, so its slots sum several arcs each.
    fn layered_hub_graph() -> UncertainGraph {
        let mut arcs: Vec<_> = hub_graph()
            .arcs()
            .map(|a| (a.source, a.target, a.probability))
            .collect();
        for f in 40..48u32 {
            for s in (0..20u32).filter(|s| (f + s) % 3 != 0) {
                arcs.push((f, s, 0.2 + 0.035 * ((f * s) % 20) as f64));
            }
        }
        UncertainGraph::from_arcs(48, arcs).unwrap()
    }

    #[test]
    fn m2_filled_from_a_kept_row_has_the_bits_of_the_cold_scatter() {
        // The hub graph's first edit changes the row of 3, an in-neighbour
        // of the hub 20: T_20 changes while the hub's own row does not.
        let cases = [
            (
                layered_hub_graph(),
                [
                    GraphUpdate::SetProbability {
                        source: 41,
                        target: 3,
                        probability: 0.97,
                    },
                    GraphUpdate::InsertArc {
                        source: 40,
                        target: 20,
                        probability: 0.6,
                    },
                ],
            ),
            (
                cyclic_graph(),
                [
                    GraphUpdate::SetProbability {
                        source: 0,
                        target: 3,
                        probability: 0.95,
                    },
                    GraphUpdate::InsertArc {
                        source: 1,
                        target: 4,
                        probability: 0.6,
                    },
                ],
            ),
        ];
        for (g, edits) in cases {
            let mut engine = QueryEngine::new(&g, SimRankConfig::default());
            let n = g.num_vertices() as VertexId;
            for round in 0..=edits.len() {
                // A fresh memo per epoch, as `apply_updates` clears it.
                let memo = WalkSetMemo::new(1024);
                let view = engine.view();
                let mut table = TwoHopTable::default();
                let mut nonzero = 0;
                // The first sight of a vertex marks it, the second keeps
                // its row, the third pass reads only kept rows.
                for _ in 0..3 {
                    for (u, v) in all_ordered_pairs(n) {
                        let cold = exact_step_two(&view, u, v, &mut table, None);
                        let warm = exact_step_two(&view, u, v, &mut table, Some(&memo));
                        assert_eq!(warm.to_bits(), cold.to_bits(), "round {round}: ({u}, {v})");
                        nonzero += usize::from(cold > 0.0);
                    }
                }
                assert!(nonzero > 0, "round {round}: every m(2) is zero");
                let rows = memo.row_stats();
                assert_eq!(rows.entries, n as usize, "round {round}: {rows:?}");
                assert!(rows.hits > rows.misses, "round {round}: {rows:?}");
                // The rows are not vacuous: some slot sums several arcs.
                let collapsed = (0..n)
                    .filter(|&a| match memo.row(a) {
                        RowLookup::Hit(kept) => {
                            let arcs = view.neighbors(a).iter().map(|&x| view.degree(x));
                            kept.targets.len() < arcs.sum()
                        }
                        _ => false,
                    })
                    .count();
                assert!(collapsed > 0, "round {round}");
                if let Some(edit) = edits.get(round) {
                    engine.apply_updates(&[*edit]).unwrap();
                }
            }
        }
    }

    /// The epoch-stamped table exact `m(2)` scattered into before the dense
    /// [`TwoHopTable`]: a slot is live only under the current pair's stamp.
    #[derive(Default)]
    struct StampedTable {
        slots: Vec<(u32, f64)>,
        epoch: u32,
    }

    /// Exact `m(2)` through the stamped scatter and gather, with no memo:
    /// the reference the dense table's bits must equal.
    fn stamped_step_two(
        view: &OverlayView<'_>,
        u: VertexId,
        v: VertexId,
        table: &mut StampedTable,
    ) -> f64 {
        let (a, b) = (u.min(v), u.max(v));
        let row = |x: VertexId| view.neighbors(x).iter().zip(view.one_step_marginals(x));
        table.slots.resize(view.num_vertices(), (0, 0.0));
        table.epoch += 1;
        let epoch = table.epoch;
        for (&x, &p) in row(a) {
            for (&w, &q) in row(x) {
                let slot = &mut table.slots[w as usize];
                if slot.0 == epoch {
                    slot.1 += p * q;
                } else {
                    *slot = (epoch, p * q);
                }
            }
        }
        let get = |w: VertexId| match table.slots[w as usize] {
            (stamp, sum) if stamp == epoch => sum,
            _ => 0.0,
        };
        row(b)
            .map(|(&y, &p)| p * row(y).map(|(&w, &q)| q * get(w)).sum::<f64>())
            .sum()
    }

    #[test]
    fn dense_m2_has_the_stamped_bits_at_hub_scale_and_leaves_a_clean_table() {
        let g = usim_datasets::RmatGenerator::small(0x2b0b).generate();
        let mut engine = QueryEngine::new(&g, SimRankConfig::default());
        // The walk direction's rows are in-neighbour rows: the hubs are the
        // vertices of highest in-degree, and editing an arc into a hub
        // patches its row.
        let mut by_degree: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        by_degree.sort_by_key(|&x| std::cmp::Reverse(engine.view().degree(x)));
        let hubs = &by_degree[..6];
        assert!(engine.view().degree(hubs[0]) > 40, "no hub in the graph");
        let others: Vec<VertexId> = by_degree[6..].iter().step_by(61).copied().collect();
        let pairs: Vec<(VertexId, VertexId)> = hubs
            .iter()
            .flat_map(|&h| hubs.iter().chain(&others).map(move |&x| (h, x)))
            .collect();
        let mut reference = StampedTable::default();
        let mut table = TwoHopTable::default();
        for round in 0..=3 {
            // A fresh memo per epoch, as `apply_updates` clears it.
            let memo = WalkSetMemo::new(1 << 16);
            let view = engine.view();
            let mut nonzero = 0;
            // The first sight of a vertex marks it, the second keeps its
            // row, the third pass reads only kept rows.
            for pass in 0..3 {
                for &(u, v) in &pairs {
                    let expected = stamped_step_two(&view, u, v, &mut reference).to_bits();
                    for memo in [None, Some(&memo)] {
                        let m2 = exact_step_two(&view, v, u, &mut table, memo);
                        let context = format!("round {round}, pass {pass}, ({u}, {v})");
                        assert_eq!(
                            m2.to_bits(),
                            expected,
                            "{context}, memo: {}",
                            memo.is_some()
                        );
                        assert!(
                            table.sums.iter().all(|sum| sum.to_bits() == 0),
                            "{context}: a slot kept its sum"
                        );
                    }
                    nonzero += usize::from(expected != 0);
                }
            }
            assert!(
                nonzero > pairs.len(),
                "round {round}: {nonzero} non-zero m(2)"
            );
            let rows = memo.row_stats();
            assert!(rows.entries > 0 && rows.hits > 0, "round {round}: {rows:?}");
            if round < 3 {
                // Re-weight, insert into and delete from three hub rows.
                let hub = |i: usize| hubs[(round + i) % hubs.len()];
                let (first, second, third) = (hub(0), hub(1), hub(2));
                let absent = (0..g.num_vertices() as VertexId)
                    .find(|&x| x != second && !view.has_arc(second, x))
                    .unwrap();
                let edits = [
                    GraphUpdate::SetProbability {
                        source: view.neighbors(first)[0],
                        target: first,
                        probability: 0.97,
                    },
                    GraphUpdate::InsertArc {
                        source: absent,
                        target: second,
                        probability: 0.6,
                    },
                    GraphUpdate::DeleteArc {
                        source: view.neighbors(third)[1],
                        target: third,
                    },
                ];
                engine.apply_updates(&edits).unwrap();
            }
        }
    }

    fn profile_bits(profile: &MeetingProfile) -> Vec<u64> {
        profile.meeting.iter().map(|m| m.to_bits()).collect()
    }

    /// Applies `edits` one at a time to an engine over `g`, under both
    /// samplers and compaction policies: after each edit the live profile
    /// of `pair` has the bits of a fresh engine on `snapshot()`, and its
    /// m(1) has moved.
    fn assert_profiles_follow_every_edit(
        g: &UncertainGraph,
        pair: (VertexId, VertexId),
        edits: &[GraphUpdate],
    ) {
        for sampler in SAMPLER_KINDS {
            for policy in [CompactionPolicy::never(), CompactionPolicy::eager()] {
                let config = SimRankConfig::default()
                    .with_samples(60)
                    .with_seed(47)
                    .with_sampler(sampler);
                let mut engine = QueryEngine::new(g, config);
                engine.set_compaction_policy(policy);
                let mut previous = engine.profile(pair.0, pair.1);
                assert!(previous.meeting[1] > 0.0, "the pair shares arcs");
                for &edit in edits {
                    engine.apply_updates(&[edit]).unwrap();
                    let live = engine.profile(pair.0, pair.1);
                    let fresh = QueryEngine::new(&engine.snapshot(), config);
                    assert_eq!(
                        profile_bits(&live),
                        profile_bits(&fresh.profile(pair.0, pair.1)),
                        "{sampler}, {policy:?}: after {edit:?}"
                    );
                    assert_ne!(
                        live.meeting[1].to_bits(),
                        previous.meeting[1].to_bits(),
                        "{sampler}, {policy:?}: m(1) must see {edit:?}"
                    );
                    previous = live;
                }
            }
        }
    }

    #[test]
    fn cached_hub_marginals_follow_every_edit_of_their_row() {
        let edits = [
            GraphUpdate::SetProbability {
                source: 3,
                target: 20,
                probability: 0.97,
            },
            GraphUpdate::InsertArc {
                source: 30,
                target: 20,
                probability: 0.4,
            },
            GraphUpdate::DeleteArc {
                source: 5,
                target: 20,
            },
        ];
        assert_profiles_follow_every_edit(&hub_graph(), (20, 23), &edits);
    }

    /// A hub of in-degree 840 underflows (`Π(1 − p)` is far below the
    /// smallest normal `f64`), so its patched row's marginals run the
    /// kernel's window after every edit.
    #[test]
    fn patched_hub_marginals_at_window_scale_follow_every_edit() {
        const HUB_DEGREE: u32 = 840;
        let (hub, partner, newcomer) = (0, HUB_DEGREE + 1, HUB_DEGREE + 2);
        let mut builder = UncertainGraphBuilder::new(HUB_DEGREE as usize + 3);
        for s in 1..=HUB_DEGREE {
            builder = builder.arc(s, hub, 0.05 + 0.009 * ((s * 37) % 100) as f64);
            if s % 3 == 0 {
                builder = builder.arc(s, partner, 0.1 + 0.016 * ((s * 11) % 50) as f64);
            }
        }
        let g = builder.build().unwrap();
        let log_absent: f64 = g
            .reverse()
            .probabilities(hub)
            .iter()
            .map(|p| (1.0 - p).ln())
            .sum();
        assert!(log_absent < f64::MIN_POSITIVE.ln(), "{log_absent}");
        let edits = [
            GraphUpdate::SetProbability {
                source: 3,
                target: hub,
                probability: 0.97,
            },
            GraphUpdate::InsertArc {
                source: newcomer,
                target: hub,
                probability: 0.4,
            },
            GraphUpdate::DeleteArc {
                source: 6,
                target: hub,
            },
        ];
        assert_profiles_follow_every_edit(&g, (hub, partner), &edits);
    }

    #[test]
    fn a_batch_sharing_one_hub_row_is_thread_count_invariant() {
        let g = hub_graph();
        let pairs: Vec<(VertexId, VertexId)> = (21..40).map(|x| (20, x)).collect();
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(40)
                .with_seed(53)
                .with_sampler(sampler);
            let sequential: Vec<Vec<u64>> = {
                let engine = QueryEngine::new(&g, config);
                pairs
                    .iter()
                    .map(|&(u, v)| profile_bits(&engine.profile(u, v)))
                    .collect()
            };
            assert!(sequential.iter().filter(|bits| bits[1] != 0).count() > 10);
            for threads in [1, 5] {
                // A fresh engine each time, so the batch's workers fill the
                // shared rows themselves.
                let engine = QueryEngine::new(&g, config);
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let batch = pool.install(|| engine.batch_profile(&pairs).unwrap());
                let batch: Vec<Vec<u64>> = batch.iter().map(profile_bits).collect();
                assert_eq!(batch, sequential, "{sampler}, {threads} threads");
            }
        }
    }

    #[test]
    fn the_walks_at_n_are_a_prefix_of_the_walks_at_a_larger_n() {
        let g = fig1_graph();
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default().with_seed(43).with_sampler(sampler);
            let small = QueryEngine::new(&g, config.with_samples(40));
            let large = QueryEngine::new(&g, config.with_samples(100));
            for vertex in 0..5 {
                for stream in [Stream::Vertex(vertex), Stream::Twin(vertex)] {
                    let (a, b) = (raw_walks(&small, stream), raw_walks(&large, stream));
                    assert_eq!(a.len(), 40 * (config.horizon + 1));
                    assert_eq!(a[..], b[..a.len()], "{sampler}: {stream:?}");
                }
                // The twin set is a second, independent draw.
                assert_ne!(
                    raw_walks(&large, Stream::Vertex(vertex)),
                    raw_walks(&large, Stream::Twin(vertex)),
                    "{sampler}: vertex {vertex}"
                );
            }
        }
    }

    #[test]
    fn pairs_with_a_dead_endpoint_sample_no_walks_until_an_update_revives_it() {
        let g = fig1_with_a_source_vertex();
        for sampler in SAMPLER_KINDS {
            let config = SimRankConfig::default()
                .with_samples(300)
                .with_seed(37)
                .with_sampler(sampler);
            let mut engine = QueryEngine::new(&g, config);
            let mut scratch = Scratch::default();
            let walks = |engine: &QueryEngine, scratch: &mut Scratch, u, v| {
                let mut tally = usim_obs::WalkTally::default();
                let profile = engine.sample_profile(scratch, u, v, Some(&mut tally));
                assert_eq!(profile, engine.profile(u, v), "metering changes nothing");
                (profile, tally.walks)
            };
            assert_eq!(walks(&engine, &mut scratch, 5, 0).1, 0);
            assert_eq!(walks(&engine, &mut scratch, 0, 5).1, 0);
            assert_eq!(walks(&engine, &mut scratch, 2, 0).1, 600);

            // (u, u) on the dead vertex is still sampled and unchanged:
            // m(0) = 1, and the walks die at step 1.
            let (own, own_walks) = walks(&engine, &mut scratch, 5, 5);
            assert_eq!(own_walks, 600);
            let mut expected = vec![0.0; config.horizon + 1];
            expected[0] = 1.0;
            assert_eq!(own.meeting, expected);

            // An in-arc revives vertex 5: the pair is sampled again and
            // equals a fresh engine on the updated graph.
            engine
                .apply_updates(&[GraphUpdate::InsertArc {
                    source: 2,
                    target: 5,
                    probability: 0.9,
                }])
                .unwrap();
            let (revived, revived_walks) = walks(&engine, &mut scratch, 5, 0);
            assert_eq!(revived_walks, 600);
            assert!(revived.score() > 0.0, "5 and 0 share the in-neighbour 2");
            let fresh = QueryEngine::new(&engine.snapshot(), config);
            assert_eq!(revived, fresh.profile(5, 0));
            assert_eq!(
                engine.batch_similarities(&[(5, 0), (0, 5)]).unwrap(),
                fresh.batch_similarities(&[(5, 0), (0, 5)]).unwrap()
            );
        }
    }
}
