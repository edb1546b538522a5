//! Allocation-free walk sampling on [`GraphView`]s (the static
//! [`ugraph::CsrView`] or the live [`ugraph::OverlayView`]): the
//! lazily-instantiated walk [`WalkArena::sample_walk`] and the alias-step
//! walk [`alias_walk`].  Both append a walk's positions to a caller-provided
//! `Vec<VertexId>`, with [`DEAD`] as the tombstone from the step the walk
//! died on: a walk dies at a dead end, because the exact transition rows
//! fall short of 1 by exactly the probability of dying.
//!
//! [`crate::sampler::WalkSampler`] is correct but allocation-heavy: every
//! walk clears a `HashMap<VertexId, Vec<VertexId>>` memo and every first
//! visit to a vertex allocates a fresh `Vec` for its instantiated out-arcs,
//! and every sampled walk allocates a `Vec<Option<VertexId>>` of positions.
//! At batch-query rates (thousands of pairs × thousands of walks) that
//! allocator traffic dominates the profile.
//!
//! [`WalkArena`] replaces all of it with flat, reusable buffers:
//!
//! * an **epoch-stamped visit table** — `stamp[v] == epoch` means vertex `v`
//!   was instantiated during the current walk, so "clearing" the memo between
//!   walks is a single integer increment;
//! * a **bump-allocated instantiation pool** — the surviving out-neighbors of
//!   every first-visited vertex are appended to one shared `Vec`, truncated
//!   (capacity kept) at walk start, by the branch-free [`instantiate_row`]
//!   kernel, which compares each coin's integer bits against the view's
//!   precomputed [`GraphView::coin_thresholds`] and keeps the generator in
//!   a local for the whole row.
//!
//! In steady state a worker thread owns one arena and one position buffer
//! and samples arbitrarily many walks without touching the allocator.
//!
//! [`WalkArena::sample_walk`] reproduces the lazily-instantiated walk
//! semantics of Fig. 4 of the paper **and** the exact RNG draw order of
//! [`crate::sampler::WalkSampler`] (per first visit: one uniform draw per
//! possible out-arc in neighbor order, then one `gen_range` over the
//! survivors), so a walk sampled through the arena from a given RNG state is
//! bit-identical to one sampled by `WalkSampler` from the same state.  The
//! estimators in `usim_core` rely on this equivalence.  The
//! branch-free compaction in [`instantiate_row`] keeps that draw order: it
//! draws one coin per arc in neighbor order whatever the outcomes, and each
//! surviving target lands in the next free slot of the row, so the kept
//! prefix and its order — hence the final `gen_range` pick — are exactly
//! the survivor list the reference loop builds.  Its integer compare
//! `(x >> 11) < T(p)` keeps exactly the arcs the reference's
//! `rng.gen::<f64>() < p` keeps (see [`ugraph::coin_threshold`]).

use rand::Rng;
use ugraph::{alias_draw, GraphView, VertexId};

/// Tombstone marking a dead walk position (the walk terminated earlier).
/// Real vertex ids are `< num_vertices`, far below `u32::MAX` in practice.
pub const DEAD: VertexId = VertexId::MAX;

/// Reusable per-worker scratch space for allocation-free walk sampling.
///
/// An arena is independent of any particular graph: it grows its tables to
/// the largest `num_vertices` it has seen and can be reused across graphs
/// and queries.  It is `Send`, so batch engines hand one to each worker.
#[derive(Debug, Default)]
pub struct WalkArena {
    /// Current walk epoch; `stamp[v] == epoch` ⇔ `v` instantiated this walk.
    epoch: u32,
    /// Per-vertex epoch stamps.
    stamp: Vec<u32>,
    /// Per-vertex `(start, len)` into `pool`, valid when the stamp matches.
    slots: Vec<(u32, u32)>,
    /// Bump-allocated instantiated out-neighbors of first-visited vertices.
    pool: Vec<VertexId>,
}

impl WalkArena {
    /// Grows the per-vertex tables to cover `num_vertices` vertices.
    fn ensure_vertices(&mut self, num_vertices: usize) {
        if self.stamp.len() < num_vertices {
            self.stamp.resize(num_vertices, 0);
            self.slots.resize(num_vertices, (0, 0));
        }
    }

    /// Starts a fresh walk: invalidates every instantiation in O(1).
    fn begin_walk(&mut self) {
        self.pool.clear();
        self.epoch = match self.epoch.checked_add(1) {
            Some(next) => next,
            None => {
                // Epoch wrapped (once per 2^32 walks): reset all stamps so no
                // stale entry can alias the new epoch.
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Invalidates every memoized instantiation by bumping the walk epoch —
    /// O(1) (amortised), no buffer is freed or reallocated.
    ///
    /// Within one walk the memo is already reset by the per-walk epoch bump,
    /// so this exists for *graph* changes: a batch engine that mutates its
    /// graph (e.g. `QueryEngine::apply_updates` applying a
    /// [`ugraph::DeltaOverlay`] delta batch) calls this on every pooled
    /// arena so that no instantiation recorded against the old adjacency can
    /// ever be observed again, even by callers that keep an arena alive
    /// across updates.
    pub fn invalidate(&mut self) {
        usim_obs::walk_metrics().count_arena_invalidation();
        self.begin_walk();
    }

    /// Returns `(pool_start, len)` of the instantiated out-arcs of `v` for
    /// the current walk, instantiating them on first visit (one uniform draw
    /// per possible arc, in neighbor order — the `WalkSampler` draw order).
    fn instantiate<V: GraphView, R: Rng + Clone>(
        &mut self,
        view: &V,
        v: VertexId,
        rng: &mut R,
    ) -> (u32, u32) {
        if self.stamp[v as usize] == self.epoch {
            return self.slots[v as usize];
        }
        let start = self.pool.len() as u32;
        let kept = instantiate_row(
            view.neighbors(v),
            view.coin_thresholds(v),
            rng,
            &mut self.pool,
        );
        let slot = (start, kept as u32);
        self.stamp[v as usize] = self.epoch;
        self.slots[v as usize] = slot;
        slot
    }

    /// Samples one lazily-instantiated walk of horizon `length` from `start`
    /// over `view` (the static [`ugraph::CsrView`] or the live
    /// [`ugraph::OverlayView`] of a mutating [`ugraph::DeltaOverlay`]) and
    /// appends its `length + 1` positions to `out`: step `k` at
    /// `out[base + k]`, where `base` is `out.len()` on entry, and [`DEAD`]
    /// from the step the walk died on — a walk dies at the first vertex with
    /// no surviving out-arc.
    ///
    /// Each call is one independent walk: arc instantiations are shared
    /// *within* the call across revisits (Fig. 4 of the paper) and discarded
    /// between calls.  The walk consumes the RNG purely through the slices
    /// the view returns (one coin per possible arc of each first-visited
    /// vertex, compared with its coin threshold, then one `gen_range` over
    /// the survivors).  An overlay view returns the identical base slices
    /// for untouched vertices, so walks that only visit untouched vertices
    /// are bit-identical to walks over the plain CSR view — pinned by this
    /// module's tests.
    pub fn sample_walk<V: GraphView, R: Rng + Clone>(
        &mut self,
        view: &V,
        start: VertexId,
        length: usize,
        rng: &mut R,
        out: &mut Vec<VertexId>,
    ) {
        debug_assert!((start as usize) < view.num_vertices());
        self.ensure_vertices(view.num_vertices());
        self.begin_walk();
        let base = out.len();
        out.reserve(length + 1);
        out.push(start);
        let mut current = start;
        for _ in 0..length {
            let (pool_start, len) = self.instantiate(view, current, rng);
            if len == 0 {
                break;
            }
            current = self.pool[pool_start as usize + rng.gen_range(0..len as usize)];
            out.push(current);
        }
        out.resize(base + length + 1, DEAD);
    }
}

/// Instantiates one row of possible arcs: flips one coin per arc, in
/// neighbor order, appends the targets of the surviving arcs to `out` in
/// neighbor order and returns their count.  `thresholds` are the row's
/// [`GraphView::coin_thresholds`]: the arc with threshold `T(p)` survives
/// when the top 53 bits of its RNG word are below `T(p)`, which is exactly
/// when `rng.gen::<f64>() < p` (see [`ugraph::coin_threshold`]).
///
/// This is the per-arc kernel of every legacy walk and of the single-source
/// functional instantiation, and it makes exactly the draws, with exactly
/// the outcomes, of [`crate::sampler::WalkSampler`]'s reference loop.  It is
/// written without a data-dependent branch: `out` grows by the row's degree
/// once, every neighbor is written at the `kept` cursor, the coin's `bool`
/// is added to the cursor (a lost coin's target is overwritten by the next
/// write) and the tail is truncated.  The coin flips mispredict about half
/// the time as branches; the compaction avoids that.  The generator is
/// copied into a local for the row and written back once: through `&mut R`
/// the compiler cannot prove that the row store leaves the generator
/// untouched, and would store its state to memory on every coin.
pub fn instantiate_row<R: Rng + Clone>(
    neighbors: &[VertexId],
    thresholds: &[u64],
    rng: &mut R,
    out: &mut Vec<VertexId>,
) -> usize {
    debug_assert_eq!(neighbors.len(), thresholds.len());
    let base = out.len();
    out.resize(base + neighbors.len(), 0);
    let row = &mut out[base..];
    let mut local = rng.clone();
    let mut kept = 0;
    for (&w, &t) in neighbors.iter().zip(thresholds) {
        row[kept] = w;
        kept += usize::from((local.next_u64() >> 11) < t);
    }
    *rng = local;
    out.truncate(base + kept);
    kept
}

/// Samples one walk of Walker alias steps of horizon `length` from `start`
/// over `view` (the static [`ugraph::CsrView`] or the live
/// [`ugraph::OverlayView`]) and appends its `length + 1` positions to `out`:
/// step `k` at `out[base + k]`, where `base` is `out.len()` on entry, and
/// [`DEAD`] from the step the walk died on.  Rows are read through
/// [`GraphView::alias_slots`]: each is built on its first read and cached,
/// so the first walks over a row pay its build and later ones only read it.
///
/// Each step costs exactly **one** `f64` draw and one slot read, independent
/// of vertex degree: the integer part of the scaled draw picks a slot, the
/// fractional part flips the slot's biased coin (see [`ugraph::alias`]).
/// Because each step is drawn independently from the vertex's *expected
/// one-step marginal* (death mass included as the [`DEAD`] outcome), no
/// instantiation memo — and therefore no [`WalkArena`] — is needed.
///
/// This backend is **not** draw-order (or distribution) compatible with
/// [`WalkArena::sample_walk`] beyond two steps: it trades the within-walk
/// possible-world correlation of the lazy walk for raw speed.  Engines treat
/// the two as distinct, versioned backends (`SamplerKind` in `usim_core`) and
/// never mix their answers.  Its own determinism pin is simpler than the
/// legacy one: every live step consumes exactly one RNG draw, so a walk's RNG
/// consumption depends only on where the walk dies — and equal seeds give
/// bit-identical walks over equal tables.
pub fn alias_walk<V: GraphView, R: Rng + ?Sized>(
    view: &V,
    start: VertexId,
    length: usize,
    rng: &mut R,
    out: &mut Vec<VertexId>,
) {
    debug_assert!((start as usize) < view.num_vertices());
    let base = out.len();
    out.reserve(length + 1);
    out.push(start);
    let mut current = start;
    for _ in 0..length {
        current = alias_draw(view.alias_slots(current), rng.gen::<f64>());
        if current == DEAD {
            break;
        }
        out.push(current);
    }
    out.resize(base + length + 1, DEAD);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::WalkSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ugraph::{UncertainGraph, UncertainGraphBuilder};

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

    #[test]
    fn walks_are_bit_identical_to_walk_sampler() {
        // The arena walk consumes the RNG in exactly the same order as
        // WalkSampler, so from equal RNG states the walks must be equal —
        // this is what lets the estimators migrate without changing results.
        let g = fig1_graph();
        let view = g.forward();
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();

        let mut legacy = WalkSampler::new(&g);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for start in [0u32, 1, 2, 3, 4] {
            for _ in 0..50 {
                let reference = legacy.sample_walk(start, 6, &mut rng_a);
                positions.clear();
                arena.sample_walk(&view, start, 6, &mut rng_b, &mut positions);
                assert_eq!(positions.len(), 7);
                for (k, &position) in positions.iter().enumerate() {
                    let expected = reference.position(k).unwrap_or(DEAD);
                    assert_eq!(position, expected, "start {start}, step {k}");
                }
            }
        }
        // Both RNGs must have advanced identically.
        assert_eq!(rng_a, rng_b);
    }

    /// Two hubs over `SPOKES` spokes: hub 0 → every spoke, every spoke → hub
    /// `SPOKES + 1`, and every spoke → hub 0 (so walks revisit hub 0 within a
    /// few steps), plus a spoke ring.  Hub rows hold hundreds of arcs in
    /// both directions with probabilities spread over (0, 1], including
    /// exact 1.0 and values within a few ulps of 0.
    fn hub_graph() -> UncertainGraph {
        const SPOKES: u32 = 300;
        let far_hub = SPOKES + 1;
        let probability = |i: u32, salt: u32| -> f64 {
            match (i * 7 + salt) % 23 {
                0 => 1.0,
                1 => 1e-300,
                2 => f64::EPSILON,
                3 => 1.0 - f64::EPSILON,
                _ => f64::from((i * 7919 + salt * 104_729) % 1000 + 1) / 1000.0,
            }
        };
        let mut builder = UncertainGraphBuilder::new(SPOKES as usize + 2);
        for i in 1..=SPOKES {
            builder = builder
                .arc(0, i, probability(i, 0))
                .arc(i, 0, probability(i, 1))
                .arc(i, far_hub, probability(i, 2))
                .arc(i, i % SPOKES + 1, probability(i, 3));
        }
        builder.arc(far_hub, 0, 1.0).build().unwrap()
    }

    #[test]
    fn hub_row_walks_are_bit_identical_to_walk_sampler() {
        // Degree ≤ 2 fixtures cannot catch a draw-order slip on long rows;
        // here every first visit to a hub draws hundreds of coins.
        let g = hub_graph();
        let transposed = g.transpose();
        assert!(g.forward().neighbors(0).len() >= 300);
        assert!(g.reverse().neighbors(0).len() >= 300);
        assert!(g.reverse().neighbors(301).len() >= 300);
        for (view, reference_graph) in [(g.forward(), &g), (g.reverse(), &transposed)] {
            let mut legacy = WalkSampler::new(reference_graph);
            let mut arena = WalkArena::default();
            let mut positions = Vec::new();
            let mut rng_a = StdRng::seed_from_u64(0x4b0b);
            let mut rng_b = StdRng::seed_from_u64(0x4b0b);
            let mut hub_revisits = 0;
            for start in [0u32, 1, 150, 300, 301] {
                for _ in 0..40 {
                    let reference = legacy.sample_walk(start, 8, &mut rng_a);
                    positions.clear();
                    arena.sample_walk(&view, start, 8, &mut rng_b, &mut positions);
                    for (k, &position) in positions.iter().enumerate() {
                        let expected = reference.position(k).unwrap_or(DEAD);
                        assert_eq!(position, expected, "start {start}, step {k}");
                    }
                    if positions.iter().filter(|&&p| p == 0).count() >= 2 {
                        hub_revisits += 1;
                    }
                }
            }
            assert!(hub_revisits > 0, "no walk revisited the hub");
            assert_eq!(rng_a, rng_b);
        }
    }

    #[test]
    fn reverse_view_walks_match_walking_the_transpose() {
        let g = fig1_graph();
        let transposed = g.transpose();
        let mut legacy = WalkSampler::new(&transposed);
        let view = g.reverse();
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for start in [0u32, 2, 4] {
            for _ in 0..30 {
                let reference = legacy.sample_walk(start, 5, &mut rng_a);
                positions.clear();
                arena.sample_walk(&view, start, 5, &mut rng_b, &mut positions);
                for (k, &position) in positions.iter().enumerate() {
                    assert_eq!(position, reference.position(k).unwrap_or(DEAD));
                }
            }
        }
    }

    #[test]
    fn instantiation_is_shared_within_a_walk() {
        // One probabilistic 2-cycle: a walk either dies within its first
        // visit to each vertex or survives the whole horizon (revisits reuse
        // the instantiation).
        let g = UncertainGraphBuilder::new(2)
            .arc(0, 1, 0.5)
            .arc(1, 0, 0.5)
            .build()
            .unwrap();
        let view = g.forward();
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut survived = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            positions.clear();
            arena.sample_walk(&view, 0, 6, &mut rng, &mut positions);
            let steps = positions.iter().take_while(|&&p| p != DEAD).count() - 1;
            assert!(
                steps == 0 || steps == 1 || steps == 6,
                "shared instantiation allows death only at first visits; survived {steps}"
            );
            if steps == 6 {
                survived += 1;
            }
        }
        let rate = survived as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "survival rate {rate}");
    }

    #[test]
    fn walks_terminate_at_dead_ends() {
        let g = fig1_graph(); // vertex 4 has no out-arcs
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        arena.sample_walk(&g.forward(), 4, 3, &mut rng, &mut positions);
        assert_eq!(positions, vec![4, DEAD, DEAD, DEAD]);
    }

    #[test]
    fn walks_append_to_a_non_empty_out() {
        // Both walk functions append: the earlier contents of `out` stay
        // intact, and the appended positions (dead-end padding included) are
        // the ones an empty `out` receives from the same RNG state.
        let g = fig1_graph();
        let view = g.forward();
        let prefix = [3u32, DEAD, 0, 7];
        let mut arena = WalkArena::default();
        let mut padded = 0;
        for start in [0u32, 1, 2, 3, 4] {
            for seed in 0..40u64 {
                for alias in [false, true] {
                    let mut fresh = Vec::new();
                    let mut appended = prefix.to_vec();
                    let mut rng_a = StdRng::seed_from_u64(seed);
                    let mut rng_b = StdRng::seed_from_u64(seed);
                    if alias {
                        alias_walk(&view, start, 5, &mut rng_a, &mut fresh);
                        alias_walk(&view, start, 5, &mut rng_b, &mut appended);
                    } else {
                        arena.sample_walk(&view, start, 5, &mut rng_a, &mut fresh);
                        arena.sample_walk(&view, start, 5, &mut rng_b, &mut appended);
                    }
                    assert_eq!(fresh.len(), 6);
                    assert_eq!(&appended[..prefix.len()], &prefix);
                    assert_eq!(&appended[prefix.len()..], &fresh[..]);
                    assert_eq!(rng_a, rng_b);
                    if start == 4 {
                        assert_eq!(fresh, vec![4, DEAD, DEAD, DEAD, DEAD, DEAD]);
                    }
                    if fresh.contains(&DEAD) {
                        padded += 1;
                    }
                }
            }
        }
        assert!(padded > 80, "only {padded} walks died");
    }

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let g = fig1_graph();
        let view = g.forward();
        let mut arena = WalkArena::default();
        let mut positions = Vec::with_capacity(8);
        let mut rng = StdRng::seed_from_u64(11);
        // Warm until every buffer has reached steady-state size.
        for _ in 0..50 {
            positions.clear();
            arena.sample_walk(&view, 0, 7, &mut rng, &mut positions);
        }
        let pool_capacity = arena.pool.capacity();
        let positions_capacity = positions.capacity();
        for _ in 0..500 {
            positions.clear();
            arena.sample_walk(&view, 0, 7, &mut rng, &mut positions);
        }
        assert_eq!(arena.pool.capacity(), pool_capacity);
        assert_eq!(positions.capacity(), positions_capacity);
        assert_eq!(arena.stamp.len(), 5);
    }

    #[test]
    fn zero_length_walk_is_just_the_start() {
        let g = fig1_graph();
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        arena.sample_walk(&g.forward(), 2, 0, &mut rng, &mut positions);
        assert_eq!(positions, vec![2]);
    }

    #[test]
    fn empty_overlay_walks_are_bit_identical_to_csr_walks() {
        // An overlay with no deltas serves the base slices themselves, so
        // the walk must consume the RNG identically — the equivalence the
        // dynamic engine relies on.
        use ugraph::DeltaOverlay;
        let g = fig1_graph();
        let overlay = DeltaOverlay::new(g.clone());
        let (csr_view, overlay_view) = (g.forward(), overlay.forward());
        let mut arena_a = WalkArena::default();
        let mut arena_b = WalkArena::default();
        let (mut pos_a, mut pos_b) = (Vec::new(), Vec::new());
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        for start in [0u32, 1, 2, 3, 4] {
            for _ in 0..40 {
                pos_a.clear();
                pos_b.clear();
                arena_a.sample_walk(&csr_view, start, 6, &mut rng_a, &mut pos_a);
                arena_b.sample_walk(&overlay_view, start, 6, &mut rng_b, &mut pos_b);
                assert_eq!(pos_a, pos_b);
            }
        }
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn walks_over_untouched_vertices_ignore_overlay_churn() {
        // Two disconnected 2-cycles; churn only touches the {2, 3} cycle.
        // Walks starting in the untouched {0, 1} cycle must stay
        // bit-identical to walks over the static graph, RNG state included —
        // this is the "unchanged draw order on untouched vertices" pin.
        use ugraph::{DeltaOverlay, GraphUpdate};
        let g = UncertainGraphBuilder::new(4)
            .arc(0, 1, 0.8)
            .arc(1, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 2, 0.5)
            .build()
            .unwrap();
        let mut overlay = DeltaOverlay::new(g.clone());
        overlay
            .apply_all(&[
                GraphUpdate::DeleteArc {
                    source: 2,
                    target: 3,
                },
                GraphUpdate::InsertArc {
                    source: 2,
                    target: 2,
                    probability: 0.9,
                },
                GraphUpdate::SetProbability {
                    source: 3,
                    target: 2,
                    probability: 0.1,
                },
            ])
            .unwrap();
        let (static_view, live_view) = (g.forward(), overlay.forward());
        let mut arena_a = WalkArena::default();
        let mut arena_b = WalkArena::default();
        let (mut pos_a, mut pos_b) = (Vec::new(), Vec::new());
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for start in [0u32, 1] {
            for _ in 0..100 {
                pos_a.clear();
                pos_b.clear();
                arena_a.sample_walk(&static_view, start, 8, &mut rng_a, &mut pos_a);
                arena_b.sample_walk(&live_view, start, 8, &mut rng_b, &mut pos_b);
                assert_eq!(pos_a, pos_b);
            }
        }
        assert_eq!(rng_a, rng_b, "untouched walks must not perturb the RNG");
        // Sanity: the churn is visible to walks that do start on a touched
        // vertex (vertex 2 now has a self-loop instead of the arc to 3).
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            pos_b.clear();
            arena_b.sample_walk(&live_view, 2, 4, &mut rng, &mut pos_b);
            assert!(
                pos_b.iter().all(|&p| p == 2 || p == DEAD),
                "walk escaped the rewired vertex: {pos_b:?}"
            );
        }
    }

    #[test]
    fn alias_walks_are_valid_walks_on_the_graph() {
        let g = fig1_graph();
        let view = g.forward();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(13);
        for start in [0u32, 1, 2, 3, 4] {
            for _ in 0..200 {
                positions.clear();
                alias_walk(&view, start, 6, &mut rng, &mut positions);
                assert_eq!(positions.len(), 7);
                assert_eq!(positions[0], start);
                for window in positions.windows(2) {
                    match (window[0], window[1]) {
                        (DEAD, next) => assert_eq!(next, DEAD, "no resurrection"),
                        (_, DEAD) => {}
                        (u, v) => assert!(g.has_arc(u, v), "({u}, {v}) is not an arc"),
                    }
                }
            }
        }
    }

    #[test]
    fn alias_one_step_frequencies_match_the_expected_marginals() {
        // Vertex 0 of Fig. 1: Pr(0→2) = 0.6, Pr(0→3) = 0.3, death 0.1 (the
        // exact expected one-step row, see ugraph::alias).
        let g = fig1_graph();
        let view = g.forward();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 40_000;
        let mut to2 = 0usize;
        let mut to3 = 0usize;
        let mut died = 0usize;
        for _ in 0..trials {
            positions.clear();
            alias_walk(&view, 0, 1, &mut rng, &mut positions);
            match positions[1] {
                2 => to2 += 1,
                3 => to3 += 1,
                DEAD => died += 1,
                other => panic!("impossible one-step successor {other}"),
            }
        }
        assert!((to2 as f64 / trials as f64 - 0.6).abs() < 0.01);
        assert!((to3 as f64 / trials as f64 - 0.3).abs() < 0.01);
        assert!((died as f64 / trials as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn alias_walks_on_certain_graphs_match_uniform_skeleton_walks() {
        // All probabilities 1: the expected marginal is the uniform skeleton
        // transition, so the alias walk is an ordinary random walk and never
        // dies except at true dead ends.
        let g = fig1_graph().certain();
        let view = g.forward();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            positions.clear();
            alias_walk(&view, 0, 8, &mut rng, &mut positions);
            for window in positions.windows(2) {
                if window[1] == DEAD {
                    // Only vertex 4 (no out-arcs) kills a walk.
                    assert!(window[0] == 4 || window[0] == DEAD, "{positions:?}");
                } else {
                    assert!(g.has_arc(window[0], window[1]));
                }
            }
        }
    }

    #[test]
    fn alias_sampler_is_deterministic_per_seed() {
        let g = fig1_graph();
        let view = g.forward();
        let (mut pos_a, mut pos_b) = (Vec::new(), Vec::new());
        let mut rng_a = StdRng::seed_from_u64(1234);
        let mut rng_b = StdRng::seed_from_u64(1234);
        for start in [0u32, 1, 2, 3] {
            for _ in 0..50 {
                pos_a.clear();
                pos_b.clear();
                alias_walk(&view, start, 7, &mut rng_a, &mut pos_a);
                alias_walk(&view, start, 7, &mut rng_b, &mut pos_b);
                assert_eq!(pos_a, pos_b);
            }
        }
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn alias_walks_terminate_at_dead_ends() {
        let g = fig1_graph(); // vertex 4 has no out-arcs
        let view = g.forward();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        alias_walk(&view, 4, 3, &mut rng, &mut positions);
        assert_eq!(positions, vec![4, DEAD, DEAD, DEAD]);

        // Zero-length walks are just the start.
        positions.clear();
        alias_walk(&view, 2, 0, &mut rng, &mut positions);
        assert_eq!(positions, vec![2]);
    }

    #[test]
    fn alias_walks_over_untouched_vertices_ignore_overlay_churn() {
        // The alias analogue of the overlay pin: churn in one component must
        // not perturb walks (or RNG consumption) in the other.
        use ugraph::{CompactionPolicy, DeltaOverlay, GraphUpdate};
        let g = UncertainGraphBuilder::new(4)
            .arc(0, 1, 0.8)
            .arc(1, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 2, 0.5)
            .build()
            .unwrap();
        let mut overlay = DeltaOverlay::with_policy(g.clone(), CompactionPolicy::never());
        overlay
            .apply_all(&[GraphUpdate::SetProbability {
                source: 2,
                target: 3,
                probability: 0.05,
            }])
            .unwrap();
        let (static_view, live_view) = (g.forward(), overlay.forward());
        let (mut pos_a, mut pos_b) = (Vec::new(), Vec::new());
        let mut rng_a = StdRng::seed_from_u64(55);
        let mut rng_b = StdRng::seed_from_u64(55);
        for start in [0u32, 1] {
            for _ in 0..100 {
                pos_a.clear();
                pos_b.clear();
                alias_walk(&static_view, start, 8, &mut rng_a, &mut pos_a);
                alias_walk(&live_view, start, 8, &mut rng_b, &mut pos_b);
                assert_eq!(pos_a, pos_b);
            }
        }
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn invalidate_discards_memos_without_reallocating() {
        let g = fig1_graph();
        let view = g.forward();
        let mut arena = WalkArena::default();
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            positions.clear();
            arena.sample_walk(&view, 0, 6, &mut rng, &mut positions);
        }
        let stamp_capacity = arena.stamp.capacity();
        let epoch_before = arena.epoch;
        arena.invalidate();
        assert_eq!(arena.epoch, epoch_before + 1, "epoch bump, not a rebuild");
        assert!(arena.pool.is_empty());
        assert_eq!(arena.stamp.capacity(), stamp_capacity);
        // Walks after invalidation are still valid walks.
        for _ in 0..20 {
            positions.clear();
            arena.sample_walk(&view, 0, 6, &mut rng, &mut positions);
            for window in positions.windows(2) {
                if window[0] != DEAD && window[1] != DEAD {
                    assert!(g.has_arc(window[0], window[1]));
                }
            }
        }
        // Wrap-around invalidation resets the stamps instead.
        arena.epoch = u32::MAX;
        arena.invalidate();
        assert_eq!(arena.epoch, 1);
        assert!(arena.stamp.iter().all(|&s| s == 0));
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let g = fig1_graph();
        let view = g.forward();
        let mut arena = WalkArena {
            epoch: u32::MAX - 1,
            ..WalkArena::default()
        };
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4 {
            // Crosses the wrap; walks must stay valid (no stale aliasing).
            positions.clear();
            arena.sample_walk(&view, 0, 4, &mut rng, &mut positions);
            for window in positions.windows(2) {
                if window[0] != DEAD && window[1] != DEAD {
                    assert!(g.has_arc(window[0], window[1]));
                }
            }
        }
        assert!(arena.epoch >= 1 && arena.epoch < 10);
    }
}
