//! Walk-oriented, direction-fixed views of an uncertain graph's CSR arrays.
//!
//! The random-walk interpretation of SimRank follows arcs *backwards*, so a
//! sampler needs the reverse adjacency as readily as the forward one.
//! [`UncertainGraph`] stores both directions as flat `offsets` / `targets` /
//! `probs` arrays; [`UncertainGraph::forward`] and
//! [`UncertainGraph::reverse`] borrow one direction as a [`CsrView`], so a
//! sampler picks the forward or the reverse (transpose) view at query time
//! with zero copying.
//!
//! Neighbor slices are sorted by vertex id, which keeps arc lookups a
//! binary search and iteration deterministic.
//!
//! # Layout
//!
//! For each direction the graph is three parallel flat arrays:
//!
//! ```text
//! offsets: [0, d(0), d(0)+d(1), …]          (num_vertices + 1 entries)
//! targets: neighbors of 0, neighbors of 1, …  (num_arcs entries, sorted per vertex)
//! probs:   probability of each arc, aligned with `targets`
//! ```
//!
//! `neighbors(v)` and `probabilities(v)` are the sub-slices
//! `targets[offsets[v]..offsets[v+1]]` and `probs[offsets[v]..offsets[v+1]]`.
//!
//! # Coin thresholds
//!
//! A walk keeps an arc when its coin `(x >> 11) as f64 · 2⁻⁵³` (the uniform
//! `f64` drawn from one 64-bit word `x`) is below the arc's probability `p`.
//! Both sides of that compare are exact, so it equals the integer compare
//! `(x >> 11) < T(p)` with `T(p) = ⌈p · 2⁵³⌉` ([`coin_threshold`]).  Each
//! direction keeps a fourth array, `thresholds`, aligned with `probs`: built
//! from `probs` on first use by a sampler (8 bytes per arc), never stored in
//! a snapshot and never compared by [`PartialEq`].
//!
//! # One-step marginals and alias rows
//!
//! The exact one-step marginals `Pr(v →₁ w)` of a row
//! ([`crate::one_step_marginals`], `O(d²)`) and the Walker alias slots the
//! alias sampler draws from them ([`crate::alias`]) are derived data with
//! the same lifecycle, kept per row rather than per direction: the first
//! [`CsrView::one_step_marginals`] or [`CsrView::alias_slots`] call on a
//! direction allocates one empty cell per vertex (24 bytes each), and each
//! row fills its cell on its own first read (8 bytes per arc for the
//! marginals, 16 bytes per slot for the `d + 1` alias slots), so only rows
//! something asks for are ever computed.  An alias row is built from its
//! row's cached marginals, so a row the alias sampler walks and the exact
//! `m(1)` reads runs the `O(d²)` deconvolution once.

use crate::alias::{build_alias_row, one_step_marginals_row, AliasSlot};
#[cfg(doc)]
use crate::uncertain::UncertainGraph;
use crate::{Probability, VertexId};
use std::sync::OnceLock;

/// `2⁵³`: the number of distinct uniform `f64` coins one 64-bit word yields.
const COIN_SCALE: f64 = (1u64 << 53) as f64;

/// The integer coin threshold `T(p) = ⌈p · 2⁵³⌉` of an arc probability.
///
/// For every 53-bit coin `y` (the top 53 bits of one RNG word),
/// `y < T(p)` holds exactly when `(y as f64) · 2⁻⁵³ < p`: `y · 2⁻⁵³` and
/// `p · 2⁵³` are both exact (scaling by a power of two), and for an integer
/// `y`, `y < q ⇔ y < ⌈q⌉`.  That holds for every `f64` `p` — `p ≥ 1` gives
/// `2⁵³` (every coin keeps the arc), subnormals give 1 — while NaN and
/// `p ≤ 0` give 0, which never keeps the arc, as the float compare does.
#[inline]
pub fn coin_threshold(p: Probability) -> u64 {
    if p >= 1.0 {
        return 1 << 53;
    }
    // The ceiling by truncation: `f64::ceil` is a libm call on baseline
    // x86-64, four times slower over a whole direction.  `q` is exact and
    // below 2⁵³, so `t` is too; `as` gives 0 for NaN and negative `q`.
    let q = p * COIN_SCALE;
    let t = q as u64;
    t + u64::from((t as f64) < q)
}

/// One direction's lazily filled per-row derived data: one cell per vertex,
/// allocated on the direction's first read, each filled on its row's first
/// read.
#[derive(Debug, Clone)]
pub(crate) struct RowCells<T>(OnceLock<Box<[RowCell<T>]>>);

/// One row's cell: empty until the row's first read.
type RowCell<T> = OnceLock<Box<[T]>>;

impl<T> Default for RowCells<T> {
    fn default() -> Self {
        RowCells(OnceLock::new())
    }
}

impl<T> RowCells<T> {
    /// Row `v`, filled by `fill` on its first read; the first read of any
    /// row allocates the `num_vertices` cells.
    #[inline]
    fn get_or_init(
        &self,
        num_vertices: usize,
        v: VertexId,
        fill: impl FnOnce() -> Box<[T]>,
    ) -> &[T] {
        let rows = self
            .0
            .get_or_init(|| (0..num_vertices).map(|_| OnceLock::new()).collect());
        rows[v as usize].get_or_init(fill)
    }

    /// Which rows are filled, or `None` before the cells are allocated.
    #[cfg(test)]
    pub(crate) fn filled(&self) -> Option<Vec<bool>> {
        let rows = self.0.get()?;
        Some(rows.iter().map(|row| row.get().is_some()).collect())
    }

    /// Row `v` if it is filled.
    #[cfg(test)]
    pub(crate) fn row(&self, v: VertexId) -> Option<&[T]> {
        self.0.get()?[v as usize].get().map(|row| &row[..])
    }
}

/// One direction's derived walk data, a pure function of its CSR arrays:
/// the coin thresholds (whole direction, built on the first read) and the
/// one-step marginal and alias rows (per row, filled on each row's first
/// read).
#[derive(Debug, Clone, Default)]
pub(crate) struct DerivedData {
    /// Coin thresholds aligned with the direction's probabilities.
    pub(crate) thresholds: OnceLock<Vec<u64>>,
    /// One-step marginals, aligned with each row's neighbors.
    pub(crate) marginals: RowCells<f64>,
    /// Alias slots, `degree + 1` per row, built from the row's marginals.
    pub(crate) alias: RowCells<AliasSlot>,
}

impl DerivedData {
    /// Whether nothing has been built yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.thresholds.get().is_none()
            && self.marginals.filled().is_none()
            && self.alias.filled().is_none()
    }
}

/// [`coin_threshold`] of every probability, in order.
pub(crate) fn coin_thresholds_of(probs: &[Probability]) -> Vec<u64> {
    probs.iter().map(|&p| coin_threshold(p)).collect()
}

/// Read-only, direction-fixed adjacency: the interface walk samplers need.
///
/// [`CsrView`] implements it for the static CSR arrays, and
/// [`crate::OverlayView`] implements it for a CSR base patched by a
/// [`crate::DeltaOverlay`] — so `rwalk`'s walks read a live, mutating
/// graph through exactly the same sorted-slice reads they use for a frozen
/// one.  For any vertex whose adjacency the overlay has not touched, an
/// implementation must return the *identical* base slices, which is what
/// keeps the RNG draw order of walks over untouched vertices unchanged.
pub trait GraphView {
    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// Neighbors of `v` in this direction, sorted by vertex id.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Integer coin thresholds of `v`'s arcs ([`coin_threshold`] of each
    /// arc's probability), aligned with [`GraphView::neighbors`]: the walk
    /// kernel keeps an arc when the top 53 bits of its RNG word are below
    /// the threshold, the same outcome as the `f64` compare against the
    /// probability.
    fn coin_thresholds(&self, v: VertexId) -> &[u64];

    /// Walker alias slots of `v`'s exact one-step distribution, death
    /// included (`degree(v) + 1` slots, never empty; see [`crate::alias`]):
    /// the alias sampler's one draw per step.
    fn alias_slots(&self, v: VertexId) -> &[AliasSlot];

    /// Degree of `v` in this direction.
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }
}

/// A borrowed, direction-fixed view of an [`UncertainGraph`]: the flat
/// arrays of one direction plus its lazily built coin thresholds, one-step
/// marginals and alias rows.  `Copy`, eight words (three slices, a count
/// and the derived data's address) — hand it to workers freely.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    num_vertices: usize,
    offsets: &'a [usize],
    targets: &'a [VertexId],
    probs: &'a [Probability],
    derived: &'a DerivedData,
}

impl<'a> CsrView<'a> {
    /// Borrows one direction's arrays and its derived data.
    #[inline]
    pub(crate) fn new(
        num_vertices: usize,
        offsets: &'a [usize],
        targets: &'a [VertexId],
        probs: &'a [Probability],
        derived: &'a DerivedData,
    ) -> Self {
        CsrView {
            num_vertices,
            offsets,
            targets,
            probs,
            derived,
        }
    }

    /// The direction's derived data.
    #[cfg(test)]
    pub(crate) fn derived(&self) -> &'a DerivedData {
        self.derived
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of arcs `|E|`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Index range of `v`'s arcs within [`Self::targets_flat`] /
    /// [`Self::probs_flat`].
    ///
    /// `v` must be a vertex of the graph; out-of-range ids panic on the
    /// `offsets` index.  Fallible entry points (the batch `QueryEngine`
    /// APIs, the CLI) validate ids *before* reaching this hot path.
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        debug_assert!(
            v < self.num_vertices,
            "vertex {v} out of range (graph has {} vertices)",
            self.num_vertices
        );
        (self.offsets[v], self.offsets[v + 1])
    }

    /// Neighbors of `v` in this direction, sorted by vertex id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        let (start, end) = self.arc_range(v);
        &self.targets[start..end]
    }

    /// Probabilities of `v`'s arcs, aligned with [`Self::neighbors`].
    #[inline]
    pub fn probabilities(&self, v: VertexId) -> &'a [Probability] {
        let (start, end) = self.arc_range(v);
        &self.probs[start..end]
    }

    /// Coin thresholds of `v`'s arcs, aligned with [`Self::neighbors`].
    /// The first call on a direction builds the whole direction's table
    /// (one pass over its probabilities); later calls only slice it.
    #[inline]
    pub fn coin_thresholds(&self, v: VertexId) -> &'a [u64] {
        let (start, end) = self.arc_range(v);
        let probs = self.probs;
        &self
            .derived
            .thresholds
            .get_or_init(|| coin_thresholds_of(probs))[start..end]
    }

    /// Exact one-step marginals `Pr(v →₁ w)` of `v`'s arcs
    /// ([`crate::one_step_marginals`]), aligned with [`Self::neighbors`].
    /// The row is computed on its first read and served from its cell after
    /// that, whichever thread asks.
    #[inline]
    pub fn one_step_marginals(&self, v: VertexId) -> &'a [f64] {
        self.derived
            .marginals
            .get_or_init(self.num_vertices, v, || {
                one_step_marginals_row(self.probabilities(v))
            })
    }

    /// Walker alias slots of `v` ([`GraphView::alias_slots`]), built on the
    /// row's first read from its cached [`Self::one_step_marginals`] and
    /// served from its cell after that.
    #[inline]
    pub fn alias_slots(&self, v: VertexId) -> &'a [AliasSlot] {
        self.derived.alias.get_or_init(self.num_vertices, v, || {
            build_alias_row(self.neighbors(v), self.one_step_marginals(v))
        })
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (start, end) = self.arc_range(v);
        end - start
    }

    /// Whether the arc `(u, v)` exists in this direction — a binary search
    /// over `u`'s sorted neighbor slice.
    #[inline]
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Existence probability of the arc `(u, v)` in this direction, or `None`
    /// when the arc is absent — a binary search over `u`'s sorted neighbors.
    #[inline]
    pub fn arc_probability(&self, u: VertexId, v: VertexId) -> Option<Probability> {
        let (start, _) = self.arc_range(u);
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.probs[start + idx])
    }

    /// One-step transition probability `1 / degree(u)` of the uniform random
    /// walk on the skeleton, 0 when `(u, v)` is not an arc (binary search).
    #[inline]
    pub fn transition_probability(&self, u: VertexId, v: VertexId) -> f64 {
        let d = self.degree(u);
        if d > 0 && self.has_arc(u, v) {
            1.0 / d as f64
        } else {
            0.0
        }
    }

    /// The entire flat target array (all vertices concatenated).
    #[inline]
    pub fn targets_flat(&self) -> &'a [VertexId] {
        self.targets
    }

    /// The entire flat probability array, aligned with
    /// [`Self::targets_flat`].
    #[inline]
    pub fn probs_flat(&self) -> &'a [Probability] {
        self.probs
    }

    /// The offsets array (`num_vertices + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }
}

impl GraphView for CsrView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrView::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrView::neighbors(self, v)
    }

    #[inline]
    fn coin_thresholds(&self, v: VertexId) -> &[u64] {
        CsrView::coin_thresholds(self, v)
    }

    #[inline]
    fn alias_slots(&self, v: VertexId) -> &[AliasSlot] {
        CsrView::alias_slots(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrView::degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiGraph, UncertainGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig1_graph() -> UncertainGraph {
        UncertainGraph::from_arcs(
            5,
            [
                (0, 2, 0.8),
                (0, 3, 0.5),
                (1, 0, 0.8),
                (1, 2, 0.9),
                (2, 0, 0.7),
                (2, 3, 0.6),
                (3, 4, 0.6),
                (3, 1, 0.8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn forward_view_matches_out_arcs() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 8);
        let fwd = g.forward();
        for v in g.vertices() {
            let (nbrs, probs) = g.out_arcs(v);
            assert_eq!(fwd.neighbors(v), nbrs);
            assert_eq!(fwd.probabilities(v), probs);
            assert_eq!(fwd.degree(v), g.out_degree(v));
        }
    }

    #[test]
    fn reverse_view_matches_in_arcs_and_the_transpose() {
        let g = fig1_graph();
        let rev = g.reverse();
        for v in g.vertices() {
            let (nbrs, probs) = g.in_arcs(v);
            assert_eq!(rev.neighbors(v), nbrs);
            assert_eq!(rev.probabilities(v), probs);
        }
        // The reverse view IS the forward view of the transpose, built here
        // by sorting the reversed arcs from scratch.
        let transposed =
            UncertainGraph::from_arcs(5, g.arcs().map(|a| (a.target, a.source, a.probability)))
                .unwrap();
        let tf = transposed.forward();
        for v in g.vertices() {
            assert_eq!(rev.neighbors(v), tf.neighbors(v));
            assert_eq!(rev.probabilities(v), tf.probabilities(v));
        }
    }

    #[test]
    fn neighbor_slices_are_sorted_for_binary_search() {
        let g = fig1_graph();
        for view in [g.forward(), g.reverse()] {
            for v in 0..g.num_vertices() as VertexId {
                let nbrs = view.neighbors(v);
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            }
        }
    }

    #[test]
    fn arc_lookups_use_both_directions() {
        let g = fig1_graph();
        let fwd = g.forward();
        let rev = g.reverse();
        assert!(fwd.has_arc(0, 2));
        assert!(!fwd.has_arc(2, 1));
        assert!(rev.has_arc(2, 0), "reverse direction flips the arc");
        assert_eq!(fwd.arc_probability(0, 2), Some(0.8));
        assert_eq!(rev.arc_probability(2, 0), Some(0.8));
        assert_eq!(fwd.arc_probability(0, 4), None);
        assert!((fwd.transition_probability(0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(fwd.transition_probability(0, 4), 0.0);
        assert_eq!(fwd.transition_probability(4, 0), 0.0);
    }

    #[test]
    fn digraph_build_gets_unit_probabilities() {
        let d = DiGraph::from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).unwrap();
        let g = UncertainGraph::from_digraph_with_probability(&d, 1.0).unwrap();
        assert_eq!(g.num_arcs(), 5);
        let fwd = g.forward();
        for v in d.vertices() {
            assert_eq!(fwd.neighbors(v), d.out_neighbors(v));
            assert!(fwd.probabilities(v).iter().all(|&p| p == 1.0));
            assert_eq!(g.reverse().neighbors(v), d.in_neighbors(v));
        }
    }

    #[test]
    fn flat_arrays_are_consistent_with_offsets() {
        let g = fig1_graph();
        let fwd = g.forward();
        assert_eq!(fwd.offsets().len(), 6);
        assert_eq!(*fwd.offsets().last().unwrap(), fwd.targets_flat().len());
        assert_eq!(fwd.targets_flat().len(), fwd.probs_flat().len());
        let (start, end) = fwd.arc_range(1);
        assert_eq!(&fwd.targets_flat()[start..end], fwd.neighbors(1));
    }

    #[test]
    fn coin_thresholds_decide_exactly_like_the_float_coin() {
        // The walk kernel keeps an arc when `y < T(p)`, the sampler it must
        // reproduce when `y · 2⁻⁵³ < p`, for the 53-bit coin `y`.
        let unit = 1.0 / (1u64 << 53) as f64;
        let max_coin = (1u64 << 53) - 1;
        let half = 0.5f64.to_bits();
        let mut probabilities = vec![
            1.0,
            0.5,
            0.75,
            1.0 - unit,
            unit,
            unit / 2.0,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::from_bits(half - 1),
            f64::from_bits(half + 1),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for i in 0..10_000 {
            let word: u64 = rng.gen();
            probabilities.push(if i % 2 == 0 {
                // Uniform on the 53-bit grid, like the arcs of real graphs.
                (word >> 11) as f64 * unit + unit
            } else {
                // Uniform over bit patterns below 1.0: every exponent.
                f64::from_bits(word % 1.0f64.to_bits())
            });
        }
        for p in probabilities {
            let t = coin_threshold(p);
            let mut coins = vec![0, t.saturating_sub(1), t, t + 1, max_coin];
            coins.extend((0..16).map(|_| rng.gen::<u64>() >> 11));
            for y in coins.into_iter().filter(|&y| y <= max_coin) {
                assert_eq!(
                    y < t,
                    (y as f64) * unit < p,
                    "p = {p:e} (bits {:#x}), T = {t}, y = {y}",
                    p.to_bits()
                );
            }
        }
        assert_eq!(coin_threshold(1.0), 1u64 << 53);
        assert_eq!(coin_threshold(5e-324), 1);
        for never in [0.0, -0.0, -0.5, f64::NAN] {
            assert_eq!(coin_threshold(never), 0, "{never} never keeps an arc");
        }
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = UncertainGraph::from_arcs(3, [(0, 1, 0.5)]).unwrap();
        assert_eq!(g.forward().degree(2), 0);
        assert_eq!(g.forward().neighbors(2), &[] as &[VertexId]);
        assert_eq!(g.reverse().degree(0), 0);
        let empty = UncertainGraph::from_arcs(0, []).unwrap();
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.num_arcs(), 0);
    }
}
