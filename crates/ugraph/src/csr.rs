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

#[cfg(doc)]
use crate::uncertain::UncertainGraph;
use crate::{Probability, VertexId};

/// Read-only, direction-fixed adjacency: the interface walk samplers need.
///
/// [`CsrView`] implements it for the static CSR arrays, and
/// [`crate::OverlayView`] implements it for a CSR base patched by a
/// [`crate::DeltaOverlay`] — so `rwalk::CsrSampler` walks a live, mutating
/// graph through exactly the same sorted-slice reads it uses for a frozen
/// one.  For any vertex whose adjacency the overlay has not touched, an
/// implementation must return the *identical* base slices, which is what
/// keeps the RNG draw order of walks over untouched vertices unchanged.
pub trait GraphView {
    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// Neighbors of `v` in this direction, sorted by vertex id.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Probabilities of `v`'s arcs, aligned with [`GraphView::neighbors`].
    fn probabilities(&self, v: VertexId) -> &[Probability];

    /// Degree of `v` in this direction.
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }
}

/// A borrowed, direction-fixed view of an [`UncertainGraph`]: the three flat arrays
/// of one direction.  `Copy`, pointer-sized ×4 — hand it to workers freely.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    num_vertices: usize,
    offsets: &'a [usize],
    targets: &'a [VertexId],
    probs: &'a [Probability],
}

impl<'a> CsrView<'a> {
    /// Borrows one direction's arrays.
    #[inline]
    pub(crate) fn new(
        num_vertices: usize,
        offsets: &'a [usize],
        targets: &'a [VertexId],
        probs: &'a [Probability],
    ) -> Self {
        CsrView {
            num_vertices,
            offsets,
            targets,
            probs,
        }
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
    fn probabilities(&self, v: VertexId) -> &[Probability] {
        CsrView::probabilities(self, v)
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
