//! Uncertain directed graphs: every arc carries an independent existence
//! probability in `(0, 1]` (the tuple `(V, E, P)` of Section II of the paper).

use crate::alias::{AliasTable, CsrAliasView};
use crate::csr::CsrView;
use crate::graph::DiGraph;
use crate::{GraphError, Probability, VertexId};

/// An arc of an uncertain graph together with its existence probability.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProbArc {
    /// Source vertex.
    pub source: VertexId,
    /// Target vertex.
    pub target: VertexId,
    /// Existence probability in `(0, 1]`.
    pub probability: Probability,
}

/// A directed uncertain graph in CSR form.
///
/// The topology is stored exactly like [`DiGraph`] (forward + reverse CSR)
/// with a parallel array of arc probabilities for each direction, so that
/// `out_arcs(v)` yields the out-neighbors of `v` together with the
/// probabilities of the corresponding arcs without any indirection.  These
/// arrays are also what every random walk reads: [`UncertainGraph::forward`]
/// and [`UncertainGraph::reverse`] borrow them as [`CsrView`]s, so samplers
/// and the batch engine walk the graph itself, not a copy.
///
/// # Alias tables
///
/// The graph optionally carries precomputed Walker alias tables for both
/// directions (see [`crate::alias`]), built on demand by
/// [`UncertainGraph::build_alias_tables`] — only engines configured for the
/// alias sampler backend pay the `O(Σ d²)` build.  The tables are *derived*
/// data (a pure function of the CSR arrays), so [`PartialEq`] deliberately
/// ignores them: a graph with tables equals the same graph without.
#[derive(Debug, Clone)]
pub struct UncertainGraph {
    skeleton: DiGraph,
    /// Probability of the arc `(v, out_targets[i])`, aligned with the forward
    /// CSR of `skeleton`.
    out_probabilities: Vec<Probability>,
    /// Probability of the arc `(in_sources[i], v)`, aligned with the reverse
    /// CSR of `skeleton`.
    in_probabilities: Vec<Probability>,
    /// `(forward, reverse)` alias tables, present only when built or loaded
    /// from a snapshot that persisted them.
    alias: Option<Box<(AliasTable, AliasTable)>>,
}

impl PartialEq for UncertainGraph {
    /// Structural equality of the CSR arrays only — the optional alias
    /// tables are derived data and do not participate.
    fn eq(&self, other: &Self) -> bool {
        self.skeleton == other.skeleton
            && self.out_probabilities == other.out_probabilities
            && self.in_probabilities == other.in_probabilities
    }
}

/// One direction's flat `(offsets, targets, probabilities)` arrays.
pub(crate) type RawDirection = (Vec<usize>, Vec<VertexId>, Vec<Probability>);

impl UncertainGraph {
    /// Builds an uncertain graph from a list of probabilistic arcs.
    pub fn from_arcs(
        num_vertices: usize,
        arcs: impl IntoIterator<Item = (VertexId, VertexId, Probability)>,
    ) -> Result<Self, GraphError> {
        let mut triples: Vec<(VertexId, VertexId, Probability)> = arcs.into_iter().collect();
        for &(u, v, p) in &triples {
            for w in [u, v] {
                if (w as usize) >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: w as u64,
                        num_vertices,
                    });
                }
            }
            if !crate::is_valid_probability(p) {
                return Err(GraphError::InvalidProbability {
                    source: u,
                    target: v,
                    probability: p,
                });
            }
        }
        triples.sort_unstable_by_key(|&(u, v, _)| (u, v));
        if let Some(w) = triples
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err(GraphError::DuplicateArc {
                source: w[0].0,
                target: w[0].1,
            });
        }
        Ok(Self::from_sorted_unique_arcs(num_vertices, &triples))
    }

    pub(crate) fn from_sorted_unique_arcs(
        num_vertices: usize,
        triples: &[(VertexId, VertexId, Probability)],
    ) -> Self {
        let pairs: Vec<(VertexId, VertexId)> = triples.iter().map(|&(u, v, _)| (u, v)).collect();
        let out_probabilities: Vec<Probability> = triples.iter().map(|&(_, _, p)| p).collect();
        // The counting sort that lays out the reverse CSR places each arc's
        // probability next to it.
        let mut in_probabilities = vec![0.0; triples.len()];
        let skeleton = DiGraph::from_sorted_unique_arcs_with(num_vertices, &pairs, |i, slot| {
            in_probabilities[slot] = out_probabilities[i];
        });
        UncertainGraph {
            skeleton,
            out_probabilities,
            in_probabilities,
            alias: None,
        }
    }

    /// Builds the graph from flat arrays that already hold both directions,
    /// one `(offsets, targets, probabilities)` triple each: the snapshot
    /// reader and [`crate::DeltaOverlay`] compaction, which hold both in
    /// sorted form.  The caller guarantees the CSR invariants.
    pub(crate) fn from_raw_directions(
        num_vertices: usize,
        forward: RawDirection,
        reverse: RawDirection,
    ) -> Self {
        let (out_offsets, out_targets, out_probabilities) = forward;
        let (in_offsets, in_sources, in_probabilities) = reverse;
        debug_assert_eq!(out_offsets.len(), num_vertices + 1);
        debug_assert_eq!(in_offsets.len(), num_vertices + 1);
        debug_assert_eq!(out_offsets.last().copied(), Some(out_targets.len()));
        debug_assert_eq!(in_offsets.last().copied(), Some(in_sources.len()));
        debug_assert_eq!(out_targets.len(), out_probabilities.len());
        debug_assert_eq!(in_sources.len(), in_probabilities.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        UncertainGraph {
            skeleton: DiGraph {
                num_vertices,
                out_offsets,
                out_targets,
                in_offsets,
                in_sources,
            },
            out_probabilities,
            in_probabilities,
            alias: None,
        }
    }

    /// Number of vertices `|V(G)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.skeleton.num_vertices()
    }

    /// Number of arcs `|E(G)|`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.skeleton.num_arcs()
    }

    /// The deterministic skeleton (all arcs present, probabilities dropped).
    ///
    /// This is the graph the paper calls "the deterministic graph obtained by
    /// removing uncertainty from the uncertain graph" (used by SimRank-II,
    /// Jaccard-II, DSIM and SimDER).
    #[inline]
    pub fn skeleton(&self) -> &DiGraph {
        &self.skeleton
    }

    /// Consumes the uncertain graph and returns its deterministic skeleton.
    pub fn into_skeleton(self) -> DiGraph {
        self.skeleton
    }

    /// The forward view: `neighbors(v)` are the out-neighbors of `v`.
    #[inline]
    pub fn forward(&self) -> CsrView<'_> {
        CsrView::new(
            self.skeleton.num_vertices,
            &self.skeleton.out_offsets,
            &self.skeleton.out_targets,
            &self.out_probabilities,
        )
    }

    /// The reverse (transpose) view: `neighbors(v)` are the in-neighbors of
    /// `v`.  Walking this view is identical to walking the forward view of
    /// the transposed graph — the direction SimRank's walks use.
    #[inline]
    pub fn reverse(&self) -> CsrView<'_> {
        CsrView::new(
            self.skeleton.num_vertices,
            &self.skeleton.in_offsets,
            &self.skeleton.in_sources,
            &self.in_probabilities,
        )
    }

    /// Out-neighbors `O_G(v)`, sorted by vertex id.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.skeleton.out_neighbors(v)
    }

    /// In-neighbors `I_G(v)`, sorted by vertex id.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.skeleton.in_neighbors(v)
    }

    /// Out-degree `|O_G(v)|` (number of *possible* out-arcs).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.skeleton.out_degree(v)
    }

    /// In-degree `|I_G(v)|` (number of *possible* in-arcs).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.skeleton.in_degree(v)
    }

    /// Whether the (possible) arc `(u, v)` exists in `E(G)`.
    #[inline]
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.skeleton.has_arc(u, v)
    }

    /// Out-neighbors of `v` together with the probabilities of the arcs
    /// leaving `v`, as parallel slices.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> (&[VertexId], &[Probability]) {
        let forward = self.forward();
        (forward.neighbors(v), forward.probabilities(v))
    }

    /// In-neighbors of `v` together with the probabilities of the arcs
    /// entering `v`, as parallel slices.
    #[inline]
    pub fn in_arcs(&self, v: VertexId) -> (&[VertexId], &[Probability]) {
        let reverse = self.reverse();
        (reverse.neighbors(v), reverse.probabilities(v))
    }

    /// Existence probability of the arc `(u, v)`, or `None` if `(u, v)` is not
    /// an arc of the uncertain graph.
    pub fn arc_probability(&self, u: VertexId, v: VertexId) -> Option<Probability> {
        self.forward().arc_probability(u, v)
    }

    /// Iterator over all probabilistic arcs in `(source, target)` order.
    pub fn arcs(&self) -> impl Iterator<Item = ProbArc> + '_ {
        self.skeleton.arcs().zip(self.out_probabilities.iter()).map(
            |((source, target), &probability)| ProbArc {
                source,
                target,
                probability,
            },
        )
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.skeleton.vertices()
    }

    /// Average out-degree `|E| / |V|` of the *possible* arcs.
    pub fn average_degree(&self) -> f64 {
        self.skeleton.average_degree()
    }

    /// Expected number of arcs, `Σ_e P(e)`.
    pub fn expected_num_arcs(&self) -> f64 {
        self.out_probabilities.iter().sum()
    }

    /// Returns a copy of this graph with every probability replaced by 1.
    ///
    /// By Theorem 3 of the paper, SimRank on the result equals deterministic
    /// SimRank on [`UncertainGraph::skeleton`]; the tests rely on this.
    pub fn certain(&self) -> UncertainGraph {
        UncertainGraph {
            skeleton: self.skeleton.clone(),
            out_probabilities: vec![1.0; self.out_probabilities.len()],
            in_probabilities: vec![1.0; self.in_probabilities.len()],
            alias: None,
        }
    }

    /// Returns the transposed uncertain graph (every arc reversed, keeping
    /// its probability).
    ///
    /// Both directions are stored sorted, so the transpose swaps them (alias
    /// tables included) without re-sorting a single arc.
    pub fn transpose(&self) -> UncertainGraph {
        UncertainGraph {
            skeleton: self.skeleton.transpose(),
            out_probabilities: self.in_probabilities.clone(),
            in_probabilities: self.out_probabilities.clone(),
            alias: self
                .alias
                .as_deref()
                .map(|(forward, reverse)| Box::new((reverse.clone(), forward.clone()))),
        }
    }

    /// Wraps a deterministic graph as an uncertain graph whose arcs all have
    /// the given probability.
    pub fn from_digraph_with_probability(
        graph: &DiGraph,
        probability: Probability,
    ) -> Result<Self, GraphError> {
        Self::from_arcs(
            graph.num_vertices(),
            graph.arcs().map(|(u, v)| (u, v, probability)),
        )
    }

    /// A copy of `graph`.  Kept only for the benchmark harness, which calls
    /// `CsrGraph::from_uncertain`; deleted at the next change to the
    /// benchmark.
    pub fn from_uncertain(graph: &UncertainGraph) -> Self {
        graph.clone()
    }

    /// Whether alias tables have been built (or loaded) for this graph.
    #[inline]
    pub fn has_alias_tables(&self) -> bool {
        self.alias.is_some()
    }

    /// Builds the Walker alias tables for both directions (`O(Σ d²)`); a
    /// no-op when tables are already present.
    pub fn build_alias_tables(&mut self) {
        if self.alias.is_none() {
            let forward = AliasTable::from_view(self.forward());
            let reverse = AliasTable::from_view(self.reverse());
            self.alias = Some(Box::new((forward, reverse)));
        }
    }

    /// Installs pre-built alias tables (the snapshot reader and overlay
    /// compaction, which construct tables out of band).
    pub(crate) fn set_alias_tables(&mut self, forward: AliasTable, reverse: AliasTable) {
        debug_assert_eq!(forward.num_slots(), self.num_arcs() + self.num_vertices());
        debug_assert_eq!(reverse.num_slots(), self.num_arcs() + self.num_vertices());
        self.alias = Some(Box::new((forward, reverse)));
    }

    /// The `(forward, reverse)` alias tables, when built.
    pub(crate) fn alias_tables(&self) -> Option<(&AliasTable, &AliasTable)> {
        self.alias.as_deref().map(|t| (&t.0, &t.1))
    }

    /// The forward-direction alias view, when tables are built.
    #[inline]
    pub fn forward_alias(&self) -> Option<CsrAliasView<'_>> {
        self.alias.as_deref().map(|t| t.0.view())
    }

    /// The reverse-direction alias view, when tables are built.
    #[inline]
    pub fn reverse_alias(&self) -> Option<CsrAliasView<'_>> {
        self.alias.as_deref().map(|t| t.1.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn fig1_graph() -> UncertainGraph {
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
    fn counts_and_degrees() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.in_degree(3), 2);
        assert!((g.average_degree() - 8.0 / 5.0).abs() < 1e-12);
        assert!((g.expected_num_arcs() - 5.7).abs() < 1e-12);
    }

    #[test]
    fn arc_probability_lookup() {
        let g = fig1_graph();
        assert!((g.arc_probability(0, 2).unwrap() - 0.8).abs() < 1e-12);
        assert!((g.arc_probability(3, 1).unwrap() - 0.8).abs() < 1e-12);
        assert!((g.arc_probability(2, 3).unwrap() - 0.6).abs() < 1e-12);
        assert!(g.arc_probability(0, 4).is_none());
        assert!(g.arc_probability(4, 0).is_none());
    }

    #[test]
    fn out_arcs_and_in_arcs_are_aligned() {
        let g = fig1_graph();
        let (nbrs, probs) = g.out_arcs(0);
        assert_eq!(nbrs, &[2, 3]);
        assert_eq!(probs, &[0.8, 0.5]);

        let (nbrs, probs) = g.in_arcs(3);
        assert_eq!(nbrs, &[0, 2]);
        assert_eq!(probs, &[0.5, 0.6]);

        let (nbrs, probs) = g.in_arcs(0);
        assert_eq!(nbrs, &[1, 2]);
        assert_eq!(probs, &[0.8, 0.7]);

        // Every arc's probability is consistent between the two directions.
        for arc in g.arcs() {
            let (in_nbrs, in_probs) = g.in_arcs(arc.target);
            let idx = in_nbrs.iter().position(|&u| u == arc.source).unwrap();
            assert!((in_probs[idx] - arc.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn arcs_iterator_in_order() {
        let g = fig1_graph();
        let arcs: Vec<(VertexId, VertexId)> = g.arcs().map(|a| (a.source, a.target)).collect();
        assert_eq!(
            arcs,
            vec![
                (0, 2),
                (0, 3),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 1),
                (3, 4)
            ]
        );
    }

    #[test]
    fn rejects_invalid_probability() {
        let err = UncertainGraph::from_arcs(2, [(0, 1, 0.0)]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
        let err = UncertainGraph::from_arcs(2, [(0, 1, 1.2)]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_duplicate_and_out_of_range() {
        let err = UncertainGraph::from_arcs(2, [(0, 1, 0.5), (0, 1, 0.6)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateArc { .. }));
        let err = UncertainGraph::from_arcs(2, [(0, 7, 0.5)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn certain_copy_has_probability_one_everywhere() {
        let g = fig1_graph().certain();
        for arc in g.arcs() {
            assert_eq!(arc.probability, 1.0);
        }
        assert_eq!(g.skeleton(), fig1_graph().skeleton());
    }

    #[test]
    fn skeleton_matches_topology() {
        let g = fig1_graph();
        let s = g.skeleton();
        assert_eq!(s.num_arcs(), 8);
        assert!(s.has_arc(0, 2));
        assert!(!s.has_arc(2, 1));
        let into = g.clone().into_skeleton();
        assert_eq!(&into, s);
    }

    #[test]
    fn transpose_preserves_probabilities() {
        let g = fig1_graph();
        let t = g.transpose();
        assert_eq!(t.num_arcs(), g.num_arcs());
        for arc in g.arcs() {
            let p = t.arc_probability(arc.target, arc.source).unwrap();
            assert!((p - arc.probability).abs() < 1e-12);
        }
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn from_digraph_with_probability() {
        let d = DiGraph::from_arcs(3, [(0, 1), (1, 2)]).unwrap();
        let g = UncertainGraph::from_digraph_with_probability(&d, 0.25).unwrap();
        assert_eq!(g.num_arcs(), 2);
        assert!((g.arc_probability(0, 1).unwrap() - 0.25).abs() < 1e-12);
    }
}
