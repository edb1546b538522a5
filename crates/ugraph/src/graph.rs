//! Deterministic directed graphs in compressed sparse row (CSR) form.

use crate::{GraphError, VertexId};

/// A deterministic directed graph.
///
/// The graph is stored in CSR form twice: once for out-neighbors (forward
/// adjacency) and once for in-neighbors (reverse adjacency).  SimRank needs
/// fast access to *in*-neighbors (its recursive definition averages over
/// in-neighbor pairs) while random walks need fast access to *out*-neighbors,
/// so both directions are materialised.
///
/// Neighbor lists are sorted by vertex id, which makes arc lookups
/// (`has_arc`) a binary search and makes iteration deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    pub(crate) num_vertices: usize,
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_targets: Vec<VertexId>,
    pub(crate) in_offsets: Vec<usize>,
    pub(crate) in_sources: Vec<VertexId>,
}

impl DiGraph {
    /// Builds a graph with `num_vertices` vertices from an arc list.
    ///
    /// Duplicate arcs are rejected with [`GraphError::DuplicateArc`]; vertex
    /// ids must be `< num_vertices`.
    pub fn from_arcs(
        num_vertices: usize,
        arcs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let mut pairs: Vec<(VertexId, VertexId)> = arcs.into_iter().collect();
        for &(u, v) in &pairs {
            for w in [u, v] {
                if (w as usize) >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: w as u64,
                        num_vertices,
                    });
                }
            }
        }
        pairs.sort_unstable();
        if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateArc {
                source: w[0].0,
                target: w[0].1,
            });
        }
        Ok(Self::from_sorted_unique_arcs(num_vertices, &pairs))
    }

    /// Builds a graph from arcs that are already sorted by `(source, target)`
    /// and known to be unique.  Used by the builders after validation.
    pub(crate) fn from_sorted_unique_arcs(
        num_vertices: usize,
        pairs: &[(VertexId, VertexId)],
    ) -> Self {
        Self::from_sorted_unique_arcs_with(num_vertices, pairs, |_, _| {})
    }

    /// [`DiGraph::from_sorted_unique_arcs`], calling `place(i, slot)` as the
    /// counting sort puts arc `pairs[i]` at `slot` of the reverse arrays, so
    /// a caller can lay out per-arc data of the reverse direction in the
    /// same pass.
    pub(crate) fn from_sorted_unique_arcs_with(
        num_vertices: usize,
        pairs: &[(VertexId, VertexId)],
        mut place: impl FnMut(usize, usize),
    ) -> Self {
        let m = pairs.len();
        let mut out_offsets = vec![0usize; num_vertices + 1];
        for &(u, _) in pairs {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<VertexId> = pairs.iter().map(|&(_, v)| v).collect();

        // Reverse adjacency: counting sort by target.
        let mut in_offsets = vec![0usize; num_vertices + 1];
        for &(_, v) in pairs {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as VertexId; m];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let slot = cursor[v as usize];
            in_sources[slot] = u;
            place(i, slot);
            cursor[v as usize] += 1;
        }
        // Within each in-neighbor list the sources are already sorted because
        // `pairs` is sorted by source first.
        DiGraph {
            num_vertices,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Number of vertices `|V(G)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of arcs `|E(G)|`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors `O_G(v)` of `v`, sorted by vertex id.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors `I_G(v)` of `v`, sorted by vertex id.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree `|O_G(v)|`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree `|I_G(v)|`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the arc `(u, v)` exists.
    #[inline]
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all arcs `(u, v)` in sorted order.
    pub fn arcs(&self) -> ArcIter<'_> {
        ArcIter {
            graph: self,
            source: 0,
            position: 0,
        }
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// Average out-degree `|E| / |V|` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices as f64
        }
    }

    /// Returns the transposed graph (every arc reversed).
    ///
    /// SimRank's random-walk interpretation follows *in*-edges (two walks
    /// step to uniformly chosen in-neighbors), which is the same as walking
    /// forward on the transposed graph.  Both directions are stored sorted,
    /// so the transpose swaps them: no arc is re-sorted.
    pub fn transpose(&self) -> DiGraph {
        DiGraph {
            num_vertices: self.num_vertices,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// One-step transition probability `Pr(u →₁ v)` of the uniform random walk
    /// on this deterministic graph: `1 / |O_G(u)|` if `(u, v)` is an arc and 0
    /// otherwise (Section II of the paper).
    pub fn transition_probability(&self, u: VertexId, v: VertexId) -> f64 {
        let d = self.out_degree(u);
        if d > 0 && self.has_arc(u, v) {
            1.0 / d as f64
        } else {
            0.0
        }
    }
}

/// Iterator over the arcs of a [`DiGraph`] in `(source, target)` order.
#[derive(Debug, Clone)]
pub struct ArcIter<'a> {
    graph: &'a DiGraph,
    source: usize,
    position: usize,
}

impl<'a> Iterator for ArcIter<'a> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.source < self.graph.num_vertices {
            let end = self.graph.out_offsets[self.source + 1];
            if self.position < end {
                let target = self.graph.out_targets[self.position];
                self.position += 1;
                return Some((self.source as VertexId, target));
            }
            self.source += 1;
            self.position = self.graph.out_offsets[self.source];
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.graph.out_targets.len() - self.position;
        (remaining, Some(remaining))
    }
}

impl<'a> ExactSizeIterator for ArcIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        DiGraph::from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 5);
        assert!((g.average_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_correct_and_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(3), &[0]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn has_arc_lookup() {
        let g = diamond();
        assert!(g.has_arc(0, 1));
        assert!(g.has_arc(3, 0));
        assert!(!g.has_arc(1, 0));
        assert!(!g.has_arc(0, 3));
    }

    #[test]
    fn arc_iterator_yields_all_arcs_in_order() {
        let g = diamond();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        assert_eq!(g.arcs().len(), 5);
    }

    #[test]
    fn transition_probabilities_are_uniform_over_out_neighbors() {
        let g = diamond();
        assert!((g.transition_probability(0, 1) - 0.5).abs() < 1e-12);
        assert!((g.transition_probability(0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(g.transition_probability(0, 3), 0.0);
        assert!((g.transition_probability(1, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        let err = DiGraph::from_arcs(3, [(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn rejects_duplicate_arcs() {
        let err = DiGraph::from_arcs(3, [(0, 1), (0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::DuplicateArc {
                source: 0,
                target: 1
            }
        ));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = DiGraph::from_arcs(0, []).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.arcs().count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn isolated_vertices_have_empty_neighborhoods() {
        let g = DiGraph::from_arcs(5, [(0, 1)]).unwrap();
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(4), &[] as &[VertexId]);
        assert_eq!(g.transition_probability(3, 0), 0.0);
    }

    #[test]
    fn transpose_reverses_every_arc() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_vertices(), g.num_vertices());
        assert_eq!(t.num_arcs(), g.num_arcs());
        for (u, v) in g.arcs() {
            assert!(t.has_arc(v, u));
        }
        assert_eq!(t.transpose(), g);
        assert_eq!(t.out_neighbors(3), g.in_neighbors(3));
    }

    #[test]
    fn self_loops_are_representable() {
        let g = DiGraph::from_arcs(2, [(0, 0), (0, 1)]).unwrap();
        assert!(g.has_arc(0, 0));
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 1);
    }
}
