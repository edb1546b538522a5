//! Classic SimRank on deterministic graphs (Jeh & Widom), in both the
//! iterative matrix form (Eq. 3 of the paper) and the random-walk
//! (meeting-probability) form.
//!
//! These are the paper's comparison baselines that ignore uncertainty:
//! SimRank-II in the measure-comparison experiment (Fig. 7 / Table III), and
//! DSIM / SimDER in the case studies — all of them are classic SimRank run on
//! the skeleton of the uncertain graph.

use crate::meeting::combine_meeting_probabilities;
use crate::SimRankEstimator;
use ugraph::{DiGraph, VertexId};
use umatrix::{DenseMatrix, SparseMatrix, SparseVector};

/// Column-normalised adjacency matrix `A` of `g`: `A[i][j] = 1/|I(v_j)|` if
/// `(v_i, v_j)` is an arc, 0 otherwise.
fn column_normalized_adjacency(g: &DiGraph) -> DenseMatrix {
    let n = g.num_vertices();
    let mut a = DenseMatrix::zeros(n, n);
    for v in g.vertices() {
        let in_neighbors = g.in_neighbors(v);
        if in_neighbors.is_empty() {
            continue;
        }
        let weight = 1.0 / in_neighbors.len() as f64;
        for &u in in_neighbors {
            a[(u as usize, v as usize)] = weight;
        }
    }
    a
}

/// One-step transition matrix of the *reverse* random walk (step to a
/// uniformly chosen in-neighbor), as a sparse row-stochastic matrix.
fn reverse_transition_matrix(g: &DiGraph) -> SparseMatrix {
    let n = g.num_vertices();
    let mut triplets = Vec::with_capacity(g.num_arcs());
    for v in g.vertices() {
        let in_neighbors = g.in_neighbors(v);
        if in_neighbors.is_empty() {
            continue;
        }
        let weight = 1.0 / in_neighbors.len() as f64;
        for &u in in_neighbors {
            triplets.push((v, u, weight));
        }
    }
    SparseMatrix::from_triplets(n, n, triplets)
}

/// All-pairs SimRank on a deterministic graph by the iterative formula
/// `S⁽⁰⁾ = I`, `S⁽ᵏ⁾ = c·Aᵀ S⁽ᵏ⁻¹⁾ A + (1 − c)·I` (Eq. 3 of the paper).
///
/// # Panics
///
/// Panics unless `0 < c < 1` and `n ≥ 1`.
pub fn simrank_all_pairs(g: &DiGraph, c: f64, n: usize) -> DenseMatrix {
    assert!(c > 0.0 && c < 1.0, "the decay factor must lie in (0, 1)");
    assert!(n >= 1, "at least one iteration is required");
    let a = column_normalized_adjacency(g);
    let a_t = a.transpose();
    let size = g.num_vertices();
    let mut s = DenseMatrix::identity(size);
    for _ in 0..n {
        let mut next = a_t.matmul(&s).matmul(&a);
        next.scale(c);
        for i in 0..size {
            next[(i, i)] += 1.0 - c;
        }
        s = next;
    }
    s
}

/// Single-pair SimRank on a deterministic graph via reverse-walk meeting
/// probabilities: `s⁽ⁿ⁾(u, v) = cⁿ m(n) + (1 − c) Σ_{k<n} cᵏ m(k)` where
/// `m(k)` is the probability that two reverse walks from `u` and `v` are at
/// the same vertex after `k` steps.
pub fn simrank_single_pair(g: &DiGraph, u: VertexId, v: VertexId, c: f64, n: usize) -> f64 {
    assert!(c > 0.0 && c < 1.0, "the decay factor must lie in (0, 1)");
    assert!(n >= 1, "at least one iteration is required");
    let transition = reverse_transition_matrix(g);
    let mut row_u = SparseVector::unit(u, 1.0);
    let mut row_v = SparseVector::unit(v, 1.0);
    let mut meeting = Vec::with_capacity(n + 1);
    meeting.push(if u == v { 1.0 } else { 0.0 });
    for _ in 1..=n {
        row_u = transition.vecmat(&row_u);
        row_v = transition.vecmat(&row_v);
        meeting.push(row_u.dot(&row_v));
    }
    combine_meeting_probabilities(&meeting, c)
}

/// Precomputed all-pairs SimRank of a deterministic graph, for workloads that
/// query many pairs of the same graph (the DSIM / SimDER baselines).
#[derive(Debug, Clone)]
pub struct DeterministicSimRank {
    matrix: DenseMatrix,
    decay: f64,
    iterations: usize,
}

impl DeterministicSimRank {
    /// Computes all-pairs SimRank with decay `c` and `n` iterations.
    pub fn new(g: &DiGraph, c: f64, n: usize) -> Self {
        DeterministicSimRank {
            matrix: simrank_all_pairs(g, c, n),
            decay: c,
            iterations: n,
        }
    }

    /// The SimRank similarity `s(u, v)`.
    pub fn similarity(&self, u: VertexId, v: VertexId) -> f64 {
        self.matrix[(u as usize, v as usize)]
    }

    /// The full similarity matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }

    /// The decay factor the matrix was computed with.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// The number of iterations the matrix was computed with.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Classic SimRank through the shared estimator interface: the paper's
/// SimRank-II / DSIM baseline when built on an uncertain graph's skeleton.
impl SimRankEstimator for DeterministicSimRank {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.matrix[(u as usize, v as usize)]
    }

    fn name(&self) -> &'static str {
        "SimRank-II (no uncertainty)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::DiGraphBuilder;

    /// The in-neighbor structure used in many SimRank papers: two professors
    /// and two students linked through a shared university page.
    fn small_graph() -> DiGraph {
        // 0 = Univ, 1 = ProfA, 2 = ProfB, 3 = StudentA, 4 = StudentB
        DiGraphBuilder::new(5)
            .arc(0, 1)
            .arc(0, 2)
            .arc(1, 3)
            .arc(2, 4)
            .arc(3, 0)
            .arc(4, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn diagonal_dominates_and_stays_in_range() {
        // Under Eq. (3) — the approximation the paper adopts — the diagonal
        // is *not* pinned to 1: s(u,u) combines the probabilities that two
        // independent reverse walks from u meet, which is below 1 whenever u
        // has more than one in-neighbor.  It must still lie in (0, 1].
        let g = small_graph();
        let s = simrank_all_pairs(&g, 0.6, 8);
        for i in 0..g.num_vertices() {
            assert!(
                s[(i, i)] > 0.0 && s[(i, i)] <= 1.0 + 1e-12,
                "s({i},{i}) = {}",
                s[(i, i)]
            );
            // Every vertex here has at most one in-neighbor pair to average
            // over, and the decay keeps (1 - c) as a hard floor.
            assert!(s[(i, i)] >= 1.0 - 0.6 - 1e-12);
        }
        // Vertices with a single in-neighbor have s(u,u) = c * s(w,w) + (1-c)
        // where w is that in-neighbor (a fixpoint relation, so allow the
        // finite-iteration slack); spot-check vertex 3 (in-neighbor 1).
        assert!((s[(3, 3)] - (0.6 * s[(1, 1)] + 0.4)).abs() < 0.02);
    }

    #[test]
    fn symmetry_and_range() {
        let g = small_graph();
        let s = simrank_all_pairs(&g, 0.6, 8);
        for i in 0..5 {
            for j in 0..5 {
                assert!((s[(i, j)] - s[(j, i)]).abs() < 1e-12);
                assert!(s[(i, j)] >= -1e-12 && s[(i, j)] <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn professors_are_similar_through_common_university() {
        let g = small_graph();
        let c = 0.8;
        let s = simrank_all_pairs(&g, c, 30);
        // ProfA and ProfB share their only in-neighbor (Univ), so the Eq. (3)
        // fixpoint satisfies s(ProfA, ProfB) = c * s(Univ, Univ); similarly
        // the students relate to the professors one level down.
        assert!((s[(1, 2)] - c * s[(0, 0)]).abs() < 0.01);
        assert!((s[(3, 4)] - c * s[(1, 2)]).abs() < 0.01);
        // The chain orders the similarities: professors > students > unrelated.
        assert!(s[(1, 2)] > s[(3, 4)]);
        assert!(s[(3, 4)] > s[(1, 3)]);
    }

    #[test]
    fn vertices_without_in_neighbors_have_zero_similarity_to_others() {
        let g = DiGraphBuilder::new(3).arc(0, 1).arc(0, 2).build().unwrap();
        let s = simrank_all_pairs(&g, 0.6, 5);
        // Vertex 0 has no in-neighbors: its similarity to anything else is 0.
        assert_eq!(s[(0, 1)], 0.0);
        assert_eq!(s[(0, 2)], 0.0);
        // Vertices 1 and 2 share their single in-neighbor (vertex 0), so
        // s(1,2) = c * s(0,0) = c * (1 - c) under Eq. (3), because a vertex
        // without in-neighbors has self-similarity 1 - c.
        assert!((s[(0, 0)] - 0.4).abs() < 1e-12);
        assert!((s[(1, 2)] - 0.6 * 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_pair_matches_all_pairs() {
        let g = small_graph();
        let c = 0.6;
        let n = 6;
        let all = simrank_all_pairs(&g, c, n);
        for u in 0..5u32 {
            for v in 0..5u32 {
                let single = simrank_single_pair(&g, u, v, c, n);
                let full = all[(u as usize, v as usize)];
                assert!(
                    (single - full).abs() < 1e-9,
                    "pair ({u},{v}): single {single} vs all-pairs {full}"
                );
            }
        }
    }

    #[test]
    fn iterations_converge_monotonically_in_error() {
        let g = small_graph();
        let c = 0.6;
        let reference = simrank_all_pairs(&g, c, 30);
        for n in 1..=8 {
            let s = simrank_all_pairs(&g, c, n);
            let error = s.max_abs_diff(&reference);
            // Theorem 2: |s^(n) - s| <= c^(n+1); allow a small constant slack
            // for the telescoping against the n = 30 reference.
            assert!(
                error <= 2.0 * c.powi(n as i32 + 1) + 1e-9,
                "error {error} exceeds the Theorem 2 bound at n = {n}"
            );
        }
    }

    #[test]
    fn precomputed_wrapper_matches_function() {
        let g = small_graph();
        let pre = DeterministicSimRank::new(&g, 0.7, 6);
        let direct = simrank_all_pairs(&g, 0.7, 6);
        assert!(pre.matrix().max_abs_diff(&direct) < 1e-15);
        assert_eq!(pre.decay(), 0.7);
        assert_eq!(pre.iterations(), 6);
        assert!((pre.similarity(1, 2) - direct[(1, 2)]).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn rejects_bad_decay() {
        let g = small_graph();
        let _ = simrank_all_pairs(&g, 1.2, 3);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn rejects_zero_iterations() {
        let g = small_graph();
        let _ = simrank_single_pair(&g, 0, 1, 0.6, 0);
    }
}
