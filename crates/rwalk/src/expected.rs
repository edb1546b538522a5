//! The expected one-step transition matrix `W(1)` of an uncertain graph.
//!
//! For an arc `(u, v)` of the uncertain graph, the one-step transition
//! probability on a randomly selected possible world is
//!
//! ```text
//! Pr_G(u →₁ v) = P(u, v) · E[ 1 / (1 + X_{-v}) ],
//! ```
//!
//! where `X_{-v}` is the number of *other* arcs leaving `u` that are present
//! (a Poisson-binomial variable).  `W(1)` has exactly `|E|` non-zero entries,
//! so it is returned as a [`SparseMatrix`].
//!
//! `W(1)` plays two roles in the paper:
//!
//! * it seeds the `TransPr` walk extension (and is the Lemma 3 shortcut for
//!   walks that have not yet left their end vertex);
//! * raised to the k-th power it is exactly the (incorrect) k-step matrix
//!   assumed by Du et al. \[7\], which the paper uses as the SimRank-III
//!   comparison baseline.

use crate::walkpr::{inv, presence_count_distribution};
use ugraph::{one_step_marginals, MarginalScratch, Probability, UncertainGraph, VertexId};
use umatrix::SparseMatrix;

/// Expected one-step transition probabilities out of a single vertex `u`,
/// aligned with `g.out_arcs(u)`: one presence-count DP over the row and one
/// leave-one-out deconvolution per arc ([`ugraph::one_step_marginals`],
/// the function whose cached rows the alias rows are built from), `O(d²)`
/// in all.
pub fn expected_one_step_row(g: &UncertainGraph, u: VertexId) -> Vec<f64> {
    let (_, probs) = g.out_arcs(u);
    let mut row = Vec::with_capacity(probs.len());
    one_step_marginals(probs, &mut MarginalScratch::default(), &mut row);
    row
}

/// Expected one-step transition probabilities out of `u` computed directly
/// (one `O(d²)` dynamic program per out-arc).  Slower than
/// [`expected_one_step_row`] but free of the deconvolution step; used as a
/// cross-check in tests and available for callers that prefer it.
pub fn expected_one_step_row_direct(g: &UncertainGraph, u: VertexId) -> Vec<f64> {
    let (_, probs) = g.out_arcs(u);
    (0..probs.len())
        .map(|j| {
            let others: Vec<Probability> = probs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, &p)| p)
                .collect();
            let r = presence_count_distribution(&others);
            let expectation: f64 = r.iter().enumerate().map(|(x, &rx)| rx * inv(x + 1)).sum();
            probs[j] * expectation
        })
        .collect()
}

/// Computes the expected one-step transition matrix `W(1)` of `g` as a sparse
/// matrix with one non-zero per possible arc.
pub fn expected_one_step_matrix(g: &UncertainGraph) -> SparseMatrix {
    let n = g.num_vertices();
    let mut triplets = Vec::with_capacity(g.num_arcs());
    for u in g.vertices() {
        let (neighbors, _) = g.out_arcs(u);
        let row = expected_one_step_row(g, u);
        for (&v, p) in neighbors.iter().zip(row) {
            triplets.push((u, v, p));
        }
    }
    SparseMatrix::from_triplets(n, n, triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::possible_world::expectation_over_worlds;
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

    fn brute_force_one_step(g: &UncertainGraph, u: VertexId, v: VertexId) -> f64 {
        expectation_over_worlds(g, |world| world.transition_probability(u, v))
    }

    #[test]
    fn expected_matrix_matches_brute_force() {
        let g = fig1_graph();
        let w1 = expected_one_step_matrix(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                let exact = w1.get(u as usize, v as usize);
                let brute = brute_force_one_step(&g, u, v);
                assert!(
                    (exact - brute).abs() < 1e-10,
                    "W(1)[{u}][{v}] = {exact}, brute force = {brute}"
                );
            }
        }
    }

    #[test]
    fn fast_row_matches_direct_row() {
        let g = fig1_graph();
        for u in g.vertices() {
            let fast = expected_one_step_row(&g, u);
            let direct = expected_one_step_row_direct(&g, u);
            assert_eq!(fast.len(), direct.len());
            for (a, b) in fast.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-10, "vertex {u}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fast_row_is_stable_for_extreme_probabilities() {
        let g = UncertainGraphBuilder::new(5)
            .arc(0, 1, 1.0)
            .arc(0, 2, 0.999_999)
            .arc(0, 3, 1e-9)
            .arc(0, 4, 0.5)
            .build()
            .unwrap();
        let fast = expected_one_step_row(&g, 0);
        let direct = expected_one_step_row_direct(&g, 0);
        for (a, b) in fast.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn row_sums_are_at_most_one() {
        // Row u sums to the probability that u has at least one out-arc,
        // which is at most 1 (walks can die at a vertex with no arcs).
        let g = fig1_graph();
        let w1 = expected_one_step_matrix(&g);
        for u in 0..g.num_vertices() {
            let sum: f64 = w1.row_iter(u).map(|(_, p)| p).sum();
            assert!(sum <= 1.0 + 1e-12, "row {u} sums to {sum}");
        }
        // Vertex 0 has arcs with probabilities 0.8 and 0.5, so the row sums
        // to 1 - 0.2*0.5 = 0.9.
        let sum0: f64 = w1.row_iter(0).map(|(_, p)| p).sum();
        assert!((sum0 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn certain_graph_recovers_uniform_transition_probabilities() {
        let g = fig1_graph().certain();
        let w1 = expected_one_step_matrix(&g);
        for u in g.vertices() {
            let degree = g.out_degree(u);
            for (v, p) in w1.row_iter(u as usize) {
                assert!(g.has_arc(u, v));
                assert!((p - 1.0 / degree as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn vertex_with_no_out_arcs_has_empty_row() {
        let g = fig1_graph();
        assert!(expected_one_step_row(&g, 4).is_empty());
        let w1 = expected_one_step_matrix(&g);
        assert_eq!(w1.row_iter(4).count(), 0);
    }
}
