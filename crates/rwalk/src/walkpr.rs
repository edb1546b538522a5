//! The `WalkPr` algorithm (Fig. 2 of the paper): exact walk probabilities on
//! uncertain graphs.
//!
//! For a walk `W = v₀, v₁, …, v_k` on an uncertain graph `G`, the walk
//! probability `Pr_G(X₁ = v₁, …, X_k = v_k | X₀ = v₀)` is, by Lemma 1,
//!
//! ```text
//! Pr_G(W) = Π_{v ∈ V(W)} α_W(v),
//! α_W(v)  = Π_{w ∈ O_W(v)} P(v, w) · Σ_x r(n, x) · inv(x + |O_W(v)|)^{c_W(v)},
//! ```
//!
//! where `r(n, x)` is the probability that exactly `x` of the arcs leaving
//! `v` that the walk does *not* use are present in a random possible world
//! (Eq. 11), and `inv(x) = 1/x` for `x ≠ 0`, `inv(0) = 1`.
//!
//! The crucial point (end of Section IV's introduction) is that `Pr_G(W)` is
//! **not** the product of one-step transition probabilities whenever the walk
//! revisits a vertex: transitions out of a revisited vertex share the same
//! possible world and are therefore positively correlated.  The tests below
//! check both the exact values against brute-force possible-world enumeration
//! and the non-factorisation on the paper's running example.

use crate::walk::Walk;
use ugraph::{Probability, UncertainGraph, VertexId};

/// `inv(x)` of the paper: `1/x` for `x ≠ 0` and `1` for `x = 0`.
#[inline]
pub fn inv(x: usize) -> f64 {
    if x == 0 {
        1.0
    } else {
        1.0 / x as f64
    }
}

/// Distribution of the number of *present* arcs among independent arcs with
/// the given existence probabilities: returns `r` where `r[x]` is the
/// probability that exactly `x` arcs exist (the `r(n, ·)` table of Fig. 2,
/// lines 3–9), by [`ugraph::presence_count_distribution_into`].
pub fn presence_count_distribution(probabilities: &[Probability]) -> Vec<f64> {
    let mut r = Vec::new();
    ugraph::presence_count_distribution_into(probabilities, &mut r);
    r
}

/// Computes `α_W(v)` (Eq. 11) for a vertex `v` given `O_W(v)` (`walk_out`,
/// sorted, duplicate-free) and `c_W(v)` (`walk_out_count`).
///
/// Returns 0 when some arc `(v, w)` with `w ∈ O_W(v)` does not exist in the
/// uncertain graph (then `W` is not a walk on `G`).
pub fn alpha(g: &UncertainGraph, v: VertexId, walk_out: &[VertexId], walk_out_count: usize) -> f64 {
    debug_assert!(
        walk_out.windows(2).all(|w| w[0] < w[1]),
        "walk_out must be sorted"
    );
    if walk_out_count == 0 {
        // A vertex that the walk never leaves contributes a factor of 1.
        return 1.0;
    }
    let (neighbors, probabilities) = g.out_arcs(v);
    let mut used_product = 1.0;
    let mut other_probs: Vec<Probability> = Vec::with_capacity(neighbors.len());
    let mut used_found = 0usize;
    for (idx, &w) in neighbors.iter().enumerate() {
        if walk_out.binary_search(&w).is_ok() {
            used_product *= probabilities[idx];
            used_found += 1;
        } else {
            other_probs.push(probabilities[idx]);
        }
    }
    if used_found != walk_out.len() {
        // The walk uses an arc that is not even a possible arc of G.
        return 0.0;
    }
    let r = presence_count_distribution(&other_probs);
    let base_degree = walk_out.len();
    let mut expectation = 0.0;
    for (x, &rx) in r.iter().enumerate() {
        expectation += rx * inv(x + base_degree).powi(walk_out_count as i32);
    }
    used_product * expectation
}

/// The `WalkPr` algorithm (Fig. 2): the exact probability
/// `Pr_G(X₁ = v₁, …, X_k = v_k | X₀ = v₀)` of the walk on the uncertain
/// graph `g`, i.e. the probability that a random walk started at `v₀` on a
/// randomly selected possible world follows exactly this vertex sequence.
///
/// Returns 0 if the sequence is not a walk of `g`.
pub fn walk_probability(g: &UncertainGraph, walk: &Walk) -> f64 {
    if !walk.is_walk_on(g) {
        return 0.0;
    }
    let mut probability = 1.0;
    for (v, stats) in walk.vertex_stats() {
        probability *= alpha(g, v, &stats.out_neighbors, stats.out_count);
        if probability == 0.0 {
            return 0.0;
        }
    }
    probability
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::possible_world::expectation_over_worlds;
    use ugraph::{DiGraph, UncertainGraphBuilder};

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

    /// Walk probability on a deterministic possible world: the product of
    /// uniform one-step transition probabilities, or 0 if not a walk.
    fn deterministic_walk_probability(world: &DiGraph, walk: &Walk) -> f64 {
        walk.vertices()
            .windows(2)
            .map(|pair| world.transition_probability(pair[0], pair[1]))
            .product()
    }

    fn brute_force_walk_probability(g: &UncertainGraph, walk: &Walk) -> f64 {
        expectation_over_worlds(g, |world| deterministic_walk_probability(world, walk))
    }

    #[test]
    fn presence_distribution_is_a_distribution() {
        let r = presence_count_distribution(&[0.3, 0.9, 0.5]);
        assert_eq!(r.len(), 4);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // r[3] = all present.
        assert!((r[3] - 0.3 * 0.9 * 0.5).abs() < 1e-12);
        // r[0] = none present.
        assert!((r[0] - 0.7 * 0.1 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn presence_distribution_of_no_arcs() {
        let r = presence_count_distribution(&[]);
        assert_eq!(r, vec![1.0]);
    }

    #[test]
    fn presence_distribution_matches_paper_recurrence() {
        // The r(i, j) recurrence of Fig. 2 computed by hand for two arcs with
        // probabilities 0.8 and 0.5:
        //   r(2,0) = 0.2*0.5 = 0.1, r(2,1) = 0.8*0.5 + 0.2*0.5 = 0.5,
        //   r(2,2) = 0.8*0.5 = 0.4.
        let r = presence_count_distribution(&[0.8, 0.5]);
        assert!((r[0] - 0.1).abs() < 1e-12);
        assert!((r[1] - 0.5).abs() < 1e-12);
        assert!((r[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_step_walk_probability_is_expected_inverse_degree() {
        let g = fig1_graph();
        // Walk v1 -> v3 (0 -> 2).  O_G(v1) = {v3 (0.8), v4 (0.5)}.
        // alpha = 0.8 * [0.5 * inv(1) + 0.5 * inv(2)] = 0.8 * 0.75 = 0.6.
        let w = Walk::from_vertices(vec![0, 2]);
        let p = walk_probability(&g, &w);
        assert!((p - 0.6).abs() < 1e-12);
        assert!((p - brute_force_walk_probability(&g, &w)).abs() < 1e-12);
    }

    #[test]
    fn walk_probabilities_match_possible_world_expectation() {
        let g = fig1_graph();
        let walks = vec![
            vec![0, 2],
            vec![0, 2, 0],
            vec![0, 2, 3, 4],
            vec![0, 2, 0, 2],
            vec![0, 2, 0, 3, 1, 2],
            vec![1, 0, 2, 3, 1],
            vec![2, 0, 2, 0, 2],
            vec![3, 1, 2, 3, 1, 2],
            vec![0, 3, 1, 0, 3],
        ];
        for vs in walks {
            let w = Walk::from_vertices(vs.clone());
            let exact = walk_probability(&g, &w);
            let brute = brute_force_walk_probability(&g, &w);
            assert!(
                (exact - brute).abs() < 1e-10,
                "walk {vs:?}: WalkPr = {exact}, brute force = {brute}"
            );
        }
    }

    #[test]
    fn non_walk_has_zero_probability() {
        let g = fig1_graph();
        assert_eq!(walk_probability(&g, &Walk::from_vertices(vec![0, 1])), 0.0);
        assert_eq!(
            walk_probability(&g, &Walk::from_vertices(vec![4, 0])),
            0.0,
            "v5 has no out-arcs at all"
        );
    }

    #[test]
    fn walk_probability_does_not_factor_into_one_step_probabilities() {
        // The key observation of Section IV: for a walk that revisits a
        // vertex, Pr(W) != product of one-step probabilities.
        let g = fig1_graph();
        let one_step =
            |u: VertexId, v: VertexId| walk_probability(&g, &Walk::from_vertices(vec![u, v]));
        // Walk 0 -> 2 -> 0 -> 2 revisits both 0 and 2.
        let w = Walk::from_vertices(vec![0, 2, 0, 2]);
        let exact = walk_probability(&g, &w);
        let product = one_step(0, 2) * one_step(2, 0) * one_step(0, 2);
        assert!(
            (exact - product).abs() > 1e-3,
            "expected correlation to make these differ: exact = {exact}, product = {product}"
        );
        // The correlated probability is larger: conditioned on having used an
        // arc once, the out-degree distribution is biased the same way again.
        assert!(exact > product);
    }

    #[test]
    fn walk_probability_factors_when_no_vertex_repeats() {
        let g = fig1_graph();
        let w = Walk::from_vertices(vec![1, 0, 2, 3, 4]);
        let exact = walk_probability(&g, &w);
        let product: f64 = vec![(1, 0), (0, 2), (2, 3), (3, 4)]
            .into_iter()
            .map(|(u, v)| walk_probability(&g, &Walk::from_vertices(vec![u, v])))
            .product();
        assert!((exact - product).abs() < 1e-12);
    }

    #[test]
    fn certain_graph_recovers_deterministic_walk_probability() {
        let g = fig1_graph().certain();
        let skeleton = g.skeleton().clone();
        let w = Walk::from_vertices(vec![0, 2, 0, 2, 3, 1]);
        let exact = walk_probability(&g, &w);
        let det = deterministic_walk_probability(&skeleton, &w);
        assert!((exact - det).abs() < 1e-12);
    }

    #[test]
    fn alpha_rejects_impossible_out_neighbors() {
        let g = fig1_graph();
        // Vertex 0 has no possible arc to 1.
        assert_eq!(alpha(&g, 0, &[1], 1), 0.0);
    }

    #[test]
    fn alpha_with_zero_count_is_one() {
        let g = fig1_graph();
        assert_eq!(alpha(&g, 0, &[], 0), 1.0);
        assert_eq!(alpha(&g, 4, &[], 0), 1.0);
    }
}
