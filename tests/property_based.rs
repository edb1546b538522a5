//! Property-based tests (proptest) over randomly generated uncertain graphs.
//!
//! These check the structural invariants the paper's theory guarantees —
//! probabilities stay probabilities, transition matrices stay sub-stochastic,
//! SimRank stays symmetric and bounded, the exact machinery agrees with
//! brute-force possible-world enumeration on tiny graphs — for arbitrary
//! (small) random inputs rather than hand-picked examples.

use proptest::prelude::*;
use uncertain_simrank::graph::possible_world::{enumerate_worlds, expectation_over_worlds};
use uncertain_simrank::matrix::{BitVec, SparseVector};
use uncertain_simrank::prelude::*;
use uncertain_simrank::random_walk::transpr::{transition_matrices, TransPrOptions};
use uncertain_simrank::random_walk::walk::Walk;
use uncertain_simrank::random_walk::walkpr::walk_probability;
use uncertain_simrank::simrank::{combine_meeting_probabilities, BaselineEstimator};

/// Strategy: a small uncertain graph with up to `max_vertices` vertices and
/// up to `max_arcs` random arcs (duplicates collapsed by keeping the largest
/// probability).
fn small_uncertain_graph(
    max_vertices: u32,
    max_arcs: usize,
) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_vertices)
        .prop_flat_map(move |n| {
            let arcs = proptest::collection::vec((0..n, 0..n, 0.05f64..1.0f64), 1..=max_arcs);
            (Just(n), arcs)
        })
        .prop_map(|(n, arcs)| {
            UncertainGraphBuilder::new(n as usize)
                .duplicate_policy(uncertain_simrank::graph::DuplicatePolicy::KeepMaxProbability)
                .arcs(arcs)
                .build()
                .expect("strategy produces valid arcs")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Walk probabilities computed by WalkPr equal the expectation of the
    /// deterministic walk probability over all possible worlds.
    #[test]
    fn walkpr_matches_possible_world_expectation(
        graph in small_uncertain_graph(5, 8),
        steps in proptest::collection::vec(0u32..5u32, 1..4),
    ) {
        // Build a walk by following possible arcs greedily from a random seed
        // sequence; if at some point the arc does not exist the walk is cut.
        let mut vertices = vec![steps[0] % graph.num_vertices() as u32];
        for &step in &steps[1..] {
            let current = *vertices.last().unwrap();
            let neighbors = graph.out_neighbors(current);
            if neighbors.is_empty() {
                break;
            }
            vertices.push(neighbors[step as usize % neighbors.len()]);
        }
        let walk = Walk::from_vertices(vertices);
        let exact = walk_probability(&graph, &walk);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&exact));
        let brute = expectation_over_worlds(&graph, |world| {
            walk.vertices()
                .windows(2)
                .map(|pair| world.transition_probability(pair[0], pair[1]))
                .product::<f64>()
        });
        prop_assert!((exact - brute).abs() < 1e-9, "exact {exact} vs brute {brute}");
    }

    /// Possible-world probabilities always sum to 1.
    #[test]
    fn possible_world_probabilities_sum_to_one(graph in small_uncertain_graph(4, 6)) {
        let total: f64 = enumerate_worlds(&graph).iter().map(|w| w.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Every k-step transition matrix is entry-wise a probability and
    /// row-wise sub-stochastic, with survival non-increasing in k.
    #[test]
    fn transition_matrices_are_substochastic(graph in small_uncertain_graph(6, 10)) {
        let matrices = transition_matrices(&graph, 4, &TransPrOptions::default()).unwrap();
        let mut previous = vec![1.0; graph.num_vertices()];
        for k in 1..=4 {
            let sums = matrices.step(k).row_sums();
            for (row, (&sum, &prev)) in sums.iter().zip(&previous).enumerate() {
                prop_assert!(sum <= 1.0 + 1e-9, "row {row} of W({k}) sums to {sum}");
                prop_assert!(sum <= prev + 1e-9, "survival increased at row {row}, k = {k}");
                for v in 0..graph.num_vertices() {
                    let entry = matrices.step(k)[(row, v)];
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&entry));
                }
            }
            previous = sums;
        }
    }

    /// SimRank is symmetric, bounded by [0, 1], and truncation respects the
    /// Theorem 2 error bound between consecutive horizons.
    #[test]
    fn simrank_is_symmetric_and_bounded(graph in small_uncertain_graph(6, 10)) {
        let config = SimRankConfig::default().with_horizon(4);
        let baseline = BaselineEstimator::new(&graph, config);
        for u in graph.vertices() {
            for v in graph.vertices() {
                let s_uv = baseline.try_similarity(u, v).unwrap();
                let s_vu = baseline.try_similarity(v, u).unwrap();
                prop_assert!((s_uv - s_vu).abs() < 1e-9);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s_uv));
            }
        }
        // Adjacent horizons differ by at most c^{n+1} (both sides of Thm. 2).
        let profile = baseline.profile(0, 1.min(graph.num_vertices() as u32 - 1));
        for n in 2..=4usize {
            let gap = (profile.score_at_horizon(n) - profile.score_at_horizon(n - 1)).abs();
            prop_assert!(gap <= config.decay.powi(n as i32) + 1e-9);
        }
    }

    /// The combination of meeting probabilities is monotone and bounded.
    #[test]
    fn combination_is_bounded_by_extremes(
        meeting in proptest::collection::vec(0.0f64..=1.0, 2..8),
        decay in 0.05f64..0.95,
    ) {
        let score = combine_meeting_probabilities(&meeting, decay);
        prop_assert!(score >= -1e-12);
        prop_assert!(score <= 1.0 + 1e-12);
    }

    /// Sparse vector algebra agrees with dense arithmetic.
    #[test]
    fn sparse_vector_matches_dense(
        a in proptest::collection::vec(-5.0f64..5.0, 1..12),
        b in proptest::collection::vec(-5.0f64..5.0, 1..12),
    ) {
        let len = a.len().max(b.len());
        let mut dense_a = a.clone();
        dense_a.resize(len, 0.0);
        let mut dense_b = b.clone();
        dense_b.resize(len, 0.0);
        let sparse_a = SparseVector::from_dense(&dense_a);
        let sparse_b = SparseVector::from_dense(&dense_b);
        let dense_dot: f64 = dense_a.iter().zip(&dense_b).map(|(x, y)| x * y).sum();
        prop_assert!((sparse_a.dot(&sparse_b) - dense_dot).abs() < 1e-9);

        let mut accumulated = sparse_a.clone();
        accumulated.add_scaled(&sparse_b, 0.5);
        for i in 0..len {
            let expected = dense_a[i] + 0.5 * dense_b[i];
            prop_assert!((accumulated.get(i as u32) - expected).abs() < 1e-9);
        }
    }

    /// Bit-vector algebra obeys the Boolean-lattice laws the SR-SP update
    /// relies on.
    #[test]
    fn bitvec_laws(bits_a in proptest::collection::vec(any::<bool>(), 1..200),
                   bits_b in proptest::collection::vec(any::<bool>(), 1..200)) {
        let len = bits_a.len().min(bits_b.len());
        let a = BitVec::from_bools(bits_a[..len].iter().copied());
        let b = BitVec::from_bools(bits_b[..len].iter().copied());
        // Popcount of AND equals the fused and_count.
        prop_assert_eq!(a.and(&b).count_ones(), a.and_count(&b));
        // Idempotence and commutativity.
        prop_assert_eq!(a.and(&a), a.clone());
        prop_assert_eq!(a.or(&a), a.clone());
        prop_assert_eq!(a.and(&b), b.and(&a));
        prop_assert_eq!(a.or(&b), b.or(&a));
        // |A| + |B| = |A AND B| + |A OR B|.
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            a.and_count(&b) + a.or(&b).count_ones()
        );
        // The fused update x |= a & b equals the explicit form.
        let mut fused = BitVec::zeros(len);
        fused.or_and_assign(&a, &b);
        prop_assert_eq!(fused, a.and(&b));
    }

    /// Transposing twice is the identity and preserves arc probabilities.
    #[test]
    fn transpose_is_an_involution(graph in small_uncertain_graph(8, 16)) {
        let transposed = graph.transpose();
        prop_assert_eq!(transposed.num_arcs(), graph.num_arcs());
        prop_assert_eq!(&transposed.transpose(), &graph);
        for arc in graph.arcs() {
            let p = transposed.arc_probability(arc.target, arc.source).unwrap();
            prop_assert!((p - arc.probability).abs() < 1e-12);
        }
    }

    /// Edge-list round trip preserves the graph.
    #[test]
    fn edge_list_round_trip(graph in small_uncertain_graph(8, 16)) {
        let mut buffer = Vec::new();
        uncertain_simrank::graph::io::write_edge_list(&graph, &[], &mut buffer).unwrap();
        let options = uncertain_simrank::graph::io::ReadOptions {
            assume_compact: true,
            ..Default::default()
        };
        let back = uncertain_simrank::graph::io::read_edge_list(buffer.as_slice(), &options).unwrap();
        prop_assert_eq!(back.graph.num_arcs(), graph.num_arcs());
        for arc in graph.arcs() {
            let p = back.graph.arc_probability(arc.source, arc.target).unwrap();
            prop_assert!((p - arc.probability).abs() < 1e-12);
        }
    }
}
