//! Property-based tests for the CSR fast path and the batch query engine:
//! an [`UncertainGraph`]'s forward and reverse views must reproduce
//! arbitrary graphs exactly (degrees, neighbor slices, probabilities), its
//! swap-based transpose must equal the transpose rebuilt by sorting the
//! reversed arcs, and [`QueryEngine`] batch results must equal the
//! sequential per-pair estimates bit-for-bit under a fixed seed, at any
//! thread count.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use uncertain_simrank::graph::{DiGraph, DuplicatePolicy, VertexId};
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::QueryEngine;

/// Strategy: a small deterministic graph with up to `max_vertices` vertices
/// and up to `max_arcs` random arcs (duplicates collapsed).
fn small_digraph(max_vertices: u32, max_arcs: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_vertices)
        .prop_flat_map(move |n| {
            let arcs = proptest::collection::vec((0..n, 0..n), 0..=max_arcs);
            (Just(n), arcs)
        })
        .prop_map(|(n, arcs)| {
            let unique: std::collections::BTreeSet<(VertexId, VertexId)> =
                arcs.into_iter().collect();
            DiGraph::from_arcs(n as usize, unique).expect("strategy produces valid arcs")
        })
}

/// Strategy: a small uncertain graph (duplicates keep the max probability).
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
                .duplicate_policy(DuplicatePolicy::KeepMaxProbability)
                .arcs(arcs)
                .build()
                .expect("strategy produces valid arcs")
        })
}

/// Strategy: a list of query pairs over `n` vertices.
fn pairs_over(n: u32, max_pairs: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    proptest::collection::vec((0..n, 0..n), 1..=max_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The views of an arbitrary DiGraph at probability 1 reproduce it:
    /// per-vertex degrees and sorted neighbor slices in both directions,
    /// and the reverse view is exactly the forward view of the transposed
    /// graph.
    #[test]
    fn csr_roundtrips_arbitrary_digraphs(graph in small_digraph(12, 40)) {
        let csr = UncertainGraph::from_digraph_with_probability(&graph, 1.0).unwrap();
        prop_assert_eq!(csr.num_vertices(), graph.num_vertices());
        prop_assert_eq!(csr.num_arcs(), graph.num_arcs());
        let forward = csr.forward();
        let reverse = csr.reverse();
        for v in graph.vertices() {
            prop_assert_eq!(forward.neighbors(v), graph.out_neighbors(v));
            prop_assert_eq!(reverse.neighbors(v), graph.in_neighbors(v));
            prop_assert_eq!(forward.degree(v), graph.out_degree(v));
            prop_assert_eq!(reverse.degree(v), graph.in_degree(v));
            prop_assert!(forward.neighbors(v).windows(2).all(|w| w[0] < w[1]));
            prop_assert!(reverse.neighbors(v).windows(2).all(|w| w[0] < w[1]));
            prop_assert!(forward.probabilities(v).iter().all(|&p| p == 1.0));
        }
        // Arc membership agrees with the graph's binary-search lookup, in
        // both directions.
        for u in graph.vertices() {
            for v in graph.vertices() {
                prop_assert_eq!(forward.has_arc(u, v), graph.has_arc(u, v));
                prop_assert_eq!(reverse.has_arc(v, u), graph.has_arc(u, v));
            }
        }
        // The reverse view is the transpose's forward view.
        let transposed = DiGraph::from_arcs(graph.num_vertices(), graph.arcs().map(|(u, v)| (v, u)))
            .unwrap();
        for v in graph.vertices() {
            prop_assert_eq!(reverse.neighbors(v), transposed.out_neighbors(v));
        }
    }

    /// The forward and reverse views of an arbitrary UncertainGraph are its
    /// `out_arcs` / `in_arcs` rows, and match the arc list grouped by source
    /// and by target, probabilities included.
    #[test]
    fn csr_roundtrips_arbitrary_uncertain_graphs(graph in small_uncertain_graph(10, 30)) {
        let forward = graph.forward();
        let reverse = graph.reverse();
        prop_assert_eq!(forward.num_arcs(), graph.num_arcs());
        prop_assert_eq!(reverse.num_arcs(), graph.num_arcs());
        let n = graph.num_vertices();
        let mut out_rows = vec![(Vec::new(), Vec::new()); n];
        let mut in_rows = vec![(Vec::new(), Vec::new()); n];
        for arc in graph.arcs() {
            out_rows[arc.source as usize].0.push(arc.target);
            out_rows[arc.source as usize].1.push(arc.probability);
            in_rows[arc.target as usize].0.push(arc.source);
            in_rows[arc.target as usize].1.push(arc.probability);
        }
        for v in graph.vertices() {
            let (out_nbrs, out_probs) = graph.out_arcs(v);
            prop_assert_eq!(forward.neighbors(v), out_nbrs);
            prop_assert_eq!(forward.probabilities(v), out_probs);
            let (in_nbrs, in_probs) = graph.in_arcs(v);
            prop_assert_eq!(reverse.neighbors(v), in_nbrs);
            prop_assert_eq!(reverse.probabilities(v), in_probs);
            let (out_model, in_model) = (&out_rows[v as usize], &in_rows[v as usize]);
            prop_assert_eq!(forward.neighbors(v), out_model.0.as_slice());
            prop_assert_eq!(forward.probabilities(v), out_model.1.as_slice());
            prop_assert_eq!(reverse.neighbors(v), in_model.0.as_slice());
            prop_assert_eq!(reverse.probabilities(v), in_model.1.as_slice());
        }
        for arc in graph.arcs() {
            prop_assert_eq!(forward.arc_probability(arc.source, arc.target), Some(arc.probability));
            prop_assert_eq!(reverse.arc_probability(arc.target, arc.source), Some(arc.probability));
        }
    }

    /// The transpose swaps the two directions without re-sorting, and the
    /// result equals the transpose built the old way — every arc reversed
    /// and sorted from scratch by `from_arcs`.  Twice is the identity, and
    /// alias tables swap along with the arrays.
    #[test]
    fn transpose_matches_the_sorted_rebuild(graph in small_uncertain_graph(10, 30)) {
        let transposed = graph.transpose();
        let rebuilt = UncertainGraph::from_arcs(
            graph.num_vertices(),
            graph.arcs().map(|a| (a.target, a.source, a.probability)),
        )
        .unwrap();
        prop_assert_eq!(&transposed, &rebuilt);
        prop_assert_eq!(&transposed.transpose(), &graph);

        let mut with_tables = graph.clone();
        with_tables.build_alias_tables();
        let mut rebuilt_tables = rebuilt;
        rebuilt_tables.build_alias_tables();
        let swapped = with_tables.transpose();
        for v in graph.vertices() {
            prop_assert_eq!(
                swapped.forward_alias().unwrap().slots_of(v),
                rebuilt_tables.forward_alias().unwrap().slots_of(v)
            );
            prop_assert_eq!(
                swapped.reverse_alias().unwrap().slots_of(v),
                rebuilt_tables.reverse_alias().unwrap().slots_of(v)
            );
        }
    }

    /// Batch results equal the sequential per-pair estimates bit-for-bit
    /// under a fixed seed: scores, profiles and repeated queries.
    #[test]
    fn batch_equals_sequential_bit_for_bit(
        input in small_uncertain_graph(10, 30)
            .prop_flat_map(|g| {
                let n = g.num_vertices() as u32;
                (Just(g), pairs_over(n, 12))
            }),
        seed in 0u64..1000,
    ) {
        let (graph, pairs) = input;
        let config = SimRankConfig::default().with_samples(40).with_seed(seed);
        let engine = QueryEngine::new(&graph, config);
        let batch = engine.batch_similarities(&pairs).unwrap();
        let sequential: Vec<f64> = pairs.iter().map(|&(u, v)| engine.similarity(u, v)).collect();
        prop_assert_eq!(batch, sequential);
        let profiles = engine.batch_profile(&pairs).unwrap();
        for (profile, &(u, v)) in profiles.iter().zip(&pairs) {
            prop_assert_eq!(profile, &engine.profile(u, v));
        }
    }

    /// The number of rayon threads is invisible in batch output: 1 worker
    /// and 5 workers produce bit-identical score vectors.
    #[test]
    fn batch_is_thread_count_invariant(
        input in small_uncertain_graph(8, 24)
            .prop_flat_map(|g| {
                let n = g.num_vertices() as u32;
                (Just(g), pairs_over(n, 16))
            }),
        seed in 0u64..1000,
    ) {
        let (graph, pairs) = input;
        let config = SimRankConfig::default().with_samples(30).with_seed(seed);
        let engine = QueryEngine::new(&graph, config);
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let a = single.install(|| engine.batch_similarities(&pairs).unwrap());
        let b = many.install(|| engine.batch_similarities(&pairs).unwrap());
        prop_assert_eq!(a, b);
    }
}
