//! Property-based tests for the library extensions: the CSR snapshot format
//! and the single-source estimator, driven by randomly generated uncertain
//! graphs.

use proptest::prelude::*;
use uncertain_simrank::graph::snapshot::{read_snapshot, write_snapshot};
use uncertain_simrank::graph::{CsrGraph, GraphError, UncertainGraph};
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::SingleSourceEstimator;

/// Strategy: a random uncertain graph with up to `max_vertices` vertices and
/// one arc candidate per ordered vertex pair kept with probability ~30%.
fn arbitrary_graph(max_vertices: usize) -> impl Strategy<Value = UncertainGraph> {
    (2usize..=max_vertices)
        .prop_flat_map(|n| {
            let arcs = proptest::collection::vec(
                (
                    0..n as u32,
                    0..n as u32,
                    0.01f64..=1.0f64,
                    proptest::bool::weighted(0.3),
                ),
                0..(n * n).min(64),
            );
            (Just(n), arcs)
        })
        .prop_map(|(n, candidates)| {
            let mut seen = std::collections::HashSet::new();
            let arcs: Vec<(u32, u32, f64)> = candidates
                .into_iter()
                .filter(|&(_, _, _, keep)| keep)
                .filter(|&(u, v, _, _)| seen.insert((u, v)))
                .map(|(u, v, p, _)| (u, v, p))
                .collect();
            UncertainGraph::from_arcs(n, arcs).expect("generated arcs are valid")
        })
}

/// Snapshot bytes of `graph` with non-compact labels `3v + 1`.
fn snapshot_bytes(graph: &UncertainGraph) -> Vec<u8> {
    let labels: Vec<u64> = (0..graph.num_vertices() as u64)
        .map(|v| 3 * v + 1)
        .collect();
    let mut buffer = Vec::new();
    write_snapshot(&CsrGraph::from_uncertain(graph), &labels, &mut buffer).unwrap();
    buffer
}

/// Reads snapshot bytes back the way every command loads a snapshot.
fn load_snapshot(bytes: &[u8]) -> Result<(UncertainGraph, Vec<u64>), GraphError> {
    let snapshot = read_snapshot(bytes)?;
    Ok((snapshot.to_uncertain()?, snapshot.labels_or_identity()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_roundtrip_preserves_arbitrary_graphs(graph in arbitrary_graph(12)) {
        let (restored, labels) = load_snapshot(&snapshot_bytes(&graph)).unwrap();
        let expected: Vec<u64> = (0..graph.num_vertices() as u64).map(|v| 3 * v + 1).collect();
        prop_assert_eq!(labels, expected);
        prop_assert_eq!(restored.num_vertices(), graph.num_vertices());
        prop_assert_eq!(restored.num_arcs(), graph.num_arcs());
        for arc in graph.arcs() {
            let p = restored.arc_probability(arc.source, arc.target);
            prop_assert_eq!(p, Some(arc.probability));
        }
    }

    #[test]
    fn binary_reader_never_panics_on_corrupted_input(
        graph in arbitrary_graph(8),
        flip_position in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        // Any single-byte corruption must be reported as an error — never a
        // panic and never a silently different graph.
        let buffer = snapshot_bytes(&graph);
        let position = flip_position % buffer.len();
        let mut corrupted = buffer.clone();
        corrupted[position] ^= flip_mask;
        match load_snapshot(&corrupted) {
            Err(_) => {}
            Ok((restored, _)) => {
                // The flip may hit a probability byte and still produce a valid
                // graph; the checksum makes this impossible, so reaching here
                // means the corrupted buffer equals the original.
                prop_assert_eq!(corrupted, buffer);
                prop_assert_eq!(restored.num_arcs(), graph.num_arcs());
            }
        }
    }

    #[test]
    fn single_source_scores_are_probability_like_on_arbitrary_graphs(
        graph in arbitrary_graph(10),
        seed in 0u64..1000,
    ) {
        let config = SimRankConfig::default()
            .with_horizon(3)
            .with_samples(60)
            .with_seed(seed);
        let mut estimator = SingleSourceEstimator::new(&graph, config);
        let source = 0u32;
        let result = estimator.query(source);
        prop_assert_eq!(result.num_vertices(), graph.num_vertices());
        // m(0) is the indicator of the source.
        prop_assert_eq!(result.meeting_probability(0, source), 1.0);
        for v in graph.vertices() {
            let score = result.similarity(v);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&score), "s(0,{}) = {}", v, score);
            for k in 0..=3usize {
                let m = result.meeting_probability(k, v);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
            }
        }
    }

    #[test]
    fn single_source_is_deterministic_per_seed_on_arbitrary_graphs(
        graph in arbitrary_graph(8),
        seed in 0u64..1000,
    ) {
        let config = SimRankConfig::default()
            .with_horizon(3)
            .with_samples(40)
            .with_seed(seed);
        let first = SingleSourceEstimator::new(&graph, config).query(0).similarities();
        let second = SingleSourceEstimator::new(&graph, config).query(0).similarities();
        prop_assert_eq!(first, second);
    }
}
