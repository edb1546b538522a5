//! Integration tests for the library extensions that go beyond the paper's
//! four single-pair estimators: single-source queries, parallel batch
//! helpers, and the CSR snapshot format — exercised together across crates on
//! generated datasets, the way a downstream application would use them.

use uncertain_simrank::datasets::{CoauthorGenerator, PpiGenerator};
use uncertain_simrank::graph::snapshot::write_snapshot_file;
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::{
    par_mean_similarity, par_similarities, par_top_k_pairs, top_k_similar_to, SourceMode,
};

// Kept deliberately small and sparse: several tests below compare against the
// exact Baseline, whose cost grows like (average degree)^horizon per query,
// and the workspace test suite runs unoptimised.
fn small_ppi() -> UncertainGraph {
    PpiGenerator {
        num_proteins: 40,
        num_complexes: 7,
        complex_size: (3, 5),
        intra_complex_density: 0.6,
        noise_edges: 40,
        seed: 11,
        ..Default::default()
    }
    .generate()
    .graph
}

#[test]
fn single_source_agrees_with_single_pair_estimators_on_a_generated_graph() {
    let graph = small_ppi();
    let config = SimRankConfig::default()
        .with_horizon(4)
        .with_samples(2000)
        .with_seed(3);
    let baseline = BaselineEstimator::new(&graph, config);
    let mut single_source = SingleSourceEstimator::new(&graph, config);

    let source: VertexId = 5;
    let result = single_source.query(source);
    assert_eq!(result.num_vertices(), graph.num_vertices());

    // Compare against the exact Baseline on a handful of targets (the exact
    // estimator is too slow to compare every vertex at this sample count).
    for target in [0u32, 1, 6, 17, 33] {
        if let Ok(exact) = baseline.try_similarity(source, target) {
            let estimate = result.similarity(target);
            assert!(
                (exact - estimate).abs() < 0.06,
                "target {target}: exact {exact}, single-source {estimate}"
            );
        }
    }
}

#[test]
fn single_source_top_k_matches_pairwise_top_k_on_a_clustered_graph() {
    // On a strongly clustered graph the top-k sets produced by the one-pass
    // single-source query and by |V| pairwise SR-SP queries should agree on
    // most members (they estimate the same quantity).
    let graph = small_ppi();
    let config = SimRankConfig::default().with_samples(1000).with_seed(9);
    let source: VertexId = 2;
    let k = 5;

    let mut single_source = SingleSourceEstimator::new(&graph, config);
    let one_pass = single_source.query(source).top_k(k);

    let mut pairwise = SpeedupEstimator::new(&graph, config);
    let candidates: Vec<VertexId> = graph.vertices().collect();
    let per_pair = top_k_similar_to(&mut pairwise, source, candidates, k);

    let overlap = one_pass
        .iter()
        .filter(|a| per_pair.iter().any(|b| b.vertex == a.vertex))
        .count();
    assert!(
        overlap * 2 >= k,
        "single-source and pairwise top-{k} share only {overlap} vertices: {one_pass:?} vs {per_pair:?}"
    );
}

#[test]
fn exact_source_mode_reduces_to_the_baseline_rows() {
    // With SourceMode::Exact and a deterministic graph (all probabilities 1)
    // the meeting estimate for every step uses the exact source row, so the
    // estimate for a certain graph equals classic SimRank up to sampling
    // noise on the target side only.
    let graph = small_ppi().certain();
    let config = SimRankConfig::default()
        .with_horizon(4)
        .with_samples(800)
        .with_seed(21);
    let mut single = SingleSourceEstimator::new(&graph, config).with_source_mode(SourceMode::Exact);
    let baseline = BaselineEstimator::new(&graph, config);
    let result = single
        .try_query(4)
        .expect("certain graph stays within budget");
    for target in [0u32, 4, 10, 20] {
        let exact = baseline.try_similarity(4, target).unwrap();
        assert!(
            (exact - result.similarity(target)).abs() < 0.05,
            "target {target}"
        );
    }
}

#[test]
fn parallel_batch_queries_match_sequential_results() {
    let graph = small_ppi();
    let config = SimRankConfig::default().with_horizon(4);
    let pairs: Vec<(VertexId, VertexId)> = (0..20u32).map(|i| (i, (i * 7 + 3) % 40)).collect();

    let parallel = par_similarities(|| BaselineEstimator::new(&graph, config), &pairs);
    let mut sequential_estimator = BaselineEstimator::new(&graph, config);
    for (index, &(u, v)) in pairs.iter().enumerate() {
        let sequential = sequential_estimator.similarity(u, v);
        assert!(
            (parallel[index] - sequential).abs() < 1e-12,
            "pair ({u}, {v})"
        );
    }

    let mean = par_mean_similarity(|| BaselineEstimator::new(&graph, config), &pairs);
    let expected: f64 = parallel.iter().sum::<f64>() / parallel.len() as f64;
    assert!((mean - expected).abs() < 1e-12);
}

#[test]
fn parallel_top_k_pairs_finds_the_planted_complex_pairs() {
    let dataset = PpiGenerator {
        num_proteins: 40,
        num_complexes: 6,
        complex_size: (3, 5),
        intra_complex_density: 0.9,
        noise_edges: 30,
        seed: 17,
        ..Default::default()
    }
    .generate();
    let graph = &dataset.graph;
    let config = SimRankConfig::default().with_samples(300).with_seed(2);

    let candidates: Vec<(VertexId, VertexId)> = (0..graph.num_vertices() as VertexId)
        .flat_map(|u| ((u + 1)..graph.num_vertices() as VertexId).map(move |v| (u, v)))
        .collect();
    let top = par_top_k_pairs(|| TwoPhaseEstimator::new(graph, config), &candidates, 10);
    assert_eq!(top.len(), 10);
    let in_complex = top
        .iter()
        .filter(|p| dataset.same_complex(p.pair.0, p.pair.1))
        .count();
    assert!(
        in_complex >= 6,
        "only {in_complex}/10 of the top pairs lie in a planted complex"
    );
}

#[test]
fn binary_format_round_trips_generated_datasets_and_preserves_similarities() {
    let graph = CoauthorGenerator::small(23).generate();
    let path = std::env::temp_dir().join(format!("usim_extensions_{}.usim", std::process::id()));
    write_snapshot_file(&graph, &[], &path).unwrap();
    let loaded = usim_cli::graphio::load_graph(path.to_str().unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        loaded.labels(),
        (0..graph.num_vertices() as u64).collect::<Vec<_>>()
    );
    let restored = loaded.graph;

    assert_eq!(graph.num_vertices(), restored.num_vertices());
    assert_eq!(graph.num_arcs(), restored.num_arcs());

    // SimRank computed on the restored graph is bit-identical: same topology,
    // same probabilities, same seeds.
    let config = SimRankConfig::default().with_samples(300).with_seed(8);
    let mut original_estimator = SpeedupEstimator::new(&graph, config);
    let mut restored_estimator = SpeedupEstimator::new(&restored, config);
    for (u, v) in [(0u32, 1u32), (3, 9), (12, 30)] {
        assert_eq!(
            original_estimator.similarity(u, v),
            restored_estimator.similarity(u, v),
            "pair ({u}, {v})"
        );
    }
}
