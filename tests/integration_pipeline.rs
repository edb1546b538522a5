//! End-to-end integration tests spanning the workspace crates:
//! dataset generation → SimRank estimation → ranking / entity resolution.

use uncertain_simrank::datasets::{CoauthorGenerator, ErGenerator, PpiGenerator};
use uncertain_simrank::entity_resolution::{evaluate_clustering, ErAlgorithm, ErAlgorithmKind};
use uncertain_simrank::prelude::*;
use uncertain_simrank::similarity::{expected_jaccard, NeighborhoodMode};
use uncertain_simrank::simrank::{
    deterministic::simrank_all_pairs, top_k::top_k_pairs, BaselineEstimator, DuEtAlEstimator,
};

/// The paper's Fig. 1(a) running example.
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

#[test]
fn all_estimators_agree_on_the_running_example() {
    let graph = fig1_graph();
    let config = SimRankConfig::default().with_samples(5000).with_seed(99);
    let baseline = BaselineEstimator::new(&graph, config);
    let mut sampling = SamplingEstimator::new(&graph, config);
    let mut two_phase = TwoPhaseEstimator::new(&graph, config);
    let mut speedup = SpeedupEstimator::new(&graph, config);
    for u in graph.vertices() {
        for v in graph.vertices() {
            let exact = baseline.try_similarity(u, v).unwrap();
            for (name, estimate) in [
                ("Sampling", sampling.similarity(u, v)),
                ("SR-TS", two_phase.similarity(u, v)),
                ("SR-SP", speedup.similarity(u, v)),
            ] {
                assert!(
                    (exact - estimate).abs() < 0.05,
                    "{name} deviates on ({u},{v}): exact {exact}, estimate {estimate}"
                );
            }
        }
    }
}

#[test]
fn theorem_3_holds_end_to_end_on_a_generated_dataset() {
    // A generated co-authorship graph with all probabilities forced to 1 must
    // reproduce classic SimRank on its skeleton, through the whole pipeline.
    let graph = CoauthorGenerator {
        num_authors: 60,
        edges_per_author: 2,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .certain();
    let config = SimRankConfig::default().with_horizon(4);
    let baseline = BaselineEstimator::new(&graph, config);
    let classic = simrank_all_pairs(graph.skeleton(), config.decay, config.horizon);
    for u in (0..60u32).step_by(7) {
        for v in (0..60u32).step_by(11) {
            let uncertain = baseline.try_similarity(u, v).unwrap();
            let deterministic = classic[(u as usize, v as usize)];
            assert!(
                (uncertain - deterministic).abs() < 1e-9,
                "pair ({u},{v}): {uncertain} vs {deterministic}"
            );
        }
    }
}

#[test]
fn uncertain_simrank_ranks_planted_complex_pairs_higher_than_du_et_al_ranks_random_pairs() {
    // On a planted-complex PPI dataset, the top pairs found by the
    // uncertainty-aware estimator should predominantly lie within complexes.
    let dataset = PpiGenerator {
        num_proteins: 200,
        num_complexes: 25,
        complex_size: (3, 5),
        noise_edges: 250,
        seed: 31,
        ..Default::default()
    }
    .generate();
    let graph = &dataset.graph;
    let config = SimRankConfig::default().with_samples(300).with_seed(31);
    let mut estimator = SpeedupEstimator::new(graph, config);
    // Candidate pairs: share at least one possible neighbor.
    let mut candidates = std::collections::HashSet::new();
    for w in graph.vertices() {
        let neighbors = graph.out_neighbors(w);
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                candidates.insert((a.min(b), a.max(b)));
            }
        }
    }
    let top = top_k_pairs(&mut estimator, candidates.iter().copied(), 15);
    let hits = top
        .iter()
        .filter(|scored| dataset.same_complex(scored.pair.0, scored.pair.1))
        .count();
    assert!(
        hits >= 10,
        "expected most of the top-15 pairs to be within a planted complex, got {hits}"
    );
}

#[test]
fn entity_resolution_pipeline_beats_trivial_clusterings() {
    let dataset = ErGenerator::small(77).generate();
    let algorithm = ErAlgorithm::new(ErAlgorithmKind::SimEr)
        .with_simrank_config(SimRankConfig::default().with_samples(300).with_seed(77));
    for group_index in 0..dataset.groups.len() {
        let records = dataset.records_of_group(group_index);
        let clustering = algorithm.cluster_group(&dataset.graph, &records);
        let quality = evaluate_clustering(&clustering, |a, b| dataset.same_author(a, b));
        // Better than both degenerate baselines: everything-in-one-cluster
        // (precision suffers) and all-singletons (recall = 0 -> F1 = 0).
        assert!(quality.f1 > 0.3, "group {group_index}: F1 = {}", quality.f1);
    }
}

#[test]
fn measures_disagree_on_uncertain_graphs_but_agree_on_certain_ones() {
    let graph = fig1_graph();
    let config = SimRankConfig::default();
    let baseline = BaselineEstimator::new(&graph, config);
    let mut du = DuEtAlEstimator::new(&graph, config);
    let mut simrank_gap: f64 = 0.0;
    for u in graph.vertices() {
        for v in graph.vertices() {
            simrank_gap = simrank_gap
                .max((baseline.try_similarity(u, v).unwrap() - du.similarity(u, v)).abs());
        }
    }
    assert!(
        simrank_gap > 1e-4,
        "Du et al. should differ under uncertainty"
    );

    let certain = graph.certain();
    let baseline_certain = BaselineEstimator::new(&certain, config);
    let mut du_certain = DuEtAlEstimator::new(&certain, config);
    for u in certain.vertices() {
        for v in certain.vertices() {
            let a = baseline_certain.try_similarity(u, v).unwrap();
            let b = du_certain.similarity(u, v);
            assert!(
                (a - b).abs() < 1e-9,
                "on a certain graph the measures coincide"
            );
        }
    }
}

#[test]
fn jaccard_is_zero_without_common_neighbors_but_simrank_is_not() {
    // The paper's motivation for SimRank: it assigns similarity to vertices
    // without common neighbors as long as their neighborhoods are similar.
    let graph = UncertainGraphBuilder::new(6)
        // u = 0 and v = 1 have distinct in-neighbors (2 and 3) which in turn
        // share an in-neighbor (4).
        .arc(2, 0, 0.9)
        .arc(3, 1, 0.9)
        .arc(4, 2, 0.8)
        .arc(4, 3, 0.8)
        .arc(5, 4, 0.7)
        .build()
        .unwrap();
    let jaccard = expected_jaccard(&graph, 0, 1, NeighborhoodMode::In);
    assert_eq!(jaccard, 0.0);
    let baseline = BaselineEstimator::new(&graph, SimRankConfig::default());
    let simrank = baseline.try_similarity(0, 1).unwrap();
    assert!(
        simrank > 0.05,
        "SimRank should see the two-hop structure, got {simrank}"
    );
}
