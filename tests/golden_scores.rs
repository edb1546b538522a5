//! Golden score pins: the exact bit patterns of the estimates the engine
//! serves, and of the paper's Sampling, SR-TS and SR-SP estimators, on a fixed
//! graph.
//!
//! Every other determinism test compares two in-tree code paths against each
//! other (batch vs sequential, arena vs `WalkSampler`, cached vs uncached).
//! These compare against constants recorded from an earlier build, so a
//! change that alters both sides of an in-tree comparison at once — e.g. a
//! reordering of the per-arc coin flips shared by every legacy walk — still
//! fails here.  The constants are FNV-1a hashes of the scores' `to_bits()`;
//! they must only ever change together with a deliberate, versioned change
//! of an estimator's answers.

use uncertain_simrank::graph::VertexId;
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::{
    QueryEngine, SamplerKind, SimRankConfig, SimRankEstimator, WalkDirection,
};

/// The fixed graph: R-MAT scale 10, 4096 edges before dedup.
fn golden_graph() -> UncertainGraph {
    RmatGenerator::small(0x901d).generate()
}

/// 64 fixed pairs: the 28 pairs among the eight lowest ids (R-MAT's hubs,
/// so most of their scores are non-zero) plus 36 spread over the id range.
fn golden_pairs(num_vertices: u32) -> Vec<(VertexId, VertexId)> {
    let mut pairs: Vec<(VertexId, VertexId)> = (0..7u32)
        .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
        .collect();
    pairs.extend((0..36u32).map(|i| ((i * 29 + 3) % num_vertices, (i * 131 + 17) % num_vertices)));
    assert_eq!(pairs.len(), 64);
    pairs
}

/// FNV-1a over the little-endian bytes of every score's bit pattern.
fn hash_bits(scores: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for score in scores {
        for byte in score.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn engine_scores(sampler: SamplerKind) -> Vec<f64> {
    let graph = golden_graph();
    let pairs = golden_pairs(graph.num_vertices() as u32);
    let config = SimRankConfig {
        sampler,
        ..SimRankConfig::default()
    };
    QueryEngine::new(&graph, config)
        .batch_similarities(&pairs)
        .expect("golden pairs are in range")
}

fn assert_pinned(what: &str, scores: &[f64], expected: u64) {
    let nonzero = scores.iter().filter(|&&s| s != 0.0).count();
    assert!(
        nonzero * 4 >= scores.len(),
        "{what}: only {nonzero} of {} scores are non-zero; the pin has no teeth",
        scores.len()
    );
    let hash = hash_bits(scores);
    assert_eq!(
        hash, expected,
        "{what}: score bits changed (hash {hash:#018x}, pinned {expected:#018x})"
    );
}

#[test]
fn legacy_engine_scores_match_the_golden_bits() {
    let scores = engine_scores(SamplerKind::Legacy);
    assert_pinned("legacy engine", &scores, 0xdae4_d093_8ddd_4138);
}

#[test]
fn alias_engine_scores_match_the_golden_bits() {
    let scores = engine_scores(SamplerKind::Alias);
    assert_pinned("alias engine", &scores, 0x2ecd_26bc_a5ac_2bc4);
}

/// The single-source estimator draws a whole functional instantiation per
/// sample through the same per-arc kernel as the walks.
#[test]
fn single_source_scores_match_the_golden_bits() {
    let graph = golden_graph();
    let config = SimRankConfig {
        num_samples: 100,
        ..SimRankConfig::default()
    };
    let mut estimator = SingleSourceEstimator::new(&graph, config);
    let scores: Vec<f64> = [0, 1, 2, 5]
        .into_iter()
        .flat_map(|source| estimator.query(source).similarities())
        .collect();
    assert_pinned("single source", &scores, 0x705a_cb2b_c8c8_ac65);
}

/// The paper's estimators, each asked the golden pairs in order from one
/// instance (its RNG stream runs on from pair to pair), in one walk
/// direction.
fn estimator_scores<E: SimRankEstimator>(
    build: impl Fn(&UncertainGraph, SimRankConfig) -> E,
    direction: WalkDirection,
) -> Vec<f64> {
    let graph = golden_graph();
    let pairs = golden_pairs(graph.num_vertices() as u32);
    let mut estimator = build(&graph, SimRankConfig::default().with_direction(direction));
    pairs
        .iter()
        .map(|&(u, v)| estimator.similarity(u, v))
        .collect()
}

/// SR-SA: Eq. 13's index-matched walk pairs from step 1.
#[test]
fn sampling_estimator_scores_match_the_golden_bits() {
    for (direction, expected) in [
        (WalkDirection::InNeighbors, 0x6179_5903_9c33_c613),
        (WalkDirection::OutNeighbors, 0xd509_93a7_4a03_4777),
    ] {
        let scores = estimator_scores(SamplingEstimator::new, direction);
        assert_pinned(&format!("sampling, {direction:?}"), &scores, expected);
    }
}

/// SR-TS: TransPr's exact steps up to l, then Eq. 13 from step l + 1.
#[test]
fn two_phase_estimator_scores_match_the_golden_bits() {
    for (direction, expected) in [
        (WalkDirection::InNeighbors, 0x9001_eb3a_6802_d3fe),
        (WalkDirection::OutNeighbors, 0x9f7e_c33d_b95d_582e),
    ] {
        let scores = estimator_scores(TwoPhaseEstimator::new, direction);
        assert_pinned(&format!("two-phase, {direction:?}"), &scores, expected);
    }
}

/// SR-SP: SR-TS's exact phase, then walk pairs read off per-vertex filter
/// vectors (Section VI-D).
#[test]
fn speedup_estimator_scores_match_the_golden_bits() {
    for (direction, expected) in [
        (WalkDirection::InNeighbors, 0x2e4a_ae03_dba8_2c2d),
        (WalkDirection::OutNeighbors, 0x2db3_86e6_b53b_63cf),
    ] {
        let scores = estimator_scores(SpeedupEstimator::new, direction);
        assert_pinned(&format!("speedup, {direction:?}"), &scores, expected);
    }
}
