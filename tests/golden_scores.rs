//! Golden score pins: the exact bit patterns of the estimates the engine
//! serves on a fixed graph.
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
use uncertain_simrank::simrank::{QueryEngine, SamplerKind, SimRankConfig};

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
