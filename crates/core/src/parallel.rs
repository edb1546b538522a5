//! Parallel batch-query helpers.
//!
//! The paper's evaluation averages every measurement over 1000 independent
//! vertex-pair queries, and real applications (the entity-resolution case
//! study, the protein case study, the CLI) likewise issue many independent
//! single-pair queries against the same graph.  The estimators carry mutable
//! state (seeded RNGs, filter-vector caches), so they cannot be shared across
//! threads directly; these helpers follow the standard *factory* pattern
//! instead: the caller supplies a closure that builds a fresh estimator, one
//! estimator is constructed per rayon worker, and the queries are distributed
//! over the workers.
//!
//! Determinism: for estimators whose answers do not depend on query order —
//! every exact estimator, e.g. [`crate::BaselineEstimator`] — the returned
//! values are identical regardless of the number of threads (pinned by the
//! `parallel_determinism` integration tests).  Randomised estimators
//! ([`crate::SamplingEstimator`], [`crate::TwoPhaseEstimator`],
//! [`crate::SpeedupEstimator`]) advance their internal RNG per query, and
//! `map_init` reuses one estimator for the consecutive queries of a work
//! chunk, so their per-pair estimates *do* depend on how the batch is split
//! across workers: two runs agree exactly only under the same thread count,
//! and otherwise agree statistically (same seeds, same sample sizes).  Pin
//! the thread count with `rayon::ThreadPoolBuilder` + `install` when exact
//! reproducibility of sampled batch results is required.

use crate::top_k::{sort_descending_by_score, ScoredPair, ScoredVertex};
use crate::SimRankEstimator;
use rayon::prelude::*;
use ugraph::VertexId;

/// Evaluates `s(u, v)` for every pair in `pairs`, in parallel, preserving the
/// input order in the output.
///
/// `factory` is called once per rayon worker (plus once per work-stealing
/// split) to obtain a private estimator; construct it with a fixed seed for
/// reproducible results.
pub fn par_similarities<E, F>(factory: F, pairs: &[(VertexId, VertexId)]) -> Vec<f64>
where
    E: SimRankEstimator,
    F: Fn() -> E + Sync + Send,
{
    pairs
        .par_iter()
        .map_init(&factory, |estimator, &(u, v)| estimator.similarity(u, v))
        .collect()
}

/// Evaluates `s(u, v)` for every pair and returns `(pair, score)` tuples in
/// input order — convenience for harness code that reports both.
pub fn par_scored_pairs<E, F>(factory: F, pairs: &[(VertexId, VertexId)]) -> Vec<ScoredPair>
where
    E: SimRankEstimator,
    F: Fn() -> E + Sync + Send,
{
    pairs
        .par_iter()
        .map_init(&factory, |estimator, &(u, v)| ScoredPair {
            pair: (u.min(v), u.max(v)),
            score: estimator.similarity(u, v),
        })
        .collect()
}

/// The `k` highest-scoring pairs among `pairs`, evaluated in parallel.
/// Self-pairs are skipped and each unordered pair is evaluated once; ties are
/// broken by pair id for determinism.
pub fn par_top_k_pairs<E, F>(
    factory: F,
    pairs: &[(VertexId, VertexId)],
    k: usize,
) -> Vec<ScoredPair>
where
    E: SimRankEstimator,
    F: Fn() -> E + Sync + Send,
{
    let mut unique: Vec<(VertexId, VertexId)> = pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    unique.sort_unstable();
    unique.dedup();
    let mut scored = par_scored_pairs(factory, &unique);
    sort_descending_by_score(
        &mut scored,
        |s| s.score,
        |s| (s.pair.0 as u64) << 32 | s.pair.1 as u64,
    );
    scored.truncate(k);
    scored
}

/// The `k` candidates most similar to `query`, evaluated in parallel.  The
/// query vertex itself is skipped.
pub fn par_top_k_similar_to<E, F>(
    factory: F,
    query: VertexId,
    candidates: &[VertexId],
    k: usize,
) -> Vec<ScoredVertex>
where
    E: SimRankEstimator,
    F: Fn() -> E + Sync + Send,
{
    let mut scored: Vec<ScoredVertex> = candidates
        .par_iter()
        .filter(|&&v| v != query)
        .map_init(&factory, |estimator, &v| ScoredVertex {
            vertex: v,
            score: estimator.similarity(query, v),
        })
        .collect();
    sort_descending_by_score(&mut scored, |s| s.score, |s| s.vertex as u64);
    scored.truncate(k);
    scored
}

/// Mean similarity over a batch of pairs, evaluated in parallel — the
/// aggregate the paper's Fig. 8 convergence experiment reports.
pub fn par_mean_similarity<E, F>(factory: F, pairs: &[(VertexId, VertexId)]) -> f64
where
    E: SimRankEstimator,
    F: Fn() -> E + Sync + Send,
{
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .par_iter()
        .map_init(&factory, |estimator, &(u, v)| estimator.similarity(u, v))
        .sum();
    total / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEstimator;
    use crate::config::SimRankConfig;
    use crate::two_phase::TwoPhaseEstimator;
    use ugraph::{UncertainGraph, UncertainGraphBuilder};

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

    fn all_ordered_pairs(n: u32) -> Vec<(VertexId, VertexId)> {
        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    #[test]
    fn parallel_baseline_matches_sequential() {
        let g = fig1_graph();
        let config = SimRankConfig::default();
        let pairs = all_ordered_pairs(5);
        let parallel = par_similarities(|| BaselineEstimator::new(&g, config), &pairs);
        let sequential: Vec<f64> = {
            let mut estimator = BaselineEstimator::new(&g, config);
            pairs
                .iter()
                .map(|&(u, v)| estimator.similarity(u, v))
                .collect()
        };
        assert_eq!(parallel.len(), sequential.len());
        for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
            assert!(
                (p - s).abs() < 1e-12,
                "pair index {i}: parallel {p}, sequential {s}"
            );
        }
    }

    #[test]
    fn parallel_results_preserve_input_order() {
        let g = fig1_graph();
        let config = SimRankConfig::default();
        let pairs = vec![(0u32, 1u32), (3, 4), (2, 0), (1, 1)];
        let scored = par_scored_pairs(|| BaselineEstimator::new(&g, config), &pairs);
        assert_eq!(scored.len(), pairs.len());
        assert_eq!(scored[0].pair, (0, 1));
        assert_eq!(scored[1].pair, (3, 4));
        assert_eq!(scored[2].pair, (0, 2));
        assert_eq!(scored[3].pair, (1, 1));
    }

    #[test]
    fn top_k_pairs_dedupes_and_ranks() {
        let g = fig1_graph();
        let config = SimRankConfig::default();
        let pairs = vec![(0u32, 1u32), (1, 0), (2, 3), (0, 2), (4, 4), (3, 2)];
        let top = par_top_k_pairs(|| BaselineEstimator::new(&g, config), &pairs, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        // Every returned pair is one of the distinct non-self inputs.
        for scored in &top {
            assert!([(0, 1), (2, 3), (0, 2)].contains(&scored.pair));
        }
    }

    #[test]
    fn top_k_pairs_matches_single_threaded_ranking() {
        // Two parents with identical out-arcs: every pair of their children
        // ties, so the cut at k = 4 falls inside a run of equal scores and
        // only the pair-id tie order decides which pairs make it.
        let mut builder = UncertainGraphBuilder::new(8);
        for child in 2..8 {
            builder = builder.arc(0, child, 0.5).arc(1, child, 0.5);
        }
        let g = builder.build().unwrap();
        let config = SimRankConfig::default();
        let pairs = all_ordered_pairs(8);
        let mut sequential_estimator = BaselineEstimator::new(&g, config);
        let sequential =
            crate::top_k::top_k_pairs(&mut sequential_estimator, pairs.iter().copied(), 4);
        assert_eq!(sequential.len(), 4);
        assert_eq!(
            sequential[1].score, sequential[3].score,
            "no tie at the cut"
        );
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel =
                pool.install(|| par_top_k_pairs(|| BaselineEstimator::new(&g, config), &pairs, 4));
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.pair, s.pair, "{threads} threads");
                assert_eq!(p.score.to_bits(), s.score.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn top_k_similar_to_matches_single_threaded_ranking() {
        let g = fig1_graph();
        let config = SimRankConfig::default();
        let candidates: Vec<VertexId> = (0..5).collect();
        let parallel =
            par_top_k_similar_to(|| BaselineEstimator::new(&g, config), 0, &candidates, 3);
        let mut sequential_estimator = BaselineEstimator::new(&g, config);
        let sequential =
            crate::top_k::top_k_similar_to(&mut sequential_estimator, 0, candidates.clone(), 3);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.vertex, s.vertex);
            assert!((p.score - s.score).abs() < 1e-12);
        }
    }

    #[test]
    fn randomised_estimators_are_reproducible_across_runs() {
        // Two identical parallel runs with the same factory seeds give the
        // same estimates (each query gets a fresh estimator stream).
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(200).with_seed(77);
        let pairs = all_ordered_pairs(5);
        let first = par_similarities(|| TwoPhaseEstimator::new(&g, config), &pairs);
        let second = par_similarities(|| TwoPhaseEstimator::new(&g, config), &pairs);
        // Note: map_init may reuse one estimator for several consecutive
        // pairs, so run-to-run equality is only guaranteed when the work
        // split is the same; compare statistically instead of exactly.
        let mean_first: f64 = first.iter().sum::<f64>() / first.len() as f64;
        let mean_second: f64 = second.iter().sum::<f64>() / second.len() as f64;
        assert!((mean_first - mean_second).abs() < 0.05);
        for (a, b) in first.iter().zip(&second) {
            assert!((a - b).abs() < 0.2, "estimates drifted: {a} vs {b}");
        }
    }

    #[test]
    fn mean_similarity_of_empty_batch_is_zero() {
        let g = fig1_graph();
        let config = SimRankConfig::default();
        assert_eq!(
            par_mean_similarity(|| BaselineEstimator::new(&g, config), &[]),
            0.0
        );
        let mean = par_mean_similarity(|| BaselineEstimator::new(&g, config), &[(0, 0), (1, 1)]);
        assert!(
            mean > 0.5,
            "self-pairs should have high similarity, got {mean}"
        );
    }
}
