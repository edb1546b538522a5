//! SimRank similarity on uncertain graphs.
//!
//! This crate implements the primary contribution of *"SimRank Computation on
//! Uncertain Graphs"* (Zhu, Zou & Li, ICDE 2016): the SimRank measure on
//! uncertain graphs defined through random walks on possible worlds
//! (Definition 1 / Eq. 12 of the paper), and the four algorithms that
//! evaluate it:
//!
//! * [`BaselineEstimator`] — exact `n`-th SimRank via exact k-step transition
//!   probabilities (Section VI-A);
//! * [`SamplingEstimator`] — the Monte-Carlo estimator that samples `N`
//!   lazily-instantiated walks per query vertex (Section VI-B, Fig. 4);
//! * [`TwoPhaseEstimator`] — exact meeting probabilities for steps `k ≤ l`,
//!   sampled for `l < k ≤ n` (Section VI-C, the paper's SR-TS);
//! * [`SpeedupEstimator`] — SR-TS plus the bit-vector sharing technique of
//!   Section VI-D (the paper's SR-SP).
//!
//! For comparison, the crate also implements
//!
//! * classic SimRank on deterministic graphs ([`deterministic`]), used for
//!   the paper's SimRank-II / DSIM / SimDER baselines, and
//! * Du et al.'s uncertain SimRank ([`du_et_al`]), the prior work whose
//!   assumption `W(k) = (W(1))^k` the paper refutes (SimRank-III).
//!
//! For batched traffic, [`QueryEngine`] serves many pairs against one
//! graph, walking its CSR arrays with per-worker walk arenas and vertex-keyed
//! RNG streams, making batch output bit-identical to sequential queries at
//! any thread count.  It serves SR-TS with exact `m(1)` and `m(2)` and
//! estimates `m(k)`, `k ≥ 3`, from all `N²` pairs of its sampled walks.  The engine's graph is *live*: [`QueryEngine::apply_updates`]
//! applies [`ugraph::GraphUpdate`] batches through a [`ugraph::DeltaOverlay`]
//! (threshold-compacted back into a fresh CSR), so a long-running service
//! interleaves updates and queries without ever rebuilding the engine.
//!
//! # Walk direction
//!
//! SimRank is defined through in-neighbors ("two vertices are similar if
//! their in-neighbors are similar"), i.e. its random-walk interpretation uses
//! walks that follow arcs *backwards*.  The paper states its walk machinery
//! (Sections III–IV) in terms of out-neighbors and is silent about the
//! transposition; we follow the standard convention and, by default, run the
//! walk machinery on the transposed graph so that Theorem 3 (degeneration to
//! classic SimRank when all probabilities are 1) holds exactly.  Use
//! [`WalkDirection::OutNeighbors`] to reproduce forward-walk behaviour.
//!
//! # Quick start
//!
//! ```
//! use ugraph::UncertainGraphBuilder;
//! use usim_core::{SimRankConfig, TwoPhaseEstimator, SimRankEstimator};
//!
//! // Vertices 0 and 1 share the uncertain in-neighbor 2, so they are similar.
//! let g = UncertainGraphBuilder::new(4)
//!     .arc(2, 0, 0.9)
//!     .arc(2, 1, 0.8)
//!     .arc(3, 2, 0.7)
//!     .arc(0, 3, 0.5)
//!     .build()
//!     .unwrap();
//! let config = SimRankConfig::default().with_samples(200).with_seed(7);
//! let mut estimator = TwoPhaseEstimator::new(&g, config);
//! let s = estimator.similarity(0, 1);
//! assert!(s > 0.0 && s <= 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod bounds;
pub mod cached;
pub mod config;
pub mod deterministic;
pub mod du_et_al;
pub mod engine;
pub mod meeting;
pub mod memo;
pub mod parallel;
pub mod sampling;
pub mod single_source;
pub mod speedup;
pub mod top_k;
pub mod two_phase;

pub use baseline::BaselineEstimator;
pub use bounds::{
    corollary1_error_bound, required_samples, theorem2_error_bound, theorem4_error_bound,
};
pub use cached::CachedQueryEngine;
pub use config::{SamplerKind, SimRankConfig, WalkDirection};
pub use deterministic::{simrank_all_pairs, simrank_single_pair, DeterministicSimRank};
pub use du_et_al::DuEtAlEstimator;
pub use engine::{QueryEngine, QueryError};
pub use meeting::{combine_meeting_probabilities, MeetingProfile};
pub use memo::MemoStats;
pub use parallel::{
    par_mean_similarity, par_scored_pairs, par_similarities, par_top_k_pairs, par_top_k_similar_to,
};
pub use sampling::SamplingEstimator;
pub use single_source::{SingleSourceEstimator, SingleSourceResult, SourceMode};
pub use speedup::SpeedupEstimator;
pub use top_k::{top_k_pairs, top_k_similar_to, ScoredPair, ScoredVertex};
pub use two_phase::TwoPhaseEstimator;
pub use usim_cache::CacheStats;

/// The former reader/writer-locked engine handle, now a plain alias of
/// [`QueryEngine`] (the lock lives in [`CachedQueryEngine`]).  It exists
/// only so the unchanged `perfbench-trace` binary still builds
/// (`SharedQueryEngine::from_csr` is [`QueryEngine::from_csr`]); it is
/// deleted at the next change to the benchmark.  Use [`QueryEngine`].
pub type SharedQueryEngine = QueryEngine;

use ugraph::VertexId;

/// Common interface of all single-pair SimRank estimators, used by the
/// experiment harness, the case studies and the entity-resolution crate.
pub trait SimRankEstimator {
    /// Estimates the SimRank similarity `s(u, v)`.
    ///
    /// Estimators that use randomness carry their own seeded RNG, so the
    /// method takes `&mut self`; repeated calls with the same arguments may
    /// return different estimates for the sampling-based algorithms.
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64;

    /// A short human-readable name ("Baseline", "Sampling", "SR-TS", …).
    fn name(&self) -> &'static str;
}

impl<T: SimRankEstimator + ?Sized> SimRankEstimator for Box<T> {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        (**self).similarity(u, v)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use ugraph::UncertainGraphBuilder;

    #[test]
    fn boxed_estimators_satisfy_the_trait() {
        let graph = UncertainGraphBuilder::new(3)
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.8)
            .build()
            .unwrap();
        let config = SimRankConfig::default().with_samples(50).with_seed(1);
        let mut boxed: Box<dyn SimRankEstimator> = Box::new(TwoPhaseEstimator::new(&graph, config));
        // The blanket impl lets a Box<dyn …> be used wherever a concrete
        // estimator is expected (e.g. the parallel batch helpers).
        fn score<E: SimRankEstimator>(estimator: &mut E) -> f64 {
            estimator.similarity(0, 1)
        }
        let s = score(&mut boxed);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(boxed.name(), "SR-TS");
    }
}
