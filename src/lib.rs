//! # uncertain-simrank
//!
//! A from-scratch Rust reproduction of *"SimRank Computation on Uncertain
//! Graphs"* (Rong Zhu, Zhaonian Zou, Jianzhong Li — ICDE 2016,
//! arXiv:1512.02714): SimRank similarity defined through random walks on the
//! possible worlds of an uncertain graph, together with the Baseline,
//! Sampling, two-phase (SR-TS) and bit-vector speed-up (SR-SP) estimators,
//! the comparison baselines, the synthetic datasets and the experiment
//! harness that regenerates every table and figure of the paper.
//!
//! This crate is a façade: it re-exports the workspace crates under stable
//! module names and provides a [`prelude`] with the handful of types most
//! applications need.
//!
//! ```
//! use uncertain_simrank::prelude::*;
//!
//! // Two papers cite the same pair of sources with high confidence; their
//! // SimRank under uncertainty reflects both the shared context and the
//! // confidence values.
//! let graph = UncertainGraphBuilder::new(4)
//!     .arc(2, 0, 0.9)
//!     .arc(2, 1, 0.8)
//!     .arc(3, 0, 0.7)
//!     .arc(3, 1, 0.4)
//!     .build()
//!     .unwrap();
//! let config = SimRankConfig::default().with_samples(200).with_seed(42);
//! let exact = BaselineEstimator::new(&graph, config).try_similarity(0, 1).unwrap();
//! let mut fast = SpeedupEstimator::new(&graph, config);
//! assert!((exact - fast.similarity(0, 1)).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Deterministic and uncertain directed graphs (re-export of [`ugraph`]).
pub use ugraph as graph;

/// Dense and sparse matrices and bit vectors (re-export of [`umatrix`]).
pub use umatrix as matrix;

/// Random walks on uncertain graphs: WalkPr, TransPr, samplers (re-export of
/// [`rwalk`]).
pub use rwalk as random_walk;

/// The SimRank measure and its estimators (re-export of [`usim_core`]).
pub use usim_core as simrank;

/// Jaccard / Dice / cosine similarities, deterministic and expected
/// (re-export of [`usim_similarity`]).
pub use usim_similarity as similarity;

/// Synthetic dataset generators (re-export of [`usim_datasets`]).
pub use usim_datasets as datasets;

/// Graph-based entity resolution (re-export of [`usim_er`]).
pub use usim_er as entity_resolution;

/// The epoch-aware sharded result cache fronting the query engine
/// (re-export of [`usim_cache`]; the engine integration is
/// [`usim_core::CachedQueryEngine`]).
pub use usim_cache as cache;

/// The line-delimited JSON query server over the dynamic engine (re-export
/// of [`usim_server`]; the CLI front-end is `usim serve`).
pub use usim_server as server;

/// The types most applications need, importable in one line.
pub mod prelude {
    pub use crate::cache::ResultCache;
    pub use crate::datasets::{CoauthorGenerator, ErGenerator, PpiGenerator, RmatGenerator};
    pub use crate::graph::{
        CompactionPolicy, CsrView, DeltaOverlay, DiGraph, DiGraphBuilder, GraphError, GraphUpdate,
        GraphView, UncertainGraph, UncertainGraphBuilder, UpdateError, VertexId,
    };
    pub use crate::random_walk::{alias_walk, WalkArena};
    pub use crate::server::{RequestHandler, Server, ServerOptions};
    pub use crate::simrank::{
        BaselineEstimator, CachedQueryEngine, QueryEngine, SamplerKind, SamplingEstimator,
        SimRankConfig, SimRankEstimator, SingleSourceEstimator, SourceMode, SpeedupEstimator,
        TwoPhaseEstimator, WalkDirection,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable() {
        let graph = UncertainGraphBuilder::new(3)
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.9)
            .build()
            .unwrap();
        let mut estimator = TwoPhaseEstimator::new(
            &graph,
            SimRankConfig::default().with_samples(100).with_seed(1),
        );
        let similarity = estimator.similarity(0, 1);
        assert!(similarity > 0.0 && similarity <= 1.0);
    }
}
