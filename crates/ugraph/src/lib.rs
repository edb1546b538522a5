//! Deterministic and uncertain directed graphs under the possible-world model.
//!
//! This crate provides the graph substrate used by the uncertain-SimRank
//! reproduction of *"SimRank Computation on Uncertain Graphs"* (Zhu, Zou & Li,
//! ICDE 2016):
//!
//! * [`DiGraph`] — a deterministic directed graph stored in compressed sparse
//!   row (CSR) form, with both forward (out-neighbor) and reverse
//!   (in-neighbor) adjacency.
//! * [`UncertainGraph`] — a directed graph whose arcs carry independent
//!   existence probabilities in `(0, 1]`, i.e. the tuple `(V, E, P)` of the
//!   paper (Section II).  It is the one in-memory uncertain graph: its
//!   forward and reverse CSR arrays are what every sampler and the batch
//!   engine walk, borrowed as [`CsrView`]s, so no estimator copies or
//!   transposes the graph per query.
//! * [`DeltaOverlay`] — dynamic graphs: arc insertions, deletions and
//!   probability updates recorded as sorted per-vertex patched rows over an
//!   immutable [`UncertainGraph`] base, merged on read through
//!   [`OverlayView`] and compacted back into a fresh base under a
//!   [`CompactionPolicy`].
//! * [`possible_world`] — the possible-world semantics: a possible world of an
//!   uncertain graph `G` is a deterministic graph on the same vertex set whose
//!   arc set is a subset of `E(G)`; its probability is the product in
//!   Eq. (4) of the paper.  Both exhaustive enumeration (for tiny graphs used
//!   in the tests) and i.i.d. sampling are provided.
//! * [`io`] — a small weighted-edge-list format (`u v p` per line) used by the
//!   examples and the experiment harness.
//! * [`snapshot`] — the one binary graph format: a versioned, checksummed
//!   on-disk image of an [`UncertainGraph`] (both directions plus an
//!   optional label table) read back into place without re-sorting or
//!   re-validating per edge, with every arc re-validated on demand by
//!   [`CsrSnapshot::validate`]; and [`updatelog`] — an
//!   append-only log of [`GraphUpdate`] rounds a restarted server replays on
//!   top of a snapshot to reach the exact epoch it died at.
//! * [`stats`] — degree and probability statistics used when calibrating the
//!   synthetic datasets against Table II of the paper.
//!
//! # Example
//!
//! ```
//! use ugraph::{UncertainGraphBuilder, UncertainGraph};
//!
//! // The 5-vertex uncertain graph of Fig. 1(a) in the paper.
//! let g: UncertainGraph = UncertainGraphBuilder::new(5)
//!     .arc(0, 2, 0.8) // e1: v1 -> v3
//!     .arc(0, 3, 0.5) // e2: v1 -> v4
//!     .arc(1, 0, 0.8) // e3: v2 -> v1
//!     .arc(1, 2, 0.9) // e4: v2 -> v3
//!     .arc(2, 0, 0.7) // e5: v3 -> v1
//!     .arc(2, 3, 0.6) // e6: v3 -> v4
//!     .arc(3, 4, 0.6) // e7: v4 -> v5
//!     .arc(3, 1, 0.8) // e8: v4 -> v2
//!     .build()
//!     .unwrap();
//! assert_eq!(g.num_vertices(), 5);
//! assert_eq!(g.num_arcs(), 8);
//! assert!((g.arc_probability(0, 2).unwrap() - 0.8).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alias;
mod builder;
pub mod csr;
mod error;
mod graph;
pub mod io;
pub mod overlay;
pub mod possible_world;
mod serde_impl;
pub mod snapshot;
pub mod stats;
mod uncertain;
pub mod updatelog;

pub use alias::{alias_draw, AliasSlot, AliasTable, AliasView, CsrAliasView};
pub use builder::{DiGraphBuilder, DuplicatePolicy, UncertainGraphBuilder};
pub use csr::{CsrView, GraphView};
pub use error::GraphError;
pub use graph::{ArcIter, DiGraph};
pub use overlay::{
    CompactionPolicy, DeltaOverlay, GraphUpdate, OverlayAliasView, OverlayView, UpdateError,
    UpdateSummary,
};
pub use snapshot::CsrSnapshot;
pub use uncertain::{ProbArc, UncertainGraph};
pub use updatelog::UpdateLog;

/// The walk-oriented CSR graph, which is [`UncertainGraph`] itself.  Kept
/// only for the benchmark harness, which names it; deleted at the next
/// change to the benchmark.
pub type CsrGraph = UncertainGraph;

/// Identifier of a vertex.  Vertices of a graph with `n` vertices are the
/// integers `0..n`.
pub type VertexId = u32;

/// Convenience alias used throughout the workspace for arc probabilities.
pub type Probability = f64;

/// Returns `true` when `p` is a valid arc existence probability, i.e. lies in
/// the half-open interval `(0, 1]` required by the paper's uncertain-graph
/// model (arcs with probability 0 simply do not exist).
#[inline]
pub fn is_valid_probability(p: Probability) -> bool {
    p.is_finite() && p > 0.0 && p <= 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_validation() {
        assert!(is_valid_probability(1.0));
        assert!(is_valid_probability(0.3));
        assert!(is_valid_probability(f64::MIN_POSITIVE));
        assert!(!is_valid_probability(0.0));
        assert!(!is_valid_probability(-0.1));
        assert!(!is_valid_probability(1.5));
        assert!(!is_valid_probability(f64::NAN));
        assert!(!is_valid_probability(f64::INFINITY));
    }
}
