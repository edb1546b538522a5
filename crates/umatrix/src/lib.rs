//! Matrix and bit-vector primitives for uncertain-graph SimRank.
//!
//! The paper's algorithms need three storage shapes:
//!
//! * dense probability matrices (`W(k)` becomes dense quickly as `k` grows) —
//!   [`DenseMatrix`];
//! * sparse rows/matrices (per-source transition rows `Pr(u →ₖ ·)` and the
//!   one-step matrix `W(1)`, which has only `|E|` non-zeros) —
//!   [`SparseVector`] and [`SparseMatrix`];
//! * `N`-dimensional bit vectors with fast bitwise AND/OR and popcount — the
//!   counting tables `M_w[k]` and filter vectors `F_e` of the SR-SP speed-up
//!   technique (Section VI-D of the paper) — [`BitVec`].
//!
//! All structures are self-contained (no linear-algebra dependencies) and are
//! written for clarity first, with the operations the estimators actually
//! need tuned for speed (row access, dot products, masked popcounts).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitvec;
pub mod dense;
pub mod sparse;

pub use bitvec::BitVec;
pub use dense::DenseMatrix;
pub use sparse::{SparseMatrix, SparseVector};
