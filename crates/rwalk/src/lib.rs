//! Random walks on uncertain graphs.
//!
//! This crate implements Sections III and IV of *"SimRank Computation on
//! Uncertain Graphs"* (Zhu, Zou & Li, ICDE 2016):
//!
//! * [`walk`] — the walk representation and the per-vertex statistics
//!   `O_W(v)` (distinct out-neighbors used by the walk) and `c_W(v)` (number
//!   of transitions out of `v` in the walk);
//! * [`walkpr`] — the `WalkPr` algorithm (Fig. 2): the exact probability of a
//!   walk on an uncertain graph via the out-degree-distribution dynamic
//!   program of Eq. (11);
//! * [`transpr`] — the `TransPr` algorithm (Fig. 3): the k-step transition
//!   probability matrices `W(1), …, W(K)` of an uncertain graph, computed by
//!   extending walks one arc at a time, and the single-source restriction
//!   used by the Baseline SimRank estimator;
//! * [`expected`] — the exact *expected one-step* transition matrix `W(1)`
//!   (the only `W(k)` that is sparse), which is also the matrix that Du et
//!   al.'s prior work raises to the k-th power;
//! * [`sampler`] — the lazily-instantiated random-walk sampler of the
//!   Sampling algorithm (Fig. 4, lines 1–18);
//! * [`arena`] — the allocation-free fast path of the same sampler,
//!   [`WalkArena::sample_walk`], which walks any [`ugraph::GraphView`] with
//!   bit-identical RNG consumption through a reusable per-worker
//!   [`WalkArena`], and the alias-step walk [`alias_walk`].
//!
//! The central fact motivating all of this (Section IV of the paper) is that
//! on an uncertain graph `W(k) ≠ (W(1))^k`: when a walk revisits a vertex,
//! its transitions out of that vertex are correlated through the shared
//! possible world, so walk probabilities do not factor into one-step
//! probabilities.  The tests in [`transpr`] verify this inequality on the
//! paper's running example.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod expected;
pub mod sampler;
pub mod transpr;
pub mod walk;
pub mod walkpr;

pub use arena::{alias_walk, instantiate_row, WalkArena, DEAD};
pub use expected::expected_one_step_matrix;
pub use sampler::{SampledWalk, WalkSampler};
pub use transpr::{transition_matrices, transition_rows_from, TransPrOptions, TransitionMatrices};
pub use walk::Walk;
pub use walkpr::{alpha, walk_probability};
