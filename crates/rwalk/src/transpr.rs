//! The `TransPr` algorithm (Fig. 3 of the paper): k-step transition
//! probability matrices of an uncertain graph.
//!
//! `Pr_G(u →ₖ v)` is the sum of the walk probabilities of all walks of length
//! `k` from `u` to `v` (Eq. 7).  Because walk probabilities on an uncertain
//! graph do not factor into one-step probabilities, the matrices cannot be
//! obtained by matrix powers; instead `TransPr` extends every walk of length
//! `k` by one arc to enumerate the walks of length `k + 1`, updating each
//! walk's probability with the `α`-ratio of Lemma 2 (or, for walks that have
//! not yet left their current end vertex, directly with the expected one-step
//! probability: the shortcut of Lemma 3, decided per walk).
//!
//! The number of walks grows like `d^k` (`d` = average out-degree), which is
//! why the paper keeps the walk files on disk and why its Baseline algorithm
//! is only competitive on small graphs.  This implementation keeps the
//! frontier in memory, enforces a configurable walk budget
//! ([`TransPrOptions::max_walks`]), and offers the single-source restriction
//! [`transition_rows_from`] that the Baseline SimRank estimator actually
//! needs (walks out of one query vertex only).

use crate::expected::expected_one_step_row;
use crate::walkpr::alpha;
use std::collections::{BTreeMap, HashMap};
use ugraph::{UncertainGraph, VertexId};
use umatrix::{DenseMatrix, SparseVector};

/// Options for the `TransPr` computation.
#[derive(Debug, Clone)]
pub struct TransPrOptions {
    /// Upper bound on the number of in-flight walks; the computation fails
    /// with [`TransPrError::WalkBudgetExceeded`] instead of exhausting
    /// memory.  The default (5,000,000) is enough for the paper's `n = 5`
    /// horizon on graphs with average degree around 20 when starting from a
    /// single source.
    pub max_walks: usize,
    /// Drop in-flight walks whose probability has fallen below this
    /// threshold.  `0.0` (the default) keeps everything and is exact; a small
    /// positive value trades a bounded absolute error for speed on denser
    /// graphs.
    pub prune_threshold: f64,
}

impl Default for TransPrOptions {
    fn default() -> Self {
        TransPrOptions {
            max_walks: 5_000_000,
            prune_threshold: 0.0,
        }
    }
}

/// Errors produced by the `TransPr` computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransPrError {
    /// The number of in-flight walks exceeded [`TransPrOptions::max_walks`].
    WalkBudgetExceeded {
        /// The step at which the budget was exceeded.
        step: usize,
        /// The number of walks that would have been needed.
        walks: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for TransPrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransPrError::WalkBudgetExceeded { step, walks, budget } => write!(
                f,
                "TransPr walk budget exceeded at step {step}: {walks} walks needed, budget is {budget}; \
                 raise TransPrOptions::max_walks or use the sampling estimator"
            ),
        }
    }
}

impl std::error::Error for TransPrError {}

/// The k-step transition probability matrices `W(1), …, W(K)` of an uncertain
/// graph (dense; `W(0)` is the identity and is represented implicitly).
#[derive(Debug, Clone)]
pub struct TransitionMatrices {
    num_vertices: usize,
    matrices: Vec<DenseMatrix>,
}

impl TransitionMatrices {
    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The largest step `K` for which `W(K)` is available.
    pub fn max_step(&self) -> usize {
        self.matrices.len()
    }

    /// The matrix `W(k)` for `1 ≤ k ≤ max_step`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`TransitionMatrices::max_step`].
    pub fn step(&self, k: usize) -> &DenseMatrix {
        assert!(k >= 1 && k <= self.matrices.len(), "step {k} not computed");
        &self.matrices[k - 1]
    }

    /// `Pr_G(u →ₖ v)`; `k = 0` returns the identity-matrix entry.
    pub fn probability(&self, k: usize, u: VertexId, v: VertexId) -> f64 {
        if k == 0 {
            return if u == v { 1.0 } else { 0.0 };
        }
        self.step(k)[(u as usize, v as usize)]
    }

    /// The meeting probability `m(k)(u, v) = Σ_w Pr(u →ₖ w) Pr(v →ₖ w)`
    /// (`k = 0` gives 1 if `u == v` and 0 otherwise).
    pub fn meeting_probability(&self, k: usize, u: VertexId, v: VertexId) -> f64 {
        if k == 0 {
            return if u == v { 1.0 } else { 0.0 };
        }
        self.step(k).row_dot(u as usize, v as usize)
    }
}

/// One in-flight walk of the frontier: its start, its end, its probability,
/// and the per-vertex `(O_W(v), c_W(v))` bookkeeping needed to compute
/// `α`-ratios for future extensions.
#[derive(Debug, Clone)]
struct ActiveWalk {
    start: VertexId,
    end: VertexId,
    probability: f64,
    stats: BTreeMap<VertexId, (Vec<VertexId>, usize)>,
}

impl ActiveWalk {
    fn new(start: VertexId) -> Self {
        ActiveWalk {
            start,
            end: start,
            probability: 1.0,
            stats: BTreeMap::new(),
        }
    }

    /// `(O_W(end), c_W(end))` of the current end vertex.
    fn end_stats(&self) -> (&[VertexId], usize) {
        match self.stats.get(&self.end) {
            Some((out, count)) => (out.as_slice(), *count),
            None => (&[], 0),
        }
    }
}

/// Extends every walk of the frontier by one arc and returns the new
/// frontier.  `one_step_rows[u]` caches the expected one-step probabilities
/// aligned with `g.out_arcs(u)`; a row is computed the first time a walk
/// leaves its vertex, so a single-source query pays only for the vertices
/// its frontier reaches, not for all of `V`.
fn extend_frontier(
    g: &UncertainGraph,
    frontier: Vec<ActiveWalk>,
    one_step_rows: &mut HashMap<VertexId, Vec<f64>>,
    options: &TransPrOptions,
    step: usize,
) -> Result<Vec<ActiveWalk>, TransPrError> {
    // Estimate the size of the next frontier to enforce the budget up front.
    let projected: usize = frontier.iter().map(|w| g.out_degree(w.end)).sum();
    if projected > options.max_walks {
        return Err(TransPrError::WalkBudgetExceeded {
            step,
            walks: projected,
            budget: options.max_walks,
        });
    }
    let mut next = Vec::with_capacity(projected);
    for walk in frontier {
        let (neighbors, _) = g.out_arcs(walk.end);
        if neighbors.is_empty() {
            // The walk dies at a vertex with no possible out-arcs.
            continue;
        }
        let (end_out, end_count) = walk.end_stats();
        let fresh_end = end_count == 0;
        // A vertex that has never been left has no accumulated α yet, so the
        // Lemma 2 ratio degenerates to the new α alone.
        let old_alpha = if fresh_end {
            1.0
        } else {
            alpha(g, walk.end, end_out, end_count)
        };
        let one_step_row = fresh_end.then(|| {
            &*one_step_rows
                .entry(walk.end)
                .or_insert_with(|| expected_one_step_row(g, walk.end))
        });
        for (idx, &w) in neighbors.iter().enumerate() {
            let factor = if let Some(row) = one_step_row {
                // Lemma 3 style shortcut: the end vertex has never been left
                // before, so the update factor is the expected one-step
                // probability of this arc.
                row[idx]
            } else {
                // Lemma 2: ratio of the new and old alpha of the end vertex.
                let mut new_out = end_out.to_vec();
                if let Err(pos) = new_out.binary_search(&w) {
                    new_out.insert(pos, w);
                }
                let new_alpha = alpha(g, walk.end, &new_out, end_count + 1);
                if old_alpha == 0.0 {
                    0.0
                } else {
                    new_alpha / old_alpha
                }
            };
            let probability = walk.probability * factor;
            if probability == 0.0 || probability < options.prune_threshold {
                continue;
            }
            let mut stats = walk.stats.clone();
            let entry = stats.entry(walk.end).or_insert_with(|| (Vec::new(), 0));
            if let Err(pos) = entry.0.binary_search(&w) {
                entry.0.insert(pos, w);
            }
            entry.1 += 1;
            next.push(ActiveWalk {
                start: walk.start,
                end: w,
                probability,
                stats,
            });
        }
    }
    Ok(next)
}

/// Runs `TransPr` and returns all matrices `W(1), …, W(k_max)`.
///
/// This enumerates every walk of length up to `k_max` from every vertex, so
/// it is only feasible for small graphs (it is the all-pairs ground truth the
/// tests and the measure-comparison experiment use).  For single-pair SimRank
/// queries use [`transition_rows_from`] instead.
pub fn transition_matrices(
    g: &UncertainGraph,
    k_max: usize,
    options: &TransPrOptions,
) -> Result<TransitionMatrices, TransPrError> {
    let n = g.num_vertices();
    let mut one_step_rows = HashMap::new();
    let mut frontier: Vec<ActiveWalk> = g.vertices().map(ActiveWalk::new).collect();
    let mut matrices = Vec::with_capacity(k_max);
    for step in 1..=k_max {
        frontier = extend_frontier(g, frontier, &mut one_step_rows, options, step)?;
        let mut matrix = DenseMatrix::zeros(n, n);
        for walk in &frontier {
            matrix[(walk.start as usize, walk.end as usize)] += walk.probability;
        }
        matrices.push(matrix);
    }
    Ok(TransitionMatrices {
        num_vertices: n,
        matrices,
    })
}

/// Runs `TransPr` restricted to walks starting at `source` and returns the
/// rows `Pr_G(source →ₖ ·)` for `k = 0, 1, …, k_max` (index `k` of the
/// returned vector; index 0 is the one-hot row at `source`).
///
/// This is what the Baseline SimRank estimator needs for a single-pair query
/// (Section VI-A): `m(k)(u, v)` is the dot product of the two source rows.
pub fn transition_rows_from(
    g: &UncertainGraph,
    source: VertexId,
    k_max: usize,
    options: &TransPrOptions,
) -> Result<Vec<SparseVector>, TransPrError> {
    let mut one_step_rows = HashMap::new();
    let mut rows = Vec::with_capacity(k_max + 1);
    rows.push(SparseVector::unit(source, 1.0));
    let mut frontier = vec![ActiveWalk::new(source)];
    for step in 1..=k_max {
        frontier = extend_frontier(g, frontier, &mut one_step_rows, options, step)?;
        let row = SparseVector::from_pairs(frontier.iter().map(|w| (w.end, w.probability)));
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::Walk;
    use crate::walkpr::walk_probability;
    use ugraph::{DiGraph, UncertainGraphBuilder};

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

    /// `Pr(u →ₖ v)` on a deterministic graph, by dense matrix powers.
    fn deterministic_k_step(world: &DiGraph, k: usize) -> DenseMatrix {
        let n = world.num_vertices();
        let one = DenseMatrix::from_fn(n, n, |i, j| {
            world.transition_probability(i as VertexId, j as VertexId)
        });
        let mut acc = DenseMatrix::identity(n);
        for _ in 0..k {
            acc = acc.matmul(&one);
        }
        acc
    }

    fn brute_force_k_step(g: &UncertainGraph, k: usize) -> DenseMatrix {
        let n = g.num_vertices();
        let mut acc = DenseMatrix::zeros(n, n);
        for world in ugraph::possible_world::enumerate_worlds(g) {
            let wk = deterministic_k_step(&world.graph, k);
            acc.add_scaled(&wk, world.probability);
        }
        acc
    }

    #[test]
    fn one_step_matrix_matches_brute_force() {
        let g = fig1_graph();
        let tm = transition_matrices(&g, 1, &TransPrOptions::default()).unwrap();
        let brute = brute_force_k_step(&g, 1);
        assert!(tm.step(1).max_abs_diff(&brute) < 1e-10);
    }

    #[test]
    fn multi_step_matrices_match_brute_force() {
        let g = fig1_graph();
        let k_max = 4;
        let tm = transition_matrices(&g, k_max, &TransPrOptions::default()).unwrap();
        for k in 1..=k_max {
            let brute = brute_force_k_step(&g, k);
            let diff = tm.step(k).max_abs_diff(&brute);
            assert!(diff < 1e-9, "W({k}) differs from brute force by {diff}");
        }
    }

    #[test]
    fn k_step_matrix_is_not_a_matrix_power() {
        // The headline observation of the paper: W(k) != (W(1))^k.  The first
        // difference appears at k = 3: a 2-step walk never leaves the same
        // vertex twice, so W(2) still equals (W(1))^2; a 3-step walk can
        // (e.g. u -> v -> u -> w), and from then on the matrices diverge.
        let g = fig1_graph();
        let tm = transition_matrices(&g, 3, &TransPrOptions::default()).unwrap();
        let w1 = tm.step(1).clone();
        let w2_power = w1.matmul(&w1);
        let w3_power = w2_power.matmul(&w1);
        assert!(
            tm.step(2).max_abs_diff(&w2_power) < 1e-12,
            "W(2) must equal (W(1))^2: no vertex can be departed twice in 2 steps"
        );
        assert!(
            tm.step(3).max_abs_diff(&w3_power) > 1e-3,
            "W(3) unexpectedly equals (W(1))^3"
        );
    }

    #[test]
    fn certain_graph_matrices_are_matrix_powers() {
        // Theorem 3 direction: with all probabilities 1 the uncertain-graph
        // machinery degenerates to the deterministic one.
        let g = fig1_graph().certain();
        let tm = transition_matrices(&g, 3, &TransPrOptions::default()).unwrap();
        let det = deterministic_k_step(g.skeleton(), 2);
        assert!(tm.step(2).max_abs_diff(&det) < 1e-12);
        let det3 = deterministic_k_step(g.skeleton(), 3);
        assert!(tm.step(3).max_abs_diff(&det3) < 1e-12);
    }

    #[test]
    fn rows_from_source_match_full_matrices() {
        let g = fig1_graph();
        let k_max = 4;
        let tm = transition_matrices(&g, k_max, &TransPrOptions::default()).unwrap();
        for source in g.vertices() {
            let rows = transition_rows_from(&g, source, k_max, &TransPrOptions::default()).unwrap();
            assert_eq!(rows.len(), k_max + 1);
            assert_eq!(rows[0].get(source), 1.0);
            for (k, row) in rows.iter().enumerate().skip(1) {
                for v in g.vertices() {
                    let from_rows = row.get(v);
                    let from_matrix = tm.probability(k, source, v);
                    assert!(
                        (from_rows - from_matrix).abs() < 1e-12,
                        "k={k}, source={source}, v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_sums_are_sub_stochastic_and_monotone() {
        // Each row of W(k) sums to the probability that a walk from u
        // survives k steps, which is at most 1 and non-increasing in k.
        let g = fig1_graph();
        let tm = transition_matrices(&g, 4, &TransPrOptions::default()).unwrap();
        let mut previous = vec![1.0; g.num_vertices()];
        for k in 1..=4 {
            let sums = tm.step(k).row_sums();
            for (u, (&s, &prev)) in sums.iter().zip(&previous).enumerate() {
                assert!(s <= 1.0 + 1e-12, "row {u} of W({k}) sums to {s}");
                assert!(
                    s <= prev + 1e-12,
                    "survival must not increase (row {u}, k={k})"
                );
            }
            previous = sums;
        }
    }

    #[test]
    fn entries_match_summed_walk_probabilities() {
        // Pr(u ->_k v) is the sum of walk probabilities over all length-k
        // walks from u to v (Eq. 7); check by explicit enumeration for k = 3.
        let g = fig1_graph();
        let tm = transition_matrices(&g, 3, &TransPrOptions::default()).unwrap();
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            for v in 0..n {
                let mut total = 0.0;
                for a in 0..n {
                    for b in 0..n {
                        let walk = Walk::from_vertices(vec![u, a, b, v]);
                        if walk.is_walk_on(&g) {
                            total += walk_probability(&g, &walk);
                        }
                    }
                }
                let entry = tm.probability(3, u, v);
                assert!(
                    (entry - total).abs() < 1e-10,
                    "Pr({u} ->3 {v}) = {entry}, walk sum = {total}"
                );
            }
        }
    }

    #[test]
    fn meeting_probability_matches_brute_force() {
        // The paper's m(k) multiplies the marginal k-step probabilities, so
        // the brute force is Σ_w B[u, w]·B[v, w] over the possible-world
        // expectation B of the k-step matrix.
        let g = fig1_graph();
        let tm = transition_matrices(&g, 3, &TransPrOptions::default()).unwrap();
        for k in 1..=3 {
            let brute = brute_force_k_step(&g, k);
            for u in g.vertices() {
                for v in g.vertices() {
                    let direct: f64 = g
                        .vertices()
                        .map(|w| brute[(u as usize, w as usize)] * brute[(v as usize, w as usize)])
                        .sum();
                    let fast = tm.meeting_probability(k, u, v);
                    assert!(
                        (direct - fast).abs() < 1e-12,
                        "m({k})({u}, {v}): TransPr {fast}, brute force {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_budget_is_enforced() {
        let g = fig1_graph();
        let options = TransPrOptions {
            max_walks: 3,
            ..Default::default()
        };
        let err = transition_matrices(&g, 3, &options).unwrap_err();
        assert!(matches!(err, TransPrError::WalkBudgetExceeded { .. }));
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn pruning_threshold_only_loses_low_probability_mass() {
        let g = fig1_graph();
        let exact = transition_matrices(&g, 3, &TransPrOptions::default()).unwrap();
        let pruned = transition_matrices(
            &g,
            3,
            &TransPrOptions {
                prune_threshold: 1e-3,
                ..Default::default()
            },
        )
        .unwrap();
        for k in 1..=3 {
            let diff = exact.step(k).max_abs_diff(pruned.step(k));
            assert!(diff < 0.05, "pruning changed W({k}) by {diff}");
            // Pruning can only remove probability mass.
            for u in 0..g.num_vertices() {
                for v in 0..g.num_vertices() {
                    assert!(pruned.step(k)[(u, v)] <= exact.step(k)[(u, v)] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn step_zero_probabilities() {
        let g = fig1_graph();
        let tm = transition_matrices(&g, 1, &TransPrOptions::default()).unwrap();
        assert_eq!(tm.probability(0, 2, 2), 1.0);
        assert_eq!(tm.probability(0, 2, 3), 0.0);
        assert_eq!(tm.meeting_probability(0, 1, 1), 1.0);
        assert_eq!(tm.meeting_probability(0, 1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "not computed")]
    fn step_out_of_range_panics() {
        let g = fig1_graph();
        let tm = transition_matrices(&g, 2, &TransPrOptions::default()).unwrap();
        let _ = tm.step(3);
    }
}
