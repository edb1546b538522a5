//! The Baseline algorithm (Section VI-A of the paper): exact `n`-th SimRank
//! from exact k-step transition probabilities.

use crate::config::{SimRankConfig, WalkDirection};
use crate::meeting::MeetingProfile;
use crate::SimRankEstimator;
use rwalk::transpr::{transition_matrices, transition_rows_from, TransPrError, TransPrOptions};
use ugraph::{UncertainGraph, VertexId};
use umatrix::{DenseMatrix, SparseVector};

/// Returns the graph the walk machinery should run on for the configured
/// direction: the transpose for in-neighbor walks (the SimRank convention),
/// the graph itself for forward walks.
pub(crate) fn working_graph(graph: &UncertainGraph, direction: WalkDirection) -> UncertainGraph {
    match direction {
        WalkDirection::InNeighbors => graph.transpose(),
        WalkDirection::OutNeighbors => graph.clone(),
    }
}

/// Exact meeting probabilities `m(0), …, m(l)` of `(u, v)` on the working
/// `graph`, each the dot product of `TransPr`'s single-source rows of `u`
/// and `v`: the Baseline's whole profile (`l = n`) and the exact phase of
/// the two-phase estimators.
pub(crate) fn exact_meetings(
    graph: &UncertainGraph,
    u: VertexId,
    v: VertexId,
    l: usize,
    options: &TransPrOptions,
) -> Result<Vec<f64>, TransPrError> {
    let rows_u = transition_rows_from(graph, u, l, options)?;
    let dot = |rows_v: &[SparseVector]| rows_u.iter().zip(rows_v).map(|(a, b)| a.dot(b)).collect();
    if u == v {
        Ok(dot(&rows_u))
    } else {
        Ok(dot(&transition_rows_from(graph, v, l, options)?))
    }
}

/// Exact single-pair SimRank on an uncertain graph (the paper's Baseline).
///
/// For a query `(u, v)` the estimator enumerates all walks of length up to
/// `n` starting at `u` and at `v` (the single-source restriction of
/// `TransPr`), obtains the exact transition rows `Pr(u →ₖ ·)` and
/// `Pr(v →ₖ ·)`, forms the meeting probabilities `m(k)(u, v)` and combines
/// them with Eq. (12).  The cost grows like `d^n` per query (`d` = average
/// degree), which is why the paper proposes the sampling-based algorithms for
/// large dense graphs.
#[derive(Debug, Clone)]
pub struct BaselineEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    options: TransPrOptions,
}

impl BaselineEstimator {
    /// Creates a Baseline estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        BaselineEstimator {
            graph: working_graph(graph, config.direction),
            config,
            options: TransPrOptions::default(),
        }
    }

    /// Overrides the `TransPr` options (walk budget, pruning).
    pub fn with_transpr_options(mut self, options: TransPrOptions) -> Self {
        self.options = options;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// Exact meeting probabilities `m(0), …, m(n)` for a pair, or an error if
    /// the walk budget is exceeded.
    pub fn try_profile(&self, u: VertexId, v: VertexId) -> Result<MeetingProfile, TransPrError> {
        let meeting = exact_meetings(&self.graph, u, v, self.config.horizon, &self.options)?;
        Ok(MeetingProfile::new(meeting, self.config.decay))
    }

    /// Exact meeting probabilities; panics if the walk budget is exceeded.
    pub fn profile(&self, u: VertexId, v: VertexId) -> MeetingProfile {
        self.try_profile(u, v)
            .expect("TransPr walk budget exceeded; raise TransPrOptions::max_walks")
    }

    /// Exact `s⁽ⁿ⁾(u, v)`, or an error if the walk budget is exceeded.
    pub fn try_similarity(&self, u: VertexId, v: VertexId) -> Result<f64, TransPrError> {
        Ok(self.try_profile(u, v)?.score())
    }

    /// All-pairs `s⁽ⁿ⁾` as a dense matrix, computed from the full transition
    /// matrices.  Only feasible for small graphs; used by the ground-truth
    /// comparisons and the measure-comparison experiment.
    pub fn try_similarity_matrix(&self) -> Result<DenseMatrix, TransPrError> {
        let n_vertices = self.graph.num_vertices();
        let n = self.config.horizon;
        let c = self.config.decay;
        let tm = transition_matrices(&self.graph, n, &self.options)?;
        let mut result = DenseMatrix::zeros(n_vertices, n_vertices);
        // k = 0 term: (1 - c) on the diagonal.
        for i in 0..n_vertices {
            result[(i, i)] = 1.0 - c;
        }
        let mut c_pow = 1.0;
        for k in 1..=n {
            c_pow *= c;
            let weight = if k == n { c_pow } else { (1.0 - c) * c_pow };
            let wk = tm.step(k);
            // meeting matrix at step k is W(k) * W(k)^T.
            let meeting = wk.matmul(&wk.transpose());
            result.add_scaled(&meeting, weight);
        }
        // The diagonal of the k = n term plus the geometric tail should give
        // exactly s(u, u) = combine(m(k) = 1 for all k); no correction needed
        // because the construction above mirrors Eq. (12) entry-wise.
        Ok(result)
    }
}

impl SimRankEstimator for BaselineEstimator {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.try_similarity(u, v)
            .expect("TransPr walk budget exceeded; raise TransPrOptions::max_walks")
    }

    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deterministic::simrank_all_pairs;
    use ugraph::UncertainGraphBuilder;

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
    fn self_similarity_is_maximal_and_symmetric() {
        let g = fig1_graph();
        let estimator = BaselineEstimator::new(&g, SimRankConfig::default());
        for u in g.vertices() {
            let s_uu = estimator.try_similarity(u, u).unwrap();
            assert!(s_uu > 0.0 && s_uu <= 1.0 + 1e-12);
            for v in g.vertices() {
                let s_uv = estimator.try_similarity(u, v).unwrap();
                let s_vu = estimator.try_similarity(v, u).unwrap();
                assert!((s_uv - s_vu).abs() < 1e-12, "symmetry failed for ({u},{v})");
                assert!(s_uv <= s_uu + 1e-12 || s_uv <= 1.0 + 1e-12);
                assert!((0.0..=1.0 + 1e-12).contains(&s_uv));
            }
        }
    }

    #[test]
    fn certain_graph_matches_deterministic_simrank() {
        // Theorem 3: with all probabilities 1, uncertain SimRank equals
        // classic SimRank on the skeleton.
        let g = fig1_graph().certain();
        let config = SimRankConfig::default().with_horizon(5);
        let estimator = BaselineEstimator::new(&g, config);
        let det = simrank_all_pairs(g.skeleton(), config.decay, config.horizon);
        for u in g.vertices() {
            for v in g.vertices() {
                let uncertain = estimator.try_similarity(u, v).unwrap();
                let deterministic = det[(u as usize, v as usize)];
                assert!(
                    (uncertain - deterministic).abs() < 1e-9,
                    "pair ({u},{v}): uncertain {uncertain}, deterministic {deterministic}"
                );
            }
        }
    }

    #[test]
    fn uncertainty_changes_similarities() {
        // SimRank-I vs SimRank-II in the paper's terminology: the uncertain
        // measure differs from classic SimRank on the skeleton.
        let g = fig1_graph();
        let config = SimRankConfig::default();
        let estimator = BaselineEstimator::new(&g, config);
        let det = simrank_all_pairs(g.skeleton(), config.decay, config.horizon);
        let mut max_difference: f64 = 0.0;
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                let uncertain = estimator.try_similarity(u, v).unwrap();
                max_difference =
                    max_difference.max((uncertain - det[(u as usize, v as usize)]).abs());
            }
        }
        assert!(
            max_difference > 1e-3,
            "uncertainty had no effect: {max_difference}"
        );
    }

    #[test]
    fn similarity_matrix_matches_single_pair_queries() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_horizon(4);
        let estimator = BaselineEstimator::new(&g, config);
        let matrix = estimator.try_similarity_matrix().unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                let single = estimator.try_similarity(u, v).unwrap();
                let entry = matrix[(u as usize, v as usize)];
                assert!(
                    (single - entry).abs() < 1e-10,
                    "pair ({u},{v}): single {single}, matrix {entry}"
                );
            }
        }
    }

    #[test]
    fn profile_scores_match_similarity_and_horizon_truncation_is_consistent() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_horizon(6);
        let estimator = BaselineEstimator::new(&g, config);
        let profile = estimator.profile(0, 1);
        assert_eq!(profile.horizon(), 6);
        let full = estimator.try_similarity(0, 1).unwrap();
        assert!((profile.score() - full).abs() < 1e-12);
        // Truncation to horizon 3 equals an estimator configured with n = 3.
        let shorter = BaselineEstimator::new(&g, SimRankConfig::default().with_horizon(3));
        let direct = shorter.try_similarity(0, 1).unwrap();
        assert!((profile.score_at_horizon(3) - direct).abs() < 1e-12);
    }

    #[test]
    fn forward_direction_differs_from_reverse() {
        let g = fig1_graph();
        let reverse = BaselineEstimator::new(&g, SimRankConfig::default());
        let forward = BaselineEstimator::new(
            &g,
            SimRankConfig::default().with_direction(WalkDirection::OutNeighbors),
        );
        let mut differs = false;
        for u in g.vertices() {
            for v in g.vertices() {
                let a = reverse.try_similarity(u, v).unwrap();
                let b = forward.try_similarity(u, v).unwrap();
                if (a - b).abs() > 1e-6 {
                    differs = true;
                }
            }
        }
        assert!(
            differs,
            "walk direction should matter on an asymmetric graph"
        );
    }

    #[test]
    fn trait_object_usage() {
        let g = fig1_graph();
        let mut estimator: Box<dyn SimRankEstimator> =
            Box::new(BaselineEstimator::new(&g, SimRankConfig::default()));
        assert_eq!(estimator.name(), "Baseline");
        let s = estimator.similarity(0, 1);
        assert!((0.0..=1.0).contains(&s));
    }
}
