//! Single-source SimRank: `s(u, v)` for one source `u` and *every* vertex `v`
//! of the uncertain graph in one pass.
//!
//! The paper's estimators are single-pair: answering a top-k query over all
//! `|V|` candidates with them costs `|V|` independent queries.  This module
//! provides the natural extension used by the case studies (Fig. 13 / 14) and
//! the CLI: per sample `i`, one shared *functional instantiation* of the graph
//! is drawn (every vertex keeps at most one of its out-arcs, exactly as the
//! offline filter vectors of SR-SP do), under which the walk from **every**
//! vertex is determined simultaneously.  Advancing all walks one step costs
//! `O(|V|)`, so one sample yields the positions of all `|V|` target walks at
//! every step `k ≤ n`, and `N` samples estimate all meeting probabilities
//! `m(k)(u, ·)` at once:
//!
//! ```text
//! cost ≈ N · (|E| + n·|V|)      versus      |V| · cost(single-pair query).
//! ```
//!
//! The source side stays *independent* of the shared target-side
//! instantiation (the same consideration as the independent filter vectors of
//! [`crate::SpeedupEstimator`]): either a fresh lazily-instantiated walk is
//! sampled per sample ([`SourceMode::Sampled`]), or the exact transition rows
//! `Pr(u →ₖ ·)` are computed once and the sampled target position is scored
//! against them ([`SourceMode::Exact`], lower variance, cost of one exact
//! single-source `TransPr`).

use crate::baseline::working_graph;
use crate::config::SimRankConfig;
use crate::meeting::combine_meeting_probabilities;
use crate::top_k::ScoredVertex;
use crate::SimRankEstimator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwalk::arena::{instantiate_row, CsrSampler, WalkArena};
use rwalk::transpr::{transition_rows_from, TransPrError, TransPrOptions};
use ugraph::{CsrView, UncertainGraph, VertexId};

/// How the source-side walk distribution is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Sample one independent lazily-instantiated walk from the source per
    /// sample (the default; always applicable).
    #[default]
    Sampled,
    /// Compute the exact transition rows `Pr(u →ₖ ·)` once with `TransPr` and
    /// score the sampled target positions against them.  Lower variance, but
    /// subject to the exact walk enumeration's budget (it fails on dense
    /// graphs with large horizons just like the Baseline estimator does).
    Exact,
}

/// The result of a single-source query: the estimated SimRank of the source
/// against every vertex, plus the per-step meeting probabilities behind it.
#[derive(Debug, Clone)]
pub struct SingleSourceResult {
    source: VertexId,
    decay: f64,
    /// `meeting[k][v]` is the estimate of `m(k)(source, v)`.
    meeting: Vec<Vec<f64>>,
}

impl SingleSourceResult {
    /// The query vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The horizon `n` of the underlying configuration.
    pub fn horizon(&self) -> usize {
        self.meeting.len() - 1
    }

    /// Number of vertices covered by the query.
    pub fn num_vertices(&self) -> usize {
        self.meeting[0].len()
    }

    /// The estimated meeting probability `m(k)(source, v)`.
    pub fn meeting_probability(&self, k: usize, v: VertexId) -> f64 {
        self.meeting[k][v as usize]
    }

    /// The estimated SimRank `s⁽ⁿ⁾(source, v)`.
    pub fn similarity(&self, v: VertexId) -> f64 {
        let per_step: Vec<f64> = self.meeting.iter().map(|row| row[v as usize]).collect();
        combine_meeting_probabilities(&per_step, self.decay)
    }

    /// The estimated SimRank of the source against every vertex, indexed by
    /// vertex id.
    pub fn similarities(&self) -> Vec<f64> {
        (0..self.num_vertices())
            .map(|v| self.similarity(v as VertexId))
            .collect()
    }

    /// The `k` vertices most similar to the source, in decreasing score order
    /// (ties broken by vertex id); the source itself is excluded.
    pub fn top_k(&self, k: usize) -> Vec<ScoredVertex> {
        let mut scored: Vec<ScoredVertex> = (0..self.num_vertices() as VertexId)
            .filter(|&v| v != self.source)
            .map(|v| ScoredVertex {
                vertex: v,
                score: self.similarity(v),
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.vertex.cmp(&b.vertex))
        });
        scored.truncate(k);
        scored
    }
}

/// Single-source SimRank estimator (`s(u, v)` for all `v` at once).
///
/// The per-sample functional instantiation and the source-side walks both
/// run on the working graph's forward CSR arrays (flat arrays, a persistent
/// [`WalkArena`]); the same graph feeds the exact `TransPr` rows of
/// [`SourceMode::Exact`].
#[derive(Debug)]
pub struct SingleSourceEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    options: TransPrOptions,
    source_mode: SourceMode,
    rng: StdRng,
    arena: WalkArena,
    source_walk: Vec<VertexId>,
}

impl SingleSourceEstimator {
    /// Creates a single-source estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        SingleSourceEstimator {
            graph: working_graph(graph, config.direction),
            config,
            options: TransPrOptions::default(),
            source_mode: SourceMode::Sampled,
            rng: StdRng::seed_from_u64(config.seed),
            arena: WalkArena::with_capacity(graph.num_vertices()),
            source_walk: Vec::new(),
        }
    }

    /// Overrides the `TransPr` options used when [`SourceMode::Exact`] is
    /// selected.
    pub fn with_transpr_options(mut self, options: TransPrOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects how the source-side walk distribution is obtained.
    pub fn with_source_mode(mut self, mode: SourceMode) -> Self {
        self.source_mode = mode;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// The source mode in use.
    pub fn source_mode(&self) -> SourceMode {
        self.source_mode
    }

    /// Draws one functional instantiation of the graph: every vertex keeps at
    /// most one out-arc (each arc is instantiated with its probability, one
    /// survivor is chosen uniformly), exactly as the per-sample offline
    /// filter-vector construction of SR-SP.  Walks the flat CSR arrays.
    fn sample_functional_map(
        view: CsrView<'_>,
        rng: &mut StdRng,
        next: &mut [Option<VertexId>],
        choices: &mut Vec<VertexId>,
    ) {
        for (w, slot) in next.iter_mut().enumerate().take(view.num_vertices()) {
            choices.clear();
            let kept = instantiate_row(
                view.neighbors(w as VertexId),
                view.probabilities(w as VertexId),
                rng,
                choices,
            );
            *slot = (kept > 0).then(|| choices[rng.gen_range(0..kept)]);
        }
    }

    /// Runs the query, returning an error when [`SourceMode::Exact`] is
    /// selected and the exact walk enumeration exceeds its budget.
    pub fn try_query(&mut self, source: VertexId) -> Result<SingleSourceResult, TransPrError> {
        let n = self.config.horizon;
        let num_samples = self.config.num_samples;
        let num_vertices = self.graph.num_vertices();
        assert!(
            (source as usize) < num_vertices,
            "source vertex {source} out of range (graph has {num_vertices} vertices)"
        );

        // Exact source rows, if requested (computed once, reused per sample).
        let exact_rows = match self.source_mode {
            SourceMode::Exact => Some(transition_rows_from(&self.graph, source, n, &self.options)?),
            SourceMode::Sampled => None,
        };

        // counts[k][v] accumulates per-sample meeting indicators (Sampled) or
        // exact source probabilities at the sampled target position (Exact).
        let mut counts = vec![vec![0.0f64; num_vertices]; n + 1];
        let mut next: Vec<Option<VertexId>> = vec![None; num_vertices];
        let mut positions: Vec<Option<VertexId>> = vec![None; num_vertices];
        let mut choices: Vec<VertexId> = Vec::new();

        let sampler = CsrSampler::new(self.graph.forward());
        for _ in 0..num_samples {
            // Source side: one independent walk (only needed in Sampled
            // mode), sampled allocation-free through the walk arena.
            let sampled_source = exact_rows.is_none();
            if sampled_source {
                sampler.sample_walk_into(
                    &mut self.arena,
                    source,
                    n,
                    &mut self.rng,
                    &mut self.source_walk,
                );
            }

            // Target side: one shared functional instantiation drives the
            // walks of all vertices simultaneously.
            Self::sample_functional_map(
                self.graph.forward(),
                &mut self.rng,
                &mut next,
                &mut choices,
            );
            for (v, slot) in positions.iter_mut().enumerate() {
                *slot = Some(v as VertexId);
            }
            for k in 1..=n {
                for v in 0..num_vertices {
                    positions[v] = positions[v].and_then(|w| next[w as usize]);
                    let Some(w) = positions[v] else { continue };
                    match &exact_rows {
                        Some(rows) => counts[k][v] += rows[k].get(w),
                        None => {
                            // DEAD never equals a live vertex id, so a dead
                            // source walk simply never scores.
                            if self.source_walk[k] == w {
                                counts[k][v] += 1.0;
                            }
                        }
                    }
                }
            }
        }

        let mut meeting = vec![vec![0.0f64; num_vertices]; n + 1];
        meeting[0][source as usize] = 1.0;
        for k in 1..=n {
            for v in 0..num_vertices {
                meeting[k][v] = counts[k][v] / num_samples as f64;
            }
        }
        Ok(SingleSourceResult {
            source,
            decay: self.config.decay,
            meeting,
        })
    }

    /// Runs the query; panics if the exact phase exceeds its walk budget
    /// (only possible with [`SourceMode::Exact`]).
    pub fn query(&mut self, source: VertexId) -> SingleSourceResult {
        self.try_query(source)
            .expect("TransPr walk budget exceeded; use SourceMode::Sampled or raise max_walks")
    }

    /// Convenience: the `k` vertices most similar to `source`.
    pub fn top_k(&mut self, source: VertexId, k: usize) -> Vec<ScoredVertex> {
        self.query(source).top_k(k)
    }
}

impl SimRankEstimator for SingleSourceEstimator {
    /// Single-pair similarity via a full single-source pass; provided so the
    /// estimator plugs into the shared harness, but a dedicated single-pair
    /// estimator is cheaper when only one target is needed.
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.query(u).similarity(v)
    }

    fn name(&self) -> &'static str {
        "SingleSource"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEstimator;
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
    fn sampled_mode_is_close_to_the_baseline_for_every_target() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(6000).with_seed(17);
        let baseline = BaselineEstimator::new(&g, config);
        let mut single = SingleSourceEstimator::new(&g, config);
        let result = single.query(1);
        for v in g.vertices() {
            let exact = baseline.try_similarity(1, v).unwrap();
            let estimate = result.similarity(v);
            assert!(
                (exact - estimate).abs() < 0.04,
                "target {v}: exact {exact}, single-source {estimate}"
            );
        }
    }

    #[test]
    fn exact_source_mode_is_close_and_lower_noise() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(3000).with_seed(23);
        let baseline = BaselineEstimator::new(&g, config);
        let mut single = SingleSourceEstimator::new(&g, config).with_source_mode(SourceMode::Exact);
        let result = single.try_query(0).unwrap();
        for v in g.vertices() {
            let exact = baseline.try_similarity(0, v).unwrap();
            let estimate = result.similarity(v);
            assert!(
                (exact - estimate).abs() < 0.04,
                "target {v}: exact {exact}, single-source(exact) {estimate}"
            );
        }
    }

    #[test]
    fn self_meeting_probability_at_step_zero_is_one() {
        let g = fig1_graph();
        let mut single =
            SingleSourceEstimator::new(&g, SimRankConfig::default().with_samples(100).with_seed(3));
        let result = single.query(2);
        assert_eq!(result.meeting_probability(0, 2), 1.0);
        for v in g.vertices() {
            if v != 2 {
                assert_eq!(result.meeting_probability(0, v), 0.0);
            }
        }
        assert_eq!(result.source(), 2);
        assert_eq!(result.num_vertices(), 5);
        assert_eq!(result.horizon(), 5);
    }

    #[test]
    fn scores_are_probability_like_and_deterministic_per_seed() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(500).with_seed(9);
        let first = SingleSourceEstimator::new(&g, config)
            .query(0)
            .similarities();
        let second = SingleSourceEstimator::new(&g, config)
            .query(0)
            .similarities();
        assert_eq!(first, second, "same seed must give identical estimates");
        for (v, s) in first.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-12).contains(s), "s(0,{v}) = {s}");
        }
        let different_seed = SingleSourceEstimator::new(&g, config.with_seed(10))
            .query(0)
            .similarities();
        assert_ne!(
            first, different_seed,
            "different seeds should perturb the estimate"
        );
    }

    #[test]
    fn top_k_is_sorted_excludes_the_source_and_truncates() {
        let g = fig1_graph();
        let mut single =
            SingleSourceEstimator::new(&g, SimRankConfig::default().with_samples(800).with_seed(5));
        let top = single.top_k(1, 3);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|s| s.vertex != 1));
        for window in top.windows(2) {
            assert!(window[0].score >= window[1].score);
        }
        // Asking for more than |V| - 1 returns everything once.
        let all = single.top_k(1, 100);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn single_pair_trait_view_matches_the_full_query() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(400).with_seed(7);
        let mut via_trait = SingleSourceEstimator::new(&g, config);
        let mut via_query = SingleSourceEstimator::new(&g, config);
        let s_trait = via_trait.similarity(0, 3);
        let s_query = via_query.query(0).similarity(3);
        assert!((s_trait - s_query).abs() < 1e-12);
        assert_eq!(via_trait.name(), "SingleSource");
    }

    #[test]
    fn dead_end_vertices_are_handled() {
        // Vertex 2 has no out-arcs in the transposed graph (no in-arcs in the
        // original): walks from it die immediately, so its similarity to
        // everything but itself is the k = 0 term only.
        let g = UncertainGraphBuilder::new(3)
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.8)
            .build()
            .unwrap();
        let mut single = SingleSourceEstimator::new(
            &g,
            SimRankConfig::default().with_samples(300).with_seed(11),
        );
        let result = single.query(2);
        for v in 0..2u32 {
            assert_eq!(result.similarity(v), 0.0);
        }
        let self_similarity = result.similarity(2);
        assert!(self_similarity > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = fig1_graph();
        let mut single = SingleSourceEstimator::new(&g, SimRankConfig::default());
        let _ = single.query(99);
    }
}
