//! The two-phase algorithm SR-TS (Section VI-C of the paper).
//!
//! Meeting probabilities for steps `k ≤ l` are computed exactly (they are
//! cheap: the transition rows are still sparse and, for `l = 1`, only `|E|`
//! values exist in total), while steps `l < k ≤ n` are estimated by the
//! sampling procedure.  Corollary 1 bounds the resulting error by
//! `ε(c^{l+1} − cⁿ)` with probability `1 − δ`, an order of magnitude better
//! than plain sampling for `l = 1` and typical similarity magnitudes.

use crate::baseline::working_graph;
use crate::config::SimRankConfig;
use crate::meeting::MeetingProfile;
use crate::SimRankEstimator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwalk::arena::{CsrSampler, WalkArena, DEAD};
use rwalk::transpr::{transition_rows_from, TransPrOptions};
use ugraph::{UncertainGraph, VertexId};

/// The two-phase single-pair SimRank estimator (the paper's SR-TS).
///
/// The exact phase runs `TransPr` on the direction-resolved working graph;
/// the sampling phase walks the same graph's forward CSR arrays through a
/// persistent [`WalkArena`] (allocation-free hot loop, RNG-stream-compatible
/// with the original `WalkSampler` implementation).
#[derive(Debug)]
pub struct TwoPhaseEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    options: TransPrOptions,
    rng: StdRng,
    arena: WalkArena,
    walk_u: Vec<VertexId>,
    walk_v: Vec<VertexId>,
}

impl TwoPhaseEstimator {
    /// Creates a two-phase estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        TwoPhaseEstimator {
            graph: working_graph(graph, config.direction),
            config,
            options: TransPrOptions::default(),
            rng: StdRng::seed_from_u64(config.seed),
            arena: WalkArena::with_capacity(graph.num_vertices()),
            walk_u: Vec::new(),
            walk_v: Vec::new(),
        }
    }

    /// Overrides the `TransPr` options used by the exact phase.
    pub fn with_transpr_options(mut self, options: TransPrOptions) -> Self {
        self.options = options;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// Meeting probabilities with `m(k)` exact for `k ≤ l` and sampled for
    /// `l < k ≤ n` (Eq. 15).
    pub fn profile(&mut self, u: VertexId, v: VertexId) -> MeetingProfile {
        let n = self.config.horizon;
        let l = self.config.effective_phase_switch();
        let num_samples = self.config.num_samples;
        let mut meeting = vec![0.0; n + 1];
        meeting[0] = if u == v { 1.0 } else { 0.0 };

        // Phase 1: exact meeting probabilities for 1 <= k <= l.
        if l >= 1 {
            let rows_u = transition_rows_from(&self.graph, u, l, &self.options)
                .expect("TransPr walk budget exceeded in the exact phase; lower phase_switch");
            let rows_v = if u == v {
                rows_u.clone()
            } else {
                transition_rows_from(&self.graph, v, l, &self.options)
                    .expect("TransPr walk budget exceeded in the exact phase; lower phase_switch")
            };
            for k in 1..=l {
                meeting[k] = rows_u[k].dot(&rows_v[k]);
            }
        }

        // Phase 2: sampled meeting probabilities for l < k <= n, walked on
        // the CSR fast path (the working graph's forward view).
        if l < n {
            let sampler = CsrSampler::new(self.graph.forward());
            for _ in 0..num_samples {
                sampler.sample_walk_into(&mut self.arena, u, n, &mut self.rng, &mut self.walk_u);
                sampler.sample_walk_into(&mut self.arena, v, n, &mut self.rng, &mut self.walk_v);
                for (k, slot) in meeting.iter_mut().enumerate().take(n + 1).skip(l + 1) {
                    let a = self.walk_u[k];
                    if a != DEAD && a == self.walk_v[k] {
                        *slot += 1.0;
                    }
                }
            }
            for slot in meeting.iter_mut().skip(l + 1) {
                *slot /= num_samples as f64;
            }
        }
        MeetingProfile::new(meeting, self.config.decay)
    }
}

impl SimRankEstimator for TwoPhaseEstimator {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.profile(u, v).score()
    }

    fn name(&self) -> &'static str {
        "SR-TS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEstimator;
    use crate::sampling::SamplingEstimator;
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

    fn average_relative_error(
        baseline: &BaselineEstimator,
        estimates: &mut dyn FnMut(u32, u32) -> f64,
        pairs: &[(u32, u32)],
    ) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for &(u, v) in pairs {
            let exact = baseline.try_similarity(u, v).unwrap();
            if exact <= 1e-9 {
                continue;
            }
            total += (estimates(u, v) - exact).abs() / exact;
            counted += 1;
        }
        total / counted as f64
    }

    #[test]
    fn exact_phase_steps_match_the_baseline_exactly() {
        let g = fig1_graph();
        let config = SimRankConfig::default()
            .with_phase_switch(3)
            .with_samples(50);
        let baseline = BaselineEstimator::new(&g, config);
        let mut two_phase = TwoPhaseEstimator::new(&g, config);
        let exact = baseline.profile(0, 1);
        let mixed = two_phase.profile(0, 1);
        for k in 0..=3 {
            assert!(
                (exact.meeting[k] - mixed.meeting[k]).abs() < 1e-12,
                "step {k} should be exact"
            );
        }
    }

    #[test]
    fn phase_switch_equal_to_horizon_reproduces_the_baseline() {
        let g = fig1_graph();
        let config = SimRankConfig::default()
            .with_phase_switch(5)
            .with_samples(1); // sampling phase is empty, so 1 sample suffices
        let baseline = BaselineEstimator::new(&g, config);
        let mut two_phase = TwoPhaseEstimator::new(&g, config);
        for u in g.vertices() {
            for v in g.vertices() {
                let exact = baseline.try_similarity(u, v).unwrap();
                let mixed = two_phase.similarity(u, v);
                assert!((exact - mixed).abs() < 1e-12, "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn estimates_are_close_to_the_baseline() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(3000).with_seed(41);
        let baseline = BaselineEstimator::new(&g, config);
        let mut two_phase = TwoPhaseEstimator::new(&g, config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 3)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = two_phase.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.03,
                "pair ({u},{v}): exact {exact}, two-phase {estimate}"
            );
        }
    }

    #[test]
    fn two_phase_is_more_accurate_than_plain_sampling_on_average() {
        // The headline claim of Section VI-C: with the same number of
        // samples, SR-TS has a smaller (relative) error than Sampling,
        // because the dominant low-k terms are exact.  Use a deliberately
        // small N so the sampling noise is visible.
        let g = fig1_graph();
        let pairs: Vec<(u32, u32)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let config = SimRankConfig::default().with_samples(60);
        let baseline = BaselineEstimator::new(&g, config);

        let trials = 30;
        let mut sampling_error_total = 0.0;
        let mut two_phase_error_total = 0.0;
        for trial in 0..trials {
            let seeded = config.with_seed(1000 + trial);
            let mut sampling = SamplingEstimator::new(&g, seeded);
            let mut two_phase = TwoPhaseEstimator::new(&g, seeded.with_phase_switch(2));
            sampling_error_total +=
                average_relative_error(&baseline, &mut |u, v| sampling.similarity(u, v), &pairs);
            two_phase_error_total +=
                average_relative_error(&baseline, &mut |u, v| two_phase.similarity(u, v), &pairs);
        }
        assert!(
            two_phase_error_total < sampling_error_total,
            "SR-TS average relative error {:.4} should beat Sampling {:.4}",
            two_phase_error_total / trials as f64,
            sampling_error_total / trials as f64
        );
    }

    #[test]
    fn larger_phase_switch_reduces_error_on_average() {
        let g = fig1_graph();
        let pairs: Vec<(u32, u32)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let base_config = SimRankConfig::default().with_samples(40);
        let baseline = BaselineEstimator::new(&g, base_config);
        let trials = 30;
        let mut error_l1 = 0.0;
        let mut error_l4 = 0.0;
        for trial in 0..trials {
            let seeded = base_config.with_seed(7000 + trial);
            let mut with_l1 = TwoPhaseEstimator::new(&g, seeded.with_phase_switch(1));
            let mut with_l4 = TwoPhaseEstimator::new(&g, seeded.with_phase_switch(4));
            error_l1 +=
                average_relative_error(&baseline, &mut |u, v| with_l1.similarity(u, v), &pairs);
            error_l4 +=
                average_relative_error(&baseline, &mut |u, v| with_l4.similarity(u, v), &pairs);
        }
        assert!(
            error_l4 < error_l1,
            "l = 4 error {error_l4} should be below l = 1 error {error_l1}"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed_and_name() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(200).with_seed(9);
        let mut a = TwoPhaseEstimator::new(&g, config);
        let mut b = TwoPhaseEstimator::new(&g, config);
        assert_eq!(a.similarity(1, 3), b.similarity(1, 3));
        assert_eq!(a.name(), "SR-TS");
    }
}
