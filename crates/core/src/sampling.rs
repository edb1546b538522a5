//! The Sampling algorithm (Section VI-B, Fig. 4 of the paper).
//!
//! For a query `(u, v)` the estimator samples `N` lazily-instantiated walks
//! of horizon `n` from `u` and `N` from `v` and estimates each meeting
//! probability by the fraction of sample indices whose two walks are at the
//! same vertex after `k` steps (Eq. 13), then combines with Eq. (14).
//! Lemma 4 / Theorem 4 give the Chernoff-style error bound, exposed in
//! [`crate::bounds`].
//!
//! The walks run on the CSR fast path: the graph's flat arrays hold both
//! directions, so no transposed copy is ever materialised, and are sampled
//! through a persistent [`WalkArena`], making the per-query hot loop
//! allocation-free.  The RNG draw order is identical to
//! the original `WalkSampler` implementation, so estimates for a given seed
//! are unchanged by the migration.

use crate::config::{SimRankConfig, WalkDirection};
use crate::meeting::MeetingProfile;
use crate::SimRankEstimator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwalk::arena::{WalkArena, DEAD};
use ugraph::{CsrView, UncertainGraph, VertexId};

/// Monte-Carlo single-pair SimRank on an uncertain graph (the paper's
/// Sampling algorithm).
#[derive(Debug)]
pub struct SamplingEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    walk_pairs: WalkPairs,
}

/// Eq. 13's walk-pair loop, shared by SR-SA ([`SamplingEstimator`]) and
/// SR-TS's sampling phase ([`crate::TwoPhaseEstimator`]): the estimator's
/// RNG stream, its arena and the current sample's two walks.
#[derive(Debug)]
pub(crate) struct WalkPairs {
    rng: StdRng,
    arena: WalkArena,
    /// The current sample's two walks, `u`'s then `v`'s.
    walks: Vec<VertexId>,
}

impl WalkPairs {
    pub(crate) fn new(seed: u64) -> Self {
        WalkPairs {
            rng: StdRng::seed_from_u64(seed),
            arena: WalkArena::default(),
            walks: Vec::new(),
        }
    }

    /// Eq. 13 for every step `first ≤ k ≤ n` (`n = meeting.len() - 1`):
    /// samples `num_samples` pairs of walks on `view`, `u`'s then `v`'s, and
    /// sets `meeting[k]` to the share of pairs at the same vertex after `k`
    /// steps.  SR-SA runs it from step 1, SR-TS from step `l + 1`.
    pub(crate) fn estimate(
        &mut self,
        view: &CsrView<'_>,
        (u, v): (VertexId, VertexId),
        num_samples: usize,
        first: usize,
        meeting: &mut [f64],
    ) {
        let n = meeting.len() - 1;
        let WalkPairs { rng, arena, walks } = self;
        for _ in 0..num_samples {
            walks.clear();
            arena.sample_walk(view, u, n, rng, walks);
            arena.sample_walk(view, v, n, rng, walks);
            let (walk_u, walk_v) = walks.split_at(n + 1);
            for (k, slot) in meeting.iter_mut().enumerate().skip(first) {
                let a = walk_u[k];
                if a != DEAD && a == walk_v[k] {
                    *slot += 1.0;
                }
            }
        }
        for slot in meeting.iter_mut().skip(first) {
            *slot /= num_samples as f64;
        }
    }
}

impl SamplingEstimator {
    /// Creates a Sampling estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        SamplingEstimator {
            graph: graph.clone(),
            config,
            walk_pairs: WalkPairs::new(config.seed),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// Estimated meeting probabilities `m̂(0), …, m̂(n)` for a pair.
    pub fn profile(&mut self, u: VertexId, v: VertexId) -> MeetingProfile {
        let mut meeting = vec![0.0; self.config.horizon + 1];
        meeting[0] = if u == v { 1.0 } else { 0.0 };
        let view: CsrView<'_> = match self.config.direction {
            WalkDirection::InNeighbors => self.graph.reverse(),
            WalkDirection::OutNeighbors => self.graph.forward(),
        };
        self.walk_pairs
            .estimate(&view, (u, v), self.config.num_samples, 1, &mut meeting);
        MeetingProfile::new(meeting, self.config.decay)
    }
}

impl SimRankEstimator for SamplingEstimator {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.profile(u, v).score()
    }

    fn name(&self) -> &'static str {
        "Sampling"
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
    fn estimates_are_close_to_the_exact_baseline() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(4000).with_seed(17);
        let baseline = BaselineEstimator::new(&g, config);
        let mut sampling = SamplingEstimator::new(&g, config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (3, 4)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = sampling.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.03,
                "pair ({u},{v}): exact {exact}, sampled {estimate}"
            );
        }
    }

    #[test]
    fn per_step_meeting_estimates_track_exact_values() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(6000).with_seed(23);
        let baseline = BaselineEstimator::new(&g, config);
        let mut sampling = SamplingEstimator::new(&g, config);
        let exact = baseline.profile(0, 1);
        let estimated = sampling.profile(0, 1);
        assert_eq!(exact.meeting.len(), estimated.meeting.len());
        for k in 0..exact.meeting.len() {
            assert!(
                (exact.meeting[k] - estimated.meeting[k]).abs() < 0.03,
                "step {k}: exact {}, sampled {}",
                exact.meeting[k],
                estimated.meeting[k]
            );
        }
    }

    #[test]
    fn csr_migration_matches_the_legacy_walk_sampler_exactly() {
        // The CSR fast path consumes the RNG in the same order as the
        // original WalkSampler implementation, so a hand-rolled legacy
        // profile from the same seed must agree bit-for-bit.
        use rand::SeedableRng;
        use rwalk::sampler::WalkSampler;

        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(400).with_seed(99);
        let mut migrated = SamplingEstimator::new(&g, config);

        let working = g.transpose(); // legacy in-neighbor walk graph
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut legacy_sampler = WalkSampler::new(&working);
        for (u, v) in [(0u32, 1u32), (2, 3), (4, 0)] {
            let n = config.horizon;
            let mut meeting = vec![0.0; n + 1];
            meeting[0] = if u == v { 1.0 } else { 0.0 };
            for _ in 0..config.num_samples {
                let walk_u = legacy_sampler.sample_walk(u, n, &mut rng);
                let walk_v = legacy_sampler.sample_walk(v, n, &mut rng);
                for (k, slot) in meeting.iter_mut().enumerate().take(n + 1).skip(1) {
                    if let (Some(a), Some(b)) = (walk_u.position(k), walk_v.position(k)) {
                        if a == b {
                            *slot += 1.0;
                        }
                    }
                }
            }
            for slot in meeting.iter_mut().skip(1) {
                *slot /= config.num_samples as f64;
            }
            let legacy = MeetingProfile::new(meeting, config.decay);
            assert_eq!(migrated.profile(u, v), legacy, "pair ({u},{v})");
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(500).with_seed(5);
        let mut a = SamplingEstimator::new(&g, config);
        let mut b = SamplingEstimator::new(&g, config);
        assert_eq!(a.similarity(0, 1), b.similarity(0, 1));
        assert_eq!(a.similarity(2, 3), b.similarity(2, 3));
    }

    #[test]
    fn self_similarity_estimate_is_high() {
        let g = fig1_graph();
        let mut sampling = SamplingEstimator::new(&g, SimRankConfig::default().with_samples(2000));
        // m(0) = 1 exactly; later steps are (at least) the probability that
        // two independent walks follow the same trajectory, so s(u,u) is
        // large but not necessarily 1 under uncertainty.
        let s = sampling.similarity(2, 2);
        assert!(s > 0.4 && s <= 1.0 + 1e-12, "s(2,2) = {s}");
    }

    #[test]
    fn estimates_stay_in_range_and_are_symmetric_in_expectation() {
        let g = fig1_graph();
        let mut sampling =
            SamplingEstimator::new(&g, SimRankConfig::default().with_samples(3000).with_seed(3));
        for u in g.vertices() {
            for v in g.vertices() {
                let s = sampling.similarity(u, v);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "s({u},{v}) = {s}");
            }
        }
        let s_ab = sampling.similarity(0, 1);
        let s_ba = sampling.similarity(1, 0);
        assert!((s_ab - s_ba).abs() < 0.05);
    }

    #[test]
    fn name_is_reported() {
        let g = fig1_graph();
        let sampling = SamplingEstimator::new(&g, SimRankConfig::default());
        assert_eq!(sampling.name(), "Sampling");
    }
}
