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
use rwalk::arena::{CsrSampler, WalkArena, DEAD};
use ugraph::{CsrView, UncertainGraph, VertexId};

/// Monte-Carlo single-pair SimRank on an uncertain graph (the paper's
/// Sampling algorithm).
#[derive(Debug)]
pub struct SamplingEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    rng: StdRng,
    arena: WalkArena,
    walk_u: Vec<VertexId>,
    walk_v: Vec<VertexId>,
}

impl SamplingEstimator {
    /// Creates a Sampling estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        SamplingEstimator {
            graph: graph.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed),
            arena: WalkArena::with_capacity(graph.num_vertices()),
            walk_u: Vec::new(),
            walk_v: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// Estimated meeting probabilities `m̂(0), …, m̂(n)` for a pair.
    pub fn profile(&mut self, u: VertexId, v: VertexId) -> MeetingProfile {
        let n = self.config.horizon;
        let num_samples = self.config.num_samples;
        let mut meeting = vec![0.0; n + 1];
        meeting[0] = if u == v { 1.0 } else { 0.0 };
        // Field-level borrow of `graph` only, so the arena and RNG below can
        // be borrowed mutably alongside the sampler's view.
        let view: CsrView<'_> = match self.config.direction {
            WalkDirection::InNeighbors => self.graph.reverse(),
            WalkDirection::OutNeighbors => self.graph.forward(),
        };
        let sampler = CsrSampler::new(view);
        for _ in 0..num_samples {
            sampler.sample_walk_into(&mut self.arena, u, n, &mut self.rng, &mut self.walk_u);
            sampler.sample_walk_into(&mut self.arena, v, n, &mut self.rng, &mut self.walk_v);
            for (k, slot) in meeting.iter_mut().enumerate().take(n + 1).skip(1) {
                let a = self.walk_u[k];
                if a != DEAD && a == self.walk_v[k] {
                    *slot += 1.0;
                }
            }
        }
        for slot in meeting.iter_mut().skip(1) {
            *slot /= num_samples as f64;
        }
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
