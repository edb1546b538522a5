//! The speed-up technique SR-SP (Section VI-D, Fig. 5 of the paper).
//!
//! Instead of extending `N` sampled walks one by one, SR-SP runs all `N`
//! sampling processes simultaneously:
//!
//! * every arc `e = (w, x)` gets an `N`-bit *filter vector* `F_e`; bit `i` is
//!   set when, in the `i`-th offline instantiation of the arcs leaving `w`,
//!   the sampling process chose to move along `e`;
//! * the *counting table* entry `M_w[k]` records in which of the `N` walks
//!   vertex `w` is the `k`-th vertex; the propagation step is
//!   `M_x[k+1] |= M_w[k] ∧ F_(w,x)`;
//! * the meeting probability is recovered by the masked popcount of Eq. (16):
//!   `m̂(k) = (1/N) Σ_{w ∈ U(k) ∩ V(k)} ‖M_w[k] ∧ M'_w[k]‖₁`.
//!
//! A subtlety the paper glosses over: if the filter vectors are built offline
//! *once and shared by both propagation passes*, the walk from `u` and the
//! walk from `v` with the same sample index share the instantiation (and even
//! the choice) at any vertex both of them visit, whereas the Sampling
//! algorithm instantiates per walk.  The marginal distribution of each walk
//! is unchanged, but the two walks of a sample are coupled, which biases the
//! meeting estimate relative to Eq. (12)'s product of marginals (drastically
//! so for self-pair queries).  This implementation therefore gives each
//! propagation side its own filter vectors — same asymptotic cost, unbiased;
//! the paper's shared construction is not implemented.

use crate::baseline::{exact_meetings, working_graph};
use crate::config::SimRankConfig;
use crate::meeting::MeetingProfile;
use crate::SimRankEstimator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwalk::transpr::TransPrOptions;
use std::collections::HashMap;
use ugraph::{UncertainGraph, VertexId};
use umatrix::BitVec;

/// Which filter-vector cache a propagation pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Target,
}

/// The SR-SP estimator: the two-phase algorithm with the bit-vector sharing
/// technique for its sampling phase.
#[derive(Debug)]
pub struct SpeedupEstimator {
    graph: UncertainGraph,
    config: SimRankConfig,
    /// Lazily built source-side filter vectors, one `BitVec` per out-arc of
    /// each vertex, aligned with `graph.out_arcs(v)`.
    filters: HashMap<VertexId, Vec<BitVec>>,
    /// The target side's own filter vectors, drawn independently.
    filters_target: HashMap<VertexId, Vec<BitVec>>,
}

impl SpeedupEstimator {
    /// Creates an SR-SP estimator for `graph` under `config`.
    pub fn new(graph: &UncertainGraph, config: SimRankConfig) -> Self {
        config.validate();
        SpeedupEstimator {
            graph: working_graph(graph, config.direction),
            config,
            filters: HashMap::new(),
            filters_target: HashMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.config
    }

    /// Number of vertices whose filter vectors have been materialised so far
    /// (across both caches).
    pub fn cached_filter_vertices(&self) -> usize {
        self.filters.len() + self.filters_target.len()
    }

    /// Clears the filter caches (e.g. between measurement repetitions).
    pub fn clear_filter_cache(&mut self) {
        self.filters.clear();
        self.filters_target.clear();
    }

    fn ensure_filters(&mut self, v: VertexId, side: Side) {
        let cache = match side {
            Side::Source => &mut self.filters,
            Side::Target => &mut self.filters_target,
        };
        if cache.contains_key(&v) {
            return;
        }
        // Each vertex's filter vectors are drawn from an RNG derived only from
        // (seed, vertex, side), so the offline construction is independent of
        // the order in which vertices are first visited: two estimators with
        // the same seed produce identical estimates regardless of the query
        // sequence that warmed their caches.
        let side_salt: u64 = match side {
            Side::Source => 0x5151_5151_5151_5151,
            Side::Target => 0xabab_abab_abab_abab,
        };
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ side_salt,
        );
        let (neighbors, probabilities) = self.graph.out_arcs(v);
        let n_samples = self.config.num_samples;
        let mut vectors = vec![BitVec::zeros(n_samples); neighbors.len()];
        let mut instantiated: Vec<usize> = Vec::with_capacity(neighbors.len());
        for i in 0..n_samples {
            instantiated.clear();
            for (idx, &p) in probabilities.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    instantiated.push(idx);
                }
            }
            if instantiated.is_empty() {
                continue;
            }
            let choice = instantiated[rng.gen_range(0..instantiated.len())];
            vectors[choice].set(i, true);
        }
        let cache = match side {
            Side::Source => &mut self.filters,
            Side::Target => &mut self.filters_target,
        };
        cache.insert(v, vectors);
    }

    fn filter_side(&self, side: Side) -> &HashMap<VertexId, Vec<BitVec>> {
        match side {
            Side::Source => &self.filters,
            Side::Target => &self.filters_target,
        }
    }

    /// Runs the shared BFS-style propagation of Fig. 5 from `start` and
    /// returns the counting tables level by level: `levels[k]` maps each
    /// vertex `w` reachable in `k` steps to the bit vector `M_w[k]`.
    fn propagate(&mut self, start: VertexId, side: Side) -> Vec<HashMap<VertexId, BitVec>> {
        let n = self.config.horizon;
        let n_samples = self.config.num_samples;
        let mut levels: Vec<HashMap<VertexId, BitVec>> = Vec::with_capacity(n + 1);
        let mut first = HashMap::new();
        first.insert(start, BitVec::ones(n_samples));
        levels.push(first);
        for k in 0..n {
            // Materialise the filters of every frontier vertex first so the
            // propagation loop below can borrow the cache immutably.
            let frontier: Vec<VertexId> = levels[k].keys().copied().collect();
            for &w in &frontier {
                self.ensure_filters(w, side);
            }
            let mut next: HashMap<VertexId, BitVec> = HashMap::new();
            let cache = self.filter_side(side);
            for (&w, bits) in &levels[k] {
                let neighbors = self.graph.out_neighbors(w);
                let vectors = cache.get(&w).expect("filters ensured above");
                for (idx, &x) in neighbors.iter().enumerate() {
                    let filter = &vectors[idx];
                    let entry = next.entry(x).or_insert_with(|| BitVec::zeros(n_samples));
                    entry.or_and_assign(bits, filter);
                }
            }
            next.retain(|_, bits| !bits.is_zero());
            levels.push(next);
        }
        levels
    }

    /// Meeting probabilities with the exact phase for `k ≤ l` and the
    /// bit-vector estimate of Eq. (16) for `l < k ≤ n`.
    pub fn profile(&mut self, u: VertexId, v: VertexId) -> MeetingProfile {
        let n = self.config.horizon;
        let l = self.config.effective_phase_switch();
        let n_samples = self.config.num_samples;
        let mut meeting = exact_meetings(&self.graph, u, v, l, &TransPrOptions::default())
            .expect("TransPr walk budget exceeded in the exact phase; lower phase_switch");
        meeting.resize(n + 1, 0.0);

        if l < n {
            let levels_u = self.propagate(u, Side::Source);
            let levels_v = self.propagate(v, Side::Target);
            for (k, slot) in meeting.iter_mut().enumerate().take(n + 1).skip(l + 1) {
                let (small, large) = if levels_u[k].len() <= levels_v[k].len() {
                    (&levels_u[k], &levels_v[k])
                } else {
                    (&levels_v[k], &levels_u[k])
                };
                let mut matches = 0usize;
                for (w, bits) in small {
                    if let Some(other) = large.get(w) {
                        matches += bits.and_count(other);
                    }
                }
                *slot = matches as f64 / n_samples as f64;
            }
        }
        MeetingProfile::new(meeting, self.config.decay)
    }
}

impl SimRankEstimator for SpeedupEstimator {
    fn similarity(&mut self, u: VertexId, v: VertexId) -> f64 {
        self.profile(u, v).score()
    }

    fn name(&self) -> &'static str {
        "SR-SP"
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
        let config = SimRankConfig::default().with_samples(4000).with_seed(31);
        let baseline = BaselineEstimator::new(&g, config);
        let mut speedup = SpeedupEstimator::new(&g, config);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (0, 3)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = speedup.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.04,
                "pair ({u},{v}): exact {exact}, SR-SP {estimate}"
            );
        }
    }

    #[test]
    fn independent_filters_are_also_close_to_the_baseline() {
        // Each propagation side draws its own filter vectors; a second seed
        // checks that this construction tracks the exact baseline too.
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(4000).with_seed(37);
        let baseline = BaselineEstimator::new(&g, config);
        let mut speedup = SpeedupEstimator::new(&g, config);
        for (u, v) in [(0u32, 1u32), (2, 3)] {
            let exact = baseline.try_similarity(u, v).unwrap();
            let estimate = speedup.similarity(u, v);
            assert!(
                (exact - estimate).abs() < 0.04,
                "pair ({u},{v}): exact {exact}, SR-SP(independent) {estimate}"
            );
        }
    }

    #[test]
    fn exact_phase_steps_match_the_baseline() {
        let g = fig1_graph();
        let config = SimRankConfig::default()
            .with_phase_switch(2)
            .with_samples(100)
            .with_seed(11);
        let baseline = BaselineEstimator::new(&g, config);
        let mut speedup = SpeedupEstimator::new(&g, config);
        let exact = baseline.profile(1, 2);
        let estimated = speedup.profile(1, 2);
        for k in 0..=2 {
            assert!(
                (exact.meeting[k] - estimated.meeting[k]).abs() < 1e-12,
                "step {k} should be exact"
            );
        }
    }

    #[test]
    fn propagation_reuses_cached_filters_across_queries() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(200).with_seed(3);
        let mut speedup = SpeedupEstimator::new(&g, config);
        assert_eq!(speedup.cached_filter_vertices(), 0);
        let first = speedup.similarity(0, 1);
        let cached_after_first = speedup.cached_filter_vertices();
        assert!(cached_after_first > 0);
        // A second query over the same region reuses the offline filters and
        // therefore returns exactly the same estimate.
        let second = speedup.similarity(0, 1);
        assert_eq!(first, second);
        assert_eq!(speedup.cached_filter_vertices(), cached_after_first);
        speedup.clear_filter_cache();
        assert_eq!(speedup.cached_filter_vertices(), 0);
    }

    #[test]
    fn estimates_are_independent_of_the_query_order() {
        // Filter vectors are derived from (seed, vertex, side) only, so the
        // answer for a pair does not depend on which queries warmed the cache
        // first — two fresh estimators agree exactly even when their query
        // sequences differ.
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(300).with_seed(41);
        let mut warm_path_a = SpeedupEstimator::new(&g, config);
        let mut warm_path_b = SpeedupEstimator::new(&g, config);
        let _ = warm_path_a.similarity(3, 4); // different warm-up queries
        let _ = warm_path_b.similarity(2, 2);
        assert_eq!(warm_path_a.similarity(0, 1), warm_path_b.similarity(0, 1));
    }

    #[test]
    fn filter_vectors_choose_at_most_one_arc_per_sample() {
        let g = fig1_graph();
        let config = SimRankConfig::default().with_samples(64).with_seed(13);
        let mut speedup = SpeedupEstimator::new(&g, config);
        speedup.ensure_filters(0, Side::Source);
        let vectors = &speedup.filters[&0];
        assert_eq!(vectors.len(), g.transpose().out_degree(0));
        for i in 0..64 {
            let chosen: usize = vectors.iter().map(|f| usize::from(f.get(i))).sum();
            assert!(chosen <= 1, "sample {i} chose {chosen} arcs");
        }
    }

    #[test]
    fn estimates_stay_in_range() {
        let g = fig1_graph();
        let mut speedup =
            SpeedupEstimator::new(&g, SimRankConfig::default().with_samples(500).with_seed(5));
        for u in g.vertices() {
            for v in g.vertices() {
                let s = speedup.similarity(u, v);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "s({u},{v}) = {s}");
            }
        }
    }

    #[test]
    fn name_is_reported() {
        let g = fig1_graph();
        let speedup = SpeedupEstimator::new(&g, SimRankConfig::default());
        assert_eq!(speedup.name(), "SR-SP");
    }
}
