//! Lazily-instantiated random-walk sampling on uncertain graphs
//! (Fig. 4, lines 1–18 of the paper).
//!
//! A sampled walk must be drawn with its *walk probability*, which couples
//! all transitions of the walk through the shared possible world.  Sampling a
//! whole possible world first would cost `O(|E|)` per walk; the paper instead
//! instantiates the out-arcs of a vertex the first time the walk visits it
//! and **reuses that instantiation** when the walk revisits the vertex —
//! exactly reproducing the correlation that makes `W(k) ≠ (W(1))^k`.
//!
//! Dead ends: the paper does not say what happens when none of the out-arcs
//! of the current vertex were instantiated (or the vertex has no possible
//! out-arcs).  We terminate the walk (it can never meet another walk at later
//! steps), which matches the semantics of the exact transition probabilities,
//! whose rows sum to less than 1 by exactly the probability of dying.

use rand::Rng;
use std::collections::HashMap;
use ugraph::{UncertainGraph, VertexId};

/// A sampled walk of fixed horizon `n`: `position(k)` is the vertex the walk
/// occupies at step `k` (`0 ≤ k ≤ n`), or `None` if the walk died earlier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledWalk {
    positions: Vec<Option<VertexId>>,
}

impl SampledWalk {
    /// The vertex occupied at step `k`, or `None` if the walk terminated
    /// before step `k`.
    pub fn position(&self, k: usize) -> Option<VertexId> {
        self.positions.get(k).copied().flatten()
    }

    /// The horizon `n` the walk was sampled for.
    pub fn horizon(&self) -> usize {
        self.positions.len() - 1
    }

    /// Number of steps the walk actually survived.
    pub fn survived_steps(&self) -> usize {
        self.positions.iter().take_while(|p| p.is_some()).count() - 1
    }

    /// All positions, index = step.
    pub fn positions(&self) -> &[Option<VertexId>] {
        &self.positions
    }
}

/// A reusable sampler of lazily-instantiated random walks.
///
/// Each walk gets its own arc instantiation (shared *within* the walk across
/// revisits, independent *across* walks), reproducing Fig. 4 of the paper.
#[derive(Debug)]
pub struct WalkSampler<'g> {
    graph: &'g UncertainGraph,
    /// Per-walk memo: vertex -> instantiated out-neighbors.  Cleared between
    /// walks; kept as a field to reuse its allocation.
    instantiated: HashMap<VertexId, Vec<VertexId>>,
}

impl<'g> WalkSampler<'g> {
    /// Creates a sampler over `graph`.
    pub fn new(graph: &'g UncertainGraph) -> Self {
        WalkSampler {
            graph,
            instantiated: HashMap::new(),
        }
    }

    /// Samples one walk of horizon `length` starting at `start`; it dies at
    /// the first vertex with no instantiated out-arc.
    pub fn sample_walk<R: Rng + ?Sized>(
        &mut self,
        start: VertexId,
        length: usize,
        rng: &mut R,
    ) -> SampledWalk {
        self.instantiated.clear();
        let mut positions = Vec::with_capacity(length + 1);
        positions.push(Some(start));
        let mut current = Some(start);
        for _ in 0..length {
            current = match current {
                None => None,
                Some(v) => {
                    let choices = self.instantiate(v, rng);
                    if choices.is_empty() {
                        None
                    } else {
                        Some(choices[rng.gen_range(0..choices.len())])
                    }
                }
            };
            positions.push(current);
        }
        SampledWalk { positions }
    }

    /// Returns the instantiated out-neighbors of `v` for the current walk,
    /// instantiating them on first visit.
    fn instantiate<R: Rng + ?Sized>(&mut self, v: VertexId, rng: &mut R) -> &[VertexId] {
        if !self.instantiated.contains_key(&v) {
            let (neighbors, probabilities) = self.graph.out_arcs(v);
            let mut present = Vec::new();
            for (&w, &p) in neighbors.iter().zip(probabilities) {
                if rng.gen::<f64>() < p {
                    present.push(w);
                }
            }
            self.instantiated.insert(v, present);
        }
        self.instantiated.get(&v).expect("inserted above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transpr::{transition_matrices, TransPrOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
    fn sampled_walks_respect_the_graph() {
        let g = fig1_graph();
        let mut sampler = WalkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let walk = sampler.sample_walk(0, 5, &mut rng);
            assert_eq!(walk.horizon(), 5);
            assert_eq!(walk.position(0), Some(0));
            for k in 0..5 {
                match (walk.position(k), walk.position(k + 1)) {
                    (Some(u), Some(v)) => assert!(g.has_arc(u, v), "sampled non-arc {u}->{v}"),
                    (None, Some(_)) => panic!("walk resurrected after dying"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn one_step_frequencies_match_expected_probabilities() {
        let g = fig1_graph();
        let tm = transition_matrices(&g, 1, &TransPrOptions::default()).unwrap();
        let mut sampler = WalkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 60_000;
        let mut counts = vec![0usize; g.num_vertices()];
        let mut died = 0usize;
        for _ in 0..trials {
            match sampler.sample_walk(0, 1, &mut rng).position(1) {
                Some(v) => counts[v as usize] += 1,
                None => died += 1,
            }
        }
        for v in g.vertices() {
            let frequency = counts[v as usize] as f64 / trials as f64;
            let expected = tm.probability(1, 0, v);
            assert!(
                (frequency - expected).abs() < 0.01,
                "vertex {v}: frequency {frequency}, expected {expected}"
            );
        }
        // The death probability is 1 minus the row sum: (1-0.8)(1-0.5) = 0.1.
        let death_rate = died as f64 / trials as f64;
        assert!((death_rate - 0.1).abs() < 0.01, "death rate {death_rate}");
    }

    #[test]
    fn two_step_frequencies_match_exact_transition_probabilities() {
        // This is the statistically meaningful check that the lazy
        // instantiation reproduces the possible-world correlation: the
        // frequency of being at v after 2 steps must match W(2), which is NOT
        // (W(1))^2.
        let g = fig1_graph();
        let tm = transition_matrices(&g, 2, &TransPrOptions::default()).unwrap();
        let mut sampler = WalkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 80_000;
        let mut counts = vec![0usize; g.num_vertices()];
        for _ in 0..trials {
            if let Some(v) = sampler.sample_walk(0, 2, &mut rng).position(2) {
                counts[v as usize] += 1;
            }
        }
        for v in g.vertices() {
            let frequency = counts[v as usize] as f64 / trials as f64;
            let expected = tm.probability(2, 0, v);
            assert!(
                (frequency - expected).abs() < 0.01,
                "vertex {v}: frequency {frequency}, exact {expected}"
            );
        }
    }

    #[test]
    fn walks_terminate_at_dead_ends() {
        // Vertex 4 has no out-arcs at all.
        let g = fig1_graph();
        let mut rng = StdRng::seed_from_u64(3);

        let mut terminating = WalkSampler::new(&g);
        let walk = terminating.sample_walk(4, 3, &mut rng);
        assert_eq!(walk.position(0), Some(4));
        assert_eq!(walk.position(1), None);
        assert_eq!(walk.position(3), None);
        assert_eq!(walk.survived_steps(), 0);
    }

    #[test]
    fn instantiation_is_shared_within_a_walk() {
        // On a graph with a single probabilistic arc forming a loop, a walk
        // that uses the arc once must be able to use it every time: the walk
        // either survives the whole horizon or dies at step 1.
        let g = UncertainGraphBuilder::new(2)
            .arc(0, 1, 0.5)
            .arc(1, 0, 0.5)
            .build()
            .unwrap();
        let mut sampler = WalkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let mut survived = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let walk = sampler.sample_walk(0, 6, &mut rng);
            let steps = walk.survived_steps();
            assert!(
                steps == 0 || steps == 1 || steps == 6,
                "with shared instantiation a walk can only die at its first visit \
                 to each of the two vertices; survived {steps}"
            );
            if steps == 6 {
                survived += 1;
            }
        }
        // Survival requires both arcs instantiated: probability 0.25.
        let rate = survived as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "survival rate {rate}");
    }

    #[test]
    fn zero_length_walk_is_just_the_start() {
        let g = fig1_graph();
        let mut sampler = WalkSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let walk = sampler.sample_walk(2, 0, &mut rng);
        assert_eq!(walk.horizon(), 0);
        assert_eq!(walk.position(0), Some(2));
        assert_eq!(walk.position(1), None);
    }
}
