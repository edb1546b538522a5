//! Property-based tests for cache invalidation across update rounds: after
//! random update rounds, every answer a [`CachedQueryEngine`] serves must be
//! bit-identical to recomputation on a **fresh engine** built from scratch on
//! the final graph state.  Every update batch bumps the engine epoch, so no
//! entry cached before the last round may be served after it: the final ask
//! must recompute every pair.  Checked at 1 and 4 worker threads, on both
//! the legacy and the alias sampler backend.
//!
//! The fresh-engine comparison is the strongest possible oracle: it cannot
//! share any state with the cached engine, so an entry served from an older
//! graph state would be caught as a bit mismatch.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use uncertain_simrank::graph::{DuplicatePolicy, GraphUpdate, UncertainGraph, VertexId};
use uncertain_simrank::prelude::*;

/// Strategy: a small uncertain graph (duplicates keep the max probability).
fn small_uncertain_graph(
    max_vertices: u32,
    max_arcs: usize,
) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_vertices)
        .prop_flat_map(move |n| {
            let arcs = proptest::collection::vec((0..n, 0..n, 0.05f64..1.0f64), 1..=max_arcs);
            (Just(n), arcs)
        })
        .prop_map(|(n, arcs)| {
            UncertainGraphBuilder::new(n as usize)
                .duplicate_policy(DuplicatePolicy::KeepMaxProbability)
                .arcs(arcs)
                .build()
                .expect("strategy produces valid arcs")
        })
}

/// Abstract update op `(u, v, probability, kind)`, realised against the
/// live arc set so every generated [`GraphUpdate`] is valid (same scheme as
/// `cache_props.rs` / `dynamic_overlay_props.rs`).
type AbstractOp = (u32, u32, f64, u8);

fn realize_round(
    num_vertices: u32,
    model: &mut BTreeMap<(VertexId, VertexId), f64>,
    ops: &[AbstractOp],
) -> Vec<GraphUpdate> {
    let mut updates = Vec::with_capacity(ops.len());
    for &(u, v, p, kind) in ops {
        let (source, target) = (u % num_vertices, v % num_vertices);
        match model.entry((source, target)) {
            std::collections::btree_map::Entry::Occupied(entry) => {
                if kind == 0 {
                    entry.remove();
                    updates.push(GraphUpdate::DeleteArc { source, target });
                } else {
                    *entry.into_mut() = p;
                    updates.push(GraphUpdate::SetProbability {
                        source,
                        target,
                        probability: p,
                    });
                }
            }
            std::collections::btree_map::Entry::Vacant(entry) => {
                entry.insert(p);
                updates.push(GraphUpdate::InsertArc {
                    source,
                    target,
                    probability: p,
                });
            }
        }
    }
    updates
}

/// Rebuilds the model's arc set as a standalone graph: the ground truth a
/// fresh engine is built on.
fn graph_of_model(
    num_vertices: usize,
    model: &BTreeMap<(VertexId, VertexId), f64>,
) -> UncertainGraph {
    UncertainGraphBuilder::new(num_vertices)
        .arcs(model.iter().map(|(&(u, v), &p)| (u, v, p)))
        .build()
        .expect("model arcs are valid by construction")
}

/// Drives `rounds` of (query batch, update round) through a cached engine,
/// then checks every queried pair against a fresh engine built on the final
/// graph, and that none of them was served from an entry cached before the
/// last update round.  Runs the query side inside `pool`.
#[allow(clippy::type_complexity)]
fn check_against_fresh_engine(
    graph: &UncertainGraph,
    rounds: &[(Vec<(u32, u32)>, Vec<AbstractOp>)],
    config: SimRankConfig,
    capacity: usize,
    threads: usize,
) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let cached = CachedQueryEngine::new(QueryEngine::new(graph, config), capacity);
    let mut model: BTreeMap<(VertexId, VertexId), f64> = graph
        .arcs()
        .map(|a| ((a.source, a.target), a.probability))
        .collect();
    let n = graph.num_vertices() as u32;

    let mut all_pairs: Vec<(u32, u32)> = Vec::new();
    for (pairs, ops) in rounds {
        // Fill the cache (and exercise hits) at this epoch.
        pool.install(|| cached.batch_similarities(pairs)).unwrap();
        pool.install(|| cached.batch_similarities(pairs)).unwrap();
        all_pairs.extend_from_slice(pairs);
        let updates = realize_round(n, &mut model, ops);
        cached.apply_updates(&updates).unwrap();
    }

    // Every pair ever queried, asked at the final epoch: the last update
    // round left every resident entry stale, so everything recomputes.
    all_pairs.sort_unstable();
    all_pairs.dedup();
    let before = cached.cache_stats().unwrap();
    let (_, got) = pool
        .install(|| cached.batch_similarities(&all_pairs))
        .unwrap();
    let after = cached.cache_stats().unwrap();

    // The oracle shares nothing with the cached engine: a fresh graph from
    // the model, a fresh engine, no updates ever applied.
    let fresh = QueryEngine::new(&graph_of_model(n as usize, &model), config);
    let expected = fresh.batch_similarities(&all_pairs).unwrap();
    prop_assert_eq!(
        &got,
        &expected,
        "cached answers diverge from a fresh engine at {} threads / {:?}",
        threads,
        config.sampler
    );
    prop_assert_eq!(
        after.hits,
        before.hits,
        "an entry cached before the last update round was served: {:?} -> {:?}",
        before,
        after
    );
    prop_assert_eq!(
        (after.misses + after.stale) - (before.misses + before.stale),
        all_pairs.len() as u64,
        "every pair must be looked up once and recomputed: {:?} -> {:?}",
        before,
        after
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Legacy sampler: after arbitrary update churn, cached answers are
    /// bit-identical to fresh recomputation, at 1 and 4 threads.
    #[test]
    fn survivors_match_fresh_engine_legacy_sampler(
        input in small_uncertain_graph(8, 20).prop_flat_map(|g| {
            let n = g.num_vertices() as u32;
            let rounds = proptest::collection::vec(
                (
                    proptest::collection::vec((0..n, 0..n), 1..=8),
                    proptest::collection::vec(
                        (0u32..1000, 0u32..1000, 0.05f64..1.0f64, 0u8..3),
                        0..=6,
                    ),
                ),
                1..=4,
            );
            (Just(g), rounds)
        }),
        seed in 0u64..1000,
        capacity in 4usize..64,
    ) {
        let (graph, rounds) = input;
        let config = SimRankConfig::default()
            .with_samples(25)
            .with_seed(seed)
            .with_sampler(SamplerKind::Legacy);
        for threads in [1usize, 4] {
            check_against_fresh_engine(&graph, &rounds, config, capacity, threads);
        }
    }

    /// The same property on the alias backend: invalidation is
    /// sampler-agnostic.
    #[test]
    fn survivors_match_fresh_engine_alias_sampler(
        input in small_uncertain_graph(8, 20).prop_flat_map(|g| {
            let n = g.num_vertices() as u32;
            let rounds = proptest::collection::vec(
                (
                    proptest::collection::vec((0..n, 0..n), 1..=8),
                    proptest::collection::vec(
                        (0u32..1000, 0u32..1000, 0.05f64..1.0f64, 0u8..3),
                        0..=6,
                    ),
                ),
                1..=4,
            );
            (Just(g), rounds)
        }),
        seed in 0u64..1000,
        capacity in 4usize..64,
    ) {
        let (graph, rounds) = input;
        let config = SimRankConfig::default()
            .with_samples(25)
            .with_seed(seed)
            .with_sampler(SamplerKind::Alias);
        for threads in [1usize, 4] {
            check_against_fresh_engine(&graph, &rounds, config, capacity, threads);
        }
    }
}
