//! Property-based tests for footprint-based cache survival: across random
//! update rounds, every answer a [`CachedQueryEngine`] serves — including
//! hits from entries that *survived* a round via disjoint-footprint
//! revalidation — must be bit-identical to recomputation on a **fresh
//! engine** built from scratch on the final graph state.  Checked at 1 and
//! 4 worker threads, on both the legacy and the alias sampler backend.
//!
//! The fresh-engine comparison is the strongest possible oracle: it cannot
//! share any state with the cached engine, so a survivor whose answer
//! secretly depended on an updated vertex would be caught as a bit
//! mismatch.

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
/// then checks every queried pair — whatever mix of survivors, re-stamped
/// hits and recomputes is in the cache by then — against a fresh engine
/// built on the final graph.  Runs the query side inside `pool`.
#[allow(clippy::type_complexity)]
fn check_survivors_against_fresh_engine(
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

    // Every pair ever queried, asked at the final epoch: survivors of the
    // last round(s) answer from the cache, everything else recomputes.
    all_pairs.sort_unstable();
    all_pairs.dedup();
    let (_, got) = pool
        .install(|| cached.batch_similarities(&all_pairs))
        .unwrap();

    // The oracle shares nothing with the cached engine: a fresh graph from
    // the model, a fresh engine, no updates ever applied.
    let fresh = QueryEngine::new(&graph_of_model(n as usize, &model), config);
    let expected = fresh.batch_similarities(&all_pairs).unwrap();
    prop_assert_eq!(
        &got,
        &expected,
        "cached answers (incl. survivors) diverge from a fresh engine at {} threads / {:?}",
        threads,
        config.sampler
    );
    let stats = cached.cache_stats().unwrap();
    prop_assert!(
        stats.survived + stats.killed > 0,
        "update rounds must have revalidated something: {:?}",
        stats
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole property, legacy sampler: survivors of arbitrary update
    /// churn are bit-identical to fresh recomputation, at 1 and 4 threads.
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
            check_survivors_against_fresh_engine(&graph, &rounds, config, capacity, threads);
        }
    }

    /// The same property on the alias-table backend: footprint capture and
    /// revalidation are sampler-agnostic.
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
            check_survivors_against_fresh_engine(&graph, &rounds, config, capacity, threads);
        }
    }
}

/// Deterministic companion: on a two-component graph with updates confined
/// to one component, entries in the other *must* survive (survived > 0,
/// killed == 0) and their hits must equal fresh recomputation — on both
/// samplers, at 1 and 4 threads.
#[test]
fn disjoint_updates_yield_guaranteed_survivors_on_both_samplers() {
    let graph = UncertainGraphBuilder::new(6)
        .arc(2, 0, 0.9)
        .arc(2, 1, 0.8)
        .arc(1, 0, 0.7)
        .arc(5, 3, 0.9)
        .arc(5, 4, 0.8)
        .build()
        .unwrap();
    let pairs = [(0u32, 1u32), (0, 2), (1, 2)];
    let updates = [GraphUpdate::SetProbability {
        source: 5,
        target: 3,
        probability: 0.2,
    }];
    for sampler in [SamplerKind::Legacy, SamplerKind::Alias] {
        let config = SimRankConfig::default()
            .with_samples(100)
            .with_seed(13)
            .with_sampler(sampler);
        for threads in [1usize, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let cached = CachedQueryEngine::new(QueryEngine::new(&graph, config), 64);
            let (_, before) = pool.install(|| cached.batch_similarities(&pairs)).unwrap();
            cached.apply_updates(&updates).unwrap();
            let stats = cached.cache_stats().unwrap();
            assert_eq!(
                (stats.survived, stats.killed),
                (pairs.len() as u64, 0),
                "{sampler:?} at {threads} threads: {stats:?}"
            );
            let misses_before = stats.misses;
            let (_, after) = pool.install(|| cached.batch_similarities(&pairs)).unwrap();
            assert_eq!(after, before, "{sampler:?} at {threads} threads");
            assert_eq!(
                cached.cache_stats().unwrap().misses,
                misses_before,
                "survivors must serve the repeat ask without recomputing"
            );
            // Fresh-engine oracle on the updated graph.
            let updated = UncertainGraphBuilder::new(6)
                .arc(2, 0, 0.9)
                .arc(2, 1, 0.8)
                .arc(1, 0, 0.7)
                .arc(5, 3, 0.2)
                .arc(5, 4, 0.8)
                .build()
                .unwrap();
            let fresh = QueryEngine::new(&updated, config);
            assert_eq!(after, fresh.batch_similarities(&pairs).unwrap());
        }
    }
}
