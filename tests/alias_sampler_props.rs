//! Property-based tests for the alias sampler backend under churn: after an
//! arbitrary valid update stream, an engine running [`SamplerKind::Alias`]
//! (whose overlay rebuilt alias rows only for the patched vertices) must
//! answer batch queries bit-identically to a from-scratch engine whose alias
//! rows are all built fresh on the mutated graph — at 1 and at 4 rayon
//! threads, with batch == sequential along the way.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use uncertain_simrank::graph::{
    DuplicatePolicy, GraphUpdate, UncertainGraph, UncertainGraphBuilder, VertexId,
};
use uncertain_simrank::simrank::{QueryEngine, SamplerKind, SimRankConfig};

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

/// Abstract update op: `(u, v, probability, kind)`, translated against the
/// current arc set so every generated [`GraphUpdate`] is valid (absent arcs
/// are inserted; present arcs are deleted for kind 0, re-weighted otherwise).
type AbstractOp = (u32, u32, f64, u8);

fn realize_updates(
    graph: &UncertainGraph,
    ops: &[AbstractOp],
) -> (Vec<GraphUpdate>, BTreeMap<(VertexId, VertexId), f64>) {
    let n = graph.num_vertices() as u32;
    let mut model: BTreeMap<(VertexId, VertexId), f64> = graph
        .arcs()
        .map(|a| ((a.source, a.target), a.probability))
        .collect();
    let mut updates = Vec::with_capacity(ops.len());
    for &(u, v, p, kind) in ops {
        let (source, target) = (u % n, v % n);
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
    (updates, model)
}

fn model_graph(num_vertices: usize, model: &BTreeMap<(VertexId, VertexId), f64>) -> UncertainGraph {
    UncertainGraph::from_arcs(num_vertices, model.iter().map(|(&(u, v), &p)| (u, v, p)))
        .expect("model arcs are valid")
}

/// Strategy: a graph plus a stream of abstract ops over its vertices.
fn graph_and_ops(
    max_vertices: u32,
    max_arcs: usize,
    max_ops: usize,
) -> impl Strategy<Value = (UncertainGraph, Vec<AbstractOp>)> {
    small_uncertain_graph(max_vertices, max_arcs).prop_flat_map(move |g| {
        let ops = proptest::collection::vec(
            (0u32..1000, 0u32..1000, 0.05f64..1.0f64, 0u8..3),
            0..=max_ops,
        );
        (Just(g), ops)
    })
}

/// Strategy: a list of query pairs over `n` vertices.
fn pairs_over(n: u32, max_pairs: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    proptest::collection::vec((0..n, 0..n), 1..=max_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core churn invariant of the alias backend: batch answers after
    /// `apply_updates` (which rebuilds alias rows only for the update
    /// endpoints) are bit-identical to those of a from-scratch engine whose
    /// alias rows are all built fresh on the mutated graph, at 1 and at 4
    /// threads, with batch == sequential throughout.
    #[test]
    fn alias_answers_after_churn_match_a_fresh_rebuild_at_1_and_4_threads(
        input in graph_and_ops(8, 20, 24)
            .prop_flat_map(|(g, ops)| {
                let n = g.num_vertices() as u32;
                (Just(g), Just(ops), pairs_over(n, 12))
            }),
        seed in 0u64..1000,
    ) {
        let (graph, ops, pairs) = input;
        let (updates, model) = realize_updates(&graph, &ops);
        let config = SimRankConfig::default()
            .with_samples(30)
            .with_seed(seed)
            .with_sampler(SamplerKind::Alias);
        let mut engine = QueryEngine::new(&graph, config);
        engine.apply_updates(&updates).expect("realized updates are valid");

        let batch = engine.batch_similarities(&pairs).unwrap();
        let sequential: Vec<f64> =
            pairs.iter().map(|&(u, v)| engine.similarity(u, v)).collect();
        prop_assert_eq!(&batch, &sequential, "alias batch == sequential after updates");

        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let a = single.install(|| engine.batch_similarities(&pairs).unwrap());
        let b = four.install(|| engine.batch_similarities(&pairs).unwrap());
        prop_assert_eq!(&a, &b, "alias: 1 thread == 4 threads after updates");
        prop_assert_eq!(&a, &batch);

        // Rebuilding only the patched rows is indistinguishable from a
        // fresh graph.
        let fresh = QueryEngine::new(
            &model_graph(graph.num_vertices(), &model),
            config,
        );
        let fresh_batch = single.install(|| fresh.batch_similarities(&pairs).unwrap());
        prop_assert_eq!(&batch, &fresh_batch, "patched alias rows == fresh tables");
        let fresh_batch_4 = four.install(|| fresh.batch_similarities(&pairs).unwrap());
        prop_assert_eq!(&batch, &fresh_batch_4);
    }

    /// Alias profiles survive churn identically too, and the per-pair RNG
    /// streams keep repeated queries bit-equal on the mutated engine.
    #[test]
    fn alias_profiles_after_churn_are_replayable_and_match_rebuild(
        input in graph_and_ops(6, 14, 16)
            .prop_flat_map(|(g, ops)| {
                let n = g.num_vertices() as u32;
                (Just(g), Just(ops), pairs_over(n, 6))
            }),
        seed in 0u64..1000,
    ) {
        let (graph, ops, pairs) = input;
        let (updates, model) = realize_updates(&graph, &ops);
        let config = SimRankConfig::default()
            .with_samples(20)
            .with_seed(seed)
            .with_sampler(SamplerKind::Alias);
        let mut engine = QueryEngine::new(&graph, config);
        engine.apply_updates(&updates).expect("valid");
        let fresh = QueryEngine::new(&model_graph(graph.num_vertices(), &model), config);

        let profiles = engine.batch_profile(&pairs).unwrap();
        prop_assert_eq!(&profiles, &fresh.batch_profile(&pairs).unwrap());
        for (profile, &(u, v)) in profiles.iter().zip(&pairs) {
            prop_assert_eq!(profile, &engine.profile(u, v), "replayable stream");
        }
    }
}
