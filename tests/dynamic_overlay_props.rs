//! Property-based tests for the dynamic-graph subsystem: a [`DeltaOverlay`]
//! fed an arbitrary valid update stream must be vertex-for-vertex identical
//! (both directions, neighbors and probabilities, before *and* after
//! compaction) to a [`CsrGraph`] rebuilt from scratch on the mutated graph;
//! and the batch [`QueryEngine`] must keep its determinism contract after
//! updates — batch == sequential bit-for-bit, 1 thread == 5 threads, and a
//! mutated engine == a fresh engine on the mutated graph.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use uncertain_simrank::graph::{
    CompactionPolicy, CsrGraph, DeltaOverlay, DuplicatePolicy, GraphUpdate, UncertainGraph,
    VertexId,
};
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::{QueryEngine, QueryError};

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

/// Abstract update op: `(u, v, probability, kind)`.  Translated against the
/// current arc set so that every generated [`GraphUpdate`] is valid: absent
/// arcs are inserted; present arcs are deleted (kind 0) or re-weighted.
type AbstractOp = (u32, u32, f64, u8);

/// Translates abstract ops into a valid update stream and the model arc
/// set it produces.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DeltaOverlay under an arbitrary valid update stream is
    /// vertex-for-vertex identical to a CsrGraph rebuilt from the mutated
    /// graph — both directions, neighbors and probabilities — and stays so
    /// after compaction folds the deltas into a fresh CSR.
    #[test]
    fn overlay_equals_rebuild_vertex_for_vertex(
        input in graph_and_ops(10, 30, 40),
    ) {
        let (graph, ops) = input;
        let (updates, model) = realize_updates(&graph, &ops);
        let expected = model_graph(graph.num_vertices(), &model);
        let rebuilt = CsrGraph::from_uncertain(&expected);

        let mut overlay = DeltaOverlay::with_policy(
            CsrGraph::from_uncertain(&graph),
            CompactionPolicy::never(),
        );
        overlay.apply_all(&updates).expect("realized updates are valid");
        prop_assert_eq!(overlay.num_arcs(), expected.num_arcs());

        // Before compaction: reads merge base + patched rows.
        for v in 0..graph.num_vertices() as VertexId {
            prop_assert_eq!(overlay.forward().neighbors(v), rebuilt.forward().neighbors(v));
            prop_assert_eq!(
                overlay.forward().probabilities(v),
                rebuilt.forward().probabilities(v)
            );
            prop_assert_eq!(overlay.reverse().neighbors(v), rebuilt.reverse().neighbors(v));
            prop_assert_eq!(
                overlay.reverse().probabilities(v),
                rebuilt.reverse().probabilities(v)
            );
        }
        prop_assert_eq!(overlay.to_uncertain(), expected.clone());

        // After compaction: the fresh CSR base *is* the rebuild.
        overlay.compact();
        prop_assert_eq!(overlay.patched_vertices(), 0);
        prop_assert_eq!(overlay.base(), &rebuilt);
    }

    /// One update stream applied in arbitrary batch splits (including
    /// threshold-triggered compactions along the way) converges to the same
    /// graph as applying it in one atomic batch.
    #[test]
    fn batch_splits_and_compaction_points_are_invisible(
        input in graph_and_ops(8, 20, 30),
        split in 1usize..7,
        min_ops in 1usize..16,
    ) {
        let (graph, ops) = input;
        let (updates, model) = realize_updates(&graph, &ops);
        let expected = model_graph(graph.num_vertices(), &model);

        let mut one_shot = DeltaOverlay::with_policy(
            CsrGraph::from_uncertain(&graph),
            CompactionPolicy::never(),
        );
        one_shot.apply_all(&updates).expect("valid");

        let mut chunked = DeltaOverlay::with_policy(
            CsrGraph::from_uncertain(&graph),
            CompactionPolicy { min_ops, ops_fraction: 0.0 },
        );
        for chunk in updates.chunks(split) {
            chunked.apply_all(chunk).expect("valid");
        }
        prop_assert_eq!(one_shot.to_uncertain(), expected.clone());
        prop_assert_eq!(chunked.to_uncertain(), expected);
    }

    /// After updates the engine keeps every determinism contract: batch ==
    /// sequential bit-for-bit, 1 thread == 5 threads, and the mutated
    /// engine == a fresh engine built on the mutated graph.
    #[test]
    fn post_update_batch_determinism_holds_at_1_and_5_threads(
        input in graph_and_ops(8, 20, 24)
            .prop_flat_map(|(g, ops)| {
                let n = g.num_vertices() as u32;
                (Just(g), Just(ops), pairs_over(n, 12))
            }),
        seed in 0u64..1000,
    ) {
        let (graph, ops, pairs) = input;
        let (updates, model) = realize_updates(&graph, &ops);
        let config = SimRankConfig::default().with_samples(30).with_seed(seed);
        let mut engine = QueryEngine::new(&graph, config);
        engine.apply_updates(&updates).expect("realized updates are valid");

        let batch = engine.batch_similarities(&pairs).unwrap();
        let sequential: Vec<f64> =
            pairs.iter().map(|&(u, v)| engine.similarity(u, v)).collect();
        prop_assert_eq!(&batch, &sequential, "batch == sequential after updates");

        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let a = single.install(|| engine.batch_similarities(&pairs).unwrap());
        let b = many.install(|| engine.batch_similarities(&pairs).unwrap());
        prop_assert_eq!(&a, &b, "1 thread == 5 threads after updates");
        prop_assert_eq!(&a, &batch);

        // The live engine is indistinguishable from a from-scratch rebuild.
        let fresh = QueryEngine::new(
            &model_graph(graph.num_vertices(), &model),
            config,
        );
        prop_assert_eq!(&batch, &fresh.batch_similarities(&pairs).unwrap());
    }

    /// Out-of-range ids anywhere in a batch are a typed error, never a
    /// panic, and valid batches on the same engine still succeed.
    #[test]
    fn out_of_range_batch_ids_are_typed_errors(
        graph in small_uncertain_graph(8, 20),
        offset in 0u32..1000,
    ) {
        let n = graph.num_vertices();
        let bad = n as u32 + offset;
        let engine = QueryEngine::new(
            &graph,
            SimRankConfig::default().with_samples(10).with_seed(1),
        );
        let expected = QueryError::VertexOutOfRange { vertex: bad, num_vertices: n };
        prop_assert_eq!(
            engine.batch_similarities(&[(0, 0), (bad, 0)]).unwrap_err(),
            expected
        );
        prop_assert_eq!(engine.batch_profile(&[(0, bad)]).unwrap_err(), expected);
        prop_assert_eq!(
            engine.batch_top_k_similar_to(0, &[1 % n as u32, bad], 2).unwrap_err(),
            expected
        );
        prop_assert_eq!(engine.try_similarity(bad, 0).unwrap_err(), expected);
        // The engine is still healthy for in-range queries.
        prop_assert!(engine.batch_similarities(&[(0, 1 % n as u32)]).is_ok());
    }
}
