//! Property-based tests for the caching layer: a [`CachedQueryEngine`] fed
//! an arbitrary interleaving of queries and valid update rounds must return
//! answers **bit-identical** to an uncached engine walking the same
//! interleaving — at 1 and N worker threads, under capacity pressure small
//! enough to force evictions mid-run, and with repeat-asks that are served
//! from the cache rather than recomputed.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use uncertain_simrank::graph::{DuplicatePolicy, GraphUpdate, UncertainGraph, VertexId};
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::{CoalescedAnswer, CoalescedQuery, MeetingProfile, QueryError};

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
/// live arc set so every generated [`GraphUpdate`] is valid (see
/// `dynamic_overlay_props.rs`, which pins the overlay side of this).
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

/// The profile of one pair through a one-slot served batch (the path a
/// `profile` frame takes).
fn served_profile(
    cached: &CachedQueryEngine,
    u: VertexId,
    v: VertexId,
) -> Result<MeetingProfile, QueryError> {
    let (_, answers) = cached.serve_batch_with_trace(&[CoalescedQuery::Profile(u, v)], None);
    match answers.into_iter().next().expect("one answer per slot")? {
        CoalescedAnswer::Profile(profile) => Ok(profile),
        other => panic!("a profile slot answered {other:?}"),
    }
}

/// Strategy: a graph plus interleaved rounds, each one a query batch (with
/// duplicates likely, since pairs draw from a small id space) followed by a
/// stream of abstract update ops.
#[allow(clippy::type_complexity)]
fn graph_and_interleaving(
    max_vertices: u32,
    max_arcs: usize,
    max_rounds: usize,
) -> impl Strategy<Value = (UncertainGraph, Vec<(Vec<(u32, u32)>, Vec<AbstractOp>)>)> {
    small_uncertain_graph(max_vertices, max_arcs).prop_flat_map(move |g| {
        let n = g.num_vertices() as u32;
        let rounds = proptest::collection::vec(
            (
                proptest::collection::vec((0..n, 0..n), 1..=10),
                proptest::collection::vec((0u32..1000, 0u32..1000, 0.05f64..1.0f64, 0u8..3), 0..=8),
            ),
            1..=max_rounds,
        );
        (Just(g), rounds)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The heart of the subsystem: across an arbitrary interleaving of
    /// query batches and update rounds, every answer of the cached engine
    /// (asked twice — fill, then hit) equals the uncached engine bit for
    /// bit, and the final cache counters prove the cache actually served
    /// hits rather than silently recomputing.
    #[test]
    fn cached_equals_uncached_across_query_update_interleavings(
        input in graph_and_interleaving(8, 20, 5),
        seed in 0u64..1000,
        capacity in 1usize..48,
    ) {
        let (graph, rounds) = input;
        let config = SimRankConfig::default().with_samples(25).with_seed(seed);
        let cached = CachedQueryEngine::new(QueryEngine::new(&graph, config), capacity);
        let uncached = QueryEngine::new(&graph, config);
        let mut uncached = uncached; // apply_updates needs &mut
        let mut model: BTreeMap<(VertexId, VertexId), f64> = graph
            .arcs()
            .map(|a| ((a.source, a.target), a.probability))
            .collect();
        let n = graph.num_vertices() as u32;

        for (round, (pairs, ops)) in rounds.iter().enumerate() {
            let expected = uncached.batch_similarities(pairs).unwrap();
            // Fill, then repeat: the second ask is served (partly) from the
            // cache and must not change a bit.
            let (epoch_a, got_a) = cached.batch_similarities(pairs).unwrap();
            let (epoch_b, got_b) = cached.batch_similarities(pairs).unwrap();
            prop_assert_eq!(epoch_a, round as u64, "epoch counts applied rounds");
            prop_assert_eq!(epoch_a, epoch_b);
            prop_assert_eq!(&got_a, &expected, "cached fill == uncached");
            prop_assert_eq!(&got_b, &expected, "cached hit == uncached");

            // Single-pair and profile paths share the same contract.
            let &(u, v) = pairs.first().unwrap();
            prop_assert_eq!(cached.similarity(u, v).unwrap().1, uncached.similarity(u, v));
            prop_assert_eq!(&served_profile(&cached, u, v).unwrap(), &uncached.profile(u, v));

            // Top-k ranks through cached scores; compare against the engine.
            let candidates: Vec<VertexId> = pairs.iter().map(|&(_, v)| v).collect();
            prop_assert_eq!(
                &cached.batch_top_k_similar_to(u, &candidates, 3).unwrap().1,
                &uncached.batch_top_k_similar_to(u, &candidates, 3).unwrap()
            );

            // Apply the same update round to both engines.
            let updates = realize_round(n, &mut model, ops);
            let (_, new_epoch) = cached.apply_updates(&updates).unwrap();
            uncached.apply_updates(&updates).unwrap();
            prop_assert_eq!(new_epoch, round as u64 + 1);
        }

        // After the final round the cache answers for the mutated graph.
        let pairs: Vec<(VertexId, VertexId)> = (0..n).map(|v| (0, v)).collect();
        let (_, after) = cached.batch_similarities(&pairs).unwrap();
        prop_assert_eq!(&after, &uncached.batch_similarities(&pairs).unwrap());

        let stats = cached.cache_stats().unwrap();
        prop_assert!(stats.hits > 0, "repeat-asks must be served from the cache: {:?}", stats);
        prop_assert!(stats.entries <= capacity, "capacity bound violated: {:?}", stats);
    }

    /// Worker-count invariance survives the cache: a cached engine queried
    /// from a 1-thread pool and a 5-thread pool (cold cache each) returns
    /// the same bits, equal to the uncached reference.
    #[test]
    fn cached_answers_are_thread_count_invariant(
        input in graph_and_interleaving(8, 20, 3),
        seed in 0u64..1000,
        capacity in 1usize..32,
    ) {
        let (graph, rounds) = input;
        let config = SimRankConfig::default().with_samples(25).with_seed(seed);
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let cached_1 = CachedQueryEngine::new(QueryEngine::new(&graph, config), capacity);
        let cached_n = CachedQueryEngine::new(QueryEngine::new(&graph, config), capacity);
        let mut reference = QueryEngine::new(&graph, config);
        let mut model: BTreeMap<(VertexId, VertexId), f64> = graph
            .arcs()
            .map(|a| ((a.source, a.target), a.probability))
            .collect();
        let n = graph.num_vertices() as u32;

        for (pairs, ops) in &rounds {
            let expected = reference.batch_similarities(pairs).unwrap();
            let a = single.install(|| cached_1.batch_similarities(pairs).unwrap().1);
            let b = many.install(|| cached_n.batch_similarities(pairs).unwrap().1);
            prop_assert_eq!(&a, &expected, "1 thread == uncached");
            prop_assert_eq!(&b, &expected, "5 threads == uncached");
            // Second asks (cache-warm) from the *other* pool: a warm cache
            // filled at one thread count serves a pool of another.
            let a2 = many.install(|| cached_1.batch_similarities(pairs).unwrap().1);
            let b2 = single.install(|| cached_n.batch_similarities(pairs).unwrap().1);
            prop_assert_eq!(&a2, &expected);
            prop_assert_eq!(&b2, &expected);

            let updates = realize_round(n, &mut model, ops);
            cached_1.apply_updates(&updates).unwrap();
            cached_n.apply_updates(&updates).unwrap();
            reference.apply_updates(&updates).unwrap();
        }
    }

    /// Out-of-range ids stay typed errors through the cached path, even
    /// when parts of the batch are already cached, and never poison the
    /// cache for subsequent valid queries.
    #[test]
    fn cached_path_keeps_typed_errors(
        graph in small_uncertain_graph(8, 20),
        offset in 0u32..1000,
    ) {
        let n = graph.num_vertices();
        let bad = n as u32 + offset;
        let config = SimRankConfig::default().with_samples(10).with_seed(1);
        let cached = CachedQueryEngine::new(QueryEngine::new(&graph, config), 16);
        let reference = QueryEngine::new(&graph, config);
        cached.similarity(0, 0).unwrap(); // (0, 0) is cached now
        let expected = QueryError::VertexOutOfRange {
            vertex: bad,
            num_vertices: n,
        };
        prop_assert_eq!(
            cached.batch_similarities(&[(0, 0), (bad, 0)]).unwrap_err(),
            expected
        );
        prop_assert_eq!(cached.similarity(0, bad).unwrap_err(), expected);
        prop_assert_eq!(served_profile(&cached, bad, 0).unwrap_err(), expected);
        prop_assert_eq!(
            cached.batch_top_k_similar_to(0, &[bad], 1).unwrap_err(),
            expected
        );
        // Still healthy — and still bit-identical.
        let pair = (0, 1 % n as u32);
        prop_assert_eq!(
            cached.batch_similarities(&[pair]).unwrap().1,
            reference.batch_similarities(&[pair]).unwrap()
        );
    }
}
