//! Property-based tests for the caching layer: a [`CachedQueryEngine`] fed
//! an arbitrary interleaving of queries and valid update rounds must return
//! answers **bit-identical** to an uncached engine walking the same
//! interleaving — at 1 and N worker threads, on both sampler backends, under
//! capacity pressure small enough to force evictions mid-run, and with
//! repeat-asks that are served from the cache rather than recomputed.
//!
//! Every answer is also checked against the strongest oracle available: a
//! **fresh engine** built from scratch on the current graph state, which
//! shares no cache, overlay or arena state with the engine under test.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use uncertain_simrank::graph::{DuplicatePolicy, GraphUpdate, UncertainGraph, VertexId};
use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::{MeetingProfile, QueryError};

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

/// The profile of one pair through the call a `profile` frame makes.
fn served_profile(
    cached: &CachedQueryEngine,
    u: VertexId,
    v: VertexId,
) -> Result<MeetingProfile, QueryError> {
    cached.profile(u, v, None).map(|(_, profile)| profile)
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
    /// query batches and update rounds, on either sampler, every answer of
    /// the cached engine (asked twice — fill, then hit) equals the uncached
    /// engine and a fresh engine rebuilt from the model graph bit for bit,
    /// and the final cache counters prove the cache actually served hits
    /// rather than silently recomputing.
    #[test]
    fn cached_equals_uncached_across_query_update_interleavings(
        input in graph_and_interleaving(8, 20, 5),
        seed in 0u64..1000,
        capacity in 1usize..48,
        alias in any::<bool>(),
    ) {
        let (graph, rounds) = input;
        let sampler = if alias { SamplerKind::Alias } else { SamplerKind::Legacy };
        let config = SimRankConfig::default()
            .with_samples(25)
            .with_seed(seed)
            .with_sampler(sampler);
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
            let fresh = QueryEngine::new(&graph_of_model(n as usize, &model), config);
            prop_assert_eq!(
                &got_b,
                &fresh.batch_similarities(pairs).unwrap(),
                "cached == fresh engine under {:?}",
                sampler
            );

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
        let fresh = QueryEngine::new(&graph_of_model(n as usize, &model), config);
        prop_assert_eq!(&after, &fresh.batch_similarities(&pairs).unwrap());

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

/// Feeders `0..8` point at most of the middles `8..28`; every middle points
/// at the hub `28` and a few at the tops `29..40`.  An in-neighbour two-hop
/// row of the hub or a top lands its paths on the eight feeders, so each
/// slot of the row sums several arcs.
fn layered_hub_graph() -> UncertainGraph {
    let mut builder = UncertainGraphBuilder::new(40);
    for f in 0..8u32 {
        for m in (8..28u32).filter(|m| (f + m) % 3 != 0) {
            builder = builder.arc(f, m, 0.2 + 0.035 * ((f * m) % 20) as f64);
        }
    }
    for m in 8..28u32 {
        builder = builder.arc(m, 28, 0.05 + 0.04 * (m - 8) as f64);
        for t in (29..40u32).filter(|t| (m * 7 + t * 3) % 5 == 0) {
            builder = builder.arc(m, t, 0.1 + 0.04 * ((m + t) % 20) as f64);
        }
    }
    builder.build().unwrap()
}

/// Memo-warm answers, whose exact m(2) fills its table from a kept two-hop
/// row, equal a bare engine bit for bit: across update rounds (one edits
/// the row of the hub's in-neighbour 9, which changes the hub's two-hop row
/// but not its own row), for `(u, v)` and `(v, u)`, at 1 and 4 threads.
#[test]
fn memo_warm_two_hop_rows_equal_a_bare_engine_across_rounds_orders_and_threads() {
    let g = layered_hub_graph();
    let rounds = [
        vec![],
        vec![GraphUpdate::SetProbability {
            source: 1,
            target: 9,
            probability: 0.9,
        }],
        vec![
            GraphUpdate::InsertArc {
                source: 2,
                target: 28,
                probability: 0.6,
            },
            GraphUpdate::DeleteArc {
                source: 10,
                target: 28,
            },
        ],
    ];
    // The hub, then the top 29, is the smaller endpoint of every pair.
    let forward: Vec<(VertexId, VertexId)> = (29..40)
        .map(|t| (28, t))
        .chain((30..40).map(|t| (29, t)))
        .collect();
    let bits = |p: &MeetingProfile| p.meeting.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    for threads in [1, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let config = SimRankConfig::default().with_samples(30).with_seed(11);
        let cached = CachedQueryEngine::new(QueryEngine::new(&g, config), 4096);
        let mut bare = QueryEngine::new(&g, config);
        let mut hits = 0;
        for updates in &rounds {
            cached.apply_updates(updates).unwrap();
            bare.apply_updates(updates).unwrap();
            let want = bare.batch_similarities(&forward).unwrap();
            assert!(want.iter().all(|&s| s > 0.0));
            let got = pool.install(|| cached.batch_similarities(&forward).unwrap().1);
            assert_eq!(got, want, "{threads} threads: {updates:?}");
            // Profiles are result-cache misses, so the reversed pairs are
            // computed again, reading the rows the scores kept.
            for &(u, v) in &forward {
                let got = pool.install(|| served_profile(&cached, v, u).unwrap());
                let want = bare.profile(v, u);
                assert!(want.meeting[2] > 0.0, "({v}, {u})");
                assert_eq!(bits(&got), bits(&want), "{threads} threads: ({v}, {u})");
            }
            let rows = cached.with_read(QueryEngine::two_hop_row_stats).unwrap();
            assert!(rows.hits > hits, "{threads} threads, {updates:?}: {rows:?}");
            assert!(rows.entries >= 1, "{rows:?}");
            hits = rows.hits;
        }
    }
}
