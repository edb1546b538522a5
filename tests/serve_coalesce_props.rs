//! Property-based tests for the coalesced serving hot path: a
//! [`RequestHandler`] with request coalescing enabled, fed an arbitrary
//! interleaving of query frames from several threads, must answer every
//! frame **byte-identical** to an uncoalesced handler walking the same
//! frames sequentially — across random window/cap settings and update
//! rounds — and the serving metrics (latency histogram, per-kind request
//! counters, coalescer batching counters) must stay coherent with the
//! frames actually served.
//!
//! Both handlers answer through the same engine batch path, so the scores
//! they agree on are also checked against an independent oracle: a plain
//! [`QueryEngine`] that applied the same update rounds.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use uncertain_simrank::graph::{DuplicatePolicy, GraphUpdate, UncertainGraph, VertexId};
use uncertain_simrank::prelude::*;
use uncertain_simrank::server::{Frame, RequestKind, DEFAULT_MAX_BATCH};

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

/// Abstract query frame `(u, v, selector)`: the selector picks the request
/// type, the vertices are taken modulo the graph size so every frame is a
/// valid, coalescable request.
type AbstractFrame = (u32, u32, u8);

fn render_frame(n: u32, &(u, v, sel): &AbstractFrame) -> String {
    let (u, v) = (u % n, v % n);
    match sel % 4 {
        0 => format!(r#"{{"type":"similarity","source":{u},"target":{v}}}"#),
        1 => format!(r#"{{"type":"profile","source":{u},"target":{v}}}"#),
        2 => format!(r#"{{"type":"top_k","source":{u},"k":{}}}"#, 1 + v % 3),
        _ => format!(r#"{{"type":"batch","pairs":[[{u},{v}],[{v},{u}],[{u},{u}]]}}"#),
    }
}

/// Abstract update op `(u, v, probability, kind)`, realised against the
/// live arc set so every generated update frame is valid (same scheme as
/// `cache_props.rs`).
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

/// Renders an update round as one wire `update` frame (both handlers see
/// the identical bytes, like a real client would send).
fn render_update(updates: &[GraphUpdate]) -> String {
    let items: Vec<String> = updates
        .iter()
        .map(|update| match *update {
            GraphUpdate::InsertArc {
                source,
                target,
                probability,
            } => format!(
                r#"{{"op":"insert","source":{source},"target":{target},"probability":{probability}}}"#
            ),
            GraphUpdate::DeleteArc { source, target } => {
                format!(r#"{{"op":"delete","source":{source},"target":{target}}}"#)
            }
            GraphUpdate::SetProbability {
                source,
                target,
                probability,
            } => format!(
                r#"{{"op":"set","source":{source},"target":{target},"probability":{probability}}}"#
            ),
        })
        .collect();
    format!(r#"{{"type":"update","updates":[{}]}}"#, items.join(","))
}

/// The configuration every handler (and the oracle engine) runs under.
fn config(seed: u64) -> SimRankConfig {
    SimRankConfig::default().with_samples(25).with_seed(seed)
}

/// Two handlers over the *same* graph, seed and identity label table: one
/// plain, one coalescing with the given window/cap.
fn handler_pair(
    graph: &UncertainGraph,
    seed: u64,
    window_us: u64,
    cap: usize,
) -> (RequestHandler, RequestHandler) {
    let config = config(seed);
    let labels: Vec<u64> = (0..graph.num_vertices() as u64).collect();
    let plain = RequestHandler::new(
        QueryEngine::new(graph, config),
        labels.clone(),
        DEFAULT_MAX_BATCH,
    );
    let coalesced = RequestHandler::new(QueryEngine::new(graph, config), labels, DEFAULT_MAX_BATCH)
        .with_coalescing(CoalesceOptions {
            window: Duration::from_micros(window_us),
            cap,
        });
    (plain, coalesced)
}

/// Extracts the integer right after `"key":` in `section` (the stats frame
/// is line-delimited JSON; substring extraction keeps the test free of a
/// parser and doubles as a wire-format pin).
fn field_u64(section: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let start = section
        .find(&pattern)
        .unwrap_or_else(|| panic!("{pattern} missing in {section}"))
        + pattern.len();
    let digits: String = section[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{pattern} not an integer in {section}"))
}

/// The JSON number right after `"key":` in `json`.
fn number_after(json: &str, key: &str) -> f64 {
    let pattern = format!("\"{key}\":");
    let start = json
        .find(&pattern)
        .unwrap_or_else(|| panic!("{pattern} missing in {json}"))
        + pattern.len();
    let end = start + json[start..].find([',', '}', ']']).unwrap();
    json[start..end].parse().unwrap()
}

/// The JSON number array right after `"key":` in `json`.
fn numbers_after(json: &str, key: &str) -> Vec<f64> {
    let pattern = format!("\"{key}\":[");
    let start = json
        .find(&pattern)
        .unwrap_or_else(|| panic!("{pattern} missing in {json}"))
        + pattern.len();
    let end = start + json[start..].find(']').unwrap();
    json[start..end]
        .split(',')
        .filter(|item| !item.is_empty())
        .map(|item| item.parse().unwrap())
        .collect()
}

/// Checks one served frame's numbers against the oracle engine: scores of
/// `similarity` and `batch` frames, the meeting vector of `profile` frames
/// (shortest round-trip floats parse back to the identical `f64`).
fn assert_matches_oracle(oracle: &QueryEngine, n: u32, frame: &AbstractFrame, json: &str) {
    let (u, v) = (frame.0 % n, frame.1 % n);
    match frame.2 % 4 {
        0 => assert_eq!(
            number_after(json, "score"),
            oracle.similarity(u, v),
            "{json}"
        ),
        1 => assert_eq!(
            numbers_after(json, "meeting"),
            oracle.profile(u, v).meeting,
            "{json}"
        ),
        2 => {} // top_k ranks the same scores; byte identity covers it
        _ => assert_eq!(
            numbers_after(json, "scores"),
            oracle
                .batch_similarities(&[(u, v), (v, u), (u, u)])
                .unwrap(),
            "{json}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The heart of the tentpole: whatever the window/cap settings and
    /// however the threads interleave, every coalesced answer equals the
    /// sequential uncoalesced answer byte for byte — before and after an
    /// update round — and the coalescer's counters account for exactly the
    /// coalescable frames that were submitted.
    #[test]
    fn coalesced_interleavings_are_byte_identical_to_sequential(
        graph in small_uncertain_graph(8, 20),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..1000, 0u32..1000, 0u8..8), 1..=10),
                proptest::collection::vec((0u32..1000, 0u32..1000, 0.05f64..1.0f64, 0u8..3), 0..=6),
            ),
            1..=3,
        ),
        seed in 0u64..1000,
        window_us in 50u64..1500,
        cap in 1usize..6,
    ) {
        let n = graph.num_vertices() as u32;
        let (plain, coalesced) = handler_pair(&graph, seed, window_us, cap);
        let mut oracle = QueryEngine::new(&graph, config(seed));
        let mut model: BTreeMap<(VertexId, VertexId), f64> = graph
            .arcs()
            .map(|a| ((a.source, a.target), a.probability))
            .collect();

        let mut coalescable = 0u64;
        let mut update_frames = 0u64;
        for (abstract_frames, ops) in &rounds {
            let frames: Vec<String> =
                abstract_frames.iter().map(|f| render_frame(n, f)).collect();
            coalescable += frames.len() as u64;
            let expected: Vec<Frame> = frames
                .iter()
                .map(|frame| plain.handle_line(frame).unwrap())
                .collect();
            for (frame, answer) in abstract_frames.iter().zip(&expected) {
                assert_matches_oracle(&oracle, n, frame, &answer.json);
            }

            // Up to three threads submit disjoint slices of the round
            // concurrently; whichever thread leads whichever batch, every
            // answer must equal the sequential reference bit for bit.
            let chunk = frames.len().div_ceil(3);
            std::thread::scope(|scope| {
                let handles: Vec<_> = frames
                    .chunks(chunk)
                    .map(|slice| {
                        let coalesced = &coalesced;
                        scope.spawn(move || {
                            slice
                                .iter()
                                .map(|frame| coalesced.handle_line(frame).unwrap())
                                .collect::<Vec<Frame>>()
                        })
                    })
                    .collect();
                let got: Vec<Frame> = handles
                    .into_iter()
                    .flat_map(|handle| handle.join().unwrap())
                    .collect();
                for ((frame, want), have) in frames.iter().zip(&expected).zip(&got) {
                    assert_eq!(have, want, "coalesced != sequential for {frame}");
                }
            });

            // One wire update frame advances both handlers in lockstep
            // (updates bypass the coalescer but must stay byte-identical
            // too, and every later answer reflects the new epoch).
            let updates = realize_round(n, &mut model, ops);
            if !updates.is_empty() {
                let update_frame = render_update(&updates);
                update_frames += 1;
                prop_assert_eq!(
                    coalesced.handle_line(&update_frame).unwrap(),
                    plain.handle_line(&update_frame).unwrap(),
                    "update frame diverged: {}",
                    update_frame
                );
                oracle.apply_updates(&updates).unwrap();
            }
        }

        // Counter coherence: the coalescer saw exactly the coalescable
        // frames, every flush was either a window or a cap flush, and the
        // per-kind counters account for every frame the handler dispatched.
        let snapshot = coalesced.metrics().coalescer_snapshot();
        prop_assert_eq!(snapshot.requests, coalescable);
        prop_assert_eq!(
            snapshot.window_flushes + snapshot.cap_flushes,
            snapshot.batches
        );
        // A leader drains *everything* pending when it wakes, so a batch
        // may exceed `cap` under a race — only the 1..=requests bound and
        // the flush accounting are invariants.
        prop_assert!(snapshot.batches >= 1 && snapshot.batches <= coalescable);
        let dispatched: u64 = RequestKind::ALL
            .iter()
            .map(|&kind| coalesced.metrics().requests_of(kind))
            .sum();
        prop_assert_eq!(dispatched, coalescable + update_frames);
    }

    /// Metrics coherence over real TCP: a coalesced server asked an
    /// arbitrary mix of valid, malformed and unknown-vertex frames reports
    /// a latency histogram that counted exactly the served frames, and a
    /// `stats` frame whose latency/coalescer sections agree with it.
    #[test]
    fn latency_and_coalescer_counters_cohere_over_tcp(
        graph in small_uncertain_graph(8, 20),
        abstract_frames in proptest::collection::vec((0u32..1000, 0u32..1000, 0u8..6), 1..=14),
        seed in 0u64..1000,
        window_us in 50u64..1500,
        cap in 1usize..6,
    ) {
        let n = graph.num_vertices() as u32;
        let (_, coalesced) = handler_pair(&graph, seed, window_us, cap);
        let metrics = Arc::clone(coalesced.metrics());
        let server = Server::bind(
            "127.0.0.1:0",
            coalesced,
            ServerOptions {
                workers: 2,
                queue_depth: 4,
                max_connections: Some(1),
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        let conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        let mut response = String::new();
        let mut ask = |line: &str| -> String {
            writeln!(conn, "{line}").unwrap();
            response.clear();
            reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        };

        // Selectors 0..4 render valid coalescable frames; 4 is malformed
        // JSON, 5 an unknown vertex — both answered with typed errors that
        // never enter the coalescer.
        let mut coalescable = 0u64;
        for frame in &abstract_frames {
            let line = match frame.2 {
                0..=3 => {
                    coalescable += 1;
                    render_frame(n, frame)
                }
                4 => "{oops".to_string(),
                _ => format!(r#"{{"type":"similarity","source":9999,"target":{}}}"#, frame.0 % n),
            };
            let answer = ask(&line);
            prop_assert!(!answer.is_empty(), "no response for {}", line);
        }
        let stats_line = ask(r#"{"type":"stats"}"#);
        drop((conn, reader));
        let served = runner.join().unwrap();

        // Every served frame — including each error frame and the stats
        // frame itself — was timed exactly once.
        let sent = abstract_frames.len() as u64 + 1;
        prop_assert_eq!(served.frames, sent);
        prop_assert_eq!(metrics.latency().count(), sent);
        // Each frame's sample lands before its reply is written, so the
        // stats frame sees every earlier frame; it is built before its own
        // sample, so the section reports exactly one sample fewer.
        let latency = &stats_line[stats_line.find("\"latency\":").unwrap()..];
        prop_assert_eq!(field_u64(latency, "count"), sent - 1);
        let coalescer = &stats_line[stats_line.find("\"coalescer\":").unwrap()..];
        prop_assert_eq!(field_u64(coalescer, "window_us"), window_us);
        prop_assert_eq!(field_u64(coalescer, "cap"), cap as u64);
        prop_assert_eq!(field_u64(coalescer, "requests"), coalescable);
        prop_assert_eq!(
            field_u64(coalescer, "window_flushes") + field_u64(coalescer, "cap_flushes"),
            field_u64(coalescer, "batches")
        );
        // The per-kind counters in the section sum to every dispatched
        // frame (the stats frame counts itself before rendering).
        let requests = &stats_line[stats_line.find("\"requests\":").unwrap()..];
        let dispatched: u64 = RequestKind::ALL
            .iter()
            .map(|&kind| field_u64(requests, kind.as_str()))
            .sum();
        prop_assert_eq!(dispatched, sent);
        prop_assert_eq!(
            dispatched,
            RequestKind::ALL
                .iter()
                .map(|&kind| metrics.requests_of(kind))
                .sum::<u64>()
        );
    }
}
