//! Protocol robustness over a real socket: every class of malformed or
//! hostile input must come back as a typed error *frame* on a connection
//! that stays up — no panic, no disconnect — while interleaved updates and
//! queries on the same connection stay consistent.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use ugraph::{GraphUpdate, UncertainGraph, UncertainGraphBuilder};
use usim_core::{QueryEngine, SimRankConfig};
use usim_server::{RequestHandler, Server, ServerOptions};

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

fn config() -> SimRankConfig {
    SimRankConfig::default().with_samples(120).with_seed(13)
}

/// Spawns a server with a small batch cap and `workers` worker threads.
fn spawn(workers: usize) -> usim_server::ServerHandle {
    let handler = RequestHandler::new(
        QueryEngine::new(&fig1_graph(), config()),
        (0..5).collect(),
        8, // small cap so the oversized-batch path is reachable
    );
    Server::bind(
        "127.0.0.1:0",
        handler,
        ServerOptions {
            workers,
            queue_depth: 4,
            max_connections: None,
        },
    )
    .unwrap()
    .spawn()
}

fn ask(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, frame: &str) -> String {
    writeln!(conn, "{frame}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "response is one full line: {line:?}");
    line.trim_end().to_string()
}

#[test]
fn every_malformed_frame_is_a_typed_error_on_a_live_connection() {
    let handle = spawn(2);
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // (frame, expected code, expected message fragment) — one connection
    // survives the whole gauntlet.
    let cases = [
        ("{", "malformed_frame", "invalid JSON"),
        ("nonsense", "malformed_frame", "invalid JSON"),
        ("[]", "malformed_frame", "expected a JSON object"),
        ("true", "malformed_frame", "expected a JSON object"),
        (r#"{"source":1}"#, "malformed_frame", "missing field `type`"),
        (r#"{"type":[]}"#, "malformed_frame", "field `type`"),
        (
            r#"{"type":"topk"}"#,
            "unknown_request_type",
            "unknown request type",
        ),
        (
            r#"{"type":"similarity","target":1}"#,
            "bad_field",
            "missing field `source`",
        ),
        (
            r#"{"type":"similarity","source":-1,"target":1}"#,
            "bad_field",
            "field `source`",
        ),
        (
            r#"{"type":"similarity","source":0.5,"target":1}"#,
            "bad_field",
            "field `source`",
        ),
        (
            r#"{"type":"similarity","source":0,"target":1,"extra":true}"#,
            "bad_field",
            "unknown field `extra`",
        ),
        // Out-of-range / unknown vertex ids never reach the CSR arrays.
        (
            r#"{"type":"similarity","source":0,"target":4294967295}"#,
            "unknown_vertex",
            "vertex 4294967295 does not appear",
        ),
        (
            r#"{"type":"top_k","source":99,"k":3}"#,
            "unknown_vertex",
            "vertex 99 does not appear",
        ),
        (
            r#"{"type":"batch","pairs":[[0,1],[2,77]]}"#,
            "unknown_vertex",
            "vertex 77 does not appear",
        ),
        (
            r#"{"type":"top_k","source":0,"k":"three"}"#,
            "bad_field",
            "field `k`",
        ),
        (
            r#"{"type":"batch","pairs":7}"#,
            "bad_field",
            "field `pairs`",
        ),
        (
            r#"{"type":"batch","pairs":[[0,1,2]]}"#,
            "bad_field",
            "field `pairs[0]`",
        ),
        // Oversized batch (server cap is 8).
        (
            r#"{"type":"batch","pairs":[[0,1],[0,2],[0,3],[0,4],[1,2],[1,3],[1,4],[2,3],[2,4]]}"#,
            "oversized_batch",
            "maximum of 8",
        ),
        (
            r#"{"type":"update","updates":[[0,1,0.5]]}"#,
            "bad_field",
            "updates[0]",
        ),
        (
            r#"{"type":"update","updates":[{"op":"insert","source":0,"target":1,"probability":"p"}]}"#,
            "bad_field",
            "updates[0].probability",
        ),
        (
            r#"{"type":"update","updates":[{"op":"delete","source":0,"target":4}]}"#,
            "update_rejected",
            "arc (0, 4) does not exist",
        ),
        (
            r#"{"type":"update","updates":[{"op":"insert","source":0,"target":1,"probability":1.5}]}"#,
            "update_rejected",
            "probabilities must lie in (0, 1]",
        ),
        (
            r#"{"type":"stats","verbose":true}"#,
            "bad_field",
            "unknown field `verbose`",
        ),
    ];
    for (frame, code, fragment) in cases {
        let response = ask(&mut conn, &mut reader, frame);
        assert!(
            response.contains("\"ok\":false"),
            "{frame} should fail, got {response}"
        );
        assert!(
            response.contains(&format!("\"code\":\"{code}\"")),
            "{frame}: expected code {code}, got {response}"
        );
        assert!(
            response.contains(fragment),
            "{frame}: expected message fragment {fragment:?}, got {response}"
        );
    }

    // After the whole gauntlet the connection still answers — and, because
    // every hostile update above was rejected atomically, at epoch 0 with
    // pristine scores.
    let response = ask(
        &mut conn,
        &mut reader,
        r#"{"type":"similarity","source":0,"target":1}"#,
    );
    let expected = QueryEngine::new(&fig1_graph(), config()).similarity(0, 1);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"epoch\":0"), "{response}");
    assert!(
        response.contains(&format!("\"score\":{expected}")),
        "{response} vs {expected}"
    );
    drop((conn, reader));
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.errors, cases.len() as u64);
    assert_eq!(stats.frames, cases.len() as u64 + 1);
}

#[test]
fn interleaved_updates_and_queries_stay_epoch_consistent() {
    let handle = spawn(3);
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    // A second observer connection sees the same epochs and scores.
    let mut observer = TcpStream::connect(handle.addr()).unwrap();
    let mut observer_reader = BufReader::new(observer.try_clone().unwrap());

    // Reference: a local engine applying the same rounds.
    let mut reference = QueryEngine::new(&fig1_graph(), config());
    let rounds: Vec<Vec<GraphUpdate>> = vec![
        vec![GraphUpdate::SetProbability {
            source: 0,
            target: 2,
            probability: 0.2,
        }],
        vec![
            GraphUpdate::DeleteArc {
                source: 3,
                target: 4,
            },
            GraphUpdate::InsertArc {
                source: 4,
                target: 0,
                probability: 0.7,
            },
        ],
        vec![GraphUpdate::SetProbability {
            source: 1,
            target: 0,
            probability: 0.95,
        }],
    ];
    let wire_rounds = [
        r#"{"type":"update","updates":[{"op":"set","source":0,"target":2,"probability":0.2}]}"#,
        r#"{"type":"update","updates":[{"op":"delete","source":3,"target":4},{"op":"insert","source":4,"target":0,"probability":0.7}]}"#,
        r#"{"type":"update","updates":[{"op":"set","source":1,"target":0,"probability":0.95}]}"#,
    ];

    for (round, (updates, frame)) in rounds.iter().zip(&wire_rounds).enumerate() {
        let epoch = round as u64 + 1;
        let response = ask(&mut conn, &mut reader, frame);
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(
            response.contains(&format!("\"epoch\":{epoch}")),
            "round {round}: {response}"
        );
        reference.apply_updates(updates).unwrap();

        // The updating connection and the observer both see the new epoch
        // and scores bit-identical to the reference engine.
        let expected = reference.similarity(0, 1);
        for (c, r) in [
            (&mut conn, &mut reader),
            (&mut observer, &mut observer_reader),
        ] {
            let response = ask(c, r, r#"{"type":"similarity","source":0,"target":1}"#);
            assert!(
                response.contains(&format!("\"epoch\":{epoch}")),
                "round {round}: {response}"
            );
            assert!(
                response.contains(&format!("\"score\":{expected}")),
                "round {round}: {response} vs {expected}"
            );
        }
    }

    // A stats frame agrees on the final shape.
    let response = ask(&mut conn, &mut reader, r#"{"type":"stats"}"#);
    assert!(response.contains("\"epoch\":3"), "{response}");
    assert!(
        response.contains(&format!("\"arcs\":{}", reference.num_arcs())),
        "{response}"
    );
    drop((conn, reader, observer, observer_reader));
    handle.shutdown().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let handle = spawn(2);
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // Write a burst of frames before reading anything; the line protocol
    // guarantees responses come back in request order.
    let frames = [
        r#"{"type":"similarity","source":0,"target":1}"#,
        r#"{"type":"similarity","source":1,"target":2}"#,
        "garbage",
        r#"{"type":"similarity","source":2,"target":3}"#,
    ];
    for frame in frames {
        writeln!(conn, "{frame}").unwrap();
    }
    let engine = QueryEngine::new(&fig1_graph(), config());
    let expected = [
        Some(engine.similarity(0, 1)),
        Some(engine.similarity(1, 2)),
        None,
        Some(engine.similarity(2, 3)),
    ];
    for (frame, want) in frames.iter().zip(expected) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match want {
            Some(score) => assert!(
                line.contains(&format!("\"score\":{score}")),
                "{frame}: {line}"
            ),
            None => assert!(line.contains("malformed_frame"), "{frame}: {line}"),
        }
    }
    drop((conn, reader));
    handle.shutdown().unwrap();
}
