//! The serve acceptance contract: `usim serve` answers `similarity`,
//! `top_k`, `batch` and `update` frames with scores **bit-identical** to
//! the equivalent CLI invocations on the same graph file and RNG seed —
//! at 1 and at N worker threads — and the formatted CLI tables agree cell
//! for cell with the wire floats pushed through the same formatter.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use usim_cli::table::fmt_score;
use usim_server::ServerOptions;

const SAMPLES: &str = "180";
const SEED: &str = "23";

/// Fig. 1 graph under non-compact file labels (10, 20, 30, 40, 50).
const GRAPH: &str = "10 30 0.8\n10 40 0.5\n20 10 0.8\n20 30 0.9\n\
                     30 10 0.7\n30 40 0.6\n40 50 0.6\n40 20 0.8\n";
const PAIRS: &str = "10 20\n20 30\n30 40\n40 50\n";

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "usim_serve_equiv_{}_{}_{:?}",
        name,
        std::process::id(),
        std::thread::current().id()
    ))
}

fn cli(args: &[&str]) -> String {
    usim_cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

/// Extracts the score cells (last column) of a CLI table, skipping the
/// header block.
fn score_column(table: &str, rows: usize) -> Vec<String> {
    let cells: Vec<String> = table
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let last = fields.last()?;
            // Score cells look like 0.123456 — a digit, a dot, six digits.
            (last.contains('.') && last.chars().next().is_some_and(|c| c.is_ascii_digit()))
                .then(|| last.to_string())
        })
        .collect();
    assert_eq!(cells.len(), rows, "unexpected table shape:\n{table}");
    cells
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Client { conn, reader }
    }

    /// Sends one frame and parses the one-line response into map entries.
    fn ask(&mut self, frame: &str) -> Vec<(String, Value)> {
        writeln!(self.conn, "{frame}").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let value: Value = serde_json::from_str(line.trim()).unwrap();
        value.as_map().unwrap().to_vec()
    }
}

fn get<'a>(entries: &'a [(String, Value)], name: &str) -> &'a Value {
    entries
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
        .unwrap_or_else(|| panic!("missing field {name} in {entries:?}"))
}

fn float(value: &Value) -> f64 {
    match value {
        Value::Float(x) => *x,
        Value::Uint(n) => *n as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn floats(value: &Value) -> Vec<f64> {
    value.as_seq().unwrap().iter().map(float).collect()
}

#[test]
fn server_answers_are_bit_identical_to_the_cli_at_any_worker_count() {
    let graph_path = temp("g.tsv");
    std::fs::write(&graph_path, GRAPH).unwrap();
    let pairs_path = temp("pairs.txt");
    std::fs::write(&pairs_path, PAIRS).unwrap();
    let updates_path = temp("updates.txt");
    // One round: re-weight, delete, insert — mirrored below as a wire frame.
    std::fs::write(&updates_path, "= 10 30 0.1\n- 40 50\n+ 50 30 0.9\n").unwrap();
    let graph = graph_path.to_str().unwrap();

    // -- CLI ground truth, all through the public `usim` entry point -------
    let batch_table = cli(&[
        "simrank",
        graph,
        "--batch",
        pairs_path.to_str().unwrap(),
        "--samples",
        SAMPLES,
        "--seed",
        SEED,
    ]);
    let cli_batch = score_column(&batch_table, 4);

    let topk_table = cli(&[
        "topk",
        graph,
        "--engine",
        "batch",
        "--source",
        "20",
        "--k",
        "3",
        "--samples",
        SAMPLES,
        "--seed",
        SEED,
    ]);
    let cli_topk = score_column(&topk_table, 3);

    // Churn mode re-answers the batch after the update round: column s@r1.
    let churn_table = cli(&[
        "simrank",
        graph,
        "--batch",
        pairs_path.to_str().unwrap(),
        "--updates",
        updates_path.to_str().unwrap(),
        "--samples",
        SAMPLES,
        "--seed",
        SEED,
    ]);
    let cli_after_update = score_column(&churn_table, 4);

    // -- the same questions over the wire, at 1 and at 4 workers -----------
    for workers in [1usize, 4] {
        let loaded = usim_cli::graphio::load_graph(graph, None).unwrap();
        let config = usim_core::SimRankConfig::default()
            .with_samples(SAMPLES.parse().unwrap())
            .with_seed(SEED.parse().unwrap());
        let handler = usim_server::RequestHandler::new(
            usim_core::QueryEngine::new(&loaded.graph, config),
            loaded.labels,
            usim_server::DEFAULT_MAX_BATCH,
        );
        let handle = usim_server::Server::bind(
            "127.0.0.1:0",
            handler,
            ServerOptions {
                workers,
                queue_depth: 8,
                max_connections: None,
            },
        )
        .unwrap()
        .spawn();
        let mut client = Client::connect(handle.addr());

        // batch == `usim simrank --batch` (same pairs, same order).
        let response = client.ask(r#"{"type":"batch","pairs":[[10,20],[20,30],[30,40],[40,50]]}"#);
        assert_eq!(get(&response, "ok"), &Value::Bool(true));
        let wire_batch = floats(get(&response, "scores"));
        let formatted: Vec<String> = wire_batch.iter().map(|&s| fmt_score(s)).collect();
        assert_eq!(formatted, cli_batch, "workers = {workers}");

        // similarity frames == the batch's individual entries (the engine
        // contract: batch is bit-identical to sequential single pairs).
        let response = client.ask(r#"{"type":"similarity","source":10,"target":20}"#);
        assert_eq!(float(get(&response, "score")), wire_batch[0]);

        // top_k == `usim topk --engine batch` rank for rank.
        let response = client.ask(r#"{"type":"top_k","source":20,"k":3}"#);
        let results = get(&response, "results").as_seq().unwrap().to_vec();
        assert_eq!(results.len(), 3);
        let formatted: Vec<String> = results
            .iter()
            .map(|r| fmt_score(float(get(r.as_map().unwrap(), "score"))))
            .collect();
        assert_eq!(formatted, cli_topk, "workers = {workers}");

        // update frame == the CLI churn round, then the re-asked batch must
        // match the churn table's post-round column.
        let response = client.ask(
            r#"{"type":"update","updates":[
                {"op":"set","source":10,"target":30,"probability":0.1},
                {"op":"delete","source":40,"target":50},
                {"op":"insert","source":50,"target":30,"probability":0.9}]}"#
                .replace('\n', " ")
                .trim(),
        );
        assert_eq!(get(&response, "ok"), &Value::Bool(true), "{response:?}");
        assert_eq!(get(&response, "epoch"), &Value::Uint(1));
        let response = client.ask(r#"{"type":"batch","pairs":[[10,20],[20,30],[30,40],[40,50]]}"#);
        assert_eq!(get(&response, "epoch"), &Value::Uint(1));
        let formatted: Vec<String> = floats(get(&response, "scores"))
            .iter()
            .map(|&s| fmt_score(s))
            .collect();
        assert_eq!(formatted, cli_after_update, "workers = {workers}");

        drop(client);
        handle.shutdown().unwrap();
    }

    for p in [&graph_path, &pairs_path, &updates_path] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn wire_floats_survive_the_round_trip_exactly() {
    // The raw f64s behind the formatted tables: the wire must not lose a
    // single bit.  Ask the same server twice and a fresh engine once.
    let graph_path = temp("bits.tsv");
    std::fs::write(&graph_path, GRAPH).unwrap();
    let loaded = usim_cli::graphio::load_graph(graph_path.to_str().unwrap(), None).unwrap();
    let config = usim_core::SimRankConfig::default()
        .with_samples(170)
        .with_seed(99);
    let engine = usim_core::QueryEngine::new(&loaded.graph, config);
    // Labels are compacted in order of first appearance, so resolve them
    // through the same table the server speaks.
    let v = |label: u64| loaded.vertex_for_label(label).unwrap();
    let expected: Vec<f64> = vec![
        engine.similarity(v(10), v(20)),
        engine.similarity(v(20), v(30)),
        engine.similarity(v(30), v(40)),
    ];

    let handler = usim_server::RequestHandler::new(
        usim_core::QueryEngine::new(&loaded.graph, config),
        loaded.labels,
        usim_server::DEFAULT_MAX_BATCH,
    );
    let handle = usim_server::Server::bind(
        "127.0.0.1:0",
        handler,
        ServerOptions {
            workers: 2,
            queue_depth: 2,
            max_connections: None,
        },
    )
    .unwrap()
    .spawn();
    let mut client = Client::connect(handle.addr());
    for round in 0..2 {
        let response = client.ask(r#"{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}"#);
        assert_eq!(
            floats(get(&response, "scores")),
            expected,
            "round {round}: wire floats must be bit-exact"
        );
    }
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_file(&graph_path).unwrap();
}
