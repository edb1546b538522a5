//! `usim serve` — a long-lived query server over one graph.
//!
//! ```text
//! usim serve GRAPH [--addr 127.0.0.1:7878] [--workers 4] [--max-batch 65536]
//!            [--max-connections 0] [--port-file PATH]
//!            [--cache-capacity 0] [--update-log PATH]
//!            [--trace-sample-rate 0] [--slow-log 32]
//!            [--metrics-port P] [--metrics-port-file PATH]
//!            [SimRank options]
//! usim serve --snapshot PATH [same options]
//! ```
//!
//! The graph is loaded into the query engine **once**; clients
//! then speak the line-delimited JSON protocol of [`usim_server`] (one
//! request per line — `similarity`, `profile`, `top_k`, `batch`, `update`,
//! `stats` — one response per line; full reference in `docs/PROTOCOL.md`).
//! Vertices are addressed by the graph file's original labels, exactly like
//! every other subcommand, and answers are bit-identical to the equivalent
//! batch-engine CLI invocations (`usim simrank --batch`, `usim topk
//! --engine batch`) on the same graph and seed, at any worker count.
//!
//! The graph is given as the positional path or as `--snapshot PATH` (the
//! same thing under the name deploy scripts use).  A file that starts with
//! the CSR snapshot magic (`usim convert GRAPH OUT.usim`, or any `.usim` /
//! `.bin` output) boots as-is — the checksummed arrays are loaded without
//! parsing, sorting or per-edge validation, so restart latency is O(bytes
//! read), not O(edges processed) — and the banner reports `source =
//! snapshot`.  Any other file is parsed as a text edge list (`source =
//! text`).  The snapshot carries the label table, so clients keep speaking
//! the original file's labels.
//!
//! `--update-log PATH` makes `update` frames durable: every accepted batch
//! is appended (and synced) to the log before its response goes out, and at
//! boot any rounds already in the log are replayed in order — a restarted
//! server resumes at the exact epoch it died at, serving byte-identical
//! answers.  Pair it with `--snapshot` for the full
//! snapshot + replay boot path.
//!
//! `--addr 127.0.0.1:0` binds a free port; `--port-file PATH` writes the
//! actual bound address (one `host:port` line) after binding, which is how
//! scripts and tests rendezvous without racing on a fixed port — the file
//! is removed again on clean shutdown, so a lingering port file always
//! points at a live (or crashed) server, never a finished one.
//! `--workers N` serves up to N connections at once, one thread each, and
//! is the server's only parallelism knob: each frame is computed on its
//! connection's thread, so a large `batch` frame uses one core.  Further
//! connections wait in the kernel's accept backlog until one closes.
//! `--max-batch N` caps the pairs, candidates or updates of one request,
//! and with them the request line: a line longer than `N × 256 + 4096`
//! bytes is discarded unbuffered and answered `oversized_frame`.
//! `--max-connections N` stops after serving N connections (`0`, the
//! default, serves forever) — the scripted-shutdown hook used by the
//! serve-smoke CI job.
//!
//! `--cache-capacity N` puts an epoch-validated result cache (bounded to N
//! entries, see `usim_cache`) in front of the engine: hot pairs are served
//! without re-sampling, answers stay bit-identical, and the `stats` frame
//! reports hit/miss/stale/eviction counters.  The same N also bounds the
//! walk-set memo (N per-vertex walk sets and N × 4 KiB of two-hop rows,
//! cleared by every update), whose entries, bytes, hits and misses the
//! `stats` frame reports too.  `0` (the default) disables both.
//!
//! `--trace-sample-rate R` (0 < R ≤ 1) turns on per-request stage tracing:
//! every ⌈1/R⌉-th request gets a trace id and per-stage wall-clock timings
//! (parse → queue-wait → cache-lookup → walk-sample → merge →
//! serialize), feeding the per-stage histograms in the `stats` frame and a bounded slow-query log (`--slow-log N` keeps
//! the N slowest traced requests, served by the `slow_queries` frame).
//! Tracing never changes answers — instrumentation only reads clocks —
//! so responses stay byte-identical at any sample rate.  `0` (the
//! default) disables tracing entirely: no clock reads on the hot path.
//!
//! `--metrics-port P` binds a second plaintext HTTP listener (on the same
//! interface as `--addr`; `0` picks a free port) answering every request
//! with the Prometheus text exposition — the same body the `metrics`
//! frame returns.  `--metrics-port-file PATH` writes the exporter's bound
//! address, mirroring `--port-file`.  Either tracing or a metrics port
//! also enables the process-wide walk metrics (walks, steps, meetings,
//! overlay row reads, …).
//!
//! Because serving blocks, the startup banner is printed (and flushed)
//! directly to stdout when the listener is ready, not returned like other
//! commands' output; the returned string is the final serving summary.

use crate::args::{ArgSpec, Arguments};
use crate::estimators::{config_from_args, reject_unread_options, OptionReader, CONFIG_OPTIONS};
use crate::graphio::{is_snapshot, load_graph};
use crate::CliError;
use std::io::Write;
use ugraph::snapshot::read_snapshot_file;
use ugraph::UpdateLog;
use usim_core::QueryEngine;
use usim_server::{MetricsExporter, RequestHandler, Server, ServerOptions, DEFAULT_MAX_BATCH};

const BASE_OPTIONS: &[&str] = &[
    "addr",
    "workers",
    "max-batch",
    "max-connections",
    "port-file",
    "cache-capacity",
    "snapshot",
    "update-log",
    "trace-sample-rate",
    "slow-log",
    "metrics-port",
    "metrics-port-file",
];

fn spec() -> ArgSpec<'static> {
    static ALL: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let options = ALL.get_or_init(|| {
        let mut all = BASE_OPTIONS.to_vec();
        all.extend_from_slice(CONFIG_OPTIONS);
        all
    });
    ArgSpec {
        options,
        switches: &[],
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    let config = config_from_args(&args)?;
    reject_unread_options(&args, OptionReader::Engine)?;
    let addr: String = args.option("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers: usize = args.parse_option("workers", 4usize)?;
    let max_batch: usize = args.parse_option("max-batch", DEFAULT_MAX_BATCH)?;
    let max_connections: usize = args.parse_option("max-connections", 0usize)?;
    let cache_capacity: usize = args.parse_option("cache-capacity", 0usize)?;
    let trace_sample_rate: f64 = args.parse_option("trace-sample-rate", 0.0f64)?;
    let slow_log: usize = args.parse_option("slow-log", 32usize)?;
    let metrics_port: Option<u16> = match args.option("metrics-port") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError::new(format!("--metrics-port: invalid port '{raw}'")))?,
        ),
        None => None,
    };
    if !(0.0..=1.0).contains(&trace_sample_rate) {
        return Err(CliError::new("--trace-sample-rate must be in [0, 1]"));
    }
    if workers == 0 {
        return Err(CliError::new("--workers must be at least 1"));
    }
    if max_batch == 0 {
        return Err(CliError::new("--max-batch must be at least 1"));
    }

    // Graph source: a snapshot (O(bytes) boot, labels included, per-arc
    // invariants trusted to its checksum) or a text file parsed here
    // (O(edges) boot).
    let path = match (args.positional(0), args.option("snapshot")) {
        (Some(_), Some(_)) => {
            return Err(CliError::new(
                "give either a graph file or --snapshot, not both",
            ))
        }
        (Some(path), None) | (None, Some(path)) => path,
        (None, None) => args.require_positional(0, "the graph file (or --snapshot)")?,
    };
    let (source, graph, labels) = if is_snapshot(path)? {
        let snapshot =
            read_snapshot_file(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        let labels = snapshot.labels_or_identity();
        ("snapshot", snapshot.graph, labels)
    } else {
        let loaded = load_graph(path)?;
        let labels = loaded.labels().to_vec();
        ("text", loaded.graph, labels)
    };
    let engine = QueryEngine::from_csr(graph, config);

    // Durable update log: replay whatever is already there (epoch catch-up
    // after a crash or restart), then append every new accepted batch.
    let mut handler = RequestHandler::with_cache(engine, labels, max_batch, cache_capacity);
    if trace_sample_rate > 0.0 {
        handler = handler.with_tracing(trace_sample_rate, slow_log);
    }
    if trace_sample_rate > 0.0 || metrics_port.is_some() {
        handler = handler.with_walk_metrics();
    }
    let mut replayed = 0u64;
    if let Some(log_path) = args.option("update-log") {
        let (log, rounds) =
            UpdateLog::open(log_path).map_err(|e| CliError::new(format!("{log_path}: {e}")))?;
        for (index, round) in rounds.iter().enumerate() {
            handler.cached_engine().apply_updates(round).map_err(|e| {
                CliError::new(format!(
                    "{log_path}: round {index} does not apply to this graph \
                     (wrong graph for this log?): {e}"
                ))
            })?;
        }
        replayed = rounds.len() as u64;
        handler = handler.with_update_log(log);
    }
    let (num_vertices, num_arcs) = handler
        .cached_engine()
        .with_read(|e| (e.num_vertices(), e.num_arcs()));
    let options = ServerOptions {
        workers,
        max_connections: (max_connections > 0).then_some(max_connections),
    };
    let server = Server::bind(&addr, handler, options)
        .map_err(|e| CliError::new(format!("cannot bind {addr}: {e}")))?;
    let bound = server.local_addr();

    // The metrics exporter shares the query listener's interface; port 0
    // picks a free one, published through --metrics-port-file.
    let exporter = match metrics_port {
        Some(port) => {
            let metrics_addr = format!("{}:{}", bound.ip(), port);
            let exporter = MetricsExporter::bind(&metrics_addr, server.handler())
                .map_err(|e| CliError::new(format!("cannot bind metrics {metrics_addr}: {e}")))?;
            if let Some(path) = args.option("metrics-port-file") {
                std::fs::write(path, format!("{}\n", exporter.local_addr())).map_err(|e| {
                    CliError::new(format!("cannot write metrics port file {path}: {e}"))
                })?;
            }
            Some(exporter.spawn())
        }
        None => None,
    };

    if let Some(port_file) = args.option("port-file") {
        std::fs::write(port_file, format!("{bound}\n"))
            .map_err(|e| CliError::new(format!("cannot write port file {port_file}: {e}")))?;
    }
    println!(
        "serving {path} on {bound}: {num_vertices} vertices, {num_arcs} arcs \
         (source = {source}, epoch = {replayed}, workers = {workers}, max batch = {max_batch}, \
         cache = {}, trace = {}, metrics = {}, \
         sampler = {}, N = {}, n = {}, seed = {})",
        if cache_capacity > 0 {
            format!("{cache_capacity} entries")
        } else {
            "off".to_string()
        },
        if trace_sample_rate > 0.0 {
            format!("{trace_sample_rate}/slow {slow_log}")
        } else {
            "off".to_string()
        },
        match &exporter {
            Some(running) => running.addr().to_string(),
            None => "off".to_string(),
        },
        config.sampler,
        config.num_samples,
        config.horizon,
        config.seed,
    );
    let _ = std::io::stdout().flush();

    let stats = server
        .run()
        .map_err(|e| CliError::new(format!("server error: {e}")))?;
    if let Some(running) = exporter {
        running.shutdown();
    }
    // Clean shutdown: the rendezvous files must not outlive the server they
    // point at (a stale file would send the next script to a dead — or
    // worse, someone else's — port).
    if let Some(port_file) = args.option("port-file") {
        let _ = std::fs::remove_file(port_file);
    }
    if let Some(path) = args.option("metrics-port-file") {
        let _ = std::fs::remove_file(path);
    }
    Ok(format!(
        "served {} connections, {} frames ({} errors)\n",
        stats.connections, stats.frames, stats.errors
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "usim_cli_serve_{}_{}_{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    /// Waits until the server behind `path` (a port file) has bound, and
    /// returns its `host:port`.
    fn wait_for_addr(path: &std::path::Path) -> String {
        loop {
            if let Ok(text) = std::fs::read_to_string(path) {
                if text.trim().contains(':') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    /// Connects to `addr` and returns a closure that sends one frame and
    /// reads its reply; dropping it closes the connection.
    fn client(addr: &str) -> impl FnMut(&str) -> String {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        move |frame| {
            writeln!(conn, "{frame}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        }
    }

    #[test]
    fn rejects_bad_options_before_binding() {
        let graph_path = temp("g.tsv");
        std::fs::write(&graph_path, "0 1 0.5\n").unwrap();
        let g = graph_path.to_str().unwrap();
        assert!(run(&tokens(&[])).is_err());
        let err = run(&tokens(&[g, "--workers", "0"])).unwrap_err();
        assert!(err.to_string().contains("--workers"), "{err}");
        let err = run(&tokens(&[g, "--max-batch", "0"])).unwrap_err();
        assert!(err.to_string().contains("--max-batch"), "{err}");
        let err = run(&tokens(&[g, "--queue", "8"])).unwrap_err();
        assert!(err.to_string().contains("--queue"), "{err}");
        let err = run(&tokens(&[g, "--addr", "999.999.999.999:1"])).unwrap_err();
        assert!(err.to_string().contains("cannot bind"), "{err}");
        std::fs::remove_file(&graph_path).unwrap();
    }

    #[test]
    fn serves_until_the_connection_budget_is_spent() {
        let graph_path = temp("budget.tsv");
        std::fs::write(&graph_path, "0 2 0.8\n1 2 0.9\n2 0 0.7\n").unwrap();
        let port_file = temp("budget.port");
        let port_file_str = port_file.to_str().unwrap().to_string();
        let graph_str = graph_path.to_str().unwrap().to_string();
        let runner = std::thread::spawn(move || {
            run(&tokens(&[
                &graph_str,
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                &port_file_str,
                "--workers",
                "2",
                "--max-connections",
                "1",
                "--samples",
                "50",
            ]))
        });
        // Rendezvous through the port file.
        let line = client(&wait_for_addr(&port_file))(r#"{"type":"stats"}"#);
        assert!(line.contains("\"vertices\":3"), "{line}");

        let summary = runner.join().unwrap().unwrap();
        assert!(summary.contains("served 1 connections"), "{summary}");
        assert!(
            !port_file.exists(),
            "clean shutdown must remove the port file"
        );
        std::fs::remove_file(&graph_path).unwrap();
    }

    #[test]
    fn snapshot_boot_with_replay_serves_identical_answers() {
        // Text graph -> snapshot; serve the snapshot with an update log,
        // apply an update, "crash", restart, and check the
        // restarted server replays to the same epoch and serves the same
        // bytes as the first life did after its update.
        let graph_path = temp("snap.tsv");
        std::fs::write(
            &graph_path,
            "10 20 0.8\n10 30 0.5\n20 10 0.8\n20 30 0.9\n30 10 0.7\n30 40 0.6\n40 20 0.8\n",
        )
        .unwrap();
        let snap_path = temp("snap.usim");
        let log_path = temp("snap.ulog");
        let _ = std::fs::remove_file(&log_path);
        crate::run(&tokens(&[
            "convert",
            graph_path.to_str().unwrap(),
            snap_path.to_str().unwrap(),
        ]))
        .unwrap();

        let serve_once = |tag: &str| -> (String, Vec<String>) {
            let port_file = temp(&format!("snap.{tag}.port"));
            let snap = snap_path.to_str().unwrap().to_string();
            let log = log_path.to_str().unwrap().to_string();
            let pf = port_file.to_str().unwrap().to_string();
            let runner = std::thread::spawn(move || {
                run(&tokens(&[
                    "--snapshot",
                    &snap,
                    "--update-log",
                    &log,
                    "--addr",
                    "127.0.0.1:0",
                    "--port-file",
                    &pf,
                    "--max-connections",
                    "1",
                    "--samples",
                    "60",
                ]))
            });
            let mut ask = client(&wait_for_addr(&port_file));
            let mut answers = Vec::new();
            if tag == "first" {
                // Round 1: one accepted update batch, logged durably.
                let update = ask(
                    r#"{"type":"update","updates":[{"op":"set","source":10,"target":20,"probability":0.05}]}"#,
                );
                assert!(update.contains("\"epoch\":1"), "{update}");
            }
            answers.push(ask(r#"{"type":"similarity","source":10,"target":20}"#));
            answers.push(ask(r#"{"type":"batch","pairs":[[10,40],[20,30],[30,10]]}"#));
            answers.push(ask(r#"{"type":"top_k","source":20,"k":3}"#));
            let stats = ask(r#"{"type":"stats"}"#);
            drop(ask);
            runner.join().unwrap().unwrap();
            (stats, answers)
        };

        let (stats_first, answers_first) = serve_once("first");
        assert!(stats_first.contains("\"epoch\":1"), "{stats_first}");
        // Second life: same snapshot, log now holds round 1 -> replayed.
        let (stats_second, answers_second) = serve_once("second");
        assert!(stats_second.contains("\"epoch\":1"), "{stats_second}");
        assert_eq!(
            answers_first, answers_second,
            "a replayed restart must serve byte-identical answers"
        );

        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&snap_path).unwrap();
        std::fs::remove_file(&log_path).unwrap();
    }

    #[test]
    fn cached_serve_round_trips_hot_pairs() {
        let graph_path = temp("cached.tsv");
        std::fs::write(&graph_path, "0 2 0.8\n1 2 0.9\n2 0 0.7\n").unwrap();
        let port_file = temp("cached.port");
        let port_file_str = port_file.to_str().unwrap().to_string();
        let graph_str = graph_path.to_str().unwrap().to_string();
        let runner = std::thread::spawn(move || {
            run(&tokens(&[
                &graph_str,
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                &port_file_str,
                "--max-connections",
                "1",
                "--cache-capacity",
                "128",
                "--samples",
                "50",
            ]))
        });
        let mut ask = client(&wait_for_addr(&port_file));
        // Same batch twice: the repeat is served from the cache and must be
        // byte-identical on the wire.
        let first = ask(r#"{"type":"batch","pairs":[[0,1],[1,2]]}"#);
        let second = ask(r#"{"type":"batch","pairs":[[0,1],[1,2]]}"#);
        assert_eq!(first, second);
        let stats = ask(r#"{"type":"stats"}"#);
        assert!(stats.contains("\"enabled\":true"), "{stats}");
        assert!(stats.contains("\"hits\":2"), "{stats}");
        drop(ask);
        runner.join().unwrap().unwrap();
        std::fs::remove_file(&graph_path).unwrap();
    }

    #[test]
    fn traced_serve_exposes_stages_exporter_and_stats_view() {
        use std::io::Read;

        let graph_path = temp("traced.tsv");
        std::fs::write(&graph_path, "0 2 0.8\n1 2 0.9\n2 0 0.7\n").unwrap();
        let port_file = temp("traced.port");
        let metrics_port_file = temp("traced.mport");
        let port_file_str = port_file.to_str().unwrap().to_string();
        let metrics_port_file_str = metrics_port_file.to_str().unwrap().to_string();
        let graph_str = graph_path.to_str().unwrap().to_string();
        let runner = std::thread::spawn(move || {
            run(&tokens(&[
                &graph_str,
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                &port_file_str,
                "--max-connections",
                "2",
                "--trace-sample-rate",
                "1",
                "--slow-log",
                "8",
                "--metrics-port",
                "0",
                "--metrics-port-file",
                &metrics_port_file_str,
                "--samples",
                "50",
            ]))
        });
        let addr = wait_for_addr(&port_file);
        let metrics_addr = wait_for_addr(&metrics_port_file);

        // Connection 1: traced query traffic.
        let mut ask = client(&addr);
        let first = ask(r#"{"type":"similarity","source":0,"target":1}"#);
        let _ = ask(r#"{"type":"batch","pairs":[[0,1],[1,2]]}"#);
        assert!(first.contains("\"score\""), "{first}");
        drop(ask);

        // The exporter answers plain HTTP scrapes with the exposition.
        let mut scrape = std::net::TcpStream::connect(&metrics_addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut exposition = String::new();
        scrape.read_to_string(&mut exposition).unwrap();
        assert!(
            exposition.contains("usim_requests_total{kind=\"similarity\"} 1"),
            "{exposition}"
        );
        assert!(exposition.contains("usim_walks_total"), "{exposition}");
        assert!(
            exposition.contains("usim_stage_duration_seconds_bucket{stage=\"walk_sample\""),
            "{exposition}"
        );

        // Connection 2: the `usim stats --server` live view.
        let view = crate::run(&tokens(&["stats", "--server", &addr])).unwrap();
        assert!(view.contains("epoch 0, 3 vertices"), "{view}");
        assert!(view.contains("tracing: every 1th request"), "{view}");
        assert!(view.contains("walk_sample"), "{view}");
        assert!(view.contains("slowest traced requests:"), "{view}");

        runner.join().unwrap().unwrap();
        assert!(
            !metrics_port_file.exists(),
            "metrics port file must be removed"
        );
        std::fs::remove_file(&graph_path).unwrap();
    }
}
