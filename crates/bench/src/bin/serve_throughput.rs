//! `serve_throughput` — the CI perf-tracking gate for the query server.
//!
//! Measures the wire tax: the same pair batch is answered once directly on
//! a local [`QueryEngine`] and once through a full in-process
//! [`usim_server::Server`] round trip (TCP + line-delimited JSON + the
//! shared engine's read lock), with several client connections driving
//! `batch` frames concurrently.  The served path runs with **request
//! coalescing** on (window `USIM_BENCH_COALESCE_US`, cap = client count):
//! concurrent identical batches collapse into one engine dispatch through
//! the intra-batch-dedup path, which is exactly the deployment the
//! `--coalesce-window` serve flag enables.  The run writes a
//! `BENCH_serve_throughput.json` artifact and exits non-zero when either
//!
//! * the **serve ratio** — served throughput divided by same-run direct
//!   throughput — regresses more than 2x against the checked-in baseline, or
//! * the **p99 ratio** — client-observed p99 round-trip latency divided by
//!   the same-run direct per-batch time — regresses more than 2x against
//!   the baseline.
//!
//! Like `bench_smoke` and `update_churn`, both gates compare same-run
//! ratios, not absolute times, so they are machine-speed independent: the
//! ratios isolate protocol + transport + locking overhead from the cost of
//! the walks themselves.
//!
//! The run also asserts the serving correctness contract (every score
//! crossing the wire is bit-identical to the direct engine answer — floats
//! are serialised in shortest round-trip form) and the observability
//! contract (the server's latency histogram counted exactly one sample per
//! served frame, and the coalescer's flush counters add up to its batch
//! count).
//!
//! Environment:
//! * `USIM_BENCH_PAIRS`       — query pairs per client pass (default 192)
//! * `USIM_BENCH_SAMPLES`     — walk samples per query (default 20)
//! * `USIM_BENCH_CLIENTS`     — concurrent client connections (default 3)
//! * `USIM_BENCH_PASSES`      — batch passes per client (default 4)
//! * `USIM_BENCH_COALESCE_US` — coalescing window in µs (default 1500)
//! * `USIM_BENCH_OUT`         — artifact path (default `BENCH_serve_throughput.json`)
//! * `USIM_BENCH_BASELINE`    — baseline path (default
//!   `crates/bench/baselines/serve_throughput.json`)

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;
use ugraph::VertexId;
use usim_bench::random_pairs;
use usim_core::{QueryEngine, SimRankConfig};
use usim_datasets::RmatGenerator;
use usim_server::{CoalesceOptions, RequestHandler, Server, ServerOptions};

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ServeReport {
    /// Query pairs per batch frame pass.
    pairs: usize,
    /// Walk samples per query.
    samples: usize,
    /// Server worker threads.
    workers: usize,
    /// Concurrent client connections.
    clients: usize,
    /// Batch passes per client.
    passes: usize,
    /// Coalescing window (µs) the served path ran with.
    coalesce_window_us: u64,
    /// Direct in-process batch throughput, pairs per second.
    direct_pairs_per_sec: f64,
    /// Throughput through the TCP + JSON server path, pairs per second.
    served_pairs_per_sec: f64,
    /// `served_pairs_per_sec / direct_pairs_per_sec` — the first gate.
    serve_ratio: f64,
    /// Client-observed round-trip latency percentiles, µs.
    p50_us: f64,
    /// 90th percentile, µs.
    p90_us: f64,
    /// 99th percentile, µs.
    p99_us: f64,
    /// `p99_us / (direct µs per batch pass)` — the second gate: how many
    /// direct-batch-times the slowest served round trips cost.
    p99_ratio: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Formats a pairs batch as one `batch` request frame in wire labels
/// (the R-MAT graph is compact, so labels == vertex ids).
fn batch_frame(pairs: &[(VertexId, VertexId)]) -> String {
    let mut frame = String::from(r#"{"type":"batch","pairs":["#);
    for (i, (u, v)) in pairs.iter().enumerate() {
        if i > 0 {
            frame.push(',');
        }
        frame.push_str(&format!("[{u},{v}]"));
    }
    frame.push_str("]}");
    frame
}

/// Extracts the `"scores":[…]` array of a batch response line.
fn parse_scores(line: &str) -> Vec<f64> {
    let start = line.find("\"scores\":[").expect("batch response") + "\"scores\":[".len();
    let end = start + line[start..].find(']').expect("closing bracket");
    line[start..end]
        .split(',')
        .map(|s| s.parse().expect("a JSON float"))
        .collect()
}

/// Extracts the first `"key":<digits>` value after `from` in a JSON line
/// (enough structure awareness for the stats assertions below).
fn extract_u64(line: &str, from: usize, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let start = from
        + line[from..]
            .find(&pattern)
            .unwrap_or_else(|| panic!("{key} in stats frame: {line}"))
        + pattern.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is numeric in: {line}"))
}

/// The exclusive-upper-rank percentile of a sorted latency sample, µs.
fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let pairs_count = env_usize("USIM_BENCH_PAIRS", 192);
    let samples = env_usize("USIM_BENCH_SAMPLES", 20);
    let clients = env_usize("USIM_BENCH_CLIENTS", 3).max(1);
    let passes = env_usize("USIM_BENCH_PASSES", 4);
    let coalesce_window_us = env_usize("USIM_BENCH_COALESCE_US", 1500) as u64;
    let out_path = std::env::var("USIM_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_serve_throughput.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE").unwrap_or_else(|_| {
        format!(
            "{}/baselines/serve_throughput.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });

    let graph = RmatGenerator::small(0xd13a).generate();
    let pairs = random_pairs(&graph, pairs_count, 0x5eed);
    let config = SimRankConfig::default().with_samples(samples).with_seed(42);
    // Every client needs a live worker for coalescing to collect across
    // connections — a queued connection cannot join a batch.
    let workers = rayon::current_num_threads().max(clients).max(2);

    // Direct throughput: the same batch on a local engine (warm arenas).
    let direct = QueryEngine::new(&graph, config);
    let warm = direct.batch_similarities(&pairs).expect("ids in range");
    std::hint::black_box(warm.len());
    let start = Instant::now();
    let mut direct_scores = Vec::new();
    for _ in 0..passes {
        direct_scores = direct.batch_similarities(&pairs).expect("ids in range");
    }
    let direct_secs = start.elapsed().as_secs_f64();
    let direct_pairs_per_sec = (passes * pairs.len()) as f64 / direct_secs;
    let direct_batch_us = 1e6 * direct_secs / passes.max(1) as f64;

    // Served throughput: the identical batch through the full TCP + JSON
    // path, `clients` concurrent connections each driving `passes` frames,
    // coalesced across connections exactly like `usim serve
    // --coalesce-window` runs in production.
    let handler = RequestHandler::new(
        QueryEngine::new(&graph, config),
        (0..graph.num_vertices() as u64).collect(),
        usize::MAX >> 1,
    )
    .with_coalescing(CoalesceOptions {
        window: std::time::Duration::from_micros(coalesce_window_us),
        cap: clients,
    });
    let handle = Server::bind(
        "127.0.0.1:0",
        handler,
        ServerOptions {
            workers,
            queue_depth: clients,
            max_connections: None,
        },
    )
    .expect("bind loopback")
    .spawn();
    let frame = batch_frame(&pairs);

    let start = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..clients {
        let frame = frame.clone();
        let addr = handle.addr();
        let expected = direct_scores.clone();
        joins.push(std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_nodelay(true).expect("nodelay");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut latencies_us = Vec::with_capacity(passes);
            for _ in 0..passes {
                let sent = Instant::now();
                writeln!(conn, "{frame}").expect("write frame");
                let mut line = String::new();
                reader.read_line(&mut line).expect("read response");
                latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                // Correctness contract: the wire is bit-exact.
                assert_eq!(
                    parse_scores(&line),
                    expected,
                    "served scores diverged from the direct engine"
                );
            }
            latencies_us
        }));
    }
    let mut latencies_us = Vec::with_capacity(clients * passes);
    for join in joins {
        latencies_us.extend(join.join().expect("client thread"));
    }
    let served_secs = start.elapsed().as_secs_f64();
    let served_pairs = clients * passes * pairs.len();
    let served_pairs_per_sec = served_pairs as f64 / served_secs;

    // Observability contract: every served frame recorded one latency
    // sample (each sample lands before its reply is written, so the count
    // is exact once the clients have read their replies), and the
    // coalescer's flush counters add up.
    let mut probe = TcpStream::connect(handle.addr()).expect("stats probe");
    probe.set_nodelay(true).expect("nodelay");
    let mut probe_reader = BufReader::new(probe.try_clone().expect("clone"));
    writeln!(probe, r#"{{"type":"stats"}}"#).expect("write stats");
    let mut stats_line = String::new();
    probe_reader.read_line(&mut stats_line).expect("read stats");
    drop((probe, probe_reader));
    let latency_at = stats_line.find("\"latency\":").expect("latency section");
    let recorded = extract_u64(&stats_line, latency_at, "count");
    assert_eq!(
        recorded,
        (clients * passes) as u64,
        "histogram count != served frames: {stats_line}"
    );
    let coalescer_at = stats_line
        .find("\"coalescer\":")
        .expect("coalescer section");
    let coalesced_requests = extract_u64(&stats_line, coalescer_at, "requests");
    let batches = extract_u64(&stats_line, coalescer_at, "batches");
    let window_flushes = extract_u64(&stats_line, coalescer_at, "window_flushes");
    let cap_flushes = extract_u64(&stats_line, coalescer_at, "cap_flushes");
    assert_eq!(
        coalesced_requests,
        (clients * passes) as u64,
        "every batch frame went through the coalescer: {stats_line}"
    );
    assert_eq!(
        window_flushes + cap_flushes,
        batches,
        "flush counters add up: {stats_line}"
    );

    let stats = handle.shutdown().expect("clean shutdown");
    assert_eq!(stats.errors, 0, "no error frames in a clean run");
    println!(
        "serve_throughput: served == direct engine (bit-identical scores, \
         {} frames over {} connections; {} coalesced batches, mean occupancy {:.2}, \
         {} window / {} cap flushes)",
        stats.frames,
        stats.connections,
        batches,
        coalesced_requests as f64 / batches.max(1) as f64,
        window_flushes,
        cap_flushes,
    );

    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99_us = percentile_us(&latencies_us, 0.99);
    let report = ServeReport {
        pairs: pairs.len(),
        samples,
        workers,
        clients,
        passes,
        coalesce_window_us,
        direct_pairs_per_sec,
        served_pairs_per_sec,
        serve_ratio: served_pairs_per_sec / direct_pairs_per_sec,
        p50_us: percentile_us(&latencies_us, 0.50),
        p90_us: percentile_us(&latencies_us, 0.90),
        p99_us,
        p99_ratio: p99_us / direct_batch_us,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("serve_throughput: {json}");
    println!("serve_throughput: artifact written to {out_path}");

    // Gate against the checked-in baseline.
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "serve_throughput: WARNING: no baseline at {baseline_path} ({e}); gate skipped"
            );
            return;
        }
    };
    let baseline: ServeReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as ServeReport");
    let floor = baseline.serve_ratio / 2.0;
    let p99_ceiling = baseline.p99_ratio * 2.0;
    println!(
        "serve_throughput: serve ratio {:.3} (baseline {:.3} -> floor {:.3}), \
         direct {:.0} pairs/sec, served {:.0} pairs/sec",
        report.serve_ratio,
        baseline.serve_ratio,
        floor,
        report.direct_pairs_per_sec,
        report.served_pairs_per_sec
    );
    println!(
        "serve_throughput: p50/p90/p99 = {:.0}/{:.0}/{:.0} µs, p99 ratio {:.3} \
         (baseline {:.3} -> ceiling {:.3})",
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.p99_ratio,
        baseline.p99_ratio,
        p99_ceiling
    );
    let mut failed = false;
    if report.serve_ratio < floor {
        eprintln!(
            "serve_throughput: FAIL: served throughput regressed more than 2x \
             versus the direct engine (ratio {:.3} < floor {:.3})",
            report.serve_ratio, floor
        );
        failed = true;
    }
    if report.p99_ratio > p99_ceiling {
        eprintln!(
            "serve_throughput: FAIL: p99 round-trip latency regressed more than 2x \
             versus the baseline (ratio {:.3} > ceiling {:.3})",
            report.p99_ratio, p99_ceiling
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("serve_throughput: OK");
}
