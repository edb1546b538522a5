//! `cache_throughput` — the CI perf-tracking gate for the result-cache
//! subsystem.
//!
//! Simulates the hot-pair serving workload `usim_cache` exists for: the
//! same batch of popular pairs is asked over and over through the
//! transport-free protocol path ([`usim_server::RequestHandler`], i.e.
//! everything the TCP loop does except sockets — JSON parsing, label
//! resolution, the shared engine's read lock, response serialisation), once
//! against an uncached handler and once against a handler with
//! `--cache-capacity` enabled.  The run writes a
//! `BENCH_cache_throughput.json` artifact and fails when
//!
//! * the **cache ratio** — cached hot-pair throughput divided by same-run
//!   uncached throughput — drops below the acceptance floor of **3x**, or
//! * it regresses more than 2x against the checked-in baseline
//!   (ratio-based like `bench_smoke` / `update_churn` /
//!   `serve_throughput`, so the gate is machine-speed independent).
//!
//! The run also asserts the subsystem's correctness contract on the wire:
//! every response line from the cached handler is **byte-identical** to the
//! uncached handler's — across repeat passes, and again after an update
//! round invalidates the cache by epoch.
//!
//! Environment:
//! * `USIM_BENCH_HOT_PAIRS` — distinct hot pairs per batch frame (default 48)
//! * `USIM_BENCH_SAMPLES`   — walk samples per query (default 120)
//! * `USIM_BENCH_PASSES`    — how often the hot batch is re-asked (default 8)
//! * `USIM_BENCH_CAPACITY`  — cache capacity in entries (default 4096)
//! * `USIM_BENCH_OUT`      — artifact path (default `BENCH_cache_throughput.json`)
//! * `USIM_BENCH_BASELINE` — baseline path (default
//!   `crates/bench/baselines/cache_throughput.json`)

use std::time::Instant;
use ugraph::VertexId;
use usim_bench::random_pairs;
use usim_core::{QueryEngine, SimRankConfig};
use usim_datasets::RmatGenerator;
use usim_server::{RequestHandler, DEFAULT_MAX_BATCH};

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct CacheReport {
    /// Distinct hot pairs per batch frame.
    hot_pairs: usize,
    /// Walk samples per query.
    samples: usize,
    /// How often the hot batch was re-asked.
    passes: usize,
    /// Cache capacity (entries).
    capacity: usize,
    /// Hot-pair throughput through the uncached protocol path, pairs/sec.
    uncached_pairs_per_sec: f64,
    /// Hot-pair throughput with the result cache enabled, pairs/sec.
    cached_pairs_per_sec: f64,
    /// `cached_pairs_per_sec / uncached_pairs_per_sec` — the gated number.
    cache_ratio: f64,
    /// Cache hits observed during the cached run.
    cache_hits: u64,
}

/// The acceptance floor: repeated-pair serve throughput must improve at
/// least this much with the cache on.
const HARD_FLOOR: f64 = 3.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Formats a pairs batch as one `batch` request frame (the R-MAT graph is
/// compact, so labels == vertex ids).
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

/// Drives `passes` identical batch frames through a handler, asserting each
/// response equals `expected[pass]` when given; returns the response lines
/// and the elapsed seconds.
fn drive(
    handler: &RequestHandler,
    frame: &str,
    passes: usize,
    expected: Option<&[String]>,
) -> (Vec<String>, f64) {
    let start = Instant::now();
    let mut responses = Vec::with_capacity(passes);
    for pass in 0..passes {
        let response = handler
            .handle_line(frame)
            .expect("batch frames always answer");
        assert!(!response.is_error, "clean run: {}", response.json);
        if let Some(expected) = expected {
            assert_eq!(
                response.json, expected[pass],
                "cached response diverged from uncached on pass {pass}"
            );
        }
        responses.push(response.json);
    }
    (responses, start.elapsed().as_secs_f64())
}

fn main() {
    let hot_pairs = env_usize("USIM_BENCH_HOT_PAIRS", 48);
    let samples = env_usize("USIM_BENCH_SAMPLES", 120);
    let passes = env_usize("USIM_BENCH_PASSES", 8);
    let capacity = env_usize("USIM_BENCH_CAPACITY", 4096);
    let out_path = std::env::var("USIM_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_cache_throughput.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE").unwrap_or_else(|_| {
        format!(
            "{}/baselines/cache_throughput.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });

    let graph = RmatGenerator::small(0xcac4e).generate();
    let pairs = random_pairs(&graph, hot_pairs, 0x40f);
    let config = SimRankConfig::default().with_samples(samples).with_seed(42);
    let labels: Vec<u64> = (0..graph.num_vertices() as u64).collect();
    let uncached = RequestHandler::new(
        QueryEngine::new(&graph, config),
        labels.clone(),
        DEFAULT_MAX_BATCH,
    );
    let cached = RequestHandler::with_cache(
        QueryEngine::new(&graph, config),
        labels,
        DEFAULT_MAX_BATCH,
        capacity,
    );
    let frame = batch_frame(&pairs);

    // Uncached: every pass pays the full sampling cost (each distinct pair
    // once — the engine deduplicates within a frame).
    let (expected, uncached_secs) = drive(&uncached, &frame, passes, None);
    // Cached: pass 0 fills, passes 1.. are served from the cache.  Every
    // response must be byte-identical to the uncached handler's.
    let (_, cached_secs) = drive(&cached, &frame, passes, Some(&expected));
    let stats = cached
        .cached_engine()
        .cache_stats()
        .expect("cache is enabled");
    assert!(stats.hits > 0, "hot passes must hit the cache: {stats:?}");

    // Correctness across an invalidation: one update round through both
    // handlers, then the hot batch again — the cached answers must track
    // the new epoch bit for bit (no stale scores can leak).
    let (source, target) = {
        let arc = graph.arcs().next().expect("R-MAT graphs have arcs");
        (arc.source, arc.target)
    };
    let update = format!(
        r#"{{"type":"update","updates":[{{"op":"set","source":{source},"target":{target},"probability":0.123}}]}}"#
    );
    for handler in [&uncached, &cached] {
        let response = handler.handle_line(&update).expect("update answers");
        assert!(!response.is_error, "{}", response.json);
    }
    let (post_expected, _) = drive(&uncached, &frame, 2, None);
    drive(&cached, &frame, 2, Some(&post_expected));
    assert_ne!(
        expected[0], post_expected[0],
        "the update must change hot-pair scores"
    );
    let final_stats = cached
        .cached_engine()
        .cache_stats()
        .expect("cache is enabled");
    assert!(
        final_stats.stale > 0,
        "post-update asks must read old entries as stale: {final_stats:?}"
    );
    println!(
        "cache_throughput: cached == uncached on the wire across {passes} passes \
         and an epoch invalidation ({} hits, {} misses, {} stale)",
        final_stats.hits, final_stats.misses, final_stats.stale
    );

    let served = (passes * pairs.len()) as f64;
    let report = CacheReport {
        hot_pairs: pairs.len(),
        samples,
        passes,
        capacity,
        uncached_pairs_per_sec: served / uncached_secs,
        cached_pairs_per_sec: served / cached_secs,
        cache_ratio: uncached_secs / cached_secs,
        cache_hits: stats.hits,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("cache_throughput: {json}");
    println!("cache_throughput: artifact written to {out_path}");

    // Acceptance floor: the cache must be worth at least 3x on hot pairs.
    if report.cache_ratio < HARD_FLOOR {
        eprintln!(
            "cache_throughput: FAIL: hot-pair speedup {:.2}x is below the \
             acceptance floor of {HARD_FLOOR}x",
            report.cache_ratio
        );
        std::process::exit(1);
    }

    // Gate against the checked-in baseline.
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "cache_throughput: WARNING: no baseline at {baseline_path} ({e}); gate skipped"
            );
            return;
        }
    };
    let baseline: CacheReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as CacheReport");
    let floor = baseline.cache_ratio / 2.0;
    println!(
        "cache_throughput: cache ratio {:.2}x (baseline {:.2}x -> floor {:.2}x), \
         uncached {:.0} pairs/sec, cached {:.0} pairs/sec",
        report.cache_ratio,
        baseline.cache_ratio,
        floor,
        report.uncached_pairs_per_sec,
        report.cached_pairs_per_sec
    );
    if report.cache_ratio < floor {
        eprintln!(
            "cache_throughput: FAIL: cached throughput regressed more than 2x \
             versus the uncached path (ratio {:.2} < floor {:.2})",
            report.cache_ratio, floor
        );
        std::process::exit(1);
    }
    println!("cache_throughput: OK");
}
