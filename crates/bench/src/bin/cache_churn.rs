//! `cache_churn` — the CI perf-tracking gate for footprint-based cache
//! survival under update churn.
//!
//! Simulates the workload the selective-invalidation machinery exists for:
//! a skewed serving mix keeps re-asking the same hot pairs while update
//! rounds keep landing **elsewhere** in the graph.  The graph is built as
//! disconnected clusters, hot pairs live in the low clusters and every
//! update round rewrites arcs in the highest cluster, so each round's
//! touched-vertex set is disjoint from every hot entry's walk footprint.
//! An epoch-only cache would recompute the entire hot set each round; the
//! footprint cache re-stamps the survivors and serves them as hits.
//!
//! The run drives the transport-free protocol path
//! ([`usim_server::RequestHandler`]) twice — uncached and with
//! `--cache-capacity` — interleaving the hot batch with the update rounds,
//! writes a `BENCH_cache_churn.json` artifact, and fails when
//!
//! * the **churn cache ratio** — cached hot-batch throughput across the
//!   rounds divided by same-run uncached throughput — drops below the
//!   acceptance floor of **3x** (the ISSUE's bar: survivors must make the
//!   cache worth keeping *through* churn, not just between updates), or
//! * it regresses more than 2x against the checked-in baseline
//!   (ratio-based, machine-speed independent).
//!
//! Correctness is asserted on the wire: every cached response line is
//! **byte-identical** to the uncached handler's, every round, after every
//! update — survivors included.
//!
//! Environment:
//! * `USIM_BENCH_CLUSTERS`  — number of 16-vertex clusters (default 64)
//! * `USIM_BENCH_HOT_PAIRS` — distinct hot pairs per batch frame (default 48)
//! * `USIM_BENCH_SAMPLES`   — walk samples per query (default 120)
//! * `USIM_BENCH_ROUNDS`    — update rounds interleaved with asks (default 8)
//! * `USIM_BENCH_CAPACITY`  — cache capacity in entries (default 4096)
//! * `USIM_BENCH_OUT`       — artifact path (default `BENCH_cache_churn.json`)
//! * `USIM_BENCH_BASELINE`  — baseline path (default
//!   `crates/bench/baselines/cache_churn.json`)

use std::time::Instant;
use ugraph::{UncertainGraph, UncertainGraphBuilder, VertexId};
use usim_core::{QueryEngine, SimRankConfig};
use usim_server::{RequestHandler, DEFAULT_MAX_BATCH};

/// Vertices per cluster (kept fixed; the cluster count is the size knob).
const CLUSTER_SIZE: u32 = 16;

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ChurnReport {
    /// Number of disconnected clusters in the graph.
    clusters: usize,
    /// Distinct hot pairs per batch frame.
    hot_pairs: usize,
    /// Walk samples per query.
    samples: usize,
    /// Update rounds interleaved with the hot asks.
    rounds: usize,
    /// Cache capacity (entries).
    capacity: usize,
    /// Hot-batch throughput through the uncached path across the churn,
    /// pairs/sec.
    uncached_pairs_per_sec: f64,
    /// Hot-batch throughput with the footprint cache, pairs/sec.
    cached_pairs_per_sec: f64,
    /// `cached_pairs_per_sec / uncached_pairs_per_sec` — the gated number.
    cache_ratio: f64,
    /// Fraction of cached-run lookups served as hits.
    hit_rate: f64,
    /// Entries re-stamped across all rounds (disjoint footprints).
    survived: u64,
    /// Entries invalidated across all rounds (intersecting or bloom FP).
    killed: u64,
}

/// The acceptance floor: the hot set must survive churn well enough to be
/// at least this much faster than recomputing every round.
const HARD_FLOOR: f64 = 3.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `clusters` disconnected 16-vertex components, each a ring with chords —
/// dense enough that walks live for several steps, isolated so a walk's
/// footprint can never leave its cluster.
fn clustered_graph(clusters: u32) -> UncertainGraph {
    let n = (clusters * CLUSTER_SIZE) as usize;
    let mut builder = UncertainGraphBuilder::new(n);
    for c in 0..clusters {
        let base = c * CLUSTER_SIZE;
        for i in 0..CLUSTER_SIZE {
            let v = base + i;
            let ring = base + (i + 1) % CLUSTER_SIZE;
            let chord = base + (i + 3) % CLUSTER_SIZE;
            builder = builder.arc(v, ring, 0.9).arc(v, chord, 0.6);
        }
    }
    builder.build().expect("clustered graph is valid")
}

/// Hot pairs drawn from the low clusters, round-robin (labels == ids).
fn hot_pairs_in_low_clusters(count: usize, clusters: u32) -> Vec<(VertexId, VertexId)> {
    let low = clusters.saturating_sub(1).max(1); // everything but the churn cluster
    (0..count as u32)
        .map(|i| {
            let c = i % low;
            let base = c * CLUSTER_SIZE;
            (base + i % CLUSTER_SIZE, base + (i * 7 + 1) % CLUSTER_SIZE)
        })
        .collect()
}

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

/// One update round confined to the highest cluster: re-weights a ring arc
/// there.  Both endpoints are in the churn cluster, so the round's touched
/// set is disjoint from every hot footprint.
fn churn_update_frame(clusters: u32, round: usize) -> String {
    let base = (clusters - 1) * CLUSTER_SIZE;
    let i = (round as u32) % CLUSTER_SIZE;
    let (source, target) = (base + i, base + (i + 1) % CLUSTER_SIZE);
    let probability = 0.2 + 0.05 * ((round % 10) as f64);
    format!(
        r#"{{"type":"update","updates":[{{"op":"set","source":{source},"target":{target},"probability":{probability}}}]}}"#
    )
}

fn main() {
    let clusters = env_usize("USIM_BENCH_CLUSTERS", 64).max(2) as u32;
    let hot_pairs = env_usize("USIM_BENCH_HOT_PAIRS", 48);
    let samples = env_usize("USIM_BENCH_SAMPLES", 120);
    let rounds = env_usize("USIM_BENCH_ROUNDS", 8);
    let capacity = env_usize("USIM_BENCH_CAPACITY", 4096);
    let out_path =
        std::env::var("USIM_BENCH_OUT").unwrap_or_else(|_| "BENCH_cache_churn.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE")
        .unwrap_or_else(|_| format!("{}/baselines/cache_churn.json", env!("CARGO_MANIFEST_DIR")));

    let graph = clustered_graph(clusters);
    let pairs = hot_pairs_in_low_clusters(hot_pairs, clusters);
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

    // Warm both handlers once (untimed): the cached handler fills its
    // entries; the uncached one pays the same compute it will pay every
    // round anyway.
    let warm = uncached.handle_line(&frame).expect("batch answers");
    let warm_cached = cached.handle_line(&frame).expect("batch answers");
    assert_eq!(warm_cached.json, warm.json, "warm-up must already agree");

    // The churn loop: every round an update lands in the far cluster, then
    // the hot batch is re-asked.  Updates are applied to both handlers
    // outside the timed sections (the gate measures serving cost, not
    // update cost — update_churn covers that).
    let mut uncached_secs = 0.0f64;
    let mut cached_secs = 0.0f64;
    for round in 0..rounds {
        let update = churn_update_frame(clusters, round);
        for handler in [&uncached, &cached] {
            let response = handler.handle_line(&update).expect("update answers");
            assert!(!response.is_error, "{}", response.json);
        }
        let start = Instant::now();
        let expected = uncached.handle_line(&frame).expect("batch answers");
        uncached_secs += start.elapsed().as_secs_f64();
        assert!(!expected.is_error, "{}", expected.json);
        let start = Instant::now();
        let got = cached.handle_line(&frame).expect("batch answers");
        cached_secs += start.elapsed().as_secs_f64();
        assert_eq!(
            got.json, expected.json,
            "cached response diverged from uncached on round {round}"
        );
    }

    let stats = cached
        .cached_engine()
        .cache_stats()
        .expect("cache is enabled");
    assert!(
        stats.survived > 0,
        "disjoint rounds must re-stamp survivors: {stats:?}"
    );
    // Bloom false positives may kill a few entries per round (they only
    // cost a recompute); the survivors must still dominate.
    assert!(
        stats.survived > stats.killed,
        "survivors must dominate under disjoint churn: {stats:?}"
    );
    let lookups = stats.hits + stats.misses + stats.stale;
    let hit_rate = stats.hits as f64 / lookups.max(1) as f64;
    println!(
        "cache_churn: {rounds} disjoint rounds, {} survived, {} killed, \
         hit rate {:.1}% over {} lookups, byte-identical throughout",
        stats.survived,
        stats.killed,
        100.0 * hit_rate,
        lookups
    );

    let served = (rounds * pairs.len()) as f64;
    let report = ChurnReport {
        clusters: clusters as usize,
        hot_pairs: pairs.len(),
        samples,
        rounds,
        capacity,
        uncached_pairs_per_sec: served / uncached_secs,
        cached_pairs_per_sec: served / cached_secs,
        cache_ratio: uncached_secs / cached_secs,
        hit_rate,
        survived: stats.survived,
        killed: stats.killed,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("cache_churn: {json}");
    println!("cache_churn: artifact written to {out_path}");

    // Acceptance floor: surviving the churn must beat recomputing it 3x.
    if report.cache_ratio < HARD_FLOOR {
        eprintln!(
            "cache_churn: FAIL: churn speedup {:.2}x is below the acceptance \
             floor of {HARD_FLOOR}x",
            report.cache_ratio
        );
        std::process::exit(1);
    }

    // Gate against the checked-in baseline.
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cache_churn: WARNING: no baseline at {baseline_path} ({e}); gate skipped");
            return;
        }
    };
    let baseline: ChurnReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as ChurnReport");
    let floor = baseline.cache_ratio / 2.0;
    println!(
        "cache_churn: churn ratio {:.2}x (baseline {:.2}x -> floor {:.2}x), \
         uncached {:.0} pairs/sec, cached {:.0} pairs/sec",
        report.cache_ratio,
        baseline.cache_ratio,
        floor,
        report.uncached_pairs_per_sec,
        report.cached_pairs_per_sec
    );
    if report.cache_ratio < floor {
        eprintln!(
            "cache_churn: FAIL: churn cache ratio regressed more than 2x \
             (ratio {:.2} < floor {:.2})",
            report.cache_ratio, floor
        );
        std::process::exit(1);
    }
    println!("cache_churn: OK");
}
