//! `cold_start` — the CI gate for snapshot-backed boot.
//!
//! Measures how long it takes to get a query-ready engine from cold, down
//! both boot paths the server supports:
//!
//! * **text boot** — parse the text edge list, compact labels, validate
//!   every edge and compile the CSR (`usim serve GRAPH`);
//! * **snapshot boot** — read the checksummed `USIMCSR1` arrays and hand
//!   them straight to the engine (`usim serve --snapshot`), no per-edge
//!   work at all.
//!
//! The run writes a `BENCH_cold_start.json` artifact and exits non-zero
//! when either gate fails:
//!
//! 1. the **acceptance floor**: snapshot boot must be at least 5x faster
//!    than text boot (the whole point of the format), and
//! 2. the **regression gate**: the speedup must not fall below half the
//!    checked-in baseline (`crates/bench/baselines/cold_start.json`) —
//!    ratio-based like the other gates, so machine speed cancels out.
//!
//! It also asserts the correctness contract: both engines answer the same
//! pair batch bit-identically (a snapshot boot is a boot, not an
//! approximation).
//!
//! Environment:
//! * `USIM_BENCH_SCALE`    — R-MAT scale, `2^scale` vertices (default 13)
//! * `USIM_BENCH_EDGES`    — R-MAT edges before dedup (default 65536)
//! * `USIM_BENCH_REPS`     — boot repetitions, fastest wins (default 5)
//! * `USIM_BENCH_OUT`      — artifact path (default `BENCH_cold_start.json`)
//! * `USIM_BENCH_BASELINE` — baseline path (default
//!   `crates/bench/baselines/cold_start.json`)

use std::time::Instant;
use ugraph::io::{read_edge_list_file, write_edge_list_file, ReadOptions};
use ugraph::snapshot::{read_snapshot_file, write_snapshot_file};
use ugraph::CsrGraph;
use usim_bench::random_pairs;
use usim_core::{QueryEngine, SimRankConfig};
use usim_datasets::RmatGenerator;

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ColdStartReport {
    /// Vertices of the benchmark graph.
    vertices: usize,
    /// Arcs of the benchmark graph.
    arcs: usize,
    /// Text-file size in bytes.
    text_bytes: u64,
    /// Snapshot-file size in bytes.
    snapshot_bytes: u64,
    /// Boot repetitions (fastest of each path is kept).
    reps: usize,
    /// Fastest parse-and-compile boot, seconds.
    text_boot_secs: f64,
    /// Fastest snapshot boot, seconds.
    snapshot_boot_secs: f64,
    /// `text_boot_secs / snapshot_boot_secs` — the gated number.
    speedup: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_usize("USIM_BENCH_SCALE", 13) as u32;
    let num_edges = env_usize("USIM_BENCH_EDGES", 1 << 16);
    let reps = env_usize("USIM_BENCH_REPS", 5).max(1);
    let out_path =
        std::env::var("USIM_BENCH_OUT").unwrap_or_else(|_| "BENCH_cold_start.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE")
        .unwrap_or_else(|_| format!("{}/baselines/cold_start.json", env!("CARGO_MANIFEST_DIR")));

    // Stage both on-disk forms of the same graph.
    let graph = RmatGenerator {
        scale,
        num_edges,
        seed: 0xc01d,
        ..Default::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("usim_cold_start_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    let text_path = dir.join("graph.tsv");
    let snapshot_path = dir.join("graph.csr");
    write_edge_list_file(&graph, &[], &text_path).expect("text graph writes");
    // Text loading compacts away isolated vertices; stage the snapshot from
    // the *parsed* graph so both boot paths land in the same vertex space —
    // exactly what `usim snapshot write GRAPH OUT` produces.
    let staged =
        read_edge_list_file(&text_path, &ReadOptions::default()).expect("staged graph parses");
    let csr = CsrGraph::from_uncertain(&staged.graph);
    write_snapshot_file(&csr, &staged.labels, &snapshot_path).expect("snapshot writes");
    let text_bytes = std::fs::metadata(&text_path).expect("text metadata").len();
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .expect("snapshot metadata")
        .len();

    let config = SimRankConfig::default().with_samples(10).with_seed(42);
    let pairs = random_pairs(&staged.graph, 64, 0x5eed);

    // Text boot: parse + label-compact + validate + CSR-compile.
    let mut text_boot_secs = f64::INFINITY;
    let mut text_engine = None;
    for _ in 0..reps {
        let start = Instant::now();
        let parsed = read_edge_list_file(&text_path, &ReadOptions::default())
            .expect("staged text graph parses");
        let engine = QueryEngine::new(&parsed.graph, config);
        text_boot_secs = text_boot_secs.min(start.elapsed().as_secs_f64());
        text_engine = Some(engine);
    }
    let text_engine = text_engine.expect("at least one rep ran");

    // Snapshot boot: checksummed array read, no per-edge work.
    let mut snapshot_boot_secs = f64::INFINITY;
    let mut snapshot_engine = None;
    for _ in 0..reps {
        let start = Instant::now();
        let snapshot = read_snapshot_file(&snapshot_path).expect("staged snapshot reads");
        let engine = QueryEngine::from_csr(snapshot.graph, config);
        snapshot_boot_secs = snapshot_boot_secs.min(start.elapsed().as_secs_f64());
        snapshot_engine = Some(engine);
    }
    let snapshot_engine = snapshot_engine.expect("at least one rep ran");

    // Correctness contract: both boots serve the identical engine.
    let text_scores = text_engine
        .batch_similarities(&pairs)
        .expect("ids are in range");
    let snapshot_scores = snapshot_engine
        .batch_similarities(&pairs)
        .expect("ids are in range");
    assert_eq!(
        text_scores, snapshot_scores,
        "snapshot boot diverged from text boot"
    );
    println!("cold_start: snapshot boot == text boot (bit-identical scores)");
    let _ = std::fs::remove_dir_all(&dir);

    let report = ColdStartReport {
        vertices: staged.graph.num_vertices(),
        arcs: staged.graph.num_arcs(),
        text_bytes,
        snapshot_bytes,
        reps,
        text_boot_secs,
        snapshot_boot_secs,
        speedup: text_boot_secs / snapshot_boot_secs,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("cold_start: {json}");
    println!("cold_start: artifact written to {out_path}");

    // Gate 1: the acceptance floor — snapshot boot must beat text parse by
    // at least 5x, on any machine (both paths scale with the same I/O and
    // CPU, so the ratio is machine-independent).
    const ACCEPTANCE_FLOOR: f64 = 5.0;
    println!(
        "cold_start: text boot {:.1} ms, snapshot boot {:.1} ms, speedup {:.1}x",
        report.text_boot_secs * 1e3,
        report.snapshot_boot_secs * 1e3,
        report.speedup
    );
    if report.speedup < ACCEPTANCE_FLOOR {
        eprintln!(
            "cold_start: FAIL: snapshot boot is only {:.1}x faster than text parse \
             (acceptance floor {ACCEPTANCE_FLOOR}x)",
            report.speedup
        );
        std::process::exit(1);
    }

    // Gate 2: regression versus the checked-in baseline.
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cold_start: WARNING: no baseline at {baseline_path} ({e}); gate skipped");
            return;
        }
    };
    let baseline: ColdStartReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as ColdStartReport");
    let floor = baseline.speedup / 2.0;
    println!(
        "cold_start: speedup {:.1}x (baseline {:.1}x -> floor {:.1}x)",
        report.speedup, baseline.speedup, floor
    );
    if report.speedup < floor {
        eprintln!(
            "cold_start: FAIL: snapshot-boot speedup regressed more than 2x \
             (speedup {:.1}x < floor {:.1}x)",
            report.speedup, floor
        );
        std::process::exit(1);
    }
    println!("cold_start: OK");
}
