//! `obs_overhead` — the CI gate bounding the cost of observability.
//!
//! Drives the identical request workload (a mix of `similarity` and
//! `batch` frames) through two in-process [`usim_server::RequestHandler`]s
//! over the same graph and config: one bare, one with the full
//! observability stack on — stage tracing at sample rate 1.0 (every
//! request traced, the worst case), the slow-query log, and the
//! process-wide walk metrics.  No TCP, no threads: the measured loop is
//! `handle_line_into` alone, so the ratio isolates exactly what the
//! instrumentation adds to the serving hot path.
//!
//! Rounds alternate bare/traced (best-of-rounds on both sides) so CPU
//! warm-up and frequency drift cancel instead of biasing one mode; the
//! global walk-metrics flag is toggled per round so the bare side never
//! pays for counter flushes.
//!
//! The gate is a **hard floor**, not a baseline ratio: traced throughput
//! must stay at ≥ 0.9× bare throughput.  The checked-in baseline records
//! the measured ratio for tracking, but a run below 0.9 fails regardless
//! of what the baseline says — observability must never cost more than
//! 10%.
//!
//! The run also asserts two correctness contracts:
//!
//! * **bit-identity** — every response byte out of the traced handler
//!   equals the bare handler's (tracing only reads clocks; it must never
//!   perturb answers), and
//! * **stage-sum coherence** — for every slow-log entry, the per-stage
//!   timings sum to at most the entry's end-to-end total (stages are
//!   disjoint slices of the request's wall time).
//!
//! Environment:
//! * `USIM_BENCH_PAIRS`    — query pairs per batch frame (default 96)
//! * `USIM_BENCH_SAMPLES`  — walk samples per query (default 20)
//! * `USIM_BENCH_POINT`    — similarity frames per pass (default 64)
//! * `USIM_BENCH_PASSES`   — passes per round (default 3)
//! * `USIM_BENCH_ROUNDS`   — alternating rounds (default 3)
//! * `USIM_BENCH_OUT`      — artifact path (default `BENCH_obs_overhead.json`)
//! * `USIM_BENCH_BASELINE` — baseline path (default
//!   `crates/bench/baselines/obs_overhead.json`)

use bytes::BytesMut;
use std::time::Instant;
use usim_bench::random_pairs;
use usim_core::{QueryEngine, SimRankConfig};
use usim_datasets::RmatGenerator;
use usim_obs::walk_metrics;
use usim_server::RequestHandler;

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ObsReport {
    /// Query pairs per batch frame.
    pairs: usize,
    /// Walk samples per query.
    samples: usize,
    /// Similarity frames per pass.
    point_frames: usize,
    /// Passes per round.
    passes: usize,
    /// Alternating bare/traced rounds.
    rounds: usize,
    /// Best bare-handler throughput, frames per second.
    bare_frames_per_sec: f64,
    /// Best traced-handler throughput, frames per second.
    traced_frames_per_sec: f64,
    /// `traced / bare` — the gated ratio (hard floor 0.9).
    overhead_ratio: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One pass of the workload; returns (elapsed seconds, concatenated output).
fn run_pass(handler: &RequestHandler, frames: &[String]) -> (f64, BytesMut) {
    let mut out = BytesMut::with_capacity(frames.len() * 64);
    let start = Instant::now();
    for frame in frames {
        handler.handle_line_into(frame, &mut out);
    }
    (start.elapsed().as_secs_f64(), out)
}

fn main() {
    let pairs_count = env_usize("USIM_BENCH_PAIRS", 96);
    let samples = env_usize("USIM_BENCH_SAMPLES", 20);
    let point_frames = env_usize("USIM_BENCH_POINT", 64);
    let passes = env_usize("USIM_BENCH_PASSES", 3).max(1);
    let rounds = env_usize("USIM_BENCH_ROUNDS", 3).max(1);
    let out_path =
        std::env::var("USIM_BENCH_OUT").unwrap_or_else(|_| "BENCH_obs_overhead.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE")
        .unwrap_or_else(|_| format!("{}/baselines/obs_overhead.json", env!("CARGO_MANIFEST_DIR")));

    let graph = RmatGenerator::small(0xd13a).generate();
    let pairs = random_pairs(&graph, pairs_count, 0x5eed);
    let config = SimRankConfig::default().with_samples(samples).with_seed(42);
    let labels: Vec<u64> = (0..graph.num_vertices() as u64).collect();

    // The workload: point queries interleaved with one batch frame per
    // `point_frames / 8` points — the mix a serving deployment sees.
    let mut frames = Vec::new();
    let mut batch = String::from(r#"{"type":"batch","pairs":["#);
    for (i, (u, v)) in pairs.iter().enumerate() {
        if i > 0 {
            batch.push(',');
        }
        batch.push_str(&format!("[{u},{v}]"));
    }
    batch.push_str("]}");
    for (i, (u, v)) in pairs.iter().cycle().take(point_frames).enumerate() {
        frames.push(format!(
            r#"{{"type":"similarity","source":{u},"target":{v}}}"#
        ));
        if i % 8 == 7 {
            frames.push(batch.clone());
        }
    }

    let bare = RequestHandler::new(
        QueryEngine::new(&graph, config),
        labels.clone(),
        usize::MAX >> 1,
    );
    // Sample rate 1.0: every request traced — the worst case the gate
    // bounds.  Walk metrics are enabled only while a traced round runs.
    let traced = RequestHandler::new(QueryEngine::new(&graph, config), labels, usize::MAX >> 1)
        .with_tracing(1.0, 32);

    // Bit-identity: the traced handler serves byte-for-byte the bare
    // handler's responses (warm pass, also warms both engines' arenas).
    walk_metrics().set_enabled(true);
    let (_, traced_out) = run_pass(&traced, &frames);
    walk_metrics().set_enabled(false);
    let (_, bare_out) = run_pass(&bare, &frames);
    assert_eq!(
        traced_out, bare_out,
        "tracing must never change response bytes"
    );

    let mut bare_best = 0.0f64;
    let mut traced_best = 0.0f64;
    for _ in 0..rounds {
        walk_metrics().set_enabled(false);
        let mut bare_secs = f64::INFINITY;
        for _ in 0..passes {
            let (secs, out) = run_pass(&bare, &frames);
            std::hint::black_box(out.len());
            bare_secs = bare_secs.min(secs);
        }
        bare_best = bare_best.max(frames.len() as f64 / bare_secs);

        walk_metrics().set_enabled(true);
        let mut traced_secs = f64::INFINITY;
        for _ in 0..passes {
            let (secs, out) = run_pass(&traced, &frames);
            std::hint::black_box(out.len());
            traced_secs = traced_secs.min(secs);
        }
        traced_best = traced_best.max(frames.len() as f64 / traced_secs);
    }
    walk_metrics().set_enabled(false);

    // Stage-sum coherence on everything the slow log kept: disjoint stage
    // slices can never sum past the request's own wall-clock total.
    let tracer = traced.tracer().expect("traced handler has a tracer");
    let slow = tracer.slow_log().snapshot();
    assert!(!slow.is_empty(), "rate-1.0 tracing must feed the slow log");
    for entry in &slow {
        let stage_sum: u64 = entry.stages_us.iter().sum();
        assert!(
            stage_sum <= entry.total_us,
            "stage sum {}us exceeds end-to-end total {}us (trace {})",
            stage_sum,
            entry.total_us,
            entry.trace_id
        );
    }
    println!(
        "obs_overhead: responses bit-identical; {} slow-log entries all \
         satisfy sum(stages) <= total",
        slow.len()
    );

    let report = ObsReport {
        pairs: pairs.len(),
        samples,
        point_frames,
        passes,
        rounds,
        bare_frames_per_sec: bare_best,
        traced_frames_per_sec: traced_best,
        overhead_ratio: traced_best / bare_best,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("obs_overhead: {json}");
    println!("obs_overhead: artifact written to {out_path}");

    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let baseline: ObsReport =
                serde_json::from_str(&text).expect("baseline parses as ObsReport");
            println!(
                "obs_overhead: ratio {:.3} (baseline recorded {:.3}), bare {:.0} \
                 frames/sec, traced {:.0} frames/sec",
                report.overhead_ratio,
                baseline.overhead_ratio,
                report.bare_frames_per_sec,
                report.traced_frames_per_sec
            );
        }
        Err(e) => {
            println!(
                "obs_overhead: no baseline at {baseline_path} ({e}); ratio {:.3}",
                report.overhead_ratio
            );
        }
    }

    // The hard floor: full-fat observability may cost at most 10%.
    const FLOOR: f64 = 0.9;
    if report.overhead_ratio < FLOOR {
        eprintln!(
            "obs_overhead: FAIL: tracing + metrics cost more than 10% of \
             throughput (ratio {:.3} < floor {FLOOR})",
            report.overhead_ratio
        );
        std::process::exit(1);
    }
    println!("obs_overhead: OK");
}
