//! `csr_vs_alias` — the CI gate for the alias sampler backend.
//!
//! Times the per-step transition draw of both walk backends on the same
//! CSR graph:
//!
//! * **legacy** — the lazily-instantiated arena walk
//!   (`rwalk::WalkArena::sample_walk`): one uniform draw per possible arc
//!   on first visit, memoized within the walk;
//! * **alias** — the Walker alias rows (`rwalk::alias_walk` over the same
//!   view, whose rows are built on their first read from the row's cached
//!   one-step marginals): exactly one `f64` draw and one 16-byte slot read
//!   per step, degree-independent.
//!
//! One untimed pass of each backend runs first: it lets the CPU ramp up and
//! fills the alias rows the walks reach.  The timed passes then alternate
//! legacy and alias, so host speed drift hits both backends alike; the
//! fastest pass of each is its steady state.
//!
//! The run writes a `BENCH_alias_speedup.json` artifact and exits non-zero
//! when either gate fails:
//!
//! 1. the **acceptance floor**: alias walks must be at least 2x faster than
//!    the arena walk (the whole point of the alias rows), and
//! 2. the **regression gate**: the speedup must not fall below half the
//!    checked-in baseline (`crates/bench/baselines/alias_speedup.json`) —
//!    ratio-based like the other gates, so machine speed cancels out.
//!
//! Environment:
//! * `USIM_BENCH_SCALE`    — R-MAT scale, `2^scale` vertices (default 12)
//! * `USIM_BENCH_EDGES`    — R-MAT edges before dedup (default 65536)
//! * `USIM_BENCH_WALKS`    — walks per timed pass (default 100000)
//! * `USIM_BENCH_LEN`      — steps per walk (default 8)
//! * `USIM_BENCH_REPS`     — timed passes, fastest wins (default 5)
//! * `USIM_BENCH_OUT`      — artifact path (default `BENCH_alias_speedup.json`)
//! * `USIM_BENCH_BASELINE` — baseline path (default
//!   `crates/bench/baselines/alias_speedup.json`)

use rand::rngs::StdRng;
use rand::SeedableRng;
use rwalk::{alias_walk, WalkArena, DEAD};
use std::time::Instant;
use ugraph::VertexId;
use usim_datasets::RmatGenerator;

/// The measurements the artifact records and the baseline pins.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct AliasSpeedupReport {
    /// Vertices of the benchmark graph.
    vertices: usize,
    /// Arcs of the benchmark graph.
    arcs: usize,
    /// Walks sampled per timed pass.
    walks: usize,
    /// Steps per walk.
    walk_len: usize,
    /// Timed passes (fastest of each backend is kept).
    reps: usize,
    /// Fastest legacy (arena walk) pass, seconds.
    legacy_secs: f64,
    /// Fastest alias pass, seconds.
    alias_secs: f64,
    /// `legacy_secs / alias_secs` — the gated number.
    speedup: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One pass of `walk` over `starts` from the fixed seed: its wall time in
/// seconds and the live steps it sampled.
fn pass(
    starts: &[VertexId],
    positions: &mut Vec<VertexId>,
    mut walk: impl FnMut(VertexId, &mut StdRng, &mut Vec<VertexId>),
) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(0x1e9acc);
    let mut live = 0u64;
    let start = Instant::now();
    for &v in starts {
        positions.clear();
        walk(v, &mut rng, positions);
        live += positions.iter().skip(1).filter(|&&p| p != DEAD).count() as u64;
    }
    (start.elapsed().as_secs_f64(), live)
}

fn main() {
    let scale = env_usize("USIM_BENCH_SCALE", 12) as u32;
    let num_edges = env_usize("USIM_BENCH_EDGES", 1 << 16);
    let walks = env_usize("USIM_BENCH_WALKS", 100_000).max(1);
    let walk_len = env_usize("USIM_BENCH_LEN", 8).max(1);
    let reps = env_usize("USIM_BENCH_REPS", 5).max(1);
    let out_path =
        std::env::var("USIM_BENCH_OUT").unwrap_or_else(|_| "BENCH_alias_speedup.json".to_string());
    let baseline_path = std::env::var("USIM_BENCH_BASELINE").unwrap_or_else(|_| {
        format!(
            "{}/baselines/alias_speedup.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });

    let graph = RmatGenerator {
        scale,
        num_edges,
        seed: 0xa11a5,
        ..Default::default()
    }
    .generate();
    let num_vertices = graph.num_vertices() as VertexId;
    // Walks follow the reverse adjacency, like the SimRank engines do; only
    // that direction's derived data is built.
    let view = graph.reverse();

    // Both backends walk the same start schedule from identically seeded
    // RNGs; what differs is purely the per-step draw.
    let starts: Vec<VertexId> = (0..walks).map(|i| (i as VertexId) % num_vertices).collect();
    let mut positions: Vec<VertexId> = Vec::with_capacity(walk_len + 1);

    let mut arena = WalkArena::default();
    let mut legacy = |v, rng: &mut StdRng, out: &mut Vec<VertexId>| {
        arena.sample_walk(&view, v, walk_len, rng, out)
    };
    let mut alias =
        |v, rng: &mut StdRng, out: &mut Vec<VertexId>| alias_walk(&view, v, walk_len, rng, out);
    // Untimed warm-up of each backend; every pass walks the same seeded
    // schedule, so these live-step counts are every pass's.
    let (_, legacy_live_steps) = pass(&starts, &mut positions, &mut legacy);
    let (_, alias_live_steps) = pass(&starts, &mut positions, &mut alias);
    let (mut legacy_secs, mut alias_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        legacy_secs = legacy_secs.min(pass(&starts, &mut positions, &mut legacy).0);
        alias_secs = alias_secs.min(pass(&starts, &mut positions, &mut alias).0);
    }

    // Sanity contract: the two backends sample different distributions over
    // whole walks, but their one-step survival behaviour agrees in
    // expectation — wildly different live-step counts mean a broken table.
    let total_steps = (walks * walk_len) as f64;
    let legacy_rate = legacy_live_steps as f64 / total_steps;
    let alias_rate = alias_live_steps as f64 / total_steps;
    assert!(
        (legacy_rate - alias_rate).abs() < 0.05,
        "live-step rates diverged: legacy {legacy_rate:.3} vs alias {alias_rate:.3}"
    );
    println!(
        "csr_vs_alias: live-step rates agree (legacy {legacy_rate:.3}, alias {alias_rate:.3})"
    );

    let report = AliasSpeedupReport {
        vertices: graph.num_vertices(),
        arcs: graph.num_arcs(),
        walks,
        walk_len,
        reps,
        legacy_secs,
        alias_secs,
        speedup: legacy_secs / alias_secs,
    };
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("artifact is writable");
    println!("csr_vs_alias: {json}");
    println!("csr_vs_alias: artifact written to {out_path}");

    // Gate 1: the acceptance floor — one draw per step must beat
    // degree-many draws per step by at least 2x, on any machine.
    const ACCEPTANCE_FLOOR: f64 = 2.0;
    println!(
        "csr_vs_alias: legacy {:.1} ms, alias {:.1} ms, speedup {:.1}x",
        report.legacy_secs * 1e3,
        report.alias_secs * 1e3,
        report.speedup
    );
    if report.speedup < ACCEPTANCE_FLOOR {
        eprintln!(
            "csr_vs_alias: FAIL: alias walks are only {:.2}x faster than the arena \
             walk (acceptance floor {ACCEPTANCE_FLOOR}x)",
            report.speedup
        );
        std::process::exit(1);
    }

    // Gate 2: regression versus the checked-in baseline.
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("csr_vs_alias: WARNING: no baseline at {baseline_path} ({e}); gate skipped");
            return;
        }
    };
    let baseline: AliasSpeedupReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as AliasSpeedupReport");
    let floor = baseline.speedup / 2.0;
    println!(
        "csr_vs_alias: speedup {:.1}x (baseline {:.1}x -> floor {:.1}x)",
        report.speedup, baseline.speedup, floor
    );
    if report.speedup < floor {
        eprintln!(
            "csr_vs_alias: FAIL: alias speedup regressed more than 2x \
             (speedup {:.1}x < floor {:.1}x)",
            report.speedup, floor
        );
        std::process::exit(1);
    }
    println!("csr_vs_alias: OK");
}
