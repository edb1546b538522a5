//! `csr_vs_adjlist` — the walk-sampling hot loop on the legacy
//! adjacency-walking `WalkSampler` (per-walk `HashMap` memo, per-visit `Vec`
//! allocations) versus the CSR fast path (`CsrSampler` + `WalkArena`,
//! allocation-free in steady state).  Both sample the same walks from the
//! same seeds; the difference is pure representation and allocator traffic.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwalk::arena::{CsrSampler, WalkArena};
use rwalk::sampler::WalkSampler;
use std::time::Duration;
use usim_bench::{dataset, random_pairs, Scale};

const HORIZON: usize = 5;
const WALKS_PER_ITER: usize = 200;

fn bench_csr_vs_adjlist(c: &mut Criterion) {
    let graph = dataset("Net", Scale::Ci);
    let starts: Vec<u32> = random_pairs(&graph, WALKS_PER_ITER / 2, 0xc5a)
        .into_iter()
        .flat_map(|(u, v)| [u, v])
        .collect();
    // Both samplers walk in-neighbors (the SimRank direction): the legacy
    // path walks the transpose, the CSR path just picks the reverse view.
    let transposed = graph.transpose();

    let mut group = c.benchmark_group("csr_vs_adjlist");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(1200));
    group.warm_up_time(Duration::from_millis(300));

    group.bench_function("adjlist_walk_sampler", |b| {
        let mut sampler = WalkSampler::new(&transposed);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut met = 0usize;
            for &start in &starts {
                let walk = sampler.sample_walk(start, HORIZON, &mut rng);
                met += walk.position(HORIZON).is_some() as usize;
            }
            black_box(met)
        })
    });

    group.bench_function("csr_arena_sampler", |b| {
        let sampler = CsrSampler::new(graph.reverse());
        let mut arena = WalkArena::with_capacity(graph.num_vertices());
        let mut positions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut met = 0usize;
            for &start in &starts {
                sampler.sample_walk_into(&mut arena, start, HORIZON, &mut rng, &mut positions);
                met += (positions[HORIZON] != rwalk::arena::DEAD) as usize;
            }
            black_box(met)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_csr_vs_adjlist);
criterion_main!(benches);
