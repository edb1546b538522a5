//! Criterion ablation of the phase-switch parameter `l` of the two-phase
//! algorithm, and the cost of the full `TransPr` enumeration (`W(1)..W(5)`
//! of the paper's Fig. 1 graph) that its exact phase builds on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rwalk::transpr::{transition_matrices, TransPrOptions};
use std::time::Duration;
use ugraph::UncertainGraphBuilder;
use usim_bench::{dataset, random_pairs, Scale};
use usim_core::{SimRankConfig, SimRankEstimator, TwoPhaseEstimator};

fn bench_phase_switch(c: &mut Criterion) {
    let graph = dataset("Net", Scale::Ci);
    let pairs = random_pairs(&graph, 8, 0x9456);
    let mut group = c.benchmark_group("sr_ts_phase_switch");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(200));
    for l in [1usize, 2, 3] {
        let config = SimRankConfig::default()
            .with_samples(200)
            .with_phase_switch(l)
            .with_seed(5);
        let mut estimator = TwoPhaseEstimator::new(&graph, config);
        group.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, _| {
            let mut index = 0usize;
            b.iter(|| {
                let (u, v) = pairs[index % pairs.len()];
                index += 1;
                estimator.similarity(u, v)
            })
        });
    }
    group.finish();
}

fn bench_transpr(c: &mut Criterion) {
    let graph = UncertainGraphBuilder::new(5)
        .arc(0, 2, 0.8)
        .arc(0, 3, 0.5)
        .arc(1, 0, 0.8)
        .arc(1, 2, 0.9)
        .arc(2, 0, 0.7)
        .arc(2, 3, 0.6)
        .arc(3, 4, 0.6)
        .arc(3, 1, 0.8)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("transpr");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(500));
    group.warm_up_time(Duration::from_millis(100));
    group.bench_function("fig1_k5", |b| {
        b.iter(|| transition_matrices(&graph, 5, &TransPrOptions::default()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_phase_switch, bench_transpr);
criterion_main!(benches);
