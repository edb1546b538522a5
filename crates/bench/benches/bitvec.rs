//! Criterion micro-benchmark of the bit-vector primitives that SR-SP's
//! counting tables rely on (Eq. 16's masked popcount, see
//! `usim_core::speedup`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use umatrix::BitVec;

fn bench_bitvec(c: &mut Criterion) {
    let n = 4096;
    let a = BitVec::from_bools((0..n).map(|i| i % 3 == 0));
    let b = BitVec::from_bools((0..n).map(|i| i % 5 == 0));
    let mut group = c.benchmark_group("bitvec");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(500));
    group.warm_up_time(Duration::from_millis(100));

    group.bench_function("and_count_word_level", |bench| {
        bench.iter(|| a.and_count(&b))
    });
    group.bench_function("and_count_bit_by_bit", |bench| {
        bench.iter(|| {
            let mut count = 0usize;
            for i in 0..n {
                if a.get(i) && b.get(i) {
                    count += 1;
                }
            }
            count
        })
    });
    group.bench_function("or_and_assign_fused", |bench| {
        let mut target = BitVec::zeros(n);
        bench.iter(|| {
            target.or_and_assign(&a, &b);
            target.count_ones()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bitvec);
criterion_main!(benches);
