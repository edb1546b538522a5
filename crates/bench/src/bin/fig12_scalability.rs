//! Fig. 12 reproduction: scalability of SR-TS and SR-SP with respect to the
//! graph size.
//!
//! The paper generates R-MAT graphs with 2M vertices and 2M–10M edges and
//! shows that the average query time of both algorithms grows roughly
//! linearly with the number of edges.  At the default CI scale this binary
//! sweeps 200k–1M edges on 2^18-vertex R-MAT graphs (`USIM_SCALE=paper`
//! restores the published sizes).

use usim_bench::{
    average_millis, fmt_ms, measure, pairs_from_env, random_pairs, scale_from_env, Scale, Table,
};
use usim_core::{SimRankConfig, SimRankEstimator, SpeedupEstimator, TwoPhaseEstimator};
use usim_datasets::RmatGenerator;

fn main() {
    let scale = scale_from_env();
    let num_pairs = pairs_from_env(10);
    let (vertex_scale, edge_counts): (u32, Vec<usize>) = match scale {
        Scale::Ci => (18, vec![200_000, 400_000, 600_000, 800_000, 1_000_000]),
        Scale::Paper => (
            21,
            vec![2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000],
        ),
    };
    println!(
        "Fig. 12: scalability of SR-TS and SR-SP on R-MAT graphs \
         (2^{vertex_scale} vertices, {num_pairs} pairs per point, N = 1000, n = 5, l = 1)\n"
    );

    let mut table = Table::new(&["|E|", "SR-TS time (ms)", "SR-SP time (ms)"]);
    for &num_edges in &edge_counts {
        let generator = RmatGenerator {
            scale: vertex_scale,
            num_edges,
            seed: 0xf12,
            ..Default::default()
        };
        let (graph, generation_time) = measure(|| generator.generate());
        println!(
            "generated |V| = {}, |E| = {} in {:.1}s",
            graph.num_vertices(),
            graph.num_arcs(),
            generation_time.as_secs_f64()
        );
        let pairs = random_pairs(&graph, num_pairs, 0xf12);
        // Section VII-A's setting, N = 1000 (the default is the served N).
        let config = SimRankConfig::default()
            .with_samples(1000)
            .with_phase_switch(1)
            .with_seed(0xf12);

        let mut two_phase = TwoPhaseEstimator::new(&graph, config);
        let (_, ts_time) = measure(|| {
            for &(u, v) in &pairs {
                let _ = two_phase.similarity(u, v);
            }
        });
        let mut speedup = SpeedupEstimator::new(&graph, config);
        let (_, sp_time) = measure(|| {
            for &(u, v) in &pairs {
                let _ = speedup.similarity(u, v);
            }
        });
        table.row(&[
            num_edges.to_string(),
            fmt_ms(average_millis(ts_time, pairs.len())),
            fmt_ms(average_millis(sp_time, pairs.len())),
        ]);
    }
    println!();
    table.print();
    println!(
        "\nExpected shape: both curves grow roughly linearly with |E| (density drives the cost)."
    );
}
