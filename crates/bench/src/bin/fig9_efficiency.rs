//! Fig. 9 reproduction: execution time of Baseline, Sampling, SR-TS and
//! SR-SP (the latter two with `l = 1, 2, 3`).
//!
//! Reports the average per-query wall-clock time over random vertex pairs of
//! PPI2, Condmat, PPI3 and DBLP (at the current scale).  The Baseline's walk
//! enumeration is capped; datasets on which it exceeds the budget are
//! reported as `n/a`, which reproduces the paper's observation that the
//! exact algorithm stops being practical as graphs grow.

use rwalk::transpr::TransPrOptions;
use usim_bench::{
    average_millis, dataset, fmt_ms, measure, pairs_from_env, random_pairs, scale_from_env, Table,
};
use usim_core::{
    BaselineEstimator, SamplingEstimator, SimRankConfig, SimRankEstimator, SpeedupEstimator,
    TwoPhaseEstimator,
};

fn main() {
    let scale = scale_from_env();
    let num_pairs = pairs_from_env(20);
    let baseline_pairs = num_pairs.min(5);
    println!(
        "Fig. 9: average execution time per query (ms); {num_pairs} pairs per algorithm, \
         {baseline_pairs} for Baseline (scale = {scale:?})\n"
    );

    let mut table = Table::new(&["Algorithm", "PPI2", "Condmat", "PPI3", "DBLP"]);
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Baseline".to_string()],
        vec!["Sampling".to_string()],
        vec!["SR-TS(l=1)".to_string()],
        vec!["SR-TS(l=2)".to_string()],
        vec!["SR-TS(l=3)".to_string()],
        vec!["SR-SP(l=1)".to_string()],
        vec!["SR-SP(l=2)".to_string()],
        vec!["SR-SP(l=3)".to_string()],
    ];

    for name in ["PPI2", "Condmat", "PPI3", "DBLP"] {
        let (graph, generation_time) = measure(|| dataset(name, scale));
        println!(
            "{name}: {} vertices, {} arcs (generated in {:.1}s)",
            graph.num_vertices(),
            graph.num_arcs(),
            generation_time.as_secs_f64()
        );
        let pairs = random_pairs(&graph, num_pairs, 0xf19);
        // Section VII-A's setting, N = 1000 (the default is the served N).
        let config = SimRankConfig::default().with_samples(1000).with_seed(0xf19);

        // Baseline (exact), with a bounded walk budget.
        let baseline =
            BaselineEstimator::new(&graph, config).with_transpr_options(TransPrOptions {
                max_walks: 200_000,
                prune_threshold: 1e-7,
            });
        let mut feasible = true;
        let (_, baseline_time) = measure(|| {
            for &(u, v) in pairs.iter().take(baseline_pairs) {
                if baseline.try_similarity(u, v).is_err() {
                    feasible = false;
                    break;
                }
            }
        });
        rows[0].push(if feasible {
            fmt_ms(average_millis(baseline_time, baseline_pairs))
        } else {
            "n/a".to_string()
        });

        // Sampling.
        let mut sampling = SamplingEstimator::new(&graph, config);
        let (_, sampling_time) = measure(|| {
            for &(u, v) in &pairs {
                let _ = sampling.similarity(u, v);
            }
        });
        rows[1].push(fmt_ms(average_millis(sampling_time, pairs.len())));

        // SR-TS and SR-SP with l = 1, 2, 3.
        for (offset, l) in (1..=3).enumerate() {
            let cfg = config.with_phase_switch(l);
            let mut two_phase = TwoPhaseEstimator::new(&graph, cfg);
            let (_, time) = measure(|| {
                for &(u, v) in &pairs {
                    let _ = two_phase.similarity(u, v);
                }
            });
            rows[2 + offset].push(fmt_ms(average_millis(time, pairs.len())));
        }
        for (offset, l) in (1..=3).enumerate() {
            let cfg = config.with_phase_switch(l);
            let mut speedup = SpeedupEstimator::new(&graph, cfg);
            let (_, time) = measure(|| {
                for &(u, v) in &pairs {
                    let _ = speedup.similarity(u, v);
                }
            });
            rows[5 + offset].push(fmt_ms(average_millis(time, pairs.len())));
        }
    }

    for row in rows {
        table.row(&row);
    }
    println!();
    table.print();
    println!(
        "\nExpected shape: SR-SP is well below Sampling/SR-TS (the sharing technique), \
         Sampling's time is roughly graph-size independent, and Baseline degrades or \
         becomes infeasible as density grows."
    );
}
