//! Fig. 10 reproduction: relative error of Sampling, SR-TS and SR-SP
//! (with `l = 1, 2, 3`) against the Baseline.
//!
//! The relative error is `|s − s*| / s*` where `s*` is the Baseline value,
//! averaged over random vertex pairs.  Datasets on which the Baseline's walk
//! budget is exceeded are skipped (the paper's ground truth has the same
//! practical limitation, which is why its accuracy figure uses the Baseline
//! values as reference rather than the true limit).

use rwalk::transpr::TransPrOptions;
use usim_bench::{
    dataset, mean_relative_error, pairs_from_env, random_pairs, scale_from_env, Table,
};
use usim_core::{
    BaselineEstimator, SamplingEstimator, SimRankConfig, SimRankEstimator, SpeedupEstimator,
    TwoPhaseEstimator,
};

fn main() {
    let scale = scale_from_env();
    let num_pairs = pairs_from_env(10);
    println!(
        "Fig. 10: average relative error vs the Baseline over {num_pairs} pairs (scale = {scale:?})\n"
    );

    let mut table = Table::new(&["Algorithm", "PPI2", "Condmat", "PPI3", "DBLP"]);
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Sampling".to_string()],
        vec!["SR-TS(l=1)".to_string()],
        vec!["SR-TS(l=2)".to_string()],
        vec!["SR-TS(l=3)".to_string()],
        vec!["SR-SP(l=1)".to_string()],
        vec!["SR-SP(l=2)".to_string()],
        vec!["SR-SP(l=3)".to_string()],
    ];

    for name in ["PPI2", "Condmat", "PPI3", "DBLP"] {
        let graph = dataset(name, scale);
        let pairs = random_pairs(&graph, num_pairs, 0xf10);
        // Section VII-A's setting, N = 1000 (the default is the served N).
        let config = SimRankConfig::default().with_samples(1000).with_seed(0xf10);
        let baseline =
            BaselineEstimator::new(&graph, config).with_transpr_options(TransPrOptions {
                max_walks: 200_000,
                prune_threshold: 1e-7,
            });
        // Exact reference values; skip the dataset if infeasible.
        let mut exact = Vec::new();
        let mut feasible = true;
        for &(u, v) in &pairs {
            match baseline.try_similarity(u, v) {
                Ok(value) => exact.push(value),
                Err(_) => {
                    feasible = false;
                    break;
                }
            }
        }
        println!(
            "{name}: {} vertices, {} arcs, baseline {}",
            graph.num_vertices(),
            graph.num_arcs(),
            if feasible {
                "ok"
            } else {
                "infeasible (skipped)"
            }
        );
        if !feasible {
            for row in rows.iter_mut() {
                row.push("n/a".to_string());
            }
            continue;
        }

        let record = |estimates: Vec<f64>, row: usize, rows: &mut Vec<Vec<String>>| {
            let paired: Vec<(f64, f64)> =
                estimates.into_iter().zip(exact.iter().copied()).collect();
            rows[row].push(format!("{:.4}", mean_relative_error(&paired)));
        };

        let mut sampling = SamplingEstimator::new(&graph, config);
        let estimates: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| sampling.similarity(u, v))
            .collect();
        record(estimates, 0, &mut rows);

        for (offset, l) in (1..=3).enumerate() {
            let mut two_phase = TwoPhaseEstimator::new(&graph, config.with_phase_switch(l));
            let estimates: Vec<f64> = pairs
                .iter()
                .map(|&(u, v)| two_phase.similarity(u, v))
                .collect();
            record(estimates, 1 + offset, &mut rows);
        }
        for (offset, l) in (1..=3).enumerate() {
            let mut speedup = SpeedupEstimator::new(&graph, config.with_phase_switch(l));
            let estimates: Vec<f64> = pairs
                .iter()
                .map(|&(u, v)| speedup.similarity(u, v))
                .collect();
            record(estimates, 4 + offset, &mut rows);
        }
    }

    for row in rows {
        table.row(&row);
    }
    println!();
    table.print();
    println!(
        "\nExpected shape: Sampling around 10% relative error, SR-TS / SR-SP around 1% \
         (an order of magnitude lower), errors shrinking as l grows (Corollary 1)."
    );
}
