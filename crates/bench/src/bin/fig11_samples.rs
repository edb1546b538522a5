//! Fig. 11 reproduction: effect of the number of sampled walks `N` on the
//! execution time and relative error of SR-TS and SR-SP (on Condmat, `l = 1`).

use rwalk::transpr::TransPrOptions;
use usim_bench::{
    average_millis, dataset, fmt_ms, mean_relative_error, measure, pairs_from_env, random_pairs,
    scale_from_env, Table,
};
use usim_core::{
    BaselineEstimator, SimRankConfig, SimRankEstimator, SpeedupEstimator, TwoPhaseEstimator,
};

fn main() {
    let scale = scale_from_env();
    let num_pairs = pairs_from_env(10);
    let sample_sizes = [100usize, 250, 500, 1000, 2000];
    println!(
        "Fig. 11: effect of the number of samples N on SR-TS and SR-SP \
         (Condmat, l = 1, {num_pairs} pairs, scale = {scale:?})\n"
    );

    let graph = dataset("Condmat", scale);
    let pairs = random_pairs(&graph, num_pairs, 0xf11);
    let base_config = SimRankConfig::default()
        .with_phase_switch(1)
        .with_seed(0xf11);

    // Exact reference values from the Baseline (bounded); fall back to a very
    // large-sample SR-SP run if the graph is too dense for exact enumeration.
    let baseline =
        BaselineEstimator::new(&graph, base_config).with_transpr_options(TransPrOptions {
            max_walks: 200_000,
            prune_threshold: 1e-7,
        });
    let mut reference = Vec::new();
    let mut reference_is_exact = true;
    for &(u, v) in &pairs {
        match baseline.try_similarity(u, v) {
            Ok(value) => reference.push(value),
            Err(_) => {
                reference_is_exact = false;
                break;
            }
        }
    }
    if !reference_is_exact {
        let mut fallback =
            SpeedupEstimator::new(&graph, base_config.with_samples(20_000).with_seed(0xdead));
        reference = pairs
            .iter()
            .map(|&(u, v)| fallback.similarity(u, v))
            .collect();
        println!("(Baseline infeasible on this graph; using a 20000-sample SR-SP reference)\n");
    }

    let mut table = Table::new(&[
        "N",
        "SR-TS time (ms)",
        "SR-SP time (ms)",
        "SR-TS rel. error",
        "SR-SP rel. error",
    ]);
    for &n_samples in &sample_sizes {
        let config = base_config.with_samples(n_samples);
        let mut two_phase = TwoPhaseEstimator::new(&graph, config);
        let (ts_estimates, ts_time) = measure(|| {
            pairs
                .iter()
                .map(|&(u, v)| two_phase.similarity(u, v))
                .collect::<Vec<f64>>()
        });
        let mut speedup = SpeedupEstimator::new(&graph, config);
        let (sp_estimates, sp_time) = measure(|| {
            pairs
                .iter()
                .map(|&(u, v)| speedup.similarity(u, v))
                .collect::<Vec<f64>>()
        });
        let ts_error: Vec<(f64, f64)> = ts_estimates
            .into_iter()
            .zip(reference.iter().copied())
            .collect();
        let sp_error: Vec<(f64, f64)> = sp_estimates
            .into_iter()
            .zip(reference.iter().copied())
            .collect();
        table.row(&[
            n_samples.to_string(),
            fmt_ms(average_millis(ts_time, pairs.len())),
            fmt_ms(average_millis(sp_time, pairs.len())),
            format!("{:.4}", mean_relative_error(&ts_error)),
            format!("{:.4}", mean_relative_error(&sp_error)),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: time grows sub-linearly with N, the relative error decreases \
         with N and flattens out below ~5% for N >= 1000."
    );
}
