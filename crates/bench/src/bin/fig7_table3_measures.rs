//! Fig. 7 / Table III reproduction: differences between SimRank-I (the
//! paper's uncertain SimRank) and the other similarity measures.
//!
//! For randomly selected vertex pairs of Net and PPI1, the binary computes
//! SimRank-I (Baseline), SimRank-II (classic SimRank on the skeleton),
//! SimRank-III (Du et al.), Jaccard-I (expected Jaccard over possible worlds)
//! and Jaccard-II (Jaccard on the skeleton), prints the per-pair series that
//! Fig. 7 plots (first few pairs) and the average / maximum / minimum bias of
//! each measure with respect to SimRank-I that Table III summarises.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ugraph::UncertainGraph;
use usim_bench::{dataset, fmt3, pairs_from_env, random_pairs, scale_from_env, Table};
use usim_core::{
    deterministic::simrank_single_pair, BaselineEstimator, DuEtAlEstimator, SimRankConfig,
    SimRankEstimator,
};
use usim_similarity::{jaccard, monte_carlo_expected_jaccard, NeighborhoodMode};

struct Bias {
    name: &'static str,
    values: Vec<f64>,
}

impl Bias {
    fn new(name: &'static str) -> Self {
        Bias {
            name,
            values: Vec::new(),
        }
    }
    fn record(&mut self, reference: f64, other: f64) {
        self.values.push((reference - other).abs());
    }
    fn summary(&self) -> (f64, f64, f64) {
        let sum: f64 = self.values.iter().sum();
        let max = self.values.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.values.iter().cloned().fold(f64::MAX, f64::min);
        (sum / self.values.len() as f64, max, min)
    }
}

fn run_dataset(name: &str, graph: &UncertainGraph, num_pairs: usize) {
    println!(
        "== {name}: {} vertices, {} arcs ==",
        graph.num_vertices(),
        graph.num_arcs()
    );
    // Section VII-A's setting, N = 1000 (the default is the served N).
    let config = SimRankConfig::default().with_samples(1000);
    let baseline = BaselineEstimator::new(graph, config);
    let mut du = DuEtAlEstimator::new(graph, config);
    let skeleton = graph.skeleton().clone();
    let mut rng = StdRng::seed_from_u64(0xf167);

    let pairs = random_pairs(graph, num_pairs, 0x7ab1e3);
    let mut biases = vec![
        Bias::new("SimRank-II"),
        Bias::new("SimRank-III"),
        Bias::new("Jaccard-I"),
        Bias::new("Jaccard-II"),
    ];
    let mut series = Table::new(&[
        "pair",
        "SimRank-I",
        "SimRank-II",
        "SimRank-III",
        "Jaccard-I",
        "Jaccard-II",
    ]);
    for (index, &(u, v)) in pairs.iter().enumerate() {
        let simrank_1 = match baseline.try_similarity(u, v) {
            Ok(value) => value,
            Err(_) => continue, // walk budget exceeded on a hub; skip the pair
        };
        let simrank_2 = simrank_single_pair(&skeleton, u, v, config.decay, config.horizon);
        let simrank_3 = du.similarity(u, v);
        let jaccard_1 =
            monte_carlo_expected_jaccard(graph, u, v, NeighborhoodMode::In, 2000, &mut rng);
        let jaccard_2 = jaccard(&skeleton, u, v, NeighborhoodMode::In);
        biases[0].record(simrank_1, simrank_2);
        biases[1].record(simrank_1, simrank_3);
        biases[2].record(simrank_1, jaccard_1);
        biases[3].record(simrank_1, jaccard_2);
        if index < 10 {
            series.row(&[
                format!("({u},{v})"),
                fmt3(simrank_1),
                fmt3(simrank_2),
                fmt3(simrank_3),
                fmt3(jaccard_1),
                fmt3(jaccard_2),
            ]);
        }
    }
    println!("\nFig. 7 series (first 10 pairs):");
    series.print();

    println!(
        "\nTable III bias w.r.t. SimRank-I over {} pairs:",
        pairs.len()
    );
    let mut table = Table::new(&["Similarity", "Avg. Bias", "Max. Bias", "Min. Bias"]);
    for bias in &biases {
        let (avg, max, min) = bias.summary();
        table.row(&[bias.name.to_string(), fmt3(avg), fmt3(max), fmt3(min)]);
    }
    table.print();
    println!();
}

fn main() {
    let scale = scale_from_env();
    let num_pairs = pairs_from_env(60);
    println!("Fig. 7 / Table III: differences between similarity measures (scale = {scale:?})\n");
    for name in ["Net", "PPI1"] {
        let graph = dataset(name, scale);
        run_dataset(name, &graph, num_pairs);
    }
}
