//! Fig. 14 reproduction: the top-5 proteins most similar to a query protein.
//!
//! The paper queries the protein BUB1 and reports its top-5 most similar
//! proteins under the uncertain SimRank measure, noting that the top hit
//! (RGA1) is supported by independent biological evidence.  With the
//! planted-complex stand-in, the query protein is a member of a planted
//! complex and the check is how many of its top-5 neighbors by USIM belong to
//! the same complex, contrasted with the deterministic DSIM ranking.

use usim_bench::Table;
use usim_core::{top_k::top_k_similar_to, DeterministicSimRank, SimRankConfig, SpeedupEstimator};
use usim_datasets::PpiGenerator;

fn main() {
    let dataset = PpiGenerator {
        num_proteins: 500,
        num_complexes: 60,
        complex_size: (4, 7),
        noise_edges: 700,
        seed: 0xf14,
        ..Default::default()
    }
    .generate();
    let graph = &dataset.graph;

    // Query protein: the first member of the first planted complex (the
    // stand-in for BUB1).
    let query = dataset.complexes[0][0];
    let complex = dataset.complex_of[query as usize].expect("query is in a complex");
    println!(
        "Fig. 14: top-5 proteins similar to the query protein {query} \
         (member of planted complex {complex}, size {})\n",
        dataset.complexes[complex].len()
    );

    // Candidates: every protein within two hops of the query.
    let mut candidates = std::collections::HashSet::new();
    for &n1 in graph.out_neighbors(query) {
        candidates.insert(n1);
        for &n2 in graph.out_neighbors(n1) {
            candidates.insert(n2);
        }
    }
    candidates.remove(&query);
    println!("{} candidate proteins within two hops\n", candidates.len());

    let config = SimRankConfig::default().with_samples(500).with_seed(0xf14);
    let mut usim = SpeedupEstimator::new(graph, config);
    let top_usim = top_k_similar_to(&mut usim, query, candidates.iter().copied(), 5);
    let mut dsim = DeterministicSimRank::new(graph.skeleton(), config.decay, config.horizon);
    let top_dsim = top_k_similar_to(&mut dsim, query, candidates.iter().copied(), 5);

    let mut table = Table::new(&[
        "rank",
        "USIM protein",
        "score",
        "same complex?",
        "DSIM protein",
        "score",
        "same complex?",
    ]);
    let mut usim_hits = 0;
    let mut dsim_hits = 0;
    for rank in 0..5 {
        let u = &top_usim[rank];
        let d = &top_dsim[rank];
        let u_hit = dataset.same_complex(query, u.vertex);
        let d_hit = dataset.same_complex(query, d.vertex);
        usim_hits += i32::from(u_hit);
        dsim_hits += i32::from(d_hit);
        table.row(&[
            (rank + 1).to_string(),
            u.vertex.to_string(),
            format!("{:.4}", u.score),
            if u_hit { "yes" } else { "no" }.to_string(),
            d.vertex.to_string(),
            format!("{:.4}", d.score),
            if d_hit { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nTop-5 in the query's own complex: USIM {usim_hits}/5, DSIM {dsim_hits}/5 \
         (the paper validates its top hit, RGA1 for BUB1, against independent biology)."
    );
}
