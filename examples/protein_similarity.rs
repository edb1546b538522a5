//! Detecting functionally similar proteins in an uncertain PPI network
//! (Application 1 of the paper's introduction, case study of Section VII-C).
//!
//! A synthetic PPI network with planted protein complexes stands in for the
//! real STRING/MIPS data; the example ranks protein pairs by uncertain
//! SimRank (USIM) and by SimRank on the skeleton (DSIM) and reports how many
//! of the top pairs fall inside a planted complex.
//!
//! Run with `cargo run --release --example protein_similarity`.

use uncertain_simrank::prelude::*;
use uncertain_simrank::simrank::top_k::top_k_pairs;
use uncertain_simrank::simrank::DeterministicSimRank;

fn main() {
    let dataset = PpiGenerator {
        num_proteins: 400,
        num_complexes: 50,
        complex_size: (3, 6),
        noise_edges: 600,
        seed: 2024,
        ..Default::default()
    }
    .generate();
    let graph = &dataset.graph;
    println!(
        "PPI network: {} proteins, {} interactions, {} planted complexes\n",
        graph.num_vertices(),
        graph.num_arcs() / 2,
        dataset.complexes.len()
    );

    // Candidate pairs: proteins that share at least one possible neighbor.
    let mut candidates = std::collections::HashSet::new();
    for w in graph.vertices() {
        let neighbors = graph.out_neighbors(w);
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                candidates.insert((a.min(b), a.max(b)));
            }
        }
    }
    println!("{} candidate protein pairs\n", candidates.len());

    let config = SimRankConfig::default().with_samples(300).with_seed(9);
    let mut usim = SpeedupEstimator::new(graph, config);
    let top_usim = top_k_pairs(&mut usim, candidates.iter().copied(), 10);
    let mut dsim = DeterministicSimRank::new(graph.skeleton(), config.decay, config.horizon);
    let top_dsim = top_k_pairs(&mut dsim, candidates.iter().copied(), 10);

    let mut usim_hits = 0;
    let mut dsim_hits = 0;
    println!("top-10 protein pairs (USIM = uncertainty-aware, DSIM = skeleton only):");
    for rank in 0..10 {
        let u = &top_usim[rank];
        let d = &top_dsim[rank];
        let u_same = dataset.same_complex(u.pair.0, u.pair.1);
        let d_same = dataset.same_complex(d.pair.0, d.pair.1);
        usim_hits += i32::from(u_same);
        dsim_hits += i32::from(d_same);
        println!(
            "  #{:<2} USIM ({:>3},{:>3}) {:.4} same-complex={:<5}  DSIM ({:>3},{:>3}) {:.4} same-complex={}",
            rank + 1,
            u.pair.0,
            u.pair.1,
            u.score,
            u_same,
            d.pair.0,
            d.pair.1,
            d.score,
            d_same
        );
    }
    println!("\nwithin-complex pairs in the top 10: USIM {usim_hits}, DSIM {dsim_hits}");
    println!("(the uncertainty-aware measure should place more true complex pairs at the top)");
}
