//! Fig. 13 reproduction: top-20 similar protein pairs found with (USIM) and
//! without (DSIM) taking uncertainty into account.
//!
//! The paper ranks protein pairs of PPI1 by uncertain SimRank (USIM) and by
//! classic SimRank on the skeleton (DSIM) and checks how many of the top 20
//! pairs belong to the same MIPS protein complex (16/20 for USIM vs 6/20 for
//! DSIM).  Our PPI stand-in plants the complexes itself, so the same check is
//! run against the planted ground truth.

use ugraph::VertexId;
use usim_bench::Table;
use usim_core::DeterministicSimRank;
use usim_core::{top_k::top_k_pairs, SimRankConfig, SpeedupEstimator};
use usim_datasets::PpiGenerator;

/// Candidate pairs: vertices that share at least one possible in-neighbor
/// (any pair without a shared neighbor has SimRank close to zero at n = 1 and
/// cannot reach the top of the ranking).
fn candidate_pairs(graph: &ugraph::UncertainGraph) -> Vec<(VertexId, VertexId)> {
    let mut pairs = std::collections::HashSet::new();
    for w in graph.vertices() {
        let out = graph.out_neighbors(w);
        for (i, &a) in out.iter().enumerate() {
            for &b in &out[i + 1..] {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
    }
    pairs.into_iter().collect()
}

fn main() {
    let generator = PpiGenerator {
        num_proteins: 500,
        num_complexes: 60,
        complex_size: (3, 6),
        noise_edges: 700,
        seed: 0xf13,
        ..Default::default()
    };
    let dataset = generator.generate();
    let graph = &dataset.graph;
    println!(
        "Fig. 13: top-20 similar protein pairs (planted-complex PPI stand-in, {} proteins, {} complexes)\n",
        graph.num_vertices(),
        dataset.complexes.len()
    );
    let candidates = candidate_pairs(graph);
    println!(
        "{} candidate pairs share at least one possible neighbor",
        candidates.len()
    );

    let config = SimRankConfig::default().with_samples(400).with_seed(0xf13);
    let mut usim = SpeedupEstimator::new(graph, config);
    let top_usim = top_k_pairs(&mut usim, candidates.iter().copied(), 20);

    let mut dsim = DeterministicSimRank::new(graph.skeleton(), config.decay, config.horizon);
    let top_dsim = top_k_pairs(&mut dsim, candidates.iter().copied(), 20);

    let mut table = Table::new(&[
        "rank",
        "USIM pair",
        "same complex?",
        "DSIM pair",
        "same complex?",
    ]);
    let mut usim_hits = 0usize;
    let mut dsim_hits = 0usize;
    for rank in 0..20 {
        let (u_pair, u_hit) = match top_usim.get(rank) {
            Some(scored) => {
                let hit = dataset.same_complex(scored.pair.0, scored.pair.1);
                (format!("({}, {})", scored.pair.0, scored.pair.1), hit)
            }
            None => ("-".to_string(), false),
        };
        let (d_pair, d_hit) = match top_dsim.get(rank) {
            Some(scored) => {
                let hit = dataset.same_complex(scored.pair.0, scored.pair.1);
                (format!("({}, {})", scored.pair.0, scored.pair.1), hit)
            }
            None => ("-".to_string(), false),
        };
        usim_hits += usize::from(u_hit);
        dsim_hits += usize::from(d_hit);
        table.row(&[
            (rank + 1).to_string(),
            u_pair,
            if u_hit { "yes" } else { "no" }.to_string(),
            d_pair,
            if d_hit { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nPairs within the same planted complex: USIM {usim_hits}/20, DSIM {dsim_hits}/20 \
         (paper: 16/20 vs 6/20 against MIPS complexes)."
    );
}
