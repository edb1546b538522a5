//! Table I reproduction: the worked `WalkPr` example.
//!
//! The paper walks through `WalkPr` on the uncertain graph of Fig. 1(a) for
//! the walk `v1 v3 v1 v3 v4 v2 v3 v4 v2`, tabulating `O_W(v)`, `c_W(v)`,
//! `O_G(v) \ O_W(v)`, the `r(n, x)` table and `α_W(v)` per vertex.  The arc
//! endpoints of Fig. 1(a) are not fully specified in the text, so the graph
//! below is reverse-engineered from the rows of Table I (the deduced out-arcs
//! are listed in the comment above its construction);
//! with it, every α value matches the paper except α(v1), whose published
//! value (0.64) is inconsistent with the paper's own Eq. (11) — we obtain
//! P(v1→v3) = 0.8, and flag the discrepancy in the output.

use rwalk::walk::Walk;
use rwalk::walkpr::{alpha, walk_probability};
use ugraph::UncertainGraphBuilder;
use usim_bench::Table;

fn main() {
    // Graph consistent with the deducible rows of Table I:
    //   O_G(v1) = {v3: 0.8}
    //   O_G(v2) = {v1: 0.8, v3: 0.9}
    //   O_G(v3) = {v1: 0.5, v4: 0.6}
    //   O_G(v4) = {v2: 0.7, v5: 0.6}
    //   plus one arc out of v5 to reach the 8 arcs of Fig. 1(a).
    let g = UncertainGraphBuilder::new(5)
        .arc(0, 2, 0.8)
        .arc(1, 0, 0.8)
        .arc(1, 2, 0.9)
        .arc(2, 0, 0.5)
        .arc(2, 3, 0.6)
        .arc(3, 1, 0.7)
        .arc(3, 4, 0.6)
        .arc(4, 2, 0.8)
        .build()
        .expect("hand-built graph is valid");

    // The walk of Table I, 0-indexed: v1 v3 v1 v3 v4 v2 v3 v4 v2.
    let walk = Walk::from_vertices(vec![0, 2, 0, 2, 3, 1, 2, 3, 1]);
    println!("Table I: WalkPr on the walk v1 v3 v1 v3 v4 v2 v3 v4 v2\n");

    let mut table = Table::new(&["vertex", "O_W(v)", "c_W(v)", "alpha_W(v)", "paper"]);
    let paper_alpha = [("v1", 0.64), ("v2", 0.54), ("v3", 0.0375), ("v4", 0.385)];
    let mut product = 1.0;
    for (v, stats) in walk.vertex_stats() {
        if stats.out_count == 0 {
            continue;
        }
        let a = alpha(&g, v, &stats.out_neighbors, stats.out_count);
        product *= a;
        let label = format!("v{}", v + 1);
        let paper = paper_alpha
            .iter()
            .find(|(name, _)| *name == label)
            .map(|(_, value)| format!("{value}"))
            .unwrap_or_else(|| "-".to_string());
        let neighbors = stats
            .out_neighbors
            .iter()
            .map(|w| format!("v{}", w + 1))
            .collect::<Vec<_>>()
            .join(",");
        table.row(&[
            label,
            format!("{{{neighbors}}}"),
            stats.out_count.to_string(),
            format!("{a:.4}"),
            paper,
        ]);
    }
    table.print();

    let direct = walk_probability(&g, &walk);
    println!("\nWalk probability (product of alphas): {product:.7}");
    println!("Walk probability (WalkPr):            {direct:.7}");
    println!("Paper's reported product:             0.0049896");
    println!(
        "\nNote: the paper's alpha(v1) = 0.64 is inconsistent with its own Eq. (11) \
         (it equals P(v1->v3)^2 rather than P(v1->v3)); every other row matches."
    );
    assert!((product - direct).abs() < 1e-12);
}
