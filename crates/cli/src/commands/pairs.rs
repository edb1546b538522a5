//! `usim topk-pairs` — the k most similar vertex pairs of a graph.
//!
//! On small graphs (at most `--exhaustive-below` vertices, default 150) every
//! unordered pair is evaluated; on larger graphs `--pairs` random candidate
//! pairs are drawn.  Queries run in parallel through
//! [`usim_core::par_top_k_pairs`].

use crate::args::{ArgSpec, Arguments};
use crate::estimators::{
    config_from_args, reject_unread_options, AlgorithmKind, OptionReader, CONFIG_OPTIONS,
};
use crate::graphio::load_graph;
use crate::table::{fmt_millis, fmt_score, TextTable};
use crate::CliError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ugraph::VertexId;
use usim_core::par_top_k_pairs;

const BASE_OPTIONS: &[&str] = &["k", "pairs", "algorithm", "exhaustive-below"];

fn spec() -> ArgSpec<'static> {
    static ALL: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let options = ALL.get_or_init(|| {
        let mut all = BASE_OPTIONS.to_vec();
        all.extend_from_slice(CONFIG_OPTIONS);
        all
    });
    ArgSpec {
        options,
        switches: &[],
    }
}

fn candidate_pairs(
    num_vertices: usize,
    exhaustive_below: usize,
    sampled: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    if num_vertices <= exhaustive_below {
        let n = num_vertices as VertexId;
        (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect()
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(sampled);
        while pairs.len() < sampled {
            let u = rng.gen_range(0..num_vertices) as VertexId;
            let v = rng.gen_range(0..num_vertices) as VertexId;
            if u != v {
                pairs.push((u, v));
            }
        }
        pairs
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    let path = args.require_positional(0, "the graph file")?;
    let k: usize = args.parse_option("k", 10usize)?;
    let sampled: usize = args.parse_option("pairs", 500usize)?;
    let exhaustive_below: usize = args.parse_option("exhaustive-below", 150usize)?;
    let kind = AlgorithmKind::parse(args.option("algorithm").unwrap_or("two-phase"))?;
    let config = config_from_args(&args)?;
    reject_unread_options(&args, OptionReader::Estimator(kind))?;

    let loaded = load_graph(path)?;
    let pairs = candidate_pairs(
        loaded.graph.num_vertices(),
        exhaustive_below,
        sampled,
        config.seed,
    );

    let start = Instant::now();
    let graph = &loaded.graph;
    let top = par_top_k_pairs(|| kind.build(graph, config), &pairs, k);
    let elapsed = start.elapsed();

    let mut table = TextTable::new(&["rank", "u", "v", "s(u, v)"]);
    for (rank, scored) in top.into_iter().enumerate() {
        table.row(vec![
            (rank + 1).to_string(),
            loaded.label_of(scored.pair.0).to_string(),
            loaded.label_of(scored.pair.1).to_string(),
            fmt_score(scored.score),
        ]);
    }
    let mut output = format!(
        "top-{k} most similar pairs on {path} ({} candidate pairs, {}, {} ms)\n\n",
        pairs.len(),
        kind.display_name(),
        fmt_millis(elapsed),
    );
    output.push_str(&table.render());
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("usim_cli_pairs_{}_{name}", std::process::id()));
        std::fs::write(
            &path,
            "2 0 0.9\n2 1 0.9\n3 0 0.8\n3 1 0.8\n4 5 0.2\n0 4 0.3\n",
        )
        .unwrap();
        path
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exhaustive_mode_finds_the_structurally_similar_pair_first() {
        let path = graph_file("exhaustive.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--k",
            "3",
            "--algorithm",
            "baseline",
        ]))
        .unwrap();
        // Vertices 0 and 1 share both in-neighbors (2 and 3) with high
        // probability, so (0, 1) must rank first under the exact Baseline.
        let first_data_line = output
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap_or_default();
        let cells: Vec<&str> = first_data_line.split_whitespace().collect();
        assert_eq!(&cells[1..3], &["0", "1"], "output:\n{output}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sampled_mode_caps_the_candidate_count() {
        let path = graph_file("sampled.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--k",
            "2",
            "--pairs",
            "7",
            "--exhaustive-below",
            "2",
            "--samples",
            "100",
        ]))
        .unwrap();
        assert!(output.contains("(7 candidate pairs"), "output:\n{output}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn candidate_pair_generation_is_deterministic_and_self_free() {
        let exhaustive = candidate_pairs(5, 10, 99, 1);
        assert_eq!(exhaustive.len(), 10);
        let sampled_a = candidate_pairs(1000, 10, 50, 7);
        let sampled_b = candidate_pairs(1000, 10, 50, 7);
        assert_eq!(sampled_a, sampled_b);
        assert!(sampled_a.iter().all(|&(u, v)| u != v));
    }
}
