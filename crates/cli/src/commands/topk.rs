//! `usim topk` — the k vertices most similar to a source vertex.
//!
//! By default this uses the single-source estimator
//! ([`usim_core::SingleSourceEstimator`]), which answers all `|V|` targets in
//! one pass instead of issuing `|V|` single-pair queries; `--exact-source`
//! switches the source side from a sampled walk to the exact transition rows
//! (lower variance, but subject to the exact enumeration's walk budget).
//!
//! `--engine batch` ranks through the CSR batch engine
//! ([`usim_core::QueryEngine`]) instead: one independent pair query per
//! candidate, sharded across rayon workers (`--threads N` pins the count),
//! with thread-count-invariant output.

use crate::args::{ArgSpec, Arguments};
use crate::estimators::{config_from_args, reject_unread_options, OptionReader, CONFIG_OPTIONS};
use crate::graphio::load_graph;
use crate::table::{fmt_millis, fmt_score, TextTable};
use crate::CliError;
use std::time::Instant;
use ugraph::VertexId;
use usim_core::{QueryEngine, ScoredVertex, SingleSourceEstimator, SourceMode};

const BASE_OPTIONS: &[&str] = &["source", "k", "engine", "threads"];

fn spec() -> ArgSpec<'static> {
    static ALL: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let options = ALL.get_or_init(|| {
        let mut all = BASE_OPTIONS.to_vec();
        all.extend_from_slice(CONFIG_OPTIONS);
        all
    });
    ArgSpec {
        options,
        switches: &["exact-source"],
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    let path = args.require_positional(0, "the graph file")?;
    let source_label: u64 = args.require_option("source")?;
    let k: usize = args.parse_option("k", 10usize)?;
    let config = config_from_args(&args)?;

    let loaded = load_graph(path)?;
    let source = loaded.vertex_for_label(source_label)?;

    let engine_kind = args.option("engine").unwrap_or("single-source");
    let start = Instant::now();
    let (top, how): (Vec<ScoredVertex>, String) = match engine_kind {
        "single-source" => {
            reject_unread_options(&args, OptionReader::SingleSource)?;
            let mode = if args.switch("exact-source") {
                SourceMode::Exact
            } else {
                SourceMode::Sampled
            };
            let mut estimator =
                SingleSourceEstimator::new(&loaded.graph, config).with_source_mode(mode);
            let result = estimator.try_query(source)?;
            (result.top_k(k), format!("source mode = {mode:?}"))
        }
        "batch" => {
            if args.switch("exact-source") {
                return Err(CliError::new(
                    "--exact-source requires --engine single-source; the batch engine \
                     always samples the source side",
                ));
            }
            reject_unread_options(&args, OptionReader::Engine)?;
            let threads: usize = args.parse_option("threads", 0usize)?;
            let engine = QueryEngine::new(&loaded.graph, config);
            let candidates: Vec<VertexId> = (0..loaded.graph.num_vertices() as VertexId).collect();
            let pool = crate::exec::build_thread_pool(threads)?;
            let top = crate::exec::install_in(pool.as_ref(), || {
                engine.batch_top_k_similar_to(source, &candidates, k)
            })
            .map_err(|e| CliError::new(e.to_string()))?;
            let how = format!(
                "batch engine, threads = {}",
                crate::exec::describe_threads(threads)
            );
            (top, how)
        }
        other => {
            return Err(CliError::new(format!(
                "unknown engine {other:?}; expected \"single-source\" or \"batch\""
            )))
        }
    };
    let elapsed = start.elapsed();

    let mut table = TextTable::new(&["rank", "vertex", "s(source, vertex)"]);
    for (rank, scored) in top.into_iter().enumerate() {
        table.row(vec![
            (rank + 1).to_string(),
            loaded.label_of(scored.vertex).to_string(),
            fmt_score(scored.score),
        ]);
    }
    let mut output = format!(
        "top-{k} vertices most similar to {source_label} on {path} \
         (N = {}, n = {}, {how}, {} ms)\n\n",
        config.num_samples,
        config.horizon,
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
            std::env::temp_dir().join(format!("usim_cli_topk_{}_{name}", std::process::id()));
        // Vertices 0 and 1 share in-neighbor 2; vertex 4 shares nothing.
        std::fs::write(&path, "2 0 0.9\n2 1 0.8\n3 2 0.7\n0 3 0.5\n1 4 0.6\n").unwrap();
        path
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ranks_the_sibling_vertex_first() {
        let path = graph_file("rank.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--k",
            "3",
            "--samples",
            "800",
            "--seed",
            "5",
        ]))
        .unwrap();
        let first_data_line = output
            .lines()
            .find(|l| l.trim_start().starts_with('1'))
            .unwrap_or_default();
        assert!(
            first_data_line.split_whitespace().nth(1) == Some("1"),
            "vertex 1 should rank first:\n{output}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exact_source_mode_works() {
        let path = graph_file("exact.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--k",
            "2",
            "--samples",
            "300",
            "--exact-source",
        ]))
        .unwrap();
        assert!(output.contains("Exact"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_engine_ranks_the_sibling_first_and_is_thread_invariant() {
        let path = graph_file("engine.tsv");
        let base = |threads: &str| {
            tokens(&[
                path.to_str().unwrap(),
                "--source",
                "0",
                "--k",
                "3",
                "--samples",
                "600",
                "--seed",
                "5",
                "--engine",
                "batch",
                "--threads",
                threads,
            ])
        };
        let out_1 = run(&base("1")).unwrap();
        let out_4 = run(&base("4")).unwrap();
        assert!(out_1.contains("batch engine"), "{out_1}");
        let table = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(table(&out_1), table(&out_4));
        let first_data_line = out_1
            .lines()
            .find(|l| l.trim_start().starts_with('1'))
            .unwrap_or_default();
        assert!(
            first_data_line.split_whitespace().nth(1) == Some("1"),
            "vertex 1 should rank first:\n{out_1}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let path = graph_file("badengine.tsv");
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--engine",
            "warp",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exact_source_conflicts_with_the_batch_engine() {
        let path = graph_file("conflict.tsv");
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--engine",
            "batch",
            "--exact-source",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("single-source"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_source_is_an_error() {
        let path = graph_file("missing.tsv");
        assert!(run(&tokens(&[path.to_str().unwrap()])).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn each_engine_rejects_the_options_it_does_not_read() {
        let path = graph_file("unread.tsv");
        let graph = path.to_str().unwrap();
        let with = |extra: &[&str]| {
            let base = [graph, "--source", "0", "--k", "2", "--samples", "50"];
            run(&tokens(&[&base[..], extra].concat())).map_err(|e| e.to_string())
        };
        assert!(with(&["--engine", "batch", "--sampler", "alias"]).is_ok());
        for engine in ["batch", "single-source"] {
            let err = with(&["--engine", engine, "--phase-switch", "2"]).unwrap_err();
            assert!(err.contains("--phase-switch"), "{engine}: {err}");
        }
        let err = with(&["--sampler", "alias"]).unwrap_err();
        assert!(
            err.contains("--sampler") && err.contains("batch engine"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
