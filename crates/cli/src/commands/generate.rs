//! `usim generate` — generate a synthetic uncertain graph and write it to a
//! file.
//!
//! Two sources are supported: a named dataset from the Table II registry
//! (`--dataset Net --scale ci|paper`) or a custom R-MAT graph
//! (`--rmat-scale 13 --edges 50000`), matching the generators used by the
//! paper's scalability experiment.  `--out` ending in `.usim` or `.bin`
//! writes a snapshot (isolated vertices included), anything else text.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::save_graph;
use crate::CliError;
use ugraph::stats::uncertain_graph_stats;
use ugraph::UncertainGraph;
use usim_datasets::registry::find_spec;
use usim_datasets::{ci_registry, paper_registry, RmatGenerator};

const SPEC: ArgSpec<'_> = ArgSpec {
    options: &["dataset", "scale", "rmat-scale", "edges", "seed", "out"],
    switches: &[],
};

fn generate_graph(args: &Arguments) -> Result<(UncertainGraph, String), CliError> {
    match (args.option("dataset"), args.option("rmat-scale")) {
        (Some(_), Some(_)) => Err(CliError::new(
            "--dataset and --rmat-scale are mutually exclusive",
        )),
        (Some(name), None) => {
            let registry = match args.option("scale").unwrap_or("ci") {
                "ci" => ci_registry(),
                "paper" => paper_registry(),
                other => {
                    return Err(CliError::new(format!(
                        "unknown scale {other:?}; expected \"ci\" or \"paper\""
                    )))
                }
            };
            let spec = find_spec(&registry, name).ok_or_else(|| {
                CliError::new(format!(
                    "unknown dataset {name:?}; run `usim datasets` for the available names"
                ))
            })?;
            Ok((spec.generate(), format!("dataset {}", spec.name)))
        }
        (None, Some(_)) => {
            let scale: u32 = args.require_option("rmat-scale")?;
            if scale > 28 {
                return Err(CliError::new(
                    "--rmat-scale larger than 28 is not supported",
                ));
            }
            let edges: usize = args.parse_option("edges", 1usize << (scale + 2))?;
            let seed: u64 = args.parse_option("seed", 0x0a7u64)?;
            let generator = RmatGenerator {
                scale,
                num_edges: edges,
                seed,
                ..Default::default()
            };
            Ok((
                generator.generate(),
                format!("R-MAT scale {scale}, {edges} staged edges"),
            ))
        }
        (None, None) => Err(CliError::new(
            "specify either --dataset <name> or --rmat-scale <s>",
        )),
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &SPEC)?;
    let out: String = args.require_option("out")?;
    let (graph, description) = generate_graph(&args)?;
    let format = save_graph(&graph, &[], &out)?;
    let stats = uncertain_graph_stats(&graph);
    Ok(format!(
        "generated {description}: {} vertices, {} arcs (mean probability {:.3}) -> {} ({})\n",
        graph.num_vertices(),
        graph.num_arcs(),
        stats.mean_probability,
        out,
        format,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphio::load_graph;

    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("usim_cli_generate_{}_{name}", std::process::id()))
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generates_a_registry_dataset_to_text() {
        let path = temp_file("net.tsv");
        let out = run(&tokens(&[
            "--dataset",
            "Net",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("dataset Net"));
        let loaded = load_graph(path.to_str().unwrap()).unwrap();
        assert!(loaded.graph.num_vertices() > 100);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generates_a_custom_rmat_graph_to_binary() {
        let path = temp_file("rmat.bin");
        let out = run(&tokens(&[
            "--rmat-scale",
            "8",
            "--edges",
            "2000",
            "--seed",
            "3",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("R-MAT"));
        let loaded = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 256);
        assert!(loaded.graph.num_arcs() > 500);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn conflicting_and_missing_sources_are_rejected() {
        assert!(run(&tokens(&["--out", "x.tsv"])).is_err());
        assert!(run(&tokens(&[
            "--dataset",
            "Net",
            "--rmat-scale",
            "8",
            "--out",
            "x.tsv"
        ]))
        .is_err());
        assert!(run(&tokens(&["--dataset", "NoSuchDataset", "--out", "x.tsv"])).is_err());
        assert!(run(&tokens(&[
            "--dataset",
            "Net",
            "--scale",
            "huge",
            "--out",
            "x.tsv"
        ]))
        .is_err());
        // --out is required.
        assert!(run(&tokens(&["--dataset", "Net"])).is_err());
    }
}
