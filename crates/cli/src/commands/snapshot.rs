//! `usim snapshot` — write and verify compiled CSR snapshots.
//!
//! ```text
//! usim snapshot write GRAPH OUT
//! usim snapshot verify PATH
//! ```
//!
//! `write` loads a graph (like every other subcommand), compiles it into
//! the CSR form the query engine runs on, and serialises the result —
//! **with** the file's label table — in the checksummed `USIMCSR1` format
//! of [`ugraph::snapshot`], whatever `OUT`'s extension.  `usim serve`
//! boots from that file without re-parsing, re-sorting or re-validating a
//! single edge, which is what makes restart latency independent of graph
//! text size (the `cold_start` bench gates the speedup); every other
//! command reads it like the text file it came from.
//!
//! `verify` reads a snapshot back, re-checking the header arithmetic, the
//! offset monotonicity and the trailing checksum, and reports its shape —
//! the preflight a deploy runs before pointing a server at the file.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::load_graph;
use crate::CliError;
use ugraph::snapshot::{read_snapshot_file, write_snapshot_file};
use ugraph::CsrGraph;

fn spec() -> ArgSpec<'static> {
    ArgSpec {
        options: &[],
        switches: &[],
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    match args.require_positional(0, "the snapshot action (\"write\" or \"verify\")")? {
        "write" => write(&args),
        "verify" => verify(&args),
        other => Err(CliError::new(format!(
            "unknown snapshot action {other:?}; expected \"write\" or \"verify\""
        ))),
    }
}

fn write(args: &Arguments) -> Result<String, CliError> {
    let input = args.require_positional(1, "the graph file")?;
    let output = args.require_positional(2, "the snapshot output path")?;
    let loaded = load_graph(input)?;
    let csr = CsrGraph::from_uncertain(&loaded.graph);
    write_snapshot_file(&csr, loaded.labels(), output)
        .map_err(|e| CliError::new(format!("{output}: {e}")))?;
    Ok(format!(
        "wrote snapshot {output}: {} vertices, {} arcs, {} labels\n",
        csr.num_vertices(),
        csr.num_arcs(),
        loaded.labels().len(),
    ))
}

fn verify(args: &Arguments) -> Result<String, CliError> {
    let path = args.require_positional(1, "the snapshot file")?;
    let snapshot = read_snapshot_file(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    Ok(format!(
        "snapshot {path} OK: {} vertices, {} arcs, labels {}\n",
        snapshot.graph.num_vertices(),
        snapshot.graph.num_arcs(),
        if snapshot.labels.is_empty() {
            "identity".to_string()
        } else {
            format!("{} stored", snapshot.labels.len())
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "usim_cli_snapshot_{}_{:?}_{name}",
            std::process::id(),
            std::thread::current().id(),
        ))
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn write_then_verify_round_trips() {
        let graph_path = temp("g.tsv");
        std::fs::write(&graph_path, "10 20 0.5\n20 30 0.75\n30 10 1.0\n").unwrap();
        let snap_path = temp("g.csr");
        let out = run(&tokens(&[
            "write",
            graph_path.to_str().unwrap(),
            snap_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("3 vertices, 3 arcs, 3 labels"), "{out}");
        let out = run(&tokens(&["verify", snap_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("OK: 3 vertices, 3 arcs"), "{out}");
        assert!(out.contains("3 stored"), "{out}");

        // The stored snapshot carries the original wire labels.
        let snapshot = read_snapshot_file(&snap_path).unwrap();
        assert_eq!(snapshot.labels, vec![10, 20, 30]);

        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&snap_path).unwrap();
    }

    #[test]
    fn verify_rejects_corruption_with_a_clean_error() {
        let graph_path = temp("c.tsv");
        std::fs::write(&graph_path, "0 1 0.5\n1 2 0.9\n").unwrap();
        let snap_path = temp("c.csr");
        run(&tokens(&[
            "write",
            graph_path.to_str().unwrap(),
            snap_path.to_str().unwrap(),
        ]))
        .unwrap();
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap_path, &bytes).unwrap();
        let err = run(&tokens(&["verify", snap_path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains(snap_path.to_str().unwrap()));
        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&snap_path).unwrap();
    }

    #[test]
    fn bad_actions_and_missing_arguments_are_clean_errors() {
        assert!(run(&tokens(&[])).is_err());
        let err = run(&tokens(&["freeze", "a", "b"])).unwrap_err();
        assert!(err.to_string().contains("freeze"), "{err}");
        let err = run(&tokens(&["write", "only-input"])).unwrap_err();
        assert!(err.to_string().contains("output"), "{err}");
    }
}
