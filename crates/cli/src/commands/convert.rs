//! `usim convert` — rewrite a graph file as a text edge list or a snapshot.
//!
//! ```text
//! usim convert IN OUT
//! ```
//!
//! `IN` is read like every other command reads a graph (snapshot by magic,
//! text otherwise); `OUT` is a snapshot when it ends in `.usim` or `.bin`
//! and text otherwise.  Both keep the input file's vertex labels.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::{load_graph, save_graph};
use crate::CliError;

const SPEC: ArgSpec<'_> = ArgSpec {
    options: &[],
    switches: &[],
};

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &SPEC)?;
    let input = args.require_positional(0, "the input graph file")?;
    let output = args.require_positional(1, "the output graph file")?;
    let loaded = load_graph(input)?;
    let format = save_graph(&loaded.graph, loaded.labels(), output)?;
    Ok(format!(
        "converted {input} -> {output} ({format}, {} vertices, {} arcs)\n",
        loaded.graph.num_vertices(),
        loaded.graph.num_arcs(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("usim_cli_convert_{}_{name}", std::process::id()))
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn text_to_binary_and_back_preserves_the_graph() {
        let text_in = temp("in.tsv");
        let binary = temp("mid.bin");
        let text_out = temp("out.tsv");
        std::fs::write(&text_in, "0 1 0.5\n1 2 0.75\n2 0 0.9\n").unwrap();

        let summary = run(&tokens(&[
            text_in.to_str().unwrap(),
            binary.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(summary.contains("(snapshot,"), "{summary}");
        run(&tokens(&[
            binary.to_str().unwrap(),
            text_out.to_str().unwrap(),
        ]))
        .unwrap();

        let original = load_graph(text_in.to_str().unwrap()).unwrap();
        let roundtripped = load_graph(text_out.to_str().unwrap()).unwrap();
        assert_eq!(original.graph.num_arcs(), roundtripped.graph.num_arcs());
        for path in [&text_in, &binary, &text_out] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn missing_arguments_are_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&tokens(&["only_one_file.tsv"])).is_err());
    }
}
