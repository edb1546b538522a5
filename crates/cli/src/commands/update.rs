//! `usim update` — apply an arc-update file to a graph through the dynamic
//! [`ugraph::DeltaOverlay`] and write the mutated graph back out.
//!
//! ```text
//! usim update GRAPH --updates FILE --out OUT
//! ```
//!
//! The update file format is documented in [`crate::updates`]: `+ u v p`
//! inserts, `- u v` deletes, `= u v p` re-weights, `---` separates rounds,
//! all in the graph file's original labels.  Rounds are applied as atomic
//! batches in order — a rejected round (duplicate insert, missing arc,
//! invalid probability, …) aborts the command and nothing is written.
//!
//! `OUT` is written like `usim convert` writes (a snapshot for `.usim` /
//! `.bin`, text otherwise), in the input file's original vertex labels.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::{load_graph, save_graph};
use crate::updates::read_update_rounds;
use crate::CliError;
use ugraph::DeltaOverlay;

fn spec() -> ArgSpec<'static> {
    ArgSpec {
        options: &["updates", "out"],
        switches: &[],
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    let path = args.require_positional(0, "the graph file")?;
    let updates_path = args.require_option::<String>("updates")?;
    let out_path = args.require_option::<String>("out")?;

    let loaded = load_graph(path)?;
    let rounds = read_update_rounds(&updates_path, &loaded)?;

    let mut overlay = DeltaOverlay::new(loaded.graph.clone());
    let arcs_before = overlay.num_arcs();
    let mut output = String::new();
    let (mut inserted, mut deleted, mut reweighted, mut compactions) = (0usize, 0usize, 0usize, 0);
    for (index, round) in rounds.iter().enumerate() {
        let summary = overlay.apply_all(round).map_err(|e| {
            CliError::new(format!(
                "{updates_path}: round {}: {}",
                index + 1,
                crate::updates::describe_update_error(&e, &loaded)
            ))
        })?;
        inserted += summary.inserted;
        deleted += summary.deleted;
        reweighted += summary.reweighted;
        compactions += usize::from(summary.compacted);
        output.push_str(&crate::updates::format_round_summary(index + 1, &summary));
        output.push('\n');
    }

    // to_graph reads through the merged overlay views, so no final
    // compaction is needed to serialise the live graph.
    let mutated = overlay.to_graph();
    let format = save_graph(&mutated, loaded.labels(), &out_path)?;
    output.push_str(&format!(
        "applied {} updates in {} rounds to {path} ({arcs_before} -> {} arcs, \
         {inserted} inserted, {deleted} deleted, {reweighted} reweighted, \
         {compactions} compactions)\n",
        inserted + deleted + reweighted,
        rounds.len(),
        mutated.num_arcs(),
    ));
    output.push_str(&format!("wrote {out_path} ({format}, original labels)\n"));
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "usim_cli_update_{}_{}_{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn applies_rounds_and_writes_labeled_text() {
        let graph_path = temp("g.tsv");
        std::fs::write(&graph_path, "10 20 0.5\n20 30 0.9\n30 10 0.2\n").unwrap();
        let updates_path = temp("u.txt");
        std::fs::write(&updates_path, "+ 10 30 0.4\n= 10 20 0.6\n---\n- 20 30\n").unwrap();
        let out_path = temp("out.tsv");
        let output = run(&tokens(&[
            graph_path.to_str().unwrap(),
            "--updates",
            updates_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(output.contains("round 1: +1 -0 =1"), "{output}");
        assert!(output.contains("round 2: +0 -1 =0"), "{output}");
        assert!(output.contains("3 -> 3 arcs"), "{output}");

        // The written file speaks the original labels and reloads cleanly.
        let text = std::fs::read_to_string(&out_path).unwrap();
        assert!(text.contains("10 30 0.4"), "{text}");
        assert!(text.contains("10 20 0.6"), "{text}");
        assert!(!text.contains("20 30"), "{text}");
        let reloaded = load_graph(out_path.to_str().unwrap()).unwrap();
        assert_eq!(reloaded.graph.num_arcs(), 3);
        let (u, v) = (
            reloaded.vertex_for_label(10).unwrap(),
            reloaded.vertex_for_label(20).unwrap(),
        );
        assert_eq!(reloaded.graph.arc_probability(u, v), Some(0.6));
        for p in [&graph_path, &updates_path, &out_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn rejected_rounds_abort_without_writing() {
        let graph_path = temp("bad_g.tsv");
        std::fs::write(&graph_path, "0 1 0.5\n").unwrap();
        let updates_path = temp("bad_u.txt");
        // Second round deletes a missing arc.
        std::fs::write(&updates_path, "+ 1 0 0.5\n---\n- 0 9999\n").unwrap();
        let out_path = temp("bad_out.tsv");
        let err = run(&tokens(&[
            graph_path.to_str().unwrap(),
            "--updates",
            updates_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("9999"), "{err}");
        assert!(!out_path.exists(), "nothing must be written on failure");

        // An invalid probability surfaces the typed overlay error.
        std::fs::write(&updates_path, "+ 1 0 1.5\n").unwrap();
        let err = run(&tokens(&[
            graph_path.to_str().unwrap(),
            "--updates",
            updates_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("round 1") && err.to_string().contains("(0, 1]"),
            "{err}"
        );
        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&updates_path).unwrap();
    }

    #[test]
    fn missing_required_options_are_errors() {
        let graph_path = temp("opts_g.tsv");
        std::fs::write(&graph_path, "0 1 0.5\n").unwrap();
        assert!(run(&tokens(&[graph_path.to_str().unwrap()])).is_err());
        assert!(run(&tokens(&[
            graph_path.to_str().unwrap(),
            "--updates",
            "x.txt"
        ]))
        .is_err());
        std::fs::remove_file(&graph_path).unwrap();
    }
}
