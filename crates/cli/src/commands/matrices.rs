//! `usim matrices` — k-step transition probability matrices of an uncertain
//! graph.
//!
//! With `--source U` only the rows `Pr(U →ₖ ·)` are computed (the
//! single-source restriction the Baseline estimator uses); without it the
//! full matrices `W(1)..W(K)` are enumerated, which is only feasible on small
//! graphs.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::load_graph;
use crate::table::TextTable;
use crate::CliError;
use rwalk::transpr::{transition_matrices, transition_rows_from, TransPrOptions};

const SPEC: ArgSpec<'_> = ArgSpec {
    options: &["steps", "source", "max-walks", "prune"],
    switches: &[],
};

fn options_from_args(args: &Arguments) -> Result<TransPrOptions, CliError> {
    let defaults = TransPrOptions::default();
    Ok(TransPrOptions {
        max_walks: args.parse_option("max-walks", defaults.max_walks)?,
        prune_threshold: args.parse_option("prune", defaults.prune_threshold)?,
    })
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &SPEC)?;
    let path = args.require_positional(0, "the graph file")?;
    let steps: usize = args.parse_option("steps", 3usize)?;
    if steps == 0 {
        return Err(CliError::new("--steps must be at least 1"));
    }
    let options = options_from_args(&args)?;
    let loaded = load_graph(path)?;
    let graph = &loaded.graph;

    if let Some(source_raw) = args.option("source") {
        let source_label: u64 = source_raw
            .parse()
            .map_err(|e| CliError::new(format!("invalid value for --source: {e}")))?;
        let source = loaded.vertex_for_label(source_label)?;
        let rows = transition_rows_from(graph, source, steps, &options)?;
        let mut table = TextTable::new(&[
            "k",
            "reachable vertices",
            "survival Σ_v Pr(u→k v)",
            "max entry",
        ]);
        for (k, row) in rows.iter().enumerate().skip(1) {
            let max_entry = row.iter().map(|(_, p)| p).fold(0.0f64, f64::max);
            table.row(vec![
                k.to_string(),
                row.nnz().to_string(),
                format!("{:.6}", row.sum()),
                format!("{:.6}", max_entry),
            ]);
        }
        let mut output = format!(
            "single-source transition rows Pr({source_label} →k ·) on {path} (prune = {})\n\n",
            options.prune_threshold
        );
        output.push_str(&table.render());
        return Ok(output);
    }

    let matrices = transition_matrices(graph, steps, &options)?;
    let mut table = TextTable::new(&["k", "min row survival", "max row survival", "max entry"]);
    for k in 1..=steps {
        let sums = matrices.step(k).row_sums();
        let min = sums.iter().copied().fold(f64::INFINITY, f64::min);
        let max = sums.iter().copied().fold(0.0f64, f64::max);
        let max_entry = matrices
            .step(k)
            .as_slice()
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        table.row(vec![
            k.to_string(),
            format!("{min:.6}"),
            format!("{max:.6}"),
            format!("{max_entry:.6}"),
        ]);
    }
    let mut output = format!(
        "transition probability matrices W(1)..W({steps}) on {path} ({} vertices)\n\n",
        graph.num_vertices()
    );
    output.push_str(&table.render());

    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("usim_cli_matrices_{}_{name}", std::process::id()));
        std::fs::write(
            &path,
            "0 2 0.8\n0 3 0.5\n1 0 0.8\n1 2 0.9\n2 0 0.7\n2 3 0.6\n3 4 0.6\n3 1 0.8\n",
        )
        .unwrap();
        path
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn full_matrices_report_survival_ranges() {
        let path = fig1_file("full.tsv");
        let output = run(&tokens(&[path.to_str().unwrap(), "--steps", "3"])).unwrap();
        assert!(output.contains("W(1)..W(3)"));
        assert_eq!(
            output
                .lines()
                .filter(|l| l.trim_start().starts_with(['1', '2', '3']))
                .count(),
            3
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_source_rows_report_reachability() {
        let path = fig1_file("rows.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--steps",
            "4",
            "--source",
            "1",
        ]))
        .unwrap();
        assert!(output.contains("Pr(1 →k ·)"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_steps_and_tiny_walk_budget_are_reported() {
        let path = fig1_file("budget.tsv");
        assert!(run(&tokens(&[path.to_str().unwrap(), "--steps", "0"])).is_err());
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--steps",
            "4",
            "--max-walks",
            "2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("budget"));
        std::fs::remove_file(&path).unwrap();
    }
}
