//! `usim datasets` — list the synthetic dataset registry.

use crate::args::{ArgSpec, Arguments};
use crate::table::TextTable;
use crate::CliError;
use usim_datasets::{ci_registry, paper_registry};

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let _ = Arguments::parse(tokens, &ArgSpec::default())?;
    let ci = ci_registry();
    let paper = paper_registry();
    let mut table = TextTable::new(&[
        "name",
        "generator",
        "|V| (ci)",
        "~|E| (ci)",
        "|V| (paper)",
        "|E| (paper)",
    ]);
    for spec in &ci {
        let published = paper.iter().find(|p| p.name == spec.name).unwrap_or(spec);
        table.row(vec![
            spec.name.to_string(),
            format!("{:?}", spec.generator),
            spec.num_vertices.to_string(),
            spec.num_edges.to_string(),
            published.paper_vertices.to_string(),
            published.paper_edges.to_string(),
        ]);
    }
    let mut output = String::from(
        "Synthetic stand-ins for the datasets of Table II (see crates/datasets/src/lib.rs for the substitutions)\n\n",
    );
    output.push_str(&table.render());
    output.push_str("\nUse `usim generate --dataset <name> --scale ci|paper --out <file>` to materialise one.\n");
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_every_registry_entry() {
        let output = run(&[]).unwrap();
        for name in ["PPI1", "PPI2", "PPI3", "Condmat", "Net", "DBLP"] {
            assert!(output.contains(name), "missing {name} in:\n{output}");
        }
    }

    #[test]
    fn rejects_unknown_options() {
        let err = run(&["--bogus".to_string(), "1".to_string()]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }
}
