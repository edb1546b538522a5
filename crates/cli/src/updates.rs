//! Parsing of arc-update files (`usim update`, `usim simrank --updates`).
//!
//! An update file speaks the graph file's *original labels* and has one
//! update per line:
//!
//! ```text
//! # insert an arc with probability 0.8 (word form: insert U V P)
//! + 10 20 0.8
//! # delete an arc                      (word form: delete U V)
//! - 10 30
//! # replace an arc's probability      (word form: set U V P)
//! = 20 30 0.55
//! ---
//! # `---` separates update *rounds*; `usim simrank --batch --updates`
//! # re-answers the whole pair batch after each round, `usim update`
//! # applies the rounds in order.
//! + 30 10 0.25
//! ```
//!
//! Blank lines and `#` comments are skipped.  Every parse failure — bad
//! opcode, wrong field count, unparsable number, label that does not appear
//! in the graph — is reported with the offending 1-based line number.

use crate::graphio::LoadedGraph;
use crate::CliError;
use ugraph::{GraphUpdate, UpdateError, UpdateSummary};

/// The one-line round report shared by `usim update` and the churn mode of
/// `usim simrank --batch` (1-based `round`).
pub fn format_round_summary(round: usize, summary: &UpdateSummary) -> String {
    format!(
        "round {round}: +{} -{} ={} arcs -> {} live{}",
        summary.inserted,
        summary.deleted,
        summary.reweighted,
        summary.num_arcs,
        if summary.compacted { ", compacted" } else { "" },
    )
}

/// Renders a rejected update in the graph file's *original labels* — the
/// overlay speaks compact ids, the user speaks labels.
pub fn describe_update_error(error: &UpdateError, loaded: &LoadedGraph) -> String {
    match *error {
        UpdateError::InvalidProbability {
            source,
            target,
            probability,
        } => format!(
            "update of arc ({}, {}) carries invalid probability {probability}; \
             probabilities must lie in (0, 1]",
            loaded.label_of(source),
            loaded.label_of(target)
        ),
        UpdateError::ArcAlreadyExists { source, target } => format!(
            "cannot insert arc ({}, {}): it already exists \
             (use a set-probability update to re-weight it)",
            loaded.label_of(source),
            loaded.label_of(target)
        ),
        UpdateError::ArcNotFound { source, target } => format!(
            "arc ({}, {}) does not exist",
            loaded.label_of(source),
            loaded.label_of(target)
        ),
        // Ids arrive through label resolution, so this cannot name a label;
        // fall back to the overlay's own message.
        UpdateError::VertexOutOfRange { .. } => error.to_string(),
    }
}

/// Parses an update file into rounds of validated-id [`GraphUpdate`]s.
///
/// Labels are resolved against `loaded` here, so downstream code works in
/// compact vertex ids only.  Empty rounds (consecutive separators, leading
/// or trailing separators) are dropped; an update file with no updates at
/// all is an error.
pub fn read_update_rounds(
    path: &str,
    loaded: &LoadedGraph,
) -> Result<Vec<Vec<GraphUpdate>>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read update file {path}: {e}")))?;
    let mut rounds: Vec<Vec<GraphUpdate>> = Vec::new();
    let mut current: Vec<GraphUpdate> = Vec::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "---" {
            if !current.is_empty() {
                rounds.push(std::mem::take(&mut current));
            }
            continue;
        }
        current.push(parse_update_line(path, index + 1, line, loaded)?);
    }
    if !current.is_empty() {
        rounds.push(current);
    }
    if rounds.is_empty() {
        return Err(CliError::new(format!(
            "update file {path} contains no updates"
        )));
    }
    Ok(rounds)
}

/// Parses one non-blank, non-comment update line (1-based `line_number` is
/// used for error reporting only).
fn parse_update_line(
    path: &str,
    line_number: usize,
    line: &str,
    loaded: &LoadedGraph,
) -> Result<GraphUpdate, CliError> {
    let fail = |message: String| CliError::new(format!("{path}:{line_number}: {message}"));
    let mut fields = line.split_whitespace();
    let op = fields.next().expect("line is non-blank");
    let rest: Vec<&str> = fields.collect();
    let expect_fields = |n: usize| -> Result<(), CliError> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(fail(format!(
                "expected {n} fields after {op:?}, got {} in {line:?}",
                rest.len()
            )))
        }
    };
    let vertex = |field: &str| {
        let label: u64 = field
            .parse()
            .map_err(|_| fail(format!("bad vertex label {field:?}")))?;
        loaded
            .vertex_for_label(label)
            .map_err(|_| fail(format!("vertex {label} does not appear in the graph")))
    };
    let probability = |field: &str| {
        field
            .parse::<f64>()
            .map_err(|_| fail(format!("bad probability {field:?}")))
    };
    match op {
        "+" | "insert" => {
            expect_fields(3)?;
            Ok(GraphUpdate::InsertArc {
                source: vertex(rest[0])?,
                target: vertex(rest[1])?,
                probability: probability(rest[2])?,
            })
        }
        "-" | "delete" => {
            expect_fields(2)?;
            Ok(GraphUpdate::DeleteArc {
                source: vertex(rest[0])?,
                target: vertex(rest[1])?,
            })
        }
        "=" | "set" => {
            expect_fields(3)?;
            Ok(GraphUpdate::SetProbability {
                source: vertex(rest[0])?,
                target: vertex(rest[1])?,
                probability: probability(rest[2])?,
            })
        }
        other => Err(fail(format!(
            "unknown update op {other:?}; expected one of \"+\"/\"insert\", \
             \"-\"/\"delete\", \"=\"/\"set\" (or \"---\" to separate rounds)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphio::load_graph;

    fn fixture() -> (std::path::PathBuf, LoadedGraph) {
        let path = std::env::temp_dir().join(format!(
            "usim_cli_updates_graph_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // Non-compact labels on purpose: 10, 20, 30.
        std::fs::write(&path, "10 20 0.5\n20 30 0.9\n").unwrap();
        let loaded = load_graph(path.to_str().unwrap()).unwrap();
        (path, loaded)
    }

    fn write_updates(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "usim_cli_updates_{}_{}_{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn parses_symbols_words_comments_and_rounds() {
        let (graph_path, loaded) = fixture();
        let path = write_updates(
            "ok",
            "# round one\n+ 30 10 0.8\nset 10 20 0.7\n---\n\n---\ndelete 20 30\n---\n",
        );
        let rounds = read_update_rounds(path.to_str().unwrap(), &loaded).unwrap();
        assert_eq!(rounds.len(), 2, "empty rounds are dropped");
        assert_eq!(rounds[0].len(), 2);
        let v10 = loaded.vertex_for_label(10).unwrap();
        let v20 = loaded.vertex_for_label(20).unwrap();
        let v30 = loaded.vertex_for_label(30).unwrap();
        assert_eq!(
            rounds[0][0],
            GraphUpdate::InsertArc {
                source: v30,
                target: v10,
                probability: 0.8
            }
        );
        assert_eq!(
            rounds[1][0],
            GraphUpdate::DeleteArc {
                source: v20,
                target: v30
            }
        );
        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_malformed_line_reports_its_line_number() {
        let (graph_path, loaded) = fixture();
        let cases = [
            ("? 10 20", "unknown update op"),
            ("+ 10 20", "expected 3 fields"),
            ("- 10 20 0.5", "expected 2 fields"),
            ("+ ten 20 0.5", "bad vertex label"),
            ("+ 10 20 high", "bad probability"),
            ("+ 10 99 0.5", "vertex 99 does not appear"),
        ];
        for (line, expected) in cases {
            let path = write_updates("bad", &format!("+ 30 10 0.5\n{line}\n"));
            let err = read_update_rounds(path.to_str().unwrap(), &loaded).unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains(":2:") && message.contains(expected),
                "line {line:?}: {message}"
            );
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_file(&graph_path).unwrap();
    }

    #[test]
    fn empty_update_files_are_errors() {
        let (graph_path, loaded) = fixture();
        for content in ["", "# only comments\n", "---\n---\n"] {
            let path = write_updates("empty", content);
            let err = read_update_rounds(path.to_str().unwrap(), &loaded).unwrap_err();
            assert!(err.to_string().contains("no updates"), "{err}");
            std::fs::remove_file(&path).unwrap();
        }
        let err = read_update_rounds("/nonexistent/usim/updates.txt", &loaded).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        std::fs::remove_file(&graph_path).unwrap();
    }
}
