//! Reading and writing uncertain graphs as weighted edge lists.
//!
//! The format is one arc per line: `source target probability`, separated by
//! whitespace.  Lines starting with `#` or `%` and blank lines are ignored.
//! Vertex ids are arbitrary non-negative integers; they are compacted to
//! `0..n` on read (in first-appearance order) unless
//! [`ReadOptions::assume_compact`] is set.  Deterministic graphs use the same
//! format without the probability column (or with it ignored).

use crate::{GraphError, Probability, UncertainGraph, UncertainGraphBuilder, VertexId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Options controlling edge-list parsing.
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// If true, vertex ids in the file are assumed to already be `0..n` and
    /// are used directly; otherwise ids are remapped compactly in
    /// first-appearance order.
    pub assume_compact: bool,
    /// Probability assigned to arcs that do not carry a third column.
    pub default_probability: Probability,
    /// If true, duplicate arcs keep the maximum probability instead of being
    /// an error.
    pub merge_duplicates: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            assume_compact: false,
            default_probability: 1.0,
            merge_duplicates: false,
        }
    }
}

/// Result of reading an edge list: the graph plus the mapping from original
/// vertex labels to compact ids.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The parsed uncertain graph.
    pub graph: UncertainGraph,
    /// `labels[i]` is the original label of compact vertex id `i`.
    pub labels: Vec<u64>,
}

impl ReadResult {
    /// Looks up the compact id of an original label (linear scan; intended
    /// for tests and small interactive use).
    pub fn id_of_label(&self, label: u64) -> Option<VertexId> {
        self.labels
            .iter()
            .position(|&l| l == label)
            .map(|i| i as VertexId)
    }
}

/// Reads an uncertain graph from any reader in edge-list format.
pub fn read_edge_list<R: Read>(reader: R, options: &ReadOptions) -> Result<ReadResult, GraphError> {
    let reader = BufReader::new(reader);
    let mut labels: Vec<u64> = Vec::new();
    let mut id_map: HashMap<u64, VertexId> = HashMap::new();
    let mut arcs: Vec<(VertexId, VertexId, Probability)> = Vec::new();
    let mut max_label_plus_one: u64 = 0;

    let intern = |label: u64, labels: &mut Vec<u64>, id_map: &mut HashMap<u64, VertexId>| {
        *id_map.entry(label).or_insert_with(|| {
            let id = labels.len() as VertexId;
            labels.push(label);
            id
        })
    };

    for (line_no, line) in reader.lines().enumerate() {
        let line = line.map_err(GraphError::from)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let parse_u64 = |s: Option<&str>, what: &str| -> Result<u64, GraphError> {
            s.ok_or_else(|| GraphError::Parse {
                line: line_no + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: line_no + 1,
                message: format!("invalid {what}: {e}"),
            })
        };
        let u_label = parse_u64(fields.next(), "source vertex")?;
        let v_label = parse_u64(fields.next(), "target vertex")?;
        let probability = match fields.next() {
            Some(s) => s.parse::<f64>().map_err(|e| GraphError::Parse {
                line: line_no + 1,
                message: format!("invalid probability: {e}"),
            })?,
            None => options.default_probability,
        };
        max_label_plus_one = max_label_plus_one.max(u_label + 1).max(v_label + 1);
        let (u, v) = if options.assume_compact {
            (u_label as VertexId, v_label as VertexId)
        } else {
            (
                intern(u_label, &mut labels, &mut id_map),
                intern(v_label, &mut labels, &mut id_map),
            )
        };
        arcs.push((u, v, probability));
    }

    let num_vertices = if options.assume_compact {
        max_label_plus_one as usize
    } else {
        labels.len()
    };
    if options.assume_compact {
        labels = (0..num_vertices as u64).collect();
    }

    let mut builder = UncertainGraphBuilder::new(num_vertices).arcs(arcs);
    if options.merge_duplicates {
        builder = builder.duplicate_policy(crate::builder::DuplicatePolicy::KeepMaxProbability);
    }
    let graph = builder.build()?;
    Ok(ReadResult { graph, labels })
}

/// Reads an uncertain graph from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: &ReadOptions,
) -> Result<ReadResult, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Writes an uncertain graph to any writer in edge-list format, naming
/// vertex `v` as `labels[v]` (an empty slice writes the compact ids, like
/// [`crate::snapshot::write_snapshot`]).
///
/// # Panics
///
/// If `labels` is neither empty nor one label per vertex.
pub fn write_edge_list<W: Write>(
    graph: &UncertainGraph,
    labels: &[u64],
    mut writer: W,
) -> Result<(), GraphError> {
    assert!(
        labels.is_empty() || labels.len() == graph.num_vertices(),
        "{} labels for {} vertices",
        labels.len(),
        graph.num_vertices()
    );
    let label = |v: VertexId| labels.get(v as usize).copied().unwrap_or(u64::from(v));
    writeln!(
        writer,
        "# uncertain graph: {} vertices, {} arcs",
        graph.num_vertices(),
        graph.num_arcs()
    )?;
    for arc in graph.arcs() {
        let (u, v) = (label(arc.source), label(arc.target));
        writeln!(writer, "{u} {v} {}", arc.probability)?;
    }
    writer.flush()?;
    Ok(())
}

/// Writes an uncertain graph to a file path (see [`write_edge_list`]).
pub fn write_edge_list_file<P: AsRef<Path>>(
    graph: &UncertainGraph,
    labels: &[u64],
    path: P,
) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, labels, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_edge_list() {
        let input = "# comment\n0 1 0.5\n1 2 0.75\n\n% another comment\n2 0 1.0\n";
        let result = read_edge_list(input.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(result.graph.num_vertices(), 3);
        assert_eq!(result.graph.num_arcs(), 3);
        assert!((result.graph.arc_probability(1, 2).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn remaps_sparse_labels_compactly() {
        let input = "100 200 0.5\n200 300 0.25\n";
        let result = read_edge_list(input.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(result.graph.num_vertices(), 3);
        assert_eq!(result.labels, vec![100, 200, 300]);
        assert_eq!(result.id_of_label(200), Some(1));
        assert_eq!(result.id_of_label(999), None);
    }

    #[test]
    fn assume_compact_uses_ids_directly() {
        let input = "0 3 0.5\n";
        let opts = ReadOptions {
            assume_compact: true,
            ..Default::default()
        };
        let result = read_edge_list(input.as_bytes(), &opts).unwrap();
        assert_eq!(result.graph.num_vertices(), 4);
        assert!(result.graph.has_arc(0, 3));
    }

    #[test]
    fn missing_probability_uses_default() {
        let input = "0 1\n1 2 0.5\n";
        let opts = ReadOptions {
            default_probability: 0.9,
            ..Default::default()
        };
        let result = read_edge_list(input.as_bytes(), &opts).unwrap();
        assert!((result.graph.arc_probability(0, 1).unwrap() - 0.9).abs() < 1e-12);
        assert!((result.graph.arc_probability(1, 2).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let input = "0 1 0.5\nnot a line\n";
        let err = read_edge_list(input.as_bytes(), &ReadOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let input = "0 1 1.5\n";
        let err = read_edge_list(input.as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
    }

    #[test]
    fn duplicate_merging() {
        let input = "0 1 0.5\n0 1 0.8\n";
        assert!(read_edge_list(input.as_bytes(), &ReadOptions::default()).is_err());
        let opts = ReadOptions {
            merge_duplicates: true,
            ..Default::default()
        };
        let result = read_edge_list(input.as_bytes(), &opts).unwrap();
        assert_eq!(result.graph.num_arcs(), 1);
        assert!((result.graph.arc_probability(0, 1).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let g = UncertainGraph::from_arcs(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &[], &mut buf).unwrap();
        let opts = ReadOptions {
            assume_compact: true,
            ..Default::default()
        };
        let back = read_edge_list(buf.as_slice(), &opts).unwrap();
        assert_eq!(back.graph.num_arcs(), 3);
        for arc in g.arcs() {
            let p = back.graph.arc_probability(arc.source, arc.target).unwrap();
            assert!((p - arc.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = UncertainGraph::from_arcs(2, [(0, 1, 0.5)]).unwrap();
        let dir = std::env::temp_dir().join("ugraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_edge_list_file(&g, &[70, 30], &path).unwrap();
        let back = read_edge_list_file(&path, &ReadOptions::default()).unwrap();
        assert_eq!(back.graph.num_arcs(), 1);
        assert_eq!(back.labels, vec![70, 30]);
        std::fs::remove_file(&path).ok();
    }
}
