//! Loading and saving uncertain graphs in the formats the CLI understands.
//!
//! A file that starts with the CSR snapshot magic is read as a snapshot
//! ([`ugraph::snapshot`]), label table included, and every arc of it is
//! re-validated ([`ugraph::CsrSnapshot::validate`]); any other file is parsed
//! as a whitespace-separated text edge list ([`ugraph::io`], `source target
//! probability` per line).  Writing picks the format by extension: `.usim`
//! and `.bin` write a snapshot, everything else writes text.
//!
//! Text edge lists may use arbitrary (non-contiguous) vertex labels; they are
//! compacted on load and the CLI keeps the label table, so queries and output
//! always speak the file's original labels — in both formats, since a
//! snapshot stores the table and text is written back in labels.

use crate::CliError;
use std::collections::HashMap;
use std::io::Read;
use ugraph::io::{read_edge_list_file, write_edge_list_file, ReadOptions};
use ugraph::snapshot::{read_snapshot_file, write_snapshot_file, MAGIC};
use ugraph::{UncertainGraph, VertexId};

/// A graph loaded by the CLI, together with the original vertex labels of the
/// input file.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The parsed graph with compact vertex ids `0..n`.
    pub graph: UncertainGraph,
    /// `labels[v]` is the label vertex `v` had in the input file.
    labels: Vec<u64>,
    /// The inverse of `labels`, built once so every lookup is O(1).
    ids: HashMap<u64, VertexId>,
}

impl LoadedGraph {
    fn new(graph: UncertainGraph, labels: Vec<u64>) -> Self {
        let ids = labels
            .iter()
            .enumerate()
            .map(|(v, &label)| (label, v as VertexId))
            .collect();
        LoadedGraph { graph, labels, ids }
    }

    /// The label table: `labels()[v]` is the label vertex `v` had in the
    /// input file.
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// Maps an original file label to the compact vertex id.
    pub fn vertex_for_label(&self, label: u64) -> Result<VertexId, CliError> {
        self.ids
            .get(&label)
            .copied()
            .ok_or_else(|| CliError::new(format!("vertex {label} does not appear in the graph")))
    }

    /// Maps a compact vertex id back to its original label.
    pub fn label_of(&self, vertex: VertexId) -> u64 {
        self.labels[vertex as usize]
    }
}

/// Whether `path` starts with the snapshot magic.  A file too short to
/// hold it is not a snapshot.
pub fn is_snapshot(path: &str) -> Result<bool, CliError> {
    let mut file = std::fs::File::open(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let mut magic = [0u8; 8];
    Ok(file.read_exact(&mut magic).is_ok() && &magic == MAGIC)
}

/// Loads a graph from `path`: a snapshot if the file starts with its
/// magic, a text edge list otherwise.  A snapshot's arcs are re-validated
/// (ids in range, rows sorted, probabilities in `(0, 1]`, reverse =
/// transpose of forward), so a resealed checksum cannot smuggle in a graph
/// the text parser would refuse.
pub fn load_graph(path: &str) -> Result<LoadedGraph, CliError> {
    let fail = |e: ugraph::GraphError| CliError::new(format!("{path}: {e}"));
    if is_snapshot(path)? {
        let snapshot = read_snapshot_file(path).map_err(fail)?;
        snapshot.validate().map_err(fail)?;
        let labels = snapshot.labels_or_identity();
        Ok(LoadedGraph::new(snapshot.graph, labels))
    } else {
        let result = read_edge_list_file(path, &ReadOptions::default()).map_err(fail)?;
        Ok(LoadedGraph::new(result.graph, result.labels))
    }
}

/// Writes `graph` to `path` in `labels` (`labels[v]` names vertex `v`; an
/// empty slice names every vertex by its id): a snapshot carrying the label
/// table when the path ends in `.usim` or `.bin`, a text edge list
/// otherwise.  Returns the format written.
pub fn save_graph(
    graph: &UncertainGraph,
    labels: &[u64],
    path: &str,
) -> Result<&'static str, CliError> {
    let lower = path.to_ascii_lowercase();
    let (format, written) = if lower.ends_with(".usim") || lower.ends_with(".bin") {
        ("snapshot", write_snapshot_file(graph, labels, path))
    } else {
        ("text", write_edge_list_file(graph, labels, path))
    };
    written.map_err(|e| CliError::new(format!("{path}: {e}")))?;
    Ok(format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::UncertainGraphBuilder;

    fn sample_graph() -> UncertainGraph {
        UncertainGraphBuilder::new(3)
            .arc(0, 1, 0.5)
            .arc(1, 2, 0.25)
            .arc(2, 0, 1.0)
            .build()
            .unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("usim_cli_{}_{name}", std::process::id()))
    }

    #[test]
    fn snapshots_are_recognised_by_magic_not_extension() {
        let snapshot = temp_path("sniff.bin");
        let renamed = temp_path("sniff_snapshot.tsv");
        let text = temp_path("sniff_text.bin");
        save_graph(&sample_graph(), &[7, 8, 9], snapshot.to_str().unwrap()).unwrap();
        std::fs::rename(&snapshot, &renamed).unwrap();
        std::fs::write(&text, "7 8 0.5\n").unwrap();
        assert!(is_snapshot(renamed.to_str().unwrap()).unwrap());
        assert!(!is_snapshot(text.to_str().unwrap()).unwrap());
        let loaded = load_graph(renamed.to_str().unwrap()).unwrap();
        assert_eq!(loaded.labels(), [7, 8, 9]);
        assert_eq!(load_graph(text.to_str().unwrap()).unwrap().labels(), [7, 8]);
        for path in [&renamed, &text] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn text_roundtrip_via_the_cli_helpers() {
        let path = temp_path("roundtrip.tsv");
        let path_str = path.to_str().unwrap();
        assert_eq!(
            save_graph(&sample_graph(), &[0, 1, 2], path_str).unwrap(),
            "text"
        );
        let loaded = load_graph(path_str).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_arcs(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binary_roundtrip_via_the_cli_helpers() {
        let path = temp_path("roundtrip.bin");
        let path_str = path.to_str().unwrap();
        let format = save_graph(&sample_graph(), &[10, 20, 30], path_str).unwrap();
        assert_eq!(format, "snapshot");
        let loaded = load_graph(path_str).unwrap();
        assert_eq!(loaded.graph.num_arcs(), 3);
        assert_eq!(loaded.label_of(2), 30);
        assert_eq!(loaded.vertex_for_label(20).unwrap(), 1);
        assert!(loaded.vertex_for_label(1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn label_mapping_survives_non_compact_text_files() {
        let path = temp_path("labels.tsv");
        std::fs::write(&path, "10 20 0.5\n20 30 0.75\n").unwrap();
        let loaded = load_graph(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        let v10 = loaded.vertex_for_label(10).unwrap();
        let v30 = loaded.vertex_for_label(30).unwrap();
        assert_ne!(v10, v30);
        assert_eq!(loaded.label_of(v10), 10);
        std::fs::remove_file(&path).unwrap();
    }

    /// Recomputes a snapshot's trailing word-wise FNV checksum (see
    /// [`ugraph::snapshot`]) after a deliberate body edit.
    fn reseal(bytes: &mut [u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let body = bytes.len() - 8;
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for word in bytes[..body].chunks_exact(8) {
            state = (state ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
        }
        state = (state ^ body as u64).wrapping_mul(PRIME);
        bytes[body..].copy_from_slice(&state.to_le_bytes());
    }

    #[test]
    fn resealed_snapshot_with_an_invalid_probability_is_an_error() {
        let path = temp_path("invalid_prob.usim");
        let path_str = path.to_str().unwrap();
        save_graph(&sample_graph(), &[0, 1, 2], path_str).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Three vertices, three arcs: offsets, then 12 target bytes padded
        // to 16, then the first forward probability.
        let first_prob = ugraph::snapshot::HEADER_LEN + 4 * 8 + 16;
        assert_eq!(&bytes[first_prob..first_prob + 8], &0.5f64.to_le_bytes());
        bytes[first_prob..first_prob + 8].copy_from_slice(&1.5f64.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot_file(path_str).is_ok(), "the checksum holds");
        let err = load_graph(path_str).unwrap_err().to_string();
        assert!(err.contains("invalid existence probability 1.5"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Byte offset of the first forward (`reverse == false`) or reverse
    /// probability in a snapshot of a 3-vertex, 3-arc graph: each direction
    /// is 4 offsets, 12 target bytes padded to 16, then 3 probabilities.
    fn first_prob_of_three_arcs(reverse: bool) -> usize {
        let direction = 4 * 8 + 16 + 3 * 8;
        ugraph::snapshot::HEADER_LEN + usize::from(reverse) * direction + 4 * 8 + 16
    }

    #[test]
    fn resealed_snapshot_whose_reverse_is_not_the_transpose_is_an_error() {
        let path = temp_path("not_transpose.usim");
        let path_str = path.to_str().unwrap();
        save_graph(&sample_graph(), &[0, 1, 2], path_str).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Vertex 0's reverse row holds the arc (2, 0) with probability 1.0;
        // give it another valid probability than the forward row does.
        let at = first_prob_of_three_arcs(true);
        assert_eq!(&bytes[at..at + 8], &1.0f64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&0.75f64.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        // The checksum holds, and a server booting the file would walk the
        // stored reverse row.
        let snapshot = read_snapshot_file(path_str).unwrap();
        assert_eq!(snapshot.graph.reverse().probabilities(0), [0.75]);
        let err = load_graph(path_str).unwrap_err().to_string();
        assert!(err.contains("not the transpose"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resealed_snapshot_with_an_unsorted_row_is_an_error() {
        let path = temp_path("unsorted.usim");
        let path_str = path.to_str().unwrap();
        let graph = UncertainGraphBuilder::new(3)
            .arc(0, 1, 0.5)
            .arc(0, 2, 0.25)
            .arc(1, 2, 1.0)
            .build()
            .unwrap();
        save_graph(&graph, &[0, 1, 2], path_str).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Swap vertex 0's two forward arcs: the same arcs, out of order.
        let targets = ugraph::snapshot::HEADER_LEN + 4 * 8;
        assert_eq!(&bytes[targets..targets + 8], &[1, 0, 0, 0, 2, 0, 0, 0]);
        bytes[targets..targets + 8].copy_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0]);
        let probs = first_prob_of_three_arcs(false);
        let swapped: Vec<u8> = [0.25f64, 0.5]
            .iter()
            .flat_map(|p| p.to_le_bytes())
            .collect();
        bytes[probs..probs + 16].copy_from_slice(&swapped);
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot_file(path_str).is_ok(), "the checksum holds");
        let err = load_graph(path_str).unwrap_err().to_string();
        assert!(err.contains("not strictly sorted"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = load_graph("/nonexistent/usim/graph.tsv").unwrap_err();
        assert!(err.to_string().contains("graph.tsv"));
    }
}
