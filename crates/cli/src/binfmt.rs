//! Tests of the binary graph file as the CLI writes and reads it.
//!
//! A `.bin` or `.usim` path written by [`crate::graphio::save_graph`] is a
//! CSR snapshot carrying the label table, and
//! [`crate::graphio::load_graph`] recognises it by its magic.  These tests
//! pin that round trip and that every corruption of such a file — a bad
//! magic, a truncation, a flipped bit, trailing bytes — is an error, never
//! a panic or a silently different graph.

mod tests {
    use crate::graphio::{is_snapshot, load_graph, save_graph};
    use ugraph::snapshot::HEADER_LEN;
    use ugraph::{UncertainGraph, UncertainGraphBuilder};

    /// The labels the Fig. 1 vertices carry in these tests: not `0..n`, so
    /// a reader that dropped the label table would be caught.
    const LABELS: [u64; 5] = [40, 10, 30, 50, 20];

    fn fig1_graph() -> UncertainGraph {
        UncertainGraphBuilder::new(5)
            .arc(0, 2, 0.8)
            .arc(0, 3, 0.5)
            .arc(1, 0, 0.8)
            .arc(1, 2, 0.9)
            .arc(2, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 4, 0.6)
            .arc(3, 1, 0.8)
            .build()
            .unwrap()
    }

    fn temp_path(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("usim_binfmt_{}_{name}", std::process::id()));
        path.to_str().unwrap().to_string()
    }

    /// The bytes `save_graph` writes for `graph` under a `.bin` path.
    fn encode(graph: &UncertainGraph, labels: &[u64], name: &str) -> Vec<u8> {
        let path = temp_path(name);
        assert_eq!(save_graph(graph, labels, &path).unwrap(), "snapshot");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    /// Writes `bytes` to a scratch file and loads it as the CLI does.
    fn load_bytes(bytes: &[u8], name: &str) -> Result<crate::graphio::LoadedGraph, String> {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let result = load_graph(&path).map_err(|e| e.to_string());
        std::fs::remove_file(&path).unwrap();
        result
    }

    /// Byte offsets where the sections of the Fig. 1 file end: the magic,
    /// the header, each direction's offsets, targets and probabilities, and
    /// the label table (which the checksum follows).
    fn section_boundaries() -> Vec<usize> {
        let (n, m) = (5usize, 8usize);
        let direction = [(n + 1) * 8, (m * 4).div_ceil(8) * 8, m * 8];
        let mut boundaries = vec![8, HEADER_LEN];
        let mut end = HEADER_LEN;
        for len in direction.iter().chain(&direction).chain(&[n * 8]) {
            end += len;
            boundaries.push(end);
        }
        boundaries
    }

    #[test]
    fn roundtrip_preserves_every_arc_and_probability() {
        let original = fig1_graph();
        let bytes = encode(&original, &LABELS, "roundtrip.bin");
        let loaded = load_bytes(&bytes, "roundtrip_load.bin").unwrap();
        assert_eq!(loaded.graph.num_vertices(), original.num_vertices());
        assert_eq!(loaded.graph.num_arcs(), original.num_arcs());
        assert_eq!(loaded.labels(), LABELS);
        for arc in original.arcs() {
            let source = loaded
                .vertex_for_label(LABELS[arc.source as usize])
                .unwrap();
            let target = loaded
                .vertex_for_label(LABELS[arc.target as usize])
                .unwrap();
            let p = loaded.graph.arc_probability(source, target).unwrap();
            assert_eq!(p, arc.probability, "arc ({}, {})", arc.source, arc.target);
        }
    }

    #[test]
    fn roundtrip_of_an_arcless_graph() {
        let empty = UncertainGraphBuilder::new(3).build().unwrap();
        let bytes = encode(&empty, &[7, 8, 9], "arcless.bin");
        let loaded = load_bytes(&bytes, "arcless_load.bin").unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_arcs(), 0);
        assert_eq!(loaded.labels(), [7, 8, 9]);
    }

    #[test]
    fn file_helpers_roundtrip() {
        let original = fig1_graph();
        for name in ["helpers.bin", "helpers.usim", "helpers.USIM"] {
            let path = temp_path(name);
            assert_eq!(save_graph(&original, &[], &path).unwrap(), "snapshot");
            assert!(is_snapshot(&path).unwrap(), "{name}");
            let loaded = load_graph(&path).unwrap();
            assert_eq!(loaded.graph.num_arcs(), original.num_arcs());
            assert_eq!(loaded.labels(), [0, 1, 2, 3, 4], "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&fig1_graph(), &LABELS, "magic.bin");
        bytes[0] = b'X';
        // Without the magic the file is no snapshot, so it is parsed as
        // text — and binary bytes are no edge list.
        let path = temp_path("magic_load.bin");
        std::fs::write(&path, &bytes).unwrap();
        assert!(!is_snapshot(&path).unwrap());
        let err = load_graph(&path).unwrap_err().to_string();
        assert!(err.starts_with(&path), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = encode(&fig1_graph(), &LABELS, "truncated.bin");
        for cut in [4usize, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 3] {
            let err = load_bytes(&bytes[..cut], "truncated_load.bin").unwrap_err();
            if cut >= 8 {
                assert!(err.contains("truncated"), "cut at {cut}: {err}");
            }
        }
    }

    #[test]
    fn truncation_at_every_section_boundary_is_a_typed_error() {
        let bytes = encode(&fig1_graph(), &LABELS, "sections.bin");
        let boundaries = section_boundaries();
        assert_eq!(*boundaries.last().unwrap(), bytes.len() - 8);
        for &boundary in &boundaries {
            // At the boundary itself, one byte short, one byte past.
            for cut in [boundary - 1, boundary, boundary + 1] {
                let err = load_bytes(&bytes[..cut], "sections_load.bin").unwrap_err();
                if cut >= 8 {
                    assert!(err.contains("truncated"), "cut at {cut}: {err}");
                }
            }
        }
    }

    #[test]
    fn a_bit_flip_in_every_header_field_is_a_typed_error() {
        let clean = encode(&fig1_graph(), &LABELS, "header.bin");
        // Every byte of the magic, version, flags and the three counts: a
        // flip must surface as an error — a text parse failure once the
        // magic is gone, otherwise a snapshot format error — never a panic
        // or a silently wrong graph.
        for offset in 0..HEADER_LEN {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupted = clean.clone();
                corrupted[offset] ^= bit;
                let outcome =
                    std::panic::catch_unwind(|| load_bytes(&corrupted, "header_load.bin"))
                        .unwrap_or_else(|_| {
                            panic!("header byte {offset} flipped by {bit:#04x} caused a panic")
                        });
                assert!(
                    outcome.is_err(),
                    "byte {offset} flip {bit:#04x} loaded a graph"
                );
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let clean = encode(&fig1_graph(), &LABELS, "body.bin");
        // One byte inside the second forward probability, then one inside
        // the label table: neither is re-validated by the snapshot reader,
        // so the checksum must catch both.
        let forward_probs = section_boundaries()[3];
        let labels = section_boundaries()[7];
        for offset in [forward_probs + 8 + 2, labels + 3] {
            let mut corrupted = clean.clone();
            corrupted[offset] ^= 0x01;
            let err = load_bytes(&corrupted, "body_load.bin").unwrap_err();
            assert!(err.contains("checksum"), "byte {offset}: {err}");
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut bytes = encode(&fig1_graph(), &LABELS, "checksum.bin");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let err = load_bytes(&bytes, "checksum_load.bin").unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&fig1_graph(), &LABELS, "trailing.bin");
        bytes.push(0);
        let err = load_bytes(&bytes, "trailing_load.bin").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
