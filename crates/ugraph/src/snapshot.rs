//! A versioned, checksummed on-disk CSR snapshot: the one binary graph
//! format of the workspace.
//!
//! A **snapshot** persists an [`UncertainGraph`]'s CSR arrays themselves,
//! plus the vertex label table: the `offsets` / `targets` / `probs` arrays
//! of both directions are written as 8-byte-aligned little-endian sections
//! behind a `USIMCSR1` header and read straight back into place, without
//! re-sorting or re-validating per edge, so boot time is O(bytes read)
//! rather than the O(edges) parse, sort and validation of a text edge list.
//! Callers that do not trust the file that far re-check every arc with
//! [`CsrSnapshot::validate`].
//!
//! ```text
//! offset  size       field
//! 0       8          magic  b"USIMCSR1"
//! 8       4          format version (u32, little endian) = 1
//! 12      4          section flags (u32; 0 when no optional section present)
//! 16      8          number of vertices  n  (u64)
//! 24      8          number of arcs      m  (u64)
//! 32      8          number of labels    L  (u64; 0 or n)
//! 40      (n+1)·8    forward offsets  (u64 each)
//! …       m·4 [+pad] forward targets  (u32 each, padded to 8-byte alignment)
//! …       m·8        forward probabilities (f64 each)
//! …       (n+1)·8    reverse offsets
//! …       m·4 [+pad] reverse targets
//! …       m·8        reverse probabilities
//! …       L·8        vertex labels (u64 each)
//! …       (m+n)·16   forward alias slots (iff flags bit 0; prob f64, first u32, second u32)
//! …       (m+n)·16   reverse alias slots (iff flags bit 0)
//! end     8          word-wise FNV checksum of every byte before it (u64)
//! ```
//!
//! The flags word was the always-zero reserved word until the alias sections
//! were introduced, so every pre-existing snapshot reads as flags 0 — no
//! optional sections — and loads unchanged.  Bit 0 ([`FLAG_ALIAS_TABLES`])
//! announces one Walker alias-slot section per direction after the label
//! table: `d(v) + 1` 16-byte slots per vertex in vertex order (see
//! [`crate::alias`]), covered by the same trailing checksum.  Slot offsets
//! are derived from the direction's CSR offsets (`csr_offsets[v] + v`), so
//! no extra offset array is stored.  Unknown flag bits are rejected: a
//! reader that does not understand a section cannot skip what it cannot
//! size.
//!
//! # Trust model
//!
//! Reading validates the magic, the version, the checksum, the header
//! arithmetic (section sizes, label count, vertex-id range) and the
//! monotonicity of both offset arrays — an O(n) scan that guarantees every
//! later slice access is in bounds.  It does **not** re-check per-arc
//! invariants (sorted neighbor slices, probabilities in `(0, 1]`, reverse =
//! transpose of forward): those held when the writer serialised a live
//! [`UncertainGraph`], and any bit that changed since is caught by the
//! checksum.  `usim serve` boots on exactly this.  Truncations and
//! bit-flips are reported as typed [`GraphError::Format`], never a panic or
//! a silently wrong graph.
//!
//! [`CsrSnapshot::validate`] re-checks those per-arc invariants in one pass
//! over each direction, without rebuilding anything; every other `usim`
//! command runs it on the snapshots it loads, so a file whose checksum was
//! resealed over an invalid arc is refused with a typed error.
//!
//! The optional label table carries the labels every consumer maps to
//! compact vertex ids, making a snapshot a self-contained artifact: `usim
//! serve` boots from it (together with the [`crate::updatelog`]) and every
//! other `usim` command reads it with the same labels as the text file it
//! was written from.

use crate::alias::{AliasSlot, AliasTable};
use crate::error::format_error;
use crate::uncertain::RawDirection;
use crate::{GraphError, Probability, UncertainGraph, VertexId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic of the CSR snapshot format.
pub const MAGIC: &[u8; 8] = b"USIMCSR1";

/// Current (and only) snapshot format version.
pub const VERSION: u32 = 1;

/// Flags bit 0: the snapshot carries one alias-slot section per direction
/// after the label table.
pub const FLAG_ALIAS_TABLES: u32 = 1;

/// All flag bits this build understands; anything else is rejected.
const KNOWN_FLAGS: u32 = FLAG_ALIAS_TABLES;

/// Header length in bytes: magic, version, reserved word, three u64 counts.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// A deserialised snapshot: the graph plus the (possibly empty) vertex
/// label table that was stored with it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrSnapshot {
    /// The graph, both directions, exactly as serialised.
    pub graph: UncertainGraph,
    /// Wire labels, one per vertex in id order; empty when the writer
    /// stored no label table (ids are their own labels).
    pub labels: Vec<u64>,
}

impl CsrSnapshot {
    /// The label table, synthesising the identity mapping when none was
    /// stored.
    pub fn labels_or_identity(&self) -> Vec<u64> {
        if self.labels.is_empty() {
            (0..self.graph.num_vertices() as u64).collect()
        } else {
            self.labels.clone()
        }
    }

    /// Re-checks the per-arc invariants the reader trusts to the checksum
    /// (see the module docs): every target is a vertex of the graph, every
    /// forward row is strictly sorted, every probability lies in `(0, 1]`,
    /// and the reverse arrays are exactly the transpose of the forward ones.
    /// One pass over each direction; nothing is rebuilt.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.graph.num_vertices();
        let forward = self.graph.forward();
        let reverse = self.graph.reverse();
        let not_transpose = |v: VertexId| {
            format_error(format!(
                "the reverse row of vertex {v} is not the transpose of the forward rows"
            ))
        };
        // Walking the forward rows in source order visits each reverse row's
        // sources in sorted order, so arc (u, v) must sit in the next unread
        // slot of v's reverse row.  The m forward arcs then fill m distinct
        // slots, and the reader checked that the reverse rows hold exactly m:
        // every reverse slot is matched.
        let mut cursor: Vec<usize> = reverse.offsets()[..n].to_vec();
        for u in 0..n as VertexId {
            let mut previous = None;
            for (&v, &p) in forward.neighbors(u).iter().zip(forward.probabilities(u)) {
                if v as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v as u64,
                        num_vertices: n,
                    });
                }
                if previous >= Some(v) {
                    return Err(format_error(format!(
                        "the forward row of vertex {u} is not strictly sorted at target {v}"
                    )));
                }
                previous = Some(v);
                if !crate::is_valid_probability(p) {
                    return Err(GraphError::InvalidProbability {
                        source: u,
                        target: v,
                        probability: p,
                    });
                }
                let slot = cursor[v as usize];
                if slot == reverse.offsets()[v as usize + 1]
                    || reverse.targets_flat()[slot] != u
                    || reverse.probs_flat()[slot] != p
                {
                    return Err(not_transpose(v));
                }
                cursor[v as usize] += 1;
            }
        }
        Ok(())
    }
}

/// Rejects a label table naming one label twice: the serving stack maps
/// each wire label to one vertex, so a duplicate would hide the earlier
/// vertex behind the later one.
fn check_unique_labels(labels: &[u64]) -> Result<(), GraphError> {
    let mut seen = std::collections::HashSet::with_capacity(labels.len());
    match labels.iter().find(|&&label| !seen.insert(label)) {
        Some(label) => Err(format_error(format!(
            "label table names label {label} more than once"
        ))),
        None => Ok(()),
    }
}

/// Bytes of zero padding needed after `len` bytes to reach 8-byte alignment.
fn pad8(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Streaming word-wise FNV checksum over the snapshot bytes.
///
/// Same constants as the byte-wise FNV-1a of [`crate::updatelog`], but folding
/// one little-endian u64 *word* per multiply instead of one byte — an 8x
/// cheaper pass that keeps snapshot reads array-copy fast instead of being
/// dominated by the integrity check.  Any single bit flip still changes the
/// digest (xor and odd-prime multiplication are both bijective mod 2^64),
/// and mixing the total byte length into the final state catches
/// truncation or extension by zero bytes.  Snapshot-format only: the update
/// log keeps the byte-wise variant.
struct WordFnv {
    state: u64,
    buf: [u8; 8],
    buf_len: usize,
    total: u64,
}

impl WordFnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        WordFnv {
            state: Self::OFFSET_BASIS,
            buf: [0u8; 8],
            buf_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(Self::PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.buf_len > 0 {
            let take = bytes.len().min(8 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len == 8 {
                let word = u64::from_le_bytes(self.buf);
                self.fold(word);
                self.buf_len = 0;
            } else {
                // The input ran out before filling the carry word.
                return;
            }
        }
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.fold(word);
        }
        let tail = words.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finish(&self) -> u64 {
        let mut state = self.state;
        if self.buf_len > 0 {
            let mut word = [0u8; 8];
            word[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            state = (state ^ u64::from_le_bytes(word)).wrapping_mul(Self::PRIME);
        }
        (state ^ self.total).wrapping_mul(Self::PRIME)
    }
}

/// Writes `graph` (and an optional label table — empty slice for none) to
/// `writer` in the snapshot format.
pub fn write_snapshot<W: Write>(
    graph: &UncertainGraph,
    labels: &[u64],
    writer: W,
) -> Result<(), GraphError> {
    if !labels.is_empty() && labels.len() != graph.num_vertices() {
        return Err(format_error(format!(
            "label table has {} entries but the graph has {} vertices",
            labels.len(),
            graph.num_vertices()
        )));
    }
    check_unique_labels(labels)?;
    let mut writer = BufWriter::new(writer);
    let mut checksum = WordFnv::new();
    let mut emit = |writer: &mut BufWriter<W>, bytes: &[u8]| -> Result<(), GraphError> {
        checksum.update(bytes);
        writer.write_all(bytes).map_err(GraphError::from)
    };

    let flags = if graph.has_alias_tables() {
        FLAG_ALIAS_TABLES
    } else {
        0
    };
    emit(&mut writer, MAGIC)?;
    emit(&mut writer, &VERSION.to_le_bytes())?;
    emit(&mut writer, &flags.to_le_bytes())?;
    emit(&mut writer, &(graph.num_vertices() as u64).to_le_bytes())?;
    emit(&mut writer, &(graph.num_arcs() as u64).to_le_bytes())?;
    emit(&mut writer, &(labels.len() as u64).to_le_bytes())?;

    for view in [graph.forward(), graph.reverse()] {
        for &offset in view.offsets() {
            emit(&mut writer, &(offset as u64).to_le_bytes())?;
        }
        for &target in view.targets_flat() {
            emit(&mut writer, &target.to_le_bytes())?;
        }
        for _ in 0..pad8(view.targets_flat().len() * 4) {
            emit(&mut writer, &[0u8])?;
        }
        for &prob in view.probs_flat() {
            emit(&mut writer, &prob.to_le_bytes())?;
        }
    }
    for &label in labels {
        emit(&mut writer, &label.to_le_bytes())?;
    }
    if let Some((forward, reverse)) = graph.alias_tables() {
        for table in [forward, reverse] {
            for slot in table.slots_flat() {
                emit(&mut writer, &slot.prob.to_le_bytes())?;
                emit(&mut writer, &slot.first.to_le_bytes())?;
                emit(&mut writer, &slot.second.to_le_bytes())?;
            }
        }
    }

    let digest = checksum.finish();
    writer.write_all(&digest.to_le_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Writes a snapshot to a file (see [`write_snapshot`]).
pub fn write_snapshot_file<P: AsRef<Path>>(
    graph: &UncertainGraph,
    labels: &[u64],
    path: P,
) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_snapshot(graph, labels, file)
}

/// Reads a section of exactly `len` bytes, feeding the checksum.  The read
/// is chunked so a corrupt header claiming an absurd length fails on
/// truncation early instead of allocating the claimed size up front.
fn read_section<R: Read>(
    reader: &mut R,
    checksum: &mut WordFnv,
    len: usize,
    what: &str,
) -> Result<Vec<u8>, GraphError> {
    const CHUNK: usize = 1 << 20;
    let mut bytes = Vec::with_capacity(len.min(CHUNK));
    let mut remaining = len;
    let mut buffer = vec![0u8; CHUNK.min(len.max(1))];
    while remaining > 0 {
        let take = remaining.min(buffer.len());
        reader
            .read_exact(&mut buffer[..take])
            .map_err(|e| format_error(format!("truncated snapshot while reading {what}: {e}")))?;
        checksum.update(&buffer[..take]);
        bytes.extend_from_slice(&buffer[..take]);
        remaining -= take;
    }
    Ok(bytes)
}

fn section_len(count: usize, width: usize, what: &str) -> Result<usize, GraphError> {
    count
        .checked_mul(width)
        .ok_or_else(|| format_error(format!("section size overflow in {what}")))
}

fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Reads a snapshot from `reader` (see the module docs for the format and
/// the trust model).
pub fn read_snapshot<R: Read>(reader: R) -> Result<CsrSnapshot, GraphError> {
    let mut reader = BufReader::new(reader);
    let mut checksum = WordFnv::new();

    let header = read_section(&mut reader, &mut checksum, HEADER_LEN, "the header")?;
    if &header[0..8] != MAGIC {
        return Err(format_error(format!(
            "bad magic {:?}; not a CSR snapshot (expected {MAGIC:?})",
            &header[0..8]
        )));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(format_error(format!(
            "unsupported snapshot version {version} (this build reads version {VERSION})"
        )));
    }
    let flags = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice"));
    if flags & !KNOWN_FLAGS != 0 {
        return Err(format_error(format!(
            "unknown section flags {flags:#010x} (this build understands {KNOWN_FLAGS:#010x}); \
             optional sections cannot be skipped without knowing their size"
        )));
    }
    let num_vertices = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    let num_arcs = u64::from_le_bytes(header[24..32].try_into().expect("8-byte slice"));
    let num_labels = u64::from_le_bytes(header[32..40].try_into().expect("8-byte slice"));
    if num_vertices > u64::from(VertexId::MAX) + 1 {
        return Err(format_error(format!(
            "{num_vertices} vertices exceed the 32-bit vertex-id space"
        )));
    }
    let n = usize::try_from(num_vertices)
        .map_err(|_| format_error("vertex count does not fit in memory on this platform"))?;
    let m = usize::try_from(num_arcs)
        .map_err(|_| format_error("arc count does not fit in memory on this platform"))?;
    if num_labels != 0 && num_labels != num_vertices {
        return Err(format_error(format!(
            "label table has {num_labels} entries, expected 0 or {num_vertices}"
        )));
    }
    let num_labels = usize::try_from(num_labels).expect("bounded by num_vertices");

    let offsets_len = section_len(n + 1, 8, "the offsets")?;
    let targets_len = section_len(m, 4, "the targets")?;
    let targets_pad = pad8(targets_len);
    let probs_len = section_len(m, 8, "the probabilities")?;

    let read_direction = |reader: &mut BufReader<R>,
                          checksum: &mut WordFnv,
                          name: &str|
     -> Result<RawDirection, GraphError> {
        let offsets_bytes = read_section(
            reader,
            checksum,
            offsets_len,
            &format!("the {name} offsets"),
        )?;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut previous = 0usize;
        for (index, chunk) in offsets_bytes.chunks_exact(8).enumerate() {
            let offset = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let offset = usize::try_from(offset).map_err(|_| {
                format_error(format!("{name} offset {index} does not fit in memory"))
            })?;
            // Monotone offsets bounded by m make every arc_range slice of
            // the rebuilt views in bounds — the one structural check the
            // walk hot path cannot live without.
            if offset < previous || offset > m {
                return Err(format_error(format!(
                    "{name} offsets are not monotone within {m} arcs at index {index}"
                )));
            }
            previous = offset;
            offsets.push(offset);
        }
        if offsets.first() != Some(&0) || offsets.last() != Some(&m) {
            return Err(format_error(format!(
                "{name} offsets do not span exactly {m} arcs"
            )));
        }
        let targets_bytes = read_section(
            reader,
            checksum,
            targets_len,
            &format!("the {name} targets"),
        )?;
        let targets: Vec<VertexId> = targets_bytes
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        let padding = read_section(
            reader,
            checksum,
            targets_pad,
            &format!("the {name} target padding"),
        )?;
        if padding.iter().any(|&b| b != 0) {
            return Err(format_error(format!("nonzero {name} target padding")));
        }
        let probs_bytes = read_section(
            reader,
            checksum,
            probs_len,
            &format!("the {name} probabilities"),
        )?;
        let probs: Vec<Probability> = probs_bytes
            .chunks_exact(8)
            .map(|c| Probability::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Ok((offsets, targets, probs))
    };

    let forward = read_direction(&mut reader, &mut checksum, "forward")?;
    let reverse = read_direction(&mut reader, &mut checksum, "reverse")?;

    let labels_bytes = read_section(
        &mut reader,
        &mut checksum,
        section_len(num_labels, 8, "the labels")?,
        "the label table",
    )?;
    let labels = decode_u64s(&labels_bytes);

    let mut alias = None;
    if flags & FLAG_ALIAS_TABLES != 0 {
        let slots_len = section_len(m + n, 16, "the alias slots")?;
        let mut read_table = |csr_offsets: &[usize],
                              name: &str|
         -> Result<AliasTable, GraphError> {
            let bytes = read_section(
                &mut reader,
                &mut checksum,
                slots_len,
                &format!("the {name} alias slots"),
            )?;
            let mut slots = Vec::with_capacity(m + n);
            for (index, chunk) in bytes.chunks_exact(16).enumerate() {
                let first = VertexId::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
                let second = VertexId::from_le_bytes(chunk[12..16].try_into().expect("4 bytes"));
                // Outcomes feed straight back into arc_range on the next
                // step, so out-of-range ids are the one corruption the walk
                // hot path cannot survive — same structural bar as the
                // offsets monotonicity check above.
                for id in [first, second] {
                    if id != crate::alias::DEAD && (id as u64) >= num_vertices {
                        return Err(format_error(format!(
                            "{name} alias slot {index} names vertex {id} outside the \
                             {num_vertices}-vertex graph"
                        )));
                    }
                }
                slots.push(AliasSlot {
                    prob: f64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes")),
                    first,
                    second,
                });
            }
            // d(v) + 1 slots per vertex: offsets are the CSR offsets shifted
            // by the vertex index, no separate array on disk.
            let offsets: Vec<usize> = csr_offsets
                .iter()
                .enumerate()
                .map(|(v, &o)| o + v)
                .collect();
            Ok(AliasTable::from_raw(offsets, slots))
        };
        let forward_table = read_table(&forward.0, "forward")?;
        let reverse_table = read_table(&reverse.0, "reverse")?;
        alias = Some((forward_table, reverse_table));
    }

    let expected = checksum.finish();
    let mut stored = [0u8; 8];
    reader.read_exact(&mut stored).map_err(|e| {
        format_error(format!(
            "truncated snapshot while reading the checksum: {e}"
        ))
    })?;
    let stored = u64::from_le_bytes(stored);
    if stored != expected {
        return Err(format_error(format!(
            "checksum mismatch: stored {stored:#018x}, computed {expected:#018x}; the snapshot is corrupted"
        )));
    }
    let mut trailing = [0u8; 1];
    if reader.read(&mut trailing).map_err(GraphError::from)? != 0 {
        return Err(format_error("trailing bytes after the snapshot checksum"));
    }
    check_unique_labels(&labels)?;

    let mut graph = UncertainGraph::from_raw_directions(n, forward, reverse);
    if let Some((forward_table, reverse_table)) = alias {
        graph.set_alias_tables(forward_table, reverse_table);
    }
    Ok(CsrSnapshot { graph, labels })
}

/// Reads a snapshot from a file (see [`read_snapshot`]).
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<CsrSnapshot, GraphError> {
    let file = File::open(path)?;
    read_snapshot(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UncertainGraph, UncertainGraphBuilder};

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

    fn encode(graph: &UncertainGraph, labels: &[u64]) -> Vec<u8> {
        let mut buffer = Vec::new();
        write_snapshot(graph, labels, &mut buffer).unwrap();
        buffer
    }

    /// Byte offsets of every section boundary of a snapshot of `graph`,
    /// computed from the format spec (not from the writer).
    fn section_boundaries(graph: &UncertainGraph, num_labels: usize) -> Vec<usize> {
        let n = graph.num_vertices();
        let m = graph.num_arcs();
        let direction = [(n + 1) * 8, m * 4 + pad8(m * 4), m * 8];
        let mut boundaries = vec![8, HEADER_LEN];
        let mut at = HEADER_LEN;
        for _ in 0..2 {
            for len in direction {
                at += len;
                boundaries.push(at);
            }
        }
        at += num_labels * 8;
        boundaries.push(at); // end of labels == start of checksum
        at += 8;
        boundaries.push(at); // end of file
        boundaries
    }

    #[test]
    fn roundtrip_restores_the_identical_csr() {
        let graph = fig1_graph();
        let csr = graph.clone();
        let labels: Vec<u64> = vec![10, 20, 30, 40, 50];
        let snapshot = read_snapshot(encode(&csr, &labels).as_slice()).unwrap();
        assert_eq!(snapshot.graph, csr);
        assert_eq!(snapshot.labels, labels);
    }

    #[test]
    fn roundtrip_without_labels_and_identity_synthesis() {
        let csr = fig1_graph();
        let snapshot = read_snapshot(encode(&csr, &[]).as_slice()).unwrap();
        assert_eq!(snapshot.graph, csr);
        assert!(snapshot.labels.is_empty());
        assert_eq!(snapshot.labels_or_identity(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_of_empty_and_odd_arc_count_graphs() {
        for arcs in [
            vec![],
            vec![(0, 1, 0.5)],
            vec![(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)],
        ] {
            let graph = UncertainGraph::from_arcs(3, arcs).unwrap();
            let csr = graph.clone();
            let snapshot = read_snapshot(encode(&csr, &[]).as_slice()).unwrap();
            assert_eq!(snapshot.graph, csr, "graph with {} arcs", csr.num_arcs());
        }
        let empty = UncertainGraph::from_arcs(0, []).unwrap();
        let snapshot = read_snapshot(encode(&empty, &[]).as_slice()).unwrap();
        assert_eq!(snapshot.graph.num_vertices(), 0);
    }

    #[test]
    fn file_helpers_roundtrip() {
        let path = std::env::temp_dir().join(format!("usim_snapshot_{}.csr", std::process::id()));
        let csr = fig1_graph();
        write_snapshot_file(&csr, &[9, 8, 7, 6, 5], &path).unwrap();
        let snapshot = read_snapshot_file(&path).unwrap();
        assert_eq!(snapshot.graph, csr);
        assert_eq!(snapshot.labels, vec![9, 8, 7, 6, 5]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_label_table_is_rejected_at_write_time() {
        let csr = fig1_graph();
        let mut buffer = Vec::new();
        let err = write_snapshot(&csr, &[1, 2], &mut buffer).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
    }

    #[test]
    fn duplicate_labels_are_rejected_at_write_time() {
        let csr = fig1_graph();
        let err = write_snapshot(&csr, &[10, 20, 30, 20, 50], Vec::new()).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
        assert!(err.to_string().contains("label 20"), "{err}");
    }

    #[test]
    fn duplicate_labels_in_a_checksummed_snapshot_are_rejected() {
        let csr = fig1_graph();
        let mut bytes = encode(&csr, &[10, 20, 30, 40, 50]);
        // The label table is the last section before the checksum: make
        // vertex 3's label repeat vertex 1's and re-seal, so only the
        // uniqueness check stands between the file and a shadowed vertex.
        let label_3 = bytes.len() - 8 - 2 * 8;
        bytes[label_3..label_3 + 8].copy_from_slice(&20u64.to_le_bytes());
        reseal(&mut bytes);
        let err = read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
        assert!(err.to_string().contains("label 20"), "{err}");
    }

    #[test]
    fn truncation_at_every_section_boundary_is_a_typed_error() {
        let csr = fig1_graph();
        let labels: Vec<u64> = vec![10, 20, 30, 40, 50];
        let bytes = encode(&csr, &labels);
        let boundaries = section_boundaries(&csr, labels.len());
        assert_eq!(*boundaries.last().unwrap(), bytes.len(), "spec drifted");
        for &boundary in &boundaries[..boundaries.len() - 1] {
            // At the boundary itself and one byte into the next section.
            for cut in [boundary, boundary.saturating_sub(1), boundary + 1] {
                let err = read_snapshot(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, GraphError::Format { .. }),
                    "cut at {cut}: {err}"
                );
                assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
            }
        }
    }

    #[test]
    fn a_bit_flip_in_every_header_field_is_a_typed_error() {
        let csr = fig1_graph();
        let labels: Vec<u64> = vec![10, 20, 30, 40, 50];
        let clean = encode(&csr, &labels);
        // Every byte of every header field: magic, version, reserved,
        // num_vertices, num_arcs, num_labels.
        for offset in 0..HEADER_LEN {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupted = clean.clone();
                corrupted[offset] ^= bit;
                let result = std::panic::catch_unwind(|| read_snapshot(corrupted.as_slice()));
                let outcome = result.unwrap_or_else(|_| {
                    panic!("header byte {offset} flipped by {bit:#04x} caused a panic")
                });
                let err = outcome.expect_err("corrupted header must not parse");
                assert!(
                    matches!(err, GraphError::Format { .. }),
                    "byte {offset} flip {bit:#04x}: {err}"
                );
            }
        }
    }

    #[test]
    fn body_bit_flips_are_caught_by_the_checksum() {
        let csr = fig1_graph();
        let clean = encode(&csr, &[]);
        for offset in [
            HEADER_LEN + 3,         // inside the forward offsets
            HEADER_LEN + 6 * 8 + 2, // inside the forward targets
            clean.len() - 12,       // inside the last section
        ] {
            let mut corrupted = clean.clone();
            corrupted[offset] ^= 0x10;
            let err = read_snapshot(corrupted.as_slice()).unwrap_err();
            assert!(
                matches!(err, GraphError::Format { .. }),
                "flip at {offset}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_checksum_and_trailing_bytes_are_rejected() {
        let csr = fig1_graph();
        let clean = encode(&csr, &[]);
        let mut corrupted = clean.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        let err = read_snapshot(corrupted.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let mut trailing = clean.clone();
        trailing.push(0);
        let err = read_snapshot(trailing.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// Recomputes the trailing checksum after a deliberate body edit, so a
    /// test can exercise the *structural* validation behind the checksum.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let mut checksum = WordFnv::new();
        checksum.update(&bytes[..body_len]);
        let digest = checksum.finish();
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn alias_tables_roundtrip_bit_for_bit() {
        let mut csr = fig1_graph();
        csr.build_alias_tables();
        let labels: Vec<u64> = vec![10, 20, 30, 40, 50];
        let bytes = encode(&csr, &labels);
        // The flags word announces the sections …
        assert_eq!(
            u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            FLAG_ALIAS_TABLES
        );
        // … and they are exactly (m + n) 16-byte slots per direction larger
        // than the same snapshot without tables.
        let plain = encode(&UncertainGraph::from_uncertain(&fig1_graph()), &labels);
        let per_direction = (csr.num_arcs() + csr.num_vertices()) * 16;
        assert_eq!(bytes.len(), plain.len() + 2 * per_direction);

        let snapshot = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snapshot.graph, csr);
        assert_eq!(snapshot.labels, labels);
        assert!(snapshot.graph.has_alias_tables());
        let (read_fwd, read_rev) = snapshot.graph.alias_tables().unwrap();
        let (orig_fwd, orig_rev) = csr.alias_tables().unwrap();
        assert_eq!(read_fwd, orig_fwd);
        assert_eq!(read_rev, orig_rev);
    }

    #[test]
    fn snapshots_without_alias_sections_still_load() {
        // Byte-for-byte the pre-flags format: flags word 0, nothing after
        // the labels.  This is every snapshot written before (or without)
        // the alias backend.
        let csr = fig1_graph();
        let bytes = encode(&csr, &[]);
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 0);
        let snapshot = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snapshot.graph, csr);
        assert!(!snapshot.graph.has_alias_tables());
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let csr = fig1_graph();
        let mut bytes = encode(&csr, &[]);
        bytes[13] = 0x04; // an undefined flag bit
        reseal(&mut bytes);
        let err = read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("flags"), "{err}");
    }

    #[test]
    fn truncated_alias_sections_are_a_typed_error() {
        let mut csr = fig1_graph();
        csr.build_alias_tables();
        let bytes = encode(&csr, &[]);
        let per_direction = (csr.num_arcs() + csr.num_vertices()) * 16;
        let alias_start = bytes.len() - 8 - 2 * per_direction;
        for cut in [
            alias_start + 1,                 // inside the forward slots
            alias_start + per_direction,     // boundary between directions
            alias_start + per_direction + 7, // inside the reverse slots
            bytes.len() - 9,                 // everything but the checksum
        ] {
            let err = read_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Format { .. }),
                "cut at {cut}: {err}"
            );
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn alias_bit_flips_are_caught_by_the_checksum() {
        let mut csr = fig1_graph();
        csr.build_alias_tables();
        let clean = encode(&csr, &[]);
        let per_direction = (csr.num_arcs() + csr.num_vertices()) * 16;
        let alias_start = clean.len() - 8 - 2 * per_direction;
        for offset in [alias_start, alias_start + per_direction + 5] {
            let mut corrupted = clean.clone();
            corrupted[offset] ^= 0x20;
            let err = read_snapshot(corrupted.as_slice()).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    #[test]
    fn out_of_range_alias_outcomes_are_rejected_even_with_a_valid_checksum() {
        let mut csr = fig1_graph();
        csr.build_alias_tables();
        let mut bytes = encode(&csr, &[]);
        let per_direction = (csr.num_arcs() + csr.num_vertices()) * 16;
        let alias_start = bytes.len() - 8 - 2 * per_direction;
        // `first` of the first forward slot -> a vertex id past the graph.
        bytes[alias_start + 8..alias_start + 12]
            .copy_from_slice(&(csr.num_vertices() as u32 + 7).to_le_bytes());
        reseal(&mut bytes);
        let err = read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn snapshot_graph_preserves_every_arc_and_probability() {
        let arcless = UncertainGraphBuilder::new(3).build().unwrap();
        for original in [fig1_graph(), arcless] {
            let snapshot = read_snapshot(encode(&original, &[]).as_slice()).unwrap();
            snapshot.validate().unwrap();
            let restored = snapshot.graph;
            assert_eq!(restored.num_vertices(), original.num_vertices());
            assert_eq!(restored.num_arcs(), original.num_arcs());
            for arc in original.arcs() {
                let p = restored.arc_probability(arc.source, arc.target);
                assert_eq!(
                    p,
                    Some(arc.probability),
                    "arc ({}, {})",
                    arc.source,
                    arc.target
                );
            }
        }
    }

    #[test]
    fn text_and_snapshot_formats_agree() {
        let graph = fig1_graph();
        let mut text = Vec::new();
        crate::io::write_edge_list(&graph, &[], &mut text).unwrap();
        // `assume_compact` keeps the original vertex ids so arcs can be
        // compared positionally with the snapshot round trip.
        let options = crate::io::ReadOptions {
            assume_compact: true,
            ..Default::default()
        };
        let from_text = crate::io::read_edge_list(text.as_slice(), &options)
            .unwrap()
            .graph;
        let from_snapshot = read_snapshot(encode(&graph, &[]).as_slice()).unwrap().graph;
        assert_eq!(from_text, from_snapshot);
    }

    /// Byte offsets of the forward targets, the forward probabilities and
    /// the reverse probabilities of a label-less snapshot of `graph`.
    fn arc_sections(graph: &UncertainGraph) -> (usize, usize, usize) {
        let boundaries = section_boundaries(graph, 0);
        (boundaries[2], boundaries[3], boundaries[6])
    }

    #[test]
    fn resealed_invalid_arcs_are_typed_errors_on_conversion() {
        let graph = fig1_graph();
        let n = graph.num_vertices();
        let (first_target, first_prob, reverse_prob) = arc_sections(&graph);
        // The reader trusts per-arc values to the checksum, so a resealed
        // edit loads; the validation every `usim` command runs when it
        // turns a snapshot file into a loaded graph must still refuse it.
        let rejection = |edits: &[(usize, Vec<u8>)]| {
            let mut bytes = encode(&graph, &[]);
            for (at, new) in edits {
                bytes[*at..*at + new.len()].copy_from_slice(new);
            }
            reseal(&mut bytes);
            read_snapshot(bytes.as_slice())
                .unwrap()
                .validate()
                .unwrap_err()
        };
        let le =
            |values: &[f64]| -> Vec<u8> { values.iter().flat_map(|p| p.to_le_bytes()).collect() };

        let err = rejection(&[(first_prob, le(&[1.5]))]);
        assert!(
            matches!(err, GraphError::InvalidProbability { probability, .. } if probability == 1.5),
            "{err}"
        );

        let err = rejection(&[(first_target, (n as u32 + 3).to_le_bytes().to_vec())]);
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }), "{err}");

        // Vertex 0's row is [2, 3] with probabilities [0.8, 0.5]: swap both
        // arcs, so the row holds the same arcs out of order.
        let err = rejection(&[
            (first_target, vec![3, 0, 0, 0, 2, 0, 0, 0]),
            (first_prob, le(&[0.5, 0.8])),
        ]);
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
        assert!(err.to_string().contains("not strictly sorted"), "{err}");

        // A valid probability on the reverse arc (1, 0), but not the one
        // the forward rows give it.
        let err = rejection(&[(reverse_prob, le(&[0.25]))]);
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
        assert!(err.to_string().contains("not the transpose"), "{err}");
    }

    #[test]
    fn future_versions_are_rejected() {
        let csr = fig1_graph();
        let mut bytes = encode(&csr, &[]);
        bytes[8] = 2; // version field
        let err = read_snapshot(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
