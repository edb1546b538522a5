//! An append-only on-disk log of [`GraphUpdate`] rounds.
//!
//! A [`crate::snapshot`] freezes the graph at epoch 0; the update log
//! carries everything that happened after.  Every round a server applies
//! through [`crate::DeltaOverlay`] is appended as one checksummed frame, so
//! a restarted process replays the log on top of the snapshot and arrives
//! at the exact epoch the previous process died at — round `i` of the log
//! is epoch `i + 1`, the same numbering [`QueryEngine::update_epoch`] uses.
//!
//! ```text
//! offset  size   field
//! 0       8      magic  b"USIMLOG1"
//! then, per round frame:
//!   0     4      number of updates in the round  (u32, little endian)
//!   4     17·c   records: op u8 (0 insert / 1 delete / 2 set),
//!                source u32, target u32, probability f64
//!   4+17c 8      FNV-1a checksum of this frame's bytes so far (u64)
//! ```
//!
//! Each [`UpdateLog::append_round`] writes one frame and syncs it to disk
//! before returning, so an acknowledged update round is durable.  Reading
//! validates the magic and every frame checksum; a torn or bit-flipped
//! frame — including a partial trailing frame from a crash mid-append — is
//! reported as a typed [`GraphError::Format`] rather than replayed as a
//! silently different graph.
//!
//! [`QueryEngine::update_epoch`]: https://docs.rs/usim_core (crates/core)

use crate::error::format_error;
use crate::{GraphError, GraphUpdate, Probability, VertexId};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// File magic of the update-log format, version 1.
pub const MAGIC: &[u8; 8] = b"USIMLOG1";

const RECORD_LEN: usize = 1 + 4 + 4 + 8;

/// Incrementally computed byte-wise FNV-1a hash: the checksum of every
/// log frame.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_SET: u8 = 2;

fn encode_record(update: &GraphUpdate) -> [u8; RECORD_LEN] {
    let (op, source, target, probability) = match *update {
        GraphUpdate::InsertArc {
            source,
            target,
            probability,
        } => (OP_INSERT, source, target, probability),
        GraphUpdate::DeleteArc { source, target } => (OP_DELETE, source, target, 0.0),
        GraphUpdate::SetProbability {
            source,
            target,
            probability,
        } => (OP_SET, source, target, probability),
    };
    let mut record = [0u8; RECORD_LEN];
    record[0] = op;
    record[1..5].copy_from_slice(&source.to_le_bytes());
    record[5..9].copy_from_slice(&target.to_le_bytes());
    record[9..17].copy_from_slice(&probability.to_le_bytes());
    record
}

fn decode_record(record: &[u8]) -> Result<GraphUpdate, GraphError> {
    let source = VertexId::from_le_bytes(record[1..5].try_into().expect("4-byte slice"));
    let target = VertexId::from_le_bytes(record[5..9].try_into().expect("4-byte slice"));
    let probability = Probability::from_le_bytes(record[9..17].try_into().expect("8-byte slice"));
    match record[0] {
        OP_INSERT => Ok(GraphUpdate::InsertArc {
            source,
            target,
            probability,
        }),
        OP_DELETE => Ok(GraphUpdate::DeleteArc { source, target }),
        OP_SET => Ok(GraphUpdate::SetProbability {
            source,
            target,
            probability,
        }),
        op => Err(format_error(format!("unknown update-log opcode {op}"))),
    }
}

/// Reads and validates every round of an update log from `reader`.
pub fn read_rounds<R: Read>(reader: R) -> Result<Vec<Vec<GraphUpdate>>, GraphError> {
    let mut reader = BufReader::new(reader);
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format_error(format!("truncated update log while reading the magic: {e}")))?;
    if &magic != MAGIC {
        return Err(format_error(format!(
            "bad magic {magic:?}; not an update log (expected {MAGIC:?})"
        )));
    }

    let mut rounds = Vec::new();
    loop {
        let mut count_bytes = [0u8; 4];
        if reader
            .read(&mut count_bytes[..1])
            .map_err(GraphError::from)?
            == 0
        {
            break; // clean end of log
        }
        reader.read_exact(&mut count_bytes[1..]).map_err(|e| {
            format_error(format!(
                "torn update log: round {} header is incomplete: {e}",
                rounds.len()
            ))
        })?;
        let mut checksum = Fnv1a::new();
        checksum.update(&count_bytes);
        let count = u32::from_le_bytes(count_bytes) as usize;

        let mut round = Vec::with_capacity(count.min(1 << 20));
        let mut record = [0u8; RECORD_LEN];
        for index in 0..count {
            reader.read_exact(&mut record).map_err(|e| {
                format_error(format!(
                    "torn update log: round {} record {index} is incomplete: {e}",
                    rounds.len()
                ))
            })?;
            checksum.update(&record);
            round.push(decode_record(&record)?);
        }

        let expected = checksum.finish();
        let mut stored = [0u8; 8];
        reader.read_exact(&mut stored).map_err(|e| {
            format_error(format!(
                "torn update log: round {} checksum is incomplete: {e}",
                rounds.len()
            ))
        })?;
        let stored = u64::from_le_bytes(stored);
        if stored != expected {
            return Err(format_error(format!(
                "update-log round {} checksum mismatch: stored {stored:#018x}, computed {expected:#018x}",
                rounds.len()
            )));
        }
        rounds.push(round);
    }
    Ok(rounds)
}

/// Reads and validates every round of an update log file.
pub fn read_rounds_file<P: AsRef<Path>>(path: P) -> Result<Vec<Vec<GraphUpdate>>, GraphError> {
    let file = File::open(path)?;
    read_rounds(file)
}

/// An open append handle on an update log.
///
/// # Example
///
/// ```no_run
/// use ugraph::{GraphUpdate, UpdateLog};
///
/// let (mut log, replayed) = UpdateLog::open("graph.ulog").unwrap();
/// // `replayed` holds every round a previous process recorded; apply them
/// // to the engine, then keep appending new rounds as they are served.
/// assert!(replayed.is_empty());
/// log.append_round(&[GraphUpdate::DeleteArc { source: 0, target: 1 }])
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct UpdateLog {
    file: File,
}

impl UpdateLog {
    /// Opens the log at `path` for appending, creating it (with just the
    /// magic) when absent, and returns the handle together with every round
    /// already recorded — the rounds a restarted server must replay before
    /// serving.  An existing file is fully validated first: a torn or
    /// corrupt log refuses to open rather than desynchronising the replay.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<(UpdateLog, Vec<Vec<GraphUpdate>>), GraphError> {
        let path = path.as_ref();
        let exists = path.exists() && std::fs::metadata(path)?.len() > 0;
        let rounds = if exists {
            read_rounds_file(path)?
        } else {
            Vec::new()
        };
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if !exists {
            file.write_all(MAGIC)?;
            file.sync_data()?;
        }
        Ok((UpdateLog { file }, rounds))
    }

    /// Appends one round as a checksummed frame and syncs it to disk; once
    /// this returns, a restart replays the round.
    pub fn append_round(&mut self, updates: &[GraphUpdate]) -> Result<(), GraphError> {
        let count = u32::try_from(updates.len())
            .map_err(|_| format_error("update round exceeds u32::MAX records"))?;
        let mut frame = Vec::with_capacity(4 + updates.len() * RECORD_LEN + 8);
        frame.extend_from_slice(&count.to_le_bytes());
        for update in updates {
            frame.extend_from_slice(&encode_record(update));
        }
        let mut checksum = Fnv1a::new();
        checksum.update(&frame);
        frame.extend_from_slice(&checksum.finish().to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("usim_ulog_{tag}_{}.ulog", std::process::id()))
    }

    fn sample_rounds() -> Vec<Vec<GraphUpdate>> {
        vec![
            vec![
                GraphUpdate::InsertArc {
                    source: 0,
                    target: 3,
                    probability: 0.25,
                },
                GraphUpdate::SetProbability {
                    source: 1,
                    target: 2,
                    probability: 0.5,
                },
            ],
            vec![GraphUpdate::DeleteArc {
                source: 0,
                target: 3,
            }],
            vec![], // an empty round still bumps the epoch when replayed
        ]
    }

    #[test]
    fn append_and_reopen_replays_every_round_in_order() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut log, replayed) = UpdateLog::open(&path).unwrap();
        assert!(replayed.is_empty());
        for round in sample_rounds() {
            log.append_round(&round).unwrap();
        }
        drop(log);

        let (mut log, replayed) = UpdateLog::open(&path).unwrap();
        assert_eq!(replayed, sample_rounds());
        // Appending after a reopen continues the same log.
        log.append_round(&[GraphUpdate::DeleteArc {
            source: 9,
            target: 9,
        }])
        .unwrap();
        drop(log);
        let rounds = read_rounds_file(&path).unwrap();
        assert_eq!(rounds.len(), sample_rounds().len() + 1);
        std::fs::remove_file(&path).unwrap();
    }

    fn encode_log(rounds: &[Vec<GraphUpdate>]) -> Vec<u8> {
        let path = temp_path("encode");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = UpdateLog::open(&path).unwrap();
        for round in rounds {
            log.append_round(round).unwrap();
        }
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_log(&sample_rounds());
        bytes[0] = b'X';
        let err = read_rounds(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn a_torn_trailing_frame_is_a_typed_error_at_every_cut() {
        let bytes = encode_log(&sample_rounds());
        // Every strictly-partial prefix beyond the magic must be rejected
        // as a typed Format error — a crash can tear the file anywhere.
        for cut in 9..bytes.len() {
            if clean_frame_boundary(&bytes, cut) {
                continue;
            }
            let err = read_rounds(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Format { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    /// Whether `cut` lands exactly between frames (those prefixes are valid
    /// logs: the tail rounds are simply lost, which replay tolerates —
    /// durability of acked rounds is append_round's sync, not the reader).
    fn clean_frame_boundary(bytes: &[u8], cut: usize) -> bool {
        let mut at = 8;
        while at <= cut {
            if at == cut {
                return true;
            }
            let count =
                u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice")) as usize;
            at += 4 + count * RECORD_LEN + 8;
        }
        false
    }

    #[test]
    fn a_bit_flip_in_any_frame_is_a_typed_error() {
        let clean = encode_log(&sample_rounds());
        for offset in 8..clean.len() {
            let mut corrupted = clean.clone();
            corrupted[offset] ^= 0x04;
            match read_rounds(corrupted.as_slice()) {
                Err(GraphError::Format { .. }) => {}
                Err(other) => panic!("flip at {offset}: wrong error type {other}"),
                Ok(rounds) => {
                    // A flip in a count field could in principle re-frame the
                    // log into different-but-checksummed rounds; FNV makes
                    // that astronomically unlikely, and it must never decode
                    // back to the original rounds with different content.
                    panic!("flip at {offset} parsed as {rounds:?}")
                }
            }
        }
    }

    #[test]
    fn an_empty_file_refuses_to_parse_but_open_creates_the_magic() {
        let err = read_rounds(&[] as &[u8]).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }), "{err}");
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let (log, rounds) = UpdateLog::open(&path).unwrap();
        drop(log);
        assert!(rounds.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
        assert!(read_rounds_file(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
