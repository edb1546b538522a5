//! The walk-set memo a [`crate::QueryEngine`] keeps for its current update
//! epoch: vertex → that vertex's walk set, and vertex → its two-hop row.
//!
//! A bare engine has none.  [`crate::CachedQueryEngine::new`] gives its
//! engine one when its capacity (`usim serve --cache-capacity`) is above 0,
//! bounded by that capacity.  Every query path of the engine then reads it:
//! the misses a query computes fill it, and every later pair or `top_k`
//! candidate naming the vertex reads the set instead of sampling its walks
//! again.  A set is a pure function of `(seed, vertex, graph state)`, so
//! memo-warm answers are the bits of a bare engine.  The memo holds at most
//! `capacity` sets; when full it computes without keeping.  A sampled set
//! is moved into the memo, not copied.
//!
//! The memo also keeps **two-hop rows**: for a vertex `a`, the
//! `(w, Pr(a →₂ w))` entries that exact `m(2)`'s scatter leaves in its
//! table, in first-touch order (12 bytes each).  A pair whose smaller
//! endpoint has a kept row fills the table from it instead of reading the
//! row's two-hop arcs (about eleven per entry on R-MAT), and the other side
//! gathers as before, so every `m(2)` keeps its bits.  Rows are kept on
//! *second sight*: a vertex's first miss in an epoch only marks it, its
//! second records and keeps the row, so the many vertices a `churn` round
//! reads once before the next update never pay for a row copy.  The byte
//! rule: kept rows, with the map slots of marked vertices, hold at most
//! 4 KiB per set of capacity (256 MiB at 65,536); once a row does not fit,
//! the epoch keeps no more.
//!
//! Fills happen through `&self` while queries run;
//! [`crate::QueryEngine::apply_updates`] clears sets, rows and marks through
//! `&mut self` after a successful batch, in O(entries) and without taking a
//! lock, so everything kept belongs to the epoch being served.  A rejected
//! batch leaves them as they were.

use crate::engine::{TwoHopRow, WalkSet};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ugraph::VertexId;

/// Shards of a [`WalkSetMemo`] (each with its own lock).
const MEMO_SHARDS: usize = 16;

/// Bytes of two-hop rows a memo may keep per set of its capacity: 256 MiB
/// at a capacity of 65,536.  A row is kept only while the rows already kept
/// leave room for it.
const ROW_BYTES_PER_SET: usize = 4096;

/// A snapshot of one structure of the walk-set memo (see
/// [`crate::QueryEngine::walk_set_stats`] and
/// [`crate::QueryEngine::two_hop_row_stats`]).  `hits` and `misses` are
/// cumulative since construction; `entries` and `bytes` describe what is
/// kept at the current epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Walk sets, or two-hop rows, kept.
    pub entries: usize,
    /// Bytes they hold: each one's fields and heap capacity plus its map
    /// slot and reference counts (for rows, also the map slots of vertices
    /// seen once).
    pub bytes: usize,
    /// Lookups that found the vertex's set or row.
    pub hits: u64,
    /// Lookups that did not, so the set was sampled or the row scattered.
    pub misses: u64,
}

/// Lock-free counters behind one [`MemoStats`].
#[derive(Debug, Default)]
struct MemoCounters {
    entries: AtomicUsize,
    bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCounters {
    fn count_lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserves `bytes` if that keeps the total within `budget`.
    fn reserve_bytes(&self, bytes: usize, budget: usize) -> bool {
        let before = self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if before + bytes <= budget {
            return true;
        }
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        false
    }

    fn reset(&mut self) {
        *self.entries.get_mut() = 0;
        *self.bytes.get_mut() = 0;
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// What a two-hop-row lookup found (see [`WalkSetMemo::row`]).
pub(crate) enum RowLookup {
    /// The vertex's kept row.
    Hit(Arc<TwoHopRow>),
    /// A miss on a vertex seen before in this epoch, with room left: record
    /// the row and offer it ([`WalkSetMemo::offer_row`]).
    Keep,
    /// A miss to compute without keeping.
    Skip,
}

/// One shard: vertex → walk set, and vertex → two-hop row (`None` for a
/// vertex whose row has been computed once in this epoch).
#[derive(Debug, Default)]
struct MemoShard {
    sets: HashMap<VertexId, Arc<WalkSet>>,
    rows: HashMap<VertexId, Option<Arc<TwoHopRow>>>,
}

/// The epoch-scoped memo of a [`crate::QueryEngine`]: vertex → its
/// [`WalkSet`] and its [`TwoHopRow`] at the current update epoch, with at
/// most `capacity` sets and `capacity × ROW_BYTES_PER_SET` bytes of rows.
#[derive(Debug)]
pub(crate) struct WalkSetMemo {
    shards: Vec<Mutex<MemoShard>>,
    capacity: usize,
    row_budget: usize,
    rows_full: AtomicBool,
    sets: MemoCounters,
    rows: MemoCounters,
}

impl WalkSetMemo {
    pub(crate) fn new(capacity: usize) -> Self {
        WalkSetMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
            capacity,
            row_budget: capacity.saturating_mul(ROW_BYTES_PER_SET),
            rows_full: AtomicBool::new(false),
            sets: MemoCounters::default(),
            rows: MemoCounters::default(),
        }
    }

    fn shard(&self, vertex: VertexId) -> &Mutex<MemoShard> {
        let mixed = u64::from(vertex).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 32) as usize % MEMO_SHARDS]
    }

    /// `vertex`'s kept set, counting the lookup as a hit or a miss.
    pub(crate) fn get(&self, vertex: VertexId) -> Option<Arc<WalkSet>> {
        let set = self.shard(vertex).lock().sets.get(&vertex).cloned();
        self.sets.count_lookup(set.is_some());
        set
    }

    /// Keeps `vertex`'s freshly sampled set when there is room, taking it
    /// out of `set` (left empty) instead of copying it, and returns it.  Two
    /// workers that sampled the same vertex offer equal sets; the second is
    /// returned but not kept.  With no room, `set` is left as it is.
    pub(crate) fn offer(&self, vertex: VertexId, set: &mut WalkSet) -> Option<Arc<WalkSet>> {
        if self.sets.entries.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.sets.entries.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let kept = Arc::new(std::mem::take(set));
        let bytes = kept.bytes() + Self::SLOT_BYTES;
        let mut shard = self.shard(vertex).lock();
        match shard.sets.entry(vertex) {
            Entry::Occupied(_) => {
                self.sets.entries.fetch_sub(1, Ordering::Relaxed);
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&kept));
                self.sets.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        Some(kept)
    }

    /// `vertex`'s kept two-hop row, or what to do on the miss: the first
    /// miss in an epoch marks the vertex seen, the second asks for the row.
    /// Counts the lookup as a hit or a miss.
    pub(crate) fn row(&self, vertex: VertexId) -> RowLookup {
        let full = self.rows_full.load(Ordering::Relaxed);
        let mut shard = self.shard(vertex).lock();
        let lookup = match shard.rows.get(&vertex) {
            Some(Some(row)) => RowLookup::Hit(Arc::clone(row)),
            Some(None) if !full => RowLookup::Keep,
            Some(None) => RowLookup::Skip,
            None if full => RowLookup::Skip,
            None => {
                if self
                    .rows
                    .reserve_bytes(Self::ROW_SLOT_BYTES, self.row_budget)
                {
                    shard.rows.insert(vertex, None);
                } else {
                    self.rows_full.store(true, Ordering::Relaxed);
                }
                RowLookup::Skip
            }
        };
        drop(shard);
        self.rows.count_lookup(matches!(lookup, RowLookup::Hit(_)));
        lookup
    }

    /// Keeps `vertex`'s freshly recorded row, answering a
    /// [`RowLookup::Keep`], if it fits the budget; a row that does not fit
    /// stops the keeping of rows until the next clear.
    pub(crate) fn offer_row(&self, vertex: VertexId, row: TwoHopRow) {
        let bytes = row.bytes() + 2 * std::mem::size_of::<usize>();
        if !self.rows.reserve_bytes(bytes, self.row_budget) {
            self.rows_full.store(true, Ordering::Relaxed);
            return;
        }
        let row = Arc::new(row);
        let mut shard = self.shard(vertex).lock();
        match shard.rows.get_mut(&vertex) {
            Some(slot @ None) => {
                *slot = Some(row);
                self.rows.entries.fetch_add(1, Ordering::Relaxed);
            }
            // A racing worker kept an equal row first.
            _ => {
                self.rows.bytes.fetch_sub(bytes, Ordering::Relaxed);
            }
        }
    }

    /// A set's map slot plus an `Arc`'s two reference counts.
    const SLOT_BYTES: usize =
        std::mem::size_of::<(VertexId, Arc<WalkSet>)>() + 2 * std::mem::size_of::<usize>();

    /// A row's map slot, counted from the vertex's first sight.
    const ROW_SLOT_BYTES: usize = std::mem::size_of::<(VertexId, Option<Arc<TwoHopRow>>)>();

    /// The two-hop rows' counters.
    pub(crate) fn row_stats(&self) -> MemoStats {
        self.rows.stats()
    }

    /// Drops every kept set and row and every seen mark; O(entries).
    /// Takes `&mut self`, so no query is filling the memo meanwhile and no
    /// shard lock is taken.
    pub(crate) fn clear(&mut self) {
        for shard in &mut self.shards {
            let shard = shard.get_mut();
            // Fresh maps: clearing in place would keep the largest table
            // the memo ever grew to, and `clear` walks it.
            if !shard.sets.is_empty() {
                shard.sets = HashMap::new();
            }
            if !shard.rows.is_empty() {
                shard.rows = HashMap::new();
            }
        }
        self.sets.reset();
        self.rows.reset();
        *self.rows_full.get_mut() = false;
    }

    /// The walk sets' counters.
    pub(crate) fn set_stats(&self) -> MemoStats {
        self.sets.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_hop_rows_stop_at_the_byte_budget() {
        // Capacity 1 allows 4 KiB of rows.
        let mut memo = WalkSetMemo::new(1);
        for vertex in [1, 2, 3] {
            assert!(matches!(memo.row(vertex), RowLookup::Skip));
        }
        let marks = memo.row_stats().bytes;
        assert_eq!(marks, 3 * WalkSetMemo::ROW_SLOT_BYTES);
        let row = |entries: u32| TwoHopRow {
            targets: (0..entries).collect(),
            sums: vec![0.25; entries as usize],
        };
        assert!(matches!(memo.row(1), RowLookup::Keep));
        memo.offer_row(1, row(8));
        assert!(matches!(memo.row(1), RowLookup::Hit(_)));
        // 400 entries take 4.8 KB: the row is dropped, and the epoch keeps
        // no further row, even one that would fit.
        assert!(matches!(memo.row(2), RowLookup::Keep));
        memo.offer_row(2, row(400));
        assert!(matches!(memo.row(2), RowLookup::Skip));
        assert!(matches!(memo.row(3), RowLookup::Skip));
        let rows = memo.row_stats();
        assert_eq!(rows.entries, 1);
        assert!(rows.bytes <= 4096, "{rows:?}");
        // A clear starts a new epoch with the whole budget.
        memo.clear();
        assert!(matches!(memo.row(2), RowLookup::Skip));
        assert!(matches!(memo.row(2), RowLookup::Keep));
        assert_eq!(memo.row_stats().entries, 0);
    }
}
