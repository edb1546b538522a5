//! Dynamic uncertain graphs: a mutable delta overlay on an immutable
//! [`UncertainGraph`].
//!
//! The paper models uncertain graphs whose arc probabilities come from real,
//! evolving data (entity-resolution links, noisy crawls), but an
//! [`UncertainGraph`]'s CSR arrays are frozen at build time: any churn used
//! to force a full rebuild of the flat arrays and of everything referencing
//! them.  [`DeltaOverlay`] makes the CSR engine long-lived instead:
//!
//! * **updates** ([`GraphUpdate`]: arc insertion, deletion, probability
//!   change) are validated as a batch and recorded as sorted per-vertex
//!   patched rows — the touched vertex's base slice merged with its
//!   accumulated deltas, kept sorted by target id so every binary-search and
//!   zip-iteration invariant of [`CsrView`] carries over;
//! * **reads** go through [`OverlayView`], a [`GraphView`] that serves a
//!   patched row when one exists and the untouched base slice otherwise.
//!   Untouched vertices therefore return pointer-identical slices, which
//!   keeps the RNG draw order of random walks over them bit-identical to the
//!   static graph — the property the batch engine's determinism tests pin;
//! * **compaction** folds the patched rows back into a fresh contiguous
//!   [`UncertainGraph`] once the recorded churn crosses a [`CompactionPolicy`]
//!   threshold, bounding both the per-read hash lookup cost and the overlay
//!   memory.
//!
//! Both directions (forward adjacency and its transpose) are patched in
//! lockstep, so the overlay maintains the same invariant as
//! [`UncertainGraph`]: the reverse view is exactly the forward view of the
//! transposed graph.
//!
//! # Example
//!
//! ```
//! use ugraph::{DeltaOverlay, GraphUpdate, UncertainGraph};
//!
//! let g = UncertainGraph::from_arcs(3, [(0, 1, 0.5), (1, 2, 0.9)]).unwrap();
//! let mut overlay = DeltaOverlay::new(g);
//! overlay
//!     .apply_all(&[
//!         GraphUpdate::InsertArc { source: 2, target: 0, probability: 0.4 },
//!         GraphUpdate::SetProbability { source: 0, target: 1, probability: 0.7 },
//!         GraphUpdate::DeleteArc { source: 1, target: 2 },
//!     ])
//!     .unwrap();
//! assert_eq!(overlay.num_arcs(), 2);
//! assert_eq!(overlay.arc_probability(0, 1), Some(0.7));
//! assert!(!overlay.has_arc(1, 2));
//! // The reverse view tracks the same mutations.
//! assert_eq!(overlay.reverse().neighbors(0), &[2]);
//! ```

use crate::alias::{build_alias_row, AliasSlot, AliasTable, AliasView, CsrAliasView};
use crate::csr::{CsrView, GraphView};
use crate::uncertain::{RawDirection, UncertainGraph};
use crate::{Probability, VertexId};
use std::collections::HashMap;
use std::fmt;

/// One mutation of a live uncertain graph.
///
/// The three variants have strict semantics so that a malformed update
/// stream is a reported error, never a silent merge: inserting an existing
/// arc, deleting a missing arc and re-weighting a missing arc are all
/// rejected (see [`UpdateError`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphUpdate {
    /// Add the arc `(source, target)` with the given existence probability.
    /// Fails with [`UpdateError::ArcAlreadyExists`] when the arc is present.
    InsertArc {
        /// Source vertex of the new arc.
        source: VertexId,
        /// Target vertex of the new arc.
        target: VertexId,
        /// Existence probability in `(0, 1]`.
        probability: Probability,
    },
    /// Remove the arc `(source, target)`.  Fails with
    /// [`UpdateError::ArcNotFound`] when the arc is absent.
    DeleteArc {
        /// Source vertex of the arc to remove.
        source: VertexId,
        /// Target vertex of the arc to remove.
        target: VertexId,
    },
    /// Replace the existence probability of the arc `(source, target)`.
    /// Fails with [`UpdateError::ArcNotFound`] when the arc is absent.
    SetProbability {
        /// Source vertex of the arc to re-weight.
        source: VertexId,
        /// Target vertex of the arc to re-weight.
        target: VertexId,
        /// New existence probability in `(0, 1]`.
        probability: Probability,
    },
}

impl GraphUpdate {
    /// The `(source, target)` endpoints the update touches.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            GraphUpdate::InsertArc { source, target, .. }
            | GraphUpdate::DeleteArc { source, target }
            | GraphUpdate::SetProbability { source, target, .. } => (source, target),
        }
    }
}

/// Why a batch of [`GraphUpdate`]s was rejected.
///
/// [`DeltaOverlay::apply_all`] is all-or-nothing: the batch is validated
/// (against the graph state it would observe while being applied in order)
/// before any mutation happens, so an `Err` leaves the overlay untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateError {
    /// An update references a vertex id `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices of the live graph.
        num_vertices: usize,
    },
    /// An insert or re-weight carried a probability outside `(0, 1]`.
    InvalidProbability {
        /// Source vertex of the offending update.
        source: VertexId,
        /// Target vertex of the offending update.
        target: VertexId,
        /// The offending probability value.
        probability: Probability,
    },
    /// [`GraphUpdate::InsertArc`] named an arc that already exists.
    ArcAlreadyExists {
        /// Source vertex of the duplicate arc.
        source: VertexId,
        /// Target vertex of the duplicate arc.
        target: VertexId,
    },
    /// [`GraphUpdate::DeleteArc`] / [`GraphUpdate::SetProbability`] named an
    /// arc that does not exist.
    ArcNotFound {
        /// Source vertex of the missing arc.
        source: VertexId,
        /// Target vertex of the missing arc.
        target: VertexId,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "update references vertex {vertex}, but the graph has {num_vertices} vertices"
            ),
            UpdateError::InvalidProbability {
                source,
                target,
                probability,
            } => write!(
                f,
                "update of arc ({source}, {target}) carries invalid probability {probability}; \
                 probabilities must lie in (0, 1]"
            ),
            UpdateError::ArcAlreadyExists { source, target } => write!(
                f,
                "cannot insert arc ({source}, {target}): it already exists \
                 (use a set-probability update to re-weight it)"
            ),
            UpdateError::ArcNotFound { source, target } => {
                write!(f, "arc ({source}, {target}) does not exist")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// When a [`DeltaOverlay`] folds its patched rows back into a fresh CSR.
///
/// Compaction triggers once the number of recorded update operations since
/// the last compaction reaches
/// `max(min_ops, ceil(ops_fraction * base_arcs))`.  The two knobs cover both
/// regimes: `min_ops` keeps tiny graphs from compacting on every update,
/// `ops_fraction` bounds the overlay relative to the graph size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Minimum recorded operations before compaction is considered.
    pub min_ops: usize,
    /// Compact when the recorded operations exceed this fraction of the
    /// base graph's arc count.
    pub ops_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_ops: 4096,
            ops_fraction: 0.25,
        }
    }
}

impl CompactionPolicy {
    /// A policy that compacts after every applied batch (threshold 1).
    pub fn eager() -> Self {
        CompactionPolicy {
            min_ops: 1,
            ops_fraction: 0.0,
        }
    }

    /// A policy that never compacts automatically ([`DeltaOverlay::compact`]
    /// can still be called explicitly).
    pub fn never() -> Self {
        CompactionPolicy {
            min_ops: usize::MAX,
            ops_fraction: 0.0,
        }
    }

    /// The operation-count threshold for a base graph with `base_arcs` arcs.
    pub fn threshold(&self, base_arcs: usize) -> usize {
        let by_fraction = (self.ops_fraction * base_arcs as f64).ceil();
        let by_fraction = if by_fraction.is_finite() && by_fraction >= 0.0 {
            by_fraction as usize
        } else {
            0
        };
        self.min_ops.max(by_fraction).max(1)
    }
}

/// What a successful [`DeltaOverlay::apply_all`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateSummary {
    /// Arcs inserted by the batch.
    pub inserted: usize,
    /// Arcs deleted by the batch.
    pub deleted: usize,
    /// Arcs whose probability the batch replaced.
    pub reweighted: usize,
    /// Whether applying the batch triggered a compaction.
    pub compacted: bool,
    /// Live arc count after the batch.
    pub num_arcs: usize,
}

/// The merged, sorted adjacency of one touched vertex in one direction:
/// the vertex's base slice with all recorded deltas folded in.
#[derive(Debug, Clone, Default)]
struct Row {
    targets: Vec<VertexId>,
    probs: Vec<Probability>,
    /// The vertex's rebuilt alias row, maintained only when the base carries
    /// alias tables (refreshed after every applied batch that touches the
    /// vertex, so reads never see a stale table).
    alias: Option<Vec<AliasSlot>>,
}

impl Row {
    fn insert(&mut self, w: VertexId, p: Probability) {
        let idx = self
            .targets
            .binary_search(&w)
            .expect_err("validated insert of an arc that already exists");
        self.targets.insert(idx, w);
        self.probs.insert(idx, p);
    }

    fn remove(&mut self, w: VertexId) {
        let idx = self
            .targets
            .binary_search(&w)
            .expect("validated delete of an arc that does not exist");
        self.targets.remove(idx);
        self.probs.remove(idx);
    }

    fn set(&mut self, w: VertexId, p: Probability) {
        let idx = self
            .targets
            .binary_search(&w)
            .expect("validated re-weight of an arc that does not exist");
        self.probs[idx] = p;
    }
}

/// The patched rows of one direction, keyed by touched vertex.
#[derive(Debug, Clone, Default)]
struct DirOverlay {
    rows: HashMap<VertexId, Row>,
}

impl DirOverlay {
    /// The patched row of `v`, seeding it from the base slice on first touch
    /// (this is the sorted-slice merge: the base view's slices are copied
    /// once, then edited in place in sorted order).
    fn row_mut(&mut self, base: CsrView<'_>, v: VertexId) -> &mut Row {
        self.rows.entry(v).or_insert_with(|| Row {
            targets: base.neighbors(v).to_vec(),
            probs: base.probabilities(v).to_vec(),
            alias: None,
        })
    }
}

/// A mutable uncertain graph: an immutable [`UncertainGraph`] base plus
/// sorted per-vertex patched rows, compacted back into a fresh base when the
/// churn crosses the [`CompactionPolicy`] threshold.
///
/// See the [module documentation](self) for the design.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: UncertainGraph,
    forward: DirOverlay,
    reverse: DirOverlay,
    live_arcs: usize,
    ops_since_compaction: usize,
    version: u64,
    policy: CompactionPolicy,
}

impl DeltaOverlay {
    /// Wraps an existing graph with an empty overlay and the default
    /// [`CompactionPolicy`].
    pub fn new(base: UncertainGraph) -> Self {
        Self::with_policy(base, CompactionPolicy::default())
    }

    /// Wraps an existing graph with an explicit compaction policy.
    pub fn with_policy(base: UncertainGraph, policy: CompactionPolicy) -> Self {
        let live_arcs = base.num_arcs();
        DeltaOverlay {
            base,
            forward: DirOverlay::default(),
            reverse: DirOverlay::default(),
            live_arcs,
            ops_since_compaction: 0,
            version: 0,
            policy,
        }
    }

    /// Number of vertices `|V|` (fixed for the lifetime of the overlay).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of *live* arcs: the base arcs plus inserts minus deletes.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.live_arcs
    }

    /// The immutable base graph.  After updates and before the next
    /// compaction this does **not** include the pending deltas; read through
    /// [`DeltaOverlay::forward`] / [`DeltaOverlay::reverse`] (or
    /// [`DeltaOverlay::to_graph`]) for the live graph.
    #[inline]
    pub fn base(&self) -> &UncertainGraph {
        &self.base
    }

    /// Monotone version counter: bumped by every successful
    /// [`DeltaOverlay::apply_all`].
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Update operations recorded since the last compaction.
    #[inline]
    pub fn ops_since_compaction(&self) -> usize {
        self.ops_since_compaction
    }

    /// Number of distinct vertices with a patched row in either direction.
    pub fn patched_vertices(&self) -> usize {
        let mut vertices: Vec<VertexId> = self
            .forward
            .rows
            .keys()
            .chain(self.reverse.rows.keys())
            .copied()
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        vertices.len()
    }

    /// The compaction policy in use.
    #[inline]
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Replaces the compaction policy (takes effect on the next apply).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// The live forward view: `neighbors(v)` are the out-neighbors of `v`
    /// with all pending deltas folded in.
    #[inline]
    pub fn forward(&self) -> OverlayView<'_> {
        OverlayView {
            base: self.base.forward(),
            rows: &self.forward.rows,
        }
    }

    /// The live reverse (transpose) view, patched in lockstep with the
    /// forward view.
    #[inline]
    pub fn reverse(&self) -> OverlayView<'_> {
        OverlayView {
            base: self.base.reverse(),
            rows: &self.reverse.rows,
        }
    }

    /// Whether the live graph contains the arc `(u, v)`.
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.forward().has_arc(u, v)
    }

    /// Existence probability of the live arc `(u, v)`, or `None` when
    /// absent.
    pub fn arc_probability(&self, u: VertexId, v: VertexId) -> Option<Probability> {
        self.forward().arc_probability(u, v)
    }

    /// Validates a batch against the state each update would observe when
    /// the batch is applied in order (so `insert (u,v); set (u,v)` is legal
    /// in one batch), without mutating anything.
    fn validate(&self, updates: &[GraphUpdate]) -> Result<(), UpdateError> {
        let n = self.num_vertices();
        // Existence decisions made by earlier updates of this same batch.
        let mut overrides: HashMap<(VertexId, VertexId), bool> = HashMap::new();
        for update in updates {
            let (source, target) = update.endpoints();
            for vertex in [source, target] {
                if (vertex as usize) >= n {
                    return Err(UpdateError::VertexOutOfRange {
                        vertex,
                        num_vertices: n,
                    });
                }
            }
            if let GraphUpdate::InsertArc { probability, .. }
            | GraphUpdate::SetProbability { probability, .. } = *update
            {
                if !crate::is_valid_probability(probability) {
                    return Err(UpdateError::InvalidProbability {
                        source,
                        target,
                        probability,
                    });
                }
            }
            let exists = overrides
                .get(&(source, target))
                .copied()
                .unwrap_or_else(|| self.has_arc(source, target));
            match update {
                GraphUpdate::InsertArc { .. } => {
                    if exists {
                        return Err(UpdateError::ArcAlreadyExists { source, target });
                    }
                    overrides.insert((source, target), true);
                }
                GraphUpdate::DeleteArc { .. } => {
                    if !exists {
                        return Err(UpdateError::ArcNotFound { source, target });
                    }
                    overrides.insert((source, target), false);
                }
                GraphUpdate::SetProbability { .. } => {
                    if !exists {
                        return Err(UpdateError::ArcNotFound { source, target });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a batch of updates atomically: the batch is validated first
    /// and an error leaves the overlay untouched.  On success the version is
    /// bumped and, when the recorded churn crosses the policy threshold, the
    /// overlay is compacted into a fresh CSR base.
    pub fn apply_all(&mut self, updates: &[GraphUpdate]) -> Result<UpdateSummary, UpdateError> {
        self.validate(updates)?;
        let mut summary = UpdateSummary::default();
        for update in updates {
            match *update {
                GraphUpdate::InsertArc {
                    source,
                    target,
                    probability,
                } => {
                    self.forward
                        .row_mut(self.base.forward(), source)
                        .insert(target, probability);
                    self.reverse
                        .row_mut(self.base.reverse(), target)
                        .insert(source, probability);
                    self.live_arcs += 1;
                    summary.inserted += 1;
                }
                GraphUpdate::DeleteArc { source, target } => {
                    self.forward
                        .row_mut(self.base.forward(), source)
                        .remove(target);
                    self.reverse
                        .row_mut(self.base.reverse(), target)
                        .remove(source);
                    self.live_arcs -= 1;
                    summary.deleted += 1;
                }
                GraphUpdate::SetProbability {
                    source,
                    target,
                    probability,
                } => {
                    self.forward
                        .row_mut(self.base.forward(), source)
                        .set(target, probability);
                    self.reverse
                        .row_mut(self.base.reverse(), target)
                        .set(source, probability);
                    summary.reweighted += 1;
                }
            }
        }
        // Partial alias rebuild: only the vertices this batch actually
        // touched (sources in the forward direction, targets in the
        // reverse) pay the O(d²) row rebuild; every other row keeps its
        // table bit-for-bit.
        if self.base.has_alias_tables() {
            let mut sources: Vec<VertexId> = updates.iter().map(|u| u.endpoints().0).collect();
            let mut targets: Vec<VertexId> = updates.iter().map(|u| u.endpoints().1).collect();
            for (dirty, overlay) in [
                (&mut sources, &mut self.forward),
                (&mut targets, &mut self.reverse),
            ] {
                dirty.sort_unstable();
                dirty.dedup();
                for &v in dirty.iter() {
                    let row = overlay
                        .rows
                        .get_mut(&v)
                        .expect("every update endpoint has a patched row");
                    row.alias = Some(build_alias_row(&row.targets, &row.probs));
                }
            }
        }
        self.ops_since_compaction += updates.len();
        self.version += 1;
        summary.compacted = self.maybe_compact();
        summary.num_arcs = self.live_arcs;
        Ok(summary)
    }

    /// Compacts when the recorded churn has crossed the policy threshold;
    /// returns whether a compaction happened.
    pub fn maybe_compact(&mut self) -> bool {
        if self.ops_since_compaction >= self.policy.threshold(self.base.num_arcs()) {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Folds every patched row back into a fresh contiguous base graph and
    /// clears the overlay.  Reads through the views before and after
    /// compaction observe the identical adjacency.
    pub fn compact(&mut self) {
        let n = self.num_vertices();
        let mut base = self.to_graph();
        // Alias tables ride along: unpatched vertices keep their base slots
        // bit-for-bit, patched vertices contribute the row rebuilt at apply
        // time — no vertex is rebuilt twice, none is rebuilt needlessly.
        if let Some((fwd, rev)) = self.base.alias_tables() {
            base.set_alias_tables(
                merge_alias_direction(n, self.live_arcs, fwd, &self.forward.rows),
                merge_alias_direction(n, self.live_arcs, rev, &self.reverse.rows),
            );
        }
        self.base = base;
        self.forward.rows.clear();
        self.reverse.rows.clear();
        self.ops_since_compaction = 0;
    }

    /// Whether the base (and therefore the live views) carry alias tables.
    #[inline]
    pub fn has_alias_tables(&self) -> bool {
        self.base.has_alias_tables()
    }

    /// Builds alias tables for the base and a rebuilt alias row for every
    /// already-patched vertex, so the live alias views become available
    /// mid-flight; a no-op when tables are already maintained.
    pub fn build_alias_tables(&mut self) {
        if !self.base.has_alias_tables() {
            self.base.build_alias_tables();
        }
        for overlay in [&mut self.forward, &mut self.reverse] {
            for row in overlay.rows.values_mut() {
                if row.alias.is_none() {
                    row.alias = Some(build_alias_row(&row.targets, &row.probs));
                }
            }
        }
    }

    /// The live forward alias view, when the base carries tables.
    #[inline]
    pub fn forward_alias(&self) -> Option<OverlayAliasView<'_>> {
        self.base.forward_alias().map(|base| OverlayAliasView {
            base,
            rows: &self.forward.rows,
        })
    }

    /// The live reverse alias view, when the base carries tables.
    #[inline]
    pub fn reverse_alias(&self) -> Option<OverlayAliasView<'_>> {
        self.base.reverse_alias().map(|base| OverlayAliasView {
            base,
            rows: &self.reverse.rows,
        })
    }

    /// The live graph as a fresh [`UncertainGraph`] (for persisting a
    /// mutated graph or cross-checking against a from-scratch rebuild):
    /// both directions' live rows concatenated, as compaction does, without
    /// alias tables.
    pub fn to_graph(&self) -> UncertainGraph {
        let n = self.num_vertices();
        UncertainGraph::from_raw_directions(
            n,
            merge_direction(n, self.live_arcs, self.base.forward(), &self.forward.rows),
            merge_direction(n, self.live_arcs, self.base.reverse(), &self.reverse.rows),
        )
    }
}

/// Concatenates one direction's live rows (patched where available, base
/// slices otherwise) into fresh flat CSR arrays.
fn merge_direction(
    num_vertices: usize,
    num_arcs: usize,
    base: CsrView<'_>,
    rows: &HashMap<VertexId, Row>,
) -> RawDirection {
    let mut offsets = Vec::with_capacity(num_vertices + 1);
    let mut targets = Vec::with_capacity(num_arcs);
    let mut probs = Vec::with_capacity(num_arcs);
    offsets.push(0);
    for v in 0..num_vertices as VertexId {
        match rows.get(&v) {
            Some(row) => {
                targets.extend_from_slice(&row.targets);
                probs.extend_from_slice(&row.probs);
            }
            None => {
                targets.extend_from_slice(base.neighbors(v));
                probs.extend_from_slice(base.probabilities(v));
            }
        }
        offsets.push(targets.len());
    }
    (offsets, targets, probs)
}

/// Concatenates one direction's live alias rows (the row rebuilt at apply
/// time where the vertex is patched, the base table's slots otherwise) into
/// a fresh contiguous [`AliasTable`].
fn merge_alias_direction(
    num_vertices: usize,
    num_arcs: usize,
    base: &AliasTable,
    rows: &HashMap<VertexId, Row>,
) -> AliasTable {
    let mut offsets = Vec::with_capacity(num_vertices + 1);
    let mut slots = Vec::with_capacity(num_arcs + num_vertices);
    offsets.push(0);
    for v in 0..num_vertices as VertexId {
        match rows.get(&v) {
            Some(row) => slots.extend_from_slice(
                row.alias
                    .as_deref()
                    .expect("patched rows carry alias rows while the base has tables"),
            ),
            None => slots.extend_from_slice(base.slots_of(v)),
        }
        offsets.push(slots.len());
    }
    AliasTable::from_raw(offsets, slots)
}

/// A borrowed, direction-fixed view of a [`DeltaOverlay`]: the base
/// [`CsrView`] plus the patched rows of that direction.
///
/// `Copy` like [`CsrView`], so samplers and workers take it by value.  For
/// a vertex without a patched row the returned slices are the base slices
/// themselves, which is what keeps walk RNG draw order over untouched
/// vertices identical to the static graph.
#[derive(Debug, Clone, Copy)]
pub struct OverlayView<'a> {
    base: CsrView<'a>,
    rows: &'a HashMap<VertexId, Row>,
}

impl<'a> OverlayView<'a> {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Whether `v` has a patched row in this direction.
    #[inline]
    pub fn is_patched(&self, v: VertexId) -> bool {
        self.rows.contains_key(&v)
    }

    /// Live neighbors of `v` in this direction, sorted by vertex id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        match self.rows.get(&v) {
            Some(row) => &row.targets,
            None => self.base.neighbors(v),
        }
    }

    /// Live probabilities of `v`'s arcs, aligned with
    /// [`OverlayView::neighbors`].
    #[inline]
    pub fn probabilities(&self, v: VertexId) -> &'a [Probability] {
        match self.rows.get(&v) {
            Some(row) => &row.probs,
            None => self.base.probabilities(v),
        }
    }

    /// Live degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the live arc `(u, v)` exists in this direction (binary
    /// search over `u`'s sorted live neighbors).
    #[inline]
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Live existence probability of the arc `(u, v)` in this direction, or
    /// `None` when absent.
    pub fn arc_probability(&self, u: VertexId, v: VertexId) -> Option<Probability> {
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.probabilities(u)[idx])
    }
}

/// A borrowed, direction-fixed alias view of a [`DeltaOverlay`]: the base
/// [`CsrAliasView`] plus the patched rows of that direction.  Serves the
/// rebuilt alias row for a patched vertex and the base table's slots —
/// pointer-identical — otherwise, mirroring [`OverlayView`]'s contract for
/// adjacency slices.
#[derive(Debug, Clone, Copy)]
pub struct OverlayAliasView<'a> {
    base: CsrAliasView<'a>,
    rows: &'a HashMap<VertexId, Row>,
}

impl AliasView for OverlayAliasView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn slots(&self, v: VertexId) -> &[AliasSlot] {
        match self.rows.get(&v) {
            Some(row) => row
                .alias
                .as_deref()
                .expect("patched rows carry alias rows while the base has tables"),
            None => self.base.slots_of(v),
        }
    }
}

impl GraphView for OverlayView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        OverlayView::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        OverlayView::neighbors(self, v)
    }

    #[inline]
    fn probabilities(&self, v: VertexId) -> &[Probability] {
        OverlayView::probabilities(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        OverlayView::degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_graph() -> UncertainGraph {
        UncertainGraph::from_arcs(
            5,
            [
                (0, 2, 0.8),
                (0, 3, 0.5),
                (1, 0, 0.8),
                (1, 2, 0.9),
                (2, 0, 0.7),
                (2, 3, 0.6),
                (3, 4, 0.6),
                (3, 1, 0.8),
            ],
        )
        .unwrap()
    }

    fn assert_views_match(overlay: &DeltaOverlay, expected: &UncertainGraph) {
        assert_eq!(overlay.num_arcs(), expected.num_arcs());
        for v in 0..expected.num_vertices() as VertexId {
            assert_eq!(
                overlay.forward().neighbors(v),
                expected.forward().neighbors(v),
                "forward neighbors of {v}"
            );
            assert_eq!(
                overlay.forward().probabilities(v),
                expected.forward().probabilities(v),
                "forward probabilities of {v}"
            );
            assert_eq!(
                overlay.reverse().neighbors(v),
                expected.reverse().neighbors(v),
                "reverse neighbors of {v}"
            );
            assert_eq!(
                overlay.reverse().probabilities(v),
                expected.reverse().probabilities(v),
                "reverse probabilities of {v}"
            );
        }
    }

    #[test]
    fn untouched_overlay_serves_the_base_slices() {
        let g = fig1_graph();
        let overlay = DeltaOverlay::new(g.clone());
        assert_views_match(&overlay, &g);
        assert_eq!(overlay.version(), 0);
        assert_eq!(overlay.patched_vertices(), 0);
        // Untouched vertices return the *identical* base slice.
        let base = overlay.base().forward();
        assert!(std::ptr::eq(
            overlay.forward().neighbors(0).as_ptr(),
            base.neighbors(0).as_ptr()
        ));
    }

    #[test]
    fn inserts_deletes_and_reweights_patch_both_directions() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::with_policy(g.clone(), CompactionPolicy::never());
        let summary = overlay
            .apply_all(&[
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 0,
                    probability: 0.3,
                },
                GraphUpdate::DeleteArc {
                    source: 0,
                    target: 3,
                },
                GraphUpdate::SetProbability {
                    source: 2,
                    target: 0,
                    probability: 0.95,
                },
            ])
            .unwrap();
        assert_eq!(summary.inserted, 1);
        assert_eq!(summary.deleted, 1);
        assert_eq!(summary.reweighted, 1);
        assert!(!summary.compacted);
        assert_eq!(summary.num_arcs, 8);
        let expected = UncertainGraph::from_arcs(
            5,
            [
                (0, 2, 0.8),
                (1, 0, 0.8),
                (1, 2, 0.9),
                (2, 0, 0.95),
                (2, 3, 0.6),
                (3, 4, 0.6),
                (3, 1, 0.8),
                (4, 0, 0.3),
            ],
        )
        .unwrap();
        assert_views_match(&overlay, &expected);
        assert_eq!(overlay.to_graph(), expected);
        assert_eq!(overlay.version(), 1);
        assert!(overlay.patched_vertices() > 0);
        // Untouched vertex 1's forward row still is the base slice.
        assert!(!overlay.forward().is_patched(1));
    }

    #[test]
    fn compaction_folds_the_rows_into_a_fresh_csr() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::with_policy(g.clone(), CompactionPolicy::never());
        overlay
            .apply_all(&[
                GraphUpdate::DeleteArc {
                    source: 3,
                    target: 4,
                },
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 2,
                    probability: 0.2,
                },
            ])
            .unwrap();
        // The live arcs, with the reverse direction rebuilt by sorting.
        let live = overlay.to_graph();
        let arcs = live.arcs().map(|a| (a.source, a.target, a.probability));
        let expected = UncertainGraph::from_arcs(5, arcs).unwrap();
        assert!(overlay.ops_since_compaction() > 0);
        overlay.compact();
        assert_eq!(overlay.ops_since_compaction(), 0);
        assert_eq!(overlay.patched_vertices(), 0);
        assert_eq!(overlay.base(), &expected);
        assert_views_match(&overlay, &expected);
    }

    #[test]
    fn eager_policy_compacts_after_every_batch() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::with_policy(g.clone(), CompactionPolicy::eager());
        let summary = overlay
            .apply_all(&[GraphUpdate::DeleteArc {
                source: 0,
                target: 2,
            }])
            .unwrap();
        assert!(summary.compacted);
        assert_eq!(overlay.patched_vertices(), 0);
        assert_eq!(overlay.base().num_arcs(), 7);
    }

    #[test]
    fn rejected_batches_leave_the_overlay_untouched() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::new(g.clone());
        let bad_batches: Vec<(Vec<GraphUpdate>, UpdateError)> = vec![
            (
                vec![GraphUpdate::InsertArc {
                    source: 0,
                    target: 2,
                    probability: 0.5,
                }],
                UpdateError::ArcAlreadyExists {
                    source: 0,
                    target: 2,
                },
            ),
            (
                vec![GraphUpdate::DeleteArc {
                    source: 0,
                    target: 4,
                }],
                UpdateError::ArcNotFound {
                    source: 0,
                    target: 4,
                },
            ),
            (
                vec![GraphUpdate::SetProbability {
                    source: 4,
                    target: 0,
                    probability: 0.5,
                }],
                UpdateError::ArcNotFound {
                    source: 4,
                    target: 0,
                },
            ),
            (
                vec![GraphUpdate::InsertArc {
                    source: 0,
                    target: 9,
                    probability: 0.5,
                }],
                UpdateError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 5,
                },
            ),
            (
                vec![GraphUpdate::InsertArc {
                    source: 4,
                    target: 0,
                    probability: 1.5,
                }],
                UpdateError::InvalidProbability {
                    source: 4,
                    target: 0,
                    probability: 1.5,
                },
            ),
            (
                // First update is fine, second is invalid: atomicity means
                // the first must not stick either.
                vec![
                    GraphUpdate::InsertArc {
                        source: 4,
                        target: 0,
                        probability: 0.5,
                    },
                    GraphUpdate::DeleteArc {
                        source: 4,
                        target: 3,
                    },
                ],
                UpdateError::ArcNotFound {
                    source: 4,
                    target: 3,
                },
            ),
        ];
        for (batch, expected) in bad_batches {
            let err = overlay.apply_all(&batch).unwrap_err();
            assert_eq!(err, expected);
            assert_views_match(&overlay, &g);
            assert_eq!(overlay.version(), 0);
        }
    }

    #[test]
    fn batch_internal_dependencies_validate_in_order() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::new(g.clone());
        // Insert then re-weight then delete the same arc in one batch.
        overlay
            .apply_all(&[
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 1,
                    probability: 0.2,
                },
                GraphUpdate::SetProbability {
                    source: 4,
                    target: 1,
                    probability: 0.9,
                },
                GraphUpdate::DeleteArc {
                    source: 4,
                    target: 1,
                },
            ])
            .unwrap();
        assert_views_match(&overlay, &g);
        // Delete then re-insert an existing arc in one batch.
        overlay
            .apply_all(&[
                GraphUpdate::DeleteArc {
                    source: 0,
                    target: 2,
                },
                GraphUpdate::InsertArc {
                    source: 0,
                    target: 2,
                    probability: 0.1,
                },
            ])
            .unwrap();
        assert_eq!(overlay.arc_probability(0, 2), Some(0.1));
    }

    #[test]
    fn threshold_combines_min_ops_and_fraction() {
        let policy = CompactionPolicy {
            min_ops: 10,
            ops_fraction: 0.5,
        };
        assert_eq!(policy.threshold(4), 10);
        assert_eq!(policy.threshold(100), 50);
        assert_eq!(CompactionPolicy::eager().threshold(1_000_000), 1);
        assert_eq!(CompactionPolicy::never().threshold(8), usize::MAX);
        assert_eq!(CompactionPolicy::default().threshold(0), 4096);
    }

    /// Every vertex's live alias slots must equal a from-scratch table
    /// build over the live adjacency — the invariant the partial rebuild
    /// maintains.
    fn assert_alias_matches_fresh_build(overlay: &DeltaOverlay) {
        let mut fresh = overlay.to_graph();
        fresh.build_alias_tables();
        let pairs = [
            (
                overlay.forward_alias().unwrap(),
                fresh.forward_alias().unwrap(),
            ),
            (
                overlay.reverse_alias().unwrap(),
                fresh.reverse_alias().unwrap(),
            ),
        ];
        for (live, expected) in pairs {
            for v in 0..overlay.num_vertices() as VertexId {
                assert_eq!(live.slots(v), expected.slots_of(v), "alias row of {v}");
            }
        }
    }

    #[test]
    fn updates_rebuild_alias_rows_only_for_touched_vertices() {
        let mut base = fig1_graph();
        base.build_alias_tables();
        let mut overlay = DeltaOverlay::with_policy(base, CompactionPolicy::never());
        overlay
            .apply_all(&[
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 0,
                    probability: 0.3,
                },
                GraphUpdate::SetProbability {
                    source: 2,
                    target: 0,
                    probability: 0.95,
                },
            ])
            .unwrap();
        assert_alias_matches_fresh_build(&overlay);
        // An untouched vertex serves the base table's slots pointer-
        // identically — the "only patched vertices rebuilt" contract.
        let live = overlay.forward_alias().unwrap();
        let base_table = overlay.base().forward_alias().unwrap();
        assert!(std::ptr::eq(
            live.slots(1).as_ptr(),
            base_table.slots_of(1).as_ptr()
        ));
        // Touched vertices serve rebuilt rows, not the stale base slots.
        assert_ne!(live.slots(2), base_table.slots_of(2));
    }

    #[test]
    fn compaction_carries_alias_tables_into_the_new_base() {
        let mut base = fig1_graph();
        base.build_alias_tables();
        let mut overlay = DeltaOverlay::with_policy(base, CompactionPolicy::never());
        overlay
            .apply_all(&[
                GraphUpdate::DeleteArc {
                    source: 3,
                    target: 4,
                },
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 2,
                    probability: 0.2,
                },
            ])
            .unwrap();
        overlay.compact();
        assert!(overlay.base().has_alias_tables());
        assert_eq!(overlay.patched_vertices(), 0);
        assert_alias_matches_fresh_build(&overlay);
        // The compacted tables are bit-identical to a from-scratch build of
        // the same graph (copy-vs-rebuild indistinguishability).
        let mut fresh = overlay.to_graph();
        fresh.build_alias_tables();
        let (fwd, rev) = overlay.base().alias_tables().unwrap();
        let (fresh_fwd, fresh_rev) = fresh.alias_tables().unwrap();
        assert_eq!(fwd, fresh_fwd);
        assert_eq!(rev, fresh_rev);
    }

    #[test]
    fn alias_tables_can_be_built_mid_flight_over_patched_rows() {
        let mut overlay = DeltaOverlay::with_policy(fig1_graph(), CompactionPolicy::never());
        assert!(overlay.forward_alias().is_none());
        overlay
            .apply_all(&[GraphUpdate::InsertArc {
                source: 4,
                target: 0,
                probability: 0.3,
            }])
            .unwrap();
        overlay.build_alias_tables();
        assert!(overlay.has_alias_tables());
        assert_alias_matches_fresh_build(&overlay);
    }

    #[test]
    fn overlay_without_tables_never_maintains_alias_rows() {
        let mut overlay = DeltaOverlay::new(fig1_graph());
        overlay
            .apply_all(&[GraphUpdate::DeleteArc {
                source: 0,
                target: 2,
            }])
            .unwrap();
        assert!(overlay.forward_alias().is_none());
        assert!(overlay.reverse_alias().is_none());
    }

    #[test]
    fn empty_batch_is_a_no_op_but_bumps_the_version() {
        let g = fig1_graph();
        let mut overlay = DeltaOverlay::new(g.clone());
        let summary = overlay.apply_all(&[]).unwrap();
        assert_eq!(
            summary,
            UpdateSummary {
                num_arcs: 8,
                ..UpdateSummary::default()
            }
        );
        assert_eq!(overlay.version(), 1);
        assert_views_match(&overlay, &g);
    }
}
