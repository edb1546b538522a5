//! Walker alias tables for O(1) per-step walk transitions.
//!
//! The legacy sampler instantiates every possible out-arc of a vertex on
//! first visit (one RNG draw per arc) and then picks uniformly among the
//! survivors — `O(d)` RNG draws and `O(d)` memory traffic per fresh step.
//! The alias backend precomputes, per vertex and per CSR direction, a Walker
//! alias table over the vertex's *expected one-step transition distribution*
//!
//! ```text
//! Pr(u →₁ v) = P(u, v) · E[ 1 / (1 + X₋ᵥ) ],
//! ```
//!
//! where `X₋ᵥ` is the Poisson-binomial count of the *other* arcs of `u`
//! present in a random possible world, plus one explicit **death** outcome
//! carrying the leftover mass `1 − Σᵥ Pr(u →₁ v)` (the probability that no
//! arc of `u` exists at all).  A step then costs **one** `f64` draw and one
//! 16-byte slot read, independent of degree.
//!
//! The two backends are *different estimators*, not bit-compatible ones: the
//! alias table draws every step independently from the exact first-visit
//! marginal, trading the within-walk possible-world correlation that the
//! lazy sampler memoises (the paper's `W(k) ≠ W(1)ᵏ` observation, material
//! from `k = 3` on) for raw speed.  On certain graphs (all probabilities 1)
//! the marginal is the uniform skeleton walk and the two backends agree in
//! distribution at every horizon.  Which backend produced an answer is part
//! of the engine configuration — see `SamplerKind` in `usim_core`.  A
//! result cache belongs to one engine and so to one backend, so answers of
//! the two never mix.
//!
//! # Table layout
//!
//! Vertex `v` with degree `d(v)` owns `d(v) + 1` slots — its neighbors plus
//! the death outcome, encoded as the [`DEAD`] sentinel.  Slots of all
//! vertices are concatenated in vertex order, so the slot offset of `v` in a
//! direction is `csr_offsets[v] + v` and a whole-direction table is exactly
//! `num_arcs + num_vertices` slots.

use crate::csr::CsrView;
use crate::{Probability, VertexId};

/// The walk-terminated sentinel: the alias outcome meaning "no arc of this
/// vertex exists in the sampled world".  Equal to `rwalk::arena::DEAD`.
pub const DEAD: VertexId = VertexId::MAX;

/// One packed alias slot: a biased coin between two outcomes.
///
/// Drawing from the table picks a slot uniformly, then returns
/// [`AliasSlot::first`] with probability [`AliasSlot::prob`] and
/// [`AliasSlot::second`] otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliasSlot {
    /// Probability of returning [`AliasSlot::first`], in `[0, 1]`.
    pub prob: f64,
    /// The outcome kept by this slot ([`DEAD`] for the death outcome).
    pub first: VertexId,
    /// The overflow (alias) outcome donated by Vose construction.
    pub second: VertexId,
}

/// Per-vertex alias tables for one CSR direction: the slots of all vertices
/// concatenated in vertex order, `d(v) + 1` slots per vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// `num_vertices + 1` entries; slot range of `v` is
    /// `offsets[v]..offsets[v + 1]`.
    offsets: Vec<usize>,
    /// `num_arcs + num_vertices` packed slots.
    slots: Vec<AliasSlot>,
}

impl AliasTable {
    /// Builds the table for every vertex of one CSR direction.
    pub fn from_view(view: CsrView<'_>) -> Self {
        let n = view.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut slots = Vec::with_capacity(view.num_arcs() + n);
        offsets.push(0);
        let mut scratch = RowScratch::default();
        for v in 0..n as VertexId {
            build_alias_row_into(view.neighbors(v), view.probabilities(v), &mut scratch);
            slots.extend_from_slice(&scratch.slots);
            offsets.push(slots.len());
        }
        AliasTable { offsets, slots }
    }

    /// Reassembles a table from its parts (the snapshot reader, which has
    /// already validated the offsets against the CSR arrays).
    pub(crate) fn from_raw(offsets: Vec<usize>, slots: Vec<AliasSlot>) -> Self {
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(slots.len()));
        AliasTable { offsets, slots }
    }

    /// Number of vertices the table covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of slots (`num_arcs + num_vertices`).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slots of vertex `v` (`degree(v) + 1` of them).
    #[inline]
    pub fn slots_of(&self, v: VertexId) -> &[AliasSlot] {
        let v = v as usize;
        &self.slots[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The entire flat slot array (all vertices concatenated).
    #[inline]
    pub fn slots_flat(&self) -> &[AliasSlot] {
        &self.slots
    }

    /// A borrowed, `Copy` view of the whole table.
    #[inline]
    pub fn view(&self) -> CsrAliasView<'_> {
        CsrAliasView {
            offsets: &self.offsets,
            slots: &self.slots,
        }
    }
}

/// Read-only access to per-vertex alias slots in one direction — the
/// interface the table-driven walk sampler needs.  Implemented by
/// [`CsrAliasView`] (static tables) and by `OverlayAliasView` (a base table
/// patched by a [`crate::DeltaOverlay`]).
pub trait AliasView {
    /// Number of vertices `|V|`.
    fn num_vertices(&self) -> usize;

    /// The alias slots of `v` (`degree(v) + 1` of them, never empty).
    fn slots(&self, v: VertexId) -> &[AliasSlot];
}

/// A borrowed, direction-fixed view of an [`AliasTable`].  `Copy`, like
/// [`CsrView`] — hand it to workers freely.
#[derive(Debug, Clone, Copy)]
pub struct CsrAliasView<'a> {
    pub(crate) offsets: &'a [usize],
    pub(crate) slots: &'a [AliasSlot],
}

impl<'a> CsrAliasView<'a> {
    /// The slots of vertex `v`.
    #[inline]
    pub fn slots_of(&self, v: VertexId) -> &'a [AliasSlot] {
        let v = v as usize;
        &self.slots[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl AliasView for CsrAliasView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn slots(&self, v: VertexId) -> &[AliasSlot] {
        self.slots_of(v)
    }
}

/// Draws one outcome from a vertex's alias slots using a single uniform
/// `f64` draw: the integer part picks the slot, the fractional part flips
/// the slot's biased coin.
///
/// Returns [`DEAD`] when the death outcome is drawn.
#[inline]
pub fn alias_draw(slots: &[AliasSlot], unit: f64) -> VertexId {
    debug_assert!(!slots.is_empty(), "every vertex owns at least one slot");
    let scaled = unit * slots.len() as f64;
    // `unit` < 1, but `scaled` can round up to exactly `len` for unit values
    // just below 1; clamp instead of risking an out-of-bounds read.
    let index = (scaled as usize).min(slots.len() - 1);
    let slot = &slots[index];
    if scaled - (index as f64) < slot.prob {
        slot.first
    } else {
        slot.second
    }
}

/// Scratch buffers reused across per-vertex row builds.
#[derive(Default)]
struct RowScratch {
    /// Presence-count distribution of all arcs of the vertex.
    full: Vec<f64>,
    /// Deconvolved distribution with one arc removed.
    others: Vec<f64>,
    /// Outcome weights: one per neighbor plus the death mass.
    weights: Vec<f64>,
    /// Vose worklists of slot indices.
    small: Vec<usize>,
    large: Vec<usize>,
    /// The finished row.
    slots: Vec<AliasSlot>,
}

/// Builds the alias row of a single vertex from its sorted adjacency.
///
/// Public (crate-wide) entry point shared by the whole-graph build and the
/// overlay's per-vertex patch path, so both produce bit-identical rows for
/// identical adjacency — the property that lets compaction copy unpatched
/// rows instead of rebuilding them.
pub(crate) fn build_alias_row(neighbors: &[VertexId], probs: &[Probability]) -> Vec<AliasSlot> {
    let mut scratch = RowScratch::default();
    build_alias_row_into(neighbors, probs, &mut scratch);
    scratch.slots
}

fn build_alias_row_into(neighbors: &[VertexId], probs: &[Probability], s: &mut RowScratch) {
    let d = neighbors.len();
    debug_assert_eq!(d, probs.len());
    s.slots.clear();
    if d == 0 {
        // No possible arcs: the walk always dies here.
        s.slots.push(AliasSlot {
            prob: 1.0,
            first: DEAD,
            second: DEAD,
        });
        return;
    }

    // Expected one-step marginals: weight_j = P(u, v_j) · E[1/(1 + X₋ⱼ)],
    // computed for all j in O(d²) via one presence-count DP plus one
    // deconvolution per arc (the same recurrences as rwalk::expected, kept
    // self-contained here because rwalk depends on this crate).
    presence_count_distribution_into(probs, &mut s.full);
    s.weights.clear();
    let mut survival = 0.0; // Σⱼ weight_j = Pr(at least one arc exists)
    for &p in probs {
        remove_bernoulli_into(&s.full, p, &mut s.others);
        let expectation: f64 = s
            .others
            .iter()
            .enumerate()
            .map(|(x, &rx)| rx / (x + 1) as f64)
            .sum();
        let w = (p * expectation).max(0.0);
        survival += w;
        s.weights.push(w);
    }
    // Death carries the leftover mass; clamp the f64 cancellation noise.
    s.weights.push((1.0 - survival).max(0.0));

    // Vose construction over the d + 1 outcomes.  Outcome j < d is neighbor
    // j; outcome d is DEAD.  Deterministic: worklists are filled in index
    // order and popped LIFO, so identical inputs yield identical tables.
    let count = d + 1;
    let total: f64 = s.weights.iter().sum();
    debug_assert!(total > 0.0);
    let scale = count as f64 / total;
    for w in &mut s.weights {
        *w *= scale;
    }
    let outcome = |j: usize| if j < d { neighbors[j] } else { DEAD };
    s.slots.resize(
        count,
        AliasSlot {
            prob: 1.0,
            first: DEAD,
            second: DEAD,
        },
    );
    s.small.clear();
    s.large.clear();
    for (j, &w) in s.weights.iter().enumerate() {
        if w < 1.0 {
            s.small.push(j);
        } else {
            s.large.push(j);
        }
    }
    while let (Some(&j), Some(&k)) = (s.small.last(), s.large.last()) {
        s.small.pop();
        s.slots[j] = AliasSlot {
            prob: s.weights[j],
            first: outcome(j),
            second: outcome(k),
        };
        s.weights[k] = (s.weights[k] + s.weights[j]) - 1.0;
        if s.weights[k] < 1.0 {
            s.large.pop();
            s.small.push(k);
        }
    }
    // Leftovers (all ≈ 1 up to rounding) keep their own outcome entirely.
    for &j in s.large.iter().chain(s.small.iter()) {
        s.slots[j] = AliasSlot {
            prob: 1.0,
            first: outcome(j),
            second: outcome(j),
        };
    }
}

/// `out[x] = Pr(exactly x of the arcs exist)`, `out.len() == probs.len() + 1`.
fn presence_count_distribution_into(probs: &[Probability], out: &mut Vec<f64>) {
    out.clear();
    out.resize(probs.len() + 1, 0.0);
    out[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        let upper = i + 1;
        out[upper] = out[upper - 1] * p;
        for j in (1..upper).rev() {
            out[j] = out[j - 1] * p + out[j] * (1.0 - p);
        }
        out[0] *= 1.0 - p;
    }
}

/// Deconvolves one Bernoulli(`p`) variable out of the presence-count
/// distribution `r`, running the recurrence from whichever end is
/// numerically stable (bottom for `p ≤ 0.5`, top for `p > 0.5`).
fn remove_bernoulli_into(r: &[f64], p: Probability, out: &mut Vec<f64>) {
    let n = r.len() - 1;
    debug_assert!(n >= 1);
    out.clear();
    out.resize(n, 0.0);
    if p <= 0.5 {
        out[0] = r[0] / (1.0 - p);
        for x in 1..n {
            out[x] = (r[x] - p * out[x - 1]) / (1.0 - p);
        }
    } else {
        out[n - 1] = r[n] / p;
        for x in (1..n).rev() {
            out[x - 1] = (r[x] - (1.0 - p) * out[x]) / p;
        }
    }
    for v in out.iter_mut() {
        if *v < 0.0 && *v > -1e-12 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UncertainGraph;

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

    /// Recovers the outcome distribution a table encodes by integrating the
    /// slot geometry (each slot covers `1/len` of the unit interval, split
    /// at `prob`).
    fn table_distribution(slots: &[AliasSlot]) -> std::collections::HashMap<VertexId, f64> {
        let mut dist = std::collections::HashMap::new();
        let weight = 1.0 / slots.len() as f64;
        for slot in slots {
            *dist.entry(slot.first).or_insert(0.0) += weight * slot.prob;
            *dist.entry(slot.second).or_insert(0.0) += weight * (1.0 - slot.prob);
        }
        dist.retain(|_, w| *w > 1e-15);
        dist
    }

    #[test]
    fn row_encodes_exact_one_step_marginals() {
        let g = fig1_graph();
        let view = g.forward();
        // Vertex 0: arcs to 2 (0.8) and 3 (0.5).
        // Pr(0→2) = 0.8·(E[1/(1+X)]) with X ~ Bernoulli(0.5): 0.8·(0.5·1 + 0.5·½) = 0.6
        // Pr(0→3) = 0.5·(0.2·1 + 0.8·½) = 0.3; death = 0.2·0.5 = 0.1.
        let row = build_alias_row(view.neighbors(0), view.probabilities(0));
        assert_eq!(row.len(), 3);
        let dist = table_distribution(&row);
        assert!((dist[&2] - 0.6).abs() < 1e-12, "{dist:?}");
        assert!((dist[&3] - 0.3).abs() < 1e-12, "{dist:?}");
        assert!((dist[&DEAD] - 0.1).abs() < 1e-12, "{dist:?}");
    }

    #[test]
    fn certain_graph_rows_are_uniform_with_no_death_mass() {
        let g = fig1_graph().certain();
        let view = g.forward();
        for v in 0..g.num_vertices() as VertexId {
            let nbrs = view.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let dist = table_distribution(&build_alias_row(nbrs, view.probabilities(v)));
            assert!(!dist.contains_key(&DEAD), "vertex {v}: {dist:?}");
            for &u in nbrs {
                assert!(
                    (dist[&u] - 1.0 / nbrs.len() as f64).abs() < 1e-12,
                    "vertex {v}: {dist:?}"
                );
            }
        }
    }

    #[test]
    fn degree_zero_vertex_always_dies() {
        let row = build_alias_row(&[], &[]);
        assert_eq!(row.len(), 1);
        for unit in [0.0, 0.25, 0.5, 0.999_999] {
            assert_eq!(alias_draw(&row, unit), DEAD);
        }
    }

    #[test]
    fn whole_table_layout_is_dense_and_aligned_with_csr() {
        let g = fig1_graph();
        for view in [g.forward(), g.reverse()] {
            let table = AliasTable::from_view(view);
            assert_eq!(table.num_vertices(), g.num_vertices());
            assert_eq!(table.num_slots(), g.num_arcs() + g.num_vertices());
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(table.slots_of(v).len(), view.degree(v) + 1);
                // The per-vertex build is the same function the table build
                // ran, so rows must be bit-identical.
                assert_eq!(
                    table.slots_of(v),
                    build_alias_row(view.neighbors(v), view.probabilities(v)).as_slice()
                );
            }
        }
    }

    #[test]
    fn draw_covers_every_outcome_and_respects_frequencies() {
        let g = fig1_graph();
        let row = build_alias_row(g.forward().neighbors(0), g.forward().probabilities(0));
        // Deterministic stratified sweep of the unit interval stands in for
        // an RNG: empirical frequencies must converge on the marginals.
        let trials = 1_000_000;
        let mut counts: std::collections::HashMap<VertexId, usize> = Default::default();
        for i in 0..trials {
            let unit = (i as f64 + 0.5) / trials as f64;
            *counts.entry(alias_draw(&row, unit)).or_insert(0) += 1;
        }
        let freq = |v: VertexId| counts.get(&v).copied().unwrap_or(0) as f64 / trials as f64;
        assert!((freq(2) - 0.6).abs() < 1e-3);
        assert!((freq(3) - 0.3).abs() < 1e-3);
        assert!((freq(DEAD) - 0.1).abs() < 1e-3);
    }

    #[test]
    fn draw_clamps_unit_values_at_the_top_edge() {
        let row = build_alias_row(&[7], &[1.0]);
        // f64 just below 1.0 scaled by len can round to len exactly.
        let top = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(alias_draw(&row, top), 7);
    }

    #[test]
    fn extreme_probabilities_stay_finite_and_normalised() {
        let g = UncertainGraph::from_arcs(
            5,
            [(0, 1, 1.0), (0, 2, 0.999_999), (0, 3, 1e-9), (0, 4, 0.5)],
        )
        .unwrap();
        let row = build_alias_row(g.forward().neighbors(0), g.forward().probabilities(0));
        let dist = table_distribution(&row);
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "{dist:?}");
        assert!(dist.values().all(|w| w.is_finite() && *w >= 0.0));
        // An arc with probability 1 and another near-certain arc: death mass
        // is (essentially) zero.
        assert!(dist.get(&DEAD).copied().unwrap_or(0.0) < 1e-6);
    }
}
