//! Walker alias rows for O(1) per-step walk transitions.
//!
//! The legacy sampler instantiates every possible out-arc of a vertex on
//! first visit (one RNG draw per arc) and then picks uniformly among the
//! survivors — `O(d)` RNG draws and `O(d)` memory traffic per fresh step.
//! The alias backend draws each step from a Walker alias row over the
//! vertex's *expected one-step transition distribution*
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
//! alias row draws every step independently from the exact first-visit
//! marginal, trading the within-walk possible-world correlation that the
//! lazy sampler memoises (the paper's `W(k) ≠ W(1)ᵏ` observation, material
//! from `k = 3` on) for raw speed.  On certain graphs (all probabilities 1)
//! the marginal is the uniform skeleton walk and the two backends agree in
//! distribution at every horizon.  Which backend produced an answer is part
//! of the engine configuration — see `SamplerKind` in `usim_core`.  A
//! result cache belongs to one engine and so to one backend, so answers of
//! the two never mix.
//!
//! # Row layout
//!
//! Vertex `v` with degree `d(v)` owns `d(v) + 1` slots — its neighbors plus
//! the death outcome, encoded as the [`DEAD`] sentinel.  A row is derived
//! data with the one-step marginals' lifecycle (see [`crate::csr`]): read
//! through [`crate::GraphView::alias_slots`], built on its first read from
//! the row's cached marginals by `build_alias_row`, and never stored in a
//! snapshot.
//!
//! # The marginals' window
//!
//! [`one_step_marginals`] computes a row's marginals from its presence-count
//! table `r(n, ·)` (the paper's Fig. 2), `O(d²)` per row.  On a hub row the
//! tails of `r` and of the deconvolved distributions fall below
//! `f64::MIN_POSITIVE`, and on x86 each operation on such a subnormal value
//! takes a microcode assist: about half of a hub row's time went there.  So
//! the kernel computes only the window of values at or above that bound and
//! reads the rest as `+0.0`.  What it drops is below `2.2e-308`, against
//! marginals of `~1e-4` and up, and a row that never underflows runs the
//! old operations, so the marginals keep their bits.

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

/// Arcs deconvolved in lockstep by [`one_step_marginals`].
const LANES: usize = 8;

/// The smallest normal `f64`.  [`one_step_marginals`] reads a presence-count
/// entry or a deconvolved value below it as `+0.0` and never computes there.
const FLOOR: f64 = f64::MIN_POSITIVE;

/// Reusable buffers of [`one_step_marginals`]: the presence-count
/// distribution of a row, its arcs grouped by recurrence direction, and the
/// deconvolved distributions of one top-down group.
#[derive(Debug, Default, Clone)]
pub struct MarginalScratch {
    /// Presence-count distribution of all arcs of the row over its window,
    /// and the DP's second buffer.
    full: Vec<f64>,
    spare: Vec<f64>,
    /// Arcs with `p ≤ 0.5`, deconvolved from the bottom of `full`.
    bottom_up: Vec<usize>,
    /// Arcs with `p > 0.5`, deconvolved from the top of `full`.
    top_down: Vec<usize>,
    /// One top-down group's deconvolved distributions, lane by lane.
    lanes: Vec<[f64; LANES]>,
    /// Presence-count entries the DP has trimmed from its rows' ends.
    #[cfg(test)]
    trimmed: usize,
}

/// Expected one-step marginals `Pr(u →₁ vⱼ) = P(u, vⱼ) · E[1/(1 + X₋ⱼ)]`
/// of every arc of one row with arc probabilities `probs`, in row order,
/// written to `out` (cleared first).
///
/// One presence-count DP over the row, then one leave-one-out
/// deconvolution per arc (`O(d)` each, `O(d²)` in all).  Each arc's
/// deconvolution is a serial chain of divisions, so the arcs run in groups
/// of eight in lockstep, each lane doing exactly the `f64` operations of the
/// one-arc recurrence in the same order: the marginals are the bits the
/// per-arc loop gives, computed about three times faster.  Every caller —
/// the graphs' and the overlay's cached rows (which the alias rows are
/// built from), `rwalk`'s `W(1)` — goes through this one function, so an
/// arc's marginal is the same bits whoever asks for it.
///
/// # The window
///
/// The DP rows and each lane's recurrence are computed only over the
/// window of indices whose values are `≥ f64::MIN_POSITIVE`; everything
/// outside it reads `+0.0`.  A DP row drops its leading and trailing
/// entries once they are below that bound (the exact zeros that certain
/// arcs leave at the bottom go the same way), a recurrence starts at the
/// window's edge and ends its tail once it is below the bound, and an
/// expectation that skipped a zero term starts from `+0.0` (the full
/// range's `-0.0 + 0.0`) rather than `sum_start()`'s `-0.0`.  Inside the
/// window the formulas and their order are unchanged.
///
/// Why the bits hold: a row whose `Π(1 − p)` and `Π p` stay normal never
/// trims, so every value it computes is the full-range one; on R-MAT 16
/// that is every row of degree below ~700.  A hub row drops values below `2.2e-308`.
/// Each recurrence runs from its stable end, where an error does not grow,
/// so the difference stays that small and is rounded away long before a
/// marginal of `~1e-4` can see it.  The bit tests against the full-range
/// kernel still pass with the bound raised to `1e-25` and fail at `1e-20`.
/// What the window saves: the row of the top hub of R-MAT 16 seed 1
/// (in-degree 2,192) took 18.5 ms and now takes 8.1 ms on one vCPU of an
/// Intel Xeon VM; rows of degree ~900 went from 2.2-2.7 to 1.4-1.6 ms.
pub fn one_step_marginals(
    probs: &[Probability],
    scratch: &mut MarginalScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    if probs.is_empty() {
        return;
    }
    out.resize(probs.len(), 0.0);
    let window = presence_count_window(probs, scratch);
    scratch.bottom_up.clear();
    scratch.top_down.clear();
    for (j, &p) in probs.iter().enumerate() {
        // The stable end of the recurrence: the bottom for p ≤ 0.5, the top
        // otherwise (NaN included, as `!(p <= 0.5)`).
        if p <= 0.5 {
            scratch.bottom_up.push(j);
        } else {
            scratch.top_down.push(j);
        }
    }
    for group in scratch.bottom_up.chunks(LANES) {
        let marginals = bottom_up_lanes(&scratch.full, window, lane_probs(probs, group));
        scatter(group, &marginals, out);
    }
    for group in scratch.top_down.chunks(LANES) {
        let marginals = top_down_lanes(
            &scratch.full,
            window,
            lane_probs(probs, group),
            &mut scratch.lanes,
        );
        scatter(group, &marginals, out);
    }
}

/// [`one_step_marginals`] of one row into a fresh boxed slice: the value a
/// graph's or a patched overlay row's marginal cell holds.
pub(crate) fn one_step_marginals_row(probs: &[Probability]) -> Box<[f64]> {
    let mut out = Vec::with_capacity(probs.len());
    one_step_marginals(probs, &mut MarginalScratch::default(), &mut out);
    out.into_boxed_slice()
}

/// The probabilities of a group's arcs, one per lane; a short group fills
/// its spare lanes with its last arc, whose results are dropped.
#[inline]
fn lane_probs(probs: &[Probability], group: &[usize]) -> [f64; LANES] {
    std::array::from_fn(|lane| probs[group[lane.min(group.len() - 1)]])
}

#[inline]
fn scatter(group: &[usize], marginals: &[f64; LANES], out: &mut [f64]) {
    for (&j, &m) in group.iter().zip(marginals) {
        out[j] = m;
    }
}

/// The starting value of `f64`'s `Sum`, which the expectation continues
/// from so each lane's sum is the bits of the per-arc `.sum()`.
#[inline]
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Zeroes the tiny negative values cancellation leaves in a deconvolved
/// probability.
#[inline]
fn clamp_noise(v: f64) -> f64 {
    if v < 0.0 && v > -1e-12 {
        0.0
    } else {
        v
    }
}

/// Reads a recurrence value below [`FLOOR`] in magnitude as `+0.0`, which
/// ends its lane's tail: outside the presence-count window it stays `+0.0`.
#[inline]
fn flush(v: f64) -> f64 {
    if v.abs() < FLOOR {
        0.0
    } else {
        v
    }
}

/// The presence-count DP of [`presence_count_dp`] over each row's window:
/// an entry is computed only next to the previous row's window, and a new
/// row drops its leading and trailing entries below [`FLOOR`].  Inside the
/// window each entry is `below·p + at·(1 − p)` as in the full DP, with the
/// neighbour outside it read as `+0.0`.  Returns the last row's window
/// `(lo, hi)`: `scratch.full[lo..=hi]` holds it, and every other entry of
/// the row reads `+0.0`.
fn presence_count_window(probs: &[Probability], scratch: &mut MarginalScratch) -> (usize, usize) {
    let (out, spare) = (&mut scratch.full, &mut scratch.spare);
    out.clear();
    out.resize(probs.len() + 1, 0.0);
    spare.clear();
    spare.resize(probs.len() + 1, 0.0);
    out[0] = 1.0;
    let (mut lo, mut hi) = (0, 0);
    for &p in probs {
        let (cur, next) = (&out[lo..=hi], &mut spare[lo..=hi + 1]);
        let top = cur.len();
        next[top] = cur[top - 1] * p;
        for ((slot, &below), &at) in next[1..top].iter_mut().zip(cur).zip(&cur[1..]) {
            *slot = below * p + at * (1.0 - p);
        }
        next[0] = cur[0] * (1.0 - p);
        hi += 1;
        #[cfg(test)]
        let untrimmed = (lo, hi);
        while lo < hi && spare[lo] < FLOOR {
            lo += 1;
        }
        while hi > lo && spare[hi] < FLOOR {
            hi -= 1;
        }
        #[cfg(test)]
        {
            scratch.trimmed += (lo - untrimmed.0) + (untrimmed.1 - hi);
        }
        std::mem::swap(out, spare);
    }
    (lo, hi)
}

/// The marginals of eight arcs with `p ≤ 0.5`: the bottom-up recurrence
/// `o[x] = (r[x] − p·o[x−1]) / (1 − p)`, with the expectation
/// `Σₓ clamp(o[x]) / (x + 1)` summed in ascending `x` as `o[x]` appears.
///
/// Below the window `o` is `+0.0`, so the recurrence starts at `lo` from
/// `o = 0` (at `lo = 0` that is the full range's `r[0] / (1 − p)`); above
/// it `r` reads `+0.0`, and the lanes run until every tail is flushed.
fn bottom_up_lanes(r: &[f64], (lo, hi): (usize, usize), p: [f64; LANES]) -> [f64; LANES] {
    let n = r.len() - 1;
    let mut prev = [0.0; LANES];
    let first = if lo == 0 { sum_start() } else { 0.0 };
    let mut expectation = [first; LANES];
    for (x, &rx) in r.iter().enumerate().take(n.min(hi + 1)).skip(lo) {
        let divisor = (x + 1) as f64;
        for lane in 0..LANES {
            prev[lane] = (rx - p[lane] * prev[lane]) / (1.0 - p[lane]);
            expectation[lane] += clamp_noise(prev[lane]) / divisor;
        }
    }
    for x in hi + 1..n {
        if prev.iter().all(|&o| o == 0.0) {
            break;
        }
        let divisor = (x + 1) as f64;
        for lane in 0..LANES {
            prev[lane] = flush((0.0 - p[lane] * prev[lane]) / (1.0 - p[lane]));
            expectation[lane] += clamp_noise(prev[lane]) / divisor;
        }
    }
    std::array::from_fn(|lane| (p[lane] * expectation[lane]).max(0.0))
}

/// The marginals of eight arcs with `p > 0.5`: the top-down recurrence
/// `o[x−1] = (r[x] − (1 − p)·o[x]) / p` into `lanes`, then the expectation
/// summed in ascending `x`, as the per-arc loop sums it.
///
/// Above the window `o` is `+0.0`, so the recurrence starts at `hi` from
/// `o = 0` (at `hi = n` that is the full range's `r[n] / p`); below it `r`
/// reads `+0.0`, and the lanes run until every tail is flushed.  Only the
/// entries written here are summed.
fn top_down_lanes(
    r: &[f64],
    (lo, hi): (usize, usize),
    p: [f64; LANES],
    lanes: &mut Vec<[f64; LANES]>,
) -> [f64; LANES] {
    let n = r.len() - 1;
    if lanes.len() < n {
        lanes.resize(n, [0.0; LANES]);
    }
    let mut above = [0.0; LANES];
    let bottom = lo.max(1);
    for x in (bottom..=hi).rev() {
        for lane in 0..LANES {
            above[lane] = (r[x] - (1.0 - p[lane]) * above[lane]) / p[lane];
        }
        lanes[x - 1] = above;
    }
    let mut start = (bottom - 1).min(hi);
    for x in (1..bottom).rev() {
        if above.iter().all(|&o| o == 0.0) {
            break;
        }
        for lane in 0..LANES {
            above[lane] = flush((0.0 - (1.0 - p[lane]) * above[lane]) / p[lane]);
        }
        lanes[x - 1] = above;
        start = x - 1;
    }
    // A sum that skipped a zero term starts from +0.0, as the full range's
    // -0.0 + 0.0 does.
    let first = if start == 0 && hi > 0 {
        sum_start()
    } else {
        0.0
    };
    let mut expectation = [first; LANES];
    for (x, o) in lanes.iter().enumerate().take(hi).skip(start) {
        let divisor = (x + 1) as f64;
        for lane in 0..LANES {
            expectation[lane] += clamp_noise(o[lane]) / divisor;
        }
    }
    std::array::from_fn(|lane| (p[lane] * expectation[lane]).max(0.0))
}

/// Builds the alias row of a single vertex from its sorted adjacency and
/// its row's [`one_step_marginals`]: the death mass, then the Vose pass.
///
/// The one build path of every alias row — a graph's cached rows and the
/// overlay's patched rows alike — so equal adjacency yields bit-identical
/// slots.
pub(crate) fn build_alias_row(neighbors: &[VertexId], marginals: &[f64]) -> Box<[AliasSlot]> {
    let d = neighbors.len();
    debug_assert_eq!(d, marginals.len());
    if d == 0 {
        // No possible arcs: the walk always dies here.
        return Box::new([AliasSlot {
            prob: 1.0,
            first: DEAD,
            second: DEAD,
        }]);
    }

    // Outcome weights: the marginal of each neighbor, then the death mass.
    let mut weights = Vec::with_capacity(d + 1);
    weights.extend_from_slice(marginals);
    let mut survival = 0.0; // Σⱼ weight_j = Pr(at least one arc exists)
    for &w in marginals {
        survival += w;
    }
    // Death carries the leftover mass; clamp the f64 cancellation noise.
    weights.push((1.0 - survival).max(0.0));

    // Vose construction over the d + 1 outcomes.  Outcome j < d is neighbor
    // j; outcome d is DEAD.  Deterministic: worklists are filled in index
    // order and popped LIFO, so identical inputs yield identical rows.
    let count = d + 1;
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let scale = count as f64 / total;
    for w in &mut weights {
        *w *= scale;
    }
    let outcome = |j: usize| if j < d { neighbors[j] } else { DEAD };
    let mut slots = vec![
        AliasSlot {
            prob: 1.0,
            first: DEAD,
            second: DEAD,
        };
        count
    ];
    let (mut small, mut large): (Vec<usize>, Vec<usize>) =
        (0..count).partition(|&j| weights[j] < 1.0);
    while let (Some(&j), Some(&k)) = (small.last(), large.last()) {
        small.pop();
        slots[j] = AliasSlot {
            prob: weights[j],
            first: outcome(j),
            second: outcome(k),
        };
        weights[k] = (weights[k] + weights[j]) - 1.0;
        if weights[k] < 1.0 {
            large.pop();
            small.push(k);
        }
    }
    // Leftovers (all ≈ 1 up to rounding) keep their own outcome entirely.
    for &j in large.iter().chain(small.iter()) {
        slots[j] = AliasSlot {
            prob: 1.0,
            first: outcome(j),
            second: outcome(j),
        };
    }
    slots.into_boxed_slice()
}

/// The presence-count distribution of independent arcs (the `r(n, ·)`
/// table of the paper's Fig. 2): `out[x] = Pr(exactly x of the arcs
/// exist)`, `out.len() == probs.len() + 1`.  `O(d²)`.
pub fn presence_count_distribution_into(probs: &[Probability], out: &mut Vec<f64>) {
    presence_count_dp(probs, out, &mut Vec::new());
}

/// [`presence_count_distribution_into`] with a caller's second buffer.
/// Each arc's row is computed forward from the previous one into the other
/// buffer, `next[j] = cur[j − 1]·p + cur[j]·(1 − p)`: the `f64` operations
/// of an in-place backward loop, so the same bits, but the loop reads one
/// buffer and writes the other, so it vectorizes.
fn presence_count_dp(probs: &[Probability], out: &mut Vec<f64>, spare: &mut Vec<f64>) {
    out.clear();
    out.resize(probs.len() + 1, 0.0);
    spare.clear();
    spare.resize(probs.len() + 1, 0.0);
    out[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        let upper = i + 1;
        let (cur, next) = (&out[..upper], &mut spare[..=upper]);
        next[upper] = cur[upper - 1] * p;
        for ((slot, &below), &at) in next[1..upper].iter_mut().zip(cur).zip(&cur[1..]) {
            *slot = below * p + at * (1.0 - p);
        }
        next[0] = cur[0] * (1.0 - p);
        std::mem::swap(out, spare);
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
        let row = view.alias_slots(0);
        assert_eq!(row.len(), 3);
        let dist = table_distribution(row);
        assert!((dist[&2] - 0.6).abs() < 1e-12, "{dist:?}");
        assert!((dist[&3] - 0.3).abs() < 1e-12, "{dist:?}");
        assert!((dist[&DEAD] - 0.1).abs() < 1e-12, "{dist:?}");
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

    /// The one-buffer presence-count DP: each arc's row is updated in place,
    /// from the top down, so every read sees the previous arc's value.
    fn in_place_presence_counts(probs: &[Probability]) -> Vec<f64> {
        let mut out = vec![0.0; probs.len() + 1];
        out[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            let upper = i + 1;
            out[upper] = out[upper - 1] * p;
            for j in (1..upper).rev() {
                out[j] = out[j - 1] * p + out[j] * (1.0 - p);
            }
            out[0] *= 1.0 - p;
        }
        out
    }

    /// The per-arc reference: one presence-count DP, then each arc's
    /// leave-one-out deconvolution and expectation on its own, in the order
    /// the lockstep kernel must reproduce bit for bit.
    fn per_arc_marginals(probs: &[Probability]) -> Vec<f64> {
        let mut others = Vec::new();
        if probs.is_empty() {
            return Vec::new();
        }
        let full = in_place_presence_counts(probs);
        probs
            .iter()
            .map(|&p| {
                remove_bernoulli_into(&full, p, &mut others);
                let expectation: f64 = others
                    .iter()
                    .enumerate()
                    .map(|(x, &rx)| rx / (x + 1) as f64)
                    .sum();
                (p * expectation).max(0.0)
            })
            .collect()
    }

    fn assert_kernel_matches_per_arc_loop(probs: &[Probability], scratch: &mut MarginalScratch) {
        let mut kernel = Vec::new();
        one_step_marginals(probs, scratch, &mut kernel);
        let reference = per_arc_marginals(probs);
        assert_eq!(kernel.len(), probs.len());
        for (j, (k, r)) in kernel.iter().zip(&reference).enumerate() {
            assert_eq!(
                k.to_bits(),
                r.to_bits(),
                "d = {}, arc {j} (p = {:e}): kernel {k:e}, per-arc {r:e}",
                probs.len(),
                probs[j]
            );
        }
    }

    /// The kernel before the window, kept as the reference it must
    /// reproduce: the full presence-count DP, then the lockstep lanes over
    /// every index.
    fn full_range_marginals(probs: &[Probability]) -> Vec<f64> {
        let (mut full, mut lanes) = (Vec::new(), Vec::new());
        presence_count_dp(probs, &mut full, &mut Vec::new());
        let (bottom_up, top_down): (Vec<usize>, Vec<usize>) =
            (0..probs.len()).partition(|&j| probs[j] <= 0.5);
        let mut out = vec![0.0; probs.len()];
        for group in bottom_up.chunks(LANES) {
            let marginals = full_range_bottom_up(&full, lane_probs(probs, group));
            scatter(group, &marginals, &mut out);
        }
        for group in top_down.chunks(LANES) {
            let marginals = full_range_top_down(&full, lane_probs(probs, group), &mut lanes);
            scatter(group, &marginals, &mut out);
        }
        out
    }

    fn full_range_bottom_up(r: &[f64], p: [f64; LANES]) -> [f64; LANES] {
        let n = r.len() - 1;
        let mut prev = [0.0; LANES];
        let mut expectation = [sum_start(); LANES];
        for lane in 0..LANES {
            prev[lane] = r[0] / (1.0 - p[lane]);
            expectation[lane] += clamp_noise(prev[lane]) / 1.0;
        }
        for (x, &rx) in r.iter().enumerate().take(n).skip(1) {
            let divisor = (x + 1) as f64;
            for lane in 0..LANES {
                prev[lane] = (rx - p[lane] * prev[lane]) / (1.0 - p[lane]);
                expectation[lane] += clamp_noise(prev[lane]) / divisor;
            }
        }
        std::array::from_fn(|lane| (p[lane] * expectation[lane]).max(0.0))
    }

    fn full_range_top_down(
        r: &[f64],
        p: [f64; LANES],
        lanes: &mut Vec<[f64; LANES]>,
    ) -> [f64; LANES] {
        let n = r.len() - 1;
        lanes.clear();
        lanes.resize(n, [0.0; LANES]);
        for lane in 0..LANES {
            lanes[n - 1][lane] = r[n] / p[lane];
        }
        for x in (1..n).rev() {
            let above = lanes[x];
            for lane in 0..LANES {
                lanes[x - 1][lane] = (r[x] - (1.0 - p[lane]) * above[lane]) / p[lane];
            }
        }
        let mut expectation = [sum_start(); LANES];
        for (x, o) in lanes.iter().enumerate() {
            let divisor = (x + 1) as f64;
            for lane in 0..LANES {
                expectation[lane] += clamp_noise(o[lane]) / divisor;
            }
        }
        std::array::from_fn(|lane| (p[lane] * expectation[lane]).max(0.0))
    }

    /// Hub rows underflow at both ends of `r`, so the window trims them; it
    /// must still give the full-range kernel's bits, in every probability
    /// shape a hub row meets.
    #[test]
    fn windowed_hub_marginals_are_the_bits_of_the_full_range_kernel() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0b5e_4ab5);
        type Draw = fn(&mut StdRng) -> f64;
        let shapes: [(&str, Draw); 5] = [
            ("uniform (0, 1]", |rng| 1.0 - rng.gen::<f64>()),
            ("low", |rng| rng.gen_range(0.001..0.05)),
            ("high", |rng| rng.gen_range(0.95..=1.0)),
            ("bimodal", |rng| if rng.gen::<bool>() { 0.01 } else { 0.99 }),
            ("1/1000 grid", |rng| {
                f64::from(rng.gen_range(1u32..=1000)) / 1000.0
            }),
        ];
        let mut scratch = MarginalScratch::default();
        let mut kernel = Vec::new();
        for d in [720, 1000, 2000, 4096] {
            for (shape, draw) in shapes {
                let probs: Vec<f64> = (0..d).map(|_| draw(&mut rng)).collect();
                scratch.trimmed = 0;
                one_step_marginals(&probs, &mut scratch, &mut kernel);
                assert!(scratch.trimmed > 0, "d = {d}, {shape}: nothing trimmed");
                let reference = full_range_marginals(&probs);
                for (j, (k, r)) in kernel.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        k.to_bits(),
                        r.to_bits(),
                        "d = {d}, {shape}, arc {j} (p = {:e}): window {k:e}, full {r:e}",
                        probs[j]
                    );
                }
            }
        }
    }

    /// The rows the bit tests run over: for each degree of `1..=64` and
    /// `255, 256, 257, 4096`, a random row mixing the grid and `special`
    /// probabilities and, for `d ≤ 64` and `257`, a row of only `special`
    /// ones and a row of certain arcs.
    fn bit_test_rows() -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let half = 0.5f64.to_bits();
        // 1, 0.5 and its neighbours on either side of the direction switch,
        // a tiny and a grid-sized probability.
        let special = [
            1.0,
            0.5,
            f64::from_bits(half - 1),
            f64::from_bits(half + 1),
            1e-300,
            1.0 / (1u64 << 53) as f64,
        ];
        let mut rng = StdRng::seed_from_u64(0x0b5e_55ed);
        let mut rows = Vec::new();
        for d in (1..=64).chain([255, 256, 257, 4096]) {
            rows.push(
                (0..d)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => special[rng.gen_range(0..special.len())],
                        // Uniform on the 53-bit grid in (0, 1].
                        _ => ((rng.gen::<u64>() >> 11) + 1) as f64 / (1u64 << 53) as f64,
                    })
                    .collect(),
            );
            if d <= 64 || d == 257 {
                rows.push((0..d).map(|j| special[j % special.len()]).collect());
                rows.push(vec![1.0; d]);
            }
        }
        rows
    }

    #[test]
    fn two_buffer_presence_counts_are_the_bits_of_the_in_place_loop() {
        let (mut out, mut spare) = (Vec::new(), Vec::new());
        for probs in bit_test_rows().iter().map(Vec::as_slice).chain([&[][..]]) {
            presence_count_dp(probs, &mut out, &mut spare);
            let reference = in_place_presence_counts(probs);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference), "d = {}", probs.len());
        }
    }

    #[test]
    fn lockstep_marginals_are_the_bits_of_the_per_arc_loop() {
        let mut scratch = MarginalScratch::default();
        for row in bit_test_rows() {
            assert_kernel_matches_per_arc_loop(&row, &mut scratch);
        }
        // A certain row: every other arc is present, so each marginal is 1/d.
        let mut certain = Vec::new();
        one_step_marginals(&[1.0; 5], &mut scratch, &mut certain);
        assert_eq!(certain, [0.2; 5]);
        one_step_marginals(&[], &mut scratch, &mut certain);
        assert!(certain.is_empty());
    }

    #[test]
    fn remove_bernoulli_roundtrip() {
        let probs = [0.3, 0.7, 0.95, 0.05];
        let (mut full, mut expected, mut removed) = (Vec::new(), Vec::new(), Vec::new());
        presence_count_distribution_into(&probs, &mut full);
        for (j, &p) in probs.iter().enumerate() {
            let others: Vec<f64> = probs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, &q)| q)
                .collect();
            presence_count_distribution_into(&others, &mut expected);
            remove_bernoulli_into(&full, p, &mut removed);
            for (a, b) in removed.iter().zip(&expected) {
                assert!(
                    (a - b).abs() < 1e-10,
                    "removing p={p}: {removed:?} vs {expected:?}"
                );
            }
        }
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
            let dist = table_distribution(view.alias_slots(v));
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
    fn rows_are_aligned_with_csr_and_built_from_the_cached_marginals() {
        let g = fig1_graph();
        for view in [g.forward(), g.reverse()] {
            for v in 0..g.num_vertices() as VertexId {
                let row = view.alias_slots(v);
                assert_eq!(row.len(), view.degree(v) + 1);
                // A fresh build over freshly computed marginals gives the
                // same bits: the cached row is the one build path's output.
                let mut marginals = Vec::new();
                one_step_marginals(
                    view.probabilities(v),
                    &mut MarginalScratch::default(),
                    &mut marginals,
                );
                assert_eq!(row, &build_alias_row(view.neighbors(v), &marginals)[..]);
                // A second read serves the cached row itself.
                assert!(std::ptr::eq(row, view.alias_slots(v)));
            }
        }
    }

    #[test]
    fn draw_covers_every_outcome_and_respects_frequencies() {
        let g = fig1_graph();
        let row = g.forward().alias_slots(0);
        // Deterministic stratified sweep of the unit interval stands in for
        // an RNG: empirical frequencies must converge on the marginals.
        let trials = 1_000_000;
        let mut counts: std::collections::HashMap<VertexId, usize> = Default::default();
        for i in 0..trials {
            let unit = (i as f64 + 0.5) / trials as f64;
            *counts.entry(alias_draw(row, unit)).or_insert(0) += 1;
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
        let dist = table_distribution(g.forward().alias_slots(0));
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "{dist:?}");
        assert!(dist.values().all(|w| w.is_finite() && *w >= 0.0));
        // An arc with probability 1 and another near-certain arc: death mass
        // is (essentially) zero.
        assert!(dist.get(&DEAD).copied().unwrap_or(0.0) < 1e-6);
    }
}
