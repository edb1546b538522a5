//! Process-global engine/walk counters.
//!
//! The walk layers (`rwalk` samplers, the overlay, `usim_core`'s engine)
//! have no natural handle to thread a metrics struct through — samplers are
//! `Copy` values rebuilt per query — so the counters live in one global
//! [`WalkMetrics`] reached via [`walk_metrics`].  Two rules keep it honest
//! on the hot path:
//!
//! * **Gated**: everything is behind a relaxed `enabled` flag checked once
//!   per *query or arena operation*, never per step.  Disabled (the
//!   default), the whole subsystem costs one relaxed bool load per query.
//! * **Batched**: per-step quantities are accumulated in a plain
//!   [`WalkTally`] (registers, no atomics) and flushed as a handful of
//!   relaxed `fetch_add`s per query.
//!
//! Counting never consumes RNG draws and never branches on sampled values,
//! so answers stay bit-identical with metrics on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A local, non-atomic accumulator for one query's walk work; flushed with
/// [`WalkMetrics::flush`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkTally {
    /// Walks simulated (two per sample pair).
    pub walks: u64,
    /// Steps taken by the legacy (lazy-instantiation) sampler.
    pub steps_legacy: u64,
    /// Steps taken by the alias sampler.
    pub steps_alias: u64,
    /// Walks that died before the horizon (reached a vertex whose
    /// instantiated row was empty).
    pub deaths: u64,
    /// Meeting walk pairs of the all-pairs estimate: (u-walk, v-walk)
    /// pairs at the same vertex after `k` steps, summed over the sampled
    /// steps (`k ≥ 3`, or `k ≥ 2` on a pair with a self-loop endpoint).
    pub meetings: u64,
    /// Adjacency-row reads served by the overlay's patched rows.
    pub rows_patched: u64,
    /// Adjacency-row reads served by the immutable CSR base.
    pub rows_base: u64,
    /// Possible-world rows the legacy walks instantiated (first visits).
    pub rows_instantiated: u64,
}

/// The global relaxed-atomic counters (see module docs); read them through
/// [`WalkMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct WalkMetrics {
    enabled: AtomicBool,
    walks: AtomicU64,
    steps_legacy: AtomicU64,
    steps_alias: AtomicU64,
    deaths: AtomicU64,
    meetings: AtomicU64,
    rows_patched: AtomicU64,
    rows_base: AtomicU64,
    rows_instantiated: AtomicU64,
    arena_invalidations: AtomicU64,
    compactions: AtomicU64,
}

/// A point-in-time copy of every counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalkSnapshot {
    /// Walks simulated.
    pub walks: u64,
    /// Legacy-sampler steps.
    pub steps_legacy: u64,
    /// Alias-sampler steps.
    pub steps_alias: u64,
    /// Walks that died before the horizon.
    pub deaths: u64,
    /// Meeting walk pairs, summed over the sampled steps (`k ≥ 3`, or
    /// `k ≥ 2` on a pair with a self-loop endpoint).
    pub meetings: u64,
    /// Row reads served by patched overlay rows.
    pub rows_patched: u64,
    /// Row reads served by the CSR base.
    pub rows_base: u64,
    /// Possible-world rows the engine's legacy walks instantiated.
    pub rows_instantiated: u64,
    /// Walk-arena invalidations (update epochs crossing pooled scratch).
    pub arena_invalidations: u64,
    /// Delta-overlay compactions folded into a fresh CSR base.
    pub compactions: u64,
}

impl WalkMetrics {
    /// Whether counting is on (one relaxed load; call once per query, not
    /// per step).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns counting on or off (serving and benches flip this at boot).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Folds one query's tally into the globals (call once per query; does
    /// nothing when counting is off so callers can flush unconditionally).
    pub fn flush(&self, tally: &WalkTally) {
        if !self.enabled() {
            return;
        }
        self.walks.fetch_add(tally.walks, Ordering::Relaxed);
        self.steps_legacy
            .fetch_add(tally.steps_legacy, Ordering::Relaxed);
        self.steps_alias
            .fetch_add(tally.steps_alias, Ordering::Relaxed);
        self.deaths.fetch_add(tally.deaths, Ordering::Relaxed);
        self.meetings.fetch_add(tally.meetings, Ordering::Relaxed);
        self.rows_patched
            .fetch_add(tally.rows_patched, Ordering::Relaxed);
        self.rows_base.fetch_add(tally.rows_base, Ordering::Relaxed);
        self.rows_instantiated
            .fetch_add(tally.rows_instantiated, Ordering::Relaxed);
    }

    /// Counts one walk-arena invalidation.
    pub fn count_arena_invalidation(&self) {
        if self.enabled() {
            self.arena_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one delta-overlay compaction.
    pub fn count_compaction(&self) {
        if self.enabled() {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> WalkSnapshot {
        WalkSnapshot {
            walks: self.walks.load(Ordering::Relaxed),
            steps_legacy: self.steps_legacy.load(Ordering::Relaxed),
            steps_alias: self.steps_alias.load(Ordering::Relaxed),
            deaths: self.deaths.load(Ordering::Relaxed),
            meetings: self.meetings.load(Ordering::Relaxed),
            rows_patched: self.rows_patched.load(Ordering::Relaxed),
            rows_base: self.rows_base.load(Ordering::Relaxed),
            rows_instantiated: self.rows_instantiated.load(Ordering::Relaxed),
            arena_invalidations: self.arena_invalidations.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

/// The process-global [`WalkMetrics`] instance.
pub fn walk_metrics() -> &'static WalkMetrics {
    static GLOBAL: OnceLock<WalkMetrics> = OnceLock::new();
    GLOBAL.get_or_init(WalkMetrics::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_ignore_flushes() {
        // A fresh local instance, not the global (tests share the process).
        let metrics = WalkMetrics::default();
        assert!(!metrics.enabled());
        metrics.flush(&WalkTally {
            walks: 10,
            ..Default::default()
        });
        metrics.count_compaction();
        assert_eq!(metrics.snapshot(), WalkSnapshot::default());
    }

    #[test]
    fn enabled_metrics_accumulate_tallies() {
        let metrics = WalkMetrics::default();
        metrics.set_enabled(true);
        metrics.flush(&WalkTally {
            walks: 4,
            steps_legacy: 12,
            steps_alias: 0,
            deaths: 1,
            meetings: 2,
            rows_patched: 3,
            rows_base: 9,
            rows_instantiated: 5,
        });
        metrics.flush(&WalkTally {
            walks: 2,
            steps_alias: 8,
            ..Default::default()
        });
        metrics.count_arena_invalidation();
        metrics.count_compaction();
        let snap = metrics.snapshot();
        assert_eq!(snap.walks, 6);
        assert_eq!(snap.steps_legacy, 12);
        assert_eq!(snap.steps_alias, 8);
        assert_eq!(snap.deaths, 1);
        assert_eq!(snap.meetings, 2);
        assert_eq!(snap.rows_patched, 3);
        assert_eq!(snap.rows_base, 9);
        assert_eq!(snap.rows_instantiated, 5);
        assert_eq!(snap.arena_invalidations, 1);
        assert_eq!(snap.compactions, 1);
    }
}
