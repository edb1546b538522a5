//! Per-query stage tracing: sampled, lock-free, allocation-free.
//!
//! A request's life through the serving stack decomposes into the
//! [`Stage`]s below.  When the [`Tracer`]'s deterministic every-Nth sampler
//! picks a request, the transport stamps it with a trace id and carries a
//! stack-allocated [`StageTrace`] down the call chain as
//! `Option<&StageTrace>`; each layer adds the wall time it spent to its
//! stage with a relaxed `fetch_add`.  Un-sampled requests carry `None` and
//! pay a single branch per stage.  At the end, [`Tracer::finish`] folds the
//! trace into per-stage [`LatencyHistogram`]s and offers it to the
//! [`SlowQueryLog`].
//!
//! Stages never overlap on one request (each is a disjoint slice of the
//! handler's wall time), so the per-request stage sum is ≤ the transport's
//! end-to-end read → serialize sample — the invariant the `stats` frame's
//! `stages` section and the slow-query log rely on.

use crate::histogram::LatencyHistogram;
use crate::slowlog::{SlowEntry, SlowQueryLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The pipeline stages a traced request is split into, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// JSON line → request value (transport read excluded).
    Parse,
    /// Waiting between connection accept and the start of its serving
    /// thread, including any wait for a free slot (recorded on the
    /// connection's first frame).
    QueueWait,
    /// Result-cache probes (hits and miss bookkeeping).
    CacheLookup,
    /// Running walks (the engine's sampling itself).
    WalkSample,
    /// Ranking a top-k request's scored candidates.
    Merge,
    /// Response value → bytes on the output buffer.
    Serialize,
}

/// Number of stages ([`Stage::ALL`] length).
pub const NUM_STAGES: usize = 6;

impl Stage {
    /// Every stage, in wire order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::WalkSample,
        Stage::Merge,
        Stage::Serialize,
    ];

    /// The snake_case exposition name of this stage.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::WalkSample => "walk_sample",
            Stage::Merge => "merge",
            Stage::Serialize => "serialize",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::QueueWait => 1,
            Stage::CacheLookup => 2,
            Stage::WalkSample => 3,
            Stage::Merge => 4,
            Stage::Serialize => 5,
        }
    }
}

/// One sampled request's stage timings, nanosecond resolution.
///
/// Stack-allocated by the transport and threaded down the handler chain by
/// shared reference; atomics (not `Cell`s) keep it `Sync`.
#[derive(Debug)]
pub struct StageTrace {
    id: u64,
    nanos: [AtomicU64; NUM_STAGES],
}

impl StageTrace {
    /// A zeroed trace with the given id.
    pub fn new(id: u64) -> Self {
        StageTrace {
            id,
            nanos: Default::default(),
        }
    }

    /// The trace id the transport stamped this request with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds `elapsed` to `stage`.
    #[inline]
    pub fn add(&self, stage: Stage, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Microseconds recorded for `stage` so far.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()].load(Ordering::Relaxed) / 1_000
    }

    /// All stage timings in [`Stage::ALL`] order, µs.
    pub fn stages_us(&self) -> [u64; NUM_STAGES] {
        let mut out = [0u64; NUM_STAGES];
        for (slot, nanos) in out.iter_mut().zip(self.nanos.iter()) {
            *slot = nanos.load(Ordering::Relaxed) / 1_000;
        }
        out
    }

    /// Sum of every stage, µs (computed from nanos, so it never exceeds the
    /// true summed wall time by rounding).
    pub fn total_stage_us(&self) -> u64 {
        self.nanos
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum::<u64>()
            / 1_000
    }
}

/// Times `f` into `stage` of `trace` when one is attached; calls `f`
/// directly (no clock reads) when `trace` is `None`.
#[inline]
pub fn time_stage<T>(trace: Option<&StageTrace>, stage: Stage, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(trace) => {
            let started = Instant::now();
            let value = f();
            trace.add(stage, started.elapsed());
            value
        }
    }
}

/// A point-in-time view of one stage's histogram, for the `stats` frame.
#[derive(Debug, Clone, Copy)]
pub struct StageSnapshot {
    /// The stage.
    pub stage: Stage,
    /// Samples recorded (one per traced request that spent time here).
    pub count: u64,
    /// Median upper bound, µs.
    pub p50_us: u64,
    /// 99th-percentile upper bound, µs.
    pub p99_us: u64,
}

/// The per-server tracing state: the sampling decision, trace-id counter,
/// per-stage latency histograms, and the slow-query log.
///
/// Sampling is deterministic — every `every`-th request observed by
/// [`Tracer::begin`] is traced (`every = round(1 / rate)`), so trace
/// coverage does not depend on wall clock or RNG, and a fixed request
/// sequence always samples the same frames.
#[derive(Debug)]
pub struct Tracer {
    every: u64,
    seen: AtomicU64,
    next_id: AtomicU64,
    traced: AtomicU64,
    stages: [LatencyHistogram; NUM_STAGES],
    slow: SlowQueryLog,
}

impl Tracer {
    /// A tracer sampling at `rate` (clamped to `0.0 ..= 1.0`; `1.0` traces
    /// everything, values ≤ 0 trace nothing) with a slow-query log keeping
    /// the `slow_capacity` slowest traced requests.
    pub fn new(rate: f64, slow_capacity: usize) -> Self {
        let every = if rate <= 0.0 {
            0
        } else {
            (1.0 / rate.min(1.0)).round().max(1.0) as u64
        };
        Tracer {
            every,
            seen: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            traced: AtomicU64::new(0),
            stages: Default::default(),
            slow: SlowQueryLog::new(slow_capacity),
        }
    }

    /// Whether any request can ever be sampled.
    pub fn enabled(&self) -> bool {
        self.every > 0
    }

    /// The sampling period (`0` when disabled, `1` when tracing every
    /// request).
    pub fn sample_every(&self) -> u64 {
        self.every
    }

    /// How many requests have been traced.
    pub fn traced(&self) -> u64 {
        self.traced.load(Ordering::Relaxed)
    }

    /// The sampling decision for one incoming request: a fresh id-stamped
    /// trace for every `every`-th request, `None` otherwise.
    pub fn begin(&self) -> Option<StageTrace> {
        if self.every == 0 {
            return None;
        }
        let seen = self.seen.fetch_add(1, Ordering::Relaxed);
        if seen % self.every != 0 {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Some(StageTrace::new(id))
    }

    /// Folds a finished trace into the per-stage histograms and offers it
    /// (with the request's handler wall time `total` and its kind) to the
    /// slow-query log.
    pub fn finish(&self, trace: &StageTrace, kind: &'static str, total: Duration) {
        self.traced.fetch_add(1, Ordering::Relaxed);
        // Every stage records one sample per traced request — stages the
        // request never touched land in the 0µs bucket, so each stage's
        // count equals the traced count and its distribution is complete.
        let stages_us = trace.stages_us();
        for (stage, &us) in Stage::ALL.iter().zip(stages_us.iter()) {
            self.stages[stage.index()].record(Duration::from_micros(us));
        }
        let total_us = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
        self.slow.offer(SlowEntry {
            trace_id: trace.id(),
            kind,
            total_us,
            stages_us,
        });
    }

    /// The histogram behind `stage`.
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }

    /// Snapshots every stage histogram, in [`Stage::ALL`] order.
    pub fn stage_snapshots(&self) -> [StageSnapshot; NUM_STAGES] {
        Stage::ALL.map(|stage| {
            let h = &self.stages[stage.index()];
            StageSnapshot {
                stage,
                count: h.count(),
                p50_us: h.quantile_upper_bound_us(0.5),
                p99_us: h.quantile_upper_bound_us(0.99),
            }
        })
    }

    /// The slow-query log.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_every_nth_and_deterministic() {
        let tracer = Tracer::new(0.25, 4);
        assert!(tracer.enabled());
        assert_eq!(tracer.sample_every(), 4);
        let decisions: Vec<bool> = (0..12).map(|_| tracer.begin().is_some()).collect();
        assert_eq!(
            decisions,
            [true, false, false, false, true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn rate_zero_disables_tracing() {
        let tracer = Tracer::new(0.0, 4);
        assert!(!tracer.enabled());
        assert!(tracer.begin().is_none());
        assert_eq!(tracer.sample_every(), 0);
    }

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let tracer = Tracer::new(1.0, 4);
        let a = tracer.begin().unwrap();
        let b = tracer.begin().unwrap();
        assert!(b.id() > a.id());
    }

    #[test]
    fn finish_feeds_histograms_and_slow_log() {
        let tracer = Tracer::new(1.0, 2);
        let trace = tracer.begin().unwrap();
        trace.add(Stage::Parse, Duration::from_micros(3));
        trace.add(Stage::WalkSample, Duration::from_micros(900));
        tracer.finish(&trace, "batch", Duration::from_micros(950));
        assert_eq!(tracer.traced(), 1);
        assert_eq!(tracer.stage_histogram(Stage::WalkSample).count(), 1);
        let entries = tracer.slow_log().snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "batch");
        assert_eq!(entries[0].total_us, 950);
        let walk_slot = Stage::ALL.iter().position(|&s| s == Stage::WalkSample);
        assert!(entries[0].stages_us[walk_slot.unwrap()] >= 900);
    }

    #[test]
    fn stage_sum_never_exceeds_the_true_total() {
        let trace = StageTrace::new(7);
        trace.add(Stage::Parse, Duration::from_nanos(1_400));
        trace.add(Stage::Serialize, Duration::from_nanos(1_400));
        // Per-stage µs truncate down (1µs each), and the sum is computed on
        // nanos then truncated (2µs), so sum(stages_us) <= total_stage_us
        // <= true wall sum.
        assert_eq!(trace.stages_us().iter().sum::<u64>(), 2);
        assert_eq!(trace.total_stage_us(), 2);
    }

    #[test]
    fn time_stage_is_transparent_without_a_trace() {
        assert_eq!(time_stage(None, Stage::Merge, || 41 + 1), 42);
        let trace = StageTrace::new(1);
        let out = time_stage(Some(&trace), Stage::Merge, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(trace.stage_us(Stage::Merge) >= 1_000);
    }
}
