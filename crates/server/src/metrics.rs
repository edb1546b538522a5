//! Lock-free serving metrics: the shared latency histogram and per
//! request-type counters.
//!
//! Everything here is plain relaxed atomics — recording sits on the serving
//! hot path (one histogram increment per response frame), so there are no
//! locks, no allocation, and no synchronisation beyond the counter itself.
//! Snapshots read the counters without stopping writers: the `stats` frame
//! is an observability view, not a linearisable read (exactly like the
//! cache counters it sits next to).
//!
//! The histogram itself lives in `usim_obs` (re-exported here for
//! compatibility): log-spaced power-of-two buckets, percentile read-back as
//! the bucket's upper bound — exact enough to alarm on, two orders of
//! magnitude cheaper than recording every sample.

use std::sync::atomic::{AtomicU64, Ordering};

pub use usim_obs::LatencyHistogram;

/// The request types the server counts — the eight wire request types plus
/// a bucket for lines that never resolved to one (malformed JSON, unknown
/// types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A `similarity` frame.
    Similarity,
    /// A `profile` frame.
    Profile,
    /// A `top_k` frame.
    TopK,
    /// A `batch` frame.
    Batch,
    /// An `update` frame.
    Update,
    /// A `stats` frame.
    Stats,
    /// A `metrics` (Prometheus exposition) frame.
    Metrics,
    /// A `slow_queries` frame.
    SlowQueries,
    /// A line that parsed to no known request type.
    Invalid,
}

impl RequestKind {
    /// All kinds, in stats-frame order.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::Similarity,
        RequestKind::Profile,
        RequestKind::TopK,
        RequestKind::Batch,
        RequestKind::Update,
        RequestKind::Stats,
        RequestKind::Metrics,
        RequestKind::SlowQueries,
        RequestKind::Invalid,
    ];

    /// The stats-frame field name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Similarity => "similarity",
            RequestKind::Profile => "profile",
            RequestKind::TopK => "top_k",
            RequestKind::Batch => "batch",
            RequestKind::Update => "update",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::SlowQueries => "slow_queries",
            RequestKind::Invalid => "invalid",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestKind::Similarity => 0,
            RequestKind::Profile => 1,
            RequestKind::TopK => 2,
            RequestKind::Batch => 3,
            RequestKind::Update => 4,
            RequestKind::Stats => 5,
            RequestKind::Metrics => 6,
            RequestKind::SlowQueries => 7,
            RequestKind::Invalid => 8,
        }
    }
}

/// The serving metrics one server (transport + handler) shares: the latency
/// histogram fed by the transport at read→serialize boundaries and the per
/// request-type counters fed by the protocol layer.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    latency: LatencyHistogram,
    kinds: [AtomicU64; 9],
}

impl ServeMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency histogram (record at request-read → response-flush
    /// boundaries).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Counts one request of `kind`.
    pub fn count_request(&self, kind: RequestKind) {
        self.kinds[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// How many requests of `kind` have been counted.
    pub fn requests_of(&self, kind: RequestKind) -> u64 {
        self.kinds[kind.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_bound_us(0.5), 0);
        for micros in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 7);
        // All samples fit under 2^17 µs = 131072 µs.
        assert!(h.quantile_upper_bound_us(1.0) <= 1 << 17);
        // The median of {0,1,2,3,100,1000,100000} is 3 -> bucket [2,4).
        assert_eq!(h.quantile_upper_bound_us(0.5), 4);
        // Monotone in q.
        let p50 = h.quantile_upper_bound_us(0.5);
        let p90 = h.quantile_upper_bound_us(0.9);
        let p99 = h.quantile_upper_bound_us(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    }

    #[test]
    fn histogram_survives_extreme_samples() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(60 * 60 * 24)); // a day -> top bucket
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_upper_bound_us(0.0), 1); // the 0µs sample
        assert_eq!(h.quantile_upper_bound_us(1.0), 1u64 << 31);
    }

    #[test]
    fn request_kinds_count_independently() {
        let m = ServeMetrics::new();
        m.count_request(RequestKind::Batch);
        m.count_request(RequestKind::Batch);
        m.count_request(RequestKind::Stats);
        assert_eq!(m.requests_of(RequestKind::Batch), 2);
        assert_eq!(m.requests_of(RequestKind::Stats), 1);
        assert_eq!(m.requests_of(RequestKind::Invalid), 0);
    }
}
