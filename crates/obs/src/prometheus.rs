//! Prometheus text-exposition (format version 0.0.4) rendering.
//!
//! [`PromWriter`] builds the plaintext body the `metrics` request frame and
//! the `--metrics-port` listener serve.  It only writes — the metric
//! *choice* lives with the owners of the counters (`usim_server`'s stats
//! assembly), keeping this crate dependency-free.
//!
//! Emission follows the format rules the CI linter
//! (`scripts/lint_prometheus.sh`) checks: each metric is announced with
//! `# HELP` and `# TYPE` exactly once, sample lines match
//! `name{labels} value`, histograms emit cumulative `_bucket` series with
//! an `le="+Inf"` terminator plus `_sum`/`_count`, and the body ends with a
//! newline.

use crate::histogram::{LatencyHistogram, NUM_BUCKETS};
use std::fmt::Write as _;

/// An append-only Prometheus text-exposition builder.
#[derive(Debug, Default)]
pub struct PromWriter {
    body: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` / `# TYPE` header of `name`.
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.body, "# HELP {name} {help}");
        let _ = writeln!(self.body, "# TYPE {name} {kind}");
    }

    /// Emits one unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.body, "{name} {value}");
    }

    /// Emits one counter family with a single label dimension: one sample
    /// line per `(label_value, value)` pair.
    pub fn counter_family(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (label_value, value) in samples {
            let _ = writeln!(self.body, "{name}{{{label}=\"{label_value}\"}} {value}");
        }
    }

    /// Emits one unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.body, "{name} {value}");
    }

    /// Emits a gauge family: one sample per label value.
    pub fn gauge_family(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, f64)]) {
        self.header(name, help, "gauge");
        for (label_value, value) in samples {
            let _ = writeln!(self.body, "{name}{{{label}=\"{label_value}\"}} {value}");
        }
    }

    /// Emits a [`LatencyHistogram`] as a Prometheus histogram in
    /// **seconds** (the Prometheus base unit), with one optional label.
    ///
    /// Buckets are cumulative over the histogram's log-spaced upper bounds;
    /// empty tail buckets are folded into `le="+Inf"` to keep the body
    /// small.  `_sum` is approximated from bucket upper bounds (the
    /// histogram does not keep exact sums) — documented in the HELP text.
    pub fn latency_histogram(
        &mut self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
        histogram: &LatencyHistogram,
    ) {
        // One header per family: callers emitting several labelled series
        // use `latency_histogram_series` after announcing the family once.
        self.header(name, help, "histogram");
        self.latency_histogram_series(name, label, histogram);
    }

    /// Emits the sample lines of one labelled histogram series (the family
    /// header must already have been written).
    pub fn latency_histogram_series(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        histogram: &LatencyHistogram,
    ) {
        let counts = histogram.snapshot_counts();
        let total: u64 = counts.iter().sum();
        // Highest non-empty bucket; everything above it is only +Inf.
        let last = counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| (i + 1).min(NUM_BUCKETS - 1));
        let mut cumulative = 0u64;
        let mut sum_us = 0u64;
        for (index, &count) in counts.iter().enumerate().take(last + 1) {
            cumulative += count;
            sum_us += count * LatencyHistogram::bound_us(index);
            let le = LatencyHistogram::bound_us(index) as f64 / 1e6;
            let _ = writeln!(
                self.body,
                "{name}_bucket{{{}le=\"{le}\"}} {cumulative}",
                Self::label_prefix(label)
            );
        }
        let _ = writeln!(
            self.body,
            "{name}_bucket{{{}le=\"+Inf\"}} {total}",
            Self::label_prefix(label)
        );
        let _ = writeln!(
            self.body,
            "{name}_sum{} {}",
            Self::label_suffix(label),
            sum_us as f64 / 1e6
        );
        let _ = writeln!(
            self.body,
            "{name}_count{} {total}",
            Self::label_suffix(label)
        );
    }

    fn label_prefix(label: Option<(&str, &str)>) -> String {
        match label {
            Some((k, v)) => format!("{k}=\"{v}\","),
            None => String::new(),
        }
    }

    fn label_suffix(label: Option<(&str, &str)>) -> String {
        match label {
            Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
            None => String::new(),
        }
    }

    /// Announces a histogram family without emitting samples (pair with
    /// [`PromWriter::latency_histogram_series`]).
    pub fn histogram_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "histogram");
    }

    /// The finished exposition body (always newline-terminated).
    pub fn finish(self) -> String {
        self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_render_headers_once() {
        let mut w = PromWriter::new();
        w.counter("usim_requests_total", "Requests served.", 7);
        w.counter_family(
            "usim_requests_by_kind_total",
            "Requests by kind.",
            "kind",
            &[("batch", 5), ("stats", 2)],
        );
        w.gauge("usim_cache_occupancy", "Live cache entries.", 3.0);
        let body = w.finish();
        assert!(body.contains("# HELP usim_requests_total Requests served.\n"));
        assert!(body.contains("# TYPE usim_requests_total counter\n"));
        assert!(body.contains("usim_requests_total 7\n"));
        assert!(body.contains("usim_requests_by_kind_total{kind=\"batch\"} 5\n"));
        assert!(body.contains("usim_requests_by_kind_total{kind=\"stats\"} 2\n"));
        assert!(body.contains("# TYPE usim_cache_occupancy gauge\n"));
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn histograms_emit_cumulative_buckets_with_inf_terminator() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // bucket 2, le 4µs
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100)); // bucket 7, le 128µs
        let mut w = PromWriter::new();
        w.latency_histogram("usim_latency_seconds", "End-to-end latency.", None, &h);
        let body = w.finish();
        assert!(body.contains("# TYPE usim_latency_seconds histogram\n"));
        assert!(body.contains("usim_latency_seconds_bucket{le=\"0.000004\"} 2\n"));
        assert!(body.contains("usim_latency_seconds_bucket{le=\"0.000128\"} 3\n"));
        assert!(body.contains("usim_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(body.contains("usim_latency_seconds_count 3\n"));
        // Buckets are cumulative and monotone.
        let mut last = 0u64;
        for line in body.lines().filter(|l| l.contains("_bucket{")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "{line}");
            last = value;
        }
    }

    #[test]
    fn labelled_series_share_one_family_header() {
        let h1 = LatencyHistogram::new();
        h1.record(Duration::from_micros(1));
        let h2 = LatencyHistogram::new();
        let mut w = PromWriter::new();
        w.histogram_family("usim_stage_seconds", "Per-stage time.");
        w.latency_histogram_series("usim_stage_seconds", Some(("stage", "parse")), &h1);
        w.latency_histogram_series("usim_stage_seconds", Some(("stage", "merge")), &h2);
        let body = w.finish();
        assert_eq!(
            body.matches("# TYPE usim_stage_seconds histogram").count(),
            1
        );
        assert!(body.contains("usim_stage_seconds_bucket{stage=\"parse\",le=\"0.000002\"} 1\n"));
        assert!(body.contains("usim_stage_seconds_bucket{stage=\"merge\",le=\"+Inf\"} 0\n"));
        assert!(body.contains("usim_stage_seconds_count{stage=\"parse\"} 1\n"));
    }
}
