//! Stack-wide observability for the uncertain-SimRank serving stack.
//!
//! This crate is the **leaf** every other layer hangs its instrumentation
//! on — it depends on nothing but `std`, so `rwalk`, `ugraph`, `usim_core`,
//! `usim_server`, the CLI and the benches can all share one vocabulary:
//!
//! * [`LatencyHistogram`] — a lock-free, fixed-bucket, log-spaced latency
//!   histogram (moved here from `usim_server::metrics`, which re-exports
//!   it).  Recording is one relaxed `fetch_add`; quantile reads are
//!   allocation-free.
//! * [`Stage`] / [`StageTrace`] / [`Tracer`] — per-query stage tracing.
//!   A [`Tracer`] stamps sampled requests with a trace id and hands out a
//!   stack-allocated [`StageTrace`]; each serving layer adds wall time to
//!   its stage; [`Tracer::finish`] folds the trace into per-stage
//!   histograms and offers it to the slow-query log.  Off by default,
//!   deterministic every-Nth sampling, zero allocation on the hot path.
//! * [`SlowQueryLog`] — a bounded ring of the N slowest traced requests
//!   with their stage breakdown, admission-gated by an atomic threshold so
//!   fast requests never take the lock.
//! * [`WalkMetrics`] — process-global relaxed-atomic counters for the walk
//!   layers (walks, steps per backend, deaths, meetings, patched- vs
//!   base-row reads, lazy row instantiations, arena invalidations,
//!   compactions).  Disabled they cost one relaxed load per *query*;
//!   enabled they are flushed in register-accumulated batches, never per
//!   step.
//! * [`PromWriter`] — Prometheus text-exposition (version 0.0.4) rendering
//!   helpers shared by the `metrics` request frame and the
//!   `--metrics-port` listener.
//!
//! The cardinal rule, inherited from the engine's vertex-keyed RNG streams:
//! **instrumentation never touches the sampling path's RNG or output** —
//! answers are bit-identical with tracing and metrics on or off.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod histogram;
mod prometheus;
mod slowlog;
mod stage;
mod walk;

pub use histogram::LatencyHistogram;
pub use prometheus::PromWriter;
pub use slowlog::{SlowEntry, SlowQueryLog};
pub use stage::{time_stage, Stage, StageSnapshot, StageTrace, Tracer, NUM_STAGES};
pub use walk::{walk_metrics, WalkMetrics, WalkSnapshot, WalkTally};
