//! `usim_server` — a threaded query server over the dynamic SimRank engine.
//!
//! This crate turns the batch engine ([`usim_core::QueryEngine`], owned
//! behind the reader/writer lock and result cache of
//! [`usim_core::CachedQueryEngine`]) into a long-lived network service:
//! the graph is loaded and compiled to CSR **once**, then any number of
//! clients issue queries and live graph updates over plain TCP, speaking a
//! line-delimited JSON protocol (one request per line, one response per
//! line).
//!
//! Two layers, separately testable:
//!
//! * [`protocol`] — the wire format and the transport-free
//!   [`RequestHandler`] (`&str` line in → JSON [`Frame`] out).  Request
//!   types mirror the engine API (`similarity`, `profile`, `top_k`,
//!   `batch`, `update`, `stats`); every response carries the update epoch
//!   it was computed under, and every failure is a typed error frame —
//!   malformed input never panics or drops a connection.
//! * [`server`] — `std::net` + `std::thread` transport: one accept loop
//!   and one thread per connection, at most N connections at once.
//!
//! The [`metrics`] module keeps a lock-free latency histogram plus
//! per-request-type counters, surfaced through the `stats` frame.
//!
//! Observability rides on `usim_obs`: sampled per-request stage tracing
//! ([`RequestHandler::with_tracing`] — stage timings, a slow-query log
//! behind the `slow_queries` frame, per-stage histograms in `stats`),
//! process-wide walk metrics ([`RequestHandler::with_walk_metrics`]), and
//! Prometheus text exposition through the `metrics` frame or the
//! plaintext HTTP [`exporter`].  Tracing is off by default and never
//! changes answers: instrumentation only reads clocks and bumps relaxed
//! counters, so responses stay byte-identical traced or not.
//!
//! The frame-by-frame protocol reference lives in `docs/PROTOCOL.md`; the
//! CLI front-end is `usim serve` (crate `usim_cli`).  Answers are
//! bit-identical to the same entry points called on a local engine with the
//! same config and seed — the wire serialises floats in shortest
//! round-trip form, so nothing is lost in transit.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exporter;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use exporter::{ExporterHandle, MetricsExporter};
pub use metrics::{LatencyHistogram, RequestKind, ServeMetrics};
pub use protocol::{ErrorCode, Frame, RequestHandler, ResponseMeta, DEFAULT_MAX_BATCH};
pub use server::{Server, ServerHandle, ServerOptions, ServerStats};
