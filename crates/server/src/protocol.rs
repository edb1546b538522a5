//! The line-delimited JSON wire protocol and its request handler.
//!
//! One request per line, one response per line, both JSON objects.  The
//! request's `type` field selects the operation and mirrors the engine API:
//!
//! | `type`       | engine entry point                                      |
//! |--------------|---------------------------------------------------------|
//! | `similarity` | [`usim_core::QueryEngine::similarity`]                  |
//! | `profile`    | [`usim_core::QueryEngine::profile`]                     |
//! | `top_k`      | [`usim_core::QueryEngine::batch_top_k_similar_to`]      |
//! | `batch`      | [`usim_core::QueryEngine::batch_similarities`]          |
//! | `update`     | [`usim_core::QueryEngine::apply_updates`]               |
//! | `stats`      | engine metadata (vertices, arcs, epoch, sampler backend, configuration, result-cache counters) |
//! | `metrics`    | Prometheus text exposition of every serving counter (see [`RequestHandler::prometheus_exposition`]) |
//! | `slow_queries` | the slow-query log kept by the stage tracer (empty unless [`RequestHandler::with_tracing`] enabled it) |
//!
//! Vertices are addressed by the graph file's *original labels* (the same
//! labels the `usim` CLI speaks), resolved here against the label table.
//! Every successful response carries `"ok": true` and the update `"epoch"`
//! the answer was computed under — captured under one engine read lock, so
//! clients can detect staleness across interleaved `update` frames.  Every
//! failure is a typed `"ok": false` frame with a stable `code` and a
//! field-precise `message`; malformed input (a line that is not UTF-8
//! included) never panics the server or drops the connection.  The full
//! frame-by-frame reference with copy-pasteable examples lives in
//! `docs/PROTOCOL.md`.
//!
//! [`RequestHandler`] is transport-free (a `&str` line in, a JSON line
//! out), so the whole protocol is unit-testable without sockets; the TCP
//! layer in [`crate::server`] only adds framing and threads.
//!
//! All query traffic flows through one [`usim_core::CachedQueryEngine`]:
//! each query frame is one typed call on it —
//! [`usim_core::CachedQueryEngine::scores`] for `similarity` and `batch`,
//! [`usim_core::CachedQueryEngine::profile`] and
//! [`usim_core::CachedQueryEngine::top_k`] — carrying the frame's trace.  With
//! [`RequestHandler::with_cache`] the server reuses epoch-validated answers
//! for hot pairs (bit-identical to recomputation — the cache can change
//! latency, never a score), and the `stats` frame reports the cache's
//! hit/miss/stale/eviction counters.  [`RequestHandler::new`] leaves the
//! cache off.
//!
//! With [`RequestHandler::with_update_log`] attached, every accepted
//! `update` batch is appended to a durable [`ugraph::UpdateLog`] (synced
//! before the response frame goes out), so a restarted server can replay
//! back to the exact epoch its clients last observed.
//!
//! The handler also counts requests per type and surfaces those counters —
//! together with the transport's latency histogram — in the `stats`
//! frame's `requests` and `latency` objects.

use crate::metrics::{RequestKind, ServeMetrics};
use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;
use serde::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ugraph::{GraphUpdate, UpdateError, UpdateLog, VertexId};
use usim_core::{CachedQueryEngine, QueryEngine, QueryError};
use usim_obs::{time_stage, walk_metrics, PromWriter, Stage, StageTrace, Tracer};

/// Default cap on `batch` pairs, `top_k` candidates and `update` batches —
/// a bound on per-request memory and lock-hold time, not a protocol limit.
pub const DEFAULT_MAX_BATCH: usize = 65_536;

/// Stable machine-readable error codes carried by `"ok": false` frames.
///
/// The set is part of the wire contract (documented in `docs/PROTOCOL.md`);
/// messages are for humans and may change, codes may not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a JSON object, or its `type` field is missing or not
    /// a string.
    MalformedFrame,
    /// The `type` field names no known request type.
    UnknownRequestType,
    /// A field is missing, has the wrong JSON type, or is not accepted by
    /// this request type.
    BadField,
    /// A vertex label does not appear in the graph.
    UnknownVertex,
    /// A `batch`, `top_k` or `update` request exceeded the server's
    /// configured maximum batch size.
    OversizedBatch,
    /// The engine rejected an update batch ([`ugraph::UpdateError`]); the
    /// graph is unchanged.
    UpdateRejected,
    /// The engine rejected a query ([`usim_core::QueryError`]).
    QueryRejected,
    /// An update was applied in memory but could not be appended to the
    /// durable update log: answers already reflect it, a restart would
    /// not.  Clients should treat the server as needing operator
    /// attention.
    LogFailed,
    /// The request line is longer than
    /// [`RequestHandler::max_line_bytes`]; the transport read it to its
    /// newline without buffering it, and the connection stays up.
    OversizedFrame,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnknownRequestType => "unknown_request_type",
            ErrorCode::BadField => "bad_field",
            ErrorCode::UnknownVertex => "unknown_vertex",
            ErrorCode::OversizedBatch => "oversized_batch",
            ErrorCode::UpdateRejected => "update_rejected",
            ErrorCode::QueryRejected => "query_rejected",
            ErrorCode::LogFailed => "log_failed",
            ErrorCode::OversizedFrame => "oversized_frame",
        }
    }
}

/// A response line ready to write back, tagged with whether it reports an
/// error (for server statistics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The serialised JSON object, without the trailing newline.
    pub json: String,
    /// Whether this is an `"ok": false` frame.
    pub is_error: bool,
}

/// What the transport needs to know about a response that
/// [`RequestHandler::handle_line_into`] wrote straight into its buffer
/// (the allocation-free sibling of [`Frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Whether the written frame is an `"ok": false` frame.
    pub is_error: bool,
}

/// A request rejection: a stable code plus a human-readable, field-precise
/// message.  Internal to handling; it leaves the handler as an error
/// [`Frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reject {
    code: ErrorCode,
    message: String,
}

impl Reject {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Reject {
            code,
            message: message.into(),
        }
    }
}

type Entries = [(String, Value)];

/// The transport-free request handler: owns the served engine, the label
/// table, and the batch-size limit.
///
/// # Example
///
/// ```
/// use ugraph::UncertainGraphBuilder;
/// use usim_core::{QueryEngine, SimRankConfig};
/// use usim_server::RequestHandler;
///
/// let g = UncertainGraphBuilder::new(3)
///     .arc(2, 0, 0.9)
///     .arc(2, 1, 0.8)
///     .build()
///     .unwrap();
/// let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(100));
/// let handler = RequestHandler::new(engine, (0..3).collect(), 1024);
///
/// let frame = handler
///     .handle_line(r#"{"type":"similarity","source":0,"target":1}"#)
///     .unwrap();
/// assert!(!frame.is_error);
/// assert!(frame.json.contains("\"ok\":true"));
/// assert!(frame.json.contains("\"epoch\":0"));
///
/// // Malformed frames come back typed, never as a panic.
/// let frame = handler.handle_line("{oops").unwrap();
/// assert!(frame.is_error);
/// assert!(frame.json.contains("malformed_frame"));
/// ```
#[derive(Debug)]
pub struct RequestHandler {
    engine: CachedQueryEngine,
    labels: Vec<u64>,
    index: HashMap<u64, VertexId>,
    max_batch: usize,
    /// When present, every accepted `update` batch is appended here before
    /// the response frame is written, so a restarted server can replay to
    /// the epoch its clients last saw.  The mutex is held across
    /// apply + append: log order always equals epoch order.
    update_log: Option<Mutex<UpdateLog>>,
    /// Per-request-type counters and the latency histogram the transport
    /// records into.
    metrics: Arc<ServeMetrics>,
    /// When present, a deterministic fraction of requests carries a
    /// [`StageTrace`] through the serving stack; finished traces feed the
    /// per-stage histograms and the slow-query log.  Answers are
    /// bit-identical with tracing on or off — instrumentation only reads
    /// clocks, never RNG streams.
    tracer: Option<Tracer>,
}

impl RequestHandler {
    /// Builds a handler serving `engine`, speaking the given label table
    /// (`labels[v]` is the wire label of engine vertex `v`, exactly like
    /// the CLI's loaded-graph table).  The result cache is off; use
    /// [`RequestHandler::with_cache`] to enable it.
    ///
    /// # Panics
    ///
    /// Panics when the label table length does not match the engine's
    /// vertex count, or when `max_batch` is zero.
    pub fn new(engine: QueryEngine, labels: Vec<u64>, max_batch: usize) -> Self {
        RequestHandler::with_cache(engine, labels, max_batch, 0)
    }

    /// Like [`RequestHandler::new`] with an epoch-validated result cache
    /// bounded to `cache_capacity` entries in front of the engine
    /// (`0` disables caching).  Cached answers are bit-identical to
    /// uncached ones — see [`usim_core::CachedQueryEngine`] — and the
    /// cache's hit/miss/stale/eviction counters are surfaced by the
    /// `stats` frame.
    pub fn with_cache(
        engine: QueryEngine,
        labels: Vec<u64>,
        max_batch: usize,
        cache_capacity: usize,
    ) -> Self {
        assert_eq!(
            labels.len(),
            engine.num_vertices(),
            "label table must cover every vertex"
        );
        let engine = CachedQueryEngine::new(engine, cache_capacity);
        assert!(max_batch > 0, "max_batch must be positive");
        let index = labels
            .iter()
            .enumerate()
            .map(|(v, &label)| (label, v as VertexId))
            .collect();
        RequestHandler {
            engine,
            labels,
            index,
            max_batch,
            update_log: None,
            metrics: Arc::new(ServeMetrics::new()),
            tracer: None,
        }
    }

    /// Attaches a durable [`UpdateLog`]: every accepted `update` batch is
    /// appended (and synced) before its response frame goes out.  The log
    /// must already be replayed into the engine — [`UpdateLog::open`]
    /// returns the logged rounds precisely so the boot path can do that
    /// (see `usim serve --update-log`).
    pub fn with_update_log(mut self, log: UpdateLog) -> Self {
        self.update_log = Some(Mutex::new(log));
        self
    }

    /// Enables sampled per-query stage tracing: every `round(1/sample_rate)`-th
    /// request carries a [`StageTrace`] through parse, cache, sampling,
    /// merge and serialisation; finished traces feed per-stage latency
    /// histograms (the `stats` frame's
    /// `tracing.stages` section) and a slow-query log keeping the
    /// `slow_log_capacity` slowest traced requests (the `slow_queries`
    /// frame).  A rate ≤ 0 builds the tracer disabled.
    ///
    /// Tracing never changes an answer: instrumentation reads clocks, never
    /// the engine's RNG streams, so responses are byte-identical with
    /// tracing on or off.
    pub fn with_tracing(mut self, sample_rate: f64, slow_log_capacity: usize) -> Self {
        self.tracer = Some(Tracer::new(sample_rate, slow_log_capacity));
        self
    }

    /// Turns on the process-global walk/engine counters
    /// ([`usim_obs::walk_metrics`]): walks, steps per sampler backend,
    /// deaths, meetings, overlay patched-vs-base row reads, lazy row
    /// instantiations, arena invalidations and compactions — surfaced by
    /// the `stats` frame's `walks` section and the Prometheus exposition.
    pub fn with_walk_metrics(self) -> Self {
        walk_metrics().set_enabled(true);
        self
    }

    /// The serving metrics this handler feeds (the transport records
    /// latencies into the same object, so one `stats` frame tells the whole
    /// story).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The stage tracer, when [`RequestHandler::with_tracing`] attached one.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The caching engine the handler answers through.  Updates applied
    /// here bypass the update log; the boot path uses it to replay a log.
    pub fn cached_engine(&self) -> &CachedQueryEngine {
        &self.engine
    }

    /// The longest request line the transport buffers, newline included:
    /// `max_batch × 256 + 4096` bytes.  256 bytes is over twice the
    /// longest compact batch item (an update with two u64 labels and a
    /// 17-digit probability, ~110 bytes); 4096 covers the rest of a frame.
    pub fn max_line_bytes(&self) -> usize {
        self.max_batch.saturating_mul(256).saturating_add(4096)
    }

    /// Handles one wire line.  Returns `None` for blank lines (keep-alives
    /// are free); otherwise always returns exactly one response frame.
    /// A convenience over [`RequestHandler::handle_line_into`]: the frame's
    /// `json` is exactly the bytes that call writes, minus the newline.
    pub fn handle_line(&self, line: &str) -> Option<Frame> {
        let mut out = BytesMut::new();
        let meta = self.handle_line_into(line, &mut out)?;
        let json = std::str::from_utf8(&out[..out.len() - 1])
            .expect("the serialiser writes UTF-8")
            .to_string();
        Some(Frame {
            json,
            is_error: meta.is_error,
        })
    }

    /// Handles one wire line, serialising the response (newline included)
    /// straight into `out` — no per-request `String`.  Returns `None` for
    /// blank lines (keep-alives are free; nothing is written); otherwise
    /// writes exactly one response frame.
    pub fn handle_line_into(&self, line: &str, out: &mut BytesMut) -> Option<ResponseMeta> {
        self.handle_line_into_traced(line.as_bytes(), out, None)
    }

    /// Like [`RequestHandler::handle_line_into`] on the raw bytes the
    /// transport read, additionally crediting `queue_wait` (the transport's
    /// accept-to-thread-start delay, which only the transport can measure)
    /// to this frame's trace when the frame is sampled.  The wait also
    /// extends the trace's total, so the per-request stage sum stays within
    /// the end-to-end latency sample the transport records for the same
    /// frame.  A line that is not valid UTF-8 is a `malformed_frame`.
    pub fn handle_line_into_traced(
        &self,
        line: &[u8],
        out: &mut BytesMut,
        queue_wait: Option<Duration>,
    ) -> Option<ResponseMeta> {
        let line = std::str::from_utf8(line).map(str::trim);
        if line == Ok("") {
            return None;
        }
        let line = line
            .map_err(|_| Reject::new(ErrorCode::MalformedFrame, "request line is not valid UTF-8"));
        Some(self.respond(line, out, queue_wait))
    }

    /// Answers a request line the transport read but did not buffer
    /// because it is longer than [`RequestHandler::max_line_bytes`]: one
    /// `oversized_frame` error frame, counted under the `invalid` kind.
    pub fn handle_oversized_line_into(
        &self,
        out: &mut BytesMut,
        queue_wait: Option<Duration>,
    ) -> ResponseMeta {
        let message = format!("request line longer than {} bytes", self.max_line_bytes());
        let reject = Reject::new(ErrorCode::OversizedFrame, message);
        self.respond(Err(reject), out, queue_wait)
    }

    /// Writes the response to one non-blank line (or the transport's
    /// reason for refusing it) into `out`.
    fn respond(
        &self,
        line: Result<&str, Reject>,
        out: &mut BytesMut,
        queue_wait: Option<Duration>,
    ) -> ResponseMeta {
        let trace = self.tracer.as_ref().and_then(Tracer::begin);
        let started = trace.as_ref().map(|_| Instant::now());
        let mut kind = "invalid";
        let (value, is_error) = self.dispatch(line, trace.as_ref(), &mut kind);
        time_stage(trace.as_ref(), Stage::Serialize, || {
            serde_json::to_writer(&mut *out, &value).expect("response values are finite");
            out.put_slice(b"\n");
        });
        self.finish_trace(trace, kind, started, queue_wait);
        ResponseMeta { is_error }
    }

    /// Folds a finished trace into the tracer (no-op for un-sampled
    /// requests).
    fn finish_trace(
        &self,
        trace: Option<StageTrace>,
        kind: &'static str,
        started: Option<Instant>,
        queue_wait: Option<Duration>,
    ) {
        let (Some(tracer), Some(trace), Some(started)) = (self.tracer.as_ref(), trace, started)
        else {
            return;
        };
        let mut total = started.elapsed();
        if let Some(wait) = queue_wait {
            trace.add(Stage::QueueWait, wait);
            total += wait;
        }
        tracer.finish(&trace, kind, total);
    }

    /// The response to one line as a JSON tree plus its error flag;
    /// `kind_out` is set to the resolved request type (for the slow-query
    /// log) as soon as it is known.
    fn dispatch(
        &self,
        line: Result<&str, Reject>,
        trace: Option<&StageTrace>,
        kind_out: &mut &'static str,
    ) -> (Value, bool) {
        match self.handle(line, trace, kind_out) {
            Ok(value) => (value, false),
            Err(reject) => {
                // Lines that never resolved to a known request type count
                // under the `invalid` kind; field-level failures of a known
                // type were already counted under that type at dispatch.
                if matches!(
                    reject.code,
                    ErrorCode::MalformedFrame
                        | ErrorCode::UnknownRequestType
                        | ErrorCode::OversizedFrame
                ) {
                    self.metrics.count_request(RequestKind::Invalid);
                }
                (error_value(&reject), true)
            }
        }
    }

    fn handle(
        &self,
        line: Result<&str, Reject>,
        trace: Option<&StageTrace>,
        kind_out: &mut &'static str,
    ) -> Result<Value, Reject> {
        let line = line?;
        let value: Value = time_stage(trace, Stage::Parse, || serde_json::from_str(line))
            .map_err(|e| Reject::new(ErrorCode::MalformedFrame, format!("invalid JSON: {e}")))?;
        let entries = value.as_map().ok_or_else(|| {
            Reject::new(
                ErrorCode::MalformedFrame,
                format!("expected a JSON object, found {}", value.kind()),
            )
        })?;
        let rtype = match field(entries, "type") {
            Some(Value::Str(s)) => s.as_str(),
            Some(other) => {
                return Err(Reject::new(
                    ErrorCode::MalformedFrame,
                    format!("field `type`: expected a string, found {}", other.kind()),
                ))
            }
            None => {
                return Err(Reject::new(
                    ErrorCode::MalformedFrame,
                    "missing field `type`",
                ))
            }
        };
        let kind = match rtype {
            "similarity" => RequestKind::Similarity,
            "profile" => RequestKind::Profile,
            "top_k" => RequestKind::TopK,
            "batch" => RequestKind::Batch,
            "update" => RequestKind::Update,
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "slow_queries" => RequestKind::SlowQueries,
            other => {
                return Err(Reject::new(
                    ErrorCode::UnknownRequestType,
                    format!(
                        "unknown request type {other:?}; expected one of \
                         \"similarity\", \"profile\", \"top_k\", \"batch\", \"update\", \
                         \"stats\", \"metrics\", \"slow_queries\""
                    ),
                ))
            }
        };
        *kind_out = kind.as_str();
        // Counted at dispatch, before the handler runs: a stats frame
        // therefore includes itself, and field-level rejections still count
        // under the type the client named.
        self.metrics.count_request(kind);
        match kind {
            RequestKind::Similarity => self.similarity(entries, trace),
            RequestKind::Profile => self.profile(entries, trace),
            RequestKind::TopK => self.top_k(entries, trace),
            RequestKind::Batch => self.batch(entries, trace),
            RequestKind::Update => self.update(entries),
            RequestKind::Stats => self.stats(entries),
            RequestKind::Metrics => self.metrics_frame(entries),
            RequestKind::SlowQueries => self.slow_queries(entries),
            RequestKind::Invalid => unreachable!("invalid kinds never dispatch"),
        }
    }

    // -- request type handlers ---------------------------------------------

    fn similarity(&self, entries: &Entries, trace: Option<&StageTrace>) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "similarity", &["source", "target"])?;
        let u = self.resolve(require_label(entries, "source")?)?;
        let v = self.resolve(require_label(entries, "target")?)?;
        let (epoch, scores) = self
            .engine
            .scores(&[(u, v)], trace)
            .map_err(query_rejected)?;
        let score = scores[0];
        Ok(ok_value(
            "similarity",
            epoch,
            vec![("score".into(), Value::Float(score))],
        ))
    }

    fn profile(&self, entries: &Entries, trace: Option<&StageTrace>) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "profile", &["source", "target"])?;
        let u = self.resolve(require_label(entries, "source")?)?;
        let v = self.resolve(require_label(entries, "target")?)?;
        let (epoch, profile) = self.engine.profile(u, v, trace).map_err(query_rejected)?;
        Ok(ok_value(
            "profile",
            epoch,
            vec![
                (
                    "meeting".into(),
                    Value::Seq(profile.meeting.iter().map(|&m| Value::Float(m)).collect()),
                ),
                ("decay".into(), Value::Float(profile.decay)),
                ("score".into(), Value::Float(profile.score())),
            ],
        ))
    }

    fn top_k(&self, entries: &Entries, trace: Option<&StageTrace>) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "top_k", &["source", "k", "candidates"])?;
        let source = self.resolve(require_label(entries, "source")?)?;
        let k = require_usize(entries, "k")?;
        let candidates: Vec<VertexId> = match field(entries, "candidates") {
            // Default: rank every vertex, exactly like `usim topk` — but
            // still under the batch cap, which exists to bound per-request
            // work and read-lock hold time.
            None => {
                self.check_batch_len(self.labels.len(), "the implicit all-vertices candidate set")?;
                (0..self.labels.len() as VertexId).collect()
            }
            Some(value) => {
                let items = expect_seq(value, "candidates")?;
                self.check_batch_len(items.len(), "candidates")?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| self.resolve(expect_label(item, &format!("candidates[{i}]"))?))
                    .collect::<Result<_, _>>()?
            }
        };
        let (epoch, ranked) = self
            .engine
            .top_k(source, &candidates, k, trace)
            .map_err(query_rejected)?;
        let results = ranked
            .into_iter()
            .map(|scored| {
                Value::Map(vec![
                    (
                        "vertex".into(),
                        Value::Uint(self.labels[scored.vertex as usize]),
                    ),
                    ("score".into(), Value::Float(scored.score)),
                ])
            })
            .collect();
        Ok(ok_value(
            "top_k",
            epoch,
            vec![("results".into(), Value::Seq(results))],
        ))
    }

    fn batch(&self, entries: &Entries, trace: Option<&StageTrace>) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "batch", &["pairs"])?;
        let items = expect_seq(require_field(entries, "pairs")?, "pairs")?;
        self.check_batch_len(items.len(), "pairs")?;
        let mut pairs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let pair = expect_seq(item, &format!("pairs[{i}]"))?;
            let [a, b] = pair else {
                return Err(Reject::new(
                    ErrorCode::BadField,
                    format!(
                        "field `pairs[{i}]`: expected a [source, target] pair, \
                         got {} elements",
                        pair.len()
                    ),
                ));
            };
            pairs.push((
                self.resolve(expect_label(a, &format!("pairs[{i}][0]"))?)?,
                self.resolve(expect_label(b, &format!("pairs[{i}][1]"))?)?,
            ));
        }
        let (epoch, scores) = self.engine.scores(&pairs, trace).map_err(query_rejected)?;
        Ok(ok_value(
            "batch",
            epoch,
            vec![(
                "scores".into(),
                Value::Seq(scores.into_iter().map(Value::Float).collect()),
            )],
        ))
    }

    fn update(&self, entries: &Entries) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "update", &["updates"])?;
        let items = expect_seq(require_field(entries, "updates")?, "updates")?;
        self.check_batch_len(items.len(), "updates")?;
        let mut updates = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            updates.push(self.parse_update(item, i)?);
        }
        // Summary and post-update epoch are captured under one write-lock
        // acquisition: a concurrent update committing in between could
        // otherwise stamp this summary with a later update's epoch.  When a
        // durable log is attached its mutex is taken *first* and held across
        // apply + append, so the log's round order always equals the
        // engine's epoch order.
        let mut log = self.update_log.as_ref().map(Mutex::lock);
        let (summary, epoch) = self
            .engine
            .apply_updates(&updates)
            .map_err(|e| Reject::new(ErrorCode::UpdateRejected, self.describe_update_error(&e)))?;
        if let Some(log) = log.as_mut() {
            log.append_round(&updates).map_err(|e| {
                Reject::new(
                    ErrorCode::LogFailed,
                    format!(
                        "update applied in memory (epoch {epoch}) but could not be \
                         appended to the update log: {e}"
                    ),
                )
            })?;
        }
        Ok(ok_value(
            "update",
            epoch,
            vec![
                ("inserted".into(), Value::Uint(summary.inserted as u64)),
                ("deleted".into(), Value::Uint(summary.deleted as u64)),
                ("reweighted".into(), Value::Uint(summary.reweighted as u64)),
                ("arcs".into(), Value::Uint(summary.num_arcs as u64)),
                ("compacted".into(), Value::Bool(summary.compacted)),
            ],
        ))
    }

    fn stats(&self, entries: &Entries) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "stats", &[])?;
        let (epoch, vertices, arcs, config, walk_sets, two_hop_rows) = self.engine.with_read(|e| {
            (
                e.update_epoch(),
                e.num_vertices(),
                e.num_arcs(),
                *e.config(),
                e.walk_set_stats(),
                e.two_hop_row_stats(),
            )
        });
        let sampler = config.sampler;
        let config = serde::to_value(&config).map_err(|e| {
            Reject::new(
                ErrorCode::QueryRejected,
                format!("cannot serialise the engine configuration: {e}"),
            )
        })?;
        // Result-cache counters are lock-free atomics; the snapshot is
        // taken outside the engine lock (an observability frame, not a
        // linearisable read).  The walk-set memo is the engine's, so its
        // counters were read under the lock taken above.
        let mut cache = vec![
            (
                "enabled".to_string(),
                Value::Bool(self.engine.cache_enabled()),
            ),
            (
                "capacity".to_string(),
                Value::Uint(self.engine.cache_capacity() as u64),
            ),
        ];
        if let Some(stats) = self.engine.cache_stats() {
            cache.extend([
                ("entries".to_string(), Value::Uint(stats.entries as u64)),
                ("hits".to_string(), Value::Uint(stats.hits)),
                ("misses".to_string(), Value::Uint(stats.misses)),
                ("stale".to_string(), Value::Uint(stats.stale)),
                ("evictions".to_string(), Value::Uint(stats.evictions)),
                ("insertions".to_string(), Value::Uint(stats.insertions)),
            ]);
        }
        if let Some(memo) = walk_sets {
            cache.extend([
                (
                    "walk_set_entries".to_string(),
                    Value::Uint(memo.entries as u64),
                ),
                ("walk_set_bytes".to_string(), Value::Uint(memo.bytes as u64)),
                ("walk_set_hits".to_string(), Value::Uint(memo.hits)),
                ("walk_set_misses".to_string(), Value::Uint(memo.misses)),
            ]);
        }
        if let Some(rows) = two_hop_rows {
            cache.extend([
                (
                    "two_hop_row_entries".to_string(),
                    Value::Uint(rows.entries as u64),
                ),
                (
                    "two_hop_row_bytes".to_string(),
                    Value::Uint(rows.bytes as u64),
                ),
                ("two_hop_row_hits".to_string(), Value::Uint(rows.hits)),
                ("two_hop_row_misses".to_string(), Value::Uint(rows.misses)),
            ]);
        }
        // Latency section: lock-free counter snapshots, like the cache
        // section above.
        let histogram = self.metrics.latency();
        let requests = RequestKind::ALL
            .iter()
            .map(|&kind| {
                (
                    kind.as_str().to_string(),
                    Value::Uint(self.metrics.requests_of(kind)),
                )
            })
            .collect();
        let latency = vec![
            ("count".to_string(), Value::Uint(histogram.count())),
            (
                "p50_us".to_string(),
                Value::Uint(histogram.quantile_upper_bound_us(0.50)),
            ),
            (
                "p90_us".to_string(),
                Value::Uint(histogram.quantile_upper_bound_us(0.90)),
            ),
            (
                "p99_us".to_string(),
                Value::Uint(histogram.quantile_upper_bound_us(0.99)),
            ),
            ("requests".to_string(), Value::Map(requests)),
        ];
        // Tracing and walk-counter sections: every field is always present
        // (zeroed when the feature is off) so dashboards need no schema
        // branching.
        let tracer = self.tracer.as_ref();
        let stages = match tracer {
            Some(tracer) => tracer
                .stage_snapshots()
                .iter()
                .map(|snap| {
                    Value::Map(vec![
                        (
                            "stage".to_string(),
                            Value::Str(snap.stage.as_str().to_string()),
                        ),
                        ("count".to_string(), Value::Uint(snap.count)),
                        ("p50_us".to_string(), Value::Uint(snap.p50_us)),
                        ("p99_us".to_string(), Value::Uint(snap.p99_us)),
                    ])
                })
                .collect(),
            None => Stage::ALL
                .iter()
                .map(|stage| {
                    Value::Map(vec![
                        ("stage".to_string(), Value::Str(stage.as_str().to_string())),
                        ("count".to_string(), Value::Uint(0)),
                        ("p50_us".to_string(), Value::Uint(0)),
                        ("p99_us".to_string(), Value::Uint(0)),
                    ])
                })
                .collect(),
        };
        let tracing = vec![
            (
                "enabled".to_string(),
                Value::Bool(tracer.is_some_and(Tracer::enabled)),
            ),
            (
                "sample_every".to_string(),
                Value::Uint(tracer.map(Tracer::sample_every).unwrap_or(0)),
            ),
            (
                "traced".to_string(),
                Value::Uint(tracer.map(Tracer::traced).unwrap_or(0)),
            ),
            ("stages".to_string(), Value::Seq(stages)),
        ];
        let walk = walk_metrics();
        let walk_snapshot = walk.snapshot();
        let walks = vec![
            ("enabled".to_string(), Value::Bool(walk.enabled())),
            ("walks".to_string(), Value::Uint(walk_snapshot.walks)),
            (
                "steps_legacy".to_string(),
                Value::Uint(walk_snapshot.steps_legacy),
            ),
            (
                "steps_alias".to_string(),
                Value::Uint(walk_snapshot.steps_alias),
            ),
            ("deaths".to_string(), Value::Uint(walk_snapshot.deaths)),
            ("meetings".to_string(), Value::Uint(walk_snapshot.meetings)),
            (
                "rows_patched".to_string(),
                Value::Uint(walk_snapshot.rows_patched),
            ),
            (
                "rows_base".to_string(),
                Value::Uint(walk_snapshot.rows_base),
            ),
            (
                "rows_instantiated".to_string(),
                Value::Uint(walk_snapshot.rows_instantiated),
            ),
            (
                "arena_invalidations".to_string(),
                Value::Uint(walk_snapshot.arena_invalidations),
            ),
            (
                "compactions".to_string(),
                Value::Uint(walk_snapshot.compactions),
            ),
        ];
        Ok(ok_value(
            "stats",
            epoch,
            vec![
                ("vertices".into(), Value::Uint(vertices as u64)),
                ("arcs".into(), Value::Uint(arcs as u64)),
                ("sampler".into(), Value::Str(sampler.as_str().to_string())),
                ("max_batch".into(), Value::Uint(self.max_batch as u64)),
                ("cache".into(), Value::Map(cache)),
                ("latency".into(), Value::Map(latency)),
                ("tracing".into(), Value::Map(tracing)),
                ("walks".into(), Value::Map(walks)),
                ("config".into(), config),
            ],
        ))
    }

    /// Serves the `metrics` frame: the Prometheus exposition body wrapped
    /// in a JSON envelope (scrapers preferring plain HTTP use
    /// `usim serve --metrics-port`, which serves the identical body).
    fn metrics_frame(&self, entries: &Entries) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "metrics", &[])?;
        let epoch = self.engine.update_epoch();
        Ok(ok_value(
            "metrics",
            epoch,
            vec![("body".into(), Value::Str(self.prometheus_exposition()))],
        ))
    }

    /// Serves the `slow_queries` frame: the tracer's ring of slowest traced
    /// requests, slowest first (empty when tracing is off).
    fn slow_queries(&self, entries: &Entries) -> Result<Value, Reject> {
        reject_unknown_fields(entries, "slow_queries", &[])?;
        let epoch = self.engine.update_epoch();
        let slow = match &self.tracer {
            Some(tracer) => tracer
                .slow_log()
                .snapshot()
                .into_iter()
                .map(|entry| {
                    let stages = Stage::ALL
                        .iter()
                        .zip(entry.stages_us.iter())
                        .map(|(stage, &us)| (stage.as_str().to_string(), Value::Uint(us)))
                        .collect();
                    Value::Map(vec![
                        ("trace_id".to_string(), Value::Uint(entry.trace_id)),
                        ("kind".to_string(), Value::Str(entry.kind.to_string())),
                        ("total_us".to_string(), Value::Uint(entry.total_us)),
                        ("stages_us".to_string(), Value::Map(stages)),
                    ])
                })
                .collect(),
            None => Vec::new(),
        };
        Ok(ok_value(
            "slow_queries",
            epoch,
            vec![
                (
                    "tracing".into(),
                    Value::Bool(self.tracer.as_ref().is_some_and(|t| t.enabled())),
                ),
                ("entries".into(), Value::Seq(slow)),
            ],
        ))
    }

    /// Renders every serving counter as a Prometheus text exposition
    /// (format 0.0.4): request counters, the end-to-end latency histogram,
    /// result-cache counters, the walk/engine counters, and —
    /// when tracing is enabled — one histogram series per pipeline stage.
    /// Served by the `metrics` frame and `usim serve --metrics-port`.
    pub fn prometheus_exposition(&self) -> String {
        let (epoch, vertices, arcs, walk_sets, two_hop_rows) = self.engine.with_read(|e| {
            (
                e.update_epoch(),
                e.num_vertices(),
                e.num_arcs(),
                e.walk_set_stats(),
                e.two_hop_row_stats(),
            )
        });
        let mut w = PromWriter::new();
        w.gauge(
            "usim_epoch",
            "Update epoch the engine is serving at.",
            epoch as f64,
        );
        w.gauge(
            "usim_vertices",
            "Vertices in the served graph.",
            vertices as f64,
        );
        w.gauge("usim_arcs", "Arcs in the served graph.", arcs as f64);
        let kinds: Vec<(&str, u64)> = RequestKind::ALL
            .iter()
            .map(|&kind| (kind.as_str(), self.metrics.requests_of(kind)))
            .collect();
        w.counter_family(
            "usim_requests_total",
            "Requests handled, by wire request type.",
            "kind",
            &kinds,
        );
        w.latency_histogram(
            "usim_request_duration_seconds",
            "End-to-end request latency (read to serialize; sum approximated from bucket bounds).",
            None,
            self.metrics.latency(),
        );
        if let Some(stats) = self.engine.cache_stats() {
            w.gauge(
                "usim_cache_entries",
                "Live result-cache entries.",
                stats.entries as f64,
            );
            w.counter_family(
                "usim_cache_events_total",
                "Result-cache events.",
                "event",
                &[
                    ("hit", stats.hits),
                    ("miss", stats.misses),
                    ("stale", stats.stale),
                    ("eviction", stats.evictions),
                    ("insertion", stats.insertions),
                ],
            );
        }
        if let (Some(memo), Some(rows)) = (walk_sets, two_hop_rows) {
            w.gauge(
                "usim_walk_set_entries",
                "Walk sets the walk-set memo keeps at the current epoch.",
                memo.entries as f64,
            );
            w.counter_family(
                "usim_walk_set_events_total",
                "Walk-set memo lookups, by outcome (a miss samples the set).",
                "event",
                &[("hit", memo.hits), ("miss", memo.misses)],
            );
            w.gauge(
                "usim_two_hop_row_entries",
                "Two-hop rows the walk-set memo keeps at the current epoch.",
                rows.entries as f64,
            );
            w.counter_family(
                "usim_two_hop_row_events_total",
                "Two-hop row lookups of exact m(2), by outcome (a miss scatters the row).",
                "event",
                &[("hit", rows.hits), ("miss", rows.misses)],
            );
            w.gauge_family(
                "usim_memory_bytes",
                "Bytes held, by structure (computed from lengths and capacities).",
                "structure",
                &[
                    ("walk_sets", memo.bytes as f64),
                    ("two_hop_rows", rows.bytes as f64),
                ],
            );
        }
        let walk = walk_metrics().snapshot();
        w.counter(
            "usim_walks_total",
            "Random walks simulated (two per sampled pair).",
            walk.walks,
        );
        w.counter_family(
            "usim_walk_steps_total",
            "Walk steps taken, by sampler backend.",
            "backend",
            &[("legacy", walk.steps_legacy), ("alias", walk.steps_alias)],
        );
        w.counter(
            "usim_walk_deaths_total",
            "Walks that died before the horizon.",
            walk.deaths,
        );
        w.counter(
            "usim_walk_meetings_total",
            "Walk pairs (any u-walk, any v-walk) at the same vertex after k sampled steps (k >= 3, or k >= 2 on a self-loop pair), summed over k.",
            walk.meetings,
        );
        w.counter_family(
            "usim_walk_row_reads_total",
            "Adjacency-row reads, by which layer served them.",
            "source",
            &[("patched", walk.rows_patched), ("base", walk.rows_base)],
        );
        w.counter(
            "usim_rows_instantiated_total",
            "Possible-world rows lazily instantiated by the legacy sampler.",
            walk.rows_instantiated,
        );
        w.counter(
            "usim_arena_invalidations_total",
            "Walk-arena invalidations after update epochs.",
            walk.arena_invalidations,
        );
        w.counter(
            "usim_compactions_total",
            "Delta-overlay compactions into a fresh CSR base.",
            walk.compactions,
        );
        if let Some(tracer) = &self.tracer {
            w.counter(
                "usim_traced_requests_total",
                "Requests that carried a stage trace.",
                tracer.traced(),
            );
            w.histogram_family(
                "usim_stage_duration_seconds",
                "Per-stage time of traced requests (sum approximated from bucket bounds).",
            );
            for stage in Stage::ALL {
                w.latency_histogram_series(
                    "usim_stage_duration_seconds",
                    Some(("stage", stage.as_str())),
                    tracer.stage_histogram(stage),
                );
            }
        }
        w.finish()
    }

    // -- helpers -----------------------------------------------------------

    fn resolve(&self, label: u64) -> Result<VertexId, Reject> {
        self.index.get(&label).copied().ok_or_else(|| {
            Reject::new(
                ErrorCode::UnknownVertex,
                format!("vertex {label} does not appear in the graph"),
            )
        })
    }

    fn check_batch_len(&self, len: usize, what: &str) -> Result<(), Reject> {
        if len > self.max_batch {
            return Err(Reject::new(
                ErrorCode::OversizedBatch,
                format!(
                    "{what} carries {len} entries, above this server's \
                     maximum of {} (split the request)",
                    self.max_batch
                ),
            ));
        }
        Ok(())
    }

    /// Parses one element of an `update` request's `updates` array:
    /// `{"op": "insert"|"delete"|"set", "source": U, "target": V
    /// [, "probability": P]}`, labels as everywhere else.
    fn parse_update(&self, item: &Value, i: usize) -> Result<GraphUpdate, Reject> {
        let entries = item.as_map().ok_or_else(|| {
            Reject::new(
                ErrorCode::BadField,
                format!(
                    "field `updates[{i}]`: expected an update object, found {}",
                    item.kind()
                ),
            )
        })?;
        let at = |name: &str| format!("updates[{i}].{name}");
        let op = match field(entries, "op") {
            Some(Value::Str(s)) => s.as_str(),
            Some(other) => {
                return Err(Reject::new(
                    ErrorCode::BadField,
                    format!(
                        "field `{}`: expected a string, found {}",
                        at("op"),
                        other.kind()
                    ),
                ))
            }
            None => {
                return Err(Reject::new(
                    ErrorCode::BadField,
                    format!("missing field `{}`", at("op")),
                ))
            }
        };
        let label = |name: &str| -> Result<VertexId, Reject> {
            let value = field(entries, name).ok_or_else(|| {
                Reject::new(ErrorCode::BadField, format!("missing field `{}`", at(name)))
            })?;
            self.resolve(expect_label(value, &at(name))?)
        };
        let probability = |fields: &'static [&'static str]| -> Result<f64, Reject> {
            reject_unknown_fields_at(entries, &format!("updates[{i}]"), fields)?;
            match field(entries, "probability") {
                Some(Value::Float(p)) => Ok(*p),
                Some(Value::Uint(n)) => Ok(*n as f64),
                // Negative integers are numbers too; let them reach the
                // engine's invalid-probability rejection like -0.5 does.
                Some(Value::Int(n)) => Ok(*n as f64),
                Some(other) => Err(Reject::new(
                    ErrorCode::BadField,
                    format!(
                        "field `{}`: expected a number, found {}",
                        at("probability"),
                        other.kind()
                    ),
                )),
                None => Err(Reject::new(
                    ErrorCode::BadField,
                    format!("missing field `{}`", at("probability")),
                )),
            }
        };
        match op {
            "insert" => Ok(GraphUpdate::InsertArc {
                source: label("source")?,
                target: label("target")?,
                probability: probability(&["op", "source", "target", "probability"])?,
            }),
            "delete" => {
                reject_unknown_fields_at(
                    entries,
                    &format!("updates[{i}]"),
                    &["op", "source", "target"],
                )?;
                Ok(GraphUpdate::DeleteArc {
                    source: label("source")?,
                    target: label("target")?,
                })
            }
            "set" => Ok(GraphUpdate::SetProbability {
                source: label("source")?,
                target: label("target")?,
                probability: probability(&["op", "source", "target", "probability"])?,
            }),
            other => Err(Reject::new(
                ErrorCode::BadField,
                format!(
                    "field `{}`: unknown op {other:?}; expected one of \
                     \"insert\", \"delete\", \"set\"",
                    at("op")
                ),
            )),
        }
    }

    /// Renders a rejected update in wire labels — the overlay speaks
    /// compact ids, clients speak labels (mirrors the CLI's rendering).
    fn describe_update_error(&self, error: &UpdateError) -> String {
        let label = |v: VertexId| self.labels[v as usize];
        match *error {
            UpdateError::InvalidProbability {
                source,
                target,
                probability,
            } => format!(
                "update of arc ({}, {}) carries invalid probability {probability}; \
                 probabilities must lie in (0, 1]",
                label(source),
                label(target)
            ),
            UpdateError::ArcAlreadyExists { source, target } => format!(
                "cannot insert arc ({}, {}): it already exists \
                 (use op \"set\" to re-weight it)",
                label(source),
                label(target)
            ),
            UpdateError::ArcNotFound { source, target } => {
                format!("arc ({}, {}) does not exist", label(source), label(target))
            }
            // Ids arrive through label resolution, so this cannot name a
            // label; fall back to the overlay's own message.
            UpdateError::VertexOutOfRange { .. } => error.to_string(),
        }
    }
}

// -- frame construction ----------------------------------------------------
//
// Handlers build JSON *trees*; serialisation happens exactly once, in
// `handle_line` (to a fresh `String`) or `handle_line_into` (appended to a
// reusable buffer) — the two spellings share one serialiser, so they are
// byte-identical by construction.

fn ok_value(rtype: &str, epoch: u64, payload: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("type".to_string(), Value::Str(rtype.to_string())),
        ("epoch".to_string(), Value::Uint(epoch)),
    ];
    entries.extend(payload);
    Value::Map(entries)
}

fn error_value(reject: &Reject) -> Value {
    Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "code".to_string(),
            Value::Str(reject.code.as_str().to_string()),
        ),
        ("message".to_string(), Value::Str(reject.message.clone())),
    ])
}

fn query_rejected(error: QueryError) -> Reject {
    Reject::new(ErrorCode::QueryRejected, error.to_string())
}

// -- field extraction ------------------------------------------------------

fn field<'a>(entries: &'a Entries, name: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
}

fn require_field<'a>(entries: &'a Entries, name: &str) -> Result<&'a Value, Reject> {
    field(entries, name)
        .ok_or_else(|| Reject::new(ErrorCode::BadField, format!("missing field `{name}`")))
}

/// A vertex label: any non-negative JSON integer.
fn expect_label(value: &Value, what: &str) -> Result<u64, Reject> {
    match value {
        Value::Uint(n) => Ok(*n),
        other => Err(Reject::new(
            ErrorCode::BadField,
            format!(
                "field `{what}`: expected a non-negative integer vertex label, found {}",
                other.kind()
            ),
        )),
    }
}

fn require_label(entries: &Entries, name: &str) -> Result<u64, Reject> {
    expect_label(require_field(entries, name)?, name)
}

fn require_usize(entries: &Entries, name: &str) -> Result<usize, Reject> {
    match require_field(entries, name)? {
        Value::Uint(n) => usize::try_from(*n).map_err(|_| {
            Reject::new(
                ErrorCode::BadField,
                format!("field `{name}`: {n} does not fit in usize"),
            )
        }),
        other => Err(Reject::new(
            ErrorCode::BadField,
            format!(
                "field `{name}`: expected a non-negative integer, found {}",
                other.kind()
            ),
        )),
    }
}

fn expect_seq<'a>(value: &'a Value, what: &str) -> Result<&'a [Value], Reject> {
    value.as_seq().ok_or_else(|| {
        Reject::new(
            ErrorCode::BadField,
            format!("field `{what}`: expected an array, found {}", value.kind()),
        )
    })
}

/// Rejects repeated keys: `field()` is first-occurrence-wins, so accepting
/// duplicates would silently ignore the later value — a confident wrong
/// answer instead of an error.
fn reject_duplicate_fields(
    entries: &Entries,
    describe: impl Fn(&str) -> String,
) -> Result<(), Reject> {
    for (i, (key, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(earlier, _)| earlier == key) {
            return Err(Reject::new(ErrorCode::BadField, describe(key)));
        }
    }
    Ok(())
}

fn reject_unknown_fields(entries: &Entries, rtype: &str, allowed: &[&str]) -> Result<(), Reject> {
    for (key, _) in entries {
        if key != "type" && !allowed.contains(&key.as_str()) {
            return Err(Reject::new(
                ErrorCode::BadField,
                format!("unknown field `{key}` for request type \"{rtype}\""),
            ));
        }
    }
    reject_duplicate_fields(entries, |key| {
        format!("duplicate field `{key}` for request type \"{rtype}\"")
    })
}

fn reject_unknown_fields_at(entries: &Entries, at: &str, allowed: &[&str]) -> Result<(), Reject> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(Reject::new(
                ErrorCode::BadField,
                format!("unknown field `{at}.{key}`"),
            ));
        }
    }
    reject_duplicate_fields(entries, |key| format!("duplicate field `{at}.{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::UncertainGraphBuilder;
    use usim_core::{QueryEngine, SimRankConfig};

    fn fig1_handler(max_batch: usize) -> (RequestHandler, QueryEngine) {
        // Fig. 1 graph under non-compact wire labels 10..=14: label
        // 10 + v maps to engine vertex v.
        let g = UncertainGraphBuilder::new(5)
            .arc(0, 2, 0.8)
            .arc(0, 3, 0.5)
            .arc(1, 0, 0.8)
            .arc(1, 2, 0.9)
            .arc(2, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 4, 0.6)
            .arc(3, 1, 0.8)
            .build()
            .unwrap();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let handler =
            RequestHandler::new(QueryEngine::new(&g, config), (10..15).collect(), max_batch);
        (handler, QueryEngine::new(&g, config))
    }

    fn parse(frame: &Frame) -> Vec<(String, Value)> {
        let value: Value = serde_json::from_str(&frame.json).unwrap();
        value.as_map().unwrap().to_vec()
    }

    fn get<'a>(entries: &'a [(String, Value)], name: &str) -> &'a Value {
        field(entries, name).unwrap_or_else(|| panic!("missing {name} in {entries:?}"))
    }

    fn float(entries: &[(String, Value)], name: &str) -> f64 {
        match get(entries, name) {
            Value::Float(x) => *x,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn similarity_round_trips_bit_identically() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        assert!(!frame.is_error);
        let entries = parse(&frame);
        assert_eq!(get(&entries, "ok"), &Value::Bool(true));
        assert_eq!(get(&entries, "epoch"), &Value::Uint(0));
        // The float survives the wire exactly: shortest-round-trip printing
        // parses back to the identical f64.
        assert_eq!(float(&entries, "score"), engine.similarity(0, 1));
    }

    #[test]
    fn profile_carries_meeting_vector_and_score() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler
            .handle_line(r#"{"type":"profile","source":12,"target":13}"#)
            .unwrap();
        let entries = parse(&frame);
        let expected = engine.profile(2, 3);
        let meeting: Vec<f64> = get(&entries, "meeting")
            .as_seq()
            .unwrap()
            .iter()
            .map(|v| match v {
                Value::Float(x) => *x,
                Value::Uint(n) => *n as f64,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(meeting, expected.meeting);
        assert_eq!(float(&entries, "decay"), expected.decay);
        assert_eq!(float(&entries, "score"), expected.score());
    }

    #[test]
    fn top_k_defaults_to_all_vertices_and_speaks_labels() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler
            .handle_line(r#"{"type":"top_k","source":11,"k":3}"#)
            .unwrap();
        let entries = parse(&frame);
        let expected = engine
            .batch_top_k_similar_to(1, &[0, 1, 2, 3, 4], 3)
            .unwrap();
        let results = get(&entries, "results").as_seq().unwrap().to_vec();
        assert_eq!(results.len(), expected.len());
        for (value, scored) in results.iter().zip(&expected) {
            let result = value.as_map().unwrap();
            assert_eq!(
                get(result, "vertex"),
                &Value::Uint(10 + scored.vertex as u64)
            );
            assert_eq!(float(result, "score"), scored.score);
        }
        // Explicit candidate list, still in labels.
        let frame = handler
            .handle_line(r#"{"type":"top_k","source":11,"k":2,"candidates":[10,12,14]}"#)
            .unwrap();
        let entries = parse(&frame);
        let expected = engine.batch_top_k_similar_to(1, &[0, 2, 4], 2).unwrap();
        let results = get(&entries, "results").as_seq().unwrap();
        assert_eq!(results.len(), expected.len());
    }

    #[test]
    fn batch_matches_the_engine_in_input_order() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler
            .handle_line(r#"{"type":"batch","pairs":[[10,11],[11,12],[12,13]]}"#)
            .unwrap();
        let entries = parse(&frame);
        let scores: Vec<f64> = get(&entries, "scores")
            .as_seq()
            .unwrap()
            .iter()
            .map(|v| match v {
                Value::Float(x) => *x,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            scores,
            engine
                .batch_similarities(&[(0, 1), (1, 2), (2, 3)])
                .unwrap()
        );
    }

    #[test]
    fn update_applies_atomically_and_bumps_the_epoch() {
        let (handler, mut engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler
            .handle_line(
                r#"{"type":"update","updates":[
                    {"op":"delete","source":11,"target":12},
                    {"op":"insert","source":14,"target":12,"probability":0.9},
                    {"op":"set","source":10,"target":12,"probability":0.05}]}"#,
            )
            .unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        let entries = parse(&frame);
        assert_eq!(get(&entries, "epoch"), &Value::Uint(1));
        assert_eq!(get(&entries, "inserted"), &Value::Uint(1));
        assert_eq!(get(&entries, "deleted"), &Value::Uint(1));
        assert_eq!(get(&entries, "reweighted"), &Value::Uint(1));
        assert_eq!(get(&entries, "compacted"), &Value::Bool(false));

        // Post-update answers equal an engine that applied the same batch.
        engine
            .apply_updates(&[
                GraphUpdate::DeleteArc {
                    source: 1,
                    target: 2,
                },
                GraphUpdate::InsertArc {
                    source: 4,
                    target: 2,
                    probability: 0.9,
                },
                GraphUpdate::SetProbability {
                    source: 0,
                    target: 2,
                    probability: 0.05,
                },
            ])
            .unwrap();
        let frame = handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        let entries = parse(&frame);
        assert_eq!(get(&entries, "epoch"), &Value::Uint(1));
        assert_eq!(float(&entries, "score"), engine.similarity(0, 1));
    }

    #[test]
    fn rejected_updates_leave_the_graph_untouched() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let before = {
            let frame = handler
                .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
                .unwrap();
            float(&parse(&frame), "score")
        };
        // Second update of the batch names a missing arc -> whole batch out.
        let frame = handler
            .handle_line(
                r#"{"type":"update","updates":[
                    {"op":"set","source":10,"target":12,"probability":0.5},
                    {"op":"delete","source":10,"target":14}]}"#,
            )
            .unwrap();
        assert!(frame.is_error);
        let entries = parse(&frame);
        assert_eq!(get(&entries, "code"), &Value::Str("update_rejected".into()));
        assert!(
            get(&entries, "message")
                .as_str()
                .unwrap()
                .contains("arc (10, 14) does not exist"),
            "{}",
            frame.json
        );
        let frame = handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        let entries = parse(&frame);
        assert_eq!(get(&entries, "epoch"), &Value::Uint(0));
        assert_eq!(float(&entries, "score"), before);
        assert_eq!(engine.similarity(0, 1), before);
    }

    #[test]
    fn stats_reports_graph_and_config() {
        let (handler, engine) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler.handle_line(r#"{"type":"stats"}"#).unwrap();
        let entries = parse(&frame);
        assert_eq!(get(&entries, "vertices"), &Value::Uint(5));
        assert_eq!(get(&entries, "arcs"), &Value::Uint(8));
        // The sampler backend is a top-level field (dashboards and smoke
        // scripts read it without digging into the config object) *and*
        // appears inside the serialized config.
        assert_eq!(get(&entries, "sampler"), &Value::Str("legacy".to_string()));
        let config = get(&entries, "config").as_map().unwrap();
        assert_eq!(
            get(config, "num_samples"),
            &Value::Uint(engine.config().num_samples as u64)
        );
        assert_eq!(get(config, "seed"), &Value::Uint(7));
        assert_eq!(get(config, "sampler"), &Value::Str("Legacy".to_string()));
        // Cache off by default: the stats frame says so and carries no
        // counters.
        let cache = get(&entries, "cache").as_map().unwrap();
        assert_eq!(get(cache, "enabled"), &Value::Bool(false));
        assert_eq!(get(cache, "capacity"), &Value::Uint(0));
        assert!(field(cache, "hits").is_none());
    }

    #[test]
    fn cached_handler_serves_bit_identical_answers_and_reports_counters() {
        // Two handlers over the same graph/config: one cached, one not.
        // Every frame must be byte-identical between them, repeat-asks
        // must hit, and an update must invalidate by epoch.
        let (plain, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let g = UncertainGraphBuilder::new(5)
            .arc(0, 2, 0.8)
            .arc(0, 3, 0.5)
            .arc(1, 0, 0.8)
            .arc(1, 2, 0.9)
            .arc(2, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 4, 0.6)
            .arc(3, 1, 0.8)
            .build()
            .unwrap();
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = RequestHandler::with_cache(
            QueryEngine::new(&g, config),
            (10..15).collect(),
            DEFAULT_MAX_BATCH,
            512,
        );
        let frames = [
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"profile","source":12,"target":13}"#,
            r#"{"type":"batch","pairs":[[10,11],[11,12],[10,11]]}"#,
            r#"{"type":"top_k","source":11,"k":3}"#,
            r#"{"type":"update","updates":[{"op":"set","source":10,"target":12,"probability":0.05}]}"#,
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"batch","pairs":[[10,11],[11,12],[10,11]]}"#,
        ];
        for frame in frames {
            // Ask the cached handler twice (fill, then hit); both answers
            // and the uncached answer must be byte-identical.  (Update
            // frames are only sent once — they mutate.)
            let expected = plain.handle_line(frame).unwrap();
            let first = cached.handle_line(frame).unwrap();
            assert_eq!(first, expected, "{frame}");
            if !frame.contains("update") {
                assert_eq!(cached.handle_line(frame).unwrap(), expected, "{frame}");
            }
        }
        let stats = cached.cached_engine().cache_stats().unwrap();
        assert!(stats.hits > 0, "{stats:?}");
        assert!(
            stats.stale > 0,
            "post-update re-asks find stale entries: {stats:?}"
        );
        // The wire stats frame carries the same counters.
        let frame = cached.handle_line(r#"{"type":"stats"}"#).unwrap();
        let entries = parse(&frame);
        let cache = get(&entries, "cache").as_map().unwrap();
        assert_eq!(get(cache, "enabled"), &Value::Bool(true));
        assert_eq!(get(cache, "capacity"), &Value::Uint(512));
        assert_eq!(get(cache, "hits"), &Value::Uint(stats.hits));
        assert_eq!(get(cache, "stale"), &Value::Uint(stats.stale));
        assert!(matches!(get(cache, "misses"), Value::Uint(_)));
        assert!(matches!(get(cache, "evictions"), Value::Uint(_)));
        // So does the walk-set memo: the batch and top_k frames read sets
        // the earlier frames sampled.
        let memo = cached
            .cached_engine()
            .with_read(QueryEngine::walk_set_stats)
            .unwrap();
        assert!(memo.hits > 0 && memo.misses > 0, "{memo:?}");
        assert!(memo.entries > 0 && memo.bytes > 0, "{memo:?}");
        assert_eq!(
            get(cache, "walk_set_entries"),
            &Value::Uint(memo.entries as u64)
        );
        assert_eq!(
            get(cache, "walk_set_bytes"),
            &Value::Uint(memo.bytes as u64)
        );
        assert_eq!(get(cache, "walk_set_hits"), &Value::Uint(memo.hits));
        assert_eq!(get(cache, "walk_set_misses"), &Value::Uint(memo.misses));
        // And its two-hop rows: every exact m(2) looked one up.
        let rows = cached
            .cached_engine()
            .with_read(QueryEngine::two_hop_row_stats)
            .unwrap();
        assert!(rows.hits + rows.misses > 0, "{rows:?}");
        assert_eq!(
            get(cache, "two_hop_row_entries"),
            &Value::Uint(rows.entries as u64)
        );
        assert_eq!(
            get(cache, "two_hop_row_bytes"),
            &Value::Uint(rows.bytes as u64)
        );
        assert_eq!(get(cache, "two_hop_row_hits"), &Value::Uint(rows.hits));
        assert_eq!(get(cache, "two_hop_row_misses"), &Value::Uint(rows.misses));
    }

    #[test]
    fn disjoint_updates_leave_cached_entries_stale_on_the_wire() {
        // In fig1 vertex 4 (label 14) has no out-arcs, so reverse walks
        // never *reach* it — a self-loop insert there cannot change any
        // cached answer, yet the epoch bump still drops all of them.
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = RequestHandler::with_cache(
            QueryEngine::new(&fig1_graph(), config),
            (10..15).collect(),
            DEFAULT_MAX_BATCH,
            512,
        );
        let ask = r#"{"type":"batch","pairs":[[10,11],[11,12],[12,13]]}"#;
        let before = cached.handle_line(ask).unwrap();
        cached
            .handle_line(
                r#"{"type":"update","updates":[{"op":"insert","source":14,"target":14,"probability":0.5}]}"#,
            )
            .unwrap();
        // The repeat ask recomputes every pair; the scores are unchanged
        // (the frame differs only in its epoch stamp).
        let stats = cached.cached_engine().cache_stats().unwrap();
        let after = cached.handle_line(ask).unwrap();
        let now = cached.cached_engine().cache_stats().unwrap();
        assert_eq!(
            (now.stale - stats.stale, now.hits - stats.hits),
            (3, 0),
            "every entry reads as stale after an update: {now:?}"
        );
        let scores_of = |frame: &Frame| {
            parse(frame)
                .iter()
                .find(|(k, _)| k == "scores")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(scores_of(&after), scores_of(&before));
        // And the wire stats frame reports the stale lookups.
        let frame = cached.handle_line(r#"{"type":"stats"}"#).unwrap();
        let entries = parse(&frame);
        let cache = get(&entries, "cache").as_map().unwrap();
        assert_eq!(get(cache, "stale"), &Value::Uint(3));
        assert_eq!(get(cache, "hits"), &Value::Uint(0));
    }

    #[test]
    fn cache_traffic_per_frame_is_pinned() {
        // The exact cache probes each query frame makes, as
        // (hits, misses, stale, insertions) deltas: every kind twice (fill,
        // then hit), an update, then every kind once more (stale, except
        // pairs an earlier frame has already refreshed).
        // The batch repeats a pair inside the frame and shares one with the
        // similarity frame; top_k's candidate pairs overlap the batch's (keys
        // are unordered, so (11,10) is (10,11)'s entry).
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let cached = RequestHandler::with_cache(
            QueryEngine::new(&fig1_graph(), config),
            (10..15).collect(),
            DEFAULT_MAX_BATCH,
            512,
        );
        let queries = [
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"profile","source":12,"target":13}"#,
            r#"{"type":"batch","pairs":[[10,11],[11,12],[10,11]]}"#,
            r#"{"type":"top_k","source":11,"k":3}"#,
        ];
        let update = r#"{"type":"update","updates":[{"op":"set","source":10,"target":12,"probability":0.05}]}"#;
        let sent: Vec<&str> = queries
            .iter()
            .flat_map(|&q| [q, q])
            .chain([update])
            .chain(queries)
            .collect();
        let counters = || {
            let s = cached.cached_engine().cache_stats().unwrap();
            [s.hits, s.misses, s.stale, s.insertions]
        };
        let deltas: Vec<[u64; 4]> = sent
            .iter()
            .map(|frame| {
                let before = counters();
                assert!(!cached.handle_line(frame).unwrap().is_error, "{frame}");
                let after = counters();
                std::array::from_fn(|i| after[i] - before[i])
            })
            .collect();
        #[rustfmt::skip]
        let expected: Vec<[u64; 4]> = vec![
            [0, 1, 0, 1], [1, 0, 0, 0], // similarity: fill, hit
            [0, 1, 0, 1], [1, 0, 0, 0], // profile: fill, hit
            [2, 1, 0, 1], [3, 0, 0, 0], // batch: (10,11) hits twice, one insert
            [2, 2, 0, 2], [4, 0, 0, 0], // top_k: (11,10) and (11,12) hit from the batch
            [0, 0, 0, 0],               // update: no cache traffic
            [0, 0, 1, 1],               // similarity: stale, refreshed
            [0, 0, 1, 1],               // profile: stale, refreshed
            [2, 0, 1, 1],               // batch: (10,11) refreshed just above
            [2, 0, 2, 2],               // top_k: (11,10) and (11,12) refreshed just above
        ];
        assert_eq!(deltas, expected);
    }

    fn fig1_graph() -> ugraph::UncertainGraph {
        UncertainGraphBuilder::new(5)
            .arc(0, 2, 0.8)
            .arc(0, 3, 0.5)
            .arc(1, 0, 0.8)
            .arc(1, 2, 0.9)
            .arc(2, 0, 0.7)
            .arc(2, 3, 0.6)
            .arc(3, 4, 0.6)
            .arc(3, 1, 0.8)
            .build()
            .unwrap()
    }

    #[test]
    fn update_log_replay_restores_the_exact_epoch_and_answers() {
        let path =
            std::env::temp_dir().join(format!("usim_server_ulog_{}.ulog", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = SimRankConfig::default().with_samples(150).with_seed(7);
        let queries = [
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"batch","pairs":[[10,14],[11,12],[13,10]]}"#,
            r#"{"type":"top_k","source":11,"k":3}"#,
        ];

        // First life: serve with a log attached, apply two update rounds.
        let (log, rounds) = UpdateLog::open(&path).unwrap();
        assert!(rounds.is_empty());
        let live = RequestHandler::new(
            QueryEngine::new(&fig1_graph(), config),
            (10..15).collect(),
            DEFAULT_MAX_BATCH,
        )
        .with_update_log(log);
        for update in [
            r#"{"type":"update","updates":[{"op":"set","source":10,"target":12,"probability":0.05}]}"#,
            r#"{"type":"update","updates":[
                {"op":"delete","source":11,"target":12},
                {"op":"insert","source":14,"target":12,"probability":0.9}]}"#,
        ] {
            let frame = live.handle_line(update).unwrap();
            assert!(!frame.is_error, "{}", frame.json);
        }
        assert_eq!(live.cached_engine().update_epoch(), 2);
        let answers: Vec<Frame> = queries
            .iter()
            .map(|q| live.handle_line(q).unwrap())
            .collect();
        drop(live); // "kill" the server

        // Second life: reopen the log, replay every round, serve again.
        let (log, rounds) = UpdateLog::open(&path).unwrap();
        assert_eq!(rounds.len(), 2);
        let reborn = RequestHandler::new(
            QueryEngine::new(&fig1_graph(), config),
            (10..15).collect(),
            DEFAULT_MAX_BATCH,
        )
        .with_update_log(log);
        for round in &rounds {
            // Replayed rounds are already in the log; apply them directly
            // to the engine, exactly like the serve boot path does.
            reborn.cached_engine().apply_updates(round).unwrap();
        }
        assert_eq!(reborn.cached_engine().update_epoch(), 2);
        for (query, expected) in queries.iter().zip(&answers) {
            assert_eq!(&reborn.handle_line(query).unwrap(), expected, "{query}");
        }
        // The reborn log still appends: a third round lands as round 3.
        let frame = reborn
            .handle_line(r#"{"type":"update","updates":[{"op":"delete","source":10,"target":13}]}"#)
            .unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        drop(reborn);
        let (_, rounds) = UpdateLog::open(&path).unwrap();
        assert_eq!(rounds.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn blank_lines_are_free_keepalives() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        assert_eq!(handler.handle_line(""), None);
        assert_eq!(handler.handle_line("   \t "), None);
    }

    #[test]
    fn error_taxonomy_is_typed_and_field_precise() {
        let (handler, _) = fig1_handler(4);
        let code_of = |line: &str, needle: &str| -> String {
            let frame = handler.handle_line(line).unwrap();
            assert!(frame.is_error, "{line} should be rejected: {}", frame.json);
            let entries = parse(&frame);
            let message = get(&entries, "message").as_str().unwrap().to_string();
            assert!(
                message.contains(needle),
                "{line}: message {message:?} misses {needle:?}"
            );
            get(&entries, "code").as_str().unwrap().to_string()
        };
        // Malformed JSON, non-object frames, missing / mistyped type.
        assert_eq!(code_of("{oops", "invalid JSON"), "malformed_frame");
        assert_eq!(
            code_of("[1,2]", "expected a JSON object"),
            "malformed_frame"
        );
        assert_eq!(
            code_of(r#"{"source":10}"#, "missing field `type`"),
            "malformed_frame"
        );
        assert_eq!(
            code_of(r#"{"type":7}"#, "expected a string"),
            "malformed_frame"
        );
        // Unknown request type.
        assert_eq!(
            code_of(r#"{"type":"similarities"}"#, "\"similarities\""),
            "unknown_request_type"
        );
        // Field-level problems name the field.
        assert_eq!(
            code_of(
                r#"{"type":"similarity","source":10}"#,
                "missing field `target`"
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"similarity","source":"x","target":11}"#,
                "field `source`"
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"similarity","source":10,"target":11,"bogus":1}"#,
                "unknown field `bogus`"
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"batch","pairs":[[10,11],[10]]}"#,
                "field `pairs[1]`"
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"update","updates":[{"op":"warp","source":10,"target":11}]}"#,
                "unknown op \"warp\""
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"update","updates":[{"op":"insert","source":10,"target":11}]}"#,
                "missing field `updates[0].probability`"
            ),
            "bad_field"
        );
        // Unknown labels.
        assert_eq!(
            code_of(
                r#"{"type":"similarity","source":10,"target":99}"#,
                "vertex 99 does not appear"
            ),
            "unknown_vertex"
        );
        // Oversized batch (handler built with max_batch = 4).
        assert_eq!(
            code_of(
                r#"{"type":"batch","pairs":[[10,11],[10,12],[10,13],[10,14],[11,12]]}"#,
                "maximum of 4"
            ),
            "oversized_batch"
        );
        // Duplicate keys would be silently first-wins (a confident wrong
        // answer for the client that meant the second value); reject them.
        assert_eq!(
            code_of(
                r#"{"type":"similarity","source":10,"source":12,"target":11}"#,
                "duplicate field `source`"
            ),
            "bad_field"
        );
        assert_eq!(
            code_of(
                r#"{"type":"update","updates":[{"op":"set","source":10,"target":12,"probability":0.5,"probability":0.9}]}"#,
                "duplicate field `updates[0].probability`"
            ),
            "bad_field"
        );
        // The implicit all-vertices top_k candidate set (5 vertices) is
        // subject to the same cap as an explicit list.
        assert_eq!(
            code_of(
                r#"{"type":"top_k","source":10,"k":1}"#,
                "implicit all-vertices candidate set"
            ),
            "oversized_batch"
        );
        // A negative integer probability is a number: it reaches the
        // engine's typed invalid-probability rejection, like -0.5 does.
        assert_eq!(
            code_of(
                r#"{"type":"update","updates":[{"op":"set","source":10,"target":12,"probability":-1}]}"#,
                "probabilities must lie in (0, 1]"
            ),
            "update_rejected"
        );
    }

    #[test]
    fn handle_line_into_writes_the_same_bytes_without_a_string() {
        // Two identically-built handlers (so metric counters — which the
        // stats frame serialises — advance in lockstep): the buffer writer
        // must produce exactly `handle_line(..).json + "\n"`.
        let (buffered, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let (stringly, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let mut out = BytesMut::with_capacity(64);
        for line in [
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"batch","pairs":[[10,11],[11,12]]}"#,
            r#"{"type":"top_k","source":11,"k":2}"#,
            "   ",
            "{oops",
            r#"{"type":"stats"}"#,
        ] {
            out.clear();
            let meta = buffered.handle_line_into(line, &mut out);
            match stringly.handle_line(line) {
                None => {
                    assert_eq!(meta, None, "{line}");
                    assert!(out.is_empty(), "{line}");
                }
                Some(frame) => {
                    assert_eq!(meta.unwrap().is_error, frame.is_error, "{line}");
                    let mut expected = frame.json.into_bytes();
                    expected.push(b'\n');
                    assert_eq!(&out[..], &expected[..], "{line}");
                }
            }
        }
        assert!(!out.is_empty(), "the last response stayed in the buffer");
    }

    #[test]
    fn concurrent_requests_answer_like_a_sequential_handler() {
        let (shared, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let (plain, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let lines = [
            r#"{"type":"similarity","source":10,"target":11}"#,
            r#"{"type":"batch","pairs":[[10,11],[12,13]]}"#,
            r#"{"type":"similarity","source":12,"target":13}"#,
        ];
        // Three threads ask one handler concurrently, several rounds: every
        // answer must equal a handler that saw each line alone.
        std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .iter()
                .map(|line| {
                    let shared = &shared;
                    scope.spawn(move || {
                        (0..8)
                            .map(|_| shared.handle_line(line).unwrap())
                            .collect::<Vec<Frame>>()
                    })
                })
                .collect();
            for (line, handle) in lines.iter().zip(handles) {
                let expected = plain.handle_line(line).unwrap();
                for frame in handle.join().unwrap() {
                    assert_eq!(frame, expected, "{line}");
                }
            }
        });
        assert_eq!(shared.metrics().requests_of(RequestKind::Similarity), 16);
        assert_eq!(shared.metrics().requests_of(RequestKind::Batch), 8);
    }

    #[test]
    fn stats_reports_the_latency_section() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        let malformed = handler.handle_line("{oops").unwrap();
        assert!(malformed.is_error);
        // The transport records latencies; stand in for it here.
        handler
            .metrics()
            .latency()
            .record(std::time::Duration::from_micros(300));
        let entries = parse(&handler.handle_line(r#"{"type":"stats"}"#).unwrap());
        let latency = get(&entries, "latency").as_map().unwrap();
        assert_eq!(get(latency, "count"), &Value::Uint(1));
        // One 300µs sample: every percentile reports its bucket's upper
        // bound, 512µs.
        assert_eq!(get(latency, "p50_us"), &Value::Uint(512));
        assert_eq!(get(latency, "p99_us"), &Value::Uint(512));
        let requests = get(latency, "requests").as_map().unwrap();
        assert_eq!(get(requests, "similarity"), &Value::Uint(1));
        assert_eq!(get(requests, "invalid"), &Value::Uint(1));
        // The stats frame counts itself (dispatch-time counting).
        assert_eq!(get(requests, "stats"), &Value::Uint(1));
        assert_eq!(get(requests, "update"), &Value::Uint(0));
    }

    #[test]
    fn stats_reports_tracing_and_walk_sections_zeroed_without_a_tracer() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let entries = parse(&handler.handle_line(r#"{"type":"stats"}"#).unwrap());
        let tracing = get(&entries, "tracing").as_map().unwrap();
        assert_eq!(get(tracing, "enabled"), &Value::Bool(false));
        assert_eq!(get(tracing, "sample_every"), &Value::Uint(0));
        assert_eq!(get(tracing, "traced"), &Value::Uint(0));
        // The stage list is always present (zeroed) so dashboards need no
        // schema branching on whether tracing is on.
        let stages = get(tracing, "stages").as_seq().unwrap();
        assert_eq!(stages.len(), usim_obs::Stage::ALL.len());
        let first = stages[0].as_map().unwrap();
        assert_eq!(get(first, "stage"), &Value::Str("parse".to_string()));
        assert_eq!(get(first, "count"), &Value::Uint(0));
        let walks = get(&entries, "walks").as_map().unwrap();
        assert!(field(walks, "walks").is_some());
    }

    #[test]
    fn traced_stats_count_stages_and_slow_queries_report_them() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let handler = handler.with_tracing(1.0, 4);
        handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        handler
            .handle_line(r#"{"type":"batch","pairs":[[10,14],[11,12]]}"#)
            .unwrap();

        let entries = parse(&handler.handle_line(r#"{"type":"stats"}"#).unwrap());
        let tracing = get(&entries, "tracing").as_map().unwrap();
        assert_eq!(get(tracing, "enabled"), &Value::Bool(true));
        assert_eq!(get(tracing, "sample_every"), &Value::Uint(1));
        assert_eq!(get(tracing, "traced"), &Value::Uint(2));
        let stages = get(tracing, "stages").as_seq().unwrap();
        let walk_sample = stages
            .iter()
            .map(|s| s.as_map().unwrap())
            .find(|s| get(s, "stage") == &Value::Str("walk_sample".to_string()))
            .expect("walk_sample stage present");
        assert_eq!(get(walk_sample, "count"), &Value::Uint(2));

        let frame = handler.handle_line(r#"{"type":"slow_queries"}"#).unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        let entries = parse(&frame);
        assert_eq!(get(&entries, "tracing"), &Value::Bool(true));
        let slow = get(&entries, "entries").as_seq().unwrap();
        // Both queries plus the stats frame itself were traced; the log
        // keeps them slowest-first.
        assert_eq!(slow.len(), 3);
        let mut previous = u64::MAX;
        for entry in slow {
            let entry = entry.as_map().unwrap();
            let total = match get(entry, "total_us") {
                Value::Uint(n) => *n,
                other => panic!("total_us: {other:?}"),
            };
            assert!(total <= previous, "slow log must be slowest-first");
            previous = total;
            let stages = get(entry, "stages_us").as_map().unwrap();
            assert_eq!(stages.len(), usim_obs::Stage::ALL.len());
            let stage_sum: u64 = stages
                .iter()
                .map(|(_, v)| match v {
                    Value::Uint(n) => *n,
                    other => panic!("stage value: {other:?}"),
                })
                .sum();
            assert!(
                stage_sum <= total,
                "stage sum {stage_sum}us > total {total}us"
            );
        }
    }

    #[test]
    fn slow_queries_without_tracing_is_empty_not_an_error() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let frame = handler.handle_line(r#"{"type":"slow_queries"}"#).unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        let entries = parse(&frame);
        assert_eq!(get(&entries, "tracing"), &Value::Bool(false));
        assert!(get(&entries, "entries").as_seq().unwrap().is_empty());
    }

    #[test]
    fn metrics_frame_wraps_the_prometheus_exposition() {
        let (handler, _) = fig1_handler(DEFAULT_MAX_BATCH);
        let handler = handler.with_tracing(1.0, 4);
        handler
            .handle_line(r#"{"type":"similarity","source":10,"target":11}"#)
            .unwrap();
        let frame = handler.handle_line(r#"{"type":"metrics"}"#).unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        let entries = parse(&frame);
        let body = get(&entries, "body").as_str().unwrap();
        for needle in [
            "# TYPE usim_requests_total counter",
            "usim_requests_total{kind=\"similarity\"} 1",
            "# TYPE usim_request_duration_seconds histogram",
            "usim_request_duration_seconds_bucket{le=\"+Inf\"}",
            "usim_epoch 0",
            "usim_traced_requests_total",
            "usim_stage_duration_seconds_bucket{stage=\"walk_sample\"",
        ] {
            assert!(body.contains(needle), "missing {needle} in:\n{body}");
        }
        // Rejects stray fields like every other frame.
        let frame = handler
            .handle_line(r#"{"type":"metrics","verbose":true}"#)
            .unwrap();
        assert!(frame.is_error, "{}", frame.json);
        let frame = handler
            .handle_line(r#"{"type":"slow_queries","limit":5}"#)
            .unwrap();
        assert!(frame.is_error, "{}", frame.json);
    }

    #[test]
    fn implicit_top_k_candidates_fit_under_a_large_enough_cap() {
        // max_batch = 5 == num_vertices: the implicit set is exactly at the
        // cap and must be accepted.
        let (handler, engine) = fig1_handler(5);
        let frame = handler
            .handle_line(r#"{"type":"top_k","source":11,"k":2}"#)
            .unwrap();
        assert!(!frame.is_error, "{}", frame.json);
        let entries = parse(&frame);
        let expected = engine
            .batch_top_k_similar_to(1, &[0, 1, 2, 3, 4], 2)
            .unwrap();
        assert_eq!(
            get(&entries, "results").as_seq().unwrap().len(),
            expected.len()
        );
    }
}
