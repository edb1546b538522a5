//! The threaded TCP transport: accept loop, bounded job queue, workers.
//!
//! The topology is deliberately boring `std::net` + `std::thread`:
//!
//! ```text
//! accept loop ──sync_channel(queue_depth)──▶ worker 0 ─┐
//!   (listener)                              worker 1 ──┼──▶ RequestHandler
//!                                           …          │    (CachedQueryEngine)
//!                                           worker N-1 ┘
//! ```
//!
//! The accept loop pushes whole connections into a **bounded** queue
//! ([`std::sync::mpsc::sync_channel`]); when every worker is busy and the
//! queue is full, `send` blocks the accept loop — backpressure lands on the
//! TCP accept backlog instead of growing an unbounded buffer.  Each worker
//! serves its connection line by line until the client disconnects:
//! queries take the engine's read lock (any number run concurrently, across
//! workers), `update` frames take the write lock and bump the epoch, so a
//! client interleaving updates and queries on one connection observes its
//! own writes, and other connections observe the epoch change.
//!
//! Nothing here panics on client input: every malformed frame becomes a
//! typed error line (see [`crate::protocol`]) and the connection stays up.

use crate::protocol::RequestHandler;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Transport tuning of one [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded job-queue depth between the accept loop and the workers.
    pub queue_depth: usize,
    /// Stop after accepting this many connections (`None`: serve forever;
    /// `Some(0)`: accept nothing and return immediately).  This is how
    /// tests and smoke scripts get a clean, joinable shutdown.
    pub max_connections: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
            queue_depth: 64,
            max_connections: None,
        }
    }
}

/// Counters reported when a server run ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections: usize,
    /// Response frames written (one per non-blank request line).
    pub frames: u64,
    /// How many of those frames were `"ok": false` errors.
    pub errors: u64,
}

/// A bound, not-yet-running query server.
///
/// [`Server::run`] serves on the calling thread until the connection budget
/// is exhausted; [`Server::spawn`] serves on a background thread and returns
/// a [`ServerHandle`] for shutdown — which is what the tests and the bench
/// harness use:
///
/// ```
/// use std::io::{BufRead, BufReader, Write};
/// use ugraph::UncertainGraphBuilder;
/// use usim_core::{QueryEngine, SimRankConfig};
/// use usim_server::{RequestHandler, Server, ServerOptions};
///
/// let g = UncertainGraphBuilder::new(3)
///     .arc(2, 0, 0.9)
///     .arc(2, 1, 0.8)
///     .build()
///     .unwrap();
/// let handler = RequestHandler::new(
///     QueryEngine::new(&g, SimRankConfig::default().with_samples(50)),
///     (0..3).collect(),
///     1024,
/// );
/// let server = Server::bind("127.0.0.1:0", handler, ServerOptions::default()).unwrap();
/// let addr = server.local_addr();
/// let handle = server.spawn();
///
/// let mut conn = std::net::TcpStream::connect(addr).unwrap();
/// writeln!(conn, r#"{{"type":"similarity","source":0,"target":1}}"#).unwrap();
/// let mut line = String::new();
/// BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
/// assert!(line.contains("\"ok\":true"));
/// drop(conn);
///
/// let stats = handle.shutdown().unwrap();
/// assert_eq!(stats.connections, 1);
/// assert_eq!(stats.frames, 1);
/// ```
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    handler: Arc<RequestHandler>,
    options: ServerOptions,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`; port `0` picks a free port)
    /// without accepting anything yet.
    pub fn bind(
        addr: &str,
        handler: RequestHandler,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            handler: Arc::new(handler),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// A shared handle to the request handler — what the Prometheus
    /// exporter ([`crate::exporter`]) scrapes while the server runs.
    pub fn handler(&self) -> Arc<RequestHandler> {
        Arc::clone(&self.handler)
    }

    /// Serves on the calling thread: spawns the workers, runs the accept
    /// loop, and returns the final counters once the connection budget is
    /// exhausted (or a [`ServerHandle::shutdown`] woke the loop).  Workers
    /// finish serving their in-flight connections before this returns.
    pub fn run(self) -> std::io::Result<ServerStats> {
        // A zero connection budget means "serve nothing", not "serve
        // forever" (the loop below checks the budget only after accepting).
        if self.options.max_connections == Some(0) {
            return Ok(ServerStats::default());
        }
        let workers = self.options.workers.max(1);
        let queue_depth = self.options.queue_depth.max(1);
        // Connections are stamped at accept so the worker that picks one up
        // can credit the queue wait to the first frame's stage trace.
        let (sender, receiver) = mpsc::sync_channel::<(TcpStream, Instant)>(queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let frames = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));

        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let receiver = Arc::clone(&receiver);
            let handler = Arc::clone(&self.handler);
            let frames = Arc::clone(&frames);
            let errors = Arc::clone(&errors);
            joins.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only for the pop, not while
                // serving: other workers keep draining the queue.
                let next = receiver.lock().recv();
                match next {
                    Ok((stream, accepted)) => {
                        serve_connection(stream, accepted, &handler, &frames, &errors)
                    }
                    Err(_) => break, // accept loop dropped the sender
                }
            }));
        }

        let mut connections = 0usize;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break; // the waker connection is dropped unserved
            }
            let Ok(stream) = stream else {
                // Accept errors (EMFILE under fd exhaustion, ECONNABORTED)
                // can persist; back off briefly instead of spinning hot.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            };
            connections += 1;
            if sender.send((stream, Instant::now())).is_err() {
                break;
            }
            if Some(connections) == self.options.max_connections {
                break;
            }
        }
        drop(sender);
        for join in joins {
            let _ = join.join();
        }
        Ok(ServerStats {
            connections,
            frames: frames.load(Ordering::SeqCst),
            errors: errors.load(Ordering::SeqCst),
        })
    }

    /// Runs the accept loop on a background thread; shut it down (and
    /// collect the counters) through the returned [`ServerHandle`].
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// A running background server (see [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight connections to drain, and
    /// returns the final counters.  Connections still open keep being
    /// served until their clients disconnect, so close clients first.
    pub fn shutdown(self) -> std::io::Result<ServerStats> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; if that
        // fails the listener is already gone and the loop has exited.
        let _ = TcpStream::connect(self.addr);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Serves one connection line by line until EOF or an I/O error.  Client
/// input can only produce error *frames*; it never tears the worker down.
///
/// Responses are serialised straight into a per-connection scratch buffer
/// ([`RequestHandler::handle_line_into`]) that is cleared — not freed —
/// between frames, so steady-state serving performs no per-request
/// allocation; and every served frame's read→serialize latency lands in
/// the handler's histogram, surfaced by the `stats` frame.
fn serve_connection(
    stream: TcpStream,
    accepted: Instant,
    handler: &RequestHandler,
    frames: &AtomicU64,
    errors: &AtomicU64,
) {
    // Request/response framing interacts badly with Nagle + delayed ACK
    // (a response spanning two segments stalls ~40ms waiting for the ACK
    // of the first); every response here is one complete frame, so send
    // segments as soon as they are written.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Accept-to-pickup queueing is charged to the connection's *first*
    // frame — both its latency sample and (when sampled) its stage trace —
    // so a saturated worker pool shows up in the histograms rather than
    // vanishing between clocks.
    let mut queue_wait = Some(accepted.elapsed());
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    let mut out = bytes::BytesMut::with_capacity(512);
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF or a torn connection
            Ok(_) => {}
        }
        // The latency clock starts when the request line is in hand and
        // stops once the response is serialised — transport queueing on
        // *this* request counts, idle time between requests does not.
        let started = Instant::now();
        out.clear();
        let Some(meta) = handler.handle_line_into_traced(&line, &mut out, queue_wait) else {
            continue; // a blank keep-alive; the queue wait stays pending
        };
        let waited = queue_wait.take().unwrap_or_default();
        // Every counter lands before the reply leaves, so a client that has
        // read its reply and then asks for `stats` always sees its frame
        // counted.
        frames.fetch_add(1, Ordering::Relaxed);
        if meta.is_error {
            errors.fetch_add(1, Ordering::Relaxed);
        }
        handler
            .metrics()
            .latency()
            .record(started.elapsed() + waited);
        // One write per response: payload + newline are already a single
        // buffer (TcpStream is unbuffered, so separate writes would be
        // separate syscalls and potentially separate segments).
        if writer
            .write_all(&out)
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::UncertainGraphBuilder;
    use usim_core::{QueryEngine, SimRankConfig};

    fn handler() -> RequestHandler {
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
        let config = SimRankConfig::default().with_samples(100).with_seed(5);
        RequestHandler::new(QueryEngine::new(&g, config), (0..5).collect(), 1024)
    }

    fn ask(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, frame: &str) -> String {
        writeln!(conn, "{frame}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let conn = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    #[test]
    fn serves_concurrent_connections_and_counts_frames() {
        let server = Server::bind(
            "127.0.0.1:0",
            handler(),
            ServerOptions {
                workers: 3,
                queue_depth: 2,
                max_connections: None,
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut clients: Vec<_> = (0..3).map(|_| connect(addr)).collect();
        let mut answers = Vec::new();
        for (conn, reader) in &mut clients {
            answers.push(ask(
                conn,
                reader,
                r#"{"type":"similarity","source":0,"target":1}"#,
            ));
        }
        // All connections are served the identical deterministic answer.
        assert!(answers[0].contains("\"ok\":true"), "{}", answers[0]);
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
        drop(clients);

        let stats = handle.shutdown().unwrap();
        // `shutdown` wakes the accept loop with a throwaway connection that
        // may or may not be counted before the flag is observed; the three
        // real clients are always there.
        assert!(stats.connections >= 3, "{stats:?}");
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn max_connections_gives_a_clean_exit() {
        let server = Server::bind(
            "127.0.0.1:0",
            handler(),
            ServerOptions {
                workers: 1,
                queue_depth: 1,
                max_connections: Some(2),
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        for _ in 0..2 {
            let (mut conn, mut reader) = connect(addr);
            let line = ask(&mut conn, &mut reader, r#"{"type":"stats"}"#);
            assert!(line.contains("\"vertices\":5"), "{line}");
        }
        let stats = runner.join().unwrap();
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.frames, 2);
    }

    #[test]
    fn zero_connection_budget_serves_nothing() {
        let server = Server::bind(
            "127.0.0.1:0",
            handler(),
            ServerOptions {
                workers: 1,
                queue_depth: 1,
                max_connections: Some(0),
            },
        )
        .unwrap();
        let stats = server.run().unwrap();
        assert_eq!(stats, ServerStats::default());
    }

    #[test]
    fn latency_histogram_counts_every_served_frame() {
        let handler = handler();
        let metrics = Arc::clone(handler.metrics());
        let server = Server::bind(
            "127.0.0.1:0",
            handler,
            ServerOptions {
                workers: 1,
                queue_depth: 1,
                max_connections: Some(1),
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        let (mut conn, mut reader) = connect(addr);
        ask(
            &mut conn,
            &mut reader,
            r#"{"type":"similarity","source":0,"target":1}"#,
        );
        writeln!(conn).unwrap(); // blank keep-alive: no frame, no sample
        ask(&mut conn, &mut reader, "{oops");
        ask(&mut conn, &mut reader, r#"{"type":"stats"}"#);
        drop((conn, reader));

        let stats = runner.join().unwrap();
        assert_eq!(stats.frames, 3);
        // Every served frame recorded exactly one latency sample — the
        // coherence the proptest suite pins down at scale.
        assert_eq!(metrics.latency().count(), stats.frames);
        assert_eq!(metrics.requests_of(crate::metrics::RequestKind::Invalid), 1);
    }

    #[test]
    fn malformed_frames_do_not_drop_the_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            handler(),
            ServerOptions {
                workers: 1,
                queue_depth: 1,
                max_connections: Some(1),
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        let (mut conn, mut reader) = connect(addr);
        let bad = ask(&mut conn, &mut reader, "{not json");
        assert!(bad.contains("malformed_frame"), "{bad}");
        // The same connection still answers real queries afterwards.
        let good = ask(
            &mut conn,
            &mut reader,
            r#"{"type":"similarity","source":2,"target":3}"#,
        );
        assert!(good.contains("\"ok\":true"), "{good}");
        drop((conn, reader));

        let stats = runner.join().unwrap();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.errors, 1);
    }
}
