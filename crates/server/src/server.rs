//! The threaded TCP transport: an accept loop and one thread per
//! connection, at most `workers` connections served at once.
//!
//! The topology is deliberately boring `std::net` + `std::thread`:
//!
//! ```text
//! accept loop ──wait for a free slot──▶ connection thread ─┐
//!   (listener)                          connection thread ─┼──▶ RequestHandler
//!                                       …  (≤ workers)     ┘    (CachedQueryEngine)
//! ```
//!
//! The accept loop takes one connection, waits until fewer than `workers`
//! connections are being served, and only then spawns the connection's
//! thread; while it waits, further connections queue in the kernel's TCP
//! accept backlog instead of an unbounded buffer.  Each thread serves its
//! connection line by line until the client disconnects and computes every
//! frame itself, with no further fan-out: `workers` is the server's only
//! parallelism.  Queries take the engine's read lock (any number run
//! concurrently, across connections), `update` frames take the write lock
//! and bump the epoch, so a client interleaving updates and queries on one
//! connection observes its own writes, and other connections observe the
//! epoch change.
//!
//! Nothing here panics on client input: every malformed frame becomes a
//! typed error line (see [`crate::protocol`]) and the connection stays up.
//! A request line longer than [`RequestHandler::max_line_bytes`] is read
//! to its newline without being buffered and answered `oversized_frame`.

use crate::protocol::RequestHandler;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Transport tuning of one [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Connections served at once, one thread each; further connections
    /// wait in the kernel's accept backlog.
    pub workers: usize,
    /// Stop after accepting this many connections (`None`: serve forever;
    /// `Some(0)`: accept nothing and return immediately).  This is how
    /// tests and smoke scripts get a clean, joinable shutdown.
    pub max_connections: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
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

    /// Serves on the calling thread: runs the accept loop, spawning one
    /// thread per connection (at most `workers` at once), and returns the
    /// final counters once the connection budget is exhausted (or a
    /// [`ServerHandle::shutdown`] woke the loop).  In-flight connections
    /// are served to the end before this returns.  A panic in a connection
    /// thread ends only that connection and frees its slot; it is raised
    /// again here once every connection has ended.
    pub fn run(self) -> std::io::Result<ServerStats> {
        // A zero connection budget means "serve nothing", not "serve
        // forever" (the loop below checks the budget only after accepting).
        if self.options.max_connections == Some(0) {
            return Ok(ServerStats::default());
        }
        let slots = Slots {
            free: Mutex::new(self.options.workers.max(1)),
            freed: Condvar::new(),
        };
        let (frames, errors) = (&AtomicU64::new(0), &AtomicU64::new(0));
        let handler: &RequestHandler = &self.handler;

        let mut connections = 0usize;
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break; // the waker connection is dropped unserved
                }
                // Stamped at accept, so the connection's first frame is
                // charged the wait for a free slot.
                let accepted = Instant::now();
                let spawned = stream.and_then(|stream| {
                    let slot = slots.acquire();
                    std::thread::Builder::new().spawn_scoped(scope, move || {
                        let _slot = slot; // given back however this thread ends
                        serve_connection(stream, accepted, handler, frames, errors)
                    })
                });
                if spawned.is_err() {
                    // Accept errors (EMFILE under fd exhaustion,
                    // ECONNABORTED) and failed spawns can persist; back off
                    // briefly instead of spinning hot.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                connections += 1;
                if Some(connections) == self.options.max_connections {
                    break;
                }
            }
        });
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

/// The connection slots of one [`Server::run`]: how many are free, and
/// the signal that one was given back.
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One taken slot, given back on drop — also when its connection thread
/// panics or fails to spawn.
struct Slot<'a>(&'a Slots);

impl Slots {
    /// Blocks until a slot is free and takes it.  The lock only guards
    /// arithmetic that cannot panic, so it is never poisoned.
    fn acquire(&self) -> Slot<'_> {
        let free = self.free.lock().unwrap();
        *self.freed.wait_while(free, |free| *free == 0).unwrap() -= 1;
        Slot(self)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap() += 1;
        self.0.freed.notify_one();
    }
}

/// What [`read_request_line`] found.
pub(crate) enum LineRead {
    Eof,
    Line,
    TooLong,
}

/// Reads one `\n`-terminated request line into `line`, buffering at most
/// `cap` bytes (newline included).  A longer line is read to its newline
/// `cap` bytes at a time and dropped, so the connection stays in frame and
/// server memory stays bounded whatever a client sends.
pub(crate) fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    let mut too_long = false;
    loop {
        line.clear();
        let read = reader.by_ref().take(cap as u64).read_until(b'\n', line)?;
        // A short read without a newline ends at EOF.
        if read < cap || line.ends_with(b"\n") {
            return Ok(match (too_long, read) {
                (true, _) => LineRead::TooLong,
                (false, 0) => LineRead::Eof,
                (false, _) => LineRead::Line,
            });
        }
        too_long = true;
    }
}

/// Serves one connection line by line until EOF or an I/O error.  Client
/// input can only produce error *frames*; it never tears the thread down.
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
    // Accept-to-thread-start queueing is charged to the connection's
    // *first* frame — both its latency sample and (when sampled) its stage
    // trace — so a wait for a free slot shows up in the histograms rather
    // than vanishing between clocks.
    let mut queue_wait = Some(accepted.elapsed());
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let cap = handler.max_line_bytes();
    // Raw bytes, not a `String`: a line that is not UTF-8 must come back
    // as an error frame, not end the connection.
    let mut line = Vec::new();
    let mut out = bytes::BytesMut::with_capacity(512);
    loop {
        let too_long = match read_request_line(&mut reader, &mut line, cap) {
            Ok(LineRead::Eof) | Err(_) => break, // EOF or a torn connection
            Ok(read) => matches!(read, LineRead::TooLong),
        };
        // The latency clock starts when the request line is in hand and
        // stops once the response is serialised — transport queueing on
        // *this* request counts, idle time between requests does not.
        let started = Instant::now();
        out.clear();
        let meta = if too_long {
            handler.handle_oversized_line_into(&mut out, queue_wait)
        } else {
            match handler.handle_line_into_traced(&line, &mut out, queue_wait) {
                Some(meta) => meta,
                None => continue, // a blank keep-alive; the queue wait stays pending
            }
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

    fn bind(handler: RequestHandler, workers: usize, max_connections: Option<usize>) -> Server {
        let options = ServerOptions {
            workers,
            max_connections,
        };
        Server::bind("127.0.0.1:0", handler, options).unwrap()
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
        let server = bind(handler(), 3, None);
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
    fn workers_caps_the_connections_served_at_once() {
        let server = bind(handler(), 1, None);
        let addr = server.local_addr();
        let handle = server.spawn();
        let similarity = r#"{"type":"similarity","source":0,"target":1}"#;

        let (mut a, mut a_reader) = connect(addr);
        let answer = ask(&mut a, &mut a_reader, similarity);
        assert!(answer.contains("\"ok\":true"), "{answer}");
        // B's frame cannot be served while A holds the only slot.
        let (mut b, mut b_reader) = connect(addr);
        writeln!(b, "{similarity}").unwrap();
        let stats = ask(&mut a, &mut a_reader, r#"{"type":"stats"}"#);
        assert!(stats.contains("\"similarity\":1"), "{stats}");
        // A's disconnect frees the slot, and B is answered.
        drop((a, a_reader));
        let mut late = String::new();
        b_reader.read_line(&mut late).unwrap();
        assert_eq!(late, answer);
        drop((b, b_reader));

        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.frames, 3);
    }

    #[test]
    fn max_connections_gives_a_clean_exit() {
        let server = bind(handler(), 1, Some(2));
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
        let server = bind(handler(), 1, Some(0));
        let stats = server.run().unwrap();
        assert_eq!(stats, ServerStats::default());
    }

    #[test]
    fn latency_histogram_counts_every_served_frame() {
        let handler = handler();
        let metrics = Arc::clone(handler.metrics());
        let server = bind(handler, 1, Some(1));
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
        let server = bind(handler(), 1, Some(1));
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
