//! A minimal plaintext Prometheus exporter sidecar.
//!
//! `usim serve --metrics-port P` binds a second listener that answers every
//! connection with one `HTTP/1.0` response carrying
//! [`crate::RequestHandler::prometheus_exposition`] — the identical body the
//! `metrics` wire frame wraps in JSON.  HTTP/1.0 with `Connection: close`
//! keeps the implementation to a single write: no keep-alive, no request
//! parsing beyond draining the header block, which is all a Prometheus
//! scrape (or `curl`) needs.
//!
//! The exporter runs one thread and shares the [`RequestHandler`] through
//! an `Arc`; every snapshot it renders is the same lock-free counter read
//! the `stats` frame performs, so scrapes never contend with serving.

use crate::protocol::RequestHandler;
use crate::server::{read_request_line, LineRead};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A running metrics exporter (see [`MetricsExporter::bind`]).
#[derive(Debug)]
pub struct MetricsExporter {
    listener: TcpListener,
    handler: Arc<RequestHandler>,
}

impl MetricsExporter {
    /// Binds `addr` (port `0` picks a free port) without serving yet.
    pub fn bind(addr: &str, handler: Arc<RequestHandler>) -> std::io::Result<MetricsExporter> {
        let listener = TcpListener::bind(addr)?;
        Ok(MetricsExporter { listener, handler })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// Serves scrapes on a background thread; stop it through the returned
    /// handle.
    pub fn spawn(self) -> ExporterHandle {
        let addr = self.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || {
            for stream in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // A scrape failing (torn connection, slow client) must never
                // affect the query server; drop it and accept the next.
                let _ = serve_scrape(stream, &self.handler);
            }
        });
        ExporterHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// A running background exporter (see [`MetricsExporter::spawn`]).
#[derive(Debug)]
pub struct ExporterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ExporterHandle {
    /// The address scrapes are served on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting scrapes and joins the exporter thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; if that
        // fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// The most bytes of one request-head line the exporter buffers; a longer
/// line is read to its newline and dropped.
const HEADER_LINE_CAP: usize = 8 * 1024;

/// Answers one scrape: drain the request head, write one full response.
fn serve_scrape(stream: TcpStream, handler: &RequestHandler) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Drain header lines until the blank separator (or EOF) so the client
    // never sees a reset while still sending; the request itself (path,
    // method) is irrelevant — every scrape gets the full exposition.  Each
    // line is capped, so no header can grow the exporter's memory.
    let mut line = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut line, HEADER_LINE_CAP) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Line) if line == b"\r\n" || line == b"\n" => break,
            Ok(_) => {}
        }
    }
    let body = handler.prometheus_exposition();
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestHandler;
    use ugraph::UncertainGraphBuilder;
    use usim_core::{QueryEngine, SimRankConfig};

    fn handler() -> Arc<RequestHandler> {
        let g = UncertainGraphBuilder::new(3)
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.8)
            .build()
            .unwrap();
        let engine = QueryEngine::new(&g, SimRankConfig::default().with_samples(60));
        Arc::new(RequestHandler::new(engine, (0..3).collect(), 1024).with_tracing(1.0, 8))
    }

    /// Sends one request head and reads the whole response.
    fn scrape(addr: SocketAddr, head: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(head).unwrap();
        let mut response = String::new();
        std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
        response
    }

    #[test]
    fn scrapes_return_the_exposition_over_http() {
        let handler = handler();
        // Warm a counter so the body is non-trivial.
        handler
            .handle_line(r#"{"type":"similarity","source":0,"target":1}"#)
            .unwrap();
        let exporter = MetricsExporter::bind("127.0.0.1:0", Arc::clone(&handler)).unwrap();
        let addr = exporter.local_addr();
        let running = exporter.spawn();
        let response = scrape(addr, b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        running.shutdown();

        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(
            body.contains("usim_requests_total{kind=\"similarity\"} 1"),
            "{body}"
        );
        assert!(body.contains("# TYPE usim_request_duration_seconds histogram"));
        assert!(body.contains("usim_traced_requests_total 1"), "{body}");
        // The advertised length matches the body exactly.
        let length: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(length, body.len());
    }

    #[test]
    fn an_over_long_header_line_is_drained_and_still_answered() {
        let handler = handler();
        let exporter = MetricsExporter::bind("127.0.0.1:0", Arc::clone(&handler)).unwrap();
        let addr = exporter.local_addr();
        let running = exporter.spawn();

        // A 10 MB header line, far past the 8 KiB cap: read to its newline
        // without being buffered, then answered like any scrape.
        let mut head = b"GET /metrics HTTP/1.0\r\nX-Padding: ".to_vec();
        head.resize(head.len() + 10 * 1024 * 1024, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let long = scrape(addr, &head);
        let normal = scrape(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        running.shutdown();

        let expected = handler.prometheus_exposition();
        for response in [&long, &normal] {
            assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
            assert_eq!(response.split("\r\n\r\n").nth(1), Some(expected.as_str()));
        }
    }
}
