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
use std::io::{BufRead, BufReader, Write};
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

/// Answers one scrape: drain the request head, write one full response.
fn serve_scrape(stream: TcpStream, handler: &RequestHandler) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Drain header lines until the blank separator (or EOF) so the client
    // never sees a reset while still sending; the request itself (path,
    // method) is irrelevant — every scrape gets the full exposition.
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
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

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
        drop(conn);
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
}
