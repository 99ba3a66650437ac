//! Minimal HTTP/1.1 responder serving `GET /metrics` in Prometheus text
//! exposition format. Std-only: a blocking accept loop on a background
//! thread, one short-lived connection per scrape.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::Registry;

/// Handle to a running metrics endpoint; shuts the listener down on drop.
#[derive(Debug)]
pub struct MetricsHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the serving thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so the blocking accept returns.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop();
        }
    }
}

/// Bind `addr` and serve `GET /metrics` from `registry` on a background
/// thread. Any other path returns 404; any other method returns 405.
pub fn serve_metrics(
    addr: impl ToSocketAddrs,
    registry: Arc<Registry>,
) -> std::io::Result<MetricsHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let thread = std::thread::Builder::new()
        .name("hermes-obs-http".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let _ = serve_one(stream, &registry);
                }
            }
        })?;
    Ok(MetricsHandle {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

fn serve_one(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers up to the blank line; cap total header bytes.
    let mut drained = 0usize;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        drained += n;
        if n == 0 || line == "\r\n" || line == "\n" || drained > 8192 {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut stream = stream;
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path != "/metrics" {
        ("404 Not Found", "not found\n".to_string())
    } else {
        ("200 OK", registry.render_prometheus())
    };
    let content_type = if status.starts_with("200") {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stat;
    use std::io::Read;

    fn http_get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let registry = Arc::new(Registry::new());
        registry.register_collector(|| vec![Stat::counter(None, "t_served_total", "served", 3)]);
        let handle = serve_metrics("127.0.0.1:0", registry).unwrap();
        let addr = handle.addr();

        let ok = http_get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("t_served_total 3"));

        let missing = http_get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let bad_method = http_get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(bad_method.starts_with("HTTP/1.1 405"), "{bad_method}");

        handle.shutdown();
    }
}
