//! The embedded observability HTTP server.
//!
//! A deliberately tiny, std-only, read-only HTTP/1.1 responder: one
//! blocking `TcpListener` accept loop on its own thread, one request
//! per connection (`Connection: close`), four routes:
//!
//! | route        | body                                               |
//! |--------------|----------------------------------------------------|
//! | `/healthz`   | `ok` (text/plain)                                  |
//! | `/metrics`   | Prometheus text of the provider's metrics snapshot |
//! | `/status`    | JSON campaign snapshot from the [`ObsProvider`]    |
//! | `/jobs`      | JSON array of per-job lifecycle views              |
//! | `/jobs/<id>` | one job's lifecycle view, or 404                   |
//!
//! The server is off unless `--listen ADDR` is given, and it runs
//! entirely in the controller process — worker child processes and the
//! simulation hot path never see it. Providers build snapshots by
//! taking control-plane locks briefly, one at a time, and the listener
//! thread owns all socket I/O, so a stalled client can delay at most
//! one response, never the campaign.
//!
//! Shutdown is cooperative: [`HttpServer::shutdown`] flips a flag and
//! pokes the listener with a loopback connect so the blocking
//! `accept()` wakes up and exits.

use crate::error::SimError;
use crate::json::Json;
use crate::metrics;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket timeout: a slow or stuck client gets cut off
/// rather than pinning the listener thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head we will read before answering 400.
const MAX_REQUEST_BYTES: usize = 8192;

/// What the campaign exposes to the HTTP plane. Implementations must
/// be cheap snapshots — each method is called once per request on the
/// listener thread.
pub trait ObsProvider: Send + Sync {
    /// The `/status` document.
    fn status(&self) -> Json;
    /// The `/jobs` document (array of job views).
    fn jobs(&self) -> Json;
    /// The `/jobs/<id>` document, `None` for unknown ids.
    fn job(&self, id: u64) -> Option<Json>;
    /// The `/metrics` snapshot: the global registry, plus whatever
    /// gauges the provider derives from its own state at read time.
    fn metrics(&self) -> metrics::MetricsSnapshot {
        metrics::global().snapshot()
    }
}

/// Provider for processes with metrics but no campaign (mlpwin-split):
/// `/status` reports the mode, `/jobs` is empty.
pub struct MetricsOnly {
    /// Mode tag reported in `/status` (e.g. `"split"`).
    pub mode: &'static str,
}

impl ObsProvider for MetricsOnly {
    fn status(&self) -> Json {
        crate::json::obj(vec![
            ("mode", crate::json::s(self.mode)),
            ("jobs", Json::Arr(Vec::new())),
        ])
    }

    fn jobs(&self) -> Json {
        Json::Arr(Vec::new())
    }

    fn job(&self, _id: u64) -> Option<Json> {
        None
    }
}

/// A running observability server; dropping it without calling
/// [`HttpServer::shutdown`] leaves the listener thread running until
/// process exit (harmless — it holds only the provider).
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 picks a free port) and starts the listener
    /// thread.
    ///
    /// # Errors
    ///
    /// [`SimError::Campaign`] when the bind fails.
    pub fn start(addr: &str, provider: Arc<dyn ObsProvider>) -> Result<HttpServer, SimError> {
        let listener = TcpListener::bind(addr).map_err(|e| SimError::Campaign {
            detail: format!("observability listen on {addr}: {e}"),
        })?;
        let bound = listener.local_addr().map_err(|e| SimError::Campaign {
            detail: format!("observability local_addr: {e}"),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_in_thread.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => serve_connection(stream, provider.as_ref()),
                        Err(_) => continue,
                    }
                }
            })
            .map_err(|e| SimError::Campaign {
                detail: format!("observability thread spawn: {e}"),
            })?;
        Ok(HttpServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves `--listen 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        TcpStream::connect_timeout(&self.addr, IO_TIMEOUT).ok();
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

/// Handles exactly one request on `stream`; all errors are answered or
/// dropped locally — nothing propagates to the campaign.
fn serve_connection(stream: TcpStream, provider: &dyn ObsProvider) {
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
    let mut stream = stream;
    let request = match read_request_head(&mut stream) {
        Some(head) => head,
        None => return,
    };
    let (status, content_type, body) = respond(&request, provider);
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .ok();
    stream.flush().ok();
}

/// Reads until the end of the request head (`\r\n\r\n`) and returns the
/// request line, or `None` on malformed/oversized/timed-out input.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines().next().map(str::to_string)
}

/// Routes one request line to `(status line, content type, body)`.
fn respond(request_line: &str, provider: &dyn ObsProvider) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "read-only endpoint: use GET\n".to_string(),
        );
    }
    // Strip any query string: the API takes no parameters.
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            provider.metrics().render_prometheus(),
        ),
        "/status" => ("200 OK", "application/json", provider.status().encode()),
        "/jobs" => ("200 OK", "application/json", provider.jobs().encode()),
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Ok(id) = rest.parse::<u64>() {
                    if let Some(doc) = provider.job(id) {
                        return ("200 OK", "application/json", doc.encode());
                    }
                    return (
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        format!("no such job: {id}\n"),
                    );
                }
            }
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "routes: /healthz /metrics /status /jobs /jobs/<id>\n".to_string(),
            )
        }
    }
}

/// Blocking one-shot GET against a running server; used by tests and
/// the `--probe` CLI mode so CI needs no external HTTP client.
///
/// Returns `(status_code, body)`.
///
/// # Errors
///
/// [`SimError::Campaign`] on connect/IO failure or an unparsable
/// response.
pub fn http_get(addr: &SocketAddr, path: &str) -> Result<(u16, String), SimError> {
    let io = |detail: String| SimError::Campaign { detail };
    let mut stream = TcpStream::connect_timeout(addr, IO_TIMEOUT)
        .map_err(|e| io(format!("connect {addr}: {e}")))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: mlpwin\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| io(format!("send {path}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| io(format!("read {path}: {e}")))?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let mut head_and_body = text.splitn(2, "\r\n\r\n");
    let head = head_and_body.next().unwrap_or("");
    let body = head_and_body.next().unwrap_or("").to_string();
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_ascii_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io(format!("unparsable response head for {path}: {head:?}")))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj, s};

    struct Stub;

    impl ObsProvider for Stub {
        fn status(&self) -> Json {
            obj(vec![("mode", s("test")), ("queue_depth", num(3))])
        }

        fn jobs(&self) -> Json {
            Json::Arr(vec![obj(vec![("id", num(0))])])
        }

        fn job(&self, id: u64) -> Option<Json> {
            (id == 0).then(|| obj(vec![("id", num(0)), ("state", s("done"))]))
        }
    }

    #[test]
    fn routes_serve_and_shutdown_joins() {
        let server = HttpServer::start("127.0.0.1:0", Arc::new(Stub)).expect("bind");
        let addr = server.addr();

        let (code, body) = http_get(&addr, "/healthz").expect("healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = http_get(&addr, "/status").expect("status");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).expect("status json");
        assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(3));

        let (code, body) = http_get(&addr, "/jobs").expect("jobs");
        assert_eq!(code, 200);
        assert!(Json::parse(&body).expect("jobs json").as_arr().is_some());

        let (code, _) = http_get(&addr, "/jobs/0").expect("job 0");
        assert_eq!(code, 200);
        let (code, _) = http_get(&addr, "/jobs/7").expect("job 7");
        assert_eq!(code, 404);
        let (code, _) = http_get(&addr, "/nope").expect("unknown route");
        assert_eq!(code, 404);

        let (code, body) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        crate::metrics::validate_prometheus(&body).expect("valid exposition");

        server.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let server = HttpServer::start("127.0.0.1:0", Arc::new(Stub)).expect("bind");
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /status HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn metrics_only_provider_serves_empty_jobs() {
        let provider = MetricsOnly { mode: "split" };
        assert_eq!(
            provider.status().get("mode").and_then(Json::as_str),
            Some("split")
        );
        assert!(provider.job(0).is_none());
    }
}
