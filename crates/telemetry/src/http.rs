//! A minimal std-only HTTP/1.1 exposition endpoint: `/metrics`
//! (Prometheus text 0.0.4), `/healthz` (JSON liveness), and `/jobs`
//! (a JSON snapshot supplied by the embedding command).
//!
//! Built on the same blocking `TcpListener` pattern as the job
//! service's line protocol: one accept loop on a background thread,
//! one short-lived handler thread per connection, `Connection: close`
//! semantics. This is an operator scrape endpoint, not a web server —
//! it answers `GET`, closes, and rejects everything else with the
//! smallest correct status line.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::Telemetry;

/// Supplies the `/jobs` JSON body (the serve command closes over its
/// spool; crack/cluster runs have no jobs and use the default).
pub type JobsFn = Arc<dyn Fn() -> String + Send + Sync>;

/// A running exposition endpoint. Dropping the handle leaves the
/// server running for the rest of the process (scrape endpoints
/// usually live exactly as long as the run); call
/// [`MetricsServer::shutdown`] for an orderly stop in tests.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serve the given telemetry until shutdown. `jobs` supplies the
    /// `/jobs` body; `None` serves an empty job list.
    pub fn spawn(addr: &str, telemetry: Telemetry, jobs: Option<JobsFn>) -> Result<Self, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        std::thread::Builder::new()
            .name("eks-metrics-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let telemetry = telemetry.clone();
                    let jobs = jobs.clone();
                    // One short-lived thread per scrape: scrapers are
                    // rare (a dashboard poll every second or two) and
                    // this keeps a stuck client from blocking accepts.
                    let _ = std::thread::Builder::new()
                        .name("eks-metrics-conn".into())
                        .spawn(move || handle_conn(stream, &telemetry, jobs.as_ref()));
                }
            })
            .map_err(|e| format!("cannot spawn accept loop: {e}"))?;
        Ok(Self { addr: local, stop })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting. A self-connection unblocks the accept loop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Longest request head (request line plus headers) the endpoint reads.
/// A scrape's head is a few hundred bytes; a head that reaches the cap
/// is answered `431` and the connection closed, so a peer that never
/// ends its head cannot grow a buffer without bound.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// How long a handler thread spends on one connection, head and reply
/// together. It bounds the connection, not each read, so a peer that
/// drips a byte just inside any per-read timeout still loses the thread.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// A socket whose every read and write ends by one fixed instant: each
/// call's timeout is the time left, and a call after the deadline fails
/// with [`io::ErrorKind::TimedOut`]. The servers of this workspace wrap
/// each accepted connection in one, so no peer holds a connection (or
/// `eks serve`'s one-at-a-time accept loop) past the deadline however it
/// paces its bytes.
#[derive(Debug)]
pub struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineStream {
    /// `stream`, open for `budget` from now.
    pub fn new(stream: TcpStream, budget: Duration) -> Self {
        Self { stream, deadline: Instant::now() + budget }
    }

    /// A second handle on the same socket and deadline.
    ///
    /// # Errors
    /// When the socket cannot be duplicated.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self { stream: self.stream.try_clone()?, deadline: self.deadline })
    }

    fn time_left(&self) -> io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "connection deadline passed"));
        }
        Ok(left)
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn handle_conn(stream: TcpStream, telemetry: &Telemetry, jobs: Option<&JobsFn>) {
    let stream = DeadlineStream::new(stream, CONN_DEADLINE);
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers; the response does not depend on them.
    let mut ended = false;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => {
                ended = true;
                break;
            }
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let capped = !ended && reader.get_ref().limit() == 0;
    let mut stream = reader.into_inner().into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if capped {
        respond(431, "text/plain; charset=utf-8", "request head too large\n")
    } else if method != "GET" {
        respond(405, "text/plain; charset=utf-8", "method not allowed\n")
    } else {
        match path {
            "/metrics" => respond(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &telemetry.render_prometheus(),
            ),
            "/healthz" => respond(
                200,
                "application/json",
                &format!("{{\"ok\":true,\"uptime_ns\":{}}}\n", telemetry.now_ns()),
            ),
            "/jobs" => {
                let body =
                    jobs.map_or_else(|| "{\"ok\":true,\"jobs\":[]}\n".to_string(), |f| f());
                respond(200, "application/json", &body)
            }
            _ => respond(404, "text/plain; charset=utf-8", "not found\n"),
        }
    };
    let _ = stream.write_all(response.as_bytes());
}

fn respond(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// A one-shot HTTP GET against `addr` (no scheme), returning the body
/// on any 200 response. This is the client side `eks top` and the CI
/// smoke gates scrape with, so the endpoint is exercised end to end
/// without any external tooling.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("timeout setup: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes())
        .map_err(|e| format!("request write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("status read: {e}"))?;
    if !status_line.contains(" 200 ") {
        return Err(format!("{path}: {}", status_line.trim()));
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(e) => return Err(format!("header read: {e}")),
        }
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body).map_err(|e| format!("body read: {e}"))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, parse_prometheus};

    #[test]
    fn serves_metrics_healthz_and_jobs() {
        let t = Telemetry::enabled();
        t.counter(names::KEYS_TESTED, &[("worker", "w0")]).add(7);
        let jobs: JobsFn = Arc::new(|| "{\"ok\":true,\"jobs\":[{\"id\":1}]}\n".to_string());
        let server = MetricsServer::spawn("127.0.0.1:0", t, Some(jobs)).expect("bind");
        let addr = server.local_addr().to_string();

        let metrics = http_get(&addr, "/metrics").expect("/metrics");
        let samples = parse_prometheus(&metrics).expect("scrape parses");
        assert!(samples.iter().any(|s| s.name == names::KEYS_TESTED && s.value == 7.0));

        let health = http_get(&addr, "/healthz").expect("/healthz");
        assert!(health.contains("\"ok\":true"), "{health}");

        let jobs_body = http_get(&addr, "/jobs").expect("/jobs");
        assert!(jobs_body.contains("\"id\":1"), "{jobs_body}");

        assert!(http_get(&addr, "/nope").is_err(), "unknown path is 404");
        server.shutdown();
    }

    #[test]
    fn an_over_long_head_is_refused_and_the_next_client_served() {
        let server = MetricsServer::spawn("127.0.0.1:0", Telemetry::disabled(), None).expect("bind");
        let addr = server.local_addr().to_string();
        let mut hog = TcpStream::connect(&addr).expect("connect");
        hog.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        // Exactly the cap and no line end: the server reads all of it, so
        // its close after the reply is clean.
        hog.write_all(&[b'a'; MAX_HEAD_BYTES as usize]).expect("write");
        let mut reply = String::new();
        let _ = hog.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 431 "), "{reply:?}");
        assert!(http_get(&addr, "/healthz").is_ok(), "the next client is served");
        server.shutdown();
    }

    #[test]
    fn a_slow_drip_loses_the_connection_at_the_deadline() {
        let server = MetricsServer::spawn("127.0.0.1:0", Telemetry::disabled(), None).expect("bind");
        let addr = server.local_addr().to_string();
        let mut hog = TcpStream::connect(&addr).expect("connect");
        let started = Instant::now();
        let mut drip = hog.try_clone().expect("clone");
        // One byte per 250 ms and no line end: every read is quick, the
        // head never ends and stays far under its cap.
        let dripper = std::thread::spawn(move || {
            while started.elapsed() < Duration::from_secs(20) && drip.write_all(b"a").is_ok() {
                std::thread::sleep(Duration::from_millis(250));
            }
        });
        hog.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
        let mut reply = Vec::new();
        let _ = hog.read_to_end(&mut reply);
        let held = started.elapsed();
        let _ = hog.shutdown(std::net::Shutdown::Both);
        dripper.join().expect("dripper");
        assert!(held < CONN_DEADLINE + Duration::from_secs(5), "held for {held:?}");
        assert!(http_get(&addr, "/healthz").is_ok(), "the next client is served");
        server.shutdown();
    }

    #[test]
    fn default_jobs_body_is_an_empty_list() {
        let server = MetricsServer::spawn("127.0.0.1:0", Telemetry::disabled(), None).expect("bind");
        let addr = server.local_addr().to_string();
        let body = http_get(&addr, "/jobs").expect("/jobs");
        assert!(body.contains("\"jobs\":[]"), "{body}");
        server.shutdown();
    }
}
