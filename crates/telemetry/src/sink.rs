//! The export surface: a background thread that serves the registry over
//! a tiny hand-rolled HTTP listener and/or appends periodic JSON
//! snapshots to a file for headless runs.
//!
//! Two routes:
//!
//! * `GET /metrics` — Prometheus text exposition,
//! * `GET /snapshot.json` — the JSON snapshot.
//!
//! The listener is deliberately minimal (request-line parsing only, one
//! connection at a time, loopback-scale traffic) so the workspace takes
//! no new dependency for it. A scraper that needs more than a dashboard
//! poll should read the snapshot file instead.

use crate::encode::{json_snapshot, prometheus_text};
use crate::registry::Registry;
use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the sink exports to. At least one of `addr` / `snapshot_path`
/// should be set for the sink to be useful.
#[derive(Debug, Clone, Default)]
pub struct SinkConfig {
    /// Bind address for the HTTP listener, e.g. `"127.0.0.1:0"` (port 0
    /// picks a free port — read it back via
    /// [`TelemetrySink::local_addr`]). `None` disables HTTP.
    pub addr: Option<String>,
    /// Append one JSON snapshot line to this file every `period`.
    /// `None` disables the file appender.
    pub snapshot_path: Option<PathBuf>,
    /// Cadence of the file appender (ignored without `snapshot_path`).
    pub period: Duration,
}

impl SinkConfig {
    /// Serve HTTP on an ephemeral loopback port, no file appender.
    pub fn loopback() -> SinkConfig {
        SinkConfig {
            addr: Some("127.0.0.1:0".to_string()),
            snapshot_path: None,
            period: Duration::from_secs(1),
        }
    }
}

/// Handle to the background export thread. [`shutdown`](Self::shutdown)
/// (or drop) stops it.
#[derive(Debug)]
pub struct TelemetrySink {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl TelemetrySink {
    /// Start serving `registry`. Binding happens before this returns, so
    /// a `local_addr` of `Some` is immediately scrapeable.
    pub fn start(registry: Registry, cfg: SinkConfig) -> std::io::Result<TelemetrySink> {
        let listener = match &cfg.addr {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("telemetry-sink".to_string())
            .spawn(move || serve(registry, cfg, listener, thread_stop))
            .expect("spawn telemetry sink thread");
        Ok(TelemetrySink {
            stop,
            handle: Some(handle),
            local_addr,
        })
    }

    /// The bound HTTP address, if HTTP is enabled.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Stop the export thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve(
    registry: Registry,
    cfg: SinkConfig,
    listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
) {
    let mut last_append = Instant::now();
    // First file snapshot lands after one full period, not at t=0 (a
    // headless run that crashes immediately leaves no misleading line).
    while !stop.load(Ordering::Relaxed) {
        let mut worked = false;
        if let Some(l) = &listener {
            match l.accept() {
                Ok((stream, _)) => {
                    handle_conn(stream, &registry);
                    worked = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        if let Some(path) = &cfg.snapshot_path {
            if last_append.elapsed() >= cfg.period {
                last_append = Instant::now();
                let line = json_snapshot(&registry.snapshot());
                if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
                    let _ = writeln!(f, "{line}");
                }
                worked = true;
            }
        }
        if !worked {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn handle_conn(mut stream: TcpStream, registry: &Registry) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    // Read up to the end of the request line; headers are irrelevant.
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(2).any(|w| w == b"\r\n") || req.len() >= 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&req);
    let path = line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, ctype, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&registry.snapshot()),
        ),
        "/snapshot.json" => (
            "200 OK",
            "application/json",
            json_snapshot(&registry.snapshot()),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "404: try /metrics or /snapshot.json\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal HTTP GET against a sink (tests and the example use it; a real
/// deployment points an actual scraper at the sink instead). Returns the
/// response body.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: sink\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    match resp.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_prometheus_and_json_over_http() {
        let reg = Registry::new();
        reg.counter("hits_total", &[("cell", "0")]).add(3);
        let sink = TelemetrySink::start(reg.clone(), SinkConfig::loopback()).expect("bind sink");
        let addr = sink.local_addr().expect("http enabled");

        let prom = http_get(addr, "/metrics").expect("scrape /metrics");
        assert!(prom.contains("# TYPE hits_total counter"), "got: {prom}");
        assert!(prom.contains(r#"hits_total{cell="0"} 3"#));

        // Live view: mutate, scrape again.
        reg.counter("hits_total", &[("cell", "0")]).inc();
        let json = http_get(addr, "/snapshot.json").expect("scrape /snapshot.json");
        assert!(json.contains(r#""name":"hits_total""#), "got: {json}");
        assert!(json.contains("\"value\":4"));

        let miss = http_get(addr, "/nope").expect("404 route answers");
        assert!(miss.contains("404"));
        sink.shutdown();
    }

    #[test]
    fn appends_periodic_snapshots_to_file() {
        let reg = Registry::new();
        reg.gauge("depth", &[]).set(7);
        let path = std::env::temp_dir().join(format!(
            "telemetry-sink-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let sink = TelemetrySink::start(
            reg,
            SinkConfig {
                addr: None,
                snapshot_path: Some(path.clone()),
                period: Duration::from_millis(10),
            },
        )
        .expect("start sink");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let lines = std::fs::read_to_string(&path).unwrap_or_default();
            if lines.lines().count() >= 2 {
                assert!(lines.lines().all(|l| l.contains("\"depth\"")));
                break;
            }
            assert!(Instant::now() < deadline, "no snapshots appended");
            std::thread::sleep(Duration::from_millis(5));
        }
        sink.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
