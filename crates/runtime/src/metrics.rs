//! The runtime's live metrics plane: a process-wide [`MetricsHub`]
//! aggregating counters, gauges, and per-phase latency histograms from
//! the coordinator, agent hosts, and transports, plus a
//! minimal blocking HTTP server that exposes the hub as a Prometheus
//! text page at `/metrics` (stdlib `TcpListener` only — no new
//! dependencies, matching the workspace's vendored-stub discipline).
//!
//! ## Exposition determinism
//!
//! The page layout is deterministic: families render in a fixed order
//! (the [`FAMILY_HELP`] table order), series within a family in sorted
//! label order (`BTreeMap` iteration), and every value is an integer.
//! Deterministic families (message/byte/epoch counts) come first;
//! wall-time families (nanosecond phase latencies) render last under
//! an explicit section banner, so diffing two expositions separates
//! behavioural changes from mere speed changes. The byte-stable layout
//! is pinned by a golden test here and in `saath-telemetry::prom`.
//!
//! ## Threading
//!
//! One `Mutex` guards the whole hub. Every writer records at most a
//! few times per δ epoch (coordinator phases, per-epoch gauge sets,
//! agent apply spans), so contention is negligible next to the epoch
//! sleep; the lock is never held across I/O.

use crate::transport::TransportStats;
use saath_telemetry::prom::PromText;
use saath_telemetry::{Phase, SpanProfiler};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `(family name, help text)` for every `saath_*` family the runtime
/// emits, in exposition order. Counters and gauges the hub has no
/// series for are omitted from the page (scrapes stay small), but the
/// order here is what fixes the layout.
const FAMILY_HELP: &[(&str, &str)] = &[
    (
        "saath_coord_epochs_total",
        "Schedule epochs pushed by the coordinator",
    ),
    (
        "saath_coord_stats_msgs_total",
        "Agent stats reports drained by the coordinator",
    ),
    (
        crate::coordinator::STATS_FLOWS,
        "Per-flow entries ingested from agent stats reports",
    ),
    (
        "saath_coord_schedule_msgs_total",
        "Schedule messages pushed to agents",
    ),
    (
        crate::coordinator::REJECTED_INDICES,
        "Flow indices read off the wire that named nothing and were skipped",
    ),
    (
        crate::coordinator::LINK_ERRORS,
        "Agent links the coordinator gave up on after a transport error",
    ),
    (
        "saath_transport_frames_sent_total",
        "Messages sent over coordinator-side transports",
    ),
    (
        "saath_transport_frames_recv_total",
        "Messages received over coordinator-side transports",
    ),
    (
        "saath_transport_bytes_sent_total",
        "Encoded bytes sent over coordinator-side transports",
    ),
    (
        "saath_transport_bytes_recv_total",
        "Encoded bytes received over coordinator-side transports",
    ),
    (
        "saath_transport_recv_timeouts_total",
        "recv_timeout calls that found nothing to deliver (one per link per drain: a readiness probe, not a timer wait)",
    ),
    (
        "saath_host_agents",
        "Emulated agents multiplexed on this agent host",
    ),
    (
        "saath_host_ready_events_total",
        "Readiness wake-ups (socket or channel) observed by the host loop",
    ),
    (
        "saath_host_parked_writers_total",
        "Stats reports deferred because the host link was over its write high-water mark",
    ),
    (
        "saath_active_coflows",
        "CoFlows arrived and not yet finished, as of the last epoch",
    ),
    (
        "saath_completed_coflows",
        "CoFlows recorded complete by the coordinator",
    ),
];

/// Which families are gauges (everything else in [`FAMILY_HELP`] is a
/// counter). Gauges are set, counters are set-or-added; both render as
/// their Prometheus type.
const GAUGES: &[&str] = &[
    "saath_host_agents",
    "saath_active_coflows",
    "saath_completed_coflows",
];

#[derive(Default)]
struct HubInner {
    /// `(family, rendered labels)` → value. One map for counters and
    /// gauges alike; the family decides the rendered TYPE.
    series: BTreeMap<(&'static str, String), u64>,
    phases: SpanProfiler,
}

/// The process-wide metrics registry. Cheap to share (`Arc`), safe
/// from any thread.
#[derive(Default)]
pub struct MetricsHub {
    inner: Mutex<HubInner>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Adds `n` to the `(family, labels)` series. `labels` is a
    /// pre-rendered body like `host="0"` (see
    /// [`saath_telemetry::prom::label_body`]) or `""` for none.
    pub fn incr(&self, family: &'static str, labels: &str, n: u64) {
        let mut g = self.inner.lock().expect("metrics hub poisoned");
        *g.series.entry((family, labels.to_string())).or_insert(0) += n;
    }

    /// Sets the `(family, labels)` series to `v` (gauges, or counters
    /// whose true monotone value lives elsewhere, e.g. transports).
    pub fn set(&self, family: &'static str, labels: &str, v: u64) {
        let mut g = self.inner.lock().expect("metrics hub poisoned");
        g.series.insert((family, labels.to_string()), v);
    }

    /// Folds one duration sample (nanoseconds) into `phase`.
    pub fn observe_phase(&self, phase: Phase, ns: u64) {
        let mut g = self.inner.lock().expect("metrics hub poisoned");
        g.phases.observe(phase, ns);
    }

    /// Starts an RAII span: the guard records its elapsed wall time
    /// into `phase` on drop. The hub is borrowed shared, so spans nest
    /// freely around code that also increments counters.
    pub fn span(&self, phase: Phase) -> HubSpan<'_> {
        HubSpan {
            hub: self,
            phase,
            start: Instant::now(),
        }
    }

    /// Folds a transport's cumulative stats into the transport
    /// families under `labels` (overwrites — the transport owns the
    /// true monotone counts).
    pub fn set_transport(&self, labels: &str, s: &TransportStats) {
        let mut g = self.inner.lock().expect("metrics hub poisoned");
        for (family, v) in [
            ("saath_transport_frames_sent_total", s.frames_sent),
            ("saath_transport_frames_recv_total", s.frames_recv),
            ("saath_transport_bytes_sent_total", s.bytes_sent),
            ("saath_transport_bytes_recv_total", s.bytes_recv),
            ("saath_transport_recv_timeouts_total", s.recv_timeouts),
        ] {
            g.series.insert((family, labels.to_string()), v);
        }
    }

    /// Renders the deterministic-layout Prometheus text page.
    pub fn render(&self) -> String {
        let g = self.inner.lock().expect("metrics hub poisoned");
        let mut p = PromText::new();
        p.section("deterministic");
        for (family, help) in FAMILY_HELP {
            let rows: Vec<(&str, u64)> = g
                .series
                .range((*family, String::new())..)
                .take_while(|((f, _), _)| f == family)
                .map(|((_, labels), v)| (labels.as_str(), *v))
                .collect();
            if rows.is_empty() {
                continue;
            }
            if GAUGES.contains(family) {
                p.gauge(family, help, &rows);
            } else {
                p.counter(family, help, &rows);
            }
        }
        p.section("wall-clock (nondeterministic values, stable layout)");
        p.phase_summary(
            "saath_epoch_phase_ns",
            "Epoch lifecycle phase latency in nanoseconds",
            &g.phases,
        );
        p.finish()
    }
}

/// RAII guard from [`MetricsHub::span`].
pub struct HubSpan<'a> {
    hub: &'a MetricsHub,
    phase: Phase,
    start: Instant,
}

impl Drop for HubSpan<'_> {
    fn drop(&mut self) {
        self.hub
            .observe_phase(self.phase, self.start.elapsed().as_nanos() as u64);
    }
}

/// A minimal blocking HTTP/1.1 server for `GET /metrics`, one
/// connection at a time on a background thread. Shuts down on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `hub` in the background.
    pub fn serve(addr: &str, hub: Arc<MetricsHub>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept so the stop flag is honoured promptly.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("saath-metrics".into())
            .spawn(move || serve_loop(listener, hub, stop2))
            .expect("spawn metrics server thread");
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins its thread (idempotent).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: TcpListener, hub: Arc<MetricsHub>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_conn(stream, &hub);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, hub: &MetricsHub) -> std::io::Result<()> {
    // A real scraper sends its GET immediately and reads the reply
    // promptly. Tight per-syscall timeouts *plus* an overall header
    // deadline mean a client that trickles bytes (slow-loris) or
    // stalls mid-read is dropped, instead of pinning the single
    // serving thread indefinitely — the per-read timeout alone would
    // still admit one byte per timeout, ~70 minutes to the header cap.
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    stream.set_nonblocking(false)?;
    let header_deadline = Instant::now() + Duration::from_secs(1);
    // Read until the end of the request headers (or a small cap —
    // GETs have no body worth reading).
    let mut req = Vec::new();
    let mut chunk = [0u8; 1024];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 8192 {
        if Instant::now() >= header_deadline {
            // Too slow to finish its request line: drop it unanswered.
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => req.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let line = req.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && path == "/metrics" {
        ("200 OK", hub.render())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_renders_deterministic_layout() {
        let hub = MetricsHub::new();
        hub.incr("saath_coord_epochs_total", "", 3);
        hub.incr("saath_host_ready_events_total", "host=\"1\"", 5);
        hub.incr("saath_host_ready_events_total", "host=\"0\"", 4);
        hub.set("saath_active_coflows", "", 1);
        let page = hub.render();
        // Families in FAMILY_HELP order, series label-sorted.
        let epochs = page.find("saath_coord_epochs_total 3").unwrap();
        let h0 = page
            .find("saath_host_ready_events_total{host=\"0\"} 4")
            .unwrap();
        let h1 = page
            .find("saath_host_ready_events_total{host=\"1\"} 5")
            .unwrap();
        let active = page.find("saath_active_coflows 1").unwrap();
        assert!(epochs < h0 && h0 < h1 && h1 < active);
        assert!(page.contains("# TYPE saath_active_coflows gauge"));
        assert!(page.contains("# TYPE saath_coord_epochs_total counter"));
        // Unpopulated families are omitted entirely.
        assert!(!page.contains("saath_transport_frames_sent_total"));
        // Rendering twice is byte-identical.
        assert_eq!(page, hub.render());
    }

    #[test]
    fn hub_spans_flow_into_the_phase_summary() {
        let hub = MetricsHub::new();
        {
            let _s = hub.span(Phase::CoordObsRecv);
        }
        hub.observe_phase(Phase::CoordSchedule, 1_000);
        let page = hub.render();
        assert!(page.contains("saath_epoch_phase_ns{phase=\"coord_obs_recv\",quantile=\"0.5\"}"));
        assert!(page.contains("saath_epoch_phase_ns_count{phase=\"coord_schedule\"} 1"));
        // Wall-clock section is fenced off after the deterministic one.
        let det = page.find("# --- deterministic ---").unwrap();
        let wall = page.find("# --- wall-clock").unwrap();
        assert!(det < wall);
    }

    #[test]
    fn metrics_server_serves_the_page_and_404s_elsewhere() {
        let hub = Arc::new(MetricsHub::new());
        hub.incr("saath_coord_epochs_total", "", 9);
        let mut server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.addr();

        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = fetch("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("saath_coord_epochs_total 9"));
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
    }

    /// Regression (slow-loris): a client that connects and trickles
    /// header bytes forever must be dropped at the header deadline,
    /// not pin the single serving thread — a well-behaved scrape
    /// arriving behind it still completes promptly.
    #[test]
    fn stalled_client_does_not_starve_other_scrapes() {
        let hub = Arc::new(MetricsHub::new());
        hub.incr("saath_coord_epochs_total", "", 7);
        let mut server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let loris = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let header = b"GET /metrics HTTP/1.1\r\n";
            let mut i = 0usize;
            // One byte every 100 ms, never the terminating blank line.
            while !stop2.load(Ordering::SeqCst) {
                if s.write_all(&header[i % header.len()..][..1]).is_err() {
                    break; // server dropped us, as it should
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        // Let the loris become the connection being served.
        std::thread::sleep(Duration::from_millis(200));

        let t0 = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("saath_coord_epochs_total 7"));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "scrape starved behind a stalled client for {:?}",
            t0.elapsed()
        );

        stop.store(true, Ordering::SeqCst);
        loris.join().unwrap();
        server.shutdown();
    }
}
