//! Message transports: in-process channels and framed TCP.
//!
//! The coordinator and agents speak [`Message`]s over a [`Transport`].
//! Tests and the default emulation use [`InProcTransport`] (bounded
//! `std::sync::mpsc` channels — zero-copy, no sockets); the
//! `testbed_emulation` example can run the identical binaries over
//! [`TcpTransport`], which frames messages with the `proto` length
//! prefix on a real socket, the way the paper's agents talk to the
//! Azure coordinator VM.

use crate::proto::{Message, ProtoError};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration as WallDuration, Instant};

/// A transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer is gone (channel disconnected / socket closed).
    Disconnected,
    /// A malformed frame arrived.
    Proto(ProtoError),
    /// Socket I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Proto(e) => write!(f, "protocol error: {e}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> Self {
        TransportError::Proto(e)
    }
}

/// Cumulative per-endpoint traffic counters, maintained by every
/// transport and scraped into the metrics hub each epoch. Bytes are
/// the `proto` **encoded body** sizes (excluding the 4-byte length
/// prefix) for both transports — the in-proc path moves no wire bytes
/// but reports what the framed path would have, so the two transports
/// are comparable on the same dashboard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages sent.
    pub frames_sent: u64,
    /// Messages received.
    pub frames_recv: u64,
    /// Encoded body bytes sent.
    pub bytes_sent: u64,
    /// Encoded body bytes received.
    pub bytes_recv: u64,
    /// `recv_timeout` calls that expired with nothing to deliver —
    /// the poll-retry count of the δ loop.
    pub recv_timeouts: u64,
}

impl TransportStats {
    /// Adds `other` field-wise — used to aggregate a set of links
    /// (e.g. all agent transports) into one series.
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        self.recv_timeouts += other.recv_timeouts;
    }
}

/// A bidirectional message pipe.
pub trait Transport: Send {
    /// Sends one message (non-blocking or cheaply buffered).
    fn send(&mut self, m: &Message) -> Result<(), TransportError>;

    /// Sends `m` as one link of a fan-out: `frame` is the caller's cache
    /// of `m`'s encoding, shared by every link the same message goes to
    /// (`None` before the first). A framed transport fills it on first
    /// use and writes those bytes, so L links cost one encode, not L;
    /// the default — links that move the value itself — ignores it.
    fn send_shared(
        &mut self,
        m: &Message,
        _frame: &mut Option<Vec<u8>>,
    ) -> Result<(), TransportError> {
        self.send(m)
    }

    /// Receives the next message, waiting at most `timeout`.
    /// `Ok(None)` = nothing arrived in time. A zero `timeout` is a
    /// probe: it delivers what has already arrived and never waits.
    fn recv_timeout(&mut self, timeout: WallDuration) -> Result<Option<Message>, TransportError>;

    /// Cumulative traffic counters for this endpoint. The default is
    /// all-zero so third-party transports keep compiling; both
    /// built-in transports maintain real counts.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Switches the endpoint to nonblocking mode: `send` only queues
    /// the frame in an outbound buffer, and nothing reaches the wire
    /// until the caller runs [`Transport::try_flush`] — so an event
    /// loop hands a whole wave of frames to the socket in one write,
    /// and a full socket parks the remainder instead of blocking the
    /// loop. `recv_timeout` is the same in both modes. The default is
    /// a no-op — in-process channels never block an event loop in the
    /// first place.
    fn set_nonblocking(&mut self, _on: bool) -> Result<(), TransportError> {
        Ok(())
    }

    /// Writes as much queued outbound data as the peer will take
    /// without blocking. Returns `true` once the queue is empty.
    fn try_flush(&mut self) -> Result<bool, TransportError> {
        Ok(true)
    }

    /// Outbound bytes queued by nonblocking sends and not yet written
    /// to the wire — the backpressure signal event loops use to park
    /// writers when a peer stalls.
    fn queued_bytes(&self) -> usize {
        0
    }

    /// The raw OS file descriptor for readiness polling, when the
    /// endpoint is socket-backed. `None` for in-process transports.
    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        None
    }
}

/// One end of an in-process transport.
pub struct InProcTransport {
    tx: SyncSender<Message>,
    rx: Receiver<Message>,
    stats: TransportStats,
}

/// Creates a connected pair of in-process endpoints.
pub fn inproc_pair(capacity: usize) -> (InProcTransport, InProcTransport) {
    let (atx, brx) = sync_channel(capacity);
    let (btx, arx) = sync_channel(capacity);
    (
        InProcTransport {
            tx: atx,
            rx: arx,
            stats: TransportStats::default(),
        },
        InProcTransport {
            tx: btx,
            rx: brx,
            stats: TransportStats::default(),
        },
    )
}

/// Whether an I/O error kind means "the peer is gone" rather than a
/// transient fault. `BrokenPipe` is what a closed socket surfaces on
/// write; `ConnectionReset` / `ConnectionAborted` are the same death
/// seen from the read side (or a RST) — all three must route to
/// [`TransportError::Disconnected`] so the failover path treats a dead
/// peer uniformly instead of bubbling a generic I/O error.
fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
    )
}

impl Transport for InProcTransport {
    fn send(&mut self, m: &Message) -> Result<(), TransportError> {
        // Mirror the framed path's sender-side size check so oversize
        // bugs surface identically under both transports.
        let len = m.encoded_len();
        if len > crate::proto::MAX_FRAME {
            return Err(TransportError::Proto(ProtoError::Oversized(len)));
        }
        self.tx
            .send(m.clone())
            .map_err(|_| TransportError::Disconnected)?;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += len as u64;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: WallDuration) -> Result<Option<Message>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => {
                self.stats.frames_recv += 1;
                self.stats.bytes_recv += m.encoded_len() as u64;
                Ok(Some(m))
            }
            Err(RecvTimeoutError::Timeout) => {
                self.stats.recv_timeouts += 1;
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// A framed TCP endpoint.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Outbound bytes queued by nonblocking sends, flushed by
    /// [`Transport::try_flush`] as the socket accepts them. A frame is
    /// queued whole, so partial writes never interleave frames.
    out: Vec<u8>,
    nonblocking: bool,
    stats: TransportStats,
}

impl TcpTransport {
    /// Wraps a connected stream. Disables Nagle — schedule pushes are
    /// latency-critical and tiny.
    pub fn new(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            buf: Vec::with_capacity(8192),
            out: Vec::new(),
            nonblocking: false,
            stats: TransportStats::default(),
        })
    }

    /// Connects to a coordinator address.
    pub fn connect(addr: &str) -> std::io::Result<TcpTransport> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }

    fn map_write_err(e: std::io::Error) -> TransportError {
        if is_disconnect(e.kind()) {
            TransportError::Disconnected
        } else {
            TransportError::Io(e)
        }
    }

    fn count_sent(&mut self, m: &Message) {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += m.encoded_len() as u64;
    }

    /// Hands `frame` — `m`, encoded — to the socket. Nonblocking, the
    /// whole frame is queued and `try_flush` writes: a write per frame
    /// would cost the sender a syscall each and leave the peer chasing
    /// a half-written wave. The queue is unbounded here; event loops
    /// bound it by checking `queued_bytes()` before generating new
    /// frames (see `host::WRITE_HIGH_WATER`), so a stalled peer
    /// back-pressures its own producers instead of blocking the shared
    /// loop. Blocking, anything a nonblocking phase left queued is
    /// drained first, then the frame written in full.
    fn write_frame(&mut self, m: &Message, frame: &[u8]) -> Result<(), TransportError> {
        if self.nonblocking {
            self.out.extend_from_slice(frame);
        } else {
            if !self.out.is_empty() {
                let queued = std::mem::take(&mut self.out);
                self.stream
                    .write_all(&queued)
                    .map_err(Self::map_write_err)?;
            }
            self.stream.write_all(frame).map_err(Self::map_write_err)?;
        }
        self.count_sent(m);
        Ok(())
    }

    /// Splits the next complete frame off the receive buffer.
    fn take_frame(&mut self) -> Result<Option<Message>, TransportError> {
        let m = Message::decode_stream(&mut self.buf)?;
        if let Some(m) = &m {
            self.stats.frames_recv += 1;
            self.stats.bytes_recv += m.encoded_len() as u64;
        }
        Ok(m)
    }

    /// Waits until a read would not block — data, EOF, or an error the
    /// read will surface — or `budget` runs out. `false` = it ran out.
    /// A zero budget is one `poll(2)` probe; the socket's own timeout
    /// is never armed, so no kernel timer rounds the wait up.
    #[cfg(unix)]
    fn wait_readable(&self, budget: WallDuration) -> std::io::Result<bool> {
        use std::os::fd::AsRawFd as _;
        Ok(crate::poll::wait_fd(self.stream.as_raw_fd(), false, budget)?.any())
    }

    /// Off Unix there is no readiness primitive (`poll::wait_fd` only
    /// sleeps and guesses "ready"), so the read itself carries the
    /// bound: arm the socket's read timeout (min 1 µs — zero means
    /// "block forever") and let the read report `TimedOut`.
    #[cfg(not(unix))]
    fn wait_readable(&self, budget: WallDuration) -> std::io::Result<bool> {
        self.stream
            .set_read_timeout(Some(budget.max(WallDuration::from_micros(1))))?;
        Ok(true)
    }
}

/// Bytes asked of the socket per `read`. Small on purpose: the receive
/// buffer gives up consumed frames from its front at a cost linear in
/// what it still holds, so a window of a few frames keeps a wave's
/// decode linear while still taking a dozen frames per syscall.
const READ_CHUNK: usize = 4096;

impl Transport for TcpTransport {
    fn send(&mut self, m: &Message) -> Result<(), TransportError> {
        if self.nonblocking {
            // Encoded straight onto the tail of the queue.
            m.encode_into(&mut self.out)?;
            self.count_sent(m);
            return Ok(());
        }
        let frame = m.encode()?;
        self.write_frame(m, &frame)
    }

    fn send_shared(
        &mut self,
        m: &Message,
        frame: &mut Option<Vec<u8>>,
    ) -> Result<(), TransportError> {
        let frame = match frame {
            Some(f) => f,
            None => frame.insert(m.encode()?),
        };
        self.write_frame(m, frame)
    }

    fn recv_timeout(&mut self, timeout: WallDuration) -> Result<Option<Message>, TransportError> {
        if let Some(m) = self.take_frame()? {
            return Ok(Some(m));
        }
        // One deadline for the whole call, and it bounds the *waiting*:
        // each wait is armed with what is left of it, so a peer
        // trickling bytes cannot hold the caller past it (the partial
        // frame stays buffered for the next call to finish), and once
        // it has passed the wait is a probe — only bytes the kernel
        // already holds are still taken, so a zero budget drains a
        // frame of any size that has arrived and nothing else.
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if !self.wait_readable(left).map_err(TransportError::Io)? {
                self.stats.recv_timeouts += 1;
                return Ok(None);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(m) = self.take_frame()? {
                        return Ok(Some(m));
                    }
                }
                // Readiness that came to nothing — or, off Unix, the
                // read timeout expiring: wait again if there is time.
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if Instant::now() >= deadline {
                        self.stats.recv_timeouts += 1;
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(e.kind()) => return Err(TransportError::Disconnected),
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), TransportError> {
        if !on && !self.out.is_empty() {
            // Re-entering blocking mode must not strand queued frames:
            // drain them synchronously first.
            self.stream
                .set_nonblocking(false)
                .map_err(TransportError::Io)?;
            let queued = std::mem::take(&mut self.out);
            self.stream
                .write_all(&queued)
                .map_err(Self::map_write_err)?;
        }
        self.stream
            .set_nonblocking(on)
            .map_err(TransportError::Io)?;
        self.nonblocking = on;
        Ok(())
    }

    fn try_flush(&mut self) -> Result<bool, TransportError> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(e.kind()) => return Err(TransportError::Disconnected),
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        Ok(true)
    }

    fn queued_bytes(&self) -> usize {
        self.out.len()
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        use std::os::fd::AsRawFd as _;
        Some(self.stream.as_raw_fd())
    }
}

/// A connected loopback pair, both ends on the calling thread.
#[cfg(test)]
pub(crate) fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let near = TcpTransport::connect(&listener.local_addr().unwrap().to_string()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    (near, TcpTransport::new(stream).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FlowStat, RateAssignment};

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { node: 3 },
            Message::Stats {
                node: 3,
                now_ns: 99,
                flows: vec![FlowStat {
                    flow: 1,
                    sent: 5,
                    finished: false,
                    ready: true,
                }],
            },
            Message::Schedule {
                epoch: 7,
                rates: vec![RateAssignment {
                    flow: 1,
                    rate: 1000,
                }],
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn inproc_roundtrip_and_timeout() {
        let (mut a, mut b) = inproc_pair(16);
        for m in sample_messages() {
            a.send(&m).unwrap();
            let got = b
                .recv_timeout(WallDuration::from_millis(100))
                .unwrap()
                .unwrap();
            assert_eq!(got, m);
        }
        // Nothing pending → timeout returns None.
        assert!(b
            .recv_timeout(WallDuration::from_millis(5))
            .unwrap()
            .is_none());
        // Reverse direction works too.
        b.send(&Message::Hello { node: 9 }).unwrap();
        assert_eq!(
            a.recv_timeout(WallDuration::from_millis(100)).unwrap(),
            Some(Message::Hello { node: 9 })
        );
    }

    #[test]
    fn inproc_disconnect_is_detected() {
        let (mut a, b) = inproc_pair(4);
        drop(b);
        assert!(matches!(
            a.recv_timeout(WallDuration::from_millis(5)),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            // Echo everything until shutdown.
            loop {
                match t.recv_timeout(WallDuration::from_secs(5)).unwrap() {
                    Some(Message::Shutdown) => {
                        t.send(&Message::Shutdown).unwrap();
                        break;
                    }
                    Some(m) => t.send(&m).unwrap(),
                    None => {}
                }
            }
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        for m in sample_messages() {
            client.send(&m).unwrap();
            let got = client
                .recv_timeout(WallDuration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(got, m);
        }
        server.join().unwrap();
    }

    /// A peer trickling one byte per delay must not stretch
    /// `recv_timeout` past its deadline: the remaining budget shrinks on
    /// every partial read instead of re-arming in full. The message must
    /// still assemble across calls once all bytes arrive.
    #[test]
    fn tcp_partial_frames_respect_the_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let msg = Message::Stats {
            node: 5,
            now_ns: 1_234,
            flows: vec![FlowStat {
                flow: 9,
                sent: 77,
                finished: false,
                ready: true,
            }],
        };
        let frame = msg.encode().unwrap();
        let n_bytes = frame.len();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // One byte every 10 ms: the whole frame takes ~n×10 ms,
            // far beyond any single 40 ms recv budget below.
            for b in frame.iter() {
                stream.write_all(&[*b]).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(WallDuration::from_millis(10));
            }
            // Hold the socket open until the client is done reading.
            std::thread::sleep(WallDuration::from_millis(400));
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let budget = WallDuration::from_millis(40);
        let mut got = None;
        let mut calls = 0u32;
        while got.is_none() && calls < 100 {
            let t0 = Instant::now();
            got = client.recv_timeout(budget).unwrap();
            let waited = t0.elapsed();
            calls += 1;
            // The old code re-armed the full timeout per byte, waiting
            // up to n_bytes × budget. 3× slack absorbs scheduler jitter
            // while still catching any per-byte re-arm regression.
            assert!(
                waited < budget * 3,
                "recv_timeout blocked {waited:?} (budget {budget:?}, frame {n_bytes} bytes)"
            );
        }
        assert_eq!(got, Some(msg), "frame never assembled across calls");
        assert!(
            calls > 1,
            "frame arrived in one call — trickle server not trickling?"
        );
        server.join().unwrap();
    }

    /// Both transports report the same frame/byte counts for the same
    /// message set (encoded-body sizes), and timeouts are counted.
    #[test]
    fn transport_stats_agree_across_transports() {
        let msgs = sample_messages();
        let expect_bytes: u64 = msgs.iter().map(|m| m.encoded_len() as u64).sum();

        let (mut a, mut b) = inproc_pair(16);
        for m in &msgs {
            a.send(m).unwrap();
            b.recv_timeout(WallDuration::from_millis(100)).unwrap();
        }
        b.recv_timeout(WallDuration::from_millis(1)).unwrap();
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(
            (sa.frames_sent, sa.bytes_sent),
            (msgs.len() as u64, expect_bytes)
        );
        assert_eq!(
            (sb.frames_recv, sb.bytes_recv),
            (msgs.len() as u64, expect_bytes)
        );
        assert_eq!(sb.recv_timeouts, 1);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n = msgs.len();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let mut got = 0;
            while got < n {
                if t.recv_timeout(WallDuration::from_secs(5))
                    .unwrap()
                    .is_some()
                {
                    got += 1;
                }
            }
            t.stats()
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        for m in &msgs {
            client.send(m).unwrap();
        }
        let server_stats = server.join().unwrap();
        let cs = client.stats();
        assert_eq!(cs, sa, "tcp sender must match inproc sender");
        assert_eq!(
            (server_stats.frames_recv, server_stats.bytes_recv),
            (msgs.len() as u64, expect_bytes)
        );
    }

    #[test]
    fn disconnect_error_kinds_are_unified() {
        // All three "peer is gone" kinds map to Disconnected; everything
        // else stays a plain I/O error for the caller to report.
        assert!(is_disconnect(ErrorKind::BrokenPipe));
        assert!(is_disconnect(ErrorKind::ConnectionReset));
        assert!(is_disconnect(ErrorKind::ConnectionAborted));
        assert!(!is_disconnect(ErrorKind::WouldBlock));
        assert!(!is_disconnect(ErrorKind::PermissionDenied));
    }

    #[test]
    fn oversized_send_fails_on_the_sender() {
        let (mut a, _b) = inproc_pair(4);
        let rates = vec![
            crate::proto::RateAssignment { flow: 0, rate: 0 };
            crate::proto::MAX_FRAME / 12 + 1
        ];
        let err = a
            .send(&Message::Schedule { epoch: 1, rates })
            .expect_err("oversized send must fail");
        assert!(matches!(
            err,
            TransportError::Proto(ProtoError::Oversized(_))
        ));
    }

    /// Nonblocking sends must never block the caller: once the kernel
    /// socket buffer fills, frames queue in the transport's outbound
    /// buffer (`queued_bytes` > 0) and drain via `try_flush` as the
    /// peer reads — with every frame arriving intact and in order.
    #[test]
    fn nonblocking_send_queues_and_flushes_without_blocking() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let big = Message::Stats {
            node: 1,
            now_ns: 2,
            flows: (0..100_000)
                .map(|i| FlowStat {
                    flow: i,
                    sent: i as u64,
                    finished: false,
                    ready: true,
                })
                .collect(),
        };
        let n = 32;
        let expect = big.clone();
        // The server must not read a byte until every send has
        // returned — otherwise a concurrent drain could keep the
        // kernel buffers from ever filling and the queue assertion
        // would be racy.
        let (sends_done_tx, sends_done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            sends_done_rx.recv().unwrap();
            for _ in 0..n {
                let m = t
                    .recv_timeout(WallDuration::from_secs(10))
                    .unwrap()
                    .expect("frame");
                assert_eq!(m, expect, "frame corrupted across partial writes");
            }
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut saw_queue = false;
        let t0 = Instant::now();
        for _ in 0..n {
            client.send(&big).unwrap();
            saw_queue |= client.queued_bytes() > 0;
        }
        // ~45 MB against a socket nobody is reading: the sends must
        // return fast (no blocking) and the overflow — far more than
        // any kernel buffer pair holds — must be queued locally.
        assert!(
            t0.elapsed() < WallDuration::from_secs(5),
            "nonblocking sends blocked for {:?}",
            t0.elapsed()
        );
        assert!(saw_queue, "outbound queue never engaged");
        sends_done_tx.send(()).unwrap();

        let deadline = Instant::now() + WallDuration::from_secs(30);
        while !client.try_flush().unwrap() {
            assert!(Instant::now() < deadline, "flush never completed");
            std::thread::sleep(WallDuration::from_millis(1));
        }
        assert_eq!(client.queued_bytes(), 0);
        server.join().unwrap();
        assert_eq!(client.stats().frames_sent, n as u64);
    }

    #[cfg(unix)]
    #[test]
    fn raw_fd_is_exposed_only_for_sockets() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _srv = std::thread::spawn(move || listener.accept());
        let client = TcpTransport::connect(&addr.to_string()).unwrap();
        assert!(client.raw_fd().is_some());
        let (a, _b) = inproc_pair(4);
        let boxed: Box<dyn Transport> = Box::new(a);
        assert!(boxed.raw_fd().is_none());
        assert_eq!(boxed.queued_bytes(), 0);
    }

    /// A zero budget is a readiness probe, not a socket timeout: the
    /// kernel used to round the 1 µs `SO_RCVTIMEO` up to two timer
    /// ticks, 8 ms per idle link per coordinator drain.
    #[test]
    fn tcp_idle_probe_is_not_a_timer_wait() {
        let (mut near, _far) = tcp_pair();
        let mut costs: Vec<WallDuration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert!(near.recv_timeout(WallDuration::ZERO).unwrap().is_none());
                t0.elapsed()
            })
            .collect();
        costs.sort_unstable();
        assert!(
            costs[10] < WallDuration::from_millis(1),
            "median idle probe took {:?}",
            costs[10]
        );

        // The cost is per link: one drain pass over 8 idle links.
        let mut links: Vec<_> = (0..8).map(|_| tcp_pair()).collect();
        let t0 = Instant::now();
        for (near, _far) in &mut links {
            assert!(near.recv_timeout(WallDuration::ZERO).unwrap().is_none());
        }
        assert!(
            t0.elapsed() < WallDuration::from_millis(5),
            "8 idle links took {:?} to drain",
            t0.elapsed()
        );
    }

    /// A real budget on an idle link is waited out once, in full, and
    /// counted once.
    #[test]
    fn tcp_timeout_returns_none() {
        let (mut near, _far) = tcp_pair();
        let t0 = Instant::now();
        let got = near.recv_timeout(WallDuration::from_millis(20)).unwrap();
        let waited = t0.elapsed();
        assert!(got.is_none());
        assert!(
            waited >= WallDuration::from_millis(20) && waited < WallDuration::from_millis(60),
            "a 20 ms budget was waited for {waited:?}"
        );
        assert_eq!(near.stats().recv_timeouts, 1);
    }

    /// Readiness wakes the wait: a frame landing early in a long budget
    /// is returned when it lands, the budget is not slept out.
    #[test]
    fn tcp_arrival_wakes_the_wait() {
        let (mut near, mut far) = tcp_pair();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(WallDuration::from_millis(5));
            far.send(&Message::Hello { node: 1 }).unwrap();
            far
        });
        let t0 = Instant::now();
        let got = near.recv_timeout(WallDuration::from_millis(200)).unwrap();
        assert_eq!(got, Some(Message::Hello { node: 1 }));
        assert!(
            t0.elapsed() < WallDuration::from_millis(50),
            "the frame was handed over after {:?}",
            t0.elapsed()
        );
        sender.join().unwrap();
    }

    /// In nonblocking mode `send` only queues: a 100-frame stats wave
    /// leaves in one `try_flush` (O(1) writes, not one per frame), and
    /// the peer reads every frame intact and in order.
    #[test]
    fn tcp_nonblocking_wave_leaves_in_one_flush() {
        let (mut near, mut far) = tcp_pair();
        near.set_nonblocking(true).unwrap();
        let frame = |node| Message::Stats {
            node,
            now_ns: 7,
            flows: (0..20)
                .map(|flow| FlowStat {
                    flow,
                    sent: u64::from(node),
                    finished: false,
                    ready: true,
                })
                .collect(),
        };
        for node in 0..100 {
            near.send(&frame(node)).unwrap();
        }
        assert!(near.queued_bytes() > 0, "sends reached the wire one by one");
        assert!(
            near.try_flush().unwrap(),
            "one flush must empty the queue into an idle socket"
        );
        assert_eq!(near.queued_bytes(), 0);
        for node in 0..100 {
            let got = far.recv_timeout(WallDuration::from_secs(5)).unwrap();
            assert_eq!(got, Some(frame(node)));
        }
    }

    /// A fan-out costs one encode however many framed links it has —
    /// blocking or queueing — while an in-process link takes the value
    /// and never encodes; every peer reads the same message.
    #[test]
    fn fanout_encodes_once_for_tcp_and_never_for_inproc() {
        use crate::proto::ENCODES;
        let encodes = || ENCODES.with(|n| n.get());
        let m = sample_messages().remove(2);

        let mut links: Vec<_> = (0..4).map(|_| tcp_pair()).collect();
        links[3].0.set_nonblocking(true).unwrap();
        let (before, mut frame) = (encodes(), None);
        for (near, _) in &mut links {
            near.send_shared(&m, &mut frame).unwrap();
        }
        assert_eq!(encodes() - before, 1, "L links, one encode");
        assert!(links[3].0.queued_bytes() > 0 && links[3].0.try_flush().unwrap());
        for (near, far) in &mut links {
            assert_eq!(
                far.recv_timeout(WallDuration::from_secs(5)).unwrap(),
                Some(m.clone())
            );
            assert_eq!(near.stats().frames_sent, 1);
            assert_eq!(near.stats().bytes_sent, m.encoded_len() as u64);
        }
        // The plain path: one encode per send, straight into the queue
        // when nonblocking.
        let before = encodes();
        links[3].0.send(&m).unwrap();
        links[0].0.send(&m).unwrap();
        assert_eq!(encodes() - before, 2);
        assert_eq!(links[3].0.queued_bytes(), 4 + m.encoded_len());

        let (mut a, mut b) = inproc_pair(4);
        let (before, mut frame) = (encodes(), None);
        a.send_shared(&m, &mut frame).unwrap();
        assert_eq!(encodes() - before, 0);
        assert!(frame.is_none(), "no frame was needed");
        assert_eq!(b.recv_timeout(WallDuration::from_secs(1)).unwrap(), Some(m));
    }
}
