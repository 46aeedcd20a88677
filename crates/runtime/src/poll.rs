//! Readiness polling for the TCP receive path and the agent host.
//!
//! The workspace vendors no `libc` crate and pulls in no async
//! runtime, so this module declares the one C function they need —
//! `poll(2)` — itself, at the stdlib-FFI level. It is the
//! *only* unsafe code in the crate (the crate root is
//! `#![deny(unsafe_code)]`; this module carries a scoped allow), and
//! the surface is a single safe wrapper: [`wait_fd`] blocks until one
//! file descriptor is readable/writable or a timeout elapses.
//!
//! On non-Unix targets [`wait_fd`] degrades to a plain sleep that
//! reports the descriptor as ready, which turns the event loop into a
//! correct (if less efficient) periodic poller — the same behaviour
//! the in-process transport gets. "Ready" is a guess there, so
//! `TcpTransport::recv_timeout` does not build on it off Unix: it
//! keeps the socket read timeout as its bound.

use std::time::Duration;

/// What [`wait_fd`] observed on the descriptor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket will accept writes without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the
    /// next read will surface the exact condition.
    pub hangup: bool,
}

impl Readiness {
    /// Whether anything at all happened before the timeout.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.hangup
    }
}

#[cfg(unix)]
#[allow(unsafe_code)] // the crate-wide deny is lifted only for this FFI shim
mod sys {
    use super::Readiness;
    use std::time::{Duration, Instant};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        /// `nfds_t` is `unsigned long` on every Unix libc we target.
        fn poll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: core::ffi::c_int,
        ) -> core::ffi::c_int;
    }

    pub fn wait_fd(
        fd: std::os::fd::RawFd,
        want_write: bool,
        timeout: Duration,
    ) -> std::io::Result<Readiness> {
        let mut events = POLLIN;
        if want_write {
            events |= POLLOUT;
        }
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        // One deadline for the whole call: an `EINTR` retry waits only
        // for what is left of it, so callers' own deadlines
        // (`TcpTransport::recv_timeout`) can rest on this one.
        let deadline = Instant::now() + timeout;
        let mut left = timeout;
        loop {
            // Round *up* to whole milliseconds so a 2 ms tick does not
            // busy-spin as a 1 ms poll, and clamp to the i32 the C ABI
            // takes.
            let ms = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as core::ffi::c_int;
            // SAFETY: `pfd` is a valid, properly-aligned `pollfd` for
            // the duration of the call, and `nfds` is exactly 1.
            let rc = unsafe { poll(&mut pfd as *mut PollFd, 1, ms) };
            if rc >= 0 {
                return Ok(Readiness {
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
            left = deadline.saturating_duration_since(Instant::now());
        }
    }
}

/// Waits until `fd` is readable — and, with `want_write`, writable —
/// or `timeout` elapses. A zero timeout is a nonblocking readiness
/// probe. Returns what was observed; all-false means the timeout
/// expired quietly.
///
/// The wait has one deadline, taken on entry: a signal (`EINTR`)
/// restarts `poll(2)` with what remains of it, not with the full
/// `timeout`. `poll(2)` counts in milliseconds and the budget is
/// rounded **up**, so a non-zero sub-millisecond budget waits up to
/// 1 ms.
#[cfg(unix)]
pub fn wait_fd(
    fd: std::os::fd::RawFd,
    want_write: bool,
    timeout: Duration,
) -> std::io::Result<Readiness> {
    sys::wait_fd(fd, want_write, timeout)
}

/// Portable fallback: sleeps out the timeout and conservatively
/// reports the descriptor ready, degrading readiness-driven loops to
/// periodic polling.
#[cfg(not(unix))]
pub fn wait_fd(_fd: i32, want_write: bool, timeout: Duration) -> std::io::Result<Readiness> {
    std::thread::sleep(timeout);
    Ok(Readiness {
        readable: true,
        writable: want_write,
        hangup: false,
    })
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd as _;
    use std::time::Instant;

    fn loopback_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn quiet_socket_times_out_without_readiness() {
        let (client, _server) = loopback_pair();
        let t0 = Instant::now();
        let r = wait_fd(client.as_raw_fd(), false, Duration::from_millis(30)).unwrap();
        assert!(!r.any(), "nothing was sent, nothing should be ready: {r:?}");
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "returned {:?} early",
            t0.elapsed()
        );
    }

    #[test]
    fn written_bytes_wake_the_poller() {
        let (client, mut server) = loopback_pair();
        server.write_all(b"x").unwrap();
        let r = wait_fd(client.as_raw_fd(), false, Duration::from_secs(5)).unwrap();
        assert!(r.readable, "pending byte must poll readable: {r:?}");
        // An idle socket with room in its send buffer is writable too.
        let r = wait_fd(client.as_raw_fd(), true, Duration::from_secs(5)).unwrap();
        assert!(r.writable, "send buffer has room, POLLOUT expected: {r:?}");
    }

    #[test]
    fn peer_close_reports_readable_or_hangup() {
        let (client, server) = loopback_pair();
        drop(server);
        let r = wait_fd(client.as_raw_fd(), false, Duration::from_secs(5)).unwrap();
        // EOF surfaces as POLLIN (read returns 0) and often POLLHUP.
        assert!(r.readable || r.hangup, "close went unnoticed: {r:?}");
    }
}
