//! Readiness polling for the TCP receive path and the agent host, and
//! exact timer wake-ups for the coordinator's δ wait.
//!
//! The workspace vendors no `libc` crate and pulls in no async
//! runtime, so this module declares the two C functions they need —
//! `poll(2)` and, on Linux, `prctl(2)` — itself, at the stdlib-FFI
//! level. The crate root is `#![deny(unsafe_code)]`; this module's
//! `sys` shim carries a scoped allow and holds every unsafe line of
//! the crate. The surface is two safe wrappers: [`wait_fd`] blocks
//! until one file descriptor is readable/writable or a timeout
//! elapses, and [`ExactTimers`] holds the calling thread's timer slack
//! at 1 ns until it is dropped.
//!
//! On non-Unix targets [`wait_fd`] degrades to a plain sleep that
//! reports the descriptor as ready, which turns the event loop into a
//! correct (if less efficient) periodic poller — the same behaviour
//! the in-process transport gets. "Ready" is a guess there, so
//! `TcpTransport::recv_timeout` does not build on it off Unix: it
//! keeps the socket read timeout as its bound.

use std::time::Duration;

/// Holds the calling thread's timer slack at 1 ns, and gives the
/// thread its previous slack back on drop.
///
/// Linux lets a sleeping thread's timer fire up to its *timer slack*
/// late — 50 µs by default — so that wake-ups can be batched. The
/// coordinator sleeps δ once per epoch and every microsecond past δ is
/// time its schedule is late (DESIGN.md, "Epoch pacing"); with this
/// guard held, a sleep ends at δ plus the scheduler's wake-up latency.
/// The slack is per thread, so the guard is neither `Send` nor `Sync`:
/// it is restored on the thread that set it.
///
/// Off Linux, and where `prctl(2)` refuses, the guard does nothing and
/// sleeps keep the default slack.
pub struct ExactTimers {
    /// The slack to restore, when it was read and the new one set.
    restore: Option<u64>,
    _thread: std::marker::PhantomData<*const ()>,
}

impl ExactTimers {
    /// Sets the calling thread's timer slack to 1 ns.
    pub fn hold() -> ExactTimers {
        let restore = timer_slack_ns().filter(|_| set_timer_slack(1));
        ExactTimers {
            restore,
            _thread: std::marker::PhantomData,
        }
    }
}

impl Drop for ExactTimers {
    fn drop(&mut self) {
        if let Some(ns) = self.restore {
            set_timer_slack(ns);
        }
    }
}

/// The calling thread's timer slack in nanoseconds; `None` off Linux
/// or when it cannot be read.
#[cfg(target_os = "linux")]
pub fn timer_slack_ns() -> Option<u64> {
    sys::timer_slack()
}

/// The calling thread's timer slack in nanoseconds; `None` off Linux
/// or when it cannot be read.
#[cfg(not(target_os = "linux"))]
pub fn timer_slack_ns() -> Option<u64> {
    None
}

#[cfg(target_os = "linux")]
fn set_timer_slack(ns: u64) -> bool {
    sys::set_timer_slack(ns)
}

#[cfg(not(target_os = "linux"))]
fn set_timer_slack(_ns: u64) -> bool {
    false
}

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

    #[cfg(target_os = "linux")]
    const PR_SET_TIMERSLACK: core::ffi::c_int = 29;
    #[cfg(target_os = "linux")]
    const PR_GET_TIMERSLACK: core::ffi::c_int = 30;

    #[cfg(target_os = "linux")]
    extern "C" {
        fn prctl(option: core::ffi::c_int, ...) -> core::ffi::c_int;
    }

    /// `prctl(PR_GET_TIMERSLACK)`: the slack comes back as the return
    /// value; a negative one is an error.
    #[cfg(target_os = "linux")]
    pub fn timer_slack() -> Option<u64> {
        // SAFETY: PR_GET_TIMERSLACK reads the calling thread's own
        // slack and takes no pointer; the unused arguments are zero.
        let rc = unsafe {
            prctl(
                PR_GET_TIMERSLACK,
                0 as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
            )
        };
        u64::try_from(rc).ok()
    }

    /// `prctl(PR_SET_TIMERSLACK, ns)`; whether it took. `ns` is 1 or a
    /// slack [`timer_slack`] read as a C `int`, so it fits the
    /// `unsigned long` argument.
    #[cfg(target_os = "linux")]
    pub fn set_timer_slack(ns: u64) -> bool {
        // SAFETY: PR_SET_TIMERSLACK sets the calling thread's own slack
        // from an integer and takes no pointer; the unused arguments
        // are zero.
        let rc = unsafe {
            prctl(
                PR_SET_TIMERSLACK,
                ns as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
                0 as core::ffi::c_ulong,
            )
        };
        rc == 0
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

    #[cfg(target_os = "linux")]
    #[test]
    fn exact_timers_hold_one_nanosecond_and_give_the_slack_back() {
        // A thread of its own: the test harness's threads are shared.
        std::thread::spawn(|| {
            let before = timer_slack_ns().expect("PR_GET_TIMERSLACK");
            assert_ne!(before, 1, "the default slack is not 1 ns");
            {
                let _exact = ExactTimers::hold();
                assert_eq!(timer_slack_ns(), Some(1));
            }
            assert_eq!(timer_slack_ns(), Some(before));
        })
        .join()
        .unwrap();
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
