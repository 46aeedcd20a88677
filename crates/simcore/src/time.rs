//! Simulated time.
//!
//! [`Time`] is an absolute instant and [`Duration`] a span, both counted
//! in integer nanoseconds since the start of the simulation. Nanosecond
//! granularity is fine enough that rounding a transfer time *up* to the
//! next tick (the only rounding this workspace ever performs) costs a
//! 1 Gbps flow at most one byte-time of error, and coarse enough that a
//! `u64` holds ~584 years of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute instant in simulated time (nanoseconds since t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// A sentinel "never happens" instant, ordered after every real one.
    pub const NEVER: Time = Time(u64::MAX);
    /// The latest instant a trace may schedule and a snapshot may hold,
    /// about 146 years in. The epoch loop adds δ, readiness delays and
    /// restart delays to instants without checking; below this bound
    /// none of those sums can wrap.
    pub const LATEST: Time = Time(1 << 62);

    /// Builds an instant from whole milliseconds (trace files use ms).
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// This instant expressed in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This instant in seconds as a float — for reporting only, never for
    /// simulation arithmetic.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from an earlier instant to this one.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier <= self, "since() called with a later instant");
        Duration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The next multiple of `grid` at or after this instant.
    ///
    /// The coordinator computes schedules on a δ grid; an event that lands
    /// mid-interval only takes effect at the next boundary. A `grid` of
    /// zero means "no quantization" and returns `self`.
    pub fn round_up_to(self, grid: Duration) -> Time {
        if grid.0 == 0 {
            return self;
        }
        match self.0 % grid.0 {
            0 => self,
            rem => Time(self.0.saturating_add(grid.0 - rem)),
        }
    }

    /// Whether this is the [`Time::NEVER`] sentinel.
    pub const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }

    /// Checked addition; `NEVER` absorbs any addition.
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// A sentinel "infinite" span.
    pub const INFINITE: Duration = Duration(u64::MAX);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// This span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This span in seconds as a float — reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the [`Duration::INFINITE`] sentinel.
    pub const fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// `self * num / den` with 128-bit intermediates (no overflow for any
    /// realistic span). Used to scale trace inter-arrival times for the
    /// Fig 14(d) contention sweep.
    pub fn mul_ratio(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "mul_ratio with zero denominator");
        Duration(((self.0 as u128 * num as u128) / den as u128) as u64)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Rem<Duration> for Time {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_never() {
            write!(f, "T[never]")
        } else {
            write!(f, "T[{:.6}s]", self.as_secs_f64())
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Time::from_millis(8).as_nanos(), 8_000_000);
        assert_eq!(Time::from_secs(2).as_millis(), 2_000);
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_millis(8).as_millis(), 8);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Duration::from_millis(6);
        assert_eq!(t, Time::from_millis(16));
        assert_eq!(t - Time::from_millis(10), Duration::from_millis(6));
        assert_eq!(t.since(Time::from_millis(16)), Duration::ZERO);
        assert_eq!(
            Time::from_millis(5).saturating_since(Time::from_millis(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn grid_rounding_matches_coordinator_semantics() {
        let delta = Duration::from_millis(8);
        // Exactly on the boundary stays put.
        assert_eq!(
            Time::from_millis(16).round_up_to(delta),
            Time::from_millis(16)
        );
        // Mid-interval rounds to the next boundary.
        assert_eq!(
            Time::from_millis(17).round_up_to(delta),
            Time::from_millis(24)
        );
        // Zero grid disables quantization.
        assert_eq!(Time(123).round_up_to(Duration::ZERO), Time(123));
    }

    #[test]
    fn never_is_after_everything_and_absorbs() {
        assert!(Time::NEVER > Time::from_secs(1_000_000));
        assert!(Time::NEVER.is_never());
        assert!(Time::NEVER
            .saturating_add(Duration::from_secs(1))
            .is_never());
        assert_eq!(
            Time::NEVER.round_up_to(Duration::from_millis(8)),
            Time::NEVER
        );
    }

    #[test]
    fn ratio_scaling() {
        let d = Duration::from_secs(10);
        assert_eq!(d.mul_ratio(1, 2), Duration::from_secs(5));
        assert_eq!(d.mul_ratio(4, 1), Duration::from_secs(40));
        // Large values do not overflow thanks to the u128 intermediate.
        let big = Duration::from_secs(3600 * 24 * 365);
        assert_eq!(big.mul_ratio(3, 3), big);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration(12)), "12ns");
        assert_eq!(format!("{}", Duration::INFINITE), "inf");
        assert_eq!(format!("{}", Time::NEVER), "T[never]");
    }
}
