//! Data sizes and rates, with exact transfer arithmetic.
//!
//! The whole workspace agrees on these two units:
//!
//! * [`Bytes`] — a data volume (flow size, bytes sent, queue threshold).
//! * [`Rate`] — bytes per second (a port's capacity, a flow's assigned
//!   rate). 1 Gbps, the paper's port speed, is `Rate::gbps(1)` =
//!   125 000 000 B/s.
//!
//! [`transfer_time`] and [`bytes_in`] convert between the two without
//! ever touching floating point: a flow of `n` bytes at rate `r`
//! completes in exactly `ceil(n * 1e9 / r)` nanoseconds, and the
//! simulator credits `floor(r * dt / 1e9)` bytes for an interval `dt`.
//! Rounding the completion up and the credit down means a flow is never
//! reported finished before its bytes have actually been accounted.
//!
//! ## Why the 64-bit path is exact
//!
//! Both conversions multiply two `u64`s and divide. The product needs
//! 128 bits in general, and a 128-bit division is a library call, while
//! the engine runs both conversions for every flowing flow on every
//! step. So each first tries the product in 64 bits (`checked_mul`) and
//! divides there; only a product that overflows takes the 128-bit
//! formula. When the product fits, the two formulas compute the same
//! integer — the same numerator, the same divisor, the same rounding —
//! so the result is bit-identical, not approximately equal. And every
//! workload stays on the 64-bit side: a credit multiplies a rate of at
//! most 1.25·10⁸ B/s (1 Gbps) by a step of at most δ = 8·10⁶ ns, about
//! 10¹⁵, and a transfer time multiplies a volume by 10⁹, which fits for
//! any volume up to `⌊u64::MAX / 10⁹⌋` B ≈ 18.4 GB. The property tests
//! below hold both conversions to the 128-bit formula on each side of
//! those edges.

use crate::time::Duration;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A data volume in bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Bytes(pub u64);

/// A data rate in bytes per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Rate(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Builds a volume from kilobytes (10^3).
    pub const fn kb(n: u64) -> Bytes {
        Bytes(n * 1_000)
    }

    /// Builds a volume from megabytes (10^6). Trace files and the paper's
    /// queue thresholds are quoted in MB.
    pub const fn mb(n: u64) -> Bytes {
        Bytes(n * 1_000_000)
    }

    /// Builds a volume from gigabytes (10^9).
    pub const fn gb(n: u64) -> Bytes {
        Bytes(n * 1_000_000_000)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction (draining a flow never goes negative).
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// `self / n`, used to split a queue threshold equally among the
    /// flows of a CoFlow (Saath's per-flow threshold, Eq. 1 in the
    /// paper). Integer division rounds down, which errs on the side of
    /// moving CoFlows to lower-priority queues *sooner* — the same
    /// direction the optimization pushes.
    pub fn div_per_flow(self, n: usize) -> Bytes {
        assert!(n > 0, "CoFlow with zero flows");
        Bytes(self.0 / n as u64)
    }

    /// Saturating multiplication.
    pub fn saturating_mul(self, k: u64) -> Bytes {
        Bytes(self.0.saturating_mul(k))
    }

    /// Minimum of two volumes.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
}

impl Rate {
    /// Zero rate (an unscheduled flow).
    pub const ZERO: Rate = Rate(0);

    /// Builds a rate from bits per second.
    pub const fn bps(bits: u64) -> Rate {
        Rate(bits / 8)
    }

    /// Builds a rate from megabits per second.
    pub const fn mbps(n: u64) -> Rate {
        Rate(n * 1_000_000 / 8)
    }

    /// Builds a rate from gigabits per second. The paper's testbed and
    /// simulations use 1 Gbps ports.
    pub const fn gbps(n: u64) -> Rate {
        Rate(n * 1_000_000_000 / 8)
    }

    /// The raw rate in bytes per second.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this rate is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Minimum of two rates (the bottleneck).
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Saturating subtraction (remaining capacity after an allocation).
    pub fn saturating_sub(self, rhs: Rate) -> Rate {
        Rate(self.0.saturating_sub(rhs.0))
    }

    /// Equal split of this rate among `n` flows, rounding down so the
    /// split never oversubscribes the port.
    pub fn div_even(self, n: usize) -> Rate {
        assert!(n > 0, "splitting a rate among zero flows");
        Rate(self.0 / n as u64)
    }

    /// Scales the rate by `num/den` (straggler slowdown injection).
    pub fn mul_ratio(self, num: u64, den: u64) -> Rate {
        assert!(den != 0, "mul_ratio with zero denominator");
        Rate(((self.0 as u128 * num as u128) / den as u128) as u64)
    }
}

/// Exact time to move `volume` at `rate`: `ceil(volume * 1e9 / rate)`
/// nanoseconds. A zero rate yields [`Duration::INFINITE`]; zero volume
/// completes instantly.
pub fn transfer_time(volume: Bytes, rate: Rate) -> Duration {
    if volume.0 == 0 {
        return Duration::ZERO;
    }
    if rate.0 == 0 {
        return Duration::INFINITE;
    }
    if let Some(num) = volume.0.checked_mul(1_000_000_000) {
        // `ns ≤ num < u64::MAX`: never the INFINITE sentinel.
        return Duration(num.div_ceil(rate.0));
    }
    let num = volume.0 as u128 * 1_000_000_000u128;
    let den = rate.0 as u128;
    let ns = num.div_ceil(den);
    if ns >= u64::MAX as u128 {
        Duration::INFINITE
    } else {
        Duration(ns as u64)
    }
}

/// Bytes moved in `dt` at `rate`: `floor(rate * dt / 1e9)`.
pub fn bytes_in(rate: Rate, dt: Duration) -> Bytes {
    if dt.is_infinite() {
        // Callers never ask for an infinite advance with a nonzero rate;
        // treat it as "as much as a u64 can hold" defensively.
        return if rate.0 == 0 {
            Bytes::ZERO
        } else {
            Bytes(u64::MAX)
        };
    }
    if let Some(num) = rate.0.checked_mul(dt.as_nanos()) {
        return Bytes(num / 1_000_000_000);
    }
    let num = rate.0 as u128 * dt.as_nanos() as u128;
    Bytes((num / 1_000_000_000u128).min(u64::MAX as u128) as u64)
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0 - rhs.0)
    }
}

impl SubAssign for Rate {
    fn sub_assign(&mut self, rhs: Rate) {
        self.0 -= rhs.0;
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GB", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.0 as f64 * 8.0;
        if bits >= 1e9 {
            write!(f, "{:.2}Gbps", bits / 1e9)
        } else if bits >= 1e6 {
            write!(f, "{:.2}Mbps", bits / 1e6)
        } else {
            write!(f, "{}bps", bits)
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(Bytes::mb(10).as_u64(), 10_000_000);
        assert_eq!(Bytes::gb(1), Bytes::mb(1_000));
        assert_eq!(Rate::gbps(1).as_u64(), 125_000_000);
        assert_eq!(Rate::mbps(8).as_u64(), 1_000_000);
        assert_eq!(Rate::bps(800), Rate(100));
    }

    #[test]
    fn transfer_time_exact_cases() {
        // 1 MB at 1 Gbps = 8 ms exactly (the paper's δ anchor: "the time
        // required to send 1MB at a port, which is 8ms").
        assert_eq!(
            transfer_time(Bytes::mb(1), Rate::gbps(1)),
            Duration::from_millis(8)
        );
        assert_eq!(transfer_time(Bytes::ZERO, Rate::gbps(1)), Duration::ZERO);
        assert!(transfer_time(Bytes(1), Rate::ZERO).is_infinite());
        // Ceil rounding: 1 byte at 3 B/s needs 333,333,334 ns.
        assert_eq!(transfer_time(Bytes(1), Rate(3)), Duration(333_333_334));
    }

    #[test]
    fn bytes_in_floor() {
        assert_eq!(
            bytes_in(Rate::gbps(1), Duration::from_millis(8)),
            Bytes::mb(1)
        );
        assert_eq!(bytes_in(Rate(3), Duration(333_333_333)), Bytes(0));
        assert_eq!(bytes_in(Rate(3), Duration(333_333_334)), Bytes(1));
        assert_eq!(bytes_in(Rate::ZERO, Duration::INFINITE), Bytes::ZERO);
        assert_eq!(bytes_in(Rate(1), Duration::INFINITE), Bytes(u64::MAX));
    }

    #[test]
    fn per_flow_split() {
        // 200 MB threshold over 100 flows = 2 MB per flow (paper §4.2-D3).
        assert_eq!(Bytes::mb(200).div_per_flow(100), Bytes::mb(2));
        assert_eq!(Rate::gbps(1).div_even(4), Rate(31_250_000));
    }

    /// [`transfer_time`] as it was before the 64-bit path: the 128-bit
    /// formula alone, the specification the fast path is held to.
    fn transfer_time_u128(volume: Bytes, rate: Rate) -> Duration {
        if volume.0 == 0 {
            return Duration::ZERO;
        }
        if rate.0 == 0 {
            return Duration::INFINITE;
        }
        let ns = (volume.0 as u128 * 1_000_000_000u128).div_ceil(rate.0 as u128);
        if ns >= u64::MAX as u128 {
            Duration::INFINITE
        } else {
            Duration(ns as u64)
        }
    }

    /// [`bytes_in`] as it was before the 64-bit path.
    fn bytes_in_u128(rate: Rate, dt: Duration) -> Bytes {
        if dt.is_infinite() {
            return if rate.0 == 0 {
                Bytes::ZERO
            } else {
                Bytes(u64::MAX)
            };
        }
        let num = rate.0 as u128 * dt.as_nanos() as u128;
        Bytes((num / 1_000_000_000u128).min(u64::MAX as u128) as u64)
    }

    /// `⌊u64::MAX / 10⁹⌋`: the largest volume whose nanosecond numerator
    /// fits in 64 bits.
    const LAST_U64_VOLUME: u64 = u64::MAX / 1_000_000_000;

    /// A `u64` drawn log-uniformly: every magnitude is as likely as any
    /// other, so products land on both sides of 2⁶⁴.
    fn magnitude() -> impl Strategy<Value = u64> {
        (0u32..64, any::<u64>()).prop_map(|(shift, x)| x >> shift)
    }

    #[test]
    fn the_64_bit_path_meets_the_u128_formula_at_its_edges() {
        assert_eq!(LAST_U64_VOLUME, 18_446_744_073);
        assert!(LAST_U64_VOLUME.checked_mul(1_000_000_000).is_some());
        assert!((LAST_U64_VOLUME + 1).checked_mul(1_000_000_000).is_none());
        let volumes = [
            0,
            1,
            LAST_U64_VOLUME - 1,
            LAST_U64_VOLUME,
            LAST_U64_VOLUME + 1,
            u64::MAX,
        ];
        let rates = [0, 1, 3, Rate::gbps(1).0, u64::MAX - 1, u64::MAX];
        for v in volumes {
            for r in rates {
                let (v, r) = (Bytes(v), Rate(r));
                assert_eq!(
                    transfer_time(v, r),
                    transfer_time_u128(v, r),
                    "{v:?} at {r:?}"
                );
            }
        }
        // rate · dt at 2⁶⁴ − 1 = 3 · 6 148 914 691 236 517 205, at 2⁶⁴ =
        // 2³² · 2³² and at 2⁶⁴ + 1 = 274 177 · 67 280 421 310 721, each
        // factor pair both ways round; then the extreme rates against
        // the extreme steps, the infinite one among them.
        let products = [
            (3, u64::MAX / 3),
            (1 << 32, 1 << 32),
            (274_177, 67_280_421_310_721),
        ];
        assert_eq!(274_177u128 * 67_280_421_310_721, (1u128 << 64) + 1);
        let mut pairs: Vec<(u64, u64)> = products
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a), (a, b - 1), (a, b + 1)])
            .collect();
        for r in [0, 1, 2, Rate::gbps(1).0, u64::MAX - 1, u64::MAX] {
            for dt in [0, 1, 8_000_000, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                pairs.push((r, dt));
            }
        }
        for (r, dt) in pairs {
            let (r, dt) = (Rate(r), Duration(dt));
            assert_eq!(bytes_in(r, dt), bytes_in_u128(r, dt), "{r:?} over {dt:?}");
        }
        assert!(Duration(u64::MAX).is_infinite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The transfer time equals the 128-bit formula's for volumes
        /// and rates of every magnitude, on both sides of the volume
        /// whose numerator stops fitting in 64 bits.
        #[test]
        fn transfer_time_equals_the_u128_formula(
            volume in magnitude(),
            rate in magnitude(),
            near in (LAST_U64_VOLUME - 64)..=(LAST_U64_VOLUME + 64),
        ) {
            for v in [volume, near] {
                let (v, r) = (Bytes(v), Rate(rate));
                prop_assert_eq!(transfer_time(v, r), transfer_time_u128(v, r));
            }
        }

        /// The credit equals the 128-bit formula's for rates and steps
        /// of every magnitude, products past 2⁶⁴ among them.
        #[test]
        fn bytes_in_equals_the_u128_formula(rate in magnitude(), dt in magnitude()) {
            let (r, dt) = (Rate(rate), Duration(dt));
            prop_assert_eq!(bytes_in(r, dt), bytes_in_u128(r, dt));
        }
    }

    proptest! {
        /// A flow never finishes before its bytes are accounted: the
        /// bytes credited over the (ceil-rounded) transfer time always
        /// cover the volume.
        #[test]
        fn credit_covers_volume(vol in 1u64..=u64::from(u32::MAX), rate in 1u64..=Rate::gbps(100).as_u64()) {
            let t = transfer_time(Bytes(vol), Rate(rate));
            prop_assert!(!t.is_infinite());
            let credited = bytes_in(Rate(rate), t);
            prop_assert!(credited.as_u64() >= vol);
        }

        /// ...and never overshoots by more than one rate-quantum (one
        /// byte per nanosecond of rounding, i.e. < rate/1e9 + 1 bytes).
        #[test]
        fn credit_overshoot_bounded(vol in 1u64..=u64::from(u32::MAX), rate in 1u64..=Rate::gbps(100).as_u64()) {
            let t = transfer_time(Bytes(vol), Rate(rate));
            let credited = bytes_in(Rate(rate), t);
            let slack = rate / 1_000_000_000 + 1;
            prop_assert!(credited.as_u64() - vol <= slack);
        }

        /// bytes_in is monotone in the duration.
        #[test]
        fn bytes_in_monotone(rate in 0u64..=Rate::gbps(10).as_u64(), a in 0u64..1_000_000_000_000, b in 0u64..1_000_000_000_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bytes_in(Rate(rate), Duration(lo)) <= bytes_in(Rate(rate), Duration(hi)));
        }
    }
}
