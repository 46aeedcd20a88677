//! The emulation clock: wall time, scaled.
//!
//! The testbed emulation replays traces against real threads, but an
//! hour-long trace should not take an hour. [`EmuClock`] maps elapsed
//! wall time to simulated time by an integer factor: with `scale = 50`,
//! one wall second is 50 simulated seconds, and a δ of 400 simulated
//! milliseconds means the coordinator actually wakes every 8 wall
//! milliseconds — the paper's own interval.

use saath_simcore::{Duration, Time};
use std::time::Instant;

/// A shared, cloneable scaled clock. All components of one emulation
/// hold clones, so they agree on simulated "now".
#[derive(Clone, Debug)]
pub struct EmuClock {
    start: Instant,
    scale: u64,
}

impl EmuClock {
    /// Starts the clock now. `scale` = simulated seconds per wall
    /// second (≥ 1).
    pub fn start(scale: u64) -> EmuClock {
        assert!(scale >= 1, "scale must be at least 1");
        EmuClock {
            start: Instant::now(),
            scale,
        }
    }

    /// The scale factor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Simulated time elapsed since the clock started.
    pub fn now(&self) -> Time {
        let wall = self.start.elapsed().as_nanos() as u64;
        Time(wall.saturating_mul(self.scale))
    }

    /// Converts a simulated duration to the wall duration to sleep.
    pub fn to_wall(&self, sim: Duration) -> std::time::Duration {
        std::time::Duration::from_nanos(sim.as_nanos() / self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_advances_faster_than_wall() {
        let clock = EmuClock::start(100);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sim = clock.now();
        // 20 ms wall at 100× ≥ 2 s simulated (scheduler jitter only adds).
        assert!(sim >= Time::from_millis(2000), "sim {sim}");
        assert!(sim < Time::from_secs(60), "sim {sim} absurdly large");
    }

    #[test]
    fn wall_conversion_inverts_scale() {
        let clock = EmuClock::start(50);
        assert_eq!(
            clock.to_wall(Duration::from_millis(400)),
            std::time::Duration::from_millis(8)
        );
        assert_eq!(clock.scale(), 50);
    }

    #[test]
    fn clones_share_the_epoch() {
        let a = EmuClock::start(10);
        let b = a.clone();
        let (ta, tb) = (a.now(), b.now());
        let diff = ta.as_nanos().abs_diff(tb.as_nanos());
        assert!(diff < 100_000_000, "clones diverge: {diff} ns");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_scale_rejected() {
        let _ = EmuClock::start(0);
    }
}
