//! Scheduling-overhead instrumentation (Table 2).
//!
//! The paper breaks the coordinator's schedule-compute time into the
//! time spent ordering CoFlows (per-flow thresholds + LCoF), admitting
//! them all-or-none, and assigning work-conservation rates. [`Saath`]
//! (and [`Aalo`], for the total) record one wall-clock sample per phase
//! per round here, into fixed-size histograms; `repro table2` reports
//! the same columns as the paper: average (exact, `sum / count`) and
//! P90 (a ≤ 12.5 % upper bound), total and per phase, and `repro scale`
//! commits them per phase to `BENCH_scalability.json`.
//!
//! These are *wall-clock* measurements of this Rust implementation, the
//! one place in the workspace allowed to touch `std::time::Instant` —
//! they measure the scheduler itself, not the simulated cluster.
//!
//! [`Saath`]: crate::saath::Saath
//! [`Aalo`]: crate::aalo::Aalo

use saath_telemetry::{LogHist, Phase, SpanProfiler};
use std::time::Duration as StdDuration;

/// Accumulated per-round timings: one histogram per scheduler phase
/// plus the active-set size, all fixed-size — past each one's first
/// sample a round allocates nothing, however long the scheduler runs.
#[derive(Clone, Debug, Default)]
pub struct SchedTimings {
    /// Per-phase latency histograms (nanoseconds). The `Sched*`
    /// phases: total `compute()` round, ordering ("LCoF" column) with
    /// its contention sub-span, all-or-none admission + rate
    /// assignment, and work conservation.
    pub spans: SpanProfiler,
    /// Active CoFlows per round (context for the latency numbers).
    pub active_coflows: LogHist,
}

impl SchedTimings {
    /// Number of recorded rounds.
    pub fn rounds(&self) -> u64 {
        self.spans.hist(Phase::SchedTotal).count
    }

    /// Records one sample of `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, d: StdDuration) {
        self.spans.observe(phase, d.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_feeds_the_phase_histogram() {
        let mut t = SchedTimings::default();
        t.record(Phase::SchedOrder, StdDuration::from_micros(10));
        t.record(Phase::SchedOrder, StdDuration::from_micros(20));
        t.record(Phase::SchedContention, StdDuration::from_micros(5));
        let h = t.spans.hist(Phase::SchedOrder);
        assert_eq!((h.count, h.sum, h.max), (2, 30_000, 20_000));
        assert_eq!(t.spans.hist(Phase::SchedContention).count, 1);
        // Rounds are counted by the total phase alone.
        assert_eq!(t.rounds(), 0);
        t.record(Phase::SchedTotal, StdDuration::from_millis(1));
        assert_eq!(t.rounds(), 1);
    }
}
