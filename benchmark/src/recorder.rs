//! The pass-through scheduler the benchmark hands to `emulate` in every
//! run and to `simulate` in a traced one (a timed `simulate` gets the
//! bare `Saath`), and the epoch arithmetic done on what it recorded.
//!
//! It stores one [`Entry`] per `compute` call — an `Instant` and two
//! integers read off the view — into a preallocated buffer, and
//! forwards the call untouched. A traced run additionally takes the
//! `Instant` after the call, two counts, and a clone of every
//! `stride`-th view for the layer probes.

use saath::core::{ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath::fabric::PortBank;
use saath::simcore::Time;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one `compute` call leaves behind in every run.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Host time at entry.
    pub at: Instant,
    /// The view's simulated time.
    pub now: Time,
    /// Earliest arrival among the view's CoFlows ([`Time::NEVER`] when
    /// the recorder was not asked to track it).
    pub oldest_arrival: Time,
}

/// One cloned view, kept for the probes that run after the traced run.
pub struct Sample {
    pub now: Time,
    pub num_nodes: usize,
    pub coflows: Vec<CoflowView>,
    /// What the run's own (warm, hinted) `compute` took on this view.
    pub compute_ns: u64,
}

/// The extra a traced run records.
pub struct Detail {
    /// Host time at exit of each call, parallel to [`Tape::entries`].
    pub ends: Vec<Instant>,
    pub active_coflows: Vec<u32>,
    pub granted_flows: Vec<u32>,
    pub samples: Vec<Sample>,
    /// Every `stride`-th view is sampled; the next one is `next_sample`.
    stride: usize,
    next_sample: usize,
}

/// Everything one run recorded.
#[derive(Default)]
pub struct Tape {
    pub entries: Vec<Entry>,
    pub detail: Option<Detail>,
}

impl Tape {
    /// A tape with room for `rounds` calls; `sample_stride` switches
    /// the traced extras on.
    pub fn new(rounds: usize, sample_stride: Option<usize>) -> Tape {
        Tape {
            entries: Vec::with_capacity(rounds),
            detail: sample_stride.map(|stride| Detail {
                ends: Vec::with_capacity(rounds),
                active_coflows: Vec::with_capacity(rounds),
                granted_flows: Vec::with_capacity(rounds),
                samples: Vec::new(),
                stride: stride.max(1),
                next_sample: 0,
            }),
        }
    }
}

/// Where a [`Recorder`] that was moved into the runtime leaves its tape
/// when the coordinator drops it.
pub type TapeSlot = Arc<Mutex<Option<Tape>>>;

/// The pass-through scheduler.
pub struct Recorder<S> {
    inner: S,
    tape: Tape,
    /// Track [`Entry::oldest_arrival`] (an `O(active CoFlows)` scan):
    /// only the runtime's epochs need it, to tell a gap from a stall.
    track_arrivals: bool,
    slot: Option<TapeSlot>,
}

impl<S: CoflowScheduler> Recorder<S> {
    /// Wraps `inner`; the caller keeps the recorder and takes the tape
    /// with [`Recorder::into_tape`].
    pub fn new(inner: S, tape: Tape) -> Recorder<S> {
        Recorder {
            inner,
            tape,
            track_arrivals: false,
            slot: None,
        }
    }

    /// Wraps `inner` for a run that takes ownership of the scheduler:
    /// the tape lands in `slot` when the recorder is dropped.
    pub fn with_slot(inner: S, tape: Tape, slot: TapeSlot) -> Recorder<S> {
        Recorder {
            inner,
            tape,
            track_arrivals: true,
            slot: Some(slot),
        }
    }

    pub fn into_tape(mut self) -> Tape {
        std::mem::take(&mut self.tape)
    }
}

impl<S> Drop for Recorder<S> {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            // A poisoned slot means the run already panicked; the tape
            // is of no use then.
            if let Ok(mut guard) = slot.lock() {
                *guard = Some(std::mem::take(&mut self.tape));
            }
        }
    }
}

impl<S: CoflowScheduler> CoflowScheduler for Recorder<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn requires_clairvoyance(&self) -> bool {
        self.inner.requires_clairvoyance()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let oldest_arrival = if self.track_arrivals {
            view.coflows
                .iter()
                .map(|c| c.arrival)
                .min()
                .unwrap_or(Time::NEVER)
        } else {
            Time::NEVER
        };
        let at = Instant::now();
        self.tape.entries.push(Entry {
            at,
            now: view.now,
            oldest_arrival,
        });
        self.inner.compute(view, bank, out);
        if let Some(d) = &mut self.tape.detail {
            let end = Instant::now();
            d.ends.push(end);
            d.active_coflows.push(view.coflows.len() as u32);
            d.granted_flows.push(out.rates.len() as u32);
            if self.tape.entries.len() > d.next_sample {
                d.next_sample += d.stride;
                d.samples.push(Sample {
                    now: view.now,
                    num_nodes: view.num_nodes,
                    coflows: view.coflows.to_vec(),
                    compute_ns: (end - at).as_nanos() as u64,
                });
            }
        }
    }

    fn mech_counters(&self) -> Option<&saath::telemetry::MechCounters> {
        self.inner.mech_counters()
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        self.inner.queue_occupancy()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }
}

/// Per-epoch busy time in milliseconds, as `(epoch, busy)`: the interval
/// from the entry of `compute` call `epoch` to the next entry, minus the
/// coordinator's sleep `delta_wall_ms` — everything it does per δ
/// besides sleeping. The first interval (start-up: hellos, first stats
/// wave) is left out, and so is any interval that spans a gap with no
/// active CoFlow, where the coordinator slept without calling the
/// scheduler: there every CoFlow of the later view arrived after the
/// earlier view was taken.
pub fn busy_ms(entries: &[Entry], delta_wall_ms: f64) -> Vec<(usize, f64)> {
    entries
        .windows(2)
        .enumerate()
        .skip(1)
        .filter(|(_, w)| w[1].oldest_arrival == Time::NEVER || w[1].oldest_arrival <= w[0].now)
        .map(|(i, w)| (i, (w[1].at - w[0].at).as_secs_f64() * 1e3 - delta_wall_ms))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn entry(t0: Instant, at_ms: u64, now_ms: u64, oldest_ms: u64) -> Entry {
        Entry {
            at: t0 + Duration::from_millis(at_ms),
            now: Time::from_millis(now_ms),
            oldest_arrival: Time::from_millis(oldest_ms),
        }
    }

    #[test]
    fn busy_drops_first_interval_and_idle_gaps() {
        let t0 = Instant::now();
        let entries = [
            entry(t0, 0, 0, 0),
            // First interval (30 ms): start-up, excluded.
            entry(t0, 30, 400, 0),
            // 9 ms period at δ_wall = 8 ms: 1 ms busy.
            entry(t0, 39, 800, 0),
            // 50 ms, but every CoFlow in the view arrived after the
            // previous view (t = 800 ms): an idle gap, excluded.
            entry(t0, 89, 3000, 2900),
            // 10 ms period: 2 ms busy. A CoFlow older than the previous
            // view is still active, so this is not a gap.
            entry(t0, 99, 3400, 2900),
            // A 28 ms stall with work pending is kept: 20 ms busy.
            entry(t0, 127, 3800, 2900),
        ];
        let busy = busy_ms(&entries, 8.0);
        assert_eq!(busy.len(), 3);
        for (got, want) in busy.iter().zip([(1, 1.0), (3, 2.0), (4, 20.0)]) {
            assert_eq!(got.0, want.0);
            assert!((got.1 - want.1).abs() < 1e-6, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn busy_without_arrival_tracking_keeps_every_later_interval() {
        let t0 = Instant::now();
        let untracked = |at_ms| Entry {
            at: t0 + Duration::from_millis(at_ms),
            now: Time::ZERO,
            oldest_arrival: Time::NEVER,
        };
        let entries = [untracked(0), untracked(5), untracked(7), untracked(10)];
        let busy = busy_ms(&entries, 0.0);
        assert_eq!(busy.len(), 2);
        assert!((busy[0].1 - 2.0).abs() < 1e-6 && (busy[1].1 - 3.0).abs() < 1e-6);
        assert!(busy_ms(&entries[..1], 0.0).is_empty());
        assert!(busy_ms(&[], 0.0).is_empty());
    }
}
