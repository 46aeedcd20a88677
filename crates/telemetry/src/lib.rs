//! # saath-telemetry
//!
//! The workspace's instrumentation layer: cheap monotonic counters, one
//! fixed-size histogram type ([`LogHist`]) for every wall-time and
//! set-size sample, per-policy mechanism counters, and a deterministic
//! JSONL round-trace buffer, all behind one [`Telemetry`] handle.
//!
//! The counters are always compiled in. What a run collects is chosen at
//! run time, by one switch: instrumented entry points take
//! `Option<&mut Telemetry>`; passing `None` skips even the cheap
//! increments and the span clocks, and un-instrumented wrappers (plain
//! `simulate`) keep their signatures. The engine equivalence suite
//! proves records stay byte-identical either way.
//!
//! The JSONL round trace contains **only deterministic integers**
//! (simulated time, set sizes, port utilization in permille) — never
//! wall-clock times — so two runs of the same seeded workload are
//! byte-identical and diffable. Wall-time goes to the summary
//! histograms instead, which are printed but never serialized into the
//! trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod prom;

use std::fmt::Write as _;

/// Monotonic event counters, one slot per variant.
///
/// Engine counters (`ClassJoins`, `SchedRounds`, `Rounds*`) are
/// incremented by the simulator's epoch loop, `Log*` by the event-log
/// hooks. The runtime counts on its own plane
/// (`saath_runtime::MetricsHub`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Flows that joined a rate class: given a nonzero rate by a
    /// computed round or a straggler rescale, or restored by a resume.
    /// A flow whose rate a round leaves as it was does not rejoin.
    ClassJoins,
    /// Scheduling rounds: δ boundaries crossed with work pending,
    /// whether the round was computed or reused the previous schedule.
    SchedRounds,
    /// Rounds among `SchedRounds` that did not run `compute`: nothing
    /// structural had moved and the schedule's validity horizon was
    /// still ahead, so the engine kept the schedule it had.
    RoundsElided,
    /// Rounds among `RoundsElided` the engine never stopped at: their
    /// boundaries lay in a quiet stretch it crossed in one step, and
    /// they were counted, logged and traced from the schedule in hand
    /// (`SchedRounds − RoundsJumped` is the number of rounds visited).
    RoundsJumped,
    /// Round records appended to an event log.
    LogRoundsAppended,
    /// Bytes written to an event log (frames + header).
    LogBytesWritten,
    /// Engine snapshots framed into an event log.
    LogSnapshots,
    /// Full chain-verification passes completed over a log.
    LogChainVerifies,
}

/// All counters, in display order.
pub const COUNTERS: [Counter; 8] = [
    Counter::ClassJoins,
    Counter::SchedRounds,
    Counter::RoundsElided,
    Counter::RoundsJumped,
    Counter::LogRoundsAppended,
    Counter::LogBytesWritten,
    Counter::LogSnapshots,
    Counter::LogChainVerifies,
];

impl Counter {
    /// Stable snake_case name, used in tables and the epoch JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ClassJoins => "class_joins",
            Counter::SchedRounds => "sched_rounds",
            Counter::RoundsElided => "rounds_elided",
            Counter::RoundsJumped => "rounds_jumped",
            Counter::LogRoundsAppended => "log_rounds_appended",
            Counter::LogBytesWritten => "log_bytes_written",
            Counter::LogSnapshots => "log_snapshots",
            Counter::LogChainVerifies => "log_chain_verifies",
        }
    }
}

/// The workspace's one sample accumulator: a log-linear histogram
/// over `u64` samples. Every wall-time span and every set size (dirty
/// sets, pending flows, active CoFlows) records into one of these and
/// can answer min/mean/p50/p90/p99/max after (or during) a run from a
/// fixed 4 KB, however long the run (allocated on the first sample, so
/// a histogram nobody records into costs 56 bytes).
///
/// 496 buckets: every power of two `[2^e, 2^(e+1))` is split into 8
/// equal sub-buckets (so values below 16 get a bucket each and are
/// exact), and any `u64` sample lands in O(1) via `ilog2`. Quantiles are
/// nearest-rank over the bucket counts and report the containing
/// bucket's **upper bound** (clamped to the exact observed `max`),
/// which makes them conservative — never under-reported, at most
/// 12.5 % over — and monotone: `min ≤ p50 ≤ p90 ≤ p99 ≤ max` always
/// holds. `sum` **saturates** at `u64::MAX` instead of wrapping (a run
/// long enough to overflow it — ≈ 584 years of nanosecond samples —
/// pins the mean at a too-small ceiling rather than a tiny wrapped
/// one); `count`, `min` and `max` stay exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHist {
    /// Number of samples observed.
    pub count: u64,
    /// Saturating sum of all samples (mean = sum / count).
    pub sum: u64,
    /// Smallest sample, 0 if none.
    pub min: u64,
    /// Largest sample, 0 if none.
    pub max: u64,
    /// Empty while `count == 0`, `BUCKETS` long from then on.
    buckets: Vec<u64>,
}

impl LogHist {
    /// 16 exact buckets, then 8 per power of two from 2⁴ to 2⁶³.
    const BUCKETS: usize = 16 + 8 * 60;

    /// An empty histogram.
    pub fn new() -> LogHist {
        LogHist::default()
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        // `shift` drops the bits below the top four, so `v >> shift`
        // is v itself below 16 and 8..=15 (the sub-bucket) above.
        let shift = ((v >> 3) | 1).ilog2() as usize;
        shift * 8 + (v >> shift) as usize
    }

    fn buckets_mut(&mut self) -> &mut [u64] {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS];
        }
        &mut self.buckets
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        let shift = (i / 8).saturating_sub(1);
        let top = (i - shift * 8) as u64;
        (top << shift) | ((1u64 << shift) - 1)
    }

    /// Folds one sample in.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Folds `n` samples of the same value in — `n` calls of
    /// [`LogHist::observe`] in O(1).
    #[inline]
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.buckets_mut()[Self::bucket_of(v)] += n;
    }

    /// Folds another histogram in (per-bucket addition; `sum`
    /// saturates) — the result equals observing both sample streams.
    pub fn merge(&mut self, other: &LogHist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets_mut().iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile for `q ∈ [0, 1]`: the upper bound of the
    /// bucket containing the rank-⌈q·count⌉ sample, clamped to the
    /// exact `max`. Returns 0 with no samples. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (nearest-rank bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One named span kind — every wall-time section the workspace
/// profiles, across the scheduler (per-phase, recorded by
/// `SchedTimings`), the simulator's epoch loop, and the runtime
/// coordinator/agent path's epoch lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Whole scheduler `compute()` round.
    SchedTotal,
    /// CoFlow ordering (queue assignment + LCoF/FIFO order).
    SchedOrder,
    /// Contention `k_c` computation (sub-span of ordering).
    SchedContention,
    /// All-or-none gang admission + MADD rate assignment.
    SchedMadd,
    /// Work-conservation backfill.
    SchedWc,
    /// Engine: draining due events (arrivals, readiness, dynamics).
    EngineEvents,
    /// Engine: incremental view sync over the dirty list.
    EngineViewSync,
    /// Engine: one whole δ-boundary scheduling round the loop stopped
    /// at. A round passed over in a jump took no time of its own and
    /// leaves no sample, so the count is the rounds *visited*.
    EngineRound,
    /// Engine: next-event-time scan and time advancement.
    EngineAdvance,
    /// Coordinator: draining agent stats reports (obs-recv).
    CoordObsRecv,
    /// Coordinator: completion sweep + building the active CoFlows'
    /// views from the observation table (views).
    CoordViews,
    /// Coordinator: the policy's `compute` call, nothing else
    /// (schedule).
    CoordSchedule,
    /// Coordinator: pushing the schedule to every agent (broadcast).
    CoordBroadcast,
    /// Coordinator: how far the δ sleep that ends an epoch ran past δ
    /// (pace) — the wake-up's lateness, not the sleep.
    CoordPace,
    /// Agent: applying a schedule push (apply).
    AgentApply,
}

/// All span kinds, in display order.
pub const PHASES: [Phase; 15] = [
    Phase::SchedTotal,
    Phase::SchedOrder,
    Phase::SchedContention,
    Phase::SchedMadd,
    Phase::SchedWc,
    Phase::EngineEvents,
    Phase::EngineViewSync,
    Phase::EngineRound,
    Phase::EngineAdvance,
    Phase::CoordObsRecv,
    Phase::CoordViews,
    Phase::CoordSchedule,
    Phase::CoordBroadcast,
    Phase::CoordPace,
    Phase::AgentApply,
];

impl Phase {
    /// Stable snake_case name, used in tables and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SchedTotal => "sched_total",
            Phase::SchedOrder => "sched_order",
            Phase::SchedContention => "sched_contention",
            Phase::SchedMadd => "sched_madd",
            Phase::SchedWc => "sched_wc",
            Phase::EngineEvents => "engine_events",
            Phase::EngineViewSync => "engine_view_sync",
            Phase::EngineRound => "engine_round",
            Phase::EngineAdvance => "engine_advance",
            Phase::CoordObsRecv => "coord_obs_recv",
            Phase::CoordViews => "coord_views",
            Phase::CoordSchedule => "coord_schedule",
            Phase::CoordBroadcast => "coord_broadcast",
            Phase::CoordPace => "coord_pace",
            Phase::AgentApply => "agent_apply",
        }
    }
}

/// One [`LogHist`] per [`Phase`] — the workspace's only wall-time
/// recorder (4 KB per phase that records, fixed).
///
/// `observe` is not gated: gating is the caller's job, exactly as with
/// [`LogHist::observe`]. The scheduler's `SchedTimings` records
/// unconditionally (it already pays for `Instant::now` regardless); the
/// engine records only when handed a [`Telemetry`], the runtime only
/// when a metrics hub exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanProfiler {
    hists: [LogHist; PHASES.len()],
}

impl SpanProfiler {
    /// An empty profiler.
    pub fn new() -> SpanProfiler {
        SpanProfiler::default()
    }

    /// Folds one duration sample (nanoseconds) into `phase`.
    #[inline]
    pub fn observe(&mut self, phase: Phase, ns: u64) {
        self.hists[phase as usize].observe(ns);
    }

    /// The histogram for `phase`.
    pub fn hist(&self, phase: Phase) -> &LogHist {
        &self.hists[phase as usize]
    }

    /// Folds another profiler in, phase by phase.
    pub fn merge(&mut self, other: &SpanProfiler) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }

    /// `(phase name, histogram)` for every phase with samples, in
    /// display order.
    pub fn rows(&self) -> Vec<(&'static str, &LogHist)> {
        PHASES
            .iter()
            .filter(|p| self.hist(**p).count > 0)
            .map(|p| (p.name(), self.hist(*p)))
            .collect()
    }
}

/// Declares [`MechCounters`] from one list of fields, so the struct,
/// [`MechCounters::rows`] and [`MechCounters::values_mut`] cannot fall
/// out of step.
macro_rules! mech_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Per-policy mechanism counters — the paper's levers (D1–D5) as
        /// monotonic event counts, owned by each scheduler and read back
        /// after a run.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MechCounters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl MechCounters {
            /// How many counters there are.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// `(name, value)` rows in display order, for table rendering
            /// without the renderer knowing the fields.
            pub fn rows(&self) -> [(&'static str, u64); Self::LEN] {
                [$((stringify!($field), self.$field)),*]
            }

            /// The counters in [`MechCounters::rows`] order, to write
            /// back what `rows` gave (a scheduler's state blob).
            pub fn values_mut(&mut self) -> [&mut u64; Self::LEN] {
                [$(&mut self.$field),*]
            }
        }
    };
}

mech_counters! {
    /// CoFlows that moved to a different priority queue (per-flow
    /// threshold crossings, D3).
    queue_transitions,
    /// CoFlows whose FIFO-derived starvation deadline newly expired
    /// (D5 trigger events).
    deadline_expiries,
    /// Rounds in which at least one expired CoFlow was force-prioritized
    /// to the front (D5 rescues; mirrors `starvation_kicks`).
    starvation_rescues,
    /// All-or-none gang admissions that fit and were granted (D2).
    gang_admissions,
    /// All-or-none gang admissions rejected because the gang rate was
    /// zero at some contended port (D2).
    gang_rejections,
    /// CoFlows skipped because not all flows were ready yet
    /// (out-of-sync avoidance, D2).
    unready_skips,
    /// Flows granted leftover capacity by work conservation (D4).
    wc_backfills,
    /// Intra-queue order comparisons (D1 work), estimated: each rekey
    /// in an order book (Saath's LCoF book, Aalo's FIFO book) is one
    /// tree removal and one insertion, counted as twice the bit length
    /// of `n`, the CoFlows in the view — about 2·log₂ n.
    lcof_comparisons,
    /// MADD gang-rate evaluations (shared-bottleneck rate probes).
    madd_evals,
    /// Port join/leave deltas applied by the incremental contention
    /// tracker (the work a full rebuild would redo from scratch).
    contention_deltas,
    /// Contention rounds without a usable `changed` hint (none given,
    /// or a port-space change): every footprint cache entry was
    /// re-checked against the view.
    contention_rebuilds,
    /// Contention rounds served purely by delta updates — full
    /// `contention_into` rebuilds avoided.
    contention_rebuilds_avoided,
    /// CoFlows whose LCoF ordering key changed and were re-slotted in
    /// the incremental order book (one remove + insert each).
    order_rekeys,
    /// Rounds where the incremental order book emitted the LCoF order
    /// without a full re-sort.
    order_resorts_avoided,
}

/// One scheduling round's deterministic state, serialized as a JSONL
/// line. Integers only — see the module docs on diffability.
#[derive(Clone, Copy, Debug)]
pub struct RoundSnapshot<'a> {
    /// Scheduling-round ordinal (0-based).
    pub round: u64,
    /// Simulated time at the boundary, in nanoseconds.
    pub now_ns: u64,
    /// CoFlows active (arrived, unfinished) at the boundary.
    pub active_coflows: usize,
    /// Flows currently holding a nonzero rate.
    pub flowing: usize,
    /// Flows whose state changed since the previous boundary (the
    /// dirty set the incremental view-sync walked).
    pub dirty: usize,
    /// Flows whose completion is pending after the round's apply: the
    /// unfinished flows holding a nonzero rate. Serialized as `heap`,
    /// the count of live completion-heap entries it replaced.
    pub pending: usize,
    /// Ports fully allocated this round (remaining = 0, capacity > 0).
    pub saturated_ports: usize,
    /// Fabric utilization in permille (allocated / capacity × 1000).
    pub utilization_permille: u64,
    /// Per-priority-queue CoFlow occupancy, lowest queue first; empty
    /// when the policy has no queue structure.
    pub queue_occupancy: &'a [usize],
}

/// The instrumentation handle threaded (as `Option<&mut Telemetry>`)
/// through instrumented entry points.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    counters: [u64; COUNTERS.len()],
    /// Dirty-set size per scheduling round.
    pub dirty_set: LogHist,
    /// Flows whose completion is pending, per scheduling round.
    pub pending: LogHist,
    /// Rate classes credited per engine step.
    pub step_classes: LogHist,
    /// Flows those classes held, per engine step: what a per-flow
    /// advance would have credited one by one.
    pub step_flows: LogHist,
    /// Active CoFlows per scheduling round.
    pub active_coflows: LogHist,
    /// Per-phase wall-time spans (summary only, never in the JSONL
    /// trace): the engine loop's sections, with
    /// [`Phase::EngineRound`] the wall time of each whole scheduling
    /// round. The scheduler's phases live in `SchedTimings`, which
    /// records into the same [`Phase`]/[`LogHist`] vocabulary.
    pub spans: SpanProfiler,
    record_jsonl: bool,
    jsonl: String,
}

impl Telemetry {
    /// A handle that aggregates counters and histograms only.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// A handle that additionally buffers the JSONL round trace.
    pub fn with_jsonl() -> Telemetry {
        Telemetry {
            record_jsonl: true,
            ..Telemetry::default()
        }
    }

    /// Bumps `c` by one.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Bumps `c` by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Current value of `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Whether this handle wants per-round JSONL snapshots.
    pub fn wants_jsonl(&self) -> bool {
        self.record_jsonl
    }

    /// Appends one round snapshot as a JSONL line (hand-formatted; the
    /// workspace's serde is a vendored API stub and cannot serialize).
    /// No-op unless built via [`Telemetry::with_jsonl`].
    pub fn snapshot_round(&mut self, s: &RoundSnapshot<'_>) {
        if !self.wants_jsonl() {
            return;
        }
        let _ = write!(
            self.jsonl,
            "{{\"round\":{},\"now_ns\":{},\"active\":{},\"flowing\":{},\"dirty\":{},\
             \"heap\":{},\"sat_ports\":{},\"util_pm\":{},\"queues\":[",
            s.round,
            s.now_ns,
            s.active_coflows,
            s.flowing,
            s.dirty,
            s.pending,
            s.saturated_ports,
            s.utilization_permille,
        );
        for (i, q) in s.queue_occupancy.iter().enumerate() {
            if i > 0 {
                self.jsonl.push(',');
            }
            let _ = write!(self.jsonl, "{q}");
        }
        self.jsonl.push_str("]}\n");
    }

    /// The buffered JSONL trace (empty unless built via
    /// [`Telemetry::with_jsonl`]).
    pub fn jsonl(&self) -> &str {
        &self.jsonl
    }

    /// `(name, value)` rows for every counter, in display order.
    pub fn counter_rows(&self) -> [(&'static str, u64); COUNTERS.len()] {
        let mut rows = [("", 0u64); COUNTERS.len()];
        for (row, &c) in rows.iter_mut().zip(COUNTERS.iter()) {
            *row = (c.name(), self.counter(c));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loghist_empty_is_all_zero() {
        let h = LogHist::new();
        assert_eq!((h.count, h.sum, h.min, h.max), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!((h.p50(), h.p90(), h.p99()), (0, 0, 0));
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn loghist_tracks_min_mean_max_exactly() {
        let mut h = LogHist::new();
        for v in [4, 2, 9] {
            h.observe(v);
        }
        assert_eq!((h.min, h.max, h.count, h.sum), (2, 9, 3, 15));
        assert_eq!(h.mean(), 5.0);
        // Values below 16 have a bucket each, so quantiles are exact.
        assert_eq!((h.quantile(0.0), h.p50(), h.p99()), (2, 4, 9));
    }

    #[test]
    fn loghist_single_sample_quantiles_clamp_to_max() {
        let mut h = LogHist::new();
        h.observe(1000);
        // 1000 lands in bucket [960, 1024) whose upper bound is 1023,
        // but every quantile clamps to the exact observed max.
        assert_eq!((h.p50(), h.p90(), h.p99()), (1000, 1000, 1000));
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!((h.min, h.max), (1000, 1000));
    }

    #[test]
    fn loghist_buckets_tile_u64_within_an_eighth() {
        assert!(std::mem::size_of::<LogHist>() + 8 * LogHist::BUCKETS <= 4096);
        // Every bucket's upper bound maps back to it and the next
        // value opens the next bucket, up to u64::MAX.
        for i in 0..LogHist::BUCKETS {
            let hi = LogHist::bucket_upper(i);
            assert_eq!(LogHist::bucket_of(hi), i, "upper bound of bucket {i}");
            match hi.checked_add(1) {
                Some(next) => assert_eq!(LogHist::bucket_of(next), i + 1),
                None => assert_eq!(i, LogHist::BUCKETS - 1),
            }
        }
        // [64, 128) splits into 8 sub-buckets of width 8: a sample is
        // reported as its bucket's upper bound, ≤ 12.5 % over.
        let mut h = LogHist::new();
        for v in [64u64, 100, 127] {
            h.observe(v);
        }
        assert_eq!((h.quantile(0.0), h.p50(), h.p99()), (71, 103, 127));
    }

    #[test]
    fn loghist_saturates_at_u64_max() {
        let mut h = LogHist::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum pins at the ceiling");
        assert_eq!(h.count, 2, "count stays exact");
        assert_eq!((h.min, h.max), (u64::MAX, u64::MAX));
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        h.observe(100);
        assert_eq!((h.min, h.max, h.sum), (100, u64::MAX, u64::MAX));
    }

    #[test]
    fn loghist_observe_n_equals_n_observes() {
        let (mut a, mut b) = (LogHist::new(), LogHist::new());
        for (v, n) in [
            (7u64, 3u64),
            (1_000, 1),
            (0, 5),
            (7, 2),
            (u64::MAX, 2),
            (9, 0),
        ] {
            a.observe_n(v, n);
            for _ in 0..n {
                b.observe(v);
            }
            assert_eq!(a, b, "after {n} × {v}");
        }
        assert_eq!(a.count, 13);
        assert_eq!(a.sum, u64::MAX, "the sum saturates as n observes would");
    }

    #[test]
    fn loghist_merge_adds_bucketwise() {
        let (mut a, mut b) = (LogHist::new(), LogHist::new());
        for v in [1u64, 10, 100] {
            a.observe(v);
        }
        for v in [1000u64, 10_000] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 11_111);
        assert_eq!((a.min, a.max), (1, 10_000));
        assert_eq!(a.quantile(1.0), 10_000);
        // Merging into or from an empty histogram keeps the exact min.
        let mut c = LogHist::new();
        c.merge(&a);
        c.merge(&LogHist::new());
        assert_eq!(c, a);
    }

    #[test]
    fn span_profiler_records_phases_in_display_order() {
        let mut p = SpanProfiler::new();
        p.observe(Phase::CoordSchedule, 500);
        p.observe(Phase::SchedTotal, 100);
        p.observe(Phase::SchedTotal, 200);
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "sched_total");
        assert_eq!(rows[0].1.count, 2);
        assert_eq!(rows[1].0, "coord_schedule");
    }

    #[test]
    fn phase_names_are_unique_and_cover_all() {
        let names: Vec<_> = PHASES.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), PHASES.len(), "duplicate phase name");
    }

    #[test]
    fn counters_roundtrip() {
        let mut t = Telemetry::new();
        t.incr(Counter::ClassJoins);
        t.add(Counter::LogBytesWritten, 3);
        assert_eq!(t.counter(Counter::ClassJoins), 1);
        assert_eq!(t.counter(Counter::LogBytesWritten), 3);
    }

    #[test]
    fn jsonl_lines_are_integer_only_and_ordered() {
        let mut t = Telemetry::with_jsonl();
        t.snapshot_round(&RoundSnapshot {
            round: 0,
            now_ns: 8_000_000,
            active_coflows: 2,
            flowing: 5,
            dirty: 3,
            pending: 7,
            saturated_ports: 1,
            utilization_permille: 421,
            queue_occupancy: &[1, 1, 0],
        });
        assert_eq!(
            t.jsonl(),
            "{\"round\":0,\"now_ns\":8000000,\"active\":2,\"flowing\":5,\"dirty\":3,\
             \"heap\":7,\"sat_ports\":1,\"util_pm\":421,\"queues\":[1,1,0]}\n"
        );
    }

    #[test]
    fn counter_rows_cover_every_counter() {
        let rows = Telemetry::new().counter_rows();
        assert_eq!(rows.len(), COUNTERS.len());
        assert!(rows.iter().all(|(n, _)| !n.is_empty()));
        let mech = MechCounters::default().rows();
        assert_eq!(mech.len(), 14);
    }
}
