//! The replay engine: δ-quantized coordination over an event-exact
//! fluid-flow model.
//!
//! Two implementations of the same semantics live here:
//!
//! * [`simulate`] — the production epoch loop. Advancing simulated time
//!   costs O(rate classes + finishing flows), not O(state): the flows
//!   holding one rate are credited together through one accumulator,
//!   and the next completion is a minimum over those classes (see "Rate
//!   classes" below); schedules are applied as a diff against the
//!   previous round (only flows whose rate actually changed are
//!   touched); a view sync writes only what moved ("What a view sync
//!   writes"); a round whose output cannot differ from the previous
//!   one's is counted, logged and traced but not computed ("When a
//!   round is not computed"); and a run of δ boundaries at which nothing
//!   can happen is crossed in one step ("When a boundary is not
//!   visited").
//! * [`simulate_reference`] — the original O(state)-per-step loop, kept
//!   verbatim as the executable specification. The equivalence test
//!   below and `tests/engine_equivalence.rs` assert the two produce
//!   byte-identical [`CoflowRecord`]s, and `repro scale` replays the
//!   first point of its sweep through both and asserts the same.
//!
//! Why byte-identical equivalence is non-trivial: rates and volumes use
//! exact integer arithmetic (`transfer_time` rounds up, `bytes_in`
//! rounds down), so a flow's predicted completion drifts monotonically
//! *later* as an interval is subdivided — `Σ floor(r·dtᵢ) ≤
//! floor(r·Σdtᵢ)`. The incremental loop therefore credits exactly the
//! reference loop's per-step floors and never introduces or removes a
//! time step: the next completion it steps to is the reference scan's
//! minimum, read off the classes instead of scanned.
//!
//! ## Rate classes
//!
//! All-or-none admission gives every flow of an admitted CoFlow one
//! rate, so a step that credits dozens of flows credits only a handful
//! of distinct rates. The unfinished flows holding rate `r` form a
//! *class*, and the class keeps one accumulator `acc`: the bytes
//! `bytes_over(r, first, passed, δ)` credited to each member, summed
//! over the steps since the class opened. A flow joins with its stored
//! `sent` as its anchor `sent₀` at `acc₀`, and from then on
//!
//! ```text
//! sent = sent₀ + (acc − acc₀)        threshold = acc₀ + size − sent₀
//! ```
//!
//! It finishes at the step where `acc` reaches its threshold, which is
//! fixed for as long as it holds the rate. This is exact, not an
//! approximation:
//! every flow at rate `r` was credited the same `floor(r·dt)` per step
//! by the per-flow loop, so the sum is the same integer, and `(sent +
//! credit).min(size) == size` exactly when `acc` reaches the threshold.
//! Records, rounds, event logs and snapshot blobs are byte-identical to
//! the per-flow loop's.
//!
//! Each class keeps its members in a binary min-heap on `(threshold,
//! flow)`, and a map each member's index in that heap, so a step reads one
//! member per class: crediting is O(classes), each flow that finishes
//! costs one O(log) pop, a flow whose rate changes one O(log) removal
//! and one push, and the next completion is the minimum over classes of
//! their first member's [`prediction`] — a member's remainder is
//! `threshold − acc`, so this is the reference scan's minimum. The
//! stored `sent` is written back (equivalently: the anchor moves to the
//! current `acc`, which leaves the threshold where it was) only where it
//! is read: at a computed round's view sync, when the flow's rate
//! changes (it leaves its class and joins another), at a dynamics event
//! and before a snapshot; a flow that finishes gets `sent = size`.
//!
//! **The oracle.** Debug builds keep the per-flow loop beside the
//! classes: a shadow copy of `sent` credited flow by flow at every
//! step, `(sent + bytes_over).min(size)`, and every step asserts that
//! each member's class-derived `sent` equals its shadow, that a flow
//! finishes exactly when its shadow reaches its size, and that the
//! class minimum equals the minimum of `prediction` over the flowing
//! flows. CI runs them optimized, on the engine suites and the small
//! scalability sweep.
//!
//! ## What a view sync writes
//!
//! A computed round re-syncs only the CoFlows in the dirty set, and
//! within them only what moved. Byte progress moves the `sent` of the
//! class members (every flow that sent since the last sync is a member
//! now or has finished since) and the `finished` flag of the flows that
//! finished; both are written flow by flow. Every flow of a CoFlow is
//! walked only when the CoFlow carries a structural mark — a release, a
//! readiness wake, a failure, a straggler start or end, a resume — or
//! when a finish may drop a straggler flag that rested on the finished
//! flow. Every flow the schedule sets sending has its CoFlow marked
//! dirty at the apply, in the schedule's order, which is the order the
//! per-flow loop's first step marked them in; the dirty list, and with
//! it the scheduler's `changed` hint and the snapshot blob, is the
//! per-flow loop's. Debug builds check every active view against
//! ground truth after each sync.
//!
//! `flowing` — the flows the last computed round set sending, in the
//! schedule's order — is compacted (flows finished or zeroed since
//! dropped) only where it is read: before the next apply, a snapshot or
//! a straggler rescale. No step walks it.
//!
//! ## When a round is not computed
//!
//! A scheduler may stamp its output with a validity horizon
//! ([`Schedule::valid_until`]): given no *structural* change and no
//! flow sending faster than its assigned rate, `compute` would return
//! the same rates at every earlier instant. The engine knows its own
//! structural events exactly — a release, a readiness wake, any
//! dynamics event, a flow finishing (or being zeroed) in the advance
//! pass, a resume — and its flows send at exactly their assigned
//! rates, so on a δ boundary with none of those since the last
//! computed round and `now < valid_until` it keeps the schedule it
//! has: the round is counted, appended to the event log from the
//! retained schedule and traced as ever, while view sync, the bank
//! reset, `compute` and the diff-apply (which would find nothing to
//! change) are skipped. The dirty set keeps accumulating, so the next
//! computed round's `changed` hint is a superset of what moved since
//! the scheduler last looked. Byte progress alone is *not* structural:
//! bounding what it can change is what the horizon is for. There is no
//! switch: a scheduler that never sets the horizon ([`Time::ZERO`]) is
//! computed every round, and [`simulate_reference`] never reuses.
//!
//! ## When a boundary is not visited
//!
//! A reused round decides nothing, so stopping at it only costs. When
//! nothing structural is pending and nothing is due before the next
//! boundary, the loop takes `limit` = the earliest of the predicted
//! completion, the next arrival, dynamics event and readiness wake, the
//! schedule's horizon and the replay's own horizon. Every boundary `b`
//! with `now < b < limit` is a round the loop would reuse and then
//! leave with no flow finished and no event drained (`t < ceil(x/r) ⇒
//! floor(r·t) < x`, and splitting an interval only loses bytes, so no
//! flow reaches its size before the earliest prediction). With `s` of
//! them the loop steps straight to `b_s`: each class's accumulator
//! takes `bytes_in(r, b_1 − now) + (s − 1)·bytes_in(r, δ)` — the single
//! steps' floors, one by one — and each prediction follows from the
//! final accumulator when next read. The round at `b_s` is then an
//! ordinary iteration. An ordinary step is the `s ≤ 1` case of the same
//! code.
//!
//! **A round passed over is still a round.** It counts towards
//! [`SimOutput::rounds`] and [`SimConfig::max_rounds`] (a jump stops
//! where the count would pass the limit, so the same
//! [`SimError::RoundLimit`] comes at the same count), the event log gets its
//! [`RoundRecord`], the JSONL trace its line and the histograms its
//! sample — through the one function that emits a visited round, after
//! the advance pass, so the dirty set and the flowing set read what
//! each single step's round would have read. A jump never carries the
//! round count past a multiple of [`ReplayHooks::snapshot_every`]: it
//! lands there and the snapshot is taken at the top of the loop as
//! ever (a cadence of 1 therefore single-steps, by arithmetic). No
//! record, log frame, snapshot or JSONL line tells a jump from the
//! single steps; only `RoundsJumped` and the span counts do. A scheduler
//! that sets no horizon has `limit == Time::ZERO` and never jumps;
//! [`simulate_reference`] never does.

use std::time::Instant;

use saath_core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath_eventlog::{RateEntry, RoundRecord, RoundSink};
use saath_fabric::PortBank;
use saath_metrics::CoflowRecord;
use saath_simcore::units::{bytes_in, transfer_time};
use saath_simcore::{
    Bytes, CoflowId, Duration, EventQueue, FastHashMap, FlowId, NodeId, Rate, Time,
};
use saath_telemetry::{Counter, Phase, RoundSnapshot, Telemetry};
use saath_workload::{DynamicsEvent, DynamicsSpec, Trace};

use crate::snapshot;

/// Bumps a counter on an `Option<&mut Telemetry>`.
macro_rules! tele_incr {
    ($tele:expr, $c:expr) => {
        if let Some(t) = $tele.as_deref_mut() {
            t.incr($c);
        }
    };
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Coordination interval δ. The scheduler recomputes rates at every
    /// multiple of δ while any CoFlow is active; `Duration::ZERO` means
    /// "recompute at every event" (an idealized, infinitely-fast
    /// coordinator).
    pub delta: Duration,
    /// Expose ground-truth flow sizes to the scheduler. Required by the
    /// offline baselines; must be off for honest online runs.
    pub clairvoyant: bool,
    /// Optional wall on simulated time; CoFlows unfinished at the
    /// horizon are reported in [`SimOutput::unfinished`].
    pub horizon: Option<Time>,
    /// Safety valve against scheduler livelock: abort after this many
    /// scheduling rounds.
    pub max_rounds: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delta: Duration::from_millis(8),
            clairvoyant: false,
            horizon: None,
            max_rounds: 100_000_000,
        }
    }
}

/// Why a simulation could not run (distinct from running out of time,
/// which is reported in-band via [`SimOutput::unfinished`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The trace failed validation.
    InvalidTrace(String),
    /// A clairvoyant scheduler was run without `clairvoyant: true`.
    NeedsOracle(&'static str),
    /// The round safety valve tripped (almost certainly a livelocked
    /// scheduler handing out zero rates forever).
    RoundLimit(u64),
    /// Appending to the event log failed (I/O or framing).
    Log(String),
    /// A snapshot could not be taken, or a resume blob could not be
    /// applied (shape mismatch, wrong scheduler, truncation).
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
            SimError::NeedsOracle(n) => {
                write!(
                    f,
                    "scheduler `{n}` is clairvoyant; run with clairvoyant: true"
                )
            }
            SimError::RoundLimit(n) => write!(f, "round limit {n} exceeded"),
            SimError::Log(e) => write!(f, "event log: {e}"),
            SimError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of one replay.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// One record per *completed* CoFlow, sorted by id.
    pub records: Vec<CoflowRecord>,
    /// CoFlows that never finished (horizon reached).
    pub unfinished: usize,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Simulated time at which the replay ended.
    pub end: Time,
}

impl SimOutput {
    /// Average CCT over completed CoFlows, in seconds (reporting aid).
    pub fn avg_cct_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.cct().as_secs_f64())
            .sum::<f64>()
            / self.records.len() as f64
    }
}

pub(crate) struct SimFlow {
    pub(crate) coflow: usize,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) size: Bytes,
    pub(crate) sent: Bytes,
    pub(crate) rate: Rate,
    pub(crate) ready_at: Time,
    pub(crate) finished_at: Option<Time>,
}

/// When `f` completes under its current rate, predicted at `now`, the
/// instant its `sent` was last credited to: `Time::NEVER` while it is
/// paused or finished, or when the prediction saturates. Exactly the
/// term the reference loop's scan takes the minimum of. Read where
/// `sent` is current: the snapshot codec and the debug oracle.
#[inline]
pub(crate) fn prediction(f: &SimFlow, now: Time) -> Time {
    if f.finished_at.is_some() || f.rate.is_zero() {
        return Time::NEVER;
    }
    now.saturating_add(transfer_time(f.size.saturating_sub(f.sent), f.rate))
}

pub(crate) struct SimCoflow {
    pub(crate) released: Option<Time>,
    pub(crate) finished: Option<Time>,
    pub(crate) first_flow: usize,
    pub(crate) num_flows: usize,
    /// Flows not yet finished; the incremental loop's O(1) stand-in for
    /// the reference loop's all-flows-done scan.
    pub(crate) unfinished: usize,
    pub(crate) deps_left: usize,
    pub(crate) dependents: Vec<usize>,
    pub(crate) restarted: bool,
    pub(crate) view_slot: usize, // usize::MAX when inactive
}

pub(crate) enum DynAction {
    StraggleStart {
        node: NodeId,
        num: u64,
        den: u64,
    },
    StraggleEnd {
        node: NodeId,
    },
    Fail {
        node: NodeId,
        restart_delay: Duration,
    },
}

/// Flattens the trace into dense flow/coflow tables with reversed
/// dependency edges (shared by both engine loops).
pub(crate) fn flatten(trace: &Trace) -> (Vec<SimFlow>, Vec<SimCoflow>) {
    let n_coflows = trace.coflows.len();
    let mut flows: Vec<SimFlow> = Vec::with_capacity(trace.num_flows());
    let mut coflows: Vec<SimCoflow> = Vec::with_capacity(n_coflows);
    let mut id_to_idx = std::collections::HashMap::with_capacity(n_coflows);
    for (ci, c) in trace.coflows.iter().enumerate() {
        id_to_idx.insert(c.id, ci);
        let first_flow = flows.len();
        for f in &c.flows {
            flows.push(SimFlow {
                coflow: ci,
                src: f.src,
                dst: f.dst,
                size: f.size,
                sent: Bytes::ZERO,
                rate: Rate::ZERO,
                ready_at: Time::NEVER, // set at release
                finished_at: None,
            });
        }
        coflows.push(SimCoflow {
            released: None,
            finished: None,
            first_flow,
            num_flows: c.flows.len(),
            unfinished: c.flows.len(),
            deps_left: c.deps.len(),
            dependents: Vec::new(),
            restarted: false,
            view_slot: usize::MAX,
        });
    }
    // Reverse dependency edges.
    for (ci, c) in trace.coflows.iter().enumerate() {
        for d in &c.deps {
            let di = id_to_idx[d];
            coflows[di].dependents.push(ci);
        }
    }
    (flows, coflows)
}

/// Builds the arrival and dynamics event queues (shared by both loops;
/// push order fixes `EventQueue` tie-break sequence numbers, so it must
/// be identical between them).
fn event_sources(
    trace: &Trace,
    dynamics: &DynamicsSpec,
) -> (EventQueue<usize>, EventQueue<DynAction>) {
    let mut arrivals: EventQueue<usize> = EventQueue::with_capacity(trace.coflows.len());
    for (ci, c) in trace.coflows.iter().enumerate() {
        if c.deps.is_empty() {
            arrivals.push(c.arrival, ci);
        }
    }
    let mut dyn_events: EventQueue<DynAction> = EventQueue::new();
    for ev in dynamics.sorted() {
        match ev {
            DynamicsEvent::Straggler {
                node,
                at,
                until,
                num,
                den,
            } => {
                dyn_events.push(at, DynAction::StraggleStart { node, num, den });
                dyn_events.push(until, DynAction::StraggleEnd { node });
            }
            DynamicsEvent::NodeFailure {
                node,
                at,
                restart_delay,
            } => {
                dyn_events.push(
                    at,
                    DynAction::Fail {
                        node,
                        restart_delay,
                    },
                );
            }
        }
    }
    (arrivals, dyn_events)
}

/// Builds the [`CoflowView`] pushed into the active set when a CoFlow
/// is released at time `t` (shared by both loops).
pub(crate) fn make_view(
    trace: &Trace,
    ci: usize,
    first_flow: usize,
    t: Time,
    clairvoyant: bool,
) -> CoflowView {
    let spec = &trace.coflows[ci];
    CoflowView {
        id: spec.id,
        arrival: t,
        flows: spec
            .flows
            .iter()
            .enumerate()
            .map(|(k, f)| FlowView {
                id: FlowId::from_index(first_flow + k),
                src: f.src,
                dst: f.dst,
                sent: Bytes::ZERO,
                ready: false,
                finished: false,
                oracle_size: clairvoyant.then_some(f.size),
            })
            .collect(),
        restarted: false,
    }
}

#[inline]
fn mark_dirty(dirty: &mut [bool], dirty_list: &mut Vec<usize>, ci: usize) {
    if !dirty[ci] {
        dirty[ci] = true;
        dirty_list.push(ci);
    }
}

/// Marks `ci` dirty for a change beyond byte progress: its next view
/// sync walks every one of its flows (module docs, "What a view sync
/// writes").
#[inline]
fn mark_walk(dirty: &mut [bool], dirty_list: &mut Vec<usize>, walk: &mut [bool], ci: usize) {
    mark_dirty(dirty, dirty_list, ci);
    walk[ci] = true;
}

/// Keeps the entries of `flowing` that still send: unfinished, with a
/// nonzero rate. Order is kept.
fn compact(flowing: &mut Vec<usize>, flows: &[SimFlow]) {
    flowing.retain(|&fi| flows[fi].finished_at.is_none() && !flows[fi].rate.is_zero());
}

/// Members a closed class's buffer may keep room for (1 KB). Most
/// classes are an admitted CoFlow's flows, a handful to a few dozen.
const SPARE_CAPACITY: usize = 64;

/// The unfinished flows holding one rate (module docs, "Rate classes").
struct RateClass {
    rate: Rate,
    /// Bytes credited to each member over the steps since the class
    /// opened.
    acc: u64,
    /// `(threshold, flow)` of every member, as a binary min-heap: the
    /// first one finishes first.
    heap: Vec<(u64, u32)>,
}

/// Every unfinished flow with a nonzero rate, grouped by rate. A class
/// closes when its last member leaves, so every class is nonempty.
#[derive(Default)]
struct RateClasses {
    classes: Vec<RateClass>,
    /// Closed classes, with their buffers if no larger than
    /// [`SPARE_CAPACITY`]: classes open and close round after round, and
    /// reusing small buffers spares the allocator that churn without
    /// keeping a large one.
    spare: Vec<RateClass>,
    /// Rate → index into `classes`.
    by_rate: FastHashMap<u64, usize>,
    /// Member → its index in its class's heap. Kept for the members
    /// only: a per-flow array would cost every flow, sending or not.
    slot: FastHashMap<u32, u32>,
}

impl RateClasses {
    /// Members over all classes: the flows whose completion is pending.
    fn members(&self) -> usize {
        self.slot.len()
    }

    /// Adds `f` — unfinished, with a nonzero rate and its `sent`
    /// current — to the class of its rate, opening the class if need be.
    fn join(&mut self, fi: usize, f: &SimFlow) {
        debug_assert!(f.finished_at.is_none() && !f.rate.is_zero());
        let open = self.classes.len();
        let c = *self.by_rate.entry(f.rate.as_u64()).or_insert(open);
        if c == open {
            let mut class = self.spare.pop().unwrap_or(RateClass {
                rate: f.rate,
                acc: 0,
                heap: Vec::new(),
            });
            (class.rate, class.acc) = (f.rate, 0);
            self.classes.push(class);
        }
        let class = &mut self.classes[c];
        let threshold = class
            .acc
            .checked_add((f.size - f.sent).0)
            .expect("rate class threshold overflows u64");
        class.heap.push((threshold, fi as u32));
        let last = class.heap.len() - 1;
        sift_up(&mut class.heap, &mut self.slot, last);
    }

    /// Takes `f` out of its rate's class, with its `sent` written back.
    fn leave(&mut self, fi: usize, f: &mut SimFlow) {
        let c = self.by_rate[&f.rate.as_u64()];
        let class = &mut self.classes[c];
        let i = self.slot[&(fi as u32)] as usize;
        debug_assert_eq!(
            class.heap[i].1 as usize, fi,
            "flow {fi} is not in its rate class"
        );
        let (threshold, _) = remove_at(&mut class.heap, &mut self.slot, i);
        f.sent = f.size - Bytes(threshold - class.acc);
        if class.heap.is_empty() {
            self.close(c);
        }
    }

    fn close(&mut self, c: usize) {
        let mut class = self.classes.swap_remove(c);
        self.by_rate.remove(&class.rate.as_u64());
        if let Some(moved) = self.classes.get(c) {
            self.by_rate.insert(moved.rate.as_u64(), c);
        }
        if class.heap.capacity() > SPARE_CAPACITY {
            class.heap = Vec::new();
        }
        self.spare.push(class);
    }

    /// Writes every member's `sent` back, handing each member to
    /// `visit` after.
    fn write_back(&self, flows: &mut [SimFlow], mut visit: impl FnMut(usize, &SimFlow)) {
        for class in &self.classes {
            for &(threshold, fi) in &class.heap {
                let f = &mut flows[fi as usize];
                f.sent = f.size - Bytes(threshold - class.acc);
                visit(fi as usize, f);
            }
        }
    }

    /// The earliest completion under current rates, predicted at `now`
    /// (the instant every class was last credited to): each class's
    /// first member's [`prediction`].
    fn next_completion(&self, now: Time) -> Time {
        self.classes.iter().fold(Time::NEVER, |t, class| {
            let (threshold, _) = class.heap[0];
            t.min(now.saturating_add(transfer_time(Bytes(threshold - class.acc), class.rate)))
        })
    }

    /// Credits every class one step of `first` and `more` steps of
    /// `delta`, and hands each flow that reaches its threshold to
    /// `finish`, out of its class.
    fn advance(
        &mut self,
        first: Duration,
        more: u64,
        delta: Duration,
        mut finish: impl FnMut(usize),
    ) {
        // Backwards, so a class closed here swaps in one already done.
        for c in (0..self.classes.len()).rev() {
            let class = &mut self.classes[c];
            class.acc = class
                .acc
                .checked_add(bytes_over(class.rate, first, more, delta).0)
                .expect("rate class accumulator overflows u64");
            while class
                .heap
                .first()
                .is_some_and(|&(threshold, _)| threshold <= class.acc)
            {
                let (_, fi) = remove_at(&mut class.heap, &mut self.slot, 0);
                finish(fi as usize);
            }
            if class.heap.is_empty() {
                self.close(c);
            }
        }
    }

    /// Flow `fi`'s `sent` as its class has it (debug oracle).
    #[cfg(debug_assertions)]
    fn sent_of(&self, fi: usize, f: &SimFlow) -> Bytes {
        let class = &self.classes[self.by_rate[&f.rate.as_u64()]];
        let (threshold, member) = class.heap[self.slot[&(fi as u32)] as usize];
        assert_eq!(member as usize, fi, "flow {fi} is not in its rate class");
        f.size - Bytes(threshold - class.acc)
    }
}

/// Moves `heap[i]` up to its place, keeping `slot` on every entry it
/// moves.
fn sift_up(heap: &mut [(u64, u32)], slot: &mut FastHashMap<u32, u32>, mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent] <= heap[i] {
            break;
        }
        heap.swap(parent, i);
        slot.insert(heap[i].1, i as u32);
        i = parent;
    }
    slot.insert(heap[i].1, i as u32);
}

/// Moves `heap[i]` down to its place, keeping `slot` on every entry it
/// moves.
fn sift_down(heap: &mut [(u64, u32)], slot: &mut FastHashMap<u32, u32>, mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let child = if left + 1 < heap.len() && heap[left + 1] < heap[left] {
            left + 1
        } else {
            left
        };
        if heap[i] <= heap[child] {
            break;
        }
        heap.swap(i, child);
        slot.insert(heap[i].1, i as u32);
        i = child;
    }
    slot.insert(heap[i].1, i as u32);
}

/// Removes and returns `heap[i]`, keeping the heap order and `slot`.
fn remove_at(heap: &mut Vec<(u64, u32)>, slot: &mut FastHashMap<u32, u32>, i: usize) -> (u64, u32) {
    let out = heap.swap_remove(i);
    slot.remove(&out.1);
    if i < heap.len() {
        sift_down(heap, slot, i);
        sift_up(heap, slot, i);
    }
    out
}

/// What a replay carries besides the trace and the scheduler: an
/// optional instrumentation handle, an optional event-log sink, a
/// snapshot cadence, and an optional snapshot blob to resume from.
///
/// With `tele` the engine counts rate-class joins, the classes and
/// flows each step credits, dirty-set sizes, scheduling rounds and
/// per-section wall time, and —
/// if the handle was built with [`Telemetry::with_jsonl`] — appends one
/// deterministic JSONL round snapshot per scheduling round. Without it
/// the instrumentation vanishes; records are byte-identical either way,
/// which `tests/engine_equivalence.rs` asserts.
///
/// With a `sink`, every scheduling round appends one canonical
/// [`RoundRecord`] and (at the cadence) one engine snapshot. With
/// `resume_from`, the engine restores the blob's state and continues —
/// producing round records and CoFlow records byte-identical to the
/// uninterrupted run's suffix.
#[derive(Default)]
pub struct ReplayHooks<'a> {
    /// Instrumentation handle; `None` skips even the cheap increments.
    pub tele: Option<&'a mut Telemetry>,
    /// Where round records and snapshots go; `None` disables logging.
    pub sink: Option<&'a mut dyn RoundSink>,
    /// Snapshot every this many scheduling rounds; `0` disables
    /// snapshots. Cadence does not perturb the simulation, so logs
    /// written at different cadences chain to identical digests.
    pub snapshot_every: u64,
    /// A snapshot blob (from [`crate::snapshot`] via the log) to resume
    /// from instead of starting at time zero.
    pub resume_from: Option<&'a [u8]>,
}

impl ReplayHooks<'_> {
    /// No telemetry, no logging, no snapshots, no resume — plain
    /// simulation.
    pub fn none() -> Self {
        ReplayHooks::default()
    }
}

/// Replays `trace` under `sched`, returning per-CoFlow records.
///
/// This is the incremental epoch loop; it produces byte-identical
/// records to [`simulate_reference`] while doing per-step work
/// proportional to what changed rather than to the number of active
/// flows.
pub fn simulate(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
) -> Result<SimOutput, SimError> {
    simulate_resumable(trace, sched, cfg, dynamics, ReplayHooks::none())
}

/// [`simulate`] with instrumentation and persistence: telemetry, event
/// logging, periodic snapshots, and resume-from-snapshot (see
/// [`ReplayHooks`]).
///
/// Resume semantics: the blob restores the engine to the top of the
/// epoch loop exactly as it stood when the snapshot was taken. The first
/// post-resume round hands the scheduler `changed: None` — the hint
/// contract's "assume everything changed" — so schedulers rebuild their
/// view-derived caches from the cold state; only genuinely historical
/// scheduler state travels in the blob (`CoflowScheduler::save_state`).
/// The continuation's round records and CoFlow records are
/// byte-identical to the uninterrupted run's, which
/// `tests/snapshot_resume.rs` asserts at every boundary.
pub fn simulate_resumable(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
    mut hooks: ReplayHooks<'_>,
) -> Result<SimOutput, SimError> {
    let mut tele = hooks.tele.take();
    trace
        .validate()
        .map_err(|e| SimError::InvalidTrace(e.to_string()))?;
    if sched.requires_clairvoyance() && !cfg.clairvoyant {
        return Err(SimError::NeedsOracle(sched.name()));
    }

    let n_coflows = trace.coflows.len();
    let num_nodes = trace.num_nodes;

    let (mut flows, mut coflows) = flatten(trace);
    let (mut arrivals, mut dyn_events) = event_sources(trace, dynamics);

    // ---- Live state ----
    let mut bank = PortBank::uniform(num_nodes, trace.port_rate);
    let nominal = trace.port_rate;
    let mut views: Vec<CoflowView> = Vec::new(); // active CoFlows
    let mut view_owner: Vec<usize> = Vec::new(); // views[i] belongs to coflow view_owner[i]
    let mut schedule = Schedule::default();
    let mut records: Vec<CoflowRecord> = Vec::with_capacity(n_coflows);

    let mut now = Time::ZERO;
    let mut rounds: u64 = 0;
    // Nodes currently straggling — any CoFlow with unfinished flows on
    // one is flagged `restarted` at view-sync time, so the §4.3
    // heuristic sees it regardless of when the CoFlow was released or
    // whether its flows happened to hold a rate when the event fired.
    let mut straggled = vec![false; num_nodes];

    // ---- Incremental machinery ----
    // The flows the last computed round set sending, in the schedule's
    // rate-list order (so iteration stays deterministic). Flows that
    // finish or lose their rate since stay until `compact` drops them
    // where the list is read (module docs).
    let mut flowing: Vec<usize> = Vec::new();
    // Every unfinished flow with a nonzero rate, credited per rate.
    let mut classes = RateClasses::default();
    // CoFlows whose view lags ground truth (flows progressed, readiness
    // or restart flags changed) — the only ones re-synced per round —
    // and, among them, those whose sync walks every flow.
    let mut dirty = vec![false; n_coflows];
    let mut dirty_list: Vec<usize> = Vec::new();
    let mut walk = vec![false; n_coflows];
    // Flows finished since the last view sync.
    let mut finished: Vec<usize> = Vec::new();
    // Wakes the sync for CoFlows whose flows become ready mid-run
    // (`available_after` delays, failure restarts). At δ > 0 readiness
    // is not a `t_next` candidate — exactly as in the reference loop, a
    // flow becoming ready between steps is seen at the next step; in
    // event-driven mode there may be no next step, so it is one.
    let mut ready_events: EventQueue<usize> = EventQueue::new();
    // Round stamps for the schedule diff: flows stamped this round keep
    // a rate; previously-flowing flows that lost theirs are zeroed.
    let mut sched_stamp: Vec<u64> = vec![0; flows.len()];
    let mut round_stamp: u64 = 0;
    // CoFlow ids drained from the dirty set this round — handed to the
    // scheduler as the `ClusterView::changed` hint so incremental
    // contention tracking and order maintenance can delta-update
    // instead of rebuilding. The hint contract (see `ClusterView`)
    // covers *any* view-content change — footprints, `sent` bytes,
    // readiness, restarts — because schedulers also cache queue
    // assignments and ordering keys. The dirty set marks arrival, byte
    // progress (at the apply: every CoFlow the schedule sets sending),
    // readiness, straggler start/end, and failure resets, satisfying
    // that contract.
    let mut changed_ids: Vec<CoflowId> = Vec::new();
    // Whether anything but byte progress moved since the last computed
    // round (module docs); together with `schedule.valid_until` it
    // decides whether a round is computed or reuses the schedule.
    let mut structural = false;

    // ---- Resume from a snapshot blob, if asked ----
    // `resumed_cold` forces `changed: None` on the first post-resume
    // compute; `last_snapshot` stops an immediate re-snapshot at the
    // restored round count.
    let mut resumed_cold = false;
    let mut last_snapshot: u64 = 0;
    if let Some(blob) = hooks.resume_from {
        let st = snapshot::apply(blob, trace, cfg, sched).map_err(SimError::Snapshot)?;
        now = st.now;
        rounds = st.rounds;
        flows = st.flows;
        coflows = st.coflows;
        arrivals = st.arrivals;
        dyn_events = st.dyn_events;
        ready_events = st.ready_events;
        views = st.views;
        view_owner = st.view_owner;
        bank = st.bank;
        straggled = st.straggled;
        flowing = st.flowing;
        dirty = st.dirty;
        dirty_list = st.dirty_list;
        // The classes are not serialized: `apply` checked that
        // `flowing` holds exactly the unfinished flows with a rate, each
        // once, so they join afresh at their stored `sent`. The views of
        // the dirty CoFlows lag by what the uninterrupted run's next
        // sync would have written; walking them writes all of it.
        for &fi in &flowing {
            classes.join(fi, &flows[fi]);
            tele_incr!(tele, Counter::ClassJoins);
        }
        for &ci in &dirty_list {
            walk[ci] = true;
        }
        // Records of CoFlows that finished before the snapshot: rebuilt
        // from the restored tables. Push order differs from the original
        // run's, but the final sort-by-id normalizes it.
        for (ci, sc) in coflows.iter().enumerate() {
            if let Some(finish) = sc.finished {
                let released = sc.released.expect("finished before release");
                let spec = &trace.coflows[ci];
                records.push(CoflowRecord {
                    id: spec.id,
                    job: spec.job,
                    arrival: spec.arrival,
                    released,
                    finish,
                    width: spec.flows.len(),
                    total_bytes: spec.total_size(),
                    flow_fcts: (0..sc.num_flows)
                        .map(|k| {
                            flows[sc.first_flow + k]
                                .finished_at
                                .unwrap()
                                .since(released)
                        })
                        .collect(),
                    flow_sizes: spec.flows.iter().map(|f| f.size).collect(),
                });
            }
        }
        resumed_cold = true;
        structural = true;
        last_snapshot = rounds;
    }
    // The debug oracle (module docs): `sent` credited flow by flow.
    #[cfg(debug_assertions)]
    let mut shadow: Vec<Bytes> = flows.iter().map(|f| f.sent).collect();

    loop {
        // ---- 0. Snapshot at the cadence ----
        // Taken at the top of the loop: `now` is the instant the
        // previous iteration advanced to, and every event due at `now`
        // is still queued — exactly the state `apply` re-enters.
        if hooks.snapshot_every > 0
            && rounds > 0
            && rounds.is_multiple_of(hooks.snapshot_every)
            && last_snapshot != rounds
        {
            last_snapshot = rounds;
            if let Some(sink) = hooks.sink.as_deref_mut() {
                compact(&mut flowing, &flows);
                classes.write_back(&mut flows, |_, _| {});
                let blob = snapshot::encode(
                    &snapshot::SnapshotView {
                        now,
                        rounds,
                        flows: &flows,
                        coflows: &coflows,
                        arrivals: &arrivals,
                        dyn_events: &dyn_events,
                        ready_events: &ready_events,
                        views: &views,
                        view_owner: &view_owner,
                        bank: &bank,
                        straggled: &straggled,
                        flowing: &flowing,
                        dirty_list: &dirty_list,
                    },
                    trace,
                    cfg,
                    &*sched,
                );
                let n = sink
                    .append_snapshot(rounds, &blob)
                    .map_err(|e| SimError::Snapshot(e.to_string()))?;
                if let Some(t) = tele.as_deref_mut() {
                    t.incr(Counter::LogSnapshots);
                    t.add(Counter::LogBytesWritten, n);
                }
            }
        }

        // ---- 1. Drain everything due at `now` ----
        // Section spans are recorded explicitly (Instant before,
        // observe after) rather than via RAII guards because the
        // sections themselves thread `tele` mutably; both paths feed
        // the same `Phase`/`LogHist` vocabulary.
        let t_events = tele.is_some().then(Instant::now);
        while let Some((t, ci)) = arrivals.pop_due(now) {
            let t = t.max(now);
            let sc = &mut coflows[ci];
            debug_assert!(sc.released.is_none(), "double release of coflow {ci}");
            debug_assert!(sc.num_flows > 0, "validate() admitted an empty coflow");
            sc.released = Some(t);
            sc.view_slot = views.len();
            let first_flow = sc.first_flow;
            for (k, f) in trace.coflows[ci].flows.iter().enumerate() {
                let ready_at = t + f.available_after;
                flows[first_flow + k].ready_at = ready_at;
                if ready_at > t && !ready_at.is_never() {
                    ready_events.push(ready_at, ci);
                }
            }
            views.push(make_view(trace, ci, first_flow, t, cfg.clairvoyant));
            view_owner.push(ci);
            mark_walk(&mut dirty, &mut dirty_list, &mut walk, ci);
            structural = true;
        }
        while let Some((_, ci)) = ready_events.pop_due(now) {
            if coflows[ci].view_slot != usize::MAX {
                mark_walk(&mut dirty, &mut dirty_list, &mut walk, ci);
                structural = true;
            }
        }
        while let Some((_, action)) = dyn_events.pop_due(now) {
            structural = true;
            match action {
                DynAction::StraggleStart { node, num, den } => {
                    bank.set_node_capacity(node, nominal.mul_ratio(num, den));
                    straggled[node.index()] = true;
                    // Scale down in-flight rates on that node so the
                    // port is never oversubscribed mid-interval. Every
                    // nonzero-rate flow is in `flowing`; each one on the
                    // node moves to the class of its new rate.
                    compact(&mut flowing, &flows);
                    for &fi in &flowing {
                        let f = &mut flows[fi];
                        if f.src == node || f.dst == node {
                            classes.leave(fi, f);
                            f.rate = f.rate.mul_ratio(num, den);
                            if !f.rate.is_zero() {
                                classes.join(fi, f);
                                tele_incr!(tele, Counter::ClassJoins);
                            }
                        }
                    }
                    // Straggler flags can flip for any active CoFlow.
                    for &ci in &view_owner {
                        mark_walk(&mut dirty, &mut dirty_list, &mut walk, ci);
                    }
                }
                DynAction::StraggleEnd { node } => {
                    bank.set_node_capacity(node, nominal);
                    straggled[node.index()] = false;
                    for &ci in &view_owner {
                        mark_walk(&mut dirty, &mut dirty_list, &mut walk, ci);
                    }
                }
                DynAction::Fail {
                    node,
                    restart_delay,
                } => {
                    for (fi, f) in flows.iter_mut().enumerate() {
                        if f.finished_at.is_none()
                            && (f.src == node || f.dst == node)
                            && coflows[f.coflow].released.is_some()
                        {
                            if !f.rate.is_zero() {
                                classes.leave(fi, f);
                            }
                            f.sent = Bytes::ZERO;
                            f.rate = Rate::ZERO;
                            #[cfg(debug_assertions)]
                            {
                                shadow[fi] = Bytes::ZERO;
                            }
                            f.ready_at = f.ready_at.max(now.saturating_add(restart_delay));
                            let slot = coflows[f.coflow].view_slot;
                            if slot != usize::MAX {
                                coflows[f.coflow].restarted = true;
                                views[slot].restarted = true;
                                mark_walk(&mut dirty, &mut dirty_list, &mut walk, f.coflow);
                                if f.ready_at > now && !f.ready_at.is_never() {
                                    ready_events.push(f.ready_at, f.coflow);
                                }
                            }
                        }
                    }
                }
            }
        }
        if let (Some(t0), Some(t)) = (t_events, tele.as_deref_mut()) {
            t.spans
                .observe(Phase::EngineEvents, t0.elapsed().as_nanos() as u64);
        }

        // ---- 2. Recompute the schedule on δ boundaries ----
        let on_boundary = cfg.delta == Duration::ZERO || (now % cfg.delta) == Duration::ZERO;
        if on_boundary && !views.is_empty() {
            rounds += 1;
            if rounds > cfg.max_rounds {
                return Err(SimError::RoundLimit(cfg.max_rounds));
            }
            // Wall-clock only when instrumented; it never reaches the
            // JSONL trace, so determinism is unaffected.
            let t_round = tele.as_ref().map(|_| Instant::now());
            let dirty_n = dirty_list.len();
            // Compute, unless the schedule in hand is provably what
            // `compute` would return (module docs): nothing structural
            // moved since it was computed and its horizon is ahead.
            let computed = structural || now >= schedule.valid_until;
            if computed {
                structural = false;
                // Sync views with ground truth — only what moved
                // (module docs). Byte progress first: every flow that
                // sent since the last sync is a member now, or finished.
                let t_viewsync = t_round.map(|_| Instant::now());
                classes.write_back(&mut flows, |fi, f| {
                    let c = &coflows[f.coflow];
                    views[c.view_slot].flows[fi - c.first_flow].sent = f.sent;
                });
                for fi in finished.drain(..) {
                    let ci = flows[fi].coflow;
                    let c = &coflows[ci];
                    if c.view_slot == usize::MAX {
                        continue; // completed since
                    }
                    let view = &mut views[c.view_slot];
                    let fv = &mut view.flows[fi - c.first_flow];
                    fv.sent = flows[fi].sent;
                    fv.finished = true;
                    // A straggler flag may have rested on this flow.
                    if view.restarted && !c.restarted {
                        debug_assert!(dirty[ci], "finished flow's coflow {ci} not dirty");
                        walk[ci] = true;
                    }
                }
                let any_straggler = straggled.iter().any(|&b| b);
                changed_ids.clear();
                for ci in dirty_list.drain(..) {
                    dirty[ci] = false;
                    let walk_all = std::mem::take(&mut walk[ci]);
                    let slot = coflows[ci].view_slot;
                    if slot == usize::MAX {
                        continue; // completed since it was marked
                    }
                    changed_ids.push(views[slot].id);
                    if !walk_all {
                        continue;
                    }
                    let view = &mut views[slot];
                    let base = coflows[ci].first_flow;
                    let mut touches_straggler = false;
                    for (k, fv) in view.flows.iter_mut().enumerate() {
                        let f = &flows[base + k];
                        fv.sent = f.sent;
                        fv.finished = f.finished_at.is_some();
                        fv.ready = f.ready_at <= now;
                        if any_straggler
                            && f.finished_at.is_none()
                            && (straggled[f.src.index()] || straggled[f.dst.index()])
                        {
                            touches_straggler = true;
                        }
                    }
                    // Failure flags persist (the framework's `update()` told
                    // the coordinator); straggler flags follow the slowdown.
                    view.restarted = coflows[ci].restarted || touches_straggler;
                }
                #[cfg(debug_assertions)]
                check_views(&views, &view_owner, &flows, &coflows, &straggled, now);
                if let (Some(t0), Some(t)) = (t_viewsync, tele.as_deref_mut()) {
                    t.spans
                        .observe(Phase::EngineViewSync, t0.elapsed().as_nanos() as u64);
                }
                bank.reset_round();
                schedule.clear();
                {
                    // First round after a resume: the scheduler's
                    // view-derived caches are cold, so hand it the hint
                    // contract's "assume everything changed". Output is
                    // identical either way (the incremental paths are
                    // oracle-checked against full rebuilds every round);
                    // only the rebuild cost differs, once.
                    let changed = if resumed_cold {
                        None
                    } else {
                        Some(changed_ids.as_slice())
                    };
                    let view = ClusterView {
                        now,
                        num_nodes,
                        coflows: &views,
                        changed,
                    };
                    sched.compute(&view, &mut bank, &mut schedule);
                    resumed_cold = false;
                }
                // Apply as a diff: zero only flows that lost their rate,
                // move only flows whose rate actually changed.
                round_stamp += 1;
                for &(fid, _) in &schedule.rates {
                    sched_stamp[fid.index()] = round_stamp;
                }
                compact(&mut flowing, &flows);
                for &fi in &flowing {
                    if sched_stamp[fi] != round_stamp {
                        let f = &mut flows[fi];
                        classes.leave(fi, f);
                        f.rate = Rate::ZERO;
                    }
                }
                flowing.clear();
                for &(fid, rate) in &schedule.rates {
                    let fi = fid.index();
                    let f = &mut flows[fi];
                    debug_assert!(f.finished_at.is_none(), "rate for finished flow {fid}");
                    debug_assert!(f.ready_at <= now, "rate for unready flow {fid}");
                    if f.rate != rate {
                        if !f.rate.is_zero() {
                            classes.leave(fi, f);
                        }
                        f.rate = rate;
                        if !rate.is_zero() {
                            classes.join(fi, f);
                            tele_incr!(tele, Counter::ClassJoins);
                        }
                    }
                    flowing.push(fi);
                    if rate.is_zero() {
                        // A zero-rate entry leaves `flowing` at the next
                        // compaction, which is a structural change: say
                        // so now, so no jump is planned across it.
                        structural = true;
                    } else {
                        // It will send: its view lags from the next step.
                        mark_dirty(&mut dirty, &mut dirty_list, f.coflow);
                    }
                }
                #[cfg(debug_assertions)]
                check_feasibility(&flows, &bank, num_nodes);
            } else {
                tele_incr!(tele, Counter::RoundsElided);
            }

            emit_rounds(
                &Rounds {
                    first: rounds - 1,
                    at: now,
                    step: cfg.delta,
                    k: 1,
                    active: views.len(),
                    // A computed round reads the schedule it just
                    // applied, zero-rate entries and all; a reused one
                    // the flows still sending.
                    flowing: if computed {
                        flowing.len()
                    } else {
                        classes.members()
                    },
                    dirty: dirty_n,
                    pending: classes.members(),
                    schedule: &schedule,
                    flows: &flows,
                    bank: &bank,
                    sched: &*sched,
                },
                hooks.sink.as_deref_mut(),
                tele.as_deref_mut(),
            )?;
            if let (Some(started), Some(t)) = (t_round, tele.as_deref_mut()) {
                t.spans
                    .observe(Phase::EngineRound, started.elapsed().as_nanos() as u64);
            }
        }

        // ---- 3. Find the next instant anything changes ----
        let mut t_next = Time::NEVER;
        if let Some(t) = arrivals.peek_time() {
            t_next = t_next.min(t);
        }
        if let Some(t) = dyn_events.peek_time() {
            t_next = t_next.min(t);
        }
        let mut t_complete = Time::NEVER;
        let mut next_boundary = Time::NEVER;
        if !views.is_empty() {
            // Earliest completion under current rates: one prediction
            // per class.
            t_complete = classes.next_completion(now);
            #[cfg(debug_assertions)]
            {
                let scan = flowing
                    .iter()
                    .filter(|&&fi| flows[fi].finished_at.is_none() && !flows[fi].rate.is_zero())
                    .map(|&fi| {
                        let f = &flows[fi];
                        now.saturating_add(transfer_time(f.size - shadow[fi], f.rate))
                    })
                    .fold(Time::NEVER, Time::min);
                assert_eq!(t_complete, scan, "class minimum is not the flows' at {now}");
            }
            t_next = t_next.min(t_complete);
            if cfg.delta == Duration::ZERO {
                // Event-driven mode: recompute whenever anything fires;
                // no synthetic boundaries needed. A flow becoming ready
                // is such an event, and with no boundary to catch it at
                // it must be stepped to. An entry whose flow a failure
                // has since pushed further out is dropped, not woken
                // for: the reference loop, which reads `ready_at`
                // itself, never sees it.
                while let Some((t, &ci)) = ready_events.peek() {
                    let sc = &coflows[ci];
                    let waits = sc.view_slot != usize::MAX
                        && flows[sc.first_flow..sc.first_flow + sc.num_flows]
                            .iter()
                            .any(|f| f.finished_at.is_none() && f.ready_at == t);
                    if waits {
                        t_next = t_next.min(t);
                        break;
                    }
                    ready_events.pop();
                }
            } else {
                // Next schedule boundary.
                next_boundary =
                    Time((now.as_nanos() / cfg.delta.as_nanos() + 1) * cfg.delta.as_nanos());
                t_next = t_next.min(next_boundary);
            }
        }

        if t_next.is_never() {
            break; // no active work, no future events
        }
        if let Some(h) = cfg.horizon {
            if t_next > h {
                now = h;
                break;
            }
        }

        // Quiet boundaries ahead are not stopped at (module docs, "When
        // a boundary is not visited"). With nothing due before the next
        // boundary and nothing structural pending, every boundary
        // before `limit` is a round that reuses the schedule in hand
        // and is left with no flow finished and no event drained. Step
        // to the last of them and hand the ones passed over to the
        // observers below; the round at the landing boundary is the
        // next iteration's, as ever. A scheduler that sets no horizon
        // has `limit == Time::ZERO` and is stepped one boundary at a
        // time, and so is every step that ends at an event.
        let first = t_next - now;
        let mut passed = 0u64;
        if !structural && t_next == next_boundary {
            let limit = [
                arrivals.peek_time(),
                dyn_events.peek_time(),
                ready_events.peek_time(),
                cfg.horizon,
            ]
            .into_iter()
            .flatten()
            .fold(t_complete.min(schedule.valid_until), Time::min);
            if limit > t_next {
                let quiet = (limit.as_nanos() - 1 - t_next.as_nanos()) / cfg.delta.as_nanos();
                // A jump never carries the round count past
                // `max_rounds` (the landing round trips the limit, at
                // the count the single steps would) nor past the next
                // snapshot point (it lands there, and the snapshot is
                // taken at the top of the loop as ever).
                let next_snapshot = match hooks.snapshot_every {
                    0 => u64::MAX,
                    every => (last_snapshot / every + 1).saturating_mul(every),
                };
                let room = cfg.max_rounds.min(next_snapshot).saturating_sub(rounds);
                passed = quiet.min(room);
                t_next = Time(t_next.as_nanos() + passed * cfg.delta.as_nanos());
            }
        }

        // ---- 4. Advance the classes to t_next ----
        // One step of `first`, then `passed` more of δ each: what the
        // single steps credit, floor by floor, once per class. A flow
        // whose class reaches its threshold finishes at `t_next`.
        let t_advance = tele.is_some().then(Instant::now);
        if let Some(t) = tele.as_deref_mut() {
            t.step_classes.observe(classes.classes.len() as u64);
            t.step_flows.observe(classes.members() as u64);
        }
        #[cfg(debug_assertions)]
        for &fi in &flowing {
            let f = &flows[fi];
            if f.finished_at.is_none() && !f.rate.is_zero() {
                shadow[fi] =
                    (shadow[fi] + bytes_over(f.rate, first, passed, cfg.delta)).min(f.size);
            }
        }
        let mut completed = 0usize;
        let was_finished = finished.len();
        classes.advance(first, passed, cfg.delta, |fi| {
            let f = &mut flows[fi];
            f.sent = f.size;
            f.finished_at = Some(t_next);
            let c = &mut coflows[f.coflow];
            c.unfinished -= 1;
            if c.unfinished == 0 {
                completed += 1;
            }
            finished.push(fi);
        });
        // A flow that finished left the set: the retained schedule no
        // longer describes what is sending.
        structural |= finished.len() != was_finished;
        #[cfg(debug_assertions)]
        for &fi in &flowing {
            let f = &flows[fi];
            if f.rate.is_zero() || f.finished_at.is_some_and(|t| t < t_next) {
                continue;
            }
            assert!(
                dirty[f.coflow],
                "coflow {} sends but is not dirty",
                f.coflow
            );
            match f.finished_at {
                Some(_) => assert_eq!(shadow[fi], f.size, "flow {fi} finished early"),
                None => assert_eq!(
                    classes.sent_of(fi, f),
                    shadow[fi],
                    "flow {fi} credited wrong"
                ),
            }
        }

        // ---- 5. Retire completed CoFlows ----
        // Replays the reference loop's slot scan (its swap-remove order
        // decides dependent-release sequence numbers and the next
        // round's view order), but with an O(1) done-check per slot and
        // an early exit once every completion is accounted for.
        if completed > 0 {
            let mut slot = 0;
            while completed > 0 {
                let ci = view_owner[slot];
                if coflows[ci].unfinished > 0 {
                    slot += 1;
                    continue;
                }
                completed -= 1;
                let sc = &mut coflows[ci];
                sc.finished = Some(t_next);
                let released = sc.released.expect("finished before release");
                let base = sc.first_flow;
                let nf = sc.num_flows;
                let spec = &trace.coflows[ci];
                records.push(CoflowRecord {
                    id: spec.id,
                    job: spec.job,
                    arrival: spec.arrival,
                    released,
                    finish: t_next,
                    width: spec.flows.len(),
                    total_bytes: spec.total_size(),
                    flow_fcts: (0..nf)
                        .map(|k| flows[base + k].finished_at.unwrap().since(released))
                        .collect(),
                    flow_sizes: spec.flows.iter().map(|f| f.size).collect(),
                });
                // Remove from the active views (swap-remove).
                let last = views.len() - 1;
                views.swap_remove(slot);
                let moved = view_owner.swap_remove(slot);
                debug_assert_eq!(moved, ci);
                coflows[ci].view_slot = usize::MAX;
                if slot < last {
                    coflows[view_owner[slot]].view_slot = slot;
                }
                // Release dependents whose gates just opened.
                let dependents = coflows[ci].dependents.clone();
                for di in dependents {
                    coflows[di].deps_left -= 1;
                    if coflows[di].deps_left == 0 {
                        let at = trace.coflows[di].arrival.max(t_next);
                        arrivals.push(at, di);
                    }
                }
                // Do not advance `slot`: swap_remove moved a new view in.
            }
        }
        if let (Some(t0), Some(t)) = (t_advance, tele.as_deref_mut()) {
            t.spans
                .observe(Phase::EngineAdvance, t0.elapsed().as_nanos() as u64);
        }

        // ---- 6. The rounds passed over ----
        // Emitted after the advance pass, which finished nothing and
        // left the dirty set and the flows sending as each single
        // step's round would have read them.
        if passed > 0 {
            debug_assert!(!structural, "a flow left the set inside a jump");
            if let Some(t) = tele.as_deref_mut() {
                t.add(Counter::RoundsElided, passed);
                t.add(Counter::RoundsJumped, passed);
            }
            emit_rounds(
                &Rounds {
                    first: rounds,
                    at: now + first,
                    step: cfg.delta,
                    k: passed,
                    active: views.len(),
                    flowing: classes.members(),
                    dirty: dirty_list.len(),
                    pending: classes.members(),
                    schedule: &schedule,
                    flows: &flows,
                    bank: &bank,
                    sched: &*sched,
                },
                hooks.sink.as_deref_mut(),
                tele.as_deref_mut(),
            )?;
            rounds += passed;
        }
        now = t_next;
    }

    let unfinished = coflows.iter().filter(|c| c.finished.is_none()).count();
    records.sort_by_key(|r| r.id);
    Ok(SimOutput {
        records,
        unfinished,
        rounds,
        end: now,
    })
}

/// Bytes a flow sending at `rate` is credited over one step of `first`
/// followed by `more` steps of `delta` each — the sum of the per-step
/// floors, which is what the single steps add up to (and less than the
/// floor over the whole span: `Σ floor ≤ floor Σ`).
#[inline]
fn bytes_over(rate: Rate, first: Duration, more: u64, delta: Duration) -> Bytes {
    let head = bytes_in(rate, first);
    if more == 0 {
        return head;
    }
    Bytes(head.0 + more * bytes_in(rate, delta).0)
}

/// `k` consecutive rounds as the observers are told of them: the round
/// at `at`, then one every `step`, all standing on one schedule and one
/// engine state. A round the loop stops at is `k = 1`; the rounds a
/// jump passes over are one call with `k > 1`.
struct Rounds<'a> {
    /// 0-based ordinal of the first round.
    first: u64,
    at: Time,
    step: Duration,
    k: u64,
    active: usize,
    flowing: usize,
    dirty: usize,
    /// Flows whose completion is pending: the class members.
    pending: usize,
    schedule: &'a Schedule,
    flows: &'a [SimFlow],
    bank: &'a PortBank,
    sched: &'a dyn CoflowScheduler,
}

/// Appends the rounds to the event log, counts them, samples the set
/// sizes and writes their JSONL lines. Everything but a record's
/// ordinal and instant is built once and restamped.
fn emit_rounds(
    r: &Rounds<'_>,
    sink: Option<&mut (dyn RoundSink + '_)>,
    mut tele: Option<&mut Telemetry>,
) -> Result<(), SimError> {
    let stamps = (0..r.k).map(|j| (r.first + j, r.at.as_nanos() + j * r.step.as_nanos()));
    // Entries carry the flow's endpoints so the differ can name ports
    // without the trace; zero rates are dropped (paused flows are
    // absent by convention) and the writer canonicalizes entry order,
    // so a round logs the same bytes whatever order the policy emitted
    // its rates in.
    if let Some(sink) = sink {
        let mut rec = RoundRecord {
            round: 0,
            now_ns: 0,
            active: r.active as u32,
            entries: r
                .schedule
                .rates
                .iter()
                .filter(|&&(_, rate)| !rate.is_zero())
                .map(|&(fid, rate)| {
                    let f = &r.flows[fid.index()];
                    RateEntry {
                        flow: fid.0,
                        src: f.src.0,
                        dst: f.dst.0,
                        rate: rate.as_u64(),
                    }
                })
                .collect(),
        };
        for (round, now_ns) in stamps.clone() {
            (rec.round, rec.now_ns) = (round, now_ns);
            let n = sink
                .append_round(&rec)
                .map_err(|e| SimError::Log(e.to_string()))?;
            if let Some(t) = tele.as_deref_mut() {
                t.incr(Counter::LogRoundsAppended);
                t.add(Counter::LogBytesWritten, n);
            }
        }
    }
    if let Some(t) = tele {
        t.add(Counter::SchedRounds, r.k);
        t.dirty_set.observe_n(r.dirty as u64, r.k);
        t.pending.observe_n(r.pending as u64, r.k);
        t.active_coflows.observe_n(r.active as u64, r.k);
        if t.wants_jsonl() {
            let mut line = RoundSnapshot {
                round: 0,
                now_ns: 0,
                active_coflows: r.active,
                flowing: r.flowing,
                dirty: r.dirty,
                pending: r.pending,
                saturated_ports: r.bank.saturated_ports(),
                utilization_permille: r.bank.utilization_permille(),
                queue_occupancy: r.sched.queue_occupancy().unwrap_or(&[]),
            };
            for (round, now_ns) in stamps {
                (line.round, line.now_ns) = (round, now_ns);
                t.snapshot_round(&line);
            }
        }
    }
    Ok(())
}

/// The pre-refactor epoch loop, kept as the executable specification
/// for [`simulate`]: every step re-scans all active flows for the next
/// completion, zeroes every rate before applying a schedule, and
/// re-syncs every view each round.
///
/// Use it to cross-check the incremental loop: the records must be
/// byte-identical (`repro scale` checks its first sweep point, and
/// every point under `--small`).
pub fn simulate_reference(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
) -> Result<SimOutput, SimError> {
    trace
        .validate()
        .map_err(|e| SimError::InvalidTrace(e.to_string()))?;
    if sched.requires_clairvoyance() && !cfg.clairvoyant {
        return Err(SimError::NeedsOracle(sched.name()));
    }

    let n_coflows = trace.coflows.len();
    let num_nodes = trace.num_nodes;

    let (mut flows, mut coflows) = flatten(trace);
    let (mut arrivals, mut dyn_events) = event_sources(trace, dynamics);

    // ---- Live state ----
    let mut bank = PortBank::uniform(num_nodes, trace.port_rate);
    let nominal = trace.port_rate;
    let mut views: Vec<CoflowView> = Vec::new(); // active CoFlows
    let mut view_owner: Vec<usize> = Vec::new(); // views[i] belongs to coflow view_owner[i]
    let mut schedule = Schedule::default();
    let mut records: Vec<CoflowRecord> = Vec::with_capacity(n_coflows);

    let mut now = Time::ZERO;
    let mut rounds: u64 = 0;
    let mut straggled = vec![false; num_nodes];

    // Releases a coflow into the active set at time `t`.
    let release = |ci: usize,
                   t: Time,
                   coflows: &mut Vec<SimCoflow>,
                   flows: &mut Vec<SimFlow>,
                   views: &mut Vec<CoflowView>,
                   view_owner: &mut Vec<usize>| {
        let sc = &mut coflows[ci];
        debug_assert!(sc.released.is_none(), "double release of coflow {ci}");
        sc.released = Some(t);
        let spec = &trace.coflows[ci];
        for (k, f) in spec.flows.iter().enumerate() {
            flows[sc.first_flow + k].ready_at = t + f.available_after;
        }
        sc.view_slot = views.len();
        views.push(make_view(trace, ci, sc.first_flow, t, cfg.clairvoyant));
        view_owner.push(ci);
    };

    loop {
        // ---- 1. Drain everything due at `now` ----
        while let Some((t, ci)) = arrivals.pop_due(now) {
            release(
                ci,
                t.max(now),
                &mut coflows,
                &mut flows,
                &mut views,
                &mut view_owner,
            );
        }
        while let Some((_, action)) = dyn_events.pop_due(now) {
            match action {
                DynAction::StraggleStart { node, num, den } => {
                    bank.set_node_capacity(node, nominal.mul_ratio(num, den));
                    straggled[node.index()] = true;
                    // Scale down in-flight rates on that node so the
                    // port is never oversubscribed mid-interval.
                    for f in flows.iter_mut() {
                        if f.finished_at.is_none()
                            && f.rate != Rate::ZERO
                            && (f.src == node || f.dst == node)
                        {
                            f.rate = f.rate.mul_ratio(num, den);
                        }
                    }
                }
                DynAction::StraggleEnd { node } => {
                    bank.set_node_capacity(node, nominal);
                    straggled[node.index()] = false;
                }
                DynAction::Fail {
                    node,
                    restart_delay,
                } => {
                    for f in flows.iter_mut() {
                        if f.finished_at.is_none()
                            && (f.src == node || f.dst == node)
                            && coflows[f.coflow].released.is_some()
                        {
                            f.sent = Bytes::ZERO;
                            f.rate = Rate::ZERO;
                            f.ready_at = f.ready_at.max(now.saturating_add(restart_delay));
                            let slot = coflows[f.coflow].view_slot;
                            if slot != usize::MAX {
                                coflows[f.coflow].restarted = true;
                                views[slot].restarted = true;
                            }
                        }
                    }
                }
            }
        }

        // ---- 2. Recompute the schedule on δ boundaries ----
        let on_boundary = cfg.delta == Duration::ZERO || (now % cfg.delta) == Duration::ZERO;
        if on_boundary && !views.is_empty() {
            rounds += 1;
            if rounds > cfg.max_rounds {
                return Err(SimError::RoundLimit(cfg.max_rounds));
            }
            // Sync views with ground truth.
            let any_straggler = straggled.iter().any(|&b| b);
            for (slot, view) in views.iter_mut().enumerate() {
                let ci = view_owner[slot];
                let base = coflows[ci].first_flow;
                let mut touches_straggler = false;
                for (k, fv) in view.flows.iter_mut().enumerate() {
                    let f = &flows[base + k];
                    fv.sent = f.sent;
                    fv.finished = f.finished_at.is_some();
                    fv.ready = f.ready_at <= now;
                    if any_straggler
                        && f.finished_at.is_none()
                        && (straggled[f.src.index()] || straggled[f.dst.index()])
                    {
                        touches_straggler = true;
                    }
                }
                // Failure flags persist (the framework's `update()` told
                // the coordinator); straggler flags follow the slowdown.
                view.restarted = coflows[ci].restarted || touches_straggler;
            }
            bank.reset_round();
            schedule.clear();
            {
                let view = ClusterView {
                    now,
                    num_nodes,
                    coflows: &views,
                    changed: None,
                };
                sched.compute(&view, &mut bank, &mut schedule);
            }
            // Apply: zero everything, then set scheduled rates.
            for view in &views {
                for fv in &view.flows {
                    flows[fv.id.index()].rate = Rate::ZERO;
                }
            }
            for &(fid, rate) in &schedule.rates {
                let f = &mut flows[fid.index()];
                debug_assert!(f.finished_at.is_none(), "rate for finished flow {fid}");
                debug_assert!(f.ready_at <= now, "rate for unready flow {fid}");
                f.rate = rate;
            }
            #[cfg(debug_assertions)]
            check_feasibility(&flows, &bank, num_nodes);
        }

        // ---- 3. Find the next instant anything changes ----
        let mut t_next = Time::NEVER;
        if let Some(t) = arrivals.peek_time() {
            t_next = t_next.min(t);
        }
        if let Some(t) = dyn_events.peek_time() {
            t_next = t_next.min(t);
        }
        if !views.is_empty() {
            // Earliest completion under current rates — and, in
            // event-driven mode, the earliest flow still to become
            // ready: with no boundary to catch it at, that instant must
            // be stepped to.
            for view in &views {
                for fv in &view.flows {
                    let f = &flows[fv.id.index()];
                    if f.finished_at.is_none() && !f.rate.is_zero() {
                        let rem = f.size.saturating_sub(f.sent);
                        t_next = t_next.min(now.saturating_add(transfer_time(rem, f.rate)));
                    }
                    if cfg.delta == Duration::ZERO && f.finished_at.is_none() && f.ready_at > now {
                        t_next = t_next.min(f.ready_at);
                    }
                }
            }
            // Next schedule boundary.
            let next_boundary = if cfg.delta == Duration::ZERO {
                // Event-driven mode: recompute whenever anything above
                // fires; no synthetic boundaries needed.
                Time::NEVER
            } else {
                Time((now.as_nanos() / cfg.delta.as_nanos() + 1) * cfg.delta.as_nanos())
            };
            t_next = t_next.min(next_boundary);
        }

        if t_next.is_never() {
            break; // no active work, no future events
        }
        if let Some(h) = cfg.horizon {
            if t_next > h {
                now = h;
                break;
            }
        }

        // ---- 4. Advance flows to t_next ----
        let dt = t_next - now;
        let mut slot = 0;
        while slot < views.len() {
            let ci = view_owner[slot];
            let base = coflows[ci].first_flow;
            let nf = coflows[ci].num_flows;
            let mut all_done = true;
            for f in flows[base..base + nf].iter_mut() {
                if f.finished_at.is_some() {
                    continue;
                }
                if !f.rate.is_zero() {
                    f.sent = (f.sent + bytes_in(f.rate, dt)).min(f.size);
                    if f.sent == f.size {
                        f.finished_at = Some(t_next);
                    }
                }
                if f.finished_at.is_none() {
                    all_done = false;
                }
            }
            if all_done {
                // CoFlow completes at t_next.
                let sc = &mut coflows[ci];
                sc.finished = Some(t_next);
                let released = sc.released.expect("finished before release");
                let spec = &trace.coflows[ci];
                records.push(CoflowRecord {
                    id: spec.id,
                    job: spec.job,
                    arrival: spec.arrival,
                    released,
                    finish: t_next,
                    width: spec.flows.len(),
                    total_bytes: spec.total_size(),
                    flow_fcts: (0..nf)
                        .map(|k| flows[base + k].finished_at.unwrap().since(released))
                        .collect(),
                    flow_sizes: spec.flows.iter().map(|f| f.size).collect(),
                });
                // Remove from the active views (swap-remove).
                let last = views.len() - 1;
                views.swap_remove(slot);
                let moved = view_owner.swap_remove(slot);
                debug_assert_eq!(moved, ci);
                coflows[ci].view_slot = usize::MAX;
                if slot < last {
                    coflows[view_owner[slot]].view_slot = slot;
                }
                // Release dependents whose gates just opened.
                let dependents = coflows[ci].dependents.clone();
                for di in dependents {
                    coflows[di].deps_left -= 1;
                    if coflows[di].deps_left == 0 {
                        let at = trace.coflows[di].arrival.max(t_next);
                        arrivals.push(at, di);
                    }
                }
                // Do not advance `slot`: swap_remove moved a new view in.
            } else {
                slot += 1;
            }
        }
        now = t_next;
    }

    let unfinished = coflows.iter().filter(|c| c.finished.is_none()).count();
    records.sort_by_key(|r| r.id);
    Ok(SimOutput {
        records,
        unfinished,
        rounds,
        end: now,
    })
}

/// Debug-only invariant: assigned rates never oversubscribe any port's
/// *capacity* (remaining accounting is the scheduler's own business).
#[cfg(debug_assertions)]
fn check_feasibility(flows: &[SimFlow], bank: &PortBank, num_nodes: usize) {
    use saath_simcore::PortId;
    let mut used = vec![0u64; 2 * num_nodes];
    for f in flows {
        if f.finished_at.is_none() && !f.rate.is_zero() {
            used[PortId::uplink(f.src).index()] += f.rate.as_u64();
            used[PortId::downlink(f.dst, num_nodes).index()] += f.rate.as_u64();
        }
    }
    for (p, &u) in used.iter().enumerate() {
        let cap = bank.capacity(saath_simcore::PortId(p as u32)).as_u64();
        assert!(u <= cap, "port {p} oversubscribed: {u} > {cap}");
    }
}

/// Debug-only invariant: after a sync every active view holds ground
/// truth, as the reference loop's full sync writes it — the partial
/// sync left out nothing that moved.
#[cfg(debug_assertions)]
fn check_views(
    views: &[CoflowView],
    view_owner: &[usize],
    flows: &[SimFlow],
    coflows: &[SimCoflow],
    straggled: &[bool],
    now: Time,
) {
    for (view, &ci) in views.iter().zip(view_owner) {
        let base = coflows[ci].first_flow;
        let mut touches_straggler = false;
        for (k, fv) in view.flows.iter().enumerate() {
            let f = &flows[base + k];
            assert_eq!(fv.sent, f.sent, "coflow {ci} flow {k}: stale sent");
            assert_eq!(fv.finished, f.finished_at.is_some(), "coflow {ci} flow {k}");
            assert_eq!(
                fv.ready,
                f.ready_at <= now,
                "coflow {ci} flow {k}: stale ready"
            );
            touches_straggler |=
                f.finished_at.is_none() && (straggled[f.src.index()] || straggled[f.dst.index()]);
        }
        assert_eq!(
            view.restarted,
            coflows[ci].restarted || touches_straggler,
            "coflow {ci}: stale restarted flag"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_core::{Aalo, Saath, SaathConfig};
    use saath_simcore::CoflowId;
    use saath_workload::paper_examples as ex;
    use saath_workload::{CoflowSpec, FlowSpec};

    fn cct_of(out: &SimOutput, id: u32) -> f64 {
        out.records
            .iter()
            .find(|r| r.id == CoflowId(id))
            .unwrap()
            .cct()
            .as_secs_f64()
    }

    fn default_run(trace: &Trace, sched: &mut dyn CoflowScheduler) -> SimOutput {
        simulate(trace, sched, &SimConfig::default(), &DynamicsSpec::none()).unwrap()
    }

    #[test]
    fn avg_cct_is_zero_on_empty_records() {
        let out = SimOutput {
            records: Vec::new(),
            unfinished: 0,
            rounds: 0,
            end: Time::ZERO,
        };
        assert_eq!(out.avg_cct_secs(), 0.0);
    }

    #[test]
    fn single_flow_single_coflow() {
        // 125 MB at 1 Gbps = 1 s, plus up to one δ of scheduling lag.
        let trace = Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![CoflowSpec::new(
                CoflowId(0),
                Time::ZERO,
                vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes(125_000_000))],
            )],
        };
        let out = default_run(&trace, &mut Saath::with_defaults());
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.unfinished, 0);
        let cct = cct_of(&out, 0);
        assert!((cct - 1.0).abs() < 0.009, "cct {cct}");
    }

    /// Fig 1 end-to-end: Aalo averages 1.75 t, Saath 1.25 t.
    #[test]
    fn fig1_aalo_vs_saath() {
        let trace = ex::fig1_out_of_sync();
        let aalo = default_run(&trace, &mut Aalo::with_defaults());
        let saath = default_run(&trace, &mut Saath::with_defaults());
        assert_eq!(aalo.records.len(), 4);
        assert_eq!(saath.records.len(), 4);

        // t = 1 s; allow δ-quantization slack (arrivals are offset by a
        // few ms and rates change only on 8 ms boundaries).
        let tol = 0.05;
        assert!(
            (aalo.avg_cct_secs() - 1.75).abs() < tol,
            "aalo {}",
            aalo.avg_cct_secs()
        );
        assert!(
            (saath.avg_cct_secs() - 1.25).abs() < tol,
            "saath {}",
            saath.avg_cct_secs()
        );

        // Per-CoFlow shapes.
        assert!((cct_of(&aalo, 2) - 2.0).abs() < tol);
        assert!((cct_of(&saath, 3) - 1.0).abs() < tol);
        assert!((cct_of(&saath, 4) - 1.0).abs() < tol);
    }

    /// Fig 4 end-to-end: work conservation improves the average CCT.
    #[test]
    fn fig4_work_conservation_helps() {
        let trace = ex::fig4_work_conservation();
        let with_wc = default_run(&trace, &mut Saath::with_defaults());
        let without = default_run(
            &trace,
            &mut Saath::new(SaathConfig {
                work_conservation: false,
                ..Default::default()
            }),
        );
        let tol = 0.05;
        // Without WC: C1 = t, C2 = 3t → avg 2t. With: C2 = 2t → 1.5t.
        assert!(
            (without.avg_cct_secs() - 2.0).abs() < tol,
            "{}",
            without.avg_cct_secs()
        );
        assert!(
            (with_wc.avg_cct_secs() - 1.5).abs() < tol,
            "{}",
            with_wc.avg_cct_secs()
        );
        assert!((cct_of(&without, 2) - 3.0).abs() < tol);
        assert!((cct_of(&with_wc, 2) - 2.0).abs() < tol);
    }

    /// Fig 8 end-to-end: LCoF's known-suboptimal case.
    #[test]
    fn fig8_lcof_limitation_reproduced() {
        let trace = ex::fig8_lcof_limitation();
        let saath = default_run(&trace, &mut Saath::with_defaults());
        let tol = 0.05;
        // LCoF: C2 = C3 = 2.5, C1 = 3.5 ⇒ avg 2.83.
        assert!(
            (cct_of(&saath, 1) - 3.5).abs() < tol,
            "{}",
            cct_of(&saath, 1)
        );
        assert!((cct_of(&saath, 2) - 2.5).abs() < tol);
        assert!((cct_of(&saath, 3) - 2.5).abs() < tol);
        assert!((saath.avg_cct_secs() - 2.8333).abs() < tol);
    }

    /// Clairvoyant schedulers refuse to run blind.
    #[test]
    fn clairvoyant_guard() {
        let trace = ex::fig17_sjf_suboptimal();
        let mut varys = saath_core::OfflineScheduler::varys();
        let err = simulate(
            &trace,
            &mut varys,
            &SimConfig::default(),
            &DynamicsSpec::none(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NeedsOracle("varys-sebf")));
    }

    /// Fig 17 end-to-end with clairvoyant schedulers: SEBF ≈ SJF picks
    /// C1 first (avg 9.3 t); LWTF picks C2/C3 first (avg 8.3 t).
    #[test]
    fn fig17_sjf_vs_lwtf() {
        let trace = ex::fig17_sjf_suboptimal();
        let cfg = SimConfig {
            clairvoyant: true,
            ..Default::default()
        };
        let mut sebf = saath_core::OfflineScheduler::varys();
        let sebf_out = simulate(&trace, &mut sebf, &cfg, &DynamicsSpec::none()).unwrap();
        let mut lwtf = saath_core::OfflineScheduler::new(saath_core::OfflinePolicy::Lwtf);
        let lwtf_out = simulate(&trace, &mut lwtf, &cfg, &DynamicsSpec::none()).unwrap();
        let tol = 0.05;
        // Appendix A, in seconds (t = 1 s): SJF/SEBF averages
        // (5+11+12)/3 = 9.33, contention-aware (12+6+7)/3 = 8.33.
        assert!(
            (sebf_out.avg_cct_secs() - 9.3333).abs() < tol,
            "{}",
            sebf_out.avg_cct_secs()
        );
        assert!(
            (lwtf_out.avg_cct_secs() - 8.3333).abs() < tol,
            "{}",
            lwtf_out.avg_cct_secs()
        );
        assert!(lwtf_out.avg_cct_secs() < sebf_out.avg_cct_secs());
    }

    /// DAG stages release only after their dependencies complete.
    #[test]
    fn dag_release_order() {
        let mut stage2 = CoflowSpec::new(
            CoflowId(1),
            Time::ZERO,
            vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes(125_000_000))],
        );
        stage2.deps = vec![CoflowId(0)];
        let trace = Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![
                CoflowSpec::new(
                    CoflowId(0),
                    Time::ZERO,
                    vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes(125_000_000))],
                ),
                stage2,
            ],
        };
        let out = default_run(&trace, &mut Saath::with_defaults());
        assert_eq!(out.records.len(), 2);
        let r0 = &out.records[0];
        let r1 = &out.records[1];
        assert!(
            r1.released >= r0.finish,
            "stage 2 released before stage 1 finished"
        );
        // Each stage takes ~1 s.
        assert!((r1.finish.as_secs_f64() - 2.0).abs() < 0.05);
    }

    /// Larger δ means more idle time and worse CCT (Fig 14c mechanism).
    #[test]
    fn delta_staleness_hurts() {
        let trace = ex::fig1_out_of_sync();
        let run = |ms| {
            let cfg = SimConfig {
                delta: Duration::from_millis(ms),
                ..Default::default()
            };
            simulate(
                &trace,
                &mut Saath::with_defaults(),
                &cfg,
                &DynamicsSpec::none(),
            )
            .unwrap()
            .avg_cct_secs()
        };
        let fast = run(1);
        let slow = run(500);
        assert!(
            slow > fast,
            "δ=500ms ({slow}) not worse than δ=1ms ({fast})"
        );
    }

    /// Horizon truncation reports unfinished CoFlows instead of hanging.
    #[test]
    fn horizon_truncates() {
        let trace = ex::fig1_out_of_sync();
        let cfg = SimConfig {
            horizon: Some(Time::from_millis(500)),
            ..Default::default()
        };
        let out = simulate(
            &trace,
            &mut Saath::with_defaults(),
            &cfg,
            &DynamicsSpec::none(),
        )
        .unwrap();
        assert!(out.unfinished > 0);
        assert!(out.end <= Time::from_millis(500));
    }

    /// A node failure restarts its flows; the CoFlow still completes,
    /// later, and is flagged for the dynamics heuristic.
    #[test]
    fn node_failure_restarts_flows() {
        // One flow, one second long; its receiver dies halfway through.
        let trace = Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![CoflowSpec::new(
                CoflowId(0),
                Time::ZERO,
                vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes(125_000_000))],
            )],
        };
        let clean = default_run(&trace, &mut Saath::with_defaults());
        let dynamics = DynamicsSpec {
            events: vec![DynamicsEvent::NodeFailure {
                node: NodeId(1),
                at: Time::from_millis(500),
                restart_delay: Duration::from_millis(100),
            }],
        };
        let failed = simulate(
            &trace,
            &mut Saath::with_defaults(),
            &SimConfig::default(),
            &dynamics,
        )
        .unwrap();
        assert_eq!(failed.records.len(), 1);
        let slow = failed.records[0].cct().as_secs_f64();
        let fast = clean.records[0].cct().as_secs_f64();
        // All 0.5 s of progress is lost, plus the 0.1 s restart delay:
        // ≈ 0.5 + 0.1 + 1.0 = 1.6 s vs 1.0 s clean.
        assert!((fast - 1.0).abs() < 0.05, "clean cct {fast}");
        assert!((slow - 1.6).abs() < 0.05, "failed cct {slow}");
    }

    /// A straggler slows its node's ports; CCT degrades accordingly and
    /// recovers after the straggle window.
    #[test]
    fn straggler_slows_ports() {
        let trace = Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![CoflowSpec::new(
                CoflowId(0),
                Time::ZERO,
                vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes(250_000_000))],
            )],
        };
        let clean = default_run(&trace, &mut Saath::with_defaults());
        let dynamics = DynamicsSpec {
            events: vec![DynamicsEvent::Straggler {
                node: NodeId(0),
                at: Time::ZERO,
                until: Time::from_secs(2),
                num: 1,
                den: 10,
            }],
        };
        let out = simulate(
            &trace,
            &mut Saath::with_defaults(),
            &SimConfig::default(),
            &dynamics,
        )
        .unwrap();
        // First 2 s at 100 Mbps → 25 MB; remaining 225 MB at 1 Gbps →
        // 1.8 s. Total ≈ 3.8 s (vs 2 s clean).
        let cct = out.records[0].cct().as_secs_f64();
        assert!((clean.records[0].cct().as_secs_f64() - 2.0).abs() < 0.05);
        assert!((cct - 3.8).abs() < 0.1, "straggled cct {cct}");
    }

    /// Determinism: identical runs produce identical records.
    #[test]
    fn runs_are_deterministic() {
        let trace = saath_workload::gen::generate(&saath_workload::gen::small(7, 10, 40));
        let a = default_run(&trace, &mut Saath::with_defaults());
        let b = default_run(&trace, &mut Saath::with_defaults());
        assert_eq!(a.records, b.records);
        assert_eq!(a.rounds, b.rounds);
    }

    /// Every generated CoFlow eventually completes under every core
    /// online scheduler.
    #[test]
    fn small_trace_completes_under_all_schedulers() {
        let trace = saath_workload::gen::generate(&saath_workload::gen::small(3, 12, 60));
        for sched in [true, false] {
            let out = if sched {
                default_run(&trace, &mut Saath::with_defaults())
            } else {
                default_run(&trace, &mut Aalo::with_defaults())
            };
            assert_eq!(out.records.len(), 60);
            assert_eq!(out.unfinished, 0);
        }
    }

    /// The incremental loop is byte-identical to the reference loop —
    /// records, rounds, end time — on paper examples and a generated
    /// workload, under several δ settings including event-driven mode.
    #[test]
    fn incremental_matches_reference() {
        let traces = vec![
            ex::fig1_out_of_sync(),
            ex::fig4_work_conservation(),
            ex::fig8_lcof_limitation(),
            saath_workload::gen::generate(&saath_workload::gen::small(11, 12, 40)),
        ];
        for trace in &traces {
            for delta_ms in [0u64, 1, 8, 100] {
                let cfg = SimConfig {
                    delta: Duration::from_millis(delta_ms),
                    ..Default::default()
                };
                let inc = simulate(
                    trace,
                    &mut Saath::with_defaults(),
                    &cfg,
                    &DynamicsSpec::none(),
                )
                .unwrap();
                let re = simulate_reference(
                    trace,
                    &mut Saath::with_defaults(),
                    &cfg,
                    &DynamicsSpec::none(),
                )
                .unwrap();
                assert_eq!(inc.records, re.records, "δ={delta_ms}ms");
                assert_eq!(inc.rounds, re.rounds, "δ={delta_ms}ms");
                assert_eq!(inc.end, re.end, "δ={delta_ms}ms");
                assert_eq!(inc.unfinished, re.unfinished, "δ={delta_ms}ms");
            }
        }
    }

    /// Equivalence holds through cluster dynamics: stragglers scale
    /// in-flight rates and failures reset progress identically in both
    /// loops.
    #[test]
    fn incremental_matches_reference_under_dynamics() {
        let trace = saath_workload::gen::generate(&saath_workload::gen::small(13, 10, 30));
        let dynamics = DynamicsSpec {
            events: vec![
                DynamicsEvent::Straggler {
                    node: NodeId(2),
                    at: Time::from_millis(700),
                    until: Time::from_secs(3),
                    num: 1,
                    den: 4,
                },
                DynamicsEvent::NodeFailure {
                    node: NodeId(5),
                    at: Time::from_secs(2),
                    restart_delay: Duration::from_millis(250),
                },
            ],
        };
        let cfg = SimConfig::default();
        let inc = simulate(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
        let re = simulate_reference(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
        assert_eq!(inc.records, re.records);
        assert_eq!(inc.rounds, re.rounds);
        assert_eq!(inc.end, re.end);
    }

    /// Both loops, side by side.
    fn both_loops(trace: &Trace, cfg: &SimConfig, dynamics: &DynamicsSpec) -> [SimOutput; 2] {
        [
            simulate(trace, &mut Saath::with_defaults(), cfg, dynamics).unwrap(),
            simulate_reference(trace, &mut Saath::with_defaults(), cfg, dynamics).unwrap(),
        ]
    }

    /// Event-driven mode (δ = 0) has no boundary at which a flow that
    /// became ready would be noticed, so the readiness instant itself
    /// must be stepped to — late data and a failure's restart delay
    /// alike. Both loops used to stop with the CoFlow stranded.
    #[test]
    fn event_driven_mode_wakes_for_readiness() {
        let one_flow = |available_after| {
            let mut flow = FlowSpec::new(NodeId(0), NodeId(1), Bytes(125_000_000));
            flow.available_after = available_after;
            Trace {
                num_nodes: 2,
                port_rate: Rate::gbps(1),
                coflows: vec![CoflowSpec::new(CoflowId(0), Time::ZERO, vec![flow])],
            }
        };
        let fail = |at_ms, delay_ms| DynamicsEvent::NodeFailure {
            node: NodeId(1),
            at: Time::from_millis(at_ms),
            restart_delay: Duration::from_millis(delay_ms),
        };
        let event_driven = SimConfig {
            delta: Duration::ZERO,
            ..Default::default()
        };
        // (late data, failures, finish in ms, rounds). The last case
        // leaves a readiness entry (800 ms) that the second failure
        // supersedes (900 ms): it must not be woken for.
        let cases = [
            (500, vec![], 1_500, 2),
            (0, vec![fail(500, 100)], 1_600, 3),
            (0, vec![fail(500, 300), fail(600, 300)], 1_900, 4),
        ];
        for (late_ms, events, finish_ms, rounds) in cases {
            let trace = one_flow(Duration::from_millis(late_ms));
            let dynamics = DynamicsSpec { events };
            for out in both_loops(&trace, &event_driven, &dynamics) {
                assert_eq!(out.unfinished, 0, "late {late_ms} ms: stranded");
                assert_eq!(out.records[0].finish, Time::from_millis(finish_ms));
                assert_eq!(out.end, Time::from_millis(finish_ms));
                assert_eq!(out.rounds, rounds, "late {late_ms} ms");
            }
            // At δ > 0 nothing changed: the flow is seen at the first
            // boundary at or after it became ready.
            let [inc, re] = both_loops(&trace, &SimConfig::default(), &dynamics);
            assert_eq!(inc.unfinished, 0);
            assert_eq!((inc.records, inc.rounds), (re.records, re.rounds));
        }
    }

    /// A scheduler whose horizon never ends and whose view can never
    /// progress trips the round limit at the count the single steps
    /// would, without walking there.
    #[test]
    fn round_limit_is_reached_by_a_jump() {
        let mut flow = FlowSpec::new(NodeId(0), NodeId(1), Bytes(1));
        flow.available_after = Duration::from_secs(1_000_000_000);
        let trace = Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![CoflowSpec::new(CoflowId(0), Time::ZERO, vec![flow])],
        };
        let patient = || {
            Saath::new(SaathConfig {
                starvation_avoidance: false,
                ..Default::default()
            })
        };
        let none = DynamicsSpec::none();
        let err = simulate(&trace, &mut patient(), &SimConfig::default(), &none).unwrap_err();
        assert_eq!(err, SimError::RoundLimit(100_000_000));
        let cfg = SimConfig {
            max_rounds: 5_000,
            ..Default::default()
        };
        let err = simulate(&trace, &mut patient(), &cfg, &none).unwrap_err();
        assert_eq!(err, SimError::RoundLimit(5_000));
        let err = simulate_reference(&trace, &mut patient(), &cfg, &none).unwrap_err();
        assert_eq!(err, SimError::RoundLimit(5_000));
    }

    /// Saath, but every paused ready flow is listed at rate zero — a
    /// schedule the type allows and no in-tree policy writes.
    struct ListsPaused(Saath);

    impl CoflowScheduler for ListsPaused {
        fn name(&self) -> &'static str {
            "lists-paused"
        }

        fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
            self.0.compute(view, bank, out);
            for f in view.coflows.iter().flat_map(|c| c.unfinished()) {
                if f.ready && out.rate_of(f.id).is_zero() {
                    out.rates.push((f.id, Rate::ZERO));
                }
            }
        }
    }

    /// A zero-rate entry drops out of the flowing set at the next
    /// advance pass, which is a structural change: the round after it
    /// is computed (as it always was), so no jump is planned across it.
    #[test]
    fn zero_rate_entries_are_never_jumped_over() {
        let flow = |dst, mb| FlowSpec::new(NodeId(0), NodeId(dst), Bytes::mb(mb));
        let trace = Trace {
            num_nodes: 3,
            port_rate: Rate::gbps(1),
            coflows: vec![
                CoflowSpec::new(CoflowId(0), Time::ZERO, vec![flow(1, 600)]),
                CoflowSpec::new(CoflowId(1), Time::from_millis(1), vec![flow(2, 600)]),
            ],
        };
        let plain = default_run(&trace, &mut Saath::with_defaults());
        let mut listing = ListsPaused(Saath::with_defaults());
        let out = default_run(&trace, &mut listing);
        assert_eq!(out.records, plain.records);
        assert_eq!(out.rounds, plain.rounds);
        // One sender, two CoFlows: one of them is paused until the
        // other is done, and every round up to then lists it.
        let paused_until = plain.records.iter().map(|r| r.finish).min().unwrap();
        let paused_rounds = paused_until.as_nanos() / SimConfig::default().delta.as_nanos();
        assert!(listing.0.timings.rounds() > paused_rounds);
        assert!(listing.0.timings.rounds() < out.rounds, "and reused after");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The jump's arithmetic on its own: with the landing instant
        /// short of the predicted completion, one step of `first` and
        /// `k − 1` of δ credited in closed form leave `sent`, and the
        /// prediction refreshed from it, where `k` single steps leave
        /// them — and the flow unfinished all the way.
        #[test]
        fn closed_form_equals_single_steps(
            rate in 1u64..12_500_000_000,
            delta_ns in 1u64..1_000_000_000,
            first_frac in 0.0f64..1.0,
            k in 1u64..400,
            sent in 0u64..1_000_000_000_000,
            slack in 0usize..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let (rate, delta) = (Rate(rate), Duration(delta_ns));
            let first = Duration(1 + (first_frac * (delta_ns - 1) as f64) as u64);
            let landing = Duration(first.0 + (k - 1) * delta_ns);
            // The smallest remainder whose completion lies past the
            // landing instant, plus some slack.
            let rem = bytes_in(rate, landing).0 + 1 + [0, 1, 1_000, 1 << 40][slack];
            let (sent, size) = (Bytes(sent), Bytes(sent + rem));
            prop_assert!(landing < transfer_time(Bytes(rem), rate));

            let (mut stepped, mut at) = (sent, Time::ZERO);
            for step in std::iter::once(first).chain((1..k).map(|_| delta)) {
                stepped += bytes_in(rate, step);
                at += step;
                prop_assert!(stepped < size, "finished inside the jump");
            }
            let more = (k - 1).checked_mul(bytes_in(rate, delta).0);
            prop_assert!(more.is_some_and(|b| b < rem), "k·bytes_in overflows or overshoots");
            let jumped = sent + bytes_over(rate, first, k - 1, delta);
            prop_assert_eq!(jumped, stepped);
            let pred = |sent: Bytes| at.saturating_add(transfer_time(size - sent, rate));
            prop_assert_eq!(pred(jumped), pred(stepped));
            prop_assert!(pred(jumped) > at);
        }
    }

    /// Horizon truncation agrees between the two loops.
    #[test]
    fn incremental_matches_reference_with_horizon() {
        let trace = ex::fig1_out_of_sync();
        let cfg = SimConfig {
            horizon: Some(Time::from_millis(500)),
            ..Default::default()
        };
        let inc = simulate(
            &trace,
            &mut Saath::with_defaults(),
            &cfg,
            &DynamicsSpec::none(),
        )
        .unwrap();
        let re = simulate_reference(
            &trace,
            &mut Saath::with_defaults(),
            &cfg,
            &DynamicsSpec::none(),
        )
        .unwrap();
        assert_eq!(inc.records, re.records);
        assert_eq!(inc.unfinished, re.unfinished);
        assert_eq!(inc.end, re.end);
    }
}
