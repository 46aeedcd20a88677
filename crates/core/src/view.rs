//! The coordinator's view of the cluster, and the schedule it produces.
//!
//! These types are the contract between a scheduler and whatever drives
//! it (the discrete-event simulator or the distributed runtime). The
//! driver owns ground truth; the view exposes only what a real
//! coordinator would know from local-agent reports (§4.2 "Input"):
//! bytes sent per flow, readiness, finishedness, port locations — plus
//! an optional *oracle* (ground-truth sizes) that only clairvoyant
//! baselines may read.
//!
//! ## How long a schedule stands
//!
//! A [`Schedule`] carries, besides the rates, a validity horizon
//! ([`Schedule::valid_until`]). Everything a policy reads from the view
//! either moves at discrete *structural* events the driver sees happen
//! (a CoFlow arriving or leaving, a flow finishing, readiness,
//! `restarted`, a port's capacity) or drifts with the bytes the flows
//! send at the rates just assigned — and the second kind can be bounded
//! in closed form: a queue threshold is crossed no sooner than the
//! missing bytes take at the fastest assigned rate, a deadline expires
//! at a known instant. A policy that can compute such a bound stamps it
//! on the schedule; a driver that knows its own structural events (the
//! simulator engine) then skips the rounds that provably reproduce the
//! previous output. Nothing obliges either side: the default horizon
//! is [`Time::ZERO`] ("recompute every round"), and a driver may
//! ignore the field altogether, as the runtime coordinator does — its
//! `sent` figures are agent reports a tick coarse and a δ stale, so
//! "no flow sends faster than its rate" cannot be read off its view.

use saath_fabric::{FlowEndpoints, PortBank};
use saath_simcore::{Bytes, CoflowId, FlowId, NodeId, PortId, Rate, Time};

/// One flow as the coordinator sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowView {
    /// Globally unique flow id (dense across the run).
    pub id: FlowId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes sent so far — the only size signal online schedulers get.
    pub sent: Bytes,
    /// Whether the flow's data is available to send (§4.3 pipelining).
    pub ready: bool,
    /// Whether the flow has completed.
    pub finished: bool,
    /// Ground-truth total size. `Some` only when the driver runs in
    /// clairvoyant mode; online schedulers must not read it (enforced by
    /// review + the `requires_clairvoyance` handshake, not by types,
    /// because the simulator builds one view for all schedulers).
    pub oracle_size: Option<Bytes>,
}

impl FlowView {
    /// The flow's two contended ports.
    pub fn endpoints(&self, num_nodes: usize) -> FlowEndpoints {
        FlowEndpoints {
            flow: self.id,
            src: PortId::uplink(self.src),
            dst: PortId::downlink(self.dst, num_nodes),
        }
    }

    /// Ground-truth remaining volume (clairvoyant only).
    ///
    /// # Panics
    /// Panics if the driver did not provide the oracle.
    pub fn oracle_remaining(&self) -> Bytes {
        self.oracle_size
            .expect("clairvoyant scheduler run without an oracle")
            .saturating_sub(self.sent)
    }
}

/// One active CoFlow as the coordinator sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoflowView {
    /// The CoFlow.
    pub id: CoflowId,
    /// When it was released to the scheduler (after DAG dependencies).
    pub arrival: Time,
    /// All of its flows, finished ones included — the dynamics heuristic
    /// (§4.3) estimates remaining lengths from finished siblings.
    pub flows: Vec<FlowView>,
    /// Set when the driver has told the coordinator (via the `update()`
    /// CoFlow operation) that this CoFlow was hit by a failure or
    /// straggler, enabling the §4.3 re-queue heuristic.
    pub restarted: bool,
}

impl CoflowView {
    /// Flows still in progress.
    pub fn unfinished(&self) -> impl Iterator<Item = &FlowView> {
        self.flows.iter().filter(|f| !f.finished)
    }

    /// Width = number of flows (Eq. 1 divides thresholds by it).
    pub fn width(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes sent so far (Aalo's queue key).
    pub fn total_sent(&self) -> Bytes {
        self.flows.iter().map(|f| f.sent).sum()
    }

    /// Max bytes sent by any single flow — the paper's `m_c` (D1/D3).
    pub fn max_flow_sent(&self) -> Bytes {
        self.flows
            .iter()
            .map(|f| f.sent)
            .max()
            .unwrap_or(Bytes::ZERO)
    }

    /// Whether every unfinished flow has data ready; all-or-none only
    /// admits fully-ready CoFlows (§4.3).
    pub fn all_ready(&self) -> bool {
        self.unfinished().all(|f| f.ready)
    }
}

/// What the scheduler knows this round.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// Current time (schedule epochs are δ-aligned).
    pub now: Time,
    /// Cluster size; ports number `2 * num_nodes`.
    pub num_nodes: usize,
    /// Active (not yet complete) CoFlows.
    pub coflows: &'a [CoflowView],
    /// Change hint from the driver: ids of CoFlows whose view contents
    /// (*any* field of the [`CoflowView`] or its flows — footprint,
    /// `sent` bytes, readiness, `restarted`) may have changed since the
    /// previous round this scheduler saw, plus ids that departed. Must
    /// be a superset of actual changes — extra ids cost time, missing
    /// ids cost correctness: schedulers cache per-CoFlow derivations
    /// (contention footprints, queue assignments, ordering keys, and
    /// in Saath the unfinished flows' endpoint lists, readiness and
    /// `m_c` that admission and work conservation read) for ids
    /// outside the hint. A CoFlow a scheduler has not seen before is
    /// always derived afresh. `None` means "assume everything changed"
    /// and is always safe; drivers without dirty tracking (tests, the
    /// reference loop) pass `None`.
    ///
    /// The simulator's dirty set satisfies the contract: it marks
    /// arrival, byte progress, finish, readiness, straggler
    /// start/end, and failure-reset.
    pub changed: Option<&'a [CoflowId]>,
}

/// The output of one scheduling round: a rate for every flow that may
/// send. Flows not listed are paused (rate zero).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// `(flow, rate)` pairs; each flow appears at most once.
    pub rates: Vec<(FlowId, Rate)>,
    /// Validity horizon (exclusive): the scheduler's promise that, as
    /// long as the view's *structure* does not move — no arrival or
    /// departure, no flow finishing, no readiness, `restarted` or
    /// capacity change, no `sent` going down — and no flow sends faster
    /// than the rate it is given here, `compute` would return these
    /// same rates at every `now < valid_until`. A driver that tracks
    /// structural events itself may keep applying the schedule until
    /// one happens or the horizon is reached, instead of calling
    /// `compute` again (see the module docs).
    ///
    /// [`Time::ZERO`] — what [`Schedule::clear`] leaves — promises
    /// nothing, so a scheduler that never sets the field is computed
    /// every round. The horizon belongs to whoever wrote the schedule
    /// *last*: a wrapper that changes rates after its inner scheduler
    /// ran, hands it a filtered view, or has round-dependent state of
    /// its own must set it back to `Time::ZERO`.
    pub valid_until: Time,
}

impl Schedule {
    /// Clears for reuse across rounds (keeps capacity) and voids the
    /// validity horizon.
    pub fn clear(&mut self) {
        self.rates.clear();
        self.valid_until = Time::ZERO;
    }

    /// Adds a flow's rate (skips zero rates — absent means paused).
    pub fn set(&mut self, flow: FlowId, rate: Rate) {
        debug_assert!(
            !self.rates.iter().any(|(f, _)| *f == flow),
            "flow {flow} scheduled twice"
        );
        if !rate.is_zero() {
            self.rates.push((flow, rate));
        }
    }

    /// Looks up a flow's rate (zero if absent).
    pub fn rate_of(&self, flow: FlowId) -> Rate {
        self.rates
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, r)| *r)
            .unwrap_or(Rate::ZERO)
    }
}

/// A CoFlow scheduling policy. Implementations must be deterministic
/// functions of the view, the bank, and their own internal state.
pub trait CoflowScheduler {
    /// Short name used in reports ("saath", "aalo", …).
    fn name(&self) -> &'static str;

    /// Whether the policy reads ground-truth sizes. Drivers refuse to
    /// run clairvoyant policies without an oracle, so a misconfiguration
    /// fails loudly instead of producing silently-wrong numbers.
    fn requires_clairvoyance(&self) -> bool {
        false
    }

    /// Computes this round's schedule. `bank` arrives reset to the
    /// current capacities (straggler effects included); the scheduler
    /// draws it down as it admits flows, and fills `out` (cleared by the
    /// caller, which also voids [`Schedule::valid_until`]).
    ///
    /// A scheduler that can bound how long its output stays the one it
    /// would compute again sets `out.valid_until`; leaving it alone is
    /// always correct. Whoever writes `out` last owns the horizon: an
    /// implementation that forwards to an inner scheduler and then
    /// edits the rates, narrows the view it forwards, or keeps
    /// round-dependent state of its own (a call counter, a restart
    /// drill) must set `out.valid_until = Time::ZERO`, or a driver
    /// that honours horizons will call it less often than it assumes.
    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule);

    /// Mechanism counters (queue transitions, deadline rescues, …)
    /// accumulated across rounds, for policies that maintain them. The
    /// default is `None` so baselines need no instrumentation.
    fn mech_counters(&self) -> Option<&saath_telemetry::MechCounters> {
        None
    }

    /// Per-priority-queue CoFlow occupancy as of the last `compute`,
    /// lowest queue first, for policies with a queue structure. Feeds
    /// the telemetry round trace; the default is `None`.
    fn queue_occupancy(&self) -> Option<&[usize]> {
        None
    }

    /// Serializes the scheduler state a snapshot must persist to make a
    /// resumed run byte-identical to the uninterrupted one.
    ///
    /// Only *historical* state belongs here — state that is a function
    /// of rounds the resumed run never saw (e.g. Saath's per-CoFlow
    /// queue deadlines, which depend on when each CoFlow entered its
    /// queue). Caches that are pure functions of the current view
    /// (contention tables, order books) must NOT be saved: the engine
    /// passes `changed: None` on the first post-resume round, and the
    /// hint contract obliges every implementation to rebuild them.
    ///
    /// The default writes nothing — correct for stateless-or-derivable
    /// policies (Aalo, the baselines).
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`save_state`] on a freshly
    /// constructed scheduler of the same policy. The default accepts
    /// only an empty blob, so pairing a stateful snapshot with a
    /// stateless policy fails loudly instead of silently diverging.
    ///
    /// [`save_state`]: CoflowScheduler::save_state
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scheduler '{}' carries no persistent state but the snapshot has {} bytes of it",
                self.name(),
                bytes.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(id: u32, sent: u64, finished: bool) -> FlowView {
        FlowView {
            id: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            sent: Bytes(sent),
            ready: true,
            finished,
            oracle_size: Some(Bytes(1000)),
        }
    }

    #[test]
    fn coflow_view_accessors() {
        let c = CoflowView {
            id: CoflowId(0),
            arrival: Time::ZERO,
            flows: vec![fv(0, 100, false), fv(1, 700, true), fv(2, 300, false)],
            restarted: false,
        };
        assert_eq!(c.width(), 3);
        assert_eq!(c.total_sent(), Bytes(1100));
        assert_eq!(c.max_flow_sent(), Bytes(700));
        assert_eq!(c.unfinished().count(), 2);
        assert!(c.all_ready());
    }

    #[test]
    fn readiness_only_considers_unfinished() {
        let mut c = CoflowView {
            id: CoflowId(0),
            arrival: Time::ZERO,
            flows: vec![fv(0, 0, true), fv(1, 0, false)],
            restarted: false,
        };
        c.flows[0].ready = false; // finished flow's readiness is moot
        assert!(c.all_ready());
        c.flows[1].ready = false;
        assert!(!c.all_ready());
    }

    #[test]
    fn schedule_set_and_lookup() {
        let mut s = Schedule::default();
        s.set(FlowId(3), Rate(100));
        s.set(FlowId(4), Rate::ZERO); // dropped
        assert_eq!(s.rate_of(FlowId(3)), Rate(100));
        assert_eq!(s.rate_of(FlowId(4)), Rate::ZERO);
        assert_eq!(s.rates.len(), 1);
        s.clear();
        assert_eq!(s.rate_of(FlowId(3)), Rate::ZERO);
    }

    /// A cleared schedule promises nothing.
    #[test]
    fn clearing_a_schedule_voids_its_horizon() {
        let mut s = Schedule::default();
        assert_eq!(s.valid_until, Time::ZERO);
        s.set(FlowId(1), Rate(10));
        s.valid_until = Time::from_millis(80);
        s.clear();
        assert_eq!(s.valid_until, Time::ZERO);
    }

    #[test]
    fn oracle_remaining() {
        let f = fv(0, 300, false);
        assert_eq!(f.oracle_remaining(), Bytes(700));
    }

    #[test]
    #[should_panic(expected = "without an oracle")]
    fn missing_oracle_panics() {
        let mut f = fv(0, 0, false);
        f.oracle_size = None;
        let _ = f.oracle_remaining();
    }

    #[test]
    fn endpoints_encode_ports() {
        let f = fv(0, 0, false);
        let e = f.endpoints(4);
        assert_eq!(e.src, PortId(0));
        assert_eq!(e.dst, PortId(5)); // 4 + 1
    }
}
