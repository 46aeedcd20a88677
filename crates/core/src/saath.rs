//! The Saath scheduler (Fig 7 of the paper).
//!
//! Each round the global coordinator:
//!
//! 1. **Assigns queues** with *per-flow thresholds* (D3/Eq. 1): a CoFlow
//!    sits in the smallest queue whose per-flow share of the threshold
//!    covers `m_c`, the most any of its flows has sent. For CoFlows
//!    marked `restarted` (failures/stragglers), the §4.3 heuristic
//!    replaces `m_c` with an estimate of the *remaining* length — which
//!    can move a nearly-done CoFlow back *up* into high-priority queues,
//!    approximating SRTF.
//! 2. **Orders** each queue by *Least-Contention-First* (D1 step 3):
//!    ascending `k_c`, the number of other CoFlows sharing its ports,
//!    with deadline-expired CoFlows sorted ahead of everything (D5) and
//!    arrival order breaking ties.
//! 3. **Admits all-or-none** (D1 step 4 / D2): scanning queues high to
//!    low, a CoFlow is scheduled only if *every* flow can get a nonzero
//!    rate (and all its data is available, §4.3); admitted CoFlows get
//!    MADD-style *equal* rates — the max-min share of their most
//!    contended port — because running some flows faster than the
//!    slowest cannot improve the CCT.
//! 4. **Work-conserves** (D4): CoFlows that missed admission backfill
//!    leftover port capacity flow-by-flow, in the same priority order.
//!
//! Ablation flags reproduce the Fig 10 breakdown: `all_or_none` only
//! (FIFO order + Aalo-style total-bytes thresholds), `+ per-flow
//! thresholds`, `+ LCoF` (= full Saath).
//!
//! ## What a round reads
//!
//! All four steps want the same few things of a CoFlow — `m_c`,
//! whether every unfinished flow is ready, and the endpoints of the
//! unfinished flows — and those change far less often than the
//! driver's [`ClusterView::changed`] hint fires: the hint names every
//! CoFlow that sent a byte, while an endpoint list moves only when a
//! flow finishes. So each live CoFlow has one entry (a slab slot found
//! by one hash lookup per round) holding them next to its
//! queue/deadline state, and the slot is the CoFlow's identity for the
//! rest of the round: the [`ContentionTracker`] and the [`OrderBook`]
//! are indexed by it. Next to the endpoint list the entry keeps its
//! *port footprint* ([`Footprint`]): each port the unfinished flows
//! touch, with how many of them touch it.
//!
//! A CoFlow that is new, named by the hint, or seen in an unhinted
//! round has its flows walked once, by `CoflowEntry::refresh`, which
//! matches the view's unfinished flows against the cached list, both
//! in flow order. One of three things happened:
//!
//! * *unchanged* — the lists are equal (byte or readiness progress);
//! * *shrunk* — the new list is the old one with some entries taken
//!   out (only finishes happened, which is every simulated round): the
//!   list is compacted in place and the two ports of every dropped
//!   flow are taken out of the footprint;
//! * *rebuilt* — anything else (an arrival, an un-finish after a
//!   restart or resync, a port-space change): the list is re-derived
//!   from the view, and the footprint from the list, diffed against
//!   the old one.
//!
//! Each port that joins or leaves a footprint, here or when a
//! departed CoFlow's entry is retired, is noted under its slot, and
//! the contention phase feeds those notes to the tracker; no footprint
//! is re-collected or sorted to find out what moved.
//!
//! Admission reads the footprint, not the flows (D2 gives every flow of
//! an admitted CoFlow one rate, so only the ports matter): the gang
//! rate is the least `remaining / flows` over it, and the allocation
//! draws `rate · flows` from each of its ports. An M×R shuffle is M·R
//! flows on M+R ports.
//!
//! `endpoints_into`, `CoflowView::all_ready`,
//! `CoflowView::max_flow_sent`,
//! [`footprint_into`](saath_fabric::footprint_into),
//! [`contention_into`](crate::common::contention_into) and the flow
//! list's [`gang_rate_with`](saath_fabric::gang_rate_with) +
//! [`gang_allocate`](saath_fabric::gang_allocate) stay as the oracles:
//! debug builds assert every entry, every `k_c` and every admission
//! test against them every round.
//!
//! ## How long a round's output stands
//!
//! Between two *structural* events (an arrival or departure, a flow
//! finishing, a readiness, `restarted` or port-capacity change — the
//! driver sees each of those happen) the four steps read only two
//! things that drift: `m_c`, through the queue it selects (D3), and
//! the clock, through the expired flag (D5). Both are bounded in
//! closed form, so `compute` stamps its output with a validity horizon
//! ([`Schedule::valid_until`]): the earliest of
//!
//! * per CoFlow with a rate, `now + transfer_time(share − m_live + 1 B,
//!   r_max)`, where `share` is the CoFlow's per-flow share of its
//!   queue's threshold (Eq. 1), `m_live` the most any of its
//!   *unfinished* flows has sent — the part of `m_c` that can still
//!   grow; a finished flow that holds `m_c` just under the share holds
//!   it there for good — and `r_max` the largest rate any of its flows
//!   was just given. No unfinished flow has sent more than `m_live`
//!   and none sends faster than `r_max`, so before that instant
//!   `m_c ≤ share` still holds: `t < ceil(x / r)` means
//!   `floor(r · t) < x`, and crediting an interval piecewise only
//!   loses bytes (`Σ floor(r·dtᵢ) ≤ floor(r·Σdtᵢ)`), so the bound is
//!   exact in the driver's integer arithmetic. A CoFlow in the last
//!   queue has no threshold to cross;
//! * the earliest starvation deadline (all are unexpired, see below).
//!
//! It costs one comparison per active CoFlow in loops that run anyway
//! (admission and work conservation know each CoFlow's `r_max` as they
//! assign it, and `m_live` falls out of the pass that derives `m_c`);
//! no flow is walked for it. The horizon is
//! [`Time::ZERO`] — recompute every round — whenever a rule reads more
//! than `m_c` and the clock: a `restarted` CoFlow under
//! `dynamics_srtf` (§4.3 reads every flow's `sent`), the skew-aware or
//! total-bytes thresholds, or any CoFlow already past its deadline (so
//! `starvation_kicks` keeps counting every round it describes).

use crate::common::{ContentionTracker, Footprint, PortMoves};
use crate::config::QueueConfig;
use crate::order::OrderBook;
use crate::timing::SchedTimings;
use crate::view::{ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath_fabric::{
    footprint_gang_allocate, footprint_gang_rate, greedy_fill_into, FlowEndpoints, PortBank,
};
use saath_simcore::units::transfer_time;
use saath_simcore::{Bytes, CoflowId, FastHashMap, PortId, Rate, Time};
use saath_telemetry::{MechCounters, Phase};
use std::time::Instant;

/// Saath configuration. [`SaathConfig::default`] is the full paper
/// design with the paper's parameters (K=10, S=10 MB, E=10, d=2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaathConfig {
    /// Priority-queue shape.
    pub queues: QueueConfig,
    /// Starvation deadline factor `d` (D5); deadline = `d · C_q · t_q`.
    pub deadline_factor: u64,
    /// Gang admission (key idea 1). Off = every CoFlow takes the greedy
    /// path, which degenerates to Aalo-style uncoordinated filling.
    pub all_or_none: bool,
    /// Per-flow queue thresholds (key idea 2). Off = Aalo's total-bytes
    /// rule.
    pub per_flow_threshold: bool,
    /// LCoF ordering (key idea 3). Off = FIFO within each queue.
    pub lcof: bool,
    /// Backfill idle ports with missed CoFlows (D4).
    pub work_conservation: bool,
    /// Enforce FIFO-derived deadlines (D5).
    pub starvation_avoidance: bool,
    /// §4.3 SRTF-style re-queue for restarted/straggling CoFlows.
    pub dynamics_srtf: bool,
    /// Skew-aware per-flow thresholds — the extension the paper
    /// sketches for clusters with skewed flow-length distributions
    /// (§3): each flow's threshold share scales with its observed byte
    /// fraction instead of the plain equal split. Off by default (the
    /// paper's evaluated design splits equally).
    pub skew_aware_thresholds: bool,
}

impl Default for SaathConfig {
    fn default() -> Self {
        SaathConfig {
            queues: QueueConfig::default(),
            deadline_factor: 2,
            all_or_none: true,
            per_flow_threshold: true,
            lcof: true,
            work_conservation: true,
            starvation_avoidance: true,
            dynamics_srtf: true,
            skew_aware_thresholds: false,
        }
    }
}

impl SaathConfig {
    /// Fig 10's "A/N" ablation: all-or-none + FIFO + total-bytes
    /// thresholds.
    pub fn ablation_an() -> Self {
        SaathConfig {
            per_flow_threshold: false,
            lcof: false,
            ..Default::default()
        }
    }

    /// Fig 10's "A/N + P/F" ablation: adds per-flow thresholds, still
    /// FIFO.
    pub fn ablation_an_pf() -> Self {
        SaathConfig {
            lcof: false,
            ..Default::default()
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct CoflowState {
    queue: usize,
    deadline: Time,
    /// Whether this deadline's expiry was already counted (telemetry
    /// only; never read by scheduling decisions).
    expiry_counted: bool,
}

/// Everything the scheduler keeps about one live CoFlow: its
/// historical queue/deadline state and the *footprint cache* — what a
/// round needs from the CoFlow's flows, derived in one pass
/// ([`CoflowEntry::refresh`]) and kept until the driver's hint names
/// the CoFlow again. Entries live in a slab (`Saath::slab`) whose
/// slots are recycled through a free list.
struct CoflowEntry {
    id: CoflowId,
    /// Free slots keep their place in the slab with this off.
    live: bool,
    /// `Saath::round` of the last view that held the CoFlow; a live
    /// entry behind the current round has departed.
    seen: u64,
    /// `Saath::round` of the last hint that named the CoFlow (or of
    /// its arrival): the cache is refreshed in that round.
    dirty: u64,
    /// `None` until the CoFlow's first queue assignment.
    state: Option<CoflowState>,
    /// Endpoints of the unfinished flows, in flow order — exactly
    /// `endpoints_into(c, num_nodes, false)`. Sized to the unfinished
    /// count on its first build; finishes only shrink it. The
    /// allocation stays with the slot when the CoFlow departs and
    /// serves the slot's next CoFlow (grown, exactly, if that one is
    /// wider).
    eps: Vec<FlowEndpoints>,
    /// The port footprint of `eps` — [`footprint_into`](saath_fabric::footprint_into) of it — kept in
    /// step with it by `refresh`. Its allocation stays with the slot
    /// too.
    footprint: Footprint,
    /// `CoflowView::all_ready`.
    all_ready: bool,
    /// `CoflowView::max_flow_sent`, the paper's `m_c`.
    m_c: Bytes,
    /// The most an *unfinished* flow has sent: the part of `m_c` that
    /// can still grow, which is what the validity horizon bounds.
    m_live: Bytes,
}

impl CoflowEntry {
    /// An entry for a CoFlow first seen in round `dirty`, its list
    /// empty in the allocation `eps` brings, and `footprint` (empty: a
    /// departed slot's, or a fresh one) with it.
    fn new(
        id: CoflowId,
        dirty: u64,
        mut eps: Vec<FlowEndpoints>,
        footprint: Footprint,
    ) -> CoflowEntry {
        eps.clear();
        debug_assert!(
            footprint.ports().is_empty(),
            "a slot's footprint outlived it"
        );
        CoflowEntry {
            id,
            live: true,
            seen: dirty,
            dirty,
            state: None,
            eps,
            footprint,
            all_ready: true,
            m_c: Bytes::ZERO,
            m_live: Bytes::ZERO,
        }
    }

    /// Re-derives the cache of the entry in `slot` from `c` in one pass
    /// over its flows, and moves its footprint with its endpoint list,
    /// noting the ports that join or leave in `moves`. The list is
    /// checked against the view *exactly*: the walk keeps a read cursor
    /// into it, and each unfinished flow must equal the entry under the
    /// cursor after skipping zero or more entries. If every flow is
    /// found, the new list is the old one with the skipped and trailing
    /// entries taken out — flows that finished — so it is compacted in
    /// place (behind a write cursor) and their ports, gathered in
    /// `dropped` on the way, are taken out of the footprint. Counts
    /// prove nothing — a finish paired with an un-finish (a restarted
    /// coordinator's forgotten observations) keeps the count and moves
    /// the list — so nothing is inferred from them. Only a flow that is
    /// not in the list pays for a rebuild, of the list and then of the
    /// footprint (in `scratch`, diffed against the old one).
    fn refresh(
        &mut self,
        slot: u32,
        c: &CoflowView,
        num_nodes: usize,
        dropped: &mut Vec<PortId>,
        scratch: &mut Vec<(PortId, u32)>,
        moves: &mut PortMoves,
    ) {
        let (mut m_c, mut m_live) = (Bytes::ZERO, Bytes::ZERO);
        let mut all_ready = true;
        let mut unfinished = 0usize;
        dropped.clear();
        let (mut read, mut write) = (0usize, 0usize);
        let mut subsequence = true;
        for f in &c.flows {
            m_c = m_c.max(f.sent);
            if f.finished {
                continue;
            }
            m_live = m_live.max(f.sent);
            all_ready &= f.ready;
            unfinished += 1;
            if !subsequence {
                continue;
            }
            let ep = f.endpoints(num_nodes);
            while read < self.eps.len() && self.eps[read] != ep {
                push_ports(dropped, &self.eps[read]);
                read += 1;
            }
            if read == self.eps.len() {
                subsequence = false;
                continue;
            }
            self.eps[write] = ep;
            read += 1;
            write += 1;
        }
        self.m_c = m_c;
        self.m_live = m_live;
        self.all_ready = all_ready;
        if subsequence {
            if write == self.eps.len() {
                return; // unchanged
            }
            for ep in &self.eps[read..] {
                push_ports(dropped, ep);
            }
            self.eps.truncate(write);
            self.footprint.drop_ports(slot, dropped, moves);
            return; // shrunk
        }
        self.eps.clear();
        self.eps.reserve_exact(unfinished);
        self.eps
            .extend(c.unfinished().map(|f| f.endpoints(num_nodes)));
        self.footprint.set(slot, &self.eps, scratch, moves); // rebuilt
    }
}

/// The two ports of a flow that left an endpoint list.
fn push_ports(dropped: &mut Vec<PortId>, ep: &FlowEndpoints) {
    dropped.push(ep.src);
    dropped.push(ep.dst);
}

/// The Saath global scheduler. See the module docs.
pub struct Saath {
    cfg: SaathConfig,
    /// One entry per live CoFlow (plus recycled free slots).
    slab: Vec<CoflowEntry>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    /// CoFlow → slot of `slab`; the one hash lookup per CoFlow a round
    /// makes here.
    slot_of: FastHashMap<CoflowId, u32>,
    /// Rounds computed so far; stamps `CoflowEntry::{seen, dirty}`.
    round: u64,
    /// Port-space size the cached endpoint lists were built for.
    num_nodes: usize,
    /// Per-round overhead samples (Table 2).
    pub timings: SchedTimings,
    /// The debug oracles' scratch (the contention oracle's incidence
    /// map, the flow-list gang rate's counters, a footprint and a bank
    /// to re-derive), kept across rounds so they allocate nothing per
    /// round either. Release builds run no oracle and carry none.
    #[cfg(debug_assertions)]
    arena: crate::common::RoundArena,
    /// Incremental `k_c` by slot, fed `moves`.
    tracker: ContentionTracker,
    /// Incrementally maintained LCoF order by slot (see [`OrderBook`]).
    book: OrderBook,
    /// Per-round buffers, recycled across rounds (see `compute`).
    /// `slots[i]` is the slab slot of `view.coflows[i]`.
    slots: Vec<u32>,
    /// The ports that joined or left a footprint this round, by slot.
    moves: PortMoves,
    /// `refresh`'s scratch: the ports of the flows that left one
    /// endpoint list, and one rebuilt footprint.
    dropped: Vec<PortId>,
    footprint_scratch: Vec<(PortId, u32)>,
    queues: Vec<usize>,
    occupancy: Vec<usize>,
    k: Vec<u32>,
    order: Vec<usize>,
    expired: Vec<bool>,
    missed: Vec<usize>,
    /// Ready-only endpoints of a partly-ready CoFlow (work
    /// conservation), and the debug oracle's scratch.
    eps: Vec<FlowEndpoints>,
    wc_rates: Vec<Rate>,
    /// Finished-flow lengths for the §4.3 remaining-length estimate.
    est: Vec<u64>,
    /// Rounds in which a deadline-expired CoFlow was force-prioritized
    /// (§7.1 reports starvation avoidance kicking in <1 % of the time).
    pub starvation_kicks: u64,
    /// Mechanism counters (D1–D5 events).
    pub mech: MechCounters,
}

/// `Saath::slots` placeholder for a CoFlow with no entry yet.
const NO_SLOT: u32 = u32::MAX;

impl Saath {
    /// A scheduler with the given configuration.
    pub fn new(cfg: SaathConfig) -> Saath {
        Saath {
            cfg,
            slab: Vec::new(),
            free: Vec::new(),
            slot_of: FastHashMap::default(),
            round: 0,
            num_nodes: 0,
            timings: SchedTimings::default(),
            #[cfg(debug_assertions)]
            arena: crate::common::RoundArena::new(),
            tracker: ContentionTracker::new(),
            book: OrderBook::new(),
            slots: Vec::new(),
            moves: PortMoves::default(),
            dropped: Vec::new(),
            footprint_scratch: Vec::new(),
            queues: Vec::new(),
            occupancy: Vec::new(),
            k: Vec::new(),
            order: Vec::new(),
            expired: Vec::new(),
            missed: Vec::new(),
            eps: Vec::new(),
            wc_rates: Vec::new(),
            est: Vec::new(),
            starvation_kicks: 0,
            mech: MechCounters::default(),
        }
    }

    /// Puts a fresh entry for `id` in a free slot (or a new one).
    fn insert_entry(&mut self, id: CoflowId) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let e = &mut self.slab[slot as usize];
                let (eps, footprint) =
                    (std::mem::take(&mut e.eps), std::mem::take(&mut e.footprint));
                *e = CoflowEntry::new(id, self.round, eps, footprint);
                slot
            }
            None => {
                let e = CoflowEntry::new(id, self.round, Vec::new(), Footprint::default());
                self.slab.push(e);
                (self.slab.len() - 1) as u32
            }
        };
        self.slot_of.insert(id, slot);
        slot
    }

    /// The paper's full design with default parameters.
    pub fn with_defaults() -> Saath {
        Saath::new(SaathConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SaathConfig {
        &self.cfg
    }

    /// The queue a CoFlow would be assigned this round (D3 + §4.3).
    pub fn queue_of(&self, c: &CoflowView) -> usize {
        queue_for(&self.cfg, c, c.max_flow_sent(), &mut Vec::new())
    }

    /// The all-or-none admission scan (D1 step 4, D2), in `self.order`:
    /// a CoFlow that is not admitted lands in `self.missed`; one that
    /// is goes to `crossing` with the rate it got.
    fn admit(
        &mut self,
        view: &ClusterView<'_>,
        bank: &mut PortBank,
        out: &mut Schedule,
        crossing: &mut Crossing,
    ) {
        for oi in 0..self.order.len() {
            let ci = self.order[oi];
            let e = &self.slab[self.slots[ci] as usize];
            if e.eps.is_empty() {
                continue; // fully finished; driver will drop it
            }
            if !self.cfg.all_or_none || !e.all_ready {
                if self.cfg.all_or_none {
                    self.mech.unready_skips += 1;
                }
                self.missed.push(ci);
                continue;
            }
            let r = footprint_gang_rate(bank, e.footprint.ports());
            // The flow list's gang rate stays the executable
            // specification: every debug round proves the footprint's
            // equal to it.
            #[cfg(debug_assertions)]
            {
                let by_flows = saath_fabric::gang_rate_with(
                    bank,
                    &e.eps,
                    &mut self.arena.gang_scratch,
                    &mut self.arena.gang_touched,
                );
                assert_eq!(
                    r, by_flows,
                    "footprint gang rate diverged from gang_rate_with"
                );
            }
            self.mech.madd_evals += 1;
            if r.is_zero() {
                self.mech.gang_rejections += 1;
                self.missed.push(ci);
            } else {
                self.mech.gang_admissions += 1;
                #[cfg(debug_assertions)]
                {
                    let by_flows = self.arena.bank.get_or_insert_with(|| bank.clone());
                    by_flows.clone_from(bank);
                    saath_fabric::gang_allocate(by_flows, &e.eps, r);
                }
                footprint_gang_allocate(bank, e.footprint.ports(), r);
                #[cfg(debug_assertions)]
                assert_eq!(
                    Some(bank.remaining_slab()),
                    self.arena.bank.as_ref().map(PortBank::remaining_slab),
                    "footprint allocation diverged from gang_allocate"
                );
                for f in &e.eps {
                    out.set(f.flow, r);
                }
                let width = view.coflows[ci].width();
                crossing.offer(&self.cfg.queues, self.queues[ci], width, e.m_live, r);
            }
        }
    }
}

/// The CoFlow that can cross its Eq. 1 threshold soonest, kept as the
/// bytes it is short of crossing over the rate that closes them.
/// Candidates are compared by cross-multiplication and only the winner
/// is divided ([`Crossing::at`]), so a round pays one 128-bit division
/// for its horizon, not one per CoFlow — the runtime computes every
/// epoch and never reads the result.
#[derive(Clone, Copy)]
struct Crossing {
    missing: u64,
    rate: u64,
}

impl Crossing {
    /// Nothing holds a rate: no threshold is ever crossed.
    const NONE: Crossing = Crossing {
        missing: u64::MAX,
        rate: 0,
    };

    /// Takes in a CoFlow of `width` flows in queue `q`, none of whose
    /// unfinished flows has sent more than `m_live` or sends faster
    /// than `r_max`: one byte past its per-flow share is the least any
    /// of them must move. The last queue has no threshold. See the
    /// module docs for why every earlier instant is safe.
    fn offer(&mut self, queues: &QueueConfig, q: usize, width: usize, m_live: Bytes, r_max: Rate) {
        let share = queues.per_flow_share(q, width);
        if share.as_u64() == u64::MAX {
            return;
        }
        let missing = share.saturating_sub(m_live).as_u64() + 1;
        let rate = r_max.as_u64();
        // missing / rate < self.missing / self.rate
        if u128::from(missing) * u128::from(self.rate) < u128::from(self.missing) * u128::from(rate)
        {
            *self = Crossing { missing, rate };
        }
    }

    /// The first instant the soonest CoFlow can be past its share.
    fn at(self, now: Time) -> Time {
        now.saturating_add(transfer_time(Bytes(self.missing), Rate(self.rate)))
    }
}

/// D3 + §4.3 queue assignment as a free function, so `compute` can call
/// it while holding mutable borrows of the scheduler's round buffers.
/// `m_c` is `c.max_flow_sent()` (cached by the caller); `est` is
/// scratch for the §4.3 estimate.
fn queue_for(cfg: &SaathConfig, c: &CoflowView, m_c: Bytes, est: &mut Vec<u64>) -> usize {
    if cfg.dynamics_srtf && c.restarted {
        if let Some(m) = dynamics_remaining_estimate(c, est) {
            return cfg.queues.queue_for_per_flow(m, c.width());
        }
    }
    if cfg.per_flow_threshold {
        if cfg.skew_aware_thresholds {
            cfg.queues
                .queue_for_skew_aware(c.flows.iter().map(|f| f.sent))
        } else {
            cfg.queues.queue_for_per_flow(m_c, c.width())
        }
    } else {
        cfg.queues.queue_for_total(c.total_sent())
    }
}

/// §4.3: once some flows of a restarted/straggling CoFlow have finished,
/// estimate each unfinished flow's remaining length as `f_e − f_i`
/// (`f_e` = median finished flow length, `f_i` = bytes sent so far) and
/// return `m_c = max_i f_i^rem`. `None` when no flow has finished yet
/// (no basis for an estimate). `finished` is scratch.
fn dynamics_remaining_estimate(c: &CoflowView, finished: &mut Vec<u64>) -> Option<Bytes> {
    finished.clear();
    finished.extend(
        c.flows
            .iter()
            .filter(|f| f.finished)
            .map(|f| f.sent.as_u64()),
    );
    if finished.is_empty() {
        return None;
    }
    let mid = finished.len() / 2;
    let f_e = *finished.select_nth_unstable(mid).1;
    let m = c
        .unfinished()
        .map(|f| f_e.saturating_sub(f.sent.as_u64()))
        .max()
        .unwrap_or(0);
    Some(Bytes(m))
}

impl CoflowScheduler for Saath {
    fn name(&self) -> &'static str {
        "saath"
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        // Each phase boundary is one clock read: the end of one span
        // and the start of the next.
        let t_start = Instant::now();
        let n = view.coflows.len();

        // ---- Ordering phase (queue assignment, deadlines, LCoF sort) ----
        self.round += 1;
        let round = self.round;
        self.moves.clear();
        // A port-space change re-maps every cached endpoint: take the
        // round as unhinted, empty every list and footprint so that each
        // is rebuilt, and start the contention tracker over from those
        // rebuilds (the old space's leaves go with the old tracker).
        let hint = view.changed.filter(|_| self.num_nodes == view.num_nodes);
        if self.num_nodes != view.num_nodes {
            self.num_nodes = view.num_nodes;
            for (slot, e) in self.slab.iter_mut().enumerate() {
                e.eps.clear();
                e.footprint.clear(slot as u32, &mut self.moves);
            }
            self.moves.clear();
            self.tracker = ContentionTracker::new();
        }

        // Find every CoFlow's entry — the round's one hash lookup per
        // CoFlow — and stamp it seen.
        self.slots.clear();
        let mut arrivals = 0;
        for c in view.coflows.iter() {
            let slot = match self.slot_of.get(&c.id) {
                Some(&slot) => {
                    self.slab[slot as usize].seen = round;
                    slot
                }
                None => {
                    arrivals += 1;
                    NO_SLOT
                }
            };
            self.slots.push(slot);
        }
        // Fewer entries stamped than held: some CoFlow departed. (Held
        // against the view's size the test would miss departures
        // matched by same-round arrivals.) Retire the unstamped
        // entries, empty their footprints (every port leaves), take
        // them out of the order book, which is indexed by slot, and
        // hand their slots — list allocations included: giving each
        // back to the allocator as its CoFlow left moved
        // `sim-fb-dense`'s peak RSS by a tenth — to this round's
        // arrivals first.
        if n - arrivals < self.slot_of.len() {
            for (slot, e) in self.slab.iter_mut().enumerate() {
                if e.live && e.seen != round {
                    e.live = false;
                    self.slot_of.remove(&e.id);
                    e.footprint.clear(slot as u32, &mut self.moves);
                    self.book.remove(slot as u32);
                    self.free.push(slot as u32);
                }
            }
        }
        if arrivals > 0 {
            for (i, c) in view.coflows.iter().enumerate() {
                if self.slots[i] == NO_SLOT {
                    self.slots[i] = self.insert_entry(c.id);
                }
            }
        }
        if let Some(changed) = hint {
            // Ids that departed are named too; they have no entry.
            for id in changed {
                if let Some(&slot) = self.slot_of.get(id) {
                    self.slab[slot as usize].dirty = round;
                }
            }
        }

        // Cache refresh and new queue assignment, one CoFlow at a time.
        // A CoFlow that is new, named by the hint, or seen without a
        // hint has its flows walked — once: `refresh` re-derives the
        // endpoint list, footprint, readiness and `m_c` together, and
        // the rest of the round reads those; the ports its footprint
        // gained or lost are kept for the contention phase. CoFlows the
        // hint excludes have byte-identical view contents
        // ([`ClusterView::changed`]'s contract), so their cache stands,
        // and so does their queue. Debug builds assert both against the
        // full computation, for every CoFlow, every round.
        self.queues.clear();
        // Whether the §4.3 re-queue rule is in play for any CoFlow.
        let mut srtf_requeue = false;
        for (c, &slot) in view.coflows.iter().zip(&self.slots) {
            srtf_requeue |= self.cfg.dynamics_srtf && c.restarted;
            let e = &mut self.slab[slot as usize];
            let refreshed = hint.is_none() || e.dirty == round;
            if refreshed {
                e.refresh(
                    slot,
                    c,
                    view.num_nodes,
                    &mut self.dropped,
                    &mut self.footprint_scratch,
                    &mut self.moves,
                );
            }
            #[cfg(debug_assertions)]
            {
                crate::common::endpoints_into(c, view.num_nodes, false, &mut self.eps);
                assert_eq!(
                    e.eps, self.eps,
                    "cached endpoint list diverged from the view"
                );
                saath_fabric::footprint_into(&self.eps, &mut self.arena.footprint);
                assert_eq!(
                    e.footprint.ports(),
                    self.arena.footprint,
                    "footprint diverged from its endpoint list's port counts"
                );
                assert_eq!(e.all_ready, c.all_ready(), "cached readiness diverged");
                assert_eq!(e.m_c, c.max_flow_sent(), "cached m_c diverged");
                let m_live = c.unfinished().map(|f| f.sent).max();
                assert_eq!(e.m_live, m_live.unwrap_or(Bytes::ZERO), "cached m_live");
            }
            let q = match e.state {
                Some(s) if !refreshed => {
                    debug_assert_eq!(
                        s.queue,
                        queue_for(&self.cfg, c, e.m_c, &mut self.est),
                        "cached queue diverged for a CoFlow outside the changed hint"
                    );
                    s.queue
                }
                _ => queue_for(&self.cfg, c, e.m_c, &mut self.est),
            };
            self.queues.push(q);
        }

        // Queue occupancy under the *new* assignment, for fresh deadlines.
        self.occupancy.clear();
        self.occupancy.resize(self.cfg.queues.num_queues, 0);
        for &q in &self.queues {
            self.occupancy[q] += 1;
        }

        // Refresh deadlines for CoFlows that are new or changed queue
        // (D5: "whenever a CoFlow arrives in a queue, a fresh deadline
        // is set for it"). Horizons are normalized by the *nominal*
        // port rate: a degraded port (straggler) must not stretch every
        // CoFlow's starvation deadline.
        let nominal_rate = bank.nominal_rate();
        for (&slot, &q) in self.slots.iter().zip(&self.queues) {
            let e = &mut self.slab[slot as usize];
            if e.state.is_some_and(|s| s.queue == q) {
                continue;
            }
            if e.state.is_some() {
                // An existing CoFlow crossed a threshold (D3) — new
                // arrivals are assignments, not transitions.
                self.mech.queue_transitions += 1;
            }
            let t_q = self.cfg.queues.min_residence(q, nominal_rate);
            let horizon = t_q
                .saturating_mul(self.cfg.deadline_factor)
                .saturating_mul(self.occupancy[q].max(1) as u64);
            e.state = Some(CoflowState {
                queue: q,
                deadline: view.now.saturating_add(horizon),
                expiry_counted: false,
            });
        }

        // Contention (only when LCoF orders by it). The tracker is fed
        // the ports that joined or left a footprint this round — in the
        // departure sweep and the refresh loop — and is then read by
        // slot.
        let t_contention = Instant::now();
        if self.cfg.lcof {
            self.tracker.apply(&self.moves);
            self.k.clear();
            self.k
                .extend(self.slots.iter().map(|&slot| self.tracker.k(slot)));
            self.mech.contention_deltas += self.moves.count();
            if hint.is_none() {
                self.mech.contention_rebuilds += 1;
            } else {
                self.mech.contention_rebuilds_avoided += 1;
            }
            // The full rebuild stays the executable specification:
            // every debug round proves the delta-updated k equals it.
            #[cfg(debug_assertions)]
            {
                let mut oracle = Vec::new();
                crate::common::contention_into(view, &mut self.arena, &mut oracle);
                assert_eq!(
                    self.k, oracle,
                    "incremental contention diverged from the contention_into oracle"
                );
            }
        } else {
            self.k.clear();
            self.k.resize(n, 0);
        }
        let t_contention_end = Instant::now();

        // Global scan order: queue asc (strict priority), expired
        // deadlines first within the queue, then LCoF (or FIFO), then
        // arrival, then id for full determinism.
        self.expired.clear();
        self.expired.extend(self.slots.iter().map(|&slot| {
            self.cfg.starvation_avoidance
                && self.slab[slot as usize]
                    .state
                    .is_some_and(|s| s.deadline <= view.now)
        }));
        // Each expired deadline is one D5 event, counted once per
        // deadline (a CoFlow stays expired until its queue changes).
        for (&slot, &expired) in self.slots.iter().zip(&self.expired) {
            if expired {
                if let Some(s) = &mut self.slab[slot as usize].state {
                    if !s.expiry_counted {
                        s.expiry_counted = true;
                        self.mech.deadline_expiries += 1;
                    }
                }
            }
        }
        let (queues, expired, k) = (&self.queues, &self.expired, &self.k);
        let lcof = self.cfg.lcof;
        // Reposition only the CoFlows whose key components moved;
        // steady-state rounds refresh view positions without touching a
        // tree node, and the emit walk replaces the O(n log n) re-sort.
        // The book is keyed by slab slot.
        let mut rekeys = 0u64;
        for (i, (c, &slot)) in view.coflows.iter().zip(&self.slots).enumerate() {
            let class = (queues[i], !expired[i]);
            let sub = (if lcof { k[i] } else { 0 }, c.arrival);
            if self.book.upsert(slot, c.id, class, sub, i as u32) {
                rekeys += 1;
            }
        }
        self.book.emit_into(&mut self.order);
        self.mech.order_rekeys += rekeys;
        self.mech.order_resorts_avoided += 1;
        // A rekey is one tree removal + insertion, ~log2(n)
        // comparisons each: a deterministic estimate of the D1
        // comparison work.
        let lg = (usize::BITS - n.leading_zeros()) as u64;
        self.mech.lcof_comparisons += rekeys * 2 * lg;
        // The full re-sort stays the executable specification: every
        // debug round proves the book emits exactly it.
        #[cfg(debug_assertions)]
        {
            let sort_key = |i: usize| {
                (
                    queues[i],
                    !expired[i],
                    if lcof { k[i] } else { 0 },
                    view.coflows[i].arrival,
                    view.coflows[i].id,
                )
            };
            let mut oracle: Vec<usize> = (0..n).collect();
            oracle.sort_by_key(|&i| sort_key(i));
            assert_eq!(
                self.order, oracle,
                "incremental order diverged from the full re-sort oracle"
            );
        }
        let any_expired = self.expired.iter().any(|&e| e);
        if any_expired {
            self.starvation_kicks += 1;
            self.mech.starvation_rescues += 1;
        }
        // The validity horizon (module docs) is the earliest deadline
        // — every one of them is still ahead — or the first threshold
        // crossing among the CoFlows given a rate below; it stays at
        // zero when the queue rule or the order reads more than `m_c`
        // and the clock.
        let drifts_with_m_c_only = self.cfg.per_flow_threshold
            && !self.cfg.skew_aware_thresholds
            && !srtf_requeue
            && !any_expired;
        let mut crossing = Crossing::NONE;
        let horizon_cap = if !drifts_with_m_c_only {
            Time::ZERO
        } else if self.cfg.starvation_avoidance {
            let deadlines = self.slots.iter().filter_map(|&slot| {
                let state = self.slab[slot as usize].state;
                state.map(|s| s.deadline)
            });
            deadlines.min().unwrap_or(Time::NEVER)
        } else {
            Time::NEVER
        };
        let t_order_end = Instant::now();

        // ---- All-or-none admission (D1 step 4, D2) ----
        self.missed.clear();
        self.admit(view, bank, out, &mut crossing);
        let t_madd_end = Instant::now();

        // ---- Work conservation (D4) ----
        if self.cfg.work_conservation || !self.cfg.all_or_none {
            for mi in 0..self.missed.len() {
                let ci = self.missed[mi];
                let e = &self.slab[self.slots[ci] as usize];
                let eps = if e.all_ready {
                    &e.eps
                } else {
                    // The cached list is the unfinished flows in flow
                    // order, so the two walk in lockstep.
                    self.eps.clear();
                    let unfinished = view.coflows[ci].unfinished().zip(&e.eps);
                    self.eps
                        .extend(unfinished.filter(|(f, _)| f.ready).map(|(_, ep)| *ep));
                    &self.eps
                };
                if eps.is_empty() {
                    continue;
                }
                greedy_fill_into(bank, eps, &mut self.wc_rates);
                let mut r_max = Rate::ZERO;
                for (ep, &r) in eps.iter().zip(&self.wc_rates) {
                    if !r.is_zero() {
                        self.mech.wc_backfills += 1;
                        out.set(ep.flow, r);
                        r_max = r_max.max(r);
                    }
                }
                if !r_max.is_zero() {
                    let width = view.coflows[ci].width();
                    crossing.offer(&self.cfg.queues, self.queues[ci], width, e.m_live, r_max);
                }
            }
        }
        out.valid_until = horizon_cap.min(crossing.at(view.now));
        let t_end = Instant::now();
        for (phase, from, to) in [
            (Phase::SchedContention, t_contention, t_contention_end),
            (Phase::SchedOrder, t_start, t_order_end),
            (Phase::SchedMadd, t_order_end, t_madd_end),
            (Phase::SchedWc, t_madd_end, t_end),
            (Phase::SchedTotal, t_start, t_end),
        ] {
            self.timings.record(phase, to.duration_since(from));
        }
        self.timings.active_coflows.observe(n as u64);
    }

    fn mech_counters(&self) -> Option<&MechCounters> {
        Some(&self.mech)
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        Some(&self.occupancy)
    }

    /// Saath's only *historical* state is each entry's queue/deadline
    /// pair: a deadline depends on when the CoFlow entered its current
    /// queue and the occupancy at that instant, which a resumed run
    /// never observed. Everything else (footprint cache, contention
    /// tracker, order book, arenas) is a pure function of the view and
    /// rebuilds on the unhinted round that follows a restore.
    /// `starvation_kicks` and the mech counters are appended so
    /// telemetry totals stay continuous across a resume; they never
    /// feed scheduling decisions.
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(1u8); // format version
        out.extend_from_slice(&self.starvation_kicks.to_le_bytes());
        out.extend_from_slice(&(MechCounters::LEN as u64).to_le_bytes());
        for (_, v) in self.mech.rows() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // Slot order is an accident of arrivals and departures: sort by
        // id so the blob (and thus the snapshot digest) is deterministic.
        let live = self.slab.iter().filter(|e| e.live);
        let mut entries: Vec<(CoflowId, CoflowState)> =
            live.filter_map(|e| e.state.map(|st| (e.id, st))).collect();
        entries.sort_by_key(|(id, _)| *id);
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (id, st) in entries {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&(st.queue as u64).to_le_bytes());
            out.extend_from_slice(&st.deadline.as_nanos().to_le_bytes());
            out.push(st.expiry_counted as u8);
        }
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut rd = bytes;
        let mut get = |n: usize| -> Result<Vec<u8>, String> {
            if rd.len() < n {
                return Err("saath state blob truncated".into());
            }
            let (head, tail) = rd.split_at(n);
            rd = tail;
            Ok(head.to_vec())
        };
        let version = get(1)?[0];
        if version != 1 {
            return Err(format!("unknown saath state version {version}"));
        }
        let u64_of = |b: Vec<u8>| u64::from_le_bytes(b.as_slice().try_into().unwrap());
        self.starvation_kicks = u64_of(get(8)?);
        let n_mech = u64_of(get(8)?);
        if n_mech != MechCounters::LEN as u64 {
            return Err(format!(
                "saath state has {n_mech} mech counters, this build has {}",
                MechCounters::LEN
            ));
        }
        for slot in self.mech.values_mut() {
            *slot = u64_of(get(8)?);
        }
        let n_state = u64_of(get(8)?) as usize;
        // Every slot is handed out afresh, so whatever is indexed by
        // slot goes with the slab, and the next round is taken as
        // unhinted (as after a port-space change) whatever the driver
        // passes: each restored entry's cache starts empty.
        self.slab.clear();
        self.free.clear();
        self.slot_of.clear();
        self.tracker = ContentionTracker::new();
        self.book.clear();
        self.num_nodes = 0;
        for _ in 0..n_state {
            let id = CoflowId(u32::from_le_bytes(get(4)?.as_slice().try_into().unwrap()));
            let queue = u64_of(get(8)?) as usize;
            let deadline = Time(u64_of(get(8)?));
            let expiry_counted = get(1)?[0] != 0;
            // Of two rows for one id the later wins.
            let slot = match self.slot_of.get(&id) {
                Some(&slot) => slot,
                None => self.insert_entry(id),
            };
            self.slab[slot as usize].state = Some(CoflowState {
                queue,
                deadline,
                expiry_counted,
            });
        }
        if !rd.is_empty() {
            return Err(format!("{} trailing bytes in saath state blob", rd.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FlowView;
    use saath_simcore::{FlowId, NodeId, Rate};

    const GBPS: Rate = Rate::gbps(1);

    fn fv(id: u32, src: u32, dst: u32, sent: u64) -> FlowView {
        FlowView {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            sent: Bytes(sent),
            ready: true,
            finished: false,
            oracle_size: None,
        }
    }

    fn cv(id: u32, arrival_ms: u64, flows: Vec<FlowView>) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::from_millis(arrival_ms),
            flows,
            restarted: false,
        }
    }

    /// The queue/deadline state of a CoFlow the scheduler holds.
    fn state_of(s: &Saath, id: u32) -> CoflowState {
        let entry = &s.slab[s.slot_of[&CoflowId(id)] as usize];
        assert!(entry.live && entry.id == CoflowId(id));
        entry.state.expect("no queue assigned yet")
    }

    fn run(sched: &mut Saath, coflows: &[CoflowView], num_nodes: usize, now: Time) -> Schedule {
        let view = ClusterView {
            now,
            num_nodes,
            coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(num_nodes, GBPS);
        let mut out = Schedule::default();
        sched.compute(&view, &mut bank, &mut out);
        out
    }

    /// Fig 1: LCoF + all-or-none schedules the three narrow CoFlows and
    /// defers wide C2 entirely.
    #[test]
    fn fig1_round_one_defers_the_wide_coflow() {
        let coflows = vec![
            cv(1, 0, vec![fv(10, 0, 3, 0)]),
            cv(
                2,
                1,
                vec![fv(20, 0, 4, 0), fv(21, 1, 5, 0), fv(22, 2, 6, 0)],
            ),
            cv(3, 2, vec![fv(30, 1, 7, 0)]),
            cv(4, 3, vec![fv(40, 2, 8, 0)]),
        ];
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 9, Time::from_millis(4));
        // Narrow CoFlows run at full port rate.
        for flow in [10, 30, 40] {
            assert_eq!(out.rate_of(FlowId(flow)), GBPS, "flow f{flow}");
        }
        // C2 is blocked on every port (its senders are all taken) and
        // work conservation finds nothing for it either.
        for flow in [20, 21, 22] {
            assert_eq!(out.rate_of(FlowId(flow)), Rate::ZERO, "flow f{flow}");
        }
    }

    /// All-or-none assigns *equal* rates: the most contended port's
    /// max-min share goes to every flow of the CoFlow (D2).
    #[test]
    fn gang_rates_are_equal_and_bottlenecked() {
        // One CoFlow with two flows out of the same sender.
        let coflows = vec![cv(0, 0, vec![fv(0, 0, 1, 0), fv(1, 0, 2, 0)])];
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 3, Time::ZERO);
        assert_eq!(out.rate_of(FlowId(0)), GBPS.div_even(2));
        assert_eq!(out.rate_of(FlowId(1)), GBPS.div_even(2));
    }

    /// Fig 4: work conservation backfills the idle port of a missed
    /// CoFlow; disabling it leaves the port idle.
    #[test]
    fn work_conservation_backfills_missed_coflows() {
        let coflows = vec![
            cv(1, 0, vec![fv(10, 0, 2, 0)]),
            cv(2, 1, vec![fv(20, 0, 3, 0), fv(21, 1, 4, 0)]),
        ];
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 5, Time::from_millis(1));
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(20)), Rate::ZERO, "sender 0 is taken");
        assert_eq!(out.rate_of(FlowId(21)), GBPS, "backfilled by WC");

        let mut s = Saath::new(SaathConfig {
            work_conservation: false,
            ..Default::default()
        });
        let out = run(&mut s, &coflows, 5, Time::from_millis(1));
        assert_eq!(
            out.rate_of(FlowId(21)),
            Rate::ZERO,
            "A/N strict: port idles"
        );
    }

    /// LCoF orders by contention; FIFO (ablation) orders by arrival.
    #[test]
    fn lcof_vs_fifo_ordering() {
        // C1 (arrives first) is wide across both senders; C2/C3 narrow.
        let coflows = vec![
            cv(1, 0, vec![fv(10, 0, 2, 0), fv(11, 1, 3, 0)]),
            cv(2, 1, vec![fv(20, 0, 4, 0)]),
            cv(3, 2, vec![fv(30, 1, 5, 0)]),
        ];
        // Full Saath: k1 = 2, k2 = k3 = 1 → C2, C3 win the ports.
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 6, Time::from_millis(2));
        assert_eq!(out.rate_of(FlowId(20)), GBPS);
        assert_eq!(out.rate_of(FlowId(30)), GBPS);
        assert_eq!(out.rate_of(FlowId(10)), Rate::ZERO);

        // FIFO ablation: C1 arrived first and takes both ports.
        let mut s = Saath::new(SaathConfig::ablation_an_pf());
        let out = run(&mut s, &coflows, 6, Time::from_millis(2));
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(20)), Rate::ZERO);
    }

    /// Per-flow thresholds demote a wide CoFlow once any flow crosses
    /// its share; the total-bytes ablation keeps it high.
    #[test]
    fn per_flow_threshold_demotes_early() {
        // Width 4, one flow has sent 3 MB; total 3 MB.
        // Per-flow share of Q0 (10 MB / 4 = 2.5 MB) is crossed → Q1.
        let wide = cv(
            0,
            0,
            vec![
                fv(0, 0, 4, 3_000_000),
                fv(1, 1, 5, 0),
                fv(2, 2, 6, 0),
                fv(3, 3, 7, 0),
            ],
        );
        let s = Saath::with_defaults();
        assert_eq!(s.queue_of(&wide), 1);
        let s = Saath::new(SaathConfig::ablation_an());
        assert_eq!(s.queue_of(&wide), 0, "total rule: 3 MB ≤ 10 MB stays in Q0");
    }

    /// Queue priority is strict: a Q0 CoFlow beats a Q1 CoFlow even when
    /// the Q1 CoFlow has lower contention and earlier arrival.
    #[test]
    fn strict_queue_priority() {
        // C0 has sent >10 MB on its flow → Q1. C1 fresh → Q0.
        let coflows = vec![
            cv(0, 0, vec![fv(0, 0, 2, 20_000_000)]),
            cv(1, 5, vec![fv(10, 0, 3, 0)]),
        ];
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 4, Time::from_millis(5));
        assert_eq!(out.rate_of(FlowId(10)), GBPS, "Q0 CoFlow wins the sender");
        assert_eq!(out.rate_of(FlowId(0)), Rate::ZERO);
    }

    /// A CoFlow past its deadline jumps the LCoF order (D5).
    #[test]
    fn starvation_deadline_preempts_lcof() {
        // C0 is wide (senders 0 and 1, k = 2); narrow CoFlows keep
        // arriving on both its senders, so LCoF alone would starve it.
        let wide = cv(0, 0, vec![fv(0, 0, 2, 0), fv(1, 1, 3, 0)]);
        let narrow1 = cv(1, 1, vec![fv(10, 0, 4, 0)]);
        let narrow2 = cv(2, 2, vec![fv(20, 1, 5, 0)]);

        let mut s = Saath::with_defaults();
        // C0 alone gets its deadline stamped at t = 1 ms.
        let _ = run(&mut s, std::slice::from_ref(&wide), 6, Time::from_millis(1));
        assert_eq!(s.starvation_kicks, 0);
        // Much later, fresh narrow CoFlows appear. Their deadlines are
        // new; C0's has long expired (d·C_q·t_q is sub-second here), so
        // C0 must be force-prioritized despite its higher contention.
        let all = vec![wide.clone(), narrow1.clone(), narrow2.clone()];
        let out = run(&mut s, &all, 6, Time::from_secs(3600));
        assert!(s.starvation_kicks > 0);
        assert_eq!(
            out.rate_of(FlowId(0)),
            GBPS,
            "expired CoFlow is prioritized"
        );
        assert_eq!(out.rate_of(FlowId(1)), GBPS);
        assert_eq!(out.rate_of(FlowId(10)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(20)), Rate::ZERO);

        // With starvation avoidance off, LCoF keeps starving it.
        let mut s = Saath::new(SaathConfig {
            starvation_avoidance: false,
            ..Default::default()
        });
        let _ = run(&mut s, std::slice::from_ref(&wide), 6, Time::from_millis(1));
        let out = run(&mut s, &all, 6, Time::from_secs(3600));
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(20)), GBPS);
        assert_eq!(out.rate_of(FlowId(0)), Rate::ZERO);
    }

    /// §4.3: a restarted CoFlow whose finished flows reveal little
    /// remaining work moves back to a high-priority queue.
    #[test]
    fn dynamics_requeues_upward() {
        // Width 2: one flow finished at 100 MB, the other restarted at
        // 95 MB sent. Estimate: f_e = 100 MB, remaining = 5 MB.
        // Per-flow Q0 share = 5 MB ⇒ remaining 5 MB ≤ 5 MB ⇒ Q0,
        // even though m_c (95 MB sent) would put it in Q2.
        let mut c = cv(
            0,
            0,
            vec![fv(0, 0, 2, 100_000_000), fv(1, 1, 3, 95_000_000)],
        );
        c.flows[0].finished = true;
        c.restarted = true;
        let s = Saath::with_defaults();
        assert_eq!(s.queue_of(&c), 0);

        // Without the restart marker the normal rule applies.
        c.restarted = false;
        assert_eq!(s.queue_of(&c), 2);

        // Restarted but nothing finished yet: no estimate, normal rule.
        let mut c2 = cv(1, 0, vec![fv(2, 0, 2, 50_000_000)]);
        c2.restarted = true;
        assert_eq!(dynamics_remaining_estimate(&c2, &mut Vec::new()), None);
    }

    /// CoFlows with unavailable data are skipped by all-or-none and
    /// their ready flows ride work conservation only.
    #[test]
    fn unready_data_blocks_gang_admission() {
        let mut c = cv(0, 0, vec![fv(0, 0, 2, 0), fv(1, 1, 3, 0)]);
        c.flows[1].ready = false;
        let coflows = vec![c];
        let mut s = Saath::with_defaults();
        let out = run(&mut s, &coflows, 4, Time::ZERO);
        // The ready flow still runs (work conservation), the unready one
        // must not be scheduled.
        assert_eq!(out.rate_of(FlowId(0)), GBPS);
        assert_eq!(out.rate_of(FlowId(1)), Rate::ZERO);
    }

    /// Departed CoFlows' state is garbage-collected.
    #[test]
    fn state_is_garbage_collected() {
        let coflows: Vec<CoflowView> = (0..5)
            .map(|i| cv(i, 0, vec![fv(i * 10, 0, 2, 0)]))
            .collect();
        let mut s = Saath::with_defaults();
        let _ = run(&mut s, &coflows, 4, Time::ZERO);
        assert_eq!(s.slot_of.len(), 5);
        let _ = run(&mut s, &coflows[..1], 4, Time::from_millis(8));
        assert_eq!(s.slot_of.len(), 1);
    }

    /// GC must fire even when departures are exactly matched by
    /// same-round arrivals: the map size never exceeds the view size,
    /// so a `state.len() > n` guard would keep every stale id alive.
    #[test]
    fn gc_handles_matched_arrivals_and_departures() {
        let mut s = Saath::with_defaults();
        // Round 1: CoFlows 0..3.
        let first: Vec<CoflowView> = (0..3)
            .map(|i| cv(i, 0, vec![fv(i * 10, 0, 2, 0)]))
            .collect();
        let _ = run(&mut s, &first, 4, Time::ZERO);
        assert_eq!(s.slot_of.len(), 3);
        // Round 2: all three departed, three new arrived — same count.
        let second: Vec<CoflowView> = (3..6)
            .map(|i| cv(i, 8, vec![fv(i * 10, 0, 2, 0)]))
            .collect();
        let _ = run(&mut s, &second, 4, Time::from_millis(8));
        assert_eq!(s.slot_of.len(), 3, "stale entries leaked past GC");
        for i in 3..6 {
            assert!(
                s.slot_of.contains_key(&CoflowId(i)),
                "live CoFlow {i} missing"
            );
        }
        for i in 0..3 {
            assert!(
                !s.slot_of.contains_key(&CoflowId(i)),
                "departed CoFlow {i} retained"
            );
        }
    }

    /// D5 horizons are normalized by the *nominal* port rate: a
    /// straggler on node 0 (whose uplink is port 0) must not stretch
    /// deadline horizons for anybody.
    #[test]
    fn straggler_on_node_zero_leaves_deadlines_unchanged() {
        let coflows = vec![cv(0, 0, vec![fv(0, 1, 2, 0)])];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 3,
            coflows: &coflows,
            changed: None,
        };

        let mut clean = Saath::with_defaults();
        let mut bank = PortBank::uniform(3, GBPS);
        let mut out = Schedule::default();
        clean.compute(&view, &mut bank, &mut out);

        let mut degraded = Saath::with_defaults();
        let mut bank = PortBank::uniform(3, GBPS);
        bank.scale_node(NodeId(0), 1, 10); // port 0 now at 1/10 rate
        let mut out = Schedule::default();
        degraded.compute(&view, &mut bank, &mut out);

        assert_eq!(
            state_of(&clean, 0).deadline,
            state_of(&degraded, 0).deadline,
            "a degraded port 0 must not change deadline horizons"
        );
    }

    /// D5: a CoFlow gets a *fresh* deadline whenever it changes queue,
    /// so demotion does not carry a stale (possibly expired) deadline
    /// into the new queue.
    #[test]
    fn deadline_refreshes_on_queue_change() {
        let mut s = Saath::with_defaults();
        // Round 1: fresh CoFlow in Q0.
        let c = cv(0, 0, vec![fv(0, 0, 2, 0)]);
        let _ = run(&mut s, std::slice::from_ref(&c), 3, Time::from_millis(1));
        let d0 = state_of(&s, 0).deadline;
        assert_eq!(state_of(&s, 0).queue, 0);

        // Round 2 much later, same queue: deadline must NOT refresh
        // (that is what lets starvation detection fire eventually).
        let _ = run(&mut s, std::slice::from_ref(&c), 3, Time::from_secs(100));
        assert_eq!(state_of(&s, 0).deadline, d0);

        // Round 3: the CoFlow has sent past Q0's threshold → demoted to
        // a new queue with a *fresh* (later) deadline.
        let moved = cv(0, 0, vec![fv(0, 0, 2, 20_000_000)]);
        let _ = run(
            &mut s,
            std::slice::from_ref(&moved),
            3,
            Time::from_secs(200),
        );
        assert_eq!(state_of(&s, 0).queue, 1);
        assert!(
            state_of(&s, 0).deadline > d0,
            "deadline must refresh on move"
        );
        assert!(state_of(&s, 0).deadline > Time::from_secs(200));
    }

    /// The skew-aware extension keeps naturally-uneven CoFlows in high
    /// queues longer than the equal split, and is identical for even
    /// ones.
    #[test]
    fn skew_aware_threshold_option() {
        let uneven = cv(
            0,
            0,
            vec![
                fv(0, 0, 4, 4_000_000),
                fv(1, 1, 5, 10_000),
                fv(2, 2, 6, 10_000),
            ],
        );
        let default = Saath::with_defaults();
        let skew = Saath::new(SaathConfig {
            skew_aware_thresholds: true,
            ..Default::default()
        });
        assert!(default.queue_of(&uneven) > skew.queue_of(&uneven));

        let even = cv(1, 0, vec![fv(3, 0, 4, 1_000_000), fv(4, 1, 5, 1_000_000)]);
        assert_eq!(default.queue_of(&even), skew.queue_of(&even));
    }

    /// Random churn for the equivalence tests below: arrivals, byte
    /// growth across queue thresholds, finishes, readiness flips,
    /// restarts, departures, hour-scale time jumps that expire
    /// deadlines — and what a restarted coordinator's forgotten
    /// observations look like: a flow *un*-finishing, alone or paired
    /// with a finish in the same CoFlow (same unfinished count).
    struct Churn {
        rng: rand::rngs::SmallRng,
        num_nodes: usize,
        coflows: Vec<CoflowView>,
        next_cf: u32,
        next_flow: u32,
        now: Time,
    }

    /// A random flow of `c` that is (`finished`) or is not finished.
    fn pick(rng: &mut rand::rngs::SmallRng, c: &CoflowView, finished: bool) -> Option<usize> {
        use rand::Rng;
        let of_kind = || {
            c.flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.finished == finished)
        };
        let n = of_kind().count();
        (n > 0).then(|| of_kind().nth(rng.gen_range(0..n)).expect("counted above").0)
    }

    impl Churn {
        fn new(seed: u64) -> Churn {
            use rand::SeedableRng;
            Churn {
                rng: rand::rngs::SmallRng::seed_from_u64(seed),
                num_nodes: 12,
                coflows: Vec::new(),
                next_cf: 0,
                next_flow: 0,
                now: Time::ZERO,
            }
        }

        fn arrive(&mut self, changed: &mut Vec<CoflowId>) {
            use rand::Rng;
            let width = self.rng.gen_range(1..6usize);
            let flows: Vec<FlowView> = (0..width)
                .map(|_| {
                    let f = fv(
                        self.next_flow,
                        self.rng.gen_range(0..self.num_nodes as u32),
                        self.rng.gen_range(0..self.num_nodes as u32),
                        0,
                    );
                    self.next_flow += 1;
                    f
                })
                .collect();
            self.coflows.push(CoflowView {
                id: CoflowId(self.next_cf),
                arrival: self.now,
                flows,
                restarted: false,
            });
            changed.push(CoflowId(self.next_cf));
            self.next_cf += 1;
        }

        /// One round of mutations; returns the hint (a superset of
        /// what changed, departed ids included, duplicates and all).
        fn step(&mut self) -> Vec<CoflowId> {
            use rand::Rng;
            let mut changed: Vec<CoflowId> = Vec::new();
            while self.coflows.len() < 3 || self.rng.gen_bool(0.3) {
                self.arrive(&mut changed);
            }
            // Every mutation lands in the hint. The draws are
            // independent, so a readiness flip often comes with no
            // finish, and byte growth with neither.
            let rng = &mut self.rng;
            for c in self.coflows.iter_mut() {
                let mut touched = false;
                if rng.gen_bool(0.5) {
                    let fi = rng.gen_range(0..c.flows.len());
                    c.flows[fi].sent =
                        Bytes(c.flows[fi].sent.as_u64() + rng.gen_range(0..4_000_000u64));
                    touched = true;
                }
                if rng.gen_bool(0.25) {
                    let fi = rng.gen_range(0..c.flows.len());
                    c.flows[fi].finished = true;
                    touched = true;
                }
                if rng.gen_bool(0.1) {
                    if let Some(fi) = pick(rng, c, true) {
                        c.flows[fi].finished = false;
                        touched = true;
                    }
                }
                if rng.gen_bool(0.1) {
                    if let (Some(done), Some(open)) = (pick(rng, c, true), pick(rng, c, false)) {
                        c.flows[done].finished = false;
                        c.flows[open].finished = true;
                        touched = true;
                    }
                }
                if rng.gen_bool(0.15) {
                    let fi = rng.gen_range(0..c.flows.len());
                    c.flows[fi].ready = !c.flows[fi].ready;
                    touched = true;
                }
                if rng.gen_bool(0.05) {
                    c.restarted = !c.restarted;
                    touched = true;
                }
                if touched {
                    changed.push(c.id);
                }
            }
            // Departures: drained CoFlows usually leave; occasionally
            // one is yanked mid-transfer (failure/abort path). Half of
            // them are replaced in the same round, so a freed entry is
            // taken again at once.
            let before = self.coflows.len();
            let rng = &mut self.rng;
            self.coflows.retain(|c| {
                let drained = c.flows.iter().all(|f| f.finished);
                let leaves = drained && rng.gen_bool(0.8) || rng.gen_bool(0.05);
                if leaves {
                    changed.push(c.id);
                }
                !leaves
            });
            for _ in self.coflows.len()..before {
                if self.rng.gen_bool(0.5) {
                    self.arrive(&mut changed);
                }
            }
            // Mostly small steps; occasional hour jumps expire D5
            // deadlines for CoFlows *outside* the hint (allowed: the
            // expiry class is re-derived fresh every round).
            self.now = if self.rng.gen_bool(0.1) {
                self.now
                    .saturating_add(saath_simcore::Duration::from_secs(3600))
            } else {
                self.now
                    .saturating_add(saath_simcore::Duration::from_millis(8))
            };
            changed
        }

        fn schedule(&self, sched: &mut Saath, changed: Option<&[CoflowId]>) -> Schedule {
            let view = ClusterView {
                now: self.now,
                num_nodes: self.num_nodes,
                coflows: &self.coflows,
                changed,
            };
            let mut bank = PortBank::uniform(self.num_nodes, GBPS);
            let mut out = Schedule::default();
            sched.compute(&view, &mut bank, &mut out);
            out
        }
    }

    /// Every configuration `tests/engine_equivalence.rs` replays in
    /// `reuse_is_invisible_under_every_saath_config` — Fig 10's
    /// LCoF-off ablations among them — and the skew-aware rule with
    /// LCoF off.
    fn every_config() -> [(&'static str, SaathConfig); 7] {
        let skew_aware = SaathConfig {
            skew_aware_thresholds: true,
            ..Default::default()
        };
        [
            ("default", SaathConfig::default()),
            ("a/n", SaathConfig::ablation_an()),
            ("a/n + p/f", SaathConfig::ablation_an_pf()),
            ("skew-aware", skew_aware.clone()),
            (
                "skew-aware, fifo",
                SaathConfig {
                    lcof: false,
                    ..skew_aware
                },
            ),
            (
                "no work conservation",
                SaathConfig {
                    work_conservation: false,
                    ..Default::default()
                },
            ),
            (
                "no starvation avoidance",
                SaathConfig {
                    starvation_avoidance: false,
                    ..Default::default()
                },
            ),
        ]
    }

    /// The footprint cache, the order book and the contention tracker
    /// under [`Churn`]: a scheduler fed hints (and, every seventh round,
    /// none — after mutations it was never told about one by one)
    /// against a cold one that is fed `changed: None` and so re-derives
    /// every entry every round. Schedules must match, and every cached
    /// entry — endpoint list, port footprint, readiness, `m_c` — must
    /// equal what the view says; asserted here too, so the test also
    /// bites where debug assertions are off. Runs under every
    /// configuration of [`every_config`]: the footprint is kept with
    /// LCoF off as well, where no tracker reads it but admission does.
    #[test]
    fn footprint_cache_matches_cold_scheduler_under_churn() {
        for (i, (name, cfg)) in every_config().into_iter().enumerate() {
            let mut churn = Churn::new(0xf007 + i as u64);
            let mut warm = Saath::new(cfg.clone());
            let mut cold = Saath::new(cfg);
            let mut footprint = Vec::new();
            for round in 0..200 {
                let changed = churn.step();
                let hint = (round % 7 != 6).then_some(changed.as_slice());
                assert_eq!(
                    churn.schedule(&mut warm, hint),
                    churn.schedule(&mut cold, None),
                    "schedules diverged at round {round} ({name})"
                );
                for c in &churn.coflows {
                    let e = &warm.slab[warm.slot_of[&c.id] as usize];
                    assert!(e.live && e.id == c.id);
                    assert_eq!(
                        e.eps,
                        crate::common::endpoints_of(c, churn.num_nodes, false),
                        "round {round}: stale endpoint list for {:?}",
                        c.id
                    );
                    saath_fabric::footprint_into(&e.eps, &mut footprint);
                    assert_eq!(
                        e.footprint.ports(),
                        footprint,
                        "round {round} ({name}): stale footprint for {:?}",
                        c.id
                    );
                    assert_eq!(e.all_ready, c.all_ready());
                    assert_eq!(e.m_c, c.max_flow_sent());
                    let m_live = c.unfinished().map(|f| f.sent).max();
                    assert_eq!(e.m_live, m_live.unwrap_or(Bytes::ZERO));
                }
                // Entries and free slots account for the whole slab.
                assert_eq!(warm.slot_of.len(), churn.coflows.len());
                assert_eq!(warm.slot_of.len() + warm.free.len(), warm.slab.len());
                assert!(warm.free.iter().all(|&slot| {
                    let e = &warm.slab[slot as usize];
                    !e.live && e.footprint.ports().is_empty()
                }));
            }
            assert!(
                warm.slab.len() * 4 < churn.next_cf as usize,
                "arrivals did not take freed slots: {} slots for {} CoFlows",
                warm.slab.len(),
                churn.next_cf
            );
        }
    }

    /// What the last round handed the contention phase: the `(slot,
    /// port)` leaves, then the joins.
    type Moved = (Vec<(u32, u32)>, Vec<(u32, u32)>);

    fn moved(s: &Saath) -> Moved {
        let raw = |moves: &[(u32, PortId)]| moves.iter().map(|&(slot, p)| (slot, p.0)).collect();
        (raw(&s.moves.leaves), raw(&s.moves.joins))
    }

    /// Byte progress and readiness put a CoFlow in the driver's hint
    /// every round it sends; neither moves its endpoint list or its
    /// footprint, and the contention tracker is not told anything. A
    /// finish takes exactly the finished flow's two ports out of the
    /// footprint; an un-finish or a port-space change rebuilds it.
    #[test]
    fn unmoved_endpoint_list_costs_the_tracker_nothing() {
        let mut coflows = vec![
            cv(0, 0, vec![fv(0, 0, 2, 0), fv(1, 1, 3, 0)]),
            cv(1, 1, vec![fv(10, 0, 3, 0)]),
        ];
        let mut s = Saath::with_defaults();
        let _ = run(&mut s, &coflows, 4, Time::ZERO);
        // Arrivals are rebuilds, from an empty footprint: every port
        // joins (downlink d of 4 nodes is port 4 + d).
        let joins = vec![(0, 0), (0, 1), (0, 6), (0, 7), (1, 0), (1, 7)];
        assert_eq!(moved(&s), (vec![], joins));
        // A round hinted with CoFlow 0: what moved, and the
        // `contention_deltas` it cost.
        let round = |s: &mut Saath, coflows: &[CoflowView], num_nodes: usize| {
            let view = ClusterView {
                now: Time::from_millis(8),
                num_nodes,
                coflows,
                changed: Some(&[CoflowId(0)]),
            };
            let before = s.mech.contention_deltas;
            let mut bank = PortBank::uniform(num_nodes, GBPS);
            s.compute(&view, &mut bank, &mut Schedule::default());
            assert_eq!(s.k, crate::common::contention(&view));
            (moved(s), s.mech.contention_deltas - before)
        };

        coflows[0].flows[0].sent = Bytes(5_000_000);
        coflows[0].flows[1].ready = false;
        assert_eq!(round(&mut s, &coflows, 4), ((vec![], vec![]), 0));

        // One finish: uplink 0 and downlink 4 + 2 leave CoFlow 0's
        // footprint, and nothing else is looked at.
        coflows[0].flows[0].finished = true;
        let shrunk = (vec![(0, 0), (0, 6)], vec![]);
        assert_eq!(round(&mut s, &coflows, 4), (shrunk, 2));

        // An un-finish (a restarted coordinator's forgotten
        // observation) is not a subsequence: rebuilt, both ports back.
        coflows[0].flows[0].finished = false;
        let rebuilt = (vec![], vec![(0, 0), (0, 6)]);
        assert_eq!(round(&mut s, &coflows, 4), (rebuilt, 2));

        // A port-space change discards the hint and rebuilds every
        // footprint into a fresh tracker: six joins for the two.
        let joins = vec![(0, 0), (0, 1), (0, 7), (0, 8), (1, 0), (1, 8)];
        assert_eq!(round(&mut s, &coflows, 5), ((vec![], joins), 6));
    }

    /// Restoring into a scheduler that has already run leaves nothing
    /// of its old slots behind: it schedules exactly as a freshly built
    /// scheduler restored from the same blob, even when the first round
    /// after the restore comes with a hint.
    #[test]
    fn restore_into_a_used_scheduler_matches_a_fresh_one() {
        let seven = vec![cv(7, 0, vec![fv(70, 0, 2, 0), fv(71, 1, 3, 0)])];
        let mut saver = Saath::with_defaults();
        let _ = run(&mut saver, &seven, 4, Time::ZERO);
        let mut blob = Vec::new();
        saver.save_state(&mut blob);

        let mut used = Saath::with_defaults();
        let one_and_two = vec![
            cv(1, 0, vec![fv(10, 0, 2, 0)]),
            cv(2, 0, vec![fv(20, 0, 3, 0), fv(21, 1, 2, 0)]),
        ];
        let _ = run(&mut used, &one_and_two, 4, Time::ZERO);
        let mut fresh = Saath::with_defaults();
        assert_eq!(used.restore_state(&blob), Ok(()));
        assert_eq!(fresh.restore_state(&blob), Ok(()));
        for (i, changed) in [Some(&[][..]), None, Some(&[CoflowId(7)][..])]
            .into_iter()
            .enumerate()
        {
            let view = ClusterView {
                now: Time::from_millis(8 * (i as u64 + 1)),
                num_nodes: 4,
                coflows: &seven,
                changed,
            };
            let schedules = [&mut used, &mut fresh].map(|s| {
                let mut bank = PortBank::uniform(4, GBPS);
                let mut out = Schedule::default();
                s.compute(&view, &mut bank, &mut out);
                out
            });
            assert_eq!(schedules[0], schedules[1], "round {i}");
            assert_eq!(schedules[0].rate_of(FlowId(70)), GBPS);
            assert_eq!((&used.k, &used.order), (&fresh.k, &fresh.order));
            assert_eq!(state_of(&used, 7).deadline, state_of(&fresh, 7).deadline);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The slot-indexed tracker against the [`contention_into`]
        /// oracle, through the scheduler that feeds it: random
        /// arrivals, finishes, un-finishes, byte and readiness
        /// progress, departures (whose slots same-round arrivals
        /// take), unhinted rounds and port-space changes; after every
        /// round each CoFlow's `k_c` is what the oracle computes on the
        /// view. Asserted here, not by the debug oracle inside
        /// `compute`, so it holds in release builds too.
        #[test]
        fn tracker_matches_the_oracle_through_the_scheduler(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0u8..6, 0u32..1 << 30, 0u32..1 << 30), 0..6), 0u8..32),
                1..30,
            ),
        ) {
            let mut s = Saath::with_defaults();
            let mut coflows: Vec<CoflowView> = Vec::new();
            let (mut next_cf, mut next_flow) = (0u32, 0u32);
            for (i, (ops, shape)) in rounds.into_iter().enumerate() {
                let mut changed = Vec::new();
                for (op, a, b) in ops {
                    if op == 0 || coflows.is_empty() {
                        // Width 1–5, every node below 8.
                        let flows = (0..1 + a % 5).map(|f| {
                            let nodes = b >> (6 * f);
                            next_flow += 1;
                            fv(next_flow, nodes & 7, (nodes >> 3) & 7, 0)
                        });
                        coflows.push(cv(next_cf, i as u64, flows.collect()));
                        changed.push(CoflowId(next_cf));
                        next_cf += 1;
                        continue;
                    }
                    let ci = a as usize % coflows.len();
                    changed.push(coflows[ci].id);
                    let c = &mut coflows[ci];
                    let fi = b as usize % c.flows.len();
                    match op {
                        1 => c.flows[fi].finished = true,
                        2 => c.flows[fi].finished = false,
                        3 => {
                            coflows.remove(ci);
                        }
                        4 => c.flows[fi].sent += Bytes(u64::from(b)),
                        _ => c.flows[fi].ready = !c.flows[fi].ready,
                    }
                }
                let view = ClusterView {
                    now: Time::from_millis(8 * i as u64),
                    // Port-space changes both ways, one round in four
                    // in the wider space.
                    num_nodes: if shape & 3 == 0 { 12 } else { 8 },
                    coflows: &coflows,
                    // One round in eight unhinted.
                    changed: (shape >> 2 != 0).then_some(changed.as_slice()),
                };
                let mut bank = PortBank::uniform(view.num_nodes, GBPS);
                s.compute(&view, &mut bank, &mut Schedule::default());
                proptest::prop_assert_eq!(&s.k, &crate::common::contention(&view), "round {}", i);
            }
        }
    }

    /// An endpoint list is allocated at the size of the CoFlow's
    /// unfinished flows when it arrives (12 B each); finishes shrink
    /// its length, never move its allocation, and the allocation stays
    /// with the slot for the next CoFlow, growing only for a wider one
    /// and then to exactly its size.
    #[test]
    fn endpoint_lists_are_sized_exactly_and_stay_with_their_slot() {
        assert_eq!(std::mem::size_of::<FlowEndpoints>(), 12);
        let coflow = |id: u32, width: u32| {
            let flows = (0..width).map(|i| fv(10 * id + i, i, 9 - i, 0));
            cv(id, u64::from(id), flows.collect())
        };
        let list = |s: &Saath, id: u32| {
            let e = &s.slab[s.slot_of[&CoflowId(id)] as usize];
            (e.eps.len(), e.eps.capacity(), e.eps.as_ptr())
        };
        let mut s = Saath::with_defaults();
        let mut coflows = vec![coflow(0, 5)];
        coflows[0].flows[4].finished = true;
        let _ = run(&mut s, &coflows, 10, Time::ZERO);
        let (len, cap, ptr) = list(&s, 0);
        assert_eq!((len, cap), (4, 4));
        coflows[0].flows[1].finished = true;
        let _ = run(&mut s, &coflows, 10, Time::from_millis(8));
        assert_eq!(list(&s, 0), (3, 4, ptr));

        // CoFlow 0 leaves as a narrower one arrives: its slot, its
        // allocation, not its list.
        let coflows = vec![coflow(1, 2)];
        let _ = run(&mut s, &coflows, 10, Time::from_millis(16));
        assert_eq!((s.slab.len(), list(&s, 1)), (1, (2, 4, ptr)));
        let e = &s.slab[s.slot_of[&CoflowId(1)] as usize];
        assert_eq!(e.eps, crate::common::endpoints_of(&coflows[0], 10, false));
        let coflows = vec![coflow(2, 7)];
        let _ = run(&mut s, &coflows, 10, Time::from_millis(24));
        let (len, cap, _) = list(&s, 2);
        assert_eq!((s.slab.len(), len, cap), (1, 7, 7));
    }

    /// A state blob that is cut short, has bytes left over, or lists
    /// another build's counters (the parent commit wrote 15, this
    /// build has 14) is refused with an error, never misread, and the
    /// scheduler schedules on.
    #[test]
    fn malformed_state_blobs_are_refused() {
        let coflows = vec![cv(0, 0, vec![fv(0, 0, 1, 0)])];
        let mut s = Saath::with_defaults();
        let _ = run(&mut s, &coflows, 2, Time::ZERO);
        let mut blob = Vec::new();
        s.save_state(&mut blob);
        let mut restored = Saath::with_defaults();
        assert_eq!(restored.restore_state(&blob), Ok(()));
        assert_eq!(restored.mech, s.mech);

        let trailing = [&blob[..], &[0]].concat();
        // Version byte and `starvation_kicks`, then the counter count
        // and the counters: one more of each.
        let count = (MechCounters::LEN as u64 + 1).to_le_bytes();
        let wider = [&blob[..9], &count, &[0; 8], &blob[17..]].concat();
        for (bad, why) in [
            (&blob[..blob.len() - 1], "truncated"),
            (&trailing[..], "1 trailing bytes"),
            (&wider[..], "has 15 mech counters, this build has 14"),
        ] {
            let mut s = Saath::with_defaults();
            let err = s.restore_state(bad).unwrap_err();
            assert!(err.contains(why), "{err}");
            let out = run(&mut s, &coflows, 2, Time::from_millis(8));
            assert_eq!(out.rate_of(FlowId(0)), GBPS);
        }
    }

    // ---- The validity horizon ----

    const DELTA: saath_simcore::Duration = saath_simcore::Duration::from_millis(8);

    /// What a driver does between rounds: credits every flow the bytes
    /// its assigned rate moves in `dt`.
    fn advance(coflows: &mut [CoflowView], schedule: &Schedule, dt: saath_simcore::Duration) {
        for f in coflows.iter_mut().flat_map(|c| &mut c.flows) {
            f.sent += saath_simcore::units::bytes_in(schedule.rate_of(f.id), dt);
        }
    }

    /// `coflows[watched]` sits in queue 0; steps δ by δ from `now` and
    /// returns the queue it is in at the last boundary before
    /// `valid_until` and at the first one at or after it.
    fn queues_around_the_horizon(
        s: &Saath,
        coflows: &mut [CoflowView],
        watched: usize,
        out: &Schedule,
        mut now: Time,
    ) -> (usize, usize) {
        assert_eq!(s.queue_of(&coflows[watched]), 0);
        let mut before = 0;
        loop {
            now = now.saturating_add(DELTA);
            advance(coflows, out, DELTA);
            let q = s.queue_of(&coflows[watched]);
            if now >= out.valid_until {
                return (before, q);
            }
            before = q;
        }
    }

    /// All-or-none gives both flows of a width-2 CoFlow 1 Gbps: its
    /// per-flow share of Q0 is 5 MB and 1 MB crosses the wire per δ.
    /// With `m_c` exactly 1 MB short, the 8 ms boundary lands *on* the
    /// share (still Q0) and the horizon 8 ns after it; one byte more
    /// and the horizon is that boundary, which finds the CoFlow in Q1.
    #[test]
    fn horizon_is_the_gang_rates_share_crossing_to_the_nanosecond() {
        for (m_c, horizon_ns) in [(4_000_000, 8_000_008), (4_000_001, 8_000_000)] {
            let mut coflows = vec![cv(0, 0, vec![fv(0, 0, 2, m_c), fv(1, 1, 3, 1_000_000)])];
            let mut s = Saath::with_defaults();
            let now = Time::from_millis(80);
            let out = run(&mut s, &coflows, 4, now);
            assert_eq!(out.rate_of(FlowId(0)), GBPS);
            assert_eq!(out.valid_until, Time(now.as_nanos() + horizon_ns));
            let around = queues_around_the_horizon(&s, &mut coflows, 0, &out, now);
            assert_eq!(around, (0, 1), "m_c = {m_c}");
        }
    }

    /// A finished flow can hold `m_c` a hair under the share for as
    /// long as the CoFlow lives; only an unfinished flow can carry it
    /// across, and the horizon is measured from the furthest of those.
    #[test]
    fn horizon_is_measured_from_the_unfinished_flows() {
        let mut done = fv(0, 0, 2, 4_999_000);
        done.finished = true;
        let mut coflows = vec![cv(0, 0, vec![done, fv(1, 1, 3, 0)])];
        let mut s = Saath::with_defaults();
        let now = Time::from_millis(80);
        let out = run(&mut s, &coflows, 4, now);
        assert_eq!(out.rate_of(FlowId(1)), GBPS);
        // 5 000 001 B at 1 Gbps, not the 1 001 B `m_c` is short of.
        assert_eq!(out.valid_until, Time(now.as_nanos() + 40_000_008));
        let around = queues_around_the_horizon(&s, &mut coflows, 0, &out, now);
        assert_eq!(around, (0, 1));
    }

    /// Work conservation hands a missed CoFlow unequal rates (here
    /// half a port, a whole one, and nothing); the horizon takes the
    /// largest. The flow holding `m_c` is the one at 1 Gbps, so the
    /// bound is tight on both sides, as above.
    #[test]
    fn horizon_under_unequal_backfill_rates_uses_the_largest() {
        for (m_c, horizon_ns) in [(2_333_333, 8_000_008), (2_333_334, 8_000_000)] {
            let mut coflows = vec![
                // Admitted: takes all of sender 0, half of receivers 2, 3.
                cv(1, 0, vec![fv(10, 0, 2, 0), fv(11, 0, 3, 0)]),
                // Width 3, Q0 share 3 333 333 B; sender 0 is taken, so
                // it misses admission and is backfilled flow by flow.
                cv(
                    2,
                    1,
                    vec![fv(20, 1, 2, 0), fv(21, 4, 5, m_c), fv(22, 0, 6, 0)],
                ),
            ];
            let mut s = Saath::with_defaults();
            let now = Time::from_millis(8);
            let out = run(&mut s, &coflows, 7, now);
            let rates = [20, 21, 22].map(|f| out.rate_of(FlowId(f)));
            assert_eq!(rates, [GBPS.div_even(2), GBPS, Rate::ZERO]);
            assert_eq!(out.valid_until, Time(now.as_nanos() + horizon_ns));
            let around = queues_around_the_horizon(&s, &mut coflows, 1, &out, now);
            assert_eq!(around, (0, 1), "m_c = {m_c}");
        }
    }

    /// With every threshold crossing further off, the horizon is the
    /// earliest deadline — here that of a CoFlow that holds no rate at
    /// all. In the last queue there is no threshold to cross.
    #[test]
    fn earliest_unexpired_deadline_bounds_the_horizon() {
        let mut waiting = cv(0, 0, vec![fv(0, 0, 2, 0)]);
        waiting.flows[0].ready = false;
        // Q1 (share 100 MB): 80 MB to go at 1 Gbps is 640 ms.
        let coflows = vec![waiting, cv(1, 0, vec![fv(10, 1, 3, 20_000_000)])];
        let mut s = Saath::with_defaults();
        let now = Time::from_millis(8);
        let out = run(&mut s, &coflows, 4, now);
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        // d · C_q · t_q = 2 · 1 · 80 ms for the lone Q0 CoFlow.
        let deadline = state_of(&s, 0).deadline;
        assert_eq!(deadline, Time::from_millis(8 + 160));
        assert!(state_of(&s, 1).deadline > deadline);
        assert_eq!(out.valid_until, deadline);

        let last_queue = vec![cv(0, 0, vec![fv(0, 0, 1, u64::MAX / 2)])];
        for starvation_avoidance in [true, false] {
            let mut s = Saath::new(SaathConfig {
                starvation_avoidance,
                ..Default::default()
            });
            let out = run(&mut s, &last_queue, 2, now);
            assert_eq!(state_of(&s, 0).queue, 9);
            let want = if starvation_avoidance {
                state_of(&s, 0).deadline
            } else {
                Time::NEVER
            };
            assert_eq!(out.valid_until, want);
        }
    }

    /// Whatever reads more than `m_c` and the clock promises nothing.
    #[test]
    fn rules_that_read_more_than_m_c_leave_the_horizon_at_zero() {
        let coflows = vec![cv(0, 0, vec![fv(0, 0, 2, 1_000), fv(1, 1, 3, 0)])];
        let horizon = |s: &mut Saath, coflows: &[CoflowView], now: Time| {
            let out = run(s, coflows, 4, now);
            assert_eq!(out.rate_of(FlowId(0)), GBPS);
            out.valid_until
        };
        let now = Time::from_millis(8);
        assert!(horizon(&mut Saath::with_defaults(), &coflows, now) > now);

        // The skew-aware and total-bytes rules read every flow's bytes.
        let skew = SaathConfig {
            skew_aware_thresholds: true,
            ..Default::default()
        };
        for cfg in [skew, SaathConfig::ablation_an()] {
            assert_eq!(horizon(&mut Saath::new(cfg), &coflows, now), Time::ZERO);
        }

        // So does the §4.3 re-queue of a restarted CoFlow — unless it
        // is switched off, when `restarted` is not read at all.
        let mut restarted = coflows.clone();
        restarted[0].restarted = true;
        let mut s = Saath::with_defaults();
        assert_eq!(horizon(&mut s, &restarted, now), Time::ZERO);
        let mut s = Saath::new(SaathConfig {
            dynamics_srtf: false,
            ..Default::default()
        });
        assert!(horizon(&mut s, &restarted, now) > now);

        // A CoFlow past its deadline: every such round is computed, so
        // `starvation_kicks` counts them all.
        let mut s = Saath::with_defaults();
        let _ = horizon(&mut s, &coflows, now);
        let later = Time::from_secs(3600);
        assert_eq!(horizon(&mut s, &coflows, later), Time::ZERO);
        assert_eq!(horizon(&mut s, &coflows, later + DELTA), Time::ZERO);
        assert_eq!(s.starvation_kicks, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The promise itself, on random cluster states: after any
        /// advance short of the horizon, in any subdivision, at the
        /// rates just assigned, every CoFlow is in the queue it was
        /// in, none has expired, and `compute` returns the same rates.
        #[test]
        fn nothing_moves_before_the_horizon(
            shapes in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u32..8, 0u32..8, 0u64..30_000_000, 0u8..8),
                        1..5,
                    ),
                    0u64..100,
                ),
                1..8,
            ),
            gap_ms in 0u64..400,
            fraction in 0.0f64..1.0,
            cuts in proptest::collection::vec(1u64..1_000, 1..5),
        ) {
            use proptest::prop_assert_eq;
            let mut next_flow = 0u32;
            let mut coflows: Vec<CoflowView> = shapes
                .into_iter()
                .enumerate()
                .map(|(ci, (flows, arrival_ms))| {
                    let flows = flows.into_iter().map(|(src, dst, sent, state)| {
                        let mut f = fv(next_flow, src, dst, sent);
                        next_flow += 1;
                        // One in eight finished, one in eight not ready.
                        f.finished = state == 0;
                        f.ready = state != 1;
                        f
                    });
                    cv(ci as u32, arrival_ms, flows.collect())
                })
                .collect();
            // Deadlines are stamped at 100 ms; the round under test
            // comes up to 400 ms later, so some cases open with a
            // CoFlow already expired (horizon zero, nothing to check).
            let mut s = Saath::with_defaults();
            let _ = run(&mut s, &coflows, 8, Time::from_millis(100));
            let now = Time::from_millis(100 + gap_ms);
            let out = run(&mut s, &coflows, 8, now);
            if out.valid_until > now {
                let queues: Vec<usize> = coflows.iter().map(|c| s.queue_of(c)).collect();
                // Up to 2 s where the horizon is further (or never).
                let room = out.valid_until.min(now + saath_simcore::Duration::from_secs(2));
                let total = ((room.since(now).as_nanos() - 1) as f64 * fraction) as u64;
                let weight: u64 = cuts.iter().sum();
                let mut then = now;
                for cut in &cuts {
                    let dt = saath_simcore::Duration::from_nanos(total / weight * cut);
                    advance(&mut coflows, &out, dt);
                    then += dt;
                }
                assert!(then < out.valid_until);
                for (c, &q) in coflows.iter().zip(&queues) {
                    prop_assert_eq!(s.queue_of(c), q, "{:?} changed queue", c.id);
                    let deadline = state_of(&s, c.id.0).deadline;
                    assert!(deadline > then, "{:?} expired before the horizon", c.id);
                }
                let again = run(&mut s, &coflows, 8, then);
                prop_assert_eq!(&again.rates, &out.rates);
            }
        }
    }

    /// Timings accumulate one sample set per round.
    #[test]
    fn timings_accumulate() {
        let coflows = vec![cv(0, 0, vec![fv(0, 0, 1, 0)])];
        let mut s = Saath::with_defaults();
        for i in 0..3 {
            let _ = run(&mut s, &coflows, 2, Time::from_millis(i * 8));
        }
        assert_eq!(s.timings.rounds(), 3);
        let active = &s.timings.active_coflows;
        assert_eq!((active.count, active.min, active.max), (3, 1, 1));
        for phase in [Phase::SchedOrder, Phase::SchedMadd, Phase::SchedWc] {
            assert_eq!(s.timings.spans.hist(phase).count, 3);
        }
    }
}
