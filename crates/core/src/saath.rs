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

use crate::common::{contention_into, endpoints_into, ContentionTracker, RoundArena};
use crate::config::QueueConfig;
use crate::order::OrderBook;
use crate::timing::SchedTimings;
use crate::view::{ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath_fabric::{gang_allocate, gang_rate_with, greedy_fill_into, FlowEndpoints, PortBank};
use saath_simcore::{Bytes, CoflowId, FastHashMap, FastHashSet, Rate, Time};
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
    /// Maintain `k_c` incrementally across rounds via the
    /// [`ClusterView::changed`] hint instead of rebuilding the full
    /// port-incidence map every round (§5.4 scalability). Identical
    /// results either way — [`contention_into`] stays the oracle and
    /// debug builds assert equality every round. Off reproduces the
    /// original full-rebuild cost for benchmarking.
    pub incremental_contention: bool,
    /// Maintain the LCoF order incrementally across rounds in an
    /// [`OrderBook`] instead of re-sorting every CoFlow every round
    /// (§5.4 scalability): CoFlows are bucketed by `(queue, expired)`
    /// class and repositioned only when an ordering-key component
    /// changes, with unchanged CoFlows (per the [`ClusterView::changed`]
    /// hint) also reusing their cached queue assignment. Identical
    /// results either way — the full re-sort stays the oracle and debug
    /// builds assert equality every round. Off reproduces the original
    /// full re-sort cost for benchmarking.
    pub incremental_order: bool,
    /// Number of shards for the parallel gang-probe phase; `0` = one
    /// per available core. Only read in `parallel`-feature builds; the
    /// schedule is byte-identical for every shard count (speculative
    /// probes are re-validated in a deterministic serial merge).
    pub probe_shards: usize,
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
            incremental_contention: true,
            incremental_order: true,
            probe_shards: 0,
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

/// The Saath global scheduler. See the module docs.
pub struct Saath {
    cfg: SaathConfig,
    state: FastHashMap<CoflowId, CoflowState>,
    /// Per-round overhead samples (Table 2).
    pub timings: SchedTimings,
    /// Shared scratch (contention incidence map, gang-rate counters),
    /// kept across rounds so the hot path never allocates.
    arena: RoundArena,
    /// Incremental `k_c` state, fed by the `ClusterView::changed` hint.
    tracker: ContentionTracker,
    /// Incrementally maintained LCoF order (see [`OrderBook`]); only
    /// populated when `cfg.incremental_order`.
    book: OrderBook,
    /// Remote-shard contention addends (partitioned sharding): added to
    /// the locally-tracked `k_c` before LCoF ordering, so a shard that
    /// only sees its owned CoFlows still orders them against the rest of
    /// the cluster's (summarised, possibly stale) footprint. Empty in
    /// non-partitioned runs.
    remote_k: FastHashMap<CoflowId, u32>,
    /// Scratch: the round's `changed` hint as a set, for queue caching.
    changed_set: FastHashSet<CoflowId>,
    /// Scratch: ids garbage-collected from `state` this round, relayed
    /// to the order book.
    gone: Vec<CoflowId>,
    /// Per-round buffers, recycled across rounds (see `compute`).
    queues: Vec<usize>,
    occupancy: Vec<usize>,
    k: Vec<u32>,
    order: Vec<usize>,
    expired: Vec<bool>,
    missed: Vec<usize>,
    eps: Vec<FlowEndpoints>,
    wc_rates: Vec<Rate>,
    live: FastHashSet<CoflowId>,
    /// Speculative probe results, indexed by order position (parallel
    /// builds only): endpoints, readiness, and the gang rate computed
    /// against the pre-admission bank snapshot.
    #[cfg(feature = "parallel")]
    spec_eps: Vec<Vec<FlowEndpoints>>,
    #[cfg(feature = "parallel")]
    spec_ready: Vec<bool>,
    #[cfg(feature = "parallel")]
    spec_rate: Vec<Rate>,
    /// Ports drawn down by an admission since the probe snapshot.
    #[cfg(feature = "parallel")]
    drawn: Vec<bool>,
    /// Rounds in which a deadline-expired CoFlow was force-prioritized
    /// (§7.1 reports starvation avoidance kicking in <1 % of the time).
    pub starvation_kicks: u64,
    /// Mechanism counters (D1–D5 events). Only maintained in
    /// `telemetry`-feature builds; all-zero otherwise.
    pub mech: MechCounters,
}

impl Saath {
    /// A scheduler with the given configuration.
    pub fn new(cfg: SaathConfig) -> Saath {
        Saath {
            cfg,
            state: FastHashMap::default(),
            timings: SchedTimings::default(),
            arena: RoundArena::new(),
            tracker: ContentionTracker::new(),
            book: OrderBook::new(),
            remote_k: FastHashMap::default(),
            changed_set: FastHashSet::default(),
            gone: Vec::new(),
            queues: Vec::new(),
            occupancy: Vec::new(),
            k: Vec::new(),
            order: Vec::new(),
            expired: Vec::new(),
            missed: Vec::new(),
            eps: Vec::new(),
            wc_rates: Vec::new(),
            live: FastHashSet::default(),
            #[cfg(feature = "parallel")]
            spec_eps: Vec::new(),
            #[cfg(feature = "parallel")]
            spec_ready: Vec::new(),
            #[cfg(feature = "parallel")]
            spec_rate: Vec::new(),
            #[cfg(feature = "parallel")]
            drawn: Vec::new(),
            starvation_kicks: 0,
            mech: MechCounters::default(),
        }
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
        queue_for(&self.cfg, c)
    }

    /// Installs remote-shard contention addends (partitioned sharding).
    /// Each entry's value is added to the CoFlow's locally-computed
    /// `k_c` before LCoF ordering; the previous addends are replaced
    /// wholesale. Pass an empty slice to return to purely local
    /// contention. No effect when `lcof` is off (the ablations order by
    /// FIFO and must stay contention-blind).
    pub fn set_remote_contention(&mut self, entries: &[(CoflowId, u32)]) {
        self.remote_k.clear();
        for &(id, add) in entries {
            if add > 0 {
                self.remote_k.insert(id, add);
            }
        }
    }

    /// Exports this scheduler's contention state as a
    /// [`crate::summary::ContentionSummary`] for partitioned sharding:
    /// per-port occupancy and per-queue aggregates from the incremental
    /// tracker, queue assignments from the per-CoFlow state map.
    /// `port_rates` is left for the caller (it depends on the emitted
    /// slice, which the scheduler does not retain). Meaningful only
    /// when `incremental_contention` and `lcof` are on — otherwise the
    /// tracker is idle and the export is empty.
    pub fn export_summary(
        &self,
        shard: u32,
        round: u64,
        out: &mut crate::summary::ContentionSummary,
    ) {
        out.clear();
        out.shard = shard;
        out.round = round;
        let state = &self.state;
        self.tracker.export_summary(
            |id| state.get(&id).map(|s| s.queue).unwrap_or(0),
            self.cfg.queues.num_queues,
            out,
        );
    }

    /// Speculatively probes every CoFlow's gang rate against the
    /// pre-admission bank snapshot, sharded across a scoped thread
    /// pool. Returns `false` (probe skipped) when gang admission is off
    /// or the round is too small to be worth the fan-out.
    ///
    /// Each shard gets a contiguous slice of the admission order and
    /// its own gang scratch, and writes results by order position —
    /// so the output is independent of thread interleaving.
    #[cfg(feature = "parallel")]
    fn parallel_probe(&mut self, view: &ClusterView<'_>, bank: &PortBank) -> bool {
        let n = self.order.len();
        if !self.cfg.all_or_none || n < 2 {
            return false;
        }
        let shards = if self.cfg.probe_shards == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.cfg.probe_shards
        }
        .clamp(1, n);
        let t_probe = Instant::now();
        if self.spec_eps.len() < n {
            self.spec_eps.resize_with(n, Vec::new);
        }
        self.spec_ready.clear();
        self.spec_ready.resize(n, false);
        self.spec_rate.clear();
        self.spec_rate.resize(n, Rate::ZERO);
        let chunk = n.div_ceil(shards);
        let order = &self.order;
        std::thread::scope(|s| {
            let mut eps_rest: &mut [Vec<FlowEndpoints>] = &mut self.spec_eps[..n];
            let mut ready_rest: &mut [bool] = &mut self.spec_ready;
            let mut rate_rest: &mut [Rate] = &mut self.spec_rate;
            let mut start = 0;
            while start < n {
                let len = chunk.min(n - start);
                let (eps_chunk, rest) = eps_rest.split_at_mut(len);
                eps_rest = rest;
                let (ready_chunk, rest) = ready_rest.split_at_mut(len);
                ready_rest = rest;
                let (rate_chunk, rest) = rate_rest.split_at_mut(len);
                rate_rest = rest;
                let order_chunk = &order[start..start + len];
                s.spawn(move || {
                    let mut scratch: Vec<u32> = Vec::new();
                    let mut touched: Vec<saath_simcore::PortId> = Vec::new();
                    for (j, &ci) in order_chunk.iter().enumerate() {
                        let c = &view.coflows[ci];
                        endpoints_into(c, view.num_nodes, false, &mut eps_chunk[j]);
                        ready_chunk[j] = c.all_ready();
                        rate_chunk[j] = if eps_chunk[j].is_empty() || !ready_chunk[j] {
                            Rate::ZERO
                        } else {
                            gang_rate_with(bank, &eps_chunk[j], &mut scratch, &mut touched)
                        };
                    }
                });
                start += len;
            }
        });
        self.timings.record(Phase::SchedProbe, t_probe.elapsed());
        true
    }

    /// The sequential admission scan — the executable specification the
    /// parallel probe + merge must match byte for byte.
    fn admit_serial(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        for oi in 0..self.order.len() {
            let ci = self.order[oi];
            let c = &view.coflows[ci];
            endpoints_into(c, view.num_nodes, false, &mut self.eps);
            if self.eps.is_empty() {
                continue; // fully finished; driver will drop it
            }
            if !self.cfg.all_or_none || !c.all_ready() {
                if saath_telemetry::enabled() && self.cfg.all_or_none {
                    self.mech.unready_skips += 1;
                }
                self.missed.push(ci);
                continue;
            }
            let r = gang_rate_with(
                bank,
                &self.eps,
                &mut self.arena.gang_scratch,
                &mut self.arena.gang_touched,
            );
            if saath_telemetry::enabled() {
                self.mech.madd_evals += 1;
            }
            if r.is_zero() {
                if saath_telemetry::enabled() {
                    self.mech.gang_rejections += 1;
                }
                self.missed.push(ci);
            } else {
                if saath_telemetry::enabled() {
                    self.mech.gang_admissions += 1;
                }
                gang_allocate(bank, &self.eps, r);
                for e in &self.eps {
                    out.set(e.flow, r);
                }
            }
        }
    }

    /// Serial, in-order merge of the speculative probes. A speculative
    /// rate is exact unless an earlier admission drew down one of the
    /// CoFlow's ports since the snapshot; those are recomputed against
    /// the live bank — yielding exactly what the serial path computes,
    /// byte for byte.
    #[cfg(feature = "parallel")]
    fn merge_probes(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let t_merge = Instant::now();
        self.drawn.clear();
        self.drawn.resize(2 * view.num_nodes, false);
        for oi in 0..self.order.len() {
            let ci = self.order[oi];
            let eps = &self.spec_eps[oi];
            if eps.is_empty() {
                continue; // fully finished; driver will drop it
            }
            if !self.spec_ready[oi] {
                if saath_telemetry::enabled() {
                    self.mech.unready_skips += 1;
                }
                self.missed.push(ci);
                continue;
            }
            let stale = eps
                .iter()
                .any(|e| self.drawn[e.src.index()] || self.drawn[e.dst.index()]);
            let r = if stale {
                if saath_telemetry::enabled() {
                    self.mech.probe_revalidations += 1;
                }
                gang_rate_with(
                    bank,
                    eps,
                    &mut self.arena.gang_scratch,
                    &mut self.arena.gang_touched,
                )
            } else {
                self.spec_rate[oi]
            };
            if saath_telemetry::enabled() {
                self.mech.madd_evals += 1;
            }
            if r.is_zero() {
                if saath_telemetry::enabled() {
                    self.mech.gang_rejections += 1;
                }
                self.missed.push(ci);
            } else {
                if saath_telemetry::enabled() {
                    self.mech.gang_admissions += 1;
                }
                gang_allocate(bank, eps, r);
                for e in eps {
                    out.set(e.flow, r);
                    self.drawn[e.src.index()] = true;
                    self.drawn[e.dst.index()] = true;
                }
            }
        }
        self.timings.record(Phase::SchedMerge, t_merge.elapsed());
    }
}

/// D3 + §4.3 queue assignment as a free function, so `compute` can call
/// it while holding mutable borrows of the scheduler's round buffers.
fn queue_for(cfg: &SaathConfig, c: &CoflowView) -> usize {
    if cfg.dynamics_srtf && c.restarted {
        if let Some(m) = dynamics_remaining_estimate(c) {
            return cfg.queues.queue_for_per_flow(m, c.width());
        }
    }
    if cfg.per_flow_threshold {
        if cfg.skew_aware_thresholds {
            let sents: Vec<saath_simcore::Bytes> = c.flows.iter().map(|f| f.sent).collect();
            cfg.queues.queue_for_skew_aware(&sents)
        } else {
            cfg.queues.queue_for_per_flow(c.max_flow_sent(), c.width())
        }
    } else {
        cfg.queues.queue_for_total(c.total_sent())
    }
}

/// §4.3: once some flows of a restarted/straggling CoFlow have finished,
/// estimate each unfinished flow's remaining length as `f_e − f_i`
/// (`f_e` = median finished flow length, `f_i` = bytes sent so far) and
/// return `m_c = max_i f_i^rem`. `None` when no flow has finished yet
/// (no basis for an estimate).
fn dynamics_remaining_estimate(c: &CoflowView) -> Option<Bytes> {
    let mut finished: Vec<u64> = c
        .flows
        .iter()
        .filter(|f| f.finished)
        .map(|f| f.sent.as_u64())
        .collect();
    if finished.is_empty() {
        return None;
    }
    finished.sort_unstable();
    let f_e = finished[finished.len() / 2];
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
        let t_total = Instant::now();
        let n = view.coflows.len();

        // ---- Ordering phase (queue assignment, deadlines, LCoF sort) ----
        let t_order = Instant::now();

        // Drop state for departed CoFlows — unconditionally, against the
        // live-id set. (Guarding on `state.len() > n` leaks stale
        // entries whenever departures are matched by same-round
        // arrivals, since the map never shrinks below the view size.)
        // Departures are relayed to the order book, which mirrors the
        // state map's membership exactly.
        self.live.clear();
        self.live.extend(view.coflows.iter().map(|c| c.id));
        let live = &self.live;
        let gone = &mut self.gone;
        gone.clear();
        self.state.retain(|id, _| {
            let keep = live.contains(id);
            if !keep {
                gone.push(*id);
            }
            keep
        });
        for gi in 0..self.gone.len() {
            self.book.remove(self.gone[gi]);
        }

        // New queue assignment for everyone. With the incremental order
        // on and a usable `changed` hint, CoFlows the hint excludes have
        // byte-identical view contents ([`ClusterView::changed`]'s
        // contract), so their cached queue is reused instead of
        // re-deriving it from every flow — debug-asserted against the
        // full computation.
        self.queues.clear();
        let cache_queues = self.cfg.incremental_order && view.changed.is_some();
        if cache_queues {
            self.changed_set.clear();
            self.changed_set
                .extend(view.changed.unwrap_or(&[]).iter().copied());
            for c in view.coflows.iter() {
                let q = match self.state.get(&c.id) {
                    Some(s) if !self.changed_set.contains(&c.id) => {
                        debug_assert_eq!(
                            s.queue,
                            queue_for(&self.cfg, c),
                            "cached queue diverged for a CoFlow outside the changed hint"
                        );
                        s.queue
                    }
                    _ => queue_for(&self.cfg, c),
                };
                self.queues.push(q);
            }
        } else {
            self.queues
                .extend(view.coflows.iter().map(|c| queue_for(&self.cfg, c)));
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
        for (c, &q) in view.coflows.iter().zip(&self.queues) {
            let needs_fresh = match self.state.get(&c.id) {
                Some(s) => s.queue != q,
                None => true,
            };
            if needs_fresh {
                if saath_telemetry::enabled() && self.state.contains_key(&c.id) {
                    // An existing CoFlow crossed a threshold (D3) — new
                    // arrivals are assignments, not transitions.
                    self.mech.queue_transitions += 1;
                }
                let t_q = self.cfg.queues.min_residence(q, nominal_rate);
                let horizon = t_q
                    .saturating_mul(self.cfg.deadline_factor)
                    .saturating_mul(self.occupancy[q].max(1) as u64);
                self.state.insert(
                    c.id,
                    CoflowState {
                        queue: q,
                        deadline: view.now.saturating_add(horizon),
                        expiry_counted: false,
                    },
                );
            }
        }

        // Contention (only when LCoF orders by it).
        let t_contention = Instant::now();
        if self.cfg.lcof {
            if self.cfg.incremental_contention {
                let work = self.tracker.compute_into(view, &mut self.k);
                if saath_telemetry::enabled() {
                    self.mech.contention_deltas += work.delta_updates;
                    if work.full_rebuild {
                        self.mech.contention_rebuilds += 1;
                    } else {
                        self.mech.contention_rebuilds_avoided += 1;
                    }
                }
                // The full rebuild stays the executable specification:
                // every debug round proves the delta-updated k equals it.
                #[cfg(debug_assertions)]
                {
                    let mut oracle = Vec::new();
                    contention_into(view, &mut self.arena, &mut oracle);
                    assert_eq!(
                        self.k, oracle,
                        "incremental contention diverged from the contention_into oracle"
                    );
                }
            } else {
                contention_into(view, &mut self.arena, &mut self.k);
            }
        } else {
            self.k.clear();
            self.k.resize(n, 0);
        }
        // Partitioned sharding: fold in the remote-shard contention
        // addends *after* the local oracle check — the oracle only
        // covers CoFlows in this (possibly partial) view.
        if self.cfg.lcof && !self.remote_k.is_empty() {
            for (i, c) in view.coflows.iter().enumerate() {
                if let Some(&add) = self.remote_k.get(&c.id) {
                    self.k[i] = self.k[i].saturating_add(add);
                }
            }
        }
        self.timings
            .record(Phase::SchedContention, t_contention.elapsed());

        // Global scan order: queue asc (strict priority), expired
        // deadlines first within the queue, then LCoF (or FIFO), then
        // arrival, then id for full determinism.
        self.expired.clear();
        self.expired.extend(view.coflows.iter().map(|c| {
            self.cfg.starvation_avoidance
                && self
                    .state
                    .get(&c.id)
                    .map(|s| s.deadline <= view.now)
                    .unwrap_or(false)
        }));
        if saath_telemetry::enabled() {
            // Each expired deadline is one D5 event, counted once per
            // deadline (a CoFlow stays expired until its queue changes).
            for (c, &e) in view.coflows.iter().zip(&self.expired) {
                if e {
                    if let Some(s) = self.state.get_mut(&c.id) {
                        if !s.expiry_counted {
                            s.expiry_counted = true;
                            self.mech.deadline_expiries += 1;
                        }
                    }
                }
            }
        }
        let (queues, expired, k) = (&self.queues, &self.expired, &self.k);
        let lcof = self.cfg.lcof;
        let sort_key = |i: usize| {
            (
                queues[i],
                !expired[i],
                if lcof { k[i] } else { 0 },
                view.coflows[i].arrival,
                view.coflows[i].id,
            )
        };
        if self.cfg.incremental_order {
            // Reposition only the CoFlows whose key components moved;
            // steady-state rounds refresh slots without touching a tree
            // node, and the emit walk replaces the O(n log n) re-sort.
            let mut rekeys = 0u64;
            for (i, c) in view.coflows.iter().enumerate() {
                let class = (queues[i], !expired[i]);
                let sub = (if lcof { k[i] } else { 0 }, c.arrival);
                if self.book.upsert(c.id, class, sub, i as u32) {
                    rekeys += 1;
                }
            }
            self.book.emit_into(&mut self.order);
            if saath_telemetry::enabled() {
                self.mech.order_rekeys += rekeys;
                self.mech.order_resorts_avoided += 1;
                // A rekey is one tree removal + insertion, ~log2(n)
                // comparisons each: a deterministic estimate so the D1
                // comparison counter stays meaningful on this path.
                let lg = (usize::BITS - n.leading_zeros()) as u64;
                self.mech.lcof_comparisons += rekeys * 2 * lg;
            }
            // The full re-sort stays the executable specification:
            // every debug round proves the book emits exactly it.
            #[cfg(debug_assertions)]
            {
                let mut oracle: Vec<usize> = (0..n).collect();
                oracle.sort_by_key(|&i| sort_key(i));
                assert_eq!(
                    self.order, oracle,
                    "incremental order diverged from the full re-sort oracle"
                );
            }
        } else {
            self.order.clear();
            self.order.extend(0..n);
            if saath_telemetry::enabled() {
                // Same stable sort, same keys — but through a comparator
                // so the D1 comparison work is measurable.
                let mut cmps = 0u64;
                self.order.sort_by(|&a, &b| {
                    cmps += 1;
                    sort_key(a).cmp(&sort_key(b))
                });
                self.mech.lcof_comparisons += cmps;
            } else {
                self.order.sort_by_key(|&i| sort_key(i));
            }
        }
        if self.expired.iter().any(|&e| e) {
            self.starvation_kicks += 1;
            if saath_telemetry::enabled() {
                self.mech.starvation_rescues += 1;
            }
        }
        self.timings.record(Phase::SchedOrder, t_order.elapsed());

        // ---- All-or-none admission (D1 step 4, D2) ----
        let t_an = Instant::now();
        self.missed.clear();
        // Parallel builds probe every CoFlow's gang rate concurrently
        // against the untouched bank, then merge serially in order;
        // serial builds (and tiny rounds) take the loop below.
        #[cfg(feature = "parallel")]
        let speculated = self.parallel_probe(view, bank);
        #[cfg(not(feature = "parallel"))]
        let speculated = false;
        if speculated {
            #[cfg(feature = "parallel")]
            self.merge_probes(view, bank, out);
        } else {
            self.admit_serial(view, bank, out);
        }
        self.timings.record(Phase::SchedMadd, t_an.elapsed());

        // ---- Work conservation (D4) ----
        let t_wc = Instant::now();
        if self.cfg.work_conservation || !self.cfg.all_or_none {
            for mi in 0..self.missed.len() {
                let ci = self.missed[mi];
                let c = &view.coflows[ci];
                endpoints_into(c, view.num_nodes, true, &mut self.eps);
                if self.eps.is_empty() {
                    continue;
                }
                greedy_fill_into(bank, &self.eps, &mut self.wc_rates);
                for (e, &r) in self.eps.iter().zip(&self.wc_rates) {
                    if !r.is_zero() {
                        if saath_telemetry::enabled() {
                            self.mech.wc_backfills += 1;
                        }
                        out.set(e.flow, r);
                    }
                }
            }
        }
        self.timings.record(Phase::SchedWc, t_wc.elapsed());
        self.timings.record(Phase::SchedTotal, t_total.elapsed());
        self.timings.active_coflows.observe(n as u64);
    }

    fn mech_counters(&self) -> Option<&MechCounters> {
        Some(&self.mech)
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        Some(&self.occupancy)
    }

    /// Saath's only *historical* state is the per-CoFlow queue/deadline
    /// map: a deadline depends on when the CoFlow entered its current
    /// queue and the occupancy at that instant, which a resumed run
    /// never observed. Everything else (contention tracker, order book,
    /// arenas) is a pure function of the view and rebuilds on the
    /// `changed: None` round that follows a resume. `starvation_kicks`
    /// and the mech counters are appended so telemetry totals stay
    /// continuous across a resume; they never feed scheduling decisions.
    fn save_state(&self, out: &mut Vec<u8>) {
        out.push(1u8); // format version
        out.extend_from_slice(&self.starvation_kicks.to_le_bytes());
        let rows = self.mech.rows();
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for (_, v) in rows {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // FastHashMap iteration order is arbitrary: sort by id so the
        // blob (and thus the snapshot digest) is deterministic.
        let mut entries: Vec<(CoflowId, CoflowState)> =
            self.state.iter().map(|(id, st)| (*id, *st)).collect();
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
        if n_mech != self.mech.rows().len() as u64 {
            return Err(format!(
                "saath state has {n_mech} mech counters, this build has {}",
                self.mech.rows().len()
            ));
        }
        let mut mech_vals = [0u64; 15];
        for v in mech_vals.iter_mut() {
            *v = u64_of(get(8)?);
        }
        let m = &mut self.mech;
        [
            &mut m.queue_transitions,
            &mut m.deadline_expiries,
            &mut m.starvation_rescues,
            &mut m.gang_admissions,
            &mut m.gang_rejections,
            &mut m.unready_skips,
            &mut m.wc_backfills,
            &mut m.lcof_comparisons,
            &mut m.madd_evals,
            &mut m.contention_deltas,
            &mut m.contention_rebuilds,
            &mut m.contention_rebuilds_avoided,
            &mut m.probe_revalidations,
            &mut m.order_rekeys,
            &mut m.order_resorts_avoided,
        ]
        .into_iter()
        .zip(mech_vals)
        .for_each(|(slot, v)| *slot = v);
        let n_state = u64_of(get(8)?) as usize;
        self.state.clear();
        self.state.reserve(n_state);
        for _ in 0..n_state {
            let id = CoflowId(u32::from_le_bytes(get(4)?.as_slice().try_into().unwrap()));
            let queue = u64_of(get(8)?) as usize;
            let deadline = Time(u64_of(get(8)?));
            let expiry_counted = get(1)?[0] != 0;
            self.state.insert(
                id,
                CoflowState {
                    queue,
                    deadline,
                    expiry_counted,
                },
            );
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
        assert_eq!(dynamics_remaining_estimate(&c2), None);
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
        assert_eq!(s.state.len(), 5);
        let _ = run(&mut s, &coflows[..1], 4, Time::from_millis(8));
        assert_eq!(s.state.len(), 1);
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
        assert_eq!(s.state.len(), 3);
        // Round 2: all three departed, three new arrived — same count.
        let second: Vec<CoflowView> = (3..6)
            .map(|i| cv(i, 8, vec![fv(i * 10, 0, 2, 0)]))
            .collect();
        let _ = run(&mut s, &second, 4, Time::from_millis(8));
        assert_eq!(s.state.len(), 3, "stale entries leaked past GC");
        for i in 3..6 {
            assert!(
                s.state.contains_key(&CoflowId(i)),
                "live CoFlow {i} missing"
            );
        }
        for i in 0..3 {
            assert!(
                !s.state.contains_key(&CoflowId(i)),
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
            clean.state[&CoflowId(0)].deadline,
            degraded.state[&CoflowId(0)].deadline,
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
        let d0 = s.state[&CoflowId(0)].deadline;
        assert_eq!(s.state[&CoflowId(0)].queue, 0);

        // Round 2 much later, same queue: deadline must NOT refresh
        // (that is what lets starvation detection fire eventually).
        let _ = run(&mut s, std::slice::from_ref(&c), 3, Time::from_secs(100));
        assert_eq!(s.state[&CoflowId(0)].deadline, d0);

        // Round 3: the CoFlow has sent past Q0's threshold → demoted to
        // a new queue with a *fresh* (later) deadline.
        let moved = cv(0, 0, vec![fv(0, 0, 2, 20_000_000)]);
        let _ = run(
            &mut s,
            std::slice::from_ref(&moved),
            3,
            Time::from_secs(200),
        );
        assert_eq!(s.state[&CoflowId(0)].queue, 1);
        assert!(
            s.state[&CoflowId(0)].deadline > d0,
            "deadline must refresh on move"
        );
        assert!(s.state[&CoflowId(0)].deadline > Time::from_secs(200));
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

    /// Satellite for the incremental order book: 200 rounds of random
    /// churn (arrivals, byte growth across queue thresholds, finishes,
    /// readiness flips, restarts, departures, and hour-scale time jumps
    /// that expire deadlines) driven through two schedulers — the
    /// incremental one fed exact `changed` hints, and the legacy
    /// full-re-sort one fed `changed: None` — must produce identical
    /// schedules every round. Debug builds additionally exercise the
    /// in-scheduler oracles (order, contention, cached queues) on every
    /// one of those rounds.
    #[test]
    fn incremental_order_matches_full_resort_under_churn() {
        use rand::{Rng, SeedableRng};
        for lcof in [true, false] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x0b00c + lcof as u64);
            let mut inc = Saath::new(SaathConfig {
                lcof,
                ..Default::default()
            });
            let mut full = Saath::new(SaathConfig {
                lcof,
                incremental_order: false,
                incremental_contention: false,
                ..Default::default()
            });
            let num_nodes = 12usize;
            let mut coflows: Vec<CoflowView> = Vec::new();
            let mut next_cf = 0u32;
            let mut next_flow = 0u32;
            let mut now = Time::ZERO;
            for round in 0..200 {
                let mut changed: Vec<CoflowId> = Vec::new();
                // Arrivals.
                while coflows.len() < 3 || rng.gen_bool(0.3) {
                    let width = rng.gen_range(1..6usize);
                    let flows: Vec<FlowView> = (0..width)
                        .map(|_| {
                            let f = fv(
                                next_flow,
                                rng.gen_range(0..num_nodes as u32),
                                rng.gen_range(0..num_nodes as u32),
                                0,
                            );
                            next_flow += 1;
                            f
                        })
                        .collect();
                    coflows.push(CoflowView {
                        id: CoflowId(next_cf),
                        arrival: now,
                        flows,
                        restarted: false,
                    });
                    changed.push(CoflowId(next_cf));
                    next_cf += 1;
                }
                // Byte growth (drives D3 queue transitions), finishes
                // (shrinks footprints → k deltas), readiness flips, and
                // §4.3 restart markers. Every mutation lands in the hint.
                for c in coflows.iter_mut() {
                    if rng.gen_bool(0.5) {
                        let fi = rng.gen_range(0..c.flows.len());
                        c.flows[fi].sent =
                            Bytes(c.flows[fi].sent.as_u64() + rng.gen_range(0..4_000_000u64));
                        changed.push(c.id);
                    }
                    if rng.gen_bool(0.25) {
                        let fi = rng.gen_range(0..c.flows.len());
                        c.flows[fi].finished = true;
                        changed.push(c.id);
                    }
                    if rng.gen_bool(0.15) {
                        let fi = rng.gen_range(0..c.flows.len());
                        c.flows[fi].ready = !c.flows[fi].ready;
                        changed.push(c.id);
                    }
                    if rng.gen_bool(0.05) {
                        c.restarted = !c.restarted;
                        changed.push(c.id);
                    }
                }
                // Departures: drained CoFlows usually leave; occasionally
                // one is yanked mid-transfer (failure/abort path).
                coflows.retain(|c| {
                    let drained = c.flows.iter().all(|f| f.finished);
                    !(drained && rng.gen_bool(0.8) || rng.gen_bool(0.05))
                });
                // Mostly small steps; occasional hour jumps expire D5
                // deadlines for CoFlows *outside* the hint (allowed: the
                // expiry class is re-derived fresh every round).
                now = if rng.gen_bool(0.1) {
                    now.saturating_add(saath_simcore::Duration::from_secs(3600))
                } else {
                    now.saturating_add(saath_simcore::Duration::from_millis(8))
                };
                let out_inc = {
                    let view = ClusterView {
                        now,
                        num_nodes,
                        coflows: &coflows,
                        changed: Some(&changed),
                    };
                    let mut bank = PortBank::uniform(num_nodes, GBPS);
                    let mut out = Schedule::default();
                    inc.compute(&view, &mut bank, &mut out);
                    out
                };
                let out_full = {
                    let view = ClusterView {
                        now,
                        num_nodes,
                        coflows: &coflows,
                        changed: None,
                    };
                    let mut bank = PortBank::uniform(num_nodes, GBPS);
                    let mut out = Schedule::default();
                    full.compute(&view, &mut bank, &mut out);
                    out
                };
                assert_eq!(
                    out_inc, out_full,
                    "schedules diverged at round {round} (lcof={lcof})"
                );
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
