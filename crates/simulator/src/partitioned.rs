//! The sharded coordinator's simulator-domain model: K shards, one
//! staleness parameter.
//!
//! [`crate::engine`] drives one [`CoflowScheduler`];
//! [`PartitionedScheduler`] is the in-process model of
//! `saath_runtime`'s reconciler + K `run_shard` loops. CoFlows are
//! hashed across K [`Saath`] instances ([`shard_of`]); each round every
//! shard computes a schedule on a scratch bank, emits the slice of
//! CoFlows it owns, and the slices are merged in rotated flow-id order
//! with port-capacity clamping ([`merge_rates_rotated`]). The staleness
//! budget S selects what a shard sees:
//!
//! * **S = 0 — replicated.** *Exchange everything every round*: each
//!   shard schedules the full view, so the replicas agree, the merge
//!   never clamps (debug-asserted) and records are byte-identical to
//!   the single coordinator for any K. Sharding then divides the
//!   failure domain, not the compute — K shards cost K× the compute.
//! * **S ≥ 1 — partitioned.** Each shard schedules full views of only
//!   its **owned** CoFlows plus one compact [`ContentionSummary`] per
//!   remote shard refreshed every S rounds. Per-shard scheduling cost
//!   then scales with owned CoFlows, not all CoFlows, at the price of a
//!   bounded CCT deviation (measured by the `repro scale --shards K`
//!   sweep).
//!
//! ## What crosses the shard boundary (S ≥ 1)
//!
//! At each summary refresh, shard `s` exports (see
//! [`saath_core::summary`]):
//!
//! * per-port counts of its CoFlows with unfinished flows — consumed by
//!   remote shards as a `k_c` addend (max count over the owned CoFlow's
//!   ports, per remote shard: a deterministic lower bound on distinct
//!   remote contenders), keeping LCoF ordering cluster-aware;
//! * the per-port rates its last slice claimed — pre-charged against
//!   every peer's bank, but only down to a **reserve** of capacity/K
//!   per port, which keeps backoff over a shared hot port partial
//!   instead of oscillating (see
//!   [`saath_core::summary::apply_peer_summaries`]) at the price of a
//!   bounded overcommit;
//! * per-queue CoFlow counts and `k_c` sums, for observability.
//!
//! Between refreshes shards decide on summaries up to S−1 rounds old;
//! the clamping merge (clamp order rotated by round so no flow is
//! systematically starved) stays the safety net that restores
//! feasibility when stale summaries let two shards claim the same port.

use saath_core::merge::merge_rates_rotated;
use saath_core::summary::{apply_peer_summaries, port_rates_of_slice, ContentionSummary};
use saath_core::timing::SchedTimings;
use saath_core::view::{shard_of, ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath_core::{Saath, SaathConfig};
use saath_fabric::PortBank;
use saath_simcore::{CoflowId, FastHashMap, FlowId, PortId, Rate, Time};

/// A [`CoflowScheduler`] that runs K in-process [`Saath`] shards and
/// merges their owned slices: full replicas at S = 0, owned views
/// coupled only by bounded-staleness [`ContentionSummary`]s at S ≥ 1.
/// See the module docs; deterministic, so the sweep's
/// deviation-vs-staleness curve replays bit-for-bit.
pub struct PartitionedScheduler {
    shards: Vec<Saath>,
    cfg: SaathConfig,
    /// Summary refresh period in rounds; 0 = replicated.
    staleness: u64,
    /// Recreate every shard policy at this time (kill drill).
    restart_at: Option<Time>,
    restarted: bool,
    round: u64,
    last_export_round: Option<u64>,
    last_num_nodes: usize,
    /// Per-shard owned views, maintained incrementally from the
    /// engine's `changed` hint (only changed CoFlows are re-cloned).
    owned: Vec<Vec<CoflowView>>,
    /// CoFlow id → slot in its owning shard's `owned` vector.
    slot: FastHashMap<CoflowId, u32>,
    /// Per-shard changed hints forwarded to the inner schedulers.
    owned_changed: Vec<Vec<CoflowId>>,
    /// This round's hints are `None` (full resync) instead.
    full_hint: bool,
    /// Latest summary per shard (empty until the first refresh).
    summaries: Vec<ContentionSummary>,
    /// id → position in the current view, rebuilt on hinted rounds.
    view_index: FastHashMap<CoflowId, u32>,
    gone: Vec<CoflowId>,
    remote_buf: Vec<(CoflowId, u32)>,
    port_scratch: Vec<u32>,
    scratch: PortBank,
    slice: Schedule,
    entries: Vec<(FlowId, Rate, PortId, PortId)>,
    shard_entries: Vec<Vec<(FlowId, Rate, PortId, PortId)>>,
    // -- counters (see accessors) --
    stale_order_decisions: u64,
    summary_bytes_exchanged: u64,
    summary_refreshes: u64,
    merge_clamps: u64,
}

impl PartitionedScheduler {
    /// K shards of `cfg`-configured Saath with summary staleness budget
    /// `staleness` (in rounds; 0 = replicated). S≥1
    /// requires incremental contention + LCoF — the summary export
    /// reads the contention tracker, which is idle otherwise.
    pub fn new(k: usize, staleness: u64, cfg: SaathConfig) -> PartitionedScheduler {
        assert!(k > 0, "need at least one shard");
        assert!(
            staleness == 0 || (cfg.incremental_contention && cfg.lcof),
            "partitioned mode (S ≥ 1) requires incremental_contention and lcof"
        );
        PartitionedScheduler {
            shards: (0..k).map(|_| Saath::new(cfg.clone())).collect(),
            cfg,
            staleness,
            restart_at: None,
            restarted: false,
            round: 0,
            last_export_round: None,
            last_num_nodes: 0,
            owned: (0..k).map(|_| Vec::new()).collect(),
            slot: FastHashMap::default(),
            owned_changed: (0..k).map(|_| Vec::new()).collect(),
            full_hint: true,
            summaries: (0..k).map(|_| ContentionSummary::default()).collect(),
            view_index: FastHashMap::default(),
            gone: Vec::new(),
            remote_buf: Vec::new(),
            port_scratch: Vec::new(),
            scratch: PortBank::uniform(1, Rate(1)),
            slice: Schedule::default(),
            entries: Vec::new(),
            shard_entries: (0..k).map(|_| Vec::new()).collect(),
            stale_order_decisions: 0,
            summary_bytes_exchanged: 0,
            summary_refreshes: 0,
            merge_clamps: 0,
        }
    }

    /// Like [`PartitionedScheduler::new`] but recreates every shard
    /// policy on the first round at or after `at` (kill drill: all
    /// incremental state, including summaries, is lost and rebuilt).
    pub fn with_restart(
        k: usize,
        staleness: u64,
        cfg: SaathConfig,
        at: Time,
    ) -> PartitionedScheduler {
        let mut s = PartitionedScheduler::new(k, staleness, cfg);
        s.restart_at = Some(at);
        s
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The staleness budget S (rounds between summary refreshes).
    pub fn staleness(&self) -> u64 {
        self.staleness
    }

    /// Per-shard scheduling-phase timings — the partitioned-mode cost
    /// metric (`sched_ms` of the busiest shard vs the single
    /// coordinator's).
    pub fn shard_timings(&self, shard: usize) -> &SchedTimings {
        &self.shards[shard].timings
    }

    /// Ordering decisions made against summaries older than the
    /// unavoidable one-round lag (or before any summary existed):
    /// counts every owned CoFlow ordered on such a round.
    pub fn stale_order_decisions(&self) -> u64 {
        self.stale_order_decisions
    }

    /// Total summary bytes shipped (each refresh sends every shard's
    /// summary to its K−1 peers, in the runtime wire encoding).
    pub fn summary_bytes_exchanged(&self) -> u64 {
        self.summary_bytes_exchanged
    }

    /// Number of summary refresh rounds.
    pub fn summary_refreshes(&self) -> u64 {
        self.summary_refreshes
    }

    /// Merge clamps across the run — nonzero only where stale summaries
    /// let shards overcommit a port (always zero at S=0).
    pub fn merge_clamps(&self) -> u64 {
        self.merge_clamps
    }

    /// Age (rounds) of the summaries the *next* round would consume;
    /// `None` before the first refresh.
    pub fn summary_age_rounds(&self) -> Option<u64> {
        self.last_export_round.map(|e| self.round - e)
    }

    /// Rebuilds or incrementally patches the per-shard owned views from
    /// the engine view. `changed: None` forces a full resync; otherwise
    /// only hinted CoFlows are re-cloned and departures are detected
    /// against the view's id set.
    fn sync_owned_views(&mut self, view: &ClusterView<'_>, changed: Option<&[CoflowId]>) {
        let k = self.shards.len();
        match changed {
            None => {
                for v in &mut self.owned {
                    v.clear();
                }
                self.slot.clear();
                for c in view.coflows {
                    let s = shard_of(c.id, k);
                    self.slot.insert(c.id, self.owned[s].len() as u32);
                    self.owned[s].push(c.clone());
                }
                self.full_hint = true;
            }
            Some(ch) => {
                self.view_index.clear();
                for (i, c) in view.coflows.iter().enumerate() {
                    self.view_index.insert(c.id, i as u32);
                }
                // Departures (sorted for deterministic slot churn).
                self.gone.clear();
                self.gone.extend(
                    self.slot
                        .keys()
                        .filter(|id| !self.view_index.contains_key(id))
                        .copied(),
                );
                self.gone.sort_unstable();
                for gi in 0..self.gone.len() {
                    let id = self.gone[gi];
                    let s = shard_of(id, k);
                    let at = self.slot.remove(&id).expect("departure not tracked") as usize;
                    self.owned[s].swap_remove(at);
                    if at < self.owned[s].len() {
                        let moved = self.owned[s][at].id;
                        self.slot.insert(moved, at as u32);
                    }
                }
                // Changed + new CoFlows: re-clone just those.
                for v in &mut self.owned_changed {
                    v.clear();
                }
                for &id in ch {
                    let Some(&vi) = self.view_index.get(&id) else {
                        continue;
                    };
                    let s = shard_of(id, k);
                    match self.slot.get(&id) {
                        Some(&at) => {
                            self.owned[s][at as usize].clone_from(&view.coflows[vi as usize]);
                        }
                        None => {
                            self.slot.insert(id, self.owned[s].len() as u32);
                            self.owned[s].push(view.coflows[vi as usize].clone());
                        }
                    }
                    self.owned_changed[s].push(id);
                }
                self.full_hint = false;
            }
        }
    }
}

impl CoflowScheduler for PartitionedScheduler {
    fn name(&self) -> &'static str {
        // Same name as the inner policy: event logs from partitioned
        // runs stay `diff_logs`-comparable against the replicated /
        // single-coordinator oracle.
        self.shards[0].name()
    }

    fn requires_clairvoyance(&self) -> bool {
        self.shards[0].requires_clairvoyance()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let k = self.shards.len();
        self.round += 1;

        // Kill drill: every shard policy is recreated; summaries and
        // owned-view caches are lost with them, so this round resyncs
        // from scratch with `changed: None`.
        let mut rebuilt = false;
        if let Some(t) = self.restart_at {
            if !self.restarted && view.now >= t {
                self.shards = (0..k).map(|_| Saath::new(self.cfg.clone())).collect();
                for s in &mut self.summaries {
                    s.clear();
                }
                self.last_export_round = None;
                self.restarted = true;
                rebuilt = true;
            }
        }
        // A port-space change invalidates summaries and cached views.
        if self.last_num_nodes != view.num_nodes {
            self.last_num_nodes = view.num_nodes;
            for s in &mut self.summaries {
                s.clear();
            }
            self.last_export_round = None;
            rebuilt = rebuilt || self.round > 1;
        }
        let changed = if rebuilt { None } else { view.changed };

        let partitioned = self.staleness > 0;
        if partitioned {
            self.sync_owned_views(view, changed);
        }
        let stale_round = partitioned
            && match self.last_export_round {
                None => true,
                Some(e) => self.round - e > 1,
            };

        self.entries.clear();
        for s in 0..k {
            // The one S-dependent scheduling decision: the owned view
            // against peer summaries, or (S = 0, nothing omitted, no
            // summaries to apply) the full view.
            let (coflows, hint) = if !partitioned {
                (view.coflows, changed)
            } else if self.full_hint {
                (self.owned[s].as_slice(), None)
            } else {
                (
                    self.owned[s].as_slice(),
                    Some(self.owned_changed[s].as_slice()),
                )
            };
            self.scratch.clone_reset_from(bank);
            apply_peer_summaries(
                &mut self.shards[s],
                coflows,
                view.num_nodes,
                &self.summaries,
                s,
                &mut self.scratch,
                &mut self.remote_buf,
                &mut self.port_scratch,
            );
            self.slice.clear();
            let v = ClusterView {
                now: view.now,
                num_nodes: view.num_nodes,
                coflows,
                changed: hint,
            };
            self.shards[s].compute(&v, &mut self.scratch, &mut self.slice);

            self.shard_entries[s].clear();
            for c in coflows.iter().filter(|c| shard_of(c.id, k) == s) {
                for f in &c.flows {
                    let r = self.slice.rate_of(f.id);
                    if !r.is_zero() {
                        let e = f.endpoints(view.num_nodes);
                        self.shard_entries[s].push((f.id, r, e.src, e.dst));
                    }
                }
            }
            self.entries.extend_from_slice(&self.shard_entries[s]);
            if stale_round {
                self.stale_order_decisions += coflows.len() as u64;
            }
        }
        // Round-rotated clamp order: under stale summaries clamping is
        // routine, and a fixed order would starve the same flows every
        // round. Agreeing replicas never clamp, so S = 0 is unaffected.
        let clamps = merge_rates_rotated(&mut self.entries, bank, out, self.round);
        debug_assert!(
            partitioned || clamps == 0,
            "S=0 replicas must merge without clamping"
        );
        self.merge_clamps += clamps;

        // Refresh summaries once the staleness budget is spent.
        let due = partitioned
            && match self.last_export_round {
                None => true,
                Some(e) => self.round - e >= self.staleness,
            };
        if due {
            for s in 0..k {
                let (sched, summary) = (&self.shards[s], &mut self.summaries[s]);
                sched.export_summary(s as u32, self.round, summary);
                port_rates_of_slice(&self.shard_entries[s], &mut summary.port_rates);
                self.summary_bytes_exchanged += (summary.encoded_len() * (k - 1)) as u64;
            }
            self.summary_refreshes += 1;
            self.last_export_round = Some(self.round);
        }
    }

    fn mech_counters(&self) -> Option<&saath_telemetry::MechCounters> {
        self.shards[0].mech_counters()
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        self.shards[0].queue_occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_core::view::FlowView;
    use saath_simcore::{Bytes, NodeId};

    fn cv(id: u32, flows: &[(u32, u32, u32)]) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::ZERO,
            flows: flows
                .iter()
                .map(|&(f, s, d)| FlowView {
                    id: FlowId(f),
                    src: NodeId(s),
                    dst: NodeId(d),
                    sent: Bytes::ZERO,
                    ready: true,
                    finished: false,
                    oracle_size: None,
                })
                .collect(),
            restarted: false,
        }
    }

    fn round(
        sched: &mut PartitionedScheduler,
        coflows: &[CoflowView],
        num_nodes: usize,
        changed: Option<&[CoflowId]>,
    ) -> Schedule {
        let view = ClusterView {
            now: Time::from_millis(1),
            num_nodes,
            coflows,
            changed,
        };
        let mut bank = PortBank::uniform(num_nodes, Rate::gbps(1));
        let mut out = Schedule::default();
        sched.compute(&view, &mut bank, &mut out);
        out
    }

    #[test]
    fn s0_single_round_matches_plain_saath() {
        let coflows = vec![
            cv(1, &[(10, 0, 3)]),
            cv(2, &[(20, 0, 4), (21, 1, 5), (22, 2, 6)]),
            cv(3, &[(30, 1, 7)]),
            cv(4, &[(40, 2, 8)]),
        ];
        let mut plain = Saath::with_defaults();
        let view = ClusterView {
            now: Time::from_millis(1),
            num_nodes: 9,
            coflows: &coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(9, Rate::gbps(1));
        let mut want = Schedule::default();
        plain.compute(&view, &mut bank, &mut want);
        for k in [1usize, 2, 4] {
            let mut part = PartitionedScheduler::new(k, 0, SaathConfig::default());
            let got = round(&mut part, &coflows, 9, None);
            assert_eq!(
                {
                    let mut r = got.rates.clone();
                    r.sort_unstable_by_key(|&(f, _)| f);
                    r
                },
                {
                    let mut r = want.rates.clone();
                    r.sort_unstable_by_key(|&(f, _)| f);
                    r
                },
                "K={k} S=0 diverged from plain Saath"
            );
            assert_eq!(part.merge_clamps(), 0);
        }
    }

    #[test]
    fn partitioned_rounds_feasible_and_counted() {
        let coflows = vec![
            cv(1, &[(10, 0, 3)]),
            cv(2, &[(20, 0, 4), (21, 1, 5), (22, 2, 6)]),
            cv(3, &[(30, 1, 7)]),
            cv(4, &[(40, 2, 8)]),
        ];
        let mut part = PartitionedScheduler::new(2, 4, SaathConfig::default());
        for r in 0..10u32 {
            let out = round(
                &mut part,
                &coflows,
                9,
                if r == 0 { None } else { Some(&[]) },
            );
            // Feasibility: per-port totals within capacity is the merge's
            // invariant; just sanity-check something was scheduled.
            assert!(!out.rates.is_empty(), "round {r} scheduled nothing");
        }
        assert!(part.summary_refreshes() > 0);
        assert!(part.summary_bytes_exchanged() > 0);
        assert!(
            part.stale_order_decisions() > 0,
            "S=4 rounds must count stale ordering decisions"
        );
        // Exports fire at rounds 1, 5, 9 → age 1 after round 10.
        assert_eq!(part.summary_age_rounds(), Some(1));
    }

    #[test]
    #[should_panic(expected = "requires incremental_contention")]
    fn s1_requires_tracker() {
        let _ = PartitionedScheduler::new(
            2,
            1,
            SaathConfig {
                incremental_contention: false,
                ..Default::default()
            },
        );
    }
}
