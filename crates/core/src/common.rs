//! Shared machinery: contention computation, endpoint extraction, and
//! the reusable scratch arena that keeps scheduling rounds
//! allocation-free.

use crate::view::{ClusterView, CoflowView};
use saath_fabric::FlowEndpoints;
use saath_simcore::{CoflowId, FastHashMap};

/// Reusable buffers for one scheduling round.
///
/// Every per-round temporary the schedulers need — the CSR port →
/// CoFlow incidence slab and stamp array behind [`contention_into`],
/// endpoint lists, gang-rate scratch — lives here and is recycled
/// across rounds, so the steady-state scheduling loop performs no heap
/// allocation. One arena per scheduler instance; threading it through
/// [`contention_into`] / [`endpoints_into`] replaces the allocating
/// [`contention`] / [`endpoints_of`] in hot paths.
///
/// The incidence map is a flat CSR triple (`port_start`, `port_cursor`,
/// `port_data`) rather than the former `Vec<Vec<u32>>`: port `p`'s
/// CoFlows live in `port_data[port_start[p]..port_cursor[p]]`, so the
/// contention scan walks one dense `u32` slab instead of chasing a
/// pointer per port.
#[derive(Default)]
pub struct RoundArena {
    /// CSR slab offsets: port `p`'s slice begins at `port_start[p]`
    /// (length `num_ports + 1`; `port_start[num_ports]` is the slab
    /// size upper bound).
    port_start: Vec<u32>,
    /// CSR fill cursors: port `p`'s slice ends at `port_cursor[p]`
    /// (≤ `port_start[p + 1]`; the gap is dedup slack).
    port_cursor: Vec<u32>,
    /// Flattened incidence lists: indices into `view.coflows`.
    port_data: Vec<u32>,
    /// CoFlow-indexed stamp array for contention dedup.
    stamp: Vec<u32>,
    /// Per-port flow counts for `gang_rate_with`.
    pub gang_scratch: Vec<u32>,
    /// Touched-port list for `gang_rate_with`.
    pub gang_touched: Vec<saath_simcore::PortId>,
}

impl RoundArena {
    /// A fresh, empty arena (buffers grow on first use).
    pub fn new() -> RoundArena {
        RoundArena::default()
    }
}

/// Per-CoFlow contention `k_c`: the number of *other* active CoFlows
/// with at least one unfinished flow on any port where CoFlow `c` has an
/// unfinished flow (§3.3, footnote 2). Returned parallel to
/// `view.coflows`.
///
/// Built from a port → CoFlow incidence map; the union over a CoFlow's
/// ports is deduplicated with a stamp array, so the whole computation is
/// `O(Σ ports + Σ incidences)` with no hashing in the inner loop.
pub fn contention(view: &ClusterView<'_>) -> Vec<u32> {
    let mut arena = RoundArena::new();
    let mut k = Vec::new();
    contention_into(view, &mut arena, &mut k);
    k
}

/// [`contention`] writing into `k` (cleared first) with all scratch
/// drawn from `arena` — the allocation-free form for hot loops.
pub fn contention_into(view: &ClusterView<'_>, arena: &mut RoundArena, k: &mut Vec<u32>) {
    let num_ports = 2 * view.num_nodes;
    // Pass 1: count endpoint touches per port — an upper bound on the
    // deduplicated incidence count (the fill pass leaves slack unused),
    // accumulated shifted by one so the prefix sum lands in place.
    let start = &mut arena.port_start;
    start.clear();
    start.resize(num_ports + 1, 0);
    for c in view.coflows.iter() {
        for f in c.unfinished() {
            let e = f.endpoints(view.num_nodes);
            start[e.src.index() + 1] += 1;
            start[e.dst.index() + 1] += 1;
        }
    }
    for p in 0..num_ports {
        start[p + 1] += start[p];
    }

    // Pass 2: fill the CSR slab. CoFlows are processed one at a time,
    // so duplicates by the same CoFlow on a port are always adjacent: a
    // tail check against the cursor suffices to keep each port slice a
    // set, in the same first-touch order the nested-Vec build produced.
    let data = &mut arena.port_data;
    data.clear();
    data.resize(start[num_ports] as usize, 0);
    let cursor = &mut arena.port_cursor;
    cursor.clear();
    cursor.extend_from_slice(&start[..num_ports]);
    for (ci, c) in view.coflows.iter().enumerate() {
        for f in c.unfinished() {
            let e = f.endpoints(view.num_nodes);
            for p in [e.src.index(), e.dst.index()] {
                let cur = cursor[p] as usize;
                if cur == start[p] as usize || data[cur - 1] != ci as u32 {
                    data[cur] = ci as u32;
                    cursor[p] = cur as u32 + 1;
                }
            }
        }
    }

    k.clear();
    k.resize(view.coflows.len(), 0u32);
    let stamp = &mut arena.stamp;
    stamp.clear();
    stamp.resize(view.coflows.len(), u32::MAX);
    for (ci, c) in view.coflows.iter().enumerate() {
        let mut count = 0u32;
        for f in c.unfinished() {
            let e = f.endpoints(view.num_nodes);
            for p in [e.src.index(), e.dst.index()] {
                for &other in &data[start[p] as usize..cursor[p] as usize] {
                    if other != ci as u32 && stamp[other as usize] != ci as u32 {
                        stamp[other as usize] = ci as u32;
                        count += 1;
                    }
                }
            }
        }
        k[ci] = count;
    }
}

/// Work done by one [`ContentionTracker::compute_into`] call, for
/// telemetry: how many port join/leave deltas were applied, and whether
/// the call fell back to a full rebuild of the tracker state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionWork {
    /// Port-membership joins + leaves applied this call.
    pub delta_updates: u64,
    /// Whether this call rebuilt from scratch (no usable hint).
    pub full_rebuild: bool,
}

/// Incrementally-maintained per-CoFlow contention, replacing the
/// per-round full rebuild of [`contention_into`] with a delta update
/// driven by the [`ClusterView::changed`] hint. A footprint moves only
/// when a flow finishes, so a caller that can tell (`Saath` checks its
/// cached endpoint lists) passes a view whose hint names just those
/// CoFlows: a CoFlow named here is re-collected, sorted and diffed
/// even when its footprint turns out not to have moved.
///
/// # Invariant
///
/// After every [`compute_into`](ContentionTracker::compute_into) call,
/// for each live CoFlow `c`:
///
/// * `footprints[c]` is the sorted, deduplicated set of port indices
///   carrying an unfinished flow of `c`;
/// * `pairs[(a, b)]` (keys ordered `a < b`) is `|footprints[a] ∩
///   footprints[b]|`, present only when nonzero;
/// * `k[c]` is the number of other CoFlows `o` with `pairs[(c, o)] >
///   0` — exactly the §3.3 contention [`contention_into`] computes.
///
/// A round touching `m` CoFlows costs `O(active + Σ footprint sizes of
/// the m changed CoFlows)` instead of `O(Σ flows of all CoFlows)`. The
/// `active` term is one id → index map build per call; footprints are
/// diffed with a sorted merge walk, and each port join/leave adjusts
/// the pair counts of that port's current members.
///
/// [`contention_into`] remains the oracle: `Saath::compute` asserts
/// equality in debug builds, and the churn tests here and in the
/// equivalence suite do the same under stragglers and failures.
#[derive(Default)]
pub struct ContentionTracker {
    /// Port-space size the state was built for; a mismatch forces a
    /// rebuild (ports index into `port_members`).
    num_nodes: usize,
    /// CoFlow → sorted port indices of its unfinished flows.
    footprints: FastHashMap<CoflowId, Vec<u32>>,
    /// port → CoFlows whose footprint contains it (unordered).
    port_members: Vec<Vec<CoflowId>>,
    /// Ordered CoFlow pair → number of shared footprint ports (> 0).
    pairs: FastHashMap<(u32, u32), u32>,
    /// CoFlow → contention `k_c`.
    k: FastHashMap<CoflowId, u32>,
    /// id → index into the current view, rebuilt each call.
    index: FastHashMap<CoflowId, u32>,
    /// Fresh-footprint scratch for the merge walk.
    scratch: Vec<u32>,
    /// Departed-id scratch.
    gone: Vec<CoflowId>,
    /// Ports joined / left this refresh (reused buffers).
    joins: Vec<u32>,
    leaves: Vec<u32>,
}

impl ContentionTracker {
    /// A fresh, empty tracker.
    pub fn new() -> ContentionTracker {
        ContentionTracker::default()
    }

    /// Computes `k_c` for every CoFlow in `view` (parallel to
    /// `view.coflows`, written into `k_out`), applying deltas for the
    /// CoFlows named by `view.changed` — or rebuilding everything when
    /// the hint is absent or the port space changed.
    pub fn compute_into(&mut self, view: &ClusterView<'_>, k_out: &mut Vec<u32>) -> ContentionWork {
        let mut work = ContentionWork::default();
        // A port-space change invalidates every stored footprint: clear
        // the state and ignore the hint — all CoFlows must be re-added.
        let mut hint = view.changed;
        if self.num_nodes != view.num_nodes {
            self.footprints.clear();
            self.port_members.clear();
            self.pairs.clear();
            self.k.clear();
            self.num_nodes = view.num_nodes;
            hint = None;
        }
        let num_ports = 2 * view.num_nodes;
        if self.port_members.len() < num_ports {
            self.port_members.resize_with(num_ports, Vec::new);
        }

        self.index.clear();
        for (i, c) in view.coflows.iter().enumerate() {
            self.index.insert(c.id, i as u32);
        }

        // Departures: tracked CoFlows no longer in the view. Every
        // tracked CoFlow has a `k` entry (footprints drop theirs when
        // they empty out), so `k` is the membership authority.
        self.gone.clear();
        self.gone.extend(
            self.k
                .keys()
                .filter(|id| !self.index.contains_key(id))
                .copied(),
        );
        // Keep removal order deterministic (HashMap iteration is not);
        // the *counts* are order-independent, but determinism everywhere
        // keeps replay debugging sane.
        self.gone.sort_unstable();
        for i in 0..self.gone.len() {
            let id = self.gone[i];
            work.delta_updates += self.remove_coflow(id);
        }

        // Changed CoFlows: diff fresh footprints against stored ones.
        match hint {
            Some(changed) => {
                for &id in changed {
                    if let Some(&ci) = self.index.get(&id) {
                        work.delta_updates += self.refresh_coflow(view, ci as usize);
                    }
                }
            }
            None => {
                work.full_rebuild = true;
                for ci in 0..view.coflows.len() {
                    work.delta_updates += self.refresh_coflow(view, ci);
                }
            }
        }

        k_out.clear();
        k_out.extend(
            view.coflows
                .iter()
                .map(|c| self.k.get(&c.id).copied().unwrap_or(0)),
        );
        work
    }

    /// Recomputes one CoFlow's footprint from the view and applies the
    /// port joins/leaves. Returns the number of deltas applied.
    fn refresh_coflow(&mut self, view: &ClusterView<'_>, ci: usize) -> u64 {
        let c = &view.coflows[ci];
        self.scratch.clear();
        for f in c.unfinished() {
            let e = f.endpoints(view.num_nodes);
            self.scratch.push(e.src.index() as u32);
            self.scratch.push(e.dst.index() as u32);
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();

        let id = c.id;
        // Merge walk over two sorted sets; joins/leaves collected first
        // so the stored footprint can be replaced wholesale.
        self.joins.clear();
        self.leaves.clear();
        {
            let old: &[u32] = self.footprints.get(&id).map_or(&[], |v| v.as_slice());
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < self.scratch.len() {
                match (old.get(i), self.scratch.get(j)) {
                    (Some(&a), Some(&b)) if a == b => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), Some(&b)) if a < b => {
                        self.leaves.push(a);
                        i += 1;
                    }
                    (Some(_), Some(&b)) => {
                        self.joins.push(b);
                        j += 1;
                    }
                    (Some(&a), None) => {
                        self.leaves.push(a);
                        i += 1;
                    }
                    (None, Some(&b)) => {
                        self.joins.push(b);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        if self.scratch.is_empty() {
            self.footprints.remove(&id);
        } else {
            let stored = self.footprints.entry(id).or_default();
            stored.clear();
            stored.extend_from_slice(&self.scratch);
        }
        let mut deltas = 0u64;
        for li in 0..self.leaves.len() {
            let p = self.leaves[li] as usize;
            let pos = self.port_members[p]
                .iter()
                .position(|&m| m == id)
                .expect("leave of a port not joined");
            self.port_members[p].swap_remove(pos);
            for mi in 0..self.port_members[p].len() {
                let other = self.port_members[p][mi];
                pair_dec(&mut self.pairs, &mut self.k, id, other);
            }
            deltas += 1;
        }
        for ji in 0..self.joins.len() {
            let p = self.joins[ji] as usize;
            for mi in 0..self.port_members[p].len() {
                let other = self.port_members[p][mi];
                pair_inc(&mut self.pairs, &mut self.k, id, other);
            }
            self.port_members[p].push(id);
            deltas += 1;
        }
        self.k.entry(id).or_insert(0);
        deltas
    }

    /// Exports the tracker's state as a [`ContentionSummary`] for
    /// partitioned-compute sharding: per-port active-CoFlow counts from
    /// the port-membership lists, and per-queue CoFlow counts / `k_c`
    /// sums via the caller's queue lookup (the tracker does not know
    /// queue assignments). `port_rates` is *not* filled here — the
    /// caller adds the rates its last schedule slice claimed.
    ///
    /// Only meaningful when the tracker is live (i.e. the owning
    /// scheduler runs with incremental contention + LCoF); an unused
    /// tracker exports an empty summary.
    pub fn export_summary(
        &self,
        queue_of: impl Fn(CoflowId) -> usize,
        num_queues: usize,
        out: &mut crate::summary::ContentionSummary,
    ) {
        out.port_coflows.clear();
        for (p, members) in self.port_members.iter().enumerate() {
            if !members.is_empty() {
                out.port_coflows.push((p as u32, members.len() as u32));
            }
        }
        out.queue_coflows.clear();
        out.queue_coflows.resize(num_queues, 0);
        out.queue_kc_sum.clear();
        out.queue_kc_sum.resize(num_queues, 0);
        // HashMap iteration order is arbitrary, but counts and sums are
        // order-independent, so the export stays deterministic.
        for (&id, &kc) in self.k.iter() {
            let q = queue_of(id).min(num_queues.saturating_sub(1));
            out.queue_coflows[q] += 1;
            out.queue_kc_sum[q] += kc as u64;
        }
    }

    /// Drops a departed CoFlow, unwinding its pair counts.
    fn remove_coflow(&mut self, id: CoflowId) -> u64 {
        let Some(footprint) = self.footprints.remove(&id) else {
            self.k.remove(&id);
            return 0;
        };
        let mut deltas = 0u64;
        for &p in &footprint {
            let p = p as usize;
            let pos = self.port_members[p]
                .iter()
                .position(|&m| m == id)
                .expect("departure from a port not joined");
            self.port_members[p].swap_remove(pos);
            for mi in 0..self.port_members[p].len() {
                let other = self.port_members[p][mi];
                pair_dec(&mut self.pairs, &mut self.k, id, other);
            }
            deltas += 1;
        }
        let residual = self.k.remove(&id);
        debug_assert_eq!(residual.unwrap_or(0), 0, "departed CoFlow still paired");
        deltas
    }
}

fn pair_key(a: CoflowId, b: CoflowId) -> (u32, u32) {
    if a.0 < b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

fn pair_inc(
    pairs: &mut FastHashMap<(u32, u32), u32>,
    k: &mut FastHashMap<CoflowId, u32>,
    a: CoflowId,
    b: CoflowId,
) {
    debug_assert_ne!(a, b);
    let shared = pairs.entry(pair_key(a, b)).or_insert(0);
    *shared += 1;
    if *shared == 1 {
        *k.entry(a).or_insert(0) += 1;
        *k.entry(b).or_insert(0) += 1;
    }
}

fn pair_dec(
    pairs: &mut FastHashMap<(u32, u32), u32>,
    k: &mut FastHashMap<CoflowId, u32>,
    a: CoflowId,
    b: CoflowId,
) {
    let key = pair_key(a, b);
    let shared = pairs.get_mut(&key).expect("pair decrement below zero");
    *shared -= 1;
    if *shared == 0 {
        pairs.remove(&key);
        *k.get_mut(&a).expect("k missing on unpair") -= 1;
        *k.get_mut(&b).expect("k missing on unpair") -= 1;
    }
}

/// Endpoints of a CoFlow's unfinished flows, optionally restricted to
/// ready (data-available) ones.
pub fn endpoints_of(c: &CoflowView, num_nodes: usize, ready_only: bool) -> Vec<FlowEndpoints> {
    let mut out = Vec::new();
    endpoints_into(c, num_nodes, ready_only, &mut out);
    out
}

/// [`endpoints_of`] writing into a caller-provided buffer (cleared
/// first), for allocation-free scheduling rounds.
pub fn endpoints_into(
    c: &CoflowView,
    num_nodes: usize,
    ready_only: bool,
    out: &mut Vec<FlowEndpoints>,
) {
    out.clear();
    out.extend(
        c.unfinished()
            .filter(|f| !ready_only || f.ready)
            .map(|f| f.endpoints(num_nodes)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FlowView;
    use saath_simcore::{Bytes, FlowId, NodeId, Time};

    fn cf(id: u32, flows: &[(u32, u32)]) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::ZERO,
            flows: flows
                .iter()
                .enumerate()
                .map(|(i, (s, d))| FlowView {
                    id: FlowId(id * 100 + i as u32),
                    src: NodeId(*s),
                    dst: NodeId(*d),
                    sent: Bytes::ZERO,
                    ready: true,
                    finished: false,
                    oracle_size: None,
                })
                .collect(),
            restarted: false,
        }
    }

    #[test]
    fn fig1_contentions() {
        // The Fig 1 topology: C2 spans senders 0,1,2; C1/C3/C4 use one
        // sender each; receivers all distinct.
        let coflows = vec![
            cf(1, &[(0, 3)]),
            cf(2, &[(0, 4), (1, 5), (2, 6)]),
            cf(3, &[(1, 7)]),
            cf(4, &[(2, 8)]),
        ];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 9,
            coflows: &coflows,
            changed: None,
        };
        assert_eq!(contention(&view), vec![1, 3, 1, 1]);
    }

    #[test]
    fn finished_flows_do_not_contend() {
        let mut coflows = vec![cf(0, &[(0, 2)]), cf(1, &[(0, 3)])];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &coflows,
            changed: None,
        };
        assert_eq!(contention(&view), vec![1, 1]);
        coflows[0].flows[0].finished = true;
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &coflows,
            changed: None,
        };
        assert_eq!(contention(&view), vec![0, 0]);
    }

    #[test]
    fn contention_counts_coflows_not_flows() {
        // CoFlow 1 has three flows on sender 0; CoFlow 0 shares that
        // port but must count CoFlow 1 once.
        let coflows = vec![cf(0, &[(0, 2)]), cf(1, &[(0, 3), (0, 4), (0, 5)])];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 6,
            coflows: &coflows,
            changed: None,
        };
        assert_eq!(contention(&view), vec![1, 1]);
    }

    #[test]
    fn receiver_side_contention_counts() {
        // Two coflows sharing only a receiver.
        let coflows = vec![cf(0, &[(0, 3)]), cf(1, &[(1, 3)])];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &coflows,
            changed: None,
        };
        assert_eq!(contention(&view), vec![1, 1]);
    }

    #[test]
    fn arena_reuse_is_stateless() {
        // Same arena across views of different shapes/sizes must give
        // the same answers as fresh allocation.
        let mut arena = RoundArena::new();
        let mut k = Vec::new();
        let big = vec![
            cf(1, &[(0, 3)]),
            cf(2, &[(0, 4), (1, 5), (2, 6)]),
            cf(3, &[(1, 7)]),
            cf(4, &[(2, 8)]),
        ];
        let small = vec![cf(0, &[(0, 2)]), cf(1, &[(0, 3)])];
        for _ in 0..3 {
            let view = ClusterView {
                now: Time::ZERO,
                num_nodes: 9,
                coflows: &big,
                changed: None,
            };
            contention_into(&view, &mut arena, &mut k);
            assert_eq!(k, contention(&view));
            let view = ClusterView {
                now: Time::ZERO,
                num_nodes: 4,
                coflows: &small,
                changed: None,
            };
            contention_into(&view, &mut arena, &mut k);
            assert_eq!(k, contention(&view));
        }
        // endpoints_into matches endpoints_of through reuse too.
        let mut eps = Vec::new();
        for c in &big {
            endpoints_into(c, 9, false, &mut eps);
            assert_eq!(eps, endpoints_of(c, 9, false));
        }
    }

    /// Tracker output with an explicit `changed` hint must equal the
    /// [`contention_into`] oracle on the same view.
    fn assert_tracker_matches(
        tracker: &mut ContentionTracker,
        num_nodes: usize,
        coflows: &[CoflowView],
        changed: Option<&[CoflowId]>,
    ) -> ContentionWork {
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes,
            coflows,
            changed,
        };
        let mut k = Vec::new();
        let work = tracker.compute_into(&view, &mut k);
        let oracle = ClusterView {
            changed: None,
            ..view
        };
        assert_eq!(k, contention(&oracle), "tracker diverged from oracle");
        work
    }

    #[test]
    fn tracker_without_hint_is_a_full_rebuild() {
        let coflows = vec![
            cf(1, &[(0, 3)]),
            cf(2, &[(0, 4), (1, 5), (2, 6)]),
            cf(3, &[(1, 7)]),
            cf(4, &[(2, 8)]),
        ];
        let mut tracker = ContentionTracker::new();
        let work = assert_tracker_matches(&mut tracker, 9, &coflows, None);
        assert!(work.full_rebuild);
        assert!(work.delta_updates > 0);
        // Steady state: nothing changed, hint says so, no deltas.
        let work = assert_tracker_matches(&mut tracker, 9, &coflows, Some(&[]));
        assert!(!work.full_rebuild);
        assert_eq!(work.delta_updates, 0);
    }

    #[test]
    fn tracker_applies_arrival_finish_and_departure_deltas() {
        let mut coflows = vec![cf(0, &[(0, 4), (1, 5)]), cf(1, &[(0, 6)])];
        let mut tracker = ContentionTracker::new();
        assert_tracker_matches(&mut tracker, 8, &coflows, None);

        // Arrival: a new CoFlow sharing sender 1 with CoFlow 0.
        coflows.push(cf(2, &[(1, 7)]));
        let work = assert_tracker_matches(&mut tracker, 8, &coflows, Some(&[CoflowId(2)]));
        assert!(!work.full_rebuild);
        assert!(work.delta_updates > 0);

        // Finish: CoFlow 0's flow on sender 0 completes, dissolving the
        // (0, 1) contention pair but keeping the (0, 2) one.
        coflows[0].flows[0].finished = true;
        assert_tracker_matches(&mut tracker, 8, &coflows, Some(&[CoflowId(0)]));

        // Departure: CoFlow 0 leaves the view entirely. Departures are
        // detected internally — the hint only names survivors.
        coflows.remove(0);
        let work = assert_tracker_matches(&mut tracker, 8, &coflows, Some(&[]));
        assert!(!work.full_rebuild);
        assert!(work.delta_updates > 0);

        // A CoFlow whose flows all finish while it stays in the view
        // must drop to zero contention, then depart cleanly.
        coflows[0].flows[0].finished = true;
        assert_tracker_matches(&mut tracker, 8, &coflows, Some(&[CoflowId(1)]));
        coflows.remove(0);
        assert_tracker_matches(&mut tracker, 8, &coflows, Some(&[]));
    }

    #[test]
    fn tracker_resets_when_the_port_space_changes() {
        let small = vec![cf(0, &[(0, 2)]), cf(1, &[(0, 3)])];
        let big = vec![
            cf(1, &[(0, 3)]),
            cf(2, &[(0, 4), (1, 5), (2, 6)]),
            cf(3, &[(1, 7)]),
            cf(4, &[(2, 8)]),
        ];
        let mut tracker = ContentionTracker::new();
        assert_tracker_matches(&mut tracker, 4, &small, None);
        // num_nodes changed: stale state must be discarded even though
        // the hint claims nothing changed.
        assert_tracker_matches(&mut tracker, 9, &big, Some(&[]));
        assert_tracker_matches(&mut tracker, 4, &small, Some(&[]));
    }

    #[test]
    fn tracker_matches_oracle_under_random_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5aa7);
        let num_nodes = 12usize;
        let mut coflows: Vec<CoflowView> = Vec::new();
        let mut next_id = 0u32;
        let mut tracker = ContentionTracker::new();
        assert_tracker_matches(&mut tracker, num_nodes, &coflows, None);
        for round in 0..200 {
            let mut changed: Vec<CoflowId> = Vec::new();
            // Arrivals.
            while coflows.len() < 3 || rng.gen_bool(0.3) {
                let width = rng.gen_range(1..6usize);
                let flows: Vec<(u32, u32)> = (0..width)
                    .map(|_| {
                        (
                            rng.gen_range(0..num_nodes as u32),
                            rng.gen_range(0..num_nodes as u32),
                        )
                    })
                    .collect();
                coflows.push(cf(next_id, &flows));
                changed.push(CoflowId(next_id));
                next_id += 1;
            }
            // Finishes (footprints shrink) and readiness flips (which
            // must NOT affect contention, but mark dirty anyway — the
            // hint is a superset).
            for c in coflows.iter_mut() {
                if rng.gen_bool(0.4) {
                    let fi = rng.gen_range(0..c.flows.len());
                    c.flows[fi].finished = true;
                    changed.push(c.id);
                }
                if rng.gen_bool(0.2) {
                    let fi = rng.gen_range(0..c.flows.len());
                    c.flows[fi].ready = !c.flows[fi].ready;
                    changed.push(c.id);
                }
            }
            // Departures: drained CoFlows usually leave; occasionally
            // one is yanked mid-transfer (failure/abort path).
            coflows.retain(|c| {
                let drained = c.flows.iter().all(|f| f.finished);
                !(drained && rng.gen_bool(0.8) || rng.gen_bool(0.05))
            });
            let work = assert_tracker_matches(&mut tracker, num_nodes, &coflows, Some(&changed));
            assert!(!work.full_rebuild, "hinted round {round} fell back");
        }
    }

    #[test]
    fn endpoints_respect_ready_filter() {
        let mut c = cf(0, &[(0, 2), (1, 3)]);
        c.flows[1].ready = false;
        assert_eq!(endpoints_of(&c, 4, false).len(), 2);
        assert_eq!(endpoints_of(&c, 4, true).len(), 1);
        c.flows[0].finished = true;
        assert_eq!(endpoints_of(&c, 4, false).len(), 1);
    }
}
