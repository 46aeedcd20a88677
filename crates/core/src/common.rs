//! Shared machinery: contention computation, endpoint extraction, and
//! the reusable scratch arena that keeps scheduling rounds
//! allocation-free.

use crate::view::{ClusterView, CoflowView};
use saath_fabric::FlowEndpoints;
use saath_simcore::FastHashMap;

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

/// Incrementally maintained per-CoFlow contention, indexed by the
/// scheduler's slab slot and fed footprint deltas instead of views.
///
/// A footprint moves only when a flow finishes (it loses at most that
/// flow's two ports), when a CoFlow arrives or departs, and in the rare
/// rounds where the owner has to re-derive a whole endpoint list (an
/// un-finish after a coordinator restart, a port-space change). The
/// owner tells the tracker which of these happened, slot by slot —
/// [`drop_ports`](Self::drop_ports), [`set`](Self::set),
/// [`clear`](Self::clear) — and reads [`k`](Self::k) back by slot.
/// Nothing here is keyed by `CoflowId`, and nothing walks a view.
///
/// # Invariant
///
/// After every call, for each slot `s` the owner has handed a
/// footprint:
///
/// * `footprints[s]` is the sorted list of `(port, n)` where `n > 0`
///   unfinished flows of the slot's CoFlow touch `port` — the multiset
///   of the endpoint list last [`set`](Self::set), less every port
///   since dropped;
/// * `port_slots[p]` holds exactly the slots whose footprint contains
///   `p`;
/// * `pairs[(a, b)]` (slots ordered `a < b`) is the number of ports the
///   two footprints share, present only when nonzero;
/// * `k[s]` is the number of other slots `o` with `pairs[(s, o)] > 0` —
///   exactly the §3.3 contention [`contention_into`] computes for the
///   CoFlow the slot holds.
///
/// A port *joins* a footprint when its count goes 0 → 1 and *leaves*
/// when it goes 1 → 0; each join or leave adjusts the pair count of
/// every other slot on that port, and `k` moves only on a pair's 0 ↔ 1
/// transitions. Every operation returns its joins plus leaves, the
/// `contention_deltas` telemetry counter.
///
/// [`contention_into`] remains the oracle: `Saath::compute` asserts
/// equality in debug builds, and the churn tests here and in `saath.rs`
/// compare against it in every build.
#[derive(Default)]
pub struct ContentionTracker {
    /// Slot → sorted `(port, unfinished flows of the CoFlow on it)`.
    /// A slot's allocation stays with it across occupants.
    footprints: Vec<Vec<(u32, u32)>>,
    /// Port membership, pair counts and `k`.
    shared: Sharing,
    /// Fresh-footprint scratch for [`set`](Self::set).
    scratch: Vec<(u32, u32)>,
}

/// The cross-slot half of the tracker, split off so a footprint can be
/// walked while the ports it names join or leave.
#[derive(Default)]
struct Sharing {
    /// Port → slots whose footprint contains it (unordered).
    port_slots: Vec<Vec<u32>>,
    /// Slot pair `(a, b)`, `a < b` → number of shared ports (> 0).
    pairs: FastHashMap<(u32, u32), u32>,
    /// Slot → contention `k`.
    k: Vec<u32>,
}

impl ContentionTracker {
    /// A fresh, empty tracker.
    pub fn new() -> ContentionTracker {
        ContentionTracker::default()
    }

    /// Contention of the CoFlow in `slot` (0 for a slot never set).
    pub fn k(&self, slot: u32) -> u32 {
        self.shared.k.get(slot as usize).copied().unwrap_or(0)
    }

    /// Makes `eps` the footprint of `slot`: the new footprint is diffed
    /// against the stored one, so only ports that really join or leave
    /// cost anything. Returns the joins plus leaves.
    pub fn set(&mut self, slot: u32, eps: &[FlowEndpoints]) -> u64 {
        let s = slot as usize;
        if self.footprints.len() <= s {
            self.footprints.resize_with(s + 1, Vec::new);
        }
        if self.shared.k.len() <= s {
            self.shared.k.resize(s + 1, 0);
        }
        let fresh = &mut self.scratch;
        fresh.clear();
        for e in eps {
            fresh.push((e.src.index() as u32, 1));
            fresh.push((e.dst.index() as u32, 1));
        }
        fresh.sort_unstable();
        fresh.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 += later.1;
                true
            }
        });

        let old = &mut self.footprints[s];
        let mut deltas = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < fresh.len() {
            match (old.get(i), fresh.get(j)) {
                (Some(&(a, _)), Some(&(b, _))) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&(a, _)), Some(&(b, _))) if a < b => {
                    self.shared.leave(slot, a);
                    deltas += 1;
                    i += 1;
                }
                (Some(&(a, _)), None) => {
                    self.shared.leave(slot, a);
                    deltas += 1;
                    i += 1;
                }
                (_, Some(&(b, _))) => {
                    self.shared.join(slot, b);
                    deltas += 1;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        old.clear();
        old.extend_from_slice(fresh);
        deltas
    }

    /// Removes one flow's worth of each port in `ports` from the
    /// footprint of `slot` — the two ports of every flow that finished.
    /// A port leaves only when no unfinished flow of the CoFlow is left
    /// on it. Returns the leaves.
    ///
    /// # Panics
    ///
    /// If a port is not in the footprint: the owner's endpoint list and
    /// the tracker have diverged.
    pub fn drop_ports(&mut self, slot: u32, ports: &[u32]) -> u64 {
        let footprint = &mut self.footprints[slot as usize];
        let mut deltas = 0u64;
        for &p in ports {
            let at = footprint
                .binary_search_by_key(&p, |&(port, _)| port)
                .expect("dropped port not in the footprint");
            let flows = &mut footprint[at].1;
            *flows -= 1;
            if *flows == 0 {
                self.shared.leave(slot, p);
                deltas += 1;
            }
        }
        if deltas > 0 {
            footprint.retain(|&(_, flows)| flows > 0);
        }
        deltas
    }

    /// Empties the footprint of `slot`, whose CoFlow departed. Returns
    /// the leaves.
    pub fn clear(&mut self, slot: u32) -> u64 {
        let Some(footprint) = self.footprints.get_mut(slot as usize) else {
            return 0;
        };
        for &(p, _) in footprint.iter() {
            self.shared.leave(slot, p);
        }
        debug_assert_eq!(
            self.shared.k[slot as usize], 0,
            "departed slot still paired"
        );
        let deltas = footprint.len() as u64;
        footprint.clear();
        deltas
    }
}

impl Sharing {
    /// `slot` now has an unfinished flow on port `p`.
    fn join(&mut self, slot: u32, p: u32) {
        let p = p as usize;
        if self.port_slots.len() <= p {
            self.port_slots.resize_with(p + 1, Vec::new);
        }
        let Sharing {
            port_slots,
            pairs,
            k,
        } = self;
        for &other in &port_slots[p] {
            debug_assert_ne!(other, slot);
            let shared = pairs.entry(pair_key(slot, other)).or_insert(0);
            *shared += 1;
            if *shared == 1 {
                k[slot as usize] += 1;
                k[other as usize] += 1;
            }
        }
        port_slots[p].push(slot);
    }

    /// `slot` has no unfinished flow left on port `p`.
    fn leave(&mut self, slot: u32, p: u32) {
        let Sharing {
            port_slots,
            pairs,
            k,
        } = self;
        let members = &mut port_slots[p as usize];
        let pos = members
            .iter()
            .position(|&m| m == slot)
            .expect("leave of a port not joined");
        members.swap_remove(pos);
        for &other in members.iter() {
            let key = pair_key(slot, other);
            let shared = pairs.get_mut(&key).expect("pair decrement below zero");
            *shared -= 1;
            if *shared == 0 {
                pairs.remove(&key);
                k[slot as usize] -= 1;
                k[other as usize] -= 1;
            }
        }
    }
}

fn pair_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
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
    use saath_simcore::{Bytes, CoflowId, FlowId, NodeId, Time};

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

    /// What an owner does with a tracker, on a slot-indexed model: the
    /// CoFlow each slot holds, departed slots reused first.
    struct Slots {
        num_nodes: usize,
        held: Vec<Option<CoflowView>>,
        tracker: ContentionTracker,
    }

    impl Slots {
        fn new(num_nodes: usize) -> Slots {
            Slots {
                num_nodes,
                held: Vec::new(),
                tracker: ContentionTracker::new(),
            }
        }

        fn eps(&self, slot: usize) -> Vec<FlowEndpoints> {
            let c = self.held[slot].as_ref().expect("slot is free");
            endpoints_of(c, self.num_nodes, false)
        }

        /// Takes the first free slot; returns it and the joins.
        fn arrive(&mut self, c: CoflowView) -> (usize, u64) {
            let slot = match self.held.iter().position(Option::is_none) {
                Some(slot) => slot,
                None => {
                    self.held.push(None);
                    self.held.len() - 1
                }
            };
            self.held[slot] = Some(c);
            let eps = self.eps(slot);
            (slot, self.tracker.set(slot as u32, &eps))
        }

        fn finish(&mut self, slot: usize, flow: usize) -> u64 {
            let num_nodes = self.num_nodes;
            let f = &mut self.held[slot].as_mut().unwrap().flows[flow];
            assert!(!f.finished);
            f.finished = true;
            let e = f.endpoints(num_nodes);
            let ports = [e.src.index() as u32, e.dst.index() as u32];
            self.tracker.drop_ports(slot as u32, &ports)
        }

        fn unfinish(&mut self, slot: usize, flow: usize) -> u64 {
            self.held[slot].as_mut().unwrap().flows[flow].finished = false;
            let eps = self.eps(slot);
            self.tracker.set(slot as u32, &eps)
        }

        fn depart(&mut self, slot: usize) -> u64 {
            self.held[slot] = None;
            self.tracker.clear(slot as u32)
        }

        /// `k` of every held slot, in slot order, equals the oracle's
        /// on a view of the held CoFlows in the same order.
        fn check(&self) {
            let live: Vec<(usize, CoflowView)> = (self.held.iter().enumerate())
                .filter_map(|(slot, c)| c.clone().map(|c| (slot, c)))
                .collect();
            let coflows: Vec<CoflowView> = live.iter().map(|(_, c)| c.clone()).collect();
            let view = ClusterView {
                now: Time::ZERO,
                num_nodes: self.num_nodes,
                coflows: &coflows,
                changed: None,
            };
            let k: Vec<u32> = live
                .iter()
                .map(|&(s, _)| self.tracker.k(s as u32))
                .collect();
            assert_eq!(k, contention(&view), "tracker diverged from oracle");
        }
    }

    #[test]
    fn tracker_set_diffs_against_the_stored_footprint() {
        let mut slots = Slots::new(9);
        for c in [
            cf(1, &[(0, 3)]),
            cf(2, &[(0, 4), (1, 5), (2, 6)]),
            cf(3, &[(1, 7)]),
            cf(4, &[(2, 8)]),
        ] {
            slots.arrive(c);
        }
        slots.check();
        // Setting the same list again — an unhinted round that found
        // nothing moved — costs no delta.
        for slot in 0..4 {
            let eps = slots.eps(slot);
            assert_eq!(slots.tracker.set(slot as u32, &eps), 0);
        }
        slots.check();
    }

    #[test]
    fn tracker_applies_arrival_finish_and_departure_deltas() {
        let mut slots = Slots::new(8);
        // Slot 0: ports 0, 1 (senders) and 12, 13 (receivers 4, 5).
        assert_eq!(slots.arrive(cf(0, &[(0, 4), (1, 5), (1, 4)])), (0, 4));
        assert_eq!(slots.arrive(cf(1, &[(0, 6)])), (1, 2));
        slots.check();

        // Arrival: a new CoFlow sharing sender 1 with CoFlow 0.
        assert_eq!(slots.arrive(cf(2, &[(1, 7)])), (2, 2));
        slots.check();

        // Finish: CoFlow 0's flow on sender 0 completes, dissolving the
        // (0, 1) contention pair — but receiver 4 is still held by its
        // third flow, so only the sender leaves.
        assert_eq!(slots.finish(0, 0), 1);
        slots.check();
        // Then receiver 4 goes (sender 1 is still held), then sender 1
        // and receiver 5 together.
        assert_eq!(slots.finish(0, 2), 1);
        assert_eq!(slots.finish(0, 1), 2);
        assert_eq!(slots.tracker.k(0), 0);
        slots.check();

        // Un-finish: the list is set whole and diffed.
        assert_eq!(slots.unfinish(0, 0), 2);
        slots.check();

        // Departure leaves every port; the next arrival takes the slot.
        assert_eq!(slots.depart(0), 2);
        slots.check();
        assert_eq!(slots.arrive(cf(3, &[(1, 6)])), (0, 2));
        slots.check();
        assert_eq!(slots.tracker.k(0), 2);
    }

    #[test]
    fn tracker_starts_over_from_a_fresh_tracker() {
        // A port-space change: the owner replaces the tracker and sets
        // every footprint again in the new space.
        let mut slots = Slots::new(4);
        slots.arrive(cf(0, &[(0, 2)]));
        slots.arrive(cf(1, &[(0, 3)]));
        slots.check();
        slots.num_nodes = 9;
        slots.tracker = ContentionTracker::new();
        for slot in 0..2 {
            let eps = slots.eps(slot);
            assert_eq!(slots.tracker.set(slot as u32, &eps), 2);
        }
        slots.arrive(cf(2, &[(0, 8), (1, 3)]));
        slots.check();
    }

    #[test]
    fn tracker_matches_oracle_under_random_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5aa7);
        let num_nodes = 12u32;
        let mut slots = Slots::new(num_nodes as usize);
        let mut next_id = 0u32;
        for _ in 0..200 {
            // Arrivals.
            while slots.held.iter().flatten().count() < 3 || rng.gen_bool(0.3) {
                let width = rng.gen_range(1..6usize);
                let flows: Vec<(u32, u32)> = (0..width)
                    .map(|_| (rng.gen_range(0..num_nodes), rng.gen_range(0..num_nodes)))
                    .collect();
                slots.arrive(cf(next_id, &flows));
                next_id += 1;
            }
            for slot in 0..slots.held.len() {
                let Some(c) = &slots.held[slot] else {
                    continue;
                };
                let fi = rng.gen_range(0..c.flows.len());
                let finished = c.flows[fi].finished;
                // Finishes (footprints shrink), the occasional
                // un-finish (a restarted coordinator's forgotten
                // observations) and the occasional unhinted re-set.
                if !finished && rng.gen_bool(0.4) {
                    slots.finish(slot, fi);
                } else if finished && rng.gen_bool(0.1) {
                    slots.unfinish(slot, fi);
                } else if rng.gen_bool(0.1) {
                    let eps = slots.eps(slot);
                    assert_eq!(slots.tracker.set(slot as u32, &eps), 0);
                }
                // Departures: drained CoFlows usually leave;
                // occasionally one is yanked mid-transfer.
                let c = slots.held[slot].as_ref().unwrap();
                let drained = c.flows.iter().all(|f| f.finished);
                if drained && rng.gen_bool(0.8) || rng.gen_bool(0.05) {
                    slots.depart(slot);
                }
            }
            slots.check();
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
