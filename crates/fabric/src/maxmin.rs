//! Global max-min fair rate allocation (progressive filling).
//!
//! This is the classic water-filling construction: grow every
//! still-unfixed flow's rate in lockstep; whenever a port saturates, fix
//! all of its flows at the current level; repeat. The fixed point is the
//! unique max-min fair allocation, which is the standard fluid
//! approximation of what long-lived TCP flows converge to — the paper's
//! **UC-TCP** baseline ("all the flows are scheduled upon arrival as per
//! TCP", §6.1).
//!
//! The implementation is the exact combinatorial version, not the
//! iterative approximation: each round picks the port with the smallest
//! `remaining capacity / unfixed flow count`, fixes its flows, and
//! charges the other ports. With `P` ports and `F` flows it runs in
//! `O(P² + P·F)`, which is tiny at the paper's scale (≤300 ports).
//!
//! ## Tie-breaking (load-bearing, do not change casually)
//!
//! When several ports share the smallest fair share, the **lowest port
//! index wins**: the scan walks ports in ascending index and `s <=
//! share` keeps the incumbent. With integer division the bottleneck
//! choice *can* change the final rates (fixing at port `a` first may
//! leave a one-quantum-larger share at port `b` than the other order
//! would), so this rule is part of the byte-determinism contract —
//! locked by `ties_pick_the_lowest_port_index` below.

use crate::gang::FlowEndpoints;
use crate::port::PortBank;
use saath_simcore::Rate;

/// Reusable per-port/per-flow bookkeeping for [`max_min_fair_into`], so
/// repeated rounds allocate nothing.
///
/// Structure-of-arrays layout: flat `u32` src/dst port indices per flow
/// plus `u64` capacity/count slabs per port, and a compacted list of
/// still-unfixed flow indices — the fix-and-charge loop touches only
/// dense integer arrays, so it autovectorizes and skips already-fixed
/// flows entirely (the former `Vec<bool>` sidecar made every pass
/// re-scan all flows).
#[derive(Default)]
pub struct MaxMinScratch {
    cap: Vec<u64>,
    count: Vec<u64>,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    /// Indices of flows not yet fixed, in ascending order (retain keeps
    /// relative order, so the charge sequence matches the historical
    /// all-flows scan exactly).
    active: Vec<u32>,
    /// Cumulative progressive-filling iterations (one per bottleneck
    /// fixed) across every call that used this scratch.
    pub iterations: u64,
}

/// Computes the max-min fair rate for every flow subject to the
/// *remaining* capacities in `bank`. Does not draw down the bank; the
/// caller applies the result if desired.
///
/// Flows whose src or dst port has zero capacity get `Rate::ZERO`.
pub fn max_min_fair(bank: &PortBank, flows: &[FlowEndpoints]) -> Vec<Rate> {
    let mut rates = Vec::new();
    max_min_fair_into(bank, flows, &mut MaxMinScratch::default(), &mut rates);
    rates
}

/// [`max_min_fair`] writing into a caller-provided buffer (cleared
/// first) with all bookkeeping drawn from `scratch` — the
/// allocation-free form for hot scheduling loops.
pub fn max_min_fair_into(
    bank: &PortBank,
    flows: &[FlowEndpoints],
    scratch: &mut MaxMinScratch,
    rates: &mut Vec<Rate>,
) {
    let np = bank.num_ports();
    rates.clear();
    rates.resize(flows.len(), Rate::ZERO);
    if flows.is_empty() {
        return;
    }

    // Per-port and per-flow slabs (see MaxMinScratch).
    let MaxMinScratch {
        cap,
        count,
        srcs,
        dsts,
        active,
        iterations,
    } = scratch;
    cap.clear();
    cap.extend_from_slice(bank.remaining_slab());
    count.clear();
    count.resize(np, 0);
    srcs.clear();
    dsts.clear();
    for f in flows {
        srcs.push(f.src.index() as u32);
        dsts.push(f.dst.index() as u32);
    }
    for (&s, &d) in srcs.iter().zip(dsts.iter()) {
        count[s as usize] += 1;
        count[d as usize] += 1;
    }
    active.clear();
    active.extend(0..flows.len() as u32);

    loop {
        // Find the tightest port among those with unfixed flows.
        // Ascending scan; ties keep the lowest index (module docs).
        let mut best: Option<(usize, u64)> = None; // (port, fair share)
        for p in 0..np {
            if count[p] == 0 {
                continue;
            }
            let share = cap[p] / count[p];
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((p, share)),
            }
        }
        let Some((bottleneck, level)) = best else {
            break;
        };
        *iterations += 1;

        // Fix every unfixed flow crossing the bottleneck at `level`,
        // charge its ports, and compact it out of the active list.
        let b = bottleneck as u32;
        active.retain(|&i| {
            let (s, d) = (srcs[i as usize], dsts[i as usize]);
            if s != b && d != b {
                return true;
            }
            rates[i as usize] = Rate(level);
            for p in [s as usize, d as usize] {
                // Explicit saturation: the bottleneck's own remainder
                // (integer division) must floor at zero, not wrap.
                cap[p] = cap[p].saturating_sub(level);
                count[p] -= 1;
            }
            false
        });
        // The bottleneck may retain a sub-`count` remainder from integer
        // division; it has no unfixed flows left, so it is inert now.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saath_simcore::{FlowId, NodeId, PortId};

    fn fe(flow: u32, src: u32, dst_node: u32, n: usize) -> FlowEndpoints {
        FlowEndpoints {
            flow: FlowId(flow),
            src: PortId::uplink(NodeId(src)),
            dst: PortId::downlink(NodeId(dst_node), n),
        }
    }

    #[test]
    fn equal_shares_on_one_port() {
        let bank = PortBank::uniform(4, Rate(90));
        // Three flows out of node 0 to distinct receivers.
        let flows = [fe(0, 0, 1, 4), fe(1, 0, 2, 4), fe(2, 0, 3, 4)];
        let rates = max_min_fair(&bank, &flows);
        assert_eq!(rates, vec![Rate(30); 3]);
    }

    #[test]
    fn classic_two_bottleneck_example() {
        // Textbook: flows A (0→2), B (0→3), C (1→3). Port up0 carries
        // A,B; port down3 carries B,C. cap=100 everywhere.
        // Max-min: A=50, B=50, C=50. (Both contended ports split evenly.)
        let bank = PortBank::uniform(4, Rate(100));
        let flows = [fe(0, 0, 2, 4), fe(1, 0, 3, 4), fe(2, 1, 3, 4)];
        let rates = max_min_fair(&bank, &flows);
        assert_eq!(rates, vec![Rate(50), Rate(50), Rate(50)]);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // down2 capacity 30 carrying one flow; up0 capacity 100 carrying
        // two. Flow A (0→2) is limited to 30 by its receiver; flow B
        // (0→3) then gets the rest of up0 = 70.
        let mut bank = PortBank::uniform(4, Rate(100));
        bank.set_capacity(PortId::downlink(NodeId(2), 4), Rate(30));
        let flows = [fe(0, 0, 2, 4), fe(1, 0, 3, 4)];
        let rates = max_min_fair(&bank, &flows);
        assert_eq!(rates, vec![Rate(30), Rate(70)]);
    }

    /// Locks the documented tie-break: when two ports offer the same
    /// integer fair share, the lowest-indexed one is fixed first. The
    /// choice is observable — here up0 (101 across A, B → share 50)
    /// ties with down2 (50 for A alone → share 50). Fixing up0 first
    /// pins B at 50; fixing down2 first would leave B the 51 remainder.
    #[test]
    fn ties_pick_the_lowest_port_index() {
        let mut bank = PortBank::uniform(4, Rate(101));
        bank.set_capacity(PortId::downlink(NodeId(2), 4), Rate(50));
        let flows = [fe(0, 0, 2, 4), fe(1, 0, 3, 4)];
        let rates = max_min_fair(&bank, &flows);
        assert_eq!(
            rates,
            vec![Rate(50), Rate(50)],
            "tie must resolve to port 0 (up0), fixing both flows at 50"
        );
    }

    #[test]
    fn dead_port_starves_only_its_flows() {
        let mut bank = PortBank::uniform(4, Rate(100));
        bank.set_capacity(PortId::uplink(NodeId(0)), Rate(0));
        let flows = [fe(0, 0, 2, 4), fe(1, 1, 3, 4)];
        let rates = max_min_fair(&bank, &flows);
        assert_eq!(rates[0], Rate::ZERO);
        assert_eq!(rates[1], Rate(100));
    }

    proptest! {
        /// The allocation is always feasible, and work-conserving up to
        /// integer-division remainders: every flow with a zero rate has
        /// a saturated-or-dead port (within one remainder quantum).
        #[test]
        fn feasible_and_nearly_work_conserving(
            spec in proptest::collection::vec((0u32..5, 0u32..5), 1..25),
            cap in 100u64..1_000_000,
        ) {
            let n = 5;
            let bank = PortBank::uniform(n, Rate(cap));
            let flows: Vec<FlowEndpoints> = spec
                .iter()
                .enumerate()
                .map(|(i, (s, d))| fe(i as u32, *s, *d, n))
                .collect();
            let rates = max_min_fair(&bank, &flows);

            // Feasibility per port.
            let mut used = vec![0u64; bank.num_ports()];
            for (f, r) in flows.iter().zip(&rates) {
                used[f.src.index()] += r.as_u64();
                used[f.dst.index()] += r.as_u64();
            }
            for (p, &u) in used.iter().enumerate() {
                prop_assert!(u <= cap, "port {p} oversubscribed: {u} > {cap}");
            }

            // No flow gets zero unless a port it crosses is (nearly) full.
            let nflows = flows.len() as u64;
            for (f, r) in flows.iter().zip(&rates) {
                if r.is_zero() {
                    let src_left = cap - used[f.src.index()];
                    let dst_left = cap - used[f.dst.index()];
                    prop_assert!(
                        src_left.min(dst_left) <= nflows,
                        "zero-rate flow with {src_left}/{dst_left} spare"
                    );
                }
            }
        }

        /// Max-min dominance: no flow can be raised without lowering a
        /// flow with an equal-or-smaller rate — checked via the standard
        /// bottleneck characterization: every flow has a port that is
        /// (nearly) saturated where the flow's rate is maximal.
        #[test]
        fn bottleneck_characterization(
            spec in proptest::collection::vec((0u32..4, 0u32..4), 1..16),
        ) {
            let n = 4;
            let cap = 10_000u64;
            let bank = PortBank::uniform(n, Rate(cap));
            let flows: Vec<FlowEndpoints> = spec
                .iter()
                .enumerate()
                .map(|(i, (s, d))| fe(i as u32, *s, *d, n))
                .collect();
            let rates = max_min_fair(&bank, &flows);

            let mut used = vec![0u64; bank.num_ports()];
            let mut maxrate = vec![0u64; bank.num_ports()];
            for (f, r) in flows.iter().zip(&rates) {
                for p in [f.src.index(), f.dst.index()] {
                    used[p] += r.as_u64();
                    maxrate[p] = maxrate[p].max(r.as_u64());
                }
            }
            let slack = flows.len() as u64; // integer-division tolerance
            for (f, r) in flows.iter().zip(&rates) {
                let has_bottleneck = [f.src.index(), f.dst.index()].iter().any(|&p| {
                    cap - used[p] <= slack && r.as_u64() + slack >= maxrate[p]
                });
                prop_assert!(
                    has_bottleneck,
                    "flow {:?} rate {} lacks a bottleneck port",
                    f.flow, r
                );
            }
        }
    }
}
