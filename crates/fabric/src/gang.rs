//! All-or-none (gang) allocation and greedy per-flow filling.
//!
//! These are the two rate-assignment moves in the Saath scheduling
//! round (Fig 7 of the paper):
//!
//! * [`gang_rate`] implements **D2**: when a CoFlow passes the
//!   all-or-none admission check, every one of its flows receives the
//!   *same* rate — the max-min fair share of the most contended port the
//!   CoFlow touches. There is no point running some flows faster when
//!   the CCT is decided by the slowest one.
//! * [`greedy_fill`] implements **work conservation** (D4) and doubles
//!   as Aalo's per-port FIFO behaviour: walk flows in a given order and
//!   hand each the minimum of its two ports' remaining capacity.
//!
//! Under all-or-none a CoFlow's rate is a question about its ports, not
//! its flows: every flow gets the same rate, so all that matters of a
//! port is how many of the CoFlow's flows cross it. That map — the
//! *port footprint*, each touched port with its own-flow count, sorted
//! by port ([`footprint_into`]) — is what [`footprint_gang_rate`] and
//! [`footprint_gang_allocate`] read. An M×R shuffle has M·R flows on
//! M+R ports, so a caller that keeps the footprint between rounds pays
//! O(ports) per admission test instead of [`gang_rate_with`]'s
//! O(flows) scatter, gather and reset. The two pairs compute the same
//! rate and leave the same bank.

use crate::port::PortBank;
use saath_simcore::{FlowId, PortId, Rate};

/// A flow as the allocator sees it: an id plus its two contended ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEndpoints {
    /// The flow being allocated.
    pub flow: FlowId,
    /// The sender's uplink port.
    pub src: PortId,
    /// The receiver's downlink port.
    pub dst: PortId,
}

/// Computes the equal rate a gang-scheduled CoFlow would get, without
/// allocating anything.
///
/// For every port `p` the CoFlow touches, its fair claim is
/// `remaining(p) / n(p)` where `n(p)` is the number of the CoFlow's own
/// flows at `p`; the gang rate is the minimum claim over all ports
/// (the "slowest flow" of §4.2-D2). Returns `Rate::ZERO` when any port
/// is exhausted — which is exactly the all-or-none rejection condition.
///
/// `scratch` is a caller-provided `(port index → flow count)` map sized
/// `bank.num_ports()`, zeroed on entry and exit; passing it in keeps the
/// hot scheduling loop allocation-free.
pub fn gang_rate(bank: &PortBank, flows: &[FlowEndpoints], scratch: &mut Vec<u32>) -> Rate {
    let mut touched: Vec<PortId> = Vec::new();
    gang_rate_with(bank, flows, scratch, &mut touched)
}

/// [`gang_rate`] with the touched-port list also caller-provided, so a
/// scheduling round that tests many CoFlows allocates nothing at all.
/// `touched` may hold garbage on entry; it is cleared here.
pub fn gang_rate_with(
    bank: &PortBank,
    flows: &[FlowEndpoints],
    scratch: &mut Vec<u32>,
    touched: &mut Vec<PortId>,
) -> Rate {
    debug_assert!(scratch.iter().all(|&c| c == 0), "scratch not zeroed");
    scratch.resize(bank.num_ports(), 0);
    if flows.is_empty() {
        return Rate::ZERO;
    }
    touched.clear();
    for f in flows {
        for p in [f.src, f.dst] {
            if scratch[p.index()] == 0 {
                touched.push(p);
            }
            scratch[p.index()] += 1;
        }
    }
    // Bulk read off the remaining slab: claim = remaining / own-flow
    // count, min over touched ports (`Rate::div_even` is plain floor
    // division, inlined here on the raw u64s).
    let rem = bank.remaining_slab();
    let mut rate = u64::MAX;
    for &p in touched.iter() {
        let claim = rem[p.index()] / scratch[p.index()] as u64;
        rate = rate.min(claim);
    }
    for &p in touched.iter() {
        scratch[p.index()] = 0;
    }
    Rate(rate)
}

/// The port footprint of `flows` into `out` (cleared first): each port
/// they touch, once, with how many of them touch it, sorted by port.
/// A flow whose two ports coincide counts twice on it, as it draws
/// twice from it.
pub fn footprint_into(flows: &[FlowEndpoints], out: &mut Vec<(PortId, u32)>) {
    out.clear();
    for f in flows {
        out.push((f.src, 1));
        out.push((f.dst, 1));
    }
    out.sort_unstable();
    out.dedup_by(|later, kept| {
        later.0 == kept.0 && {
            kept.1 += later.1;
            true
        }
    });
}

/// [`gang_rate_with`] read off a port footprint (see the module docs):
/// the minimum over its ports of `remaining / own flows`, stopping at
/// the first port that cannot give each of its flows a byte per second.
/// `Rate::ZERO` for an empty footprint, as for an empty flow list.
pub fn footprint_gang_rate(bank: &PortBank, footprint: &[(PortId, u32)]) -> Rate {
    if footprint.is_empty() {
        return Rate::ZERO;
    }
    let rem = bank.remaining_slab();
    let mut rate = u64::MAX;
    for &(p, flows) in footprint {
        let claim = rem[p.index()] / u64::from(flows);
        if claim == 0 {
            return Rate::ZERO;
        }
        rate = rate.min(claim);
    }
    Rate(rate)
}

/// [`gang_allocate`] over a port footprint: each port gives `rate` to
/// each of its own flows at once. With `rate` from
/// [`footprint_gang_rate`] on the same bank, `rate · flows` never
/// exceeds what the port has left.
pub fn footprint_gang_allocate(bank: &mut PortBank, footprint: &[(PortId, u32)], rate: Rate) {
    if rate.is_zero() {
        return;
    }
    for &(p, flows) in footprint {
        bank.allocate(p, Rate(rate.as_u64() * u64::from(flows)));
    }
}

/// Allocates `rate` to every flow of a gang-admitted CoFlow, drawing
/// down the bank. The caller obtains `rate` from [`gang_rate`] first;
/// the two are split so the admission test stays side-effect free.
pub fn gang_allocate(bank: &mut PortBank, flows: &[FlowEndpoints], rate: Rate) {
    if rate.is_zero() {
        return;
    }
    for f in flows {
        bank.allocate(f.src, rate);
        bank.allocate(f.dst, rate);
    }
}

/// Greedy per-flow filling: walks `flows` in order and gives each the
/// minimum of its ports' remaining capacity (possibly zero), drawing
/// down the bank. Returns the assigned rates, parallel to `flows`.
///
/// This is Saath's work-conservation step (the order encodes the missed
/// CoFlows' priority) and, when fed flows in (queue, CoFlow-arrival,
/// flow-id) order, Aalo's uncoordinated per-port FIFO allocation.
pub fn greedy_fill(bank: &mut PortBank, flows: &[FlowEndpoints]) -> Vec<Rate> {
    let mut out = Vec::with_capacity(flows.len());
    greedy_fill_into(bank, flows, &mut out);
    out
}

/// [`greedy_fill`] writing into a caller-provided buffer (cleared
/// first), for allocation-free scheduling rounds.
pub fn greedy_fill_into(bank: &mut PortBank, flows: &[FlowEndpoints], out: &mut Vec<Rate>) {
    out.clear();
    for f in flows {
        let r = bank.remaining(f.src).min(bank.remaining(f.dst));
        if !r.is_zero() {
            bank.allocate(f.src, r);
            bank.allocate(f.dst, r);
        }
        out.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saath_simcore::NodeId;

    fn fe(flow: u32, src: u32, dst_node: u32, n: usize) -> FlowEndpoints {
        FlowEndpoints {
            flow: FlowId(flow),
            src: PortId::uplink(NodeId(src)),
            dst: PortId::downlink(NodeId(dst_node), n),
        }
    }

    #[test]
    fn gang_rate_single_flow_takes_bottleneck() {
        let mut bank = PortBank::uniform(2, Rate(100));
        bank.allocate(PortId::downlink(NodeId(1), 2), Rate(70));
        let flows = [fe(0, 0, 1, 2)];
        let mut scratch = vec![0; bank.num_ports()];
        assert_eq!(gang_rate(&bank, &flows, &mut scratch), Rate(30));
        // scratch is returned zeroed.
        assert!(scratch.iter().all(|&c| c == 0));
    }

    #[test]
    fn gang_rate_shares_a_common_port() {
        // Two flows of one CoFlow leaving the same uplink: each can get
        // at most half of it.
        let bank = PortBank::uniform(3, Rate(100));
        let flows = [fe(0, 0, 1, 3), fe(1, 0, 2, 3)];
        let mut scratch = vec![0; bank.num_ports()];
        assert_eq!(gang_rate(&bank, &flows, &mut scratch), Rate(50));
    }

    #[test]
    fn gang_rate_zero_when_any_port_full() {
        let mut bank = PortBank::uniform(3, Rate(100));
        bank.allocate(PortId::downlink(NodeId(2), 3), Rate(100));
        let flows = [fe(0, 0, 1, 3), fe(1, 0, 2, 3)];
        let mut scratch = vec![0; bank.num_ports()];
        assert_eq!(
            gang_rate(&bank, &flows, &mut scratch),
            Rate::ZERO,
            "all-or-none must reject when one port is exhausted"
        );
    }

    #[test]
    fn gang_allocate_draws_every_port() {
        let mut bank = PortBank::uniform(3, Rate(100));
        let flows = [fe(0, 0, 1, 3), fe(1, 0, 2, 3)];
        let mut scratch = vec![0; bank.num_ports()];
        let r = gang_rate(&bank, &flows, &mut scratch);
        gang_allocate(&mut bank, &flows, r);
        assert_eq!(bank.remaining(PortId::uplink(NodeId(0))), Rate(0));
        assert_eq!(bank.remaining(PortId::downlink(NodeId(1), 3)), Rate(50));
        assert_eq!(bank.remaining(PortId::downlink(NodeId(2), 3)), Rate(50));
    }

    #[test]
    fn footprint_counts_own_flows_per_port() {
        // Two flows out of sender 0, one of them into receiver 1 with a
        // third flow.
        let flows = [fe(0, 0, 1, 3), fe(1, 0, 2, 3), fe(2, 2, 1, 3)];
        let mut footprint = vec![(PortId(9), 9)];
        footprint_into(&flows, &mut footprint);
        let down = |node| PortId::downlink(NodeId(node), 3);
        assert_eq!(
            footprint,
            [(PortId(0), 2), (PortId(2), 1), (down(1), 2), (down(2), 1)]
        );
        let mut bank = PortBank::uniform(3, Rate(100));
        bank.allocate(down(2), Rate(70));
        assert_eq!(footprint_gang_rate(&bank, &footprint), Rate(30));
        footprint_gang_allocate(&mut bank, &footprint, Rate(30));
        assert_eq!(bank.remaining(PortId(0)), Rate(40));
        assert_eq!(bank.remaining(down(1)), Rate(40));
        assert_eq!(bank.remaining(down(2)), Rate(0));
        // An exhausted port rejects; so does one left with less than a
        // byte per second for each of its own flows.
        assert_eq!(footprint_gang_rate(&bank, &footprint), Rate::ZERO);
        let bank = PortBank::uniform(3, Rate(1));
        assert_eq!(footprint_gang_rate(&bank, &footprint), Rate::ZERO);
        assert_eq!(footprint_gang_rate(&bank, &[]), Rate::ZERO);
    }

    #[test]
    fn greedy_fill_order_matters() {
        // Both flows want the same uplink; first in order gets it all.
        let mut bank = PortBank::uniform(3, Rate(100));
        let flows = [fe(0, 0, 1, 3), fe(1, 0, 2, 3)];
        let rates = greedy_fill(&mut bank, &flows);
        assert_eq!(rates, vec![Rate(100), Rate(0)]);
    }

    #[test]
    fn greedy_fill_independent_flows_all_win() {
        let mut bank = PortBank::uniform(4, Rate(100));
        let flows = [fe(0, 0, 2, 4), fe(1, 1, 3, 4)];
        let rates = greedy_fill(&mut bank, &flows);
        assert_eq!(rates, vec![Rate(100), Rate(100)]);
    }

    proptest! {
        /// Gang allocation never over-subscribes any port, for random
        /// CoFlows over a small cluster.
        #[test]
        fn gang_never_oversubscribes(
            pairs in proptest::collection::vec((0u32..6, 0u32..6), 1..20),
            cap in 1u64..1_000_000,
        ) {
            let n = 6;
            let mut bank = PortBank::uniform(n, Rate(cap));
            let flows: Vec<FlowEndpoints> = pairs
                .iter()
                .enumerate()
                .map(|(i, (s, d))| fe(i as u32, *s, *d, n))
                .collect();
            let mut scratch = vec![0; bank.num_ports()];
            let r = gang_rate(&bank, &flows, &mut scratch);
            gang_allocate(&mut bank, &flows, r);
            // allocate() debug-asserts on oversubscription; reaching here
            // means all draws fit. Also check global conservation:
            let alloc = bank.total_allocated().as_u64();
            prop_assert_eq!(alloc, r.as_u64() * 2 * flows.len() as u64);
        }

        /// The footprint pair is the flow pair: from a bank drawn down at
        /// random (exhausted and nearly exhausted ports among them), for
        /// flow lists with several flows on a port and for the empty
        /// list, the footprint gives the
        /// rate `gang_rate_with` gives, and allocating it leaves the
        /// bank `gang_allocate` leaves.
        #[test]
        fn footprint_gang_matches_the_flow_list(
            pairs in proptest::collection::vec((0u32..5, 0u32..5), 0..24),
            drawn in proptest::collection::vec((0u32..10, 0u64..=3), 0..12),
            cap in 1u64..64,
        ) {
            let n = 5;
            let mut bank = PortBank::uniform(n, Rate(cap));
            // Draw a port down to 0..=3 B/s short of nothing, or by a
            // share of what it has.
            for &(p, how) in &drawn {
                let p = PortId(p);
                let left = bank.remaining(p).as_u64();
                let take = if how == 0 { left } else { left - left.min(how) };
                bank.allocate(p, Rate(take));
            }
            let flows: Vec<FlowEndpoints> = pairs
                .iter()
                .enumerate()
                .map(|(i, (s, d))| fe(i as u32, *s, *d, n))
                .collect();
            let mut footprint = Vec::new();
            footprint_into(&flows, &mut footprint);
            prop_assert!(footprint.windows(2).all(|w| w[0].0 < w[1].0));
            let own: u32 = footprint.iter().map(|&(_, k)| k).sum();
            prop_assert_eq!(own as usize, 2 * flows.len());

            let mut scratch = vec![0; bank.num_ports()];
            let mut touched = Vec::new();
            let r = gang_rate_with(&bank, &flows, &mut scratch, &mut touched);
            prop_assert_eq!(footprint_gang_rate(&bank, &footprint), r);
            // Allocate the same rate both ways — a nonzero one even
            // when the CoFlow would be rejected, if some rate fits.
            let r = if r.is_zero() {
                let fits = footprint.iter().map(|&(p, k)| bank.remaining(p).as_u64() / u64::from(k));
                Rate(fits.min().unwrap_or(0))
            } else {
                r
            };
            let mut by_flows = bank.clone();
            gang_allocate(&mut by_flows, &flows, r);
            footprint_gang_allocate(&mut bank, &footprint, r);
            prop_assert_eq!(bank.remaining_slab(), by_flows.remaining_slab());
        }

        /// Greedy filling is work conserving: after the pass, for every
        /// flow either the flow got a positive rate or one of its ports
        /// is exhausted.
        #[test]
        fn greedy_is_work_conserving(
            pairs in proptest::collection::vec((0u32..5, 0u32..5), 1..30),
            cap in 1u64..1_000_000,
        ) {
            let n = 5;
            let mut bank = PortBank::uniform(n, Rate(cap));
            let flows: Vec<FlowEndpoints> = pairs
                .iter()
                .enumerate()
                .map(|(i, (s, d))| fe(i as u32, *s, *d, n))
                .collect();
            let rates = greedy_fill(&mut bank, &flows);
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(
                    !r.is_zero()
                        || !bank.has_spare(f.src)
                        || !bank.has_spare(f.dst),
                    "flow starved while both its ports have spare capacity"
                );
            }
        }
    }
}
