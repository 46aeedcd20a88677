//! UC-TCP — the uncoordinated baseline (§6.1).
//!
//! "In UC-TCP, there are no queues, and all the flows are scheduled upon
//! arrival as per TCP." The fluid-model equivalent of many long-lived
//! TCP flows sharing edge ports is global max-min fairness, which
//! [`max_min_fair`] computes exactly. No coordinator state, no
//! priorities, no gang semantics — every ready flow always progresses at
//! its fair share.

use crate::view::{ClusterView, CoflowScheduler, Schedule};
use saath_fabric::{max_min_fair_into, FlowEndpoints, MaxMinScratch, PortBank};
use saath_simcore::Rate;

/// The UC-TCP scheduler.
#[derive(Default)]
pub struct UcTcp {
    // Per-round buffers, recycled so the hot path never allocates.
    eps: Vec<FlowEndpoints>,
    rates: Vec<Rate>,
    scratch: MaxMinScratch,
}

impl UcTcp {
    /// A new UC-TCP baseline.
    pub fn new() -> UcTcp {
        UcTcp::default()
    }
}

impl CoflowScheduler for UcTcp {
    fn name(&self) -> &'static str {
        "uc-tcp"
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        self.eps.clear();
        for c in view.coflows {
            self.eps.extend(
                c.unfinished()
                    .filter(|f| f.ready)
                    .map(|f| f.endpoints(view.num_nodes)),
            );
        }
        max_min_fair_into(bank, &self.eps, &mut self.scratch, &mut self.rates);
        for (e, &r) in self.eps.iter().zip(self.rates.iter()) {
            if !r.is_zero() {
                bank.allocate(e.src, r);
                bank.allocate(e.dst, r);
                out.set(e.flow, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{CoflowView, FlowView};
    use saath_simcore::{Bytes, CoflowId, FlowId, NodeId, Rate, Time};

    fn fv(id: u32, src: u32, dst: u32) -> FlowView {
        FlowView {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            sent: Bytes::ZERO,
            ready: true,
            finished: false,
            oracle_size: None,
        }
    }

    #[test]
    fn flows_share_fairly_regardless_of_coflow() {
        // Three flows on one uplink, from two CoFlows: each flow gets a
        // third (per-flow fairness, not per-CoFlow).
        let coflows = vec![
            CoflowView {
                id: CoflowId(0),
                arrival: Time::ZERO,
                flows: vec![fv(0, 0, 1), fv(1, 0, 2)],
                restarted: false,
            },
            CoflowView {
                id: CoflowId(1),
                arrival: Time::ZERO,
                flows: vec![fv(2, 0, 3)],
                restarted: false,
            },
        ];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(4, Rate(900));
        let mut out = Schedule::default();
        UcTcp::new().compute(&view, &mut bank, &mut out);
        for f in 0..3 {
            assert_eq!(out.rate_of(FlowId(f)), Rate(300));
        }
    }

    #[test]
    fn never_oversubscribes() {
        // A dense mesh; the debug assertion in `allocate` would fire on
        // oversubscription.
        let flows: Vec<FlowView> = (0..12).map(|i| fv(i, i % 3, 3 + (i % 2))).collect();
        let coflows = vec![CoflowView {
            id: CoflowId(0),
            arrival: Time::ZERO,
            flows,
            restarted: false,
        }];
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 5,
            coflows: &coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(5, Rate(1000));
        let mut out = Schedule::default();
        UcTcp::new().compute(&view, &mut bank, &mut out);
        assert!(!out.rates.is_empty());
    }
}
