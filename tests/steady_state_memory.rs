//! Holds the "allocation-free scheduling round" claim to its word for
//! a coordinator that runs for days: once a scheduler has warmed up on
//! a view, further rounds on that view leave the live heap exactly
//! where it was — every per-round sample lands in a fixed-size
//! histogram. One test only: the counter is process-wide.

use saath::core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath::fabric::PortBank;
use saath::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: allocated minus freed, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the only addition is the byte count. `realloc` keeps the
// default (alloc + copy + dealloc), which goes through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(p, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 4;

/// Three mid-transfer CoFlows sharing ports, so ordering, contention,
/// all-or-none and work conservation all have something to do.
fn three_coflows() -> Vec<CoflowView> {
    let flows = [
        [(0, 1), (0, 2), (3, 2)].as_slice(),
        &[(0, 1), (1, 2)],
        &[(3, 1)],
    ];
    let mut next_flow = 0..;
    (0u32..)
        .zip(flows)
        .map(|(id, ports)| CoflowView {
            id: CoflowId(id),
            arrival: Time::from_millis(u64::from(id)),
            flows: ports
                .iter()
                .map(|&(src, dst)| FlowView {
                    id: FlowId(next_flow.next().unwrap()),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    sent: Bytes::mb(1),
                    ready: true,
                    finished: false,
                    oracle_size: None,
                })
                .collect(),
            restarted: false,
        })
        .collect()
}

#[test]
fn scheduling_rounds_leave_the_live_heap_where_it_was() {
    let coflows = three_coflows();
    let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
    let mut out = Schedule::default();
    let scheds: [Box<dyn CoflowScheduler>; 3] = [
        Box::new(Saath::with_defaults()),
        Box::new(Aalo::with_defaults()),
        Box::new(UcTcp::new()),
    ];
    for mut sched in scheds {
        let mut round = 0u64;
        let mut run = |rounds: u64| {
            for _ in 0..rounds {
                round += 1;
                let view = ClusterView {
                    now: Time::from_millis(8 * round),
                    num_nodes: NODES,
                    coflows: &coflows,
                    changed: Some(&[]),
                };
                bank.reset_round();
                out.clear();
                sched.compute(&view, &mut bank, &mut out);
            }
        };
        run(1_000);
        let before = LIVE.load(Ordering::Relaxed);
        run(20_000);
        let grown = LIVE.load(Ordering::Relaxed) - before;
        assert_eq!(
            grown,
            0,
            "{}: live heap moved over 20 000 rounds",
            sched.name()
        );
    }
}
