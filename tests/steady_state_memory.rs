//! Holds the "allocation-free scheduling round" claim to its word for
//! a coordinator that runs for days: once a scheduler has warmed up on
//! a view, further rounds on that view leave the live heap exactly
//! where it was — every per-round sample lands in a fixed-size
//! histogram. One test only: the counter is process-wide.

use saath::core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath::fabric::PortBank;
use saath::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Live heap bytes: allocated minus freed, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Calls to `alloc`, over every thread.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the only addition is the two counts. `realloc` keeps the
// default (alloc + copy + dealloc), which goes through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Rounds the heap is watched over.
const ROUNDS: u64 = 20_000;

/// Three mid-transfer CoFlows sharing ports, so ordering, contention,
/// all-or-none and work conservation all have something to do. Ids
/// start at `first_id` (flows at ten times that); `straggling` marks
/// them restarted with one flow each finished, so the §4.3 estimate
/// has something to take a median of.
fn three_coflows(first_id: u32, straggling: bool) -> Vec<CoflowView> {
    let flows = [
        [(0, 1), (0, 2), (3, 2)].as_slice(),
        &[(0, 1), (1, 2)],
        &[(3, 1), (2, 0)],
    ];
    let mut next_flow = 10 * first_id..;
    (first_id..)
        .zip(flows)
        .map(|(id, ports)| CoflowView {
            id: CoflowId(id),
            arrival: Time::from_millis(u64::from(id)),
            flows: ports
                .iter()
                .enumerate()
                .map(|(i, &(src, dst))| FlowView {
                    id: FlowId(next_flow.next().unwrap()),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    sent: Bytes::mb(1 + i as u64),
                    ready: true,
                    finished: straggling && i == 0,
                    oracle_size: None,
                })
                .collect(),
            restarted: straggling,
        })
        .collect()
}

#[test]
fn scheduling_rounds_leave_the_live_heap_where_it_was() {
    let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
    let mut out = Schedule::default();
    let skew_aware = SaathConfig {
        skew_aware_thresholds: true,
        ..SaathConfig::default()
    };
    // The skew-aware and the straggler queue rules are off the default
    // path, and each once allocated (and freed) per CoFlow per round:
    // they are held to the default configuration's number of calls to
    // the allocator — none, but for what debug oracles make in the
    // builds that have them.
    let mut default_allocs = None;
    let scheds: [(&str, Box<dyn CoflowScheduler>, bool); 5] = [
        ("saath", Box::new(Saath::with_defaults()), false),
        ("saath, skew-aware", Box::new(Saath::new(skew_aware)), false),
        ("saath, stragglers", Box::new(Saath::with_defaults()), true),
        ("aalo", Box::new(Aalo::with_defaults()), false),
        ("uc-tcp", Box::new(UcTcp::new()), false),
    ];
    for (name, mut sched, straggling) in scheds {
        let mut round = 0u64;
        // After a run's first round nothing changes; every other round
        // says so, and the rest name every CoFlow, as a driver does
        // for one that is sending.
        let mut run = |coflows: &[CoflowView], changed: &[CoflowId], rounds: u64| {
            let all: Vec<CoflowId> = coflows.iter().map(|c| c.id).collect();
            for i in 0..rounds {
                round += 1;
                let view = ClusterView {
                    now: Time::from_millis(8 * round),
                    num_nodes: NODES,
                    coflows,
                    changed: Some(match i {
                        0 => changed,
                        _ if i % 2 == 1 => &all,
                        _ => &[],
                    }),
                };
                bank.reset_round();
                out.clear();
                sched.compute(&view, &mut bank, &mut out);
            }
        };
        let coflows = three_coflows(0, straggling);
        let ids = |coflows: &[CoflowView]| coflows.iter().map(|c| c.id).collect::<Vec<_>>();
        run(&coflows, &ids(&coflows), 1_000);
        let before = LIVE.load(Ordering::Relaxed);
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        run(&coflows, &[], ROUNDS);
        let grown = LIVE.load(Ordering::Relaxed) - before;
        assert_eq!(grown, 0, "{name}: live heap moved over {ROUNDS} rounds");
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        if name.starts_with("saath") {
            assert_eq!(
                allocs,
                *default_allocs.get_or_insert(allocs),
                "{name}: allocator calls over {ROUNDS} rounds differ from the default's"
            );
        }

        // Arrival/departure waves: every CoFlow leaves and three of the
        // same shape arrive under new ids, in one round. What a wave's
        // CoFlows held is handed to the next wave's (Saath's per-CoFlow
        // entries go through a free list), so the heap ends every wave
        // where it ended the one before, and stays put in between.
        let mut previous = coflows;
        let mut settled = None;
        for wave in 1..=4 {
            let coflows = three_coflows(3 * wave, straggling);
            let mut changed = ids(&previous);
            changed.extend(ids(&coflows));
            run(&coflows, &changed, 200);
            let after_arrival = LIVE.load(Ordering::Relaxed);
            run(&coflows, &[], 1_000);
            assert_eq!(
                LIVE.load(Ordering::Relaxed),
                after_arrival,
                "{name}: live heap moved within wave {wave}"
            );
            // The first wave may still grow a hash table for good.
            if let Some(settled) = settled {
                assert_eq!(
                    after_arrival, settled,
                    "{name}: wave {wave} left the heap elsewhere"
                );
            }
            settled = Some(after_arrival);
            previous = coflows;
        }
    }
}
