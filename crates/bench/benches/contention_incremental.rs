//! The incremental contention tracker against the `contention_into`
//! full rebuild it replaces, under steady-state churn: every round a
//! handful of CoFlows change footprints (a flow finishes or restarts)
//! while the rest of the active set is untouched — exactly the regime
//! the engine's dirty set produces. The rebuild pays O(total flows)
//! per round regardless; the tracker is told, by slot, the two ports
//! of each finished flow and the whole list of each restarted CoFlow,
//! as `Saath` tells it, and pays O(changed footprints).
//!
//! Scaled by *flow* count (1k / 10k / 100k), the axis of the Fig 9
//! scalability sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use saath_core::common::{contention_into, endpoints_into, ContentionTracker, RoundArena};
use saath_core::view::{ClusterView, CoflowView, FlowView};
use saath_simcore::{Bytes, CoflowId, DetRng, FlowId, NodeId, Time};

const NODES: usize = 150;
const WIDTH: usize = 10;
/// CoFlows whose footprint changes per round (the engine's dirty set on
/// the FB trace is this order of magnitude outside arrival bursts).
const CHURN: usize = 8;

/// `total_flows / WIDTH` CoFlows of fixed width on random ports.
fn views_with_flows(total_flows: usize) -> Vec<CoflowView> {
    let mut rng = DetRng::derive(7, "bench/contention_incremental");
    let mut next_flow = 0u32;
    (0..total_flows / WIDTH)
        .map(|i| CoflowView {
            id: CoflowId(i as u32),
            arrival: Time::from_millis(i as u64),
            flows: (0..WIDTH)
                .map(|_| {
                    let id = next_flow;
                    next_flow += 1;
                    FlowView {
                        id: FlowId(id),
                        src: NodeId(rng.below(NODES as u64) as u32),
                        dst: NodeId(rng.below(NODES as u64) as u32),
                        sent: Bytes::ZERO,
                        ready: true,
                        finished: false,
                        oracle_size: None,
                    }
                })
                .collect(),
            restarted: false,
        })
        .collect()
}

/// Toggles one flow in each of `CHURN` round-robin CoFlows (finish on
/// even visits, restart on odd), returning the `(CoFlow, flow)` pairs
/// toggled. Both bench arms run the identical mutation so only the
/// recompute differs.
fn churn(views: &mut [CoflowView], round: &mut usize) -> [(usize, usize); CHURN] {
    let n = views.len();
    let mut toggled = [(0, 0); CHURN];
    for (j, t) in toggled.iter_mut().enumerate() {
        let ci = (*round * CHURN + j) % n;
        let fi = (*round / n.div_ceil(CHURN).max(1)) % WIDTH;
        let f = &mut views[ci].flows[fi];
        f.finished = !f.finished;
        *t = (ci, fi);
    }
    *round += 1;
    toggled
}

fn bench_contention_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_incremental");
    for &flows in &[1_000usize, 10_000, 100_000] {
        let views = views_with_flows(flows);

        group.bench_with_input(BenchmarkId::new("rebuild", flows), &flows, |b, _| {
            let mut views = views.clone();
            let mut arena = RoundArena::new();
            let mut k = Vec::new();
            let mut round = 0usize;
            b.iter(|| {
                let _ = churn(&mut views, &mut round);
                let view = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views,
                    changed: None,
                };
                contention_into(&view, &mut arena, &mut k);
                black_box(k.len());
            });
        });

        group.bench_with_input(BenchmarkId::new("delta", flows), &flows, |b, _| {
            let mut views = views.clone();
            let mut tracker = ContentionTracker::new();
            let mut eps = Vec::new();
            let mut k = Vec::new();
            // Prime the tracker: slot `i` holds CoFlow `i`.
            for (slot, c) in views.iter().enumerate() {
                endpoints_into(c, NODES, false, &mut eps);
                tracker.set(slot as u32, &eps);
            }
            let mut round = 0usize;
            b.iter(|| {
                for (ci, fi) in churn(&mut views, &mut round) {
                    let f = &views[ci].flows[fi];
                    if f.finished {
                        let e = f.endpoints(NODES);
                        let ports = [e.src.index() as u32, e.dst.index() as u32];
                        tracker.drop_ports(ci as u32, &ports);
                    } else {
                        endpoints_into(&views[ci], NODES, false, &mut eps);
                        tracker.set(ci as u32, &eps);
                    }
                }
                k.clear();
                k.extend((0..views.len() as u32).map(|slot| tracker.k(slot)));
                black_box(k.len());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_contention_incremental);
criterion_main!(benches);
