//! Table 2's latency columns as Criterion micro-benchmarks: how long
//! one coordinator scheduling round takes, per policy, as a function of
//! the number of active CoFlows. The paper reports 0.57 ms average /
//! 2.85 ms P90 for Saath on a 4-core VM with the FB trace's busy-period
//! occupancy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saath_core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath_core::{Aalo, OfflineScheduler, Saath, UcTcp};
use saath_fabric::PortBank;
use saath_simcore::{Bytes, CoflowId, DetRng, FlowId, NodeId, Rate, Time};

const NODES: usize = 150;

/// Builds a synthetic active set of `n` CoFlows resembling a busy
/// period of the FB workload (mixed widths, partial progress).
fn synth_views(n: usize, clairvoyant: bool) -> Vec<CoflowView> {
    let mut rng = DetRng::derive(42, "bench/views");
    let mut views = Vec::with_capacity(n);
    let mut next_flow = 0u32;
    for i in 0..n {
        let width = if rng.chance(0.7) {
            rng.range_inclusive(1, 8) as usize
        } else {
            rng.range_inclusive(10, 60) as usize
        };
        let flows = (0..width)
            .map(|_| {
                let id = next_flow;
                next_flow += 1;
                let size = Bytes(rng.range_inclusive(1_000_000, 2_000_000_000));
                FlowView {
                    id: FlowId(id),
                    src: NodeId(rng.below(NODES as u64) as u32),
                    dst: NodeId(rng.below(NODES as u64) as u32),
                    sent: Bytes(rng.below(size.as_u64())),
                    ready: true,
                    finished: false,
                    oracle_size: clairvoyant.then_some(size),
                }
            })
            .collect();
        views.push(CoflowView {
            id: CoflowId(i as u32),
            arrival: Time::from_millis(i as u64),
            flows,
            restarted: false,
        });
    }
    views
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_round");
    // 1000 active CoFlows is far past the FB trace's busy periods; it
    // exercises the allocation-free round at the scale where per-round
    // allocation used to dominate.
    for &n in &[10usize, 50, 200, 1000] {
        let views = synth_views(n, false);
        let views_oracle = synth_views(n, true);

        group.bench_with_input(BenchmarkId::new("saath", n), &n, |b, _| {
            let mut sched = Saath::with_defaults();
            let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
            let mut out = Schedule::default();
            b.iter(|| {
                bank.reset_round();
                out.clear();
                let view = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views,
                    changed: None,
                };
                sched.compute(&view, &mut bank, &mut out);
            });
        });
        group.bench_with_input(BenchmarkId::new("aalo", n), &n, |b, _| {
            let mut sched = Aalo::with_defaults();
            let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
            let mut out = Schedule::default();
            b.iter(|| {
                bank.reset_round();
                out.clear();
                let view = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views,
                    changed: None,
                };
                sched.compute(&view, &mut bank, &mut out);
            });
        });
        group.bench_with_input(BenchmarkId::new("uctcp", n), &n, |b, _| {
            let mut sched = UcTcp::new();
            let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
            let mut out = Schedule::default();
            b.iter(|| {
                bank.reset_round();
                out.clear();
                let view = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views,
                    changed: None,
                };
                sched.compute(&view, &mut bank, &mut out);
            });
        });
        group.bench_with_input(BenchmarkId::new("varys", n), &n, |b, _| {
            let mut sched = OfflineScheduler::varys();
            let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
            let mut out = Schedule::default();
            b.iter(|| {
                bank.reset_round();
                out.clear();
                let view = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views_oracle,
                    changed: None,
                };
                sched.compute(&view, &mut bank, &mut out);
            });
        });
    }
    group.finish();
}

/// The steady-state round: nothing changed since the previous round.
/// Fed `changed: Some(&[])`, the scheduler reuses cached queues and
/// footprints, leaves `k_c` and the order book where they are, and
/// emits the materialized order. Fed `changed: None` — what the
/// runtime's coordinator passes every epoch — it re-derives every
/// CoFlow's footprint and queue, and the tracker and book see no move.
fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state_round");
    for &n in &[200usize, 1000] {
        let views = synth_views(n, false);
        for (label, hinted) in [("incremental", true), ("unhinted", false)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut sched = Saath::with_defaults();
                let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
                let mut out = Schedule::default();
                // Warm round (no hint): seeds the book, tracker, and
                // queue/deadline state the steady rounds reuse.
                let warm = ClusterView {
                    now: Time::ZERO,
                    num_nodes: NODES,
                    coflows: &views,
                    changed: None,
                };
                sched.compute(&warm, &mut bank, &mut out);
                let empty: [CoflowId; 0] = [];
                b.iter(|| {
                    bank.reset_round();
                    out.clear();
                    let view = ClusterView {
                        now: Time::ZERO,
                        num_nodes: NODES,
                        coflows: &views,
                        changed: hinted.then_some(&empty[..]),
                    };
                    sched.compute(&view, &mut bank, &mut out);
                });
            });
        }
    }
    group.finish();
}

/// The contention computation (k_c) in isolation — the LCoF-specific
/// part of Table 2's ordering column.
fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention");
    for &n in &[50usize, 200, 1000] {
        let views = synth_views(n, false);
        group.bench_with_input(BenchmarkId::new("alloc", n), &n, |b, _| {
            let view = ClusterView {
                now: Time::ZERO,
                num_nodes: NODES,
                coflows: &views,
                changed: None,
            };
            b.iter(|| saath_core::common::contention(&view));
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            let view = ClusterView {
                now: Time::ZERO,
                num_nodes: NODES,
                coflows: &views,
                changed: None,
            };
            let mut arena = saath_core::common::RoundArena::new();
            let mut k = Vec::new();
            b.iter(|| {
                saath_core::common::contention_into(&view, &mut arena, &mut k);
                criterion::black_box(k.len());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round, bench_steady_state, bench_contention);
criterion_main!(benches);
