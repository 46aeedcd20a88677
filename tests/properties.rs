//! Workspace-level property tests: for arbitrary cluster states, every
//! scheduler must emit physically-feasible schedules; for arbitrary
//! traces, the simulator must conserve bytes; and the wire protocol must
//! never panic on garbage.

use proptest::prelude::*;
use saath::core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath::fabric::PortBank;
use saath::prelude::*;

const NODES: usize = 6;

/// Strategy: a random active cluster state (1–12 CoFlows, 1–6 flows
/// each, random progress/readiness/finishedness).
fn arb_views() -> impl Strategy<Value = Vec<CoflowView>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (
                    0u32..NODES as u32,
                    0u32..NODES as u32,
                    1u64..1_000_000_000,
                    0u8..4,
                ),
                1..6,
            ),
            0u64..10_000,
        ),
        1..12,
    )
    .prop_map(|coflows| {
        let mut next_flow = 0u32;
        coflows
            .into_iter()
            .enumerate()
            .map(|(ci, (flows, arrival_ms))| CoflowView {
                id: CoflowId(ci as u32),
                arrival: Time::from_millis(arrival_ms),
                flows: flows
                    .into_iter()
                    .map(|(src, dst, size, state)| {
                        let id = next_flow;
                        next_flow += 1;
                        FlowView {
                            id: FlowId(id),
                            src: NodeId(src),
                            dst: NodeId(dst),
                            // `state` bit 0: finished, bit 1: unready.
                            sent: if state & 1 != 0 {
                                Bytes(size)
                            } else {
                                Bytes(size / 2)
                            },
                            ready: state & 2 == 0,
                            finished: state & 1 != 0,
                            oracle_size: Some(Bytes(size)),
                        }
                    })
                    .collect(),
                restarted: false,
            })
            .collect()
    })
}

fn all_schedulers() -> Vec<Box<dyn CoflowScheduler>> {
    vec![
        Box::new(Saath::with_defaults()),
        Box::new(Saath::new(SaathConfig::ablation_an())),
        Box::new(Saath::new(SaathConfig {
            skew_aware_thresholds: true,
            ..Default::default()
        })),
        Box::new(Aalo::with_defaults()),
        Box::new(Aalo::strict_priority(QueueConfig::default())),
        Box::new(UcTcp::new()),
        Box::new(OfflineScheduler::varys()),
        Box::new(OfflineScheduler::new(OfflinePolicy::Lwtf)),
        Box::new(OfflineScheduler::new(OfflinePolicy::Scf)),
        Box::new(OfflineScheduler::new(OfflinePolicy::Srtf)),
    ]
}

/// Timing-metadata stability: the mechanism counters and the JSONL
/// round trace riding alongside `SchedTimings` were never asserted
/// anywhere — a refactor could silently zero a counter while records
/// stayed byte-identical. Two layers close that gap: (1) two identical
/// runs agree counter-for-counter and line-for-line; (2) the exact
/// values are pinned as goldens (counter values, never wall times —
/// those live in `SchedTimings` and are inherently nondeterministic).
#[test]
fn mech_counters_and_round_trace_are_pinned() {
    use saath::simulator::{simulate_resumable, ReplayHooks};

    let trace = workload::gen::generate(&workload::gen::small(9, 10, 16));
    let run = || {
        let mut tele = saath::telemetry::Telemetry::with_jsonl();
        let mut sched = Saath::with_defaults();
        let out = simulate_resumable(
            &trace,
            &mut sched,
            &SimConfig::default(),
            &DynamicsSpec::none(),
            ReplayHooks {
                tele: Some(&mut tele),
                ..ReplayHooks::none()
            },
        )
        .unwrap();
        (out, sched.mech.rows(), tele, sched.timings.rounds())
    };
    let (out_a, mech_a, tele_a, computed) = run();
    let (out_b, mech_b, tele_b, _) = run();
    assert_eq!(out_a.records, out_b.records);
    assert_eq!(mech_a, mech_b, "mechanism counters drift run-to-run");
    assert_eq!(
        tele_a.jsonl(),
        tele_b.jsonl(),
        "JSONL round trace drifts run-to-run"
    );

    // Golden values for gen::small(9, 10, 16) under default Saath. The
    // counters count work done: the per-round rows (admissions, MADD
    // evaluations, avoided rebuilds and re-sorts) are over the 31
    // rounds the engine computed, the event rows (transitions, rekeys,
    // deltas, backfills, rejections) are what they were when all 362
    // were — a reused round is one in which none of those can happen.
    let expect: [(&str, u64); 14] = [
        ("queue_transitions", 10),
        ("deadline_expiries", 0),
        ("starvation_rescues", 0),
        ("gang_admissions", 38),
        ("gang_rejections", 1),
        ("unready_skips", 0),
        ("wc_backfills", 4),
        ("lcof_comparisons", 80),
        ("madd_evals", 39),
        ("contention_deltas", 138),
        ("contention_rebuilds", 1),
        ("contention_rebuilds_avoided", 30),
        ("order_rekeys", 29),
        ("order_resorts_avoided", 31),
    ];
    assert_eq!(mech_a, expect, "golden mechanism counters moved");

    // Default Aalo on the same trace. It sets no horizon, so each of
    // its 377 rounds is computed (`order_resorts_avoided`); the order
    // rows count its FIFO book's re-bookings, and the gang rows stay
    // zero.
    let mut aalo = Aalo::with_defaults();
    let aalo_out = simulate(
        &trace,
        &mut aalo,
        &SimConfig::default(),
        &DynamicsSpec::none(),
    )
    .unwrap();
    assert_eq!(aalo_out.rounds, 377);
    let expect_aalo: [(&str, u64); 14] = [
        ("queue_transitions", 10),
        ("deadline_expiries", 0),
        ("starvation_rescues", 0),
        ("gang_admissions", 0),
        ("gang_rejections", 0),
        ("unready_skips", 0),
        ("wc_backfills", 0),
        ("lcof_comparisons", 1402),
        ("madd_evals", 0),
        ("contention_deltas", 0),
        ("contention_rebuilds", 0),
        ("contention_rebuilds_avoided", 0),
        ("order_rekeys", 484),
        ("order_resorts_avoided", 377),
    ];
    assert_eq!(
        aalo.mech.rows(),
        expect_aalo,
        "golden Aalo mechanism counters moved"
    );

    // The deterministic JSONL round trace: one line per round, and the
    // first/last lines pinned verbatim (integer-only fields, so these
    // are stable across platforms).
    assert_eq!(tele_a.jsonl().lines().count() as u64, out_a.rounds);
    assert_eq!(out_a.rounds, 362);
    // Every round is counted and traced; the reused ones only skip
    // `compute`, which `SchedTimings` sees.
    use saath::telemetry::Counter;
    let elided = tele_a.counter(Counter::RoundsElided);
    assert_eq!(tele_a.counter(Counter::SchedRounds), out_a.rounds);
    assert_eq!(computed + elided, out_a.rounds);
    assert_eq!(computed, 31);
    // Nor is every round stopped at: the `EngineRound` span has one
    // sample per round visited, the rest were passed over in jumps.
    let visited = tele_a
        .spans
        .hist(saath::telemetry::Phase::EngineRound)
        .count;
    let jumped = tele_a.counter(Counter::RoundsJumped);
    assert_eq!(visited + jumped, out_a.rounds);
    assert!(jumped <= elided && jumped * 2 > out_a.rounds);
    assert_eq!(
        tele_a.jsonl().lines().next().unwrap(),
        r#"{"round":0,"now_ns":0,"active":1,"flowing":12,"dirty":1,"heap":12,"sat_ports":3,"util_pm":300,"queues":[1,0,0,0,0,0,0,0,0,0]}"#
    );
    assert_eq!(
        tele_a.jsonl().lines().last().unwrap(),
        r#"{"round":361,"now_ns":47264000000,"active":1,"flowing":1,"dirty":1,"heap":1,"sat_ports":2,"util_pm":100,"queues":[0,0,1,0,0,0,0,0,0,0]}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler, on every random state: (1) never oversubscribes
    /// a port, (2) never schedules a finished or unready flow, (3) never
    /// schedules the same flow twice.
    #[test]
    fn schedules_are_always_feasible(views in arb_views()) {
        for mut sched in all_schedulers() {
            let mut bank = PortBank::uniform(NODES, Rate::gbps(1));
            let mut out = Schedule::default();
            let view = ClusterView { now: Time::from_secs(1), num_nodes: NODES, coflows: &views, changed: None };
            sched.compute(&view, &mut bank, &mut out);

            let mut used = [0u64; 2 * NODES];
            let mut seen = std::collections::HashSet::new();
            for &(fid, rate) in &out.rates {
                prop_assert!(seen.insert(fid), "{}: flow {fid} scheduled twice", sched.name());
                let fv = views
                    .iter()
                    .flat_map(|c| &c.flows)
                    .find(|f| f.id == fid)
                    .unwrap_or_else(|| panic!("{}: unknown flow {fid}", sched.name()));
                prop_assert!(!fv.finished, "{}: scheduled finished flow", sched.name());
                prop_assert!(fv.ready, "{}: scheduled unready flow", sched.name());
                used[fv.endpoints(NODES).src.index()] += rate.as_u64();
                used[fv.endpoints(NODES).dst.index()] += rate.as_u64();
            }
            for (p, &u) in used.iter().enumerate() {
                prop_assert!(
                    u <= Rate::gbps(1).as_u64(),
                    "{}: port {p} oversubscribed ({u})",
                    sched.name()
                );
            }
        }
    }

    /// Byte conservation through the full engine: each flow's FCT, at
    /// the rates actually granted, must account for exactly its size —
    /// checked indirectly: CCT ≥ size/port-rate for every flow, and
    /// total simulated work ≥ total trace bytes / aggregate capacity.
    #[test]
    fn simulator_conserves_bytes(seed in 0u64..50, n_coflows in 2usize..20) {
        let trace = workload::gen::generate(&workload::gen::small(seed, 8, n_coflows));
        let out = run_policy(&trace, &Policy::saath(), &SimConfig::default(), &DynamicsSpec::none()).unwrap();
        prop_assert_eq!(out.records.len(), trace.coflows.len());
        for (r, spec) in out.records.iter().zip(&trace.coflows) {
            prop_assert_eq!(r.id, spec.id);
            for (fct, f) in r.flow_fcts.iter().zip(&spec.flows) {
                let min = saath::simcore::units::transfer_time(f.size, trace.port_rate);
                prop_assert!(
                    *fct >= min,
                    "flow finished in {fct} but needs {min} at line rate"
                );
            }
        }
        // The run can end no earlier than the whole trace drained
        // through the busiest direction of the fabric.
        let min_end_ns = saath::simcore::units::transfer_time(
            Bytes(trace.total_bytes().as_u64() / trace.num_nodes as u64),
            trace.port_rate,
        );
        prop_assert!(out.end.as_nanos() + 1 >= min_end_ns.as_nanos());
    }

    /// The one sample accumulator against exact statistics of the same
    /// samples, at every magnitude: quantiles never under-report and
    /// are at most an eighth over, the scalar fields are exact, and
    /// merging two histograms equals observing both streams.
    #[test]
    fn loghist_quantiles_bound_the_exact_ones(
        raw in proptest::collection::vec((any::<u64>(), 0u32..64), 1..200),
        split in 0usize..200,
    ) {
        use saath::telemetry::LogHist;
        let observe_all = |vs: &[u64]| {
            let mut h = LogHist::new();
            vs.iter().for_each(|&v| h.observe(v));
            h
        };
        let samples: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
        let h = observe_all(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        prop_assert_eq!((h.count, h.min, h.max), (n as u64, sorted[0], sorted[n - 1]));
        prop_assert_eq!(h.sum, samples.iter().fold(0u64, |a, &v| a.saturating_add(v)));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let got = h.quantile(q);
            prop_assert!(
                got >= exact && u128::from(got) * 8 <= u128::from(exact) * 9,
                "q={q}: exact {exact}, reported {got}"
            );
        }
        prop_assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max);
        let (a, b) = samples.split_at(split.min(n));
        let mut merged = observe_all(a);
        merged.merge(&observe_all(b));
        prop_assert_eq!(merged, h);
    }

    /// The wire protocol never panics on arbitrary bytes, and always
    /// either yields a message, wants more data, or reports a clean
    /// error.
    #[test]
    fn protocol_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = bytes.clone();
        // Drain until no progress; must terminate and never panic.
        for _ in 0..64 {
            match saath::runtime::proto::Message::decode_stream(&mut buf) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Encode/decode is the identity on arbitrary well-formed messages.
    #[test]
    fn protocol_roundtrip(
        node in any::<u32>(),
        now in any::<u64>(),
        flows in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<bool>(), any::<bool>()), 0..64),
    ) {
        use saath::runtime::proto::{FlowStat, Message};
        let m = Message::Stats {
            node,
            now_ns: now,
            flows: flows
                .into_iter()
                .map(|(flow, sent, finished, ready)| FlowStat { flow, sent, finished, ready })
                .collect(),
        };
        let mut buf = m.encode().unwrap();
        let got = Message::decode_stream(&mut buf).unwrap().unwrap();
        prop_assert_eq!(got, m);
        prop_assert!(buf.is_empty());
    }
}
