//! Cross-crate guarantees of the incremental simulation engine:
//!
//! 1. **Determinism** — the same seeded trace, policy, and dynamics
//!    always produce byte-identical [`CoflowRecord`]s.
//! 2. **Equivalence** — the incremental epoch loop ([`simulate`])
//!    produces records byte-identical to the straightforward
//!    recompute-everything loop ([`simulate_reference`]) it replaced,
//!    including under stragglers and node failures.
//!
//! The in-crate tests cover the paper's worked examples; these run a
//! scaled-down FB-like workload (the generator preset calibrated to the
//! paper's Facebook trace) through the public facade, so any future
//! engine change that breaks replay fidelity fails here too.

use saath::prelude::*;
use saath::simulator::{simulate_reference, simulate_resumable, ReplayHooks};
use saath::workload::{gen, DynamicsEvent};

/// A scaled-down FB-like workload: same mix/bin/placement structure as
/// the paper's Facebook preset, fewer CoFlows so the reference loop
/// stays fast in CI.
fn mini_fb(seed: u64) -> Trace {
    let cfg = gen::GenConfig {
        num_nodes: 40,
        num_coflows: 60,
        span: Duration::from_secs(40),
        max_width: 1_600,
        ..gen::fb_like(seed)
    };
    gen::generate(&cfg)
}

fn stress_dynamics() -> DynamicsSpec {
    DynamicsSpec {
        events: vec![
            DynamicsEvent::Straggler {
                node: NodeId(3),
                at: Time::from_secs(2),
                until: Time::from_secs(12),
                num: 1,
                den: 5,
            },
            DynamicsEvent::NodeFailure {
                node: NodeId(7),
                at: Time::from_secs(5),
                restart_delay: Duration::from_millis(400),
            },
        ],
    }
}

#[test]
fn replay_is_deterministic() {
    let trace = mini_fb(11);
    let cfg = SimConfig::default();
    let dynamics = stress_dynamics();
    for policy in [Policy::saath(), Policy::aalo()] {
        let a = run_policy(&trace, &policy, &cfg, &dynamics).unwrap();
        let b = run_policy(&trace, &policy, &cfg, &dynamics).unwrap();
        assert_eq!(
            a.records,
            b.records,
            "{} replay not deterministic",
            policy.name()
        );
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.end, b.end);
    }
}

#[test]
fn incremental_loop_matches_reference_on_fb_like() {
    let trace = mini_fb(23);
    let cfg = SimConfig::default();
    let inc = simulate(
        &trace,
        &mut Saath::with_defaults(),
        &cfg,
        &DynamicsSpec::none(),
    )
    .unwrap();
    let re = simulate_reference(
        &trace,
        &mut Saath::with_defaults(),
        &cfg,
        &DynamicsSpec::none(),
    )
    .unwrap();
    assert_eq!(inc.records, re.records);
    assert_eq!(inc.rounds, re.rounds);
    assert_eq!(inc.end, re.end);
    assert_eq!(inc.records.len(), trace.coflows.len());
}

#[test]
fn incremental_loop_matches_reference_under_dynamics() {
    let trace = mini_fb(31);
    let cfg = SimConfig::default();
    let dynamics = stress_dynamics();
    let inc = simulate(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
    let re = simulate_reference(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
    assert_eq!(inc.records, re.records);
    assert_eq!(inc.rounds, re.rounds);
    assert_eq!(inc.end, re.end);
}

#[test]
fn telemetry_threading_is_inert() {
    // Threading a live `Telemetry` handle through the engine must not
    // change the simulation, whatever the feature state: records,
    // round count, and end time stay byte-identical to the plain
    // `simulate` entry point.
    let trace = mini_fb(59);
    let cfg = SimConfig::default();
    let dynamics = stress_dynamics();
    let plain = simulate(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
    let mut tele = saath::telemetry::Telemetry::with_jsonl();
    let instrumented = simulate_resumable(
        &trace,
        &mut Saath::with_defaults(),
        &cfg,
        &dynamics,
        ReplayHooks {
            tele: Some(&mut tele),
            ..ReplayHooks::none()
        },
    )
    .unwrap();
    assert_eq!(plain.records, instrumented.records);
    assert_eq!(plain.rounds, instrumented.rounds);
    assert_eq!(plain.end, instrumented.end);
    if saath::telemetry::enabled() {
        assert!(tele.counter(saath::telemetry::Counter::SchedRounds) > 0);
        assert!(!tele.jsonl().is_empty());
    } else {
        // Feature off: the handle must stay untouched (zero-overhead).
        assert_eq!(tele.counter(saath::telemetry::Counter::SchedRounds), 0);
        assert!(tele.jsonl().is_empty());
    }
}

#[test]
fn incremental_contention_matches_full_rebuild_records() {
    // The delta-maintained `k_c` must be invisible in the output: with
    // `incremental_contention` on or off, records, round counts, and
    // end times stay byte-identical — including under stragglers and a
    // node failure, the churn that stresses footprint shrink/reset. (In
    // debug builds the scheduler additionally asserts the incremental
    // `k` against the `contention_into` oracle every single round.)
    let trace = mini_fb(67);
    let cfg = SimConfig::default();
    for dynamics in [DynamicsSpec::none(), stress_dynamics()] {
        let incr = simulate(&trace, &mut Saath::with_defaults(), &cfg, &dynamics).unwrap();
        let rebuilt = simulate(
            &trace,
            &mut Saath::new(SaathConfig {
                incremental_contention: false,
                ..SaathConfig::default()
            }),
            &cfg,
            &dynamics,
        )
        .unwrap();
        assert_eq!(incr.records, rebuilt.records);
        assert_eq!(incr.rounds, rebuilt.rounds);
        assert_eq!(incr.end, rebuilt.end);
    }
}

#[test]
fn incremental_contention_matches_under_skewed_thresholds() {
    // Skew-aware thresholds change *which* flows progress each round,
    // exercising a different footprint-churn pattern; the incremental
    // tracker must still be invisible.
    let trace = mini_fb(71);
    let cfg = SimConfig::default();
    let dynamics = stress_dynamics();
    let mk = |incremental: bool| {
        Saath::new(SaathConfig {
            skew_aware_thresholds: true,
            incremental_contention: incremental,
            ..SaathConfig::default()
        })
    };
    let incr = simulate(&trace, &mut mk(true), &cfg, &dynamics).unwrap();
    let rebuilt = simulate(&trace, &mut mk(false), &cfg, &dynamics).unwrap();
    assert_eq!(incr.records, rebuilt.records);
    assert_eq!(incr.rounds, rebuilt.rounds);
    assert_eq!(incr.end, rebuilt.end);
}

#[test]
fn incremental_loop_matches_reference_across_policies_and_deltas() {
    let trace = mini_fb(47);
    let dynamics = stress_dynamics();
    for delta_ms in [0u64, 8, 50] {
        let cfg = SimConfig {
            delta: Duration::from_millis(delta_ms),
            ..Default::default()
        };
        let inc = simulate(&trace, &mut Aalo::with_defaults(), &cfg, &dynamics).unwrap();
        let re = simulate_reference(&trace, &mut Aalo::with_defaults(), &cfg, &dynamics).unwrap();
        assert_eq!(
            inc.records, re.records,
            "aalo diverged at δ = {delta_ms} ms"
        );
        assert_eq!(inc.end, re.end);
    }
}

// ---- Schedule reuse: a round that cannot differ is not recomputed ----
//
// The engine keeps a schedule whose validity horizon is ahead while
// nothing structural moves, instead of calling `compute`. No option
// turns that off, and none is needed to test against the engine that
// never did it: a scheduler whose horizon is always zero is computed
// every round, which is exactly the parent commit's behaviour.

use saath::core::view::{ClusterView, Schedule};
use saath::eventlog::{verify, ChainDigest, EventLogWriter, LogHeader};
use saath::fabric::PortBank;
use saath::simulator::SimOutput;
use saath::workload::dag;

/// Forwards everything to `S`, then voids the horizon.
struct EveryRound<S: CoflowScheduler>(S);

impl<S: CoflowScheduler> CoflowScheduler for EveryRound<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn requires_clairvoyance(&self) -> bool {
        self.0.requires_clairvoyance()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        self.0.compute(view, bank, out);
        out.valid_until = Time::ZERO;
    }

    fn mech_counters(&self) -> Option<&saath::telemetry::MechCounters> {
        self.0.mech_counters()
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        self.0.queue_occupancy()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.restore_state(bytes)
    }
}

/// One replay with the event log attached: the output and the digest
/// every round record chains to.
fn logged(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
) -> (SimOutput, ChainDigest) {
    let header = LogHeader {
        num_nodes: trace.num_nodes as u64,
        port_rate: trace.port_rate.as_u64(),
        delta_ns: cfg.delta.as_nanos(),
        scheduler: sched.name().into(),
        trace_digest: ChainDigest::ZERO,
        start_round: 0,
        start_digest: ChainDigest::ZERO,
    };
    let mut w = EventLogWriter::new(Vec::new(), &header).unwrap();
    let hooks = ReplayHooks {
        sink: Some(&mut w),
        ..ReplayHooks::none()
    };
    let out = simulate_resumable(trace, sched, cfg, dynamics, hooks).unwrap();
    let summary = verify(&w.into_inner().unwrap()[..]).unwrap();
    assert_eq!(summary.rounds, out.rounds, "one record per round");
    (out, summary.digest)
}

/// Replays `trace` under Saath three ways — the engine as it is, the
/// engine made to compute every round, and the reference loop — and
/// demands one outcome. Returns `(computed, total)` rounds of the
/// first.
fn assert_reuse_is_invisible(
    what: &str,
    trace: &Trace,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
    saath: &SaathConfig,
) -> (u64, u64) {
    let mut reusing = Saath::new(saath.clone());
    let (a, a_digest) = logged(trace, &mut reusing, cfg, dynamics);
    let mut every = EveryRound(Saath::new(saath.clone()));
    let (b, b_digest) = logged(trace, &mut every, cfg, dynamics);
    let r = simulate_reference(trace, &mut Saath::new(saath.clone()), cfg, dynamics).unwrap();

    assert_eq!(
        every.0.timings.rounds(),
        b.rounds,
        "{what}: a zero horizon was honoured"
    );
    for (other, o) in [("every-round engine", &b), ("reference loop", &r)] {
        assert_eq!(
            a.records, o.records,
            "{what}: records differ from the {other}"
        );
        assert_eq!(a.rounds, o.rounds, "{what}: rounds differ from the {other}");
        assert_eq!(a.end, o.end, "{what}: end differs from the {other}");
        assert_eq!(a.unfinished, o.unfinished, "{what}: vs the {other}");
    }
    assert_eq!(
        a_digest, b_digest,
        "{what}: round records chain differently"
    );
    assert!(reusing.timings.rounds() <= a.rounds);
    (reusing.timings.rounds(), a.rounds)
}

/// A scaled-down OSP-like workload: the preset's busier ports and
/// burstier waves, a few dozen CoFlows.
fn mini_osp(seed: u64) -> Trace {
    let cfg = gen::GenConfig {
        num_nodes: 30,
        num_coflows: 50,
        span: Duration::from_secs(15),
        max_width: 900,
        max_size: Bytes::gb(5),
        ..gen::osp_like(seed)
    };
    gen::generate(&cfg)
}

/// Chains of three and one diamond over a small generated trace:
/// releases happen at completions, off the δ grid.
fn dag_trace(seed: u64) -> Trace {
    let mut trace = gen::generate(&gen::small(seed, 12, 22));
    let mut stages = std::mem::take(&mut trace.coflows);
    let tail = stages.split_off(18);
    let mut coflows = Vec::new();
    while !stages.is_empty() {
        let rest = stages.split_off(3);
        coflows.extend(dag::chain(stages));
        stages = rest;
    }
    let mut tail = tail.into_iter();
    let (source, sink) = (tail.next().unwrap(), tail.next_back().unwrap());
    coflows.extend(dag::diamond(source, tail.collect(), sink));
    trace.coflows = coflows;
    trace.validate().unwrap();
    trace
}

/// `mini_fb` with every third flow's data arriving late, by amounts
/// that are not multiples of δ.
fn delayed_data(seed: u64) -> Trace {
    let mut trace = mini_fb(seed);
    let flows = trace.coflows.iter_mut().flat_map(|c| &mut c.flows);
    for (i, f) in flows.enumerate().filter(|(i, _)| i % 3 == 0) {
        f.available_after = Duration::from_millis(37 * (1 + i as u64 % 5));
    }
    trace
}

#[test]
fn reuse_is_invisible_on_fb_osp_and_dag_traces() {
    let (cfg, none, saath) = (
        SimConfig::default(),
        DynamicsSpec::none(),
        SaathConfig::default(),
    );
    let (computed, rounds) = assert_reuse_is_invisible("fb", &mini_fb(23), &cfg, &none, &saath);
    // The suite must not pass vacuously: most rounds of the default
    // case are reused.
    assert!(
        computed * 2 < rounds,
        "only {} of {rounds} rounds were reused",
        rounds - computed
    );
    assert_reuse_is_invisible("osp", &mini_osp(29), &cfg, &none, &saath);
    assert_reuse_is_invisible("dag", &dag_trace(37), &cfg, &none, &saath);
}

#[test]
fn reuse_is_invisible_with_late_data_and_under_churn() {
    let (cfg, saath) = (SimConfig::default(), SaathConfig::default());
    let late = delayed_data(41);
    assert_reuse_is_invisible("late data", &late, &cfg, &DynamicsSpec::none(), &saath);
    assert_reuse_is_invisible(
        "late data + dynamics",
        &late,
        &cfg,
        &stress_dynamics(),
        &saath,
    );
    // `tests/snapshot_resume.rs`'s churn: a straggler and a node
    // failure inside a ten-CoFlow trace.
    let churn = DynamicsSpec {
        events: vec![
            DynamicsEvent::Straggler {
                node: NodeId(2),
                at: Time::from_millis(200),
                until: Time::from_secs(2),
                num: 1,
                den: 4,
            },
            DynamicsEvent::NodeFailure {
                node: NodeId(5),
                at: Time::from_millis(900),
                restart_delay: Duration::from_millis(150),
            },
        ],
    };
    let trace = gen::generate(&gen::small(43, 16, 10));
    assert_reuse_is_invisible("churn", &trace, &cfg, &churn, &saath);
}

#[test]
fn reuse_is_invisible_at_every_delta() {
    let trace = mini_fb(47);
    for delta_ms in [0u64, 8, 80] {
        let cfg = SimConfig {
            delta: Duration::from_millis(delta_ms),
            ..Default::default()
        };
        for dynamics in [DynamicsSpec::none(), stress_dynamics()] {
            let what = format!("δ = {delta_ms} ms, {} events", dynamics.events.len());
            assert_reuse_is_invisible(&what, &trace, &cfg, &dynamics, &SaathConfig::default());
        }
    }
}

#[test]
fn reuse_is_invisible_under_every_saath_config() {
    // Half of `mini_fb`: twelve configurations times three replays,
    // several of which compute (and, in debug builds, oracle-check)
    // every round.
    let trace = gen::generate(&gen::GenConfig {
        num_nodes: 32,
        num_coflows: 45,
        span: Duration::from_secs(30),
        max_width: 800,
        ..gen::fb_like(53)
    });
    let cfg = SimConfig::default();
    let configs = [
        ("default", SaathConfig::default()),
        ("a/n", SaathConfig::ablation_an()),
        ("a/n + p/f", SaathConfig::ablation_an_pf()),
        (
            "skew-aware",
            SaathConfig {
                skew_aware_thresholds: true,
                ..Default::default()
            },
        ),
        (
            "no work conservation",
            SaathConfig {
                work_conservation: false,
                ..Default::default()
            },
        ),
        (
            "no starvation avoidance",
            SaathConfig {
                starvation_avoidance: false,
                ..Default::default()
            },
        ),
    ];
    for (name, saath) in &configs {
        for dynamics in [DynamicsSpec::none(), stress_dynamics()] {
            let what = format!("{name}, {} events", dynamics.events.len());
            let (computed, rounds) =
                assert_reuse_is_invisible(&what, &trace, &cfg, &dynamics, saath);
            // Rules that read more than `m_c` promise nothing; the
            // others must have had something to reuse.
            if matches!(*name, "a/n" | "skew-aware") {
                assert_eq!(computed, rounds, "{what}: reused a round");
            } else {
                assert!(computed < rounds, "{what}: reused nothing");
            }
        }
    }
}

/// A wide CoFlow kept out by a stream of narrow ones on both of its
/// senders until its starvation deadline (D5) passes — which happens
/// between two events, at an instant only the clock names: the horizon
/// must stop at it.
fn starving_trace() -> Trace {
    use saath::workload::{CoflowSpec, FlowSpec};
    let flow = |src: u32, dst: u32, mb: u64| FlowSpec::new(NodeId(src), NodeId(dst), Bytes::mb(mb));
    let mut coflows = vec![CoflowSpec::new(
        CoflowId(0),
        Time::from_millis(1),
        vec![flow(0, 2, 1_000), flow(1, 3, 1_000)],
    )];
    // Each sender gets a 60 MB (0.48 s) CoFlow every 0.4 s for 12 s.
    for i in 0..60u32 {
        let at = Time::from_millis(200 * i as u64);
        let f = flow(i % 2, 4 + i % 2, 60);
        coflows.push(CoflowSpec::new(CoflowId(1 + i), at, vec![f]));
    }
    coflows.sort_by_key(|c| (c.arrival, c.id));
    let trace = Trace {
        num_nodes: 6,
        port_rate: Rate::gbps(1),
        coflows,
    };
    trace.validate().unwrap();
    trace
}

#[test]
fn reuse_stops_at_a_starvation_deadline() {
    let trace = starving_trace();
    let (cfg, none) = (SimConfig::default(), DynamicsSpec::none());
    let mut saath = Saath::with_defaults();
    simulate(&trace, &mut saath, &cfg, &none).unwrap();
    assert!(saath.starvation_kicks > 0, "nothing starved");
    let (computed, rounds) =
        assert_reuse_is_invisible("starving", &trace, &cfg, &none, &SaathConfig::default());
    assert!(computed * 2 < rounds);
}
