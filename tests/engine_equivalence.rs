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
    let run = replay(trace, sched, cfg, dynamics);
    let digest = verify(&run.log[..]).unwrap().digest;
    (run.out.unwrap(), digest)
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

// ---- Quiet boundaries are not visited ----
//
// With nothing due before the next boundary the engine steps straight
// to the last boundary before the first thing that can happen, and
// hands the rounds it passed over to the observers from the schedule in
// hand. `EveryRound<Saath>` and the reference loop never do that, so
// they are the oracles here too: whatever ends a long quiet run — each
// term of the jump's limit in turn — the outcome, the event log and the
// snapshots are those of the loop that stops at every boundary.

use saath::eventlog::{RoundRecord, RoundSink};
use saath::simulator::SimError;
use saath::telemetry::{Counter, Telemetry};
use saath::workload::{CoflowSpec, FlowSpec};

/// One instrumented, logged replay.
struct Replay {
    out: Result<SimOutput, SimError>,
    /// The event log as written: header, chained round records,
    /// snapshot frames.
    log: Vec<u8>,
    /// Rounds the loop never stopped at (0 with telemetry compiled out).
    jumped: u64,
}

/// Everything the three loops must agree on.
fn outcome(
    out: &Result<SimOutput, SimError>,
) -> Result<(&[CoflowRecord], u64, Time, usize), &SimError> {
    let out = out.as_ref()?;
    Ok((&out.records, out.rounds, out.end, out.unfinished))
}

fn replay(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
) -> Replay {
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
    let mut tele = Telemetry::new();
    let hooks = ReplayHooks {
        tele: Some(&mut tele),
        sink: Some(&mut w),
        ..ReplayHooks::none()
    };
    let out = simulate_resumable(trace, sched, cfg, dynamics, hooks);
    let log = w.into_inner().unwrap();
    if let Ok(out) = &out {
        let summary = verify(&log[..]).unwrap();
        assert_eq!(summary.rounds, out.rounds, "one record per round");
        if saath::telemetry::enabled() {
            let visited = tele.spans.hist(saath::telemetry::Phase::EngineRound).count;
            assert_eq!(visited + tele.counter(Counter::RoundsJumped), out.rounds);
        }
    }
    Replay {
        out,
        log,
        jumped: tele.counter(Counter::RoundsJumped),
    }
}

/// Replays `trace` under Saath three ways — the engine as it is, the
/// engine made to compute (and so to stop at) every round, and the
/// reference loop — and demands one outcome, down to the error, and one
/// event log byte for byte. Returns the first replay.
fn assert_jumps_are_invisible(
    what: &str,
    trace: &Trace,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
    saath: &SaathConfig,
) -> Replay {
    let a = replay(trace, &mut Saath::new(saath.clone()), cfg, dynamics);
    let mut every = EveryRound(Saath::new(saath.clone()));
    let b = replay(trace, &mut every, cfg, dynamics);
    let r = simulate_reference(trace, &mut Saath::new(saath.clone()), cfg, dynamics);
    assert_eq!(b.jumped, 0, "{what}: a zero horizon was jumped over");
    let mine = outcome(&a.out);
    assert_eq!(mine, outcome(&b.out), "{what}: vs the every-round engine");
    assert_eq!(mine, outcome(&r), "{what}: vs the reference loop");
    assert!(a.log == b.log, "{what}: the event logs differ");
    a
}

/// As above, for a case built around a long quiet run: it must have
/// been crossed in jumps (where the counter is compiled in).
fn assert_quiet_run_is_jumped(
    what: &str,
    trace: &Trace,
    cfg: &SimConfig,
    dynamics: &DynamicsSpec,
    saath: &SaathConfig,
) -> Replay {
    let a = assert_jumps_are_invisible(what, trace, cfg, dynamics, saath);
    if saath::telemetry::enabled() {
        assert!(
            a.jumped >= 50,
            "{what}: only {} rounds passed over",
            a.jumped
        );
    }
    a
}

fn flow(src: u32, dst: u32, mb: u64) -> FlowSpec {
    FlowSpec::new(NodeId(src), NodeId(dst), Bytes::mb(mb))
}

/// One 2.5 GB flow from node 0 to node 1 — twenty seconds at line rate,
/// during which Saath's thresholds are crossed at 80 ms, 0.8 s and 8 s
/// and nothing else happens — plus whatever `others` do on other
/// ports. Every case below ends one of those quiet runs its own way.
fn quiet_trace(others: Vec<CoflowSpec>) -> Trace {
    let mut coflows = vec![CoflowSpec::new(
        CoflowId(0),
        Time::ZERO,
        vec![flow(0, 1, 2_500)],
    )];
    coflows.extend(others);
    coflows.sort_by_key(|c| (c.arrival, c.id));
    let trace = Trace {
        num_nodes: 6,
        port_rate: Rate::gbps(1),
        coflows,
    };
    trace.validate().unwrap();
    trace
}

/// 3 s, which is a δ boundary, and an instant 3.7 ms past it.
const ON_BOUNDARY: Time = Time::from_millis(3_000);
const MID_DELTA: Time = Time(3_003_700_000);

#[test]
fn a_jump_stops_short_of_an_arrival_and_of_a_readiness_wake() {
    let (cfg, none, saath) = (
        SimConfig::default(),
        DynamicsSpec::none(),
        SaathConfig::default(),
    );
    for at in [MID_DELTA, ON_BOUNDARY] {
        let arriving = CoflowSpec::new(CoflowId(1), at, vec![flow(2, 3, 10)]);
        let what = format!("arrival at {at}");
        assert_quiet_run_is_jumped(&what, &quiet_trace(vec![arriving]), &cfg, &none, &saath);

        // There from the start, but its data is not: the wake is seen
        // at the first boundary at or after `at`. (Deadlines off, or
        // the waiting CoFlow's would expire first and void every
        // horizon until the data came.)
        let mut late = flow(2, 3, 10);
        late.available_after = at.since(Time::ZERO);
        let waiting = CoflowSpec::new(CoflowId(1), Time::ZERO, vec![late, flow(4, 5, 10)]);
        let what = format!("data available at {at}");
        let patient = SaathConfig {
            starvation_avoidance: false,
            ..Default::default()
        };
        let trace = quiet_trace(vec![waiting]);
        let a = assert_quiet_run_is_jumped(&what, &trace, &cfg, &none, &patient);
        assert_eq!(a.out.unwrap().unfinished, 0);
    }
}

#[test]
fn a_jump_stops_short_of_every_dynamics_event() {
    let (cfg, saath) = (SimConfig::default(), SaathConfig::default());
    let trace = quiet_trace(Vec::new());
    for (from, until, fail_at) in [
        (MID_DELTA, Time::from_secs(5), Time(9_003_700_000)),
        (ON_BOUNDARY, Time(5_003_700_000), Time::from_secs(9)),
    ] {
        // A slowdown on the long flow's sender, then its receiver dies:
        // a quiet run ends at each of the three.
        let dynamics = DynamicsSpec {
            events: vec![
                DynamicsEvent::Straggler {
                    node: NodeId(0),
                    at: from,
                    until,
                    num: 1,
                    den: 4,
                },
                DynamicsEvent::NodeFailure {
                    node: NodeId(1),
                    at: fail_at,
                    restart_delay: Duration::from_millis(130),
                },
            ],
        };
        let what = format!("straggler {from}–{until}, failure at {fail_at}");
        let a = assert_quiet_run_is_jumped(&what, &trace, &cfg, &dynamics, &saath);
        assert_eq!(a.out.unwrap().unfinished, 0);
    }
}

#[test]
fn a_jump_stops_short_of_a_completion_and_of_the_horizon() {
    let (none, saath) = (DynamicsSpec::none(), SaathConfig::default());
    // 1000 MB at 1 MB per δ: predicted, from the first round on, to
    // finish exactly on the boundary at 8 s.
    let mut exact = quiet_trace(Vec::new());
    exact.coflows[0].flows[0].size = Bytes::mb(1_000);
    let a = assert_quiet_run_is_jumped(
        "completion on a boundary",
        &exact,
        &SimConfig::default(),
        &none,
        &saath,
    );
    let out = a.out.unwrap();
    assert_eq!((out.end, out.rounds), (Time::from_secs(8), 1_000));

    // A second CoFlow on the long flow's sender: each threshold it
    // crosses (Eq. 1) reorders the two, so a horizon overrun shows.
    let rival = CoflowSpec::new(CoflowId(1), MID_DELTA, vec![flow(0, 2, 1_500)]);
    assert_quiet_run_is_jumped(
        "threshold crossings",
        &quiet_trace(vec![rival]),
        &SimConfig::default(),
        &none,
        &saath,
    );

    for horizon in [ON_BOUNDARY, MID_DELTA] {
        let cfg = SimConfig {
            horizon: Some(horizon),
            ..Default::default()
        };
        let what = format!("horizon at {horizon}");
        let a = assert_quiet_run_is_jumped(&what, &quiet_trace(Vec::new()), &cfg, &none, &saath);
        let out = a.out.unwrap();
        assert_eq!((out.end, out.unfinished), (horizon, 1));
        assert_eq!(out.rounds, 376, "rounds at 0, 8 ms, …, 3 s");
    }
}

/// A wide CoFlow behind a relay of long narrow ones on both of its
/// senders, with a first threshold so high (1 GB) that nobody crosses
/// one: from the last narrow arrival on, the only thing ahead is the
/// wide CoFlow's starvation deadline (D5), ninety boundaries away.
#[test]
fn a_jump_stops_short_of_a_starvation_deadline() {
    let mut coflows = vec![CoflowSpec::new(
        CoflowId(0),
        Time::from_millis(1),
        vec![flow(0, 2, 100), flow(1, 3, 100)],
    )];
    // 450 MB (3.6 s) every 3.5 s on each sender — always one running
    // and one waiting — the second sender's relay 1.8 s out of step
    // behind a 225 MB head start, so neither sender is ever free.
    coflows.push(CoflowSpec::new(
        CoflowId(1),
        Time::ZERO,
        vec![flow(1, 5, 225)],
    ));
    for i in 0..16u32 {
        let at = |ms: u64| Time::from_millis(ms + 3_500 * i as u64);
        let (first, second) = (CoflowId(2 + 2 * i), CoflowId(3 + 2 * i));
        coflows.push(CoflowSpec::new(first, at(0), vec![flow(0, 4, 450)]));
        coflows.push(CoflowSpec::new(second, at(1_700), vec![flow(1, 5, 450)]));
    }
    coflows.sort_by_key(|c| (c.arrival, c.id));
    let trace = Trace {
        num_nodes: 6,
        port_rate: Rate::gbps(1),
        coflows,
    };
    trace.validate().unwrap();
    let saath = SaathConfig {
        queues: saath::core::QueueConfig {
            first_threshold: Bytes::mb(1_000),
            ..Default::default()
        },
        ..Default::default()
    };
    let (cfg, none) = (SimConfig::default(), DynamicsSpec::none());
    let mut probe = Saath::new(saath.clone());
    let out = simulate(&trace, &mut probe, &cfg, &none).unwrap();
    assert!(probe.starvation_kicks > 0, "nothing starved");
    // The wide CoFlow entered queue 0 with two others at its first
    // round (8 ms): deadline 2 · 3 · 8 s later, and it ran from there.
    let wide = &out.records[0];
    assert_eq!(wide.id, CoflowId(0));
    assert_eq!(wide.finish, Time::from_millis(48_008 + 800));
    assert_quiet_run_is_jumped("starvation deadline", &trace, &cfg, &none, &saath);
}

#[test]
fn the_round_limit_falls_inside_a_jump() {
    let (none, saath) = (DynamicsSpec::none(), SaathConfig::default());
    // Round 300 of the long flow lies between the crossings at 0.8 s
    // (round 100) and 8 s (round 1000).
    let cfg = SimConfig {
        max_rounds: 300,
        ..Default::default()
    };
    let a = assert_quiet_run_is_jumped("max_rounds", &quiet_trace(Vec::new()), &cfg, &none, &saath);
    assert_eq!(a.out.unwrap_err(), SimError::RoundLimit(300));

    // A view that can never progress: the only flow's data never
    // comes. With deadlines on, Saath's expired CoFlow voids the
    // horizon and the limit is walked to; with them off the horizon
    // never ends and the limit is jumped to. Same error either way.
    let mut never = flow(0, 1, 10);
    never.available_after = Duration::from_secs(1_000_000_000);
    let stuck = Trace {
        num_nodes: 2,
        port_rate: Rate::gbps(1),
        coflows: vec![CoflowSpec::new(CoflowId(0), Time::ZERO, vec![never])],
    };
    let cfg = SimConfig {
        max_rounds: 5_000,
        ..Default::default()
    };
    for starvation_avoidance in [true, false] {
        let saath = SaathConfig {
            starvation_avoidance,
            ..Default::default()
        };
        let what = format!("stuck view, deadlines {starvation_avoidance}");
        let a = assert_jumps_are_invisible(&what, &stuck, &cfg, &none, &saath);
        assert_eq!(a.out.unwrap_err(), SimError::RoundLimit(5_000));
        if saath::telemetry::enabled() && !starvation_avoidance {
            assert_eq!(a.jumped, 4_999, "every round but the first");
        }
    }
}

/// Keeps what the engine hands its sink, frame by frame.
#[derive(Default)]
struct Frames {
    rounds: Vec<RoundRecord>,
    snapshots: Vec<(u64, Vec<u8>)>,
}

impl RoundSink for Frames {
    fn append_round(&mut self, rec: &RoundRecord) -> Result<u64, saath::eventlog::LogError> {
        self.rounds.push(rec.clone());
        Ok(0)
    }

    fn append_snapshot(
        &mut self,
        round: u64,
        blob: &[u8],
    ) -> Result<u64, saath::eventlog::LogError> {
        self.snapshots.push((round, blob.to_vec()));
        Ok(0)
    }
}

/// A jump lands on every snapshot point: at any cadence the blobs are,
/// byte for byte, the ones a cadence of 1 — which leaves no room to
/// jump at all — takes at the same round counts.
#[test]
fn snapshots_inside_a_quiet_run_are_the_single_steps_snapshots() {
    let arriving = CoflowSpec::new(CoflowId(1), MID_DELTA, vec![flow(2, 3, 400)]);
    let trace = quiet_trace(vec![arriving]);
    let (cfg, none) = (SimConfig::default(), DynamicsSpec::none());
    let framed = |snapshot_every: u64| {
        let (mut frames, mut tele) = (Frames::default(), Telemetry::new());
        let hooks = ReplayHooks {
            tele: Some(&mut tele),
            sink: Some(&mut frames),
            snapshot_every,
            resume_from: None,
        };
        let out = simulate_resumable(&trace, &mut Saath::with_defaults(), &cfg, &none, hooks);
        (out.unwrap(), frames, tele.counter(Counter::RoundsJumped))
    };
    let (stepped, every_round, jumped) = framed(1);
    assert_eq!(jumped, 0, "a cadence of 1 single-steps");
    assert_eq!(every_round.snapshots.len() as u64, stepped.rounds);
    for cadence in [0u64, 7, 100] {
        let (out, frames, jumped) = framed(cadence);
        assert_eq!(out.records, stepped.records, "cadence {cadence}");
        assert_eq!(out.rounds, stepped.rounds, "cadence {cadence}");
        assert!(frames.rounds == every_round.rounds, "cadence {cadence}");
        if saath::telemetry::enabled() {
            assert!(jumped >= 50, "cadence {cadence}: {jumped} passed over");
        }
        let want: Vec<&(u64, Vec<u8>)> = every_round
            .snapshots
            .iter()
            .filter(|(round, _)| cadence > 0 && round % cadence == 0)
            .collect();
        let got: Vec<&(u64, Vec<u8>)> = frames.snapshots.iter().collect();
        assert!(got == want, "cadence {cadence}: snapshot frames differ");
        assert_eq!(
            got.len() as u64,
            out.rounds.checked_div(cadence).unwrap_or(0)
        );
    }
}

#[test]
fn most_boundaries_of_the_default_traces_are_not_visited() {
    let (cfg, none, saath) = (
        SimConfig::default(),
        DynamicsSpec::none(),
        SaathConfig::default(),
    );
    for (what, trace) in [("fb", mini_fb(23)), ("osp", mini_osp(29))] {
        let a = assert_jumps_are_invisible(what, &trace, &cfg, &none, &saath);
        let rounds = a.out.unwrap().rounds;
        if saath::telemetry::enabled() {
            assert!(
                a.jumped * 2 > rounds,
                "{what}: only {} of {rounds} rounds passed over",
                a.jumped
            );
        }
    }
}

/// Event-driven mode used to leave a CoFlow whose data came late
/// unfinished, in both loops alike, whenever nothing else was pending
/// at the time; now the readiness instant is stepped to.
#[test]
fn late_data_finishes_in_event_driven_mode() {
    let cfg = SimConfig {
        delta: Duration::ZERO,
        ..Default::default()
    };
    let late = delayed_data(41);
    for dynamics in [DynamicsSpec::none(), stress_dynamics()] {
        let what = format!("late data, δ = 0, {} events", dynamics.events.len());
        let a = assert_jumps_are_invisible(&what, &late, &cfg, &dynamics, &SaathConfig::default());
        assert_eq!(a.jumped, 0, "{what}: no boundaries to pass over");
        assert_eq!(a.out.unwrap().unfinished, 0, "{what}");
    }
    // The case that was stranded: one flow, nothing else in the trace.
    let mut only = flow(0, 1, 125);
    only.available_after = Duration::from_millis(500);
    let trace = Trace {
        num_nodes: 2,
        port_rate: Rate::gbps(1),
        coflows: vec![CoflowSpec::new(CoflowId(0), Time::ZERO, vec![only])],
    };
    let a = assert_jumps_are_invisible(
        "lone late flow",
        &trace,
        &cfg,
        &DynamicsSpec::none(),
        &SaathConfig::default(),
    );
    let out = a.out.unwrap();
    assert_eq!((out.unfinished, out.end), (0, Time::from_millis(1_500)));
}
