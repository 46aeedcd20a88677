//! Differential fuzzer for the replay engine.
//!
//! Small random traces — up to 12 CoFlows, 40 flows and 16 nodes, with
//! late data, DAG edges, stragglers and node failures, at δ ∈ {0, 1 ns,
//! 1 ms, 8 ms} — are replayed under Saath (plain and with §4.3's
//! re-queue for restarted CoFlows) and Aalo three ways: the
//! engine as it is, the engine made to compute every round
//! (`EveryRound`) and the reference loop. All three must agree on
//! records, rounds and end (or fail with the same error), under a
//! random horizon and now and then a round limit. The logged run is then
//! resumed from a randomly chosen snapshot boundary, into the scheduler
//! that recorded it, and must chain to the same digest.
//!
//! The cases must reach what the engine's rate classes do beyond the
//! schedule diff: a straggler rescaling a flow that is sending (it
//! leaves its class and joins another) and a failure resetting one (it
//! leaves). Both are read off the event log and the records, not off
//! the engine, and the run fails if too few cases reach them.
//!
//! The case budget is `ENGINE_FUZZ_CASES` (default 64); CI runs a
//! larger fixed budget optimized with debug assertions on, so the
//! engine's own oracles run on every case too.

use proptest::prelude::*;
use saath::core::view::{ClusterView, Schedule};
use saath::eventlog::{index_log, verify, ChainDigest, EventLogWriter, LogHeader};
use saath::fabric::PortBank;
use saath::prelude::*;
use saath::simulator::{simulate_reference, simulate_resumable, ReplayHooks, SimError, SimOutput};
use saath::workload::DynamicsEvent;

/// Forwards everything to `S`, then voids the horizon: the engine
/// computes every round.
struct EveryRound<S: CoflowScheduler>(S);

impl<S: CoflowScheduler> CoflowScheduler for EveryRound<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        self.0.compute(view, bank, out);
        out.valid_until = Time::ZERO;
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.restore_state(bytes)
    }
}

/// One generated case.
#[derive(Clone, Debug)]
struct Case {
    trace: Trace,
    dynamics: DynamicsSpec,
    cfg: SimConfig,
    /// Snapshot cadence of the logged run.
    snapshot_every: u64,
    /// Picks the snapshot to resume from.
    pick: u64,
}

/// Draws a [`Case`]. Sizes and instants are in units of δ (1 ms in
/// event-driven mode), and the horizon is at most 400 units, so every
/// case spans a few hundred rounds at most; off-boundary offsets put
/// events between rounds.
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn sample(&self, rng: &mut TestRng) -> Case {
        let delta = [0, 1, 1_000_000, 8_000_000][rng.below(4) as usize];
        let unit = if delta == 0 { 1_000_000 } else { delta };
        // At δ = 1 ns a step credits `floor(r·1 ns)`: only a fast port
        // leaves that above zero for most rates.
        let port_rate = if delta == 1 || rng.below(2) == 0 {
            Rate(1_000_000_000_000)
        } else {
            Rate::gbps(1)
        };
        let unit_bytes = (port_rate.as_u64() as u128 * unit as u128 / 1_000_000_000) as u64;
        let at = |rng: &mut TestRng, units: u64| {
            let off = if unit > 1 { rng.below(unit) } else { 0 };
            Time(rng.below(units) * unit + off)
        };

        let num_nodes = 2 + rng.below(15) as usize;
        let num_coflows = 1 + rng.below(12) as usize;
        let mut flows_left = num_coflows + rng.below((40 - num_coflows) as u64 + 1) as usize;
        let mut arrivals: Vec<Time> = (0..num_coflows).map(|_| at(rng, 20)).collect();
        arrivals.sort();
        let mut coflows = Vec::with_capacity(num_coflows);
        for (i, &arrival) in arrivals.iter().enumerate() {
            let others = num_coflows - i - 1;
            let width = if others == 0 {
                flows_left
            } else {
                1 + rng.below((flows_left - others).min(8) as u64) as usize
            };
            flows_left -= width;
            let flows = (0..width)
                .map(|_| {
                    let src = rng.below(num_nodes as u64);
                    let dst = (src + 1 + rng.below(num_nodes as u64 - 1)) % num_nodes as u64;
                    let size = match rng.below(8) {
                        0 => 1 + rng.below(1_000),
                        _ => 1 + rng.below(30 * unit_bytes),
                    };
                    let mut f = FlowSpec::new(NodeId(src as u32), NodeId(dst as u32), Bytes(size));
                    if rng.below(4) == 0 {
                        f.available_after = Duration(at(rng, 10).as_nanos());
                    }
                    f
                })
                .collect();
            let mut c = CoflowSpec::new(CoflowId(i as u32), arrival, flows);
            if i > 0 && rng.below(6) == 0 {
                c.deps.push(CoflowId(rng.below(i as u64) as u32));
            }
            coflows.push(c);
        }
        let node = |rng: &mut TestRng| NodeId(rng.below(num_nodes as u64) as u32);
        let mut events = Vec::new();
        for _ in 0..rng.below(3) {
            let (num, den) = [(1, 2), (1, 4), (3, 4), (1, 3), (2, 3)][rng.below(5) as usize];
            let start = at(rng, 30);
            events.push(DynamicsEvent::Straggler {
                node: node(rng),
                at: start,
                until: start + Duration((1 + rng.below(20)) * unit),
                num,
                den,
            });
        }
        for _ in 0..rng.below(3) {
            let restart_delay = match rng.below(3) {
                0 => Duration::ZERO,
                _ => Duration(at(rng, 5).as_nanos()),
            };
            events.push(DynamicsEvent::NodeFailure {
                node: node(rng),
                at: at(rng, 30),
                restart_delay,
            });
        }
        Case {
            trace: Trace {
                num_nodes,
                port_rate,
                coflows,
            },
            dynamics: DynamicsSpec { events },
            cfg: SimConfig {
                delta: Duration(delta),
                horizon: Some(Time((50 + rng.below(350)) * unit + rng.below(unit))),
                // Now and then a round limit that trips mid-run, inside
                // a jump or not.
                max_rounds: match rng.below(5) {
                    0 => 1 + rng.below(300),
                    _ => SimConfig::default().max_rounds,
                },
                ..SimConfig::default()
            },
            snapshot_every: 1 + rng.below(20),
            pick: rng.next_u64(),
        }
    }
}

fn header(case: &Case, scheduler: &str, start_round: u64, start_digest: ChainDigest) -> LogHeader {
    LogHeader {
        num_nodes: case.trace.num_nodes as u64,
        port_rate: case.trace.port_rate.as_u64(),
        delta_ns: case.cfg.delta.as_nanos(),
        scheduler: scheduler.into(),
        trace_digest: ChainDigest::ZERO,
        start_round,
        start_digest,
    }
}

/// A replay logged into memory at `snapshot_every`, or resumed from
/// `resume` (its round and chain digest seed the log).
fn logged(
    case: &Case,
    sched: &mut dyn CoflowScheduler,
    snapshot_every: u64,
    resume: Option<&saath::eventlog::SnapshotRef>,
) -> (Result<SimOutput, SimError>, Vec<u8>) {
    let (round, digest) = resume.map_or((0, ChainDigest::ZERO), |s| (s.round, s.digest));
    let mut w =
        EventLogWriter::new(Vec::new(), &header(case, sched.name(), round, digest)).unwrap();
    let out = simulate_resumable(
        &case.trace,
        sched,
        &case.cfg,
        &case.dynamics,
        ReplayHooks {
            tele: None,
            sink: Some(&mut w),
            snapshot_every,
            resume_from: resume.map(|s| s.blob.as_slice()),
        },
    );
    (out, w.into_inner().unwrap())
}

/// What a replay is compared on.
fn outcome(out: &Result<SimOutput, SimError>) -> Result<(&[CoflowRecord], u64, Time), &SimError> {
    out.as_ref()
        .map(|o| (o.records.as_slice(), o.rounds, o.end))
}

/// How many flows a dynamics event found sending, read off the log (the
/// last round before the event names the rates in force) and the
/// records (a flow that finished at or before the event no longer
/// sends; flows of CoFlows cut off by the horizon are not counted).
#[derive(Default)]
struct Reach {
    rescaled: u64,
    reset: u64,
}

fn reach(case: &Case, out: &SimOutput, log: &[u8], r: &mut Reach) {
    let idx = index_log(log).unwrap();
    let rounds: Vec<_> = idx
        .rounds
        .iter()
        .map(|e| idx.read_round(log, e).unwrap())
        .collect();
    let mut finish = Vec::new();
    for c in &case.trace.coflows {
        let rec = out.records.iter().find(|rec| rec.id == c.id);
        finish.extend((0..c.flows.len()).map(|k| rec.map(|rec| rec.released + rec.flow_fcts[k])));
    }
    for ev in &case.dynamics.events {
        let (node, at, count) = match *ev {
            DynamicsEvent::Straggler { node, at, .. } => (node.0, at, &mut r.rescaled),
            DynamicsEvent::NodeFailure { node, at, .. } => (node.0, at, &mut r.reset),
        };
        let Some(before) = rounds.iter().rev().find(|rec| rec.now_ns < at.as_nanos()) else {
            continue;
        };
        *count += before
            .entries
            .iter()
            .filter(|e| e.src == node || e.dst == node)
            .filter(|e| finish[e.flow as usize].is_some_and(|t| t > at))
            .count() as u64;
    }
}

/// Replays `case` under `mk()`'s policy every way and demands one
/// outcome.
fn check<S: CoflowScheduler>(i: u32, case: &Case, mk: &dyn Fn() -> S, r: &mut Reach) {
    let what = format!("case {i} under {}: {case:?}", mk().name());
    // The scheduler that recorded the log resumes it too: restoring
    // its state must overwrite everything the full run left in it.
    let mut used = mk();
    let (full, log) = logged(case, &mut used, case.snapshot_every, None);
    let plain = simulate(&case.trace, &mut mk(), &case.cfg, &case.dynamics);
    let every = simulate(
        &case.trace,
        &mut EveryRound(mk()),
        &case.cfg,
        &case.dynamics,
    );
    let reference = simulate_reference(&case.trace, &mut mk(), &case.cfg, &case.dynamics);
    for (other, o) in [
        ("logged", &full),
        ("every-round", &every),
        ("reference", &reference),
    ] {
        assert_eq!(outcome(&plain), outcome(o), "{other} differs, {what}");
    }
    let Ok(full) = full else { return };

    let summary = verify(&log[..]).unwrap();
    assert_eq!(summary.rounds, full.rounds, "{what}");
    let idx = index_log(&log).unwrap();
    if let Some(n) = (idx.snapshots.len() as u64).checked_sub(1) {
        let snap = &idx.snapshots[(case.pick % (n + 1)) as usize];
        let (resumed, resumed_log) = logged(case, &mut used, 0, Some(snap));
        assert_eq!(
            outcome(&resumed),
            outcome(&Ok(full.clone())),
            "resume at round {} differs, {what}",
            snap.round
        );
        assert_eq!(
            verify(&resumed_log[..]).unwrap().digest,
            summary.digest,
            "resume at round {} chains elsewhere, {what}",
            snap.round
        );
    }
    reach(case, &full, &log, r);
}

fn dynamics_srtf() -> Saath {
    Saath::new(SaathConfig {
        dynamics_srtf: true,
        ..SaathConfig::default()
    })
}

#[test]
fn engine_loops_agree_on_generated_traces() {
    let cases: u32 = std::env::var("ENGINE_FUZZ_CASES")
        .map(|v| v.parse().expect("ENGINE_FUZZ_CASES is not a number"))
        .unwrap_or(64);
    let mut rng = TestRng::from_name(concat!(module_path!(), "::engine_loops_agree"));
    let mut r = Reach::default();
    for i in 0..cases {
        let case = Cases.sample(&mut rng);
        check(i, &case, &Saath::with_defaults, &mut r);
        check(i, &case, &Aalo::with_defaults, &mut r);
        // §4.3's re-queue reads the `restarted` flags the view sync
        // keeps, straggler flags included.
        check(i, &case, &dynamics_srtf, &mut r);
    }
    // Every case draws up to two stragglers and two failures, and most
    // land while something sends: per policy, about 1.2 sending flows
    // a case are rescaled, and as many reset.
    let floor = u64::from(cases);
    assert!(
        r.rescaled >= floor && r.reset >= floor,
        "{} rescaled and {} reset sending flows over {cases} cases, want {floor} each",
        r.rescaled,
        r.reset
    );
}
