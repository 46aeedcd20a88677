//! Snapshot/resume equivalence: resuming the engine from *any* snapshot
//! boundary must reproduce records byte-identical to the uninterrupted
//! run — CoFlow records, round count, end time, and the event log's
//! chained round digests alike.
//!
//! The suite drives the two workloads the issue names: a small FB-like
//! trace and a churn workload (straggler + node failure) long enough to
//! cross 200 scheduling rounds. Each is logged with snapshot cadence
//! k ∈ {1, 7, 50}; then the run is resumed from every snapshot the log
//! contains and compared against the straight-through output.

use saath::eventlog::{
    diff_logs, index_log, verify, ChainDigest, EventLogWriter, LogHeader, SnapshotRef,
};
use saath::prelude::*;
use saath::simulator::{simulate_resumable, ReplayHooks, SimError, SimOutput};
use saath::workload::{gen, DynamicsEvent};

fn small_fb(seed: u64) -> Trace {
    // Sized for ~170 scheduling rounds: resuming at every boundary with
    // k = 1 replays O(rounds²/2) rounds, so the trace must stay small.
    let cfg = gen::GenConfig {
        num_nodes: 16,
        num_coflows: 12,
        span: Duration::from_millis(1_500),
        max_width: 200,
        ..gen::fb_like(seed)
    };
    gen::generate(&cfg)
}

fn churn_trace() -> Trace {
    // ~250 scheduling rounds under `churn_dynamics` (asserted below).
    gen::generate(&gen::small(43, 16, 10))
}

fn churn_dynamics() -> DynamicsSpec {
    DynamicsSpec {
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
    }
}

fn header_for(
    trace: &Trace,
    scheduler: &str,
    start_round: u64,
    start_digest: ChainDigest,
) -> LogHeader {
    LogHeader {
        num_nodes: trace.num_nodes as u64,
        port_rate: trace.port_rate.as_u64(),
        delta_ns: SimConfig::default().delta.as_nanos(),
        scheduler: scheduler.into(),
        trace_digest: ChainDigest::ZERO,
        start_round,
        start_digest,
    }
}

/// Runs start-to-finish with logging at cadence `k`; returns the output
/// and the log bytes.
fn logged_run(
    trace: &Trace,
    dynamics: &DynamicsSpec,
    sched: &mut dyn CoflowScheduler,
    k: u64,
) -> (SimOutput, Vec<u8>) {
    let name = sched.name();
    let mut w =
        EventLogWriter::new(Vec::new(), &header_for(trace, name, 0, ChainDigest::ZERO)).unwrap();
    let out = simulate_resumable(
        trace,
        sched,
        &SimConfig::default(),
        dynamics,
        ReplayHooks {
            tele: None,
            sink: Some(&mut w),
            snapshot_every: k,
            resume_from: None,
        },
    )
    .unwrap();
    (out, w.into_inner().unwrap())
}

/// Resumes from `snap` with a fresh scheduler, logging the continuation
/// into a log seeded with the snapshot-point digest.
fn resumed_run(
    trace: &Trace,
    dynamics: &DynamicsSpec,
    sched: &mut dyn CoflowScheduler,
    snap: &SnapshotRef,
) -> (SimOutput, Vec<u8>) {
    let name = sched.name();
    let mut w = EventLogWriter::new(
        Vec::new(),
        &header_for(trace, name, snap.round, snap.digest),
    )
    .unwrap();
    let out = simulate_resumable(
        trace,
        sched,
        &SimConfig::default(),
        dynamics,
        ReplayHooks {
            tele: None,
            sink: Some(&mut w),
            snapshot_every: 0,
            resume_from: Some(&snap.blob),
        },
    )
    .unwrap();
    (out, w.into_inner().unwrap())
}

/// The workhorse: log the full run at cadence `k`, then resume from
/// every snapshot boundary and demand byte-identical everything.
fn assert_resume_equivalence(
    trace: &Trace,
    dynamics: &DynamicsSpec,
    mk_sched: &dyn Fn() -> Box<dyn CoflowScheduler>,
    k: u64,
) -> u64 {
    let baseline = simulate(trace, &mut *mk_sched(), &SimConfig::default(), dynamics).unwrap();
    let (full_out, full_log) = logged_run(trace, dynamics, &mut *mk_sched(), k);
    // Logging and snapshotting must not perturb the simulation.
    assert_eq!(
        baseline.records, full_out.records,
        "logging changed records"
    );
    assert_eq!(baseline.rounds, full_out.rounds);
    assert_eq!(baseline.end, full_out.end);

    let summary = verify(&full_log[..]).expect("full log fails verification");
    assert_eq!(summary.rounds, full_out.rounds, "one record per round");
    let idx = index_log(&full_log).unwrap();
    assert_eq!(
        idx.snapshots.len() as u64,
        full_out.rounds / k,
        "expected a snapshot at every multiple of k the run crossed"
    );

    for snap in &idx.snapshots {
        let (out, resumed_log) = resumed_run(trace, dynamics, &mut *mk_sched(), snap);
        assert_eq!(
            out.records, full_out.records,
            "resume at round {} produced different records",
            snap.round
        );
        assert_eq!(
            out.rounds, full_out.rounds,
            "resume at round {}",
            snap.round
        );
        assert_eq!(out.end, full_out.end, "resume at round {}", snap.round);
        assert_eq!(out.unfinished, full_out.unfinished);

        // The continuation's chain must end on the same digest as the
        // uninterrupted log's...
        let resumed_summary = verify(&resumed_log[..]).expect("resumed log fails verification");
        assert_eq!(
            resumed_summary.digest, summary.digest,
            "resume at round {} chains to a different digest",
            snap.round
        );
        assert_eq!(
            resumed_summary.start_round + resumed_summary.rounds,
            summary.rounds,
        );
        // ...and the differ must see nothing over the overlap.
        let d = diff_logs(&full_log, &resumed_log).unwrap();
        assert_eq!(
            d.first_divergent_round,
            None,
            "resume at round {} diverged: {}",
            snap.round,
            d.render()
        );
        assert_eq!(d.compared, full_out.rounds - snap.round);
    }
    full_out.rounds
}

#[test]
fn fb_trace_resumes_at_every_boundary() {
    let trace = small_fb(17);
    let dynamics = DynamicsSpec::none();
    let mk: Box<dyn Fn() -> Box<dyn CoflowScheduler>> =
        Box::new(|| Box::new(Saath::with_defaults()));
    for k in [1, 7, 50] {
        let rounds = assert_resume_equivalence(&trace, &dynamics, &*mk, k);
        assert!(
            rounds > 50,
            "FB workload too short ({rounds} rounds) to exercise k = {k}"
        );
    }
}

#[test]
fn churn_workload_resumes_at_every_boundary() {
    let trace = churn_trace();
    let dynamics = churn_dynamics();
    let mk: Box<dyn Fn() -> Box<dyn CoflowScheduler>> =
        Box::new(|| Box::new(Saath::with_defaults()));
    for k in [1, 7, 50] {
        let rounds = assert_resume_equivalence(&trace, &dynamics, &*mk, k);
        assert!(
            rounds >= 200,
            "churn workload must cross 200 rounds, got {rounds}"
        );
    }
}

#[test]
fn aalo_resumes_cleanly() {
    // Aalo keeps no historical state (its book rebuilds from the view),
    // so its snapshots carry an empty scheduler blob — the resume path
    // must work for that shape too.
    let trace = churn_trace();
    let dynamics = churn_dynamics();
    let mk: Box<dyn Fn() -> Box<dyn CoflowScheduler>> =
        Box::new(|| Box::new(Aalo::with_defaults()));
    assert_resume_equivalence(&trace, &dynamics, &*mk, 13);
}

#[test]
fn resume_rejects_mismatched_runs() {
    let trace = churn_trace();
    let dynamics = churn_dynamics();
    let (_, log) = logged_run(&trace, &dynamics, &mut Saath::with_defaults(), 10);
    let idx = index_log(&log).unwrap();
    let snap = idx.snapshots.first().expect("no snapshot in log");

    // Wrong scheduler: the blob names saath, we resume under aalo.
    let err = simulate_resumable(
        &trace,
        &mut Aalo::with_defaults(),
        &SimConfig::default(),
        &dynamics,
        ReplayHooks {
            tele: None,
            sink: None,
            snapshot_every: 0,
            resume_from: Some(&snap.blob),
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");

    // Wrong trace shape.
    let other = gen::generate(&gen::small(43, 12, 20));
    let err = simulate_resumable(
        &other,
        &mut Saath::with_defaults(),
        &SimConfig::default(),
        &dynamics,
        ReplayHooks {
            tele: None,
            sink: None,
            snapshot_every: 0,
            resume_from: Some(&snap.blob),
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");

    // Truncated blob.
    let err = simulate_resumable(
        &trace,
        &mut Saath::with_defaults(),
        &SimConfig::default(),
        &dynamics,
        ReplayHooks {
            tele: None,
            sink: None,
            snapshot_every: 0,
            resume_from: Some(&snap.blob[..snap.blob.len() / 2]),
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "{err}");

    // A blob whose written completion prediction disagrees with the
    // flow's own fields: the engine derives the prediction, so the copy
    // in the blob is checked. The first flow's record starts after the
    // 50-byte header (version, three shape counts, clairvoyance, δ,
    // `now`, round count) and holds `sent`, `rate`, `ready_at` (8 B
    // each) and `finished_at` (9 B) before the prediction.
    let mut blob = snap.blob.to_vec();
    blob[50 + 33] ^= 1;
    let err = simulate_resumable(
        &trace,
        &mut Saath::with_defaults(),
        &SimConfig::default(),
        &dynamics,
        ReplayHooks {
            tele: None,
            sink: None,
            snapshot_every: 0,
            resume_from: Some(&blob),
        },
    )
    .unwrap_err();
    assert!(
        matches!(&err, SimError::Snapshot(e) if e.contains("predicts")),
        "{err}"
    );
}
