//! Integration tests of the telemetry layer under the bench crate.
//!
//! 1. The JSONL round trace of a small seeded FB-like workload is
//!    byte-stable across runs and matches a checked-in golden head.
//! 2. Both Saath and Aalo report nonzero mechanism counts on that
//!    workload (queue transitions, class joins, dirty sets, …).

use saath_core::{Aalo, CoflowScheduler, Saath};
use saath_simulator::{simulate_resumable, ReplayHooks, SimConfig, SimOutput};
use saath_telemetry::{Counter, Phase, Telemetry};
use saath_workload::{gen, DynamicsSpec, Trace};

/// Scaled-down FB-like workload (same preset the equivalence suite
/// uses: paper mix/bin structure, few CoFlows).
fn mini_fb(seed: u64) -> Trace {
    let cfg = gen::GenConfig {
        num_nodes: 40,
        num_coflows: 60,
        span: saath_simcore::Duration::from_secs(40),
        max_width: 1_600,
        ..gen::fb_like(seed)
    };
    gen::generate(&cfg)
}

fn instrumented(
    trace: &Trace,
    sched: &mut dyn CoflowScheduler,
    dynamics: &DynamicsSpec,
) -> (SimOutput, Telemetry) {
    let mut tele = Telemetry::with_jsonl();
    let out = simulate_resumable(
        trace,
        sched,
        &SimConfig::default(),
        dynamics,
        ReplayHooks {
            tele: Some(&mut tele),
            ..ReplayHooks::none()
        },
    )
    .unwrap();
    (out, tele)
}

#[test]
fn jsonl_trace_is_byte_stable_and_matches_golden_head() {
    let trace = mini_fb(5);
    let (_, a) = instrumented(&trace, &mut Saath::with_defaults(), &DynamicsSpec::none());
    let (_, b) = instrumented(&trace, &mut Saath::with_defaults(), &DynamicsSpec::none());
    assert_eq!(a.jsonl(), b.jsonl(), "JSONL trace not byte-stable");
    assert!(!a.jsonl().is_empty());
    for line in a.jsonl().lines() {
        assert!(
            line.starts_with("{\"round\":") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
    }
    // Golden head: the first 5 lines of the seed-5 trace, checked in.
    // Regenerate with `BLESS=1 cargo test -p saath-bench jsonl_trace`.
    let head: String = a
        .jsonl()
        .lines()
        .take(5)
        .map(|l| format!("{l}\n"))
        .collect();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_head.jsonl");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &head).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden missing — run once with BLESS=1");
    assert_eq!(head, golden, "JSONL head drifted from the golden file");
}

#[test]
fn both_policies_report_nonzero_mechanism_counts() {
    let trace = mini_fb(5);

    let mut saath = Saath::with_defaults();
    let (out, tele) = instrumented(&trace, &mut saath, &DynamicsSpec::none());
    assert_eq!(out.unfinished, 0);
    // Every round is counted; the ones that reused the schedule in
    // hand are the ones `SchedTimings` (work done) did not see.
    assert_eq!(tele.counter(Counter::SchedRounds), out.rounds);
    let elided = tele.counter(Counter::RoundsElided);
    assert_eq!(saath.timings.rounds() + elided, out.rounds);
    assert!(elided * 2 > out.rounds, "only {elided} rounds reused");
    // And the loop stopped only at the rounds it did not jump over.
    let jumped = tele.counter(Counter::RoundsJumped);
    let visited = tele.spans.hist(Phase::EngineRound).count;
    assert_eq!(visited + jumped, out.rounds);
    assert!(jumped * 2 > out.rounds, "only {jumped} rounds passed over");
    assert!(tele.counter(Counter::ClassJoins) > 0);
    assert!(tele.dirty_set.count > 0 && tele.dirty_set.max > 0);
    assert!(saath.mech.queue_transitions > 0);
    assert!(saath.mech.gang_admissions > 0);
    assert!(saath.mech.wc_backfills > 0);
    assert!(saath.mech.lcof_comparisons > 0);
    assert!(saath.mech.madd_evals > 0);
    // Incremental contention: the dirty-set hint means most rounds are
    // delta-updates, with footprint joins/leaves actually applied.
    assert!(saath.mech.contention_deltas > 0);
    assert!(saath.mech.contention_rebuilds_avoided > 0);
    // The engine always supplies a change hint, so the only full
    // rebuild is the first round's tracker initialization (the
    // num_nodes 0 → N reset discards the hint by design).
    assert_eq!(
        saath.mech.contention_rebuilds, 1,
        "only the first round should full-rebuild"
    );

    let mut aalo = Aalo::with_defaults();
    let (out, tele) = instrumented(&trace, &mut aalo, &DynamicsSpec::none());
    assert_eq!(out.unfinished, 0);
    // Aalo sets no horizon: every round is computed.
    assert_eq!(tele.counter(Counter::RoundsElided), 0);
    assert_eq!(tele.counter(Counter::RoundsJumped), 0);
    assert_eq!(tele.spans.hist(Phase::EngineRound).count, out.rounds);
    assert_eq!(aalo.timings.rounds(), out.rounds);
    assert!(tele.counter(Counter::ClassJoins) > 0);
    assert!(tele.dirty_set.count > 0);
    assert!(aalo.mech.queue_transitions > 0);
    assert!(aalo.mech.lcof_comparisons > 0);
    // Aalo has no gang admission or deadline machinery.
    assert_eq!(aalo.mech.gang_admissions, 0);
    assert_eq!(aalo.mech.deadline_expiries, 0);
}
