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
