//! The distributed runtime and the discrete-event simulator implement
//! the same coordination protocol around the same scheduler code; on
//! the same trace their CCTs must agree up to emulation noise (thread
//! scheduling jitter, δ-granular measurement).

use saath::prelude::*;
use saath::runtime::{emulate, EmulationConfig};
use saath::workload::gen;

#[test]
fn emulation_tracks_simulation() {
    // Modest contention so jitter stays small relative to CCTs.
    let mut cfg = gen::small(13, 10, 16);
    cfg.span = Duration::from_secs(16);
    let trace = gen::generate(&cfg);

    // Simulator at the emulation's δ for apples-to-apples staleness.
    let sim_cfg = SimConfig {
        delta: Duration::from_millis(400),
        ..Default::default()
    };
    let sim = run_policy(&trace, &Policy::saath(), &sim_cfg, &DynamicsSpec::none()).unwrap();

    let emu_cfg = EmulationConfig {
        scale: 20,
        wall_deadline: std::time::Duration::from_secs(120),
        ..Default::default()
    };
    let emu = emulate(&trace, &|| Box::new(Saath::with_defaults()), &emu_cfg);
    assert!(!emu.coordinator.timed_out, "emulation timed out");
    assert_eq!(emu.coordinator.records.len(), sim.records.len());

    // Compare per-CoFlow CCTs: emulation is δ-granular and jittery, so
    // allow generous slack — but the two must be the same phenomenon,
    // not vaguely similar numbers.
    let mut ratios = Vec::new();
    for (s, e) in sim.records.iter().zip(&emu.coordinator.records) {
        assert_eq!(s.id, e.id);
        let sim_s = s.cct().as_secs_f64();
        let emu_s = e.cct().as_secs_f64();
        ratios.push(emu_s / sim_s.max(1e-9));
        assert!(
            emu_s < sim_s * 5.0 + 3.0,
            "{}: emulated {emu_s}s vs simulated {sim_s}s",
            s.id
        );
    }
    // The emulation's stats→compute→push pipeline adds a couple of δ of
    // lag per scheduling decision that the simulator's idealized
    // same-boundary application does not model, so the emulation runs
    // somewhat slower on average — but the two must stay the same
    // phenomenon, not vaguely similar numbers.
    // Aggregate comparison is robust to tiny-CCT coflows whose ratio is
    // dominated by one δ of lag.
    let sim_avg = sim.avg_cct_secs();
    let emu_avg = emu
        .coordinator
        .records
        .iter()
        .map(|r| r.cct().as_secs_f64())
        .sum::<f64>()
        / emu.coordinator.records.len() as f64;
    let agg = emu_avg / sim_avg.max(1e-9);
    assert!(
        (0.5..4.0).contains(&agg),
        "systematic emulation/simulation divergence: avg {emu_avg}s vs {sim_avg}s ({agg}x), per-coflow ratios {ratios:?}"
    );
}

#[test]
fn emulation_relative_ordering_matches_simulation() {
    // Saath should beat Aalo (or tie) in both worlds on a contended
    // workload; the *comparison*, not just the absolute numbers, must
    // carry over — that is what Fig 15 claims for the real testbed.
    let mut cfg = gen::small(19, 8, 20);
    cfg.span = Duration::from_secs(10);
    let trace = gen::generate(&cfg);

    let emu_cfg = EmulationConfig {
        scale: 20,
        delta: Duration::from_millis(100),
        tick: Duration::from_millis(25),
        wall_deadline: std::time::Duration::from_secs(120),
        ..Default::default()
    };
    let saath = emulate(&trace, &|| Box::new(Saath::with_defaults()), &emu_cfg);
    let aalo = emulate(&trace, &|| Box::new(Aalo::with_defaults()), &emu_cfg);
    assert!(!saath.coordinator.timed_out && !aalo.coordinator.timed_out);

    let emu_speedup =
        SpeedupSummary::compute(&aalo.coordinator.records, &saath.coordinator.records).unwrap();

    let sim_cfg = SimConfig {
        delta: Duration::from_millis(100),
        ..Default::default()
    };
    let sim_saath = run_policy(&trace, &Policy::saath(), &sim_cfg, &DynamicsSpec::none()).unwrap();
    let sim_aalo = run_policy(&trace, &Policy::aalo(), &sim_cfg, &DynamicsSpec::none()).unwrap();
    let sim_speedup = SpeedupSummary::compute(&sim_aalo.records, &sim_saath.records).unwrap();

    // Same direction, same ballpark (ratio of medians within 2×).
    let ratio = emu_speedup.median / sim_speedup.median;
    assert!(
        (0.5..2.0).contains(&ratio),
        "emulated {emu_speedup} vs simulated {sim_speedup}"
    );
    assert!(
        emu_speedup.median >= 1.0 || sim_speedup.median < 1.1,
        "simulation says Saath wins but the emulation disagrees: \
         emulated {emu_speedup} vs simulated {sim_speedup}"
    );
}
