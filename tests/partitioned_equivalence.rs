//! Acceptance suite for partitioned-compute sharding
//! (`saath_simulator::PartitionedScheduler`).
//!
//! The oracle contract: S=0 exchanges everything every round (no state
//! omitted), so every shard is a full replica and the scheduler must
//! reproduce the single coordinator's records
//! **byte for byte** — including through the mid-run kill drill. S≥1
//! omits state for up to S−1 rounds between summary refreshes; records
//! may then deviate, but the deviation must be *bounded and monotone*:
//! more staleness can only make the schedule less informed, never more.

use saath::core::view::{ClusterView, Schedule};
use saath::fabric::PortBank;
use saath::metrics::deviation::avg_cct_deviation;
use saath::prelude::*;
use saath::simulator::PartitionedScheduler;
use saath::workload::gen;

fn sim_cfg() -> SimConfig {
    SimConfig {
        delta: Duration::from_millis(400),
        ..Default::default()
    }
}

/// S=0 must be byte-identical to the single coordinator for
/// K ∈ {1, 2, 4}.
#[test]
fn partitioned_s0_is_byte_identical_for_k124() {
    let mut cfg = gen::small(29, 12, 40);
    cfg.span = Duration::from_secs(20);
    let trace = gen::generate(&cfg);

    let mut single = Saath::with_defaults();
    let baseline = simulate(&trace, &mut single, &sim_cfg(), &DynamicsSpec::none()).unwrap();
    assert!(!baseline.records.is_empty());

    for k in [1usize, 2, 4] {
        let mut part = PartitionedScheduler::new(k, 0, SaathConfig::default());
        let out = simulate(&trace, &mut part, &sim_cfg(), &DynamicsSpec::none()).unwrap();
        assert_eq!(
            out.records, baseline.records,
            "K={k} S=0 diverged from the single-coordinator records"
        );
        assert_eq!(part.merge_clamps(), 0, "K={k}: S=0 replicas must agree");
    }
}

/// The single coordinator's failover drill, independent of the sharded
/// code: a plain Saath recreated on the first round at or after `at`
/// (a fresh policy has no incremental state, so that round runs with
/// `changed: None`) — what the runtime's `restart_at` does.
struct RestartAt {
    inner: Saath,
    at: Option<Time>,
}

impl CoflowScheduler for RestartAt {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let mut changed = view.changed;
        if self.at.is_some_and(|t| view.now >= t) {
            self.inner = Saath::with_defaults();
            self.at = None;
            changed = None;
        }
        let view = ClusterView {
            now: view.now,
            num_nodes: view.num_nodes,
            coflows: view.coflows,
            changed,
        };
        self.inner.compute(&view, bank, out);
    }
}

/// Same bar through the kill drill: all shard policies are recreated
/// mid-run (summaries lost), which at S=0 is exactly the replicated
/// restart path — so records must still match the single-coordinator
/// restart byte for byte.
#[test]
fn partitioned_s0_kill_drill_matches_single_restart() {
    let mut cfg = gen::small(31, 6, 80);
    cfg.span = Duration::from_secs(12);
    let trace = gen::generate(&cfg);
    let drill_at = Time::from_secs(8);

    let mut single = RestartAt {
        inner: Saath::with_defaults(),
        at: Some(drill_at),
    };
    let baseline = simulate(&trace, &mut single, &sim_cfg(), &DynamicsSpec::none()).unwrap();
    assert!(!baseline.records.is_empty());

    // The drill must actually perturb the schedule, or the test is
    // vacuous.
    let mut plain = Saath::with_defaults();
    let no_restart = simulate(&trace, &mut plain, &sim_cfg(), &DynamicsSpec::none()).unwrap();
    assert_ne!(
        baseline.records, no_restart.records,
        "restart drill was a no-op; move drill_at into the active span"
    );

    for k in [1usize, 2, 4] {
        let mut part = PartitionedScheduler::with_restart(k, 0, SaathConfig::default(), drill_at);
        let out = simulate(&trace, &mut part, &sim_cfg(), &DynamicsSpec::none()).unwrap();
        assert_eq!(
            out.records, baseline.records,
            "K={k} S=0 kill drill diverged from the single-coordinator restart"
        );
    }
}

/// A partitioned run at S≥1 must also survive its kill drill: the run
/// completes every CoFlow and stays feasible (merge clamps only, no
/// panics), with summaries rebuilt after the restart.
#[test]
fn partitioned_s4_kill_drill_completes() {
    let mut cfg = gen::small(31, 6, 80);
    cfg.span = Duration::from_secs(12);
    let trace = gen::generate(&cfg);

    let mut part =
        PartitionedScheduler::with_restart(4, 4, SaathConfig::default(), Time::from_secs(8));
    let out = simulate(&trace, &mut part, &sim_cfg(), &DynamicsSpec::none()).unwrap();
    assert_eq!(out.records.len(), trace.coflows.len());
    assert!(part.summary_refreshes() > 0);
}

/// The randomized churn suite: ~200 scheduling rounds of arrivals,
/// completions, and departures per seed. Average CCT deviation against
/// the single-coordinator oracle must be 0 at S=0 and monotone
/// non-decreasing in S (averaged across seeds — a stale summary can
/// accidentally help one seed, but systematically more staleness must
/// not *reduce* deviation).
#[test]
fn churn_cct_deviation_is_monotone_in_staleness() {
    let seeds = [11u64, 23, 47];
    let staleness = [0u64, 1, 4, 16];
    // ~200 rounds: span 16 s at δ = 80 ms.
    let cfg = SimConfig {
        delta: Duration::from_millis(80),
        ..Default::default()
    };
    let mut avg = vec![0.0f64; staleness.len()];
    for &seed in &seeds {
        let mut gcfg = gen::small(seed, 14, 60);
        gcfg.span = Duration::from_secs(16);
        let trace = gen::generate(&gcfg);
        let mut single = Saath::with_defaults();
        let oracle = simulate(&trace, &mut single, &cfg, &DynamicsSpec::none()).unwrap();
        for (si, &s) in staleness.iter().enumerate() {
            let mut part = PartitionedScheduler::new(4, s, SaathConfig::default());
            let out = simulate(&trace, &mut part, &cfg, &DynamicsSpec::none()).unwrap();
            assert_eq!(out.records.len(), oracle.records.len(), "seed {seed} S={s}");
            let dev = avg_cct_deviation(&oracle.records, &out.records)
                .expect("matched records must yield a deviation");
            if s == 0 {
                assert_eq!(dev, 0.0, "seed {seed}: S=0 must be deviation-free");
            }
            avg[si] += dev / seeds.len() as f64;
        }
    }
    for w in avg.windows(2) {
        assert!(
            w[1] >= w[0],
            "avg CCT deviation not monotone in S: {avg:?} over S={staleness:?}"
        );
    }
}
