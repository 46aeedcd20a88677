//! Shared experiment infrastructure: the two traces, a memoized run
//! cache, and CSV output.

use saath_metrics::CoflowRecord;
use saath_simulator::{run_policy, Policy, SimConfig};
use saath_workload::{gen, DynamicsSpec, Trace};
use std::collections::HashMap;

/// Which of the paper's two workloads an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The Facebook-like trace (150 nodes, 526 CoFlows).
    Fb,
    /// The OSP-like trace (100 nodes, 1000 CoFlows, busier ports).
    Osp,
}

impl Workload {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Fb => "FB",
            Workload::Osp => "OSP",
        }
    }
}

/// The experiment laboratory: traces plus a `(workload, policy, δ)`
/// memo of simulation results, because Figs 9–13 all reuse the same
/// base runs.
pub struct Lab {
    fb: Trace,
    osp: Trace,
    seed: u64,
    cache: HashMap<(Workload, String, u64), Vec<CoflowRecord>>,
    /// Where CSV output goes (`results/` by default).
    pub out_dir: std::path::PathBuf,
}

impl Lab {
    /// A lab over freshly generated traces with the given seed.
    pub fn new(seed: u64) -> Lab {
        Lab {
            fb: gen::generate(&gen::fb_like(seed)),
            osp: gen::generate(&gen::osp_like(seed)),
            seed,
            cache: HashMap::new(),
            out_dir: std::path::PathBuf::from("results"),
        }
    }

    /// A faster lab for tests: small traces, same machinery.
    pub fn small(seed: u64) -> Lab {
        let mut fb_cfg = gen::small(seed, 25, 80);
        fb_cfg.num_nodes = 25;
        let mut osp_cfg = gen::small(seed + 1, 20, 100);
        osp_cfg.span = saath_simcore::Duration::from_secs(60);
        Lab {
            fb: gen::generate(&fb_cfg),
            osp: gen::generate(&osp_cfg),
            seed,
            cache: HashMap::new(),
            out_dir: std::path::PathBuf::from("results"),
        }
    }

    /// Replaces the FB workload with a real `coflow-benchmark` trace
    /// file (drop-in support for the published Facebook trace).
    pub fn with_fb_trace(mut self, trace: Trace) -> Lab {
        self.fb = trace;
        self.cache.retain(|(w, _, _), _| *w != Workload::Fb);
        self
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trace backing a workload.
    pub fn trace(&self, w: Workload) -> &Trace {
        match w {
            Workload::Fb => &self.fb,
            Workload::Osp => &self.osp,
        }
    }

    /// Runs (or recalls) a policy on a workload at the default δ.
    pub fn run(&mut self, w: Workload, policy: &Policy) -> &[CoflowRecord] {
        self.run_with_delta(w, policy, SimConfig::default().delta.as_nanos())
    }

    /// Runs (or recalls) a policy at a specific δ (nanoseconds).
    pub fn run_with_delta(
        &mut self,
        w: Workload,
        policy: &Policy,
        delta_ns: u64,
    ) -> &[CoflowRecord] {
        let key = (w, policy.name().to_string(), delta_ns);
        if !self.cache.contains_key(&key) {
            let cfg = SimConfig {
                delta: saath_simcore::Duration::from_nanos(delta_ns),
                ..SimConfig::default()
            };
            let out = run_policy(self.trace(w), policy, &cfg, &DynamicsSpec::none())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", policy.name(), w.label()));
            assert_eq!(
                out.unfinished,
                0,
                "{} left CoFlows unfinished on {}",
                policy.name(),
                w.label()
            );
            self.cache.insert(key.clone(), out.records);
        }
        &self.cache[&key]
    }

    /// Runs (or recalls) a custom Saath configuration under a unique
    /// cache tag (sensitivity sweeps reuse these across panels).
    pub fn run_named_saath(
        &mut self,
        w: Workload,
        tag: &str,
        cfg: saath_core::SaathConfig,
    ) -> &[CoflowRecord] {
        let key = (
            w,
            format!("saath[{tag}]"),
            SimConfig::default().delta.as_nanos(),
        );
        if !self.cache.contains_key(&key) {
            let out = run_policy(
                self.trace(w),
                &Policy::Saath(cfg),
                &SimConfig::default(),
                &DynamicsSpec::none(),
            )
            .unwrap_or_else(|e| panic!("saath[{tag}] on {}: {e}", w.label()));
            self.cache.insert(key.clone(), out.records);
        }
        &self.cache[&key]
    }

    /// Runs a policy on an ad-hoc trace (no caching).
    pub fn run_trace(&self, trace: &Trace, policy: &Policy, delta_ns: u64) -> Vec<CoflowRecord> {
        let cfg = SimConfig {
            delta: saath_simcore::Duration::from_nanos(delta_ns),
            ..SimConfig::default()
        };
        run_policy(trace, policy, &cfg, &DynamicsSpec::none())
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()))
            .records
    }

    /// Writes a CSV artifact under the output directory.
    pub fn write_csv(&self, name: &str, csv: &str) {
        if std::fs::create_dir_all(&self.out_dir).is_ok() {
            let path = self.out_dir.join(name);
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_return_identical_records() {
        let mut lab = Lab::small(3);
        let a = lab.run(Workload::Fb, &Policy::saath()).to_vec();
        let b = lab.run(Workload::Fb, &Policy::saath()).to_vec();
        assert_eq!(a, b);
        assert_eq!(a.len(), lab.trace(Workload::Fb).coflows.len());
    }

    #[test]
    fn delta_is_part_of_the_cache_key() {
        let mut lab = Lab::small(3);
        let fast = lab
            .run_with_delta(Workload::Fb, &Policy::saath(), 1_000_000)
            .to_vec();
        let slow = lab
            .run_with_delta(Workload::Fb, &Policy::saath(), 500_000_000)
            .to_vec();
        assert_ne!(fast, slow, "different δ must not share cache entries");
    }

    #[test]
    fn with_fb_trace_substitutes_and_invalidates_cache() {
        let mut lab = Lab::small(3);
        let before = lab.run(Workload::Fb, &Policy::saath()).to_vec();
        let replacement = saath_workload::gen::generate(&saath_workload::gen::small(99, 10, 12));
        let mut lab = Lab::small(3).with_fb_trace(replacement.clone());
        assert_eq!(lab.trace(Workload::Fb), &replacement);
        let after = lab.run(Workload::Fb, &Policy::saath()).to_vec();
        assert_eq!(after.len(), 12);
        assert_ne!(before, after);
        let _ = before;
    }

    #[test]
    fn workloads_differ() {
        let lab = Lab::small(3);
        assert_ne!(lab.trace(Workload::Fb), lab.trace(Workload::Osp));
        assert_eq!(Workload::Fb.label(), "FB");
    }
}
