//! The four workloads: what each generates, how it is run, and why it
//! is here. A workload is a *suite* of traces drawn from `--seed`, set
//! up, run and dropped one at a time; every reported number is a median
//! over the suite, so that one unlucky placement of a heavy CoFlow does
//! not move it.

use saath::runtime::TransportKind;
use saath::simcore::{Bytes, Duration};
use saath::workload::gen::{fb_like, osp_like, GenConfig};

/// Full size for measuring, or about a twentieth for `check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Check,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Closed batch: `simulate` replays a trace as fast as the host
    /// allows.
    Sim,
    /// Open loop: `emulate` replays arrivals on the `EmuClock`'s
    /// schedule whatever the coordinator's pace.
    Emu {
        transport: TransportKind,
        /// Agent NIC tick in simulated milliseconds.
        tick_ms: u64,
    },
}

/// What the replay of a `sim-*` workload's golden trace must produce,
/// whatever `--seed` is: the guard that a change to host time left
/// every simulated statistic alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Golden {
    /// `SimOutput::rounds` under Saath.
    pub rounds: u64,
    /// `run::digest` of the records under Saath and under Aalo.
    pub saath: u64,
    pub aalo: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    /// Coordination interval δ in simulated milliseconds.
    pub delta_ms: u64,
    config: fn(u64, Size) -> GenConfig,
    /// Suite lengths at full size: the timed part of an invocation
    /// lasts about `RUN_SECONDS` on the 2-core machine they were sized
    /// on.
    plan: Plan,
    /// `[full, check]`; `sim-*` only.
    golden: Option<[Golden; 2]>,
}

/// Simulated seconds per wall second in `emu-*`; with δ = 400 ms the
/// coordinator wakes every 8 wall-milliseconds, the paper's δ.
pub const EMU_SCALE: u64 = 50;

/// The sub-seed of the golden trace. Suites start at `seed * 4096`, so
/// only `--seed 0` draws it too.
const GOLDEN_SUBSEED: u64 = 0;

/// How many traces each phase of an invocation covers.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Traces in the suite, each run once, timed, with tracing off.
    pub runs: usize,
    /// Leading traces that also get the reference replays (Aalo, ideal
    /// coordinator) behind the CCT ratios.
    pub refs: usize,
    /// Leading traces a traced invocation runs (once off, once on).
    pub traced: usize,
}

impl Workload {
    /// Wall milliseconds the driver of the scheduler sleeps per round:
    /// δ on the emulated clock, nothing in the simulator.
    pub fn delta_wall_ms(&self) -> f64 {
        match self.family {
            Family::Sim => 0.0,
            Family::Emu { .. } => self.delta_ms as f64 / EMU_SCALE as f64,
        }
    }

    /// The generator configuration for trace `index` of the suite.
    /// `seed` reaches nothing but this.
    pub fn gen_config(&self, seed: u64, index: usize, size: Size) -> GenConfig {
        (self.config)(seed.wrapping_mul(4096).wrapping_add(index as u64), size)
    }

    /// The golden trace's configuration and what its replay must give.
    pub fn golden(&self, size: Size) -> Option<(GenConfig, Golden)> {
        let expected = self.golden?[(size == Size::Check) as usize];
        Some(((self.config)(GOLDEN_SUBSEED, size), expected))
    }

    pub fn plan(&self, size: Size) -> Plan {
        match size {
            Size::Full => self.plan,
            Size::Check => Plan {
                runs: 2,
                refs: 2,
                traced: 1,
            },
        }
    }
}

fn sim_fb_dense(seed: u64, size: Size) -> GenConfig {
    let mut c = fb_like(seed);
    // A whole trace's CoFlows land within two seconds on twice the
    // nodes: the backlog, and with it the active set, is there from the
    // first rounds instead of building up over minutes.
    c.num_nodes = 300;
    c.num_coflows = 320;
    c.span = Duration::from_secs(2);
    c.max_size = Bytes::gb(4);
    if size == Size::Check {
        c.num_nodes = 60;
        c.num_coflows = 40;
        c.max_size = Bytes::mb(400);
    }
    c
}

fn sim_osp_churn(seed: u64, size: Size) -> GenConfig {
    let mut c = osp_like(seed);
    // The preset's arrival density (1000 CoFlows in 300 s), cut to the
    // first 160.
    c.num_coflows = 160;
    c.span = Duration::from_secs(48);
    if size == Size::Check {
        c.num_coflows = 30;
        c.span = Duration::from_secs(9);
        c.max_size = Bytes::gb(5);
    }
    c
}

/// Both `emu-*` workloads place mappers and reducers uniformly over the
/// whole cluster and cap width at 400: with the preset's hot spots the
/// suite's mean CCT swings by a fifth from seed to seed, and with
/// CoFlows of ~4000 flows about one in-process emulation in five never
/// finishes (see README, Findings).
fn emu_everywhere(mut c: GenConfig) -> GenConfig {
    c.max_width = 400;
    c.wave_locality = 1.0;
    c.placement_zipf = 0.0;
    c.span = Duration::from_secs(5);
    c
}

fn emu_inproc_400(seed: u64, size: Size) -> GenConfig {
    let mut c = emu_everywhere(fb_like(seed));
    c.num_nodes = 400;
    c.num_coflows = 600;
    c.max_size = Bytes::gb(2);
    if size == Size::Check {
        c.num_nodes = 40;
        c.num_coflows = 30;
        c.max_size = Bytes::mb(100);
        c.span = Duration::from_secs(2);
    }
    c
}

fn emu_tcp_150(seed: u64, size: Size) -> GenConfig {
    let mut c = emu_everywhere(fb_like(seed));
    c.num_nodes = 150;
    c.num_coflows = 300;
    c.max_size = Bytes::gb(1);
    if size == Size::Check {
        c.num_nodes = 20;
        c.num_coflows = 20;
        c.max_size = Bytes::mb(100);
        c.span = Duration::from_secs(2);
    }
    c
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-fb-dense",
        why: "Wide CoFlows and a standing backlog: contention tracking, LCoF ordering, all-or-none probes and MADD do most of the work of each round.",
        family: Family::Sim,
        delta_ms: 8,
        config: sim_fb_dense,
        plan: Plan {
            runs: 160,
            refs: 16,
            traced: 40,
        },
        golden: Some([
            Golden {
                rounds: 9_256,
                saath: 18_045_381_166_192_745_715,
                aalo: 4_014_657_389_113_745_557,
            },
            Golden {
                rounds: 702,
                saath: 7_538_501_468_517_930_215,
                aalo: 10_878_520_754_071_354_110,
            },
        ]),
    },
    Workload {
        name: "sim-osp-churn",
        why: "Twice the rounds at a quarter of the work per round: timers, port-linear resets and the engine's dirty-set sync dominate, wide-CoFlow kernels do little.",
        family: Family::Sim,
        delta_ms: 8,
        config: sim_osp_churn,
        plan: Plan {
            runs: 280,
            refs: 28,
            traced: 70,
        },
        golden: Some([
            Golden {
                rounds: 33_234,
                saath: 3_500_301_976_287_745_413,
                aalo: 1_389_251_944_402_152_372,
            },
            Golden {
                rounds: 2_292,
                saath: 15_456_262_149_868_099_254,
                aalo: 6_231_296_279_799_694_768,
            },
        ]),
    },
    Workload {
        name: "emu-inproc-400",
        why: "No wire cost, 400 agents on one host thread: the coordinator's per-epoch drain of ~300 channel frames, view rebuild, changed:None scheduling round and push are the 0.3 ms it is busy per 8 ms epoch.",
        family: Family::Emu {
            transport: TransportKind::InProc,
            tick_ms: 100,
        },
        delta_ms: 400,
        config: emu_inproc_400,
        plan: Plan {
            runs: 15,
            refs: 15,
            // ≈1050 epochs pooled: ten beyond the p99.
            traced: 7,
        },
        golden: None,
    },
    Workload {
        name: "emu-tcp-150",
        why: "One loopback connection (not a real link), agents reporting once per epoch: the epoch costs the 8 ms idle socket poll that ends each drain; framing work under a timer tick hides behind it.",
        family: Family::Emu {
            transport: TransportKind::Tcp,
            // Equal to δ, so the hosted agents report in one burst per
            // δ and the coordinator's drain meets an idle socket every
            // epoch. With the default 100 ms the reports are staggered,
            // the drain (which ends only at an idle read of a kernel
            // timer tick) rarely ends, and epochs last 10-500 ms at
            // random.
            tick_ms: 400,
        },
        delta_ms: 400,
        config: emu_tcp_150,
        plan: Plan {
            runs: 23,
            refs: 23,
            traced: 6,
        },
        golden: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_never_share_a_trace() {
        for w in &WORKLOADS {
            let last = w.gen_config(1, w.plan(Size::Full).runs - 1, Size::Full);
            let next = w.gen_config(2, 0, Size::Full);
            assert!(
                last.seed < next.seed,
                "{}: seed 1 reaches into seed 2",
                w.name
            );
        }
    }

    #[test]
    fn plans_and_reasons_are_well_formed() {
        for w in &WORKLOADS {
            for size in [Size::Full, Size::Check] {
                let p = w.plan(size);
                assert!(p.runs >= 2 && (1..=p.runs).contains(&p.refs));
                assert!((1..=p.runs).contains(&p.traced));
                assert_eq!(w.golden(size).is_some(), w.family == Family::Sim);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
