//! Clairvoyant baselines: SEBF (Varys), SCF, SRTF, and LWTF.
//!
//! These policies know every flow's ground-truth size, which is exactly
//! what makes them *offline*: "using SCF online is not practical as it
//! requires prior knowledge about the CoFlow sizes" (§2.2). They exist
//! here because the paper uses them as yardsticks:
//!
//! * **SEBF + MADD** is Varys (SIGCOMM'14), the strongest clairvoyant
//!   heuristic; Fig 9 shows Saath approaching it *without* prior
//!   knowledge.
//! * **SCF** (shortest total size first) and **SRTF** (shortest
//!   remaining size first) are the classic single-resource policies.
//! * **LWTF** (least `t · k` first — remaining bottleneck duration ×
//!   contention) is the paper's §2.4 construction showing that ignoring
//!   the spatial dimension costs real CCT; Fig 3 has it beating SCF and
//!   SRTF.
//!
//! All four share an allocation engine: order the CoFlows by the policy
//! key, give each in turn its MADD rates (every flow finishes exactly at
//! the CoFlow's remaining bottleneck time) while capacity lasts, then
//! backfill leftovers greedily in the same order (work conservation, as
//! Varys does).

use crate::common::{contention_into, RoundArena};
use crate::view::{ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath_fabric::{
    bottleneck_time_with, greedy_fill_into, madd_rates_with, FlowEndpoints, MaddScratch, PortBank,
};
use saath_simcore::{Bytes, Duration, Rate};

/// The ordering key a clairvoyant scheduler uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflinePolicy {
    /// Smallest Effective Bottleneck First (Varys).
    Sebf,
    /// Shortest CoFlow (total ground-truth size) First.
    Scf,
    /// Shortest Remaining (total) Time First.
    Srtf,
    /// Least Waiting Time First: remaining bottleneck duration ×
    /// contention (§2.4).
    Lwtf,
}

impl OfflinePolicy {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            OfflinePolicy::Sebf => "varys-sebf",
            OfflinePolicy::Scf => "scf",
            OfflinePolicy::Srtf => "srtf",
            OfflinePolicy::Lwtf => "lwtf",
        }
    }
}

/// A clairvoyant scheduler with one of the [`OfflinePolicy`] orderings.
pub struct OfflineScheduler {
    policy: OfflinePolicy,
    // Per-round buffers, recycled so the hot path never allocates.
    arena: RoundArena,
    k: Vec<u32>,
    keys: Vec<u128>,
    order: Vec<usize>,
    missed: Vec<usize>,
    eps: Vec<FlowEndpoints>,
    rem: Vec<Bytes>,
    rates: Vec<Rate>,
    /// Scratch bank for Γ-on-nominal-capacity keys, refreshed via
    /// [`PortBank::clone_reset_from`] instead of a per-CoFlow clone.
    scratch_bank: Option<PortBank>,
    /// Per-port accumulation scratch for MADD (Γ + rate clamping).
    madd: MaddScratch,
}

impl OfflineScheduler {
    /// A scheduler with the given ordering policy.
    pub fn new(policy: OfflinePolicy) -> OfflineScheduler {
        OfflineScheduler {
            policy,
            arena: RoundArena::new(),
            k: Vec::new(),
            keys: Vec::new(),
            order: Vec::new(),
            missed: Vec::new(),
            eps: Vec::new(),
            rem: Vec::new(),
            rates: Vec::new(),
            scratch_bank: None,
            madd: MaddScratch::default(),
        }
    }

    /// Varys = SEBF ordering + MADD rates.
    pub fn varys() -> OfflineScheduler {
        OfflineScheduler::new(OfflinePolicy::Sebf)
    }

    /// The policy in use.
    pub fn policy(&self) -> OfflinePolicy {
        self.policy
    }
}

/// Remaining ground-truth volumes of a CoFlow's unfinished, ready flows,
/// paired with their endpoints, written into caller-provided buffers
/// (cleared first).
fn remaining_into(
    c: &CoflowView,
    num_nodes: usize,
    eps: &mut Vec<FlowEndpoints>,
    rem: &mut Vec<Bytes>,
) {
    eps.clear();
    rem.clear();
    for f in c.unfinished().filter(|f| f.ready) {
        eps.push(f.endpoints(num_nodes));
        rem.push(f.oracle_remaining());
    }
}

impl CoflowScheduler for OfflineScheduler {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn requires_clairvoyance(&self) -> bool {
        true
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let n = view.coflows.len();

        // Policy keys. Durations/sizes are u64-comparable; ties break by
        // arrival then id for determinism.
        self.keys.clear();
        match self.policy {
            OfflinePolicy::Scf => {
                self.keys.extend(view.coflows.iter().map(|c| {
                    c.flows
                        .iter()
                        .map(|f| {
                            f.oracle_size
                                .expect("clairvoyant scheduler run without an oracle")
                                .as_u64() as u128
                        })
                        .sum::<u128>()
                }));
            }
            OfflinePolicy::Srtf => {
                self.keys.extend(view.coflows.iter().map(|c| {
                    c.unfinished()
                        .map(|f| f.oracle_remaining().as_u64() as u128)
                        .sum::<u128>()
                }));
            }
            OfflinePolicy::Sebf | OfflinePolicy::Lwtf => {
                if self.policy == OfflinePolicy::Lwtf {
                    // The round walks every flow of every CoFlow for Γ
                    // anyway; one more pass builds `k` outright.
                    contention_into(view, &mut self.arena, &mut self.k);
                }
                // The waiting time a CoFlow inflicts under LWTF is t·k;
                // a CoFlow contending with nobody (k = 0) delays nobody
                // and can go first.
                let lwtf = self.policy == OfflinePolicy::Lwtf;
                for (ci, c) in view.coflows.iter().enumerate() {
                    remaining_into(c, view.num_nodes, &mut self.eps, &mut self.rem);
                    let t = gamma_on_fresh_bank(
                        &mut self.scratch_bank,
                        &mut self.madd,
                        bank,
                        &self.eps,
                        &self.rem,
                    )
                    .as_nanos() as u128;
                    self.keys
                        .push(if lwtf { t * self.k[ci] as u128 } else { t });
                }
            }
        };

        self.order.clear();
        self.order.extend(0..n);
        let keys = &self.keys;
        self.order
            .sort_by_key(|&i| (keys[i], view.coflows[i].arrival, view.coflows[i].id));

        // MADD in policy order while capacity lasts.
        self.missed.clear();
        for oi in 0..self.order.len() {
            let ci = self.order[oi];
            let c = &view.coflows[ci];
            remaining_into(c, view.num_nodes, &mut self.eps, &mut self.rem);
            if self.eps.is_empty() {
                continue;
            }
            if madd_rates_with(bank, &self.eps, &self.rem, &mut self.madd, &mut self.rates)
                && self.rates.iter().any(|r| !r.is_zero())
            {
                for (e, &r) in self.eps.iter().zip(self.rates.iter()) {
                    if !r.is_zero() {
                        bank.allocate(e.src, r);
                        bank.allocate(e.dst, r);
                        out.set(e.flow, r);
                    }
                }
            } else {
                self.missed.push(ci);
            }
        }

        // Work-conserving backfill, same order (Varys does the same).
        for mi in 0..self.missed.len() {
            let ci = self.missed[mi];
            let c = &view.coflows[ci];
            remaining_into(c, view.num_nodes, &mut self.eps, &mut self.rem);
            greedy_fill_into(bank, &self.eps, &mut self.rates);
            for (e, &r) in self.eps.iter().zip(self.rates.iter()) {
                if !r.is_zero() {
                    out.set(e.flow, r);
                }
            }
        }
    }
}

/// Γ on nominal (full) capacities — the *ordering* key must not depend
/// on what earlier CoFlows in this round already grabbed, only the
/// *allocation* does. The scratch bank is lazily cloned once, then
/// refreshed per call with [`PortBank::clone_reset_from`] so the key
/// computation allocates nothing in steady state.
fn gamma_on_fresh_bank(
    scratch: &mut Option<PortBank>,
    madd: &mut MaddScratch,
    bank: &PortBank,
    eps: &[FlowEndpoints],
    rem: &[Bytes],
) -> Duration {
    let fresh = match scratch {
        Some(fresh) => {
            fresh.clone_reset_from(bank);
            fresh
        }
        slot => {
            let mut fresh = bank.clone();
            fresh.reset_round();
            slot.insert(fresh)
        }
    };
    bottleneck_time_with(fresh, eps, rem, madd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FlowView;
    use saath_simcore::{CoflowId, FlowId, NodeId, Rate, Time};

    const GBPS: Rate = Rate::gbps(1);

    fn fv(id: u32, src: u32, dst: u32, size_tenths: u64) -> FlowView {
        FlowView {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            sent: Bytes::ZERO,
            ready: true,
            finished: false,
            oracle_size: Some(Bytes(GBPS.as_u64() / 10 * size_tenths)),
        }
    }

    fn cv(id: u32, flows: Vec<FlowView>) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::ZERO,
            flows,
            restarted: false,
        }
    }

    fn run(policy: OfflinePolicy, coflows: &[CoflowView], num_nodes: usize) -> Schedule {
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes,
            coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(num_nodes, GBPS);
        let mut out = Schedule::default();
        OfflineScheduler::new(policy).compute(&view, &mut bank, &mut out);
        out
    }

    /// Fig 17: SJF/SCF schedules short-but-wide C1 first; LWTF schedules
    /// the low-contention C2/C3 first.
    #[test]
    fn fig17_scf_vs_lwtf() {
        let coflows = vec![
            cv(1, vec![fv(10, 0, 2, 50), fv(11, 1, 3, 50)]), // total 10 units
            cv(2, vec![fv(20, 0, 4, 60)]),                   // total 6
            cv(3, vec![fv(30, 1, 5, 70)]),                   // total 7
        ];
        // SCF: C2 (6) < C3 (7) < C1 (10)… wait — C1's *total* is
        // 50+50=100 tenths = 10 units, C2 = 6, C3 = 7. SCF runs C2 and
        // C3 first here. The paper's Fig 17 uses per-port durations
        // (5 vs 6 vs 7), i.e. C1's duration is its bottleneck, not its
        // sum — that is SEBF's key. Under SEBF, C1 (Γ=5s) goes first,
        // blocking both.
        let out = run(OfflinePolicy::Sebf, &coflows, 6);
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(11)), GBPS);
        assert_eq!(out.rate_of(FlowId(20)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(30)), Rate::ZERO);

        // LWTF: t·k = C1: 5·2 = 10, C2: 6·1 = 6, C3: 7·1 = 7 → C2, C3
        // first.
        let out = run(OfflinePolicy::Lwtf, &coflows, 6);
        assert_eq!(out.rate_of(FlowId(20)), GBPS);
        assert_eq!(out.rate_of(FlowId(30)), GBPS);
        assert_eq!(out.rate_of(FlowId(10)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(11)), Rate::ZERO);
    }

    /// MADD synchronizes a CoFlow's flows: uneven flows sharing a port
    /// get proportional rates.
    #[test]
    fn madd_rates_synchronize() {
        let coflows = vec![cv(0, vec![fv(0, 0, 1, 80), fv(1, 0, 2, 20)])];
        let out = run(OfflinePolicy::Sebf, &coflows, 3);
        let r0 = out.rate_of(FlowId(0)).as_u64() as f64;
        let r1 = out.rate_of(FlowId(1)).as_u64() as f64;
        assert!((r0 / r1 - 4.0).abs() < 0.01, "rates {r0}/{r1} not 4:1");
        // Port is fully used (within rounding).
        assert!(r0 + r1 >= GBPS.as_u64() as f64 * 0.999);
    }

    /// SRTF keys on *remaining*, SCF on total: a nearly-done big CoFlow
    /// beats a fresh medium CoFlow under SRTF but not SCF.
    #[test]
    fn srtf_vs_scf_keys() {
        let mut big = cv(0, vec![fv(0, 0, 2, 100)]);
        big.flows[0].sent = Bytes(GBPS.as_u64() / 10 * 99); // 0.1 units left
        let medium = cv(1, vec![fv(10, 0, 3, 50)]);
        let coflows = vec![big, medium];

        let out = run(OfflinePolicy::Srtf, &coflows, 4);
        assert_eq!(out.rate_of(FlowId(0)), GBPS, "SRTF favors the nearly-done");
        let out = run(OfflinePolicy::Scf, &coflows, 4);
        assert_eq!(
            out.rate_of(FlowId(10)),
            GBPS,
            "SCF favors the smaller total"
        );
    }

    /// Backfill: a skipped CoFlow's flows still use leftover ports.
    #[test]
    fn skipped_coflows_backfill() {
        // C0 takes sender 0 entirely; C1 has flows on senders 0 and 1 —
        // MADD for C1 fails (sender 0 exhausted) but its sender-1 flow
        // backfills.
        let coflows = vec![
            cv(0, vec![fv(0, 0, 2, 10)]),
            cv(1, vec![fv(10, 0, 3, 100), fv(11, 1, 4, 100)]),
        ];
        let out = run(OfflinePolicy::Sebf, &coflows, 5);
        assert_eq!(out.rate_of(FlowId(0)), GBPS);
        assert_eq!(out.rate_of(FlowId(10)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(11)), GBPS);
    }

    #[test]
    fn requires_clairvoyance_flag() {
        assert!(OfflineScheduler::varys().requires_clairvoyance());
        assert_eq!(OfflineScheduler::varys().name(), "varys-sebf");
        assert_eq!(OfflineScheduler::new(OfflinePolicy::Lwtf).name(), "lwtf");
    }

    #[test]
    #[should_panic(expected = "without an oracle")]
    fn missing_oracle_fails_loudly() {
        let mut c = cv(0, vec![fv(0, 0, 1, 10)]);
        c.flows[0].oracle_size = None;
        let _ = run(OfflinePolicy::Scf, &[c], 2);
    }
}
