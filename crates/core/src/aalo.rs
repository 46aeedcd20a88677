//! The Aalo baseline (Chowdhury & Stoica, SIGCOMM'15), as the Saath
//! paper models it (§2.2).
//!
//! Aalo's global coordinator only decides *queue membership*: a CoFlow
//! sits in the queue whose span contains its **total bytes sent**. The
//! ports then act independently: each enumerates flows from the highest
//! to the lowest priority queue and serves same-queue flows FIFO (by
//! CoFlow arrival). There is no coordination of a CoFlow's flows across
//! ports — which is precisely the *spatial dimension* Saath exploits,
//! and the source of Aalo's out-of-sync behaviour (§2.3).
//!
//! The implementation walks every ready flow in
//! `(queue, CoFlow arrival, CoFlow id, flow id)` order and hands each
//! the remaining capacity of its two ports ([`greedy_fill_into`]). That is
//! the fluid equivalent of independent per-port strict-priority FIFO
//! with sender/receiver feasibility — the same model coflowsim uses.

use crate::config::QueueConfig;
use crate::timing::SchedTimings;
use crate::view::{ClusterView, CoflowScheduler, Schedule};
use saath_fabric::{greedy_fill_into, FlowEndpoints, PortBank};
use saath_simcore::{CoflowId, FastHashMap, FastHashSet, Time};
use saath_telemetry::{MechCounters, Phase};
use std::collections::BTreeMap;
use std::time::Instant;

/// A booked CoFlow's ordering state: its current FIFO key plus a
/// round-stamp for departure detection.
#[derive(Clone, Copy)]
struct AaloMeta {
    /// Queue at the last (re)booking.
    q: usize,
    /// Arrival, cached so a departed CoFlow's bucket key can still be
    /// reconstructed after it leaves the view.
    arrival: Time,
    /// Whether a bucket exists (CoFlows with no ready unfinished flow
    /// are tracked but not booked).
    booked: bool,
    /// Last round (epoch) this CoFlow appeared in the view.
    seen: u64,
}

/// The Aalo scheduler.
pub struct Aalo {
    queues: QueueConfig,
    /// Weighted inter-queue sharing, as deployed Aalo (and coflowsim)
    /// does: queue `q` receives a bandwidth share proportional to
    /// `E^{-q}`, so lower-priority CoFlows keep trickling instead of
    /// being starved by strict priority. `None` = strict priority (the
    /// simpler model the Saath paper's §2.2 text describes).
    weighted_queues: Option<u64>,
    /// Per-round overhead samples (Table 2 comparison column).
    pub timings: SchedTimings,
    // Per-round buffers, recycled so the hot path never allocates.
    order: Vec<((usize, Time, u32, u32), FlowEndpoints)>,
    eps: Vec<FlowEndpoints>,
    rates: Vec<saath_simcore::Rate>,
    present: Vec<[bool; 16]>,
    budget: Vec<u64>,
    /// Incremental order book: `(queue, arrival, CoFlow id)` → that
    /// CoFlow's ready unfinished flows, sorted by flow id. Walking the
    /// map emits exactly the full-sort order, because the map key is
    /// the sort key's CoFlow-level prefix and the per-CoFlow lists
    /// carry the flow-id suffix. CoFlows the [`ClusterView::changed`]
    /// hint excludes keep their booked flow list untouched.
    book: BTreeMap<(usize, Time, u32), Vec<FlowEndpoints>>,
    /// Booked CoFlows' current keys + departure stamps.
    meta: FastHashMap<CoflowId, AaloMeta>,
    /// Round counter driving `AaloMeta::seen`.
    epoch: u64,
    /// Scratch: this round's `changed` hint as a set.
    changed_set: FastHashSet<CoflowId>,
    /// Scratch: CoFlows that left the view this round.
    gone: Vec<CoflowId>,
    // Telemetry-only state: per-queue occupancy, counters.
    occupancy: Vec<usize>,
    /// Mechanism counters (queue transitions, order-book rekeys, …).
    pub mech: MechCounters,
}

impl Aalo {
    /// Aalo with the given queue structure (Saath shares it) and the
    /// deployed system's weighted inter-queue sharing.
    pub fn new(queues: QueueConfig) -> Aalo {
        let growth = queues.growth;
        Aalo {
            queues,
            weighted_queues: Some(growth),
            timings: SchedTimings::default(),
            order: Vec::new(),
            eps: Vec::new(),
            rates: Vec::new(),
            present: Vec::new(),
            budget: Vec::new(),
            book: BTreeMap::new(),
            meta: FastHashMap::default(),
            epoch: 0,
            changed_set: FastHashSet::default(),
            gone: Vec::new(),
            occupancy: Vec::new(),
            mech: MechCounters::default(),
        }
    }

    /// Aalo with strict priority across queues instead of weighted
    /// sharing — the simplified model in the Saath paper's text.
    pub fn strict_priority(queues: QueueConfig) -> Aalo {
        Aalo {
            weighted_queues: None,
            ..Aalo::new(queues)
        }
    }

    /// Aalo with the paper's default parameters.
    pub fn with_defaults() -> Aalo {
        Aalo::new(QueueConfig::default())
    }
}

impl CoflowScheduler for Aalo {
    fn name(&self) -> &'static str {
        "aalo"
    }

    fn compute(&mut self, view: &ClusterView<'_>, bank: &mut PortBank, out: &mut Schedule) {
        let t_total = Instant::now();

        // (queue, arrival, coflow id, flow id) → endpoints, for every
        // ready unfinished flow.
        self.order.clear();
        self.occupancy.clear();
        self.occupancy.resize(self.queues.num_queues, 0);
        // Re-book only the CoFlows the `changed` hint names (no hint ⇒
        // everything changed ⇒ every CoFlow re-books, still through the
        // book so its state never goes stale).
        self.epoch += 1;
        let epoch = self.epoch;
        self.changed_set.clear();
        if let Some(changed) = view.changed {
            self.changed_set.extend(changed.iter().copied());
        }
        let mut rekeys = 0u64;
        for c in view.coflows {
            let unchanged = view.changed.is_some() && !self.changed_set.contains(&c.id);
            let q = match self.meta.get_mut(&c.id) {
                Some(m) if unchanged => {
                    m.seen = epoch;
                    debug_assert_eq!(
                        m.q,
                        self.queues.queue_for_total(c.total_sent()),
                        "cached queue diverged for a CoFlow outside the changed hint"
                    );
                    m.q
                }
                prev => {
                    let q = self.queues.queue_for_total(c.total_sent());
                    if prev.as_ref().is_some_and(|m| m.q != q) {
                        self.mech.queue_transitions += 1;
                    }
                    // Re-book: reclaim the old bucket's buffer (if any),
                    // refill it with the fresh ready-flow list, re-insert
                    // under the new key.
                    let old = prev.filter(|m| m.booked).map(|m| (m.q, m.arrival, c.id.0));
                    let mut flows = old
                        .and_then(|key| self.book.remove(&key))
                        .unwrap_or_default();
                    flows.clear();
                    flows.extend(
                        c.unfinished()
                            .filter(|f| f.ready)
                            .map(|f| f.endpoints(view.num_nodes)),
                    );
                    flows.sort_unstable_by_key(|e| e.flow.0);
                    let booked = !flows.is_empty();
                    if booked {
                        self.book.insert((q, c.arrival, c.id.0), flows);
                    }
                    self.meta.insert(
                        c.id,
                        AaloMeta {
                            q,
                            arrival: c.arrival,
                            booked,
                            seen: epoch,
                        },
                    );
                    rekeys += 1;
                    q
                }
            };
            self.occupancy[q] += 1;
        }
        // Departures: booked CoFlows that did not appear this round.
        self.gone.clear();
        self.gone.extend(
            self.meta
                .iter()
                .filter(|(_, m)| m.seen != epoch)
                .map(|(id, _)| *id),
        );
        for gi in 0..self.gone.len() {
            let id = self.gone[gi];
            let m = self.meta.remove(&id).expect("departed CoFlow unbooked");
            if m.booked {
                self.book.remove(&(m.q, m.arrival, id.0));
            }
        }
        // Emit: the map walk is the sort.
        for (&(q, arrival, cid), flows) in &self.book {
            self.order
                .extend(flows.iter().map(|e| ((q, arrival, cid, e.flow.0), *e)));
        }
        self.mech.order_rekeys += rekeys;
        self.mech.order_resorts_avoided += 1;
        // One tree removal + insertion per rekey, ~log2(n)
        // comparisons each (deterministic estimate; see Saath).
        let lg = (usize::BITS - view.coflows.len().leading_zeros()) as u64;
        self.mech.lcof_comparisons += rekeys * 2 * lg;
        // The full rebuild + re-sort stays the executable specification,
        // proven against every debug round.
        #[cfg(debug_assertions)]
        {
            let mut oracle: Vec<((usize, Time, u32, u32), FlowEndpoints)> = Vec::new();
            for c in view.coflows {
                let q = self.queues.queue_for_total(c.total_sent());
                oracle.extend(
                    c.unfinished()
                        .filter(|f| f.ready)
                        .map(|f| ((q, c.arrival, c.id.0, f.id.0), f.endpoints(view.num_nodes))),
                );
            }
            oracle.sort_by_key(|(key, _)| *key);
            assert_eq!(
                self.order, oracle,
                "incremental FIFO order diverged from the full re-sort oracle"
            );
        }
        self.eps.clear();
        self.eps.extend(self.order.iter().map(|(_, e)| *e));

        match self.weighted_queues {
            None => greedy_fill_into(bank, &self.eps, &mut self.rates),
            Some(growth) => {
                // Per-port weighted fair queuing across backlogged
                // queues (weight E^{-q}), FIFO within a queue, then a
                // work-conserving second pass for the leftovers.
                let np = bank.num_ports();
                let k = self.queues.num_queues;
                // Which queues are backlogged at each port.
                let present = &mut self.present;
                present.clear();
                present.resize(np, [false; 16]);
                for ((q, ..), e) in &self.order {
                    present[e.src.index()][(*q).min(15)] = true;
                    present[e.dst.index()][(*q).min(15)] = true;
                }
                let weight = |q: usize| (growth as f64).powi(-(q as i32));
                // Per-port per-queue budgets.
                let budget = &mut self.budget;
                budget.clear();
                budget.resize(np * k, 0u64);
                for p in 0..np {
                    let total_w: f64 = (0..k).filter(|&q| present[p][q.min(15)]).map(weight).sum();
                    if total_w <= 0.0 {
                        continue;
                    }
                    let cap = bank.remaining(saath_simcore::PortId(p as u32)).as_u64();
                    for q in 0..k {
                        if present[p][q.min(15)] {
                            budget[p * k + q] = (cap as f64 * weight(q) / total_w) as u64;
                        }
                    }
                }
                // Pass 1: FIFO within each queue against the budgets.
                let rates = &mut self.rates;
                rates.clear();
                rates.resize(self.eps.len(), saath_simcore::Rate::ZERO);
                for (i, ((q, ..), e)) in self.order.iter().enumerate() {
                    let (s, d) = (e.src.index(), e.dst.index());
                    let r = budget[s * k + q]
                        .min(budget[d * k + q])
                        .min(bank.remaining(e.src).as_u64())
                        .min(bank.remaining(e.dst).as_u64());
                    if r > 0 {
                        budget[s * k + q] -= r;
                        budget[d * k + q] -= r;
                        bank.allocate(e.src, saath_simcore::Rate(r));
                        bank.allocate(e.dst, saath_simcore::Rate(r));
                        rates[i] = saath_simcore::Rate(r);
                    }
                }
                // Pass 2: hand out what the budgets stranded, same order.
                for (i, e) in self.eps.iter().enumerate() {
                    let r = bank.remaining(e.src).min(bank.remaining(e.dst));
                    if !r.is_zero() {
                        bank.allocate(e.src, r);
                        bank.allocate(e.dst, r);
                        rates[i] += r;
                    }
                }
            }
        };
        for (e, &r) in self.eps.iter().zip(self.rates.iter()) {
            if !r.is_zero() {
                out.set(e.flow, r);
            }
        }

        self.timings.record(Phase::SchedTotal, t_total.elapsed());
        self.timings
            .active_coflows
            .observe(view.coflows.len() as u64);
    }

    fn mech_counters(&self) -> Option<&MechCounters> {
        Some(&self.mech)
    }

    fn queue_occupancy(&self) -> Option<&[usize]> {
        Some(&self.occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{CoflowView, FlowView};
    use saath_simcore::{Bytes, CoflowId, FlowId, NodeId, Rate, Time};

    const GBPS: Rate = Rate::gbps(1);

    fn fv(id: u32, src: u32, dst: u32, sent: u64) -> FlowView {
        FlowView {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            sent: Bytes(sent),
            ready: true,
            finished: false,
            oracle_size: None,
        }
    }

    fn cv(id: u32, arrival_ms: u64, flows: Vec<FlowView>) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::from_millis(arrival_ms),
            flows,
            restarted: false,
        }
    }

    fn run(coflows: &[CoflowView], num_nodes: usize) -> Schedule {
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes,
            coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(num_nodes, GBPS);
        let mut out = Schedule::default();
        Aalo::with_defaults().compute(&view, &mut bank, &mut out);
        out
    }

    /// The Fig 1 pathology: Aalo schedules C2's free-port flows early
    /// (out of sync), blocking nothing useful.
    #[test]
    fn fig1_out_of_sync_behaviour() {
        let coflows = vec![
            cv(1, 0, vec![fv(10, 0, 3, 0)]),
            cv(
                2,
                1,
                vec![fv(20, 0, 4, 0), fv(21, 1, 5, 0), fv(22, 2, 6, 0)],
            ),
            cv(3, 2, vec![fv(30, 1, 7, 0)]),
            cv(4, 3, vec![fv(40, 2, 8, 0)]),
        ];
        let out = run(&coflows, 9);
        // FIFO per port: C1 wins sender 0; C2 (earlier than C3/C4) wins
        // senders 1 and 2 — its flows are now out of sync with flow 20,
        // and C3/C4 are blocked.
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(20)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(21)), GBPS);
        assert_eq!(out.rate_of(FlowId(22)), GBPS);
        assert_eq!(out.rate_of(FlowId(30)), Rate::ZERO);
        assert_eq!(out.rate_of(FlowId(40)), Rate::ZERO);
    }

    /// Queue priority: a CoFlow that has sent a lot sits in a lower
    /// queue and mostly loses its port to a fresh CoFlow, regardless of
    /// arrival order. Under the deployed system's weighted sharing the
    /// old CoFlow keeps a trickle (E:1); under the strict-priority
    /// model it gets nothing.
    #[test]
    fn total_bytes_demotion() {
        let coflows = vec![
            cv(0, 0, vec![fv(0, 0, 2, 50_000_000)]), // 50 MB sent → Q1
            cv(1, 9, vec![fv(10, 0, 3, 0)]),         // fresh → Q0
        ];
        let out = run(&coflows, 4);
        // Weighted default: Q0 gets E/(E+1) = 10/11 of the port, Q1 the
        // rest (work conservation can add nothing — the port is full).
        let hi = out.rate_of(FlowId(10)).as_u64();
        let lo = out.rate_of(FlowId(0)).as_u64();
        assert!(hi > 8 * lo, "Q0 flow should dominate: {hi} vs {lo}");
        assert!(lo > 0, "weighted sharing keeps Q1 trickling");
        assert!(hi + lo <= GBPS.as_u64());
        assert!(hi + lo >= GBPS.as_u64() - 2, "port should be fully used");

        // Strict-priority variant: winner takes all.
        let view = ClusterView {
            now: Time::ZERO,
            num_nodes: 4,
            coflows: &coflows,
            changed: None,
        };
        let mut bank = PortBank::uniform(4, GBPS);
        let mut out = Schedule::default();
        Aalo::strict_priority(crate::config::QueueConfig::default())
            .compute(&view, &mut bank, &mut out);
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(0)), Rate::ZERO);
    }

    /// Within a queue, FIFO by arrival.
    #[test]
    fn fifo_within_queue() {
        let coflows = vec![
            cv(0, 5, vec![fv(0, 0, 2, 0)]),
            cv(1, 3, vec![fv(10, 0, 3, 0)]), // earlier arrival wins
        ];
        let out = run(&coflows, 4);
        assert_eq!(out.rate_of(FlowId(10)), GBPS);
        assert_eq!(out.rate_of(FlowId(0)), Rate::ZERO);
    }

    /// Unready flows are not scheduled.
    #[test]
    fn unready_flows_skipped() {
        let mut c = cv(0, 0, vec![fv(0, 0, 2, 0)]);
        c.flows[0].ready = false;
        let out = run(&[c], 4);
        assert_eq!(out.rate_of(FlowId(0)), Rate::ZERO);
    }

    /// The FIFO book under 200 rounds of random churn (arrivals,
    /// total-bytes growth across queue thresholds, finishes, readiness
    /// flips, departures) driven through two schedulers — one fed exact
    /// `changed` hints, a cold one fed `changed: None` that re-books
    /// every CoFlow every round — must produce identical schedules
    /// every round, for both the weighted-sharing and strict-priority
    /// variants. Debug builds additionally exercise the in-scheduler
    /// full-re-sort oracle on every round.
    #[test]
    fn hinted_book_matches_cold_scheduler_under_churn() {
        for strict in [false, true] {
            let mut rng = saath_simcore::DetRng::derive(0xaa10 + strict as u64, "aalo/churn");
            let queues = crate::config::QueueConfig::default;
            let (mut hinted, mut cold) = if strict {
                (
                    Aalo::strict_priority(queues()),
                    Aalo::strict_priority(queues()),
                )
            } else {
                (Aalo::new(queues()), Aalo::new(queues()))
            };
            let num_nodes = 12usize;
            let mut coflows: Vec<CoflowView> = Vec::new();
            let mut next_cf = 0u32;
            let mut next_flow = 0u32;
            let mut now = Time::ZERO;
            for round in 0..200 {
                let mut changed: Vec<CoflowId> = Vec::new();
                // Arrivals.
                while coflows.len() < 3 || rng.chance(0.3) {
                    let width = rng.range_inclusive(1, 5) as usize;
                    let flows: Vec<FlowView> = (0..width)
                        .map(|_| {
                            let f = fv(
                                next_flow,
                                rng.below(num_nodes as u64) as u32,
                                rng.below(num_nodes as u64) as u32,
                                0,
                            );
                            next_flow += 1;
                            f
                        })
                        .collect();
                    coflows.push(CoflowView {
                        id: CoflowId(next_cf),
                        arrival: now,
                        flows,
                        restarted: false,
                    });
                    changed.push(CoflowId(next_cf));
                    next_cf += 1;
                }
                // Byte growth (drives total-bytes queue transitions),
                // finishes, and readiness flips (both re-book the flow
                // list). Every mutation lands in the hint.
                for c in coflows.iter_mut() {
                    if rng.chance(0.5) {
                        let fi = rng.below(c.flows.len() as u64) as usize;
                        c.flows[fi].sent = Bytes(c.flows[fi].sent.as_u64() + rng.below(8_000_000));
                        changed.push(c.id);
                    }
                    if rng.chance(0.25) {
                        let fi = rng.below(c.flows.len() as u64) as usize;
                        c.flows[fi].finished = true;
                        changed.push(c.id);
                    }
                    if rng.chance(0.15) {
                        let fi = rng.below(c.flows.len() as u64) as usize;
                        c.flows[fi].ready = !c.flows[fi].ready;
                        changed.push(c.id);
                    }
                }
                // Departures: drained CoFlows usually leave; occasionally
                // one is yanked mid-transfer (failure/abort path).
                coflows.retain(|c| {
                    let drained = c.flows.iter().all(|f| f.finished);
                    !(drained && rng.chance(0.8) || rng.chance(0.05))
                });
                now = now.saturating_add(saath_simcore::Duration::from_millis(8));
                let out_hinted = {
                    let view = ClusterView {
                        now,
                        num_nodes,
                        coflows: &coflows,
                        changed: Some(&changed),
                    };
                    let mut bank = PortBank::uniform(num_nodes, GBPS);
                    let mut out = Schedule::default();
                    hinted.compute(&view, &mut bank, &mut out);
                    out
                };
                let out_cold = {
                    let view = ClusterView {
                        now,
                        num_nodes,
                        coflows: &coflows,
                        changed: None,
                    };
                    let mut bank = PortBank::uniform(num_nodes, GBPS);
                    let mut out = Schedule::default();
                    cold.compute(&view, &mut bank, &mut out);
                    out
                };
                assert_eq!(
                    out_hinted, out_cold,
                    "schedules diverged at round {round} (strict={strict})"
                );
            }
        }
    }

    /// Aalo is work conserving at the flow level: with one sender and
    /// two receivers, both flows of one CoFlow run (no gang semantics).
    #[test]
    fn flow_level_work_conservation() {
        let coflows = vec![cv(0, 0, vec![fv(0, 0, 1, 0), fv(1, 0, 2, 0)])];
        let out = run(&coflows, 3);
        // First flow takes the whole uplink, second gets nothing —
        // uncoordinated, but no capacity is left idle while demand
        // exists elsewhere... on these ports.
        assert_eq!(out.rate_of(FlowId(0)), GBPS);
        assert_eq!(out.rate_of(FlowId(1)), Rate::ZERO);
    }
}
