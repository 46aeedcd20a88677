//! The global coordinator (Fig 6, §5).
//!
//! Every δ the coordinator (1) drains the agents' stats reports into
//! its observation table, (2) builds its view of the cluster from that
//! table, (3) runs whatever [`CoflowScheduler`] policy it was given —
//! the policy keeps nothing the next wave does not give it again, the
//! property the paper uses for cheap failover — and (4) pushes the
//! schedule to every agent with a monotone epoch. CoFlow registration
//! is the [`CoflowRegistry`]: in the paper the framework calls
//! `register()`/`deregister()` over REST; here the harness preloads the
//! registry from the trace, which is equivalent because registration
//! happens at arrival times the coordinator only acts on once they
//! pass.
//!
//! ## What is soft state
//!
//! Agents report a flow while it is unfinished and its finish once, so
//! the drain costs the live flows (on the `emu-*` benchmark workloads
//! ≈ 7 100 → ≈ 370 and ≈ 4 030 → ≈ 440 entries per epoch, against
//! ≈ 310 and ≈ 440 unfinished flows in the views) — and the
//! observation table (`ObsState`) is no longer re-derivable from any
//! one wave: it is **soft state with a rebuild path**. A restarted
//! coordinator ([`CoordinatorConfig::restart_at`]) starts with an empty
//! table and a fresh policy, says [`Message::Hello`] on every link, and
//! every agent answers with one full report, retired flows included
//! (`AgentCore::resync`). The policy still rebuilds from a single
//! wave, as before. The completion
//! ledger (which CoFlows are done, their records) is not coordinator
//! state in this sense — in a deployment it has left for the frameworks
//! that registered the CoFlows — and survives the drill.

use crate::clock::EmuClock;
use crate::metrics::MetricsHub;
use crate::proto::{FlowStat, Message, RateAssignment, COORDINATOR};
use crate::transport::{Transport, TransportStats};
use saath_core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath_fabric::PortBank;
use saath_metrics::CoflowRecord;
use saath_simcore::{Bytes, CoflowId, Duration, FlowId, NodeId, Rate, Time};
use saath_telemetry::Phase;
use saath_workload::Trace;

/// Static description of one registered CoFlow.
struct RegEntry {
    id: CoflowId,
    arrival: Time,
    job: Option<saath_simcore::JobId>,
    /// `(flow id, src, dst, size, ready offset)`.
    flows: Vec<(u32, NodeId, NodeId, Bytes, Duration)>,
}

/// The coordinator's CoFlow registry, preloaded from a trace.
pub struct CoflowRegistry {
    entries: Vec<RegEntry>,
    num_nodes: usize,
    port_rate: Rate,
    total_flows: usize,
}

impl CoflowRegistry {
    /// Builds a registry with the same dense flow ids the harness hands
    /// to agents (flows numbered in trace order).
    ///
    /// # Panics
    /// Panics on traces with DAG dependencies — the emulation registers
    /// CoFlows at arrival like the paper's testbed replay; DAG release
    /// is a simulator feature.
    pub fn from_trace(trace: &Trace) -> CoflowRegistry {
        let mut entries = Vec::with_capacity(trace.coflows.len());
        let mut next_flow = 0u32;
        for c in &trace.coflows {
            assert!(
                c.deps.is_empty(),
                "testbed emulation replays arrival-released traces only"
            );
            let flows = c
                .flows
                .iter()
                .map(|f| {
                    let id = next_flow;
                    next_flow += 1;
                    (id, f.src, f.dst, f.size, f.available_after)
                })
                .collect();
            entries.push(RegEntry {
                id: c.id,
                arrival: c.arrival,
                job: c.job,
                flows,
            });
        }
        CoflowRegistry {
            entries,
            num_nodes: trace.num_nodes,
            port_rate: trace.port_rate,
            total_flows: next_flow as usize,
        }
    }

    /// Number of registered CoFlows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Coordinator tuning.
pub struct CoordinatorConfig {
    /// Scheduling interval δ (simulated time).
    pub delta: Duration,
    /// Expose ground-truth sizes to the scheduler (clairvoyant runs).
    pub clairvoyant: bool,
    /// Recreate the scheduler and drop the observation table at this
    /// simulated time — emulates a coordinator crash + failover; agents
    /// keep complying with the last schedule, the successor asks them
    /// for one full wave (`Message::Hello`) and rebuilds its state
    /// from it (deadlines are re-derived, §5).
    pub restart_at: Option<Time>,
    /// Wall-clock watchdog: give up after this much real time.
    pub wall_deadline: std::time::Duration,
}

/// The observation core of the coordinator: latest per-flow
/// observations, CoFlow completion bookkeeping, and view construction —
/// everything a δ round derives from the agents' reports.
struct ObsState {
    obs: Vec<FlowObs>,
    done: Vec<Option<Time>>,
    records: Vec<CoflowRecord>,
    /// Per-flow entries ingested so far.
    ingested: u64,
}

/// Latest per-flow stats (dense).
#[derive(Clone, Copy)]
struct FlowObs {
    sent: u64,
    finished: bool,
    finished_at: Time,
    ready: Option<bool>,
}

impl FlowObs {
    /// No report yet.
    const UNSEEN: FlowObs = FlowObs {
        sent: 0,
        finished: false,
        finished_at: Time::ZERO,
        ready: None,
    };
}

impl ObsState {
    fn new(registry: &CoflowRegistry) -> ObsState {
        ObsState {
            obs: vec![FlowObs::UNSEEN; registry.total_flows],
            done: vec![None; registry.entries.len()],
            records: Vec::with_capacity(registry.entries.len()),
            ingested: 0,
        }
    }

    /// Folds one stats report in. `now` stamps newly-finished flows.
    /// Flow ids come off the wire: entries naming no registered flow
    /// are skipped, and their number returned.
    fn ingest(&mut self, flows: &[FlowStat], now: Time) -> u64 {
        self.ingested += flows.len() as u64;
        let mut rejected = 0;
        for &FlowStat {
            flow,
            sent,
            finished,
            ready,
        } in flows
        {
            let Some(o) = self.obs.get_mut(flow as usize) else {
                rejected += 1;
                continue;
            };
            o.sent = o.sent.max(sent);
            o.ready = Some(ready);
            if finished && !o.finished {
                o.finished = true;
                o.finished_at = now;
            }
        }
        rejected
    }

    /// Drops the observation table — what a coordinator crash loses.
    /// The completion ledger (`records`, and which CoFlows are done)
    /// stays: in a deployment it has already left the coordinator, to
    /// the frameworks that registered the CoFlows.
    fn forget_observations(&mut self) {
        self.obs.fill(FlowObs::UNSEEN);
    }

    /// Completion bookkeeping: records every CoFlow whose flows have all
    /// finished. Returns true once every registered CoFlow is done.
    fn sweep(&mut self, registry: &CoflowRegistry, now: Time) -> bool {
        for (ci, e) in registry.entries.iter().enumerate() {
            if self.done[ci].is_some() || e.arrival > now {
                continue;
            }
            if e.flows
                .iter()
                .all(|(fid, ..)| self.obs[*fid as usize].finished)
            {
                let finish = e
                    .flows
                    .iter()
                    .map(|(fid, ..)| self.obs[*fid as usize].finished_at)
                    .max()
                    .unwrap_or(now);
                self.done[ci] = Some(finish);
                self.records.push(CoflowRecord {
                    id: e.id,
                    job: e.job,
                    arrival: e.arrival,
                    released: e.arrival,
                    finish,
                    width: e.flows.len(),
                    total_bytes: e.flows.iter().map(|(_, _, _, s, _)| *s).sum(),
                    flow_fcts: e
                        .flows
                        .iter()
                        .map(|(fid, ..)| {
                            self.obs[*fid as usize]
                                .finished_at
                                .saturating_since(e.arrival)
                        })
                        .collect(),
                    flow_sizes: e.flows.iter().map(|(_, _, _, s, _)| *s).collect(),
                });
            }
        }
        self.records.len() == registry.entries.len()
    }

    /// Builds the view of active CoFlows at `now` into `views`.
    fn build_views(
        &self,
        registry: &CoflowRegistry,
        now: Time,
        clairvoyant: bool,
        views: &mut Vec<CoflowView>,
    ) {
        views.clear();
        for (ci, e) in registry.entries.iter().enumerate() {
            if self.done[ci].is_some() || e.arrival > now {
                continue;
            }
            views.push(CoflowView {
                id: e.id,
                arrival: e.arrival,
                flows: e
                    .flows
                    .iter()
                    .map(|(fid, src, dst, size, ready_off)| {
                        let o = &self.obs[*fid as usize];
                        FlowView {
                            id: FlowId(*fid),
                            src: *src,
                            dst: *dst,
                            sent: Bytes(o.sent),
                            ready: o.ready.unwrap_or(e.arrival + *ready_off <= now),
                            finished: o.finished,
                            oracle_size: clairvoyant.then_some(*size),
                        }
                    })
                    .collect(),
                restarted: false,
            });
        }
    }

    fn into_sorted_records(mut self) -> Vec<CoflowRecord> {
        self.records.sort_by_key(|r| r.id);
        self.records
    }
}

/// What a coordinator run produced.
pub struct CoordinatorReport {
    /// Completed CoFlows (coordinator-observed times, δ-granular).
    pub records: Vec<CoflowRecord>,
    /// Schedule epochs pushed.
    pub epochs: u64,
    /// Per-flow entries ingested from the agents' stats reports — the
    /// drain's work, which tracks the live flows (the hub's
    /// `saath_coord_stats_flows_total`, for runs without a hub).
    pub stats_entries: u64,
    /// Whether the run ended before all CoFlows finished: the watchdog
    /// tripped, or every agent link had failed.
    pub timed_out: bool,
    /// Whether a mid-run scheduler restart was performed.
    pub restarted: bool,
}

/// The hub counter for flow indices read off the wire that named no
/// registered flow — the entry is skipped, the run goes on.
pub(crate) const REJECTED_INDICES: &str = "saath_coord_rejected_indices_total";

/// The hub counter for per-flow entries ingested from stats reports —
/// what the drain costs, and what should track the live flows.
pub(crate) const STATS_FLOWS: &str = "saath_coord_stats_flows_total";

/// The hub counter for agent links given up on after a transport error.
pub(crate) const LINK_ERRORS: &str = "saath_coord_link_errors_total";

/// Which agent links have failed. A link is dead from its first
/// transport error — the peer is gone, or a corrupt frame sits at the
/// head of its buffer and would fail every later read too — and is
/// then left out of the drain and the push. Counted once per link in
/// [`LINK_ERRORS`].
struct LinkHealth {
    dead: Vec<bool>,
}

impl LinkHealth {
    fn new(links: usize) -> LinkHealth {
        LinkHealth {
            dead: vec![false; links],
        }
    }

    /// No agent is left to report or to be scheduled: the run cannot
    /// make progress and ends as timed out.
    fn all_dead(&self) -> bool {
        !self.dead.is_empty() && self.dead.iter().all(|&d| d)
    }

    fn bury(&mut self, link: usize, hub: Option<&MetricsHub>) {
        self.dead[link] = true;
        if let Some(h) = hub {
            h.incr(LINK_ERRORS, "", 1);
        }
    }
}

/// Epoch phase 1 (obs-recv): drains every pending agent frame, folding
/// stats reports into `state` stamped `now`.
fn drain_stats(
    agents: &mut [Box<dyn Transport>],
    health: &mut LinkHealth,
    state: &mut ObsState,
    now: Time,
    hub: Option<&MetricsHub>,
) {
    let (mut stats_msgs, mut rejected) = (0u64, 0u64);
    let ingested_before = state.ingested;
    {
        let _span = hub.map(|h| h.span(Phase::CoordObsRecv));
        for (i, a) in agents.iter_mut().enumerate() {
            if health.dead[i] {
                continue;
            }
            // A multiplexed host link carries many agents' frames:
            // stray non-stats frames (the hosted agents' hellos) must
            // not end the drain, or a host of N agents would stall its
            // stats by one round per queued hello. Only an empty or
            // broken link ends it.
            loop {
                match a.recv_timeout(std::time::Duration::ZERO) {
                    Ok(Some(Message::Stats { flows, .. })) => {
                        stats_msgs += 1;
                        rejected += state.ingest(&flows, now);
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        health.bury(i, hub);
                        break;
                    }
                }
            }
        }
    }
    if let Some(h) = hub {
        if stats_msgs > 0 {
            h.incr("saath_coord_stats_msgs_total", "", stats_msgs);
            h.incr(STATS_FLOWS, "", state.ingested - ingested_before);
        }
        if rejected > 0 {
            h.incr(REJECTED_INDICES, "", rejected);
        }
    }
}

/// Sends `m` on every live agent link — encoded once for all the
/// framed ones — giving a link up at its first error. Returns how many
/// links took it.
fn send_to_live(
    agents: &mut [Box<dyn Transport>],
    health: &mut LinkHealth,
    m: &Message,
    hub: Option<&MetricsHub>,
) -> u64 {
    let (mut sent, mut frame) = (0, None);
    for (i, a) in agents.iter_mut().enumerate() {
        if health.dead[i] {
            continue;
        }
        match a.send_shared(m, &mut frame) {
            Ok(()) => sent += 1,
            Err(_) => health.bury(i, hub),
        }
    }
    sent
}

/// Epoch phase 3 (broadcast): pushes `schedule` to every live agent
/// link as epoch `epoch`.
fn push_schedule(
    agents: &mut [Box<dyn Transport>],
    health: &mut LinkHealth,
    epoch: u64,
    schedule: &Schedule,
    hub: Option<&MetricsHub>,
) {
    let push = Message::Schedule {
        epoch,
        rates: to_assignments(schedule),
    };
    let pushed = {
        let _span = hub.map(|h| h.span(Phase::CoordBroadcast));
        send_to_live(agents, health, &push, hub)
    };
    if let Some(h) = hub {
        h.incr("saath_coord_epochs_total", "", 1);
        h.incr("saath_coord_schedule_msgs_total", "", pushed);
    }
}

/// A schedule in its wire form.
fn to_assignments(schedule: &Schedule) -> Vec<RateAssignment> {
    let wire = |&(f, r): &(FlowId, Rate)| RateAssignment {
        flow: f.0,
        rate: r.as_u64(),
    };
    schedule.rates.iter().map(wire).collect()
}

/// End of an epoch: the CoFlow gauges and the agent links' cumulative
/// transport counters.
fn publish_epoch(
    hub: Option<&MetricsHub>,
    agents: &[Box<dyn Transport>],
    active: u64,
    completed: usize,
) {
    if let Some(h) = hub {
        h.set("saath_active_coflows", "", active);
        h.set("saath_completed_coflows", "", completed as u64);
        let mut sum = TransportStats::default();
        for l in agents {
            sum.merge(&l.stats());
        }
        h.set_transport("link=\"agent\"", &sum);
    }
}

/// Tells every peer behind `links` to exit.
fn shutdown_links(links: &mut [Box<dyn Transport>]) {
    for l in links {
        let _ = l.send(&Message::Shutdown);
    }
}

/// The run's report; a completed run also leaves the final gauge
/// values behind (the epoch loop won't publish again).
fn finish(
    state: ObsState,
    epochs: u64,
    restarted: bool,
    timed_out: bool,
    hub: Option<&MetricsHub>,
) -> CoordinatorReport {
    if let (Some(h), false) = (hub, timed_out) {
        h.set("saath_active_coflows", "", 0);
        h.set("saath_completed_coflows", "", state.records.len() as u64);
    }
    CoordinatorReport {
        stats_entries: state.ingested,
        records: state.into_sorted_records(),
        epochs,
        timed_out,
        restarted,
    }
}

/// Runs the coordinator until every registered CoFlow completes (or the
/// watchdog fires, or no agent link is left alive). `make_sched` builds
/// the policy — and rebuilds it on failover. `hub` is the live metrics
/// plane: per-phase latency spans
/// (obs-recv / schedule / broadcast), the active/completed gauges, and
/// the aggregated agent-link transport counters — opt-in at runtime
/// via [`EmulationConfig::metrics_addr`], so `None` costs one branch
/// per use site.
///
/// [`EmulationConfig::metrics_addr`]: crate::harness::EmulationConfig
pub fn run_coordinator(
    registry: &CoflowRegistry,
    make_sched: &dyn Fn() -> Box<dyn CoflowScheduler>,
    agents: &mut [Box<dyn Transport>],
    clock: &EmuClock,
    cfg: &CoordinatorConfig,
    hub: Option<&MetricsHub>,
) -> CoordinatorReport {
    let mut sched = make_sched();
    let mut restarted = false;
    let mut state = ObsState::new(registry);
    let mut views: Vec<CoflowView> = Vec::new();
    let mut epochs: u64 = 0;
    let mut bank = PortBank::uniform(registry.num_nodes, registry.port_rate);
    let mut out = Schedule::default();
    let mut health = LinkHealth::new(agents.len());
    let started_wall = std::time::Instant::now();
    let delta_wall = clock.to_wall(cfg.delta);

    let timed_out = loop {
        if started_wall.elapsed() > cfg.wall_deadline {
            break true;
        }

        // Failover injection: the successor has neither the policy's
        // state nor the observations, and asks the agents for theirs.
        if let Some(t) = cfg.restart_at {
            if !restarted && clock.now() >= t {
                sched = make_sched();
                state.forget_observations();
                // The resynchronisation handshake: every agent answers
                // with one full report.
                let hello = Message::Hello { node: COORDINATOR };
                send_to_live(agents, &mut health, &hello, hub);
                restarted = true;
            }
        }

        let now = clock.now();
        drain_stats(agents, &mut health, &mut state, now, hub);
        // Completion bookkeeping, then the view of what is still active.
        let all_done = {
            let _span = hub.map(|h| h.span(Phase::CoordViews));
            let all_done = state.sweep(registry, now);
            if !all_done {
                state.build_views(registry, now, cfg.clairvoyant, &mut views);
            }
            all_done
        };
        if all_done {
            break false;
        }
        if health.all_dead() {
            break true;
        }

        if !views.is_empty() {
            bank.reset_round();
            out.clear();
            let view = ClusterView {
                now,
                num_nodes: registry.num_nodes,
                coflows: &views,
                changed: None,
            };
            {
                let _span = hub.map(|h| h.span(Phase::CoordSchedule));
                sched.compute(&view, &mut bank, &mut out);
            }
            epochs += 1;
            push_schedule(agents, &mut health, epochs, &out, hub);
        }
        publish_epoch(hub, agents, views.len() as u64, state.records.len());

        std::thread::sleep(delta_wall);
    };

    shutdown_links(agents);
    finish(state, epochs, restarted, timed_out, hub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::inproc_pair;
    use saath_workload::{CoflowSpec, FlowSpec};

    /// CoFlow 0: flows 0 (ready at arrival) and 1 (ready 300 ms later),
    /// arriving at 100 ms; CoFlow 1: flow 2, arriving at 1 s.
    fn registry() -> CoflowRegistry {
        let mut late = FlowSpec::new(NodeId(1), NodeId(2), Bytes::mb(2));
        late.available_after = Duration::from_millis(300);
        CoflowRegistry::from_trace(&Trace {
            num_nodes: 3,
            port_rate: Rate::gbps(1),
            coflows: vec![
                CoflowSpec::new(
                    CoflowId(0),
                    Time::from_millis(100),
                    vec![FlowSpec::new(NodeId(0), NodeId(2), Bytes::mb(1)), late],
                ),
                CoflowSpec::new(
                    CoflowId(1),
                    Time::from_secs(1),
                    vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(1))],
                ),
            ],
        })
    }

    fn stat(flow: u32, sent: u64, finished: bool) -> FlowStat {
        FlowStat {
            flow,
            sent,
            finished,
            ready: true,
        }
    }

    #[test]
    fn sent_is_monotone_under_reordered_reports() {
        let reg = registry();
        let mut state = ObsState::new(&reg);
        let mut views = Vec::new();
        // The 700-byte report overtakes the 300-byte one.
        state.ingest(&[stat(0, 700, false)], Time::from_millis(200));
        state.ingest(&[stat(0, 300, false)], Time::from_millis(300));
        state.build_views(&reg, Time::from_millis(300), false, &mut views);
        assert_eq!(views[0].flows[0].sent, Bytes(700));
    }

    #[test]
    fn sweep_stamps_the_latest_flow_finish_and_records_once() {
        let reg = registry();
        let mut state = ObsState::new(&reg);
        state.ingest(&[stat(0, 1_000_000, true)], Time::from_millis(500));
        assert!(
            !state.sweep(&reg, Time::from_millis(500)),
            "flow 1 still open"
        );
        assert!(state.records.is_empty());
        state.ingest(&[stat(1, 2_000_000, true)], Time::from_millis(900));
        // A repeated "finished" report must not move the stamp.
        state.ingest(&[stat(0, 1_000_000, true)], Time::from_millis(950));
        assert!(
            !state.sweep(&reg, Time::from_millis(1000)),
            "CoFlow 1 pending"
        );
        assert!(!state.sweep(&reg, Time::from_millis(1400)), "swept again");
        assert_eq!(state.records.len(), 1, "CoFlow 0 recorded exactly once");
        let r = &state.records[0];
        assert_eq!((r.id, r.finish), (CoflowId(0), Time::from_millis(900)));
        assert_eq!(
            r.flow_fcts,
            vec![Duration::from_millis(400), Duration::from_millis(800)],
            "per-flow FCTs run from the CoFlow's arrival"
        );
        let mut views = Vec::new();
        state.build_views(&reg, Time::from_millis(1400), false, &mut views);
        assert_eq!(views.len(), 1, "CoFlow 1 is active");
        state.ingest(&[stat(2, 1_000_000, true)], Time::from_millis(1500));
        assert!(state.sweep(&reg, Time::from_millis(1500)));
    }

    #[test]
    fn views_fall_back_to_the_ready_offset_before_the_first_report() {
        let reg = registry();
        let mut state = ObsState::new(&reg);
        let mut views = Vec::new();
        let ready = |views: &[CoflowView]| -> Vec<bool> {
            views[0].flows.iter().map(|f| f.ready).collect()
        };
        state.build_views(&reg, Time::from_millis(50), false, &mut views);
        assert!(views.is_empty(), "nothing has arrived yet");
        // Arrival 100 ms + offset 300 ms: flow 1 turns ready at 400 ms.
        state.build_views(&reg, Time::from_millis(399), false, &mut views);
        assert_eq!(ready(&views), [true, false]);
        state.build_views(&reg, Time::from_millis(400), false, &mut views);
        assert_eq!(ready(&views), [true, true]);
        assert_eq!(views[0].flows[0].oracle_size, None);
        // Once the agent has spoken, its word wins over the estimate.
        let unready = FlowStat {
            ready: false,
            ..stat(1, 0, false)
        };
        state.ingest(&[unready], Time::from_millis(450));
        state.build_views(&reg, Time::from_millis(500), true, &mut views);
        assert_eq!(ready(&views), [true, false]);
        assert_eq!(views[0].flows[0].oracle_size, Some(Bytes::mb(1)));
    }

    /// Regression: flow ids in a `Stats` frame come off the wire. One
    /// naming no registered flow (`flow == total_flows`) used to index
    /// past the observation table and panic the coordinator; it must be
    /// skipped and counted, and the run must still complete.
    #[test]
    fn out_of_range_flow_id_in_stats_is_skipped_and_counted() {
        let reg = registry();
        let (coord_side, mut agent) = inproc_pair(64);
        let hub = MetricsHub::new();
        let clock = EmuClock::start(100);
        agent
            .send(&Message::Stats {
                node: 0,
                now_ns: 0,
                flows: vec![
                    stat(reg.total_flows as u32, 1, true),
                    stat(0, 1_000_000, true),
                    stat(1, 2_000_000, true),
                    stat(2, 1_000_000, true),
                ],
            })
            .unwrap();
        let report = run_coordinator(
            &reg,
            &|| Box::new(saath_core::Saath::with_defaults()),
            &mut [Box::new(coord_side)],
            &clock,
            &CoordinatorConfig {
                delta: Duration::from_millis(400),
                clairvoyant: false,
                restart_at: None,
                wall_deadline: std::time::Duration::from_secs(10),
            },
            Some(&hub),
        );
        assert!(!report.timed_out);
        assert_eq!(report.records.len(), 2);
        assert!(
            hub.render().contains(&format!("{REJECTED_INDICES} 1\n")),
            "the skipped entry must be counted:\n{}",
            hub.render()
        );
    }

    /// Regression: `Err(Disconnected)` from a drained link used to read
    /// as "empty", so once every agent was gone the coordinator slept
    /// and re-polled the dead links until the watchdog (60 s by
    /// default). The link must be given up on at its first error,
    /// counted once, and with no agent left the run must end at once —
    /// as timed out, its CoFlows being unfinished.
    #[test]
    fn dead_agent_links_end_the_run_instead_of_being_polled() {
        let reg = registry();
        let (coord_side, mut agent) = inproc_pair(64);
        let hub = MetricsHub::new();
        // The agent hangs up mid-run: after the first schedule push.
        let agent_thread = std::thread::spawn(move || {
            while !matches!(
                agent.recv_timeout(std::time::Duration::from_secs(5)),
                Ok(Some(Message::Schedule { .. })) | Err(_)
            ) {}
        });
        let t0 = std::time::Instant::now();
        let report = run_coordinator(
            &reg,
            &|| Box::new(saath_core::Saath::with_defaults()),
            &mut [Box::new(coord_side)],
            &EmuClock::start(100),
            &CoordinatorConfig {
                delta: Duration::from_millis(400),
                clairvoyant: false,
                restart_at: None,
                wall_deadline: std::time::Duration::from_secs(10),
            },
            Some(&hub),
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "the coordinator polled a dead link for {:?}",
            t0.elapsed()
        );
        agent_thread.join().unwrap();
        assert!(report.timed_out && report.records.is_empty());
        assert!(report.epochs >= 1, "the agent left after a push");
        assert!(
            hub.render().contains(&format!("{LINK_ERRORS} 1\n")),
            "the link must be counted exactly once:\n{}",
            hub.render()
        );
    }

    /// A restarted coordinator has lost its observations and asks for
    /// them: every live link gets one `Hello`, and a CoFlow whose first
    /// flow was reported finished *before* the restart still completes,
    /// from the agent's answer.
    #[test]
    fn resync_is_requested_after_a_restart_and_rebuilds_the_table() {
        let reg = registry();
        let (coord_side, mut agent) = inproc_pair(64);
        let delta = Duration::from_millis(400);
        let restart_at = Time::from_millis(1000);
        // The scripted agent: flow 0 finished long ago (reported once),
        // flows 1 and 2 finish only in the answer to the resync.
        let agent_thread = std::thread::spawn(move || {
            let report = |flows| Message::Stats {
                node: 0,
                now_ns: 0,
                flows,
            };
            agent.send(&report(vec![stat(0, 1_000_000, true)])).unwrap();
            let mut hellos = 0;
            loop {
                match agent.recv_timeout(std::time::Duration::from_secs(5)) {
                    Ok(Some(Message::Hello { node })) => {
                        assert_eq!(node, COORDINATOR);
                        hellos += 1;
                        let full = vec![
                            stat(0, 1_000_000, true),
                            stat(1, 2_000_000, true),
                            stat(2, 1_000_000, true),
                        ];
                        agent.send(&report(full)).unwrap();
                    }
                    Ok(Some(Message::Shutdown)) | Ok(None) | Err(_) => return hellos,
                    Ok(Some(_)) => {}
                }
            }
        });
        let report = run_coordinator(
            &reg,
            &|| Box::new(saath_core::Saath::with_defaults()),
            &mut [Box::new(coord_side)],
            &EmuClock::start(100),
            &CoordinatorConfig {
                delta,
                clairvoyant: false,
                restart_at: Some(restart_at),
                wall_deadline: std::time::Duration::from_secs(10),
            },
            None,
        );
        assert_eq!(agent_thread.join().unwrap(), 1, "one Hello per restart");
        assert!(report.restarted && !report.timed_out);
        assert_eq!(report.records.len(), 2);
        // Flow 0's first report is gone with the old table: the finish
        // the successor knows of is the one in the resync answer.
        assert!(
            report.records[0].flow_fcts[0] >= restart_at.saturating_since(Time::from_millis(100)),
            "flow 0 finished at {:?} after arrival: its pre-restart observation survived",
            report.records[0].flow_fcts[0]
        );
    }

    /// L framed links, one encode: the push is encoded by the first TCP
    /// link and the same bytes go to the others.
    #[test]
    fn a_push_is_encoded_once_for_all_tcp_links() {
        use crate::proto::ENCODES;
        let (mut near, mut far): (Vec<Box<dyn Transport>>, Vec<_>) = (0..3)
            .map(|_| crate::transport::tcp_pair())
            .map(|(near, far)| (Box::new(near) as Box<dyn Transport>, far))
            .unzip();
        let mut schedule = Schedule::default();
        schedule.rates.push((FlowId(3), Rate(1_000)));
        schedule.rates.push((FlowId(1), Rate(2_000)));
        let mut health = LinkHealth::new(near.len());

        let before = ENCODES.with(|n| n.get());
        push_schedule(&mut near, &mut health, 7, &schedule, None);
        assert_eq!(ENCODES.with(|n| n.get()) - before, 1);

        let want = Message::Schedule {
            epoch: 7,
            rates: to_assignments(&schedule),
        };
        for link in &mut far {
            let got = link
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap();
            assert_eq!(got.as_ref(), Some(&want));
        }
    }
}
