//! The sharded coordinator: K shards, one reconciler, one staleness
//! parameter.
//!
//! The ROADMAP's scalability rung past a single coordinator: CoFlows
//! are hashed across K coordinator **shards** (`saath_core::view::
//! shard_of`), each shard ([`run_shard`]) runs Saath in lockstep with
//! the reconciler's per-δ barrier and replies with the slice of
//! CoFlows it owns, and the **reconciler**
//! ([`run_sharded_coordinator`]) merges the slices into one feasible
//! rate assignment before it is pushed to the agents. The summary
//! staleness budget S selects what a shard schedules
//! (`saath_simulator::PartitionedScheduler` is the same model in the
//! deterministic simulator domain, where the equivalence claims below
//! are proven):
//!
//! * **S = 0 — replicated.** Saath's decisions are global — the
//!   contention matrix couples every CoFlow that shares a port — so
//!   each shard deterministically recomputes the *full* schedule and
//!   emits only its slice; because every replica sees the same stats
//!   waves in the same δ cadence, the slices are disjoint and their
//!   union *is* the single coordinator's schedule. This divides the
//!   failure domain, not the compute: any K−1 shards can die and the
//!   reconciler keeps pushing consistent schedules from the survivors'
//!   last slices, and a standby that takes a dead shard's place starts
//!   from the reconciler's own observation table, sent ahead of the
//!   rebuild barrier as snapshot `Stats` frames — agents report a
//!   finish once, so no later wave would tell it — and is level with
//!   its peers at its first round.
//! * **S ≥ 1 — partitioned.** Each shard schedules only its owned
//!   CoFlows against the latest `ContentionSummary` from each peer,
//!   exporting its own every S epochs (relayed by the reconciler):
//!   per-shard compute scales with owned CoFlows, for a bounded CCT
//!   deviation.
//!
//! ## Reconciliation order
//!
//! The reconciler flattens the slices, sorts by flow id (a
//! deterministic total order, rotated by epoch) and clamps each rate
//! to the remaining capacity of the flow's two ports. When replicas
//! agree the union is exactly one feasible schedule and no clamp
//! fires; clamping only shapes the rounds where shards diverge (one
//! missed a stats wave, one just restarted, or summaries were stale),
//! where it restores feasibility without coordination.

use crate::clock::EmuClock;
use crate::coordinator::{
    drain_stats, finish, publish_epoch, publish_links, push_schedule, shutdown_links,
    to_assignments, CoflowRegistry, CoordinatorConfig, CoordinatorReport, LinkHealth, ObsState,
    REJECTED_INDICES, SNAPSHOT_CHUNK,
};
use crate::metrics::MetricsHub;
use crate::proto::{Message, RateAssignment};
use crate::transport::{Transport, TransportError};
use saath_core::merge::merge_rates_rotated;
use saath_core::summary::{apply_peer_summaries, port_rates_of_slice, ContentionSummary};
use saath_core::view::{shard_of, ClusterView, CoflowScheduler, CoflowView, Schedule};
use saath_core::{Saath, SaathConfig};
use saath_fabric::PortBank;
use saath_simcore::{FlowId, PortId, Rate, Time};
use saath_telemetry::prom::label_body;
use saath_telemetry::Phase;

/// The hub counter for rates in a *fresh* slice that name a flow the
/// reconciler has seen finished: the replica that sent it is behind the
/// reconciler's observation table. Rendered only when nonzero.
pub(crate) const FINISHED_FLOW_RATES: &str = "saath_shard_finished_flow_rates_total";

/// `(uplink, downlink)` of every registered flow, indexed by flow id.
fn flow_endpoints(registry: &CoflowRegistry) -> Vec<(PortId, PortId)> {
    let mut eps = vec![(PortId(0), PortId(0)); registry.total_flows];
    for e in &registry.entries {
        for (fid, src, dst, ..) in &e.flows {
            eps[*fid as usize] = (
                PortId::uplink(*src),
                PortId::downlink(*dst, registry.num_nodes),
            );
        }
    }
    eps
}

/// Owning shard of every registered flow, indexed by flow id.
fn flow_owners(registry: &CoflowRegistry, shards: usize) -> Vec<u32> {
    let mut owners = vec![0u32; registry.total_flows];
    for e in &registry.entries {
        let s = shard_of(e.id, shards) as u32;
        for (fid, ..) in &e.flows {
            owners[*fid as usize] = s;
        }
    }
    owners
}

/// Runs one coordinator shard: a `cfg`-configured Saath driven in
/// lockstep by the reconciler's [`Message::Reconcile`] barriers.
/// Between barriers it folds in the stats reports the reconciler
/// forwards and the peer [`Message::ContentionSummary`]s it relays; on
/// each barrier it computes a schedule at the barrier's timestamp and
/// replies with the slice of CoFlows it owns.
///
/// `staleness` is the summary refresh period in reconciliation epochs
/// and decides two things only. **What is scheduled:** at `0` the full
/// view (a replica of the single coordinator), at `≥ 1` the owned
/// CoFlows only, against the peers' latest summaries (at `0` none is
/// ever received, so applying them is a no-op). **Whether a summary is
/// exported:** at `≥ 1`, every `staleness` epochs, sent *before* the
/// slice reply so the reconciler relays it while collecting. Returns
/// the number of rounds computed.
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    shard: usize,
    shards: usize,
    staleness: u64,
    registry: &CoflowRegistry,
    cfg: SaathConfig,
    mut link: Box<dyn Transport>,
    clairvoyant: bool,
    hub: Option<&MetricsHub>,
) -> Result<u64, TransportError> {
    let partitioned = staleness >= 1;
    assert!(
        !partitioned || (cfg.incremental_contention && cfg.lcof),
        "staleness >= 1 requires incremental_contention and lcof"
    );
    // The shard's own series describe the summary plane; without
    // summaries there is nothing to publish.
    let hub = hub.filter(|_| partitioned);
    let mut sched = Saath::new(cfg.clone());
    let mut state = ObsState::new(registry);
    let mut views: Vec<CoflowView> = Vec::new();
    let mut bank = PortBank::uniform(registry.num_nodes, registry.port_rate);
    let mut out = Schedule::default();
    let owners = flow_owners(registry, shards);
    let endpoints = flow_endpoints(registry);
    let mut summaries: Vec<ContentionSummary> = vec![ContentionSummary::default(); shards];
    let mut own_summary = ContentionSummary::default();
    let mut entries: Vec<(FlowId, Rate, PortId, PortId)> = Vec::new();
    let (mut remote_buf, mut port_scratch) = (Vec::new(), Vec::new());
    let mut last_export_round: Option<u64> = None;
    let mut rounds = 0u64;
    let labels = label_body(&[("shard", &shard.to_string())]);
    loop {
        match link.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(Some(Message::Stats { now_ns, flows, .. })) => {
                // Bad indices were already counted by the reconciler.
                state.ingest(&flows, Time(now_ns));
            }
            Ok(Some(Message::ContentionSummary { summary })) => {
                let s = summary.shard as usize;
                if s < shards && s != shard {
                    summaries[s] = summary;
                }
            }
            Ok(Some(Message::Reconcile {
                epoch,
                now_ns,
                rebuild,
            })) => {
                if rebuild {
                    // Global rebuild: every shard recreates its policy
                    // together so replicas stay identical (policies
                    // carry cross-round state — deadlines, contention —
                    // that a lone fresh replica would lack), and
                    // summaries from before the rebuild are dropped.
                    sched = Saath::new(cfg.clone());
                    for s in &mut summaries {
                        s.clear();
                    }
                    last_export_round = None;
                }
                let now = Time(now_ns);
                state.sweep(registry, now);
                state.build_views(registry, now, clairvoyant, &mut views);
                if partitioned {
                    views.retain(|c| shard_of(c.id, shards) == shard);
                }
                rounds += 1;
                out.clear();
                if !views.is_empty() {
                    bank.reset_round();
                    apply_peer_summaries(
                        &mut sched,
                        &views,
                        registry.num_nodes,
                        &summaries,
                        shard,
                        &mut bank,
                        &mut remote_buf,
                        &mut port_scratch,
                    );
                    let view = ClusterView {
                        now,
                        num_nodes: registry.num_nodes,
                        coflows: &views,
                        changed: None,
                    };
                    sched.compute(&view, &mut bank, &mut out);
                }
                out.retain(|f| owners[f.index()] == shard as u32);
                // Rounds since this shard's last export (all of them
                // before the first).
                let age = last_export_round.map_or(rounds, |e| rounds - e);
                if let Some(h) = hub {
                    h.set("saath_summary_age_rounds", &labels, age);
                    if last_export_round.is_none() || age > 1 {
                        h.incr(
                            "saath_stale_order_decisions_total",
                            &labels,
                            views.len() as u64,
                        );
                    }
                }
                if partitioned && (last_export_round.is_none() || age >= staleness) {
                    entries.clear();
                    for &(f, r) in &out.rates {
                        let (src, dst) = endpoints[f.index()];
                        entries.push((f, r, src, dst));
                    }
                    sched.export_summary(shard as u32, rounds, &mut own_summary);
                    port_rates_of_slice(&entries, &mut own_summary.port_rates);
                    link.send(&Message::ContentionSummary {
                        summary: own_summary.clone(),
                    })?;
                    last_export_round = Some(rounds);
                }
                link.send(&Message::ShardSchedule {
                    shard: shard as u32,
                    epoch,
                    rates: to_assignments(&out),
                })?;
            }
            Ok(Some(Message::Shutdown)) => return Ok(rounds),
            Ok(Some(_)) | Ok(None) => {}
            Err(TransportError::Disconnected) => return Ok(rounds),
            Err(e) => return Err(e),
        }
    }
}

/// Kill-and-respawn drill for one shard: at simulated time `at` the
/// reconciler shuts the shard's link down and swaps in `spare` — a
/// pre-connected link to a standby replica of the same shard — hands
/// it its observation table, then broadcasts a global rebuild on the
/// next barrier.
pub struct ShardFailover {
    /// Which shard to restart.
    pub shard: usize,
    /// When (simulated time).
    pub at: Time,
    /// Link to the standby replica that takes over.
    pub spare: Box<dyn Transport>,
}

/// The reconciler: the coordinator's epoch loop
/// ([`crate::coordinator::run_coordinator`] — same stats drain,
/// completion bookkeeping, schedule push, gauges and termination) with
/// the epoch's rates produced by the shards instead of a local policy.
/// Drained stats are forwarded to every shard; each δ it issues a
/// [`Message::Reconcile`] barrier, collects one slice per shard
/// (relaying any [`Message::ContentionSummary`] to the other shards),
/// and merges the slices in rotated flow-id order with port-capacity
/// clamping. A shard that misses a barrier contributes its previous
/// slice (the agents would keep complying with it anyway); a shard
/// restart swaps in the spare link and forces a global rebuild.
pub fn run_sharded_coordinator(
    registry: &CoflowRegistry,
    agents: &mut [Box<dyn Transport>],
    mut shard_links: Vec<Box<dyn Transport>>,
    mut failover: Option<ShardFailover>,
    clock: &EmuClock,
    cfg: &CoordinatorConfig,
    hub: Option<&MetricsHub>,
) -> CoordinatorReport {
    let shards = shard_links.len();
    assert!(shards >= 1, "sharded coordinator needs at least one shard");
    let mut state = ObsState::new(registry);
    let mut epochs: u64 = 0;
    let mut restarted = false;
    let mut pending_rebuild = false;
    let mut last_slices: Vec<Vec<RateAssignment>> = vec![Vec::new(); shards];
    // Per-shard label bodies (pre-rendered once) and the epoch of each
    // shard's last *fresh* slice, for the replica-lag gauge.
    let shard_labels: Vec<String> = (0..shards)
        .map(|i| label_body(&[("shard", &i.to_string())]))
        .collect();
    let mut last_fresh_epoch: Vec<u64> = vec![0; shards];
    let mut bank = PortBank::uniform(registry.num_nodes, registry.port_rate);
    let mut out = Schedule::default();
    let mut entries: Vec<(FlowId, Rate, PortId, PortId)> = Vec::new();
    let endpoints = flow_endpoints(registry);
    let mut health = LinkHealth::new(agents.len());
    let started_wall = std::time::Instant::now();
    let delta_wall = clock.to_wall(cfg.delta);
    // Budget for collecting shard replies: a couple of δ intervals, so
    // a healthy shard always makes it and a dead one costs bounded time
    // before its previous slice is reused.
    let reply_budget = delta_wall.max(std::time::Duration::from_millis(5)) * 2;

    let timed_out = loop {
        if started_wall.elapsed() > cfg.wall_deadline {
            break true;
        }

        // Failover drill: kill the shard's link, swap in the standby.
        if failover.as_ref().is_some_and(|f| clock.now() >= f.at) {
            let f = failover.take().expect("checked above");
            let _ = shard_links[f.shard].send(&Message::Shutdown);
            shard_links[f.shard] = f.spare;
            // The standby has seen no report, and agents do not repeat
            // the finishes they have reported: it starts from this
            // table, level with its peers once this epoch's wave has
            // been forwarded, so no completed CoFlow looks active to it.
            for frame in state.snapshot(clock.now(), SNAPSHOT_CHUNK) {
                let _ = shard_links[f.shard].send(&frame);
            }
            // Its policy is fresh; force every other replica to
            // rebuild too so they stay identical.
            pending_rebuild = true;
            restarted = true;
            if let Some(h) = hub {
                h.incr(
                    "saath_shard_standby_rebuilds_total",
                    &shard_labels[f.shard],
                    1,
                );
            }
        }

        let now = clock.now();
        drain_stats(agents, &mut health, &mut shard_links, &mut state, now, hub);
        let (all_done, active) = {
            let _span = hub.map(|h| h.span(Phase::CoordViews));
            let all_done = state.sweep(registry, now);
            (all_done, state.active_count(registry, now))
        };
        if all_done {
            break false;
        }
        if health.all_dead() {
            break true;
        }

        if active > 0 {
            let span_reconcile = hub.map(|h| h.span(Phase::CoordReconcile));
            // Barrier: every shard computes at the same timestamp.
            let barrier = Message::Reconcile {
                epoch: epochs + 1,
                now_ns: now.as_nanos(),
                rebuild: pending_rebuild,
            };
            pending_rebuild = false;
            for l in shard_links.iter_mut() {
                let _ = l.send(&barrier);
            }

            // Collect one slice per shard, discarding stale replies
            // from rounds that previously timed out. Shard and flow
            // indices come off the wire: one that names nothing is
            // skipped and counted, never indexed with.
            let deadline = std::time::Instant::now() + reply_budget;
            let mut got: Vec<Option<Vec<RateAssignment>>> = (0..shards).map(|_| None).collect();
            let mut relay: Vec<(usize, Message)> = Vec::new();
            let mut rejected = 0u64;
            for (li, l) in shard_links.iter_mut().enumerate() {
                loop {
                    let left = deadline.saturating_duration_since(std::time::Instant::now());
                    match l.recv_timeout(left) {
                        Ok(Some(Message::ShardSchedule {
                            shard,
                            epoch,
                            rates,
                        })) => {
                            if epoch != epochs + 1 {
                                continue; // Stale — keep draining within the budget.
                            }
                            match got.get_mut(shard as usize) {
                                Some(slot) => {
                                    *slot = Some(rates);
                                    break;
                                }
                                None => rejected += 1,
                            }
                        }
                        Ok(Some(Message::ContentionSummary { summary })) => {
                            // Shards export these before their slice
                            // reply; relay to every *other* shard once
                            // this collect pass is done. The K−1 copies
                            // are sent — and so counted — here only.
                            if let Some(h) = hub {
                                h.incr(
                                    "saath_summary_bytes_exchanged_total",
                                    &shard_labels[li],
                                    (summary.encoded_len() * shards.saturating_sub(1)) as u64,
                                );
                            }
                            relay.push((li, Message::ContentionSummary { summary }));
                        }
                        Ok(Some(_)) | Ok(None) | Err(_) => break,
                    }
                }
            }
            for (from, m) in &relay {
                for (i, l) in shard_links.iter_mut().enumerate() {
                    if i != *from {
                        let _ = l.send(m);
                    }
                }
            }
            epochs += 1;

            // Merge: fresh slices replace the cache; a missing shard
            // falls back to its previous slice (the agents would keep
            // complying with it regardless — this just keeps the merged
            // push consistent with that reality).
            entries.clear();
            for (i, slice) in got.into_iter().enumerate() {
                let family = match slice {
                    Some(rates) => {
                        // A replica level with this table schedules no
                        // finished flow.
                        let behind = rates.iter().filter(|r| state.is_finished(r.flow)).count();
                        if let (Some(h), true) = (hub, behind > 0) {
                            h.incr(FINISHED_FLOW_RATES, &shard_labels[i], behind as u64);
                        }
                        last_slices[i] = rates;
                        last_fresh_epoch[i] = epochs;
                        "saath_shard_slices_total"
                    }
                    None => "saath_shard_fallback_slices_total",
                };
                if let Some(h) = hub {
                    h.incr(family, &shard_labels[i], 1);
                }
                for r in &last_slices[i] {
                    match endpoints.get(r.flow as usize) {
                        Some(&(src, dst)) => entries.push((FlowId(r.flow), Rate(r.rate), src, dst)),
                        None => rejected += 1,
                    }
                }
            }
            bank.reset_round();
            out.clear();
            // Rotated by epoch: a no-op for agreeing replicas (zero
            // clamps), but spreads clamp damage across flows when
            // partitioned shards overcommit on stale summaries.
            let clamps = merge_rates_rotated(&mut entries, &mut bank, &mut out, epochs);
            drop(span_reconcile);
            if let Some(h) = hub {
                if clamps > 0 {
                    h.incr("saath_shard_merge_clamps_total", "", clamps);
                }
                if rejected > 0 {
                    h.incr(REJECTED_INDICES, "", rejected);
                }
                for (i, labels) in shard_labels.iter().enumerate() {
                    h.set(
                        "saath_shard_replica_lag_epochs",
                        labels,
                        epochs - last_fresh_epoch[i],
                    );
                }
            }
            push_schedule(agents, &mut health, epochs, &out, hub);
        }
        publish_epoch(hub, agents, active, state.records.len());
        if let Some(h) = hub {
            publish_links(h, "link=\"shard\"", &shard_links);
        }

        std::thread::sleep(delta_wall);
    };

    shutdown_links(agents);
    shutdown_links(&mut shard_links);
    // An unused spare's standby replica must also be released.
    if let Some(mut f) = failover {
        shutdown_links(std::slice::from_mut(&mut f.spare));
    }
    finish(state, epochs, restarted, timed_out, hub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_simcore::NodeId;

    #[test]
    fn merge_is_identity_on_a_feasible_union() {
        let mut bank = PortBank::uniform(4, Rate(100));
        let up0 = PortId::uplink(NodeId(0));
        let dn2 = PortId::downlink(NodeId(2), 4);
        let up1 = PortId::uplink(NodeId(1));
        let dn3 = PortId::downlink(NodeId(3), 4);
        // Disjoint slices arriving out of order, jointly feasible.
        let mut entries = vec![
            (FlowId(7), Rate(60), up1, dn3),
            (FlowId(2), Rate(100), up0, dn2),
            (FlowId(9), Rate(40), up1, dn3),
        ];
        let mut out = Schedule::default();
        let clamps = merge_rates_rotated(&mut entries, &mut bank, &mut out, 0);
        assert_eq!(clamps, 0);
        assert_eq!(
            out.rates,
            vec![
                (FlowId(2), Rate(100)),
                (FlowId(7), Rate(60)),
                (FlowId(9), Rate(40)),
            ],
            "sorted by flow id, rates untouched"
        );
    }

    #[test]
    fn merge_clamps_conflicting_claims_deterministically() {
        let mut bank = PortBank::uniform(2, Rate(100));
        let up0 = PortId::uplink(NodeId(0));
        let dn1 = PortId::downlink(NodeId(1), 2);
        // Two diverged replicas both claimed the same uplink in full.
        let mut entries = vec![
            (FlowId(5), Rate(100), up0, dn1),
            (FlowId(1), Rate(100), up0, dn1),
        ];
        let mut out = Schedule::default();
        let clamps = merge_rates_rotated(&mut entries, &mut bank, &mut out, 0);
        // Lowest flow id wins the capacity; the later claim clamps to 0.
        assert_eq!(clamps, 1);
        assert_eq!(out.rates, vec![(FlowId(1), Rate(100))]);
        assert_eq!(out.rate_of(FlowId(5)), Rate::ZERO);
    }

    /// One shard's thread body: handed the registry, the shared hub and
    /// the shard's end of its link; runs until shut down.
    type ShardBody<'a> =
        Box<dyn FnOnce(&CoflowRegistry, &MetricsHub, Box<dyn Transport>) + Send + 'a>;

    /// A shard that answers each barrier with `reply(epoch)` and hands
    /// every other message to `other`.
    fn scripted_shard<'a>(
        reply: impl Fn(u64) -> Message + Send + 'a,
        other: impl Fn(Message) + Send + 'a,
    ) -> ShardBody<'a> {
        Box::new(move |_, _, mut link| loop {
            match link.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(Some(Message::Reconcile { epoch, .. })) => link.send(&reply(epoch)).unwrap(),
                Ok(Some(Message::Shutdown)) | Ok(None) | Err(_) => return,
                Ok(Some(m)) => other(m),
            }
        })
    }

    /// Drives the reconciler against the given shards and one scripted
    /// agent: the single registered flow (id 0) stays active until the
    /// agent has seen two schedule pushes, then is reported finished.
    /// Returns the report and the metrics page.
    fn reconcile_with_shards(shards: Vec<ShardBody<'_>>) -> (CoordinatorReport, String) {
        use crate::transport::inproc_pair;
        use saath_simcore::{Bytes, CoflowId, Duration};
        use saath_workload::{CoflowSpec, FlowSpec, Trace};

        let registry = CoflowRegistry::from_trace(&Trace {
            num_nodes: 2,
            port_rate: Rate::gbps(1),
            coflows: vec![CoflowSpec::new(
                CoflowId(0),
                Time::ZERO,
                vec![FlowSpec::new(NodeId(0), NodeId(1), Bytes::mb(1))],
            )],
        });
        let (agent_near, mut agent) = inproc_pair(64);
        let hub = MetricsHub::new();
        let report = std::thread::scope(|s| {
            let mut shard_links: Vec<Box<dyn Transport>> = Vec::new();
            for body in shards {
                let (near, far) = inproc_pair(64);
                shard_links.push(Box::new(near));
                let (registry, hub) = (&registry, &hub);
                s.spawn(move || body(registry, hub, Box::new(far)));
            }
            s.spawn(move || {
                let mut pushes = 0;
                loop {
                    match agent.recv_timeout(std::time::Duration::from_secs(5)) {
                        Ok(Some(Message::Schedule { .. })) => {
                            pushes += 1;
                            if pushes == 2 {
                                let done = crate::proto::FlowStat {
                                    flow: 0,
                                    sent: 1_000_000,
                                    finished: true,
                                    ready: true,
                                };
                                agent
                                    .send(&Message::Stats {
                                        node: 0,
                                        now_ns: 0,
                                        flows: vec![done],
                                    })
                                    .unwrap();
                            }
                        }
                        Ok(Some(Message::Shutdown)) | Ok(None) | Err(_) => return,
                        Ok(Some(_)) => {}
                    }
                }
            });
            run_sharded_coordinator(
                &registry,
                &mut [Box::new(agent_near)],
                shard_links,
                None,
                &EmuClock::start(100),
                &CoordinatorConfig {
                    delta: Duration::from_millis(400),
                    clairvoyant: false,
                    restart_at: None,
                    wall_deadline: std::time::Duration::from_secs(10),
                },
                Some(&hub),
            )
        });
        (report, hub.render())
    }

    fn reconcile_with_scripted_shard(
        reply: impl Fn(u64) -> Message + Send,
    ) -> (CoordinatorReport, String) {
        reconcile_with_shards(vec![scripted_shard(reply, |_| {})])
    }

    /// Regression: a summary's K−1 relayed copies are counted once, by
    /// the reconciler that sends them — the exporting shard used to add
    /// the same bytes under the same label on the shared hub. Shard 0
    /// is the real [`run_shard`] (one export: its staleness budget
    /// never elapses again); shard 1 records what it is relayed.
    #[test]
    fn summary_bytes_are_counted_once_per_relayed_copy() {
        let relayed = std::sync::Mutex::new(Vec::new());
        let exporter: ShardBody<'_> = Box::new(|registry, hub, link| {
            let cfg = SaathConfig::default();
            run_shard(0, 2, u64::MAX, registry, cfg, link, false, Some(hub)).unwrap();
        });
        let peer = scripted_shard(
            |epoch| Message::ShardSchedule {
                shard: 1,
                epoch,
                rates: vec![],
            },
            |m| {
                if let Message::ContentionSummary { summary } = m {
                    relayed.lock().unwrap().push(summary.encoded_len());
                }
            },
        );
        let (report, page) = reconcile_with_shards(vec![exporter, peer]);
        assert!(!report.timed_out);
        let relayed = relayed.into_inner().unwrap();
        assert_eq!(relayed.len(), 1, "exactly one summary exported and relayed");
        let want = format!(
            "saath_summary_bytes_exchanged_total{{shard=\"0\"}} {}\n",
            relayed[0] // × (K − 1) = 1 peer
        );
        assert!(page.contains(&want), "want {want:?} in:\n{page}");
    }

    /// Regression: the `shard` of a `ShardSchedule` comes off the wire.
    /// A slice claiming `shard == K` used to index past the reply table
    /// and panic the reconciler; it must be skipped and counted (the
    /// shard's previous slice serves the round), and the run complete.
    #[test]
    fn out_of_range_shard_id_in_a_slice_is_skipped_and_counted() {
        let (report, page) = reconcile_with_scripted_shard(|epoch| Message::ShardSchedule {
            shard: 1, // K = 1: names no shard
            epoch,
            rates: vec![],
        });
        assert!(!report.timed_out);
        assert_eq!(report.records.len(), 1);
        assert!(page.contains("saath_shard_fallback_slices_total{shard=\"0\"}"));
        assert!(
            page.contains(REJECTED_INDICES),
            "skipped slices must be counted:\n{page}"
        );
    }

    /// Regression: so do the flow ids inside the slice. A rate for
    /// `flow == total_flows` used to index past the endpoint table in
    /// the merge; the entry must be skipped and counted, the rest of
    /// the slice merged, and the run complete.
    #[test]
    fn out_of_range_flow_id_in_a_slice_is_skipped_and_counted() {
        let rate = |flow| RateAssignment { flow, rate: 1000 };
        let (report, page) = reconcile_with_scripted_shard(move |epoch| Message::ShardSchedule {
            shard: 0,
            epoch,
            rates: vec![rate(1), rate(0)], // one registered flow: id 0
        });
        assert!(!report.timed_out);
        assert_eq!(report.records.len(), 1);
        assert!(page.contains("saath_shard_slices_total{shard=\"0\"}"));
        assert!(
            page.contains(REJECTED_INDICES),
            "skipped entries must be counted:\n{page}"
        );
    }

    /// A standby replica starts from the reconciler's table, not from
    /// the agents' next reports — which no longer repeat the finishes
    /// already reported. Bootstrapped from snapshot frames, its first
    /// slice schedules the one unfinished flow and nothing else; without
    /// them it takes every flow for unstarted, and the older, completed
    /// CoFlow wins the ports.
    #[test]
    fn a_snapshot_bootstrapped_standby_schedules_no_finished_flow() {
        use crate::proto::FlowStat;
        use crate::transport::inproc_pair;
        use saath_simcore::{Bytes, CoflowId};
        use saath_workload::{CoflowSpec, FlowSpec, Trace};

        let mb = |src, dst| FlowSpec::new(NodeId(src), NodeId(dst), Bytes::mb(1));
        // CoFlow 0 = flows 0, 1 (complete); CoFlow 1 = flows 2 (done), 3.
        let registry = CoflowRegistry::from_trace(&Trace {
            num_nodes: 4,
            port_rate: Rate::gbps(1),
            coflows: vec![
                CoflowSpec::new(CoflowId(0), Time::ZERO, vec![mb(0, 2), mb(1, 3)]),
                CoflowSpec::new(CoflowId(1), Time::ZERO, vec![mb(0, 3), mb(1, 2)]),
            ],
        });
        let now = Time::from_secs(1);
        let mut table = ObsState::new(&registry);
        let seen = |flow, sent, finished| FlowStat {
            flow,
            sent,
            finished,
            ready: true,
        };
        let done = [0, 1, 2].map(|f| seen(f, 1_000_000, true));
        table.ingest(&done, Time::from_millis(600));
        table.ingest(&[seen(3, 400_000, false)], now);
        let snapshot = table.snapshot(now, 3);
        assert_eq!(snapshot.len(), 2, "four flows seen, three per frame");

        let first_slice = |bootstrap: &[Message]| {
            let (mut near, far) = inproc_pair(64);
            std::thread::scope(|s| {
                let registry = &registry;
                let shard = s.spawn(move || {
                    let cfg = SaathConfig::default();
                    run_shard(0, 1, 0, registry, cfg, Box::new(far), false, None)
                });
                for frame in bootstrap {
                    near.send(frame).unwrap();
                }
                near.send(&Message::Reconcile {
                    epoch: 1,
                    now_ns: now.as_nanos(),
                    rebuild: true,
                })
                .unwrap();
                let reply = near.recv_timeout(std::time::Duration::from_secs(5));
                near.send(&Message::Shutdown).unwrap();
                assert_eq!(shard.join().unwrap().unwrap(), 1);
                match reply {
                    Ok(Some(Message::ShardSchedule { rates, .. })) => {
                        let mut flows: Vec<u32> = rates.iter().map(|r| r.flow).collect();
                        flows.sort_unstable();
                        flows
                    }
                    other => panic!("no slice: {other:?}"),
                }
            })
        };
        assert_eq!(first_slice(&snapshot), [3]);
        assert_eq!(
            first_slice(&[]),
            [0, 1],
            "unbootstrapped, it hands the ports to the CoFlow that completed long ago"
        );
    }
}
