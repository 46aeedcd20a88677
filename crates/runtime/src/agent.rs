//! The local agent: one per machine (Fig 6).
//!
//! An agent owns the flows whose *sender* is its node. It emulates the
//! machine's NIC with token-bucket byte counters: every tick it credits
//! each flow `rate × elapsed` bytes, capped at the flow's size — the
//! fluid equivalent of a socket draining at an enforced rate, which is
//! all that matters for completion times. Every δ it reports per-flow
//! statistics to the coordinator (bytes sent, finished, data-ready) —
//! §5's "per-flow bytes sent so far and which flows finished in this
//! interval": a flow is reported while it is unfinished and once more
//! when it finishes, never after, so a report is as long as the agent's
//! live flows, not its history — and whenever a schedule push arrives
//! it applies the new rates — *complying with the previous schedule
//! until then*, exactly as §5 prescribes. Stale *and duplicate* pushes
//! (epoch ≤ the last applied one) are ignored, which makes agent
//! behaviour correct across coordinator restarts and idempotent under
//! retransmitted pushes. What a restart does cost is the new
//! coordinator's knowledge of the finishes already reported: it asks
//! ([`Message::Hello`]) and every agent answers with one full report
//! ([`AgentCore::resync`]).
//!
//! The per-agent state machine lives in [`AgentCore`], a plain value
//! with no transport or thread of its own: `on_message` folds in a
//! schedule push, `advance` moves the emulated NIC to `now`, and
//! `take_stats` emits the δ-interval report when one is due. Its one
//! driver is the [`crate::host::run_agent_host`] event loop, which
//! runs N cores on a thread over one link — N = 1 is the paper's
//! agent-per-machine wiring.

use crate::metrics::MetricsHub;
use crate::proto::{FlowStat, Message, RateAssignment};
use saath_simcore::units::bytes_in;
use saath_simcore::{Bytes, Duration, Rate, Time};
use saath_telemetry::Phase;

/// One flow assigned to an agent (its node is the sender).
#[derive(Clone, Debug)]
pub struct AgentFlow {
    /// Dense flow id (shared with the coordinator's registry).
    pub flow: u32,
    /// Total bytes to move.
    pub size: Bytes,
    /// When the owning CoFlow arrives (simulated time).
    pub activate_at: Time,
    /// When the flow's data becomes available (≥ `activate_at`).
    pub ready_at: Time,
}

struct LiveFlow {
    spec: AgentFlow,
    sent: Bytes,
    rate: Rate,
}

/// The per-agent state machine: NIC byte counters, the last applied
/// schedule epoch, and δ-report bookkeeping. Transport-agnostic — the
/// caller owns the link and the clock and feeds in messages and `now`.
///
/// Every per-δ step costs what is *live*. An owned flow waits until its
/// CoFlow arrives, is then live — advanced, looked up in each push and
/// reported every δ — until the report that carries its finish has been
/// built, and from then on is retired and costs nothing.
pub struct AgentCore {
    node: u32,
    /// Every owned flow, in activation order; `flows[..activated]` have
    /// been activated.
    flows: Vec<LiveFlow>,
    activated: usize,
    /// Indices of the activated flows not yet reported finished.
    live: Vec<u32>,
    last_epoch: u64,
    epochs_applied: u64,
    last_advance: Time,
    /// `None` until the first report is sent — distinguishing "never
    /// reported" from "reported at simulated time zero", so an agent
    /// started before the emulated clock moves off zero reports once,
    /// not once per loop iteration.
    last_report: Option<Time>,
    delta: Duration,
}

impl AgentCore {
    /// Builds the state machine for `node` owning `flows`, reporting
    /// every `delta`. `now` seeds the NIC's last-advance mark and
    /// activates the flows already due.
    pub fn new(node: u32, flows: Vec<AgentFlow>, delta: Duration, now: Time) -> AgentCore {
        let mut flows: Vec<LiveFlow> = flows
            .into_iter()
            .map(|spec| LiveFlow {
                spec,
                sent: Bytes::ZERO,
                rate: Rate::ZERO,
            })
            .collect();
        flows.sort_by_key(|f| (f.spec.activate_at, f.spec.flow));
        let mut core = AgentCore {
            node,
            flows,
            activated: 0,
            live: Vec::new(),
            last_epoch: 0,
            epochs_applied: 0,
            last_advance: now,
            last_report: None,
            delta,
        };
        core.activate(now);
        core
    }

    /// The node this agent emulates.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Schedule epochs applied so far (diagnostics).
    pub fn epochs_applied(&self) -> u64 {
        self.epochs_applied
    }

    /// The agent's opening handshake frame.
    pub fn hello(&self) -> Message {
        Message::Hello { node: self.node }
    }

    /// Whether a flow's CoFlow has arrived by `now` without the flow
    /// being live yet.
    fn activation_pending(&self, now: Time) -> bool {
        self.flows
            .get(self.activated)
            .is_some_and(|f| f.spec.activate_at <= now)
    }

    /// Makes the flows whose CoFlow has arrived by `now` live.
    /// [`AgentCore::advance`] and [`AgentCore::take_stats`] do it
    /// themselves; a driver calls it with the current time before
    /// handing over a push, because the coordinator may already have
    /// scheduled a CoFlow that arrived since this agent's last tick.
    pub(crate) fn activate(&mut self, now: Time) {
        while self.activation_pending(now) {
            self.live.push(self.activated as u32);
            self.activated += 1;
        }
    }

    /// Folds one inbound message into the state machine. Returns
    /// `true` when the message was a [`Message::Shutdown`] and the
    /// caller should stop driving this agent.
    ///
    /// A push sets the rate of every live flow: the one it lists for
    /// the flow (the last, if it lists several), zero if it lists none
    /// (§4.2: unlisted = paused). Rates for flows that are not live —
    /// another agent's, not yet activated, retired — are ignored. Each
    /// live flow is looked up in the push, which is cheapest when the
    /// push is ordered by flow id, as [`crate::host`] hands it over;
    /// any other order is sorted into a copy first.
    pub fn on_message(&mut self, m: &Message, hub: Option<&MetricsHub>) -> bool {
        match m {
            Message::Schedule { epoch, rates } => {
                // Strictly newer wins: a duplicated push of the same
                // epoch (a retransmit) must be a no-op, not
                // double-counted in `epochs_applied`.
                if *epoch > self.last_epoch {
                    self.last_epoch = *epoch;
                    self.epochs_applied += 1;
                    if !self.live.is_empty() {
                        let _span = hub.map(|h| h.span(Phase::AgentApply));
                        self.apply_schedule(rates);
                    }
                }
                false
            }
            Message::Shutdown => true,
            _ => false,
        }
    }

    fn apply_schedule(&mut self, rates: &[RateAssignment]) {
        let sorted;
        let rates = if rates.is_sorted_by_key(|r| r.flow) {
            rates
        } else {
            // Stable: equal ids keep the push's order.
            sorted = {
                let mut v = rates.to_vec();
                v.sort_by_key(|r| r.flow);
                v
            };
            &sorted
        };
        for &i in &self.live {
            let f = &mut self.flows[i as usize];
            let end = rates.partition_point(|r| r.flow <= f.spec.flow);
            f.rate = match rates[..end].last() {
                Some(r) if r.flow == f.spec.flow => Rate(r.rate),
                _ => Rate::ZERO,
            };
        }
    }

    /// Advances the emulated NIC to `now`, crediting each live flow
    /// `rate × elapsed` bytes. The credited interval is clamped per
    /// flow to `now - max(last_advance, ready_at)`: a flow whose data
    /// became ready mid-tick earns bytes only for the portion of the
    /// tick it was actually ready, instead of a full `dt` of
    /// pre-ready transfer.
    pub fn advance(&mut self, now: Time) {
        let last = self.last_advance;
        self.last_advance = now;
        self.activate(now);
        for &i in &self.live {
            let f = &mut self.flows[i as usize];
            if f.rate.is_zero() || f.sent >= f.spec.size || now < f.spec.ready_at {
                continue;
            }
            let dt = now.saturating_since(last.max(f.spec.ready_at));
            f.sent = (f.sent + bytes_in(f.rate, dt)).min(f.spec.size);
        }
    }

    /// Whether a δ-interval stats report is due at `now`: the interval
    /// has passed (or nothing was reported yet) and there is something
    /// to say. An agent whose flows are all waiting or retired is never
    /// due, so it neither sends empty frames — a multiplexed host of
    /// 100k mostly-idle agents must not flood the coordinator — nor
    /// counts as a parked writer; its first live flow makes it due at
    /// once if it has never reported.
    pub fn stats_due(&self, now: Time) -> bool {
        (!self.live.is_empty() || self.activation_pending(now))
            && match self.last_report {
                None => true,
                Some(t) => now.saturating_since(t) >= self.delta,
            }
    }

    /// Builds the δ-interval stats report — every live flow — or `None`
    /// when none is due. A flow the report shows finished is retired by
    /// it: call this only when the report can be handed to the link (a
    /// parked writer asks [`AgentCore::stats_due`] and waits), because
    /// no later report repeats the finish unless the observer asks
    /// ([`AgentCore::resync`]).
    pub fn take_stats(&mut self, now: Time) -> Option<Message> {
        if !self.stats_due(now) {
            return None;
        }
        self.activate(now);
        let mut stats = Vec::with_capacity(self.live.len());
        let flows = &self.flows;
        self.live.retain(|&i| {
            let f = &flows[i as usize];
            let finished = f.sent >= f.spec.size;
            stats.push(FlowStat {
                flow: f.spec.flow,
                sent: f.sent.as_u64(),
                finished,
                ready: f.spec.ready_at <= now,
            });
            !finished
        });
        self.last_report = Some(now);
        Some(Message::Stats {
            node: self.node,
            now_ns: now.as_nanos(),
            flows: stats,
        })
    }

    /// Re-arms the retired flows for one full report, due at once: what
    /// an observer that has lost its history (a restarted coordinator,
    /// [`Message::Hello`]) needs to rebuild it. The report is the next
    /// [`AgentCore::take_stats`]; it retires them again.
    pub fn resync(&mut self) {
        self.live.clear();
        self.live.extend(0..self.activated as u32);
        self.last_report = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::EmuClock;
    use crate::host::run_agent_host;
    use crate::transport::{inproc_pair, InProcTransport, Transport, TransportError};

    /// Runs `node` owning `flow` as a one-agent host on its own thread
    /// (sim δ 400 ms, tick 100 ms); joins to the agent's applied epochs.
    fn spawn_agent(
        node: u32,
        flow: AgentFlow,
        link: InProcTransport,
        clock: EmuClock,
    ) -> std::thread::JoinHandle<Result<Vec<u64>, TransportError>> {
        std::thread::spawn(move || {
            run_agent_host(
                0,
                vec![(node, vec![flow])],
                Box::new(link),
                clock,
                Duration::from_millis(400),
                Duration::from_millis(100),
                None,
            )
        })
    }

    /// Drives a one-flow agent through a full lifecycle from the
    /// coordinator's side of the transport.
    #[test]
    fn agent_sends_at_the_assigned_rate_and_reports() {
        let (coord_side, agent_side) = inproc_pair(64);
        let clock = EmuClock::start(100); // 100× wall: sim δ = 4 ms wall
        let flow = AgentFlow {
            flow: 7,
            size: Bytes::mb(50),
            activate_at: Time::ZERO,
            ready_at: Time::ZERO,
        };
        let handle = spawn_agent(3, flow, agent_side, clock.clone());

        let mut coord: Box<dyn Transport> = Box::new(coord_side);
        // Hello first.
        let hello = coord
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap()
            .unwrap();
        assert_eq!(hello, Message::Hello { node: 3 });

        // Give the flow 1 Gbps (sim): 50 MB takes 0.4 sim-s = 4 wall-ms.
        coord
            .send(&Message::Schedule {
                epoch: 1,
                rates: vec![RateAssignment {
                    flow: 7,
                    rate: 125_000_000,
                }],
            })
            .unwrap();

        // Wait for a stats report that shows completion.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut finished = false;
        let mut last_sent = 0;
        while std::time::Instant::now() < deadline && !finished {
            if let Some(Message::Stats { node, flows, .. }) = coord
                .recv_timeout(std::time::Duration::from_millis(200))
                .unwrap()
            {
                assert_eq!(node, 3);
                if let Some(st) = flows.iter().find(|f| f.flow == 7) {
                    assert!(st.sent >= last_sent, "sent must be monotone");
                    assert!(st.sent <= Bytes::mb(50).as_u64(), "overshoot");
                    last_sent = st.sent;
                    finished = st.finished;
                }
            }
        }
        assert!(finished, "flow never finished (sent {last_sent})");

        coord.send(&Message::Shutdown).unwrap();
        let epochs = handle.join().unwrap().unwrap();
        assert!(epochs[0] >= 1);
    }

    #[test]
    fn unready_flows_do_not_send_and_stale_epochs_are_ignored() {
        let (coord_side, agent_side) = inproc_pair(64);
        let clock = EmuClock::start(100);
        let flow = AgentFlow {
            flow: 1,
            size: Bytes::mb(10),
            activate_at: Time::ZERO,
            // Data not ready for 1000 simulated seconds (10 wall s —
            // far beyond this test's observation window).
            ready_at: Time::from_secs(1000),
        };
        let handle = spawn_agent(0, flow, agent_side, clock.clone());
        let mut coord: Box<dyn Transport> = Box::new(coord_side);
        let _hello = coord
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap();

        // Assign a rate with epoch 5, then a *stale* epoch-3 push that
        // would zero it; the agent must keep epoch 5's view... and in
        // either case, send nothing (data not ready).
        coord
            .send(&Message::Schedule {
                epoch: 5,
                rates: vec![RateAssignment {
                    flow: 1,
                    rate: 125_000_000,
                }],
            })
            .unwrap();
        coord
            .send(&Message::Schedule {
                epoch: 3,
                rates: vec![],
            })
            .unwrap();

        std::thread::sleep(std::time::Duration::from_millis(50));
        // Observe stats for a bounded window (the agent reports every
        // few wall-ms, so an unbounded drain would never end).
        let mut sent = None;
        let until = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while std::time::Instant::now() < until {
            if let Some(Message::Stats { flows, .. }) = coord
                .recv_timeout(std::time::Duration::from_millis(20))
                .unwrap()
            {
                if let Some(st) = flows.iter().find(|f| f.flow == 1) {
                    assert!(!st.ready, "flow reported ready far too early");
                    sent = Some(st.sent);
                }
            }
        }
        assert_eq!(sent, Some(0), "unready flow must not send");
        coord.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A retransmitted push of the *same* epoch must be a no-op: the
    /// agent applies it once and `epochs_applied` counts it once.
    #[test]
    fn duplicate_epoch_pushes_are_applied_once() {
        let (coord_side, agent_side) = inproc_pair(64);
        let clock = EmuClock::start(100);
        let flow = AgentFlow {
            flow: 2,
            size: Bytes::mb(10),
            activate_at: Time::ZERO,
            ready_at: Time::ZERO,
        };
        let handle = spawn_agent(1, flow, agent_side, clock.clone());
        let mut coord: Box<dyn Transport> = Box::new(coord_side);
        let _hello = coord
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap();

        // Push epoch 1 three times (a retransmitted push), then a
        // genuinely new epoch 2.
        let push = Message::Schedule {
            epoch: 1,
            rates: vec![RateAssignment {
                flow: 2,
                rate: 125_000_000,
            }],
        };
        coord.send(&push).unwrap();
        coord.send(&push).unwrap();
        coord.send(&push).unwrap();
        coord
            .send(&Message::Schedule {
                epoch: 2,
                rates: vec![RateAssignment {
                    flow: 2,
                    rate: 250_000_000,
                }],
            })
            .unwrap();

        // Let the agent drain all four pushes before shutting down.
        std::thread::sleep(std::time::Duration::from_millis(100));
        coord.send(&Message::Shutdown).unwrap();
        let epochs = handle.join().unwrap().unwrap();
        assert_eq!(epochs, [2], "duplicates must not inflate epochs_applied");
    }

    /// Regression (NIC credit clamp): a flow whose `ready_at` falls
    /// mid-tick must be credited only `now - ready_at`, not the full
    /// `now - last_advance`. The old code overshot by up to one tick
    /// of pre-ready transfer.
    #[test]
    fn mid_tick_ready_at_is_not_credited_before_readiness() {
        let flow = AgentFlow {
            flow: 0,
            size: Bytes::mb(100),
            activate_at: Time::ZERO,
            ready_at: Time::from_millis(500),
        };
        let mut core = AgentCore::new(0, vec![flow], Duration::from_millis(400), Time::ZERO);
        // 1 Gbps = 125 MB/s.
        assert!(!core.on_message(
            &Message::Schedule {
                epoch: 1,
                rates: vec![RateAssignment {
                    flow: 0,
                    rate: 125_000_000,
                }],
            },
            None,
        ));

        // A tick entirely before readiness credits nothing.
        core.advance(Time::from_millis(300));
        let report = core.take_stats(Time::from_millis(300)).unwrap();
        let sent_at = |m: &Message| match m {
            Message::Stats { flows, .. } => flows[0].sent,
            _ => unreachable!(),
        };
        assert_eq!(sent_at(&report), 0, "credited before ready_at");

        // The tick spanning ready_at (300 ms → 1000 ms) credits only
        // the ready half-second: 125 MB/s × 0.5 s = 62.5 MB, not the
        // full 0.7 s (87.5 MB) the unclamped code charged.
        core.advance(Time::from_millis(1000));
        let report = core.take_stats(Time::from_millis(1000)).unwrap();
        assert_eq!(
            sent_at(&report),
            62_500_000,
            "mid-tick ready_at must clamp the credited interval"
        );
    }

    /// Regression (startup stats flood): with the emulated clock still
    /// at zero, every loop iteration used to re-trigger the "never
    /// reported" condition (`last_report == Time::ZERO`) and re-send
    /// stats. The first report must happen exactly once, which
    /// `TransportStats.frames_sent` makes observable.
    #[test]
    fn first_report_at_time_zero_happens_once() {
        let (mut agent_side, _coord_side) = inproc_pair(64);
        let flow = AgentFlow {
            flow: 0,
            size: Bytes::mb(1),
            activate_at: Time::ZERO,
            ready_at: Time::ZERO,
        };
        let mut core = AgentCore::new(4, vec![flow], Duration::from_millis(400), Time::ZERO);
        agent_side.send(&core.hello()).unwrap();
        // Five loop iterations with the clock pinned at zero: only the
        // first may produce a report.
        for _ in 0..5 {
            core.advance(Time::ZERO);
            if let Some(report) = core.take_stats(Time::ZERO) {
                agent_side.send(&report).unwrap();
            }
        }
        assert_eq!(
            agent_side.stats().frames_sent,
            2,
            "hello + exactly one report while the clock sits at zero"
        );
        // Once δ passes, the next report goes out.
        assert!(core.stats_due(Time::from_millis(400)));
        assert!(core.take_stats(Time::from_millis(400)).is_some());
    }

    /// An agent with no activated flows has nothing to say: reports
    /// are withheld (not sent empty), and the first contentful report
    /// goes out as soon as a flow activates.
    #[test]
    fn empty_reports_are_withheld_until_a_flow_activates() {
        let flow = AgentFlow {
            flow: 3,
            size: Bytes::mb(1),
            activate_at: Time::from_secs(5),
            ready_at: Time::from_secs(5),
        };
        let mut core = AgentCore::new(1, vec![flow], Duration::from_millis(400), Time::ZERO);
        assert!(core.take_stats(Time::from_millis(100)).is_none());
        assert!(core.take_stats(Time::from_secs(4)).is_none());
        // Activation: the report goes out immediately, not at the next
        // δ boundary.
        let m = core.take_stats(Time::from_secs(5)).expect("first report");
        match m {
            Message::Stats { flows, .. } => assert_eq!(flows.len(), 1),
            _ => unreachable!(),
        }
    }

    fn flow(flow: u32, size: Bytes) -> AgentFlow {
        AgentFlow {
            flow,
            size,
            activate_at: Time::ZERO,
            ready_at: Time::ZERO,
        }
    }

    fn push(epoch: u64, rates: &[(u32, u64)]) -> Message {
        Message::Schedule {
            epoch,
            rates: rates
                .iter()
                .map(|&(flow, rate)| RateAssignment { flow, rate })
                .collect(),
        }
    }

    /// The `(flow, sent, finished)` entries of a report.
    fn entries(report: Option<Message>) -> Vec<(u32, u64, bool)> {
        match report {
            Some(Message::Stats { flows, .. }) => {
                flows.iter().map(|f| (f.flow, f.sent, f.finished)).collect()
            }
            None => Vec::new(),
            other => panic!("not a report: {other:?}"),
        }
    }

    /// A flow is reported while it is unfinished, its finish is carried
    /// by exactly one report, and from then on it is out of the report,
    /// out of `advance`'s scan and out of the apply scan.
    #[test]
    fn a_finish_is_reported_once_and_retires_the_flow() {
        let delta = Duration::from_millis(400);
        let mut core = AgentCore::new(
            0,
            vec![flow(4, Bytes(1_000)), flow(7, Bytes(1_000_000))],
            delta,
            Time::ZERO,
        );
        core.on_message(&push(1, &[(4, 10_000), (7, 1_000)]), None);
        let at = |k: u64| Time::from_millis(400 * k);

        core.advance(at(1)); // 0.4 s: flow 4 is through, flow 7 has 400 B.
        assert_eq!(
            entries(core.take_stats(at(1))),
            [(4, 1_000, true), (7, 400, false)]
        );
        assert_eq!(core.live.len(), 1, "flow 4 must leave the live set");
        for k in 2..6 {
            // A late rate for the retired flow changes nothing.
            core.on_message(&push(k, &[(4, 10_000), (7, 1_000)]), None);
            core.advance(at(k));
            assert_eq!(entries(core.take_stats(at(k))), [(7, 400 * k, false)]);
        }
        let retired = core.flows.iter().find(|f| f.spec.flow == 4).unwrap();
        assert_eq!((retired.sent, retired.rate), (Bytes(1_000), Rate(10_000)));

        // Once its last flow has retired the agent has nothing to say.
        core.on_message(&push(6, &[(7, 10_000_000)]), None);
        core.advance(at(6));
        assert_eq!(entries(core.take_stats(at(6))), [(7, 1_000_000, true)]);
        core.advance(at(7));
        assert!(!core.stats_due(at(7)) && core.take_stats(at(7)).is_none());
        assert!(core.live.is_empty());
    }

    /// A resync is one full report, due at once, and then deltas again.
    #[test]
    fn resync_yields_one_full_report_then_deltas() {
        let delta = Duration::from_millis(400);
        let mut later = flow(9, Bytes(500));
        later.activate_at = Time::from_secs(100);
        later.ready_at = Time::from_secs(100);
        let mut core = AgentCore::new(
            2,
            vec![flow(1, Bytes(100)), flow(3, Bytes(1_000_000)), later],
            delta,
            Time::ZERO,
        );
        core.on_message(&push(1, &[(1, 1_000), (3, 1_000)]), None);
        core.advance(Time::from_millis(400));
        assert_eq!(
            entries(core.take_stats(Time::from_millis(400))),
            [(1, 100, true), (3, 400, false)]
        );

        // Mid-interval: nothing is due — until the observer asks.
        let t = Time::from_millis(500);
        core.advance(t);
        assert!(core.take_stats(t).is_none());
        core.resync();
        assert!(core.stats_due(t), "a resync is due at once");
        assert_eq!(
            entries(core.take_stats(t)),
            [(1, 100, true), (3, 500, false)],
            "every activated flow, the retired one included; flow 9 has not arrived"
        );
        // Back to deltas, on the δ cadence counted from the resync.
        core.advance(Time::from_millis(800));
        assert!(core.take_stats(Time::from_millis(800)).is_none());
        core.advance(Time::from_millis(900));
        assert_eq!(
            entries(core.take_stats(Time::from_millis(900))),
            [(3, 900, false)]
        );
    }

    /// A link that reports a write queue of `queued` bytes and keeps
    /// what it is sent.
    struct StalledLink {
        queued: usize,
        sent: Vec<Message>,
    }

    impl Transport for StalledLink {
        fn send(&mut self, m: &Message) -> Result<(), TransportError> {
            self.sent.push(m.clone());
            Ok(())
        }
        fn recv_timeout(
            &mut self,
            _: std::time::Duration,
        ) -> Result<Option<Message>, TransportError> {
            Ok(None)
        }
        fn queued_bytes(&self) -> usize {
            self.queued
        }
    }

    /// The finish rides on the first report actually handed to the
    /// link: a writer parked over the high-water mark builds none, so
    /// it loses none.
    #[test]
    fn a_parked_report_still_carries_the_finish() {
        use crate::host::{report_wave, WRITE_HIGH_WATER};
        let mut cores = vec![AgentCore::new(
            0,
            vec![flow(5, Bytes(1_000))],
            Duration::from_millis(400),
            Time::ZERO,
        )];
        cores[0].on_message(&push(1, &[(5, 10_000)]), None);
        let mut link = StalledLink {
            queued: WRITE_HIGH_WATER + 1,
            sent: Vec::new(),
        };
        // The flow finishes while the peer is stalled: two waves parked.
        for k in 1..=2 {
            let parked = report_wave(&mut cores, &mut link, Time::from_millis(400 * k)).unwrap();
            assert_eq!((parked, link.sent.len()), (1, 0));
        }
        // The peer drains: the deferred report leaves, finish and all.
        link.queued = 0;
        let parked = report_wave(&mut cores, &mut link, Time::from_millis(1200)).unwrap();
        assert_eq!(parked, 0);
        assert_eq!(entries(link.sent.pop()), [(5, 1_000, true)]);
        // And only once.
        report_wave(&mut cores, &mut link, Time::from_millis(1600)).unwrap();
        assert!(link.sent.is_empty());
    }

    /// What a push means does not depend on its order: a flow gets the
    /// last rate the push lists for it, a flow it does not list pauses,
    /// an id the agent does not own is ignored — given to `on_message`
    /// as it came off the wire, or through the host, which sorts it.
    #[test]
    fn unsorted_duplicate_and_unknown_ids_apply_as_listed() {
        let flows = || {
            vec![
                flow(3, Bytes::mb(1)),
                flow(5, Bytes::mb(1)),
                flow(9, Bytes::mb(1)),
            ]
        };
        let delta = Duration::from_millis(400);
        let first = push(1, &[(3, 1_000), (5, 1_000), (9, 1_000)]);
        // Flow 5 twice (70 is the later), flow 3 absent, 42 and 4 unknown.
        let second = push(2, &[(9, 100), (5, 50), (42, 7), (5, 70), (4, 1)]);
        let sent_after = |via_host: bool| {
            let mut cores = vec![AgentCore::new(0, flows(), delta, Time::ZERO)];
            for mut m in [first.clone(), second.clone()] {
                if via_host {
                    crate::host::deliver(&mut m, &mut cores, Time::ZERO, None);
                } else {
                    cores[0].on_message(&m, None);
                }
            }
            cores[0].advance(Time::from_secs(1));
            entries(cores[0].take_stats(Time::from_secs(1)))
        };
        let want = [(3, 0, false), (5, 70, false), (9, 100, false)];
        assert_eq!(sent_after(false), want);
        assert_eq!(sent_after(true), want);
    }
}
