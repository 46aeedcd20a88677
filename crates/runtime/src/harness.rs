//! The testbed-emulation harness: wires a coordinator and one agent per
//! node together over the chosen transport and replays a trace.

use crate::agent::AgentFlow;
use crate::clock::EmuClock;
use crate::coordinator::{run_coordinator, CoflowRegistry, CoordinatorConfig, CoordinatorReport};
use crate::host::run_agent_host;
use crate::metrics::{MetricsHub, MetricsServer};
use crate::proto::Message;
use crate::transport::{inproc_pair, TcpTransport, Transport};
use saath_core::view::CoflowScheduler;
use saath_simcore::{Duration, Time};
use saath_workload::Trace;
use std::sync::Arc;

/// Which wire the coordinator and agents use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Crossbeam channels (fast; the default for tests).
    InProc,
    /// Real framed TCP over loopback — the same code path a multi-host
    /// deployment would use.
    Tcp,
}

/// Emulation parameters.
#[derive(Clone, Debug)]
pub struct EmulationConfig {
    /// Simulated seconds per wall second.
    pub scale: u64,
    /// Coordination interval δ in *simulated* time. Coarser than the
    /// simulator's 8 ms because thread scheduling replaces the paper's
    /// dedicated machines; at the default `scale` 50 / `delta` 400 ms,
    /// the coordinator still wakes every 8 wall-milliseconds.
    pub delta: Duration,
    /// Agent NIC tick (simulated), ≤ δ. At `tick == δ` the schedule
    /// push is the tick: a host advances its NICs when a push wakes it,
    /// and by timer only after two silent ticks.
    pub tick: Duration,
    /// Transport between coordinator and agents.
    pub transport: TransportKind,
    /// Expose ground-truth sizes (clairvoyant policies).
    pub clairvoyant: bool,
    /// Kill and restart the coordinator's scheduler at this simulated
    /// time (failover drill).
    pub restart_coordinator_at: Option<Time>,
    /// Wall-clock watchdog for the whole emulation.
    pub wall_deadline: std::time::Duration,
    /// Serve live Prometheus metrics at this address for the duration
    /// of the emulation (e.g. `"127.0.0.1:9898"`, or port `0` for an
    /// ephemeral one). `None` (the default) disables the whole metrics
    /// plane — no hub, no server, no per-epoch bookkeeping.
    pub metrics_addr: Option<String>,
    /// Agents per host thread, `≥ 1`. The nodes run in
    /// `ceil(nodes / multiplex)` readiness-driven
    /// [`crate::host::run_agent_host`] event loops, each sharing one
    /// link to the coordinator. `1` (the default) is the paper's
    /// agent-per-machine wiring; larger values need `O(hosts)` threads
    /// and sockets instead of `O(nodes)`, which is what reaches 100k
    /// emulated ports. Coordinator records do not depend on it, up to
    /// wall-clock timestamp jitter.
    pub multiplex: usize,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            scale: 50,
            delta: Duration::from_millis(400),
            tick: Duration::from_millis(100),
            transport: TransportKind::InProc,
            clairvoyant: false,
            restart_coordinator_at: None,
            wall_deadline: std::time::Duration::from_secs(60),
            metrics_addr: None,
            multiplex: 1,
        }
    }
}

/// The emulation's outcome: coordinator-observed records plus agent
/// diagnostics.
pub struct EmulationReport {
    /// Per-CoFlow results (δ-granular timestamps, like a real testbed).
    pub coordinator: CoordinatorReport,
    /// Schedule epochs each agent applied.
    pub agent_epochs: Vec<u64>,
    /// The final Prometheus exposition page, when
    /// [`EmulationConfig::metrics_addr`] was set — the same text the
    /// live `/metrics` endpoint served, rendered once more after the
    /// run so callers can dump it to a file.
    pub metrics: Option<String>,
}

type Links = Vec<Box<dyn Transport>>;

/// Builds `n` connected transport pairs of the requested kind. The
/// first vector holds the coordinator sides, the second the host
/// sides, index-aligned. `capacity` bounds the
/// in-process channels (ignored for TCP); host links scale it with
/// the number of agents they multiplex.
///
/// TCP links are identified by a wiring-time `Hello { node: i }` each
/// connector sends first, consumed by [`accept_identified`] — **not**
/// by accept order, which loopback does not guarantee to match the
/// connector spawn order.
fn link_pairs(kind: TransportKind, n: usize, capacity: usize) -> (Links, Links) {
    let mut near: Links = Vec::with_capacity(n);
    let mut far: Links = Vec::with_capacity(n);
    match kind {
        TransportKind::InProc => {
            for _ in 0..n {
                let (c, a) = inproc_pair(capacity);
                near.push(Box::new(c));
                far.push(Box::new(a));
            }
        }
        TransportKind::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let connectors: Vec<_> = (0..n)
                .map(|i| {
                    std::thread::spawn(move || {
                        let mut t = TcpTransport::connect(&addr.to_string()).expect("connect");
                        t.send(&Message::Hello { node: i as u32 })
                            .expect("identify link");
                        t
                    })
                })
                .collect();
            near = accept_identified(&listener, n);
            for c in connectors {
                far.push(Box::new(c.join().expect("peer connect")));
            }
        }
    }
    (near, far)
}

/// Accepts `n` connections and slots each by the identifying
/// `Hello { node }` it sends first, returning links index-aligned
/// with the connectors' declared identities regardless of the order
/// the OS surfaced the connections. The wiring hello is consumed
/// here; it is not part of the link's application traffic.
fn accept_identified(listener: &std::net::TcpListener, n: usize) -> Links {
    let mut slots: Vec<Option<Box<dyn Transport>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (stream, _) = listener.accept().expect("accept");
        let mut t = TcpTransport::new(stream).expect("wrap");
        let hello = t
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("read identifying hello")
            .expect("peer sent nothing within the wiring deadline");
        match hello {
            Message::Hello { node } => {
                let i = node as usize;
                assert!(i < n, "link identity {i} out of range (n = {n})");
                assert!(slots[i].is_none(), "duplicate link identity {i}");
                slots[i] = Some(Box::new(t));
            }
            other => panic!("expected identifying Hello, got {other:?}"),
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every identity seen exactly once"))
        .collect()
}

/// The flows each node's agent owns — a flow belongs to its sender —
/// under the registry's dense ids (flows numbered in trace order).
fn agent_flows(trace: &Trace) -> Vec<Vec<AgentFlow>> {
    let mut per_node: Vec<Vec<AgentFlow>> = vec![Vec::new(); trace.num_nodes];
    let mut next = 0u32;
    for c in &trace.coflows {
        for f in &c.flows {
            per_node[f.src.index()].push(AgentFlow {
                flow: next,
                size: f.size,
                activate_at: c.arrival,
                ready_at: c.arrival + f.available_after,
            });
            next += 1;
        }
    }
    per_node
}

/// Replays `trace` on an emulated cluster: one agent per node on
/// `ceil(nodes / cfg.multiplex)` host threads, the coordinator on the
/// calling thread.
pub fn emulate(
    trace: &Trace,
    make_sched: &(dyn Fn() -> Box<dyn CoflowScheduler> + Sync),
    cfg: &EmulationConfig,
) -> EmulationReport {
    trace.validate().expect("invalid trace");
    assert!(
        cfg.multiplex >= 1,
        "multiplex (agents per host) must be at least 1"
    );

    let per_node = agent_flows(trace);
    let registry = CoflowRegistry::from_trace(trace);
    let clock = EmuClock::start(cfg.scale);

    // Optional live metrics plane: one hub shared by the coordinator
    // and the agents, served over HTTP for the run's duration.
    let hub = cfg
        .metrics_addr
        .as_ref()
        .map(|_| Arc::new(MetricsHub::new()));
    let mut server = match (&cfg.metrics_addr, &hub) {
        (Some(addr), Some(h)) => {
            let s = MetricsServer::serve(addr, Arc::clone(h)).expect("bind metrics endpoint");
            // Resolve port 0 for the user — they can only curl the
            // endpoint if they learn the ephemeral port during the run.
            eprintln!("metrics: serving http://{}/metrics", s.addr());
            Some(s)
        }
        _ => None,
    };

    // Wire transports and launch agents: `ceil(nodes / multiplex)`
    // host threads, each driving `multiplex` agents over one shared
    // link. Every handle yields the epochs of the agents it drove, in
    // node order.
    let per_host = cfg.multiplex;
    let hosts = trace.num_nodes.div_ceil(per_host);
    // A host link carries every hosted agent's frames; give the
    // in-process variant room for a full δ wave from each.
    let (mut coord_sides, host_sides) = link_pairs(cfg.transport, hosts, (4 * per_host).max(1024));
    let mut handles: Vec<std::thread::JoinHandle<Vec<u64>>> = Vec::new();
    let mut nodes = per_node.into_iter().enumerate();
    for (host, transport) in host_sides.into_iter().enumerate() {
        let agents: Vec<(u32, Vec<AgentFlow>)> = nodes
            .by_ref()
            .take(per_host)
            .map(|(node, flows)| (node as u32, flows))
            .collect();
        let hosted = agents.len();
        let clock = clock.clone();
        let delta = cfg.delta;
        let tick = cfg.tick;
        let hub = hub.clone();
        handles.push(std::thread::spawn(move || {
            run_agent_host(host, agents, transport, clock, delta, tick, hub)
                .unwrap_or_else(|_| vec![0; hosted])
        }));
    }

    // Run the coordinator here.
    let coordinator = run_coordinator(
        &registry,
        make_sched,
        &mut coord_sides,
        &clock,
        &CoordinatorConfig {
            delta: cfg.delta,
            clairvoyant: cfg.clairvoyant,
            restart_at: cfg.restart_coordinator_at,
            wall_deadline: cfg.wall_deadline,
        },
        hub.as_deref(),
    );

    // Agents exit on Shutdown (sent by the coordinator) or disconnect.
    drop(coord_sides);
    let agent_epochs: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("agent panicked"))
        .collect();

    // Render the final page after every writer has exited, then stop
    // the endpoint.
    let metrics = hub.as_ref().map(|h| h.render());
    if let Some(s) = server.as_mut() {
        s.shutdown();
    }

    EmulationReport {
        coordinator,
        agent_epochs,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_core::{Aalo, Saath};
    use saath_simcore::{Bytes, CoflowId, NodeId, Rate};
    use saath_workload::{CoflowSpec, FlowSpec};

    fn small_trace(n_coflows: usize) -> Trace {
        // A deterministic mesh on 6 nodes; sizes a few MB so an
        // emulation at scale 50 finishes in well under a second of
        // wall time per coflow batch.
        let mut coflows = Vec::new();
        for i in 0..n_coflows {
            let src = (i % 3) as u32;
            let dst = 3 + (i % 3) as u32;
            coflows.push(CoflowSpec::new(
                CoflowId(i as u32),
                Time::from_millis(200 * i as u64),
                vec![
                    FlowSpec::new(NodeId(src), NodeId(dst), Bytes::mb(20)),
                    FlowSpec::new(NodeId((src + 1) % 3), NodeId(dst), Bytes::mb(20)),
                ],
            ));
        }
        Trace {
            num_nodes: 6,
            port_rate: Rate::gbps(1),
            coflows,
        }
    }

    #[test]
    fn inproc_emulation_completes_all_coflows() {
        let trace = small_trace(6);
        let report = emulate(
            &trace,
            &|| Box::new(Saath::with_defaults()),
            &EmulationConfig::default(),
        );
        assert!(!report.coordinator.timed_out, "emulation timed out");
        assert_eq!(report.coordinator.records.len(), 6);
        assert!(report.coordinator.epochs > 0);
        // Every agent that owned flows applied at least one schedule.
        assert!(report.agent_epochs.iter().take(3).all(|&e| e > 0));
        // CCTs are positive and bounded by the emulated horizon.
        for r in &report.coordinator.records {
            let cct = r.cct().as_secs_f64();
            assert!(cct > 0.0 && cct < 120.0, "cct {cct}");
        }
    }

    #[test]
    fn tcp_emulation_matches_inproc_shape() {
        let trace = small_trace(4);
        let cfg = EmulationConfig {
            transport: TransportKind::Tcp,
            ..Default::default()
        };
        let report = emulate(&trace, &|| Box::new(Aalo::with_defaults()), &cfg);
        assert!(!report.coordinator.timed_out);
        assert_eq!(report.coordinator.records.len(), 4);
    }

    /// The live metrics plane during a TCP emulation: `/metrics` must
    /// be fetchable and parseable mid-run, and the final report must
    /// carry the same families.
    #[test]
    fn tcp_emulation_serves_live_metrics() {
        use std::io::{Read as _, Write as _};

        // Arrivals spread over 8 simulated seconds (160 ms of wall):
        // long enough for a fetch to land mid-run.
        let trace = small_trace(40);
        // emulate() blocks this thread, so the mid-run fetch comes from
        // a helper thread — which needs to know the port up front.
        // Reserve an ephemeral one by bind-and-release.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let cfg = EmulationConfig {
            transport: TransportKind::Tcp,
            metrics_addr: Some(addr.to_string()),
            ..Default::default()
        };

        let fetcher = std::thread::spawn(move || {
            // Poll until the run is far enough along that the page has
            // content; bounded so a broken server cannot hang the test.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut last = String::new();
            while std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let Ok(mut s) = std::net::TcpStream::connect(addr) else {
                    continue;
                };
                if write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").is_err() {
                    continue;
                }
                let mut page = String::new();
                if s.read_to_string(&mut page).is_err() {
                    continue;
                }
                if page.contains("saath_coord_epochs_total") {
                    last = page;
                    break;
                }
            }
            last
        });

        let report = emulate(&trace, &|| Box::new(Saath::with_defaults()), &cfg);
        let live_page = fetcher.join().unwrap();

        assert!(!report.coordinator.timed_out);
        assert_eq!(report.coordinator.records.len(), 40);
        assert!(
            live_page.starts_with("HTTP/1.1 200 OK"),
            "mid-run /metrics fetch failed: {live_page:?}"
        );
        assert!(live_page.contains("# TYPE saath_coord_epochs_total counter"));

        // Every line of the exposition body must parse: comments, or
        // `name[{labels}] integer`.
        let final_page = report.metrics.expect("metrics_addr set");
        for line in final_page.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').unwrap_or((line, ""));
            assert!(
                value.parse::<u64>().is_ok(),
                "non-integer sample in exposition: {line}"
            );
        }
        assert!(final_page.contains("saath_transport_frames_sent_total{link=\"agent\"}"));
        assert!(final_page.contains("saath_active_coflows 0"));
        assert!(final_page.contains("saath_completed_coflows 40"));
        assert!(final_page.contains("saath_coord_stats_flows_total "));
        assert!(final_page.contains("saath_epoch_phase_ns_count{phase=\"coord_views\"}"));
        assert!(final_page.contains("saath_epoch_phase_ns_count{phase=\"coord_schedule\"}"));
        assert!(final_page.contains("saath_epoch_phase_ns_count{phase=\"agent_apply\"}"));
    }

    /// The epoch is attributed to its end: every δ sleep of an
    /// in-process run leaves one `coord_pace` sample, how late it woke.
    #[test]
    fn inproc_emulation_renders_the_pace_phase() {
        let cfg = EmulationConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        };
        assert!(matches!(cfg.transport, TransportKind::InProc));
        let report = emulate(&small_trace(4), &|| Box::new(Saath::with_defaults()), &cfg);
        assert!(!report.coordinator.timed_out);
        let page = report.metrics.expect("metrics_addr set");
        let paces = page
            .lines()
            .find_map(|l| l.strip_prefix("saath_epoch_phase_ns_count{phase=\"coord_pace\"} "))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no coord_pace count on the page:\n{page}"));
        // Every pushed epoch is followed by a sleep.
        assert!(
            paces > 0 && paces >= report.coordinator.epochs,
            "{paces} pace samples for {} epochs",
            report.coordinator.epochs
        );
    }

    /// A CoFlow with one flow that is through — reported finished, and
    /// never reported again — well before `late_ms`, when the data of
    /// its other flow turns up: whoever takes over in between learns of
    /// the first flow only by asking.
    fn straddler(id: u32, late_ms: u64) -> CoflowSpec {
        let mut late = FlowSpec::new(NodeId(4), NodeId(1), Bytes::mb(5));
        late.available_after = Duration::from_millis(late_ms);
        CoflowSpec::new(
            CoflowId(id),
            Time::ZERO,
            vec![FlowSpec::new(NodeId(3), NodeId(0), Bytes::mb(5)), late],
        )
    }

    #[test]
    fn coordinator_failover_recovers() {
        let mut trace = small_trace(6);
        trace.coflows.insert(0, straddler(6, 1500));
        let cfg = EmulationConfig {
            // Restart mid-replay (coflows span ~1.2 sim-seconds).
            restart_coordinator_at: Some(Time::from_millis(1000)),
            ..Default::default()
        };
        let report = emulate(&trace, &|| Box::new(Saath::with_defaults()), &cfg);
        assert!(report.coordinator.restarted, "failover never injected");
        // The successor starts without observations. CoFlow 6's first
        // flow finished, and was reported, before the restart: the run
        // only ends because a full wave followed it.
        assert!(!report.coordinator.timed_out);
        assert_eq!(
            report.coordinator.records.len(),
            7,
            "all CoFlows must survive a coordinator restart"
        );
        let straddled = &report.coordinator.records[6];
        assert!(
            straddled.flow_fcts[0] >= Duration::from_millis(1000),
            "its first flow is known finished {:?} after arrival: not from the wave after the restart",
            straddled.flow_fcts[0]
        );
    }

    /// Regression (accept-order wiring): loopback accept order is not
    /// guaranteed to match connector spawn order, so links must be
    /// slotted by their identifying `Hello`, not positionally. The
    /// connectors here arrive in *reverse* identity order on purpose;
    /// each accepted link must still land in its declared slot.
    #[test]
    fn tcp_links_are_identified_not_positionally_aligned() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n = 4usize;
        let connectors: Vec<_> = (0..n)
            .map(|i| {
                std::thread::spawn(move || {
                    // Identity 0 arrives last, identity n-1 first.
                    std::thread::sleep(std::time::Duration::from_millis(30 * (n - i) as u64));
                    let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
                    t.send(&Message::Hello { node: i as u32 }).unwrap();
                    // A distinguishing follow-up frame per identity.
                    t.send(&Message::Stats {
                        node: i as u32,
                        now_ns: i as u64,
                        flows: vec![],
                    })
                    .unwrap();
                    t
                })
            })
            .collect();
        let mut near = accept_identified(&listener, n);
        for (i, link) in near.iter_mut().enumerate() {
            let m = link
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap()
                .unwrap();
            match m {
                Message::Stats { node, .. } => {
                    assert_eq!(node as usize, i, "slot {i} is cross-wired");
                }
                other => panic!("expected the identity stats frame, got {other:?}"),
            }
        }
        for c in connectors {
            c.join().unwrap();
        }
    }

    /// The deterministic portion of a record set: ids, arrivals,
    /// widths, byte totals, and flow sizes. `finish`/`flow_fcts` are
    /// wall-clock-quantized (δ-granular real time) and differ run to
    /// run even between two threaded executions, so equivalence is
    /// asserted on everything the wiring can actually influence.
    fn deterministic_parts(
        records: &[saath_metrics::CoflowRecord],
    ) -> Vec<(CoflowId, Time, usize, Bytes, Vec<Bytes>)> {
        let mut parts: Vec<_> = records
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.arrival,
                    r.width,
                    r.total_bytes,
                    r.flow_sizes.clone(),
                )
            })
            .collect();
        // Completion order is wall-dependent; identity is not.
        parts.sort_by_key(|p| p.0);
        parts
    }

    /// The agents-per-host factor must be a pure wiring change: from
    /// one agent per thread to the whole cluster on one, over both
    /// transports (2 per host divides the 6 nodes evenly; 4 leaves
    /// hosts of 4 and 2), the coordinator's records keep the same
    /// deterministic fields and every node reports its own epochs.
    #[test]
    fn records_do_not_depend_on_the_multiplex_factor() {
        let trace = small_trace(6);
        let mut reference = None;
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            for multiplex in [1, 2, 4, trace.num_nodes] {
                let cfg = EmulationConfig {
                    transport,
                    multiplex,
                    ..Default::default()
                };
                let report = emulate(&trace, &|| Box::new(Saath::with_defaults()), &cfg);
                let what = format!("{transport:?}, {multiplex} agents per host");
                assert!(!report.coordinator.timed_out, "{what}: run hung");
                let parts = deterministic_parts(&report.coordinator.records);
                assert_eq!(parts.len(), 6, "{what}");
                assert_eq!(
                    &parts,
                    reference.get_or_insert_with(|| parts.clone()),
                    "{what}: the wiring changed the coordinator's records"
                );
                // One epoch count per *agent* (not per host), in node
                // order; the three sender nodes applied schedules.
                assert_eq!(report.agent_epochs.len(), 6, "{what}");
                assert!(report.agent_epochs.iter().take(3).all(|&e| e > 0), "{what}");
            }
        }
    }

    /// Over TCP the coordinator must keep the δ cadence whatever the
    /// wiring: with the whole cluster behind one link and agents
    /// ticking at δ/4 (epochs used to run 10-500 ms, chasing waves
    /// written one frame at a time), and with one link per node (every
    /// idle link used to cost a kernel timer wait per drain, 8 ms
    /// each). One long CoFlow keeps the coordinator scheduling from
    /// the first epoch to the last, so epochs can be held against
    /// wall ÷ δ.
    #[test]
    fn tcp_epochs_keep_the_delta_cadence() {
        let mut trace = small_trace(12);
        trace.num_nodes = 8;
        // 16 simulated seconds at line rate: 320 ms of wall, 40 epochs.
        let long = FlowSpec::new(NodeId(6), NodeId(7), Bytes::mb(2000));
        trace
            .coflows
            .insert(0, CoflowSpec::new(CoflowId(12), Time::ZERO, vec![long]));
        for multiplex in [trace.num_nodes, 1] {
            let cfg = EmulationConfig {
                transport: TransportKind::Tcp,
                multiplex,
                ..Default::default()
            };
            assert_eq!(cfg.tick * 4, cfg.delta, "finding 1's setting");
            let delta_wall = EmuClock::start(cfg.scale).to_wall(cfg.delta);
            // The suite's other tests share the cores, and a wake-up
            // they delay is an epoch lost: the cadence has to be met
            // by one replay in three. A per-epoch cost in the code
            // fails all three.
            let mut replays = Vec::new();
            let kept = (0..3).any(|_| {
                let t0 = std::time::Instant::now();
                let report = emulate(&trace, &|| Box::new(Saath::with_defaults()), &cfg);
                let due = t0.elapsed().as_secs_f64() / delta_wall.as_secs_f64();
                assert!(!report.coordinator.timed_out, "run hung");
                assert_eq!(report.coordinator.records.len(), 13);
                replays.push((report.coordinator.epochs, due.round()));
                report.coordinator.epochs as f64 >= 0.75 * due
            });
            assert!(
                kept,
                "{multiplex} agents per link: (epochs, epochs the wall clock had room for) = {replays:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "multiplex (agents per host) must be at least 1")]
    fn zero_agents_per_host_is_rejected() {
        let cfg = EmulationConfig {
            multiplex: 0,
            ..Default::default()
        };
        let _ = emulate(&small_trace(1), &|| Box::new(Saath::with_defaults()), &cfg);
    }

    #[test]
    #[should_panic(expected = "arrival-released traces only")]
    fn dag_traces_are_rejected() {
        let mut trace = small_trace(2);
        trace.coflows[1].deps = vec![CoflowId(0)];
        let _ = emulate(
            &trace,
            &|| Box::new(Saath::with_defaults()),
            &EmulationConfig::default(),
        );
    }

    /// What crossed a coordinator-side link: `(inbound, message)`.
    type Tape = Arc<std::sync::Mutex<Vec<(bool, Message)>>>;

    /// A link that records every message crossing it.
    struct Tap {
        inner: Box<dyn Transport>,
        tape: Tape,
    }

    impl Transport for Tap {
        fn send(&mut self, m: &Message) -> Result<(), crate::transport::TransportError> {
            self.tape.lock().unwrap().push((false, m.clone()));
            self.inner.send(m)
        }
        fn send_shared(
            &mut self,
            m: &Message,
            frame: &mut Option<Vec<u8>>,
        ) -> Result<(), crate::transport::TransportError> {
            self.tape.lock().unwrap().push((false, m.clone()));
            self.inner.send_shared(m, frame)
        }
        fn recv_timeout(
            &mut self,
            timeout: std::time::Duration,
        ) -> Result<Option<Message>, crate::transport::TransportError> {
            let got = self.inner.recv_timeout(timeout)?;
            if let Some(m) = &got {
                self.tape.lock().unwrap().push((true, m.clone()));
            }
            Ok(got)
        }
        fn stats(&self) -> crate::transport::TransportStats {
            self.inner.stats()
        }
    }

    /// `emulate`'s single-coordinator wiring — two host threads of
    /// three agents each — with every coordinator-side link tapped.
    /// Returns the report, the tape and the final metrics page.
    fn tapped_run(
        trace: &Trace,
        transport: TransportKind,
        restart_at: Option<Time>,
    ) -> (CoordinatorReport, Vec<(bool, Message)>, String) {
        let cfg = EmulationConfig::default();
        let clock = EmuClock::start(cfg.scale);
        let registry = CoflowRegistry::from_trace(trace);
        let hub = Arc::new(MetricsHub::new());
        let tape: Tape = Arc::default();
        let (coord_sides, host_sides) = link_pairs(transport, 2, 1024);
        let mut nodes = agent_flows(trace).into_iter().enumerate();
        let hosts: Vec<_> = host_sides
            .into_iter()
            .enumerate()
            .map(|(host, link)| {
                let agents = nodes
                    .by_ref()
                    .take(3)
                    .map(|(node, flows)| (node as u32, flows))
                    .collect();
                let (clock, hub) = (clock.clone(), Arc::clone(&hub));
                std::thread::spawn(move || {
                    run_agent_host(host, agents, link, clock, cfg.delta, cfg.tick, Some(hub))
                })
            })
            .collect();
        let mut tapped: Links = coord_sides
            .into_iter()
            .map(|inner| {
                let tape = Arc::clone(&tape);
                Box::new(Tap { inner, tape }) as Box<dyn Transport>
            })
            .collect();
        let report = run_coordinator(
            &registry,
            &|| Box::new(Saath::with_defaults()),
            &mut tapped,
            &clock,
            &CoordinatorConfig {
                delta: cfg.delta,
                clairvoyant: false,
                restart_at,
                wall_deadline: std::time::Duration::from_secs(30),
            },
            Some(&hub),
        );
        drop(tapped);
        for h in hosts {
            h.join().unwrap().unwrap();
        }
        let tape = std::mem::take(&mut *tape.lock().unwrap());
        (report, tape, hub.render())
    }

    /// Three waves of three CoFlows, 5 simulated seconds apart: each
    /// wave is long done when the next arrives. Flows 6w..6w+6 are
    /// wave w's; nodes 0-2 send two flows per wave each.
    fn three_waves() -> Trace {
        let mut trace = small_trace(9);
        for (i, c) in trace.coflows.iter_mut().enumerate() {
            c.arrival = Time::from_secs(5 * (i as u64 / 3));
        }
        trace
    }

    /// How often each flow was reported finished, by flow id.
    fn finishes_reported(tape: &[(bool, Message)], flows: usize) -> Vec<usize> {
        let mut finishes = vec![0; flows];
        for (inbound, m) in tape {
            if let (true, Message::Stats { flows, .. }) = (inbound, m) {
                for f in flows.iter().filter(|f| f.finished) {
                    finishes[f.flow as usize] += 1;
                }
            }
        }
        finishes
    }

    /// The stats plane is bounded by what is live, not by history:
    /// every flow's finish crosses the wire once, no report outgrows
    /// one wave's share of its node, the entries per δ fall back to
    /// nothing between waves, and the coordinator's counter counts
    /// exactly what crossed.
    fn stats_track_live_flows(transport: TransportKind) {
        let trace = three_waves();
        let (report, tape, page) = tapped_run(&trace, transport, None);
        assert!(!report.timed_out);
        assert_eq!(report.records.len(), 9);
        assert_eq!(finishes_reported(&tape, 18), [1; 18]);

        let delta = EmulationConfig::default().delta;
        // Entries per δ-wide bin of the agents' clocks.
        let mut per_bin = vec![0usize; 128];
        let mut entries = 0;
        for (inbound, m) in &tape {
            if let (true, Message::Stats { now_ns, flows, .. }) = (inbound, m) {
                assert!(
                    (1..=2).contains(&flows.len()),
                    "a node has two flows per wave, and empty reports stay home: {m:?}"
                );
                let bin = ((now_ns / delta.as_nanos()) as usize).min(127);
                per_bin[bin] += flows.len();
                entries += flows.len();
            }
        }
        for wave in 1..3u64 {
            let arrival = (Time::from_secs(5 * wave).as_nanos() / delta.as_nanos()) as usize;
            assert!(per_bin[arrival..arrival + 3].iter().any(|&n| n > 0));
            assert_eq!(
                per_bin[arrival - 2..arrival],
                [0, 0],
                "wave {wave} found the plane still busy with the last one: {per_bin:?}"
            );
        }
        assert!(
            page.contains(&format!("saath_coord_stats_flows_total {entries}\n")),
            "{entries} entries crossed:\n{page}"
        );
    }

    #[test]
    fn stats_track_live_flows_inproc() {
        stats_track_live_flows(TransportKind::InProc);
    }

    #[test]
    fn stats_track_live_flows_tcp() {
        stats_track_live_flows(TransportKind::Tcp);
    }

    /// A restarted coordinator says `Hello` on every link, and a full
    /// wave follows: the flows of the first wave, finished and retired
    /// long before, are reported finished a second time — and only
    /// they; the agents are back to deltas for everything after.
    #[test]
    fn resync_full_wave_follows_a_coordinator_restart() {
        let trace = three_waves();
        let restart_at = Time::from_millis(7500);
        let (report, tape, _) = tapped_run(&trace, TransportKind::InProc, Some(restart_at));
        assert!(report.restarted && !report.timed_out);
        assert_eq!(report.records.len(), 9);

        let hello = Message::Hello {
            node: crate::proto::COORDINATOR,
        };
        let hellos = tape.iter().filter(|(inbound, m)| !inbound && *m == hello);
        assert_eq!(hellos.count(), 2, "one per agent link");
        let finishes = finishes_reported(&tape, 18);
        assert_eq!(finishes[..6], [2; 6], "wave 0 was retired at the restart");
        assert_eq!(finishes[12..], [1; 6], "wave 2 arrived after it");
        assert!(finishes[6..12].iter().all(|n| (1..=2).contains(n)));
    }
}
