//! The agent driver: N emulated agents, one thread.
//!
//! [`run_agent_host`] drives N [`AgentCore`] state machines from a
//! single readiness-driven event loop over **one shared link** to the
//! coordinator. N = 1 is the paper's one-agent-per-machine wiring;
//! larger N keeps an emulation at `O(hosts)` threads and sockets
//! instead of `O(nodes)`, past OS-thread scale:
//!
//! 1. **Hello** — every hosted agent's handshake frame is queued at
//!    startup.
//! 2. **Apply-schedule** — inbound frames are drained nonblockingly;
//!    a schedule push is ordered by flow id once and handed to every
//!    hosted agent, which looks up its live flows in it (each core
//!    keeps its own strictly-newer-wins epoch guard): the apply costs
//!    the push plus the host's live flows, not agents × rates. A
//!    `Hello` from the coordinator side — a restarted coordinator —
//!    makes every agent re-arm one full report.
//! 3. **Advance-NIC** — each agent's token-bucket counters move to
//!    `now`. Crediting uses actually-elapsed time, so a host that
//!    falls behind its tick cadence stays byte-correct — it just
//!    ticks coarser.
//! 4. **Report-stats** — agents whose δ report is due enqueue it
//!    (an agent with no live flow has none: no frame), and the
//!    iteration's frames leave in **one flush** at its end
//!    (one `write(2)` per wave, not per frame). A queue over the
//!    high-water mark is flushed early; if it is still over, the
//!    writer is **parked**: the report is deferred — not built, so
//!    a finish it would carry is not lost — and retried once the peer
//!    drains. A stalled
//!    coordinator therefore back-pressures exactly the agents behind
//!    the stalled link and costs bounded memory, instead of blocking
//!    a thread per agent or queueing unboundedly.
//!
//! Between iterations the loop sleeps in `poll(2)` ([`crate::poll`])
//! on the link's socket, waking early on readability (a schedule
//! push), on writability when a flush is pending, or at the NIC tick
//! deadline otherwise (with `tick = δ` the push *is* the tick, and the
//! timer only the watchdog of a silent link: two ticks). Partial frames in either direction are already
//! resumable at the transport layer — a short read parks the frame in
//! the receive buffer, a short write parks the remainder in the send
//! queue — so no agent ever blocks the loop mid-frame. Over the
//! in-process transport (no file descriptor) the loop blocks in
//! `recv_timeout` with the tick as its budget, which is the same
//! cadence without the readiness wake-ups.

use crate::agent::{AgentCore, AgentFlow};
use crate::clock::EmuClock;
use crate::metrics::MetricsHub;
use crate::proto::Message;
use crate::transport::{Transport, TransportError};
use saath_simcore::{Duration, Time};
use saath_telemetry::prom::label_body;
use saath_telemetry::Phase;
use std::sync::Arc;

/// Outbound bytes a host link may queue before stats writers are
/// parked. One δ wave from a fully-loaded host is well under this, so
/// parking only engages when the peer actually stalls.
pub const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Applies one inbound frame to every hosted agent. Returns `true` on
/// [`Message::Shutdown`].
///
/// A schedule push is ordered by flow id here, once for the host, so
/// that each agent only looks its own live flows up in it: the apply
/// costs the push plus the host's live flows, not agents × rates. A
/// [`Message::Hello`] is a fresh observer asking for history — every
/// agent re-arms one full report.
pub(crate) fn deliver(
    m: &mut Message,
    cores: &mut [AgentCore],
    now: Time,
    hub: Option<&MetricsHub>,
) -> bool {
    match m {
        Message::Schedule { rates, .. } => {
            // One apply-span for the whole host, not one per agent.
            let _span = hub.map(|h| h.span(Phase::AgentApply));
            // Stable, so of several rates for one flow the last wins,
            // as it would applied in push order.
            rates.sort_by_key(|r| r.flow);
            for c in cores {
                // The push may name a CoFlow that arrived since the
                // last tick.
                c.activate(now);
                c.on_message(m, None);
            }
        }
        Message::Hello { .. } => cores.iter_mut().for_each(AgentCore::resync),
        _ => {}
    }
    matches!(m, Message::Shutdown)
}

/// Advances every NIC to `now`, queues the reports that are due and
/// hands the whole wave to the socket in one flush, so the coordinator
/// finds a complete wave rather than one frame per write. A queue over
/// [`WRITE_HIGH_WATER`] is flushed on the spot, and writers are parked
/// (their reports stay due) only if it is still over afterwards — the
/// peer really has stalled, and costs bounded memory. Returns the
/// number of writers parked.
pub(crate) fn report_wave(
    cores: &mut [AgentCore],
    link: &mut dyn Transport,
    now: Time,
) -> Result<u64, TransportError> {
    let mut parked = 0;
    for c in cores {
        c.advance(now);
        if !c.stats_due(now) {
            continue;
        }
        if link.queued_bytes() > WRITE_HIGH_WATER {
            link.try_flush()?;
            if link.queued_bytes() > WRITE_HIGH_WATER {
                parked += 1;
                continue;
            }
        }
        if let Some(report) = c.take_stats(now) {
            link.send(&report)?;
        }
    }
    link.try_flush()?;
    Ok(parked)
}

/// Runs `agents` — `(node, owned flows)` pairs — multiplexed on one
/// thread over one shared `link`, until the coordinator sends
/// [`Message::Shutdown`] or the link drops. Returns the schedule
/// epochs each agent applied, in the order the agents were given.
///
/// `host` labels this host's metrics series; with a `hub`, the loop
/// maintains `saath_host_agents`, `saath_host_ready_events_total`,
/// and `saath_host_parked_writers_total`.
#[allow(clippy::too_many_arguments)]
pub fn run_agent_host(
    host: usize,
    agents: Vec<(u32, Vec<AgentFlow>)>,
    mut link: Box<dyn Transport>,
    clock: EmuClock,
    delta: Duration,
    tick: Duration,
    hub: Option<Arc<MetricsHub>>,
) -> Result<Vec<u64>, TransportError> {
    link.set_nonblocking(true)?;
    let now0 = clock.now();
    let mut cores: Vec<AgentCore> = agents
        .into_iter()
        .map(|(node, flows)| AgentCore::new(node, flows, delta, now0))
        .collect();

    let labels = hub
        .is_some()
        .then(|| label_body(&[("host", &host.to_string())]));
    if let (Some(h), Some(l)) = (hub.as_deref(), labels.as_deref()) {
        h.set("saath_host_agents", l, cores.len() as u64);
    }

    let epochs = |cores: &[AgentCore]| cores.iter().map(AgentCore::epochs_applied).collect();

    for c in &cores {
        match link.send(&c.hello()) {
            Ok(()) => {}
            Err(TransportError::Disconnected) => return Ok(epochs(&cores)),
            Err(e) => return Err(e),
        }
    }

    // How long the loop sleeps when nothing arrives. With `tick < δ` the
    // NIC ticks between pushes. With `tick = δ` there is no tick to take
    // between two pushes — each push wakes the loop, which advances the
    // NIC and reports — and a timer of one tick would only race the
    // push it expects, a few hundred µs apart, deciding by who is
    // faster that period whether the new rates or the old ones are
    // credited for it. There the timer is the watchdog of a silent
    // link and gets a second tick.
    let idle_wall = clock.to_wall(if tick < delta { tick } else { tick * 2 });
    #[cfg(unix)]
    let fd = link.raw_fd();
    let mut ready_events: u64 = 0;
    let mut parked_writers: u64 = 0;

    loop {
        // Drain everything the link has buffered. A single socket
        // carries every hosted agent's traffic, so one wake-up may
        // deliver many frames.
        loop {
            match link.recv_timeout(std::time::Duration::ZERO) {
                Ok(Some(mut m)) => {
                    if deliver(&mut m, &mut cores, clock.now(), hub.as_deref()) {
                        // Best-effort: let a final stats wave out.
                        let _ = link.try_flush();
                        return Ok(epochs(&cores));
                    }
                }
                Ok(None) => break,
                Err(TransportError::Disconnected) => return Ok(epochs(&cores)),
                Err(e) => return Err(e),
            }
        }

        let parked_now = match report_wave(&mut cores, link.as_mut(), clock.now()) {
            Ok(parked) => parked,
            Err(TransportError::Disconnected) => return Ok(epochs(&cores)),
            Err(e) => return Err(e),
        };
        parked_writers += parked_now;
        if let (Some(h), Some(l)) = (hub.as_deref(), labels.as_deref()) {
            if parked_now > 0 {
                h.set("saath_host_parked_writers_total", l, parked_writers);
            }
        }

        // Sleep until the next tick — or earlier, on socket readiness.
        #[cfg(unix)]
        let waited_via_poll = if let Some(fd) = fd {
            let want_write = link.queued_bytes() > 0;
            match crate::poll::wait_fd(fd, want_write, idle_wall) {
                Ok(r) => {
                    if r.any() {
                        ready_events += 1;
                        if let (Some(h), Some(l)) = (hub.as_deref(), labels.as_deref()) {
                            h.set("saath_host_ready_events_total", l, ready_events);
                        }
                    }
                    // A hangup is not an exit by itself: the drain
                    // loop above will read the frames still buffered
                    // and then surface the disconnect.
                    true
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        } else {
            false
        };
        #[cfg(not(unix))]
        let waited_via_poll = false;

        if !waited_via_poll {
            // In-process link: the channel itself is the wake-up
            // source. The received frame is handled exactly like the
            // drain loop would.
            match link.recv_timeout(idle_wall) {
                Ok(Some(mut m)) => {
                    ready_events += 1;
                    if let (Some(h), Some(l)) = (hub.as_deref(), labels.as_deref()) {
                        h.set("saath_host_ready_events_total", l, ready_events);
                    }
                    if deliver(&mut m, &mut cores, clock.now(), hub.as_deref()) {
                        let _ = link.try_flush();
                        return Ok(epochs(&cores));
                    }
                }
                Ok(None) => {}
                Err(TransportError::Disconnected) => return Ok(epochs(&cores)),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FlowStat, RateAssignment};
    use crate::transport::inproc_pair;
    use saath_simcore::Bytes;

    /// One host, three agents, one shared in-process link: schedules
    /// fan out to every hosted agent, stats come back tagged per
    /// node, and shutdown returns one epoch count per agent.
    #[test]
    fn host_multiplexes_agents_over_one_link() {
        let (mut coord, host_side) = inproc_pair(1024);
        let clock = EmuClock::start(100);
        let agents: Vec<(u32, Vec<AgentFlow>)> = (0..3)
            .map(|n| {
                (
                    n,
                    vec![AgentFlow {
                        flow: n,
                        size: Bytes::mb(20),
                        activate_at: Time::ZERO,
                        ready_at: Time::ZERO,
                    }],
                )
            })
            .collect();
        let c2 = clock.clone();
        let handle = std::thread::spawn(move || {
            run_agent_host(
                0,
                agents,
                Box::new(host_side),
                c2,
                Duration::from_millis(400),
                Duration::from_millis(100),
                None,
            )
        });

        // All three hellos arrive on the single link.
        let mut hellos = Vec::new();
        for _ in 0..3 {
            match coord
                .recv_timeout(std::time::Duration::from_secs(2))
                .unwrap()
                .unwrap()
            {
                Message::Hello { node } => hellos.push(node),
                other => panic!("expected hello, got {other:?}"),
            }
        }
        hellos.sort_unstable();
        assert_eq!(hellos, vec![0, 1, 2]);

        // One push serves every hosted agent (1 Gbps each).
        coord
            .send(&Message::Schedule {
                epoch: 1,
                rates: (0..3)
                    .map(|f| RateAssignment {
                        flow: f,
                        rate: 125_000_000,
                    })
                    .collect(),
            })
            .unwrap();

        // Each agent finishes its 20 MB and reports under its own
        // node id over the shared link.
        let mut finished = std::collections::BTreeSet::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while finished.len() < 3 && std::time::Instant::now() < deadline {
            if let Some(Message::Stats { node, flows, .. }) = coord
                .recv_timeout(std::time::Duration::from_millis(100))
                .unwrap()
            {
                if flows.iter().any(|f: &FlowStat| f.finished) {
                    finished.insert(node);
                }
            }
        }
        assert_eq!(finished.len(), 3, "finished: {finished:?}");

        coord.send(&Message::Shutdown).unwrap();
        let epochs = handle.join().unwrap().unwrap();
        assert_eq!(epochs.len(), 3);
        assert!(epochs.iter().all(|&e| e >= 1), "epochs: {epochs:?}");
    }
}
