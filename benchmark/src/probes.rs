//! Layer probes: small timed loops over one layer's public functions,
//! on inputs shaped like the workload's own — the views a traced run
//! sampled, frames as large as its median schedule and stats report,
//! agents holding its flows. They run after the runs they describe.

use crate::recorder::Sample;
use crate::stats::median;
use saath::core::{ClusterView, CoflowScheduler, Saath, Schedule};
use saath::fabric::{gang_rate_with, madd_rates_into, FlowEndpoints, PortBank};
use saath::runtime::agent::{AgentCore, AgentFlow};
use saath::runtime::proto::{FlowStat, Message, RateAssignment};
use saath::runtime::transport::{inproc_pair, TcpTransport, Transport};
use saath::simcore::{Bytes, Duration, Rate, Time};
use saath::workload::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Flows each fabric kernel is run over per sampled view, at least.
const FABRIC_FLOWS_PER_SAMPLE: usize = 100_000;
/// Largest frame the single-threaded socket probes send: it must fit a
/// loopback socket buffer, or the blocking write would wait for a
/// reader that is the same thread.
const MAX_PROBE_RATES: usize = 4000;
/// Most bytes the socket probe queues before it reads them back.
const WAVE_BYTES: usize = 64 * 1024;

/// Replays each sampled view into one cold `Saath` with `changed: None`
/// — the full rebuild the runtime's coordinator pays every epoch — and
/// returns the time of each call in microseconds.
pub fn rebuild_us(samples: &[Sample], port_rate: Rate) -> Vec<f64> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let mut sched = Saath::with_defaults();
    let mut bank = PortBank::uniform(first.num_nodes, port_rate);
    let mut out = Schedule::default();
    samples
        .iter()
        .map(|s| {
            bank.reset_round();
            out.clear();
            let view = ClusterView {
                now: s.now,
                num_nodes: s.num_nodes,
                coflows: &s.coflows,
                changed: None,
            };
            let t = Instant::now();
            sched.compute(&view, &mut bank, &mut out);
            let us = t.elapsed().as_secs_f64() * 1e6;
            black_box(&out);
            us
        })
        .collect()
}

/// Nanoseconds and flows spent in the two fabric kernels.
#[derive(Default)]
pub struct FabricCost {
    pub madd_ns: f64,
    pub gang_ns: f64,
    pub flows: f64,
}

impl FabricCost {
    pub fn madd_ns_per_flow(&self) -> f64 {
        self.madd_ns / self.flows.max(1.0)
    }
    pub fn gang_ns_per_flow(&self) -> f64 {
        self.gang_ns / self.flows.max(1.0)
    }
}

/// Runs `gang_rate_with` and `madd_rates_into` over the unfinished
/// flows of every CoFlow of every sampled view, against a fresh bank.
/// `sizes` maps a flow id to its ground-truth size (MADD's input).
pub fn fabric_on_samples(
    samples: &[Sample],
    sizes: &[Bytes],
    port_rate: Rate,
    acc: &mut FabricCost,
) {
    for s in samples {
        let gangs: Vec<(Vec<FlowEndpoints>, Vec<Bytes>)> = s
            .coflows
            .iter()
            .map(|c| {
                c.unfinished()
                    .map(|f| {
                        let size = sizes.get(f.id.index()).copied().unwrap_or(f.sent);
                        (f.endpoints(s.num_nodes), size.saturating_sub(f.sent))
                    })
                    .unzip()
            })
            .collect();
        let flows: usize = gangs.iter().map(|(e, _)| e.len()).sum();
        if flows == 0 {
            continue;
        }
        let reps = FABRIC_FLOWS_PER_SAMPLE.div_ceil(flows);
        let bank = PortBank::uniform(s.num_nodes, port_rate);
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        let mut rates = Vec::new();

        let t = Instant::now();
        for _ in 0..reps {
            for (endpoints, _) in &gangs {
                black_box(gang_rate_with(&bank, endpoints, &mut scratch, &mut touched));
            }
        }
        acc.gang_ns += t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        for _ in 0..reps {
            for (endpoints, remaining) in &gangs {
                black_box(madd_rates_into(&bank, endpoints, remaining, &mut rates));
            }
        }
        acc.madd_ns += t.elapsed().as_nanos() as f64;
        acc.flows += (reps * flows) as f64;
    }
}

/// `PortBank::reset_round`, nanoseconds per port.
pub fn bank_reset_ns_per_port(num_nodes: usize, port_rate: Rate) -> f64 {
    const REPS: usize = 20_000;
    let mut bank = PortBank::uniform(num_nodes, port_rate);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(&mut bank).reset_round();
    }
    t.elapsed().as_nanos() as f64 / (REPS * bank.num_ports()) as f64
}

/// The frames the transport and codec probes move: a schedule with
/// `rates` assignments and a stats report on `flows` flows.
pub struct Frames {
    pub schedule: Message,
    pub stats: Message,
    rates: usize,
    flows: usize,
}

impl Frames {
    pub fn new(rates: usize, flows: usize) -> Frames {
        let rates = rates.clamp(1, MAX_PROBE_RATES);
        let flows = flows.clamp(1, MAX_PROBE_RATES);
        Frames {
            schedule: Message::Schedule {
                epoch: 1,
                rates: (0..rates as u32)
                    .map(|flow| RateAssignment {
                        flow,
                        rate: 125_000_000 / (1 + flow as u64 % 7),
                    })
                    .collect(),
            },
            stats: Message::Stats {
                node: 0,
                now_ns: 1_000_000_000,
                flows: (0..flows as u32)
                    .map(|flow| FlowStat {
                        flow,
                        sent: 1_000_000 + flow as u64,
                        finished: flow % 5 == 0,
                        ready: true,
                    })
                    .collect(),
            },
            rates,
            flows,
        }
    }
}

/// Codec cost: `(schedule encode ns/rate, schedule decode ns/rate,
/// stats encode ns/flow, stats decode ns/flow)`. Decoding is
/// `decode_body` on a fresh copy of the body, which is what
/// `decode_stream` does once a whole frame is buffered.
pub fn proto_codec(frames: &Frames) -> (f64, f64, f64, f64) {
    let one = |m: &Message, items: usize| {
        let reps = (2_000_000 / items).max(50);
        let t = Instant::now();
        for _ in 0..reps {
            black_box(black_box(m).encode().expect("probe frame encodes"));
        }
        let encode = t.elapsed().as_nanos() as f64 / (reps * items) as f64;
        let frame = m.encode().expect("probe frame encodes");
        let body = &frame[4..];
        let t = Instant::now();
        for _ in 0..reps {
            let decoded = Message::decode_body(black_box(body).into());
            black_box(decoded.expect("probe frame decodes"));
        }
        let decode = t.elapsed().as_nanos() as f64 / (reps * items) as f64;
        (encode, decode)
    };
    let (se, sd) = one(&frames.schedule, frames.rates);
    let (te, td) = one(&frames.stats, frames.flows);
    (se, sd, te, td)
}

/// What the loopback TCP probe found, in microseconds.
pub struct TcpCost {
    /// Median round trip: a schedule frame out, a stats frame back.
    pub frame_rtt_us: f64,
    /// Median cost of one `recv_timeout(ZERO)` on the idle blocking
    /// link — what every coordinator drain ends with.
    pub idle_poll_us: f64,
    /// Median time to drain one epoch's stats wave, already queued on
    /// the socket, frame by frame with `recv_timeout(ZERO)` as the
    /// coordinator does, stopping short of that idle poll: the framed
    /// path (socket reads, `decode_stream`) without the timer.
    pub drain_wave_us: f64,
}

/// One loopback TCP link, both ends on this thread. `wave` is the
/// number of stats frames the coordinator receives per epoch.
pub fn tcp_link(frames: &Frames, wave: usize) -> Result<TcpCost, String> {
    let err = |e: &dyn std::fmt::Display| format!("tcp probe: {e}");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| err(&e))?;
    let addr = listener.local_addr().map_err(|e| err(&e))?;
    let mut near = TcpTransport::connect(&addr.to_string()).map_err(|e| err(&e))?;
    let (stream, _) = listener.accept().map_err(|e| err(&e))?;
    let mut far = TcpTransport::new(stream).map_err(|e| err(&e))?;
    let wait = std::time::Duration::from_secs(5);

    let mut rtt = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        near.send(&frames.schedule).map_err(|e| err(&e))?;
        far.recv_timeout(wait)
            .map_err(|e| err(&e))?
            .ok_or("tcp probe: schedule frame lost")?;
        far.send(&frames.stats).map_err(|e| err(&e))?;
        near.recv_timeout(wait)
            .map_err(|e| err(&e))?
            .ok_or("tcp probe: stats frame lost")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // The whole wave has to fit the socket buffer, for the same reason
    // as `MAX_PROBE_RATES`.
    let wave = wave.clamp(1, (WAVE_BYTES / frames.stats.encoded_len()).max(1));
    let mut drain = Vec::with_capacity(25);
    for _ in 0..25 {
        for _ in 0..wave {
            far.send(&frames.stats).map_err(|e| err(&e))?;
        }
        let t = Instant::now();
        let mut got = 0;
        while got < wave {
            match near
                .recv_timeout(std::time::Duration::ZERO)
                .map_err(|e| err(&e))?
            {
                Some(_) => got += 1,
                None if t.elapsed() > wait => return Err("tcp probe: stats wave lost".into()),
                None => {}
            }
        }
        drain.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let mut idle = Vec::with_capacity(25);
    for _ in 0..25 {
        let t = Instant::now();
        let got = near
            .recv_timeout(std::time::Duration::ZERO)
            .map_err(|e| err(&e))?;
        idle.push(t.elapsed().as_secs_f64() * 1e6);
        if got.is_some() {
            return Err("tcp probe: idle link delivered a frame".into());
        }
    }
    Ok(TcpCost {
        frame_rtt_us: median(&rtt).expect("200 samples"),
        idle_poll_us: median(&idle).expect("25 samples"),
        drain_wave_us: median(&drain).expect("25 samples"),
    })
}

/// Mean microseconds to move one schedule frame through an in-process
/// link (send, then receive).
pub fn inproc_frame_us(frames: &Frames) -> Result<f64, String> {
    const REPS: usize = 2000;
    let (mut near, mut far) = inproc_pair(1024);
    let t = Instant::now();
    for _ in 0..REPS {
        near.send(&frames.schedule)
            .map_err(|e| format!("inproc probe: {e}"))?;
        let got = far
            .recv_timeout(std::time::Duration::ZERO)
            .map_err(|e| format!("inproc probe: {e}"))?;
        black_box(got.ok_or("inproc probe: frame lost")?);
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / REPS as f64)
}

/// One agent per node holding the trace's flows, all active from time
/// zero: `(median µs to push one schedule of `rates` assignments through
/// `on_message` on every agent, ns per flow of one `advance` over all)`.
pub fn agents(trace: &Trace, rates: usize) -> (f64, f64) {
    let mut per_node: Vec<Vec<AgentFlow>> = vec![Vec::new(); trace.num_nodes];
    let mut next = 0u32;
    for c in &trace.coflows {
        for f in &c.flows {
            per_node[f.src.index()].push(AgentFlow {
                flow: next,
                size: f.size,
                activate_at: Time::ZERO,
                ready_at: Time::ZERO,
            });
            next += 1;
        }
    }
    let total = next as usize;
    let delta = Duration::from_millis(400);
    let mut cores: Vec<AgentCore> = per_node
        .into_iter()
        .enumerate()
        .map(|(node, flows)| AgentCore::new(node as u32, flows, delta, Time::ZERO))
        .collect();

    let rates = rates.clamp(1, total);
    let assignments: Vec<RateAssignment> = (0..rates)
        .map(|i| RateAssignment {
            flow: (i * total / rates) as u32,
            // Slow enough that no flow completes during the probe.
            rate: 1000,
        })
        .collect();

    let mut apply = Vec::with_capacity(50);
    for epoch in 1..=50u64 {
        let push = Message::Schedule {
            epoch,
            rates: assignments.clone(),
        };
        let t = Instant::now();
        for core in &mut cores {
            black_box(core.on_message(&push, None));
        }
        apply.push(t.elapsed().as_secs_f64() * 1e6);
    }

    const PASSES: u64 = 200;
    let t = Instant::now();
    for pass in 1..=PASSES {
        let now = Time::from_millis(100 * pass);
        for core in &mut cores {
            black_box(&mut *core).advance(now);
        }
    }
    let advance = t.elapsed().as_nanos() as f64 / (PASSES as usize * total.max(1)) as f64;
    (median(&apply).expect("50 samples"), advance)
}

/// Flows in the median stats report of a busy δ: per sending node, the
/// flows of every CoFlow that has arrived by the trace's median arrival
/// (agents keep reporting finished flows); median over reporting nodes.
pub fn median_stats_flows(trace: &Trace) -> usize {
    let Some(mid) = trace.coflows.get(trace.coflows.len() / 2) else {
        return 1;
    };
    let mut per_node = vec![0usize; trace.num_nodes];
    for c in trace.coflows.iter().filter(|c| c.arrival <= mid.arrival) {
        for f in &c.flows {
            per_node[f.src.index()] += 1;
        }
    }
    let reporting: Vec<f64> = per_node
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| n as f64)
        .collect();
    median(&reporting).map_or(1, |m| m as usize).max(1)
}
