//! One invocation on one workload: set up, replay and drop the suite's
//! traces one at a time, check what came out, and reduce it to the
//! metrics of `report`.

use crate::probes::{self, FabricCost, Frames};
use crate::prom;
use crate::recorder::{busy_ms, Recorder, Tape, TapeSlot};
use crate::report::{Metric, Outcome, END_TO_END, PER_LAYER};
use crate::spans::{self_time_s, SpanLog};
use crate::stats::{mean, median, percentile};
use crate::workloads::{Family, Golden, Size, Workload, EMU_SCALE};
use saath::core::{Aalo, CoflowScheduler, Saath};
use saath::metrics::{CoflowRecord, SpeedupSummary};
use saath::runtime::{emulate, EmulationConfig};
use saath::simcore::{Bytes, Duration};
use saath::simulator::{simulate, SimConfig};
use saath::workload::gen::{generate, GenConfig};
use saath::workload::{DynamicsSpec, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Views a traced run clones out for the probes, at most.
const SAMPLES_PER_RUN: usize = 16;
/// Room for the epochs of one emulation (≈150) without growing.
const EPOCHS_HINT: usize = 4096;
/// Times each trace is set up before it is run: set-up is short, so
/// `setup_s` takes the median of more samples than there are traces.
const SETUPS_PER_TRACE: usize = 3;

/// One trace made ready from nothing, and the seconds that took.
struct SetUp {
    trace: Trace,
    /// Generating and validating the trace and constructing a
    /// scheduler for it.
    setup_s: f64,
    /// The generator's part of that.
    gen_s: f64,
}

fn set_up(config: &GenConfig) -> SetUp {
    let t = Instant::now();
    let trace = generate(config);
    let gen_s = t.elapsed().as_secs_f64();
    trace.validate().expect("generated trace is valid");
    std::hint::black_box(Saath::with_defaults());
    SetUp {
        trace,
        setup_s: t.elapsed().as_secs_f64(),
        gen_s,
    }
}

/// One `simulate` or `emulate` call and what it left behind.
struct Run {
    start: Instant,
    end: Instant,
    /// `compute` calls: simulator rounds or coordinator epochs.
    rounds: u64,
    /// Empty after an untraced `simulate`, which carries no recorder.
    tape: Tape,
    records: Vec<CoflowRecord>,
    /// Why every CoFlow of this run counts as failed, if it does.
    fault: Option<String>,
    /// `Emu` only: epochs each agent applied, and the Prometheus page
    /// of a traced run.
    agent_epochs: Vec<u64>,
    page: Option<String>,
}

impl Run {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn sim_config(w: &Workload) -> SimConfig {
    SimConfig {
        delta: Duration::from_millis(w.delta_ms),
        ..SimConfig::default()
    }
}

fn avg_cct_s(records: &[CoflowRecord]) -> f64 {
    mean(
        &records
            .iter()
            .map(|r| r.cct().as_secs_f64())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN)
}

/// Replays `trace` once. `traced` gives the tape of a traced run.
fn run_once(w: &Workload, trace: &Trace, traced: Option<Tape>) -> Run {
    let mut run = match w.family {
        Family::Sim => {
            let mut saath = Saath::with_defaults();
            let timed = |sched: &mut dyn CoflowScheduler| {
                let start = Instant::now();
                let out = simulate(trace, sched, &sim_config(w), &DynamicsSpec::none());
                (start, Instant::now(), out)
            };
            let mut tape = Tape::default();
            let (start, end, out) = match traced {
                None => timed(&mut saath),
                Some(traced) => {
                    let mut recorder = Recorder::new(saath, traced);
                    let run = timed(&mut recorder);
                    tape = recorder.into_tape();
                    run
                }
            };
            let (rounds, records, fault) = match out {
                Ok(o) if o.unfinished > 0 => {
                    let fault = format!("{} CoFlows unfinished", o.unfinished);
                    (o.rounds, o.records, Some(fault))
                }
                Ok(o) => (o.rounds, o.records, None),
                Err(e) => (0, Vec::new(), Some(format!("simulate: {e}"))),
            };
            Run {
                start,
                end,
                rounds,
                tape,
                records,
                fault,
                agent_epochs: Vec::new(),
                page: None,
            }
        }
        Family::Emu { transport, tick_ms } => {
            let metrics_addr = traced.as_ref().map(|_| "127.0.0.1:0".to_string());
            let slot: TapeSlot = Arc::new(Mutex::new(None));
            let fresh = Mutex::new(Some(traced.unwrap_or_else(|| Tape::new(EPOCHS_HINT, None))));
            let make = || -> Box<dyn CoflowScheduler> {
                // The coordinator builds its scheduler once; a second
                // call (a failover drill) would get an empty tape.
                let tape = fresh
                    .lock()
                    .expect("tape handoff")
                    .take()
                    .unwrap_or_default();
                Box::new(Recorder::with_slot(
                    Saath::with_defaults(),
                    tape,
                    Arc::clone(&slot),
                ))
            };
            let cfg = EmulationConfig {
                scale: EMU_SCALE,
                delta: Duration::from_millis(w.delta_ms),
                tick: Duration::from_millis(tick_ms),
                transport,
                // One host thread beside the coordinator's.
                multiplex: trace.num_nodes,
                wall_deadline: std::time::Duration::from_secs(30),
                metrics_addr,
                ..EmulationConfig::default()
            };
            let start = Instant::now();
            let report = emulate(trace, &make, &cfg);
            let end = Instant::now();
            let tape = slot
                .lock()
                .expect("tape handoff")
                .take()
                .unwrap_or_default();
            let fault = emu_fault(trace, &report);
            Run {
                start,
                end,
                rounds: report.coordinator.epochs,
                tape,
                records: report.coordinator.records,
                fault,
                agent_epochs: report.agent_epochs,
                page: report.metrics,
            }
        }
    };
    if run.fault.is_none() && run.records.len() != trace.coflows.len() {
        run.fault = Some(format!(
            "{} records for {} CoFlows",
            run.records.len(),
            trace.coflows.len()
        ));
    }
    if run.fault.is_none() && run.rounds < 3 {
        run.fault = Some("fewer than three scheduling rounds".into());
    }
    run
}

/// The output checks on an emulation (its timestamps are wall-clock
/// quantized, so records are checked field by field against the trace,
/// not against another run).
fn emu_fault(trace: &Trace, report: &saath::runtime::EmulationReport) -> Option<String> {
    if report.coordinator.timed_out {
        return Some("hit wall_deadline".into());
    }
    let mut records = report.coordinator.records.iter();
    for c in &trace.coflows {
        // Records come sorted by id, which is trace order.
        let Some(r) = records.next() else {
            return Some(format!("no record for CoFlow {}", c.id));
        };
        if r.id != c.id || r.width != c.width() || r.total_bytes != c.total_size() {
            return Some(format!(
                "record of CoFlow {} does not match the trace",
                c.id
            ));
        }
    }
    let mut owns_flow = vec![false; trace.num_nodes];
    for f in trace.coflows.iter().flat_map(|c| &c.flows) {
        owns_flow[f.src.index()] = true;
    }
    let idle = owns_flow
        .iter()
        .zip(&report.agent_epochs)
        .position(|(&owns, &applied)| owns && applied == 0);
    idle.map(|node| format!("agent {node} owns flows but applied no schedule"))
}

/// FNV-1a over every field of every record: what [`Golden`] pins.
pub fn digest(records: &[CoflowRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.id.0 as u64);
        eat(r.job.map_or(u64::MAX, |j| j.0 as u64));
        eat(r.arrival.0);
        eat(r.released.0);
        eat(r.finish.0);
        eat(r.width as u64);
        eat(r.total_bytes.0);
        for (fct, size) in r.flow_fcts.iter().zip(&r.flow_sizes) {
            eat(fct.0);
            eat(size.0);
        }
    }
    h
}

/// `sim-*`: replays the golden trace under Saath and Aalo and holds the
/// outcome against the constants in `workloads`. A change to host time
/// must leave it alone; a change to scheduling has to come with new
/// constants, which makes it a change to the benchmark.
fn golden_check(w: &Workload, size: Size, tally: &mut Tally) {
    let Some((config, want)) = w.golden(size) else {
        return;
    };
    let trace = generate(&config);
    let none = DynamicsSpec::none();
    let saath = simulate(&trace, &mut Saath::with_defaults(), &sim_config(w), &none);
    let aalo = simulate(&trace, &mut Aalo::with_defaults(), &sim_config(w), &none);
    let fault = match (saath, aalo) {
        (Ok(s), Ok(a)) => {
            let got = Golden {
                rounds: s.rounds,
                saath: digest(&s.records),
                aalo: digest(&a.records),
            };
            (got != want).then(|| {
                format!("simulated results changed: replay gives {got:?}, expected {want:?}")
            })
        }
        (Err(e), _) | (_, Err(e)) => Some(format!("simulate: {e}")),
    };
    tally.count("golden trace", &trace, fault.as_deref());
}

/// The reference replays behind the CCT ratios of one trace.
struct Reference {
    aalo: Vec<CoflowRecord>,
    /// Mean CCT under Saath in the next more ideal model of the control
    /// loop. For `Sim`: `simulate` with δ = 0, a coordinator that
    /// reschedules at every event. For `Emu`: `simulate` at the same δ,
    /// where reports and schedules cross no wire and take no time.
    ideal_avg_cct_s: f64,
}

fn reference(w: &Workload, trace: &Trace) -> Result<Reference, String> {
    let ideal = SimConfig {
        delta: match w.family {
            Family::Sim => Duration::ZERO,
            Family::Emu { .. } => sim_config(w).delta,
        },
        ..SimConfig::default()
    };
    let none = DynamicsSpec::none();
    let aalo = simulate(trace, &mut Aalo::with_defaults(), &sim_config(w), &none)
        .map_err(|e| format!("reference Aalo replay: {e}"))?;
    let ideal = simulate(trace, &mut Saath::with_defaults(), &ideal, &none)
        .map_err(|e| format!("reference ideal replay: {e}"))?;
    if aalo.unfinished > 0 || ideal.unfinished > 0 {
        return Err("reference replay left CoFlows unfinished".into());
    }
    Ok(Reference {
        aalo: aalo.records,
        ideal_avg_cct_s: avg_cct_s(&ideal.records),
    })
}

/// Collects metric values by name and turns them into an [`Outcome`].
struct Tally {
    values: HashMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            values: HashMap::new(),
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `samples`, if there are any.
    fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(m) = median(samples) {
            self.set(name, m);
        }
    }

    /// Counts a run's CoFlows, all of them failed if it has a fault.
    fn count(&mut self, what: &str, trace: &Trace, fault: Option<&str>) {
        let n = trace.coflows.len() as u64;
        self.attempted += n;
        if let Some(fault) = fault {
            self.failed += n;
            self.faults.push(format!("{what}: {fault}"));
        }
    }

    /// `catalogue` fixes names, units and order. A `required` metric
    /// that was never set is a fault; any other reads zero.
    fn finish(mut self, catalogue: &[Metric], required: impl Fn(&Metric) -> bool) -> Outcome {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            let value = match self.values.get(m.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.faults.push(format!("{} is {v}", m.name));
                    0.0
                }
                None => {
                    if required(m) {
                        self.faults.push(format!("{} was not measured", m.name));
                    }
                    0.0
                }
            };
            metrics.push((m.name.to_string(), value, m.unit.to_string()));
        }
        Outcome {
            correct: self.faults.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            faults: self.faults,
        }
    }
}

/// `--trace 0`: every trace of the suite once, tracing off; the
/// end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, size: Size) -> Outcome {
    let plan = w.plan(size);
    let mut tally = Tally::new();
    golden_check(w, size, &mut tally);

    // Untimed: warms allocator and caches, and is what the timed replay
    // of trace 0 must reproduce.
    let mut warm = {
        let trace = set_up(&w.gen_config(seed, 0, size)).trace;
        let run = run_once(w, &trace, None);
        tally.count("warm-up", &trace, run.fault.as_deref());
        Some(run.records)
    };

    let delta_wall_ms = w.delta_wall_ms();
    let mut setup = Vec::with_capacity(plan.runs * SETUPS_PER_TRACE);
    let (mut rounds_per_s, mut avg_cct, mut busy_p50, mut wall) = (vec![], vec![], vec![], vec![]);
    // `(trace, CCT-only records)` of the leading traces, for the
    // reference replays.
    let mut kept: Vec<(usize, Vec<CoflowRecord>)> = Vec::new();
    for i in 0..plan.runs {
        let config = w.gen_config(seed, i, size);
        for _ in 1..SETUPS_PER_TRACE {
            setup.push(set_up(&config).setup_s);
        }
        let SetUp { trace, setup_s, .. } = set_up(&config);
        setup.push(setup_s);
        let mut run = run_once(w, &trace, None);
        let mut fault = run.fault.take();
        if let Some(warm) = warm.take() {
            if fault.is_none() && w.family == Family::Sim && run.records != warm {
                fault = Some("records differ from the warm-up replay of the same trace".into());
            }
        }
        let busy = match w.family {
            // No recorder rides in a timed `simulate`: the mean.
            Family::Sim => Some(run.wall_s() * 1e3 / run.rounds.max(1) as f64),
            Family::Emu { .. } => median(
                &busy_ms(&run.tape.entries, delta_wall_ms)
                    .iter()
                    .map(|&(_, b)| b)
                    .collect::<Vec<_>>(),
            ),
        };
        if fault.is_none() && busy.is_none() {
            fault = Some("no epoch interval with work pending".into());
        }
        tally.count(&format!("run {i}"), &trace, fault.as_deref());
        let (None, Some(busy)) = (fault, busy) else {
            continue;
        };
        rounds_per_s.push(run.rounds as f64 / run.wall_s());
        wall.push(run.wall_s());
        busy_p50.push(busy);
        avg_cct.push(avg_cct_s(&run.records));
        if i < plan.refs {
            for r in &mut run.records {
                r.flow_fcts = Vec::new();
                r.flow_sizes = Vec::new();
            }
            kept.push((i, run.records));
        }
    }
    tally.set_median("setup_s", &setup);
    tally.set_median("sim_rounds_per_s", &rounds_per_s);
    tally.set_median("avg_cct_s", &avg_cct);
    tally.set_median("epoch_busy_p50_ms", &busy_p50);
    tally.set_median("emu_wall_s", &wall);
    // Read here: what follows replays other schedulers, for reference.
    match peak_rss_mb() {
        Ok(mb) => tally.set("peak_rss_mb", mb),
        Err(e) => tally.faults.push(e),
    }

    let (mut speedup_p50, mut speedup_p90, mut inflation) = (vec![], vec![], vec![]);
    for (i, ours) in &kept {
        let trace = generate(&w.gen_config(seed, *i, size));
        match reference(w, &trace) {
            Ok(r) => {
                if let Some(s) = SpeedupSummary::compute(&r.aalo, ours) {
                    speedup_p50.push(s.median);
                    speedup_p90.push(s.p90);
                }
                inflation.push(avg_cct_s(ours) / r.ideal_avg_cct_s);
            }
            Err(e) => tally.faults.push(format!("trace {i}: {e}")),
        }
    }
    tally.set_median("cct_speedup_p50", &speedup_p50);
    tally.set_median("cct_speedup_p90", &speedup_p90);
    tally.set_median("cct_inflation", &inflation);
    tally.finish(&END_TO_END, |_| true)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak_rss_mb: no VmHWM line in /proc/self/status".into())
}

/// Nearest-rank percentile, zero for no samples.
fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// `--trace 1`: the leading traces of the suite, each once with tracing
/// off and once on, then the layer probes; the per-layer metrics. Spans
/// go to `out/<workload>.spans.jsonl` in the benchmark's directory.
pub fn per_layer(w: &Workload, seed: u64, size: Size) -> Outcome {
    let plan = w.plan(size);
    let mut tally = Tally::new();
    let mut log = SpanLog::new();

    let first = set_up(&w.gen_config(seed, 0, size)).trace;
    let warm = run_once(w, &first, None);
    tally.count("warm-up", &first, warm.fault.as_deref());

    let delta_wall_ms = w.delta_wall_ms();
    let port_rate = first.port_rate;
    let mut fabric = FabricCost::default();
    let (mut wall_off, mut wall_on) = (0.0, 0.0);
    // Per run, reduced to a median over the traced runs.
    let mut per_run: HashMap<&'static str, Vec<f64>> = HashMap::new();
    // Pooled over the traced runs.
    let (mut rebuild, mut incremental) = (vec![], vec![]);
    let (mut engine_s_sum, mut rounds_sum) = (0.0, 0.0);
    let (mut busy_all, mut sched_all, mut nonsched_all) = (vec![], vec![], vec![]);

    for i in 0..plan.traced {
        let SetUp { trace, gen_s, .. } = set_up(&w.gen_config(seed, i, size));
        per_run.entry("workload.gen_s").or_default().push(gen_s);
        let off = run_once(w, &trace, None);
        tally.count(&format!("run {i}"), &trace, off.fault.as_deref());
        let rounds = off.rounds as usize;
        let stride = rounds.div_ceil(SAMPLES_PER_RUN).max(1);
        let on = run_once(w, &trace, Some(Tape::new(rounds * 2, Some(stride))));
        let mut fault = on.fault.clone();
        if fault.is_none() && w.family == Family::Sim && on.records != off.records {
            fault = Some("tracing changed the records".into());
        }
        tally.count(&format!("traced run {i}"), &trace, fault.as_deref());
        let Some(detail) = &on.tape.detail else {
            continue;
        };
        if off.fault.is_some() || fault.is_some() || detail.ends.len() != on.tape.entries.len() {
            continue;
        }
        wall_off += off.wall_s();
        wall_on += on.wall_s();

        let root = log.add(
            match w.family {
                Family::Sim => "simulator.simulate",
                Family::Emu { .. } => "runtime.emulate",
            },
            on.start,
            on.end,
            None,
        );
        let mut round_us = Vec::with_capacity(detail.ends.len());
        for (entry, &end) in on.tape.entries.iter().zip(&detail.ends) {
            log.add("core.compute", entry.at, end, Some(root));
            round_us.push((end - entry.at).as_secs_f64() * 1e6);
        }
        let sched_s = round_us.iter().sum::<f64>() / 1e6;
        let mut push = |name, value| per_run.entry(name).or_default().push(value);
        push("core.sched_s", sched_s);
        push("core.sched_share", sched_s / on.wall_s());
        push("core.round_p50_us", pct(&round_us, 50.0));
        push("core.round_p99_us", pct(&round_us, 99.0));
        let as_f64 = |v: &[u32]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        push(
            "core.active_coflows_p50",
            pct(&as_f64(&detail.active_coflows), 50.0),
        );
        push(
            "core.granted_flows_mean",
            mean(&as_f64(&detail.granted_flows)).unwrap_or(0.0),
        );
        let active_flows: Vec<f64> = detail
            .samples
            .iter()
            .map(|s| {
                s.coflows
                    .iter()
                    .map(|c| c.unfinished().count())
                    .sum::<usize>() as f64
            })
            .collect();
        push("core.active_flows_p50", pct(&active_flows, 50.0));

        match w.family {
            Family::Sim => {
                // By construction: sched_s + engine_s is the traced wall.
                let engine_s = self_time_s(&log.spans, root);
                push("simulator.rounds", on.rounds as f64);
                push("simulator.engine_s", engine_s);
                engine_s_sum += engine_s;
                rounds_sum += on.rounds as f64;
            }
            Family::Emu { .. } => {
                let busy = busy_ms(&on.tape.entries, delta_wall_ms);
                push("runtime.epochs", on.rounds as f64);
                for &(epoch, b) in &busy {
                    busy_all.push(b);
                    nonsched_all.push(b - round_us[epoch] / 1e3);
                }
                sched_all.extend_from_slice(&round_us);
                let busy_mean_us = mean(&busy.iter().map(|&(_, b)| b * 1e3).collect::<Vec<_>>());
                let min_share = trace
                    .coflows
                    .iter()
                    .flat_map(|c| &c.flows)
                    .map(|f| on.agent_epochs[f.src.index()] as f64 / on.rounds.max(1) as f64)
                    .fold(f64::INFINITY, f64::min);
                push("runtime.agent_epochs_min_share", min_share);
                if let Some(page) = &on.page {
                    let phases = [
                        ("runtime.obs_recv_mean_us", "coord_obs_recv"),
                        ("runtime.schedule_mean_us", "coord_schedule"),
                        ("runtime.broadcast_mean_us", "coord_broadcast"),
                        ("runtime.agent_apply_mean_us", "agent_apply"),
                    ];
                    let mut attributed = 0.0;
                    for (name, phase) in phases {
                        if let Some(us) = prom::phase_mean_us(page, phase) {
                            push(name, us);
                            if phase != "agent_apply" {
                                attributed += us;
                            }
                        }
                    }
                    if let Some(busy_us) = busy_mean_us.filter(|&us| us > 0.0) {
                        push(
                            "runtime.epoch_unattributed_share",
                            1.0 - attributed / busy_us,
                        );
                    }
                    let epochs = prom::sample(page, "saath_coord_epochs_total").filter(|&e| e > 0);
                    let per_epoch =
                        |series| Some(prom::sample(page, series)? as f64 / epochs? as f64);
                    if let Some(v) = per_epoch("saath_transport_bytes_sent_total{link=\"agent\"}") {
                        push("runtime.sched_bytes_per_epoch", v);
                    }
                    if let Some(v) = per_epoch("saath_coord_stats_msgs_total") {
                        push("runtime.stats_frames_per_epoch", v);
                    }
                }
            }
        }

        // The probes on this run's sampled views, outside its spans.
        let sizes: Vec<Bytes> = trace
            .coflows
            .iter()
            .flat_map(|c| c.flows.iter().map(|f| f.size))
            .collect();
        log.time("core.rebuild_replay", None, || {
            rebuild.extend(probes::rebuild_us(&detail.samples, port_rate));
        });
        incremental.extend(detail.samples.iter().map(|s| s.compute_ns as f64 / 1e3));
        log.time("fabric.kernels", None, || {
            probes::fabric_on_samples(&detail.samples, &sizes, port_rate, &mut fabric);
        });
    }

    for (name, samples) in &per_run {
        tally.set_median(name, samples);
    }
    if let (Some(r), Some(inc)) = (median(&rebuild), median(&incremental)) {
        tally.set("core.round_rebuild_p50_us", r);
        tally.set("core.round_rebuild_p99_us", pct(&rebuild, 99.0));
        tally.set("core.rebuild_over_incremental", r / inc);
    }
    if fabric.flows > 0.0 {
        tally.set("fabric.madd_ns_per_flow", fabric.madd_ns_per_flow());
        tally.set("fabric.gang_rate_ns_per_flow", fabric.gang_ns_per_flow());
    }
    if rounds_sum > 0.0 {
        tally.set(
            "simulator.engine_ns_per_round",
            engine_s_sum * 1e9 / rounds_sum,
        );
    }
    if !busy_all.is_empty() {
        tally.set(
            "runtime.epoch_period_p50_ms",
            pct(&busy_all, 50.0) + delta_wall_ms,
        );
        tally.set("runtime.epoch_busy_p90_ms", pct(&busy_all, 90.0));
        tally.set("runtime.epoch_busy_p99_ms", pct(&busy_all, 99.0));
        tally.set("runtime.epoch_sched_p50_us", pct(&sched_all, 50.0));
        tally.set_median("runtime.epoch_nonsched_p50_ms", &nonsched_all);
    }
    if wall_off > 0.0 {
        tally.set(
            "bench.trace_overhead_pct",
            (wall_on - wall_off) / wall_off * 100.0,
        );
    }

    tally.set(
        "fabric.bank_reset_ns_per_port",
        log.time("fabric.bank_reset", None, || {
            probes::bank_reset_ns_per_port(first.num_nodes, port_rate)
        }),
    );
    if let Family::Emu { .. } = w.family {
        runtime_probes(&first, &mut tally, &mut log);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", w.name));
    if let Err(e) = log.write_jsonl(&path) {
        tally.faults.push(format!("{}: {e}", path.display()));
    }
    tally.finish(&PER_LAYER, |m| m.on.covers(w.family))
}

/// The `runtime` probes that need no sampled view: codec, links and
/// agents, on frames as large as the traced runs' mean schedule and the
/// trace's median stats report.
fn runtime_probes(trace: &Trace, tally: &mut Tally, log: &mut SpanLog) {
    let measured = |name| {
        tally
            .values
            .get(name)
            .map_or(1, |&v: &f64| v.round() as usize)
    };
    let granted = measured("core.granted_flows_mean");
    let wave = measured("runtime.stats_frames_per_epoch");
    let frames = Frames::new(granted, probes::median_stats_flows(trace));
    let (se, sd, te, td) = log.time("runtime.proto_codec", None, || probes::proto_codec(&frames));
    tally.set("runtime.proto_sched_encode_ns_per_rate", se);
    tally.set("runtime.proto_sched_decode_ns_per_rate", sd);
    tally.set("runtime.proto_stats_encode_ns_per_flow", te);
    tally.set("runtime.proto_stats_decode_ns_per_flow", td);
    match log.time("runtime.tcp_link", None, || probes::tcp_link(&frames, wave)) {
        Ok(cost) => {
            tally.set("runtime.tcp_frame_rtt_us", cost.frame_rtt_us);
            tally.set("runtime.tcp_idle_poll_us", cost.idle_poll_us);
            tally.set("runtime.tcp_drain_wave_us", cost.drain_wave_us);
        }
        Err(e) => tally.faults.push(e),
    }
    match log.time("runtime.inproc_link", None, || {
        probes::inproc_frame_us(&frames)
    }) {
        Ok(us) => tally.set("runtime.inproc_frame_us", us),
        Err(e) => tally.faults.push(e),
    }
    let (apply, advance) = log.time("runtime.agents", None, || probes::agents(trace, granted));
    tally.set("runtime.agent_apply_us", apply);
    tally.set("runtime.agent_advance_ns_per_flow", advance);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::On;
    use saath::simcore::{CoflowId, Time};

    #[test]
    fn a_missing_metric_is_a_fault_only_where_the_run_enters_its_layer() {
        let catalogue = [
            Metric {
                name: "simulator.rounds",
                unit: "count",
                on: On::Sim,
            },
            Metric {
                name: "runtime.epochs",
                unit: "count",
                on: On::Emu,
            },
        ];
        let sim = |m: &Metric| m.on.covers(Family::Sim);
        let mut tally = Tally::new();
        tally.set("simulator.rounds", 7.0);
        let o = tally.finish(&catalogue, sim);
        assert!(o.correct);
        assert_eq!((o.metrics[0].1, o.metrics[1].1), (7.0, 0.0));

        // The series behind it was renamed: the probe found nothing.
        let o = Tally::new().finish(&catalogue, sim);
        assert!(!o.correct);
        assert_eq!(o.faults, ["simulator.rounds was not measured"]);

        let mut tally = Tally::new();
        tally.set("simulator.rounds", f64::NAN);
        assert!(!tally.finish(&catalogue, sim).correct);
    }

    #[test]
    fn digest_sees_every_field() {
        let record = CoflowRecord {
            id: CoflowId(3),
            job: None,
            arrival: Time(10),
            released: Time(10),
            finish: Time(500),
            width: 2,
            total_bytes: Bytes(64),
            flow_fcts: vec![Duration(490), Duration(200)],
            flow_sizes: vec![Bytes(32), Bytes(32)],
        };
        let base = digest(std::slice::from_ref(&record));
        let mut later = record.clone();
        later.finish = Time(501);
        let mut slower_flow = record.clone();
        slower_flow.flow_fcts[1] = Duration(201);
        for changed in [later, slower_flow] {
            assert_ne!(base, digest(&[changed]));
        }
        assert_ne!(base, digest(&[record.clone(), record]));
    }
}
