//! One hostile-input harness for every binary decoder (DESIGN.md, "Byte
//! codec"): wire frames, Saath's state blob, event-log bytes and engine
//! snapshots. [`attack`] holds each to three properties:
//!
//! * decoding a valid sample and encoding it again gives the sample
//!   back;
//! * every truncation, bit flip, `0xff` run and random input ends in
//!   `Ok` or `Err` — never a panic, and never an abort;
//! * no allocation made while decoding (and running what was decoded)
//!   is larger than the bytes given could describe: a count read from
//!   the input never sizes anything past the bytes that follow it.
//!
//! Case counts are fixed here: a short campaign in debug builds, a long
//! one optimized. The named snapshot cases at the end are the blobs
//! that once aborted the process or panicked the engine.

use saath::core::view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};
use saath::eventlog::{
    diff_logs, index_log, resume_point, verify, ChainDigest, EventLogWriter, LogHeader, RoundSink,
};
use saath::fabric::PortBank;
use saath::prelude::*;
use saath::runtime::proto::{FlowStat, Message, RateAssignment};
use saath::simcore::DetRng;
use saath::simulator::{simulate_resumable, ReplayHooks, SimError, SimOutput};
use saath::workload::{gen, DynamicsEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// The largest single allocation this thread has asked for since
    /// it was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the only addition is noting the requested size in a
// thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Inputs of each kind per decoder: truncations, bit flips, `0xff`
/// runs and random inputs.
const CASES: usize = if cfg!(debug_assertions) { 100 } else { 3000 };

/// A decoder under attack.
trait Decoder {
    /// Valid encodings, the seeds of every mutation.
    fn samples(&self) -> Vec<Vec<u8>>;
    /// Decodes `bytes` and puts what they decode to to work; `Err` is a
    /// refusal.
    fn run(&self, bytes: &[u8]) -> Result<(), String>;
    /// Checks that sample `i` decodes to what encodes to it again.
    fn identity(&self, i: usize, sample: &[u8]) -> Result<(), String>;
}

/// Runs `d` on `input`: `Ok` or `Err` is fine, a panic is not. Returns
/// the largest allocation the run made.
fn feed(name: &str, d: &dyn Decoder, input: &[u8], what: &str) -> usize {
    LARGEST.with(|l| l.set(0));
    let got = catch_unwind(AssertUnwindSafe(|| d.run(input)));
    let largest = LARGEST.with(Cell::get);
    assert!(
        got.is_ok(),
        "{name}: panicked on {what} ({} bytes)",
        input.len()
    );
    largest
}

/// The harness: identity on every sample, then every kind of damage.
fn attack(name: &str, d: &dyn Decoder) {
    let samples = d.samples();
    assert!(!samples.is_empty(), "{name}: no samples");
    let mut baseline = 0;
    for (i, s) in samples.iter().enumerate() {
        d.identity(i, s)
            .unwrap_or_else(|e| panic!("{name}: sample {i} does not round-trip: {e}"));
        assert_eq!(d.run(s), Ok(()), "{name}: sample {i} is refused");
        baseline = baseline.max(feed(name, d, s, "a valid sample"));
    }
    // What a decode may allocate: what a valid one does, or a small
    // multiple of the input, with room for a doubling `Vec`.
    let budget = |len: usize| 2 * baseline.max(16 * len);
    let check = |input: &[u8], what: &str| {
        let largest = feed(name, d, input, what);
        assert!(
            largest <= budget(input.len()),
            "{name}: {what} allocated {largest} B from {} input bytes",
            input.len()
        );
    };

    let mut rng = DetRng::derive(0x5a47, name);
    for (i, s) in samples.iter().enumerate() {
        for cut in (0..s.len()).step_by((s.len() / CASES).max(1)) {
            check(&s[..cut], &format!("sample {i} cut to {cut} bytes"));
        }
    }
    let pick = |rng: &mut DetRng| &samples[rng.below(samples.len() as u64) as usize];
    for _ in 0..CASES {
        let mut s = pick(&mut rng).clone();
        let at = rng.below(s.len() as u64) as usize;
        let bit = rng.below(8);
        s[at] ^= 1 << bit;
        check(&s, &format!("bit {bit} of byte {at} flipped"));
    }
    for _ in 0..CASES {
        let mut s = pick(&mut rng).clone();
        let at = rng.below(s.len() as u64) as usize;
        let run = (rng.range_inclusive(1, 16) as usize).min(s.len() - at);
        s[at..at + run].fill(0xff);
        check(&s, &format!("{run} bytes at {at} set to 0xff"));
    }
    for k in 0..CASES {
        let s = pick(&mut rng);
        // Half wholly random, half a valid prefix with a random tail,
        // so that decoders deep in the format see garbage too.
        let keep = if k % 2 == 0 {
            0
        } else {
            rng.below(s.len() as u64) as usize
        };
        let tail = rng.below(2 * s.len() as u64 + 1) as usize;
        let mut input = s[..keep].to_vec();
        input.extend((0..tail).map(|_| rng.below(256) as u8));
        check(
            &input,
            &format!("{tail} random bytes behind {keep} valid ones"),
        );
    }
}

// ---- Wire frames, through `decode_stream` ----

struct Frames;

fn messages() -> Vec<Message> {
    vec![
        Message::Hello { node: 3 },
        Message::Stats {
            node: 1,
            now_ns: 8_000_000,
            flows: (0..5)
                .map(|f| FlowStat {
                    flow: f,
                    sent: 1_000 * u64::from(f),
                    finished: f % 3 == 0,
                    ready: f % 2 == 0,
                })
                .collect(),
        },
        Message::Schedule {
            epoch: 9,
            rates: (0..4)
                .map(|f| RateAssignment {
                    flow: f,
                    rate: 125_000_000 >> f,
                })
                .collect(),
        },
        Message::Shutdown,
    ]
}

/// Every frame a stream holds, until it wants more bytes.
fn decode_all(bytes: &[u8]) -> Result<Vec<Message>, String> {
    let mut buf = bytes.to_vec();
    let mut out = Vec::new();
    while let Some(m) = Message::decode_stream(&mut buf).map_err(|e| e.to_string())? {
        out.push(m);
    }
    Ok(out)
}

impl Decoder for Frames {
    fn samples(&self) -> Vec<Vec<u8>> {
        let all = messages()
            .iter()
            .flat_map(|m| m.encode().unwrap())
            .collect();
        let mut samples: Vec<Vec<u8>> = messages().iter().map(|m| m.encode().unwrap()).collect();
        samples.push(all);
        samples
    }

    fn run(&self, bytes: &[u8]) -> Result<(), String> {
        decode_all(bytes).map(drop)
    }

    fn identity(&self, _: usize, sample: &[u8]) -> Result<(), String> {
        let again: Vec<u8> = decode_all(sample)?
            .iter()
            .flat_map(|m| m.encode().unwrap())
            .collect();
        (again == sample)
            .then_some(())
            .ok_or("re-encoded frames differ".into())
    }
}

#[test]
fn wire_frames_survive_hostile_bytes() {
    attack("frames", &Frames);
}

// ---- Saath's state blob, through `restore_state` and one round ----

struct SaathState;

fn flow(id: u32, src: u32, dst: u32, sent: u64) -> FlowView {
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

/// Five CoFlows spread over the queues, on six nodes.
fn saath_views() -> Vec<CoflowView> {
    (0..5u32)
        .map(|c| CoflowView {
            id: CoflowId(c),
            arrival: Time::from_millis(u64::from(c)),
            flows: (0..=c)
                .map(|k| flow(10 * c + k, k % 6, (c + k + 1) % 6, 10u64.pow(c + 3)))
                .collect(),
            restarted: c == 4,
        })
        .collect()
}

fn saath_round(s: &mut Saath, now: Time) {
    let views = saath_views();
    let view = ClusterView {
        now,
        num_nodes: 6,
        coflows: &views,
        changed: None,
    };
    let mut bank = PortBank::uniform(6, Rate::gbps(1));
    s.compute(&view, &mut bank, &mut Schedule::default());
}

impl Decoder for SaathState {
    fn samples(&self) -> Vec<Vec<u8>> {
        let mut s = Saath::with_defaults();
        (1..=3)
            .map(|k| {
                saath_round(&mut s, Time::from_millis(8 * k));
                let mut blob = Vec::new();
                s.save_state(&mut blob);
                blob
            })
            .collect()
    }

    fn run(&self, bytes: &[u8]) -> Result<(), String> {
        let mut s = Saath::with_defaults();
        s.restore_state(bytes)?;
        saath_round(&mut s, Time::from_millis(40));
        Ok(())
    }

    fn identity(&self, _: usize, sample: &[u8]) -> Result<(), String> {
        let mut s = Saath::with_defaults();
        s.restore_state(sample)?;
        let mut again = Vec::new();
        s.save_state(&mut again);
        (again == sample)
            .then_some(())
            .ok_or("re-saved state differs".into())
    }
}

#[test]
fn saath_state_blobs_survive_hostile_bytes() {
    attack("saath state", &SaathState);
}

// ---- Event logs, through `verify`, `index_log` and `diff_logs` ----

/// A straggler and a node failure, so that every dynamics action sits
/// in the snapshots' queue at some point.
fn churn() -> (Trace, DynamicsSpec) {
    let dynamics = DynamicsSpec {
        events: vec![
            DynamicsEvent::Straggler {
                node: NodeId(2),
                at: Time::from_millis(200),
                until: Time::from_secs(2),
                num: 1,
                den: 4,
            },
            DynamicsEvent::NodeFailure {
                node: NodeId(5),
                at: Time::from_millis(900),
                restart_delay: Duration::from_millis(150),
            },
        ],
    };
    (gen::generate(&gen::small(43, 16, 10)), dynamics)
}

fn header(trace: &Trace, start_round: u64, start_digest: ChainDigest) -> LogHeader {
    LogHeader {
        num_nodes: trace.num_nodes as u64,
        port_rate: trace.port_rate.as_u64(),
        delta_ns: SimConfig::default().delta.as_nanos(),
        scheduler: "saath".into(),
        trace_digest: ChainDigest::ZERO,
        start_round,
        start_digest,
    }
}

/// A replay of the churn workload under Saath, logged with a snapshot
/// every `every` rounds, resumed from `resume` if given.
fn logged(
    cfg: &SimConfig,
    every: u64,
    resume: Option<(u64, ChainDigest, &[u8])>,
) -> (Result<SimOutput, SimError>, Vec<u8>) {
    let (trace, dynamics) = churn();
    let (round, digest) = resume.map_or((0, ChainDigest::ZERO), |(r, d, _)| (r, d));
    let mut w = EventLogWriter::new(Vec::new(), &header(&trace, round, digest)).unwrap();
    let out = simulate_resumable(
        &trace,
        &mut Saath::with_defaults(),
        cfg,
        &dynamics,
        ReplayHooks {
            sink: Some(&mut w),
            snapshot_every: every,
            resume_from: resume.map(|(_, _, blob)| blob),
            ..ReplayHooks::none()
        },
    );
    (out, w.into_inner().unwrap())
}

/// The churn workload's log at a snapshot every 40 rounds.
fn churn_log() -> Vec<u8> {
    let (out, log) = logged(&SimConfig::default(), 40, None);
    assert!(out.unwrap().rounds > 200, "the workload got shorter");
    log
}

/// Holds the undamaged sample, which the differ compares every input
/// with both ways.
struct Logs {
    clean: Vec<u8>,
}

impl Logs {
    fn new() -> Logs {
        // The first ~70 rounds and their first snapshot: a few KB.
        let log = churn_log();
        let idx = index_log(&log).unwrap();
        let end = idx.rounds[70].offset - 9;
        Logs {
            clean: log[..end].to_vec(),
        }
    }
}

impl Decoder for Logs {
    fn samples(&self) -> Vec<Vec<u8>> {
        vec![self.clean.clone()]
    }

    /// Runs every reader whatever the others return: a resume picks its
    /// snapshot without verifying the log first, and the differ reads
    /// damaged records that the chain check would have refused. The
    /// resume pass must accept exactly the logs the index accepts and
    /// pick one of the index's snapshots. The result is `verify`'s.
    fn run(&self, bytes: &[u8]) -> Result<(), String> {
        let summary = verify(bytes);
        let indexed = index_log(bytes);
        let picked = resume_point(bytes);
        if let Ok(idx) = &indexed {
            for e in &idx.rounds {
                let _ = idx.read_round(bytes, e);
            }
        }
        let _ = diff_logs(bytes, bytes);
        let _ = diff_logs(bytes, &self.clean);
        let _ = diff_logs(&self.clean, bytes);
        match (&indexed, &picked) {
            (Ok(idx), Ok(pick)) => {
                let found = match pick {
                    None => idx.snapshots.is_empty(),
                    Some(p) => idx.snapshots.iter().any(|s| {
                        (s.round, s.digest, s.blob.as_slice()) == (p.round, p.digest, &p.blob[..])
                    }),
                };
                if !found {
                    return Err("the resume pass picked no snapshot of the index".into());
                }
            }
            (Err(_), Err(_)) => {}
            _ => return Err("the resume pass and the index disagree on the framing".into()),
        }
        let summary = summary.map_err(|e| e.to_string())?;
        let idx = indexed.map_err(|e| e.to_string())?;
        let blobs: usize = idx.snapshots.iter().map(|s| s.blob.len()).sum();
        (summary.rounds == idx.rounds.len() as u64 && blobs <= bytes.len())
            .then_some(())
            .ok_or("verify and the index disagree".into())
    }

    /// Writes the indexed rounds and snapshots again, in log order.
    fn identity(&self, _: usize, sample: &[u8]) -> Result<(), String> {
        let idx = index_log(sample).map_err(|e| e.to_string())?;
        let mut w = EventLogWriter::new(Vec::new(), &idx.header).map_err(|e| e.to_string())?;
        let mut snaps = idx.snapshots.iter().peekable();
        for e in &idx.rounds {
            while let Some(s) = snaps.next_if(|s| s.round <= e.round) {
                w.append_snapshot(s.round, s.blob.as_slice()).unwrap();
            }
            w.append_round(&idx.read_round(sample, e).unwrap()).unwrap();
        }
        for s in snaps {
            w.append_snapshot(s.round, s.blob.as_slice()).unwrap();
        }
        (w.into_inner().unwrap() == sample)
            .then_some(())
            .ok_or("re-written log differs".into())
    }
}

#[test]
fn event_logs_survive_hostile_bytes() {
    attack("event log", &Logs::new());
}

// ---- Engine snapshots, through `simulate_resumable` ----

/// Rounds a resumed run may take past its snapshot.
const RESUMED_ROUNDS: u64 = 40;

struct Snapshots {
    /// `(round, entering digest, blob)` of every snapshot in the log.
    snaps: Vec<(u64, ChainDigest, Vec<u8>)>,
}

impl Snapshots {
    fn new() -> Snapshots {
        let log = churn_log();
        let snaps = index_log(&log)
            .unwrap()
            .snapshots
            .iter()
            .map(|s| (s.round, s.digest, s.blob.to_vec()))
            .collect();
        Snapshots { snaps }
    }

    /// The run resumed from a sample is held to this many rounds.
    fn cfg(&self) -> SimConfig {
        let last = self.snaps[2].0;
        SimConfig {
            max_rounds: last + RESUMED_ROUNDS,
            ..SimConfig::default()
        }
    }
}

impl Decoder for Snapshots {
    /// The first three: early, mid-churn (a straggler pending, CoFlows
    /// finished and live) and late.
    fn samples(&self) -> Vec<Vec<u8>> {
        self.snaps[..3].iter().map(|s| s.2.clone()).collect()
    }

    fn run(&self, bytes: &[u8]) -> Result<(), String> {
        let (trace, dynamics) = churn();
        match simulate_resumable(
            &trace,
            &mut Saath::with_defaults(),
            &self.cfg(),
            &dynamics,
            ReplayHooks {
                resume_from: Some(bytes),
                ..ReplayHooks::none()
            },
        ) {
            Ok(_) | Err(SimError::RoundLimit(_)) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Resumed from snapshot `i`, the run writes snapshot `i + 1`
    /// byte for byte, but for Saath's mechanism counters. The first
    /// round after a resume is cold (`changed: None`), and the counters
    /// count it on top of the uninterrupted run's (CHANGES.md, FOUND:
    /// "a resumed run's snapshots are not byte-identical"): one more
    /// contention rebuild, one fewer avoided, and more of the work a
    /// cold round redoes. Once that is mended, the rebuild check fails
    /// here; compare the counters exactly then.
    fn identity(&self, i: usize, sample: &[u8]) -> Result<(), String> {
        let (round, digest, _) = &self.snaps[i];
        let (_, log) = logged(&SimConfig::default(), 40, Some((*round, *digest, sample)));
        let idx = index_log(&log).map_err(|e| e.to_string())?;
        let next = idx.snapshots.first().ok_or("no snapshot written")?;
        if next.round != self.snaps[i + 1].0 {
            return Err("the next snapshot is at another round".into());
        }
        let (got_engine, mut got) = split_saath(next.blob.as_slice())?;
        let (want_engine, mut want) = split_saath(&self.snaps[i + 1].2)?;
        if got_engine != want_engine {
            return Err("the next snapshot's engine state differs".into());
        }
        let (g, w) = (&got.mech, &want.mech);
        let cold_round = g.contention_rebuilds == w.contention_rebuilds + 1
            && g.contention_rebuilds_avoided + 1 == w.contention_rebuilds_avoided;
        let others_ahead = g
            .rows()
            .iter()
            .zip(w.rows())
            .filter(|(_, (name, _))| !name.starts_with("contention_rebuilds"))
            .all(|(&(_, g), (_, w))| g >= w);
        if !(cold_round && others_ahead) {
            return Err(format!(
                "the mechanism counters differ by more than one cold round: {:?} vs {:?}",
                g.rows(),
                w.rows()
            ));
        }
        got.mech = Default::default();
        want.mech = Default::default();
        let saved = |s: &Saath| {
            let mut blob = Vec::new();
            s.save_state(&mut blob);
            blob
        };
        (saved(&got) == saved(&want))
            .then_some(())
            .ok_or("the next snapshot's scheduler state differs".into())
    }
}

/// Splits an engine snapshot into the engine's bytes and the Saath
/// state its last field holds, restored. The snapshot ends with the
/// scheduler's name and its state blob, each behind a `u64` length.
fn split_saath(blob: &[u8]) -> Result<(&[u8], Saath), String> {
    let name = [&5u64.to_le_bytes()[..], b"saath"].concat();
    let at = blob
        .windows(name.len())
        .rposition(|w| w == name)
        .ok_or("no saath state in the snapshot")?;
    let mut s = Saath::with_defaults();
    s.restore_state(&blob[at + name.len() + 8..])?;
    Ok((&blob[..at], s))
}

#[test]
fn engine_snapshots_survive_hostile_bytes() {
    attack("snapshot", &Snapshots::new());
}

// ---- Snapshot blobs that once aborted or panicked ----

/// Byte offsets into a snapshot of the churn workload: a 50-byte
/// header, 41 bytes per flow, then 43 per CoFlow, then the queues.
struct Offsets {
    trace: Trace,
    blob: Vec<u8>,
}

impl Offsets {
    /// The mid-churn sample, where CoFlows have both finished and not.
    fn mid() -> Offsets {
        Offsets {
            trace: churn().0,
            blob: Snapshots::new().samples().swap_remove(1),
        }
    }

    fn flow(&self, fi: usize) -> usize {
        50 + 41 * fi
    }

    fn coflow(&self, ci: usize) -> usize {
        50 + 41 * self.trace.num_flows() + 43 * ci
    }

    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.blob[at..at + 8].try_into().unwrap())
    }

    /// `(released, finished)` flags and values of CoFlow `ci`.
    fn lifecycle(&self, ci: usize) -> (Option<u64>, Option<u64>) {
        let at = self.coflow(ci);
        let opt = |at: usize| (self.blob[at] != 0).then(|| self.u64_at(at + 1));
        (opt(at), opt(at + 9))
    }

    fn first_coflow(&self, want: impl Fn(Option<u64>, Option<u64>) -> bool) -> usize {
        (0..self.trace.coflows.len())
            .find(|&ci| {
                let (r, f) = self.lifecycle(ci);
                want(r, f)
            })
            .expect("no coflow in that state at the snapshot")
    }

    /// Resumes from the edited blob; it must be refused.
    fn refused(&self, why: &str) {
        let got = Snapshots::new().run(&self.blob);
        assert!(got.is_err(), "{why}: resumed");
    }
}

/// A readiness-queue count of 2^54 entries: it used to size the queue
/// before a byte of it was read, and the allocation aborted the
/// process.
#[test]
fn a_queue_count_past_the_blob_is_refused_without_allocating() {
    let mut l = Offsets::mid();
    let arrivals = l.coflow(l.trace.coflows.len());
    l.blob[arrivals..arrivals + 8].copy_from_slice(&(1u64 << 54).to_le_bytes());
    LARGEST.with(|c| c.set(0));
    l.refused("a count of 2^54 arrivals");
    assert!(LARGEST.with(Cell::get) < 1 << 30, "sized by the count");
}

/// A finished CoFlow marked unreleased: the resume used to rebuild its
/// record and panic on `released.expect("finished before release")`.
#[test]
fn a_coflow_finished_before_release_is_refused() {
    let mut l = Offsets::mid();
    let ci = l.first_coflow(|r, f| r.is_some() && f.is_some());
    let at = l.coflow(ci);
    l.blob[at] = 0;
    l.refused("a finished coflow with no release");
}

/// A live CoFlow marked finished: the resume used to rebuild its
/// record and panic unwrapping an unfinished flow's finish time.
#[test]
fn a_live_coflow_marked_finished_is_refused() {
    let mut l = Offsets::mid();
    let ci = l.first_coflow(|r, f| r.is_some() && f.is_none());
    let at = l.coflow(ci) + 9;
    l.blob[at] = 1;
    l.refused("a live coflow marked finished");
}

/// A flow finished before its CoFlow was released: the record rebuild
/// used to panic in `since()` (debug) or wrap to a huge FCT (release).
#[test]
fn a_flow_finished_before_its_release_is_refused() {
    let mut l = Offsets::mid();
    let ci = l.first_coflow(|r, f| r.is_some_and(|r| r > 0) && f.is_some());
    let fi: usize = l.trace.coflows[..ci].iter().map(|c| c.flows.len()).sum();
    let at = l.flow(fi) + 24;
    assert_eq!(l.blob[at], 1, "the flow is finished");
    l.blob[at + 1..at + 9].copy_from_slice(&0u64.to_le_bytes());
    l.refused("a flow finished at 0 of a coflow released later");
}
