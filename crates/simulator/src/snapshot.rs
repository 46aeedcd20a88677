//! Engine snapshot serialization: the full deterministic state of
//! [`simulate_resumable`]'s epoch loop as an integer-only binary blob.
//!
//! A snapshot is taken at the **top of the epoch loop**: `now` holds the
//! instant the previous iteration advanced to, every event due at `now`
//! is still in its queue, and the schedule from the last boundary is
//! reflected in the per-flow rates. [`apply`] rebuilds exactly that
//! state, so the resumed loop's next iteration is indistinguishable from
//! the uninterrupted run's.
//!
//! What is captured, and what is deliberately not:
//!
//! * **Captured** — simulated clock and round count; every flow's
//!   dynamic fields (`sent`, `rate`, `ready_at`, `finished_at`, and the
//!   completion prediction the engine derives from them, written so
//!   the format is unchanged and checked against them on apply); every
//!   CoFlow's lifecycle fields; all three
//!   event queues *with their tie-break sequence numbers* (FIFO order at
//!   equal instants is part of determinism); the active views (their
//!   synced `sent`/`ready`/`finished`/`restarted` flags lag ground truth
//!   by design); the port bank's capacity slab (straggler scaling);
//!   straggled-node flags; the `flowing` list (its order drives
//!   deterministic iteration); the dirty list; and the scheduler's
//!   historical state via [`CoflowScheduler::save_state`].
//! * **Rebuilt on resume** — static tables re-derived from the trace
//!   (sizes, endpoints, dependency edges); the completion heap (one
//!   current entry per flowing flow — pop order depends only on the key
//!   multiset, so lazy deletion makes the difference unobservable);
//!   records of already-finished CoFlows; and every scheduler cache that
//!   is a pure function of the view, which the first post-resume round
//!   forces cold via `changed: None`.
//! * **Reset** — schedule-diff stamps (only within-round equality
//!   matters) and per-round scratch.
//!
//! Everything is fixed-width little-endian via [`saath_eventlog::wire`];
//! hash-map-order-dependent data never enters the blob, so snapshotting
//! the same state twice yields identical bytes.
//!
//! [`simulate_resumable`]: crate::engine::simulate_resumable
//! [`CoflowScheduler::save_state`]: saath_core::view::CoflowScheduler::save_state

use saath_core::view::{CoflowScheduler, CoflowView};
use saath_eventlog::wire::{self, Reader};
use saath_fabric::PortBank;
use saath_simcore::{Duration, EventQueue, NodeId, PortId, Rate, Time};
use saath_workload::Trace;

use crate::engine::{flatten, make_view, prediction, DynAction, SimCoflow, SimConfig, SimFlow};

/// Snapshot format version.
const VERSION: u8 = 1;

/// Immutable references to everything [`encode`] serializes, borrowed
/// from the epoch loop's locals at the snapshot point.
pub(crate) struct SnapshotView<'a> {
    pub(crate) now: Time,
    pub(crate) rounds: u64,
    pub(crate) flows: &'a [SimFlow],
    pub(crate) coflows: &'a [SimCoflow],
    pub(crate) arrivals: &'a EventQueue<usize>,
    pub(crate) dyn_events: &'a EventQueue<DynAction>,
    pub(crate) ready_events: &'a EventQueue<usize>,
    pub(crate) views: &'a [CoflowView],
    pub(crate) view_owner: &'a [usize],
    pub(crate) bank: &'a PortBank,
    pub(crate) straggled: &'a [bool],
    pub(crate) flowing: &'a [usize],
    pub(crate) dirty_list: &'a [usize],
}

/// The epoch-loop state [`apply`] hands back, ready to replace the
/// engine's freshly initialized locals wholesale.
pub(crate) struct Restored {
    pub(crate) now: Time,
    pub(crate) rounds: u64,
    pub(crate) flows: Vec<SimFlow>,
    pub(crate) coflows: Vec<SimCoflow>,
    pub(crate) arrivals: EventQueue<usize>,
    pub(crate) dyn_events: EventQueue<DynAction>,
    pub(crate) ready_events: EventQueue<usize>,
    pub(crate) views: Vec<CoflowView>,
    pub(crate) view_owner: Vec<usize>,
    pub(crate) bank: PortBank,
    pub(crate) straggled: Vec<bool>,
    pub(crate) flowing: Vec<usize>,
    pub(crate) dirty: Vec<bool>,
    pub(crate) dirty_list: Vec<usize>,
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<Time>) {
    match t {
        Some(t) => {
            wire::put_u8(out, 1);
            wire::put_u64(out, t.as_nanos());
        }
        None => {
            wire::put_u8(out, 0);
            wire::put_u64(out, 0);
        }
    }
}

fn get_opt_time(r: &mut Reader<'_>) -> Result<Option<Time>, String> {
    let flag = r.u8()?;
    let v = r.u64()?;
    Ok((flag != 0).then_some(Time(v)))
}

fn put_usize_queue(out: &mut Vec<u8>, q: &EventQueue<usize>) {
    let entries = q.entries();
    wire::put_u64(out, entries.len() as u64);
    for (at, seq, &payload) in entries {
        wire::put_u64(out, at.as_nanos());
        wire::put_u64(out, seq);
        wire::put_u64(out, payload as u64);
    }
    wire::put_u64(out, q.next_seq());
}

fn get_usize_queue(r: &mut Reader<'_>, max_payload: usize) -> Result<EventQueue<usize>, String> {
    let n = r.u64()? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let at = Time(r.u64()?);
        let seq = r.u64()?;
        let payload = r.u64()? as usize;
        if payload >= max_payload {
            return Err(format!("queue payload {payload} out of range"));
        }
        entries.push((at, seq, payload));
    }
    let next_seq = r.u64()?;
    Ok(EventQueue::from_entries(entries, next_seq))
}

pub(crate) fn encode(
    v: &SnapshotView<'_>,
    trace: &Trace,
    cfg: &SimConfig,
    sched: &dyn CoflowScheduler,
) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u8(&mut out, VERSION);
    // Shape fingerprint: refuse to resume against the wrong run.
    wire::put_u64(&mut out, trace.num_nodes as u64);
    wire::put_u64(&mut out, v.coflows.len() as u64);
    wire::put_u64(&mut out, v.flows.len() as u64);
    wire::put_u8(&mut out, cfg.clairvoyant as u8);
    wire::put_u64(&mut out, cfg.delta.as_nanos());

    wire::put_u64(&mut out, v.now.as_nanos());
    wire::put_u64(&mut out, v.rounds);

    for f in v.flows {
        wire::put_u64(&mut out, f.sent.0);
        wire::put_u64(&mut out, f.rate.0);
        wire::put_u64(&mut out, f.ready_at.as_nanos());
        put_opt_time(&mut out, f.finished_at);
        wire::put_u64(&mut out, prediction(f, v.now).as_nanos());
    }
    for c in v.coflows {
        put_opt_time(&mut out, c.released);
        put_opt_time(&mut out, c.finished);
        wire::put_u64(&mut out, c.unfinished as u64);
        wire::put_u64(&mut out, c.deps_left as u64);
        wire::put_u8(&mut out, c.restarted as u8);
        wire::put_u64(
            &mut out,
            if c.view_slot == usize::MAX {
                u64::MAX
            } else {
                c.view_slot as u64
            },
        );
    }

    put_usize_queue(&mut out, v.arrivals);
    {
        let entries = v.dyn_events.entries();
        wire::put_u64(&mut out, entries.len() as u64);
        for (at, seq, action) in entries {
            wire::put_u64(&mut out, at.as_nanos());
            wire::put_u64(&mut out, seq);
            match *action {
                DynAction::StraggleStart { node, num, den } => {
                    wire::put_u8(&mut out, 1);
                    wire::put_u32(&mut out, node.0);
                    wire::put_u64(&mut out, num);
                    wire::put_u64(&mut out, den);
                }
                DynAction::StraggleEnd { node } => {
                    wire::put_u8(&mut out, 2);
                    wire::put_u32(&mut out, node.0);
                }
                DynAction::Fail {
                    node,
                    restart_delay,
                } => {
                    wire::put_u8(&mut out, 3);
                    wire::put_u32(&mut out, node.0);
                    wire::put_u64(&mut out, restart_delay.as_nanos());
                }
            }
        }
        wire::put_u64(&mut out, v.dyn_events.next_seq());
    }
    put_usize_queue(&mut out, v.ready_events);

    // Active views. Static per-flow fields (ids, endpoints, oracle
    // sizes) re-derive from the trace; the synced dynamic fields are the
    // view's own state — they lag ground truth between boundaries.
    wire::put_u64(&mut out, v.views.len() as u64);
    for (slot, view) in v.views.iter().enumerate() {
        wire::put_u64(&mut out, v.view_owner[slot] as u64);
        wire::put_u64(&mut out, view.arrival.as_nanos());
        wire::put_u8(&mut out, view.restarted as u8);
        for fv in &view.flows {
            wire::put_u64(&mut out, fv.sent.0);
            wire::put_u8(&mut out, fv.ready as u8);
            wire::put_u8(&mut out, fv.finished as u8);
        }
    }

    let slab = v.bank.capacity_slab();
    wire::put_u64(&mut out, slab.len() as u64);
    for &cap in slab {
        wire::put_u64(&mut out, cap);
    }
    for &s in v.straggled {
        wire::put_u8(&mut out, s as u8);
    }
    wire::put_u64(&mut out, v.flowing.len() as u64);
    for &fi in v.flowing {
        wire::put_u64(&mut out, fi as u64);
    }
    wire::put_u64(&mut out, v.dirty_list.len() as u64);
    for &ci in v.dirty_list {
        wire::put_u64(&mut out, ci as u64);
    }

    wire::put_bytes(&mut out, sched.name().as_bytes());
    let mut sched_blob = Vec::new();
    sched.save_state(&mut sched_blob);
    wire::put_bytes(&mut out, &sched_blob);
    out
}

pub(crate) fn apply(
    blob: &[u8],
    trace: &Trace,
    cfg: &SimConfig,
    sched: &mut dyn CoflowScheduler,
) -> Result<Restored, String> {
    let mut r = Reader::new(blob);
    let version = r.u8()?;
    if version != VERSION {
        return Err(format!("unknown snapshot version {version}"));
    }
    let (mut flows, mut coflows) = flatten(trace);
    let num_nodes = trace.num_nodes;
    let snap_nodes = r.u64()?;
    let snap_coflows = r.u64()?;
    let snap_flows = r.u64()?;
    let snap_clair = r.u8()? != 0;
    let snap_delta = r.u64()?;
    if snap_nodes != num_nodes as u64
        || snap_coflows != coflows.len() as u64
        || snap_flows != flows.len() as u64
    {
        return Err(format!(
            "snapshot shape ({snap_nodes} nodes, {snap_coflows} coflows, {snap_flows} flows) \
             does not match the trace ({} nodes, {} coflows, {} flows)",
            num_nodes,
            coflows.len(),
            flows.len()
        ));
    }
    if snap_clair != cfg.clairvoyant || snap_delta != cfg.delta.as_nanos() {
        return Err(format!(
            "snapshot config (clairvoyant {snap_clair}, delta {snap_delta} ns) does not match \
             the run (clairvoyant {}, delta {} ns)",
            cfg.clairvoyant,
            cfg.delta.as_nanos()
        ));
    }

    let now = Time(r.u64()?);
    let rounds = r.u64()?;

    for f in flows.iter_mut() {
        f.sent = saath_simcore::Bytes(r.u64()?);
        f.rate = Rate(r.u64()?);
        f.ready_at = Time(r.u64()?);
        f.finished_at = get_opt_time(&mut r)?;
        // The completion prediction is derived from the fields above;
        // a blob whose copy disagrees does not describe one state.
        let pred = Time(r.u64()?);
        if pred != prediction(f, now) {
            return Err(format!(
                "snapshot predicts a flow of coflow {} done at {pred}, its rate and bytes say {}",
                f.coflow,
                prediction(f, now)
            ));
        }
    }
    for c in coflows.iter_mut() {
        c.released = get_opt_time(&mut r)?;
        c.finished = get_opt_time(&mut r)?;
        c.unfinished = r.u64()? as usize;
        c.deps_left = r.u64()? as usize;
        c.restarted = r.u8()? != 0;
        let slot = r.u64()?;
        c.view_slot = if slot == u64::MAX {
            usize::MAX
        } else {
            slot as usize
        };
    }

    let arrivals = get_usize_queue(&mut r, coflows.len())?;
    let dyn_events = {
        let n = r.u64()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let at = Time(r.u64()?);
            let seq = r.u64()?;
            let tag = r.u8()?;
            let action = match tag {
                1 => DynAction::StraggleStart {
                    node: NodeId(r.u32()?),
                    num: r.u64()?,
                    den: r.u64()?,
                },
                2 => DynAction::StraggleEnd {
                    node: NodeId(r.u32()?),
                },
                3 => DynAction::Fail {
                    node: NodeId(r.u32()?),
                    restart_delay: Duration(r.u64()?),
                },
                t => return Err(format!("unknown dynamics action tag {t}")),
            };
            entries.push((at, seq, action));
        }
        let next_seq = r.u64()?;
        EventQueue::from_entries(entries, next_seq)
    };
    let ready_events = get_usize_queue(&mut r, coflows.len())?;

    let n_views = r.u64()? as usize;
    if n_views > coflows.len() {
        return Err(format!("{n_views} active views exceed the coflow count"));
    }
    let mut views: Vec<CoflowView> = Vec::with_capacity(n_views);
    let mut view_owner: Vec<usize> = Vec::with_capacity(n_views);
    for slot in 0..n_views {
        let ci = r.u64()? as usize;
        if ci >= coflows.len() {
            return Err(format!("view owner {ci} out of range"));
        }
        if coflows[ci].view_slot != slot {
            return Err(format!(
                "view slot table inconsistent: coflow {ci} claims slot {}, found at {slot}",
                coflows[ci].view_slot
            ));
        }
        let arrival = Time(r.u64()?);
        let restarted = r.u8()? != 0;
        let mut view = make_view(trace, ci, coflows[ci].first_flow, arrival, cfg.clairvoyant);
        view.restarted = restarted;
        for fv in view.flows.iter_mut() {
            fv.sent = saath_simcore::Bytes(r.u64()?);
            fv.ready = r.u8()? != 0;
            fv.finished = r.u8()? != 0;
        }
        views.push(view);
        view_owner.push(ci);
    }

    let slab_len = r.u64()? as usize;
    if slab_len != 2 * num_nodes {
        return Err(format!(
            "capacity slab has {slab_len} ports, expected {}",
            2 * num_nodes
        ));
    }
    let mut bank = PortBank::uniform(num_nodes, trace.port_rate);
    for p in 0..slab_len {
        bank.set_capacity(PortId(p as u32), Rate(r.u64()?));
    }
    let mut straggled = vec![false; num_nodes];
    for s in straggled.iter_mut() {
        *s = r.u8()? != 0;
    }
    let n_flowing = r.u64()? as usize;
    let mut flowing = Vec::with_capacity(n_flowing);
    for _ in 0..n_flowing {
        let fi = r.u64()? as usize;
        if fi >= flows.len() {
            return Err(format!("flowing flow {fi} out of range"));
        }
        flowing.push(fi);
    }
    let n_dirty = r.u64()? as usize;
    let mut dirty = vec![false; coflows.len()];
    let mut dirty_list = Vec::with_capacity(n_dirty);
    for _ in 0..n_dirty {
        let ci = r.u64()? as usize;
        if ci >= coflows.len() {
            return Err(format!("dirty coflow {ci} out of range"));
        }
        dirty[ci] = true;
        dirty_list.push(ci);
    }

    let name = String::from_utf8(r.bytes()?.to_vec())
        .map_err(|e| format!("scheduler name is not UTF-8: {e}"))?;
    if name != sched.name() {
        return Err(format!(
            "snapshot was taken under scheduler '{name}', resuming under '{}'",
            sched.name()
        ));
    }
    sched.restore_state(r.bytes()?)?;
    if !r.is_empty() {
        return Err(format!("{} trailing bytes in snapshot blob", r.remaining()));
    }

    Ok(Restored {
        now,
        rounds,
        flows,
        coflows,
        arrivals,
        dyn_events,
        ready_events,
        views,
        view_owner,
        bank,
        straggled,
        flowing,
        dirty,
        dirty_list,
    })
}
