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
//!   equal instants is part of determinism); the active views (owner,
//!   arrival and the synced `sent`/`ready`/`finished`/`restarted`
//!   flags, which lag ground truth by design and are written so the
//!   format is unchanged); the port bank's capacity slab (straggler scaling);
//!   straggled-node flags; the `flowing` list (its order drives
//!   deterministic iteration); the dirty list; and the scheduler's
//!   historical state via [`CoflowScheduler::save_state`].
//! * **Rebuilt on resume** — static tables re-derived from the trace
//!   (sizes, endpoints, dependency edges); the rate classes (every
//!   flowing flow joins afresh at its `sent`, which the engine writes
//!   back before encoding — a class's state is its members' `sent`, so
//!   nothing else is lost); the views' synced flags (the engine walks
//!   every live view at its first sync, writing what the uninterrupted
//!   run's views hold after that sync); records of already-finished
//!   CoFlows; and
//!   every scheduler cache that is a pure function of the view, which
//!   the first post-resume round forces cold via `changed: None`.
//! * **Reset** — schedule-diff stamps (only within-round equality
//!   matters) and per-round scratch.
//!
//! Everything is fixed-width little-endian through `saath_simcore::codec`
//! (DESIGN.md, "Byte codec"); hash-map-order-dependent data never
//! enters the blob, so snapshotting the same state twice yields
//! identical bytes.
//!
//! [`apply`] is a loader, then a validator: [`decode`] reads the fields,
//! each index in range and each count within the bytes left, and
//! [`validate`] checks that they describe one state the epoch loop can
//! reach — the invariants it relies on without checking (a finished
//! CoFlow was released, a finished flow has its finish time, every
//! sending flow belongs to a live CoFlow, a flow that becomes ready
//! later has its readiness event queued, no instant the loop adds to
//! can overflow). A blob that fails either is refused with
//! `SimError::Snapshot`, never run.
//!
//! [`simulate_resumable`]: crate::engine::simulate_resumable
//! [`CoflowScheduler::save_state`]: saath_core::view::CoflowScheduler::save_state

use saath_core::view::{CoflowScheduler, CoflowView};
use saath_fabric::PortBank;
use saath_simcore::codec::{CodecError, Put as _, Reader};
use saath_simcore::{Bytes, Duration, EventQueue, NodeId, PortId, Rate, Time};
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
            out.put_u8(1);
            out.put_u64_le(t.as_nanos());
        }
        None => {
            out.put_u8(0);
            out.put_u64_le(0);
        }
    }
}

fn put_usize_queue(out: &mut Vec<u8>, q: &EventQueue<usize>) {
    let entries = q.entries();
    out.put_u64_le(entries.len() as u64);
    for (at, seq, &payload) in entries {
        out.put_u64_le(at.as_nanos());
        out.put_u64_le(seq);
        out.put_u64_le(payload as u64);
    }
    out.put_u64_le(q.next_seq());
}

pub(crate) fn encode(
    v: &SnapshotView<'_>,
    trace: &Trace,
    cfg: &SimConfig,
    sched: &dyn CoflowScheduler,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_u8(VERSION);
    // Shape fingerprint: refuse to resume against the wrong run.
    out.put_u64_le(trace.num_nodes as u64);
    out.put_u64_le(v.coflows.len() as u64);
    out.put_u64_le(v.flows.len() as u64);
    out.put_u8(cfg.clairvoyant as u8);
    out.put_u64_le(cfg.delta.as_nanos());

    out.put_u64_le(v.now.as_nanos());
    out.put_u64_le(v.rounds);

    for f in v.flows {
        out.put_u64_le(f.sent.0);
        out.put_u64_le(f.rate.0);
        out.put_u64_le(f.ready_at.as_nanos());
        put_opt_time(&mut out, f.finished_at);
        out.put_u64_le(prediction(f, v.now).as_nanos());
    }
    for c in v.coflows {
        put_opt_time(&mut out, c.released);
        put_opt_time(&mut out, c.finished);
        out.put_u64_le(c.unfinished as u64);
        out.put_u64_le(c.deps_left as u64);
        out.put_u8(c.restarted as u8);
        out.put_u64_le(if c.view_slot == usize::MAX {
            u64::MAX
        } else {
            c.view_slot as u64
        });
    }

    put_usize_queue(&mut out, v.arrivals);
    {
        let entries = v.dyn_events.entries();
        out.put_u64_le(entries.len() as u64);
        for (at, seq, action) in entries {
            out.put_u64_le(at.as_nanos());
            out.put_u64_le(seq);
            match *action {
                DynAction::StraggleStart { node, num, den } => {
                    out.put_u8(1);
                    out.put_u32_le(node.0);
                    out.put_u64_le(num);
                    out.put_u64_le(den);
                }
                DynAction::StraggleEnd { node } => {
                    out.put_u8(2);
                    out.put_u32_le(node.0);
                }
                DynAction::Fail {
                    node,
                    restart_delay,
                } => {
                    out.put_u8(3);
                    out.put_u32_le(node.0);
                    out.put_u64_le(restart_delay.as_nanos());
                }
            }
        }
        out.put_u64_le(v.dyn_events.next_seq());
    }
    put_usize_queue(&mut out, v.ready_events);

    // Active views. Static per-flow fields (ids, endpoints, oracle
    // sizes) re-derive from the trace; the synced dynamic fields are the
    // view's own state — they lag ground truth between boundaries.
    out.put_u64_le(v.views.len() as u64);
    for (slot, view) in v.views.iter().enumerate() {
        out.put_u64_le(v.view_owner[slot] as u64);
        out.put_u64_le(view.arrival.as_nanos());
        out.put_u8(view.restarted as u8);
        for fv in &view.flows {
            out.put_u64_le(fv.sent.0);
            out.put_u8(fv.ready as u8);
            out.put_u8(fv.finished as u8);
        }
    }

    let slab = v.bank.capacity_slab();
    out.put_u64_le(slab.len() as u64);
    for &cap in slab {
        out.put_u64_le(cap);
    }
    for &s in v.straggled {
        out.put_u8(s as u8);
    }
    out.put_u64_le(v.flowing.len() as u64);
    for &fi in v.flowing {
        out.put_u64_le(fi as u64);
    }
    out.put_u64_le(v.dirty_list.len() as u64);
    for &ci in v.dirty_list {
        out.put_u64_le(ci as u64);
    }

    out.put_bytes_le(sched.name().as_bytes());
    let mut sched_blob = Vec::new();
    sched.save_state(&mut sched_blob);
    out.put_bytes_le(&sched_blob);
    out
}

/// Restores the epoch-loop state `blob` describes, or says why it
/// describes none: the blob must decode ([`decode`]) and the state
/// must be one the loop can reach ([`validate`]). `fresh_dyn` is the
/// run's dynamics queue as `simulate_resumable` built it: the blob's
/// pending events must be the spec's. The scheduler's state is restored
/// last, once the engine's has passed.
pub(crate) fn apply(
    blob: &[u8],
    trace: &Trace,
    cfg: &SimConfig,
    fresh_dyn: &EventQueue<DynAction>,
    sched: &mut dyn CoflowScheduler,
) -> Result<Restored, String> {
    let mut r = Reader::new(blob);
    let (st, sched_blob) = decode(&mut r, trace, cfg, sched.name()).map_err(|e| e.to_string())?;
    validate(&st, trace, fresh_dyn)?;
    sched.restore_state(sched_blob)?;
    Ok(st)
}

/// An instant, refused past [`Time::LATEST`] unless it is the `NEVER`
/// sentinel. `Trace::validate` holds arrivals to the same bound, so a
/// run the engine accepts writes only snapshots it can resume.
fn instant(r: &mut Reader<'_>, field: &'static str) -> Result<Time, CodecError> {
    let t = Time(r.u64_le(field)?);
    if t > Time::LATEST && !t.is_never() {
        return Err(r.invalid(field, format!("instant {t} is past {}", Time::LATEST)));
    }
    Ok(t)
}

fn opt_instant(r: &mut Reader<'_>, field: &'static str) -> Result<Option<Time>, CodecError> {
    let set = r.bool(field)?;
    let t = instant(r, field)?;
    Ok(set.then_some(t))
}

/// An index below `len`.
fn index(r: &mut Reader<'_>, field: &'static str, len: usize) -> Result<usize, CodecError> {
    let i = r.u64_le(field)?;
    if i >= len as u64 {
        return Err(r.invalid(field, format!("index {i} out of range (< {len})")));
    }
    Ok(i as usize)
}

/// A queue of CoFlow indices: `(at, seq, coflow)` entries, then the
/// queue's next sequence number.
fn usize_queue(
    r: &mut Reader<'_>,
    field: &'static str,
    n_coflows: usize,
) -> Result<EventQueue<usize>, CodecError> {
    let n = r.count_le(field, 24)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let at = instant(r, field)?;
        let seq = r.u64_le(field)?;
        entries.push((at, seq, index(r, field, n_coflows)?));
    }
    Ok(EventQueue::from_entries(entries, r.u64_le(field)?))
}

/// Reads every field of the blob, each index in range and each count
/// within the bytes left; the scheduler's blob is handed back unread.
fn decode<'b>(
    r: &mut Reader<'b>,
    trace: &Trace,
    cfg: &SimConfig,
    sched_name: &str,
) -> Result<(Restored, &'b [u8]), CodecError> {
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(r.invalid("version", format!("unknown snapshot version {version}")));
    }
    let (mut flows, mut coflows) = flatten(trace);
    let num_nodes = trace.num_nodes;
    let snap_nodes = r.u64_le("num_nodes")?;
    let snap_coflows = r.u64_le("coflow count")?;
    let snap_flows = r.u64_le("flow count")?;
    let snap_clair = r.bool("clairvoyant")?;
    let snap_delta = r.u64_le("delta")?;
    if snap_nodes != num_nodes as u64
        || snap_coflows != coflows.len() as u64
        || snap_flows != flows.len() as u64
    {
        return Err(r.invalid(
            "shape",
            format!(
                "snapshot shape ({snap_nodes} nodes, {snap_coflows} coflows, {snap_flows} flows) \
                 does not match the trace ({} nodes, {} coflows, {} flows)",
                num_nodes,
                coflows.len(),
                flows.len()
            ),
        ));
    }
    if snap_clair != cfg.clairvoyant || snap_delta != cfg.delta.as_nanos() {
        return Err(r.invalid(
            "config",
            format!(
                "snapshot config (clairvoyant {snap_clair}, delta {snap_delta} ns) does not \
                 match the run (clairvoyant {}, delta {} ns)",
                cfg.clairvoyant,
                cfg.delta.as_nanos()
            ),
        ));
    }

    let now = instant(r, "now")?;
    if now.is_never() {
        return Err(r.invalid("now", "the clock reads never"));
    }
    let rounds = r.u64_le("rounds")?;
    if rounds > cfg.max_rounds {
        return Err(r.invalid(
            "rounds",
            format!(
                "{rounds} rounds exceed the run's limit of {}",
                cfg.max_rounds
            ),
        ));
    }

    for f in flows.iter_mut() {
        f.sent = Bytes(r.u64_le("flow sent")?);
        f.rate = Rate(r.u64_le("flow rate")?);
        f.ready_at = instant(r, "flow ready_at")?;
        f.finished_at = opt_instant(r, "flow finished_at")?;
        // The completion prediction is derived from the fields above;
        // a blob whose copy disagrees does not describe one state.
        let pred = Time(r.u64_le("flow prediction")?);
        if f.sent > f.size {
            return Err(r.invalid("flow sent", format!("{} of a {}-byte flow", f.sent, f.size)));
        }
        if pred != prediction(f, now) {
            return Err(r.invalid(
                "flow prediction",
                format!(
                    "snapshot predicts a flow of coflow {} done at {pred}, its rate and bytes say {}",
                    f.coflow,
                    prediction(f, now)
                ),
            ));
        }
    }
    for c in coflows.iter_mut() {
        c.released = opt_instant(r, "coflow released")?;
        c.finished = opt_instant(r, "coflow finished")?;
        c.unfinished = r.u64_le("coflow unfinished")? as usize;
        c.deps_left = r.u64_le("coflow deps_left")? as usize;
        c.restarted = r.bool("coflow restarted")?;
        let slot = r.u64_le("coflow view slot")?;
        c.view_slot = if slot == u64::MAX {
            usize::MAX
        } else if slot < snap_coflows {
            slot as usize
        } else {
            return Err(r.invalid("coflow view slot", format!("slot {slot} out of range")));
        };
    }

    let arrivals = usize_queue(r, "arrivals", coflows.len())?;
    let dyn_events = {
        let n = r.count_le("dynamics", 21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            // Not bounded: `validate` holds each entry to the spec's.
            let at = Time(r.u64_le("dynamics at")?);
            let seq = r.u64_le("dynamics seq")?;
            let action = match r.u8("dynamics tag")? {
                1 => DynAction::StraggleStart {
                    node: NodeId(r.u32_le("dynamics node")?),
                    num: r.u64_le("dynamics num")?,
                    den: r.u64_le("dynamics den")?,
                },
                2 => DynAction::StraggleEnd {
                    node: NodeId(r.u32_le("dynamics node")?),
                },
                3 => DynAction::Fail {
                    node: NodeId(r.u32_le("dynamics node")?),
                    restart_delay: Duration(r.u64_le("dynamics restart delay")?),
                },
                t => {
                    return Err(
                        r.invalid("dynamics tag", format!("unknown dynamics action tag {t}"))
                    )
                }
            };
            entries.push((at, seq, action));
        }
        EventQueue::from_entries(entries, r.u64_le("dynamics next seq")?)
    };
    let ready_events = usize_queue(r, "readiness", coflows.len())?;

    let n_views = r.count_le("views", 17)?;
    let mut views: Vec<CoflowView> = Vec::with_capacity(n_views);
    let mut view_owner: Vec<usize> = Vec::with_capacity(n_views);
    for slot in 0..n_views {
        let ci = index(r, "view owner", coflows.len())?;
        if coflows[ci].view_slot != slot {
            return Err(r.invalid(
                "view owner",
                format!(
                    "view slot table inconsistent: coflow {ci} claims slot {}, found at {slot}",
                    coflows[ci].view_slot
                ),
            ));
        }
        let arrival = instant(r, "view arrival")?;
        let restarted = r.bool("view restarted")?;
        let mut view = make_view(trace, ci, coflows[ci].first_flow, arrival, cfg.clairvoyant);
        view.restarted = restarted;
        for fv in view.flows.iter_mut() {
            fv.sent = Bytes(r.u64_le("view flow sent")?);
            fv.ready = r.bool("view flow ready")?;
            fv.finished = r.bool("view flow finished")?;
        }
        views.push(view);
        view_owner.push(ci);
    }

    let slab_len = r.count_le("capacity slab", 8)?;
    if slab_len != 2 * num_nodes {
        return Err(r.invalid(
            "capacity slab",
            format!(
                "capacity slab has {slab_len} ports, expected {}",
                2 * num_nodes
            ),
        ));
    }
    let mut bank = PortBank::uniform(num_nodes, trace.port_rate);
    for p in 0..slab_len {
        bank.set_capacity(PortId(p as u32), Rate(r.u64_le("port capacity")?));
    }
    let mut straggled = vec![false; num_nodes];
    for s in straggled.iter_mut() {
        *s = r.bool("straggled")?;
    }
    let n_flowing = r.count_le("flowing", 8)?;
    let mut flowing = Vec::with_capacity(n_flowing);
    for _ in 0..n_flowing {
        flowing.push(index(r, "flowing flow", flows.len())?);
    }
    let n_dirty = r.count_le("dirty", 8)?;
    let mut dirty = vec![false; coflows.len()];
    let mut dirty_list = Vec::with_capacity(n_dirty);
    for _ in 0..n_dirty {
        let ci = index(r, "dirty coflow", coflows.len())?;
        if std::mem::replace(&mut dirty[ci], true) {
            return Err(r.invalid("dirty coflow", format!("coflow {ci} listed twice")));
        }
        dirty_list.push(ci);
    }

    let name = r.bytes_le("scheduler name")?;
    if name != sched_name.as_bytes() {
        return Err(r.invalid(
            "scheduler name",
            format!(
                "snapshot was taken under scheduler '{}', resuming under '{sched_name}'",
                String::from_utf8_lossy(name)
            ),
        ));
    }
    let sched_blob = r.bytes_le("scheduler state")?;
    r.finish("snapshot blob")?;

    let st = Restored {
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
    };
    Ok((st, sched_blob))
}

/// Checks that a decoded state is one the epoch loop reaches at the top
/// of an iteration. Each check names an invariant the loop relies on
/// without checking it; a state that breaks one would panic, overflow,
/// or run on from a state no run was ever in.
fn validate(st: &Restored, trace: &Trace, fresh_dyn: &EventQueue<DynAction>) -> Result<(), String> {
    let Restored {
        now,
        flows,
        coflows,
        ..
    } = st;
    let now = *now;
    // Dependencies still pending per CoFlow: its unfinished gates.
    let mut gates = vec![0usize; coflows.len()];
    for c in coflows.iter().filter(|c| c.finished.is_none()) {
        for &di in &c.dependents {
            gates[di] += 1;
        }
    }
    for (ci, c) in coflows.iter().enumerate() {
        let fl = &flows[c.first_flow..c.first_flow + c.num_flows];
        let bad = |why: &str| Err(format!("coflow {ci}: {why}"));
        let Some(released) = c.released else {
            let pristine = fl.iter().all(|f| {
                f.sent == Bytes::ZERO
                    && f.rate.is_zero()
                    && f.finished_at.is_none()
                    && f.ready_at.is_never()
            });
            if c.finished.is_some() {
                return bad("finished before release");
            }
            if !pristine || c.unfinished != c.num_flows || c.restarted || c.view_slot != usize::MAX
            {
                return bad("holds progress, a flag or a view before release");
            }
            if c.deps_left != gates[ci] {
                return bad("its pending dependency count is not its unfinished dependencies'");
            }
            continue;
        };
        if released > now || c.deps_left != 0 || gates[ci] != 0 {
            return bad("released in the future or ahead of a dependency");
        }
        let mut unfinished = 0;
        let mut last = released;
        for f in fl {
            match f.finished_at {
                None if f.sent < f.size => unfinished += 1,
                Some(t) if f.sent == f.size && released <= t && t <= now => last = last.max(t),
                _ => return bad("a flow's bytes and finish time disagree"),
            }
        }
        if c.unfinished != unfinished {
            return bad("its unfinished count is not its unfinished flows'");
        }
        match c.finished {
            None if unfinished > 0 && c.view_slot != usize::MAX => {}
            Some(t) if unfinished == 0 && t == last && c.view_slot == usize::MAX => {}
            _ => return bad("its finish time, flows and view disagree"),
        }
    }

    // The views: one per live CoFlow (`decode` checked the slot table
    // one way), arrived at its release. Their synced fields are not
    // checked: the resume walks every live view at its first sync.
    if st.views.len() != coflows.iter().filter(|c| c.view_slot != usize::MAX).count() {
        return Err("a live coflow has no view".into());
    }
    for (view, &ci) in st.views.iter().zip(&st.view_owner) {
        if Some(view.arrival) != coflows[ci].released {
            return Err(format!("coflow {ci}: its view arrived at another instant"));
        }
    }

    // The rate classes are rebuilt from `flowing`, so it must list each
    // unfinished flow with a rate exactly once, and nothing else; no
    // rate exceeds a port.
    let mut listed = vec![false; flows.len()];
    for &fi in &st.flowing {
        let f = &flows[fi];
        if std::mem::replace(&mut listed[fi], true)
            || f.finished_at.is_some()
            || f.rate.is_zero()
            || f.rate > trace.port_rate
            || coflows[f.coflow].view_slot == usize::MAX
        {
            return Err(format!(
                "flowing flow {fi} is listed twice, finished, paused, too fast or not live"
            ));
        }
    }
    let sending = flows
        .iter()
        .filter(|f| f.finished_at.is_none() && !f.rate.is_zero())
        .count();
    if sending != st.flowing.len() {
        return Err(format!(
            "{sending} flows hold a rate but {} are listed as flowing",
            st.flowing.len()
        ));
    }

    // Ports run at nominal capacity unless their node straggles, and
    // never above it.
    for (node, &slow) in st.straggled.iter().enumerate() {
        let nid = NodeId(node as u32);
        for port in [PortId::uplink(nid), PortId::downlink(nid, trace.num_nodes)] {
            let cap = st.bank.capacity(port);
            if cap > trace.port_rate || (!slow && cap != trace.port_rate) {
                return Err(format!("port {} runs at {cap}", port.index()));
            }
        }
    }

    // Each pending release is of a CoFlow whose gates are open, once;
    // it is due at its arrival, or at the later finish that opened it.
    let mut pending = vec![false; coflows.len()];
    for (at, seq, &ci) in st.arrivals.entries() {
        let c = &coflows[ci];
        let arrival = trace.coflows[ci].arrival;
        if std::mem::replace(&mut pending[ci], true)
            || c.released.is_some()
            || c.deps_left != 0
            || seq >= st.arrivals.next_seq()
            || !(at == arrival || (arrival < at && at <= now))
        {
            return Err(format!(
                "the release of coflow {ci} is not pending as queued"
            ));
        }
    }
    // A live flow that becomes ready later has its readiness event
    // queued: that event is what re-syncs its view then.
    let mut wakes = Vec::new();
    for (at, seq, &ci) in st.ready_events.entries() {
        if seq >= st.ready_events.next_seq() {
            return Err("a readiness event is numbered past its queue".into());
        }
        wakes.push((at, ci));
    }
    wakes.sort_unstable();
    for (fi, f) in flows.iter().enumerate() {
        let live = coflows[f.coflow].view_slot != usize::MAX;
        let later = now < f.ready_at && !f.ready_at.is_never();
        let woken = || wakes.binary_search(&(f.ready_at, f.coflow)).is_ok();
        if live && later && f.finished_at.is_none() && !woken() {
            return Err(format!(
                "flow {fi} becomes ready with no readiness event queued"
            ));
        }
    }
    // Dynamics are never queued during a run: the pending ones are the
    // spec's own, with their sequence numbers.
    let mut spec = fresh_dyn.entries();
    spec.sort_by_key(|&(_, seq, _)| seq);
    for (at, seq, action) in st.dyn_events.entries() {
        let known = spec
            .binary_search_by_key(&seq, |&(_, s, _)| s)
            .is_ok_and(|i| spec[i].0 == at && spec[i].2 == action);
        if !known {
            return Err(format!("dynamics event {seq} is not the run's"));
        }
    }
    if st.dyn_events.next_seq() != fresh_dyn.next_seq() {
        return Err("the dynamics queue is not the run's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_core::Saath;
    use saath_eventlog::{index_log, ChainDigest, EventLogWriter, LogHeader};
    use saath_workload::DynamicsSpec;

    /// Edits a decoded snapshot's `flowing` list, given the flows.
    type Edit = dyn Fn(&mut Vec<usize>, &[SimFlow]);

    /// Every snapshot a Saath run of `trace` writes, one each 20 rounds,
    /// and how the run ended.
    fn snapshots(
        trace: &Trace,
        cfg: &SimConfig,
    ) -> (Result<crate::SimOutput, crate::SimError>, Vec<Vec<u8>>) {
        let header = LogHeader {
            num_nodes: trace.num_nodes as u64,
            port_rate: trace.port_rate.as_u64(),
            delta_ns: cfg.delta.as_nanos(),
            scheduler: "saath".into(),
            trace_digest: ChainDigest::ZERO,
            start_round: 0,
            start_digest: ChainDigest::ZERO,
        };
        let mut w = EventLogWriter::new(Vec::new(), &header).unwrap();
        let out = crate::simulate_resumable(
            trace,
            &mut Saath::with_defaults(),
            cfg,
            &DynamicsSpec::none(),
            crate::ReplayHooks {
                sink: Some(&mut w),
                snapshot_every: 20,
                ..crate::ReplayHooks::none()
            },
        );
        let log = w.into_inner().unwrap();
        let blobs = index_log(&log)
            .unwrap()
            .snapshots
            .iter()
            .map(|s| s.blob.to_vec())
            .collect();
        (out, blobs)
    }

    /// A snapshot taken mid-run, decoded, its `flowing` list edited by
    /// `edit`, and encoded again.
    fn edited_blob(edit: &Edit) -> (Trace, Vec<u8>) {
        let trace = saath_workload::gen::generate(&saath_workload::gen::small(5, 8, 12));
        let cfg = SimConfig::default();
        let (out, blobs) = snapshots(&trace, &cfg);
        out.unwrap();
        let mut sched = Saath::with_defaults();
        let blob = blobs
            .into_iter()
            .find(|b| {
                !apply(b, &trace, &cfg, &EventQueue::new(), &mut sched)
                    .unwrap()
                    .flowing
                    .is_empty()
            })
            .expect("no snapshot with a flow sending");
        let mut st = apply(&blob, &trace, &cfg, &EventQueue::new(), &mut sched).unwrap();
        edit(&mut st.flowing, &st.flows);
        let blob = encode(
            &SnapshotView {
                now: st.now,
                rounds: st.rounds,
                flows: &st.flows,
                coflows: &st.coflows,
                arrivals: &st.arrivals,
                dyn_events: &st.dyn_events,
                ready_events: &st.ready_events,
                views: &st.views,
                view_owner: &st.view_owner,
                bank: &st.bank,
                straggled: &st.straggled,
                flowing: &st.flowing,
                dirty_list: &st.dirty_list,
            },
            &trace,
            &cfg,
            &sched,
        );
        (trace, blob)
    }

    /// The rate classes are rebuilt from `flowing`, so a blob whose list
    /// is not exactly the flows that send is refused.
    #[test]
    fn apply_refuses_a_flowing_list_that_is_not_the_sending_flows() {
        let cfg = SimConfig::default();
        let (trace, blob) = edited_blob(&|_, _| {});
        assert!(apply(
            &blob,
            &trace,
            &cfg,
            &EventQueue::new(),
            &mut Saath::with_defaults()
        )
        .is_ok());
        let edits: [(&str, &Edit); 3] = [
            ("listed twice", &|flowing, _| flowing.push(flowing[0])),
            ("a sender left out", &|flowing, _| {
                flowing.pop();
            }),
            ("a paused flow listed", &|flowing, flows| {
                let paused = (0..flows.len())
                    .find(|&fi| flows[fi].rate.is_zero())
                    .expect("every flow sends");
                flowing.push(paused);
            }),
        ];
        for (what, edit) in edits {
            let (trace, blob) = edited_blob(edit);
            let err = apply(
                &blob,
                &trace,
                &cfg,
                &EventQueue::new(),
                &mut Saath::with_defaults(),
            );
            assert!(err.is_err(), "{what}: applied");
        }
    }

    /// A trace whose last CoFlow arrives at the latest instant a trace
    /// may hold: every snapshot taken while that arrival is pending
    /// resumes.
    #[test]
    fn a_snapshot_holding_the_latest_arrival_applies() {
        let mut trace = saath_workload::gen::generate(&saath_workload::gen::small(5, 8, 12));
        trace.coflows.last_mut().unwrap().arrival = Time::LATEST;
        let cfg = SimConfig {
            max_rounds: 200,
            ..SimConfig::default()
        };
        let (_, blobs) = snapshots(&trace, &cfg);
        assert!(!blobs.is_empty(), "no snapshot taken");
        for (i, blob) in blobs.iter().enumerate() {
            let st = apply(
                blob,
                &trace,
                &cfg,
                &EventQueue::new(),
                &mut Saath::with_defaults(),
            );
            assert!(st.is_ok(), "snapshot {i}: {:?}", st.err());
        }
    }
}
