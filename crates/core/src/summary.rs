//! Bounded-staleness contention summaries for partitioned-compute
//! sharding.
//!
//! At staleness 0 every coordinator shard replicates the *full* policy
//! to keep records byte-identical, so sharding adds wall overhead
//! instead of dividing the compute. Staleness ≥ 1 divides it: each shard
//! keeps full [`crate::view::CoflowView`]s only for the CoFlows it owns
//! (via [`crate::view::shard_of`]) plus one compact
//! [`ContentionSummary`] per remote shard, refreshed every S rounds
//! (the *staleness budget*). A summary carries exactly what Saath's
//! spatial decisions need from remote CoFlows:
//!
//! * **per-port occupancy** — how many remote CoFlows have an
//!   unfinished flow on each port, which lower-bounds the remote
//!   contribution to any owned CoFlow's `k_c` (LCoF, §3.3);
//! * **per-port claimed rate** — the capacity the remote shard's last
//!   schedule took on each port, pre-charged against the local bank
//!   down to a reserve of capacity/K per port (so backoff over a
//!   shared hot port stays partial instead of oscillating, and no
//!   saturated peer can monopolize a port) so admission does not hand
//!   out capacity a remote shard already claimed;
//! * **per-queue aggregates** — remote CoFlow counts and `k_c` sums per
//!   priority queue, exported for observability (queue-occupancy
//!   dashboards stay cluster-wide even though no shard sees every
//!   CoFlow).
//!
//! Everything is integer-exact and deterministic; the summary a shard
//! exports is a pure function of its tracker state, so partitioned runs
//! replay bit-for-bit. Staleness semantics: S=0 means *exchange
//! everything every round* — no state is omitted, shards degenerate to
//! full replicas and records are byte-identical to the single
//! coordinator (the replicated oracle). S≥1 exchanges summaries every S
//! rounds; decisions in between are made against summaries up to S−1
//! rounds old, trading bounded CCT deviation for per-shard compute that
//! scales with *owned* CoFlows only.

use crate::view::CoflowView;
use crate::Saath;
use saath_fabric::PortBank;
use saath_simcore::{CoflowId, FlowId, PortId, Rate};

/// One shard's compact export of its contention state, consumed by
/// every other shard. See the module docs for field semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContentionSummary {
    /// Exporting shard.
    pub shard: u32,
    /// Scheduling round the summary was exported after (age = current
    /// round − this).
    pub round: u64,
    /// `(port index, active CoFlow count)` for every port where the
    /// shard has at least one CoFlow with an unfinished flow, sorted by
    /// port index.
    pub port_coflows: Vec<(u32, u32)>,
    /// `(port index, claimed rate)` from the shard's last emitted
    /// schedule slice, sorted by port index, zero entries omitted.
    pub port_rates: Vec<(u32, u64)>,
    /// Remote CoFlow count per priority queue.
    pub queue_coflows: Vec<u32>,
    /// Sum of remote `k_c` per priority queue.
    pub queue_kc_sum: Vec<u64>,
}

impl ContentionSummary {
    /// Resets to an empty summary (no remote CoFlows, nothing claimed)
    /// without giving buffers back.
    pub fn clear(&mut self) {
        self.shard = 0;
        self.round = 0;
        self.port_coflows.clear();
        self.port_rates.clear();
        self.queue_coflows.clear();
        self.queue_kc_sum.clear();
    }

    /// Wire size of this summary in the runtime's framing (mirrors the
    /// proto encoding: fixed header + length-prefixed element lists), so
    /// the simulator's `summary_bytes_exchanged` accounting matches what
    /// the distributed runtime would actually ship.
    pub fn encoded_len(&self) -> usize {
        4 + 8 // shard + round
            + 4 + 8 * self.port_coflows.len() // count + (u32, u32) each
            + 4 + 12 * self.port_rates.len() // count + (u32, u64) each
            + 4 + 4 * self.queue_coflows.len()
            + 4 + 8 * self.queue_kc_sum.len()
    }

    /// Remote CoFlows active on `port`, by binary search (the list is
    /// sorted by port index).
    pub fn coflows_on_port(&self, port: u32) -> u32 {
        match self.port_coflows.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => self.port_coflows[i].1,
            Err(_) => 0,
        }
    }
}

/// The remote contention addend for one owned CoFlow: for each remote
/// summary, the *maximum* per-port remote occupancy over the CoFlow's
/// unfinished-flow ports. Distinct remote CoFlows cannot be
/// distinguished across ports from counts alone, so taking the max per
/// shard (rather than the sum over ports) is a deterministic lower
/// bound on the number of distinct remote contenders — it never
/// overstates contention, keeping LCoF conservative about deprioritizing
/// owned CoFlows on stale information.
///
/// `scratch` holds the CoFlow's deduplicated port list between calls.
pub fn remote_contention(
    c: &CoflowView,
    num_nodes: usize,
    summaries: &[ContentionSummary],
    skip_shard: u32,
    scratch: &mut Vec<u32>,
) -> u32 {
    scratch.clear();
    for f in c.unfinished() {
        let e = f.endpoints(num_nodes);
        scratch.push(e.src.index() as u32);
        scratch.push(e.dst.index() as u32);
    }
    scratch.sort_unstable();
    scratch.dedup();
    let mut add = 0u32;
    for s in summaries {
        if s.shard == skip_shard || s.port_coflows.is_empty() {
            continue;
        }
        let mut best = 0u32;
        for &p in scratch.iter() {
            best = best.max(s.coflows_on_port(p));
        }
        add = add.saturating_add(best);
    }
    add
}

/// Prepares shard `shard`'s round against its peers' latest summaries
/// (`summaries[t]` from shard `t`; K = `summaries.len()`): installs the
/// [`remote_contention`] addend of every CoFlow in `coflows` on `sched`,
/// and pre-charges each peer's claimed port rates on `bank` (which the
/// caller has reset for the round) — but never below a **reserve** of
/// capacity/K per port. The reserve is what makes symmetric deferral
/// stable: without it, two shards sharing a hot port each see the
/// other's claim, both back off completely, the port idles, both
/// summaries go quiet, and both rush back in — a cycle that stays
/// perfectly synchronized at S=1. With the floor, a shard can always
/// admit at least its 1/K slice of any port, so backoff is partial, a
/// saturated peer can never monopolize a hot port, and under full
/// backlog the shards converge to a fair static split. The bounded
/// overcommit this allows is what the rotated merge clamp arbitrates.
///
/// With no summaries received (S=0, or before the first refresh) both
/// halves are no-ops. `remote_buf` and `port_scratch` are buffers the
/// caller keeps across rounds (this runs per shard per round).
#[allow(clippy::too_many_arguments)]
pub fn apply_peer_summaries(
    sched: &mut Saath,
    coflows: &[CoflowView],
    num_nodes: usize,
    summaries: &[ContentionSummary],
    shard: usize,
    bank: &mut PortBank,
    remote_buf: &mut Vec<(CoflowId, u32)>,
    port_scratch: &mut Vec<u32>,
) {
    remote_buf.clear();
    if summaries.iter().any(|s| !s.port_coflows.is_empty()) {
        for c in coflows {
            let add = remote_contention(c, num_nodes, summaries, shard as u32, port_scratch);
            if add > 0 {
                remote_buf.push((c.id, add));
            }
        }
    }
    sched.set_remote_contention(remote_buf);
    let k = summaries.len() as u64;
    for (_, peer) in summaries.iter().enumerate().filter(|&(t, _)| t != shard) {
        for &(p, r) in &peer.port_rates {
            let pid = PortId(p);
            let reserve = bank.capacity(pid).as_u64() / k;
            let chargeable = Rate(bank.remaining(pid).as_u64().saturating_sub(reserve));
            let give = Rate(r).min(chargeable);
            if !give.is_zero() {
                bank.allocate(pid, give);
            }
        }
    }
}

/// Aggregates a schedule slice's per-flow rates into per-port claimed
/// rates (both endpoints charged), sorted by port with zero entries
/// omitted — the `port_rates` half of a summary.
pub fn port_rates_of_slice(entries: &[(FlowId, Rate, PortId, PortId)], out: &mut Vec<(u32, u64)>) {
    out.clear();
    for &(_, rate, src, dst) in entries {
        out.push((src.index() as u32, rate.as_u64()));
        out.push((dst.index() as u32, rate.as_u64()));
    }
    out.sort_unstable_by_key(|&(p, _)| p);
    // Merge duplicate ports in place.
    let mut w = 0usize;
    for r in 0..out.len() {
        if w > 0 && out[w - 1].0 == out[r].0 {
            out[w - 1].1 = out[w - 1].1.saturating_add(out[r].1);
        } else {
            out[w] = out[r];
            w += 1;
        }
    }
    out.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FlowView;
    use saath_simcore::{Bytes, CoflowId, FlowId, NodeId, PortId, Rate, Time};

    fn cf(id: u32, flows: &[(u32, u32)]) -> CoflowView {
        CoflowView {
            id: CoflowId(id),
            arrival: Time::ZERO,
            flows: flows
                .iter()
                .enumerate()
                .map(|(i, (s, d))| FlowView {
                    id: FlowId(id * 100 + i as u32),
                    src: NodeId(*s),
                    dst: NodeId(*d),
                    sent: Bytes::ZERO,
                    ready: true,
                    finished: false,
                    oracle_size: None,
                })
                .collect(),
            restarted: false,
        }
    }

    #[test]
    fn remote_contention_takes_per_shard_port_max() {
        // Owned CoFlow on uplink 0 and downlink 5 (num_nodes = 4 →
        // downlink index 4 + 1 = 5).
        let c = cf(0, &[(0, 1)]);
        let mut s1 = ContentionSummary {
            shard: 1,
            ..Default::default()
        };
        s1.port_coflows = vec![(0, 3), (5, 2)]; // same shard on both ports
        let s2 = ContentionSummary {
            shard: 2,
            port_coflows: vec![(5, 1)],
            ..Default::default()
        };
        let mut scratch = Vec::new();
        // Shard 1 contributes max(3, 2) = 3 (its 3 CoFlows on port 0
        // may include the 2 on port 5); shard 2 contributes 1.
        assert_eq!(
            remote_contention(&c, 4, &[s1.clone(), s2.clone()], 0, &mut scratch),
            4
        );
        // A shard never counts its own summary.
        assert_eq!(remote_contention(&c, 4, &[s1, s2], 1, &mut scratch), 1);
    }

    #[test]
    fn port_rates_merge_and_sort() {
        let up0 = PortId::uplink(NodeId(0));
        let up1 = PortId::uplink(NodeId(1));
        let dn2 = PortId::downlink(NodeId(2), 4);
        let entries = vec![
            (FlowId(1), Rate(10), up0, dn2),
            (FlowId(2), Rate(5), up1, dn2),
        ];
        let mut out = Vec::new();
        port_rates_of_slice(&entries, &mut out);
        assert_eq!(
            out,
            vec![
                (up0.index() as u32, 10),
                (up1.index() as u32, 5),
                (dn2.index() as u32, 15),
            ]
        );
    }

    #[test]
    fn encoded_len_tracks_contents() {
        let mut s = ContentionSummary::default();
        let empty = s.encoded_len();
        s.port_coflows.push((3, 1));
        s.port_rates.push((3, 100));
        s.queue_coflows.push(1);
        s.queue_kc_sum.push(7);
        assert_eq!(s.encoded_len(), empty + 8 + 12 + 4 + 8);
        s.clear();
        assert_eq!(s.encoded_len(), empty);
    }
}
