//! The deterministic slice merge of the sharded coordinator, at every
//! staleness, in both domains.
//!
//! Lives in `saath-core` so both the runtime's reconciler and the
//! simulator's in-process `PartitionedScheduler` use the *same* merge —
//! the safety net that restores feasibility when shards disagree.

use crate::view::Schedule;
use saath_fabric::PortBank;
use saath_simcore::{FlowId, PortId, Rate};

/// Merges shard slices into one feasible schedule: entries are sorted
/// by flow id (the deterministic total order) and each rate is clamped
/// to the remaining capacity of the flow's two ports. Returns the
/// number of clamped entries — zero whenever the slices came from
/// agreeing replicas; nonzero only where shards diverged (a missed
/// stats wave, a fresh restart, or stale contention summaries in
/// partitioned mode), where clamping restores feasibility without
/// coordination.
///
/// The clamp order is rotated by `seed` (typically the scheduling
/// round): allocation starts `seed % len` entries into the sorted
/// order and wraps. When clamping is routine — the partitioned path,
/// where stale summaries let shards overcommit — a fixed order starves
/// the same high-id flows on contested ports every round; rotating the
/// order spreads the clamp damage across flows over time, bounding
/// per-CoFlow delay. With zero clamps (agreeing replicas) the order is
/// irrelevant, so the replicated path's byte-identity is unaffected.
pub fn merge_rates_rotated(
    entries: &mut [(FlowId, Rate, PortId, PortId)],
    bank: &mut PortBank,
    out: &mut Schedule,
    seed: u64,
) -> u64 {
    entries.sort_unstable_by_key(|(f, ..)| *f);
    let n = entries.len();
    let off = if n == 0 {
        0
    } else {
        (seed % n as u64) as usize
    };
    let mut clamps = 0u64;
    for i in 0..n {
        let (flow, rate, src, dst) = entries[(i + off) % n];
        let give = rate.min(bank.remaining(src)).min(bank.remaining(dst));
        if give < rate {
            clamps += 1;
        }
        if !give.is_zero() {
            bank.allocate(src, give);
            bank.allocate(dst, give);
            out.set(flow, give);
        }
    }
    clamps
}
