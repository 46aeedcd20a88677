//! Per-port capacity accounting for one scheduling round.

use saath_simcore::{NodeId, PortId, Rate};
use serde::{Deserialize, Serialize};

/// The fabric's contended resources: `2N` ports (uplink `0..N`,
/// downlink `N..2N`) with a capacity each, plus a *remaining* vector
/// that one scheduling round draws down as it admits flows.
///
/// Capacities can differ per port — that is how straggling or degraded
/// nodes are modelled (§4.3): a straggler's ports keep working at a
/// fraction of their nominal rate.
///
/// Internally both vectors are raw `u64` slabs (structure-of-arrays)
/// rather than `Vec<Rate>`: the allocators' inner loops
/// ([`max_min_fair_into`], MADD, gang rates) bulk-read them, and plain
/// integer slabs let those loops autovectorize. `Rate` is a transparent
/// `u64` newtype, so the serialized form is unchanged. The typed
/// [`Rate`] API stays the only mutation path.
///
/// [`max_min_fair_into`]: crate::maxmin::max_min_fair_into
#[derive(Debug, Serialize, Deserialize)]
pub struct PortBank {
    num_nodes: usize,
    nominal: Rate,
    capacity: Vec<u64>,
    remaining: Vec<u64>,
}

/// `clone_from` reuses the target's buffers, so a copy of the bank
/// taken again and again into one scratch bank allocates nothing once
/// the scratch is as large as the bank.
impl Clone for PortBank {
    fn clone(&self) -> PortBank {
        PortBank {
            num_nodes: self.num_nodes,
            nominal: self.nominal,
            capacity: self.capacity.clone(),
            remaining: self.remaining.clone(),
        }
    }

    fn clone_from(&mut self, source: &PortBank) {
        self.num_nodes = source.num_nodes;
        self.nominal = source.nominal;
        self.capacity.clone_from(&source.capacity);
        self.remaining.clone_from(&source.remaining);
    }
}

impl PortBank {
    /// A bank of `2 * num_nodes` ports, all at `uniform` capacity.
    pub fn uniform(num_nodes: usize, uniform: Rate) -> PortBank {
        PortBank {
            num_nodes,
            nominal: uniform,
            capacity: vec![uniform.as_u64(); 2 * num_nodes],
            remaining: vec![uniform.as_u64(); 2 * num_nodes],
        }
    }

    /// The configured un-degraded per-port rate the bank was built
    /// with. Unlike [`PortBank::capacity`], this never changes when a
    /// port is degraded (stragglers, failures), so it is the right
    /// normalizer for queue-residence horizons and other quantities
    /// that must not wobble with transient slowdowns.
    pub fn nominal_rate(&self) -> Rate {
        self.nominal
    }

    /// Number of nodes (half the number of ports).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of ports (`2 * num_nodes`).
    pub fn num_ports(&self) -> usize {
        self.capacity.len()
    }

    /// Nominal capacity of a port.
    pub fn capacity(&self, p: PortId) -> Rate {
        Rate(self.capacity[p.index()])
    }

    /// Sets the nominal capacity of a port (straggler/failure
    /// injection). Also clamps the remaining capacity down to the new
    /// value so an in-flight round cannot over-allocate.
    pub fn set_capacity(&mut self, p: PortId, cap: Rate) {
        self.capacity[p.index()] = cap.as_u64();
        if self.remaining[p.index()] > cap.as_u64() {
            self.remaining[p.index()] = cap.as_u64();
        }
    }

    /// Scales both ports of `node` by `num/den` (e.g. a 10× straggler is
    /// `scale_node(n, 1, 10)`). Restore with `scale_node(n, 1, 1)` after
    /// resetting capacity via [`PortBank::set_node_capacity`].
    pub fn scale_node(&mut self, node: NodeId, num: u64, den: u64) {
        let up = PortId::uplink(node);
        let down = PortId::downlink(node, self.num_nodes);
        let new_up = Rate(self.capacity[up.index()]).mul_ratio(num, den);
        let new_down = Rate(self.capacity[down.index()]).mul_ratio(num, den);
        self.set_capacity(up, new_up);
        self.set_capacity(down, new_down);
    }

    /// Sets both ports of `node` to `cap`.
    pub fn set_node_capacity(&mut self, node: NodeId, cap: Rate) {
        self.set_capacity(PortId::uplink(node), cap);
        self.set_capacity(PortId::downlink(node, self.num_nodes), cap);
    }

    /// Remaining (un-allocated) capacity of a port in this round.
    pub fn remaining(&self, p: PortId) -> Rate {
        Rate(self.remaining[p.index()])
    }

    /// The full remaining-capacity slab, indexed by raw port index —
    /// the read-only bulk view the allocator inner loops iterate so
    /// they vectorize. Units are `Rate` (bytes/second).
    pub fn remaining_slab(&self) -> &[u64] {
        &self.remaining
    }

    /// The full capacity slab, indexed by raw port index (bulk
    /// read-only view; units are `Rate`).
    pub fn capacity_slab(&self) -> &[u64] {
        &self.capacity
    }

    /// Whether the port still has any spare capacity.
    pub fn has_spare(&self, p: PortId) -> bool {
        self.remaining[p.index()] != 0
    }

    /// Draws `r` from the port's remaining capacity.
    ///
    /// # Panics
    /// Panics in debug builds on over-allocation — schedulers must never
    /// hand out more than a port has.
    pub fn allocate(&mut self, p: PortId, r: Rate) {
        debug_assert!(
            r.as_u64() <= self.remaining[p.index()],
            "over-allocating {r} on {p} (remaining {})",
            Rate(self.remaining[p.index()])
        );
        self.remaining[p.index()] = self.remaining[p.index()].saturating_sub(r.as_u64());
    }

    /// Starts a new scheduling round: remaining := capacity everywhere.
    pub fn reset_round(&mut self) {
        self.remaining.copy_from_slice(&self.capacity);
    }

    /// Makes `self` a fresh-round copy of `other` (capacities copied,
    /// remaining reset to capacity) while reusing `self`'s buffers —
    /// the allocation-free equivalent of `other.clone()` +
    /// `reset_round()` for schedulers that probe hypothetical rounds.
    pub fn clone_reset_from(&mut self, other: &PortBank) {
        self.num_nodes = other.num_nodes;
        self.nominal = other.nominal;
        self.capacity.clone_from(&other.capacity);
        self.remaining.clone_from(&other.capacity);
    }

    /// Sum of allocated rate across all ports (diagnostics).
    pub fn total_allocated(&self) -> Rate {
        let cap: u64 = self.capacity.iter().sum();
        let rem: u64 = self.remaining.iter().sum();
        Rate(cap - rem)
    }

    /// Ports fully allocated this round: remaining zero on nonzero
    /// capacity (dead ports don't count as saturated). Diagnostics for
    /// the telemetry round trace.
    pub fn saturated_ports(&self) -> usize {
        self.capacity
            .iter()
            .zip(self.remaining.iter())
            .filter(|(&c, &r)| c != 0 && r == 0)
            .count()
    }

    /// Fabric utilization this round in permille (allocated / capacity
    /// × 1000), 0 on an all-dead fabric. Integer-valued so the round
    /// trace stays byte-deterministic.
    pub fn utilization_permille(&self) -> u64 {
        let cap: u64 = self.capacity.iter().sum();
        if cap == 0 {
            return 0;
        }
        let rem: u64 = self.remaining.iter().sum();
        (cap - rem) * 1000 / cap
    }

    /// Uplink port of `node`.
    pub fn uplink(&self, node: NodeId) -> PortId {
        PortId::uplink(node)
    }

    /// Downlink port of `node`.
    pub fn downlink(&self, node: NodeId) -> PortId {
        PortId::downlink(node, self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bank() {
        let bank = PortBank::uniform(150, Rate::gbps(1));
        assert_eq!(bank.num_nodes(), 150);
        assert_eq!(bank.num_ports(), 300);
        assert_eq!(bank.capacity(PortId(0)), Rate::gbps(1));
        assert_eq!(bank.remaining(PortId(299)), Rate::gbps(1));
    }

    #[test]
    fn allocate_and_reset() {
        let mut bank = PortBank::uniform(2, Rate(100));
        let p = bank.uplink(NodeId(0));
        bank.allocate(p, Rate(60));
        assert_eq!(bank.remaining(p), Rate(40));
        assert!(bank.has_spare(p));
        bank.allocate(p, Rate(40));
        assert!(!bank.has_spare(p));
        assert_eq!(bank.total_allocated(), Rate(100));
        assert_eq!(bank.saturated_ports(), 1);
        assert_eq!(bank.utilization_permille(), 250); // 100 of 400 total
        bank.reset_round();
        assert_eq!(bank.remaining(p), Rate(100));
        assert_eq!(bank.saturated_ports(), 0);
        assert_eq!(bank.utilization_permille(), 0);
    }

    /// The raw slabs expose exactly what the typed API reports, in
    /// port-index order.
    #[test]
    fn slabs_mirror_typed_accessors() {
        let mut bank = PortBank::uniform(2, Rate(100));
        bank.set_capacity(PortId(2), Rate(40));
        bank.allocate(PortId(0), Rate(25));
        assert_eq!(bank.capacity_slab(), &[100, 100, 40, 100]);
        assert_eq!(bank.remaining_slab(), &[75, 100, 40, 100]);
        for p in 0..bank.num_ports() {
            let p = PortId(p as u32);
            assert_eq!(bank.capacity(p).as_u64(), bank.capacity_slab()[p.index()]);
            assert_eq!(bank.remaining(p).as_u64(), bank.remaining_slab()[p.index()]);
        }
    }

    #[test]
    fn dead_ports_are_not_saturated() {
        let mut bank = PortBank::uniform(1, Rate(100));
        bank.set_capacity(PortId(0), Rate(0));
        assert_eq!(bank.saturated_ports(), 0);
        bank.set_capacity(PortId(1), Rate(0));
        assert_eq!(bank.utilization_permille(), 0, "all-dead fabric");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-allocating")]
    fn over_allocation_is_caught() {
        let mut bank = PortBank::uniform(1, Rate(10));
        bank.allocate(PortId(0), Rate(11));
    }

    #[test]
    fn nominal_rate_survives_degradation() {
        let mut bank = PortBank::uniform(2, Rate(1000));
        assert_eq!(bank.nominal_rate(), Rate(1000));
        bank.scale_node(NodeId(0), 1, 10);
        assert_eq!(bank.capacity(PortId(0)), Rate(100));
        assert_eq!(
            bank.nominal_rate(),
            Rate(1000),
            "nominal must not follow degradation"
        );
    }

    #[test]
    fn clone_reset_reuses_buffers() {
        let mut src = PortBank::uniform(3, Rate(500));
        src.allocate(PortId(0), Rate(200));
        src.scale_node(NodeId(1), 1, 5);
        let mut dst = PortBank::uniform(1, Rate(1));
        dst.clone_reset_from(&src);
        assert_eq!(dst.num_nodes(), 3);
        assert_eq!(dst.nominal_rate(), Rate(500));
        // Capacities copied, remaining reset to capacity (not to src's
        // partially-drawn remaining).
        assert_eq!(dst.capacity(PortId(1)), Rate(100));
        assert_eq!(dst.remaining(PortId(0)), Rate(500));
        assert_eq!(dst.remaining(PortId(1)), Rate(100));
    }

    #[test]
    fn straggler_scaling_clamps_remaining() {
        let mut bank = PortBank::uniform(2, Rate(1000));
        let up = bank.uplink(NodeId(1));
        bank.allocate(up, Rate(100)); // 900 remaining
        bank.scale_node(NodeId(1), 1, 10); // capacity now 100
        assert_eq!(bank.capacity(up), Rate(100));
        assert_eq!(
            bank.remaining(up),
            Rate(100),
            "remaining clamped to new cap"
        );
        // Downlink scaled too.
        assert_eq!(bank.capacity(bank.downlink(NodeId(1))), Rate(100));
        // Other node untouched.
        assert_eq!(bank.capacity(bank.uplink(NodeId(0))), Rate(1000));
        // Recovery.
        bank.set_node_capacity(NodeId(1), Rate(1000));
        bank.reset_round();
        assert_eq!(bank.remaining(up), Rate(1000));
    }
}
