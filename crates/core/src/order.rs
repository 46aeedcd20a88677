//! Incrementally maintained LCoF ordering (the *order book*).
//!
//! Saath's global scan order is a total order over live CoFlows keyed
//! by `(queue, !expired, k_c, arrival, id)` (see `Saath::compute`).
//! Historically every round re-sorted the full CoFlow list even though
//! in steady state almost nothing moves: queues change only when a
//! flow crosses a byte threshold, `k_c` only when a footprint changes,
//! and expiry only when a deadline passes. The [`OrderBook`] keeps the
//! order materialized across rounds and repositions *only* the
//! CoFlows whose key components changed — the same
//! incremental-with-oracle pattern as `ContentionTracker`: the full
//! re-sort remains the executable specification, debug-asserted
//! against every round.
//!
//! ## Structure
//!
//! CoFlows are bucketed by their coarse *class* `(queue, !expired)`
//! (an ordered map, so classes emit in priority order; `!expired`
//! sorts expired CoFlows first within a queue, D5) and within a class
//! by the ordered sub-key `(k_c, arrival, id)`. The `id` tiebreaker
//! makes the key total, so emitted order is *identical* to the full
//! sort — not merely equivalent. The book is indexed by the owner's
//! slab slot: a `Vec` holds each booked CoFlow's current key and its
//! position in this round's view, refreshed on every upsert, and each
//! bucket member carries its slot, so neither an upsert nor the emit
//! walk hashes anything. Repositioning costs two tree operations only
//! when the key actually changed.

use saath_simcore::{CoflowId, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Coarse ordering class: `(queue, !expired)`. `false < true`, so
/// within a queue the expired CoFlows come first.
pub type OrderClass = (usize, bool);

/// Intra-class ordering key: `(k_c` — or 0 with LCoF off — `, arrival)`.
/// The [`CoflowId`] appended by the book makes the full key total.
pub type OrderSub = (u32, Time);

/// A bucket member: the full intra-class key, then the slot it is
/// booked under (never compared: ids are unique among live CoFlows).
type Member = (u32, Time, CoflowId, u32);

#[derive(Clone, Copy)]
struct Entry {
    id: CoflowId,
    class: OrderClass,
    sub: OrderSub,
    /// Index into this round's `view.coflows`, refreshed every upsert.
    pos: u32,
}

impl Entry {
    fn member(&self, slot: u32) -> Member {
        (self.sub.0, self.sub.1, self.id, slot)
    }
}

/// The materialized LCoF order. See the module docs.
#[derive(Default)]
pub struct OrderBook {
    /// class → ordered members.
    buckets: BTreeMap<OrderClass, BTreeSet<Member>>,
    /// Slot → the booked CoFlow's key and view position.
    entries: Vec<Option<Entry>>,
}

impl OrderBook {
    /// An empty book.
    pub fn new() -> OrderBook {
        OrderBook::default()
    }

    /// Number of booked CoFlows.
    pub fn len(&self) -> usize {
        self.buckets.values().map(BTreeSet::len).sum()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Drops all state (the owner's slots were reassigned wholesale,
    /// e.g. by a state restore).
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.entries.clear();
    }

    /// Books CoFlow `id` under `slot`, or repositions it under a new
    /// key, and refreshes its view position `pos` either way. Returns
    /// `true` when the ordering key changed (one tree removal +
    /// insertion); `false` for the steady-state position-only refresh,
    /// which touches no tree node. A slot holds one CoFlow at a time:
    /// the owner removes a departed CoFlow before its slot is reused.
    pub fn upsert(
        &mut self,
        slot: u32,
        id: CoflowId,
        class: OrderClass,
        sub: OrderSub,
        pos: u32,
    ) -> bool {
        let s = slot as usize;
        if self.entries.len() <= s {
            self.entries.resize(s + 1, None);
        }
        let fresh = Entry {
            id,
            class,
            sub,
            pos,
        };
        match &mut self.entries[s] {
            Some(e) => {
                debug_assert_eq!(e.id, id, "slot reused without a remove");
                if e.class == class && e.sub == sub {
                    e.pos = pos;
                    return false;
                }
                let old = std::mem::replace(e, fresh);
                unbook(&mut self.buckets, old.class, old.member(slot));
            }
            empty => *empty = Some(fresh),
        }
        let inserted = self
            .buckets
            .entry(class)
            .or_default()
            .insert(fresh.member(slot));
        debug_assert!(inserted, "duplicate CoflowId in bucket");
        true
    }

    /// Removes the CoFlow booked under `slot`, which departed. Returns
    /// whether one was booked.
    pub fn remove(&mut self, slot: u32) -> bool {
        let Some(e) = self.entries.get_mut(slot as usize).and_then(Option::take) else {
            return false;
        };
        unbook(&mut self.buckets, e.class, e.member(slot));
        true
    }

    /// Writes the view positions of every booked CoFlow into `out`
    /// (cleared first) in full `(queue, !expired, k, arrival, id)`
    /// order — byte-identical to sorting the positions by that key.
    pub fn emit_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.len());
        for bucket in self.buckets.values() {
            for &(_, _, _, slot) in bucket {
                let e = self.entries[slot as usize].as_ref();
                out.push(e.expect("bucket member without an entry").pos as usize);
            }
        }
    }
}

/// Takes `member` out of its class bucket, dropping the bucket when it
/// empties.
fn unbook(buckets: &mut BTreeMap<OrderClass, BTreeSet<Member>>, class: OrderClass, member: Member) {
    let bucket = buckets
        .get_mut(&class)
        .expect("booked entry without a bucket");
    let removed = bucket.remove(&member);
    debug_assert!(removed, "booked entry missing from its bucket");
    if bucket.is_empty() {
        buckets.remove(&class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(book: &OrderBook) -> Vec<usize> {
        let mut out = Vec::new();
        book.emit_into(&mut out);
        out
    }

    #[test]
    fn emits_in_total_key_order() {
        let mut book = OrderBook::new();
        // slot == pos == id for readability. Keys chosen so every
        // component participates in the order at least once.
        let rows: [(u32, OrderClass, OrderSub); 6] = [
            (0, (1, true), (0, Time(5))),  // queue 1
            (1, (0, true), (2, Time(0))),  // queue 0, k 2
            (2, (0, true), (1, Time(9))),  // queue 0, k 1
            (3, (0, false), (7, Time(3))), // queue 0, expired → first
            (4, (0, true), (2, Time(0))),  // ties with 1 → id breaks
            (5, (1, false), (0, Time(0))), // queue 1, expired
        ];
        for &(id, class, sub) in &rows {
            assert!(book.upsert(id, CoflowId(id), class, sub, id));
        }
        assert_eq!(emit(&book), vec![3, 2, 1, 4, 5, 0]);
        assert_eq!(book.len(), 6);
    }

    #[test]
    fn steady_state_refresh_touches_no_tree() {
        let mut book = OrderBook::new();
        assert!(book.upsert(2, CoflowId(7), (0, true), (3, Time(1)), 0));
        // Same key, new view position: no rekey, but the position must
        // be refreshed.
        assert!(!book.upsert(2, CoflowId(7), (0, true), (3, Time(1)), 4));
        assert_eq!(emit(&book), vec![4]);
    }

    #[test]
    fn rekey_repositions_and_empties_old_bucket() {
        let mut book = OrderBook::new();
        book.upsert(0, CoflowId(1), (0, true), (5, Time(0)), 1);
        book.upsert(1, CoflowId(2), (1, true), (0, Time(0)), 2);
        // CoFlow 1 is demoted to queue 2: its old class bucket empties.
        assert!(book.upsert(0, CoflowId(1), (2, true), (5, Time(0)), 1));
        assert_eq!(emit(&book), vec![2, 1]);
        // And back up, ahead of CoFlow 2 via a smaller k.
        assert!(book.upsert(0, CoflowId(1), (1, true), (0, Time(0)), 1));
        // Tie on (class, k, arrival) → id 1 < 2.
        assert_eq!(emit(&book), vec![1, 2]);
    }

    #[test]
    fn remove_departed() {
        let mut book = OrderBook::new();
        book.upsert(0, CoflowId(1), (0, true), (0, Time(0)), 0);
        book.upsert(1, CoflowId(2), (0, true), (1, Time(0)), 1);
        assert!(book.remove(0));
        assert!(!book.remove(0), "double remove is a no-op");
        assert!(!book.remove(9), "a slot never booked is a no-op");
        assert_eq!(emit(&book), vec![1]);
        // The freed slot books the next CoFlow.
        book.upsert(0, CoflowId(3), (0, true), (0, Time(0)), 0);
        assert_eq!(emit(&book), vec![0, 1]);
        assert!(book.remove(1));
        assert!(book.remove(0));
        assert!(book.is_empty());
    }

    /// Random churn: the book must always emit exactly what a full
    /// re-sort of the live set produces. Departed CoFlows' slots are
    /// reused by later arrivals, as the scheduler's slab does.
    #[test]
    fn matches_full_sort_under_random_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x0b00c);
        let mut book = OrderBook::new();
        // (slot, id, class, sub)
        let mut live: Vec<(u32, CoflowId, OrderClass, OrderSub)> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut next_id = 0u32;
        for _ in 0..300 {
            // Arrivals.
            while live.is_empty() || rng.gen_bool(0.4) {
                let slot = free.pop().unwrap_or(next_id);
                let row = (
                    slot,
                    CoflowId(next_id),
                    (rng.gen_range(0..4usize), rng.gen_bool(0.8)),
                    (rng.gen_range(0..5u32), Time(rng.gen_range(0..10))),
                );
                live.push(row);
                next_id += 1;
            }
            // Rekeys.
            for row in live.iter_mut() {
                if rng.gen_bool(0.3) {
                    row.2 = (rng.gen_range(0..4usize), rng.gen_bool(0.8));
                    row.3 = (rng.gen_range(0..5u32), row.3 .1);
                }
            }
            // Departures (of this round's arrivals too, never booked).
            if live.len() > 2 && rng.gen_bool(0.3) {
                let gone = live.swap_remove(rng.gen_range(0..live.len()));
                book.remove(gone.0);
                free.push(gone.0);
            }
            // Upsert everything with its current position, emit,
            // compare.
            for (pos, &(slot, id, class, sub)) in live.iter().enumerate() {
                book.upsert(slot, id, class, sub, pos as u32);
            }
            let mut want: Vec<usize> = (0..live.len()).collect();
            want.sort_by_key(|&i| {
                let (_, id, class, sub) = live[i];
                (class, sub.0, sub.1, id)
            });
            assert_eq!(emit(&book), want);
            assert_eq!(book.len(), live.len());
        }
    }
}
