//! A deterministic event queue.
//!
//! `std::collections::BinaryHeap` is not stable for equal keys, so a
//! simulator built directly on it would reorder same-instant events from
//! run to run depending on insertion history. [`EventQueue`] pairs every
//! event with a monotone sequence number: events fire in time order, and
//! same-time events fire in *insertion* order, always.

use crate::time::Time;
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: fire `payload` at `at`.
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pair is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-heap of timestamped events with stable FIFO tie-breaking.
///
/// ```
/// use saath_simcore::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(5), "b");
/// q.push(Time::from_millis(1), "a");
/// q.push(Time::from_millis(5), "c"); // same instant as "b": FIFO
/// assert_eq!(q.pop(), Some((Time::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((Time::from_millis(5), "b")));
/// assert_eq!(q.pop(), Some((Time::from_millis(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// The instant of the next event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// The next event — its instant and payload — without removing it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.heap.peek().map(|e| (e.at, &e.payload))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `now` — the simulator's "drain everything due" loop.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        match self.heap.peek() {
            Some(e) if e.at <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The next sequence number this queue would assign — part of the
    /// queue's deterministic state (FIFO tie-breaking depends on it),
    /// so snapshots must capture and restore it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending entry as `(fire_time, seq, payload)`, sorted by
    /// `(fire_time, seq)` — i.e. in pop order. The heap's internal
    /// array layout is insertion-history dependent, so this sorted view
    /// is the queue's canonical serializable form.
    pub fn entries(&self) -> Vec<(Time, u64, &E)> {
        let mut v: Vec<(Time, u64, &E)> = self
            .heap
            .iter()
            .map(|e| (e.at, e.seq, &e.payload))
            .collect();
        v.sort_by_key(|&(at, seq, _)| (at, seq));
        v
    }

    /// Rebuilds a queue from entries captured by [`entries`] and the
    /// matching [`next_seq`]. Pop order depends only on the `(at, seq)`
    /// keys, so the restored queue is behaviorally identical to the
    /// original regardless of internal heap layout.
    ///
    /// [`entries`]: EventQueue::entries
    /// [`next_seq`]: EventQueue::next_seq
    pub fn from_entries(entries: impl IntoIterator<Item = (Time, u64, E)>, next_seq: u64) -> Self {
        let heap: BinaryHeap<Entry<E>> = entries
            .into_iter()
            .map(|(at, seq, payload)| Entry { at, seq, payload })
            .collect();
        EventQueue { heap, next_seq }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(Time(30), 1);
        q.push(Time(10), 2);
        q.push(Time(30), 3);
        q.push(Time(20), 4);
        q.push(Time(30), 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3, 5]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Time(10), "early");
        q.push(Time(20), "late");
        assert_eq!(q.peek(), Some((Time(10), &"early")));
        assert_eq!(q.pop_due(Time(15)), Some((Time(10), "early")));
        assert_eq!(q.pop_due(Time(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(Time(20)), Some((Time(20), "late")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert_eq!(q.peek_time(), None);
        q.push(Time(5), ());
        assert_eq!(q.peek_time(), Some(Time(5)));
        q.clear();
        assert!(q.is_empty());
        // Sequence numbers keep growing across clear(): FIFO order is
        // preserved even for events pushed after a reset.
        q.push(Time(5), ());
        assert_eq!(q.pop(), Some((Time(5), ())));
    }

    #[test]
    fn entries_roundtrip_preserves_pop_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), 1);
        q.push(Time(10), 2);
        q.push(Time(30), 3);
        q.pop(); // consume "2" so seq state is mid-stream
        let snap: Vec<(Time, u64, i32)> = q.entries().iter().map(|&(t, s, p)| (t, s, *p)).collect();
        assert_eq!(snap, vec![(Time(30), 0, 1), (Time(30), 2, 3)]);
        let mut r = EventQueue::from_entries(snap, q.next_seq());
        assert_eq!(r.next_seq(), 3);
        r.push(Time(30), 4); // gets seq 3: fires after the restored ties
        let order: Vec<i32> = std::iter::from_fn(|| r.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 4]);
    }

    proptest! {
        /// Popped times are nondecreasing for arbitrary insert orders.
        #[test]
        fn pops_are_sorted(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Time(*t), i);
            }
            let mut last = Time::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Same-time events preserve insertion order (stability).
        #[test]
        fn ties_are_fifo(tags in proptest::collection::vec(0u64..4, 1..100)) {
            let mut q = EventQueue::new();
            for (i, tag) in tags.iter().enumerate() {
                q.push(Time(*tag), i);
            }
            let mut last_seq_per_time = std::collections::HashMap::new();
            while let Some((t, seq)) = q.pop() {
                if let Some(prev) = last_seq_per_time.insert(t, seq) {
                    prop_assert!(seq > prev, "tie at {t:?} broke FIFO order");
                }
            }
        }
    }
}
