//! The priority-queue structure shared by Saath and Aalo (§4.1).
//!
//! `N` logical queues `Q_0 … Q_{N-1}` with exponentially growing
//! thresholds: `Q_0^lo = 0`, `Q_{q+1}^lo = Q_q^hi`, `Q_q^hi = S · E^q`,
//! and `Q_{N-1}^hi = ∞`. The paper's defaults: `S` = 10 MB starting
//! threshold, growth `E` = 10, `K` = 10 queues.
//!
//! Two queue-assignment rules live here:
//!
//! * [`QueueConfig::queue_for_total`] — Aalo's rule: a CoFlow sits in
//!   the queue whose span contains its *total* bytes sent.
//! * [`QueueConfig::queue_for_per_flow`] — Saath's Eq. (1): thresholds
//!   are split equally among the CoFlow's `N_c` flows and the CoFlow is
//!   placed by the *maximum bytes sent by any single flow*, `m_c`, so
//!   one fast flow (e.g. from work conservation) demotes the whole
//!   CoFlow early.

use saath_simcore::{Bytes, Duration, Rate};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Priority-queue parameters (defaults = the paper's).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Number of queues `K`.
    pub num_queues: usize,
    /// Starting threshold `S` = `Q_0^hi`.
    pub first_threshold: Bytes,
    /// Exponential growth factor `E`.
    pub growth: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            num_queues: 10,
            first_threshold: Bytes::mb(10),
            growth: 10,
        }
    }
}

impl QueueConfig {
    /// Upper threshold `Q_q^hi` (`u64::MAX`-saturating; the last queue
    /// is unbounded by construction).
    pub fn hi(&self, q: usize) -> Bytes {
        assert!(q < self.num_queues, "queue {q} out of range");
        if q == self.num_queues - 1 {
            return Bytes(u64::MAX);
        }
        let mut v = self.first_threshold.as_u64();
        for _ in 0..q {
            v = v.saturating_mul(self.growth);
        }
        Bytes(v)
    }

    /// Lower threshold `Q_q^lo` (= `Q_{q-1}^hi`, zero for `q = 0`).
    pub fn lo(&self, q: usize) -> Bytes {
        if q == 0 {
            Bytes::ZERO
        } else {
            self.hi(q - 1)
        }
    }

    /// Aalo's rule: the queue whose `(lo, hi]` span contains `total`
    /// bytes sent. A brand-new CoFlow (0 bytes) is in `Q_0`.
    pub fn queue_for_total(&self, total: Bytes) -> usize {
        for q in 0..self.num_queues {
            // A CoFlow moves down only once it *exceeds* the threshold,
            // so equality keeps it in place.
            if total <= self.hi(q) {
                return q;
            }
        }
        self.num_queues - 1
    }

    /// One flow's share of `Q_q^hi` in a CoFlow of `n_flows` flows:
    /// `Q_q^hi / N_c`, the most a flow may have sent with the CoFlow
    /// still in queue `q` under Eq. (1). Unbounded (`u64::MAX`) wherever
    /// `Q_q^hi` is — the last queue, or a threshold that saturated.
    pub fn per_flow_share(&self, q: usize, n_flows: usize) -> Bytes {
        assert!(n_flows > 0, "CoFlow with zero flows");
        let hi = self.hi(q);
        if hi.as_u64() == u64::MAX {
            hi
        } else {
            hi.div_per_flow(n_flows)
        }
    }

    /// Saath's Eq. (1): the smallest `q` with
    /// `m_c ≤ Q_q^hi / N_c`, where `m_c` is the max bytes sent by any
    /// flow and `N_c` the flow count.
    pub fn queue_for_per_flow(&self, m_c: Bytes, n_flows: usize) -> usize {
        (0..self.num_queues)
            .find(|&q| m_c <= self.per_flow_share(q, n_flows))
            .unwrap_or(self.num_queues - 1)
    }

    /// Skew-aware variant of Eq. (1) — the extension the paper sketches
    /// ("more sophisticated ways can be used in clusters with skewed
    /// flow duration distribution", §3).
    ///
    /// Equal splitting penalizes CoFlows with naturally uneven flows:
    /// one long flow crosses `hi/N` early and demotes the whole CoFlow
    /// even though its siblings have barely started. Here each flow's
    /// share is a blend of the equal split and the flow's *observed*
    /// fraction of the CoFlow's bytes:
    /// `share_i(q) = hi(q) · (1/(2N) + sent_i / (2 · total))`,
    /// and the CoFlow sits in the smallest queue where every flow is
    /// within its share. For equal-length flows this reduces exactly to
    /// the paper's rule; for skewed CoFlows the long flow gets a
    /// proportionally larger allowance, delaying demotion until the
    /// CoFlow as a whole has actually sent comparable volume.
    ///
    /// `sents` is walked twice (totals first, then the binding flow),
    /// so it is any cheaply re-iterable source of the flows' bytes
    /// sent — a slice, or a `map` over the flows — and nothing is
    /// collected.
    pub fn queue_for_skew_aware<I>(&self, sents: I) -> usize
    where
        I: IntoIterator + Clone,
        I::Item: Borrow<Bytes>,
    {
        let (mut n, mut total) = (0u128, 0u128);
        for s in sents.clone() {
            n += 1;
            total += s.borrow().as_u64() as u128;
        }
        assert!(n > 0, "CoFlow with zero flows");
        if total == 0 {
            return 0;
        }
        // Binding requirement: hi(q) ≥ max_i sent_i / (1/(2N) + sent_i/(2·total)).
        // Computed in integers: hi ≥ (2 · sent_i · N · total) / (total + sent_i · N).
        let mut need: u128 = 0;
        for s in sents {
            let si = s.borrow().as_u64() as u128;
            let num = 2 * si * n * total;
            let den = total + si * n;
            need = need.max(num.div_ceil(den));
        }
        for q in 0..self.num_queues {
            let hi = self.hi(q).as_u64() as u128;
            if need <= hi {
                return q;
            }
        }
        self.num_queues - 1
    }

    /// The minimum time a CoFlow must spend in queue `q` before it can
    /// cross to `q+1`, at port rate `rate`: `(Q_q^hi − Q_q^lo) / B`.
    /// Starvation deadlines (D5) are `d · C_q ·` this. For the unbounded
    /// last queue we extrapolate with the growth factor, so deadlines
    /// stay finite.
    pub fn min_residence(&self, q: usize, rate: Rate) -> Duration {
        let width = if q == self.num_queues - 1 {
            // Extrapolated: lo(q) * (E - 1), the width the next queue
            // would have had.
            Bytes(
                self.lo(q)
                    .as_u64()
                    .saturating_mul(self.growth.saturating_sub(1).max(1)),
            )
        } else {
            self.hi(q) - self.lo(q)
        };
        saath_simcore::units::transfer_time(width, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = QueueConfig::default();
        assert_eq!(c.num_queues, 10);
        assert_eq!(c.first_threshold, Bytes::mb(10));
        assert_eq!(c.growth, 10);
        assert_eq!(c.hi(0), Bytes::mb(10));
        assert_eq!(c.hi(1), Bytes::mb(100));
        assert_eq!(c.lo(2), Bytes::mb(100));
        assert_eq!(c.hi(9), Bytes(u64::MAX), "last queue unbounded");
    }

    #[test]
    fn total_rule() {
        let c = QueueConfig::default();
        assert_eq!(c.queue_for_total(Bytes::ZERO), 0);
        assert_eq!(c.queue_for_total(Bytes::mb(10)), 0, "boundary stays");
        assert_eq!(c.queue_for_total(Bytes::mb(10) + Bytes(1)), 1);
        assert_eq!(c.queue_for_total(Bytes::mb(100)), 1);
        assert_eq!(c.queue_for_total(Bytes::gb(1000)), 5);
        assert_eq!(c.queue_for_total(Bytes(u64::MAX - 1)), 9);
    }

    #[test]
    fn per_flow_rule_matches_eq1() {
        let c = QueueConfig::default();
        // Paper's example (D3): 200 MB threshold, 100 flows → 2 MB per
        // flow. With S=10MB, E=10: hi(1)=100MB; 100 flows → 1 MB/flow.
        // m_c = 1.5 MB ⇒ not in Q0 (10MB/100 = 0.1MB) nor Q1 (1MB) ⇒ Q2
        // (10MB ≥ 1.5MB).
        assert_eq!(c.queue_for_per_flow(Bytes::kb(100), 100), 0);
        assert_eq!(c.queue_for_per_flow(Bytes::mb(1), 100), 1);
        assert_eq!(c.queue_for_per_flow(Bytes::mb(1) + Bytes(1), 100), 2);
        // Single-flow CoFlows degenerate to the total rule.
        assert_eq!(c.queue_for_per_flow(Bytes::mb(10), 1), 0);
        assert_eq!(c.queue_for_per_flow(Bytes::mb(11), 1), 1);
        // The share the rule compares against; none in the last queue.
        assert_eq!(c.per_flow_share(1, 100), Bytes::mb(1));
        assert_eq!(c.per_flow_share(0, 3), Bytes(3_333_333));
        assert_eq!(c.per_flow_share(9, 100), Bytes(u64::MAX));
    }

    #[test]
    fn per_flow_is_never_slower_than_total() {
        // The point of Eq. 1: with equal progress, per-flow placement is
        // at least as deep (≥ queue index) as Aalo's total placement
        // once more than one flow is sending... verified on a sweep.
        let c = QueueConfig::default();
        for width in [2usize, 4, 10, 100] {
            for sent_per_flow in [0u64, 500_000, 2_000_000, 50_000_000] {
                let per_flow_q = c.queue_for_per_flow(Bytes(sent_per_flow), width);
                let total_q = c.queue_for_total(Bytes(sent_per_flow * width as u64));
                assert!(
                    per_flow_q >= total_q,
                    "width {width} sent {sent_per_flow}: pf {per_flow_q} < total {total_q}"
                );
            }
        }
    }

    #[test]
    fn fig5_fast_transition() {
        // Fig 5: threshold = B·4t total. C2 has 4 flows; with only 2
        // sending (Aalo), crossing takes 2t of port time each (B·2t
        // bytes sent per active flow). Saath's per-flow share is B·t:
        // one flow crosses after t.
        let b_t = Bytes::mb(100); // "B·t" in bytes, arbitrary
        let c = QueueConfig {
            num_queues: 2,
            first_threshold: Bytes(b_t.as_u64() * 4),
            growth: 10,
        };
        // Aalo: after t of two flows sending, total = 2·B·t ≤ 4·B·t ⇒ Q0.
        assert_eq!(c.queue_for_total(Bytes(b_t.as_u64() * 2)), 0);
        // Saath: one flow has sent B·t = per-flow share ⇒ still Q0 at
        // exactly the share, crosses just past it.
        assert_eq!(c.queue_for_per_flow(b_t, 4), 0);
        assert_eq!(c.queue_for_per_flow(Bytes(b_t.as_u64() + 1), 4), 1);
    }

    #[test]
    fn residence_times() {
        let c = QueueConfig::default();
        let gbps = Rate::gbps(1);
        // Q0: 10 MB at 1 Gbps = 80 ms.
        assert_eq!(c.min_residence(0, gbps), Duration::from_millis(80));
        // Q1: 90 MB = 720 ms.
        assert_eq!(c.min_residence(1, gbps), Duration::from_millis(720));
        // Last queue: finite (extrapolated), not infinite.
        assert!(!c.min_residence(9, gbps).is_infinite());
        assert!(c.min_residence(9, gbps) > c.min_residence(8, gbps));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hi_bounds_checked() {
        QueueConfig::default().hi(10);
    }

    #[test]
    fn skew_aware_reduces_to_eq1_for_equal_flows() {
        let c = QueueConfig::default();
        // Four equal flows: share_i = hi/N exactly, so both rules agree
        // at every progress level.
        for sent in [0u64, 100_000, 2_400_000, 2_600_000, 30_000_000] {
            let sents = vec![Bytes(sent); 4];
            assert_eq!(
                c.queue_for_skew_aware(&sents),
                c.queue_for_per_flow(Bytes(sent), 4),
                "diverged at sent={sent}"
            );
        }
    }

    #[test]
    fn skew_aware_tolerates_natural_skew() {
        let c = QueueConfig::default();
        // One flow at 4 MB, three barely started: the equal split
        // (10 MB / 4 = 2.5 MB) demotes to Q1; skew-aware recognizes the
        // long flow carries nearly all the bytes (its allowance grows
        // toward hi/2 + hi/8) and keeps the CoFlow in Q0.
        let sents = [Bytes::mb(4), Bytes::kb(10), Bytes::kb(10), Bytes::kb(10)];
        assert_eq!(c.queue_for_per_flow(Bytes::mb(4), 4), 1);
        assert_eq!(c.queue_for_skew_aware(&sents), 0);
        // It is not a free pass: once the CoFlow's volume genuinely
        // exceeds the queue's intent, it still demotes.
        let sents = [Bytes::mb(40), Bytes::mb(1), Bytes::mb(1), Bytes::mb(1)];
        assert!(c.queue_for_skew_aware(&sents) >= 1);
    }

    #[test]
    fn skew_aware_zero_progress_is_top_queue() {
        let c = QueueConfig::default();
        assert_eq!(c.queue_for_skew_aware(&[Bytes::ZERO; 3]), 0);
    }
}
