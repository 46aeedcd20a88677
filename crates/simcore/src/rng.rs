//! Named, seed-derived random streams.
//!
//! Workload generators need randomness; experiments need repeatability.
//! [`DetRng`] derives an independent stream from a master seed and a
//! string label (e.g. `"fb-like/sizes"`), so:
//!
//! * the same `(seed, label)` always produces the same stream;
//! * adding a new consumer with a fresh label never perturbs existing
//!   streams — runs stay comparable as the workspace grows.
//!
//! The derivation is an FNV-1a hash of the label folded into the seed,
//! which seeds a xoshiro256++ generator through SplitMix64 (the
//! generator `rand`'s `SmallRng` uses on 64-bit targets, kept draw for
//! draw). We do not need cryptographic quality, only speed and
//! independence-in-practice.

/// A deterministic random stream (see module docs).
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    label_hash: u64,
}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The xoshiro256++ state SplitMix64 expands `seed` into (never all
/// zero).
fn seeded(mut seed: u64) -> [u64; 4] {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = splitmix64(&mut seed);
    }
    if s == [0; 4] {
        s[0] = 0x9e37_79b9_7f4a_7c15;
    }
    s
}

/// FNV-1a, the classic 64-bit variant.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

impl DetRng {
    /// Derives the stream `label` from `seed`.
    pub fn derive(seed: u64, label: &str) -> DetRng {
        let label_hash = fnv1a(label.as_bytes());
        // SplitMix-style finalization to spread the combined bits.
        let mut z = seed ^ label_hash;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        DetRng {
            s: seeded(z),
            label_hash,
        }
    }

    /// Derives a child stream (e.g. one stream per CoFlow index).
    pub fn child(&self, index: u64) -> DetRng {
        let mut z = self.label_hash ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        DetRng {
            s: seeded(z),
            label_hash: z,
        }
    }

    /// The next uniform 64-bit value (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform float in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-high: the top 64 bits of a 128-bit product.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        match hi - lo {
            u64::MAX => self.next_u64(),
            span => lo + self.below(span + 1),
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit() < p
    }

    /// Exponential inter-arrival gap with the given mean, in integer
    /// units (rounded, at least 0). Poisson arrivals are built from this.
    pub fn exp_gap(&mut self, mean: f64) -> u64 {
        debug_assert!(mean > 0.0);
        let u = self.uniform(f64::EPSILON, 1.0);
        let x = -mean * u.ln();
        if x >= u64::MAX as f64 {
            u64::MAX
        } else {
            x.round() as u64
        }
    }

    /// Pareto-distributed value with scale `x_min` and shape `alpha`,
    /// capped at `cap`. Heavy-tailed CoFlow sizes come from here.
    pub fn pareto(&mut self, x_min: f64, alpha: f64, cap: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0 && cap >= x_min);
        let u = self.uniform(f64::EPSILON, 1.0);
        (x_min / u.powf(1.0 / alpha)).min(cap)
    }

    /// Picks an index from a discrete distribution given as weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all-zero weights");
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct values from `[0, n)` (k ≤ n), in random
    /// order. Used to pick the mapper/reducer nodes of a CoFlow.
    pub fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!(
            k as u64 <= n,
            "cannot sample {k} distinct values from [0,{n})"
        );
        // Partial Fisher–Yates over a lazily-materialized permutation.
        let mut swaps: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(k);
        for i in 0..k as u64 {
            let j = i + self.below(n - i);
            let vi = *swaps.get(&i).unwrap_or(&i);
            let vj = *swaps.get(&j).unwrap_or(&j);
            out.push(vj);
            swaps.insert(j, vi);
            swaps.insert(i, vj);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The first draws of several `(seed, label)` streams and of their
    /// children, pinned: generated traces are a pure function of these
    /// streams, so a generator change that moves any draw shows here
    /// before it reaches a golden digest.
    #[test]
    fn streams_are_pinned() {
        let draws = |mut r: DetRng| {
            let mut v = vec![r.below(u64::MAX), r.below(1000), r.range_inclusive(5, 9)];
            v.push(r.unit().to_bits());
            v.push(r.exp_gap(1000.0));
            v.push(r.pareto(2.0, 1.1, 500.0).to_bits());
            v
        };
        let mut got = Vec::new();
        for (seed, label) in [
            (0, ""),
            (1, "fb-like/sizes"),
            (7, "sizes"),
            (u64::MAX, "osp"),
        ] {
            got.push(draws(DetRng::derive(seed, label)));
            got.push(draws(DetRng::derive(seed, label).child(0)));
            got.push(draws(DetRng::derive(seed, label).child(3)));
        }
        let mut r = DetRng::derive(42, "mix");
        let mut items: Vec<u64> = (0..8).collect();
        r.shuffle(&mut items);
        got.push(items);
        got.push(r.sample_distinct(100, 5));
        got.push(vec![
            r.weighted(&[0.2, 0.5, 0.3]) as u64,
            r.chance(0.5) as u64,
        ]);
        assert_eq!(got, PINNED);
    }

    const PINNED: &[&[u64]] = &[
        &[
            10790235241482405850,
            634,
            6,
            4597853371839472644,
            351,
            4611808139783623407,
        ],
        &[
            8703999650151682142,
            912,
            8,
            4604179686073415656,
            943,
            4612897924614373984,
        ],
        &[
            7811303893710277904,
            996,
            8,
            4603645923039857136,
            4164,
            4617370253080432444,
        ],
        &[
            1121782935827645375,
            915,
            7,
            4602283815346767884,
            969,
            4614011602136762414,
        ],
        &[
            18220460081473391220,
            755,
            5,
            4593046800096161472,
            168,
            4615156102318076552,
        ],
        &[
            4330113933180244855,
            159,
            9,
            4606462479618993549,
            138,
            4616823034023257522,
        ],
        &[
            3736848557083088831,
            193,
            9,
            4596352644019050204,
            516,
            4614793085451989439,
        ],
        &[
            10428136979859087468,
            704,
            8,
            4606618351343662256,
            69,
            4616993005135194356,
        ],
        &[
            15807155893858154327,
            673,
            5,
            4600943319353598318,
            901,
            4617570611550375154,
        ],
        &[
            3080330113324906710,
            573,
            5,
            4590657824715129312,
            1312,
            4613175237932374137,
        ],
        &[
            11002479898537821118,
            253,
            6,
            4604041892584800486,
            1220,
            4612723881486964044,
        ],
        &[
            9866877412834887764,
            761,
            6,
            4603043450224391440,
            61,
            4614052004325228840,
        ],
        &[7, 6, 4, 1, 2, 5, 0, 3],
        &[45, 86, 10, 23, 42],
        &[1, 0],
    ];

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::derive(7, "sizes");
        let mut b = DetRng::derive(7, "sizes");
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = DetRng::derive(7, "sizes");
        let mut b = DetRng::derive(7, "widths");
        let same = (0..64)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4, "streams with different labels look identical");
    }

    #[test]
    fn children_are_independent_of_sibling_consumption() {
        let parent = DetRng::derive(9, "coflows");
        let mut c0a = parent.child(0);
        // Consuming from child 1 must not change child 0's stream.
        let mut c1 = parent.child(1);
        let _ = c1.below(100);
        let mut c0b = parent.child(0);
        assert_eq!(c0a.below(u64::MAX), c0b.below(u64::MAX));
    }

    #[test]
    fn exp_gap_mean_is_roughly_right() {
        let mut r = DetRng::derive(3, "arrivals");
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.exp_gap(1000.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 1000.0).abs() < 50.0,
            "mean {mean} too far from 1000"
        );
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut r = DetRng::derive(3, "sizes");
        for _ in 0..10_000 {
            let x = r.pareto(2.0, 1.1, 500.0);
            assert!((2.0..=500.0).contains(&x));
        }
    }

    #[test]
    fn weighted_hits_every_bucket() {
        let mut r = DetRng::derive(5, "mix");
        let w = [0.23, 0.50, 0.27];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.weighted(&w)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let frac = *c as f64 / 30_000.0;
            assert!((frac - w[i]).abs() < 0.02, "bucket {i}: {frac} vs {}", w[i]);
        }
    }

    proptest! {
        #[test]
        fn sample_distinct_is_distinct_and_in_range(n in 1u64..500, k_frac in 0.0f64..1.0) {
            let k = ((n as f64) * k_frac) as usize;
            let mut r = DetRng::derive(11, "ports");
            let s = r.sample_distinct(n, k);
            prop_assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            prop_assert_eq!(set.len(), k, "duplicates in sample");
            prop_assert!(s.iter().all(|&v| v < n));
        }

        #[test]
        fn shuffle_is_a_permutation(len in 0usize..100) {
            let mut r = DetRng::derive(13, "shuffle");
            let mut v: Vec<usize> = (0..len).collect();
            r.shuffle(&mut v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
        }
    }
}
