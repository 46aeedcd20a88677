//! A fast, deterministic hasher for integer-keyed scratch maps.
//!
//! The schedulers keep several `HashMap`s keyed by [`CoflowId`] /
//! small tuples on their per-round hot paths (the id → slot map, the
//! contention tracker's pair counts). `std`'s default SipHash is designed to
//! resist hash-flooding from untrusted keys; our keys are internal
//! dense integers, so that robustness buys nothing and costs a
//! measurable fraction of the round. This is the classic
//! multiply-rotate scheme (as used by rustc's `FxHasher`): one rotate,
//! one xor, one multiply per word.
//!
//! Two cautions, both upheld by the workspace:
//!
//! * **Not DoS-resistant.** Only use for internal ids, never for keys
//!   an adversary chooses.
//! * **Iteration order is still arbitrary.** Nothing scheduler-visible
//!   may depend on map iteration order; every consumer sorts before
//!   acting on iterated keys, or iterates something ordered instead.
//!
//! [`CoflowId`]: crate::CoflowId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from splitmix64's finalizer family; any odd constant
/// with well-mixed bits works.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The word-at-a-time multiply-rotate hasher. Use via [`FastHashMap`] /
/// [`FastHashSet`] rather than directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Byte-slice fallback (derived Hash on structs routes integer
        // fields through the typed writers below, so this is cold).
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (stateless, so maps built with it
/// are `Default`-constructible).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`] — for internal integer keys only.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using [`FastHasher`] — for internal integer keys only.
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoflowId;

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FastHashMap<CoflowId, u32> = FastHashMap::default();
        for i in 0..1000u32 {
            m.insert(CoflowId(i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&CoflowId(i)), Some(&(i * 2)));
            assert_eq!(m.remove(&CoflowId(i)), Some(i * 2));
        }
        assert!(m.is_empty());

        let mut s: FastHashSet<(u32, u32)> = FastHashSet::default();
        assert!(s.insert((3, 4)));
        assert!(!s.insert((3, 4)));
        assert!(s.contains(&(3, 4)));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let hash_of = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Deterministic across calls (no per-instance random state).
        assert_eq!(hash_of(42), hash_of(42));
        // Dense inputs must not collapse to few buckets: check the top
        // bits (what hashbrown's control bytes use) vary.
        let mut tops: FastHashSet<u8> = FastHashSet::default();
        for n in 0..64u64 {
            tops.insert((hash_of(n) >> 57) as u8);
        }
        assert!(tops.len() > 32, "top-bit spread too weak: {}", tops.len());
    }

    #[test]
    fn byte_fallback_matches_word_width() {
        // The slice path must consume all bytes (padding short tails),
        // so distinct slices hash differently.
        let slice_hash = |b: &[u8]| {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(slice_hash(b"abc"), slice_hash(b"abd"));
        assert_ne!(slice_hash(b"abc"), slice_hash(b"abcabcabc"));
    }
}
