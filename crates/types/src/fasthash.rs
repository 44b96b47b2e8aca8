//! A non-cryptographic hasher for interior maps keyed by small IDs.
//!
//! The standard library's default hasher is SipHash-1-3 — HashDoS-safe,
//! but several nanoseconds per lookup. Most maps inside the simulator are
//! keyed by values the simulator itself allocates (sequential probe IDs,
//! dense switch IDs), so an adversary never chooses the keys and the
//! DoS defence buys nothing. In the discovery hot loop (one insert, one
//! remove, and several probes of `outstanding` per probe, millions of
//! probes per figure run) the hashing shows up in profiles.
//!
//! [`FxHasher64`] is the word-at-a-time multiply-xor scheme used by the
//! Firefox and rustc internals: fold each word in with a rotate-xor, then
//! multiply by a 64-bit odd constant so the entropy of low-bit-varying
//! keys (sequential counters) spreads into the high bits that hashbrown
//! uses for its control bytes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fast ID hasher. Drop-in for interior, trusted-key
/// maps; do not use for keys an external input controls.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher64>>;

/// `HashSet` companion of [`FastHashMap`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher64>>;

/// 2⁶⁴ / φ, the usual Fibonacci-hashing multiplier.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: decorrelates structured inputs (seed ^ salt,
/// epoch, switch pair) into independent 64-bit values. Every derived
/// RNG seed in the workspace goes through this one function, so two
/// streams can only collide if their inputs do.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SEED);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The word-at-a-time multiply-xor hasher. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(n: u64) -> u64 {
        let mut h = FxHasher64::default();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn sequential_keys_spread_across_high_bits() {
        // hashbrown derives its 7 control bits from the top of the hash;
        // sequential counters must not all land in the same bucket group.
        let tops: FastHashSet<u8> = (0..128u64).map(|n| (hash_of(n) >> 57) as u8).collect();
        assert!(tops.len() > 32, "only {} distinct top-7s", tops.len());
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // First output of the reference SplitMix64 generator seeded 0.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn multi_write_order_matters() {
        let mut a = FxHasher64::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FxHasher64::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut a = FxHasher64::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher64::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_smoke() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }
}
