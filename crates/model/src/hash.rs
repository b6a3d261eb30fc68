//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The hot policies (Mockingjay's reuse-distance predictor, FOO's interval
//! builder, the oracle occurrence index) key hash maps by addresses — small,
//! trusted, fixed-width integers. The standard library's default SipHash is
//! DoS-resistant but costs more than the table probe it guards; this module
//! provides an FxHash-style multiply-and-rotate hasher that is several times
//! cheaper and — unlike SipHash — deterministic across runs and platforms.
//!
//! **Not** collision-resistant against adversarial keys: use it only for
//! simulator-internal state, never for externally supplied input.
//!
//! # Examples
//!
//! ```
//! use uopcache_model::hash::FastHashMap;
//! use uopcache_model::Addr;
//!
//! let mut m: FastHashMap<Addr, u64> = FastHashMap::default();
//! m.insert(Addr::new(0x40), 3);
//! assert_eq!(m.get(&Addr::new(0x40)), Some(&3));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with high entropy (the 64-bit golden-ratio constant).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-and-rotate hasher over 64-bit words.
#[derive(Default, Clone, Debug)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(SEED).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Hasher state for [`FastHasher`]-backed maps.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
///
/// This alias is the blessed deterministic map: `clippy.toml` disallows bare
/// `std::collections::HashMap` and points here instead.
#[expect(
    clippy::disallowed_types,
    reason = "the definition site of the blessed alias"
)]
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`] (see [`FastHashMap`]).
#[expect(
    clippy::disallowed_types,
    reason = "the definition site of the blessed alias"
)]
pub type FastHashSet<T> = std::collections::HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(n: u64) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(hash_of(0x40), hash_of(0x40));
        // Aligned addresses (the common key shape) must not collapse into
        // the same buckets: check the low bits differ across a small run.
        let lows: FastHashSet<u64> = (0..64u64).map(|i| hash_of(i * 64) & 0xff).collect();
        assert!(
            lows.len() > 32,
            "low bits collapse: {} distinct",
            lows.len()
        );
    }

    #[test]
    fn byte_stream_matches_word_writes_for_round_trips() {
        // Same value hashed as a byte slice or as a word must be stable
        // (not necessarily equal to each other; each path is deterministic).
        let mut a = FastHasher::default();
        a.write(&0x1234_5678_u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write(&0x1234_5678_u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trip() {
        let mut m: FastHashMap<(u64, u32), usize> = FastHashMap::default();
        for i in 0..1_000u32 {
            m.insert((u64::from(i) * 64, 4), i as usize);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&(640, 4)), Some(&10));
        assert_eq!(m.get(&(640, 5)), None);
    }
}
