//! A fast, deterministic hasher for in-memory tables.
//!
//! std's default `HashMap` hashes with SipHash under a per-process random
//! key: a sound default against hash flooding, but several times slower
//! than needed for tables keyed by term ids, AIG node ids or internal
//! variable names, which no adversary chooses.  The encode path does little
//! else than look such keys up (hash-consing, structural hashing, rewrite
//! and blaster caches), so [`FastMap`] / [`FastSet`] hash them with the
//! multiply–rotate scheme of the Firefox/rustc "Fx" hasher instead.
//!
//! The hasher has no random key, so two tables filled the same way iterate
//! in the same order in every run.  It is not a stable format, though: keys
//! persisted to disk go through [`StableHasher`](crate::stable::StableHasher),
//! and maps decoded from untrusted input (the service's wire) keep std's
//! SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (a 64-bit odd constant from rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// The Fx hasher: each word is folded in as `(h.rotl(5) ^ w) · SEED`.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps "a" and "a\0" apart.
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn a_fixed_input_gives_a_fixed_hash() {
        assert_eq!(hash_of(&0u32), 0);
        assert_eq!(hash_of(&1u32), SEED);
        assert_eq!(
            hash_of(&(1u32, 2u32)),
            (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED)
        );
        assert_eq!(hash_of(&"x"), hash_of(&"x"));
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn maps_filled_the_same_way_iterate_in_the_same_order() {
        let fill = || {
            let mut map: FastMap<String, u32> = FastMap::default();
            for i in 0..500u32 {
                map.insert(format!("v{}", i.wrapping_mul(7919) % 1000), i);
            }
            map.remove("v7");
            map
        };
        let (a, b) = (fill(), fill());
        assert!(a.iter().eq(b.iter()));
        let set_a: FastSet<u32> = (0..300).map(|i| i * 13).collect();
        let set_b: FastSet<u32> = (0..300).map(|i| i * 13).collect();
        assert!(set_a.iter().eq(set_b.iter()));
    }
}
