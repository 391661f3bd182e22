//! A small deterministic hasher for the simulator's own integer keys.
//!
//! The standard library's SipHash resists keys chosen to collide, which
//! the simulator does not need: its maps are keyed by block addresses,
//! bank/row pairs and page numbers that the simulation itself generates.
//! [`FoldHasher`] folds each word into the state with one 64×64→128-bit
//! multiply, XORing the product's high half into its low half. A plain
//! multiply (as in Fx hashing) leaves the low bits of the hash depending
//! only on the low bits of the key, so 64-byte-aligned addresses would
//! all land in 1/64 of a table's buckets; the fold carries the high
//! bits down. The hash depends on nothing but the key, so iteration
//! order is the same in every run.
//!
//! ```
//! use obfusmem_sim::hash::FoldMap;
//!
//! let mut m: FoldMap<u64, u32> = FoldMap::default();
//! m.insert(0x40, 1);
//! assert_eq!(m.get(&0x40), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant (the fractional part of the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher: one folded multiply per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(K);
        self.state = (product >> 64) as u64 ^ product as u64;
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`FoldHasher`]s; every one starts from the same state.
pub type BuildFoldHasher = BuildHasherDefault<FoldHasher>;

/// A `HashMap` keyed through [`FoldHasher`]. Build it with
/// `FoldMap::default()`.
pub type FoldMap<K, V> = HashMap<K, V, BuildFoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildFoldHasher::default().hash_one(key)
    }

    /// Block-aligned addresses must spread over a table's buckets: the
    /// low bits index the bucket, and all of an aligned key's low bits
    /// are zero. A plain multiply keeps them zero and fills only 1/64 of
    /// the buckets.
    #[test]
    fn block_aligned_keys_spread_across_buckets() {
        const BUCKETS: u64 = 1024;
        let fill = |hash: &dyn Fn(u64) -> u64| {
            let mut used = vec![false; BUCKETS as usize];
            for block in 0..4 * BUCKETS {
                used[(hash(block * 64) % BUCKETS) as usize] = true;
            }
            used.iter().filter(|&&u| u).count() as u64
        };
        let folded = fill(&|key| hash_of(key));
        let plain = fill(&|key| key.wrapping_mul(K));
        assert_eq!(plain, BUCKETS / 64, "the plain multiply is the strawman");
        assert!(
            folded > BUCKETS * 9 / 10,
            "folded hash filled {folded} of {BUCKETS} buckets"
        );
    }

    /// The top bits pick a table's control byte, so they must spread too.
    #[test]
    fn block_aligned_keys_spread_in_the_top_bits() {
        let mut used = [false; 128];
        for block in 0..4096u64 {
            used[(hash_of(block * 64) >> 57) as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "every top-7-bit tag appears");
    }

    #[test]
    fn hashing_is_deterministic_and_separates_tuple_order() {
        assert_eq!(hash_of((3usize, 7u64)), hash_of((3usize, 7u64)));
        assert_ne!(hash_of((3usize, 7u64)), hash_of((7usize, 3u64)));
        assert_ne!(hash_of(0u64), hash_of(1u64));
    }

    #[test]
    fn byte_writes_fold_whole_words() {
        let mut a = FoldHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FoldHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fold_map_round_trips() {
        let mut m: FoldMap<(usize, u64), u64> = FoldMap::default();
        for bank in 0..16 {
            for row in 0..64 {
                *m.entry((bank, row)).or_insert(0) += bank as u64 + row;
            }
        }
        assert_eq!(m.len(), 16 * 64);
        assert_eq!(m[&(15, 63)], 78);
    }
}
