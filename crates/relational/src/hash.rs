//! Multiply-mix hashing for the executor's own integer keys.
//!
//! The dedup index (keyed by a row's call-local `ValueId` tuple) and the
//! answer cache (keyed by an interned instruction id plus an already mixed
//! 64-bit content hash) only ever see keys this crate produced, so SipHash's
//! flooding resistance buys nothing there and its cost shows on every
//! offered row. Neither map's iteration order is observed: dedup groups are
//! numbered as they are first seen, `AnswerCache::export` sorts, and
//! eviction sorts by stamp.

use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One rotate-xor-multiply per 64-bit word written, finished with a
/// xor-shift-multiply so the map's bucket bits (low) and control tag (top
/// seven) both depend on every word.
#[derive(Debug, Default, Clone)]
pub(crate) struct MixHasher {
    hash: u64,
}

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let x = (self.hash ^ (self.hash >> 32)).wrapping_mul(K);
        x ^ (x >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`MixHasher`].
pub(crate) type MixBuild = BuildHasherDefault<MixHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        MixBuild::default().hash_one(value)
    }

    #[test]
    fn dense_id_tuples_spread_over_bucket_and_tag_bits() {
        // The dedup index's worst case: small dense ids differing in one
        // position. Low 12 bits pick the bucket, top 7 the control tag.
        let tuples: Vec<[u32; 3]> = (0..4096u32).map(|i| [7, i, 7]).collect();
        let buckets: HashSet<u64> = tuples.iter().map(|t| hash_of(&t[..]) & 0xfff).collect();
        let tags: HashSet<u64> = tuples.iter().map(|t| hash_of(&t[..]) >> 57).collect();
        assert!(buckets.len() > 2400, "{} of 4096 buckets", buckets.len());
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn tuples_of_different_arity_and_order_differ() {
        let hashes: HashSet<u64> = [&[1u32, 2][..], &[2, 1], &[1, 2, 0], &[0, 1, 2], &[1], &[]]
            .iter()
            .map(|t| hash_of(*t))
            .collect();
        assert_eq!(hashes.len(), 6);
    }
}
