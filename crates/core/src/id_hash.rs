//! The hasher behind the checkers' id-keyed maps and sets.
//!
//! Checker state is keyed by ids — of messages, producers, consumers,
//! sessions and transactions — that the harness's own recorder stamps,
//! or that come out of a MAC-verified journal. No adversary chooses
//! them, so std's keyed SipHash guards against a hash-flooding attack
//! that cannot happen here, at several times the cost of this
//! word-at-a-time multiply-rotate hash (the scheme of rustc's
//! `FxHasher`). A trace file handed to the analysis by hand is the one
//! input whose ids someone else could pick: crafted to collide, they
//! slow its analysis down but cannot change the verdict. The hash is
//! unkeyed, so a map's iteration order is the same in every process;
//! no checker output depends on that order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub(crate) type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// An odd 64-bit multiplier with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds each written word into the state with a rotate, an xor and a
/// multiply.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// A multiply only mixes upward, so the state goes through one more,
    /// full-width multiply whose high half is folded onto its low half:
    /// every state bit then reaches both the low bits (the table's bucket
    /// index) and the top bits (its tag byte).
    fn finish(&self) -> u64 {
        let full = u128::from(self.0) * u128::from(MULTIPLIER);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::id::{ConsumerId, MessageId};
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    /// How many of 4,096 buckets, and of 128 tags, 4,096 ids reach; a
    /// random hash fills about 63% of the buckets and every tag.
    fn spread(ids: impl Iterator<Item = u64>) -> (usize, usize) {
        let hashes: Vec<u64> = ids.map(|id| hash(&MessageId::from_raw(id))).collect();
        let buckets: IdSet<u64> = hashes.iter().map(|h| h & 4_095).collect();
        let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (buckets.len(), tags.len())
    }

    #[test]
    fn ids_spread_over_buckets_and_tags() {
        let (buckets, tags) = spread(0..4_096);
        assert!(
            buckets > 2_400 && tags == 128,
            "{buckets} buckets, {tags} tags"
        );
        // Ids that differ only in their high bits, too.
        let (buckets, tags) = spread((0..4_096).map(|id| id << 40));
        assert!(
            buckets > 2_400 && tags == 128,
            "{buckets} buckets, {tags} tags"
        );
    }

    #[test]
    fn every_word_of_a_key_counts() {
        let a = hash(&(ConsumerId::from_raw(1), MessageId::from_raw(2)));
        let b = hash(&(ConsumerId::from_raw(2), MessageId::from_raw(1)));
        assert_ne!(a, b);
        assert_ne!(hash(&"queue:q1"), hash(&"queue:q2"));
        assert_ne!(hash(&[1u8, 2, 3][..]), hash(&[1u8, 2, 4][..]));
    }
}
