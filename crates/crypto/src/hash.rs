//! One keyed hasher for every table of the workspace.
//!
//! The resolver's caches, the authoritative's apex index and the lab's
//! maps are probed once or more per query, each time with a name's
//! lowercase canonical wire form built on the stack (`dns_wire`'s
//! `Name::with_wire_key`), and the two [`Memo`](crate::memo::Memo)s pick
//! a slot per NSEC3 hash and per signature check, so the hash runs on
//! every query. [`WordHasher`] takes its input eight octets at a time —
//! a multiply and a xorshift per word, one finalizer per key — where the
//! standard library's randomly seeded SipHash pays its rounds per word
//! and draws a fresh seed per map. [`KeyedState`] carries the key: a
//! table keyed from its owner's identity (a resolver keys its tables
//! from its own address) has a layout that repeats run to run and that
//! the names alone do not predict.

use std::hash::{BuildHasher, Hasher};

/// An odd 64-bit constant (2^64 / φ): the per-word multiplier.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 64-bit finalizer of MurmurHash3: every input bit reaches every
/// output bit, so a table may index by the low bits alone.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// The [`BuildHasher`] of every name table: a `u64` key, fixed when the
/// table is made. [`KeyedState::default`] is one fixed key, for tables
/// whose owner has no identity of its own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyedState {
    key: u64,
}

impl KeyedState {
    /// The state for `key`.
    pub fn new(key: u64) -> Self {
        KeyedState {
            key: avalanche(key ^ MUL),
        }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.key }
    }
}

/// Word-at-a-time multiply/xorshift hashing. Each word step is a
/// bijection of the state, so two inputs that differ in one word only
/// never collide; [`Hasher::finish`] avalanches the state.
///
/// `write` pads its last partial word with zeros and does not mix in its
/// length: `Hash` for a slice writes the length first, so keys of
/// different lengths stay apart. Every method is `#[inline]`: the tables
/// live in other crates, where a call per word would cost more than the
/// word.
#[derive(Clone, Debug)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline]
    fn word(&mut self, word: u64) {
        let x = (self.state ^ word).wrapping_mul(MUL);
        self.state = x ^ (x >> 32);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("8-octet chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        avalanche(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equal_inputs_hash_equal_and_keys_differ() {
        let a = KeyedState::new(1);
        assert_eq!(
            a.hash_one(b"\x03www\x07example\x00"),
            a.hash_one(b"\x03www\x07example\x00")
        );
        assert_ne!(a.hash_one(b"abc"), KeyedState::new(2).hash_one(b"abc"));
        // The slice length is part of a slice's hash.
        assert_ne!(a.hash_one(&b"ab"[..]), a.hash_one(&b"ab\x00"[..]));
    }

    #[test]
    fn low_bits_spread_over_similar_names() {
        // 4,096 serving-style keys into 8,192 buckets by their low 13
        // bits: a uniform hash fills about 3,212 (1 - e^-0.5 of them).
        let state = KeyedState::new(7);
        let buckets: HashSet<u64> = (0..4096)
            .map(|i| {
                let name = format!("www.d{i}.example");
                state.hash_one(name.as_bytes()) & 8191
            })
            .collect();
        assert!(buckets.len() > 3_000, "{} buckets", buckets.len());
    }
}
