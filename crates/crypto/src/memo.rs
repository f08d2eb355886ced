//! One direct-mapped memo for the workspace's two deterministic
//! functions worth remembering: the NSEC3 hash of a name under a
//! parameter set, and the HMAC tag of a message under a key.
//!
//! A [`Memo`] has a power-of-two number of slots. [`KeyedState`] over the
//! key picks one, and a hit needs the stored key to compare equal in
//! full, so the hash only ever decides where to look, never what is
//! returned: a hit hands back the stored value verbatim. A caller gives
//! its key in parts, which are hashed and compared where they lie. Keys
//! compare as the parts' concatenation, so each caller cuts its keys one
//! fixed way, and so that the concatenation is unambiguous.
//!
//! A colliding store replaces the slot's entry when the memo's
//! admission predicate allows it. Each slot keeps its key buffer for
//! good, emptied or not, so a store allocates only when the key is
//! longer than any its slot has held.

use std::hash::{BuildHasher, Hasher};

use crate::hash::KeyedState;

/// A direct-mapped memo from byte keys to `V` (see the module docs).
pub struct Memo<V> {
    /// Each slot's key buffer, and its value while it holds an entry.
    slots: Box<[(Vec<u8>, Option<V>)]>,
    state: KeyedState,
    /// Longest key a slot stores; a longer one is computed every time.
    max_key: usize,
    /// `admit(held, new)`: whether a store of `new` replaces `held`.
    admit: fn(&V, &V) -> bool,
    hits: u64,
    misses: u64,
}

impl<V: Copy> Memo<V> {
    /// A memo of `slots` slots (rounded up to a power of two, minimum 1)
    /// under `state`, storing keys of at most `max_key` octets and
    /// replacing a held entry when `admit(held, new)` says so.
    pub fn new(slots: usize, state: KeyedState, max_key: usize, admit: fn(&V, &V) -> bool) -> Self {
        let slots = slots.max(1).next_power_of_two();
        Memo {
            slots: (0..slots).map(|_| (Vec::new(), None)).collect(),
            state,
            max_key,
            admit,
            hits: 0,
            misses: 0,
        }
    }

    /// The value stored under the key `parts` concatenate, or else
    /// `compute()`'s, stored when the key fits and the slot admits it.
    #[inline]
    pub fn get_or_compute(&mut self, parts: &[&[u8]], compute: impl FnOnce() -> V) -> V {
        let mut hasher = self.state.build_hasher();
        for part in parts {
            hasher.write(part);
        }
        let (key, held) = &mut self.slots[hasher.finish() as usize & (self.slots.len() - 1)];
        let len = parts.iter().map(|part| part.len()).sum();
        let mut rest = key.as_slice();
        let whole = |p: &&[u8]| rest.split_off(..p.len()) == Some(*p);
        if let Some(value) = held.filter(|_| key.len() == len && parts.iter().all(whole)) {
            self.hits += 1;
            return value;
        }
        self.misses += 1;
        let value = compute();
        if len <= self.max_key && held.is_none_or(|held| (self.admit)(&held, &value)) {
            key.clear();
            key.reserve(len);
            for part in parts {
                key.extend_from_slice(part);
            }
            *held = Some(value);
        }
        value
    }

    /// `(hits, misses)` since the memo was made or last emptied.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop every entry and zero the counters.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|(_, held)| *held = None);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(_: &u32, _: &u32) -> bool {
        true
    }

    #[test]
    fn a_hit_needs_the_whole_key_and_returns_the_stored_value() {
        let mut memo = Memo::new(8, KeyedState::new(1), 16, always);
        assert_eq!(memo.get_or_compute(&[b"ab", b"c"], || 1), 1);
        assert_eq!(memo.get_or_compute(&[b"abd"], || 3), 3);
        assert_eq!(memo.get_or_compute(&[b"abc", b"d"], || 4), 4);
        assert_eq!(memo.get_or_compute(&[b"ab", b"c"], || 2), 1);
        assert_eq!(memo.stats(), (1, 3));
        memo.clear();
        assert_eq!(memo.stats(), (0, 0));
        assert_eq!(memo.get_or_compute(&[b"abc"], || 5), 5, "cleared");
    }

    #[test]
    fn one_slot_replaces_only_what_admit_allows() {
        // Odd values are never displaced by even ones.
        let mut memo = Memo::new(1, KeyedState::default(), 16, |held: &u32, new: &u32| {
            held.is_multiple_of(2) || new % 2 == 1
        });
        memo.get_or_compute(&[b"one"], || 1);
        memo.get_or_compute(&[b"two"], || 2);
        assert_eq!(
            memo.get_or_compute(&[b"one"], || 0),
            1,
            "held against an even store"
        );
        memo.get_or_compute(&[b"three"], || 3);
        assert_eq!(memo.get_or_compute(&[b"three"], || 0), 3);
        assert_eq!(memo.stats(), (2, 3));
    }

    #[test]
    fn a_key_over_the_limit_is_computed_and_counted_but_not_stored() {
        let mut memo = Memo::new(4, KeyedState::default(), 3, always);
        assert_eq!(memo.get_or_compute(&[b"long"], || 1), 1);
        assert_eq!(memo.get_or_compute(&[b"long"], || 2), 2);
        assert_eq!(memo.stats(), (0, 2));
    }
}
