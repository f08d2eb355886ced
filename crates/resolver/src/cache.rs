//! TTL-bounded caching, driven by the simulation's virtual clock.
//!
//! Real resolvers cache aggressively — that is why the paper's probing
//! methodology uses a unique label per resolver and why its census
//! expected "a fraction of our queries \[to\] be resolved from \[Cloudflare's\]
//! internal cache" (Appendix A). The resolver uses one [`TtlCache`] for
//! final answers and one for validated zone keys, both keyed by the
//! name's canonical sort key, so a probe is one key built on the stack
//! and a `memcmp` per tree level.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Bound;

/// How many sorted neighbours an at-capacity insert probes for an
/// expired victim before settling for the nearest live one.
const EVICTION_PROBE: usize = 8;

/// A capacity- and TTL-bounded map over the virtual clock (microseconds).
///
/// Storage is a `BTreeMap`, not a `HashMap`, and that is load-bearing:
/// at-capacity eviction must pick a victim, and any choice driven by
/// randomized hash order would leak nondeterminism into every driver
/// that overflows a cache (the serving workload does, by design). Sorted
/// order makes the victim a pure function of the cache contents.
#[derive(Debug)]
pub struct TtlCache<K, V> {
    entries: RefCell<BTreeMap<K, (V, u64)>>,
    capacity: usize,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
    evictions: std::cell::Cell<u64>,
}

impl<K: Ord + Clone, V: Clone> TtlCache<K, V> {
    /// A cache holding at most `capacity` live entries (0 disables it).
    pub fn new(capacity: usize) -> Self {
        TtlCache {
            entries: RefCell::new(BTreeMap::new()),
            capacity,
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
            evictions: std::cell::Cell::new(0),
        }
    }

    /// Fetch `key` if present and not expired at `now_micros`. Takes any
    /// borrowed form of the key, as `BTreeMap::get` does: the resolver's
    /// caches store [`dns_wire::name::SortKey`]s and are probed with key
    /// bytes built on the stack.
    pub fn get<Q>(&self, key: &Q, now_micros: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if self.capacity == 0 {
            return None;
        }
        let mut entries = self.entries.borrow_mut();
        match entries.get(key) {
            Some((v, expiry)) if *expiry > now_micros => {
                self.hits.set(self.hits.get() + 1);
                Some(v.clone())
            }
            Some(_) => {
                entries.remove(key);
                self.misses.set(self.misses.get() + 1);
                None
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                None
            }
        }
    }

    /// Store `value` until `now_micros + ttl_secs`.
    pub fn put(&self, key: K, value: V, now_micros: u64, ttl_secs: u32) {
        if self.capacity == 0 || ttl_secs == 0 {
            return;
        }
        let mut entries = self.entries.borrow_mut();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // O(log n) eviction, no full-map scan and no collected key
            // list on the insert hot path: probe a few sorted
            // neighbours of the new key (wrapping) for an expired
            // victim, and settle for the nearest neighbour if all are
            // live. Wrapped-successor choice spreads eviction around
            // the keyspace (the simulation does not model LRU
            // pressure) and, unlike hash order, is deterministic.
            let victim = {
                let after = entries.range((Bound::Excluded(&key), Bound::Unbounded));
                let before = entries.range((Bound::Unbounded, Bound::Excluded(&key)));
                let mut probe = after.chain(before);
                let mut fallback = None;
                let mut expired = None;
                for (k, (_, e)) in probe.by_ref().take(EVICTION_PROBE) {
                    if fallback.is_none() {
                        fallback = Some(k.clone());
                    }
                    if *e <= now_micros {
                        expired = Some(k.clone());
                        break;
                    }
                }
                expired.or(fallback)
            };
            if let Some(k) = victim {
                entries.remove(&k);
                self.evictions.set(self.evictions.get() + 1);
            }
        }
        entries.insert(key, (value, now_micros + ttl_secs as u64 * 1_000_000));
    }

    /// Live entry count (may include expired entries not yet collected).
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// At-capacity evictions so far (expired-entry removal on `get` is
    /// not an eviction; only the insert path displacing a victim counts).
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_expiry() {
        let cache: TtlCache<&str, u32> = TtlCache::new(8);
        assert_eq!(cache.get(&"k", 0), None);
        cache.put("k", 7, 0, 300);
        assert_eq!(cache.get(&"k", 1_000), Some(7));
        // 300 s later: expired.
        assert_eq!(cache.get(&"k", 300_000_001), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache: TtlCache<&str, u32> = TtlCache::new(0);
        cache.put("k", 7, 0, 300);
        assert_eq!(cache.get(&"k", 1), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn zero_ttl_not_stored() {
        let cache: TtlCache<&str, u32> = TtlCache::new(8);
        cache.put("k", 7, 0, 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_bounded_with_expired_eviction_first() {
        let cache: TtlCache<u32, u32> = TtlCache::new(2);
        cache.put(1, 1, 0, 1); // expires at 1s
        cache.put(2, 2, 0, 1000);
        // At t=2s entry 1 is expired; inserting 3 evicts it, keeps 2.
        cache.put(3, 3, 2_000_000, 1000);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2, 2_000_001), Some(2));
        assert_eq!(cache.get(&3, 2_000_001), Some(3));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn overwrite_updates_expiry() {
        let cache: TtlCache<&str, u32> = TtlCache::new(2);
        cache.put("k", 1, 0, 1);
        cache.put("k", 2, 0, 1000);
        assert_eq!(cache.get(&"k", 500_000_000), Some(2));
    }
}
