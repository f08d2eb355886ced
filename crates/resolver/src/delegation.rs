//! The delegation cache: referral state learned while walking the
//! delegation graph, so a warm resolver restarts recursion at the
//! deepest zone cut it already knows instead of from the root hints.
//!
//! Real recursors keep NS RRsets (and the validated DS sets covering
//! them) cached per zone cut; without this every resolution re-walks
//! root → TLD → leaf and the root servers see every query. Storage is a
//! [`TtlCache`] keyed by the apex's lowercase canonical wire form — the
//! same insertion-order eviction as every resolver cache, so sharded
//! drivers stay byte-identical at any thread count or window — and the
//! deepest cut above a name is found by probing the label-boundary
//! suffixes of that name's one key.

use dns_crypto::hash::KeyedState;
use dns_wire::name::{wire_suffixes, Name};
use dns_wire::record::Record;
use std::net::IpAddr;

use crate::cache::TtlCache;

/// One cached zone cut: where to send queries for names under `apex`,
/// and the security state the walk established for it.
#[derive(Clone, Debug)]
pub(crate) struct Delegation {
    /// Nameserver addresses (glue) for the zone.
    pub servers: Vec<IpAddr>,
    /// The chain state at the cut: `true` means the parent published a
    /// DS set that validated (the `ds` field holds it); `false` means
    /// the delegation was proven insecure (opt-out / no DS).
    pub secure: bool,
    /// The validated DS RRset from the parent side of the cut. Re-used
    /// to re-validate the child's DNSKEYs when the key cache has
    /// expired but the delegation has not.
    pub ds: Vec<Record>,
}

/// TTL-bounded map from zone apex to [`Delegation`], with
/// deepest-ancestor lookup and its own hit/miss accounting (the inner
/// per-ancestor probes would otherwise overcount misses).
#[derive(Debug)]
pub(crate) struct DelegationCache {
    entries: TtlCache<Box<[u8]>, Delegation>,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

impl DelegationCache {
    /// A cache holding at most `capacity` zone cuts (0 disables it).
    pub(crate) fn new(capacity: usize, hasher: KeyedState) -> Self {
        DelegationCache {
            entries: TtlCache::new(capacity, hasher),
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
        }
    }

    /// The deepest cached delegation on the path from the root to
    /// `qname` (never the root itself — root hints cover that), with
    /// the apex it is cached under. One hit or miss is recorded per
    /// call, not per ancestor probed.
    pub(crate) fn deepest(&self, qname: &Name, now_micros: u64) -> Option<(Name, Delegation)> {
        // Every ancestor's key is a suffix of `qname`'s: one key, one
        // probe per label, and a `Name` only for the cut that is found.
        let found = qname.with_wire_key(&[], |key| {
            wire_suffixes(key)
                .take_while(|cut| cut.len() > 1)
                .enumerate()
                .find_map(|(up, cut)| Some((up, self.entries.get(cut, now_micros)?)))
        });
        self.record(found.is_some());
        let (up, delegation) = found?;
        Some((qname.ancestor(up)?, delegation))
    }

    /// Record the cut learned from a referral.
    pub(crate) fn insert(
        &self,
        apex: &Name,
        delegation: Delegation,
        now_micros: u64,
        ttl_secs: u32,
    ) {
        self.entries
            .put(apex.wire_key(&[]), delegation, now_micros, ttl_secs);
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.set(self.hits.get() + 1);
        } else {
            self.misses.set(self.misses.get() + 1);
        }
    }

    /// Lookups that found a usable cut.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that walked every ancestor and found nothing.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// At-capacity evictions in the underlying store.
    pub(crate) fn evictions(&self) -> u64 {
        self.entries.evictions()
    }
}

#[cfg(test)]
impl DelegationCache {
    /// Cached cut count.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn d(addr: &str) -> Delegation {
        Delegation {
            servers: vec![addr.parse().unwrap()],
            secure: false,
            ds: Vec::new(),
        }
    }

    #[test]
    fn deepest_ancestor_wins() {
        let cache = DelegationCache::new(8, KeyedState::default());
        cache.insert(&n("com."), d("192.0.2.1"), 0, 3600);
        cache.insert(&n("example.com."), d("192.0.2.2"), 0, 3600);
        let (apex, hit) = cache.deepest(&n("www.example.com."), 1).unwrap();
        assert_eq!(apex, n("example.com."));
        assert_eq!(hit.servers, vec!["192.0.2.2".parse::<IpAddr>().unwrap()]);
        // A name only under com. falls back to the shallower cut.
        let (apex, _) = cache.deepest(&n("other.com."), 1).unwrap();
        assert_eq!(apex, n("com."));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn miss_counts_once_not_per_ancestor() {
        let cache = DelegationCache::new(8, KeyedState::default());
        assert!(cache.deepest(&n("a.b.c.d.example."), 0).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn ttl_expiry_falls_back() {
        let cache = DelegationCache::new(8, KeyedState::default());
        cache.insert(&n("com."), d("192.0.2.1"), 0, 3600);
        cache.insert(&n("example.com."), d("192.0.2.2"), 0, 1);
        let (apex, _) = cache.deepest(&n("www.example.com."), 2_000_000).unwrap();
        assert_eq!(apex, n("com."), "expired deep cut skipped");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = DelegationCache::new(0, KeyedState::default());
        cache.insert(&n("com."), d("192.0.2.1"), 0, 3600);
        assert!(cache.deepest(&n("www.com."), 1).is_none());
        assert_eq!(cache.len(), 0);
    }
}
