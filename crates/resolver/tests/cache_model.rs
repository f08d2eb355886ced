//! The answer cache against a naive model: a random `put`/`get` stream
//! over a [`TtlCache`] keyed the way [`dns_resolver::Resolver`] keys its
//! answer cache ([`Name::rrset_sort_key`], probed with key bytes from the
//! stack) and over a `Vec` of `(Name, RrType)` entries kept sorted with
//! `canonical_cmp` must agree on every hit, every miss and every eviction
//! victim. The sort key is an encoding of that order, so the victim — a
//! sorted neighbour of the inserted key — is a function of the order
//! alone.

use sim_check::{gens, props, Gen};

use dns_resolver::TtlCache;
use dns_wire::name::{Name, SortKey};
use dns_wire::rrtype::RrType;

/// Mirrors `EVICTION_PROBE` in `cache.rs`.
const EVICTION_PROBE: usize = 8;

type Key = (Name, RrType);

/// What `TtlCache` documents, written down over a sorted `Vec`.
struct Model {
    entries: Vec<(Key, u32, u64)>,
    capacity: usize,
    evictions: u64,
}

impl Model {
    fn position(&self, key: &Key) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(k, _, _)| k.0.canonical_cmp(&key.0).then_with(|| k.1.cmp(&key.1)))
    }

    fn get(&mut self, key: &Key, now: u64) -> Option<u32> {
        let at = self.position(key).ok()?;
        if self.entries[at].2 > now {
            return Some(self.entries[at].1);
        }
        self.entries.remove(at);
        None
    }

    /// Returns the key evicted to make room, if one was.
    fn put(&mut self, key: Key, value: u32, now: u64, ttl_secs: u32) -> Option<Key> {
        if ttl_secs == 0 {
            return None;
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            if let Err(at) = self.position(&key) {
                // The sorted successors of the new key, wrapping: the
                // first expired one among the nearest eight, else the
                // nearest.
                let n = self.entries.len();
                let probed = (0..n.min(EVICTION_PROBE)).map(|i| (at + i) % n);
                let victim = probed
                    .clone()
                    .find(|&i| self.entries[i].2 <= now)
                    .or_else(|| probed.clone().next());
                if let Some(i) = victim {
                    evicted = Some(self.entries.remove(i).0);
                    self.evictions += 1;
                }
            }
        }
        let entry = (key, value, now + ttl_secs as u64 * 1_000_000);
        match self.position(&entry.0) {
            Ok(at) => self.entries[at] = entry,
            Err(at) => self.entries.insert(at, entry),
        }
        evicted
    }
}

/// 120 keys: 40 names that share suffixes, differ in case and carry the
/// octets the sort key escapes, under three types.
fn key_pool() -> Vec<Key> {
    let labels: [&[u8]; 8] = [
        b"a",
        b"B",
        b"ab",
        b"\x00",
        b"\x01",
        b"\x01\x00",
        b"z",
        b"\xFF",
    ];
    let mut names = vec![Name::root()];
    for (i, tld) in [&b"com"[..], b"ORG", b"\x00x"].iter().enumerate() {
        names.push(Name::from_labels([tld]).unwrap());
        for (j, l) in labels.iter().enumerate() {
            names.push(Name::from_labels([l, tld]).unwrap());
            if (i + j) % 2 == 0 {
                names.push(Name::from_labels([labels[(j + 3) % 8], l, tld]).unwrap());
            }
        }
    }
    names.truncate(40);
    names
        .iter()
        .flat_map(|n| [RrType::A, RrType::AAAA, RrType(256)].map(|t| (n.clone(), t)))
        .collect()
}

/// `(is_put, key index, ttl seconds, microseconds since the last op)`.
fn ops() -> impl Gen<Vec<(bool, usize, u32, u64)>> {
    gens::vec_of(
        (
            gens::map(gens::usizes(0..10), |i| i < 8),
            gens::usizes(0..120),
            gens::u32s(0..=3),
            gens::u64s(0..=400_000),
        ),
        500..=560,
    )
}

fn lookup(cache: &TtlCache<SortKey, u32>, key: &Key, now: u64) -> Option<u32> {
    key.0
        .with_rrset_sort_key(key.1, |bytes| cache.get(bytes, now))
}

fn agrees_with_the_model(capacity: usize, ops: Vec<(bool, usize, u32, u64)>) {
    let pool = key_pool();
    let cache: TtlCache<SortKey, u32> = TtlCache::new(capacity);
    let mut model = Model {
        entries: Vec::new(),
        capacity,
        evictions: 0,
    };
    let mut now = 0u64;
    for (step, (is_put, idx, ttl, dt)) in ops.into_iter().enumerate() {
        now += dt;
        let key = &pool[idx];
        if is_put {
            // Every other put spells the owner in upper case: the same key.
            let owner = if step % 2 == 0 {
                Name::from_labels(key.0.labels().map(<[u8]>::to_ascii_uppercase)).unwrap()
            } else {
                key.0.clone()
            };
            cache.put(owner.rrset_sort_key(key.1), step as u32, now, ttl);
            // Equal contents before, equal sizes after and the model's
            // victim gone from the cache: equal contents after.
            if let Some(victim) = model.put(key.clone(), step as u32, now, ttl) {
                assert_eq!(lookup(&cache, &victim, now), None, "victim {victim:?}");
            }
        } else {
            assert_eq!(lookup(&cache, key, now), model.get(key, now), "get {key:?}");
        }
        assert_eq!(cache.len(), model.entries.len(), "after step {step}");
        assert_eq!(cache.evictions(), model.evictions, "after step {step}");
    }
    for key in &pool {
        assert_eq!(
            lookup(&cache, key, now),
            model.get(key, now),
            "final {key:?}"
        );
    }
    assert!(model.evictions > 0, "the stream never overflowed");
}

props! {
    fn keyed_cache_agrees_with_the_naive_model_at_capacity_8(ops in ops()) {
        agrees_with_the_model(8, ops);
    }

    fn keyed_cache_agrees_with_the_naive_model_at_capacity_64(ops in ops()) {
        agrees_with_the_model(64, ops);
    }
}
