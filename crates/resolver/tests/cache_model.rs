//! The answer cache against a naive model: a random `put`/`get` stream
//! over a [`TtlCache`] keyed the way [`dns_resolver::Resolver`] keys its
//! answer cache (the owner's wire key with the type after it, probed with
//! key bytes from the stack) and over a `Vec` of `(Name, RrType)` entries
//! kept in insertion order must agree on every hit, every miss and every
//! eviction victim. The victim is a function of that order alone: the
//! first expired entry among the oldest eight, else the oldest.

use sim_check::{gens, props, Gen};

use dns_crypto::hash::KeyedState;
use dns_resolver::TtlCache;
use dns_wire::name::Name;
use dns_wire::rrtype::RrType;

/// Mirrors `EVICTION_PROBE` in `cache.rs`.
const EVICTION_PROBE: usize = 8;

type Key = (Name, RrType);

/// What `TtlCache` documents, written down over a `Vec` in insertion
/// order, oldest first.
struct Model {
    entries: Vec<(Key, u32, u64)>,
    capacity: usize,
    evictions: u64,
}

impl Model {
    fn position(&self, key: &Key) -> Option<usize> {
        self.entries.iter().position(|(k, _, _)| k == key)
    }

    fn get(&mut self, key: &Key, now: u64) -> Option<u32> {
        let at = self.position(key)?;
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
        let expiry = now + ttl_secs as u64 * 1_000_000;
        if let Some(at) = self.position(&key) {
            // An overwrite keeps its place in the order.
            self.entries[at].1 = value;
            self.entries[at].2 = expiry;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            // The first expired one among the oldest eight, else the
            // oldest.
            let victim = self
                .entries
                .iter()
                .take(EVICTION_PROBE)
                .position(|e| e.2 <= now)
                .unwrap_or(0);
            evicted = Some(self.entries.remove(victim).0);
            self.evictions += 1;
        }
        self.entries.push((key, value, expiry));
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

fn lookup(cache: &TtlCache<Box<[u8]>, u32>, key: &Key, now: u64) -> Option<u32> {
    key.0
        .with_wire_key(&key.1 .0.to_be_bytes(), |bytes| cache.get(bytes, now))
}

fn agrees_with_the_model(capacity: usize, ops: Vec<(bool, usize, u32, u64)>) {
    let pool = key_pool();
    let cache = TtlCache::new(capacity, KeyedState::new(capacity as u64));
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
            cache.put(
                owner.wire_key(&key.1 .0.to_be_bytes()),
                step as u32,
                now,
                ttl,
            );
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
