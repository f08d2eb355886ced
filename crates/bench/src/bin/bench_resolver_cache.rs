//! Microbenchmarks for the resolver's [`TtlCache`] — the structure every
//! census and study query passes through (once for the answer cache, once
//! for the validated-key cache).
//!
//! Three cost regimes matter to the pipelines:
//!
//! * **eviction churn** — inserts at capacity trigger the
//!   collect-expired-then-arbitrary eviction scan;
//! * **TTL-expiry churn** — lookups that find only expired entries pay a
//!   removal on the read path;
//! * **steady-state mixes** — a Zipf-distributed query stream (the shape
//!   of real resolver traffic, heavy head + long tail) against the two
//!   cache geometries the resolver actually deploys: the wide answer
//!   cache (capacity 4096, large key universe) and the narrow
//!   validated-key cache (capacity 512, one key per zone).
//!
//! Every row keys its cache the way [`dns_resolver::Resolver`] does —
//! [`SortKey`]s of names under 24 zones, built by
//! [`Name::rrset_sort_key`] (answers) or [`Name::sort_key`] (zone keys)
//! and probed with key bytes from the stack — so a row times the
//! comparisons and the key building a resolver pays, not those of a
//! stand-in key type.
//!
//! Results land in `BENCH_resolver_cache.json` via the shared
//! [`heroes_bench::microbench`] runner, steady-state hit ratios
//! included.

use dns_resolver::TtlCache;
use dns_wire::name::{Name, SortKey};
use dns_wire::rrtype::RrType;
use heroes_bench::microbench::Suite;
use sim_rng::{Rng, Xoshiro256pp};

/// Zipf(s = 1.0) sampler over ranks `0..n` via inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let total = *self.cdf.last().expect("non-empty universe");
        let u = rng.next_f64() * total;
        self.cdf.partition_point(|&c| c <= u)
    }
}

/// The serving fleet's zone count.
const ZONES: usize = 24;

/// `universe` host names spread over [`ZONES`] zones.
fn hosts(universe: usize) -> Vec<Name> {
    (0..universe)
        .map(|i| Name::parse(&format!("host-{i}.zone-{:02}.example.", i % ZONES)).expect("parses"))
        .collect()
}

/// `universe` zone apexes, one validated key set each.
fn apexes(universe: usize) -> Vec<Name> {
    (0..universe)
        .map(|i| Name::parse(&format!("zone-{i:03}.example.")).expect("parses"))
        .collect()
}

/// A pre-sampled Zipf query stream over `universe` ranks, so the timed
/// loop measures the cache, not the sampler.
fn query_stream(universe: usize, queries: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(universe);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..queries).map(|_| zipf.sample(&mut rng)).collect()
}

/// The resolver's fast path and the end of its recursion: probe the
/// answer cache with the question's key on the stack, insert under an
/// owned one on a miss.
fn answer_lookup(cache: &TtlCache<SortKey, u32>, qname: &Name, value: u32, now: u64) {
    let hit = qname.with_rrset_sort_key(RrType::A, |key| cache.get(key, now));
    if hit.is_none() {
        cache.put(qname.rrset_sort_key(RrType::A), value, now, 300);
    }
}

/// `Resolver::cached_child_keys`: probe by the zone's key, insert a fresh
/// one on a miss.
fn key_lookup(cache: &TtlCache<SortKey, u32>, zone: &Name, value: u32, now: u64) {
    if zone.with_sort_key(|key| cache.get(key, now)).is_none() {
        cache.put(zone.sort_key(), value, now, 300);
    }
}

/// Run `stream` through a fresh cache of `capacity`; report the hit rate.
fn hit_ratio(
    capacity: usize,
    names: &[Name],
    stream: &[usize],
    lookup: fn(&TtlCache<SortKey, u32>, &Name, u32, u64),
) -> f64 {
    let cache = TtlCache::new(capacity);
    let mut now = 0u64;
    for &idx in stream {
        now += 1_000; // 1 ms of virtual time per query
        lookup(&cache, &names[idx], idx as u32, now);
    }
    cache.hits() as f64 / (cache.hits() + cache.misses()) as f64
}

fn main() {
    println!("TtlCache microbenchmarks (answer cache: cap 4096; key cache: cap 512)");
    let mut suite = Suite::new("resolver_cache");

    // Eviction churn: the cache sits exactly at capacity and every insert
    // is a name it does not hold (the pool is 64 times the capacity and
    // the victim is a sorted neighbour), forcing the eviction probe each
    // time.
    {
        let fresh = hosts(65_536);
        let cache: TtlCache<SortKey, u32> = TtlCache::new(1024);
        for qname in &fresh[..1024] {
            cache.put(qname.rrset_sort_key(RrType::A), 0, 0, 3_600);
        }
        let mut next = 1024usize;
        suite.bench("churn/eviction-at-capacity", || {
            next = (next + 1) % fresh.len();
            cache.put(fresh[next].rrset_sort_key(RrType::A), 0, 0, 3_600);
            cache.evictions()
        });
    }

    // TTL-expiry churn: entries live 1 s, virtual time advances 2 s per
    // operation, so every get finds an expired entry and removes it.
    {
        let qname = &hosts(8)[7];
        let cache: TtlCache<SortKey, u32> = TtlCache::new(1024);
        let mut now = 0u64;
        suite.bench("churn/ttl-expiry", || {
            cache.put(qname.rrset_sort_key(RrType::A), 7, now, 1);
            now += 2_000_000;
            qname.with_rrset_sort_key(RrType::A, |key| cache.get(key, now))
        });
    }

    // Steady-state Zipf mixes: answer-cache geometry (wide universe, most
    // of the tail misses) vs key-cache geometry (universe fits entirely).
    let (wide_names, wide_stream) = (hosts(20_000), query_stream(20_000, 100_000, 42));
    let (narrow_names, narrow_stream) = (apexes(300), query_stream(300, 100_000, 43));
    {
        let cache = TtlCache::new(4096);
        let mut now = 0u64;
        let mut cursor = 0usize;
        suite.bench("zipf/answer-cache-4096", || {
            let idx = wide_stream[cursor % wide_stream.len()];
            cursor += 1;
            now += 1_000;
            answer_lookup(&cache, &wide_names[idx], idx as u32, now);
            cursor
        });
    }
    {
        let cache = TtlCache::new(512);
        let mut now = 0u64;
        let mut cursor = 0usize;
        suite.bench("zipf/key-cache-512", || {
            let idx = narrow_stream[cursor % narrow_stream.len()];
            cursor += 1;
            now += 1_000;
            key_lookup(&cache, &narrow_names[idx], idx as u32, now);
            cursor
        });
    }

    // Steady-state hit ratios over the same 100 K Zipf(1.0) queries:
    // 20 K names against capacity 4096, 300 zones against capacity 512.
    let answer = hit_ratio(4096, &wide_names, &wide_stream, answer_lookup);
    let key = hit_ratio(512, &narrow_names, &narrow_stream, key_lookup);
    suite.record("zipf/answer-cache-4096/hit_ratio", answer, "ratio");
    suite.record("zipf/key-cache-512/hit_ratio", key, "ratio");
    assert!(
        key > answer,
        "the narrow key cache must out-hit the wide answer cache"
    );

    suite.finish();
}
