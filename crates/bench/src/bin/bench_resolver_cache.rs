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
//! Results land in `BENCH_resolver_cache.json` via the shared
//! [`heroes_bench::microbench`] runner, steady-state hit ratios
//! included.

use dns_resolver::TtlCache;
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

/// A pre-sampled Zipf query stream over a `String` key universe, so the
/// timed loop measures the cache, not the sampler.
fn query_stream(universe: usize, queries: usize, seed: u64) -> (Vec<String>, Vec<usize>) {
    let keys: Vec<String> = (0..universe).map(|i| format!("d{i}.example./A")).collect();
    let zipf = Zipf::new(universe);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let stream: Vec<usize> = (0..queries).map(|_| zipf.sample(&mut rng)).collect();
    (keys, stream)
}

/// Run `stream` through a fresh cache of `capacity`; report the hit rate.
fn hit_ratio(capacity: usize, keys: &[String], stream: &[usize]) -> f64 {
    let cache: TtlCache<String, u32> = TtlCache::new(capacity);
    let mut now = 0u64;
    for &idx in stream {
        now += 1_000; // 1 ms of virtual time per query
        if cache.get(&keys[idx], now).is_none() {
            cache.put(keys[idx].clone(), idx as u32, now, 300);
        }
    }
    cache.hits() as f64 / (cache.hits() + cache.misses()) as f64
}

fn main() {
    println!("TtlCache microbenchmarks (answer cache: cap 4096; key cache: cap 512)");
    let mut suite = Suite::new("resolver_cache");

    // Eviction churn: the cache sits exactly at capacity and every insert
    // is a fresh key, forcing the eviction scan each time.
    {
        let cache: TtlCache<u64, u64> = TtlCache::new(1024);
        for k in 0..1024u64 {
            cache.put(k, k, 0, 3_600);
        }
        let mut next_key = 1024u64;
        suite.bench("churn/eviction-at-capacity", || {
            cache.put(next_key, next_key, 0, 3_600);
            next_key += 1;
            next_key
        });
    }

    // TTL-expiry churn: entries live 1 s, virtual time advances 2 s per
    // operation, so every get finds an expired entry and removes it.
    {
        let cache: TtlCache<u64, u64> = TtlCache::new(1024);
        let mut now = 0u64;
        suite.bench("churn/ttl-expiry", || {
            cache.put(7, 7, now, 1);
            now += 2_000_000;
            cache.get(&7, now)
        });
    }

    // Steady-state Zipf mixes: answer-cache geometry (wide universe, most
    // of the tail misses) vs key-cache geometry (universe fits entirely).
    let (wide_keys, wide_stream) = query_stream(20_000, 100_000, 42);
    let (narrow_keys, narrow_stream) = query_stream(300, 100_000, 43);
    {
        let cache: TtlCache<String, u32> = TtlCache::new(4096);
        let mut now = 0u64;
        let mut cursor = 0usize;
        suite.bench("zipf/answer-cache-4096", || {
            let idx = wide_stream[cursor % wide_stream.len()];
            cursor += 1;
            now += 1_000;
            if cache.get(&wide_keys[idx], now).is_none() {
                cache.put(wide_keys[idx].clone(), idx as u32, now, 300);
            }
            cursor
        });
    }
    {
        let cache: TtlCache<String, u32> = TtlCache::new(512);
        let mut now = 0u64;
        let mut cursor = 0usize;
        suite.bench("zipf/key-cache-512", || {
            let idx = narrow_stream[cursor % narrow_stream.len()];
            cursor += 1;
            now += 1_000;
            if cache.get(&narrow_keys[idx], now).is_none() {
                cache.put(narrow_keys[idx].clone(), idx as u32, now, 300);
            }
            cursor
        });
    }

    // Steady-state hit ratios over the same 100 K Zipf(1.0) queries:
    // 20 K keys against capacity 4096, 300 keys against capacity 512.
    let answer = hit_ratio(4096, &wide_keys, &wide_stream);
    let key = hit_ratio(512, &narrow_keys, &narrow_stream);
    suite.record("zipf/answer-cache-4096/hit_ratio", answer, "ratio");
    suite.record("zipf/key-cache-512/hit_ratio", key, "ratio");
    assert!(
        key > answer,
        "the narrow key cache must out-hit the wide answer cache"
    );

    suite.finish();
}
