//! A study's speed does not depend on what ran before it on its thread.
//!
//! The NSEC3 hash cache and the signature memo are thread-locals, and
//! the hash cache never lets an expensive entry evict an RFC 9276
//! compliant one. Without a reset, a census that filled the cache with
//! compliant entries would lock a later resolver study's it-500 hashes
//! out of it. Every study shard therefore starts by emptying both memos
//! and zeroing their counters, so what the counters read after a
//! one-worker study is that study's own memo traffic, whatever ran on
//! the thread first.

use dns_crypto::simsig::verify_memo_stats;
use dns_zone::nsec3hash::thread_cache_stats;
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, DriverConfig, DEFAULT_LAB_SEED,
};
use popgen::{generate_fleet, Scale};

const NOW: u32 = 1_710_000_000;

/// `(NSEC3 hash cache, signature memo)` counters, each `(hits, misses)`,
/// after a resolver study on a fresh thread at one worker, with or
/// without a domain census on that thread first.
fn study_memo_traffic(census_first: bool) -> [(u64, u64); 2] {
    std::thread::spawn(move || {
        let cfg = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED);
        if census_first {
            run_domain_census_stream(Scale(1.0 / 20_000.0), 42, 512, &cfg);
        }
        run_resolver_study_cfg(&generate_fleet(Scale(1.0 / 20_000.0), 42), &cfg);
        [thread_cache_stats(), verify_memo_stats()]
    })
    .join()
    .expect("study thread")
}

#[test]
fn a_study_memo_traffic_does_not_depend_on_what_ran_before_it() {
    let alone = study_memo_traffic(false);
    let after_census = study_memo_traffic(true);
    println!("memo traffic (hits, misses): alone {alone:?}, after a census {after_census:?}");
    assert!(
        alone[0].0 > 0 && alone[1].0 > 0,
        "the study hits both memos"
    );
    assert_eq!(alone, after_census);
}
