//! Allocation budgets for one forwarded, validated NXDOMAIN through a
//! root → TLD → leaf lab with the key cache warm — the unit of work of
//! the paper's §4.2 probes and of the serving driver's forward path —
//! and for the serving driver's fast paths: a warm answer-cache hit,
//! positive or negative, and an NXDOMAIN synthesized from a cached NSEC3
//! chain (RFC 8198).
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else may allocate while a resolution is
//! counted. Reproduce the counts with
//! `cargo test --offline -p dns-resolver --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_resolver::{LabBuilder, Resolver, ResolverConfig};
use dns_wire::name::{name, Name};
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::signer::Denial;

/// Counts every `alloc` and `realloc` call; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NOW: u32 = 1_710_000_000;

/// What this lab read when the budget was set (119; 98 now) plus ten,
/// so that a handful of allocations creeping back into the hop, the
/// encoder or the proof path fails the test.
const RESOLVE_BUDGET: u64 = 108;

/// What one warm answer-cache hit reads, positive or negative: the hit
/// shares the cached outcome's record sections (reference counts, no
/// copy), so any allocation on that path fails the test.
const CACHE_HIT_BUDGET: u64 = 0;

/// What one RFC 8198 synthesis of a never-seen name reads: the NSEC3
/// hash-cache key of that name. Its ancestors are hashed as suffixes of
/// its wire form and its encloser's wildcard on the stack.
const SYNTHESIS_BUDGET: u64 = 1;

/// The median allocation count of `rounds` calls of `f`.
fn median_allocations(rounds: usize, mut f: impl FnMut(usize)) -> u64 {
    let mut counts: Vec<u64> = (0..rounds)
        .map(|i| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f(i);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn resolve_paths_stay_within_their_allocation_budgets() {
    let mut lab = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
        .build();
    let mut cfg =
        ResolverConfig::validating(lab.alloc.v4(), lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    let r = Resolver::new(cfg.clone());
    // The first 64 walks fill the key cache and warm pools and maps.
    let nx: Vec<Name> = (0..64 + 33)
        .map(|i| name(&format!("nx-{i}.example.com.")))
        .collect();
    for qname in &nx[..64] {
        r.resolve(&lab.net, qname, RrType::A);
    }
    let resolve = median_allocations(33, |i| {
        let out = r.resolve(&lab.net, &nx[64 + i], RrType::A);
        assert_eq!(
            out.cost.messages_sent, 3,
            "root, TLD and leaf, no key fetch"
        );
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated);
    });
    println!("allocations per forwarded NXDOMAIN resolve: {resolve}");
    assert!(
        resolve <= RESOLVE_BUDGET,
        "resolve: {resolve} allocations, budget {RESOLVE_BUDGET}"
    );

    // A warm answer-cache hit: the serving fleet's most common query.
    let www = name("www.example.com.");
    r.resolve(&lab.net, &www, RrType::A);
    let hit = median_allocations(33, |_| {
        let hits = r.cache_hits();
        let out = r.resolve(&lab.net, &www, RrType::A);
        assert_eq!(r.cache_hits(), hits + 1, "answered from the cache");
        assert_eq!(out.cost.messages_sent, 0);
        assert!(out.authenticated);
    });
    println!("allocations per warm answer-cache hit: {hit}");
    assert_eq!(
        hit, CACHE_HIT_BUDGET,
        "cache hit: {hit} allocations, budget {CACHE_HIT_BUDGET}"
    );

    // A cached NXDOMAIN: its authorities carry the SOA, the NSEC3 proof
    // and their RRSIGs, and the hit still copies none of them.
    let negative = median_allocations(33, |i| {
        let hits = r.cache_hits();
        let out = r.resolve(&lab.net, &nx[64 + i], RrType::A);
        assert_eq!(r.cache_hits(), hits + 1, "answered from the cache");
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authorities.iter().any(|a| a.rrtype() == RrType::NSEC3));
        assert!(out.authorities.iter().any(|a| a.rrtype() == RrType::RRSIG));
    });
    println!("allocations per warm cached-NXDOMAIN hit: {negative}");
    assert_eq!(
        negative, CACHE_HIT_BUDGET,
        "cached NXDOMAIN: {negative} allocations, budget {CACHE_HIT_BUDGET}"
    );

    // RFC 8198: fresh names under a zone whose denial chain is cached.
    // The misses that warm it up cache every interval of the chain.
    cfg.addr = lab.alloc.v4();
    cfg.aggressive_nsec3 = true;
    let aggressive = Resolver::new(cfg);
    for qname in &nx[..32] {
        aggressive.resolve(&lab.net, qname, RrType::A);
    }
    let fresh: Vec<Name> = (0..33)
        .map(|i| name(&format!("synth-{i}.example.com.")))
        .collect();
    let synthesis = median_allocations(33, |i| {
        let synthesized = aggressive.synthesized_nxdomains();
        let out = aggressive.resolve(&lab.net, &fresh[i], RrType::A);
        assert_eq!(aggressive.synthesized_nxdomains(), synthesized + 1);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert_eq!(out.cost.messages_sent, 0);
    });
    println!("allocations per synthesized NXDOMAIN: {synthesis}");
    assert!(
        synthesis <= SYNTHESIS_BUDGET,
        "synthesis: {synthesis} allocations, budget {SYNTHESIS_BUDGET}"
    );
}
