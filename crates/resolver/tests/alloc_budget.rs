//! Allocation budget for one forwarded, validated NXDOMAIN through a
//! root → TLD → leaf lab with the key cache warm — the unit of work of
//! the paper's §4.2 probes and of the serving driver's forward path —
//! and for one warm answer-cache hit, the serving driver's common case.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else may allocate while a resolution is
//! counted. Reproduce the counts with
//! `cargo test --offline -p dns-resolver --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_resolver::{LabBuilder, Resolver, ResolverConfig};
use dns_wire::name::name;
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

/// What this lab read when the budget was set (119; 110 now) plus ten,
/// so that a handful of allocations creeping back into the hop, the
/// encoder or the proof path fails the test.
const RESOLVE_BUDGET: u64 = 129;

/// What one warm answer-cache hit reads: the cached outcome is cloned
/// out whole, so the budget is the count itself and any change to that
/// path moves it.
const CACHE_HIT_BUDGET: u64 = 2;

#[test]
fn forwarded_nxdomain_stays_within_its_allocation_budget() {
    let mut lab = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
        .build();
    let mut cfg =
        ResolverConfig::validating(lab.alloc.v4(), lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    let r = Resolver::new(cfg);
    let mut counts = Vec::with_capacity(64);
    for i in 0..64 + 33 {
        let qname = name(&format!("nx-{i}.example.com."));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = r.resolve(&lab.net, &qname, RrType::A);
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        // The first 64 walks fill the key cache and warm pools and maps.
        if i >= 64 {
            counts.push(spent);
            assert_eq!(
                out.cost.messages_sent, 3,
                "root, TLD and leaf, no key fetch"
            );
        }
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated);
    }
    counts.sort_unstable();
    let resolve = counts[counts.len() / 2];
    println!("allocations per forwarded NXDOMAIN resolve: {resolve}");
    assert!(
        resolve <= RESOLVE_BUDGET,
        "resolve: {resolve} allocations, budget {RESOLVE_BUDGET}"
    );

    // A warm answer-cache hit: the serving fleet's most common query.
    let www = name("www.example.com.");
    r.resolve(&lab.net, &www, RrType::A);
    let mut counts = Vec::with_capacity(33);
    for _ in 0..33 {
        let (hits, before) = (r.cache_hits(), ALLOCATIONS.load(Ordering::Relaxed));
        let out = r.resolve(&lab.net, &www, RrType::A);
        counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        assert_eq!(r.cache_hits(), hits + 1, "answered from the cache");
        assert_eq!(out.cost.messages_sent, 0);
        assert!(out.authenticated);
    }
    counts.sort_unstable();
    let hit = counts[counts.len() / 2];
    println!("allocations per warm answer-cache hit: {hit}");
    assert!(
        hit <= CACHE_HIT_BUDGET,
        "cache hit: {hit} allocations, budget {CACHE_HIT_BUDGET}"
    );
}
