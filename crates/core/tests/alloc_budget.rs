//! Allocation budget for the serving driver at the benchmark's
//! `serving_hit` shape: 24 NSEC3 zones, 64 clients × 500 browsing queries,
//! a fleet of 4 with RFC 8198 synthesis on, one thread. Most of those
//! queries are answer-cache hits and syntheses, which allocate nothing
//! but a never-seen name's hash-cache key; what is left per query is the
//! client's qname and the forwarded minority.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`. Reproduce the count with
//! `cargo test --offline -p nsec3-core --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::serving::{run_serving_cfg, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{DomainGenerator, Scale};

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

/// Allocations per served query, the whole driver call (lab stand-up
/// included) over the queries it served. It read 6.01 when every hit
/// copied its cached records out and a synthesis built its ancestors as
/// names.
const PER_QUERY_BUDGET: f64 = 3.0;

/// The first `count` non-opt-out NSEC3 zones of the calibrated
/// population at `seed`, as the benchmark selects them.
fn nsec3_population(count: usize, seed: u64) -> Vec<DomainSpec> {
    let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), seed);
    let zones: Vec<DomainSpec> = (0..generator.len())
        .map(|i| generator.get(i))
        .filter(|spec| matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }))
        .take(count)
        .collect();
    assert_eq!(zones.len(), count, "population too small for {count} zones");
    zones
}

#[test]
fn serving_query_stays_within_its_allocation_budget() {
    let seed = 42;
    let scenario = ServingScenario::new(
        nsec3_population(24, seed),
        TrafficModel::new(64, 500, seed).with_mix(QueryMix::browsing()),
    )
    .with_fleet(4)
    .with_aggressive(true);
    let cfg = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_serving_cfg(&scenario, &cfg);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let queries = report.tally.queries;
    assert_eq!(queries, 64 * 500);
    let per_query = spent as f64 / queries as f64;
    println!("allocations per serving query: {per_query:.2}");
    assert!(
        per_query <= PER_QUERY_BUDGET,
        "{per_query:.2} allocations per serving query, budget {PER_QUERY_BUDGET}"
    );
}
