//! Allocation budgets for the serving driver. First at the benchmark's
//! `serving_hit` shape: 24 NSEC3 zones, 64 clients × 500 browsing queries,
//! a fleet of 4 with RFC 8198 synthesis on, one thread. Most of those
//! queries are answer-cache hits and syntheses, which allocate nothing
//! but a hash-cache slot's key buffer the first time the slot is used
//! (or outgrown), and most qnames are a
//! domain's `www` or `miss` name, built once per shard and borrowed;
//! what is left per query is the unique qnames and the forwarded
//! minority.
//!
//! Then the live heap a forwarding resolver holds per outcome it caches,
//! under the NXDOMAIN-heavy mix of the benchmark's `serving_forward`:
//! what the answer cache and the section store under it cost at the rate
//! the serving drivers fill them.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`. Reproduce the counts with
//! `cargo test --offline -p nsec3-core --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::serving::{run_serving_cfg, ServingReport, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{DomainGenerator, Scale};

/// Counts every `alloc` and `realloc` call and tracks the bytes live and
/// their high-water mark.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Add `delta` to the live bytes and raise the high-water mark to match.
fn note(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NOW: u32 = 1_710_000_000;

/// Allocations per served query, the whole driver call (lab stand-up
/// included) over the queries it served: 1.40 when set, with the
/// headroom 1.6 gave 1.42. It read 6.01 when every hit copied its cached
/// records out and a synthesis built its ancestors as names, 2.30 while
/// every query owned its qname, and 1.42 while the NSEC3 hash cache
/// boxed a key per store.
const PER_QUERY_BUDGET: f64 = 1.58;

/// Live heap per outcome a forwarding resolver caches, in bytes: 439 when
/// set, with headroom. It read 1,327 while every cached NXDOMAIN held its
/// own decoded copy of its zone's NSEC3 proof; the resolver's section
/// store holds each distinct section once.
const PER_OUTCOME_BUDGET: f64 = 500.0;

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

    // One member of the benchmark's `serving_forward` fleet (16 clients ×
    // 250 queries of the NXDOMAIN-heavy mix, synthesis off): its heap
    // peaks at the end of the run, holding every outcome it cached. The
    // same run through a cacheless resolver peaks with the rest — lab,
    // memos, a query in flight — so the difference is what the caches
    // hold.
    let forward = ServingScenario::new(
        nsec3_population(24, seed),
        TrafficModel::new(16, 250, seed).with_mix(QueryMix::nxdomain_heavy()),
    )
    .with_fleet(1)
    .with_aggressive(false);
    let (warm_peak, warm) = peak_heap(&forward, &cfg);
    let (cold_peak, _) = peak_heap(&forward.clone().cold(), &cfg);
    // Every miss put an outcome in the cache, and none was evicted.
    let cached = warm.tally.answer_misses;
    assert!(
        cached < forward.cache_size as u64,
        "{cached} outcomes cached"
    );
    let per_outcome = (warm_peak - cold_peak) as f64 / cached as f64;
    println!(
        "allocations: live heap per cached outcome, forwarded NXDOMAIN mix: {per_outcome:.0} B"
    );
    assert!(
        per_outcome <= PER_OUTCOME_BUDGET,
        "{per_outcome:.0} B of live heap per cached outcome, budget {PER_OUTCOME_BUDGET} B"
    );
}

/// The most heap `scenario`'s serving run held at once beyond what was
/// live before it, in bytes, and its report.
fn peak_heap(scenario: &ServingScenario, cfg: &DriverConfig) -> (i64, ServingReport) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let report = run_serving_cfg(scenario, cfg);
    (PEAK_BYTES.load(Ordering::Relaxed) - before, report)
}
