//! Heap high-water of the §5.2 resolver study: a fleet member lives only
//! while its batch is classified and every classification is folded as
//! it is made, so the study's peak live heap is the same for a fleet four
//! times as large.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`. Reproduce the numbers with
//! `cargo test --offline -p nsec3-core --test study_heap -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use nsec3_core::experiments::{run_resolver_tally_cfg, DriverConfig, DEFAULT_LAB_SEED};
use popgen::{generate_fleet, Scale};

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

/// How far apart the two fleets' high-water marks may be.
const TOLERANCE: f64 = 0.15;

/// Resolvers in the fleet at `scale`, and the most heap the folded study
/// of it held at once beyond what was live before the call (the input
/// specs among it), in bytes.
fn study_high_water(scale: Scale) -> (usize, i64) {
    let fleet = generate_fleet(scale, 42);
    let cfg = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let (tally, _) = run_resolver_tally_cfg(&fleet, &cfg);
    let high_water = PEAK_BYTES.load(Ordering::Relaxed) - before;
    let classified: u64 = tally
        .per_panel
        .values()
        .map(|(s, _)| s.responsive + s.unreachable)
        .sum();
    assert_eq!(classified, fleet.len() as u64, "every resolver folded once");
    (fleet.len(), high_water)
}

#[test]
fn study_heap_high_water_is_flat_against_the_fleet() {
    // The peak follows the batch holding the most validators (each one
    // caches the testbed's keys and a proof per probe name), so both
    // fleets span several batches: 4 and 15 of them, the busiest with 23
    // and 28 validators. At 1/4000 (two batches, 18) the same code reads
    // 25 % under 1/1000 (eight, 25) on that alone.
    // A first study allocates the thread's NSEC3 hash cache and signature
    // memo, which outlive it: warm them so neither measured run pays that.
    study_high_water(Scale(1.0 / 20_000.0));
    let (small, small_peak) = study_high_water(Scale(1.0 / 2_000.0));
    let (large, large_peak) = study_high_water(Scale(1.0 / 500.0));
    assert!(large > 3 * small, "{small} and {large} resolvers");
    let mb = |bytes: i64| bytes as f64 / 1e6;
    let growth = large_peak as f64 / small_peak as f64 - 1.0;
    println!(
        "allocations: resolver study heap high-water {:.2} MB at {small} resolvers, {:.2} MB at {large} ({:+.1} %)",
        mb(small_peak),
        mb(large_peak),
        growth * 100.0
    );
    assert!(
        growth.abs() <= TOLERANCE,
        "peak live heap moved with the fleet: {:.2} MB at {small} resolvers, {:.2} MB at {large}",
        mb(small_peak),
        mb(large_peak)
    );
}
