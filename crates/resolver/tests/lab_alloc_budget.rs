//! Allocation count of standing a batch lab up, per zone, at two batch
//! sizes — the census's lab stand-up must cost what its zones cost, so
//! the count per zone may not depend on how many zones share the lab.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`. Reproduce the counts with
//! `cargo test --offline -p dns-resolver --test lab_alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_resolver::lab::{simple_zone_contents, LabBuilder, ZoneSpec};
use dns_wire::name::name;
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

/// Parent-commit count at either size (every signed zone deep-copied
/// into its server, a KSK derived for every delegation), same specs.
const PARENT_PER_ZONE: u64 = 163;

/// Allocations of `LabBuilder::build` for a census-shaped lab: `zones`
/// leaves under four TLDs, one in eight signed with NSEC3 and a DS in its
/// parent, the rest unsigned — the paper's §5.1 proportions.
fn build_allocations(zones: usize) -> u64 {
    let mut builder = LabBuilder::new(NOW);
    for t in 0..4 {
        builder = builder.simple_zone(&name(&format!("t{t}.")), Denial::nsec3_rfc9276());
    }
    for i in 0..zones {
        let contents = simple_zone_contents(&name(&format!("d{i}.t{}.", i % 4)));
        builder = builder.zone(if i % 8 == 0 {
            ZoneSpec::new(contents, Denial::nsec3_rfc9276())
        } else {
            ZoneSpec::unsigned(contents)
        });
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let lab = builder.build();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(lab.zones.len(), zones + 5);
    spent
}

#[test]
fn lab_stand_up_allocates_the_same_per_zone_at_any_batch_size() {
    // The root and the four TLDs cost the same whatever hangs under them.
    let fixed = build_allocations(0);
    let per_zone = |zones: usize| (build_allocations(zones) - fixed) / zones as u64;
    let (small, large) = (per_zone(64), per_zone(2048));
    println!("allocations per zone stood up: {small} at 64 zones, {large} at 2,048");
    assert!(
        small.abs_diff(large) <= 1,
        "per-zone stand-up cost moved with the batch size: {small} vs {large}"
    );
    assert!(
        large * 100 <= PARENT_PER_ZONE * 60,
        "stand-up: {large} allocations per zone, budget 60 % of {PARENT_PER_ZONE}"
    );
}
