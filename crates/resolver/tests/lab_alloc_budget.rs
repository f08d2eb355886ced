//! What standing a batch lab up costs, per zone and per record, at two
//! batch sizes — the census's lab stand-up must cost what its zones cost,
//! so the allocation count per zone may not depend on how many zones
//! share the lab, and the heap the lab holds per record is budgeted.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`. Reproduce the counts with
//! `cargo test --offline -p dns-resolver --test lab_alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_resolver::lab::{simple_zone_contents, LabBuilder, ZoneSpec};
use dns_wire::name::name;
use dns_zone::signer::Denial;

/// Counts every `alloc` and `realloc` call (frees are not counted), and
/// keeps the bytes currently allocated.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NOW: u32 = 1_710_000_000;

/// Allocations per zone stood up, at either size. The count with one
/// type map per owner and every signed zone copied before signing was 83.
const BUDGET_PER_ZONE: u64 = 67;

/// Live heap per record a lab holds: 250 / 260 B at 64 / 2,048 zones with
/// one type-ordered record vector per owner, plus headroom. With a type
/// map per owner and a `Vec` per RRset it read 494 / 513 B.
const BUDGET_BYTES_PER_RECORD: u64 = 300;

/// What standing up a census-shaped lab costs.
struct StandUp {
    /// Allocations of `LabBuilder::build`.
    allocations: u64,
    /// Heap the built lab holds.
    live_bytes: u64,
    /// Records in the built lab's zones.
    records: u64,
}

/// Stand up a census-shaped lab: `zones` leaves under four TLDs, one in
/// eight signed with NSEC3 and a DS in its parent, the rest unsigned —
/// the paper's §5.1 proportions.
fn stand_up(zones: usize) -> StandUp {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
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
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let live_bytes = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert_eq!(lab.zones.len(), zones + 5);
    let records = lab.zones.values().map(|z| z.zone.len() as u64).sum();
    StandUp {
        allocations,
        live_bytes,
        records,
    }
}

#[test]
fn lab_stand_up_allocates_the_same_per_zone_at_any_batch_size() {
    // The root and the four TLDs cost the same whatever hangs under them.
    let fixed = stand_up(0).allocations;
    let (small, large) = (stand_up(64), stand_up(2048));
    let per_zone = |s: &StandUp, zones: u64| (s.allocations - fixed) / zones;
    let (small_allocs, large_allocs) = (per_zone(&small, 64), per_zone(&large, 2048));
    println!("allocations per zone stood up: {small_allocs} at 64 zones, {large_allocs} at 2,048");
    assert!(
        small_allocs.abs_diff(large_allocs) <= 1,
        "per-zone stand-up cost moved with the batch size: {small_allocs} vs {large_allocs}"
    );
    assert!(
        large_allocs <= BUDGET_PER_ZONE,
        "stand-up: {large_allocs} allocations per zone, budget {BUDGET_PER_ZONE}"
    );
    let per_record = |s: &StandUp| s.live_bytes / s.records;
    let (small_bytes, large_bytes) = (per_record(&small), per_record(&large));
    println!(
        "allocations: live bytes per record stood up: {small_bytes} at 64 zones, {large_bytes} at 2,048"
    );
    assert!(
        small_bytes.max(large_bytes) <= BUDGET_BYTES_PER_RECORD,
        "a lab holds {small_bytes} / {large_bytes} B per record, budget {BUDGET_BYTES_PER_RECORD}"
    );
}
