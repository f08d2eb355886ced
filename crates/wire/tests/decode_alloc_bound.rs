//! `Message::decode` reserves from header counts it has not checked yet:
//! what it asks the allocator for must be bounded by the bytes it was
//! given, not by what a 12-byte header claims.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else may allocate while a decode is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dns_wire::message::Message;

/// Sums the bytes of every `alloc` and `realloc` request; frees are not
/// subtracted.
struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested while decoding a bare header with these four counts.
fn requested_by_header(counts: [u16; 4]) -> u64 {
    let mut header = [0u8; 12];
    for (i, count) in counts.iter().enumerate() {
        header[4 + 2 * i..6 + 2 * i].copy_from_slice(&count.to_be_bytes());
    }
    let before = REQUESTED.load(Ordering::Relaxed);
    let decoded = Message::decode(&header);
    let spent = REQUESTED.load(Ordering::Relaxed) - before;
    assert!(decoded.is_err(), "no bytes behind the claimed counts");
    spent
}

#[test]
fn header_counts_do_not_size_allocations() {
    let questions = requested_by_header([0xFFFF, 0, 0, 0]);
    let records = requested_by_header([0, 0xFFFF, 0xFFFF, 0xFFFF]);
    println!("bytes requested: {questions} for 0xFFFF questions, {records} for 0xFFFF records per section");
    assert!(questions < 4096, "0xFFFF questions: {questions} bytes");
    assert!(records < 4096, "0xFFFF records: {records} bytes");
}
