//! The counting `#[global_allocator]` shared by the allocation audits
//! (`alloc.rs`, `alloc_cosim.rs`, `footprint.rs`, `rss.rs`).
//!
//! The counters are process-wide, so each audit is its own integration-test
//! binary holding exactly one `#[test]`: a sibling test — or libtest
//! printing a sibling's result — would allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting calls, requested bytes, and the bytes
/// live (requested and not yet freed) with their high-water mark.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn uncount(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        uncount(layout.size());
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        uncount(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocator calls, bytes requested)` since process start.
#[allow(dead_code)] // `rss.rs` measures live bytes only
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// `(bytes live now, most bytes ever live at once)`. A run's peak live
/// footprint is the second value after it minus the first value before it,
/// provided the run raised the high-water mark at all.
#[allow(dead_code)] // only `footprint.rs` and `rss.rs` measure live bytes
pub fn live_and_peak() -> (u64, u64) {
    (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed))
}
