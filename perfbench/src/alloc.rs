//! Counting global allocator: live bytes, a peak that only advances while
//! the benchmark is inside a measured interval, and an allocation-call
//! counter.
//!
//! Answer checks and input generation run between measured intervals, so
//! their temporaries never reach the reported peak unless they are still
//! live when the next operation starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that tracks live bytes and a peak.
pub struct CountingAlloc;

fn grew(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if ARMED.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every operation is delegated verbatim to `System`; the counters
// are side effects that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts a measured phase: the peak restarts from the current live bytes.
pub fn begin_phase() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Opens (`true`) or closes (`false`) a measured interval. Opening one
/// folds the live bytes at that instant into the peak.
pub fn armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
    if on {
        PEAK.fetch_max(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Highest live heap seen inside measured intervals since [`begin_phase`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Allocation calls since process start.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
