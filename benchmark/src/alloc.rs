//! Counting global allocator.
//!
//! Wraps [`System`] and, while counting is switched on, tallies
//! allocations, bytes requested, live bytes and the live-byte peak. The
//! switch is one relaxed flag: the timed pass runs with it off, so the
//! only cost there is one load per allocator call. Every workload is
//! single-threaded, so the counts are exact and repeat bit for bit (the
//! counted pass checks this by counting every workload twice).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// Frees of blocks allocated before counting started would take `LIVE`
/// below zero; saturate instead (the peak is what is reported).
fn shrink(bytes: u64) {
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grow(layout.size() as u64);
        }
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grow(layout.size() as u64);
        }
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            shrink(layout.size() as u64);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_bytes: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    for c in [&ALLOCS, &BYTES, &LIVE, &PEAK] {
        c.store(0, Relaxed);
    }
    COUNTING.store(true, Relaxed);
}

/// The counts since [`start`], without stopping.
pub fn read() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    }
}

/// Switches counting off and returns the counts since [`start`].
pub fn stop() -> AllocCounts {
    COUNTING.store(false, Relaxed);
    read()
}
