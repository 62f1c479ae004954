//! The benchmark's own counting allocator.
//!
//! [`Counting`] wraps [`System`] and keeps exact counters of allocator
//! calls, bytes requested, live bytes and the live-byte high-water mark.
//! All are logical layout sizes, not OS pages, so a deterministic program
//! gives the same numbers on every run. It feeds `peak_mb`,
//! `core.allocs_per_run` and `core.alloc_kb_per_run`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`] with call, byte and high-water accounting.
pub struct Counting;

// Statistics only: no other data is published through these, so Relaxed.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_grow(bytes: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_grow(layout.size() as u64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_grow(layout.size() as u64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            on_grow(new - old);
        } else {
            CALLS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(old - new, Relaxed);
        }
        // SAFETY: the caller's arguments are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since process start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes requested (growth only) since process start.
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}

/// Live-byte high-water mark since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
