//! Heap instrumentation shared by the harness binaries.
//!
//! [`TrackingAlloc`] wraps [`System`] and keeps three exact counters:
//! the number of allocator calls (`alloc` + `realloc`), the live heap
//! bytes, and the byte high-water mark. All three are logical layout
//! sizes, not OS pages, so there is no RSS sampling noise. They repeat
//! run to run at one pool thread (`RAYON_NUM_THREADS=1`), which is how
//! `bench_hotpath` and `bench_scale` produce their committed texts; they
//! do not repeat across pool sizes, since worker threads allocate too and
//! their interleaving moves the high-water mark.
//!
//! The `#[global_allocator]` attribute must live in each *binary*
//! (declaring it here would force the wrapper onto every consumer of the
//! library, unit tests included):
//!
//! ```ignore
//! use dirgl_bench::alloc::TrackingAlloc;
//!
//! #[global_allocator]
//! static GLOBAL: TrackingAlloc = TrackingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] with call counting and live/peak byte accounting.
pub struct TrackingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Adds `bytes` to the live counter and folds the new total into the
/// high-water mark (CAS loop: concurrent growers may race, the max wins).
fn on_grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        on_grow(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            on_grow(new - old);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total `alloc` + `realloc` calls since process start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently live (sum of layout sizes, allocations minus
/// frees).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Byte high-water mark since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live footprint, so a phase
/// can be measured in isolation: `reset_peak(); work(); peak_bytes()`
/// is the peak the phase itself reached (including whatever was already
/// resident when it started).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The library's test binary does not install TrackingAlloc as the
    // global allocator, so nothing else in this process touches the
    // counters — the deltas below are exact.
    #[test]
    fn counters_track_grow_shrink_and_peak() {
        let a = TrackingAlloc;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let base_live = live_bytes();
        reset_peak();
        let base_peak = peak_bytes();
        assert_eq!(base_peak, base_live);

        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(live_bytes(), base_live + 4096);
            assert_eq!(peak_bytes(), base_live + 4096);

            // Shrinking realloc lowers live but not the peak.
            let p = a.realloc(p, layout, 1024);
            assert!(!p.is_null());
            assert_eq!(live_bytes(), base_live + 1024);
            assert_eq!(peak_bytes(), base_live + 4096);

            // Growing realloc past the old peak raises it.
            let small = Layout::from_size_align(1024, 8).unwrap();
            let p = a.realloc(p, small, 8192);
            assert!(!p.is_null());
            assert_eq!(live_bytes(), base_live + 8192);
            assert_eq!(peak_bytes(), base_live + 8192);

            let big = Layout::from_size_align(8192, 8).unwrap();
            a.dealloc(p, big);
        }
        assert_eq!(live_bytes(), base_live);
        assert_eq!(peak_bytes(), base_live + 8192);
        reset_peak();
        assert_eq!(peak_bytes(), base_live);
        assert!(alloc_count() >= 3);
    }
}
