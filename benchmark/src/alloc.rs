//! Counting global allocator: live bytes, peak live bytes, allocation
//! count and allocated bytes, all relaxed atomics over the system
//! allocator.
//!
//! The binary installs [`CountingAlloc`] as its global allocator; the
//! harness calls [`reset`] at the start of a repetition and [`snapshot`]
//! at its phase boundaries. The counters are statistics that publish no
//! other data, so `Relaxed` is enough. A process that does not install
//! the allocator (the library's unit tests) reads all zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn on_alloc(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout, and
        // this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc is one allocation of the new size and one free
            // of the old: that is what it costs the heap at its worst.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset`].
    pub peak: u64,
    /// Allocations since the last [`reset`].
    pub count: u64,
    /// Bytes requested since the last [`reset`].
    pub bytes: u64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Start a new measurement interval: the peak restarts from what is live
/// now, the allocation counters from zero. `live` itself is never reset —
/// it has to keep matching the frees still to come.
pub fn reset() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the allocator type directly (the test binary does not
    /// install it globally, so nothing else moves the counters).
    #[test]
    fn counts_live_peak_count_and_bytes() {
        reset();
        let base = snapshot();
        let a = CountingAlloc;
        let small = Layout::from_size_align(1000, 8).unwrap();
        let big = Layout::from_size_align(5000, 8).unwrap();
        // SAFETY: layouts are non-zero-sized; each block is freed once
        // with the layout it was allocated (or last reallocated) with.
        unsafe {
            let p = a.alloc(small);
            let q = a.alloc_zeroed(big);
            assert!(!p.is_null() && !q.is_null());
            assert_eq!(snapshot().live - base.live, 6000);
            a.dealloc(q, big);
            let p = a.realloc(p, small, 3000);
            assert!(!p.is_null());
            let s = snapshot();
            assert_eq!(s.live - base.live, 3000);
            assert_eq!(
                s.peak - base.live,
                6000,
                "peak remembers the high-water mark"
            );
            assert_eq!(s.count, 3, "alloc + alloc_zeroed + realloc");
            assert_eq!(s.bytes, 9000);
            a.dealloc(p, Layout::from_size_align(3000, 8).unwrap());
        }
        assert_eq!(snapshot().live, base.live);
        reset();
        let s = snapshot();
        assert_eq!((s.peak, s.count, s.bytes), (s.live, 0, 0));
    }
}
