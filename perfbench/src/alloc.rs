//! A counting global allocator: live bytes, their peak and the number
//! of allocations, kept in process-wide counters around `System`.
//!
//! The benchmark runs on one thread, so the counters publish nothing
//! but themselves and `Relaxed` ordering is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters never affect what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System::realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Allocations (reallocations included) made since the process
/// started.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// The highest live-heap figure since the previous call (or process
/// start), in bytes; the peak then restarts from the current live heap.
pub fn take_peak() -> u64 {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}

/// Pins glibc malloc's thresholds: freed memory stays in the heap
/// instead of going back to the kernel, and only blocks above 32 MiB
/// are mapped on their own.
///
/// glibc adapts both thresholds to the frees it has seen, so from pass
/// to pass it switches between keeping a pass's memory and returning it
/// to be faulted in again; that switch moved a pass's run time by a
/// third and a `reasoning_churn` report by a factor of twenty. Pinned,
/// every measured pass reuses the heap the warm-up pass faulted in.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        for (param, value) in [(M_TRIM_THRESHOLD, i32::MAX), (M_MMAP_MAX, 0)] {
            // SAFETY: `mallopt` takes two integers and only changes
            // allocator tunables; it is called before any other thread
            // exists.
            if unsafe { mallopt(param, value) } != 1 {
                eprintln!("perfbench: mallopt({param}, {value}) was refused");
            }
        }
    }
}
