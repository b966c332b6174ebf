//! A counting global allocator: the live heap bytes of the process and
//! their high-water mark, which can be reset. `peak_heap_mb` is the
//! high-water mark during one program call above what was live when the
//! call began, so the benchmark's own buffers (generated inputs, the
//! pass's feed copy, the sink's reserved capacity) do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark at the live bytes, and returns them.
pub fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Relaxed);
    now
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
