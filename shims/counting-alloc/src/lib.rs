//! A counting global allocator for the allocation tests.
//!
//! Every `alloc` and `realloc` bumps two counters: one per thread, for
//! tests that count work done on their own thread (the harness's threads
//! cannot perturb it), and one process-wide, for work done on threads the
//! test does not own. Beside the counts it keeps the process's live heap
//! bytes and their high-water mark, for tests that bound memory by what
//! was allocated rather than by what the OS reports. A test binary
//! installs it with one line:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
//!
//! and reads [`thread_allocations`], [`allocations`] or
//! [`peak_live_bytes`] (after [`reset_peak_live_bytes`]) around the code it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting every allocation and reallocation.
pub struct CountingAlloc;

static PROCESS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    // const-initialized: reading it from inside the allocator never
    // triggers a lazy (allocating) initialization.
    static THREAD: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting neither allocates
// nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        // One block becomes another: the old size and the new are never
        // both live.
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> usize {
    THREAD.with(|c| c.get())
}

/// Allocations made by every thread of the process so far.
pub fn allocations() -> usize {
    PROCESS.load(Ordering::Relaxed)
}

/// Heap bytes the process holds now, as requested (allocator overhead
/// excluded).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The most heap bytes the process has held at once since the last
/// [`reset_peak_live_bytes`] (or since it started).
pub fn peak_live_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts [`peak_live_bytes`] from what is live now.
pub fn reset_peak_live_bytes() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
