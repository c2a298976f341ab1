//! A counting global allocator for the allocation tests.
//!
//! Every `alloc` and `realloc` bumps two counters: one per thread, for
//! tests that count work done on their own thread (the harness's threads
//! cannot perturb it), and one process-wide, for work done on threads the
//! test does not own. A test binary installs it with one line:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
//!
//! and reads [`thread_allocations`] or [`allocations`] around the code it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting every allocation and reallocation.
pub struct CountingAlloc;

static PROCESS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    // const-initialized: reading it from inside the allocator never
    // triggers a lazy (allocating) initialization.
    static THREAD: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting neither allocates
// nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
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
