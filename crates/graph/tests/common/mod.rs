//! A counting `#[global_allocator]` for allocation-pin tests, counted
//! per thread.
//!
//! Counting is switched on per thread inside [`counted`], so the figures
//! cover the measured closure's own thread alone, whatever the test
//! runner runs beside it. Include it only in a test binary of its own,
//! so the allocator swap cannot perturb any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside [`counted`].
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation calls and bytes requested while counting.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Records one allocation of `bytes` if this thread is counting.
fn record(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|c| c.set(c.get() + bytes));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (allocation calls, bytes requested) by this
/// thread during it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    ALLOC_CALLS.with(|c| c.set(0));
    ALLOC_BYTES.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        ALLOC_CALLS.with(Cell::get),
        ALLOC_BYTES.with(Cell::get),
        out,
    )
}
