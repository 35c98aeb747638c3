//! Allocation-count regression test for the arena interner.
//!
//! Pins the arena interner's amortized-doubling profile — no per-key
//! allocation — using a counting `#[global_allocator]`. Counting is
//! switched on per thread inside [`counted`], so the figures cover the
//! measured closure's own thread alone, whatever the test runner runs
//! beside it. The test lives in its own integration-test binary so the
//! allocator swap cannot perturb any other test.

use ensemfdet_graph::ArenaInterner;
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
fn counted<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
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

#[test]
fn arena_interner_allocates_amortized_not_per_key() {
    const N: usize = 4096;
    let keys: Vec<String> = (0..N).map(|i| format!("PIN-{i:08}")).collect();

    let mut arena = ArenaInterner::new();
    let (calls, _bytes, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });

    // Arena + offset vector + tagged probe table each double O(log N)
    // times (the table is re-placed from its stored tags); no
    // per-key allocation at all. Allow generous slack — the point is the
    // asymptotic gap to a one-alloc-per-key interner.
    assert!(
        calls < N / 4,
        "arena interner made {calls} allocations for {N} keys — \
         expected amortized doubling only"
    );
    assert_eq!(arena.len(), N);

    let (hit_calls, _, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });
    assert_eq!(hit_calls, 0, "arena hits allocated");

    let (find_calls, _, found) = counted(|| arena.find(&keys[N / 2]));
    assert_eq!(found, Some((N / 2) as u32));
    assert_eq!(find_calls, 0, "borrow-keyed find allocated");
}
