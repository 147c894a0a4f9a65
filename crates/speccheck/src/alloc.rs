//! Counting-allocator harness for zero-allocation oracles.
//!
//! A test binary that wants to assert "this hot path does not touch the
//! heap" registers [`CountingAlloc`] as its global allocator and brackets
//! the measured region with [`allocations_here`] (or uses [`count`]):
//!
//! ```ignore
//! use speccheck::alloc::{allocations_here, count, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! let (allocs, _) = count(|| hot_path());
//! assert_eq!(allocs, 0);
//! ```
//!
//! The tallies are thread-local so concurrently running tests cannot
//! disturb each other's measurement windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counting allocator: thread-local tallies so concurrently running
/// tests cannot disturb a measurement window. `Cell<u64>` has no
/// destructor, so the const-initialised slot stays valid for the whole
/// thread lifetime and the hooks never allocate themselves.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Tally one allocation (or reallocation) of `size` bytes on this thread.
fn note(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (alloc + realloc) observed on this thread so far.
pub fn allocations_here() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Run `f` and return how many heap allocations it performed on this
/// thread, alongside its result. Only meaningful when [`CountingAlloc`]
/// is the registered global allocator of the running binary.
pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations_here();
    let out = f();
    (allocations_here() - before, out)
}

/// Run `f` and return the size in bytes of the largest single heap
/// allocation (or reallocation) it made on this thread, alongside its
/// result. Only meaningful when [`CountingAlloc`] is the registered global
/// allocator of the running binary.
pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let outer = LARGEST.with(|c| c.replace(0));
    let out = f();
    let largest = LARGEST.with(|c| c.replace(outer.max(c.get())));
    (largest, out)
}
