//! Heap-allocation counting for the zero-alloc streaming exhibit.
//!
//! [`CountingAllocator`] wraps the system allocator and bumps a
//! thread-local counter on every `alloc`/`realloc`. The library only
//! *reads* the counter; the allocator is installed as
//! `#[global_allocator]` by the binaries that enforce the budget
//! (`kernels_gate`, `run_all`) and by the `stream_arena` and
//! `parallel_stream` integration tests — never by this library itself, so
//! linking `sparseflex-bench` does not change a host program's allocator.
//!
//! Counts are per thread: a measurement sees only the allocations its
//! own thread makes, so tests running concurrently in one process cannot
//! add to each other's counts. Every measurement entry point runs the
//! measured work on the calling thread.
//!
//! This module is the workspace's **single** `unsafe` exception: the
//! `GlobalAlloc` trait is itself unsafe to implement, and the impl only
//! forwards to [`System`] after bumping a counter. Every other crate is
//! `#![forbid(unsafe_code)]`; this crate is `#![deny(unsafe_code)]`
//! with the override scoped to exactly this module.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc`/`realloc` calls made by this thread. Const-initialized and
    /// drop-free, so the allocator can bump it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down may allocate after its locals are gone;
    // those calls go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`GlobalAlloc`] that counts `alloc`/`realloc` calls, then defers to
/// the system allocator. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sparseflex_bench::allocs::CountingAllocator =
///     sparseflex_bench::allocs::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter bump has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// `alloc`/`realloc` calls the calling thread has made so far (0 unless
/// a [`CountingAllocator`] is installed as the global allocator).
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return how many heap allocations it performed on the
/// calling thread alongside its result. Reads 0 allocations when no
/// counting allocator is installed — check [`probe_installed`] first
/// when the count gates.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let r = f();
    (allocations() - before, r)
}

/// Whether a [`CountingAllocator`] is actually installed: performs one
/// deliberate heap allocation and checks the counter moved.
pub fn probe_installed() -> bool {
    let before = allocations();
    let v: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&v);
    drop(v);
    allocations() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_allocs_is_monotone() {
        // The test harness does not install the counting allocator, so
        // the count must simply never go backwards.
        let (n, _) = count_allocs(|| Vec::<u8>::with_capacity(32));
        let (m, _) = count_allocs(|| ());
        assert!(n >= m);
    }
}
