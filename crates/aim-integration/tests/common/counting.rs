//! A counting global allocator for the test binaries that claim exact
//! allocation counts. Not part of `common/mod.rs`: a binary opts in with
//! `#[path = "common/counting.rs"] mod counting;`, which installs the
//! allocator for that binary only. The counter is thread-local, so the
//! harness's other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn book(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a pair of thread-local counters with const initializers and no
// destructors, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread, and the bytes
/// they asked for (a reallocation counts its new size).
pub fn measure<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    black_box(f());
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Allocations (and reallocations) `f` makes on this thread.
#[allow(dead_code)] // a binary that wants the bytes calls `measure` only
pub fn count<T>(f: impl FnOnce() -> T) -> u64 {
    measure(f).0
}
