//! A counting allocator for the suites that gate on allocation counts.
//!
//! Counts are per thread, so tests of one binary running side by side do
//! not see each other's allocations; a process-wide pair beside them serves
//! the suite whose allocations happen on threads it does not run on (a
//! server's workers). A suite installs it with
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// Statistics only: nothing is published through them, so `Relaxed`.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc` and `realloc` calls and the bytes
/// they ask for (a `realloc` counts its whole new size) per thread.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // A thread that is being torn down has no counter left; nothing measures it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-local `Cell`s without a destructor and two static
// atomics, so touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` and return its result with the number of allocations the calling
/// thread made meanwhile.
#[allow(dead_code)] // the serving suite counts process-wide instead
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Run `f` and return its result with the number of bytes the calling
/// thread asked the allocator for meanwhile.
#[allow(dead_code)] // not every suite that counts allocations also bounds bytes
pub fn bytes_allocated_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Allocations and bytes asked for so far by every thread of the process;
/// the difference of two readings is what happened in between, whichever
/// threads did it. Only meaningful in a binary that runs one test.
#[allow(dead_code)] // only the serving suite needs other threads' counts
pub fn process_allocated() -> (u64, u64) {
    (
        PROCESS_ALLOCATIONS.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}
