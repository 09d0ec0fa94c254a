//! A counting global allocator with per-phase scoping.
//!
//! Heap allocations are a deterministic proxy for work the wall clock cannot
//! resolve on a shared host: the per-request channel and retry snapshot of
//! the serving tier, the frames a cold engine builds, and — the invariant the
//! executor promises — exactly zero on a warm execute. The counters belong to
//! whichever [`Phase`] is open; with no phase open the allocator costs one
//! relaxed load per call, so the untraced end-to-end blocks are not taxed.
//! Allocations of **every** thread are counted (the serving worker's are the
//! point), which is why only one phase can be open at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The phases allocations are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Offline = 1,
    Online = 2,
    Exec = 3,
    Serve = 4,
}

const SLOTS: usize = 5;

/// Open phase (0 = none). Relaxed everywhere: the counters are statistics
/// that publish no other data, and a scope is opened and closed by the
/// thread that reads it.
static OPEN: AtomicUsize = AtomicUsize::new(0);
static COUNT: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

/// The allocator itself: `System` plus the counters.
pub struct Counting;

#[inline]
fn note(size: usize) {
    let slot = OPEN.load(Ordering::Relaxed);
    if slot != 0 {
        COUNT[slot].fetch_add(1, Ordering::Relaxed);
        BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `System`'s guarantees (and the caller's obligations) carry over
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes attributed to one phase so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub bytes: u64,
}

/// What `phase` has been charged since the process started.
pub fn totals(phase: Phase) -> Totals {
    Totals {
        count: COUNT[phase as usize].load(Ordering::Relaxed),
        bytes: BYTES[phase as usize].load(Ordering::Relaxed),
    }
}

/// While alive, every allocation of every thread is charged to one phase.
#[derive(Debug)]
pub struct Scope(());

impl Scope {
    /// Open `phase`, or do nothing when `on` is false (the untraced blocks
    /// share the traced blocks' code path).
    ///
    /// # Panics
    ///
    /// Panics if a phase is already open: scopes do not nest, because the
    /// inner phase would steal the outer one's allocations.
    pub fn open(phase: Phase, on: bool) -> Option<Scope> {
        on.then(|| {
            let was = OPEN.swap(phase as usize, Ordering::Relaxed);
            assert_eq!(was, 0, "allocation scopes do not nest");
            Scope(())
        })
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        OPEN.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn allocate(n: usize) {
        for i in 0..n {
            black_box(Box::new([i as u8; 64]));
        }
    }

    // One test owns the global phase switch (tests run on parallel threads).
    // Other tests' allocations may land in whichever phase is open, so
    // charged phases are checked from below and idle phases exactly.
    #[test]
    fn allocations_are_charged_to_the_open_phase_only() {
        let before = [Phase::Offline, Phase::Online, Phase::Exec, Phase::Serve].map(totals);
        allocate(10);
        assert_eq!(
            [Phase::Offline, Phase::Online, Phase::Exec, Phase::Serve].map(totals),
            before,
            "nothing is counted while no phase is open"
        );

        {
            let _scope = Scope::open(Phase::Exec, true);
            allocate(10);
        }
        let exec = totals(Phase::Exec);
        assert!(exec.count >= before[2].count + 10);
        assert!(exec.bytes >= before[2].bytes + 640);

        {
            let _scope = Scope::open(Phase::Serve, true);
            allocate(3);
            // A worker thread's allocations count too.
            std::thread::spawn(|| allocate(4)).join().unwrap();
        }
        assert!(totals(Phase::Serve).count >= before[3].count + 7);
        assert_eq!(totals(Phase::Exec), exec, "a closed phase stops counting");
        assert_eq!(totals(Phase::Offline), before[0]);
        assert_eq!(totals(Phase::Online), before[1]);

        assert!(Scope::open(Phase::Offline, false).is_none());
        allocate(5);
        assert_eq!(
            totals(Phase::Offline),
            before[0],
            "an off scope counts nothing"
        );
    }
}
