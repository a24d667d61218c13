//! A counting global allocator, for tests that pin how many allocator
//! calls a piece of code makes.
//!
//! A test binary installs [`Counting`] with `#[global_allocator]` and wraps
//! the code it measures in [`count`]. The counter is process-wide, so such
//! a test file holds one test: no other test thread allocates while a call
//! is counted, and the counts are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every call that hands out memory: `alloc`,
/// `alloc_zeroed` and `realloc`.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls made while `f` runs; always 0 unless [`Counting`] is
/// the global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (CALLS.load(Ordering::Relaxed) - before, out)
}
