//! A counting global allocator, for tests that pin how many allocator
//! calls, how many bytes and how many blocks a piece of code takes.
//!
//! A test binary installs [`Counting`] with `#[global_allocator]` and wraps
//! the code it measures in [`count`] (calls) or [`bytes`] (bytes handed
//! out), or reads [`live_bytes`], [`live_blocks`] and [`peak_bytes`]
//! around it. Bytes count what was asked for, blocks count each block
//! once whatever its size: a 6-byte string takes a block of the
//! allocator's smallest size, which its 6 bytes barely show. The
//! counters are process-wide, so such a test file holds one test: no
//! other test thread allocates while a call is counted, and the counts are
//! deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every call that hands out memory — `alloc`,
/// `alloc_zeroed` and `realloc` — the bytes they hand out, the bytes and
/// blocks live (handed out and not yet freed) and the most bytes live at
/// once. A `realloc` counts as its new block handed out, then its old one
/// freed: a move holds both for a moment, and the blocks live stay as
/// they were.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BLOCKS: AtomicU64 = AtomicU64::new(0);

/// Count a call handing out a block of `size` bytes.
fn handed_out(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Count a block of `size` bytes freed.
fn freed(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are relaxed atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        handed_out(layout.size());
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        handed_out(layout.size());
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        handed_out(new_size);
        freed(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
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

/// Bytes handed out while `f` runs — by `alloc` and `alloc_zeroed`, and
/// the new size of each `realloc` — whether or not they are freed again.
pub fn bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// Bytes handed out and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Blocks handed out and not yet freed.
pub fn live_blocks() -> u64 {
    BLOCKS.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
