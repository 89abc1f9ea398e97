//! A counting global allocator: it forwards every call to [`System`] and
//! keeps three statistics — allocations made, live heap bytes, and the
//! live-heap high-water mark since the last [`reset_peak`].
//!
//! It is installed for every binary that links this crate, so timed and
//! traced passes, and the parent and child commits of a comparison, all
//! pay the same bookkeeping cost.

// A global allocator is unavoidably `unsafe`; this module is the crate's
// one exception to `unsafe_code = "deny"`. It only forwards to `System`
// and bumps atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The counting allocator. Stateless: the counters are process-wide.
struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

// The counters publish no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Allocations (including reallocations) made since the process started.
#[must_use]
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live heap, and returns
/// that live heap in bytes.
pub(crate) fn reset_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Live-heap high-water mark, in bytes, since the last [`reset_peak`].
#[must_use]
pub(crate) fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}
