//! Heap accounting for the `*_peak_mb` metrics.
//!
//! The repository's `TrackingAllocator` keeps a process-lifetime
//! high-watermark that never resets, so it cannot give the peak of the
//! second and later samples of a call. [`PeakAlloc`] forwards every request
//! to it unchanged (the engine's own memory accounting sees exactly what
//! the CLI's does) and keeps one extra watermark of the tracked live bytes
//! that [`mark`] resets.

use brics_graph::telemetry::memory;
use brics_graph::telemetry::TrackingAllocator;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

/// Highest tracked live byte count seen since the last [`mark`]. A
/// statistic only: it publishes no other data, so `Relaxed` suffices.
static PEAK_SINCE_MARK: AtomicU64 = AtomicU64::new(0);

/// `TrackingAllocator` plus a resettable peak.
pub(crate) struct PeakAlloc;

// SAFETY: every operation is forwarded unchanged to `TrackingAllocator`
// (itself a thin wrapper over `System`); the extra bookkeeping reads and
// updates static atomics only and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is forwarded as is.
        let p = unsafe { TrackingAllocator.alloc(layout) };
        raise_peak();
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { TrackingAllocator.alloc_zeroed(layout) };
        raise_peak();
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `TrackingAllocator`, with this `layout`.
        unsafe { TrackingAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        let p = unsafe { TrackingAllocator.realloc(ptr, layout, new_size) };
        raise_peak();
        p
    }
}

#[inline]
fn raise_peak() {
    PEAK_SINCE_MARK.fetch_max(memory::live_bytes(), Ordering::Relaxed);
}

/// Resets the watermark to the current live bytes and returns them.
pub(crate) fn mark() -> u64 {
    let live = memory::live_bytes();
    PEAK_SINCE_MARK.store(live, Ordering::Relaxed);
    live
}

/// Heap growth in bytes since `mark()` returned `base`: the peak of the
/// tracked live bytes above `base`.
pub(crate) fn peak_above(base: u64) -> u64 {
    PEAK_SINCE_MARK.load(Ordering::Relaxed).saturating_sub(base)
}
