//! A counting global allocator for tests that pin allocation behaviour.
//!
//! [`CountingAllocator`] wraps [`System`] and keeps four process-wide
//! counters: allocation calls, bytes requested, bytes live, and the
//! high-water mark of live bytes. A test binary installs it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: uopcache_model::alloc::CountingAllocator =
//!     uopcache_model::alloc::CountingAllocator;
//! ```
//!
//! and then measures a closure with [`CountingAllocator::measure`]. The
//! counters are relaxed atomics shared by every thread, so a measurement is
//! exact only while one thread allocates; the walls that use it run their
//! cases inside a single `#[test]` for that reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting calls, bytes, live bytes and peak live
/// bytes.
///
/// `alloc`, `alloc_zeroed` and `realloc` each count as one call of the
/// bytes they ask for. A `realloc` holds the old and the new block live
/// together at its peak, as a move to a fresh block would.
#[derive(Debug)]
pub struct CountingAllocator;

/// What one [`CountingAllocator::measure`] call saw.
#[derive(Clone, Copy, Debug)]
pub struct AllocStats {
    /// Allocation calls made.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// The most bytes held live at once, above the live bytes at the start.
    pub peak: usize,
}

impl CountingAllocator {
    /// Runs `f` and returns its value with the allocations it made.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
        let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let value = f();
        let stats = AllocStats {
            calls: CALLS.load(Ordering::Relaxed) - calls,
            bytes: BYTES.load(Ordering::Relaxed) - bytes,
            peak: PEAK.load(Ordering::Relaxed).saturating_sub(base),
        };
        (value, stats)
    }

    /// Whether this allocator is the process's global allocator: a probe
    /// allocation must move the call counter. A test asserting zero
    /// allocations checks this first, or its zero would be vacuous.
    #[must_use]
    pub fn is_installed() -> bool {
        let (_, stats) = Self::measure(|| std::hint::black_box(Box::new(0u64)));
        stats.calls > 0
    }

    fn grew(size: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes of
// the blocks `System` hands out and takes back.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` passes through.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            Self::grew(layout.size());
        }
        block
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let block = unsafe { System.alloc_zeroed(layout) };
        if !block.is_null() {
            Self::grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // contract for `new_size` passes through.
        let block = unsafe { System.realloc(ptr, layout, new_size) };
        if !block.is_null() {
            Self::grew(new_size);
            Self::shrank(layout.size());
        }
        block
    }
}
