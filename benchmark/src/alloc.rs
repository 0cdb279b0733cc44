//! A counting wrapper around the system allocator: heap allocations, bytes
//! requested, live bytes and their peak. Always on and identical on every
//! commit, so `allocs_per_row` is an exact host-cost figure a later change
//! can claim when a small wall-time gain drowns in sandbox noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

// The counters are statistics: they publish no other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The benchmark binary's `#[global_allocator]`.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which is a block `System` handed out.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations made so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes live now.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the counters are process-wide and `cargo test` runs
    // tests on parallel threads, so the block is far larger than anything
    // the other tests hold and assertions are bounds, not equalities.
    #[test]
    fn live_bytes_peak_survives_the_free() {
        const N: usize = 64 << 20;
        reset_peak();
        let before = snapshot();
        let block = vec![1u8; N];
        std::hint::black_box(&block);
        let during = snapshot();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes >= before.bytes + N as u64);
        assert!(during.live >= N && during.peak >= during.live.min(N));
        drop(block);
        let after = snapshot();
        assert!(after.peak >= N, "peak is kept after the block is freed");
        assert!(after.live + N / 2 < after.peak, "live fell, peak did not");
        reset_peak();
        assert!(snapshot().peak < after.peak);
    }
}
