//! Heap ledger: a `System`-delegating global allocator that keeps the four
//! numbers the benchmark reports — allocations, bytes requested, live bytes
//! and the peak of live bytes since the last [`Ledger::mark`].
//!
//! The benchmark is one thread, so `Relaxed` atomics are enough: every
//! counter is a statistic that publishes no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The counters behind the allocator. A separate type so the arithmetic can
/// be unit-tested on a local instance.
pub struct Ledger {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A reading of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Highest `live` since the last mark.
    pub peak: u64,
}

impl Ledger {
    pub const fn new() -> Self {
        Ledger {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn on_alloc(&self, size: u64) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size, Relaxed);
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
    }

    #[inline]
    pub fn on_dealloc(&self, size: u64) {
        self.live.fetch_sub(size, Relaxed);
    }

    /// A reallocation counts as one allocation of the new size; live bytes
    /// move by the difference.
    #[inline]
    pub fn on_realloc(&self, old: u64, new: u64) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(new, Relaxed);
        if new >= old {
            let live = self.live.fetch_add(new - old, Relaxed) + (new - old);
            self.peak.fetch_max(live, Relaxed);
        } else {
            self.live.fetch_sub(old - new, Relaxed);
        }
    }

    pub fn read(&self) -> Reading {
        Reading {
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Start a measured region: the peak restarts from what is live now.
    pub fn mark(&self) -> Reading {
        let live = self.live.load(Relaxed);
        self.peak.store(live, Relaxed);
        self.read()
    }
}

/// What a region between a [`Ledger::mark`] and a later reading cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionCost {
    pub allocs: u64,
    pub bytes: u64,
    /// Peak live bytes above what was already live at the mark.
    pub peak_bytes: u64,
}

pub fn region_cost(mark: Reading, end: Reading) -> RegionCost {
    RegionCost {
        allocs: end.allocs - mark.allocs,
        bytes: end.bytes - mark.bytes,
        peak_bytes: end.peak.saturating_sub(mark.live),
    }
}

pub static LEDGER: Ledger = Ledger::new();

pub struct TrackingAlloc;

// SAFETY: every method delegates the memory operation unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the ledger updates are side
// effects on atomics and never touch the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LEDGER.on_alloc(layout.size() as u64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LEDGER.on_alloc(layout.size() as u64);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LEDGER.on_dealloc(layout.size() as u64);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LEDGER.on_realloc(layout.size() as u64, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_and_restarts_at_a_mark() {
        let l = Ledger::new();
        l.on_alloc(100);
        l.on_alloc(50);
        l.on_dealloc(100);
        assert_eq!(
            l.read(),
            Reading {
                allocs: 2,
                bytes: 150,
                live: 50,
                peak: 150
            }
        );
        let mark = l.mark();
        assert_eq!(mark.peak, 50);
        l.on_alloc(30);
        l.on_dealloc(30);
        l.on_alloc(10);
        let cost = region_cost(mark, l.read());
        assert_eq!(
            cost,
            RegionCost {
                allocs: 2,
                bytes: 40,
                peak_bytes: 30
            }
        );
    }

    #[test]
    fn realloc_moves_live_by_the_difference() {
        let l = Ledger::new();
        l.on_alloc(64);
        l.on_realloc(64, 256);
        assert_eq!(l.read().live, 256);
        assert_eq!(l.read().peak, 256);
        l.on_realloc(256, 16);
        let r = l.read();
        assert_eq!(
            (r.allocs, r.bytes, r.live, r.peak),
            (3, 64 + 256 + 16, 16, 256)
        );
    }

    #[test]
    fn the_global_ledger_sees_a_vec() {
        let before = LEDGER.read();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let during = LEDGER.read();
        drop(v);
        assert!(during.allocs > before.allocs);
        assert!(during.bytes - before.bytes >= 1 << 16);
    }
}
