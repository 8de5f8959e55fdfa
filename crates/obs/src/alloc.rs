//! Optional allocation tracking behind a counting `#[global_allocator]`.
//!
//! The bench harness (and any binary that opts in) installs
//! [`CountingAlloc`] as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;
//! ```
//!
//! Every heap allocation is then counted twice: into process-wide
//! totals ([`totals`]) and into per-thread counters that [`measure`]
//! snapshots around a closure — which is how every bench row reports
//! allocs/op next to ns/op, and how the zero-alloc property of the
//! `authd` respond path and the wire codec is *asserted* rather than
//! assumed.
//!
//! The process-wide totals are kept per thread too, in cache-line-sized
//! slots that [`totals`] sums on read: a thread only ever writes its own
//! line, so the generator and analyzer threads of a pipeline do not
//! contend on a shared counter. Counting is still work on every
//! allocation (a handful of thread-local bumps and two uncontended
//! atomic stores); perfbench's end-to-end numbers include it, since the
//! `dnscentral` binary installs the allocator.
//!
//! When the allocator is not installed (every library user of `obs`)
//! all counters stay at zero and [`installed`] reports `false`; the
//! module costs nothing.
#![allow(unsafe_code)] // the GlobalAlloc impl below; nothing else

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One thread's share of the process-wide totals, alone on its cache
/// line.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// Slots handed out to threads in creation order. The last one is
/// shared by every thread past the first `SLOTS - 1` (and by threads
/// whose TLS is already torn down), so it is the only one updated with
/// read-modify-write atomics.
const SLOTS: usize = 64;
const SHARED_SLOT: usize = SLOTS - 1;
static TOTALS: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot in [`TOTALS`]; `usize::MAX` until its first
    /// allocation.
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<u64> = const { Cell::new(0) };
}

/// A counting global allocator wrapping [`System`].
pub struct CountingAlloc;

/// The calling thread's slot index, claimed on first use.
#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                let claimed = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
                s.set(claimed.min(SHARED_SLOT));
            }
            s.get()
        })
        .unwrap_or(SHARED_SLOT)
}

#[inline]
fn note_alloc(size: u64) {
    let slot = thread_slot();
    let totals = &TOTALS[slot];
    if slot == SHARED_SLOT {
        totals.allocs.fetch_add(1, Ordering::Relaxed);
        totals.bytes.fetch_add(size, Ordering::Relaxed);
    } else {
        // the owning thread is the only writer: a plain store suffices
        let bump =
            |c: &AtomicU64, by: u64| c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
        bump(&totals.allocs, 1);
        bump(&totals.bytes, size);
    }
    // TLS may be unavailable during thread teardown; skip quietly then
    // (the process-wide totals above still see the event).
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    let _ = THREAD_CURRENT.try_with(|c| {
        let now = c.get().wrapping_add(size);
        c.set(now);
        let _ = THREAD_PEAK.try_with(|p| {
            if now > p.get() {
                p.set(now);
            }
        });
    });
}

#[inline]
fn note_dealloc(size: u64) {
    let _ = THREAD_CURRENT.try_with(|c| c.set(c.get().saturating_sub(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // a grow/shrink counts as one fresh allocation event: steady
            // state (reused capacity) performs none of these
            note_dealloc(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        p
    }
}

/// What [`measure`] observed while its closure ran (current thread only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeStats {
    /// Number of allocation events (alloc, alloc_zeroed, grow).
    pub allocs: u64,
    /// Bytes requested across those events.
    pub bytes: u64,
    /// Peak live-byte growth above the level at scope entry.
    pub peak_bytes: u64,
}

/// Run `f`, returning its value plus the allocation activity of the
/// current thread while it ran. All zeros unless [`CountingAlloc`] is
/// the process's global allocator.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, ScopeStats) {
    let allocs0 = THREAD_ALLOCS.with(Cell::get);
    let bytes0 = THREAD_BYTES.with(Cell::get);
    let base = THREAD_CURRENT.with(Cell::get);
    THREAD_PEAK.with(|p| p.set(base));
    let out = f();
    let peak = THREAD_PEAK.with(Cell::get);
    (
        out,
        ScopeStats {
            allocs: THREAD_ALLOCS.with(Cell::get).wrapping_sub(allocs0),
            bytes: THREAD_BYTES.with(Cell::get).wrapping_sub(bytes0),
            peak_bytes: peak.saturating_sub(base),
        },
    )
}

/// Process-wide `(allocation_count, bytes_allocated)` since start: the
/// sum over every thread's slot, exited threads included.
pub fn totals() -> (u64, u64) {
    TOTALS.iter().fold((0, 0), |(allocs, bytes), slot| {
        (
            allocs + slot.allocs.load(Ordering::Relaxed),
            bytes + slot.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Probe whether [`CountingAlloc`] is actually installed as the global
/// allocator: perform one heap allocation and see whether the counters
/// move.
pub fn installed() -> bool {
    let before = THREAD_ALLOCS.with(Cell::get);
    let probe = std::hint::black_box(Box::new(0xA5u8));
    drop(std::hint::black_box(probe));
    THREAD_ALLOCS.with(Cell::get) != before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary does not install the allocator, so counters
    // must stay silent — the "not installed" contract.
    #[test]
    fn uninstalled_counts_nothing() {
        assert!(!installed());
        let (v, stats) = measure(|| {
            let big: Vec<u64> = (0..1024).collect();
            big.len()
        });
        assert_eq!(v, 1024);
        assert_eq!(stats, ScopeStats::default());
        assert_eq!(totals(), (0, 0));
    }
}
