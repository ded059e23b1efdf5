//! Allocation accounting for the engine's zero-allocation contract.
//!
//! DESIGN.md §11 promises that a warmed-up [`owp_engine::Engine`] applies
//! a batch of structural events without touching the heap. Promises rot;
//! this module is the regression instrument that keeps it measurable:
//!
//! * [`record_allocation`] — bumps a per-thread allocation counter. This
//!   crate is `#![forbid(unsafe_code)]`, so the `GlobalAlloc` shim that
//!   calls it lives in the leaf binaries that opt in (`owp-bench` installs
//!   one; `crates/engine/tests/zero_alloc.rs` carries its own): the shim
//!   delegates to the system allocator and counts once per
//!   `alloc`/`realloc` call. One thread-local increment per allocation —
//!   cheap enough to leave on in benchmark binaries. Per-thread, so a
//!   measured region on one thread is never charged for allocations other
//!   threads (sibling tests, say) make meanwhile; the engine is
//!   single-threaded, so its work all lands on the calling thread.
//! * [`allocation_count`] / [`allocations_since`] — read the current
//!   thread's counter and difference it around a measured region.
//! * [`publish_allocations_per_batch`] — records the measured rate on the
//!   [`ALLOCATIONS_PER_BATCH`] gauge so `owp-inspect metrics` (and any
//!   exported snapshot) surfaces regressions next to the engine's other
//!   health numbers. Without an installed shim the counter stays 0 and
//!   the gauge honestly reports 0 allocations *observed*.

use crate::registry::MetricsRegistry;
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread, as counted by whichever
    /// `#[global_allocator]` shim the enclosing binary installed.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread — the hook a
/// `#[global_allocator]` shim calls per `alloc`/`realloc`. A thread being
/// torn down may allocate after its thread-locals are gone; those
/// allocations go uncounted.
#[inline]
pub fn record_allocation() {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

/// Gauge key for the steady-state allocation rate of the engine's batch
/// path (allocations per applied batch, measured after warm-up).
pub const ALLOCATIONS_PER_BATCH: &str = "engine_allocations_per_batch";

/// Allocations observed so far on the current thread (0 if no shim is
/// installed).
pub fn allocation_count() -> u64 {
    ALLOC_COUNT.with(Cell::get)
}

/// Allocations observed since a previous [`allocation_count`] reading.
pub fn allocations_since(mark: u64) -> u64 {
    allocation_count().saturating_sub(mark)
}

/// Sets the [`ALLOCATIONS_PER_BATCH`] gauge. The canonical measurement
/// protocol (what e19 and the `zero_alloc` test do): apply event cycles
/// until the arenas and the history ring have warmed (the ring has
/// evicted at least once), mark the counter, apply `batches` more, and
/// divide the difference.
pub fn publish_allocations_per_batch(reg: &MetricsRegistry, allocs: u64, batches: u64) {
    let rate = if batches == 0 { 0.0 } else { allocs as f64 / batches as f64 };
    reg.gauge(ALLOCATIONS_PER_BATCH).set(rate);
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn allocation_gauge_publishes_a_rate() {
        let reg = MetricsRegistry::new();
        publish_allocations_per_batch(&reg, 12, 4);
        assert_eq!(reg.gauge(ALLOCATIONS_PER_BATCH).get(), 3.0);
        publish_allocations_per_batch(&reg, 0, 0);
        assert_eq!(reg.gauge(ALLOCATIONS_PER_BATCH).get(), 0.0);
        // The hook itself: no shim is installed in unit tests, so the
        // counter only moves if we move it.
        let mark = allocation_count();
        for _ in 0..5 {
            record_allocation();
        }
        assert_eq!(allocations_since(mark), 5);
    }
}
