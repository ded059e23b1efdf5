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
//!
//! The flight-ring gauges ([`publish_recorder_gauges`]) ride along here.

use crate::registry::MetricsRegistry;
use owp_engine::Engine;
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

/// Gauge key for telemetry events the engine's flight ring has
/// overwritten since construction (0 = the black box still holds the
/// whole run).
pub const RECORDER_DROPPED: &str = "recorder_dropped_events";

/// Gauge key for the flight ring's fill fraction in `[0, 1]` (1 = full,
/// i.e. every further event evicts the oldest).
pub const RECORDER_OCCUPANCY: &str = "recorder_ring_occupancy";

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

/// Publishes the engine's flight-ring gauges, [`RECORDER_DROPPED`] and
/// [`RECORDER_OCCUPANCY`] — the ring's drop count and fill fraction, so a
/// post-mortem knows how much of the stream the black box still held.
pub fn publish_recorder_gauges(reg: &MetricsRegistry, engine: &Engine) {
    reg.gauge(RECORDER_DROPPED).set(engine.flight().dropped() as f64);
    reg.gauge(RECORDER_OCCUPANCY).set(engine.flight().occupancy());
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_engine::EngineEvent;
    use owp_graph::NodeId;
    use owp_matching::Problem;

    #[test]
    fn forensic_gauges_reflect_the_engine() {
        let mut e = owp_engine::Engine::builder(Problem::random_gnp(24, 0.3, 2, 42))
            .flight_capacity(8)
            .build();
        for node in [NodeId(1), NodeId(2), NodeId(3)] {
            e.apply(EngineEvent::NodeLeave { node }).unwrap();
        }
        let reg = MetricsRegistry::new();
        publish_recorder_gauges(&reg, &e);
        assert_eq!(reg.gauge(RECORDER_DROPPED).get(), e.flight().dropped() as f64);
        let occ = reg.gauge(RECORDER_OCCUPANCY).get();
        assert!(occ > 0.0 && occ <= 1.0, "tiny ring fills fast: {occ}");
    }

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
