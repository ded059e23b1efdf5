//! Counting global allocator for every `owp-bench` binary.
//!
//! The engine's steady-state zero-allocation contract (DESIGN.md §11) is
//! measured through [`owp_metrics::record_allocation`]; the metrics crate
//! is `#![forbid(unsafe_code)]`, so the `GlobalAlloc` shim that feeds the
//! counter lives here, in the one workspace crate that permits `unsafe`.
//! Linking this library installs the shim process-wide — the
//! `experiments` binary, `bench_guard`, `owp-inspect` and the crate's own
//! tests all count, which is what lets E19 publish an honest
//! `engine_allocations_per_batch` gauge.
//!
//! Cost: one thread-local increment per `alloc`/`realloc` call on top
//! of the system allocator — far below the jitter envelope of any guarded
//! wall time, and the price of keeping the contract continuously
//! measurable instead of trusted.

use std::alloc::{GlobalAlloc, Layout, System};

/// The system allocator plus one counter bump per allocation.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        owp_metrics::record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        owp_metrics::record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    #[test]
    fn the_shim_counts() {
        let mark = owp_metrics::allocation_count();
        let v: Vec<u64> = Vec::with_capacity(128);
        drop(v);
        assert!(
            owp_metrics::allocations_since(mark) >= 1,
            "an explicit Vec allocation must be observed"
        );
    }
}
