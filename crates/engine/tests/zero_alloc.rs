//! The steady-state zero-allocation contract (DESIGN.md §11, ISSUE 6):
//! after warm-up, a batch of **structural** events (join/leave, edge
//! add/remove) through `Engine::apply_batch_into` performs zero heap
//! allocations — all repair state lives in reusable arenas.
//!
//! The measurement instrument is a counting `#[global_allocator]`: the
//! engine crate itself is `#![forbid(unsafe_code)]`, so the shim lives
//! here, in the test binary (same pattern as `owp-bench`, which feeds
//! the `engine_allocations_per_batch` gauge from an identical shim; this
//! test keeps the same per-thread count itself).
//!
//! Protocol: run the same event cycle until every arena — including the
//! history ring's slots — has reached its high-water mark, then re-run
//! the cycle and assert the allocator was never called. Weight events
//! (quota/preference) are excluded — they allocate inside the rank-splice
//! kernel and are outside the contract.
//!
//! The contract *includes* the always-on black-box history: the history
//! ring records the batches themselves (with checkpoint advancement on
//! eviction), and none of it may allocate once warm. The ring tests below
//! force the ring through wraparound during the measured window on
//! purpose.

use owp_engine::{DeltaReport, Engine, EngineEvent};
use owp_graph::NodeId;
use owp_matching::Problem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per-thread, so tests running on
    /// sibling threads (and the harness's own thread) never land in a
    /// measured window; the engine is single-threaded, so its work is
    /// all on the calling thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the current thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bumps the current thread's counter. `try_with`: a thread being torn
/// down may still allocate after its thread-locals are gone.
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// System allocator plus one counter bump per `alloc`/`realloc`.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A repeatable all-structural event cycle: every event is undone by a
/// later event in the same cycle, so consecutive cycles traverse
/// identical repair work and arena high-water marks.
fn structural_cycle(e: &Engine) -> Vec<Vec<EngineEvent>> {
    let g = e.dynamic().graph();
    let mut batches = Vec::new();
    for base in [0u32, 5, 11] {
        let node = NodeId(base % g.node_count() as u32);
        batches.push(vec![EngineEvent::NodeLeave { node }]);
        batches.push(vec![EngineEvent::NodeJoin { node }]);
    }
    let mut edges: Vec<_> = g.edges().take(4).collect();
    edges.reverse();
    for edge in edges {
        let (u, v) = g.endpoints(edge);
        batches.push(vec![
            EngineEvent::EdgeRemove { u, v },
            EngineEvent::EdgeAdd { u, v },
        ]);
    }
    batches
}

fn assert_zero_alloc_steady_state(mut e: Engine, label: &str) {
    let batches = structural_cycle(&e);
    let mut report = DeltaReport::default();
    // Warm-up: cycle until one whole cycle allocates nothing — that is
    // steady state by definition. The arenas converge in a cycle or two;
    // the history ring takes longer because each slot's event buffer
    // grows on first contact with the cycle's largest batch, and slots
    // meet batches in a rotating alignment (ring capacity and cycle
    // length are coprime-ish by design here). Bounded so a regression
    // fails loudly instead of spinning.
    let mut warmed = false;
    for _ in 0..64 {
        let mark = allocs();
        for b in &batches {
            e.apply_batch_into(b, &mut report).unwrap();
        }
        if allocs() == mark {
            warmed = true;
            break;
        }
    }
    assert!(warmed, "{label}: no allocation-free cycle within 64 warm-up cycles");
    assert!(
        e.history().capacity() == 0 || e.history().evicted() > 0,
        "{label}: warm-up must wrap the history ring"
    );
    e.certify().expect("warmed engine is canonical");

    let mark = allocs();
    for b in &batches {
        e.apply_batch_into(b, &mut report).unwrap();
    }
    let allocs = allocs() - mark;
    let per_batch = allocs as f64 / batches.len() as f64;
    assert_eq!(
        allocs, 0,
        "{label}: {allocs} allocations over {} structural batches \
         ({per_batch} per batch) — the steady-state arena contract is broken",
        batches.len(),
    );
    e.certify().expect("measured engine is canonical");
}

#[test]
fn steady_state_allocates_nothing() {
    assert_zero_alloc_steady_state(
        Engine::new(Problem::random_gnp(48, 0.2, 2, 71)),
        "default history",
    );
}

/// The history ring under *pressure*: a capacity so small that every
/// measured batch evicts history steps (advancing the shadow checkpoint).
/// Still zero allocations — the black box must be free to leave
/// always-on.
#[test]
fn wrapping_history_ring_allocates_nothing() {
    let e = Engine::with_history(Problem::random_gnp(48, 0.2, 2, 71), 4);
    assert_zero_alloc_steady_state(e, "history=4");
}

#[test]
fn wrapping_history_ring_records_while_silent() {
    let mut e = Engine::with_history(Problem::random_gnp(48, 0.2, 2, 71), 4);
    let batches = structural_cycle(&e);
    let mut report = DeltaReport::default();
    for _ in 0..3 {
        for b in &batches {
            e.apply_batch_into(b, &mut report).unwrap();
        }
    }
    let mark = allocs();
    let evicted_before = e.history().evicted();
    for b in &batches {
        e.apply_batch_into(b, &mut report).unwrap();
    }
    assert_eq!(
        allocs() - mark,
        0,
        "recording through wraparound must not allocate"
    );
    assert!(e.history().evicted() > evicted_before, "history slid its window");
    assert_eq!(
        e.checkpoint_epoch().0,
        e.history().steps().next().unwrap().epoch - 1,
        "checkpoint tracks the evicted prefix"
    );
    e.certify().expect("recording engine stays canonical");
}

/// The contract is scoped: weight events go through the rank-splice
/// kernel, which allocates by design. Pin that boundary so a future
/// "fix" doesn't silently widen or narrow the claim.
#[test]
fn weight_events_are_outside_the_contract() {
    let mut e = Engine::new(Problem::random_gnp(48, 0.2, 2, 71));
    let mut report = DeltaReport::default();
    for q in [1, 2, 1, 2] {
        e.apply_batch_into(
            &[EngineEvent::QuotaChange { node: NodeId(7), quota: q }],
            &mut report,
        )
        .unwrap();
    }
    let mark = allocs();
    e.apply_batch_into(
        &[EngineEvent::QuotaChange { node: NodeId(7), quota: 1 }],
        &mut report,
    )
    .unwrap();
    assert!(
        allocs() > mark,
        "quota events allocate in the splice kernel — if this now passes \
         allocation-free, extend the zero-alloc contract to weight events"
    );
    e.certify().expect("still canonical");
}
