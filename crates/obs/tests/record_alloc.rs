//! Proof that recording a span allocates and frees nothing.
//!
//! A counting global allocator wraps the system allocator and counts both
//! allocations and frees. The store's slots are all built when it is
//! created, so once it is full, recording a span whose name is static,
//! whose statement is shared with its caller, with a status and no other
//! attributes, moves a fixed record over the oldest slot: no allocation
//! for the new span, and no free for the one it evicts. An owned name, a
//! copied statement or a ring that grows fails this.
//!
//! The counters are **per-thread** (const-initialized thread-local `Cell`s,
//! which themselves never allocate), so allocations made concurrently by
//! the libtest harness threads cannot pollute the measurement.

use hermes_obs::{next_id, Span, SpanStore, Status};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's (allocations, frees) so far.
fn local_counts() -> (u64, u64) {
    (ALLOCATIONS.with(|c| c.get()), FREES.with(|c| c.get()))
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn request_span(statement: &Arc<str>) -> Span {
    Span {
        trace_id: next_id(),
        span_id: next_id(),
        parent_span_id: 0,
        name: "query".into(),
        start_us: 0,
        duration_us: 70,
        statement: Some(Arc::clone(statement)),
        status: Some(Status::Ok),
        attrs: Vec::new(),
    }
}

#[test]
fn recording_over_a_full_store_neither_allocates_nor_frees() {
    let capacity = 64;
    let store = SpanStore::new(capacity);
    let statement: Arc<str> = Arc::from("SELECT RANGE(data, 0, 1800000);");
    // Fill every slot, so each record below evicts a span like itself.
    for _ in 0..capacity {
        store.record(request_span(&statement));
    }
    let before = local_counts();
    for _ in 0..3 * capacity {
        store.record(request_span(&statement));
    }
    assert_eq!(
        local_counts(),
        before,
        "(allocations, frees) moved while recording into a full store"
    );
    // The records were kept: the newest one is there to read.
    let newest = store.recent()[0].trace_id;
    let spans = store.trace(newest);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].statement.as_deref(), Some(&*statement));
    assert_eq!(Arc::strong_count(&statement), capacity + 2);
}
