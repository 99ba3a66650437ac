//! Proof that the voting sweep allocates nothing per candidate pair.
//!
//! A counting global allocator wraps the system allocator. The sweep's
//! allocations — the output profiles, the slab's vote buffer (one entry per
//! row, allocated once), the live list and the slot table with its voter
//! bitsets, which grow with the trajectories and with the rows live at once
//! — do not depend on how many segment pairs it meets. So two workloads
//! with the same trajectories flying the same pattern, one four times as
//! long, must allocate equally often while the longer one evaluates at least
//! three times as many pairs: a `Vec` per pair, a `Segment` materialized per
//! distance or any other allocation in the pair loop fails this. Both
//! workloads stay under one time slab, so the serial sweep runs whole.
//!
//! The counter is **per-thread** (a const-initialized thread-local `Cell`,
//! which itself never allocates), so allocations made concurrently by the
//! libtest harness threads cannot pollute the measurement.

use hermes_exec::Executor;
use hermes_s2t::{
    arena_voting_counted_with, naive_voting, KernelCounters, PackedSegmentIndex, S2TParams,
    SegmentArena,
};
use hermes_trajectory::{Point, Timestamp, Trajectory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
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
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn line(id: u64, y0: f64, t0: i64, n: usize) -> Trajectory {
    Trajectory::new(
        id,
        id,
        (0..n)
            .map(|i| Point::new(i as f64 * 10.0, y0, Timestamp(t0 + i as i64 * 10_000)))
            .collect(),
    )
    .unwrap()
}

/// Co-moving groups with staggered starts, `points` samples each: every
/// trajectory has real voters, so the sweep exercises the box gap, kernel
/// evaluations and vote sums — not just an empty live set.
fn workload(points: usize) -> Vec<Trajectory> {
    let mut trajs = Vec::new();
    for i in 0..10u64 {
        trajs.push(line(i, i as f64 * 8.0, (i as i64 % 3) * 5_000, points));
    }
    for i in 10..16u64 {
        trajs.push(line(i, 600.0 + i as f64 * 8.0, 20_000, points));
    }
    trajs
}

/// The allocations of one serial sweep over `trajs`, and its counters.
fn sweep(trajs: &[Trajectory], params: &S2TParams) -> (u64, KernelCounters) {
    let arena = SegmentArena::build(trajs);
    let index = PackedSegmentIndex::build(&arena);
    let serial = Executor::serial();
    let before = local_allocations();
    let (profiles, counters) = arena_voting_counted_with(&arena, &index, params, &serial);
    let allocations = local_allocations() - before;
    assert!(
        profiles.iter().any(|p| p.votes.iter().any(|&v| v > 0.5)),
        "the workload must produce real votes for the test to mean anything"
    );
    assert_eq!(profiles, naive_voting(trajs, params));
    (allocations, counters)
}

#[test]
fn voting_inner_loop_performs_zero_heap_allocations() {
    let params = S2TParams {
        sigma: 25.0,
        ..S2TParams::default()
    };
    let (short, short_counters) = sweep(&workload(24), &params);
    let (long, long_counters) = sweep(&workload(96), &params);
    assert!(
        long_counters.evaluated >= 3 * short_counters.evaluated,
        "{short_counters:?} vs {long_counters:?}"
    );
    assert_eq!(
        long, short,
        "the sweep allocated per pair: {short} allocations for {short_counters:?}, \
         {long} for {long_counters:?}"
    );
}
