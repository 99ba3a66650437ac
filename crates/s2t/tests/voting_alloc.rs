//! Proof that the arena voting inner loop is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after one warm-up
//! pass (which sizes the explicit scratch, as each pooled one behind
//! `arena_voting` is sized by its first pass), the per-trajectory pass over
//! every trajectory of a co-moving workload must perform **zero** heap
//! allocations when its outputs (votes, contributions) are pre-sized. This pins the hot-path contract the SoA rewrite exists for:
//! no `Vec` per R-tree probe, no `Vec<Timestamp>` per distance pair, no
//! `Segment` materialization — just lane reads and in-place scratch.
//!
//! The counter is **per-thread** (a const-initialized thread-local `Cell`,
//! which itself never allocates), so allocations made concurrently by the
//! libtest harness threads cannot pollute the measurement.

use hermes_s2t::{
    vote_trajectory_into, ArenaVoteScratch, PackedSegmentIndex, S2TParams, SegmentArena,
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

#[test]
fn voting_inner_loop_performs_zero_heap_allocations() {
    // A workload where every trajectory has real voters (co-moving groups
    // with staggered starts), so the loop exercises candidate scans, kernel
    // evaluations and vote summation — not just empty queries.
    let mut trajs = Vec::new();
    for i in 0..10u64 {
        trajs.push(line(i, i as f64 * 8.0, (i as i64 % 3) * 5_000, 24));
    }
    for i in 10..16u64 {
        trajs.push(line(i, 600.0 + i as f64 * 8.0, 20_000, 24));
    }
    let params = S2TParams {
        sigma: 25.0,
        ..S2TParams::default()
    };
    let cutoff = params.voting_cutoff_radius();

    let arena = SegmentArena::build(&trajs);
    let index = PackedSegmentIndex::build(&arena);
    let mut scratch = ArenaVoteScratch::default();
    let max_segments = (0..arena.num_trajectories())
        .map(|ti| arena.segments_of(ti).len())
        .max()
        .unwrap();
    let mut votes: Vec<f64> = Vec::with_capacity(max_segments);
    let mut contributions: Vec<(u32, f64)> = Vec::with_capacity(arena.num_segments());

    // Warm-up pass: results recorded for the later equivalence check.
    let mut reference = Vec::new();
    for ti in 0..arena.num_trajectories() {
        vote_trajectory_into(
            &arena,
            &index,
            &params,
            cutoff,
            ti,
            &mut scratch,
            &mut votes,
            &mut contributions,
        );
        reference.push((votes.clone(), contributions.clone()));
    }
    assert!(
        reference.iter().any(|(v, _)| v.iter().any(|&x| x > 0.5)),
        "the workload must produce real votes for the test to mean anything"
    );
    assert!(
        reference
            .iter()
            .any(|(_, c)| c.iter().any(|&(_, x)| x > 0.5)),
        "the passes must contribute to earlier trajectories' votes"
    );

    // Measured passes: zero allocations across the entire voting loop.
    let before = local_allocations();
    for _round in 0..3 {
        for ti in 0..arena.num_trajectories() {
            vote_trajectory_into(
                &arena,
                &index,
                &params,
                cutoff,
                ti,
                &mut scratch,
                &mut votes,
                &mut contributions,
            );
        }
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "voting must not allocate with a warm scratch"
    );

    // And the measured passes still produce the same output bit for bit.
    for (ti, (expected_votes, expected_contributions)) in reference.iter().enumerate() {
        vote_trajectory_into(
            &arena,
            &index,
            &params,
            cutoff,
            ti,
            &mut scratch,
            &mut votes,
            &mut contributions,
        );
        assert_eq!(&votes, expected_votes, "trajectory {ti}");
        assert_eq!(&contributions, expected_contributions, "trajectory {ti}");
    }
}
