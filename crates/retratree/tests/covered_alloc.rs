//! Proof that a warm covered QuT read is index-only: it looks no page up and
//! allocates nothing proportional to the points it accounts for.
//!
//! A counting global allocator (the one of
//! `crates/storage/tests/read_alloc.rs`) wraps the system allocator. Once
//! the level-3 entries of a tree are filled, a grid-aligned
//! `qut_partial_with` may allocate the answer it returns — a 48-byte summary
//! and an 8-byte distance per member, a cluster struct per entry, the lists
//! that hold them — and nothing per stored point: no page image, no decoded
//! body. The fixture stores ~330 points (8 KB) per sub-trajectory, so the
//! two differ by two orders of magnitude.
//!
//! The counters are **per-thread** (const-initialized thread-local `Cell`s,
//! which themselves never allocate), so allocations made concurrently by the
//! libtest harness threads cannot pollute the measurement.

use hermes_exec::Executor;
use hermes_retratree::{
    qut_partial_with, OwnedSlice, QutCluster, QutParams, ReTraTree, ReTraTreeParams,
};
use hermes_s2t::S2TParams;
use hermes_trajectory::{
    Duration, Point, SubTrajectorySummary, TimeInterval, Timestamp, Trajectory,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn local_bytes() -> u64 {
    BYTES.with(|c| c.get())
}

fn count(bytes: usize) {
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const HOUR_MS: i64 = 3_600_000;
const SAMPLES: usize = 1_000;

/// Sixty co-moving flights, three hours and a thousand samples each, over
/// one-hour sub-chunks: every populated sub-chunk has level-3 entries.
fn tree() -> ReTraTree {
    let s2t = S2TParams {
        sigma: 60.0,
        epsilon: 300.0,
        min_duration_ms: 60_000,
        ..S2TParams::default()
    };
    let mut tree = ReTraTree::new(ReTraTreeParams {
        chunk_duration: Duration::from_hours(4),
        subchunks_per_chunk: 4,
        reorg_page_threshold: 2,
        buffer_frames: 64,
        s2t,
    });
    let span = 3 * HOUR_MS - 100_000;
    for id in 0..60u64 {
        let points = (0..SAMPLES)
            .map(|i| {
                Point::new(
                    i as f64 * 40.0,
                    id as f64 * 5.0,
                    Timestamp(span * i as i64 / (SAMPLES as i64 - 1)),
                )
            })
            .collect();
        tree.insert_trajectory(&Trajectory::new(id, id, points).unwrap());
    }
    assert!(tree.total_clusters() >= 3);
    tree
}

#[test]
fn a_warm_covered_read_looks_no_page_up_and_allocates_no_point() {
    let tree = tree();
    let w = TimeInterval::new(Timestamp(0), Timestamp(4 * HOUR_MS));
    let params = QutParams {
        s2t: tree.params().s2t.clone(),
        ..QutParams::default()
    };
    let exec = Executor::serial();
    // The first read fills every entry's member distances from the records.
    let cold = qut_partial_with(&tree, &OwnedSlice::ALL, &w, &params, &exec);
    assert_eq!(cold.stats.reclustered_subchunks, 0, "grid-aligned");
    assert!(tree.store().buffer().stats().misses > 0);

    tree.store().buffer().reset_stats();
    let before = local_bytes();
    let warm = qut_partial_with(&tree, &OwnedSlice::ALL, &w, &params, &exec);
    let allocated = local_bytes() - before;
    let pool = tree.store().buffer().stats();
    assert_eq!((pool.hits, pool.misses), (0, 0), "a warm covered read");
    assert_eq!(warm, cold);

    let members: usize = warm.clusters.iter().map(|c| c.members.len()).sum();
    let carried = warm.clusters.len() + members + warm.outliers.len();
    assert_eq!(carried, tree.total_population());
    assert_eq!(
        warm.stats.loaded_sub_trajectories,
        members + warm.outliers.len()
    );
    // The answer itself, with room for the lists' doubling growth.
    let answer = (members + warm.outliers.len())
        * (std::mem::size_of::<SubTrajectorySummary>() + std::mem::size_of::<f64>())
        + warm.clusters.len() * std::mem::size_of::<QutCluster>();
    assert!(
        allocated as usize <= 4 * answer + 4_096,
        "{allocated} B allocated for an answer of {answer} B"
    );
    // What the answer accounts for, had it been decoded.
    let stored_points = 60 * SAMPLES * std::mem::size_of::<Point>();
    assert!(
        (allocated as usize) < stored_points / 20,
        "{allocated} B allocated against {stored_points} B of stored points"
    );
}
