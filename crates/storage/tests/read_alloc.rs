//! Proof that a level-4 read copies nothing but the decoded points.
//!
//! A counting global allocator (the one of `crates/s2t/tests/voting_alloc.rs`,
//! counting bytes as well) wraps the system allocator. `PartitionStore::read`
//! allocates exactly the record's `Vec<Point>` and the `Arc` around it — not
//! an 8 KiB page image, and nothing per lookup. `PartitionStore::read_run`
//! allocates per record exactly what `read` does and per page nothing.
//! `PartitionStore::summary` — the header read level 3 is rebuilt from —
//! allocates nothing.
//!
//! The counters are **per-thread** (const-initialized thread-local `Cell`s,
//! which themselves never allocate), so allocations made concurrently by the
//! libtest harness threads cannot pollute the measurement.

use hermes_storage::{PartitionKind, PartitionStore, RecordLocator};
use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// (allocations, bytes) made by this thread so far.
fn local_allocations() -> (u64, u64) {
    (ALLOCATIONS.with(|c| c.get()), BYTES.with(|c| c.get()))
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

fn sub(id: u64, n: usize) -> SubTrajectory {
    SubTrajectory::from_points(
        SubTrajectoryId::new(id, 0),
        id,
        id,
        (0..n)
            .map(|i| Point::new(i as f64, id as f64, Timestamp(i as i64 * 1000)))
            .collect(),
    )
}

/// `records` records of 20–79 points (~6 to a page) over two partitions.
fn store_with_records(records: usize) -> (PartitionStore, Vec<(RecordLocator, usize)>) {
    let mut store = PartitionStore::new();
    let parts = [
        store.create_partition(PartitionKind::Cluster),
        store.create_partition(PartitionKind::Outliers),
    ];
    let locs = (0..records)
        .map(|i| {
            let points = 20 + (i * 37) % 60;
            let loc = store.append(parts[i % 2], &sub(i as u64, points)).unwrap();
            (loc, points)
        })
        .collect();
    (store, locs)
}

/// The `Arc<Vec<Point>>` that owns a decoded record's points: two counters
/// and a `Vec` header.
const POINTS_OWNER: u64 = 40;

/// Allocations, bytes and decoded point bytes of `accesses` calls of
/// `access` over `locs`.
fn measure(
    store: &PartitionStore,
    locs: &[(RecordLocator, usize)],
    accesses: usize,
    access: impl Fn(&PartitionStore, RecordLocator) -> usize,
) -> (u64, u64, u64) {
    let mut point_bytes = 0u64;
    let (allocs_before, bytes_before) = local_allocations();
    for i in 0..accesses {
        let (loc, points) = locs[(i * 7) % locs.len()];
        assert_eq!(access(store, loc), points);
        point_bytes += 24 * points as u64;
    }
    let (allocs_after, bytes_after) = local_allocations();
    (
        allocs_after - allocs_before,
        bytes_after - bytes_before,
        point_bytes,
    )
}

fn read(store: &PartitionStore, loc: RecordLocator) -> usize {
    store.read(loc).unwrap().unwrap().len()
}

#[test]
fn warm_reads_allocate_no_more_than_the_decoded_points() {
    // ~100 pages and ~8 pages: the same cost per read.
    for records in [600, 40] {
        let (store, locs) = store_with_records(records);
        let (allocs, bytes, point_bytes) = measure(&store, &locs, 1_000, read);
        assert_eq!(
            (allocs, bytes),
            (2 * 1_000, point_bytes + 1_000 * POINTS_OWNER),
            "{records} records: 1000 reads of {point_bytes} B of points"
        );
    }
}

#[test]
fn a_run_read_allocates_its_points_and_nothing_per_page() {
    for records in [40, 600] {
        let (store, mut locs) = store_with_records(records);
        // Partition by partition, in append order: runs of ~6 records a page.
        locs.sort_by_key(|(loc, _)| (loc.partition, loc.page, loc.slot));
        let (locators, points): (Vec<RecordLocator>, Vec<usize>) = locs.iter().copied().unzip();
        let page_runs = locators
            .chunk_by(|a, b| (a.partition, a.page) == (b.partition, b.page))
            .count() as u64;
        assert!(page_runs * 4 < records as u64);
        let point_bytes: u64 = points.iter().map(|&n| 24 * n as u64).sum();
        let lookups = store.page_lookups();

        let (allocs_before, bytes_before) = local_allocations();
        let mut seen = 0;
        store.read_run(&locators, |i, sub| {
            assert_eq!(sub.len(), points[i]);
            seen += 1;
        });
        let (allocs_after, bytes_after) = local_allocations();
        assert_eq!(seen, records);
        assert_eq!(store.page_lookups() - lookups, page_runs);

        // Per record what `read` allocates — the points and their owner —
        // and per page nothing.
        assert_eq!(
            (allocs_after - allocs_before, bytes_after - bytes_before),
            (
                2 * records as u64,
                point_bytes + records as u64 * POINTS_OWNER
            ),
            "{records} records in {page_runs} page runs, {point_bytes} B of points"
        );
    }
}

#[test]
fn a_summary_read_allocates_nothing() {
    let (store, locs) = store_with_records(600);
    let lookups = store.page_lookups();
    let summarise = |store: &PartitionStore, loc| {
        let summary = store.summary(loc).unwrap().unwrap();
        // Records of `sub(id, n)` start at 0 and step one second.
        (summary.lifespan.end.millis() / 1000) as usize + 1
    };
    let (allocs, bytes, _) = measure(&store, &locs, 1_000, summarise);
    assert_eq!((allocs, bytes), (0, 0));
    assert_eq!(store.page_lookups(), lookups, "not a page lookup");
}
