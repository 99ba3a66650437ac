//! Proof that a level-4 read copies nothing but the decoded points.
//!
//! A counting global allocator (the one of `crates/s2t/tests/voting_alloc.rs`,
//! counting bytes as well) wraps the system allocator. A warm
//! `PartitionStore::read` may allocate the record's `Vec<Point>` and the
//! `Arc` around it — not an 8 KiB page image per hit, per miss or per record
//! — and a buffer-pool hit allocates no page either: nothing at all while the
//! pool's LRU index fits one `BTreeMap` node, an amortised few dozen bytes of
//! index nodes beyond that (see `LRU_REKEY`). `PartitionStore::read_run`
//! allocates per record exactly what `read` does, and per page nothing but
//! that re-key. `PartitionStore::summary` — the header read level 3 is
//! rebuilt from — allocates nothing whatever the pool holds.
//!
//! The counters are **per-thread** (const-initialized thread-local `Cell`s,
//! which themselves never allocate), so allocations made concurrently by the
//! libtest harness threads cannot pollute the measurement.

use hermes_storage::{BufferPool, PartitionKind, PartitionStore, RecordLocator};
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
fn store_with_records(
    records: usize,
    buffer_frames: usize,
) -> (PartitionStore, Vec<(RecordLocator, usize)>) {
    let mut store = PartitionStore::new(64, buffer_frames);
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

/// Amortised cost of re-keying the touched frame in the pool's LRU index
/// once it spans several `BTreeMap` nodes: a node (a few hundred bytes) is
/// allocated once per several re-keys. Measured at ~40 B per access; an
/// index that fits one node (up to 11 frames) never allocates.
const LRU_REKEY: u64 = 88;

/// Bytes and allocations of `accesses` warm calls of `access` over `locs`.
fn measure(
    store: &PartitionStore,
    locs: &[(RecordLocator, usize)],
    accesses: usize,
    access: impl Fn(&PartitionStore, RecordLocator) -> usize,
) -> (u64, u64, u64) {
    // Warm up: every page has been looked up, the pool's maps are sized.
    for (loc, _) in locs {
        access(store, *loc);
    }
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

fn count_points(store: &PartitionStore, loc: RecordLocator) -> usize {
    store.point_count(loc).unwrap().unwrap()
}

#[test]
fn warm_reads_allocate_no_more_than_the_decoded_points() {
    // (records, frames): ~100 pages all resident — every access a hit, the
    // LRU index spans many nodes; ~100 pages through 4 frames — mostly
    // misses and evictions; ~8 pages, one index node — exact.
    for (records, frames, rekey) in [(600, 256, LRU_REKEY), (600, 4, 0), (40, 256, 0)] {
        let (store, locs) = store_with_records(records, frames);
        let (allocs, bytes, point_bytes) = measure(&store, &locs, 1_000, read);
        assert!(
            bytes <= point_bytes + 1_000 * (POINTS_OWNER + rekey),
            "{records} records, {frames} frames: 1000 reads allocated {bytes} B \
             for {point_bytes} B of points"
        );
        assert!(
            allocs <= 2 * 1_000 + if rekey > 0 { 500 } else { 0 },
            "{records} records, {frames} frames: 1000 reads made {allocs} allocations"
        );
    }
}

#[test]
fn a_run_read_allocates_its_points_and_nothing_per_page() {
    for (records, rekey) in [(40, 0), (600, LRU_REKEY)] {
        let (store, mut locs) = store_with_records(records, 256);
        // Partition by partition, in append order: runs of ~6 records a page.
        locs.sort_by_key(|(loc, _)| (loc.partition, loc.page, loc.slot));
        let (locators, points): (Vec<RecordLocator>, Vec<usize>) = locs.iter().copied().unzip();
        let page_runs = locators
            .chunk_by(|a, b| (a.partition, a.page) == (b.partition, b.page))
            .count() as u64;
        assert!(page_runs * 4 < records as u64);
        let point_bytes: u64 = points.iter().map(|&n| 24 * n as u64).sum();
        store.read_run(&locators, |_, _| {}); // warm
        store.buffer().reset_stats();

        let (allocs_before, bytes_before) = local_allocations();
        let mut seen = 0;
        store.read_run(&locators, |i, sub| {
            assert_eq!(sub.len(), points[i]);
            seen += 1;
        });
        let (allocs_after, bytes_after) = local_allocations();
        assert_eq!(seen, records);
        let stats = store.buffer().stats();
        assert_eq!((stats.hits, stats.misses), (page_runs, 0));

        // Per record what `read` allocates — the points and their owner —
        // and per page only the pool's amortised LRU re-key, if any.
        let (allocs, bytes) = (allocs_after - allocs_before, bytes_after - bytes_before);
        let exact = point_bytes + records as u64 * POINTS_OWNER;
        assert!(
            (exact..=exact + page_runs * rekey).contains(&bytes),
            "{records} records in {page_runs} page runs: {bytes} B for {point_bytes} B of points"
        );
        assert!(
            (2 * records as u64..=2 * records as u64 + if rekey > 0 { page_runs } else { 0 })
                .contains(&allocs),
            "{records} records in {page_runs} page runs: {allocs} allocations"
        );
    }
}

#[test]
fn counting_records_allocates_no_points() {
    let (store, locs) = store_with_records(40, 256);
    assert_eq!(measure(&store, &locs, 1_000, count_points).0, 0);
    let (store, locs) = store_with_records(600, 256);
    assert!(store.buffer().len() > 64);
    let (_, bytes, _) = measure(&store, &locs, 1_000, count_points);
    assert!(bytes <= 1_000 * LRU_REKEY, "{bytes} B for 1000 counts");
}

#[test]
fn a_summary_read_allocates_nothing() {
    for frames in [256, 4] {
        let (store, locs) = store_with_records(600, frames);
        let before = store.buffer().stats();
        let summarise = |store: &PartitionStore, loc| {
            let summary = store.summary(loc).unwrap().unwrap();
            // Records of `sub(id, n)` start at 0 and step one second.
            (summary.lifespan.end.millis() / 1000) as usize + 1
        };
        let (allocs, bytes, _) = measure(&store, &locs, 1_000, summarise);
        assert_eq!((allocs, bytes), (0, 0), "{frames} frames");
        assert_eq!(store.buffer().stats(), before, "not a pool access");
    }
}

#[test]
fn a_pool_hit_allocates_nothing() {
    let pool: BufferPool<std::sync::Arc<[u8; 8192]>> = BufferPool::new(8);
    for page in 0..8 {
        pool.put((0, page), std::sync::Arc::new([page as u8; 8192]));
    }
    let before = local_allocations();
    for i in 0..1_000u64 {
        let page = (i * 5) % 8;
        let frame = pool.get_or_load((0, page), || unreachable!("resident"));
        assert_eq!(frame[0], page as u8);
    }
    assert_eq!(local_allocations(), before);
    assert_eq!(pool.stats().hits, 1_000);
}
