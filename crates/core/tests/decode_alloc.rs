//! Proof that no length field of a snapshot or WAL body sizes an allocation
//! before the bytes behind it are there.
//!
//! Every count a decoder pre-allocates for is read through
//! `ByteReader::count`, which refuses a count whose elements could not fit
//! in the bytes that remain. Here each such count is set to `u32::MAX` in an
//! otherwise well-formed body: the decode must fail as `Corrupt`, and no
//! single allocation it makes may be larger than a few pages. A counting
//! global allocator (the one of `crates/storage/tests/read_alloc.rs`, keeping
//! the largest request instead of a sum) watches the decoding thread.

use hermes_core::persist::decode_wal_record;
use hermes_core::{EngineError, HermesEngine};
use hermes_retratree::{decode_tree, decode_tree_v1, encode_params_into, ReTraTreeParams};
use hermes_storage::{
    write_snapshot_file, ByteReader, ByteWriter, PartitionStore, StorageError, PAGE_SIZE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

struct CountingAllocator;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    LARGEST.with(|c| c.set(c.get().max(bytes)));
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

/// The largest single allocation a refused decode may make: a page image
/// and change. A count honoured before its bytes are checked asks for
/// gigabytes.
const LARGEST_ALLOWED: usize = 4 * PAGE_SIZE;

/// Runs `decode`, asserting it fails as corrupt input without any one
/// allocation above [`LARGEST_ALLOWED`].
fn assert_refused<T>(site: &str, decode: impl FnOnce() -> Result<T, EngineError>) {
    LARGEST.with(|c| c.set(0));
    let outcome = decode();
    let largest = LARGEST.with(Cell::get);
    match outcome {
        Err(EngineError::Storage(StorageError::Corrupt { .. })) => {}
        Err(other) => panic!("{site}: {other}"),
        Ok(_) => panic!("{site}: decoded"),
    }
    assert!(
        largest <= LARGEST_ALLOWED,
        "{site}: one allocation of {largest} B"
    );
}

const HUGE: u32 = u32::MAX;

/// Opens an engine over a data directory holding `body` as its snapshot.
fn open_with_snapshot(tag: &str, body: &[u8]) -> Result<HermesEngine, EngineError> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hermes-decode-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_snapshot_file(&dir.join(hermes_core::persist::SNAPSHOT_FILE), body).unwrap();
    let opened = HermesEngine::open(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    opened
}

/// A snapshot body's head: version 2, epoch 0, the catalog's next id.
fn body_head(next_id: u64) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u16(2);
    w.u64(0);
    w.u64(next_id);
    w
}

#[test]
fn snapshot_body_counts_are_checked_before_they_allocate() {
    // The catalog rows.
    let mut w = body_head(0);
    w.u32(HUGE);
    let body = w.into_bytes();
    assert_refused("catalog rows", || open_with_snapshot("metas", &body));

    // The dataset bodies, after an empty catalog.
    let mut w = body_head(1);
    w.u32(0);
    w.u32(HUGE);
    let body = w.into_bytes();
    assert_refused("dataset bodies", || open_with_snapshot("datasets", &body));

    // One dataset's trajectories.
    let mut w = body_head(1);
    w.u32(1);
    w.u64(0);
    w.str("data");
    w.u64(0);
    w.u64(0);
    w.bool(false);
    w.u32(1);
    w.u64(0);
    w.u32(HUGE);
    let body = w.into_bytes();
    assert_refused("trajectories", || open_with_snapshot("trajectories", &body));
}

#[test]
fn a_wal_batch_count_is_checked_before_it_allocates() {
    let mut w = ByteWriter::new();
    w.u8(3); // an ingest batch
    w.str("data");
    w.u32(HUGE);
    let payload = w.into_bytes();
    assert_refused("WAL batch", || {
        decode_wal_record(&payload).map_err(EngineError::Storage)
    });
}

/// A tree encoding up to its store: valid parameters and zeroed counters.
fn tree_head() -> ByteWriter {
    let mut w = ByteWriter::new();
    encode_params_into(&mut w, &ReTraTreeParams::default());
    for _ in 0..6 {
        w.u64(0);
    }
    w
}

/// A tree with an empty store and one chunk at key 0, up to the first
/// sub-chunk's outlier list.
fn tree_to_first_subchunk() -> ByteWriter {
    let mut w = tree_head();
    w.u64(0); // store: next partition id
    w.u32(0); // store: no partitions
    w.u32(1); // one chunk
    w.i64(0);
    w.u64(0); // outlier partition
    w
}

#[test]
fn tree_counts_are_checked_before_they_allocate() {
    let decode =
        |bytes: &[u8]| decode_tree(&mut ByteReader::new(bytes)).map_err(EngineError::Storage);
    let decode_v1 =
        |bytes: &[u8]| decode_tree_v1(&mut ByteReader::new(bytes)).map_err(EngineError::Storage);

    // The store's partitions, then one partition's pages.
    let mut w = ByteWriter::new();
    w.u64(1);
    w.u32(HUGE);
    let bytes = w.into_bytes();
    assert_refused("partitions", || {
        PartitionStore::decode_from(&mut ByteReader::new(&bytes), 4, 64)
            .map_err(EngineError::Storage)
    });
    let mut w = tree_head();
    w.u64(1);
    w.u32(1);
    w.u64(0);
    w.u8(0);
    w.u32(HUGE);
    let bytes = w.into_bytes();
    assert_refused("pages", || decode(&bytes));

    // A sub-chunk's outliers, then its cluster entries.
    let mut w = tree_to_first_subchunk();
    w.u32(HUGE);
    let bytes = w.into_bytes();
    assert_refused("outliers", || decode(&bytes));
    let mut w = tree_to_first_subchunk();
    w.u32(0);
    w.u32(HUGE);
    let bytes = w.into_bytes();
    assert_refused("cluster entries", || decode(&bytes));

    // A version-1 sub-chunk's first leaf-index entry list.
    let mut w = tree_to_first_subchunk();
    w.u32(0);
    w.u32(0);
    w.u32(HUGE);
    let bytes = w.into_bytes();
    assert_refused("v1 entry list", || decode_v1(&bytes));
}
