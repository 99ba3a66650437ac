//! Proof that no count on the wire sizes an allocation before the bytes
//! behind it are there, and that decoding a frame copies it at most once.
//!
//! Every count a decoder pre-allocates for is read through
//! `ByteReader::count`, which refuses a count whose elements could not fit
//! in the bytes that remain. Here each such count is set to its maximum in
//! an otherwise valid frame: the decode must fail as `InvalidData`, and no
//! single allocation it makes may be larger than [`LARGEST_ALLOWED`]. A
//! counting global allocator (the one of `crates/core/tests/decode_alloc.rs`,
//! also counting requests) watches the decoding thread.

use hermes_retratree::{QutCluster, QutPartial};
use hermes_server::protocol::{
    decode_request, read_request, read_response, write_request, write_response, Request, Response,
};
use hermes_sql::{Frame, Value, ValueType};
use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId, Timestamp, Trajectory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

struct CountingAllocator;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    LARGEST.with(|c| c.set(c.get().max(bytes)));
    REQUESTS.with(|c| c.set(c.get() + 1));
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

/// The largest single allocation a refused decode may make. A count
/// honoured before its bytes are checked asks for megabytes.
const LARGEST_ALLOWED: usize = 64 * 1024;

/// Runs `decode`, returning its outcome with the number of allocations it
/// made and the largest one.
fn measure<T>(decode: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGEST.with(|c| c.set(0));
    REQUESTS.with(|c| c.set(0));
    let outcome = decode();
    (outcome, REQUESTS.with(Cell::get), LARGEST.with(Cell::get))
}

/// Decodes `frame`, asserting it is refused as `InvalidData` without any
/// one allocation above [`LARGEST_ALLOWED`].
fn assert_refused<T: std::fmt::Debug>(
    site: &str,
    frame: &[u8],
    decode: fn(&[u8]) -> io::Result<T>,
) {
    let (outcome, _, largest) = measure(|| decode(frame));
    match outcome {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{site}: {e}"),
        Ok(decoded) => panic!("{site}: decoded {decoded:?}"),
    }
    assert!(
        largest <= LARGEST_ALLOWED,
        "{site}: one allocation of {largest} B"
    );
}

fn request_of(frame: &[u8]) -> io::Result<Request> {
    read_request(&mut &frame[..]).map(|(request, _, _)| request)
}

fn response_of(frame: &[u8]) -> io::Result<Response> {
    read_response(&mut &frame[..]).map(|(response, _)| response)
}

fn request_frame(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_request(&mut bytes, request).unwrap();
    bytes
}

fn response_frame(response: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_response(&mut bytes, response).unwrap();
    bytes
}

/// `frame` with the big-endian count of `old` at byte `at` replaced by
/// `new` (the old value is checked, so a wrong offset fails loudly).
fn with_count<const N: usize>(frame: &[u8], at: usize, old: [u8; N], new: [u8; N]) -> Vec<u8> {
    assert_eq!(frame[at..at + N], old, "count at byte {at}");
    let mut patched = frame.to_vec();
    patched[at..at + N].copy_from_slice(&new);
    patched
}

fn u32_count(frame: &[u8], at: usize, old: u32) -> Vec<u8> {
    with_count(frame, at, old.to_be_bytes(), u32::MAX.to_be_bytes())
}

fn trajectory() -> Trajectory {
    Trajectory::new(
        1,
        2,
        (0..3)
            .map(|i| Point::new(i as f64, i as f64, Timestamp(i * 1000)))
            .collect(),
    )
    .unwrap()
}

fn sub(id: u64) -> SubTrajectory {
    SubTrajectory::from_points(
        SubTrajectoryId::new(id, 0),
        id,
        id,
        (0..2)
            .map(|i| Point::new(i as f64, 0.0, Timestamp(i * 500)))
            .collect(),
    )
}

/// Frame layout prefixes (docs/PROTOCOL.md): the length prefix and the kind.
const HEADER: usize = 4 + 1;
/// A trajectory's `id` and `object_id` before its point count.
const TRAJECTORY_IDS: usize = 8 + 8;

#[test]
fn request_counts_are_checked_before_they_allocate() {
    // Ingest: header, trace flag, dataset "d", trajectory count, then the
    // first trajectory.
    let ingest = request_frame(&Request::Ingest {
        dataset: "d".into(),
        trajectories: vec![trajectory()],
    });
    let trajectories_at = HEADER + 1 + 4 + 1;
    assert_refused(
        "Ingest trajectory count",
        &u32_count(&ingest, trajectories_at, 1),
        request_of,
    );
    assert_refused(
        "Ingest point count",
        &u32_count(&ingest, trajectories_at + 4 + TRAJECTORY_IDS, 3),
        request_of,
    );

    // ExecutePrepared: header, trace flag, handle, then a u16 count.
    let execute = request_frame(&Request::ExecutePrepared {
        handle: 1,
        params: vec![Value::Int(1)],
    });
    assert_refused(
        "ExecutePrepared params",
        &with_count(
            &execute,
            HEADER + 1 + 4,
            1u16.to_be_bytes(),
            u16::MAX.to_be_bytes(),
        ),
        request_of,
    );
}

#[test]
fn response_counts_are_checked_before_they_allocate() {
    // Trajectories: header, count, then the first trajectory.
    let trajectories = response_frame(&Response::Trajectories(vec![trajectory()]));
    assert_refused(
        "Trajectories count",
        &u32_count(&trajectories, HEADER, 1),
        response_of,
    );
    assert_refused(
        "Trajectories point count",
        &u32_count(&trajectories, HEADER + 4 + TRAJECTORY_IDS, 3),
        response_of,
    );

    // Rows: header, has-stats flag, column count u16, one column "n" (name
    // length u32, name, type code), then the row count.
    let mut frame = Frame::with_columns(&[("n", ValueType::Int)]);
    frame.push_row(vec![Value::Int(7)]).unwrap();
    let rows = response_frame(&Response::Rows { frame, stats: None });
    assert_refused(
        "frame columns",
        &with_count(
            &rows,
            HEADER + 1,
            1u16.to_be_bytes(),
            u16::MAX.to_be_bytes(),
        ),
        response_of,
    );
    assert_refused(
        "frame rows",
        &u32_count(&rows, HEADER + 1 + 2 + 4 + 1 + 1, 1),
        response_of,
    );

    // QutPartial: header, cluster count, then one cluster — id u64, the
    // representative (ids and point count, 32 bytes, then two 24-byte
    // points), vote f64, member count — its one member, and the outliers.
    let partial = QutPartial {
        clusters: vec![QutCluster {
            id: 0,
            representative: sub(1),
            representative_vote: 1.0,
            members: vec![(&sub(2)).into()],
            member_distances: vec![0.5],
        }],
        outliers: vec![(&sub(3)).into()],
        ..QutPartial::default()
    };
    let partial = response_frame(&Response::QutPartial(partial));
    let cluster = HEADER + 4;
    let points = cluster + 8 + 28;
    let members = points + 4 + 2 * 24 + 8;
    let outliers = members + 4 + 44 + 8;
    for (site, at, old) in [
        ("QutPartial clusters", HEADER, 1),
        ("QutPartial representative points", points, 2),
        ("QutPartial members", members, 1),
        ("QutPartial outliers", outliers, 1),
    ] {
        assert_refused(site, &u32_count(&partial, at, old), response_of);
    }
}

/// A frame is copied off the stream once, into its body buffer, and the
/// serving loop decodes the frame it already holds without copying it.
#[test]
fn a_frame_is_decoded_where_it_lies() {
    let frame = request_frame(&Request::Query {
        sql: "SHOW DATASETS;".into(),
    });
    // The body buffer and the statement's `String`.
    let (decoded, allocations, _) = measure(|| request_of(&frame));
    assert!(decoded.is_ok());
    assert_eq!(allocations, 2, "read_request");
    // The `String` alone.
    let (decoded, allocations, _) = measure(|| decode_request(&frame[4..]));
    assert!(decoded.is_ok());
    assert_eq!(allocations, 1, "decode_request");
}
