//! Compact binary serialization of sub-trajectories and trajectories, plus
//! the [`ByteWriter`]/[`ByteReader`] primitives every byte format in the
//! workspace is built from: the durable ones (snapshot bodies, WAL record
//! payloads, the ReTraTree state encoding — see `docs/STORAGE.md`) in
//! little-endian, and the `hermes-server` wire protocol in big-endian. The
//! byte order is a type parameter, [`LittleEndian`] unless named.
//!
//! Records stored in partition pages are encoded with a small fixed layout
//! (no self-description) because the schema never varies:
//!
//! ```text
//! sub_trajectory_id.trajectory_id : u64
//! sub_trajectory_id.offset        : u32
//! trajectory_id                   : u64
//! object_id                       : u64
//! point count                     : u32
//! points                          : count × (f64 x, f64 y, i64 t)
//! ```
//!
//! The wire carries a cluster representative in the same layout, big-endian.

use crate::error::StorageError;
use crate::Result;
use hermes_trajectory::{
    Point, SubTrajectory, SubTrajectoryId, SubTrajectorySummary, TimeInterval, Timestamp,
    Trajectory,
};
use std::marker::PhantomData;

/// The byte order of a [`ByteWriter`]/[`ByteReader`]: [`LittleEndian`] for
/// every stored format, [`BigEndian`] for the wire protocol.
pub trait ByteOrder {
    /// Maps a value's little-endian bytes to this order, and back (the map
    /// is its own inverse).
    fn order<const N: usize>(little_endian: [u8; N]) -> [u8; N];
}

/// Least significant byte first: pages, snapshots and the WAL.
#[derive(Debug, Default)]
pub struct LittleEndian;

/// Most significant byte first: the wire protocol.
#[derive(Debug, Default)]
pub struct BigEndian;

impl ByteOrder for LittleEndian {
    fn order<const N: usize>(little_endian: [u8; N]) -> [u8; N] {
        little_endian
    }
}

impl ByteOrder for BigEndian {
    fn order<const N: usize>(mut little_endian: [u8; N]) -> [u8; N] {
        little_endian.reverse();
        little_endian
    }
}

/// An append-only encoder in byte order `O`: the writing half of the
/// byte-level codec shared by every byte format (snapshot bodies, WAL
/// records, the ReTraTree state encoding, wire payloads).
///
/// Variable-length payloads ([`ByteWriter::bytes`], [`ByteWriter::str`]) are
/// written with a `u32` length prefix; fixed-width integers and floats are
/// written raw. [`ByteReader`] mirrors every method.
#[derive(Debug, Default)]
pub struct ByteWriter<O = LittleEndian> {
    buf: Vec<u8>,
    order: PhantomData<O>,
}

impl ByteWriter {
    /// An empty little-endian writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty little-endian writer pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
            order: PhantomData,
        }
    }
}

impl<O: ByteOrder> ByteWriter<O> {
    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    fn put<const N: usize>(&mut self, little_endian: [u8; N]) {
        self.buf.extend_from_slice(&O::order(little_endian));
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.put(v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.put(v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.put(v.to_le_bytes());
    }

    /// Writes an `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.put(v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern — the round trip is
    /// bit-exact, which the restart-equivalence guarantee relies on.
    pub fn f64(&mut self, v: f64) {
        self.put(v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32` length prefix followed by the raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (fixed-layout payloads whose
    /// size the reader already knows, e.g. whole pages).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites the byte at offset `at`: a field reserved before the bytes
    /// that decide it were written. Panics past the bytes written.
    pub fn set_u8(&mut self, at: usize, v: u8) {
        self.buf[at] = v;
    }

    /// Overwrites the `u32` at offset `at`: a length reserved before the
    /// bytes it counts were written. Panics past the bytes written.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&O::order(v.to_le_bytes()));
    }
}

/// The fallible reading half of the byte-level codec, in byte order `O`:
/// every accessor checks the remaining length and returns
/// [`StorageError::Corrupt`] instead of panicking, so decoding a damaged
/// snapshot, WAL record or wire frame surfaces as an error the caller can
/// act on.
#[derive(Debug)]
pub struct ByteReader<'a, O = LittleEndian> {
    bytes: &'a [u8],
    order: PhantomData<O>,
}

impl<'a> ByteReader<'a> {
    /// A little-endian reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader::from(bytes)
    }
}

impl<'a, O> From<&'a [u8]> for ByteReader<'a, O> {
    /// A reader over `bytes` in byte order `O`.
    fn from(bytes: &'a [u8]) -> Self {
        ByteReader {
            bytes,
            order: PhantomData,
        }
    }
}

impl<'a, O: ByteOrder> ByteReader<'a, O> {
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.bytes.len() < n {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "truncated input: {what} needs {n} bytes but only {} remain",
                    self.bytes.len()
                ),
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// The next `N` bytes, as little-endian.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(O::order(
            self.take(N, what)?
                .try_into()
                .expect("take returned N bytes"),
        ))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>("u8")?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array("u16")?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array("i64")?))
    }

    /// Reads an IEEE-754 `f64` (bit-exact).
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array("f64")?))
    }

    /// Reads a `u32` element count, refusing one whose elements — each at
    /// least `min_encoded` bytes long — could not fit in the bytes that
    /// remain. A decoder that sizes an allocation by a count it read takes
    /// the count from here, so a corrupt one is an error, not a huge
    /// allocation.
    pub fn count(&mut self, min_encoded: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.fitting(n, min_encoded)
    }

    /// [`ByteReader::count`] for a `u16` count.
    pub fn count_u16(&mut self, min_encoded: usize) -> Result<usize> {
        let n = self.u16()? as usize;
        self.fitting(n, min_encoded)
    }

    fn fitting(&self, n: usize, min_encoded: usize) -> Result<usize> {
        if n.saturating_mul(min_encoded) > self.remaining() {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "{n} elements of at least {min_encoded} bytes each cannot fit in the {} bytes that remain",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads a `bool` byte, rejecting anything other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Corrupt {
                reason: format!("invalid bool byte {other}"),
            }),
        }
    }

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len, "length-prefixed bytes")
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| StorageError::Corrupt {
            reason: "length-prefixed string is not valid UTF-8".into(),
        })
    }

    /// Reads `n` raw bytes (no length prefix).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "raw bytes")
    }
}

/// Bytes of one encoded point: `x`, `y`, `t`.
const POINT_BYTES: usize = 24;

/// Bytes of a sub-trajectory record before its points.
const RECORD_HEADER: usize = 8 + 4 + 8 + 8 + 4;

/// The fewest bytes [`write_sub_trajectory`] writes (two points).
pub const SUB_TRAJECTORY_MIN_BYTES: usize = RECORD_HEADER + 2 * POINT_BYTES;

/// Writes a point count and the points.
fn write_points<O: ByteOrder>(w: &mut ByteWriter<O>, points: &[Point]) {
    w.u32(points.len() as u32);
    for p in points {
        w.f64(p.x);
        w.f64(p.y);
        w.i64(p.t.millis());
    }
}

/// Decodes the points of a payload of whole 24-byte points. Callers take
/// the payload from the reader before decoding, so a point count the bytes
/// cannot back is refused before anything is allocated.
fn points_of<O: ByteOrder>(payload: &[u8]) -> Vec<Point> {
    let field = |p: &[u8], at: usize| -> [u8; 8] {
        O::order(p[at..at + 8].try_into().expect("inside a 24-byte chunk"))
    };
    payload
        .chunks_exact(POINT_BYTES)
        .map(|p| {
            Point::new(
                f64::from_le_bytes(field(p, 0)),
                f64::from_le_bytes(field(p, 8)),
                Timestamp(i64::from_le_bytes(field(p, 16))),
            )
        })
        .collect()
}

/// Writes a sub-trajectory in the record layout above, unprefixed: a page
/// record, or (big-endian) a representative on the wire.
pub fn write_sub_trajectory<O: ByteOrder>(w: &mut ByteWriter<O>, sub: &SubTrajectory) {
    w.u64(sub.id.trajectory_id);
    w.u32(sub.id.offset);
    w.u64(sub.trajectory_id);
    w.u64(sub.object_id);
    write_points(w, sub.points());
}

/// Serializes a sub-trajectory into bytes suitable for a page record.
pub fn encode_sub_trajectory(sub: &SubTrajectory) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(RECORD_HEADER + sub.points().len() * POINT_BYTES);
    write_sub_trajectory(&mut w, sub);
    w.into_bytes()
}

/// The validated fixed part of a sub-trajectory record.
struct RecordHeader {
    id: SubTrajectoryId,
    trajectory_id: u64,
    object_id: u64,
    count: usize,
}

/// Reads a record's header and validates its point count and length — the
/// one definition of "well-formed record" — returning the header with
/// exactly `24 × count` bytes of point payload.
fn read_record<'a, O: ByteOrder>(r: &mut ByteReader<'a, O>) -> Result<(RecordHeader, &'a [u8])> {
    let id = SubTrajectoryId::new(r.u64()?, r.u32()?);
    let trajectory_id = r.u64()?;
    let object_id = r.u64()?;
    let count = r.u32()? as usize;
    if count < 2 {
        return Err(StorageError::Corrupt {
            reason: format!("sub-trajectory record claims only {count} points"),
        });
    }
    let header = RecordHeader {
        id,
        trajectory_id,
        object_id,
        count,
    };
    Ok((header, r.raw(count.saturating_mul(POINT_BYTES))?))
}

/// The summary of a record — its header and the times of its first and last
/// point — after the same validation [`decode_sub_trajectory`] applies, read
/// in place: no point is decoded and nothing is allocated. A record whose
/// last point precedes its first has no lifespan and is corrupt here.
pub(crate) fn sub_trajectory_summary(bytes: &[u8]) -> Result<SubTrajectorySummary> {
    let (header, payload) = read_record(&mut ByteReader::new(bytes))?;
    let time_of = |point: usize| {
        let at = point * POINT_BYTES + 16;
        let t: [u8; 8] = payload[at..at + 8].try_into().expect("inside the payload");
        Timestamp(i64::from_le_bytes(t))
    };
    let (start, end) = (time_of(0), time_of(header.count - 1));
    if start > end {
        return Err(StorageError::Corrupt {
            reason: format!(
                "sub-trajectory {} ends at {} before it starts at {}",
                header.id,
                end.millis(),
                start.millis()
            ),
        });
    }
    Ok(SubTrajectorySummary {
        id: header.id,
        trajectory_id: header.trajectory_id,
        object_id: header.object_id,
        lifespan: TimeInterval::new(start, end),
    })
}

/// Reads a sub-trajectory written by [`write_sub_trajectory`].
pub fn read_sub_trajectory<O: ByteOrder>(r: &mut ByteReader<'_, O>) -> Result<SubTrajectory> {
    let (header, payload) = read_record(r)?;
    Ok(SubTrajectory::from_points(
        header.id,
        header.trajectory_id,
        header.object_id,
        points_of::<O>(payload),
    ))
}

/// Decodes a sub-trajectory previously produced by [`encode_sub_trajectory`].
pub fn decode_sub_trajectory(bytes: &[u8]) -> Result<SubTrajectory> {
    read_sub_trajectory(&mut ByteReader::new(bytes))
}

/// Appends a sub-trajectory record (the page-record layout above) to a
/// [`ByteWriter`] as a `u32`-length-prefixed payload, so container formats
/// (snapshots, WAL records) can embed records without an extra allocation
/// per record.
pub fn encode_sub_trajectory_into(w: &mut ByteWriter, sub: &SubTrajectory) {
    w.u32((RECORD_HEADER + sub.points().len() * POINT_BYTES) as u32);
    write_sub_trajectory(w, sub);
}

/// Reads a sub-trajectory embedded by [`encode_sub_trajectory_into`].
pub fn decode_sub_trajectory_from(r: &mut ByteReader<'_>) -> Result<SubTrajectory> {
    decode_sub_trajectory(r.bytes()?)
}

/// Bytes of a trajectory before its points.
const TRAJECTORY_HEADER: usize = 8 + 8 + 4;

/// The fewest bytes [`encode_trajectory_into`] writes for a valid
/// trajectory (two points).
pub const TRAJECTORY_MIN_BYTES: usize = TRAJECTORY_HEADER + 2 * POINT_BYTES;

/// The bytes [`encode_trajectory_into`] writes for `t`.
pub fn encoded_trajectory_len(t: &Trajectory) -> usize {
    TRAJECTORY_HEADER + t.points().len() * POINT_BYTES
}

/// Appends a whole trajectory to a [`ByteWriter`] — a WAL or snapshot
/// entry, or (big-endian) one trajectory of a wire `Ingest`/`Trajectories`:
///
/// ```text
/// id          : u64
/// object_id   : u64
/// point count : u32
/// points      : count × (f64 x, f64 y, i64 t)
/// ```
pub fn encode_trajectory_into<O: ByteOrder>(w: &mut ByteWriter<O>, t: &Trajectory) {
    w.u64(t.id);
    w.u64(t.object_id);
    write_points(w, t.points());
}

/// Reads a trajectory written by [`encode_trajectory_into`], re-validating
/// the construction invariants (≥ 2 points, finite coordinates, strictly
/// increasing time) so corrupt input cannot build an invalid trajectory.
pub fn decode_trajectory_from<O: ByteOrder>(r: &mut ByteReader<'_, O>) -> Result<Trajectory> {
    let id = r.u64()?;
    let object_id = r.u64()?;
    let count = r.u32()? as usize;
    let points = points_of::<O>(r.raw(count.saturating_mul(POINT_BYTES))?);
    Trajectory::new(id, object_id, points).map_err(|e| StorageError::Corrupt {
        reason: format!("trajectory {id} fails validation: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(42, 7),
            42,
            9,
            vec![
                Point::new(1.5, -2.25, Timestamp(1_000)),
                Point::new(3.0, 4.0, Timestamp(2_000)),
                Point::new(5.5, 6.5, Timestamp(3_500)),
            ],
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let sub = sample();
        let bytes = encode_sub_trajectory(&sub);
        let back = decode_sub_trajectory(&bytes).unwrap();
        assert_eq!(back.id, sub.id);
        assert_eq!(back.trajectory_id, sub.trajectory_id);
        assert_eq!(back.object_id, sub.object_id);
        assert_eq!(back.points(), sub.points());
    }

    #[test]
    fn truncated_records_are_rejected() {
        let bytes = encode_sub_trajectory(&sample());
        assert!(matches!(
            decode_sub_trajectory(&bytes[..10]),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_sub_trajectory(&bytes[..bytes.len() - 4]),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_summary_is_read_where_a_decode_would_succeed() {
        let sub = sample();
        let bytes = encode_sub_trajectory(&sub);
        assert_eq!(
            sub_trajectory_summary(&bytes).unwrap(),
            SubTrajectorySummary::from(&sub)
        );
        for cut in [10, bytes.len() - 4] {
            assert!(matches!(
                sub_trajectory_summary(&bytes[..cut]),
                Err(StorageError::Corrupt { .. })
            ));
        }
        // A record that runs backwards in time decodes, but has no lifespan
        // to summarise (`TimeInterval::new` would panic on it).
        let mut backwards = bytes.clone();
        let last_t = bytes.len() - 8;
        backwards[last_t..].copy_from_slice(&999i64.to_le_bytes());
        assert!(decode_sub_trajectory(&backwards).is_ok());
        assert!(matches!(
            sub_trajectory_summary(&backwards),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn point_count_below_two_is_corrupt() {
        let sub = sample();
        let mut bytes = encode_sub_trajectory(&sub).to_vec();
        // Overwrite the count field (offset 8+4+8+8 = 28) with 1.
        bytes[28..32].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_sub_trajectory(&bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn encoded_size_is_predictable() {
        let sub = sample();
        let bytes = encode_sub_trajectory(&sub);
        assert_eq!(bytes.len(), 32 + 3 * 24);
    }

    #[test]
    fn byte_writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        w.bytes(b"payload");
        w.str("héllo");
        w.raw(&[1, 2, 3]);
        let buf = w.into_bytes();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.raw(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn byte_reader_rejects_truncation_and_bad_values() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf[..4]);
        assert!(matches!(r.u64(), Err(StorageError::Corrupt { .. })));

        // A length prefix pointing past the end is corrupt, not a panic.
        let mut w = ByteWriter::new();
        w.u32(1_000);
        w.raw(b"short");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.bytes(), Err(StorageError::Corrupt { .. })));

        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool(), Err(StorageError::Corrupt { .. })));

        // A count is refused when its elements cannot fit in what remains.
        let mut w = ByteWriter::new();
        w.u32(3);
        w.raw(&[0; 12]);
        let buf = w.into_bytes();
        assert_eq!(ByteReader::new(&buf).count(4).unwrap(), 3);
        assert!(matches!(
            ByteReader::new(&buf).count(5),
            Err(StorageError::Corrupt { .. })
        ));
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        assert!(ByteReader::new(&buf).count(1).is_err());
        let mut r = ByteReader::new(&[4, 0, 0, 0, 0xFF, 0xFE, 0xFD, 0xFC]);
        assert!(matches!(r.str(), Err(StorageError::Corrupt { .. })));
        // A u16 count follows the same rule.
        assert_eq!(ByteReader::new(&[2, 0, 7, 7]).count_u16(1).unwrap(), 2);
        assert!(ByteReader::new(&[3, 0, 7, 7]).count_u16(1).is_err());
    }

    #[test]
    fn big_endian_puts_the_most_significant_byte_first() {
        let mut w = ByteWriter::<BigEndian>::default();
        w.u16(0x0102);
        w.u32(0);
        w.f64(-0.125);
        w.set_u32(2, 0x0304_0506);
        w.set_u8(0, 0x7F);
        let buf = w.into_bytes();
        assert_eq!(buf[..6], [0x7F, 0x02, 3, 4, 5, 6]);
        assert_eq!(buf[6..], (-0.125f64).to_bits().to_be_bytes());
        let mut r = ByteReader::<BigEndian>::from(&buf[..]);
        assert_eq!(r.u16().unwrap(), 0x7F02);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.is_empty());
    }

    #[test]
    fn one_sub_trajectory_layout_in_both_byte_orders() {
        let sub = sample();
        let mut le = ByteWriter::new();
        write_sub_trajectory(&mut le, &sub);
        assert_eq!(le.as_bytes(), encode_sub_trajectory(&sub));
        let mut be = ByteWriter::<BigEndian>::default();
        write_sub_trajectory(&mut be, &sub);
        assert_eq!(be.len(), le.len());
        assert_eq!(be.as_bytes()[..8], sub.id.trajectory_id.to_be_bytes());
        let mut r = ByteReader::<BigEndian>::from(be.as_bytes());
        assert_eq!(read_sub_trajectory(&mut r).unwrap(), sub);
        assert!(r.is_empty());
    }

    #[test]
    fn trajectory_round_trip_is_bit_exact() {
        let t = Trajectory::new(
            9,
            4,
            vec![
                Point::new(1.0 / 3.0, -2.25, Timestamp(-5)),
                Point::new(f64::MIN_POSITIVE, 4.0e18, Timestamp(2_000)),
                Point::new(5.5, 6.5, Timestamp(3_500)),
            ],
        )
        .unwrap();
        let mut w = ByteWriter::new();
        encode_trajectory_into(&mut w, &t);
        assert_eq!(w.len(), encoded_trajectory_len(&t));
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let back = decode_trajectory_from(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.id, t.id);
        assert_eq!(back.object_id, t.object_id);
        for (a, b) in back.points().iter().zip(t.points()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.t, b.t);
        }
    }

    #[test]
    fn corrupt_trajectories_are_rejected() {
        let t = Trajectory::new(
            1,
            1,
            vec![
                Point::new(0.0, 0.0, Timestamp(0)),
                Point::new(1.0, 1.0, Timestamp(1_000)),
            ],
        )
        .unwrap();
        let mut w = ByteWriter::new();
        encode_trajectory_into(&mut w, &t);
        let buf = w.into_bytes();
        // Truncated payload.
        let mut r = ByteReader::new(&buf[..buf.len() - 8]);
        assert!(matches!(
            decode_trajectory_from(&mut r),
            Err(StorageError::Corrupt { .. })
        ));
        // Non-monotonic time fails Trajectory::new's re-validation.
        let mut bad = buf.clone();
        let t_off = 8 + 8 + 4 + 16; // first point's timestamp
        bad[t_off..t_off + 8].copy_from_slice(&5_000i64.to_le_bytes());
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            decode_trajectory_from(&mut r),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn embedded_sub_trajectory_round_trip() {
        let sub = sample();
        let mut w = ByteWriter::new();
        encode_sub_trajectory_into(&mut w, &sub);
        encode_sub_trajectory_into(&mut w, &sub);
        let mut prefixed = ByteWriter::new();
        prefixed.bytes(&encode_sub_trajectory(&sub));
        assert_eq!(w.as_bytes()[..w.len() / 2], *prefixed.as_bytes());
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let a = decode_sub_trajectory_from(&mut r).unwrap();
        let b = decode_sub_trajectory_from(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(a, sub);
        assert_eq!(b, sub);
    }
}
