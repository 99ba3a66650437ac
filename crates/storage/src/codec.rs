//! Compact binary serialization of sub-trajectories and trajectories, plus
//! the little-endian [`ByteWriter`]/[`ByteReader`] primitives every durable
//! format in the workspace is built from (snapshot bodies, WAL record
//! payloads, the ReTraTree state encoding — see `docs/STORAGE.md`).
//!
//! Records stored in partition pages are encoded with a small fixed layout
//! (little-endian, no self-description) because the schema never varies:
//!
//! ```text
//! sub_trajectory_id.trajectory_id : u64
//! sub_trajectory_id.offset        : u32
//! trajectory_id                   : u64
//! object_id                       : u64
//! point count                     : u32
//! points                          : count × (f64 x, f64 y, i64 t)
//! ```

use crate::error::StorageError;
use crate::Result;
use hermes_trajectory::{
    Point, SubTrajectory, SubTrajectoryId, SubTrajectorySummary, TimeInterval, Timestamp,
    Trajectory,
};

/// An append-only little-endian encoder: the writing half of the byte-level
/// codec shared by every durable format (snapshot bodies, WAL records, the
/// ReTraTree state encoding).
///
/// Variable-length payloads ([`ByteWriter::bytes`], [`ByteWriter::str`]) are
/// written with a `u32` length prefix; fixed-width integers and floats are
/// written raw, little-endian. [`ByteReader`] mirrors every method.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

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

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian — the
    /// round trip is bit-exact, which the restart-equivalence guarantee
    /// relies on.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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
}

/// The fallible reading half of the byte-level codec: every accessor checks
/// the remaining length and returns [`StorageError::Corrupt`] instead of
/// panicking, so decoding a damaged snapshot or WAL record surfaces as an
/// error the recovery path can act on.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes }
    }

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

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>("u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array("u16")?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array("i64")?))
    }

    /// Reads a little-endian IEEE-754 `f64` (bit-exact).
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

/// Serializes a sub-trajectory into bytes suitable for a page record.
pub fn encode_sub_trajectory(sub: &SubTrajectory) -> Vec<u8> {
    let pts = sub.points();
    let mut buf = Vec::with_capacity(8 + 4 + 8 + 8 + 4 + pts.len() * 24);
    buf.extend_from_slice(&sub.id.trajectory_id.to_le_bytes());
    buf.extend_from_slice(&sub.id.offset.to_le_bytes());
    buf.extend_from_slice(&sub.trajectory_id.to_le_bytes());
    buf.extend_from_slice(&sub.object_id.to_le_bytes());
    buf.extend_from_slice(&(pts.len() as u32).to_le_bytes());
    for p in pts {
        buf.extend_from_slice(&p.x.to_le_bytes());
        buf.extend_from_slice(&p.y.to_le_bytes());
        buf.extend_from_slice(&p.t.millis().to_le_bytes());
    }
    buf
}

/// The validated fixed part of a sub-trajectory record.
struct RecordHeader {
    id: SubTrajectoryId,
    trajectory_id: u64,
    object_id: u64,
    count: usize,
}

/// Validates a record's header, point count and length — the one definition
/// of "well-formed record" — and returns the header with exactly
/// `24 × count` bytes of point payload.
fn split_sub_trajectory(bytes: &[u8]) -> Result<(RecordHeader, &[u8])> {
    const HEADER: usize = 8 + 4 + 8 + 8 + 4;
    if bytes.len() < HEADER {
        return Err(StorageError::Corrupt {
            reason: format!("record of {} bytes is shorter than the header", bytes.len()),
        });
    }
    let mut r = ByteReader::new(bytes);
    let id = SubTrajectoryId::new(r.u64()?, r.u32()?);
    let trajectory_id = r.u64()?;
    let object_id = r.u64()?;
    let count = r.u32()? as usize;
    if count < 2 {
        return Err(StorageError::Corrupt {
            reason: format!("sub-trajectory record claims only {count} points"),
        });
    }
    if r.remaining() < count.saturating_mul(24) {
        return Err(StorageError::Corrupt {
            reason: format!(
                "record truncated: {} points declared but only {} bytes of payload",
                count,
                r.remaining()
            ),
        });
    }
    let header = RecordHeader {
        id,
        trajectory_id,
        object_id,
        count,
    };
    Ok((header, r.raw(count * 24)?))
}

/// Number of points of a record, after the same validation
/// [`decode_sub_trajectory`] applies — for callers that only need to know a
/// record is readable, without allocating its points.
pub(crate) fn sub_trajectory_point_count(bytes: &[u8]) -> Result<usize> {
    split_sub_trajectory(bytes).map(|(header, _)| header.count)
}

/// The summary of a record — its header and the times of its first and last
/// point — after the same validation [`decode_sub_trajectory`] applies, read
/// in place: no point is decoded and nothing is allocated. A record whose
/// last point precedes its first has no lifespan and is corrupt here.
pub(crate) fn sub_trajectory_summary(bytes: &[u8]) -> Result<SubTrajectorySummary> {
    let (header, payload) = split_sub_trajectory(bytes)?;
    let time_of = |point: usize| {
        let at = point * 24 + 16;
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

/// Decodes a sub-trajectory previously produced by [`encode_sub_trajectory`].
pub fn decode_sub_trajectory(bytes: &[u8]) -> Result<SubTrajectory> {
    let (header, payload) = split_sub_trajectory(bytes)?;
    let le8 = |p: &[u8], at: usize| -> [u8; 8] {
        p[at..at + 8].try_into().expect("inside a 24-byte chunk")
    };
    let points = payload
        .chunks_exact(24)
        .map(|p| {
            Point::new(
                f64::from_le_bytes(le8(p, 0)),
                f64::from_le_bytes(le8(p, 8)),
                Timestamp(i64::from_le_bytes(le8(p, 16))),
            )
        })
        .collect();
    Ok(SubTrajectory::from_points(
        header.id,
        header.trajectory_id,
        header.object_id,
        points,
    ))
}

/// Appends a sub-trajectory record (the page-record layout above) to a
/// [`ByteWriter`] as a `u32`-length-prefixed payload, so container formats
/// (snapshots, WAL records) can embed records without an extra allocation
/// per record.
pub fn encode_sub_trajectory_into(w: &mut ByteWriter, sub: &SubTrajectory) {
    w.bytes(&encode_sub_trajectory(sub));
}

/// Reads a sub-trajectory embedded by [`encode_sub_trajectory_into`].
pub fn decode_sub_trajectory_from(r: &mut ByteReader<'_>) -> Result<SubTrajectory> {
    decode_sub_trajectory(r.bytes()?)
}

/// The fewest bytes [`encode_trajectory_into`] writes for a valid
/// trajectory (two points).
pub const TRAJECTORY_MIN_BYTES: usize = 8 + 8 + 4 + 2 * 24;

/// Appends a whole trajectory to a [`ByteWriter`]:
///
/// ```text
/// id          : u64
/// object_id   : u64
/// point count : u32
/// points      : count × (f64 x, f64 y, i64 t)
/// ```
pub fn encode_trajectory_into(w: &mut ByteWriter, t: &Trajectory) {
    let pts = t.points();
    w.u64(t.id);
    w.u64(t.object_id);
    w.u32(pts.len() as u32);
    for p in pts {
        w.f64(p.x);
        w.f64(p.y);
        w.i64(p.t.millis());
    }
}

/// Reads a trajectory written by [`encode_trajectory_into`], re-validating
/// the construction invariants (≥ 2 points, finite coordinates, strictly
/// increasing time) so corrupt input cannot build an invalid trajectory.
pub fn decode_trajectory_from(r: &mut ByteReader<'_>) -> Result<Trajectory> {
    let id = r.u64()?;
    let object_id = r.u64()?;
    let count = r.u32()? as usize;
    if r.remaining() < count.saturating_mul(24) {
        return Err(StorageError::Corrupt {
            reason: format!(
                "trajectory {id} truncated: {count} points declared but only {} bytes remain",
                r.remaining()
            ),
        });
    }
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let x = r.f64()?;
        let y = r.f64()?;
        let t = r.i64()?;
        points.push(Point::new(x, y, Timestamp(t)));
    }
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
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let a = decode_sub_trajectory_from(&mut r).unwrap();
        let b = decode_sub_trajectory_from(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(a, sub);
        assert_eq!(b, sub);
    }
}
