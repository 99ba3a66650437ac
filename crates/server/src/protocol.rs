//! The Hermes wire protocol: length-prefixed binary messages carrying the
//! typed [`Value`]/[`Frame`] results across a TCP connection.
//!
//! Every message is one *wire frame*:
//!
//! ```text
//! +-----------------+-----------+------------------+
//! | length: u32 BE  | kind: u8  | payload bytes    |
//! +-----------------+-----------+------------------+
//! ```
//!
//! `length` counts the kind byte plus the payload, so an empty message has
//! length 1. Frames are written with `hermes-storage`'s codec
//! ([`ByteWriter`]/[`ByteReader`]) in its [`BigEndian`] instance: integers
//! big-endian, floats as their IEEE-754 bit pattern, strings as `u32` byte
//! length + UTF-8 bytes, flags as one byte that must be 0 or 1, and
//! trajectories and cluster representatives in the very layouts the storage
//! layer writes. The full message catalogue and payload layouts are
//! documented in `docs/PROTOCOL.md`.
//!
//! The encoding is deliberately symmetric: [`Request`]s flow client → server,
//! [`Response`]s flow back, and both sides use the same
//! [`read_request`]/[`write_response`] (and [`read_response`]/
//! [`write_request`]) pairs, which also report the byte counts feeding the
//! server's `bytes_in`/`bytes_out` metrics. A frame is encoded into one
//! buffer and read off a stream into one; [`decode_request`] decodes a
//! request the caller already holds (the serving loop) without copying it.

use hermes_obs::TraceContext;
use hermes_retratree::{QutCluster, QutPartial, QutStats};
use hermes_s2t::{KernelCounters, S2TPhaseTimings};
use hermes_sql::{ColumnDef, CommandStatus, CommandTag, Frame, QueryOutcome, Value, ValueType};
use hermes_storage::codec::{
    decode_trajectory_from, encode_trajectory_into, read_sub_trajectory, write_sub_trajectory,
    SUB_TRAJECTORY_MIN_BYTES, TRAJECTORY_MIN_BYTES,
};
use hermes_storage::{BigEndian, ByteReader, ByteWriter, StorageError};
use hermes_trajectory::{
    SubTrajectory, SubTrajectoryId, SubTrajectorySummary, TimeInterval, Timestamp, Trajectory,
};
use std::fmt;
use std::io::{self, Read, Write};

type WireWriter = ByteWriter<BigEndian>;
type WireReader<'a> = ByteReader<'a, BigEndian>;

/// Upper bound on one wire frame (kind byte + payload). Large enough for a
/// bulk trajectory ingest, small enough to stop a corrupt length prefix from
/// asking the peer to allocate gigabytes.
pub const MAX_MESSAGE_BYTES: u32 = 64 * 1024 * 1024;

/// Version of the wire protocol spoken by this build. Bumped whenever the
/// message catalogue or a payload layout changes incompatibly; peers with a
/// different version are rejected during the handshake.
///
/// v3 prefixed every request payload with an optional trace-context field
/// (`u8` flag, then `trace_id`/`parent_span_id` as `u64` when set) so the
/// coordinator can propagate distributed per-query traces to shards.
///
/// v4 appended the voting-kernel counters (`kernel_evaluated` /
/// `kernel_pruned`, two `u64`s after the phase timings) to the shard-partial
/// stats block, so the coordinator's merged `QutStats` carries the pruning
/// ladder's work counters across the wire.
///
/// v5 prefixed the error-response payload with a one-byte [`ErrorCode`]
/// (query / protocol / capacity / backpressure / deadline) so clients can
/// distinguish admission-control rejections from statement failures.
///
/// v6 made the members and outliers of a shard partial 44-byte summaries
/// (identity + lifespan) instead of whole sub-trajectories: a window answer
/// reads nothing else of them. Representatives still travel with their
/// points — the coordinator's boundary merge takes distances between them.
pub const PROTOCOL_VERSION: u16 = 6;

/// Magic bytes opening the connection preamble.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"HRMS";

/// Writes this side's 7-byte connection preamble:
/// `"HRMS"` + version `u16` BE + flags `u8` (reserved, zero).
///
/// The server speaks first on accept; the client answers with its own
/// preamble after verifying the server's. Only after both preambles are
/// exchanged do length-prefixed messages flow.
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    let mut preamble = WireWriter::default();
    preamble.raw(&HANDSHAKE_MAGIC);
    preamble.u16(PROTOCOL_VERSION);
    preamble.u8(0);
    w.write_all(preamble.as_bytes())?;
    w.flush()
}

/// Reads and verifies the peer's preamble, returning the peer's version.
/// A wrong magic (not a Hermes endpoint) or a version mismatch comes back as
/// `ErrorKind::InvalidData` so callers can surface a clean, typed error
/// instead of a decode failure further in.
pub fn read_handshake(r: &mut impl Read) -> io::Result<u16> {
    let mut buf = [0u8; 7];
    r.read_exact(&mut buf)?;
    if buf[..4] != HANDSHAKE_MAGIC {
        return Err(
            DecodeError("bad handshake magic: peer is not a Hermes endpoint".into()).into(),
        );
    }
    let version = WireReader::from(&buf[4..6])
        .u16()
        .map_err(DecodeError::from)?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        ))
        .into());
    }
    Ok(version)
}

/// A malformed message (bad tag, truncated payload, non-UTF-8 string, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

impl From<StorageError> for DecodeError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Corrupt { reason } => DecodeError(reason),
            other => DecodeError(other.to_string()),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse and execute one statement.
    Query {
        /// Statement text in the Hermes SQL dialect.
        sql: String,
    },
    /// Parse a statement (placeholders allowed) into a server-side prepared
    /// statement; answered by [`Response::Prepared`].
    Prepare {
        /// Statement text, may contain `$n` placeholders.
        sql: String,
    },
    /// Execute a prepared statement with parameters bound to its
    /// placeholders. Handles are per connection.
    ExecutePrepared {
        /// Handle from [`Response::Prepared`].
        handle: u32,
        /// Values for `$1..$n`.
        params: Vec<Value>,
    },
    /// Bulk-load trajectories into a dataset (created on first ingest).
    Ingest {
        /// Target dataset.
        dataset: String,
        /// The trajectories to append.
        trajectories: Vec<Trajectory>,
    },
    /// Shard-scope: answer the owned share of `QUT(W)` without the final
    /// cross-boundary merge (coordinator → shard; see `docs/SHARDING.md`).
    QutPartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the half-open ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms (`i64::MAX` = unbounded).
        owned_end_ms: i64,
        /// Window start `Wi`, ms.
        wi: i64,
        /// Window end `We`, ms.
        we: i64,
        /// `(τ, δ, t)` query overrides; `None` keeps the values the shard's
        /// tree was indexed with (the `HISTOGRAM` path).
        overrides: Option<(f64, f64, i64)>,
    },
    /// Shard-scope: count stored pieces intersecting `[wi, we]` in owned
    /// sub-chunks only.
    RangePartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
        /// Window start `Wi`, ms.
        wi: i64,
        /// Window end `We`, ms.
        we: i64,
    },
    /// Shard-scope: return the raw trajectories whose first sample falls in
    /// the ownership slice (the coordinator reassembles the full dataset for
    /// non-decomposable whole-dataset runs such as S2T).
    GatherTrajectories {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
    },
    /// Shard-scope: the owned share of `INFO(dataset)`.
    InfoPartial {
        /// Target dataset.
        dataset: String,
        /// Inclusive start of the ownership slice, ms.
        owned_start_ms: i64,
        /// Exclusive end of the ownership slice, ms.
        owned_end_ms: i64,
    },
}

/// A shard's share of `INFO(dataset)`, counted over the trajectories whose
/// first sample falls inside the shard's ownership slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialInfo {
    /// Owned trajectories.
    pub trajectories: u64,
    /// Points of the owned trajectories.
    pub points: u64,
    /// Temporal extent of the owned trajectories, as `(start_ms, end_ms)`.
    pub lifespan: Option<(i64, i64)>,
    /// Whether the shard has a ReTraTree for the dataset.
    pub indexed: bool,
    /// Level-3 cluster entries in owned sub-chunks.
    pub cluster_entries: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A query produced rows (and possibly a statistics frame).
    Rows {
        /// The result rows.
        frame: Frame,
        /// The `\timing` statistics frame, when the statement measured any.
        stats: Option<Frame>,
    },
    /// A command completed without rows.
    Command(CommandStatus),
    /// A statement was prepared under this connection-scoped handle.
    Prepared {
        /// Handle to pass to [`Request::ExecutePrepared`].
        handle: u32,
    },
    /// The request failed; the connection stays usable (except after a
    /// [`ErrorCode::Capacity`] rejection, which the server closes behind).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::QutPartial`]: the shard's un-merged clusters and
    /// outliers in temporal order, plus its counters.
    QutPartial(QutPartial),
    /// Answer to [`Request::RangePartial`].
    Count(u64),
    /// Answer to [`Request::GatherTrajectories`].
    Trajectories(Vec<Trajectory>),
    /// Answer to [`Request::InfoPartial`].
    InfoPartial(PartialInfo),
}

/// Failure class carried by every [`Response::Error`] frame (wire byte, v5).
///
/// Unknown bytes from a future peer decode as [`ErrorCode::Query`]; encoding
/// is exactly the discriminant, so frames re-encoded by the coordinator keep
/// their class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ErrorCode {
    /// Statement-level failure (unknown dataset, bad parameters, …); the
    /// default class.
    #[default]
    Query = 0,
    /// Protocol-level failure (malformed frame, oversized result, …).
    Protocol = 1,
    /// Admission refused: the server is at its connection cap. The server
    /// closes the connection after this frame.
    Capacity = 2,
    /// Admission refused: the in-flight request budget is exhausted; the
    /// request was never executed and can be retried.
    Backpressure = 3,
    /// The per-query deadline expired before (or while) the query ran; no
    /// result is returned past a deadline.
    Deadline = 4,
}

impl ErrorCode {
    /// Decodes a wire byte; unknown values from a future peer decode as
    /// [`ErrorCode::Query`] (the conservative class: relay, do not retry).
    pub fn from_u8(v: u8) -> ErrorCode {
        match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Capacity,
            3 => ErrorCode::Backpressure,
            4 => ErrorCode::Deadline,
            _ => ErrorCode::Query,
        }
    }

    /// True for the admission/deadline classes (`Capacity`, `Backpressure`,
    /// `Deadline`): the statement was refused or timed out rather than
    /// answered, so a retry — on this node or a replica holding the same
    /// data — is safe and may succeed. `Query`-class errors are *answers*
    /// (a replica would say exactly the same) and must be relayed verbatim.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Capacity | ErrorCode::Backpressure | ErrorCode::Deadline
        )
    }
}

impl Response {
    /// A [`Response::Error`] of the default [`ErrorCode::Query`] class.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            code: ErrorCode::Query,
            message: message.into(),
        }
    }

    /// Converts a row/command response into the typed [`QueryOutcome`] the
    /// local execution path produces, so remote and local callers handle one
    /// result type.
    pub fn into_outcome(self) -> Result<QueryOutcome, DecodeError> {
        match self {
            Response::Rows { frame, stats } => Ok(QueryOutcome::Rows { frame, stats }),
            Response::Command(status) => Ok(QueryOutcome::Command(status)),
            other => Err(DecodeError(format!(
                "expected a rows/command response, got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Value / Frame / CommandStatus encoding
// ---------------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_TEXT: u8 = 4;
const VALUE_TIMESTAMP: u8 = 5;
const VALUE_INTERVAL: u8 = 6;

fn write_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Null => w.u8(VALUE_NULL),
        Value::Bool(b) => {
            w.u8(VALUE_BOOL);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(VALUE_FLOAT);
            w.f64(*f);
        }
        Value::Text(s) => {
            w.u8(VALUE_TEXT);
            w.str(s);
        }
        Value::Timestamp(t) => {
            w.u8(VALUE_TIMESTAMP);
            w.i64(t.millis());
        }
        Value::Interval(d) => {
            w.u8(VALUE_INTERVAL);
            w.i64(d.millis());
        }
    }
}

fn read_value(r: &mut WireReader<'_>) -> Result<Value, DecodeError> {
    Ok(match r.u8()? {
        VALUE_NULL => Value::Null,
        VALUE_BOOL => Value::Bool(r.bool()?),
        VALUE_INT => Value::Int(r.i64()?),
        VALUE_FLOAT => Value::Float(r.f64()?),
        VALUE_TEXT => Value::Text(r.str()?),
        VALUE_TIMESTAMP => Value::Timestamp(Timestamp(r.i64()?)),
        VALUE_INTERVAL => Value::Interval(hermes_trajectory::Duration::from_millis(r.i64()?)),
        tag => return Err(DecodeError(format!("unknown value tag {tag}"))),
    })
}

/// Column types by wire code: a type's code is its position plus one, the
/// tag of its values (`VALUE_BOOL` … `VALUE_INTERVAL`).
const VALUE_TYPES: [ValueType; 6] = [
    ValueType::Bool,
    ValueType::Int,
    ValueType::Float,
    ValueType::Text,
    ValueType::Timestamp,
    ValueType::Interval,
];

/// Command tags by wire code: a tag's code is its position plus one.
const COMMAND_TAGS: [CommandTag; 6] = [
    CommandTag::CreateDataset,
    CommandTag::DropDataset,
    CommandTag::BuildIndex,
    CommandTag::Ingest,
    CommandTag::Set,
    CommandTag::Checkpoint,
];

/// The wire code of `item` in `table`.
fn code_of<T: PartialEq>(table: &[T], item: &T) -> u8 {
    let at = table.iter().position(|t| t == item);
    at.expect("every variant has a code") as u8 + 1
}

/// The entry of `table` with wire code `code`.
fn of_code<T: Copy>(table: &[T], code: u8, what: &str) -> Result<T, DecodeError> {
    let entry = code.checked_sub(1).and_then(|at| table.get(at as usize));
    entry
        .copied()
        .ok_or_else(|| DecodeError(format!("unknown {what} code {code}")))
}

/// Reads `n` items into a vector sized once — `n` comes from
/// [`ByteReader::count`], so the bytes behind it are there.
fn read_n<T>(
    r: &mut WireReader<'_>,
    n: usize,
    mut read: impl FnMut(&mut WireReader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(read(r)?);
    }
    Ok(items)
}

/// Writes a `u32` count and the items.
fn write_list<T>(w: &mut WireWriter, items: &[T], mut write: impl FnMut(&mut WireWriter, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        write(w, item);
    }
}

/// Reads a 0/1 presence flag and, when it is set, what `read` reads.
fn read_optional<T>(
    r: &mut WireReader<'_>,
    read: impl FnOnce(&mut WireReader<'_>) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    Ok(if r.bool()? { Some(read(r)?) } else { None })
}

fn write_frame_payload(w: &mut WireWriter, frame: &Frame) {
    w.u16(frame.num_columns() as u16);
    for col in frame.schema() {
        w.str(&col.name);
        w.u8(code_of(&VALUE_TYPES, &col.ty));
    }
    w.u32(frame.num_rows() as u32);
    for row in frame.rows() {
        for cell in row {
            write_value(w, cell);
        }
    }
}

fn read_frame_payload(r: &mut WireReader<'_>) -> Result<Frame, DecodeError> {
    // A column is at least its name's length prefix and its type code.
    let ncols = r.count_u16(4 + 1)?;
    let schema = read_n(r, ncols, |r| {
        let name = r.str()?;
        let ty = of_code(&VALUE_TYPES, r.u8()?, "column type")?;
        Ok(ColumnDef::new(name, ty))
    })?;
    let mut frame = Frame::new(schema);
    // A cell is at least its tag byte; a frame without columns has no rows.
    let nrows = r.count(ncols.max(1))?;
    for _ in 0..nrows {
        frame
            .push_row(read_n(r, ncols, read_value)?)
            .map_err(DecodeError)?;
    }
    Ok(frame)
}

/// A cluster representative: the storage record layout, plus the wire's one
/// extra rule — time never runs backwards — checked here so that
/// `lifespan()` cannot panic on a peer's bytes.
fn read_representative(r: &mut WireReader<'_>) -> Result<SubTrajectory, DecodeError> {
    let sub = read_sub_trajectory(r)?;
    if let Some(at) = sub.points().windows(2).position(|w| w[1].t < w[0].t) {
        return Err(DecodeError(format!(
            "sub-trajectory {} runs backwards in time at point {}",
            sub.id,
            at + 1
        )));
    }
    Ok(sub)
}

/// The bytes of a member or outlier of a shard partial.
const SUMMARY_BYTES: usize = 44;

/// The fewest bytes of one cluster of a shard partial: id, representative,
/// vote and member count.
const CLUSTER_MIN_BYTES: usize = 8 + SUB_TRAJECTORY_MIN_BYTES + 8 + 4;

/// A member or outlier of a shard partial: 44 bytes, no points.
fn write_summary(w: &mut WireWriter, s: &SubTrajectorySummary) {
    w.u64(s.id.trajectory_id);
    w.u32(s.id.offset);
    w.u64(s.trajectory_id);
    w.u64(s.object_id);
    w.i64(s.lifespan.start.millis());
    w.i64(s.lifespan.end.millis());
}

fn read_summary(r: &mut WireReader<'_>) -> Result<SubTrajectorySummary, DecodeError> {
    let id = SubTrajectoryId::new(r.u64()?, r.u32()?);
    let trajectory_id = r.u64()?;
    let object_id = r.u64()?;
    let (start, end) = (Timestamp(r.i64()?), Timestamp(r.i64()?));
    if start > end {
        return Err(DecodeError(format!(
            "summary of sub-trajectory {id} ends at {} before it starts at {}",
            end.millis(),
            start.millis()
        )));
    }
    Ok(SubTrajectorySummary {
        id,
        trajectory_id,
        object_id,
        lifespan: TimeInterval::new(start, end),
    })
}

fn write_cluster(w: &mut WireWriter, c: &QutCluster) {
    w.u64(c.id as u64);
    write_sub_trajectory(w, &c.representative);
    w.f64(c.representative_vote);
    write_list(w, &c.members, write_summary);
    for d in &c.member_distances {
        w.f64(*d);
    }
}

fn read_cluster(r: &mut WireReader<'_>) -> Result<QutCluster, DecodeError> {
    let id = r.u64()? as usize;
    let representative = read_representative(r)?;
    let representative_vote = r.f64()?;
    // Each member is a summary and, after all of them, its distance.
    let n = r.count(SUMMARY_BYTES + 8)?;
    Ok(QutCluster {
        id,
        representative,
        representative_vote,
        members: read_n(r, n, read_summary)?,
        member_distances: read_n(r, n, |r| Ok(r.f64()?))?,
    })
}

fn write_qut_partial(w: &mut WireWriter, p: &QutPartial) {
    write_list(w, &p.clusters, write_cluster);
    write_list(w, &p.outliers, write_summary);
    w.u64(p.stats.reused_subchunks as u64);
    w.u64(p.stats.reclustered_subchunks as u64);
    w.u64(p.stats.loaded_sub_trajectories as u64);
    w.u64(p.stats.merges as u64);
    w.f64(p.stats.elapsed_ms);
    w.f64(p.stats.phases.index_build_ms);
    w.f64(p.stats.phases.voting_ms);
    w.f64(p.stats.phases.segmentation_ms);
    w.f64(p.stats.phases.sampling_ms);
    w.f64(p.stats.phases.clustering_ms);
    w.u64(p.stats.kernel.evaluated);
    w.u64(p.stats.kernel.pruned);
}

fn read_qut_partial(r: &mut WireReader<'_>) -> Result<QutPartial, DecodeError> {
    let nclusters = r.count(CLUSTER_MIN_BYTES)?;
    let clusters = read_n(r, nclusters, read_cluster)?;
    let noutliers = r.count(SUMMARY_BYTES)?;
    let outliers = read_n(r, noutliers, read_summary)?;
    let stats = QutStats {
        reused_subchunks: r.u64()? as usize,
        reclustered_subchunks: r.u64()? as usize,
        loaded_sub_trajectories: r.u64()? as usize,
        merges: r.u64()? as usize,
        elapsed_ms: r.f64()?,
        phases: S2TPhaseTimings {
            index_build_ms: r.f64()?,
            voting_ms: r.f64()?,
            segmentation_ms: r.f64()?,
            sampling_ms: r.f64()?,
            clustering_ms: r.f64()?,
        },
        kernel: KernelCounters {
            evaluated: r.u64()?,
            pruned: r.u64()?,
        },
    };
    Ok(QutPartial {
        clusters,
        outliers,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const REQ_QUERY: u8 = 1;
const REQ_PREPARE: u8 = 2;
const REQ_EXECUTE_PREPARED: u8 = 3;
const REQ_INGEST: u8 = 4;
const REQ_QUT_PARTIAL: u8 = 5;
const REQ_RANGE_PARTIAL: u8 = 6;
const REQ_GATHER_TRAJECTORIES: u8 = 7;
const REQ_INFO_PARTIAL: u8 = 8;

const RESP_ROWS: u8 = 101;
const RESP_COMMAND: u8 = 102;
const RESP_PREPARED: u8 = 103;
const RESP_ERROR: u8 = 104;
const RESP_QUT_PARTIAL: u8 = 105;
const RESP_COUNT: u8 = 106;
const RESP_TRAJECTORIES: u8 = 107;
const RESP_INFO_PARTIAL: u8 = 108;

/// Writes the optional leading trace-context field every v3 request payload
/// starts with: flag `0` (absent) or flag `1` + `trace_id` + `parent_span_id`.
fn write_trace_field(w: &mut WireWriter, trace: Option<TraceContext>) {
    w.bool(trace.is_some());
    if let Some(ctx) = trace {
        w.u64(ctx.trace_id);
        w.u64(ctx.parent_span_id);
    }
}

/// Reads the trace-context field. Ids are never 0, so a context naming trace
/// 0 or parent 0 is a decode error: a forged 0 parent would pass a shard's
/// span off as a local root.
fn read_trace_field(r: &mut WireReader<'_>) -> Result<Option<TraceContext>, DecodeError> {
    read_optional(r, |r| match (r.u64()?, r.u64()?) {
        (0, _) | (_, 0) => Err(DecodeError("trace context with a zero id".into())),
        (trace_id, parent_span_id) => Ok(TraceContext {
            trace_id,
            parent_span_id,
        }),
    })
}

/// Writes a request's payload, returning its kind.
fn encode_request(w: &mut WireWriter, req: &Request, trace: Option<TraceContext>) -> u8 {
    write_trace_field(w, trace);
    match req {
        Request::Query { sql } => {
            w.str(sql);
            REQ_QUERY
        }
        Request::Prepare { sql } => {
            w.str(sql);
            REQ_PREPARE
        }
        Request::ExecutePrepared { handle, params } => {
            w.u32(*handle);
            w.u16(params.len() as u16);
            for p in params {
                write_value(w, p);
            }
            REQ_EXECUTE_PREPARED
        }
        Request::Ingest {
            dataset,
            trajectories,
        } => {
            w.str(dataset);
            write_list(w, trajectories, encode_trajectory_into);
            REQ_INGEST
        }
        Request::QutPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
            overrides,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            w.i64(*wi);
            w.i64(*we);
            w.bool(overrides.is_some());
            if let Some((tau, delta, min_duration_ms)) = overrides {
                w.f64(*tau);
                w.f64(*delta);
                w.i64(*min_duration_ms);
            }
            REQ_QUT_PARTIAL
        }
        Request::RangePartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            w.i64(*wi);
            w.i64(*we);
            REQ_RANGE_PARTIAL
        }
        Request::GatherTrajectories {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            REQ_GATHER_TRAJECTORIES
        }
        Request::InfoPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => {
            w.str(dataset);
            w.i64(*owned_start_ms);
            w.i64(*owned_end_ms);
            REQ_INFO_PARTIAL
        }
    }
}

/// Refuses bytes left over after a whole message.
fn finish(r: &WireReader<'_>) -> Result<(), DecodeError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(DecodeError(format!(
            "{} trailing bytes after message",
            r.remaining()
        )))
    }
}

/// Decodes one request from the body of its frame — the kind byte and the
/// payload, without the length prefix — where it lies: nothing is copied,
/// so a caller already holding the frame (the serving loop) allocates only
/// what the request owns.
pub fn decode_request(body: &[u8]) -> Result<(Request, Option<TraceContext>), DecodeError> {
    let mut r = WireReader::from(body);
    let kind = r.u8()?;
    let trace = read_trace_field(&mut r)?;
    let req = match kind {
        REQ_QUERY => Request::Query { sql: r.str()? },
        REQ_PREPARE => Request::Prepare { sql: r.str()? },
        REQ_EXECUTE_PREPARED => {
            let handle = r.u32()?;
            // A value is at least its tag byte.
            let n = r.count_u16(1)?;
            let params = read_n(&mut r, n, read_value)?;
            Request::ExecutePrepared { handle, params }
        }
        REQ_INGEST => {
            let dataset = r.str()?;
            let n = r.count(TRAJECTORY_MIN_BYTES)?;
            Request::Ingest {
                dataset,
                trajectories: read_n(&mut r, n, |r| Ok(decode_trajectory_from(r)?))?,
            }
        }
        REQ_QUT_PARTIAL => {
            let dataset = r.str()?;
            let owned_start_ms = r.i64()?;
            let owned_end_ms = r.i64()?;
            let wi = r.i64()?;
            let we = r.i64()?;
            let overrides = read_optional(&mut r, |r| Ok((r.f64()?, r.f64()?, r.i64()?)))?;
            Request::QutPartial {
                dataset,
                owned_start_ms,
                owned_end_ms,
                wi,
                we,
                overrides,
            }
        }
        REQ_RANGE_PARTIAL => Request::RangePartial {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
            wi: r.i64()?,
            we: r.i64()?,
        },
        REQ_GATHER_TRAJECTORIES => Request::GatherTrajectories {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
        },
        REQ_INFO_PARTIAL => Request::InfoPartial {
            dataset: r.str()?,
            owned_start_ms: r.i64()?,
            owned_end_ms: r.i64()?,
        },
        tag => return Err(DecodeError(format!("unknown request kind {tag}"))),
    };
    finish(&r)?;
    Ok((req, trace))
}

/// Writes a response's payload, returning its kind.
fn encode_response(w: &mut WireWriter, resp: &Response) -> u8 {
    match resp {
        Response::Rows { frame, stats } => {
            w.bool(stats.is_some());
            write_frame_payload(w, frame);
            if let Some(stats) = stats {
                write_frame_payload(w, stats);
            }
            RESP_ROWS
        }
        Response::Command(status) => {
            w.u8(code_of(&COMMAND_TAGS, &status.tag));
            w.u64(status.affected);
            RESP_COMMAND
        }
        Response::Prepared { handle } => {
            w.u32(*handle);
            RESP_PREPARED
        }
        Response::Error { code, message } => {
            w.u8(*code as u8);
            w.str(message);
            RESP_ERROR
        }
        Response::QutPartial(partial) => {
            write_qut_partial(w, partial);
            RESP_QUT_PARTIAL
        }
        Response::Count(n) => {
            w.u64(*n);
            RESP_COUNT
        }
        Response::Trajectories(trajectories) => {
            write_list(w, trajectories, encode_trajectory_into);
            RESP_TRAJECTORIES
        }
        Response::InfoPartial(info) => {
            w.u64(info.trajectories);
            w.u64(info.points);
            w.bool(info.lifespan.is_some());
            if let Some((start, end)) = info.lifespan {
                w.i64(start);
                w.i64(end);
            }
            w.bool(info.indexed);
            w.u64(info.cluster_entries);
            RESP_INFO_PARTIAL
        }
    }
}

/// Decodes one response from the body of its frame (kind byte + payload).
fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    let mut r = WireReader::from(body);
    let resp = match r.u8()? {
        RESP_ROWS => {
            let has_stats = r.bool()?;
            let frame = read_frame_payload(&mut r)?;
            let stats = if has_stats {
                Some(read_frame_payload(&mut r)?)
            } else {
                None
            };
            Response::Rows { frame, stats }
        }
        RESP_COMMAND => Response::Command(CommandStatus {
            tag: of_code(&COMMAND_TAGS, r.u8()?, "command tag")?,
            affected: r.u64()?,
        }),
        RESP_PREPARED => Response::Prepared { handle: r.u32()? },
        RESP_ERROR => Response::Error {
            code: ErrorCode::from_u8(r.u8()?),
            message: r.str()?,
        },
        RESP_QUT_PARTIAL => Response::QutPartial(read_qut_partial(&mut r)?),
        RESP_COUNT => Response::Count(r.u64()?),
        RESP_TRAJECTORIES => {
            let n = r.count(TRAJECTORY_MIN_BYTES)?;
            Response::Trajectories(read_n(&mut r, n, |r| Ok(decode_trajectory_from(r)?))?)
        }
        RESP_INFO_PARTIAL => {
            let trajectories = r.u64()?;
            let points = r.u64()?;
            let lifespan = read_optional(&mut r, |r| Ok((r.i64()?, r.i64()?)))?;
            Response::InfoPartial(PartialInfo {
                trajectories,
                points,
                lifespan,
                indexed: r.bool()?,
                cluster_entries: r.u64()?,
            })
        }
        tag => return Err(DecodeError(format!("unknown response kind {tag}"))),
    };
    finish(&r)?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

/// The body length a frame's 4-byte prefix announces, refused when it is
/// zero or above [`MAX_MESSAGE_BYTES`]: the one rule both the blocking
/// readers and the serving loop apply.
pub(crate) fn frame_length(prefix: [u8; 4]) -> io::Result<usize> {
    let length = WireReader::from(&prefix[..])
        .u32()
        .map_err(DecodeError::from)?;
    if length == 0 || length > MAX_MESSAGE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid message length {length}"),
        ));
    }
    Ok(length as usize)
}

/// Writes one frame from one buffer: the length prefix and kind are
/// reserved, `payload` writes the payload and returns the kind, and both
/// are filled in. Returns the bytes put on the wire.
fn write_frame(w: &mut impl Write, payload: impl FnOnce(&mut WireWriter) -> u8) -> io::Result<u64> {
    let mut frame = WireWriter::default();
    frame.raw(&[0; 5]);
    let kind = payload(&mut frame);
    let length = frame.len() - 4;
    if length > MAX_MESSAGE_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("message of {length} bytes exceeds the {MAX_MESSAGE_BYTES} byte cap"),
        ));
    }
    frame.set_u32(0, length as u32);
    frame.set_u8(4, kind);
    w.write_all(frame.as_bytes())?;
    w.flush()?;
    Ok(frame.len() as u64)
}

/// Reads one frame's body — kind byte and payload — into one buffer.
fn read_frame_body(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut body = vec![0u8; frame_length(prefix)?];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one request without a trace context, returning the bytes put on
/// the wire.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<u64> {
    write_request_traced(w, req, None)
}

/// Writes one request carrying an optional [`TraceContext`] (the protocol v3
/// trace field), returning the bytes put on the wire.
pub fn write_request_traced(
    w: &mut impl Write,
    req: &Request,
    trace: Option<TraceContext>,
) -> io::Result<u64> {
    write_frame(w, |frame| encode_request(frame, req, trace))
}

/// Reads one request, returning it with its optional trace context and the
/// bytes taken off the wire. `ErrorKind::UnexpectedEof` means the peer closed
/// the connection.
pub fn read_request(r: &mut impl Read) -> io::Result<(Request, Option<TraceContext>, u64)> {
    let body = read_frame_body(r)?;
    let (req, trace) = decode_request(&body)?;
    Ok((req, trace, 4 + body.len() as u64))
}

/// Writes one response, returning the bytes put on the wire.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<u64> {
    write_frame(w, |frame| encode_response(frame, resp))
}

/// Reads one response, returning it with the bytes taken off the wire.
pub fn read_response(r: &mut impl Read) -> io::Result<(Response, u64)> {
    let body = read_frame_body(r)?;
    Ok((decode_response(&body)?, 4 + body.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Duration, Point};

    /// Bytes written by `f` in the wire's byte order.
    fn wire(f: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::default();
        f(&mut w);
        w.into_bytes()
    }

    fn round_trip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        let written = write_request(&mut buf, &req).unwrap();
        assert_eq!(written as usize, buf.len());
        let (back, trace, read) = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(trace, None, "untraced requests carry no context");
        back
    }

    fn round_trip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut buf.as_slice()).unwrap().0
    }

    fn sample_frame() -> Frame {
        let mut f = Frame::with_columns(&[
            ("name", ValueType::Text),
            ("n", ValueType::Int),
            ("score", ValueType::Float),
            ("at", ValueType::Timestamp),
            ("gap", ValueType::Interval),
            ("ok", ValueType::Bool),
        ]);
        f.push_row(vec![
            Value::from("ships"),
            Value::Int(-3),
            Value::Float(0.5),
            Value::Timestamp(Timestamp(42)),
            Value::Interval(Duration::from_secs(9)),
            Value::Bool(true),
        ])
        .unwrap();
        f.push_row(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        f
    }

    fn traj(id: u64) -> Trajectory {
        Trajectory::new(
            id,
            id * 10,
            (0..5)
                .map(|i| Point::new(i as f64, -1.5 * i as f64, Timestamp(i * 1000)))
                .collect(),
        )
        .unwrap()
    }

    fn sub(id: u64, offset: u32) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, offset),
            id,
            id * 2,
            (0..4)
                .map(|i| Point::new(i as f64 * 3.5, 0.25 * i as f64, Timestamp(i * 500)))
                .collect(),
        )
    }

    fn sample_partial() -> QutPartial {
        QutPartial {
            clusters: vec![
                QutCluster {
                    id: 0,
                    representative: sub(1, 0),
                    representative_vote: 4.25,
                    members: vec![(&sub(2, 3)).into(), (&sub(3, 0)).into()],
                    member_distances: vec![12.5, f64::MAX],
                },
                QutCluster {
                    id: 1,
                    representative: sub(4, 7),
                    representative_vote: 1.0,
                    members: Vec::new(),
                    member_distances: Vec::new(),
                },
            ],
            outliers: vec![(&sub(9, 2)).into()],
            stats: QutStats {
                reused_subchunks: 3,
                reclustered_subchunks: 1,
                loaded_sub_trajectories: 44,
                merges: 2,
                elapsed_ms: 1.5,
                phases: S2TPhaseTimings {
                    index_build_ms: 0.25,
                    voting_ms: 0.5,
                    segmentation_ms: 0.125,
                    sampling_ms: 0.0,
                    clustering_ms: 0.375,
                },
                kernel: KernelCounters {
                    evaluated: 123,
                    pruned: 4_567,
                },
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
            Request::Prepare {
                sql: "SELECT RANGE(d, $1, $2);".into(),
            },
            Request::ExecutePrepared {
                handle: 7,
                params: vec![
                    Value::Int(0),
                    Value::Timestamp(Timestamp(99)),
                    Value::Float(1.5),
                    Value::Null,
                ],
            },
            Request::Ingest {
                dataset: "flights".into(),
                trajectories: vec![traj(1), traj(2)],
            },
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: 7_200_000,
                wi: 0,
                we: 3_600_000,
                overrides: Some((0.35, 0.05, 300_000)),
            },
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: 7_200_000,
                owned_end_ms: i64::MAX,
                wi: 0,
                we: 3_600_000,
                overrides: None,
            },
            Request::RangePartial {
                dataset: "urban".into(),
                owned_start_ms: 0,
                owned_end_ms: 100,
                wi: -5,
                we: 50,
            },
            Request::GatherTrajectories {
                dataset: "sea".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: i64::MAX,
            },
            Request::InfoPartial {
                dataset: "sea".into(),
                owned_start_ms: 0,
                owned_end_ms: i64::MAX,
            },
        ] {
            assert_eq!(round_trip_request(req.clone()), req);
        }
    }

    #[test]
    fn trace_context_rides_along_with_any_request() {
        let ctx = TraceContext {
            trace_id: 0x1234_5678_9ABC_DEF0 & (i64::MAX as u64),
            parent_span_id: 42,
        };
        let req = Request::QutPartial {
            dataset: "urban".into(),
            owned_start_ms: 0,
            owned_end_ms: 7_200_000,
            wi: 0,
            we: 3_600_000,
            overrides: None,
        };
        let mut buf = Vec::new();
        let written = write_request_traced(&mut buf, &req, Some(ctx)).unwrap();
        // The trace field costs exactly 16 bytes over the flag-only form.
        let mut untraced = Vec::new();
        let base = write_request(&mut untraced, &req).unwrap();
        assert_eq!(written, base + 16);
        let (back, trace, read) = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, req);
        assert_eq!(trace, Some(ctx));
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Rows {
                frame: sample_frame(),
                stats: None,
            },
            Response::Rows {
                frame: sample_frame(),
                stats: Some(sample_frame()),
            },
            Response::Command(CommandStatus {
                tag: CommandTag::BuildIndex,
                affected: 12,
            }),
            Response::Command(CommandStatus {
                tag: CommandTag::Ingest,
                affected: 640,
            }),
            Response::Command(CommandStatus {
                tag: CommandTag::Checkpoint,
                affected: 123_456,
            }),
            Response::Prepared { handle: 3 },
            Response::Error {
                code: ErrorCode::Query,
                message: "unknown dataset 'x'".into(),
            },
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "server overloaded: 1024 requests already pending".into(),
            },
            Response::Error {
                code: ErrorCode::Deadline,
                message: "deadline exceeded: request not answered within 5ms".into(),
            },
            Response::QutPartial(sample_partial()),
            Response::QutPartial(QutPartial::default()),
            Response::Count(0),
            Response::Count(u64::MAX),
            Response::Trajectories(vec![traj(5), traj(6)]),
            Response::Trajectories(Vec::new()),
            Response::InfoPartial(PartialInfo {
                trajectories: 40,
                points: 1600,
                lifespan: Some((-1, 86_400_000)),
                indexed: true,
                cluster_entries: 7,
            }),
            Response::InfoPartial(PartialInfo {
                trajectories: 0,
                points: 0,
                lifespan: None,
                indexed: false,
                cluster_entries: 0,
            }),
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn into_outcome_maps_rows_and_commands() {
        let rows = Response::Rows {
            frame: sample_frame(),
            stats: None,
        };
        assert_eq!(rows.into_outcome().unwrap().num_rows(), 2);
        let cmd = Response::Command(CommandStatus {
            tag: CommandTag::CreateDataset,
            affected: 1,
        });
        assert!(cmd.into_outcome().unwrap().command().is_some());
        assert!(Response::Prepared { handle: 0 }.into_outcome().is_err());
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        let frame = |body: &[u8]| {
            wire(|w| {
                w.u32(body.len() as u32);
                w.raw(body);
            })
        };
        // Unknown kind.
        assert!(read_request(&mut frame(&[250, 0]).as_slice()).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Oversized / zero length prefixes.
        for length in [MAX_MESSAGE_BYTES + 1, 0] {
            let prefix = wire(|w| w.u32(length));
            let err = read_request(&mut prefix.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Trailing garbage after a valid message body.
        let body = wire(|w| {
            w.u8(REQ_QUERY);
            w.u8(0); // trace field: absent
            w.str("SHOW DATASETS;");
            w.u8(99);
        });
        assert!(decode_request(&body).is_err());
        // Unknown trace flag.
        let body = wire(|w| {
            w.u8(REQ_QUERY);
            w.u8(7);
            w.str("SHOW DATASETS;");
        });
        assert!(decode_request(&body).is_err());
        // A trace context naming trace 0 or parent span 0.
        for (trace_id, parent_span_id) in [(0, 5), (5, 0)] {
            let body = wire(|w| {
                w.u8(REQ_QUERY);
                w.u8(1);
                w.u64(trace_id);
                w.u64(parent_span_id);
                w.str("SHOW DATASETS;");
            });
            let err = decode_request(&body).unwrap_err();
            assert!(err.0.contains("zero id"), "{err}");
        }
        // Unknown response kind.
        let err = read_response(&mut frame(&[222]).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A representative with fewer than two points must be a decode
        // error, not a constructor panic.
        let body = wire(|w| {
            w.u64(1);
            w.u32(0);
            w.u64(1);
            w.u64(1);
            w.u32(1); // one point only
            w.f64(0.0);
            w.f64(0.0);
            w.i64(0);
        });
        assert!(read_representative(&mut WireReader::from(&body[..])).is_err());
    }

    #[test]
    fn a_partial_that_runs_backwards_in_time_is_a_decode_error_not_a_panic() {
        let mut valid = Vec::new();
        write_response(&mut valid, &Response::QutPartial(sample_partial())).unwrap();
        assert!(read_response(&mut valid.as_slice()).is_ok());
        // Layout of the frame up to the first member (docs/PROTOCOL.md):
        // length u32, kind u8, cluster count u32, cluster id u64, then the
        // representative — a 32-byte header and four 24-byte points, `t`
        // last in each — its vote f64, the member count u32, and the first
        // 44-byte summary, which ends with `start` and `end`.
        const REPRESENTATIVE_POINTS: usize = 4 + 1 + 4 + 8 + 32;
        const MEMBER_COUNT: usize = REPRESENTATIVE_POINTS + 4 * 24 + 8;
        const FIRST_SUMMARY: usize = MEMBER_COUNT + 4;
        let with = |at: usize, bytes: &[u8]| {
            let mut frame = valid.clone();
            frame[at..at + bytes.len()].copy_from_slice(bytes);
            frame
        };
        let cases = [
            (
                "runs backwards in time",
                // The representative's last point, moved before the third.
                with(REPRESENTATIVE_POINTS + 3 * 24 + 16, &wire(|w| w.i64(999))),
            ),
            (
                "before it starts",
                // The first member's `end`, moved before its `start` (0).
                with(FIRST_SUMMARY + 36, &wire(|w| w.i64(-1))),
            ),
            (
                // A member count the payload cannot hold: refused as it is
                // read, before anything is allocated for it
                // (`tests/decode_alloc.rs` measures that).
                "cannot fit",
                with(MEMBER_COUNT, &wire(|w| w.u32(u32::MAX))),
            ),
        ];
        for (what, frame) in cases {
            let err = read_response(&mut frame.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_a_hang() {
        // Only 2 of the 4 length-prefix bytes arrive before EOF.
        let partial: &[u8] = &[0x00, 0x00];
        let err = read_request(&mut &*partial).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Length announces more payload than the stream holds.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
        )
        .unwrap();
        let declared = WireReader::from(&buf[..4]).u32().unwrap();
        buf[..4].copy_from_slice(&wire(|w| w.u32(declared + 10)));
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn eof_reads_as_unexpected_eof() {
        let empty: &[u8] = &[];
        let err = read_request(&mut &*empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn handshake_round_trips_and_rejects_mismatches() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        assert_eq!(buf.len(), 7);
        assert_eq!(
            read_handshake(&mut buf.as_slice()).unwrap(),
            PROTOCOL_VERSION
        );

        // Wrong magic: not a Hermes endpoint.
        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = read_handshake(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"));

        // Wrong version: named in the error.
        let mut old = buf.clone();
        old[4..6].copy_from_slice(&wire(|w| w.u16(1)));
        let err = read_handshake(&mut old.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version mismatch"));

        // Truncated preamble.
        let err = read_handshake(&mut &buf[..3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
