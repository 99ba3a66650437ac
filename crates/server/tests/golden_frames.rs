//! The wire bytes of every message kind, pinned.
//!
//! `golden_frames.txt` holds one line per message — a name, then the whole
//! wire frame (length prefix, kind, payload) in hex — as the codec wrote them
//! when the file was committed. Each message below must encode to exactly
//! those bytes and decode back equal, so a change to any payload layout, to
//! the byte order or to a flag's encoding fails here by name. Regenerating
//! the file is a protocol change: it goes with a `PROTOCOL_VERSION` bump.

use hermes_obs::TraceContext;
use hermes_retratree::{QutCluster, QutPartial, QutStats};
use hermes_s2t::{KernelCounters, S2TPhaseTimings};
use hermes_server::protocol::{
    read_request, read_response, write_request_traced, write_response, PartialInfo, Request,
    Response,
};
use hermes_server::{ErrorCode, PROTOCOL_VERSION};
use hermes_sql::{CommandStatus, CommandTag, Frame, Value, ValueType};
use hermes_trajectory::{Duration, Point, SubTrajectory, SubTrajectoryId, Timestamp, Trajectory};
use std::io;

const GOLDEN: &str = include_str!("golden_frames.txt");

enum Message {
    Request(Request, Option<TraceContext>),
    Response(Response),
}

fn encode(message: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    let written = match message {
        Message::Request(req, trace) => write_request_traced(&mut bytes, req, *trace),
        Message::Response(resp) => write_response(&mut bytes, resp),
    }
    .unwrap();
    assert_eq!(written as usize, bytes.len());
    bytes
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
        Value::Bool(false),
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

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "query",
            Request::Query {
                sql: "SHOW DATASETS;".into(),
            },
        ),
        (
            "prepare",
            Request::Prepare {
                sql: "SELECT RANGE(d, $1, $2);".into(),
            },
        ),
        (
            "execute_prepared",
            Request::ExecutePrepared {
                handle: 7,
                params: vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-1),
                    Value::Float(1.5),
                    Value::Text("x".into()),
                    Value::Timestamp(Timestamp(99)),
                    Value::Interval(Duration::from_millis(5)),
                ],
            },
        ),
        (
            "ingest",
            Request::Ingest {
                dataset: "flights".into(),
                trajectories: vec![traj(1), traj(2)],
            },
        ),
        (
            "qut_partial",
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: 7_200_000,
                wi: 0,
                we: 3_600_000,
                overrides: Some((0.35, 0.05, 300_000)),
            },
        ),
        (
            "qut_partial_default",
            Request::QutPartial {
                dataset: "urban".into(),
                owned_start_ms: 7_200_000,
                owned_end_ms: i64::MAX,
                wi: 0,
                we: 3_600_000,
                overrides: None,
            },
        ),
        (
            "range_partial",
            Request::RangePartial {
                dataset: "urban".into(),
                owned_start_ms: 0,
                owned_end_ms: 100,
                wi: -5,
                we: 50,
            },
        ),
        (
            "gather_trajectories",
            Request::GatherTrajectories {
                dataset: "sea".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: i64::MAX,
            },
        ),
        (
            "info_partial",
            Request::InfoPartial {
                dataset: "sea".into(),
                owned_start_ms: 0,
                owned_end_ms: i64::MAX,
            },
        ),
    ]
}

fn responses() -> Vec<(String, Response)> {
    let mut out = vec![
        (
            "rows".to_string(),
            Response::Rows {
                frame: sample_frame(),
                stats: None,
            },
        ),
        (
            "rows_with_stats".to_string(),
            Response::Rows {
                frame: sample_frame(),
                stats: Some(Frame::with_columns(&[("phase_ms", ValueType::Float)])),
            },
        ),
    ];
    for (i, tag) in [
        CommandTag::CreateDataset,
        CommandTag::DropDataset,
        CommandTag::BuildIndex,
        CommandTag::Ingest,
        CommandTag::Set,
        CommandTag::Checkpoint,
    ]
    .into_iter()
    .enumerate()
    {
        out.push((
            format!("command_{tag:?}"),
            Response::Command(CommandStatus {
                tag,
                affected: 1 << (8 * i),
            }),
        ));
    }
    out.push(("prepared".into(), Response::Prepared { handle: 3 }));
    for code in [
        ErrorCode::Query,
        ErrorCode::Protocol,
        ErrorCode::Capacity,
        ErrorCode::Backpressure,
        ErrorCode::Deadline,
    ] {
        out.push((
            format!("error_{code:?}"),
            Response::Error {
                code,
                message: format!("{code:?} went wrong"),
            },
        ));
    }
    out.extend([
        ("qut_partial".into(), Response::QutPartial(sample_partial())),
        (
            "qut_partial_default".into(),
            Response::QutPartial(QutPartial::default()),
        ),
        ("count_0".into(), Response::Count(0)),
        ("count_max".into(), Response::Count(u64::MAX)),
        (
            "trajectories".into(),
            Response::Trajectories(vec![traj(5), traj(6)]),
        ),
        (
            "info_partial".into(),
            Response::InfoPartial(PartialInfo {
                trajectories: 40,
                points: 1600,
                lifespan: Some((-1, 86_400_000)),
                indexed: true,
                cluster_entries: 7,
            }),
        ),
        (
            "info_partial_empty".into(),
            Response::InfoPartial(PartialInfo {
                trajectories: 0,
                points: 0,
                lifespan: None,
                indexed: false,
                cluster_entries: 0,
            }),
        ),
    ]);
    out
}

/// Every message, named as in the golden file.
fn messages() -> Vec<(String, Message)> {
    let trace = TraceContext {
        trace_id: 0x0123_4567_89AB_CDEF,
        parent_span_id: 42,
    };
    let mut out = Vec::new();
    for (name, req) in requests() {
        out.push((
            format!("request/{name}/traced"),
            Message::Request(req.clone(), Some(trace)),
        ));
        out.push((format!("request/{name}"), Message::Request(req, None)));
    }
    for (name, resp) in responses() {
        out.push((format!("response/{name}"), Message::Response(resp)));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// The golden file as `(name, frame bytes)`, in file order.
fn golden() -> Vec<(String, Vec<u8>)> {
    GOLDEN
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, frame) = line.split_once(' ').expect("'<name> <hex>'");
            (name.to_string(), unhex(frame))
        })
        .collect()
}

#[test]
fn every_message_encodes_to_its_golden_bytes_and_decodes_back() {
    assert_eq!(PROTOCOL_VERSION, 6, "the golden frames are protocol v6");
    let golden = golden();
    let messages = messages();
    assert_eq!(
        golden.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        messages.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        "the golden file names every message, in order"
    );
    for ((name, expected), (_, message)) in golden.iter().zip(&messages) {
        let bytes = encode(message);
        assert_eq!(hex(&bytes), hex(expected), "{name}: encoded bytes");
        match message {
            Message::Request(req, trace) => {
                let (back, back_trace, n) = read_request(&mut bytes.as_slice()).unwrap();
                assert_eq!((&back, &back_trace), (req, trace), "{name}");
                assert_eq!(n as usize, bytes.len(), "{name}");
            }
            Message::Response(resp) => {
                let (back, n) = read_response(&mut bytes.as_slice()).unwrap();
                assert_eq!(&back, resp, "{name}");
                assert_eq!(n as usize, bytes.len(), "{name}");
            }
        }
    }
}

/// The frame of the named golden message.
fn frame(name: &str) -> Vec<u8> {
    golden()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no golden frame '{name}'"))
        .1
}

/// A 0/1 flag byte set to 2 is malformed, not "true".
#[test]
fn a_flag_byte_other_than_0_or_1_is_invalid_data() {
    // Rows: length u32, kind u8, then the has-stats flag.
    let mut rows = frame("response/rows");
    rows[5] = 2;
    // InfoPartial without a lifespan: length, kind, trajectories u64,
    // points u64, lifespan flag, then the indexed flag.
    let mut info = frame("response/info_partial_empty");
    info[4 + 1 + 8 + 8 + 1] = 2;
    // The first row of `sample_frame` ends with `Bool(true)` — tag 1, then
    // 1 — and the frame with the second row: five Nulls and `Bool(false)`.
    let mut cell = frame("response/rows");
    let at = cell.len() - 5 - 2 - 1;
    assert_eq!(cell[at - 1..=at], [1, 1]);
    cell[at] = 2;
    for (what, bytes) in [("has-stats", rows), ("indexed", info), ("Bool", cell)] {
        let err = read_response(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }
    // The request flags were strict already: trace, then overrides.
    let mut traced = frame("request/query/traced");
    traced[5] = 2;
    let mut overrides = frame("request/qut_partial");
    let last_flag = overrides.len() - 1 - 3 * 8;
    assert_eq!(overrides[last_flag], 1);
    overrides[last_flag] = 2;
    for (what, bytes) in [("trace", traced), ("overrides", overrides)] {
        let err = read_request(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }
}
