//! Distributed tracing gate: a spanning statement through the coordinator
//! must yield a `SHOW TRACE` span tree covering the whole fan-out — one root,
//! one child span per contacted shard carrying that shard's S2T phase work,
//! and the border-merge — while interior statements (verbatim-forwarded to
//! one shard) record no fan-out spans at all. The trace context also rides
//! the wire: the shard's own span store links its `qut_partial` span under
//! the coordinator's per-shard span via the propagated parent id. A prepared
//! `SHOW TRACE $1` binds its id by one rule on both serving edges.

use hermes::coord::{validate_shard_map, Coordinator, ShardSpec};
use hermes::core::SharedEngine;
use hermes::exec::ExecPolicy;
use hermes::server::{
    ConnectOptions, HermesClient, Request, Response, Server, ServerConfig, ServerHandle,
};
use hermes::sql::{Frame, QueryOutcome, Value};
use hermes::trajectory::Trajectory;
use hermes_bench::urban_with;

/// Two loopback shards behind a coordinator, loaded and indexed with the
/// urban workload; `cut` is the interior shard boundary.
struct Traced {
    /// Kept alive for the test's duration (dropping a handle stops it).
    shards: Vec<ServerHandle>,
    coord: ServerHandle<Coordinator>,
    client: HermesClient,
    span: (i64, i64),
    cut: i64,
}

fn data_span(trajectories: &[Trajectory]) -> (i64, i64) {
    let lo = trajectories
        .iter()
        .map(|t| t.start_time().millis())
        .min()
        .expect("non-empty workload");
    let hi = trajectories
        .iter()
        .map(|t| t.lifespan().end.millis())
        .max()
        .expect("non-empty workload");
    (lo, hi)
}

fn spawn_traced_topology() -> Traced {
    let trajectories = urban_with(36, 0xC0).trajectories;
    let (lo, hi) = data_span(&trajectories);
    // 0.1-hour chunks; one cut on the chunk grid near the middle of the span.
    let chunk_ms = 360_000;
    let cut = (lo + (hi - lo) / 2 + chunk_ms / 2).div_euclid(chunk_ms) * chunk_ms;
    assert!(cut > lo && cut < hi, "cut {cut} outside span ({lo}, {hi})");

    let mut shards = Vec::new();
    let mut specs = Vec::new();
    for (k, (start_ms, end_ms)) in [(i64::MIN, cut), (cut, i64::MAX)].iter().enumerate() {
        let handle = Server::bind(
            "127.0.0.1:0",
            SharedEngine::default(),
            ServerConfig::default(),
        )
        .expect("bind shard")
        .spawn()
        .expect("spawn shard");
        specs.push(ShardSpec {
            name: format!("s{k}"),
            addr: handle.addr().to_string(),
            replicas: Vec::new(),
            start_ms: *start_ms,
            end_ms: *end_ms,
        });
        shards.push(handle);
    }
    validate_shard_map(&mut specs).expect("valid shard map");
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");

    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    client.query("CREATE DATASET data;").expect("create");
    client.ingest("data", &trajectories).expect("ingest");
    client
        .query("BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;")
        .expect("build index");

    Traced {
        shards,
        coord,
        client,
        span: (lo, hi),
        cut,
    }
}

fn result_frame(outcome: QueryOutcome) -> Frame {
    match outcome {
        QueryOutcome::Rows { frame, .. } => frame,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn int_at(frame: &Frame, row: usize, col: &str) -> i64 {
    match frame.get(row, col) {
        Some(Value::Int(v)) => *v,
        v => panic!("expected an Int in {col}[{row}], got {v:?}"),
    }
}

fn text_at(frame: &Frame, row: usize, col: &str) -> String {
    match frame.get(row, col) {
        Some(Value::Text(v)) => v.clone(),
        v => panic!("expected Text in {col}[{row}], got {v:?}"),
    }
}

/// One decoded `SHOW TRACE` row.
#[derive(Debug)]
struct SpanRow {
    span: i64,
    parent: i64,
    name: String,
    attrs: String,
}

fn span_rows(frame: &Frame) -> Vec<SpanRow> {
    (0..frame.num_rows())
        .map(|r| SpanRow {
            span: int_at(frame, r, "span"),
            parent: int_at(frame, r, "parent"),
            name: text_at(frame, r, "name"),
            attrs: text_at(frame, r, "attributes"),
        })
        .collect()
}

/// The newest trace id in `SHOW TRACES` (trace inspection itself is never
/// recorded, so row 0 is the last executed statement).
fn newest_trace(client: &mut HermesClient) -> (i64, String) {
    let frame = result_frame(client.query("SHOW TRACES;").expect("show traces"));
    assert!(frame.num_rows() > 0, "SHOW TRACES came back empty");
    (int_at(&frame, 0, "trace"), text_at(&frame, 0, "root"))
}

/// Sum of the S2T phase milliseconds serialized into a span's attributes.
fn phase_ms_sum(attrs: &str) -> f64 {
    attrs
        .split(',')
        .filter_map(|pair| {
            let (key, value) = pair.trim().split_once('=')?;
            if key.ends_with("_ms") {
                value.parse::<f64>().ok()
            } else {
                None
            }
        })
        .sum()
}

/// The tentpole gate: a boundary-spanning QUT produces the full distributed
/// span tree, and the propagated context links the shard-local span under it.
#[test]
fn spanning_qut_yields_one_child_span_per_shard() {
    let mut t = spawn_traced_topology();
    let (lo, hi) = t.span;
    // Clip one ms off each end: the window then *partially* covers the first
    // and last sub-chunks, forcing genuine re-clustering work (non-zero phase
    // timings) on both shards, and it still straddles the cut.
    let qut = format!(
        "SELECT QUT(data, {}, {}, 0.35, 0.05, 180000, 250, 600000);",
        lo + 1,
        hi - 1
    );
    t.client.query(&qut).expect("spanning qut");

    let (trace_id, root_name) = newest_trace(&mut t.client);
    assert_eq!(root_name, "query", "newest trace should be the QUT");
    let frame = result_frame(
        t.client
            .query(&format!("SHOW TRACE {trace_id};"))
            .expect("show trace"),
    );
    let spans = span_rows(&frame);

    let roots: Vec<&SpanRow> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {spans:?}");
    let root = roots[0];
    assert_eq!(root.name, "query");
    assert!(
        root.attrs.contains("statement=") && root.attrs.contains("status=ok"),
        "root span attrs missing statement/status: {}",
        root.attrs
    );

    let shard_spans: Vec<&SpanRow> = spans
        .iter()
        .filter(|s| s.name.starts_with("shard:"))
        .collect();
    assert_eq!(
        shard_spans.len(),
        2,
        "one child span per contacted shard: {spans:?}"
    );
    for name in ["shard:s0", "shard:s1"] {
        let span = shard_spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} span in {spans:?}"));
        assert_eq!(span.parent, root.span, "{name} must parent under the root");
        assert!(
            span.attrs.contains("voting_ms=") && span.attrs.contains("clustering_ms="),
            "{name} span should carry phase attributes, got {:?}",
            span.attrs
        );
        assert!(
            phase_ms_sum(&span.attrs) > 0.0,
            "{name} reported zero phase work for a border-re-clustering window: {:?}",
            span.attrs
        );
    }

    let merge = spans
        .iter()
        .find(|s| s.name == "merge")
        .unwrap_or_else(|| panic!("no merge span in {spans:?}"));
    assert_eq!(merge.parent, root.span, "merge must parent under the root");

    // The propagated context: the shard's own span store holds a
    // `qut_partial` span of the same trace, parented under the
    // coordinator-side `shard:s0` span id that crossed the wire.
    let s0_span = shard_spans.iter().find(|s| s.name == "shard:s0").unwrap();
    let mut direct = HermesClient::connect(t.shards[0].addr()).expect("connect shard");
    let shard_frame = result_frame(
        direct
            .query(&format!("SHOW TRACE {trace_id};"))
            .expect("shard-side show trace"),
    );
    let shard_side = span_rows(&shard_frame);
    let partial = shard_side
        .iter()
        .find(|s| s.name == "qut_partial")
        .unwrap_or_else(|| panic!("shard recorded no qut_partial span: {shard_side:?}"));
    assert_eq!(
        partial.parent, s0_span.span,
        "the shard span must link under the coordinator's child span"
    );
    drop(t.coord);
}

/// Interior statements take the verbatim-forward fast path: the trace is
/// just the root span — no per-shard children, no merge.
#[test]
fn interior_queries_record_no_fanout_spans() {
    let mut t = spawn_traced_topology();
    let (lo, _) = t.span;
    let interior = format!(
        "SELECT QUT(data, {}, {}, 0.35, 0.05, 180000, 250, 600000);",
        lo,
        t.cut - 1
    );
    t.client.query(&interior).expect("interior qut");

    let (trace_id, root_name) = newest_trace(&mut t.client);
    assert_eq!(root_name, "query");
    let frame = result_frame(
        t.client
            .query(&format!("SHOW TRACE {trace_id};"))
            .expect("show trace"),
    );
    let spans = span_rows(&frame);
    assert!(
        !spans.iter().any(|s| s.name.starts_with("shard:")),
        "interior statements must not record fan-out spans: {spans:?}"
    );
    assert!(
        !spans.iter().any(|s| s.name == "merge"),
        "interior statements run no merge: {spans:?}"
    );
    assert_eq!(
        spans.len(),
        1,
        "interior trace is the root alone: {spans:?}"
    );
    assert_eq!(spans[0].name, "query");
    drop(t.shards);
}

/// A prepared `SHOW TRACE $1` answers every parameter list alike on a single
/// node and through a one-shard coordinator: an integral float is a trace id
/// like any integer argument, and a missing or non-numeric id is the same
/// bind error — as is a missing parameter of any other prepared statement.
#[test]
fn prepared_show_trace_binds_alike_on_a_node_and_through_the_coordinator() {
    let spawn_node = || {
        Server::bind(
            "127.0.0.1:0",
            SharedEngine::default(),
            ServerConfig::default(),
        )
        .expect("bind node")
        .spawn()
        .expect("spawn node")
    };
    let node = spawn_node();
    let shard = spawn_node();
    let mut specs = vec![ShardSpec {
        name: "s0".to_string(),
        addr: shard.addr().to_string(),
        replicas: Vec::new(),
        start_ms: i64::MIN,
        end_ms: i64::MAX,
    }];
    validate_shard_map(&mut specs).expect("valid shard map");
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");

    let answers = |client: &mut HermesClient| -> Vec<Response> {
        let trace = client.prepare("SHOW TRACE $1;").expect("prepare trace");
        let range = client
            .prepare("SELECT RANGE(data, $1, $2);")
            .expect("prepare range");
        [
            (trace, vec![Value::Float(3.0)]),
            (trace, vec![]),
            (trace, vec![Value::Text("three".to_string())]),
            (range, vec![]),
        ]
        .into_iter()
        .map(|(handle, params)| {
            client
                .exchange(&Request::ExecutePrepared {
                    handle: handle.0,
                    params,
                })
                .expect("exchange")
        })
        .collect()
    };
    let on_node = answers(&mut HermesClient::connect(node.addr()).expect("connect node"));
    let via_coord = answers(&mut HermesClient::connect(coord.addr()).expect("connect coord"));
    assert_eq!(on_node, via_coord, "the two serving edges disagree");
    assert!(
        matches!(&on_node[0], Response::Rows { frame, .. } if frame.num_rows() == 0),
        "trace 3 is unknown, so an empty frame: {:?}",
        on_node[0]
    );
    for answer in &on_node[1..] {
        assert!(
            matches!(answer, Response::Error { .. }),
            "expected a bind error, got {answer:?}"
        );
    }
}
