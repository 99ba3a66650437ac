//! Multi-node topology gate: a coordinator over 1/2/4 `hermes-serve` shards
//! must answer QUT / S2T / RANGE / HISTOGRAM / INFO **byte-identically** to a
//! single-node engine on the same seeded data — including clusters that are
//! merged across shard boundaries — and must degrade with *named* errors when
//! a shard dies mid-session.
//!
//! Everything goes over real loopback TCP: N in-process shard servers, one
//! in-process coordinator server, and a stock [`HermesClient`] upstream (the
//! same client `hermes-cli --connect` uses). The byte gate serializes each
//! answer through the wire encoder with the volatile `\timing` stats frame
//! stripped (its wall-clock fields can never be bit-stable) and compares the
//! raw frames. See `docs/SHARDING.md` for why equality is exact and not
//! approximate.

use hermes::coord::{validate_shard_map, Coordinator, ShardSpec};
use hermes::core::{HermesEngine, SharedEngine};
use hermes::exec::ExecPolicy;
use hermes::server::protocol::write_response;
use hermes::server::{
    ClientError, ConnectOptions, HermesClient, Response, Server, ServerConfig, ServerHandle,
};
use hermes::sql::{self, Frame, QueryOutcome, Value};
use hermes::trajectory::Trajectory;
use hermes_bench::{maritime_standard, urban_with};

/// One seeded dataset plus the statements the gate replays on every topology.
struct Workload {
    label: &'static str,
    trajectories: Vec<Trajectory>,
    /// The BUILD INDEX chunk duration — shard cuts must be multiples of it.
    chunk_ms: i64,
    build: String,
    queries: Vec<String>,
    span: (i64, i64),
}

fn span(trajectories: &[Trajectory]) -> (i64, i64) {
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

/// The dense urban commute grid: short span (~28 min), so it is indexed with
/// 0.1-hour chunks and cut into 6-minute-aligned shard slices.
fn urban_workload() -> Workload {
    let trajectories = urban_with(36, 0xC0).trajectories;
    let (lo, hi) = span(&trajectories);
    let chunk_ms = 360_000;
    let queries = vec![
        "SELECT INFO(data);".to_string(),
        format!("SELECT RANGE(data, {lo}, {hi});"),
        format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 180000, 250, 600000);"),
        format!("SELECT HISTOGRAM(data, {lo}, {hi}, {chunk_ms});"),
        "SELECT S2T(data, 60, 0.35, 0.05, 180000, 250);".to_string(),
    ];
    Workload {
        label: "urban",
        trajectories,
        chunk_ms,
        build: "BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;".to_string(),
        queries,
        span: (lo, hi),
    }
}

/// The maritime lanes scenario: ~3.4 h of voyages, 1-hour chunks.
fn maritime_workload() -> Workload {
    let trajectories = maritime_standard(0xC1).trajectories;
    let (lo, hi) = span(&trajectories);
    let chunk_ms = 3_600_000;
    let queries = vec![
        "SELECT INFO(data);".to_string(),
        format!("SELECT RANGE(data, {lo}, {hi});"),
        format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 600000, 2500, 2700000);"),
        format!("SELECT HISTOGRAM(data, {lo}, {hi}, {chunk_ms});"),
        "SELECT S2T(data, 800, 0.35, 0.05, 600000, 2500);".to_string(),
    ];
    Workload {
        label: "maritime",
        trajectories,
        chunk_ms,
        build: "BUILD INDEX ON data WITH CHUNK 1 HOURS SIGMA 800 EPSILON 2500;".to_string(),
        queries,
        span: (lo, hi),
    }
}

/// Interior shard boundaries for an `n_shards` topology: near-equidistant
/// cuts rounded to the chunk grid, all strictly inside the data span so every
/// topology genuinely splits the data.
fn chunk_cuts((lo, hi): (i64, i64), chunk_ms: i64, n_shards: usize) -> Vec<i64> {
    let mut cuts: Vec<i64> = (1..n_shards as i64)
        .map(|i| {
            let raw = lo + (hi - lo) * i / n_shards as i64;
            (raw + chunk_ms / 2).div_euclid(chunk_ms) * chunk_ms
        })
        .collect();
    for i in 1..cuts.len() {
        if cuts[i] <= cuts[i - 1] {
            cuts[i] = cuts[i - 1] + chunk_ms;
        }
    }
    assert!(
        cuts.iter().all(|c| *c > lo && *c < hi),
        "cuts {cuts:?} must fall inside the data span ({lo}, {hi})"
    );
    cuts
}

/// N loopback shards plus a coordinator in front of them.
struct Topology {
    /// Shard handles in slice order; kept alive for the test's duration and
    /// individually killable.
    shards: Vec<ServerHandle>,
    coord: ServerHandle<Coordinator>,
    cuts: Vec<i64>,
}

fn spawn_topology(n_shards: usize, workload: &Workload) -> Topology {
    let cuts = chunk_cuts(workload.span, workload.chunk_ms, n_shards);
    let mut shards = Vec::with_capacity(n_shards);
    let mut specs = Vec::with_capacity(n_shards);
    for k in 0..n_shards {
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
            start_ms: if k == 0 { i64::MIN } else { cuts[k - 1] },
            end_ms: if k + 1 == n_shards { i64::MAX } else { cuts[k] },
        });
        shards.push(handle);
    }
    validate_shard_map(&mut specs).expect("valid shard map");
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");
    Topology {
        shards,
        coord,
        cuts,
    }
}

/// The single-node reference: same data, same statements, one engine.
fn reference_engine(workload: &Workload) -> HermesEngine {
    let mut engine = HermesEngine::new();
    engine.create_dataset("data").expect("create");
    engine
        .load_trajectories("data", workload.trajectories.clone())
        .expect("load");
    sql::execute(&mut engine, &workload.build).expect("build index");
    engine
}

/// Creates, ingests and indexes the workload through the coordinator's wire
/// protocol, the way any client would.
fn load_via(client: &mut HermesClient, workload: &Workload) {
    client.query("CREATE DATASET data;").expect("create");
    let accepted = client
        .ingest("data", &workload.trajectories)
        .expect("ingest");
    assert_eq!(accepted as usize, workload.trajectories.len());
    client.query(&workload.build).expect("build index");
}

/// The gate encoding: the result frame serialized exactly as the wire writes
/// it, with the wall-clock stats frame stripped.
fn row_bytes(outcome: QueryOutcome) -> Vec<u8> {
    let QueryOutcome::Rows { frame, .. } = outcome else {
        panic!("expected a rows response");
    };
    let mut buf = Vec::new();
    write_response(&mut buf, &Response::Rows { frame, stats: None }).expect("encode");
    buf
}

fn result_frame(outcome: QueryOutcome) -> Frame {
    match outcome {
        QueryOutcome::Rows { frame, .. } => frame,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// `(start, end)` millis of every cluster row in a QUT/S2T answer frame,
/// skipping the trailing `cluster = -1` outlier-summary row (Null lifespan).
fn cluster_spans(frame: &Frame) -> Vec<(i64, i64)> {
    (0..frame.num_rows())
        .filter_map(|r| {
            let s = match frame.get(r, "start") {
                Some(Value::Timestamp(t)) => t.millis(),
                Some(Value::Null) => return None,
                v => panic!("expected a start timestamp, got {v:?}"),
            };
            let e = match frame.get(r, "end") {
                Some(Value::Timestamp(t)) => t.millis(),
                v => panic!("expected an end timestamp, got {v:?}"),
            };
            Some((s, e))
        })
        .collect()
}

/// Every `scope` value in a `SHOW STATS` frame.
fn stat_scopes(frame: &Frame) -> Vec<String> {
    (0..frame.num_rows())
        .map(|r| match frame.get(r, "scope") {
            Some(Value::Text(s)) => s.clone(),
            v => panic!("expected a scope, got {v:?}"),
        })
        .collect()
}

/// The tentpole gate: for both seeded datasets and every topology size, each
/// read statement answered through the coordinator is byte-identical to the
/// single-node engine.
#[test]
fn sharded_topologies_answer_byte_identical_to_single_node() {
    for workload in [urban_workload(), maritime_workload()] {
        let mut reference = reference_engine(&workload);
        let expected: Vec<Vec<u8>> = workload
            .queries
            .iter()
            .map(|q| row_bytes(sql::execute(&mut reference, q).expect(q)))
            .collect();
        for n_shards in [1usize, 2, 4] {
            let topology = spawn_topology(n_shards, &workload);
            let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
            load_via(&mut client, &workload);
            for (q, want) in workload.queries.iter().zip(&expected) {
                let got = row_bytes(client.query(q).expect(q));
                assert!(
                    got == *want,
                    "`{q}` diverges from single-node on the {n_shards}-shard {} topology",
                    workload.label
                );
            }
        }
    }
}

/// A window that straddles a shard cut must come back with clusters *merged
/// across the boundary* — the answer contains at least one cluster whose
/// lifespan spans the cut, and it is still byte-identical to single-node.
#[test]
fn clusters_are_merged_across_shard_boundaries() {
    let workload = maritime_workload();
    let (lo, hi) = workload.span;
    let mut reference = reference_engine(&workload);
    let qut = format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 600000, 2500, 2700000);");
    let want = row_bytes(sql::execute(&mut reference, &qut).expect("single-node qut"));

    let topology = spawn_topology(2, &workload);
    let cut = topology.cuts[0];
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);
    let outcome = client.query(&qut).expect("sharded qut");
    let frame = result_frame(outcome);
    let spans = cluster_spans(&frame);
    assert!(
        spans.iter().any(|(s, e)| *s < cut && *e > cut),
        "no cluster straddles the shard cut at {cut} (spans: {spans:?}) — \
         the border merge was never exercised"
    );
    let mut got = Vec::new();
    write_response(&mut got, &Response::Rows { frame, stats: None }).expect("encode");
    assert!(
        got == want,
        "boundary-straddling QUT diverges from single-node"
    );
}

/// Windows strictly inside one shard's slice take the verbatim-forward fast
/// path; the answer must still match single-node byte-for-byte.
#[test]
fn interior_windows_forward_to_one_shard_bit_exactly() {
    let workload = urban_workload();
    let (lo, hi) = workload.span;
    let mut reference = reference_engine(&workload);
    let topology = spawn_topology(2, &workload);
    let cut = topology.cuts[0];
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);
    // One window interior to each shard's slice.
    for (wi, we) in [(lo, cut - 1), (cut + 1, hi)] {
        for q in [
            format!("SELECT RANGE(data, {wi}, {we});"),
            format!("SELECT QUT(data, {wi}, {we}, 0.35, 0.05, 180000, 250, 600000);"),
        ] {
            let want = row_bytes(sql::execute(&mut reference, &q).expect(&q));
            let got = row_bytes(client.query(&q).expect(&q));
            assert!(got == want, "interior `{q}` diverges from single-node");
        }
    }
}

/// `SHOW STATS` through the coordinator carries the coordinator scope, one
/// registry scope per shard, and the shards' own re-scoped rows.
#[test]
fn show_stats_gains_the_coordinator_scopes() {
    let workload = urban_workload();
    let topology = spawn_topology(2, &workload);
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);
    let scopes = stat_scopes(&result_frame(client.query("SHOW STATS;").expect("stats")));
    for needed in [
        "coordinator",
        "coordinator.s0",
        "coordinator.s1",
        "s0.server",
        "s1.server",
    ] {
        assert!(
            scopes.iter().any(|s| s == needed),
            "SHOW STATS is missing scope {needed:?} (got {scopes:?})"
        );
    }
}

/// Killing one shard mid-session turns boundary-spanning statements into a
/// typed error frame *naming the dead shard*, while statements routable to
/// the survivor keep answering bit-exactly on the same connection.
#[test]
fn a_dead_shard_is_named_and_survivors_keep_serving() {
    let workload = urban_workload();
    let (lo, hi) = workload.span;
    let mut reference = reference_engine(&workload);
    let Topology {
        mut shards,
        coord,
        cuts,
    } = spawn_topology(2, &workload);
    let cut = cuts[0];
    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    // Sanity: the spanning window answers before the failure.
    let spanning = format!("SELECT RANGE(data, {lo}, {hi});");
    client.query(&spanning).expect("pre-kill spanning range");

    // Hard-kill shard s0: sockets are severed without any protocol goodbye.
    shards.remove(0).kill();

    match client.query(&spanning) {
        Err(ClientError::Server { message, .. }) => assert!(
            message.contains("shard 's0'"),
            "error frame does not name the dead shard: {message:?}"
        ),
        other => panic!("expected a server error frame naming s0, got {other:?}"),
    }

    // The same connection still answers everything routable to the survivor.
    for q in [
        format!("SELECT RANGE(data, {}, {hi});", cut + 1),
        format!(
            "SELECT QUT(data, {}, {hi}, 0.35, 0.05, 180000, 250, 600000);",
            cut + 1
        ),
    ] {
        let want = row_bytes(sql::execute(&mut reference, &q).expect(&q));
        let got = row_bytes(client.query(&q).expect(&q));
        assert!(
            got == want,
            "survivor-routed `{q}` diverges from single-node"
        );
    }

    // SHOW STATS stays resilient and reports the shard as down.
    let frame = result_frame(client.query("SHOW STATS;").expect("post-kill stats"));
    let dead = (0..frame.num_rows()).any(|r| {
        matches!(frame.get(r, "scope"), Some(Value::Text(s)) if s == "coordinator.s0")
            && matches!(frame.get(r, "metric"), Some(Value::Text(m)) if m == "alive")
            && matches!(frame.get(r, "value"), Some(Value::Int(0)))
    });
    assert!(
        dead,
        "coordinator.s0 should report alive = 0 after the kill"
    );
}

/// Prepared statements flow through the coordinator: PREPARE once, EXECUTE
/// with different bindings, byte-identical to single-node each time.
#[test]
fn prepared_statements_route_through_the_coordinator() {
    let workload = maritime_workload();
    let (lo, hi) = workload.span;
    let mut reference = reference_engine(&workload);
    let topology = spawn_topology(2, &workload);
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let prepared = client
        .prepare("SELECT RANGE(data, $1, $2);")
        .expect("prepare");
    for (wi, we) in [(lo, hi), (lo, topology.cuts[0] - 1)] {
        let want = row_bytes(
            sql::execute(&mut reference, &format!("SELECT RANGE(data, {wi}, {we});"))
                .expect("single-node range"),
        );
        let got = row_bytes(
            client
                .execute_prepared(prepared, &[Value::Int(wi), Value::Int(we)])
                .expect("execute prepared"),
        );
        assert!(
            got == want,
            "prepared RANGE({wi}, {we}) diverges from single-node"
        );
    }
}
