//! Replication availability gate: a coordinator over 2 shards × 2 replicas,
//! with **every** endpoint behind a fault-injection proxy
//! (`common::faultproxy`), must keep answering QUT / S2T / RANGE
//! **byte-identically** to a single-node engine while primaries are killed
//! mid-query, stalled, truncated mid-frame or blackholed — zero
//! client-visible errors on the read path.
//!
//! Every fault fires at a deterministic protocol position: tests gate on
//! *observed proxy state* ([`FaultProxy::wait`] over byte counters), never
//! on elapsed time. The `chaos_smoke` test at the bottom is `#[ignore]`d
//! from the default run and driven by the CI chaos step, which uploads the
//! proxies' event logs (`FAULTPROXY_LOG`) as an artifact on failure.

mod common;

use common::faultproxy::{Dir, Fault, FaultProxy};
use hermes::coord::{validate_shard_map, Coordinator, FailoverPolicy, ShardSpec};
use hermes::core::{HermesEngine, SharedEngine};
use hermes::exec::ExecPolicy;
use hermes::server::protocol::write_response;
use hermes::server::{
    ConnectOptions, HermesClient, Request, Response, Server, ServerConfig, ServerHandle,
};
use hermes::sql::{self, Frame, QueryOutcome, Value};
use hermes::trajectory::Trajectory;
use hermes_bench::urban_with;
use std::time::Duration;

/// How long a test lets a reply it expects promptly stay missing before it
/// fails. Generous — it bounds a failing run, it never paces a passing one.
const WAIT_FOR_REPLY: Duration = Duration::from_secs(30);

/// The seeded dataset plus the read statements the gate replays after every
/// fault. Same dense urban grid as `tests/sharding.rs`: ~28 min span,
/// 0.1-hour chunks, cut into 6-minute-aligned shard slices.
struct Workload {
    trajectories: Vec<Trajectory>,
    chunk_ms: i64,
    build: String,
    queries: Vec<String>,
    span: (i64, i64),
}

fn urban_workload() -> Workload {
    let trajectories = urban_with(36, 0xC0).trajectories;
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
    let queries = vec![
        format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 180000, 250, 600000);"),
        "SELECT S2T(data, 60, 0.35, 0.05, 180000, 250);".to_string(),
        format!("SELECT RANGE(data, {lo}, {hi});"),
    ];
    Workload {
        trajectories,
        chunk_ms: 360_000,
        build: "BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;".to_string(),
        queries,
        span: (lo, hi),
    }
}

/// 2 shards × `replicas` endpoints, every endpoint behind its own
/// [`FaultProxy`]; `proxies[shard][0]` fronts the primary.
struct ReplicatedTopology {
    /// Backing `hermes-serve` processes, `servers[shard][replica]`.
    servers: Vec<Vec<ServerHandle>>,
    proxies: Vec<Vec<FaultProxy>>,
    coord: ServerHandle<Coordinator>,
}

/// Connection options tuned for fault tests: no dial retries (the ladder is
/// the retry mechanism under test) and an optional per-request deadline.
fn fault_opts(read_timeout: Option<Duration>) -> ConnectOptions {
    ConnectOptions {
        retries: 0,
        connect_timeout: Duration::from_secs(2),
        read_timeout,
        ..ConnectOptions::default()
    }
}

/// Failover policy tuned for tests: tiny jittered backoff so ladders walk
/// fast, hedging only where a test turns it on.
fn fast_failover(hedge: Option<Duration>) -> FailoverPolicy {
    FailoverPolicy {
        hedge,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
}

fn spawn_replicated(
    workload: &Workload,
    replicas: usize,
    opts: ConnectOptions,
    failover: FailoverPolicy,
) -> ReplicatedTopology {
    let (lo, hi) = workload.span;
    // One interior cut on the chunk grid, strictly inside the span.
    let cut =
        ((lo + hi) / 2 + workload.chunk_ms / 2).div_euclid(workload.chunk_ms) * workload.chunk_ms;
    assert!(cut > lo && cut < hi, "cut {cut} outside span ({lo}, {hi})");
    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    let mut specs = Vec::new();
    for (k, (start_ms, end_ms)) in [(i64::MIN, cut), (cut, i64::MAX)].into_iter().enumerate() {
        let mut shard_servers = Vec::with_capacity(replicas);
        let mut shard_proxies = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let handle = Server::bind(
                "127.0.0.1:0",
                SharedEngine::default(),
                ServerConfig::default(),
            )
            .expect("bind shard")
            .spawn()
            .expect("spawn shard");
            let proxy = FaultProxy::start(handle.addr()).expect("start proxy");
            shard_servers.push(handle);
            shard_proxies.push(proxy);
        }
        specs.push(ShardSpec {
            name: format!("s{k}"),
            addr: shard_proxies[0].addr().to_string(),
            replicas: shard_proxies[1..]
                .iter()
                .map(|p| p.addr().to_string())
                .collect(),
            start_ms,
            end_ms,
        });
        servers.push(shard_servers);
        proxies.push(shard_proxies);
    }
    validate_shard_map(&mut specs).expect("valid shard map");
    // At least two fan-out threads: the out-of-order test needs the two
    // shard partials genuinely in flight at the same time.
    let policy = ExecPolicy::new(2).expect("two fan-out threads");
    let coordinator = Coordinator::with_failover(specs, opts, policy, failover);
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");
    ReplicatedTopology {
        servers,
        proxies,
        coord,
    }
}

impl ReplicatedTopology {
    /// Dumps every proxy's event log to `FAULTPROXY_LOG` (no-op when the
    /// variable is unset) — called from the chaos test's drop guard so a
    /// panicking run still leaves the artifact behind.
    fn dump_event_logs(&self) {
        for (k, shard_proxies) in self.proxies.iter().enumerate() {
            for (r, proxy) in shard_proxies.iter().enumerate() {
                proxy.dump_event_log(&format!("s{k} replica {r}"));
            }
        }
    }
}

/// The single-node reference: same data, same statements, one engine.
fn reference_bytes(workload: &Workload) -> Vec<Vec<u8>> {
    let mut engine = HermesEngine::new();
    engine.create_dataset("data").expect("create");
    engine
        .load_trajectories("data", workload.trajectories.clone())
        .expect("load");
    sql::execute(&mut engine, &workload.build).expect("build index");
    workload
        .queries
        .iter()
        .map(|q| row_bytes(sql::execute(&mut engine, q).expect(q)))
        .collect()
}

/// Creates, ingests and indexes the workload through the coordinator's wire
/// protocol; the writes fan to **every** endpoint, so all four replicas end
/// up byte-identical — the invariant every failover test leans on.
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

/// Replays every gate query and asserts byte-identity with the reference.
fn assert_gate(client: &mut HermesClient, workload: &Workload, want: &[Vec<u8>], when: &str) {
    for (q, want) in workload.queries.iter().zip(want) {
        let got = row_bytes(
            client
                .query(q)
                .unwrap_or_else(|e| panic!("{when}: `{q}`: {e}")),
        );
        assert!(got == *want, "{when}: `{q}` diverges from single-node");
    }
}

/// The `value` of one `SHOW STATS` row by scope and metric.
fn stat_value(frame: &Frame, scope: &str, metric: &str) -> i64 {
    (0..frame.num_rows())
        .find_map(|r| {
            match (
                frame.get(r, "scope"),
                frame.get(r, "metric"),
                frame.get(r, "value"),
            ) {
                (Some(Value::Text(s)), Some(Value::Text(m)), Some(Value::Int(v)))
                    if s == scope && m == metric =>
                {
                    Some(*v)
                }
                _ => None,
            }
        })
        .unwrap_or_else(|| panic!("SHOW STATS has no row ({scope}, {metric})"))
}

fn show_stats(client: &mut HermesClient) -> Frame {
    match client.query("SHOW STATS;").expect("stats") {
        QueryOutcome::Rows { frame, .. } => frame,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Held response bytes: the proxy has read more from the upstream than it
/// forwarded to the client — i.e. a response is in flight and held.
fn response_held(snap: &common::faultproxy::Snapshot) -> bool {
    snap.received[Dir::ToClient as usize] > snap.forwarded[Dir::ToClient as usize]
}

/// Baseline sanity: with every endpoint behind a transparent proxy and no
/// faults armed, the 2×2 topology answers byte-identically — the proxies
/// themselves add nothing.
#[test]
fn replicated_topology_is_byte_identical_through_proxies() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);
    assert_gate(&mut client, &workload, &want, "no faults");
    // SHOW STATS carries per-endpoint liveness rows for every replica.
    let frame = show_stats(&mut client);
    for scope in ["coordinator.s0", "coordinator.s1"] {
        assert_eq!(stat_value(&frame, scope, "endpoints"), 2);
        assert_eq!(stat_value(&frame, scope, "endpoint.0.alive"), 1);
        assert_eq!(stat_value(&frame, scope, "endpoint.1.alive"), 1);
        assert_eq!(stat_value(&frame, scope, "failovers"), 0);
    }
}

/// The headline gate: the s0 primary is RST-killed **mid-query** — its
/// response is provably in flight (held by the proxy) when the connection is
/// cut — and the client still gets every answer byte-identical, with zero
/// visible errors. SHOW STATS records the failover and the dead endpoint.
#[test]
fn killing_the_primary_mid_query_fails_over_bit_exactly() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let primary = &topology.proxies[0][0];
    // Hold s0's next response at the proxy, then kill the primary exactly
    // when the response is mid-flight — deterministic, no timing involved.
    primary.set_fault_dir(Dir::ToClient, Fault::Delay);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            primary.wait("response held mid-frame", response_held);
            primary.kill();
        });
        assert_gate(&mut client, &workload, &want, "primary killed mid-query");
    });

    let frame = show_stats(&mut client);
    assert!(
        stat_value(&frame, "coordinator.s0", "failovers") >= 1,
        "the mid-query kill must be recorded as a failover"
    );
    assert_eq!(stat_value(&frame, "coordinator.s0", "endpoint.0.alive"), 0);
    assert_eq!(stat_value(&frame, "coordinator.s0", "endpoint.1.alive"), 1);
    assert_eq!(stat_value(&frame, "coordinator.s0", "alive"), 1);
    // s1 never failed over.
    assert_eq!(stat_value(&frame, "coordinator.s1", "failovers"), 0);
}

/// Hedged reads: the s0 primary stalls (responses held indefinitely until
/// released), so the hedge window elapses, the duplicate fires at the
/// replica and **wins** — deterministically, whatever the actual timing,
/// because the primary cannot answer while held. The client sees the
/// byte-exact answer; SHOW STATS shows hedges fired and won.
#[test]
fn hedged_reads_fire_and_win_when_the_primary_stalls() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(
        &workload,
        2,
        fault_opts(None),
        fast_failover(Some(Duration::from_millis(20))),
    );
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let primary = &topology.proxies[0][0];
    primary.set_fault_dir(Dir::ToClient, Fault::Delay);
    assert_gate(&mut client, &workload, &want, "primary stalled");
    // Release the stall before reading stats so the hedge losers drain.
    primary.clear();

    let frame = show_stats(&mut client);
    let fired = stat_value(&frame, "coordinator.s0", "hedges_fired");
    let won = stat_value(&frame, "coordinator.s0", "hedges_won");
    assert!(fired >= 1, "no hedge fired against the stalled primary");
    assert!(won >= 1, "the replica's hedge never won (fired {fired})");
    assert_eq!(stat_value(&frame, "coordinator.s0", "endpoint.1.alive"), 1);

    // With the stall lifted the topology keeps answering byte-exactly —
    // the ignored hedge losers left no desynchronized pooled connection.
    assert_gate(&mut client, &workload, &want, "stall released");
}

/// A response truncated mid-frame (FIN after 10 bytes — inside the frame
/// header of any gate answer) must fail over bit-exactly, and the broken
/// connection must never return to the pool: once the fault is cleared, the
/// same topology keeps answering byte-identically.
#[test]
fn a_mid_frame_truncation_fails_over_and_never_repools_the_connection() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let primary = &topology.proxies[0][0];
    primary.set_fault_dir(Dir::ToClient, Fault::TruncateAfter(10));
    assert_gate(
        &mut client,
        &workload,
        &want,
        "response truncated mid-frame",
    );
    primary.clear();
    // The desynced stream was dropped, not pooled: every subsequent query
    // on fresh primary connections is still byte-exact.
    assert_gate(&mut client, &workload, &want, "after truncation cleared");

    let frame = show_stats(&mut client);
    assert!(stat_value(&frame, "coordinator.s0", "failovers") >= 1);
}

/// A per-request deadline (`--read-timeout-ms`) on one shard only: s0's
/// primary blackholes its response, the read deadline fires for that
/// endpoint alone, and the read fails over to the replica — while s1 is
/// untouched. The merged answers stay byte-identical.
#[test]
fn a_deadline_on_one_shard_fails_over_to_its_replica() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(
        &workload,
        2,
        fault_opts(Some(Duration::from_millis(500))),
        fast_failover(None),
    );
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let primary = &topology.proxies[0][0];
    primary.set_fault_dir(Dir::ToClient, Fault::Blackhole);
    assert_gate(&mut client, &workload, &want, "primary blackholed");

    let frame = show_stats(&mut client);
    assert!(
        stat_value(&frame, "coordinator.s0", "failovers") >= 1,
        "the blackholed primary must have failed over on its deadline"
    );
    assert_eq!(stat_value(&frame, "coordinator.s1", "failovers"), 0);
}

/// Out-of-order shard completion: s0's partial is held while s1's completes,
/// then released — the pipelined downstream must reassemble the late partial
/// into a byte-identical merged answer, with no failover at all.
#[test]
fn out_of_order_shard_completion_merges_bit_exactly() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let s0 = &topology.proxies[0][0];
    let s1 = &topology.proxies[1][0];
    let s1_done = s1.snapshot().forwarded[Dir::ToClient as usize];
    s0.set_fault_dir(Dir::ToClient, Fault::Delay);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Release s0 only after s1's partial has fully left its proxy —
            // s1 provably completes first, s0 finishes late.
            s1.wait("s1's partial forwarded", |snap| {
                snap.forwarded[Dir::ToClient as usize] > s1_done
            });
            s0.wait("s0's partial held", response_held);
            s0.clear();
        });
        assert_gate(&mut client, &workload, &want, "s0 partial delayed past s1");
    });

    let frame = show_stats(&mut client);
    // Slow is not broken: the late partial completed on the primary.
    assert_eq!(stat_value(&frame, "coordinator.s0", "failovers"), 0);
    assert_eq!(stat_value(&frame, "coordinator.s1", "failovers"), 0);
}

/// Coordinator workers wait on shard sockets, they do not compute — so how
/// many statements the coordinator carries at once must not be bounded by
/// the machine's core count (the engine backend's worker pool is: one per
/// core, at most 8). Nine connections: eight spanning QUTs whose s0 partials
/// are held at the proxy, provably all in flight (each needs its own
/// checked-out s0 connection, and the proxy counts them), then a ninth
/// statement that must be answered *while* they are held. Released, every
/// held answer is byte-identical to the single-node reference.
#[test]
fn held_statements_do_not_starve_other_coordinator_connections() {
    /// The engine pool's upper clamp: were the coordinator to inherit that
    /// sizing, this many held statements would occupy every worker on any
    /// machine.
    const HELD: usize = 8;
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 1, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let s0 = &topology.proxies[0][0];
    assert!(
        s0.snapshot().open_conns < HELD,
        "the load alone must not have opened {HELD} s0 connections"
    );
    s0.set_fault_dir(Dir::ToClient, Fault::Delay);

    let spanning_qut = Request::Query {
        sql: workload.queries[0].clone(),
    };
    let mut held: Vec<HermesClient> = (0..HELD)
        .map(|_| HermesClient::connect(topology.coord.addr()).expect("connect"))
        .collect();
    for conn in &mut held {
        conn.send(&spanning_qut).expect("send");
    }
    // No reply can pass the proxy, so no s0 connection returns to the pool:
    // HELD open connections means HELD statements are waiting on s0.
    s0.wait("every held statement is waiting on s0", |snap| {
        snap.open_conns >= HELD
    });

    // A bounded read timeout turns a starved coordinator into a failure
    // instead of a hung test.
    let mut ninth =
        HermesClient::connect_with(topology.coord.addr(), &fault_opts(Some(WAIT_FOR_REPLY)))
            .expect("connect");
    ninth
        .query("SHOW TRACES;")
        .expect("answered while the other statements are held");

    s0.clear();
    for (i, conn) in held.iter_mut().enumerate() {
        let Response::Rows { frame, .. } = conn.receive().expect("released answer") else {
            panic!("held statement {i} did not answer rows");
        };
        let got = row_bytes(QueryOutcome::Rows { frame, stats: None });
        assert!(
            got == want[0],
            "held statement {i} diverges from single-node"
        );
    }
}

/// Writes are **all-or-error**: with one replica of s0 killed, a broadcast
/// write fails with an error naming the shard (never silently diverging the
/// replica set); reads keep serving from the live endpoints. After the
/// replica returns, fresh writes fan to the full set again.
#[test]
fn writes_are_all_or_error_while_a_replica_is_down() {
    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    let replica = &topology.proxies[0][1];
    replica.kill();
    match client.query("CREATE DATASET spare;") {
        Err(hermes::server::ClientError::Server { message, .. }) => assert!(
            message.contains("shard 's0'"),
            "the write error must name the shard with the dead replica: {message:?}"
        ),
        other => panic!("a write with a dead replica must fail all-or-error, got {other:?}"),
    }
    // The read path is unaffected — the primary serves.
    assert_gate(&mut client, &workload, &want, "replica down");

    replica.revive();
    client
        .query("CREATE DATASET spare2;")
        .expect("write after the replica returned");
    assert_gate(&mut client, &workload, &want, "replica revived");
}

/// The CI chaos step (`--ignored chaos_smoke`): repeated scripted kills of
/// alternating primaries, each mid-spanning-query, with revivals in between.
/// Zero failed statements, every frame byte-identical, and the proxies'
/// event logs land in `FAULTPROXY_LOG` for the failure artifact.
#[test]
#[ignore = "chaos smoke: run explicitly (CI chaos step)"]
fn chaos_smoke() {
    /// Dumps the event logs even when an assertion panics mid-run.
    struct LogGuard<'a>(&'a ReplicatedTopology);
    impl Drop for LogGuard<'_> {
        fn drop(&mut self) {
            self.0.dump_event_logs();
        }
    }

    let workload = urban_workload();
    let want = reference_bytes(&workload);
    let topology = spawn_replicated(&workload, 2, fault_opts(None), fast_failover(None));
    let guard = LogGuard(&topology);
    let mut client = HermesClient::connect(topology.coord.addr()).expect("connect");
    load_via(&mut client, &workload);

    // The endpoint each shard's reads currently land on: after a kill the
    // other replica takes over, so the next round kills *that* one — every
    // round provably cuts a connection with a response in flight.
    let mut serving = [0usize; 2];
    for round in 0..6 {
        let shard = round % 2;
        let idx = serving[shard];
        let victim = &topology.proxies[shard][idx];
        victim.set_fault_dir(Dir::ToClient, Fault::Delay);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                victim.wait("response held mid-frame", response_held);
                victim.kill();
            });
            assert_gate(
                &mut client,
                &workload,
                &want,
                &format!("round {round}: s{shard} endpoint {idx} killed mid-query"),
            );
        });
        victim.revive();
        serving[shard] = 1 - idx;
        assert_gate(
            &mut client,
            &workload,
            &want,
            &format!("round {round}: s{shard} endpoint {idx} revived"),
        );
    }

    let frame = show_stats(&mut client);
    for scope in ["coordinator.s0", "coordinator.s1"] {
        assert!(
            stat_value(&frame, scope, "failovers") >= 3,
            "{scope}: every scripted kill must be recorded as a failover"
        );
    }
    assert_eq!(topology.servers.iter().flatten().count(), 4);
    drop(guard);
}
