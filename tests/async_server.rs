//! What the one serving loop promises **every** backend, checked against
//! both: the single-node engine and a real coordinator over two in-process
//! shards. Each case runs the same body twice from one helper
//! ([`on_both_backends`]) — request pipelining, per-request deadlines,
//! admission-control backpressure and recovery, and the typed error codes of
//! the connection cap and of unparseable peers.
//!
//! The engine-only cases (snapshot epochs, the stalled client) and the
//! fake-backend panic-isolation case live in
//! `crates/server/tests/async_server.rs`.

use hermes::coord::{validate_shard_map, Coordinator, ShardSpec};
use hermes::core::SharedEngine;
use hermes::exec::ExecPolicy;
use hermes::server::protocol::{read_handshake, read_response, write_handshake};
use hermes::server::{
    ClientError, ConnectOptions, ErrorCode, HermesClient, Request, Response, Server, ServerConfig,
    ServerHandle, ServerMetrics, MAX_MESSAGE_BYTES,
};
use hermes::sql::Value;
use hermes::trajectory::{Point, Timestamp, Trajectory};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const HOUR_MS: i64 = 3_600_000;

fn traj(id: u64, y: f64, t0: i64) -> Trajectory {
    Trajectory::new(
        id,
        id,
        (0..30)
            .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(t0 + i as i64 * 60_000)))
            .collect(),
    )
    .unwrap()
}

/// Eighteen flights, alternating between the first and the second 4-hour
/// chunk — so the coordinator's two shards (cut at 4 h) hold nine each.
fn dataset() -> Vec<Trajectory> {
    (0..18)
        .map(|i| traj(i, i as f64 * 10.0, (i as i64 % 2) * 4 * HOUR_MS))
        .collect()
}

const BUILD: &str = "BUILD INDEX ON flights WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;";

/// One server under test and what a case steers it with.
struct Served {
    backend: &'static str,
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    /// An engine whose commit mutex every write statement sent to `addr`
    /// serializes behind: the served engine itself, or — behind the
    /// coordinator, which broadcasts writes — one shard's. Holding it is how
    /// a case makes a statement slow without a slow statement.
    write_path: SharedEngine,
}

/// Runs `case` against an engine served with `config`, then against a
/// coordinator served with the same `config` over two default shards, both
/// preloaded with [`dataset`] through their own wire protocol.
/// Waits until the serving loop has settled every connection a client has
/// closed. A hang-up reaches the loop asynchronously, so without this a case
/// that counts connection slots could find one still held by the previous
/// client.
fn until_no_live_connections(metrics: &ServerMetrics) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.connections_active.get() != 0 {
        assert!(
            Instant::now() < deadline,
            "a closed connection was never settled"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

fn on_both_backends(config: ServerConfig, case: impl Fn(&Served)) {
    let load = |addr: SocketAddr| {
        let mut client = HermesClient::connect(addr).unwrap();
        client.query("CREATE DATASET flights;").unwrap();
        assert_eq!(client.ingest("flights", &dataset()).unwrap(), 18);
    };
    let shard = || {
        Server::bind(
            "127.0.0.1:0",
            SharedEngine::default(),
            ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap()
    };

    let engine = SharedEngine::default();
    let server = Server::bind("127.0.0.1:0", engine.clone(), config.clone())
        .unwrap()
        .spawn()
        .unwrap();
    load(server.addr());
    until_no_live_connections(&server.metrics());
    case(&Served {
        backend: "engine",
        addr: server.addr(),
        metrics: server.metrics(),
        write_path: engine,
    });
    server.shutdown();

    let shards: Vec<ServerHandle> = vec![shard(), shard()];
    let mut specs: Vec<ShardSpec> = [(i64::MIN, 4 * HOUR_MS), (4 * HOUR_MS, i64::MAX)]
        .into_iter()
        .zip(&shards)
        .enumerate()
        .map(|(k, ((start_ms, end_ms), handle))| ShardSpec {
            name: format!("s{k}"),
            addr: handle.addr().to_string(),
            replicas: Vec::new(),
            start_ms,
            end_ms,
        })
        .collect();
    validate_shard_map(&mut specs).unwrap();
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let coord = Server::bind("127.0.0.1:0", coordinator, config)
        .unwrap()
        .spawn()
        .unwrap();
    load(coord.addr());
    until_no_live_connections(&coord.metrics());
    case(&Served {
        backend: "coordinator",
        addr: coord.addr(),
        metrics: coord.metrics(),
        write_path: shards[0].engine(),
    });
    coord.shutdown();
}

#[test]
fn pipelined_prepared_statements_interleave_on_one_connection() {
    on_both_backends(ServerConfig::default(), |served| {
        let on = served.backend;
        let mut client = HermesClient::connect(served.addr).unwrap();
        client.query(BUILD).unwrap();
        let range = client.prepare("SELECT RANGE(flights, $1, $2);").unwrap();
        let info = client.prepare("SELECT INFO(flights);").unwrap();

        // Burst a mixed pipeline of prepared executions and plain queries
        // without reading a single response, then drain: responses must come
        // back in request order, each with its own correct shape, and every
        // RANGE equal to its answer asked one at a time.
        const ROUNDS: usize = 25;
        let range_end = |i: usize| 900_000 + i as i64 * 10_000;
        let expected: Vec<Value> = (0..ROUNDS)
            .map(|i| {
                let sql = format!("SELECT RANGE(flights, 0, {});", range_end(i));
                let outcome = client.query(&sql).unwrap();
                outcome
                    .expect_frame("RANGE")
                    .get(0, "sub_trajectories_in_window")
                    .unwrap()
                    .clone()
            })
            .collect();
        let served_before = served.metrics.queries_served.get();
        for i in 0..ROUNDS {
            client
                .send(&Request::ExecutePrepared {
                    handle: range.0,
                    params: vec![Value::Int(0), Value::Int(range_end(i))],
                })
                .unwrap();
            client
                .send(&Request::ExecutePrepared {
                    handle: info.0,
                    params: vec![],
                })
                .unwrap();
            client
                .send(&Request::Query {
                    sql: "SHOW DATASETS;".into(),
                })
                .unwrap();
        }
        for want in &expected {
            let range_resp = client.receive().unwrap();
            let Response::Rows { frame, .. } = range_resp else {
                panic!("{on}: RANGE answered {range_resp:?}");
            };
            assert_eq!(
                frame.get(0, "sub_trajectories_in_window"),
                Some(want),
                "{on}"
            );
            let info_resp = client.receive().unwrap();
            let Response::Rows { frame, .. } = info_resp else {
                panic!("{on}: INFO answered {info_resp:?}");
            };
            assert_eq!(frame.get(0, "trajectories"), Some(&Value::Int(18)), "{on}");
            let show_resp = client.receive().unwrap();
            let Response::Rows { frame, .. } = show_resp else {
                panic!("{on}: SHOW answered {show_resp:?}");
            };
            assert_eq!(
                frame.get(0, "dataset"),
                Some(&Value::Text("flights".into())),
                "{on}"
            );
        }
        let served_now = served.metrics.queries_served.get() - served_before;
        assert_eq!(served_now, 3 * ROUNDS as u64, "{on}");
    });
}

#[test]
fn deadline_overrun_is_a_typed_error() {
    let config = ServerConfig {
        deadline_ms: Some(150),
        workers: 2,
        ..ServerConfig::default()
    };
    on_both_backends(config, |served| {
        let on = served.backend;
        // Hold the commit mutex longer than the deadline; a write statement
        // dispatched meanwhile serializes behind it and finishes late.
        let engine = served.write_path.clone();
        let blocker = thread::spawn(move || {
            engine.with_write(|_| thread::sleep(Duration::from_millis(500)));
        });
        thread::sleep(Duration::from_millis(50));

        let mut client = HermesClient::connect(served.addr).unwrap();
        let err = client.query("CREATE DATASET late;").unwrap_err();
        match err {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Deadline, "{on}: {message}");
                assert!(message.contains("deadline"), "{on}: {message}");
            }
            other => panic!("{on}: expected a typed deadline error, got {other:?}"),
        }
        blocker.join().unwrap();
        assert!(served.metrics.deadline_misses.get() >= 1, "{on}");

        // The connection survives and fast statements still answer in time.
        assert_eq!(client.query("SHOW THREADS;").unwrap().num_rows(), 1, "{on}");
    });
}

#[test]
fn backpressure_floods_get_typed_errors_and_drain() {
    let config = ServerConfig {
        workers: 1,
        max_pending: 2,
        ..ServerConfig::default()
    };
    on_both_backends(config, |served| {
        let on = served.backend;
        // Pin the lone worker on a slow write so pipelined requests pile up.
        let engine = served.write_path.clone();
        let blocker = thread::spawn(move || {
            engine.with_write(|_| thread::sleep(Duration::from_millis(400)));
        });
        thread::sleep(Duration::from_millis(50));

        let mut client = HermesClient::connect(served.addr).unwrap();
        // Request 1 is a write: it occupies the lone worker, serialized
        // behind the blocker's commit mutex. Request 2 fills the pending
        // bound; 3..=5 must be refused with typed backpressure errors, in
        // pipeline order.
        client
            .send(&Request::Query {
                sql: "CREATE DATASET flood;".into(),
            })
            .unwrap();
        for _ in 0..4 {
            client
                .send(&Request::Query {
                    sql: "SHOW DATASETS;".into(),
                })
                .unwrap();
        }
        assert!(
            matches!(client.receive().unwrap(), Response::Command(_)),
            "{on}"
        );
        assert!(
            matches!(client.receive().unwrap(), Response::Rows { .. }),
            "{on}"
        );
        for i in 2..5 {
            match client.receive() {
                Err(ClientError::Server { code, message }) => {
                    assert_eq!(code, ErrorCode::Backpressure, "{on} req {i}: {message}");
                    assert!(message.contains("overloaded"), "{on} req {i}: {message}");
                }
                other => panic!("{on} req {i}: expected backpressure, got {other:?}"),
            }
        }
        blocker.join().unwrap();
        assert_eq!(served.metrics.backpressure_rejections.get(), 3, "{on}");

        // The flood over, the same connection serves normally again.
        assert_eq!(client.query("SHOW THREADS;").unwrap().num_rows(), 1, "{on}");
        assert_eq!(served.metrics.connections_rejected.get(), 0, "{on}");
    });
}

/// Speaks the preamble by hand, then sends `frame` and returns the one
/// response the server answers before hanging up.
fn raw_reply(addr: SocketAddr, handshake: &[u8], frame: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    read_handshake(&mut stream).unwrap();
    stream.write_all(handshake).unwrap();
    stream.write_all(frame).unwrap();
    read_response(&mut stream).expect("a typed goodbye").0
}

#[test]
fn the_connection_cap_and_unparseable_peers_get_typed_codes() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    on_both_backends(config, |served| {
        let on = served.backend;
        let mut good_handshake = Vec::new();
        write_handshake(&mut good_handshake).unwrap();

        // A peer that is not a Hermes endpoint, an empty frame and a frame
        // over the wire cap: each is told why, as a protocol error. (None of
        // them holds a connection slot afterwards: the server hangs up.)
        for (what, handshake, frame) in [
            ("bad magic", &b"NOPE\x00\x05\x00"[..], &[][..]),
            ("empty frame", &good_handshake[..], &0u32.to_be_bytes()[..]),
            (
                "oversize frame",
                &good_handshake[..],
                &(MAX_MESSAGE_BYTES + 1).to_be_bytes()[..],
            ),
        ] {
            match raw_reply(served.addr, handshake, frame) {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::Protocol, "{on} {what}: {message}")
                }
                other => panic!("{on} {what}: answered {other:?}"),
            }
            until_no_live_connections(&served.metrics);
        }

        // One admitted connection fills the cap; the next one is turned away
        // with a capacity goodbye the client knows not to reuse.
        let mut admitted = HermesClient::connect(served.addr).unwrap();
        admitted.query("SHOW DATASETS;").unwrap();
        let mut excess = HermesClient::connect(served.addr).unwrap();
        match excess.query("SHOW DATASETS;").unwrap_err() {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Capacity, "{on}: {message}");
                assert!(code.is_retryable(), "{on}");
            }
            other => panic!("{on}: expected a capacity goodbye, got {other:?}"),
        }
        assert!(!excess.is_clean(), "{on}: a capacity goodbye is final");
        assert_eq!(served.metrics.connections_rejected.get(), 1, "{on}");
        assert!(admitted.is_clean(), "{on}");
        admitted.query("SHOW DATASETS;").unwrap();
    });
}
