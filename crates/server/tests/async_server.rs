//! End-to-end tests of the serving loop that need the engine backend's
//! internals or no engine at all: snapshot-epoch reads racing `BUILD INDEX`,
//! the stalled-client regression, and panic isolation over a fake
//! [`Backend`]. The cases every backend must pass alike (pipelining,
//! deadlines, backpressure, the connection cap) run over both the engine
//! and the coordinator in the workspace root's `tests/async_server.rs`.

use hermes_core::{ExecPolicy, HermesEngine, SharedEngine};
use hermes_obs::{Stat, TraceContext};
use hermes_server::{
    Backend, ClientError, ConnectOptions, ErrorCode, HermesClient, Request, RequestCtx, Response,
    Server, ServerConfig, ServerHandle,
};
use hermes_trajectory::{Point, Timestamp, Trajectory};
use std::thread;
use std::time::{Duration, Instant};

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

fn dataset() -> Vec<Trajectory> {
    (0..18)
        .map(|i| traj(i, i as f64 * 10.0, (i as i64 % 2) * 3_600_000))
        .collect()
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let engine = SharedEngine::default();
    engine.with_write(|e| {
        e.create_dataset("flights").unwrap();
        e.load_trajectories("flights", dataset()).unwrap();
    });
    Server::bind("127.0.0.1:0", engine, config)
        .unwrap()
        .spawn()
        .unwrap()
}

const BUILD: &str = "BUILD INDEX ON flights WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;";
const QUT: &str = "SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);";

#[test]
fn reads_pin_the_published_epoch_while_an_index_builds() {
    let server = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let engine = server.engine();

    let mut client = HermesClient::connect(addr).unwrap();
    client.query(BUILD).unwrap();
    let baseline = client.query(QUT).unwrap();
    let baseline_frame = baseline.expect_frame("QUT").clone();
    assert!(baseline_frame.num_rows() >= 1);

    // An artificially slowed writer: holds the commit mutex (exactly what a
    // big BUILD INDEX does) for 600ms, then republishes.
    let writer = thread::spawn(move || {
        engine.with_write(|_| thread::sleep(Duration::from_millis(600)));
    });
    thread::sleep(Duration::from_millis(100)); // let the writer take the lock

    // Reads during the build must answer from the pinned epoch: identical
    // frames, and far sooner than the writer's hold time.
    for _ in 0..3 {
        let started = Instant::now();
        let mid_build = client.query(QUT).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "read blocked behind the writer for {elapsed:?}"
        );
        assert_eq!(
            mid_build.expect_frame("QUT"),
            &baseline_frame,
            "mid-build read must be bit-identical to the pre-build epoch"
        );
    }
    writer.join().unwrap();

    // After the writer publishes, SHOW STATS reports the advanced epoch.
    let stats = client.query("SHOW STATS;").unwrap();
    let frame = stats.expect_frame("SHOW STATS");
    let epoch = frame
        .rows()
        .find(|r| r[0].as_str() == Some("server") && r[1].as_str() == Some("epoch"))
        .and_then(|r| r[2].as_i64())
        .expect("server/epoch row");
    assert!(epoch >= 2, "epoch {epoch} after ingest + builds");
    server.shutdown();
}

/// The engine's `exec_jobs` row: fork-join jobs handed to its pool so far.
fn exec_jobs(client: &mut HermesClient) -> i64 {
    let stats = client.query("SHOW STATS;").unwrap();
    let jobs = stats
        .expect_frame("SHOW STATS")
        .rows()
        .find(|r| r[0].as_str() == Some("engine") && r[1].as_str() == Some("exec_jobs"))
        .and_then(|r| r[2].as_i64())
        .expect("engine/exec_jobs row");
    jobs
}

/// On a node with two compute threads, a window asked again is answered
/// from what the first ask stored, on the statement's own thread: the same
/// frame, and not one job reaches the pool.
#[test]
fn a_repeated_qut_forks_no_job() {
    let engine = SharedEngine::new(HermesEngine::with_exec_policy(ExecPolicy { threads: 2 }));
    engine.with_write(|e| {
        e.create_dataset("flights").unwrap();
        e.load_trajectories("flights", dataset()).unwrap();
    });
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = HermesClient::connect(server.addr()).unwrap();
    client.query(BUILD).unwrap();
    // Both edges inside a sub-chunk (two borders), then the one-hour grid.
    let unaligned = "SELECT QUT(flights, 600000, 5400000, 0.35, 0.05, 120000, 400, 1800000);";
    let aligned = "SELECT QUT(flights, 0, 7200000, 0.35, 0.05, 120000, 400, 1800000);";
    for (sql, cold_forks) in [(unaligned, true), (aligned, false)] {
        let before = exec_jobs(&mut client);
        let cold = client.query(sql).unwrap();
        let after_cold = exec_jobs(&mut client);
        if cold_forks {
            assert!(after_cold > before, "two border misses computed inline");
        }
        let warm = client.query(sql).unwrap();
        assert_eq!(warm.expect_frame("QUT"), cold.expect_frame("QUT"), "{sql}");
        assert_eq!(exec_jobs(&mut client), after_cold, "{sql}: a repeat forked");
    }
    server.shutdown();
}

#[test]
fn stalled_client_cannot_block_build_index() {
    let server = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // A client that floods queries with fat result frames and never reads a
    // byte back: its responses pile up in the server-side write buffer.
    let mut stalled = HermesClient::connect(addr).unwrap();
    stalled.query(BUILD).unwrap();
    for _ in 0..64 {
        stalled
            .send(&Request::GatherTrajectories {
                dataset: "flights".into(),
                owned_start_ms: i64::MIN,
                owned_end_ms: i64::MAX,
            })
            .unwrap();
    }
    // ... and never calls receive().

    // A healthy connection must still get its BUILD INDEX through promptly:
    // responding to the stalled peer is buffered socket I/O on the loop,
    // never a lock held across a write.
    let mut healthy = HermesClient::connect(addr).unwrap();
    let started = Instant::now();
    let built = healthy.query(BUILD).unwrap();
    assert_eq!(built.command().unwrap().affected, 18);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "BUILD INDEX stalled behind an unread client for {:?}",
        started.elapsed()
    );
    drop(stalled);
    server.shutdown();
}

/// A backend with no engine behind it: a query for `PANIC` panics, anything
/// else is answered with how many requests the connection has made — its
/// connection state, to show that state survives a panic.
struct Tripwire;

const TRIPWIRE_WORKERS: usize = 2;

impl Backend for Tripwire {
    type Conn = u64;

    fn open(&self) -> u64 {
        0
    }

    fn answer(
        &self,
        seen: &mut u64,
        request: Request,
        _inbound_trace: Option<TraceContext>,
        _ctx: &mut RequestCtx<'_>,
    ) -> Response {
        *seen += 1;
        match request {
            Request::Query { sql } if sql == "PANIC" => panic!("tripwire on request {seen}"),
            _ => Response::Prepared {
                handle: *seen as u32,
            },
        }
    }

    fn stat_table(&self) -> Vec<Stat> {
        Vec::new()
    }

    fn default_workers(&self, _config: &ServerConfig) -> usize {
        TRIPWIRE_WORKERS
    }
}

/// Sends one raw query and returns the typed reply; the bounded read
/// timeout turns a hung connection into a failure instead of a hung test.
fn ask(client: &mut HermesClient, sql: &str) -> Response {
    client.send(&Request::Query { sql: sql.into() }).unwrap();
    match client.receive() {
        Ok(response) => response,
        Err(ClientError::Server { code, message }) => Response::Error { code, message },
        Err(other) => panic!("`{sql}` got no answer: {other:?}"),
    }
}

#[test]
fn a_panicking_statement_is_a_typed_error_not_a_dead_worker() {
    const PANICS: u32 = TRIPWIRE_WORKERS as u32 + 1;
    let server = Server::bind("127.0.0.1:0", Tripwire, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let opts = ConnectOptions {
        read_timeout: Some(Duration::from_secs(10)),
        ..ConnectOptions::default()
    };
    let mut a = HermesClient::connect_with(server.addr(), &opts).unwrap();
    let mut b = HermesClient::connect_with(server.addr(), &opts).unwrap();
    assert_eq!(ask(&mut a, "ok"), Response::Prepared { handle: 1 });

    // One more panic than there are workers: were a panic to kill its
    // worker, the pool would be gone before the loop ends.
    for round in 0..PANICS {
        match ask(&mut a, "PANIC") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Query, "{message}");
                assert!(
                    message.starts_with("internal error: statement panicked: tripwire"),
                    "{message}"
                );
            }
            other => panic!("a panic answered {other:?}"),
        }
        // Same connection, next request: answered, by the same travelling
        // state (the count includes the panicked requests).
        assert_eq!(
            ask(&mut a, "ok"),
            Response::Prepared {
                handle: 3 + 2 * round
            }
        );
        // Another connection never notices.
        assert_eq!(ask(&mut b, "ok"), Response::Prepared { handle: 1 + round });
    }

    let metrics = server.metrics();
    assert_eq!(metrics.query_errors.get(), PANICS as u64);
    assert_eq!(metrics.queries_served.get(), 1 + 2 * PANICS as u64);
    assert!(a.is_clean() && b.is_clean());
    // Every reply has been read, so every completion has been folded back.
    assert_eq!(metrics.inflight_queries.get(), 0);
    server.shutdown();
}
