//! E9 — server throughput at high connection counts: 256/1024/4096
//! simulated clients under a mixed read/ingest load through the serving
//! loop.
//!
//! Each simulated client is a real TCP connection with its own server-side
//! session. A small pool of driver threads multiplexes the connections:
//! every round it pipelines one request per connection (a `RANGE` read, or
//! an `Ingest` for every 32nd connection) and then drains the responses,
//! recording one send-to-answer latency per request. The report carries
//! p50/p95/p99 latency and queries/sec per client count, plus the server's
//! epoch/backpressure/deadline counters.
//!
//! Correctness is gated, not assumed: every `RANGE` answer during the storm
//! must equal the serial reference answer captured before it (reads pin the
//! published engine epoch, and the ingest load targets a separate dataset),
//! and every connection must complete without a single protocol or
//! connection error.
//!
//! History: until the thread-per-connection core was deleted this bench ran
//! it as a baseline arm; the loop measured ≈ 2.3× its throughput at 1024
//! clients (`docs/SERVER.md`).

use hermes_bench::harness::{report, JsonReport, Sample};
use hermes_bench::{aircraft_s2t_params, aircraft_with};
use hermes_core::SharedEngine;
use hermes_retratree::ReTraTreeParams;
use hermes_server::{HermesClient, Request, Response, Server, ServerConfig, ServerHandle};
use hermes_sql::Value;
use hermes_trajectory::{Duration, Point, Timestamp, Trajectory};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Instant;

/// Pipelined request rounds per connection.
const ROUNDS: usize = 4;
/// Driver threads multiplexing the connections.
const DRIVERS: usize = 16;
/// One connection in this many issues ingests instead of reads.
const INGEST_STRIDE: usize = 32;

/// Distinct read windows; connection `c`, round `r` probes window
/// `(c + r) % WINDOWS` so the reference table stays small while the storm
/// mixes windows across connections.
const WINDOWS: usize = 8;

static NEXT_TRAJ_ID: AtomicU64 = AtomicU64::new(1_000_000);

fn window_end(slot: usize) -> i64 {
    1_800_000 + slot as i64 * 450_000
}

fn range_sql(slot: usize) -> String {
    format!("SELECT RANGE(data, 0, {});", window_end(slot))
}

/// A tiny unique trajectory for the ingest share of the load. It lands in
/// its own `sink` dataset so the read answers stay a pure function of the
/// pre-built `data` epoch.
fn sink_trajectory() -> Trajectory {
    let id = NEXT_TRAJ_ID.fetch_add(1, Ordering::Relaxed);
    Trajectory::new(
        id,
        id,
        (0..4)
            .map(|i| Point::new(i as f64 * 50.0, id as f64 % 997.0, Timestamp(i * 60_000)))
            .collect(),
    )
    .expect("sink trajectory")
}

fn connect_with_retry(addr: SocketAddr) -> HermesClient {
    // Thousands of near-simultaneous connects can transiently overflow the
    // accept backlog (or catch the server mid-accept-burst); retry with
    // backoff instead of failing the run.
    let mut last = None;
    for attempt in 0..200 {
        match HermesClient::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                last = Some(e);
                thread::sleep(std::time::Duration::from_millis(5 + attempt / 4));
            }
        }
    }
    panic!("connect after retries: {:?}", last.unwrap());
}

/// Drives `conns` connections for `ROUNDS` pipelined rounds and returns the
/// per-request latencies (ms). `base` numbers the connections globally so
/// the window/ingest mix is stable across driver threads.
fn drive(addr: SocketAddr, base: usize, conns: usize, expected: &[Value]) -> Vec<f64> {
    let mut clients: Vec<HermesClient> = (0..conns).map(|_| connect_with_retry(addr)).collect();
    let mut latencies = Vec::with_capacity(conns * ROUNDS);
    let mut sent_at: Vec<Instant> = Vec::with_capacity(conns);
    for round in 0..ROUNDS {
        sent_at.clear();
        for (i, client) in clients.iter_mut().enumerate() {
            let global = base + i;
            let request = if global.is_multiple_of(INGEST_STRIDE) {
                Request::Ingest {
                    dataset: "sink".into(),
                    trajectories: vec![sink_trajectory()],
                }
            } else {
                Request::Query {
                    sql: range_sql((global + round) % WINDOWS),
                }
            };
            sent_at.push(Instant::now());
            client.send(&request).expect("send");
        }
        for (i, client) in clients.iter_mut().enumerate() {
            let global = base + i;
            let response = client.receive().expect("receive");
            latencies.push(sent_at[i].elapsed().as_secs_f64() * 1_000.0);
            if global.is_multiple_of(INGEST_STRIDE) {
                assert!(
                    matches!(response, Response::Command(_)),
                    "ingest answered {response:?}"
                );
            } else {
                let Response::Rows { frame, .. } = response else {
                    panic!("RANGE answered {response:?}");
                };
                let slot = (global + round) % WINDOWS;
                assert_eq!(
                    frame.get(0, "sub_trajectories_in_window"),
                    Some(&expected[slot]),
                    "storm read diverged from the serial reference (window {slot})"
                );
            }
        }
    }
    latencies
}

struct CaseResult {
    sample: Sample,
    qps: f64,
    p99_ms: f64,
    counters: Vec<(String, f64)>,
}

fn run_case(clients: usize, engine: &SharedEngine) -> CaseResult {
    let label = format!("{clients} clients");
    eprintln!("running {label} ...");
    let server: ServerHandle = Server::bind(
        "127.0.0.1:0",
        engine.clone(),
        ServerConfig {
            max_connections: clients + 8,
            // The storm legitimately has one request in flight per
            // connection; admission control must not trip on the bench.
            max_pending: clients * 2 + 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    // Serial reference answers, captured before the storm.
    let mut reference = HermesClient::connect(addr).expect("reference connect");
    let expected: Vec<Value> = (0..WINDOWS)
        .map(|slot| {
            reference
                .query(&range_sql(slot))
                .expect("reference RANGE")
                .expect_frame("RANGE")
                .get(0, "sub_trajectories_in_window")
                .expect("count column")
                .clone()
        })
        .collect();

    let per_driver = clients.div_ceil(DRIVERS);
    let started = Instant::now();
    let mut latencies: Vec<f64> = thread::scope(|scope| {
        let expected = &expected;
        let handles: Vec<_> = (0..clients)
            .step_by(per_driver.max(1))
            .map(|base| {
                let conns = per_driver.min(clients - base);
                scope.spawn(move || drive(addr, base, conns, expected))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let rank = |p: usize| latencies[((n * p).div_ceil(100)).clamp(1, n) - 1];
    let qps = n as f64 / elapsed_s;
    let p99_ms = rank(99);
    let sample = Sample {
        label,
        iters: n as u32,
        median_ms: rank(50),
        p95_ms: rank(95),
        min_ms: latencies[0],
        max_ms: latencies[n - 1],
    };

    let metrics = server.metrics();
    let counters = vec![
        ("clients".into(), clients as f64),
        ("qps".into(), qps),
        ("p99_ms".into(), p99_ms),
        ("epoch".into(), metrics.epoch.get() as f64),
        (
            "backpressure_rejections".into(),
            metrics.backpressure_rejections.get() as f64,
        ),
        (
            "deadline_misses".into(),
            metrics.deadline_misses.get() as f64,
        ),
        (
            "connections_rejected".into(),
            metrics.connections_rejected.get() as f64,
        ),
        ("gate_reads_exact".into(), 1.0),
    ];
    server.shutdown();
    CaseResult {
        sample,
        qps,
        p99_ms,
        counters,
    }
}

fn main() {
    let quick = std::env::var("HERMES_BENCH_QUICK").is_ok();
    let ladder: &[usize] = if quick {
        &[64, 128]
    } else {
        &[256, 1024, 4096]
    };

    let scenario = aircraft_with(60, 0xE9);
    let engine = SharedEngine::default();
    engine.with_write(|e| {
        e.create_dataset("data").unwrap();
        e.create_dataset("sink").unwrap();
        e.load_trajectories("data", scenario.trajectories.clone())
            .unwrap();
        e.build_index(
            "data",
            ReTraTreeParams {
                chunk_duration: Duration::from_hours(2),
                s2t: aircraft_s2t_params(),
                ..ReTraTreeParams::default()
            },
        )
        .unwrap();
    });

    let mut samples: Vec<Sample> = Vec::new();
    let mut json = JsonReport::new("e9_concurrent_clients");
    let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();

    for &clients in ladder {
        let result = run_case(clients, &engine);
        rows.push((
            result.sample.label.clone(),
            result.qps,
            result.sample.median_ms,
            result.sample.p95_ms,
            result.p99_ms,
        ));
        json.push_with(result.sample.clone(), result.counters);
        samples.push(result.sample);
    }

    report("e9_concurrent_clients (per-request latency)", &samples);
    eprintln!("\n# E9 summary: mixed read/ingest load, {ROUNDS} pipelined rounds");
    eprintln!(
        "{:>16} {:>12} {:>10} {:>10} {:>10}",
        "case", "queries/s", "p50_ms", "p95_ms", "p99_ms"
    );
    for (label, qps, p50, p95, p99) in &rows {
        eprintln!("{label:>16} {qps:>12.1} {p50:>10.3} {p95:>10.3} {p99:>10.3}");
    }

    json.write().expect("write BENCH json");
}
