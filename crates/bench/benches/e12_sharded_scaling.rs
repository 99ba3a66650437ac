//! E12 — sharded query fan-out: queries/sec through a `hermes-coord`
//! coordinator over 1/2/4 loopback shards, with a bit-exactness gate.
//!
//! The workload is the e9 read mix (RANGE probes plus QUT window
//! clusterings) issued by concurrent clients, but upstream of a coordinator
//! that fans multi-shard windows out in parallel and re-merges the partials.
//! Before any timing, every topology's spanning QUT answer is byte-compared
//! against a single-node engine — the scaling numbers are only meaningful if
//! the distributed answer is *identical*, so a mismatch aborts the run and
//! the `gate_bit_identical` counter records the check in the JSON report.

use hermes_bench::harness::{bench, report, JsonReport, Sample};
use hermes_bench::urban_with;
use hermes_coord::{validate_shard_map, Coordinator, FailoverPolicy, ShardSpec};
use hermes_core::{HermesEngine, SharedEngine};
use hermes_exec::ExecPolicy;
use hermes_server::protocol::write_response;
use hermes_server::{ConnectOptions, HermesClient, Response, Server, ServerConfig, ServerHandle};
use hermes_sql::{self as sql, QueryOutcome};
use hermes_trajectory::Trajectory;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

const VEHICLES: usize = 120;
const SEED: u64 = 0xE12;
const CHUNK_MS: i64 = 360_000; // CHUNK 0.1 HOURS
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 16;
const BUILD: &str = "BUILD INDEX ON data WITH CHUNK 0.1 HOURS SIGMA 60 EPSILON 250;";

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

/// Interior shard boundaries: near-equidistant cuts on the chunk grid,
/// strictly inside the data span (same scheme `tests/sharding.rs` gates on).
fn chunk_cuts((lo, hi): (i64, i64), n_shards: usize) -> Vec<i64> {
    let mut cuts: Vec<i64> = (1..n_shards as i64)
        .map(|i| {
            let raw = lo + (hi - lo) * i / n_shards as i64;
            (raw + CHUNK_MS / 2).div_euclid(CHUNK_MS) * CHUNK_MS
        })
        .collect();
    for i in 1..cuts.len() {
        if cuts[i] <= cuts[i - 1] {
            cuts[i] = cuts[i - 1] + CHUNK_MS;
        }
    }
    assert!(
        cuts.iter().all(|c| *c > lo && *c < hi),
        "cuts {cuts:?} outside the data span ({lo}, {hi})"
    );
    cuts
}

/// Spawns n shards plus a coordinator and loads the workload through the
/// wire; the returned handles keep the topology alive.
fn spawn_topology(
    n_shards: usize,
    trajectories: &[Trajectory],
    window: (i64, i64),
) -> (Vec<ServerHandle>, ServerHandle<Coordinator>) {
    let cuts = chunk_cuts(window, n_shards);
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

    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    client.query("CREATE DATASET data;").expect("create");
    client.ingest("data", trajectories).expect("ingest");
    client.query(BUILD).expect("build index");
    (shards, coord)
}

fn spawn_server() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        SharedEngine::default(),
        ServerConfig::default(),
    )
    .expect("bind shard")
    .spawn()
    .expect("spawn shard")
}

/// The replicated topology: 2 shards × 2 replicas. Writes fan to all four
/// servers, so either endpoint of a shard answers reads byte-identically —
/// which is what makes the failover-latency measurement meaningful.
fn spawn_replicated(
    trajectories: &[Trajectory],
    window: (i64, i64),
) -> (Vec<Vec<ServerHandle>>, ServerHandle<Coordinator>) {
    let cut = chunk_cuts(window, 2)[0];
    let mut servers = Vec::new();
    let mut specs = Vec::new();
    for (k, (start_ms, end_ms)) in [(i64::MIN, cut), (cut, i64::MAX)].into_iter().enumerate() {
        let replicas: Vec<ServerHandle> = (0..2).map(|_| spawn_server()).collect();
        specs.push(ShardSpec {
            name: format!("s{k}"),
            addr: replicas[0].addr().to_string(),
            replicas: replicas[1..].iter().map(|h| h.addr().to_string()).collect(),
            start_ms,
            end_ms,
        });
        servers.push(replicas);
    }
    validate_shard_map(&mut specs).expect("valid shard map");
    let opts = ConnectOptions {
        retries: 0,
        ..ConnectOptions::default()
    };
    let failover = FailoverPolicy {
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..FailoverPolicy::default()
    };
    let coordinator = Coordinator::with_failover(specs, opts, ExecPolicy::from_env(), failover);
    let coord = Server::bind("127.0.0.1:0", coordinator, ServerConfig::default())
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");

    let mut client = HermesClient::connect(coord.addr()).expect("connect");
    client.query("CREATE DATASET data;").expect("create");
    client.ingest("data", trajectories).expect("ingest");
    client.query(BUILD).expect("build index");
    (servers, coord)
}

/// The result frame serialized as the wire writes it, stats stripped — the
/// same encoding `tests/sharding.rs` byte-compares.
fn row_bytes(outcome: QueryOutcome) -> Vec<u8> {
    let QueryOutcome::Rows { frame, .. } = outcome else {
        panic!("expected a rows response");
    };
    let mut buf = Vec::new();
    write_response(&mut buf, &Response::Rows { frame, stats: None }).expect("encode");
    buf
}

fn qut_sql((lo, hi): (i64, i64)) -> String {
    format!("SELECT QUT(data, {lo}, {hi}, 0.35, 0.05, 180000, 250, 600000);")
}

fn run_client(addr: SocketAddr, window: (i64, i64), queries: usize) {
    let (lo, hi) = window;
    let step = ((hi - lo) / queries.max(1) as i64).max(1);
    let mut client = HermesClient::connect(addr).expect("connect");
    for i in 0..queries {
        // A sliding probe window: most iterations span several shards.
        let wi = lo + step * (i as i64 % 4);
        client
            .query(&format!("SELECT RANGE(data, {wi}, {hi});"))
            .expect("range query");
        if i % 4 == 0 {
            client.query(&qut_sql((wi, hi))).expect("qut query");
        }
    }
}

fn main() {
    let trajectories = urban_with(VEHICLES, SEED).trajectories;
    let window = span(&trajectories);

    // Single-node reference answer for the gate.
    let mut reference = HermesEngine::new();
    reference.create_dataset("data").expect("create");
    reference
        .load_trajectories("data", trajectories.clone())
        .expect("load");
    sql::execute(&mut reference, BUILD).expect("build index");
    let want = row_bytes(sql::execute(&mut reference, &qut_sql(window)).expect("reference qut"));

    let mut samples: Vec<Sample> = Vec::new();
    let mut json = JsonReport::new("e12_sharded_scaling");
    let mut qps: Vec<(usize, f64)> = Vec::new();
    for n_shards in [1usize, 2, 4] {
        let (_shards, coord) = spawn_topology(n_shards, &trajectories, window);
        let addr = coord.addr();

        // The gate: the spanning QUT must be byte-identical to single-node
        // before this topology's throughput means anything.
        let mut client = HermesClient::connect(addr).expect("connect");
        let got = row_bytes(client.query(&qut_sql(window)).expect("gate qut"));
        assert!(
            got == want,
            "{n_shards}-shard QUT diverges from the single-node answer; \
             refusing to report throughput for a wrong topology"
        );

        let sample = bench(format!("shards/{n_shards}"), 5, || {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| thread::spawn(move || run_client(addr, window, QUERIES_PER_CLIENT)))
                .collect();
            for w in workers {
                w.join().expect("client thread");
            }
        });
        let queries = CLIENTS * (QUERIES_PER_CLIENT + QUERIES_PER_CLIENT.div_ceil(4));
        let rate = queries as f64 / (sample.median_ms / 1_000.0);
        qps.push((n_shards, rate));
        json.push_with(
            sample.clone(),
            vec![
                ("queries_per_s".to_string(), rate),
                ("gate_bit_identical".to_string(), 1.0),
            ],
        );
        samples.push(sample);
    }
    // Replicated 2×2 topology: the same read mix with every slice served by
    // a two-endpoint replica set, then a hard primary kill to measure how
    // long the very next spanning QUT takes to fail over — detection plus
    // backoff plus the replica's answer, still behind the byte gate.
    let (mut replica_servers, coord) = spawn_replicated(&trajectories, window);
    let addr = coord.addr();
    let mut client = HermesClient::connect(addr).expect("connect");
    let got = row_bytes(client.query(&qut_sql(window)).expect("gate qut"));
    assert!(
        got == want,
        "replicated 2x2 QUT diverges from the single-node answer; \
         refusing to report throughput for a wrong topology"
    );
    let sample = bench("replicated/2x2".to_string(), 5, || {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| thread::spawn(move || run_client(addr, window, QUERIES_PER_CLIENT)))
            .collect();
        for w in workers {
            w.join().expect("client thread");
        }
    });
    let queries = CLIENTS * (QUERIES_PER_CLIENT + QUERIES_PER_CLIENT.div_ceil(4));
    let replicated_rate = queries as f64 / (sample.median_ms / 1_000.0);

    // Hard-kill s0's primary (sockets severed, no protocol goodbye) and
    // time the next spanning QUT on an already-connected client.
    replica_servers[0].remove(0).kill();
    let started = Instant::now();
    let got = row_bytes(client.query(&qut_sql(window)).expect("post-kill qut"));
    let failover_ms = started.elapsed().as_secs_f64() * 1_000.0;
    assert!(
        got == want,
        "the failed-over QUT diverges from the single-node answer"
    );
    json.push_with(
        sample.clone(),
        vec![
            ("queries_per_s".to_string(), replicated_rate),
            ("gate_bit_identical".to_string(), 1.0),
            ("failover_latency_ms".to_string(), failover_ms),
        ],
    );
    samples.push(sample);

    report("e12_sharded_scaling", &samples);
    json.write().expect("write report");

    eprintln!("\n# E12 summary: coordinator throughput vs. shard count");
    eprintln!("{:>8} {:>12}", "shards", "queries/s");
    for (n, rate) in &qps {
        eprintln!("{n:>8} {rate:>12.1}");
    }
    eprintln!("replicated 2x2: {replicated_rate:.1} queries/s, primary-kill failover in {failover_ms:.1} ms");
    eprintln!("bit-exactness gate: all topologies matched the single-node QUT answer");
}
