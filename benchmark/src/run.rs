//! One run of one workload: reference answers, set-up (repeated, for a
//! steady `setup_s`), the measured section, the crash check, the metrics.

use crate::oracle::Reference;
use crate::procs::{out_dir, sibling_binary, ScratchDir, Server};
use crate::stats::{coefficient_of_variation, median, percentile, round_rates};
use crate::wire::{self, Receiver, Sender};
use crate::workload::{Body, Op, Plan, Workload, BUILD_INDEX};
use crate::{prom, spans};
use hermes_server::protocol::{Request, Response};
use hermes_sql::{CommandTag, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. One set-up is a second or
/// two of process start, load and index build — too short to be steady on
/// its own on a shared two-core box.
const SETUP_REPEATS: usize = 3;
/// An open-loop send counts as late when it starts this long after it was
/// due.
const LATE_NS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The five end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics the generator can see from outside: its own tail
    /// and lateness, and the counters the servers export.
    pub observed: Vec<Metric>,
    /// What went wrong with the first few failed operations.
    pub failures: Vec<String>,
    /// Operations per second of each round, for the report's diagnostics.
    pub round_rates: Vec<f64>,
    /// Seconds spent on the reference answers (not part of `setup_s`).
    pub reference_s: f64,
    /// Where the spans of a traced run were written.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct ClientConn {
    sender: Sender,
    receiver: Receiver,
    /// Server-side handle of each of the plan's templates.
    handles: Vec<u32>,
}

/// The server side of a run and the client connections into it.
struct Deployment {
    /// Every server-side child. Clients talk to the last one.
    servers: Vec<Server>,
    scratch: Option<ScratchDir>,
    conns: Vec<ClientConn>,
}

impl Deployment {
    fn entry(&self) -> &Server {
        self.servers.last().expect("a deployment has a server")
    }

    fn cpu_ms(&self) -> f64 {
        self.servers.iter().map(Server::cpu_ms).sum()
    }

    fn peak_rss_mib(&self) -> f64 {
        self.servers.iter().map(Server::peak_rss_mib).sum()
    }

    fn scrape(&self) -> Vec<prom::Sample> {
        self.servers
            .iter()
            .flat_map(|s| prom::scrape(&s.metrics_addr).unwrap_or_default())
            .collect()
    }
}

fn io_err(context: &str, e: io::Error) -> String {
    format!("{context}: {e}")
}

/// spawn → load → `BUILD INDEX` → connect and prepare → warm-up, the span
/// `setup_s` measures.
fn deploy(plan: &Plan, reference: &Reference) -> Result<Deployment, String> {
    let serve = sibling_binary("hermes-serve")?;
    let mut servers = Vec::new();
    let mut scratch = None;
    match plan.workload {
        Workload::S2tAnalytic | Workload::QutServe => servers.push(Server::spawn(&serve, &[])?),
        Workload::IngestDurable => {
            let dir = ScratchDir::new(plan.workload.name())?;
            servers.push(Server::spawn(&serve, &data_dir_args(&dir))?);
            scratch = Some(dir);
        }
        Workload::ShardedMixed => {
            let coord = sibling_binary("hermes-coord")?;
            // Four shard processes share two cores: one compute thread
            // each, as an operator would set it. With the default (all cores
            // per process) a partial's latency depends on whether the other
            // processes happen to be idle, and the key op's median moved by
            // ±25 % between identical runs.
            let one_thread = ["--threads".to_string(), "1".to_string()];
            for _ in 0..4 {
                servers.push(Server::spawn(&serve, &one_thread)?);
            }
            let cut = plan.cut_ms.expect("the sharded plan has a cut");
            let args = [
                "--shard".to_string(),
                format!("early={},{}@min..{cut}", servers[0].addr, servers[1].addr),
                "--shard".to_string(),
                format!("late={},{}@{cut}..max", servers[2].addr, servers[3].addr),
            ];
            servers.push(Server::spawn(&coord, &args)?);
        }
    }
    let mut deployment = Deployment {
        servers,
        scratch,
        conns: Vec::new(),
    };
    let entry = deployment.entry().addr.clone();

    let (mut tx, mut rx) = wire::connect(&entry).map_err(|e| io_err("connect", e))?;
    let mut command = |request: Request, what: &str| -> Result<u64, String> {
        match wire::exchange(&mut tx, &mut rx, &request).map_err(|e| io_err(what, e))? {
            Response::Command(status) => Ok(status.affected),
            other => Err(format!("{what}: unexpected reply {other:?}")),
        }
    };
    let query = |sql: &str| Request::Query {
        sql: sql.to_string(),
    };
    command(query("CREATE DATASET data;"), "CREATE DATASET data")?;
    let loaded = command(
        Request::Ingest {
            dataset: "data".to_string(),
            trajectories: plan.resident.clone(),
        },
        "load",
    )?;
    if loaded as usize != plan.resident.len() {
        return Err(format!(
            "load: {loaded} of {} flights accepted",
            plan.resident.len()
        ));
    }
    command(query(BUILD_INDEX), "BUILD INDEX")?;
    if plan.workload == Workload::ShardedMixed {
        command(query("CREATE DATASET live;"), "CREATE DATASET live")?;
    }

    for warmup in &plan.warmup {
        let mut conn = open_conn(&entry, plan)?;
        for op in warmup {
            let request = request_of(op, plan, &conn.handles);
            let response = wire::exchange(&mut conn.sender, &mut conn.receiver, &request)
                .map_err(|e| io_err("warm-up", e))?;
            if let Err(why) = check(op, response, reference) {
                return Err(format!("warm-up {}: {why}", op.kind.name()));
            }
        }
        deployment.conns.push(conn);
    }
    Ok(deployment)
}

fn data_dir_args(dir: &ScratchDir) -> [String; 2] {
    [
        "--data-dir".to_string(),
        dir.path().to_string_lossy().into_owned(),
    ]
}

fn open_conn(addr: &str, plan: &Plan) -> Result<ClientConn, String> {
    let (mut sender, mut receiver) = wire::connect(addr).map_err(|e| io_err("connect", e))?;
    let mut handles = Vec::new();
    for template in &plan.templates {
        let request = Request::Prepare {
            sql: template.clone(),
        };
        match wire::exchange(&mut sender, &mut receiver, &request)
            .map_err(|e| io_err("prepare", e))?
        {
            Response::Prepared { handle } => handles.push(handle),
            other => return Err(format!("prepare `{template}`: unexpected reply {other:?}")),
        }
    }
    Ok(ClientConn {
        sender,
        receiver,
        handles,
    })
}

/// The wire request of `op`; `handles` are the connection's prepared
/// statements, in the order of the plan's templates.
pub fn request_of(op: &Op, plan: &Plan, handles: &[u32]) -> Request {
    match &op.body {
        Body::Text(sql) => Request::Query { sql: sql.clone() },
        Body::Prepared {
            template, params, ..
        } => Request::ExecutePrepared {
            handle: handles[*template],
            params: params.clone(),
        },
        Body::Ingest {
            dataset,
            first,
            count,
        } => Request::Ingest {
            dataset: dataset.to_string(),
            trajectories: plan.stream[*first..first + count].to_vec(),
        },
    }
}

/// Is `response` the right answer to `op`? A wrong answer is a failed op.
fn check(op: &Op, response: Response, reference: &Reference) -> Result<(), String> {
    if let Response::Error { code, message } = &response {
        return Err(format!("server error {code:?}: {message}"));
    }
    match (op.reference_sql(), &op.body) {
        (Some(sql), _) => {
            if reference.matches(sql, response) {
                Ok(())
            } else {
                Err(format!("`{sql}` differs from the reference answer"))
            }
        }
        (None, Body::Ingest { first, count, .. }) => match response {
            Response::Command(status)
                if status.tag == CommandTag::Ingest && status.affected as usize == *count =>
            {
                Ok(())
            }
            other => Err(format!(
                "ingest of flights {first}..{}: unexpected reply {other:?}",
                first + count
            )),
        },
        (None, _) => match response {
            Response::Command(status) if status.tag == CommandTag::Checkpoint => Ok(()),
            other => Err(format!("checkpoint: unexpected reply {other:?}")),
        },
    }
}

/// What the generator keeps of one measured operation. Times are
/// nanoseconds since the measured section began.
#[derive(Debug, Clone)]
struct OpRecord<'a> {
    op: &'a Op,
    /// When the operation was due: its scheduled time in the open loop,
    /// the moment the connection became free in the closed loop.
    due_ns: u64,
    /// When the generator began to send it.
    send_ns: u64,
    /// When its answer had been checked.
    done_ns: u64,
    reply_bytes: usize,
    failure: Option<String>,
    /// Traced operations only: encode end, send end, reply arrival, decode
    /// end.
    steps: Option<[u64; 4]>,
}

impl<'a> OpRecord<'a> {
    fn lost(op: &'a Op, at_ns: u64, why: &str) -> OpRecord<'a> {
        OpRecord {
            op,
            due_ns: at_ns,
            send_ns: at_ns,
            done_ns: at_ns,
            reply_bytes: 0,
            failure: Some(why.to_string()),
            steps: None,
        }
    }

    fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The sending side of one operation; returns `(send start, [encode end,
/// send end])`.
fn send_op(sender: &mut Sender, request: &Request, t0: Instant) -> io::Result<(u64, u64, u64)> {
    let send_ns = ns_since(t0);
    let encoded = wire::encode(request);
    let encoded_ns = ns_since(t0);
    sender.send(&encoded)?;
    Ok((send_ns, encoded_ns, ns_since(t0)))
}

/// The receiving side of one operation.
fn receive_op(
    receiver: &mut Receiver,
    op: &Op,
    reference: &Reference,
    t0: Instant,
) -> io::Result<(usize, u64, u64, u64, Option<String>)> {
    let frame = receiver.wait()?;
    let reply_ns = ns_since(t0);
    let response = wire::decode(&frame)?;
    let decoded_ns = ns_since(t0);
    let failure = check(op, response, reference).err();
    Ok((frame.len(), reply_ns, decoded_ns, ns_since(t0), failure))
}

/// Closed loop: the next request goes out when the previous answer has
/// been checked.
fn closed_loop<'a>(
    conn: &mut ClientConn,
    ops: &'a [Op],
    plan: &Plan,
    reference: &Reference,
    t0: Instant,
    trace: bool,
) -> Vec<OpRecord<'a>> {
    let mut records = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let request = request_of(op, plan, &conn.handles);
        let exchange = send_op(&mut conn.sender, &request, t0).and_then(|sent| {
            receive_op(&mut conn.receiver, op, reference, t0).map(|got| (sent, got))
        });
        match exchange {
            Ok((
                (send_ns, encoded_ns, sent_ns),
                (reply_bytes, reply_ns, decoded_ns, done_ns, failure),
            )) => {
                records.push(OpRecord {
                    op,
                    due_ns: send_ns,
                    send_ns,
                    done_ns,
                    reply_bytes,
                    failure,
                    steps: trace.then_some([encoded_ns, sent_ns, reply_ns, decoded_ns]),
                });
            }
            Err(e) => {
                // The stream is no longer frame-aligned: this operation and
                // every later one of the connection is lost.
                let why = format!("connection lost: {e}");
                let now = ns_since(t0);
                records.extend(ops[i..].iter().map(|op| OpRecord::lost(op, now, &why)));
                break;
            }
        }
    }
    records
}

/// Open loop: a sending thread follows the schedule whatever the replies
/// do; this thread reads the replies, which arrive in sending order.
fn open_loop<'a>(
    conn: &mut ClientConn,
    ops: &'a [Op],
    send_at_ns: &[u64],
    plan: &Plan,
    reference: &Reference,
    t0: Instant,
    trace: bool,
) -> Vec<OpRecord<'a>> {
    let ClientConn {
        sender,
        receiver,
        handles,
    } = conn;
    let handles: &[u32] = handles;
    std::thread::scope(|scope| {
        let sending = scope.spawn(move || {
            crate::procs::wake_on_time();
            let mut sent = Vec::with_capacity(ops.len());
            for (op, due) in ops.iter().zip(send_at_ns) {
                let request = request_of(op, plan, handles);
                if let Some(ahead) = due.checked_sub(ns_since(t0)) {
                    std::thread::sleep(Duration::from_nanos(ahead));
                }
                match send_op(sender, &request, t0) {
                    Ok(times) => sent.push(times),
                    Err(_) => break,
                }
            }
            sent
        });
        let mut received = Vec::with_capacity(ops.len());
        for op in ops {
            match receive_op(receiver, op, reference, t0) {
                Ok(got) => received.push(got),
                Err(_) => break,
            }
        }
        let sent = sending.join().expect("the sending thread does not panic");
        ops.iter()
            .zip(send_at_ns)
            .enumerate()
            .map(|(i, (op, due))| match (sent.get(i), received.get(i)) {
                (Some(&(send_ns, encoded_ns, sent_ns)), Some(got)) => {
                    let (reply_bytes, reply_ns, decoded_ns, done_ns, failure) = got.clone();
                    OpRecord {
                        op,
                        due_ns: *due,
                        send_ns,
                        done_ns,
                        reply_bytes,
                        failure,
                        steps: trace.then_some([encoded_ns, sent_ns, reply_ns, decoded_ns]),
                    }
                }
                _ => OpRecord::lost(op, *due, "connection lost"),
            })
            .collect()
    })
}

/// Runs one workload once.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let plan = Plan::build(workload, options.seed, options.seconds, options.quick);

    let started = Instant::now();
    let reference = Reference::build(&plan)?;
    let reference_s = started.elapsed().as_secs_f64();

    // Set up several times and keep the last; every earlier deployment is
    // killed and its scratch directory removed before the next one starts.
    let repeats = if options.quick || options.trace {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut deployment = None;
    for _ in 0..repeats {
        drop(deployment.take());
        let started = Instant::now();
        deployment = Some(deploy(&plan, &reference)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("at least one set-up ran");

    let trace = options.trace;
    let scrape_started = Instant::now();
    let before = deployment.scrape();
    let scrape_ms = scrape_started.elapsed().as_secs_f64() * 1e3 / deployment.servers.len() as f64;
    let cpu_before = deployment.cpu_ms();
    let t0 = Instant::now();
    let per_conn: Vec<Vec<OpRecord>> = {
        let (plan, reference) = (&plan, &reference);
        std::thread::scope(|scope| {
            let clients: Vec<_> = deployment
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || match &plan.send_at_ns {
                        Some(send_at) => open_loop(
                            conn,
                            &plan.conns[c],
                            &send_at[c],
                            plan,
                            reference,
                            t0,
                            trace,
                        ),
                        None => closed_loop(conn, &plan.conns[c], plan, reference, t0, trace),
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread does not panic"))
                .collect()
        })
    };
    let measured_s = t0.elapsed().as_secs_f64();
    let cpu_ms = deployment.cpu_ms() - cpu_before;
    let after = deployment.scrape();
    let session_stats = session_counters(&mut deployment);
    let peak_rss_mib = deployment.peak_rss_mib();

    let records: Vec<&OpRecord> = per_conn.iter().flatten().collect();
    let mut attempted = records.len() as u64;
    let mut failures: Vec<String> = records
        .iter()
        .filter_map(|r| Some(format!("{}: {}", r.op.kind.name(), r.failure.as_ref()?)))
        .collect();
    if workload == Workload::IngestDurable {
        for result in crash_check(&mut deployment, &plan, &reference)? {
            attempted += 1;
            failures.extend(result.err());
        }
    }
    drop(deployment);
    let failed = failures.len() as u64;

    let good: Vec<&OpRecord> = records
        .iter()
        .copied()
        .filter(|r| r.failure.is_none())
        .collect();
    let done_s: Vec<f64> = good.iter().map(|r| r.done_ns as f64 / 1e9).collect();
    let rates = round_rates(&done_s, plan.rounds);
    let wall_rate = good.len() as f64 / measured_s;
    // Open loop: goodput over the whole section, which should equal the
    // offered rate. A median of per-round rates would mostly measure how
    // the seeded arrivals happened to fall into rounds.
    let ops_per_s = if workload.open_loop() {
        wall_rate
    } else {
        median(&rates)
    };
    // The key operation is a handful of distinct statements of unlike cost
    // (four to eight windows or parameter sets), each run many times. The
    // median over all of them together would sit between the two middle
    // statements and move with whichever the seed made those; the median of
    // each statement, averaged over the statements, does not.
    let mut by_statement: BTreeMap<Option<&str>, Vec<f64>> = BTreeMap::new();
    for r in good.iter().filter(|r| r.op.kind == workload.key_op()) {
        by_statement
            .entry(r.op.reference_sql())
            .or_default()
            .push(r.latency_ms());
    }
    let key_op_p50_ms =
        by_statement.values().map(|ms| median(ms)).sum::<f64>() / by_statement.len().max(1) as f64;
    let key_ms: Vec<f64> = by_statement.into_values().flatten().collect();
    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("key_op_p50_ms", key_op_p50_ms, "ms"),
        metric(
            "server_cpu_ms_per_op",
            cpu_ms / good.len().max(1) as f64,
            "ms",
        ),
        metric("server_peak_rss_mb", peak_rss_mib, "MiB"),
    ];

    let lag_ms: Vec<f64> = records
        .iter()
        .map(|r| r.send_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        .collect();
    let late = records
        .iter()
        .filter(|r| r.send_ns.saturating_sub(r.due_ns) > LATE_NS)
        .count();
    let delta = |name: &str| prom::sum(&after, name) - prom::sum(&before, name);
    let (hits, misses) = (
        delta("hermes_storage_buffer_hits_total"),
        delta("hermes_storage_buffer_misses_total"),
    );
    // What a traced operation does that an untraced one does not: keep four
    // more clock readings. Priced by reading the clock, against the time
    // the generator spends per operation.
    let clock_ns = {
        let started = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(Instant::now());
        }
        started.elapsed().as_nanos() as f64 / 10_000.0
    };
    let busy_ns_per_op = measured_s * 1e9 * per_conn.len() as f64 / records.len().max(1) as f64;
    let reply_bytes: f64 = records.iter().map(|r| r.reply_bytes as f64).sum();
    let observed = vec![
        metric("client.key_op_p90_ms", percentile(&key_ms, 90.0), "ms"),
        metric("client.key_op_p99_ms", percentile(&key_ms, 99.0), "ms"),
        metric("client.send_lag_p99_ms", percentile(&lag_ms, 99.0), "ms"),
        metric(
            "client.late_frac",
            late as f64 / records.len().max(1) as f64,
            "ratio",
        ),
        metric("client.failed_ops", failures.len() as f64, "count"),
        metric("client.ops_per_s_wall", wall_rate, "1/s"),
        metric("client.round_cv", coefficient_of_variation(&rates), "ratio"),
        metric("obs.scrape_ms", scrape_ms, "ms"),
        metric(
            "obs.trace_overhead_frac",
            4.0 * clock_ns / busy_ns_per_op,
            "ratio",
        ),
        metric(
            "server.query_latency_sum_ms",
            delta("hermes_server_query_latency_us_sum") / 1e3,
            "ms",
        ),
        metric(
            "server.backpressure_rejections",
            delta("hermes_server_backpressure_rejections_total"),
            "count",
        ),
        metric(
            "server.deadline_misses",
            delta("hermes_server_deadline_misses_total"),
            "count",
        ),
        metric(
            "server.response_bytes",
            reply_bytes / records.len().max(1) as f64,
            "B",
        ),
        metric(
            "core.epochs_published",
            delta("hermes_server_epoch"),
            "count",
        ),
        metric(
            "storage.buffer_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "storage.buffer_evictions",
            delta("hermes_storage_buffer_evictions_total"),
            "count",
        ),
        metric(
            "coord.failovers",
            delta("hermes_shard_failovers_total"),
            "count",
        ),
        metric(
            "coord.hedges",
            delta("hermes_shard_hedges_fired_total"),
            "count",
        ),
        metric("sql.prepared_hit_ratio", session_stats, "ratio"),
    ];

    let trace_file = if trace {
        let spans = per_conn
            .iter()
            .enumerate()
            .flat_map(|(c, records)| records.iter().map(move |r| (c, r)))
            .filter_map(|(c, r)| {
                r.steps
                    .map(|[encoded, sent, reply, decoded]| spans::OpSteps {
                        conn: c,
                        kind: r.op.kind.name(),
                        due_ns: r.due_ns,
                        send_ns: r.send_ns,
                        encoded_ns: encoded,
                        sent_ns: sent,
                        reply_ns: reply,
                        decoded_ns: decoded,
                        done_ns: r.done_ns,
                    })
            })
            .collect::<Vec<_>>();
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        spans::write(&path, &spans).map_err(|e| io_err("writing the trace", e))?;
        Some(path)
    } else {
        None
    };

    failures.truncate(5);
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        observed,
        failures,
        round_rates: rates,
        reference_s,
        trace_file,
    })
}

/// `ingest_durable`: SIGKILL the server, restart it on the same directory,
/// and require every acknowledged flight and the reference answers back.
/// The kill leaves the page cache intact, so this is process-crash
/// durability; power loss is out of scope.
fn crash_check(
    deployment: &mut Deployment,
    plan: &Plan,
    reference: &Reference,
) -> Result<Vec<Result<(), String>>, String> {
    let serve = sibling_binary("hermes-serve")?;
    deployment.conns.clear();
    deployment
        .servers
        .pop()
        .expect("the durable deployment has its server")
        .kill();
    let dir = deployment
        .scratch
        .as_ref()
        .expect("the durable deployment has a data directory");
    let restarted = Server::spawn(&serve, &data_dir_args(dir))?;
    let (mut tx, mut rx) = wire::connect(&restarted.addr).map_err(|e| io_err("reconnect", e))?;
    let results = plan
        .after_restart
        .iter()
        .map(|sql| {
            let request = Request::Query { sql: sql.clone() };
            match wire::exchange(&mut tx, &mut rx, &request) {
                Ok(response) => reference
                    .matches(sql, response)
                    .then_some(())
                    .ok_or_else(|| format!("after restart: `{sql}` differs from the reference")),
                Err(e) => Err(format!("after restart: `{sql}`: {e}")),
            }
        })
        .collect();
    deployment.servers.push(restarted);
    Ok(results)
}

/// Share of statement executions, over the client connections' sessions,
/// that did not run the parser (`SHOW STATS`, session scope). 0 where the
/// serving process reports no session scope.
fn session_counters(deployment: &mut Deployment) -> f64 {
    let (mut parses, mut executions) = (0i64, 0i64);
    for conn in &mut deployment.conns {
        let request = Request::Query {
            sql: "SHOW STATS;".to_string(),
        };
        let Ok(Response::Rows { frame, .. }) =
            wire::exchange(&mut conn.sender, &mut conn.receiver, &request)
        else {
            continue;
        };
        for row in 0..frame.num_rows() {
            let text = |column| match frame.get(row, column) {
                Some(Value::Text(t)) => t.as_str(),
                _ => "",
            };
            let Some(Value::Int(value)) = frame.get(row, "value") else {
                continue;
            };
            match (text("scope"), text("metric")) {
                ("session", "parses") => parses += value,
                ("session", "executions") => executions += value,
                _ => {}
            }
        }
    }
    if executions > 0 {
        1.0 - parses as f64 / executions as f64
    } else {
        0.0
    }
}
