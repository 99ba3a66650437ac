//! Per-shard control-plane state: replica endpoints, liveness, counters and
//! connection pools — and the one exchange through which the coordinator
//! reaches a shard.
//!
//! A [`Shard`] is a **replica set**: one primary endpoint plus N replicas
//! that hold byte-identical state (the router sends every write to every
//! endpoint, all-or-error, so replicas never diverge — `docs/SHARDING.md`).
//!
//! Every coordinator→shard call — a read, each failover or hedge attempt,
//! a write broadcast, an ingest, a probe — is one owned `Call` (one
//! request, or a prepared `{sql, params}`) run by `Shard::exchange` on one
//! endpoint. That function alone checks connections out of the pool, sets
//! the trace context, accounts bytes and latency, counts `queries` and
//! `errors`, and records liveness. Reads go through `Shard::call`, which
//! ladders the exchange across the replica set:
//!
//! - **Failover ladder** — endpoints are tried live-first/primary-first; a
//!   transport failure, or a server-answered *retryable* error
//!   ([`ErrorCode::is_retryable`](hermes_server::ErrorCode::is_retryable):
//!   `Deadline`/`Capacity`/`Backpressure`),
//!   moves the call to the next endpoint after a jittered exponential
//!   backoff and bumps `failovers`. A `Query`-class error is an *answer* — a
//!   replica would say exactly the same — and is relayed verbatim.
//! - **Hedging** — with [`FailoverPolicy::hedge`] set, a duplicate of the
//!   call is fired at the first replica when the primary has not answered
//!   within the hedge window; the first answer wins and the loser is
//!   cancelled by ignoring it (its thread finishes in the background and its
//!   connection re-pools only if it is still clean).
//!
//! **Counting rule**: an exchange the shard answered counts one `query`,
//! whether the frame is a result or an error — an error frame is the answer
//! a single node would give. `errors` counts the exchanges that produced no
//! answer (connect, I/O or protocol failure) plus the answered ones refused
//! with a retryable code. Reads, writes, ingest and probes count alike.
//!
//! Connections are pooled per **endpoint**. Check-in refuses connections
//! that are not [`clean`](HermesClient::is_clean) — a stream that broke
//! mid-frame, or that still owes responses (a hedge loser), is dropped
//! rather than handed to the next caller desynchronized.

use crate::shardmap::ShardSpec;
use hermes_obs::{Counter, Stat, TraceContext};
use hermes_server::protocol::{Request, Response};
use hermes_server::{ClientError, ConnectOptions, HermesClient};
use hermes_sql::{CommandStatus, CommandTag, SqlError, Value};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle connections kept per endpoint; extras are dropped on check-in.
const POOL_KEEP: usize = 8;

/// A coordinator-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// An error whose text is exactly what a single-node engine would
    /// produce (shard-answered SQL/engine errors, or errors the coordinator
    /// mirrors from the executor's own validation).
    Data(String),
    /// A shard became unreachable or spoke garbage; names the culprit.
    Shard {
        /// The failing shard's name from the shard map.
        name: String,
        /// The failing endpoint's address.
        addr: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Data(m) => f.write_str(m),
            CoordError::Shard { name, addr, detail } => {
                write!(f, "shard '{name}' ({addr}): {detail}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

impl From<SqlError> for CoordError {
    /// An argument the executor's own rules reject: the node's text.
    fn from(e: SqlError) -> Self {
        CoordError::Data(e.to_string())
    }
}

/// Availability knobs for the read path (`--hedge-ms`,
/// `--failover-backoff-ms` on the binary).
#[derive(Debug, Clone)]
pub struct FailoverPolicy {
    /// Fire a duplicate read at the first replica when the primary has not
    /// answered within this window (`None` = never hedge). The first answer
    /// wins; the loser is ignored.
    pub hedge: Option<Duration>,
    /// Base pause before retrying on the next endpoint; doubles per further
    /// attempt and is jittered ±50% so replicas of a struggling shard are
    /// not hit in lockstep.
    pub backoff: Duration,
    /// Upper bound for the (pre-jitter) backoff.
    pub max_backoff: Duration,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            hedge: None,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }
}

/// One coordinator→shard call, owned so a failover retry or a hedge
/// thread can replay it verbatim on another endpoint.
#[derive(Debug, Clone)]
pub(crate) enum Call {
    /// One request, one response. An `Ingest` goes out in batches under the
    /// message cap, pipelined ([`HermesClient::ingest`]): still one round
    /// trip.
    One(Request),
    /// The prepared-statement forward: `Prepare` then `ExecutePrepared` with
    /// the same bound parameters. Two round trips by necessity — the handle
    /// is assigned by the shard mid-exchange.
    Prepared {
        /// The original placeholder SQL.
        sql: String,
        /// The bound parameter values.
        params: Vec<Value>,
    },
}

impl Call {
    /// Runs the call on one connection. A shard-answered error is a value
    /// (`Response::Error`); only a broken or confused stream is `Err`.
    fn run(&self, conn: &mut HermesClient) -> Result<Response, ClientError> {
        match self {
            Call::One(Request::Ingest {
                dataset,
                trajectories,
            }) => match conn.ingest(dataset, trajectories) {
                Ok(affected) => Ok(Response::Command(CommandStatus {
                    tag: CommandTag::Ingest,
                    affected,
                })),
                Err(ClientError::Server { code, message }) => Ok(Response::Error { code, message }),
                Err(e) => Err(e),
            },
            Call::One(request) => conn.exchange(request),
            Call::Prepared { sql, params } => {
                match conn.exchange(&Request::Prepare { sql: sql.clone() })? {
                    Response::Prepared { handle } => conn.exchange(&Request::ExecutePrepared {
                        handle,
                        params: params.clone(),
                    }),
                    error @ Response::Error { .. } => Ok(error),
                    other => Err(ClientError::Protocol(format!(
                        "expected a Prepared response, got {other:?}"
                    ))),
                }
            }
        }
    }
}

/// One endpoint of a replica set: its address, last observed liveness and
/// its idle-connection pool.
pub struct Endpoint {
    /// `host:port` of this endpoint's `hermes-serve` listener.
    pub addr: String,
    alive: AtomicBool,
    idle: Mutex<Vec<HermesClient>>,
}

impl Endpoint {
    /// Last observed liveness of this endpoint.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    fn pooled(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    fn check_out(&self, opts: &ConnectOptions) -> Result<HermesClient, ClientError> {
        if let Some(conn) = self.idle.lock().unwrap().pop() {
            return Ok(conn);
        }
        HermesClient::connect_with(self.addr.as_str(), opts).map_err(ClientError::Io)
    }

    fn check_in(&self, conn: HermesClient) {
        // The poison gate: a connection that owes responses or broke
        // mid-frame must never serve another caller.
        if !conn.is_clean() {
            return;
        }
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < POOL_KEEP {
            idle.push(conn);
        }
    }
}

/// One shard's registry entry: its spec, replica endpoints, cumulative
/// counters and the failover policy. All counters are lock-free
/// `hermes-obs` counters — its stats table ([`Shard::stat_table`]) reads
/// them without stopping traffic.
pub struct Shard {
    /// The shard's name, replica set and owned slice.
    pub spec: ShardSpec,
    opts: ConnectOptions,
    policy: FailoverPolicy,
    endpoints: Vec<Endpoint>,
    queries: Counter,
    errors: Counter,
    failovers: Counter,
    hedges_fired: Counter,
    hedges_won: Counter,
    latency_us: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    /// xorshift state for backoff jitter; seeded from the shard name so runs
    /// are reproducible per shard without any global randomness source.
    rng: AtomicU64,
}

impl Shard {
    /// Creates the registry entry; no connection is attempted until the
    /// first exchange.
    pub fn with_policy(spec: ShardSpec, opts: ConnectOptions, policy: FailoverPolicy) -> Shard {
        let endpoints = spec
            .endpoints()
            .map(|addr| Endpoint {
                addr: addr.to_string(),
                alive: AtomicBool::new(false),
                idle: Mutex::new(Vec::new()),
            })
            .collect();
        // FNV-1a over the name: any nonzero, per-shard-distinct seed works.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in spec.name.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Shard {
            spec,
            opts,
            policy,
            endpoints,
            queries: Counter::new(),
            errors: Counter::new(),
            failovers: Counter::new(),
            hedges_fired: Counter::new(),
            hedges_won: Counter::new(),
            latency_us: Counter::new(),
            bytes_in: Counter::new(),
            bytes_out: Counter::new(),
            rng: AtomicU64::new(seed | 1),
        }
    }

    /// The replica set, primary first.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Shard liveness: true while at least one endpoint is alive (updated
    /// by every exchange and by probes).
    pub fn is_alive(&self) -> bool {
        self.endpoints.iter().any(Endpoint::is_alive)
    }

    /// A failure of endpoint `addr` of this shard.
    pub(crate) fn named(&self, addr: &str, detail: String) -> CoordError {
        CoordError::Shard {
            name: self.spec.name.clone(),
            addr: addr.to_string(),
            detail,
        }
    }

    /// The one exchange with one endpoint, and the only place a connection
    /// is checked out: runs `call` on a pooled connection under `trace`,
    /// accounts bytes and latency, counts the exchange, records the
    /// endpoint's liveness and re-pools the connection. No failover — this
    /// is the unit both paths build on: reads ([`Shard::call`]) ladder it
    /// across the replica set, writes send it to every endpoint.
    ///
    /// - An answer — a shard-answered error frame included — marks the
    ///   endpoint alive, counts one `query` and comes back as `Ok`; a
    ///   retryable-coded one (`Deadline`/`Capacity`/`Backpressure`) also
    ///   counts one `error`, since it is no answer to the statement.
    /// - An I/O or protocol failure drops the connection, marks the endpoint
    ///   dead, counts one `error` and surfaces a [`CoordError::Shard`]
    ///   naming shard and endpoint.
    pub(crate) fn exchange(
        &self,
        idx: usize,
        call: &Call,
        trace: Option<TraceContext>,
    ) -> Result<Response, CoordError> {
        let endpoint = &self.endpoints[idx];
        let result = endpoint.check_out(&self.opts).and_then(|mut conn| {
            conn.set_trace(trace);
            let (out0, in0) = (conn.bytes_out(), conn.bytes_in());
            let started = Instant::now();
            let result = call.run(&mut conn);
            conn.set_trace(None);
            self.latency_us.add(started.elapsed().as_micros() as u64);
            self.bytes_out.add(conn.bytes_out() - out0);
            self.bytes_in.add(conn.bytes_in() - in0);
            if result.is_ok() {
                endpoint.check_in(conn);
            }
            result
        });
        match result {
            Ok(response) => {
                self.queries.inc();
                endpoint.alive.store(true, Ordering::Relaxed);
                if matches!(&response, Response::Error { code, .. } if code.is_retryable()) {
                    self.errors.inc();
                }
                Ok(response)
            }
            Err(e) => {
                self.errors.inc();
                endpoint.alive.store(false, Ordering::Relaxed);
                Err(self.named(&endpoint.addr, e.to_string()))
            }
        }
    }

    /// The **read** path: executes `call` with failover across the replica
    /// set and optional hedging (see the module docs). Returns the response
    /// of the first endpoint that produced a non-retryable answer; `Error`
    /// frames of the `Query` class come back as values — they are answers,
    /// identical on every replica.
    pub(crate) fn call(
        self: &Arc<Self>,
        call: Call,
        trace: Option<TraceContext>,
    ) -> Result<Response, CoordError> {
        let call = Arc::new(call);
        let order = self.endpoint_order();
        let mut attempted = 0usize;
        let mut last_err = None;

        if let (Some(hedge), true) = (self.policy.hedge, order.len() > 1) {
            match self.hedged_pair(&call, trace, order[0], order[1], hedge) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    last_err = Some(e);
                    attempted = 2;
                }
            }
        }

        for &idx in &order[attempted.min(order.len())..] {
            if attempted > 0 {
                self.failovers.inc();
                std::thread::sleep(self.jittered_backoff(attempted));
            }
            attempted += 1;
            match self.attempt(idx, &call, trace) {
                Ok(response) => return Ok(response),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("a replica set has at least one endpoint"))
    }

    /// One try on one endpoint: transport failures and retryable-coded
    /// answers become `Err` so the ladder moves on; everything else is
    /// final.
    fn attempt(
        &self,
        idx: usize,
        call: &Call,
        trace: Option<TraceContext>,
    ) -> Result<Response, CoordError> {
        match self.exchange(idx, call, trace)? {
            // The endpoint answered — it is alive — but refused or timed
            // out; a replica may accept.
            Response::Error { code, message } if code.is_retryable() => {
                Err(self.named(&self.endpoints[idx].addr, format!("{code:?}: {message}")))
            }
            response => Ok(response),
        }
    }

    /// Races the primary attempt against a delayed duplicate on `b`. The
    /// first non-retryable answer wins; the loser's thread finishes in the
    /// background (cancel-by-ignore). `Err` means both endpoints were
    /// exhausted — the caller continues the ladder from the third endpoint.
    fn hedged_pair(
        self: &Arc<Self>,
        call: &Arc<Call>,
        trace: Option<TraceContext>,
        a: usize,
        b: usize,
        hedge: Duration,
    ) -> Result<Response, CoordError> {
        let (tx, rx) = mpsc::channel();
        self.spawn_attempt(a, call, trace, tx.clone());
        match rx.recv_timeout(hedge) {
            Ok((_, Ok(response))) => Ok(response),
            Ok((_, Err(_e))) => {
                // The primary failed outright within the window: a classic
                // failover, not a hedge.
                self.failovers.inc();
                std::thread::sleep(self.jittered_backoff(1));
                self.attempt(b, call, trace)
            }
            Err(_) => {
                // The primary is slow. Duplicate the call at `b` and take
                // whichever answers first.
                self.hedges_fired.inc();
                self.spawn_attempt(b, call, trace, tx);
                let mut last_err = None;
                for _ in 0..2 {
                    match rx.recv() {
                        Ok((winner, Ok(response))) => {
                            if winner == b {
                                self.hedges_won.inc();
                            }
                            return Ok(response);
                        }
                        Ok((_, Err(e))) => last_err = Some(e),
                        Err(_) => break,
                    }
                }
                Err(last_err
                    .unwrap_or_else(|| self.named(&self.endpoints[a].addr, "hedge lost".into())))
            }
        }
    }

    /// Fires one attempt on a detached thread; the result (or the loss) is
    /// reported through `tx`. Detachment is what makes cancel-by-ignore
    /// work: a loser blocked on a slow endpoint cannot stall the winner.
    fn spawn_attempt(
        self: &Arc<Self>,
        idx: usize,
        call: &Arc<Call>,
        trace: Option<TraceContext>,
        tx: mpsc::Sender<(usize, Result<Response, CoordError>)>,
    ) {
        let shard = Arc::clone(self);
        let call = Arc::clone(call);
        std::thread::spawn(move || {
            let result = shard.attempt(idx, &call, trace);
            let _ = tx.send((idx, result));
        });
    }

    /// Endpoint indices in attempt order: live endpoints first, primary
    /// first within each class (the sort is stable). Dead endpoints stay in
    /// the ladder — liveness is a hint, not a ban — but are tried last.
    fn endpoint_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.endpoints.len()).collect();
        order.sort_by_key(|&i| !self.endpoints[i].is_alive());
        order
    }

    /// Exponential backoff for the `attempt`-th try, jittered to 50–150% via
    /// a per-shard xorshift so replicas are not retried in lockstep.
    fn jittered_backoff(&self, attempt: usize) -> Duration {
        let doubled = self
            .policy
            .backoff
            .saturating_mul(1u32 << (attempt.clamp(1, 5) as u32 - 1));
        let capped = doubled.min(self.policy.max_backoff);
        let mut seed = self.rng.load(Ordering::Relaxed);
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        self.rng.store(seed, Ordering::Relaxed);
        capped.mul_f64(0.5 + (seed % 1024) as f64 / 1024.0)
    }

    fn pooled(&self) -> usize {
        self.endpoints.iter().map(Endpoint::pooled).sum()
    }

    /// The shard's stats table: its `SHOW STATS` rows (the caller adds the
    /// scope `coordinator.<shard>`) and its `hermes_shard_*` series,
    /// labelled by shard name and, per endpoint, by endpoint address.
    /// `endpoints` has no series.
    pub fn stat_table(&self) -> Vec<Stat> {
        let shard = |stat: Stat| stat.label("shard", self.spec.name.clone());
        let counter =
            |row, series, help, c: &Counter| shard(Stat::counter(row, series, help, c.get()));
        let mut table = vec![
            shard(Stat::gauge(
                "alive",
                "hermes_shard_alive",
                "Last observed shard liveness (1 = at least one endpoint alive)",
                self.is_alive() as u64,
            )),
            Stat::gauge("endpoints", None, "", self.endpoints.len() as u64),
            counter(
                "queries",
                "hermes_shard_queries_total",
                "Exchanges the shard answered (error frames included)",
                &self.queries,
            ),
            counter(
                "errors",
                "hermes_shard_errors_total",
                "Exchanges that broke or were refused with a retryable code",
                &self.errors,
            ),
            counter(
                "failovers",
                "hermes_shard_failovers_total",
                "Reads retried on another endpoint of the replica set",
                &self.failovers,
            ),
            counter(
                "hedges_fired",
                "hermes_shard_hedges_fired_total",
                "Hedged duplicate reads fired at a replica",
                &self.hedges_fired,
            ),
            counter(
                "hedges_won",
                "hermes_shard_hedges_won_total",
                "Hedged duplicates that answered before the primary",
                &self.hedges_won,
            ),
            counter(
                "latency_us_total",
                "hermes_shard_latency_us_total",
                "Cumulative downstream exchange latency in microseconds",
                &self.latency_us,
            ),
            counter(
                "bytes_in",
                "hermes_shard_bytes_in_total",
                "Bytes read from the shard",
                &self.bytes_in,
            ),
            counter(
                "bytes_out",
                "hermes_shard_bytes_out_total",
                "Bytes written to the shard",
                &self.bytes_out,
            ),
            shard(Stat::gauge(
                "pooled_connections",
                "hermes_shard_pooled_connections",
                "Idle pooled connections to the shard (all endpoints)",
                self.pooled() as u64,
            )),
        ];
        for (i, endpoint) in self.endpoints.iter().enumerate() {
            let endpoint_stat = |row: String, series, help, value| {
                shard(Stat::gauge(row.as_str(), series, help, value))
                    .label("endpoint", endpoint.addr.clone())
            };
            table.push(endpoint_stat(
                format!("endpoint.{i}.alive"),
                "hermes_shard_endpoint_alive",
                "Last observed endpoint liveness (1 = alive)",
                endpoint.is_alive() as u64,
            ));
            table.push(endpoint_stat(
                format!("endpoint.{i}.pooled_connections"),
                "hermes_shard_endpoint_pooled_connections",
                "Idle pooled connections to the endpoint",
                endpoint.pooled() as u64,
            ));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec {
            name: "lonely".into(),
            addr: "127.0.0.1:1".into(), // reserved port: connections fail fast
            replicas: vec!["127.0.0.1:2".into()],
            start_ms: i64::MIN,
            end_ms: i64::MAX,
        }
    }

    fn opts() -> ConnectOptions {
        ConnectOptions {
            retries: 0,
            connect_timeout: std::time::Duration::from_millis(200),
            ..ConnectOptions::default()
        }
    }

    fn fast_policy() -> FailoverPolicy {
        FailoverPolicy {
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..FailoverPolicy::default()
        }
    }

    fn query(sql: &str) -> Call {
        Call::One(Request::Query { sql: sql.into() })
    }

    #[test]
    fn unreachable_shard_yields_a_named_error_and_goes_dead() {
        let shard = Shard::with_policy(spec(), opts(), FailoverPolicy::default());
        let err = shard
            .exchange(0, &query("SHOW THREADS;"), None)
            .unwrap_err();
        match &err {
            CoordError::Shard { name, addr, .. } => {
                assert_eq!(name, "lonely");
                assert_eq!(addr, "127.0.0.1:1");
            }
            other => panic!("expected a named shard error, got {other:?}"),
        }
        assert!(err.to_string().starts_with("shard 'lonely' (127.0.0.1:1):"));
        assert!(!shard.is_alive());
        assert!(shard.exchange(1, &query("SHOW THREADS;"), None).is_err());
        assert!(!shard.is_alive());
        let rows = hermes_obs::rows(&shard.stat_table());
        assert!(rows.contains(&("alive".to_string(), 0)));
        assert!(rows.contains(&("endpoints".to_string(), 2)));
        assert!(rows.contains(&("errors".to_string(), 2)));
        assert!(rows.contains(&("queries".to_string(), 0)));
    }

    #[test]
    fn read_ladder_walks_every_endpoint_and_counts_failovers() {
        let shard = Arc::new(Shard::with_policy(spec(), opts(), fast_policy()));
        let err = shard.call(query("SHOW THREADS;"), None).unwrap_err();
        // Both (unreachable) endpoints were tried; the error names the last.
        match err {
            CoordError::Shard { addr, .. } => assert_eq!(addr, "127.0.0.1:2"),
            other => panic!("expected a named shard error, got {other:?}"),
        }
        let rows = hermes_obs::rows(&shard.stat_table());
        assert!(rows.contains(&("failovers".to_string(), 1)));
        assert!(rows.contains(&("hedges_fired".to_string(), 0)));
        assert!(rows.contains(&("hedges_won".to_string(), 0)));
        assert!(!shard.endpoints()[0].is_alive());
        assert!(!shard.endpoints()[1].is_alive());
    }

    /// The counting rule: a shard-answered error frame is an answer. A read
    /// (through the failover ladder), a write and a prepared write (one
    /// endpoint each) that get one count one `query` and no `error`, and
    /// leave the endpoint alive with its connection pooled.
    #[cfg(unix)]
    #[test]
    fn error_frames_count_alike_on_every_path() {
        use hermes_core::SharedEngine;
        use hermes_server::{Server, ServerConfig};

        let server = Server::bind(
            "127.0.0.1:0",
            SharedEngine::default(),
            ServerConfig::default(),
        )
        .expect("bind")
        .spawn()
        .expect("spawn");
        let spec = ShardSpec {
            addr: server.addr().to_string(),
            replicas: Vec::new(),
            ..spec()
        };
        let shard = Arc::new(Shard::with_policy(spec, opts(), FailoverPolicy::default()));
        let counts = |shard: &Shard| {
            let rows = hermes_obs::rows(&shard.stat_table());
            let get = |m: &str| rows.iter().find(|(k, _)| k == m).unwrap().1;
            (get("queries"), get("errors"), get("pooled_connections"))
        };
        let unknown = "unknown dataset 'nope'";
        let read = shard
            .call(query("SELECT RANGE(nope, 0, 10);"), None)
            .unwrap();
        assert!(matches!(&read, Response::Error { message, .. } if message == unknown));
        assert_eq!(counts(&shard), (1, 0, 1));
        let write = shard
            .exchange(0, &query("DROP DATASET nope;"), None)
            .unwrap();
        assert!(matches!(&write, Response::Error { message, .. } if message == unknown));
        assert_eq!(counts(&shard), (2, 0, 1));
        let prepared = Call::Prepared {
            sql: "DROP DATASET nope;".into(),
            params: Vec::new(),
        };
        let write = shard.exchange(0, &prepared, None).unwrap();
        assert!(matches!(&write, Response::Error { message, .. } if message == unknown));
        assert_eq!(counts(&shard), (3, 0, 1));
        assert!(shard.is_alive());
        server.shutdown();
    }

    #[test]
    fn backoff_is_jittered_and_bounded() {
        let shard = Shard::with_policy(spec(), opts(), FailoverPolicy::default());
        for attempt in 1..6 {
            let d = shard.jittered_backoff(attempt);
            assert!(d >= Duration::from_millis(5), "{d:?} too small");
            assert!(d <= Duration::from_millis(300), "{d:?} too large");
        }
        // Distinct draws: the xorshift state advances.
        let (a, b) = (shard.jittered_backoff(1), shard.jittered_backoff(1));
        assert!(a != b || shard.jittered_backoff(1) != b);
    }
}
