//! The TCP server: one serving loop (`crate::event_loop`) in front of a
//! [`Backend`].
//!
//! The loop is readiness-driven: one thread multiplexes every socket through
//! `poll(2)`, parses pipelined frames into per-connection queues, and hands
//! statements to a small worker pool — so idle connections cost file
//! descriptors, not stacks. It owns everything that
//! is not statement semantics (framing, admission control, deadlines, panic
//! isolation, counters); a [`Backend`] owns what a statement *means*.
//!
//! Two backends exist. [`SharedEngine`] is the single-node one: every
//! connection gets its own [`Session`], read statements pin the engine's
//! published snapshot epoch and never block, writes serialize through the
//! engine's commit mutex and publish new epochs. `hermes-coord`'s
//! `Coordinator` is the other: it routes each statement to shards.
//!
//! Serving is unix-only (the loop polls raw file descriptors); the client,
//! the protocol and the metrics build anywhere.

use crate::metrics::ServerMetrics;
use crate::protocol::{Request, Response};
use crate::shard;
use crate::traceview::{self, TraceQuery};
use hermes_core::{EngineError, SharedEngine};
use hermes_obs::{next_id, Registry, Span, SpanStore, Stat, TraceContext};
use hermes_retratree::OwnedSlice;
use hermes_sql::{
    push_stats, query_window, sort_stats_rows, CommandStatus, CommandTag, Prepared, QueryOutcome,
    Session, Statement,
};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most simultaneous connections admitted; further clients receive a
    /// [`ErrorCode::Capacity`](crate::ErrorCode::Capacity) error response to
    /// their first request and are disconnected.
    pub max_connections: usize,
    /// When set, any statement slower than this many milliseconds bumps the
    /// slow-query counter and writes one structured JSON line (with its trace
    /// id) to stderr. `None` disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Most worker threads answering statements (they are started as
    /// concurrent statements need them); `0` lets the backend size the pool
    /// ([`Backend::default_workers`]).
    pub workers: usize,
    /// Most requests admitted but not yet answered across all connections.
    /// Further pipelined requests are answered with an
    /// [`ErrorCode::Backpressure`](crate::ErrorCode::Backpressure) error
    /// without executing.
    pub max_pending: usize,
    /// When set, a request not fully answered within this many milliseconds
    /// of arrival is answered with an
    /// [`ErrorCode::Deadline`](crate::ErrorCode::Deadline) error instead of
    /// its (late) result.
    pub deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            slow_query_ms: None,
            workers: 0,
            max_pending: 1024,
            deadline_ms: None,
        }
    }
}

/// What a [`Backend`] sees of the server while answering one request.
pub struct RequestCtx<'a> {
    /// The server's counters. The loop does the per-request accounting; a
    /// backend reads them (the `server` / `coordinator` scope of
    /// `SHOW STATS`) and sets the gauges only it can know.
    pub metrics: &'a ServerMetrics,
    /// The span store behind `SHOW TRACE`, where the backend records the
    /// request's span(s).
    pub spans: &'a Arc<SpanStore>,
    /// Whether the loop will want [`RequestCtx::traced`]'s statement text.
    slow_query_log: bool,
    traced: Option<(u64, Option<Arc<str>>, &'static str)>,
}

impl<'a> RequestCtx<'a> {
    pub(crate) fn new(
        metrics: &'a ServerMetrics,
        spans: &'a Arc<SpanStore>,
        slow_query_log: bool,
    ) -> Self {
        RequestCtx {
            metrics,
            spans,
            slow_query_log,
            traced: None,
        }
    }

    /// Tells the loop which trace the request was recorded under and what to
    /// call it — its statement, or else its span's name — so a slow one is
    /// logged with both. A request never reported here is never slow-logged.
    pub fn traced(&mut self, trace_id: u64, statement: Option<&Arc<str>>, name: &'static str) {
        if self.slow_query_log {
            self.traced = Some((trace_id, statement.cloned(), name));
        }
    }

    pub(crate) fn take_traced(&mut self) -> Option<(u64, Option<Arc<str>>, &'static str)> {
        self.traced.take()
    }
}

/// What the serving loop serves: the meaning of a statement, and nothing
/// else.
///
/// The loop owns framing, the handshake, the connection cap, admission
/// control, deadlines, panic isolation, the latency/served/error/byte
/// counters, the slow-query line and shutdown. A backend owns per-connection
/// statement state, turning one [`Request`] into one [`Response`], and the
/// spans that describe how it did so.
pub trait Backend: Send + Sync + 'static {
    /// Per-connection state. It travels into a worker with each request and
    /// back, so at most one request per connection sees it at a time.
    type Conn: Send + 'static;

    /// State for a freshly accepted connection.
    fn open(&self) -> Self::Conn;

    /// Answers one request and records its span(s) in `ctx.spans`.
    /// `inbound_trace` is the trace context the peer propagated, if any.
    /// May block; a panic is caught by the loop and answered as a typed
    /// error, after which `conn` is used again as the panic left it.
    fn answer(
        &self,
        conn: &mut Self::Conn,
        request: Request,
        inbound_trace: Option<TraceContext>,
        ctx: &mut RequestCtx<'_>,
    ) -> Response;

    /// The backend's stats table, pulled at every `/metrics` scrape: the
    /// engine's, or every shard's.
    fn stat_table(&self) -> Vec<Stat>;

    /// Worker-pool bound when [`ServerConfig::workers`] is `0`.
    fn default_workers(&self, config: &ServerConfig) -> usize;
}

/// A bound-but-not-yet-running server.
pub struct Server<B: Backend = SharedEngine> {
    pub(crate) listener: TcpListener,
    pub(crate) backend: Arc<B>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) spans: Arc<SpanStore>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Live connection sockets, so [`ServerHandle::kill`] can cut sessions
    /// mid-flight (simulating a crashed shard in tests).
    pub(crate) conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
}

impl<B: Backend> Server<B> {
    /// Binds a listener (port 0 picks an ephemeral port) over a backend —
    /// a [`SharedEngine`] for a single node, a `Coordinator` for a sharded
    /// deployment.
    ///
    /// The server owns a process-wide [`Registry`] rendering its own stats
    /// table and [`Backend::stat_table`], and a
    /// [`SpanStore`] holding recent per-query spans for `SHOW TRACE`.
    pub fn bind(addr: impl ToSocketAddrs, backend: B, config: ServerConfig) -> io::Result<Self> {
        let backend = Arc::new(backend);
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(ServerMetrics::register(&registry));
        let collector = Arc::clone(&backend);
        registry.register_collector(move || collector.stat_table());
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            backend,
            config,
            metrics,
            registry,
            spans: Arc::new(SpanStore::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metric counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The process-wide metrics registry (served at `GET /metrics`).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The in-process span store behind `SHOW TRACE` / `SHOW TRACES`.
    pub fn spans(&self) -> Arc<SpanStore> {
        Arc::clone(&self.spans)
    }

    /// Runs the serving loop on the calling thread until shut down.
    pub fn run(self) -> io::Result<()> {
        crate::event_loop::run(self)
    }

    /// Runs the serving loop on a background thread, returning a handle that
    /// shuts the server down when asked (or dropped).
    pub fn spawn(self) -> io::Result<ServerHandle<B>> {
        let addr = self.local_addr()?;
        let metrics = self.metrics();
        let registry = self.registry();
        let spans = self.spans();
        let shutdown = Arc::clone(&self.shutdown);
        let backend = Arc::clone(&self.backend);
        let conns = Arc::clone(&self.conns);
        let thread = thread::spawn(move || {
            let _ = self.run();
        });
        Ok(ServerHandle {
            addr,
            metrics,
            registry,
            spans,
            shutdown,
            backend,
            conns,
            thread: Some(thread),
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle<B: Backend = SharedEngine> {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    spans: Arc<SpanStore>,
    shutdown: Arc<AtomicBool>,
    backend: Arc<B>,
    conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle<SharedEngine> {
    /// A handle to the engine the server serves (e.g. to preload data).
    pub fn engine(&self) -> SharedEngine {
        SharedEngine::clone(&self.backend)
    }
}

impl<B: Backend> ServerHandle<B> {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The process-wide metrics registry (served at `GET /metrics`).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The in-process span store behind `SHOW TRACE` / `SHOW TRACES`.
    pub fn spans(&self) -> Arc<SpanStore> {
        Arc::clone(&self.spans)
    }

    /// Stops accepting connections and joins the serving loop. A statement
    /// already executing on a worker runs to completion unobserved.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Hard stop: like [`ServerHandle::shutdown`] but also severs every live
    /// connection socket, so peers holding pooled connections observe the
    /// failure immediately — the closest in-process equivalent of killing the
    /// server process, used by the multi-shard failure tests.
    pub fn kill(mut self) {
        for (_, stream) in self.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.stop();
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl<B: Backend> Drop for ServerHandle<B> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The engine backend's per-connection state: the session (whose backend
/// pins snapshot epochs) and the wire table of prepared statements. Wire
/// handles are indexes into this connection-private table, so one
/// connection can never execute (or even see) another's statements.
pub struct EngineConn {
    session: Session<SharedEngine>,
    /// Each wire handle's session handle and its statement, rendered once
    /// (`None` for trace inspection, which records no span).
    prepared: Vec<(Prepared, Option<Arc<str>>)>,
}

/// The single-node backend: statements run against the engine through a
/// per-connection [`Session`].
impl Backend for SharedEngine {
    type Conn = EngineConn;

    fn open(&self) -> EngineConn {
        EngineConn {
            session: Session::new(self.clone()),
            prepared: Vec::new(),
        }
    }

    fn answer(
        &self,
        conn: &mut EngineConn,
        request: Request,
        inbound_trace: Option<TraceContext>,
        ctx: &mut RequestCtx<'_>,
    ) -> Response {
        let plan = trace_plan(&request, &conn.prepared);
        let started = Instant::now();
        let response = execute(conn, self, ctx.metrics, ctx.spans, request);
        let elapsed = started.elapsed();
        ctx.metrics.epoch.set(self.epoch());
        if let Some(plan) = plan {
            record_request_span(plan, &response, inbound_trace, started, elapsed, ctx);
        }
        response
    }

    fn stat_table(&self) -> Vec<Stat> {
        self.with_read(|e| e.stat_table())
    }

    /// Engine workers compute: one per core, within `[2, 8]`.
    fn default_workers(&self, _config: &ServerConfig) -> usize {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }
}

/// How (and whether) to record a span for a request, decided before the
/// request is consumed by [`answer`].
struct TracePlan {
    /// Span name (`query`, `qut_partial`, …).
    name: &'static str,
    /// Statement text for the span attribute and the slow-query log.
    statement: Option<Arc<str>>,
}

/// Builds the span plan for a request. Trace-inspection statements
/// (`SHOW TRACE`/`SHOW TRACES`, direct or prepared) return `None`: recording
/// them would fill the ring buffer with the act of looking at it.
fn trace_plan(request: &Request, prepared: &[(Prepared, Option<Arc<str>>)]) -> Option<TracePlan> {
    let plan = |name, statement| Some(TracePlan { name, statement });
    match request {
        Request::Query { sql } => match traceview::sniff_trace_text(sql) {
            Some(_) => None,
            None => plan("query", Some(sql.as_str().into())),
        },
        Request::Prepare { sql } => plan("prepare", Some(sql.as_str().into())),
        Request::ExecutePrepared { handle, .. } => match prepared.get(*handle as usize) {
            Some((_, None)) => None,
            entry => plan("execute_prepared", entry.and_then(|(_, text)| text.clone())),
        },
        Request::Ingest { .. } => plan("ingest", None),
        Request::QutPartial { .. } => plan("qut_partial", None),
        Request::RangePartial { .. } => plan("range_partial", None),
        Request::GatherTrajectories { .. } => plan("gather_trajectories", None),
        Request::InfoPartial { .. } => plan("info_partial", None),
    }
}

/// Records the span for one answered request — parented under the wire's
/// trace context when the caller propagated one (the coordinator fan-out),
/// otherwise as a fresh root — and names it to the loop's slow-query log.
fn record_request_span(
    plan: TracePlan,
    response: &Response,
    inbound_trace: Option<TraceContext>,
    started: Instant,
    elapsed: Duration,
    ctx: &mut RequestCtx<'_>,
) {
    let (trace_id, parent_span_id, start_us) = match inbound_trace {
        // Remote origin: wall clocks are not assumed synchronized, so the
        // start offset is left at 0 (see [`Span::start_us`]).
        Some(remote) => (remote.trace_id, remote.parent_span_id, 0),
        None => (
            next_id(),
            0,
            started
                .saturating_duration_since(process_origin())
                .as_micros() as u64,
        ),
    };
    ctx.traced(trace_id, plan.statement.as_ref(), plan.name);
    let attrs = match response {
        Response::QutPartial(p) => traceview::qut_stats_attrs(&p.stats),
        _ => Vec::new(),
    };
    ctx.spans.record(Span {
        trace_id,
        span_id: next_id(),
        parent_span_id,
        name: plan.name.into(),
        start_us,
        duration_us: elapsed.as_micros() as u64,
        statement: plan.statement,
        status: Some(traceview::status_of(response)),
        attrs,
    });
}

/// Process-wide time origin for locally rooted span start offsets, pinned on
/// first use so offsets within one span store are mutually comparable.
fn process_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Answers one request against the connection's session.
fn execute(
    conn: &mut EngineConn,
    engine: &SharedEngine,
    metrics: &ServerMetrics,
    spans: &SpanStore,
    request: Request,
) -> Response {
    let EngineConn { session, prepared } = conn;
    match request {
        Request::Query { sql } => match traceview::sniff_trace_text(&sql) {
            // Trace inspection is answered at this serving edge: the session
            // has no span store (its executor returns empty trace frames).
            Some(TraceQuery::Traces) => {
                finish_outcome(traceview::traces_outcome(spans), false, metrics)
            }
            Some(TraceQuery::Trace(id)) => {
                finish_outcome(traceview::trace_outcome(spans, id), false, metrics)
            }
            None => match session.execute(&sql) {
                Ok(outcome) => finish_outcome(outcome, is_show_stats_text(&sql), metrics),
                Err(e) => Response::error(e.to_string()),
            },
        },
        Request::Prepare { sql } => match session.prepare(&sql) {
            Ok(handle) => {
                // Re-preparing a cached text returns the same session handle;
                // mirror that de-duplication on the wire.
                let wire = match prepared.iter().position(|&(h, _)| h == handle) {
                    Some(i) => i,
                    None => {
                        let text = session
                            .statement(handle)
                            .filter(|s| {
                                !matches!(s, Statement::ShowTraces | Statement::ShowTrace { .. })
                            })
                            .map(|s| s.to_string().into());
                        prepared.push((handle, text));
                        prepared.len() - 1
                    }
                };
                Response::Prepared {
                    handle: wire as u32,
                }
            }
            Err(e) => Response::error(e.to_string()),
        },
        Request::ExecutePrepared { handle, params } => {
            let Some(&(session_handle, _)) = prepared.get(handle as usize) else {
                return Response::error(format!(
                    "unknown prepared statement handle {handle} on this connection"
                ));
            };
            let stmt = session.statement(session_handle);
            // Prepared trace inspection (`SHOW TRACE $1`) is intercepted like
            // its direct-text form; `traceview` binds it for both edges.
            if let Some(answer) =
                stmt.and_then(|stmt| traceview::prepared_trace_outcome(spans, stmt, &params))
            {
                return match answer {
                    Ok(outcome) => finish_outcome(outcome, false, metrics),
                    Err(e) => Response::error(e.to_string()),
                };
            }
            let show_stats = matches!(stmt, Some(Statement::ShowStats));
            match session.execute_prepared(session_handle, &params) {
                Ok(outcome) => finish_outcome(outcome, show_stats, metrics),
                Err(e) => Response::error(e.to_string()),
            }
        }
        Request::Ingest {
            dataset,
            trajectories,
        } => {
            let n = trajectories.len() as u64;
            let loaded = engine.with_write(|e| {
                if matches!(
                    e.dataset_info(&dataset),
                    Err(EngineError::UnknownDataset(_))
                ) {
                    e.create_dataset(&dataset)?;
                }
                e.load_trajectories(&dataset, trajectories)
            });
            match loaded {
                Ok(()) => Response::Command(CommandStatus {
                    tag: CommandTag::Ingest,
                    affected: n,
                }),
                Err(e) => Response::error(e.to_string()),
            }
        }
        Request::QutPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
            overrides,
        } => match owned_slice(owned_start_ms, owned_end_ms) {
            Err(message) => Response::error(message),
            Ok(owned) => {
                let w = query_window(wi, we);
                match engine.with_read(|e| shard::qut_partial(e, &dataset, &owned, &w, overrides)) {
                    Ok(partial) => Response::QutPartial(partial),
                    Err(e) => Response::error(e.to_string()),
                }
            }
        },
        Request::RangePartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
            wi,
            we,
        } => match owned_slice(owned_start_ms, owned_end_ms) {
            Err(message) => Response::error(message),
            Ok(owned) => {
                let w = query_window(wi, we);
                match engine.with_read(|e| e.owned_range_count(&dataset, &owned, &w)) {
                    Ok(n) => Response::Count(n as u64),
                    Err(e) => Response::error(e.to_string()),
                }
            }
        },
        Request::GatherTrajectories {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => match owned_slice(owned_start_ms, owned_end_ms) {
            Err(message) => Response::error(message),
            Ok(owned) => {
                match engine.with_read(|e| shard::gather_trajectories(e, &dataset, &owned)) {
                    Ok(trajectories) => Response::Trajectories(trajectories),
                    Err(e) => Response::error(e.to_string()),
                }
            }
        },
        Request::InfoPartial {
            dataset,
            owned_start_ms,
            owned_end_ms,
        } => match owned_slice(owned_start_ms, owned_end_ms) {
            Err(message) => Response::error(message),
            Ok(owned) => match engine.with_read(|e| shard::info_partial(e, &dataset, &owned)) {
                Ok(info) => Response::InfoPartial(info),
                Err(e) => Response::error(e.to_string()),
            },
        },
    }
}

/// Validates an ownership slice from the wire without panicking on inverted
/// bounds; the error is the message for a [`Response::Error`].
fn owned_slice(start_ms: i64, end_ms: i64) -> Result<OwnedSlice, String> {
    if start_ms > end_ms {
        return Err(format!(
            "invalid ownership slice: start {start_ms} exceeds end {end_ms}"
        ));
    }
    Ok(OwnedSlice::new(start_ms, end_ms))
}

/// Wraps an outcome as a response, appending the `server` scope to
/// `SHOW STATS` results on the way out and restoring the deterministic
/// (scope, metric) row order the statement guarantees.
fn finish_outcome(outcome: QueryOutcome, show_stats: bool, metrics: &ServerMetrics) -> Response {
    match outcome {
        QueryOutcome::Rows { mut frame, stats } => {
            if show_stats {
                push_stats(&mut frame, "server", &metrics.stat_table());
                sort_stats_rows(&mut frame);
            }
            Response::Rows { frame, stats }
        }
        QueryOutcome::Command(status) => Response::Command(status),
    }
}

/// True when `sql` is a `SHOW STATS` statement (the only statement whose
/// result the server augments), without paying for a parse.
fn is_show_stats_text(sql: &str) -> bool {
    let mut words = sql.trim().trim_end_matches(';').split_whitespace();
    matches!(
        (words.next(), words.next(), words.next()),
        (Some(a), Some(b), None)
            if a.eq_ignore_ascii_case("show") && b.eq_ignore_ascii_case("stats")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_sql::Value;
    use hermes_trajectory::{Point, Timestamp, Trajectory};

    #[test]
    fn show_stats_detection() {
        assert!(is_show_stats_text("SHOW STATS;"));
        assert!(is_show_stats_text("  show   stats  "));
        assert!(!is_show_stats_text("SHOW DATASETS;"));
        assert!(!is_show_stats_text("SELECT INFO(show);"));
    }

    fn flights() -> Vec<Trajectory> {
        let flight = |id: u64, y: f64, t0: i64| {
            let points = (0..30)
                .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect();
            Trajectory::new(id, id, points).unwrap()
        };
        (0..10)
            .map(|i| flight(i, i as f64 * 10.0, 0))
            .chain((10..18).map(|i| flight(i, 50_000.0 + i as f64 * 10.0, 4 * 3_600_000)))
            .collect()
    }

    /// `SHOW STATS`' engine rows and the engine's `/metrics` series render
    /// one stats table: the frame's engine rows are exactly the table's rows,
    /// and every entry with both a row and a series scrapes the value its
    /// row shows.
    #[test]
    fn show_stats_engine_rows_equal_their_metrics_series() {
        let engine = SharedEngine::default();
        engine.with_write(|e| {
            e.create_dataset("flights").unwrap();
            e.load_trajectories("flights", flights()).unwrap();
        });
        let mut session = Session::new(engine.clone());
        for sql in [
            "BUILD INDEX ON flights WITH CHUNK 4 HOURS SIGMA 60 EPSILON 400;",
            "SELECT S2T(flights, 60, 0.35, 0.05, 300000, 400);",
            // ε = 5: most distances are cut off above it.
            "SELECT S2T(flights, 60, 0.35, 0.05, 300000, 5);",
            "SELECT QUT(flights, 0, 28800000, 0.35, 0.05, 300000, 400, 1800000);",
            "SELECT QUT(flights, 600000, 15000000, 0.35, 0.05, 300000, 400, 1800000);",
        ] {
            session.execute(sql).unwrap();
        }
        let shown = session.execute("SHOW STATS;").unwrap();
        let frame = shown.expect_frame("SHOW STATS");
        let table = engine.stat_table();
        let registry = Registry::new();
        let collector = engine.clone();
        registry.register_collector(move || collector.stat_table());
        let text = registry.render_prometheus();

        let mut shown_rows = Vec::new();
        for row in frame.rows() {
            if let [Value::Text(scope), Value::Text(metric), Value::Int(value)] = row.as_slice() {
                if scope == "engine" {
                    shown_rows.push((metric.clone(), *value));
                }
            }
        }
        let mut table_rows = hermes_obs::rows(&table);
        table_rows.sort();
        assert_eq!(shown_rows, table_rows);
        let rows = shown_rows.len();
        for stat in &table {
            let (Some(row), Some(series)) = (&stat.row, stat.series) else {
                continue;
            };
            let labels: Vec<String> = stat
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let name = match labels.is_empty() {
                true => series.to_string(),
                false => format!("{series}{{{}}}", labels.join(",")),
            };
            let scraped = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap_or_else(|| panic!("{name} is not scraped"));
            let shown = shown_rows.iter().find(|(m, _)| m == row).unwrap().1;
            assert_eq!(scraped, shown.to_string(), "engine/{row} vs {name}");
        }
        assert!(rows > 20, "only {rows} engine rows");
        let row = |name: &str| {
            (0..frame.num_rows())
                .find(|&r| frame.get(r, "metric") == Some(&Value::Text(name.into())))
                .and_then(|r| frame.get(r, "value").cloned())
        };
        // The statements moved the memo, kernel and distance counters, so
        // the comparison covers live numbers, not only zeros.
        for moved in [
            "kernel_evaluated",
            "distance_exact",
            "distance_cut_off",
            "border_memo_misses",
            "s2t_index_builds",
        ] {
            assert_ne!(row(moved), Some(Value::Int(0)), "{moved}");
        }
    }
}
