//! The TCP server: every connection gets its own [`Session`] over one
//! [`SharedEngine`], behind one of two interchangeable cores.
//!
//! The default core on unix ([`ServerCore::Event`], `crate::event_loop`) is
//! a readiness-driven event loop: one thread multiplexes every socket
//! through `epoll`/`poll(2)`, parses pipelined frames into per-connection
//! queues, and hands statements to a small worker pool — so ten thousand
//! idle connections cost file descriptors, not stacks. Read statements pin
//! the engine's published snapshot epoch and never block; writes serialize
//! through the engine's commit mutex and publish new epochs.
//!
//! The fallback core ([`ServerCore::Threaded`]) is the original
//! thread-per-connection loop behind a connection cap — still useful on
//! non-unix targets and as the A/B baseline for the concurrency benchmarks.
//! Both cores answer through the same `execute_request` path, so frames
//! are byte-identical between them.

use crate::metrics::ServerMetrics;
use crate::protocol::{
    read_handshake, read_request, write_handshake, write_response, ErrorCode, Request, Response,
};
use crate::shard;
use crate::traceview::{self, TraceQuery};
use hermes_core::{EngineError, SharedEngine};
use hermes_obs::{
    next_id, slow_query_line, Registry, Sample, SampleValue, Span, SpanStore, TraceContext,
};
use hermes_retratree::OwnedSlice;
use hermes_sql::{
    push_stat, sort_stats_rows, CommandStatus, CommandTag, Prepared, QueryOutcome, Scalar, Session,
    Statement, Value,
};
use hermes_trajectory::{TimeInterval, Timestamp};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Which concurrency core a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCore {
    /// Readiness-driven event loop (`epoll`/`poll(2)`) with a bounded worker
    /// pool. The default on unix; on other targets it falls back to
    /// [`ServerCore::Threaded`].
    Event,
    /// One OS thread per connection behind the connection cap.
    Threaded,
}

impl Default for ServerCore {
    fn default() -> Self {
        if cfg!(unix) {
            ServerCore::Event
        } else {
            ServerCore::Threaded
        }
    }
}

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most simultaneous connections admitted; further clients receive a
    /// [`ErrorCode::Capacity`] error response to their first request and are
    /// disconnected.
    pub max_connections: usize,
    /// When set, any statement slower than this many milliseconds bumps the
    /// slow-query counter and writes one structured JSON line (with its trace
    /// id) to stderr. `None` disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Which concurrency core to run.
    pub core: ServerCore,
    /// Worker threads executing statements under the event core; `0` sizes
    /// the pool from the machine (`available_parallelism`, clamped to
    /// `[2, 8]`). Ignored by the threaded core.
    pub workers: usize,
    /// Most requests admitted but not yet answered across all connections
    /// (event core). Further pipelined requests are answered with an
    /// [`ErrorCode::Backpressure`] error without executing.
    pub max_pending: usize,
    /// Most requests queued on one connection before the event loop stops
    /// reading from its socket (TCP backpressure) until the queue drains.
    pub max_conn_pending: usize,
    /// When set, a request not fully answered within this many milliseconds
    /// of arrival is answered with an [`ErrorCode::Deadline`] error instead
    /// of its (late) result.
    pub deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            slow_query_ms: None,
            core: ServerCore::default(),
            workers: 0,
            max_pending: 1024,
            max_conn_pending: 128,
            deadline_ms: None,
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) engine: SharedEngine,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) spans: Arc<SpanStore>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Live connection sockets, so [`ServerHandle::kill`] can cut sessions
    /// mid-flight (simulating a crashed shard in tests).
    pub(crate) conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
}

impl Server {
    /// Binds a listener (port 0 picks an ephemeral port) over an engine.
    ///
    /// The server owns a process-wide [`Registry`] carrying its own counters
    /// plus a pull-based collector over the engine's aggregated stats
    /// (`hermes_engine_*`, `hermes_storage_*`, `hermes_exec_*`), and a
    /// [`SpanStore`] holding recent per-query spans for `SHOW TRACE`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: SharedEngine,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(ServerMetrics::register(&registry));
        let collector_engine = engine.clone();
        registry.register_collector(move |out| collect_engine_samples(&collector_engine, out));
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine,
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

    /// Runs the server on the calling thread until shut down, dispatching to
    /// the configured [`ServerCore`].
    pub fn run(self) -> io::Result<()> {
        match self.config.core {
            #[cfg(unix)]
            ServerCore::Event => crate::event_loop::run(self),
            _ => self.run_threaded(),
        }
    }

    /// The thread-per-connection core: one blocking accept loop, one OS
    /// thread per admitted session.
    fn run_threaded(self) -> io::Result<()> {
        let mut next_conn_id: u64 = 0;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // Transient accept failures (EMFILE, aborted handshakes)
                // must not take the server down.
                Err(_) => continue,
            };
            let active = self.metrics.connections_active.get();
            if active >= self.config.max_connections as u64 {
                self.metrics.connections_rejected.inc();
                let max_connections = self.config.max_connections;
                thread::spawn(move || reject_connection(stream, max_connections));
                continue;
            }
            self.metrics.connections_accepted.inc();
            self.metrics.connections_active.inc();
            let conn_id = next_conn_id;
            next_conn_id += 1;
            if let Ok(clone) = stream.try_clone() {
                self.conns.lock().unwrap().push((conn_id, clone));
            }
            let engine = self.engine.clone();
            let metrics = Arc::clone(&self.metrics);
            let spans = Arc::clone(&self.spans);
            let slow_query_ms = self.config.slow_query_ms;
            let deadline_ms = self.config.deadline_ms;
            let conns = Arc::clone(&self.conns);
            thread::spawn(move || {
                let env = RequestEnv {
                    engine: &engine,
                    metrics: &metrics,
                    spans: &spans,
                    slow_query_ms,
                    deadline_ms,
                };
                let _ = handle_connection(stream, &env);
                metrics.connections_active.dec();
                conns.lock().unwrap().retain(|(id, _)| *id != conn_id);
            });
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a handle that
    /// shuts the server down when asked (or dropped).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let metrics = self.metrics();
        let registry = self.registry();
        let spans = self.spans();
        let shutdown = Arc::clone(&self.shutdown);
        let engine = self.engine.clone();
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
            engine,
            conns,
            thread: Some(thread),
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    spans: Arc<SpanStore>,
    shutdown: Arc<AtomicBool>,
    engine: SharedEngine,
    conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
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

    /// A handle to the engine the server serves (e.g. to preload data).
    pub fn engine(&self) -> SharedEngine {
        self.engine.clone()
    }

    /// Stops accepting connections and joins the accept loop. Connections
    /// already in a session run until their client disconnects.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Hard stop: like [`ServerHandle::shutdown`] but also severs every live
    /// connection socket, so peers holding pooled connections observe the
    /// failure immediately — the closest in-process equivalent of killing the
    /// shard process, used by the multi-shard failure tests.
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
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Builds the typed error frame for a connection turned away at the cap.
pub(crate) fn capacity_error(max_connections: usize) -> Response {
    Response::Error {
        code: ErrorCode::Capacity,
        message: format!("server at connection capacity ({max_connections} active)"),
    }
}

/// Turns away a connection over the cap. The client's first request is read
/// (with a timeout, so a silent client cannot stall the accept loop) before
/// the error response goes out — answering before the request arrives would
/// race the client's write against the close and can surface as a connection
/// reset instead of the capacity message.
fn reject_connection(stream: TcpStream, max_connections: usize) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let Ok(mut reader) = stream.try_clone().map(BufReader::new) else {
        return;
    };
    let mut writer = BufWriter::new(stream);
    // Complete the preamble exchange so the client reaches its first request,
    // then turn that request away.
    if write_handshake(&mut writer).is_err() || read_handshake(&mut reader).is_err() {
        return;
    }
    let _ = read_request(&mut reader);
    let _ = write_response(&mut writer, &capacity_error(max_connections));
}

/// Everything a request needs besides the connection's own session state.
/// Both cores build one of these and answer through [`execute_request`].
pub(crate) struct RequestEnv<'a> {
    /// The shared engine (epoch publication source).
    pub(crate) engine: &'a SharedEngine,
    /// The server's counters.
    pub(crate) metrics: &'a ServerMetrics,
    /// The span store behind `SHOW TRACE`.
    pub(crate) spans: &'a SpanStore,
    /// Slow-query log threshold.
    pub(crate) slow_query_ms: Option<u64>,
    /// Per-request deadline.
    pub(crate) deadline_ms: Option<u64>,
}

/// Builds the typed error frame for a request that overran its deadline.
pub(crate) fn deadline_error(deadline_ms: u64) -> Response {
    Response::Error {
        code: ErrorCode::Deadline,
        message: format!("deadline exceeded: request not answered within {deadline_ms}ms"),
    }
}

/// Fully answers one request: deadline admission, trace planning, execution,
/// metric accounting, span recording, deadline enforcement on the way out.
/// `received` is when the request was parsed off the socket — under the
/// event core that can be well before execution starts, which is exactly
/// what the deadline must measure.
pub(crate) fn execute_request(
    env: &RequestEnv<'_>,
    session: &mut Session<SharedEngine>,
    prepared: &mut Vec<Prepared>,
    request: Request,
    inbound_trace: Option<TraceContext>,
    received: Instant,
) -> Response {
    let metrics = env.metrics;
    let deadline = env.deadline_ms.map(Duration::from_millis);
    if let (Some(deadline), Some(ms)) = (deadline, env.deadline_ms) {
        if received.elapsed() > deadline {
            // Already late before executing: don't burn a worker on a result
            // the client has been told not to wait for.
            metrics.deadline_misses.inc();
            metrics.query_errors.inc();
            return deadline_error(ms);
        }
    }
    let plan = trace_plan(&request, session, prepared);
    let started = Instant::now();
    let mut response = execute(session, prepared, env.engine, metrics, env.spans, request);
    let elapsed = started.elapsed();
    if let (Some(deadline), Some(ms)) = (deadline, env.deadline_ms) {
        if received.elapsed() > deadline {
            metrics.deadline_misses.inc();
            response = deadline_error(ms);
        }
    }
    metrics.latency.record(elapsed);
    match &response {
        Response::Error { .. } => metrics.query_errors.inc(),
        _ => metrics.queries_served.inc(),
    };
    metrics.epoch.set(env.engine.epoch());
    if let Some(plan) = plan {
        record_request_span(
            plan,
            &response,
            inbound_trace,
            started,
            elapsed,
            env.spans,
            metrics,
            env.slow_query_ms,
        );
    }
    response
}

/// Per-connection request loop of the threaded core: read a request, answer
/// it through the connection's session, repeat until the client hangs up.
fn handle_connection(stream: TcpStream, env: &RequestEnv<'_>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let metrics = env.metrics;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Preamble: the server speaks first, then verifies the client's answer.
    // An incompatible peer gets a clean error response before the close.
    write_handshake(&mut writer)?;
    if let Err(e) = read_handshake(&mut reader) {
        metrics.query_errors.inc();
        let _ = write_response(&mut writer, &protocol_error(&e));
        return Ok(());
    }

    let mut session: Session<SharedEngine> = Session::new(env.engine.clone());
    // Wire handles are indexes into this connection-private table, so one
    // connection can never execute (or even see) another's statements.
    let mut prepared: Vec<Prepared> = Vec::new();

    loop {
        let (request, inbound_trace, n_in) = match read_request(&mut reader) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // A malformed frame leaves the stream unparseable: report and
                // drop the connection rather than guessing at a resync point.
                metrics.query_errors.inc();
                let _ = write_response(&mut writer, &protocol_error(&e));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        metrics.bytes_in.add(n_in);
        let received = Instant::now();
        let response = execute_request(
            env,
            &mut session,
            &mut prepared,
            request,
            inbound_trace,
            received,
        );
        let n_out = match write_response(&mut writer, &response) {
            Ok(n) => n,
            // An over-cap result frame is rejected before any byte hits the
            // wire, so the stream is still in sync: tell the client why
            // instead of silently dropping the connection.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                metrics.query_errors.inc();
                write_response(&mut writer, &oversize_error(&e))?
            }
            Err(e) => return Err(e),
        };
        metrics.bytes_out.add(n_out);
    }
}

/// Builds the typed error frame for an unparseable or incompatible peer.
pub(crate) fn protocol_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    }
}

/// Builds the typed error frame for a result frame over the wire cap.
pub(crate) fn oversize_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: format!("result too large for the wire protocol: {e}"),
    }
}

/// How (and whether) to record a span for a request, decided before the
/// request is consumed by [`answer`].
struct TracePlan {
    /// Span name (`query`, `qut_partial`, …).
    name: &'static str,
    /// Statement text for the span attribute and the slow-query log.
    statement: Option<String>,
}

/// Builds the span plan for a request. Trace-inspection statements
/// (`SHOW TRACE`/`SHOW TRACES`, direct or prepared) return `None`: recording
/// them would fill the ring buffer with the act of looking at it.
fn trace_plan(
    request: &Request,
    session: &Session<SharedEngine>,
    prepared: &[Prepared],
) -> Option<TracePlan> {
    let plan = |name, statement| Some(TracePlan { name, statement });
    match request {
        Request::Query { sql } => match traceview::sniff_trace_text(sql) {
            Some(_) => None,
            None => plan("query", Some(sql.clone())),
        },
        Request::Prepare { sql } => plan("prepare", Some(sql.clone())),
        Request::ExecutePrepared { handle, .. } => {
            let statement = prepared
                .get(*handle as usize)
                .and_then(|&h| session.statement(h));
            if matches!(
                statement,
                Some(Statement::ShowTraces | Statement::ShowTrace { .. })
            ) {
                return None;
            }
            plan("execute_prepared", statement.map(|s| s.to_string()))
        }
        Request::Ingest { .. } => plan("ingest", None),
        Request::QutPartial { .. } => plan("qut_partial", None),
        Request::RangePartial { .. } => plan("range_partial", None),
        Request::GatherTrajectories { .. } => plan("gather_trajectories", None),
        Request::InfoPartial { .. } => plan("info_partial", None),
    }
}

/// Records the span for one answered request — parented under the wire's
/// trace context when the caller propagated one (the coordinator fan-out),
/// otherwise as a fresh root — and feeds the slow-query log.
#[allow(clippy::too_many_arguments)]
fn record_request_span(
    plan: TracePlan,
    response: &Response,
    inbound_trace: Option<hermes_obs::TraceContext>,
    started: Instant,
    elapsed: std::time::Duration,
    spans: &SpanStore,
    metrics: &ServerMetrics,
    slow_query_ms: Option<u64>,
) {
    let (trace_id, parent_span_id, start_us) = match inbound_trace {
        // Remote origin: wall clocks are not assumed synchronized, so the
        // start offset is left at 0 (see [`Span::start_us`]).
        Some(ctx) => (ctx.trace_id, ctx.parent_span_id, 0),
        None => (
            next_id(),
            0,
            started
                .saturating_duration_since(process_origin())
                .as_micros() as u64,
        ),
    };
    if let Some(threshold) = slow_query_ms {
        let ms = elapsed.as_secs_f64() * 1e3;
        if ms >= threshold as f64 {
            metrics.slow_queries.inc();
            let statement = plan.statement.as_deref().unwrap_or(plan.name);
            eprintln!("{}", slow_query_line(ms, trace_id, statement));
        }
    }
    let mut attrs: Vec<(&'static str, String)> = Vec::new();
    if let Some(statement) = plan.statement {
        attrs.push(("statement", statement));
    }
    if let Response::QutPartial(p) = response {
        let t = &p.stats.phases;
        for (key, ms) in [
            ("index_build_ms", t.index_build_ms),
            ("voting_ms", t.voting_ms),
            ("segmentation_ms", t.segmentation_ms),
            ("sampling_ms", t.sampling_ms),
            ("clustering_ms", t.clustering_ms),
        ] {
            attrs.push((key, format!("{ms:.3}")));
        }
        attrs.push(("kernel_evaluated", p.stats.kernel.evaluated.to_string()));
        attrs.push(("kernel_pruned", p.stats.kernel.pruned.to_string()));
    }
    attrs.push((
        "status",
        match response {
            Response::Error { .. } => "error".to_string(),
            _ => "ok".to_string(),
        },
    ));
    spans.record(Span {
        trace_id,
        span_id: next_id(),
        parent_span_id,
        name: plan.name.to_string(),
        start_us,
        duration_us: elapsed.as_micros() as u64,
        attrs,
    });
}

/// Process-wide time origin for locally rooted span start offsets, pinned on
/// first use so offsets within one span store are mutually comparable.
fn process_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Answers one request against the connection's session. Named `execute`
/// because it is the execution step of [`execute_request`], which wraps it
/// with deadline enforcement and accounting.
fn execute(
    session: &mut Session<SharedEngine>,
    prepared: &mut Vec<Prepared>,
    engine: &SharedEngine,
    metrics: &ServerMetrics,
    spans: &SpanStore,
    request: Request,
) -> Response {
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
                let wire = match prepared.iter().position(|&h| h == handle) {
                    Some(i) => i,
                    None => {
                        prepared.push(handle);
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
            let Some(&session_handle) = prepared.get(handle as usize) else {
                return Response::error(format!(
                    "unknown prepared statement handle {handle} on this connection"
                ));
            };
            // Prepared trace inspection (`SHOW TRACE $1`) is intercepted like
            // its direct-text form, binding the id from the parameters.
            match session.statement(session_handle) {
                Some(Statement::ShowTraces) => {
                    return finish_outcome(traceview::traces_outcome(spans), false, metrics);
                }
                Some(Statement::ShowTrace { id }) => {
                    return match resolve_trace_id(id, &params) {
                        Ok(id) => {
                            finish_outcome(traceview::trace_outcome(spans, id), false, metrics)
                        }
                        Err(message) => Response::error(message),
                    };
                }
                _ => {}
            }
            let show_stats = matches!(
                session.statement(session_handle),
                Some(Statement::ShowStats)
            );
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
                let w = window(wi, we);
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
                let w = window(wi, we);
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

/// Clamps a possibly-inverted window exactly as the SQL executor does, so the
/// shard request path and the single-node statement path agree on degenerate
/// inputs.
fn window(wi: i64, we: i64) -> TimeInterval {
    TimeInterval::new(Timestamp(wi), Timestamp(we.max(wi)))
}

/// Wraps an outcome as a response, appending the `server` scope to
/// `SHOW STATS` results on the way out and restoring the deterministic
/// (scope, metric) row order the statement guarantees.
fn finish_outcome(outcome: QueryOutcome, show_stats: bool, metrics: &ServerMetrics) -> Response {
    match outcome {
        QueryOutcome::Rows { mut frame, stats } => {
            if show_stats {
                for (metric, value) in metrics.rows() {
                    push_stat(&mut frame, "server", &metric, value);
                }
                sort_stats_rows(&mut frame);
            }
            Response::Rows { frame, stats }
        }
        QueryOutcome::Command(status) => Response::Command(status),
    }
}

/// Resolves the trace id of a prepared `SHOW TRACE` statement against the
/// execution's bound parameters.
fn resolve_trace_id(id: &Scalar, params: &[Value]) -> Result<i64, String> {
    let value = match id {
        Scalar::Lit(v) => v.clone(),
        Scalar::Param(n) => params.get(n.saturating_sub(1)).cloned().ok_or_else(|| {
            format!(
                "SHOW TRACE references ${n} but got {} parameters",
                params.len()
            )
        })?,
    };
    match value {
        Value::Int(i) => Ok(i),
        other => Err(format!(
            "SHOW TRACE expects an integer trace id, got {other:?}"
        )),
    }
}

/// Pull-based collector contributing the engine's aggregated stats to every
/// scrape: engine shape (`hermes_engine_*`), cumulative clustering phase
/// work, buffer-pool and durability counters (`hermes_storage_*`), and the
/// executor queue depth (`hermes_exec_*`).
fn collect_engine_samples(engine: &SharedEngine, out: &mut Vec<Sample>) {
    let (stats, queue_depth) = engine.with_read(|e| (e.stats(), e.executor().queue_depth()));
    let gauge = |name, help, v: u64| Sample {
        name,
        help,
        labels: Vec::new(),
        value: SampleValue::Gauge(v),
    };
    let counter = |name, help, v: u64| Sample {
        name,
        help,
        labels: Vec::new(),
        value: SampleValue::Counter(v),
    };
    out.push(gauge(
        "hermes_engine_datasets",
        "Registered datasets",
        stats.datasets as u64,
    ));
    out.push(gauge(
        "hermes_engine_indexed_datasets",
        "Datasets with a built ReTraTree",
        stats.indexed_datasets as u64,
    ));
    out.push(gauge(
        "hermes_engine_indexed_partitions",
        "Level-4 partitions across every built index",
        stats.indexed_partitions as u64,
    ));
    out.push(gauge(
        "hermes_engine_stored_records",
        "Sub-trajectory records stored across every built index",
        stats.stored_records as u64,
    ));
    out.push(gauge(
        "hermes_engine_threads",
        "Intra-query compute threads the engine currently uses",
        stats.threads as u64,
    ));
    for (phase, ms) in [
        ("index_build", stats.phases.index_build_ms),
        ("voting", stats.phases.voting_ms),
        ("segmentation", stats.phases.segmentation_ms),
        ("sampling", stats.phases.sampling_ms),
        ("clustering", stats.phases.clustering_ms),
    ] {
        out.push(Sample {
            name: "hermes_engine_phase_ms_total",
            help: "Cumulative S2T pipeline phase compute milliseconds",
            labels: vec![("phase", phase.to_string())],
            value: SampleValue::Counter(ms),
        });
    }
    out.push(counter(
        "hermes_engine_kernel_evaluated_total",
        "Voting-kernel candidate pairs evaluated exactly",
        stats.kernel_evaluated,
    ));
    out.push(counter(
        "hermes_engine_kernel_pruned_total",
        "Voting-kernel candidate pairs rejected by a distance lower bound",
        stats.kernel_pruned,
    ));
    out.push(counter(
        "hermes_storage_buffer_hits_total",
        "Buffer-pool page hits summed over every index",
        stats.buffer.hits,
    ));
    out.push(counter(
        "hermes_storage_buffer_misses_total",
        "Buffer-pool page misses summed over every index",
        stats.buffer.misses,
    ));
    out.push(counter(
        "hermes_storage_buffer_evictions_total",
        "Buffer-pool evictions summed over every index",
        stats.buffer.evictions,
    ));
    out.push(counter(
        "hermes_retratree_border_memo_hits_total",
        "Border sub-chunks answered from the memo, summed over every index",
        stats.border_memo.hits,
    ));
    out.push(counter(
        "hermes_retratree_border_memo_misses_total",
        "Border sub-chunks re-clustered (pipelines run), summed over every index",
        stats.border_memo.misses,
    ));
    out.push(counter(
        "hermes_retratree_border_memo_evictions_total",
        "Border partials evicted to stay inside the byte bound",
        stats.border_memo.evictions,
    ));
    out.push(gauge(
        "hermes_retratree_border_memo_bytes",
        "Bytes the border memos currently account for",
        stats.border_memo.bytes,
    ));
    out.push(counter(
        "hermes_engine_s2t_index_builds_total",
        "S2T statements that built their dataset's segment index",
        stats.s2t_index_builds,
    ));
    out.push(counter(
        "hermes_engine_s2t_index_reuses_total",
        "S2T statements that found their dataset's segment index built",
        stats.s2t_index_reuses,
    ));
    out.push(gauge(
        "hermes_storage_snapshot_bytes",
        "Size in bytes of the newest snapshot file",
        stats.snapshot_bytes,
    ));
    out.push(gauge(
        "hermes_storage_wal_bytes",
        "Current write-ahead-log size in bytes",
        stats.wal_bytes,
    ));
    out.push(gauge(
        "hermes_storage_last_checkpoint_ms",
        "Wall-clock milliseconds of the most recent checkpoint",
        stats.last_checkpoint_ms,
    ));
    out.push(gauge(
        "hermes_exec_queue_depth",
        "Fork-join jobs queued on the intra-query thread pool",
        queue_depth as u64,
    ));
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

    #[test]
    fn show_stats_detection() {
        assert!(is_show_stats_text("SHOW STATS;"));
        assert!(is_show_stats_text("  show   stats  "));
        assert!(!is_show_stats_text("SHOW DATASETS;"));
        assert!(!is_show_stats_text("SELECT INFO(show);"));
    }
}
