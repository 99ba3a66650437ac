//! The serving loop: one poller thread multiplexing every socket, a bounded
//! worker pool answering statements through a [`Backend`].
//!
//! Everything that is not statement semantics lives here, once, for every
//! backend: framing, the handshake, the connection cap, pipelined admission
//! control, deadlines, panic isolation, the per-request counters, the
//! slow-query line and the live-socket registry behind
//! [`ServerHandle::kill`](crate::server::ServerHandle::kill).
//!
//! ## Shape
//!
//! The loop thread owns all sockets and never executes a statement. It
//! accepts connections, reads whatever bytes are ready, slices them into
//! frames, and queues parsed requests per connection. Statements run on a
//! small worker pool; finished responses come back over a completion channel
//! (a `UnixStream` pair doubling as the wakeup byte) and are flushed as the
//! sockets drain. A blocked worker therefore stalls *queries*, never the
//! loop: idle connections cost file descriptors and buffers, not OS
//! threads.
//!
//! Readiness comes from one `poll(2)` poller ([`crate::poll`]), the same on
//! every unix. It keeps its `pollfd` array between wakeups, and each wakeup
//! costs O(registered descriptors): the listener, the waker and every
//! connection. That is a handful of entries on the traffic the loop serves
//! — `max_connections` defaults to 64, a client process holds a few
//! connections, and the coordinator pools at most 8 per shard endpoint.
//!
//! ## Connection state travels with jobs
//!
//! A connection's [`Backend::Conn`] (the engine's session and prepared
//! table, the coordinator's parsed statements) moves into the worker with
//! each dispatched job and comes back with the completion, so at most one
//! statement per connection executes at a time — exactly the ordering the
//! protocol promises — while different connections execute on different
//! workers freely.
//!
//! ## Admission control
//!
//! Three bounds keep a flood from turning into unbounded memory:
//!
//! - per-connection pipeline depth (`MAX_CONN_PENDING`, 128): past it the
//!   loop stops reading that socket, pushing backpressure into TCP;
//! - global pending work (`max_pending`): past it newly parsed requests are
//!   answered immediately with a typed [`ErrorCode::Backpressure`] error,
//!   in pipeline order, without executing;
//! - the connection cap (`max_connections`): over-cap clients complete the
//!   handshake, get a typed [`ErrorCode::Capacity`] error to their first
//!   request, and are disconnected.
//!
//! Per-request deadlines are enforced in [`Worker::answer_request`]: a request that
//! waited out its deadline in the queue is answered with a typed
//! [`ErrorCode::Deadline`] error without running, and one that finished too
//! late has its result replaced by the same error.
//!
//! ## Panic isolation
//!
//! A statement that panics inside [`Backend::answer`] is caught on the
//! worker and answered as a typed [`ErrorCode::Query`] error; the worker,
//! the connection and its travelling state all survive.
//!
//! [`ErrorCode::Query`]: crate::protocol::ErrorCode::Query
//! [`ErrorCode::Backpressure`]: crate::protocol::ErrorCode::Backpressure
//! [`ErrorCode::Capacity`]: crate::protocol::ErrorCode::Capacity
//! [`ErrorCode::Deadline`]: crate::protocol::ErrorCode::Deadline

use crate::metrics::ServerMetrics;
use crate::poll::{Interest, PollEvent, Poller};
use crate::protocol::{
    decode_request, frame_length, read_handshake, write_handshake, write_response, ErrorCode,
    Request, Response,
};
use crate::server::{Backend, RequestCtx, Server, ServerConfig};
use hermes_obs::{slow_query_line, SpanStore, TraceContext};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Poll token of the listening socket.
const LISTENER: usize = 0;
/// Poll token of the completion-wakeup stream.
const WAKER: usize = 1;
/// First token handed to a connection; tokens are never reused, so a stale
/// completion can never be delivered to a different connection.
const FIRST_CONN: usize = 2;

/// Most requests queued on one connection before the loop stops reading
/// from its socket (TCP backpressure); reads resume below half of it.
const MAX_CONN_PENDING: usize = 128;

/// Most bytes read from one socket per readiness event, so one firehose
/// client cannot starve the rest of the loop (level-triggered polling
/// re-reports whatever is left).
const READ_QUANTUM: usize = 256 * 1024;

/// One statement dispatched to the worker pool, with the connection state
/// (`C` is the backend's [`Backend::Conn`]) travelling along.
struct Job<C> {
    token: usize,
    state: Box<C>,
    request: Request,
    trace: Option<TraceContext>,
    received: Instant,
}

/// One finished statement on its way back to the loop: the returned
/// connection state and the fully encoded response frame.
struct Completion<C> {
    token: usize,
    state: Box<C>,
    bytes: Vec<u8>,
}

/// State shared between the loop thread and the workers.
struct WorkerShared<C> {
    /// Pending jobs plus the closed flag workers exit on.
    queue: Mutex<(VecDeque<Job<C>>, bool)>,
    available: Condvar,
    completions: Mutex<Vec<Completion<C>>>,
    /// Write half of the wakeup pair; one byte per completion batch.
    waker: Mutex<UnixStream>,
}

impl<C> WorkerShared<C> {
    fn complete(&self, completion: Completion<C>) {
        self.completions.lock().unwrap().push(completion);
        // A full pipe means wakeup bytes are already pending — that is all
        // the signal the loop needs, so the error is safely ignored.
        let _ = self.waker.lock().unwrap().write(&[1]);
    }
}

/// A parsed request (or a pre-decided rejection) waiting in a connection's
/// pipeline queue. Rejections ride the same queue so error frames go out in
/// pipeline order.
enum Parsed {
    Execute {
        request: Request,
        trace: Option<TraceContext>,
        received: Instant,
    },
    Reject {
        response: Response,
        close: bool,
    },
}

/// Per-connection state owned by the loop thread.
struct Conn<C> {
    stream: TcpStream,
    conn_id: u64,
    /// Raw inbound bytes not yet sliced into frames.
    read_buf: Vec<u8>,
    /// Parse cursor into `read_buf`; consumed bytes are compacted away
    /// after each parse pass.
    read_pos: usize,
    /// Encoded outbound frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Whether the client's preamble has been verified.
    handshaken: bool,
    /// Present while no job is in flight; travels with the job otherwise.
    state: Option<Box<C>>,
    /// Parsed requests not yet dispatched.
    queue: VecDeque<Parsed>,
    /// Over the connection cap: first request is answered with a capacity
    /// error, then the connection closes.
    rejected: bool,
    /// Reads paused by per-connection backpressure.
    read_paused: bool,
    /// Close once `write_buf` fully drains.
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl<C> Conn<C> {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_paused && !self.close_after_flush,
            writable: self.write_pos < self.write_buf.len(),
        }
    }

    /// Appends one encoded response frame to the write buffer, accounting
    /// its outbound bytes (frame bytes, not handshake bytes).
    fn push_response(&mut self, response: &Response, metrics: &ServerMetrics) {
        let before = self.write_buf.len();
        if let Err(e) = write_response(&mut self.write_buf, response) {
            // Only an over-cap frame can fail against a Vec; the stream is
            // still in sync, so tell the client why.
            self.write_buf.truncate(before);
            metrics.query_errors.inc();
            let _ = write_response(&mut self.write_buf, &oversize_error(&e));
        }
        metrics
            .bytes_out
            .add((self.write_buf.len() - before) as u64);
    }
}

/// Loop-wide bookkeeping shared by the handler functions.
struct Ctx<B: Backend> {
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    conn_registry: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    shared: Arc<WorkerShared<B::Conn>>,
    worker: Arc<Worker<B>>,
    /// Worker threads started so far, never more than `max_workers`.
    workers: usize,
    max_workers: usize,
    /// Admitted (non-rejected) live connections.
    admitted: usize,
    /// Parsed requests sitting in connection queues.
    queued: usize,
    /// Jobs dispatched to workers and not yet completed.
    inflight: usize,
}

impl<B: Backend> Ctx<B> {
    fn sync_gauges(&self) {
        self.metrics.pending_requests.set(self.queued as u64);
        self.metrics.inflight_queries.set(self.inflight as u64);
    }

    fn spawn_worker(&mut self) -> io::Result<()> {
        let worker = Arc::clone(&self.worker);
        let shared = Arc::clone(&self.shared);
        thread::Builder::new().spawn(move || worker.run(&shared))?;
        self.workers += 1;
        Ok(())
    }

    /// Hands one job to the pool, growing it while there are more jobs in
    /// flight than workers: a pool sized for waiting (the coordinator's, one
    /// per connection) then costs threads — stacks, allocator arenas — only
    /// for the concurrency it actually sees. The gauges are published before
    /// the push, so a statement that reads them (`SHOW STATS`) always sees
    /// itself in flight.
    fn dispatch(&mut self, job: Job<B::Conn>) {
        self.inflight += 1;
        self.sync_gauges();
        if self.inflight > self.workers && self.workers < self.max_workers {
            // Failing to grow is not fatal: the job waits for a worker that
            // exists.
            let _ = self.spawn_worker();
        }
        self.shared.queue.lock().unwrap().0.push_back(job);
        self.shared.available.notify_one();
    }
}

/// Builds the typed error frame for a connection turned away at the cap.
fn capacity_error(max_connections: usize) -> Response {
    Response::Error {
        code: ErrorCode::Capacity,
        message: format!("server at connection capacity ({max_connections} active)"),
    }
}

/// Builds the typed error frame for a request refused by global admission
/// control.
fn backpressure_error(max_pending: usize) -> Response {
    Response::Error {
        code: ErrorCode::Backpressure,
        message: format!("server overloaded: {max_pending} requests already pending"),
    }
}

/// Builds the typed error frame for a request that overran its deadline.
fn deadline_error(deadline_ms: u64) -> Response {
    Response::Error {
        code: ErrorCode::Deadline,
        message: format!("deadline exceeded: request not answered within {deadline_ms}ms"),
    }
}

/// Builds the typed error frame for an unparseable or incompatible peer.
fn protocol_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    }
}

/// Builds the typed error frame for a result frame over the wire cap.
fn oversize_error(e: &io::Error) -> Response {
    Response::Error {
        code: ErrorCode::Protocol,
        message: format!("result too large for the wire protocol: {e}"),
    }
}

/// Runs the serving loop over a bound [`Server`] until shut down.
pub(crate) fn run<B: Backend>(server: Server<B>) -> io::Result<()> {
    let Server {
        listener,
        backend,
        config,
        metrics,
        registry: _registry,
        spans,
        shutdown,
        conns: conn_registry,
    } = server;

    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READABLE)?;

    let shared = Arc::new(WorkerShared {
        queue: Mutex::new((VecDeque::new(), false)),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: Mutex::new(wake_tx),
    });

    let max_workers = if config.workers > 0 {
        config.workers
    } else {
        backend.default_workers(&config)
    };
    let worker = Arc::new(Worker {
        backend,
        metrics: Arc::clone(&metrics),
        spans,
        slow_query_ms: config.slow_query_ms,
        deadline_ms: config.deadline_ms,
    });

    let mut ctx = Ctx {
        config,
        metrics,
        conn_registry,
        shared,
        worker,
        workers: 0,
        max_workers,
        admitted: 0,
        queued: 0,
        inflight: 0,
    };
    // The first worker must exist or nothing is ever answered; the rest are
    // started as statements need them.
    ctx.spawn_worker()?;
    let mut conns: HashMap<usize, Conn<B::Conn>> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut next_conn_id: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();

    loop {
        poller.wait(&mut events)?;
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in std::mem::take(&mut events) {
            match ev.token {
                LISTENER => accept_ready(
                    &listener,
                    &mut conns,
                    &mut next_token,
                    &mut next_conn_id,
                    &mut ctx,
                    &mut poller,
                ),
                WAKER => {
                    drain_waker(&wake_rx);
                    handle_completions(&mut conns, &mut ctx, &mut poller);
                }
                token => {
                    if ev.readable || ev.hangup {
                        handle_readable(token, &mut conns, &mut ctx, &mut poller);
                    }
                    if ev.writable {
                        handle_writable(token, &mut conns, &mut ctx, &mut poller);
                    }
                }
            }
        }
    }

    // Stop the workers: whoever is mid-statement finishes it and exits; the
    // loop does not wait for them.
    ctx.shared.queue.lock().unwrap().1 = true;
    ctx.shared.available.notify_all();
    Ok(())
}

/// What one worker thread needs to answer requests.
struct Worker<B: Backend> {
    backend: Arc<B>,
    metrics: Arc<ServerMetrics>,
    spans: Arc<SpanStore>,
    slow_query_ms: Option<u64>,
    deadline_ms: Option<u64>,
}

impl<B: Backend> Worker<B> {
    /// Worker thread: pull a job, answer it through the travelling
    /// connection state, encode the frame, hand both back to the loop.
    fn run(&self, shared: &WorkerShared<B::Conn>) {
        loop {
            let job = {
                let mut guard = shared.queue.lock().unwrap();
                loop {
                    if let Some(job) = guard.0.pop_front() {
                        break Some(job);
                    }
                    if guard.1 {
                        break None;
                    }
                    guard = shared.available.wait(guard).unwrap();
                }
            };
            let Some(mut job) = job else { return };
            let response =
                self.answer_request(&mut job.state, job.request, job.trace, job.received);
            let mut bytes = Vec::new();
            if let Err(e) = write_response(&mut bytes, &response) {
                bytes.clear();
                self.metrics.query_errors.inc();
                let _ = write_response(&mut bytes, &oversize_error(&e));
            }
            shared.complete(Completion {
                token: job.token,
                state: job.state,
                bytes,
            });
        }
    }

    /// Fully answers one request: deadline admission, the backend's answer
    /// (a panic there becomes a typed error), deadline enforcement on the
    /// way out, metric accounting and the slow-query line. `received` is
    /// when the request was parsed off the socket — that can be well before
    /// execution starts, which is exactly what the deadline must measure.
    fn answer_request(
        &self,
        state: &mut B::Conn,
        request: Request,
        inbound_trace: Option<TraceContext>,
        received: Instant,
    ) -> Response {
        let metrics = &*self.metrics;
        let deadline = self.deadline_ms.map(|ms| (ms, Duration::from_millis(ms)));
        if let Some((ms, deadline)) = deadline {
            if received.elapsed() > deadline {
                // Already late before executing: don't burn a worker on a
                // result the client has been told not to wait for.
                metrics.deadline_misses.inc();
                metrics.query_errors.inc();
                return deadline_error(ms);
            }
        }
        let mut ctx = RequestCtx::new(metrics, &self.spans, self.slow_query_ms.is_some());
        let started = Instant::now();
        // The state is touched by nobody but the backend, which gets it back
        // as the panicking statement left it; no lock is held across a
        // statement, so nothing the loop shares can be poisoned from here.
        let answered = catch_unwind(AssertUnwindSafe(|| {
            self.backend.answer(state, request, inbound_trace, &mut ctx)
        }));
        let elapsed = started.elapsed();
        let mut response = answered.unwrap_or_else(|payload| {
            Response::error(format!(
                "internal error: statement panicked: {}",
                panic_message(&*payload)
            ))
        });
        if let Some((ms, deadline)) = deadline {
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
        if let (Some(threshold), Some((trace_id, statement, name))) =
            (self.slow_query_ms, ctx.take_traced())
        {
            let ms = elapsed.as_secs_f64() * 1e3;
            if ms >= threshold as f64 {
                metrics.slow_queries.inc();
                let line = slow_query_line(ms, trace_id, statement.as_deref().unwrap_or(name));
                eprintln!("{line}");
            }
        }
        response
    }
}

/// The text of a caught panic payload (`panic!` carries a `&str` or a
/// `String`; anything else has no text to show).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Accepts every connection the listener has ready.
fn accept_ready<B: Backend>(
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    next_token: &mut usize,
    next_conn_id: &mut u64,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (EMFILE, aborted handshakes) must
            // not take the server down.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();

        let rejected = ctx.admitted >= ctx.config.max_connections;
        let conn_id = *next_conn_id;
        *next_conn_id += 1;
        if rejected {
            ctx.metrics.connections_rejected.inc();
        } else {
            ctx.metrics.connections_accepted.inc();
            ctx.metrics.connections_active.inc();
            ctx.admitted += 1;
            if let Ok(clone) = stream.try_clone() {
                ctx.conn_registry.lock().unwrap().push((conn_id, clone));
            }
        }

        let token = *next_token;
        *next_token += 1;
        let mut conn = Conn {
            stream,
            conn_id,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            handshaken: false,
            state: Some(Box::new(ctx.worker.backend.open())),
            queue: VecDeque::new(),
            rejected,
            read_paused: false,
            close_after_flush: false,
            interest: Interest::NONE,
        };
        // The server speaks first: queue the preamble and try to push it out
        // before registering, so most handshakes finish without a writable
        // wakeup.
        write_handshake(&mut conn.write_buf).expect("infallible write to Vec");
        if flush(&mut conn).is_err() {
            finish_conn(conn, ctx);
            continue;
        }
        let interest = conn.desired_interest();
        conn.interest = interest;
        if poller
            .register(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conns.insert(token, conn);
        } else {
            finish_conn(conn, ctx);
        }
    }
}

/// Empties the wakeup stream so level-triggered polling goes quiet until
/// the next completion.
fn drain_waker(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*wake_rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Folds finished jobs back into their connections and flushes.
fn handle_completions<B: Backend>(
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    let done = std::mem::take(&mut *ctx.shared.completions.lock().unwrap());
    // Settle the gauges before any reply is flushed, so a client that has
    // read its answer never observes its own request as still in flight.
    ctx.inflight -= done.len();
    ctx.sync_gauges();
    for completion in done {
        let token = completion.token;
        let Some(conn) = conns.get_mut(&token) else {
            // The connection died while its statement ran; its state and the
            // encoded frame are simply dropped.
            continue;
        };
        conn.state = Some(completion.state);
        let before = conn.write_buf.len();
        conn.write_buf.extend_from_slice(&completion.bytes);
        ctx.metrics
            .bytes_out
            .add((conn.write_buf.len() - before) as u64);
        service_conn(token, conns, ctx, poller);
    }
    ctx.sync_gauges();
}

/// Reads, parses and dispatches whatever one socket has ready.
fn handle_readable<B: Backend>(
    token: usize,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let mut tmp = [0u8; 16 * 1024];
    let mut total = 0;
    let eof = loop {
        if conn.read_paused || conn.close_after_flush || total >= READ_QUANTUM {
            break false;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => break true,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&tmp[..n]);
                total += n;
                if n < tmp.len() {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break true,
        }
    };
    parse_frames(token, conns, ctx);
    if eof {
        close_conn(token, conns, ctx, poller);
    } else {
        service_conn(token, conns, ctx, poller);
    }
    ctx.sync_gauges();
}

/// Flushes a socket that reported writable.
fn handle_writable<B: Backend>(
    token: usize,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    if conns.contains_key(&token) {
        service_conn(token, conns, ctx, poller);
    }
}

/// Slices the connection's read buffer into frames: the handshake first,
/// then length-prefixed requests, each admitted (or rejected) into the
/// pipeline queue.
fn parse_frames<B: Backend>(
    token: usize,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if !conn.handshaken {
        if conn.read_buf.len() < 7 {
            return;
        }
        match read_handshake(&mut &conn.read_buf[..7]) {
            Ok(_) => {
                conn.read_pos = 7;
                conn.handshaken = true;
            }
            Err(e) => {
                ctx.metrics.query_errors.inc();
                let resp = protocol_error(&e);
                conn.push_response(&resp, &ctx.metrics);
                conn.close_after_flush = true;
                return;
            }
        }
    }
    while !conn.close_after_flush {
        let avail = &conn.read_buf[conn.read_pos..];
        let Some(&prefix) = avail.first_chunk::<4>() else {
            break;
        };
        let frame_len = match frame_length(prefix) {
            Ok(length) => 4 + length,
            Err(e) => {
                ctx.metrics.query_errors.inc();
                let resp = protocol_error(&e);
                conn.push_response(&resp, &ctx.metrics);
                conn.close_after_flush = true;
                break;
            }
        };
        if avail.len() < frame_len {
            break;
        }
        // Decoded where it lies in the read buffer: no copy of the frame.
        match decode_request(&avail[4..frame_len]) {
            Ok((request, trace)) => {
                conn.read_pos += frame_len;
                ctx.metrics.bytes_in.add(frame_len as u64);
                let received = Instant::now();
                if conn.rejected {
                    conn.queue.push_back(Parsed::Reject {
                        response: capacity_error(ctx.config.max_connections),
                        close: true,
                    });
                } else if ctx.queued + ctx.inflight >= ctx.config.max_pending {
                    ctx.metrics.backpressure_rejections.inc();
                    conn.queue.push_back(Parsed::Reject {
                        response: backpressure_error(ctx.config.max_pending),
                        close: false,
                    });
                } else {
                    ctx.queued += 1;
                    conn.queue.push_back(Parsed::Execute {
                        request,
                        trace,
                        received,
                    });
                }
                if conn.queue.len() >= MAX_CONN_PENDING {
                    // The pipeline is deep enough: stop reading and let TCP
                    // push back on the sender until the queue drains.
                    conn.read_paused = true;
                    break;
                }
            }
            Err(e) => {
                // A malformed frame leaves the stream unparseable: report
                // and drop the connection rather than guessing at a resync
                // point.
                ctx.metrics.query_errors.inc();
                let resp = protocol_error(&e.into());
                conn.push_response(&resp, &ctx.metrics);
                conn.close_after_flush = true;
                break;
            }
        }
    }
    if conn.read_pos > 0 {
        conn.read_buf.drain(..conn.read_pos);
        conn.read_pos = 0;
    }
}

/// Dispatches queued work, flushes outbound bytes, resumes paused reads and
/// reconciles poller interest — the common tail of every connection event.
fn service_conn<B: Backend>(
    token: usize,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    // Dispatch at most one job (the connection state travels with it); emit any
    // rejections ahead of it in pipeline order.
    while conn.state.is_some() && !conn.close_after_flush {
        match conn.queue.pop_front() {
            Some(Parsed::Execute {
                request,
                trace,
                received,
            }) => {
                let state = conn.state.take().expect("checked above");
                ctx.queued -= 1;
                ctx.dispatch(Job {
                    token,
                    state,
                    request,
                    trace,
                    received,
                });
            }
            Some(Parsed::Reject { response, close }) => {
                conn.push_response(&response, &ctx.metrics);
                if close {
                    conn.close_after_flush = true;
                }
            }
            None => break,
        }
    }
    if conn.read_paused && conn.queue.len() < MAX_CONN_PENDING / 2 {
        conn.read_paused = false;
    }
    if flush(conn).is_err() {
        close_conn(token, conns, ctx, poller);
        return;
    }
    let flushed = conn.write_pos >= conn.write_buf.len();
    if flushed && conn.close_after_flush {
        close_conn(token, conns, ctx, poller);
        return;
    }
    let want = conn.desired_interest();
    if want != conn.interest {
        conn.interest = want;
        let fd = conn.stream.as_raw_fd();
        if poller.modify(fd, token, want).is_err() {
            close_conn(token, conns, ctx, poller);
        }
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush<C>(conn: &mut Conn<C>) -> io::Result<()> {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    Ok(())
}

/// Removes a connection from the poller and the map, then settles its
/// bookkeeping.
fn close_conn<B: Backend>(
    token: usize,
    conns: &mut HashMap<usize, Conn<B::Conn>>,
    ctx: &mut Ctx<B>,
    poller: &mut Poller,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    finish_conn(conn, ctx);
}

/// Settles a closed connection's bookkeeping: live-connection accounting
/// and the pending requests that will now never run. An in-flight job is
/// left to finish — its completion finds no connection and is dropped.
fn finish_conn<B: Backend>(conn: Conn<B::Conn>, ctx: &mut Ctx<B>) {
    if !conn.rejected {
        ctx.metrics.connections_active.dec();
        ctx.admitted -= 1;
        ctx.conn_registry
            .lock()
            .unwrap()
            .retain(|(id, _)| *id != conn.conn_id);
    }
    let abandoned = conn
        .queue
        .iter()
        .filter(|p| matches!(p, Parsed::Execute { .. }))
        .count();
    ctx.queued -= abandoned;
    ctx.sync_gauges();
}
