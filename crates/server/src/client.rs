//! [`HermesClient`]: the client side of the wire protocol, used by the CLI's
//! remote mode, the end-to-end benchmark and the serving tests.

use crate::protocol::{
    read_handshake, read_response, write_handshake, write_request_traced, DecodeError, ErrorCode,
    PartialInfo, Request, Response,
};
use hermes_obs::TraceContext;
use hermes_retratree::QutPartial;
use hermes_sql::{QueryOutcome, Value};
use hermes_storage::codec::encoded_trajectory_len;
use hermes_trajectory::Trajectory;
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A statement prepared on the server, scoped to the connection that
/// prepared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemotePrepared(pub u32);

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or could not be established).
    Io(io::Error),
    /// The server answered with an error frame; the connection remains
    /// usable unless the server also closed it (capacity rejections do).
    Server {
        /// The failure class from the wire (v5 error frames).
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
    },
    /// The server sent a response this request cannot accept.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// Connection-establishment tunables for [`HermesClient::connect_with`].
///
/// The defaults reproduce the historical behaviour minus the foot-guns: a
/// refused or hung server no longer blocks forever, and a server that is
/// still coming up (the common race when scripts spawn shards) is retried a
/// few times with a growing pause.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read timeout applied to the connection (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Extra connect attempts after the first failure.
    pub retries: u32,
    /// Pause before the first retry; doubles on every further retry.
    pub backoff: Duration,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            retries: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// A synchronous connection to a `hermes-serve` instance.
///
/// Requests may be pipelined: [`send`](HermesClient::send) /
/// [`receive`](HermesClient::receive) (or [`pipeline`](HermesClient::pipeline))
/// keep several requests in flight on one connection, and the server answers
/// strictly in order. A client is still naturally `!Sync`; open one client
/// per thread for concurrent load (the server pairs each with its own
/// session).
///
/// The client tracks its own stream health: [`is_clean`](HermesClient::is_clean)
/// is false while responses are outstanding or after the stream broke
/// mid-frame, so pools can refuse to reuse a desynchronized connection.
pub struct HermesClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    bytes_out: u64,
    bytes_in: u64,
    trace: Option<TraceContext>,
    /// Requests sent whose responses have not been read yet.
    pending: u32,
    /// Set once the stream can no longer be trusted to be frame-aligned:
    /// an I/O or decode failure mid-exchange, or a `Capacity` rejection
    /// (the server closes the connection behind it).
    poisoned: bool,
}

impl HermesClient {
    /// Connects to a server with [`ConnectOptions::default`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, &ConnectOptions::default())
    }

    /// Connects to a server: resolves `addr`, dials with a per-attempt
    /// timeout and bounded exponential-backoff retries, then performs the
    /// protocol handshake (the server speaks first; an incompatible peer is
    /// reported as `InvalidData`, not a decode failure later on).
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ConnectOptions) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut pause = opts.backoff;
        let mut last_err = None;
        for attempt in 0..=opts.retries {
            if attempt > 0 {
                std::thread::sleep(pause);
                pause = pause.saturating_mul(2);
            }
            match addrs
                .iter()
                .find_map(|a| TcpStream::connect_timeout(a, opts.connect_timeout).ok())
            {
                Some(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(opts.read_timeout)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut writer = BufWriter::new(stream);
                    read_handshake(&mut reader)?;
                    write_handshake(&mut writer)?;
                    return Ok(HermesClient {
                        reader,
                        writer,
                        bytes_out: 0,
                        bytes_in: 0,
                        trace: None,
                        pending: 0,
                        poisoned: false,
                    });
                }
                None => {
                    last_err = Some(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!(
                            "could not connect to {addrs:?} within {:?}",
                            opts.connect_timeout
                        ),
                    ));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("connect failed")))
    }

    /// Cumulative bytes this client has written to the wire.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Cumulative bytes this client has read from the wire.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Sets the [`TraceContext`] attached to every subsequent request (the
    /// protocol v3 trace field), until cleared with `set_trace(None)`. The
    /// coordinator sets a per-shard-call context so the shard's spans slot
    /// into the distributed trace tree.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// True when the connection is safe to reuse for a fresh request:
    /// every sent request has had its response read and the stream never
    /// broke mid-frame. Pools must drop unclean connections instead of
    /// checking them back in — a desynchronized stream would decode the
    /// previous request's leftover bytes as the next answer.
    pub fn is_clean(&self) -> bool {
        self.pending == 0 && !self.poisoned
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.receive()
    }

    /// Writes (and flushes) one request without waiting for its response —
    /// the pipelining half-step. The server answers every pipelined request
    /// in order, so callers must balance each `send` with one
    /// [`receive`](HermesClient::receive).
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        match write_request_traced(&mut self.writer, request, self.trace) {
            Ok(n) => {
                self.bytes_out += n;
                self.pending += 1;
                Ok(())
            }
            Err(e) => {
                // The frame may be partially on the wire; nothing sent after
                // this point can be framed correctly.
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    /// Reads the next in-order response, mapping server error frames to
    /// [`ClientError::Server`].
    pub fn receive(&mut self) -> Result<Response, ClientError> {
        match self.receive_raw()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// Reads the next in-order response with `Error` frames returned as
    /// values (the coordinator needs to distinguish "the shard answered with
    /// an error" from "the connection to the shard broke").
    pub fn receive_raw(&mut self) -> Result<Response, ClientError> {
        match read_response(&mut self.reader) {
            Ok((response, n_in)) => {
                self.bytes_in += n_in;
                self.pending = self.pending.saturating_sub(1);
                if let Response::Error { code, .. } = &response {
                    if *code == ErrorCode::Capacity {
                        // The server closes the connection behind a capacity
                        // rejection; never hand this stream out again.
                        self.poisoned = true;
                    }
                }
                Ok(response)
            }
            Err(e) => {
                // A torn or garbled frame: the stream position is unknown.
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    /// One raw request/response exchange. Server-side `Error` responses come
    /// back as `Ok(Response::Error { .. })` here — see
    /// [`receive_raw`](HermesClient::receive_raw).
    pub fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.receive_raw()
    }

    /// Pipelines a batch: writes every request before reading the first
    /// response, then collects the in-order responses. `Error` frames come
    /// back as values in their slot; only a broken connection returns `Err`.
    /// One round trip instead of `requests.len()` — fan-out latency becomes
    /// bounded by the slowest statement, not the sum.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        for request in requests {
            self.send(request)?;
        }
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            responses.push(self.receive_raw()?);
        }
        Ok(responses)
    }

    /// Requests the shard's owned share of `QUT(W)` (see `docs/SHARDING.md`).
    pub fn qut_partial(
        &mut self,
        dataset: &str,
        owned: (i64, i64),
        window: (i64, i64),
        overrides: Option<(f64, f64, i64)>,
    ) -> Result<QutPartial, ClientError> {
        match self.round_trip(&Request::QutPartial {
            dataset: dataset.to_string(),
            owned_start_ms: owned.0,
            owned_end_ms: owned.1,
            wi: window.0,
            we: window.1,
            overrides,
        })? {
            Response::QutPartial(partial) => Ok(partial),
            other => Err(ClientError::Protocol(format!(
                "expected a QutPartial response, got {other:?}"
            ))),
        }
    }

    /// Requests the shard's owned share of a window count.
    pub fn range_partial(
        &mut self,
        dataset: &str,
        owned: (i64, i64),
        window: (i64, i64),
    ) -> Result<u64, ClientError> {
        match self.round_trip(&Request::RangePartial {
            dataset: dataset.to_string(),
            owned_start_ms: owned.0,
            owned_end_ms: owned.1,
            wi: window.0,
            we: window.1,
        })? {
            Response::Count(n) => Ok(n),
            other => Err(ClientError::Protocol(format!(
                "expected a Count response, got {other:?}"
            ))),
        }
    }

    /// Requests the raw trajectories owned by the shard.
    pub fn gather_trajectories(
        &mut self,
        dataset: &str,
        owned: (i64, i64),
    ) -> Result<Vec<Trajectory>, ClientError> {
        match self.round_trip(&Request::GatherTrajectories {
            dataset: dataset.to_string(),
            owned_start_ms: owned.0,
            owned_end_ms: owned.1,
        })? {
            Response::Trajectories(trajectories) => Ok(trajectories),
            other => Err(ClientError::Protocol(format!(
                "expected a Trajectories response, got {other:?}"
            ))),
        }
    }

    /// Requests the shard's owned share of `INFO(dataset)`.
    pub fn info_partial(
        &mut self,
        dataset: &str,
        owned: (i64, i64),
    ) -> Result<PartialInfo, ClientError> {
        match self.round_trip(&Request::InfoPartial {
            dataset: dataset.to_string(),
            owned_start_ms: owned.0,
            owned_end_ms: owned.1,
        })? {
            Response::InfoPartial(info) => Ok(info),
            other => Err(ClientError::Protocol(format!(
                "expected an InfoPartial response, got {other:?}"
            ))),
        }
    }

    /// Parses and executes one statement on the server, returning the same
    /// typed [`QueryOutcome`] a local session would.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome, ClientError> {
        let response = self.round_trip(&Request::Query {
            sql: sql.to_string(),
        })?;
        Ok(response.into_outcome()?)
    }

    /// Prepares a statement (placeholders allowed) on the server.
    pub fn prepare(&mut self, sql: &str) -> Result<RemotePrepared, ClientError> {
        match self.round_trip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::Prepared { handle } => Ok(RemotePrepared(handle)),
            other => Err(ClientError::Protocol(format!(
                "expected a Prepared response, got {other:?}"
            ))),
        }
    }

    /// Executes a prepared statement with `params` bound to `$1..$n`.
    pub fn execute_prepared(
        &mut self,
        handle: RemotePrepared,
        params: &[Value],
    ) -> Result<QueryOutcome, ClientError> {
        let response = self.round_trip(&Request::ExecutePrepared {
            handle: handle.0,
            params: params.to_vec(),
        })?;
        Ok(response.into_outcome()?)
    }

    /// Bulk-loads trajectories into `dataset` (created on first ingest),
    /// returning the number of trajectories the server accepted.
    ///
    /// Loads larger than one wire message allows are split transparently
    /// into multiple `Ingest` requests, so arbitrarily large datasets stream
    /// through the fixed [`MAX_MESSAGE_BYTES`](crate::MAX_MESSAGE_BYTES) cap.
    /// The batches are pipelined: every request is written before the first
    /// response is awaited, so a multi-batch load costs one round trip.
    pub fn ingest(
        &mut self,
        dataset: &str,
        trajectories: &[Trajectory],
    ) -> Result<u64, ClientError> {
        // Batch under half the message cap to leave generous framing slack.
        const BATCH_BUDGET: usize = (crate::MAX_MESSAGE_BYTES as usize) / 2;
        let mut batches = 0u64;
        let mut batch_start = 0;
        let mut batch_bytes = 0usize;
        for (i, t) in trajectories.iter().enumerate() {
            let encoded = encoded_trajectory_len(t);
            if batch_bytes + encoded > BATCH_BUDGET && i > batch_start {
                self.send(&Request::Ingest {
                    dataset: dataset.to_string(),
                    trajectories: trajectories[batch_start..i].to_vec(),
                })?;
                batches += 1;
                batch_start = i;
                batch_bytes = 0;
            }
            batch_bytes += encoded;
        }
        self.send(&Request::Ingest {
            dataset: dataset.to_string(),
            trajectories: trajectories[batch_start..].to_vec(),
        })?;
        batches += 1;

        // Drain every pipelined response even after a failure — leaving
        // responses unread would desynchronize the connection for the next
        // request. The first failure wins; I/O errors abort (the stream is
        // gone anyway).
        let mut total = 0u64;
        let mut first_err = None;
        for _ in 0..batches {
            match self.receive() {
                Ok(Response::Command(status)) => total += status.affected,
                Ok(other) => {
                    first_err.get_or_insert(ClientError::Protocol(format!(
                        "expected a Command response, got {other:?}"
                    )));
                }
                Err(e @ ClientError::Io(_)) => return Err(e),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }
}
