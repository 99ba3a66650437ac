//! # hermes-server
//!
//! The network subsystem: Hermes as a process instead of a library.
//!
//! Serving is unix-only and uses the same `poll(2)` poller on every unix.
//! A poller wakeup costs O(registered descriptors), which fits the traffic
//! the loop serves: the connection cap defaults to 64 and the coordinator
//! pools a handful of connections per shard endpoint. Idle connections
//! still cost no thread stacks.
//!
//! Three layers, all `std`-only (`std::net` + `std::thread` + one raw
//! `poll(2)` binding). The client, the protocol and the metrics build on any
//! target; serving ([`server`]) is unix-only:
//!
//! - [`protocol`] — a length-prefixed binary wire protocol whose payloads are
//!   the engine's own typed [`Value`](hermes_sql::Value)/
//!   [`Frame`](hermes_sql::Frame) results, with typed error frames
//!   ([`ErrorCode`]) for admission-control rejections (layouts in
//!   `docs/PROTOCOL.md`). It has no codec of its own: frames are written
//!   with `hermes-storage`'s [`ByteWriter`](hermes_storage::ByteWriter)/
//!   [`ByteReader`](hermes_storage::ByteReader) in big-endian, trajectories
//!   in the storage layer's own layouts;
//! - [`server`] — the one serving loop: a readiness-driven event loop
//!   (pipelining, per-query deadlines, bounded in-flight work, panic
//!   isolation) generic over a small [`Backend`]. The engine backend gives
//!   every connection its own [`Session`](hermes_sql::Session) over one
//!   shared engine publishing immutable snapshot epochs; `hermes-coord`
//!   serves its router from the same loop. Counters in [`metrics`] surface
//!   through `SHOW STATS`;
//! - [`client`] — [`HermesClient`], the blocking client library used by
//!   `hermes-cli --connect`, the tests and the benchmarks, now with
//!   explicit [`client::HermesClient::send`]/[`client::HermesClient::receive`]
//!   halves for request pipelining.
//!
//! ```no_run
//! use hermes_core::SharedEngine;
//! use hermes_server::{HermesClient, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", SharedEngine::default(), ServerConfig::default())
//!     .unwrap()
//!     .spawn()
//!     .unwrap();
//! let mut client = HermesClient::connect(server.addr()).unwrap();
//! client.query("CREATE DATASET flights;").unwrap();
//! let shown = client.query("SHOW DATASETS;").unwrap();
//! assert_eq!(shown.num_rows(), 1);
//! server.shutdown();
//! ```

pub mod client;
#[cfg(unix)]
mod event_loop;
pub mod metrics;
#[cfg(unix)]
mod poll;
pub mod protocol;
#[cfg(unix)]
pub mod server;
pub mod shard;
pub mod traceview;

pub use client::{ClientError, ConnectOptions, HermesClient, RemotePrepared};
pub use metrics::{LatencyHistogram, ServerMetrics, LATENCY_BUCKETS_US};
pub use protocol::{
    DecodeError, ErrorCode, PartialInfo, Request, Response, MAX_MESSAGE_BYTES, PROTOCOL_VERSION,
};
#[cfg(unix)]
pub use server::{Backend, RequestCtx, Server, ServerConfig, ServerHandle};
pub use traceview::{sniff_trace_text, trace_outcome, traces_outcome, TraceQuery};
