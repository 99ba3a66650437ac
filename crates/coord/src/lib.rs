//! # hermes-coord
//!
//! The multi-node subsystem: one coordinator in front of N `hermes-serve`
//! shards, each owning a static half-open temporal slice of the data.
//!
//! Upstream the coordinator speaks the exact same wire protocol as a
//! single-node server — `hermes-cli --connect` works unchanged — and
//! downstream it fans statements out over pooled
//! [`HermesClient`](hermes_server::HermesClient) connections:
//!
//! - [`shardmap`] — the static shard map (TOML-subset file or repeated
//!   `--shard` flags), each slice owned by a **replica set** (primary plus
//!   N replicas), and its partition-of-the-time-axis validation;
//! - [`registry`] — per-endpoint liveness, latency/byte counters and
//!   connection pools behind the one exchange every shard call goes
//!   through, plus the read-path availability machinery: failover across
//!   the replica set with jittered backoff, and optional hedged duplicates
//!   (`--hedge-ms`), surfaced through `SHOW STATS`;
//! - [`router`] — verbatim forwarding for single-shard statements, parallel
//!   fan-out plus the border-merging reassembly (bit-identical to a single
//!   node, see `docs/SHARDING.md`) for multi-shard reads, and all-or-error
//!   broadcasts to every endpoint for writes (so replicas never diverge);
//! - `server` — [`Coordinator`] as a [`Backend`](hermes_server::Backend) of
//!   `hermes-server`'s one serving loop (unix-only, like the loop): bind a
//!   coordinator with `hermes_server::Server::bind(addr, coordinator, config)`
//!   and it is served with the same pipelining, admission control, deadlines
//!   and typed error codes as a single node.
//!
//! The `hermes-coord` binary wires these together behind `--shard` /
//! `--shard-map` flags.

#![deny(missing_docs)]

pub mod registry;
pub mod router;
#[cfg(unix)]
mod server;
pub mod shardmap;

pub use registry::{CoordError, Endpoint, FailoverPolicy, Shard};
pub use router::{Coordinator, ForwardSpec};
pub use shardmap::{
    parse_shard_flag, parse_shard_map, validate_shard_map, ShardMapError, ShardSpec,
};
