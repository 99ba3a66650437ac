//! # hermes-obs — unified observability layer
//!
//! Hot paths count with typed lock-free [`Counter`]s, [`Gauge`]s and
//! fixed-bucket [`Histogram`]s. Each stats scope writes its numbers once, as
//! one list of [`Stat`]s (row name, series name, help, labels, value) built
//! at read time; `SHOW STATS` renders the list's rows ([`rows`]) and a
//! process's [`Registry`] its series, in Prometheus text exposition format
//! (histograms in cumulative `le` form), served over a minimal HTTP/1.1
//! responder ([`http::serve_metrics`]).
//!
//! The crate also provides the distributed tracing primitives used by the
//! wire protocol and the coordinator fan-out: a [`TraceContext`] (trace id +
//! parent span id) propagated per statement, [`Span`]s recorded into a
//! ring-buffered in-process [`SpanStore`], and a [`QueryTrace`] helper that
//! allocates child spans for per-shard calls so a spanning query yields a
//! span tree covering fan-out, per-shard execution, and border-merge.
//!
//! Everything here is `std`-only and safe to call from hot paths: counters
//! and gauges are single relaxed atomic ops, histogram observation is two
//! atomic adds plus one bucket increment, and span recording takes one short
//! mutex on the ring buffer only after the timed section has finished.

pub mod http;
pub mod metrics;
pub mod trace;

pub use http::{serve_metrics, MetricsHandle};
pub use metrics::{
    rows, Counter, Gauge, Histogram, HistogramSnapshot, Registry, SampleValue, Stat,
};
pub use trace::{
    next_id, slow_query_line, QueryTrace, Span, SpanStore, TraceContext, TraceSummary,
};
