//! Server-side observability: counters and a per-query latency histogram,
//! surfaced to clients through `SHOW STATS` (scope `server`) and through the
//! Prometheus `/metrics` endpoint, both rendered from one stats table.

use std::sync::Arc;
use std::time::Duration;

use hermes_obs::{Counter, Gauge, Histogram, Registry, Stat};

/// Upper bucket bounds of the latency histogram, in microseconds. The last
/// bucket is open-ended.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// The per-query latency histogram. Its buckets count their own interval
/// only; `SHOW STATS` shows them so (`latency_us_le_<bound>` rows) and the
/// Prometheus text re-accumulates them into cumulative `le` buckets.
#[derive(Clone)]
pub struct LatencyHistogram {
    inner: Arc<Histogram>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            inner: Arc::new(Histogram::new(&LATENCY_BUCKETS_US)),
        }
    }
}

impl LatencyHistogram {
    /// Records one query latency.
    pub fn record(&self, elapsed: Duration) {
        self.inner
            .observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }
}

/// Counters describing a running server. All updates are relaxed atomic
/// ops: the metrics are monotone tallies, not synchronization points. A
/// clone shares the instruments.
#[derive(Clone, Default)]
pub struct ServerMetrics {
    /// Connections admitted into a session.
    pub connections_accepted: Arc<Counter>,
    /// Connections turned away at the connection cap.
    pub connections_rejected: Arc<Counter>,
    /// Connections currently in a session.
    pub connections_active: Arc<Gauge>,
    /// Query/Prepare/ExecutePrepared/Ingest requests answered successfully.
    pub queries_served: Arc<Counter>,
    /// Requests answered with an error response.
    pub query_errors: Arc<Counter>,
    /// Statements that exceeded the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// Bytes read off client sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to client sockets.
    pub bytes_out: Arc<Counter>,
    /// Requests parsed off a socket and waiting for an executor slot.
    pub pending_requests: Arc<Gauge>,
    /// Requests currently executing on the worker pool.
    pub inflight_queries: Arc<Gauge>,
    /// Requests whose deadline expired before a result could be sent.
    pub deadline_misses: Arc<Counter>,
    /// Requests refused because the pending-work bound was reached.
    pub backpressure_rejections: Arc<Counter>,
    /// Engine epoch observed by the most recent request.
    pub epoch: Arc<Gauge>,
    /// Per-query latency distribution.
    pub latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Fresh server metrics whose `hermes_server_*` series `registry`
    /// renders at every scrape.
    pub fn register(registry: &Registry) -> ServerMetrics {
        let metrics = ServerMetrics::default();
        let table = metrics.clone();
        registry.register_collector(move || table.stat_table());
        metrics
    }

    /// The server scope's stats table: each number's `SHOW STATS` row
    /// (scope `server`, or `coordinator` on `hermes-coord`) and its
    /// `/metrics` series, written once.
    pub fn stat_table(&self) -> Vec<Stat> {
        let counter = |row, series, help, c: &Counter| Stat::counter(row, series, help, c.get());
        let gauge = |row, series, help, g: &Gauge| Stat::gauge(row, series, help, g.get());
        vec![
            counter(
                "connections_accepted",
                "hermes_server_connections_accepted_total",
                "Connections admitted into a session",
                &self.connections_accepted,
            ),
            counter(
                "connections_rejected",
                "hermes_server_rejected_connections_total",
                "Connections turned away at the connection cap",
                &self.connections_rejected,
            ),
            gauge(
                "connections_active",
                "hermes_server_connections_active",
                "Connections currently in a session",
                &self.connections_active,
            ),
            counter(
                "queries_served",
                "hermes_server_queries_served_total",
                "Requests answered successfully",
                &self.queries_served,
            ),
            counter(
                "query_errors",
                "hermes_server_query_errors_total",
                "Requests answered with an error response",
                &self.query_errors,
            ),
            counter(
                "slow_queries",
                "hermes_server_slow_queries_total",
                "Statements that exceeded the slow-query threshold",
                &self.slow_queries,
            ),
            counter(
                "bytes_in",
                "hermes_server_bytes_in_total",
                "Bytes read off client sockets",
                &self.bytes_in,
            ),
            counter(
                "bytes_out",
                "hermes_server_bytes_out_total",
                "Bytes written to client sockets",
                &self.bytes_out,
            ),
            gauge(
                "pending_requests",
                "hermes_server_pending_requests",
                "Requests parsed off a socket and waiting for an executor slot",
                &self.pending_requests,
            ),
            gauge(
                "inflight_queries",
                "hermes_server_inflight_queries",
                "Requests currently executing on the worker pool",
                &self.inflight_queries,
            ),
            counter(
                "deadline_misses",
                "hermes_server_deadline_misses_total",
                "Requests whose deadline expired before a result could be sent",
                &self.deadline_misses,
            ),
            counter(
                "backpressure_rejections",
                "hermes_server_backpressure_rejections_total",
                "Requests refused because the pending-work bound was reached",
                &self.backpressure_rejections,
            ),
            gauge(
                "epoch",
                "hermes_server_epoch",
                "Engine epoch observed by the most recent request",
                &self.epoch,
            ),
            Stat::histogram(
                "latency_us",
                "hermes_server_query_latency_us",
                "Per-query wall-clock latency in microseconds",
                &self.latency.inner,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::rows;

    fn row(m: &ServerMetrics, name: &str) -> i64 {
        rows(&m.stat_table())
            .into_iter()
            .find(|(l, _)| l == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let m = ServerMetrics::default();
        m.latency.record(Duration::from_micros(50)); // le_100
        m.latency.record(Duration::from_micros(100)); // le_100 (inclusive bound)
        m.latency.record(Duration::from_micros(700)); // le_1000
        m.latency.record(Duration::from_secs(5)); // open tail
        assert_eq!(row(&m, "latency_us_le_100"), 2);
        assert_eq!(row(&m, "latency_us_le_1000"), 1);
        assert_eq!(row(&m, "latency_us_gt_1000000"), 1);
        let buckets: i64 = rows(&m.stat_table())
            .iter()
            .filter(|(l, _)| l.starts_with("latency_us_le_") || l.starts_with("latency_us_gt_"))
            .map(|(_, c)| c)
            .sum();
        assert_eq!(buckets, 4);
        assert!(row(&m, "latency_us_total") >= 5_000_000);
    }

    #[test]
    fn metrics_rows_cover_every_counter() {
        let m = ServerMetrics::default();
        m.queries_served.add(3);
        m.latency.record(Duration::from_micros(10));
        assert_eq!(row(&m, "queries_served"), 3);
        assert_eq!(row(&m, "latency_us_le_100"), 1);
        assert_eq!(row(&m, "connections_active"), 0);
        // 13 numbers, then the histogram's sum and 13 interval buckets.
        assert_eq!(rows(&m.stat_table()).len(), 13 + 1 + 13);
    }

    #[test]
    fn prometheus_export_is_cumulative_while_stats_rows_are_not() {
        // `SHOW STATS` keeps the per-interval labels, while the registry
        // renders the same histogram in cumulative `le` form with
        // `_sum`/`_count`.
        let registry = Registry::new();
        let m = ServerMetrics::register(&registry);
        m.latency.record(Duration::from_micros(50));
        m.latency.record(Duration::from_micros(100));
        m.latency.record(Duration::from_micros(700));

        assert_eq!(
            row(&m, "latency_us_le_100"),
            2,
            "interval form: own bucket only"
        );
        assert_eq!(row(&m, "latency_us_le_1000"), 1);

        let text = registry.render_prometheus();
        assert!(text.contains("hermes_server_query_latency_us_bucket{le=\"100\"} 2"));
        assert!(
            text.contains("hermes_server_query_latency_us_bucket{le=\"1000\"} 3"),
            "cumulative form: prefix sum\n{text}"
        );
        assert!(text.contains("hermes_server_query_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("hermes_server_query_latency_us_sum 850"));
        assert!(text.contains("hermes_server_query_latency_us_count 3"));
    }
}
