//! Serving-edge implementation of `SHOW TRACES` / `SHOW TRACE <id>`.
//!
//! The SQL executor returns empty frames for these statements — an embedded
//! session has no span store — so the server and the coordinator intercept
//! them before the session sees them and answer from their in-process
//! [`SpanStore`]. Both edges share the detection, binding and frame-building
//! logic here, and the span attributes of a QuT partial, which keeps the two
//! answers identical.

use crate::protocol::Response;
use hermes_obs::{Span, SpanStore, Status};
use hermes_retratree::QutStats;
use hermes_sql::{
    push_trace_span, push_trace_summary, trace_frame, traces_frame, QueryOutcome, SqlError,
    Statement, Value,
};

/// A trace-inspection statement recognized at the serving edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// `SHOW TRACES;`
    Traces,
    /// `SHOW TRACE <id>;`
    Trace(i64),
}

/// Detects `SHOW TRACES` / `SHOW TRACE <id>` statement text without paying
/// for a parse (the trace-statement sibling of `is_show_stats_text`).
/// Returns `None` for anything else — including `SHOW TRACE $1`, which must
/// go through a prepared statement to bind its placeholder.
pub fn sniff_trace_text(sql: &str) -> Option<TraceQuery> {
    let mut words = sql.trim().trim_end_matches(';').split_whitespace();
    let (Some(a), Some(b)) = (words.next(), words.next()) else {
        return None;
    };
    if !a.eq_ignore_ascii_case("show") {
        return None;
    }
    match (b, words.next(), words.next()) {
        (t, None, _) if t.eq_ignore_ascii_case("traces") => Some(TraceQuery::Traces),
        (t, Some(id), None) if t.eq_ignore_ascii_case("trace") => {
            id.parse::<i64>().ok().map(TraceQuery::Trace)
        }
        _ => None,
    }
}

/// Answers `SHOW TRACES` from the span store: one row per locally recorded
/// trace, newest first.
pub fn traces_outcome(spans: &SpanStore) -> QueryOutcome {
    let mut frame = traces_frame();
    for s in spans.recent() {
        push_trace_summary(
            &mut frame,
            s.trace_id as i64,
            &s.root,
            s.spans as i64,
            s.duration_us as i64,
        );
    }
    QueryOutcome::rows(frame)
}

/// Answers `SHOW TRACE <id>`: the trace's spans in start order, attributes
/// rendered as comma-joined `key=value` pairs. An unknown id yields an empty
/// frame, not an error — spans are ring-buffered and expire silently.
pub fn trace_outcome(spans: &SpanStore, id: i64) -> QueryOutcome {
    let mut frame = trace_frame();
    for span in spans.trace(id as u64) {
        let attrs = render_attrs(&span);
        push_trace_span(
            &mut frame,
            span.span_id as i64,
            span.parent_span_id as i64,
            &span.name,
            span.start_us as i64,
            span.duration_us as i64,
            &attrs,
        );
    }
    QueryOutcome::rows(frame)
}

/// Answers a prepared trace-inspection statement (`SHOW TRACES`,
/// `SHOW TRACE $1`) with `params`, or `None` when `stmt` is not one. Only a
/// trace statement is bound here, with [`Statement::bind`] like any other;
/// the id then converts as every integer argument does
/// ([`Scalar::as_i64`](hermes_sql::Scalar::as_i64)).
pub fn prepared_trace_outcome(
    spans: &SpanStore,
    stmt: &Statement,
    params: &[Value],
) -> Option<Result<QueryOutcome, SqlError>> {
    if !matches!(stmt, Statement::ShowTraces | Statement::ShowTrace { .. }) {
        return None;
    }
    Some(match stmt.bind(params) {
        Ok(Statement::ShowTrace { id }) => id
            .as_i64()
            .map(|id| trace_outcome(spans, id))
            .map_err(SqlError::Bind),
        // `SHOW TRACES` has nothing to bind.
        Ok(_) => Ok(traces_outcome(spans)),
        Err(e) => Err(SqlError::Bind(e.0)),
    })
}

/// The span attributes of a QuT partial: its S2T phase work and its
/// voting-kernel pruning counters. A shard attaches them to its
/// `qut_partial` span, the coordinator to its per-shard child span.
pub fn qut_stats_attrs(stats: &QutStats) -> Vec<(&'static str, String)> {
    let t = &stats.phases;
    vec![
        ("index_build_ms", format!("{:.3}", t.index_build_ms)),
        ("voting_ms", format!("{:.3}", t.voting_ms)),
        ("segmentation_ms", format!("{:.3}", t.segmentation_ms)),
        ("sampling_ms", format!("{:.3}", t.sampling_ms)),
        ("clustering_ms", format!("{:.3}", t.clustering_ms)),
        ("kernel_evaluated", stats.kernel.evaluated.to_string()),
        ("kernel_pruned", stats.kernel.pruned.to_string()),
    ]
}

/// The status a span records for the response that answered its statement.
pub fn status_of(response: &Response) -> Status {
    match response {
        Response::Error { .. } => Status::Error,
        _ => Status::Ok,
    }
}

/// A span's attributes as `SHOW TRACE` prints them: comma-joined `key=value`
/// pairs, the statement first, then the other attributes, then the status.
fn render_attrs(span: &Span) -> String {
    let statement = span.statement.as_deref().map(|s| ("statement", s));
    let extras = span.attrs.iter().map(|(k, v)| (*k, v.as_str()));
    let status = span.status.map(|s| ("status", s.as_str()));
    let pairs = statement.into_iter().chain(extras).chain(status);
    let parts: Vec<String> = pairs.map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::QueryTrace;
    use hermes_sql::Value;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn sniffs_only_trace_statements() {
        assert_eq!(sniff_trace_text("SHOW TRACES;"), Some(TraceQuery::Traces));
        assert_eq!(
            sniff_trace_text("  show   trace   42  "),
            Some(TraceQuery::Trace(42))
        );
        assert_eq!(sniff_trace_text("SHOW TRACE $1;"), None);
        assert_eq!(sniff_trace_text("SHOW STATS;"), None);
        assert_eq!(sniff_trace_text("SELECT INFO(traces);"), None);
        assert_eq!(sniff_trace_text("SHOW TRACE 1 2;"), None);
    }

    #[test]
    fn outcomes_render_the_span_tree() {
        let store = Arc::new(SpanStore::default());
        let trace = QueryTrace::root(Arc::clone(&store));
        let child = trace.child_ctx().parent_span_id;
        trace.record_child(
            child,
            "shard:early",
            Instant::now(),
            Duration::from_micros(250),
            vec![("voting_ms", "1.5".to_string())],
        );
        trace.finish_root(
            "query",
            Duration::from_micros(900),
            Arc::from("SELECT 1;"),
            Status::Ok,
        );

        let summary = traces_outcome(&store);
        let frame = summary.frame().unwrap();
        assert_eq!(frame.num_rows(), 1);
        assert_eq!(
            frame.rows().next().unwrap()[0],
            &Value::Int(trace.trace_id() as i64)
        );

        let tree = trace_outcome(&store, trace.trace_id() as i64);
        let frame = tree.frame().unwrap();
        assert_eq!(frame.num_rows(), 2);
        let rows: Vec<Vec<&Value>> = frame.rows().collect();
        // Exactly one root (parent = 0), and the child's attributes carry the
        // rendered phase timing.
        let roots: Vec<_> = rows.iter().filter(|r| r[1] == &Value::Int(0)).collect();
        assert_eq!(roots.len(), 1);
        let child_row = rows
            .iter()
            .find(|r| r[2] == &Value::Text("shard:early".to_string()))
            .unwrap();
        assert_eq!(child_row[5], &Value::Text("voting_ms=1.5".to_string()));

        // Unknown ids answer with an empty frame, not an error.
        let missing = trace_outcome(&store, 1);
        assert_eq!(missing.frame().unwrap().num_rows(), 0);
    }
}
