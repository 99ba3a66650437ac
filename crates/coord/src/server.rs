//! The coordinator as a [`Backend`] of `hermes-server`'s serving loop: the
//! same wire protocol, framing, admission control, deadlines and typed error
//! codes `hermes-serve` has, so `hermes-cli --connect` (and any
//! [`HermesClient`](hermes_server::HermesClient)) works against a sharded
//! deployment unchanged. Bind it with
//! [`Server::bind(addr, coordinator, config)`](hermes_server::Server::bind).
//!
//! What is the coordinator's own: statements are parsed (and, for the
//! prepared path, bound) locally, then routed; the original SQL text rides
//! along so forwarded statements hit the shards byte-for-byte as the client
//! wrote them.
//!
//! Observability mirrors the single-node server: the scrape carries the
//! loop's `hermes_server_*` counters plus the shard registry's
//! `hermes_shard_*` ones. Every `Query`/`ExecutePrepared` statement becomes
//! the *root* of a distributed trace: the router records one child span per
//! contacted shard (propagating the context downstream, so the shard's own
//! span joins the tree) plus a `merge` span, and `SHOW TRACE <id>` against
//! the coordinator returns the whole fan-out tree.

use crate::router::{Coordinator, ForwardSpec};
use hermes_obs::{QueryTrace, Stat, TraceContext};
use hermes_server::protocol::{Request, Response};
use hermes_server::traceview::{self, TraceQuery};
use hermes_server::{Backend, RequestCtx, ServerConfig};
use hermes_sql::{parse, QueryOutcome, SqlError, Statement, Value};
use std::sync::Arc;
use std::time::Instant;

impl Backend for Coordinator {
    /// Wire handles index this connection-private table of parsed
    /// statements plus their original SQL (the text is what gets forwarded
    /// downstream, and what names the statement's trace).
    type Conn = Vec<(Arc<str>, Statement)>;

    fn open(&self) -> Self::Conn {
        Vec::new()
    }

    /// Statements that fan out (`Query` and `ExecutePrepared`) are recorded
    /// as root traces and reported to the loop's slow-query log. The
    /// coordinator is the origin of distributed traces, not a relay: an
    /// inbound trace context (only ever sent by another coordinator, which
    /// does not happen in a two-tier deployment) is ignored.
    fn answer(
        &self,
        prepared: &mut Self::Conn,
        request: Request,
        _inbound_trace: Option<TraceContext>,
        ctx: &mut RequestCtx<'_>,
    ) -> Response {
        match request {
            Request::Query { sql } => match traceview::sniff_trace_text(&sql) {
                // Trace inspection is answered at this serving edge, against
                // the coordinator's own span store — never recorded, never
                // routed.
                Some(TraceQuery::Traces) => outcome_response(traceview::traces_outcome(ctx.spans)),
                Some(TraceQuery::Trace(id)) => {
                    outcome_response(traceview::trace_outcome(ctx.spans, id))
                }
                None => match parse(&sql) {
                    Ok(stmt) => self.execute_root(&stmt, &sql.into(), None, ctx),
                    Err(e) => Response::error(e.to_string()),
                },
            },
            Request::Prepare { sql } => match parse(&sql) {
                Ok(stmt) => {
                    let wire = match prepared.iter().position(|(text, _)| **text == *sql) {
                        Some(i) => i,
                        None => {
                            prepared.push((sql.into(), stmt));
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
                let Some((sql, stmt)) = prepared.get(handle as usize) else {
                    return Response::error(format!(
                        "unknown prepared statement handle {handle} on this connection"
                    ));
                };
                // Prepared trace inspection (`SHOW TRACE $1`) is intercepted
                // like its direct-text form; `traceview` binds it for both
                // edges.
                if let Some(answer) = traceview::prepared_trace_outcome(ctx.spans, stmt, &params) {
                    return match answer {
                        Ok(outcome) => outcome_response(outcome),
                        Err(e) => Response::error(e.to_string()),
                    };
                }
                match stmt.bind(&params) {
                    Ok(bound) => self.execute_root(&bound, sql, Some(&params), ctx),
                    // The text a node's session gives the same failed bind.
                    Err(e) => Response::error(SqlError::Bind(e.0).to_string()),
                }
            }
            Request::Ingest {
                dataset,
                trajectories,
            } => self.ingest(&dataset, trajectories),
            Request::QutPartial { .. }
            | Request::RangePartial { .. }
            | Request::GatherTrajectories { .. }
            | Request::InfoPartial { .. } => Response::error(
                "shard-internal request: the coordinator accepts client statements \
                 (QUERY / PREPARE / EXECUTE / INGEST) only",
            ),
        }
    }

    fn stat_table(&self) -> Vec<Stat> {
        self.shards().iter().flat_map(|s| s.stat_table()).collect()
    }

    /// Coordinator workers wait on shard sockets rather than compute, so
    /// the pool is sized by how many statements may be waiting at once —
    /// one per admitted connection, up to the default cap — not by cores.
    fn default_workers(&self, config: &ServerConfig) -> usize {
        config
            .max_connections
            .min(ServerConfig::default().max_connections)
    }
}

impl Coordinator {
    /// Routes one statement — `sql` as the client sent it, executed with
    /// `params` when it came prepared — as the root of a distributed trace:
    /// the router records the shard/merge children, this records the root
    /// span (the statement text and whether it succeeded) above them.
    fn execute_root(
        &self,
        stmt: &Statement,
        sql: &Arc<str>,
        params: Option<&[Value]>,
        ctx: &mut RequestCtx<'_>,
    ) -> Response {
        let (name, fwd) = match params {
            None => ("query", ForwardSpec::Query(sql)),
            Some(params) => ("execute_prepared", ForwardSpec::Prepared { sql, params }),
        };
        let trace = QueryTrace::root(Arc::clone(ctx.spans));
        let started = Instant::now();
        let response = self.execute(stmt, &fwd, ctx.metrics, Some(&trace));
        let status = traceview::status_of(&response);
        trace.finish_root(name, started.elapsed(), Arc::clone(sql), status);
        ctx.traced(trace.trace_id(), Some(sql), name);
        response
    }
}

fn outcome_response(outcome: QueryOutcome) -> Response {
    match outcome {
        QueryOutcome::Rows { frame, stats } => Response::Rows { frame, stats },
        QueryOutcome::Command(status) => Response::Command(status),
    }
}
