//! Executes parsed statements against a [`HermesEngine`], emitting typed
//! [`Frame`]s and [`CommandStatus`]es — never strings (rendering is the
//! display edge's job, see [`crate::fmt`]).

use crate::frame::{CommandStatus, CommandTag, Frame, QueryOutcome};
use crate::parser::{parse, ParseError, Scalar, Statement};
use crate::value::{Value, ValueType};
use hermes_core::{DatasetInfo, EngineError, ExecPolicy, HermesEngine};
use hermes_retratree::{OwnedSlice, QutParams, QutStats, ReTraTreeParams};
use hermes_s2t::{ClusteringResult, S2TParams};
use hermes_trajectory::{Duration, Lifespan, TimeInterval, Timestamp};
use std::fmt;

/// Errors produced while executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The statement failed to parse.
    Parse(ParseError),
    /// A placeholder stayed unbound or a bound value had the wrong type.
    Bind(String),
    /// The engine rejected the operation.
    Engine(EngineError),
    /// A mutating statement reached a read-only execution path (see
    /// [`execute_read_statement`]).
    ReadOnly(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Bind(reason) => write!(f, "SQL bind error: {reason}"),
            SqlError::Engine(e) => write!(f, "{e}"),
            SqlError::ReadOnly(stmt) => {
                write!(
                    f,
                    "statement '{stmt}' mutates the engine and cannot run on a read-only path"
                )
            }
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<EngineError> for SqlError {
    fn from(e: EngineError) -> Self {
        SqlError::Engine(e)
    }
}

fn push(frame: &mut Frame, row: Vec<Value>) {
    frame
        .push_row(row)
        .expect("executor rows match their frame schema");
}

/// One row per cluster plus a trailing outlier row (`cluster = -1`, matching
/// the histogram's outlier label), with window bounds as real timestamps.
///
/// Reads of a member its lifespan and nothing else, so it renders a window
/// answer that carries summaries and a clustering run that carries the
/// sub-trajectories alike.
///
/// Public so a coordinator that assembles a [`ClusteringResult`] from shard
/// partials can render the exact frame a single-node engine would produce.
pub fn clusters_frame<M: Lifespan>(result: &ClusteringResult<M>) -> Frame {
    let mut frame = Frame::with_columns(&[
        ("cluster", ValueType::Int),
        ("representative", ValueType::Int),
        ("size", ValueType::Int),
        ("mean_distance", ValueType::Float),
        ("start", ValueType::Timestamp),
        ("end", ValueType::Timestamp),
    ]);
    for c in &result.clusters {
        let lifespan = c.lifespan();
        push(
            &mut frame,
            vec![
                Value::Int(c.id as i64),
                Value::Int(c.representative.trajectory_id as i64),
                Value::Int(c.size() as i64),
                Value::Float(c.mean_distance()),
                Value::Timestamp(lifespan.start),
                Value::Timestamp(lifespan.end),
            ],
        );
    }
    push(
        &mut frame,
        vec![
            Value::Int(-1),
            Value::Null,
            Value::Int(result.num_outliers() as i64),
            Value::Null,
            Value::Null,
            Value::Null,
        ],
    );
    frame
}

/// The `\timing` companion of a whole-dataset clustering run.
pub fn s2t_stats_frame(result: &ClusteringResult, elapsed_ms: f64) -> Frame {
    let mut stats = Frame::with_columns(&[
        ("elapsed_ms", ValueType::Float),
        ("clusters", ValueType::Int),
        ("outliers", ValueType::Int),
    ]);
    push(
        &mut stats,
        vec![
            Value::Float(elapsed_ms),
            Value::Int(result.num_clusters() as i64),
            Value::Int(result.num_outliers() as i64),
        ],
    );
    stats
}

/// The `\timing` companion of a window (QuT / rebuild) run, including the
/// reuse counters that make the QuT-vs-rebuild tradeoff visible.
pub fn qut_stats_frame<M>(result: &ClusteringResult<M>, stats: &QutStats) -> Frame {
    let mut frame = Frame::with_columns(&[
        ("elapsed_ms", ValueType::Float),
        ("clusters", ValueType::Int),
        ("outliers", ValueType::Int),
        ("reused_subchunks", ValueType::Int),
        ("reclustered_subchunks", ValueType::Int),
        ("loaded_sub_trajectories", ValueType::Int),
    ]);
    push(
        &mut frame,
        vec![
            Value::Float(stats.elapsed_ms),
            Value::Int(result.num_clusters() as i64),
            Value::Int(result.num_outliers() as i64),
            Value::Int(stats.reused_subchunks as i64),
            Value::Int(stats.reclustered_subchunks as i64),
            Value::Int(stats.loaded_sub_trajectories as i64),
        ],
    );
    frame
}

/// The `(scope, metric, value)` schema shared by every `SHOW STATS` scope:
/// the executor fills the `engine` scope, a [`Session`](crate::Session)
/// appends its `session` scope, and a server appends its own.
pub fn stats_frame() -> Frame {
    Frame::with_columns(&[
        ("scope", ValueType::Text),
        ("metric", ValueType::Text),
        ("value", ValueType::Int),
    ])
}

/// Appends one `SHOW STATS` row to a [`stats_frame`]-shaped frame.
pub fn push_stat(frame: &mut Frame, scope: &str, metric: &str, value: i64) {
    push(
        frame,
        vec![
            Value::Text(scope.to_string()),
            Value::Text(metric.to_string()),
            Value::Int(value),
        ],
    );
}

/// Sorts a [`stats_frame`]-shaped frame by `(scope, metric)`.
///
/// `SHOW STATS` ordering is part of the statement's contract: every scope
/// appender (executor, session, server, coordinator) sorts after its append,
/// so the final frame is deterministic regardless of which edges contributed
/// rows. See `docs/OBSERVABILITY.md`.
pub fn sort_stats_rows(frame: &mut Frame) {
    let mut rows: Vec<Vec<Value>> = frame
        .rows()
        .map(|row| row.into_iter().cloned().collect())
        .collect();
    rows.sort_by(|a, b| {
        let key = |r: &Vec<Value>| {
            (
                r[0].as_str().unwrap_or("").to_string(),
                r[1].as_str().unwrap_or("").to_string(),
            )
        };
        key(a).cmp(&key(b))
    });
    let mut sorted = stats_frame();
    for row in rows {
        push(&mut sorted, row);
    }
    *frame = sorted;
}

/// The `SHOW TRACES` answer schema: one row per trace in the serving edge's
/// span store, newest first.
pub fn traces_frame() -> Frame {
    Frame::with_columns(&[
        ("trace", ValueType::Int),
        ("root", ValueType::Text),
        ("spans", ValueType::Int),
        ("duration_us", ValueType::Int),
    ])
}

/// Appends one trace summary row to a [`traces_frame`]-shaped frame.
pub fn push_trace_summary(frame: &mut Frame, trace: i64, root: &str, spans: i64, duration_us: i64) {
    push(
        frame,
        vec![
            Value::Int(trace),
            Value::Text(root.to_string()),
            Value::Int(spans),
            Value::Int(duration_us),
        ],
    );
}

/// The `SHOW TRACE <id>` answer schema: the trace's spans as a flat
/// parent-linked tree (`parent = 0` marks the root), ordered by start offset.
pub fn trace_frame() -> Frame {
    Frame::with_columns(&[
        ("span", ValueType::Int),
        ("parent", ValueType::Int),
        ("name", ValueType::Text),
        ("start_us", ValueType::Int),
        ("duration_us", ValueType::Int),
        ("attributes", ValueType::Text),
    ])
}

/// Appends one span row to a [`trace_frame`]-shaped frame.
pub fn push_trace_span(
    frame: &mut Frame,
    span: i64,
    parent: i64,
    name: &str,
    start_us: i64,
    duration_us: i64,
    attributes: &str,
) {
    push(
        frame,
        vec![
            Value::Int(span),
            Value::Int(parent),
            Value::Text(name.to_string()),
            Value::Int(start_us),
            Value::Int(duration_us),
            Value::Text(attributes.to_string()),
        ],
    );
}

fn push_engine_stats(frame: &mut Frame, engine: &HermesEngine) {
    let s = engine.stats();
    for (metric, value) in [
        ("datasets", s.datasets as i64),
        ("indexed_datasets", s.indexed_datasets as i64),
        ("indexed_partitions", s.indexed_partitions as i64),
        ("stored_records", s.stored_records as i64),
        ("page_lookups", s.page_lookups as i64),
        ("threads", s.threads as i64),
        // Cumulative S2T pipeline phase work (milliseconds) across every
        // clustering query — S2T direct, QuT border re-clustering and the
        // window-rebuild baseline alike.
        ("s2t_index_build_ms", s.phases.index_build_ms as i64),
        ("s2t_voting_ms", s.phases.voting_ms as i64),
        ("s2t_segmentation_ms", s.phases.segmentation_ms as i64),
        ("s2t_sampling_ms", s.phases.sampling_ms as i64),
        ("s2t_clustering_ms", s.phases.clustering_ms as i64),
        // Voting-kernel pruning ladder: exact evaluations vs lower-bound
        // rejects, cumulative over the same queries as the phase counters.
        ("kernel_evaluated", s.kernel_evaluated as i64),
        ("kernel_pruned", s.kernel_pruned as i64),
        // Sub-trajectory distances of S2T statements' sampling and
        // clustering: measured to the end vs cut off above their limit.
        ("distance_exact", s.distance_exact as i64),
        ("distance_cut_off", s.distance_cut_off as i64),
        // Derived read-path state (docs/ARCHITECTURE.md § "Derived state"):
        // border partials and merge-edge lists answered from / computed into
        // the per-tree memos, and whole-dataset S2T runs that built / found
        // the segment index.
        ("border_memo_hits", s.border_memo.hits as i64),
        ("border_memo_misses", s.border_memo.misses as i64),
        ("border_memo_evictions", s.border_memo.evictions as i64),
        ("border_memo_bytes", s.border_memo.bytes as i64),
        ("merge_edge_hits", s.merge_edges.hits as i64),
        ("merge_edge_misses", s.merge_edges.misses as i64),
        ("merge_edge_evictions", s.merge_edges.evictions as i64),
        ("merge_edge_bytes", s.merge_edges.bytes as i64),
        ("s2t_index_builds", s.s2t_index_builds as i64),
        ("s2t_index_reuses", s.s2t_index_reuses as i64),
        // Persistence scope: all zero on an in-memory engine (durable = 0).
        ("durable", s.durable as i64),
        ("snapshot_bytes", s.snapshot_bytes as i64),
        ("wal_bytes", s.wal_bytes as i64),
        ("last_checkpoint_ms", s.last_checkpoint_ms as i64),
    ] {
        push_stat(frame, "engine", metric, value);
    }
}

/// The window a statement's `wi`/`we` arguments denote, an inverted one
/// clamped to the instant `wi`. Every edge that turns a wire or SQL window
/// into an interval goes through here, so they agree on degenerate inputs.
pub fn query_window(wi: i64, we: i64) -> TimeInterval {
    TimeInterval::new(Timestamp(wi), Timestamp(we.max(wi)))
}

// The argument rules of the statements a coordinator also executes. A node
// and a coordinator both call these, so they reject a bad argument with the
// same text.

fn f64_arg(s: &Scalar) -> Result<f64, SqlError> {
    s.as_f64().map_err(SqlError::Bind)
}

fn i64_arg(s: &Scalar) -> Result<i64, SqlError> {
    s.as_i64().map_err(SqlError::Bind)
}

fn invalid(reason: String) -> SqlError {
    SqlError::Engine(EngineError::InvalidParameters(reason))
}

/// The `(wi, we)` bounds of a window statement.
pub fn window_args(wi: &Scalar, we: &Scalar) -> Result<(i64, i64), SqlError> {
    Ok((i64_arg(wi)?, i64_arg(we)?))
}

/// `BUILD INDEX … WITH CHUNK h HOURS` → the chunk duration in milliseconds.
pub fn chunk_ms(chunk_hours: &Scalar) -> Result<i64, SqlError> {
    Ok((f64_arg(chunk_hours)? * 3_600_000.0) as i64)
}

/// `SET threads = n` → the execution policy it asks for.
pub fn thread_policy(threads: &Scalar) -> Result<ExecPolicy, SqlError> {
    let n = i64_arg(threads)?;
    // A negative count cannot reach ExecPolicy (usize); report it with the
    // same arity-style wording the policy's validation uses for 0 and for
    // counts over the cap.
    let count = usize::try_from(n).map_err(|_| {
        invalid(format!(
            "SET threads expects a positive thread count, got {n}"
        ))
    })?;
    ExecPolicy::new(count).map_err(|m| invalid(format!("SET {m}")))
}

/// `S2T(D, σ, τ, δ, t, ε)` → its validated parameters.
pub fn s2t_params(
    sigma: &Scalar,
    tau: &Scalar,
    delta: &Scalar,
    min_duration_ms: &Scalar,
    epsilon: &Scalar,
) -> Result<S2TParams, SqlError> {
    S2TParams::builder()
        .sigma(f64_arg(sigma)?)
        .tau(f64_arg(tau)?)
        .delta(f64_arg(delta)?)
        .min_duration_ms(i64_arg(min_duration_ms)?)
        .epsilon(f64_arg(epsilon)?)
        .build()
        .map_err(invalid)
}

/// A window clustering's S2T parameters: τ, δ and t from the query, the
/// data-scale σ and ε from `base`, the parameters the dataset was indexed
/// with. Not validated yet — [`qut_params`] does that.
pub fn window_s2t(
    base: S2TParams,
    tau: &Scalar,
    delta: &Scalar,
    min_duration_ms: &Scalar,
) -> Result<S2TParams, SqlError> {
    Ok(S2TParams {
        tau: f64_arg(tau)?,
        delta: f64_arg(delta)?,
        min_duration_ms: i64_arg(min_duration_ms)?,
        ..base
    })
}

/// `QUT`'s validated parameters: the merge parameters checked first, then
/// `s2t` (see [`window_s2t`]).
pub fn qut_params(
    s2t: S2TParams,
    merge_distance: &Scalar,
    merge_gap_ms: &Scalar,
) -> Result<QutParams, SqlError> {
    QutParams::builder()
        .s2t(s2t)
        .merge_distance(f64_arg(merge_distance)?)
        .merge_gap(Duration::from_millis(i64_arg(merge_gap_ms)?))
        .build()
        .map_err(invalid)
}

/// `HISTOGRAM`'s bucket width, which must be positive.
pub fn histogram_bucket(bucket_ms: &Scalar) -> Result<i64, SqlError> {
    match i64_arg(bucket_ms)? {
        b if b > 0 => Ok(b),
        _ => Err(invalid("histogram bucket width must be positive".into())),
    }
}

/// Parses and executes one statement against the engine. Statements with
/// placeholders must go through [`Statement::bind`] (or a
/// [`Session`](crate::Session)) first; an unbound placeholder surfaces as
/// [`SqlError::Bind`].
pub fn execute(engine: &mut HermesEngine, sql: &str) -> Result<QueryOutcome, SqlError> {
    execute_statement(engine, &parse(sql)?)
}

/// True when executing the statement mutates engine state. Shared deployments
/// (the server's [`SharedEngine`](hermes_core::SharedEngine)) route these
/// through the write lock and everything else through the read lock.
pub fn is_write_statement(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::CreateDataset { .. }
            | Statement::DropDataset { .. }
            | Statement::BuildIndex { .. }
            | Statement::SetThreads { .. }
            | Statement::Checkpoint
    )
}

/// Executes an already parsed (and fully bound) statement. This is the entry
/// point prepared statements re-enter per execution, skipping the parser.
pub fn execute_statement(
    engine: &mut HermesEngine,
    stmt: &Statement,
) -> Result<QueryOutcome, SqlError> {
    match stmt {
        Statement::CreateDataset { name } => {
            engine.create_dataset(name)?;
            Ok(QueryOutcome::Command(CommandStatus {
                tag: CommandTag::CreateDataset,
                affected: 1,
            }))
        }
        Statement::DropDataset { name } => {
            engine.drop_dataset(name)?;
            Ok(QueryOutcome::Command(CommandStatus {
                tag: CommandTag::DropDataset,
                affected: 1,
            }))
        }
        Statement::BuildIndex {
            name,
            chunk_hours,
            sigma,
            epsilon,
        } => {
            let mut s2t = S2TParams::builder();
            if let Some(s) = sigma {
                s2t = s2t.sigma(f64_arg(s)?);
            }
            if let Some(e) = epsilon {
                s2t = s2t.epsilon(f64_arg(e)?);
            }
            let params = ReTraTreeParams::builder()
                .chunk_duration(Duration::from_millis(chunk_ms(chunk_hours)?))
                .s2t(s2t.build().map_err(EngineError::InvalidParameters)?)
                .build()
                .map_err(EngineError::InvalidParameters)?;
            let indexed = engine.build_index(name, params)?;
            Ok(QueryOutcome::Command(CommandStatus {
                tag: CommandTag::BuildIndex,
                affected: indexed as u64,
            }))
        }
        Statement::Checkpoint => {
            // Snapshot + WAL truncation; the affected count carries the
            // snapshot size so scripts can assert something observable.
            let info = engine.checkpoint()?;
            Ok(QueryOutcome::Command(CommandStatus {
                tag: CommandTag::Checkpoint,
                affected: info.snapshot_bytes,
            }))
        }
        Statement::SetThreads { threads } => {
            let policy = thread_policy(threads)?;
            engine.set_exec_policy(policy)?;
            Ok(QueryOutcome::Command(CommandStatus {
                tag: CommandTag::Set,
                affected: policy.threads as u64,
            }))
        }
        _ => execute_read_statement(engine, stmt),
    }
}

/// Executes a read-only statement against a shared engine reference. Every
/// statement for which [`is_write_statement`] is false runs here — this is
/// what lets concurrent sessions answer queries in parallel under a read
/// lock while `BUILD INDEX` waits for the write lock. Mutating statements
/// are rejected with [`SqlError::ReadOnly`].
pub fn execute_read_statement(
    engine: &HermesEngine,
    stmt: &Statement,
) -> Result<QueryOutcome, SqlError> {
    match stmt {
        Statement::CreateDataset { .. }
        | Statement::DropDataset { .. }
        | Statement::BuildIndex { .. }
        | Statement::SetThreads { .. }
        | Statement::Checkpoint => Err(SqlError::ReadOnly(stmt.to_string())),
        Statement::ShowThreads => {
            let mut frame = Frame::with_columns(&[("threads", ValueType::Int)]);
            push(
                &mut frame,
                vec![Value::Int(engine.exec_policy().threads as i64)],
            );
            Ok(QueryOutcome::rows(frame))
        }
        Statement::ShowDatasets => {
            let mut frame = Frame::with_columns(&[("dataset", ValueType::Text)]);
            for name in engine.list_datasets() {
                push(&mut frame, vec![Value::Text(name)]);
            }
            Ok(QueryOutcome::rows(frame))
        }
        Statement::ShowStats => {
            let mut frame = stats_frame();
            push_engine_stats(&mut frame, engine);
            sort_stats_rows(&mut frame);
            Ok(QueryOutcome::rows(frame))
        }
        // Embedded (engine-local) execution has no span store; the server and
        // coordinator intercept these at their serving edge and answer from
        // their in-process stores. Locally they answer with the empty schema.
        Statement::ShowTraces => Ok(QueryOutcome::rows(traces_frame())),
        Statement::ShowTrace { .. } => Ok(QueryOutcome::rows(trace_frame())),
        Statement::Info { name } => {
            let info = engine.dataset_info(name)?;
            Ok(QueryOutcome::rows(info_frame(&info)))
        }
        Statement::S2T {
            name,
            sigma,
            tau,
            delta,
            min_duration_ms,
            epsilon,
            naive,
        } => {
            let params = s2t_params(sigma, tau, delta, min_duration_ms, epsilon)?;
            let outcome = if *naive {
                engine.run_s2t_naive(name, &params)?
            } else {
                engine.run_s2t(name, &params)?
            };
            Ok(QueryOutcome::Rows {
                frame: clusters_frame(&outcome.result),
                stats: Some(s2t_stats_frame(&outcome.result, outcome.timings.total_ms())),
            })
        }
        Statement::Qut {
            name,
            wi,
            we,
            tau,
            delta,
            min_duration_ms,
            merge_distance,
            merge_gap_ms,
            rebuild,
        } => {
            let (wi, we) = window_args(wi, we)?;
            let w = query_window(wi, we);
            // σ and ε are inherited from the ReTraTree the dataset was
            // indexed with, exactly as the in-DBMS QUT call operates on the
            // clusters the index already maintains.
            let base = engine.tree(name)?.params().s2t.clone();
            let s2t = window_s2t(base, tau, delta, min_duration_ms)?;
            if *rebuild {
                let (result, stats) = engine.run_window_rebuild(name, &w, &s2t)?;
                Ok(QueryOutcome::Rows {
                    frame: clusters_frame(&result),
                    stats: Some(qut_stats_frame(&result, &stats)),
                })
            } else {
                let params = qut_params(s2t, merge_distance, merge_gap_ms)?;
                let (result, stats) = engine.run_qut(name, &w, &params)?;
                Ok(QueryOutcome::Rows {
                    frame: clusters_frame(&result),
                    stats: Some(qut_stats_frame(&result, &stats)),
                })
            }
        }
        Statement::Range { name, wi, we } => {
            let (wi, we) = window_args(wi, we)?;
            let count = engine.owned_range_count(name, &OwnedSlice::ALL, &query_window(wi, we))?;
            Ok(QueryOutcome::rows(range_frame(count)))
        }
        Statement::Histogram {
            name,
            wi,
            we,
            bucket_ms,
        } => {
            let bucket_ms = histogram_bucket(bucket_ms)?;
            let (wi, we) = window_args(wi, we)?;
            let w = query_window(wi, we);
            let params = QutParams {
                s2t: engine.tree(name)?.params().s2t.clone(),
                ..QutParams::default()
            };
            let (result, _) = engine.run_qut(name, &w, &params)?;
            Ok(QueryOutcome::rows(histogram_frame(&result, bucket_ms)))
        }
    }
}

/// Renders the `INFO <dataset>` answer frame for a [`DatasetInfo`]. Public so
/// a coordinator can render the union of per-shard infos identically.
pub fn info_frame(info: &DatasetInfo) -> Frame {
    let mut frame = Frame::with_columns(&[
        ("dataset", ValueType::Text),
        ("trajectories", ValueType::Int),
        ("points", ValueType::Int),
        ("start", ValueType::Timestamp),
        ("end", ValueType::Timestamp),
        ("indexed", ValueType::Bool),
        ("cluster_entries", ValueType::Int),
    ]);
    push(
        &mut frame,
        vec![
            Value::Text(info.name.clone()),
            Value::Int(info.num_trajectories as i64),
            Value::Int(info.num_points as i64),
            info.lifespan
                .map(|l| Value::Timestamp(l.start))
                .unwrap_or(Value::Null),
            info.lifespan
                .map(|l| Value::Timestamp(l.end))
                .unwrap_or(Value::Null),
            Value::Bool(info.indexed),
            Value::Int(info.num_cluster_entries as i64),
        ],
    );
    frame
}

/// Renders the single-cell `RANGE` answer frame for a window count.
pub fn range_frame(count: usize) -> Frame {
    let mut frame = Frame::with_columns(&[("sub_trajectories_in_window", ValueType::Int)]);
    push(&mut frame, vec![Value::Int(count as i64)]);
    frame
}

/// Renders the `HISTOGRAM` answer frame (one row per bucket × cluster, plus a
/// `cluster = -1` outlier row per bucket) from an assembled window clustering.
pub fn histogram_frame<M: Lifespan>(result: &ClusteringResult<M>, bucket_ms: i64) -> Frame {
    let hist = hermes_va::time_histogram(result, Duration::from_millis(bucket_ms));
    let mut frame = Frame::with_columns(&[
        ("bucket_start", ValueType::Timestamp),
        ("cluster", ValueType::Int),
        ("cardinality", ValueType::Int),
    ]);
    for (b, start) in hist.bucket_starts.iter().enumerate() {
        for (cluster, counts) in hist.counts.iter().enumerate() {
            push(
                &mut frame,
                vec![
                    Value::Timestamp(*start),
                    Value::Int(cluster as i64),
                    Value::Int(counts[b] as i64),
                ],
            );
        }
        push(
            &mut frame,
            vec![
                Value::Timestamp(*start),
                Value::Int(-1),
                Value::Int(hist.outlier_counts[b] as i64),
            ],
        );
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Trajectory};

    fn traj(id: u64, y: f64, t0: i64) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..30)
                .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect(),
        )
        .unwrap()
    }

    fn engine() -> HermesEngine {
        let mut e = HermesEngine::new();
        execute(&mut e, "CREATE DATASET flights;").unwrap();
        let trajs: Vec<Trajectory> = (0..12).map(|i| traj(i, i as f64 * 10.0, 0)).collect();
        e.load_trajectories("flights", trajs).unwrap();
        e
    }

    #[test]
    fn ddl_returns_typed_command_status() {
        let mut e = HermesEngine::new();
        let created = execute(&mut e, "CREATE DATASET a;").unwrap();
        assert_eq!(
            created.command(),
            Some(&CommandStatus {
                tag: CommandTag::CreateDataset,
                affected: 1
            })
        );
        assert!(
            created.frame().is_none(),
            "DDL must not fabricate a row table"
        );
        execute(&mut e, "CREATE DATASET b;").unwrap();
        let shown = execute(&mut e, "SHOW DATASETS;").unwrap();
        let names = shown
            .expect_frame("SHOW DATASETS")
            .column("dataset")
            .unwrap()
            .to_vec();
        assert_eq!(names, vec![Value::from("a"), Value::from("b")]);
        let dropped = execute(&mut e, "DROP DATASET a;").unwrap();
        assert_eq!(dropped.command().unwrap().tag, CommandTag::DropDataset);
        assert_eq!(execute(&mut e, "SHOW DATASETS;").unwrap().num_rows(), 1);
        assert!(matches!(
            execute(&mut e, "DROP DATASET nope;"),
            Err(SqlError::Engine(EngineError::UnknownDataset(_)))
        ));
    }

    #[test]
    fn info_reports_the_loaded_data_in_typed_columns() {
        let mut e = engine();
        let info = execute(&mut e, "SELECT INFO(flights);").unwrap();
        let frame = info.expect_frame("INFO");
        assert_eq!(frame.get(0, "trajectories"), Some(&Value::Int(12)));
        assert_eq!(frame.get(0, "indexed"), Some(&Value::Bool(false)));
        assert_eq!(frame.get(0, "start"), Some(&Value::Timestamp(Timestamp(0))));
        assert_eq!(
            frame.schema()[frame.column_index("end").unwrap()].ty,
            ValueType::Timestamp
        );
    }

    #[test]
    fn build_index_reports_indexed_trajectories() {
        let mut e = engine();
        let built = execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();
        assert_eq!(
            built.command(),
            Some(&CommandStatus {
                tag: CommandTag::BuildIndex,
                affected: 12
            })
        );
    }

    #[test]
    fn s2t_via_sql_produces_a_typed_cluster_frame() {
        let mut e = engine();
        let result = execute(&mut e, "SELECT S2T(flights, 60, 0.35, 0.05, 120000, 400);").unwrap();
        let frame = result.expect_frame("S2T");
        assert_eq!(frame.schema()[0].name, "cluster");
        assert!(frame.num_rows() >= 2);
        // The trailing outlier row is labelled cluster = -1.
        let clusters = frame.column("cluster").unwrap();
        assert_eq!(clusters.last(), Some(&Value::Int(-1)));
        // Lifespans are typed timestamps, not strings.
        assert!(matches!(frame.get(0, "start"), Some(Value::Timestamp(_))));
        assert!(matches!(
            frame.get(0, "mean_distance"),
            Some(Value::Float(_))
        ));
        // Execution statistics ride along as a one-row typed frame.
        let stats = result.stats().unwrap();
        assert!(matches!(stats.get(0, "elapsed_ms"), Some(Value::Float(_))));
        assert_eq!(
            stats.get(0, "clusters"),
            Some(&Value::Int((frame.num_rows() - 1) as i64))
        );

        let naive = execute(
            &mut e,
            "SELECT S2T_NAIVE(flights, 60, 0.35, 0.05, 120000, 400);",
        )
        .unwrap();
        assert_eq!(naive.num_rows(), result.num_rows());
    }

    #[test]
    fn qut_via_sql_requires_and_uses_the_index() {
        let mut e = engine();
        let attempt = execute(
            &mut e,
            "SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);",
        );
        assert!(matches!(
            attempt,
            Err(SqlError::Engine(EngineError::NotIndexed(_)))
        ));

        execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();
        let qut = execute(
            &mut e,
            "SELECT QUT(flights, 0, 1800000, 0.35, 0.05, 120000, 400, 1800000);",
        )
        .unwrap();
        assert!(qut.num_rows() >= 1);
        let stats = qut.stats().unwrap();
        assert!(matches!(
            stats.get(0, "reused_subchunks"),
            Some(Value::Int(_))
        ));
        let rebuild = execute(
            &mut e,
            "SELECT QUT_REBUILD(flights, 0, 1800000, 0.35, 0.05, 120000);",
        )
        .unwrap();
        assert!(rebuild.num_rows() >= 1);

        let range = execute(&mut e, "SELECT RANGE(flights, 0, 1800000);").unwrap();
        let count = range
            .expect_frame("RANGE")
            .get(0, "sub_trajectories_in_window")
            .unwrap()
            .as_i64()
            .unwrap();
        assert!(count > 0);

        let hist = execute(&mut e, "SELECT HISTOGRAM(flights, 0, 1800000, 600000);").unwrap();
        let frame = hist.expect_frame("HISTOGRAM");
        assert_eq!(
            frame
                .schema()
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["bucket_start", "cluster", "cardinality"]
        );
        assert_eq!(frame.schema()[0].ty, ValueType::Timestamp);
        assert!(!frame.is_empty());
        assert!(matches!(
            execute(&mut e, "SELECT HISTOGRAM(flights, 0, 1800000, 0);"),
            Err(SqlError::Engine(EngineError::InvalidParameters(_)))
        ));
    }

    #[test]
    fn read_statements_run_on_a_shared_reference() {
        let mut e = engine();
        execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();
        let range = parse("SELECT RANGE(flights, 0, 1800000);").unwrap();
        assert!(!is_write_statement(&range));
        assert_eq!(execute_read_statement(&e, &range).unwrap().num_rows(), 1);

        let ddl = parse("CREATE DATASET other;").unwrap();
        assert!(is_write_statement(&ddl));
        let err = execute_read_statement(&e, &ddl).unwrap_err();
        assert!(
            matches!(err, SqlError::ReadOnly(ref s) if s.contains("CREATE DATASET")),
            "{err}"
        );
        assert!(err.to_string().contains("read-only"));
    }

    #[test]
    fn show_stats_surfaces_buffer_and_index_counters() {
        let mut e = engine();
        execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();
        execute(&mut e, "SELECT RANGE(flights, 0, 1800000);").unwrap();
        let outcome = execute(&mut e, "SHOW STATS;").unwrap();
        let frame = outcome.expect_frame("SHOW STATS");
        let metric = |name: &str| -> i64 {
            frame
                .rows()
                .find(|row| row[1].as_str() == Some(name))
                .and_then(|row| row[2].as_i64())
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(metric("datasets"), 1);
        assert_eq!(metric("indexed_datasets"), 1);
        assert!(metric("indexed_partitions") > 0);
        assert!(metric("stored_records") > 0);
        assert!(metric("page_lookups") > 0);
        // The cumulative phase counters are always present (non-negative,
        // zero until enough clustering work accumulates a millisecond).
        for phase in [
            "s2t_index_build_ms",
            "s2t_voting_ms",
            "s2t_segmentation_ms",
            "s2t_sampling_ms",
            "s2t_clustering_ms",
            "kernel_evaluated",
            "kernel_pruned",
            "distance_exact",
            "distance_cut_off",
        ] {
            assert!(metric(phase) >= 0, "{phase}");
        }
        assert!(frame
            .column("scope")
            .unwrap()
            .iter()
            .all(|v| v.as_str() == Some("engine")));
    }

    #[test]
    fn show_stats_phase_counters_grow_with_clustering_work() {
        let mut e = engine();
        let metric = |e: &mut HermesEngine, name: &str| -> i64 {
            let outcome = execute(e, "SHOW STATS;").unwrap();
            let frame = outcome.expect_frame("SHOW STATS");
            let value = frame
                .rows()
                .find(|row| row[1].as_str() == Some(name))
                .and_then(|row| row[2].as_i64())
                .unwrap_or_else(|| panic!("metric {name} missing"));
            value
        };
        let before = metric(&mut e, "s2t_voting_ms");
        for _ in 0..50 {
            execute(&mut e, "SELECT S2T(flights, 60, 0.35, 0.05, 120000, 400);").unwrap();
        }
        let after = metric(&mut e, "s2t_voting_ms")
            + metric(&mut e, "s2t_index_build_ms")
            + metric(&mut e, "s2t_segmentation_ms")
            + metric(&mut e, "s2t_sampling_ms")
            + metric(&mut e, "s2t_clustering_ms");
        assert!(
            after > before,
            "phase counters must accumulate: {after} vs {before}"
        );
        // The arena voting path ran, so the kernel counters grew with it.
        assert!(
            metric(&mut e, "kernel_evaluated") > 0,
            "clustering work must evaluate kernel pairs"
        );
    }

    #[test]
    fn set_threads_round_trips_and_rejects_nonpositive_counts() {
        let mut e = engine();
        let set = execute(&mut e, "SET threads = 3;").unwrap();
        assert_eq!(
            set.command(),
            Some(&CommandStatus {
                tag: CommandTag::Set,
                affected: 3
            })
        );
        let shown = execute(&mut e, "SHOW THREADS;").unwrap();
        assert_eq!(
            shown.expect_frame("SHOW THREADS").get(0, "threads"),
            Some(&Value::Int(3))
        );
        // SHOW STATS surfaces the same value in the engine scope.
        let stats = execute(&mut e, "SHOW STATS;").unwrap();
        let frame = stats.expect_frame("SHOW STATS");
        let threads = frame
            .rows()
            .find(|r| r[1].as_str() == Some("threads"))
            .and_then(|r| r[2].as_i64());
        assert_eq!(threads, Some(3));

        for bad in ["SET threads = 0;", "SET threads = -2;"] {
            let err = execute(&mut e, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SqlError::Engine(EngineError::InvalidParameters(ref m))
                        if m.contains("positive thread count")
                ),
                "{bad}: {err}"
            );
        }
        // An absurd count is rejected before any thread is spawned.
        let err = execute(&mut e, "SET threads = 1000000;").unwrap_err();
        assert!(
            matches!(
                err,
                SqlError::Engine(EngineError::InvalidParameters(ref m)) if m.contains("at most")
            ),
            "{err}"
        );
        // The failed statements left the setting untouched.
        let shown = execute(&mut e, "SHOW THREADS;").unwrap();
        assert_eq!(
            shown.expect_frame("SHOW THREADS").get(0, "threads"),
            Some(&Value::Int(3))
        );
        // SET mutates the engine, so it is a write statement and refuses the
        // read-only path.
        let stmt = parse("SET threads = 2;").unwrap();
        assert!(is_write_statement(&stmt));
        assert!(matches!(
            execute_read_statement(&e, &stmt),
            Err(SqlError::ReadOnly(_))
        ));
    }

    #[test]
    fn checkpoint_requires_a_durable_engine() {
        let mut e = engine();
        let err = execute(&mut e, "CHECKPOINT;").unwrap_err();
        assert!(
            matches!(err, SqlError::Engine(EngineError::NotDurable)),
            "{err}"
        );
        // CHECKPOINT mutates durable state: write statement, read path refuses.
        let stmt = parse("CHECKPOINT;").unwrap();
        assert!(is_write_statement(&stmt));
        assert!(matches!(
            execute_read_statement(&e, &stmt),
            Err(SqlError::ReadOnly(_))
        ));
    }

    #[test]
    fn checkpoint_and_persistence_stats_over_a_durable_engine() {
        let dir =
            std::env::temp_dir().join(format!("hermes-sql-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = HermesEngine::open(&dir).unwrap();
        execute(&mut e, "CREATE DATASET flights;").unwrap();
        let trajs: Vec<Trajectory> = (0..12).map(|i| traj(i, i as f64 * 10.0, 0)).collect();
        e.load_trajectories("flights", trajs).unwrap();
        execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();

        let metric = |e: &mut HermesEngine, name: &str| -> i64 {
            let outcome = execute(e, "SHOW STATS;").unwrap();
            let frame = outcome.expect_frame("SHOW STATS");
            let value = frame
                .rows()
                .find(|row| row[1].as_str() == Some(name))
                .and_then(|row| row[2].as_i64())
                .unwrap_or_else(|| panic!("metric {name} missing"));
            value
        };
        assert_eq!(metric(&mut e, "durable"), 1);
        assert!(metric(&mut e, "wal_bytes") > 8, "mutations were journaled");
        assert_eq!(metric(&mut e, "snapshot_bytes"), 0);

        let outcome = execute(&mut e, "CHECKPOINT;").unwrap();
        let status = outcome.command().unwrap();
        assert_eq!(status.tag, CommandTag::Checkpoint);
        assert!(status.affected > 0, "affected carries the snapshot bytes");
        assert_eq!(
            outcome.to_string(),
            format!("CHECKPOINT {}\n", status.affected)
        );
        assert_eq!(metric(&mut e, "snapshot_bytes"), status.affected as i64);
        assert_eq!(metric(&mut e, "wal_bytes"), 8, "log reset to its header");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbound_placeholders_are_a_bind_error() {
        let mut e = engine();
        execute(&mut e, "BUILD INDEX ON flights WITH CHUNK 4 HOURS;").unwrap();
        let stmt = parse("SELECT RANGE(flights, $1, $2);").unwrap();
        let err = execute_statement(&mut e, &stmt).unwrap_err();
        assert!(
            matches!(err, SqlError::Bind(ref m) if m.contains("$1")),
            "{err}"
        );
        let bound = stmt.bind(&[Value::Int(0), Value::Int(1_800_000)]).unwrap();
        assert!(execute_statement(&mut e, &bound).unwrap().num_rows() == 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut e = engine();
        assert!(matches!(
            execute(&mut e, "SELEKT S2T(flights);"),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn outcome_renders_as_text_at_the_display_edge() {
        let mut e = engine();
        let info = execute(&mut e, "SELECT INFO(flights);").unwrap();
        let text = info.to_string();
        assert!(text.contains("dataset"));
        assert!(text.contains("flights"));
        assert!(text.ends_with("(1 row)\n"));
    }
}
