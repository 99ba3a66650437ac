//! Statement routing: verbatim forwarding, parallel fan-out, bit-exact
//! reassembly.
//!
//! The routing rules (proof sketches in `docs/SHARDING.md`):
//!
//! - **Interior fast path** — a window lying *strictly* inside one shard's
//!   slice is forwarded verbatim: that shard owns every sub-chunk the window
//!   closed-intersects, so its local answer already *is* the single-node
//!   answer. Boundary-touching windows take the fan-out path, because the
//!   neighbouring shard's border sub-chunk also intersects them.
//! - **QUT / HISTOGRAM fan-out** — every shard computes the clusters of its
//!   *owned* sub-chunks against the full (un-clipped) window; concatenating
//!   the partials in slice order and running the same border merge a
//!   single node runs yields byte-identical clusters
//!   ([`hermes_retratree::merge_qut_partials`]).
//! - **RANGE** — owned counts sum to the single-node count.
//! - **S2T** — not decomposable (voting is global), so the raw trajectories
//!   are gathered (each shard contributes those *starting* in its slice — a
//!   disjoint cover) and the full pipeline runs on the coordinator.
//! - **INGEST** — each trajectory goes to every shard whose slice its
//!   lifespan closed-intersects, so border sub-chunks see exactly the same
//!   segments everywhere; `INFO` sums de-duplicate via ownership.
//! - **Writes** (`CREATE`/`DROP`/`BUILD INDEX`/`CHECKPOINT`/`SET`)
//!   broadcast to **every endpoint of every replica set** with all-or-error
//!   semantics — the write fan-out invariant that keeps replicas
//!   byte-identical and makes read failover sound.
//!
//! Reads run through [`Shard::call`]: a pipelined exchange with the replica
//! set, failing over (and optionally hedging) across endpoints. Shard-
//! answered errors are relayed **verbatim** (they match single-node texts);
//! exhausted replica sets surface as `shard '<name>' (<addr>): …` so the
//! failing node is always named.

use crate::registry::{CoordError, FailoverPolicy, ReadCall, Shard};
use crate::shardmap::ShardSpec;
use hermes_core::{DatasetInfo, EngineError};
use hermes_exec::{ExecPolicy, Executor};
use hermes_obs::QueryTrace;
use hermes_retratree::{merge_qut_partials, QutParams, QutPartial};
use hermes_s2t::{run_s2t_naive_with, run_s2t_with, S2TParams};
use hermes_server::protocol::{PartialInfo, Request, Response};
use hermes_server::{traceview, ConnectOptions, ServerMetrics};
use hermes_sql::{
    clusters_frame, histogram_frame, info_frame, push_stat, qut_stats_frame, range_frame,
    s2t_stats_frame, sort_stats_rows, stats_frame, trace_frame, traces_frame, CommandStatus,
    CommandTag, Frame, Scalar, SqlError, Statement, Value, ValueType,
};
use hermes_trajectory::{Duration, TimeInterval, Timestamp, Trajectory};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a statement is re-sent to a shard when it is forwarded whole instead
/// of being decomposed: the original SQL text (plus bound parameters when it
/// arrived through the prepared path). Forwarding the client's own bytes —
/// never re-rendering a parsed statement — is what keeps forwarded answers
/// trivially byte-identical.
pub enum ForwardSpec<'a> {
    /// A plain `Query` request: forward the SQL text as-is.
    Query(&'a str),
    /// An `ExecutePrepared` request: prepare the original text downstream
    /// (the shard de-duplicates re-preparations) and execute with the same
    /// parameters.
    Prepared {
        /// The original placeholder SQL.
        sql: &'a str,
        /// The bound parameter values.
        params: &'a [Value],
    },
}

/// The query-routing brain of `hermes-coord`: a static shard registry plus
/// an executor pool for parallel fan-out and local merge work.
pub struct Coordinator {
    shards: Vec<Arc<Shard>>,
    exec: Mutex<Arc<Executor>>,
}

impl Coordinator {
    /// Builds a coordinator over a validated shard map (see
    /// [`crate::validate_shard_map`]) with the default [`FailoverPolicy`];
    /// `specs` must already be sorted by slice start, which validation
    /// guarantees.
    pub fn new(specs: Vec<ShardSpec>, opts: ConnectOptions, policy: ExecPolicy) -> Coordinator {
        Coordinator::with_failover(specs, opts, policy, FailoverPolicy::default())
    }

    /// Builds a coordinator with an explicit [`FailoverPolicy`] (hedging
    /// window, retry backoff) applied to every shard's read path.
    pub fn with_failover(
        specs: Vec<ShardSpec>,
        opts: ConnectOptions,
        policy: ExecPolicy,
        failover: FailoverPolicy,
    ) -> Coordinator {
        Coordinator {
            shards: specs
                .into_iter()
                .map(|spec| Arc::new(Shard::with_policy(spec, opts.clone(), failover.clone())))
                .collect(),
            exec: Mutex::new(Arc::new(Executor::new(policy))),
        }
    }

    /// The shard registry, in slice order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    fn exec(&self) -> Arc<Executor> {
        Arc::clone(&self.exec.lock().unwrap())
    }

    /// Every `(shard_idx, endpoint_idx)` pair — the write fan-out targets.
    fn endpoint_pairs(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(s, shard)| (0..shard.endpoints().len()).map(move |e| (s, e)))
            .collect()
    }

    /// Probes every endpoint of every shard in parallel (one
    /// `SHOW THREADS;` round trip each) and returns `(name, addr, alive)`
    /// per endpoint, in slice order, primaries first within a shard.
    pub fn probe_all(&self) -> Vec<(String, String, bool)> {
        let pairs = self.endpoint_pairs();
        let exec = self.exec();
        exec.map(&pairs, |_, &(s, e)| {
            let shard = &self.shards[s];
            let alive = shard
                .on_endpoint(e, |c| c.query("SHOW THREADS;").map(|_| ()))
                .is_ok();
            (
                shard.spec.name.clone(),
                shard.endpoints()[e].addr.clone(),
                alive,
            )
        })
    }

    /// Executes one bound statement, returning the wire response to relay.
    /// `fwd` carries the client's original bytes for the forwarding paths;
    /// `metrics` feeds the `coordinator` scope of `SHOW STATS`. When `trace`
    /// is set, fan-out paths record one child span per contacted shard (and
    /// propagate the context downstream) plus a `merge` span for the local
    /// reassembly; interior-forwarded and broadcast statements stay span-free
    /// — their cost is the root span itself.
    pub fn execute(
        &self,
        stmt: &Statement,
        fwd: &ForwardSpec<'_>,
        metrics: &ServerMetrics,
        trace: Option<&QueryTrace>,
    ) -> Response {
        match self.route(stmt, fwd, metrics, trace) {
            Ok(response) => response,
            Err(e) => Response::error(e.to_string()),
        }
    }

    /// Bulk-load entry point ([`Request::Ingest`]): routes each trajectory
    /// to every shard whose slice its lifespan closed-intersects, and within
    /// a shard to **every endpoint** of its replica set, all-or-error — a
    /// replica that missed a write would stop answering bit-identically.
    /// Every shard receives its (possibly empty) share so the dataset exists
    /// everywhere — shards auto-create datasets on first ingest, and later
    /// broadcasts (`BUILD INDEX`) assume the name resolves on all of them.
    pub fn ingest(&self, dataset: &str, trajectories: Vec<Trajectory>) -> Response {
        let shares: Vec<Vec<Trajectory>> = self
            .shards
            .iter()
            .map(|shard| {
                let (a, b) = shard.slice();
                trajectories
                    .iter()
                    .filter(|t| {
                        let l = t.lifespan();
                        l.end.millis() >= a && (l.start.millis() < b || b == i64::MAX)
                    })
                    .cloned()
                    .collect()
            })
            .collect();
        let pairs = self.endpoint_pairs();
        let exec = self.exec();
        let results = exec.map(&pairs, |_, &(s, e)| {
            self.shards[s].on_endpoint(e, |c| c.ingest(dataset, &shares[s]).map(|_| ()))
        });
        for result in results {
            if let Err(e) = result {
                return Response::error(e.to_string());
            }
        }
        Response::Command(CommandStatus {
            tag: CommandTag::Ingest,
            // The client loaded n trajectories, exactly as on a single node;
            // cross-border duplication is a sharding detail, not a result.
            affected: trajectories.len() as u64,
        })
    }

    fn route(
        &self,
        stmt: &Statement,
        fwd: &ForwardSpec<'_>,
        metrics: &ServerMetrics,
        trace: Option<&QueryTrace>,
    ) -> Result<Response, CoordError> {
        let f64_of = |s: &Scalar| s.as_f64().map_err(|m| sql_err(SqlError::Bind(m)));
        let i64_of = |s: &Scalar| s.as_i64().map_err(|m| sql_err(SqlError::Bind(m)));
        match stmt {
            Statement::CreateDataset { .. } | Statement::DropDataset { .. } => {
                let responses = self.broadcast(fwd, &[])?;
                Ok(responses
                    .into_iter()
                    .flatten()
                    .next()
                    .expect("a validated map has at least one shard"))
            }
            Statement::Checkpoint => {
                let responses = self.broadcast(fwd, &[])?;
                Ok(Response::Command(CommandStatus {
                    tag: CommandTag::Checkpoint,
                    affected: sum_affected(&responses),
                }))
            }
            Statement::BuildIndex {
                name, chunk_hours, ..
            } => {
                let chunk_ms = (f64_of(chunk_hours)? * 3_600_000.0) as i64;
                if chunk_ms > 0 {
                    // Interior slice boundaries must sit on chunk boundaries
                    // (chunks are epoch-aligned), otherwise one sub-chunk
                    // would straddle two owners and sharded answers could
                    // not be bit-identical. Reject up front with the rule.
                    for shard in &self.shards {
                        let start = shard.spec.start_ms;
                        if start != i64::MIN && start.rem_euclid(chunk_ms) != 0 {
                            return Err(CoordError::Data(format!(
                                "shard '{}' starts at {start} ms, which is not a multiple of \
                                 the {chunk_ms} ms chunk duration; align shard boundaries to \
                                 the chunk grid (see docs/SHARDING.md)",
                                shard.spec.name
                            )));
                        }
                    }
                }
                // A shard whose slice holds no data of this dataset reports
                // "holds no trajectories"; as long as one shard indexed, the
                // deployment is indexed and the empty shard simply owns
                // nothing.
                let empty = [EngineError::EmptyDataset(name.clone()).to_string()];
                let responses = self.broadcast(fwd, &empty)?;
                Ok(Response::Command(CommandStatus {
                    tag: CommandTag::BuildIndex,
                    affected: sum_affected(&responses),
                }))
            }
            Statement::SetThreads { threads } => {
                let n = i64_of(threads)?;
                let count = usize::try_from(n).map_err(|_| {
                    sql_err(SqlError::Engine(EngineError::InvalidParameters(format!(
                        "SET threads expects a positive thread count, got {n}"
                    ))))
                })?;
                let policy = ExecPolicy::new(count).map_err(|m| {
                    sql_err(SqlError::Engine(EngineError::InvalidParameters(format!(
                        "SET {m}"
                    ))))
                })?;
                // Scalars are already bound, so the canonical text is exact.
                let sql = format!("SET threads = {count};");
                self.broadcast(&ForwardSpec::Query(&sql), &[])?;
                *self.exec.lock().unwrap() = Arc::new(Executor::new(policy));
                Ok(Response::Command(CommandStatus {
                    tag: CommandTag::Set,
                    affected: count as u64,
                }))
            }
            Statement::ShowThreads => {
                let mut frame = Frame::with_columns(&[("threads", ValueType::Int)]);
                push(&mut frame, vec![Value::Int(self.exec().threads() as i64)]);
                Ok(rows(frame))
            }
            Statement::ShowDatasets => {
                // A read: one (failover-capable) forward per shard suffices —
                // replicas hold the same dataset names by the write
                // invariant.
                let exec = self.exec();
                let responses = exec
                    .map(&self.shards, |_, shard| self.forward(shard, fwd))
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()?;
                let mut names = std::collections::BTreeSet::new();
                for response in responses {
                    match response {
                        Response::Rows { frame, .. } => {
                            for row in frame.rows() {
                                if let Some(Value::Text(name)) = row.first() {
                                    names.insert(name.clone());
                                }
                            }
                        }
                        Response::Error { message, .. } => return Err(CoordError::Data(message)),
                        _ => {}
                    }
                }
                let mut frame = Frame::with_columns(&[("dataset", ValueType::Text)]);
                for name in names {
                    push(&mut frame, vec![Value::Text(name)]);
                }
                Ok(rows(frame))
            }
            Statement::ShowStats => Ok(rows(self.stats(fwd, metrics))),
            // Trace statements are answered at the serving edge (the span
            // store lives there, see `crate::server`); these arms only keep
            // the match exhaustive for library callers, answering with the
            // empty schema.
            Statement::ShowTraces => Ok(rows(traces_frame())),
            Statement::ShowTrace { .. } => Ok(rows(trace_frame())),
            Statement::Info { name } => {
                let partials = self.fan_out(name, |shard| {
                    let (owned_start_ms, owned_end_ms) = shard.slice();
                    traced_call(
                        trace,
                        shard,
                        Request::InfoPartial {
                            dataset: name.clone(),
                            owned_start_ms,
                            owned_end_ms,
                        },
                        extract_info,
                        |_| Vec::new(),
                    )
                })?;
                let mut info = DatasetInfo {
                    name: name.clone(),
                    num_trajectories: 0,
                    num_points: 0,
                    lifespan: None,
                    indexed: false,
                    num_cluster_entries: 0,
                };
                for partial in partials.into_iter().flatten() {
                    info.num_trajectories += partial.trajectories as usize;
                    info.num_points += partial.points as usize;
                    info.indexed |= partial.indexed;
                    info.num_cluster_entries += partial.cluster_entries as usize;
                    if let Some((start, end)) = partial.lifespan {
                        let (lo, hi) = match info.lifespan {
                            Some(l) => (l.start.millis().min(start), l.end.millis().max(end)),
                            None => (start, end),
                        };
                        info.lifespan = Some(TimeInterval::new(Timestamp(lo), Timestamp(hi)));
                    }
                }
                Ok(rows(info_frame(&info)))
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
                let params = S2TParams::builder()
                    .sigma(f64_of(sigma)?)
                    .tau(f64_of(tau)?)
                    .delta(f64_of(delta)?)
                    .min_duration_ms(i64_of(min_duration_ms)?)
                    .epsilon(f64_of(epsilon)?)
                    .build()
                    .map_err(|m| sql_err(SqlError::Engine(EngineError::InvalidParameters(m))))?;
                // Each shard contributes the trajectories *starting* in its
                // slice: a disjoint cover of the dataset even though border
                // trajectories are stored on several shards.
                let shares = self.fan_out(name, |shard| {
                    let (owned_start_ms, owned_end_ms) = shard.slice();
                    traced_call(
                        trace,
                        shard,
                        Request::GatherTrajectories {
                            dataset: name.clone(),
                            owned_start_ms,
                            owned_end_ms,
                        },
                        extract_trajectories,
                        |trajectories| vec![("trajectories", trajectories.len().to_string())],
                    )
                })?;
                let mut trajectories: Vec<Trajectory> =
                    shares.into_iter().flatten().flatten().collect();
                if trajectories.is_empty() {
                    return Err(sql_err(SqlError::Engine(EngineError::EmptyDataset(
                        name.clone(),
                    ))));
                }
                // Single-node S2T runs over trajectories in insertion order;
                // with the documented ascending-id ingest convention, the id
                // sort reproduces it (docs/SHARDING.md).
                trajectories.sort_by_key(|t| t.id);
                let exec = self.exec();
                let outcome = if *naive {
                    run_s2t_naive_with(&trajectories, &params, &exec)
                } else {
                    run_s2t_with(&trajectories, &params, &exec)
                };
                Ok(Response::Rows {
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
                let (wi, we) = (i64_of(wi)?, i64_of(we)?);
                if *rebuild {
                    // The rebuild baseline re-clusters the window's raw
                    // sub-trajectories from scratch — a global computation
                    // with no owned decomposition. Serve it when one shard
                    // holds the whole window, refuse it otherwise.
                    if let Some(shard) = self.interior_shard(wi, we) {
                        return self.forward(&shard, fwd);
                    }
                    return Err(CoordError::Data(format!(
                        "QUT_REBUILD re-clusters the window's raw data on one node and \
                         window [{wi}, {we}] spans shard boundaries; narrow the window \
                         to a single shard's slice or use QUT"
                    )));
                }
                let merge = QutParams {
                    s2t: S2TParams::default(),
                    merge_distance: f64_of(merge_distance)?,
                    merge_gap: Duration::from_millis(i64_of(merge_gap_ms)?),
                };
                merge
                    .validate()
                    .map_err(|m| sql_err(SqlError::Engine(EngineError::InvalidParameters(m))))?;
                if let Some(shard) = self.interior_shard(wi, we) {
                    let response = self.forward(&shard, fwd)?;
                    if !is_unpopulated_error(&response, name) {
                        return Ok(response);
                    }
                    // The owning shard holds nothing of this dataset; the
                    // fan-out below reconstructs the deployment-wide truth.
                }
                let started = Instant::now();
                let overrides = Some((f64_of(tau)?, f64_of(delta)?, i64_of(min_duration_ms)?));
                let partials = self.fan_out(name, |shard| {
                    let (owned_start_ms, owned_end_ms) = shard.slice();
                    traced_call(
                        trace,
                        shard,
                        Request::QutPartial {
                            dataset: name.clone(),
                            owned_start_ms,
                            owned_end_ms,
                            wi,
                            we,
                            overrides,
                        },
                        extract_qut,
                        |partial| traceview::qut_stats_attrs(&partial.stats),
                    )
                })?;
                let partials: Vec<QutPartial> = partials
                    .into_iter()
                    .map(Option::unwrap_or_default)
                    .collect();
                let merge_started = Instant::now();
                let (result, mut stats) = merge_qut_partials(partials, &merge);
                record_merge_span(trace, merge_started, stats.merges);
                stats.elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
                Ok(Response::Rows {
                    frame: clusters_frame(&result),
                    stats: Some(qut_stats_frame(&result, &stats)),
                })
            }
            Statement::Range { name, wi, we } => {
                let (wi, we) = (i64_of(wi)?, i64_of(we)?);
                if let Some(shard) = self.interior_shard(wi, we) {
                    let response = self.forward(&shard, fwd)?;
                    if !is_unpopulated_error(&response, name) {
                        return Ok(response);
                    }
                }
                let counts = self.fan_out(name, |shard| {
                    let (owned_start_ms, owned_end_ms) = shard.slice();
                    traced_call(
                        trace,
                        shard,
                        Request::RangePartial {
                            dataset: name.clone(),
                            owned_start_ms,
                            owned_end_ms,
                            wi,
                            we,
                        },
                        extract_count,
                        |count| vec![("count", count.to_string())],
                    )
                })?;
                let total: u64 = counts.into_iter().flatten().sum();
                Ok(rows(range_frame(total as usize)))
            }
            Statement::Histogram {
                name,
                wi,
                we,
                bucket_ms,
            } => {
                let bucket_ms = i64_of(bucket_ms)?;
                if bucket_ms <= 0 {
                    return Err(sql_err(SqlError::Engine(EngineError::InvalidParameters(
                        "histogram bucket width must be positive".into(),
                    ))));
                }
                let (wi, we) = (i64_of(wi)?, i64_of(we)?);
                if let Some(shard) = self.interior_shard(wi, we) {
                    let response = self.forward(&shard, fwd)?;
                    if !is_unpopulated_error(&response, name) {
                        return Ok(response);
                    }
                }
                // No overrides: the histogram clusters with the tree's own
                // indexing-time S2T parameters, exactly like the executor.
                let partials = self.fan_out(name, |shard| {
                    let (owned_start_ms, owned_end_ms) = shard.slice();
                    traced_call(
                        trace,
                        shard,
                        Request::QutPartial {
                            dataset: name.clone(),
                            owned_start_ms,
                            owned_end_ms,
                            wi,
                            we,
                            overrides: None,
                        },
                        extract_qut,
                        |partial| traceview::qut_stats_attrs(&partial.stats),
                    )
                })?;
                let partials: Vec<QutPartial> = partials
                    .into_iter()
                    .map(Option::unwrap_or_default)
                    .collect();
                let merge_started = Instant::now();
                let (result, merge_stats) = merge_qut_partials(partials, &QutParams::default());
                record_merge_span(trace, merge_started, merge_stats.merges);
                Ok(rows(histogram_frame(&result, bucket_ms)))
            }
        }
    }

    /// The `SHOW STATS` frame: coordinator scope first, then the registry's
    /// per-shard control-plane counters, then every reachable shard's own
    /// stats re-scoped as `<shard>.<scope>`. A dead shard contributes only
    /// its registry rows (`alive = 0`) — observability must not require the
    /// whole fleet to be up.
    fn stats(&self, fwd: &ForwardSpec<'_>, metrics: &ServerMetrics) -> Frame {
        let exec = self.exec();
        let answers = exec.map(&self.shards, |_, shard| self.forward(shard, fwd).ok());
        let mut frame = stats_frame();
        for (metric, value) in metrics.rows() {
            push_stat(&mut frame, "coordinator", &metric, value);
        }
        for shard in &self.shards {
            let scope = format!("coordinator.{}", shard.spec.name);
            for (metric, value) in shard.stat_rows() {
                push_stat(&mut frame, &scope, &metric, value);
            }
        }
        for (shard, answer) in self.shards.iter().zip(answers) {
            if let Some(Response::Rows {
                frame: shard_frame, ..
            }) = answer
            {
                for row in shard_frame.rows() {
                    if let [Value::Text(scope), Value::Text(metric), Value::Int(value)] =
                        row.as_slice()
                    {
                        push_stat(
                            &mut frame,
                            &format!("{}.{scope}", shard.spec.name),
                            metric,
                            *value,
                        );
                    }
                }
            }
        }
        // Same deterministic (scope, metric) ordering contract as the
        // single-node server (docs/OBSERVABILITY.md).
        sort_stats_rows(&mut frame);
        frame
    }

    /// The shard whose slice *strictly* contains the (clamped) window, if
    /// any. Strictness matters: a window touching a slice boundary also
    /// closed-intersects the neighbour's border sub-chunk, so only strictly
    /// interior windows may skip the fan-out. With one shard everything is
    /// interior by construction.
    fn interior_shard(&self, wi: i64, we: i64) -> Option<Arc<Shard>> {
        if self.shards.len() == 1 {
            return Some(Arc::clone(&self.shards[0]));
        }
        let (a, b) = (wi, we.max(wi));
        self.shards
            .iter()
            .find(|s| a > s.spec.start_ms && b < s.spec.end_ms)
            .cloned()
    }

    /// Re-sends the client's original statement to one shard — the **read**
    /// forward: [`Shard::call`] retries the exchange across the replica set,
    /// so a dead primary degrades to a replica instead of an error. The
    /// shard's response is returned verbatim (including shard-answered
    /// errors — they carry single-node texts).
    fn forward(&self, shard: &Arc<Shard>, fwd: &ForwardSpec<'_>) -> Result<Response, CoordError> {
        let call = match fwd {
            ForwardSpec::Query(sql) => ReadCall::Pipeline(vec![Request::Query {
                sql: (*sql).to_string(),
            }]),
            ForwardSpec::Prepared { sql, params } => ReadCall::Prepared {
                sql: (*sql).to_string(),
                params: params.to_vec(),
            },
        };
        let mut responses = shard.call(call, None)?;
        responses.pop().ok_or_else(|| CoordError::Shard {
            name: shard.spec.name.clone(),
            addr: shard.spec.addr.clone(),
            detail: "empty pipeline answer".into(),
        })
    }

    /// Forwards `fwd` to **every endpoint of every shard** in parallel,
    /// all-or-error — the **write** path. No failover: a write that skipped
    /// a replica would leave the set divergent, so any endpoint failure
    /// fails the statement. A shard-answered error whose message is listed
    /// in `tolerated` makes the shard contribute `None` instead of failing
    /// the broadcast — unless *every* shard says it, in which case it is the
    /// deployment-wide truth and is relayed. The returned vector holds the
    /// **primary's** response per shard (one response per shard, not per
    /// endpoint, so affected-row sums match a single node's).
    fn broadcast(
        &self,
        fwd: &ForwardSpec<'_>,
        tolerated: &[String],
    ) -> Result<Vec<Option<Response>>, CoordError> {
        let pairs = self.endpoint_pairs();
        let exec = self.exec();
        let results = exec.map(&pairs, |_, &(s, e)| self.forward_on(s, e, fwd));
        let mut out: Vec<Option<Response>> = (0..self.shards.len()).map(|_| None).collect();
        let mut first_tolerated = None;
        for (&(s, e), result) in pairs.iter().zip(results) {
            match result {
                Ok(Response::Error { message, .. }) | Err(CoordError::Data(message))
                    if tolerated.contains(&message) =>
                {
                    first_tolerated.get_or_insert(message);
                }
                Ok(Response::Error { message, .. }) => return Err(CoordError::Data(message)),
                Ok(response) => {
                    if e == 0 {
                        out[s] = Some(response);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if out.iter().all(Option::is_none) {
            return Err(CoordError::Data(
                first_tolerated.expect("a validated map has at least one shard"),
            ));
        }
        Ok(out)
    }

    /// One verbatim statement exchange with one specific endpoint (the
    /// write-path unit; no failover).
    fn forward_on(
        &self,
        shard_idx: usize,
        endpoint_idx: usize,
        fwd: &ForwardSpec<'_>,
    ) -> Result<Response, CoordError> {
        self.shards[shard_idx].on_endpoint(endpoint_idx, |c| match fwd {
            ForwardSpec::Query(sql) => c.exchange(&Request::Query {
                sql: (*sql).to_string(),
            }),
            ForwardSpec::Prepared { sql, params } => {
                match c.exchange(&Request::Prepare {
                    sql: (*sql).to_string(),
                })? {
                    Response::Prepared { handle } => c.exchange(&Request::ExecutePrepared {
                        handle,
                        params: params.to_vec(),
                    }),
                    error @ Response::Error { .. } => Ok(error),
                    other => Err(hermes_server::ClientError::Protocol(format!(
                        "expected a Prepared response, got {other:?}"
                    ))),
                }
            }
        })
    }

    /// Runs one typed shard call per shard in parallel (slice order is
    /// preserved — the merge depends on it). "Holds no trajectories" and
    /// "has no ReTraTree index" answers from *individual* shards become
    /// `None` — an empty slice is a sharding artifact, not an error — but if
    /// every shard reports it, it is the dataset's real state and the error
    /// is relayed with its single-node text.
    fn fan_out<T: Send>(
        &self,
        dataset: &str,
        call: impl Fn(&Arc<Shard>) -> Result<T, CoordError> + Sync,
    ) -> Result<Vec<Option<T>>, CoordError> {
        let tolerated = [
            EngineError::EmptyDataset(dataset.to_string()).to_string(),
            EngineError::NotIndexed(dataset.to_string()).to_string(),
        ];
        let exec = self.exec();
        let results = exec.map(&self.shards, |_, shard| call(shard));
        let mut out = Vec::with_capacity(results.len());
        let mut first_tolerated = None;
        for result in results {
            match result {
                Ok(value) => out.push(Some(value)),
                Err(CoordError::Data(message)) if tolerated.contains(&message) => {
                    first_tolerated.get_or_insert(message);
                    out.push(None);
                }
                Err(e) => return Err(e),
            }
        }
        if out.iter().all(Option::is_none) {
            return Err(CoordError::Data(
                first_tolerated.expect("a validated map has at least one shard"),
            ));
        }
        Ok(out)
    }
}

/// Runs one downstream read with a child span around it: allocates the span,
/// propagates its [`TraceContext`](hermes_obs::TraceContext) through
/// [`Shard::call`] so the shard's own partial span parents under it, and
/// records `shard:<name>` with the call's outcome. With no active trace this
/// is exactly the bare call. The request travels as a one-element pipeline —
/// the failover/hedging machinery replays it verbatim on other endpoints as
/// needed.
fn traced_call<T>(
    trace: Option<&QueryTrace>,
    shard: &Arc<Shard>,
    request: Request,
    extract: impl FnOnce(&Shard, Response) -> Result<T, CoordError>,
    attrs: impl FnOnce(&T) -> Vec<(&'static str, String)>,
) -> Result<T, CoordError> {
    let run = |ctx| {
        let mut responses = shard.call(ReadCall::Pipeline(vec![request]), ctx)?;
        let response = responses.pop().ok_or_else(|| CoordError::Shard {
            name: shard.spec.name.clone(),
            addr: shard.spec.addr.clone(),
            detail: "empty pipeline answer".into(),
        })?;
        extract(shard, response)
    };
    let Some(trace) = trace else {
        return run(None);
    };
    let (span_id, ctx) = trace.child_ctx();
    let started = Instant::now();
    let result = run(Some(ctx));
    let span_attrs = match &result {
        Ok(value) => attrs(value),
        Err(e) => vec![("error", e.to_string())],
    };
    trace.record_child(
        span_id,
        format!("shard:{}", shard.spec.name),
        started,
        started.elapsed(),
        span_attrs,
    );
    result
}

/// Typed extraction of a shard's answer frame, with shard-answered errors
/// relayed verbatim and unexpected frames named after the shard.
fn extract_qut(shard: &Shard, response: Response) -> Result<QutPartial, CoordError> {
    match response {
        Response::QutPartial(partial) => Ok(partial),
        other => extract_mismatch(shard, "QutPartial", other),
    }
}

fn extract_count(shard: &Shard, response: Response) -> Result<u64, CoordError> {
    match response {
        Response::Count(n) => Ok(n),
        other => extract_mismatch(shard, "Count", other),
    }
}

fn extract_trajectories(shard: &Shard, response: Response) -> Result<Vec<Trajectory>, CoordError> {
    match response {
        Response::Trajectories(trajectories) => Ok(trajectories),
        other => extract_mismatch(shard, "Trajectories", other),
    }
}

fn extract_info(shard: &Shard, response: Response) -> Result<PartialInfo, CoordError> {
    match response {
        Response::InfoPartial(info) => Ok(info),
        other => extract_mismatch(shard, "InfoPartial", other),
    }
}

fn extract_mismatch<T>(shard: &Shard, wanted: &str, got: Response) -> Result<T, CoordError> {
    match got {
        Response::Error { message, .. } => Err(CoordError::Data(message)),
        other => Err(CoordError::Shard {
            name: shard.spec.name.clone(),
            addr: shard.spec.addr.clone(),
            detail: format!("expected a {wanted} response, got {other:?}"),
        }),
    }
}

/// Records the local border-merge as a child span of the root.
fn record_merge_span(trace: Option<&QueryTrace>, started: Instant, merges: usize) {
    if let Some(trace) = trace {
        let (span_id, _) = trace.child_ctx();
        trace.record_child(
            span_id,
            "merge".to_string(),
            started,
            started.elapsed(),
            vec![("merges", merges.to_string())],
        );
    }
}

/// True when a forwarded response is that shard's way of saying "I hold
/// nothing of this dataset" — the interior fast path then falls back to the
/// fan-out, which reconstructs the deployment-wide answer (or relays the
/// error if the dataset is genuinely empty/unindexed everywhere).
fn is_unpopulated_error(response: &Response, dataset: &str) -> bool {
    match response {
        Response::Error { message, .. } => {
            *message == EngineError::EmptyDataset(dataset.to_string()).to_string()
                || *message == EngineError::NotIndexed(dataset.to_string()).to_string()
        }
        _ => false,
    }
}

fn sql_err(e: SqlError) -> CoordError {
    CoordError::Data(e.to_string())
}

fn sum_affected(responses: &[Option<Response>]) -> u64 {
    responses
        .iter()
        .flatten()
        .map(|r| match r {
            Response::Command(status) => status.affected,
            _ => 0,
        })
        .sum()
}

fn rows(frame: Frame) -> Response {
    Response::Rows { frame, stats: None }
}

fn push(frame: &mut Frame, row: Vec<Value>) {
    frame
        .push_row(row)
        .expect("coordinator rows match their frame schema");
}
