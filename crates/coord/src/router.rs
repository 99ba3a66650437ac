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
//! Every shard is reached through one exchange (`crate::registry`): reads
//! through `Shard::call`, which fails over (and optionally hedges) across
//! the replica set; writes through `Coordinator::write`, which sends to
//! every endpoint. Shard-answered errors are relayed **verbatim** (they
//! match single-node texts); exhausted replica sets surface as
//! `shard '<name>' (<addr>): …` so the failing node is always named.
//!
//! Every multi-shard path applies one **tolerated-error rule**
//! (`tolerate`): a shard that answers "holds no trajectories" or "has no
//! ReTraTree index" for the dataset contributes nothing — an empty slice is
//! a sharding artifact — unless every shard says it, which makes it the
//! dataset's real state. The coordinator checks a statement's own
//! arguments with the executor's rules (`hermes_sql::{thread_policy,
//! s2t_params, qut_params, …}`) and in a node's order: an interior forward
//! checks nothing (the shard is a node), and a fan-out checks what a node
//! checks after resolving the dataset only once the shards have resolved
//! it.

use crate::registry::{Call, CoordError, FailoverPolicy, Shard};
use crate::shardmap::ShardSpec;
use hermes_core::{DatasetInfo, EngineError};
use hermes_exec::{ExecPolicy, Executor};
use hermes_obs::{next_id, QueryTrace};
use hermes_retratree::{merge_qut_partials, QutParams, QutPartial, QutResult, QutStats};
use hermes_s2t::{run_s2t_naive_with, run_s2t_with, S2TParams};
use hermes_server::protocol::{PartialInfo, Request, Response};
use hermes_server::{traceview, ConnectOptions, ServerMetrics};
use hermes_sql::{
    chunk_ms, clusters_frame, histogram_bucket, histogram_frame, info_frame, push_stat, push_stats,
    qut_params, qut_stats_frame, range_frame, s2t_params, s2t_stats_frame, sort_stats_rows,
    stats_frame, thread_policy, trace_frame, traces_frame, window_args, window_s2t, CommandStatus,
    CommandTag, Frame, SqlError, Statement, Value, ValueType,
};
use hermes_trajectory::{TimeInterval, Timestamp, Trajectory};
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

impl ForwardSpec<'_> {
    fn call(&self) -> Call {
        match self {
            ForwardSpec::Query(sql) => Call::One(Request::Query {
                sql: (*sql).to_string(),
            }),
            ForwardSpec::Prepared { sql, params } => Call::Prepared {
                sql: (*sql).to_string(),
                params: params.to_vec(),
            },
        }
    }
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
        let probe = Call::One(Request::Query {
            sql: "SHOW THREADS;".into(),
        });
        self.exec().map(&self.endpoint_pairs(), |_, &(s, e)| {
            let shard = &self.shards[s];
            let alive = shard.exchange(e, &probe, None).is_ok();
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
        let shares: Vec<Call> = self
            .shards
            .iter()
            .map(|shard| {
                let (a, b) = (shard.spec.start_ms, shard.spec.end_ms);
                Call::One(Request::Ingest {
                    dataset: dataset.to_string(),
                    trajectories: trajectories
                        .iter()
                        .filter(|t| {
                            let l = t.lifespan();
                            l.end.millis() >= a && (l.start.millis() < b || b == i64::MAX)
                        })
                        .cloned()
                        .collect(),
                })
            })
            .collect();
        match self.write(&shares, &[]) {
            Ok(_) => Response::Command(CommandStatus {
                tag: CommandTag::Ingest,
                // The client loaded n trajectories, exactly as on a single
                // node; cross-border duplication is a sharding detail, not
                // a result.
                affected: trajectories.len() as u64,
            }),
            Err(e) => Response::error(e.to_string()),
        }
    }

    fn route(
        &self,
        stmt: &Statement,
        fwd: &ForwardSpec<'_>,
        metrics: &ServerMetrics,
        trace: Option<&QueryTrace>,
    ) -> Result<Response, CoordError> {
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
                let chunk_ms = chunk_ms(chunk_hours)?;
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
                let policy = thread_policy(threads)?;
                self.broadcast(fwd, &[])?;
                *self.exec.lock().unwrap() = Arc::new(Executor::new(policy));
                Ok(Response::Command(CommandStatus {
                    tag: CommandTag::Set,
                    affected: policy.threads as u64,
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
                let mut names = std::collections::BTreeSet::new();
                for response in self
                    .exec()
                    .map(&self.shards, |_, shard| shard.call(fwd.call(), None))
                {
                    match response? {
                        Response::Rows { frame, .. } => {
                            names.extend(frame.rows().filter_map(|row| match row.first() {
                                Some(Value::Text(name)) => Some(name.clone()),
                                _ => None,
                            }))
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
                let partials = self.fan_out(
                    name,
                    trace,
                    |owned_start_ms, owned_end_ms| Request::InfoPartial {
                        dataset: name.clone(),
                        owned_start_ms,
                        owned_end_ms,
                    },
                    extract_info,
                    |_| Vec::new(),
                )?;
                let mut info = DatasetInfo {
                    name: name.clone(),
                    ..DatasetInfo::default()
                };
                for partial in partials.into_iter().flatten() {
                    info.num_trajectories += partial.trajectories as usize;
                    info.num_points += partial.points as usize;
                    info.indexed |= partial.indexed;
                    info.num_cluster_entries += partial.cluster_entries as usize;
                    if let Some((start, end)) = partial.lifespan {
                        let l = TimeInterval::new(Timestamp(start), Timestamp(end));
                        info.lifespan = Some(info.lifespan.map_or(l, |acc| acc.union(&l)));
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
                let params = s2t_params(sigma, tau, delta, min_duration_ms, epsilon)?;
                // Each shard contributes the trajectories *starting* in its
                // slice: a disjoint cover of the dataset even though border
                // trajectories are stored on several shards.
                let shares = self.fan_out(
                    name,
                    trace,
                    |owned_start_ms, owned_end_ms| Request::GatherTrajectories {
                        dataset: name.clone(),
                        owned_start_ms,
                        owned_end_ms,
                    },
                    extract_trajectories,
                    |trajectories| vec![("trajectories", trajectories.len().to_string())],
                )?;
                let mut trajectories: Vec<Trajectory> =
                    shares.into_iter().flatten().flatten().collect();
                if trajectories.is_empty() {
                    return Err(SqlError::Engine(EngineError::EmptyDataset(name.clone())).into());
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
                let (wi, we) = window_args(wi, we)?;
                if *rebuild {
                    // The rebuild baseline re-clusters the window's raw
                    // sub-trajectories from scratch — a global computation
                    // with no owned decomposition. Serve it when one shard
                    // holds the whole window, refuse it otherwise.
                    if let Some(shard) = self.interior_shard(wi, we) {
                        return shard.call(fwd.call(), None);
                    }
                    return Err(CoordError::Data(format!(
                        "QUT_REBUILD re-clusters the window's raw data on one node and \
                         window [{wi}, {we}] spans shard boundaries; narrow the window \
                         to a single shard's slice or use QUT"
                    )));
                }
                if let Some(response) = self.forward_interior(name, wi, we, fwd)? {
                    return Ok(response);
                }
                let started = Instant::now();
                // A node reads and checks the parameters once the dataset
                // resolves: τ, δ and t read, the merge parameters read and
                // checked, then τ, δ and t checked. Here the shards resolve
                // it, and those holding it check τ, δ and t right after; an
                // unreadable τ, δ or t is sent as `None`, and reported once
                // the dataset resolved. σ and ε are each tree's own; the
                // defaults stand in for them in the local check.
                let s2t = window_s2t(S2TParams::default(), tau, delta, min_duration_ms);
                let overrides = s2t
                    .as_ref()
                    .ok()
                    .map(|s| (s.tau, s.delta, s.min_duration_ms));
                let refused = s2t.as_ref().map_or(Ok(()), |s| s.validate()).map_err(|m| {
                    CoordError::from(SqlError::Engine(EngineError::InvalidParameters(m)))
                });
                let partials = match self.qut_partials(name, wi, we, overrides, trace) {
                    Err(e) if refused.as_ref().err() != Some(&e) => return Err(e),
                    partials => partials,
                };
                let params = qut_params(s2t?, merge_distance, merge_gap_ms)?;
                let (result, mut stats) = merge(partials?, &params, trace);
                stats.elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
                Ok(Response::Rows {
                    frame: clusters_frame(&result),
                    stats: Some(qut_stats_frame(&result, &stats)),
                })
            }
            Statement::Range { name, wi, we } => {
                let (wi, we) = window_args(wi, we)?;
                if let Some(response) = self.forward_interior(name, wi, we, fwd)? {
                    return Ok(response);
                }
                let counts = self.fan_out(
                    name,
                    trace,
                    |owned_start_ms, owned_end_ms| Request::RangePartial {
                        dataset: name.clone(),
                        owned_start_ms,
                        owned_end_ms,
                        wi,
                        we,
                    },
                    extract_count,
                    |count| vec![("count", count.to_string())],
                )?;
                let total: u64 = counts.into_iter().flatten().sum();
                Ok(rows(range_frame(total as usize)))
            }
            Statement::Histogram {
                name,
                wi,
                we,
                bucket_ms,
            } => {
                // A node checks the bucket before it resolves the dataset.
                let bucket_ms = histogram_bucket(bucket_ms)?;
                let (wi, we) = window_args(wi, we)?;
                if let Some(response) = self.forward_interior(name, wi, we, fwd)? {
                    return Ok(response);
                }
                // No overrides: the histogram clusters with the tree's own
                // indexing-time S2T parameters, exactly like the executor.
                let partials = self.qut_partials(name, wi, we, None, trace)?;
                let (result, _) = merge(partials, &QutParams::default(), trace);
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
        let answers = self
            .exec()
            .map(&self.shards, |_, shard| shard.call(fwd.call(), None).ok());
        let mut frame = stats_frame();
        push_stats(&mut frame, "coordinator", &metrics.stat_table());
        for shard in &self.shards {
            let scope = format!("coordinator.{}", shard.spec.name);
            push_stats(&mut frame, &scope, &shard.stat_table());
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

    /// The interior fast path: re-sends the client's statement verbatim to
    /// the shard whose slice strictly holds the window, through the
    /// failover-capable read path, and relays its answer — errors included,
    /// they carry single-node texts. `None` sends the statement down the
    /// fan-out: no shard holds the window, or its owner holds nothing of the
    /// dataset — an error [`tolerate`] would let the fan-out pass over, and
    /// the fan-out reconstructs the deployment-wide answer.
    fn forward_interior(
        &self,
        dataset: &str,
        wi: i64,
        we: i64,
        fwd: &ForwardSpec<'_>,
    ) -> Result<Option<Response>, CoordError> {
        let Some(shard) = self.interior_shard(wi, we) else {
            return Ok(None);
        };
        match shard.call(fwd.call(), None)? {
            Response::Error { message, .. } if unpopulated(dataset).contains(&message) => Ok(None),
            response => Ok(Some(response)),
        }
    }

    /// Forwards `fwd` to **every endpoint of every shard** in parallel — a
    /// write statement (see [`Coordinator::write`]).
    fn broadcast(
        &self,
        fwd: &ForwardSpec<'_>,
        tolerated: &[String],
    ) -> Result<Vec<Option<Response>>, CoordError> {
        self.write(&vec![fwd.call(); self.shards.len()], tolerated)
    }

    /// Sends `calls[s]` to every endpoint of shard `s` in parallel,
    /// all-or-error — the **write** path. No failover: a write that skipped
    /// a replica would leave the set divergent, so any endpoint failure
    /// fails the statement; error answers listed in `tolerated` fall under
    /// [`tolerate`]. The returned vector holds one response per shard, the
    /// primary's when it gave one, so affected-row sums match a single
    /// node's.
    fn write(
        &self,
        calls: &[Call],
        tolerated: &[String],
    ) -> Result<Vec<Option<Response>>, CoordError> {
        let pairs = self.endpoint_pairs();
        let results = self.exec().map(&pairs, |_, &(s, e)| {
            match self.shards[s].exchange(e, &calls[s], None)? {
                Response::Error { message, .. } => Err(CoordError::Data(message)),
                response => Ok(response),
            }
        });
        let mut out: Vec<Option<Response>> = vec![None; self.shards.len()];
        for (&(s, _), answer) in pairs.iter().zip(tolerate(results, tolerated)?) {
            if out[s].is_none() {
                out[s] = answer;
            }
        }
        Ok(out)
    }

    /// Sends one partial request per shard in parallel — `request` builds it
    /// from the shard's owned slice — each under its own span
    /// ([`traced_call`]), and applies [`tolerate`] with the dataset's
    /// [`unpopulated`] errors. Slice order is preserved: the merge depends
    /// on it.
    fn fan_out<T: Send>(
        &self,
        dataset: &str,
        trace: Option<&QueryTrace>,
        request: impl Fn(i64, i64) -> Request + Sync,
        extract: impl Fn(&Shard, Response) -> Result<T, CoordError> + Sync,
        attrs: impl Fn(&T) -> Vec<(&'static str, String)> + Sync,
    ) -> Result<Vec<Option<T>>, CoordError> {
        let results = self.exec().map(&self.shards, |_, shard| {
            let request = request(shard.spec.start_ms, shard.spec.end_ms);
            traced_call(trace, shard, request, &extract, &attrs)
        });
        tolerate(results, &unpopulated(dataset))
    }

    /// Every shard's owned share of `QUT(wi, we)` — QUT passes the query's
    /// `(τ, δ, t)` as `overrides`, HISTOGRAM `None` for the tree's own. A
    /// shard holding nothing of the dataset contributes an empty partial.
    fn qut_partials(
        &self,
        dataset: &str,
        wi: i64,
        we: i64,
        overrides: Option<(f64, f64, i64)>,
        trace: Option<&QueryTrace>,
    ) -> Result<Vec<QutPartial>, CoordError> {
        let partials = self.fan_out(
            dataset,
            trace,
            |owned_start_ms, owned_end_ms| Request::QutPartial {
                dataset: dataset.to_string(),
                owned_start_ms,
                owned_end_ms,
                wi,
                we,
                overrides,
            },
            extract_qut,
            |partial| traceview::qut_stats_attrs(&partial.stats),
        )?;
        Ok(partials
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect())
    }
}

/// The errors a shard answers when its slice holds nothing of `dataset`
/// (or nothing indexed) — the ones a read fan-out tolerates.
fn unpopulated(dataset: &str) -> [String; 2] {
    [
        EngineError::EmptyDataset(dataset.to_string()).to_string(),
        EngineError::NotIndexed(dataset.to_string()).to_string(),
    ]
}

/// The tolerated-error rule, over per-shard (or per-endpoint) results in
/// order: a shard-answered error whose message is in `tolerated` becomes
/// `None` — an empty slice is a sharding artifact, not an error — and any
/// other error fails the whole call. If every result is tolerated, the
/// error is the deployment-wide truth and is relayed with its single-node
/// text.
fn tolerate<T>(
    results: Vec<Result<T, CoordError>>,
    tolerated: &[String],
) -> Result<Vec<Option<T>>, CoordError> {
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
    match first_tolerated {
        Some(message) if out.iter().all(Option::is_none) => Err(CoordError::Data(message)),
        _ => Ok(out),
    }
}

/// Runs one downstream read with a child span around it: allocates the span,
/// propagates its [`TraceContext`](hermes_obs::TraceContext) through
/// [`Shard::call`] so the shard's own partial span parents under it, and
/// records `shard:<name>` with the call's outcome. With no active trace this
/// is exactly the bare call.
fn traced_call<T>(
    trace: Option<&QueryTrace>,
    shard: &Arc<Shard>,
    request: Request,
    extract: impl FnOnce(&Shard, Response) -> Result<T, CoordError>,
    attrs: impl FnOnce(&T) -> Vec<(&'static str, String)>,
) -> Result<T, CoordError> {
    let run = |ctx| extract(shard, shard.call(Call::One(request), ctx)?);
    let Some(trace) = trace else {
        return run(None);
    };
    let ctx = trace.child_ctx();
    let started = Instant::now();
    let result = run(Some(ctx));
    let span_attrs = match &result {
        Ok(value) => attrs(value),
        Err(e) => vec![("error", e.to_string())],
    };
    trace.record_child(
        ctx.parent_span_id,
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
        other => Err(shard.named(
            &shard.spec.addr,
            format!("expected a {wanted} response, got {other:?}"),
        )),
    }
}

/// The border merge over the shards' partials, recorded as the root's
/// `merge` child span.
fn merge(
    partials: Vec<QutPartial>,
    params: &QutParams,
    trace: Option<&QueryTrace>,
) -> (QutResult, QutStats) {
    let started = Instant::now();
    let (result, stats) = merge_qut_partials(partials, params);
    if let Some(trace) = trace {
        trace.record_child(
            next_id(),
            "merge",
            started,
            started.elapsed(),
            vec![("merges", stats.merges.to_string())],
        );
    }
    (result, stats)
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
