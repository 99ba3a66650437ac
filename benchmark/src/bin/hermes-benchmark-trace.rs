//! `hermes-benchmark-trace` — the in-process layer replay of a traced run.
//!
//! ```text
//! hermes-benchmark-trace --workload <name> --seed <n> [--quick]
//! ```
//!
//! Rebuilds the workload's plan from the seed, takes a seeded 10 % sample of
//! its measured operations and pushes each through the layers one call at a
//! time — wire codec, parser, engine entry point, the S2T phase functions,
//! frame builder — timing every call from outside. A few layers are also
//! exercised on their own over the workload's data (distance kernel, index
//! probe, fork-join, WAL, snapshot, epoch publication, coordinator). Prints
//! one `name value` line per per-layer metric; a layer the workload never
//! enters reports 0.
//!
//! Only functions on the shipped path are called: the fused arena voting,
//! the dispatching kernel and probe, the event-loop server core, and
//! `Coordinator` itself rather than its serving loop.

use hermes_benchmark::report::DEFAULT_SECONDS;
use hermes_benchmark::run::request_of;
use hermes_benchmark::stats::median;
use hermes_benchmark::workload::{moved, Body, Op, OpKind, Plan, Workload, BUILD_INDEX};
use hermes_coord::{validate_shard_map, Coordinator, ForwardSpec, ShardSpec};
use hermes_core::{ExecPolicy, Executor, HermesEngine, SharedEngine};
use hermes_datagen::SplitMix64;
use hermes_obs::Registry;
use hermes_retratree::{
    merge_qut_partials, qut_clustering_with, qut_partial_with, OwnedSlice, QutParams, QutStats,
};
use hermes_s2t::arena::{arena_voting_counted_with, PackedSegmentIndex, SegmentArena};
use hermes_s2t::{
    cluster_around_representatives_with, segment_all_with, select_representatives_with, S2TParams,
};
use hermes_server::protocol::{
    read_request, read_response, write_request, write_response, Response,
};
use hermes_server::{
    ConnectOptions, HermesClient, Server, ServerConfig, ServerHandle, ServerMetrics,
};
use hermes_sql::{
    clusters_frame, histogram_frame, info_frame, parse, range_frame, Frame, Statement,
};
use hermes_storage::{read_snapshot_file, write_snapshot_file, Wal};
use hermes_trajectory::kernel::mean_sync_distance_batch;
use hermes_trajectory::{Duration, Mbb, TimeInterval, Timestamp, Trajectory};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Share of the measured operations the replay samples.
const SAMPLE: f64 = 0.10;
/// Query windows of the kernel and probe micro-measurements.
const PROBES: usize = 2_000;
/// Segments one voting probe covers (`QUERY_RUN` of the arena voting).
const QUERY_RUN: usize = 4;

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// Samples per metric; a metric's value is their median unless set outright.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn add(&mut self, name: &'static str, sample: f64) {
        self.0.entry(name).or_default().push(sample);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, vec![value]);
    }

    /// Reports 0 for layers this workload never enters, unless measured.
    fn absent(&mut self, names: &[&'static str]) {
        for name in names {
            self.0.entry(name).or_insert_with(|| vec![0.0]);
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |samples| median(samples))
    }
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut quick = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" => workload = argv.next().as_deref().and_then(Workload::from_name),
            "--seed" => seed = argv.next().and_then(|s| s.parse().ok()).unwrap_or(1),
            "--quick" => quick = true,
            other => {
                eprintln!("error: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!("error: --workload <name> is required");
        return ExitCode::from(2);
    };
    match replay(workload, seed, quick) {
        Ok(layers) => {
            for (name, samples) in &layers.0 {
                println!("{name} {}", median(samples));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn replay(workload: Workload, seed: u64, quick: bool) -> Result<Layers, String> {
    let plan = Plan::build(workload, seed, DEFAULT_SECONDS, quick);
    let mut layers = Layers::default();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // The engine a server would hold: default thread policy, the resident
    // flights, the index.
    let mut engine = HermesEngine::with_exec_policy(ExecPolicy::from_env());
    engine.create_dataset("data").map_err(|e| err(&e))?;
    engine
        .load_trajectories("data", plan.resident.clone())
        .map_err(|e| err(&e))?;
    let (built, build_ms) = time_ms(|| hermes_sql::execute(&mut engine, BUILD_INDEX));
    built.map_err(|e| err(&e))?;
    layers.set("retratree.build_ms", build_ms);

    let mut rng = SplitMix64::new(seed ^ 0x7ace);
    let all: Vec<&Op> = plan.conns.iter().flatten().collect();
    let mut sample: Vec<&Op> = all
        .iter()
        .copied()
        .filter(|_| quick || rng.chance(SAMPLE))
        .collect();
    if !sample.iter().any(|op| op.kind == workload.key_op()) {
        sample.extend(all.iter().copied().find(|op| op.kind == workload.key_op()));
    }

    let micro = micro_layers(&plan, &engine, &mut rng, &mut layers);
    let mut key = KeyOp::default();
    for op in &sample {
        let is_key = op.kind == workload.key_op();
        wire_request(op, &plan, &mut layers, is_key.then_some(&mut key));
        if let Some(sql) = op.reference_sql() {
            replay_read(
                sql,
                &engine,
                &micro,
                &mut layers,
                is_key.then_some(&mut key),
            )?;
        }
    }

    insert_cost(&plan, &engine, &mut layers);
    roundtrip_overhead(&plan, &mut layers)?;
    if workload == Workload::IngestDurable {
        write_path(&plan, &mut layers, &mut key)?;
    } else {
        layers.absent(&[
            "storage.wal_append_us",
            "storage.wal_fsyncs",
            "storage.wal_fsync_ms",
            "storage.wal_bytes_per_user_byte",
            "storage.snapshot_write_ms",
            "storage.snapshot_bytes_per_user_byte",
            "core.publish_ms",
            "core.publish_growth",
            "core.checkpoint_ms",
            "core.recover_ms",
        ]);
        let (_, fork_ms) = time_ms(|| engine.fork_snapshot());
        layers.set("core.fork_snapshot_ms", fork_ms);
    }
    if workload == Workload::ShardedMixed {
        coordinator_layers(&plan, &sample, &mut layers, &mut key)?;
    } else {
        layers.absent(&[
            "coord.route_overhead_ms",
            "coord.fanout_ms",
            "coord.merge_ms",
            "coord.shard_skew",
            "coord.ingest_fanout_ms",
        ]);
    }
    // Workloads without a clustering statement in the sample.
    layers.absent(&[
        "s2t.arena_build_ms",
        "s2t.voting_ms",
        "s2t.segmentation_ms",
        "s2t.sampling_ms",
        "s2t.clustering_ms",
        "s2t.pairs_evaluated",
        "s2t.pairs_pruned",
        "s2t.prune_ratio",
        "exec.parallel_efficiency",
        "retratree.qut_aligned_ms",
        "retratree.qut_border_ms",
        "retratree.reused_subchunks",
        "retratree.reclustered_subchunks",
        "retratree.loaded_subs",
        "retratree.merge_partials_ms",
        "sql.parse_us",
        "sql.execute_self_us",
        "sql.frame_rows",
        "server.encode_response_us",
        "server.decode_response_us",
    ]);
    key.shares(&mut layers);
    Ok(layers)
}

/// Where the key operation's time goes, summed over its sampled instances:
/// milliseconds by owner, all measured on one thread so they add up.
#[derive(Default)]
struct KeyOp {
    total_ms: f64,
    /// s2t + gist + trajectory: clustering compute.
    compute_ms: f64,
    storage_ms: f64,
    coord_ms: f64,
}

impl KeyOp {
    fn shares(&self, layers: &mut Layers) {
        let share = |part: f64| {
            if self.total_ms > 0.0 {
                part / self.total_ms
            } else {
                0.0
            }
        };
        layers.set("layers.key_op_compute_share", share(self.compute_ms));
        layers.set("layers.key_op_storage_share", share(self.storage_ms));
        layers.set("layers.key_op_coord_share", share(self.coord_ms));
    }
}

/// What the stand-alone kernel and probe measurements give the S2T
/// decomposition: cost per pair and per probe on this workload's data.
struct Micro {
    kernel_ns_per_pair: f64,
    probe_us: f64,
    /// Milliseconds per record of a window read (`RANGE`): index lookup
    /// plus the buffer-pool load, the storage share of a QUT.
    storage_ms_per_record: f64,
}

/// trajectory, gist and exec on their own, over (at most 800 of) the
/// workload's resident flights.
fn micro_layers(
    plan: &Plan,
    engine: &HermesEngine,
    rng: &mut SplitMix64,
    layers: &mut Layers,
) -> Micro {
    let flights = &plan.resident[..plan.resident.len().min(800)];
    let arena = SegmentArena::build(flights);
    let (index, pack_ms) = time_ms(|| PackedSegmentIndex::build(&arena));
    layers.set("gist.pack_ms", pack_ms);
    let radius = S2TParams {
        sigma: 2_000.0,
        ..S2TParams::default()
    }
    .voting_cutoff_radius();

    // One probe covers a run of consecutive segments of one trajectory, as
    // the voting loop's do; its candidates then go through the batch kernel
    // against the run's first segment.
    let tree = index.tree();
    let mut candidates: Vec<usize> = Vec::new();
    let (mut probe_ms, mut kernel_ms, mut pairs) = (0.0, 0.0, 0usize);
    let (mut x0, mut y0, mut x1, mut y1, mut t0, mut t1, mut out) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..PROBES {
        let ti = rng.index(arena.num_trajectories());
        let segments = arena.segments_of(ti);
        let first = segments.start + rng.index(segments.len().max(1));
        let run = first..(first + QUERY_RUN).min(segments.end);
        let query = run
            .clone()
            .map(|gs| arena.segment_mbb(gs))
            .reduce(|a: Mbb, b| a.union(&b))
            .expect("a run holds a segment");
        candidates.clear();
        let (_, ms) = time_ms(|| {
            tree.for_each_ball_candidate_idx(&query, radius, |item, _gap2| candidates.push(item))
        });
        probe_ms += ms;
        for lanes in [&mut x0, &mut y0, &mut x1, &mut y1] {
            lanes.clear();
        }
        t0.clear();
        t1.clear();
        for item in &candidates {
            let c = arena.lanes(*tree.value(*item) as usize);
            x0.push(c.x0);
            y0.push(c.y0);
            x1.push(c.x1);
            y1.push(c.y1);
            t0.push(c.t0);
            t1.push(c.t1);
        }
        out.clear();
        out.resize(candidates.len(), 0.0);
        let q = arena.lanes(first);
        let (_, ms) = time_ms(|| {
            mean_sync_distance_batch(&q, &x0, &y0, &x1, &y1, &t0, &t1, &mut out);
            std::hint::black_box(&out);
        });
        kernel_ms += ms;
        pairs += candidates.len();
    }
    let kernel_ns_per_pair = kernel_ms * 1e6 / pairs.max(1) as f64;
    let probe_us = probe_ms * 1e3 / PROBES as f64;
    layers.set("trajectory.kernel_ns_per_pair", kernel_ns_per_pair);
    layers.set("gist.probe_us_per_query", probe_us);
    layers.set("gist.candidates_per_probe", pairs as f64 / PROBES as f64);

    // Fork-join over tasks that do nothing: what a parallel phase pays
    // before any work.
    let exec = engine.executor();
    let tasks = [(); 64];
    let joins: Vec<f64> = (0..200)
        .map(|_| time_ms(|| std::hint::black_box(exec.map(&tasks, |i, _| i)).len()).1 * 1e3)
        .collect();
    layers.set("exec.forkjoin_overhead_us", median(&joins));

    // A full-span window read: index lookups and buffer-pool loads only.
    let tree = engine.tree("data").expect("the index was just built");
    let everything = TimeInterval::new(Timestamp(i64::MIN / 2), Timestamp(i64::MAX / 2));
    let (records, read_ms) = time_ms(|| tree.window_sub_trajectories(&everything).len());
    Micro {
        kernel_ns_per_pair,
        probe_us,
        storage_ms_per_record: read_ms / records.max(1) as f64,
    }
}

/// server: the request codec in both directions.
fn wire_request(op: &Op, plan: &Plan, layers: &mut Layers, key: Option<&mut KeyOp>) {
    let handles = vec![0; plan.templates.len()];
    let request = request_of(op, plan, &handles);
    let mut bytes = Vec::new();
    let (_, encode_ms) = time_ms(|| write_request(&mut bytes, &request));
    let (decoded, decode_ms) = time_ms(|| read_request(&mut bytes.as_slice()));
    assert!(decoded.is_ok(), "a request this process encoded decodes");
    layers.add("server.encode_request_us", encode_ms * 1e3);
    layers.add("server.decode_request_us", decode_ms * 1e3);
    if let Some(key) = key {
        key.total_ms += decode_ms;
    }
}

fn interval(wi: i64, we: i64) -> TimeInterval {
    TimeInterval::new(Timestamp(wi), Timestamp(we.max(wi)))
}

/// One read statement through sql → engine → s2t/retratree → sql → server,
/// one timed call per layer.
fn replay_read(
    sql: &str,
    engine: &HermesEngine,
    micro: &Micro,
    layers: &mut Layers,
    mut key: Option<&mut KeyOp>,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("`{sql}`: {e}");
    let (stmt, parse_ms) = time_ms(|| parse(sql));
    let stmt = stmt.map_err(|e| err(&e))?;
    layers.add("sql.parse_us", parse_ms * 1e3);
    let f = |s: &hermes_sql::Scalar| s.as_f64().map_err(|e| err(&e));
    let i = |s: &hermes_sql::Scalar| s.as_i64().map_err(|e| err(&e));
    let serial = Executor::serial();
    let threads = engine.executor().threads() as f64;

    let (frame, frame_ms): (Frame, f64) = match &stmt {
        Statement::S2T {
            sigma,
            tau,
            delta,
            min_duration_ms,
            epsilon,
            ..
        } => {
            let params = S2TParams::builder()
                .sigma(f(sigma)?)
                .tau(f(tau)?)
                .delta(f(delta)?)
                .min_duration_ms(i(min_duration_ms)?)
                .epsilon(f(epsilon)?)
                .build()
                .map_err(|e| err(&e))?;
            let (outcome, parallel_ms) = time_ms(|| engine.run_s2t("data", &params));
            let outcome = outcome.map_err(|e| err(&e))?;
            // The same run again on one thread, phase by phase, so the
            // phases add up to a total.
            let data = engine.trajectories("data").map_err(|e| err(&e))?;
            let (arena, arena_ms) = time_ms(|| SegmentArena::build(data));
            let (index, pack_ms) = time_ms(|| PackedSegmentIndex::build(&arena));
            let ((profiles, kernel), voting_ms) =
                time_ms(|| arena_voting_counted_with(&arena, &index, &params, &serial));
            let (subs, segmentation_ms) =
                time_ms(|| segment_all_with(data, &profiles, &params, &serial));
            let (representatives, sampling_ms) =
                time_ms(|| select_representatives_with(&subs, &params, &serial));
            let (_, clustering_ms) = time_ms(|| {
                cluster_around_representatives_with(&subs, &representatives, &params, &serial)
            });
            let phases =
                arena_ms + pack_ms + voting_ms + segmentation_ms + sampling_ms + clustering_ms;
            layers.add("s2t.arena_build_ms", arena_ms);
            layers.add("s2t.voting_ms", voting_ms);
            layers.add("s2t.segmentation_ms", segmentation_ms);
            layers.add("s2t.sampling_ms", sampling_ms);
            layers.add("s2t.clustering_ms", clustering_ms);
            layers.add("s2t.pairs_evaluated", kernel.evaluated as f64);
            layers.add("s2t.pairs_pruned", kernel.pruned as f64);
            layers.add(
                "s2t.prune_ratio",
                kernel.pruned as f64 / (kernel.pruned + kernel.evaluated).max(1) as f64,
            );
            layers.add("exec.parallel_efficiency", phases / (threads * parallel_ms));
            if let Some(key) = key.as_deref_mut() {
                // gist and trajectory run inside the voting call; their part
                // is the stand-alone cost times the exact counts.
                let probes = arena.num_segments().div_ceil(QUERY_RUN) as f64;
                let inside = probes * micro.probe_us / 1e3
                    + kernel.evaluated as f64 * micro.kernel_ns_per_pair / 1e6;
                eprintln!(
                    "s2t key op: arena {arena_ms:.1} pack(gist) {pack_ms:.1} voting {voting_ms:.1} \
                     (of which probe+kernel ≈ {:.1}) segmentation {segmentation_ms:.1} sampling \
                     {sampling_ms:.1} clustering {clustering_ms:.1} ms serial; {parallel_ms:.1} ms \
                     on {threads} threads",
                    inside.min(voting_ms)
                );
                key.total_ms += parse_ms + phases;
                key.compute_ms += phases;
            }
            time_ms(|| clusters_frame(&outcome.result))
        }
        Statement::Qut {
            wi,
            we,
            tau,
            delta,
            min_duration_ms,
            merge_distance,
            merge_gap_ms,
            ..
        } => {
            let w = interval(i(wi)?, i(we)?);
            let tree = engine.tree("data").map_err(|e| err(&e))?;
            let params = QutParams {
                s2t: S2TParams {
                    tau: f(tau)?,
                    delta: f(delta)?,
                    min_duration_ms: i(min_duration_ms)?,
                    ..tree.params().s2t.clone()
                },
                merge_distance: f(merge_distance)?,
                merge_gap: Duration::from_millis(i(merge_gap_ms)?),
            };
            let (answer, parallel_ms) = time_ms(|| engine.run_qut("data", &w, &params));
            let (result, stats) = answer.map_err(|e| err(&e))?;
            qut_counters(&stats, parallel_ms, layers);
            if let Some(key) = key.as_deref_mut() {
                let ((_, serial_stats), serial_ms) =
                    time_ms(|| qut_clustering_with(tree, &w, &params, &serial));
                layers.add(
                    "exec.parallel_efficiency",
                    serial_ms / (threads * parallel_ms),
                );
                let partial = qut_partial_with(tree, &OwnedSlice::ALL, &w, &params, &serial);
                let (_, merge_ms) = time_ms(|| merge_qut_partials(vec![partial], &params));
                layers.add("retratree.merge_partials_ms", merge_ms);
                let compute = serial_stats.phases.total_ms().min(serial_ms);
                let storage = (serial_stats.loaded_sub_trajectories as f64
                    * micro.storage_ms_per_record)
                    .min(serial_ms - compute);
                key.total_ms += parse_ms + serial_ms;
                key.compute_ms += compute;
                key.storage_ms += storage;
            }
            time_ms(|| clusters_frame(&result))
        }
        Statement::Histogram {
            wi, we, bucket_ms, ..
        } => {
            let w = interval(i(wi)?, i(we)?);
            let params = QutParams {
                s2t: engine
                    .tree("data")
                    .map_err(|e| err(&e))?
                    .params()
                    .s2t
                    .clone(),
                ..QutParams::default()
            };
            let (answer, ms) = time_ms(|| engine.run_qut("data", &w, &params));
            let (result, stats) = answer.map_err(|e| err(&e))?;
            qut_counters(&stats, ms, layers);
            let bucket = i(bucket_ms)?;
            time_ms(|| histogram_frame(&result, bucket))
        }
        Statement::Range { wi, we, .. } => {
            let w = interval(i(wi)?, i(we)?);
            let tree = engine.tree("data").map_err(|e| err(&e))?;
            let count = tree.window_sub_trajectories(&w).len();
            time_ms(|| range_frame(count))
        }
        Statement::Info { .. } => {
            let info = engine.dataset_info("data").map_err(|e| err(&e))?;
            time_ms(|| info_frame(&info))
        }
        other => return Err(format!("the replay has no path for `{other}`")),
    };
    layers.add("sql.execute_self_us", frame_ms * 1e3);
    layers.add("sql.frame_rows", frame.num_rows() as f64);

    let response = Response::Rows { frame, stats: None };
    let mut bytes = Vec::new();
    let (_, encode_ms) = time_ms(|| write_response(&mut bytes, &response));
    let (decoded, decode_ms) = time_ms(|| read_response(&mut bytes.as_slice()));
    assert!(decoded.is_ok(), "a response this process encoded decodes");
    layers.add("server.encode_response_us", encode_ms * 1e3);
    layers.add("server.decode_response_us", decode_ms * 1e3);
    if let Some(key) = key {
        key.total_ms += frame_ms + encode_ms;
    }
    Ok(())
}

/// retratree and s2t as one window query reports them.
fn qut_counters(stats: &QutStats, elapsed_ms: f64, layers: &mut Layers) {
    if stats.reclustered_subchunks == 0 {
        layers.add("retratree.qut_aligned_ms", elapsed_ms);
    } else {
        layers.add("retratree.qut_border_ms", elapsed_ms);
        // Work summed over the border sub-chunks' pipelines.
        layers.add("s2t.arena_build_ms", stats.phases.index_build_ms);
        layers.add("s2t.voting_ms", stats.phases.voting_ms);
        layers.add("s2t.segmentation_ms", stats.phases.segmentation_ms);
        layers.add("s2t.sampling_ms", stats.phases.sampling_ms);
        layers.add("s2t.clustering_ms", stats.phases.clustering_ms);
        layers.add("s2t.pairs_evaluated", stats.kernel.evaluated as f64);
        layers.add("s2t.pairs_pruned", stats.kernel.pruned as f64);
        layers.add(
            "s2t.prune_ratio",
            stats.kernel.pruned as f64
                / (stats.kernel.pruned + stats.kernel.evaluated).max(1) as f64,
        );
    }
    layers.add("retratree.reused_subchunks", stats.reused_subchunks as f64);
    layers.add(
        "retratree.reclustered_subchunks",
        stats.reclustered_subchunks as f64,
    );
    layers.add(
        "retratree.loaded_subs",
        stats.loaded_sub_trajectories as f64,
    );
}

/// Flights the write-path measurements insert: the plan's stream, or for a
/// read-only workload some resident flights replayed a day later.
fn new_flights(plan: &Plan, count: usize) -> Vec<Trajectory> {
    if plan.stream.len() >= count {
        return plan.stream[..count].to_vec();
    }
    plan.resident
        .iter()
        .take(count)
        .enumerate()
        .map(|(n, t)| moved(t, 86_400_000, 2_000_000 + n as u64))
        .collect()
}

/// retratree: incremental insertion into a copy of the built tree.
fn insert_cost(plan: &Plan, engine: &HermesEngine, layers: &mut Layers) {
    let mut tree = engine.tree("data").expect("the index is built").clone();
    let flights = new_flights(plan, 64);
    let (_, ms) = time_ms(|| {
        for t in &flights {
            tree.insert_trajectory(t);
        }
    });
    layers.set(
        "retratree.insert_us_per_traj",
        ms * 1e3 / flights.len() as f64,
    );
}

fn spawn_server(engine: HermesEngine) -> Result<ServerHandle, String> {
    Server::bind(
        "127.0.0.1:0",
        SharedEngine::new(engine),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .map_err(|e| format!("in-process server: {e}"))
}

/// server: a statement that costs the engine next to nothing, over loopback
/// TCP against an in-process server, minus the same statement embedded.
fn roundtrip_overhead(plan: &Plan, layers: &mut Layers) -> Result<(), String> {
    let mut engine = HermesEngine::new();
    engine.create_dataset("data").map_err(|e| e.to_string())?;
    engine
        .load_trajectories(
            "data",
            plan.resident[..plan.resident.len().min(64)].to_vec(),
        )
        .map_err(|e| e.to_string())?;
    let embedded: Vec<f64> = (0..200)
        .map(|_| time_ms(|| hermes_sql::execute(&mut engine, "SELECT INFO(data);")).1 * 1e3)
        .collect();
    let server = spawn_server(engine)?;
    let mut client = HermesClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let remote: Vec<f64> = (0..200)
        .map(|_| time_ms(|| client.query("SELECT INFO(data);")).1 * 1e3)
        .collect();
    drop(client);
    server.shutdown();
    layers.set(
        "server.roundtrip_overhead_us",
        (median(&remote) - median(&embedded)).max(0.0),
    );
    Ok(())
}

/// storage and core on the write path of `ingest_durable`: the WAL and the
/// snapshot writer on their own, then epoch publication, checkpoint and
/// recovery through a durable `SharedEngine` that grows as the run's does.
fn write_path(plan: &Plan, layers: &mut Layers, key: &mut KeyOp) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let scratch = hermes_benchmark::procs::ScratchDir::new("trace")?;
    let batches: Vec<(usize, usize)> = plan.conns[0]
        .iter()
        .filter_map(|op| match op.body {
            Body::Ingest { first, count, .. } => Some((first, count)),
            _ => None,
        })
        .collect();
    let user_bytes = |flights: &[Trajectory]| flights.iter().map(|t| 24 * t.len()).sum::<usize>();

    // The log alone, with the default policy applied by hand — sync once
    // 1 MiB is unsynced — so appends and fsyncs are timed apart.
    let (mut wal, _) = Wal::open(&scratch.path().join("probe.hlog")).map_err(|e| err(&e))?;
    wal.set_sync_interval(u64::MAX);
    let (mut unsynced, mut user, mut fsyncs) = (0u64, 0usize, 0u32);
    let before = wal.size_bytes();
    for &(first, count) in batches.iter().take(256) {
        let flights = &plan.stream[first..first + count];
        let record = hermes_core::persist::encode_wal_ingest("data", flights);
        let (size, ms) = time_ms(|| wal.append(&record));
        layers.add("storage.wal_append_us", ms * 1e3);
        let size = size.map_err(|e| err(&e))?;
        user += user_bytes(flights);
        unsynced += record.len() as u64;
        if unsynced >= 1 << 20 {
            let (synced, ms) = time_ms(|| wal.sync());
            synced.map_err(|e| err(&e))?;
            layers.add("storage.wal_fsync_ms", ms);
            fsyncs += 1;
            unsynced = 0;
        }
        layers.set(
            "storage.wal_bytes_per_user_byte",
            (size - before) as f64 / user.max(1) as f64,
        );
    }
    layers.set("storage.wal_fsyncs", f64::from(fsyncs));
    layers.absent(&["storage.wal_fsync_ms"]);
    drop(wal);

    // The engine's own write path: first round, the middle of the run in
    // one commit, last round. Every commit publishes an epoch that shares
    // the data set with the master, so the next one copies it.
    let dir = scratch.path().join("engine");
    let mut engine =
        HermesEngine::open_with_exec_policy(&dir, ExecPolicy::from_env()).map_err(|e| err(&e))?;
    engine.create_dataset("data").map_err(|e| err(&e))?;
    engine
        .load_trajectories("data", plan.resident.clone())
        .map_err(|e| err(&e))?;
    hermes_sql::execute(&mut engine, BUILD_INDEX).map_err(|e| err(&e))?;
    let shared = SharedEngine::new(engine);
    let per_round = (batches.len() / plan.rounds).max(1);
    let publish =
        |range: std::ops::Range<usize>, layers: &mut Layers| -> Result<Vec<f64>, String> {
            let mut times = Vec::new();
            for &(first, count) in &batches[range] {
                let flights = plan.stream[first..first + count].to_vec();
                let (done, ms) =
                    time_ms(|| shared.with_write(|e| e.load_trajectories("data", flights)));
                done.map_err(|e| err(&e))?;
                layers.add("core.publish_ms", ms);
                times.push(ms);
            }
            Ok(times)
        };
    let first_round = publish(0..per_round.min(batches.len()), layers)?;
    let last_start = batches.len().saturating_sub(per_round).max(per_round);
    if last_start > per_round {
        let (from, _) = batches[per_round];
        let (last, count) = batches[last_start - 1];
        let middle = plan.stream[from..last + count].to_vec();
        shared
            .with_write(|e| e.load_trajectories("data", middle))
            .map_err(|e| err(&e))?;
    }
    let last_round = publish(last_start..batches.len(), layers)?;
    let growth = if last_round.is_empty() {
        1.0
    } else {
        median(&last_round) / median(&first_round)
    };
    layers.set("core.publish_growth", growth);
    key.total_ms += first_round.iter().chain(&last_round).sum::<f64>();
    key.storage_ms +=
        layers.value("storage.wal_append_us") / 1e3 * (first_round.len() + last_round.len()) as f64;

    let (_, fork_ms) = time_ms(|| shared.pin().fork_snapshot());
    layers.set("core.fork_snapshot_ms", fork_ms);
    let (info, checkpoint_ms) = time_ms(|| shared.with_write(|e| e.checkpoint()));
    let info = info.map_err(|e| err(&e))?;
    layers.set("core.checkpoint_ms", checkpoint_ms);
    let stored: usize = shared.with_read(|e| e.trajectories("data").map(user_bytes).unwrap_or(0));
    layers.set(
        "storage.snapshot_bytes_per_user_byte",
        info.snapshot_bytes as f64 / stored.max(1) as f64,
    );
    // The snapshot writer alone, on the body the checkpoint just wrote.
    let snapshot = std::fs::read_dir(&dir)
        .map_err(|e| err(&e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "hsnap"))
        .ok_or("the checkpoint left no snapshot file")?;
    let body = read_snapshot_file(&snapshot)
        .map_err(|e| err(&e))?
        .ok_or("the snapshot file is empty")?;
    let (written, write_ms) =
        time_ms(|| write_snapshot_file(&scratch.path().join("copy.hsnap"), &body));
    written.map_err(|e| err(&e))?;
    layers.set("storage.snapshot_write_ms", write_ms);
    drop(shared);
    let (reopened, recover_ms) = time_ms(|| HermesEngine::open(&dir));
    reopened.map_err(|e| err(&e))?;
    layers.set("core.recover_ms", recover_ms);
    Ok(())
}

/// coord: the same 2 × 2 topology in process — four event-loop servers, one
/// compute thread each as in the run, and a `Coordinator` — so a spanning QUT can be taken apart: the whole
/// statement, each shard's partial asked directly, the merge alone.
fn coordinator_layers(
    plan: &Plan,
    sample: &[&Op],
    layers: &mut Layers,
    key: &mut KeyOp,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let cut = plan.cut_ms.expect("the sharded plan has a cut");
    let servers: Vec<ServerHandle> = (0..4)
        .map(|_| spawn_server(HermesEngine::with_exec_policy(ExecPolicy::serial())))
        .collect::<Result<_, _>>()?;
    let addr = |n: usize| servers[n].addr().to_string();
    let mut specs = vec![
        ShardSpec {
            name: "early".to_string(),
            addr: addr(0),
            replicas: vec![addr(1)],
            start_ms: i64::MIN,
            end_ms: cut,
        },
        ShardSpec {
            name: "late".to_string(),
            addr: addr(2),
            replicas: vec![addr(3)],
            start_ms: cut,
            end_ms: i64::MAX,
        },
    ];
    validate_shard_map(&mut specs).map_err(|e| err(&e))?;
    let coordinator = Coordinator::new(specs, ConnectOptions::default(), ExecPolicy::from_env());
    let metrics = ServerMetrics::register(&Registry::new());
    let execute = |sql: &str| -> Result<Response, String> {
        let stmt = parse(sql).map_err(|e| err(&e))?;
        match coordinator.execute(&stmt, &ForwardSpec::Query(sql), &metrics, None) {
            Response::Error { message, .. } => {
                Err(format!("`{sql}` through the coordinator: {message}"))
            }
            response => Ok(response),
        }
    };
    execute("CREATE DATASET data;")?;
    if let Response::Error { message, .. } = coordinator.ingest("data", plan.resident.clone()) {
        return Err(format!("load through the coordinator: {message}"));
    }
    execute(BUILD_INDEX)?;
    execute("CREATE DATASET live;")?;

    let mut primaries = [
        HermesClient::connect(servers[0].addr()).map_err(|e| err(&e))?,
        HermesClient::connect(servers[2].addr()).map_err(|e| err(&e))?,
    ];
    let owned = [(i64::MIN, cut), (cut, i64::MAX)];
    for op in sample {
        match (&op.body, op.kind) {
            (Body::Text(sql), OpKind::QutSpanning) => {
                let (answer, total_ms) = time_ms(|| execute(sql));
                answer?;
                let Statement::Qut {
                    wi,
                    we,
                    tau,
                    delta,
                    min_duration_ms,
                    merge_distance,
                    merge_gap_ms,
                    ..
                } = parse(sql).map_err(|e| err(&e))?
                else {
                    continue;
                };
                let number = |s: &hermes_sql::Scalar| s.as_f64().map_err(|e| err(&e));
                let window = (number(&wi)? as i64, number(&we)? as i64);
                let overrides = Some((
                    number(&tau)?,
                    number(&delta)?,
                    number(&min_duration_ms)? as i64,
                ));
                let mut partials = Vec::new();
                let mut shard_ms = Vec::new();
                for (client, owned) in primaries.iter_mut().zip(owned) {
                    let (partial, ms) =
                        time_ms(|| client.qut_partial("data", owned, window, overrides));
                    partials.push(partial.map_err(|e| err(&e))?);
                    shard_ms.push(ms);
                }
                let merge = QutParams {
                    s2t: S2TParams::default(),
                    merge_distance: number(&merge_distance)?,
                    merge_gap: Duration::from_millis(number(&merge_gap_ms)? as i64),
                };
                let (_, merge_ms) = time_ms(|| merge_qut_partials(partials, &merge));
                let slowest = shard_ms.iter().copied().fold(0.0, f64::max);
                let mean = shard_ms.iter().sum::<f64>() / shard_ms.len() as f64;
                layers.add("coord.fanout_ms", slowest);
                layers.add("coord.merge_ms", merge_ms);
                layers.add("coord.shard_skew", slowest / mean.max(f64::MIN_POSITIVE));
                key.total_ms += total_ms;
                key.coord_ms += (total_ms - slowest).max(0.0);
            }
            (Body::Text(sql), OpKind::QutInterior) => {
                let (answer, routed_ms) = time_ms(|| execute(sql));
                answer?;
                // Interior windows lie wholly on one side of the cut.
                let owner = match parse(sql).map_err(|e| err(&e))? {
                    Statement::Qut { wi, .. } => {
                        usize::from(wi.as_i64().map_err(|e| err(&e))? >= cut)
                    }
                    _ => continue,
                };
                let (direct, direct_ms) = time_ms(|| primaries[owner].query(sql));
                direct.map_err(|e| err(&e))?;
                layers.add("coord.route_overhead_ms", (routed_ms - direct_ms).max(0.0));
            }
            (Body::Ingest { first, count, .. }, _) => {
                let flights = plan.stream[*first..first + count].to_vec();
                let (_, ms) = time_ms(|| coordinator.ingest("live", flights));
                layers.add("coord.ingest_fanout_ms", ms);
            }
            _ => {}
        }
    }
    layers.absent(&[
        "coord.route_overhead_ms",
        "coord.fanout_ms",
        "coord.merge_ms",
        "coord.shard_skew",
        "coord.ingest_fanout_ms",
    ]);
    drop(primaries);
    drop(coordinator);
    for server in servers {
        server.shutdown();
    }
    Ok(())
}
