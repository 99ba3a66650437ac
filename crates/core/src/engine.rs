//! The [`HermesEngine`] façade.

use crate::error::EngineError;
use crate::persist::Durability;
use crate::Result;
use hermes_exec::{ExecPolicy, Executor};
use hermes_obs::{Counter, Stat};
use hermes_retratree::{
    qut_clustering_with, qut_partial_with, range_query_then_cluster_with, MemoStats, OwnedSlice,
    QutParams, QutPartial, QutResult, QutStats, ReTraTree, ReTraTreeParams,
};
use hermes_s2t::{
    run_s2t_indexed_with, run_s2t_naive_with, ClusteringResult, KernelCounters, S2TOutcome,
    S2TParams, S2TPhaseTimings, S2tIndex,
};
use hermes_storage::{Catalog, DatasetId};
use hermes_trajectory::{DistanceCounters, TimeInterval, Trajectory};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Per-dataset state held by the engine.
///
/// Every field sits behind an `Arc` so [`HermesEngine::fork_snapshot`] is a
/// reference bump per dataset rather than a deep copy; mutators go through
/// [`Arc::make_mut`], which deep-clones only when a published snapshot still
/// shares the data (copy-on-write).
#[derive(Clone)]
pub(crate) struct Dataset {
    pub(crate) trajectories: Arc<Vec<Trajectory>>,
    pub(crate) tree: Option<Arc<ReTraTree>>,
    /// The S2T segment index over `trajectories` (it depends on nothing
    /// else): built by the first `run_s2t` on this dataset value, shared by
    /// concurrent readers and by every epoch that shares the data, and
    /// replaced by a fresh, empty cell whenever `trajectories` changes
    /// ([`HermesEngine::apply_load_trajectories`] is the only such place).
    pub(crate) s2t_index: Arc<OnceLock<S2tIndex>>,
}

impl Dataset {
    pub(crate) fn new(trajectories: Vec<Trajectory>, tree: Option<ReTraTree>) -> Self {
        Dataset {
            trajectories: Arc::new(trajectories),
            tree: tree.map(Arc::new),
            s2t_index: Arc::default(),
        }
    }
}

/// Summary of a registered dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Number of trajectories loaded.
    pub num_trajectories: usize,
    /// Total number of points loaded.
    pub num_points: usize,
    /// Temporal extent of the data (None when empty).
    pub lifespan: Option<TimeInterval>,
    /// Whether a ReTraTree has been built.
    pub indexed: bool,
    /// Number of level-3 cluster entries in the ReTraTree (0 when not
    /// indexed).
    pub num_cluster_entries: usize,
}

/// Cumulative per-phase compute milliseconds, summed over every clustering
/// query the engine has answered (S2T direct or through QuT border
/// re-clustering / window rebuild). Under parallel execution per-task phase
/// times overlap in wall-clock, so these count *work*, like CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCountersMs {
    /// Segment arena + packed index construction.
    pub index_build_ms: u64,
    /// Voting phase.
    pub voting_ms: u64,
    /// Segmentation phase.
    pub segmentation_ms: u64,
    /// Sampling (representative selection) phase.
    pub sampling_ms: u64,
    /// Greedy clustering / outlier detection phase.
    pub clustering_ms: u64,
}

/// Engine-wide resource counters, aggregated over every dataset's ReTraTree
/// storage. Surfaced by `SHOW STATS` and the CLI's `\stats` so level-4
/// traffic is observable outside the benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Registered datasets.
    pub datasets: usize,
    /// Datasets with a built ReTraTree.
    pub indexed_datasets: usize,
    /// Level-4 partitions across every built index.
    pub indexed_partitions: usize,
    /// Sub-trajectory records stored across every built index.
    pub stored_records: usize,
    /// Level-4 page lookups summed over every index, including those made
    /// by readers still pinned to an older epoch of the same index.
    pub page_lookups: u64,
    /// Border-memo counters and accounted bytes summed over every index.
    pub border_memo: MemoStats,
    /// Merge-edge-memo counters and accounted bytes summed over every index.
    pub merge_edges: MemoStats,
    /// Times `run_s2t` built a dataset's segment index / found it built.
    pub s2t_index_builds: u64,
    /// See `s2t_index_builds`.
    pub s2t_index_reuses: u64,
    /// Intra-query compute threads the engine currently uses.
    pub threads: usize,
    /// Cumulative S2T pipeline phase timings across every clustering query.
    pub phases: PhaseCountersMs,
    /// Time-overlapping segment pairs the voting sweep evaluated with the
    /// exact kernel, across every clustering query (arena hot path only;
    /// the naive baseline does not count).
    pub kernel_evaluated: u64,
    /// Time-overlapping segment pairs the box gap put beyond the kernel
    /// cutoff before the exact kernel, across every clustering query.
    pub kernel_pruned: u64,
    /// Sub-trajectory distances S2T statements' sampling and clustering
    /// measured exactly, naive baseline included (QuT's border re-clustering
    /// does not count).
    pub distance_exact: u64,
    /// Sub-trajectory distances of the same statements stopped early,
    /// provably above the limit their caller passed.
    pub distance_cut_off: u64,
    /// True when the engine was opened over a data directory (snapshot + WAL
    /// durability). The three counters below are 0 when false.
    pub durable: bool,
    /// Size in bytes of the newest snapshot file (0 before the first
    /// checkpoint of a fresh data directory).
    pub snapshot_bytes: u64,
    /// Current write-ahead-log size in bytes (header included).
    pub wal_bytes: u64,
    /// Wall-clock milliseconds the most recent [`HermesEngine::checkpoint`]
    /// took (0 until one runs in this process).
    pub last_checkpoint_ms: u64,
}

/// Lock-free accumulator behind [`PhaseCountersMs`]: the clustering entry
/// points take `&self` (shared deployments answer reads concurrently under a
/// read lock), so the counters are `hermes-obs` atomics, recorded in
/// microseconds to keep sub-millisecond phases from vanishing into rounding.
/// The serving layer exports the same totals through the process-wide metrics
/// registry (`hermes_engine_phase_ms_total{phase=…}`).
#[derive(Default)]
struct PhaseAccumulator {
    index_build_us: Counter,
    voting_us: Counter,
    segmentation_us: Counter,
    sampling_us: Counter,
    clustering_us: Counter,
    /// Voting-kernel pruned-vs-evaluated counters, same lifetime and
    /// visibility as the phase totals.
    kernel_evaluated: Counter,
    kernel_pruned: Counter,
    /// Sub-trajectory distance counters of S2T statements.
    distance_exact: Counter,
    distance_cut_off: Counter,
    /// `run_s2t` calls that built / reused a dataset's segment index. Here
    /// rather than on the dataset so the totals survive the index's
    /// replacement on ingest.
    s2t_index_builds: Counter,
    s2t_index_reuses: Counter,
}

impl PhaseAccumulator {
    fn record(&self, t: &S2TPhaseTimings) {
        let us = |ms: f64| (ms * 1_000.0).max(0.0) as u64;
        self.index_build_us.add(us(t.index_build_ms));
        self.voting_us.add(us(t.voting_ms));
        self.segmentation_us.add(us(t.segmentation_ms));
        self.sampling_us.add(us(t.sampling_ms));
        self.clustering_us.add(us(t.clustering_ms));
    }

    fn record_kernel(&self, k: &KernelCounters) {
        self.kernel_evaluated.add(k.evaluated);
        self.kernel_pruned.add(k.pruned);
    }

    fn record_distances(&self, d: &DistanceCounters) {
        self.distance_exact.add(d.exact);
        self.distance_cut_off.add(d.cut_off);
    }

    fn snapshot_ms(&self) -> PhaseCountersMs {
        let ms = |c: &Counter| c.get() / 1_000;
        PhaseCountersMs {
            index_build_ms: ms(&self.index_build_us),
            voting_ms: ms(&self.voting_us),
            segmentation_ms: ms(&self.segmentation_us),
            sampling_ms: ms(&self.sampling_us),
            clustering_ms: ms(&self.clustering_us),
        }
    }
}

/// Read-only copy of the durability counters, carried by engine snapshots
/// forked off a durable master ([`HermesEngine::fork_snapshot`]). The live
/// [`Durability`] handle owns files and an advisory lock, so it cannot be
/// cloned into snapshots; this view keeps `SHOW STATS` correct on the read
/// path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DurabilityView {
    pub(crate) durable: bool,
    pub(crate) snapshot_bytes: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) last_checkpoint_ms: u64,
}

/// The Moving Object Database engine.
pub struct HermesEngine {
    pub(crate) catalog: Catalog,
    pub(crate) datasets: HashMap<DatasetId, Dataset>,
    /// Intra-query parallelism: the policy and the executor built from it.
    /// Every compute entry point (S2T, QuT, `BUILD INDEX`) fans out on this
    /// executor; serial (1 thread) means everything runs inline. Cloning the
    /// executor shares the pool, so snapshots compute on the same workers.
    exec_policy: ExecPolicy,
    exec: Executor,
    /// Cumulative per-phase compute time over every clustering query. Shared
    /// (`Arc`) across snapshots so reads answered against an older epoch
    /// still land in the same monotone totals.
    phase_totals: Arc<PhaseAccumulator>,
    /// Snapshot + WAL persistence, present when the engine was opened over a
    /// data directory ([`HermesEngine::open`]). `None` means a plain
    /// in-memory engine — every mutator skips logging. Always `None` on
    /// forked snapshots; they carry `durability_view` instead.
    pub(crate) durability: Option<Durability>,
    /// Durability counters frozen at fork time (see [`DurabilityView`]).
    pub(crate) durability_view: DurabilityView,
}

impl Default for HermesEngine {
    fn default() -> Self {
        HermesEngine::new()
    }
}

impl HermesEngine {
    /// Creates an empty engine with the deployment-default execution policy
    /// ([`ExecPolicy::from_env`]: `HERMES_THREADS`, else the machine's
    /// available parallelism).
    pub fn new() -> Self {
        HermesEngine::with_exec_policy(ExecPolicy::from_env())
    }

    /// Creates an empty engine with an explicit execution policy.
    pub fn with_exec_policy(policy: ExecPolicy) -> Self {
        HermesEngine {
            catalog: Catalog::default(),
            datasets: HashMap::new(),
            exec_policy: policy,
            exec: Executor::new(policy),
            phase_totals: Arc::new(PhaseAccumulator::default()),
            durability: None,
            durability_view: DurabilityView::default(),
        }
    }

    /// Forks an immutable point-in-time copy of this engine for the epoch
    /// read path (`SharedEngine`): catalog and per-dataset `Arc`s are
    /// reference-bumped (no trajectory or tree data is copied until a later
    /// mutation touches it), the executor handle shares the same pool, the
    /// phase totals stay the same shared accumulator, and the durability
    /// counters are frozen into a `DurabilityView` (snapshots never own
    /// the WAL or the data-directory lock).
    pub fn fork_snapshot(&self) -> HermesEngine {
        HermesEngine {
            catalog: self.catalog.clone(),
            datasets: self.datasets.clone(),
            exec_policy: self.exec_policy,
            exec: self.exec.clone(),
            phase_totals: Arc::clone(&self.phase_totals),
            durability: None,
            durability_view: self.durability_view_now(),
        }
    }

    /// The durability counters as of now: live values on a durable master,
    /// the frozen fork-time view on a snapshot, zeros in memory-only mode.
    fn durability_view_now(&self) -> DurabilityView {
        match self.durability.as_ref() {
            Some(d) => DurabilityView {
                durable: true,
                snapshot_bytes: d.snapshot_bytes,
                wal_bytes: d.wal.size_bytes(),
                last_checkpoint_ms: d.last_checkpoint_ms,
            },
            None => self.durability_view,
        }
    }

    /// The current execution policy (surfaced by `SHOW THREADS`).
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec_policy
    }

    /// The engine's executor, for callers driving the compute crates
    /// directly (benchmarks, examples).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Re-points the engine at a new execution policy (the `SET threads = N`
    /// statement). The count is validated by [`ExecPolicy::new`] (`0` and
    /// counts beyond [`ExecPolicy::MAX_THREADS`] are rejected — each pool
    /// worker is a real OS thread, so this is reachable from remote
    /// clients); an unchanged thread count keeps the existing pool (no
    /// worker churn). The new executor goes on counting the old one's jobs.
    pub fn set_exec_policy(&mut self, policy: ExecPolicy) -> Result<()> {
        let policy = ExecPolicy::new(policy.threads)
            .map_err(|m| EngineError::InvalidParameters(format!("SET {m}")))?;
        if policy.threads != self.exec_policy.threads {
            self.exec = self.exec.resized(policy);
            self.exec_policy = policy;
        }
        Ok(())
    }

    /// Registers a new, empty dataset. Durable engines log the operation to
    /// the write-ahead log once it has applied.
    pub fn create_dataset(&mut self, name: &str) -> Result<DatasetId> {
        let id = self.apply_create_dataset(name)?;
        self.log_create_dataset(name)?;
        Ok(id)
    }

    pub(crate) fn apply_create_dataset(&mut self, name: &str) -> Result<DatasetId> {
        let id = self.catalog.create(name)?;
        self.datasets.insert(id, Dataset::new(Vec::new(), None));
        Ok(id)
    }

    /// Drops a dataset and everything loaded into it (logged when durable).
    pub fn drop_dataset(&mut self, name: &str) -> Result<()> {
        self.apply_drop_dataset(name)?;
        self.log_drop_dataset(name)?;
        Ok(())
    }

    pub(crate) fn apply_drop_dataset(&mut self, name: &str) -> Result<()> {
        let meta = self.catalog.drop_dataset(name)?;
        self.datasets.remove(&meta.id);
        Ok(())
    }

    fn dataset_id(&self, name: &str) -> Result<DatasetId> {
        Ok(self.catalog.get(name)?.id)
    }

    fn dataset(&self, name: &str) -> Result<&Dataset> {
        let id = self.dataset_id(name)?;
        self.datasets
            .get(&id)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }

    /// Appends trajectories to a dataset. If the dataset is already indexed,
    /// the new trajectories are also inserted incrementally into its
    /// ReTraTree (the maintenance path of the architecture figure). Durable
    /// engines log the batch to the write-ahead log.
    pub fn load_trajectories(&mut self, name: &str, trajectories: Vec<Trajectory>) -> Result<()> {
        // Encode the record before the Vec is consumed; append it only once
        // the ingest has applied, so a rejected batch is never logged.
        let record = self
            .durability
            .is_some()
            .then(|| crate::persist::encode_wal_ingest(name, &trajectories));
        self.apply_load_trajectories(name, trajectories)?;
        if let Some(record) = record {
            self.log_record(&record)?;
        }
        Ok(())
    }

    pub(crate) fn apply_load_trajectories(
        &mut self,
        name: &str,
        trajectories: Vec<Trajectory>,
    ) -> Result<()> {
        let id = self.dataset_id(name)?;
        let ds = self
            .datasets
            .get_mut(&id)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        if let Some(tree) = ds.tree.as_mut() {
            // Copy-on-write: deep-clones the tree only while a published
            // snapshot still shares it.
            let tree = Arc::make_mut(tree);
            for t in &trajectories {
                tree.insert_trajectory(t);
            }
        }
        Arc::make_mut(&mut ds.trajectories).extend(trajectories);
        // A fresh cell, not a reset: epochs still sharing the old data keep
        // the index built over it.
        ds.s2t_index = Arc::default();

        let (num_points, lifespan) = dataset_extent(&ds.trajectories);
        let n = ds.trajectories.len();
        self.catalog.update_stats(id, n, num_points, lifespan);
        Ok(())
    }

    /// Builds (or rebuilds) the ReTraTree of a dataset, returning the number
    /// of trajectories indexed (the SQL layer reports it as the command's
    /// affected count). Durable engines log the parameters; replay re-runs
    /// the (deterministic) build, and the next checkpoint absorbs the tree
    /// into the snapshot so recovery stops paying for it.
    pub fn build_index(&mut self, name: &str, params: ReTraTreeParams) -> Result<usize> {
        let indexed = self.apply_build_index(name, params.clone())?;
        self.log_build_index(name, &params)?;
        Ok(indexed)
    }

    pub(crate) fn apply_build_index(
        &mut self,
        name: &str,
        params: ReTraTreeParams,
    ) -> Result<usize> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let id = self.dataset_id(name)?;
        let ds = self
            .datasets
            .get_mut(&id)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        if ds.trajectories.is_empty() {
            return Err(EngineError::EmptyDataset(name.to_string()));
        }
        ds.tree = Some(Arc::new(ReTraTree::build_from_with(
            params,
            &ds.trajectories,
            &self.exec,
        )));
        Ok(ds.trajectories.len())
    }

    /// Access to a dataset's ReTraTree (for statistics and benchmarks).
    pub fn tree(&self, name: &str) -> Result<&ReTraTree> {
        let ds = self.dataset(name)?;
        ds.tree
            .as_deref()
            .ok_or_else(|| EngineError::NotIndexed(name.to_string()))
    }

    /// Access to a dataset's raw trajectories.
    pub fn trajectories(&self, name: &str) -> Result<&[Trajectory]> {
        Ok(&self.dataset(name)?.trajectories)
    }

    /// Runs S2T-Clustering over the whole dataset (index-accelerated voting).
    pub fn run_s2t(&self, name: &str, params: &S2TParams) -> Result<S2TOutcome> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let ds = self.dataset(name)?;
        if ds.trajectories.is_empty() {
            return Err(EngineError::EmptyDataset(name.to_string()));
        }
        let mut built = false;
        let index = ds.s2t_index.get_or_init(|| {
            built = true;
            S2tIndex::build(&ds.trajectories)
        });
        let mut outcome = run_s2t_indexed_with(&ds.trajectories, index, params, &self.exec);
        if built {
            outcome.timings.index_build_ms = index.build_ms();
            self.phase_totals.s2t_index_builds.inc();
        } else {
            self.phase_totals.s2t_index_reuses.inc();
        }
        self.phase_totals.record(&outcome.timings);
        self.phase_totals.record_kernel(&outcome.kernel);
        self.phase_totals.record_distances(&outcome.distance);
        Ok(outcome)
    }

    /// Runs S2T-Clustering with the naive (index-free) voting — the
    /// "corresponding PostgreSQL functions" baseline of experiment E1.
    pub fn run_s2t_naive(&self, name: &str, params: &S2TParams) -> Result<S2TOutcome> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let ds = self.dataset(name)?;
        if ds.trajectories.is_empty() {
            return Err(EngineError::EmptyDataset(name.to_string()));
        }
        let outcome = run_s2t_naive_with(&ds.trajectories, params, &self.exec);
        self.phase_totals.record(&outcome.timings);
        self.phase_totals.record_distances(&outcome.distance);
        Ok(outcome)
    }

    /// Answers `QUT(D, Wi, We, …)` from the dataset's ReTraTree: clusters and
    /// outliers at sub-trajectory level, members and outliers as summaries
    /// (identity + lifespan) — what the tree's third level keeps of them.
    pub fn run_qut(
        &self,
        name: &str,
        window: &TimeInterval,
        params: &QutParams,
    ) -> Result<(QutResult, QutStats)> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let tree = self.tree(name)?;
        let (result, stats) = qut_clustering_with(tree, window, params, &self.exec);
        self.phase_totals.record(&stats.phases);
        self.phase_totals.record_kernel(&stats.kernel);
        Ok((result, stats))
    }

    /// Answers this shard's *owned* share of `QUT(D, Wi, We, …)`: every
    /// sub-chunk that intersects `window` and starts inside `owned`, without
    /// the final cross-boundary merge (the coordinator applies
    /// [`hermes_retratree::merge_qut_partials`] over all shards' partials).
    pub fn run_qut_partial(
        &self,
        name: &str,
        owned: &OwnedSlice,
        window: &TimeInterval,
        params: &QutParams,
    ) -> Result<QutPartial> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let tree = self.tree(name)?;
        let partial = qut_partial_with(tree, owned, window, params, &self.exec);
        self.phase_totals.record(&partial.stats.phases);
        self.phase_totals.record_kernel(&partial.stats.kernel);
        Ok(partial)
    }

    /// This shard's share of a distributed `RANGE` count: stored pieces whose
    /// lifespan intersects `window`, counted only in owned sub-chunks.
    pub fn owned_range_count(
        &self,
        name: &str,
        owned: &OwnedSlice,
        window: &TimeInterval,
    ) -> Result<usize> {
        Ok(self.tree(name)?.owned_window_count(window, owned))
    }

    /// The rebuild-from-scratch strategy the demo compares QuT against
    /// (temporal range query → fresh index → S2T).
    pub fn run_window_rebuild(
        &self,
        name: &str,
        window: &TimeInterval,
        params: &S2TParams,
    ) -> Result<(ClusteringResult, QutStats)> {
        params.validate().map_err(EngineError::InvalidParameters)?;
        let tree = self.tree(name)?;
        let (result, stats) = range_query_then_cluster_with(tree, window, params, &self.exec);
        self.phase_totals.record(&stats.phases);
        self.phase_totals.record_kernel(&stats.kernel);
        Ok((result, stats))
    }

    /// Summary of a dataset.
    pub fn dataset_info(&self, name: &str) -> Result<DatasetInfo> {
        let meta = self.catalog.get(name)?;
        let ds = self.dataset(name)?;
        Ok(DatasetInfo {
            name: meta.name.clone(),
            num_trajectories: meta.num_trajectories,
            num_points: meta.num_points,
            lifespan: meta.lifespan,
            indexed: ds.tree.is_some(),
            num_cluster_entries: ds.tree.as_ref().map(|t| t.total_clusters()).unwrap_or(0),
        })
    }

    /// Aggregated resource counters over every dataset.
    pub fn stats(&self) -> EngineStats {
        let view = self.durability_view_now();
        let mut stats = EngineStats {
            datasets: self.datasets.len(),
            threads: self.exec_policy.threads,
            phases: self.phase_totals.snapshot_ms(),
            kernel_evaluated: self.phase_totals.kernel_evaluated.get(),
            kernel_pruned: self.phase_totals.kernel_pruned.get(),
            distance_exact: self.phase_totals.distance_exact.get(),
            distance_cut_off: self.phase_totals.distance_cut_off.get(),
            s2t_index_builds: self.phase_totals.s2t_index_builds.get(),
            s2t_index_reuses: self.phase_totals.s2t_index_reuses.get(),
            durable: view.durable,
            snapshot_bytes: view.snapshot_bytes,
            wal_bytes: view.wal_bytes,
            last_checkpoint_ms: view.last_checkpoint_ms,
            ..EngineStats::default()
        };
        for ds in self.datasets.values() {
            let Some(tree) = ds.tree.as_ref() else {
                continue;
            };
            stats.indexed_datasets += 1;
            let store = tree.store();
            stats.indexed_partitions += store.num_partitions();
            stats.stored_records += store.total_records();
            stats.page_lookups += store.page_lookups();
            for (sum, m) in [
                (&mut stats.border_memo, tree.border_memo_stats()),
                (&mut stats.merge_edges, tree.merge_edge_stats()),
            ] {
                sum.hits += m.hits;
                sum.misses += m.misses;
                sum.evictions += m.evictions;
                sum.bytes += m.bytes;
            }
        }
        stats
    }

    /// The engine's stats table: each number's `SHOW STATS` row (scope
    /// `engine`) and its `/metrics` series, written once. `durable` has no
    /// series, and the intra-query pool's queue depth no row.
    pub fn stat_table(&self) -> Vec<Stat> {
        let s = self.stats();
        let phase = |row, phase, ms| {
            Stat::counter(
                row,
                "hermes_engine_phase_ms_total",
                "Cumulative S2T pipeline phase compute milliseconds",
                ms,
            )
            .label("phase", phase)
        };
        vec![
            Stat::gauge(
                "datasets",
                "hermes_engine_datasets",
                "Registered datasets",
                s.datasets as u64,
            ),
            Stat::gauge(
                "indexed_datasets",
                "hermes_engine_indexed_datasets",
                "Datasets with a built ReTraTree",
                s.indexed_datasets as u64,
            ),
            Stat::gauge(
                "indexed_partitions",
                "hermes_engine_indexed_partitions",
                "Level-4 partitions across every built index",
                s.indexed_partitions as u64,
            ),
            Stat::gauge(
                "stored_records",
                "hermes_engine_stored_records",
                "Sub-trajectory records stored across every built index",
                s.stored_records as u64,
            ),
            Stat::counter(
                "page_lookups",
                "hermes_storage_page_lookups_total",
                "Level-4 page lookups summed over every index",
                s.page_lookups,
            ),
            Stat::gauge(
                "threads",
                "hermes_engine_threads",
                "Intra-query compute threads the engine currently uses",
                s.threads as u64,
            ),
            // Cumulative S2T pipeline phase work across every clustering
            // query: S2T direct, QuT border re-clustering and the
            // window-rebuild baseline alike.
            phase("s2t_index_build_ms", "index_build", s.phases.index_build_ms),
            phase("s2t_voting_ms", "voting", s.phases.voting_ms),
            phase("s2t_segmentation_ms", "segmentation", s.phases.segmentation_ms),
            phase("s2t_sampling_ms", "sampling", s.phases.sampling_ms),
            phase("s2t_clustering_ms", "clustering", s.phases.clustering_ms),
            // The voting sweep's pair counts, cumulative over the same queries.
            Stat::counter(
                "kernel_evaluated",
                "hermes_engine_kernel_evaluated_total",
                "Voting-kernel candidate pairs evaluated exactly",
                s.kernel_evaluated,
            ),
            Stat::counter(
                "kernel_pruned",
                "hermes_engine_kernel_pruned_total",
                "Voting-kernel candidate pairs rejected by a distance lower bound",
                s.kernel_pruned,
            ),
            Stat::counter(
                "distance_exact",
                "hermes_engine_distance_exact_total",
                "S2T sub-trajectory distances measured to the last sample",
                s.distance_exact,
            ),
            Stat::counter(
                "distance_cut_off",
                "hermes_engine_distance_cut_off_total",
                "S2T sub-trajectory distances stopped early above their limit",
                s.distance_cut_off,
            ),
            // Derived read-path state (docs/ARCHITECTURE.md § "Derived
            // state"): the per-tree memos, and the whole-dataset S2T runs
            // that built / found the segment index.
            Stat::counter(
                "border_memo_hits",
                "hermes_retratree_border_memo_hits_total",
                "Border sub-chunks answered from the memo, summed over every index",
                s.border_memo.hits,
            ),
            Stat::counter(
                "border_memo_misses",
                "hermes_retratree_border_memo_misses_total",
                "Border sub-chunks re-clustered (pipelines run), summed over every index",
                s.border_memo.misses,
            ),
            Stat::counter(
                "border_memo_evictions",
                "hermes_retratree_border_memo_evictions_total",
                "Border partials evicted to stay inside the byte bound",
                s.border_memo.evictions,
            ),
            Stat::gauge(
                "border_memo_bytes",
                "hermes_retratree_border_memo_bytes",
                "Bytes the border memos currently account for",
                s.border_memo.bytes,
            ),
            Stat::counter(
                "merge_edge_hits",
                "hermes_retratree_merge_edge_hits_total",
                "Merge-edge lists of a sub-chunk pair answered from the memo, summed over every index",
                s.merge_edges.hits,
            ),
            Stat::counter(
                "merge_edge_misses",
                "hermes_retratree_merge_edge_misses_total",
                "Merge-edge lists measured (every pair of stored representatives), summed over every index",
                s.merge_edges.misses,
            ),
            Stat::counter(
                "merge_edge_evictions",
                "hermes_retratree_merge_edge_evictions_total",
                "Merge-edge lists evicted to stay inside the byte bound",
                s.merge_edges.evictions,
            ),
            Stat::gauge(
                "merge_edge_bytes",
                "hermes_retratree_merge_edge_bytes",
                "Bytes the merge-edge memos currently account for",
                s.merge_edges.bytes,
            ),
            Stat::counter(
                "s2t_index_builds",
                "hermes_engine_s2t_index_builds_total",
                "S2T statements that built their dataset's segment index",
                s.s2t_index_builds,
            ),
            Stat::counter(
                "s2t_index_reuses",
                "hermes_engine_s2t_index_reuses_total",
                "S2T statements that found their dataset's segment index built",
                s.s2t_index_reuses,
            ),
            // Persistence: all zero on an in-memory engine (durable = 0).
            Stat::gauge("durable", None, "", s.durable as u64),
            Stat::gauge(
                "snapshot_bytes",
                "hermes_storage_snapshot_bytes",
                "Size in bytes of the newest snapshot file",
                s.snapshot_bytes,
            ),
            Stat::gauge(
                "wal_bytes",
                "hermes_storage_wal_bytes",
                "Current write-ahead-log size in bytes",
                s.wal_bytes,
            ),
            Stat::gauge(
                "last_checkpoint_ms",
                "hermes_storage_last_checkpoint_ms",
                "Wall-clock milliseconds of the most recent checkpoint",
                s.last_checkpoint_ms,
            ),
            Stat::gauge(
                None,
                "hermes_exec_queue_depth",
                "Fork-join jobs queued on the intra-query thread pool",
                self.exec.queue_depth() as u64,
            ),
            Stat::counter(
                "exec_jobs",
                "hermes_exec_jobs_total",
                "Fork-join jobs handed to the intra-query thread pool",
                self.exec.jobs(),
            ),
        ]
    }

    /// Names of every registered dataset, sorted.
    pub fn list_datasets(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.list().map(|m| m.name.clone()).collect();
        names.sort();
        names
    }
}

fn dataset_extent(trajectories: &[Trajectory]) -> (usize, Option<TimeInterval>) {
    let num_points = trajectories.iter().map(|t| t.len()).sum();
    let lifespan = trajectories
        .iter()
        .map(|t| t.lifespan())
        .reduce(|a, b| a.union(&b));
    (num_points, lifespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Duration, Point, Timestamp};

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

    fn engine_with_data() -> HermesEngine {
        let mut e = HermesEngine::new();
        e.create_dataset("flights").unwrap();
        let mut trajs = Vec::new();
        for i in 0..10 {
            trajs.push(traj(i, i as f64 * 10.0, 0));
        }
        for i in 10..18 {
            trajs.push(traj(i, 50_000.0 + i as f64 * 10.0, 4 * 3_600_000));
        }
        e.load_trajectories("flights", trajs).unwrap();
        e
    }

    fn s2t_params() -> S2TParams {
        S2TParams {
            sigma: 60.0,
            epsilon: 400.0,
            min_duration_ms: 120_000,
            ..S2TParams::default()
        }
    }

    fn tree_params() -> ReTraTreeParams {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(4),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 2,
            s2t: s2t_params(),
        }
    }

    #[test]
    fn dataset_lifecycle() {
        let mut e = HermesEngine::new();
        e.create_dataset("a").unwrap();
        assert!(matches!(
            e.create_dataset("a"),
            Err(EngineError::DatasetExists(_))
        ));
        assert_eq!(e.list_datasets(), vec!["a".to_string()]);
        assert!(matches!(
            e.dataset_info("missing"),
            Err(EngineError::UnknownDataset(_))
        ));
        e.drop_dataset("a").unwrap();
        assert!(e.list_datasets().is_empty());
    }

    #[test]
    fn info_reflects_loaded_data_and_index() {
        let mut e = engine_with_data();
        let info = e.dataset_info("flights").unwrap();
        assert_eq!(info.num_trajectories, 18);
        assert_eq!(info.num_points, 18 * 30);
        assert!(!info.indexed);
        assert!(info.lifespan.is_some());

        e.build_index("flights", tree_params()).unwrap();
        let info = e.dataset_info("flights").unwrap();
        assert!(info.indexed);
    }

    #[test]
    fn s2t_through_the_engine() {
        let e = engine_with_data();
        let outcome = e.run_s2t("flights", &s2t_params()).unwrap();
        assert_eq!(outcome.result.num_clusters(), 2);
        let naive = e.run_s2t_naive("flights", &s2t_params()).unwrap();
        assert_eq!(naive.result.num_clusters(), 2);
        // Parameter validation is enforced.
        let mut bad = s2t_params();
        bad.sigma = -1.0;
        assert!(matches!(
            e.run_s2t("flights", &bad),
            Err(EngineError::InvalidParameters(_))
        ));
    }

    #[test]
    fn qut_requires_an_index() {
        let mut e = engine_with_data();
        let w = TimeInterval::new(Timestamp(0), Timestamp(3_600_000));
        let qp = QutParams {
            s2t: s2t_params(),
            ..QutParams::default()
        };
        assert!(matches!(
            e.run_qut("flights", &w, &qp),
            Err(EngineError::NotIndexed(_))
        ));
        e.build_index("flights", tree_params()).unwrap();
        let (result, stats) = e.run_qut("flights", &w, &qp).unwrap();
        assert!(result.num_clusters() >= 1);
        assert!(stats.loaded_sub_trajectories > 0);
        let (rebuild, _) = e.run_window_rebuild("flights", &w, &s2t_params()).unwrap();
        assert_eq!(result.num_clusters(), rebuild.num_clusters());
    }

    #[test]
    fn incremental_load_after_indexing_updates_the_tree() {
        let mut e = engine_with_data();
        e.build_index("flights", tree_params()).unwrap();
        let before = e.tree("flights").unwrap().total_population();
        e.load_trajectories("flights", vec![traj(99, 40.0, 0)])
            .unwrap();
        let after = e.tree("flights").unwrap().total_population();
        assert!(after > before);
        assert_eq!(e.dataset_info("flights").unwrap().num_trajectories, 19);
    }

    #[test]
    fn stats_aggregate_storage_counters() {
        let mut e = engine_with_data();
        let before = e.stats();
        assert_eq!(before.datasets, 1);
        assert_eq!(before.indexed_datasets, 0);
        assert_eq!(before.indexed_partitions, 0);

        e.build_index("flights", tree_params()).unwrap();
        // Touch the storage through a window query so pages are looked up.
        let built = e.stats().page_lookups;
        let w = TimeInterval::new(Timestamp(0), Timestamp(3_600_000));
        let _ = e.tree("flights").unwrap().window_sub_trajectories(&w);
        let after = e.stats();
        assert_eq!(after.indexed_datasets, 1);
        assert!(after.indexed_partitions > 0);
        assert!(after.stored_records > 0);
        assert!(after.page_lookups > built);
    }

    #[test]
    fn phase_counters_accumulate_across_queries() {
        let mut e = engine_with_data();
        assert_eq!(e.stats().phases, PhaseCountersMs::default());
        assert_eq!(e.stats().kernel_evaluated, 0);
        assert_eq!(e.stats().kernel_pruned, 0);

        // Several runs so the per-phase microsecond counts survive the
        // millisecond truncation in the snapshot.
        for _ in 0..50 {
            e.run_s2t("flights", &s2t_params()).unwrap();
        }
        // The arena hot path must have reported exact-kernel work, and the
        // counters are monotone across queries.
        assert!(
            e.stats().kernel_evaluated > 0,
            "S2T runs must evaluate kernel pairs"
        );
        let after_s2t = e.stats().phases;
        let total = after_s2t.index_build_ms
            + after_s2t.voting_ms
            + after_s2t.segmentation_ms
            + after_s2t.sampling_ms
            + after_s2t.clustering_ms;
        assert!(total > 0, "50 S2T runs must accumulate visible phase time");

        // QuT with a misaligned window re-clusters borders, adding more work.
        e.build_index("flights", tree_params()).unwrap();
        let w = TimeInterval::new(Timestamp(10 * 60_000), Timestamp(3_600_000));
        let qp = QutParams {
            s2t: s2t_params(),
            ..QutParams::default()
        };
        for _ in 0..50 {
            e.run_qut("flights", &w, &qp).unwrap();
        }
        let after_qut = e.stats().phases;
        let qut_total = after_qut.index_build_ms
            + after_qut.voting_ms
            + after_qut.segmentation_ms
            + after_qut.sampling_ms
            + after_qut.clustering_ms;
        assert!(
            qut_total >= total,
            "counters are cumulative: {qut_total} vs {total}"
        );
    }

    #[test]
    fn s2t_through_the_dataset_index_matches_the_raw_pipeline() {
        use hermes_s2t::run_s2t_with;
        let mut e = engine_with_data();
        let sets: Vec<S2TParams> = [30.0, 60.0, 90.0, 120.0]
            .into_iter()
            .flat_map(|sigma| {
                [200.0, 400.0].into_iter().map(move |epsilon| S2TParams {
                    sigma,
                    epsilon,
                    ..s2t_params()
                })
            })
            .collect();
        assert_eq!(sets.len(), 8);
        let mut builds = 0;
        for round in 0..2 {
            let raw: Vec<Trajectory> = e.trajectories("flights").unwrap().to_vec();
            builds += 1;
            for (i, p) in sets.iter().enumerate() {
                let got = e.run_s2t("flights", p).unwrap();
                let want = run_s2t_with(&raw, p, &Executor::serial());
                assert_eq!(got.profiles, want.profiles, "round {round} set {i}");
                assert_eq!(got.result, want.result, "round {round} set {i}");
                assert_eq!(got.kernel, want.kernel, "round {round} set {i}");
                // Only the statement that built the index is billed for it.
                assert_eq!(got.timings.index_build_ms == 0.0, i > 0);
            }
            let stats = e.stats();
            assert_eq!(
                stats.s2t_index_builds, builds,
                "one build per dataset value"
            );
            assert_eq!(stats.s2t_index_reuses, 7 * builds);
            // The ingest swaps in an empty cell: the next round re-builds once
            // over the grown data and must again match the raw pipeline.
            e.load_trajectories("flights", vec![traj(100 + round, 45.0, 0)])
                .unwrap();
        }
    }

    #[test]
    fn in_place_ingest_into_a_border_subchunk_is_seen_by_the_next_qut() {
        // Embedded engine, nothing published: the dataset's `Arc`s are unique,
        // so the ingest mutates the tree in place — no clone empties the memo.
        let build = || {
            let mut e = engine_with_data();
            e.build_index("flights", tree_params()).unwrap();
            e
        };
        let w = TimeInterval::new(Timestamp(10 * 60_000), Timestamp(100 * 60_000));
        let qp = QutParams {
            s2t: s2t_params(),
            ..QutParams::default()
        };
        let late = traj(77, 45.0, 12 * 60_000);

        let mut e = build();
        let (before, _) = e.run_qut("flights", &w, &qp).unwrap();
        assert!(e.stats().border_memo.bytes > 0);
        e.load_trajectories("flights", vec![late.clone()]).unwrap();
        let (after, after_stats) = e.run_qut("flights", &w, &qp).unwrap();
        assert!(after_stats.phases.total_ms() > 0.0, "the border was redone");

        // The same history without the first query never had a memo to go
        // stale.
        let mut fresh = build();
        fresh.load_trajectories("flights", vec![late]).unwrap();
        let (expected, _) = fresh.run_qut("flights", &w, &qp).unwrap();
        assert_eq!(after, expected);
        assert_ne!(after, before);
    }

    #[test]
    fn exec_policy_is_settable_and_rejects_zero() {
        let mut e = HermesEngine::with_exec_policy(ExecPolicy::serial());
        assert_eq!(e.exec_policy().threads, 1);
        assert_eq!(e.executor().threads(), 1);
        e.set_exec_policy(ExecPolicy { threads: 3 }).unwrap();
        assert_eq!(e.exec_policy().threads, 3);
        assert!(e.executor().threads() > 1);
        assert_eq!(e.stats().threads, 3);
        let err = e.set_exec_policy(ExecPolicy { threads: 0 }).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidParameters(ref m) if m.contains("positive")),
            "{err}"
        );
        // Unbounded requests are rejected too — each worker is an OS thread.
        let err = e
            .set_exec_policy(ExecPolicy { threads: 1_000_000 })
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidParameters(ref m) if m.contains("at most")),
            "{err}"
        );
        // The rejected policies left the engine untouched.
        assert_eq!(e.exec_policy().threads, 3);
    }

    #[test]
    fn parallel_engine_results_match_serial() {
        let serial = {
            let mut e = HermesEngine::with_exec_policy(ExecPolicy::serial());
            populate(&mut e);
            e
        };
        let parallel = {
            let mut e = HermesEngine::with_exec_policy(ExecPolicy { threads: 4 });
            populate(&mut e);
            e
        };
        let a = serial.run_s2t("flights", &s2t_params()).unwrap();
        let b = parallel.run_s2t("flights", &s2t_params()).unwrap();
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.result.num_clusters(), b.result.num_clusters());
        assert_eq!(a.result.num_outliers(), b.result.num_outliers());

        let w = TimeInterval::new(Timestamp(0), Timestamp(3_600_000));
        let qp = QutParams {
            s2t: s2t_params(),
            ..QutParams::default()
        };
        let (ra, sa) = serial.run_qut("flights", &w, &qp).unwrap();
        let (rb, sb) = parallel.run_qut("flights", &w, &qp).unwrap();
        assert_eq!(ra.num_clusters(), rb.num_clusters());
        assert_eq!(ra.num_outliers(), rb.num_outliers());
        assert_eq!(sa.loaded_sub_trajectories, sb.loaded_sub_trajectories);

        fn populate(e: &mut HermesEngine) {
            e.create_dataset("flights").unwrap();
            let trajs: Vec<Trajectory> = (0..14).map(|i| traj(i, i as f64 * 10.0, 0)).collect();
            e.load_trajectories("flights", trajs).unwrap();
            e.build_index("flights", tree_params()).unwrap();
        }
    }

    #[test]
    fn empty_dataset_errors() {
        let mut e = HermesEngine::new();
        e.create_dataset("empty").unwrap();
        assert!(matches!(
            e.run_s2t("empty", &s2t_params()),
            Err(EngineError::EmptyDataset(_))
        ));
        assert!(matches!(
            e.build_index("empty", tree_params()),
            Err(EngineError::EmptyDataset(_))
        ));
    }
}
