//! The ReTraTree itself: construction, incremental insertion and the
//! threshold-triggered maintenance loop of the paper's architecture (Fig. 2).

use crate::memo::{BorderMemo, EdgeMemo, MemoStats};
use crate::node::{Chunk, ClusterEntry, StoredRecords, SubChunk};
use crate::params::ReTraTreeParams;
use crate::qut::OwnedSlice;
use hermes_exec::Executor;
use hermes_s2t::{nearest_representative, run_s2t_with, trajectories_from_subs, S2TOutcome};
use hermes_storage::{PartitionKind, PartitionStore, RecordLocator};
use hermes_trajectory::{
    DistanceCounters, Duration, SubTrajectory, SubTrajectoryId, SubTrajectorySummary, TimeInterval,
    Timestamp, Trajectory,
};
use std::collections::BTreeMap;

/// Counters describing the incremental-maintenance activity of a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Trajectories inserted.
    pub inserted_trajectories: usize,
    /// Sub-trajectory pieces produced by temporal routing.
    pub inserted_pieces: usize,
    /// Pieces assigned directly to an existing representative.
    pub assigned_to_existing: usize,
    /// Pieces parked in an outlier partition.
    pub parked_as_outliers: usize,
    /// Times the S2T re-clustering pass ran on an overgrown partition.
    pub reorganizations: usize,
    /// Representatives promoted (back-propagated) by those passes.
    pub promoted_representatives: usize,
}

/// The Representative Trajectory Tree.
///
/// `Clone` copies the data and starts the copy with **empty** memos (see
/// [`crate::memo`]): the clone is a new value about to diverge, and derived
/// state belongs to the value it was derived from.
#[derive(Clone)]
pub struct ReTraTree {
    pub(crate) params: ReTraTreeParams,
    /// Level-1 chunks keyed by their start time in milliseconds.
    pub(crate) chunks: BTreeMap<i64, Chunk>,
    /// Level-4 storage shared by every partition of the tree.
    pub(crate) store: PartitionStore,
    pub(crate) stats: MaintenanceStats,
    /// Finished border partials of QuT queries against this tree value.
    /// Cleared by the two functions that change stored data
    /// ([`ReTraTree::insert_piece`], `apply_reorganization`).
    pub(crate) border_memo: BorderMemo,
    /// The merge distances between stored level-3 representatives, one
    /// sorted list per pair of sub-chunks. Same lifecycle as `border_memo`.
    pub(crate) merge_edges: EdgeMemo,
}

impl ReTraTree {
    /// Creates an empty tree. Panics if the parameters are invalid (use
    /// [`ReTraTreeParams::validate`] first when the parameters come from
    /// user input).
    pub fn new(params: ReTraTreeParams) -> Self {
        params
            .validate()
            .expect("ReTraTreeParams must be valid; validate() before constructing");
        ReTraTree::from_parts(
            params,
            BTreeMap::new(),
            PartitionStore::new(),
            MaintenanceStats::default(),
        )
    }

    /// A tree over the given stored data, its memos empty.
    pub(crate) fn from_parts(
        params: ReTraTreeParams,
        chunks: BTreeMap<i64, Chunk>,
        store: PartitionStore,
        stats: MaintenanceStats,
    ) -> Self {
        ReTraTree {
            params,
            chunks,
            store,
            stats,
            border_memo: BorderMemo::new(),
            merge_edges: EdgeMemo::new(),
        }
    }

    /// Empties both memos: the stored data is about to change in place.
    fn clear_memos(&mut self) {
        self.border_memo.clear();
        self.merge_edges.clear();
    }

    /// The construction parameters.
    pub fn params(&self) -> &ReTraTreeParams {
        &self.params
    }

    /// Maintenance counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The backing partition store (for buffer statistics in benchmarks).
    pub fn store(&self) -> &PartitionStore {
        &self.store
    }

    /// Hit/miss/eviction counters and current size of the border memo.
    pub fn border_memo_stats(&self) -> MemoStats {
        self.border_memo.stats()
    }

    /// Hit/miss/eviction counters and current size of the merge-edge memo.
    pub fn merge_edge_stats(&self) -> MemoStats {
        self.merge_edges.stats()
    }

    /// Number of level-1 chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Iterates over the chunks in temporal order.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.values()
    }

    /// Total number of stored sub-trajectory pieces.
    pub fn total_population(&self) -> usize {
        self.chunks.values().map(|c| c.population()).sum()
    }

    /// Total number of cluster entries (level 3) across the tree.
    pub fn total_clusters(&self) -> usize {
        self.chunks
            .values()
            .flat_map(|c| c.subchunks.iter())
            .map(|s| s.num_clusters())
            .sum()
    }

    /// The temporal extent covered by the stored data, if any.
    pub fn lifespan(&self) -> Option<TimeInterval> {
        let first = self.chunks.values().next()?;
        let last = self.chunks.values().last()?;
        Some(TimeInterval::new(first.interval.start, last.interval.end))
    }

    fn chunk_start_of(&self, t: Timestamp) -> i64 {
        let len = self.params.chunk_duration.millis();
        t.millis().div_euclid(len) * len
    }

    fn ensure_chunk(&mut self, start_ms: i64) {
        if self.chunks.contains_key(&start_ms) {
            return;
        }
        let chunk_len = self.params.chunk_duration.millis();
        let sub_len = self.params.subchunk_duration().millis();
        let interval = TimeInterval::new(Timestamp(start_ms), Timestamp(start_ms + chunk_len));
        let mut subchunks = Vec::with_capacity(self.params.subchunks_per_chunk);
        for i in 0..self.params.subchunks_per_chunk {
            let s = Timestamp(start_ms + i as i64 * sub_len);
            let e = Timestamp(start_ms + (i as i64 + 1) * sub_len);
            let outlier_partition = self.store.create_partition(PartitionKind::Outliers);
            subchunks.push(SubChunk::new(TimeInterval::new(s, e), outlier_partition));
        }
        self.chunks.insert(
            start_ms,
            Chunk {
                interval,
                subchunks,
            },
        );
    }

    /// Inserts a whole trajectory: it is cut at chunk and sub-chunk
    /// boundaries and each piece is routed to its sub-chunk, where it is
    /// either clustered under an existing representative or parked as an
    /// outlier. Overgrown outlier partitions trigger re-clustering.
    pub fn insert_trajectory(&mut self, traj: &Trajectory) {
        self.stats.inserted_trajectories += 1;
        let sub_len = self.params.subchunk_duration().millis();
        let start = traj.start_time().millis().div_euclid(sub_len) * sub_len;
        let end = traj.end_time().millis();

        let mut piece_seq: u32 = 0;
        let mut cursor = start;
        while cursor <= end {
            let window = TimeInterval::new(Timestamp(cursor), Timestamp(cursor + sub_len));
            if let Ok(slice) = traj.temporal_slice(&window) {
                let sub = SubTrajectory::from_points(
                    SubTrajectoryId::new(traj.id, piece_seq),
                    traj.id,
                    traj.object_id,
                    slice.points().to_vec(),
                );
                piece_seq += 1;
                self.insert_piece(sub);
            }
            cursor += sub_len;
        }
    }

    /// Inserts a sub-trajectory that must already fit inside one sub-chunk
    /// interval (callers outside this crate normally use
    /// [`ReTraTree::insert_trajectory`]).
    pub fn insert_piece(&mut self, sub: SubTrajectory) {
        self.clear_memos();
        self.stats.inserted_pieces += 1;
        let chunk_key = self.chunk_start_of(sub.start_time());
        self.ensure_chunk(chunk_key);
        let sub_len = self.params.subchunk_duration().millis();
        let sc_index = (((sub.start_time().millis() - chunk_key) / sub_len) as usize)
            .min(self.params.subchunks_per_chunk - 1);

        // Try to cluster the piece under an existing representative.
        let epsilon = self.params.s2t.epsilon;
        let chunk = self
            .chunks
            .get_mut(&chunk_key)
            .expect("chunk ensured above");
        let sc = &mut chunk.subchunks[sc_index];
        let representatives = sc.clusters.iter().map(|e| &e.representative);
        let best = nearest_representative(
            &sub,
            representatives,
            epsilon,
            &mut DistanceCounters::default(),
        );

        let summary = SubTrajectorySummary::from(&sub);
        match best {
            Some((ci, d)) => {
                let partition = sc.clusters[ci].partition;
                let loc = self
                    .store
                    .append(partition, &sub)
                    .expect("cluster partition exists");
                let chunk = self.chunks.get_mut(&chunk_key).unwrap();
                let sc = &mut chunk.subchunks[sc_index];
                sc.clusters[ci].push_member(loc, summary, d);
                self.stats.assigned_to_existing += 1;
            }
            None => {
                let partition = sc.outlier_partition;
                let loc = self
                    .store
                    .append(partition, &sub)
                    .expect("outlier partition exists");
                let chunk = self.chunks.get_mut(&chunk_key).unwrap();
                let sc = &mut chunk.subchunks[sc_index];
                sc.push_outlier(loc, summary);
                self.stats.parked_as_outliers += 1;

                // Threshold check: the paper re-runs S2T when a partition
                // outgrows its threshold.
                let pages = self
                    .store
                    .partition(partition)
                    .map(|p| p.num_pages())
                    .unwrap_or(0);
                if pages > self.params.reorg_page_threshold {
                    self.reorganize_subchunk(chunk_key, sc_index);
                }
            }
        }
    }

    /// Re-runs S2T-Clustering over the outliers of one sub-chunk, promoting
    /// new representatives and re-parking whatever remains unclustered — the
    /// Voting → Segmentation → Sampling → GreedyClustering loop of Fig. 2.
    fn reorganize_subchunk(&mut self, chunk_key: i64, sc_index: usize) {
        let outcome = self.cluster_subchunk_outliers(chunk_key, sc_index, &Executor::serial());
        self.apply_reorganization(chunk_key, sc_index, &outcome);
    }

    /// The read-only half of a reorganization: load the sub-chunk's current
    /// outliers and run S2T on them. Takes `&self` (storage reads borrow
    /// the pages and take no lock), so [`ReTraTree::reorganize_all_with`]
    /// fans these out over sub-chunks in parallel.
    fn cluster_subchunk_outliers(
        &self,
        chunk_key: i64,
        sc_index: usize,
        exec: &Executor,
    ) -> S2TOutcome {
        let sc = &self.chunks[&chunk_key].subchunks[sc_index];
        let mut outlier_subs = Vec::with_capacity(sc.outliers().len());
        self.store
            .read_run(sc.outliers(), |_, sub| outlier_subs.push(sub));
        let trajs = trajectories_from_subs(&outlier_subs);
        run_s2t_with(&trajs, &self.params.s2t, exec)
    }

    /// The mutating half of a reorganization: install the clustering computed
    /// by [`ReTraTree::cluster_subchunk_outliers`] into the sub-chunk. Always
    /// runs sequentially (it allocates partitions and appends records), so
    /// partition ids and locators come out in the same order however the
    /// clustering phase was scheduled.
    fn apply_reorganization(&mut self, chunk_key: i64, sc_index: usize, outcome: &S2TOutcome) {
        self.clear_memos();
        self.stats.reorganizations += 1;
        let old_partition = self.chunks[&chunk_key].subchunks[sc_index].outlier_partition;

        // 3. Rebuild the sub-chunk's outlier partition and add the promoted
        //    representatives with their member partitions.
        let new_outlier_partition = self.store.create_partition(PartitionKind::Outliers);
        let mut new_outliers = StoredRecords::default();
        let mut new_entries: Vec<ClusterEntry> = Vec::new();

        for cluster in &outcome.result.clusters {
            let partition = self.store.create_partition(PartitionKind::Cluster);
            // The representative's raw data is archived like any member; its
            // in-memory copy in the entry is what new insertions match against.
            let rep_loc = self
                .store
                .append(partition, &cluster.representative)
                .expect("new cluster partition exists");
            let mut members = StoredRecords::default();
            for member in &cluster.members {
                let loc = self
                    .store
                    .append(partition, member)
                    .expect("new cluster partition exists");
                members.push(loc, Some(member.into()));
            }
            self.stats.promoted_representatives += 1;
            new_entries.push(ClusterEntry::new(
                cluster.representative.clone(),
                cluster.representative_vote,
                partition,
                Some(rep_loc),
                members,
            ));
        }
        for outlier in &outcome.result.outliers {
            let loc = self
                .store
                .append(new_outlier_partition, outlier)
                .expect("new outlier partition exists");
            new_outliers.push(loc, Some(outlier.into()));
        }

        // 4. Swap the rebuilt structures into the sub-chunk, keeping the
        //    entries that were already there before this pass.
        let sc = &mut self.chunks.get_mut(&chunk_key).unwrap().subchunks[sc_index];
        sc.clusters.extend(new_entries);
        sc.replace_outliers(new_outlier_partition, new_outliers);

        // 5. Drop the old outlier partition.
        let _ = self.store.drop_partition(old_partition);
    }

    /// Loads a stored sub-trajectory by locator.
    pub fn load(&self, loc: RecordLocator) -> Option<SubTrajectory> {
        self.store.read(loc).ok().flatten()
    }

    /// The sub-chunks `owned` contains that intersect `w`, in temporal order.
    fn window_subchunks<'a>(
        &'a self,
        w: &'a TimeInterval,
        owned: &'a OwnedSlice,
    ) -> impl Iterator<Item = &'a SubChunk> + 'a {
        self.chunks
            .values()
            .filter(move |chunk| chunk.interval.intersects(w))
            .flat_map(|chunk| &chunk.subchunks)
            .filter(move |sc| sc.interval.intersects(w) && owned.contains(sc.interval.start))
    }

    /// Every stored sub-trajectory whose lifespan intersects `w`, sub-chunk by
    /// sub-chunk in temporal order, each sub-chunk's in storage order (see
    /// [`SubChunk::window_records`]). This is the "temporal range query" of
    /// the rebuild-from-scratch baseline of experiment E3.
    pub fn window_sub_trajectories(&self, w: &TimeInterval) -> Vec<SubTrajectory> {
        self.owned_window_sub_trajectories(w, &OwnedSlice::ALL)
    }

    /// [`ReTraTree::window_sub_trajectories`] restricted to the sub-chunks
    /// *owned* by `owned` (interval start inside the half-open slice). Every
    /// stored piece lives in exactly one sub-chunk, so summing the
    /// result sizes over a partition of the time axis reproduces the
    /// single-node window count exactly — the shard-side building block of a
    /// distributed RANGE query.
    pub fn owned_window_sub_trajectories(
        &self,
        w: &TimeInterval,
        owned: &OwnedSlice,
    ) -> Vec<SubTrajectory> {
        let records: Vec<RecordLocator> = self
            .window_subchunks(w, owned)
            .flat_map(|sc| sc.window_records(w))
            .collect();
        let mut subs = Vec::with_capacity(records.len());
        self.store.read_run(&records, |_, sub| subs.push(sub));
        subs
    }

    /// `owned_window_sub_trajectories(w, owned).len()` from level 3 alone:
    /// a record is counted when it has a summary, which is what "it reads"
    /// means there, so no page is looked up. What `RANGE` answers with.
    pub fn owned_window_count(&self, w: &TimeInterval, owned: &OwnedSlice) -> usize {
        self.window_subchunks(w, owned)
            .map(|sc| sc.window_count(w))
            .sum()
    }

    /// Runs the S2T re-clustering pass on every sub-chunk that currently
    /// holds at least `min_outliers` unclustered pieces, regardless of the
    /// page threshold. This is how the ReTraTree of the DMKD paper is built
    /// over an existing dataset: each temporal partition gets its own
    /// clustering, which QuT later reuses. Returns the number of sub-chunks
    /// reorganized.
    ///
    /// The per-sub-chunk S2T runs fan out on `exec`, one task each, and each
    /// S2T runs whole inside its task (a fork there runs inline).
    /// Construction is two-phase: every target sub-chunk's outliers are
    /// clustered in parallel (reads only), then the results are installed
    /// sequentially in temporal order — so partition allocation, locators
    /// and maintenance counters are identical to the serial build.
    pub fn reorganize_all_with(&mut self, min_outliers: usize, exec: &Executor) -> usize {
        let targets: Vec<(i64, usize)> = self
            .chunks
            .iter()
            .flat_map(|(&key, chunk)| {
                chunk
                    .subchunks
                    .iter()
                    .enumerate()
                    .filter(|(_, sc)| sc.outliers().len() >= min_outliers.max(1))
                    .map(move |(i, _)| (key, i))
                    .collect::<Vec<_>>()
            })
            .collect();
        let outcomes = {
            let this: &ReTraTree = self;
            exec.map(&targets, |_, &(key, sc_index)| {
                this.cluster_subchunk_outliers(key, sc_index, exec)
            })
        };
        for (&(key, sc_index), outcome) in targets.iter().zip(&outcomes) {
            self.apply_reorganization(key, sc_index, outcome);
        }
        targets.len()
    }

    /// Builds a tree over an existing dataset: every trajectory is inserted,
    /// then each populated sub-chunk is clustered (the construction algorithm
    /// of the DMKD paper). Incremental maintenance continues from there.
    pub fn build_from(params: ReTraTreeParams, trajectories: &[Trajectory]) -> Self {
        Self::build_from_with(params, trajectories, &Executor::serial())
    }

    /// [`ReTraTree::build_from`] with the bulk clustering pass fanned out on
    /// `exec`. Insertion (temporal routing) stays sequential — it is cheap
    /// and order-sensitive; the expensive per-partition S2T runs parallelize.
    /// The resulting tree is identical to the serial build.
    pub fn build_from_with(
        params: ReTraTreeParams,
        trajectories: &[Trajectory],
        exec: &Executor,
    ) -> Self {
        let mut tree = ReTraTree::new(params);
        for t in trajectories {
            tree.insert_trajectory(t);
        }
        tree.reorganize_all_with(2, exec);
        tree
    }

    /// The sub-chunk duration (exposed for window-alignment logic in QuT).
    pub fn subchunk_duration(&self) -> Duration {
        self.params.subchunk_duration()
    }
}

#[cfg(test)]
impl ReTraTree {
    /// Returns `(chunk interval, sub-chunk interval, #clusters, population)`
    /// rows describing the tree; tests compare trees by it.
    pub(crate) fn describe(&self) -> Vec<(TimeInterval, TimeInterval, usize, usize)> {
        let mut rows = Vec::new();
        for chunk in self.chunks.values() {
            for sc in &chunk.subchunks {
                rows.push((
                    chunk.interval,
                    sc.interval,
                    sc.num_clusters(),
                    sc.population(),
                ));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_s2t::S2TParams;
    use hermes_trajectory::Point;

    fn params() -> ReTraTreeParams {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(4),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 2,
            s2t: S2TParams {
                sigma: 60.0,
                epsilon: 300.0,
                min_duration_ms: 60_000,
                ..S2TParams::default()
            },
        }
    }

    /// A straight trajectory along x, offset by `y`, spanning `[t0, t0+dur]`.
    fn traj(id: u64, y: f64, t0: i64, dur_ms: i64) -> Trajectory {
        let n = 40usize;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as f64 * 100.0,
                    y,
                    Timestamp(t0 + dur_ms * i as i64 / (n as i64 - 1)),
                )
            })
            .collect();
        Trajectory::new(id, id, pts).unwrap()
    }

    #[test]
    fn trajectories_are_cut_at_subchunk_boundaries() {
        let mut tree = ReTraTree::new(params());
        // Spans two hours = two one-hour sub-chunks.
        tree.insert_trajectory(&traj(1, 0.0, 0, 2 * 3_600_000));
        assert_eq!(tree.num_chunks(), 1);
        let s = tree.stats();
        assert_eq!(s.inserted_trajectories, 1);
        assert!(
            s.inserted_pieces >= 2,
            "expected at least 2 pieces, got {}",
            s.inserted_pieces
        );
        assert_eq!(tree.total_population(), s.inserted_pieces);
    }

    #[test]
    fn chunks_are_created_per_period() {
        let mut tree = ReTraTree::new(params());
        tree.insert_trajectory(&traj(1, 0.0, 0, 3_600_000));
        tree.insert_trajectory(&traj(2, 0.0, 5 * 3_600_000, 3_600_000)); // next chunk
        assert_eq!(tree.num_chunks(), 2);
        let span = tree.lifespan().unwrap();
        assert_eq!(span.start, Timestamp(0));
        assert_eq!(span.end, Timestamp(8 * 3_600_000));
    }

    #[test]
    fn overgrown_outlier_partition_triggers_reorganization() {
        let mut tree = ReTraTree::new(params());
        // 30 co-moving trajectories in the same hour: they all land in the
        // same sub-chunk outlier partition first, overflow it, and the
        // re-clustering pass promotes a representative.
        for i in 0..30 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3_500_000));
        }
        let s = tree.stats();
        assert!(
            s.reorganizations >= 1,
            "expected at least one reorganization"
        );
        assert!(s.promoted_representatives >= 1);
        assert!(tree.total_clusters() >= 1);
        // Later, similar trajectories are assigned directly to the promoted
        // representative instead of being parked as outliers.
        let before = tree.stats().assigned_to_existing;
        tree.insert_trajectory(&traj(100, 50.0, 0, 3_500_000));
        assert!(tree.stats().assigned_to_existing > before);
    }

    #[test]
    fn window_query_returns_only_intersecting_pieces() {
        let mut tree = ReTraTree::new(params());
        tree.insert_trajectory(&traj(1, 0.0, 0, 3_600_000));
        tree.insert_trajectory(&traj(2, 0.0, 10 * 3_600_000, 3_600_000));
        let w = TimeInterval::new(Timestamp(0), Timestamp(2 * 3_600_000));
        let subs = tree.window_sub_trajectories(&w);
        assert!(!subs.is_empty());
        assert!(subs.iter().all(|s| s.trajectory_id == 1));
        let everything = tree.window_sub_trajectories(&TimeInterval::everything());
        assert_eq!(everything.len(), tree.total_population());

        // The counting walk answers what the materialising one would, per
        // ownership slice as well.
        for w in [w, TimeInterval::everything()] {
            let all = tree.window_sub_trajectories(&w).len();
            assert_eq!(tree.owned_window_count(&w, &OwnedSlice::ALL), all);
            for cut in [0, 1_800_000, 3_600_000, 11 * 3_600_000] {
                let halves = [
                    OwnedSlice::new(i64::MIN, cut),
                    OwnedSlice::new(cut, i64::MAX),
                ];
                let counts = halves.map(|owned| {
                    let n = tree.owned_window_count(&w, &owned);
                    assert_eq!(n, tree.owned_window_sub_trajectories(&w, &owned).len());
                    n
                });
                assert_eq!(counts[0] + counts[1], all, "cut {cut}");
            }
        }
    }

    #[test]
    fn describe_lists_every_subchunk() {
        let mut tree = ReTraTree::new(params());
        tree.insert_trajectory(&traj(1, 0.0, 0, 3_600_000));
        let rows = tree.describe();
        assert_eq!(rows.len(), 4, "one chunk × 4 sub-chunks");
        let populated: usize = rows.iter().map(|r| r.3).sum();
        assert_eq!(populated, tree.total_population());
    }

    #[test]
    fn parallel_build_produces_an_identical_tree() {
        let data: Vec<Trajectory> = (0..40)
            .map(|i| traj(i, i as f64 * 5.0, (i as i64 % 3) * 3_600_000, 3_500_000))
            .collect();
        let serial = ReTraTree::build_from(params(), &data);
        let exec = Executor::new(hermes_exec::ExecPolicy { threads: 4 });
        let parallel = ReTraTree::build_from_with(params(), &data, &exec);
        assert_eq!(parallel.total_population(), serial.total_population());
        assert_eq!(parallel.total_clusters(), serial.total_clusters());
        assert_eq!(parallel.stats(), serial.stats());
        assert_eq!(parallel.describe(), serial.describe());
        // The level-3 entries line up one-to-one, representative by
        // representative, partition id by partition id.
        for (sp, pp) in serial.chunks().zip(parallel.chunks()) {
            for (ss, ps) in sp.subchunks.iter().zip(pp.subchunks.iter()) {
                assert_eq!(ss.num_clusters(), ps.num_clusters());
                for (a, b) in ss.clusters.iter().zip(ps.clusters.iter()) {
                    assert_eq!(a.representative.id, b.representative.id);
                    assert_eq!(a.partition, b.partition);
                    assert_eq!(a.members(), b.members());
                }
                assert_eq!(ss.outliers(), ps.outliers());
            }
        }
    }

    #[test]
    fn build_from_is_equivalent_to_sequential_insertion() {
        let data: Vec<Trajectory> = (0..10)
            .map(|i| traj(i, i as f64 * 10.0, 0, 3_500_000))
            .collect();
        let bulk = ReTraTree::build_from(params(), &data);
        let mut seq = ReTraTree::new(params());
        for t in &data {
            seq.insert_trajectory(t);
        }
        assert_eq!(bulk.total_population(), seq.total_population());
        assert_eq!(bulk.num_chunks(), seq.num_chunks());
    }
}
