//! The node types of the four ReTraTree levels.

use hermes_storage::{PartitionId, RecordLocator};
use hermes_trajectory::{SubTrajectory, SubTrajectorySummary, TimeInterval};
use std::sync::OnceLock;

/// The records of one partition as level 3 holds them: where each is stored
/// and what a window answer says of it, slot for slot.
///
/// The summaries are derived state: a pure function of the stored records,
/// which are append-only, so one is written wherever a locator is — from the
/// sub-trajectory in hand on insertion and reorganisation, from the record's
/// header when a snapshot is decoded — and never invalidated. `None` marks a
/// record that could not be read when the tree was decoded (a tombstone, a
/// malformed record): no answer ever reports it.
#[derive(Debug, Clone, Default)]
pub struct StoredRecords {
    locators: Vec<RecordLocator>,
    summaries: Vec<Option<SubTrajectorySummary>>,
}

impl StoredRecords {
    /// Where the records are stored, in insertion order.
    pub fn locators(&self) -> &[RecordLocator] {
        &self.locators
    }

    /// The summary of each record, slot for slot with the locators.
    pub fn summaries(&self) -> &[Option<SubTrajectorySummary>] {
        &self.summaries
    }

    /// Number of records, readable or not.
    fn len(&self) -> usize {
        self.locators.len()
    }

    pub(crate) fn push(&mut self, loc: RecordLocator, summary: Option<SubTrajectorySummary>) {
        self.locators.push(loc);
        self.summaries.push(summary);
    }

    /// Each record that reads, with its lifespan.
    fn readable(&self) -> impl Iterator<Item = (RecordLocator, TimeInterval)> + '_ {
        self.locators
            .iter()
            .zip(&self.summaries)
            .filter_map(|(loc, summary)| summary.map(|s| (*loc, s.lifespan)))
    }
}

impl FromIterator<(RecordLocator, Option<SubTrajectorySummary>)> for StoredRecords {
    fn from_iter<I>(records: I) -> Self
    where
        I: IntoIterator<Item = (RecordLocator, Option<SubTrajectorySummary>)>,
    {
        let (locators, summaries) = records.into_iter().unzip();
        StoredRecords {
            locators,
            summaries,
        }
    }
}

/// Level-3 entry: one representative sub-trajectory and the partition holding
/// the members clustered around it.
#[derive(Debug, Clone)]
pub struct ClusterEntry {
    /// The representative sub-trajectory (kept in memory — this is the
    /// "in-memory part of ReTraTree" that new insertions are matched against).
    pub representative: SubTrajectory,
    /// Mean vote of the representative when it was promoted.
    pub representative_vote: f64,
    /// Partition holding the members of this cluster (level 4).
    pub partition: PartitionId,
    /// Locator of the representative's own archived copy in the partition
    /// (None for entries created before any data was archived).
    pub representative_loc: Option<RecordLocator>,
    /// Whether the archived copy reads — the representative's counterpart of
    /// a member's `Some` summary: true when the copy was just appended, read
    /// from its header when a snapshot is decoded.
    pub(crate) representative_reads: bool,
    /// The members inside the partition. Private with `member_distances` so
    /// that the two cannot come apart.
    members: StoredRecords,
    /// Derived state: the distance of each member to the representative, as
    /// a covered QuT read reports it, slot for slot with `members`. Unfilled
    /// until the first such read; a pure function of the stored records
    /// (which are append-only) and the representative, so it stays valid for
    /// the life of the entry and of its clones.
    member_distances: OnceLock<Vec<f64>>,
}

impl ClusterEntry {
    /// An entry over already stored members, its member distances unfilled
    /// and its archived representative, if any, taken to read.
    pub fn new(
        representative: SubTrajectory,
        representative_vote: f64,
        partition: PartitionId,
        representative_loc: Option<RecordLocator>,
        members: StoredRecords,
    ) -> Self {
        ClusterEntry {
            representative,
            representative_vote,
            partition,
            representative_loc,
            representative_reads: representative_loc.is_some(),
            members,
            member_distances: OnceLock::new(),
        }
    }

    /// Locators of the members inside the partition.
    pub fn members(&self) -> &[RecordLocator] {
        self.members.locators()
    }

    /// The summary of each member, slot for slot with [`Self::members`].
    pub fn member_summaries(&self) -> &[Option<SubTrajectorySummary>] {
        self.members.summaries()
    }

    /// Adds the member stored at `loc`, `distance` away from the
    /// representative. Filled distances are extended, not reset: the caller
    /// has just computed that distance to choose this entry.
    pub(crate) fn push_member(
        &mut self,
        loc: RecordLocator,
        summary: SubTrajectorySummary,
        distance: f64,
    ) {
        self.members.push(loc, Some(summary));
        if let Some(distances) = self.member_distances.get_mut() {
            distances.push(distance);
        }
    }

    /// The member distances, computed by `fill` (one value per member, in
    /// member order) if no covered read has filled them yet. Racing first
    /// readers run one `fill`; the rest wait for it.
    pub(crate) fn member_distances(&self, fill: impl FnOnce() -> Vec<f64>) -> &[f64] {
        let distances = self.member_distances.get_or_init(fill);
        debug_assert_eq!(distances.len(), self.members.len());
        distances
    }

    /// The member distances if a covered read has filled them.
    #[cfg(test)]
    pub(crate) fn filled_member_distances(&self) -> Option<&[f64]> {
        self.member_distances.get().map(Vec::as_slice)
    }

    /// Number of sub-trajectories in the cluster, counting the representative.
    pub fn size(&self) -> usize {
        self.members.len() + 1
    }

    /// The representative's lifespan (the cluster's anchor interval).
    pub fn lifespan(&self) -> TimeInterval {
        self.representative.lifespan()
    }

    /// Every record of the entry that reads — the archived representative,
    /// then the members — with its lifespan.
    fn readable(&self) -> impl Iterator<Item = (RecordLocator, TimeInterval)> + '_ {
        let representative = self
            .representative_loc
            .filter(|_| self.representative_reads)
            .map(|loc| (loc, self.lifespan()));
        representative.into_iter().chain(self.members.readable())
    }
}

/// Level-2 node: a fixed temporal sub-division of a chunk, owning its cluster
/// entries and its outlier partition. Level 3 is the sub-chunk's index: it
/// keeps the locator and the lifespan of every record stored here, so the
/// window walk ([`SubChunk::window_records`]) reads no page.
#[derive(Clone)]
pub struct SubChunk {
    /// The temporal interval this sub-chunk covers.
    pub interval: TimeInterval,
    /// Cluster entries (level 3).
    pub clusters: Vec<ClusterEntry>,
    /// The partition holding unclustered sub-trajectories.
    pub outlier_partition: PartitionId,
    /// The outliers inside the outlier partition.
    outliers: StoredRecords,
}

impl SubChunk {
    /// Creates an empty sub-chunk over `interval` with its outlier partition.
    pub fn new(interval: TimeInterval, outlier_partition: PartitionId) -> Self {
        SubChunk {
            interval,
            clusters: Vec::new(),
            outlier_partition,
            outliers: StoredRecords::default(),
        }
    }

    /// Locators of the outliers inside the outlier partition.
    pub fn outliers(&self) -> &[RecordLocator] {
        self.outliers.locators()
    }

    /// The summary of each outlier, slot for slot with [`Self::outliers`].
    pub fn outlier_summaries(&self) -> &[Option<SubTrajectorySummary>] {
        self.outliers.summaries()
    }

    /// Parks the sub-trajectory stored at `loc` as an outlier.
    pub(crate) fn push_outlier(&mut self, loc: RecordLocator, summary: SubTrajectorySummary) {
        self.outliers.push(loc, Some(summary));
    }

    /// Points the sub-chunk at a rebuilt outlier partition.
    pub(crate) fn replace_outliers(&mut self, partition: PartitionId, outliers: StoredRecords) {
        self.outlier_partition = partition;
        self.outliers = outliers;
    }

    /// Total number of sub-trajectories stored (clustered, counting each
    /// representative, + outliers).
    pub fn population(&self) -> usize {
        self.clusters.iter().map(|c| c.size()).sum::<usize>() + self.outliers.len()
    }

    /// Number of cluster entries.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The locators of the records stored here that read and whose lifespan
    /// intersects `w` — every entry's archived representative and members,
    /// and the outliers — in ascending `(partition, page, slot)`: the order
    /// they sit in storage, so a run read takes them a page at a time.
    pub fn window_records(&self, w: &TimeInterval) -> Vec<RecordLocator> {
        let mut records: Vec<RecordLocator> = self.window_walk(w).collect();
        records.sort_unstable_by_key(|loc| (loc.partition, loc.page, loc.slot));
        records
    }

    /// `window_records(w).len()`, from level 3 alone.
    pub fn window_count(&self, w: &TimeInterval) -> usize {
        self.window_walk(w).count()
    }

    fn window_walk<'a>(&'a self, w: &'a TimeInterval) -> impl Iterator<Item = RecordLocator> + 'a {
        self.clusters
            .iter()
            .flat_map(ClusterEntry::readable)
            .chain(self.outliers.readable())
            .filter(move |(_, lifespan)| lifespan.intersects(w))
            .map(|(loc, _)| loc)
    }
}

/// Level-1 node: a fixed temporal chunk containing its sub-chunks.
#[derive(Clone)]
pub struct Chunk {
    /// The temporal interval this chunk covers.
    pub interval: TimeInterval,
    /// The sub-chunks, in temporal order, jointly tiling `interval`.
    pub subchunks: Vec<SubChunk>,
}

impl Chunk {
    /// Total population over all sub-chunks.
    pub fn population(&self) -> usize {
        self.subchunks.iter().map(|s| s.population()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, SubTrajectoryId, Timestamp};

    fn sub(id: u64) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            vec![
                Point::new(0.0, 0.0, Timestamp(0)),
                Point::new(10.0, 0.0, Timestamp(60_000)),
            ],
        )
    }

    fn locator(i: u64) -> RecordLocator {
        RecordLocator {
            partition: 0,
            page: 0,
            slot: i as u16,
        }
    }

    fn summary(id: u64) -> SubTrajectorySummary {
        SubTrajectorySummary::from(&sub(id))
    }

    #[test]
    fn cluster_entry_counts_its_representative() {
        let mut e = ClusterEntry::new(sub(1), 2.5, 3, None, StoredRecords::default());
        assert_eq!(e.size(), 1);
        e.push_member(locator(0), summary(2), 1.0);
        e.push_member(locator(1), summary(3), 2.0);
        assert_eq!(e.size(), 3);
        assert_eq!(e.members(), [locator(0), locator(1)]);
        assert_eq!(e.member_summaries(), [Some(summary(2)), Some(summary(3))]);
        assert_eq!(
            e.lifespan(),
            TimeInterval::new(Timestamp(0), Timestamp(60_000))
        );
    }

    #[test]
    fn subchunk_population_sums_members_and_outliers() {
        let mut sc = SubChunk::new(TimeInterval::new(Timestamp(0), Timestamp(3_600_000)), 0);
        assert_eq!(sc.population(), 0);
        sc.clusters.push(ClusterEntry::new(
            sub(1),
            1.0,
            1,
            None,
            [(locator(0), Some(summary(2))), (locator(1), None)]
                .into_iter()
                .collect(),
        ));
        sc.push_outlier(locator(2), summary(4));
        assert_eq!(sc.population(), 4);
        assert_eq!(sc.num_clusters(), 1);
    }

    #[test]
    fn chunk_population_aggregates_subchunks() {
        let mut chunk = Chunk {
            interval: TimeInterval::new(Timestamp(0), Timestamp(7_200_000)),
            subchunks: vec![
                SubChunk::new(TimeInterval::new(Timestamp(0), Timestamp(3_600_000)), 0),
                SubChunk::new(
                    TimeInterval::new(Timestamp(3_600_000), Timestamp(7_200_000)),
                    1,
                ),
            ],
        };
        chunk.subchunks[0].push_outlier(locator(0), summary(1));
        chunk.subchunks[1].push_outlier(locator(1), summary(2));
        assert_eq!(chunk.population(), 2);
    }
}
