//! Partitions: the on-"disk" unit of the ReTraTree's fourth level.
//!
//! Each representative sub-trajectory owns one partition holding its cluster
//! members; outliers live in a separate partition (paper, Fig. 2). The
//! [`PartitionStore`] tracks sizes so the maintenance loop can detect when a
//! partition "exceeds a pre-defined threshold" and must be re-clustered.

use crate::buffer::BufferPool;
use crate::codec::{
    decode_sub_trajectory, encode_sub_trajectory, sub_trajectory_point_count,
    sub_trajectory_summary, ByteReader, ByteWriter,
};
use crate::error::StorageError;
use crate::page::{Page, PageId, SlotId, PAGE_SIZE};
use crate::Result;
use hermes_trajectory::{SubTrajectory, SubTrajectorySummary};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a partition within a dataset.
pub type PartitionId = u64;

/// What a partition stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Members of the cluster around one representative sub-trajectory.
    Cluster,
    /// Sub-trajectories not (currently) assigned to any representative.
    Outliers,
}

/// Physical address of a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordLocator {
    /// The partition holding the record.
    pub partition: PartitionId,
    /// The page within the partition.
    pub page: PageId,
    /// The slot within the page.
    pub slot: SlotId,
}

/// Fills the real page id into an [`StorageError::InvalidSlot`] raised by a
/// [`Page`], which does not know its own id.
fn on_page(page: PageId) -> impl Fn(StorageError) -> StorageError {
    move |e| match e {
        StorageError::InvalidSlot { slot, .. } => StorageError::InvalidSlot { page, slot },
        other => other,
    }
}

/// Hands the bytes of the record in slot `loc.slot` of `page` (which must be
/// page `loc.page`) to `f`; `None` if the record was deleted.
fn record_in<R>(
    page: &Page,
    loc: RecordLocator,
    f: impl FnOnce(&[u8]) -> Result<R>,
) -> Result<Option<R>> {
    page.get(loc.slot)
        .map_err(on_page(loc.page))?
        .map(f)
        .transpose()
}

/// An append-oriented collection of pages holding encoded sub-trajectories.
///
/// Pages are shared immutable values: a clone of the partition (and a buffer
/// pool frame) holds the same `Arc<Page>`, and the only writers —
/// [`Partition::append`] and [`Partition::delete`] — go through
/// `Arc::make_mut`, which copies a page only while someone else still holds
/// it.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Identifier of this partition.
    pub id: PartitionId,
    /// Kind of content.
    pub kind: PartitionKind,
    pages: Vec<Arc<Page>>,
    live_records: usize,
}

impl Partition {
    /// Creates an empty partition.
    pub fn new(id: PartitionId, kind: PartitionKind) -> Self {
        Partition {
            id,
            kind,
            pages: vec![Arc::new(Page::new())],
            live_records: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live_records
    }

    /// True when the partition holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live_records == 0
    }

    /// Number of pages (logical size driving the re-clustering threshold).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page the next record of `len` bytes lands in: the last one, or a
    /// fresh page added behind it when the last one is full.
    fn page_for(&mut self, len: usize) -> Result<PageId> {
        if len > Page::max_record_size() {
            return Err(StorageError::RecordTooLarge {
                size: len,
                max: Page::max_record_size(),
            });
        }
        if len > self.pages[self.pages.len() - 1].free_space() {
            self.pages.push(Arc::new(Page::new()));
        }
        Ok((self.pages.len() - 1) as PageId)
    }

    /// Writes an encoded record into the page [`Partition::page_for`] chose.
    fn insert_into(&mut self, page: PageId, bytes: &[u8]) -> Result<SlotId> {
        let slot = Arc::make_mut(&mut self.pages[page as usize]).insert(bytes)?;
        self.live_records += 1;
        Ok(slot)
    }

    /// Appends a sub-trajectory, returning where it was stored.
    pub fn append(&mut self, sub: &SubTrajectory) -> Result<(PageId, SlotId)> {
        let bytes = encode_sub_trajectory(sub);
        let page = self.page_for(bytes.len())?;
        Ok((page, self.insert_into(page, &bytes)?))
    }

    /// Lends the bytes of one record; `None` if it was deleted.
    fn record(&self, page: PageId, slot: SlotId) -> Result<Option<&[u8]>> {
        self.page(page)?.get(slot).map_err(on_page(page))
    }

    /// Reads one record.
    pub fn get(&self, page: PageId, slot: SlotId) -> Result<Option<SubTrajectory>> {
        self.record(page, slot)?
            .map(decode_sub_trajectory)
            .transpose()
    }

    /// Tombstones one record; true when something was actually deleted.
    pub fn delete(&mut self, page: PageId, slot: SlotId) -> Result<bool> {
        // Checked on the shared page first: deleting nothing must not copy it.
        if self.record(page, slot)?.is_none() {
            return Ok(false);
        }
        Arc::make_mut(&mut self.pages[page as usize])
            .delete(slot)
            .map_err(on_page(page))?;
        self.live_records -= 1;
        Ok(true)
    }

    /// Decodes every live record in the partition.
    pub fn scan(&self) -> Result<Vec<SubTrajectory>> {
        let mut out = Vec::with_capacity(self.live_records);
        for page in &self.pages {
            for (_, bytes) in page.iter() {
                out.push(decode_sub_trajectory(bytes)?);
            }
        }
        Ok(out)
    }

    /// Access to a raw page (shared with the buffer pool by refcount).
    pub fn page(&self, page: PageId) -> Result<&Arc<Page>> {
        self.pages
            .get(page as usize)
            .ok_or(StorageError::InvalidPage { page })
    }
}

/// All partitions of one dataset, plus the shared buffer pool and the page
/// threshold that triggers re-clustering.
pub struct PartitionStore {
    partitions: HashMap<PartitionId, Partition>,
    next_id: PartitionId,
    /// Re-clustering threshold in pages (paper: "when the size of a partition
    /// exceeds a pre-defined threshold, S2T-Clustering takes action").
    pub page_threshold: usize,
    buffer: Arc<BufferPool<Arc<Page>>>,
}

// Manual impl: pages and frames are shared by refcount (one bump each, no
// page bytes copied), but the pool itself must NOT be the same `Arc` — a
// clone that kept writing pages under the same `(partition, page)` keys
// would feed its pages to the original's readers. The clone starts from a
// warm copy of the pool (same frames, same counters) and the two diverge
// independently; a page is copied only when one side writes it while the
// other still holds it.
impl Clone for PartitionStore {
    fn clone(&self) -> Self {
        PartitionStore {
            partitions: self.partitions.clone(),
            next_id: self.next_id,
            page_threshold: self.page_threshold,
            buffer: Arc::new((*self.buffer).clone()),
        }
    }
}

impl PartitionStore {
    /// Creates a store with the given re-clustering threshold (in pages) and
    /// buffer-pool capacity (in frames).
    pub fn new(page_threshold: usize, buffer_frames: usize) -> Self {
        PartitionStore {
            partitions: HashMap::new(),
            next_id: 0,
            page_threshold: page_threshold.max(1),
            buffer: Arc::new(BufferPool::new(buffer_frames)),
        }
    }

    /// Creates a new partition of the given kind and returns its id.
    pub fn create_partition(&mut self, kind: PartitionKind) -> PartitionId {
        let id = self.next_id;
        self.next_id += 1;
        self.partitions.insert(id, Partition::new(id, kind));
        id
    }

    /// Drops a partition entirely (used after its members are re-clustered).
    pub fn drop_partition(&mut self, id: PartitionId) -> Result<Partition> {
        self.buffer.invalidate_partition(id);
        self.partitions
            .remove(&id)
            .ok_or(StorageError::UnknownPartition { partition: id })
    }

    /// Borrow a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition> {
        self.partitions
            .get(&id)
            .ok_or(StorageError::UnknownPartition { partition: id })
    }

    /// Appends a sub-trajectory to partition `id`.
    pub fn append(&mut self, id: PartitionId, sub: &SubTrajectory) -> Result<RecordLocator> {
        let p = self
            .partitions
            .get_mut(&id)
            .ok_or(StorageError::UnknownPartition { partition: id })?;
        let bytes = encode_sub_trajectory(sub);
        let page = p.page_for(bytes.len())?;
        // Pool coherence: drop the frame *before* the write, so a buffered
        // page is uniquely owned when `make_mut` runs and is written in
        // place, then hand the pool the written page.
        self.buffer.invalidate(&(id, page));
        let slot = p.insert_into(page, &bytes)?;
        self.buffer.put((id, page), Arc::clone(p.page(page)?));
        Ok(RecordLocator {
            partition: id,
            page,
            slot,
        })
    }

    /// Looks a page up through the buffer pool (counting a hit or a miss).
    /// A page id the partition does not have fails before the pool is
    /// touched.
    fn pin(&self, partition: PartitionId, page: PageId) -> Result<Arc<Page>> {
        let backing = self.partition(partition)?.page(page)?;
        Ok(self
            .buffer
            .get_or_load((partition, page), || Arc::clone(backing)))
    }

    /// Looks a record up through the buffer pool and hands its bytes,
    /// borrowed from the page, to `f`; `None` if the record was deleted.
    fn with_record<R>(
        &self,
        loc: RecordLocator,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<Option<R>> {
        let page = self.pin(loc.partition, loc.page)?;
        record_in(&page, loc, f)
    }

    /// Reads a record through the buffer pool (counting hits/misses),
    /// decoding it straight from the page.
    pub fn read(&self, loc: RecordLocator) -> Result<Option<SubTrajectory>> {
        self.with_record(loc, decode_sub_trajectory)
    }

    /// [`PartitionStore::read`] over `locs`, in order, with one buffer-pool
    /// lookup per *run* of consecutive locators on the same page — the way a
    /// heap scan pins a page once for all the tuples it takes from it. Every
    /// slot is checked and decoded exactly as `read` does it; `f` gets the
    /// position in `locs` and the record of each locator `read` would answer
    /// `Ok(Some(_))` for, and the others (a tombstone, a slot or page the
    /// partition lacks, a malformed record) are skipped. The records of one
    /// cluster sit back to back in its partition, so reading its members
    /// this way costs a lookup per page, not per record.
    pub fn read_run(&self, locs: &[RecordLocator], mut f: impl FnMut(usize, SubTrajectory)) {
        let mut index = 0;
        for run in locs.chunk_by(|a, b| (a.partition, a.page) == (b.partition, b.page)) {
            if let Ok(page) = self.pin(run[0].partition, run[0].page) {
                for (i, loc) in run.iter().enumerate() {
                    if let Ok(Some(sub)) = record_in(&page, *loc, decode_sub_trajectory) {
                        f(index + i, sub);
                    }
                }
            }
            index += run.len();
        }
    }

    /// The number of points of the record at `loc`, checked exactly as
    /// [`PartitionStore::read`] checks it (same pool access, slot in range,
    /// not a tombstone, well-formed record) but without decoding the points.
    pub fn point_count(&self, loc: RecordLocator) -> Result<Option<usize>> {
        self.with_record(loc, sub_trajectory_point_count)
    }

    /// The summary of the record at `loc` — header, first and last timestamp
    /// — with the slot and the record checked exactly as
    /// [`PartitionStore::point_count`] checks them; no point is decoded and
    /// nothing is allocated. Read from the partition's own page, not through
    /// the buffer pool: this is what an index is rebuilt from when a snapshot
    /// opens (every record, once), not a query's access path.
    pub fn summary(&self, loc: RecordLocator) -> Result<Option<SubTrajectorySummary>> {
        let page = self.partition(loc.partition)?.page(loc.page)?;
        record_in(page, loc, sub_trajectory_summary)
    }

    /// Deletes a record.
    pub fn delete(&mut self, loc: RecordLocator) -> Result<bool> {
        let p = self
            .partitions
            .get_mut(&loc.partition)
            .ok_or(StorageError::UnknownPartition {
                partition: loc.partition,
            })?;
        // Nothing to delete: the page is not written, so its frame stays.
        if p.record(loc.page, loc.slot)?.is_none() {
            return Ok(false);
        }
        // Same coherence rule as `append`: frame out, write, page back in.
        let key = (loc.partition, loc.page);
        self.buffer.invalidate(&key);
        p.delete(loc.page, loc.slot)?;
        self.buffer.put(key, Arc::clone(p.page(loc.page)?));
        Ok(true)
    }

    /// Scans every live record of partition `id`.
    pub fn scan(&self, id: PartitionId) -> Result<Vec<SubTrajectory>> {
        self.partition(id)?.scan()
    }

    /// Ids of partitions whose page count exceeds the threshold — the
    /// candidates for the S2T re-clustering pass of the maintenance loop.
    pub fn over_threshold(&self) -> Vec<PartitionId> {
        self.partitions
            .values()
            .filter(|p| p.num_pages() > self.page_threshold)
            .map(|p| p.id)
            .collect()
    }

    /// All partition ids of a given kind.
    pub fn partitions_of_kind(&self, kind: PartitionKind) -> Vec<PartitionId> {
        self.partitions
            .values()
            .filter(|p| p.kind == kind)
            .map(|p| p.id)
            .collect()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of live records across all partitions.
    pub fn total_records(&self) -> usize {
        self.partitions.values().map(|p| p.len()).sum()
    }

    /// The shared buffer pool (for statistics reporting).
    pub fn buffer(&self) -> &Arc<BufferPool<Arc<Page>>> {
        &self.buffer
    }

    /// Serializes the store into `w`: allocation counter, then every
    /// partition sorted by id, each as `(id, kind, page count, raw page
    /// images)`. Pages go out verbatim, so every [`RecordLocator`] held by
    /// higher layers stays valid after [`PartitionStore::decode_from`]
    /// rebuilds the store. See `docs/STORAGE.md` for the normative layout.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.u64(self.next_id);
        let mut ids: Vec<PartitionId> = self.partitions.keys().copied().collect();
        ids.sort_unstable();
        w.u32(ids.len() as u32);
        for id in ids {
            let p = &self.partitions[&id];
            w.u64(p.id);
            w.u8(match p.kind {
                PartitionKind::Cluster => 0,
                PartitionKind::Outliers => 1,
            });
            w.u32(p.pages.len() as u32);
            for page in &p.pages {
                w.raw(page.as_bytes());
            }
        }
    }

    /// Rebuilds a store serialized by [`PartitionStore::encode_into`]. The
    /// buffer pool starts cold (it is a cache, not state); live-record counts
    /// are recomputed from the page images.
    pub fn decode_from(
        r: &mut ByteReader<'_>,
        page_threshold: usize,
        buffer_frames: usize,
    ) -> Result<PartitionStore> {
        let next_id = r.u64()?;
        // A partition is its id, kind and page count, then at least a page.
        let num_partitions = r.count(8 + 1 + 4 + PAGE_SIZE)?;
        let mut partitions = HashMap::with_capacity(num_partitions);
        for _ in 0..num_partitions {
            let id = r.u64()?;
            let kind = match r.u8()? {
                0 => PartitionKind::Cluster,
                1 => PartitionKind::Outliers,
                other => {
                    return Err(StorageError::Corrupt {
                        reason: format!("unknown partition kind byte {other}"),
                    })
                }
            };
            let num_pages = r.count(PAGE_SIZE)?;
            if num_pages == 0 {
                return Err(StorageError::Corrupt {
                    reason: format!("partition {id} declares zero pages"),
                });
            }
            let mut pages = Vec::with_capacity(num_pages);
            let mut live_records = 0;
            for _ in 0..num_pages {
                let page = Page::from_bytes(r.raw(PAGE_SIZE)?)?;
                live_records += page.live_records();
                pages.push(Arc::new(page));
            }
            if id >= next_id || partitions.contains_key(&id) {
                return Err(StorageError::Corrupt {
                    reason: format!("partition id {id} is duplicated or beyond the allocator"),
                });
            }
            partitions.insert(
                id,
                Partition {
                    id,
                    kind,
                    pages,
                    live_records,
                },
            );
        }
        Ok(PartitionStore {
            partitions,
            next_id,
            page_threshold: page_threshold.max(1),
            buffer: Arc::new(BufferPool::new(buffer_frames)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferStats;
    use hermes_trajectory::{Point, SubTrajectoryId, Timestamp};

    fn sub(id: u64, n: usize) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            (0..n.max(2))
                .map(|i| Point::new(i as f64, id as f64, Timestamp(i as i64 * 1000)))
                .collect(),
        )
    }

    #[test]
    fn append_read_delete_round_trip() {
        let mut store = PartitionStore::new(4, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        let loc = store.append(pid, &sub(1, 5)).unwrap();
        let back = store.read(loc).unwrap().unwrap();
        assert_eq!(back.trajectory_id, 1);
        assert_eq!(back.points().len(), 5);
        assert!(store.delete(loc).unwrap());
        assert_eq!(store.read(loc).unwrap(), None);
        assert!(!store.delete(loc).unwrap());
    }

    #[test]
    fn partition_grows_pages_and_reports_threshold() {
        let mut store = PartitionStore::new(2, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        // Each record ~32 + 200*24 ≈ 4.8 KB, so a page holds one; 40 records
        // produce well over 2 pages.
        for i in 0..40 {
            store.append(pid, &sub(i, 200)).unwrap();
        }
        assert!(store.partition(pid).unwrap().num_pages() > 2);
        assert_eq!(store.over_threshold(), vec![pid]);
        assert_eq!(store.total_records(), 40);
    }

    #[test]
    fn scan_returns_only_live_records() {
        let mut store = PartitionStore::new(8, 16);
        let pid = store.create_partition(PartitionKind::Outliers);
        let locs: Vec<_> = (0..10)
            .map(|i| store.append(pid, &sub(i, 3)).unwrap())
            .collect();
        store.delete(locs[3]).unwrap();
        store.delete(locs[7]).unwrap();
        let scanned = store.scan(pid).unwrap();
        assert_eq!(scanned.len(), 8);
        assert!(scanned
            .iter()
            .all(|s| s.trajectory_id != 3 && s.trajectory_id != 7));
    }

    #[test]
    fn unknown_partition_and_drop() {
        let mut store = PartitionStore::new(4, 16);
        assert!(matches!(
            store.scan(99),
            Err(StorageError::UnknownPartition { partition: 99 })
        ));
        let pid = store.create_partition(PartitionKind::Cluster);
        store.append(pid, &sub(1, 3)).unwrap();
        let dropped = store.drop_partition(pid).unwrap();
        assert_eq!(dropped.len(), 1);
        assert!(store.partition(pid).is_err());
    }

    #[test]
    fn kinds_are_tracked_separately() {
        let mut store = PartitionStore::new(4, 16);
        let c1 = store.create_partition(PartitionKind::Cluster);
        let c2 = store.create_partition(PartitionKind::Cluster);
        let o = store.create_partition(PartitionKind::Outliers);
        let mut clusters = store.partitions_of_kind(PartitionKind::Cluster);
        clusters.sort_unstable();
        assert_eq!(clusters, vec![c1, c2]);
        assert_eq!(store.partitions_of_kind(PartitionKind::Outliers), vec![o]);
        assert_eq!(store.num_partitions(), 3);
    }

    #[test]
    fn store_serialization_preserves_locators_and_records() {
        let mut store = PartitionStore::new(3, 16);
        let c = store.create_partition(PartitionKind::Cluster);
        let o = store.create_partition(PartitionKind::Outliers);
        let locs: Vec<_> = (0..25)
            .map(|i| {
                store
                    .append(if i % 3 == 0 { o } else { c }, &sub(i, 50))
                    .unwrap()
            })
            .collect();
        store.delete(locs[4]).unwrap();
        let dropped = store.create_partition(PartitionKind::Cluster);
        store.drop_partition(dropped).unwrap();

        let mut w = ByteWriter::new();
        store.encode_into(&mut w);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let mut back = PartitionStore::decode_from(&mut r, 3, 16).unwrap();
        assert!(r.is_empty());

        assert_eq!(back.num_partitions(), store.num_partitions());
        assert_eq!(back.total_records(), store.total_records());
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(back.read(*loc).unwrap(), store.read(*loc).unwrap(), "{i}");
        }
        // The id allocator continues past the dropped partition.
        let next = back.create_partition(PartitionKind::Cluster);
        assert_eq!(next, dropped + 1);
        // Kinds survive.
        assert_eq!(back.partitions_of_kind(PartitionKind::Outliers), vec![o]);

        // Corrupt kind bytes are rejected.
        let mut bad = buf.clone();
        let kind_off = 8 + 4 + 8; // next_id, count, first partition id
        bad[kind_off] = 9;
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            PartitionStore::decode_from(&mut r, 3, 16),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_read_of_a_page_the_partition_lacks_never_reaches_the_pool() {
        let mut store = PartitionStore::new(4, 2);
        let pid = store.create_partition(PartitionKind::Cluster);
        let other = store.create_partition(PartitionKind::Cluster);
        let loc = store.append(pid, &sub(1, 3)).unwrap();
        store.append(other, &sub(2, 3)).unwrap();
        let (len, stats) = (store.buffer().len(), store.buffer().stats());
        assert_eq!(
            len, 2,
            "the pool is full: a phantom frame would evict a real one"
        );

        let phantom = RecordLocator { page: 7, ..loc };
        assert_eq!(
            store.read(phantom),
            Err(StorageError::InvalidPage { page: 7 })
        );
        assert_eq!(
            store.point_count(phantom),
            Err(StorageError::InvalidPage { page: 7 })
        );
        assert_eq!(store.buffer().len(), len);
        assert_eq!(store.buffer().stats(), stats);
        // Both real frames are still resident.
        store.read(loc).unwrap();
        assert_eq!(store.buffer().stats().hits, stats.hits + 1);
    }

    #[test]
    fn an_invalid_slot_names_the_page_it_is_on() {
        let mut store = PartitionStore::new(1, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        // ~4.8 KB records: one per page, so the last lands on page 2.
        let locs: Vec<_> = (0..3)
            .map(|i| store.append(pid, &sub(i, 200)).unwrap())
            .collect();
        assert_eq!(locs[2].page, 2);
        let bad = RecordLocator { slot: 9, ..locs[2] };
        let expected = StorageError::InvalidSlot { page: 2, slot: 9 };
        assert_eq!(store.read(bad), Err(expected.clone()));
        assert_eq!(store.point_count(bad), Err(expected.clone()));
        assert_eq!(
            store.partition(pid).unwrap().get(2, 9),
            Err(expected.clone())
        );
        assert_eq!(store.delete(bad), Err(expected));
    }

    #[test]
    fn point_count_checks_what_read_checks() {
        let mut store = PartitionStore::new(4, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        let live = store.append(pid, &sub(1, 5)).unwrap();
        let dead = store.append(pid, &sub(2, 3)).unwrap();
        store.delete(dead).unwrap();
        store.buffer().reset_stats();
        assert_eq!(store.point_count(live), Ok(Some(5)));
        assert_eq!(store.point_count(dead), Ok(None));
        let s = store.buffer().stats();
        assert_eq!((s.hits, s.misses), (2, 0), "counted like reads");
    }

    #[test]
    fn a_summary_answers_where_a_read_answers_without_touching_the_pool() {
        let mut store = PartitionStore::new(4, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        let live = store.append(pid, &sub(1, 5)).unwrap();
        let dead = store.append(pid, &sub(2, 3)).unwrap();
        store.delete(dead).unwrap();
        // Everything `read` refuses, refused the same way.
        let bad = [
            RecordLocator { slot: 9, ..live },
            RecordLocator { page: 7, ..live },
            RecordLocator {
                partition: 99,
                ..live
            },
        ];
        let read = store.read(live).unwrap().unwrap();
        let refused = bad.map(|loc| store.read(loc).map(|_| None));
        let before = store.buffer().stats();
        assert_eq!(
            store.summary(live),
            Ok(Some(SubTrajectorySummary::from(&read)))
        );
        assert_eq!(store.summary(dead), Ok(None));
        assert_eq!(bad.map(|loc| store.summary(loc)), refused);
        assert_eq!(store.buffer().stats(), before, "not a pool access");
    }

    #[test]
    fn a_run_read_answers_what_reads_answer_with_one_lookup_per_page_run() {
        let mut store = PartitionStore::new(8, 16);
        let cluster = store.create_partition(PartitionKind::Cluster);
        let other = store.create_partition(PartitionKind::Outliers);
        // ~1 KB records: several to a page, 30 of them over a few pages.
        let mut locs: Vec<RecordLocator> = (0..30)
            .map(|i| store.append(cluster, &sub(i, 40)).unwrap())
            .collect();
        assert!(locs[29].page >= 2 && locs[1].page == 0);
        store.delete(locs[4]).unwrap();
        let page_runs = locs[29].page + 1;
        // Everything `read` refuses, in the middle of and between runs: a
        // tombstone (above), a slot past the page's directory, a page and a
        // partition that do not exist; then a second partition, and the
        // first page again (a new run: only *consecutive* locators share).
        locs.insert(
            2,
            RecordLocator {
                slot: 999,
                ..locs[0]
            },
        );
        locs.push(RecordLocator {
            page: 77,
            ..locs[0]
        });
        locs.push(RecordLocator {
            partition: 99,
            ..locs[0]
        });
        locs.push(store.append(other, &sub(100, 5)).unwrap());
        locs.push(locs[0]);

        store.buffer().reset_stats();
        let expected: Vec<(usize, SubTrajectory)> = locs
            .iter()
            .enumerate()
            .filter_map(|(i, loc)| store.read(*loc).ok().flatten().map(|sub| (i, sub)))
            .collect();
        assert_eq!(expected.len(), 29 + 2);
        let per_record = store.buffer().stats();
        // One lookup per locator whose page exists.
        assert_eq!(per_record.hits + per_record.misses, locs.len() as u64 - 2);

        store.buffer().reset_stats();
        let mut got = Vec::new();
        store.read_run(&locs, |i, sub| got.push((i, sub)));
        assert_eq!(got, expected);
        let per_run = store.buffer().stats();
        assert_eq!(per_run.hits + per_run.misses, page_runs + 2);

        store.buffer().reset_stats();
        store.read_run(&[], |_, _| unreachable!("nothing to read"));
        assert_eq!(store.buffer().stats(), BufferStats::default());
    }

    #[test]
    fn a_clone_shares_pages_until_one_side_writes() {
        let mut store = PartitionStore::new(8, 4);
        let pid = store.create_partition(PartitionKind::Cluster);
        let locs: Vec<_> = (0..4)
            .map(|i| store.append(pid, &sub(i, 200)).unwrap())
            .collect();
        let last = locs[3].page;
        assert!(last >= 2);
        let pinned = store.clone();
        let page =
            |s: &PartitionStore, p: PageId| Arc::clone(s.partition(pid).unwrap().page(p).unwrap());
        for p in 0..=last {
            assert!(Arc::ptr_eq(&page(&store, p), &page(&pinned, p)));
        }

        // A small record lands in the last page: that page alone is copied.
        let added = store.append(pid, &sub(9, 2)).unwrap();
        assert_eq!(added.page, last);
        for p in 0..last {
            assert!(Arc::ptr_eq(&page(&store, p), &page(&pinned, p)));
        }
        assert!(!Arc::ptr_eq(&page(&store, last), &page(&pinned, last)));
        assert_eq!(
            pinned.read(added),
            Err(StorageError::InvalidSlot {
                page: last,
                slot: added.slot
            })
        );
        assert_eq!(store.read(added).unwrap().unwrap().trajectory_id, 9);
        assert_eq!(pinned.read(locs[3]).unwrap(), store.read(locs[3]).unwrap());

        // Same for a delete, on the other side.
        let mut pinned = pinned;
        assert!(pinned.delete(locs[0]).unwrap());
        assert!(!Arc::ptr_eq(&page(&store, 0), &page(&pinned, 0)));
        assert_eq!(pinned.read(locs[0]).unwrap(), None);
        assert_eq!(store.read(locs[0]).unwrap().unwrap().trajectory_id, 0);
    }

    #[test]
    fn a_write_into_a_buffered_page_happens_in_place() {
        let mut store = PartitionStore::new(8, 4);
        let pid = store.create_partition(PartitionKind::Cluster);
        let first = store.append(pid, &sub(1, 3)).unwrap();
        store.read(first).unwrap(); // the page is buffered
        let page_ptr = |s: &PartitionStore| Arc::as_ptr(s.partition(pid).unwrap().page(0).unwrap());
        let before = page_ptr(&store);
        let stats = store.buffer().stats();

        let second = store.append(pid, &sub(2, 3)).unwrap();
        assert_eq!(second.page, 0);
        assert_eq!(
            page_ptr(&store),
            before,
            "append copied a page only the pool shared"
        );
        assert!(store.delete(first).unwrap());
        assert_eq!(
            page_ptr(&store),
            before,
            "delete copied a page only the pool shared"
        );
        assert!(!store.delete(first).unwrap());
        // Writes are not lookups, and the frame follows the page.
        assert_eq!(store.buffer().stats(), stats);
        assert_eq!(store.buffer().len(), 1);
        assert_eq!(store.read(first).unwrap(), None);
        assert_eq!(store.read(second).unwrap().unwrap().trajectory_id, 2);
        assert_eq!(store.buffer().stats().hits, stats.hits + 2);
    }

    #[test]
    fn buffer_pool_reports_hits_on_repeated_reads() {
        let mut store = PartitionStore::new(4, 16);
        let pid = store.create_partition(PartitionKind::Cluster);
        let loc = store.append(pid, &sub(1, 3)).unwrap();
        store.buffer().reset_stats();
        for _ in 0..5 {
            store.read(loc).unwrap();
        }
        let stats = store.buffer().stats();
        assert_eq!(stats.hits + stats.misses, 5);
        assert!(stats.hits >= 4);
    }
}
