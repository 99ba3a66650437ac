//! The sub-chunk leaf index: a packed base plus a dynamic delta.
//!
//! Every ReTraTree sub-chunk keeps a pg3D-Rtree over the sub-trajectories it
//! stores, scanned by QuT border re-clustering and by temporal range
//! queries. Its access pattern is read-mostly with bulk rewrites: the whole
//! index is rebuilt on every reorganisation, and only the trickle of
//! insertions between reorganisations mutates it.
//!
//! [`LeafIndex`] exploits that shape with the classic *packed base + delta*
//! layout: reorganisation STR-packs everything into a flat
//! [`PackedRTree`] (contiguous lanes, allocation-free scans), while
//! insertions land in a
//! small incremental [`RTree3D`] delta that the next rebuild folds back into
//! the base. Queries visit the base first, then the delta, in deterministic
//! order.

use hermes_gist::{PackedRTree, RTree3D};
use hermes_storage::RecordLocator;
use hermes_trajectory::{Mbb, TimeInterval};

/// An ordered list of `(bounding box, record locator)` index entries — the
/// exchange format of [`LeafIndex::export_entries`] /
/// [`LeafIndex::import_entries`].
pub type IndexEntries = Vec<(Mbb, RecordLocator)>;

/// Hybrid packed/dynamic index over a sub-chunk's stored records.
#[derive(Clone)]
pub struct LeafIndex {
    /// STR-packed base, rebuilt wholesale on reorganisation.
    packed: PackedRTree<RecordLocator>,
    /// Incremental overlay for records inserted since the last rebuild.
    delta: RTree3D<RecordLocator>,
    /// The delta entries in insertion order — the trickle between rebuilds is
    /// small, and remembering it makes the index state exportable: a snapshot
    /// replays exactly these insertions on load, reproducing the delta tree
    /// bit for bit (see [`LeafIndex::export_entries`]).
    delta_log: Vec<(Mbb, RecordLocator)>,
}

impl Default for LeafIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl LeafIndex {
    /// An empty index.
    pub fn new() -> Self {
        LeafIndex {
            packed: PackedRTree::bulk_load(Vec::new()),
            delta: RTree3D::new(),
            delta_log: Vec::new(),
        }
    }

    /// Number of indexed records (base + delta).
    pub fn len(&self) -> usize {
        self.packed.len() + self.delta.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records in the packed base (observability/tests).
    pub fn packed_len(&self) -> usize {
        self.packed.len()
    }

    /// Records in the dynamic delta (observability/tests).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Inserts one record into the delta overlay.
    pub fn insert(&mut self, mbb: Mbb, loc: RecordLocator) {
        self.delta.insert(mbb, loc);
        self.delta_log.push((mbb, loc));
    }

    /// Replaces the whole index with an STR-packed base over `entries`
    /// (clearing the delta) — called by sub-chunk reorganisation, which
    /// rewrites every locator anyway.
    ///
    /// The entries are first put in a canonical order (ascending locator —
    /// a unique key), which makes the packed layout, and therefore every
    /// query's visit order, a pure function of the entry *set*. That is what
    /// lets a snapshot restore the base from any enumeration of its entries
    /// and still reproduce bit-identical downstream results.
    pub fn rebuild(&mut self, mut entries: Vec<(Mbb, RecordLocator)>) {
        entries.sort_by_key(|(_, loc)| (loc.partition, loc.page, loc.slot));
        self.packed = PackedRTree::bulk_load(entries);
        self.delta = RTree3D::new();
        self.delta_log = Vec::new();
    }

    /// The index state as `(base entries, delta entries)`: the packed base in
    /// lane order (any order round-trips — [`LeafIndex::rebuild`]
    /// canonicalizes) and the delta in insertion order. Feeding both to
    /// [`LeafIndex::import_entries`] reproduces an index whose every query
    /// answers in the same order as this one.
    pub fn export_entries(&self) -> (IndexEntries, IndexEntries) {
        let base = self.packed.iter().map(|(mbb, loc)| (mbb, *loc)).collect();
        (base, self.delta_log.clone())
    }

    /// Rebuilds the index from an [`LeafIndex::export_entries`] pair.
    pub fn import_entries(base: IndexEntries, delta: IndexEntries) -> Self {
        let mut index = LeafIndex::new();
        index.rebuild(base);
        for (mbb, loc) in delta {
            index.insert(mbb, loc);
        }
        index
    }

    /// Every record whose lifespan intersects the temporal window, packed
    /// base first (lane order), then delta.
    ///
    /// The order is deterministic for a given index state but differs from
    /// the retired single-`RTree3D` layout (records inserted since the last
    /// rebuild now come last instead of interleaved at tree positions).
    /// Downstream consumers — QuT border re-clustering, the rebuild
    /// baseline — are order-deterministic over whatever order this returns,
    /// so answers stay reproducible; they are simply keyed to this layout's
    /// order, as they previously were to the old tree's.
    pub fn query_temporal(&self, w: &TimeInterval) -> Vec<&RecordLocator> {
        let mut out = Vec::new();
        self.packed
            .for_each_temporal_overlap(w, |loc| out.push(loc));
        out.extend(self.delta.query_temporal(w));
        out
    }

    /// Every record whose box intersects `mbb`, packed base first.
    pub fn query_intersecting(&self, mbb: &Mbb) -> Vec<&RecordLocator> {
        let mut out = Vec::new();
        self.packed.for_each_intersecting(mbb, |loc| out.push(loc));
        out.extend(self.delta.query_intersecting(mbb));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::Timestamp;

    fn boxy(x0: f64, x1: f64, t0: i64, t1: i64) -> Mbb {
        Mbb::new(x0, x1, 0.0, 1.0, Timestamp(t0), Timestamp(t1))
    }

    fn loc(i: u64) -> RecordLocator {
        RecordLocator {
            partition: i / 100,
            page: i % 100,
            slot: i as u16,
        }
    }

    #[test]
    fn rebuild_packs_and_clears_the_delta() {
        let mut idx = LeafIndex::new();
        assert!(idx.is_empty());
        for i in 0..20 {
            idx.insert(
                boxy(i as f64, i as f64 + 1.0, i * 1_000, i * 1_000 + 500),
                loc(i as u64),
            );
        }
        assert_eq!(idx.delta_len(), 20);
        assert_eq!(idx.packed_len(), 0);

        let entries: Vec<(Mbb, RecordLocator)> = (0..20)
            .map(|i| {
                (
                    boxy(i as f64, i as f64 + 1.0, i * 1_000, i * 1_000 + 500),
                    loc(i as u64),
                )
            })
            .collect();
        idx.rebuild(entries);
        assert_eq!(idx.packed_len(), 20);
        assert_eq!(idx.delta_len(), 0);
        assert_eq!(idx.len(), 20);
    }

    #[test]
    fn queries_union_base_and_delta() {
        let entries: Vec<(Mbb, RecordLocator)> = (0..30)
            .map(|i| {
                (
                    boxy(i as f64, i as f64 + 1.0, i * 1_000, i * 1_000 + 500),
                    loc(i as u64),
                )
            })
            .collect();
        let mut idx = LeafIndex::new();
        idx.rebuild(entries);
        // Post-rebuild insertions land in the delta…
        idx.insert(boxy(5.5, 6.5, 5_200, 5_700), loc(999));
        assert_eq!(idx.delta_len(), 1);

        // …and both temporal and box queries see base and delta together.
        let w = TimeInterval::new(Timestamp(5_000), Timestamp(6_000));
        let mut hits: Vec<u64> = idx
            .query_temporal(&w)
            .iter()
            .map(|l| l.slot as u64)
            .collect();
        hits.sort_unstable();
        assert!(hits.contains(&5) && hits.contains(&(999u16 as u64)));

        let q = boxy(5.4, 5.6, 5_100, 5_800);
        let box_hits = idx.query_intersecting(&q);
        assert!(box_hits.iter().any(|l| l.slot == 999));
    }

    #[test]
    fn rebuild_is_permutation_invariant_and_export_round_trips() {
        let entries: Vec<(Mbb, RecordLocator)> = (0..40)
            .map(|i| {
                (
                    boxy(i as f64, i as f64 + 1.0, i * 500, i * 500 + 400),
                    loc(i as u64),
                )
            })
            .collect();
        let mut forward = LeafIndex::new();
        forward.rebuild(entries.clone());
        let mut reversed = LeafIndex::new();
        reversed.rebuild(entries.iter().rev().cloned().collect());

        let w = TimeInterval::new(Timestamp(3_000), Timestamp(12_000));
        let order = |idx: &LeafIndex| -> Vec<RecordLocator> {
            idx.query_temporal(&w).into_iter().copied().collect()
        };
        // The canonical sort makes the layout a function of the entry set.
        assert_eq!(order(&forward), order(&reversed));

        // Delta insertions and the base both survive an export/import cycle
        // with identical visit order.
        forward.insert(boxy(100.0, 101.0, 4_000, 4_500), loc(900));
        forward.insert(boxy(200.0, 201.0, 5_000, 5_500), loc(901));
        let (base, delta) = forward.export_entries();
        assert_eq!(base.len(), 40);
        assert_eq!(delta.len(), 2);
        let imported = LeafIndex::import_entries(base, delta);
        assert_eq!(order(&forward), order(&imported));
        assert_eq!(imported.packed_len(), forward.packed_len());
        assert_eq!(imported.delta_len(), forward.delta_len());

        let q = boxy(0.0, 300.0, 0, 20_000);
        let box_order = |idx: &LeafIndex| -> Vec<RecordLocator> {
            idx.query_intersecting(&q).into_iter().copied().collect()
        };
        assert_eq!(box_order(&forward), box_order(&imported));
    }

    #[test]
    fn empty_windows_hit_nothing() {
        let idx = LeafIndex::new();
        assert!(idx
            .query_temporal(&TimeInterval::new(Timestamp(0), Timestamp(10)))
            .is_empty());
        let mut idx = LeafIndex::new();
        idx.rebuild(
            (0..5)
                .map(|i| (boxy(i as f64, i as f64 + 1.0, 0, 100), loc(i as u64)))
                .collect(),
        );
        assert!(idx
            .query_temporal(&TimeInterval::new(Timestamp(10_000), Timestamp(20_000)))
            .is_empty());
    }
}
