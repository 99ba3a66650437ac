//! Derived read-path state owned by the tree value it is derived from: the
//! border-partial memo and the merge-edge memo.
//!
//! QuT pays S2T only at a window's two border sub-chunks, and what a border
//! costs is a pure function of `(tree value, sub-chunk, clipped overlap,
//! S2T parameters)`. Likewise the merge distance of two stored level-3
//! representatives is a pure function of the tree value. A
//! [`ReTraTree`](crate::ReTraTree) therefore carries two `Memo`s, one of
//! finished border partials and one of merge-edge lists. Their identity is
//! the tree value's, not an epoch number:
//!
//! * `Clone for ReTraTree` yields **empty** memos, so the copy-on-write
//!   clone `Arc::make_mut` takes before an ingest starts cold by construction;
//! * the two `&mut self` functions that change stored data (`insert_piece`,
//!   `apply_reorganization`) clear them, because a uniquely owned tree is
//!   mutated in place without a clone;
//! * otherwise entries leave only by LRU eviction against a fixed byte bound.
//!
//! There is no `invalidate()` and no epoch comparison: a memo can only ever
//! hold values of the tree that owns it. The lock guards map bookkeeping
//! only — it is never held across a computation, so two readers missing on
//! one key both compute (bit-identical results; the last insert wins).

use crate::qut::{representative_merge_distance, QutCluster};
use hermes_s2t::S2TParams;
use hermes_trajectory::{Point, SubTrajectory, SubTrajectorySummary, TimeInterval, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Upper bound on the bytes one memo of a tree accounts for. One constant,
/// no knob: the repeated windows of an interactive session need a few
/// hundred KiB to ~2 MiB of border partials, and the merge edges of a whole
/// tree at a 30-minute gap about 1 MiB.
pub const MEMO_MAX_BYTES: usize = 4 << 20;

/// A value a [`Memo`] keeps: it says how many bytes it keeps alive.
pub(crate) trait Memoized {
    fn heap_bytes(&self) -> usize;
}

/// Identity of one border partial inside a tree value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BorderKey {
    subchunk_start: i64,
    overlap: (i64, i64),
    s2t: [u64; 7],
}

impl BorderKey {
    pub(crate) fn new(subchunk_start: Timestamp, overlap: &TimeInterval, s2t: &S2TParams) -> Self {
        // Destructured exhaustively so a new S2T parameter cannot be left out
        // of the key. Floats are keyed by bit pattern: equal bits, equal run.
        let S2TParams {
            sigma,
            tau,
            delta,
            min_duration_ms,
            epsilon,
            max_representatives,
            time_weight,
        } = s2t;
        BorderKey {
            subchunk_start: subchunk_start.millis(),
            overlap: (overlap.start.millis(), overlap.end.millis()),
            s2t: [
                sigma.to_bits(),
                tau.to_bits(),
                delta.to_bits(),
                *min_duration_ms as u64,
                epsilon.to_bits(),
                *max_representatives as u64,
                time_weight.to_bits(),
            ],
        }
    }
}

/// What re-clustering one border sub-chunk produced, as a window answer
/// reports it: the clipped pieces are summarised when the partial is built.
pub(crate) struct BorderPartial {
    pub(crate) clusters: Vec<QutCluster>,
    pub(crate) outliers: Vec<SubTrajectorySummary>,
    /// Records the computation loaded from storage — replayed into
    /// `QutStats::loaded_sub_trajectories` on a hit, so that counter stays a
    /// function of (tree value, window, params) whether or not work was done.
    pub(crate) loaded: usize,
}

impl Memoized for BorderPartial {
    /// Every representative's struct and point slice, the member and outlier
    /// summaries and the distance vectors.
    fn heap_bytes(&self) -> usize {
        let clusters: usize = self
            .clusters
            .iter()
            .map(|c| {
                std::mem::size_of::<QutCluster>()
                    + c.representative.len() * std::mem::size_of::<Point>()
                    + c.members.len() * std::mem::size_of::<SubTrajectorySummary>()
                    + c.member_distances.len() * std::mem::size_of::<f64>()
            })
            .sum();
        clusters + self.outliers.len() * std::mem::size_of::<SubTrajectorySummary>()
    }
}

/// Identity of one merge-edge list: the interval starts of two sub-chunks,
/// earlier first (equal for the pairs inside one sub-chunk).
pub(crate) type EdgeKey = (i64, i64);

/// One pair of stored representatives: entry `a` of the earlier sub-chunk,
/// entry `b` of the later one, and their exact
/// [`representative_merge_distance`], measured in that order.
pub(crate) struct Edge {
    pub(crate) d: f64,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// Every pair of level-3 representatives across two sub-chunks (`a < b`
/// inside one), sorted by `(d, a, b)`, so the edges within a merge distance
/// are a prefix. A pair whose distance is NaN is left out: it never merges.
pub(crate) struct EdgeList(Box<[Edge]>);

impl EdgeList {
    /// Measures every pair of `earlier × later`, or of `earlier` with itself
    /// when `later` is `None`.
    pub(crate) fn measure(earlier: &[&SubTrajectory], later: Option<&[&SubTrajectory]>) -> Self {
        let mut edges = Vec::new();
        for (a, ra) in earlier.iter().enumerate() {
            let (skip, partners) = match later {
                Some(later) => (0, later),
                None => (a + 1, earlier),
            };
            for (b, rb) in partners.iter().enumerate().skip(skip) {
                let d = representative_merge_distance(ra, rb);
                if !d.is_nan() {
                    edges.push(Edge {
                        d,
                        a: a as u32,
                        b: b as u32,
                    });
                }
            }
        }
        edges.sort_unstable_by(|x, y| x.d.total_cmp(&y.d).then((x.a, x.b).cmp(&(y.a, y.b))));
        EdgeList(edges.into_boxed_slice())
    }

    /// The edges no longer than `merge_distance`, shortest first.
    pub(crate) fn within(&self, merge_distance: f64) -> impl Iterator<Item = &Edge> {
        self.0.iter().take_while(move |e| e.d <= merge_distance)
    }
}

impl Memoized for EdgeList {
    fn heap_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<Edge>()
    }
}

/// Counters of one kind of memo, summed over trees by `SHOW STATS` and
/// `/metrics`. `misses` is the number of values that actually had to be
/// computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from a stored value.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Values dropped to stay inside [`MEMO_MAX_BYTES`].
    pub evictions: u64,
    /// Bytes currently accounted for.
    pub bytes: u64,
}

struct Slot<V> {
    value: Arc<V>,
    bytes: usize,
    /// Tick of the last use; the slot's key in `Inner::lru`.
    used: u64,
}

struct Inner<K, V> {
    max_bytes: usize,
    slots: HashMap<K, Slot<V>>,
    /// Last-use tick → key, oldest first.
    lru: BTreeMap<u64, K>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V> Inner<K, V> {
    fn remove(&mut self, key: &K) {
        if let Some(slot) = self.slots.remove(key) {
            self.lru.remove(&slot.used);
            self.bytes -= slot.bytes;
        }
    }
}

/// A byte-bounded, `Mutex`-guarded LRU of values derived from one tree.
pub(crate) struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
}

/// The memo of finished border partials.
pub(crate) type BorderMemo = Memo<BorderKey, BorderPartial>;

/// The memo of merge-edge lists.
pub(crate) type EdgeMemo = Memo<EdgeKey, EdgeList>;

// Manual impl: a clone is a different tree value (about to diverge), so it
// keeps the cumulative counters — the exported series stay monotone across
// copy-on-write — and none of the entries.
impl<K: Copy, V> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        let g = self.lock();
        Memo {
            inner: Mutex::new(Inner {
                max_bytes: g.max_bytes,
                slots: HashMap::new(),
                lru: BTreeMap::new(),
                clock: g.clock,
                bytes: 0,
                hits: g.hits,
                misses: g.misses,
                evictions: g.evictions,
            }),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Memoized> Memo<K, V> {
    pub(crate) fn new() -> Self {
        Memo::with_max_bytes(MEMO_MAX_BYTES)
    }

    fn with_max_bytes(max_bytes: usize) -> Self {
        Memo {
            inner: Mutex::new(Inner {
                max_bytes,
                slots: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The stored value for `key`, counted as a hit, or `None`, counted as a
    /// miss (the caller then computes and [`Memo::insert`]s).
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut g = self.lock();
        let g = &mut *g;
        g.clock += 1;
        let Some(slot) = g.slots.get_mut(key) else {
            g.misses += 1;
            return None;
        };
        g.lru.remove(&slot.used);
        slot.used = g.clock;
        g.lru.insert(slot.used, *key);
        g.hits += 1;
        Some(Arc::clone(&slot.value))
    }

    /// The stored value for `key`, or `compute()`'s, stored. The lock is not
    /// held while computing.
    pub(crate) fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        self.get(&key).unwrap_or_else(|| {
            let value = Arc::new(compute());
            self.insert(key, Arc::clone(&value));
            value
        })
    }

    /// Stores a freshly computed value, evicting least recently used ones
    /// while the accounted bytes exceed the bound. A value larger than the
    /// whole bound is not stored. A value is accounted as its own bytes plus
    /// its slot and key.
    pub(crate) fn insert(&self, key: K, value: Arc<V>) {
        let bytes = value.heap_bytes() + std::mem::size_of::<Slot<V>>() + std::mem::size_of::<K>();
        let mut g = self.lock();
        if bytes > g.max_bytes {
            return;
        }
        // A racing miss on the same key got here first: replace it.
        g.remove(&key);
        g.clock += 1;
        let used = g.clock;
        g.lru.insert(used, key);
        g.slots.insert(key, Slot { value, bytes, used });
        g.bytes += bytes;
        while g.bytes > g.max_bytes {
            let oldest = g.lru.values().next();
            let victim = *oldest.expect("bytes > 0 means a slot is stored");
            g.remove(&victim);
            g.evictions += 1;
        }
    }

    /// Drops every entry; the counters keep counting. Takes `&mut self`, so
    /// only the tree's own mutators can reach it.
    pub(crate) fn clear(&mut self) {
        let g = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        g.slots.clear();
        g.lru.clear();
        g.bytes = 0;
    }

    pub(crate) fn stats(&self) -> MemoStats {
        let g = self.lock();
        MemoStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            bytes: g.bytes as u64,
        }
    }
}

impl<K, V> Memo<K, V> {
    /// A statement that panicked while holding the lock must not take every
    /// later read of this tree with it: each critical section above leaves
    /// the maps and the byte count consistent at every step, so the guard of
    /// a poisoned lock is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{SubTrajectory, SubTrajectoryId};

    fn key(start: i64) -> BorderKey {
        BorderKey::new(
            Timestamp(start),
            &TimeInterval::new(Timestamp(start), Timestamp(start + 10)),
            &S2TParams::default(),
        )
    }

    /// A partial holding one lone representative of `points` points.
    fn partial(points: usize) -> Arc<BorderPartial> {
        let pts = (0..points)
            .map(|i| Point::new(i as f64, 0.0, Timestamp(i as i64 * 1_000)))
            .collect();
        Arc::new(BorderPartial {
            clusters: vec![QutCluster {
                id: 0,
                representative: SubTrajectory::from_points(SubTrajectoryId::new(1, 0), 1, 1, pts),
                representative_vote: 0.0,
                members: Vec::new(),
                member_distances: Vec::new(),
            }],
            outliers: Vec::new(),
            loaded: points,
        })
    }

    /// What [`Memo::insert`] accounts for `partial(points)`.
    fn accounted(points: usize) -> usize {
        partial(points).heap_bytes()
            + std::mem::size_of::<Slot<BorderPartial>>()
            + std::mem::size_of::<BorderKey>()
    }

    #[test]
    fn key_separates_subchunk_overlap_and_every_parameter() {
        let base = S2TParams::default();
        let overlap = TimeInterval::new(Timestamp(5), Timestamp(9));
        let k = BorderKey::new(Timestamp(0), &overlap, &base);
        assert_eq!(k, BorderKey::new(Timestamp(0), &overlap, &base.clone()));
        assert_ne!(k, BorderKey::new(Timestamp(1), &overlap, &base));
        let wider = TimeInterval::new(Timestamp(5), Timestamp(10));
        assert_ne!(k, BorderKey::new(Timestamp(0), &wider, &base));
        let variants = [
            S2TParams {
                sigma: 51.0,
                ..base.clone()
            },
            S2TParams {
                tau: 0.36,
                ..base.clone()
            },
            S2TParams {
                delta: 0.06,
                ..base.clone()
            },
            S2TParams {
                min_duration_ms: 1,
                ..base.clone()
            },
            S2TParams {
                epsilon: 151.0,
                ..base.clone()
            },
            S2TParams {
                max_representatives: 3,
                ..base.clone()
            },
            S2TParams {
                time_weight: 2.0,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(k, BorderKey::new(Timestamp(0), &overlap, v), "{v:?}");
        }
    }

    #[test]
    fn evicts_least_recently_used_within_the_byte_bound() {
        let one = accounted(100);
        let memo = BorderMemo::with_max_bytes(3 * one);
        for k in 0..3 {
            assert!(memo.get(&key(k)).is_none());
            memo.insert(key(k), partial(100));
        }
        assert_eq!(memo.stats().bytes as usize, 3 * one);
        // Touch 0 so 1 becomes the oldest, then overflow by one entry.
        assert!(memo.get(&key(0)).is_some());
        memo.insert(key(3), partial(100));
        assert!(memo.get(&key(1)).is_none(), "LRU victim");
        for k in [0, 2, 3] {
            assert!(memo.get(&key(k)).is_some(), "key {k} must survive");
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (4, 4, 1));
        assert!(s.bytes as usize <= 3 * one);
        // A big entry pushes out as many old ones as it takes.
        memo.insert(key(4), partial(250));
        assert!(memo.stats().bytes as usize <= 3 * one);
        assert!(memo.get(&key(4)).is_some());
        // One that could never fit is not stored and evicts nothing.
        let before = memo.stats();
        memo.insert(key(5), partial(1_000));
        assert!(memo.get(&key(5)).is_none());
        assert_eq!(memo.stats().evictions, before.evictions);
        assert_eq!(memo.stats().bytes, before.bytes);
    }

    #[test]
    fn reinserting_a_key_replaces_it_without_leaking_bytes() {
        let memo = BorderMemo::new();
        memo.insert(key(0), partial(100));
        let once = memo.stats().bytes;
        memo.insert(key(0), partial(100));
        assert_eq!(memo.stats().bytes, once);
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn clone_and_clear_drop_entries_and_keep_counters() {
        let mut memo = BorderMemo::new();
        assert!(memo.get(&key(0)).is_none());
        memo.insert(key(0), partial(10));
        assert!(memo.get(&key(0)).is_some());

        let copy = memo.clone();
        let s = copy.stats();
        assert_eq!((s.hits, s.misses, s.bytes), (1, 1, 0));
        assert!(copy.get(&key(0)).is_none(), "a clone starts empty");
        assert!(memo.get(&key(0)).is_some(), "the original is untouched");

        memo.clear();
        assert_eq!(memo.stats().bytes, 0);
        assert!(memo.get(&key(0)).is_none());
        assert_eq!(memo.stats().hits, 2);
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let memo = Arc::new(BorderMemo::new());
        memo.insert(key(0), partial(10));
        let poisoner = Arc::clone(&memo);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("statement panicked while holding the memo lock");
        })
        .join();
        assert!(result.is_err());
        assert!(memo.inner.is_poisoned());
        assert!(memo.get(&key(0)).is_some());
        memo.insert(key(1), partial(10));
        assert!(memo.get(&key(1)).is_some());
    }

    fn rep(id: u64, y: f64, t0: i64) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            (0..5)
                .map(|i| Point::new(i as f64 * 10.0, y, Timestamp(t0 + i * 60_000)))
                .collect(),
        )
    }

    #[test]
    fn an_edge_list_holds_every_pair_sorted_and_prefixes_by_distance() {
        let early = [rep(1, 0.0, 0), rep(2, 30.0, 0), rep(3, 10.0, 0)];
        let late = [rep(4, 5.0, 240_000), rep(5, 500.0, 240_000)];
        fn refs(s: &[SubTrajectory]) -> Vec<&SubTrajectory> {
            s.iter().collect()
        }

        let inner = EdgeList::measure(&refs(&early), None);
        let pairs: Vec<(u32, u32)> = inner.0.iter().map(|e| (e.a, e.b)).collect();
        assert_eq!(pairs, [(0, 2), (1, 2), (0, 1)], "a < b, shortest first");
        assert_eq!(inner.within(20.0).count(), 2);
        assert_eq!(inner.within(0.0).count(), 0);

        let across = EdgeList::measure(&refs(&early), Some(&refs(&late)));
        assert_eq!(across.0.len(), early.len() * late.len());
        for e in across.0.iter() {
            let d = representative_merge_distance(&early[e.a as usize], &late[e.b as usize]);
            assert_eq!(e.d.to_bits(), d.to_bits());
        }
        assert!(across.0.windows(2).all(|w| w[0].d <= w[1].d));
        assert_eq!(
            across.heap_bytes(),
            across.0.len() * std::mem::size_of::<Edge>()
        );
    }
}
