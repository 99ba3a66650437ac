//! The border-partial memo: derived read-path state owned by the tree value
//! it is derived from.
//!
//! QuT pays S2T only at a window's two border sub-chunks, and what a border
//! costs is a pure function of `(tree value, sub-chunk, clipped overlap,
//! S2T parameters)`. A [`ReTraTree`](crate::ReTraTree) therefore carries a
//! `BorderMemo` of finished border partials. Its identity is the tree
//! value's, not an epoch number:
//!
//! * `Clone for ReTraTree` yields an **empty** memo, so the copy-on-write
//!   clone `Arc::make_mut` takes before an ingest starts cold by construction;
//! * the two `&mut self` functions that change stored data (`insert_piece`,
//!   `apply_reorganization`) clear it, because a uniquely owned tree is
//!   mutated in place without a clone;
//! * otherwise entries leave only by LRU eviction against a fixed byte bound.
//!
//! There is no `invalidate()` and no epoch comparison: a memo can only ever
//! hold partials of the value that owns it. The lock guards map bookkeeping
//! only — it is never held across a pipeline run, so two readers missing on
//! one key both compute (bit-identical results; the last insert wins).

use crate::qut::QutCluster;
use hermes_s2t::S2TParams;
use hermes_trajectory::{Point, SubTrajectorySummary, TimeInterval, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Upper bound on the bytes one tree's memo accounts for: per partial, the
/// representatives' point slices and the member and outlier summaries it
/// keeps alive. One constant, no
/// knob: the repeated windows of an interactive session need a few hundred
/// KiB to ~2 MiB.
pub const BORDER_MEMO_MAX_BYTES: usize = 4 << 20;

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

impl BorderPartial {
    /// Bytes this partial keeps alive: every representative's struct and
    /// point slice, the member and outlier summaries, the distance vectors
    /// and the map slot.
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
        std::mem::size_of::<Slot>()
            + std::mem::size_of::<BorderKey>()
            + clusters
            + self.outliers.len() * std::mem::size_of::<SubTrajectorySummary>()
    }
}

/// Counters of one tree's border memo, surfaced through `SHOW STATS` and
/// `/metrics`. `misses` is the number of border pipelines that actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BorderMemoStats {
    /// Border sub-chunks answered from a stored partial.
    pub hits: u64,
    /// Border sub-chunks that had to be re-clustered.
    pub misses: u64,
    /// Partials dropped to stay inside [`BORDER_MEMO_MAX_BYTES`].
    pub evictions: u64,
    /// Bytes currently accounted for.
    pub bytes: u64,
}

struct Slot {
    partial: Arc<BorderPartial>,
    bytes: usize,
    /// Tick of the last use; the slot's key in `Inner::lru`.
    used: u64,
}

struct Inner {
    max_bytes: usize,
    slots: HashMap<BorderKey, Slot>,
    /// Last-use tick → key, oldest first.
    lru: BTreeMap<u64, BorderKey>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn remove(&mut self, key: &BorderKey) {
        if let Some(slot) = self.slots.remove(key) {
            self.lru.remove(&slot.used);
            self.bytes -= slot.bytes;
        }
    }
}

/// A byte-bounded, `Mutex`-guarded LRU of border partials.
pub(crate) struct BorderMemo {
    inner: Mutex<Inner>,
}

// Manual impl: a clone is a different tree value (about to diverge), so it
// keeps the cumulative counters — the exported series stay monotone across
// copy-on-write — and none of the entries.
impl Clone for BorderMemo {
    fn clone(&self) -> Self {
        let g = self.lock();
        BorderMemo {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                lru: BTreeMap::new(),
                bytes: 0,
                ..*g
            }),
        }
    }
}

impl BorderMemo {
    pub(crate) fn new() -> Self {
        BorderMemo::with_max_bytes(BORDER_MEMO_MAX_BYTES)
    }

    fn with_max_bytes(max_bytes: usize) -> Self {
        BorderMemo {
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

    /// A statement that panicked while holding the lock must not take every
    /// later read of this tree with it: each critical section below leaves
    /// the maps and the byte count consistent at every step, so the guard of
    /// a poisoned lock is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The stored partial for `key`, counted as a hit, or `None`, counted as
    /// a miss (the caller then computes and [`BorderMemo::insert`]s).
    pub(crate) fn get(&self, key: &BorderKey) -> Option<Arc<BorderPartial>> {
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
        Some(Arc::clone(&slot.partial))
    }

    /// Stores a freshly computed partial, evicting least recently used ones
    /// while the accounted bytes exceed the bound. A partial larger than the
    /// whole bound is not stored.
    pub(crate) fn insert(&self, key: BorderKey, partial: Arc<BorderPartial>) {
        let bytes = partial.heap_bytes();
        let mut g = self.lock();
        if bytes > g.max_bytes {
            return;
        }
        // A racing miss on the same key got here first: replace it.
        g.remove(&key);
        g.clock += 1;
        let used = g.clock;
        g.lru.insert(used, key);
        g.slots.insert(
            key,
            Slot {
                partial,
                bytes,
                used,
            },
        );
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

    pub(crate) fn stats(&self) -> BorderMemoStats {
        let g = self.lock();
        BorderMemoStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            bytes: g.bytes as u64,
        }
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
        let one = partial(100).heap_bytes();
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
}
