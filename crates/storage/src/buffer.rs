//! A small buffer pool with strict LRU eviction.
//!
//! The paper's selling point is *in-DBMS* execution: clustering runs against
//! buffered pages rather than files re-read per query. The pool reproduces
//! the accounting of that layer — which page reads a bounded set of frames
//! would have absorbed — and its three counters are the storage series the
//! server exports (`hermes_storage_buffer_*`, `SHOW STATS`, experiment E6).
//!
//! A frame holds a value that is cheap to clone: the partition store keeps
//! `Arc<Page>` frames, so a frame *shares* the partition's page instead of
//! owning a private copy. A hit costs one lock, one hash lookup, one
//! `BTreeMap` re-key and a refcount bump; a miss runs the loader (for the
//! store, a refcount bump of the backing page) and evicts the least recently
//! used frame in O(log n). No page bytes are copied on either path.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Key of a buffered page: (partition id, page id).
pub type FrameKey = (u64, u64);

/// Hit/miss counters of a buffer pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Number of lookups satisfied from the pool.
    pub hits: u64,
    /// Number of lookups that had to go to the backing store.
    pub misses: u64,
    /// Number of frames evicted to make room.
    pub evictions: u64,
}

impl BufferStats {
    /// Fraction of lookups served from the pool (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner<T> {
    capacity: usize,
    clock: u64,
    /// Key → (value, tick of the last use; the frame's key in `lru`).
    frames: HashMap<FrameKey, (T, u64)>,
    /// Last-use tick → key, oldest first. Ticks are unique (the clock moves
    /// on every access), so the first entry is *the* LRU frame.
    lru: BTreeMap<u64, FrameKey>,
    stats: BufferStats,
}

impl<T> Inner<T> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, key: &FrameKey) {
        if let Some((_, used)) = self.frames.remove(key) {
            self.lru.remove(&used);
        }
    }

    /// Inserts a frame for a key that is not resident, evicting the least
    /// recently used frame when the pool is full.
    fn insert_new(&mut self, key: FrameKey, value: T, now: u64) {
        if self.frames.len() >= self.capacity {
            if let Some((_, victim)) = self.lru.pop_first() {
                self.frames.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.frames.insert(key, (value, now));
        self.lru.insert(now, key);
    }
}

/// A fixed-capacity, thread-safe LRU cache of cheaply cloneable page-like
/// values (see the module docs for what a frame holds).
pub struct BufferPool<T> {
    inner: Mutex<Inner<T>>,
}

// Manual impl: the clone gets its own mutex (and therefore its own frames),
// so the copy and the original never see each other's cache traffic.
impl<T: Clone> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        let g = self.lock();
        BufferPool {
            inner: Mutex::new(Inner {
                capacity: g.capacity,
                clock: g.clock,
                frames: g.frames.clone(),
                lru: g.lru.clone(),
                stats: g.stats,
            }),
        }
    }
}

impl<T: Clone> BufferPool<T> {
    /// A statement that panicked inside the pool (a loader in
    /// [`BufferPool::get_or_load`] runs under the lock) must not kill every
    /// later read of the tree: each critical section keeps `frames`, `lru`
    /// and the counters consistent at every step — a panicking loader has
    /// inserted nothing yet — so the guard of a poisoned lock is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates a pool holding at most `capacity` frames (at least 1).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                clock: 0,
                frames: HashMap::new(),
                lru: BTreeMap::new(),
                stats: BufferStats::default(),
            }),
        }
    }

    /// Returns the cached value for `key`, or loads it with `load`, caching
    /// the result (evicting the least recently used frame if full).
    pub fn get_or_load(&self, key: FrameKey, load: impl FnOnce() -> T) -> T {
        let mut g = self.lock();
        let now = g.tick();
        let g = &mut *g;
        if let Some((value, used)) = g.frames.get_mut(&key) {
            g.lru.remove(used);
            g.lru.insert(now, key);
            *used = now;
            g.stats.hits += 1;
            return value.clone();
        }
        g.stats.misses += 1;
        let value = load();
        g.insert_new(key, value.clone(), now);
        value
    }

    /// Replaces (or inserts) the cached value for `key` after a write.
    pub fn put(&self, key: FrameKey, value: T) {
        let mut g = self.lock();
        let now = g.tick();
        g.remove(&key);
        g.insert_new(key, value, now);
    }

    /// Drops the cached value for `key` (e.g. before its page is rewritten).
    pub fn invalidate(&self, key: &FrameKey) {
        self.lock().remove(key);
    }

    /// Removes every frame belonging to `partition`.
    pub fn invalidate_partition(&self, partition: u64) {
        let g = &mut *self.lock();
        g.frames.retain(|(p, _), _| *p != partition);
        g.lru.retain(|_, (p, _)| *p != partition);
    }

    /// Current number of cached frames.
    pub fn len(&self) -> usize {
        self.lock().frames.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> BufferStats {
        self.lock().stats
    }

    /// Resets the hit/miss counters (the benchmarks do this between phases).
    pub fn reset_stats(&self) {
        self.lock().stats = BufferStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool as it was before the `lru` index: a scan for the minimum
    /// tick on every eviction. Kept as the oracle the indexed pool must
    /// match access for access.
    struct NaiveLru {
        capacity: usize,
        clock: u64,
        frames: HashMap<FrameKey, u64>,
        stats: BufferStats,
    }

    impl NaiveLru {
        fn evict_if_full(&mut self) {
            if self.frames.len() >= self.capacity {
                if let Some((&victim, _)) = self.frames.iter().min_by_key(|(_, used)| **used) {
                    self.frames.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
        }

        fn get_or_load(&mut self, key: FrameKey) {
            self.clock += 1;
            if let Some(used) = self.frames.get_mut(&key) {
                *used = self.clock;
                self.stats.hits += 1;
                return;
            }
            self.stats.misses += 1;
            self.evict_if_full();
            self.frames.insert(key, self.clock);
        }

        fn put(&mut self, key: FrameKey) {
            self.clock += 1;
            if !self.frames.contains_key(&key) {
                self.evict_if_full();
            }
            self.frames.insert(key, self.clock);
        }
    }

    #[test]
    fn a_seeded_trace_matches_the_naive_min_tick_lru() {
        let pool: BufferPool<FrameKey> = BufferPool::new(16);
        let mut oracle = NaiveLru {
            capacity: 16,
            clock: 0,
            frames: HashMap::new(),
            stats: BufferStats::default(),
        };
        // SplitMix64: a skewed working set of 40 pages over 3 partitions, so
        // the trace mixes hits, misses and evictions.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for step in 0..10_000 {
            let r = next();
            let page = if r % 4 == 0 { r >> 8 } else { (r >> 8) % 12 } % 40;
            let key = (page % 3, page);
            match (r >> 40) % 64 {
                0..=3 => {
                    pool.put(key, key);
                    oracle.put(key);
                }
                4..=7 => {
                    pool.invalidate(&key);
                    oracle.frames.remove(&key);
                }
                8 => {
                    pool.invalidate_partition(key.0);
                    oracle.frames.retain(|(p, _), _| *p != key.0);
                }
                _ => {
                    assert_eq!(pool.get_or_load(key, || key), key);
                    oracle.get_or_load(key);
                }
            }
            assert_eq!(pool.stats(), oracle.stats, "step {step}");
        }
        let s = pool.stats();
        assert!(s.hits > 1_000 && s.evictions > 1_000, "{s:?}");
        let g = pool.lock();
        let mut resident: Vec<FrameKey> = g.frames.keys().copied().collect();
        let mut expected: Vec<FrameKey> = oracle.frames.keys().copied().collect();
        resident.sort_unstable();
        expected.sort_unstable();
        assert_eq!(resident, expected);
        // The index and the frames describe the same set.
        assert_eq!(g.lru.len(), g.frames.len());
        assert!(g.lru.iter().all(|(tick, key)| g.frames[key].1 == *tick));
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool: BufferPool<String> = BufferPool::new(2);
        let v = pool.get_or_load((1, 1), || "a".to_string());
        assert_eq!(v, "a");
        let v = pool.get_or_load((1, 1), || "SHOULD NOT LOAD".to_string());
        assert_eq!(v, "a");
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool: BufferPool<u32> = BufferPool::new(2);
        pool.get_or_load((0, 1), || 1);
        pool.get_or_load((0, 2), || 2);
        // touch page 1 so page 2 becomes LRU
        pool.get_or_load((0, 1), || 99);
        pool.get_or_load((0, 3), || 3); // evicts page 2
        assert_eq!(pool.len(), 2);
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        // page 2 must be re-loaded
        let v = pool.get_or_load((0, 2), || 22);
        assert_eq!(v, 22);
    }

    #[test]
    fn put_and_invalidate() {
        let pool: BufferPool<u32> = BufferPool::new(4);
        pool.put((7, 0), 42);
        assert_eq!(pool.get_or_load((7, 0), || 0), 42);
        pool.invalidate(&(7, 0));
        assert_eq!(pool.get_or_load((7, 0), || 5), 5);

        pool.put((8, 0), 1);
        pool.put((8, 1), 2);
        pool.put((9, 0), 3);
        pool.invalidate_partition(8);
        assert_eq!(pool.len(), 2); // (7,0) reloaded above and (9,0)
    }

    #[test]
    fn a_panicking_loader_does_not_kill_later_reads() {
        let pool: std::sync::Arc<BufferPool<u32>> = std::sync::Arc::new(BufferPool::new(2));
        pool.put((0, 0), 7);
        let poisoner = std::sync::Arc::clone(&pool);
        let result = std::thread::spawn(move || {
            poisoner.get_or_load((0, 1), || panic!("page read failed"));
        })
        .join();
        assert!(result.is_err(), "the loader's panic reaches its own thread");
        assert!(pool.inner.is_poisoned());
        // Another thread still reads what was cached and loads what was not:
        // the failed load left no frame behind.
        assert_eq!(pool.get_or_load((0, 0), || 0), 7);
        assert_eq!(pool.get_or_load((0, 1), || 9), 9);
        assert_eq!(pool.len(), 2);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let pool: BufferPool<u32> = BufferPool::new(0);
        pool.put((0, 0), 1);
        pool.put((0, 1), 2);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let pool: BufferPool<u32> = BufferPool::new(2);
        pool.get_or_load((0, 0), || 1);
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
        assert_eq!(pool.stats().hit_ratio(), 0.0);
    }
}
