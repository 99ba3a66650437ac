//! A small buffer pool with LRU eviction.
//!
//! The paper's selling point is *in-DBMS* execution: clustering runs against
//! buffered pages rather than files re-read per query. The buffer pool here
//! provides the same behaviour knob for the reproduction — the E1/E3
//! benchmarks report its hit ratio so the "progressive analytics avoid
//! re-reading and re-processing" effect is visible even though everything is
//! ultimately in memory.

use std::collections::HashMap;
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
    frames: HashMap<FrameKey, (T, u64)>,
    stats: BufferStats,
}

/// A fixed-capacity, thread-safe LRU cache of page-like values.
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
                stats: g.stats,
            }),
        }
    }
}

impl<T: Clone> BufferPool<T> {
    /// A statement that panicked inside the pool (a loader in
    /// [`BufferPool::get_or_load`] runs under the lock) must not kill every
    /// later read of the tree: each critical section keeps `frames` and the
    /// counters consistent at every step — a panicking loader has inserted
    /// nothing yet — so the guard of a poisoned lock is still valid.
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
                stats: BufferStats::default(),
            }),
        }
    }

    /// Returns the cached value for `key`, or loads it with `load`, caching
    /// the result (evicting the least recently used frame if full).
    pub fn get_or_load(&self, key: FrameKey, load: impl FnOnce() -> T) -> T {
        let mut g = self.lock();
        g.clock += 1;
        let now = g.clock;
        if let Some((v, used)) = g.frames.get_mut(&key) {
            *used = now;
            let value = v.clone();
            g.stats.hits += 1;
            return value;
        }
        g.stats.misses += 1;
        let value = load();
        if g.frames.len() >= g.capacity {
            if let Some((&victim, _)) = g.frames.iter().min_by_key(|(_, (_, used))| *used) {
                g.frames.remove(&victim);
                g.stats.evictions += 1;
            }
        }
        g.frames.insert(key, (value.clone(), now));
        value
    }

    /// Replaces (or inserts) the cached value for `key` after a write.
    pub fn put(&self, key: FrameKey, value: T) {
        let mut g = self.lock();
        g.clock += 1;
        let now = g.clock;
        if g.frames.len() >= g.capacity && !g.frames.contains_key(&key) {
            if let Some((&victim, _)) = g.frames.iter().min_by_key(|(_, (_, used))| *used) {
                g.frames.remove(&victim);
                g.stats.evictions += 1;
            }
        }
        g.frames.insert(key, (value, now));
    }

    /// Drops the cached value for `key` (e.g. after the partition is dropped).
    pub fn invalidate(&self, key: &FrameKey) {
        self.lock().frames.remove(key);
    }

    /// Removes every frame belonging to `partition`.
    pub fn invalidate_partition(&self, partition: u64) {
        self.lock().frames.retain(|(p, _), _| *p != partition);
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
