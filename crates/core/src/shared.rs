//! [`SharedEngine`]: the concurrency wrapper that lets many sessions (CLI
//! shells, server connections, benchmark threads) drive one [`HermesEngine`].
//!
//! The wrapper publishes immutable engine *epochs*. Readers ([`pin`]) grab an
//! `Arc` to the currently published snapshot — a few atomic operations, never
//! a lock shared with writers — and answer against it for as long as they
//! like; a concurrently committing `BUILD INDEX` or `CHECKPOINT` cannot block
//! them and they cannot block it. Writers ([`with_write`]) serialize on a
//! narrow commit mutex around the single mutable *master* engine, then
//! publish a fresh fork ([`HermesEngine::fork_snapshot`], an `Arc` bump per
//! dataset) and advance the epoch counter.
//!
//! Memory reclamation needs no hazard pointers or RCU grace periods: a
//! superseded epoch is kept alive by exactly the `Arc` clones of the readers
//! still pinning it and is freed by the last of them dropping out. See
//! `docs/SERVER.md` for the full lifecycle argument.
//!
//! Cloning a `SharedEngine` clones the handle, not the engine.
//!
//! [`pin`]: SharedEngine::pin
//! [`with_write`]: SharedEngine::with_write

use crate::engine::HermesEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

struct SharedInner {
    /// The single mutable engine. All writers serialize here; readers never
    /// touch it.
    master: Mutex<HermesEngine>,
    /// The immutable snapshot readers pin. Swapped wholesale on commit; the
    /// lock is held only for the pointer copy on either side, so it is never
    /// contended for longer than an `Arc` clone.
    published: RwLock<Arc<HermesEngine>>,
    /// Monotone counter, bumped on every publication. Epoch 0 is the engine
    /// as constructed.
    epoch: AtomicU64,
}

/// A cloneable, thread-safe handle to one [`HermesEngine`] with
/// epoch-publication concurrency: non-blocking snapshot reads, serialized
/// copy-on-write commits.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<SharedInner>,
}

impl Default for SharedEngine {
    fn default() -> Self {
        SharedEngine::new(HermesEngine::default())
    }
}

impl SharedEngine {
    /// Wraps an engine for shared use. The initial published epoch is a fork
    /// of the engine as given.
    pub fn new(engine: HermesEngine) -> Self {
        let snapshot = Arc::new(engine.fork_snapshot());
        SharedEngine {
            inner: Arc::new(SharedInner {
                master: Mutex::new(engine),
                published: RwLock::new(snapshot),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// Pins the currently published epoch: an immutable point-in-time
    /// snapshot the caller can hold and query for as long as it likes.
    /// Never blocks on writers — a commit in progress keeps publishing
    /// *after* this snapshot was taken, and the pinned epoch stays alive
    /// (and unchanged) until the last pin drops.
    ///
    /// A poisoned publication lock (a panic on another thread mid-swap) is
    /// recovered rather than propagated: the swap is a single pointer store,
    /// applied whole, and a server must keep answering after one bad
    /// connection.
    pub fn pin(&self) -> Arc<HermesEngine> {
        Arc::clone(
            &self
                .inner
                .published
                .read()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// The current epoch number: how many commits have published so far.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// [`pin`](SharedEngine::pin) under its old name, for callers written
    /// against the read-lock API: the returned `Arc` dereferences to the
    /// engine exactly like the former guard did, minus the blocking.
    pub fn read(&self) -> Arc<HermesEngine> {
        self.pin()
    }

    /// Runs `f` against the currently published epoch.
    pub fn with_read<R>(&self, f: impl FnOnce(&HermesEngine) -> R) -> R {
        f(&self.pin())
    }

    /// Runs `f` against the master engine under the commit mutex, then
    /// publishes the result as a new epoch. Writers serialize with each
    /// other; readers pinned to older epochs are unaffected.
    ///
    /// Publication happens only on `f`'s normal return — if `f` panics, the
    /// master may hold its partial effects (the next commit publishes them,
    /// matching the poison-recovery semantics of the old write lock) but no
    /// reader observes a torn state.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut HermesEngine) -> R) -> R {
        let mut master = self.inner.master.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut master);
        let snapshot = Arc::new(master.fork_snapshot());
        *self
            .inner
            .published
            .write()
            .unwrap_or_else(|e| e.into_inner()) = snapshot;
        self.inner.epoch.fetch_add(1, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Timestamp, Trajectory};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn traj(id: u64, y: f64) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..30)
                .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(i as i64 * 60_000)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn handles_share_one_engine() {
        let shared = SharedEngine::default();
        shared.with_write(|e| e.create_dataset("a")).unwrap();
        let other = shared.clone();
        assert_eq!(other.read().list_datasets(), vec!["a".to_string()]);
    }

    #[test]
    fn concurrent_readers_with_a_writer() {
        let shared = SharedEngine::default();
        shared.with_write(|e| {
            e.create_dataset("d").unwrap();
            e.load_trajectories("d", (0..12).map(|i| traj(i, i as f64 * 10.0)).collect())
                .unwrap();
        });
        let reads = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shared = shared.clone();
            let reads = Arc::clone(&reads);
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let info = shared.read().dataset_info("d").unwrap();
                    // The concurrent writer may or may not have landed yet,
                    // but a reader never observes a torn state.
                    assert!(info.num_trajectories == 12 || info.num_trajectories == 13);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // A writer interleaves with the readers.
        shared
            .with_write(|e| e.load_trajectories("d", vec![traj(99, 500.0)]))
            .unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reads.load(Ordering::Relaxed), 80);
        assert_eq!(
            shared.read().dataset_info("d").unwrap().num_trajectories,
            13
        );
    }

    #[test]
    fn pinned_epochs_are_immutable_and_commits_advance_the_epoch() {
        let shared = SharedEngine::default();
        assert_eq!(shared.epoch(), 0);
        shared.with_write(|e| e.create_dataset("d")).unwrap();
        assert_eq!(shared.epoch(), 1);

        let before = shared.pin();
        shared
            .with_write(|e| e.load_trajectories("d", vec![traj(1, 0.0)]))
            .unwrap();
        assert_eq!(shared.epoch(), 2);
        // The pinned snapshot still shows the pre-commit state...
        assert_eq!(before.dataset_info("d").unwrap().num_trajectories, 0);
        // ...while a fresh pin sees the new epoch.
        assert_eq!(shared.pin().dataset_info("d").unwrap().num_trajectories, 1);
    }

    /// A shared engine with `flights` indexed as dataset `data` (one-hour
    /// sub-chunks) and an empty dataset `live`, plus the S2T and QuT
    /// parameters the index was built with.
    fn indexed_data(
        flights: Vec<Trajectory>,
    ) -> (
        SharedEngine,
        hermes_s2t::S2TParams,
        hermes_retratree::QutParams,
    ) {
        use hermes_retratree::{QutParams, ReTraTreeParams};
        use hermes_s2t::S2TParams;

        let s2t = S2TParams {
            sigma: 60.0,
            epsilon: 400.0,
            min_duration_ms: 120_000,
            ..S2TParams::default()
        };
        let qp = QutParams {
            s2t: s2t.clone(),
            ..QutParams::default()
        };
        let shared = SharedEngine::default();
        shared.with_write(|e| {
            e.create_dataset("data").unwrap();
            e.create_dataset("live").unwrap();
            e.load_trajectories("data", flights).unwrap();
            e.build_index(
                "data",
                ReTraTreeParams {
                    chunk_duration: hermes_trajectory::Duration::from_hours(4),
                    subchunks_per_chunk: 4,
                    reorg_page_threshold: 2,
                    s2t: s2t.clone(),
                },
            )
            .unwrap();
        });
        (shared, s2t, qp)
    }

    #[test]
    fn derived_state_follows_the_value_not_the_epoch() {
        use hermes_trajectory::TimeInterval;

        let (shared, s2t, qp) = indexed_data((0..12).map(|i| traj(i, i as f64 * 10.0)).collect());
        let w = TimeInterval::new(Timestamp(5 * 60_000), Timestamp(25 * 60_000));
        let data_id = |e: &HermesEngine| e.catalog.get("data").unwrap().id;
        let index_cell = |e: &HermesEngine| Arc::clone(&e.datasets[&data_id(e)].s2t_index);

        // Warm both kinds of derived state on the current epoch.
        let old = shared.pin();
        let (old_answer, _) = old.run_qut("data", &w, &qp).unwrap();
        let old_s2t = old.run_s2t("data", &s2t).unwrap();
        let hits = |e: &HermesEngine| e.stats().border_memo.hits;
        assert_eq!(hits(&old), 0);

        // Writes to ANOTHER dataset publish new epochs; `data` is shared by
        // reference, so its memo stays warm and its index stays built.
        for i in 0..3 {
            let epoch = shared.epoch();
            shared
                .with_write(|e| e.load_trajectories("live", vec![traj(500 + i, 0.0)]))
                .unwrap();
            assert_eq!(shared.epoch(), epoch + 1);
            let now = shared.pin();
            let before = hits(&now);
            let (answer, stats) = now.run_qut("data", &w, &qp).unwrap();
            assert_eq!(answer, old_answer);
            assert_eq!(stats.phases.total_ms(), 0.0, "no pipeline ran");
            assert!(hits(&now) > before, "the hit counter keeps rising");
            assert!(Arc::ptr_eq(&index_cell(&now), &index_cell(&old)));
            let s2t_again = now.run_s2t("data", &s2t).unwrap();
            assert_eq!(s2t_again.timings.index_build_ms, 0.0);
            assert_eq!(s2t_again.result, old_s2t.result);
        }
        assert_eq!(shared.pin().stats().s2t_index_builds, 1);

        // A write to `data` itself: the pinned reader keeps its bytes (and its
        // warm memo), the new epoch answers with the new flight.
        shared
            .with_write(|e| e.load_trajectories("data", vec![traj(900, 55.0)]))
            .unwrap();
        let new = shared.pin();
        let (pinned_answer, pinned_stats) = old.run_qut("data", &w, &qp).unwrap();
        assert_eq!(pinned_answer, old_answer);
        assert_eq!(pinned_stats.phases.total_ms(), 0.0);
        let (new_answer, new_stats) = new.run_qut("data", &w, &qp).unwrap();
        assert!(new_stats.phases.total_ms() > 0.0, "the copy started cold");
        assert_ne!(new_answer, old_answer);
        let mut reference = HermesEngine::new();
        reference.create_dataset("data").unwrap();
        reference
            .load_trajectories("data", new.trajectories("data").unwrap()[..12].to_vec())
            .unwrap();
        reference
            .build_index("data", new.tree("data").unwrap().params().clone())
            .unwrap();
        reference
            .load_trajectories("data", vec![traj(900, 55.0)])
            .unwrap();
        assert_eq!(new_answer, reference.run_qut("data", &w, &qp).unwrap().0);
        assert!(!Arc::ptr_eq(&index_cell(&new), &index_cell(&old)));
        assert!(
            index_cell(&old).get().is_some(),
            "the old epoch keeps its index"
        );
        assert!(
            index_cell(&new).get().is_none(),
            "the new one builds on demand"
        );
    }

    #[test]
    fn an_ingest_copies_only_the_pages_it_writes() {
        use hermes_retratree::OwnedSlice;
        use hermes_storage::PartitionKind;
        use hermes_trajectory::TimeInterval;

        // Two populated sub-chunks (hours 0 and 1); the ingest lands in hour 0.
        let later = |id: u64, y: f64| {
            let shifted = traj(id, y)
                .points()
                .iter()
                .map(|p| Point::new(p.x, p.y, Timestamp(p.t.millis() + 3_600_000)))
                .collect();
            Trajectory::new(id, id, shifted).unwrap()
        };
        let flights = (0..12)
            .map(|i| traj(i, i as f64 * 10.0))
            .chain((12..24).map(|i| later(i, i as f64 * 10.0)));
        let (shared, _, qp) = indexed_data(flights.collect());
        let w = TimeInterval::new(Timestamp(5 * 60_000), Timestamp(85 * 60_000));
        let range = |e: &HermesEngine| e.owned_range_count("data", &OwnedSlice::ALL, &w).unwrap();

        let old = shared.pin();
        let (old_qut, _) = old.run_qut("data", &w, &qp).unwrap();
        let old_range = range(&old);
        shared
            .with_write(|e| e.load_trajectories("data", vec![traj(900, 55.0)]))
            .unwrap();
        let new = shared.pin();

        // The pinned reader keeps its bytes; the new epoch sees the flight.
        assert_eq!(old.run_qut("data", &w, &qp).unwrap().0, old_qut);
        assert_eq!(range(&old), old_range);
        assert_eq!(range(&new), old_range + 1);

        // Page-level sharing: a page is a different allocation in the two
        // epochs exactly when the ingest wrote it.
        let (old_store, new_store) = (
            old.tree("data").unwrap().store(),
            new.tree("data").unwrap().store(),
        );
        let (mut shared_pages, mut copied_pages) = (0, 0);
        for kind in [PartitionKind::Cluster, PartitionKind::Outliers] {
            for id in old_store.partitions_of_kind(kind) {
                let (before, after) = (
                    old_store.partition(id).unwrap(),
                    new_store.partition(id).unwrap(),
                );
                for p in 0..before.num_pages() as u64 {
                    let (a, b) = (before.page(p).unwrap(), after.page(p).unwrap());
                    let untouched = a.as_bytes() == b.as_bytes();
                    assert_eq!(Arc::ptr_eq(a, b), untouched, "partition {id} page {p}");
                    if untouched {
                        shared_pages += 1;
                    } else {
                        copied_pages += 1;
                    }
                }
            }
        }
        assert_eq!(copied_pages, 1, "one flight, one sub-chunk, one page");
        assert!(shared_pages >= 4, "{shared_pages} pages shared");
    }

    #[test]
    fn page_lookups_through_a_pinned_epoch_reach_the_newest_stats() {
        use hermes_trajectory::TimeInterval;

        let (shared, _, _) = indexed_data((0..12).map(|i| traj(i, i as f64 * 10.0)).collect());
        let w = TimeInterval::new(Timestamp(5 * 60_000), Timestamp(25 * 60_000));
        let read = |e: &HermesEngine| e.tree("data").unwrap().window_sub_trajectories(&w);
        let lookups = |e: &HermesEngine| e.stats().page_lookups;

        let old = shared.pin();
        let mut series = vec![lookups(&old)];
        let answer = read(&old);
        series.push(lookups(&old));
        let per_read = series[1] - series[0];
        assert!(per_read > 0);

        // The ingest copies the tree the pinned reader still holds.
        shared
            .with_write(|e| e.load_trajectories("data", vec![traj(900, 55.0)]))
            .unwrap();
        let new = shared.pin();
        series.push(lookups(&new));
        assert_eq!(read(&old), answer);
        series.push(lookups(&new));
        assert_eq!(
            series[3] - series[2],
            per_read,
            "the pinned reader's lookups reach the new epoch's stats"
        );
        assert_eq!(lookups(&old), lookups(&new));
        assert!(series.windows(2).all(|p| p[0] <= p[1]), "{series:?}");
    }

    #[test]
    fn readers_never_block_on_a_slow_writer() {
        let shared = SharedEngine::default();
        shared.with_write(|e| e.create_dataset("d")).unwrap();
        let writer = {
            let shared = shared.clone();
            thread::spawn(move || {
                shared.with_write(|e| {
                    // A deliberately long-held commit section (stand-in for a
                    // slow BUILD INDEX).
                    thread::sleep(Duration::from_millis(300));
                    e.load_trajectories("d", vec![traj(1, 0.0)]).unwrap();
                });
            })
        };
        // Give the writer time to enter its commit section, then read: the
        // pin must return far sooner than the writer finishes.
        thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let info = shared.read().dataset_info("d").unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "reader blocked on the in-flight writer"
        );
        assert_eq!(info.num_trajectories, 0, "the old epoch answered");
        writer.join().unwrap();
        assert_eq!(shared.read().dataset_info("d").unwrap().num_trajectories, 1);
    }
}
