//! Engine durability: snapshot + write-ahead-log persistence over a data
//! directory.
//!
//! A durable engine ([`HermesEngine::open`]) keeps two files in its data
//! directory (formats normatively specified in `docs/STORAGE.md`):
//!
//! * `snapshot.hsnap` — the whole engine state (catalog, every dataset's
//!   trajectories, every built ReTraTree including its partition pages),
//!   wrapped in the checksummed container of
//!   [`hermes_storage::snapshot`]. Written by [`HermesEngine::checkpoint`],
//!   atomically.
//! * `wal-<epoch>.hlog` — the CRC-framed log of mutating operations since
//!   that snapshot ([`hermes_storage::wal`]). `CREATE`/`DROP DATASET`,
//!   ingest batches and `BUILD INDEX` parameters are appended after they
//!   apply; recovery replays them over the snapshot.
//!
//! The `<epoch>` in the WAL name is the checkpoint generation, stamped
//! inside the snapshot body. A checkpoint (1) writes the new snapshot with
//! epoch *E+1*, (2) starts a fresh `wal-<E+1>.hlog`, (3) deletes the old
//! log. Recovery always pairs the snapshot with *its own* log, so a crash
//! anywhere inside a checkpoint can never double-apply operations: until the
//! new snapshot is durably renamed, recovery uses snapshot *E* + `wal-E`;
//! from the instant it is, recovery uses snapshot *E+1* (which already
//! contains everything `wal-E` held) + an empty or missing `wal-E+1`.
//! Stale logs from other epochs are removed on open.
//!
//! Recovery tolerates a torn WAL tail (an append cut short by a crash): the
//! log is truncated to its last intact record and replay covers exactly the
//! durable prefix. `BUILD INDEX` replays by re-running the build — the
//! engine's clustering is deterministic (see `tests/parallel_determinism.rs`)
//! so the rebuilt tree matches the lost one; the next checkpoint absorbs it
//! into the snapshot so subsequent recoveries stop paying for the rebuild.

use crate::engine::Dataset;
use crate::error::EngineError;
use crate::{HermesEngine, Result};
use hermes_exec::ExecPolicy;
use hermes_retratree::{persist as tree_persist, ReTraTreeParams};
use hermes_storage::codec::{decode_trajectory_from, encode_trajectory_into, TRAJECTORY_MIN_BYTES};
use hermes_storage::{
    read_snapshot_file, write_snapshot_file, ByteReader, ByteWriter, Catalog, DatasetMeta,
    StorageError, Wal,
};
use hermes_trajectory::{TimeInterval, Timestamp, Trajectory};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the engine snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.hsnap";

/// Version of the snapshot *body* layout (the container has its own version;
/// this one covers the engine-state encoding inside it). Version 1 bodies,
/// whose trees carry two leaf-index entry lists per sub-chunk, still open:
/// the lists are read, checked and dropped (`docs/STORAGE.md`).
pub const SNAPSHOT_BODY_VERSION: u16 = 2;

/// The WAL file name for a checkpoint epoch.
fn wal_file_name(epoch: u64) -> String {
    format!("wal-{epoch:016}.hlog")
}

/// Durable-state handle owned by a [`HermesEngine`] opened over a data
/// directory.
pub(crate) struct Durability {
    dir: PathBuf,
    pub(crate) wal: Wal,
    epoch: u64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) last_checkpoint_ms: u64,
    /// Exclusive advisory lock on `<dir>/LOCK`, held for the engine's
    /// lifetime so two processes cannot append to the same WAL through
    /// independent cursors. Released automatically on drop *and* on process
    /// death (`flock` semantics), so a crash never leaves a stale lock.
    _lock: File,
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Best-effort group-commit flush on clean shutdown; a crash instead
        // of a drop loses at most the unsynced suffix, which recovery trims.
        let _ = self.wal.sync();
    }
}

/// What a [`HermesEngine::checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Size in bytes of the snapshot file just written.
    pub snapshot_bytes: u64,
    /// Bytes of write-ahead log the checkpoint made redundant and discarded.
    pub wal_bytes_discarded: u64,
    /// Wall-clock milliseconds the checkpoint took.
    pub elapsed_ms: u64,
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

const WAL_CREATE_DATASET: u8 = 1;
const WAL_DROP_DATASET: u8 = 2;
const WAL_INGEST: u8 = 3;
const WAL_BUILD_INDEX: u8 = 4;

/// A decoded logical WAL record (the owned form replay works on; encoding
/// goes through the `encode_wal_*` functions, which borrow their payloads).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE DATASET name`.
    CreateDataset {
        /// Dataset name.
        name: String,
    },
    /// `DROP DATASET name`.
    DropDataset {
        /// Dataset name.
        name: String,
    },
    /// One ingest batch into a dataset.
    Ingest {
        /// Dataset name.
        name: String,
        /// The batch, in load order.
        trajectories: Vec<Trajectory>,
    },
    /// A `BUILD INDEX` with its full parameter set; replay re-runs the
    /// (deterministic) build.
    BuildIndex {
        /// Dataset name.
        name: String,
        /// The construction parameters.
        params: ReTraTreeParams,
    },
}

/// Encodes a `CREATE DATASET` record payload.
pub fn encode_wal_create(name: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(WAL_CREATE_DATASET);
    w.str(name);
    w.into_bytes()
}

/// Encodes a `DROP DATASET` record payload.
pub fn encode_wal_drop(name: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(WAL_DROP_DATASET);
    w.str(name);
    w.into_bytes()
}

/// Encodes an ingest-batch record payload.
pub fn encode_wal_ingest(name: &str, trajectories: &[Trajectory]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + trajectories.len() * 128);
    w.u8(WAL_INGEST);
    w.str(name);
    w.u32(trajectories.len() as u32);
    for t in trajectories {
        encode_trajectory_into(&mut w, t);
    }
    w.into_bytes()
}

/// Encodes a `BUILD INDEX` record payload.
pub fn encode_wal_build_index(name: &str, params: &ReTraTreeParams) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(WAL_BUILD_INDEX);
    w.str(name);
    tree_persist::encode_params_into(&mut w, params);
    w.into_bytes()
}

/// Decodes one WAL record payload.
pub fn decode_wal_record(payload: &[u8]) -> std::result::Result<WalRecord, StorageError> {
    let mut r = ByteReader::new(payload);
    let record = match r.u8()? {
        WAL_CREATE_DATASET => WalRecord::CreateDataset { name: r.str()? },
        WAL_DROP_DATASET => WalRecord::DropDataset { name: r.str()? },
        WAL_INGEST => {
            let name = r.str()?;
            let count = r.count(TRAJECTORY_MIN_BYTES)?;
            let mut trajectories = Vec::with_capacity(count);
            for _ in 0..count {
                trajectories.push(decode_trajectory_from(&mut r)?);
            }
            WalRecord::Ingest { name, trajectories }
        }
        WAL_BUILD_INDEX => WalRecord::BuildIndex {
            name: r.str()?,
            params: tree_persist::decode_params_from(&mut r)?,
        },
        other => {
            return Err(StorageError::Corrupt {
                reason: format!("unknown WAL record type {other}"),
            })
        }
    };
    if !r.is_empty() {
        return Err(StorageError::Corrupt {
            reason: format!("{} trailing bytes after WAL record", r.remaining()),
        });
    }
    Ok(record)
}

// ---------------------------------------------------------------------------
// Snapshot body
// ---------------------------------------------------------------------------

/// Serializes the whole engine state as a snapshot body stamped with the
/// given checkpoint epoch.
pub(crate) fn encode_engine_state(engine: &HermesEngine, epoch: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(1 << 16);
    w.u16(SNAPSHOT_BODY_VERSION);
    w.u64(epoch);

    // Catalog, sorted by id so the encoding is deterministic.
    w.u64(engine.catalog.next_id());
    let mut metas: Vec<&DatasetMeta> = engine.catalog.list().collect();
    metas.sort_by_key(|m| m.id);
    w.u32(metas.len() as u32);
    for meta in &metas {
        w.u64(meta.id);
        w.str(&meta.name);
        w.u64(meta.num_trajectories as u64);
        w.u64(meta.num_points as u64);
        match meta.lifespan {
            Some(span) => {
                w.bool(true);
                w.i64(span.start.millis());
                w.i64(span.end.millis());
            }
            None => w.bool(false),
        }
    }

    // Datasets, same order.
    let mut ids: Vec<u64> = engine.datasets.keys().copied().collect();
    ids.sort_unstable();
    w.u32(ids.len() as u32);
    for id in ids {
        let ds = &engine.datasets[&id];
        w.u64(id);
        w.u32(ds.trajectories.len() as u32);
        for t in ds.trajectories.iter() {
            encode_trajectory_into(&mut w, t);
        }
        match &ds.tree {
            Some(tree) => {
                w.bool(true);
                tree_persist::encode_tree(&mut w, tree);
            }
            None => w.bool(false),
        }
    }
    w.into_bytes()
}

/// Restores engine state from a snapshot body, returning the epoch it was
/// stamped with.
pub(crate) fn restore_engine_state(
    engine: &mut HermesEngine,
    body: &[u8],
) -> std::result::Result<u64, StorageError> {
    let mut r = ByteReader::new(body);
    let body_version = r.u16()?;
    let decode_tree = match body_version {
        1 => tree_persist::decode_tree_v1,
        SNAPSHOT_BODY_VERSION => tree_persist::decode_tree,
        _ => {
            return Err(StorageError::Corrupt {
                reason: format!(
                    "unsupported snapshot body version {body_version} (expected 1 or {SNAPSHOT_BODY_VERSION})"
                ),
            })
        }
    };
    let epoch = r.u64()?;

    let next_id = r.u64()?;
    // A catalog row is its id, name, two counts and a lifespan flag.
    let num_metas = r.count(8 + 4 + 8 + 8 + 1)?;
    let mut metas = Vec::with_capacity(num_metas);
    for _ in 0..num_metas {
        let id = r.u64()?;
        let name = r.str()?;
        let num_trajectories = r.u64()? as usize;
        let num_points = r.u64()? as usize;
        let lifespan = if r.bool()? {
            let (start, end) = (Timestamp(r.i64()?), Timestamp(r.i64()?));
            if start > end {
                return Err(StorageError::Corrupt {
                    reason: format!(
                        "dataset {id}'s lifespan ends at {} before it starts at {}",
                        end.millis(),
                        start.millis()
                    ),
                });
            }
            Some(TimeInterval::new(start, end))
        } else {
            None
        };
        metas.push(DatasetMeta {
            id,
            name,
            num_trajectories,
            num_points,
            lifespan,
        });
    }
    let catalog = Catalog::from_parts(metas, next_id)?;

    // A dataset body is its id, a trajectory count and a tree flag.
    let num_datasets = r.count(8 + 4 + 1)?;
    let mut datasets = HashMap::with_capacity(num_datasets);
    for _ in 0..num_datasets {
        let id = r.u64()?;
        if catalog.get_by_id(id).is_none() {
            return Err(StorageError::Corrupt {
                reason: format!("dataset {id} has state but no catalog row"),
            });
        }
        let num_trajectories = r.count(TRAJECTORY_MIN_BYTES)?;
        let mut trajectories = Vec::with_capacity(num_trajectories);
        for _ in 0..num_trajectories {
            trajectories.push(decode_trajectory_from(&mut r)?);
        }
        let tree = if r.bool()? {
            Some(decode_tree(&mut r)?)
        } else {
            None
        };
        if datasets
            .insert(id, Dataset::new(trajectories, tree))
            .is_some()
        {
            return Err(StorageError::Corrupt {
                reason: format!("dataset {id} appears twice in the snapshot"),
            });
        }
    }
    if datasets.len() != catalog.len() {
        return Err(StorageError::Corrupt {
            reason: format!(
                "snapshot holds {} dataset bodies for {} catalog rows",
                datasets.len(),
                catalog.len()
            ),
        });
    }
    if !r.is_empty() {
        return Err(StorageError::Corrupt {
            reason: format!("{} trailing bytes after the snapshot body", r.remaining()),
        });
    }
    engine.catalog = catalog;
    engine.datasets = datasets;
    Ok(epoch)
}

// ---------------------------------------------------------------------------
// The engine's durable surface
// ---------------------------------------------------------------------------

impl HermesEngine {
    /// Opens (or initializes) a durable engine over `data_dir` with the
    /// deployment-default execution policy: loads the newest valid snapshot,
    /// replays the write-ahead log (tolerating a torn tail), and keeps the
    /// log open so every subsequent mutation is journaled.
    pub fn open(data_dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_exec_policy(data_dir, ExecPolicy::from_env())
    }

    /// [`HermesEngine::open`] with an explicit execution policy.
    pub fn open_with_exec_policy(data_dir: impl AsRef<Path>, policy: ExecPolicy) -> Result<Self> {
        let dir = data_dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("creating {}", dir.display()), e))?;
        let lock = acquire_dir_lock(&dir)?;

        let mut engine = HermesEngine::with_exec_policy(policy);
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut epoch = 0;
        let mut snapshot_bytes = 0;
        if let Some(body) = read_snapshot_file(&snapshot_path)? {
            epoch = restore_engine_state(&mut engine, &body)?;
            snapshot_bytes = fs::metadata(&snapshot_path).map(|m| m.len()).unwrap_or(0);
        }

        let wal_path = dir.join(wal_file_name(epoch));
        let (wal, recovery) = Wal::open(&wal_path)?;
        for (i, payload) in recovery.records.iter().enumerate() {
            let record = decode_wal_record(payload)?;
            engine.apply_wal_record(record).map_err(|e| {
                EngineError::Storage(StorageError::Corrupt {
                    reason: format!("replaying WAL record {i} failed: {e}"),
                })
            })?;
        }
        remove_stale_wals(&dir, &wal_path);

        engine.durability = Some(Durability {
            dir,
            wal,
            epoch,
            snapshot_bytes,
            last_checkpoint_ms: 0,
            _lock: lock,
        });
        Ok(engine)
    }

    /// The data directory this engine persists into (`None` for a plain
    /// in-memory engine).
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Writes a new snapshot of the whole engine state and truncates the
    /// write-ahead log (the records are now redundant). Returns what was
    /// written and discarded; errors with [`EngineError::NotDurable`] on an
    /// in-memory engine.
    ///
    /// Failure ordering: the epoch-*E+1* log is created **before** the
    /// epoch-*E+1* snapshot is durably renamed. If anything fails before the
    /// rename, the durable state is untouched (epoch *E* + `wal-E`; a
    /// leftover empty `wal-E+1` is swept as stale on the next open) and the
    /// engine keeps journaling into `wal-E` — acknowledged operations are
    /// never stranded in a log the next recovery would ignore.
    pub fn checkpoint(&mut self) -> Result<CheckpointInfo> {
        let started = Instant::now();
        let Some(d) = self.durability.as_ref() else {
            return Err(EngineError::NotDurable);
        };
        let new_epoch = d.epoch + 1;
        let dir = d.dir.clone();
        let old_wal_bytes = d.wal.size_bytes();

        // 1. The new log must exist before the snapshot that names it can
        //    become the recovery point.
        let (new_wal, _) = Wal::open(&dir.join(wal_file_name(new_epoch)))?;
        // 2. The atomic snapshot rename is the commit point.
        let body = encode_engine_state(self, new_epoch);
        let snapshot_bytes = write_snapshot_file(&dir.join(SNAPSHOT_FILE), &body)?;

        // 3. Only now is the in-memory state switched and the old log dropped.
        let d = self.durability.as_mut().expect("checked above");
        let old_wal_path = d.wal.path().to_path_buf();
        d.wal = new_wal;
        d.epoch = new_epoch;
        d.snapshot_bytes = snapshot_bytes;
        let _ = fs::remove_file(old_wal_path);
        let elapsed_ms = started.elapsed().as_millis() as u64;
        d.last_checkpoint_ms = elapsed_ms;
        Ok(CheckpointInfo {
            snapshot_bytes,
            wal_bytes_discarded: old_wal_bytes,
            elapsed_ms,
        })
    }

    /// Applies one replayed WAL record through the unlogged mutation paths.
    fn apply_wal_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateDataset { name } => self.apply_create_dataset(&name).map(|_| ()),
            WalRecord::DropDataset { name } => self.apply_drop_dataset(&name),
            WalRecord::Ingest { name, trajectories } => {
                self.apply_load_trajectories(&name, trajectories)
            }
            WalRecord::BuildIndex { name, params } => {
                self.apply_build_index(&name, params).map(|_| ())
            }
        }
    }

    /// Appends an already-encoded record to the WAL (no-op when in-memory).
    ///
    /// Journaling runs *after* the mutation has applied (a rejected
    /// statement must never be logged), so a failure here means the
    /// operation took effect in memory but is not crash-durable. The error
    /// says so explicitly: the caller sees a failure whose state is
    /// recoverable by a successful `CHECKPOINT` (which persists the applied
    /// state wholesale and does not need the lost record).
    pub(crate) fn log_record(&mut self, payload: &[u8]) -> Result<()> {
        if let Some(d) = self.durability.as_mut() {
            d.wal.append(payload).map_err(|e| {
                EngineError::Storage(StorageError::Io {
                    context: "journaling a mutation that already applied in memory \
                              (state is queryable but not crash-durable; run CHECKPOINT \
                              to persist it)"
                        .into(),
                    source: e.to_string(),
                })
            })?;
        }
        Ok(())
    }

    pub(crate) fn log_create_dataset(&mut self, name: &str) -> Result<()> {
        if self.durability.is_some() {
            let record = encode_wal_create(name);
            self.log_record(&record)?;
        }
        Ok(())
    }

    pub(crate) fn log_drop_dataset(&mut self, name: &str) -> Result<()> {
        if self.durability.is_some() {
            let record = encode_wal_drop(name);
            self.log_record(&record)?;
        }
        Ok(())
    }

    pub(crate) fn log_build_index(&mut self, name: &str, params: &ReTraTreeParams) -> Result<()> {
        if self.durability.is_some() {
            let record = encode_wal_build_index(name, params);
            self.log_record(&record)?;
        }
        Ok(())
    }
}

/// Takes an exclusive advisory lock on `<dir>/LOCK`, failing fast when
/// another process already owns the data directory — two engines appending
/// to one WAL through independent file cursors would overwrite each other's
/// acknowledged records. On non-unix platforms the lock file is created but
/// not enforced.
fn acquire_dir_lock(dir: &Path) -> std::result::Result<File, StorageError> {
    let path = dir.join("LOCK");
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| StorageError::io(format!("creating {}", path.display()), e))?;
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn flock(fd: i32, operation: i32) -> i32;
        }
        const LOCK_EX: i32 = 2;
        const LOCK_NB: i32 = 4;
        // SAFETY: `flock(2)` reads no memory of ours: it takes a descriptor
        // and an operation, matching the C prototype declared above. The
        // descriptor belongs to `file`, which is open for the whole call.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
            return Err(StorageError::Io {
                context: format!("locking {}", path.display()),
                source: "data directory is already in use by another process".into(),
            });
        }
    }
    Ok(file)
}

/// Removes WAL files from other epochs: leftovers of a checkpoint that
/// crashed between creating the new log and deleting the old one. The
/// snapshot is the single source of truth for which epoch is live.
fn remove_stale_wals(dir: &Path, keep: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("wal-") && name.ends_with(".hlog") && path != keep {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Duration, Point};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hermes-core-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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

    /// The `flights` tree as its snapshot encoding: two trees compare equal
    /// when they would write the same bytes.
    fn encoded_tree(e: &HermesEngine) -> Vec<u8> {
        let mut w = ByteWriter::new();
        tree_persist::encode_tree(&mut w, e.tree("flights").unwrap());
        w.into_bytes()
    }

    fn tree_params() -> ReTraTreeParams {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(4),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 2,
            s2t: hermes_s2t::S2TParams {
                sigma: 60.0,
                epsilon: 400.0,
                min_duration_ms: 120_000,
                ..hermes_s2t::S2TParams::default()
            },
        }
    }

    #[test]
    fn wal_records_round_trip() {
        let trajs = vec![traj(1, 0.0, 0), traj(2, 50.0, 60_000)];
        for (payload, want) in [
            (
                encode_wal_create("flights"),
                WalRecord::CreateDataset {
                    name: "flights".into(),
                },
            ),
            (
                encode_wal_drop("flights"),
                WalRecord::DropDataset {
                    name: "flights".into(),
                },
            ),
            (
                encode_wal_ingest("flights", &trajs),
                WalRecord::Ingest {
                    name: "flights".into(),
                    trajectories: trajs.clone(),
                },
            ),
            (
                encode_wal_build_index("flights", &tree_params()),
                WalRecord::BuildIndex {
                    name: "flights".into(),
                    params: tree_params(),
                },
            ),
        ] {
            assert_eq!(decode_wal_record(&payload).unwrap(), want);
        }
        assert!(decode_wal_record(&[99]).is_err());
        assert!(decode_wal_record(&[]).is_err());
        // Trailing bytes are rejected.
        let mut payload = encode_wal_create("x");
        payload.push(0);
        assert!(decode_wal_record(&payload).is_err());
    }

    #[test]
    fn open_recovers_wal_only_state() {
        let dir = tmp_dir("walonly");
        {
            let mut e = HermesEngine::open(&dir).unwrap();
            assert!(e.stats().durable);
            assert_eq!(e.data_dir(), Some(dir.as_path()));
            e.create_dataset("flights").unwrap();
            e.load_trajectories("flights", vec![traj(1, 0.0, 0), traj(2, 10.0, 0)])
                .unwrap();
            e.create_dataset("doomed").unwrap();
            e.drop_dataset("doomed").unwrap();
        }
        let e = HermesEngine::open(&dir).unwrap();
        assert_eq!(e.list_datasets(), vec!["flights".to_string()]);
        let info = e.dataset_info("flights").unwrap();
        assert_eq!(info.num_trajectories, 2);
        assert_eq!(info.num_points, 60);
        assert!(e.stats().wal_bytes > 8);
        assert_eq!(e.stats().snapshot_bytes, 0, "no checkpoint ran");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_survives_reopen() {
        let dir = tmp_dir("checkpoint");
        {
            let mut e = HermesEngine::open(&dir).unwrap();
            e.create_dataset("flights").unwrap();
            e.load_trajectories(
                "flights",
                (0..12).map(|i| traj(i, i as f64 * 10.0, 0)).collect(),
            )
            .unwrap();
            e.build_index("flights", tree_params()).unwrap();
            let wal_before = e.stats().wal_bytes;
            let info = e.checkpoint().unwrap();
            assert!(info.snapshot_bytes > 0);
            assert_eq!(info.wal_bytes_discarded, wal_before);
            let stats = e.stats();
            assert!(stats.durable);
            assert_eq!(stats.snapshot_bytes, info.snapshot_bytes);
            assert_eq!(stats.wal_bytes, 8, "fresh log is just its header");
            // Post-checkpoint mutations land in the new log.
            e.load_trajectories("flights", vec![traj(99, 40.0, 0)])
                .unwrap();
            assert!(e.stats().wal_bytes > 8);
        }
        let e = HermesEngine::open(&dir).unwrap();
        let info = e.dataset_info("flights").unwrap();
        assert_eq!(info.num_trajectories, 13);
        assert!(info.indexed, "the tree came back from the snapshot");
        // Exactly one WAL file remains.
        let wals = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert_eq!(wals, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_engines_refuse_checkpoint() {
        let mut e = HermesEngine::new();
        assert!(!e.stats().durable);
        assert_eq!(e.data_dir(), None);
        assert!(matches!(e.checkpoint(), Err(EngineError::NotDurable)));
        let stats = e.stats();
        assert!(!stats.durable);
        assert_eq!(stats.wal_bytes, 0);
    }

    #[test]
    fn snapshot_body_round_trips_the_whole_engine() {
        let mut e = HermesEngine::new();
        e.create_dataset("a").unwrap();
        e.create_dataset("b").unwrap();
        e.load_trajectories("a", (0..12).map(|i| traj(i, i as f64 * 10.0, 0)).collect())
            .unwrap();
        e.build_index("a", tree_params()).unwrap();
        e.drop_dataset("b").unwrap();
        e.create_dataset("c").unwrap();

        let body = encode_engine_state(&e, 7);
        let mut back = HermesEngine::new();
        assert_eq!(restore_engine_state(&mut back, &body).unwrap(), 7);
        assert_eq!(back.list_datasets(), e.list_datasets());
        assert_eq!(
            back.dataset_info("a").unwrap(),
            e.dataset_info("a").unwrap()
        );
        // The id allocator continues where it left off: a new dataset gets a
        // fresh id even though 'b' was dropped.
        let id = back.create_dataset("d").unwrap();
        assert_eq!(id, 3);

        // Corruption sweeps: truncations fail cleanly.
        for cut in (0..body.len()).step_by(131) {
            let mut scratch = HermesEngine::new();
            assert!(restore_engine_state(&mut scratch, &body[..cut]).is_err());
        }
        fs::remove_dir_all(tmp_dir("unused")).ok();
    }

    #[test]
    fn an_inverted_catalog_lifespan_is_corrupt_not_a_panic() {
        let mut e = HermesEngine::new();
        e.create_dataset("a").unwrap();
        e.load_trajectories("a", vec![traj(1, 0.0, 0), traj(2, 10.0, 60_000)])
            .unwrap();
        let span = e.dataset_info("a").unwrap().lifespan.unwrap();
        let body = encode_engine_state(&e, 1);
        // Version, epoch, next id, row count; then the row's id, name, two
        // counts and lifespan flag.
        let start = 2 + 8 + 8 + 4 + 8 + (4 + 1) + 8 + 8 + 1;
        assert_eq!(body[start - 1], 1, "the row has a lifespan");
        assert_eq!(body[start..start + 8], span.start.millis().to_le_bytes());

        let mut mutated = body.clone();
        mutated[start..start + 8].copy_from_slice(&(span.end.millis() + 1).to_le_bytes());
        assert!(matches!(
            restore_engine_state(&mut HermesEngine::new(), &mutated),
            Err(StorageError::Corrupt { .. })
        ));
        // One instant is a lifespan.
        mutated[start..start + 8].copy_from_slice(&span.end.millis().to_le_bytes());
        assert!(restore_engine_state(&mut HermesEngine::new(), &mutated).is_ok());
    }

    #[test]
    fn a_version_1_body_opens_and_answers_alike() {
        // One chunk of one sub-chunk: the tree's one sub-chunk ends the
        // body, so the version-1 body is this one with the two leaf-index
        // entry lists of that sub-chunk after it.
        let mut e = HermesEngine::new();
        e.create_dataset("a").unwrap();
        e.load_trajectories("a", (0..12).map(|i| traj(i, i as f64 * 10.0, 0)).collect())
            .unwrap();
        let params = ReTraTreeParams {
            subchunks_per_chunk: 1,
            ..tree_params()
        };
        e.build_index("a", params.clone()).unwrap();
        assert_eq!(e.tree("a").unwrap().num_chunks(), 1);
        let body = encode_engine_state(&e, 5);
        assert_eq!(body[..2], SNAPSHOT_BODY_VERSION.to_le_bytes());
        let v1 = |lists: &[u8]| [&1u16.to_le_bytes()[..], &body[2..], lists].concat();

        let mut back = HermesEngine::new();
        assert_eq!(restore_engine_state(&mut back, &v1(&[0; 8])).unwrap(), 5);
        assert_eq!(encode_engine_state(&back, 5), body, "written back as v2");
        let qut = hermes_retratree::QutParams {
            s2t: params.s2t,
            ..hermes_retratree::QutParams::default()
        };
        for w in [
            TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000)),
            TimeInterval::new(Timestamp(5 * 60_000), Timestamp(20 * 60_000)),
        ] {
            assert_eq!(
                back.run_qut("a", &w, &qut).unwrap().0,
                e.run_qut("a", &w, &qut).unwrap().0
            );
        }

        // A listed box that is inverted is corrupt.
        let mut inverted = ByteWriter::new();
        inverted.u32(1);
        for v in [1.0, 0.0, 0.0, 1.0] {
            inverted.f64(v);
        }
        inverted.i64(0);
        inverted.i64(1);
        inverted.raw(&[0; 18]);
        inverted.u32(0);
        assert!(matches!(
            restore_engine_state(&mut HermesEngine::new(), &v1(inverted.as_bytes())),
            Err(StorageError::Corrupt { .. })
        ));
        // Version 2 has no lists, and there is no version 3.
        let with_lists = [&body[..], &[0; 8]].concat();
        assert!(restore_engine_state(&mut HermesEngine::new(), &with_lists).is_err());
        let mut v3 = body.clone();
        v3[..2].copy_from_slice(&3u16.to_le_bytes());
        assert!(restore_engine_state(&mut HermesEngine::new(), &v3).is_err());
    }

    #[test]
    fn build_index_replays_from_the_wal_deterministically() {
        let dir = tmp_dir("buildreplay");
        let reference = {
            let mut e = HermesEngine::open(&dir).unwrap();
            e.create_dataset("flights").unwrap();
            e.load_trajectories(
                "flights",
                (0..14).map(|i| traj(i, i as f64 * 10.0, 0)).collect(),
            )
            .unwrap();
            e.build_index("flights", tree_params()).unwrap();
            encoded_tree(&e)
        };
        // No checkpoint: everything, including the BUILD INDEX, replays.
        // (Sequential opens: the data-directory lock admits one engine at a
        // time.)
        let first_reorgs = {
            let e = HermesEngine::open(&dir).unwrap();
            assert_eq!(encoded_tree(&e), reference);
            e.tree("flights").unwrap().stats().reorganizations
        };
        let f = HermesEngine::open(&dir).unwrap();
        assert_eq!(
            f.tree("flights").unwrap().stats().reorganizations,
            first_reorgs,
            "replay is reproducible"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_data_directory_lock_rejects_a_second_engine() {
        let dir = tmp_dir("lock");
        let first = HermesEngine::open(&dir).unwrap();
        let second = HermesEngine::open(&dir);
        assert!(
            matches!(
                second,
                Err(EngineError::Storage(StorageError::Io { ref source, .. }))
                    if source.contains("another process")
            ),
            "a concurrent open must be refused"
        );
        // Dropping the first engine releases the lock.
        drop(first);
        assert!(HermesEngine::open(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
