//! Durability integration tests: snapshot + WAL persistence exercised
//! end-to-end through the public facade.
//!
//! The two headline properties of `docs/STORAGE.md` are asserted here:
//!
//! * **Restart equivalence** — after ingest + `BUILD INDEX` (+ optionally
//!   `CHECKPOINT`), an engine reopened from its data directory answers
//!   QUT/S2T/RANGE/HISTOGRAM with frames identical to an engine that never
//!   restarted.
//! * **Torn-tail recovery** — killing the process mid-WAL-append (simulated
//!   by truncating the log at *every byte boundary* of the tail record)
//!   recovers exactly the last durable prefix, never an error, never a
//!   partial record.

use hermes::prelude::*;
use hermes::sql;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermes-persistence-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small seeded urban workload — the determinism-harness dataset family
/// (the `hermes-bench` `urban_with` recipe, shrunk).
fn urban(vehicles_per_corridor: usize, seed: u64) -> Vec<Trajectory> {
    UrbanScenarioBuilder {
        seed,
        grid_size: 12,
        num_corridors: 3,
        vehicles_per_corridor,
        num_random_vehicles: 4,
        ..UrbanScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn s2t_params() -> S2TParams {
    S2TParams {
        sigma: 150.0,
        epsilon: 500.0,
        min_duration_ms: 2 * 60_000,
        ..S2TParams::default()
    }
}

fn tree_params() -> ReTraTreeParams {
    ReTraTreeParams {
        chunk_duration: Duration::from_hours(2),
        subchunks_per_chunk: 4,
        reorg_page_threshold: 2,
        s2t: s2t_params(),
    }
}

fn populate(engine: &mut HermesEngine, trajectories: &[Trajectory]) {
    engine.create_dataset("data").unwrap();
    engine
        .load_trajectories("data", trajectories.to_vec())
        .unwrap();
    engine.build_index("data", tree_params()).unwrap();
}

/// The read-side queries both engines must answer identically. QUT, the
/// rebuild baseline, a temporal range count and the VA histogram all reach
/// deep into the restored ReTraTree (cluster entries, leaf indexes, stored
/// partitions).
const QUERIES: &[&str] = &[
    "SELECT QUT(data, 0, 1800000, 0.35, 0.05, 120000, 500, 900000);",
    "SELECT QUT(data, 600000, 2400000, 0.35, 0.05, 120000, 500, 900000);",
    "SELECT QUT_REBUILD(data, 0, 1800000, 0.35, 0.05, 120000);",
    "SELECT RANGE(data, 0, 3600000);",
    "SELECT HISTOGRAM(data, 0, 1800000, 600000);",
    "SELECT S2T(data, 150, 0.35, 0.05, 120000, 500);",
    "SELECT INFO(data);",
];

/// Asserts that both engines answer every read query with an identical
/// result frame (the per-query stats frame carries wall-clock timings and is
/// deliberately excluded).
fn assert_same_answers(a: &mut HermesEngine, b: &mut HermesEngine, context: &str) {
    for query in QUERIES {
        let fa = sql::execute(a, query)
            .unwrap_or_else(|e| panic!("{context}: {query} on reference: {e}"))
            .expect_frame(query)
            .clone();
        let fb = sql::execute(b, query)
            .unwrap_or_else(|e| panic!("{context}: {query} on restored: {e}"))
            .expect_frame(query)
            .clone();
        assert_eq!(fa, fb, "{context}: {query}");
        // Frame equality compares typed values; the Debug rendering also
        // pins the float formatting, catching 0.0 / -0.0 style divergence.
        assert_eq!(format!("{fa:?}"), format!("{fb:?}"), "{context}: {query}");
    }
}

#[test]
fn restart_equivalence_after_checkpoint() {
    let dir = tmp_dir("restart-ckpt");
    let trajectories = urban(6, 0x5EED);

    // The never-restarted reference engine.
    let mut reference = HermesEngine::new();
    populate(&mut reference, &trajectories);

    // The durable engine: same operations, then CHECKPOINT, then "crash".
    {
        let mut durable = HermesEngine::open(&dir).unwrap();
        populate(&mut durable, &trajectories);
        let outcome = sql::execute(&mut durable, "CHECKPOINT;").unwrap();
        assert!(outcome.command().unwrap().affected > 0);
        // Pre-restart sanity: durable == reference while still live.
        assert_same_answers(&mut reference, &mut durable, "pre-restart");
    }

    // Reopen purely from the snapshot (the WAL is just a header now).
    let mut restored = HermesEngine::open(&dir).unwrap();
    assert!(restored.is_durable());
    let stats = restored.stats();
    assert!(stats.snapshot_bytes > 0);
    assert_eq!(stats.wal_bytes, 8);
    assert_eq!(
        restored.dataset_info("data").unwrap(),
        reference.dataset_info("data").unwrap()
    );
    assert!(restored.dataset_info("data").unwrap().indexed);
    assert_same_answers(&mut reference, &mut restored, "post-restart");

    // The restored engine is fully live: more ingest + a fresh checkpoint.
    restored
        .load_trajectories("data", urban(1, 0xFEED))
        .unwrap();
    restored.checkpoint().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_equivalence_from_wal_replay_alone() {
    let dir = tmp_dir("restart-wal");
    let trajectories = urban(4, 0xAC);

    let mut reference = HermesEngine::new();
    populate(&mut reference, &trajectories);

    {
        let mut durable = HermesEngine::open(&dir).unwrap();
        populate(&mut durable, &trajectories);
        // No checkpoint: create + ingest + BUILD INDEX all replay from the
        // log, the index by deterministically re-running the build.
    }
    let mut restored = HermesEngine::open(&dir).unwrap();
    assert_eq!(restored.stats().snapshot_bytes, 0, "no snapshot exists");
    assert!(restored.dataset_info("data").unwrap().indexed);
    assert_same_answers(&mut reference, &mut restored, "wal-replay");
    fs::remove_dir_all(&dir).ok();
}

/// The single `wal-*.hlog` file of a data directory.
fn wal_file(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".hlog"))
        })
        .collect();
    assert_eq!(wals.len(), 1, "exactly one WAL per data directory");
    wals.pop().unwrap()
}

/// Copies a data directory, truncating its WAL to `wal_len` bytes — the
/// on-disk state a crash at that exact byte would leave behind.
fn crashed_copy(src: &Path, dst: &Path, wal_len: u64) -> PathBuf {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap().flatten() {
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from == wal_file(src) {
            let bytes = fs::read(&from).unwrap();
            fs::write(&to, &bytes[..wal_len as usize]).unwrap();
        } else {
            fs::copy(&from, &to).unwrap();
        }
    }
    dst.to_path_buf()
}

#[test]
fn torn_tail_sweep_recovers_the_durable_prefix() {
    let dir = tmp_dir("torn-src");
    let scratch = tmp_dir("torn-dst");
    let first = urban(2, 0x01);
    let second: Vec<Trajectory> = urban(2, 0x02).into_iter().take(1).collect();

    let tail_start;
    {
        let mut e = HermesEngine::open(&dir).unwrap();
        e.create_dataset("data").unwrap();
        e.load_trajectories("data", first.clone()).unwrap();
        tail_start = fs::metadata(wal_file(&dir)).unwrap().len();
        e.load_trajectories("data", second).unwrap();
    }
    let full_len = fs::metadata(wal_file(&dir)).unwrap().len();
    assert!(full_len > tail_start, "the tail record must exist");

    // Kill mid-append at every byte boundary of the tail record.
    for cut in tail_start..full_len {
        let crashed = crashed_copy(&dir, &scratch, cut);
        let e = HermesEngine::open(&crashed)
            .unwrap_or_else(|err| panic!("recovery after a cut at byte {cut} must succeed: {err}"));
        let info = e.dataset_info("data").unwrap();
        assert_eq!(
            info.num_trajectories,
            first.len(),
            "cut at byte {cut}: exactly the durable prefix survives"
        );
        assert_eq!(e.trajectories("data").unwrap(), first.as_slice());
    }

    // The untouched directory recovers everything, including the tail.
    let e = HermesEngine::open(&dir).unwrap();
    assert_eq!(
        e.dataset_info("data").unwrap().num_trajectories,
        first.len() + 1
    );
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&scratch).ok();
}

#[test]
fn torn_tail_after_a_checkpoint_recovers_snapshot_plus_prefix() {
    let dir = tmp_dir("torn-ckpt-src");
    let scratch = tmp_dir("torn-ckpt-dst");
    let base = urban(3, 0x10);
    let after_a: Vec<Trajectory> = urban(2, 0x11).into_iter().take(2).collect();
    let after_b: Vec<Trajectory> = urban(2, 0x12).into_iter().take(1).collect();

    let tail_start;
    {
        let mut e = HermesEngine::open(&dir).unwrap();
        populate(&mut e, &base);
        e.checkpoint().unwrap();
        e.load_trajectories("data", after_a.clone()).unwrap();
        tail_start = fs::metadata(wal_file(&dir)).unwrap().len();
        e.load_trajectories("data", after_b).unwrap();
    }
    let full_len = fs::metadata(wal_file(&dir)).unwrap().len();

    // A denser-than-every-byte sweep is already covered above; here every
    // 7th boundary keeps the checkpoint interaction fast but thorough.
    for cut in (tail_start..full_len).step_by(7) {
        let crashed = crashed_copy(&dir, &scratch, cut);
        let e = HermesEngine::open(&crashed).unwrap();
        let info = e.dataset_info("data").unwrap();
        assert_eq!(
            info.num_trajectories,
            base.len() + after_a.len(),
            "cut at byte {cut}: snapshot + durable prefix"
        );
        assert!(info.indexed, "the index came back from the snapshot");
    }
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&scratch).ok();
}

#[test]
fn persistence_stats_surface_through_show_stats() {
    let dir = tmp_dir("stats");
    let mut e = HermesEngine::open(&dir).unwrap();
    e.create_dataset("data").unwrap();
    e.load_trajectories("data", urban(2, 0x77)).unwrap();

    let metric = |e: &mut HermesEngine, name: &str| -> i64 {
        let outcome = sql::execute(e, "SHOW STATS;").unwrap();
        let frame = outcome.expect_frame("SHOW STATS");
        let value = frame
            .rows()
            .find(|row| row[1].as_str() == Some(name))
            .and_then(|row| row[2].as_i64())
            .unwrap_or_else(|| panic!("metric {name} missing"));
        value
    };
    assert_eq!(metric(&mut e, "durable"), 1);
    assert!(metric(&mut e, "wal_bytes") > 8);
    assert_eq!(metric(&mut e, "snapshot_bytes"), 0);
    assert_eq!(metric(&mut e, "last_checkpoint_ms"), 0);

    sql::execute(&mut e, "CHECKPOINT;").unwrap();
    assert!(metric(&mut e, "snapshot_bytes") > 0);
    assert_eq!(metric(&mut e, "wal_bytes"), 8);
    fs::remove_dir_all(&dir).ok();
}
