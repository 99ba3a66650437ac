//! Determinism of intra-query parallel execution: for seeded urban and
//! maritime datasets, S2T and QuT answered with 2/4/8 compute threads must
//! be *identical* to the serial answer — same votes bit for bit, same
//! clusters, same members, same outliers, same counters. The scheduler may
//! interleave however it likes; the result may not change.

use hermes::exec::{ExecPolicy, Executor};
use hermes::prelude::*;
use hermes::retratree::{qut_clustering_with, QutParams, ReTraTree};
use hermes::s2t::{run_s2t, run_s2t_with, S2TOutcome};

fn urban_trajectories() -> Vec<Trajectory> {
    UrbanScenarioBuilder {
        seed: 2024,
        grid_size: 12,
        num_corridors: 3,
        vehicles_per_corridor: 6,
        num_random_vehicles: 8,
        ..UrbanScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn urban_s2t() -> S2TParams {
    S2TParams::builder()
        .sigma(60.0)
        .epsilon(250.0)
        .min_duration_ms(3 * 60_000)
        .build()
        .unwrap()
}

fn maritime_trajectories() -> Vec<Trajectory> {
    MaritimeScenarioBuilder {
        seed: 0x5EA,
        num_lanes: 3,
        vessels_per_lane: 7,
        num_rogues: 4,
        departure_spread_ms: 30 * 60_000,
        ..MaritimeScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn maritime_s2t() -> S2TParams {
    S2TParams::builder()
        .sigma(800.0)
        .epsilon(2_500.0)
        .min_duration_ms(10 * 60_000)
        .build()
        .unwrap()
}

/// Every thread count the satellite task calls for.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Full structural equality of two S2T outcomes (timings excluded — they are
/// wall-clock).
fn assert_outcomes_identical(serial: &S2TOutcome, parallel: &S2TOutcome, label: &str) {
    // Votes are compared exactly: same f64 bits, not "close enough".
    assert_eq!(
        serial.profiles, parallel.profiles,
        "{label}: voting profiles"
    );
    assert_eq!(
        serial.sub_trajectories.len(),
        parallel.sub_trajectories.len(),
        "{label}: segmentation"
    );
    for (a, b) in serial
        .sub_trajectories
        .iter()
        .zip(parallel.sub_trajectories.iter())
    {
        assert_eq!(a.sub.id, b.sub.id, "{label}: sub-trajectory ids");
        assert_eq!(a.sub.points(), b.sub.points(), "{label}: piece geometry");
        assert_eq!(a.mean_vote, b.mean_vote, "{label}: piece votes");
    }
    assert_eq!(
        serial.result.num_clusters(),
        parallel.result.num_clusters(),
        "{label}: cluster count"
    );
    for (a, b) in serial
        .result
        .clusters
        .iter()
        .zip(parallel.result.clusters.iter())
    {
        assert_eq!(a.id, b.id, "{label}: cluster ids");
        assert_eq!(a.representative.id, b.representative.id, "{label}: seeds");
        assert_eq!(
            a.representative_vote, b.representative_vote,
            "{label}: seed votes"
        );
        assert_eq!(
            a.members.iter().map(|m| m.id).collect::<Vec<_>>(),
            b.members.iter().map(|m| m.id).collect::<Vec<_>>(),
            "{label}: member sets"
        );
        assert_eq!(a.member_distances, b.member_distances, "{label}: distances");
    }
    assert_eq!(
        serial
            .result
            .outliers
            .iter()
            .map(|o| o.id)
            .collect::<Vec<_>>(),
        parallel
            .result
            .outliers
            .iter()
            .map(|o| o.id)
            .collect::<Vec<_>>(),
        "{label}: outliers"
    );
}

fn check_s2t_determinism(trajectories: &[Trajectory], params: &S2TParams, label: &str) {
    let serial = run_s2t(trajectories, params);
    assert!(
        serial.result.num_clusters() >= 1,
        "{label}: the workload must actually cluster"
    );
    for threads in THREAD_COUNTS {
        let exec = Executor::new(ExecPolicy { threads });
        let parallel = run_s2t_with(trajectories, params, &exec);
        assert_outcomes_identical(&serial, &parallel, &format!("{label}/threads={threads}"));
    }
}

#[test]
fn parallel_s2t_is_identical_to_serial_on_urban_data() {
    check_s2t_determinism(&urban_trajectories(), &urban_s2t(), "urban");
}

#[test]
fn parallel_s2t_is_identical_to_serial_on_maritime_data() {
    check_s2t_determinism(&maritime_trajectories(), &maritime_s2t(), "maritime");
}

/// A tree as its snapshot encoding: equal bytes, equal trees.
fn encoded(tree: &ReTraTree) -> Vec<u8> {
    let mut w = hermes::storage::ByteWriter::new();
    hermes::retratree::encode_tree(&mut w, tree);
    w.into_bytes()
}

fn check_qut_determinism(trajectories: &[Trajectory], s2t: S2TParams, label: &str) {
    let tree_params = ReTraTreeParams::builder()
        .chunk_duration(Duration::from_hours(2))
        .subchunks_per_chunk(4)
        .s2t(s2t.clone())
        .build()
        .unwrap();
    let qut_params = QutParams::builder()
        .s2t(s2t)
        .merge_distance(2_500.0)
        .merge_gap(Duration::from_mins(45))
        .build()
        .unwrap();

    let tree = ReTraTree::build_from(tree_params.clone(), trajectories);
    let tree_bytes = encoded(&tree);
    // A window cutting through sub-chunks exercises level-3 reuse, border
    // re-clustering and cross-boundary merging at once; one on the
    // sub-chunk grid is covered sub-chunks only.
    let span = tree.lifespan().expect("populated tree");
    let sub = tree.subchunk_duration().millis();
    let windows = [
        TimeInterval::new(
            Timestamp(span.start.millis() + 20 * 60_000),
            Timestamp(span.end.millis() - 20 * 60_000),
        ),
        TimeInterval::new(
            Timestamp((span.start.millis().div_euclid(sub) + 1) * sub),
            Timestamp(span.end.millis().div_euclid(sub) * sub),
        ),
    ];
    // Each window asked cold, then warm: the cold ask computes on the
    // pool, the warm one answers from what the cold one stored. A record
    // per ask: the answer, its counters and both memos' hits and misses.
    let asks = |tree: &ReTraTree, exec: &Executor| {
        let mut record = Vec::new();
        for w in &windows {
            for _pass in ["cold", "warm"] {
                let (result, stats) = qut_clustering_with(tree, w, &qut_params, exec);
                let (border, edges) = (tree.border_memo_stats(), tree.merge_edge_stats());
                record.push((
                    result,
                    [
                        stats.reused_subchunks,
                        stats.reclustered_subchunks,
                        stats.loaded_sub_trajectories,
                        stats.merges,
                    ],
                    [border.hits, border.misses, edges.hits, edges.misses],
                ));
            }
        }
        record
    };
    let serial = asks(&tree, &Executor::serial());
    // [reused, reclustered] of each window's cold ask.
    assert!(
        serial[0].1[0] > 0 && serial[0].1[1] == 2,
        "{label}: borders"
    );
    assert!(serial[2].1[0] > 1 && serial[2].1[1] == 0, "{label}: grid");
    for threads in THREAD_COUNTS {
        // The index build itself must be deterministic under parallel
        // construction before query answers can be compared.
        let exec = Executor::new(ExecPolicy { threads });
        let parallel_tree = ReTraTree::build_from_with(tree_params.clone(), trajectories, &exec);
        assert_eq!(
            encoded(&parallel_tree),
            tree_bytes,
            "{label}/threads={threads}: tree bytes"
        );
        assert_eq!(
            parallel_tree.total_clusters(),
            tree.total_clusters(),
            "{label}/threads={threads}: level-3 entries"
        );
        let parallel = asks(&parallel_tree, &exec);
        for (k, (got, expected)) in parallel.iter().zip(&serial).enumerate() {
            let label = format!(
                "{label}/threads={threads}/window {}/{}",
                k / 2,
                ["cold", "warm"][k % 2]
            );
            assert_eq!(got.0, expected.0, "{label}: answer");
            // Counters merged from per-worker QutStats stay exact.
            assert_eq!(
                got.1, expected.1,
                "{label}: reused, reclustered, loads, merges"
            );
            assert_eq!(
                got.2, expected.2,
                "{label}: border and merge-edge memo hits, misses"
            );
        }
    }
}

#[test]
fn parallel_qut_is_identical_to_serial_on_urban_data() {
    check_qut_determinism(&urban_trajectories(), urban_s2t(), "urban");
}

#[test]
fn parallel_qut_is_identical_to_serial_on_maritime_data() {
    check_qut_determinism(&maritime_trajectories(), maritime_s2t(), "maritime");
}

#[test]
fn engine_level_queries_are_thread_count_invariant() {
    // The same comparison end-to-end through the SQL session, driving the
    // thread count with SET threads between runs.
    let mut engine = HermesEngine::with_exec_policy(ExecPolicy::serial());
    engine.create_dataset("sea").unwrap();
    engine
        .load_trajectories("sea", maritime_trajectories())
        .unwrap();
    let mut session = Session::new(&mut engine);
    session
        .execute("BUILD INDEX ON sea WITH CHUNK 2 HOURS SIGMA 800 EPSILON 2500;")
        .unwrap();
    let serial = session
        .execute("SELECT QUT(sea, 0, 7200000, 0.35, 0.05, 600000, 2500, 2700000);")
        .unwrap();
    let serial_frame = serial.expect_frame("QUT").clone();

    for threads in THREAD_COUNTS {
        session
            .execute(&format!("SET threads = {threads};"))
            .unwrap();
        let outcome = session
            .execute("SELECT QUT(sea, 0, 7200000, 0.35, 0.05, 600000, 2500, 2700000);")
            .unwrap();
        assert_eq!(
            outcome.expect_frame("QUT"),
            &serial_frame,
            "threads = {threads}"
        );
    }
}
