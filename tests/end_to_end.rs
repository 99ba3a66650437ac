//! Cross-crate integration tests: the whole engine exercised end-to-end
//! through the public facade, the way the examples and the demo scenarios
//! use it.

use hermes::prelude::*;
use hermes::retratree::QutParams;
use hermes::sql;
use hermes::sql::{CommandTag, Value};
use hermes::va::{cluster_map_csv, space_time_cube_csv};

fn aircraft() -> hermes::datagen::AircraftScenario {
    AircraftScenarioBuilder {
        seed: 1234,
        num_streams: 3,
        waves_per_stream: 2,
        flights_per_wave: 5,
        num_stragglers: 3,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
}

fn s2t_params() -> S2TParams {
    S2TParams {
        sigma: 2_000.0,
        epsilon: 6_000.0,
        min_duration_ms: 5 * 60_000,
        ..S2TParams::default()
    }
}

fn indexed_engine(scenario: &hermes::datagen::AircraftScenario) -> HermesEngine {
    let mut engine = HermesEngine::new();
    engine.create_dataset("flights").unwrap();
    engine
        .load_trajectories("flights", scenario.trajectories.clone())
        .unwrap();
    engine
        .build_index(
            "flights",
            ReTraTreeParams {
                chunk_duration: Duration::from_hours(2),
                s2t: s2t_params(),
                ..ReTraTreeParams::default()
            },
        )
        .unwrap();
    engine
}

#[test]
fn s2t_accounts_for_every_flight_and_finds_the_streams() {
    let scenario = aircraft();
    let outcome = run_s2t(&scenario.trajectories, &s2t_params());

    // Every sub-trajectory produced by segmentation ends up exactly once in a
    // cluster or in the outlier set.
    assert_eq!(
        outcome.result.total_sub_trajectories(),
        outcome.sub_trajectories.len()
    );
    // The arrival streams produce genuine co-movement: several clusters and a
    // high coverage.
    let quality = ClusteringQuality::compute(&outcome.result);
    assert!(
        quality.num_clusters >= 3,
        "expected several stream clusters, got {}",
        quality.num_clusters
    );
    assert!(quality.coverage > 0.5, "coverage {}", quality.coverage);
    // Stragglers should mostly stay unclustered.
    let clustered_stragglers = outcome
        .result
        .clusters
        .iter()
        .flat_map(|c| c.members.iter().chain(std::iter::once(&c.representative)))
        .filter(|s| scenario.straggler_ids.contains(&s.trajectory_id))
        .count();
    assert!(
        clustered_stragglers <= scenario.straggler_ids.len(),
        "stragglers must not dominate clusters"
    );
}

#[test]
fn indexed_and_naive_s2t_agree_through_the_engine() {
    let scenario = aircraft();
    let mut engine = HermesEngine::new();
    engine.create_dataset("flights").unwrap();
    engine
        .load_trajectories("flights", scenario.trajectories.clone())
        .unwrap();
    let fast = engine.run_s2t("flights", &s2t_params()).unwrap();
    let slow = engine.run_s2t_naive("flights", &s2t_params()).unwrap();
    assert_eq!(fast.result.num_clusters(), slow.result.num_clusters());
    assert_eq!(fast.result.num_outliers(), slow.result.num_outliers());
}

#[test]
fn qut_answers_arbitrary_windows_consistently() {
    let scenario = aircraft();
    let engine = indexed_engine(&scenario);
    let tree = engine.tree("flights").unwrap();
    let span = tree.lifespan().unwrap();
    let qut = QutParams {
        s2t: s2t_params(),
        merge_distance: 6_000.0,
        merge_gap: Duration::from_mins(30),
    };

    let mut previous_loaded = 0usize;
    for pct in [20, 40, 60, 80, 100] {
        let w = TimeInterval::new(
            span.start,
            span.start + Duration::from_millis(span.length().millis() * pct / 100),
        );
        let (result, stats) = engine.run_qut("flights", &w, &qut).unwrap();
        // Everything returned intersects the window.
        for c in &result.clusters {
            assert!(c.lifespan().intersects(&w));
        }
        for o in &result.outliers {
            assert!(o.lifespan.intersects(&w));
        }
        // Wider windows never touch less data.
        assert!(stats.loaded_sub_trajectories >= previous_loaded);
        previous_loaded = stats.loaded_sub_trajectories;
    }

    // The full window accounts for every stored piece.
    let (full, _) = engine.run_qut("flights", &span, &qut).unwrap();
    assert_eq!(full.total_sub_trajectories(), tree.total_population());
}

#[test]
fn qut_and_rebuild_agree_on_cluster_count_for_aligned_windows() {
    let scenario = aircraft();
    let engine = indexed_engine(&scenario);
    let span = engine.tree("flights").unwrap().lifespan().unwrap();
    let qut = QutParams {
        s2t: s2t_params(),
        merge_distance: 6_000.0,
        merge_gap: Duration::from_mins(30),
    };
    // Chunk-aligned window: first chunk only.
    let w = TimeInterval::new(span.start, span.start + Duration::from_hours(2));
    let (fast, fast_stats) = engine.run_qut("flights", &w, &qut).unwrap();
    let (slow, _) = engine
        .run_window_rebuild("flights", &w, &s2t_params())
        .unwrap();
    assert_eq!(fast_stats.reclustered_subchunks, 0);
    assert_eq!(fast.total_sub_trajectories(), slow.total_sub_trajectories());
    // Cluster counts may differ by cross-boundary merges only.
    assert!(fast.num_clusters() <= slow.num_clusters());
    assert!(fast.num_clusters() >= 1);
}

#[test]
fn incremental_inserts_keep_the_tree_queryable() {
    let scenario = aircraft();
    let (initial, streamed) = scenario
        .trajectories
        .split_at(scenario.trajectories.len() / 2);
    let mut engine = HermesEngine::new();
    engine.create_dataset("flights").unwrap();
    engine
        .load_trajectories("flights", initial.to_vec())
        .unwrap();
    engine
        .build_index(
            "flights",
            ReTraTreeParams {
                chunk_duration: Duration::from_hours(2),
                reorg_page_threshold: 2,
                s2t: s2t_params(),
                ..ReTraTreeParams::default()
            },
        )
        .unwrap();
    let before = engine.tree("flights").unwrap().total_population();
    for t in streamed {
        engine
            .load_trajectories("flights", vec![t.clone()])
            .unwrap();
    }
    let tree = engine.tree("flights").unwrap();
    assert!(tree.total_population() > before);
    let stats = tree.stats();
    assert_eq!(stats.inserted_trajectories, scenario.trajectories.len());
    // The full-span query still accounts for everything.
    let span = tree.lifespan().unwrap();
    let (result, _) = engine
        .run_qut(
            "flights",
            &span,
            &QutParams {
                s2t: s2t_params(),
                merge_distance: 6_000.0,
                merge_gap: Duration::from_mins(30),
            },
        )
        .unwrap();
    assert_eq!(result.total_sub_trajectories(), tree.total_population());
}

#[test]
fn sql_session_covers_the_demo_walkthrough() {
    let scenario = aircraft();
    let mut engine = HermesEngine::new();
    let created = sql::execute(&mut engine, "CREATE DATASET flights;").unwrap();
    assert_eq!(created.command().unwrap().tag, CommandTag::CreateDataset);
    engine
        .load_trajectories("flights", scenario.trajectories.clone())
        .unwrap();

    let info = sql::execute(&mut engine, "SELECT INFO(flights);").unwrap();
    assert_eq!(
        info.expect_frame("INFO").get(0, "trajectories"),
        Some(&Value::Int(scenario.trajectories.len() as i64))
    );

    let s2t = sql::execute(
        &mut engine,
        "SELECT S2T(flights, 2000, 0.35, 0.05, 300000, 6000);",
    )
    .unwrap();
    assert!(s2t.num_rows() > 2);
    // The cluster frame is typed: window bounds are timestamps, distances
    // floats — no strings anywhere before the display edge.
    let frame = s2t.expect_frame("S2T");
    assert!(matches!(frame.get(0, "start"), Some(Value::Timestamp(_))));
    assert!(matches!(
        frame.get(0, "mean_distance"),
        Some(Value::Float(_))
    ));

    let built = sql::execute(&mut engine, "BUILD INDEX ON flights WITH CHUNK 2 HOURS;").unwrap();
    assert_eq!(
        built.command().unwrap().affected,
        scenario.trajectories.len() as u64
    );
    let range = sql::execute(&mut engine, "SELECT RANGE(flights, 0, 3600000);").unwrap();
    let in_window = range
        .expect_frame("RANGE")
        .get(0, "sub_trajectories_in_window")
        .unwrap()
        .as_i64()
        .unwrap();
    assert!(in_window > 0);

    let qut = sql::execute(
        &mut engine,
        "SELECT QUT(flights, 0, 7200000, 0.35, 0.05, 300000, 6000, 1800000);",
    )
    .unwrap();
    assert!(qut.num_rows() >= 2);
    let rebuild = sql::execute(
        &mut engine,
        "SELECT QUT_REBUILD(flights, 0, 7200000, 0.35, 0.05, 300000);",
    )
    .unwrap();
    assert!(rebuild.num_rows() >= 2);

    let shown = sql::execute(&mut engine, "SHOW DATASETS;").unwrap();
    assert_eq!(
        shown.expect_frame("SHOW").column("dataset"),
        Some(&[Value::from("flights")][..])
    );
}

#[test]
fn prepared_qut_windows_execute_without_reparsing() {
    let scenario = aircraft();
    let mut engine = indexed_engine(&scenario);
    let span = engine.tree("flights").unwrap().lifespan().unwrap();
    let mut session = Session::new(&mut engine);

    let qut = session
        .prepare("SELECT QUT(flights, $1, $2, 0.35, 0.05, 300000, 6000, 1800000);")
        .unwrap();
    assert_eq!(session.stats().parses, 1);

    // Two different windows through the one cached plan.
    let half = span.start + Duration::from_millis(span.length().millis() / 2);
    let first = session
        .execute_prepared(qut, &[Value::Timestamp(span.start), Value::Timestamp(half)])
        .unwrap();
    let second = session
        .execute_prepared(
            qut,
            &[Value::Timestamp(span.start), Value::Timestamp(span.end)],
        )
        .unwrap();
    // The cache-hit/parse-count assertion: one parse, two executions.
    assert_eq!(session.stats().parses, 1);
    assert_eq!(session.stats().executions, 2);

    // Both executions answered from the tree, the wider window seeing at
    // least as much data.
    let loaded = |o: &hermes::sql::QueryOutcome| {
        o.stats()
            .unwrap()
            .get(0, "loaded_sub_trajectories")
            .unwrap()
            .as_i64()
            .unwrap()
    };
    assert!(loaded(&second) >= loaded(&first));
    assert!(first.num_rows() >= 1 && second.num_rows() >= 1);

    // Preparing the same text again is a cache hit, not a parse.
    let again = session
        .prepare("SELECT QUT(flights, $1, $2, 0.35, 0.05, 300000, 6000, 1800000);")
        .unwrap();
    assert_eq!(again, qut);
    assert_eq!(session.stats().parses, 1);
    assert_eq!(session.stats().cache_hits, 1);
}

#[test]
fn va_exports_are_well_formed_and_holding_patterns_are_found() {
    let scenario = aircraft();
    let outcome = run_s2t(&scenario.trajectories, &s2t_params());

    let svg = cluster_map_svg(&outcome.result, 800, 600);
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
    let expected_polylines = outcome.result.total_sub_trajectories();
    assert_eq!(svg.matches("<polyline").count(), expected_polylines);

    let csv = cluster_map_csv(&outcome.result);
    assert!(csv.lines().count() > expected_polylines);

    let hist = time_histogram(&outcome.result, Duration::from_mins(15));
    assert!(hist.num_buckets() > 0);
    let totals = hist.totals();
    assert!(totals.iter().sum::<usize>() > 0);

    let cube = space_time_cube_csv("run", &outcome.result);
    assert!(cube.lines().count() > 1);

    // Holding flights exist in the scenario and at least half are detected.
    let holdings = detect_holding_patterns(&outcome.result, 1.4, 1.0);
    let detected: Vec<u64> = holdings.iter().map(|h| h.trajectory_id).collect();
    let recovered = scenario
        .holding_flight_ids
        .iter()
        .filter(|id| detected.contains(id))
        .count();
    assert!(
        recovered * 2 >= scenario.holding_flight_ids.len(),
        "recovered only {recovered} of {} holding flights",
        scenario.holding_flight_ids.len()
    );
}

#[test]
fn two_parameterisations_compare_like_figure_3() {
    let scenario = aircraft();
    let tight = run_s2t(&scenario.trajectories, &s2t_params());
    let loose = run_s2t(
        &scenario.trajectories,
        &S2TParams {
            sigma: 4_000.0,
            epsilon: 12_000.0,
            min_duration_ms: 5 * 60_000,
            ..S2TParams::default()
        },
    );
    let cmp = compare_runs(&tight.result, &loose.result, 6_000.0);
    assert!(
        !cmp.matched.is_empty(),
        "the dominant streams must appear in both runs"
    );
    assert!(cmp.agreement() > 0.0 && cmp.agreement() <= 1.0);
    // The looser run keeps at least as many flights clustered.
    assert!(
        ClusteringQuality::compute(&loose.result).coverage + 1e-9
            >= ClusteringQuality::compute(&tight.result).coverage * 0.8
    );
}
