//! Integration test for the external-data ingestion path: geodetic CSV →
//! local projection → engine → clustering. This is the route a user with a
//! real GPS/ADS-B/AIS extract would take.

use hermes::prelude::*;
use hermes::trajectory::{parse_csv, parse_geo_csv, to_csv, GeoPoint};
use std::fmt::Write as _;

/// Builds a geodetic CSV with two streams of co-moving aircraft east and
/// north of a reference point, plus one loner.
fn geo_csv() -> String {
    let mut csv = String::from("object_id,trajectory_id,lon,lat,t_ms\n");
    // Stream 1: four aircraft flying east along 51.5°N, a few hundred metres apart.
    for k in 0..4u64 {
        for i in 0..20i64 {
            let lon = -0.5 + 0.005 * i as f64;
            let lat = 51.5 + 0.001 * k as f64;
            let _ = writeln!(csv, "{k},{k},{lon},{lat},{}", i * 60_000);
        }
    }
    // Stream 2: three aircraft flying north along 0.2°E, later in the day.
    for k in 4..7u64 {
        for i in 0..20i64 {
            let lon = 0.2 + 0.001 * (k - 4) as f64;
            let lat = 51.0 + 0.004 * i as f64;
            let _ = writeln!(csv, "{k},{k},{lon},{lat},{}", 4 * 3_600_000 + i * 60_000);
        }
    }
    // A loner far away.
    for i in 0..20i64 {
        let _ = writeln!(
            csv,
            "9,9,{},{},{}",
            -1.5 + 0.005 * i as f64,
            50.2,
            i * 60_000
        );
    }
    csv
}

#[test]
fn geodetic_csv_flows_into_the_clustering_pipeline() {
    let (import, projection) = parse_geo_csv(&geo_csv());
    assert!(import.rejected.is_empty(), "{:?}", import.rejected);
    assert_eq!(import.trajectories.len(), 8);

    // Projected coordinates are metro-scale metres around the centroid.
    for t in &import.trajectories {
        for p in t.points() {
            assert!(p.x.abs() < 200_000.0 && p.y.abs() < 200_000.0);
        }
    }

    let params = S2TParams {
        sigma: 500.0,
        epsilon: 2_000.0,
        min_duration_ms: 5 * 60_000,
        ..S2TParams::default()
    };
    let outcome = run_s2t(&import.trajectories, &params);
    assert_eq!(
        outcome.result.num_clusters(),
        2,
        "the two streams must be found"
    );
    assert!(
        outcome.result.num_outliers() >= 1,
        "the loner must stay unclustered"
    );

    // Results lie inside the projection of the input area.
    let rep = &outcome.result.clusters[0].representative;
    let low = projection.project(&GeoPoint::new(-2.0, 50.0, Timestamp(0)));
    let high = projection.project(&GeoPoint::new(1.0, 52.0, Timestamp(0)));
    assert!((low.x..high.x).contains(&rep.points()[0].x));
    assert!((low.y..high.y).contains(&rep.points()[0].y));
}

#[test]
fn planar_csv_round_trip_preserves_the_dataset() {
    let scenario = AircraftScenarioBuilder {
        seed: 5,
        num_streams: 2,
        waves_per_stream: 1,
        flights_per_wave: 3,
        num_stragglers: 1,
        ..AircraftScenarioBuilder::default()
    }
    .build();
    let csv = to_csv(&scenario.trajectories);
    let import = parse_csv(&csv);
    assert!(import.rejected.is_empty());
    assert_eq!(import.trajectories.len(), scenario.trajectories.len());
    let total_points_in: usize = scenario.trajectories.iter().map(|t| t.len()).sum();
    let total_points_out: usize = import.trajectories.iter().map(|t| t.len()).sum();
    assert_eq!(total_points_in, total_points_out);

    // The re-imported dataset clusters the same way as the original.
    let params = S2TParams {
        sigma: 2_000.0,
        epsilon: 6_000.0,
        min_duration_ms: 5 * 60_000,
        ..S2TParams::default()
    };
    let a = run_s2t(&scenario.trajectories, &params);
    let b = run_s2t(&import.trajectories, &params);
    assert_eq!(a.result.num_clusters(), b.result.num_clusters());
    assert_eq!(a.result.num_outliers(), b.result.num_outliers());
}
