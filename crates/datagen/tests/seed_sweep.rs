//! No seed may panic a scenario builder.
//!
//! Sixty-odd tests and benches build scenarios from hand-picked seeds; until
//! the zero-length-leg fix in `urban.rs` most other seeds panicked the urban
//! builder (`NonMonotonicTime`: 25 of 200 at 36 vehicles, 188 of 200 at 800).
//! This sweeps 200 seeds per size for every builder, at the sizes the tests
//! and benches use, and checks what a caller relies on: the cardinality asked
//! for, and trajectories that are valid by construction (`Trajectory::new`
//! inside the builders rejects non-monotonic time).

use hermes_datagen::{AircraftScenarioBuilder, MaritimeScenarioBuilder, UrbanScenarioBuilder};

const SEEDS: u64 = 200;

#[test]
fn urban_builder_builds_every_seed_at_every_size() {
    for vehicles in [36usize, 120, 400, 800] {
        // The shape `hermes_bench::urban_with` gives `vehicles`.
        let per_corridor = (vehicles * 3 / 4 / 3).max(1);
        let random = (vehicles / 4).max(1);
        for seed in 0..SEEDS {
            let scenario = UrbanScenarioBuilder {
                seed,
                grid_size: 12,
                num_corridors: 3,
                vehicles_per_corridor: per_corridor,
                num_random_vehicles: random,
                ..UrbanScenarioBuilder::default()
            }
            .build();
            assert_eq!(
                scenario.trajectories.len(),
                3 * per_corridor + random,
                "{vehicles} vehicles, seed {seed}"
            );
            for t in &scenario.trajectories {
                assert!(t.num_segments() >= 1, "{vehicles} vehicles, seed {seed}");
            }
        }
    }
}

#[test]
fn a_route_stuck_on_the_last_road_still_drives() {
    // A 2 × 2 grid makes the degenerate route common: an end point drawn
    // equal to the start on the far road cannot be moved off it, so one leg
    // (or both) has length zero.
    for seed in 0..SEEDS {
        let scenario = UrbanScenarioBuilder {
            seed,
            grid_size: 2,
            ..UrbanScenarioBuilder::default()
        }
        .build();
        for t in &scenario.trajectories {
            for w in t.points().windows(2) {
                assert!(w[0].t < w[1].t, "seed {seed}: time must increase");
            }
        }
    }
}

#[test]
fn aircraft_builder_builds_every_seed() {
    for flights_per_wave in [4usize, 21] {
        for seed in 0..SEEDS {
            let scenario = AircraftScenarioBuilder {
                seed,
                num_streams: 4,
                waves_per_stream: 8,
                flights_per_wave,
                num_stragglers: 4 * 8 * flights_per_wave / 10,
                holding_probability: 0.3,
                ..AircraftScenarioBuilder::default()
            }
            .build();
            let clustered = 4 * 8 * flights_per_wave;
            assert_eq!(
                scenario.trajectories.len(),
                clustered + clustered / 10,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn maritime_builder_builds_every_seed() {
    for vessels_per_lane in [6usize, 40] {
        for seed in 0..SEEDS {
            let scenario = MaritimeScenarioBuilder {
                seed,
                num_lanes: 3,
                vessels_per_lane,
                num_rogues: 4,
                ..MaritimeScenarioBuilder::default()
            }
            .build();
            assert_eq!(
                scenario.trajectories.len(),
                3 * vessels_per_lane + 4,
                "seed {seed}"
            );
        }
    }
}
