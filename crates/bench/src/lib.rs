//! The paper's experiments E1–E7 and the seeded workloads they share.
//!
//! Every benchmark target in `benches/` regenerates one experiment of the
//! ICDE 2018 demo paper (one table, figure or claim) and prints it as an
//! aligned table on stderr. The helpers here build the standard synthetic
//! workloads and parameter sets, so the benches, the integration tests and
//! the documentation agree on exactly what was measured.
//!
//! **Layer:** out-of-band measurement over the public surface of the
//! compute crates. System costs — serving, durability, sharding,
//! observability — are measured end to end by `benchmark/`, not here.

use hermes_datagen::{
    AircraftScenario, AircraftScenarioBuilder, MaritimeScenario, MaritimeScenarioBuilder,
    UrbanScenario, UrbanScenarioBuilder,
};
use hermes_retratree::{QutParams, ReTraTreeParams};
use hermes_s2t::S2TParams;
use hermes_trajectory::Duration;

pub mod harness;

/// The S2T parameter set used for aircraft workloads across the experiments.
pub fn aircraft_s2t_params() -> S2TParams {
    S2TParams {
        sigma: 2_000.0,
        epsilon: 6_000.0,
        min_duration_ms: 5 * 60_000,
        ..S2TParams::default()
    }
}

/// The S2T parameter set used for urban (commute-grid) workloads.
pub fn urban_s2t_params() -> S2TParams {
    S2TParams {
        sigma: 60.0,
        epsilon: 250.0,
        min_duration_ms: 3 * 60_000,
        ..S2TParams::default()
    }
}

/// An urban commute scenario with roughly `vehicles` vehicles (corridor
/// traffic plus ~25% random routes), deterministic in `seed`. The standard
/// voting-hot-path workload: dense grids with many co-moving segments.
pub fn urban_with(vehicles: usize, seed: u64) -> UrbanScenario {
    let per_corridor = (vehicles * 3 / 4 / 3).max(1);
    UrbanScenarioBuilder {
        seed,
        grid_size: 12,
        num_corridors: 3,
        vehicles_per_corridor: per_corridor,
        num_random_vehicles: (vehicles / 4).max(1),
        ..UrbanScenarioBuilder::default()
    }
    .build()
}

/// The S2T parameter set used for maritime workloads.
pub fn maritime_s2t_params() -> S2TParams {
    S2TParams {
        sigma: 800.0,
        epsilon: 2_500.0,
        min_duration_ms: 10 * 60_000,
        ..S2TParams::default()
    }
}

/// ReTraTree parameters used by the QuT experiments.
pub fn tree_params(s2t: S2TParams) -> ReTraTreeParams {
    ReTraTreeParams {
        chunk_duration: Duration::from_hours(2),
        subchunks_per_chunk: 4,
        reorg_page_threshold: 4,
        s2t,
    }
}

/// QuT parameters used by the window experiments.
pub fn qut_params(s2t: S2TParams) -> QutParams {
    QutParams {
        s2t,
        merge_distance: 2_500.0,
        merge_gap: Duration::from_mins(45),
    }
}

/// An aircraft scenario with roughly `flights` flights (streams × waves ×
/// flights-per-wave, plus ~10% stragglers), deterministic in `seed`.
pub fn aircraft_with(flights: usize, seed: u64) -> AircraftScenario {
    let per_wave = (flights / 6).max(1);
    AircraftScenarioBuilder {
        seed,
        num_streams: 3,
        waves_per_stream: 2,
        flights_per_wave: per_wave,
        num_stragglers: (flights / 10).max(1),
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
}

/// The standard maritime scenario used by the E3/E6 experiments.
pub fn maritime_standard(seed: u64) -> MaritimeScenario {
    MaritimeScenarioBuilder {
        seed,
        num_lanes: 3,
        vessels_per_lane: 10,
        num_rogues: 5,
        departure_spread_ms: 40 * 60_000,
        ..MaritimeScenarioBuilder::default()
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_workloads() {
        let a = aircraft_with(30, 1);
        let b = aircraft_with(30, 1);
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 30, "requested ~30 flights, got {}", a.len());
        let m = maritime_standard(1);
        assert_eq!(m.trajectories.len(), 35);
        assert!(aircraft_s2t_params().validate().is_ok());
        assert!(tree_params(maritime_s2t_params()).validate().is_ok());
        assert!(qut_params(maritime_s2t_params()).validate().is_ok());
    }
}
