//! Urban traffic generator: vehicles on a Manhattan grid.
//!
//! Provides the "urban traffic movement" variant the demo mentions. Vehicles
//! follow L-shaped routes along grid roads (one horizontal and one vertical
//! leg), with a dwell (stop) at the turn — stops matter because the
//! time-aware distance functions must not erase them.

use crate::noise::NoiseModel;
use crate::rng::SplitMix64;
use hermes_trajectory::{Point, Timestamp, Trajectory};

/// Configuration of an urban scenario.
#[derive(Debug, Clone)]
pub struct UrbanScenarioBuilder {
    /// PRNG seed.
    pub seed: u64,
    /// Number of grid rows/columns.
    pub grid_size: usize,
    /// Spacing between grid roads, metres.
    pub block_size: f64,
    /// Number of popular commute corridors; vehicles on the same corridor
    /// share the same route and co-move.
    pub num_corridors: usize,
    /// Vehicles per corridor.
    pub vehicles_per_corridor: usize,
    /// Number of vehicles on random routes (weak or no co-movement).
    pub num_random_vehicles: usize,
    /// Driving speed in m/s.
    pub speed: f64,
    /// Dwell time at the corner turn, milliseconds.
    pub dwell_ms: i64,
    /// Sampling period.
    pub sample_period_ms: i64,
    /// Scenario start.
    pub start: Timestamp,
    /// Departure spread within a corridor, milliseconds.
    pub departure_spread_ms: i64,
    /// GPS noise.
    pub noise: NoiseModel,
}

impl Default for UrbanScenarioBuilder {
    fn default() -> Self {
        UrbanScenarioBuilder {
            seed: 0xC17,
            grid_size: 10,
            block_size: 400.0,
            num_corridors: 3,
            vehicles_per_corridor: 6,
            num_random_vehicles: 6,
            speed: 12.0,
            dwell_ms: 90_000,
            sample_period_ms: 15_000,
            start: Timestamp(0),
            departure_spread_ms: 5 * 60_000,
            noise: NoiseModel {
                position_sigma: 8.0,
                time_sigma_ms: 0.0,
            },
        }
    }
}

/// A generated urban dataset.
#[derive(Debug, Clone)]
pub struct UrbanScenario {
    /// All vehicle trajectories (corridor vehicles first).
    pub trajectories: Vec<Trajectory>,
    /// Corridor index per corridor vehicle.
    pub corridor_of: Vec<usize>,
    /// Ids of the random-route vehicles.
    pub random_ids: Vec<u64>,
}

impl UrbanScenarioBuilder {
    /// Generates the scenario.
    pub fn build(&self) -> UrbanScenario {
        let mut rng = SplitMix64::new(self.seed);
        let mut trajectories = Vec::new();
        let mut corridor_of = Vec::new();
        let mut random_ids = Vec::new();
        let mut id: u64 = 0;
        let g = self.grid_size.max(2);

        // Pick the corridor routes once so all their vehicles share them.
        let mut corridors = Vec::with_capacity(self.num_corridors);
        for _ in 0..self.num_corridors {
            corridors.push(self.random_route(&mut rng, g));
        }

        for (ci, route) in corridors.iter().enumerate() {
            for _ in 0..self.vehicles_per_corridor {
                let depart =
                    self.start.millis() + (rng.next_f64() * self.departure_spread_ms as f64) as i64;
                trajectories.push(self.drive(id, route, depart, &mut rng));
                corridor_of.push(ci);
                id += 1;
            }
        }
        for _ in 0..self.num_random_vehicles {
            let route = self.random_route(&mut rng, g);
            let depart = self.start.millis()
                + (rng.next_f64() * self.departure_spread_ms as f64 * 4.0) as i64;
            random_ids.push(id);
            trajectories.push(self.drive(id, &route, depart, &mut rng));
            id += 1;
        }

        UrbanScenario {
            trajectories,
            corridor_of,
            random_ids,
        }
    }

    /// An L-shaped route between two random grid intersections.
    fn random_route(&self, rng: &mut SplitMix64, g: usize) -> [(f64, f64); 3] {
        let b = self.block_size;
        let (x0, y0) = (rng.index(g) as f64 * b, rng.index(g) as f64 * b);
        let (mut x1, mut y1) = (rng.index(g) as f64 * b, rng.index(g) as f64 * b);
        // Ensure the route actually moves on both axes.
        if x1 == x0 {
            x1 = (x0 + b).min((g - 1) as f64 * b);
        }
        if y1 == y0 {
            y1 = (y0 + b).min((g - 1) as f64 * b);
        }
        [(x0, y0), (x1, y0), (x1, y1)]
    }

    /// Drives a route with a dwell at the corner.
    fn drive(
        &self,
        id: u64,
        route: &[(f64, f64); 3],
        depart_ms: i64,
        rng: &mut SplitMix64,
    ) -> Trajectory {
        let mut pts: Vec<Point> = Vec::new();
        let mut t_ms = depart_ms as f64;
        for (li, leg) in route.windows(2).enumerate() {
            let (from, to) = (leg[0], leg[1]);
            let len = ((to.0 - from.0).powi(2) + (to.1 - from.1).powi(2)).sqrt();
            let duration_ms = len / self.speed * 1_000.0;
            let steps = (duration_ms / self.sample_period_ms as f64).ceil().max(1.0) as usize;
            for i in 0..=steps {
                let f = i as f64 / steps as f64;
                let t = Timestamp((t_ms + duration_ms * f) as i64);
                // Skip duplicate corner sample at the start of the second leg.
                if li > 0 && i == 0 {
                    continue;
                }
                // A leg between two equal grid points (the route fallback
                // cannot move off the last road) takes no time: its end
                // sample would repeat its start sample's timestamp.
                if len == 0.0 && i > 0 {
                    continue;
                }
                pts.push(Point::new(
                    from.0 + (to.0 - from.0) * f,
                    from.1 + (to.1 - from.1) * f,
                    t,
                ));
            }
            t_ms += duration_ms;
            if li == 0 {
                // Dwell at the corner: one sample at the same place, later.
                t_ms += self.dwell_ms as f64;
                pts.push(Point::new(to.0, to.1, Timestamp(t_ms as i64)));
            }
        }
        let raw = Trajectory::new(id, id, pts).expect("generated samples are valid");
        crate::noise::perturb_trajectory(&raw, &self.noise, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_and_determinism() {
        let b = UrbanScenarioBuilder::default();
        let s1 = b.build();
        let s2 = b.build();
        assert_eq!(s1.trajectories.len(), 3 * 6 + 6);
        for (a, b) in s1.trajectories.iter().zip(s2.trajectories.iter()) {
            assert_eq!(a.points(), b.points());
        }
    }

    #[test]
    fn corridor_vehicles_share_their_route() {
        let b = UrbanScenarioBuilder {
            noise: NoiseModel::none(),
            ..UrbanScenarioBuilder::default()
        };
        let s = b.build();
        // Vehicles of corridor 0 start and end at the same grid points.
        let first: Vec<&Trajectory> = s
            .trajectories
            .iter()
            .zip(s.corridor_of.iter())
            .filter(|(_, c)| **c == 0)
            .map(|(t, _)| t)
            .collect();
        assert!(first.len() > 1);
        let start0 = first[0].points().first().unwrap();
        let end0 = first[0].points().last().unwrap();
        for t in &first[1..] {
            let s_p = t.points().first().unwrap();
            let e_p = t.points().last().unwrap();
            assert!(start0.spatial_distance(s_p) < 1.0);
            assert!(end0.spatial_distance(e_p) < 1.0);
        }
    }

    #[test]
    fn vehicles_stop_at_the_corner() {
        let b = UrbanScenarioBuilder {
            noise: NoiseModel::none(),
            ..UrbanScenarioBuilder::default()
        };
        let s = b.build();
        let t = &s.trajectories[0];
        // At least one inter-sample gap equals the dwell time.
        let has_dwell = t
            .points()
            .windows(2)
            .any(|w| (w[1].t - w[0].t).millis() >= b.dwell_ms);
        assert!(has_dwell, "expected a dwell gap in the sampled trajectory");
    }

    #[test]
    fn points_stay_on_the_grid_extent() {
        let b = UrbanScenarioBuilder {
            noise: NoiseModel::none(),
            ..UrbanScenarioBuilder::default()
        };
        let s = b.build();
        let max = (b.grid_size - 1) as f64 * b.block_size;
        for t in &s.trajectories {
            for p in t.points() {
                assert!(p.x >= -1.0 && p.x <= max + 1.0);
                assert!(p.y >= -1.0 && p.y <= max + 1.0);
            }
        }
    }
}
