//! Measurement-noise and outlier injection shared by all generators.

use crate::rng::SplitMix64;
use hermes_trajectory::{Point, Timestamp, Trajectory};

/// Gaussian GPS jitter applied to every generated sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the positional jitter, in spatial units.
    pub position_sigma: f64,
    /// Standard deviation of the per-sample timestamp jitter, in
    /// milliseconds (samples stay strictly ordered).
    pub time_sigma_ms: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            position_sigma: 5.0,
            time_sigma_ms: 0.0,
        }
    }
}

impl NoiseModel {
    /// Applies jitter to a point.
    pub fn perturb(&self, p: Point, rng: &mut SplitMix64) -> Point {
        let dx = rng.gaussian() * self.position_sigma;
        let dy = rng.gaussian() * self.position_sigma;
        let dt = (rng.gaussian() * self.time_sigma_ms) as i64;
        Point::new(p.x + dx, p.y + dy, Timestamp(p.t.millis() + dt))
    }
}

#[cfg(test)]
impl NoiseModel {
    /// A noiseless model, for tests that need exact geometry.
    pub(crate) fn none() -> Self {
        NoiseModel {
            position_sigma: 0.0,
            time_sigma_ms: 0.0,
        }
    }
}

/// Applies a noise model to an entire trajectory, preserving strict temporal
/// order by sorting and de-duplicating timestamps afterwards.
pub fn perturb_trajectory(
    traj: &Trajectory,
    noise: &NoiseModel,
    rng: &mut SplitMix64,
) -> Trajectory {
    let mut pts: Vec<Point> = traj
        .points()
        .iter()
        .map(|p| noise.perturb(*p, rng))
        .collect();
    pts.sort_by_key(|p| p.t);
    pts.dedup_by_key(|p| p.t);
    Trajectory::new(traj.id, traj.object_id, pts).unwrap_or_else(|_| traj.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight(id: u64) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..20)
                .map(|i| Point::new(i as f64 * 100.0, 0.0, Timestamp(i as i64 * 10_000)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn zero_noise_is_identity() {
        let t = straight(1);
        let mut rng = SplitMix64::new(1);
        let n = perturb_trajectory(&t, &NoiseModel::none(), &mut rng);
        assert_eq!(n.points(), t.points());
    }

    #[test]
    fn noise_moves_points_but_preserves_validity() {
        let t = straight(1);
        let mut rng = SplitMix64::new(1);
        let noise = NoiseModel {
            position_sigma: 10.0,
            time_sigma_ms: 500.0,
        };
        let n = perturb_trajectory(&t, &noise, &mut rng);
        assert_eq!(n.id, t.id);
        assert!(n.len() >= 2);
        // Strict temporal order is preserved.
        for w in n.points().windows(2) {
            assert!(w[0].t < w[1].t);
        }
        // At least some points actually moved.
        let moved = n
            .points()
            .iter()
            .zip(t.points())
            .filter(|(a, b)| a.spatial_distance(b) > 0.1)
            .count();
        assert!(moved > 10);
    }

    #[test]
    fn perturbation_magnitude_tracks_sigma() {
        let t = straight(1);
        let mut rng = SplitMix64::new(9);
        let small = NoiseModel {
            position_sigma: 1.0,
            time_sigma_ms: 0.0,
        };
        let large = NoiseModel {
            position_sigma: 50.0,
            time_sigma_ms: 0.0,
        };
        let mean_displacement = |n: &Trajectory| {
            n.points()
                .iter()
                .zip(t.points())
                .map(|(a, b)| a.spatial_distance(b))
                .sum::<f64>()
                / n.len() as f64
        };
        let d_small = mean_displacement(&perturb_trajectory(&t, &small, &mut rng));
        let d_large = mean_displacement(&perturb_trajectory(&t, &large, &mut rng));
        assert!(d_large > d_small * 5.0);
    }
}
