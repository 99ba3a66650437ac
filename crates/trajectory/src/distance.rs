//! Trajectory and sub-trajectory distance functions.
//!
//! The clustering algorithms in this workspace rely on *time-synchronized*
//! distances: two objects are compared at the same instants, so the measures
//! capture co-movement rather than mere geometric proximity. This is the key
//! behavioural difference from TRACLUS-style purely spatial distances that the
//! paper calls out ("focusing on the spatial and ignoring the temporal
//! dimension").

use crate::interpolate::{position_at, sample_instants_iter};
use crate::point::Point;
use crate::subtrajectory::SubTrajectory;
use crate::time::TimeInterval;
use crate::trajectory::Trajectory;

/// Number of synchronized sample instants used by the integral distances.
/// Chosen so that a typical sub-trajectory (tens of samples) is evaluated at
/// comparable resolution to its own sampling rate.
const SYNC_SAMPLES: usize = 32;

/// Time-synchronized Euclidean distance between two point sequences over
/// their common lifespan: the mean spatial distance of the two interpolated
/// positions at evenly spaced instants. `None` when the lifespans are
/// disjoint or degenerate.
pub fn synchronized_euclidean_points(a: &[Point], b: &[Point]) -> Option<f64> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let ia = TimeInterval::new(a[0].t, a[a.len() - 1].t);
    let ib = TimeInterval::new(b[0].t, b[b.len() - 1].t);
    let common = ia.intersection(&ib)?;
    if common.length().millis() == 0 {
        return None;
    }
    // Lazy instants: the whole integral runs without a heap allocation.
    let mut sum = 0.0;
    let mut n = 0usize;
    for t in sample_instants_iter(common.start, common.end, SYNC_SAMPLES) {
        if let (Some(p), Some(q)) = (position_at(a, t), position_at(b, t)) {
            sum += p.spatial_distance(&q);
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Time-synchronized Euclidean distance between two whole trajectories.
/// See [`synchronized_euclidean_points`].
pub fn synchronized_euclidean(a: &Trajectory, b: &Trajectory) -> Option<f64> {
    synchronized_euclidean_points(a.points(), b.points())
}

/// Time-synchronized distance between two sub-trajectories over their common
/// lifespan; `None` when they do not temporally overlap.
pub fn sub_trajectory_distance(a: &SubTrajectory, b: &SubTrajectory) -> Option<f64> {
    synchronized_euclidean_points(a.points(), b.points())
}

/// Spatio-temporal distance between sub-trajectories that *penalizes partial
/// temporal overlap*: the synchronized distance over the common lifespan is
/// divided by the fraction of the two lifespans that is shared. Two
/// sub-trajectories that only briefly co-exist therefore end up farther apart
/// than two that co-move for their whole duration.
///
/// Returns `f64::INFINITY` when there is no temporal overlap at all — such a
/// pair can never be clustered together by a time-aware method.
pub fn spatiotemporal_distance(a: &SubTrajectory, b: &SubTrajectory) -> f64 {
    let la = a.lifespan();
    let lb = b.lifespan();
    let Some(common) = la.intersection(&lb) else {
        return f64::INFINITY;
    };
    let union_len = la.union(&lb).length().as_secs_f64();
    let common_len = common.length().as_secs_f64();
    if union_len <= 0.0 || common_len <= 0.0 {
        return f64::INFINITY;
    }
    match sub_trajectory_distance(a, b) {
        Some(d) => {
            let overlap_fraction = common_len / union_len;
            d / overlap_fraction
        }
        None => f64::INFINITY,
    }
}

/// Discrete, symmetric Hausdorff-style distance between the spatial shapes of
/// two point sequences (time ignored). Used by the shape-based baselines and
/// by representative comparison in the VA exports.
pub fn hausdorff_distance(a: &[Point], b: &[Point]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let directed = |from: &[Point], to: &[Point]| -> f64 {
        from.iter()
            .map(|p| {
                to.iter()
                    .map(|q| p.spatial_distance(q))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    };
    directed(a, b).max(directed(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtrajectory::SubTrajectoryId;
    use crate::time::Timestamp;

    fn traj(id: u64, pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::new(
            id,
            id,
            pts.iter()
                .map(|&(x, y, t)| Point::new(x, y, Timestamp(t)))
                .collect(),
        )
        .unwrap()
    }

    fn sub(id: u64, pts: &[(f64, f64, i64)]) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            pts.iter()
                .map(|&(x, y, t)| Point::new(x, y, Timestamp(t)))
                .collect(),
        )
    }

    #[test]
    fn parallel_movers_have_constant_synchronized_distance() {
        let a = traj(1, &[(0.0, 0.0, 0), (100.0, 0.0, 100_000)]);
        let b = traj(2, &[(0.0, 7.0, 0), (100.0, 7.0, 100_000)]);
        let d = synchronized_euclidean(&a, &b).unwrap();
        assert!((d - 7.0).abs() < 1e-9);
    }

    #[test]
    fn same_path_different_times_is_far() {
        // Identical geometry, but B traverses it while A is already far ahead.
        let a = traj(1, &[(0.0, 0.0, 0), (1000.0, 0.0, 1_000_000)]);
        let b = traj(2, &[(0.0, 0.0, 500_000), (1000.0, 0.0, 1_500_000)]);
        let d = synchronized_euclidean(&a, &b).unwrap();
        assert!(
            d > 400.0,
            "time-aware distance must expose the lag, got {d}"
        );
        // A purely spatial Hausdorff distance would report ~0.
        assert!(hausdorff_distance(a.points(), b.points()) < 1e-9);
    }

    #[test]
    fn disjoint_lifespans_yield_none_and_infinite_st_distance() {
        let a = sub(1, &[(0.0, 0.0, 0), (1.0, 0.0, 1_000)]);
        let b = sub(2, &[(0.0, 0.0, 10_000), (1.0, 0.0, 11_000)]);
        assert_eq!(sub_trajectory_distance(&a, &b), None);
        assert_eq!(spatiotemporal_distance(&a, &b), f64::INFINITY);
    }

    #[test]
    fn partial_overlap_is_penalized() {
        let full = sub(1, &[(0.0, 0.0, 0), (100.0, 0.0, 100_000)]);
        let co_moving = sub(2, &[(0.0, 1.0, 0), (100.0, 1.0, 100_000)]);
        let brief = sub(3, &[(0.0, 1.0, 0), (10.0, 1.0, 10_000)]);
        let d_full = spatiotemporal_distance(&full, &co_moving);
        let d_brief = spatiotemporal_distance(&full, &brief);
        assert!((d_full - 1.0).abs() < 1e-6);
        assert!(
            d_brief > d_full * 5.0,
            "a 10% overlap should be penalized ~10x: {d_brief} vs {d_full}"
        );
    }

    #[test]
    fn hausdorff_is_symmetric_and_zero_for_identical_shapes() {
        let a = traj(1, &[(0.0, 0.0, 0), (5.0, 5.0, 1_000), (10.0, 0.0, 2_000)]);
        let b = traj(2, &[(0.0, 0.0, 500), (5.0, 5.0, 1_500), (10.0, 0.0, 2_500)]);
        assert_eq!(hausdorff_distance(a.points(), b.points()), 0.0);
        let c = traj(3, &[(0.0, 10.0, 0), (10.0, 10.0, 2_000)]);
        let d_ab = hausdorff_distance(a.points(), c.points());
        let d_ba = hausdorff_distance(c.points(), a.points());
        assert_eq!(d_ab, d_ba);
        assert!(d_ab > 0.0);
    }

    #[test]
    fn synchronized_distance_is_symmetric() {
        let a = traj(
            1,
            &[(0.0, 0.0, 0), (50.0, 10.0, 60_000), (100.0, 0.0, 120_000)],
        );
        let b = traj(
            2,
            &[(5.0, 5.0, 0), (45.0, 20.0, 60_000), (90.0, 10.0, 120_000)],
        );
        let d1 = synchronized_euclidean(&a, &b).unwrap();
        let d2 = synchronized_euclidean(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
        assert!(d1 > 0.0);
    }
}
