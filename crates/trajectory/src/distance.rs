//! Trajectory and sub-trajectory distance functions.
//!
//! The clustering algorithms in this workspace rely on *time-synchronized*
//! distances: two objects are compared at the same instants, so the measures
//! capture co-movement rather than mere geometric proximity. This is the key
//! behavioural difference from TRACLUS-style purely spatial distances that the
//! paper calls out ("focusing on the spatial and ignoring the temporal
//! dimension").

use crate::interpolate::{sample_instants_iter, Walk};
use crate::point::Point;
use crate::subtrajectory::SubTrajectory;
use crate::time::TimeInterval;
use crate::trajectory::Trajectory;

/// Number of synchronized sample instants used by the integral distances.
/// Chosen so that a typical sub-trajectory (tens of samples) is evaluated at
/// comparable resolution to its own sampling rate.
const SYNC_SAMPLES: usize = 32;

/// The sum of the distances between the two interpolated positions at
/// [`SYNC_SAMPLES`] evenly spaced instants over `common` — an interval with
/// positive length that both sequences' lifespans cover — added in instant
/// order, each side walked with one forward cursor. `None` as soon as
/// `exceeds(partial sum)` holds; the whole run never heap-allocates.
#[inline]
fn synchronized_sum(
    a: &[Point],
    b: &[Point],
    common: TimeInterval,
    exceeds: impl Fn(f64) -> bool,
) -> Option<f64> {
    let (mut wa, mut wb) = (Walk::new(a), Walk::new(b));
    let mut sum = 0.0;
    for t in sample_instants_iter(common.start, common.end, SYNC_SAMPLES) {
        sum += wa.position_at(t).spatial_distance(&wb.position_at(t));
        if exceeds(sum) {
            return None;
        }
    }
    Some(sum)
}

/// Time-synchronized Euclidean distance between two point sequences over
/// their common lifespan: the mean spatial distance of the two interpolated
/// positions at evenly spaced instants. `None` when the lifespans are
/// disjoint or degenerate. Points must be in non-decreasing time order.
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
    let sum = synchronized_sum(a, b, common, |_| false)?;
    Some(sum / SYNC_SAMPLES as f64)
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

/// How many sub-trajectory distances a caller measured. Pairs whose
/// lifespans share no time cost one interval test and count in neither
/// field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceCounters {
    /// Pairs measured exactly: every synchronized sample walked.
    pub exact: u64,
    /// Pairs stopped before their last sample because the value was
    /// already provably above the caller's limit.
    pub cut_off: u64,
}

impl DistanceCounters {
    /// Accumulates `other` into `self` (both fields are monotone sums).
    pub fn accumulate(&mut self, other: &DistanceCounters) {
        self.exact += other.exact;
        self.cut_off += other.cut_off;
    }
}

/// Spatio-temporal distance between sub-trajectories that *penalizes partial
/// temporal overlap*: the synchronized distance over the common lifespan is
/// divided by the fraction of the two lifespans that is shared. Two
/// sub-trajectories that only briefly co-exist therefore end up farther apart
/// than two that co-move for their whole duration.
///
/// Returns `f64::INFINITY` when there is no temporal overlap at all — such a
/// pair can never be clustered together by a time-aware method.
///
/// **The limit.** A value at most `limit` is returned exactly, bit for bit.
/// Above it the walk may stop early and return `f64::INFINITY` instead: pass
/// `f64::INFINITY` for the exact value always. The value is
/// `(sum / 32) / overlap` over 32 non-negative samples; in round-to-nearest
/// arithmetic adding a non-negative sample never lowers the partial sum, and
/// dividing by a positive constant is monotone, so once
/// `(partial / 32) / overlap > limit` the final value is above `limit` too —
/// the test is the final formula on the partial sum, with no slack. A NaN
/// sample never passes it, so such a pair is measured to the end.
/// `counters` counts the pairs measured exactly and the pairs cut off.
pub fn spatiotemporal_distance(
    a: &SubTrajectory,
    b: &SubTrajectory,
    limit: f64,
    counters: &mut DistanceCounters,
) -> f64 {
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
    let overlap_fraction = common_len / union_len;
    let scaled = |sum: f64| sum / SYNC_SAMPLES as f64 / overlap_fraction;
    // The lifespans are the first and last samples' instants, so `common` is
    // the interval `sub_trajectory_distance` would find, and its length is
    // positive.
    match synchronized_sum(a.points(), b.points(), common, |partial| {
        scaled(partial) > limit
    }) {
        Some(sum) => {
            counters.exact += 1;
            scaled(sum)
        }
        None => {
            counters.cut_off += 1;
            f64::INFINITY
        }
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
        let mut counters = DistanceCounters::default();
        assert_eq!(
            spatiotemporal_distance(&a, &b, f64::INFINITY, &mut counters),
            f64::INFINITY
        );
        assert_eq!(counters, DistanceCounters::default());
    }

    #[test]
    fn partial_overlap_is_penalized() {
        let full = sub(1, &[(0.0, 0.0, 0), (100.0, 0.0, 100_000)]);
        let co_moving = sub(2, &[(0.0, 1.0, 0), (100.0, 1.0, 100_000)]);
        let brief = sub(3, &[(0.0, 1.0, 0), (10.0, 1.0, 10_000)]);
        let mut counters = DistanceCounters::default();
        let d_full = spatiotemporal_distance(&full, &co_moving, f64::INFINITY, &mut counters);
        let d_brief = spatiotemporal_distance(&full, &brief, f64::INFINITY, &mut counters);
        assert_eq!(
            counters,
            DistanceCounters {
                exact: 2,
                cut_off: 0
            }
        );
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

    /// A seeded stream of sub-trajectories: 2 to 40 samples, time steps of
    /// 0 to 90 s (repeated instants included), lifespans that overlap often,
    /// coordinates up to `scale` in magnitude.
    fn random_subs(seed: u64, scale: f64, count: usize) -> Vec<SubTrajectory> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count as u64)
            .map(|id| {
                let n = 2 + (next() % 39) as usize;
                let mut t = (next() % 600_000) as i64;
                let points = (0..n)
                    .map(|_| {
                        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                        let p =
                            Point::new(unit(next()) * scale, unit(next()) * scale, Timestamp(t));
                        t += [0, 1, 7_000, 30_000, 90_000][(next() % 5) as usize];
                        p
                    })
                    .collect();
                SubTrajectory::from_points(SubTrajectoryId::new(id, 0), id, id, points)
            })
            .collect()
    }

    #[test]
    fn the_walk_finds_what_the_binary_search_finds() {
        use crate::interpolate::{position_at, Walk};
        for sub in random_subs(0x5EED, 1e7, 300) {
            let points = sub.points();
            let span = sub.lifespan();
            for n in [2usize, 3, 32, 97] {
                let mut walk = Walk::new(points);
                for t in sample_instants_iter(span.start, span.end, n) {
                    let expected = position_at(points, t).expect("inside the lifespan");
                    let got = walk.position_at(t);
                    assert_eq!(
                        (got.x.to_bits(), got.y.to_bits(), got.t),
                        (expected.x.to_bits(), expected.y.to_bits(), expected.t),
                        "{} samples, instant {t}",
                        points.len()
                    );
                }
            }
        }
    }

    /// The limit never changes a value it admits: at coordinate magnitudes
    /// from 1 to 1e7, whenever the exact distance is at most the limit the
    /// limited call returns its bits, and whenever it is above, the limited
    /// call returns a value above the limit too. Limits sit at, just below
    /// and just above the exact value, and at fractions and multiples of it.
    #[test]
    fn a_limited_distance_is_exact_whenever_it_is_within_the_limit() {
        let mut counters = DistanceCounters::default();
        let mut within = 0usize;
        for (seed, scale) in [(1u64, 1.0), (2, 1e3), (3, 1e5), (4, 1e7)] {
            let subs = random_subs(0xC0FF_EE00 + seed, scale, 120);
            for a in &subs {
                for b in &subs {
                    let exact = spatiotemporal_distance(a, b, f64::INFINITY, &mut counters);
                    if !exact.is_finite() {
                        continue;
                    }
                    let limits = [
                        exact,
                        f64::from_bits(exact.to_bits() + 1),
                        if exact > 0.0 {
                            f64::from_bits(exact.to_bits() - 1)
                        } else {
                            0.0
                        },
                        exact * 0.5,
                        exact * 0.999,
                        exact * 1.001,
                        exact * 2.0,
                        0.0,
                    ];
                    for limit in limits {
                        let limited = spatiotemporal_distance(a, b, limit, &mut counters);
                        if exact <= limit {
                            within += 1;
                            assert_eq!(
                                limited.to_bits(),
                                exact.to_bits(),
                                "limit {limit} changed {exact}"
                            );
                        } else {
                            assert!(limited > limit, "{limited} at limit {limit}, exact {exact}");
                        }
                    }
                }
            }
        }
        assert!(within > 10_000, "too few admitted pairs: {within}");
        assert!(counters.cut_off > 10_000, "too few cut-offs: {counters:?}");
    }
}
