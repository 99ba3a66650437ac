//! TRACLUS: the partition-and-group framework of Lee, Han & Whang (SIGMOD
//! 2007).
//!
//! 1. **Partition** each trajectory at characteristic points chosen by an
//!    approximate MDL criterion (keep a point when describing the movement
//!    through it is cheaper than skipping it).
//! 2. **Group** the resulting line segments with DBSCAN under the weighted
//!    segment distance (perpendicular + parallel + angular components).
//!
//! TRACLUS is purely spatial: timestamps never enter the distance, which is
//! exactly the limitation the Hermes paper highlights. The E2 benchmark uses
//! this implementation to show where the time-aware methods differ.

use crate::dbscan::{dbscan, DbscanLabel};
use hermes_trajectory::{Point, Trajectory, TrajectoryId};

/// Parameters of the TRACLUS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraclusParams {
    /// DBSCAN neighbourhood radius over the segment distance.
    pub eps: f64,
    /// DBSCAN core threshold (minimum number of line segments, `MinLns`).
    pub min_lns: usize,
    /// Minimum length of a partitioned segment; shorter ones are merged.
    pub min_segment_length: f64,
}

impl Default for TraclusParams {
    fn default() -> Self {
        TraclusParams {
            eps: 80.0,
            min_lns: 3,
            min_segment_length: 10.0,
        }
    }
}

/// A directed line segment extracted by the partitioning phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSegment {
    /// Trajectory the segment came from.
    pub trajectory_id: TrajectoryId,
    /// Start point (time is carried along but ignored by the distances).
    pub start: Point,
    /// End point.
    pub end: Point,
}

impl LineSegment {
    fn length(&self) -> f64 {
        self.start.spatial_distance(&self.end)
    }
}

/// Output of [`traclus`].
#[derive(Debug, Clone)]
pub struct TraclusResult {
    /// The partitioned segments, in input order.
    pub segments: Vec<LineSegment>,
    /// DBSCAN label per segment.
    pub labels: Vec<DbscanLabel>,
    /// Number of clusters found.
    pub num_clusters: usize,
}

impl TraclusResult {
    /// Number of segments labelled as noise.
    pub fn num_noise_segments(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| **l == DbscanLabel::Noise)
            .count()
    }
}

// --- MDL partitioning ------------------------------------------------------

fn log2(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

fn perpendicular_and_angle(a: &Point, b: &Point, p: &Point, q: &Point) -> (f64, f64) {
    // Distances of the shorter segment (p,q) from the longer (a,b), following
    // the TRACLUS definitions.
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len_sq = dx * dx + dy * dy;
    let project = |r: &Point| -> (f64, f64) {
        if len_sq == 0.0 {
            return (a.x, a.y);
        }
        let t = ((r.x - a.x) * dx + (r.y - a.y) * dy) / len_sq;
        (a.x + t * dx, a.y + t * dy)
    };
    let (px, py) = project(p);
    let (qx, qy) = project(q);
    let l1 = ((p.x - px).powi(2) + (p.y - py).powi(2)).sqrt();
    let l2 = ((q.x - qx).powi(2) + (q.y - qy).powi(2)).sqrt();
    let perpendicular = if l1 + l2 == 0.0 {
        0.0
    } else {
        (l1 * l1 + l2 * l2) / (l1 + l2)
    };

    let (ex, ey) = (q.x - p.x, q.y - p.y);
    let e_len = (ex * ex + ey * ey).sqrt();
    let ab_len = len_sq.sqrt();
    let angle = if e_len == 0.0 || ab_len == 0.0 {
        0.0
    } else {
        let cos = ((dx * ex + dy * ey) / (ab_len * e_len)).clamp(-1.0, 1.0);
        let sin = (1.0 - cos * cos).sqrt();
        e_len * sin
    };
    (perpendicular, angle)
}

/// MDL cost of describing `points[lo..=hi]` by the single segment (lo, hi):
/// `L(H) + L(D|H)` where `L(D|H)` sums, per original segment, the code length
/// of its perpendicular and angular deviation from the shortcut.
fn mdl_par(points: &[Point], lo: usize, hi: usize) -> f64 {
    let l_h = log2(points[lo].spatial_distance(&points[hi]));
    let mut l_dh = 0.0;
    for k in lo..hi {
        let (p, a) = perpendicular_and_angle(&points[lo], &points[hi], &points[k], &points[k + 1]);
        l_dh += log2(p) + log2(a);
    }
    l_h + l_dh
}

/// MDL cost of keeping every original segment between `lo` and `hi`.
fn mdl_nopar(points: &[Point], lo: usize, hi: usize) -> f64 {
    (lo..hi)
        .map(|k| log2(points[k].spatial_distance(&points[k + 1])))
        .sum()
}

/// Approximate MDL partitioning: returns the indices of the characteristic
/// points (always including the first and last point).
pub fn partition_trajectory(points: &[Point]) -> Vec<usize> {
    let n = points.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut cp = vec![0usize];
    let mut start = 0usize;
    let mut length = 1usize;
    while start + length < n {
        let curr = start + length;
        let cost_par = mdl_par(points, start, curr);
        let cost_nopar = mdl_nopar(points, start, curr);
        if cost_par > cost_nopar {
            cp.push(curr - 1);
            start = curr - 1;
            length = 1;
        } else {
            length += 1;
        }
    }
    if *cp.last().unwrap() != n - 1 {
        cp.push(n - 1);
    }
    cp.dedup();
    cp
}

// --- Segment distance ------------------------------------------------------

/// The TRACLUS segment distance: sum of perpendicular, parallel and angular
/// components (all weights 1, as in the reference implementation).
pub fn segment_distance(a: &LineSegment, b: &LineSegment) -> f64 {
    // Use the longer segment as the base.
    let (longer, shorter) = if a.length() >= b.length() {
        (a, b)
    } else {
        (b, a)
    };
    let (perp, angle) =
        perpendicular_and_angle(&longer.start, &longer.end, &shorter.start, &shorter.end);

    // Parallel distance: how far the shorter segment's projections stick out
    // beyond the longer segment's extent.
    let (dx, dy) = (longer.end.x - longer.start.x, longer.end.y - longer.start.y);
    let len = (dx * dx + dy * dy).sqrt();
    let parallel = if len == 0.0 {
        0.0
    } else {
        let proj = |r: &Point| ((r.x - longer.start.x) * dx + (r.y - longer.start.y) * dy) / len;
        let t1 = proj(&shorter.start);
        let t2 = proj(&shorter.end);
        let before = (-t1.min(t2)).max(0.0);
        let after = (t1.max(t2) - len).max(0.0);
        before.min(after).max(0.0).max(before.min(after))
    };

    perp + parallel + angle
}

// --- The full pipeline -----------------------------------------------------

/// Runs TRACLUS over a set of trajectories.
pub fn traclus(trajectories: &[Trajectory], params: &TraclusParams) -> TraclusResult {
    // Phase 1: partition.
    let mut segments: Vec<LineSegment> = Vec::new();
    for traj in trajectories {
        let cps = partition_trajectory(traj.points());
        for w in cps.windows(2) {
            let seg = LineSegment {
                trajectory_id: traj.id,
                start: traj.points()[w[0]],
                end: traj.points()[w[1]],
            };
            if seg.length() >= params.min_segment_length {
                segments.push(seg);
            }
        }
    }

    // Phase 2: group.
    let labels = dbscan(segments.len(), params.eps, params.min_lns, |i, j| {
        segment_distance(&segments[i], &segments[j])
    });
    let num_clusters = labels
        .iter()
        .filter_map(|l| l.cluster())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);

    TraclusResult {
        segments,
        labels,
        num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::Timestamp;

    /// Distinct trajectories with a segment in cluster `c`.
    fn cluster_trajectories(result: &TraclusResult, c: usize) -> Vec<TrajectoryId> {
        let mut ids: Vec<TrajectoryId> = result
            .segments
            .iter()
            .zip(&result.labels)
            .filter(|(_, l)| l.cluster() == Some(c))
            .map(|(s, _)| s.trajectory_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            id,
            id,
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, Timestamp(i as i64 * 10_000)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn partitioning_keeps_endpoints_and_detects_turns() {
        // An L-shaped path: the corner must be a characteristic point.
        let pts: Vec<Point> = (0..=10)
            .map(|i| Point::new(i as f64 * 100.0, 0.0, Timestamp(i * 10_000)))
            .chain(
                (1..=10)
                    .map(|i| Point::new(1_000.0, i as f64 * 100.0, Timestamp((10 + i) * 10_000))),
            )
            .collect();
        let cps = partition_trajectory(&pts);
        assert_eq!(*cps.first().unwrap(), 0);
        assert_eq!(*cps.last().unwrap(), pts.len() - 1);
        assert!(
            cps.iter().any(|&i| (8..=12).contains(&i)),
            "the corner must be characteristic: {cps:?}"
        );
        // A straight line needs no interior characteristic points.
        let line: Vec<Point> = (0..=10)
            .map(|i| Point::new(i as f64 * 100.0, 0.0, Timestamp(i * 10_000)))
            .collect();
        assert_eq!(partition_trajectory(&line), vec![0, 10]);
    }

    #[test]
    fn segment_distance_is_zero_for_identical_and_grows_with_offset() {
        let s = |y: f64| LineSegment {
            trajectory_id: 0,
            start: Point::new(0.0, y, Timestamp(0)),
            end: Point::new(100.0, y, Timestamp(10_000)),
        };
        assert!(segment_distance(&s(0.0), &s(0.0)) < 1e-9);
        let d5 = segment_distance(&s(0.0), &s(5.0));
        let d50 = segment_distance(&s(0.0), &s(50.0));
        assert!(d5 > 0.0 && d50 > d5);
    }

    #[test]
    fn groups_parallel_segments_and_isolates_the_rest() {
        let mut trajs = Vec::new();
        for k in 0..5 {
            trajs.push(traj(
                k,
                &(0..=10)
                    .map(|i| (i as f64 * 100.0, k as f64 * 10.0))
                    .collect::<Vec<_>>(),
            ));
        }
        // One far-away trajectory heading elsewhere.
        trajs.push(traj(
            9,
            &(0..=10)
                .map(|i| (i as f64 * 100.0, 50_000.0))
                .collect::<Vec<_>>(),
        ));
        let result = traclus(&trajs, &TraclusParams::default());
        assert!(result.num_clusters >= 1);
        let members = cluster_trajectories(&result, 0);
        assert!(
            members.len() >= 4,
            "the bundle must cluster together: {members:?}"
        );
        assert!(!members.contains(&9));
        assert!(result.num_noise_segments() >= 1);
    }

    #[test]
    fn traclus_ignores_time_shifted_movement() {
        // Two identical paths a day apart: TRACLUS clusters them anyway —
        // the behaviour the time-aware methods are designed to avoid.
        let a: Vec<Point> = (0..=10)
            .map(|i| Point::new(i as f64 * 100.0, 0.0, Timestamp(i * 10_000)))
            .collect();
        let b: Vec<Point> = (0..=10)
            .map(|i| Point::new(i as f64 * 100.0, 5.0, Timestamp(86_400_000 + i * 10_000)))
            .collect();
        let c: Vec<Point> = (0..=10)
            .map(|i| {
                Point::new(
                    i as f64 * 100.0,
                    10.0,
                    Timestamp(2 * 86_400_000 + i * 10_000),
                )
            })
            .collect();
        let trajs = vec![
            Trajectory::new(1, 1, a).unwrap(),
            Trajectory::new(2, 2, b).unwrap(),
            Trajectory::new(3, 3, c).unwrap(),
        ];
        let result = traclus(
            &trajs,
            &TraclusParams {
                min_lns: 2,
                ..TraclusParams::default()
            },
        );
        assert!(result.num_clusters >= 1);
        let members = cluster_trajectories(&result, 0);
        assert!(
            members.len() >= 2,
            "purely spatial clustering merges time-shifted movers"
        );
    }

    #[test]
    fn empty_input() {
        let result = traclus(&[], &TraclusParams::default());
        assert_eq!(result.num_clusters, 0);
        assert!(result.segments.is_empty());
    }
}
