//! Trajectories: the complete movement history of one object.

use crate::error::TrajectoryError;
use crate::interpolate;
use crate::mbb::Mbb;
use crate::point::Point;
use crate::segment::Segment;
use crate::subtrajectory::{SubTrajectory, SubTrajectoryId};
use crate::time::{Duration, TimeInterval, Timestamp};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// Identifier of a moving object (vessel, aircraft, vehicle, …).
pub type ObjectId = u64;

/// Identifier of a trajectory within a dataset.
pub type TrajectoryId = u64;

/// The movement history of a single object: a time-ordered sequence of
/// samples with strictly increasing timestamps.
///
/// Trajectories are immutable after construction; the points are stored in an
/// `Arc` so sub-trajectories can share them without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Dataset-unique identifier of this trajectory.
    pub id: TrajectoryId,
    /// The moving object this trajectory belongs to.
    pub object_id: ObjectId,
    points: Arc<Vec<Point>>,
    mbb: Mbb,
}

impl Trajectory {
    /// Builds a trajectory, validating monotonic time and finite coordinates.
    pub fn new(id: TrajectoryId, object_id: ObjectId, points: Vec<Point>) -> Result<Self> {
        if points.len() < 2 {
            return Err(TrajectoryError::TooFewPoints { got: points.len() });
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(TrajectoryError::NonFiniteCoordinate { index: i });
            }
            if i > 0 && p.t <= points[i - 1].t {
                return Err(TrajectoryError::NonMonotonicTime {
                    index: i,
                    previous: points[i - 1].t,
                    current: p.t,
                });
            }
        }
        let mbb = Mbb::from_points(&points);
        Ok(Trajectory {
            id,
            object_id,
            points: Arc::new(points),
            mbb,
        })
    }

    /// The raw samples.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Shared handle to the samples (used by [`SubTrajectory`]).
    pub fn shared_points(&self) -> Arc<Vec<Point>> {
        Arc::clone(&self.points)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: construction requires at least two samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of segments (`len() - 1`).
    pub fn num_segments(&self) -> usize {
        self.points.len() - 1
    }

    /// The `i`-th segment.
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.points[i], self.points[i + 1])
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// First sample time.
    pub fn start_time(&self) -> Timestamp {
        self.points[0].t
    }

    /// Last sample time.
    pub fn end_time(&self) -> Timestamp {
        self.points[self.points.len() - 1].t
    }

    /// The trajectory's lifespan.
    pub fn lifespan(&self) -> TimeInterval {
        TimeInterval::new(self.start_time(), self.end_time())
    }

    /// Duration of the trajectory.
    pub fn duration(&self) -> Duration {
        self.end_time() - self.start_time()
    }

    /// The 3D bounding box of all samples.
    pub fn mbb(&self) -> Mbb {
        self.mbb
    }

    /// Total travelled spatial length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Interpolated position at time `t`; `None` outside the lifespan.
    pub fn position_at(&self, t: Timestamp) -> Option<Point> {
        interpolate::position_at(&self.points, t)
    }

    /// Restricts the trajectory to the temporal window `w`, interpolating new
    /// boundary samples where the window cuts a segment.
    ///
    /// Returns [`TrajectoryError::EmptySlice`] when the window does not
    /// overlap the lifespan or the overlap is a single instant.
    pub fn temporal_slice(&self, w: &TimeInterval) -> Result<Trajectory> {
        let overlap = w
            .intersection(&self.lifespan())
            .ok_or(TrajectoryError::EmptySlice)?;
        if overlap.length() == Duration::ZERO {
            return Err(TrajectoryError::EmptySlice);
        }
        let mut pts: Vec<Point> = Vec::new();
        if let Some(p) = self.position_at(overlap.start) {
            pts.push(p);
        }
        for p in self.points.iter() {
            if p.t > overlap.start && p.t < overlap.end {
                pts.push(*p);
            }
        }
        if let Some(p) = self.position_at(overlap.end) {
            // Avoid duplicating an existing boundary sample.
            if pts.last().map(|l| l.t != p.t).unwrap_or(true) {
                pts.push(p);
            }
        }
        if pts.len() < 2 {
            return Err(TrajectoryError::EmptySlice);
        }
        Trajectory::new(self.id, self.object_id, pts)
    }

    /// Extracts the sub-trajectory covering points `start..end` (end
    /// exclusive, at least two points).
    pub fn sub_trajectory(&self, start: usize, end: usize) -> Result<SubTrajectory> {
        if start + 2 > end || end > self.points.len() {
            return Err(TrajectoryError::InvalidRange {
                start,
                end,
                len: self.points.len(),
            });
        }
        Ok(SubTrajectory::from_shared(
            SubTrajectoryId::new(self.id, start as u32),
            self.id,
            self.object_id,
            self.shared_points(),
            start,
            end,
        ))
    }

    /// Splits the trajectory into sub-trajectories at the given point indices
    /// (each index becomes the first point of the next sub-trajectory, and is
    /// shared with the previous one so that no segment is lost).
    ///
    /// Out-of-range, duplicate, and boundary indices are ignored.
    pub fn split_at(&self, cut_points: &[usize]) -> Vec<SubTrajectory> {
        let mut cuts: Vec<usize> = cut_points
            .iter()
            .copied()
            .filter(|&i| i > 0 && i + 1 < self.points.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut result = Vec::with_capacity(cuts.len() + 1);
        let mut begin = 0usize;
        for &c in &cuts {
            // A cut at index c ends the current piece at point c (inclusive).
            result.push(
                self.sub_trajectory(begin, c + 1)
                    .expect("cut indices validated above"),
            );
            begin = c;
        }
        result.push(
            self.sub_trajectory(begin, self.points.len())
                .expect("tail range is always valid"),
        );
        result
    }
}

impl fmt::Display for Trajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trajectory#{} (object {}, {} points, {})",
            self.id,
            self.object_id,
            self.len(),
            self.lifespan()
        )
    }
}

/// Convenience builder collecting samples before validation.
#[derive(Debug, Default, Clone)]
pub struct TrajectoryBuilder {
    id: TrajectoryId,
    object_id: ObjectId,
    points: Vec<Point>,
}

impl TrajectoryBuilder {
    /// Starts a builder for trajectory `id` of object `object_id`.
    pub fn new(id: TrajectoryId, object_id: ObjectId) -> Self {
        TrajectoryBuilder {
            id,
            object_id,
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64, t: Timestamp) -> &mut Self {
        self.points.push(Point::new(x, y, t));
        self
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Validates and builds the trajectory.
    pub fn build(self) -> Result<Trajectory> {
        Trajectory::new(self.id, self.object_id, self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn construction_validates_input() {
        assert!(matches!(
            Trajectory::new(1, 1, vec![Point::new(0.0, 0.0, Timestamp(0))]),
            Err(TrajectoryError::TooFewPoints { got: 1 })
        ));
        assert!(matches!(
            Trajectory::new(
                1,
                1,
                vec![
                    Point::new(0.0, 0.0, Timestamp(10)),
                    Point::new(1.0, 0.0, Timestamp(5)),
                ],
            ),
            Err(TrajectoryError::NonMonotonicTime { index: 1, .. })
        ));
        assert!(matches!(
            Trajectory::new(
                1,
                1,
                vec![
                    Point::new(0.0, 0.0, Timestamp(0)),
                    Point::new(f64::NAN, 0.0, Timestamp(5)),
                ],
            ),
            Err(TrajectoryError::NonFiniteCoordinate { index: 1 })
        ));
    }

    #[test]
    fn basic_accessors() {
        let t = traj(7, &[(0.0, 0.0, 0), (3.0, 4.0, 1_000), (3.0, 4.0, 2_000)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.length(), 5.0);
        assert_eq!(t.duration(), Duration::from_secs(2));
        assert_eq!(
            t.lifespan(),
            TimeInterval::new(Timestamp(0), Timestamp(2_000))
        );
        assert_eq!(t.segment(0).length(), 5.0);
        assert_eq!(t.segments().count(), 2);
    }

    #[test]
    fn position_interpolates_within_lifespan() {
        let t = traj(1, &[(0.0, 0.0, 0), (10.0, 0.0, 10_000)]);
        assert_eq!(
            t.position_at(Timestamp(2_500)),
            Some(Point::new(2.5, 0.0, Timestamp(2_500)))
        );
        assert_eq!(t.position_at(Timestamp(-1)), None);
        assert_eq!(t.position_at(Timestamp(10_001)), None);
    }

    #[test]
    fn temporal_slice_cuts_and_interpolates() {
        let t = traj(
            1,
            &[(0.0, 0.0, 0), (10.0, 0.0, 10_000), (10.0, 10.0, 20_000)],
        );
        let s = t
            .temporal_slice(&TimeInterval::new(Timestamp(5_000), Timestamp(15_000)))
            .unwrap();
        assert_eq!(
            s.points().first().unwrap(),
            &Point::new(5.0, 0.0, Timestamp(5_000))
        );
        assert_eq!(
            s.points().last().unwrap(),
            &Point::new(10.0, 5.0, Timestamp(15_000))
        );
        assert_eq!(s.len(), 3);

        assert!(t
            .temporal_slice(&TimeInterval::new(Timestamp(30_000), Timestamp(40_000)))
            .is_err());
    }

    #[test]
    fn split_at_preserves_every_segment() {
        let t = traj(
            1,
            &[
                (0.0, 0.0, 0),
                (1.0, 0.0, 1_000),
                (2.0, 0.0, 2_000),
                (3.0, 0.0, 3_000),
                (4.0, 0.0, 4_000),
            ],
        );
        let parts = t.split_at(&[2]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].points().len(), 3);
        assert_eq!(parts[1].points().len(), 3);
        // Shared cut point: total segments = original segments.
        let total_segments: usize = parts.iter().map(|s| s.points().len() - 1).sum();
        assert_eq!(total_segments, t.num_segments());

        // Degenerate cut indices are ignored.
        let same = t.split_at(&[0, 4, 99]);
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].points().len(), t.len());
    }

    #[test]
    fn builder_round_trips() {
        let mut b = TrajectoryBuilder::new(5, 9);
        b.push(0.0, 0.0, Timestamp(0))
            .push(1.0, 1.0, Timestamp(1_000));
        assert_eq!(b.len(), 2);
        let t = b.build().unwrap();
        assert_eq!(t.id, 5);
        assert_eq!(t.object_id, 9);
        assert_eq!(t.len(), 2);
    }
}
