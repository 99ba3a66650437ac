//! Sub-trajectories: contiguous portions of a trajectory.
//!
//! The unit of clustering in both S2T-Clustering and QuT-Clustering is the
//! sub-trajectory. Each one remembers which parent trajectory and point range
//! it came from, so results can be traced back to the original MOD rows.

use crate::interpolate;
use crate::mbb::Mbb;
use crate::point::Point;
use crate::segment::Segment;
use crate::time::{Duration, TimeInterval, Timestamp};
use crate::trajectory::{ObjectId, TrajectoryId};
use std::fmt;
use std::sync::Arc;

/// Stable identifier of a sub-trajectory: the parent trajectory plus the
/// index of its first point in the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubTrajectoryId {
    /// Identifier of the parent trajectory.
    pub trajectory_id: TrajectoryId,
    /// Index of the first point of this sub-trajectory within the parent.
    pub offset: u32,
}

impl SubTrajectoryId {
    /// Creates an identifier.
    pub fn new(trajectory_id: TrajectoryId, offset: u32) -> Self {
        SubTrajectoryId {
            trajectory_id,
            offset,
        }
    }
}

impl fmt::Display for SubTrajectoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.trajectory_id, self.offset)
    }
}

/// A contiguous portion of a trajectory.
///
/// Points are shared with the parent trajectory via `Arc`, so creating many
/// sub-trajectories during segmentation does not copy sample data.
#[derive(Debug, Clone)]
pub struct SubTrajectory {
    /// Stable identifier.
    pub id: SubTrajectoryId,
    /// Identifier of the parent trajectory.
    pub trajectory_id: TrajectoryId,
    /// The moving object.
    pub object_id: ObjectId,
    points: Arc<Vec<Point>>,
    start: usize,
    end: usize,
    mbb: Mbb,
}

impl SubTrajectory {
    /// Builds a sub-trajectory over `points[start..end]` of a shared buffer.
    ///
    /// Panics if the range has fewer than two points or is out of bounds —
    /// callers (trajectory splitting, segmentation) validate ranges first.
    pub fn from_shared(
        id: SubTrajectoryId,
        trajectory_id: TrajectoryId,
        object_id: ObjectId,
        points: Arc<Vec<Point>>,
        start: usize,
        end: usize,
    ) -> Self {
        assert!(
            end <= points.len() && start + 2 <= end,
            "invalid sub-trajectory range"
        );
        let mbb = Mbb::from_points(&points[start..end]);
        SubTrajectory {
            id,
            trajectory_id,
            object_id,
            points,
            start,
            end,
            mbb,
        }
    }

    /// Builds a standalone sub-trajectory from owned points (used when a
    /// temporal window cuts segments and new boundary points are created).
    pub fn from_points(
        id: SubTrajectoryId,
        trajectory_id: TrajectoryId,
        object_id: ObjectId,
        points: Vec<Point>,
    ) -> Self {
        assert!(
            points.len() >= 2,
            "a sub-trajectory needs at least two points"
        );
        let mbb = Mbb::from_points(&points);
        let len = points.len();
        SubTrajectory {
            id,
            trajectory_id,
            object_id,
            points: Arc::new(points),
            start: 0,
            end: len,
            mbb,
        }
    }

    /// The samples of this sub-trajectory.
    pub fn points(&self) -> &[Point] {
        &self.points[self.start..self.end]
    }

    /// Index of the first point within the parent trajectory's buffer.
    pub fn parent_offset(&self) -> usize {
        self.start
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.len() - 1
    }

    /// Iterator over the segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points().windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// First sample time.
    pub fn start_time(&self) -> Timestamp {
        self.points()[0].t
    }

    /// Last sample time.
    pub fn end_time(&self) -> Timestamp {
        self.points()[self.len() - 1].t
    }

    /// Temporal lifespan.
    pub fn lifespan(&self) -> TimeInterval {
        TimeInterval::new(self.start_time(), self.end_time())
    }

    /// Duration.
    pub fn duration(&self) -> Duration {
        self.end_time() - self.start_time()
    }

    /// 3D bounding box.
    pub fn mbb(&self) -> Mbb {
        self.mbb
    }

    /// Total travelled length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Interpolated position at `t`; `None` outside the lifespan.
    pub fn position_at(&self, t: Timestamp) -> Option<Point> {
        interpolate::position_at(self.points(), t)
    }

    /// Restricts this sub-trajectory to a temporal window, producing a new,
    /// standalone sub-trajectory (boundary samples are interpolated).
    /// Returns `None` when the overlap is empty or instantaneous.
    pub fn temporal_clip(&self, w: &TimeInterval) -> Option<SubTrajectory> {
        let overlap = w.intersection(&self.lifespan())?;
        if overlap.length() == Duration::ZERO {
            return None;
        }
        let mut pts = Vec::new();
        pts.push(self.position_at(overlap.start)?);
        for p in self.points() {
            if p.t > overlap.start && p.t < overlap.end {
                pts.push(*p);
            }
        }
        let last = self.position_at(overlap.end)?;
        if pts.last().map(|l| l.t != last.t).unwrap_or(true) {
            pts.push(last);
        }
        if pts.len() < 2 {
            return None;
        }
        Some(SubTrajectory::from_points(
            self.id,
            self.trajectory_id,
            self.object_id,
            pts,
        ))
    }
}

impl PartialEq for SubTrajectory {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.points() == other.points()
    }
}

/// Anything that lives over a closed interval of the time axis — all a
/// cluster needs to know of its members to report its own lifespan.
pub trait Lifespan {
    /// The interval from the first to the last instant.
    fn lifespan(&self) -> TimeInterval;
}

impl Lifespan for SubTrajectory {
    fn lifespan(&self) -> TimeInterval {
        SubTrajectory::lifespan(self)
    }
}

/// What a window answer says of a sub-trajectory it does not have to show:
/// who it is and when it lived. A pure function of the record's header and
/// its first and last sample, so an index can keep one beside each record
/// locator and answer without reading the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubTrajectorySummary {
    /// Stable identifier.
    pub id: SubTrajectoryId,
    /// Identifier of the parent trajectory.
    pub trajectory_id: TrajectoryId,
    /// The moving object.
    pub object_id: ObjectId,
    /// First to last sample time.
    pub lifespan: TimeInterval,
}

impl From<&SubTrajectory> for SubTrajectorySummary {
    fn from(sub: &SubTrajectory) -> Self {
        SubTrajectorySummary {
            id: sub.id,
            trajectory_id: sub.trajectory_id,
            object_id: sub.object_id,
            lifespan: sub.lifespan(),
        }
    }
}

impl Lifespan for SubTrajectorySummary {
    fn lifespan(&self) -> TimeInterval {
        self.lifespan
    }
}

impl fmt::Display for SubTrajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SubTrajectory {} ({} points, {})",
            self.id,
            self.len(),
            self.lifespan()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::new(
            1,
            1,
            pts.iter()
                .map(|&(x, y, t)| Point::new(x, y, Timestamp(t)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn shares_points_with_parent() {
        let t = traj(&[
            (0.0, 0.0, 0),
            (1.0, 0.0, 1_000),
            (2.0, 0.0, 2_000),
            (3.0, 0.0, 3_000),
        ]);
        let s = t.sub_trajectory(1, 4).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.parent_offset(), 1);
        assert_eq!(s.points()[0], Point::new(1.0, 0.0, Timestamp(1_000)));
        assert_eq!(s.num_segments(), 2);
        assert_eq!(s.length(), 2.0);
        assert_eq!(s.mbb(), Mbb::from_points(s.points()));
    }

    #[test]
    fn id_encodes_parent_and_offset() {
        let t = traj(&[(0.0, 0.0, 0), (1.0, 0.0, 1_000), (2.0, 0.0, 2_000)]);
        let s = t.sub_trajectory(1, 3).unwrap();
        assert_eq!(s.id, SubTrajectoryId::new(1, 1));
        assert_eq!(s.id.to_string(), "1@1");
    }

    #[test]
    fn temporal_clip_interpolates_boundaries() {
        let t = traj(&[(0.0, 0.0, 0), (10.0, 0.0, 10_000)]);
        let s = t.sub_trajectory(0, t.len()).unwrap();
        let c = s
            .temporal_clip(&TimeInterval::new(Timestamp(2_000), Timestamp(6_000)))
            .unwrap();
        assert_eq!(c.points()[0], Point::new(2.0, 0.0, Timestamp(2_000)));
        assert_eq!(c.points()[1], Point::new(6.0, 0.0, Timestamp(6_000)));
        assert!(s
            .temporal_clip(&TimeInterval::new(Timestamp(20_000), Timestamp(30_000)))
            .is_none());
        // Instantaneous overlap yields nothing.
        assert!(s
            .temporal_clip(&TimeInterval::new(Timestamp(10_000), Timestamp(20_000)))
            .is_none());
    }

    #[test]
    fn a_summary_is_the_header_and_the_lifespan() {
        let t = traj(&[(0.0, 0.0, 500), (1.0, 0.0, 1_000), (2.0, 0.0, 2_000)]);
        let s = t.sub_trajectory(1, 3).unwrap();
        let summary = SubTrajectorySummary::from(&s);
        assert_eq!(summary.id, s.id);
        assert_eq!(
            (summary.trajectory_id, summary.object_id),
            (s.trajectory_id, s.object_id)
        );
        assert_eq!(Lifespan::lifespan(&summary), s.lifespan());
        assert_eq!(std::mem::size_of::<SubTrajectorySummary>(), 48);
    }

    #[test]
    fn standalone_construction() {
        let s = SubTrajectory::from_points(
            SubTrajectoryId::new(9, 0),
            9,
            4,
            vec![
                Point::new(0.0, 0.0, Timestamp(0)),
                Point::new(1.0, 1.0, Timestamp(500)),
            ],
        );
        assert_eq!(s.trajectory_id, 9);
        assert_eq!(s.object_id, 4);
        assert_eq!(s.duration(), Duration::from_millis(500));
    }
}
