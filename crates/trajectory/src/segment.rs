//! 3D trajectory segments: the straight-line movement between two
//! consecutive samples. The voting step of S2T-Clustering operates on
//! segments ("each 3D trajectory segment ... is voted by other trajectories").

use crate::kernel::{self, SegLanes};
use crate::mbb::Mbb;
use crate::point::Point;
use crate::time::{TimeInterval, Timestamp};

/// The movement of an object between two consecutive samples, assumed linear
/// in space and uniform in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Sample at the beginning of the segment.
    pub start: Point,
    /// Sample at the end of the segment (strictly later than `start`).
    pub end: Point,
}

impl Segment {
    /// Creates a segment. Panics if `end.t <= start.t`.
    pub fn new(start: Point, end: Point) -> Self {
        assert!(
            end.t > start.t,
            "segment end time must be strictly after start time"
        );
        Segment { start, end }
    }

    /// The temporal lifespan of the segment.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start.t, self.end.t)
    }

    /// Spatial length of the segment.
    pub fn length(&self) -> f64 {
        self.start.spatial_distance(&self.end)
    }

    /// Duration of the segment in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.end.t - self.start.t).as_secs_f64()
    }

    /// Average speed along the segment (spatial units per second).
    pub fn speed(&self) -> f64 {
        let d = self.duration_secs();
        if d == 0.0 {
            0.0
        } else {
            self.length() / d
        }
    }

    /// Heading of the segment in radians, measured counter-clockwise from the
    /// positive x axis. Returns 0 for a zero-length segment.
    pub fn heading(&self) -> f64 {
        let dy = self.end.y - self.start.y;
        let dx = self.end.x - self.start.x;
        if dx == 0.0 && dy == 0.0 {
            0.0
        } else {
            dy.atan2(dx)
        }
    }

    /// The interpolated position of the object at time `t`, clamped to the
    /// segment's lifespan.
    pub fn position_at(&self, t: Timestamp) -> Point {
        let span = (self.end.t - self.start.t).millis();
        if span == 0 {
            return self.start;
        }
        let f = (t.millis() - self.start.t.millis()) as f64 / span as f64;
        self.start.lerp(&self.end, f)
    }

    /// The 3D bounding box of the segment.
    pub fn mbb(&self) -> Mbb {
        let mut b = Mbb::from_point(&self.start);
        b.expand_point(&self.end);
        b
    }

    /// The segment's endpoints as flat scalar lanes, the form the
    /// allocation-free kernels in [`crate::kernel`] operate on.
    pub fn lanes(&self) -> SegLanes {
        SegLanes {
            x0: self.start.x,
            y0: self.start.y,
            x1: self.end.x,
            y1: self.end.y,
            t0: self.start.t.millis(),
            t1: self.end.t.millis(),
        }
    }

    /// Mean synchronized distance over the common lifespan (None when the
    /// lifespans are disjoint). Because the relative displacement is linear,
    /// the mean of its norm is approximated by Simpson's rule on the three
    /// anchor instants, which is exact for linear and quadratic profiles.
    ///
    /// Delegates to [`kernel::mean_sync_distance`], the flat kernel the
    /// SoA voting hot path also calls — the two paths are bit-identical by
    /// construction.
    pub fn mean_synchronized_distance(&self, other: &Segment) -> Option<f64> {
        kernel::mean_sync_distance(&self.lanes(), &other.lanes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64, t: i64) -> Point {
        Point::new(x, y, Timestamp(t))
    }

    #[test]
    fn basic_measures() {
        let s = Segment::new(p(0.0, 0.0, 0), p(3.0, 4.0, 5_000));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.duration_secs(), 5.0);
        assert_eq!(s.speed(), 1.0);
        assert_eq!(s.mbb(), Mbb::from_points(&[s.start, s.end]));
    }

    #[test]
    #[should_panic]
    fn rejects_non_increasing_time() {
        let _ = Segment::new(p(0.0, 0.0, 1000), p(1.0, 1.0, 1000));
    }

    #[test]
    fn position_at_clamps_to_lifespan() {
        let s = Segment::new(p(0.0, 0.0, 0), p(10.0, 0.0, 10_000));
        assert_eq!(s.position_at(Timestamp(5_000)), p(5.0, 0.0, 5_000));
        assert_eq!(s.position_at(Timestamp(-5_000)), p(0.0, 0.0, 0));
        assert_eq!(s.position_at(Timestamp(20_000)), p(10.0, 0.0, 10_000));
    }

    #[test]
    fn synchronized_distance_of_parallel_movers_is_constant_offset() {
        let a = Segment::new(p(0.0, 0.0, 0), p(10.0, 0.0, 10_000));
        let b = Segment::new(p(0.0, 3.0, 0), p(10.0, 3.0, 10_000));
        assert!((a.mean_synchronized_distance(&b).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_lifespans_have_no_synchronized_distance() {
        let a = Segment::new(p(0.0, 0.0, 0), p(1.0, 0.0, 1_000));
        let b = Segment::new(p(0.0, 0.0, 2_000), p(1.0, 0.0, 3_000));
        assert_eq!(a.mean_synchronized_distance(&b), None);
    }

    #[test]
    fn geometric_proximity_without_co_movement_is_not_zero() {
        // Same path but traversed one hour apart within overlapping lifespans:
        // object B lags far behind A spatially at every shared instant.
        let a = Segment::new(p(0.0, 0.0, 0), p(100.0, 0.0, 100_000));
        let b = Segment::new(p(0.0, 0.0, 50_000), p(100.0, 0.0, 150_000));
        let d = a.mean_synchronized_distance(&b).unwrap();
        assert!(d >= 50.0 - 1e-9, "expected lag of at least 50, got {d}");
    }
}
