//! 3D (space + time) minimum bounding boxes.
//!
//! The `pg3D-Rtree` of the paper indexes trajectory segments and
//! sub-trajectories by their 3D MBB; here this type keys the packed R-tree
//! of `hermes-gist` and the voting scan's candidate rows.

use crate::point::Point;
use crate::time::Timestamp;
use std::fmt;

/// A minimum bounding box over two spatial dimensions and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbb {
    /// Minimum x (inclusive).
    pub x_min: f64,
    /// Maximum x (inclusive).
    pub x_max: f64,
    /// Minimum y (inclusive).
    pub y_min: f64,
    /// Maximum y (inclusive).
    pub y_max: f64,
    /// Earliest time (inclusive).
    pub t_min: Timestamp,
    /// Latest time (inclusive).
    pub t_max: Timestamp,
}

impl Mbb {
    /// An "empty" box that is the identity of [`Mbb::union`].
    pub fn empty() -> Self {
        Mbb {
            x_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            y_min: f64::INFINITY,
            y_max: f64::NEG_INFINITY,
            t_min: Timestamp::MAX,
            t_max: Timestamp::MIN,
        }
    }

    /// Builds a box from explicit bounds. Panics if any minimum exceeds the
    /// corresponding maximum.
    pub fn new(
        x_min: f64,
        x_max: f64,
        y_min: f64,
        y_max: f64,
        t_min: Timestamp,
        t_max: Timestamp,
    ) -> Self {
        assert!(x_min <= x_max, "x_min must not exceed x_max");
        assert!(y_min <= y_max, "y_min must not exceed y_max");
        assert!(t_min <= t_max, "t_min must not exceed t_max");
        Mbb {
            x_min,
            x_max,
            y_min,
            y_max,
            t_min,
            t_max,
        }
    }

    /// The degenerate box covering a single point.
    pub fn from_point(p: &Point) -> Self {
        Mbb {
            x_min: p.x,
            x_max: p.x,
            y_min: p.y,
            y_max: p.y,
            t_min: p.t,
            t_max: p.t,
        }
    }

    /// The tight box around a set of points. Returns [`Mbb::empty`] for an
    /// empty slice.
    pub fn from_points(points: &[Point]) -> Self {
        let mut b = Mbb::empty();
        for p in points {
            b.expand_point(p);
        }
        b
    }

    /// True when the box contains no point (the union identity).
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max || self.y_min > self.y_max || self.t_min > self.t_max
    }

    /// Grows the box to include `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.x_min = self.x_min.min(p.x);
        self.x_max = self.x_max.max(p.x);
        self.y_min = self.y_min.min(p.y);
        self.y_max = self.y_max.max(p.y);
        self.t_min = self.t_min.min(p.t);
        self.t_max = self.t_max.max(p.t);
    }

    /// Grows the box to include `other`.
    pub fn expand(&mut self, other: &Mbb) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            return;
        }
        self.x_min = self.x_min.min(other.x_min);
        self.x_max = self.x_max.max(other.x_max);
        self.y_min = self.y_min.min(other.y_min);
        self.y_max = self.y_max.max(other.y_max);
        self.t_min = self.t_min.min(other.t_min);
        self.t_max = self.t_max.max(other.t_max);
    }

    /// Smallest box containing both inputs.
    pub fn union(&self, other: &Mbb) -> Mbb {
        let mut b = *self;
        b.expand(other);
        b
    }

    /// Overlapping region of two boxes, if any.
    pub fn intersection(&self, other: &Mbb) -> Option<Mbb> {
        if !self.intersects(other) {
            return None;
        }
        Some(Mbb {
            x_min: self.x_min.max(other.x_min),
            x_max: self.x_max.min(other.x_max),
            y_min: self.y_min.max(other.y_min),
            y_max: self.y_max.min(other.y_max),
            t_min: self.t_min.max(other.t_min),
            t_max: self.t_max.min(other.t_max),
        })
    }

    /// True if the boxes share at least one point (boundaries included).
    pub fn intersects(&self, other: &Mbb) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
            && self.t_min <= other.t_max
            && other.t_min <= self.t_max
    }

    /// True if `other` is completely inside `self`.
    pub fn contains(&self, other: &Mbb) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.x_min <= other.x_min
            && other.x_max <= self.x_max
            && self.y_min <= other.y_min
            && other.y_max <= self.y_max
            && self.t_min <= other.t_min
            && other.t_max <= self.t_max
    }

    /// Expands the box by `radius` in space and `time_pad` milliseconds in
    /// time; used to turn a segment MBB into a voting-candidate search window.
    pub fn inflate(&self, radius: f64, time_pad_ms: i64) -> Mbb {
        if self.is_empty() {
            return *self;
        }
        Mbb {
            x_min: self.x_min - radius,
            x_max: self.x_max + radius,
            y_min: self.y_min - radius,
            y_max: self.y_max + radius,
            t_min: Timestamp(self.t_min.millis() - time_pad_ms),
            t_max: Timestamp(self.t_max.millis() + time_pad_ms),
        }
    }

    /// Center of the box in the scaled 3D space.
    pub fn center(&self) -> (f64, f64, f64) {
        (
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            (self.t_min.as_secs_f64() + self.t_max.as_secs_f64()) / 2.0,
        )
    }

    /// Minimum 3D distance between two boxes (zero if they intersect),
    /// with time scaled by `time_weight`.
    pub fn min_distance(&self, other: &Mbb, time_weight: f64) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = axis_gap(self.x_min, self.x_max, other.x_min, other.x_max);
        let dy = axis_gap(self.y_min, self.y_max, other.y_min, other.y_max);
        let dt = axis_gap(
            self.t_min.as_secs_f64(),
            self.t_max.as_secs_f64(),
            other.t_min.as_secs_f64(),
            other.t_max.as_secs_f64(),
        ) * time_weight;
        (dx * dx + dy * dy + dt * dt).sqrt()
    }
}

fn axis_gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
    if a_max < b_min {
        b_min - a_max
    } else if b_max < a_min {
        a_min - b_max
    } else {
        0.0
    }
}

impl fmt::Display for Mbb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mbb[x: {:.2}..{:.2}, y: {:.2}..{:.2}, t: {}..{}]",
            self.x_min, self.x_max, self.y_min, self.y_max, self.t_min, self.t_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxy(x0: f64, x1: f64, y0: f64, y1: f64, t0: i64, t1: i64) -> Mbb {
        Mbb::new(x0, x1, y0, y1, Timestamp(t0), Timestamp(t1))
    }

    #[test]
    fn empty_box_behaves_as_union_identity() {
        let e = Mbb::empty();
        let b = boxy(0.0, 1.0, 0.0, 1.0, 0, 1000);
        assert!(e.is_empty());
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(!e.intersects(&b));
        assert!(!e.contains(&b));
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [
            Point::new(1.0, 5.0, Timestamp(100)),
            Point::new(-2.0, 3.0, Timestamp(50)),
            Point::new(4.0, -1.0, Timestamp(200)),
        ];
        let b = Mbb::from_points(&pts);
        assert_eq!(b, boxy(-2.0, 4.0, -1.0, 5.0, 50, 200));
        for p in &pts {
            assert!(b.contains(&Mbb::from_point(p)));
        }
    }

    #[test]
    fn intersection_and_containment() {
        let a = boxy(0.0, 10.0, 0.0, 10.0, 0, 10_000);
        let b = boxy(5.0, 15.0, 5.0, 15.0, 5_000, 15_000);
        let c = boxy(2.0, 3.0, 2.0, 3.0, 2_000, 3_000);
        assert!(a.intersects(&b));
        assert_eq!(
            a.intersection(&b).unwrap(),
            boxy(5.0, 10.0, 5.0, 10.0, 5_000, 10_000)
        );
        assert!(a.contains(&c));
        assert!(!a.contains(&b));
        assert!(a.intersection(&boxy(20.0, 30.0, 0.0, 1.0, 0, 1)).is_none());
    }

    #[test]
    fn inflate_grows_all_axes() {
        let b = boxy(0.0, 1.0, 0.0, 1.0, 1_000, 2_000).inflate(2.0, 500);
        assert_eq!(b, boxy(-2.0, 3.0, -2.0, 3.0, 500, 2_500));
    }

    #[test]
    fn min_distance_zero_when_overlapping() {
        let a = boxy(0.0, 10.0, 0.0, 10.0, 0, 10_000);
        let b = boxy(5.0, 15.0, 5.0, 15.0, 5_000, 15_000);
        assert_eq!(a.min_distance(&b, 1.0), 0.0);
        let far = boxy(13.0, 14.0, 0.0, 10.0, 0, 10_000);
        assert!((a.min_distance(&far, 1.0) - 3.0).abs() < 1e-12);
    }
}
