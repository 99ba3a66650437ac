//! Spatio-temporal sample points.

use crate::time::Timestamp;
use std::fmt;

/// A single GPS-like sample of a moving object: planar position plus time.
///
/// Coordinates are in an arbitrary planar unit (metres throughout the
/// synthetic generators of this workspace). The temporal coordinate is a
/// [`Timestamp`]. A `Point` is the "3D" point of the paper — two spatial
/// dimensions plus time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Easting / x coordinate.
    pub x: f64,
    /// Northing / y coordinate.
    pub y: f64,
    /// Sampling time.
    pub t: Timestamp,
}

impl Point {
    /// Creates a new point.
    pub const fn new(x: f64, y: f64, t: Timestamp) -> Self {
        Point { x, y, t }
    }

    /// Euclidean distance between the spatial components of two points.
    pub fn spatial_distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Component-wise linear interpolation between two points at fraction
    /// `f ∈ [0, 1]` (`f = 0` yields `self`, `f = 1` yields `other`).
    pub fn lerp(&self, other: &Point, f: f64) -> Point {
        let f = f.clamp(0.0, 1.0);
        Point {
            x: self.x + (other.x - self.x) * f,
            y: self.y + (other.y - self.y) * f,
            t: Timestamp(
                self.t.millis() + ((other.t.millis() - self.t.millis()) as f64 * f).round() as i64,
            ),
        }
    }

    /// True when all components are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {})", self.x, self.y, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64, t: i64) -> Point {
        Point::new(x, y, Timestamp(t))
    }

    #[test]
    fn spatial_distance_is_euclidean() {
        assert_eq!(p(0.0, 0.0, 0).spatial_distance(&p(3.0, 4.0, 0)), 5.0);
    }

    #[test]
    fn lerp_interpolates_and_clamps() {
        let a = p(0.0, 0.0, 0);
        let b = p(10.0, 20.0, 1000);
        let mid = a.lerp(&b, 0.5);
        assert_eq!(mid, p(5.0, 10.0, 500));
        assert_eq!(a.lerp(&b, -1.0), a);
        assert_eq!(a.lerp(&b, 2.0), b);
    }

    #[test]
    fn finiteness_check() {
        assert!(p(1.0, 2.0, 3).is_finite());
        assert!(!Point::new(f64::NAN, 0.0, Timestamp(0)).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY, Timestamp(0)).is_finite());
    }
}
