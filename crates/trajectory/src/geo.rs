//! Geodetic support: WGS-84 coordinates and the projection used to turn raw
//! GPS/ADS-B/AIS records into the planar coordinates the clustering
//! algorithms operate on.
//!
//! The paper's datasets are real-world GPS feeds (aircraft around London,
//! vessels, urban traffic). The engine itself works in planar metres; this
//! module provides the bridge: a local equirectangular projection anchored at
//! a reference point, which is accurate to well under 0.5 % for the
//! metropolitan-area extents the demo uses, plus the haversine distance for
//! validation.

use crate::point::Point;
use crate::time::Timestamp;

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 position with a timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Longitude in degrees, positive east.
    pub lon: f64,
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Sampling time.
    pub t: Timestamp,
}

impl GeoPoint {
    /// Creates a geodetic point.
    pub const fn new(lon: f64, lat: f64, t: Timestamp) -> Self {
        GeoPoint { lon, lat, t }
    }
}

/// Great-circle (haversine) distance between two geodetic points, in metres.
pub fn haversine_distance(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let (lat1, lat2) = (a.lat.to_radians(), b.lat.to_radians());
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().asin()
}

/// A local equirectangular projection anchored at a reference position.
///
/// `x` grows east, `y` grows north, both in metres from the anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalProjection {
    /// Anchor longitude in degrees.
    pub origin_lon: f64,
    /// Anchor latitude in degrees.
    pub origin_lat: f64,
    cos_lat: f64,
}

impl LocalProjection {
    /// Creates a projection anchored at `(origin_lon, origin_lat)`.
    pub fn new(origin_lon: f64, origin_lat: f64) -> Self {
        LocalProjection {
            origin_lon,
            origin_lat,
            cos_lat: origin_lat.to_radians().cos(),
        }
    }

    /// A projection anchored at the centroid of a batch of geodetic points.
    /// Falls back to (0, 0) for an empty slice.
    pub fn centered_on(points: &[GeoPoint]) -> Self {
        if points.is_empty() {
            return LocalProjection::new(0.0, 0.0);
        }
        let lon = points.iter().map(|p| p.lon).sum::<f64>() / points.len() as f64;
        let lat = points.iter().map(|p| p.lat).sum::<f64>() / points.len() as f64;
        LocalProjection::new(lon, lat)
    }

    /// Projects a geodetic point into local planar metres.
    pub fn project(&self, p: &GeoPoint) -> Point {
        let x = (p.lon - self.origin_lon).to_radians() * EARTH_RADIUS_M * self.cos_lat;
        let y = (p.lat - self.origin_lat).to_radians() * EARTH_RADIUS_M;
        Point::new(x, y, p.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Heathrow (LHR) and Gatwick (LGW), roughly.
    const LHR: (f64, f64) = (-0.4543, 51.4700);
    const LGW: (f64, f64) = (-0.1821, 51.1537);

    #[test]
    fn haversine_matches_known_distances() {
        let a = GeoPoint::new(LHR.0, LHR.1, Timestamp(0));
        let b = GeoPoint::new(LGW.0, LGW.1, Timestamp(0));
        let d = haversine_distance(&a, &b);
        // LHR–LGW is roughly 40 km.
        assert!((39_000.0..42_000.0).contains(&d), "got {d:.0} m");
        assert_eq!(haversine_distance(&a, &a), 0.0);
        assert!((haversine_distance(&a, &b) - haversine_distance(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn projected_distance_approximates_haversine_at_metro_scale() {
        let proj = LocalProjection::new(LHR.0, LHR.1);
        let a = GeoPoint::new(LHR.0, LHR.1, Timestamp(0));
        let b = GeoPoint::new(LGW.0, LGW.1, Timestamp(0));
        let planar = proj.project(&a).spatial_distance(&proj.project(&b));
        let geodesic = haversine_distance(&a, &b);
        let relative_error = (planar - geodesic).abs() / geodesic;
        assert!(
            relative_error < 0.005,
            "projection error {relative_error:.4} exceeds 0.5 % at metro scale"
        );
    }

    #[test]
    fn centered_projection_uses_the_centroid() {
        let pts = vec![
            GeoPoint::new(0.0, 50.0, Timestamp(0)),
            GeoPoint::new(2.0, 52.0, Timestamp(1_000)),
        ];
        let proj = LocalProjection::centered_on(&pts);
        assert!((proj.origin_lon - 1.0).abs() < 1e-12);
        assert!((proj.origin_lat - 51.0).abs() < 1e-12);
        // The centroid projects close to the origin.
        let mid = proj.project(&GeoPoint::new(1.0, 51.0, Timestamp(0)));
        assert!(mid.x.abs() < 1e-6 && mid.y.abs() < 1e-6);
        // Empty input falls back to (0, 0) without panicking.
        let fallback = LocalProjection::centered_on(&[]);
        assert_eq!(fallback.origin_lon, 0.0);
    }
}
