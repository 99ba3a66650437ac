//! CSV import/export of trajectories.
//!
//! Real MODs arrive as flat point files (`object_id, trajectory_id, x, y, t`
//! or `object_id, trajectory_id, lon, lat, t`). This module parses such files
//! into [`Trajectory`] values (grouping by trajectory id and sorting by time)
//! and writes them back, so the engine can ingest external data without any
//! extra dependency.

use crate::error::TrajectoryError;
use crate::geo::{GeoPoint, LocalProjection};
use crate::point::Point;
use crate::time::Timestamp;
use crate::trajectory::Trajectory;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Result of a CSV import: the parsed trajectories plus the rows that had to
/// be skipped (with the reason), so callers can report data-quality issues
/// instead of silently dropping records.
#[derive(Debug, Clone)]
pub struct CsvImport {
    /// Trajectories built from the accepted rows, ordered by id.
    pub trajectories: Vec<Trajectory>,
    /// `(line number, reason)` of every rejected row.
    pub rejected: Vec<(usize, String)>,
}

/// Header written/expected by the planar CSV format.
pub const CSV_HEADER: &str = "object_id,trajectory_id,x,y,t_ms";

/// Parses planar trajectory CSV (`object_id,trajectory_id,x,y,t_ms`).
/// Rows are grouped by trajectory id and sorted by time; duplicated
/// timestamps within a trajectory keep the first occurrence.
pub fn parse_csv(input: &str) -> CsvImport {
    let mut groups: BTreeMap<u64, (u64, Vec<Point>)> = BTreeMap::new();
    let mut rejected = Vec::new();

    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || lineno == 0 && line.eq_ignore_ascii_case(CSV_HEADER) {
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 5 {
            rejected.push((
                lineno + 1,
                format!("expected 5 fields, got {}", fields.len()),
            ));
            continue;
        }
        let parsed = (|| -> Result<(u64, u64, f64, f64, i64), String> {
            Ok((
                fields[0].parse().map_err(|_| "bad object_id".to_string())?,
                fields[1]
                    .parse()
                    .map_err(|_| "bad trajectory_id".to_string())?,
                fields[2].parse().map_err(|_| "bad x".to_string())?,
                fields[3].parse().map_err(|_| "bad y".to_string())?,
                fields[4].parse().map_err(|_| "bad t_ms".to_string())?,
            ))
        })();
        match parsed {
            Ok((object_id, trajectory_id, x, y, t)) => {
                if !x.is_finite() || !y.is_finite() {
                    rejected.push((lineno + 1, "non-finite coordinate".into()));
                    continue;
                }
                groups
                    .entry(trajectory_id)
                    .or_insert_with(|| (object_id, Vec::new()))
                    .1
                    .push(Point::new(x, y, Timestamp(t)));
            }
            Err(reason) => rejected.push((lineno + 1, reason)),
        }
    }

    let mut trajectories = Vec::with_capacity(groups.len());
    for (trajectory_id, (object_id, mut points)) in groups {
        points.sort_by_key(|p| p.t);
        points.dedup_by_key(|p| p.t);
        match Trajectory::new(trajectory_id, object_id, points) {
            Ok(t) => trajectories.push(t),
            Err(TrajectoryError::TooFewPoints { got }) => rejected.push((
                0,
                format!("trajectory {trajectory_id} dropped: only {got} usable points"),
            )),
            Err(e) => rejected.push((0, format!("trajectory {trajectory_id} dropped: {e}"))),
        }
    }
    CsvImport {
        trajectories,
        rejected,
    }
}

/// Parses geodetic trajectory CSV (`object_id,trajectory_id,lon,lat,t_ms`),
/// projecting every position with a local projection anchored at the data's
/// centroid. Returns the import plus the projection used (so results can be
/// mapped back to geographic coordinates).
pub fn parse_geo_csv(input: &str) -> (CsvImport, LocalProjection) {
    // First pass: collect geodetic points to anchor the projection.
    let mut geo_points = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() == 5 {
            if let (Ok(lon), Ok(lat), Ok(t)) = (
                fields[2].parse::<f64>(),
                fields[3].parse::<f64>(),
                fields[4].parse::<i64>(),
            ) {
                geo_points.push(GeoPoint::new(lon, lat, Timestamp(t)));
            }
        }
    }
    let projection = LocalProjection::centered_on(&geo_points);

    // Second pass: rewrite lon/lat as planar metres and reuse the planar parser.
    let mut planar = String::from(CSV_HEADER);
    planar.push('\n');
    for (lineno, line) in input.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() == 5 {
            if let (Ok(lon), Ok(lat), Ok(t)) = (
                fields[2].parse::<f64>(),
                fields[3].parse::<f64>(),
                fields[4].parse::<i64>(),
            ) {
                let p = projection.project(&GeoPoint::new(lon, lat, Timestamp(t)));
                let _ = writeln!(planar, "{},{},{},{},{}", fields[0], fields[1], p.x, p.y, t);
                continue;
            }
        }
        planar.push_str(line);
        planar.push('\n');
    }
    (parse_csv(&planar), projection)
}

/// Serializes trajectories to the planar CSV format (with header).
pub fn to_csv(trajectories: &[Trajectory]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for t in trajectories {
        for p in t.points() {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                t.object_id,
                t.id,
                p.x,
                p.y,
                p.t.millis()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_csv() {
        let t1 = Trajectory::new(
            1,
            10,
            vec![
                Point::new(0.0, 0.0, Timestamp(0)),
                Point::new(1.5, 2.5, Timestamp(1_000)),
                Point::new(3.0, 5.0, Timestamp(2_000)),
            ],
        )
        .unwrap();
        let t2 = Trajectory::new(
            2,
            11,
            vec![
                Point::new(100.0, 100.0, Timestamp(500)),
                Point::new(110.0, 100.0, Timestamp(1_500)),
            ],
        )
        .unwrap();
        let csv = to_csv(&[t1.clone(), t2.clone()]);
        let import = parse_csv(&csv);
        assert!(import.rejected.is_empty(), "{:?}", import.rejected);
        assert_eq!(import.trajectories.len(), 2);
        assert_eq!(import.trajectories[0].points(), t1.points());
        assert_eq!(import.trajectories[1].points(), t2.points());
        assert_eq!(import.trajectories[0].object_id, 10);
    }

    #[test]
    fn out_of_order_and_duplicate_rows_are_normalized() {
        let csv = "object_id,trajectory_id,x,y,t_ms\n\
                   1,1,10.0,0.0,2000\n\
                   1,1,0.0,0.0,0\n\
                   1,1,0.0,0.0,0\n\
                   1,1,5.0,0.0,1000\n";
        let import = parse_csv(csv);
        assert_eq!(import.trajectories.len(), 1);
        let times: Vec<i64> = import.trajectories[0]
            .points()
            .iter()
            .map(|p| p.t.millis())
            .collect();
        assert_eq!(times, vec![0, 1000, 2000]);
    }

    #[test]
    fn bad_rows_are_reported_not_dropped_silently() {
        let csv = "object_id,trajectory_id,x,y,t_ms\n\
                   1,1,0.0,0.0,0\n\
                   1,1,1.0,0.0,1000\n\
                   not,a,valid,row\n\
                   1,1,NaN,0.0,2000\n\
                   2,2,0.0,0.0,0\n";
        let import = parse_csv(csv);
        // Trajectory 1 survives; trajectory 2 has a single point and is
        // reported; two bad rows are reported.
        assert_eq!(import.trajectories.len(), 1);
        assert_eq!(import.rejected.len(), 3);
        assert!(import.rejected.iter().any(|(_, r)| r.contains("5 fields")));
        assert!(import
            .rejected
            .iter()
            .any(|(_, r)| r.contains("non-finite")));
        assert!(import
            .rejected
            .iter()
            .any(|(_, r)| r.contains("only 1 usable")));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let csv = "object_id,trajectory_id,x,y,t_ms\n\
                   # a comment\n\
                   \n\
                   1,1,0.0,0.0,0\n\
                   1,1,1.0,0.0,1000\n";
        let import = parse_csv(csv);
        assert_eq!(import.trajectories.len(), 1);
        assert!(import.rejected.is_empty());
    }

    #[test]
    fn geodetic_import_projects_to_metres() {
        // Two aircraft near London; ~0.1° of longitude ≈ 7 km at 51.5° N.
        let csv = "object_id,trajectory_id,lon,lat,t_ms\n\
                   1,1,-0.45,51.47,0\n\
                   1,1,-0.35,51.47,60000\n\
                   2,2,-0.45,51.57,0\n\
                   2,2,-0.35,51.57,60000\n";
        let (import, projection) = parse_geo_csv(csv);
        assert_eq!(import.trajectories.len(), 2);
        let t = &import.trajectories[0];
        let dx = t.points()[1].x - t.points()[0].x;
        assert!((6_000.0..8_000.0).contains(&dx), "projected Δx {dx:.0} m");
        // The first sample is its input position, projected.
        let first = projection.project(&GeoPoint::new(-0.45, 51.47, Timestamp(0)));
        assert!(t.points()[0].spatial_distance(&first) < 1e-6);
    }
}
