//! The time histogram of Fig. 1 (middle): "the existence times of the
//! clusters and the changes of their cardinality over time can be explored
//! using a time histogram, in which bars are divided into segments painted in
//! the same colors as the cluster members in the map".

use hermes_s2t::ClusteringResult;
use hermes_trajectory::{Duration, Lifespan, TimeInterval, Timestamp};
use std::fmt::Write as _;

/// A stacked time histogram: for each time bucket, how many members of each
/// cluster (and how many outliers) are alive.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeHistogram {
    /// Start of each bucket.
    pub bucket_starts: Vec<Timestamp>,
    /// Bucket width.
    pub bucket_width: Duration,
    /// `counts[cluster][bucket]` = number of that cluster's sub-trajectories
    /// alive during the bucket.
    pub counts: Vec<Vec<usize>>,
    /// Outliers alive per bucket.
    pub outlier_counts: Vec<usize>,
}

impl TimeHistogram {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bucket_starts.len()
    }

    /// Total cardinality (all clusters + outliers) per bucket.
    pub fn totals(&self) -> Vec<usize> {
        (0..self.num_buckets())
            .map(|b| self.counts.iter().map(|c| c[b]).sum::<usize>() + self.outlier_counts[b])
            .collect()
    }

    /// The bucket with the highest total cardinality, if any.
    pub fn peak_bucket(&self) -> Option<(Timestamp, usize)> {
        self.totals()
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, t)| t)
            .map(|(i, t)| (self.bucket_starts[i], t))
    }

    /// Renders the histogram as CSV: `bucket_start_ms,cluster_id,count`
    /// (outliers use the cluster id `-1`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket_start_ms,cluster_id,count\n");
        for (b, start) in self.bucket_starts.iter().enumerate() {
            for (c, counts) in self.counts.iter().enumerate() {
                let _ = writeln!(out, "{},{},{}", start.millis(), c, counts[b]);
            }
            let _ = writeln!(out, "{},-1,{}", start.millis(), self.outlier_counts[b]);
        }
        out
    }
}

/// Builds the stacked time histogram of a clustering result. It reads one
/// lifespan per member, so a result that carries summaries serves as well as
/// one that carries the sub-trajectories.
pub fn time_histogram<M: Lifespan>(
    result: &ClusteringResult<M>,
    bucket_width: Duration,
) -> TimeHistogram {
    assert!(bucket_width.millis() > 0, "bucket width must be positive");
    // Overall extent.
    let mut extent: Option<TimeInterval> = None;
    let mut expand = |span: TimeInterval| {
        extent = Some(match extent {
            None => span,
            Some(e) => e.union(&span),
        });
    };
    for c in &result.clusters {
        expand(c.lifespan());
    }
    for o in &result.outliers {
        expand(o.lifespan());
    }
    let Some(extent) = extent else {
        return TimeHistogram {
            bucket_starts: Vec::new(),
            bucket_width,
            counts: Vec::new(),
            outlier_counts: Vec::new(),
        };
    };

    let width = bucket_width.millis();
    let first = extent.start.millis().div_euclid(width) * width;
    let num_buckets = ((extent.end.millis() - first) / width + 1) as usize;
    let bucket_starts: Vec<Timestamp> = (0..num_buckets)
        .map(|i| Timestamp(first + i as i64 * width))
        .collect();
    // Counts one sub-trajectory alive over `interval` into `row`.
    let count = |row: &mut [usize], interval: TimeInterval| {
        let lo = ((interval.start.millis() - first) / width) as usize;
        let hi = ((interval.end.millis() - first) / width) as usize;
        for slot in &mut row[lo..=hi.min(num_buckets - 1)] {
            *slot += 1;
        }
    };

    let mut counts = vec![vec![0usize; num_buckets]; result.clusters.len()];
    for (row, c) in counts.iter_mut().zip(&result.clusters) {
        count(row, c.representative.lifespan());
        for m in &c.members {
            count(row, m.lifespan());
        }
    }
    let mut outlier_counts = vec![0usize; num_buckets];
    for o in &result.outliers {
        count(&mut outlier_counts, o.lifespan());
    }

    TimeHistogram {
        bucket_starts,
        bucket_width,
        counts,
        outlier_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_s2t::Cluster;
    use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId};

    fn sub(id: u64, t0: i64, dur_ms: i64) -> SubTrajectory {
        SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            vec![
                Point::new(0.0, 0.0, Timestamp(t0)),
                Point::new(100.0, 0.0, Timestamp(t0 + dur_ms)),
            ],
        )
    }

    fn result() -> ClusteringResult {
        ClusteringResult {
            clusters: vec![
                Cluster {
                    id: 0,
                    representative: sub(1, 0, 3_600_000),
                    representative_vote: 1.0,
                    members: vec![sub(2, 0, 3_600_000), sub(3, 1_800_000, 3_600_000)],
                    member_distances: vec![1.0, 1.0],
                },
                Cluster {
                    id: 1,
                    representative: sub(4, 7_200_000, 3_600_000),
                    representative_vote: 1.0,
                    members: vec![sub(5, 7_200_000, 3_600_000)],
                    member_distances: vec![1.0],
                },
            ],
            outliers: vec![sub(9, 0, 10_800_000)],
        }
    }

    #[test]
    fn buckets_cover_the_extent_and_counts_track_lifespans() {
        let h = time_histogram(&result(), Duration::from_hours(1));
        assert_eq!(h.num_buckets(), 4); // hours 0..3 inclusive
                                        // Cluster 0 is alive in hours 0 and 1 (the late member starts at 0.5 h).
        assert_eq!(h.counts[0][0], 3);
        assert!(h.counts[0][1] >= 1);
        assert_eq!(h.counts[0][3], 0);
        // Cluster 1 only in hours 2 and 3.
        assert_eq!(h.counts[1][0], 0);
        assert_eq!(h.counts[1][2], 2);
        // The outlier spans everything.
        assert!(h.outlier_counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn totals_and_peak() {
        let h = time_histogram(&result(), Duration::from_hours(1));
        let totals = h.totals();
        assert_eq!(totals.len(), 4);
        let (peak_start, peak) = h.peak_bucket().unwrap();
        assert_eq!(peak, *totals.iter().max().unwrap());
        assert!(h.bucket_starts.contains(&peak_start));
    }

    #[test]
    fn csv_shape() {
        let h = time_histogram(&result(), Duration::from_hours(1));
        let csv = h.to_csv();
        // header + (2 clusters + outlier row) per bucket
        assert_eq!(csv.lines().count(), 1 + 4 * 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,0,"));
    }

    #[test]
    fn empty_result_gives_empty_histogram() {
        let h = time_histogram(&<ClusteringResult>::default(), Duration::from_hours(1));
        assert_eq!(h.num_buckets(), 0);
        assert!(h.peak_bucket().is_none());
        assert_eq!(h.to_csv().lines().count(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_bucket_width_is_rejected() {
        let _ = time_histogram(&result(), Duration::ZERO);
    }
}
