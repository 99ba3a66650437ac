//! T-OPTICS: time-focused clustering of whole trajectories (Nanni &
//! Pedreschi, JIIS 2006).
//!
//! OPTICS is run over the *time-synchronized* Euclidean distance between
//! whole trajectories; flat clusters are extracted with a reachability
//! threshold. Unlike S2T-Clustering, the unit of grouping is the entire
//! trajectory — the method cannot report that only a *portion* of two
//! trajectories co-moves, which is exactly the gap sub-trajectory clustering
//! fills.

use crate::optics::{extract_clusters, optics_order, OpticsPoint};
use hermes_trajectory::{synchronized_euclidean, Trajectory};

/// Parameters of a T-OPTICS run.
#[derive(Debug, Clone, PartialEq)]
pub struct TOpticsParams {
    /// Neighbourhood radius of the OPTICS pass.
    pub eps: f64,
    /// Core threshold (minimum neighbourhood size including the item).
    pub min_pts: usize,
    /// Reachability threshold used to extract flat clusters.
    pub reachability_threshold: f64,
}

impl Default for TOpticsParams {
    fn default() -> Self {
        TOpticsParams {
            eps: 200.0,
            min_pts: 3,
            reachability_threshold: 150.0,
        }
    }
}

/// Output of [`t_optics`].
#[derive(Debug, Clone)]
pub struct TOpticsResult {
    /// The OPTICS ordering (index → input trajectory position).
    pub order: Vec<OpticsPoint>,
    /// Flat cluster per input trajectory (`None` = noise).
    pub assignment: Vec<Option<usize>>,
    /// Number of flat clusters.
    pub num_clusters: usize,
}

impl TOpticsResult {
    /// Number of trajectories labelled as noise.
    pub fn num_noise(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_none()).count()
    }
}

/// Runs T-OPTICS over whole trajectories.
pub fn t_optics(trajectories: &[Trajectory], params: &TOpticsParams) -> TOpticsResult {
    let dist = |i: usize, j: usize| -> f64 {
        if i == j {
            return 0.0;
        }
        synchronized_euclidean(&trajectories[i], &trajectories[j]).unwrap_or(f64::INFINITY)
    };
    let order = optics_order(trajectories.len(), params.eps, params.min_pts, dist);
    let (assignment, num_clusters) = extract_clusters(&order, params.reachability_threshold);
    TOpticsResult {
        order,
        assignment,
        num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Timestamp};

    /// Input positions of the members of cluster `c`.
    fn cluster_members(result: &TOpticsResult, c: usize) -> Vec<usize> {
        (0..result.assignment.len())
            .filter(|&i| result.assignment[i] == Some(c))
            .collect()
    }

    fn line(id: u64, y: f64, t0: i64) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..20)
                .map(|i| Point::new(i as f64 * 100.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn groups_co_moving_trajectories() {
        let mut trajs = Vec::new();
        for k in 0..5 {
            trajs.push(line(k, k as f64 * 20.0, 0));
        }
        for k in 5..9 {
            trajs.push(line(k, 50_000.0 + (k - 5) as f64 * 20.0, 0));
        }
        trajs.push(line(9, 200_000.0, 0)); // noise
        let result = t_optics(&trajs, &TOpticsParams::default());
        assert_eq!(result.num_clusters, 2);
        assert_eq!(result.num_noise(), 1);
        assert_eq!(
            cluster_members(&result, 0).len() + cluster_members(&result, 1).len(),
            9
        );
    }

    #[test]
    fn time_shifted_trajectories_are_not_grouped() {
        // Same geometry, disjoint lifespans: a time-aware method must not
        // cluster them (their synchronized distance is infinite).
        let trajs = vec![
            line(0, 0.0, 0),
            line(1, 10.0, 0),
            line(2, 20.0, 0),
            line(3, 0.0, 86_400_000),
            line(4, 10.0, 86_400_000),
        ];
        let result = t_optics(
            &trajs,
            &TOpticsParams {
                min_pts: 3,
                ..TOpticsParams::default()
            },
        );
        // The three morning trajectories cluster; the two evening ones are
        // too few for min_pts=3.
        assert_eq!(result.num_clusters, 1);
        let members = cluster_members(&result, 0);
        assert_eq!(members, vec![0, 1, 2]);
        assert_eq!(result.num_noise(), 2);
    }

    #[test]
    fn whole_trajectory_granularity_misses_partial_co_movement() {
        // Two objects co-move for the first half only; the second half
        // diverges far apart. Whole-trajectory T-OPTICS averages the two
        // halves and refuses to cluster them with a tight threshold, whereas
        // a sub-trajectory method would report the shared half.
        let a: Vec<Point> = (0..20)
            .map(|i| Point::new(i as f64 * 100.0, 0.0, Timestamp(i as i64 * 60_000)))
            .collect();
        let b: Vec<Point> = (0..20)
            .map(|i| {
                let y = if i < 10 {
                    10.0
                } else {
                    10.0 + (i - 9) as f64 * 2_000.0
                };
                Point::new(i as f64 * 100.0, y, Timestamp(i as i64 * 60_000))
            })
            .collect();
        let trajs = vec![
            Trajectory::new(0, 0, a).unwrap(),
            Trajectory::new(1, 1, b).unwrap(),
        ];
        let result = t_optics(
            &trajs,
            &TOpticsParams {
                eps: 100.0,
                min_pts: 2,
                reachability_threshold: 100.0,
            },
        );
        assert_eq!(
            result.num_clusters, 0,
            "whole-trajectory distance hides the shared half"
        );
    }

    #[test]
    fn empty_input() {
        let result = t_optics(&[], &TOpticsParams::default());
        assert_eq!(result.num_clusters, 0);
        assert!(result.assignment.is_empty());
    }
}
