//! The clustering and outlier-detection step of SaCO.
//!
//! "Each sub-trajectory in the sampling set is considered to be a cluster
//! representative. … Then, the clustering is done building the clusters
//! 'around' those representatives." (ICDE 2018, §II.A) Every non-seed
//! sub-trajectory joins the closest representative if their spatio-temporal
//! distance is within `ε`; otherwise it is reported as an outlier.

use crate::params::S2TParams;
use crate::segmentation::VotedSubTrajectory;
use hermes_exec::Executor;
use hermes_trajectory::{
    spatiotemporal_distance, DistanceCounters, Lifespan, SubTrajectory, TimeInterval,
};

/// Identifier of a cluster within one clustering result.
pub type ClusterId = usize;

/// A cluster: one representative plus the members grouped around it.
///
/// `M` is what the cluster keeps of each member. A clustering run keeps the
/// sub-trajectories themselves (the default); a window answer assembled from
/// an index keeps a [`hermes_trajectory::SubTrajectorySummary`] — identity
/// and lifespan are all a result frame reads of a member. The representative
/// is a full sub-trajectory either way: distances are taken against it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster<M = SubTrajectory> {
    /// Identifier of the cluster (its index in the result).
    pub id: ClusterId,
    /// The representative (seed) sub-trajectory.
    pub representative: SubTrajectory,
    /// Mean vote of the representative, kept for reporting.
    pub representative_vote: f64,
    /// The members assigned to this representative (the representative
    /// itself is not repeated here).
    pub members: Vec<M>,
    /// Distance of each member to the representative (same order as
    /// `members`).
    pub member_distances: Vec<f64>,
}

impl<M> Cluster<M> {
    /// Number of sub-trajectories in the cluster, counting the representative.
    pub fn size(&self) -> usize {
        self.members.len() + 1
    }

    /// Mean member-to-representative distance (0 for a singleton cluster).
    pub fn mean_distance(&self) -> f64 {
        if self.member_distances.is_empty() {
            0.0
        } else {
            self.member_distances.iter().sum::<f64>() / self.member_distances.len() as f64
        }
    }
}

impl<M: Lifespan> Cluster<M> {
    /// Temporal extent covered by the cluster (union of member lifespans).
    pub fn lifespan(&self) -> TimeInterval {
        let mut span = self.representative.lifespan();
        for m in &self.members {
            span = span.union(&m.lifespan());
        }
        span
    }
}

/// The outcome of a (sub-)trajectory clustering run, members and outliers
/// kept as `M` (see [`Cluster`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringResult<M = SubTrajectory> {
    /// The discovered clusters.
    pub clusters: Vec<Cluster<M>>,
    /// Sub-trajectories that fit no cluster.
    pub outliers: Vec<M>,
}

// Manual impl: the derive would ask for `M: Default`.
impl<M> Default for ClusteringResult<M> {
    fn default() -> Self {
        ClusteringResult {
            clusters: Vec::new(),
            outliers: Vec::new(),
        }
    }
}

impl<M> ClusteringResult<M> {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of outliers.
    pub fn num_outliers(&self) -> usize {
        self.outliers.len()
    }

    /// Total number of sub-trajectories covered (clustered + outliers).
    pub fn total_sub_trajectories(&self) -> usize {
        self.clusters.iter().map(|c| c.size()).sum::<usize>() + self.outliers.len()
    }

    /// Fraction of sub-trajectories that ended up in a cluster.
    pub fn coverage(&self) -> f64 {
        let total = self.total_sub_trajectories();
        if total == 0 {
            0.0
        } else {
            1.0 - self.outliers.len() as f64 / total as f64
        }
    }
}

/// The assignment rule of S2T clustering and of a ReTraTree insert: the
/// position of the representative nearest to `sub` by
/// [`spatiotemporal_distance`], and that distance, among those within
/// `epsilon`. Representatives are visited in order and a tie keeps the first
/// (strict `<`). `None` when no representative is within `epsilon`.
///
/// Each distance is measured with the limit `min(epsilon, best so far)`: a
/// value above it loses either `d <= epsilon` or `d < best`, so the ∞ a
/// cut-off returns in its place is rejected alike. `counters` counts the
/// distances measured.
pub fn nearest_representative<'a>(
    sub: &SubTrajectory,
    representatives: impl IntoIterator<Item = &'a SubTrajectory>,
    epsilon: f64,
    counters: &mut DistanceCounters,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (ci, representative) in representatives.into_iter().enumerate() {
        let limit = best.map_or(epsilon, |(_, bd)| bd.min(epsilon));
        let d = spatiotemporal_distance(sub, representative, limit, counters);
        if d.is_finite() && d <= epsilon && best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((ci, d));
        }
    }
    best
}

/// How one sub-trajectory relates to the representatives: it is one itself,
/// joins the closest one, or fits none.
enum Assignment {
    Seed,
    Member(usize, f64),
    Outlier,
}

/// Groups `subs` around the representatives at `representative_indices`
/// (produced by [`crate::sampling::select_representatives`]).
pub fn cluster_around_representatives(
    subs: &[VotedSubTrajectory],
    representative_indices: &[usize],
    params: &S2TParams,
) -> ClusteringResult {
    cluster_around_representatives_with(subs, representative_indices, params, &Executor::serial())
}

/// [`cluster_around_representatives`] with the per-sub-trajectory
/// nearest-representative searches fanned out on `exec`. Assignments are
/// applied in input order, so member lists and outliers come out exactly as
/// in the serial pass.
pub fn cluster_around_representatives_with(
    subs: &[VotedSubTrajectory],
    representative_indices: &[usize],
    params: &S2TParams,
    exec: &Executor,
) -> ClusteringResult {
    cluster_around_representatives_counted(subs, representative_indices, params, exec).0
}

/// [`cluster_around_representatives_with`] plus the distances it measured.
pub(crate) fn cluster_around_representatives_counted(
    subs: &[VotedSubTrajectory],
    representative_indices: &[usize],
    params: &S2TParams,
    exec: &Executor,
) -> (ClusteringResult, DistanceCounters) {
    let mut clusters: Vec<Cluster> = representative_indices
        .iter()
        .enumerate()
        .map(|(ci, &ri)| Cluster {
            id: ci,
            representative: subs[ri].sub.clone(),
            representative_vote: subs[ri].mean_vote,
            members: Vec::new(),
            member_distances: Vec::new(),
        })
        .collect();
    let mut outliers = Vec::new();
    let mut is_seed = vec![false; subs.len()];
    for &ri in representative_indices {
        is_seed[ri] = true;
    }

    let assignments = exec.map(subs, |i, s| {
        let mut counters = DistanceCounters::default();
        if is_seed[i] {
            return (Assignment::Seed, counters);
        }
        let representatives = clusters.iter().map(|c| &c.representative);
        let assignment =
            match nearest_representative(&s.sub, representatives, params.epsilon, &mut counters) {
                Some((ci, d)) => Assignment::Member(ci, d),
                None => Assignment::Outlier,
            };
        (assignment, counters)
    });

    let mut totals = DistanceCounters::default();
    for (i, (assignment, counters)) in assignments.into_iter().enumerate() {
        totals.accumulate(&counters);
        match assignment {
            Assignment::Seed => {}
            Assignment::Member(ci, d) => {
                clusters[ci].members.push(subs[i].sub.clone());
                clusters[ci].member_distances.push(d);
            }
            Assignment::Outlier => outliers.push(subs[i].sub.clone()),
        }
    }

    (ClusteringResult { clusters, outliers }, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, SubTrajectoryId, Timestamp};

    fn voted(id: u64, y: f64, t0: i64, mean_vote: f64) -> VotedSubTrajectory {
        let sub = SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            (0..10)
                .map(|i| Point::new(i as f64 * 10.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect(),
        );
        VotedSubTrajectory {
            sub,
            mean_vote,
            max_vote: mean_vote,
        }
    }

    fn params(epsilon: f64) -> S2TParams {
        S2TParams {
            epsilon,
            ..S2TParams::default()
        }
    }

    #[test]
    fn members_join_the_closest_representative() {
        let subs = vec![
            voted(0, 0.0, 0, 5.0),      // representative A
            voted(1, 500.0, 0, 5.0),    // representative B
            voted(2, 10.0, 0, 1.0),     // near A
            voted(3, 490.0, 0, 1.0),    // near B
            voted(4, 10_000.0, 0, 0.5), // outlier
        ];
        let result = cluster_around_representatives(&subs, &[0, 1], &params(100.0));
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.clusters[0].members.len(), 1);
        assert_eq!(result.clusters[0].members[0].trajectory_id, 2);
        assert_eq!(result.clusters[1].members[0].trajectory_id, 3);
        assert_eq!(result.num_outliers(), 1);
        assert_eq!(result.outliers[0].trajectory_id, 4);
        assert_eq!(result.total_sub_trajectories(), 5);
        assert!((result.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn epsilon_bounds_cluster_membership() {
        let subs = vec![voted(0, 0.0, 0, 5.0), voted(1, 80.0, 0, 1.0)];
        let tight = cluster_around_representatives(&subs, &[0], &params(50.0));
        assert_eq!(tight.num_outliers(), 1);
        let loose = cluster_around_representatives(&subs, &[0], &params(100.0));
        assert_eq!(loose.num_outliers(), 0);
    }

    #[test]
    fn temporally_disjoint_members_are_outliers() {
        let subs = vec![voted(0, 0.0, 0, 5.0), voted(1, 0.0, 86_400_000, 1.0)];
        let result = cluster_around_representatives(&subs, &[0], &params(1_000.0));
        assert_eq!(result.num_outliers(), 1);
    }

    #[test]
    fn cluster_statistics() {
        let subs = vec![
            voted(0, 0.0, 0, 5.0),
            voted(1, 10.0, 0, 1.0),
            voted(2, 20.0, 0, 1.0),
        ];
        let result = cluster_around_representatives(&subs, &[0], &params(100.0));
        let c = &result.clusters[0];
        assert_eq!(c.size(), 3);
        assert!(c.mean_distance() > 0.0);
        assert_eq!(c.lifespan(), subs[0].sub.lifespan());
        // Singleton cluster edge case.
        let singleton = cluster_around_representatives(&subs[..1], &[0], &params(100.0));
        assert_eq!(singleton.clusters[0].mean_distance(), 0.0);
        assert_eq!(singleton.clusters[0].size(), 1);
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let result = cluster_around_representatives(&[], &[], &params(100.0));
        assert_eq!(result.num_clusters(), 0);
        assert_eq!(result.num_outliers(), 0);
        assert_eq!(result.coverage(), 0.0);
    }
}
