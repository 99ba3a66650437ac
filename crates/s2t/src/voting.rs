//! The voting step of NaTS.
//!
//! "During the adopted voting process each 3D trajectory segment of a given
//! trajectory is voted by other trajectories w.r.t. their mutual distance.
//! The voting received by each segment is a value ranging from 0 to N (N
//! being the cardinality of the MOD) that has the physical meaning of how
//! many trajectories co-move with that trajectory for a certain period of
//! time." (ICDE 2018, §II.A)
//!
//! The contribution of voter trajectory `s` to segment `e` is a truncated
//! Gaussian kernel of their time-synchronized distance:
//!
//! ```text
//! vote_s(e) = exp(-d²(e, s) / (2σ²))   if d(e, s) ≤ cutoff(σ),  else 0
//! d(e, s)   = min over segments e' of s alive during e of
//!             mean synchronized distance(e, e')
//! ```
//!
//! This module holds the vote's shared definitions — [`VotingProfile`] and
//! the truncated kernel — and [`naive_voting`], which compares every pair of
//! segments: the "corresponding PostgreSQL functions" baseline of experiment
//! E1, and the reference the hot path ([`crate::arena::arena_voting_with`]) is
//! gated bit-identical against.
//!
//! It fans out over trajectories through a [`hermes_exec::Executor`]
//! (`*_with` variants): each trajectory's votes depend only on the immutable
//! input, so the profiles are computed in parallel and collected in input
//! order — parallel output is bit-identical to serial.

use crate::params::S2TParams;
use hermes_exec::Executor;
use hermes_trajectory::{Trajectory, TrajectoryId};

/// Per-trajectory voting descriptor: one value per segment.
#[derive(Debug, Clone, PartialEq)]
pub struct VotingProfile {
    /// The trajectory these votes describe.
    pub trajectory_id: TrajectoryId,
    /// Index of the trajectory in the input slice (kept so later phases can
    /// find the trajectory without a lookup table).
    pub trajectory_index: usize,
    /// One vote value per segment, in `[0, N-1]`.
    pub votes: Vec<f64>,
}

impl VotingProfile {
    /// Mean vote over all segments (0 for an empty profile).
    pub fn mean(&self) -> f64 {
        if self.votes.is_empty() {
            0.0
        } else {
            self.votes.iter().sum::<f64>() / self.votes.len() as f64
        }
    }

    /// Maximum vote over all segments.
    ///
    /// Convention: an **empty profile reports `0.0`**, consistent with
    /// [`VotingProfile::mean`] — a trajectory with no segments received no
    /// votes. Votes are non-negative by construction (sums of Gaussian
    /// kernel values), so `0.0` is also the true infimum of the vote range.
    pub fn max(&self) -> f64 {
        if self.votes.is_empty() {
            0.0
        } else {
            self.votes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }
}

/// Gaussian kernel with a hard cutoff; both implementations (naive, arena)
/// share it so their results are bit-identical.
pub(crate) fn kernel(distance: f64, sigma: f64, cutoff: f64) -> f64 {
    if distance > cutoff {
        0.0
    } else {
        (-(distance * distance) / (2.0 * sigma * sigma)).exp()
    }
}

/// The votes of one trajectory under the quadratic enumeration.
fn vote_trajectory_naive(
    ti: usize,
    traj: &Trajectory,
    trajectories: &[Trajectory],
    params: &S2TParams,
    cutoff: f64,
) -> VotingProfile {
    let mut votes = Vec::with_capacity(traj.num_segments());
    for si in 0..traj.num_segments() {
        let seg = traj.segment(si);
        let mut vote = 0.0;
        for (tj, other) in trajectories.iter().enumerate() {
            if tj == ti {
                continue;
            }
            let mut best = f64::INFINITY;
            for sj in 0..other.num_segments() {
                let other_seg = other.segment(sj);
                if let Some(d) = seg.mean_synchronized_distance(&other_seg) {
                    if d < best {
                        best = d;
                    }
                }
            }
            if best.is_finite() {
                vote += kernel(best, params.sigma, cutoff);
            }
        }
        votes.push(vote);
    }
    VotingProfile {
        trajectory_id: traj.id,
        trajectory_index: ti,
        votes,
    }
}

/// Quadratic voting without any index: every segment is compared against
/// every segment of every other trajectory. Semantics are identical to
/// [`crate::arena::arena_voting_with`]; only the candidate enumeration differs.
pub fn naive_voting(trajectories: &[Trajectory], params: &S2TParams) -> Vec<VotingProfile> {
    naive_voting_with(trajectories, params, &Executor::serial())
}

/// [`naive_voting`] fanned out over trajectories on `exec`.
pub fn naive_voting_with(
    trajectories: &[Trajectory],
    params: &S2TParams,
    exec: &Executor,
) -> Vec<VotingProfile> {
    let cutoff = params.voting_cutoff_radius();
    exec.map(trajectories, |ti, traj| {
        vote_trajectory_naive(ti, traj, trajectories, params, cutoff)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Timestamp};

    /// A straight trajectory along x at constant speed, offset by `y0`, with
    /// optional time offset.
    fn line(id: u64, y0: f64, t0: i64, n: usize) -> Trajectory {
        Trajectory::new(
            id,
            id,
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y0, Timestamp(t0 + i as i64 * 10_000)))
                .collect(),
        )
        .unwrap()
    }

    fn params(sigma: f64) -> S2TParams {
        S2TParams {
            sigma,
            ..S2TParams::default()
        }
    }

    #[test]
    fn co_moving_trajectories_vote_for_each_other() {
        // Three objects moving together, one far away.
        let trajs = vec![
            line(0, 0.0, 0, 10),
            line(1, 5.0, 0, 10),
            line(2, 10.0, 0, 10),
            line(3, 100_000.0, 0, 10),
        ];
        let p = params(20.0);
        let profiles = naive_voting(&trajs, &p);
        // The co-moving ones receive close to 2 votes on every segment.
        for prof in &profiles[..3] {
            assert!(prof.mean() > 1.5, "expected ~2 votes, got {}", prof.mean());
        }
        // The isolated one receives essentially nothing.
        assert!(profiles[3].mean() < 0.01);
    }

    #[test]
    fn temporally_disjoint_objects_do_not_vote() {
        // Same path, but the second object flies it a day later.
        let trajs = vec![line(0, 0.0, 0, 10), line(1, 0.0, 86_400_000, 10)];
        let profiles = naive_voting(&trajs, &params(20.0));
        assert!(profiles[0].mean() < 1e-12);
        assert!(profiles[1].mean() < 1e-12);
    }

    #[test]
    fn votes_are_bounded_by_mod_cardinality() {
        let trajs: Vec<Trajectory> = (0..6).map(|i| line(i, i as f64, 0, 8)).collect();
        let profiles = naive_voting(&trajs, &params(50.0));
        for prof in &profiles {
            assert_eq!(prof.votes.len(), 7);
            for &v in &prof.votes {
                assert!((0.0..=5.0 + 1e-9).contains(&v));
            }
            assert!(prof.max() <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn closer_neighbours_yield_higher_votes() {
        let trajs = vec![
            line(0, 0.0, 0, 10),
            line(1, 10.0, 0, 10),
            line(2, 40.0, 0, 10),
        ];
        let profiles = naive_voting(&trajs, &params(30.0));
        // Trajectory 1 is near both others; trajectory 2 is near only one and
        // farther away, so its votes must be lower.
        assert!(profiles[1].mean() > profiles[2].mean());
    }

    #[test]
    fn empty_and_single_trajectory_inputs() {
        let p = params(10.0);
        assert!(naive_voting(&[], &p).is_empty());
        let single = vec![line(0, 0.0, 0, 5)];
        let profiles = naive_voting(&single, &p);
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].votes.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn parallel_voting_is_bit_identical_to_serial() {
        let trajs: Vec<Trajectory> = (0..12).map(|i| line(i, i as f64 * 6.0, 0, 10)).collect();
        let p = params(25.0);
        let serial = naive_voting(&trajs, &p);
        for threads in [2usize, 4] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            // Exact equality, not approximate: the parallel fan-out must not
            // change a single bit of any vote.
            assert_eq!(naive_voting_with(&trajs, &p, &exec), serial);
        }
    }

    #[test]
    fn voting_profile_statistics() {
        let prof = VotingProfile {
            trajectory_id: 1,
            trajectory_index: 0,
            votes: vec![1.0, 3.0, 2.0],
        };
        assert!((prof.mean() - 2.0).abs() < 1e-12);
        assert_eq!(prof.max(), 3.0);
        let empty = VotingProfile {
            trajectory_id: 2,
            trajectory_index: 1,
            votes: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.max(), 0.0);
    }

    #[test]
    fn empty_and_singleton_profiles_agree_on_the_zero_convention() {
        // Documented convention: mean and max both report 0.0 for an empty
        // profile, and for a singleton both report the single vote.
        let empty = VotingProfile {
            trajectory_id: 9,
            trajectory_index: 0,
            votes: vec![],
        };
        assert_eq!(empty.mean(), empty.max());
        assert_eq!(empty.max(), 0.0);
        for v in [0.0, 0.25, 4.5] {
            let singleton = VotingProfile {
                trajectory_id: 10,
                trajectory_index: 1,
                votes: vec![v],
            };
            assert_eq!(singleton.mean(), v);
            assert_eq!(singleton.max(), v);
        }
    }
}
