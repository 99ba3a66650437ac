//! The sampling step of SaCO: selecting cluster representatives.
//!
//! "The sampling set should contain highly voted trajectories of the MOD
//! which, at the same time, would cover the 3D space occupied by the entire
//! dataset as much as possible." (ICDE 2018, §II.A)
//!
//! The selection is a greedy maximum-coverage procedure: candidates are
//! scored by their voting-based representativeness, discounted by how much of
//! their spatio-temporal neighbourhood is already covered by previously
//! selected representatives. Selection stops when the marginal gain falls
//! below `δ` times the best gain, or when `max_representatives` is reached.

use crate::params::S2TParams;
use crate::segmentation::VotedSubTrajectory;
use hermes_exec::Executor;
use hermes_trajectory::{spatiotemporal_distance, DistanceCounters};

/// Greedily selects the indices of the sub-trajectories that will seed the
/// clusters, in selection order.
pub fn select_representatives(subs: &[VotedSubTrajectory], params: &S2TParams) -> Vec<usize> {
    select_representatives_with(subs, params, &Executor::serial())
}

/// [`select_representatives`] behind the signature every other phase's
/// `*_with` entry point has. `_exec` is unused: picks are sequential — each
/// depends on every earlier discount — and the distance evaluations of one
/// discount sweep are sub-microsecond each, far below what a fork-join costs
/// per index (see `Executor::map_indices`), so fanning them out made the
/// phase several times slower on two threads than on one.
pub fn select_representatives_with(
    subs: &[VotedSubTrajectory],
    params: &S2TParams,
    _exec: &Executor,
) -> Vec<usize> {
    select_representatives_counted(subs, params, &mut DistanceCounters::default())
}

/// [`select_representatives`], adding the distances it measured to
/// `counters`.
pub(crate) fn select_representatives_counted(
    subs: &[VotedSubTrajectory],
    params: &S2TParams,
    counters: &mut DistanceCounters,
) -> Vec<usize> {
    if subs.is_empty() {
        return Vec::new();
    }
    let limit = if params.max_representatives == 0 {
        usize::MAX
    } else {
        params.max_representatives
    };

    let mut selected: Vec<usize> = Vec::new();
    // Residual gain of each candidate, updated as representatives are picked.
    let mut gain: Vec<f64> = subs.iter().map(|s| s.representativeness()).collect();
    // Cleared when a candidate is picked, and when it lies within ε of a
    // pick: it would be a member of that cluster anyway and can never become
    // a seed itself.
    let mut eligible: Vec<bool> = vec![true; subs.len()];
    let mut first_gain: Option<f64> = None;

    while selected.len() < limit {
        // Pick the eligible candidate with the highest residual gain.
        let mut best_idx = None;
        let mut best_gain = 0.0f64;
        for (i, &g) in gain.iter().enumerate() {
            if eligible[i] && g > best_gain {
                best_gain = g;
                best_idx = Some(i);
            }
        }
        let Some(idx) = best_idx else { break };

        match first_gain {
            None => {
                // Never select a zero-vote seed: a dataset where nothing
                // co-moves has no clusters, only outliers.
                if subs[idx].mean_vote <= 0.0 {
                    break;
                }
                first_gain = Some(best_gain);
            }
            Some(fg) => {
                if best_gain < params.delta * fg || subs[idx].mean_vote <= 0.0 {
                    break;
                }
            }
        }

        selected.push(idx);
        eligible[idx] = false;
        // Discount the remaining candidates by how much of their
        // neighbourhood the new pick covers — a similarity in [0, 1]: 1 when
        // they coincide, 0 when they are at least 2ε apart or never co-exist
        // — and retire those already covered by it. Beyond 2ε the discount
        // is exactly `× 1.0` (`d / 2ε ≥ 1` rounds monotonically, so the
        // similarity clamps to `0.0`), the same as for the ∞ a distance cut
        // off at 2ε returns: the cut-off changes no gain.
        let limit = 2.0 * params.epsilon;
        for (i, g) in gain.iter_mut().enumerate() {
            if !eligible[i] {
                continue;
            }
            let d = spatiotemporal_distance(&subs[i].sub, &subs[idx].sub, limit, counters);
            if d <= params.epsilon {
                eligible[i] = false;
                continue;
            }
            let overlap = if d.is_finite() {
                (1.0 - d / (2.0 * params.epsilon)).max(0.0)
            } else {
                0.0
            };
            *g *= 1.0 - overlap;
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, SubTrajectory, SubTrajectoryId, Timestamp};

    fn voted(id: u64, y: f64, t0: i64, n: usize, mean_vote: f64) -> VotedSubTrajectory {
        let sub = SubTrajectory::from_points(
            SubTrajectoryId::new(id, 0),
            id,
            id,
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y, Timestamp(t0 + i as i64 * 60_000)))
                .collect(),
        );
        VotedSubTrajectory {
            sub,
            mean_vote,
            max_vote: mean_vote,
        }
    }

    fn params(epsilon: f64, delta: f64, max: usize) -> S2TParams {
        S2TParams {
            epsilon,
            delta,
            max_representatives: max,
            ..S2TParams::default()
        }
    }

    #[test]
    fn picks_the_highest_voted_first() {
        let subs = vec![
            voted(1, 0.0, 0, 10, 1.0),
            voted(2, 1_000.0, 0, 10, 5.0),
            voted(3, 2_000.0, 0, 10, 3.0),
        ];
        let sel = select_representatives(&subs, &params(100.0, 0.05, 0));
        assert_eq!(sel[0], 1, "highest voted candidate must be selected first");
        assert_eq!(sel.len(), 3, "well separated candidates are all selected");
    }

    #[test]
    fn nearby_candidates_are_redundant() {
        // Two co-located, highly voted candidates and one distant, lower one.
        let subs = vec![
            voted(1, 0.0, 0, 10, 5.0),
            voted(2, 1.0, 0, 10, 4.9),
            voted(3, 10_000.0, 0, 10, 2.0),
        ];
        let sel = select_representatives(&subs, &params(100.0, 0.2, 0));
        assert!(sel.contains(&0));
        assert!(sel.contains(&2));
        assert!(
            !sel.contains(&1),
            "the near-duplicate of an already selected seed must be suppressed: {sel:?}"
        );
    }

    #[test]
    fn zero_votes_produce_no_representatives() {
        let subs = vec![voted(1, 0.0, 0, 10, 0.0), voted(2, 50.0, 0, 10, 0.0)];
        assert!(select_representatives(&subs, &params(100.0, 0.05, 0)).is_empty());
    }

    #[test]
    fn max_representatives_caps_the_selection() {
        let subs: Vec<VotedSubTrajectory> = (0..10)
            .map(|i| voted(i, i as f64 * 5_000.0, 0, 10, 3.0))
            .collect();
        let sel = select_representatives(&subs, &params(100.0, 0.0, 4));
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn delta_stops_selection_when_gain_collapses() {
        // One dominant seed; everything else is close to it, so residual
        // gains collapse below delta quickly.
        let mut subs = vec![voted(0, 0.0, 0, 20, 10.0)];
        for i in 1..6 {
            subs.push(voted(i, i as f64, 0, 20, 9.0));
        }
        let sel = select_representatives(&subs, &params(500.0, 0.5, 0));
        assert_eq!(
            sel.len(),
            1,
            "redundant candidates must not pass the δ bar: {sel:?}"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(select_representatives(&[], &params(100.0, 0.05, 0)).is_empty());
    }

    #[test]
    fn temporally_disjoint_candidates_are_not_redundant() {
        // Same place, different days: both deserve to be representatives.
        let subs = vec![
            voted(1, 0.0, 0, 10, 3.0),
            voted(2, 0.0, 86_400_000, 10, 3.0),
        ];
        let sel = select_representatives(&subs, &params(100.0, 0.05, 0));
        assert_eq!(sel.len(), 2);
    }
}
