//! The end-to-end S2T-Clustering pipeline.
//!
//! Wires the four steps together (voting → segmentation → sampling →
//! clustering) and reports per-phase wall-clock timings, which the benchmark
//! harness uses to regenerate the paper's speedup claims (experiments E1 and
//! E3).

use crate::arena::{arena_voting_counted_with, KernelCounters, PackedSegmentIndex, SegmentArena};
use crate::clustering::{cluster_around_representatives_counted, ClusteringResult};
use crate::params::S2TParams;
use crate::sampling::select_representatives_counted;
use crate::segmentation::{segment_all_with, VotedSubTrajectory};
use crate::voting::{naive_voting_with, VotingProfile};
use hermes_exec::Executor;
use hermes_trajectory::{DistanceCounters, SubTrajectory, Trajectory};
use std::time::Instant;

/// Wall-clock timings of the pipeline phases, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct S2TPhaseTimings {
    /// Building the segment index (0 for the naive variant and for a run
    /// over an [`S2tIndex`] built earlier).
    pub index_build_ms: f64,
    /// Voting phase.
    pub voting_ms: f64,
    /// Segmentation phase.
    pub segmentation_ms: f64,
    /// Sampling (representative selection) phase.
    pub sampling_ms: f64,
    /// Greedy clustering / outlier detection phase.
    pub clustering_ms: f64,
}

impl S2TPhaseTimings {
    /// Total pipeline time.
    pub fn total_ms(&self) -> f64 {
        self.index_build_ms
            + self.voting_ms
            + self.segmentation_ms
            + self.sampling_ms
            + self.clustering_ms
    }

    /// Adds another run's timings phase by phase — how QuT aggregates the
    /// pipelines of its border sub-chunks and how the engine accumulates its
    /// `SHOW STATS` phase counters.
    pub fn accumulate(&mut self, other: &S2TPhaseTimings) {
        self.index_build_ms += other.index_build_ms;
        self.voting_ms += other.voting_ms;
        self.segmentation_ms += other.segmentation_ms;
        self.sampling_ms += other.sampling_ms;
        self.clustering_ms += other.clustering_ms;
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct S2TOutcome {
    /// The clusters and outliers.
    pub result: ClusteringResult,
    /// The per-trajectory voting profiles (kept for VA exports and for the
    /// incremental-maintenance path of the ReTraTree).
    pub profiles: Vec<VotingProfile>,
    /// All sub-trajectories produced by segmentation, in input order.
    pub sub_trajectories: Vec<VotedSubTrajectory>,
    /// Per-phase timings.
    pub timings: S2TPhaseTimings,
    /// Pruned-vs-evaluated counters from the voting sweep. Zero for the
    /// naive pipeline, which has no box-gap test (every pair pays the
    /// exact kernel by design — that is what makes it the baseline).
    pub kernel: KernelCounters,
    /// Exact sub-trajectory distances sampling and clustering measured, and
    /// how many of them a limit cut off early.
    pub distance: DistanceCounters,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1_000.0
}

/// The parameter-independent half of the indexed pipeline: the collection
/// flattened into a SoA [`SegmentArena`] and sorted by start time into a
/// [`PackedSegmentIndex`]. Neither depends on (σ, ε, …), so one index serves
/// every [`run_s2t_indexed_with`] call over the same trajectories — the
/// engine keeps one per dataset value instead of re-packing per statement.
pub struct S2tIndex {
    arena: SegmentArena,
    packed: PackedSegmentIndex,
    build_ms: f64,
}

impl S2tIndex {
    /// Flattens and packs `trajectories` (timed: see [`S2tIndex::build_ms`]).
    pub fn build(trajectories: &[Trajectory]) -> Self {
        let t0 = Instant::now();
        let arena = SegmentArena::build(trajectories);
        let packed = PackedSegmentIndex::build(&arena);
        S2tIndex {
            arena,
            packed,
            build_ms: ms(t0),
        }
    }

    /// Wall-clock milliseconds [`S2tIndex::build`] took — what the run that
    /// built the index reports as `index_build_ms`.
    pub fn build_ms(&self) -> f64 {
        self.build_ms
    }
}

/// Voting → segmentation → sampling → clustering. `index` is `Some` for the
/// flat hot path (votes bit-identical to `naive_voting`, see `crate::arena`
/// for the exactness argument) and
/// `None` for the quadratic baseline. `index_build_ms` is left at 0: the
/// caller that built the index stamps it.
fn run_pipeline(
    trajectories: &[Trajectory],
    index: Option<&S2tIndex>,
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    let mut timings = S2TPhaseTimings::default();

    let t0 = Instant::now();
    let (profiles, kernel) = match index {
        Some(index) => {
            assert_eq!(
                index.arena.num_trajectories(),
                trajectories.len(),
                "S2tIndex was built over a different trajectory set"
            );
            arena_voting_counted_with(&index.arena, &index.packed, params, exec)
        }
        None => (
            naive_voting_with(trajectories, params, exec),
            KernelCounters::default(),
        ),
    };
    timings.voting_ms = ms(t0);

    let t0 = Instant::now();
    let subs = segment_all_with(trajectories, &profiles, params, exec);
    timings.segmentation_ms = ms(t0);

    let mut distance = DistanceCounters::default();
    let t0 = Instant::now();
    let representatives = select_representatives_counted(&subs, params, &mut distance);
    timings.sampling_ms = ms(t0);

    let t0 = Instant::now();
    let (result, clustering) =
        cluster_around_representatives_counted(&subs, &representatives, params, exec);
    distance.accumulate(&clustering);
    timings.clustering_ms = ms(t0);

    S2TOutcome {
        result,
        profiles,
        sub_trajectories: subs,
        timings,
        kernel,
        distance,
    }
}

/// Runs the full S2T-Clustering pipeline with index-accelerated voting — the
/// in-DBMS fast path of the paper.
pub fn run_s2t(trajectories: &[Trajectory], params: &S2TParams) -> S2TOutcome {
    run_s2t_with(trajectories, params, &Executor::serial())
}

/// [`run_s2t`] with every data-parallel phase (voting, segmentation, the
/// sampling discount sweep, clustering) fanned out on `exec`. The result is
/// bit-identical to [`run_s2t`] for any thread count. Builds a throw-away
/// [`S2tIndex`]; callers that cluster the same trajectories repeatedly build
/// it once and call [`run_s2t_indexed_with`].
pub fn run_s2t_with(
    trajectories: &[Trajectory],
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    let index = S2tIndex::build(trajectories);
    let mut outcome = run_s2t_indexed_with(trajectories, &index, params, exec);
    outcome.timings.index_build_ms = index.build_ms();
    outcome
}

/// [`run_s2t_with`] over an [`S2tIndex`] built earlier from these same
/// `trajectories` (panics if the trajectory counts disagree). Everything but
/// `timings.index_build_ms` — 0 here, nothing was built — is bit-identical
/// to [`run_s2t_with`].
pub fn run_s2t_indexed_with(
    trajectories: &[Trajectory],
    index: &S2tIndex,
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    run_pipeline(trajectories, Some(index), params, exec)
}

/// Runs the same pipeline with quadratic (index-free) voting — the baseline
/// standing in for "corresponding PostgreSQL functions" in experiment E1.
pub fn run_s2t_naive(trajectories: &[Trajectory], params: &S2TParams) -> S2TOutcome {
    run_s2t_naive_with(trajectories, params, &Executor::serial())
}

/// [`run_s2t_naive`] fanned out on `exec`.
pub fn run_s2t_naive_with(
    trajectories: &[Trajectory],
    params: &S2TParams,
    exec: &Executor,
) -> S2TOutcome {
    run_pipeline(trajectories, None, params, exec)
}

/// Re-wraps sub-trajectories as standalone trajectories so the pipeline can
/// be re-applied to the content of a single ReTraTree partition (the
/// maintenance path of Fig. 2). Identifiers are preserved through
/// `trajectory_id`/`object_id`; the offset survives in the sub-trajectory id.
pub fn trajectories_from_subs(subs: &[SubTrajectory]) -> Vec<Trajectory> {
    subs.iter()
        .filter_map(|s| Trajectory::new(s.trajectory_id, s.object_id, s.points().to_vec()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::{Point, Timestamp};

    /// Builds a small MOD with two co-moving groups and a pair of loners.
    fn small_mod() -> Vec<Trajectory> {
        let mut trajs = Vec::new();
        let mut id = 0u64;
        // Group 1: 4 objects flying east together.
        for k in 0..4 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        i as f64 * 100.0,
                        k as f64 * 20.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        // Group 2: 3 objects flying north together, elsewhere.
        for k in 0..3 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        50_000.0 + k as f64 * 20.0,
                        i as f64 * 100.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        // Two loners far from everything.
        for k in 0..2 {
            let pts: Vec<Point> = (0..20)
                .map(|i| {
                    Point::new(
                        -30_000.0 - k as f64 * 10_000.0,
                        -30_000.0,
                        Timestamp(i as i64 * 60_000),
                    )
                })
                .collect();
            trajs.push(Trajectory::new(id, id, pts).unwrap());
            id += 1;
        }
        trajs
    }

    fn params() -> S2TParams {
        S2TParams {
            sigma: 60.0,
            epsilon: 300.0,
            min_duration_ms: 120_000,
            ..S2TParams::default()
        }
    }

    #[test]
    fn pipeline_discovers_the_two_groups_and_the_loners() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let result = &outcome.result;
        assert_eq!(
            result.num_clusters(),
            2,
            "expected exactly the two co-moving groups"
        );
        let mut sizes: Vec<usize> = result.clusters.iter().map(|c| c.size()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4]);
        assert_eq!(result.num_outliers(), 2);
        // Every input trajectory is accounted for exactly once.
        assert_eq!(
            result.total_sub_trajectories(),
            outcome.sub_trajectories.len()
        );
    }

    #[test]
    fn indexed_and_naive_pipelines_agree() {
        let trajs = small_mod();
        let fast = run_s2t(&trajs, &params());
        let slow = run_s2t_naive(&trajs, &params());
        assert_eq!(fast.result.num_clusters(), slow.result.num_clusters());
        assert_eq!(fast.result.num_outliers(), slow.result.num_outliers());
        let sizes = |r: &ClusteringResult| {
            let mut v: Vec<usize> = r.clusters.iter().map(|c| c.size()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&fast.result), sizes(&slow.result));
        assert!(slow.timings.index_build_ms == 0.0);
    }

    #[test]
    fn one_index_serves_every_parameter_set() {
        let trajs = small_mod();
        let index = S2tIndex::build(&trajs);
        let exec = Executor::serial();
        for (sigma, epsilon) in [(30.0, 150.0), (60.0, 300.0), (120.0, 600.0)] {
            let p = S2TParams {
                sigma,
                epsilon,
                ..params()
            };
            let fresh = run_s2t_with(&trajs, &p, &exec);
            let reused = run_s2t_indexed_with(&trajs, &index, &p, &exec);
            assert_eq!(reused.profiles, fresh.profiles);
            assert_eq!(reused.result, fresh.result);
            assert_eq!(reused.kernel, fresh.kernel);
            assert_eq!(reused.distance, fresh.distance);
            assert_eq!(reused.timings.index_build_ms, 0.0);
        }
    }

    #[test]
    fn timings_are_populated() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let t = outcome.timings;
        assert!(t.total_ms() > 0.0);
        assert!(t.voting_ms >= 0.0 && t.clustering_ms >= 0.0);
    }

    #[test]
    fn empty_input_is_handled() {
        let outcome = run_s2t(&[], &params());
        assert_eq!(outcome.result.num_clusters(), 0);
        assert_eq!(outcome.result.num_outliers(), 0);
        assert!(outcome.sub_trajectories.is_empty());
    }

    #[test]
    fn trajectories_from_subs_round_trips_points() {
        let trajs = small_mod();
        let outcome = run_s2t(&trajs, &params());
        let subs: Vec<_> = outcome
            .sub_trajectories
            .iter()
            .map(|v| v.sub.clone())
            .collect();
        let back = trajectories_from_subs(&subs);
        assert_eq!(back.len(), subs.len());
        for (t, s) in back.iter().zip(subs.iter()) {
            assert_eq!(t.points(), s.points());
            assert_eq!(t.id, s.trajectory_id);
        }
    }
}
