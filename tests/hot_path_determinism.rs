//! The flat hot path must not change a single bit of any answer.
//!
//! Two voting implementations coexist: the quadratic `naive_voting` and the
//! SoA `arena_voting_with` (`SegmentArena` + `PackedSegmentIndex`) the pipeline
//! runs on. On seeded urban, maritime and aircraft datasets, at 1, 4 and 8
//! compute threads, both must agree **exactly** — same `f64` bits in every
//! vote — and the arena-backed pipeline must reproduce the naive voting
//! verbatim end to end.

use hermes::exec::{ExecPolicy, Executor};
use hermes::prelude::*;
use hermes::s2t::{
    arena_voting_counted_with, arena_voting_with, naive_voting_with, run_s2t, run_s2t_with,
    KernelCounters, PackedSegmentIndex, SegmentArena, VotingProfile,
};

fn urban_trajectories() -> Vec<Trajectory> {
    UrbanScenarioBuilder {
        seed: 0x407_ACE,
        grid_size: 12,
        num_corridors: 3,
        vehicles_per_corridor: 5,
        num_random_vehicles: 7,
        ..UrbanScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn maritime_trajectories() -> Vec<Trajectory> {
    MaritimeScenarioBuilder {
        seed: 0x5EA_F00D,
        num_lanes: 3,
        vessels_per_lane: 6,
        num_rogues: 4,
        departure_spread_ms: 30 * 60_000,
        ..MaritimeScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn aircraft_trajectories() -> Vec<Trajectory> {
    AircraftScenarioBuilder {
        seed: 0xA1_4C4A,
        num_streams: 3,
        waves_per_stream: 2,
        flights_per_wave: 4,
        num_stragglers: 3,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories
}

fn workloads() -> Vec<(&'static str, Vec<Trajectory>, S2TParams)> {
    let p = |sigma: f64, epsilon: f64, min_ms: i64| {
        S2TParams::builder()
            .sigma(sigma)
            .epsilon(epsilon)
            .min_duration_ms(min_ms)
            .build()
            .unwrap()
    };
    vec![
        ("urban", urban_trajectories(), p(60.0, 250.0, 3 * 60_000)),
        (
            "maritime",
            maritime_trajectories(),
            p(800.0, 2_500.0, 10 * 60_000),
        ),
        (
            "aircraft",
            aircraft_trajectories(),
            p(2_000.0, 6_000.0, 5 * 60_000),
        ),
    ]
}

/// The thread counts of the satellite task: serial plus two pool sizes.
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn assert_profiles_bit_identical(a: &[VotingProfile], b: &[VotingProfile], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: profile count");
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa.trajectory_id, pb.trajectory_id, "{label}: ids");
        assert_eq!(pa.trajectory_index, pb.trajectory_index, "{label}: order");
        // Exact f64 equality — one flipped bit fails the suite.
        assert_eq!(pa.votes, pb.votes, "{label}: votes of {}", pa.trajectory_id);
    }
}

#[test]
fn arena_voting_is_bit_identical_to_indexed_and_naive_paths() {
    // (The object-graph R-tree path this once compared against as well is
    // gone; the arena and the naive enumeration remain.)
    for (name, trajs, params) in workloads() {
        assert!(
            trajs.len() >= 10,
            "{name}: workload too small to be meaningful"
        );
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);

        let serial = Executor::serial();
        let reference = arena_voting_with(&arena, &packed, &params, &serial);
        for threads in THREAD_COUNTS {
            let exec = Executor::new(ExecPolicy { threads });
            let label = format!("{name}@{threads}");
            assert_profiles_bit_identical(
                &arena_voting_with(&arena, &packed, &params, &exec),
                &reference,
                &format!("{label}/arena"),
            );
            assert_profiles_bit_identical(
                &naive_voting_with(&trajs, &params, &exec),
                &reference,
                &format!("{label}/naive"),
            );
        }
    }
}

#[test]
fn pipeline_runs_on_the_arena_and_reproduces_legacy_voting_verbatim() {
    for (name, trajs, params) in workloads() {
        let outcome = run_s2t(&trajs, &params);
        let via_naive = naive_voting_with(&trajs, &params, &Executor::serial());
        assert_profiles_bit_identical(&outcome.profiles, &via_naive, name);
        // The timing surface knows about the new index build phase.
        assert!(outcome.timings.index_build_ms >= 0.0);
        assert!(outcome.timings.total_ms() > 0.0);
    }
}

#[test]
fn packed_segment_index_matches_legacy_cardinality_and_geometry() {
    for (name, trajs, _params) in workloads() {
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let expected: usize = trajs.iter().map(|t| t.num_segments()).sum();
        assert_eq!(arena.num_segments(), expected, "{name}");
        assert_eq!(packed.len(), expected, "{name}");
        // Every arena segment is in the tree under its own box: the
        // zero-radius ball around that box finds it, at gap 0.
        let tree = packed.tree();
        assert_eq!(tree.len(), expected, "{name}");
        for gs in 0..arena.num_segments() {
            let mut found = 0;
            tree.for_each_ball_candidate_idx(&arena.segment_mbb(gs), 0.0, |i, gap2| {
                if *tree.value(i) as usize == gs {
                    assert_eq!(gap2.to_bits(), 0.0f64.to_bits(), "{name}/{gs}");
                    found += 1;
                }
            });
            assert_eq!(found, 1, "{name}/{gs}");
        }
    }
}

/// Seeded sweep of the batched distance kernel across both dispatch levels
/// and every remainder tail: `Scalar` and `Avx2` lanes (`Avx2` clamped to
/// what the hardware supports) must produce the same `f64` bits as the
/// scalar object-path kernel for every lane — including the `INFINITY`
/// sentinel standing in for `None` on disjoint lifespans. Batch lengths run
/// `1..=2·BATCH+1`, so every partial-vector tail AVX2 can leave is hit,
/// plus one arena-sized batch.
#[test]
fn batch_kernel_is_bit_identical_across_lane_widths_and_tails() {
    use hermes::trajectory::{
        mean_sync_distance, mean_sync_distance_batch_at, SegLanes, SimdLevel, BATCH,
    };

    let levels = [SimdLevel::Scalar, SimdLevel::Avx2];
    for (name, trajs, _params) in workloads() {
        let arena = SegmentArena::build(&trajs);
        let all: Vec<SegLanes> = (0..arena.num_segments())
            .map(|gs| arena.lanes(gs))
            .collect();

        // Deterministic LCG so failures reproduce; the state folds in the
        // workload size to decorrelate the three datasets.
        let mut state = 0x5EED_0BAD_u64 ^ (all.len() as u64);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };

        let mut sizes: Vec<usize> = (1..=2 * BATCH + 1).collect();
        sizes.push(all.len());
        for _ in 0..8 {
            let q = all[next() % all.len()];
            for &n in &sizes {
                // A contiguous wrap-around window starting at a random
                // offset: real runs of neighbours, arbitrary alignment.
                let start = next() % all.len();
                let cands: Vec<SegLanes> = (0..n).map(|i| all[(start + i) % all.len()]).collect();
                let x0: Vec<f64> = cands.iter().map(|c| c.x0).collect();
                let y0: Vec<f64> = cands.iter().map(|c| c.y0).collect();
                let x1: Vec<f64> = cands.iter().map(|c| c.x1).collect();
                let y1: Vec<f64> = cands.iter().map(|c| c.y1).collect();
                let t0: Vec<i64> = cands.iter().map(|c| c.t0).collect();
                let t1: Vec<i64> = cands.iter().map(|c| c.t1).collect();
                let mut out = vec![0.0f64; n];
                for level in levels {
                    mean_sync_distance_batch_at(level, &q, &x0, &y0, &x1, &y1, &t0, &t1, &mut out);
                    for (i, c) in cands.iter().enumerate() {
                        let reference = mean_sync_distance(&q, c).unwrap_or(f64::INFINITY);
                        assert_eq!(
                            out[i].to_bits(),
                            reference.to_bits(),
                            "{name}: lane {i} of {n} at {level:?} diverged from the scalar kernel"
                        );
                    }
                }
            }
        }
    }
}

/// Admissibility of the voting sweep's distance lower bound: for seeded
/// segment pairs from every workload, the per-segment box gap must never
/// exceed the exact mean synchronized distance — in the squared form the
/// sweep actually compares (`gap² ≤ d²`), so a bound that fired where the
/// kernel would have won fails here.
#[test]
fn lower_bounds_never_exceed_exact_distance() {
    use hermes::trajectory::{axis_gap, mean_sync_distance, SegLanes};

    for (name, trajs, _params) in workloads() {
        let arena = SegmentArena::build(&trajs);
        let all: Vec<SegLanes> = (0..arena.num_segments())
            .map(|gs| arena.lanes(gs))
            .collect();

        let mut state = 0xB0_0B5_u64 ^ (all.len() as u64).rotate_left(17);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };

        let mut overlapping = 0usize;
        for draw in 0..20_000usize {
            let qi = next() % all.len();
            let q = all[qi];
            // Alternate uniform pairs with near-index pairs: neighbours in
            // arena order are the same or an adjacent trajectory, where
            // temporal overlap — the case the bound actually guards — is
            // common even on wide-departure-spread workloads.
            let ci = if draw % 2 == 0 {
                next() % all.len()
            } else {
                (qi + next() % 129 + all.len() - 64) % all.len()
            };
            let c = all[ci];
            let Some(d) = mean_sync_distance(&q, &c) else {
                continue;
            };
            overlapping += 1;
            // The box gap the sweep's pair test uses: candidate box against
            // the query's full-lifespan box.
            let gx = axis_gap(
                c.x0.min(c.x1),
                c.x0.max(c.x1),
                q.x0.min(q.x1),
                q.x0.max(q.x1),
            );
            let gy = axis_gap(
                c.y0.min(c.y1),
                c.y0.max(c.y1),
                q.y0.min(q.y1),
                q.y0.max(q.y1),
            );
            let box2 = gx * gx + gy * gy;
            assert!(
                box2 <= d * d,
                "{name}: box gap {box2} exceeds exact distance² {}",
                d * d
            );
        }
        // Uniform pair sampling finds fewer temporal overlaps on workloads
        // with a wide departure spread (maritime); a couple of hundred live
        // pairs per dataset still exercises every branch of the bound.
        assert!(
            overlapping > 100,
            "{name}: too few overlapping pairs ({overlapping}) for the sweep to mean anything"
        );
    }
}

// ---------------------------------------------------------------------------
// The voting sweep over time: three regimes, a brute-force pair count as
// the reference for its counters, and the golden work counts.
// ---------------------------------------------------------------------------

/// Few objects alive at once: four arrival streams over six hours.
fn sparse_aircraft() -> Vec<Trajectory> {
    AircraftScenarioBuilder {
        seed: 0x5CA_77E4,
        num_streams: 4,
        waves_per_stream: 8,
        flights_per_wave: 3,
        num_stragglers: 9,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories
}

/// Every object alive at once: 400 vehicles on one grid in one half hour —
/// the regime where the sweep's live set is largest.
fn dense_urban() -> Vec<Trajectory> {
    hermes_bench::urban_with(400, 13).trajectories
}

/// Hand-built to sit on every boundary of the sweep's live test (a live row
/// ends no earlier than the entering row starts), all within voting range
/// of each other.
fn adversarial() -> Vec<Trajectory> {
    let traj = |id: u64, points: &[(f64, f64, i64)]| {
        Trajectory::new(
            id,
            id,
            points
                .iter()
                .map(|&(x, y, t)| Point::new(x, y, Timestamp(t)))
                .collect(),
        )
        .expect("hand-built points are time-ordered")
    };
    let mut set = Vec::new();
    // One segment spanning the whole time extent of everything else: it is
    // live from the first row to the last.
    set.push(traj(0, &[(0.0, 0.0, 0), (1_000.0, 0.0, 1_000_000)]));
    // Many segments with the same `t0` (and the same sampling afterwards).
    for i in 0..6u64 {
        let y = 10.0 + 7.0 * i as f64;
        set.push(traj(
            1 + i,
            &[
                (100.0, y, 100_000),
                (140.0, y, 110_000),
                (180.0, y, 120_000),
                (220.0, y, 130_000),
                (260.0, y, 140_000),
                (300.0, y, 150_000),
            ],
        ));
    }
    // Zero-gap abutting lifespans across trajectories: this one ends at the
    // very millisecond the group above starts, the next starts at the very
    // millisecond the group ends. One shared instant is an overlap.
    set.push(traj(
        7,
        &[
            (20.0, 30.0, 60_000),
            (60.0, 30.0, 80_000),
            (100.0, 30.0, 100_000),
        ],
    ));
    set.push(traj(
        8,
        &[
            (300.0, 30.0, 150_000),
            (340.0, 30.0, 160_000),
            (380.0, 30.0, 170_000),
        ],
    ));
    // One millisecond short of abutting: no shared instant, no vote.
    set.push(traj(9, &[(20.0, 40.0, 60_000), (100.0, 40.0, 99_999)]));
    // Wholly before and wholly after everything but the spanning segment.
    set.push(traj(
        10,
        &[(5.0, 5.0, 1_000), (15.0, 5.0, 9_000), (25.0, 5.0, 17_000)],
    ));
    set.push(traj(
        11,
        &[
            (900.0, 5.0, 900_000),
            (950.0, 5.0, 950_000),
            (990.0, 5.0, 990_000),
        ],
    ));
    // A single-segment trajectory inside the group's lifespan.
    set.push(traj(12, &[(150.0, 20.0, 105_000), (250.0, 20.0, 145_000)]));
    // Five segments, starting before the group and ending inside it.
    set.push(traj(
        13,
        &[
            (100.0, 60.0, 95_000),
            (130.0, 60.0, 105_000),
            (160.0, 60.0, 115_000),
            (190.0, 60.0, 125_000),
            (220.0, 60.0, 135_000),
            (250.0, 60.0, 145_000),
        ],
    ));
    set
}

fn regimes() -> Vec<(&'static str, Vec<Trajectory>, S2TParams)> {
    let sigma = |sigma: f64| S2TParams::builder().sigma(sigma).build().unwrap();
    vec![
        ("aircraft", sparse_aircraft(), sigma(2_000.0)),
        ("urban-400", dense_urban(), sigma(60.0)),
        ("adversarial", adversarial(), sigma(40.0)),
    ]
}

/// Votes from the sweep equal the quadratic reference bit for bit in all
/// three regimes at 1, 2 and 4 threads. CI repeats this file with
/// `HERMES_SIMD` off and at the default, which runs both kernel widths under
/// it.
#[test]
fn time_ordered_voting_matches_naive_in_three_regimes() {
    for (name, trajs, params) in regimes() {
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let reference =
            naive_voting_with(&trajs, &params, &Executor::new(ExecPolicy { threads: 4 }));
        assert!(
            reference.iter().any(|p| p.votes.iter().any(|&v| v > 0.5)),
            "{name}: nothing votes, the comparison would be vacuous"
        );
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(ExecPolicy { threads });
            assert_profiles_bit_identical(
                &arena_voting_with(&arena, &packed, &params, &exec),
                &reference,
                &format!("{name}@{threads}"),
            );
        }
    }
}

/// The adversarial set really has the pairs it claims: abutting lifespans
/// share exactly one instant (the kernel has a value there, within voting
/// range), and one millisecond of daylight leaves none.
#[test]
fn adversarial_set_sits_on_the_lifespan_boundaries() {
    use hermes::trajectory::mean_sync_distance;

    let (_, trajs, params) = regimes().pop().expect("the adversarial regime is last");
    let last = |t: &Trajectory| t.segment(t.num_segments() - 1).lanes();
    let group_first = trajs[1].segment(0).lanes();
    assert_eq!(last(&trajs[7]).t1, group_first.t0);
    let touching = mean_sync_distance(&last(&trajs[7]), &group_first).expect("one shared instant");
    assert!(touching <= params.voting_cutoff_radius());
    assert_eq!(last(&trajs[9]).t1 + 1, group_first.t0);
    assert_eq!(mean_sync_distance(&last(&trajs[9]), &group_first), None);
    assert_eq!(trajs[12].num_segments(), 1);
    let extent = trajs[0].segment(0).lanes();
    assert!(trajs
        .iter()
        .all(|t| { extent.t0 <= t.segment(0).lanes().t0 && last(t).t1 <= extent.t1 }));
}

/// The kernel counters by brute force: every unordered pair of segments of
/// two different trajectories whose closed lifespans share an instant,
/// split by whether their box gap² lies within the cutoff ball (evaluated)
/// or beyond it (pruned). Each trajectory's segments are in time order, so
/// the segments of one trajectory alive during a segment of another are a
/// run that a binary search finds.
fn brute_force_counters(trajs: &[Trajectory], cutoff: f64) -> KernelCounters {
    use hermes::trajectory::{axis_gap, SegLanes};

    let lanes: Vec<Vec<SegLanes>> = trajs
        .iter()
        .map(|t| {
            (0..t.num_segments())
                .map(|s| t.segment(s).lanes())
                .collect()
        })
        .collect();
    let gap = |a_0: f64, a_1: f64, b_0: f64, b_1: f64| {
        axis_gap(a_0.min(a_1), a_0.max(a_1), b_0.min(b_1), b_0.max(b_1))
    };
    let mut counters = KernelCounters::default();
    for (i, a) in lanes.iter().enumerate() {
        for b in &lanes[i + 1..] {
            for p in a {
                let first = b.partition_point(|q| q.t1 < p.t0);
                for q in b[first..].iter().take_while(|q| q.t0 <= p.t1) {
                    let gx = gap(p.x0, p.x1, q.x0, q.x1);
                    let gy = gap(p.y0, p.y1, q.y0, q.y1);
                    if gx * gx + gy * gy <= cutoff * cutoff {
                        counters.evaluated += 1;
                    } else {
                        counters.pruned += 1;
                    }
                }
            }
        }
    }
    counters
}

/// The sweep meets each time-overlapping pair once and counts it once: its
/// counters are the brute-force oracle's, on the three regimes and the
/// analytic set, at 1, 2 and 4 threads.
#[test]
fn kernel_counters_equal_a_brute_force_pair_count() {
    let analytic = S2TParams::builder().sigma(2_000.0).build().unwrap();
    let mut sets = regimes();
    sets.push(("analytic", analytic_aircraft(), analytic));
    for (name, trajs, params) in sets {
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let oracle = brute_force_counters(&trajs, params.voting_cutoff_radius());
        // The adversarial set lies within voting range of itself: it alone
        // has nothing to prune.
        assert!(
            oracle.evaluated > 0 && (oracle.pruned > 0) != (name == "adversarial"),
            "{name}: {oracle:?}"
        );
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(ExecPolicy { threads });
            let (_, counters) = arena_voting_counted_with(&arena, &packed, &params, &exec);
            assert_eq!(counters, oracle, "{name}@{threads}");
        }
    }
}

/// The benchmark's `s2t_analytic` shape (4 streams × 8 waves × 21 flights +
/// 10 % stragglers) under a fixed seed: 739 flights.
fn analytic_aircraft() -> Vec<Trajectory> {
    let clustered = 4 * 8 * 21;
    let trajs = AircraftScenarioBuilder {
        seed: 7,
        num_streams: 4,
        waves_per_stream: 8,
        flights_per_wave: 21,
        num_stragglers: clustered / 10,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories;
    assert_eq!(trajs.len(), 739);
    trajs
}

/// ROADMAP 7(a)'s first golden count. Pairs that reach the exact kernel and
/// pairs a lower bound rejects first are a pure function of the data and of
/// the order candidates are visited in — no clock, no thread, no SIMD width
/// enters — so they are pinned as constants: a PR that changes how much work
/// voting does must change these numbers on purpose. Data:
/// [`analytic_aircraft`], σ = 2000.
///
/// Each unordered segment pair is evaluated at most once; before symmetric
/// evaluation every pair was evaluated from both sides: 909 639 evaluated /
/// 144 649 pruned. `pruned` counts every time-overlapping pair of two
/// trajectories that the box gap puts beyond the cutoff: the one-sweep
/// voting meets every such pair. The per-probe scan it replaced counted only
/// the pairs its window ball admitted and its best² stages then rejected
/// (68 698), and evaluated the same 459 030.
#[test]
fn golden_kernel_counts_on_the_analytic_aircraft_set() {
    const GOLDEN: KernelCounters = KernelCounters {
        evaluated: 459_030,
        pruned: 805_910,
    };

    let trajs = analytic_aircraft();
    let params = S2TParams::builder().sigma(2_000.0).build().unwrap();
    let arena = SegmentArena::build(&trajs);
    let packed = PackedSegmentIndex::build(&arena);
    let (_, serial) = arena_voting_counted_with(&arena, &packed, &params, &Executor::serial());
    assert_eq!(
        serial, GOLDEN,
        "update GOLDEN only if the change in work is intended"
    );
    for threads in [2usize, 4] {
        let exec = Executor::new(ExecPolicy { threads });
        let (_, parallel) = arena_voting_counted_with(&arena, &packed, &params, &exec);
        assert_eq!(parallel, GOLDEN, "{threads} threads");
    }
}

/// The sub-trajectory distances one S2T measures on [`analytic_aircraft`]
/// (σ = 2000, ε = 6000): sampling's discount sweep and clustering's
/// nearest-representative search, each behind its cut-off. Before the
/// cut-off every one of the `exact + cut_off` pairs that share time was
/// measured to its last sample: 12 307 exact distances (commit `db096f6`,
/// counted by instrumenting its `spatiotemporal_distance`).
#[test]
fn golden_distance_counts_of_one_s2t_on_the_analytic_aircraft_set() {
    use hermes::trajectory::DistanceCounters;

    const GOLDEN: DistanceCounters = DistanceCounters {
        exact: 1_932,
        cut_off: 10_375,
    };

    let trajs = analytic_aircraft();
    let params = S2TParams::builder()
        .sigma(2_000.0)
        .epsilon(6_000.0)
        .build()
        .unwrap();
    for threads in [1usize, 2] {
        let outcome = run_s2t_with(&trajs, &params, &Executor::new(ExecPolicy { threads }));
        assert_eq!(
            outcome.distance, GOLDEN,
            "{threads} threads: update GOLDEN only if the change in work is intended"
        );
    }
}
