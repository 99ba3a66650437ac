//! Property-based tests over the core data structures and the invariants the
//! clustering pipeline relies on.
//!
//! The harness is a dependency-free sweep: each property runs against a few
//! hundred inputs drawn from the workspace's own deterministic [`SplitMix64`]
//! generator, so failures reproduce exactly (re-run with the same seed) and
//! the suite builds offline.

use hermes::datagen::SplitMix64;
use hermes::gist::PackedRTree;
use hermes::s2t::{
    cluster_around_representatives, segment_trajectory, select_representatives, S2TParams,
    VotingProfile,
};
use hermes::sql;
use hermes::sql::{Scalar, Statement, Value};
use hermes::storage::{decode_sub_trajectory, encode_sub_trajectory};
use hermes::trajectory::{
    interpolate, Mbb, Point, SubTrajectory, SubTrajectoryId, TimeInterval, Timestamp, Trajectory,
};

/// Runs `property` against `cases` inputs drawn from a seeded generator.
fn sweep(seed: u64, cases: usize, mut property: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..cases {
        property(&mut rng);
    }
}

// --- generators -------------------------------------------------------------

fn gen_point(rng: &mut SplitMix64) -> Point {
    Point::new(
        rng.range(-1_000.0, 1_000.0),
        rng.range(-1_000.0, 1_000.0),
        Timestamp(rng.index(10_000_000) as i64),
    )
}

fn gen_mbb(rng: &mut SplitMix64) -> Mbb {
    let mut m = Mbb::from_point(&gen_point(rng));
    m.expand_point(&gen_point(rng));
    m
}

/// A valid trajectory: strictly increasing times, finite coordinates.
fn gen_trajectory(rng: &mut SplitMix64) -> Trajectory {
    let n = 2 + rng.index(38);
    let step = 1 + rng.index(120_000) as i64;
    let (mut x, mut y) = (rng.range(-500.0, 500.0), rng.range(-500.0, 500.0));
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        x += rng.range(-50.0, 50.0);
        y += rng.range(-50.0, 50.0);
        pts.push(Point::new(x, y, Timestamp(i as i64 * step)));
    }
    Trajectory::new(1, 1, pts).expect("generated trajectories are valid")
}

// --- Mbb laws ----------------------------------------------------------------

#[test]
fn mbb_union_is_commutative_and_contains_both() {
    sweep(0xA1, 300, |rng| {
        let (a, b) = (gen_mbb(rng), gen_mbb(rng));
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        assert_eq!(u1, u2);
        assert!(u1.contains(&a));
        assert!(u1.contains(&b));
    });
}

#[test]
fn mbb_intersection_is_contained_in_both() {
    sweep(0xA2, 300, |rng| {
        let (a, b) = (gen_mbb(rng), gen_mbb(rng));
        match a.intersection(&b) {
            Some(i) => {
                assert!(a.contains(&i));
                assert!(b.contains(&i));
                assert!(a.intersects(&b));
            }
            None => assert!(!a.intersects(&b)),
        }
    });
}

#[test]
fn mbb_min_distance_is_zero_iff_intersecting() {
    sweep(0xA3, 300, |rng| {
        let (a, b) = (gen_mbb(rng), gen_mbb(rng));
        let d = a.min_distance(&b, 1.0);
        if a.intersects(&b) {
            assert!(d == 0.0);
        } else {
            assert!(d > 0.0);
        }
    });
}

// --- R-tree equivalence with a linear scan ------------------------------------

/// The values a packed tree's ball query visits, sorted.
fn ball_hits(tree: &PackedRTree<usize>, query: &Mbb, radius: f64) -> Vec<usize> {
    let mut hits = Vec::new();
    tree.for_each_ball_candidate_idx(query, radius, |i, _| hits.push(*tree.value(i)));
    hits.sort_unstable();
    hits
}

#[test]
fn rtree_range_query_matches_linear_scan() {
    // A ball of radius 0 is the closed query box.
    sweep(0xB1, 60, |rng| {
        let boxes: Vec<Mbb> = (0..1 + rng.index(119)).map(|_| gen_mbb(rng)).collect();
        let query = gen_mbb(rng);
        let tree = PackedRTree::bulk_load(boxes.iter().copied().zip(0..).collect());
        let expected: Vec<usize> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ball_hits(&tree, &query, 0.0), expected);
    });
}

#[test]
fn rtree_bulk_load_matches_incremental() {
    // Items arriving in another order pack into another tree, which must
    // answer every ball query with the same set.
    sweep(0xB2, 60, |rng| {
        let boxes: Vec<Mbb> = (0..1 + rng.index(119)).map(|_| gen_mbb(rng)).collect();
        let query = gen_mbb(rng);
        let radius = rng.index(300) as f64;
        let items: Vec<(Mbb, usize)> = boxes.iter().copied().zip(0..).collect();
        let forward = PackedRTree::bulk_load(items.clone());
        let backward = PackedRTree::bulk_load(items.into_iter().rev().collect());
        assert_eq!(forward.len(), backward.len());
        assert_eq!(
            ball_hits(&forward, &query, radius),
            ball_hits(&backward, &query, radius)
        );
    });
}

// --- interpolation -------------------------------------------------------------

#[test]
fn interpolated_positions_stay_inside_the_mbb() {
    sweep(0xC1, 200, |rng| {
        let traj = gen_trajectory(rng);
        let f = rng.next_f64();
        let span = traj.lifespan();
        let t = Timestamp(
            span.start.millis() + ((span.end.millis() - span.start.millis()) as f64 * f) as i64,
        );
        let p = traj.position_at(t).expect("t is inside the lifespan");
        let mbb = traj.mbb();
        assert!(p.x >= mbb.x_min - 1e-9 && p.x <= mbb.x_max + 1e-9);
        assert!(p.y >= mbb.y_min - 1e-9 && p.y <= mbb.y_max + 1e-9);
        assert!(
            interpolate::position_at(traj.points(), Timestamp(span.end.millis() + 1)).is_none()
        );
    });
}

#[test]
fn temporal_slice_is_within_window_and_lossless_on_full_window() {
    sweep(0xC2, 200, |rng| {
        let traj = gen_trajectory(rng);
        let span = traj.lifespan();
        let full = traj.temporal_slice(&span).unwrap();
        assert_eq!(full.points(), traj.points());

        let mid = Timestamp((span.start.millis() + span.end.millis()) / 2);
        if mid > span.start {
            let w = TimeInterval::new(span.start, mid);
            if let Ok(slice) = traj.temporal_slice(&w) {
                assert!(slice.start_time() >= w.start);
                assert!(slice.end_time() <= w.end);
            }
        }
    });
}

// --- segmentation invariants ------------------------------------------------------

#[test]
fn segmentation_partitions_the_trajectory_exactly() {
    sweep(0xD1, 100, |rng| {
        let traj = gen_trajectory(rng);
        let tau = rng.range(0.05, 0.9);
        let votes_seed = rng.next_u64() % 1000;
        let votes: Vec<f64> = (0..traj.num_segments())
            .map(|i| ((i as u64 * 2654435761 + votes_seed) % 100) as f64 / 10.0)
            .collect();
        let profile = VotingProfile {
            trajectory_id: traj.id,
            trajectory_index: 0,
            votes,
        };
        let params = S2TParams {
            tau,
            min_duration_ms: 0,
            ..S2TParams::default()
        };
        let subs = segment_trajectory(&traj, &profile, &params);

        assert!(!subs.is_empty());
        // Pieces tile the trajectory: boundaries chain, segments sum up.
        assert_eq!(subs.first().unwrap().sub.start_time(), traj.start_time());
        assert_eq!(subs.last().unwrap().sub.end_time(), traj.end_time());
        for w in subs.windows(2) {
            assert_eq!(w[0].sub.end_time(), w[1].sub.start_time());
        }
        let total_segments: usize = subs.iter().map(|s| s.sub.num_segments()).sum();
        assert_eq!(total_segments, traj.num_segments());
    });
}

// --- clustering invariants ---------------------------------------------------------

#[test]
fn every_sub_trajectory_is_clustered_or_outlier_exactly_once() {
    sweep(0xE1, 60, |rng| {
        let n = 2 + rng.index(23);
        let ys: Vec<f64> = (0..n).map(|_| rng.range(0.0, 5_000.0)).collect();
        let votes: Vec<f64> = (0..n).map(|_| rng.range(0.0, 5.0)).collect();
        let epsilon = rng.range(50.0, 2_000.0);
        let subs: Vec<hermes::s2t::VotedSubTrajectory> = (0..n)
            .map(|i| {
                let sub = SubTrajectory::from_points(
                    SubTrajectoryId::new(i as u64, 0),
                    i as u64,
                    i as u64,
                    (0..5)
                        .map(|k| Point::new(k as f64 * 100.0, ys[i], Timestamp(k as i64 * 60_000)))
                        .collect(),
                );
                hermes::s2t::VotedSubTrajectory {
                    sub,
                    mean_vote: votes[i],
                    max_vote: votes[i],
                }
            })
            .collect();
        let params = S2TParams {
            epsilon,
            ..S2TParams::default()
        };
        let reps = select_representatives(&subs, &params);
        let result = cluster_around_representatives(&subs, &reps, &params);

        // Conservation: every input ends up exactly once somewhere.
        assert_eq!(result.total_sub_trajectories(), subs.len());
        // Members respect the distance bound.
        for c in &result.clusters {
            for d in &c.member_distances {
                assert!(*d <= epsilon + 1e-9);
            }
        }
        // Representatives have positive votes.
        for c in &result.clusters {
            assert!(c.representative_vote > 0.0);
        }
    });
}

// --- storage codec -------------------------------------------------------------------

#[test]
fn sub_trajectory_codec_round_trips() {
    sweep(0xF1, 200, |rng| {
        let n = 2 + rng.index(58);
        let traj_id = rng.next_u64() / 2;
        let offset = rng.index(10_000) as u32;
        let points: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    rng.range(-1_000.0, 1_000.0),
                    rng.range(-1_000.0, 1_000.0),
                    Timestamp(i as i64 * 1_000),
                )
            })
            .collect();
        let sub = SubTrajectory::from_points(
            SubTrajectoryId::new(traj_id, offset),
            traj_id,
            traj_id / 2,
            points,
        );
        let bytes = encode_sub_trajectory(&sub);
        let back = decode_sub_trajectory(&bytes).unwrap();
        assert_eq!(back.id, sub.id);
        assert_eq!(back.object_id, sub.object_id);
        assert_eq!(back.points(), sub.points());
    });
}

// --- SQL parser robustness --------------------------------------------------------------

/// Draws a printable-ASCII string of length < 120.
fn gen_garbage(rng: &mut SplitMix64) -> String {
    let n = rng.index(120);
    (0..n)
        .map(|_| (0x20 + rng.index(0x5f) as u8) as char)
        .collect()
}

#[test]
fn sql_parser_never_panics() {
    sweep(0x51, 2_000, |rng| {
        // Any input must either parse or produce a ParseError — never panic.
        let _ = sql::parse(&gen_garbage(rng));
    });
    // A few adversarial shapes the random sweep may miss.
    for input in [
        "$",
        "$$$",
        "SELECT",
        "SELECT QUT(",
        "((((",
        "1 2 3",
        "\"",
        "-",
        "1e",
        "$18446744073709551616",
    ] {
        let _ = sql::parse(input);
    }
}

#[test]
fn sql_range_statement_round_trips() {
    sweep(0x52, 300, |rng| {
        let wi = rng.index(2_000_000) as i64 - 1_000_000;
        let we = rng.index(2_000_000) as i64 - 1_000_000;
        let text = format!("SELECT RANGE(flights, {wi}, {we});");
        let stmt = sql::parse(&text).unwrap();
        assert_eq!(
            stmt,
            Statement::Range {
                name: "flights".into(),
                wi: Scalar::int(wi),
                we: Scalar::int(we)
            }
        );
    });
}

// --- SQL statement render/parse round trip -----------------------------------------------

/// Draws a literal or, with probability ~1/4, a placeholder.
fn gen_scalar(rng: &mut SplitMix64, next_param: &mut usize) -> Scalar {
    match rng.index(8) {
        0 | 1 => {
            *next_param += 1;
            Scalar::Param(*next_param)
        }
        2..=4 => Scalar::int(rng.index(20_000_000) as i64 - 10_000_000),
        5 => Scalar::float(rng.range(-10.0, 10.0)),
        6 => Scalar::float((rng.index(1_000_000) as f64) / 100.0),
        _ => Scalar::float(rng.range(-1e7, 1e7)),
    }
}

fn gen_statement(rng: &mut SplitMix64) -> Statement {
    let name = format!("ds_{}", rng.index(100));
    let mut p = 0usize;
    let s = |rng: &mut SplitMix64, p: &mut usize| gen_scalar(rng, p);
    match rng.index(10) {
        0 => Statement::CreateDataset { name },
        1 => Statement::DropDataset { name },
        2 => Statement::ShowDatasets,
        3 => {
            let sigma = rng.chance(0.5).then(|| s(rng, &mut p));
            let epsilon = rng.chance(0.5).then(|| s(rng, &mut p));
            Statement::BuildIndex {
                chunk_hours: s(rng, &mut p),
                sigma,
                epsilon,
                name,
            }
        }
        4 => Statement::Info { name },
        5 | 6 => Statement::S2T {
            sigma: s(rng, &mut p),
            tau: s(rng, &mut p),
            delta: s(rng, &mut p),
            min_duration_ms: s(rng, &mut p),
            epsilon: s(rng, &mut p),
            naive: rng.chance(0.5),
            name,
        },
        7 => {
            let rebuild = rng.chance(0.5);
            Statement::Qut {
                wi: s(rng, &mut p),
                we: s(rng, &mut p),
                tau: s(rng, &mut p),
                delta: s(rng, &mut p),
                min_duration_ms: s(rng, &mut p),
                // The rebuild form renders without merge arguments; the
                // parser fills these canonical values back in.
                merge_distance: if rebuild {
                    Scalar::float(0.0)
                } else {
                    s(rng, &mut p)
                },
                merge_gap_ms: if rebuild {
                    Scalar::int(0)
                } else {
                    s(rng, &mut p)
                },
                rebuild,
                name,
            }
        }
        8 => Statement::Range {
            wi: s(rng, &mut p),
            we: s(rng, &mut p),
            name,
        },
        _ => Statement::Histogram {
            wi: s(rng, &mut p),
            we: s(rng, &mut p),
            bucket_ms: s(rng, &mut p),
            name,
        },
    }
}

#[test]
fn sql_statement_render_parse_round_trips() {
    sweep(0x53, 500, |rng| {
        let stmt = gen_statement(rng);
        let rendered = stmt.to_string();
        let reparsed = sql::parse(&rendered)
            .unwrap_or_else(|e| panic!("render of {stmt:?} does not reparse: {rendered} ({e})"));
        assert_eq!(
            reparsed, stmt,
            "round trip changed the statement: {rendered}"
        );
    });
}

#[test]
fn sql_bound_statements_round_trip_too() {
    sweep(0x54, 200, |rng| {
        let stmt = gen_statement(rng);
        // The highest `$n` of the rendered text: the values it binds.
        let wanted = stmt
            .to_string()
            .split('$')
            .skip(1)
            .map(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits
                    .parse::<usize>()
                    .expect("a placeholder renders as $n")
            })
            .max()
            .unwrap_or(0);
        let params: Vec<Value> = (0..wanted)
            .map(|_| {
                if rng.chance(0.5) {
                    Value::Int(rng.index(1_000_000) as i64)
                } else {
                    Value::Float(rng.range(0.0, 1_000.0))
                }
            })
            .collect();
        let bound = stmt.bind(&params).expect("enough parameters supplied");
        assert!(!bound.to_string().contains('$'), "{bound}");
        assert_eq!(sql::parse(&bound.to_string()).unwrap(), bound);
    });
}

// --- SQL parser error paths ---------------------------------------------------------------

#[test]
fn sql_parser_error_paths_are_descriptive() {
    // Unterminated statement / string literal.
    assert!(sql::parse("SELECT INFO('oops;")
        .unwrap_err()
        .0
        .contains("unterminated"));
    assert!(sql::parse("SELECT RANGE(flights, 0")
        .unwrap_err()
        .0
        .contains("end of statement"));
    // Wrong arity, both directions.
    assert!(sql::parse("SELECT RANGE(flights, 0);")
        .unwrap_err()
        .0
        .contains("RANGE expects 2"));
    assert!(sql::parse("SELECT HISTOGRAM(flights, 0, 1, 2, 3);")
        .unwrap_err()
        .0
        .contains("HISTOGRAM expects 3"));
    // Non-numeric literal in a numeric position.
    assert!(sql::parse("SELECT RANGE(flights, 'zero', 10);")
        .unwrap_err()
        .0
        .contains("expected a number"));
    assert!(sql::parse("SELECT S2T(flights, 1x, 2, 3, 4, 5);").is_err());
    // Unknown function / statement.
    assert!(sql::parse("SELECT FROBNICATE(flights);")
        .unwrap_err()
        .0
        .contains("unknown function"));
    assert!(sql::parse("VACUUM flights;")
        .unwrap_err()
        .0
        .contains("unknown statement"));
}
