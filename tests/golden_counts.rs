//! Golden work counts of the QuT read path (ROADMAP 7(a)).
//!
//! Wall-clock drifts by tens of percent on the boxes this repository is
//! measured on; the *work* a statement does — records loaded, cluster pairs
//! merged, pages looked up — is a pure function of the seeded data set and
//! the statement when one client drives an engine at `threads = 1`. (More
//! threads or more clients change the order of the lookups, never their
//! number.)
//!
//! A PR that moves one of these numbers must do so on purpose and say so in
//! CHANGES.md next to the old value.

use hermes::prelude::*;
use hermes::retratree::OwnedSlice;
use hermes::server::protocol::{write_response, Response};
use hermes::sql;

/// What one statement cost.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    /// `QutStats::loaded_sub_trajectories` (for `RANGE`, the count answered).
    loaded: usize,
    /// `QutStats::merges`.
    merges: usize,
    /// Page lookups of the first run: the border
    /// loads, and the members of every covered entry no earlier statement
    /// of this test filled (the fill is the entry's, not the statement's)…
    lookups: u64,
    /// …and of the same statement again: the border memo answers the
    /// borders and level 3 the covered sub-chunks, so a QUT reads no page.
    repeat_lookups: u64,
}

/// The benchmark's index shape over half of `s2t_analytic`'s flights.
const BUILD_INDEX: &str = "BUILD INDEX ON data WITH CHUNK 0.5 HOURS SIGMA 2000 EPSILON 6000;";
const QUT_TAIL: &str = "0.35, 0.05, 300000, 6000, 1800000";
const SUBCHUNK_MS: i64 = 450_000;

fn engine() -> HermesEngine {
    let trajectories = AircraftScenarioBuilder {
        seed: 7,
        num_streams: 4,
        waves_per_stream: 4,
        flights_per_wave: 20,
        num_stragglers: 32,
        holding_probability: 0.3,
        ..AircraftScenarioBuilder::default()
    }
    .build()
    .trajectories;
    assert_eq!(trajectories.len(), 352);
    let mut engine = HermesEngine::with_exec_policy(ExecPolicy { threads: 1 });
    engine.create_dataset("data").unwrap();
    engine.load_trajectories("data", trajectories).unwrap();
    sql::execute(&mut engine, BUILD_INDEX).unwrap();
    engine
}

/// Runs `statement` twice (same frame both times) and reports the page
/// lookups each run made.
fn lookups_of(engine: &mut HermesEngine, statement: &str) -> (QueryOutcome, [u64; 2]) {
    let mut run = || {
        let before = engine.stats().page_lookups;
        let outcome = sql::execute(engine, statement).unwrap();
        (outcome, engine.stats().page_lookups - before)
    };
    let (first, lookups) = run();
    let (second, repeat_lookups) = run();
    assert_eq!(
        first.expect_frame(statement),
        second.expect_frame(statement)
    );
    (first, [lookups, repeat_lookups])
}

/// The work of `SELECT QUT(data, wi, we, …)`.
fn qut_work(engine: &mut HermesEngine, wi: i64, we: i64) -> Work {
    let statement = format!("SELECT QUT(data, {wi}, {we}, {QUT_TAIL});");
    let (first, [lookups, repeat_lookups]) = lookups_of(engine, &statement);
    let loaded = match first.stats().unwrap().get(0, "loaded_sub_trajectories") {
        Some(Value::Int(n)) => *n as usize,
        other => panic!("loaded_sub_trajectories is {other:?}"),
    };
    // `merges` is not part of the SQL stats frame: ask the engine.
    let params = QutParams {
        s2t: S2TParams {
            tau: 0.35,
            delta: 0.05,
            min_duration_ms: 300_000,
            ..engine.tree("data").unwrap().params().s2t.clone()
        },
        merge_distance: 6_000.0,
        merge_gap: Duration::from_millis(1_800_000),
    };
    let w = TimeInterval::new(Timestamp(wi), Timestamp(we));
    let (_, stats) = engine.run_qut("data", &w, &params).unwrap();
    assert_eq!(stats.loaded_sub_trajectories, loaded, "{statement}");
    Work {
        loaded,
        merges: stats.merges,
        lookups,
        repeat_lookups,
    }
}

#[test]
fn golden_work_counts_of_the_qut_read_path() {
    let mut engine = engine();
    let span = engine.dataset_info("data").unwrap().lifespan.unwrap();
    let (lo, hi) = (span.start.millis(), span.end.millis());
    let first = lo.div_euclid(SUBCHUNK_MS);
    let last = hi.div_euclid(SUBCHUNK_MS);
    assert_eq!((first, last), (0, 25), "the data set moved");

    // Grid-aligned: sub-chunks 6..=17, every one fully covered.
    let aligned = qut_work(&mut engine, 6 * SUBCHUNK_MS, 18 * SUBCHUNK_MS);
    // Full span, both edges off the grid: two borders, the rest covered.
    let unaligned = qut_work(
        &mut engine,
        first * SUBCHUNK_MS + 123_456,
        last * SUBCHUNK_MS + 234_567,
    );

    // HISTOGRAM is a QUT with the default merge parameters underneath.
    let (wi, we) = (3 * SUBCHUNK_MS, 22 * SUBCHUNK_MS);
    let statement = format!("SELECT HISTOGRAM(data, {wi}, {we}, {SUBCHUNK_MS});");
    let (_, [lookups, repeat_lookups]) = lookups_of(&mut engine, &statement);
    let params = QutParams {
        s2t: engine.tree("data").unwrap().params().s2t.clone(),
        ..QutParams::default()
    };
    let w = TimeInterval::new(Timestamp(wi), Timestamp(we));
    let (_, stats) = engine.run_qut("data", &w, &params).unwrap();
    let histogram = Work {
        loaded: stats.loaded_sub_trajectories,
        merges: stats.merges,
        lookups,
        repeat_lookups,
    };

    // RANGE counts the summaries level 3 keeps: no page lookup.
    let statement = format!(
        "SELECT RANGE(data, {}, {});",
        5 * SUBCHUNK_MS + 1,
        16 * SUBCHUNK_MS
    );
    let (outcome, [lookups, repeat_lookups]) = lookups_of(&mut engine, &statement);
    let range = Work {
        loaded: match outcome
            .expect_frame(&statement)
            .get(0, "sub_trajectories_in_window")
        {
            Some(Value::Int(n)) => *n as usize,
            other => panic!("count is {other:?}"),
        },
        merges: 0,
        lookups,
        repeat_lookups,
    };

    let got = [aligned, unaligned, histogram, range];
    // The first covered read of an entry costs a lookup per page run of its
    // members (~4 records here) and outliers none; a border's loads cost one
    // per page run too, taken in storage order. The unaligned QUT pays for
    // its 24 border loads and the fills the aligned one left over; by the
    // HISTOGRAM every entry it covers is filled.
    const GOLDEN: [Work; 4] = [
        Work {
            loaded: 408,
            merges: 85,
            lookups: 87,
            repeat_lookups: 0,
        },
        Work {
            loaded: 847,
            merges: 194,
            lookups: 105,
            repeat_lookups: 0,
        },
        Work {
            loaded: 652,
            merges: 43,
            lookups: 0,
            repeat_lookups: 0,
        },
        Work {
            loaded: 493,
            merges: 0,
            lookups: 0,
            repeat_lookups: 0,
        },
    ];
    assert_eq!(
        got, GOLDEN,
        "update GOLDEN only if the change in work is intended"
    );
}

/// What a spanning QUT costs on the wire: the encoded `Response::QutPartial`
/// of each of two shards that split the data set at a sub-chunk boundary.
/// Members and outliers travel as 44-byte summaries, representatives whole —
/// and on this small tree one sub-trajectory in five is a representative
/// (97 + 82 of the 920 carried), which is three quarters of these bytes.
#[test]
fn golden_bytes_of_a_spanning_qut_partial() {
    let engine = engine();
    let params = QutParams {
        s2t: S2TParams {
            tau: 0.35,
            delta: 0.05,
            min_duration_ms: 300_000,
            ..engine.tree("data").unwrap().params().s2t.clone()
        },
        merge_distance: 6_000.0,
        merge_gap: Duration::from_millis(1_800_000),
    };
    // Sub-chunks 2..=21 whole and a border at either end, cut after 12.
    let w = TimeInterval::new(
        Timestamp(SUBCHUNK_MS + 123_456),
        Timestamp(22 * SUBCHUNK_MS + 234_567),
    );
    let cut = 13 * SUBCHUNK_MS;
    let slices = [
        OwnedSlice::new(i64::MIN, cut),
        OwnedSlice::new(cut, i64::MAX),
    ];
    let got = slices.map(|owned| {
        let partial = engine.run_qut_partial("data", &owned, &w, &params).unwrap();
        let members: usize = partial.clusters.iter().map(|c| c.members.len()).sum();
        let carried = partial.clusters.len() + members + partial.outliers.len();
        let mut sink = std::io::sink();
        let bytes = write_response(&mut sink, &Response::QutPartial(partial)).unwrap();
        (carried, bytes)
    });
    // (sub-trajectories carried, encoded bytes) per slice.
    const GOLDEN: [(usize, u64); 2] = [(504, 84_301), (416, 70_277)];
    assert_eq!(
        got, GOLDEN,
        "update GOLDEN only if the change in bytes is intended"
    );
}
