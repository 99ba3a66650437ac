//! The four workloads: their data, statements, operation lists and
//! schedules, each a pure function of `(workload, seed, seconds)`.
//!
//! Every size below is a frozen constant, calibrated once on the reference
//! box (see `README.md`, "Frozen constants") and never tuned at run time: a
//! run executes a fixed list of operations, so two commits are compared on
//! identical work.

use crate::schedule::exponential_schedule;
use hermes_datagen::{AircraftScenarioBuilder, SplitMix64};
use hermes_sql::Value;
use hermes_trajectory::{Point, Timestamp, Trajectory};

/// `BUILD INDEX` chunk: 0.5 h, in four sub-chunks of 7.5 min.
pub const CHUNK_MS: i64 = 1_800_000;
pub const SUBCHUNK_MS: i64 = CHUNK_MS / 4;
/// The one index definition every workload builds during set-up.
pub const BUILD_INDEX: &str = "BUILD INDEX ON data WITH CHUNK 0.5 HOURS SIGMA 2000 EPSILON 6000;";
/// τ, δ, t, d, γ of every QUT statement.
const QUT_TAIL: &str = "0.35, 0.05, 300000, 6000, 1800000";
/// Ids of streamed flights start here, clear of the resident ids.
const STREAM_ID_BASE: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    S2tAnalytic,
    QutServe,
    IngestDurable,
    ShardedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::S2tAnalytic,
        Workload::QutServe,
        Workload::IngestDurable,
        Workload::ShardedMixed,
    ];

    /// The workloads `BENCHMARK.json` hands to the driver. `ingest_durable`
    /// is not among them: its cost is re-copying a growing data set on every
    /// commit, which runs at the speed of the host's memory, and on the
    /// shared reference box that moved its medians by 30–45 % between two
    /// sets of ten runs of the same code (see `NOISE.md`). It stays a full
    /// workload of `run`, `trace`, `selfcheck` and `--workload`.
    pub const GATED: [Workload; 3] = [
        Workload::S2tAnalytic,
        Workload::QutServe,
        Workload::ShardedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S2tAnalytic => "s2t_analytic",
            Workload::QutServe => "qut_serve",
            Workload::IngestDurable => "ingest_durable",
            Workload::ShardedMixed => "sharded_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists: which layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::S2tAnalytic => "whole-dataset S2T over ~740 flights, one closed-loop client: voting, index probe and distance kernel do nearly all the work; storage, server and coord almost none",
            Workload::QutServe => "two closed-loop clients on ~3200 indexed flights: ReTraTree reuse vs border re-clustering, a buffer pool wide windows overflow, prepared vs text SQL, server framing",
            Workload::IngestDurable => "one client streams INGEST batches into a durable indexed dataset that grows sixfold, with CHECKPOINTs, then SIGKILL and restart: WAL, copy-on-write epochs, recovery",
            Workload::ShardedMixed => "open loop at 40 ops/s through hermes-coord over 2 shards x 2 replicas: routing, fan-out, slowest-shard wait, border merge, replicated writes",
        }
    }

    /// The operation whose latency is `key_op_p50_ms`.
    pub fn key_op(self) -> OpKind {
        match self {
            Workload::S2tAnalytic => OpKind::S2t,
            Workload::QutServe => OpKind::QutUnaligned,
            Workload::IngestDurable => OpKind::Ingest,
            Workload::ShardedMixed => OpKind::QutSpanning,
        }
    }

    /// Open loop (scheduled sends) or closed loop (send after the reply).
    pub fn open_loop(self) -> bool {
        self == Workload::ShardedMixed
    }

    fn sizing(self) -> Sizing {
        match self {
            // ~740 flights, ~55 k points: one S2T ≈ 0.12 s on two threads,
            // so one unit of the eight parameter sets ≈ 1 s.
            Workload::S2tAnalytic => Sizing {
                waves: 8,
                flights_per_wave: 21,
                units_per_round: 1,
            },
            // ~3 200 flights over 6.2 h: ~50 sub-chunks, more stored pages
            // than the 256-frame buffer pool holds. A unit is 12 operations
            // per connection, ≈ 0.4–0.5 s.
            Workload::QutServe => Sizing {
                waves: 8,
                flights_per_wave: 91,
                units_per_round: 2,
            },
            // ~2 700 resident flights. A unit is one INGEST batch of ~10 ms,
            // more as the data set grows.
            Workload::IngestDurable => Sizing {
                waves: 8,
                flights_per_wave: 76,
                units_per_round: INGEST_BATCHES,
            },
            // ~1 600 flights cut in two at the middle chunk boundary. A unit
            // is one block of MIXED_BLOCK scheduled operations, half a second
            // at the offered rate.
            Workload::ShardedMixed => Sizing {
                waves: 8,
                flights_per_wave: 45,
                units_per_round: (MIXED_RATE_PER_S as usize) / MIXED_BLOCK,
            },
        }
    }
}

/// Frozen size of one workload: the resident data set (four arrival streams
/// of `waves` waves, 45 min apart, plus 10 % stragglers) and how many units
/// of its operation mix make a round of nominally one second.
struct Sizing {
    waves: usize,
    flights_per_wave: usize,
    units_per_round: usize,
}

/// `ingest_durable`: batches per round and flights per batch. One batch is
/// ~30 KiB on the wire and takes ~10 ms at the median; 48 × 16 flights per
/// round over 32 rounds add 24 576 flights to the ~2 700 resident ones.
pub const INGEST_BATCHES: usize = 48;
pub const INGEST_BATCH: usize = 16;
/// `ingest_durable`: `CHECKPOINT;` closes every fifth round.
pub const CHECKPOINT_EVERY: usize = 5;
/// `sharded_mixed`: offered rate, ≈ 40 % of the mix's closed-loop capacity
/// through the coordinator on the reference box.
pub const MIXED_RATE_PER_S: f64 = 40.0;
/// `sharded_mixed`: one block holds the mix exactly — 10 spanning QUT,
/// 5 interior QUT, 3 RANGE, 2 single-flight INGEST.
pub const MIXED_BLOCK: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    S2t,
    QutUnaligned,
    QutAligned,
    QutSpanning,
    QutInterior,
    Histogram,
    Range,
    Info,
    Ingest,
    Checkpoint,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::S2t => "s2t",
            OpKind::QutUnaligned => "qut_unaligned",
            OpKind::QutAligned => "qut_aligned",
            OpKind::QutSpanning => "qut_spanning",
            OpKind::QutInterior => "qut_interior",
            OpKind::Histogram => "histogram",
            OpKind::Range => "range",
            OpKind::Info => "info",
            OpKind::Ingest => "ingest",
            OpKind::Checkpoint => "checkpoint",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Ad-hoc statement text.
    Text(String),
    /// `Prepare` once per connection, then `ExecutePrepared`; `text` is the
    /// same statement with the parameters written in, the reference's key.
    Prepared {
        template: usize,
        params: Vec<Value>,
        text: String,
    },
    /// `Ingest` of `stream[first..first + count]` into `dataset`.
    Ingest {
        dataset: &'static str,
        first: usize,
        count: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub body: Body,
}

impl Op {
    fn text(kind: OpKind, sql: String) -> Op {
        Op {
            kind,
            body: Body::Text(sql),
        }
    }

    /// The statement whose reference answer this read must equal; `None`
    /// for writes, which are checked by their command status.
    pub fn reference_sql(&self) -> Option<&str> {
        match (&self.body, self.kind) {
            (_, OpKind::Checkpoint) | (Body::Ingest { .. }, _) => None,
            (Body::Text(sql), _) => Some(sql),
            (Body::Prepared { text, .. }, _) => Some(text),
        }
    }
}

/// Everything one run needs, and nothing that depends on the clock.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// Loaded into `data` during set-up.
    pub resident: Vec<Trajectory>,
    /// Flights `Ingest` operations send, in sending order.
    pub stream: Vec<Trajectory>,
    /// Statements each connection prepares before its first operation.
    pub templates: Vec<String>,
    /// One untimed pass per connection, the last step of set-up.
    pub warmup: Vec<Vec<Op>>,
    /// The measured operations of each connection, in order.
    pub conns: Vec<Vec<Op>>,
    /// Open loop only: the intended send time of each operation in `conns`,
    /// nanoseconds from the start of the measured section.
    pub send_at_ns: Option<Vec<Vec<u64>>>,
    /// `sharded_mixed` only: the shard boundary.
    pub cut_ms: Option<i64>,
    /// Rounds the completions are cut into.
    pub rounds: usize,
    /// Read statements the restarted server must still answer correctly
    /// (`ingest_durable` only).
    pub after_restart: Vec<String>,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`, sized for `seconds` of
    /// measured work on the reference box. `quick` is the two-round smoke
    /// mode.
    pub fn build(workload: Workload, seed: u64, seconds: u64, quick: bool) -> Plan {
        let sizing = workload.sizing();
        // One round per second asked for; `--seconds` never changes what a
        // round is, only how many there are.
        let (rounds, units_per_round) = if quick {
            (2, 1)
        } else {
            ((seconds as usize).max(2), sizing.units_per_round)
        };
        // One generator per purpose, so resizing one list never reshuffles
        // another.
        let rng =
            |purpose: u64| SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(purpose));
        let resident = flights(
            rng(1).next_u64(),
            sizing.waves,
            sizing.flights_per_wave,
            0,
            0,
        );
        let (lo, hi) = span(&resident);
        let mut plan = Plan {
            workload,
            resident,
            stream: Vec::new(),
            templates: Vec::new(),
            warmup: Vec::new(),
            conns: Vec::new(),
            send_at_ns: None,
            cut_ms: None,
            rounds,
            after_restart: Vec::new(),
        };
        let units = rounds * units_per_round;
        match workload {
            Workload::S2tAnalytic => s2t_analytic(&mut plan, &mut rng(2), units),
            Workload::QutServe => qut_serve(&mut plan, &mut rng(2), units, (lo, hi)),
            Workload::IngestDurable => {
                ingest_durable(&mut plan, &mut rng(2), units_per_round, (lo, hi), &sizing)
            }
            Workload::ShardedMixed => sharded_mixed(&mut plan, &mut rng(2), units, (lo, hi)),
        }
        plan
    }

    /// Every distinct read statement of the plan, in first-use order.
    pub fn read_statements(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        self.warmup
            .iter()
            .chain(&self.conns)
            .flatten()
            .filter_map(Op::reference_sql)
            .chain(self.after_restart.iter().map(String::as_str))
            .filter(|sql| seen.insert(*sql))
            .collect()
    }

    /// Measured operations over all connections.
    pub fn op_count(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    /// FNV-1a over the data, the operation lists and the schedule: equal
    /// seeds must give equal digests, byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for t in self.resident.iter().chain(&self.stream) {
            h.u64(t.id);
            for p in t.points() {
                h.u64(p.x.to_bits());
                h.u64(p.y.to_bits());
                h.u64(p.t.millis() as u64);
            }
        }
        for list in self.warmup.iter().chain(&self.conns) {
            h.bytes(format!("{list:?}").as_bytes());
        }
        h.bytes(format!("{:?}{:?}{:?}", self.templates, self.send_at_ns, self.cut_ms).as_bytes());
        h.bytes(format!("{:?}", self.after_restart).as_bytes());
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Aircraft arrivals into one terminal area: four streams of `waves` waves
/// of `flights_per_wave` flights 45 min apart (so eight waves span ~6.2 h),
/// 30 % of them flying a holding pattern, plus 10 % stragglers. The scenario
/// starts at `start_ms` and its ids at `id_base`.
fn flights(
    seed: u64,
    waves: usize,
    flights_per_wave: usize,
    start_ms: i64,
    id_base: u64,
) -> Vec<Trajectory> {
    let clustered = 4 * waves * flights_per_wave;
    let scenario = AircraftScenarioBuilder {
        seed,
        num_streams: 4,
        waves_per_stream: waves,
        flights_per_wave,
        num_stragglers: clustered / 10,
        holding_probability: 0.3,
        start: Timestamp(start_ms),
        ..AircraftScenarioBuilder::default()
    }
    .build();
    if id_base == 0 {
        return scenario.trajectories;
    }
    scenario
        .trajectories
        .iter()
        .map(|t| moved(t, 0, t.id + id_base))
        .collect()
}

/// `t` delayed by `delta_ms` under a new id.
pub fn moved(t: &Trajectory, delta_ms: i64, id: u64) -> Trajectory {
    let points = t
        .points()
        .iter()
        .map(|p| Point::new(p.x, p.y, Timestamp(p.t.millis() + delta_ms)))
        .collect();
    Trajectory::new(id, id, points).expect("a delayed valid trajectory is valid")
}

/// First start and last end of `flights`, in milliseconds.
pub fn span(flights: &[Trajectory]) -> (i64, i64) {
    let lo = flights.iter().map(|t| t.start_time().millis()).min();
    let hi = flights.iter().map(|t| t.end_time().millis()).max();
    (lo.unwrap_or(0), hi.unwrap_or(0))
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

fn qut_sql(wi: i64, we: i64) -> String {
    format!("SELECT QUT(data, {wi}, {we}, {QUT_TAIL});")
}

fn range_sql(wi: i64, we: i64) -> String {
    format!("SELECT RANGE(data, {wi}, {we});")
}

/// Stratified draws: the mid-points of `n` equal slices of [0, 1), handed
/// out in a seeded order. The seed decides which draw lands where, but every
/// seed hands out the same values, so the work a plan adds up to — how much
/// of a border sub-chunk gets re-clustered, how wide the voting bandwidth is
/// — barely depends on the seed. What differs between seeds is then mostly
/// the machine, which is what a run-to-run spread should show.
struct Strata(Vec<f64>);

impl Strata {
    fn new(rng: &mut SplitMix64, n: usize) -> Strata {
        let mut values: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        shuffle(&mut values, rng);
        Strata(values)
    }

    fn next(&mut self) -> f64 {
        self.0
            .pop()
            .expect("the plan draws no more strata than it made")
    }

    /// The next draw as an offset into a sub-chunk, at least an eighth of
    /// its length away from either end.
    fn edge(&mut self) -> i64 {
        SUBCHUNK_MS / 8 + (self.next() * 0.75 * SUBCHUNK_MS as f64) as i64
    }
}

/// First and last sub-chunk (as multiples of SUBCHUNK_MS) touching a span.
fn subchunks_of((lo, hi): (i64, i64)) -> (i64, i64) {
    (lo.div_euclid(SUBCHUNK_MS), hi.div_euclid(SUBCHUNK_MS))
}

/// A window over about `share` of the span's sub-chunks at a seeded
/// position, both edges strictly inside a sub-chunk, so the first and the
/// last sub-chunk it touches are re-clustered and those between are reused.
fn unaligned_window(
    rng: &mut SplitMix64,
    edges: &mut Strata,
    span: (i64, i64),
    share: f64,
) -> (i64, i64) {
    let (first, last) = subchunks_of(span);
    let total = last - first + 1;
    let count = ((total as f64 * share).round() as i64).clamp(2.min(total), total);
    let start = first + rng.index((total - count + 1) as usize) as i64;
    (
        start * SUBCHUNK_MS + edges.edge(),
        (start + count - 1) * SUBCHUNK_MS + edges.edge(),
    )
}

/// A window of about `share` of the span whose edges sit on the sub-chunk
/// grid, so every sub-chunk it touches is answered from stored clusters.
/// QUT windows are closed intervals: the end is the last millisecond of a
/// sub-chunk.
fn aligned_window(rng: &mut SplitMix64, span: (i64, i64), share: f64) -> (i64, i64) {
    let (first, last) = subchunks_of(span);
    let total = last - first + 1;
    let count = ((total as f64 * share).round() as i64).clamp(1, total);
    let start = first + rng.index((total - count + 1) as usize) as i64;
    (start * SUBCHUNK_MS, (start + count) * SUBCHUNK_MS - 1)
}

/// `s2t_analytic`: one closed-loop connection; a unit is the eight seeded
/// (σ, ε) sets once each, in a seeded order.
fn s2t_analytic(plan: &mut Plan, rng: &mut SplitMix64, units: usize) {
    // Narrow to wide voting bandwidth and tight to loose clustering bound:
    // the pruning ladder rejects many pairs at the top of the list and few
    // at the bottom. The seed moves each value by up to ±10 %, stratified.
    const SETS: [(f64, f64); 8] = [
        (1000.0, 3000.0),
        (1500.0, 4500.0),
        (2000.0, 6000.0),
        (2000.0, 9000.0),
        (3000.0, 6000.0),
        (3000.0, 9000.0),
        (4000.0, 9000.0),
        (4000.0, 12000.0),
    ];
    let mut sigma_jitter = Strata::new(rng, SETS.len());
    let mut epsilon_jitter = Strata::new(rng, SETS.len());
    let statements: Vec<String> = SETS
        .iter()
        .map(|(sigma, epsilon)| {
            let sigma = (sigma * (0.9 + 0.2 * sigma_jitter.next())).round();
            let epsilon = (epsilon * (0.9 + 0.2 * epsilon_jitter.next())).round();
            format!("SELECT S2T(data, {sigma}, 0.35, 0.05, 300000, {epsilon});")
        })
        .collect();
    let unit = |rng: &mut SplitMix64| {
        let mut ops: Vec<Op> = statements
            .iter()
            .map(|sql| Op::text(OpKind::S2t, sql.clone()))
            .collect();
        shuffle(&mut ops, rng);
        ops
    };
    plan.warmup = vec![unit(rng)];
    plan.conns = vec![(0..units).flat_map(|_| unit(rng)).collect()];
}

/// `qut_serve`: two closed-loop connections. A unit of one connection is 4
/// unaligned QUT (10/25/50/100 % of the span), 2 aligned QUT, 1 HISTOGRAM,
/// 4 RANGE and 1 INFO; statements at even positions of the unit go through
/// `Prepare`/`ExecutePrepared`, the others as text. Each connection keeps
/// its own windows for the whole run and shuffles their order per unit, so
/// every unit is the same work.
fn qut_serve(plan: &mut Plan, rng: &mut SplitMix64, units: usize, span: (i64, i64)) {
    const SHARES: [f64; 4] = [0.10, 0.25, 0.50, 1.0];
    plan.templates = vec![
        format!("SELECT QUT(data, $1, $2, {QUT_TAIL});"),
        "SELECT RANGE(data, $1, $2);".to_string(),
        "SELECT HISTOGRAM(data, $1, $2, $3);".to_string(),
        "SELECT INFO(data);".to_string(),
    ];
    let window_params = |(wi, we): (i64, i64)| vec![Value::Int(wi), Value::Int(we)];
    // Two connections × (4 QUT + 4 RANGE) unaligned windows × 2 edges.
    let mut edges = Strata::new(rng, 32);
    for conn in 0..2 {
        let mut statements: Vec<(OpKind, usize, Vec<Value>, String)> = Vec::new();
        for share in SHARES {
            let w = unaligned_window(rng, &mut edges, span, share);
            statements.push((OpKind::QutUnaligned, 0, window_params(w), qut_sql(w.0, w.1)));
            let w = unaligned_window(rng, &mut edges, span, share);
            statements.push((OpKind::Range, 1, window_params(w), range_sql(w.0, w.1)));
        }
        // The two connections split the four aligned widths between them.
        for share in [SHARES[conn], SHARES[conn + 2]] {
            let w = aligned_window(rng, span, share);
            statements.push((OpKind::QutAligned, 0, window_params(w), qut_sql(w.0, w.1)));
        }
        let w = aligned_window(rng, span, SHARES[1 + 2 * conn]);
        let mut params = window_params(w);
        params.push(Value::Int(SUBCHUNK_MS));
        statements.push((
            OpKind::Histogram,
            2,
            params,
            format!("SELECT HISTOGRAM(data, {}, {}, {SUBCHUNK_MS});", w.0, w.1),
        ));
        statements.push((
            OpKind::Info,
            3,
            Vec::new(),
            "SELECT INFO(data);".to_string(),
        ));
        let ops: Vec<Op> = statements
            .into_iter()
            .enumerate()
            .map(|(i, (kind, template, params, text))| Op {
                kind,
                body: if i % 2 == 0 {
                    Body::Prepared {
                        template,
                        params,
                        text,
                    }
                } else {
                    Body::Text(text)
                },
            })
            .collect();
        let unit = |rng: &mut SplitMix64| {
            let mut ops = ops.clone();
            shuffle(&mut ops, rng);
            ops
        };
        plan.warmup.push(unit(rng));
        plan.conns
            .push((0..units).flat_map(|_| unit(rng)).collect());
    }
}

/// `ingest_durable`: one closed-loop connection. A round is `batches`
/// batches of INGEST_BATCH new flights, then one RANGE over the resident
/// span; every fifth round ends with `CHECKPOINT;`. The new flights start
/// after the resident span, on the next chunk boundary, in order of
/// departure. The warm-up is one more round of batches sent during set-up.
fn ingest_durable(
    plan: &mut Plan,
    rng: &mut SplitMix64,
    batches: usize,
    (lo, hi): (i64, i64),
    sizing: &Sizing,
) {
    let rounds = plan.rounds;
    let per_round = batches * INGEST_BATCH;
    let needed = (rounds + 1) * per_round;
    let stream_start = (hi.div_euclid(CHUNK_MS) + 1) * CHUNK_MS;
    // Arrivals as dense as the resident ones, for as many waves as it takes.
    let waves = needed.div_ceil(4 * sizing.flights_per_wave);
    let mut stream = flights(
        rng.next_u64(),
        waves,
        sizing.flights_per_wave,
        stream_start,
        STREAM_ID_BASE,
    );
    stream.sort_by_key(|t| (t.start_time().millis(), t.id));
    stream.truncate(needed);
    let historical = range_sql(lo, hi);
    let round_ops = |round: usize, checkpoint: bool| {
        let mut ops: Vec<Op> = (0..batches)
            .map(|b| Op {
                kind: OpKind::Ingest,
                body: Body::Ingest {
                    dataset: "data",
                    first: round * per_round + b * INGEST_BATCH,
                    count: INGEST_BATCH,
                },
            })
            .collect();
        ops.push(Op::text(OpKind::Range, historical.clone()));
        if checkpoint {
            ops.push(Op::text(OpKind::Checkpoint, "CHECKPOINT;".to_string()));
        }
        ops
    };
    plan.warmup = vec![round_ops(0, false)];
    plan.conns = vec![(0..rounds)
        .flat_map(|r| round_ops(r + 1, (r + 1) % CHECKPOINT_EVERY == 0))
        .collect()];
    let (_, stream_end) = span(&stream);
    plan.after_restart = vec![
        "SELECT INFO(data);".to_string(),
        historical,
        range_sql(stream_start, stream_end),
        qut_sql(lo, hi),
        // Half an hour into the stream, an hour wide, off the grid: border
        // sub-chunks of a tree that only ever grew by insertion.
        qut_sql(
            stream_start + CHUNK_MS + 77_777,
            stream_start + 3 * CHUNK_MS + 33_333,
        ),
    ];
    plan.stream = stream;
}

/// `sharded_mixed`: open loop through the coordinator over two pipelined
/// connections. Each block of MIXED_BLOCK operations holds the mix exactly,
/// in a seeded order; operation `i` goes to connection `i % 2`. Reads run
/// against `data`; the single-flight INGESTs go to `live`, so every read
/// keeps one reference answer for the whole run.
fn sharded_mixed(plan: &mut Plan, rng: &mut SplitMix64, units: usize, (lo, hi): (i64, i64)) {
    let cut = ((lo + hi) / 2 + CHUNK_MS / 2).div_euclid(CHUNK_MS) * CHUNK_MS;
    plan.cut_ms = Some(cut);
    let left = (lo, cut - 1);
    let right = (cut, hi);
    // Spanning windows reach the same number of sub-chunks to either side of
    // the cut for every seed; the seed only moves their edges.
    let (first, last) = subchunks_of((lo, hi));
    let cut_index = cut / SUBCHUNK_MS;
    let mut edges = Strata::new(rng, 2 * (4 + 4 + 3));
    let spanning: Vec<String> = [0.10, 0.25, 0.50, 1.0]
        .iter()
        .map(|share| {
            let half = ((last - first + 1) as f64 * share / 2.0).round() as i64;
            let before = half.clamp(1, cut_index - first);
            let after = half.clamp(1, last - cut_index + 1);
            qut_sql(
                (cut_index - before) * SUBCHUNK_MS + edges.edge(),
                (cut_index + after - 1) * SUBCHUNK_MS + edges.edge(),
            )
        })
        .collect();
    let interior: Vec<String> = [(left, 0.25), (right, 0.25), (left, 0.8), (right, 0.8)]
        .iter()
        .map(|(side, share)| {
            let (wi, we) = unaligned_window(rng, &mut edges, *side, *share);
            qut_sql(wi, we)
        })
        .collect();
    let ranges: Vec<String> = [0.25, 0.5, 1.0]
        .iter()
        .map(|share| {
            let (wi, we) = unaligned_window(rng, &mut edges, (lo, hi), *share);
            range_sql(wi, we)
        })
        .collect();

    let blocks = units;
    let ingests = 2 * (blocks + 1);
    // Single flights: even ones are centred on the cut (both shards store
    // them), odd ones sit an hour to either side of it.
    let pool = flights(rng.next_u64(), ingests.div_ceil(4 * 8), 8, 0, 0);
    plan.stream = (0..ingests)
        .map(|i| {
            let t = &pool[i];
            let mid = (t.start_time().millis() + t.end_time().millis()) / 2;
            let target = match i % 4 {
                0 | 2 => cut,
                1 => cut - 3_600_000,
                _ => cut + 3_600_000,
            };
            moved(t, target - mid, STREAM_ID_BASE + i as u64)
        })
        .collect();

    let mut next_ingest = 0;
    let mut next_interior = 0;
    let mut block = |rng: &mut SplitMix64| {
        let mut ops = Vec::with_capacity(MIXED_BLOCK);
        for i in 0..10 {
            ops.push(Op::text(OpKind::QutSpanning, spanning[i % 4].clone()));
        }
        for _ in 0..5 {
            ops.push(Op::text(
                OpKind::QutInterior,
                interior[next_interior % 4].clone(),
            ));
            next_interior += 1;
        }
        for sql in &ranges {
            ops.push(Op::text(OpKind::Range, sql.clone()));
        }
        for _ in 0..2 {
            ops.push(Op {
                kind: OpKind::Ingest,
                body: Body::Ingest {
                    dataset: "live",
                    first: next_ingest,
                    count: 1,
                },
            });
            next_ingest += 1;
        }
        shuffle(&mut ops, rng);
        ops
    };
    let deal = |ops: Vec<Op>| -> Vec<Vec<Op>> {
        let mut conns = vec![Vec::new(), Vec::new()];
        for (i, op) in ops.into_iter().enumerate() {
            conns[i % 2].push(op);
        }
        conns
    };
    plan.warmup = deal(block(rng));
    let ops: Vec<Op> = (0..blocks).flat_map(|_| block(rng)).collect();
    let schedule = exponential_schedule(rng, ops.len(), MIXED_RATE_PER_S);
    let mut send_at = vec![Vec::new(), Vec::new()];
    for (i, at) in schedule.into_iter().enumerate() {
        send_at[i % 2].push(at);
    }
    plan.send_at_ns = Some(send_at);
    plan.conns = deal(ops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn windows_are_aligned_or_not_as_asked() {
        let mut rng = SplitMix64::new(3);
        let span = (1_490, 22_377_666);
        for share in [0.10, 0.25, 0.50, 1.0] {
            for _ in 0..50 {
                let (wi, we) = aligned_window(&mut rng, span, share);
                assert_eq!(wi.rem_euclid(SUBCHUNK_MS), 0);
                assert_eq!((we + 1).rem_euclid(SUBCHUNK_MS), 0);
                assert!(wi < we);
                let mut edges = Strata::new(&mut rng, 2);
                let (wi, we) = unaligned_window(&mut rng, &mut edges, span, share);
                for edge in [wi, we] {
                    let offset = edge.rem_euclid(SUBCHUNK_MS);
                    assert!(
                        (SUBCHUNK_MS / 8..=SUBCHUNK_MS * 7 / 8).contains(&offset),
                        "{edge}"
                    );
                }
                assert!(span.0 <= wi && wi < we);
                assert!(we.div_euclid(SUBCHUNK_MS) <= span.1.div_euclid(SUBCHUNK_MS));
            }
        }
    }

    #[test]
    fn mixes_are_exact() {
        let count = |ops: &[Op], kind| ops.iter().filter(|o| o.kind == kind).count();
        let plan = Plan::build(Workload::QutServe, 1, 20, true);
        assert_eq!(plan.conns.len(), 2);
        for conn in &plan.warmup {
            assert_eq!(conn.len(), 12);
            assert_eq!(count(conn, OpKind::QutUnaligned), 4);
            assert_eq!(count(conn, OpKind::QutAligned), 2);
            assert_eq!(count(conn, OpKind::Histogram), 1);
            assert_eq!(count(conn, OpKind::Range), 4);
            assert_eq!(count(conn, OpKind::Info), 1);
            let prepared = conn
                .iter()
                .filter(|o| matches!(o.body, Body::Prepared { .. }))
                .count();
            assert_eq!(prepared, 6);
        }
        let plan = Plan::build(Workload::ShardedMixed, 1, 20, false);
        let all: Vec<Op> = plan.conns.concat();
        assert_eq!(all.len(), (MIXED_RATE_PER_S * 20.0) as usize);
        assert_eq!(all.len() % (plan.rounds * MIXED_BLOCK), 0);
        assert_eq!(count(&all, OpKind::QutSpanning) * 2, all.len());
        assert_eq!(count(&all, OpKind::QutInterior) * 4, all.len());
        assert_eq!(count(&all, OpKind::Ingest) * 10, all.len());
        let cut = plan.cut_ms.unwrap();
        assert_eq!(cut.rem_euclid(CHUNK_MS), 0);
        let crossing = plan
            .stream
            .iter()
            .filter(|t| t.start_time().millis() < cut && t.end_time().millis() > cut)
            .count();
        assert_eq!(crossing * 2, plan.stream.len());
        let plan = Plan::build(Workload::IngestDurable, 1, 20, false);
        assert!(plan.stream.len() > 2 * plan.resident.len());
        let (_, resident_end) = span(&plan.resident);
        assert!(plan
            .stream
            .iter()
            .all(|t| t.start_time().millis() > resident_end));
        assert_eq!(
            count(&plan.conns[0], OpKind::Checkpoint),
            plan.rounds / CHECKPOINT_EVERY
        );
    }
}
