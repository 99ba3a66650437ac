//! Structure-of-arrays storage for the voting hot path, and the sweep that
//! votes over it.
//!
//! The voting phase dominates S2T query time, and its per-pair work in the
//! object-graph formulation is pointer chasing: every candidate
//! materializes a [`Segment`](hermes_trajectory::Segment) out of
//! `trajectories[ti].segment(si)` before any arithmetic happens. The
//! [`SegmentArena`] flattens the whole collection once — per-segment
//! endpoint lanes (`x0/y0/x1/y1/t0/t1`) and `(trajectory, segment)`
//! back-references in parallel arrays — and the [`PackedSegmentIndex`]
//! sorts its segments by start time into one row each.
//!
//! **One sweep over time.** A mean *synchronized* distance is only defined
//! on a common lifespan, so temporal overlap is the one test every pair must
//! pass. [`arena_voting_counted_with`] walks the rows in start-time order and
//! keeps the *live* ones: the rows whose end `t1` is not before the entering
//! row's start `t0`. Rows enter by `t0`, so that test is the kernel's own
//! closed-interval `i64` overlap test, and every unordered pair of segments
//! that share an instant is met exactly once, when its later row enters. The
//! entering row is tested against each live row of another trajectory: a
//! box gap² beyond the cutoff ball rejects the pair (its kernel value is
//! exactly `0.0`); the rest go [`BATCH`] at a time through the batched
//! kernel ([`hermes_trajectory::kernel::mean_sync_distance_batch_at`]) with
//! the entering row as the query, and each distance within the cutoff
//! improves both minima it feeds — the entering segment's best for the live
//! row's trajectory and the live segment's best for the entering one's. The
//! minima live in a dense table, one row of per-voter bests per live slot,
//! with a bitset of the voters each slot holds a finite best for; when no
//! later row can overlap a live row it retires, sums its vote over the set
//! bits (ascending voters) and frees its slot. How many pairs reached the
//! kernel and how many the box gap rejected is reported as
//! [`KernelCounters`]; `docs/KERNELS.md` has the sweep and what it replaced.
//!
//! **Time slabs.** The rows are cut into contiguous slabs, swept in parallel
//! on the executor. A pair belongs to the slab of its later row, so a slab
//! starts with the earlier rows still alive at its first start carried in.
//! Each slab returns a vote buffer for its own rows; a row live across a slab
//! edge hands its partial minima to a serial merge instead of voting inside a
//! slab. The profiles are filled from the buffers and the merge after every
//! slab has returned, so nothing is shared while the slabs run. No pair is
//! met twice, so the counters do not depend on the split.
//!
//! **Exactness contract.** [`arena_voting_with`] is bit-identical to
//! [`naive_voting`](crate::voting::naive_voting):
//!
//! * the distance kernel is [`hermes_trajectory::kernel::mean_sync_distance`]
//!   — the same function `Segment::mean_synchronized_distance` delegates to —
//!   or its batched SIMD form, which performs the same IEEE-754 operations in
//!   the same per-lane order and is gated bit-identical to it;
//! * the distance of two segments is bit-symmetric — each side's position is
//!   interpolated on its own, `dx` and `dy` only flip sign before they are
//!   squared, and Simpson's sum has one order — so one evaluation serves
//!   both minima it feeds;
//! * per-voter minima are order-independent (`min` is a lattice operation),
//!   so neither the order the sweep meets pairs in nor the slab a partial
//!   minimum was found in can change one;
//! * every vote is summed in **ascending voter order**, in a slab and in the
//!   merge alike: the order `naive_voting` sums in;
//! * a pair is only ever skipped when its exact distance exceeds the kernel
//!   cutoff, where the kernel value is exactly `0.0` and `x + 0.0 == x`.
//!
//! One caveat to the box-gap argument: it relies on the *computed* mean
//! distance dominating the *computed* box gap. That inequality is exact in
//! real arithmetic and holds through IEEE rounding for the aligned
//! (axis-parallel, gap-equals-distance) configurations trajectory data
//! produces — squaring and `sqrt(x·x)` are monotone under correct rounding
//! — but it is not formally proven for adversarial near-degenerate
//! coordinates where the true margin is below the kernel's few-ulp rounding
//! envelope. The bit-identity tests and the e1 correctness gate verify the
//! claim on every shipped dataset, which are deterministic; a counterexample
//! would fail them loudly rather than corrupt results silently.

use crate::params::S2TParams;
use crate::voting::{kernel, VotingProfile};
use hermes_exec::Executor;
use hermes_gist::PackedRTree;
use hermes_trajectory::{
    axis_gap,
    kernel::{mean_sync_distance_batch_at, simd_level, SimdLevel, BATCH},
    Mbb, SegLanes, Timestamp, Trajectory, TrajectoryId,
};
use std::ops::Range;
use std::sync::OnceLock;

/// How many time-overlapping segment pairs of different trajectories
/// reached the exact distance kernel versus how many the box gap rejected
/// first. Purely observational — the box gap never changes results (see the
/// module docs) — but the ratio is the direct measure of how much
/// exact-kernel work the bound saves, so it is threaded from the voting
/// sweep all the way to `SHOW STATS` and the Prometheus registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Pairs evaluated by the exact mean-sync-distance kernel.
    pub evaluated: u64,
    /// Pairs whose box gap put them beyond the kernel cutoff.
    pub pruned: u64,
}
impl KernelCounters {
    /// Accumulates `other` into `self` (both fields are monotone sums).
    pub fn accumulate(&mut self, other: &KernelCounters) {
        self.evaluated += other.evaluated;
        self.pruned += other.pruned;
    }
}

/// Flat, cache-linear storage of every segment of a trajectory collection.
pub struct SegmentArena {
    // Endpoint lanes.
    x0: Vec<f64>,
    y0: Vec<f64>,
    x1: Vec<f64>,
    y1: Vec<f64>,
    t0: Vec<i64>,
    t1: Vec<i64>,
    /// Back-reference: owning trajectory index per segment.
    traj_of: Vec<u32>,
    /// Prefix offsets: trajectory `ti` owns global segments
    /// `seg_start[ti]..seg_start[ti + 1]`.
    seg_start: Vec<usize>,
    /// Trajectory ids, indexed by trajectory index.
    traj_ids: Vec<TrajectoryId>,
}

impl SegmentArena {
    /// Flattens `trajectories` into the arena in one pass.
    pub fn build(trajectories: &[Trajectory]) -> Self {
        let total: usize = trajectories.iter().map(|t| t.num_segments()).sum();
        let mut arena = SegmentArena {
            x0: Vec::with_capacity(total),
            y0: Vec::with_capacity(total),
            x1: Vec::with_capacity(total),
            y1: Vec::with_capacity(total),
            t0: Vec::with_capacity(total),
            t1: Vec::with_capacity(total),
            traj_of: Vec::with_capacity(total),
            seg_start: Vec::with_capacity(trajectories.len() + 1),
            traj_ids: Vec::with_capacity(trajectories.len()),
        };
        for (ti, traj) in trajectories.iter().enumerate() {
            arena.seg_start.push(arena.x0.len());
            arena.traj_ids.push(traj.id);
            let pts = traj.points();
            for si in 0..traj.num_segments() {
                let a = &pts[si];
                let b = &pts[si + 1];
                arena.x0.push(a.x);
                arena.y0.push(a.y);
                arena.x1.push(b.x);
                arena.y1.push(b.y);
                arena.t0.push(a.t.millis());
                arena.t1.push(b.t.millis());
                arena.traj_of.push(ti as u32);
            }
        }
        arena.seg_start.push(arena.x0.len());
        arena
    }

    /// Number of trajectories flattened into the arena.
    pub fn num_trajectories(&self) -> usize {
        self.traj_ids.len()
    }

    /// Total number of segments across every trajectory.
    pub fn num_segments(&self) -> usize {
        self.x0.len()
    }

    /// The global segment range owned by trajectory `ti`.
    pub fn segments_of(&self, ti: usize) -> std::ops::Range<usize> {
        self.seg_start[ti]..self.seg_start[ti + 1]
    }

    /// The id of trajectory `ti`.
    pub fn trajectory_id(&self, ti: usize) -> TrajectoryId {
        self.traj_ids[ti]
    }

    /// Global segment `gs` as flat kernel lanes.
    #[inline]
    pub fn lanes(&self, gs: usize) -> SegLanes {
        SegLanes {
            x0: self.x0[gs],
            y0: self.y0[gs],
            x1: self.x1[gs],
            y1: self.y1[gs],
            t0: self.t0[gs],
            t1: self.t1[gs],
        }
    }

    /// The spatial box `[x_min, x_max, y_min, y_max]` of global segment
    /// `gs`: the `min`/`max` of its endpoints (the temporal bounds are
    /// `t0`/`t1`: segment time is strictly increasing).
    #[inline]
    fn segment_xy(&self, gs: usize) -> [f64; 4] {
        let (x0, x1, y0, y1) = (self.x0[gs], self.x1[gs], self.y0[gs], self.y1[gs]);
        [x0.min(x1), x0.max(x1), y0.min(y1), y0.max(y1)]
    }

    /// The MBB of global segment `gs`.
    #[inline]
    pub fn segment_mbb(&self, gs: usize) -> Mbb {
        let [x_min, x_max, y_min, y_max] = self.segment_xy(gs);
        Mbb::new(
            x_min,
            x_max,
            y_min,
            y_max,
            Timestamp(self.t0[gs]),
            Timestamp(self.t1[gs]),
        )
    }
}

/// Everything the sweep reads about one indexed segment, packed into a
/// single row so the hot loop does one bounds-checked load per pair instead
/// of chasing parallel arrays — exactly one cache line: lifespan (the live
/// test reads it first), the endpoints (the box is their `min`/`max`; the
/// kernel lanes are the endpoints themselves), the owning trajectory and the
/// arena segment id.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct CandidateRow {
    t0: i64,
    t1: i64,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    voter: u32,
    /// The arena's global segment id (fills the row's alignment padding).
    gs: u32,
}

impl CandidateRow {
    /// The row's spatial box `[x_min, x_max, y_min, y_max]` — the arena's
    /// segment box bit for bit (the same `min`/`max` of the same endpoints).
    #[inline]
    fn xy(&self) -> [f64; 4] {
        [
            self.x0.min(self.x1),
            self.x0.max(self.x1),
            self.y0.min(self.y1),
            self.y0.max(self.y1),
        ]
    }

    /// The row as kernel lanes.
    #[inline]
    fn lanes(&self) -> SegLanes {
        SegLanes {
            x0: self.x0,
            y0: self.y0,
            x1: self.x1,
            y1: self.y1,
            t0: self.t0,
            t1: self.t1,
        }
    }
}

/// The sweep's input over a [`SegmentArena`]: every segment as one 64-byte
/// row, sorted by `(t0, voter, segment)` — a total order, so the layout is a
/// pure function of the arena. Building it is one sort.
pub struct PackedSegmentIndex {
    rows: Vec<CandidateRow>,
    /// The longest row, `max(t1 − t0)`: a row that starts more than this
    /// before an instant has ended by then.
    max_len: i64,
    /// The same boxes STR-packed, built on first use: nothing in the voting
    /// path reads it (see [`PackedSegmentIndex::tree`]).
    tree: OnceLock<PackedRTree<u32>>,
}

impl PackedSegmentIndex {
    /// Sorts every segment of the arena into time order.
    pub fn build(arena: &SegmentArena) -> Self {
        let n = arena.num_segments();
        // Global segment ids ascend with (trajectory, local segment), so
        // ordering the pairs orders by (t0, voter, segment).
        let mut order: Vec<(i64, u32)> = (0..n).map(|gs| (arena.t0[gs], gs as u32)).collect();
        order.sort_unstable();
        let rows: Vec<CandidateRow> = order
            .into_iter()
            .map(|(t0, gs)| {
                let g = gs as usize;
                CandidateRow {
                    t0,
                    t1: arena.t1[g],
                    x0: arena.x0[g],
                    y0: arena.y0[g],
                    x1: arena.x1[g],
                    y1: arena.y1[g],
                    voter: arena.traj_of[g],
                    gs,
                }
            })
            .collect();
        let max_len = rows
            .iter()
            .map(|r| r.t1.saturating_sub(r.t0))
            .max()
            .unwrap_or(0);
        PackedSegmentIndex {
            rows,
            max_len,
            tree: OnceLock::new(),
        }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no segment is indexed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The indexed boxes as an STR-packed R-tree whose values are global
    /// segment ids, packed on the first call. Voting does not use it: it is
    /// what the end-to-end benchmark's `gist.probe_*` metrics time.
    pub fn tree(&self) -> &PackedRTree<u32> {
        self.tree.get_or_init(|| {
            PackedRTree::bulk_load(
                self.rows
                    .iter()
                    .map(|row| {
                        let [x_min, x_max, y_min, y_max] = row.xy();
                        let mbb = Mbb::new(
                            x_min,
                            x_max,
                            y_min,
                            y_max,
                            Timestamp(row.t0),
                            Timestamp(row.t1),
                        );
                        (mbb, row.gs)
                    })
                    .collect(),
            )
        })
    }
}

/// Fewest rows a time slab holds: a slab must be worth a task. Each edge
/// costs its carried rows and each slab a claim, so on two threads an
/// input of 548 urban rows (~85 µs serial) gains ~5 % from 2 slabs and
/// loses ~10 % at 8 slabs of 68 rows.
const MIN_SLAB_ROWS: usize = 256;

/// The minima of the live rows: one row of `voters` best distances per
/// slot (`f64::INFINITY` until a distance within the cutoff arrives) and a
/// bitset per slot of the voters it holds a finite best for. Slots are
/// recycled as rows retire, so the table is as tall as the most rows ever
/// live at once.
struct SlotTable {
    voters: usize,
    /// `⌈voters / 64⌉`: the bitset words per slot.
    words: usize,
    best: Vec<f64>,
    touched: Vec<u64>,
    free: Vec<u32>,
}

impl SlotTable {
    fn new(voters: usize) -> Self {
        SlotTable {
            voters,
            words: voters.div_ceil(64),
            best: Vec::new(),
            touched: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A slot whose every best is `f64::INFINITY`.
    fn acquire(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.best.len() / self.voters;
        self.best
            .resize(self.best.len() + self.voters, f64::INFINITY);
        self.touched.resize(self.touched.len() + self.words, 0);
        slot as u32
    }

    /// Folds distance `d` into `slot`'s best for `voter`.
    #[inline]
    fn improve(&mut self, slot: u32, voter: u32, d: f64) {
        let (slot, voter) = (slot as usize, voter as usize);
        let best = &mut self.best[slot * self.voters + voter];
        if d < *best {
            *best = d;
            self.touched[slot * self.words + voter / 64] |= 1 << (voter % 64);
        }
    }

    /// Hands `slot`'s finite bests to `visit` in ascending voter order (its
    /// set bits, low to high), then resets and frees the slot.
    fn release(&mut self, slot: u32, mut visit: impl FnMut(u32, f64)) {
        let base = slot as usize * self.voters;
        let words = slot as usize * self.words..(slot as usize + 1) * self.words;
        for (w, word) in self.touched[words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let voter = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(
                    voter as u32,
                    std::mem::replace(&mut self.best[base + voter], f64::INFINITY),
                );
            }
        }
        self.free.push(slot);
    }
}

/// The live rows that passed the box gap against the entering row,
/// gathered into fixed [`BATCH`]-wide structure-of-arrays lanes for the
/// batched kernel, with the slot and trajectory each distance also feeds.
struct GatherBlock {
    x0: [f64; BATCH],
    y0: [f64; BATCH],
    x1: [f64; BATCH],
    y1: [f64; BATCH],
    t0: [i64; BATCH],
    t1: [i64; BATCH],
    slot: [u32; BATCH],
    voter: [u32; BATCH],
    d: [f64; BATCH],
    len: usize,
    /// Kernel dispatch level, resolved once per slab (not per flush) so the
    /// hot loop never touches the `HERMES_SIMD` `OnceLock`.
    level: SimdLevel,
}

impl GatherBlock {
    fn new() -> Self {
        GatherBlock {
            x0: [0.0; BATCH],
            y0: [0.0; BATCH],
            x1: [0.0; BATCH],
            y1: [0.0; BATCH],
            t0: [0; BATCH],
            t1: [0; BATCH],
            slot: [0; BATCH],
            voter: [0; BATCH],
            d: [0.0; BATCH],
            len: 0,
            level: simd_level(),
        }
    }

    /// True when the block just filled and must be flushed before the next
    /// push.
    #[inline]
    fn push(&mut self, row: &CandidateRow, slot: u32) -> bool {
        let j = self.len;
        self.x0[j] = row.x0;
        self.y0[j] = row.y0;
        self.x1[j] = row.x1;
        self.y1[j] = row.y1;
        self.t0[j] = row.t0;
        self.t1[j] = row.t1;
        self.slot[j] = slot;
        self.voter[j] = row.voter;
        self.len = j + 1;
        self.len == BATCH
    }

    /// Measures the gathered rows against the entering row `query` (in
    /// `query_slot`) and folds each distance within `cutoff` into both
    /// minima it feeds. A distance beyond the cutoff is not folded: the
    /// kernel value there is exactly `0.0`, and `x + 0.0 == x` for every
    /// finite `x`, so a voter whose every distance lies beyond contributes
    /// the same nothing whether or not it enters the sum.
    fn flush(&mut self, query: &CandidateRow, query_slot: u32, cutoff: f64, table: &mut SlotTable) {
        let n = self.len;
        if n == 0 {
            return;
        }
        #[cfg(test)]
        tests::on_flush();
        mean_sync_distance_batch_at(
            self.level,
            &query.lanes(),
            &self.x0[..n],
            &self.y0[..n],
            &self.x1[..n],
            &self.y1[..n],
            &self.t0[..n],
            &self.t1[..n],
            &mut self.d[..n],
        );
        for j in 0..n {
            let d = self.d[j];
            if d <= cutoff {
                table.improve(query_slot, self.voter[j], d);
                table.improve(self.slot[j], query.voter, d);
            }
        }
        self.len = 0;
    }
}

/// A best distance a slab found for one (segment, voter) of a row live
/// across a slab edge: `(global segment id, voter, distance)`.
type Partial = (u32, u32, f64);

/// Sweeps the rows of `slab` into the live set: every pair whose later row
/// is in the slab is met here. A row that entered in the slab and retires in
/// it writes its vote into the slab's buffer, at its offset from the slab's
/// start; a row carried in from an earlier slab, or still alive when the next
/// slab starts, returns its minima as partials and leaves its entry `0.0`.
fn sweep_slab(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    slab: Range<usize>,
    params: &S2TParams,
) -> (Vec<f64>, Vec<Partial>, KernelCounters) {
    let rows = &index.rows;
    let cutoff = params.voting_cutoff_radius();
    let r2 = cutoff * cutoff;
    let mut table = SlotTable::new(arena.num_trajectories());
    let mut block = GatherBlock::new();
    let mut votes = vec![0.0; slab.len()];
    let mut partials: Vec<Partial> = Vec::new();
    let mut counters = KernelCounters::default();
    let mut retire = |table: &mut SlotTable, ri: usize, slot: u32, whole: bool| {
        if whole {
            let vote = &mut votes[ri - slab.start];
            table.release(slot, |_, best| *vote += kernel(best, params.sigma, cutoff));
        } else {
            let gs = rows[ri].gs;
            table.release(slot, |voter, best| partials.push((gs, voter, best)));
        }
    };
    // The rows that entered before the slab and are alive at its first
    // start: their pairs with the slab's rows are met here. None of them
    // starts more than the longest row before it.
    let start_t0 = rows[slab.start].t0;
    let first =
        rows[..slab.start].partition_point(|r| r.t0 < start_t0.saturating_sub(index.max_len));
    let mut live: Vec<(u32, u32)> = (first..slab.start)
        .filter(|&ri| rows[ri].t1 >= start_t0)
        .map(|ri| (ri as u32, table.acquire()))
        .collect();
    for qi in slab.clone() {
        let query = &rows[qi];
        let [qx0, qx1, qy0, qy1] = query.xy();
        let query_slot = table.acquire();
        let mut k = 0;
        while k < live.len() {
            let (ri, slot) = live[k];
            let row = &rows[ri as usize];
            if row.t1 < query.t0 {
                // Every later row starts no earlier than `query`, so none
                // overlaps `row`: its minima are complete (for this slab,
                // if it was carried in).
                retire(&mut table, ri as usize, slot, ri as usize >= slab.start);
                live.swap_remove(k);
                continue;
            }
            k += 1;
            if row.voter == query.voter {
                continue;
            }
            let [x0, x1, y0, y1] = row.xy();
            let gx = axis_gap(x0, x1, qx0, qx1);
            let gy = axis_gap(y0, y1, qy0, qy1);
            if gx * gx + gy * gy > r2 {
                counters.pruned += 1;
                continue;
            }
            counters.evaluated += 1;
            if block.push(row, slot) {
                block.flush(query, query_slot, cutoff, &mut table);
            }
        }
        block.flush(query, query_slot, cutoff, &mut table);
        live.push((qi as u32, query_slot));
    }
    // What is still live crosses into the next slab, unless it ends before
    // that slab's first start.
    let next_t0 = rows.get(slab.end).map(|row| row.t0);
    for (ri, slot) in live {
        let ri = ri as usize;
        let whole = ri >= slab.start && next_t0.is_none_or(|t0| rows[ri].t1 < t0);
        retire(&mut table, ri, slot, whole);
    }
    (votes, partials, counters)
}

/// Index-accelerated voting over the flat arena — the S2T hot path — with
/// the sweep's time slabs fanned out on `exec`. Every vote is summed in the
/// same order on any thread count, so the result is bit-identical to the
/// serial path — and to [`naive_voting`](crate::voting::naive_voting) (see
/// the module docs for why).
pub fn arena_voting_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> Vec<VotingProfile> {
    arena_voting_counted_with(arena, index, params, exec).0
}

/// [`arena_voting_with`] plus the kernel counters, which are the same for
/// any thread count: each time-overlapping pair is met once, in the slab of
/// its later row. The rows are cut into four slabs per thread `exec` can
/// use, of at least `MIN_SLAB_ROWS` (256) rows each; into one when it can
/// use one thread (serial, or inside a pool task), since an edge only costs.
pub fn arena_voting_counted_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> (Vec<VotingProfile>, KernelCounters) {
    let threads = exec.threads();
    let slabs = (index.len() / MIN_SLAB_ROWS).clamp(1, if threads > 1 { 4 * threads } else { 1 });
    sweep_votes(arena, index, params, exec, slabs)
}

/// The sweep cut into `slabs` time slabs of (nearly) equal row counts,
/// swept on `exec`; then, serially, the profiles are filled from the slabs'
/// vote buffers and the partial minima of the rows live across an edge are
/// merged over them — the minimum per (segment, voter), summed in ascending
/// voter order.
pub(crate) fn sweep_votes(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
    slabs: usize,
) -> (Vec<VotingProfile>, KernelCounters) {
    let rows = &index.rows;
    // Every slab holds a row (none when there are no rows).
    let slabs = slabs.min(rows.len());
    let slab = |b: usize| b * rows.len() / slabs..(b + 1) * rows.len() / slabs;
    let swept = exec.map_indices(slabs, |b| sweep_slab(arena, index, slab(b), params));
    let mut profiles: Vec<VotingProfile> = (0..arena.num_trajectories())
        .map(|ti| VotingProfile {
            trajectory_id: arena.trajectory_id(ti),
            trajectory_index: ti,
            votes: vec![0.0; arena.segments_of(ti).len()],
        })
        .collect();
    // Global segment `gs` as (trajectory, segment within it).
    let at = |gs: u32| {
        let gs = gs as usize;
        let ti = arena.traj_of[gs] as usize;
        (ti, gs - arena.seg_start[ti])
    };
    let mut counters = KernelCounters::default();
    let mut partials: Vec<Partial> = Vec::new();
    for (b, (slab_votes, slab_partials, slab_counters)) in swept.into_iter().enumerate() {
        for (row, vote) in rows[slab(b)].iter().zip(slab_votes) {
            let (ti, si) = at(row.gs);
            profiles[ti].votes[si] = vote;
        }
        counters.accumulate(&slab_counters);
        partials.extend(slab_partials);
    }
    // A row that crossed an edge holds `0.0` so far: the empty sum, which
    // is its vote when no slab found it a finite best.
    partials.sort_unstable_by_key(|&(gs, voter, _)| (gs, voter));
    let cutoff = params.voting_cutoff_radius();
    for segment in partials.chunk_by(|a, b| a.0 == b.0) {
        let mut vote = 0.0;
        for voter in segment.chunk_by(|a, b| a.1 == b.1) {
            let best = voter.iter().fold(f64::INFINITY, |best, p| best.min(p.2));
            vote += kernel(best, params.sigma, cutoff);
        }
        let (ti, si) = at(segment[0].0);
        profiles[ti].votes[si] = vote;
    }
    (profiles, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voting::naive_voting;
    use hermes_trajectory::Point;
    use std::cell::Cell;

    thread_local! {
        /// Flushes left before [`on_flush`] panics on this thread; 0 = never.
        static PANIC_AFTER_FLUSHES: Cell<u64> = const { Cell::new(0) };
    }

    /// Called by every non-empty [`GatherBlock::flush`] in test builds: the
    /// way a test injects a panic into the middle of a slab.
    pub(super) fn on_flush() {
        PANIC_AFTER_FLUSHES.with(|left| match left.get() {
            0 => {}
            1 => {
                left.set(0);
                panic!("injected mid-pass panic");
            }
            n => left.set(n - 1),
        });
    }

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

    fn mixed_mod() -> Vec<Trajectory> {
        let mut trajs = Vec::new();
        for i in 0..4 {
            trajs.push(line(i, i as f64 * 8.0, 0, 12));
        }
        for i in 4..7 {
            trajs.push(line(i, 500.0 + i as f64 * 8.0, 30_000, 12));
        }
        trajs.push(line(7, 10_000.0, 0, 12));
        trajs
    }

    #[test]
    fn arena_flattens_the_collection_faithfully() {
        let trajs = mixed_mod();
        let arena = SegmentArena::build(&trajs);
        assert_eq!(arena.num_trajectories(), trajs.len());
        assert_eq!(arena.num_segments(), 8 * 11);
        for (ti, traj) in trajs.iter().enumerate() {
            let range = arena.segments_of(ti);
            assert_eq!(range.len(), traj.num_segments());
            assert_eq!(arena.trajectory_id(ti), traj.id);
            for (si, gs) in range.enumerate() {
                assert_eq!(arena.traj_of[gs] as usize, ti);
                let seg = traj.segment(si);
                assert_eq!(arena.lanes(gs), seg.lanes());
                assert_eq!(arena.segment_mbb(gs), seg.mbb());
            }
        }
    }

    #[test]
    fn arena_voting_is_bit_identical_to_naive() {
        let trajs = mixed_mod();
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        assert_eq!(packed.len(), arena.num_segments());

        // Exact, not approximate: both paths share the kernel and the
        // canonical summation order.
        assert_eq!(
            arena_voting_with(&arena, &packed, &p, &Executor::serial()),
            naive_voting(&trajs, &p)
        );
    }

    #[test]
    fn kernel_counters_account_for_every_candidate() {
        let trajs = repeated_mod(40);
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let (profiles, counters) =
            arena_voting_counted_with(&arena, &packed, &p, &Executor::serial());
        assert_eq!(
            profiles,
            arena_voting_with(&arena, &packed, &p, &Executor::serial())
        );
        // The clustered lines vote for each other, so the exact kernel must
        // have run; the far line shares their time but not their space.
        assert!(counters.evaluated > 0, "{counters:?}");
        assert!(counters.pruned > 0, "{counters:?}");
        // Counter totals are deterministic and thread-independent.
        for threads in [2usize, 4] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            let (_, parallel) = arena_voting_counted_with(&arena, &packed, &p, &exec);
            assert_eq!(parallel, counters);
        }
    }

    #[test]
    fn parallel_arena_voting_matches_serial_exactly() {
        let trajs: Vec<Trajectory> = (0..12).map(|i| line(i, i as f64 * 6.0, 0, 10)).collect();
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let serial = arena_voting_with(&arena, &packed, &p, &Executor::serial());
        for threads in [2usize, 4, 8] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            assert_eq!(arena_voting_with(&arena, &packed, &p, &exec), serial);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let p = params(10.0);
        let arena = SegmentArena::build(&[]);
        let packed = PackedSegmentIndex::build(&arena);
        assert!(packed.is_empty());
        assert!(arena_voting_with(&arena, &packed, &p, &Executor::serial()).is_empty());

        let single = vec![line(0, 0.0, 0, 5)];
        let arena = SegmentArena::build(&single);
        let packed = PackedSegmentIndex::build(&arena);
        let profiles = arena_voting_with(&arena, &packed, &p, &Executor::serial());
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].votes.iter().all(|&v| v == 0.0));
        assert_eq!(profiles, naive_voting(&single, &p));
    }

    /// The trajectories of `mixed_mod` repeated `n / 8 + 1` times over with
    /// growing offsets, cut to `n`: every trajectory has close voters before
    /// and after it.
    fn repeated_mod(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let base = &mixed_mod()[i % 8];
                let shift = (i / 8) as f64 * 3.0;
                let points = base
                    .points()
                    .iter()
                    .map(|p| Point::new(p.x + shift, p.y + shift * 0.5, p.t))
                    .collect();
                Trajectory::new(i as u64, i as u64, points).unwrap()
            })
            .collect()
    }

    #[test]
    fn votes_equal_naive_across_slab_edges() {
        let p = params(25.0);
        // 130 trajectories take three bitset words per slot, and voters on
        // both sides of 64 and of 128 vote for each other.
        for n in [0, 1, 2, 9, 40, 130] {
            let trajs = repeated_mod(n);
            let arena = SegmentArena::build(&trajs);
            let packed = PackedSegmentIndex::build(&arena);
            let reference = naive_voting(&trajs, &p);
            if n > 1 {
                assert!(reference.iter().any(|r| r.votes.iter().any(|&v| v > 0.5)));
            }
            let (_, one_slab) = sweep_votes(&arena, &packed, &p, &Executor::serial(), 1);
            for slabs in 1..=12 {
                if n > 2 && slabs > 1 {
                    // Some row is alive across the first edge, so partial
                    // minima really are carried over and merged.
                    let edge = packed.len() / slabs;
                    let rows = &packed.rows;
                    assert!(rows[..edge].iter().any(|r| r.t1 >= rows[edge].t0));
                }
                for threads in [1usize, 2, 4] {
                    let exec = Executor::new(hermes_exec::ExecPolicy { threads });
                    let (profiles, counters) = sweep_votes(&arena, &packed, &p, &exec, slabs);
                    let label = format!("{n} trajectories, {slabs} slabs, {threads} threads");
                    assert_eq!(profiles, reference, "{label}");
                    assert_eq!(counters, one_slab, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_panic_mid_pass_leaves_the_next_query_right() {
        let p = params(25.0);
        let trajs = repeated_mod(67);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let reference = naive_voting(&trajs, &p);
        for flushes in [1u64, 7, 40] {
            // Serial, so the thread-local countdown fires inside one of the
            // three slabs, with votes half written.
            PANIC_AFTER_FLUSHES.with(|left| left.set(flushes));
            let outcome = std::panic::catch_unwind(|| {
                sweep_votes(&arena, &packed, &p, &Executor::serial(), 3)
            });
            assert!(outcome.is_err(), "the panic after {flushes} flushes fired");
            assert_eq!(PANIC_AFTER_FLUSHES.with(Cell::get), 0);
            for threads in [1usize, 2] {
                let exec = Executor::new(hermes_exec::ExecPolicy { threads });
                assert_eq!(
                    arena_voting_with(&arena, &packed, &p, &exec),
                    reference,
                    "after a panic at flush {flushes}, {threads} threads"
                );
            }
        }
    }
}
