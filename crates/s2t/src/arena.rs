//! Structure-of-arrays storage for the voting hot path.
//!
//! The voting phase dominates S2T query time, and its per-candidate work in
//! the object-graph formulation is pointer chasing: every R-tree hit
//! materializes a [`Segment`](hermes_trajectory::Segment) out of
//! `trajectories[ti].segment(si)` before any arithmetic happens. The
//! [`SegmentArena`] flattens the whole collection once — one pass storing
//! per-segment endpoint lanes (`x0/y0/x1/y1/t0/t1`), precomputed MBB lanes
//! and `(trajectory, segment)` back-references in parallel arrays — so the
//! voting inner loop streams cache-linear `f64`/`i64` lanes instead.
//!
//! The candidate index over the arena ([`PackedSegmentIndex`]) is the
//! arena's segments **sorted by start time** and scanned flat. A mean
//! *synchronized* distance is only defined on a common lifespan, so temporal
//! overlap is the one test every candidate must pass, and it is by far the
//! selective one: a probe — a run of four consecutive segments — spans tens
//! of seconds of a dataset that spans hours. Two binary searches bound the
//! rows that can overlap the run in time; the rows between them are tested
//! four at a time for lifespan overlap and for the Euclidean ball around the
//! run's union window (`crate::timescan`; the ball test prunes the corner
//! candidates a per-axis inflate would admit). An R-tree descent used to do
//! this job: its STR tiles were 25 minutes deep in time for a 40-second
//! window, so a probe walked dozens of nodes to emit as many candidates, and
//! probing was half of voting. The scan emits exactly the tree's candidate
//! set, in time order instead of tile order — and order cannot change a
//! vote, for the reasons below.
//!
//! Candidates that survive the scan walk a **pruning ladder** of
//! distance lower bounds, cheapest first — the scan's free window-ball gap,
//! then the per-segment box gap — and only survivors are gathered into
//! [`BATCH`]-wide structure-of-arrays blocks for the SIMD batched kernel
//! ([`hermes_trajectory::kernel::mean_sync_distance_batch`]). How many
//! candidates each side of the ladder saw is reported as [`KernelCounters`];
//! `docs/KERNELS.md` walks the whole ladder.
//!
//! **Each unordered pair once.** The distance of two segments is
//! bit-symmetric — each side's position is interpolated on its own, `dx`
//! and `dy` only flip sign before they are squared, and Simpson's sum has
//! one order — so one evaluation serves both votes it can decide. The pass
//! of trajectory `ti` ([`vote_trajectory_into`]) pairs its segments only
//! with voters `< ti` and folds each distance into two minima: the query
//! segment's best for that voter (its own vote, complete when the pass ends
//! because earlier voters come first in ascending order) and the candidate
//! segment's best for `ti` (a *reverse* minimum, returned as that segment's
//! vote contribution from `ti`). [`arena_voting_counted_with`] adds the
//! contributions in ascending `ti` order, after the passes that computed
//! the segments' own votes, so every vote is still summed in ascending voter
//! order.
//!
//! **Exactness contract.** [`arena_voting`] is bit-identical to
//! [`naive_voting`](crate::voting::naive_voting):
//!
//! * the distance kernel is [`hermes_trajectory::kernel::mean_sync_distance`]
//!   — the same function `Segment::mean_synchronized_distance` delegates to —
//!   or its batched SIMD form, which performs the same IEEE-754 operations in
//!   the same per-lane order and is gated bit-identical at every width;
//! * per-voter minima are order-independent (`min` is a lattice operation),
//!   which also covers deferring the fold to the gather-block flush and
//!   computing a minimum in the pass of the other trajectory of the pair
//!   (the distance is the same bits from either side);
//! * per-segment votes are summed in **ascending voter order** in every
//!   implementation, so the order candidates are visited in cannot perturb
//!   the floating sum — it only decides which of them a best-so-far bound
//!   gets to reject, i.e. the [`KernelCounters`], never a vote;
//! * every pruning stage only ever removes candidates whose exact distance
//!   provably cannot change the result: either it exceeds the kernel cutoff
//!   (kernel value exactly `0.0`, additively neutral) or it can strictly
//!   improve neither of the two best-so-far minima it feeds.
//!
//! One caveat to the pruning argument: it relies on the *computed* mean
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
use crate::timescan::TimeOrderedLanes;
use crate::voting::{kernel, VotingProfile};
use hermes_exec::Executor;
use hermes_gist::PackedRTree;
use hermes_trajectory::{
    axis_gap,
    kernel::{mean_sync_distance_batch_at, simd_level, SimdLevel, BATCH},
    Mbb, SegLanes, Timestamp, Trajectory, TrajectoryId,
};
use std::sync::{Mutex, OnceLock, PoisonError};

/// How many candidate pairs reached the exact distance kernel versus how
/// many a lower bound rejected first. Purely observational — the pruning
/// ladder never changes results (see the module docs) — but the ratio is the
/// direct measure of how much exact-kernel work the bounds are saving, so it
/// is threaded from the voting loop all the way to `SHOW STATS` and the
/// Prometheus registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Candidate pairs evaluated by the exact mean-sync-distance kernel.
    pub evaluated: u64,
    /// Candidate pairs rejected by a lower bound before the kernel.
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

/// Everything the voting loop reads about one indexed segment, packed into
/// a single row so the hot loop does one bounds-checked load per candidate
/// instead of chasing parallel arrays — exactly one cache line: lifespan
/// (the slot partition reads it first), the endpoints (the stage-2 box is
/// their `min`/`max`; the kernel lanes of a survivor are the endpoints
/// themselves), the owning trajectory and the arena segment id.
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
}

/// The candidate index over a [`SegmentArena`]: every segment as one
/// 64-byte candidate row, sorted by `(t0, voter, segment)` — a total order, so
/// the layout is a pure function of the arena — beside the window-test
/// lanes of the time-ordered scan (`crate::timescan`) in the same order.
/// Candidates of one probe are neighbours in time, so the hot loop's row
/// reads are memory-local, and building the index is one sort.
pub struct PackedSegmentIndex {
    rows: Vec<CandidateRow>,
    lanes: TimeOrderedLanes,
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
        let mut rows = Vec::with_capacity(n);
        let mut lanes = TimeOrderedLanes::with_capacity(n);
        for (t0, gs) in order {
            let g = gs as usize;
            let row = CandidateRow {
                t0,
                t1: arena.t1[g],
                x0: arena.x0[g],
                y0: arena.y0[g],
                x1: arena.x1[g],
                y1: arena.y1[g],
                voter: arena.traj_of[g],
                gs,
            };
            lanes.push(t0, row.t1, row.xy());
            rows.push(row);
        }
        PackedSegmentIndex {
            rows,
            lanes,
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

    /// Visits every indexed segment whose lifespan intersects `window`'s and
    /// whose box lies within `radius` of `window`'s in the x/y plane — the
    /// probe the voting loop issues once per query run — with the row index
    /// (ascending; rows are the segments in ascending `(t0, global segment
    /// id)`) and the squared spatial gap. Allocation-free.
    #[inline]
    pub fn for_each_candidate(&self, window: &Mbb, radius: f64, visit: impl FnMut(usize, f64)) {
        self.lanes
            .for_each_candidate(simd_level(), window, radius, visit);
    }

    /// The indexed boxes as an STR-packed R-tree whose values are global
    /// segment ids, packed on the first call. Voting does not use it: it is
    /// the reference the scan's candidate set is tested against, and what
    /// the end-to-end benchmark's `gist.probe_*` metrics still time.
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

/// Consecutive segments of one trajectory batched into a single index
/// probe. Neighbouring segments share most of their candidate
/// neighbourhood, so one scan with the run's union window serves the
/// whole run; candidates are then partitioned into per-segment lists in one
/// pass (segments of a run tile time contiguously, so each candidate lands
/// in a contiguous sub-range of the run) and only the overlapping pairs pay
/// the spatial filter and kernel.
const QUERY_RUN: usize = 4;

/// Survivor gather block feeding the batched SIMD kernel: fixed
/// [`BATCH`]-wide structure-of-arrays lanes filled by plain array stores (no
/// capacity checks in the hot loop). The block flushes whenever it fills and
/// once more at segment fold time, so the minima are refreshed every
/// [`BATCH`] survivors — keeping the ladder's best-so-far bounds tight
/// enough to keep firing — while the kernel still amortizes its per-call
/// setup over full blocks.
struct GatherBlock {
    x0: [f64; BATCH],
    y0: [f64; BATCH],
    x1: [f64; BATCH],
    y1: [f64; BATCH],
    t0: [i64; BATCH],
    t1: [i64; BATCH],
    voter: [u32; BATCH],
    /// The candidate's index row, whose reverse minimum the distance feeds.
    row: [u32; BATCH],
    d: [f64; BATCH],
    len: usize,
    /// Kernel dispatch level, resolved once per scratch (not per flush) so
    /// the hot loop never touches the `HERMES_SIMD` `OnceLock`.
    level: SimdLevel,
}

impl Default for GatherBlock {
    fn default() -> Self {
        GatherBlock {
            x0: [0.0; BATCH],
            y0: [0.0; BATCH],
            x1: [0.0; BATCH],
            y1: [0.0; BATCH],
            t0: [0; BATCH],
            t1: [0; BATCH],
            voter: [0; BATCH],
            row: [0; BATCH],
            d: [0.0; BATCH],
            len: 0,
            level: simd_level(),
        }
    }
}

impl GatherBlock {
    /// True when the block just filled and must be flushed before the next
    /// push.
    #[inline]
    fn push(&mut self, candidate: &CandidateRow, row: usize) -> bool {
        let j = self.len;
        self.x0[j] = candidate.x0;
        self.y0[j] = candidate.y0;
        self.x1[j] = candidate.x1;
        self.y1[j] = candidate.y1;
        self.t0[j] = candidate.t0;
        self.t1[j] = candidate.t1;
        self.voter[j] = candidate.voter;
        self.row[j] = row as u32;
        self.len = j + 1;
        self.len == BATCH
    }

    /// Evaluates the gathered candidates against query `seg` through the
    /// batched kernel and folds each distance into both minima it feeds, in
    /// gather order: the query segment's per-voter minimum and the
    /// candidate's reverse minimum. Deferring the fold to the flush cannot
    /// change results: `min` over a fixed candidate set is order-independent,
    /// and a stale best-so-far only makes the *pruning* stages admit more
    /// candidates — whose distances then lose both `d < best` comparisons
    /// exactly because the bound that would have pruned them lower-bounds
    /// `d`.
    ///
    /// Distances beyond `cutoff` are not folded at all. This is invisible in
    /// the votes, bit for bit: the Gaussian kernel hard-cuts `d > cutoff` to
    /// exactly `0.0`, and `x + 0.0 == x` for every finite IEEE-754 `x`, so a
    /// voter whose every distance exceeds the cutoff contributes the same
    /// nothing whether or not it enters the sum. It is also invisible to the
    /// pruning ladder: a best-so-far above the cutoff satisfies
    /// `best² > r²`, and stage 2 already rejects `gap² > r²` first, so such
    /// a best never rejects anything the radius test doesn't. What it buys:
    /// shorter touched lists — fewer entries to sort canonically and fewer
    /// guaranteed-zero [`kernel`](crate::voting) calls in the vote folds.
    /// (The ∞ disjoint-lifespan sentinel is skipped by the same comparison.)
    fn flush(
        &mut self,
        seg: &SegLanes,
        cutoff: f64,
        best_per_voter: &mut [f64],
        touched: &mut Vec<usize>,
        reverse: &mut ReverseMinima,
    ) {
        let n = self.len;
        if n == 0 {
            return;
        }
        #[cfg(test)]
        tests::on_flush();
        mean_sync_distance_batch_at(
            self.level,
            seg,
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
            if d > cutoff {
                continue;
            }
            let voter = self.voter[j] as usize;
            let best = best_per_voter[voter];
            if d < best {
                if best.is_infinite() {
                    touched.push(voter);
                }
                best_per_voter[voter] = d;
            }
            let row = self.row[j];
            let best = reverse.best[row as usize];
            if d < best {
                if best.is_infinite() {
                    reverse.touched.push(row);
                }
                reverse.best[row as usize] = d;
            }
        }
        self.len = 0;
    }
}

/// The reverse minima of one pass: per index row, the best distance from
/// any segment of the trajectory being voted, and the rows holding a finite
/// one. Between passes every entry is `f64::INFINITY` and the list is empty.
#[derive(Default)]
struct ReverseMinima {
    best: Vec<f64>,
    touched: Vec<u32>,
}

/// Reusable per-worker scratch for [`vote_trajectory_into`]. Between calls
/// every best-distance entry is `f64::INFINITY` and the lists are empty, so
/// a warm scratch makes the voting inner loop allocation-free.
pub struct ArenaVoteScratch {
    /// Best (minimum) kernel distance per voter, one array per run slot:
    /// the fused probe accumulates all `QUERY_RUN` segments of a run in a
    /// single scan, and slot k's minima must never observe another
    /// slot's folds (each segment's per-voter min is independent state).
    /// Invariant between runs: every entry is `f64::INFINITY` — each vote
    /// fold resets exactly the entries it touched.
    best: [Vec<f64>; QUERY_RUN],
    /// Per-run-slot list of voters holding a finite best.
    touched: [Vec<usize>; QUERY_RUN],
    /// Per-run-slot survivor gather block feeding the batched kernel.
    blocks: [GatherBlock; QUERY_RUN],
    /// Per index row, its best distance to the trajectory being voted (8 B
    /// per segment of the dataset), reset at the end of each pass.
    reverse: ReverseMinima,
}

impl Default for ArenaVoteScratch {
    fn default() -> Self {
        ArenaVoteScratch {
            best: std::array::from_fn(|_| Vec::new()),
            touched: std::array::from_fn(|_| Vec::new()),
            blocks: std::array::from_fn(|_| GatherBlock::default()),
            reverse: ReverseMinima::default(),
        }
    }
}

impl ArenaVoteScratch {
    fn ensure(&mut self, num_trajectories: usize, num_rows: usize) {
        for b in self.best.iter_mut() {
            if b.len() < num_trajectories {
                b.resize(num_trajectories, f64::INFINITY);
            }
        }
        if self.reverse.best.len() < num_rows {
            self.reverse.best.resize(num_rows, f64::INFINITY);
        }
    }
}

/// The pass of trajectory `ti`: pairs each of its segments with the
/// segments of every voter `< ti`, writes its votes from those voters into
/// `votes` (cleared first) and the votes `ti` casts for the voters' segments
/// into `contributions` (cleared first; one `(global segment id, kernel
/// value)` per segment within the cutoff, in no particular order). Returns
/// the pruned-vs-evaluated kernel counters of the pass. The votes from
/// voters `> ti` are theirs to contribute: see [`arena_voting_counted_with`].
/// With a scratch that has voted over the arena once and outputs whose
/// capacities cover the trajectory's segment count and the dataset's, this
/// performs **zero heap allocations** — the property the counting-allocator
/// test in `crates/s2t/tests` pins down.
///
/// One pass does everything: the time-ordered scan runs once per `QUERY_RUN`
/// consecutive query segments with the run's union window, and the pruning
/// ladder runs **inside the emission callback**, on the candidate row the
/// partition just loaded — no intermediate candidate lists, no second pass
/// re-reading rows. Per (candidate, slot) pair, cheapest bound first; each
/// stage lower-bounds the exact mean synchronized distance, so a reject
/// provably cannot change either minimum the pair feeds, or any vote
/// (module docs):
///
/// 1. the probe's free squared **window-ball gap** vs the larger of the
///    voter's best² and the candidate's reverse best² (the window contains
///    every slot's box, so its gap lower-bounds each slot's),
/// 2. the per-segment **box gap** vs the cutoff ball (beyond it the kernel
///    value is exactly 0.0) and the same two best²,
/// 3. survivors are gathered into the slot's [`BATCH`]-wide block for the
///    SIMD kernel; a full block flushes immediately so the fold refreshes
///    the minima and the best² rejects stay sharp.
///
/// Folding at flush granularity cannot change results: `min` over a fixed
/// candidate set is order-independent, and a stale best-so-far only makes
/// the pruning stages admit more candidates — whose distances then lose the
/// `d < best` comparisons exactly because the bound that would have pruned
/// them lower-bounds `d`.
#[allow(clippy::too_many_arguments)]
pub fn vote_trajectory_into(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    cutoff: f64,
    ti: usize,
    scratch: &mut ArenaVoteScratch,
    votes: &mut Vec<f64>,
    contributions: &mut Vec<(u32, f64)>,
) -> KernelCounters {
    scratch.ensure(arena.num_trajectories(), index.len());
    votes.clear();
    contributions.clear();
    let ArenaVoteScratch {
        best,
        touched,
        blocks,
        reverse,
    } = scratch;
    let mut counters = KernelCounters::default();
    let r2 = cutoff * cutoff;
    let range = arena.segments_of(ti);
    let mut run_start = range.start;
    while run_start < range.end {
        let run_end = (run_start + QUERY_RUN).min(range.end);
        let run_len = run_end - run_start;
        // Hoisted per-slot geometry: kernel lanes and boxes (tail runs
        // repeat the last segment in the unused slots; `run_len` guards
        // every access).
        let segs: [SegLanes; QUERY_RUN] =
            std::array::from_fn(|k| arena.lanes(run_start + k.min(run_len - 1)));
        let sxy: [[f64; 4]; QUERY_RUN] =
            std::array::from_fn(|k| arena.segment_xy(run_start + k.min(run_len - 1)));
        // Union window over the run (times are increasing within a
        // trajectory, so the temporal union is first-start..last-end).
        let mut wx0 = f64::INFINITY;
        let mut wx1 = f64::NEG_INFINITY;
        let mut wy0 = f64::INFINITY;
        let mut wy1 = f64::NEG_INFINITY;
        for xy in sxy[..run_len].iter() {
            wx0 = wx0.min(xy[0]);
            wx1 = wx1.max(xy[1]);
            wy0 = wy0.min(xy[2]);
            wy1 = wy1.max(xy[3]);
        }
        let window = Mbb::new(
            wx0,
            wx1,
            wy0,
            wy1,
            Timestamp(arena.t0[run_start]),
            Timestamp(arena.t1[run_end - 1]),
        );
        index.for_each_candidate(&window, cutoff, |ri, window_gap2| {
            let row = &index.rows[ri];
            let voter = row.voter as usize;
            // A later voter evaluates this pair in its own pass.
            if voter >= ti {
                return;
            }
            let row_xy = row.xy();
            // The slots a candidate temporally overlaps form a
            // contiguous range of the run (segments of a run tile time
            // contiguously): two short forward scans find it.
            let mut k = 0usize;
            while k < run_len && arena.t1[run_start + k] < row.t0 {
                k += 1;
            }
            while k < run_len && arena.t0[run_start + k] <= row.t1 {
                let best_k = &mut best[k];
                let b = best_k[voter];
                let rb = reverse.best[ri];
                // A pair is kept while it can strictly improve either
                // minimum (`d < best` is strict, so equality skips safely;
                // an untouched minimum is ∞, never skipped).
                let keep2 = (b * b).max(rb * rb);
                // Stage 1: window-ball gap.
                if window_gap2 >= keep2 {
                    counters.pruned += 1;
                    k += 1;
                    continue;
                }
                // Stage 2: this slot's box gap vs the cutoff ball and the
                // minima.
                let xy = &sxy[k];
                let gx = axis_gap(row_xy[0], row_xy[1], xy[0], xy[1]);
                let gy = axis_gap(row_xy[2], row_xy[3], xy[2], xy[3]);
                let gap2 = gx * gx + gy * gy;
                if gap2 > r2 || gap2 >= keep2 {
                    counters.pruned += 1;
                    k += 1;
                    continue;
                }
                // Survivor: gather into the slot's block.
                counters.evaluated += 1;
                if blocks[k].push(row, ri) {
                    blocks[k].flush(&segs[k], cutoff, best_k, &mut touched[k], reverse);
                }
                k += 1;
            }
        });
        // Per-slot epilogue, in segment order: final flush, then the vote.
        for k in 0..run_len {
            blocks[k].flush(&segs[k], cutoff, &mut best[k], &mut touched[k], reverse);
            let touched_k = &mut touched[k];
            let best_k = &mut best[k];
            // Canonical summation order (ascending voter index): the
            // floating sum must not depend on the order candidates arrive in.
            // `sort_unstable` on primitives is in-place — no allocation.
            touched_k.sort_unstable();
            let mut vote = 0.0;
            for &voter in touched_k.iter() {
                vote += kernel(best_k[voter], params.sigma, cutoff);
                best_k[voter] = f64::INFINITY;
            }
            touched_k.clear();
            votes.push(vote);
        }
        run_start = run_end;
    }
    // What `ti` casts for the earlier voters' segments.
    for &ri in reverse.touched.iter() {
        let d = std::mem::replace(&mut reverse.best[ri as usize], f64::INFINITY);
        contributions.push((index.rows[ri as usize].gs, kernel(d, params.sigma, cutoff)));
    }
    reverse.touched.clear();
    counters
}

/// Trajectories whose passes run as one fork-join before their
/// contributions are folded: bounds the contributions held at once.
const FOLD_BATCH: usize = 64;

/// Index-accelerated voting over the flat arena — the S2T hot path. Serial
/// shorthand for [`arena_voting_with`].
pub fn arena_voting(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
) -> Vec<VotingProfile> {
    arena_voting_with(arena, index, params, &Executor::serial())
}

/// [`arena_voting`] fanned out over trajectories on `exec`. Profiles come
/// back in input order and every sum is added in the same order on any
/// thread count, so the result is bit-identical to the serial path — and
/// to [`naive_voting`](crate::voting::naive_voting) (see the module docs for
/// why).
pub fn arena_voting_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> Vec<VotingProfile> {
    arena_voting_counted_with(arena, index, params, exec).0
}

/// [`arena_voting_with`] plus the summed pruned-vs-evaluated kernel
/// counters. Counter totals are deterministic: pruning decisions depend only
/// on the pass of one trajectory, never on thread interleaving.
///
/// Trajectories are voted `FOLD_BATCH` at a time, their passes fanned out
/// on `exec`; then, serially and in ascending trajectory order, each pass's
/// votes become its profile and its contributions are added to the earlier
/// trajectories' profiles. A segment's vote therefore starts as its own
/// pass's sum over the voters before it and receives the later voters'
/// contributions one by one in ascending voter order: the order
/// [`naive_voting`](crate::voting::naive_voting) sums in. Each pass borrows
/// a scratch from a pool local to this call, so the scratch state is as
/// many sets as passes run at once — at most `exec.threads()` — and lives
/// no longer than the call. A pass that unwinds never returns its scratch,
/// so no later pass or query can see a half-reset one.
pub fn arena_voting_counted_with(
    arena: &SegmentArena,
    index: &PackedSegmentIndex,
    params: &S2TParams,
    exec: &Executor,
) -> (Vec<VotingProfile>, KernelCounters) {
    let cutoff = params.voting_cutoff_radius();
    let n = arena.num_trajectories();
    let pool: Mutex<Vec<ArenaVoteScratch>> = Mutex::new(Vec::new());
    // Nothing panics while holding the lock, and a push or pop leaves the
    // pool a list of whole, reset scratches, so a poisoned guard is sound.
    let lock = || pool.lock().unwrap_or_else(PoisonError::into_inner);
    let mut totals = KernelCounters::default();
    let mut profiles: Vec<VotingProfile> = Vec::with_capacity(n);
    for batch in (0..n).step_by(FOLD_BATCH) {
        let passes = exec.map_indices((n - batch).min(FOLD_BATCH), |i| {
            let ti = batch + i;
            let mut scratch = lock().pop().unwrap_or_default();
            let mut votes = Vec::with_capacity(arena.segments_of(ti).len());
            let mut contributions = Vec::new();
            let counters = vote_trajectory_into(
                arena,
                index,
                params,
                cutoff,
                ti,
                &mut scratch,
                &mut votes,
                &mut contributions,
            );
            lock().push(scratch);
            (votes, contributions, counters)
        });
        for (i, (votes, contributions, counters)) in passes.into_iter().enumerate() {
            let ti = batch + i;
            totals.accumulate(&counters);
            profiles.push(VotingProfile {
                trajectory_id: arena.trajectory_id(ti),
                trajectory_index: ti,
                votes,
            });
            for (gs, value) in contributions {
                let gs = gs as usize;
                let owner = arena.traj_of[gs] as usize;
                profiles[owner].votes[gs - arena.seg_start[owner]] += value;
            }
        }
    }
    (profiles, totals)
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
    /// way a test injects a panic into the middle of a pass.
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
        assert_eq!(arena_voting(&arena, &packed, &p), naive_voting(&trajs, &p));
    }

    #[test]
    fn kernel_counters_account_for_every_candidate() {
        let trajs = repeated_mod(40);
        let p = params(25.0);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let (profiles, counters) =
            arena_voting_counted_with(&arena, &packed, &p, &Executor::serial());
        assert_eq!(profiles, arena_voting(&arena, &packed, &p));
        // The clustered lines vote for each other, so the exact kernel must
        // have run; their repeats, a few metres apart, leave pairs that can
        // improve neither minimum.
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
        let serial = arena_voting(&arena, &packed, &p);
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
        assert!(arena_voting(&arena, &packed, &p).is_empty());

        let single = vec![line(0, 0.0, 0, 5)];
        let arena = SegmentArena::build(&single);
        let packed = PackedSegmentIndex::build(&arena);
        let profiles = arena_voting(&arena, &packed, &p);
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].votes.iter().all(|&v| v == 0.0));
        assert_eq!(profiles, naive_voting(&single, &p));
    }

    #[test]
    fn scratch_reuse_keeps_results_stable() {
        let trajs = mixed_mod();
        let p = params(25.0);
        let cutoff = p.voting_cutoff_radius();
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let mut scratch = ArenaVoteScratch::default();
        let mut votes = Vec::with_capacity(16);
        let mut contributions = Vec::new();
        let mut reference = Vec::new();
        for ti in 0..arena.num_trajectories() {
            vote_trajectory_into(
                &arena,
                &packed,
                &p,
                cutoff,
                ti,
                &mut ArenaVoteScratch::default(),
                &mut votes,
                &mut contributions,
            );
            contributions.sort_by_key(|&(gs, _)| gs);
            reference.push((votes.clone(), contributions.clone()));
        }
        assert!(reference.iter().any(|(_, c)| !c.is_empty()));
        // Voting the same trajectories repeatedly through one scratch must
        // reproduce a fresh scratch's passes bit for bit (the all-∞
        // invariant holds).
        for _round in 0..3 {
            for (ti, (expected_votes, expected_contributions)) in reference.iter().enumerate() {
                vote_trajectory_into(
                    &arena,
                    &packed,
                    &p,
                    cutoff,
                    ti,
                    &mut scratch,
                    &mut votes,
                    &mut contributions,
                );
                contributions.sort_by_key(|&(gs, _)| gs);
                assert_eq!(&votes, expected_votes, "trajectory {ti}");
                assert_eq!(&contributions, expected_contributions, "trajectory {ti}");
            }
        }
    }

    /// The trajectories of `mixed_mod` repeated `n / 8 + 1` times over with
    /// growing offsets, cut to `n`: every trajectory has close voters before
    /// and after it, and `n` can sit on either side of a fold batch.
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
    fn votes_equal_naive_around_the_fold_batch() {
        let p = params(25.0);
        for n in [0, 1, 2, FOLD_BATCH - 1, FOLD_BATCH, FOLD_BATCH + 1] {
            let trajs = repeated_mod(n);
            let arena = SegmentArena::build(&trajs);
            let packed = PackedSegmentIndex::build(&arena);
            let reference = naive_voting(&trajs, &p);
            if n > 1 {
                assert!(reference.iter().any(|r| r.votes.iter().any(|&v| v > 0.5)));
            }
            for threads in [1usize, 2, 4] {
                let exec = Executor::new(hermes_exec::ExecPolicy { threads });
                assert_eq!(
                    arena_voting_with(&arena, &packed, &p, &exec),
                    reference,
                    "{n} trajectories on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_panic_mid_pass_leaves_the_next_query_right() {
        let p = params(25.0);
        let trajs = repeated_mod(FOLD_BATCH + 3);
        let arena = SegmentArena::build(&trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let reference = naive_voting(&trajs, &p);
        for flushes in [1u64, 7, 40] {
            PANIC_AFTER_FLUSHES.with(|left| left.set(flushes));
            let outcome = std::panic::catch_unwind(|| arena_voting(&arena, &packed, &p));
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
