//! QuT-Clustering: cluster analysis constrained to a temporal window.
//!
//! "Given a MOD indexed according to ReTraTree structure and a temporal
//! period W of interest, QuT-Clustering efficiently retrieves the subset of
//! the MOD, actually the clusters and outliers at sub-trajectory level, that
//! temporally intersect W." (ICDE 2018, §II.B)
//!
//! The progressive trick: sub-chunks *fully covered* by `W` already carry
//! their clustering (level-3 entries) — those are reused verbatim, and from
//! level 3 alone. A window answer says of a member or an outlier who it is
//! and when it lived (a [`SubTrajectorySummary`]), never a point, and level 3
//! keeps that summary beside every record locator; each member's distance to
//! its representative is the entry's own derived state, computed from the
//! stored records by the first covered read (a page run at a time). So a
//! covered sub-chunk whose entries are filled is answered without reading a
//! page — an index-only scan. Only the border sub-chunks (partially
//! overlapping `W`) are re-clustered, on just the data that falls inside `W`,
//! and their clipped pieces summarised. Finally, cluster entries from
//! adjacent sub-chunks are merged when their representatives — which stay
//! full sub-trajectories, the merge integrates over them — are close in space
//! and time, so a cluster that spans a chunk boundary is reported once.

use crate::memo::{BorderKey, BorderPartial, EdgeList, EdgeMemo};
use crate::node::{ClusterEntry, SubChunk};
use crate::params::QutParams;
use crate::tree::ReTraTree;
use hermes_exec::Executor;
use hermes_s2t::{
    run_s2t_with, trajectories_from_subs, Cluster, ClusteringResult, KernelCounters, S2TParams,
    S2TPhaseTimings,
};
use hermes_trajectory::{
    hausdorff_distance, spatiotemporal_distance, sub_trajectory_distance, DistanceCounters,
    Duration, Mbb, SubTrajectory, SubTrajectorySummary, TimeInterval,
};
use std::sync::Arc;
use std::time::Instant;

/// A cluster of a window answer: the representative in full, the members as
/// summaries.
pub type QutCluster = Cluster<SubTrajectorySummary>;

/// A window answer: clusters and outliers at sub-trajectory level, each
/// member and outlier as its [`SubTrajectorySummary`].
pub type QutResult = ClusteringResult<SubTrajectorySummary>;

/// Execution statistics of one QuT query (reported by the E3 benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QutStats {
    /// Sub-chunks fully covered by the window, answered from their level-3
    /// entries as stored: no clustering runs and, once an entry's member
    /// distances are filled, no record is read — the answer is the
    /// summaries level 3 keeps. Every member and outlier so reported is
    /// still counted in `loaded_sub_trajectories`.
    pub reused_subchunks: usize,
    /// Border sub-chunks (partially covered by the window), whether their
    /// clustering was computed by this query or taken from the border memo.
    pub reclustered_subchunks: usize,
    /// Sub-trajectory records the answer accounts for: the members and
    /// outliers of every covered sub-chunk, plus the records a border's
    /// re-clustering read — for a border answered from the memo, the loads of
    /// the run that computed it. A logical count: what physically moved
    /// (nothing, for a covered sub-chunk already filled) is the store's page
    /// lookup counter. Like the two counters above a function of (tree value,
    /// window, params) only; the work a query really did is in `phases` and
    /// `kernel`.
    pub loaded_sub_trajectories: usize,
    /// Cluster pairs merged across sub-chunk boundaries.
    pub merges: usize,
    /// Wall-clock time of the whole query in milliseconds.
    pub elapsed_ms: f64,
    /// Aggregated S2T phase timings of every clustering run the query
    /// performed (border re-clustering for QuT, the fresh pipeline for the
    /// rebuild baseline; zero for borders the memo answered). Under parallel
    /// execution per-task times overlap in wall-clock, so these sum to
    /// *work*, not elapsed time — the same convention `SHOW STATS` uses for
    /// its cumulative phase counters.
    pub phases: S2TPhaseTimings,
    /// Pruned-vs-evaluated voting-kernel counters aggregated over every
    /// clustering run the query performed. Exact for the same reason the
    /// phase timings are: accumulated per task, summed in the deterministic
    /// merge.
    pub kernel: KernelCounters,
}

impl QutStats {
    /// Folds another worker's counters into this one. Under parallel QuT each
    /// sub-chunk task accumulates into its own `QutStats`; the single merge
    /// pass sums them in temporal order, so `SHOW STATS`-visible counters are
    /// exact (no concurrent increments, hence no lost updates). `elapsed_ms`
    /// is deliberately not summed — per-task times overlap in wall-clock; the
    /// query sets it once at the end.
    pub fn merge(&mut self, other: &QutStats) {
        self.reused_subchunks += other.reused_subchunks;
        self.reclustered_subchunks += other.reclustered_subchunks;
        self.loaded_sub_trajectories += other.loaded_sub_trajectories;
        self.merges += other.merges;
        self.phases.accumulate(&other.phases);
        self.kernel.accumulate(&other.kernel);
    }
}

/// What one sub-chunk contributes to a window answer: clusters (ids assigned
/// later, during the deterministic merge), outliers, and its own counters.
struct SubChunkAnswer {
    clusters: Vec<QutCluster>,
    outliers: Vec<SubTrajectorySummary>,
    stats: QutStats,
}

/// A half-open slice `[start_ms, end_ms)` of the time axis used to assign
/// *ownership* of sub-chunks when one logical dataset is split across shards.
/// A sub-chunk belongs to the slice that contains its interval start, so any
/// family of disjoint slices covering the axis partitions the sub-chunks
/// exactly — each is answered by exactly one shard.
///
/// Slices are half-open (unlike the closed [`TimeInterval`]) precisely so
/// that adjacent slices share no sub-chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnedSlice {
    /// Inclusive start of the slice, in milliseconds.
    pub start_ms: i64,
    /// Exclusive end of the slice, in milliseconds.
    pub end_ms: i64,
}

impl OwnedSlice {
    /// The slice covering the entire time axis (single-node ownership).
    pub const ALL: OwnedSlice = OwnedSlice {
        start_ms: i64::MIN,
        end_ms: i64::MAX,
    };

    /// Creates a slice; panics if `start_ms > end_ms`.
    pub fn new(start_ms: i64, end_ms: i64) -> Self {
        assert!(
            start_ms <= end_ms,
            "OwnedSlice start {start_ms} must not exceed end {end_ms}"
        );
        OwnedSlice { start_ms, end_ms }
    }

    /// True when `t` falls inside the half-open slice. `i64::MAX` as `end_ms`
    /// is treated as "unbounded" so [`OwnedSlice::ALL`] really covers the
    /// whole axis, including `Timestamp::MAX` itself.
    pub fn contains_millis(&self, t: i64) -> bool {
        t >= self.start_ms && (t < self.end_ms || self.end_ms == i64::MAX)
    }

    /// [`OwnedSlice::contains_millis`] for a [`hermes_trajectory::Timestamp`].
    pub fn contains(&self, t: hermes_trajectory::Timestamp) -> bool {
        self.contains_millis(t.millis())
    }
}

/// The un-merged contribution of one ownership slice to `QUT(W)`: per-sub-chunk
/// clusters in temporal order, outliers, and the slice's counters. Produced by
/// [`qut_partial_with`]; any set of partials covering the window folds back
/// into the exact single-node answer through [`merge_qut_partials`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QutPartial {
    /// Clusters of the owned sub-chunks, in temporal order. Ids are
    /// placeholders — the merge assigns final ids.
    pub clusters: Vec<QutCluster>,
    /// Outliers of the owned sub-chunks, in temporal order.
    pub outliers: Vec<SubTrajectorySummary>,
    /// Counters accumulated while answering the owned sub-chunks
    /// (`elapsed_ms` is left at zero; the caller stamps wall-clock time).
    pub stats: QutStats,
}

/// Answers one sub-chunk of `QUT(W)`: reuse the level-3 entries when `W`
/// fully covers the sub-chunk, re-cluster the window overlap otherwise.
/// Reads only (`&ReTraTree`; storage reads borrow the pages, the border memo
/// sits behind its own `Mutex`), so any number of these run in parallel.
fn answer_subchunk(
    tree: &ReTraTree,
    sc: &SubChunk,
    w: &TimeInterval,
    params: &QutParams,
    exec: &Executor,
) -> SubChunkAnswer {
    let mut answer = SubChunkAnswer {
        clusters: Vec::new(),
        outliers: Vec::new(),
        stats: QutStats::default(),
    };
    if w.contains_interval(&sc.interval) {
        // Fully covered: reuse the level-3 entries as they are. Who the
        // members are and what each is worth to its representative is the
        // entry's own state; no page is read unless a distance is missing.
        answer.stats.reused_subchunks += 1;
        for entry in &sc.clusters {
            let distances = entry.member_distances(|| distances_to_representative(tree, entry));
            let summaries = entry.member_summaries();
            let mut members = Vec::with_capacity(summaries.len());
            let mut member_distances = Vec::with_capacity(summaries.len());
            // A member without a summary never loaded and never will: its
            // slot is not looked at.
            for (summary, distance) in summaries.iter().zip(distances) {
                if let Some(summary) = summary {
                    members.push(*summary);
                    member_distances.push(*distance);
                }
            }
            answer.stats.loaded_sub_trajectories += members.len();
            answer.clusters.push(Cluster {
                id: 0, // assigned during the sequential merge
                representative: entry.representative.clone(),
                representative_vote: entry.representative_vote,
                members,
                member_distances,
            });
        }
        answer.outliers = sc.outlier_summaries().iter().flatten().copied().collect();
        answer.stats.loaded_sub_trajectories += answer.outliers.len();
    } else {
        // Border sub-chunk: the stored data restricted to W, re-clustered —
        // once per (tree value, overlap, params); the memo keeps the result.
        answer.stats.reclustered_subchunks += 1;
        let overlap = sc
            .interval
            .intersection(w)
            .expect("caller checked intersects(w)");
        let key = BorderKey::new(sc.interval.start, &overlap, &params.s2t);
        let partial = match tree.border_memo.get(&key) {
            Some(partial) => partial,
            None => {
                let mut loaded = 0;
                let mut clipped: Vec<SubTrajectory> = Vec::new();
                tree.store.read_run(&sc.window_records(&overlap), |_, sub| {
                    loaded += 1;
                    clipped.extend(sub.temporal_clip(&overlap));
                });
                let (clusters, outliers, phases, kernel) =
                    cluster_sub_trajectories(&clipped, &params.s2t, exec);
                answer.stats.phases = phases;
                answer.stats.kernel = kernel;
                let partial = Arc::new(BorderPartial {
                    clusters: clusters.into_iter().map(summarized).collect(),
                    outliers: outliers.iter().map(Into::into).collect(),
                    loaded,
                });
                tree.border_memo.insert(key, Arc::clone(&partial));
                partial
            }
        };
        answer.stats.loaded_sub_trajectories += partial.loaded;
        answer.clusters = partial.clusters.clone();
        answer.outliers = partial.outliers.clone();
    }
    answer
}

/// The distance of every member of `entry` to its representative, slot for
/// slot, from the stored records — the fill of the first covered read. A
/// member that does not load, or that shares no time with the
/// representative, keeps `f64::MAX`.
fn distances_to_representative(tree: &ReTraTree, entry: &ClusterEntry) -> Vec<f64> {
    let mut distances = vec![f64::MAX; entry.members().len()];
    tree.store.read_run(entry.members(), |slot, sub| {
        let d = spatiotemporal_distance(
            &sub,
            &entry.representative,
            f64::INFINITY,
            &mut DistanceCounters::default(),
        );
        if d.is_finite() {
            distances[slot] = d;
        }
    });
    distances
}

/// A freshly computed cluster as a window answer reports it.
fn summarized(cluster: Cluster) -> QutCluster {
    Cluster {
        id: cluster.id,
        representative: cluster.representative,
        representative_vote: cluster.representative_vote,
        members: cluster.members.iter().map(Into::into).collect(),
        member_distances: cluster.member_distances,
    }
}

/// Answers `QUT(W)` against a ReTraTree.
pub fn qut_clustering(
    tree: &ReTraTree,
    w: &TimeInterval,
    params: &QutParams,
) -> (QutResult, QutStats) {
    qut_clustering_with(tree, w, params, &Executor::serial())
}

/// [`qut_clustering`] fanned out over the ReTraTree's temporal partitions on
/// `exec`: every intersecting sub-chunk is answered independently (level-3
/// reuse or border re-clustering — the latter itself fans out through the
/// same executor), then the per-sub-chunk answers are folded in temporal
/// order. Cluster ids, the cross-boundary merge and the final sort are all
/// sequential over that deterministic order, so the result is identical to
/// the serial path for any thread count.
///
/// The merge is told where the covered sub-chunks' entries sit in the
/// folded cluster list, so it takes their pairwise distances from the
/// tree's merge-edge memo instead of measuring them.
pub fn qut_clustering_with(
    tree: &ReTraTree,
    w: &TimeInterval,
    params: &QutParams,
    exec: &Executor,
) -> (QutResult, QutStats) {
    let start = Instant::now();
    let targets = owned_targets(tree, &OwnedSlice::ALL, w);
    let answers = exec.map(&targets, |_, sc| answer_subchunk(tree, sc, w, params, exec));
    let mut runs = Vec::new();
    let mut first = 0;
    for (sc, answer) in targets.iter().zip(&answers) {
        if w.contains_interval(&sc.interval) {
            runs.push((*sc, first));
        }
        first += answer.clusters.len();
    }
    let stored = StoredRuns {
        edges: &tree.merge_edges,
        runs,
    };
    let partial = fold_in_temporal_order(answers);
    let (result, mut stats) = merge_partials(vec![partial], Some(&stored), params);
    stats.elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    (result, stats)
}

/// Answers the *owned* share of `QUT(W)`: every sub-chunk that intersects `W`
/// **and** whose interval start falls inside `owned` is answered exactly as
/// in [`qut_clustering_with`] (level-3 reuse or border re-clustering against
/// the full, un-clipped window `W`), in temporal order, but the cross-boundary
/// merge is *not* applied — that is [`merge_qut_partials`]' job, so a
/// coordinator can first concatenate the partials of several shards.
///
/// With `owned == OwnedSlice::ALL` this is the whole query minus the merge.
pub fn qut_partial_with(
    tree: &ReTraTree,
    owned: &OwnedSlice,
    w: &TimeInterval,
    params: &QutParams,
    exec: &Executor,
) -> QutPartial {
    let targets = owned_targets(tree, owned, w);
    // Fan out: one task per sub-chunk, each with its own QutStats.
    let answers = exec.map(&targets, |_, sc| answer_subchunk(tree, sc, w, params, exec));
    fold_in_temporal_order(answers)
}

/// The owned sub-chunks sharing more than an instant with `w`, in temporal
/// order. Sub-chunk intervals are closed and share their endpoints, so a
/// window edge on the grid touches the neighbouring sub-chunk at exactly one
/// instant; clipping to an instant yields nothing, so that neighbour has
/// nothing to contribute and is not a border.
fn owned_targets<'a>(
    tree: &'a ReTraTree,
    owned: &OwnedSlice,
    w: &TimeInterval,
) -> Vec<&'a SubChunk> {
    tree.chunks()
        .filter(|chunk| chunk.interval.intersects(w))
        .flat_map(|chunk| chunk.subchunks.iter())
        .filter(|sc| {
            owned.contains(sc.interval.start)
                && sc
                    .interval
                    .intersection(w)
                    .is_some_and(|overlap| overlap.length() > Duration::ZERO)
        })
        .collect()
}

/// The deterministic fold of per-sub-chunk answers given in temporal order.
fn fold_in_temporal_order(answers: Vec<SubChunkAnswer>) -> QutPartial {
    let mut partial = QutPartial::default();
    for mut answer in answers {
        partial.stats.merge(&answer.stats);
        partial.clusters.append(&mut answer.clusters);
        partial.outliers.append(&mut answer.outliers);
    }
    partial
}

/// Folds per-slice partials (given in temporal slice order) into the final
/// window answer: assigns cluster ids over the concatenation, merges clusters
/// that continue across sub-chunk *and* slice boundaries, and sums the
/// counters. Because partials keep their sub-chunks in temporal order and the
/// merge re-sorts deterministically, the result is byte-identical to running
/// [`qut_clustering_with`] over the undivided tree. `elapsed_ms` of the
/// returned stats is zero; the caller stamps wall-clock time.
///
/// Partials arrive without their tree, so every pair of clusters is
/// measured here.
pub fn merge_qut_partials(partials: Vec<QutPartial>, params: &QutParams) -> (QutResult, QutStats) {
    merge_partials(partials, None, params)
}

/// [`merge_qut_partials`], taking the pairs among `stored`'s entries from
/// their tree's merge-edge memo.
fn merge_partials(
    partials: Vec<QutPartial>,
    stored: Option<&StoredRuns<'_>>,
    params: &QutParams,
) -> (QutResult, QutStats) {
    let mut stats = QutStats::default();
    let mut clusters: Vec<QutCluster> = Vec::new();
    let mut outliers: Vec<SubTrajectorySummary> = Vec::new();
    for mut partial in partials {
        stats.merge(&partial.stats);
        for mut c in partial.clusters.drain(..) {
            c.id = clusters.len();
            clusters.push(c);
        }
        outliers.append(&mut partial.outliers);
    }

    // Merge clusters that continue across sub-chunk boundaries.
    let merged = merge_adjacent_clusters(clusters, stored, params, &mut stats);

    (
        ClusteringResult {
            clusters: merged,
            outliers,
        },
        stats,
    )
}

/// The alternative execution strategy the demo compares against in
/// scenario 2: "(i) extracting the relevant records using a temporal range
/// query, (ii) creating an R-tree index on the result of the query, and
/// (iii) applying clustering (S2T-Clustering, in our case)".
pub fn range_query_then_cluster(
    tree: &ReTraTree,
    w: &TimeInterval,
    s2t: &S2TParams,
) -> (ClusteringResult, QutStats) {
    range_query_then_cluster_with(tree, w, s2t, &Executor::serial())
}

/// [`range_query_then_cluster`] with the fresh S2T run fanned out on `exec`.
pub fn range_query_then_cluster_with(
    tree: &ReTraTree,
    w: &TimeInterval,
    s2t: &S2TParams,
    exec: &Executor,
) -> (ClusteringResult, QutStats) {
    let start = Instant::now();
    let mut stats = QutStats::default();

    // (i) temporal range query over the stored data.
    let subs = tree.window_sub_trajectories(w);
    stats.loaded_sub_trajectories = subs.len();
    let clipped: Vec<SubTrajectory> = subs.iter().filter_map(|s| s.temporal_clip(w)).collect();

    // (ii) + (iii): run_s2t builds its segment index (the fresh R-tree) and
    // applies the full clustering pipeline from scratch.
    let (clusters, outliers, phases, kernel) = cluster_sub_trajectories(&clipped, s2t, exec);
    stats.phases = phases;
    stats.kernel = kernel;

    stats.elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    (ClusteringResult { clusters, outliers }, stats)
}

/// Runs S2T over a bag of sub-trajectories (treating each as a trajectory)
/// and returns its clusters, outliers, per-phase timings and kernel counters.
fn cluster_sub_trajectories(
    subs: &[SubTrajectory],
    s2t: &S2TParams,
    exec: &Executor,
) -> (
    Vec<Cluster>,
    Vec<SubTrajectory>,
    S2TPhaseTimings,
    KernelCounters,
) {
    if subs.is_empty() {
        return (
            Vec::new(),
            Vec::new(),
            S2TPhaseTimings::default(),
            KernelCounters::default(),
        );
    }
    let trajs = trajectories_from_subs(subs);
    let outcome = run_s2t_with(&trajs, s2t, exec);
    (
        outcome.result.clusters,
        outcome.result.outliers,
        outcome.timings,
        outcome.kernel,
    )
}

/// Distance used to decide whether two cluster representatives describe the
/// same (continuing) group of movers:
///
/// * representatives that temporally co-exist are compared with the
///   time-synchronized distance — they must actually co-move;
/// * temporally adjacent representatives (a cluster cut at a sub-chunk
///   boundary) are compared by *continuity*: the spatial distance between
///   the end of the earlier one and the start of the later one. Falling back
///   to a shape distance here would be wrong — the two halves of a long
///   movement occupy different regions of space.
pub(crate) fn representative_merge_distance(a: &SubTrajectory, b: &SubTrajectory) -> f64 {
    if let Some(d) = sub_trajectory_distance(a, b) {
        return d;
    }
    let (earlier, later) = if a.end_time() <= b.start_time() {
        (a, b)
    } else if b.end_time() <= a.start_time() {
        (b, a)
    } else {
        // Degenerate single-instant overlap: compare shapes.
        return hausdorff_distance(a.points(), b.points());
    };
    let end = earlier
        .points()
        .last()
        .expect("sub-trajectories are non-empty");
    let start = later
        .points()
        .first()
        .expect("sub-trajectories are non-empty");
    end.spatial_distance(start)
}

/// Relative slack on the box-gap test of [`merge_adjacent_clusters`]: a pair
/// is dismissed without its exact distance only when the spatial gap between
/// the two representatives' boxes exceeds `merge_distance` by more than
/// `MERGE_BOUND_SLACK * (merge_distance + scale)`, `scale` being the largest
/// coordinate magnitude among the boxes.
///
/// In exact arithmetic the gap `g` bounds all three arms of
/// [`representative_merge_distance`] from below: every sample of the
/// synchronized distance, the end-to-start continuity distance and every
/// point pair of the Hausdorff distance is a distance between a position in
/// one box and a position in the other. In `f64` the last two still hold
/// exactly: their positions are stored points, and the gap is computed with
/// the operations of `Point::spatial_distance` (`-`, `*`, `+`, `sqrt`), each
/// of which rounds monotonically. The synchronized distance interpolates,
/// and `a + (b - a) * f` can leave `[a, b]` — hence the box — by its three
/// roundings, at most `5 * 2^-53 * scale` per coordinate; over two axes and
/// two boxes that shortens a sample by at most `10 * sqrt(2) * 2^-53 *
/// scale`. The roundings of the gap and of a sample (three each), of the 32
/// additions of the mean and of its division take at most `40 * 2^-53` of
/// `g`. Together `d >= g * (1 - 4.5e-15) - 1.6e-15 * scale`, so `1e-12`
/// leaves more than two orders of magnitude on either term.
const MERGE_BOUND_SLACK: f64 = 1e-12;

/// The level-3 entries in a window's cluster list, for the merge to take
/// their pairwise distances from the tree's merge-edge memo: the covered
/// sub-chunks in temporal order, each with the list index of its first
/// entry's cluster (the others follow in entry order).
struct StoredRuns<'a> {
    edges: &'a EdgeMemo,
    runs: Vec<(&'a SubChunk, usize)>,
}

/// Union-find over cluster indices in which every root is the lowest index
/// of its component: a union links the larger root under the smaller.
struct Components {
    parent: Vec<usize>,
    /// Successful unions: `n` minus the number of components.
    merges: usize,
}

impl Components {
    fn new(n: usize) -> Self {
        Components {
            parent: (0..n).collect(),
            merges: 0,
        }
    }

    /// The root of `i`'s component, halving the path on the way.
    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, i: usize, j: usize) {
        let (a, b) = (self.find(i), self.find(j));
        if a != b {
            self.parent[a.max(b)] = a.min(b);
            self.merges += 1;
        }
    }
}

/// Merges clusters whose representatives are within `merge_distance` and
/// whose lifespans are within `merge_gap` of each other. The surviving
/// representative is the one with the higher vote; the other representative
/// joins the member list. The node's window merge and the coordinator's
/// merge of shard partials are this one function; only the coordinator's
/// comes without `stored` runs.
///
/// **The answer is a function of the components of the graph `G` whose
/// edges are the pairs with `gap ≤ merge_gap ∧ d ≤ merge_distance`**, `d`
/// being [`representative_merge_distance`] with the lower index first:
///
/// * A pair of two stored entries is decided from its sub-chunk pair's
///   memoised [`EdgeList`](crate::memo::EdgeList), which holds every such
///   pair with its exact `d` (a NaN `d` is no edge either way) sorted by `d`:
///   the walk takes exactly the prefix with `d ≤ merge_distance` and unions
///   each pair whose lifespans are within `merge_gap`. A sub-chunk pair
///   further than `merge_gap` apart is not walked: a stored representative
///   lies inside its sub-chunk's interval, so its gap to another is at
///   least the gap of their sub-chunks.
/// * Every other pair — one end at least is a border's cluster, which no
///   tree stores — is visited once: the lifespan gap is tested, then two
///   skips, then `d`. The *same-root* skip drops only pairs already
///   connected, so it drops no component. The *box* skip drops only pairs
///   with `d > merge_distance` (see [`MERGE_BOUND_SLACK`]), which are no
///   edges.
/// * So the unions are some order of a subset of `G`'s edges that spans its
///   components, and each one that joins two components is counted:
///   `merges = n − components`.
/// * The output reads only the components: a root is the lowest index of
///   its component, groups are emitted in that order, a group keeps list
///   order, and both sorts after it are stable. The order edges arrive in
///   cannot leak, even when `(start_time, id)` repeats among the survivors.
fn merge_adjacent_clusters(
    clusters: Vec<QutCluster>,
    stored: Option<&StoredRuns<'_>>,
    params: &QutParams,
    stats: &mut QutStats,
) -> Vec<QutCluster> {
    let n = clusters.len();
    if n <= 1 {
        return clusters;
    }
    // What the cheap tests read, side by side.
    let spans: Vec<(TimeInterval, Mbb)> = clusters
        .iter()
        .map(|c| (c.representative.lifespan(), c.representative.mbb()))
        .collect();
    let mut components = Components::new(n);
    let mut is_stored = vec![false; n];
    if let Some(stored) = stored {
        for &(sc, first) in &stored.runs {
            for (k, entry) in sc.clusters.iter().enumerate() {
                debug_assert!(
                    sc.interval.contains_interval(&entry.lifespan()),
                    "a stored representative outlives its sub-chunk"
                );
                debug_assert_eq!(
                    clusters[first + k].representative.id,
                    entry.representative.id
                );
                is_stored[first + k] = true;
            }
        }
        union_stored_edges(stored, &spans, params, &mut components);
    }
    union_live_edges(&clusters, &spans, &is_stored, params, &mut components);
    stats.merges += components.merges;
    fold_components(clusters, &mut components)
}

/// Unions the edges among stored entries, walking each memoised list of a
/// sub-chunk pair within `merge_gap` while `d ≤ merge_distance`.
fn union_stored_edges(
    stored: &StoredRuns<'_>,
    spans: &[(TimeInterval, Mbb)],
    params: &QutParams,
    components: &mut Components,
) {
    fn representatives(sc: &SubChunk) -> Vec<&SubTrajectory> {
        sc.clusters.iter().map(|e| &e.representative).collect()
    }
    for (r, &(early, first_a)) in stored.runs.iter().enumerate() {
        for (s, &(late, first_b)) in stored.runs.iter().enumerate().skip(r) {
            // Later runs only lie further away.
            if early.interval.gap(&late.interval) > params.merge_gap {
                break;
            }
            let same = r == s;
            if early.clusters.is_empty() || late.clusters.len() < 1 + usize::from(same) {
                continue;
            }
            let key = (early.interval.start.millis(), late.interval.start.millis());
            let list = stored.edges.get_or_insert_with(key, || {
                let later = (!same).then(|| representatives(late));
                EdgeList::measure(&representatives(early), later.as_deref())
            });
            for e in list.within(params.merge_distance) {
                let (i, j) = (first_a + e.a as usize, first_b + e.b as usize);
                if spans[i].0.gap(&spans[j].0) <= params.merge_gap {
                    components.union(i, j);
                }
            }
        }
    }
}

/// Unions the edges with at least one unstored end, visiting each such pair
/// once: lifespan gap, then same root, then box gap, then the exact
/// distance.
fn union_live_edges(
    clusters: &[QutCluster],
    spans: &[(TimeInterval, Mbb)],
    is_stored: &[bool],
    params: &QutParams,
    components: &mut Components,
) {
    let scale = spans
        .iter()
        .flat_map(|(_, b)| [b.x_min, b.x_max, b.y_min, b.y_max])
        .fold(0.0, |m: f64, v| m.max(v.abs()));
    let too_far = params.merge_distance + MERGE_BOUND_SLACK * (params.merge_distance + scale);
    for i in (0..clusters.len()).filter(|&i| !is_stored[i]) {
        for (j, &j_stored) in is_stored.iter().enumerate() {
            // A pair of two live clusters is visited from its lower index.
            if j == i || (j < i && !j_stored) {
                continue;
            }
            let (lo, hi) = (i.min(j), i.max(j));
            if spans[lo].0.gap(&spans[hi].0) > params.merge_gap {
                continue;
            }
            if components.find(lo) == components.find(hi)
                || spans[lo].1.min_distance(&spans[hi].1, 0.0) > too_far
            {
                continue;
            }
            let d = representative_merge_distance(
                &clusters[lo].representative,
                &clusters[hi].representative,
            );
            if d <= params.merge_distance {
                components.union(lo, hi);
            }
        }
    }
}

/// Folds each component into one cluster: its members in list order, the
/// highest-vote representative first (the earliest on a tie), the others
/// handed over as members. Output order: representative start time, then
/// id, ties in order of the components' lowest index; ids are reassigned.
fn fold_components(clusters: Vec<QutCluster>, components: &mut Components) -> Vec<QutCluster> {
    let mut groups: Vec<Vec<QutCluster>> = (0..clusters.len()).map(|_| Vec::new()).collect();
    for (i, c) in clusters.into_iter().enumerate() {
        groups[components.find(i)].push(c);
    }

    let mut merged: Vec<QutCluster> = Vec::new();
    for mut group in groups.into_iter().filter(|g| !g.is_empty()) {
        // Highest-vote representative wins.
        group.sort_by(|a, b| {
            b.representative_vote
                .partial_cmp(&a.representative_vote)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut iter = group.into_iter();
        let mut primary = iter.next().expect("groups are non-empty");
        for other in iter {
            let d = representative_merge_distance(&primary.representative, &other.representative);
            primary.members.push((&other.representative).into());
            primary.member_distances.push(d);
            primary.members.extend(other.members);
            primary.member_distances.extend(other.member_distances);
        }
        merged.push(primary);
    }
    // Deterministic output order: by representative start time, then id.
    merged.sort_by_key(|c| (c.representative.start_time(), c.representative.id));
    for (i, c) in merged.iter_mut().enumerate() {
        c.id = i;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ReTraTreeParams;
    use hermes_trajectory::{Duration, Point, Timestamp, Trajectory};

    fn tree_params() -> ReTraTreeParams {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(4),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 2,
            s2t: S2TParams {
                sigma: 60.0,
                epsilon: 300.0,
                min_duration_ms: 60_000,
                ..S2TParams::default()
            },
        }
    }

    fn qut_params() -> QutParams {
        QutParams {
            s2t: tree_params().s2t,
            merge_distance: 400.0,
            merge_gap: Duration::from_mins(90),
        }
    }

    fn traj(id: u64, y: f64, t0: i64, dur_ms: i64) -> Trajectory {
        let n = 40usize;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as f64 * 100.0,
                    y,
                    Timestamp(t0 + dur_ms * i as i64 / (n as i64 - 1)),
                )
            })
            .collect();
        Trajectory::new(id, id, pts).unwrap()
    }

    /// A MOD with a co-moving group in hour 0-1 and another in hours 8-9.
    fn build_tree() -> ReTraTree {
        let mut tree = ReTraTree::new(tree_params());
        for i in 0..25 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3_500_000));
        }
        for i in 25..50 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 8 * 3_600_000, 3_500_000));
        }
        tree
    }

    #[test]
    fn full_window_reuses_subchunk_clusterings() {
        let tree = build_tree();
        let w = TimeInterval::new(Timestamp(0), Timestamp(12 * 3_600_000));
        let (result, stats) = qut_clustering(&tree, &w, &qut_params());
        assert!(stats.reused_subchunks >= 2);
        assert_eq!(
            stats.reclustered_subchunks, 0,
            "a chunk-aligned window needs no re-clustering"
        );
        assert!(
            result.num_clusters() >= 2,
            "both co-moving groups must appear"
        );
        // Every stored piece must be accounted for.
        assert_eq!(result.total_sub_trajectories(), tree.total_population());
    }

    #[test]
    fn narrow_window_returns_only_its_period() {
        let tree = build_tree();
        let w = TimeInterval::new(Timestamp(0), Timestamp(2 * 3_600_000));
        let (result, _) = qut_clustering(&tree, &w, &qut_params());
        assert!(result.num_clusters() >= 1);
        for c in &result.clusters {
            assert!(c.lifespan().intersects(&w));
            assert!(
                c.representative.trajectory_id < 25,
                "only the morning group is in W"
            );
        }
        let (later, _) = qut_clustering(
            &tree,
            &TimeInterval::new(Timestamp(8 * 3_600_000), Timestamp(10 * 3_600_000)),
            &qut_params(),
        );
        for c in &later.clusters {
            assert!(c.representative.trajectory_id >= 25);
        }
    }

    #[test]
    fn misaligned_window_reclusters_the_border() {
        let tree = build_tree();
        // Cuts through the first sub-chunk (sub-chunk = 1 h here).
        let w = TimeInterval::new(Timestamp(20 * 60_000), Timestamp(100 * 60_000));
        let (result, stats) = qut_clustering(&tree, &w, &qut_params());
        assert!(stats.reclustered_subchunks >= 1);
        // Everything returned must be inside (or clipped to) the window.
        for c in &result.clusters {
            assert!(c.representative.lifespan().intersects(&w));
            for m in &c.members {
                assert!(m.lifespan.intersects(&w));
            }
        }
        assert!(result.num_clusters() >= 1);
    }

    #[test]
    fn qut_matches_rebuild_baseline_for_aligned_windows() {
        let tree = build_tree();
        let w = TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000));
        let (fast, _) = qut_clustering(&tree, &w, &qut_params());
        let (slow, _) = range_query_then_cluster(&tree, &w, &qut_params().s2t);
        // The two strategies agree on what co-moves: same number of clustered
        // groups and the same total coverage of the window's data.
        assert_eq!(fast.num_clusters(), slow.num_clusters());
        assert_eq!(fast.total_sub_trajectories(), slow.total_sub_trajectories());
    }

    #[test]
    fn clusters_spanning_subchunk_boundaries_are_merged() {
        let mut tree = ReTraTree::new(tree_params());
        // A co-moving group alive for two consecutive sub-chunks: each
        // sub-chunk clusters its half, QuT must report one merged cluster.
        // Enough objects that both halves overflow their outlier partitions
        // and get their own representative.
        for i in 0..60 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 2 * 3_600_000 - 100_000));
        }
        let w = TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000));
        let (result, stats) = qut_clustering(&tree, &w, &qut_params());
        assert!(
            stats.merges >= 1,
            "expected at least one cross-boundary merge"
        );
        assert_eq!(
            result.num_clusters(),
            1,
            "the group must be reported as a single cluster, got {}",
            result.num_clusters()
        );
    }

    #[test]
    fn parallel_qut_matches_serial_exactly() {
        let tree = build_tree();
        // A misaligned window forces both code paths: level-3 reuse for the
        // covered sub-chunks and border re-clustering at the edges.
        let w = TimeInterval::new(Timestamp(20 * 60_000), Timestamp(9 * 3_600_000));
        let (serial, serial_stats) = qut_clustering(&tree, &w, &qut_params());
        for threads in [2usize, 4] {
            let exec = Executor::new(hermes_exec::ExecPolicy { threads });
            let (parallel, stats) = qut_clustering_with(&tree, &w, &qut_params(), &exec);
            assert_eq!(parallel.num_clusters(), serial.num_clusters());
            assert_eq!(parallel.num_outliers(), serial.num_outliers());
            for (a, b) in parallel.clusters.iter().zip(serial.clusters.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.representative.id, b.representative.id);
                assert_eq!(a.representative.points(), b.representative.points());
                assert_eq!(a.member_distances, b.member_distances);
            }
            // Every counter except wall-clock time is exact.
            assert_eq!(stats.reused_subchunks, serial_stats.reused_subchunks);
            assert_eq!(
                stats.reclustered_subchunks,
                serial_stats.reclustered_subchunks
            );
            assert_eq!(
                stats.loaded_sub_trajectories,
                serial_stats.loaded_sub_trajectories
            );
            assert_eq!(stats.merges, serial_stats.merges);
        }
    }

    #[test]
    fn qut_stats_merge_sums_counters_but_not_time() {
        let mut a = QutStats {
            reused_subchunks: 1,
            reclustered_subchunks: 2,
            loaded_sub_trajectories: 30,
            merges: 4,
            elapsed_ms: 10.0,
            phases: S2TPhaseTimings {
                voting_ms: 3.0,
                ..S2TPhaseTimings::default()
            },
            kernel: KernelCounters {
                evaluated: 11,
                pruned: 20,
            },
        };
        let b = QutStats {
            reused_subchunks: 5,
            reclustered_subchunks: 6,
            loaded_sub_trajectories: 70,
            merges: 8,
            elapsed_ms: 99.0,
            phases: S2TPhaseTimings {
                voting_ms: 4.0,
                clustering_ms: 2.0,
                ..S2TPhaseTimings::default()
            },
            kernel: KernelCounters {
                evaluated: 9,
                pruned: 30,
            },
        };
        a.merge(&b);
        assert_eq!(a.reused_subchunks, 6);
        assert_eq!(a.reclustered_subchunks, 8);
        assert_eq!(a.loaded_sub_trajectories, 100);
        assert_eq!(a.merges, 12);
        assert_eq!(a.elapsed_ms, 10.0, "overlapping wall-clock must not sum");
        // Phase timings are work counters: they do sum.
        assert_eq!(a.phases.voting_ms, 7.0);
        assert_eq!(a.phases.clustering_ms, 2.0);
        // So are the kernel counters.
        assert_eq!(a.kernel.evaluated, 20);
        assert_eq!(a.kernel.pruned, 50);
    }

    #[test]
    fn border_reclustering_populates_phase_timings() {
        let tree = build_tree();
        // A misaligned window forces at least one border re-clustering, whose
        // pipeline timings must surface through the query stats.
        let w = TimeInterval::new(Timestamp(20 * 60_000), Timestamp(100 * 60_000));
        let (_, stats) = qut_clustering(&tree, &w, &qut_params());
        assert!(stats.reclustered_subchunks >= 1);
        assert!(stats.phases.total_ms() > 0.0);
        assert!(stats.phases.voting_ms >= 0.0);

        // A chunk-aligned window reuses level-3 entries — no pipeline runs,
        // no phase work.
        let aligned = TimeInterval::new(Timestamp(0), Timestamp(12 * 3_600_000));
        let (_, stats) = qut_clustering(&tree, &aligned, &qut_params());
        assert_eq!(stats.reclustered_subchunks, 0);
        assert_eq!(stats.phases, S2TPhaseTimings::default());
    }

    #[test]
    fn sharded_partials_reassemble_the_exact_answer() {
        let tree = build_tree();
        // Misaligned window: exercises both reuse and border re-clustering.
        let w = TimeInterval::new(Timestamp(20 * 60_000), Timestamp(9 * 3_600_000));
        let params = qut_params();
        let (single, single_stats) = qut_clustering(&tree, &w, &params);

        // Split ownership at a chunk boundary (4 h) and also at an arbitrary
        // sub-chunk boundary (1 h): each sub-chunk has exactly one owner.
        for cut in [4 * 3_600_000i64, 3_600_000] {
            let exec = Executor::serial();
            let left = qut_partial_with(&tree, &OwnedSlice::new(i64::MIN, cut), &w, &params, &exec);
            let right =
                qut_partial_with(&tree, &OwnedSlice::new(cut, i64::MAX), &w, &params, &exec);
            let (merged, stats) = merge_qut_partials(vec![left, right], &params);
            assert_eq!(merged, single, "split at {cut} diverged from single-node");
            assert_eq!(stats.reused_subchunks, single_stats.reused_subchunks);
            assert_eq!(
                stats.reclustered_subchunks,
                single_stats.reclustered_subchunks
            );
            assert_eq!(
                stats.loaded_sub_trajectories,
                single_stats.loaded_sub_trajectories
            );
            assert_eq!(stats.merges, single_stats.merges);
        }
    }

    #[test]
    fn cross_slice_merges_survive_sharding() {
        let mut tree = ReTraTree::new(tree_params());
        // The boundary-spanning group from
        // `clusters_spanning_subchunk_boundaries_are_merged`, with ownership
        // cut exactly between its two sub-chunks: the merge must happen at
        // partial-fold time and match the single-node answer.
        for i in 0..60 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 2 * 3_600_000 - 100_000));
        }
        let w = TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000));
        let params = qut_params();
        let (single, single_stats) = qut_clustering(&tree, &w, &params);
        assert!(single_stats.merges >= 1, "the scenario must force a merge");

        let exec = Executor::serial();
        let cut = 3_600_000i64; // sub-chunk boundary between the two halves
        let left = qut_partial_with(&tree, &OwnedSlice::new(i64::MIN, cut), &w, &params, &exec);
        let right = qut_partial_with(&tree, &OwnedSlice::new(cut, i64::MAX), &w, &params, &exec);
        assert!(
            !left.clusters.is_empty() && !right.clusters.is_empty(),
            "both slices must contribute clusters for the merge to be cross-slice"
        );
        let (merged, stats) = merge_qut_partials(vec![left, right], &params);
        assert_eq!(merged, single);
        assert_eq!(stats.merges, single_stats.merges);
    }

    /// A group alive for three hours from t=0: every sub-chunk boundary in
    /// between has stored pieces ending and starting exactly on it.
    fn three_hour_tree() -> ReTraTree {
        let mut tree = ReTraTree::new(tree_params());
        for i in 0..30 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3 * 3_600_000 - 100_000));
        }
        tree
    }

    #[test]
    fn grid_aligned_edges_have_no_phantom_border() {
        let tree = three_hour_tree();
        let hour = 3_600_000i64;
        // Exactly the second sub-chunk. The closed window touches the first
        // and the third at one instant each.
        let w = TimeInterval::new(Timestamp(hour), Timestamp(2 * hour));
        let (result, stats) = qut_clustering(&tree, &w, &qut_params());

        // What the neighbours could have contributed: nothing. Their records
        // that touch the shared instant clip to no sub-trajectory at all.
        for instant in [hour, 2 * hour] {
            let at = TimeInterval::new(Timestamp(instant), Timestamp(instant));
            let touching = tree.window_sub_trajectories(&at);
            assert!(!touching.is_empty(), "pieces do end on the grid");
            assert!(touching.iter().all(|s| s.temporal_clip(&at).is_none()));
        }
        // So the answer is the covered sub-chunk's stored clustering, whole…
        let covered_population = tree
            .describe()
            .iter()
            .find(|row| row.1 == w)
            .expect("the window is a sub-chunk")
            .3;
        assert_eq!(result.total_sub_trajectories(), covered_population);
        // …and the counters no longer bill the neighbours for it.
        assert_eq!(stats.reused_subchunks, 1);
        assert_eq!(stats.reclustered_subchunks, 0);
        assert_eq!(stats.loaded_sub_trajectories, covered_population);
        assert_eq!(stats.phases, S2TPhaseTimings::default());
        assert_eq!(tree.border_memo_stats().misses, 0);

        // A degenerate single-instant window owns no sub-chunk at all.
        let at = TimeInterval::new(Timestamp(hour), Timestamp(hour));
        let (result, stats) = qut_clustering(&tree, &at, &qut_params());
        assert_eq!(result, QutResult::default());
        assert_eq!(stats.reclustered_subchunks + stats.reused_subchunks, 0);
        assert_eq!(stats.loaded_sub_trajectories, 0);
    }

    #[test]
    fn repeated_border_is_answered_from_the_memo() {
        let tree = three_hour_tree();
        let min = 60_000i64;
        let w = TimeInterval::new(Timestamp(20 * min), Timestamp(160 * min));
        let params = qut_params();
        let (cold, cold_stats) = qut_clustering(&tree, &w, &params);
        assert_eq!(cold_stats.reclustered_subchunks, 2);
        assert!(cold_stats.phases.total_ms() > 0.0);
        assert!(cold_stats.kernel.evaluated > 0);
        let m = tree.border_memo_stats();
        assert_eq!((m.hits, m.misses), (0, 2));
        assert!(m.bytes > 0);

        // Same window again: same bytes, same logical counters, no work.
        let (warm, warm_stats) = qut_clustering(&tree, &w, &params);
        assert_eq!(warm, cold);
        assert_eq!(warm_stats.reused_subchunks, cold_stats.reused_subchunks);
        assert_eq!(warm_stats.reclustered_subchunks, 2);
        assert_eq!(
            warm_stats.loaded_sub_trajectories,
            cold_stats.loaded_sub_trajectories
        );
        assert_eq!(warm_stats.merges, cold_stats.merges);
        assert_eq!(warm_stats.phases, S2TPhaseTimings::default());
        assert_eq!(warm_stats.kernel, KernelCounters::default());
        let m = tree.border_memo_stats();
        assert_eq!((m.hits, m.misses), (2, 2));

        // Fix one edge, widen the other: the fixed edge's partial is reused.
        let wider = TimeInterval::new(Timestamp(20 * min), Timestamp(170 * min));
        let (got, _) = qut_clustering(&tree, &wider, &params);
        let m = tree.border_memo_stats();
        assert_eq!((m.hits, m.misses), (3, 3));
        assert_eq!(got, qut_clustering(&tree.clone(), &wider, &params).0);

        // Other S2T parameters are other partials.
        let mut other = params.clone();
        other.s2t.sigma *= 2.0;
        let (got, _) = qut_clustering(&tree, &w, &other);
        assert_eq!(tree.border_memo_stats().misses, 5);
        assert_eq!(got, qut_clustering(&tree.clone(), &w, &other).0);

        // Sharded partials go through the same memo.
        let exec = Executor::serial();
        let left = qut_partial_with(
            &tree,
            &OwnedSlice::new(i64::MIN, 3_600_000),
            &w,
            &params,
            &exec,
        );
        let right = qut_partial_with(
            &tree,
            &OwnedSlice::new(3_600_000, i64::MAX),
            &w,
            &params,
            &exec,
        );
        assert_eq!(tree.border_memo_stats().misses, 5);
        let (merged, stats) = merge_qut_partials(vec![left, right], &params);
        assert_eq!(merged, cold);
        assert_eq!(
            stats.loaded_sub_trajectories,
            cold_stats.loaded_sub_trajectories
        );
    }

    #[test]
    fn mutating_the_tree_in_place_empties_the_memo() {
        let mut tree = three_hour_tree();
        let min = 60_000i64;
        let w = TimeInterval::new(Timestamp(20 * min), Timestamp(160 * min));
        let params = qut_params();
        let (before, _) = qut_clustering(&tree, &w, &params);
        assert!(tree.border_memo_stats().bytes > 0);

        // A flight into the first border sub-chunk, on a uniquely owned tree:
        // no clone happens, so only the mutator itself can drop the partial.
        tree.insert_trajectory(&traj(900, 40.0, 25 * min, 30 * min));
        assert_eq!(tree.border_memo_stats().bytes, 0);
        let (after, stats) = qut_clustering(&tree, &w, &params);
        let (fresh, fresh_stats) = qut_clustering(&tree.clone(), &w, &params);
        assert_eq!(after, fresh);
        assert_ne!(after, before, "the new flight is inside the window");
        assert_eq!(
            stats.loaded_sub_trajectories,
            fresh_stats.loaded_sub_trajectories
        );

        // Re-clustering every sub-chunk moves records: same rule.
        assert!(tree.border_memo_stats().bytes > 0);
        assert!(tree.reorganize_all_with(1, &Executor::serial()) > 0);
        assert_eq!(tree.border_memo_stats().bytes, 0);
        let (after, _) = qut_clustering(&tree, &w, &params);
        assert_eq!(after, qut_clustering(&tree.clone(), &w, &params).0);
    }

    #[test]
    fn concurrent_misses_on_one_key_both_return_the_reference() {
        let base = three_hour_tree();
        let min = 60_000i64;
        let w = TimeInterval::new(Timestamp(20 * min), Timestamp(160 * min));
        let params = qut_params();
        let (reference, reference_stats) = qut_clustering(&base, &w, &params);
        for _ in 0..8 {
            let tree = base.clone(); // empty memo
            let barrier = std::sync::Barrier::new(2);
            let answers: Vec<(QutResult, QutStats)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            qut_clustering(&tree, &w, &params)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (result, stats) in &answers {
                assert_eq!(result, &reference);
                assert_eq!(
                    stats.loaded_sub_trajectories,
                    reference_stats.loaded_sub_trajectories
                );
            }
            // Whoever lost the race hit; whoever tied computed too. Either
            // way every border lookup is accounted for and one entry remains
            // per key.
            let m = tree.border_memo_stats();
            let base_m = base.border_memo_stats();
            assert_eq!((m.hits - base_m.hits) + (m.misses - base_m.misses), 4);
            assert!(m.misses - base_m.misses >= 2);
            assert_eq!(m.bytes, base_m.bytes);
        }
    }

    /// Four pairs 50 km apart, three hours each, 720 samples: every pair is
    /// a cluster whose representative a border partial keeps in full — plenty
    /// of bytes per partial and next to no voting work, so a long sweep stays
    /// quick.
    fn sparse_heavy_tree() -> ReTraTree {
        let mut tree = ReTraTree::new(tree_params());
        for i in 0..8u64 {
            let y = (i / 2) as f64 * 50_000.0 + (i % 2) as f64 * 20.0;
            let pts: Vec<Point> = (0..720)
                .map(|k| Point::new(k as f64 * 10.0, y, Timestamp(k * 15_000)))
                .collect();
            tree.insert_trajectory(&Trajectory::new(i, i, pts).unwrap());
        }
        tree
    }

    #[test]
    fn memo_stays_inside_its_byte_bound_over_a_sweep_of_distinct_windows() {
        let tree = sparse_heavy_tree();
        let reference = tree.clone();
        let params = qut_params();
        let window = |k: i64| {
            // One edge inside the first sub-chunk, one inside the second,
            // all 500 distinct.
            TimeInterval::new(
                Timestamp(60_000 + k * 6_000),
                Timestamp(3_600_000 + 120_000 + k * 6_000),
            )
        };
        let mut answers = Vec::new();
        for k in 0..500 {
            let (result, _) = qut_clustering(&tree, &window(k), &params);
            let m = tree.border_memo_stats();
            assert!(
                m.bytes as usize <= crate::MEMO_MAX_BYTES,
                "window {k}: {} bytes accounted",
                m.bytes
            );
            answers.push(result);
        }
        let m = tree.border_memo_stats();
        assert_eq!((m.hits, m.misses), (0, 1_000), "every border was new");
        assert!(m.evictions > 0, "the sweep must overflow the bound");
        assert!(m.bytes > 0);

        // Hit ratio 0 and constant eviction changed no answer: an empty-memo
        // copy of the tree says the same, window by window.
        for k in (0..500).step_by(25) {
            let (expected, _) = qut_clustering(&reference.clone(), &window(k), &params);
            assert_eq!(answers[k as usize], expected, "window {k}");
        }

        // LRU order: the newest window is still there, the oldest is gone.
        let before = tree.border_memo_stats();
        let (newest, _) = qut_clustering(&tree, &window(499), &params);
        assert_eq!(newest, answers[499]);
        assert_eq!(tree.border_memo_stats().hits, before.hits + 2);
        let (oldest, _) = qut_clustering(&tree, &window(0), &params);
        assert_eq!(oldest, answers[0]);
        assert_eq!(tree.border_memo_stats().misses, before.misses + 2);
    }

    /// [`merge_adjacent_clusters`] as it was before it learned to skip
    /// pairs: the exact distance of every pair within `merge_gap`, whatever
    /// union-find already knows. The oracle of the sweep below.
    fn merge_adjacent_clusters_reference(
        clusters: Vec<QutCluster>,
        params: &QutParams,
        stats: &mut QutStats,
    ) -> Vec<QutCluster> {
        let n = clusters.len();
        if n <= 1 {
            return clusters;
        }
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }

        for i in 0..n {
            for j in (i + 1)..n {
                let a = &clusters[i];
                let b = &clusters[j];
                let gap = a
                    .representative
                    .lifespan()
                    .gap(&b.representative.lifespan());
                if gap > params.merge_gap {
                    continue;
                }
                let d = representative_merge_distance(&a.representative, &b.representative);
                if d <= params.merge_distance {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[rb] = ra;
                        stats.merges += 1;
                    }
                }
            }
        }

        // Group clusters by root and fold each group into one cluster.
        let mut groups: std::collections::HashMap<usize, Vec<QutCluster>> =
            std::collections::HashMap::new();
        for (i, c) in clusters.into_iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(c);
        }

        let mut merged: Vec<QutCluster> = Vec::with_capacity(groups.len());
        for (_, mut group) in groups {
            // Highest-vote representative wins.
            group.sort_by(|a, b| {
                b.representative_vote
                    .partial_cmp(&a.representative_vote)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut iter = group.into_iter();
            let mut primary = iter.next().expect("groups are non-empty");
            for other in iter {
                let d =
                    representative_merge_distance(&primary.representative, &other.representative);
                primary.members.push((&other.representative).into());
                primary.member_distances.push(d);
                primary.members.extend(other.members);
                primary.member_distances.extend(other.member_distances);
            }
            merged.push(primary);
        }
        // Deterministic output order: by representative start time, then id.
        merged.sort_by_key(|c| (c.representative.start_time(), c.representative.id));
        for (i, c) in merged.iter_mut().enumerate() {
            c.id = i;
        }
        merged
    }

    /// The merge as [`merge_qut_partials`] runs it: no stored runs.
    fn live_merge(
        clusters: Vec<QutCluster>,
        params: &QutParams,
        stats: &mut QutStats,
    ) -> Vec<QutCluster> {
        merge_adjacent_clusters(clusters, None, params, stats)
    }

    /// Ids as [`merge_qut_partials`] assigns them, then the given merge.
    fn merged_by(
        merge: fn(Vec<QutCluster>, &QutParams, &mut QutStats) -> Vec<QutCluster>,
        clusters: &[QutCluster],
        params: &QutParams,
    ) -> (Vec<QutCluster>, usize) {
        let mut clusters = clusters.to_vec();
        for (id, c) in clusters.iter_mut().enumerate() {
            c.id = id;
        }
        let mut stats = QutStats::default();
        let merged = merge(clusters, params, &mut stats);
        (merged, stats.merges)
    }

    /// Three seeded data sets of different shape, each with the S2T
    /// parameters of its scale.
    fn seeded_sets() -> [(&'static str, Vec<Trajectory>, S2TParams); 3] {
        use hermes_datagen::{
            AircraftScenarioBuilder, MaritimeScenarioBuilder, UrbanScenarioBuilder,
        };
        let s2t = |sigma: f64, epsilon: f64, min_ms: i64| S2TParams {
            sigma,
            epsilon,
            min_duration_ms: min_ms,
            ..S2TParams::default()
        };
        [
            (
                "aircraft",
                AircraftScenarioBuilder {
                    seed: 0xA1_4C4A,
                    num_streams: 3,
                    waves_per_stream: 3,
                    flights_per_wave: 6,
                    num_stragglers: 4,
                    holding_probability: 0.3,
                    ..AircraftScenarioBuilder::default()
                }
                .build()
                .trajectories,
                s2t(2_000.0, 6_000.0, 5 * 60_000),
            ),
            (
                "urban",
                UrbanScenarioBuilder {
                    seed: 0x407_ACE,
                    grid_size: 12,
                    num_corridors: 3,
                    vehicles_per_corridor: 8,
                    num_random_vehicles: 7,
                    ..UrbanScenarioBuilder::default()
                }
                .build()
                .trajectories,
                s2t(60.0, 250.0, 3 * 60_000),
            ),
            (
                "maritime",
                MaritimeScenarioBuilder {
                    seed: 0x5EA_F00D,
                    num_lanes: 3,
                    vessels_per_lane: 8,
                    num_rogues: 4,
                    departure_spread_ms: 30 * 60_000,
                    ..MaritimeScenarioBuilder::default()
                }
                .build()
                .trajectories,
                s2t(800.0, 2_500.0, 10 * 60_000),
            ),
        ]
    }

    /// The ReTraTree of a seeded set: half-hour chunks, two sub-chunks each.
    fn seeded_tree(trajectories: &[Trajectory], s2t: &S2TParams) -> ReTraTree {
        ReTraTree::build_from(
            ReTraTreeParams {
                chunk_duration: Duration::from_mins(30),
                subchunks_per_chunk: 2,
                reorg_page_threshold: 4,
                s2t: s2t.clone(),
            },
            trajectories,
        )
    }

    /// The clusters of the whole axis of `tree`, as the merge gets them.
    fn everything_clusters(tree: &ReTraTree, s2t: &S2TParams) -> Vec<QutCluster> {
        qut_partial_with(
            tree,
            &OwnedSlice::ALL,
            &TimeInterval::everything(),
            &QutParams {
                s2t: s2t.clone(),
                ..QutParams::default()
            },
            &Executor::serial(),
        )
        .clusters
    }

    /// The merge distances of the oracle sweeps: fixed multiples of the
    /// clustering bound, and values just below, on and above three of the
    /// positive box gaps between `clusters`' representatives, where the box
    /// test sits on its edge.
    fn sweep_distances(clusters: &[QutCluster], s2t: &S2TParams, name: &str) -> Vec<f64> {
        let mut gaps: Vec<f64> = Vec::new();
        for (i, a) in clusters.iter().enumerate() {
            for b in &clusters[i + 1..] {
                let g = a
                    .representative
                    .mbb()
                    .min_distance(&b.representative.mbb(), 0.0);
                if g > 0.0 {
                    gaps.push(g);
                }
            }
        }
        gaps.sort_by(f64::total_cmp);
        assert!(!gaps.is_empty(), "{name}: every box pair touches");
        let on_a_gap = [gaps[0], gaps[gaps.len() / 4], gaps[gaps.len() / 2]];

        let mut distances = vec![0.0, s2t.epsilon / 2.0, s2t.epsilon, 4.0 * s2t.epsilon, 1e9];
        for g in on_a_gap {
            distances.extend([g * (1.0 - 1e-6), g * (1.0 - 1e-13), g, g * (1.0 + 1e-6)]);
        }
        distances
    }

    /// The lifespan gaps of the oracle sweeps, in minutes.
    const SWEEP_GAP_MINS: [i64; 4] = [0, 10, 45, 24 * 60];

    #[test]
    fn merge_matches_the_unfiltered_reference_over_seeded_trees() {
        let (mut skipped_somewhere, mut merged_somewhere) = (false, false);
        for (name, trajectories, s2t) in seeded_sets() {
            let tree = seeded_tree(&trajectories, &s2t);
            let clusters = everything_clusters(&tree, &s2t);
            assert!(clusters.len() >= 8, "{name}: {} clusters", clusters.len());
            let distances = sweep_distances(&clusters, &s2t, name);
            for merge_distance in distances {
                for gap_mins in SWEEP_GAP_MINS {
                    let params = QutParams {
                        s2t: s2t.clone(),
                        merge_distance,
                        merge_gap: Duration::from_mins(gap_mins),
                    };
                    let (got, merges) = merged_by(live_merge, &clusters, &params);
                    let (expected, expected_merges) =
                        merged_by(merge_adjacent_clusters_reference, &clusters, &params);
                    let context = format!("{name}, distance {merge_distance}, gap {gap_mins} min");
                    assert_eq!(merges, expected_merges, "{context}");
                    assert_eq!(got, expected, "{context}");
                    for (a, b) in got.iter().zip(&expected) {
                        let bits = |c: &QutCluster| -> Vec<u64> {
                            c.member_distances.iter().map(|d| d.to_bits()).collect()
                        };
                        assert_eq!(bits(a), bits(b), "{context}");
                    }
                    merged_somewhere |= merges > 0;
                    skipped_somewhere |= got.len() > 1;
                }
            }
        }
        assert!(merged_somewhere && skipped_somewhere);
    }

    /// A cluster whose representative is `id`'s straight run at height `y`
    /// from `t0` for ten minutes, with vote `vote` and no members.
    fn lone_cluster(id: u64, y: f64, t0: i64, vote: f64) -> QutCluster {
        QutCluster {
            id: 0,
            representative: SubTrajectory::from_points(
                hermes_trajectory::SubTrajectoryId::new(id, 0),
                id,
                id,
                (0..5)
                    .map(|k| Point::new(k as f64 * 100.0, y, Timestamp(t0 + k * 150_000)))
                    .collect(),
            ),
            representative_vote: vote,
            members: Vec::new(),
            member_distances: Vec::new(),
        }
    }

    #[test]
    fn the_answer_is_a_function_of_the_components_only() {
        // Two components, A = {0, 5} and B = {1, 3}, whose winning
        // representatives (5 and 3) share `(start_time, id)`, so the final
        // sort alone cannot order them; and two loners.
        let clusters = vec![
            lone_cluster(1, 0.0, 0, 1.0),
            lone_cluster(2, 500.0, 0, 1.0),
            lone_cluster(9, 9_000.0, 0, 5.0),
            lone_cluster(7, 520.0, 600_000, 3.0),
            lone_cluster(8, 9_500.0, 0, 1.0),
            lone_cluster(7, 20.0, 600_000, 3.0),
        ];
        // Applied backwards (and each pair turned round), a union that kept
        // the first end's root would root B at 1 → 3 and A at 0 → 5 and emit
        // B first; one that keeps the lower root emits A first both ways.
        let edges = [(0, 5), (1, 3), (3, 1)];
        let apply = |edges: &[(usize, usize)]| {
            let mut components = Components::new(clusters.len());
            for &(i, j) in edges {
                components.union(i, j);
            }
            let merges = components.merges;
            (fold_components(clusters.clone(), &mut components), merges)
        };
        let (forward, merges) = apply(&edges);
        assert_eq!(merges, clusters.len() - 4, "merges = n - components");
        let reversed: Vec<(usize, usize)> = edges.iter().rev().map(|&(i, j)| (j, i)).collect();
        let (backward, backward_merges) = apply(&reversed);
        assert_eq!(backward_merges, merges);
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        // The tie goes to the component with the lower lowest index.
        let heights: Vec<f64> = forward
            .iter()
            .map(|c| c.representative.points()[0].y)
            .collect();
        assert_eq!(heights, [9_500.0, 9_000.0, 20.0, 520.0]);
        assert_eq!(forward[2].members.len(), 1);
    }

    /// One case of the memoised-merge sweep: the window, the parameters,
    /// and the reference merge of the tree's own partial.
    struct MergeCase {
        context: String,
        w: TimeInterval,
        params: QutParams,
        expected: Vec<QutCluster>,
        merges: usize,
    }

    /// Every window shape × merge distance × gap of the sweep over `tree`,
    /// each answered by [`merge_adjacent_clusters_reference`].
    fn merge_cases(tree: &ReTraTree, s2t: &S2TParams, distances: &[f64]) -> Vec<MergeCase> {
        let mut cases = Vec::new();
        for (shape, w) in sweep_windows(tree) {
            for &merge_distance in distances {
                for gap_mins in SWEEP_GAP_MINS {
                    let params = QutParams {
                        s2t: s2t.clone(),
                        merge_distance,
                        merge_gap: Duration::from_mins(gap_mins),
                    };
                    let partial =
                        qut_partial_with(tree, &OwnedSlice::ALL, &w, &params, &Executor::serial());
                    let (expected, merges) = merged_by(
                        merge_adjacent_clusters_reference,
                        &partial.clusters,
                        &params,
                    );
                    cases.push(MergeCase {
                        context: format!("{shape}, distance {merge_distance}, gap {gap_mins} min"),
                        w,
                        params,
                        expected,
                        merges,
                    });
                }
            }
        }
        cases
    }

    /// [`qut_clustering_with`] on `tree` against every case: same clusters
    /// to the bit, same `merges`. Returns whether any case merged.
    fn assert_cases(tree: &ReTraTree, cases: &[MergeCase], state: &str) -> bool {
        let mut merged = false;
        for case in cases {
            let context = format!("{state}, {}", case.context);
            let (got, stats) =
                qut_clustering_with(tree, &case.w, &case.params, &Executor::serial());
            assert_eq!(stats.merges, case.merges, "{context}");
            assert_eq!(
                format!("{:?}", got.clusters),
                format!("{:?}", case.expected),
                "{context}"
            );
            merged |= case.merges > 0;
        }
        merged
    }

    #[test]
    fn memoised_merge_matches_the_unfiltered_reference_over_seeded_trees() {
        let mut merged_somewhere = false;
        for (name, trajectories, s2t) in seeded_sets() {
            let tree = seeded_tree(&trajectories, &s2t);
            let distances = sweep_distances(&everything_clusters(&tree, &s2t), &s2t, name);
            let cases = merge_cases(&tree, &s2t, &distances);

            // Cold: every case on a tree whose memos are empty.
            for case in &cases {
                assert_cases(
                    &tree.clone(),
                    std::slice::from_ref(case),
                    &format!("{name}, cold"),
                );
            }
            // Warm: the same tree twice; the second pass measures nothing.
            merged_somewhere |= assert_cases(&tree, &cases, &format!("{name}, filling"));
            let filled = tree.merge_edge_stats();
            assert!(filled.misses > 0 && filled.bytes > 0, "{name}: {filled:?}");
            assert_cases(&tree, &cases, &format!("{name}, warm"));
            let warm = tree.merge_edge_stats();
            assert_eq!(warm.misses, filled.misses, "{name}");
            assert!(warm.hits > filled.hits, "{name}");
            assert_eq!((warm.evictions, warm.bytes), (0, filled.bytes), "{name}");

            // Decoded: the memo is not part of the encoding. (A decoded
            // representative owns just its own points, so its `Debug` differs
            // from the original's; the reference is the decoded tree's.)
            let bytes = encoded(&tree);
            let back = decoded(&bytes);
            let back_cases = merge_cases(&back, &s2t, &distances);
            assert_cases(&back, &back_cases, &format!("{name}, decoded"));

            // Two threads racing the first fill of a decoded tree.
            let racing = decoded(&bytes);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        barrier.wait();
                        assert_cases(&racing, &back_cases, &format!("{name}, racing"));
                    });
                }
            });

            // Pieces inserted into covered sub-chunks of a warm tree: the
            // lists of the old entries must go.
            let mut grown = tree.clone();
            assert_cases(&grown, &cases, &format!("{name}, before inserts"));
            assert!(grown.merge_edge_stats().bytes > 0);
            let entries = grown.total_clusters();
            for t in trajectories.iter().step_by(3) {
                let twin: Vec<Point> = t
                    .points()
                    .iter()
                    .map(|p| Point::new(p.x + 1.0, p.y - 1.0, p.t))
                    .collect();
                grown.insert_trajectory(&Trajectory::new(t.id + 100_000, t.id, twin).unwrap());
            }
            assert_eq!(grown.merge_edge_stats().bytes, 0, "{name}");
            assert!(grown.stats().assigned_to_existing > tree.stats().assigned_to_existing);
            let grown_cases = merge_cases(&grown, &s2t, &distances);
            assert_cases(&grown, &grown_cases, &format!("{name}, after inserts"));

            // A reorganisation adds entries to warm sub-chunks.
            assert!(grown.merge_edge_stats().bytes > 0);
            assert!(
                grown.reorganize_all_with(1, &Executor::serial()) > 0,
                "{name}"
            );
            assert!(grown.total_clusters() > entries, "{name}");
            assert_eq!(grown.merge_edge_stats().bytes, 0, "{name}");
            let reorganised = merge_cases(&grown, &s2t, &distances);
            assert_cases(&grown, &reorganised, &format!("{name}, reorganised"));
        }
        assert!(merged_somewhere);
    }

    #[test]
    fn a_pair_whose_distance_is_its_box_gap_is_decided_by_the_distance() {
        // The bound is attained: the exact distance *equals* the box gap, far
        // from the origin, so only the slack keeps the test from deciding.
        let g = 1_234.567_8;
        let (x0, y0) = (4.0e6, 7.5e6);
        let rep = |id: u64, pts: [(f64, f64, i64); 2]| QutCluster {
            id: 0,
            representative: SubTrajectory::from_points(
                hermes_trajectory::SubTrajectoryId::new(id, 0),
                id,
                id,
                pts.iter()
                    .map(|&(x, y, t)| Point::new(x0 + x, y0 + y, Timestamp(t)))
                    .collect(),
            ),
            representative_vote: id as f64,
            members: Vec::new(),
            member_distances: Vec::new(),
        };
        let hour = 3_600_000;
        let cases = [
            // Co-moving in lock step, `g` apart: synchronized distance `g`.
            [
                rep(1, [(0.0, 0.0, 0), (5_000.0, 0.0, hour)]),
                rep(2, [(0.0, g, 0), (5_000.0, g, hour)]),
            ],
            // One ends where the other starts `g` further on: continuity `g`.
            [
                rep(1, [(0.0, 0.0, 0), (5_000.0, 0.0, hour)]),
                rep(2, [(5_000.0 + g, 0.0, hour + 1), (9_000.0, 0.0, 2 * hour)]),
            ],
        ];
        for clusters in cases {
            let [a, b] = [&clusters[0].representative, &clusters[1].representative];
            let d = representative_merge_distance(a, b);
            assert_eq!(d, a.mbb().min_distance(&b.mbb(), 0.0));
            for (merge_distance, merges) in [(d, 1), (d * (1.0 - 1e-13), 0), (d * (1.0 + 1e-13), 1)]
            {
                let params = QutParams {
                    merge_distance,
                    merge_gap: Duration::from_mins(5),
                    ..qut_params()
                };
                let got = merged_by(live_merge, &clusters, &params);
                assert_eq!(got.1, merges, "merge distance {merge_distance}");
                assert_eq!(
                    got,
                    merged_by(merge_adjacent_clusters_reference, &clusters, &params)
                );
            }
        }
    }

    /// [`three_hour_tree`] with enough flights that every populated
    /// sub-chunk outgrew its outlier partition and has level-3 entries.
    fn clustered_three_hour_tree() -> ReTraTree {
        let mut tree = ReTraTree::new(tree_params());
        for i in 0..60 {
            tree.insert_trajectory(&traj(i, i as f64 * 5.0, 0, 3 * 3_600_000 - 100_000));
        }
        assert!(tree.total_clusters() >= 3);
        tree
    }

    /// Every `(members, filled distances)` of the tree's level-3 entries.
    fn entry_distances(tree: &ReTraTree) -> Vec<(usize, Option<Vec<u64>>)> {
        tree.chunks()
            .flat_map(|chunk| &chunk.subchunks)
            .flat_map(|sc| &sc.clusters)
            .map(|entry| {
                let filled = entry.filled_member_distances();
                if let Some(d) = filled {
                    assert_eq!(d.len(), entry.members().len());
                }
                (
                    entry.members().len(),
                    filled.map(|d| d.iter().map(|x| x.to_bits()).collect()),
                )
            })
            .collect()
    }

    fn assert_bit_identical(a: &QutResult, b: &QutResult, context: &str) {
        assert_eq!(a, b, "{context}");
        // `==` on f64 lets 0.0 pass for -0.0; the rendering does not.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}");
    }

    #[test]
    fn an_insert_after_a_covered_read_extends_the_entry_distances() {
        let hour = 3_600_000i64;
        let aligned = TimeInterval::new(Timestamp(0), Timestamp(4 * hour));
        let unaligned = TimeInterval::new(Timestamp(20 * 60_000), Timestamp(160 * 60_000));
        let params = qut_params();
        let late = traj(900, 42.0, 0, 3 * hour - 100_000);

        let mut tree = clustered_three_hour_tree();
        assert!(entry_distances(&tree).iter().all(|(_, d)| d.is_none()));
        let (before, _) = qut_clustering(&tree, &aligned, &params);
        let filled = entry_distances(&tree);
        assert!(
            !filled.is_empty() && filled.iter().all(|(_, d)| d.is_some()),
            "{filled:?}"
        );

        // The flight joins existing representatives: their entries grow, and
        // so do their filled distances — by the value insertion computed.
        let assigned = tree.stats().assigned_to_existing;
        tree.insert_trajectory(&late);
        assert!(tree.stats().assigned_to_existing > assigned);
        let extended = entry_distances(&tree);
        assert!(
            extended.iter().all(|(_, d)| d.is_some()),
            "reset, not extended"
        );
        assert!(extended
            .iter()
            .zip(&filled)
            .any(|(after, before)| after.0 > before.0));

        // A tree that was never read before the insert fills every distance
        // from the stored records; the two must agree to the bit.
        let mut fresh = clustered_three_hour_tree();
        fresh.insert_trajectory(&late);
        for w in [aligned, unaligned] {
            let (got, stats) = qut_clustering(&tree, &w, &params);
            let (expected, expected_stats) = qut_clustering(&fresh, &w, &params);
            assert_bit_identical(&got, &expected, "extended vs freshly filled");
            assert_eq!(
                stats.loaded_sub_trajectories,
                expected_stats.loaded_sub_trajectories
            );
            assert_eq!(stats.merges, expected_stats.merges);
        }
        assert_eq!(entry_distances(&tree), entry_distances(&fresh));
        assert_ne!(qut_clustering(&tree, &aligned, &params).0, before);

        // A clone keeps what the entries know; a re-clustering pass adds
        // entries that know nothing yet. Neither changes an answer.
        let mut clone = tree.clone();
        assert_eq!(entry_distances(&clone), entry_distances(&tree));
        for i in 0..40 {
            clone.insert_trajectory(&traj(
                1_000 + i,
                5_000.0 + i as f64 * 5.0,
                0,
                hour - 100_000,
            ));
            fresh.insert_trajectory(&traj(
                1_000 + i,
                5_000.0 + i as f64 * 5.0,
                0,
                hour - 100_000,
            ));
        }
        assert!(clone.stats().reorganizations > tree.stats().reorganizations);
        assert!(entry_distances(&clone).iter().any(|(_, d)| d.is_none()));
        let (got, _) = qut_clustering(&clone, &aligned, &params);
        let (expected, _) = qut_clustering(&fresh, &aligned, &params);
        assert_bit_identical(&got, &expected, "after a reorganization");
    }

    fn encoded(tree: &ReTraTree) -> Vec<u8> {
        let mut w = hermes_storage::ByteWriter::new();
        crate::encode_tree(&mut w, tree);
        w.into_bytes()
    }

    fn decoded(bytes: &[u8]) -> ReTraTree {
        crate::decode_tree(&mut hermes_storage::ByteReader::new(bytes)).unwrap()
    }

    #[test]
    fn a_decoded_tree_answers_like_the_tree_it_was_encoded_from() {
        let hour = 3_600_000i64;
        let tree = clustered_three_hour_tree();
        let params = qut_params();
        let windows = [
            TimeInterval::new(Timestamp(0), Timestamp(4 * hour)),
            TimeInterval::new(Timestamp(20 * 60_000), Timestamp(160 * 60_000)),
        ];
        // Encoded once with every distance unfilled and once with all of
        // them filled: the same bytes, the distances are not part of them.
        let cold_bytes = encoded(&tree);
        let answers: Vec<_> = windows
            .iter()
            .map(|w| qut_clustering(&tree, w, &params))
            .collect();
        assert_eq!(encoded(&tree), cold_bytes);

        let decoded = decoded(&cold_bytes);
        assert!(entry_distances(&decoded).iter().all(|(_, d)| d.is_none()));
        for (w, (expected, expected_stats)) in windows.iter().zip(&answers) {
            // First fill, then reuse.
            for pass in ["first read", "second read"] {
                let (got, stats) = qut_clustering(&decoded, w, &params);
                assert_bit_identical(&got, expected, pass);
                assert_eq!(
                    stats.loaded_sub_trajectories,
                    expected_stats.loaded_sub_trajectories
                );
                assert_eq!(stats.merges, expected_stats.merges);
            }
        }
        assert_eq!(entry_distances(&decoded), entry_distances(&tree));
    }

    #[test]
    fn concurrent_first_covered_reads_both_return_the_reference() {
        let base = clustered_three_hour_tree();
        let w = TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000));
        let params = qut_params();
        let encoded = encoded(&base);
        let (reference, reference_stats) = qut_clustering(&base, &w, &params);
        for _ in 0..8 {
            // Decoded, not cloned: a clone would start with `base`'s fill.
            let tree = decoded(&encoded);
            let barrier = std::sync::Barrier::new(2);
            let answers: Vec<(QutResult, QutStats)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            qut_clustering(&tree, &w, &params)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (result, stats) in &answers {
                assert_bit_identical(result, &reference, "racing first read");
                assert_eq!(
                    stats.loaded_sub_trajectories,
                    reference_stats.loaded_sub_trajectories
                );
            }
            assert_eq!(entry_distances(&tree), entry_distances(&base));
        }
    }

    /// The covered branch as it was before level 3 kept summaries: every
    /// member and outlier record is read a page run at a time, decoded and
    /// then summarised, and every distance is taken from the decoded body —
    /// nothing of the entry's derived state is consulted. The oracle of the
    /// sweeps below; a border sub-chunk takes the shipped path.
    fn answer_subchunk_reference(
        tree: &ReTraTree,
        sc: &SubChunk,
        w: &TimeInterval,
        params: &QutParams,
        exec: &Executor,
    ) -> SubChunkAnswer {
        if !w.contains_interval(&sc.interval) {
            return answer_subchunk(tree, sc, w, params, exec);
        }
        let mut answer = SubChunkAnswer {
            clusters: Vec::new(),
            outliers: Vec::new(),
            stats: QutStats::default(),
        };
        answer.stats.reused_subchunks += 1;
        for entry in &sc.clusters {
            let mut members = Vec::new();
            let mut member_distances = Vec::new();
            tree.store.read_run(entry.members(), |_, sub| {
                let d = spatiotemporal_distance(
                    &sub,
                    &entry.representative,
                    f64::INFINITY,
                    &mut DistanceCounters::default(),
                );
                member_distances.push(if d.is_finite() { d } else { f64::MAX });
                members.push(SubTrajectorySummary::from(&sub));
            });
            answer.stats.loaded_sub_trajectories += members.len();
            answer.clusters.push(Cluster {
                id: 0,
                representative: entry.representative.clone(),
                representative_vote: entry.representative_vote,
                members,
                member_distances,
            });
        }
        tree.store.read_run(sc.outliers(), |_, sub| {
            answer.outliers.push(SubTrajectorySummary::from(&sub))
        });
        answer.stats.loaded_sub_trajectories += answer.outliers.len();
        answer
    }

    /// [`qut_clustering`] with [`answer_subchunk_reference`] per sub-chunk.
    fn qut_clustering_reference(
        tree: &ReTraTree,
        w: &TimeInterval,
        params: &QutParams,
    ) -> (QutResult, QutStats) {
        let exec = Executor::serial();
        let answers = owned_targets(tree, &OwnedSlice::ALL, w)
            .into_iter()
            .map(|sc| answer_subchunk_reference(tree, sc, w, params, &exec))
            .collect();
        merge_qut_partials(vec![fold_in_temporal_order(answers)], params)
    }

    fn counters(stats: &QutStats) -> [usize; 4] {
        [
            stats.reused_subchunks,
            stats.reclustered_subchunks,
            stats.loaded_sub_trajectories,
            stats.merges,
        ]
    }

    /// The shipped path, cold and then warm, against the reference: same
    /// result, same distance bits, same counters.
    fn assert_matches_reference(
        tree: &ReTraTree,
        w: &TimeInterval,
        params: &QutParams,
        context: &str,
    ) {
        let (cold, cold_stats) = qut_clustering(tree, w, params);
        let (expected, expected_stats) = qut_clustering_reference(tree, w, params);
        let (warm, warm_stats) = qut_clustering(tree, w, params);
        for (got, stats, pass) in [(cold, cold_stats, "cold"), (warm, warm_stats, "warm")] {
            assert_bit_identical(&got, &expected, &format!("{context}, {pass}"));
            assert_eq!(
                counters(&stats),
                counters(&expected_stats),
                "{context}, {pass}"
            );
        }
    }

    /// A grid-aligned window, one with both edges inside a sub-chunk, and
    /// the one sub-chunk with the most level-3 entries.
    fn sweep_windows(tree: &ReTraTree) -> [(&'static str, TimeInterval); 3] {
        let span = tree.lifespan().expect("the tree holds data");
        let sub = tree.subchunk_duration();
        let busiest = tree
            .chunks()
            .flat_map(|chunk| &chunk.subchunks)
            .max_by_key(|sc| sc.num_clusters())
            .expect("the tree holds data");
        assert!(busiest.num_clusters() > 0);
        let mins = Duration::from_mins;
        [
            ("aligned", TimeInterval::new(span.start + sub, span.end)),
            (
                "unaligned",
                TimeInterval::new(span.start + mins(7), span.end - mins(11)),
            ),
            ("single sub-chunk", busiest.interval),
        ]
    }

    fn sweep_params(s2t: &S2TParams) -> [QutParams; 2] {
        [
            QutParams {
                s2t: s2t.clone(),
                ..QutParams::default()
            },
            QutParams {
                s2t: S2TParams {
                    tau: 0.5,
                    delta: 0.1,
                    ..s2t.clone()
                },
                merge_distance: 4.0 * s2t.epsilon,
                merge_gap: Duration::from_mins(45),
            },
        ]
    }

    fn sweep_against_reference(tree: &ReTraTree, s2t: &S2TParams, context: &str) {
        for (shape, w) in sweep_windows(tree) {
            for (set, params) in sweep_params(s2t).iter().enumerate() {
                let context = format!("{context}, {shape} window, parameter set {set}");
                assert_matches_reference(tree, &w, params, &context);
            }
        }
    }

    /// Every summary level 3 holds, sub-chunk by sub-chunk: the outliers',
    /// then each entry's members'.
    fn level3_summaries(tree: &ReTraTree) -> Vec<Vec<Option<SubTrajectorySummary>>> {
        tree.chunks()
            .flat_map(|chunk| &chunk.subchunks)
            .flat_map(|sc| {
                std::iter::once(sc.outlier_summaries().to_vec()).chain(
                    sc.clusters
                        .iter()
                        .map(|entry| entry.member_summaries().to_vec()),
                )
            })
            .collect()
    }

    /// `(members, filled?)` of every level-3 entry, by sub-chunk and
    /// representative.
    fn entry_states(
        tree: &ReTraTree,
    ) -> std::collections::BTreeMap<(Timestamp, hermes_trajectory::SubTrajectoryId), (usize, bool)>
    {
        tree.chunks()
            .flat_map(|chunk| &chunk.subchunks)
            .flat_map(|sc| {
                sc.clusters
                    .iter()
                    .map(move |entry| (sc.interval.start, entry))
            })
            .map(|(start, entry)| {
                (
                    (start, entry.representative.id),
                    (
                        entry.members().len(),
                        entry.filled_member_distances().is_some(),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn covered_reads_match_the_body_reading_reference_over_seeded_trees() {
        let (mut grew_filled, mut grew_unfilled) = (false, false);
        for (name, trajectories, s2t) in seeded_sets() {
            let tree = seeded_tree(&trajectories, &s2t);
            let bytes = encoded(&tree);
            assert!(entry_distances(&tree).iter().all(|(_, d)| d.is_none()));
            sweep_against_reference(&tree, &s2t, &format!("{name}, fresh"));
            assert_eq!(
                encoded(&tree),
                bytes,
                "{name}: derived state is not encoded"
            );

            // Decoded: the summaries read back from the record headers are
            // the ones insertion and reorganisation wrote, field by field.
            let back = decoded(&bytes);
            let summaries = level3_summaries(&back);
            assert_eq!(summaries, level3_summaries(&tree), "{name}");
            assert!(summaries.iter().flatten().all(Option::is_some), "{name}");
            sweep_against_reference(&back, &s2t, &format!("{name}, decoded"));

            // Two threads racing the first covered read of an unfilled tree.
            let [(_, aligned), _, (_, single)] = sweep_windows(&tree);
            let params = &sweep_params(&s2t)[0];
            let (reference, reference_stats) = qut_clustering_reference(&back, &aligned, params);
            let racing = decoded(&bytes);
            let barrier = std::sync::Barrier::new(2);
            let answers: Vec<(QutResult, QutStats)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            qut_clustering(&racing, &aligned, params)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (result, stats) in &answers {
                assert_bit_identical(result, &reference, &format!("{name}, racing"));
                assert_eq!(counters(stats), counters(&reference_stats), "{name}");
            }

            // Inserts into filled and unfilled entries: fill one sub-chunk of
            // an unfilled tree, then fly a twin of every third trajectory.
            let mut grown = decoded(&bytes);
            qut_clustering(&grown, &single, params);
            let before = entry_states(&grown);
            assert!(before.values().any(|&(_, filled)| filled), "{name}");
            for t in trajectories.iter().step_by(3) {
                let twin: Vec<Point> = t
                    .points()
                    .iter()
                    .map(|p| Point::new(p.x + 1.0, p.y - 1.0, p.t))
                    .collect();
                grown.insert_trajectory(&Trajectory::new(t.id + 100_000, t.id, twin).unwrap());
            }
            let after = entry_states(&grown);
            let grew = |filled: bool| {
                before
                    .iter()
                    .any(|(key, &(members, was))| was == filled && after[key].0 > members)
            };
            assert!(grown.stats().assigned_to_existing > tree.stats().assigned_to_existing);
            grew_filled |= grew(true);
            grew_unfilled |= grew(false);
            sweep_against_reference(&grown, &s2t, &format!("{name}, after inserts"));

            // A reorganisation adds entries and replaces every outlier list.
            let entries = grown.total_clusters();
            assert!(
                grown.reorganize_all_with(1, &Executor::serial()) > 0,
                "{name}"
            );
            assert!(grown.total_clusters() > entries, "{name}");
            sweep_against_reference(&grown, &s2t, &format!("{name}, reorganised"));
            let back = decoded(&encoded(&grown));
            assert_eq!(level3_summaries(&back), level3_summaries(&grown), "{name}");
            sweep_against_reference(&back, &s2t, &format!("{name}, reorganised, decoded"));
        }
        assert!(grew_filled, "no insert into a filled entry");
        assert!(grew_unfilled, "no insert into an unfilled entry");
    }

    /// The window walk as a scan of storage: every record level 3 points
    /// at — each entry's archived representative and members, the outliers
    /// — read through the store and kept when it reads and its decoded
    /// lifespan intersects `w`, in storage order. The oracle of
    /// [`SubChunk::window_records`]: no summary and no readable bit of
    /// level 3 is consulted.
    fn window_records_reference(
        tree: &ReTraTree,
        sc: &SubChunk,
        w: &TimeInterval,
    ) -> Vec<hermes_storage::RecordLocator> {
        let mut records: Vec<_> = sc
            .clusters
            .iter()
            .flat_map(|entry| entry.representative_loc.iter().chain(entry.members()))
            .chain(sc.outliers())
            .copied()
            .filter(|loc| {
                tree.load(*loc)
                    .is_some_and(|sub| sub.lifespan().intersects(w))
            })
            .collect();
        records.sort_by_key(|loc| (loc.partition, loc.page, loc.slot));
        records
    }

    /// The walk and its count against the reference, sub-chunk by sub-chunk,
    /// over the whole axis, the data's span, a window past it, the
    /// sub-chunk itself, its middle third, a third on either side of its
    /// start, and two instants; then the tree-level reads built on the walk.
    /// Returns how many records the walk saw over the whole axis.
    fn assert_walk_matches_reference(tree: &ReTraTree, context: &str) -> usize {
        let span = tree.lifespan().expect("the tree holds data");
        let after = span.end + Duration::from_mins(1);
        let shared = [
            TimeInterval::everything(),
            span,
            TimeInterval::new(after, after + Duration::from_mins(1)),
        ];
        let mut walked = 0;
        for sc in tree.chunks().flat_map(|chunk| &chunk.subchunks) {
            let (s, e) = (sc.interval.start.millis(), sc.interval.end.millis());
            let third = (e - s) / 3;
            let at = |a: i64, b: i64| TimeInterval::new(Timestamp(a), Timestamp(b));
            let own = [
                sc.interval,
                at(s + third, e - third),
                at(s - third, s + third),
                at(e - third, e + third),
                at(s, s),
                at(s + third, s + third),
            ];
            for w in shared.iter().chain(&own) {
                let expected = window_records_reference(tree, sc, w);
                assert_eq!(sc.window_records(w), expected, "{context}, {w}");
                assert_eq!(sc.window_count(w), expected.len(), "{context}, {w}");
            }
            walked += sc.window_count(&TimeInterval::everything());
        }
        for w in &shared[..2] {
            let reads = tree.window_sub_trajectories(w);
            assert_eq!(reads.len(), walked, "{context}");
            assert_eq!(tree.owned_window_count(w, &OwnedSlice::ALL), walked);
            let expected: Vec<SubTrajectory> = tree
                .chunks()
                .flat_map(|chunk| &chunk.subchunks)
                .flat_map(|sc| window_records_reference(tree, sc, w))
                .map(|loc| tree.load(loc).expect("the reference reads it"))
                .collect();
            assert_eq!(reads, expected, "{context}");
        }
        walked
    }

    fn decoded_v1(tree: &ReTraTree) -> ReTraTree {
        let mut w = hermes_storage::ByteWriter::new();
        crate::persist::encode_tree_v1(&mut w, tree);
        let bytes = w.into_bytes();
        crate::decode_tree_v1(&mut hermes_storage::ByteReader::new(&bytes)).unwrap()
    }

    #[test]
    fn the_window_walk_matches_a_scan_of_the_store_over_seeded_trees() {
        for (name, trajectories, s2t) in seeded_sets() {
            let tree = seeded_tree(&trajectories, &s2t);
            let population = tree.total_population();
            assert_eq!(
                assert_walk_matches_reference(&tree, &format!("{name}, fresh")),
                population
            );
            assert_walk_matches_reference(&decoded(&encoded(&tree)), &format!("{name}, v2"));
            assert_walk_matches_reference(&decoded_v1(&tree), &format!("{name}, v1"));

            // Inserts into reorganised sub-chunks: members join entries,
            // the rest become outliers beside the reorganised ones.
            let mut grown = tree.clone();
            for t in trajectories.iter().step_by(3) {
                let twin: Vec<Point> = t
                    .points()
                    .iter()
                    .map(|p| Point::new(p.x + 1.0, p.y - 1.0, p.t))
                    .collect();
                grown.insert_trajectory(&Trajectory::new(t.id + 100_000, t.id, twin).unwrap());
            }
            assert!(grown.stats().assigned_to_existing > tree.stats().assigned_to_existing);
            assert!(grown.stats().parked_as_outliers > tree.stats().parked_as_outliers);
            let context = format!("{name}, after inserts");
            assert_eq!(
                assert_walk_matches_reference(&grown, &context),
                grown.total_population()
            );
            assert!(
                grown.reorganize_all_with(1, &Executor::serial()) > 0,
                "{name}"
            );
            let context = format!("{name}, reorganised");
            assert_eq!(
                assert_walk_matches_reference(&grown, &context),
                grown.total_population()
            );
            assert_walk_matches_reference(&decoded(&encoded(&grown)), &format!("{context}, v2"));
            assert_walk_matches_reference(&decoded_v1(&grown), &format!("{context}, v1"));

            // A tombstoned member and a tombstoned representative: only a
            // snapshot holds them, and neither is walked.
            let mut damaged = grown.clone();
            let entries: Vec<&ClusterEntry> = grown
                .chunks()
                .flat_map(|chunk| &chunk.subchunks)
                .flat_map(|sc| &sc.clusters)
                .collect();
            let member = entries
                .iter()
                .find_map(|entry| entry.members().first())
                .expect("an entry with a member");
            let representative = entries
                .iter()
                .rev()
                .find_map(|entry| entry.representative_loc)
                .expect("an archived representative");
            assert!(damaged.store.delete(*member).unwrap());
            assert!(damaged.store.delete(representative).unwrap());
            let population = grown.total_population();
            for (version, back) in [
                ("v2", decoded(&encoded(&damaged))),
                ("v1", decoded_v1(&damaged)),
            ] {
                let context = format!("{name}, tombstones, {version}");
                assert_eq!(
                    assert_walk_matches_reference(&back, &context),
                    population - 2
                );
            }
        }
    }

    #[test]
    fn an_unreadable_member_is_skipped_and_its_slot_never_looked_at() {
        let w = TimeInterval::new(Timestamp(0), Timestamp(4 * 3_600_000));
        let params = qut_params();
        let mut tree = clustered_three_hour_tree();
        let (whole, whole_stats) = qut_clustering_reference(&tree, &w, &params);

        // The tree never deletes a record of a live partition, so only a
        // snapshot can hold a member that does not read. Make one: tombstone
        // the second member of the first entry that has three.
        let entry_of = |tree: &ReTraTree| -> ClusterEntry {
            tree.chunks()
                .flat_map(|chunk| &chunk.subchunks)
                .flat_map(|sc| &sc.clusters)
                .find(|entry| entry.members().len() >= 3)
                .expect("an entry with three members")
                .clone()
        };
        let victim = entry_of(&tree).members()[1];
        assert!(tree.store.delete(victim).unwrap());
        let mut back = decoded(&encoded(&tree));
        let summaries = entry_of(&back).member_summaries().to_vec();
        assert!(summaries[1].is_none());
        assert!(summaries[0].is_some() && summaries[2].is_some());

        for pass in ["first read", "second read"] {
            assert_matches_reference(&back, &w, &params, pass);
            let (got, stats) = qut_clustering(&back, &w, &params);
            assert_eq!(
                stats.loaded_sub_trajectories,
                whole_stats.loaded_sub_trajectories - 1
            );
            assert_eq!(
                got.total_sub_trajectories(),
                whole.total_sub_trajectories() - 1
            );
        }
        let filled = entry_of(&back);
        let distances = filled.filled_member_distances().expect("filled above");
        assert_eq!(distances[1], f64::MAX, "the slot is kept and never read");
        assert!(distances[0] < f64::MAX && distances[2] < f64::MAX);

        // The slots stay aligned when the entry grows.
        back.insert_trajectory(&traj(900, 42.0, 0, 3 * 3_600_000 - 100_000));
        assert!(entry_of(&back).members().len() > summaries.len());
        assert_matches_reference(&back, &w, &params, "after an insert");
    }

    #[test]
    fn owned_slice_partitions_the_axis() {
        let a = OwnedSlice::new(i64::MIN, 0);
        let b = OwnedSlice::new(0, 100);
        let c = OwnedSlice::new(100, i64::MAX);
        for t in [i64::MIN, -1, 0, 99, 100, i64::MAX - 1, i64::MAX] {
            let owners = [a, b, c].iter().filter(|s| s.contains_millis(t)).count();
            assert_eq!(owners, 1, "t={t} must have exactly one owner");
        }
        assert!(OwnedSlice::ALL.contains_millis(i64::MIN));
        assert!(OwnedSlice::ALL.contains_millis(i64::MAX));
    }

    #[test]
    fn empty_window_returns_nothing() {
        let tree = build_tree();
        let w = TimeInterval::new(Timestamp(30 * 3_600_000), Timestamp(40 * 3_600_000));
        let (result, stats) = qut_clustering(&tree, &w, &qut_params());
        assert_eq!(result.num_clusters(), 0);
        assert_eq!(result.num_outliers(), 0);
        assert_eq!(stats.loaded_sub_trajectories, 0);
    }
}
