//! A static, cache-linear 3D R-tree packed into flat arrays.
//!
//! [`PackedRTree`] is bulk-loaded once with Sort-Tile-Recursive packing and
//! laid out as parallel structure-of-arrays lanes: item boxes in one
//! contiguous slab ordered by STR tile, node boxes in another, and every node
//! addressing its children as a `[start, end)` range — so a query is a walk
//! over contiguous `f64`/`i64` lanes with **zero heap allocation** (traversal
//! recurses to the tree height, which is logarithmic in the item count).
//!
//! It has one query, the ball-candidate query of a distance-cutoff kernel.
//! It was the S2T voting index until `hermes-s2t` replaced the descent with
//! a time-ordered scan; it survives as that scan's reference in tests and as
//! what the frozen end-to-end benchmark's `gist.probe_*` metrics time. It
//! supports no insertion or deletion.

use hermes_trajectory::{simd_level, Mbb, SimdLevel, Timestamp};

/// Node fanout of the packed tree.
const NODE_CAP: usize = 16;

/// Gap between two closed intervals along one axis (0 when they overlap).
///
/// Shared between the tree's ball traversal and the per-segment candidate
/// filter in `hermes-s2t`: the pruning-exactness argument of the voting hot
/// path requires both levels to compute the *same* lower bound, so there is
/// exactly one implementation. Written as two subtractions and two selects
/// (no branches — interval gaps are coin-flip data to a branch predictor):
/// exactly one of `b_min - a_max` / `a_min - b_max` is positive when the
/// intervals are disjoint, both are `<= 0.0` when they overlap, and equal
/// finite operands subtract to `+0.0` — so the selected value is identical
/// to the branchy three-case form, bit for bit. The SIMD leaf scan emits
/// this same max-chain with packed ops.
#[inline]
pub fn axis_gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
    let lo = b_min - a_max;
    let hi = a_min - b_max;
    let g = if lo > hi { lo } else { hi };
    if g > 0.0 {
        g
    } else {
        0.0
    }
}

/// One level-by-level packed node: its bounding lanes live in the `n*` arrays
/// of the tree at the node's index.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    /// First child (node index for internal nodes, item index for leaves).
    start: u32,
    /// One past the last child.
    end: u32,
    /// True when the children are items, not nodes.
    leaf: bool,
}

/// One ball-candidate query, prepared once per traversal: exact `i64`
/// temporal bounds for node descent and the survivor recheck, outward-
/// rounded `f64` bounds for the packed temporal prefilter, squared radius.
struct BallQuery {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    t0: i64,
    t1: i64,
    t0f: f64,
    t1f: f64,
    r2: f64,
}

/// A static 3D R-tree over values of type `V`, keyed by spatio-temporal
/// boxes, stored as flat parallel arrays.
///
/// Bounds are blocked by axis kind: the temporal bounds of item/node `i`
/// live in one `[t_min, t_max]` pair (a single 16-byte read) and the spatial
/// bounds in one `[x_min, x_max, y_min, y_max]` block (32 bytes). Traversals
/// test time first — on trajectory workloads it is the most selective axis —
/// so the common rejected candidate touches exactly one cache line.
#[derive(Clone)]
pub struct PackedRTree<V> {
    // Item slabs, in STR-tile order. `values[i]` is keyed by the box
    // `(ixy[i], it[i])`.
    it: Vec<[i64; 2]>,
    ixy: Vec<[f64; 4]>,
    values: Vec<V>,
    // Transposed item bound lanes for the SIMD leaf scan: one contiguous
    // `f64` lane per bound so a leaf's items are tested four at a time with
    // packed loads. `st0`/`st1` are the temporal bounds widened to `f64`
    // with outward rounding — a conservative prefilter (never rejects a true
    // candidate; the scan rechecks survivors against the exact `i64` lanes).
    sx0: Vec<f64>,
    sx1: Vec<f64>,
    sy0: Vec<f64>,
    sy1: Vec<f64>,
    st0: Vec<f64>,
    st1: Vec<f64>,
    // Node slabs. Leaves come first, then each internal level, root last.
    nt: Vec<[i64; 2]>,
    nxy: Vec<[f64; 4]>,
    // Transposed node bound lanes for the SIMD child scan, mirroring the
    // item slabs: one contiguous `f64` lane per bound (children of a node
    // are contiguous node ids, so a node's children are tested four at a
    // time with packed loads). `nst0`/`nst1` carry the outward-rounded
    // temporal prefilter; survivors are rechecked against the exact `nt`.
    nsx0: Vec<f64>,
    nsx1: Vec<f64>,
    nsy0: Vec<f64>,
    nsy1: Vec<f64>,
    nst0: Vec<f64>,
    nst1: Vec<f64>,
    nodes: Vec<NodeRef>,
    root: usize,
    height: usize,
}

/// `t` as `f64`, rounded toward `-∞` (exact for every `|t| < 2^53`, which
/// covers any millisecond timestamp this engine produces). With [`t_up`],
/// the outward rounding every packed temporal prefilter relies on — here and
/// in `hermes-s2t`'s time-ordered candidate scan — so, like [`axis_gap`],
/// there is one implementation.
pub fn t_down(t: i64) -> f64 {
    let f = t as f64;
    if f as i128 > t as i128 {
        f.next_down()
    } else {
        f
    }
}

/// `t` as `f64`, rounded toward `+∞` (see [`t_down`]).
pub fn t_up(t: i64) -> f64 {
    let f = t as f64;
    if (f as i128) < t as i128 {
        f.next_up()
    } else {
        f
    }
}

impl<V> PackedRTree<V> {
    /// An empty tree (no items, no nodes; every query is a no-op).
    pub fn empty() -> Self {
        PackedRTree {
            it: Vec::new(),
            ixy: Vec::new(),
            values: Vec::new(),
            sx0: Vec::new(),
            sx1: Vec::new(),
            sy0: Vec::new(),
            sy1: Vec::new(),
            st0: Vec::new(),
            st1: Vec::new(),
            nt: Vec::new(),
            nxy: Vec::new(),
            nsx0: Vec::new(),
            nsx1: Vec::new(),
            nsy0: Vec::new(),
            nsy1: Vec::new(),
            nst0: Vec::new(),
            nst1: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            height: 0,
        }
    }

    /// Bulk-loads the tree with Sort-Tile-Recursive packing over the box
    /// centers (x, then y, then t), flattened into the blocked slabs.
    pub fn bulk_load(mut items: Vec<(Mbb, V)>) -> Self {
        if items.is_empty() {
            return Self::empty();
        }

        // Recursive STR tiling over the item slice; leaves are emitted as
        // `[start, end)` ranges over the final (sorted-in-place) order.
        fn tile<V>(
            items: &mut [(Mbb, V)],
            offset: usize,
            dim: usize,
            leaf_cap: usize,
            out: &mut Vec<(usize, usize)>,
        ) {
            if items.len() <= leaf_cap {
                out.push((offset, offset + items.len()));
                return;
            }
            if dim >= 3 {
                let mut at = 0usize;
                while at < items.len() {
                    let end = (at + leaf_cap).min(items.len());
                    out.push((offset + at, offset + end));
                    at = end;
                }
                return;
            }
            let center = |b: &Mbb| -> f64 {
                match dim {
                    0 => (b.x_min + b.x_max) / 2.0,
                    1 => (b.y_min + b.y_max) / 2.0,
                    _ => (b.t_min.as_secs_f64() + b.t_max.as_secs_f64()) / 2.0,
                }
            };
            items.sort_by(|a, b| {
                center(&a.0)
                    .partial_cmp(&center(&b.0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let leaves_needed = items.len().div_ceil(leaf_cap);
            let slabs = (leaves_needed as f64).powf(1.0 / (3 - dim) as f64).ceil() as usize;
            let slab_size = items.len().div_ceil(slabs.max(1));
            let mut at = 0usize;
            while at < items.len() {
                let end = (at + slab_size).min(items.len());
                tile(&mut items[at..end], offset + at, dim + 1, leaf_cap, out);
                at = end;
            }
        }

        let mut leaf_ranges: Vec<(usize, usize)> = Vec::new();
        tile(&mut items, 0, 0, NODE_CAP, &mut leaf_ranges);

        let n = items.len();
        let mut tree = PackedRTree {
            it: Vec::with_capacity(n),
            ixy: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            sx0: Vec::with_capacity(n),
            sx1: Vec::with_capacity(n),
            sy0: Vec::with_capacity(n),
            sy1: Vec::with_capacity(n),
            st0: Vec::with_capacity(n),
            st1: Vec::with_capacity(n),
            nt: Vec::new(),
            nxy: Vec::new(),
            nsx0: Vec::new(),
            nsx1: Vec::new(),
            nsy0: Vec::new(),
            nsy1: Vec::new(),
            nst0: Vec::new(),
            nst1: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            height: 1,
        };
        for (mbb, value) in items {
            tree.it.push([mbb.t_min.millis(), mbb.t_max.millis()]);
            tree.ixy.push([mbb.x_min, mbb.x_max, mbb.y_min, mbb.y_max]);
            tree.sx0.push(mbb.x_min);
            tree.sx1.push(mbb.x_max);
            tree.sy0.push(mbb.y_min);
            tree.sy1.push(mbb.y_max);
            tree.st0.push(t_down(mbb.t_min.millis()));
            tree.st1.push(t_up(mbb.t_max.millis()));
            tree.values.push(value);
        }

        // Leaf nodes: bounds of their item ranges.
        let mut level: Vec<usize> = Vec::with_capacity(leaf_ranges.len());
        for (start, end) in leaf_ranges {
            let idx = tree.push_node(NodeRef {
                start: start as u32,
                end: end as u32,
                leaf: true,
            });
            tree.set_node_bounds_from_items(idx, start, end);
            level.push(idx);
        }
        // Internal levels until one root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAP));
            for chunk in level.chunks(NODE_CAP) {
                let idx = tree.push_node(NodeRef {
                    start: chunk[0] as u32,
                    end: (chunk[chunk.len() - 1] + 1) as u32,
                    leaf: false,
                });
                tree.set_node_bounds_from_nodes(idx, chunk[0], chunk[chunk.len() - 1] + 1);
                next.push(idx);
            }
            level = next;
            tree.height += 1;
        }
        tree.root = level[0];
        tree.fill_node_slabs();
        tree
    }

    /// Transposes the node bounds into the SIMD child-scan lanes; called
    /// once after every node's bounds are final.
    fn fill_node_slabs(&mut self) {
        let n = self.nodes.len();
        self.nsx0 = Vec::with_capacity(n);
        self.nsx1 = Vec::with_capacity(n);
        self.nsy0 = Vec::with_capacity(n);
        self.nsy1 = Vec::with_capacity(n);
        self.nst0 = Vec::with_capacity(n);
        self.nst1 = Vec::with_capacity(n);
        for c in 0..n {
            let xy = self.nxy[c];
            let t = self.nt[c];
            self.nsx0.push(xy[0]);
            self.nsx1.push(xy[1]);
            self.nsy0.push(xy[2]);
            self.nsy1.push(xy[3]);
            self.nst0.push(t_down(t[0]));
            self.nst1.push(t_up(t[1]));
        }
    }

    fn push_node(&mut self, node: NodeRef) -> usize {
        self.nodes.push(node);
        self.nt.push([0, 0]);
        self.nxy.push([0.0; 4]);
        self.nodes.len() - 1
    }

    fn set_node_bounds_from_items(&mut self, node: usize, start: usize, end: usize) {
        let mut xy = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut t = [i64::MAX, i64::MIN];
        for i in start..end {
            xy[0] = xy[0].min(self.ixy[i][0]);
            xy[1] = xy[1].max(self.ixy[i][1]);
            xy[2] = xy[2].min(self.ixy[i][2]);
            xy[3] = xy[3].max(self.ixy[i][3]);
            t[0] = t[0].min(self.it[i][0]);
            t[1] = t[1].max(self.it[i][1]);
        }
        self.nxy[node] = xy;
        self.nt[node] = t;
    }

    fn set_node_bounds_from_nodes(&mut self, node: usize, start: usize, end: usize) {
        let mut xy = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut t = [i64::MAX, i64::MIN];
        for i in start..end {
            xy[0] = xy[0].min(self.nxy[i][0]);
            xy[1] = xy[1].max(self.nxy[i][1]);
            xy[2] = xy[2].min(self.nxy[i][2]);
            xy[3] = xy[3].max(self.nxy[i][3]);
            t[0] = t[0].min(self.nt[i][0]);
            t[1] = t[1].max(self.nt[i][1]);
        }
        self.nxy[node] = xy;
        self.nt[node] = t;
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Height of the packed tree (0 when empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.height
        }
    }

    /// Visits every item whose lifespan intersects `query`'s lifespan **and**
    /// whose minimum spatial (x/y) distance to `query` is at most `radius`.
    /// The visitor receives the item index plus the **squared spatial gap**
    /// between the item's box and the query box, so distance-kernel callers
    /// can use it as a free lower bound on the true distance.
    ///
    /// This is the candidate query of a distance-cutoff kernel (the S2T
    /// voting ball): it prunes strictly more than intersecting with the
    /// radius-inflated box — a per-axis inflate admits corner candidates up
    /// to `√2·radius` away, the Euclidean gap test here rejects them, at the
    /// node level as well as the item level. Allocation-free.
    ///
    /// Dispatches the leaf-level item scan to the widest SIMD width allowed
    /// by [`simd_level`] (`HERMES_SIMD` overrides, see `hermes-trajectory`).
    /// Every width visits **exactly the same items with bit-identical
    /// `gap2`** as the scalar scan: the packed lanes run the same
    /// correctly-rounded subtract/max/mul/add sequence elementwise, and the
    /// widened-`f64` temporal prefilter is outward-rounded (never rejects a
    /// true candidate) with survivors rechecked against the exact `i64`
    /// bounds.
    #[inline]
    pub fn for_each_ball_candidate_idx(
        &self,
        query: &Mbb,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        self.ball_candidates_at(simd_level(), query, radius, &mut visit);
    }

    /// [`PackedRTree::for_each_ball_candidate_idx`] pinned to the scalar
    /// item scan, independent of `HERMES_SIMD` and CPU features. Kept as the
    /// measured baseline for the SIMD scan and as an equality reference.
    #[inline]
    pub fn for_each_ball_candidate_idx_scalar(
        &self,
        query: &Mbb,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        self.ball_candidates_at(SimdLevel::Scalar, query, radius, &mut visit);
    }

    fn ball_candidates_at(
        &self,
        level: SimdLevel,
        query: &Mbb,
        radius: f64,
        visit: &mut impl FnMut(usize, f64),
    ) {
        if self.is_empty() {
            return;
        }
        let q = BallQuery {
            x0: query.x_min,
            x1: query.x_max,
            y0: query.y_min,
            y1: query.y_max,
            t0: query.t_min.millis(),
            t1: query.t_max.millis(),
            t0f: t_down(query.t_min.millis()),
            t1f: t_up(query.t_max.millis()),
            r2: radius * radius,
        };
        self.visit_ball(self.root, &q, level, visit);
    }

    fn visit_ball(
        &self,
        node: usize,
        q: &BallQuery,
        level: SimdLevel,
        visit: &mut impl FnMut(usize, f64),
    ) {
        let n = self.nodes[node];
        let (start, end) = (n.start as usize, n.end as usize);
        if n.leaf {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { self.scan_leaf_avx2(start, end, q, visit) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Sse2 => unsafe { self.scan_leaf_sse2(start, end, q, visit) },
                _ => self.scan_leaf_scalar(start, end, q, visit),
            }
        } else {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { self.scan_children_avx2(start, end, q, level, visit) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Sse2 => unsafe { self.scan_children_sse2(start, end, q, level, visit) },
                _ => self.scan_children_scalar(start, end, q, level, visit),
            }
        }
    }

    /// Scalar child scan of an internal node: the exact reference the SIMD
    /// variants must match — temporal test on the exact `i64` bounds, then
    /// `axis_gap` vs the ball.
    fn scan_children_scalar(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        level: SimdLevel,
        visit: &mut impl FnMut(usize, f64),
    ) {
        for c in start..end {
            let t = self.nt[c];
            if q.t0 <= t[1] && t[0] <= q.t1 {
                let xy = self.nxy[c];
                let gx = axis_gap(xy[0], xy[1], q.x0, q.x1);
                let gy = axis_gap(xy[2], xy[3], q.y0, q.y1);
                if gx * gx + gy * gy <= q.r2 {
                    self.visit_ball(c, q, level, visit);
                }
            }
        }
    }

    /// AVX2 child scan: four children per iteration over the transposed
    /// node-bound lanes, exactly as [`scan_leaf_avx2`](Self::scan_leaf_avx2)
    /// scans items — outward-rounded temporal prefilter, branchless
    /// `axis_gap` (bit-identical to the scalar three-case form), exact `i64`
    /// recheck on passing lanes before descending. Children are descended in
    /// ascending id order, so the item visit order is exactly the scalar
    /// traversal's.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by dispatching on [`simd_level`], which
    /// clamps to runtime-detected features).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_children_avx2(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        level: SimdLevel,
        visit: &mut impl FnMut(usize, f64),
    ) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_pd();
        let qx0 = _mm256_set1_pd(q.x0);
        let qx1 = _mm256_set1_pd(q.x1);
        let qy0 = _mm256_set1_pd(q.y0);
        let qy1 = _mm256_set1_pd(q.y1);
        let qt0 = _mm256_set1_pd(q.t0f);
        let qt1 = _mm256_set1_pd(q.t1f);
        let r2 = _mm256_set1_pd(q.r2);
        let mut c = start;
        while c + 4 <= end {
            let t_lo = _mm256_loadu_pd(self.nst0.as_ptr().add(c));
            let t_hi = _mm256_loadu_pd(self.nst1.as_ptr().add(c));
            let t_pass = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(qt0, t_hi),
                _mm256_cmp_pd::<_CMP_LE_OQ>(t_lo, qt1),
            );
            let x_lo = _mm256_loadu_pd(self.nsx0.as_ptr().add(c));
            let x_hi = _mm256_loadu_pd(self.nsx1.as_ptr().add(c));
            let y_lo = _mm256_loadu_pd(self.nsy0.as_ptr().add(c));
            let y_hi = _mm256_loadu_pd(self.nsy1.as_ptr().add(c));
            let gx = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qx0, x_hi), _mm256_sub_pd(x_lo, qx1)),
                zero,
            );
            let gy = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qy0, y_hi), _mm256_sub_pd(y_lo, qy1)),
                zero,
            );
            let gap2 = _mm256_add_pd(_mm256_mul_pd(gx, gx), _mm256_mul_pd(gy, gy));
            let pass = _mm256_and_pd(t_pass, _mm256_cmp_pd::<_CMP_LE_OQ>(gap2, r2));
            let mut mask = _mm256_movemask_pd(pass) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let child = c + lane;
                let t = self.nt[child];
                if q.t0 <= t[1] && t[0] <= q.t1 {
                    self.visit_ball(child, q, level, visit);
                }
            }
            c += 4;
        }
        self.scan_children_scalar(c, end, q, level, visit);
    }

    /// SSE2 child scan: two children per iteration, same contract as
    /// [`scan_children_avx2`](Self::scan_children_avx2).
    ///
    /// # Safety
    ///
    /// SSE2 is part of the x86_64 baseline; kept `unsafe` for symmetry with
    /// the dispatch.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn scan_children_sse2(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        level: SimdLevel,
        visit: &mut impl FnMut(usize, f64),
    ) {
        use std::arch::x86_64::*;
        let zero = _mm_setzero_pd();
        let qx0 = _mm_set1_pd(q.x0);
        let qx1 = _mm_set1_pd(q.x1);
        let qy0 = _mm_set1_pd(q.y0);
        let qy1 = _mm_set1_pd(q.y1);
        let qt0 = _mm_set1_pd(q.t0f);
        let qt1 = _mm_set1_pd(q.t1f);
        let r2 = _mm_set1_pd(q.r2);
        let mut c = start;
        while c + 2 <= end {
            let t_lo = _mm_loadu_pd(self.nst0.as_ptr().add(c));
            let t_hi = _mm_loadu_pd(self.nst1.as_ptr().add(c));
            let t_pass = _mm_and_pd(_mm_cmple_pd(qt0, t_hi), _mm_cmple_pd(t_lo, qt1));
            let x_lo = _mm_loadu_pd(self.nsx0.as_ptr().add(c));
            let x_hi = _mm_loadu_pd(self.nsx1.as_ptr().add(c));
            let y_lo = _mm_loadu_pd(self.nsy0.as_ptr().add(c));
            let y_hi = _mm_loadu_pd(self.nsy1.as_ptr().add(c));
            let gx = _mm_max_pd(
                _mm_max_pd(_mm_sub_pd(qx0, x_hi), _mm_sub_pd(x_lo, qx1)),
                zero,
            );
            let gy = _mm_max_pd(
                _mm_max_pd(_mm_sub_pd(qy0, y_hi), _mm_sub_pd(y_lo, qy1)),
                zero,
            );
            let gap2 = _mm_add_pd(_mm_mul_pd(gx, gx), _mm_mul_pd(gy, gy));
            let pass = _mm_and_pd(t_pass, _mm_cmple_pd(gap2, r2));
            let mut mask = _mm_movemask_pd(pass) as u32;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let child = c + lane;
                let t = self.nt[child];
                if q.t0 <= t[1] && t[0] <= q.t1 {
                    self.visit_ball(child, q, level, visit);
                }
            }
            c += 2;
        }
        self.scan_children_scalar(c, end, q, level, visit);
    }

    fn scan_leaf_scalar(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        visit: &mut impl FnMut(usize, f64),
    ) {
        for i in start..end {
            let t = self.it[i];
            if q.t0 <= t[1] && t[0] <= q.t1 {
                let xy = self.ixy[i];
                let gx = axis_gap(xy[0], xy[1], q.x0, q.x1);
                let gy = axis_gap(xy[2], xy[3], q.y0, q.y1);
                let gap2 = gx * gx + gy * gy;
                if gap2 <= q.r2 {
                    visit(i, gap2);
                }
            }
        }
    }

    /// AVX2 leaf scan: four items per iteration over the transposed bound
    /// lanes. Per lane it emits the exact statement sequence of
    /// [`scan_leaf_scalar`](Self::scan_leaf_scalar) — `axis_gap`'s
    /// subtract/max chain, then `gx·gx + gy·gy` — with correctly-rounded
    /// packed ops, so surviving lanes carry bit-identical `gap2`. The packed
    /// temporal test uses the outward-rounded `f64` lanes (a superset
    /// filter); each passing lane is rechecked against the exact `i64`
    /// bounds before `visit`, so the visited set is exactly the scalar one.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by dispatching on [`simd_level`], which
    /// clamps to runtime-detected features).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_leaf_avx2(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        visit: &mut impl FnMut(usize, f64),
    ) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_pd();
        let qx0 = _mm256_set1_pd(q.x0);
        let qx1 = _mm256_set1_pd(q.x1);
        let qy0 = _mm256_set1_pd(q.y0);
        let qy1 = _mm256_set1_pd(q.y1);
        let qt0 = _mm256_set1_pd(q.t0f);
        let qt1 = _mm256_set1_pd(q.t1f);
        let r2 = _mm256_set1_pd(q.r2);
        let mut i = start;
        while i + 4 <= end {
            let t_lo = _mm256_loadu_pd(self.st0.as_ptr().add(i));
            let t_hi = _mm256_loadu_pd(self.st1.as_ptr().add(i));
            // qt0 <= t_hi && t_lo <= qt1 (outward-rounded, so never a false
            // reject; false admits are caught by the exact recheck below).
            let t_pass = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LE_OQ>(qt0, t_hi),
                _mm256_cmp_pd::<_CMP_LE_OQ>(t_lo, qt1),
            );
            let x_lo = _mm256_loadu_pd(self.sx0.as_ptr().add(i));
            let x_hi = _mm256_loadu_pd(self.sx1.as_ptr().add(i));
            let y_lo = _mm256_loadu_pd(self.sy0.as_ptr().add(i));
            let y_hi = _mm256_loadu_pd(self.sy1.as_ptr().add(i));
            let gx = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qx0, x_hi), _mm256_sub_pd(x_lo, qx1)),
                zero,
            );
            let gy = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qy0, y_hi), _mm256_sub_pd(y_lo, qy1)),
                zero,
            );
            let gap2 = _mm256_add_pd(_mm256_mul_pd(gx, gx), _mm256_mul_pd(gy, gy));
            let pass = _mm256_and_pd(t_pass, _mm256_cmp_pd::<_CMP_LE_OQ>(gap2, r2));
            let mut mask = _mm256_movemask_pd(pass) as u32;
            if mask != 0 {
                let mut g = [0.0f64; 4];
                _mm256_storeu_pd(g.as_mut_ptr(), gap2);
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let idx = i + lane;
                    let t = self.it[idx];
                    if q.t0 <= t[1] && t[0] <= q.t1 {
                        visit(idx, g[lane]);
                    }
                }
            }
            i += 4;
        }
        self.scan_leaf_scalar(i, end, q, visit);
    }

    /// SSE2 leaf scan: two items per iteration, same statement sequence and
    /// exactness contract as [`scan_leaf_avx2`](Self::scan_leaf_avx2).
    ///
    /// # Safety
    ///
    /// Requires SSE2 (always present on `x86_64`; kept `unsafe` for
    /// symmetry with the dispatch).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn scan_leaf_sse2(
        &self,
        start: usize,
        end: usize,
        q: &BallQuery,
        visit: &mut impl FnMut(usize, f64),
    ) {
        use std::arch::x86_64::*;
        let zero = _mm_setzero_pd();
        let qx0 = _mm_set1_pd(q.x0);
        let qx1 = _mm_set1_pd(q.x1);
        let qy0 = _mm_set1_pd(q.y0);
        let qy1 = _mm_set1_pd(q.y1);
        let qt0 = _mm_set1_pd(q.t0f);
        let qt1 = _mm_set1_pd(q.t1f);
        let r2 = _mm_set1_pd(q.r2);
        let mut i = start;
        while i + 2 <= end {
            let t_lo = _mm_loadu_pd(self.st0.as_ptr().add(i));
            let t_hi = _mm_loadu_pd(self.st1.as_ptr().add(i));
            let t_pass = _mm_and_pd(_mm_cmple_pd(qt0, t_hi), _mm_cmple_pd(t_lo, qt1));
            let x_lo = _mm_loadu_pd(self.sx0.as_ptr().add(i));
            let x_hi = _mm_loadu_pd(self.sx1.as_ptr().add(i));
            let y_lo = _mm_loadu_pd(self.sy0.as_ptr().add(i));
            let y_hi = _mm_loadu_pd(self.sy1.as_ptr().add(i));
            let gx = _mm_max_pd(
                _mm_max_pd(_mm_sub_pd(qx0, x_hi), _mm_sub_pd(x_lo, qx1)),
                zero,
            );
            let gy = _mm_max_pd(
                _mm_max_pd(_mm_sub_pd(qy0, y_hi), _mm_sub_pd(y_lo, qy1)),
                zero,
            );
            let gap2 = _mm_add_pd(_mm_mul_pd(gx, gx), _mm_mul_pd(gy, gy));
            let pass = _mm_and_pd(t_pass, _mm_cmple_pd(gap2, r2));
            let mut mask = _mm_movemask_pd(pass) as u32;
            if mask != 0 {
                let mut g = [0.0f64; 2];
                _mm_storeu_pd(g.as_mut_ptr(), gap2);
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let idx = i + lane;
                    let t = self.it[idx];
                    if q.t0 <= t[1] && t[0] <= q.t1 {
                        visit(idx, g[lane]);
                    }
                }
            }
            i += 2;
        }
        self.scan_leaf_scalar(i, end, q, visit);
    }

    /// The value stored at item index `i` (STR-tile order).
    #[inline]
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// The box of item `i`, reassembled from the slabs.
    pub fn item_mbb(&self, i: usize) -> Mbb {
        let xy = self.ixy[i];
        Mbb::new(
            xy[0],
            xy[1],
            xy[2],
            xy[3],
            Timestamp(self.it[i][0]),
            Timestamp(self.it[i][1]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxy(x0: f64, x1: f64, y0: f64, y1: f64, t0: i64, t1: i64) -> Mbb {
        Mbb::new(x0, x1, y0, y1, Timestamp(t0), Timestamp(t1))
    }

    /// A deterministic pseudo-random box cloud (SplitMix64-style mixing so
    /// the shape is irregular without a datagen dependency).
    fn cloud(n: usize, seed: u64) -> Vec<(Mbb, usize)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        (0..n)
            .map(|i| {
                let x = next() * 1_000.0;
                let y = next() * 1_000.0;
                let t = (next() * 1_000_000.0) as i64;
                let w = next() * 30.0;
                let h = next() * 30.0;
                let d = (next() * 30_000.0) as i64;
                (boxy(x, x + w, y, y + h, t, t + d), i)
            })
            .collect()
    }

    /// Every item the ball query visits, by value, sorted.
    fn ball(packed: &PackedRTree<usize>, q: &Mbb, radius: f64) -> Vec<usize> {
        let mut got = Vec::new();
        packed.for_each_ball_candidate_idx(q, radius, |i, _| got.push(*packed.value(i)));
        got.sort_unstable();
        got
    }

    #[test]
    fn brute_force_agreement_on_small_sets() {
        // A ball of radius 0 is the closed box: intersection, brute force.
        for n in [0usize, 1, 2, 15, 16, 17, 100] {
            let items = cloud(n, n as u64 + 7);
            let packed = PackedRTree::bulk_load(items.clone());
            assert_eq!(packed.len(), n);
            let q = boxy(100.0, 600.0, 100.0, 600.0, 100_000, 600_000);
            let want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(ball(&packed, &q, 0.0), want, "n = {n}");
        }
    }

    #[test]
    fn empty_query_box_matches_nothing() {
        let packed = PackedRTree::bulk_load(cloud(64, 3));
        assert!(ball(&packed, &Mbb::empty(), 1e9).is_empty());
        let empty: PackedRTree<usize> = PackedRTree::bulk_load(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 0);
        assert!(ball(&empty, &boxy(0.0, 1.0, 0.0, 1.0, 0, 1), 1e9).is_empty());
    }

    #[test]
    fn ball_candidates_match_brute_force_gap_test() {
        fn gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
            if a_max < b_min {
                b_min - a_max
            } else if b_max < a_min {
                a_min - b_max
            } else {
                0.0
            }
        }
        let items = cloud(400, 0xBA11);
        let packed = PackedRTree::bulk_load(items.clone());
        let q = boxy(300.0, 360.0, 300.0, 360.0, 200_000, 500_000);
        for radius in [0.0, 25.0, 120.0, 2_000.0] {
            let mut got: Vec<usize> = Vec::new();
            packed.for_each_ball_candidate_idx(&q, radius, |i, gap2| {
                assert!(gap2 >= 0.0 && gap2 <= radius * radius + 1e-9);
                got.push(*packed.value(i));
            });
            got.sort_unstable();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| {
                    let temporal = q.t_min <= b.t_max && b.t_min <= q.t_max;
                    let gx = gap(b.x_min, b.x_max, q.x_min, q.x_max);
                    let gy = gap(b.y_min, b.y_max, q.y_min, q.y_max);
                    temporal && gx * gx + gy * gy <= radius * radius
                })
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
            // And every ball candidate intersects the radius-inflated box.
            let inflated = q.inflate(radius, 0);
            for &v in &got {
                assert!(items[v].0.intersects(&inflated));
            }
        }
    }

    /// Every SIMD width of the ball scan must visit exactly the scalar
    /// item set, in the same order, with bit-identical `gap2` — the
    /// traversal-level half of the voting hot path's exactness contract.
    #[test]
    fn ball_scan_widths_are_bit_identical_to_scalar() {
        use hermes_trajectory::SimdLevel;
        let items = cloud(500, 0x51_5D);
        let packed = PackedRTree::bulk_load(items);
        let queries = [
            boxy(300.0, 360.0, 300.0, 360.0, 200_000, 500_000),
            boxy(0.0, 80.0, 900.0, 1_000.0, 0, 80_000),
            boxy(450.0, 460.0, 450.0, 460.0, 400_000, 410_000),
        ];
        for q in &queries {
            for radius in [0.0, 25.0, 120.0, 2_000.0] {
                let mut reference: Vec<(usize, u64)> = Vec::new();
                packed.for_each_ball_candidate_idx_scalar(q, radius, |i, gap2| {
                    reference.push((i, gap2.to_bits()));
                });
                for level in [SimdLevel::Sse2, SimdLevel::Avx2] {
                    if level > hermes_trajectory::kernel::best_supported() {
                        continue;
                    }
                    let mut got: Vec<(usize, u64)> = Vec::new();
                    packed.ball_candidates_at(level, q, radius, &mut |i, gap2| {
                        got.push((i, gap2.to_bits()));
                    });
                    assert_eq!(got, reference, "{level:?} radius {radius}");
                }
            }
        }
        // The auto entry dispatches somewhere in the same equality class.
        let mut auto_set: Vec<(usize, u64)> = Vec::new();
        packed.for_each_ball_candidate_idx(&queries[0], 120.0, |i, gap2| {
            auto_set.push((i, gap2.to_bits()));
        });
        let mut scalar_set: Vec<(usize, u64)> = Vec::new();
        packed.for_each_ball_candidate_idx_scalar(&queries[0], 120.0, |i, gap2| {
            scalar_set.push((i, gap2.to_bits()));
        });
        assert_eq!(auto_set, scalar_set);
    }
}
