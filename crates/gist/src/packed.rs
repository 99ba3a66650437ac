//! A static 3D R-tree packed into flat arrays.
//!
//! [`PackedRTree`] is bulk-loaded once with Sort-Tile-Recursive packing and
//! laid out as flat slabs of box bounds: the items in STR-tile order, then
//! the nodes level by level, each node addressing its children as a
//! `[start, end)` range of the same slabs — so a query is a walk over
//! contiguous `i64`/`f64` bounds with **zero heap allocation** (traversal
//! recurses to the tree height, which is logarithmic in the item count).
//!
//! It has one query, the ball-candidate query of a distance-cutoff kernel,
//! and one way to answer it: a scalar descent. It was the S2T voting index
//! until `hermes-s2t` replaced the descent with a time-ordered scan; it
//! survives as that scan's reference in tests and as what the frozen
//! end-to-end benchmark's `gist.probe_*` metrics time. It supports no
//! insertion or deletion.

use hermes_trajectory::{axis_gap, Mbb};

/// Node fanout of the packed tree.
const NODE_CAP: usize = 16;

/// A static 3D R-tree over values of type `V`, keyed by spatio-temporal
/// boxes, stored as flat parallel arrays.
///
/// Box `b` is `(t[b], xy[b])`. Boxes `0..len()` are the items (`values[b]`
/// is keyed by box `b`); the nodes follow, leaves first and the root last,
/// and node box `b` covers the boxes `children[b - len()]`. Bounds are
/// blocked by axis kind: the temporal bounds of a box are one
/// `[t_min, t_max]` pair (a single 16-byte read) and the spatial bounds one
/// `[x_min, x_max, y_min, y_max]` block. The traversal tests time first — on
/// trajectory workloads it is the most selective axis — so the common
/// rejected candidate touches one cache line.
#[derive(Clone)]
pub struct PackedRTree<V> {
    t: Vec<[i64; 2]>,
    xy: Vec<[f64; 4]>,
    children: Vec<(u32, u32)>,
    values: Vec<V>,
}

impl<V> PackedRTree<V> {
    /// Bulk-loads the tree with Sort-Tile-Recursive packing over the box
    /// centers (x, then y, then t), flattened into the blocked slabs. With
    /// no items the tree is one empty leaf, and every query a no-op.
    pub fn bulk_load(mut items: Vec<(Mbb, V)>) -> Self {
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

        let mut level: Vec<(usize, usize)> = Vec::new();
        tile(&mut items, 0, 0, NODE_CAP, &mut level);

        let n = items.len();
        let mut tree = PackedRTree {
            t: Vec::with_capacity(n + level.len()),
            xy: Vec::with_capacity(n + level.len()),
            children: Vec::new(),
            values: Vec::with_capacity(n),
        };
        for (mbb, value) in items {
            tree.t.push([mbb.t_min.millis(), mbb.t_max.millis()]);
            tree.xy.push([mbb.x_min, mbb.x_max, mbb.y_min, mbb.y_max]);
            tree.values.push(value);
        }
        // One node per range, level by level, until one root remains.
        loop {
            let first = tree.t.len();
            for &(start, end) in &level {
                tree.push_node(start, end);
            }
            let last = tree.t.len();
            if last - first == 1 {
                return tree;
            }
            level = (first..last)
                .step_by(NODE_CAP)
                .map(|start| (start, (start + NODE_CAP).min(last)))
                .collect();
        }
    }

    /// Appends the node covering boxes `start..end`.
    fn push_node(&mut self, start: usize, end: usize) {
        let mut xy = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut t = [i64::MAX, i64::MIN];
        for b in start..end {
            xy[0] = xy[0].min(self.xy[b][0]);
            xy[1] = xy[1].max(self.xy[b][1]);
            xy[2] = xy[2].min(self.xy[b][2]);
            xy[3] = xy[3].max(self.xy[b][3]);
            t[0] = t[0].min(self.t[b][0]);
            t[1] = t[1].max(self.t[b][1]);
        }
        self.t.push(t);
        self.xy.push(xy);
        self.children.push((start as u32, end as u32));
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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
    /// node level as well as the item level. Every node's children are
    /// tested in ascending box order against the exact `i64` lifespans and
    /// [`axis_gap`], so the visit order and the `gap2` bits are a pure
    /// function of the items. Allocation-free.
    pub fn for_each_ball_candidate_idx(
        &self,
        query: &Mbb,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        self.visit_ball(self.t.len() - 1, query, radius * radius, &mut visit);
    }

    fn visit_ball(&self, node: usize, q: &Mbb, r2: f64, visit: &mut impl FnMut(usize, f64)) {
        let (start, end) = self.children[node - self.values.len()];
        for b in start as usize..end as usize {
            let t = self.t[b];
            if q.t_min.millis() <= t[1] && t[0] <= q.t_max.millis() {
                let xy = self.xy[b];
                let gx = axis_gap(xy[0], xy[1], q.x_min, q.x_max);
                let gy = axis_gap(xy[2], xy[3], q.y_min, q.y_max);
                let gap2 = gx * gx + gy * gy;
                if gap2 <= r2 {
                    if b < self.values.len() {
                        visit(b, gap2);
                    } else {
                        self.visit_ball(b, q, r2, visit);
                    }
                }
            }
        }
    }

    /// The value stored at item index `i` (STR-tile order).
    #[inline]
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::Timestamp;

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
        }
    }
}
