//! The candidate stage of voting: a time-ordered flat scan.
//!
//! A mean *synchronized* distance only exists on a common lifespan, so the
//! one test every candidate of a query run must pass is temporal overlap —
//! and on trajectory data that test is far more selective than any spatial
//! one: a run of four segments spans tens of seconds of a dataset that spans
//! hours. [`TimeOrderedLanes`] therefore keeps the candidate boxes sorted by
//! start time and answers a window query with two binary searches and one
//! linear scan:
//!
//! * rows are in ascending `t0`, so everything from the first row with
//!   `t0 > window.t1` on starts too late;
//! * a prefix running maximum of `t1` is non-decreasing, so everything
//!   before the first row whose running maximum reaches `window.t0` ended
//!   too early — whatever the longest segment is (one day-long segment makes
//!   the scan longer, never wrong);
//! * the rows in between are tested four at a time (AVX2) or one at a time
//!   (the scalar reference) against the window: lifespan still alive at
//!   `window.t0`, and squared [`axis_gap`] to the window box within the ball.
//!
//! What is emitted is **exactly** the set the ball-candidate query of
//! `hermes_gist::PackedRTree` emits over the same boxes — exact `i64`
//! lifespan overlap and `gap² ≤ radius²`, with the same `gap²` bits at both
//! levels (both run the branchless max-form statement sequence
//! of `hermes_trajectory::axis_gap`, the one box gap the tree's scalar
//! descent calls too; the `f64` time prefilter is outward-rounded and every
//! survivor is rechecked against its exact `i64` lifespan) — in ascending
//! row order instead of STR tile order.
//!
//! The scan is two loops per [`BLOCK`] of rows, not one: a **filter** that
//! records which rows passed without branching on the outcome (where every
//! vehicle is alive at once a window passes one row in ten, in no pattern a
//! branch predictor can learn), then an **emit** loop over the survivors.
//! `docs/KERNELS.md` has the measurements.

use hermes_trajectory::{axis_gap, kernel::best_supported, t_down, t_up, Mbb, SimdLevel};

/// Rows filtered per emit loop. The survivor offsets are `u8`s and the
/// filter packs four of them into one `u32` add, so it must stay below 253.
const BLOCK: usize = 64;

/// Candidate boxes in ascending start time, one transposed lane per bound so
/// the scan reads each with packed loads. Every lane has the same length:
/// the fields are private and [`TimeOrderedLanes::push`] is the only writer.
pub(crate) struct TimeOrderedLanes {
    /// Exact start times, ascending — the upper end of a scan.
    t0: Vec<i64>,
    /// Exact end times — the recheck behind the `f64` prefilter.
    t1: Vec<i64>,
    /// `max(t1[..=i])` — non-decreasing, the lower end of a scan.
    t1_run_max: Vec<i64>,
    /// `t1` widened to `f64` rounded up: a prefilter that can admit a row
    /// that ended one ulp early, never reject one that is alive.
    st1: Vec<f64>,
    sx0: Vec<f64>,
    sx1: Vec<f64>,
    sy0: Vec<f64>,
    sy1: Vec<f64>,
}

/// One window query, prepared once per scan.
struct Window {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    /// Exact window start, and the same rounded down for the prefilter.
    t0: i64,
    t0f: f64,
    r2: f64,
}

/// What the filter of one block leaves for its emit loop.
struct Survivors {
    /// Block-relative offsets of the rows that passed, ascending, in
    /// `offsets[..n]` (`n` is the filter's return value). Four bytes longer
    /// than a block: the packed filter stores four offsets at a time.
    offsets: [u8; BLOCK + 4],
    /// `gap²` of every row of the block, passed or not, by offset.
    gap2: [f64; BLOCK],
}

/// `COMPACT[mask]` holds, in its low bytes, the lane numbers of the set bits
/// of the four-bit `mask` in ascending order — adding a block offset to each
/// byte turns a `movemask` into survivor offsets without a branch.
const COMPACT: [u32; 16] = {
    let mut table = [0u32; 16];
    let mut mask = 0;
    while mask < 16 {
        let (mut packed, mut at, mut lane) = (0u32, 0, 0);
        while lane < 4 {
            if mask & (1 << lane) != 0 {
                packed |= lane << (8 * at);
                at += 1;
            }
            lane += 1;
        }
        table[mask] = packed;
        mask += 1;
    }
    table
};

impl Survivors {
    /// Appends the lanes set in `mask` (of the vector starting at block
    /// offset `at`) to the `n` offsets already recorded; returns the new `n`.
    #[inline(always)]
    fn record(&mut self, n: usize, at: usize, mask: usize) -> usize {
        let packed = COMPACT[mask] + (at as u32) * 0x0101_0101;
        self.offsets[n..n + 4].copy_from_slice(&packed.to_le_bytes());
        n + mask.count_ones() as usize
    }
}

impl TimeOrderedLanes {
    pub(crate) fn with_capacity(n: usize) -> Self {
        TimeOrderedLanes {
            t0: Vec::with_capacity(n),
            t1: Vec::with_capacity(n),
            t1_run_max: Vec::with_capacity(n),
            st1: Vec::with_capacity(n),
            sx0: Vec::with_capacity(n),
            sx1: Vec::with_capacity(n),
            sy0: Vec::with_capacity(n),
            sy1: Vec::with_capacity(n),
        }
    }

    /// Appends one box (`xy = [x_min, x_max, y_min, y_max]`). Rows must
    /// arrive in ascending `t0`: both binary searches depend on it.
    pub(crate) fn push(&mut self, t0: i64, t1: i64, xy: [f64; 4]) {
        assert!(
            self.t0.last().is_none_or(|&last| last <= t0),
            "time-ordered rows must be pushed in ascending t0"
        );
        let run_max = self.t1_run_max.last().map_or(t1, |&m| m.max(t1));
        self.t0.push(t0);
        self.t1.push(t1);
        self.t1_run_max.push(run_max);
        self.st1.push(t_up(t1));
        self.sx0.push(xy[0]);
        self.sx1.push(xy[1]);
        self.sy0.push(xy[2]);
        self.sy1.push(xy[3]);
    }

    /// The rows whose lifespan can intersect `[t0, t1]`: every row outside
    /// the range provably does not, rows inside it still need the `t1` test.
    fn overlap_range(&self, t0: i64, t1: i64) -> (usize, usize) {
        let hi = self.t0.partition_point(|&start| start <= t1);
        let lo = self.t1_run_max.partition_point(|&end| end < t0);
        (lo.min(hi), hi)
    }

    /// Visits every row whose lifespan intersects `window`'s **and** whose
    /// box is within `radius` of `window`'s in the x/y plane, in ascending
    /// row order, with the squared spatial gap — a free lower bound on any
    /// distance to a point inside the window. Allocation-free; the visited
    /// rows and their `gap²` bits are the same at every `level` (which is
    /// clamped to what the CPU supports).
    #[inline]
    pub(crate) fn for_each_candidate(
        &self,
        level: SimdLevel,
        window: &Mbb,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        let (lo, hi) = self.overlap_range(window.t_min.millis(), window.t_max.millis());
        let q = Window {
            x0: window.x_min,
            x1: window.x_max,
            y0: window.y_min,
            y1: window.y_max,
            t0: window.t_min.millis(),
            t0f: t_down(window.t_min.millis()),
            r2: radius * radius,
        };
        let mut survivors = Survivors {
            offsets: [0; BLOCK + 4],
            gap2: [0.0; BLOCK],
        };
        // A cap, never a grant: whatever the caller asks for, no filter runs
        // that the CPU underneath cannot.
        let level = level.min(best_supported());
        let mut start = lo;
        while start < hi {
            let end = (start + BLOCK).min(hi);
            let n = match level {
                // SAFETY: `best_supported` reports `Avx2` only after
                // `is_x86_feature_detected!("avx2")` succeeded, and `level`
                // was clamped to it above.
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { self.filter_avx2(start, end, &q, &mut survivors) },
                _ => self.filter_scalar(start, end, &q, 0, 0, &mut survivors),
            };
            let passed = &survivors.offsets[..n];
            for &offset in passed {
                let row = start + offset as usize;
                // The filters test time on the rounded-up `st1`; only the
                // exact end time decides.
                if q.t0 <= self.t1[row] {
                    visit(row, survivors.gap2[offset as usize]);
                }
            }
            start = end;
        }
    }

    /// Filters rows `start + at .. end` of the block that begins at `start`,
    /// appending to the `n` survivors already recorded: the reference the
    /// packed filter must match row for row and bit for bit, and its
    /// remainder tail. Rows of a scan range start no later than the window
    /// ends (that is what the range's upper end means), so the lifespans
    /// overlap exactly when the row is still alive at the window's start.
    fn filter_scalar(
        &self,
        start: usize,
        end: usize,
        q: &Window,
        mut at: usize,
        mut n: usize,
        out: &mut Survivors,
    ) -> usize {
        while start + at < end {
            let i = start + at;
            let gx = axis_gap(self.sx0[i], self.sx1[i], q.x0, q.x1);
            let gy = axis_gap(self.sy0[i], self.sy1[i], q.y0, q.y1);
            let gap2 = gx * gx + gy * gy;
            out.gap2[at] = gap2;
            out.offsets[n] = at as u8;
            n += (q.t0f <= self.st1[i] && gap2 <= q.r2) as usize;
            at += 1;
        }
        n
    }

    /// Four rows per iteration: per lane the statement sequence of
    /// [`filter_scalar`](Self::filter_scalar) — `axis_gap`'s subtract/max
    /// chain, then `gx·gx + gy·gy` — in correctly-rounded packed operations,
    /// so every lane carries the scalar `gap²` bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn filter_avx2(&self, start: usize, end: usize, q: &Window, out: &mut Survivors) -> usize {
        use std::arch::x86_64::*;

        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(lane: &[f64], at: usize) -> __m256d {
            let four: &[f64; 4] = lane[at..]
                .first_chunk()
                .expect("four rows left in the lane");
            // SAFETY: `four` borrows four contiguous `f64`s — the 32 bytes
            // the load reads — and `loadu` has no alignment requirement.
            unsafe { _mm256_loadu_pd(four.as_ptr()) }
        }

        let (st1, sx0, sx1, sy0, sy1) = (
            &self.st1[start..end],
            &self.sx0[start..end],
            &self.sx1[start..end],
            &self.sy0[start..end],
            &self.sy1[start..end],
        );
        let zero = _mm256_setzero_pd();
        let qx0 = _mm256_set1_pd(q.x0);
        let qx1 = _mm256_set1_pd(q.x1);
        let qy0 = _mm256_set1_pd(q.y0);
        let qy1 = _mm256_set1_pd(q.y1);
        let qt0 = _mm256_set1_pd(q.t0f);
        let r2 = _mm256_set1_pd(q.r2);
        let (mut at, mut n) = (0usize, 0usize);
        while at + 4 <= end - start {
            let alive = _mm256_cmp_pd::<_CMP_LE_OQ>(qt0, load(st1, at));
            let (x_lo, x_hi) = (load(sx0, at), load(sx1, at));
            let (y_lo, y_hi) = (load(sy0, at), load(sy1, at));
            let gx = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qx0, x_hi), _mm256_sub_pd(x_lo, qx1)),
                zero,
            );
            let gy = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(qy0, y_hi), _mm256_sub_pd(y_lo, qy1)),
                zero,
            );
            let gap2 = _mm256_add_pd(_mm256_mul_pd(gx, gx), _mm256_mul_pd(gy, gy));
            let pass = _mm256_and_pd(alive, _mm256_cmp_pd::<_CMP_LE_OQ>(gap2, r2));
            let four: &mut [f64; 4] = out.gap2[at..]
                .first_chunk_mut()
                .expect("a block holds whole vectors");
            // SAFETY: `four` borrows four contiguous writable `f64`s — the
            // 32 bytes the store writes; `storeu` needs no alignment.
            unsafe { _mm256_storeu_pd(four.as_mut_ptr(), gap2) };
            n = out.record(n, at, _mm256_movemask_pd(pass) as usize);
            at += 4;
        }
        self.filter_scalar(start, end, q, at, n, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trajectory::Timestamp;

    const LEVELS: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

    /// SplitMix64: irregular boxes without a datagen dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    type Row = (i64, i64, [f64; 4]);

    /// `n` boxes in a 1 000 × 1 000 square over `span` ms, durations up to
    /// `max_dur` ms (zero included), sorted by start time.
    fn cloud(n: usize, seed: u64, span: i64, max_dur: i64) -> Vec<Row> {
        let mut rng = Rng(seed);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| {
                let (x, y) = (rng.unit() * 1_000.0, rng.unit() * 1_000.0);
                let (w, h) = (rng.unit() * 30.0, rng.unit() * 30.0);
                let t0 = (rng.unit() * span as f64) as i64;
                let dur = (rng.unit() * (max_dur + 1) as f64) as i64;
                (t0, t0 + dur, [x, x + w, y, y + h])
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    fn lanes_of(rows: &[Row]) -> TimeOrderedLanes {
        let mut lanes = TimeOrderedLanes::with_capacity(rows.len());
        for &(t0, t1, xy) in rows {
            lanes.push(t0, t1, xy);
        }
        lanes
    }

    fn window(xy: [f64; 4], t0: i64, t1: i64) -> Mbb {
        Mbb::new(xy[0], xy[1], xy[2], xy[3], Timestamp(t0), Timestamp(t1))
    }

    /// The definition, written the slow way: exact lifespan overlap and the
    /// three-case gap.
    fn brute_force(rows: &[Row], w: &Mbb, radius: f64) -> Vec<(usize, u64)> {
        fn gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
            if a_max < b_min {
                b_min - a_max
            } else if b_max < a_min {
                a_min - b_max
            } else {
                0.0
            }
        }
        rows.iter()
            .enumerate()
            .filter_map(|(i, &(t0, t1, xy))| {
                let overlaps = w.t_min.millis() <= t1 && t0 <= w.t_max.millis();
                let gx = gap(xy[0], xy[1], w.x_min, w.x_max);
                let gy = gap(xy[2], xy[3], w.y_min, w.y_max);
                let gap2 = gx * gx + gy * gy;
                (overlaps && gap2 <= radius * radius).then_some((i, gap2.to_bits()))
            })
            .collect()
    }

    fn scan(lanes: &TimeOrderedLanes, level: SimdLevel, w: &Mbb, radius: f64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        lanes.for_each_candidate(level, w, radius, |row, gap2| {
            out.push((row, gap2.to_bits()))
        });
        out
    }

    #[test]
    fn compact_table_lists_set_lanes_in_ascending_order() {
        for (mask, packed) in COMPACT.iter().enumerate() {
            let want: Vec<u8> = (0..4u8).filter(|lane| mask & (1 << lane) != 0).collect();
            let got = packed.to_le_bytes();
            assert_eq!(&got[..want.len()], &want[..], "mask {mask:#06b}");
        }
    }

    /// Both levels emit the brute-force set, in row order, with the same
    /// `gap²` bits — on short and long lifespans, small and huge radii.
    #[test]
    fn every_width_emits_exactly_the_definition() {
        for (seed, max_dur) in [(1u64, 0i64), (2, 5_000), (3, 400_000)] {
            let rows = cloud(700, seed, 1_000_000, max_dur);
            let lanes = lanes_of(&rows);
            let mut rng = Rng(seed ^ 0xABCD);
            for _ in 0..200 {
                let (x, y) = (rng.unit() * 1_000.0, rng.unit() * 1_000.0);
                let t0 = (rng.unit() * 1_000_000.0) as i64;
                let w = window(
                    [x, x + rng.unit() * 80.0, y, y + rng.unit() * 80.0],
                    t0,
                    t0 + (rng.unit() * 60_000.0) as i64,
                );
                let radius = [0.0, 25.0, 120.0, 5_000.0][(rng.next() % 4) as usize];
                let want = brute_force(&rows, &w, radius);
                for level in LEVELS {
                    assert_eq!(
                        scan(&lanes, level, &w, radius),
                        want,
                        "{level:?} r {radius}"
                    );
                }
            }
        }
    }

    /// The boundary test of the packed loads, the `gap²` stores and the
    /// four-at-a-time offset stores: scan ranges of every length from empty
    /// to past two blocks, starting at the first row and ending at the last,
    /// with every row passing (the survivor list as full as it gets) — an
    /// off-by-one in any of them is an out-of-bounds panic or a missing row.
    #[test]
    fn every_range_length_at_both_ends_of_the_lanes() {
        let n = 2 * BLOCK + 9;
        // Row i lives exactly at instant i, inside one shared box.
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| (i, i, [0.0, 1.0, 0.0, 1.0]))
            .collect();
        let lanes = lanes_of(&rows);
        for len in 0..=n {
            for (first, last) in [(0, len), (n - len, n)] {
                if len == 0 {
                    continue;
                }
                let w = window([0.0, 1.0, 0.0, 1.0], first as i64, last as i64 - 1);
                let want: Vec<(usize, u64)> = (first..last).map(|i| (i, 0f64.to_bits())).collect();
                for level in LEVELS {
                    assert_eq!(
                        scan(&lanes, level, &w, 0.0),
                        want,
                        "{level:?} {first}..{last}"
                    );
                }
            }
        }
        // And the empty scans: before the first row, after the last.
        for level in LEVELS {
            assert!(scan(&lanes, level, &window([0.0, 1.0, 0.0, 1.0], -9, -1), 1.0).is_empty());
            let after = n as i64;
            assert!(scan(
                &lanes,
                level,
                &window([0.0, 1.0, 0.0, 1.0], after, after + 9),
                1.0
            )
            .is_empty());
        }
        let empty = lanes_of(&[]);
        for level in LEVELS {
            assert!(scan(&empty, level, &window([0.0, 1.0, 0.0, 1.0], 0, 9), 1.0).is_empty());
        }
    }

    /// What the running-max lower bound is for: one row that outlives
    /// everything after it must still be found from a window at the far end,
    /// and rows that merely *precede* the window must not be.
    #[test]
    fn one_long_lifespan_is_found_from_the_far_end() {
        let mut rows: Vec<Row> = vec![(0, 1_000_000, [0.0, 1.0, 0.0, 1.0])];
        rows.extend((1..500i64).map(|i| (i * 10, i * 10 + 5, [0.0, 1.0, 0.0, 1.0])));
        let lanes = lanes_of(&rows);
        let w = window([0.0, 1.0, 0.0, 1.0], 900_000, 900_100);
        for level in LEVELS {
            assert_eq!(scan(&lanes, level, &w, 0.0), vec![(0, 0f64.to_bits())]);
        }
        // Abutting lifespans share an instant and therefore overlap; one
        // millisecond later they do not.
        let w = window([0.0, 1.0, 0.0, 1.0], 4_995, 4_999);
        for level in LEVELS {
            let got: Vec<usize> = scan(&lanes, level, &w, 0.0)
                .into_iter()
                .map(|c| c.0)
                .collect();
            assert_eq!(got, vec![0, 499], "{level:?}");
        }
        let w = window([0.0, 1.0, 0.0, 1.0], 4_996, 4_999);
        for level in LEVELS {
            let got: Vec<usize> = scan(&lanes, level, &w, 0.0)
                .into_iter()
                .map(|c| c.0)
                .collect();
            assert_eq!(got, vec![0], "{level:?}");
        }
    }

    /// The `f64` prefilter is outward-rounded and the exact recheck decides:
    /// beyond 2⁵³ ms neighbouring instants collapse to one `f64`, and a row
    /// that ended one millisecond before the window must still be rejected.
    #[test]
    fn the_exact_recheck_decides_where_f64_time_cannot() {
        let big = (1i64 << 60) + 3;
        assert_eq!(
            t_up(big - 1),
            t_up(big),
            "the prefilter cannot tell these apart"
        );
        let rows: Vec<Row> = (0..8)
            .map(|i| (big - 10, big - 1 + (i % 2), [0.0, 1.0, 0.0, 1.0]))
            .collect();
        let lanes = lanes_of(&rows);
        let w = window([0.0, 1.0, 0.0, 1.0], big, big + 5);
        for level in LEVELS {
            let got: Vec<usize> = scan(&lanes, level, &w, 0.0)
                .into_iter()
                .map(|c| c.0)
                .collect();
            assert_eq!(got, vec![1, 3, 5, 7], "{level:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending t0")]
    fn rows_out_of_time_order_are_refused() {
        let mut lanes = TimeOrderedLanes::with_capacity(2);
        lanes.push(10, 20, [0.0; 4]);
        lanes.push(9, 20, [0.0; 4]);
    }
}
