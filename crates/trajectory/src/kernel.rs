//! Flat, allocation-free segment distance kernels.
//!
//! The S2T voting inner loop evaluates the time-synchronized segment distance
//! millions of times per query. The object-level entry point
//! ([`crate::Segment::mean_synchronized_distance`]) delegates to the scalar
//! kernel here, so callers that keep their segments in structure-of-arrays
//! form (the `SegmentArena` of `hermes-s2t`) can feed the kernel straight
//! from `f64`/`i64` lanes without materializing `Segment`s or `Point`s —
//! and both paths are bit-identical by construction, because they are the
//! same arithmetic.
//!
//! Contract kept by every function in this module:
//!
//! * **no heap allocation**, ever;
//! * **fixed arithmetic order** — the operations and their order match the
//!   original `Segment` methods exactly, so results agree bit for bit;
//! * **early temporal reject** — the common-lifespan test runs before any
//!   interpolation touches the spatial lanes.

/// One trajectory segment in scalar-lane form: the endpoints' coordinates and
/// timestamps. This is the row a `SegmentArena` reconstitutes from its
/// parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegLanes {
    /// x at the segment start.
    pub x0: f64,
    /// y at the segment start.
    pub y0: f64,
    /// x at the segment end.
    pub x1: f64,
    /// y at the segment end.
    pub y1: f64,
    /// Start time, milliseconds.
    pub t0: i64,
    /// End time, milliseconds (strictly after `t0` for well-formed segments).
    pub t1: i64,
}

impl SegLanes {
    /// The interpolated spatial position at time `t`, clamped to the
    /// segment's lifespan. Mirrors `Segment::position_at` + `Point::lerp`
    /// exactly (same operations, same order), minus the unused temporal
    /// component.
    #[inline]
    pub fn position_at(&self, t: i64) -> (f64, f64) {
        let span = self.t1 - self.t0;
        if span == 0 {
            return (self.x0, self.y0);
        }
        let f = ((t - self.t0) as f64 / span as f64).clamp(0.0, 1.0);
        (
            self.x0 + (self.x1 - self.x0) * f,
            self.y0 + (self.y1 - self.y0) * f,
        )
    }
}

/// Euclidean distance between the two segments' interpolated positions at
/// instant `t` (both clamped to their own lifespans).
#[inline]
fn distance_at(a: &SegLanes, b: &SegLanes, t: i64) -> f64 {
    let (px, py) = a.position_at(t);
    let (qx, qy) = b.position_at(t);
    let dx = px - qx;
    let dy = py - qy;
    (dx * dx + dy * dy).sqrt()
}

/// Mean time-synchronized distance between two segments over their common
/// lifespan — Simpson's rule on the interval endpoints and midpoint, exact
/// for the linear relative displacement of two uniform movers. `None` when
/// the lifespans are disjoint (checked **before** any interpolation).
///
/// This is the voting kernel: `Segment::mean_synchronized_distance` is a
/// thin wrapper around it, so the flat and object paths cannot drift apart.
#[inline]
pub fn mean_sync_distance(a: &SegLanes, b: &SegLanes) -> Option<f64> {
    // Early temporal reject: closed-interval intersection on the i64 lanes.
    let common_start = if a.t0 >= b.t0 { a.t0 } else { b.t0 };
    let common_end = if a.t1 <= b.t1 { a.t1 } else { b.t1 };
    if common_start > common_end {
        return None;
    }
    let mid = (common_start + common_end) / 2;
    Some(
        (distance_at(a, b, common_start)
            + 4.0 * distance_at(a, b, mid)
            + distance_at(a, b, common_end))
            / 6.0,
    )
}

/// Gather-block size used by batched callers. A multiple of the AVX2 lane
/// width (4), so a full block never needs a remainder tail.
pub const BATCH: usize = 8;

/// SIMD dispatch level for the batched kernel. Ordered by width so a level
/// can be clamped against what the CPU supports (`Scalar < Avx2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loop — one candidate at a time. The reference, and
    /// the only level off x86_64.
    Scalar,
    /// AVX2, 4 × f64 per vector. Runtime-detected.
    Avx2,
}

impl SimdLevel {
    /// f64 lanes evaluated per vector at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 4,
        }
    }

    /// Stable lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Widest level the running CPU supports.
#[cfg(target_arch = "x86_64")]
pub fn best_supported() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Widest level the running CPU supports.
#[cfg(not(target_arch = "x86_64"))]
pub fn best_supported() -> SimdLevel {
    SimdLevel::Scalar
}

/// Resolve a `HERMES_SIMD` request: `off` (or `scalar`, `0`, `none`) is the
/// scalar reference; anything else, unset included, is the widest level the
/// CPU supports.
fn resolve_level(request: Option<&str>) -> SimdLevel {
    match request
        .map(str::trim)
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("off") | Some("scalar") | Some("0") | Some("none") => SimdLevel::Scalar,
        _ => best_supported(),
    }
}

/// The process-wide dispatch level for [`mean_sync_distance_batch`]: the
/// widest supported SIMD width, unless `HERMES_SIMD=off` selects the scalar
/// reference. Read once and cached — the switch exists to run the whole
/// pipeline on the reference (CI does) and to rule the vector path out when
/// debugging, not for per-query toggling.
pub fn simd_level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| resolve_level(std::env::var("HERMES_SIMD").ok().as_deref()))
}

/// Batched [`mean_sync_distance`]: evaluates one query segment against `n`
/// candidate segments held in structure-of-arrays lanes, writing the mean
/// time-synchronized distance — or **`f64::INFINITY` when the lifespans are
/// disjoint** — into `out[i]`.
///
/// The ∞ sentinel replaces the scalar kernel's `None` and is equivalent under
/// every use the voting loop makes of the result (`d < best` folds and
/// `d > cutoff` rejects both treat ∞ exactly like "no common lifespan").
///
/// Dispatches to the level [`simd_level`] chose. The AVX2 body performs the
/// same IEEE-754 operations in the same per-lane order as the scalar kernel,
/// so results are bit-identical across levels — see `docs/KERNELS.md` for
/// the argument and the tests that gate it.
#[allow(clippy::too_many_arguments)]
pub fn mean_sync_distance_batch(
    q: &SegLanes,
    x0: &[f64],
    y0: &[f64],
    x1: &[f64],
    y1: &[f64],
    t0: &[i64],
    t1: &[i64],
    out: &mut [f64],
) {
    mean_sync_distance_batch_at(simd_level(), q, x0, y0, x1, y1, t0, t1, out);
}

/// [`mean_sync_distance_batch`] at an explicit dispatch level — the hook the
/// bit-exactness gate uses to run both levels side by side. The level is
/// clamped to hardware support, never widened.
#[allow(clippy::too_many_arguments)]
pub fn mean_sync_distance_batch_at(
    level: SimdLevel,
    q: &SegLanes,
    x0: &[f64],
    y0: &[f64],
    x1: &[f64],
    y1: &[f64],
    t0: &[i64],
    t1: &[i64],
    out: &mut [f64],
) {
    let n = out.len();
    assert!(
        x0.len() == n
            && y0.len() == n
            && x1.len() == n
            && y1.len() == n
            && t0.len() == n
            && t1.len() == n,
        "batch kernel lane slices must share one length"
    );
    match level.min(best_supported()) {
        SimdLevel::Scalar => batch_scalar(q, x0, y0, x1, y1, t0, t1, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped against `best_supported`, which only reports Avx2
        // after `is_x86_feature_detected!("avx2")` succeeded.
        SimdLevel::Avx2 => unsafe { x86::batch_avx2(q, x0, y0, x1, y1, t0, t1, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => batch_scalar(q, x0, y0, x1, y1, t0, t1, out),
    }
}

/// Portable reference implementation of the batch: the scalar kernel per
/// lane, with the ∞ sentinel for disjoint lifespans. Also serves the AVX2
/// path as its remainder-tail loop, which is sound precisely because the two
/// levels are bit-identical.
#[allow(clippy::too_many_arguments)]
fn batch_scalar(
    q: &SegLanes,
    x0: &[f64],
    y0: &[f64],
    x1: &[f64],
    y1: &[f64],
    t0: &[i64],
    t1: &[i64],
    out: &mut [f64],
) {
    for i in 0..out.len() {
        let cand = SegLanes {
            x0: x0[i],
            y0: y0[i],
            x1: x1[i],
            y1: y1[i],
            t0: t0[i],
            t1: t1[i],
        };
        out[i] = mean_sync_distance(q, &cand).unwrap_or(f64::INFINITY);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 width of the batch kernel.
    //!
    //! Bit-exactness with the scalar kernel rests on two facts:
    //!
    //! 1. Every arithmetic operation used here (`add/sub/mul/div/sqrt/
    //!    min/max`) is IEEE-754 correctly rounded **elementwise**, so a
    //!    vector op on lane *i* produces exactly the bits the scalar op
    //!    produces on the same inputs. No FMA contraction, no reductions,
    //!    no reassociation.
    //! 2. The per-lane operation *order* below mirrors the scalar kernel
    //!    statement by statement: temporal intersection, `f = clamp(num/
    //!    den)` as `min(max(f, 0), 1)`, lerp as `x0 + (x1-x0)*f`, distance
    //!    as `sqrt(dx*dx + dy*dy)`, Simpson as `(d0 + 4*dm + d1)/6`.
    //!
    //! `min(max(f, 0), 1)` matches scalar `f.clamp(0.0, 1.0)` for every
    //! value `f = num/den` can take on a lane that survives the temporal
    //! reject: `num` comes from an i64 conversion (never -0.0) and `den`
    //! from a well-formed span, so `f` is a non-NaN number and the two
    //! clamp formulations agree bit for bit. Lanes that fail the temporal
    //! reject may compute garbage (0/0 → NaN, clamped to 0) but are
    //! overwritten by the ∞ sentinel before the store.
    //!
    //! The i64 temporal prologue (lifespan intersection, midpoint,
    //! i64→f64 numerator/denominator conversion) stays scalar: AVX2 has no
    //! packed 64-bit integer min/max or i64→f64 convert, and the prologue is
    //! a small fraction of the kernel's work.

    use super::SegLanes;
    use core::arch::x86_64::*;

    const LIVE: f64 = 0.0;
    const DEAD: f64 = f64::from_bits(u64::MAX);
    /// Candidates per vector.
    const W: usize = 4;

    /// Per-chunk scalar prologue output for `W` lanes: everything the f64
    /// body needs, with masks encoded as all-zero / all-one f64 lanes.
    struct Prologue {
        /// `(t_k - q.t0) as f64` for the three Simpson instants.
        q_num: [[f64; W]; 3],
        /// `(t_k - c.t0) as f64` for the three Simpson instants.
        c_num: [[f64; W]; 3],
        /// Candidate span `(c.t1 - c.t0) as f64`.
        c_den: [f64; W],
        /// All-ones where the candidate span is zero (degenerate segment).
        c_deg: [f64; W],
        /// All-ones where the lifespans are disjoint (result forced to ∞).
        dead: [f64; W],
    }

    impl Prologue {
        /// The scalar i64 arithmetic of `mean_sync_distance`, verbatim, for
        /// `W` candidates starting at `i`.
        #[inline(always)]
        fn compute(q: &SegLanes, t0: &[i64], t1: &[i64], i: usize) -> Self {
            let mut p = Prologue {
                q_num: [[0.0; W]; 3],
                c_num: [[0.0; W]; 3],
                c_den: [0.0; W],
                c_deg: [LIVE; W],
                dead: [LIVE; W],
            };
            for l in 0..W {
                let ct0 = t0[i + l];
                let ct1 = t1[i + l];
                // Closed-interval intersection, exactly as the scalar kernel.
                let cs = if q.t0 >= ct0 { q.t0 } else { ct0 };
                let ce = if q.t1 <= ct1 { q.t1 } else { ct1 };
                if cs > ce {
                    // Dead lane: leave the zeros in place (they produce a
                    // finite garbage distance) and force ∞ at the store.
                    p.dead[l] = DEAD;
                    continue;
                }
                let mid = (cs + ce) / 2;
                let span = ct1 - ct0;
                p.c_den[l] = span as f64;
                if span == 0 {
                    p.c_deg[l] = DEAD;
                }
                for (k, t) in [cs, mid, ce].into_iter().enumerate() {
                    p.q_num[k][l] = (t - q.t0) as f64;
                    p.c_num[k][l] = (t - ct0) as f64;
                }
            }
            p
        }
    }

    /// 4 candidates per vector. Remainder lanes fall back to the scalar loop
    /// (bit-identical, so the seam is invisible).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, and that all slices hold at
    /// least `out.len()` elements (checked by the public dispatcher).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn batch_avx2(
        q: &SegLanes,
        x0: &[f64],
        y0: &[f64],
        x1: &[f64],
        y1: &[f64],
        t0: &[i64],
        t1: &[i64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let q_span = q.t1 - q.t0;
        let q_degenerate = q_span == 0;
        let q_den = _mm256_set1_pd(q_span as f64);
        let q_x0 = _mm256_set1_pd(q.x0);
        let q_y0 = _mm256_set1_pd(q.y0);
        let q_dx = _mm256_set1_pd(q.x1 - q.x0);
        let q_dy = _mm256_set1_pd(q.y1 - q.y0);
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let four = _mm256_set1_pd(4.0);
        let six = _mm256_set1_pd(6.0);
        let inf = _mm256_set1_pd(f64::INFINITY);

        // One vector chunk: everything downstream of the scalar prologue.
        // A macro rather than a helper fn keeps the intrinsics inlined under
        // the enclosing `#[target_feature]`.
        macro_rules! chunk {
            ($p:expr, $i:expr) => {
                let c_x0 = _mm256_loadu_pd(x0.as_ptr().add($i));
                let c_y0 = _mm256_loadu_pd(y0.as_ptr().add($i));
                let c_dx = _mm256_sub_pd(_mm256_loadu_pd(x1.as_ptr().add($i)), c_x0);
                let c_dy = _mm256_sub_pd(_mm256_loadu_pd(y1.as_ptr().add($i)), c_y0);
                let c_den = _mm256_loadu_pd($p.c_den.as_ptr());
                let c_deg = _mm256_loadu_pd($p.c_deg.as_ptr());
                let dead = _mm256_loadu_pd($p.dead.as_ptr());

                let mut d = [zero; 3];
                for k in 0..3 {
                    // Query position at instant k (degenerate span pins to the
                    // start point before any division, as in `position_at`).
                    let (px, py) = if q_degenerate {
                        (q_x0, q_y0)
                    } else {
                        let f = _mm256_div_pd(_mm256_loadu_pd($p.q_num[k].as_ptr()), q_den);
                        let f = _mm256_min_pd(_mm256_max_pd(f, zero), one);
                        (
                            _mm256_add_pd(q_x0, _mm256_mul_pd(q_dx, f)),
                            _mm256_add_pd(q_y0, _mm256_mul_pd(q_dy, f)),
                        )
                    };
                    // Candidate position at instant k.
                    let f = _mm256_div_pd(_mm256_loadu_pd($p.c_num[k].as_ptr()), c_den);
                    let f = _mm256_min_pd(_mm256_max_pd(f, zero), one);
                    let ix = _mm256_add_pd(c_x0, _mm256_mul_pd(c_dx, f));
                    let iy = _mm256_add_pd(c_y0, _mm256_mul_pd(c_dy, f));
                    let cx = _mm256_blendv_pd(ix, c_x0, c_deg);
                    let cy = _mm256_blendv_pd(iy, c_y0, c_deg);
                    let dx = _mm256_sub_pd(px, cx);
                    let dy = _mm256_sub_pd(py, cy);
                    d[k] =
                        _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
                }
                // Simpson's rule in the scalar order: (d0 + 4*dm) + d1, then /6.
                let sum = _mm256_add_pd(_mm256_add_pd(d[0], _mm256_mul_pd(four, d[1])), d[2]);
                let mean = _mm256_div_pd(sum, six);
                let res = _mm256_blendv_pd(mean, inf, dead);
                _mm256_storeu_pd(out.as_mut_ptr().add($i), res);
            };
        }
        // Two chunks in flight: computing the second prologue between the
        // first prologue's scalar stores and its vector loads gives the
        // store buffer time to drain instead of stalling the loads on
        // store-to-load forwarding (the prologue writes 8-byte lanes the
        // body immediately re-reads as 32-byte vectors).
        let mut i = 0;
        while i + 2 * W <= n {
            let pa = Prologue::compute(q, t0, t1, i);
            let pb = Prologue::compute(q, t0, t1, i + W);
            chunk!(pa, i);
            chunk!(pb, i + W);
            i += 2 * W;
        }
        while i + W <= n {
            let p = Prologue::compute(q, t0, t1, i);
            chunk!(p, i);
            i += W;
        }
        if i < n {
            super::batch_scalar(
                q,
                &x0[i..n],
                &y0[i..n],
                &x1[i..n],
                &y1[i..n],
                &t0[i..n],
                &t1[i..n],
                &mut out[i..n],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::segment::Segment;
    use crate::time::Timestamp;

    fn seg(x0: f64, y0: f64, t0: i64, x1: f64, y1: f64, t1: i64) -> Segment {
        Segment::new(
            Point::new(x0, y0, Timestamp(t0)),
            Point::new(x1, y1, Timestamp(t1)),
        )
    }

    fn lanes(s: &Segment) -> SegLanes {
        SegLanes {
            x0: s.start.x,
            y0: s.start.y,
            x1: s.end.x,
            y1: s.end.y,
            t0: s.start.t.millis(),
            t1: s.end.t.millis(),
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_segment_method() {
        // A grid of awkward offsets: partial overlaps, containment, touching
        // endpoints, irrational-ish coordinates.
        let cases = [
            (
                seg(0.0, 0.0, 0, 10.0, 0.0, 10_000),
                seg(0.0, 3.0, 0, 10.0, 3.0, 10_000),
            ),
            (
                seg(0.1, 0.2, 0, 9.7, 4.3, 7_001),
                seg(1.3, -2.0, 3_000, 8.0, 5.5, 12_345),
            ),
            (
                seg(5.0, 5.0, 1_000, 6.0, 7.0, 1_001),
                seg(0.0, 0.0, 0, 100.0, 0.0, 100_000),
            ),
            (
                seg(-3.5, 2.25, -5_000, 4.125, -1.0, 5_000),
                seg(0.0, 0.0, -1_000, 0.0, 0.0, 1_000),
            ),
            (
                seg(0.0, 0.0, 0, 1.0, 1.0, 1_000),
                seg(2.0, 2.0, 1_000, 3.0, 3.0, 2_000),
            ),
        ];
        for (a, b) in &cases {
            let via_segment = a.mean_synchronized_distance(b);
            let via_kernel = mean_sync_distance(&lanes(a), &lanes(b));
            // Exact equality, not approximate: the two paths are the same
            // arithmetic and must never diverge by even one bit.
            assert_eq!(via_segment, via_kernel, "{a:?} vs {b:?}");
            assert_eq!(
                b.mean_synchronized_distance(a),
                mean_sync_distance(&lanes(b), &lanes(a))
            );
        }
    }

    #[test]
    fn disjoint_lifespans_reject_before_interpolating() {
        let a = SegLanes {
            x0: f64::NAN,
            y0: f64::NAN,
            x1: f64::NAN,
            y1: f64::NAN,
            t0: 0,
            t1: 1_000,
        };
        let b = SegLanes {
            x0: 0.0,
            y0: 0.0,
            x1: 1.0,
            y1: 1.0,
            t0: 2_000,
            t1: 3_000,
        };
        // NaN lanes never poison the result because the temporal reject fires
        // first — proof the reject really is hoisted above the interpolation.
        assert_eq!(mean_sync_distance(&a, &b), None);
        assert_eq!(mean_sync_distance(&b, &a), None);
    }

    #[test]
    fn touching_endpoints_still_evaluate() {
        let a = seg(0.0, 0.0, 0, 1.0, 0.0, 1_000);
        let b = seg(1.0, 4.0, 1_000, 2.0, 4.0, 2_000);
        let d = mean_sync_distance(&lanes(&a), &lanes(&b)).unwrap();
        assert!(
            (d - 4.0).abs() < 1e-12,
            "single shared instant, offset 4: {d}"
        );
    }

    /// Deterministic xorshift so the sweep needs no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn rand_f64(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let u = (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// The SoA lane columns of a generated candidate pool.
    type Pool = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<i64>, Vec<i64>);

    /// A pseudo-random candidate pool exercising partial overlap, disjoint
    /// lifespans, containment, and zero-span degeneracy.
    fn candidate_pool(seed: u64, n: usize) -> Pool {
        let mut s = seed;
        let (mut x0, mut y0, mut x1, mut y1) = (vec![], vec![], vec![], vec![]);
        let (mut t0, mut t1) = (vec![], vec![]);
        for i in 0..n {
            let start = (xorshift(&mut s) % 30_000) as i64 - 10_000;
            let span = match i % 5 {
                0 => 0, // degenerate
                _ => (xorshift(&mut s) % 8_000) as i64,
            };
            x0.push(rand_f64(&mut s, -50.0, 50.0));
            y0.push(rand_f64(&mut s, -50.0, 50.0));
            x1.push(rand_f64(&mut s, -50.0, 50.0));
            y1.push(rand_f64(&mut s, -50.0, 50.0));
            t0.push(start);
            t1.push(start + span);
        }
        (x0, y0, x1, y1, t0, t1)
    }

    #[test]
    fn batch_widths_are_bit_identical_to_scalar_kernel() {
        let queries = [
            SegLanes {
                x0: 0.3,
                y0: -1.2,
                x1: 9.9,
                y1: 4.4,
                t0: 0,
                t1: 9_000,
            },
            SegLanes {
                x0: 2.0,
                y0: 2.0,
                x1: 2.0,
                y1: 2.0,
                t0: 5_000,
                t1: 5_000,
            }, // degenerate query
            SegLanes {
                x0: -7.5,
                y0: 3.25,
                x1: 1.0,
                y1: -2.0,
                t0: -4_321,
                t1: 12_345,
            },
        ];
        // Lengths straddling every multiple-of-width boundary, so AVX2
        // exercises one and two chunks in flight AND 1/2/3-lane remainder
        // tails.
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 33] {
            let (x0, y0, x1, y1, t0, t1) = candidate_pool(0x9E37_79B9 ^ n as u64, n);
            for q in &queries {
                // Reference: the scalar Option kernel, ∞-encoded.
                let expect: Vec<f64> = (0..n)
                    .map(|i| {
                        let c = SegLanes {
                            x0: x0[i],
                            y0: y0[i],
                            x1: x1[i],
                            y1: y1[i],
                            t0: t0[i],
                            t1: t1[i],
                        };
                        mean_sync_distance(q, &c).unwrap_or(f64::INFINITY)
                    })
                    .collect();
                for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    let mut out = vec![0.0; n];
                    mean_sync_distance_batch_at(level, q, &x0, &y0, &x1, &y1, &t0, &t1, &mut out);
                    for i in 0..n {
                        assert_eq!(
                            expect[i].to_bits(),
                            out[i].to_bits(),
                            "lane {i} of {n} diverged at {level:?} for query {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_batch_entry_matches_scalar() {
        let q = SegLanes {
            x0: 1.0,
            y0: 2.0,
            x1: 3.0,
            y1: 4.0,
            t0: 100,
            t1: 900,
        };
        let (x0, y0, x1, y1, t0, t1) = candidate_pool(42, 13);
        let mut out = vec![0.0; 13];
        mean_sync_distance_batch(&q, &x0, &y0, &x1, &y1, &t0, &t1, &mut out);
        let mut reference = vec![0.0; 13];
        mean_sync_distance_batch_at(
            SimdLevel::Scalar,
            &q,
            &x0,
            &y0,
            &x1,
            &y1,
            &t0,
            &t1,
            &mut reference,
        );
        assert_eq!(out, reference);
    }

    #[test]
    fn simd_level_resolution_clamps_and_parses() {
        let best = best_supported();
        assert_eq!(resolve_level(None), best);
        assert_eq!(resolve_level(Some("")), best);
        assert_eq!(resolve_level(Some("auto")), best);
        for off in ["off", "scalar", " OFF ", "0", "none"] {
            assert_eq!(resolve_level(Some(off)), SimdLevel::Scalar, "{off:?}");
        }
        // The retired width names are unknown values now: auto, like any other.
        for auto in ["sse2", "avx2", "on"] {
            assert_eq!(resolve_level(Some(auto)), best, "{auto:?}");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(best, SimdLevel::Scalar);
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
        assert_eq!(BATCH % SimdLevel::Avx2.lanes(), 0);
    }

    /// The AVX2 body reads `out.len()` elements of every lane slice through
    /// raw pointers; only the dispatcher's length check stands between a
    /// short lane and an out-of-bounds load. Each of the six lanes one
    /// element short, at both levels, must panic there — and the panic must
    /// come before anything is written to `out`.
    #[test]
    fn a_short_lane_is_refused_before_any_load() {
        let q = SegLanes {
            x0: 0.0,
            y0: 0.0,
            x1: 1.0,
            y1: 1.0,
            t0: 0,
            t1: 1_000,
        };
        // Long enough for two AVX2 chunks and a tail.
        let n = 11;
        let (x0, y0, x1, y1, t0, t1) = candidate_pool(7, n);
        for short in 0..6 {
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let cut = |lane: usize| if lane == short { n - 1 } else { n };
                let mut out = vec![-1.0; n];
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    mean_sync_distance_batch_at(
                        level,
                        &q,
                        &x0[..cut(0)],
                        &y0[..cut(1)],
                        &x1[..cut(2)],
                        &y1[..cut(3)],
                        &t0[..cut(4)],
                        &t1[..cut(5)],
                        &mut out,
                    )
                }));
                let payload = outcome.expect_err("a short lane must panic");
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert!(
                    message.contains("share one length"),
                    "lane {short} at {level:?}: {message:?}"
                );
                assert!(
                    out.iter().all(|&v| v == -1.0),
                    "lane {short} at {level:?} wrote before refusing"
                );
            }
        }
    }

    #[test]
    fn degenerate_zero_span_lane_uses_start_point() {
        let a = SegLanes {
            x0: 5.0,
            y0: 5.0,
            x1: 9.0,
            y1: 9.0,
            t0: 100,
            t1: 100,
        };
        let b = SegLanes {
            x0: 5.0,
            y0: 2.0,
            x1: 5.0,
            y1: 2.0,
            t0: 100,
            t1: 100,
        };
        assert_eq!(mean_sync_distance(&a, &b), Some(3.0));
    }
}
