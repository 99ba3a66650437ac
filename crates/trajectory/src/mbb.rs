//! 3D (space + time) minimum bounding boxes.
//!
//! The `pg3D-Rtree` of the paper indexes trajectory segments and
//! sub-trajectories by their 3D MBB; here this type keys the voting scan's
//! candidate rows and `hermes-gist`'s reference tree. The box arithmetic
//! they share lives here once: [`axis_gap`], the interval gap every level of
//! the voting ladder bounds a distance with, and [`t_down`]/[`t_up`], the
//! outward rounding of the packed temporal prefilter.

use crate::point::Point;
use crate::time::Timestamp;
use std::fmt;

/// A minimum bounding box over two spatial dimensions and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbb {
    /// Minimum x (inclusive).
    pub x_min: f64,
    /// Maximum x (inclusive).
    pub x_max: f64,
    /// Minimum y (inclusive).
    pub y_min: f64,
    /// Maximum y (inclusive).
    pub y_max: f64,
    /// Earliest time (inclusive).
    pub t_min: Timestamp,
    /// Latest time (inclusive).
    pub t_max: Timestamp,
}

impl Mbb {
    /// An "empty" box that is the identity of [`Mbb::union`].
    pub fn empty() -> Self {
        Mbb {
            x_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            y_min: f64::INFINITY,
            y_max: f64::NEG_INFINITY,
            t_min: Timestamp::MAX,
            t_max: Timestamp::MIN,
        }
    }

    /// Builds a box from explicit bounds. Panics if any minimum exceeds the
    /// corresponding maximum.
    pub fn new(
        x_min: f64,
        x_max: f64,
        y_min: f64,
        y_max: f64,
        t_min: Timestamp,
        t_max: Timestamp,
    ) -> Self {
        assert!(x_min <= x_max, "x_min must not exceed x_max");
        assert!(y_min <= y_max, "y_min must not exceed y_max");
        assert!(t_min <= t_max, "t_min must not exceed t_max");
        Mbb {
            x_min,
            x_max,
            y_min,
            y_max,
            t_min,
            t_max,
        }
    }

    /// The degenerate box covering a single point.
    pub fn from_point(p: &Point) -> Self {
        Mbb {
            x_min: p.x,
            x_max: p.x,
            y_min: p.y,
            y_max: p.y,
            t_min: p.t,
            t_max: p.t,
        }
    }

    /// The tight box around a set of points. Returns [`Mbb::empty`] for an
    /// empty slice.
    pub fn from_points(points: &[Point]) -> Self {
        let mut b = Mbb::empty();
        for p in points {
            b.expand_point(p);
        }
        b
    }

    /// True when the box contains no point (the union identity).
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max || self.y_min > self.y_max || self.t_min > self.t_max
    }

    /// Grows the box to include `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.x_min = self.x_min.min(p.x);
        self.x_max = self.x_max.max(p.x);
        self.y_min = self.y_min.min(p.y);
        self.y_max = self.y_max.max(p.y);
        self.t_min = self.t_min.min(p.t);
        self.t_max = self.t_max.max(p.t);
    }

    /// Grows the box to include `other`.
    pub fn expand(&mut self, other: &Mbb) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            return;
        }
        self.x_min = self.x_min.min(other.x_min);
        self.x_max = self.x_max.max(other.x_max);
        self.y_min = self.y_min.min(other.y_min);
        self.y_max = self.y_max.max(other.y_max);
        self.t_min = self.t_min.min(other.t_min);
        self.t_max = self.t_max.max(other.t_max);
    }

    /// Smallest box containing both inputs.
    pub fn union(&self, other: &Mbb) -> Mbb {
        let mut b = *self;
        b.expand(other);
        b
    }

    /// Overlapping region of two boxes, if any.
    pub fn intersection(&self, other: &Mbb) -> Option<Mbb> {
        if !self.intersects(other) {
            return None;
        }
        Some(Mbb {
            x_min: self.x_min.max(other.x_min),
            x_max: self.x_max.min(other.x_max),
            y_min: self.y_min.max(other.y_min),
            y_max: self.y_max.min(other.y_max),
            t_min: self.t_min.max(other.t_min),
            t_max: self.t_max.min(other.t_max),
        })
    }

    /// True if the boxes share at least one point (boundaries included).
    pub fn intersects(&self, other: &Mbb) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
            && self.t_min <= other.t_max
            && other.t_min <= self.t_max
    }

    /// True if `other` is completely inside `self`.
    pub fn contains(&self, other: &Mbb) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.x_min <= other.x_min
            && other.x_max <= self.x_max
            && self.y_min <= other.y_min
            && other.y_max <= self.y_max
            && self.t_min <= other.t_min
            && other.t_max <= self.t_max
    }

    /// Center of the box in the scaled 3D space.
    pub fn center(&self) -> (f64, f64, f64) {
        (
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            (self.t_min.as_secs_f64() + self.t_max.as_secs_f64()) / 2.0,
        )
    }

    /// Minimum 3D distance between two boxes (zero if they intersect),
    /// with time scaled by `time_weight`.
    pub fn min_distance(&self, other: &Mbb, time_weight: f64) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = axis_gap(self.x_min, self.x_max, other.x_min, other.x_max);
        let dy = axis_gap(self.y_min, self.y_max, other.y_min, other.y_max);
        let dt = axis_gap(
            self.t_min.as_secs_f64(),
            self.t_max.as_secs_f64(),
            other.t_min.as_secs_f64(),
            other.t_max.as_secs_f64(),
        ) * time_weight;
        (dx * dx + dy * dy + dt * dt).sqrt()
    }
}

/// Gap between two closed intervals along one axis (0 when they overlap).
///
/// The one implementation: [`Mbb::min_distance`], the voting ladder and the
/// time-ordered candidate scan of `hermes-s2t`, and the ball traversal of
/// `hermes-gist`'s reference tree all call it, because the pruning-exactness
/// argument of the voting hot path requires every level to compute the
/// *same* lower bound. Written as two subtractions and two selects (no
/// branches — interval gaps are coin-flip data to a branch predictor):
/// exactly one of `b_min - a_max` / `a_min - b_max` is positive when the
/// intervals are disjoint, both are `<= 0.0` when they overlap, and equal
/// finite operands subtract to `+0.0` — so for intervals with
/// `min <= max` the selected value is the branchy three-case form's, bit for
/// bit (the `mbb` tests sweep it). The scan's SIMD filters emit this same
/// max-chain with packed ops.
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

/// `t` as `f64`, rounded toward `-∞` (exact for every `|t| < 2^53`, which
/// covers any millisecond timestamp this engine produces). With [`t_up`],
/// the outward rounding every packed temporal prefilter relies on, so —
/// like [`axis_gap`] — there is one implementation.
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

impl fmt::Display for Mbb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mbb[x: {:.2}..{:.2}, y: {:.2}..{:.2}, t: {}..{}]",
            self.x_min, self.x_max, self.y_min, self.y_max, self.t_min, self.t_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxy(x0: f64, x1: f64, y0: f64, y1: f64, t0: i64, t1: i64) -> Mbb {
        Mbb::new(x0, x1, y0, y1, Timestamp(t0), Timestamp(t1))
    }

    #[test]
    fn empty_box_behaves_as_union_identity() {
        let e = Mbb::empty();
        let b = boxy(0.0, 1.0, 0.0, 1.0, 0, 1000);
        assert!(e.is_empty());
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(!e.intersects(&b));
        assert!(!e.contains(&b));
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [
            Point::new(1.0, 5.0, Timestamp(100)),
            Point::new(-2.0, 3.0, Timestamp(50)),
            Point::new(4.0, -1.0, Timestamp(200)),
        ];
        let b = Mbb::from_points(&pts);
        assert_eq!(b, boxy(-2.0, 4.0, -1.0, 5.0, 50, 200));
        for p in &pts {
            assert!(b.contains(&Mbb::from_point(p)));
        }
    }

    #[test]
    fn intersection_and_containment() {
        let a = boxy(0.0, 10.0, 0.0, 10.0, 0, 10_000);
        let b = boxy(5.0, 15.0, 5.0, 15.0, 5_000, 15_000);
        let c = boxy(2.0, 3.0, 2.0, 3.0, 2_000, 3_000);
        assert!(a.intersects(&b));
        assert_eq!(
            a.intersection(&b).unwrap(),
            boxy(5.0, 10.0, 5.0, 10.0, 5_000, 10_000)
        );
        assert!(a.contains(&c));
        assert!(!a.contains(&b));
        assert!(a.intersection(&boxy(20.0, 30.0, 0.0, 1.0, 0, 1)).is_none());
    }

    #[test]
    fn min_distance_zero_when_overlapping() {
        let a = boxy(0.0, 10.0, 0.0, 10.0, 0, 10_000);
        let b = boxy(5.0, 15.0, 5.0, 15.0, 5_000, 15_000);
        assert_eq!(a.min_distance(&b, 1.0), 0.0);
        let far = boxy(13.0, 14.0, 0.0, 10.0, 0, 10_000);
        assert!((a.min_distance(&far, 1.0) - 3.0).abs() < 1e-12);
    }

    /// The branchy three-case gap [`axis_gap`] replaced, kept as its oracle.
    fn branchy_gap(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
        if a_max < b_min {
            b_min - a_max
        } else if b_max < a_min {
            a_min - b_max
        } else {
            0.0
        }
    }

    /// SplitMix64, so the sweeps are seeded without a datagen dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An endpoint that stresses the two forms: half the draws are signed
    /// zeros, infinities or the ends of the magnitude range, the rest a
    /// seeded magnitude from 1e-300 to 1e300 with a seeded sign.
    fn endpoint(state: &mut u64) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
        ];
        let r = next(state);
        if r & 1 == 0 {
            return SPECIAL[(r >> 1) as usize % SPECIAL.len()];
        }
        let exponent = ((r >> 1) % 601) as i32 - 300;
        let mantissa = 1.0 + (r >> 12) as f64 / (1u64 << 52) as f64 * 8.0;
        let sign = if r & 2 == 0 { 1.0 } else { -1.0 };
        sign * mantissa * 10f64.powi(exponent)
    }

    /// Two intervals whose four ends come from a pool of three endpoints,
    /// so equal and touching ends are common; each is ordered `min <= max`.
    fn interval_pair(state: &mut u64) -> [f64; 4] {
        let pool = [endpoint(state), endpoint(state), endpoint(state)];
        let mut pick = || pool[(next(state) % 3) as usize];
        let (a, b, c, d) = (pick(), pick(), pick(), pick());
        let order = |x: f64, y: f64| if x <= y { (x, y) } else { (y, x) };
        let ((a_min, a_max), (b_min, b_max)) = (order(a, b), order(c, d));
        [a_min, a_max, b_min, b_max]
    }

    #[test]
    fn axis_gap_is_the_branchy_gap_bit_for_bit() {
        // The cases a signed zero decides, then a seeded sweep.
        let z = [0.0, -0.0];
        for (&a0, &a1, &b0, &b1) in z
            .iter()
            .flat_map(|a0| z.iter().map(move |a1| (a0, a1)))
            .flat_map(|(a0, a1)| z.iter().map(move |b0| (a0, a1, b0)))
            .flat_map(|(a0, a1, b0)| z.iter().map(move |b1| (a0, a1, b0, b1)))
        {
            let (got, want) = (axis_gap(a0, a1, b0, b1), branchy_gap(a0, a1, b0, b1));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "[{a0:?}, {a1:?}] vs [{b0:?}, {b1:?}]"
            );
        }
        let mut state = 0xA815_6A90;
        for _ in 0..200_000 {
            let [a_min, a_max, b_min, b_max] = interval_pair(&mut state);
            let got = axis_gap(a_min, a_max, b_min, b_max);
            let want = branchy_gap(a_min, a_max, b_min, b_max);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "[{a_min:?}, {a_max:?}] vs [{b_min:?}, {b_max:?}]: {got:?} != {want:?}"
            );
            assert_eq!(
                axis_gap(b_min, b_max, a_min, a_max).to_bits(),
                got.to_bits(),
                "the gap is symmetric"
            );
        }
    }

    /// No box holds a NaN, but the forms are compared there too: with the
    /// NaN at `a_max` or `b_min` they agree bit for bit; at `a_min` or
    /// `b_max` the max form drops a gap the branchy form reports. Neither
    /// ever returns a NaN or `-0.0`.
    #[test]
    fn axis_gap_with_a_nan_end_is_never_nan_or_negative_zero() {
        let mut state = 0x0BAD_F00D;
        for draw in 0..40_000 {
            let mut ends = interval_pair(&mut state);
            let at = draw % 4;
            ends[at] = f64::NAN;
            let [a_min, a_max, b_min, b_max] = ends;
            let got = axis_gap(a_min, a_max, b_min, b_max);
            assert!(got >= 0.0 && got.is_sign_positive(), "{ends:?}: {got:?}");
            if at == 1 || at == 2 {
                assert_eq!(
                    got.to_bits(),
                    branchy_gap(a_min, a_max, b_min, b_max).to_bits(),
                    "{ends:?}"
                );
            }
        }
    }

    #[test]
    fn min_distance_is_the_branchy_gaps_distance_bit_for_bit() {
        let mut state = 0x3D_B0C5;
        for _ in 0..50_000 {
            let [x0, x1, x2, x3] = interval_pair(&mut state);
            let [y0, y1, y2, y3] = interval_pair(&mut state);
            let mut t = [0i64; 4];
            for v in &mut t {
                // A few hours of milliseconds, coarse enough to tie often.
                *v = (next(&mut state) % 8) as i64 * 1_800_000 - 7_200_000;
            }
            t[..2].sort_unstable();
            t[2..].sort_unstable();
            let a = boxy(x0, x1, y0, y1, t[0], t[1]);
            let b = boxy(x2, x3, y2, y3, t[2], t[3]);
            let weight = [0.0, 0.5, 1.0, 30.0][(next(&mut state) % 4) as usize];
            let dx = branchy_gap(a.x_min, a.x_max, b.x_min, b.x_max);
            let dy = branchy_gap(a.y_min, a.y_max, b.y_min, b.y_max);
            let dt = branchy_gap(
                a.t_min.as_secs_f64(),
                a.t_max.as_secs_f64(),
                b.t_min.as_secs_f64(),
                b.t_max.as_secs_f64(),
            ) * weight;
            let want = (dx * dx + dy * dy + dt * dt).sqrt();
            let got = a.min_distance(&b, weight);
            assert_eq!(got.to_bits(), want.to_bits(), "{a} vs {b} at {weight}");
        }
    }
}
