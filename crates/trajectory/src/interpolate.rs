//! Linear interpolation along a time-ordered sequence of samples.

use crate::point::Point;
use crate::time::Timestamp;

/// Interpolated position of an object at time `t`, given its time-ordered
/// samples. Returns `None` when `t` lies outside the sampled lifespan or the
/// slice has fewer than one point.
///
/// Uses binary search, so repeated evaluations on long trajectories stay
/// cheap (`O(log n)` per call).
pub fn position_at(points: &[Point], t: Timestamp) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let first = points.first().unwrap();
    let last = points.last().unwrap();
    if t < first.t || t > last.t {
        return None;
    }
    // Index of the first sample with time >= t.
    let idx = points.partition_point(|p| p.t < t);
    if idx == 0 {
        return Some(*first);
    }
    let after = &points[idx];
    if after.t == t {
        return Some(*after);
    }
    let before = &points[idx - 1];
    let span = (after.t - before.t).millis();
    if span == 0 {
        return Some(*before);
    }
    let f = (t - before.t).millis() as f64 / span as f64;
    Some(before.lerp(after, f))
}

/// Hops a [`Walk`] takes one sample at a time before it binary-searches the
/// rest: sample instants are usually about as far apart as the samples
/// themselves, so the next bracket is almost always within a hop or two.
const WALK_HOPS: usize = 8;

/// [`position_at`] for a non-decreasing sequence of instants: a forward
/// cursor over one side's samples that resumes where the previous instant
/// left off instead of searching the whole slice again. It finds the index
/// `partition_point` finds (the first sample with time `>= t`: every sample
/// before the cursor is earlier than the previous instant, so earlier than
/// `t`) and then performs the same operations on the same bracketing
/// samples, so every position is bit-identical to [`position_at`]'s.
#[derive(Debug, Clone)]
pub(crate) struct Walk<'a> {
    points: &'a [Point],
    /// Every sample before this index is earlier than the last instant.
    next: usize,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(points: &'a [Point]) -> Self {
        Walk { points, next: 0 }
    }

    /// The position at `t`, which must lie inside the sampled lifespan and
    /// must not precede the previous call's instant.
    #[inline]
    pub(crate) fn position_at(&mut self, t: Timestamp) -> Point {
        let points = self.points;
        let mut idx = self.next;
        let hops_end = (idx + WALK_HOPS).min(points.len());
        while idx < hops_end && points[idx].t < t {
            idx += 1;
        }
        if idx == hops_end {
            idx += points[idx..].partition_point(|p| p.t < t);
        }
        self.next = idx;
        if idx == 0 {
            return points[0];
        }
        let after = &points[idx];
        if after.t == t {
            return *after;
        }
        let before = &points[idx - 1];
        let span = (after.t - before.t).millis();
        if span == 0 {
            return *before;
        }
        let f = (t - before.t).millis() as f64 / span as f64;
        before.lerp(after, f)
    }
}

/// Iterator over `n` evenly spaced instants covering `[start, end]`
/// inclusive, without allocating: the distance kernels iterate it directly so
/// the integral distances never heap-allocate a per-pair instant buffer.
#[derive(Debug, Clone)]
pub struct SampleInstants {
    start_ms: i64,
    span_ms: i64,
    n: usize,
    i: usize,
}

impl Iterator for SampleInstants {
    type Item = Timestamp;

    #[inline]
    fn next(&mut self) -> Option<Timestamp> {
        if self.i >= self.n {
            return None;
        }
        let t = Timestamp(self.start_ms + self.span_ms * self.i as i64 / (self.n as i64 - 1));
        self.i += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SampleInstants {}

/// `n` evenly spaced instants covering `[start, end]` inclusive, as a lazy
/// iterator (no allocation). Panics if `n < 2`.
pub fn sample_instants_iter(start: Timestamp, end: Timestamp, n: usize) -> SampleInstants {
    assert!(n >= 2, "need at least two sample instants");
    SampleInstants {
        start_ms: start.millis(),
        span_ms: (end - start).millis(),
        n,
        i: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64, i64)]) -> Vec<Point> {
        v.iter()
            .map(|&(x, y, t)| Point::new(x, y, Timestamp(t)))
            .collect()
    }

    #[test]
    fn interpolates_between_samples() {
        let p = pts(&[(0.0, 0.0, 0), (10.0, 0.0, 10_000), (10.0, 10.0, 20_000)]);
        assert_eq!(
            position_at(&p, Timestamp(5_000)),
            Some(Point::new(5.0, 0.0, Timestamp(5_000)))
        );
        assert_eq!(
            position_at(&p, Timestamp(15_000)),
            Some(Point::new(10.0, 5.0, Timestamp(15_000)))
        );
    }

    #[test]
    fn exact_sample_times_return_the_sample() {
        let p = pts(&[(0.0, 0.0, 0), (10.0, 0.0, 10_000)]);
        assert_eq!(position_at(&p, Timestamp(0)), Some(p[0]));
        assert_eq!(position_at(&p, Timestamp(10_000)), Some(p[1]));
    }

    #[test]
    fn outside_lifespan_is_none() {
        let p = pts(&[(0.0, 0.0, 0), (10.0, 0.0, 10_000)]);
        assert_eq!(position_at(&p, Timestamp(-1)), None);
        assert_eq!(position_at(&p, Timestamp(10_001)), None);
        assert_eq!(position_at(&[], Timestamp(0)), None);
    }

    #[test]
    fn sample_instants_are_evenly_spaced_and_inclusive() {
        let s: Vec<Timestamp> = sample_instants_iter(Timestamp(0), Timestamp(1_000), 5).collect();
        assert_eq!(
            s,
            vec![
                Timestamp(0),
                Timestamp(250),
                Timestamp(500),
                Timestamp(750),
                Timestamp(1_000)
            ]
        );
    }

    #[test]
    fn iterator_form_yields_exactly_the_eager_instants() {
        for (a, b, n) in [(0i64, 1_000i64, 5usize), (-7, 13, 2), (0, 1, 32), (5, 5, 3)] {
            let eager: Vec<Timestamp> = (0..n as i64)
                .map(|i| Timestamp(a + (b - a) * i / (n as i64 - 1)))
                .collect();
            let iter = sample_instants_iter(Timestamp(a), Timestamp(b), n);
            assert_eq!(iter.len(), n);
            let lazy: Vec<Timestamp> = iter.collect();
            assert_eq!(eager, lazy, "start={a} end={b} n={n}");
        }
    }
}
