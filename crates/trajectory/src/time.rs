//! Time axis primitives: [`Timestamp`], [`Duration`] and [`TimeInterval`].
//!
//! All timestamps in the workspace are integral milliseconds since an
//! arbitrary epoch. Integer time keeps the temporal levels of the ReTraTree
//! (chunk boundaries, sub-chunk splits) exact and hashable.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point on the time axis, in milliseconds since the dataset epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// A signed length of time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Timestamp {
    /// The smallest representable timestamp.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The largest representable timestamp.
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Creates a timestamp from raw milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1000)
    }

    /// Raw milliseconds since the epoch.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// The timestamp as fractional seconds (used by distance kernels).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The earlier of two timestamps.
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Duration(s * 1000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: i64) -> Self {
        Duration(m * 60_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: i64) -> Self {
        Duration(h * 3_600_000)
    }

    /// Raw milliseconds.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Absolute value of the duration.
    pub const fn abs(self) -> Duration {
        Duration(self.0.abs())
    }

    /// True when the duration is zero or negative.
    pub const fn is_empty(self) -> bool {
        self.0 <= 0
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A half-open-free, *closed* temporal interval `[start, end]`.
///
/// Closed intervals match the semantics of the QuT-Clustering temporal window
/// `W = [Wi, We]` in the paper: a sub-trajectory participates whenever its
/// lifespan intersects `W`, boundaries included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    /// Inclusive start of the interval.
    pub start: Timestamp,
    /// Inclusive end of the interval.
    pub end: Timestamp,
}

impl TimeInterval {
    /// Creates a new interval, panicking if `start > end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(
            start <= end,
            "TimeInterval start {start} must not exceed end {end}"
        );
        TimeInterval { start, end }
    }

    /// An interval spanning the entire time axis.
    pub const fn everything() -> Self {
        TimeInterval {
            start: Timestamp::MIN,
            end: Timestamp::MAX,
        }
    }

    /// Length of the interval.
    pub fn length(&self) -> Duration {
        self.end - self.start
    }

    /// True if `t` lies inside the interval (boundaries included).
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// True if `other` is fully contained in `self`.
    pub fn contains_interval(&self, other: &TimeInterval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True if the two intervals share at least one instant.
    pub fn intersects(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The overlapping part of two intervals, if any.
    pub fn intersection(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(TimeInterval { start, end })
        } else {
            None
        }
    }

    /// The smallest interval covering both inputs.
    pub fn union(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Temporal gap between two disjoint intervals (zero when they intersect).
    pub fn gap(&self, other: &TimeInterval) -> Duration {
        if self.intersects(other) {
            Duration::ZERO
        } else if self.end < other.start {
            other.start - self.end
        } else {
            self.start - other.end
        }
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(5);
        assert_eq!((t + d).millis(), 15_000);
        assert_eq!((t - d).millis(), 5_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_constructors_are_consistent() {
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_mins(1), Duration::from_secs(60));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
    }

    #[test]
    fn interval_containment_and_intersection() {
        let a = TimeInterval::new(Timestamp(0), Timestamp(100));
        let b = TimeInterval::new(Timestamp(50), Timestamp(150));
        let c = TimeInterval::new(Timestamp(200), Timestamp(300));

        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(
            a.intersection(&b),
            Some(TimeInterval::new(Timestamp(50), Timestamp(100)))
        );
        assert_eq!(a.intersection(&c), None);
        assert!(a.contains(Timestamp(100)));
        assert!(!a.contains(Timestamp(101)));
        assert!(a.contains_interval(&TimeInterval::new(Timestamp(10), Timestamp(90))));
        assert!(!a.contains_interval(&b));
    }

    #[test]
    fn interval_union_and_gap() {
        let a = TimeInterval::new(Timestamp(0), Timestamp(100));
        let c = TimeInterval::new(Timestamp(200), Timestamp(300));
        assert_eq!(a.union(&c), TimeInterval::new(Timestamp(0), Timestamp(300)));
        assert_eq!(a.gap(&c), Duration(100));
        assert_eq!(c.gap(&a), Duration(100));
        assert_eq!(a.gap(&a), Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn interval_rejects_inverted_bounds() {
        let _ = TimeInterval::new(Timestamp(10), Timestamp(0));
    }

    #[test]
    fn boundary_touching_intervals_intersect() {
        let a = TimeInterval::new(Timestamp(0), Timestamp(100));
        let b = TimeInterval::new(Timestamp(100), Timestamp(200));
        assert!(a.intersects(&b));
        assert_eq!(
            a.intersection(&b),
            Some(TimeInterval::new(Timestamp(100), Timestamp(100)))
        );
    }
}
