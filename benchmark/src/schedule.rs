//! The open-loop arrival schedule.

use hermes_datagen::SplitMix64;

/// Intended send times, in nanoseconds from the start of the measured
/// section, of `n` operations arriving at `rate_per_s`: seeded exponential
/// gaps (independent users), rescaled so the `n` gaps add up to exactly
/// `n / rate_per_s`. Without the rescaling the offered load itself would
/// differ by 1/√n between seeds, and goodput — which should equal the
/// offered rate — would carry that difference as noise.
pub fn exponential_schedule(rng: &mut SplitMix64, n: usize, rate_per_s: f64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    if total <= 0.0 {
        return vec![0; n];
    }
    let scale = n as f64 / rate_per_s / total * 1e9;
    let mut at = 0.0;
    gaps.iter()
        .map(|gap| {
            at += gap * scale;
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_monotone_and_spans_the_nominal_duration() {
        let a = exponential_schedule(&mut SplitMix64::new(7), 400, 20.0);
        let b = exponential_schedule(&mut SplitMix64::new(7), 400, 20.0);
        let c = exponential_schedule(&mut SplitMix64::new(8), 400, 20.0);
        assert_eq!(a, b, "equal seeds give equal schedules");
        assert_ne!(a, c, "another seed gives another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 400 ops at 20/s end at 20 s (to float rounding), whatever the seed.
        for s in [&a, &c] {
            let end_s = *s.last().unwrap() as f64 / 1e9;
            assert!((end_s - 20.0).abs() < 1e-3, "ends at {end_s}");
        }
        // The gaps are not all alike: this is not a fixed-interval schedule.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        assert!(crate::stats::coefficient_of_variation(&gaps) > 0.7);
    }

    #[test]
    fn empty_schedule() {
        assert!(exponential_schedule(&mut SplitMix64::new(1), 0, 5.0).is_empty());
    }
}
