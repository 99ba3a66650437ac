//! Order statistics the reports are built from. All functions take their
//! samples by value or sort a copy; none of them panics on an empty input
//! (they return 0.0), so a failed run still prints a report.

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// nearest ranks — the "inclusive" method, so `percentile(v, 50.0)` is the
/// textbook median for both odd and even counts.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Cuts completion times (seconds since the measured section began, in any
/// order) into `rounds` equal-count rounds and returns each round's rate in
/// operations per second. A round lasts from the previous round's last
/// completion (0.0 for the first) to its own last completion. Completions
/// that do not fill a whole round are dropped from the tail.
pub fn round_rates(completions_s: &[f64], rounds: usize) -> Vec<f64> {
    let per_round = completions_s.len().checked_div(rounds).unwrap_or(0);
    if per_round == 0 {
        return Vec::new();
    }
    let mut sorted = completions_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut rates = Vec::with_capacity(rounds);
    let mut previous_end = 0.0;
    for round in 0..rounds {
        let end = sorted[(round + 1) * per_round - 1];
        let span = end - previous_end;
        if span > 0.0 {
            rates.push(per_round as f64 / span);
        }
        previous_end = end;
    }
    rates
}

/// Coefficient of variation (standard deviation ÷ mean) of `samples`.
pub fn coefficient_of_variation(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt() / mean
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads in `NOISE.md`
/// are the numbers the acceptance check computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    if samples.len() < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn round_rates_cut_equal_counts_and_the_median_ignores_a_stall() {
        // Ten ops per second for 3 s, then one op stalls for 5 s.
        let mut done: Vec<f64> = (1..=30).map(|i| i as f64 * 0.1).collect();
        done.push(8.0);
        done.extend((1..=9).map(|i| 8.0 + i as f64 * 0.1));
        let rates = round_rates(&done, 4);
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!(rates[3] < 2.0, "the stalled round is slow: {rates:?}");
        assert!((median(&rates) - 10.0).abs() < 1e-9);
        // Order of the input does not matter; too few samples give nothing.
        done.reverse();
        assert_eq!(round_rates(&done, 4), rates);
        assert!(round_rates(&[0.1, 0.2], 4).is_empty());
        assert!(round_rates(&[], 0).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn cv_of_a_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        assert!(coefficient_of_variation(&[1.0, 3.0]) > 0.5);
    }
}
