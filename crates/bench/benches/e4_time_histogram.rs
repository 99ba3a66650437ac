//! E4 — Fig. 1 (middle): the time histogram of cluster cardinality over time
//! ("the existence times of the clusters and the changes of their cardinality
//! over time can be explored using a time histogram").
//!
//! Benches the histogram construction for several bucket widths and prints
//! the peak-traffic series (per width: bucket count, busiest bucket and its
//! count) and the first 12 buckets at 15-minute resolution. No file records
//! them yet; ROADMAP item 10(c) will generate `EXPERIMENTS.md` from this
//! output.

use hermes_bench::harness::{bench, report};
use hermes_bench::{aircraft_s2t_params, aircraft_with};
use hermes_s2t::run_s2t;
use hermes_trajectory::Duration;
use hermes_va::time_histogram;

fn main() {
    let scenario = aircraft_with(36, 0xE4);
    let outcome = run_s2t(&scenario.trajectories, &aircraft_s2t_params());
    let widths_min = [5i64, 15, 60];

    let samples: Vec<_> = widths_min
        .iter()
        .map(|&m| {
            bench(format!("bucket_min/{m}"), 10, || {
                time_histogram(&outcome.result, Duration::from_mins(m))
            })
        })
        .collect();
    report("e4_time_histogram", &samples);

    eprintln!("\n# E4 summary: cluster-cardinality histogram (Fig. 1 middle)");
    eprintln!(
        "{:>12} {:>10} {:>14} {:>12}",
        "bucket_min", "buckets", "peak_at_ms", "peak_count"
    );
    for &m in &widths_min {
        let h = time_histogram(&outcome.result, Duration::from_mins(m));
        let (peak_at, peak) = h.peak_bucket().expect("non-empty result");
        eprintln!(
            "{:>12} {:>10} {:>14} {:>12}",
            m,
            h.num_buckets(),
            peak_at.millis(),
            peak
        );
    }
    // The stacked series itself (first 12 buckets at 15-minute resolution),
    // i.e. the data behind the figure.
    let h = time_histogram(&outcome.result, Duration::from_mins(15));
    eprintln!("\nbucket_start_ms, total_active_sub_trajectories");
    for (start, total) in h.bucket_starts.iter().zip(h.totals()).take(12) {
        eprintln!("{}, {}", start.millis(), total);
    }
}
