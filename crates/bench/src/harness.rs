//! A dependency-free micro-benchmark harness.
//!
//! The experiment targets in `benches/` are plain `harness = false`
//! executables: each calls [`bench()`] per measured variant and [`report`] to
//! print an aligned summary, keeping the whole workspace buildable offline.
//! Timings are wall-clock medians over a fixed iteration count with one
//! warm-up run — adequate for the order-of-magnitude comparisons the paper's
//! experiments make (indexed vs naive, QuT vs rebuild).

use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Case label, e.g. `qut/25%`.
    pub label: String,
    /// Iterations measured (after one warm-up).
    pub iters: u32,
    /// Median per-iteration time in milliseconds.
    pub median_ms: f64,
    /// 95th-percentile per-iteration time in milliseconds (nearest-rank).
    pub p95_ms: f64,
    /// Fastest observed iteration in milliseconds.
    pub min_ms: f64,
    /// Slowest observed iteration in milliseconds.
    pub max_ms: f64,
}

/// Times `f` for `iters` iterations (plus one warm-up) and returns the
/// sample. The closure's result is passed through [`black_box`] so the work
/// is not optimized away.
pub fn bench<T>(label: impl Into<String>, iters: u32, mut f: impl FnMut() -> T) -> Sample {
    bench_with_setup(label, iters, || (), |()| f())
}

/// [`fn@bench`] for a closure that consumes per-iteration state: `setup` runs
/// untimed before every iteration (warm-up included) and its result is handed
/// to `f`, whose call alone is timed — e.g. a fresh `clone()` so every
/// iteration starts from cold derived state.
pub fn bench_with_setup<S, T>(
    label: impl Into<String>,
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> Sample {
    let iters = iters.max(1);
    black_box(f(setup()));
    let mut times_ms: Vec<f64> = (0..iters)
        .map(|_| {
            let state = setup();
            let started = Instant::now();
            black_box(f(state));
            started.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    times_ms.sort_by(f64::total_cmp);
    // Nearest-rank p95: the smallest time ≥ 95% of observations.
    let p95_idx = ((times_ms.len() * 95).div_ceil(100)).clamp(1, times_ms.len()) - 1;
    Sample {
        label: label.into(),
        iters: times_ms.len() as u32,
        median_ms: times_ms[times_ms.len() / 2],
        p95_ms: times_ms[p95_idx],
        min_ms: times_ms[0],
        max_ms: times_ms[times_ms.len() - 1],
    }
}

/// Prints samples as an aligned table on stderr (matching the summary style
/// the experiment targets already use).
pub fn report(title: &str, samples: &[Sample]) {
    eprintln!("\n## {title}");
    let width = samples
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(0)
        .max("case".len());
    eprintln!(
        "{:>width$} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "case", "iters", "median_ms", "p95_ms", "min_ms", "max_ms"
    );
    for s in samples {
        eprintln!(
            "{:>width$} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            s.label, s.iters, s.median_ms, s.p95_ms, s.min_ms, s.max_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_labels() {
        let mut calls = 0u32;
        let s = bench("spin", 5, || {
            calls += 1;
            (0..1000).sum::<u64>()
        });
        assert_eq!(s.label, "spin");
        assert_eq!(s.iters, 5);
        assert_eq!(calls, 6, "one warm-up plus five measured iterations");
        assert!(s.min_ms <= s.median_ms && s.median_ms <= s.max_ms);
        assert!(s.median_ms <= s.p95_ms && s.p95_ms <= s.max_ms);
        report("test", &[s]);
    }

    #[test]
    fn zero_iterations_are_clamped() {
        let s = bench("once", 0, || 1 + 1);
        assert_eq!(s.iters, 1);
        assert_eq!(
            s.p95_ms, s.median_ms,
            "single observation: all quantiles agree"
        );
    }
}
