//! Metrics: typed lock-free counters, gauges and fixed-bucket histograms,
//! the [`Stat`] lists a stats scope renders its numbers from, and
//! Prometheus text-format rendering.
//!
//! Hot paths hold their instruments as `Arc`s and update them with single
//! relaxed atomic ops. Nothing is registered by name: at `SHOW STATS` and
//! scrape time each scope (the engine, a server, a coordinator's shard)
//! builds one list of [`Stat`]s from its instruments. [`rows`] turns a list
//! into `SHOW STATS` rows; a [`Registry`] pulls the lists from its
//! collectors and renders their series for `/metrics`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter backed by a relaxed `AtomicU64`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a standalone counter (not attached to any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge over a non-negative integer quantity (queue depth, active
/// connections, resident bytes). Decrements saturate at zero.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Create a standalone gauge (not attached to any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Set to an absolute value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (microseconds, bytes).
///
/// Internally each bucket counts its **own interval** (non-cumulative); the
/// cumulative `le` form required by the Prometheus exposition format is
/// produced at render time via [`HistogramSnapshot::cumulative`].
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus a final overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Create a histogram with the given inclusive upper bounds, which must
    /// be strictly increasing.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The configured inclusive upper bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Total of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of the current state (individual loads are
    /// relaxed; exact cross-field consistency is not guaranteed under
    /// concurrent writes, which is fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`], in non-cumulative interval form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, one per interval bucket.
    pub bounds: &'static [u64],
    /// Interval counts: `buckets[i]` counts observations in
    /// `(bounds[i-1], bounds[i]]`; the final slot counts overflow.
    pub buckets: Vec<u64>,
    /// Total of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Convert the interval buckets to cumulative Prometheus `le` form.
    ///
    /// Returns `(bound, cumulative_count)` pairs, one per configured bound,
    /// followed by the implicit `+Inf` bucket equal to `count`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            running += c;
            let bound = match self.bounds.get(i) {
                Some(&b) => b as f64,
                None => f64::INFINITY,
            };
            out.push((bound, running));
        }
        out
    }
}

/// The value of one exported number; its variant is the series kind.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram snapshot (rendered as `_bucket`/`_sum`/`_count`).
    Histogram(HistogramSnapshot),
}

/// One number of a stats scope: its `SHOW STATS` row, its `/metrics` series,
/// or both.
///
/// Each scope (the engine, a server, a coordinator's shard) writes its
/// numbers once, as one list of these built at `SHOW STATS` and scrape time.
/// [`rows`] renders the list's rows; [`Registry::render_prometheus`] renders
/// its series. A number on one side only says so here: `row` or `series` is
/// `None`.
#[derive(Debug, Clone)]
pub struct Stat {
    /// `SHOW STATS` metric name (the caller adds the scope); `None` for a
    /// number only `/metrics` exports.
    pub row: Option<String>,
    /// Metric family name (e.g. `hermes_server_queries_served_total`);
    /// `None` for a number only `SHOW STATS` shows.
    pub series: Option<&'static str>,
    /// One-line help text for the `# HELP` line.
    pub help: &'static str,
    /// Series label key/value pairs, may be empty.
    pub labels: Vec<(&'static str, String)>,
    /// The value.
    pub value: SampleValue,
}

impl Stat {
    fn new<'a>(
        row: impl Into<Option<&'a str>>,
        series: impl Into<Option<&'static str>>,
        help: &'static str,
        value: SampleValue,
    ) -> Stat {
        Stat {
            row: row.into().map(str::to_string),
            series: series.into(),
            help,
            labels: Vec::new(),
            value,
        }
    }

    /// A monotone count.
    pub fn counter<'a>(
        row: impl Into<Option<&'a str>>,
        series: impl Into<Option<&'static str>>,
        help: &'static str,
        value: u64,
    ) -> Stat {
        Stat::new(row, series, help, SampleValue::Counter(value))
    }

    /// A level that may go down.
    pub fn gauge<'a>(
        row: impl Into<Option<&'a str>>,
        series: impl Into<Option<&'static str>>,
        help: &'static str,
        value: u64,
    ) -> Stat {
        Stat::new(row, series, help, SampleValue::Gauge(value))
    }

    /// A histogram's current state. Its rows are `<row>_total` (the sum),
    /// one `<row>_le_<bound>` per bound and `<row>_gt_<last bound>`, each
    /// counting its own interval only.
    pub fn histogram(
        row: &str,
        series: &'static str,
        help: &'static str,
        histogram: &Histogram,
    ) -> Stat {
        Stat::new(
            row,
            series,
            help,
            SampleValue::Histogram(histogram.snapshot()),
        )
    }

    /// The same number with one more series label.
    pub fn label(mut self, key: &'static str, value: impl Into<String>) -> Stat {
        self.labels.push((key, value.into()));
        self
    }

    fn kind(&self) -> &'static str {
        match self.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        }
    }
}

/// The `SHOW STATS` rows of a scope's list, `(metric, value)` in list order;
/// entries without a row are skipped.
pub fn rows(stats: &[Stat]) -> Vec<(String, i64)> {
    let mut out = Vec::with_capacity(stats.len());
    for stat in stats {
        let Some(row) = &stat.row else { continue };
        match &stat.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => out.push((row.clone(), *v as i64)),
            SampleValue::Histogram(snap) => {
                out.push((format!("{row}_total"), snap.sum as i64));
                for (i, count) in snap.buckets.iter().enumerate() {
                    let label = match snap.bounds.get(i) {
                        Some(bound) => format!("{row}_le_{bound}"),
                        None => format!("{row}_gt_{}", snap.bounds.last().unwrap_or(&0)),
                    };
                    out.push((label, *count as i64));
                }
            }
        }
    }
    out
}

type Collector = Box<dyn Fn() -> Vec<Stat> + Send + Sync>;

/// A process's `/metrics`: the stats lists of its scopes, each pulled from a
/// collector at every scrape.
#[derive(Default)]
pub struct Registry {
    collectors: Mutex<Vec<Collector>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a collector invoked at every scrape; it returns one scope's
    /// current list.
    pub fn register_collector<F>(&self, f: F)
    where
        F: Fn() -> Vec<Stat> + Send + Sync + 'static,
    {
        lock(&self.collectors).push(Box::new(f));
    }

    /// Render every collector's series in Prometheus text exposition format
    /// 0.0.4.
    ///
    /// Families are sorted by name, series by label key; histograms are
    /// exported as cumulative `le` buckets (including `+Inf`) plus `_sum`
    /// and `_count` series. Output is deterministic for a fixed state.
    pub fn render_prometheus(&self) -> String {
        let mut series: Vec<(&'static str, Stat)> = lock(&self.collectors)
            .iter()
            .flat_map(|collector| collector())
            .filter_map(|stat| Some((stat.series?, stat)))
            .collect();
        series.sort_by_cached_key(|(name, s)| (*name, render_labels(&s.labels)));
        let mut out = String::new();
        let mut last_name: Option<&'static str> = None;
        for (name, s) in &series {
            if last_name != Some(name) {
                let _ = writeln!(out, "# HELP {} {}", name, s.help);
                let _ = writeln!(out, "# TYPE {} {}", name, s.kind());
                last_name = Some(name);
            }
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", name, brace_labels(&s.labels), v);
                }
                SampleValue::Histogram(snap) => {
                    for (bound, cumulative) in snap.cumulative() {
                        let mut labels = s.labels.clone();
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            format!("{}", bound as u64)
                        };
                        labels.push(("le", le));
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            name,
                            brace_labels(&labels),
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_sum{} {}", name, brace_labels(&s.labels), snap.sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        name,
                        brace_labels(&s.labels),
                        snap.count
                    );
                }
            }
        }
        out
    }
}

/// Lock a mutex, recovering the guard if a panicking thread poisoned it —
/// metrics must never take a process down.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn render_labels(labels: &[(&'static str, String)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    parts.sort();
    parts.join(",")
}

fn brace_labels(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", render_labels(labels))
    }
}

/// Escape a label value per the Prometheus text format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[u64] = &[10, 100, 1000];

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(3);
        g.dec();
        g.dec();
        g.dec();
        g.dec(); // saturates at zero
        assert_eq!(g.get(), 0);
        g.inc();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn labelled_instruments_are_distinct() {
        // One family, two label sets: two series under one HELP/TYPE pair,
        // ordered by label.
        let reg = Registry::new();
        reg.register_collector(|| {
            vec![
                Stat::counter(None, "t_shard_total", "per shard", 1).label("shard", "b"),
                Stat::counter(None, "t_shard_total", "per shard", 2).label("shard", "a"),
            ]
        });
        assert_eq!(
            reg.render_prometheus(),
            "# HELP t_shard_total per shard\n# TYPE t_shard_total counter\n\
             t_shard_total{shard=\"a\"} 2\nt_shard_total{shard=\"b\"} 1\n"
        );
    }

    #[test]
    fn histogram_interval_buckets_convert_to_cumulative_le() {
        // Satellite 1: internal buckets stay non-cumulative; the exported
        // form is a cumulative prefix sum ending in +Inf == count.
        let h = Histogram::new(BOUNDS);
        h.observe(5); // le 10
        h.observe(10); // le 10 (inclusive bound)
        h.observe(50); // le 100
        h.observe(1000); // le 1000 (inclusive bound)
        h.observe(5000); // overflow
        let snap = h.snapshot();
        assert_eq!(
            snap.buckets,
            vec![2, 1, 1, 1],
            "internal form is per-interval"
        );
        assert_eq!(snap.sum, 5 + 10 + 50 + 1000 + 5000);
        assert_eq!(snap.count, 5);
        let cumulative = snap.cumulative();
        assert_eq!(cumulative.len(), 4);
        assert_eq!(cumulative[0], (10.0, 2));
        assert_eq!(cumulative[1], (100.0, 3));
        assert_eq!(cumulative[2], (1000.0, 4));
        assert!(cumulative[3].0.is_infinite());
        assert_eq!(cumulative[3].1, snap.count, "+Inf bucket equals count");
    }

    #[test]
    fn one_list_renders_rows_and_series_with_one_sided_entries() {
        let h = Histogram::new(BOUNDS);
        h.observe(50);
        h.observe(5000);
        let list = vec![
            Stat::counter("hits", "t_hits_total", "both sides", 4),
            Stat::gauge("durable", None, "", 1),
            Stat::gauge(None, "t_depth", "series only", 2),
            Stat::histogram("latency_us", "t_latency_us", "a histogram", &h),
        ];
        let rows: Vec<(String, i64)> = rows(&list);
        let names: Vec<&str> = rows.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(
            names,
            [
                "hits",
                "durable",
                "latency_us_total",
                "latency_us_le_10",
                "latency_us_le_100",
                "latency_us_le_1000",
                "latency_us_gt_1000",
            ]
        );
        let values: Vec<i64> = rows.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, [4, 1, 5050, 0, 1, 0, 1]);

        let reg = Registry::new();
        reg.register_collector(move || list.clone());
        let text = reg.render_prometheus();
        assert!(text.contains("t_hits_total 4"));
        assert!(text.contains("# TYPE t_depth gauge\nt_depth 2"));
        assert!(!text.contains("durable"), "a row-only entry has no series");
        assert!(text.contains("t_latency_us_bucket{le=\"1000\"} 1"));
        assert!(text.contains("t_latency_us_sum 5050"));
    }

    #[test]
    fn prometheus_render_is_deterministic_and_well_formed() {
        const MM: &[u64] = &[10, 100, 1000];
        let h = Histogram::new(MM);
        h.observe(50);
        let reg = Registry::new();
        reg.register_collector(|| vec![Stat::counter(None, "zz_total", "last family", 1)]);
        reg.register_collector(move || {
            vec![
                Stat::gauge(None, "aa_depth", "first family", 7),
                Stat::histogram("mm", "mm_us", "histogram family", &h),
                Stat::gauge(None, "cc_collected", "from a collector", 1).label("shard", "early"),
            ]
        });

        let text = reg.render_prometheus();
        assert_eq!(text, reg.render_prometheus(), "render is deterministic");

        // Families appear sorted by name.
        let aa = text.find("aa_depth").unwrap();
        let cc = text.find("cc_collected").unwrap();
        let mm = text.find("mm_us").unwrap();
        let zz = text.find("zz_total").unwrap();
        assert!(aa < cc && cc < mm && mm < zz);

        assert!(text.contains("# TYPE mm_us histogram"));
        assert!(text.contains("mm_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("mm_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mm_us_sum 50"));
        assert!(text.contains("mm_us_count 1"));
        assert!(text.contains("cc_collected{shard=\"early\"} 1"));

        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
            let name_part = series.split('{').next().unwrap();
            assert!(
                name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line}"
            );
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = vec![("q", "a\"b\\c\nd".to_string())];
        assert_eq!(render_labels(&labels), "q=\"a\\\"b\\\\c\\nd\"");
    }
}
