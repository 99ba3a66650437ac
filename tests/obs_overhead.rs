//! The observability cost bound: the per-request instrument updates a server
//! performs must cost under 5 % of the statement they instrument.
//!
//! Every request pays a fixed toll: registry counter updates, one
//! latency-histogram observation, and one span with the statement text and
//! status attributes recorded into the ring buffer. The workload is cheap
//! `RANGE` probes plus periodic `QUT` clusterings — the worst case for a
//! *relative* overhead, because the queries themselves are fast. The gated
//! ratio is the instrument block timed alone in a tight loop over its
//! median bare statement time: that is stable on a shared machine, where an
//! A/B of instrumented vs bare execution buries the same quantity in
//! scheduler noise many times its size.
//!
//! A timing bound means nothing unoptimised, so the test is ignored in debug
//! builds; run it with `cargo test --release --test obs_overhead`.

use hermes::core::HermesEngine;
use hermes::obs::trace::DEFAULT_SPAN_CAPACITY;
use hermes::obs::{next_id, Registry, Span, SpanStore, Status};
use hermes::retratree::ReTraTreeParams;
use hermes::server::ServerMetrics;
use hermes::sql::execute;
use hermes::trajectory::Duration as TrajDuration;
use hermes_bench::harness::{bench, report};
use hermes_bench::{aircraft_s2t_params, aircraft_with};
use std::sync::Arc;
use std::time::Duration;

/// Most the instrument block may cost, in percent of a bare statement.
const BOUND_PCT: f64 = 5.0;

fn statements(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let window_end = 1_800_000 + (i as i64 % 4) * 900_000;
            if i % 4 == 0 {
                format!("SELECT QUT(data, 0, {window_end}, 0.35, 0.05, 300000, 6000, 1800000);")
            } else {
                format!("SELECT RANGE(data, 0, {window_end});")
            }
        })
        .collect()
}

/// The span `record_request_span` records for a text `Query`: the request's
/// text copied once into the shared statement, a status, no other
/// attributes.
fn query_span(sql: &str) -> Span {
    Span {
        trace_id: next_id(),
        span_id: next_id(),
        parent_span_id: 0,
        name: "query".into(),
        start_us: 0,
        duration_us: 70,
        statement: Some(Arc::from(sql)),
        status: Some(Status::Ok),
        attrs: Vec::new(),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bound, measured in release")]
fn instrument_updates_cost_under_five_percent_of_a_statement() {
    let iters = 9;
    let queries = statements(160);

    let mut engine = HermesEngine::new();
    engine.create_dataset("data").unwrap();
    engine
        .load_trajectories("data", aircraft_with(60, 0xE13).trajectories)
        .unwrap();
    engine
        .build_index(
            "data",
            ReTraTreeParams {
                chunk_duration: TrajDuration::from_hours(2),
                s2t: aircraft_s2t_params(),
                ..ReTraTreeParams::default()
            },
        )
        .unwrap();

    // The exact per-request observability state a server carries.
    let registry = Registry::new();
    let metrics = ServerMetrics::register(&registry);
    let spans = SpanStore::default();
    // A serving process's store is full: every record below evicts a span
    // whose statement it holds alone, and so frees it.
    for q in queries.iter().cycle().take(DEFAULT_SPAN_CAPACITY) {
        spans.record(query_span(q));
    }

    let bare = bench("bare", iters, || {
        for q in &queries {
            execute(&mut engine, q).expect("bare query");
        }
    });
    // One request's instruments, as the server updates them for a text
    // query: the byte counters, the latency observation, the served counter
    // and its root span.
    let instruments = bench("instruments_only", iters, || {
        for q in &queries {
            metrics.bytes_in.add(q.len() as u64);
            metrics.latency.record(Duration::from_micros(70));
            metrics.queries_served.inc();
            metrics.bytes_out.add(q.len() as u64);
            spans.record(query_span(q));
        }
    });
    report("obs_overhead", &[bare.clone(), instruments.clone()]);

    let overhead_pct = instruments.median_ms / bare.median_ms * 100.0;
    assert!(
        overhead_pct <= BOUND_PCT,
        "the instruments cost {overhead_pct:.3} % of a bare statement \
         ({:.3} us of {:.3} us), over the {BOUND_PCT} % bound",
        instruments.median_ms * 1_000.0 / queries.len() as f64,
        bare.median_ms * 1_000.0 / queries.len() as f64,
    );
}
