//! What a report carries besides its numbers: the metric tables (the Rust
//! twin of `BENCHMARK.json`, kept equal by `tests/contract.rs`), the machine
//! fingerprint, and the JSON result line.

use crate::run::{Metric, Outcome};
use crate::workload::Workload;
use std::fmt::Write as _;
use std::path::Path;

/// `--seconds` when none is given; `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 32;

/// End-to-end metrics: name, unit, whether higher is better, bound.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("setup_s", "s", false, 0.25),
    ("ops_per_s", "1/s", true, 0.25),
    ("key_op_p50_ms", "ms", false, 0.25),
    ("server_cpu_ms_per_op", "ms", false, 0.25),
    ("server_peak_rss_mb", "MiB", false, 0.10),
];

/// Per-layer metrics a traced run prints: name and unit, grouped by layer
/// (= crate). The generator and the servers' own counters give the
/// `client.*`, `obs.*` and a few others; `hermes-benchmark-trace` times the
/// rest from outside.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("trajectory.kernel_ns_per_pair", "ns"),
    ("gist.pack_ms", "ms"),
    ("gist.probe_us_per_query", "us"),
    ("gist.candidates_per_probe", "count"),
    ("s2t.arena_build_ms", "ms"),
    ("s2t.voting_ms", "ms"),
    ("s2t.segmentation_ms", "ms"),
    ("s2t.sampling_ms", "ms"),
    ("s2t.clustering_ms", "ms"),
    ("s2t.pairs_evaluated", "count"),
    ("s2t.pairs_pruned", "count"),
    ("s2t.prune_ratio", "ratio"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.forkjoin_overhead_us", "us"),
    ("retratree.build_ms", "ms"),
    ("retratree.qut_aligned_ms", "ms"),
    ("retratree.qut_border_ms", "ms"),
    ("retratree.reused_subchunks", "count"),
    ("retratree.reclustered_subchunks", "count"),
    ("retratree.loaded_subs", "count"),
    ("retratree.merge_partials_ms", "ms"),
    ("retratree.insert_us_per_traj", "us"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("storage.buffer_evictions", "count"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_fsyncs", "count"),
    ("storage.wal_fsync_ms", "ms"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.snapshot_write_ms", "ms"),
    ("storage.snapshot_bytes_per_user_byte", "ratio"),
    ("core.publish_ms", "ms"),
    ("core.publish_growth", "ratio"),
    ("core.fork_snapshot_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.recover_ms", "ms"),
    ("core.epochs_published", "count"),
    ("sql.parse_us", "us"),
    ("sql.execute_self_us", "us"),
    ("sql.prepared_hit_ratio", "ratio"),
    ("sql.frame_rows", "count"),
    ("server.encode_request_us", "us"),
    ("server.decode_request_us", "us"),
    ("server.encode_response_us", "us"),
    ("server.decode_response_us", "us"),
    ("server.response_bytes", "B"),
    ("server.roundtrip_overhead_us", "us"),
    ("server.query_latency_sum_ms", "ms"),
    ("server.backpressure_rejections", "count"),
    ("server.deadline_misses", "count"),
    ("coord.route_overhead_ms", "ms"),
    ("coord.fanout_ms", "ms"),
    ("coord.merge_ms", "ms"),
    ("coord.shard_skew", "ratio"),
    ("coord.ingest_fanout_ms", "ms"),
    ("coord.failovers", "count"),
    ("coord.hedges", "count"),
    ("obs.scrape_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("client.key_op_p90_ms", "ms"),
    ("client.key_op_p99_ms", "ms"),
    ("client.send_lag_p99_ms", "ms"),
    ("client.late_frac", "ratio"),
    ("client.failed_ops", "count"),
    ("client.ops_per_s_wall", "1/s"),
    ("client.round_cv", "ratio"),
    ("layers.key_op_compute_share", "ratio"),
    ("layers.key_op_storage_share", "ratio"),
    ("layers.key_op_coord_share", "ratio"),
];

/// The text of `BENCHMARK.json`: how the driver runs the benchmark and
/// which metrics it gates.
pub fn benchmark_json() -> String {
    let mut json = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(json, "  \"run_seconds\": {DEFAULT_SECONDS},");
    json.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::GATED.iter().enumerate() {
        let comma = if i + 1 < Workload::GATED.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    json.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, higher, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let better = if *higher { "higher" } else { "lower" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}"
        );
    }
    json.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = if HIGHER_IS_BETTER.contains(name) {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// The per-layer metrics where more is better; for every other one, less.
const HIGHER_IS_BETTER: [&str; 9] = [
    "s2t.pairs_pruned",
    "s2t.prune_ratio",
    "exec.parallel_efficiency",
    "retratree.reused_subchunks",
    "storage.buffer_hit_ratio",
    "sql.prepared_hit_ratio",
    "client.ops_per_s_wall",
    "layers.key_op_compute_share",
    "core.epochs_published",
];

/// Git sha, core count, SIMD level, `HERMES_*` environment and compiler:
/// what a number depends on besides the code. One line of JSON members.
pub fn fingerprint() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HERMES_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"git_sha\":\"{}\",\"nproc\":{cores},\"simd\":\"{}\",\"hermes_env\":\"{}\",\"rustc\":\"{}\",\
         \"wal_policy\":\"default: fsync per 1 MiB unsynced\"",
        escape(&git_sha(&repo)),
        hermes_trajectory::simd_level().label(),
        escape(&env.join(" ")),
        escape(&rustc),
    )
}

/// The commit `HEAD` names, read from the files under `.git` — a benchmark
/// checkout need not be a repository, and then this is "unknown".
fn git_sha(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// `"name":{"value":v,"unit":"u"},…` — every digit the measurement has.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{comma}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    #[test]
    fn json_keeps_every_digit_and_survives_nan() {
        let metrics = [
            Metric {
                name: "a",
                value: 1.2034567891,
                unit: "ms",
            },
            Metric {
                name: "b",
                value: f64::NAN,
                unit: "1/s",
            },
        ];
        assert_eq!(
            metrics_json(&metrics),
            "\"a\":{\"value\":1.2034567891,\"unit\":\"ms\"},\"b\":{\"value\":0,\"unit\":\"1/s\"}"
        );
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c ");
    }
}
