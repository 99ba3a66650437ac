//! E3 — scenario 2: the efficiency of QuT-Clustering for varying temporal
//! periods `W`, against the alternative strategy of "(i) extracting the
//! relevant records using a temporal range query, (ii) creating an R-tree
//! index on the result of the query, and (iii) applying clustering
//! (S2T-Clustering)".
//!
//! This is the paper's central quantitative comparison. The run prints one
//! summary row per window size: clusters, the rebuild / cold / warm
//! milliseconds, the rebuild's slowdown against each, and the sub-chunks
//! reused and re-clustered. No file records it yet; ROADMAP item 10(c) will
//! generate `EXPERIMENTS.md` from this output. Each window is reported
//! three ways: the
//! rebuild baseline, QuT **cold** (a fresh `clone()` of the tree per
//! iteration, so both memos are empty: every border sub-chunk is
//! re-clustered and every pair of stored representatives the merge needs is
//! measured — the paper's number) and QuT **warm** (the same window asked
//! again of the same tree value, borders and merge edges answered from the
//! memos). The run aborts unless warm and cold answer alike — serially, and
//! through `qut_clustering_with` on the deployment's executor
//! (`HERMES_THREADS`, else every core), where a warm window must also hand
//! no job to the pool.
//!
//! Env knob: `HERMES_BENCH_QUICK=1` shrinks the sweep for CI smoke runs.

use hermes_bench::harness::{bench, bench_with_setup, report};
use hermes_bench::{maritime_s2t_params, maritime_standard, qut_params, tree_params};
use hermes_exec::{ExecPolicy, Executor};
use hermes_retratree::{qut_clustering, qut_clustering_with, range_query_then_cluster, ReTraTree};
use hermes_trajectory::{Duration, TimeInterval};

fn main() {
    let scenario = maritime_standard(0xE3);
    let s2t = maritime_s2t_params();
    let tree = ReTraTree::build_from(tree_params(s2t.clone()), &scenario.trajectories);
    let exec = Executor::new(ExecPolicy::from_env());
    // Built on `exec` and asked only through it, so its memos fill there.
    let parallel_tree =
        ReTraTree::build_from_with(tree_params(s2t.clone()), &scenario.trajectories, &exec);
    let qut = qut_params(s2t.clone());
    let span = tree.lifespan().expect("tree holds data");
    let quick = std::env::var("HERMES_BENCH_QUICK").is_ok_and(|v| v == "1");
    let fractions: &[i64] = if quick {
        &[25, 100]
    } else {
        &[10, 25, 50, 75, 100]
    };
    let iters: u32 = if quick { 3 } else { 10 };
    let window = |pct: i64| {
        TimeInterval::new(
            span.start,
            span.start + Duration::from_millis(span.length().millis() * pct / 100),
        )
    };

    let mut samples = Vec::new();
    for &pct in fractions {
        let w = window(pct);
        samples.push(bench(format!("rebuild/{pct}%"), iters, || {
            range_query_then_cluster(&tree, &w, &s2t)
        }));
        samples.push(bench_with_setup(
            format!("qut-cold/{pct}%"),
            iters,
            || tree.clone(),
            |cold| qut_clustering(&cold, &w, &qut),
        ));
        // `bench`'s warm-up call is the one that fills the memo.
        samples.push(bench(format!("qut-warm/{pct}%"), iters, || {
            qut_clustering(&tree, &w, &qut)
        }));
    }
    report("e3_window_clustering", &samples);

    eprintln!("\n# E3 summary: range-query-then-recluster vs QuT cold / warm (single run each)");
    eprintln!(
        "{:>6} {:>9} {:>11} {:>9} {:>9} {:>8} {:>8} {:>7} {:>8}",
        "W(%)",
        "clusters",
        "rebuild_ms",
        "cold_ms",
        "warm_ms",
        "cold_x",
        "warm_x",
        "reused",
        "reclust"
    );
    for &pct in fractions {
        let w = window(pct);
        let (_, rs) = range_query_then_cluster(&tree, &w, &s2t);
        let (cold_result, cold) = qut_clustering(&tree.clone(), &w, &qut);
        let edges = tree.merge_edge_stats();
        let (warm_result, warm) = qut_clustering(&tree, &w, &qut);
        assert_eq!(warm_result, cold_result, "a memo changed an answer");
        assert_eq!(warm.merges, cold.merges, "a memo changed the merges");
        assert_eq!(
            tree.merge_edge_stats().misses,
            edges.misses,
            "a warm window measured a merge edge"
        );
        let (parallel_cold, _) = qut_clustering_with(&parallel_tree, &w, &qut, &exec);
        let jobs = exec.jobs();
        let (parallel_warm, _) = qut_clustering_with(&parallel_tree, &w, &qut, &exec);
        assert_eq!(parallel_cold, cold_result, "the executor changed an answer");
        assert_eq!(
            parallel_warm, cold_result,
            "a memo changed a parallel answer"
        );
        assert_eq!(exec.jobs(), jobs, "a warm window forked");
        eprintln!(
            "{:>6} {:>9} {:>11.2} {:>9.2} {:>9.2} {:>7.1}x {:>7.1}x {:>7} {:>8}",
            pct,
            cold_result.num_clusters(),
            rs.elapsed_ms,
            cold.elapsed_ms,
            warm.elapsed_ms,
            rs.elapsed_ms / cold.elapsed_ms.max(1e-9),
            rs.elapsed_ms / warm.elapsed_ms.max(1e-9),
            cold.reused_subchunks,
            cold.reclustered_subchunks
        );
    }
}
