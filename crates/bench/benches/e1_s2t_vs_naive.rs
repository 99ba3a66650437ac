//! E1 — the "orders of magnitude speedup in comparison to corresponding
//! PostgreSQL functions" claim (§III, preparatory phase), extended with the
//! flat-hot-path comparison.
//!
//! Two voting implementations are measured on the seeded urban workload:
//!
//! * `arena`     — SoA `SegmentArena` + `PackedSegmentIndex`: one sweep over
//!   time, a box-gap test and the batched SIMD kernel (the hot path),
//! * `naive`     — the quadratic enumeration (the paper's baseline).
//!
//! (Two more were measured against `arena` and deleted once recorded: a
//! frozen copy of the first arena loop, 1.2–1.4×, and the object-graph
//! R-tree path the pipeline used before the arena landed; see
//! `docs/KERNELS.md`.)
//!
//! The correctness gate asserts both produce **bit-identical votes** and
//! that the full pipelines agree on clusters and outliers; the bench aborts
//! on any mismatch. Timings (the arena-vs-naive voting speedup and the
//! indexed-vs-naive pipeline series) are informational and printed as
//! tables. The kernel alone and the per-phase pipeline breakdown are timed
//! by `benchmark/` (`trajectory.kernel_ns_per_pair`, `s2t.*_ms`).
//!
//! Env knobs: `HERMES_BENCH_QUICK=1` shrinks the sweep for CI smoke runs;
//! `HERMES_THREADS` sets the thread count the gate also runs the arena
//! voting and the indexed pipeline at (timings stay serial).

use hermes_bench::harness::{bench, report};
use hermes_bench::{urban_s2t_params, urban_with};
use hermes_exec::{ExecPolicy, Executor};
use hermes_s2t::{
    arena_voting_counted_with, arena_voting_with, naive_voting, run_s2t, run_s2t_naive,
    run_s2t_with, PackedSegmentIndex, SegmentArena,
};
use hermes_trajectory::simd_level;

fn main() {
    let quick = std::env::var("HERMES_BENCH_QUICK").is_ok_and(|v| v == "1");
    let params = urban_s2t_params();
    // The first size is THE seeded urban dataset of the headline claim; the
    // larger sizes chart how the advantage evolves as kernel work grows.
    let sizes: &[usize] = if quick { &[24] } else { &[24, 48, 96, 192] };
    let iters: u32 = if quick { 5 } else { 10 };
    let exec = Executor::new(ExecPolicy::from_env());

    let mut samples = Vec::new();
    let mut series = Vec::new();

    for &n in sizes {
        let scenario = urban_with(n, 0xE1);
        let trajs = &scenario.trajectories;
        let label = |kind: &str| format!("{kind}/{}", trajs.len());

        // --- Correctness gate: the two voting paths must agree bit for bit
        // before any timing is trusted.
        let arena = SegmentArena::build(trajs);
        let packed = PackedSegmentIndex::build(&arena);
        let (via_arena, kernel) =
            arena_voting_counted_with(&arena, &packed, &params, &Executor::serial());
        let via_naive = naive_voting(trajs, &params);
        assert_eq!(
            via_arena, via_naive,
            "arena voting diverged from the naive reference"
        );
        assert_eq!(
            arena_voting_with(&arena, &packed, &params, &exec),
            via_naive,
            "arena voting on {} threads diverged from the naive reference",
            exec.threads()
        );
        let fast = run_s2t_with(trajs, &params, &exec);
        let slow = run_s2t_naive(trajs, &params);
        assert_eq!(fast.profiles, slow.profiles, "pipeline votes diverged");
        assert_eq!(fast.result.num_clusters(), slow.result.num_clusters());
        assert_eq!(fast.result.num_outliers(), slow.result.num_outliers());
        eprintln!(
            "gate ok: {} trajectories, {} segments, bit-identical votes (1 and {} threads)",
            trajs.len(),
            arena.num_segments(),
            exec.threads()
        );

        // --- Voting phase only: the hot path against the baseline.
        let s_arena_vote = bench(label("vote-arena"), iters, || {
            arena_voting_with(&arena, &packed, &params, &Executor::serial())
        });
        let s_naive_vote = bench(label("vote-naive"), iters.min(3), || {
            naive_voting(trajs, &params)
        });
        let voting_speedup = s_naive_vote.median_ms / s_arena_vote.median_ms.max(1e-9);

        // --- Index construction.
        let s_arena_build = bench(label("build-arena"), iters, || {
            let a = SegmentArena::build(trajs);
            let p = PackedSegmentIndex::build(&a);
            (a.num_segments(), p.len())
        });

        // --- Whole pipelines (the original E1 table).
        let s_pipeline = bench(label("s2t"), iters, || run_s2t(trajs, &params));
        let s_pipeline_naive = bench(label("s2t-naive"), iters.min(3), || {
            run_s2t_naive(trajs, &params)
        });
        eprintln!(
            "voting speedup (arena vs naive, 1 thread, {} trajs): {:.2}x",
            trajs.len(),
            voting_speedup
        );
        eprintln!(
            "voting sweep ({} lanes, {} trajs): evaluated {}, pruned {}",
            simd_level().lanes(),
            trajs.len(),
            kernel.evaluated,
            kernel.pruned
        );
        series.push((
            trajs.len(),
            s_pipeline.median_ms,
            s_pipeline_naive.median_ms,
        ));

        samples.extend([
            s_arena_vote,
            s_naive_vote,
            s_arena_build,
            s_pipeline,
            s_pipeline_naive,
        ]);
    }
    report("e1_s2t_vs_naive", &samples);

    eprintln!("\n# E1 summary: indexed (arena) vs naive S2T");
    eprintln!(
        "{:>8} {:>12} {:>12} {:>9}",
        "vehicles", "indexed_ms", "naive_ms", "speedup"
    );
    for (vehicles, indexed_ms, naive_ms) in series {
        eprintln!(
            "{vehicles:>8} {indexed_ms:>12.1} {naive_ms:>12.1} {:>8.1}x",
            naive_ms / indexed_ms.max(1e-9)
        );
    }
}
