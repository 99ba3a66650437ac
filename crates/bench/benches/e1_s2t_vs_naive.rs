//! E1 — the "orders of magnitude speedup in comparison to corresponding
//! PostgreSQL functions" claim (§III, preparatory phase), extended with the
//! flat-hot-path comparison.
//!
//! Two voting implementations are measured on the seeded urban workload:
//!
//! * `arena`     — SoA `SegmentArena` + `PackedSegmentIndex` with the
//!   batched SIMD kernel and the lower-bound pruning ladder (the hot path),
//! * `naive`     — the quadratic enumeration (the paper's baseline).
//!
//! (Two more were measured against `arena` and deleted once recorded: a
//! frozen copy of the first arena loop, 1.2–1.4×, and the object-graph
//! R-tree path the pipeline used before the arena landed; see
//! `docs/KERNELS.md`.)
//!
//! The correctness gate asserts both produce **bit-identical votes** and
//! that the full pipelines agree on clusters and outliers; the bench aborts
//! on any mismatch. Timings (including the arena-vs-naive voting speedup and
//! per-phase pipeline breakdowns) are informational and land in
//! `BENCH_e1_s2t_vs_naive.json`.
//!
//! Env knobs: `HERMES_BENCH_QUICK=1` shrinks the sweep for CI smoke runs;
//! `HERMES_BENCH_DIR` redirects the JSON output.

use hermes_bench::harness::{bench, bench_pair, report, JsonReport};
use hermes_bench::{urban_s2t_params, urban_with};
use hermes_exec::Executor;
use hermes_s2t::{
    arena_voting, arena_voting_counted_with, naive_voting, run_s2t, run_s2t_naive,
    PackedSegmentIndex, SegmentArena,
};
use hermes_trajectory::{mean_sync_distance_batch_at, simd_level, SimdLevel};

fn main() {
    let quick = std::env::var("HERMES_BENCH_QUICK").is_ok_and(|v| v == "1");
    let params = urban_s2t_params();
    // The first size is THE seeded urban dataset of the headline claim; the
    // larger sizes chart how the advantage evolves as kernel work grows.
    let sizes: &[usize] = if quick { &[24] } else { &[24, 48, 96, 192] };
    let iters: u32 = if quick { 5 } else { 10 };

    let mut samples = Vec::new();
    let mut json = JsonReport::new("e1_s2t_vs_naive");

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
        let fast = run_s2t(trajs, &params);
        let slow = run_s2t_naive(trajs, &params);
        assert_eq!(fast.profiles, slow.profiles, "pipeline votes diverged");
        assert_eq!(fast.result.num_clusters(), slow.result.num_clusters());
        assert_eq!(fast.result.num_outliers(), slow.result.num_outliers());
        eprintln!(
            "gate ok: {} trajectories, {} segments, bit-identical votes",
            trajs.len(),
            arena.num_segments()
        );

        // --- Voting phase only: the hot path against the baseline.
        let s_arena_vote = bench(label("vote-arena"), iters, || {
            arena_voting(&arena, &packed, &params)
        });
        let s_naive_vote = bench(label("vote-naive"), iters.min(3), || {
            naive_voting(trajs, &params)
        });
        let voting_speedup = s_naive_vote.median_ms / s_arena_vote.median_ms.max(1e-9);

        // --- Kernel floor in isolation: the batched distance kernel against
        // one query segment, scalar lanes vs the dispatched SIMD width. Only
        // candidates whose lifespan overlaps the query's are gathered — the
        // population the voting ladder actually sends to the kernel. (On
        // disjoint pairs the scalar lane wins by an early return the
        // branchless vector lanes don't take, but the temporal partition
        // means voting never evaluates those.) This is the voting ratio with
        // probe and ladder costs stripped away — how close the hot
        // arithmetic sits to the hardware's div/sqrt throughput floor.
        let q = arena.lanes(0);
        let mut lanes = (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        for gs in 0..arena.num_segments() {
            let l = arena.lanes(gs);
            if l.t0 <= q.t1 && q.t0 <= l.t1 {
                lanes.0.push(l.x0);
                lanes.1.push(l.y0);
                lanes.2.push(l.x1);
                lanes.3.push(l.y1);
                lanes.4.push(l.t0);
                lanes.5.push(l.t1);
            }
        }
        // Tile the overlap set until a batch call is comfortably above the
        // clock quantum — repeating pairs changes nothing about the
        // arithmetic being timed, only the sample duration.
        let base = lanes.0.len();
        while lanes.0.len() < 4096 {
            for i in 0..base {
                lanes.0.push(lanes.0[i]);
                lanes.1.push(lanes.1[i]);
                lanes.2.push(lanes.2[i]);
                lanes.3.push(lanes.3[i]);
                lanes.4.push(lanes.4[i]);
                lanes.5.push(lanes.5[i]);
            }
        }
        let m = lanes.0.len();
        let mut out_simd = vec![0.0; m];
        let mut out_scalar = vec![0.0; m];
        let (s_kernel_simd, s_kernel_scalar) = bench_pair(
            label("kernel-simd"),
            label("kernel-scalar"),
            5,
            (iters / 5).max(1),
            || {
                mean_sync_distance_batch_at(
                    simd_level(),
                    &q,
                    &lanes.0,
                    &lanes.1,
                    &lanes.2,
                    &lanes.3,
                    &lanes.4,
                    &lanes.5,
                    &mut out_simd,
                );
            },
            || {
                mean_sync_distance_batch_at(
                    SimdLevel::Scalar,
                    &q,
                    &lanes.0,
                    &lanes.1,
                    &lanes.2,
                    &lanes.3,
                    &lanes.4,
                    &lanes.5,
                    &mut out_scalar,
                );
            },
        );
        assert!(
            out_simd
                .iter()
                .zip(&out_scalar)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "SIMD batch kernel diverged bitwise from the scalar lanes"
        );
        let kernel_speedup = s_kernel_scalar.median_ms / s_kernel_simd.median_ms.max(1e-9);

        // --- Index construction.
        let s_arena_build = bench(label("build-arena"), iters, || {
            let a = SegmentArena::build(trajs);
            let p = PackedSegmentIndex::build(&a);
            (a.num_segments(), p.len())
        });

        // --- Whole pipelines with phase breakdowns (the original E1 table).
        let s_pipeline = bench(label("s2t"), iters, || run_s2t(trajs, &params));
        let s_pipeline_naive = bench(label("s2t-naive"), iters.min(3), || {
            run_s2t_naive(trajs, &params)
        });
        let t = run_s2t(trajs, &params).timings;

        json.push_with(
            s_arena_vote.clone(),
            vec![
                ("segments".into(), arena.num_segments() as f64),
                ("threads".into(), 1.0),
                ("speedup_vs_naive".into(), voting_speedup),
                ("kernel_evaluated".into(), kernel.evaluated as f64),
                ("kernel_pruned".into(), kernel.pruned as f64),
                ("kernel_simd_speedup".into(), kernel_speedup),
                ("simd_lanes".into(), simd_level().lanes() as f64),
                ("gate_bit_identical".into(), 1.0),
                ("headline".into(), if n == sizes[0] { 1.0 } else { 0.0 }),
            ],
        );
        json.push(s_kernel_simd.clone());
        json.push(s_kernel_scalar.clone());
        json.push(s_naive_vote.clone());
        json.push(s_arena_build.clone());
        json.push_with(
            s_pipeline.clone(),
            vec![
                ("index_build_ms".into(), t.index_build_ms),
                ("voting_ms".into(), t.voting_ms),
                ("segmentation_ms".into(), t.segmentation_ms),
                ("sampling_ms".into(), t.sampling_ms),
                ("clustering_ms".into(), t.clustering_ms),
            ],
        );
        json.push(s_pipeline_naive.clone());

        eprintln!(
            "voting speedup (arena vs naive, 1 thread, {} trajs): {:.2}x",
            trajs.len(),
            voting_speedup
        );
        eprintln!(
            "pruning ladder ({} lanes, {} trajs): evaluated {}, pruned {}",
            simd_level().lanes(),
            trajs.len(),
            kernel.evaluated,
            kernel.pruned
        );
        eprintln!(
            "kernel-only speedup (batched SIMD vs scalar lanes, {} segments): {:.2}x",
            m, kernel_speedup
        );

        samples.extend([
            s_arena_vote,
            s_kernel_simd,
            s_kernel_scalar,
            s_naive_vote,
            s_arena_build,
            s_pipeline,
            s_pipeline_naive,
        ]);
    }
    report("e1_s2t_vs_naive", &samples);
    json.write().expect("write BENCH_e1_s2t_vs_naive.json");

    // Summary series (the numbers recorded in EXPERIMENTS.md).
    eprintln!("\n# E1 summary: indexed (arena) vs naive S2T");
    eprintln!(
        "{:>8} {:>12} {:>12} {:>9}",
        "vehicles", "indexed_ms", "naive_ms", "speedup"
    );
    for &n in sizes {
        let scenario = urban_with(n, 0xE1);
        let fast = bench("indexed", 3, || run_s2t(&scenario.trajectories, &params));
        let slow = bench("naive", 3, || {
            run_s2t_naive(&scenario.trajectories, &params)
        });
        eprintln!(
            "{:>8} {:>12.1} {:>12.1} {:>8.1}x",
            scenario.trajectories.len(),
            fast.median_ms,
            slow.median_ms,
            slow.median_ms / fast.median_ms.max(1e-9)
        );
    }
}
