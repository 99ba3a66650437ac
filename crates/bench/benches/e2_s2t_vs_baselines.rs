//! E2 — scenario 1 / Fig. 3: S2T-Clustering compared against the related
//! methods the demo lets the user play with (TRACLUS, T-OPTICS, Convoys),
//! plus the comparison of two S2T parameterisations.
//!
//! Each method is timed on the same aircraft workload. The run prints the
//! timing table, then a summary table of method-agnostic quality numbers
//! (clusters and noise per method, in each method's own unit) and the
//! agreement of the two S2T parameterisations. No file records them yet;
//! ROADMAP item 10(c) will generate `EXPERIMENTS.md` from this output.

use hermes_baselines::{
    discover_convoys, t_optics, traclus, ConvoyParams, TOpticsParams, TraclusParams,
};
use hermes_bench::harness::{bench, report};
use hermes_bench::{aircraft_s2t_params, aircraft_with};
use hermes_s2t::{run_s2t, ClusteringQuality, S2TParams};
use hermes_trajectory::Duration;
use hermes_va::compare_runs;

fn traclus_params() -> TraclusParams {
    TraclusParams {
        eps: 3_000.0,
        min_lns: 4,
        ..TraclusParams::default()
    }
}

fn toptics_params() -> TOpticsParams {
    TOpticsParams {
        eps: 20_000.0,
        min_pts: 3,
        reachability_threshold: 9_000.0,
    }
}

fn convoy_params() -> ConvoyParams {
    ConvoyParams {
        eps: 4_000.0,
        min_objects: 3,
        min_snapshots: 3,
        snapshot_period: Duration::from_mins(2),
    }
}

fn main() {
    let scenario = aircraft_with(36, 0xE2);
    let s2t_params = aircraft_s2t_params();

    let samples = vec![
        bench("s2t", 10, || run_s2t(&scenario.trajectories, &s2t_params)),
        bench("traclus", 10, || {
            traclus(&scenario.trajectories, &traclus_params())
        }),
        bench("t_optics", 10, || {
            t_optics(&scenario.trajectories, &toptics_params())
        }),
        bench("convoys", 10, || {
            discover_convoys(&scenario.trajectories, &convoy_params())
        }),
    ];
    report("e2_methods", &samples);

    // Quality summary: clusters and noise per method.
    let s2t = run_s2t(&scenario.trajectories, &s2t_params);
    let q = ClusteringQuality::compute(&s2t.result);
    let tr = traclus(&scenario.trajectories, &traclus_params());
    let to = t_optics(&scenario.trajectories, &toptics_params());
    let cv = discover_convoys(&scenario.trajectories, &convoy_params());

    eprintln!(
        "\n# E2 summary: method comparison on {} flights",
        scenario.len()
    );
    eprintln!(
        "{:>10} {:>10} {:>10} {:>18}",
        "method", "clusters", "noise", "unit"
    );
    eprintln!(
        "{:>10} {:>10} {:>10} {:>18}",
        "S2T", q.num_clusters, q.num_outliers, "sub-trajectories"
    );
    eprintln!(
        "{:>10} {:>10} {:>10} {:>18}",
        "TRACLUS",
        tr.num_clusters,
        tr.num_noise_segments(),
        "line segments"
    );
    eprintln!(
        "{:>10} {:>10} {:>10} {:>18}",
        "T-OPTICS",
        to.num_clusters,
        to.num_noise(),
        "whole trajectories"
    );
    eprintln!(
        "{:>10} {:>10} {:>10} {:>18}",
        "Convoys",
        cv.len(),
        "-",
        "object groups"
    );

    // Fig. 3: two S2T runs under different parameters.
    let loose = run_s2t(
        &scenario.trajectories,
        &S2TParams {
            sigma: 4_000.0,
            epsilon: 12_000.0,
            ..s2t_params.clone()
        },
    );
    let cmp = compare_runs(&s2t.result, &loose.result, 6_000.0);
    eprintln!(
        "\n# E2 / Fig. 3: run comparison — matched {}, only-in-A {}, only-in-B {}, agreement {:.0}%",
        cmp.matched.len(),
        cmp.only_in_a.len(),
        cmp.only_in_b.len(),
        cmp.agreement() * 100.0
    );
}
