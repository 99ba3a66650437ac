//! E6 — the incremental-maintenance architecture of Fig. 2: trajectories
//! stream into the ReTraTree, are assigned to existing representatives or
//! parked as outliers, and overgrown partitions trigger the S2T re-clustering
//! pass that back-propagates new representatives.
//!
//! Benches streaming-insertion throughput for a sweep of the re-clustering
//! page threshold and prints the maintenance counters.

use hermes_bench::harness::{bench, report};
use hermes_bench::{maritime_s2t_params, maritime_standard};
use hermes_retratree::{ReTraTree, ReTraTreeParams};
use hermes_trajectory::Duration;

fn params_with_threshold(pages: usize) -> ReTraTreeParams {
    ReTraTreeParams {
        chunk_duration: Duration::from_hours(2),
        subchunks_per_chunk: 4,
        reorg_page_threshold: pages,
        s2t: maritime_s2t_params(),
    }
}

fn main() {
    let scenario = maritime_standard(0xE6);
    let thresholds = [2usize, 4, 8];

    let samples: Vec<_> = thresholds
        .iter()
        .map(|&pages| {
            bench(format!("reorg_page_threshold/{pages}"), 10, || {
                let mut tree = ReTraTree::new(params_with_threshold(pages));
                for t in &scenario.trajectories {
                    tree.insert_trajectory(t);
                }
                tree.total_population()
            })
        })
        .collect();
    report("e6_streaming_insert", &samples);

    eprintln!(
        "\n# E6 summary: incremental maintenance (Fig. 2 loop), {} vessels",
        scenario.trajectories.len()
    );
    eprintln!(
        "{:>10} {:>8} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "threshold", "pieces", "assigned", "outliers", "reorgs", "promoted", "clusters"
    );
    for &pages in &thresholds {
        let mut tree = ReTraTree::new(params_with_threshold(pages));
        for t in &scenario.trajectories {
            tree.insert_trajectory(t);
        }
        let s = tree.stats();
        eprintln!(
            "{:>10} {:>8} {:>10} {:>10} {:>8} {:>10} {:>10}",
            pages,
            s.inserted_pieces,
            s.assigned_to_existing,
            s.parked_as_outliers,
            s.reorganizations,
            s.promoted_representatives,
            tree.total_clusters()
        );
    }
}
