//! `BENCHMARK.json` is generated from the tables in `report.rs` and
//! `workload.rs` (`hermes-benchmark contract > BENCHMARK.json`); this test
//! fails when the committed file and the code have drifted apart.

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        hermes_benchmark::report::benchmark_json(),
        "regenerate with `hermes-benchmark contract > BENCHMARK.json`"
    );
}
