//! The end-to-end benchmark of the Hermes stack: four seeded workloads run
//! against the real `hermes-serve` / `hermes-coord` release binaries, every
//! answer checked against an embedded single-node reference, five
//! end-to-end metrics per workload and — in a traced run — the per-layer
//! numbers. `README.md` describes the workloads, the metrics, how they are
//! expected to interact, and the frozen constants.
//!
//! The end-to-end binary uses only what a deployment's client would: the
//! binaries' command-line flags, the wire protocol, `/metrics` and
//! `SHOW STATS` — plus the data generators and, for the reference answers,
//! the embedded engine. The in-process layer replay lives apart, in
//! `src/bin/hermes-benchmark-trace.rs`.

pub mod oracle;
pub mod procs;
pub mod prom;
pub mod report;
pub mod run;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workload;
