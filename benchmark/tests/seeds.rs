//! Seed safety: for seeds 0..32 every workload's data, operation lists and
//! schedule build without a panic, are identical byte for byte when built
//! twice from one seed, and differ between seeds.
//!
//! Only `AircraftScenarioBuilder` feeds the plans. `UrbanScenarioBuilder`
//! panics (`NonMonotonicTime`, a zero-length leg) for many seeds at these
//! sizes — see README.md, "Known defect in the urban generator".

use hermes_benchmark::report::DEFAULT_SECONDS;
use hermes_benchmark::workload::{Plan, Workload};

#[test]
fn plans_are_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        let mut previous = None;
        for seed in 0..32 {
            let plan = Plan::build(workload, seed, DEFAULT_SECONDS, false);
            let again = Plan::build(workload, seed, DEFAULT_SECONDS, false);
            let digest = plan.digest();
            assert_eq!(
                digest,
                again.digest(),
                "{} seed {seed} built twice differs",
                workload.name()
            );
            assert_ne!(
                Some(digest),
                previous,
                "{} seeds {} and {seed} give the same plan",
                workload.name(),
                seed.wrapping_sub(1)
            );
            previous = Some(digest);

            assert!(!plan.resident.is_empty());
            assert_eq!(plan.warmup.len(), plan.conns.len());
            assert!(plan.op_count() >= plan.rounds);
            if let Some(send_at) = &plan.send_at_ns {
                for (times, ops) in send_at.iter().zip(&plan.conns) {
                    assert_eq!(times.len(), ops.len());
                    assert!(times.windows(2).all(|w| w[0] <= w[1]));
                }
            }
            // Every read has a statement the oracle can answer, and every
            // ingest stays inside the stream.
            assert!(!plan.read_statements().is_empty());
            for op in plan.warmup.iter().chain(&plan.conns).flatten() {
                if let hermes_benchmark::workload::Body::Ingest { first, count, .. } = op.body {
                    assert!(first + count <= plan.stream.len());
                }
            }
        }
    }
}

#[test]
fn the_quick_mode_is_two_rounds() {
    for workload in Workload::ALL {
        let quick = Plan::build(workload, 5, DEFAULT_SECONDS, true);
        let full = Plan::build(workload, 5, DEFAULT_SECONDS, false);
        assert_eq!(quick.rounds, 2);
        assert!(quick.op_count() * 5 <= full.op_count());
    }
}
