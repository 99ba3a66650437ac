//! Loop test of the fork-join's wait/notify pair.
//!
//! `run_scoped` returns when the job's `completed` count reaches its total:
//! the last finisher increments it and calls `finished.notify_all`, the
//! caller re-checks it under the same mutex and waits on `finished`
//! otherwise. If those two ever stopped agreeing — a count bumped outside the
//! lock, a notify skipped because "the caller cannot be waiting yet" — the
//! symptom would be a caller asleep forever on a job that is done, about once
//! in many thousand joins. PR 20 found exactly that kind of hang in
//! `ThreadPool::drop` by accident; this looks for it on purpose: tens of
//! thousands of back-to-back jobs small enough (1–64 empty tasks) that the
//! caller, the workers and the wake-ups race on nearly every one, under a
//! watchdog that turns a hang into a failure. No sleeps: the only timed call
//! is the watchdog's own wait.

use hermes_exec::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const JOBS: usize = 20_000;
/// Far above what the loop needs (a second or two unoptimized), far below a
/// CI job's timeout.
const WATCHDOG: Duration = Duration::from_secs(120);

fn back_to_back_joins(threads: usize) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        // An N-thread executor is the caller plus N − 1 workers.
        let pool = ThreadPool::new(threads - 1);
        let ran = AtomicUsize::new(0);
        let mut expected = 0usize;
        for job in 0..JOBS {
            // 1, 2, …, 64, 1, … — every size against every phase of the
            // workers' sleep/wake cycle.
            let tasks = job % 64 + 1;
            pool.run_scoped(tasks, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            expected += tasks;
            // The join is a barrier: every task of this job has run.
            assert_eq!(ran.load(Ordering::Relaxed), expected, "job {job}");
        }
        drop(pool);
        done.send(()).expect("the watchdog outlives the runner");
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().expect("the runner finished cleanly"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{threads} threads: a fork-join never returned (lost wake-up?)")
        }
        // The runner panicked before sending: surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the sender was dropped"))
        }
    }
}

#[test]
fn twenty_thousand_joins_on_two_threads() {
    back_to_back_joins(2);
}

#[test]
fn twenty_thousand_joins_on_four_threads() {
    back_to_back_joins(4);
}
