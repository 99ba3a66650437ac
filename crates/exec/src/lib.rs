//! # hermes-exec
//!
//! A std-only work scheduler for intra-query parallelism: a fixed
//! [`ThreadPool`] plus the scoped fork-join combinators the compute layers
//! (`hermes-s2t` voting/segmentation, `hermes-retratree` QuT and index
//! build) fan out on.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — [`Executor::map`] returns results in input order,
//!    written into per-index slots, so parallel output is byte-identical to
//!    the serial path no matter how the scheduler interleaves.
//! 2. **Panic propagation** — a panicking task is caught on the worker, the
//!    job drains, and the payload is re-raised on the calling thread, exactly
//!    like `std::thread::scope`.
//! 3. **No dependencies** — `std::thread` + `Mutex`/`Condvar`/atomics only.
//!
//! An [`Executor`] is a cheap, cloneable handle: serial (no pool, closures
//! run inline on the caller) or parallel (shared [`ThreadPool`]). Every
//! `*_with` entry point in the compute crates takes `&Executor`, and the
//! plain entry points pass [`Executor::serial`], so single-threaded callers
//! pay nothing.
//!
//! ```
//! use hermes_exec::{ExecPolicy, Executor};
//!
//! let exec = Executor::new(ExecPolicy { threads: 4 });
//! let squares = exec.map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! assert_eq!(exec.threads(), 4);
//! ```
//!
//! **Layer:** infrastructure under every compute crate. Key types:
//! [`ExecPolicy`], [`Executor`], [`ThreadPool`]. The pool design, fork-join
//! points and lock interaction are documented in
//! `docs/ARCHITECTURE.md` § "Execution model".

mod pool;

pub use pool::ThreadPool;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// How much intra-query parallelism an engine is allowed to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Compute threads per fork-join region, counting the calling thread
    /// (so `1` means serial). Never 0 — construct through [`ExecPolicy::new`]
    /// when the value comes from user input.
    pub threads: usize,
}

impl ExecPolicy {
    /// Most threads a policy will accept. Each pool worker is a real OS
    /// thread reserved up front, so an unbounded `SET threads` from a remote
    /// client could exhaust process limits; beyond any plausible core count
    /// the request is a mistake or an attack, not a tuning choice.
    pub const MAX_THREADS: usize = 256;

    /// The serial policy: everything runs inline on the calling thread.
    pub fn serial() -> ExecPolicy {
        ExecPolicy { threads: 1 }
    }

    /// The single validated constructor for user-supplied counts (SQL `SET
    /// threads`, `--threads` flags): `0` and anything above
    /// [`ExecPolicy::MAX_THREADS`] are rejected with a descriptive error.
    pub fn new(threads: usize) -> Result<ExecPolicy, String> {
        if threads == 0 {
            return Err("threads expects a positive thread count, got 0".into());
        }
        if threads > Self::MAX_THREADS {
            return Err(format!(
                "threads expects at most {}, got {threads}",
                Self::MAX_THREADS
            ));
        }
        Ok(ExecPolicy { threads })
    }

    /// The deployment default: `HERMES_THREADS` when set to a valid count,
    /// otherwise the machine's available parallelism. This is what an engine
    /// starts with before any `SET threads` / `--threads` override.
    pub fn from_env() -> ExecPolicy {
        if let Ok(raw) = std::env::var("HERMES_THREADS") {
            if let Some(policy) = raw
                .trim()
                .parse::<usize>()
                .ok()
                .and_then(|n| ExecPolicy::new(n).ok())
            {
                return policy;
            }
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(Self::MAX_THREADS);
        ExecPolicy { threads }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::serial()
    }
}

/// A handle to an execution strategy: inline (serial) or a shared
/// [`ThreadPool`]. Cloning clones the handle; clones share the pool and the
/// job count.
#[derive(Clone, Default)]
pub struct Executor {
    pool: Option<Arc<ThreadPool>>,
    threads: usize,
    /// Fork-join jobs handed to a pool, by this handle, its clones and the
    /// executors [`Executor::resized`] from them.
    jobs: Arc<AtomicU64>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Executor {
    /// The inline executor: combinators run on the calling thread, in order.
    pub fn serial() -> Executor {
        Executor {
            pool: None,
            threads: 1,
            jobs: Arc::default(),
        }
    }

    /// Builds an executor for `policy`. One thread means serial (no pool);
    /// N > 1 spawns a pool of N−1 workers — the calling thread of each
    /// fork-join region is the Nth pair of hands. A hand-built policy is
    /// clamped to `1..=MAX_THREADS` (validation with errors happens in
    /// [`ExecPolicy::new`]).
    pub fn new(policy: ExecPolicy) -> Executor {
        let threads = policy.threads.clamp(1, ExecPolicy::MAX_THREADS);
        if threads == 1 {
            return Executor::serial();
        }
        Executor {
            pool: Some(Arc::new(ThreadPool::new(threads - 1))),
            threads,
            jobs: Arc::default(),
        }
    }

    /// An executor for `policy` that goes on counting this one's jobs: what
    /// a `SET threads` swaps in, so [`Executor::jobs`] never goes back.
    pub fn resized(&self, policy: ExecPolicy) -> Executor {
        Executor {
            jobs: Arc::clone(&self.jobs),
            ..Executor::new(policy)
        }
    }

    /// Compute threads per fork-join region (1 for the serial executor).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Fork-join jobs that reached a pool so far: one per `map`,
    /// `map_indices` or `for_each` call over more than one index on a
    /// parallel executor. A call the caller runs inline — serial, or a
    /// single index — is not a job. Monotone across [`Executor::resized`].
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Fork-join jobs currently queued on the pool (always 0 for the serial
    /// executor). Exported as a gauge by the serving layer's metrics
    /// endpoint.
    pub fn queue_depth(&self) -> usize {
        self.pool.as_ref().map(|p| p.queue_depth()).unwrap_or(0)
    }

    /// Runs `f(0), f(1), …, f(n-1)` and returns the results **in index
    /// order**, regardless of scheduling. This is the primitive the other
    /// combinators build on.
    ///
    /// **What an index costs.** On a pool every index pays one atomic claim
    /// (`fetch_add` on the job's cursor) **and one acquisition of the job's
    /// `completed` mutex**, on top of the job itself (an `Arc`, a queue push,
    /// a `notify_all`, and a condvar wait for stragglers — tens of
    /// microseconds when workers have to wake). So a task should be worth
    /// roughly 10 µs or more, or the caller should loop serially. The worked
    /// example is S2T's sampling sweep, which used to fan out here: ~920
    /// sub-microsecond distance evaluations per greedy pick, a few hundred
    /// picks per query. Measured on the benchmark's 739-flight set, that
    /// phase took 4–12 ms on one thread and 21–51 ms on two — while keeping
    /// both cores busy — and now runs serially. The second worked example
    /// is a warm QuT window: every sub-chunk's answer is already stored, so
    /// a task would be one lookup and one clone, a few µs. QuT forked one
    /// task per sub-chunk; answering those on the calling thread and
    /// forking only the sub-chunks that compute took the benchmark's
    /// `qut_serve` key operation from 0.382 to 0.305 ms (median of ten
    /// alternating pairs on 2 vCPU, every pair won) and its server CPU
    /// from 0.303 to 0.254 ms per operation. Voting's time slabs (4 096 rows and more each) and
    /// clustering (~5–8 µs per task, 6.6 → 3.5 ms on two threads) are the
    /// sizes that do pay.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let Some(pool) = &self.pool else {
            return (0..n).map(f).collect();
        };
        if n <= 1 {
            return (0..n).map(f).collect();
        }
        // One slot per index. Each index is claimed exactly once, so every
        // lock is uncontended: tens of nanoseconds against a task worth
        // microseconds. Nothing can panic while a slot is locked, so no slot
        // is ever poisoned.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.fork(pool, n, &|i| {
            let value = f(i);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every claimed index completed")
            })
            .collect()
    }

    /// Fork-join map over a slice, results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }

    /// Fork-join side-effecting sweep over a slice. The closure must make its
    /// own effects independent per index (e.g. write disjoint slots).
    pub fn for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(usize, &T) + Sync,
    {
        match &self.pool {
            None => items.iter().enumerate().for_each(|(i, t)| f(i, t)),
            Some(_) if items.len() <= 1 => items.iter().enumerate().for_each(|(i, t)| f(i, t)),
            Some(pool) => self.fork(pool, items.len(), &|i| f(i, &items[i])),
        }
    }

    /// Hands `task(0..n)` to `pool` as one counted job.
    fn fork(&self, pool: &ThreadPool, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        pool.run_scoped(n, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    #[test]
    fn policy_rejects_zero_and_oversized_thread_counts() {
        let err = ExecPolicy::new(0).unwrap_err();
        assert!(err.contains("positive thread count"), "{err}");
        let err = ExecPolicy::new(ExecPolicy::MAX_THREADS + 1).unwrap_err();
        assert!(err.contains("at most"), "{err}");
        assert_eq!(ExecPolicy::new(3).unwrap().threads, 3);
        assert_eq!(
            ExecPolicy::new(ExecPolicy::MAX_THREADS).unwrap().threads,
            ExecPolicy::MAX_THREADS
        );
        assert_eq!(ExecPolicy::serial().threads, 1);
        let env = ExecPolicy::from_env().threads;
        assert!((1..=ExecPolicy::MAX_THREADS).contains(&env));
        // Hand-built out-of-range policies are clamped, not spawned.
        let huge = Executor::new(ExecPolicy {
            threads: usize::MAX,
        });
        assert_eq!(huge.threads(), ExecPolicy::MAX_THREADS);
        assert_eq!(Executor::new(ExecPolicy { threads: 0 }).threads(), 1);
    }

    #[test]
    fn serial_and_parallel_map_agree_and_preserve_order() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| (i as u64) * 31 + x * x;
        let serial = Executor::serial().map(&items, f);
        for threads in [2usize, 4, 8] {
            let exec = Executor::new(ExecPolicy { threads });
            assert_eq!(exec.threads(), threads);
            assert_eq!(exec.map(&items, f), serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_indices_handles_degenerate_sizes() {
        let exec = Executor::new(ExecPolicy { threads: 4 });
        assert_eq!(exec.map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map_indices(1, |i| i + 7), vec![7]);
        let empty: Vec<u8> = Vec::new();
        assert_eq!(exec.map(&empty, |_, &b| b), Vec::<u8>::new());
    }

    #[test]
    fn work_actually_spreads_over_pool_threads() {
        let exec = Executor::new(ExecPolicy { threads: 4 });
        let seen: Mutex<HashSet<thread::ThreadId>> = Mutex::new(HashSet::new());
        // Enough items with enough work each that sleeping workers wake up.
        exec.for_each(&[0u8; 64], |_, _| {
            seen.lock().unwrap().insert(thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let seen = seen.lock().unwrap();
        assert!(
            seen.len() > 1,
            "expected more than one thread to participate, got {}",
            seen.len()
        );
    }

    #[test]
    fn a_panicking_task_propagates_and_leaves_the_pool_usable() {
        let exec = Executor::new(ExecPolicy { threads: 4 });
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map_indices(16, |i| {
                if i == 11 {
                    panic!("task {i} exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the task panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("exploded"),
            "unexpected payload: {message}"
        );

        // The pool survived: workers caught the panic and keep serving.
        let after = exec.map_indices(8, |i| i * 2);
        assert_eq!(after, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn nested_fork_join_does_not_deadlock() {
        let exec = Executor::new(ExecPolicy { threads: 2 });
        let inner = exec.clone();
        let result = exec.map_indices(4, |i| inner.map_indices(4, |j| i * 10 + j));
        assert_eq!(result[2], vec![20, 21, 22, 23]);
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn concurrent_jobs_share_one_pool() {
        let exec = Executor::new(ExecPolicy { threads: 4 });
        thread::scope(|s| {
            for t in 0..4u64 {
                let exec = exec.clone();
                s.spawn(move || {
                    let out = exec.map_indices(100, |i| i as u64 + t * 1000);
                    assert_eq!(out[99], 99 + t * 1000);
                });
            }
        });
    }

    #[test]
    fn executor_debug_and_default() {
        assert_eq!(
            format!("{:?}", Executor::serial()),
            "Executor { threads: 1 }"
        );
        assert_eq!(Executor::default().threads(), 1);
    }
}
