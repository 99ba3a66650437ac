//! The fixed thread pool behind [`Executor`](crate::Executor).
//!
//! Workers are spawned once and live for the pool's lifetime; each scoped
//! fork-join call publishes one [`Job`] — a borrowed `Fn(usize)` plus an
//! atomic index cursor — to the shared queue. Every worker (and the calling
//! thread, which always participates) claims indices with a `fetch_add` loop
//! until the job is exhausted. The caller blocks until every claimed index
//! has *finished* executing, which is what makes the lifetime erasure below
//! sound: no task can run after `run_scoped` returns.
//!
//! Panics inside a task are caught per index, the first payload is kept, and
//! `run_scoped` re-raises it on the calling thread once the job has fully
//! drained — a panicking task never takes a worker thread down and never
//! leaves sibling tasks running against freed borrows.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A borrowed task with its lifetime erased so the pool's `'static` worker
/// threads can hold it.
///
/// # Safety
///
/// The pointer is dereferenced only for claimed indices `< total`, and
/// [`ThreadPool::run_scoped`] does not return before every claimed index has
/// completed — so every dereference happens while the caller's borrow is
/// still alive. Workers may *hold* the (by then dangling) raw pointer inside
/// an exhausted [`Job`] a little longer, which is fine: raw pointers carry no
/// validity requirement until dereferenced.
struct RawTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from a worker thread is sound,
// and it is only dereferenced while the borrow is alive (see above).
unsafe impl Send for RawTask {}
// SAFETY: a shared `&RawTask` allows nothing but calling the `Sync` pointee
// through a shared reference, under the same liveness rule.
unsafe impl Sync for RawTask {}

/// One scoped fork-join batch: `total` independent indices to run through
/// `task`, claimed atomically by whoever has spare cycles.
struct Job {
    task: RawTask,
    total: usize,
    /// Next index to claim (values `>= total` mean "exhausted").
    next: AtomicUsize,
    /// Indices that have finished executing (successfully or by panicking).
    completed: Mutex<usize>,
    finished: Condvar,
    /// First panic payload observed, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Claims and runs indices until none are left.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: `i < total`, so this index is not yet completed and the
            // caller is still inside `run_scoped`: the borrow behind the
            // pointer is alive.
            let task = unsafe { &*self.task.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut done = lock(&self.completed);
            *done += 1;
            if *done == self.total {
                self.finished.notify_all();
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A fixed set of worker threads executing scoped fork-join jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// A poisoned pool mutex only means another task panicked mid-section; every
/// section leaves the guarded state consistent, so recover the guard instead
/// of cascading the panic into unrelated jobs.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl ThreadPool {
    /// Spawns up to `workers` threads (the calling thread of each job makes
    /// one more pair of hands, so an N-thread [`Executor`](crate::Executor)
    /// builds a pool of N−1 workers). A spawn failure (resource pressure)
    /// degrades to the workers that did start rather than panicking: every
    /// fork-join region is correct with any worker count — including zero,
    /// because callers always participate.
    pub fn new(workers: usize) -> ThreadPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("hermes-exec-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => handles.push(handle),
                Err(_) => break,
            }
        }
        ThreadPool {
            shared,
            workers: handles,
        }
    }

    /// Runs `task(0..total)` across the pool and the calling thread, returning
    /// once every index has executed. Panics from tasks are re-raised here
    /// after the whole job has drained.
    ///
    /// Nested calls (a task itself forking a job on the same pool) are fine:
    /// the nested caller participates in its own job, so progress never
    /// depends on a free worker.
    pub fn run_scoped(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        // SAFETY: only the lifetime changes; the fat pointer's layout is the
        // same. This function does not return before every claimed index has
        // completed (panics are caught per index), so no task runs after the
        // borrow ends. See `RawTask`.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: RawTask(task as *const _),
            total,
            next: AtomicUsize::new(0),
            completed: Mutex::new(0),
            finished: Condvar::new(),
            panic: Mutex::new(None),
        });
        lock(&self.shared.queue).push_back(Arc::clone(&job));
        self.shared.available.notify_all();

        // Fork-join: the caller works the job too, then waits for stragglers.
        job.run();
        let mut done = lock(&job.completed);
        while *done < total {
            done = job.finished.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);

        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Jobs currently sitting in the shared queue (claimed-but-unfinished
    /// jobs whose stragglers are still running do not count once popped).
    /// A momentary sample for observability, not a synchronization primitive.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker checks `shutdown` and then waits
        // without releasing that lock in between, so the flag and the wake-up
        // cannot both fall into the gap (a lost wake-up left `join` below
        // waiting forever on a sleeping worker).
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Exhausted jobs are done being *claimed* (stragglers finish
                // on the threads that claimed them); drop them from the front.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break Arc::clone(job);
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run();
    }
}
