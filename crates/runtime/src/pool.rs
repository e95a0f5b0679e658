//! A small dedicated worker-thread pool.
//!
//! MADNESS drives everything through a pool of CPU threads: compute
//! workers, data-access threads for the GPU path, and the dispatcher.
//! This pool is deliberately simple — unbounded MPMC channel feeding `n`
//! workers, with an idle barrier — because the *simulated-time* behaviour
//! is what the experiments measure; the pool exists so Full-fidelity runs
//! genuinely execute concurrently (and so the test suite exercises real
//! parallel accumulation).

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// The process-wide shared data-thread pool.
///
/// Repeated Apply runs used to be free to spin up a fresh pool per call;
/// this accessor makes reuse the default, mirroring the persistent
/// work-stealing compute executor in `rayon`. Sized to the executor's
/// worker count (or `available_parallelism` when the executor runs
/// inline) so compute and data threads share one thread budget.
///
/// Sizing reads the executor's *configured* count, never the live
/// `executor_stats().workers` — the latter is `0` until the executor's
/// first parallel run, and this accessor's `OnceLock` would have pinned
/// a 1-worker data pool for the rest of the process if it was called
/// first (a wall-clock Apply trajectory point was once recorded with
/// every run inline because of it).
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(rayon::configured_worker_threads().max(1)))
}

/// One-time warm-up of everything the Apply hot path depends on: spins
/// up the persistent work-stealing compute executor and calibrates (or
/// loads) the autotuned mtxmq kernel table.
///
/// Idempotent and cheap after the first call. Apply calls it lazily,
/// but timing-sensitive callers (benches) should invoke it before their
/// measured region so neither the executor spawn nor the ~10–20 ms of
/// kernel microbenchmarks lands inside a timed variant.
pub fn initialize_hot_path() {
    rayon::initialize();
    madness_tensor::kernel::ensure_autotuned();
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    pending: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

/// A fixed-size pool of named worker threads.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl WorkerPool {
    /// Spawns `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "pool needs at least one worker");
        let (tx, rx) = unbounded::<Job>();
        let shared = Arc::new(Shared {
            pending: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let workers = (0..n)
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("madness-worker-{i}"))
                    .spawn(move || {
                        for job in rx.iter() {
                            // Decrement-and-notify even if the job panics,
                            // or wait_idle would deadlock forever.
                            struct Done<'a>(&'a Shared);
                            impl Drop for Done<'_> {
                                fn drop(&mut self) {
                                    if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                                        let _g = self.0.idle_lock.lock();
                                        self.0.idle_cv.notify_all();
                                    }
                                }
                            }
                            let _done = Done(&shared);
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("failed to spawn worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            shared,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false (a pool has ≥ 1 worker); for API completeness.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Enqueues a job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.tx
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("workers gone");
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.idle_lock.lock();
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            self.shared.idle_cv.wait(&mut guard);
        }
    }

    /// Jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_idle_on_fresh_pool_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.wait_idle();
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn reusable_across_waves() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for wave in 1..=3u64 {
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
            assert_eq!(counter.load(Ordering::Relaxed), wave * 50);
        }
    }

    #[test]
    fn jobs_actually_run_in_parallel() {
        // Two jobs that each wait for the other: deadlocks unless ≥ 2
        // workers serve them simultaneously.
        let pool = WorkerPool::new(2);
        let a = Arc::new(AtomicU64::new(0));
        let (a1, a2) = (Arc::clone(&a), Arc::clone(&a));
        pool.submit(move || {
            a1.fetch_add(1, Ordering::SeqCst);
            while a1.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
        });
        pool.submit(move || {
            a2.fetch_add(1, Ordering::SeqCst);
            while a2.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
        });
        pool.wait_idle();
        assert_eq!(a.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_job_does_not_deadlock_wait_idle() {
        // Regression: pending used to be decremented only on normal
        // return, so one panicking job hung wait_idle forever.
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        pool.submit(|| panic!("job blew up"));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle(); // must return despite the panic
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn global_pool_is_shared_and_reusable() {
        let a = global_pool() as *const WorkerPool;
        let b = global_pool() as *const WorkerPool;
        assert_eq!(a, b, "global pool must be a single shared instance");
        let counter = Arc::new(AtomicU64::new(0));
        for wave in 1..=2u64 {
            for _ in 0..25 {
                let c = Arc::clone(&counter);
                global_pool().submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            global_pool().wait_idle();
            assert_eq!(counter.load(Ordering::Relaxed), wave * 25);
        }
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // must not hang, and must finish queued work
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }
}
