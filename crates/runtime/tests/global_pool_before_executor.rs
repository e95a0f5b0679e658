//! Regression: `global_pool()` called before the executor's first
//! parallel run must size from the *configured* worker count, not the
//! live (still-zero) `executor_stats().workers`.
//!
//! The old sizing — `rayon::executor_stats().workers.max(1)` — read `0`
//! here, and the `OnceLock` pinned a 1-worker data pool for the rest of
//! the process. That starved every Full-fidelity Apply run's data
//! threads, and it is how a committed wall-clock Apply point once
//! recorded `workers: 0` with all 12 776 runs inline.
//!
//! This file must stay a single-test integration binary: cargo gives it
//! its own process, so no other test can have triggered the executor's
//! lazy pool creation before `global_pool()` runs.

use madness_runtime::global_pool;

#[test]
fn global_pool_before_any_parallel_run_gets_full_width() {
    // Pin the configured width so the assertion is meaningful even on a
    // single-core host (the override only applies because no parallel
    // call has created the executor pool yet).
    rayon::set_worker_threads(4);

    // Precondition that makes this a regression test at all: the
    // executor has not run, so its live worker count still reads 0 —
    // exactly what the old sizing consulted.
    assert_eq!(
        rayon::executor_stats().workers,
        0,
        "executor pool exists already; this test lost its isolation"
    );

    let pool = global_pool();
    assert_eq!(
        pool.len(),
        4,
        "global_pool sized from the pre-run executor stats (the 1-worker pin)"
    );

    // The pool must actually serve jobs at that width: four jobs that
    // rendezvous deadlock unless four workers run them simultaneously.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let gate = Arc::new(AtomicUsize::new(0));
    for _ in 0..4 {
        let gate = Arc::clone(&gate);
        pool.submit(move || {
            gate.fetch_add(1, Ordering::SeqCst);
            while gate.load(Ordering::SeqCst) < 4 {
                std::hint::spin_loop();
            }
        });
    }
    pool.wait_idle();
    assert_eq!(gate.load(Ordering::SeqCst), 4);
}
