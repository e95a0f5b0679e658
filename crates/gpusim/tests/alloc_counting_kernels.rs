//! Counting-allocator proof that the autotuned kernel table adds
//! **zero** allocations to the steady-state Apply hot path: kernel
//! selection is a binary search over the pre-sorted installed table and
//! dispatch counting is a relaxed atomic bump — neither touches the
//! heap — and that the task-level Σ_μ kernel's chunk buffers add none
//! either. Runs as its own integration binary (like `alloc_counting`) so
//! the `#[global_allocator]` swap and the process-global table install
//! cannot perturb other tests.

use madness_gpusim::kernel::execute_tasks;
use madness_gpusim::{HBlock, TransformTask, TransformTerm};
use madness_tensor::{Shape, Tensor, TransformScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn full_task(rank: usize) -> TransformTask {
    full_task_of_order(10, rank)
}

fn full_task_of_order(k: usize, rank: usize) -> TransformTask {
    let d = 3;
    let s = Arc::new(Tensor::from_fn(Shape::cube(d, k), |ix| {
        (ix[0] * 7 + ix[1] * 3 + ix[2]) as f64 * 0.01 - 1.0
    }));
    let terms: Vec<TransformTerm> = (0..rank)
        .map(|mu| {
            let h = Arc::new(Tensor::from_fn(Shape::matrix(k, k), |ix| {
                ((mu + 1) as f64 * 0.1).powi((ix[0] % 3) as i32) * (1.0 + ix[1] as f64 * 0.05)
            }));
            TransformTerm {
                coeff: 1.0 / (mu + 1) as f64,
                hs: (0..d)
                    .map(|dim| HBlock::new((mu * d + dim) as u64, Arc::clone(&h)))
                    .collect(),
                effective_ranks: None,
            }
        })
        .collect();
    TransformTask {
        d,
        k,
        s: Some(s),
        terms: Arc::new(terms),
    }
}

fn count_once(task: &TransformTask, scratch: &mut TransformScratch) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = execute_tasks(&[task], false, scratch);
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(r);
    after - before
}

/// Minimum over several runs: the process occasionally takes a couple
/// of unrelated lazy-init allocations at an unpredictable moment, and
/// noise can only ever inflate a count — the min is the true
/// steady-state figure.
fn count_steady(task: &TransformTask, scratch: &mut TransformScratch) -> u64 {
    (0..5).map(|_| count_once(task, scratch)).min().unwrap()
}

/// Installing the autotuned table (and enabling its dispatch counting)
/// must not change the steady-state allocation count of `execute_tasks`
/// — the table lookup lives on the hot path of every transform pass,
/// so any per-pass allocation here would multiply across the tree.
#[test]
fn autotuned_table_adds_zero_steady_state_allocations() {
    let task = full_task(8);
    let mut scratch = TransformScratch::new();

    // Steady state on the heuristic (no-table) path first: warm, then
    // measure. Nothing in this binary has installed a table yet.
    execute_tasks(&[&task], false, &mut scratch);
    execute_tasks(&[&task], false, &mut scratch);
    let without_table = count_steady(&task, &mut scratch);

    // Calibrate + install the global table (allocates freely — that is
    // startup, not steady state), turn dispatch counting on, re-warm,
    // and measure again.
    madness_tensor::kernel::ensure_autotuned();
    if let Some(table) = madness_tensor::kernel::global() {
        table.set_counting(true);
    }
    execute_tasks(&[&task], false, &mut scratch);
    let with_table = count_steady(&task, &mut scratch);
    if let Some(table) = madness_tensor::kernel::global() {
        table.set_counting(false);
        assert!(
            table.entries().iter().map(|e| e.dispatches()).sum::<u64>() > 0,
            "the counted run should have dispatched through the table"
        );
    }

    assert_eq!(
        with_table, without_table,
        "autotuned table changed the steady-state allocation count: \
         {without_table} without vs {with_table} with"
    );
    // The result tensor and the result `Vec`.
    assert!(
        with_table <= 2,
        "expected only the result allocations, saw {with_table}"
    );

    // The task-level Σ_μ kernel's chunk buffers (the stack of last-pass
    // intermediates and the panel of last-dimension blocks) reach their
    // high-water size once: after one warm-up of each shape, a task
    // allocates the same whatever its rank — one term, less than a
    // chunk, exactly chunks, chunks plus a remainder — and switching
    // between a k = 4 task (one chunk holds every term) and a k = 10
    // task (four terms per chunk) through the same scratch never
    // re-grows a buffer.
    let tasks: Vec<TransformTask> = [(4, 1), (4, 37), (10, 1), (10, 3), (10, 8), (10, 37)]
        .map(|(k, rank)| full_task_of_order(k, rank))
        .into();
    for task in &tasks {
        execute_tasks(&[task], false, &mut scratch);
    }
    for round in 0..2 {
        for task in &tasks {
            let allocs = count_steady(task, &mut scratch);
            assert_eq!(
                allocs,
                with_table,
                "round {round}: a k = {} rank-{} task allocated {allocs} times in steady state",
                task.k,
                task.rank()
            );
        }
    }
}
