//! Counting-allocator pin at the batch layer (the `gpusim`
//! `alloc_counting*` recipe one level up): a steady-state
//! `apply_batched` `Cpu` pass allocates the result tensor per task and
//! nothing else that scales with tasks — everything the pipeline adds
//! (the spawned job, the chunk's task and result vectors, its commit
//! slot) is O(1) per *chunk* — and none of it depends on the separation
//! rank. Runs as its own integration binary so the `#[global_allocator]`
//! swap cannot perturb other tests.

use madness_core::apply::{apply_batched, ApplyConfig, ApplyResource};
use madness_core::coulomb::CoulombApp;
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::tree::FunctionTree;
use madness_runtime::BatcherConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// `(allocations, tasks, batches)` of one steady-state pass: the minimum
/// over several, since unrelated lazy initialisation can only inflate a
/// count.
fn steady_pass(
    op: &SeparatedConvolution,
    tree: &FunctionTree,
    max_batch: usize,
) -> (u64, u64, u64) {
    let cfg = ApplyConfig {
        resource: ApplyResource::Cpu,
        batch: BatcherConfig {
            max_batch,
            ..BatcherConfig::default()
        },
        ..ApplyConfig::default()
    };
    // Warm: operator block cache, kernel table, executor, workspaces.
    apply_batched(op, tree, &cfg);
    let mut best = (u64::MAX, 0, 0);
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let (result, stats) = apply_batched(op, tree, &cfg);
        let after = ALLOCS.load(Ordering::Relaxed);
        drop(result);
        best = best.min((after - before, stats.tasks, stats.batches));
    }
    best
}

#[test]
fn batched_cpu_pass_allocates_one_tensor_per_task_plus_constant_per_chunk() {
    let tree = CoulombApp::small(4, 1e-3).tree;
    let low = SeparatedConvolution::gaussian_sum(3, 4, 4, 1.0, 100.0);
    let high = SeparatedConvolution::gaussian_sum(3, 4, 16, 1.0, 100.0);

    let (a_low, tasks, chunks) = steady_pass(&low, &tree, 16);
    let (a_high, tasks_high, _) = steady_pass(&high, &tree, 16);
    // At k = 4 a 16-task batch is under the chunk grain: one chunk a
    // batch, so `max_batch = 1` turns every task into its own chunk and
    // the difference between the two passes is pure per-chunk cost.
    let (a_single, _, singles) = steady_pass(&low, &tree, 1);
    assert_eq!(tasks, tasks_high);
    assert_eq!(singles, tasks);

    // O(1) per chunk: the spawned job, the chunk's task vector, its
    // result vector and its commit slot.
    let per_chunk = (a_single - a_low) as f64 / (singles - chunks) as f64;
    assert!(
        per_chunk <= 6.0,
        "{per_chunk:.2} allocations per chunk ({a_low} at {chunks} chunks, {a_single} at {singles})"
    );
    // Per task: the result tensor. What is left once the per-chunk cost
    // is taken out also holds everything per source (the shared `Arc`
    // copy), per target (tree nodes) and per term table, which together
    // stay under one more allocation a task — a `Box` or `Vec` per task
    // on the spawn path would not.
    let rest = a_low as f64 - per_chunk * chunks as f64;
    assert!(
        rest <= 2.0 * tasks as f64,
        "{:.2} allocations per task outside the per-chunk cost",
        rest / tasks as f64
    );
    // Independent of rank: 4× the terms only grows the shared term
    // tables, never anything per task.
    assert!(
        a_high <= a_low + tasks / 4,
        "allocations scale with rank: {a_low} at rank 4, {a_high} at rank 16, {tasks} tasks"
    );
}
