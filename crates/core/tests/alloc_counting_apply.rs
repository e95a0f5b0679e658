//! Counting-allocator pin at the batch layer (the `gpusim`
//! `alloc_counting*` recipe one level up): a steady-state
//! `apply_batched` pass, `Cpu` or `Gpu`, allocates the result tensor per
//! task and nothing else that scales with tasks — everything the
//! pipeline adds (the spawned job, the chunk's task and result vectors,
//! its commit slot) is O(1) per *chunk*, and the device's pricing is
//! O(1) per flush — and none of it depends on the separation rank. Runs
//! as its own integration binary so the `#[global_allocator]` swap
//! cannot perturb other tests.

use madness_core::apply::{apply_batched, ApplyConfig, ApplyResource, ApplyStats};
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

/// `(allocations, stats)` of one steady-state `max_batch = 16` pass: the
/// fewest allocations over several, since unrelated lazy initialisation
/// can only inflate a count. The chunk count is checked against the
/// executor's: with a pool every chunk is one queued job and nothing
/// else is, whichever share priced its tasks; inline
/// (`RAYON_NUM_THREADS=1`) no job is queued.
fn steady_pass(
    resource: ApplyResource,
    op: &SeparatedConvolution,
    tree: &FunctionTree,
    rank_reduce_eps: Option<f64>,
) -> (u64, ApplyStats) {
    let cfg = ApplyConfig {
        resource,
        batch: BatcherConfig {
            max_batch: 16,
            ..BatcherConfig::default()
        },
        rank_reduce_eps,
        ..ApplyConfig::default()
    };
    // Warm: operator block cache, kernel table, executor, workspaces.
    apply_batched(op, tree, &cfg);
    let mut best: Option<(u64, ApplyStats)> = None;
    for _ in 0..3 {
        let (before, jobs_before) = (ALLOCS.load(Ordering::Relaxed), rayon::executor_stats());
        let (result, stats) = apply_batched(op, tree, &cfg);
        let after = ALLOCS.load(Ordering::Relaxed);
        let jobs = rayon::executor_stats();
        drop(result);
        let queued = if jobs.workers > 0 { stats.chunks } else { 0 };
        assert_eq!(jobs.tasks - jobs_before.tasks, queued, "executor jobs");
        if best.is_none_or(|(fewest, _)| after - before < fewest) {
            best = Some((after - before, stats));
        }
    }
    best.expect("three passes")
}

#[test]
fn batched_passes_allocate_one_tensor_per_task_plus_constant_per_chunk() {
    let tree = CoulombApp::small(4, 1e-3).tree;
    let low = SeparatedConvolution::gaussian_sum(3, 4, 4, 1.0, 100.0);
    let high = SeparatedConvolution::gaussian_sum(3, 4, 16, 1.0, 100.0);

    // A split share's jobs are chunks too. At rank 4 the two transfers
    // in `Hybrid`'s GPU-only time leave a 16-task batch no GPU share;
    // rank 16's kernels outweigh them.
    let (_, hybrid) = steady_pass(ApplyResource::Hybrid, &high, &tree, None);
    assert!(hybrid.cpu_tasks > 0 && hybrid.gpu_tasks > 0);

    for resource in [ApplyResource::Cpu, ApplyResource::Gpu] {
        // Per chunk: rank reduction at eps = 1 keeps one row of every
        // block, so a task costs a fraction of what it does at eps = 0
        // (every row), the grain holds more tasks and the pass spawns
        // fewer chunks — and nothing else differs: the same tasks,
        // sources, targets, flushes and tables, each table carrying its
        // effective ranks. A chunk holds whole stack groups, so the low
        // rank is used here: at eps = 0 its grain (≈ 160 tasks) is under
        // a group of eight interior sources (216 tasks), at eps = 1 it
        // covers several groups — 79 chunks against 23. (At rank 16 both
        // grains are under a group and only 97 against 79 would be left
        // for the estimate below to divide by.)
        let (a_full, full) = steady_pass(resource, &low, &tree, Some(0.0));
        let (a_thin, thin) = steady_pass(resource, &low, &tree, Some(1.0));
        assert_eq!((full.tasks, full.batches), (thin.tasks, thin.batches));
        assert!(
            2 * thin.chunks < full.chunks,
            "{resource:?}: {} chunks at eps 1 against {} at eps 0",
            thin.chunks,
            full.chunks
        );
        // O(1) per chunk: the spawned job, the chunk's task vector, its
        // result vector and its commit slot.
        let per_chunk = (a_full as f64 - a_thin as f64) / (full.chunks - thin.chunks) as f64;
        assert!(
            per_chunk <= 6.0,
            "{resource:?}: {per_chunk:.2} allocations per chunk ({a_thin} at {} chunks, {a_full} at {})",
            thin.chunks,
            full.chunks
        );

        // Per task: the result tensor. What is left once the per-chunk
        // cost is taken out also holds everything per source (the shared
        // `Arc` copy), per target (tree nodes), per flush (the device's
        // pricing of a GPU share) and per term table, which together stay
        // under one more allocation a task — a `Box` or `Vec` per task on
        // the spawn path would not.
        let (a_low, low_stats) = steady_pass(resource, &low, &tree, None);
        let tasks = low_stats.tasks as f64;
        let rest = a_low as f64 - per_chunk * low_stats.chunks as f64;
        assert!(
            rest <= 2.0 * tasks,
            "{resource:?}: {:.2} allocations per task outside the per-chunk cost",
            rest / tasks
        );
        // Independent of rank: 4× the terms grows the shared term tables
        // and, through the grain, the chunk count — never anything per
        // task.
        let (a_high, high_stats) = steady_pass(resource, &high, &tree, None);
        assert_eq!(high_stats.tasks, low_stats.tasks);
        let rest_high = a_high as f64 - per_chunk * high_stats.chunks as f64;
        assert!(
            rest_high <= rest + tasks / 4.0,
            "{resource:?}: allocations scale with rank: {rest:.0} at rank 4, {rest_high:.0} at rank 16, {tasks} tasks"
        );
    }
}
