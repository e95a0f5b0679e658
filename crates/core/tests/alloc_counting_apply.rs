//! Counting-allocator pin at the batch layer (the `gpusim`
//! `alloc_counting*` recipe one level up): a steady-state
//! `apply_batched` `Cpu` pass allocates the result tensor per task and
//! nothing else that scales with tasks — everything the pipeline adds
//! (the spawned job, the chunk's task and result vectors, its commit
//! slot) is O(1) per *chunk* — and none of it depends on the separation
//! rank. Runs as its own integration binary so the `#[global_allocator]`
//! swap cannot perturb other tests.

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
/// else is; inline (`RAYON_NUM_THREADS=1`) no job is queued.
fn steady_pass(
    op: &SeparatedConvolution,
    tree: &FunctionTree,
    rank_reduce_eps: Option<f64>,
) -> (u64, ApplyStats) {
    let cfg = ApplyConfig {
        resource: ApplyResource::Cpu,
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
fn batched_cpu_pass_allocates_one_tensor_per_task_plus_constant_per_chunk() {
    let tree = CoulombApp::small(4, 1e-3).tree;
    let low = SeparatedConvolution::gaussian_sum(3, 4, 4, 1.0, 100.0);
    let high = SeparatedConvolution::gaussian_sum(3, 4, 16, 1.0, 100.0);

    // Per chunk: rank reduction at eps = 1 keeps one row of every block,
    // so a task costs a fraction of what it does at eps = 0 (every row),
    // the grain holds more tasks and the pass spawns fewer chunks — and
    // nothing else differs: the same tasks, sources, targets, flushes and
    // tables, each table carrying its effective ranks.
    let (a_full, full) = steady_pass(&high, &tree, Some(0.0));
    let (a_thin, thin) = steady_pass(&high, &tree, Some(1.0));
    assert_eq!((full.tasks, full.batches), (thin.tasks, thin.batches));
    assert!(
        2 * thin.chunks < full.chunks,
        "{} chunks at eps 1 against {} at eps 0",
        thin.chunks,
        full.chunks
    );
    // O(1) per chunk: the spawned job, the chunk's task vector, its
    // result vector and its commit slot.
    let per_chunk = (a_full as f64 - a_thin as f64) / (full.chunks - thin.chunks) as f64;
    assert!(
        per_chunk <= 6.0,
        "{per_chunk:.2} allocations per chunk ({a_thin} at {} chunks, {a_full} at {})",
        thin.chunks,
        full.chunks
    );

    // Per task: the result tensor. What is left once the per-chunk cost
    // is taken out also holds everything per source (the shared `Arc`
    // copy), per target (tree nodes), per flush and per term table,
    // which together stay under one more allocation a task — a `Box` or
    // `Vec` per task on the spawn path would not.
    let (a_low, low_stats) = steady_pass(&low, &tree, None);
    let tasks = low_stats.tasks as f64;
    let rest = a_low as f64 - per_chunk * low_stats.chunks as f64;
    assert!(
        rest <= 2.0 * tasks,
        "{:.2} allocations per task outside the per-chunk cost",
        rest / tasks
    );
    // Independent of rank: 4× the terms grows the shared term tables and,
    // through the grain, the chunk count — never anything per task.
    let (a_high, high_stats) = steady_pass(&high, &tree, None);
    assert_eq!(high_stats.tasks, low_stats.tasks);
    let rest_high = a_high as f64 - per_chunk * high_stats.chunks as f64;
    assert!(
        rest_high <= rest + tasks / 4.0,
        "allocations scale with rank: {rest:.0} at rank 4, {rest_high:.0} at rank 16, {tasks} tasks"
    );
}
