//! Counting-allocator pin of what `Timing` fidelity costs on the host:
//! a pipelined `NodeSim` run allocates a constant number of times per
//! *flush* — nothing per simulated task, nothing per rank term. Before
//! the device shared cache and cost lookups across a run, every
//! simulated task built its own `rank`-term table (≈ `rank + 1`
//! allocations per task). Runs as its own integration binary so the
//! `#[global_allocator]` swap cannot perturb other tests.

use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_gpusim::KernelKind;
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

/// Allocations of one `simulate` call.
fn allocs(node: &NodeSim, rank: usize, n_tasks: u64, mode: ResourceMode) -> u64 {
    let spec = WorkloadSpec {
        d: 3,
        k: 10,
        rank,
        rr_mean_rank: None,
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = node.simulate(&spec, n_tasks, mode);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.n_batches, n_tasks / 60);
    after - before
}

/// Per flush the device allocates its cost list, its stream-load list
/// and its (all-`None`) result list; the node reuses its task buffer.
const PER_FLUSH: u64 = 3;

/// Growth steps of the run-long vectors (`post_release`, the cache's
/// FIFO and set) between the 100- and the 200-flush run.
const GROWTH_SLACK: u64 = 8;

#[test]
fn allocations_scale_with_flushes_not_tasks_or_rank() {
    let node = NodeSim::new(NodeParams::default());
    let modes = [
        ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        },
        ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
    ];
    for mode in modes {
        // 6,000 tasks are 100 flushes of 60, 12,000 are 200: the
        // difference is what 100 more flushes (6,000 more simulated
        // tasks, 1.8 M more block references at rank 100) cost.
        let per_100_flushes = [100, 400].map(|rank| {
            let short = allocs(&node, rank, 6_000, mode);
            let long = allocs(&node, rank, 12_000, mode);
            let marginal = long - short;
            assert!(
                marginal <= 100 * PER_FLUSH + GROWTH_SLACK,
                "{mode:?} rank {rank}: {marginal} allocations per 100 flushes"
            );
            // What is left is per run, not per flush: the one shape
            // task (`rank + 1` vectors), the device and its cache
            // growing to `rank × d` blocks, the pipeline's resources.
            let setup = short - marginal;
            assert!(
                setup <= rank as u64 + 64,
                "{mode:?} rank {rank}: {setup} set-up allocations"
            );
            marginal
        });
        assert_eq!(
            per_100_flushes[0], per_100_flushes[1],
            "{mode:?}: per-flush allocations depend on the rank"
        );
    }
}
