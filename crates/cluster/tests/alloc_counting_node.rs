//! Counting-allocator pin of what `Timing` fidelity costs on the host:
//! a pipelined `NodeSim` run allocates nothing per *flush*, nothing per
//! simulated task and — once its thread has run the same node before —
//! nothing per rank term. Before the device shared cache and cost
//! lookups across a run, every simulated task built its own `rank`-term
//! table (≈ `rank + 1` allocations per task); before runs took their
//! device and shape task from the thread's node workspace, every run
//! built both again (`rank + 1` allocations and the cache's growth to
//! `rank × d` blocks). Runs as its own integration binary so the
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

/// Per flush nothing: the device reuses its run list, keeps its stream
/// loads on the stack and hands back an empty result list in timing
/// mode, and the node reuses its task buffer.
const PER_FLUSH: u64 = 0;

/// Growth steps of the run-long vector (`post_release`) between the
/// 100- and the 200-flush run: one more doubling.
const GROWTH_SLACK: u64 = 1;

/// All a warm 100-flush run allocates, at any rank: its four lane
/// resources, the node's task buffer and `post_release`'s growth to 100
/// entries (`GpuOnly`) or 200 (`Hybrid`, a CPU and a GPU share a flush).
const WARM_RUN: u64 = 12;

const MODES: [ResourceMode; 2] = [
    ResourceMode::GpuOnly {
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
        data_threads: 12,
    },
    ResourceMode::TABLE1_HYBRID,
];

#[test]
fn allocations_scale_with_flushes_not_tasks_or_rank() {
    let node = NodeSim::new(NodeParams::default());
    for mode in MODES {
        let warm = [100, 400].map(|rank| {
            // On a thread that never ran a node, a run builds the device
            // and the shape task (`rank + 1` vectors) and grows the
            // cache to `rank × d` blocks.
            let cold = std::thread::scope(|s| {
                s.spawn(|| allocs(&node, rank, 6_000, mode)).join().unwrap()
            });
            assert!(
                cold <= rank as u64 + 64,
                "{mode:?} rank {rank}: {cold} allocations in a cold run"
            );
            // The first run warms this thread; the ones after it take
            // their set-up from its workspace. 6,000 tasks are 100
            // flushes of 60, 12,000 are 200: the difference is what 100
            // more flushes (6,000 more simulated tasks, 1.8 M more block
            // references at rank 100) cost.
            allocs(&node, rank, 6_000, mode);
            let short = allocs(&node, rank, 6_000, mode);
            let long = allocs(&node, rank, 12_000, mode);
            let marginal = long - short;
            assert!(
                marginal <= 100 * PER_FLUSH + GROWTH_SLACK,
                "{mode:?} rank {rank}: {marginal} allocations per 100 flushes"
            );
            assert!(
                short <= WARM_RUN,
                "{mode:?} rank {rank}: {short} allocations in a warm run"
            );
            (short, marginal)
        });
        assert_eq!(
            warm[0], warm[1],
            "{mode:?}: a warm run's allocations depend on the rank"
        );
    }
}
