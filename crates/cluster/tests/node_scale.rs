//! Host-time pin for the node pipeline, as `serve_scale.rs` and
//! `dag_scale.rs` are for theirs: what one simulated task costs the host
//! must not grow with the run's length. `d3 k10`, rank 100, runs at
//! 200 k and at 2 M tasks through `GpuOnly`, the Table I `Hybrid` and
//! `AdaptiveHybrid`. `Timing` fidelity is O(flushes) (DESIGN.md §2), so
//! each costs the same per task at both sizes; the bound is a ratio, so
//! runner speed cancels and only a per-run structure that grows with the
//! flush count trips it.
//!
//! Measured by this test on a 2-vCPU host (release, best of five runs
//! each), ns / task at 200 k → 2 M tasks and the 2 M run's seconds. On
//! the commit before `simulate_device` became `NodeRun`: `GpuOnly`
//! 53–56 → 52–55 (0.10–0.11 s), `Hybrid` 43–44 → 44 (0.09 s),
//! `AdaptiveHybrid` 85–86 → 461–467 (0.92–0.93 s). After it: 48–50 →
//! 48–51 (0.10 s), 40–41 → 40–42 (0.08 s), 82 → 442–473 (0.88–0.95 s).
//! After the device's stream-window list went (four runs on a
//! shared host): 56–91 → 50–91, 43–78 → 43–79, 41–77 → 43–71
//! (0.09–0.18 s each). On an AVX-512F host (two runs each), before
//! the device remembered resident term tables: 41 → 41 (0.08 s),
//! 34 → 34 (0.07 s), 34–35 → 35 (0.07 s); after it, with no walk of the
//! 300 block ids a flush once the table is resident: 26 → 27 (0.05 s),
//! 21 → 21 (0.04 s), 21 → 21 (0.04 s). On a busier AVX-512F host (two
//! runs each, alternating), before the data lanes were booked in closed
//! form: 53 → 44 and 42 → 51 (0.09–0.10 s), 42 → 41 and 37 → 39
//! (0.08 s), 43 → 36 and 39 → 40 (0.07–0.08 s); after it, with one
//! `FifoResource::serve_many` call for a flush's preprocess and one a
//! share for postprocess: 28 → 32 and 38 → 39 (0.06–0.08 s), 26 → 17
//! and 27 → 18 (0.03–0.04 s), 17 → 20 and 25 → 27 (0.04–0.05 s). On an
//! AVX-512F host (two runs each), before the device booked a run's
//! kernels on its streams in closed form: 36 → 23 and 33 → 33
//! (0.05–0.07 s), 15 → 14 and 24 → 23 (0.03–0.05 s), 14 → 15 and
//! 23 → 23 (0.03–0.05 s); after it: 6 → 6 and 5 → 6 (0.01 s), 7 → 7
//! (0.01 s), 7 → 7 (0.01 s). On an AVX-512F host (two runs each),
//! before a run took its device and shape task from its thread's last
//! run and a timing-only batch stopped building a result list: 10 → 9
//! and 8 → 9 (0.02 s), 11 → 10 and 10 → 11 (0.02 s), 10 → 10 and
//! 12 → 11 (0.02 s); after it: 5 → 5 and 3 → 3 (0.007–0.011 s),
//! 7 → 7 and 5 → 5 (0.009–0.014 s), 9 → 9 and 5 → 5 (0.010–0.018 s).
//!
//! Wall-clock assertions do not belong in the default test run:
//!
//! ```bash
//! cargo test --release -p madness-cluster --test node_scale -- --ignored
//! ```

use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_gpusim::KernelKind;
use std::time::{Duration, Instant};

const SMALL: u64 = 200_000;
const LARGE: u64 = 2_000_000;
const MAX_RATIO: f64 = 1.5;
const LINEAR_BUDGET: Duration = Duration::from_secs(1);

const SPEC: WorkloadSpec = WorkloadSpec {
    d: 3,
    k: 10,
    rank: 100,
    rr_mean_rank: None,
};

/// Best of five runs (the sandbox shares its cores): `(host time, ns per
/// simulated task)`.
fn cost(node: &NodeSim, n_tasks: u64, mode: ResourceMode) -> (Duration, f64) {
    let took = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let report = node.simulate(&SPEC, n_tasks, mode);
            let took = t0.elapsed();
            assert_eq!(report.n_batches, n_tasks.div_ceil(60));
            took
        })
        .min()
        .expect("five runs");
    (took, took.as_nanos() as f64 / n_tasks as f64)
}

#[test]
#[ignore = "wall-clock budget; run in release with --ignored (CI chaos smoke)"]
fn node_pipeline_cost_per_task_does_not_grow_with_the_run() {
    let node = NodeSim::new(NodeParams::default());
    let gpu_only = ResourceMode::GpuOnly {
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
        data_threads: 12,
    };
    let adaptive = ResourceMode::AdaptiveHybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    };
    let rows = [
        ("GpuOnly", gpu_only),
        ("Hybrid", ResourceMode::TABLE1_HYBRID),
        ("AdaptiveHybrid", adaptive),
    ];
    for (name, mode) in rows {
        let (_, small) = cost(&node, SMALL, mode);
        let (took, large) = cost(&node, LARGE, mode);
        println!("{name}: {small:.0} -> {large:.0} ns/task, {LARGE} tasks in {took:?}");
        assert!(
            large <= MAX_RATIO * small,
            "{name}: {large:.0} ns/task at {LARGE} tasks vs {small:.0} at {SMALL}: \
             the pipeline is no longer linear in flushes"
        );
        assert!(
            took < LINEAR_BUDGET,
            "{name}: {took:?} for {LARGE} tasks (budget {LINEAR_BUDGET:?})"
        );
    }
}
