//! Host-time pin for the node pipeline (ISSUE 23), as `serve_scale.rs`
//! and `dag_scale.rs` are for theirs: what one simulated task costs the
//! host must not grow with the run's length. `d3 k10`, rank 100, runs at
//! 200 k and at 2 M tasks through `GpuOnly`, the Table I `Hybrid` and
//! `AdaptiveHybrid`. `Timing` fidelity is O(flushes) (DESIGN.md §2), so
//! the first two cost the same per task at both sizes; the bound on
//! them is a ratio, so runner speed cancels and only a per-run structure
//! that grows with the flush count trips it.
//!
//! `AdaptiveHybrid` *has* such a structure today — ROADMAP item 1,
//! finding (d): the device's in-flight window list is only pruned by a
//! `queue_depth(now)` whose `now` is the preprocess release time, which
//! a device-bound run leaves far behind the device's own clock, so every
//! flush walks every earlier window. It gets an absolute budget instead
//! of a ratio; whoever fixes (d) gives its row the ratio too.
//!
//! Measured by this test on the 2-vCPU sandbox (release, best of five
//! runs each, three sessions), ns / task at 200 k → 2 M tasks and the
//! 2 M run's seconds. On the commit before `simulate_device` became
//! `NodeRun`: `GpuOnly` 53–56 → 52–55 (0.10–0.11 s), `Hybrid` 43–44 → 44
//! (0.09 s), `AdaptiveHybrid` 85–86 → 461–467 (0.92–0.93 s). After it:
//! 48–50 → 48–51 (0.10 s), 40–41 → 40–42 (0.08 s), 82 → 442–473
//! (0.88–0.95 s).
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
const ADAPTIVE_BUDGET: Duration = Duration::from_secs(5);

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
    // `AdaptiveHybrid` is quadratic in flushes today (finding (d), module
    // docs): an absolute budget ≈ 5× what it costs, and no ratio.
    let rows = [
        ("GpuOnly", gpu_only, Some(MAX_RATIO), LINEAR_BUDGET),
        (
            "Hybrid",
            ResourceMode::TABLE1_HYBRID,
            Some(MAX_RATIO),
            LINEAR_BUDGET,
        ),
        ("AdaptiveHybrid", adaptive, None, ADAPTIVE_BUDGET),
    ];
    for (name, mode, max_ratio, budget) in rows {
        let (_, small) = cost(&node, SMALL, mode);
        let (took, large) = cost(&node, LARGE, mode);
        println!("{name}: {small:.0} -> {large:.0} ns/task, {LARGE} tasks in {took:?}");
        if let Some(max_ratio) = max_ratio {
            assert!(
                large <= max_ratio * small,
                "{name}: {large:.0} ns/task at {LARGE} tasks vs {small:.0} at {SMALL}: \
                 the pipeline is no longer linear in flushes"
            );
        }
        assert!(
            took < budget,
            "{name}: {took:?} for {LARGE} tasks (budget {budget:?})"
        );
    }
}
