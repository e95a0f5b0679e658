//! A pipelined node run takes its device and its shape task from its
//! thread's node workspace: the last run's device, reset, and the last
//! shape task built. What ran on the thread before must not show, so a
//! run on a thread that ran another spec, another mode and a faulted
//! plan that lost its device must give the same report, fault summary
//! and journal, bit for bit, as the same run on a thread of its own.
//! With debug assertions on, every device the workspace hands out is
//! also checked against a new one (`GpuDevice::reset`'s oracle).

use madness_cluster::node::{FaultSummary, NodeParams, NodeReport, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_trace::MemRecorder;

const TASKS: u64 = 6_000;

const COULOMB: WorkloadSpec = WorkloadSpec {
    d: 3,
    k: 10,
    rank: 100,
    rr_mean_rank: None,
};

const REDUCED: WorkloadSpec = WorkloadSpec {
    d: 3,
    k: 10,
    rank: 60,
    rr_mean_rank: Some(4),
};

const GPU5: ResourceMode = ResourceMode::GpuOnly {
    streams: 5,
    kernel: KernelKind::CustomMtxmq,
    data_threads: 12,
};

const ADAPTIVE: ResourceMode = ResourceMode::AdaptiveHybrid {
    compute_threads: 10,
    data_threads: 5,
    streams: 5,
    kernel: KernelKind::CublasLike,
};

type Traced = (NodeReport, FaultSummary, MemRecorder);

fn traced(spec: &WorkloadSpec, mode: ResourceMode, plan: &FaultPlan) -> Traced {
    let node = NodeSim::new(NodeParams::default());
    let mut rec = MemRecorder::new();
    let (report, summary) =
        node.simulate_faulty(spec, TASKS, mode, plan, RecoveryPolicy::default(), &mut rec);
    (report, summary, rec)
}

/// The run on a thread that never ran a node.
fn on_a_new_thread(spec: &WorkloadSpec, mode: ResourceMode, plan: &FaultPlan) -> Traced {
    std::thread::scope(|s| s.spawn(|| traced(spec, mode, plan)).join().unwrap())
}

/// Runs that leave the calling thread's workspace dirty: `spec` in
/// another mode, and a plan that loses `spec`'s device a third of the
/// way into a GPU-only run and never readmits it, in either order. With
/// `lost_last` the next run gets a lost device; otherwise a warm one
/// whose memo holds `spec`'s table (the other-mode run revived the lost
/// device at its first gate).
fn dirty_the_thread(spec: &WorkloadSpec, mode: ResourceMode, lost_last: bool) {
    let other = if matches!(mode, ResourceMode::GpuOnly { .. }) {
        ResourceMode::TABLE1_HYBRID
    } else {
        GPU5
    };
    let clean = on_a_new_thread(spec, GPU5, &FaultPlan::none())
        .0
        .total
        .as_nanos();
    let lose = || {
        let plan = FaultPlan::seeded(7).with_device_lost_at(clean / 3);
        let (_, lost, _) = traced(spec, GPU5, &plan);
        assert!(
            lost.quarantines == 1 && lost.readmissions == 0,
            "the dirtying run must end with its device lost: {lost:?}"
        );
    };
    if !lost_last {
        lose();
    }
    traced(spec, other, &FaultPlan::none());
    if lost_last {
        lose();
    }
}

#[test]
fn a_run_does_not_see_the_runs_before_it_on_its_thread() {
    let launch_faults = FaultPlan::seeded(11).with_launch_fail_rate(0.05);
    let cases = [
        (COULOMB, ResourceMode::TABLE1_HYBRID, FaultPlan::none()),
        (COULOMB, GPU5, launch_faults.clone()),
        (REDUCED, ADAPTIVE, FaultPlan::none()),
        (REDUCED, GPU5, launch_faults),
    ];
    for (spec, mode, plan) in &cases {
        let want = on_a_new_thread(spec, *mode, plan);
        // Another spec (a different shape task and cache size), then the
        // same spec, so the shape task is the thread's.
        let other = if *spec == COULOMB { REDUCED } else { COULOMB };
        for before in [other, *spec] {
            for lost_last in [false, true] {
                dirty_the_thread(&before, *mode, lost_last);
                assert_eq!(
                    traced(spec, *mode, plan),
                    want,
                    "{spec:?} {mode:?} after {before:?}, lost last: {lost_last}"
                );
            }
        }
    }
}
