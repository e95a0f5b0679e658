//! Regression pin (ISSUE 4, satellite 6): an **empty** fault plan is
//! perfectly inert, and a recorder never perturbs a run.
//!
//! Every family has one body now, so "fault-aware entry point ≡
//! fault-oblivious twin" is no longer a comparison between two
//! implementations; what the old twins produced on the commit before
//! they were deleted is pinned by `engine_goldens.rs` ("cluster traced
//! fault-free"). What this file still pins is the pair each family
//! keeps: the plain name (untraced — and, for the cluster, parallel)
//! against the full signature fed [`FaultPlan::none`] and a
//! [`MemRecorder`] — same `NodeReport`, same `BatchOutcome`, same
//! `ClusterReport`, and a fault machinery that reports nothing.

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{FaultSummary, NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_faults::{FaultAction, FaultInjector, FaultKind, FaultPlan, RecoveryPolicy};
use madness_gpusim::{ExecMode, GpuDevice, KernelKind, SimTime, TransformTask};
use madness_trace::MemRecorder;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn all_modes() -> [ResourceMode; 4] {
    [
        ResourceMode::CpuOnly { threads: 16 },
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
        ResourceMode::AdaptiveHybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
    ]
}

/// Node level: the report is identical in every mode, traced or not,
/// and an empty plan provokes no recovery.
#[test]
fn node_report_bit_identical() {
    let node = NodeSim::new(NodeParams::default());
    for mode in all_modes() {
        let base = node.simulate(&spec(), 5_000, mode);

        let mut rec = MemRecorder::new();
        let (faulty, sum) = node.simulate_faulty(
            &spec(),
            5_000,
            mode,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            &mut rec,
        );

        assert_eq!(base, faulty, "NodeReport diverged under {mode:?}");
        assert_eq!(rec.faults().count(), 0, "{mode:?} journaled a fault");
        assert!(sum.conserved(5_000), "{sum:?}");
        assert_eq!(sum.gpu_task_failures + sum.quarantines + sum.lost, 0);
    }
}

/// Why `FaultCtx::active` exists (ROADMAP item 1, finding (a)): the
/// learned dispatcher's timeout detector fires on a *healthy* device. A
/// plan that is non-empty but can never fire — its window opens one
/// nanosecond before the end of time — arms the recovery machinery and
/// injects nothing, yet this run journals a `StreamStall / Detected`.
/// The cost model is nanoseconds *per task*, first learned from the
/// 7-task probe share that filled all 7 streams (≈ 120 µs a task); as
/// the split walks toward the CPU the GPU share shrinks to one task,
/// whose batch still takes one kernel's ≈ 0.83 ms — over 4 × the
/// ≈ 177 µs the EWMA expects by the fourth flush. The `NodeReport` is
/// untouched (detection only dings health, and one ding quarantines
/// nothing), so the false positive shows in the summary and the journal
/// alone. [`FaultPlan::none`] skips the detector, which is the only
/// reason `node_report_bit_identical` above can assert an empty fault
/// journal in `AdaptiveHybrid`. A fix to the detector edits this test:
/// the asserts on the armed run become "nothing detected".
#[test]
fn armed_plan_that_never_fires_still_detects_a_timeout() {
    let mut params = NodeParams::default();
    params.gpu.device_mem_bytes = 1 << 20;
    params.batch.max_batch = 14;
    let node = NodeSim::new(params);
    let spec = WorkloadSpec {
        d: 4,
        k: 2,
        rank: 55,
        rr_mean_rank: Some(2),
    };
    let mode = ResourceMode::AdaptiveHybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 7,
        kernel: KernelKind::CublasLike,
    };
    let never = FaultPlan::seeded(7)
        .with_launch_fail_rate(0.5)
        .with_window(u64::MAX - 1, u64::MAX);
    let run = |plan: &FaultPlan| {
        let mut rec = MemRecorder::new();
        let out = node.simulate_faulty(&spec, 819, mode, plan, RecoveryPolicy::default(), &mut rec);
        let faults: Vec<_> = rec.faults().map(|e| (e.kind, e.action)).collect();
        (out, faults)
    };
    let ((clean_report, clean_sum), clean_faults) = run(&FaultPlan::none());
    let ((armed_report, armed_sum), armed_faults) = run(&never);

    assert_eq!(clean_report, armed_report, "nothing was injected");
    assert!(clean_faults.is_empty() && clean_sum.timeouts_detected == 0);
    assert_eq!(
        armed_faults,
        [(FaultKind::StreamStall, FaultAction::Detected)],
        "finding (a): the one event is a detection with no injection behind it"
    );
    assert_eq!(
        armed_sum,
        FaultSummary {
            timeouts_detected: 1,
            ..clean_sum
        }
    );
}

/// Device level: `execute_batch_injected` with an inert injector and a
/// live recorder matches `execute_batch` field for field.
#[test]
fn batch_outcome_bit_identical() {
    let tasks: Vec<TransformTask> = (0..64)
        .map(|i| TransformTask::shape_only(3, 10, 100, i))
        .collect();
    for mode in [ExecMode::Timing, ExecMode::Full] {
        let mut dev_a = GpuDevice::new(Default::default(), 5);
        let base = dev_a.execute_batch(&tasks, KernelKind::CustomMtxmq, mode);

        let mut dev_b = GpuDevice::new(Default::default(), 5);
        let mut rec = MemRecorder::new();
        let mut inert = FaultInjector::new(&FaultPlan::none());
        let faulty = dev_b.execute_batch_injected(
            &tasks,
            KernelKind::CustomMtxmq,
            mode,
            SimTime::ZERO,
            &mut rec,
            &mut inert,
        );

        assert_eq!(base.time, faulty.time, "{mode:?}");
        assert_eq!(base.breakdown, faulty.breakdown, "{mode:?}");
        assert!(faulty.failed.is_empty(), "{mode:?}");
        assert_eq!(base.results.len(), faulty.results.len());
        for (a, b) in base.results.iter().zip(&faulty.results) {
            match (a, b) {
                (None, None) => {}
                (Some(ta), Some(tb)) => assert_eq!(ta.as_slice(), tb.as_slice(), "{mode:?}"),
                _ => panic!("result presence diverged under {mode:?}"),
            }
        }
        assert_eq!(rec.faults().count(), 0, "{mode:?} journaled a fault");
    }
}

/// Cluster level: all-empty plans through the traced, sequential path
/// reproduce the parallel untraced `run` exactly.
#[test]
fn cluster_report_bit_identical() {
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let pop = TaskPopulation::even(spec(), 20_000, 5);
    let mode = ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    };

    let base = sim.run(&pop, mode);

    let mut rec = MemRecorder::new();
    let plans = vec![FaultPlan::none(); 5];
    let (faulty, sums) =
        sim.run_with_faults(&pop, mode, &plans, RecoveryPolicy::default(), &mut rec);

    assert_eq!(base, faulty);
    assert_eq!(rec.faults().count(), 0);
    for (sum, &n) in sums.iter().zip(&pop.per_node) {
        assert!(sum.conserved(n), "{sum:?}");
        assert_eq!(sum.dropped_messages, 0);
    }
}
