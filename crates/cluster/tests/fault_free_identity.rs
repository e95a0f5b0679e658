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
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_faults::{FaultInjector, FaultPlan, RecoveryPolicy};
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
