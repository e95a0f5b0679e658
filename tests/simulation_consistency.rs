//! Cross-crate invariants of the timing simulators.

use madness::cluster::cluster::ClusterSim;
use madness::cluster::network::NetworkModel;
use madness::cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness::cluster::workload::{TaskPopulation, WorkloadSpec};
use madness::gpusim::{KernelKind, SimTime};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;

/// The whole simulation stack is deterministic: identical inputs give
/// bit-identical simulated times.
#[test]
fn simulation_is_deterministic() {
    let node = NodeSim::new(NodeParams::default());
    let a = node.simulate(&spec(), 3_000, HYBRID);
    let b = node.simulate(&spec(), 3_000, HYBRID);
    assert_eq!(a.total, b.total);
    assert_eq!(a.cpu_compute, b.cpu_compute);
    assert_eq!(a.gpu_busy, b.gpu_busy);
}

/// Time grows monotonically with task count in every mode.
#[test]
fn time_monotone_in_tasks() {
    let node = NodeSim::new(NodeParams::default());
    for mode in [
        ResourceMode::CpuOnly { threads: 16 },
        ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        },
        HYBRID,
    ] {
        let mut prev = SimTime::ZERO;
        for n in [100u64, 1_000, 5_000, 20_000] {
            let t = node.simulate(&spec(), n, mode).total;
            assert!(t > prev, "{mode:?}: {t} after {prev}");
            prev = t;
        }
    }
}

/// Large workloads scale ~linearly (fixed overheads amortize away).
#[test]
fn large_workloads_scale_linearly() {
    let node = NodeSim::new(NodeParams::default());
    let t1 = node.simulate(&spec(), 30_000, HYBRID).total.as_secs_f64();
    let t2 = node.simulate(&spec(), 60_000, HYBRID).total.as_secs_f64();
    let ratio = t2 / t1;
    assert!(
        (1.9..2.1).contains(&ratio),
        "doubling tasks gave ratio {ratio:.3}"
    );
}

/// Cluster makespan can never beat perfect division of the single-node
/// time, and never exceeds it at one node.
#[test]
fn cluster_bounded_by_perfect_scaling() {
    let sim = ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default());
    let total_tasks = 48_000u64;
    let single = sim
        .run(&TaskPopulation::even(spec(), total_tasks, 1), HYBRID)
        .total
        .as_secs_f64();
    for n in [4usize, 12, 24] {
        let t = sim
            .run(&TaskPopulation::even(spec(), total_tasks, n), HYBRID)
            .total
            .as_secs_f64();
        assert!(
            t >= single / n as f64 * 0.99,
            "{n} nodes beat perfect scaling: {t} vs {}",
            single / n as f64
        );
        assert!(t <= single, "{n} nodes slower than 1 node");
    }
}

/// The hybrid never loses badly to either pure mode (the dispatcher can
/// always emulate them), and the Table I configuration beats both.
#[test]
fn hybrid_dominates_at_scale() {
    let node = NodeSim::new(NodeParams::default());
    let n = 24_000;
    let cpu = node
        .simulate(&spec(), n, ResourceMode::CpuOnly { threads: 16 })
        .total;
    let gpu = node
        .simulate(
            &spec(),
            n,
            ResourceMode::GpuOnly {
                streams: 5,
                kernel: KernelKind::CustomMtxmq,
                data_threads: 12,
            },
        )
        .total;
    let hyb = node.simulate(&spec(), n, HYBRID).total;
    assert!(hyb < cpu.min(gpu));
}

/// GPU-report busy accounting is consistent: busy time never exceeds
/// total × concurrency.
#[test]
fn resource_accounting_is_sane() {
    let node = NodeSim::new(NodeParams::default());
    let r = node.simulate(&spec(), 6_000, HYBRID);
    assert!(r.n_batches == 100);
    assert!(r.cpu_compute + r.gpu_busy > SimTime::ZERO);
    assert!(r.mean_split_k > 0.0 && r.mean_split_k < 1.0);
    assert!(r.dispatch_busy < r.total);
}

/// Rank reduction must never make anything slower.
#[test]
fn rank_reduction_never_hurts() {
    let node = NodeSim::new(NodeParams::default());
    let full = spec();
    let rr = WorkloadSpec {
        rr_mean_rank: Some(4),
        ..full
    };
    for mode in [
        ResourceMode::CpuOnly { threads: 16 },
        HYBRID,
        ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        },
    ] {
        let t_full = node.simulate(&full, 6_000, mode).total;
        let t_rr = node.simulate(&rr, 6_000, mode).total;
        assert!(t_rr <= t_full, "{mode:?}: rank reduction slowed things");
    }
}
