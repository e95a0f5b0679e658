//! What the pinned scenarios share: the Table I task shape and GPU-only
//! mode, the default cluster, the seconds a node or a scenario run takes
//! and the millisecond unit of their tables.
//! (The hybrid node configuration and the steal mode they share are
//! `ResourceMode::TABLE1_HYBRID` and `BalanceMode::PINNED_STEAL`.)

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeRate, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_core::scenario::Scenario;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
use madness_mra::procmap::ProcessMap;

/// The Table I task shape: 3-D, `k = 10`, rank 100, no rank reduction.
pub(crate) const SPEC: WorkloadSpec = WorkloadSpec {
    d: 3,
    k: 10,
    rank: 100,
    rr_mean_rank: None,
};

/// Table I's GPU-only column at its plateau: 5 streams, the custom
/// kernel, 12 CPU data threads.
pub(crate) const TABLE1_GPU: ResourceMode = ResourceMode::GpuOnly {
    streams: 5,
    kernel: KernelKind::CustomMtxmq,
    data_threads: 12,
};

/// Default nodes on the default torus.
pub(crate) fn cluster() -> ClusterSim {
    ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
}

/// The affine rate of a healthy default node running `spec` in the
/// Table I hybrid mode — what the serving and DAG engines cost tasks at.
pub(crate) fn calibrated_rate(spec: &WorkloadSpec) -> NodeRate {
    let node = NodeSim::new(NodeParams::default());
    let (healthy, policy) = (FaultPlan::none(), RecoveryPolicy::default());
    node.calibrate(spec, ResourceMode::TABLE1_HYBRID, &healthy, policy)
}

/// Simulated seconds `node` takes for `n_tasks` tasks of `spec` in `mode`.
pub(crate) fn node_secs(
    node: &NodeSim,
    spec: &WorkloadSpec,
    n_tasks: u64,
    mode: ResourceMode,
) -> f64 {
    node.simulate(spec, n_tasks, mode).total.as_secs_f64()
}

/// Simulated seconds scenario `s` takes on `nodes` nodes under `map`.
pub(crate) fn run_secs(
    s: &Scenario,
    nodes: usize,
    map: &dyn ProcessMap,
    mode: ResourceMode,
) -> f64 {
    s.run(nodes, map, mode).total.as_secs_f64()
}

/// Simulated time in milliseconds.
pub(crate) fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}
