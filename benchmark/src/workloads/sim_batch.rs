//! `sim-batch`: the TimingOnly batch simulators.
//!
//! A pass runs `NodeSim::simulate` on the Table I population in its
//! three resource modes, `ClusterSim::run` on the Table VI TDSE
//! population, and `run_balanced` on a lumpy `CostPartitionMap`
//! population in its three balance modes. `node`, `cluster`, `balance`
//! and the `gpusim` cost model do all the work; no tensor arithmetic
//! runs.

use super::{coulomb_spec, hybrid_mode, PassOutcome, PassRec, Workload};
use crate::spans::{Layer, Tracer};
use madness_cluster::balance::BalanceMode;
use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_core::coulomb::CoulombApp;
use madness_core::tdse::TdseApp;
use madness_gpusim::KernelKind;
use madness_mra::procmap::CostPartitionMap;
use madness_mra::synth::{synthesize_tree, SynthTreeParams};
use madness_trace::NullRecorder;

/// Nodes of the Table VI cluster leg.
pub const CLUSTER_NODES: usize = 100;
/// Nodes of the balance legs.
pub const BALANCE_NODES: usize = 16;
/// Leaves of the Table I (Coulomb), Table VI (TDSE) and lumpy trees:
/// the paper's populations scaled down so a pass takes ~1.5 s.
pub const TABLE1_LEAVES: usize = 1_000;
pub const TDSE_LEAVES: usize = 1_500;
pub const LUMPY_LEAVES: usize = 2_000;

pub struct SimBatch {
    pub sim: ClusterSim,
    pub table1_spec: WorkloadSpec,
    pub table1_tasks: u64,
    pub tdse: TaskPopulation,
    pub lumpy: TaskPopulation,
}

/// The lumpy population of the balance report, seeded and sized for
/// `nodes`: a depth-1 cost partition can use at most 8 subtree roots,
/// so most of the cluster starts idle.
///
/// The feature centre is the balance report's, not seeded: how lumpy
/// the partition is depends on which octants the centre loads, and a
/// seeded centre moves the static makespan 3× from seed to seed. The
/// seed drives the refinement jitter only.
pub fn lumpy_population(seed: u64, nodes: usize) -> TaskPopulation {
    let tree = synthesize_tree(
        3,
        10,
        &SynthTreeParams {
            target_leaves: LUMPY_LEAVES,
            centers: vec![vec![0.3, 0.4, 0.5]],
            width: 0.12,
            level_decay: 0.5,
            seed,
            with_coeffs: false,
        },
    );
    let map = CostPartitionMap::build(&tree, 1, nodes);
    TaskPopulation::from_tree(&tree, coulomb_spec(), &map, nodes, 27)
}

fn balance_modes() -> [(&'static str, &'static str, BalanceMode); 3] {
    [
        (
            "cluster.balance.run_balanced[static]",
            "cluster.balance.sim_static_s",
            BalanceMode::Static,
        ),
        (
            "cluster.balance.run_balanced[steal]",
            "cluster.balance.sim_steal_s",
            BalanceMode::Steal {
                min_batch: 60,
                max_inflight: 8,
            },
        ),
        (
            "cluster.balance.run_balanced[repartition]",
            "cluster.balance.sim_repartition_s",
            BalanceMode::Repartition { epochs: 4 },
        ),
    ]
}

impl SimBatch {
    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let (table1, _) = t.call("core.CoulombApp::synthetic", Layer::Core, |_| {
            CoulombApp::synthetic(10, 1e-8, TABLE1_LEAVES, seed)
        });
        let (tdse, _) = t.call("core.TdseApp::synthetic+partition", Layer::Core, |_| {
            let app = TdseApp::synthetic(14, 100, TDSE_LEAVES, seed);
            let map = CostPartitionMap::build(&app.tree, 4, CLUSTER_NODES);
            TaskPopulation::from_tree_exact(
                &app.tree,
                app.spec(Some(1e-6)),
                &map,
                CLUSTER_NODES,
                &app.op.displacements(),
            )
        });
        let (lumpy, _) = t.call("mra.synthesize_tree+CostPartitionMap", Layer::Mra, |_| {
            lumpy_population(seed, BALANCE_NODES)
        });
        SimBatch {
            sim: ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default()),
            table1_spec: table1.spec(None),
            table1_tasks: table1.task_count(),
            tdse,
            lumpy,
        }
    }
}

impl Workload for SimBatch {
    fn pass(&self, t: &mut Tracer) -> PassOutcome {
        let mut rec = PassRec::new(t);
        let mut sim_s = 0.0;
        let mut tasks = 0u64;

        let n1 = self.table1_tasks;
        let node_modes: [(&'static str, &'static str, ResourceMode); 3] = [
            (
                "cluster.node.simulate[cpu16]",
                "cluster.node.sim_cpu_s",
                ResourceMode::CpuOnly { threads: 16 },
            ),
            (
                "cluster.node.simulate[gpu5]",
                "cluster.node.sim_gpu_s",
                ResourceMode::GpuOnly {
                    streams: 5,
                    kernel: KernelKind::CustomMtxmq,
                    data_threads: 12,
                },
            ),
            (
                "cluster.node.simulate[hybrid]",
                "cluster.node.sim_hybrid_s",
                hybrid_mode(),
            ),
        ];
        for (leg, metric, mode) in node_modes {
            let report = rec.leg(leg, Layer::Node, || {
                (self.sim.node().simulate(&self.table1_spec, n1, mode), n1)
            });
            rec.check(report.total.as_nanos() > 0 && report.n_batches > 0, || {
                format!("{leg}: empty report")
            });
            rec.exact(metric, report.total.as_secs_f64());
            sim_s += report.total.as_secs_f64();
            tasks += n1;
        }

        let n6 = self.tdse.total();
        let tdse_mode = ResourceMode::Hybrid {
            compute_threads: 9,
            data_threads: 6,
            streams: 5,
            kernel: KernelKind::CublasLike,
        };
        let report = rec.leg("cluster.cluster.run[tdse]", Layer::Cluster, || {
            (self.sim.run(&self.tdse, tdse_mode), n6)
        });
        rec.check(report.total_tasks == n6, || {
            format!("cluster.run: executed {} of {n6} tasks", report.total_tasks)
        });
        rec.exact("cluster.cluster.sim_makespan_s", report.total.as_secs_f64());
        sim_s += report.total.as_secs_f64();
        tasks += n6;

        let nb = self.lumpy.total();
        for (leg, metric, bmode) in balance_modes() {
            let (report, bal) = rec.leg(leg, Layer::Balance, || {
                (
                    self.sim
                        .run_balanced(&self.lumpy, hybrid_mode(), bmode, &mut NullRecorder),
                    nb,
                )
            });
            rec.check(report.total_tasks == nb, || {
                format!("{leg}: executed {} of {nb} tasks", report.total_tasks)
            });
            rec.exact(metric, report.total.as_secs_f64());
            if matches!(bmode, BalanceMode::Steal { .. }) {
                rec.exact("cluster.balance.steals", bal.steals as f64);
                rec.exact("cluster.balance.migrated_tasks", bal.migrated_tasks as f64);
            }
            sim_s += report.total.as_secs_f64();
            tasks += nb;
        }

        let mut out = rec.out;
        out.main_s = out.legs.iter().map(|l| l.secs).sum();
        out.tasks = tasks;
        out.sim_makespan_s = sim_s;
        out
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("table1_tasks", self.table1_tasks),
            ("tdse_tasks", self.tdse.total()),
            ("tdse_max_per_node", self.tdse.max_per_node()),
            ("lumpy_tasks", self.lumpy.total()),
            ("lumpy_max_per_node", self.lumpy.max_per_node()),
        ]
    }
}
