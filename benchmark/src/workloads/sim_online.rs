//! `sim-online`: the fault-free event-driven simulators.
//!
//! A pass serves one Poisson and one bursty OnOff tenant on 64 nodes
//! (`run_served`, `Static` and `Steal`, `kinds_per_tenant = nodes` so
//! every node is a home) and schedules a seeded synthetic chained DAG
//! (`run_dag`, `Dataflow` and `Barrier`). `serve`, `dag`, `des` and
//! `network` dominate; the sizes sit where the O(nodes) victim scan and
//! the list scheduler's growth in the task count are visible.

use super::{coulomb_spec, hybrid_mode, PassOutcome, PassRec, Rng, Workload};
use crate::spans::{Layer, Tracer};
use madness_cluster::balance::BalanceMode;
use madness_cluster::cluster::ClusterSim;
use madness_cluster::dag::{run_dag, DagFaultSpec, DagMode, DagTask, DagWorkload};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeRate, NodeSim};
use madness_cluster::serve::{
    generate_requests, RateProfile, ServeConfig, ServeReport, ShedPolicy, TenantSpec,
};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::{NullRecorder, Stage};

/// Nodes serving the traffic.
pub const SERVE_NODES: usize = 64;
/// Nodes the DAG is scheduled on.
pub const DAG_NODES: usize = 16;
/// Chains × steps of the synthetic DAG.
pub const DAG_CHAINS: u32 = 64;
pub const DAG_STEPS: u32 = 150;
/// Apply tasks behind every request.
pub const TASKS_PER_REQUEST: u64 = 4;

pub fn steal_mode() -> BalanceMode {
    BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    }
}

pub fn new_cluster() -> ClusterSim {
    ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
}

/// The calibrated healthy node rate every serve and DAG leg runs on.
pub fn healthy_rate(sim: &ClusterSim) -> NodeRate {
    sim.node().calibrate(
        &coulomb_spec(),
        hybrid_mode(),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    )
}

/// Two tenants offering `rho` × the calibrated capacity of `nodes`
/// nodes until `horizon`: an interactive Poisson tenant and a bursty
/// OnOff batch tenant of the same mean rate.
pub fn serve_config(
    rate: NodeRate,
    nodes: usize,
    rho: f64,
    horizon: SimTime,
    seed: u64,
) -> ServeConfig {
    let per_request = rate.per_task.as_secs_f64() * TASKS_PER_REQUEST as f64;
    let total = rho * nodes as f64 / per_request.max(1e-12);
    ServeConfig {
        spec: coulomb_spec(),
        tenants: vec![
            TenantSpec {
                id: TenantId(1),
                weight: 4.0,
                deadline: SimTime::from_millis(5),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request: TASKS_PER_REQUEST,
            },
            TenantSpec {
                id: TenantId(2),
                weight: 1.0,
                deadline: SimTime::from_millis(20),
                // Mean rate total/2: on at 1.5×, off at 0.5×, half the time each.
                profile: RateProfile::OnOff {
                    rate_on: 0.75 * total,
                    rate_off: 0.25 * total,
                    period: SimTime::from_millis(50),
                    duty: 0.5,
                },
                tasks_per_request: TASKS_PER_REQUEST,
            },
        ],
        nodes,
        seed,
        horizon,
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: nodes as u64,
    }
}

/// A seeded chained-operator DAG: `chains` chains of `steps` steps,
/// each task depending on its chain's previous step and, one time in
/// four, on another chain's previous step. Edges only cross strictly
/// increasing steps, so the barrier baseline can run it too.
pub fn synthetic_dag(seed: u64, chains: u32, steps: u32) -> DagWorkload {
    let mut rng = Rng::new(seed, 0xDA6);
    let mut w = DagWorkload::new();
    let mut prev: Vec<usize> = Vec::new();
    for step in 0..steps {
        let mut this = Vec::with_capacity(chains as usize);
        for chain in 0..chains {
            let mut deps = Vec::new();
            if step > 0 {
                deps.push(prev[chain as usize]);
                if chains > 1 && rng.below(4) == 0 {
                    let other = (chain + 1 + rng.below(u64::from(chains) - 1) as u32) % chains;
                    deps.push(prev[other as usize]);
                }
            }
            let apply = step % 2 == 0;
            this.push(w.push(DagTask {
                chain,
                step,
                stage: if apply {
                    Stage::CpuCompute
                } else {
                    Stage::Postprocess
                },
                cost: if apply {
                    20 + rng.below(41)
                } else {
                    4 + rng.below(9)
                },
                deps,
            }));
        }
        prev = this;
    }
    w
}

pub struct SimOnline {
    pub sim: ClusterSim,
    pub rate: NodeRate,
    pub cfg: ServeConfig,
    pub requests: u64,
    pub dag: DagWorkload,
}

/// The serving checks every fault-free run must pass.
pub fn check_fault_free_serve(rec: &mut PassRec, leg: &'static str, r: &ServeReport, gen: u64) {
    rec.check(r.conserved(), || format!("{leg}: not conserved"));
    rec.check(r.generated == gen, || {
        format!("{leg}: generated {} != trace {gen}", r.generated)
    });
    rec.check(
        r.completed == r.generated && r.rejected + r.shed == 0,
        || {
            format!(
                "{leg}: fault-free run completed {} of {} (rejected {}, shed {})",
                r.completed, r.generated, r.rejected, r.shed
            )
        },
    );
}

impl SimOnline {
    /// Arrival horizon of the serve legs.
    pub const HORIZON: SimTime = SimTime::from_millis(2_000);

    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let sim = new_cluster();
        let (rate, _) = t.call("cluster.node.calibrate", Layer::Node, |_| {
            healthy_rate(&sim)
        });
        let cfg = serve_config(rate, SERVE_NODES, 0.6, Self::HORIZON, seed);
        let (requests, _) = t.call("cluster.serve.generate_requests", Layer::Serve, |_| {
            generate_requests(&cfg).len() as u64
        });
        let (dag, _) = t.call("bench.synthetic_dag", Layer::Bench, |_| {
            synthetic_dag(seed, DAG_CHAINS, DAG_STEPS)
        });
        SimOnline {
            sim,
            rate,
            cfg,
            requests,
            dag,
        }
    }
}

impl Workload for SimOnline {
    fn pass(&self, t: &mut Tracer) -> PassOutcome {
        let mut rec = PassRec::new(t);
        let mut tasks = 0u64;
        let mut sim_s = 0.0;

        let serve_legs: [(&'static str, BalanceMode); 2] = [
            ("cluster.serve.run_served[static]", BalanceMode::Static),
            ("cluster.serve.run_served[steal]", steal_mode()),
        ];
        for (leg, bmode) in serve_legs {
            let report = rec.leg(leg, Layer::Serve, || {
                let r = self
                    .sim
                    .run_served(&self.cfg, hybrid_mode(), bmode, &mut NullRecorder);
                let tasks = r.completed * TASKS_PER_REQUEST;
                (r, tasks)
            });
            check_fault_free_serve(&mut rec, leg, &report, self.requests);
            tasks += report.completed * TASKS_PER_REQUEST;
            let latency = report.overall;
            if bmode != BalanceMode::Static {
                rec.exact("cluster.serve.sim_p50_ms", latency.p50.as_millis_f64());
                rec.exact("cluster.serve.sim_p99_ms", latency.p99.as_millis_f64());
                rec.exact("cluster.serve.sim_p999_ms", latency.p999.as_millis_f64());
                rec.exact("cluster.serve.steals", report.steals as f64);
            } else {
                rec.exact(
                    "cluster.serve.sim_p99_static_ms",
                    latency.p99.as_millis_f64(),
                );
            }
        }

        let net = NetworkModel::default();
        let n = self.dag.len() as u64;
        let dag_legs: [(&'static str, &'static str, DagMode); 2] = [
            (
                "cluster.dag.run_dag[dataflow]",
                "cluster.dag.sim_dataflow_s",
                DagMode::Dataflow,
            ),
            (
                "cluster.dag.run_dag[barrier]",
                "cluster.dag.sim_barrier_s",
                DagMode::Barrier,
            ),
        ];
        for (leg, metric, mode) in dag_legs {
            let report = rec.leg(leg, Layer::Dag, || {
                let r = run_dag(
                    &self.dag,
                    DAG_NODES,
                    self.rate,
                    &net,
                    mode,
                    &DagFaultSpec::none(),
                    &mut NullRecorder,
                );
                (r, n)
            });
            rec.check(report.conserved(DAG_NODES), || {
                format!("{leg}: not conserved")
            });
            rec.check(report.tasks == n && report.injected == 0, || {
                format!(
                    "{leg}: ran {} of {n} tasks, {} faults",
                    report.tasks, report.injected
                )
            });
            rec.exact(metric, report.makespan.as_secs_f64());
            if mode == DagMode::Dataflow {
                rec.exact("cluster.dag.sim_overlap_ms", report.overlap_ns as f64 / 1e6);
            }
            sim_s += report.makespan.as_secs_f64();
            tasks += n;
        }

        let mut out = rec.out;
        out.main_s = out.legs.iter().map(|l| l.secs).sum();
        out.tasks = tasks;
        out.sim_makespan_s = sim_s;
        out
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let cost: u64 = self.dag.tasks().iter().map(|t| t.cost).sum();
        vec![
            ("requests", self.requests),
            ("dag_tasks", self.dag.len() as u64),
            ("dag_edges", self.dag.edges() as u64),
            ("dag_cost", cost),
        ]
    }
}
