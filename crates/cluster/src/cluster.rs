//! Whole-cluster simulation: partition, per-node pipelines, makespan.

use crate::network::NetworkModel;
use crate::node::{FaultSummary, NodeRate, NodeReport, NodeSim, ResourceMode};
use crate::workload::{TaskPopulation, WorkloadSpec};
use madness_faults::{
    FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, RecoveryPolicy,
};
use madness_gpusim::SimTime;
use madness_trace::{NullRecorder, Recorder, Stage};
use rayon::prelude::*;

/// Aggregate result of a cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Application time: slowest node (static load balancing — "MADNESS
    /// uses static load balancing", §III-A), including any unoverlapped
    /// network injection.
    pub total: SimTime,
    /// The per-node reports (index = compute node).
    pub nodes: Vec<NodeReport>,
    /// Which node was critical.
    pub slowest_node: usize,
    /// Max network injection time across nodes (reported to show it is
    /// not the bottleneck).
    pub network_time: SimTime,
    /// Total tasks executed.
    pub total_tasks: u64,
}

impl ClusterReport {
    /// Ratio of mean node time to the critical node's time (1.0 = all
    /// nodes equally busy).
    pub fn balance(&self) -> f64 {
        if self.nodes.is_empty() || self.total == SimTime::ZERO {
            return 1.0;
        }
        let mean: f64 = self
            .nodes
            .iter()
            .map(|n| n.total.as_secs_f64())
            .sum::<f64>()
            / self.nodes.len() as f64;
        mean / self.total.as_secs_f64()
    }
}

/// Simulates a cluster of identical CPU-GPU nodes.
#[derive(Clone, Debug)]
pub struct ClusterSim {
    node: NodeSim,
    network: NetworkModel,
}

impl ClusterSim {
    /// A cluster whose nodes all use `node`'s parameters.
    pub fn new(node: NodeSim, network: NetworkModel) -> Self {
        ClusterSim { node, network }
    }

    /// The node simulator.
    pub fn node(&self) -> &NodeSim {
        &self.node
    }

    /// The interconnect model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Runs the population under `mode` on every node; the application
    /// finishes when the slowest node does. Network injection overlaps
    /// compute; only any excess beyond compute extends the node's time.
    /// This is [`ClusterSim::run_with_faults`] untraced and fault-free.
    pub fn run(&self, population: &TaskPopulation, mode: ResourceMode) -> ClusterReport {
        self.run_with_faults(
            population,
            mode,
            &[],
            RecoveryPolicy::default(),
            &mut NullRecorder,
        )
        .0
    }

    /// [`ClusterSim::run`] with tracing and per-node fault schedules.
    ///
    /// Traced, nodes run sequentially (the journal is one stream) and
    /// each node's pipeline records into `rec`; the per-node remote
    /// accumulation traffic is journaled as a `NetSend` event at the
    /// node's finish time. Untraced, nodes fan out over the executor.
    /// The report is bit-identical either way.
    ///
    /// Node `i` runs with `plans[i]` (nodes past the slice's end run
    /// fault-free), recovering per `policy`: GPU-side failures retry
    /// with backoff and fall back to the CPU, an unhealthy device is
    /// quarantined and later re-admitted via a probe task, a straggler
    /// plan slows its whole node (the makespan reduction then picks the
    /// straggler up naturally, since the application still waits for the
    /// slowest node). Dropped accumulation messages are retransmitted —
    /// each pays one extra round-trip plus its streaming share on top of
    /// the node's injection time.
    ///
    /// Returns the cluster report plus one [`FaultSummary`] per node;
    /// `summary.conserved(n_tasks)` holds for every node — no task is
    /// lost or run twice, whatever the schedule.
    pub fn run_with_faults<R: Recorder>(
        &self,
        population: &TaskPopulation,
        mode: ResourceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        rec: &mut R,
    ) -> (ClusterReport, Vec<FaultSummary>) {
        let spec = population.spec;
        let none = FaultPlan::none();
        let loads: Vec<NodeLoad> = population
            .per_node
            .iter()
            .enumerate()
            .map(|(i, &n_tasks)| NodeLoad {
                n_tasks,
                plan: plans.get(i).unwrap_or(&none),
                des_finish: None,
            })
            .collect();
        let finished = if R::ENABLED {
            loads
                .iter()
                .map(|load| {
                    if load.plan.straggler_multiplier() != 1.0 {
                        rec.fault(slow_node(load.n_tasks));
                    }
                    self.finish_node(&spec, mode, policy, load, rec)
                })
                .collect()
        } else {
            loads
                .par_iter()
                .map(|load| self.finish_node(&spec, mode, policy, load, &mut NullRecorder))
                .collect()
        };
        self.reduce(finished, population)
    }

    /// One node's contribution to a cluster run: its pipeline on the
    /// load's tasks under its plan, then the injection of its remote
    /// accumulations with dropped messages retransmitted, journaled as a
    /// `NetSend` at the node's finish.
    pub(crate) fn finish_node<R: Recorder>(
        &self,
        spec: &WorkloadSpec,
        mode: ResourceMode,
        policy: RecoveryPolicy,
        load: &NodeLoad,
        rec: &mut R,
    ) -> NodeFinish {
        let NodeLoad {
            n_tasks,
            plan,
            des_finish,
        } = *load;
        let (mut report, mut summary) = self
            .node
            .simulate_faulty(spec, n_tasks, mode, plan, policy, rec);
        if let Some(finish) = des_finish {
            report.total = finish;
        }
        let result_bytes = 8 * (spec.k as u64).pow(spec.d as u32);
        let (msgs, bytes, mut net) = self.network.injection(n_tasks, result_bytes);
        // Message drops ride a fresh injector (the node's own was
        // consumed by its pipeline): each dropped message is detected
        // after a round-trip and streamed again.
        let dropped = FaultInjector::new(plan).dropped_messages(msgs, report.total.as_nanos());
        if dropped > 0 {
            summary.dropped_messages += dropped;
            let per_msg =
                SimTime::from_secs_f64(bytes as f64 / msgs as f64 / self.network.bandwidth);
            if R::ENABLED {
                rec.fault(FaultEvent {
                    kind: FaultKind::DroppedMessage,
                    action: FaultAction::Resent,
                    at_ns: (report.total + net).as_nanos(),
                    tasks: dropped,
                });
            }
            net += (self.network.latency * 2 + per_msg) * dropped;
        }
        if R::ENABLED && msgs > 0 {
            rec.event(Stage::NetSend, report.total.as_nanos(), bytes);
            rec.add("net_msgs_sent", msgs);
            rec.add("net_bytes_sent", bytes);
        }
        NodeFinish {
            report,
            net,
            summary,
        }
    }

    /// The makespan reduction over the finished nodes.
    pub(crate) fn reduce(
        &self,
        finished: Vec<NodeFinish>,
        population: &TaskPopulation,
    ) -> (ClusterReport, Vec<FaultSummary>) {
        let mut total = SimTime::ZERO;
        let mut slowest = 0usize;
        let mut network_time = SimTime::ZERO;
        let mut reports = Vec::with_capacity(finished.len());
        let mut summaries = Vec::with_capacity(finished.len());
        for (i, node) in finished.into_iter().enumerate() {
            // Injection overlaps the pipeline; a node only waits if the
            // network needs longer than its own compute tail.
            let node_total = node.report.total.max(node.net);
            if node_total > total {
                total = node_total;
                slowest = i;
            }
            network_time = network_time.max(node.net);
            reports.push(node.report);
            summaries.push(node.summary);
        }
        let report = ClusterReport {
            total,
            nodes: reports,
            slowest_node: slowest,
            network_time,
            total_tasks: population.total(),
        };
        (report, summaries)
    }

    /// Calibrates one node per entry of `slow_tasks` under its plan, for
    /// the cluster-level DES engines ([`crate::balance`],
    /// [`crate::serve`]): healthy nodes share one rate; each faulty plan
    /// calibrates with its injector active, and a straggler is journaled
    /// as a `SlowNode` fault carrying the node's `slow_tasks` entry.
    /// Returns the healthy rate and the per-node rates.
    pub(crate) fn calibrate_nodes<R: Recorder>(
        &self,
        spec: &WorkloadSpec,
        mode: ResourceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        slow_tasks: &[u64],
        rec: &mut R,
    ) -> (NodeRate, Vec<NodeRate>) {
        let none = FaultPlan::none();
        let healthy = self.node.calibrate(spec, mode, &none, policy);
        let rates = slow_tasks
            .iter()
            .enumerate()
            .map(|(i, &tasks)| {
                let plan = plans.get(i).unwrap_or(&none);
                if FaultInjector::new(plan).is_inert() {
                    return healthy;
                }
                if R::ENABLED && plan.straggler_multiplier() != 1.0 {
                    rec.fault(slow_node(tasks));
                }
                self.node.calibrate(spec, mode, plan, policy)
            })
            .collect();
        (healthy, rates)
    }
}

/// One node's share of a cluster run ([`ClusterSim::finish_node`]).
pub(crate) struct NodeLoad<'a> {
    pub(crate) n_tasks: u64,
    pub(crate) plan: &'a FaultPlan,
    /// The finish time a cluster-level DES already settled for the node
    /// ([`ClusterSim::run_balanced_with_faults`]); overrides the
    /// isolated pipeline's total.
    pub(crate) des_finish: Option<SimTime>,
}

/// What one node hands the makespan reduction
/// ([`ClusterSim::finish_node`]).
pub(crate) struct NodeFinish {
    report: NodeReport,
    /// Injection time of the node's remote accumulations, retransmits
    /// included.
    net: SimTime,
    summary: FaultSummary,
}

/// The journal entry announcing a straggler node.
fn slow_node(tasks: u64) -> FaultEvent {
    FaultEvent {
        kind: FaultKind::SlowNode,
        action: FaultAction::Injected,
        at_ns: 0,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeParams;
    use crate::workload::WorkloadSpec;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: 10,
            rank: 100,
            rr_mean_rank: None,
        }
    }

    fn sim() -> ClusterSim {
        ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
    }

    const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;

    #[test]
    fn even_population_scales_with_nodes() {
        let s = sim();
        let t = |n_nodes: usize| {
            let pop = TaskPopulation::even(spec(), 160_000, n_nodes);
            s.run(&pop, ResourceMode::CpuOnly { threads: 16 })
                .total
                .as_secs_f64()
        };
        let t2 = t(2);
        let t8 = t(8);
        let t16 = t(16);
        assert!(t2 / t8 > 3.5, "2→8 nodes speedup {}", t2 / t8);
        assert!(t8 / t16 > 1.8, "8→16 nodes speedup {}", t8 / t16);
    }

    #[test]
    fn makespan_is_slowest_node() {
        let s = sim();
        let pop = TaskPopulation {
            spec: spec(),
            per_node: vec![100, 5_000, 300],
        };
        let r = s.run(&pop, ResourceMode::CpuOnly { threads: 16 });
        assert_eq!(r.slowest_node, 1);
        assert!(r.balance() < 0.7, "imbalance must show: {}", r.balance());
    }

    #[test]
    fn network_never_dominates_at_paper_scale() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 154_468, 100);
        let r = s.run(&pop, HYBRID);
        assert!(
            r.network_time.as_secs_f64() < 0.1 * r.total.as_secs_f64(),
            "network {} vs total {}",
            r.network_time,
            r.total
        );
    }

    #[test]
    fn hybrid_cluster_beats_cpu_cluster() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 40_000, 8);
        let cpu = s.run(&pop, ResourceMode::CpuOnly { threads: 16 }).total;
        let hyb = s.run(&pop, HYBRID).total;
        assert!(hyb < cpu, "hybrid {hyb} vs cpu {cpu}");
    }

    #[test]
    fn straggler_node_becomes_critical() {
        let s = sim();
        let pop = TaskPopulation::even(spec(), 12_000, 4);
        let clean = s.run(&pop, HYBRID).total;
        let mut plans = vec![FaultPlan::none(); 4];
        plans[2] = FaultPlan::none().with_straggler(3.0);
        let (r, sums) = s.run_with_faults(
            &pop,
            HYBRID,
            &plans,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert_eq!(r.slowest_node, 2, "the straggler must set the makespan");
        assert!(r.total > clean, "straggler {} vs clean {}", r.total, clean);
        assert!(sums
            .iter()
            .enumerate()
            .all(|(i, s)| s.conserved(pop.per_node[i])));
    }

    #[test]
    fn dropped_messages_are_resent_and_counted() {
        use madness_trace::MemRecorder;
        let s = sim();
        let pop = TaskPopulation::even(spec(), 6_000, 2);
        let mut rec = MemRecorder::new();
        let plans = vec![FaultPlan::seeded(9).with_message_drop_rate(0.5); 2];
        let (r, sums) =
            s.run_with_faults(&pop, HYBRID, &plans, RecoveryPolicy::default(), &mut rec);
        let dropped: u64 = sums.iter().map(|s| s.dropped_messages).sum();
        assert!(dropped > 0, "half the messages must drop");
        assert!(rec
            .faults()
            .any(|e| e.action == FaultAction::Resent && e.kind == FaultKind::DroppedMessage));
        assert!(r.network_time > s.network.injection_time(pop.per_node[0], 8_000));
    }

    #[test]
    fn empty_nodes_are_fine() {
        let s = sim();
        let pop = TaskPopulation {
            spec: spec(),
            per_node: vec![0, 0, 60],
        };
        let r = s.run(&pop, HYBRID);
        assert!(r.total > SimTime::ZERO);
        assert_eq!(r.total_tasks, 60);
    }
}
