//! `sim-chaos`: the event-driven engines of `sim-online` under faults.
//!
//! A pass serves traffic through a crash + rejoin, a partition, a 4×
//! straggler and request hedging (`run_served_survivable`); serves a 3×
//! overload on a bounded `DropOldest` queue with brownout; and runs the
//! `sim-online` DAG through a node crash one third into its clean
//! schedule with 2 % attempt faults and tail speculation
//! (`run_dag_survivable`). A refactor that speeds the fault-free path
//! by slowing checkpoint folds, hedge accounting or fold-back shows
//! here and not in `sim-online`.

use super::sim_online::{
    healthy_rate, new_cluster, serve_config, steal_mode, synthetic_dag, DAG_CHAINS, DAG_NODES,
    DAG_STEPS, SERVE_NODES, TASKS_PER_REQUEST,
};
use super::{hybrid_mode, PassOutcome, PassRec, Rng, Workload};
use crate::spans::{Layer, Tracer};
use madness_cluster::cluster::ClusterSim;
use madness_cluster::dag::{
    run_dag, run_dag_survivable, DagFaultSpec, DagMode, DagSurvivalSpec, DagWorkload,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::NodeRate;
use madness_cluster::serve::{
    generate_requests, BrownoutConfig, HedgeConfig, ServeConfig, ShedPolicy, SurvivalConfig,
};
use madness_faults::{FaultPlan, NodeFault, NodeTimeline, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_trace::NullRecorder;

pub struct SimChaos {
    pub sim: ClusterSim,
    pub rate: NodeRate,
    pub faulty_cfg: ServeConfig,
    pub faulty_requests: u64,
    pub plans: Vec<FaultPlan>,
    pub hedging: SurvivalConfig,
    pub overload_cfg: ServeConfig,
    pub overload_requests: u64,
    pub brownout: SurvivalConfig,
    pub dag: DagWorkload,
    pub dag_faults: DagFaultSpec,
    pub dag_survival: DagSurvivalSpec,
}

impl SimChaos {
    /// Arrival horizon of both serve legs.
    pub const HORIZON: SimTime = SimTime::from_millis(750);

    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let sim = new_cluster();
        let (rate, _) = t.call("cluster.node.calibrate", Layer::Node, |_| {
            healthy_rate(&sim)
        });
        let mut rng = Rng::new(seed, 0xC4A05);
        let h = Self::HORIZON.as_nanos();

        // Three distinct seeded victims: crash + rejoin, partition, straggler.
        let mut victims: Vec<usize> = Vec::new();
        while victims.len() < 3 {
            let v = rng.below(SERVE_NODES as u64) as usize;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        let mut plans: Vec<FaultPlan> = (0..SERVE_NODES as u64)
            .map(|node| FaultPlan::seeded(seed ^ node.rotate_left(20)))
            .collect();
        plans[victims[0]] = plans[victims[0]]
            .clone()
            .with_node_crash_at(h / 4)
            .with_node_rejoin_at(h / 2);
        plans[victims[1]] = plans[victims[1]].clone().with_node_partition(h / 3, h / 10);
        plans[victims[2]] = plans[victims[2]].clone().with_straggler(4.0);

        let faulty_cfg = serve_config(rate, SERVE_NODES, 0.6, Self::HORIZON, seed);
        let mut overload_cfg = serve_config(rate, SERVE_NODES, 3.0, Self::HORIZON, seed ^ 0x0BE4);
        overload_cfg.queue_capacity = 16 * SERVE_NODES;
        overload_cfg.shed = ShedPolicy::DropOldest;
        let ((faulty_requests, overload_requests), _) =
            t.call("cluster.serve.generate_requests", Layer::Serve, |_| {
                (
                    generate_requests(&faulty_cfg).len() as u64,
                    generate_requests(&overload_cfg).len() as u64,
                )
            });

        let (dag, _) = t.call("bench.synthetic_dag", Layer::Bench, |_| {
            synthetic_dag(seed, DAG_CHAINS, DAG_STEPS)
        });
        let dag_faults = DagFaultSpec {
            seed,
            fail_rate: 0.02,
            backoff: SimTime::from_micros(50),
            max_retries: 2,
        };
        // The crash lands one third into the clean (fault-free) schedule.
        let (clean, _) = t.call("cluster.dag.run_dag[clean]", Layer::Dag, |_| {
            run_dag(
                &dag,
                DAG_NODES,
                rate,
                &NetworkModel::default(),
                DagMode::Dataflow,
                &DagFaultSpec::none(),
                &mut NullRecorder,
            )
        });
        let mut timeline = NodeTimeline::new(DAG_NODES);
        timeline.add(
            rng.below(DAG_NODES as u64) as usize,
            NodeFault::CrashAt(clean.makespan.as_nanos() / 3),
        );
        SimChaos {
            sim,
            rate,
            faulty_cfg,
            faulty_requests,
            plans,
            hedging: SurvivalConfig {
                hedge: Some(HedgeConfig::default()),
                ..SurvivalConfig::default()
            },
            overload_cfg,
            overload_requests,
            brownout: SurvivalConfig {
                brownout: Some(BrownoutConfig::default()),
                ..SurvivalConfig::default()
            },
            dag,
            dag_faults,
            dag_survival: DagSurvivalSpec {
                timeline,
                checkpoint_every: SimTime::from_micros(200),
                detect: SimTime::from_micros(100),
                speculate_tails: true,
            },
        }
    }
}

impl Workload for SimChaos {
    fn pass(&self, t: &mut Tracer) -> PassOutcome {
        let mut rec = PassRec::new(t);
        let mut tasks = 0u64;

        let leg = "cluster.serve.run_served_survivable[faults+hedge]";
        let r = rec.leg(leg, Layer::Serve, || {
            let r = self.sim.run_served_survivable(
                &self.faulty_cfg,
                hybrid_mode(),
                steal_mode(),
                &self.plans,
                RecoveryPolicy::default(),
                &self.hedging,
                &mut NullRecorder,
            );
            let tasks = r.completed * TASKS_PER_REQUEST;
            (r, tasks)
        });
        rec.check(r.conserved(), || format!("{leg}: not conserved"));
        rec.check(r.generated == self.faulty_requests, || {
            format!(
                "{leg}: generated {} != trace {}",
                r.generated, self.faulty_requests
            )
        });
        // A crash under live traffic loses no request: each terminates
        // exactly once and every extra copy cancels.
        rec.check(
            r.generated == r.completed + r.rejected + r.shed
                && r.cancelled_hedges == r.hedges_launched,
            || format!("{leg}: a request leaked through the crash"),
        );
        // The healed partition re-admits through the same ladder as the
        // rejoined crash victim.
        rec.check(r.node_crashes == 1 && r.rejoins >= 1, || {
            format!(
                "{leg}: {} crashes, {} rejoins, planned 1 and at least 1",
                r.node_crashes, r.rejoins
            )
        });
        tasks += r.completed * TASKS_PER_REQUEST;
        rec.exact(
            "cluster.serve.sim_p99_survivable_ms",
            r.overall.p99.as_millis_f64(),
        );
        rec.exact("cluster.serve.hedges", r.hedges_launched as f64);
        rec.exact("cluster.serve.recovered", r.recovered_requests as f64);
        rec.exact("cluster.serve.breaker_trips", r.breaker_trips as f64);
        rec.exact(
            "cluster.serve.completed_frac_survivable",
            r.completed as f64 / r.generated.max(1) as f64,
        );

        let leg = "cluster.serve.run_served_survivable[overload+brownout]";
        let r = rec.leg(leg, Layer::Serve, || {
            let r = self.sim.run_served_survivable(
                &self.overload_cfg,
                hybrid_mode(),
                steal_mode(),
                &[],
                RecoveryPolicy::default(),
                &self.brownout,
                &mut NullRecorder,
            );
            let tasks = r.completed * TASKS_PER_REQUEST;
            (r, tasks)
        });
        rec.check(r.conserved(), || format!("{leg}: not conserved"));
        rec.check(r.generated == self.overload_requests, || {
            format!(
                "{leg}: generated {} != trace {}",
                r.generated, self.overload_requests
            )
        });
        rec.check(r.brownout_engagements > 0 && r.degraded_tasks > 0, || {
            format!("{leg}: a 3x overload never browned out")
        });
        tasks += r.completed * TASKS_PER_REQUEST;
        rec.exact(
            "cluster.serve.completed_frac_brownout",
            r.completed as f64 / r.generated.max(1) as f64,
        );

        let leg = "cluster.dag.run_dag_survivable[crash+faults+spec]";
        let n = self.dag.len() as u64;
        let r = rec.leg(leg, Layer::Dag, || {
            let r = run_dag_survivable(
                &self.dag,
                DAG_NODES,
                self.rate,
                &NetworkModel::default(),
                DagMode::Dataflow,
                &self.dag_faults,
                &self.dag_survival,
                &mut NullRecorder,
            );
            (r, n)
        });
        rec.check(r.conserved(DAG_NODES), || format!("{leg}: not conserved"));
        rec.check(r.base.tasks == n && r.crashes == 1, || {
            format!(
                "{leg}: ran {} of {n} tasks through {} crashes",
                r.base.tasks, r.crashes
            )
        });
        tasks += n;
        rec.exact(
            "cluster.dag.sim_survivable_s",
            r.base.makespan.as_secs_f64(),
        );
        rec.exact("cluster.dag.voided", r.voided as f64);
        rec.exact("cluster.dag.replayed", r.replayed as f64);

        let mut out = rec.out;
        out.main_s = out.legs.iter().map(|l| l.secs).sum();
        out.tasks = tasks;
        out.sim_makespan_s = r.base.makespan.as_secs_f64();
        out
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let crash = self.dag_survival.timeline.crashes();
        vec![
            ("faulty_requests", self.faulty_requests),
            ("overload_requests", self.overload_requests),
            ("dag_tasks", self.dag.len() as u64),
            ("dag_edges", self.dag.edges() as u64),
            ("dag_crash_node", crash[0].0 as u64),
            ("dag_crash_at_ns", crash[0].1),
        ]
    }
}
