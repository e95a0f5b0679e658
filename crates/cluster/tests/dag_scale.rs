//! Large-DAG wall-clock budget (ISSUE 12): the ready-frontier scheduler
//! must stay linear in tasks at a fixed ready width. 64 chains × 2,000
//! steps = 128 k tasks took the all-tasks candidate scan over a minute
//! per mode; the budget is 5 s per mode, an order of magnitude above
//! what the frontier needs, so only a complexity regression trips it.
//!
//! Wall-clock assertions do not belong in the default test run:
//!
//! ```bash
//! cargo test --release -p madness-cluster --test dag_scale -- --ignored
//! ```

use madness_cluster::dag::{
    run_dag, run_dag_survivable, DagFaultSpec, DagMode, DagSurvivalSpec, DagTask, DagWorkload,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::NodeRate;
use madness_faults::{NodeFault, NodeTimeline};
use madness_gpusim::SimTime;
use madness_trace::{NullRecorder, Stage};
use std::time::{Duration, Instant};

const CHAINS: u32 = 64;
const STEPS: u32 = 2_000;
const NODES: usize = 16;
const BUDGET: Duration = Duration::from_secs(5);

/// Every task follows its chain's previous step; every fourth also
/// reads a neighbouring chain's (step-stratified, so Barrier runs it).
fn workload() -> DagWorkload {
    let mut w = DagWorkload::new();
    let mut prev: Vec<usize> = Vec::new();
    for step in 0..STEPS {
        let mut this = Vec::with_capacity(CHAINS as usize);
        for chain in 0..CHAINS {
            let mut deps = Vec::new();
            if step > 0 {
                deps.push(prev[chain as usize]);
                if (chain + step) % 4 == 0 {
                    deps.push(prev[((chain + 1 + step % 7) % CHAINS) as usize]);
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
                    20 + u64::from(chain % 41)
                } else {
                    4 + u64::from(chain % 9)
                },
                deps,
            }));
        }
        prev = this;
    }
    w
}

#[test]
#[ignore = "wall-clock budget; run in release with --ignored (CI dag smoke)"]
fn large_dag_schedules_within_budget() {
    let w = workload();
    assert_eq!(w.len(), (CHAINS * STEPS) as usize);
    let rate = NodeRate {
        startup: SimTime::from_micros(5),
        per_task: SimTime::from_micros(2),
    };
    for mode in [DagMode::Dataflow, DagMode::Barrier] {
        let t0 = Instant::now();
        let r = run_dag(
            &w,
            NODES,
            rate,
            &NetworkModel::default(),
            mode,
            &DagFaultSpec::none(),
            &mut NullRecorder,
        );
        let took = t0.elapsed();
        assert_eq!(r.tasks, w.len() as u64);
        assert!(r.conserved(NODES), "{mode:?}: {r:?}");
        assert!(
            took < BUDGET,
            "{mode:?} took {took:?} for {} tasks (budget {BUDGET:?}): the scheduler is no longer linear in tasks",
            w.len()
        );
        println!("{mode:?}: {} tasks in {took:?}", w.len());
    }
}

/// The same workload through the survivable engine with every arm live:
/// 2 % attempt faults, two crashes 50 µs apart one third into the clean
/// schedule (the second lands inside the first one's detection window),
/// one of the two nodes rejoining at two thirds, tail speculation on.
/// Fold-back recounts the ready set and reassignment walks every task
/// per lost chain, so this is the row that trips if either goes
/// quadratic.
#[test]
#[ignore = "wall-clock budget; run in release with --ignored (CI dag smoke)"]
fn large_survivable_dag_schedules_within_budget() {
    let w = workload();
    let rate = NodeRate {
        startup: SimTime::from_micros(5),
        per_task: SimTime::from_micros(2),
    };
    let net = NetworkModel::default();
    let clean = run_dag(
        &w,
        NODES,
        rate,
        &net,
        DagMode::Dataflow,
        &DagFaultSpec::none(),
        &mut NullRecorder,
    );
    let third_ns = clean.makespan.as_nanos() / 3;
    let mut timeline = NodeTimeline::new(NODES);
    timeline.add(3, NodeFault::CrashAt(third_ns));
    timeline.add(9, NodeFault::CrashAt(third_ns + 50_000));
    timeline.add(3, NodeFault::RejoinAt(2 * third_ns));
    let survival = DagSurvivalSpec {
        timeline,
        checkpoint_every: SimTime::from_millis(1),
        detect: SimTime::from_micros(100),
        speculate_tails: true,
    };
    let faults = DagFaultSpec {
        seed: 0x0020_12C1,
        fail_rate: 0.02,
        backoff: SimTime::from_micros(30),
        max_retries: 2,
    };
    let t0 = Instant::now();
    let r = run_dag_survivable(
        &w,
        NODES,
        rate,
        &net,
        DagMode::Dataflow,
        &faults,
        &survival,
        &mut NullRecorder,
    );
    let took = t0.elapsed();
    assert!(r.conserved(NODES), "{r:?}");
    assert!(
        r.crashes == 2 && r.replayed > 0 && r.migrated_values > 0 && r.base.injected > 0,
        "the survivable row must fold back, migrate and retry: {r:?}"
    );
    assert!(
        took < BUDGET,
        "survivable run took {took:?} for {} tasks (budget {BUDGET:?}): crash recovery is no longer linear in tasks",
        w.len()
    );
    println!(
        "Survivable: {} tasks, {} replayed, {} injected in {took:?}",
        w.len(),
        r.replayed,
        r.base.injected
    );
}
