//! Survivable-DAG proptests (ISSUE 10, satellite 4): a random crash
//! instant thrown at a random chained workload.
//!
//! Properties the lineage-replay recovery path must uphold under *any*
//! `(workload, cluster, crash, fault seed)` combination:
//!
//! 1. **Conservation** — the widened attempt law
//!    `tasks + injected + voided + speculative_copies ==
//!    attempts_journaled + cancelled_copies` holds, on top of the base
//!    per-attempt law.
//! 2. **No task lost** — the run completes every task on the
//!    survivors; the journal's per-stage attempt spans match the
//!    ledger exactly.
//! 3. **Deterministic replay** — the same inputs replay to
//!    bit-identical reports *and* journals.
//! 4. **A valid cut** — the last crash's checkpoint lists ascending
//!    task ids, no more of them than tasks completed, and each one a
//!    dependency of some task.

use madness_cluster::dag::{
    run_dag_survivable, DagFaultSpec, DagMode, DagSurvivalSpec, DagTask, DagWorkload,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::NodeRate;
use madness_faults::{NodeFault, NodeTimeline};
use madness_gpusim::SimTime;
use madness_trace::{MemRecorder, Stage};
use proptest::prelude::*;

fn rate() -> NodeRate {
    NodeRate {
        startup: SimTime::from_micros(5),
        per_task: SimTime::from_micros(2),
    }
}

/// A chained Apply→Update workload with per-chain cost skew and
/// occasional cross-chain join edges (the SCF/BSH scenario shapes).
fn workload(chains: u32, iters: u32, join_every: u32) -> DagWorkload {
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; chains as usize];
    for it in 0..iters {
        // Chain 0's update from the previous iteration (an earlier
        // step, so the join edge keeps the workload stratified).
        let prev_iter0 = prev[0];
        for c in 0..chains {
            let mut deps: Vec<usize> = prev[c as usize].into_iter().collect();
            // A cross-chain join edge every `join_every` iterations:
            // chain c reads chain 0's previous update.
            if join_every > 0 && c > 0 && it % join_every == 0 {
                if let Some(p0) = prev_iter0 {
                    if !deps.contains(&p0) {
                        deps.push(p0);
                    }
                }
            }
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: Stage::CpuCompute,
                cost: 30 + 20 * c as u64 + 7 * (it as u64 % 3),
                deps,
            });
            let upd = w.push(DagTask {
                chain: c,
                step: it * 2 + 1,
                stage: Stage::Postprocess,
                cost: 6 + 2 * c as u64,
                deps: vec![apply],
            });
            prev[c as usize] = Some(upd);
        }
    }
    w
}

fn survival(nodes: usize, crash_node: usize, crash_us: u64, rejoin: bool) -> DagSurvivalSpec {
    let mut tl = NodeTimeline::new(nodes);
    tl.add(crash_node % nodes, NodeFault::CrashAt(crash_us * 1_000));
    if rejoin {
        tl.add(
            crash_node % nodes,
            NodeFault::RejoinAt(crash_us * 1_000 + 500_000),
        );
    }
    DagSurvivalSpec {
        timeline: tl,
        checkpoint_every: SimTime::from_micros(40),
        detect: SimTime::from_micros(15),
        speculate_tails: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Properties 1–4: conservation, completion, journal-equal replay
    /// and a valid checkpoint cut under a random crash (sometimes with a rejoin), random fault
    /// seed/rate, and random workload shape.
    #[test]
    fn crash_conserves_and_replays_bit_identically(
        chains in 1u32..5,
        iters in 1u32..5,
        join_every in 0u32..3,
        nodes in 2usize..5,
        crash_node in 0usize..4,
        crash_us in 10u64..1_200,
        rejoin in any::<bool>(),
        seed in any::<u64>(),
        fail_rate in 0.0f64..0.35,
        speculate in any::<bool>(),
    ) {
        let w = workload(chains, iters, join_every);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed,
            fail_rate,
            backoff: SimTime::from_micros(20),
            max_retries: 2,
        };
        let mut spec = survival(nodes, crash_node, crash_us, rejoin);
        spec.speculate_tails = speculate;
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let a = run_dag_survivable(
            &w, nodes, rate(), &net, DagMode::Dataflow, &faults, &spec, &mut rec_a,
        );
        let b = run_dag_survivable(
            &w, nodes, rate(), &net, DagMode::Dataflow, &faults, &spec, &mut rec_b,
        );

        // 1. The widened conservation law.
        prop_assert!(a.conserved(nodes), "{a:?}");
        prop_assert_eq!(
            a.base.tasks + a.base.injected + a.voided + a.speculative_copies,
            a.attempts_journaled + a.cancelled_copies
        );

        // 2. No task lost: every task completed, and the journal's
        // attempt spans match the ledger (Migrate/Recover are wire).
        prop_assert_eq!(a.base.tasks as usize, w.len());
        let journal_attempts = rec_a
            .spans()
            .filter(|s| s.stage != Stage::Migrate && s.stage != Stage::Recover)
            .count() as u64;
        prop_assert_eq!(journal_attempts, a.attempts_journaled);

        // 3. Bit-identical replay, journal included.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(rec_a.to_json(), rec_b.to_json());

        // 4. The last crash's cut (empty if none fired) names ascending
        // ids, no more than completed, each a value some task reads.
        let cut = &a.last_checkpoint;
        prop_assert!(cut.frontier.windows(2).all(|p| p[0] < p[1]), "{cut:?}");
        prop_assert!(cut.frontier.len() <= cut.completed && cut.completed <= w.len());
        for id in &cut.frontier {
            let read = w.tasks().iter().any(|t| t.deps.contains(&id.index()));
            prop_assert!(read, "{id:?} is a dependency of no task");
        }
    }
}
