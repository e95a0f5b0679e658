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
//!
//! A second case drives the scheduler's planned-start index through
//! every event that invalidates it — two crashes, a rejoin, a partition
//! window, truncated attempts, speculation, retry exhaustion that moves
//! work off its home, Barrier steps opening — in both modes. Its
//! property is the index's debug oracle: wherever debug assertions are
//! on, every pick is checked against the ready-set scan it replaced
//! (run it in release as
//! `RUSTFLAGS="-C debug-assertions" cargo test --release`).

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
    workload_with(chains, iters, join_every, false)
}

/// `workload`, or with `same_step` the Dataflow-only variant: each
/// update shares its apply's step, and each chain's apply also reads
/// the previous chain's apply of the same iteration.
fn workload_with(chains: u32, iters: u32, join_every: u32, same_step: bool) -> DagWorkload {
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; chains as usize];
    for it in 0..iters {
        // Chain 0's update from the previous iteration (an earlier
        // step, so the join edge keeps the workload stratified).
        let prev_iter0 = prev[0];
        let mut left_apply: Option<usize> = None;
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
            if same_step {
                deps.extend(left_apply);
            }
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: Stage::CpuCompute,
                cost: 30 + 20 * c as u64 + 7 * (it as u64 % 3),
                deps,
            });
            left_apply = Some(apply);
            let upd = w.push(DagTask {
                chain: c,
                step: it * 2 + u32::from(!same_step),
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

    /// The planned-start index through every invalidation trigger: in
    /// Dataflow (same-step edges allowed) two crashes on distinct nodes,
    /// the first one's rejoin, a partition window and speculation; in
    /// Barrier (stratified, inert spec) step after step. A fault rate of
    /// 0.3–0.8 exhausts retries and quarantines work off its home. In a
    /// build with debug assertions each pick is checked against the
    /// ready-set scan; everywhere the run must complete, conserve and
    /// replay bit for bit.
    #[test]
    fn index_picks_what_the_scan_picks_through_every_invalidation(
        chains in 1u32..6,
        iters in 1u32..5,
        join_every in 0u32..3,
        nodes in 3usize..6,
        barrier in any::<bool>(),
        same_step in any::<bool>(),
        first in (0usize..5, 10u64..900),
        second in (0usize..4, 10u64..900),
        rejoin_after_us in 20u64..700,
        partition in (0usize..5, 0u64..800, 20u64..400),
        speculate in any::<bool>(),
        seed in any::<u64>(),
        fail_rate in 0.3f64..0.8,
    ) {
        let (mode, same_step) = if barrier {
            (DagMode::Barrier, false)
        } else {
            (DagMode::Dataflow, same_step)
        };
        let w = workload_with(chains, iters, join_every, same_step);
        let faults = DagFaultSpec {
            seed,
            fail_rate,
            backoff: SimTime::from_micros(20),
            max_retries: 2,
        };
        let spec = if barrier {
            DagSurvivalSpec::none(nodes)
        } else {
            let mut tl = NodeTimeline::new(nodes);
            let a = first.0 % nodes;
            let b = (a + 1 + second.0 % (nodes - 1)) % nodes;
            tl.add(a, NodeFault::CrashAt(first.1 * 1_000));
            tl.add(a, NodeFault::RejoinAt((first.1 + rejoin_after_us) * 1_000));
            tl.add(b, NodeFault::CrashAt(second.1 * 1_000));
            tl.add(
                partition.0 % nodes,
                NodeFault::PartitionAt {
                    at_ns: partition.1 * 1_000,
                    duration_ns: partition.2 * 1_000,
                },
            );
            DagSurvivalSpec {
                timeline: tl,
                checkpoint_every: SimTime::from_micros(40),
                detect: SimTime::from_micros(15),
                speculate_tails: speculate,
            }
        };
        let net = NetworkModel::default();
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let a = run_dag_survivable(&w, nodes, rate(), &net, mode, &faults, &spec, &mut rec_a);
        let b = run_dag_survivable(&w, nodes, rate(), &net, mode, &faults, &spec, &mut rec_b);
        prop_assert!(a.conserved(nodes), "{a:?}");
        prop_assert_eq!(a.base.tasks as usize, w.len());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(rec_a.to_json(), rec_b.to_json());
    }
}
