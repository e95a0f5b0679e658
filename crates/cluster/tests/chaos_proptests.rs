//! Chaos proptests (ISSUE 4, satellite 1): arbitrary seeded fault
//! schedules thrown at the node and cluster pipelines.
//!
//! The properties the recovery stack must uphold under *any* schedule:
//!
//! 1. **Task conservation** — every task completes exactly once
//!    (`FaultSummary::conserved`); nothing is lost, nothing runs twice.
//! 2. **Split sanity** — the reported mean CPU share `k` stays in
//!    `[0, 1]` no matter how the gates and fallbacks warp the split.
//! 3. **Bounded degradation** — recovery always terminates: retries are
//!    capped, fallback lands on a finite CPU, so the makespan is bounded
//!    by a (generous) multiple of the worst pure mode. No schedule can
//!    wedge the pipeline or send it into an unbounded retry spiral.
//! 4. **Determinism** — the same plan replays to bit-identical reports,
//!    summaries, and trace journals (the whole point of *seeded* chaos).

use madness_cluster::cluster::ClusterSim;
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::serve::{
    BrownoutConfig, HedgeConfig, RateProfile, ServeConfig, ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
use madness_runtime::TenantId;
use madness_trace::{MemRecorder, NullRecorder};
use proptest::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        d: 3,
        k: 10,
        rank: 100,
        rr_mean_rank: None,
    }
}

fn node() -> NodeSim {
    NodeSim::new(NodeParams::default())
}

fn mode(idx: usize) -> ResourceMode {
    match idx % 3 {
        0 => ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
        1 => ResourceMode::AdaptiveHybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
        _ => ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        },
    }
}

/// An arbitrary-but-reasonable fault schedule: any mix of launch
/// failures, transfer timeouts, stream stalls, a device loss, a
/// straggler multiplier, and message drops, all behind one seed.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (
            any::<u64>(), // seed
            0.0f64..0.5,  // launch fail rate
            0.0f64..0.4,  // transfer timeout rate
            0.0f64..0.3,  // stream stall rate
        ),
        (
            1_000u64..5_000_000, // stall length (1 µs .. 5 ms)
            0u64..100_000_000,   // device lost at — upper half = never
            1.0f64..3.0,         // straggler multiplier
            0.0f64..0.5,         // message drop rate
        ),
    )
        .prop_map(
            |((seed, launch, transfer, stall_rate), (stall_ns, lost, straggler, drop))| {
                let mut plan = FaultPlan::seeded(seed)
                    .with_launch_fail_rate(launch)
                    .with_transfer_timeout_rate(transfer)
                    .with_stream_stalls(stall_rate, stall_ns)
                    .with_straggler(straggler)
                    .with_message_drop_rate(drop);
                if lost < 50_000_000 {
                    plan = plan.with_device_lost_at(lost);
                }
                plan
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation + split sanity: any schedule, any mode — every task
    /// completes exactly once and the mean split never leaves [0, 1].
    #[test]
    fn chaos_conserves_every_task(
        plan in plan_strategy(),
        n_tasks in 100u64..1_500,
        mode_idx in 0usize..3,
    ) {
        let (report, sum) = node().simulate_faulty(
            &spec(),
            n_tasks,
            mode(mode_idx),
            &plan,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        prop_assert!(sum.conserved(n_tasks), "{sum:?}");
        prop_assert!(sum.lost == 0, "no task may be lost: {sum:?}");
        prop_assert!(
            (0.0..=1.0).contains(&report.mean_split_k),
            "k escaped [0,1]: {}",
            report.mean_split_k
        );
        prop_assert!(report.total > SimTime::ZERO);
    }

    /// Bounded degradation: capped retries + finite CPU fallback mean no
    /// schedule can wedge the pipeline. The bound is deliberately
    /// generous — wasted GPU attempts, backoffs, quarantine probes, and
    /// a 3× straggler all stack — but it is *finite* and schedule-
    /// independent, which is the property under test.
    #[test]
    fn chaos_makespan_stays_bounded(
        plan in plan_strategy(),
        n_tasks in 100u64..1_000,
        mode_idx in 0usize..3,
    ) {
        let cpu_worst = node()
            .simulate(&spec(), n_tasks, ResourceMode::CpuOnly { threads: 1 })
            .total;
        let (report, _) = node().simulate_faulty(
            &spec(),
            n_tasks,
            mode(mode_idx),
            &plan,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        // 3× straggler × everything-on-one-host-thread, plus slack for
        // wasted GPU attempts and backoff/quarantine idle time.
        let bound = cpu_worst.as_secs_f64() * 4.0 + 1.0;
        prop_assert!(
            report.total.as_secs_f64() <= bound,
            "makespan {} blew the degradation bound {}",
            report.total,
            bound
        );
    }

    /// Faults confined to a window degrade only the window: once the
    /// schedule goes quiet the pipeline recovers, so the makespan stays
    /// within a small factor of fault-free (quarantine re-admission must
    /// actually hand the work back to the GPU).
    #[test]
    fn chaos_recovers_after_fault_window(
        seed in any::<u64>(),
        rate in 0.1f64..0.9,
        n_tasks in 2_000u64..6_000,
    ) {
        let m = mode(0);
        let clean = node().simulate(&spec(), n_tasks, m).total;
        // Faults only inside the first 5 % of the clean makespan.
        let window_end = clean.as_nanos() / 20;
        let plan = FaultPlan::seeded(seed)
            .with_launch_fail_rate(rate)
            .with_window(0, window_end);
        let (report, sum) = node().simulate_faulty(
            &spec(),
            n_tasks,
            m,
            &plan,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        prop_assert!(sum.conserved(n_tasks), "{sum:?}");
        let ratio = report.total.as_secs_f64() / clean.as_secs_f64();
        prop_assert!(
            ratio <= 2.0,
            "faults stopped at 5% of the run yet makespan degraded {ratio:.2}×"
        );
    }

    /// Cluster level: per-node schedules, every node conserves, and the
    /// aggregate task count is intact.
    #[test]
    fn chaos_cluster_conserves(
        plans in proptest::collection::vec(plan_strategy(), 1..5),
        tasks_per_node in 200u64..1_000,
    ) {
        let n_nodes = plans.len();
        let sim = ClusterSim::new(node(), NetworkModel::default());
        let pop = TaskPopulation::even(spec(), tasks_per_node * n_nodes as u64, n_nodes);
        let (report, sums) = sim.run_with_faults(
            &pop,
            mode(0),
            &plans,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        prop_assert_eq!(sums.len(), n_nodes);
        for (i, sum) in sums.iter().enumerate() {
            prop_assert!(sum.conserved(pop.per_node[i]), "node {i}: {sum:?}");
        }
        prop_assert_eq!(report.total_tasks, pop.total());
        prop_assert!(report.balance() > 0.0 && report.balance() <= 1.0 + 1e-9);
    }

    /// Determinism: a seeded schedule replays bit-identically — report,
    /// summary, and the full trace journal.
    #[test]
    fn chaos_replays_bit_identically(
        plan in plan_strategy(),
        n_tasks in 100u64..800,
        mode_idx in 0usize..3,
    ) {
        let run = || {
            let mut rec = MemRecorder::new();
            let (report, sum) = node().simulate_faulty(
                &spec(),
                n_tasks,
                mode(mode_idx),
                &plan,
                RecoveryPolicy::default(),
                &mut rec,
            );
            (report, sum, rec.to_json())
        };
        let (r1, s1, j1) = run();
        let (r2, s2, j2) = run();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(j1, j2);
    }
}

/// Two-tenant Poisson serve config over `nodes` nodes at utilisation
/// `rho`, mirroring the in-crate serve tests (ISSUE 9, satellite 5).
fn serve_cfg(sim: &ClusterSim, nodes: usize, rho: f64, seed: u64) -> ServeConfig {
    let tasks_per_request = 4;
    let rate = sim.node().calibrate(
        &spec(),
        mode(0),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
    let total = rho * nodes as f64 / per_req.max(1e-12);
    ServeConfig {
        spec: spec(),
        tenants: vec![
            TenantSpec {
                id: TenantId(1),
                weight: 4.0,
                deadline: SimTime::from_millis(5),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request,
            },
            TenantSpec {
                id: TenantId(2),
                weight: 1.0,
                deadline: SimTime::from_millis(20),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request,
            },
        ],
        nodes,
        seed,
        horizon: SimTime::from_millis(50),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-mid-epoch conservation (ISSUE 9): a node crash landing at an
    /// arbitrary instant between repartition epochs, under live Poisson
    /// traffic, must lose nothing — every generated request terminates as
    /// completed, rejected, or shed; every hedge copy the recovery path
    /// launches is cancelled or counted; and the whole run replays
    /// bit-identically, journal included.
    #[test]
    fn crash_mid_epoch_conserves_and_replays(
        seed in any::<u64>(),
        crash_ms in 5u64..45,
        node_idx in 0usize..4,
        rejoin in any::<bool>(),
    ) {
        let sim = ClusterSim::new(node(), NetworkModel::default());
        let cfg = serve_cfg(&sim, 4, 0.8, seed);
        let crash_at = SimTime::from_millis(crash_ms).as_nanos();
        let mut plan = FaultPlan::none().with_node_crash_at(crash_at);
        if rejoin {
            let horizon = cfg.horizon.as_nanos();
            plan = plan.with_node_rejoin_at(crash_at + horizon / 8);
        }
        let mut plans = vec![FaultPlan::none(); 4];
        plans[node_idx] = plan;
        let run = || {
            let mut rec = MemRecorder::new();
            let report = sim.run_served_survivable(
                &cfg,
                mode(0),
                BalanceMode::Repartition { epochs: 4 },
                &plans,
                RecoveryPolicy::default(),
                &SurvivalConfig::default(),
                &mut rec,
            );
            (report, rec.to_json())
        };
        let (a, ja) = run();
        prop_assert!(a.conserved(), "conservation broke: {a:?}");
        prop_assert_eq!(a.generated, a.completed + a.rejected + a.shed);
        prop_assert_eq!(a.cancelled_hedges, a.hedges_launched);
        prop_assert_eq!(a.node_crashes, 1);
        if rejoin {
            prop_assert_eq!(a.rejoins, 1);
        }
        let (b, jb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(ja, jb);
    }
}

/// An overlapping-fault serving scenario drawn from `case`: 2–4 nodes
/// at 0.3–3.3× load for 30 ms, each node independently crashing,
/// crashing and rejoining, partitioned, partitioned then crashed then
/// rejoined, or straggling, under a drawn balance mode, queue bound,
/// shed policy, hedging and brownout. `survivor` keeps node 0 to the
/// straggler draw, so some node can always take recovered work.
fn overlap_scenario(
    sim: &ClusterSim,
    case: u64,
    survivor: bool,
) -> (ServeConfig, Vec<FaultPlan>, BalanceMode, SurvivalConfig) {
    let u = |salt: u64| madness_faults::draw(0xF0221, salt, case);
    let ms = |x: f64| (x * 1e6) as u64;
    let nodes = 2 + (u(1) * 3.0) as usize;
    let mut cfg = serve_cfg(sim, nodes, 0.3 + u(2) * 3.0, case ^ 0xABCD);
    cfg.horizon = SimTime::from_millis(30);
    cfg.kinds_per_tenant = 3;
    if u(3) >= 0.5 {
        cfg.queue_capacity = 8 * nodes;
    }
    if u(4) >= 0.5 {
        cfg.shed = ShedPolicy::DropOldest;
    }
    let plans = (0..nodes as u64)
        .map(|i| {
            let b = 100 + 10 * i;
            let (at, dur) = (ms(1.0 + u(b + 1) * 28.0), ms(0.3 + u(b + 2) * 12.0));
            let none = FaultPlan::none();
            match (u(b) * 5.0) as u32 {
                _ if survivor && i == 0 => none.with_straggler(1.0 + u(b + 5) * 3.0),
                0 => none.with_node_crash_at(at),
                1 => none.with_node_crash_at(at).with_node_rejoin_at(at + dur),
                2 => none.with_node_partition(at, dur),
                3 => none
                    .with_node_partition(at, dur)
                    .with_node_crash_at(at + ms(0.2 + u(b + 3) * 14.0))
                    .with_node_rejoin_at(at + dur + ms(u(b + 4) * 5.0) + 1),
                _ => none.with_straggler(1.0 + u(b + 5) * 3.0),
            }
        })
        .collect();
    let bmode = match (u(7) * 3.0) as u32 {
        0 => BalanceMode::Static,
        1 => BalanceMode::PINNED_STEAL,
        _ => BalanceMode::Repartition { epochs: 4 },
    };
    let survival = SurvivalConfig {
        hedge: (u(5) < 0.5).then(HedgeConfig::default),
        brownout: (u(6) < 0.5).then(BrownoutConfig::default),
    };
    (cfg, plans, bmode, survival)
}

fn run_overlap(case: u64, survivor: bool) -> madness_cluster::serve::ServeReport {
    let sim = ClusterSim::new(node(), NetworkModel::default());
    let (cfg, plans, bmode, survival) = overlap_scenario(&sim, case, survivor);
    sim.run_served_survivable(
        &cfg,
        mode(0),
        bmode,
        &plans,
        RecoveryPolicy::default(),
        &survival,
        &mut NullRecorder,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Overlapping node faults (ISSUE 19): crashes, partitions, heals
    /// and rejoins on several nodes at once, crossed with hedging,
    /// brownout, shedding and every balance mode. While one node
    /// survives, no request may be lost and — with the copy counters'
    /// clamps replaced by `debug_assert` + plain arithmetic — no copy
    /// may end that was never started.
    #[test]
    fn overlapping_node_faults_conserve_while_a_node_survives(case in any::<u64>()) {
        let r = run_overlap(case, true);
        prop_assert!(r.conserved(), "conservation broke: {r:?}");
        prop_assert_eq!(r.generated, r.completed + r.rejected + r.shed);
        prop_assert_eq!(r.cancelled_hedges, r.hedges_launched);
    }
}

/// The known gap (ROADMAP item 1), pinned: with *every* node faulted
/// there are windows with no balanceable survivor, and `migrated()`
/// then lands a recovery batch in the queue of a node that has crashed
/// but is not yet declared dead. Declaration re-executes it from the
/// ledger and the rejoined node serves the queued copy as well, so a
/// request ends more copies than it had (`copy_ended`'s debug-assert;
/// the `saturating_sub` it replaced hid the miscount and the run then
/// failed `conserved()` instead). Un-ignore when whole-cluster outages
/// have a defined outcome.
#[test]
#[ignore = "known failure: no-survivor windows double-execute a landed batch (ROADMAP item 1)"]
fn no_survivor_window_pinned_case() {
    let r = run_overlap(199, false);
    assert!(r.conserved(), "{r:?}");
}

/// Fixed-seed serve-crash smoke for CI's `chaos-serve-smoke` job: one
/// pinned crash+rejoin schedule under live traffic that must conserve
/// and replay. Kept out of `proptest!` so its seed never shrinks away.
#[test]
fn chaos_serve_smoke_fixed_seed() {
    let sim = ClusterSim::new(node(), NetworkModel::default());
    let cfg = serve_cfg(&sim, 4, 0.8, 0x5EBE_D0C5);
    let crash_at = SimTime::from_millis(20).as_nanos();
    let rejoin_at = SimTime::from_millis(35).as_nanos();
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::none()
        .with_node_crash_at(crash_at)
        .with_node_rejoin_at(rejoin_at);
    let run = || {
        let mut rec = MemRecorder::new();
        let report = sim.run_served_survivable(
            &cfg,
            mode(0),
            BalanceMode::Repartition { epochs: 4 },
            &plans,
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec,
        );
        (report, rec.to_json())
    };
    let (a, ja) = run();
    let (b, jb) = run();
    assert!(a.conserved(), "{a:?}");
    assert_eq!(a.generated, a.completed + a.rejected + a.shed);
    assert_eq!(a.cancelled_hedges, a.hedges_launched);
    assert_eq!(a.node_crashes, 1);
    assert_eq!(a.rejoins, 1);
    assert!(
        a.recovered_requests > 0,
        "the crash must actually bite: {a:?}"
    );
    assert_eq!(a, b);
    assert_eq!(ja, jb);
}

/// Fixed-seed smoke replay for CI's `chaos-smoke` job: one known-vicious
/// schedule (everything at once) that must conserve and terminate. Kept
/// out of `proptest!` so its seed never shrinks away.
#[test]
fn chaos_smoke_fixed_seed() {
    let plan = FaultPlan::seeded(0xC0FFEE)
        .with_launch_fail_rate(0.35)
        .with_transfer_timeout_rate(0.25)
        .with_stream_stalls(0.2, 2_000_000)
        .with_device_lost_at(10_000_000)
        .with_straggler(2.0)
        .with_message_drop_rate(0.4);
    for mode_idx in 0..3 {
        let (report, sum) = node().simulate_faulty(
            &spec(),
            3_000,
            mode(mode_idx),
            &plan,
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert!(sum.conserved(3_000), "mode {mode_idx}: {sum:?}");
        assert_eq!(sum.lost, 0);
        assert!(
            sum.gpu_task_failures > 0,
            "the vicious schedule must actually bite: {sum:?}"
        );
        assert!(report.total > SimTime::ZERO);
    }
}
