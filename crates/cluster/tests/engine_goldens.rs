//! Cross-commit golden pins for the online engines (ISSUEs 12, 19, 20, 21)
//! and the batch simulators (ISSUE 15).
//!
//! The replay tests elsewhere compare a run to *itself*; they cannot
//! see a rewrite that changes every run the same way. These pins compare
//! the engines to the commit that preceded a rewrite. The DAG and serve
//! constants were captured before the ready-frontier / streamed-arrival
//! rewrite (the all-tasks scan, the pre-loaded arrival heap), the batch
//! constants before `ClusterSim::run` / `run_recorded` /
//! `run_with_faults` and the balanced fidelity pass — four hand-copied
//! per-node bodies — collapsed into one; "cluster traced fault-free" was
//! captured from `run_recorded`, which no longer exists, so it is also
//! the fault-free identity pin of the surviving fault-aware body. Each
//! scenario pins the full report (`{:?}`) and an FNV-1a hash of the
//! `MemRecorder` trace JSON, so every simulated number and every journal
//! byte is covered. The last three serve scenarios (partition + heal +
//! rejoin, overload brownout, repartition) were captured before ISSUE 19
//! made survival state unconditional and the interconnect the migration
//! ledger; the `serve repartition` trace hash alone was regenerated
//! since, when its epoch moves stopped being journaled as steals. The
//! 256-node steal run, the three-weight drop-oldest run and the
//! `generate_requests` trace were captured before ISSUE 20 put the ready
//! queues on heaps, the steal victims in an index and the trace through
//! a merge. The last two DAG scenarios (a second crash inside the first
//! one's detection window with retries exhausting around it, and a
//! speculation race the copy wins) were captured before ISSUE 21 turned
//! `run_dag_survivable`'s one function into a `DagRun` and its arms.
//!
//! A change that *means* to move simulated numbers regenerates the
//! table with
//!
//! ```bash
//! cargo test -p madness-cluster --test engine_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and says why in its PR.

use madness_cluster::cluster::ClusterSim;
use madness_cluster::dag::{
    run_dag_survivable, DagFaultSpec, DagMode, DagSurvivalSpec, DagTask, DagWorkload,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::{NodeParams, NodeRate, NodeSim, ResourceMode};
use madness_cluster::serve::{
    generate_requests, BrownoutConfig, HedgeConfig, RateProfile, ServeConfig, ServeReport,
    ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::workload::{TaskPopulation, WorkloadSpec};
use madness_cluster::BalanceMode;
use madness_faults::{FaultAction, FaultKind, FaultPlan, NodeFault, NodeTimeline, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::TenantId;
use madness_trace::{MemRecorder, Stage};

/// `(scenario, report {:?}, FNV-1a of the trace JSON)`.
type Golden = (&'static str, String, u64);

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// DAG scenarios
// ---------------------------------------------------------------------

const DAG_NODES: usize = 4;

fn rate() -> NodeRate {
    NodeRate {
        startup: SimTime::from_micros(5),
        per_task: SimTime::from_micros(2),
    }
}

/// Chained Apply→Update iterations with per-chain cost skew and a
/// cross-chain join every other iteration (step-stratified, so the
/// barrier baseline runs it too).
fn dag_workload() -> DagWorkload {
    let (chains, iters) = (8u32, 20u32);
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; chains as usize];
    for it in 0..iters {
        let prev_iter0 = prev[0];
        for c in 0..chains {
            let mut deps: Vec<usize> = prev[c as usize].into_iter().collect();
            if c > 0 && it % 2 == 0 {
                deps.extend(prev_iter0);
            }
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: Stage::CpuCompute,
                cost: 30 + 20 * u64::from(c) + 7 * (u64::from(it) % 3),
                deps,
            });
            let upd = w.push(DagTask {
                chain: c,
                step: it * 2 + 1,
                stage: Stage::Postprocess,
                cost: 6 + 2 * u64::from(c),
                deps: vec![apply],
            });
            prev[c as usize] = Some(upd);
        }
    }
    w
}

fn dag_run(
    name: &'static str,
    mode: DagMode,
    faults: &DagFaultSpec,
    survival: &DagSurvivalSpec,
) -> (Golden, SimTime) {
    let mut rec = MemRecorder::new();
    let report = run_dag_survivable(
        &dag_workload(),
        DAG_NODES,
        rate(),
        &NetworkModel::default(),
        mode,
        faults,
        survival,
        &mut rec,
    );
    assert!(report.conserved(DAG_NODES), "{name}: {report:?}");
    (
        (name, format!("{report:?}"), fnv1a(&rec.to_json())),
        report.base.makespan,
    )
}

fn attempt_faults() -> DagFaultSpec {
    DagFaultSpec {
        seed: 0x0020_12C1,
        fail_rate: 0.02,
        backoff: SimTime::from_micros(30),
        max_retries: 2,
    }
}

fn survival(faults: &[(usize, NodeFault)], speculate_tails: bool) -> DagSurvivalSpec {
    let mut timeline = NodeTimeline::new(DAG_NODES);
    for &(node, fault) in faults {
        timeline.add(node, fault);
    }
    DagSurvivalSpec {
        timeline,
        checkpoint_every: SimTime::from_micros(1500),
        detect: SimTime::from_micros(20),
        speculate_tails,
    }
}

fn dag_goldens() -> Vec<Golden> {
    let none = DagFaultSpec::none();
    let inert = DagSurvivalSpec::none(DAG_NODES);
    let (clean, makespan) = dag_run("dag clean dataflow", DagMode::Dataflow, &none, &inert);
    // Lifecycle faults land one third into the clean schedule (the
    // BENCH_dag chaos scenario's shape).
    let third_ns = makespan.as_nanos() / 3;
    // Three of the four nodes die, the second 10 µs after the first —
    // inside its 200 µs detection window, so the first recovery
    // reassigns chains onto a node that is already doomed — and at a
    // 30 % attempt-fault rate with one retry, exhausted attempts
    // quarantine while a neighbour lives and rerun in place once node 3
    // is alone.
    let mut cascade = survival(
        &[
            (0, NodeFault::CrashAt(third_ns)),
            (1, NodeFault::CrashAt(third_ns + 10_000)),
            (2, NodeFault::CrashAt(2 * third_ns)),
        ],
        false,
    );
    cascade.detect = SimTime::from_micros(200);
    let hot_faults = DagFaultSpec {
        fail_rate: 0.3,
        max_retries: 1,
        ..attempt_faults()
    };
    // Long backoffs on the critical tail: the speculative copy finishes
    // first, so the race commits the copy's attempts and cancels the
    // primary's.
    let tail_faults = DagFaultSpec {
        seed: 0,
        fail_rate: 0.1,
        backoff: SimTime::from_micros(200),
        max_retries: 2,
    };
    let no_speculation = dag_run(
        "dag tail faults",
        DagMode::Dataflow,
        &tail_faults,
        &survival(&[], false),
    )
    .1;
    let scenarios: [(&'static str, DagMode, DagFaultSpec, DagSurvivalSpec); 7] = [
        ("dag clean barrier", DagMode::Barrier, none, inert.clone()),
        (
            "dag 2% attempt faults",
            DagMode::Dataflow,
            attempt_faults(),
            inert,
        ),
        (
            "dag crash at 1/3 + speculation",
            DagMode::Dataflow,
            attempt_faults(),
            survival(&[(1, NodeFault::CrashAt(third_ns))], true),
        ),
        (
            "dag crash + rejoin",
            DagMode::Dataflow,
            attempt_faults(),
            survival(
                &[
                    (0, NodeFault::CrashAt(third_ns)),
                    (0, NodeFault::RejoinAt(2 * third_ns)),
                ],
                false,
            ),
        ),
        (
            "dag partition",
            DagMode::Dataflow,
            none,
            survival(
                &[(
                    2,
                    NodeFault::PartitionAt {
                        at_ns: third_ns / 2,
                        duration_ns: third_ns,
                    },
                )],
                false,
            ),
        ),
        (
            "dag crash during recovery + quarantine",
            DagMode::Dataflow,
            hot_faults,
            cascade,
        ),
        (
            "dag speculative copy wins",
            DagMode::Dataflow,
            tail_faults,
            survival(&[], true),
        ),
    ];
    let mut out = vec![clean];
    for (name, mode, faults, survival) in &scenarios {
        let (golden, makespan) = dag_run(name, *mode, faults, survival);
        if survival.speculate_tails && survival.timeline.is_inert() {
            assert!(
                makespan < no_speculation,
                "{name}: the copy must win the race ({makespan:?} vs {no_speculation:?} without it)"
            );
        }
        out.push(golden);
    }
    out
}

// ---------------------------------------------------------------------
// Serve scenarios
// ---------------------------------------------------------------------

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

const STEAL: BalanceMode = BalanceMode::PINNED_STEAL;

/// Two tenants (Poisson + OnOff) at `rho`× calibrated capacity on four
/// nodes for 40 ms — the serve_determinism shape.
fn serve_cfg(rho: f64) -> ServeConfig {
    let rate = sim().node().calibrate(
        &spec(),
        HYBRID,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let total = rho * 4.0 / (rate.per_task.as_secs_f64() * 4.0).max(1e-12);
    ServeConfig {
        spec: spec(),
        tenants: vec![
            TenantSpec {
                id: TenantId(1),
                weight: 4.0,
                deadline: SimTime::from_millis(5),
                profile: RateProfile::Poisson { rate: total / 2.0 },
                tasks_per_request: 4,
            },
            TenantSpec {
                id: TenantId(2),
                weight: 1.0,
                deadline: SimTime::from_millis(20),
                profile: RateProfile::OnOff {
                    rate_on: total,
                    rate_off: total / 10.0,
                    period: SimTime::from_millis(10),
                    duty: 0.4,
                },
                tasks_per_request: 4,
            },
        ],
        nodes: 4,
        seed: 0x0020_12C1,
        horizon: SimTime::from_millis(40),
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: 4,
    }
}

/// Three tenants at weights 4 / 2 / 1 (Poisson, OnOff, Diurnal, equal
/// mean rates) offering `rho`× the calibrated capacity of `nodes` nodes
/// until `horizon`, one kind per tenant per node so every node is a
/// home — the `sim-online` shape with a third weight class.
fn three_weight_cfg(nodes: usize, rho: f64, horizon: SimTime) -> ServeConfig {
    let rate = sim().node().calibrate(
        &spec(),
        HYBRID,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let third = rho * nodes as f64 / (rate.per_task.as_secs_f64() * 4.0).max(1e-12) / 3.0;
    let tenant = |id: u32, weight: f64, deadline_ms: u64, profile: RateProfile| TenantSpec {
        id: TenantId(id),
        weight,
        deadline: SimTime::from_millis(deadline_ms),
        profile,
        tasks_per_request: 4,
    };
    ServeConfig {
        spec: spec(),
        tenants: vec![
            tenant(1, 4.0, 5, RateProfile::Poisson { rate: third }),
            tenant(
                2,
                2.0,
                10,
                RateProfile::OnOff {
                    rate_on: 1.5 * third,
                    rate_off: 0.5 * third,
                    period: SimTime::from_millis(4),
                    duty: 0.5,
                },
            ),
            tenant(
                3,
                1.0,
                20,
                RateProfile::Diurnal {
                    base: third,
                    amplitude: 0.5 * third,
                    period: SimTime::from_millis(5),
                },
            ),
        ],
        nodes,
        seed: 0x0020_12C1,
        horizon,
        queue_capacity: 1 << 20,
        shed: ShedPolicy::RejectNew,
        kinds_per_tenant: nodes as u64,
    }
}

fn serve_run(
    name: &'static str,
    cfg: &ServeConfig,
    bmode: BalanceMode,
    plans: &[FaultPlan],
    survival: &SurvivalConfig,
) -> (Golden, ServeReport, MemRecorder) {
    let mut rec = MemRecorder::new();
    let report = sim().run_served_survivable(
        cfg,
        HYBRID,
        bmode,
        plans,
        RecoveryPolicy::default(),
        survival,
        &mut rec,
    );
    assert!(report.conserved(), "{name}: {report:?}");
    let golden = (name, format!("{report:?}"), fnv1a(&rec.to_json()));
    (golden, report, rec)
}

fn serve_goldens() -> Vec<Golden> {
    let cfg = serve_cfg(0.7);
    let inert = SurvivalConfig::default();
    let mut out = Vec::new();
    for (name, bmode) in [
        ("serve static", BalanceMode::Static),
        ("serve steal", STEAL),
    ] {
        let mut rec = MemRecorder::new();
        let report = sim().run_served(&cfg, HYBRID, bmode, &mut rec);
        assert!(report.conserved(), "{name}: {report:?}");
        out.push((name, format!("{report:?}"), fnv1a(&rec.to_json())));
    }
    // Node 0 straggles 4× (hedge bait), node 1 crashes mid-traffic.
    let plans = vec![
        FaultPlan::none().with_straggler(4.0),
        FaultPlan::none().with_node_crash_at(SimTime::from_millis(8).as_nanos()),
    ];
    let hedging = SurvivalConfig {
        hedge: Some(HedgeConfig::default()),
        ..SurvivalConfig::default()
    };
    let (golden, report, _) = serve_run("serve crash + hedge", &cfg, STEAL, &plans, &hedging);
    assert!(
        report.node_crashes == 1 && report.hedges_launched > 0 && report.recovered_requests > 0,
        "the survivable pin must exercise crash recovery and hedging: {report:?}"
    );
    out.push(golden);

    // Node 0 is partitioned for ten heartbeats (declared dead after
    // two: its frozen work is duplicated, traffic sent to it meanwhile
    // is lost in transit, the fenced originals cancel at the heal);
    // node 1 crashes and rejoins cold through the breaker ladder.
    let ms = |t: u64| SimTime::from_millis(t).as_nanos();
    let plans = vec![
        FaultPlan::none().with_node_partition(ms(8), ms(10)),
        FaultPlan::none()
            .with_node_crash_at(ms(12))
            .with_node_rejoin_at(ms(25)),
    ];
    let (golden, report, rec) = serve_run(
        "serve partition + heal + rejoin",
        &cfg,
        STEAL,
        &plans,
        &inert,
    );
    assert!(
        report.node_crashes == 1
            && report.rejoins == 2
            && report.hedges_launched > 0
            && report.cancelled_hedges == report.hedges_launched
            && report.recovered_requests > report.hedges_launched
            && report.breaker_trips > 0,
        "the partition pin must exercise duplicate-then-cancel, void relocation and both re-admissions: {report:?}"
    );
    for (kind, action) in [
        (FaultKind::NodePartition, FaultAction::Hedged),
        (FaultKind::NodePartition, FaultAction::Readmitted),
        (FaultKind::NodeCrash, FaultAction::Recovered),
        (FaultKind::NodeRejoin, FaultAction::Readmitted),
    ] {
        assert!(
            rec.faults().any(|f| f.kind == kind && f.action == action),
            "the partition pin never journaled {kind:?}/{action:?}"
        );
    }
    out.push(golden);

    // 3× overload into a 16-slot-per-node queue, no plans: brownout
    // engages, DropOldest sheds, and no node fault is ever scheduled.
    let mut overload = serve_cfg(3.0);
    overload.queue_capacity = 16 * overload.nodes;
    overload.shed = ShedPolicy::DropOldest;
    let brownout = SurvivalConfig {
        brownout: Some(BrownoutConfig::default()),
        ..SurvivalConfig::default()
    };
    let (golden, report, _) =
        serve_run("serve overload brownout", &overload, STEAL, &[], &brownout);
    assert!(
        report.brownout_engagements > 0 && report.degraded_tasks > 0 && report.shed > 0,
        "the overload pin must brown out and shed: {report:?}"
    );
    out.push(golden);

    let (golden, report, _) = serve_run(
        "serve repartition",
        &cfg,
        BalanceMode::Repartition { epochs: 4 },
        &[],
        &inert,
    );
    assert!(
        report.migrated_tasks > 0 && report.steals == 0,
        "the repartition pin must move work at an epoch: {report:?}"
    );
    out.push(golden);

    // 256 nodes, three weight classes, ρ ≈ 0.8 under the benchmark's
    // steal mode: many simultaneous thieves contend for eight in-flight
    // slots and every steal orders three classes. 768 kinds, so the
    // per-kind rows are pinned as a hash.
    let wide = three_weight_cfg(256, 0.8, SimTime::from_millis(12));
    let wide_steal = BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    };
    let ((name, _, trace), mut report, _) =
        serve_run("serve steal 256 nodes", &wide, wide_steal, &[], &inert);
    assert!(
        report.steals > 0 && report.blocked_steals > 0 && report.completed == report.generated,
        "the wide pin must steal, block on the in-flight cap and complete: {report:?}"
    );
    let kinds = fnv1a(&format!("{:?}", std::mem::take(&mut report.kinds)));
    out.push((name, format!("{report:?} kinds#{kinds:#018x}"), trace));

    // 2× overload into a 16-slot-per-node queue with three weights:
    // the shed choice (lowest weight, FIFO), the steal order and the
    // priority dequeue all work the same queues.
    let mut flood = three_weight_cfg(8, 2.0, SimTime::from_millis(40));
    flood.queue_capacity = 16 * flood.nodes;
    flood.shed = ShedPolicy::DropOldest;
    flood.kinds_per_tenant = 4;
    let (golden, report, _) = serve_run(
        "serve drop-oldest three weights",
        &flood,
        STEAL,
        &[],
        &inert,
    );
    assert!(
        report.shed > 0 && report.steals > 0 && report.tenants.iter().all(|t| t.completed > 0),
        "the flood pin must shed, steal and serve every class: {report:?}"
    );
    out.push(golden);
    out
}

/// The request trace itself: Poisson + OnOff + Diurnal tenants declared
/// out of id order, plus one tenant that never sends.
fn trace_golden() -> Golden {
    let mut cfg = three_weight_cfg(8, 0.7, SimTime::from_millis(40));
    cfg.tenants.swap(0, 2);
    cfg.tenants.push(TenantSpec {
        id: TenantId(0),
        profile: RateProfile::Poisson { rate: 0.0 },
        ..cfg.tenants[0]
    });
    let trace = generate_requests(&cfg);
    let per_tenant: Vec<usize> = (0..4)
        .map(|t| trace.iter().filter(|r| r.tenant == TenantId(t)).count())
        .collect();
    assert!(per_tenant[0] == 0 && per_tenant[1..].iter().all(|&n| n > 0));
    (
        "generate_requests three tenants",
        format!(
            "{} requests, per tenant {per_tenant:?}, first {:?}, last {:?}",
            trace.len(),
            trace.first(),
            trace.last()
        ),
        fnv1a(&format!("{trace:?}")),
    )
}

// ---------------------------------------------------------------------
// Batch-simulator scenarios (NodeSim, ClusterSim::run*, run_balanced*)
// ---------------------------------------------------------------------

/// Eight nodes, one of them idle, the rest between 60 and 9,000 tasks.
fn lumpy_population() -> TaskPopulation {
    TaskPopulation {
        spec: spec(),
        per_node: vec![9_000, 300, 4_200, 0, 6_100, 1_500, 7_700, 60],
    }
}

/// Node 2 straggles 3×, node 4 drops half its accumulation messages.
fn batch_plans() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); 8];
    plans[2] = FaultPlan::none().with_straggler(3.0);
    plans[4] = FaultPlan::seeded(9).with_message_drop_rate(0.5);
    plans
}

fn batch_goldens() -> Vec<Golden> {
    let policy = RecoveryPolicy::default();
    let pop = lumpy_population();
    let mut out = Vec::new();

    let mut rec = MemRecorder::new();
    let node = sim().node().simulate_faulty(
        &spec(),
        6_000,
        HYBRID,
        &FaultPlan::seeded(0x0020_12C1).with_launch_fail_rate(0.005),
        policy,
        &mut rec,
    );
    assert!(node.1.conserved(6_000) && node.1.gpu_task_failures > 0);
    out.push((
        "node hybrid 0.5% launch faults",
        format!("{node:?}"),
        fnv1a(&rec.to_json()),
    ));

    let mut rec = MemRecorder::new();
    let (report, _) = sim().run_with_faults(&pop, HYBRID, &[], policy, &mut rec);
    out.push((
        "cluster traced fault-free",
        format!("{report:?}"),
        fnv1a(&rec.to_json()),
    ));

    let mut rec = MemRecorder::new();
    let faulty = sim().run_with_faults(&pop, HYBRID, &batch_plans(), policy, &mut rec);
    assert!(
        faulty.0.slowest_node == 2 && faulty.1[4].dropped_messages > 0,
        "the faulted pin must exercise the straggler and the retransmits: {faulty:?}"
    );
    out.push((
        "cluster straggler + message drops",
        format!("{faulty:?}"),
        fnv1a(&rec.to_json()),
    ));

    for (name, bmode) in [
        ("balanced steal + faults", STEAL),
        (
            "balanced repartition + faults",
            BalanceMode::Repartition { epochs: 4 },
        ),
    ] {
        let mut rec = MemRecorder::new();
        let balanced =
            sim().run_balanced_with_faults(&pop, HYBRID, bmode, &batch_plans(), policy, &mut rec);
        assert!(balanced.1.migrated_tasks > 0, "{name}: {balanced:?}");
        out.push((name, format!("{balanced:?}"), fnv1a(&rec.to_json())));
    }
    out
}

fn goldens() -> Vec<Golden> {
    let mut all = dag_goldens();
    all.extend(serve_goldens());
    all.push(trace_golden());
    all.extend(batch_goldens());
    all
}

#[test]
fn engines_match_the_pre_rewrite_goldens() {
    let actual = goldens();
    assert_eq!(actual.len(), GOLDENS.len(), "scenario count changed");
    for ((name, report, trace), &(g_name, g_report, g_trace)) in actual.iter().zip(GOLDENS) {
        assert_eq!(*name, g_name, "scenario order changed");
        assert_eq!(report, g_report, "{name}: report moved");
        assert_eq!(*trace, g_trace, "{name}: trace journal moved");
    }
}

/// Prints the `GOLDENS` table for pasting below.
#[test]
#[ignore = "regenerates the golden table; run with --ignored --nocapture"]
fn print_goldens() {
    println!("const GOLDENS: &[(&str, &str, u64)] = &[");
    for (name, report, trace) in goldens() {
        println!("    (\n        {name:?},\n        {report:?},\n        {trace:#018x},\n    ),");
    }
    println!("];");
}

const GOLDENS: &[(&str, &str, u64)] = &[
    (
        "dag clean dataflow",
        "SurvivableDagReport { base: DagRunReport { makespan: 12.217ms, tasks: 320, injected: 0, retries: 0, quarantines: 0, exhausted: 0, overlap_ns: 3402000, busy_ns: 38288000, critical_path: 7.866ms, per_node_busy: [6.932ms, 8.692ms, 10.452ms, 12.212ms] }, crashes: 0, voided: 0, replayed: 0, migrated_values: 0, migrated_bytes: 0, recovery_ns: 0, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 320, last_checkpoint: FrontierSnapshot { completed: 0, frontier: [] } }",
        0xbcac48ed5d766e1e,
    ),
    (
        "dag clean barrier",
        "SurvivableDagReport { base: DagRunReport { makespan: 12.217ms, tasks: 320, injected: 0, retries: 0, quarantines: 0, exhausted: 0, overlap_ns: 0, busy_ns: 38288000, critical_path: 7.866ms, per_node_busy: [6.932ms, 8.692ms, 10.452ms, 12.212ms] }, crashes: 0, voided: 0, replayed: 0, migrated_values: 0, migrated_bytes: 0, recovery_ns: 0, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 320, last_checkpoint: FrontierSnapshot { completed: 0, frontier: [] } }",
        0xf391a904d5f1c9d2,
    ),
    (
        "dag 2% attempt faults",
        "SurvivableDagReport { base: DagRunReport { makespan: 12.217ms, tasks: 320, injected: 5, retries: 5, quarantines: 0, exhausted: 0, overlap_ns: 3472000, busy_ns: 38684000, critical_path: 7.866ms, per_node_busy: [6.932ms, 9.016ms, 10.524ms, 12.212ms] }, crashes: 0, voided: 0, replayed: 0, migrated_values: 0, migrated_bytes: 0, recovery_ns: 0, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 325, last_checkpoint: FrontierSnapshot { completed: 0, frontier: [] } }",
        0x6b203c380a92ab7e,
    ),
    (
        "dag crash at 1/3 + speculation",
        "SurvivableDagReport { base: DagRunReport { makespan: 12.279ms, tasks: 320, injected: 5, retries: 5, quarantines: 0, exhausted: 0, overlap_ns: 3758000, busy_ns: 39697333, critical_path: 7.866ms, per_node_busy: [11.234ms, 4.037ms, 12.214ms, 12.212ms] }, crashes: 1, voided: 10, replayed: 9, migrated_values: 2, migrated_bytes: 565248, recovery_ns: 128496, speculative_copies: 1, cancelled_copies: 1, attempts_journaled: 335, last_checkpoint: FrontierSnapshot { completed: 132, frontier: [TaskId(99), TaskId(103), TaskId(106), TaskId(110), TaskId(113), TaskId(117), TaskId(124), TaskId(145), TaskId(177), TaskId(184)] } }",
        0x50a1be77cc4e70dd,
    ),
    (
        "dag crash + rejoin",
        "SurvivableDagReport { base: DagRunReport { makespan: 13.733ms, tasks: 320, injected: 5, retries: 5, quarantines: 0, exhausted: 0, overlap_ns: 3704000, busy_ns: 39895333, critical_path: 7.866ms, per_node_busy: [4.067ms, 9.948ms, 13.668ms, 12.212ms] }, crashes: 1, voided: 13, replayed: 12, migrated_values: 3, migrated_bytes: 106496, recovery_ns: 33469, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 338, last_checkpoint: FrontierSnapshot { completed: 129, frontier: [TaskId(103), TaskId(110), TaskId(113), TaskId(117), TaskId(121), TaskId(124), TaskId(129), TaskId(139), TaskId(146)] } }",
        0xfd84172ca55ab848,
    ),
    (
        "dag partition",
        "SurvivableDagReport { base: DagRunReport { makespan: 12.405ms, tasks: 320, injected: 0, retries: 0, quarantines: 0, exhausted: 0, overlap_ns: 3535172, busy_ns: 38288000, critical_path: 7.866ms, per_node_busy: [6.932ms, 8.692ms, 10.452ms, 12.212ms] }, crashes: 0, voided: 0, replayed: 0, migrated_values: 0, migrated_bytes: 0, recovery_ns: 0, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 320, last_checkpoint: FrontierSnapshot { completed: 0, frontier: [] } }",
        0xd37755450c504084,
    ),
    (
        "dag crash during recovery + quarantine",
        "SurvivableDagReport { base: DagRunReport { makespan: 47.263ms, tasks: 320, injected: 111, retries: 0, quarantines: 37, exhausted: 74, overlap_ns: 1395685, busy_ns: 53613030, critical_path: 11.556ms, per_node_busy: [3.375ms, 1.841ms, 6.207ms, 42.190ms] }, crashes: 3, voided: 14, replayed: 11, migrated_values: 6, migrated_bytes: 245760, recovery_ns: 640407, speculative_copies: 0, cancelled_copies: 0, attempts_journaled: 445, last_checkpoint: FrontierSnapshot { completed: 92, frontier: [TaskId(71), TaskId(73), TaskId(75), TaskId(79), TaskId(81), TaskId(93), TaskId(96), TaskId(99), TaskId(100)] } }",
        0x197219d331ceb772,
    ),
    (
        "dag speculative copy wins",
        "SurvivableDagReport { base: DagRunReport { makespan: 14.835ms, tasks: 320, injected: 30, retries: 27, quarantines: 3, exhausted: 0, overlap_ns: 3827671, busy_ns: 42652000, critical_path: 9.369ms, per_node_busy: [7.992ms, 9.768ms, 11.806ms, 13.086ms] }, crashes: 0, voided: 0, replayed: 0, migrated_values: 0, migrated_bytes: 0, recovery_ns: 0, speculative_copies: 1, cancelled_copies: 1, attempts_journaled: 350, last_checkpoint: FrontierSnapshot { completed: 0, frontier: [] } }",
        0xcbff39693df69b85,
    ),
    (
        "serve static",
        "ServeReport { generated: 274, admitted: 274, completed: 274, rejected: 0, shed: 0, horizon: 40.000ms, makespan: 45.844ms, overall: LatencyStats { count: 274, p50: 2.631ms, p99: 16.657ms, p999: 18.620ms, max: 18.620ms, mean: 4.709ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 139, completed: 139, rejected: 0, shed: 0, slo_met: 139, slo_attainment: 1.0, latency: LatencyStats { count: 139, p50: 2.163ms, p99: 4.175ms, p999: 4.255ms, max: 4.255ms, mean: 2.272ms } }, TenantReport { tenant: TenantId(2), generated: 135, completed: 135, rejected: 0, shed: 0, slo_met: 135, slo_attainment: 1.0, latency: LatencyStats { count: 135, p50: 6.632ms, p99: 18.560ms, p999: 18.620ms, max: 18.620ms, mean: 7.219ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 27, p50: 2.000ms, p99: 4.255ms, p999: 4.255ms, max: 4.255ms, mean: 2.298ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 35, p50: 2.658ms, p99: 7.236ms, p999: 7.236ms, max: 7.236ms, mean: 3.540ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 36, p50: 2.771ms, p99: 3.977ms, p999: 3.977ms, max: 3.977ms, mean: 2.630ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 38, p50: 2.033ms, p99: 7.921ms, p999: 7.921ms, max: 7.921ms, mean: 3.160ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 34, p50: 1.603ms, p99: 2.808ms, p999: 2.808ms, max: 2.808ms, mean: 1.667ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 34, p50: 11.771ms, p99: 18.560ms, p999: 18.560ms, max: 18.560ms, mean: 11.382ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 42, p50: 2.459ms, p99: 3.320ms, p999: 3.320ms, max: 3.320ms, mean: 2.438ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 28, p50: 12.672ms, p99: 18.620ms, p999: 18.620ms, max: 18.620ms, mean: 12.272ms } }], steals: 0, blocked_steals: 0, migrated_tasks: 0, migrated_bytes: 0, migration_wire: 0ns, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 0, degraded_tasks: 0 }",
        0x61639ca4f21866f7,
    ),
    (
        "serve steal",
        "ServeReport { generated: 274, admitted: 274, completed: 274, rejected: 0, shed: 0, horizon: 40.000ms, makespan: 41.105ms, overall: LatencyStats { count: 274, p50: 2.285ms, p99: 7.898ms, p999: 8.053ms, max: 8.053ms, mean: 2.715ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 139, completed: 139, rejected: 0, shed: 0, slo_met: 139, slo_attainment: 1.0, latency: LatencyStats { count: 139, p50: 1.993ms, p99: 4.175ms, p999: 4.255ms, max: 4.255ms, mean: 2.195ms } }, TenantReport { tenant: TenantId(2), generated: 135, completed: 135, rejected: 0, shed: 0, slo_met: 135, slo_attainment: 1.0, latency: LatencyStats { count: 135, p50: 2.535ms, p99: 7.921ms, p999: 8.053ms, max: 8.053ms, mean: 3.251ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 27, p50: 2.000ms, p99: 4.255ms, p999: 4.255ms, max: 4.255ms, mean: 2.320ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 35, p50: 2.784ms, p99: 7.236ms, p999: 7.236ms, max: 7.236ms, mean: 3.406ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 36, p50: 2.717ms, p99: 3.977ms, p999: 3.977ms, max: 3.977ms, mean: 2.486ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 38, p50: 2.267ms, p99: 7.921ms, p999: 7.921ms, max: 7.921ms, mean: 3.382ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 34, p50: 1.816ms, p99: 2.989ms, p999: 2.989ms, max: 2.989ms, mean: 1.885ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 34, p50: 2.636ms, p99: 8.053ms, p999: 8.053ms, max: 8.053ms, mean: 3.189ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 42, p50: 2.095ms, p99: 3.321ms, p999: 3.321ms, max: 3.321ms, mean: 2.115ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 28, p50: 2.512ms, p99: 7.090ms, p999: 7.090ms, max: 7.090ms, mean: 2.954ms } }], steals: 23, blocked_steals: 0, migrated_tasks: 212, migrated_bytes: 1696000, migration_wire: 385.200µs, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 0, degraded_tasks: 0 }",
        0x16d357ae0ce4a857,
    ),
    (
        "serve crash + hedge",
        "ServeReport { generated: 274, admitted: 274, completed: 274, rejected: 0, shed: 0, horizon: 40.000ms, makespan: 75.707ms, overall: LatencyStats { count: 274, p50: 17.512ms, p99: 45.780ms, p999: 58.654ms, max: 58.654ms, mean: 17.833ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 139, completed: 139, rejected: 0, shed: 0, slo_met: 106, slo_attainment: 0.762589928057554, latency: LatencyStats { count: 139, p50: 3.214ms, p99: 26.161ms, p999: 28.828ms, max: 28.828ms, mean: 6.537ms } }, TenantReport { tenant: TenantId(2), generated: 135, completed: 135, rejected: 0, shed: 0, slo_met: 21, slo_attainment: 0.15555555555555556, latency: LatencyStats { count: 135, p50: 31.202ms, p99: 45.885ms, p999: 58.654ms, max: 58.654ms, mean: 29.464ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 27, p50: 3.256ms, p99: 7.301ms, p999: 7.301ms, max: 7.301ms, mean: 3.395ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 35, p50: 40.433ms, p99: 58.654ms, p999: 58.654ms, max: 58.654ms, mean: 35.539ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 36, p50: 14.786ms, p99: 28.828ms, p999: 28.828ms, max: 28.828ms, mean: 17.094ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 38, p50: 32.819ms, p99: 36.484ms, p999: 36.484ms, max: 36.484ms, mean: 28.610ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 34, p50: 2.125ms, p99: 4.350ms, p999: 4.350ms, max: 4.350ms, mean: 2.391ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 34, p50: 27.757ms, p99: 37.055ms, p999: 37.055ms, max: 37.055ms, mean: 25.152ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 42, p50: 2.867ms, p99: 4.137ms, p999: 4.137ms, max: 4.137ms, mean: 2.865ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 28, p50: 31.199ms, p99: 35.678ms, p999: 35.678ms, max: 35.678ms, mean: 28.265ms } }], steals: 4, blocked_steals: 0, migrated_tasks: 656, migrated_bytes: 5248000, migration_wire: 1.314ms, hedges_launched: 127, cancelled_hedges: 127, recovered_requests: 4, node_crashes: 1, rejoins: 0, breaker_trips: 2, brownout_engagements: 0, degraded_tasks: 0 }",
        0x9fc1f68da9c6b6f8,
    ),
    (
        "serve partition + heal + rejoin",
        "ServeReport { generated: 274, admitted: 274, completed: 274, rejected: 0, shed: 0, horizon: 40.000ms, makespan: 41.105ms, overall: LatencyStats { count: 274, p50: 3.664ms, p99: 15.128ms, p999: 15.675ms, max: 15.675ms, mean: 5.015ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 139, completed: 139, rejected: 0, shed: 0, slo_met: 136, slo_attainment: 0.9784172661870504, latency: LatencyStats { count: 139, p50: 2.551ms, p99: 5.344ms, p999: 5.356ms, max: 5.356ms, mean: 2.689ms } }, TenantReport { tenant: TenantId(2), generated: 135, completed: 135, rejected: 0, shed: 0, slo_met: 135, slo_attainment: 1.0, latency: LatencyStats { count: 135, p50: 7.168ms, p99: 15.138ms, p999: 15.675ms, max: 15.675ms, mean: 7.411ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 27, p50: 2.651ms, p99: 4.690ms, p999: 4.690ms, max: 4.690ms, mean: 2.788ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 35, p50: 9.219ms, p99: 11.930ms, p999: 11.930ms, max: 11.930ms, mean: 8.316ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 36, p50: 2.941ms, p99: 4.999ms, p999: 4.999ms, max: 4.999ms, mean: 2.923ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 38, p50: 7.016ms, p99: 12.585ms, p999: 12.585ms, max: 12.585ms, mean: 6.991ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 34, p50: 2.083ms, p99: 3.665ms, p999: 3.665ms, max: 3.665ms, mean: 2.305ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 34, p50: 5.027ms, p99: 15.138ms, p999: 15.138ms, max: 15.138ms, mean: 6.456ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 42, p50: 2.296ms, p99: 5.356ms, p999: 5.356ms, max: 5.356ms, mean: 2.734ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 28, p50: 6.699ms, p99: 15.675ms, p999: 15.675ms, max: 15.675ms, mean: 8.012ms } }], steals: 9, blocked_steals: 0, migrated_tasks: 332, migrated_bytes: 2656000, migration_wire: 561.200µs, hedges_launched: 9, cancelled_hedges: 9, recovered_requests: 24, node_crashes: 1, rejoins: 2, breaker_trips: 4, brownout_engagements: 0, degraded_tasks: 0 }",
        0xe0c311a38b8935b7,
    ),
    (
        "serve overload brownout",
        "ServeReport { generated: 1153, admitted: 1123, completed: 393, rejected: 30, shed: 730, horizon: 40.000ms, makespan: 44.451ms, overall: LatencyStats { count: 393, p50: 3.823ms, p99: 6.611ms, p999: 7.003ms, max: 7.003ms, mean: 3.943ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 604, completed: 343, rejected: 9, shed: 252, slo_met: 284, slo_attainment: 0.47019867549668876, latency: LatencyStats { count: 343, p50: 3.734ms, p99: 6.202ms, p999: 6.630ms, max: 6.630ms, mean: 3.836ms } }, TenantReport { tenant: TenantId(2), generated: 549, completed: 50, rejected: 21, shed: 478, slo_met: 50, slo_attainment: 0.09107468123861566, latency: LatencyStats { count: 50, p50: 4.408ms, p99: 7.003ms, p999: 7.003ms, max: 7.003ms, mean: 4.682ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 97, p50: 3.698ms, p99: 5.861ms, p999: 5.861ms, max: 5.861ms, mean: 3.734ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 12, p50: 5.624ms, p99: 6.366ms, p999: 6.366ms, max: 6.366ms, mean: 5.787ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 94, p50: 3.271ms, p99: 6.630ms, p999: 6.630ms, max: 6.630ms, mean: 3.744ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 15, p50: 3.689ms, p99: 4.484ms, p999: 4.484ms, max: 4.484ms, mean: 3.558ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 74, p50: 3.833ms, p99: 5.955ms, p999: 5.955ms, max: 5.955ms, mean: 3.975ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 19, p50: 4.666ms, p99: 7.003ms, p999: 7.003ms, max: 7.003ms, mean: 5.322ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 78, p50: 3.977ms, p99: 5.896ms, p999: 5.896ms, max: 5.896ms, mean: 3.939ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 4, p50: 2.441ms, p99: 2.856ms, p999: 2.856ms, max: 2.856ms, mean: 2.546ms } }], steals: 6, blocked_steals: 0, migrated_tasks: 124, migrated_bytes: 992000, migration_wire: 210.400µs, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 6, degraded_tasks: 1304 }",
        0x85840aff1332315d,
    ),
    (
        "serve repartition",
        "ServeReport { generated: 274, admitted: 274, completed: 274, rejected: 0, shed: 0, horizon: 40.000ms, makespan: 41.223ms, overall: LatencyStats { count: 274, p50: 2.444ms, p99: 7.987ms, p999: 8.189ms, max: 8.189ms, mean: 3.059ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 139, completed: 139, rejected: 0, shed: 0, slo_met: 139, slo_attainment: 1.0, latency: LatencyStats { count: 139, p50: 2.104ms, p99: 4.175ms, p999: 4.255ms, max: 4.255ms, mean: 2.282ms } }, TenantReport { tenant: TenantId(2), generated: 135, completed: 135, rejected: 0, shed: 0, slo_met: 135, slo_attainment: 1.0, latency: LatencyStats { count: 135, p50: 3.077ms, p99: 8.131ms, p999: 8.189ms, max: 8.189ms, mean: 3.859ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 27, p50: 2.275ms, p99: 4.255ms, p999: 4.255ms, max: 4.255ms, mean: 2.405ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 35, p50: 2.658ms, p99: 7.236ms, p999: 7.236ms, max: 7.236ms, mean: 3.540ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 36, p50: 2.771ms, p99: 3.977ms, p999: 3.977ms, max: 3.977ms, mean: 2.630ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 38, p50: 2.033ms, p99: 7.921ms, p999: 7.921ms, max: 7.921ms, mean: 3.168ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 34, p50: 1.624ms, p99: 3.006ms, p999: 3.006ms, max: 3.006ms, mean: 1.759ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 34, p50: 3.420ms, p99: 8.189ms, p999: 8.189ms, max: 8.189ms, mean: 4.270ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 42, p50: 2.233ms, p99: 4.030ms, p999: 4.030ms, max: 4.030ms, mean: 2.327ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 28, p50: 4.693ms, p99: 7.474ms, p999: 7.474ms, max: 7.474ms, mean: 4.694ms } }], steals: 0, blocked_steals: 0, migrated_tasks: 92, migrated_bytes: 736000, migration_wire: 167.200µs, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 0, degraded_tasks: 0 }",
        0x20e7ba797ec72970,
    ),
    (
        "serve steal 256 nodes",
        "ServeReport { generated: 6063, admitted: 6063, completed: 6063, rejected: 0, shed: 0, horizon: 12.000ms, makespan: 14.442ms, overall: LatencyStats { count: 6063, p50: 2.614ms, p99: 7.452ms, p999: 9.287ms, max: 11.021ms, mean: 2.974ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 2028, completed: 2028, rejected: 0, shed: 0, slo_met: 2006, slo_attainment: 0.9891518737672583, latency: LatencyStats { count: 2028, p50: 2.178ms, p99: 5.048ms, p999: 5.539ms, max: 6.136ms, mean: 2.419ms } }, TenantReport { tenant: TenantId(2), generated: 2005, completed: 2005, rejected: 0, shed: 0, slo_met: 2004, slo_attainment: 0.9995012468827931, latency: LatencyStats { count: 2005, p50: 2.714ms, p99: 7.043ms, p999: 9.060ms, max: 10.723ms, mean: 3.046ms } }, TenantReport { tenant: TenantId(3), generated: 2030, completed: 2030, rejected: 0, shed: 0, slo_met: 2030, slo_attainment: 1.0, latency: LatencyStats { count: 2030, p50: 3.171ms, p99: 8.357ms, p999: 9.598ms, max: 11.021ms, mean: 3.458ms } }], kinds: [], steals: 615, blocked_steals: 932, migrated_tasks: 8172, migrated_bytes: 65376000, migration_wire: 14.305ms, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 0, degraded_tasks: 0 } kinds#0x3343e72921c0363c",
        0xbe0dde7f8b050750,
    ),
    (
        "serve drop-oldest three weights",
        "ServeReport { generated: 1609, admitted: 1609, completed: 818, rejected: 0, shed: 791, horizon: 40.000ms, makespan: 46.713ms, overall: LatencyStats { count: 818, p50: 4.762ms, p99: 7.959ms, p999: 8.777ms, max: 8.777ms, mean: 4.719ms }, tenants: [TenantReport { tenant: TenantId(1), generated: 544, completed: 534, rejected: 0, shed: 10, slo_met: 299, slo_attainment: 0.5496323529411765, latency: LatencyStats { count: 534, p50: 4.821ms, p99: 8.013ms, p999: 8.500ms, max: 8.500ms, mean: 4.794ms } }, TenantReport { tenant: TenantId(2), generated: 563, completed: 237, rejected: 0, shed: 326, slo_met: 237, slo_attainment: 0.42095914742451157, latency: LatencyStats { count: 237, p50: 4.634ms, p99: 7.097ms, p999: 8.777ms, max: 8.777ms, mean: 4.555ms } }, TenantReport { tenant: TenantId(3), generated: 502, completed: 47, rejected: 0, shed: 455, slo_met: 47, slo_attainment: 0.09362549800796813, latency: LatencyStats { count: 47, p50: 5.198ms, p99: 7.959ms, p999: 7.959ms, max: 7.959ms, mean: 4.700ms } }], kinds: [KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, latency: LatencyStats { count: 135, p50: 3.921ms, p99: 7.627ms, p999: 7.741ms, max: 7.741ms, mean: 4.210ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(2) }, latency: LatencyStats { count: 97, p50: 4.731ms, p99: 6.573ms, p999: 6.573ms, max: 6.573ms, mean: 4.600ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(3) }, latency: LatencyStats { count: 8, p50: 2.754ms, p99: 4.501ms, p999: 4.501ms, max: 4.501ms, mean: 3.103ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(1) }, latency: LatencyStats { count: 134, p50: 5.536ms, p99: 7.371ms, p999: 7.385ms, max: 7.385ms, mean: 5.482ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(2) }, latency: LatencyStats { count: 36, p50: 5.552ms, p99: 8.777ms, p999: 8.777ms, max: 8.777ms, mean: 5.333ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 1, tenant: TenantId(3) }, latency: LatencyStats { count: 13, p50: 7.054ms, p99: 7.959ms, p999: 7.959ms, max: 7.959ms, mean: 5.488ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(1) }, latency: LatencyStats { count: 121, p50: 5.129ms, p99: 8.491ms, p999: 8.500ms, max: 8.500ms, mean: 5.370ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(2) }, latency: LatencyStats { count: 83, p50: 4.262ms, p99: 6.232ms, p999: 6.232ms, max: 6.232ms, mean: 4.231ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 2, tenant: TenantId(3) }, latency: LatencyStats { count: 18, p50: 4.990ms, p99: 6.260ms, p999: 6.260ms, max: 6.260ms, mean: 4.136ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(1) }, latency: LatencyStats { count: 144, p50: 4.220ms, p99: 6.200ms, p999: 6.251ms, max: 6.251ms, mean: 4.216ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(2) }, latency: LatencyStats { count: 21, p50: 4.184ms, p99: 6.218ms, p999: 6.218ms, max: 6.218ms, mean: 4.290ms } }, KindLatency { kind: TaskKind { op: 24082, data_hash: 3, tenant: TenantId(3) }, latency: LatencyStats { count: 8, p50: 6.345ms, p99: 6.891ms, p999: 6.891ms, max: 6.891ms, mean: 6.284ms } }], steals: 33, blocked_steals: 0, migrated_tasks: 1152, migrated_bytes: 9216000, migration_wire: 1.909ms, hedges_launched: 0, cancelled_hedges: 0, recovered_requests: 0, node_crashes: 0, rejoins: 0, breaker_trips: 0, brownout_engagements: 0, degraded_tasks: 0 }",
        0x3f0af3d44dd94952,
    ),
    (
        "generate_requests three tenants",
        "530 requests, per tenant [0, 185, 173, 172], first Some(Request { id: 0, tenant: TenantId(1), kind: TaskKind { op: 24082, data_hash: 0, tenant: TenantId(1) }, arrival: 53.017µs, tasks: 4 }), last Some(Request { id: 529, tenant: TenantId(2), kind: TaskKind { op: 24082, data_hash: 6, tenant: TenantId(2) }, arrival: 39.708ms, tasks: 4 })",
        0x6be0ce1e65b40e1d,
    ),
    (
        "node hybrid 0.5% launch faults",
        "(NodeReport { total: 625.169ms, cpu_compute: 588.212ms, gpu_busy: 620.977ms, data_busy: 946.380ms, dispatch_busy: 43.500ms, n_batches: 100, mean_split_k: 0.5177749753365076 }, FaultSummary { gpu_task_failures: 10, gpu_retries: 9, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2900, completed_cpu: 3100, lost: 0, dropped_messages: 0 })",
        0xc7b3cf9afa238705,
    ),
    (
        "cluster traced fault-free",
        "ClusterReport { total: 921.032ms, nodes: [NodeReport { total: 921.032ms, cpu_compute: 882.318ms, gpu_busy: 917.651ms, data_busy: 1.420s, dispatch_busy: 65.250ms, n_batches: 150, mean_split_k: 0.5177749753365076 }, NodeReport { total: 34.016ms, cpu_compute: 29.411ms, gpu_busy: 30.635ms, data_busy: 47.319ms, dispatch_busy: 2.175ms, n_batches: 5, mean_split_k: 0.5177749753365072 }, NodeReport { total: 431.644ms, cpu_compute: 411.748ms, gpu_busy: 428.263ms, data_busy: 662.466ms, dispatch_busy: 30.450ms, n_batches: 70, mean_split_k: 0.5177749753365075 }, NodeReport { total: 0ns, cpu_compute: 0ns, gpu_busy: 0ns, data_busy: 0ns, dispatch_busy: 0ns, n_batches: 0, mean_split_k: 0.0 }, NodeReport { total: 625.049ms, cpu_compute: 598.079ms, gpu_busy: 621.983ms, data_busy: 962.153ms, dispatch_busy: 44.220ms, n_batches: 102, mean_split_k: 0.5177765766065734 }, NodeReport { total: 156.363ms, cpu_compute: 147.053ms, gpu_busy: 152.982ms, data_busy: 236.595ms, dispatch_busy: 10.875ms, n_batches: 25, mean_split_k: 0.5177749753365073 }, NodeReport { total: 787.870ms, cpu_compute: 754.809ms, gpu_busy: 785.120ms, data_busy: 1.215s, dispatch_busy: 55.830ms, n_batches: 129, mean_split_k: 0.5177800356252427 }, NodeReport { total: 9.547ms, cpu_compute: 5.882ms, gpu_busy: 6.165ms, data_busy: 9.464ms, dispatch_busy: 435.000µs, n_batches: 1, mean_split_k: 0.5177749753365072 }], slowest_node: 0, network_time: 4.322ms, total_tasks: 28860 }",
        0x8bab5aac7eb5f88c,
    ),
    (
        "cluster straggler + message drops",
        "(ClusterReport { total: 1.295s, nodes: [NodeReport { total: 921.032ms, cpu_compute: 882.318ms, gpu_busy: 917.651ms, data_busy: 1.420s, dispatch_busy: 65.250ms, n_batches: 150, mean_split_k: 0.5177749753365076 }, NodeReport { total: 34.016ms, cpu_compute: 29.411ms, gpu_busy: 30.635ms, data_busy: 47.319ms, dispatch_busy: 2.175ms, n_batches: 5, mean_split_k: 0.5177749753365072 }, NodeReport { total: 1.295s, cpu_compute: 1.235s, gpu_busy: 1.285s, data_busy: 1.987s, dispatch_busy: 91.350ms, n_batches: 70, mean_split_k: 0.5177749753365075 }, NodeReport { total: 0ns, cpu_compute: 0ns, gpu_busy: 0ns, data_busy: 0ns, dispatch_busy: 0ns, n_batches: 0, mean_split_k: 0.0 }, NodeReport { total: 625.049ms, cpu_compute: 598.079ms, gpu_busy: 621.983ms, data_busy: 962.153ms, dispatch_busy: 44.220ms, n_batches: 102, mean_split_k: 0.5177765766065734 }, NodeReport { total: 156.363ms, cpu_compute: 147.053ms, gpu_busy: 152.982ms, data_busy: 236.595ms, dispatch_busy: 10.875ms, n_batches: 25, mean_split_k: 0.5177749753365073 }, NodeReport { total: 787.870ms, cpu_compute: 754.809ms, gpu_busy: 785.120ms, data_busy: 1.215s, dispatch_busy: 55.830ms, n_batches: 129, mean_split_k: 0.5177800356252427 }, NodeReport { total: 9.547ms, cpu_compute: 5.882ms, gpu_busy: 6.165ms, data_busy: 9.464ms, dispatch_busy: 435.000µs, n_batches: 1, mean_split_k: 0.5177749753365072 }], slowest_node: 2, network_time: 8.043ms, total_tasks: 28860 }, [FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 4350, completed_cpu: 4650, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 145, completed_cpu: 155, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2030, completed_cpu: 2170, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 0, completed_cpu: 0, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2948, completed_cpu: 3152, lost: 0, dropped_messages: 913 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 725, completed_cpu: 775, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 3722, completed_cpu: 3978, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 29, completed_cpu: 31, lost: 0, dropped_messages: 0 }])",
        0xc0a0a54dc43e0381,
    ),
    (
        "balanced steal + faults",
        "(ClusterReport { total: 408.161ms, nodes: [NodeReport { total: 407.172ms, cpu_compute: 388.220ms, gpu_busy: 403.793ms, data_busy: 624.611ms, dispatch_busy: 28.710ms, n_batches: 66, mean_split_k: 0.5177749753365075 }, NodeReport { total: 407.172ms, cpu_compute: 388.220ms, gpu_busy: 403.793ms, data_busy: 624.611ms, dispatch_busy: 28.710ms, n_batches: 66, mean_split_k: 0.5177749753365075 }, NodeReport { total: 395.681ms, cpu_compute: 370.573ms, gpu_busy: 385.537ms, data_busy: 596.219ms, dispatch_busy: 27.405ms, n_batches: 21, mean_split_k: 0.5177749753365072 }, NodeReport { total: 404.417ms, cpu_compute: 382.338ms, gpu_busy: 397.676ms, data_busy: 615.147ms, dispatch_busy: 28.275ms, n_batches: 65, mean_split_k: 0.5177749753365075 }, NodeReport { total: 405.133ms, cpu_compute: 386.322ms, gpu_busy: 401.759ms, data_busy: 621.456ms, dispatch_busy: 28.560ms, n_batches: 66, mean_split_k: 0.5177774500266092 }, NodeReport { total: 407.172ms, cpu_compute: 388.220ms, gpu_busy: 403.793ms, data_busy: 624.611ms, dispatch_busy: 28.710ms, n_batches: 66, mean_split_k: 0.5177749753365075 }, NodeReport { total: 403.094ms, cpu_compute: 384.235ms, gpu_busy: 399.727ms, data_busy: 618.302ms, dispatch_busy: 28.425ms, n_batches: 66, mean_split_k: 0.5177848659008532 }, NodeReport { total: 408.161ms, cpu_compute: 388.220ms, gpu_busy: 403.793ms, data_busy: 624.611ms, dispatch_busy: 28.710ms, n_batches: 66, mean_split_k: 0.5177749753365075 }], slowest_node: 7, network_time: 5.248ms, total_tasks: 28860 }, BalanceReport { steals: 12, blocked_steals: 0, repartitions: 0, migrated_tasks: 15360, migrated_bytes: 122880000, migration_wire: 24.600ms }, [FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1914, completed_cpu: 2046, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1914, completed_cpu: 2046, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 609, completed_cpu: 651, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1885, completed_cpu: 2015, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1904, completed_cpu: 2036, lost: 0, dropped_messages: 599 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1914, completed_cpu: 2046, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1895, completed_cpu: 2025, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1914, completed_cpu: 2046, lost: 0, dropped_messages: 0 }])",
        0x93fe7aa483c8ddfe,
    ),
    (
        "balanced repartition + faults",
        "(ClusterReport { total: 536.573ms, nodes: [NodeReport { total: 535.636ms, cpu_compute: 511.744ms, gpu_busy: 532.258ms, data_busy: 823.351ms, dispatch_busy: 37.845ms, n_batches: 87, mean_split_k: 0.5177749753365076 }, NodeReport { total: 526.160ms, cpu_compute: 282.342ms, gpu_busy: 293.681ms, data_busy: 454.262ms, dispatch_busy: 20.880ms, n_batches: 48, mean_split_k: 0.5177749753365075 }, NodeReport { total: 524.145ms, cpu_compute: 494.098ms, gpu_busy: 514.002ms, data_busy: 794.959ms, dispatch_busy: 36.540ms, n_batches: 28, mean_split_k: 0.5177749753365074 }, NodeReport { total: 480.747ms, cpu_compute: 211.756ms, gpu_busy: 220.273ms, data_busy: 340.697ms, dispatch_busy: 15.660ms, n_batches: 36, mean_split_k: 0.5177749753365074 }, NodeReport { total: 533.596ms, cpu_compute: 509.847ms, gpu_busy: 530.223ms, data_busy: 820.196ms, dispatch_busy: 37.695ms, n_batches: 87, mean_split_k: 0.5177768526876193 }, NodeReport { total: 536.573ms, cpu_compute: 411.748ms, gpu_busy: 428.263ms, data_busy: 662.466ms, dispatch_busy: 30.450ms, n_batches: 70, mean_split_k: 0.5177749753365075 }, NodeReport { total: 531.557ms, cpu_compute: 507.760ms, gpu_busy: 528.191ms, data_busy: 817.041ms, dispatch_busy: 37.560ms, n_batches: 87, mean_split_k: 0.5177824785232525 }, NodeReport { total: 497.401ms, cpu_compute: 229.403ms, gpu_busy: 238.625ms, data_busy: 369.088ms, dispatch_busy: 16.965ms, n_batches: 39, mean_split_k: 0.5177749753365075 }], slowest_node: 5, network_time: 6.967ms, total_tasks: 28860 }, BalanceReport { steals: 0, blocked_steals: 0, repartitions: 1, migrated_tasks: 9720, migrated_bytes: 77760000, migration_wire: 15.566ms }, [FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2523, completed_cpu: 2697, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1392, completed_cpu: 1488, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 812, completed_cpu: 868, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1044, completed_cpu: 1116, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2513, completed_cpu: 2687, lost: 0, dropped_messages: 798 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2030, completed_cpu: 2170, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 2504, completed_cpu: 2676, lost: 0, dropped_messages: 0 }, FaultSummary { gpu_task_failures: 0, gpu_retries: 0, cpu_fallback_tasks: 0, timeouts_detected: 0, quarantines: 0, readmissions: 0, completed_gpu: 1131, completed_cpu: 1209, lost: 0, dropped_messages: 0 }])",
        0xa0b375c3cc36dd0e,
    ),
];
