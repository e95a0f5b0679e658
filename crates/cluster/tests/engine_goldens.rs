//! Cross-commit golden pins for the two online engines (ISSUE 12).
//!
//! The replay tests elsewhere compare a run to *itself*; they cannot
//! see a scheduler rewrite that changes every run the same way. These
//! pins compare the engines to the commit that preceded the
//! ready-frontier / streamed-arrival rewrite: the constants below were
//! captured on that commit (the all-tasks scan, the pre-loaded arrival
//! heap) and the old loops were then deleted. Each scenario pins the
//! full report (`{:?}`) and an FNV-1a hash of the `MemRecorder` trace
//! JSON, so every simulated number and every journal byte is covered.
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
    HedgeConfig, RateProfile, ServeConfig, ShedPolicy, SurvivalConfig, TenantSpec,
};
use madness_cluster::workload::WorkloadSpec;
use madness_cluster::BalanceMode;
use madness_faults::{FaultPlan, NodeFault, NodeTimeline, RecoveryPolicy};
use madness_gpusim::{KernelKind, SimTime};
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
    let scenarios: [(&'static str, DagMode, DagFaultSpec, DagSurvivalSpec); 5] = [
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
    ];
    let mut out = vec![clean];
    for (name, mode, faults, survival) in &scenarios {
        out.push(dag_run(name, *mode, faults, survival).0);
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

fn hybrid() -> ResourceMode {
    ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    }
}

fn steal() -> BalanceMode {
    BalanceMode::Steal {
        min_batch: 60,
        max_inflight: 8,
    }
}

/// Two tenants (Poisson + OnOff) at 0.7× calibrated capacity on four
/// nodes for 40 ms — the serve_determinism shape.
fn serve_cfg() -> ServeConfig {
    let rate = sim().node().calibrate(
        &spec(),
        hybrid(),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
    );
    let total = 0.7 * 4.0 / (rate.per_task.as_secs_f64() * 4.0).max(1e-12);
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

fn serve_goldens() -> Vec<Golden> {
    let cfg = serve_cfg();
    let mut out = Vec::new();
    for (name, bmode) in [
        ("serve static", BalanceMode::Static),
        ("serve steal", steal()),
    ] {
        let mut rec = MemRecorder::new();
        let report = sim().run_served(&cfg, hybrid(), bmode, &mut rec);
        assert!(report.conserved(), "{name}: {report:?}");
        out.push((name, format!("{report:?}"), fnv1a(&rec.to_json())));
    }
    // Node 0 straggles 4× (hedge bait), node 1 crashes mid-traffic.
    let plans = vec![
        FaultPlan::none().with_straggler(4.0),
        FaultPlan::none().with_node_crash_at(SimTime::from_millis(8).as_nanos()),
    ];
    let survival = SurvivalConfig {
        hedge: Some(HedgeConfig::default()),
        ..SurvivalConfig::default()
    };
    let mut rec = MemRecorder::new();
    let report = sim().run_served_survivable(
        &cfg,
        hybrid(),
        steal(),
        &plans,
        RecoveryPolicy::default(),
        &survival,
        &mut rec,
    );
    assert!(report.conserved(), "serve crash + hedge: {report:?}");
    assert!(
        report.node_crashes == 1 && report.hedges_launched > 0 && report.recovered_requests > 0,
        "the survivable pin must exercise crash recovery and hedging: {report:?}"
    );
    out.push((
        "serve crash + hedge",
        format!("{report:?}"),
        fnv1a(&rec.to_json()),
    ));
    out
}

fn goldens() -> Vec<Golden> {
    let mut all = dag_goldens();
    all.extend(serve_goldens());
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
];
