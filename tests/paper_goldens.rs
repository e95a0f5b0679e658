//! Cross-commit golden pins for the paper-scale reproduction and the
//! `Timing`-fidelity node pipeline (ISSUE 17), on the
//! `engine_goldens.rs` recipe.
//!
//! `tablegen table1 … table6 fig5 fig6` printing byte-identical text was
//! a gate recent PRs ran by hand; this pins the values behind that text.
//! The constants were captured on the commit *before* `GpuDevice`
//! started sharing cache and cost lookups across a run of tasks with one
//! term table (when every simulated task still built its own
//! `shape_only` table, probed the device cache `rank × d` times and
//! summed the cuBLAS cost term by term), so they compare the run-shared
//! path to the per-task one it replaced:
//!
//! * every table and figure of the paper at full scale (154 k / 542 k
//!   tasks, 100–500 nodes) — FNV-1a over `format!("{:?}")`;
//! * `NodeSim::simulate_faulty` directly, on literal specs, in every
//!   resource mode × both kernel models × {fault-free, seeded launch
//!   faults + stream stalls, straggler} — `(NodeReport, FaultSummary)`;
//! * traced runs — the device-cache / launch / transfer counters and the
//!   whole journal, once with the default 6 GB device and once with a
//!   device so small that every task's own blocks evict each other (the
//!   case the run shortcut must *not* take).
//!
//! `RECOVERY_GOLDENS` (ISSUE 23) is a second capture, taken on the commit
//! before `NodeSim::simulate_device` became `NodeRun`: the recovery arms
//! the first table never reaches — retry exhaustion and CPU fallback,
//! quarantine and probing readmission, a device loss, whole-batch
//! transfer aborts, a windowed plan — in all three pipelined modes, and
//! traced `gpu5` / `adaptive` journals that carry the recovery events
//! and the learned dispatcher's samples.
//!
//! A change that *means* to move simulated numbers regenerates the
//! table with
//!
//! ```bash
//! cargo test --test paper_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and says why in its PR.

use madness::cluster::node::{FaultSummary, NodeParams, NodeSim, ResourceMode};
use madness::cluster::workload::WorkloadSpec;
use madness::gpusim::KernelKind;
use madness::trace::{MemRecorder, NullRecorder};
use madness_bench::{figures, tables};
use madness_faults::{FaultAction, FaultPlan, RecoveryPolicy};

/// `(scenario, FNV-1a of the pinned value's `{:?}`)`.
type Golden = (String, u64);

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(name: impl Into<String>, value: &impl std::fmt::Debug) -> Golden {
    (name.into(), fnv1a(&format!("{value:?}")))
}

fn table_goldens() -> Vec<Golden> {
    vec![
        pin("table1", &tables::table1()),
        pin("table2", &tables::table2()),
        pin("table3", &tables::table3()),
        pin("table4", &tables::table4()),
        pin("table5", &tables::table5()),
        pin("table6", &tables::table6()),
        pin("fig5", &figures::fig5()),
        pin("fig6", &figures::fig6()),
    ]
}

/// Not a multiple of `max_batch` (60), so the last flush is a drain.
const NODE_TASKS: u64 = 3_017;

fn specs() -> [(&'static str, WorkloadSpec); 3] {
    [
        (
            "d3 k10",
            WorkloadSpec {
                d: 3,
                k: 10,
                rank: 100,
                rr_mean_rank: None,
            },
        ),
        (
            "d3 k20",
            WorkloadSpec {
                d: 3,
                k: 20,
                rank: 100,
                rr_mean_rank: None,
            },
        ),
        (
            "d4 k14 rr6",
            WorkloadSpec {
                d: 4,
                k: 14,
                rank: 100,
                rr_mean_rank: Some(6),
            },
        ),
    ]
}

fn modes() -> Vec<(String, ResourceMode)> {
    let mut out = vec![("cpu16".to_string(), ResourceMode::CpuOnly { threads: 16 })];
    for (kname, kernel) in [
        ("custom", KernelKind::CustomMtxmq),
        ("cublas", KernelKind::CublasLike),
    ] {
        out.push((
            format!("gpu5 {kname}"),
            ResourceMode::GpuOnly {
                streams: 5,
                kernel,
                data_threads: 12,
            },
        ));
        out.push((
            format!("hybrid {kname}"),
            ResourceMode::Hybrid {
                compute_threads: 10,
                data_threads: 5,
                streams: 5,
                kernel,
            },
        ));
        out.push((
            format!("adaptive {kname}"),
            ResourceMode::AdaptiveHybrid {
                compute_threads: 10,
                data_threads: 5,
                streams: 5,
                kernel,
            },
        ));
    }
    out
}

fn launch_and_stall_plan() -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED)
        .with_launch_fail_rate(0.01)
        .with_stream_stalls(0.05, 200_000)
}

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("clean", FaultPlan::none()),
        ("launch+stall", launch_and_stall_plan()),
        ("straggler", FaultPlan::none().with_straggler(1.7)),
    ]
}

fn node_goldens() -> Vec<Golden> {
    let node = NodeSim::new(NodeParams::default());
    let mut out = Vec::new();
    for (sname, spec) in specs() {
        for (mname, mode) in modes() {
            for (pname, plan) in plans() {
                let run = node.simulate_faulty(
                    &spec,
                    NODE_TASKS,
                    mode,
                    &plan,
                    RecoveryPolicy::default(),
                    &mut NullRecorder,
                );
                assert!(run.1.conserved(NODE_TASKS), "{sname} {mname} {pname}");
                out.push(pin(format!("node {sname} {mname} {pname}"), &run));
            }
        }
    }
    out
}

/// Traced hybrid runs under the faulted plan: the report, the cache /
/// launch / transfer counters and the whole journal.
fn traced_goldens() -> Vec<Golden> {
    let mut tight = NodeParams::default();
    // 100 kB holds 125 of a k = 10 task's 300 blocks: every task evicts
    // its own earlier blocks, so nothing is ever a hit.
    tight.gpu.device_mem_bytes = 100_000;
    let mut out = Vec::new();
    for (dname, params) in [("6GB", NodeParams::default()), ("100kB", tight)] {
        let node = NodeSim::new(params);
        for (sname, spec) in specs() {
            let mut rec = MemRecorder::new();
            let mode = ResourceMode::Hybrid {
                compute_threads: 10,
                data_threads: 5,
                streams: 5,
                kernel: KernelKind::auto_select(spec.d, spec.k),
            };
            let run = node.simulate_faulty(
                &spec,
                NODE_TASKS,
                mode,
                &launch_and_stall_plan(),
                RecoveryPolicy::default(),
                &mut rec,
            );
            let m = rec.metrics();
            let counters = [
                "cache_hit",
                "cache_miss",
                "cache_evict",
                "kernel_launches",
                "bytes_h2d",
            ]
            .map(|c| (c, m.counter(c)));
            if dname == "100kB" {
                assert!(m.counter("cache_evict") > 0, "{sname}: device not tight");
            }
            out.push(pin(
                format!("traced {dname} {sname}"),
                &(run, counters, fnv1a(&rec.to_json())),
            ));
        }
    }
    out
}

/// Seed of every faulted plan in this file.
const FAULT_SEED: u64 = 0x0020_12C1;

fn launch_20_plan() -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED).with_launch_fail_rate(0.2)
}

/// `d3 k10` under the custom kernel in the three pipelined modes.
fn pipelined_custom_modes() -> Vec<(String, ResourceMode)> {
    modes()
        .into_iter()
        .filter(|(name, _)| name.ends_with("custom"))
        .collect()
}

/// `(label, plan, "the run reached the arm this plan is for")`.
type RecoveryPlan = (&'static str, FaultPlan, fn(&FaultSummary) -> bool);

/// The recovery arms `plans()` is too mild to reach. Each plan asserts
/// the counters it exists for, so a pin cannot go inert silently.
fn recovery_goldens() -> Vec<Golden> {
    let node = NodeSim::new(NodeParams::default());
    let (sname, spec) = specs()[0];
    let mut out = Vec::new();
    for (mname, mode) in pipelined_custom_modes() {
        // Fault instants are placed relative to the mode's own fault-free
        // makespan, so they land mid-run in every mode.
        let clean = node.simulate(&spec, NODE_TASKS, mode).total.as_nanos();
        let plans: [RecoveryPlan; 4] = [
            // Retry exhaustion, fallback, quarantine, a probe that
            // readmits.
            ("launch20", launch_20_plan(), |s| {
                s.gpu_retries > 0
                    && s.cpu_fallback_tasks > 0
                    && s.quarantines > 0
                    && s.readmissions > 0
            }),
            // A lost device is quarantined at once and never retried; the
            // batch in flight falls back. (That the quarantine never
            // expires is ROADMAP item 1, finding (b) — pinned by the
            // hash, not asserted.)
            (
                "lost@clean/3",
                FaultPlan::seeded(FAULT_SEED).with_device_lost_at(clean / 3),
                |s| s.quarantines == 1 && s.gpu_retries == 0 && s.cpu_fallback_tasks > 0,
            ),
            // Whole-batch aborts, every one cured by a retry.
            (
                "transfer30",
                FaultPlan::seeded(FAULT_SEED).with_transfer_timeout_rate(0.3),
                |s| s.gpu_retries > 0 && s.cpu_fallback_tasks == 0,
            ),
            (
                "launch20 windowed",
                launch_20_plan().with_window(clean / 4, clean / 2),
                |s| s.gpu_retries > 0 && s.quarantines > 0,
            ),
        ];
        for (pname, plan, reaches_its_arm) in plans {
            let run = node.simulate_faulty(
                &spec,
                NODE_TASKS,
                mode,
                &plan,
                RecoveryPolicy::default(),
                &mut NullRecorder,
            );
            let sum = run.1;
            let what = format!("{sname} {mname} {pname}: {sum:?}");
            assert!(sum.conserved(NODE_TASKS), "{what}");
            assert!(sum.gpu_task_failures > 0 && reaches_its_arm(&sum), "{what}");
            out.push(pin(format!("recovery {sname} {mname} {pname}"), &run));
        }
    }
    out
}

/// Traced `gpu5` and `adaptive` runs of the 20 % launch plan: the
/// report, the counters and a journal with every recovery action in it.
fn traced_recovery_goldens() -> Vec<Golden> {
    let node = NodeSim::new(NodeParams::default());
    let (sname, spec) = specs()[0];
    let mut out = Vec::new();
    for (mname, mode) in pipelined_custom_modes() {
        if matches!(mode, ResourceMode::Hybrid { .. }) {
            continue; // `traced_goldens` is the Hybrid journal
        }
        let mut rec = MemRecorder::new();
        let run = node.simulate_faulty(
            &spec,
            NODE_TASKS,
            mode,
            &launch_20_plan(),
            RecoveryPolicy::default(),
            &mut rec,
        );
        for action in [
            FaultAction::Injected,
            FaultAction::Retried,
            FaultAction::CpuFallback,
            FaultAction::Quarantined,
            FaultAction::Readmitted,
        ] {
            assert!(
                rec.faults().any(|e| e.action == action),
                "{mname}: no {action:?} event in the journal"
            );
        }
        let m = rec.metrics();
        assert_eq!(
            m.dispatch_history().is_empty(),
            !matches!(mode, ResourceMode::AdaptiveHybrid { .. }),
            "{mname}: dispatch samples"
        );
        let counters = [
            "tasks_gpu",
            "tasks_cpu",
            "kernel_launches",
            "bytes_h2d",
            "bytes_d2h",
            "batch_flush_size",
            "batch_flush_drain",
        ]
        .map(|c| (c, m.counter(c)));
        out.push(pin(
            format!("traced recovery {sname} {mname} launch20"),
            &(run, counters, fnv1a(&rec.to_json())),
        ));
    }
    out
}

fn check(actual: &[Golden], golden: &[(&str, u64)]) {
    assert_eq!(actual.len(), golden.len(), "scenario count changed");
    for ((name, hash), &(g_name, g_hash)) in actual.iter().zip(golden) {
        assert_eq!(name, g_name, "scenario order changed");
        assert_eq!(*hash, g_hash, "{name}: simulated numbers moved");
    }
}

#[test]
fn tables_and_figures_match_the_per_task_modelling_commit() {
    check(&table_goldens(), TABLE_GOLDENS);
}

#[test]
fn node_pipeline_matches_the_per_task_modelling_commit() {
    let mut actual = node_goldens();
    actual.extend(traced_goldens());
    check(&actual, NODE_GOLDENS);
}

#[test]
fn node_recovery_matches_the_commit_before_node_run() {
    let mut actual = recovery_goldens();
    actual.extend(traced_recovery_goldens());
    check(&actual, RECOVERY_GOLDENS);
}

/// Prints the golden tables for pasting below.
#[test]
#[ignore = "regenerates the golden tables; run with --ignored --nocapture"]
fn print_goldens() {
    let mut node = node_goldens();
    node.extend(traced_goldens());
    let mut recovery = recovery_goldens();
    recovery.extend(traced_recovery_goldens());
    for (table, rows) in [
        ("TABLE_GOLDENS", table_goldens()),
        ("NODE_GOLDENS", node),
        ("RECOVERY_GOLDENS", recovery),
    ] {
        println!("const {table}: &[(&str, u64)] = &[");
        for (name, hash) in rows {
            println!("    ({name:?}, {hash:#018x}),");
        }
        println!("];");
    }
}

const TABLE_GOLDENS: &[(&str, u64)] = &[
    ("table1", 0x0af7d9d4f2984e49),
    ("table2", 0xebfb562d6b41cd8a),
    ("table3", 0xdbb7656ba6166129),
    ("table4", 0xacc3e731ce3e2a83),
    ("table5", 0x1c2fe4e9941b8c5a),
    ("table6", 0xcc559df6727e9fb9),
    ("fig5", 0x9cc945828b70fb14),
    ("fig6", 0x505df1b581278f94),
];

const NODE_GOLDENS: &[(&str, u64)] = &[
    ("node d3 k10 cpu16 clean", 0x3edaadcc224c7bd7),
    ("node d3 k10 cpu16 launch+stall", 0x3edaadcc224c7bd7),
    ("node d3 k10 cpu16 straggler", 0x73bac45f8b62efbd),
    ("node d3 k10 gpu5 custom clean", 0xc5b89ef258bbf6c2),
    ("node d3 k10 gpu5 custom launch+stall", 0xe1cb42a8583df472),
    ("node d3 k10 gpu5 custom straggler", 0x1f29b3a923e467b7),
    ("node d3 k10 hybrid custom clean", 0x2f58933625dddc1f),
    ("node d3 k10 hybrid custom launch+stall", 0x803a6e9e1af79d13),
    ("node d3 k10 hybrid custom straggler", 0xd7e94f30ffc4fca2),
    ("node d3 k10 adaptive custom clean", 0x413c5468f52dab13),
    (
        "node d3 k10 adaptive custom launch+stall",
        0x27ab64119ea8a30d,
    ),
    ("node d3 k10 adaptive custom straggler", 0x0e0f039ce6cbf351),
    ("node d3 k10 gpu5 cublas clean", 0xd81063d30f7b69a9),
    ("node d3 k10 gpu5 cublas launch+stall", 0x9f7197ca48147d1d),
    ("node d3 k10 gpu5 cublas straggler", 0x7fa8ab2d052b6a31),
    ("node d3 k10 hybrid cublas clean", 0xb576c2655ae85695),
    ("node d3 k10 hybrid cublas launch+stall", 0x7f15aed8bb54eaba),
    ("node d3 k10 hybrid cublas straggler", 0x36ee3ad4985aba1a),
    ("node d3 k10 adaptive cublas clean", 0x4c1872aa3461e105),
    (
        "node d3 k10 adaptive cublas launch+stall",
        0xe6b72dccc62c74f5,
    ),
    ("node d3 k10 adaptive cublas straggler", 0xf2a1b98522f82ae1),
    ("node d3 k20 cpu16 clean", 0xc794e92320a374fa),
    ("node d3 k20 cpu16 launch+stall", 0xc794e92320a374fa),
    ("node d3 k20 cpu16 straggler", 0x68399c87749964b3),
    ("node d3 k20 gpu5 custom clean", 0x41d8b7aa713e0fd4),
    ("node d3 k20 gpu5 custom launch+stall", 0x5a02791151b474d8),
    ("node d3 k20 gpu5 custom straggler", 0x77125432badce19a),
    ("node d3 k20 hybrid custom clean", 0x690ffbec20d9e88f),
    ("node d3 k20 hybrid custom launch+stall", 0x34d6666f0018bf46),
    ("node d3 k20 hybrid custom straggler", 0x4f4a1e0914544079),
    ("node d3 k20 adaptive custom clean", 0x6e96a22e2db7f4c2),
    (
        "node d3 k20 adaptive custom launch+stall",
        0xa95160a0c3cc2d15,
    ),
    ("node d3 k20 adaptive custom straggler", 0x03dedbd6ac5bdd1f),
    ("node d3 k20 gpu5 cublas clean", 0xc33d671fc104b6e5),
    ("node d3 k20 gpu5 cublas launch+stall", 0x8d85abe273ed3736),
    ("node d3 k20 gpu5 cublas straggler", 0xabde4220080487d6),
    ("node d3 k20 hybrid cublas clean", 0xee9c07d4de83b4c5),
    ("node d3 k20 hybrid cublas launch+stall", 0xa76a88ef078c601f),
    ("node d3 k20 hybrid cublas straggler", 0xd707b0d267c56c5a),
    ("node d3 k20 adaptive cublas clean", 0xdc55c8ea6ba659a0),
    (
        "node d3 k20 adaptive cublas launch+stall",
        0x86868bed0f0fb657,
    ),
    ("node d3 k20 adaptive cublas straggler", 0xa3efbbaea32388af),
    ("node d4 k14 rr6 cpu16 clean", 0x4200ba371be613b1),
    ("node d4 k14 rr6 cpu16 launch+stall", 0x4200ba371be613b1),
    ("node d4 k14 rr6 cpu16 straggler", 0x48f12dc6804a4cce),
    ("node d4 k14 rr6 gpu5 custom clean", 0x163de226667c8828),
    (
        "node d4 k14 rr6 gpu5 custom launch+stall",
        0x598adb04dd944353,
    ),
    ("node d4 k14 rr6 gpu5 custom straggler", 0x30060c29f54b67dc),
    ("node d4 k14 rr6 hybrid custom clean", 0x68b087ec365cefbb),
    (
        "node d4 k14 rr6 hybrid custom launch+stall",
        0x051639d83573600e,
    ),
    (
        "node d4 k14 rr6 hybrid custom straggler",
        0x993cc584de0ffb5e,
    ),
    ("node d4 k14 rr6 adaptive custom clean", 0xdee64bb7e213067d),
    (
        "node d4 k14 rr6 adaptive custom launch+stall",
        0xaf7e0195fc9c6a8f,
    ),
    (
        "node d4 k14 rr6 adaptive custom straggler",
        0xc20d3e164bc23b97,
    ),
    ("node d4 k14 rr6 gpu5 cublas clean", 0x913e872fb34500f3),
    (
        "node d4 k14 rr6 gpu5 cublas launch+stall",
        0x24421ca8cf4342f4,
    ),
    ("node d4 k14 rr6 gpu5 cublas straggler", 0x1703295f53928dac),
    ("node d4 k14 rr6 hybrid cublas clean", 0x5eaa45936ddfba3d),
    (
        "node d4 k14 rr6 hybrid cublas launch+stall",
        0xe9d36a5b56727d3b,
    ),
    (
        "node d4 k14 rr6 hybrid cublas straggler",
        0xfd0d9bb14e6e840c,
    ),
    ("node d4 k14 rr6 adaptive cublas clean", 0x55de50daceb5bffa),
    (
        "node d4 k14 rr6 adaptive cublas launch+stall",
        0x05f42db8bcee452f,
    ),
    (
        "node d4 k14 rr6 adaptive cublas straggler",
        0x4c9023ced27abe8e,
    ),
    ("traced 6GB d3 k10", 0xff9612c49f37efa1),
    ("traced 6GB d3 k20", 0xeccab3e14d681a7f),
    ("traced 6GB d4 k14 rr6", 0x3d03d6a96a3dc080),
    ("traced 100kB d3 k10", 0x67beff9662547d8e),
    ("traced 100kB d3 k20", 0xe7dc23d76a6c5aaa),
    ("traced 100kB d4 k14 rr6", 0xf118b02539aa3c78),
];

const RECOVERY_GOLDENS: &[(&str, u64)] = &[
    ("recovery d3 k10 gpu5 custom launch20", 0xbfbf91dcfacbb181),
    (
        "recovery d3 k10 gpu5 custom lost@clean/3",
        0x3c009746b082177a,
    ),
    ("recovery d3 k10 gpu5 custom transfer30", 0xd134331f217bc2ce),
    (
        "recovery d3 k10 gpu5 custom launch20 windowed",
        0x5eaff982b3407457,
    ),
    ("recovery d3 k10 hybrid custom launch20", 0xa3c8b13f33ecb231),
    (
        "recovery d3 k10 hybrid custom lost@clean/3",
        0x5d5e8626c29c30e9,
    ),
    (
        "recovery d3 k10 hybrid custom transfer30",
        0xda6ac9a541749118,
    ),
    (
        "recovery d3 k10 hybrid custom launch20 windowed",
        0x66bf5751e226c3e6,
    ),
    (
        "recovery d3 k10 adaptive custom launch20",
        0xf1121767b95717bc,
    ),
    (
        "recovery d3 k10 adaptive custom lost@clean/3",
        0x1f475dffd264d9de,
    ),
    (
        "recovery d3 k10 adaptive custom transfer30",
        0x95cc55e3e3b20139,
    ),
    (
        "recovery d3 k10 adaptive custom launch20 windowed",
        0x88da1d8e68facf2a,
    ),
    (
        "traced recovery d3 k10 gpu5 custom launch20",
        0xa51f0d946a976f40,
    ),
    (
        "traced recovery d3 k10 adaptive custom launch20",
        0xab114756e392ff32,
    ),
];
