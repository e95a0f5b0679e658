//! Cross-commit golden pins for the real (Full-fidelity) batched Apply
//! (ISSUE 16), on the `engine_goldens.rs` recipe.
//!
//! `apply_equivalence.rs` compares the batched pipeline to the walk
//! within a tolerance; it cannot see a rewrite that reorders the
//! accumulation (different low bits) or moves a task between the CPU and
//! the device (different `device_cache`). These constants were captured
//! on the commit *before* the per-batch fork-join became the
//! asynchronous spawn-per-chunk pipeline: every result coefficient bit
//! and every deterministic `ApplyStats` field of `Cpu`, `Gpu` and
//! `Hybrid` at three batch sizes, in 3-D and 4-D, plus the rank-reduced
//! CPU path. They must hold under any executor width, including
//! `RAYON_NUM_THREADS=1` (every chunk inline on the dispatcher).
//!
//! `Adaptive`'s split is fed by wall-clock samples, so it has no golden
//! hash; it is pinned by task accounting here and by
//! `apply_equivalence.rs` against the walk.
//!
//! A change that *means* to move these regenerates the table with
//!
//! ```bash
//! cargo test --test apply_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and says why in its PR.

use madness::core::apply::{apply_batched, ApplyConfig, ApplyResource, ApplyStats};
use madness::core::coulomb::CoulombApp;
use madness::core::tdse::TdseApp;
use madness::gpusim::KernelKind;
use madness::mra::convolution::SeparatedConvolution;
use madness::mra::tree::FunctionTree;
use madness::runtime::BatcherConfig;

/// `(scenario, FNV-1a of the result coefficients, pinned stats)`.
type Golden = (String, u64, String);

/// FNV-1a over every coefficient's bit pattern, nodes in `sorted_keys()`
/// order; a coefficient-less node contributes a marker byte so presence
/// is pinned too.
fn tree_hash(tree: &FunctionTree) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    };
    for key in tree.sorted_keys() {
        match tree.get(&key).and_then(|node| node.coeffs.as_ref()) {
            Some(t) => {
                eat(&[1]);
                for x in t.as_slice() {
                    eat(&x.to_bits().to_le_bytes());
                }
            }
            None => eat(&[0]),
        }
    }
    h
}

/// The `ApplyStats` fields that do not depend on the operator's
/// lifetime-cumulative host cache.
fn pinned(stats: &ApplyStats) -> String {
    format!(
        "tasks={} batches={} cpu={} gpu={} device_cache={:?}",
        stats.tasks, stats.batches, stats.cpu_tasks, stats.gpu_tasks, stats.device_cache
    )
}

fn config(resource: ApplyResource, max_batch: usize, eps: Option<f64>) -> ApplyConfig {
    ApplyConfig {
        resource,
        batch: BatcherConfig {
            max_batch,
            ..BatcherConfig::default()
        },
        kernel: Some(KernelKind::CustomMtxmq),
        streams: 5,
        threads: 10,
        rank_reduce_eps: eps,
    }
}

fn scenarios(app: &str, op: &SeparatedConvolution, tree: &FunctionTree) -> Vec<Golden> {
    let mut out = Vec::new();
    let mut run = |name: String, cfg: ApplyConfig| {
        let (result, stats) = apply_batched(op, tree, &cfg);
        out.push((name, tree_hash(&result), pinned(&stats)));
    };
    for resource in [
        ApplyResource::Cpu,
        ApplyResource::Gpu,
        ApplyResource::Hybrid,
    ] {
        for max_batch in [1, 16, 60] {
            run(
                format!("{app} {resource:?} b{max_batch}"),
                config(resource, max_batch, None),
            );
        }
    }
    run(
        format!("{app} Cpu b16 rank-reduced"),
        config(ApplyResource::Cpu, 16, Some(1e-8)),
    );
    out
}

/// The `ApplyConfig` values the table above fixes (`kernel`, `streams`,
/// `threads`) or reaches only where they are inert (`rank_reduce_eps`),
/// one row each, captured before `apply_batched_recorded` became
/// `ApplyRun`. All `Hybrid` at `max_batch = 60`: at 16 every variant
/// rounds to one GPU task a batch and pins nothing.
fn variants(coulomb: &CoulombApp, tdse: &TdseApp) -> Vec<Golden> {
    let c = ("coulomb-d3", &coulomb.op, &coulomb.tree);
    let t = ("tdse-d4", &tdse.op, &tdse.tree);
    let hybrid = |eps| config(ApplyResource::Hybrid, 60, eps);
    let with_kernel = |kernel| ApplyConfig {
        kernel,
        ..hybrid(None)
    };
    let cublas = Some(KernelKind::CublasLike);
    let streams_2 = ApplyConfig {
        streams: 2,
        ..hybrid(None)
    };
    let threads_4 = ApplyConfig {
        threads: 4,
        ..hybrid(None)
    };
    let gpu_rr = config(ApplyResource::Gpu, 16, Some(1e-8));
    [
        (c, "Hybrid b60 cublas", with_kernel(cublas)),
        (c, "Hybrid b60 kernel-auto", with_kernel(None)),
        (t, "Hybrid b60 cublas", with_kernel(cublas)),
        (t, "Hybrid b60 kernel-auto", with_kernel(None)),
        (c, "Hybrid b60 streams-2", streams_2),
        (c, "Hybrid b60 threads-4", threads_4),
        (c, "Hybrid b60 rank-reduced", hybrid(Some(1e-8))),
        (c, "Gpu b16 rank-reduced", gpu_rr),
    ]
    .into_iter()
    .map(|((app, op, tree), row, cfg)| {
        let (result, stats) = apply_batched(op, tree, &cfg);
        (format!("{app} {row}"), tree_hash(&result), pinned(&stats))
    })
    .collect()
}

fn compute() -> Vec<Golden> {
    let coulomb = CoulombApp::small(5, 1e-4);
    let tdse = TdseApp::small(4, 4);
    let mut out = scenarios("coulomb-d3", &coulomb.op, &coulomb.tree);
    out.extend(scenarios("tdse-d4", &tdse.op, &tdse.tree));
    out.extend(variants(&coulomb, &tdse));
    out
}

#[rustfmt::skip]
const GOLDENS: &[(&str, u64, &str)] = &[
    ("coulomb-d3 Cpu b1", 0xc3f0d9dc29733c86, "tasks=21232 batches=21232 cpu=21232 gpu=0 device_cache=(0, 0, 0)"),
    ("coulomb-d3 Cpu b16", 0xc3f0d9dc29733c86, "tasks=21232 batches=1327 cpu=21232 gpu=0 device_cache=(0, 0, 0)"),
    ("coulomb-d3 Cpu b60", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=21232 gpu=0 device_cache=(0, 0, 0)"),
    ("coulomb-d3 Gpu b1", 0xc3f0d9dc29733c86, "tasks=21232 batches=21232 cpu=0 gpu=21232 device_cache=(2165460, 204, 0)"),
    ("coulomb-d3 Gpu b16", 0xc3f0d9dc29733c86, "tasks=21232 batches=1327 cpu=0 gpu=21232 device_cache=(2165460, 204, 0)"),
    ("coulomb-d3 Gpu b60", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=0 gpu=21232 device_cache=(2165460, 204, 0)"),
    ("coulomb-d3 Hybrid b1", 0xc3f0d9dc29733c86, "tasks=21232 batches=21232 cpu=21232 gpu=0 device_cache=(0, 0, 0)"),
    ("coulomb-d3 Hybrid b16", 0xc3f0d9dc29733c86, "tasks=21232 batches=1327 cpu=19905 gpu=1327 device_cache=(135150, 204, 0)"),
    ("coulomb-d3 Hybrid b60", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=19463 gpu=1769 device_cache=(180234, 204, 0)"),
    ("coulomb-d3 Cpu b16 rank-reduced", 0x87abd80f3e6e8e2d, "tasks=21232 batches=1327 cpu=21232 gpu=0 device_cache=(0, 0, 0)"),
    ("tdse-d4 Cpu b1", 0x7bd290132d7304a8, "tasks=1474 batches=1474 cpu=1474 gpu=0 device_cache=(0, 0, 0)"),
    ("tdse-d4 Cpu b16", 0x7bd290132d7304a8, "tasks=1474 batches=93 cpu=1474 gpu=0 device_cache=(0, 0, 0)"),
    ("tdse-d4 Cpu b60", 0x7bd290132d7304a8, "tasks=1474 batches=25 cpu=1474 gpu=0 device_cache=(0, 0, 0)"),
    ("tdse-d4 Gpu b1", 0x7bd290132d7304a8, "tasks=1474 batches=1474 cpu=0 gpu=1474 device_cache=(23560, 24, 0)"),
    ("tdse-d4 Gpu b16", 0x7bd290132d7304a8, "tasks=1474 batches=93 cpu=0 gpu=1474 device_cache=(23560, 24, 0)"),
    ("tdse-d4 Gpu b60", 0x7bd290132d7304a8, "tasks=1474 batches=25 cpu=0 gpu=1474 device_cache=(23560, 24, 0)"),
    ("tdse-d4 Hybrid b1", 0x7bd290132d7304a8, "tasks=1474 batches=1474 cpu=1474 gpu=0 device_cache=(0, 0, 0)"),
    ("tdse-d4 Hybrid b16", 0x7bd290132d7304a8, "tasks=1474 batches=93 cpu=1382 gpu=92 device_cache=(1448, 24, 0)"),
    ("tdse-d4 Hybrid b60", 0x7bd290132d7304a8, "tasks=1474 batches=25 cpu=1351 gpu=123 device_cache=(1944, 24, 0)"),
    ("tdse-d4 Cpu b16 rank-reduced", 0x7bd290132d7304a8, "tasks=1474 batches=93 cpu=1474 gpu=0 device_cache=(0, 0, 0)"),
    ("coulomb-d3 Hybrid b60 cublas", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=20524 gpu=708 device_cache=(72012, 204, 0)"),
    ("coulomb-d3 Hybrid b60 kernel-auto", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=19463 gpu=1769 device_cache=(180234, 204, 0)"),
    ("tdse-d4 Hybrid b60 cublas", 0x7bd290132d7304a8, "tasks=1474 batches=25 cpu=1424 gpu=50 device_cache=(776, 24, 0)"),
    ("tdse-d4 Hybrid b60 kernel-auto", 0x7bd290132d7304a8, "tasks=1474 batches=25 cpu=1424 gpu=50 device_cache=(776, 24, 0)"),
    ("coulomb-d3 Hybrid b60 streams-2", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=20524 gpu=708 device_cache=(72012, 204, 0)"),
    ("coulomb-d3 Hybrid b60 threads-4", 0xc3f0d9dc29733c86, "tasks=21232 batches=355 cpu=18401 gpu=2831 device_cache=(288558, 204, 0)"),
    ("coulomb-d3 Hybrid b60 rank-reduced", 0xd529a33186e77869, "tasks=21232 batches=355 cpu=20018 gpu=1214 device_cache=(123624, 204, 0)"),
    ("coulomb-d3 Gpu b16 rank-reduced", 0xc3f0d9dc29733c86, "tasks=21232 batches=1327 cpu=0 gpu=21232 device_cache=(2165460, 204, 0)"),
];

#[test]
fn batched_apply_matches_the_pre_pipeline_commit_bit_for_bit() {
    let got = compute();
    assert_eq!(got.len(), GOLDENS.len(), "scenario count moved");
    for ((name, hash, stats), (g_name, g_hash, g_stats)) in got.iter().zip(GOLDENS) {
        assert_eq!(name, g_name, "scenario order moved");
        assert_eq!(stats, g_stats, "{name}: ApplyStats moved");
        assert_eq!(
            hash, g_hash,
            "{name}: result coefficients differ from the golden commit"
        );
    }
}

/// What each [`variants`] row is there for, read off the constants (the
/// test above ties them to the code): the two `kernel: None` rows are
/// `KernelKind::auto_select`'s pick, the device never rank-reduces, and
/// every other variant moves the split away from its `CustomMtxmq`,
/// 5-stream, 10-thread, exact twin — a pin cannot go inert silently.
#[test]
fn variant_rows_pin_what_they_are_for() {
    let golden = |name: &str| {
        let row = GOLDENS.iter().find(|(g_name, ..)| *g_name == name);
        let (_, hash, stats) = row.unwrap_or_else(|| panic!("no golden row {name:?}"));
        (*hash, *stats)
    };
    for (auto, picked) in [
        ("coulomb-d3 Hybrid b60 kernel-auto", "coulomb-d3 Hybrid b60"),
        (
            "tdse-d4 Hybrid b60 kernel-auto",
            "tdse-d4 Hybrid b60 cublas",
        ),
        ("coulomb-d3 Gpu b16 rank-reduced", "coulomb-d3 Gpu b16"),
    ] {
        assert_eq!(golden(auto), golden(picked), "{auto} != {picked}");
    }
    for (variant, twin) in [
        ("coulomb-d3 Hybrid b60 cublas", "coulomb-d3 Hybrid b60"),
        ("tdse-d4 Hybrid b60 cublas", "tdse-d4 Hybrid b60"),
        ("coulomb-d3 Hybrid b60 streams-2", "coulomb-d3 Hybrid b60"),
        ("coulomb-d3 Hybrid b60 threads-4", "coulomb-d3 Hybrid b60"),
        (
            "coulomb-d3 Hybrid b60 rank-reduced",
            "coulomb-d3 Hybrid b60",
        ),
    ] {
        assert_ne!(golden(variant).1, golden(twin).1, "{variant} is inert");
    }
}

/// `Adaptive` has no stable split to hash; its accounting must still
/// close at every batch size.
#[test]
fn adaptive_accounts_for_every_task() {
    let app = TdseApp::small(4, 4);
    let (_, reference) = apply_batched(&app.op, &app.tree, &config(ApplyResource::Cpu, 16, None));
    for max_batch in [1, 16, 60] {
        let cfg = config(ApplyResource::Adaptive, max_batch, None);
        let (result, stats) = apply_batched(&app.op, &app.tree, &cfg);
        assert_eq!(stats.tasks, reference.tasks);
        assert_eq!(stats.cpu_tasks + stats.gpu_tasks, stats.tasks);
        assert!(stats.batches >= stats.tasks.div_ceil(max_batch as u64));
        result.check_invariants().expect("valid tree");
    }
}

#[test]
#[ignore = "prints the golden table; run on the commit whose numbers you mean to pin"]
fn print_goldens() {
    for (name, hash, stats) in compute() {
        println!("    ({name:?}, {hash:#018x}, {stats:?}),");
    }
}
