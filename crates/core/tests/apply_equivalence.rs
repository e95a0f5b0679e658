//! End-to-end equivalence of the Apply implementations.
//!
//! The paper's whole point is that restructuring the control flow
//! (batching, splitting across CPU and GPU) changes *performance*, never
//! *answers*. These tests pin that down: Algorithm 1 (reference walk) and
//! Algorithms 3–6 (batched pipeline) on every resource produce the same
//! coefficient tree — an exact run's distance to the walk is exactly 0.
//! Only rank reduction, which the walk does not do, gets a tolerance.

use madness_core::apply::{
    apply_batched, apply_batched_recorded, apply_cpu_reference, ApplyConfig, ApplyResource,
};
use madness_core::coulomb::CoulombApp;
use madness_core::tdse::TdseApp;
use madness_gpusim::KernelKind;
use madness_mra::tree::FunctionTree;
use madness_runtime::BatcherConfig;
use madness_trace::MemRecorder;

fn tree_distance(a: &FunctionTree, b: &FunctionTree) -> f64 {
    let mut worst: f64 = 0.0;
    assert_eq!(a.len(), b.len(), "trees differ in node count");
    for (key, node) in a.iter() {
        let other = b.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
        match (&node.coeffs, &other.coeffs) {
            (Some(x), Some(y)) => worst = worst.max(x.distance(y)),
            (None, None) => {}
            _ => panic!("coefficient presence differs at {key:?}"),
        }
    }
    worst
}

fn config(resource: ApplyResource, kernel: KernelKind) -> ApplyConfig {
    ApplyConfig {
        resource,
        batch: BatcherConfig {
            max_batch: 16,
            ..BatcherConfig::default()
        },
        kernel: Some(kernel),
        streams: 5,
        threads: 10,
        rank_reduce_eps: None,
    }
}

#[test]
fn batched_cpu_matches_reference() {
    let app = CoulombApp::small(5, 1e-4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let (batched, stats) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Cpu, KernelKind::CustomMtxmq),
    );
    assert!(stats.tasks > 0);
    assert_eq!(stats.gpu_tasks, 0);
    let d = tree_distance(&reference, &batched);
    assert_eq!(d, 0.0, "CPU-batched diverged by {d:e}");
}

#[test]
fn batched_gpu_matches_reference() {
    let app = CoulombApp::small(5, 1e-4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let (batched, stats) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Gpu, KernelKind::CustomMtxmq),
    );
    assert_eq!(stats.cpu_tasks, 0);
    assert!(stats.gpu_tasks > 0);
    let d = tree_distance(&reference, &batched);
    assert_eq!(d, 0.0, "GPU-batched diverged by {d:e}");
}

#[test]
fn hybrid_matches_reference_and_uses_both_sides() {
    let app = CoulombApp::small(5, 1e-4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let (batched, stats) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Hybrid, KernelKind::CustomMtxmq),
    );
    assert!(stats.cpu_tasks > 0, "dispatcher starved the CPU");
    assert!(stats.gpu_tasks > 0, "dispatcher starved the GPU");
    let d = tree_distance(&reference, &batched);
    assert_eq!(d, 0.0, "hybrid diverged by {d:e}");
}

#[test]
fn adaptive_matches_reference_and_journals_its_trajectory() {
    let app = CoulombApp::small(5, 1e-4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let mut rec = MemRecorder::new();
    let (batched, stats) = apply_batched_recorded(
        &app.op,
        &app.tree,
        &config(ApplyResource::Adaptive, KernelKind::CustomMtxmq),
        &mut rec,
    );
    // Correctness is split-independent: whatever trajectory the learned
    // dispatcher takes, the tree must match the reference walk.
    let d = tree_distance(&reference, &batched);
    assert_eq!(d, 0.0, "adaptive diverged by {d:e}");
    assert_eq!(stats.cpu_tasks + stats.gpu_tasks, stats.tasks);
    assert!(stats.cpu_tasks > 0, "probe phase guarantees CPU samples");
    assert!(stats.gpu_tasks > 0, "probe phase guarantees GPU samples");

    // One dispatch sample per flushed batch, starting in probe state,
    // every k in range.
    let history = rec.metrics().dispatch_history();
    assert_eq!(history.len() as u64, stats.batches);
    assert!(history.first().expect("at least one flush").probe);
    assert!(history.iter().all(|s| (0.0..=1.0).contains(&s.k)));
    // Once steady, the model must hold real (floored-positive) estimates.
    if let Some(steady) = history.iter().find(|s| !s.probe) {
        assert!(steady.m_hat_ns > 0.0 && steady.n_hat_ns > 0.0);
    }
}

#[test]
fn cublas_and_custom_kernels_agree_bitwise_on_results() {
    let app = CoulombApp::small(4, 1e-3);
    let (a, _) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Gpu, KernelKind::CustomMtxmq),
    );
    let (b, _) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Gpu, KernelKind::CublasLike),
    );
    assert_eq!(tree_distance(&a, &b), 0.0, "kernel kind changed numerics");
}

#[test]
fn rank_reduction_approximates_within_epsilon() {
    let app = CoulombApp::small(6, 1e-4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let mut cfg = config(ApplyResource::Cpu, KernelKind::CustomMtxmq);
    cfg.rank_reduce_eps = Some(1e-8);
    let (rr, _) = apply_batched(&app.op, &app.tree, &cfg);
    let d = tree_distance(&reference, &rr);
    let norm = reference.norm();
    assert!(d > 0.0, "rank reduction should perturb results slightly");
    assert!(
        d < 1e-4 * (1.0 + norm),
        "rank reduction error {d:e} too large vs norm {norm:e}"
    );
}

#[test]
fn device_cache_hits_dominate_after_warmup() {
    let app = CoulombApp::small(5, 1e-4);
    let (_, stats) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Gpu, KernelKind::CustomMtxmq),
    );
    let (hits, misses, evictions) = stats.device_cache;
    assert!(misses > 0);
    assert!(
        hits > 3 * misses,
        "write-once cache ineffective: {hits} hits / {misses} misses"
    );
    assert_eq!(evictions, 0, "6 GB must not evict at this scale");
}

#[test]
fn four_dimensional_apply_agrees() {
    let app = TdseApp::small(4, 4);
    let reference = apply_cpu_reference(&app.op, &app.tree);
    let (batched, stats) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Hybrid, KernelKind::CublasLike),
    );
    assert!(stats.tasks > 0);
    let d = tree_distance(&reference, &batched);
    assert_eq!(d, 0.0, "4-D hybrid diverged by {d:e}");
}

#[test]
fn result_tree_is_structurally_valid() {
    let app = CoulombApp::small(5, 1e-4);
    let (result, _) = apply_batched(
        &app.op,
        &app.tree,
        &config(ApplyResource::Hybrid, KernelKind::CustomMtxmq),
    );
    result.check_invariants().expect("valid tree");
    // After sum_down no interior node holds coefficients.
    for (key, node) in result.iter() {
        if !node.is_leaf() {
            assert!(node.coeffs.is_none(), "interior coeffs at {key:?}");
        }
    }
    assert!(result.norm() > 0.0);
}
