//! Property-based tests of the device model's monotonicity and
//! accounting invariants.

use madness_faults::{FaultInjector, FaultPlan};
use madness_gpusim::kernel::{execute_tasks, kernel_cost};
use madness_gpusim::{
    DeviceSpec, ExecMode, GpuDevice, HBlock, KernelKind, SimTime, TransformTask, TransformTerm,
};
use madness_tensor::{Shape, Tensor, TransformScratch};
use madness_trace::MemRecorder;
use proptest::prelude::*;
use std::sync::Arc;

fn kinds() -> impl Strategy<Value = KernelKind> {
    prop_oneof![Just(KernelKind::CustomMtxmq), Just(KernelKind::CublasLike)]
}

/// A batch for the run-sharing oracle: each `(pick, len)` is `len`
/// consecutive tasks on one of five term tables, chosen to hit every
/// way a run can begin, end or be refused.
fn run_batch(picks: &[(usize, usize)]) -> Vec<TransformTask> {
    let a = TransformTask::shape_only(3, 10, 7, 0);
    let b = TransformTask::shape_only_rr(3, 10, 5, 1, 4);
    let mut batch = Vec::new();
    for &(pick, len) in picks {
        let task = match pick {
            // One shared table: a run.
            0 => a.clone(),
            // Another shared table with other ids (and effective ranks).
            1 => b.clone(),
            // `a`'s ids behind a fresh allocation per pick: a new run.
            2 => TransformTask::shape_only(3, 10, 7, 0),
            // `a`'s allocation at another `k`: not `a`'s run.
            3 => TransformTask { k: 12, ..a.clone() },
            // A rank-0 table: a run with nothing to ask the cache.
            _ => TransformTask::shape_only(3, 10, 0, 2),
        };
        batch.extend(std::iter::repeat_n(task, len));
    }
    batch
}

/// Runs `batch` twice on one device (the second pass meets the cache
/// the first one left) and returns everything observable.
fn observe(
    batch: &[TransformTask],
    kind: KernelKind,
    streams: usize,
    mem: u64,
    plan: &FaultPlan,
) -> impl PartialEq + std::fmt::Debug {
    let mut dev = GpuDevice::new(
        DeviceSpec {
            device_mem_bytes: mem,
            ..DeviceSpec::default()
        },
        streams,
    );
    let mut inj = FaultInjector::new(plan);
    let mut rec = MemRecorder::new();
    let mut outcomes = Vec::new();
    for start in [SimTime::ZERO, SimTime::from_millis(500)] {
        let out =
            dev.execute_batch_injected(batch, kind, ExecMode::Timing, start, &mut rec, &mut inj);
        outcomes.push((out.time, out.breakdown, out.failed));
    }
    let cache = dev.cache();
    (
        outcomes,
        (cache.stats(), cache.bytes_used(), cache.len()),
        rec,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel cost is monotone in rank for both kernel kinds.
    #[test]
    fn cost_monotone_in_rank(kind in kinds(), k in 6usize..24, d in 3usize..5) {
        let spec = DeviceSpec::default();
        let mut prev = SimTime::ZERO;
        for rank in [1usize, 10, 50, 100] {
            let t = TransformTask::shape_only(d, k, rank, 0);
            let c = kernel_cost(&spec, kind, &t);
            prop_assert!(c.duration > prev, "{kind:?} rank {rank}");
            prev = c.duration;
        }
    }

    /// Throughput (FLOPs per second) is monotone non-decreasing in k for
    /// both kinds — bigger tiles always use the device at least as well.
    /// (Raw *duration* is not monotone for cuBLAS: a k=14 GEMM can finish
    /// as fast as a k=10 one because efficiency grows faster than work —
    /// real GPUs show the same behaviour on skinny GEMMs.)
    #[test]
    fn throughput_monotone_in_k(kind in kinds(), d in 3usize..5) {
        let spec = DeviceSpec::default();
        let mut prev = 0.0f64;
        for k in [6usize, 10, 14, 16] {
            let t = TransformTask::shape_only(d, k, 50, 0);
            let c = kernel_cost(&spec, kind, &t);
            let gflops = t.flops() as f64 / c.duration.as_secs_f64() / 1e9;
            prop_assert!(gflops >= prev * 0.999, "{kind:?} k {k}: {gflops} < {prev}");
            prev = gflops;
        }
    }

    /// Custom kernels launch once; cuBLAS launches M·d times; SM usage
    /// stays within the device.
    #[test]
    fn launch_and_sm_accounting(k in 6usize..30, rank in 1usize..120, d in 3usize..5) {
        let spec = DeviceSpec::default();
        let t = TransformTask::shape_only(d, k, rank, 0);
        let custom = kernel_cost(&spec, KernelKind::CustomMtxmq, &t);
        let cublas = kernel_cost(&spec, KernelKind::CublasLike, &t);
        prop_assert_eq!(custom.launches, 1);
        prop_assert_eq!(cublas.launches, (rank * d) as u64);
        prop_assert!(custom.sms_used >= 2 && custom.sms_used <= 3);
        prop_assert!(cublas.sms_used >= 1 && cublas.sms_used <= spec.num_sms);
    }

    /// Batch time is superadditive-ish: a bigger batch never runs faster,
    /// and never slower than proportionally (cache warm-up only helps).
    #[test]
    fn batch_time_monotone(kind in kinds(), n1 in 1usize..40, extra in 1usize..40) {
        let mk = |n: usize| -> SimTime {
            let mut dev = GpuDevice::new(DeviceSpec::default(), 5);
            let tasks: Vec<TransformTask> = (0..n)
                .map(|_| TransformTask::shape_only(3, 10, 20, 0))
                .collect();
            dev.execute_batch(&tasks, kind, ExecMode::Timing).time
        };
        let small = mk(n1);
        let big = mk(n1 + extra);
        prop_assert!(big >= small, "{kind:?}: {big} < {small}");
    }

    /// Device cache accounting: bytes_used equals blocks × block size,
    /// hits + misses equals block references.
    #[test]
    fn cache_accounting(n_tasks in 1usize..20, rank in 1usize..30) {
        let mut dev = GpuDevice::new(DeviceSpec::default(), 5);
        let tasks: Vec<TransformTask> = (0..n_tasks)
            .map(|_| TransformTask::shape_only(3, 10, rank, 0))
            .collect();
        dev.execute_batch(&tasks, KernelKind::CustomMtxmq, ExecMode::Timing);
        let (hits, misses, evictions) = dev.cache().stats();
        prop_assert_eq!(evictions, 0);
        prop_assert_eq!(hits + misses, (n_tasks * rank * 3) as u64);
        prop_assert_eq!(misses as usize, dev.cache().len());
        prop_assert_eq!(dev.cache().bytes_used(), misses * 800);
    }

    /// Sharing-blind oracle for the device's run detection: a batch must
    /// behave exactly like a copy whose every task owns a deep clone of
    /// its term table (no two tasks share an allocation, so every run
    /// has length 1 and every task walks the cache and prices its own
    /// kernel) — outcome, cache state and journal, under tight device
    /// memory and launch faults included.
    #[test]
    fn run_sharing_is_unobservable(
        picks in proptest::collection::vec((0usize..5, 1usize..6), 1..8),
        kind in kinds(),
        streams in 1usize..7,
        // 6 GB; 10 blocks (no table fits: a task evicts its own
        // blocks); 21 blocks and change (table `a` fits alone, not
        // beside another); 40 blocks (any two tables, not three).
        mem in prop_oneof![Just(6u64 << 30), Just(8_000u64), Just(17_000u64), Just(32_000u64)],
        fault in (any::<u64>(), prop_oneof![Just(0.0f64), Just(0.25f64)]),
    ) {
        let (seed, launch_fail_rate) = fault;
        let plan = FaultPlan::seeded(seed)
            .with_launch_fail_rate(launch_fail_rate)
            .with_stream_stalls(launch_fail_rate, 40_000);
        let shared = run_batch(&picks);
        let unshared: Vec<TransformTask> = shared
            .iter()
            .map(|t| TransformTask {
                terms: Arc::new(t.terms.as_ref().clone()),
                ..t.clone()
            })
            .collect();
        prop_assert_eq!(
            observe(&shared, kind, streams, mem, &plan),
            observe(&unshared, kind, streams, mem, &plan)
        );
    }

    /// Full-fidelity execution is linear: executing a task with doubled
    /// coefficients doubles the result.
    #[test]
    fn execution_linear_in_coeffs(k in 2usize..6, c1 in -3.0f64..3.0) {
        let s = Arc::new(Tensor::from_fn(Shape::cube(3, k), |ix| {
            (ix[0] + 2 * ix[1]) as f64 - ix[2] as f64 * 0.5
        }));
        let h = Arc::new(Tensor::from_fn(Shape::matrix(k, k), |ix| {
            ((ix[0] * 3 + ix[1]) as f64).cos()
        }));
        let mk = |coeff: f64| TransformTask {
            d: 3,
            k,
            s: Some(Arc::clone(&s)),
            terms: Arc::new(vec![TransformTerm {
                coeff,
                hs: (0..3).map(|i| HBlock::new(i as u64, Arc::clone(&h))).collect(),
                effective_ranks: None,
            }]),
        };
        let mut scratch = TransformScratch::new();
        let r = execute_tasks(&[mk(c1), mk(2.0 * c1)], false, &mut scratch);
        let want = &r[0] * 2.0;
        prop_assert!(r[1].distance(&want) < 1e-9 * (1.0 + want.normf()));
    }

    /// SimTime arithmetic respects ordering.
    #[test]
    fn simtime_algebra(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert_eq!((ta + tb).as_nanos(), a + b);
        prop_assert_eq!(ta.max(tb).as_nanos(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_nanos(), a.min(b));
        prop_assert_eq!(ta.saturating_sub(tb).as_nanos(), a.saturating_sub(b));
    }
}

/// Pinned replay of the committed regression `cc 4b9a69…`, which shrank
/// `throughput_monotone_in_k` to `kind = CublasLike, d = 3`.
///
/// Diagnosis: with the skinny-GEMM efficiency clamp
/// (`DeviceSpec::cublas_gemm`'s `(kk/32).min(1.0)` factor) and the
/// inner-dimension throughput ceiling in place, cuBLAS-like throughput
/// is monotone over the whole 3-D range — a sweep of k = 2..40 shows the
/// only remaining non-monotonicity in either kernel model is the
/// *intended* custom-kernel register-spill cliff at d = 3, k = 20, which
/// `KernelKind::auto_select` steps around by switching to cuBLAS at
/// k ≥ 18 (the paper's "regime in which cuBLAS performs well"). This
/// test pins the minimized case so the offline proptest shim (which
/// cannot replay upstream `cc` seeds) keeps enforcing it.
#[test]
fn regression_4b9a69_cublas_throughput_monotone_d3() {
    let spec = DeviceSpec::default();
    let kind = KernelKind::CublasLike;
    let d = 3usize;
    let mut prev = 0.0f64;
    for k in [6usize, 10, 14, 16] {
        let t = TransformTask::shape_only(d, k, 50, 0);
        let c = kernel_cost(&spec, kind, &t);
        let gflops = t.flops() as f64 / c.duration.as_secs_f64() / 1e9;
        assert!(gflops >= prev * 0.999, "{kind:?} k {k}: {gflops} < {prev}");
        prev = gflops;
    }
}

/// The crossover the spill cliff forces: by k = 20 in 3-D, the custom
/// kernel's working set spills and cuBLAS overtakes it — exactly the
/// regime split `auto_select` encodes.
#[test]
fn cublas_overtakes_custom_at_3d_spill_cliff() {
    let spec = DeviceSpec::default();
    let per_kind = |kind: KernelKind, k: usize| {
        let t = TransformTask::shape_only(3, k, 50, 0);
        let c = kernel_cost(&spec, kind, &t);
        t.flops() as f64 / c.duration.as_secs_f64() / 1e9
    };
    // Below the cliff the custom kernel wins …
    assert!(per_kind(KernelKind::CustomMtxmq, 14) > per_kind(KernelKind::CublasLike, 14));
    // … above it cuBLAS does, and auto_select agrees on both sides.
    assert!(per_kind(KernelKind::CublasLike, 20) > per_kind(KernelKind::CustomMtxmq, 20));
    assert_eq!(KernelKind::auto_select(3, 14), KernelKind::CustomMtxmq);
    assert_eq!(KernelKind::auto_select(3, 20), KernelKind::CublasLike);
}
