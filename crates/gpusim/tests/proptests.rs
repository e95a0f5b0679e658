//! Property-based tests of the device model's monotonicity and
//! accounting invariants.

use madness_faults::{
    FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, TaskError, Trigger,
};
use madness_gpusim::kernel::{execute_tasks, kernel_cost, KernelCost};
use madness_gpusim::{
    CostBreakdown, DeviceHCache, DeviceSpec, ExecMode, GpuDevice, HBlock, KernelKind, SimTime,
    TransferEngine, TransformTask, TransformTerm,
};
use madness_tensor::{Shape, Tensor, TransformScratch};
use madness_trace::{Event, MemRecorder, NullRecorder, Point, Recorder, Stage};
use proptest::prelude::*;
use std::sync::Arc;

fn kinds() -> impl Strategy<Value = KernelKind> {
    prop_oneof![Just(KernelKind::CustomMtxmq), Just(KernelKind::CublasLike)]
}

/// A batch for the run-sharing oracle: each `(pick, len)` is `len`
/// consecutive tasks on one of five term tables, chosen to hit every
/// way a run can begin, end or be refused. Batches built on the same
/// `a` and `b` share those two tables, as a device's flushes do.
fn run_batch(a: &TransformTask, b: &TransformTask, picks: &[(usize, usize)]) -> Vec<TransformTask> {
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

/// `batch` with every task's term table deep-cloned into an allocation
/// of its own.
fn unshared(batch: &[TransformTask]) -> Vec<TransformTask> {
    batch
        .iter()
        .map(|t| TransformTask {
            terms: Arc::new(t.terms.as_ref().clone()),
            ..t.clone()
        })
        .collect()
}

/// A device with `mem` bytes of memory and `streams` streams.
fn device_with(mem: u64, streams: usize) -> GpuDevice {
    GpuDevice::new(
        DeviceSpec {
            device_mem_bytes: mem,
            ..DeviceSpec::default()
        },
        streams,
    )
}

/// Runs the batches in turn on `dev`, each `prepare`d just before it
/// runs and after its drawn step (2: `reset()`, 3: `revive()`, else
/// nothing), so each meets the cache the ones before it left; returns
/// everything observable.
fn observe(
    mut dev: GpuDevice,
    steps: &[(u8, Vec<TransformTask>)],
    prepare: fn(&[TransformTask]) -> Vec<TransformTask>,
    kind: KernelKind,
    plan: &FaultPlan,
) -> impl PartialEq + std::fmt::Debug {
    let mut inj = FaultInjector::new(plan);
    let mut rec = MemRecorder::new();
    let mut outcomes = Vec::new();
    for (i, (step, batch)) in steps.iter().enumerate() {
        match step {
            2 => dev.reset(),
            3 => dev.revive(),
            _ => {}
        }
        let start = SimTime::from_millis(500 * i as u64);
        let out = dev.execute_batch_injected(
            &prepare(batch),
            kind,
            ExecMode::Timing,
            start,
            &mut rec,
            &mut inj,
        );
        let cache = dev.cache();
        outcomes.push((
            out.time,
            out.breakdown,
            out.failed,
            cache.stats(),
            cache.bytes_used(),
            cache.len(),
        ));
    }
    (outcomes, rec)
}

/// The device's batch path as it ran before it booked kernels a run at a
/// time: every task walks the cache, prices its kernel, draws its launch
/// and takes the earliest stream (the lowest index of a tie) on its own.
/// Timing fidelity, pinned buffers; the plans it meets draw no device
/// loss.
struct PerTask {
    spec: DeviceSpec,
    engine: TransferEngine,
    cache: DeviceHCache,
    streams: usize,
}

/// Journals a fault the injector fired, as the device does.
fn injected(rec: &mut MemRecorder, kind: FaultKind, at_ns: u64, tasks: usize) {
    rec.record(Event::Fault(FaultEvent {
        kind,
        action: FaultAction::Injected,
        at_ns,
        tasks: tasks as u64,
    }));
}

impl PerTask {
    fn new(spec: DeviceSpec, streams: usize) -> Self {
        PerTask {
            engine: TransferEngine::new(&spec),
            cache: DeviceHCache::new(spec.device_mem_bytes),
            streams,
            spec,
        }
    }

    /// One batch: its time, breakdown and failed tasks.
    fn execute(
        &mut self,
        tasks: &[TransformTask],
        kind: KernelKind,
        batch_start: SimTime,
        rec: &mut MemRecorder,
        inj: &mut FaultInjector,
    ) -> (SimTime, CostBreakdown, Vec<(usize, TaskError)>) {
        let mut br = CostBreakdown::default();
        let (t0, n) = (batch_start.as_nanos(), tasks.len());
        br.bytes_s = tasks.iter().map(TransformTask::s_bytes).sum();
        br.transfer_in_s = self.engine.transfer_time(br.bytes_s, true);
        let (hits0, misses0, evictions0) = self.cache.stats();
        let mut costs: Vec<KernelCost> = Vec::new();
        for t in tasks {
            br.bytes_h += self.cache.ensure_batch(t.h_ids(), t.h_block_bytes());
            costs.push(kernel_cost(&self.spec, kind, t));
        }
        br.transfer_in_h = self.engine.transfer_time(br.bytes_h, true);
        if inj.transfer(t0).is_some() {
            injected(rec, FaultKind::TransferTimeout, t0, n);
            br.transfer_in_s = br.transfer_in_s * 2;
            br.transfer_in_h = br.transfer_in_h * 2;
            if inj.transfer(t0).is_some() {
                injected(rec, FaultKind::TransferTimeout, t0, n);
                let failed = (0..n).map(|i| (i, TaskError::TransferTimedOut)).collect();
                return (br.transfer_in_s + br.transfer_in_h, br, failed);
            }
        }
        let (hits, misses, evictions) = self.cache.stats();
        for (stage, counter, n) in [
            (Stage::CacheHit, "cache_hit", hits - hits0),
            (Stage::CacheMiss, "cache_miss", misses - misses0),
            (Stage::CacheEvict, "cache_evict", evictions - evictions0),
        ] {
            if n > 0 {
                rec.record(Event::Count(counter, n));
                rec.record(Event::Point(Point {
                    stage,
                    at_ns: t0,
                    value: n,
                }));
            }
        }
        let tin = br.transfer_in_s + br.transfer_in_h;
        rec.span(Stage::Transfer, t0, t0 + tin.as_nanos(), 0);
        rec.record(Event::Count("bytes_h2d", br.bytes_s + br.bytes_h));

        let sms = costs.iter().map(|c| c.sms_used).max().unwrap_or(1);
        let lanes = (self.spec.num_sms / sms).max(1).min(self.streams);
        let compute_begin = t0 + tin.as_nanos();
        let mut failed = Vec::new();
        let mut lane_load = vec![SimTime::ZERO; lanes];
        for (i, c) in costs.iter().enumerate() {
            if let Some(err) = inj.kernel_launch(compute_begin) {
                failed.push((i, err));
                continue;
            }
            br.launches += c.launches;
            let (idx, _) = lane_load
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| **l)
                .unwrap();
            let start = compute_begin + lane_load[idx].as_nanos();
            let end = start + c.duration.as_nanos();
            rec.span(Stage::KernelLaunch, start, end, idx as u32);
            lane_load[idx] += c.duration;
        }
        if !failed.is_empty() {
            injected(
                rec,
                FaultKind::KernelLaunchFail,
                compute_begin,
                failed.len(),
            );
        }
        rec.record(Event::Count("kernel_launches", br.launches));
        for (idx, load) in lane_load.iter().enumerate() {
            rec.record(Event::Count(
                &format!("stream_busy_ns.{idx}"),
                load.as_nanos(),
            ));
        }
        br.compute = lane_load.into_iter().max().unwrap();
        if let Some(stall_ns) = inj.stream_stall(compute_begin) {
            injected(rec, FaultKind::StreamStall, compute_begin, n);
            br.compute += SimTime::from_nanos(stall_ns);
        }
        let launched = |i: usize| !failed.iter().any(|&(j, _)| j == i);
        br.bytes_out = (0..n)
            .filter(|&i| launched(i))
            .map(|i| tasks[i].s_bytes())
            .sum();
        br.transfer_out = self.engine.transfer_time(br.bytes_out, true);
        let out_begin = compute_begin + br.compute.as_nanos();
        rec.span(
            Stage::Transfer,
            out_begin,
            out_begin + br.transfer_out.as_nanos(),
            0,
        );
        rec.record(Event::Count("bytes_d2h", br.bytes_out));
        (br.total(), br, failed)
    }
}

/// Batches start this far apart, so a fault window or an `AtTime`
/// trigger can fall before, inside or after any of them.
const BATCH_GAP_NS: u64 = 3_000_000;

/// The fault plan `kind` draws: none (0), a launch rate (1), the rate in
/// a window over some of the batches (2), one to three `AtCount` launch
/// injections among the first `tasks` launches (3), an `AtTime` launch
/// injection (4); each with transfer timeouts and stream stalls on a
/// rate when `dma` / `stall`.
fn closed_form_plan(
    (kind, seed, rate, at, dma, stall): (u8, u64, f64, u64, bool, bool),
    tasks: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    let span = 4 * BATCH_GAP_NS;
    match kind {
        1 => plan = plan.with_launch_fail_rate(rate),
        2 => {
            let start = at % span;
            plan = plan
                .with_launch_fail_rate(rate)
                .with_window(start, start + BATCH_GAP_NS);
        }
        3 => {
            for j in 0..=at % 3 {
                let count = (at >> (16 * j + 2)) % tasks;
                plan = plan.with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(count));
            }
        }
        4 => {
            plan = plan.with_injection(FaultKind::KernelLaunchFail, Trigger::AtTime(at % span));
        }
        _ => {}
    }
    if dma {
        plan = plan.with_transfer_timeout_rate(0.3);
    }
    if stall {
        plan = plan.with_stream_stalls(0.3, 40_000);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The device books a batch's kernels a run at a time: one launch
    /// query for a run no launch of which can fail, one stream booking
    /// (`serve_many`) for each unbroken stretch of launched tasks, the
    /// bytes a shape times its run. Against the per-task loop above,
    /// over 1–4 batches in turn on one device and one injector, every
    /// batch's time, breakdown and failed tasks, the cache after each,
    /// the whole journal and the injector's next launch draws must
    /// agree — for runs on two term tables at two shapes, interleaved,
    /// 1–16 streams, both kernel kinds, and launch faults by rate, in a
    /// window, by count and by time, with transfer timeouts and stalls.
    #[test]
    fn closed_form_batches_are_the_per_task_loop(
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..2, 0usize..2, 1usize..41), 1..5),
            1..5,
        ),
        kind in kinds(),
        streams in 1usize..17,
        fault in ((0u8..5, 0u8..4), any::<u64>(), 0.0f64..0.3, any::<u64>()),
    ) {
        let tables = [
            TransformTask::shape_only(3, 10, 4, 0),
            TransformTask::shape_only(3, 10, 3, 100),
        ];
        let batches: Vec<Vec<TransformTask>> = batches
            .iter()
            .map(|runs| {
                let mut batch = Vec::new();
                for &(table, shape, len) in runs {
                    let k = [10, 6][shape];
                    let task = TransformTask { k, ..tables[table].clone() };
                    batch.extend(std::iter::repeat_n(task, len));
                }
                batch
            })
            .collect();
        let total = batches.iter().map(Vec::len).sum::<usize>() as u64;
        let ((plan_kind, extra), seed, rate, at) = fault;
        let plan = closed_form_plan((plan_kind, seed, rate, at, extra & 1 == 1, extra & 2 == 2), total);

        let spec = DeviceSpec::default();
        let mut dev = GpuDevice::new(spec.clone(), streams);
        let mut reference = PerTask::new(spec, streams);
        let (mut inj, mut inj_ref) = (FaultInjector::new(&plan), FaultInjector::new(&plan));
        let (mut rec, mut rec_ref) = (MemRecorder::new(), MemRecorder::new());
        for (i, batch) in batches.iter().enumerate() {
            let start = SimTime::from_nanos(BATCH_GAP_NS * i as u64);
            let out =
                dev.execute_batch_injected(batch, kind, ExecMode::Timing, start, &mut rec, &mut inj);
            let want = reference.execute(batch, kind, start, &mut rec_ref, &mut inj_ref);
            // The batch index rides along to name the batch that differs.
            prop_assert_eq!((i, out.time, out.breakdown, out.failed), (i, want.0, want.1, want.2));
            prop_assert!(out.results.is_empty());
            prop_assert_eq!(
                (i, dev.cache().stats(), dev.cache().bytes_used(), dev.cache().len()),
                (i, reference.cache.stats(), reference.cache.bytes_used(), reference.cache.len())
            );
        }
        prop_assert_eq!(rec, rec_ref);
        let now = BATCH_GAP_NS * batches.len() as u64;
        let next = |inj: &mut FaultInjector| (0..32).map(|_| inj.kernel_launch(now)).collect::<Vec<_>>();
        prop_assert_eq!(next(&mut inj), next(&mut inj_ref));
    }
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

    /// Sharing-blind oracle for the device's run detection and its
    /// memo of resident term tables: a sequence of batches on one
    /// device must behave exactly like a copy in which every task of
    /// every batch owns a fresh deep clone of its term table (no two
    /// tasks share an allocation and no table comes back, so every run
    /// has length 1, the memo never answers, and every task walks the
    /// cache and prices its own kernel) — outcome, cache state and
    /// journal after each batch, under tight device memory, launch
    /// faults, and a `reset()` or `revive()` between batches included.
    /// The tight budgets make the tables evict one another, so a table
    /// the memo held comes back after another evicted its blocks.
    #[test]
    fn run_sharing_is_unobservable(
        steps in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0usize..5, 1usize..6), 1..8)),
            3..6,
        ),
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
        let a = TransformTask::shape_only(3, 10, 7, 0);
        let b = TransformTask::shape_only_rr(3, 10, 5, 1, 4);
        let steps: Vec<(u8, Vec<TransformTask>)> = steps
            .iter()
            .map(|(step, picks)| (*step, run_batch(&a, &b, picks)))
            .collect();
        prop_assert_eq!(
            observe(device_with(mem, streams), &steps, <[TransformTask]>::to_vec, kind, &plan),
            observe(device_with(mem, streams), &steps, unshared, kind, &plan)
        );
    }

    /// A reset device is a new one: the batch sequences and fault draws
    /// of `run_sharing_is_unobservable`, run on a device that first ran
    /// other batches on the same tables — pageable, under launch faults,
    /// the last of them losing the device — and was then `reset()`, and
    /// on `GpuDevice::new`, give the same outcome, breakdown, `failed`,
    /// cache stats (absolute: `reset` zeroes them), bytes and journal.
    /// With `keep_a`, the cache holds one walk of table `a` from empty
    /// when the device is reset, so a sequence that starts on `a` takes
    /// that walk back instead of walking.
    #[test]
    fn a_reset_device_is_a_new_one(
        steps in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0usize..5, 1usize..6), 1..8)),
            3..6,
        ),
        before in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 1usize..6), 1..8),
            1..4,
        ),
        pageable in any::<bool>(),
        keep_a in any::<bool>(),
        kind in kinds(),
        streams in 1usize..7,
        mem in prop_oneof![Just(6u64 << 30), Just(8_000u64), Just(17_000u64), Just(32_000u64)],
        fault in (any::<u64>(), prop_oneof![Just(0.0f64), Just(0.25f64)]),
    ) {
        let (seed, launch_fail_rate) = fault;
        let plan = FaultPlan::seeded(seed)
            .with_launch_fail_rate(launch_fail_rate)
            .with_stream_stalls(launch_fail_rate, 40_000);
        let a = TransformTask::shape_only(3, 10, 7, 0);
        let b = TransformTask::shape_only_rr(3, 10, 5, 1, 4);
        let steps: Vec<(u8, Vec<TransformTask>)> = steps
            .iter()
            .map(|(step, picks)| (*step, run_batch(&a, &b, picks)))
            .collect();

        let mut used = device_with(mem, streams);
        used.set_pinned(!pageable);
        let mut dirty: Vec<Vec<TransformTask>> =
            before.iter().map(|picks| run_batch(&a, &b, picks)).collect();
        if keep_a {
            // After a `revive()` empties the cache.
            dirty.push(run_batch(&a, &b, &[(0, 3)]));
        }
        // The device is lost before the last batch starts.
        dirty.push(run_batch(&a, &b, &[(1, 2)]));
        let lost_at = 500_000_000 * (dirty.len() as u64 - 1);
        let mut inj = FaultInjector::new(
            &FaultPlan::seeded(!seed)
                .with_launch_fail_rate(0.25)
                .with_device_lost_at(lost_at),
        );
        for (i, batch) in dirty.iter().enumerate() {
            if keep_a && i == before.len() {
                used.revive();
            }
            used.execute_batch_injected(
                batch,
                kind,
                ExecMode::Timing,
                SimTime::from_millis(500 * i as u64),
                &mut NullRecorder,
                &mut inj,
            );
        }
        prop_assert!(used.is_lost());
        used.reset();
        prop_assert_eq!(
            observe(used, &steps, <[TransformTask]>::to_vec, kind, &plan),
            observe(device_with(mem, streams), &steps, <[TransformTask]>::to_vec, kind, &plan)
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
