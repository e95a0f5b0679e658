//! The simulated GPU device: streams, transfers, cache, batch execution.

use crate::cache::DeviceHCache;
use crate::clock::SimTime;
use crate::kernel::{execute_tasks, kernel_cost, KernelKind};
use crate::spec::DeviceSpec;
use crate::task::TransformTask;
use crate::transfer::TransferEngine;
use madness_faults::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, TaskError};
use madness_tensor::{Tensor, Workspace};
use madness_trace::{NullRecorder, Recorder, Stage};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::iter::repeat_n;
use std::sync::Arc;

/// Simulated latency between a device falling off the bus and the
/// driver reporting the loss to the caller.
const DEVICE_LOST_DETECT: SimTime = SimTime::from_micros(50);

/// Whether batch execution performs the real arithmetic or only accounts
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Also execute the tensor math, on the calling thread (results
    /// returned) — asked for only by tests and the benchmark's probe.
    Full,
    /// Account simulated time only (no results) — used by 100–500-node
    /// cluster sweeps.
    Timing,
}

/// Cost breakdown of one batch execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Host→device time for source tensors (one aggregated transfer).
    pub transfer_in_s: SimTime,
    /// Host→device time for operator blocks missing from the cache.
    pub transfer_in_h: SimTime,
    /// Device→host time for results (one aggregated transfer).
    pub transfer_out: SimTime,
    /// Makespan of the kernels across the streams.
    pub compute: SimTime,
    /// Total kernel launches.
    pub launches: u64,
    /// Bytes moved host→device for source tensors.
    pub bytes_s: u64,
    /// Bytes moved host→device for new operator blocks.
    pub bytes_h: u64,
    /// Bytes moved device→host for results.
    pub bytes_out: u64,
}

impl CostBreakdown {
    /// Total simulated wall time of the batch (transfers serialize with
    /// compute; intra-batch overlap is not modeled — the paper overlaps
    /// *CPU* work with GPU batches, which the dispatcher layer handles).
    pub fn total(&self) -> SimTime {
        self.transfer_in_s + self.transfer_in_h + self.compute + self.transfer_out
    }
}

/// Result of [`GpuDevice::execute_batch`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per task (`None` in timing mode and for failed tasks).
    pub results: Vec<Option<Tensor>>,
    /// Simulated batch duration.
    pub time: SimTime,
    /// Where the time went.
    pub breakdown: CostBreakdown,
    /// Tasks that did **not** complete, as `(batch index, cause)`.
    /// Empty on the fault-free paths; populated only by
    /// [`GpuDevice::execute_batch_injected`] under a non-empty
    /// [`FaultPlan`]. Callers own re-dispatching these (GPU retry or
    /// CPU fallback) — the device never re-runs a task by itself.
    pub failed: Vec<(usize, TaskError)>,
}

impl BatchOutcome {
    /// True when every task in the batch completed.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// A batch of `n` tasks that failed as a whole after `time`: no
    /// results, every task handed back with `err`.
    fn aborted(n: usize, time: SimTime, breakdown: CostBreakdown, err: TaskError) -> Self {
        BatchOutcome {
            results: vec![None; n],
            time,
            breakdown,
            failed: (0..n).map(|i| (i, err)).collect(),
        }
    }
}

/// Journals a fault the injector fired at `at_ns` on `tasks` tasks.
fn injected<R: Recorder>(rec: &mut R, kind: FaultKind, at_ns: u64, tasks: usize) {
    rec.fault(FaultEvent {
        kind,
        action: FaultAction::Injected,
        at_ns,
        tasks: tasks as u64,
    });
}

/// The simulated device: spec + transfer engine + persistent block cache.
#[derive(Debug)]
pub struct GpuDevice {
    spec: DeviceSpec,
    engine: TransferEngine,
    cache: DeviceHCache,
    streams: usize,
    pinned: bool,
    /// True after a device-lost fault fired; every batch fails with
    /// [`TaskError::DeviceLost`] until [`GpuDevice::revive`].
    lost: bool,
    /// Batches noted in flight on the stream queue: `(submit, complete)`
    /// windows, pruned on query. Feeds the adaptive dispatcher's
    /// backpressure signal. Behind a mutex so [`GpuDevice::queue_depth`]
    /// can prune through `&self` — watchdogs and planners only observe.
    inflight: Mutex<VecDeque<(SimTime, SimTime)>>,
}

impl GpuDevice {
    /// A device with `streams` CUDA streams and pinned staging buffers.
    ///
    /// # Panics
    /// Panics if `streams` is zero or exceeds the spec's maximum.
    pub fn new(spec: DeviceSpec, streams: usize) -> Self {
        assert!(
            streams >= 1 && streams <= spec.max_streams,
            "stream count {streams} out of range"
        );
        GpuDevice {
            engine: TransferEngine::new(&spec),
            cache: DeviceHCache::new(spec.device_mem_bytes),
            streams,
            pinned: true,
            lost: false,
            spec,
            inflight: Mutex::new(VecDeque::new()),
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Configured stream count.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Toggles pinned staging buffers (ablation: pageable transfers).
    pub fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
    }

    /// The write-once block cache (for stats and tests).
    pub fn cache(&self) -> &DeviceHCache {
        &self.cache
    }

    /// Clears device state between runs.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.inflight.get_mut().clear();
        self.lost = false;
    }

    /// True after a device-lost fault; batches fail until
    /// [`GpuDevice::revive`].
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Driver-level reset after a device loss: the device serves again,
    /// but its operator cache is gone — re-admission pays the warm-up
    /// transfers again, which is why quarantine + probing (rather than
    /// instant retry) is the right recovery shape.
    pub fn revive(&mut self) {
        self.lost = false;
        self.cache.clear();
        self.inflight.get_mut().clear();
    }

    /// Notes a batch occupying the stream queue over the simulated
    /// window `[submit, complete)`. The pipeline drivers call this when
    /// they enqueue a batch; [`GpuDevice::queue_depth`] then answers how
    /// many earlier batches are still in flight — the backpressure
    /// signal the adaptive dispatcher shrinks the GPU share on.
    pub fn note_inflight(&self, submit: SimTime, complete: SimTime) {
        self.inflight.lock().push_back((submit, complete));
    }

    /// Batches noted in flight that have not completed by `now`
    /// (submitted at or before `now`, completing after it). Entries
    /// finished by `now` are pruned through the interior mutex, so the
    /// query needs only `&self` — observers (watchdogs, planners)
    /// don't demand exclusive device access.
    pub fn queue_depth(&self, now: SimTime) -> usize {
        let mut inflight = self.inflight.lock();
        inflight.retain(|&(_, complete)| complete > now);
        inflight
            .iter()
            .filter(|&&(submit, _)| submit <= now)
            .count()
    }

    /// Maximum kernels that can run concurrently given per-kernel SM
    /// reservations and the stream count.
    pub fn concurrency(&self, sms_per_kernel: usize) -> usize {
        (self.spec.num_sms / sms_per_kernel.max(1))
            .max(1)
            .min(self.streams)
    }

    /// Executes a batch of compute tasks:
    ///
    /// 1. aggregate + transfer the source tensors (one DMA),
    /// 2. transfer operator blocks not yet in the write-once cache,
    /// 3. launch one kernel per task (custom) or per GEMM (cuBLAS-like),
    ///    scheduled greedily over the streams,
    /// 4. transfer results back (one DMA).
    pub fn execute_batch(
        &mut self,
        tasks: &[TransformTask],
        kind: KernelKind,
        mode: ExecMode,
    ) -> BatchOutcome {
        let mut inert = FaultInjector::new(&FaultPlan::none());
        self.execute_batch_injected(
            tasks,
            kind,
            mode,
            SimTime::ZERO,
            &mut NullRecorder,
            &mut inert,
        )
    }

    /// [`GpuDevice::execute_batch`] with tracing and fault injection.
    ///
    /// Tracing journals the batch's transfer and per-stream kernel spans
    /// relative to `batch_start`, counts cache hits/misses/evictions and
    /// kernel launches, and accumulates per-stream busy time; with
    /// [`NullRecorder`] every recording branch folds away and the
    /// returned timings are bit-identical.
    ///
    /// Injection walks `inj` at each injection point — device loss
    /// before/during the batch, DMA timeout on the aggregated
    /// in-transfer (one timed-out attempt is waited out and re-issued; a
    /// second failure aborts the batch), per-task kernel-launch failure,
    /// and a stream stall stretching the compute phase. Failures are
    /// reported per task in [`BatchOutcome::failed`]; every injected
    /// fault is journaled through `rec` as a [`FaultEvent`]. An inert
    /// injector ([`FaultPlan::none`]) answers "no fault" to every query,
    /// which is how `execute_batch` runs.
    pub fn execute_batch_injected<R: Recorder>(
        &mut self,
        tasks: &[TransformTask],
        kind: KernelKind,
        mode: ExecMode,
        batch_start: SimTime,
        rec: &mut R,
        inj: &mut FaultInjector,
    ) -> BatchOutcome {
        let mut br = CostBreakdown::default();
        if tasks.is_empty() {
            return BatchOutcome {
                results: Vec::new(),
                time: SimTime::ZERO,
                breakdown: br,
                failed: Vec::new(),
            };
        }
        let t0 = batch_start.as_nanos();
        let n = tasks.len();

        // --- device lost before the batch even starts -------------------
        if self.lost || inj.device_lost(t0) {
            self.lost = true;
            injected(rec, FaultKind::DeviceLost, t0, n);
            return BatchOutcome::aborted(n, DEVICE_LOST_DETECT, br, TaskError::DeviceLost);
        }

        // --- transfers in ---------------------------------------------
        br.bytes_s = tasks.iter().map(|t| t.s_bytes()).sum();
        br.transfer_in_s = self.engine.transfer_time(br.bytes_s, self.pinned);
        let (hits0, misses0, evictions0) = self.cache.stats();
        // Consecutive tasks applying one term table (the same `Arc`, as
        // `core::apply` hands out per level × displacement and the node
        // simulator per population; equal ids behind different
        // allocations do not count) to one tensor shape form a *run*:
        // they ask the cache for the same blocks and cost the same
        // kernel time, so both are worked out once per run. Faults,
        // stream scheduling and journaling below stay per task.
        let mut costs = Vec::with_capacity(n);
        for run in
            tasks.chunk_by(|a, b| Arc::ptr_eq(&a.terms, &b.terms) && (a.d, a.k) == (b.d, b.k))
        {
            let head = &run[0];
            br.bytes_h += self.cache.ensure_batch_repeated(
                head.h_ids(),
                head.h_block_bytes(),
                run.len() as u64,
            );
            costs.extend(repeat_n(kernel_cost(&self.spec, kind, head), run.len()));
        }
        br.transfer_in_h = self.engine.transfer_time(br.bytes_h, self.pinned);
        if inj.transfer(t0).is_some() {
            // The aggregated DMA timed out: the timeout window is the
            // transfer's own length, then it is re-issued — in-transfer
            // cost doubles.
            injected(rec, FaultKind::TransferTimeout, t0, n);
            br.transfer_in_s = br.transfer_in_s * 2;
            br.transfer_in_h = br.transfer_in_h * 2;
            if inj.transfer(t0).is_some() {
                // The re-issue timed out too: abort the batch, hand the
                // tasks back to the caller.
                injected(rec, FaultKind::TransferTimeout, t0, n);
                let wasted = br.transfer_in_s + br.transfer_in_h;
                return BatchOutcome::aborted(n, wasted, br, TaskError::TransferTimedOut);
            }
        }
        if R::ENABLED {
            let (hits, misses, evictions) = self.cache.stats();
            for (stage, counter, n) in [
                (Stage::CacheHit, "cache_hit", hits - hits0),
                (Stage::CacheMiss, "cache_miss", misses - misses0),
                (Stage::CacheEvict, "cache_evict", evictions - evictions0),
            ] {
                if n > 0 {
                    rec.add(counter, n);
                    rec.event(stage, t0, n);
                }
            }
            let tin = br.transfer_in_s + br.transfer_in_h;
            rec.span(Stage::Transfer, t0, t0 + tin.as_nanos(), 0);
            rec.add("bytes_h2d", br.bytes_s + br.bytes_h);
        }

        // --- compute: greedy list scheduling over streams ---------------
        let sms_per_kernel = costs.iter().map(|c| c.sms_used).max().unwrap_or(1);
        let lanes = self.concurrency(sms_per_kernel);
        let compute_begin = t0 + (br.transfer_in_s + br.transfer_in_h).as_nanos();
        let mut failed: Vec<(usize, TaskError)> = Vec::new();
        let mut lane_load = vec![SimTime::ZERO; lanes];
        for (i, c) in costs.iter().enumerate() {
            if let Some(err) = inj.kernel_launch(compute_begin) {
                // The launch itself fails — no stream time is consumed,
                // the task simply never runs on the device.
                failed.push((i, err));
                continue;
            }
            br.launches += c.launches;
            let (idx, _) = lane_load
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| **l)
                .expect("at least one lane");
            // Lanes fill back-to-back, so the lane's current load is this
            // kernel's in-batch start offset.
            if R::ENABLED {
                let start = compute_begin + lane_load[idx].as_nanos();
                rec.span(
                    Stage::KernelLaunch,
                    start,
                    start + c.duration.as_nanos(),
                    idx as u32,
                );
            }
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
        if R::ENABLED {
            rec.add("kernel_launches", br.launches);
            for (idx, load) in lane_load.iter().enumerate() {
                rec.add(&format!("stream_busy_ns.{idx}"), load.as_nanos());
            }
        }
        br.compute = lane_load.into_iter().max().unwrap_or(SimTime::ZERO);
        if let Some(stall_ns) = inj.stream_stall(compute_begin) {
            // All streams wedge for the stall window before draining;
            // the batch completes, late. Detection is the caller's job.
            injected(rec, FaultKind::StreamStall, compute_begin, n);
            br.compute += SimTime::from_nanos(stall_ns);
        }

        // --- transfer out ----------------------------------------------
        // Result blocks have the source shape; launch-failed tasks
        // produced nothing to copy back.
        let launched = |i: usize| !failed.iter().any(|&(j, _)| j == i);
        br.bytes_out = (0..n)
            .filter(|&i| launched(i))
            .map(|i| tasks[i].s_bytes())
            .sum();
        br.transfer_out = self.engine.transfer_time(br.bytes_out, self.pinned);
        if R::ENABLED {
            let out_begin = compute_begin + br.compute.as_nanos();
            rec.span(
                Stage::Transfer,
                out_begin,
                out_begin + br.transfer_out.as_nanos(),
                0,
            );
            rec.add("bytes_d2h", br.bytes_out);
        }

        // --- device lost mid-batch --------------------------------------
        if inj.device_lost(t0 + br.total().as_nanos()) {
            // The device fell off the bus before the results landed:
            // everything in flight is gone, including tasks whose
            // kernels had finished.
            self.lost = true;
            injected(rec, FaultKind::DeviceLost, t0 + br.total().as_nanos(), n);
            let time = br.total() + DEVICE_LOST_DETECT;
            return BatchOutcome::aborted(n, time, br, TaskError::DeviceLost);
        }

        // --- arithmetic --------------------------------------------------
        let results: Vec<Option<Tensor>> = match mode {
            ExecMode::Timing => vec![None; n],
            ExecMode::Full => {
                let computes = |i: usize| launched(i) && tasks[i].s.is_some();
                let live: Vec<&TransformTask> =
                    (0..n).filter(|&i| computes(i)).map(|i| &tasks[i]).collect();
                let mut rs =
                    Workspace::with(|ws| execute_tasks(&live, false, ws.scratch())).into_iter();
                (0..n)
                    .map(|i| if computes(i) { rs.next() } else { None })
                    .collect()
            }
        };

        BatchOutcome {
            results,
            time: br.total(),
            breakdown: br,
            failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{HBlock, TransformTerm};
    use madness_faults::Trigger;
    use madness_tensor::Shape;

    fn device(streams: usize) -> GpuDevice {
        GpuDevice::new(DeviceSpec::default(), streams)
    }

    fn timing_batch(n: usize) -> Vec<TransformTask> {
        (0..n)
            .map(|i| TransformTask::shape_only(3, 10, 100, 1 + i as u64))
            .collect()
    }

    /// Batch sharing the same h blocks across tasks (the realistic case:
    /// "hundreds of input h tensors" reused by many source tensors).
    fn shared_h_batch(n: usize) -> Vec<TransformTask> {
        (0..n)
            .map(|_| TransformTask::shape_only(3, 10, 100, 0))
            .collect()
    }

    #[test]
    fn empty_batch_is_free() {
        let out = device(5).execute_batch(&[], KernelKind::CustomMtxmq, ExecMode::Timing);
        assert_eq!(out.time, SimTime::ZERO);
        assert!(out.results.is_empty());
    }

    #[test]
    fn streams_scale_until_sm_limit() {
        // Table I GPU column: near-linear to ~5 streams, flat after —
        // ⌊16 SMs / 3 SMs⌋ = 5 concurrent custom kernels.
        let batch = timing_batch(60);
        let t = |s: usize| {
            let mut d = device(s);
            d.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing)
                .time
                .as_secs_f64()
        };
        let t1 = t(1);
        let t5 = t(5);
        let t6 = t(6);
        assert!(t1 / t5 > 3.5, "stream scaling too weak: {}", t1 / t5);
        assert!(
            (t6 - t5).abs() < 0.05 * t5,
            "no saturation at 5 streams: {t5} vs {t6}"
        );
    }

    #[test]
    fn h_cache_avoids_second_transfer() {
        let batch = shared_h_batch(10);
        let mut d = device(5);
        let first = d.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        assert!(first.breakdown.bytes_h > 0);
        let second = d.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        assert_eq!(second.breakdown.bytes_h, 0, "cache missed on re-run");
        assert!(second.time < first.time);
    }

    #[test]
    fn shared_blocks_transfer_once_within_batch() {
        let mut d = device(5);
        let out = d.execute_batch(
            &shared_h_batch(20),
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
        );
        // 20 tasks × 300 block refs, but only 300 distinct blocks.
        let per_block = 8 * 10 * 10;
        assert_eq!(out.breakdown.bytes_h, 300 * per_block);
    }

    #[test]
    fn pageable_slower_than_pinned() {
        let batch = timing_batch(40);
        let mut dp = device(5);
        let mut dg = device(5);
        dg.set_pinned(false);
        let tp = dp.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        let tg = dg.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        let tin_p = tp.breakdown.transfer_in_s + tp.breakdown.transfer_in_h;
        let tin_g = tg.breakdown.transfer_in_s + tg.breakdown.transfer_in_h;
        assert!(tin_g > tin_p * 2u64, "pageable {tin_g} vs pinned {tin_p}");
    }

    #[test]
    fn full_mode_computes_correct_results() {
        let k = 5;
        let s = Arc::new(Tensor::from_fn(Shape::cube(3, k), |ix| {
            ((ix[0] + 2 * ix[1] + 3 * ix[2]) as f64).sin()
        }));
        let ident = Arc::new(Tensor::identity(k));
        let task = TransformTask {
            d: 3,
            k,
            s: Some(Arc::clone(&s)),
            terms: Arc::new(vec![TransformTerm {
                coeff: 4.0,
                hs: (0..3)
                    .map(|i| HBlock::new(i as u64, Arc::clone(&ident)))
                    .collect(),
                effective_ranks: None,
            }]),
        };
        let mut d = device(3);
        let out = d.execute_batch(
            std::slice::from_ref(&task),
            KernelKind::CustomMtxmq,
            ExecMode::Full,
        );
        let r = out.results[0].as_ref().unwrap();
        assert!(r.distance(&(&*s * 4.0)) < 1e-12);
        // And both kernel kinds agree bit-for-bit.
        let mut d2 = device(3);
        let out2 = d2.execute_batch(
            std::slice::from_ref(&task),
            KernelKind::CublasLike,
            ExecMode::Full,
        );
        assert_eq!(r.as_slice(), out2.results[0].as_ref().unwrap().as_slice());
    }

    #[test]
    fn batched_transfer_beats_per_task_transfers() {
        // The core batching claim: one aggregated DMA vs one per task.
        let d = device(5);
        let batch = timing_batch(60);
        let bytes: u64 = batch.iter().map(|t| t.s_bytes()).sum();
        let engine = TransferEngine::new(d.spec());
        let batched = engine.transfer_time(bytes, true);
        let per_task = engine.transfer_time_ops(bytes, 60, true);
        assert!(per_task.as_secs_f64() > 3.0 * batched.as_secs_f64());
    }

    #[test]
    fn queue_depth_counts_only_open_windows() {
        let mut d = device(2);
        let us = SimTime::from_micros;
        d.note_inflight(us(0), us(100));
        d.note_inflight(us(50), us(150));
        d.note_inflight(us(200), us(300)); // not yet submitted at t=60
        assert_eq!(d.queue_depth(us(60)), 2);
        assert_eq!(d.queue_depth(us(120)), 1); // first batch pruned
        assert_eq!(d.queue_depth(us(250)), 1);
        assert_eq!(d.queue_depth(us(400)), 0);
        d.note_inflight(us(400), us(500));
        d.reset();
        assert_eq!(d.queue_depth(us(450)), 0, "reset must drain the queue");
    }

    #[test]
    fn launch_failures_skip_compute_and_report_per_task() {
        let batch = timing_batch(10);
        let plan = FaultPlan::none()
            .with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(0))
            .with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(3));
        let mut inj = FaultInjector::new(&plan);
        let mut rec = madness_trace::MemRecorder::new();
        let out = device(5).execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::ZERO,
            &mut rec,
            &mut inj,
        );
        assert_eq!(
            out.failed,
            vec![(0, TaskError::LaunchFailed), (3, TaskError::LaunchFailed)]
        );
        assert!(!out.all_ok());
        let clean = device(5).execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        assert!(out.breakdown.launches < clean.breakdown.launches);
        assert!(out.breakdown.bytes_out < clean.breakdown.bytes_out);
        let ev: Vec<_> = rec.faults().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, FaultKind::KernelLaunchFail);
        assert_eq!(ev[0].tasks, 2);
    }

    #[test]
    fn launch_failures_yield_no_result_in_full_mode() {
        let batch: Vec<_> = (0..4)
            .map(|i| {
                let s = Arc::new(Tensor::from_fn(Shape::cube(3, 5), |ix| (ix[0] + i) as f64));
                TransformTask {
                    d: 3,
                    k: 5,
                    s: Some(s),
                    terms: Arc::new(vec![TransformTerm {
                        coeff: 1.0,
                        hs: (0..3)
                            .map(|j| HBlock::new(j as u64, Arc::new(Tensor::identity(5))))
                            .collect(),
                        effective_ranks: None,
                    }]),
                }
            })
            .collect();
        let plan =
            FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(1));
        let mut inj = FaultInjector::new(&plan);
        let out = device(3).execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Full,
            SimTime::ZERO,
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert!(out.results[0].is_some());
        assert!(out.results[1].is_none(), "failed task must not return data");
        assert!(out.results[2].is_some());
        assert_eq!(out.failed, vec![(1, TaskError::LaunchFailed)]);
    }

    #[test]
    fn full_batch_groups_source_runs_bit_for_bit() {
        let k = 4;
        let blocks: Vec<Arc<Tensor>> = (0..4)
            .map(|b| {
                Arc::new(Tensor::from_fn(Shape::matrix(k, k), |ix| {
                    ((b * 16 + ix[0] * k + ix[1]) as f64 * 0.37).sin()
                }))
            })
            .collect();
        // Table `j`'s terms keep their first block and change the later
        // ones with `j`, as neighbouring displacements do, so a group
        // has leading passes to share; `krs` makes the terms rank-reduced.
        let table = |j: usize, krs: Option<Vec<usize>>| {
            let term = |mu: usize| TransformTerm {
                coeff: 1.0 / (mu + 1) as f64,
                hs: [mu, mu + j / 2, mu + j]
                    .iter()
                    .enumerate()
                    .map(|(p, &b)| HBlock::new((p * 4 + b % 4) as u64, Arc::clone(&blocks[b % 4])))
                    .collect(),
                effective_ranks: krs.clone(),
            };
            Arc::new((0..3).map(term).collect::<Vec<_>>())
        };
        let source = |seed: usize| {
            Arc::new(Tensor::from_fn(Shape::cube(3, k), |ix| {
                ((seed * 64 + ix[0] * 16 + ix[1] * 4 + ix[2]) as f64 * 0.71).cos()
            }))
        };
        let task = |s: &Arc<Tensor>, terms| TransformTask {
            d: 3,
            k,
            s: Some(Arc::clone(s)),
            terms,
        };
        let (s1, s2, s3) = (source(1), source(2), source(3));
        let batch: Vec<TransformTask> = (0..4)
            .map(|j| task(&s1, table(j, None)))
            .chain([task(&s2, table(0, None))])
            .chain((0..3).map(|j| task(&s3, table(j, Some(vec![2, 3, 4])))))
            .chain([task(&s1, table(5, Some(vec![4, 1, 3])))])
            .collect();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = madness_tensor::TransformScratch::new();
        for rank_reduced in [false, true] {
            let grouped = execute_tasks(&batch, rank_reduced, &mut scratch);
            for (task, r) in batch.iter().zip(&grouped) {
                let alone = execute_tasks(&[task], rank_reduced, &mut scratch);
                assert_eq!(bits(r), bits(&alone[0]), "rank_reduced {rank_reduced}");
            }
        }

        // A launch that fails inside `s1`'s run costs that task its
        // result and leaves every other task's bits alone.
        let run = |plan: &FaultPlan| {
            device(3).execute_batch_injected(
                &batch,
                KernelKind::CustomMtxmq,
                ExecMode::Full,
                SimTime::ZERO,
                &mut madness_trace::NullRecorder,
                &mut FaultInjector::new(plan),
            )
        };
        let clean = run(&FaultPlan::none());
        let exact = execute_tasks(&batch, false, &mut scratch);
        let plan =
            FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(2));
        let faulted = run(&plan);
        assert_eq!(faulted.failed, vec![(2, TaskError::LaunchFailed)]);
        for (i, want) in exact.iter().enumerate() {
            let clean = clean.results[i]
                .as_ref()
                .expect("a clean run computes every task");
            assert_eq!(bits(clean), bits(want));
            assert_eq!(faulted.results[i].is_none(), i == 2, "task {i}");
            if let Some(r) = &faulted.results[i] {
                assert_eq!(bits(r), bits(want), "task {i}");
            }
        }
    }

    #[test]
    fn double_transfer_timeout_aborts_batch() {
        let batch = timing_batch(8);
        let plan = FaultPlan::none()
            .with_injection(FaultKind::TransferTimeout, Trigger::AtCount(0))
            .with_injection(FaultKind::TransferTimeout, Trigger::AtCount(1));
        let mut inj = FaultInjector::new(&plan);
        let out = device(5).execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::ZERO,
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert_eq!(out.failed.len(), 8);
        assert!(out
            .failed
            .iter()
            .all(|&(_, e)| e == TaskError::TransferTimedOut));
        assert_eq!(
            out.breakdown.compute,
            SimTime::ZERO,
            "never reached compute"
        );
        assert!(out.time > SimTime::ZERO, "the timeouts cost time");
    }

    #[test]
    fn single_transfer_timeout_doubles_in_transfer_but_completes() {
        let batch = timing_batch(8);
        let clean = device(5).execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        let plan =
            FaultPlan::none().with_injection(FaultKind::TransferTimeout, Trigger::AtCount(0));
        let mut inj = FaultInjector::new(&plan);
        let out = device(5).execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::ZERO,
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert!(out.all_ok(), "one timeout is absorbed by the re-issue");
        assert_eq!(
            out.breakdown.transfer_in_s,
            clean.breakdown.transfer_in_s * 2
        );
        assert_eq!(out.breakdown.compute, clean.breakdown.compute);
    }

    #[test]
    fn stream_stall_stretches_compute() {
        let batch = timing_batch(8);
        let clean = device(5).execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
        let plan = FaultPlan::seeded(1).with_stream_stalls(1.0, 123_456);
        let mut inj = FaultInjector::new(&plan);
        let out = device(5).execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::ZERO,
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert!(out.all_ok(), "a stall delays, it does not lose tasks");
        assert_eq!(
            out.breakdown.compute,
            clean.breakdown.compute + SimTime::from_nanos(123_456)
        );
    }

    #[test]
    fn device_loss_sticks_until_revive() {
        let batch = timing_batch(4);
        let plan = FaultPlan::none().with_device_lost_at(0);
        let mut inj = FaultInjector::new(&plan);
        let mut d = device(5);
        let out = d.execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::ZERO,
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert!(d.is_lost());
        assert_eq!(out.failed.len(), 4);
        assert!(out.failed.iter().all(|&(_, e)| e == TaskError::DeviceLost));
        // Still lost on the next batch, even though the plan's loss
        // instant is spent.
        let again = d.execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::from_millis(1),
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert_eq!(again.failed.len(), 4);
        d.revive();
        assert!(!d.is_lost());
        assert!(d.cache().is_empty(), "driver reset wipes the cache");
        let ok = d.execute_batch_injected(
            &batch,
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
            SimTime::from_millis(2),
            &mut madness_trace::NullRecorder,
            &mut inj,
        );
        assert!(ok.all_ok());
    }

    #[test]
    fn queue_depth_is_shared_ref() {
        // The watchdog observes through `&GpuDevice`.
        let d = device(2);
        let us = SimTime::from_micros;
        d.note_inflight(us(0), us(100));
        let shared: &GpuDevice = &d;
        assert_eq!(shared.queue_depth(us(50)), 1);
        assert_eq!(shared.queue_depth(us(150)), 0);
    }

    #[test]
    fn reset_clears_cache() {
        let mut d = device(2);
        d.execute_batch(
            &shared_h_batch(3),
            KernelKind::CustomMtxmq,
            ExecMode::Timing,
        );
        assert!(!d.cache().is_empty());
        d.reset();
        assert!(d.cache().is_empty());
    }
}
