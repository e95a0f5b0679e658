//! The simulated GPU device: streams, transfers, cache, batch execution.

use crate::cache::{DeviceHCache, IdHasher};
use crate::clock::SimTime;
use crate::kernel::{execute_tasks, kernel_cost, KernelCost, KernelKind};
use crate::lanes::{serve_many, MAX_LANES};
use crate::spec::DeviceSpec;
use crate::task::{TransformTask, TransformTerm};
use crate::transfer::TransferEngine;
use madness_faults::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, TaskError};
use madness_tensor::{Tensor, Workspace};
use madness_trace::{Event, NullRecorder, Point, Recorder, Stage};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
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
    /// One result per task in full mode (`None` for a failed task);
    /// empty in timing mode.
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
    fn aborted(
        n: usize,
        mode: ExecMode,
        time: SimTime,
        breakdown: CostBreakdown,
        err: TaskError,
    ) -> Self {
        BatchOutcome {
            results: match mode {
                ExecMode::Timing => Vec::new(),
                ExecMode::Full => vec![None; n],
            },
            time,
            breakdown,
            failed: (0..n).map(|i| (i, err)).collect(),
        }
    }
}

/// Journals a fault the injector fired at `at_ns` on `tasks` tasks.
fn injected<R: Recorder>(rec: &mut R, kind: FaultKind, at_ns: u64, tasks: usize) {
    rec.record(Event::Fault(FaultEvent {
        kind,
        action: FaultAction::Injected,
        at_ns,
        tasks: tasks as u64,
    }));
}

/// One task shape's steady-state GPU batch time ([`GpuDevice::estimate`]).
#[derive(Clone, Debug)]
pub struct BatchEstimate {
    kernel: SimTime,
    concurrency: u64,
    s_bytes: u64,
    engine: TransferEngine,
    pinned: bool,
}

impl BatchEstimate {
    /// A batch of `b` tasks: the kernels spread over the streams that
    /// can run at once, plus the one DMA that ships the sources in and
    /// the one that ships the results (each the size of its source) back.
    pub fn time(&self, b: u64) -> SimTime {
        let dma = self.engine.transfer_time(self.s_bytes * b, self.pinned);
        self.kernel * b / self.concurrency + dma * 2u64
    }
}

/// One walk of a term table, at one block size, on an empty cache that
/// evicted nothing, with what it counted. Walking the table again on an
/// empty cache with the same budget would leave the same blocks in the
/// same order and count the same, so the device keeps such a walk's
/// result across a reset instead of walking again.
#[derive(Debug)]
struct ColdWalk {
    /// Held so its address cannot pass to another table.
    table: Arc<Vec<TransformTerm>>,
    block_bytes: u64,
    /// The table's block references, and the misses among them.
    refs: u64,
    misses: u64,
}

impl ColdWalk {
    /// True when walking `task`'s table from empty is this walk.
    fn is_of(&self, task: &TransformTask) -> bool {
        Arc::ptr_eq(&self.table, &task.terms) && self.block_bytes == task.h_block_bytes()
    }
}

/// The simulated device: spec + transfer engine + persistent block cache.
#[derive(Debug)]
pub struct GpuDevice {
    spec: DeviceSpec,
    engine: TransferEngine,
    cache: DeviceHCache,
    /// The walk the cache holds the result of, when it holds exactly one
    /// walk from empty: set by such a walk, dropped by any other walk
    /// and by a clear.
    cold: Option<ColdWalk>,
    /// A walk a reset kept aside in `spare`, for a later walk of the
    /// same table on an empty cache to take back (the "warm reset").
    warm: Option<ColdWalk>,
    /// Storage the cache swaps its contents with: empty, or holding the
    /// result of `warm`. Host work only; no query sees it.
    spare: DeviceHCache,
    /// Term tables a cache walk left wholly resident, by address, each
    /// with its block count. Holding the `Arc` keeps the address from
    /// passing to another table. Residency shrinks only by an eviction
    /// or a clear, and either drops the whole memo, so every table in
    /// it is still wholly resident.
    resident_tables: HashMap<u64, (Arc<Vec<TransformTerm>>, u64), BuildHasherDefault<IdHasher>>,
    /// The current batch's runs, one `(kernel cost, task count)` each,
    /// in task order; kept between batches for its capacity.
    runs: Vec<(KernelCost, usize)>,
    streams: usize,
    pinned: bool,
    /// True after a device-lost fault fired; every batch fails with
    /// [`TaskError::DeviceLost`] until [`GpuDevice::revive`].
    lost: bool,
}

impl GpuDevice {
    /// A device with `streams` CUDA streams and pinned staging buffers.
    ///
    /// # Panics
    /// Panics if `streams` is zero or exceeds the spec's maximum, or
    /// [`MAX_LANES`], the most streams a batch's kernels are booked on.
    pub fn new(spec: DeviceSpec, streams: usize) -> Self {
        assert!(
            streams >= 1 && streams <= spec.max_streams,
            "stream count {streams} out of range"
        );
        assert!(
            streams <= MAX_LANES,
            "a device books at most {MAX_LANES} streams, not {streams}"
        );
        GpuDevice {
            engine: TransferEngine::new(&spec),
            cache: DeviceHCache::new(spec.device_mem_bytes),
            cold: None,
            warm: None,
            spare: DeviceHCache::new(spec.device_mem_bytes),
            resident_tables: HashMap::default(),
            runs: Vec::new(),
            streams,
            pinned: true,
            lost: false,
            spec,
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

    /// Returns the device to the state [`GpuDevice::new`] leaves, for a
    /// new run on the same hardware: the cache empty with its hit, miss
    /// and eviction counters zeroed, no remembered table, not lost,
    /// staging buffers pinned. Only storage survives: the cache's set
    /// and FIFO and the run list keep their capacity, so a run that
    /// walks a table no larger than the last one allocates nothing.
    ///
    /// If the cache held exactly one walk of a table from empty, that
    /// walk's result is kept aside (a swap, not a copy), and a later
    /// walk of the same table on an empty cache takes it back and counts
    /// what walking would have, without walking. Nothing observable
    /// depends on it.
    ///
    /// With debug assertions on, the reset device is checked against a
    /// new one.
    pub fn reset(&mut self) {
        if let Some(walk) = self.cold.take() {
            self.cache.swap_contents(&mut self.spare);
            self.warm = Some(walk);
        }
        self.cache.reset();
        self.resident_tables.clear();
        self.runs.clear();
        self.pinned = true;
        self.lost = false;
        debug_assert!(
            self.same_state(&GpuDevice::new(self.spec.clone(), self.streams)),
            "a reset device differs from a new one"
        );
    }

    /// True when `other` would answer every query and batch exactly as
    /// this device does: same spec, streams, staging, loss, cache
    /// contents and counters, and remembered tables. Capacity and a walk
    /// kept aside are not state.
    fn same_state(&self, other: &GpuDevice) -> bool {
        self.spec == other.spec
            && self.streams == other.streams
            && self.pinned == other.pinned
            && self.lost == other.lost
            && self.cache == other.cache
            && self.runs == other.runs
            && self.resident_tables.len() == other.resident_tables.len()
            && self.resident_tables.iter().all(|(key, &(_, len))| {
                other
                    .resident_tables
                    .get(key)
                    .is_some_and(|&(_, l)| l == len)
            })
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
        self.clear_cache();
    }

    /// Empties the cache and forgets every remembered table with it.
    fn clear_cache(&mut self) {
        self.cache.clear();
        self.resident_tables.clear();
        self.cold = None;
    }

    /// Asks the cache for the blocks of `run` — tasks on one term table
    /// — as that many tasks in a row would; returns the bytes to
    /// transfer. A table the memo holds is counted as hits without a
    /// walk, and so is a walk of the table a reset kept aside. Otherwise
    /// the table is walked once: a walk that evicted nothing counts the
    /// run's other tasks as hits and adds its table to the memo; one that
    /// evicted walks once more for each other task and drops the memo.
    fn ensure_run(&mut self, run: &[TransformTask]) -> u64 {
        let head = &run[0];
        let repeats = run.len() as u64;
        let key = Arc::as_ptr(&head.terms) as u64;
        if let Some(&(_, len)) = self.resident_tables.get(&key) {
            debug_assert!(
                head.h_ids().all(|id| self.cache.contains(id)),
                "a remembered term table has an evicted block"
            );
            self.cache.count(len * repeats, 0);
            return 0;
        }
        let block_bytes = head.h_block_bytes();
        let empty = self.cache.is_empty();
        if let Some(walk) = self.warm.take_if(|walk| empty && walk.is_of(head)) {
            self.cache.swap_contents(&mut self.spare);
            let hits = walk.refs - walk.misses;
            debug_assert_eq!(
                self.cache.replay(head.h_ids(), block_bytes),
                Some((hits, walk.misses)),
                "a kept walk differs from walking its table again"
            );
            self.cache
                .count(hits + (repeats - 1) * walk.refs, walk.misses);
            self.resident_tables
                .insert(key, (Arc::clone(&head.terms), walk.refs));
            self.cold = Some(walk);
            return self.cache.bytes_used();
        }
        let (hits0, misses0, evictions0) = self.cache.stats();
        let mut bytes = self.cache.ensure_batch(head.h_ids(), block_bytes);
        let (hits, misses, evictions) = self.cache.stats();
        self.cold = None;
        if evictions == evictions0 {
            // Every id of the table is resident now, so each later task
            // would be all hits, transfer nothing and leave the set alone.
            let refs = (hits - hits0) + (misses - misses0);
            self.cache.count((repeats - 1) * refs, 0);
            if empty {
                self.cold = Some(ColdWalk {
                    table: Arc::clone(&head.terms),
                    block_bytes,
                    refs,
                    misses: misses - misses0,
                });
            }
            self.resident_tables
                .insert(key, (Arc::clone(&head.terms), refs));
        } else {
            // The table does not fit beside what was resident, or not at
            // all: a later task may miss again, so each one walks.
            for _ in 1..repeats {
                bytes += self.cache.ensure_batch(head.h_ids(), block_bytes);
            }
            self.resident_tables.clear();
        }
        bytes
    }

    /// Maximum kernels that can run concurrently given per-kernel SM
    /// reservations and the stream count.
    pub fn concurrency(&self, sms_per_kernel: usize) -> usize {
        (self.spec.num_sms / sms_per_kernel.max(1))
            .max(1)
            .min(self.streams)
    }

    /// What an a-priori dispatcher knows of batches of `task`'s shape on
    /// `kind` kernels: the GPU-only time `n` of the paper's
    /// `k* = n/(m+n)`, with the operator blocks assumed cached, priced
    /// per batch size by [`BatchEstimate::time`].
    pub fn estimate(&self, kind: KernelKind, task: &TransformTask) -> BatchEstimate {
        let cost = kernel_cost(&self.spec, kind, task);
        BatchEstimate {
            kernel: cost.duration,
            concurrency: self.concurrency(cost.sms_used) as u64,
            s_bytes: task.s_bytes(),
            engine: self.engine.clone(),
            pinned: self.pinned,
        }
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
            return BatchOutcome::aborted(n, mode, DEVICE_LOST_DETECT, br, TaskError::DeviceLost);
        }

        // --- transfers in ---------------------------------------------
        let (hits0, misses0, evictions0) = self.cache.stats();
        // Consecutive tasks applying one term table (the same `Arc`, as
        // `core::apply` hands out per level × displacement and the node
        // simulator per population; equal ids behind different
        // allocations do not count) to one tensor shape form a *run*:
        // they ask the cache for the same blocks, ship sources of the
        // same size and cost the same kernel time, so all three are
        // worked out once per run. Below, a run's launches are booked on
        // the streams together; only a plan that can fail one of them
        // draws a launch a task.
        self.runs.clear();
        for run in
            tasks.chunk_by(|a, b| Arc::ptr_eq(&a.terms, &b.terms) && (a.d, a.k) == (b.d, b.k))
        {
            br.bytes_s += run[0].s_bytes() * run.len() as u64;
            br.bytes_h += self.ensure_run(run);
            self.runs
                .push((kernel_cost(&self.spec, kind, &run[0]), run.len()));
        }
        br.transfer_in_s = self.engine.transfer_time(br.bytes_s, self.pinned);
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
                return BatchOutcome::aborted(n, mode, wasted, br, TaskError::TransferTimedOut);
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
        }

        // --- compute: greedy list scheduling over streams ---------------
        let sms_per_kernel = self.runs.iter().map(|(c, _)| c.sms_used).max().unwrap_or(1);
        let lanes = self.concurrency(sms_per_kernel);
        let compute_begin = t0 + (br.transfer_in_s + br.transfer_in_h).as_nanos();
        let mut failed: Vec<(usize, TaskError)> = Vec::new();
        // Each stream's load: lanes fill back-to-back from the compute
        // phase's start, so a lane's load is its next kernel's offset.
        let mut load = [SimTime::ZERO; MAX_LANES];
        let load = &mut load[..lanes];
        let mut bytes_failed = 0;
        let mut first = 0;
        for &(cost, len) in &self.runs {
            // Books `m` consecutive launched kernels of the run on the
            // streams, one span each.
            let mut book = |m: usize| {
                if m > 0 {
                    serve_many(
                        load,
                        SimTime::ZERO,
                        cost.duration,
                        m as u64,
                        |lane, start, end| {
                            if R::ENABLED {
                                let at = |t: SimTime| compute_begin + t.as_nanos();
                                rec.span(Stage::KernelLaunch, at(start), at(end), lane as u32);
                            }
                        },
                    );
                }
            };
            let mut launched = len;
            if inj.launches_fault_free(len as u64, compute_begin) {
                book(len);
            } else {
                // Each launch draws in task order; the stretches between
                // failed launches are booked whole.
                let mut stretch = 0;
                for i in first..first + len {
                    if let Some(err) = inj.kernel_launch(compute_begin) {
                        // The launch itself fails — no stream time is
                        // consumed, the task simply never runs on the
                        // device.
                        book(stretch);
                        stretch = 0;
                        failed.push((i, err));
                        launched -= 1;
                    } else {
                        stretch += 1;
                    }
                }
                book(stretch);
            }
            br.launches += cost.launches * launched as u64;
            bytes_failed += tasks[first].s_bytes() * (len - launched) as u64;
            first += len;
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
            rec.record(Event::Count("kernel_launches", br.launches));
            for (idx, load) in load.iter().enumerate() {
                rec.record(Event::Count(
                    &format!("stream_busy_ns.{idx}"),
                    load.as_nanos(),
                ));
            }
        }
        br.compute = load.iter().copied().max().unwrap_or(SimTime::ZERO);
        if let Some(stall_ns) = inj.stream_stall(compute_begin) {
            // All streams wedge for the stall window before draining;
            // the batch completes, late. Detection is the caller's job.
            injected(rec, FaultKind::StreamStall, compute_begin, n);
            br.compute += SimTime::from_nanos(stall_ns);
        }

        // --- transfer out ----------------------------------------------
        // Result blocks have the source shape; launch-failed tasks
        // produced nothing to copy back.
        br.bytes_out = br.bytes_s - bytes_failed;
        br.transfer_out = self.engine.transfer_time(br.bytes_out, self.pinned);
        if R::ENABLED {
            let out_begin = compute_begin + br.compute.as_nanos();
            rec.span(
                Stage::Transfer,
                out_begin,
                out_begin + br.transfer_out.as_nanos(),
                0,
            );
            rec.record(Event::Count("bytes_d2h", br.bytes_out));
        }

        // --- device lost mid-batch --------------------------------------
        if inj.device_lost(t0 + br.total().as_nanos()) {
            // The device fell off the bus before the results landed:
            // everything in flight is gone, including tasks whose
            // kernels had finished.
            self.lost = true;
            injected(rec, FaultKind::DeviceLost, t0 + br.total().as_nanos(), n);
            let time = br.total() + DEVICE_LOST_DETECT;
            return BatchOutcome::aborted(n, mode, time, br, TaskError::DeviceLost);
        }

        // --- arithmetic --------------------------------------------------
        let results: Vec<Option<Tensor>> = match mode {
            ExecMode::Timing => Vec::new(),
            ExecMode::Full => {
                // `failed` is in task order, so one pass beside the
                // tasks finds the launched ones.
                let mut dead = failed.iter().map(|&(i, _)| i).peekable();
                let computes: Vec<bool> = (0..n)
                    .map(|i| dead.next_if_eq(&i).is_none() && tasks[i].s.is_some())
                    .collect();
                let live: Vec<&TransformTask> = tasks
                    .iter()
                    .zip(&computes)
                    .filter_map(|(t, &c)| c.then_some(t))
                    .collect();
                let mut rs =
                    Workspace::with(|ws| execute_tasks(&live, false, ws.scratch())).into_iter();
                computes
                    .iter()
                    .map(|&c| if c { rs.next() } else { None })
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
    #[should_panic(expected = "at most 16 streams")]
    fn a_device_refuses_more_streams_than_it_books() {
        let spec = DeviceSpec {
            max_streams: MAX_LANES + 1,
            ..DeviceSpec::default()
        };
        GpuDevice::new(spec, MAX_LANES + 1);
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
    fn estimate_is_kernels_over_concurrency_plus_both_pinned_transfers() {
        // The Table I shape: d = 3, k = 10, rank 100, on 5 streams.
        let d = device(5);
        let task = TransformTask::shape_only(3, 10, 100, 0);
        let cost = kernel_cost(d.spec(), KernelKind::CustomMtxmq, &task);
        let conc = d.concurrency(cost.sms_used) as u64;
        let engine = TransferEngine::new(d.spec());
        let estimate = d.estimate(KernelKind::CustomMtxmq, &task);
        for b in [1u64, 17, 60] {
            let dma = engine.transfer_time(task.s_bytes() * b, true);
            assert_eq!(
                estimate.time(b),
                cost.duration * b / conc + dma * 2u64,
                "b = {b}"
            );
        }
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
    fn a_reset_keeps_a_lone_walk_for_the_same_table() {
        // A batch of one table walks it on an empty cache; after a
        // reset, a batch of the same table takes that walk back, unless
        // the walk was of the table at another block size. Either way
        // the batch answers as on a new device.
        let task = TransformTask::shape_only(3, 10, 100, 0);
        let batch = vec![task.clone(); 4];
        let wider = vec![TransformTask { k: 12, ..task }; 4];
        let mut d = device(5);
        for (before, taken_back) in [(&batch, true), (&wider, false)] {
            d.reset();
            d.execute_batch(before, KernelKind::CustomMtxmq, ExecMode::Timing);
            d.reset();
            assert!(d.warm.is_some() && d.cache().is_empty());
            let out = d.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
            let mut new = device(5);
            let want = new.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
            assert_eq!((out.time, out.breakdown), (want.time, want.breakdown));
            assert_eq!(d.cache(), new.cache());
            assert_eq!(d.warm.is_none(), taken_back, "k {}", before[0].k);
        }
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
