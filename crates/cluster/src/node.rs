//! One compute node's Apply pipeline (the control flow of the paper's
//! Fig. 3), in CPU-only, GPU-only, or hybrid CPU-GPU mode.
//!
//! The pipeline stages and their resources:
//!
//! * **preprocess** (data-intensive: resolve neighbor + `h` addresses) —
//!   data threads; memory-bound, so its parallelism is capped;
//! * **batching** — compute inputs accumulate per kind; a batch flushes
//!   at `max_batch` tasks, and the end-of-run remainder is a shutdown
//!   drain (`batch_flush_drain` in the journal — no timer fires here);
//! * **dispatcher** — a dedicated CPU thread that rearranges each batch
//!   into the transfer buffers and splits it CPU/GPU at
//!   `k* = n/(m+n)` from the model-estimated batch times, where the
//!   GPU-only `n` includes both DMA transfers (the runtime's one
//!   [`Dispatcher`], which the real Apply pipeline calls too);
//! * **compute** — CPU worker threads and/or the simulated GPU
//!   ([`madness_gpusim::GpuDevice`], which models streams, transfers and
//!   the write-once cache);
//! * **postprocess** (accumulate results into the tree) — data threads.
//!
//! The pipelined modes run as one private `NodeRun` whose methods are
//! these stages (DESIGN.md §9); CPU-only is a closed form.
//!
//! The report separates compute, data, dispatch and transfer time so the
//! experiment harness can print the paper's "Actual" and "Optimal
//! CPU-GPU Overlap" columns and exhibit both deviations the paper
//! discusses (§III-A): actual > optimal for small batches (dispatch +
//! batch-quantization overheads) and actual < optimal ("super-optimal")
//! when the data-intensive fraction inflates the measured `m` and `n`.

use crate::des::FifoResource;
use crate::workload::WorkloadSpec;
use madness_faults::{
    CircuitBreaker, FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, GpuGate,
    RecoveryPolicy, TaskError,
};
use madness_gpusim::{
    BatchEstimate, DeviceSpec, ExecMode, GpuDevice, KernelKind, PinnedBufferPool, SimTime,
    TransformTask,
};
use madness_runtime::{BatcherConfig, CpuModel, Dispatcher, SplitPlan, SplitPolicy, TaskKind};
use madness_trace::{Event, NullRecorder, Point, Recorder, Stage};
use std::cell::RefCell;

/// Which execution resources the node uses.
#[derive(Clone, Copy, Debug)]
pub enum ResourceMode {
    /// All compute on CPU threads (the paper's baseline columns).
    CpuOnly {
        /// Compute threads.
        threads: usize,
    },
    /// All compute on the GPU; CPU threads only feed data.
    GpuOnly {
        /// CUDA streams.
        streams: usize,
        /// Kernel implementation.
        kernel: KernelKind,
        /// CPU threads dedicated to data access (Table I used 12).
        data_threads: usize,
    },
    /// The paper's contribution: compute split CPU ∥ GPU.
    Hybrid {
        /// CPU compute threads (Table I: 10).
        compute_threads: usize,
        /// CPU data threads (the rest, minus the dispatcher).
        data_threads: usize,
        /// CUDA streams (Table I: 5).
        streams: usize,
        /// Kernel implementation.
        kernel: KernelKind,
    },
    /// Hybrid with the split **learned online** instead of taken from the
    /// a-priori models: a per-kind EWMA cost model is fed by the
    /// simulated CPU and GPU batch times, bootstrapped by a 50/50 probe
    /// flush, with hysteresis ([`madness_runtime::AdaptiveDispatcher`])
    /// — the loop the real pipeline's `ApplyResource::Adaptive` runs on
    /// the same clock. Converges to the static `k*` without ever being
    /// told `m` or `n`.
    AdaptiveHybrid {
        /// CPU compute threads.
        compute_threads: usize,
        /// CPU data threads.
        data_threads: usize,
        /// CUDA streams.
        streams: usize,
        /// Kernel implementation.
        kernel: KernelKind,
    },
}

impl ResourceMode {
    /// The paper's Table I hybrid — 10 compute threads, 5 data threads,
    /// 5 CUDA streams, the custom `mtxmq` kernel — and the one node
    /// configuration every pinned cluster, serving and DAG scenario runs.
    pub const TABLE1_HYBRID: ResourceMode = ResourceMode::Hybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    };
}

/// Data-intensive work (preprocess + postprocess) per task, as a
/// fraction of that task's full CPU compute time (calibration record in
/// EXPERIMENTS.md).
const DATA_FRACTION: f64 = 0.12;

/// Data work is memory-bound: it scales only to this many threads.
const DATA_THREADS_CAP: usize = 4;

/// Dispatcher cost to rearrange one task into the transfer buffers.
const DISPATCH_PER_TASK: SimTime = SimTime::from_micros(15);

/// The hardware and batching a node runs with.
#[derive(Clone, Debug, Default)]
pub struct NodeParams {
    /// CPU timing model.
    pub cpu: CpuModel,
    /// GPU device spec.
    pub gpu: DeviceSpec,
    /// Batch flush policy.
    pub batch: BatcherConfig,
}

/// Timing report of one node's run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeReport {
    /// End-to-end simulated time.
    pub total: SimTime,
    /// Aggregate CPU compute busy time.
    pub cpu_compute: SimTime,
    /// Aggregate GPU busy time (kernels + transfers).
    pub gpu_busy: SimTime,
    /// Aggregate data-intensive (pre/post) busy time.
    pub data_busy: SimTime,
    /// Aggregate dispatcher busy time.
    pub dispatch_busy: SimTime,
    /// Batches flushed.
    pub n_batches: u64,
    /// Average CPU share `k` the dispatcher chose (hybrid only).
    pub mean_split_k: f64,
}

/// Recovery bookkeeping of one fault-aware node run
/// ([`NodeSim::simulate_faulty`]).
///
/// The cardinal conservation law: every task completes exactly once, so
/// `completed_cpu + completed_gpu + lost` equals the run's task count —
/// [`FaultSummary::conserved`] checks it, the chaos proptests enforce it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Task-level GPU failures observed (a task retried twice counts
    /// twice).
    pub gpu_task_failures: u64,
    /// GPU batch retry attempts (each after a backoff).
    pub gpu_retries: u64,
    /// Tasks recovered by falling back to the CPU.
    pub cpu_fallback_tasks: u64,
    /// Batch timeouts detected. The batch's tasks completed (late) and
    /// are **not** re-run — detection only dings device health.
    pub timeouts_detected: u64,
    /// Quarantines entered.
    pub quarantines: u64,
    /// Probing re-admissions out of quarantine.
    pub readmissions: u64,
    /// Tasks whose compute completed on the GPU.
    pub completed_gpu: u64,
    /// Tasks whose compute completed on the CPU (planned share plus
    /// fallbacks).
    pub completed_cpu: u64,
    /// Tasks that completed nowhere. Stays 0 as long as the CPU
    /// emergency path exists; reported so a regression is loud.
    pub lost: u64,
    /// Network messages dropped and retransmitted (cluster level).
    pub dropped_messages: u64,
}

impl FaultSummary {
    /// Task conservation: every one of `n_tasks` accounted exactly once.
    pub fn conserved(&self, n_tasks: u64) -> bool {
        self.completed_cpu + self.completed_gpu + self.lost == n_tasks
    }

    /// Accumulates another node's summary (cluster aggregation).
    pub fn absorb(&mut self, other: &FaultSummary) {
        self.gpu_task_failures += other.gpu_task_failures;
        self.gpu_retries += other.gpu_retries;
        self.cpu_fallback_tasks += other.cpu_fallback_tasks;
        self.timeouts_detected += other.timeouts_detected;
        self.quarantines += other.quarantines;
        self.readmissions += other.readmissions;
        self.completed_gpu += other.completed_gpu;
        self.completed_cpu += other.completed_cpu;
        self.lost += other.lost;
        self.dropped_messages += other.dropped_messages;
    }
}

/// Marginal-rate summary of one node's pipeline, extracted by
/// [`NodeSim::calibrate`] for the cluster balance DES
/// ([`crate::balance`]): a node executing `n` tasks finishes at about
/// `startup + n × per_task`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRate {
    /// Fixed pipeline fill/drain overhead.
    pub startup: SimTime,
    /// Marginal steady-state time per task.
    pub per_task: SimTime,
}

/// Everything the fault-aware pipeline threads through one run.
struct FaultCtx {
    inj: FaultInjector,
    policy: RecoveryPolicy,
    /// The device's health ladder: quarantine, probe, re-admission.
    health: CircuitBreaker,
    summary: FaultSummary,
    /// False under an inert plan (the fault-free entry points): the
    /// timeout detector in [`NodeRun::batch_ok`] is bypassed, and nothing
    /// else is. The fork guards real behaviour: the learned dispatcher's
    /// timeout detector fires on healthy devices (ROADMAP item 2, finding
    /// (a) — a one-task GPU share costs a whole kernel, over 4 × what a
    /// per-task EWMA learned from a stream-filling probe expects), so
    /// without it a fault-free `AdaptiveHybrid` run can journal a
    /// `StreamStall / Detected` with nothing injected.
    /// `tests/fault_free_identity.rs` pins such a run
    /// (`armed_plan_that_never_fires_still_detects_a_timeout`).
    active: bool,
}

impl FaultCtx {
    fn new(plan: &FaultPlan, policy: RecoveryPolicy) -> Self {
        policy.validate();
        let inj = FaultInjector::new(plan);
        FaultCtx {
            active: !inj.is_inert(),
            inj,
            policy,
            health: CircuitBreaker::new(),
            summary: FaultSummary::default(),
        }
    }
}

/// The set-up a pipelined run takes over from the last run on its
/// thread, as the paper's node sets up its GPU state once and reuses
/// it for every batch: the device and the population's shape task. In
/// the idiom of [`madness_tensor::Workspace`], each thread (each
/// executor worker of a cluster run) has its own, so what a run sees
/// never depends on which run went before it on the thread.
struct NodeWorkspace {
    /// The last run's device, handed back by [`NodeRun::run`].
    device: Option<GpuDevice>,
    /// The last shape task built, with the spec it was built for.
    shape: Option<(WorkloadSpec, TransformTask)>,
}

thread_local! {
    static NODE_WORKSPACE: RefCell<NodeWorkspace> = const {
        RefCell::new(NodeWorkspace {
            device: None,
            shape: None,
        })
    };
}

impl NodeWorkspace {
    /// A device in the state `GpuDevice::new(spec.clone(), streams)`
    /// leaves: the thread's last one, [`GpuDevice::reset`] (which checks
    /// it against a new one where debug assertions are on), if it has
    /// that spec and stream count; a new one otherwise.
    fn device(spec: &DeviceSpec, streams: usize) -> GpuDevice {
        match NODE_WORKSPACE.with(|ws| ws.borrow_mut().device.take()) {
            Some(mut device) if device.spec() == spec && device.streams() == streams => {
                device.reset();
                device
            }
            _ => GpuDevice::new(spec.clone(), streams),
        }
    }

    /// Keeps `device` for the thread's next run.
    fn give_back(device: GpuDevice) {
        NODE_WORKSPACE.with(|ws| ws.borrow_mut().device = Some(device));
    }

    /// Timing-only task for `spec`, carrying effective ranks when the
    /// workload uses rank reduction (inert on Fermi-class devices,
    /// active under Kepler dynamic parallelism — the paper's future
    /// work). Built when the spec differs from the last one asked for
    /// on this thread; otherwise a clone of that one, an `Arc` bump on
    /// its term table.
    fn shape_task(spec: &WorkloadSpec) -> TransformTask {
        NODE_WORKSPACE.with(|ws| {
            let shape = &mut ws.borrow_mut().shape;
            match shape {
                Some((built_for, task)) if built_for == spec => task.clone(),
                _ => {
                    let task = match spec.rr_mean_rank {
                        Some(kr) => TransformTask::shape_only_rr(spec.d, spec.k, spec.rank, 0, kr),
                        None => TransformTask::shape_only(spec.d, spec.k, spec.rank, 0),
                    };
                    *shape = Some((*spec, task.clone()));
                    task
                }
            }
        })
    }
}

/// What the three pipelined modes hand [`NodeRun`].
struct Lanes {
    /// CPU compute threads; GPU-only has one emergency host thread.
    compute_threads: usize,
    data_threads: usize,
    streams: usize,
    kernel: KernelKind,
    /// `Gpu`, `Hybrid` or `Adaptive`.
    policy: SplitPolicy,
}

/// Simulator for a single compute node.
#[derive(Clone, Debug)]
pub struct NodeSim {
    params: NodeParams,
}

impl NodeSim {
    /// A node with the given parameters.
    pub fn new(params: NodeParams) -> Self {
        NodeSim { params }
    }

    /// The node's parameters.
    pub fn params(&self) -> &NodeParams {
        &self.params
    }

    /// Per-task data-intensive time (preprocess + postprocess).
    fn data_per_task(&self, spec: &WorkloadSpec) -> SimTime {
        let full = self.params.cpu.task_time(spec.task_flops(), spec.d, spec.k);
        full * DATA_FRACTION
    }

    /// Effective parallel throughput divisor for data threads.
    fn data_eff(&self, threads: usize) -> f64 {
        self.params
            .cpu
            .effective_threads(threads.clamp(1, DATA_THREADS_CAP))
    }

    /// Simulates `n_tasks` homogeneous tasks; returns the timing report.
    /// This is [`NodeSim::simulate_faulty`] untraced and fault-free.
    pub fn simulate(&self, spec: &WorkloadSpec, n_tasks: u64, mode: ResourceMode) -> NodeReport {
        self.simulate_faulty(
            spec,
            n_tasks,
            mode,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            &mut NullRecorder,
        )
        .0
    }

    /// [`NodeSim::simulate`] with tracing and a fault plan.
    ///
    /// Tracing journals every pipeline stage (preprocess, batch flushes,
    /// dispatch, transfers, kernels, CPU compute, postprocess) into `rec`
    /// along with the batcher/cache/pool counters and the dispatcher's
    /// split-ratio history; the report is bit-identical whatever the
    /// recorder.
    ///
    /// Faults from `plan` are injected into the pipeline, and the node
    /// recovers per `policy` — failed GPU batches retry with capped
    /// exponential backoff, exhausted retries fall back to the CPU,
    /// repeated failures quarantine the device behind a probing
    /// re-admission gate, and a straggler multiplier slows the whole
    /// node. Every fault/retry/fallback/quarantine/re-admission is
    /// journaled through `rec` as a [`FaultEvent`]. [`FaultPlan::none`]
    /// bypasses all of it: that is how `simulate` runs.
    pub fn simulate_faulty<R: Recorder>(
        &self,
        spec: &WorkloadSpec,
        n_tasks: u64,
        mode: ResourceMode,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
        rec: &mut R,
    ) -> (NodeReport, FaultSummary) {
        let mut ctx = FaultCtx::new(plan, policy);
        let report = self.simulate_inner(spec, n_tasks, mode, rec, &mut ctx);
        (report, ctx.summary)
    }

    /// Calibrates the node's marginal task rate under `mode` and `plan`
    /// by simulating two populations (`c` and `2c` tasks, with
    /// `c = 20 × max_batch`) and taking the slope — batch quantization
    /// and pipeline fill cancel out of the difference, leaving the
    /// steady-state cost the cluster balance DES charges per migrated
    /// task. Deterministic: the fault injector is a stateless hash, so
    /// repeated calibrations agree bit-for-bit.
    pub fn calibrate(
        &self,
        spec: &WorkloadSpec,
        mode: ResourceMode,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
    ) -> NodeRate {
        let c = (20 * self.params.batch.max_batch as u64).max(1);
        let (r1, _) = self.simulate_faulty(spec, c, mode, plan, policy, &mut NullRecorder);
        let (r2, _) = self.simulate_faulty(spec, 2 * c, mode, plan, policy, &mut NullRecorder);
        // A degenerate zero rate would let the DES hand out work for
        // free; clamp to one tick per task.
        let per_task = (r2.total.saturating_sub(r1.total) / c).max(SimTime::from_nanos(1));
        let startup = r1.total.saturating_sub(per_task * c);
        NodeRate { startup, per_task }
    }

    /// GPU-only and the two hybrids share the pipelined path
    /// ([`NodeRun`]); CPU-only is a closed form.
    fn simulate_inner<R: Recorder>(
        &self,
        spec: &WorkloadSpec,
        n_tasks: u64,
        mode: ResourceMode,
        rec: &mut R,
        ctx: &mut FaultCtx,
    ) -> NodeReport {
        if n_tasks == 0 {
            return NodeReport::default();
        }
        let lanes = match mode {
            ResourceMode::CpuOnly { threads } => {
                return self.simulate_cpu_only(spec, n_tasks, threads, rec, ctx)
            }
            ResourceMode::GpuOnly {
                streams,
                kernel,
                data_threads,
            } => Lanes {
                compute_threads: 1,
                data_threads,
                streams,
                kernel,
                policy: SplitPolicy::Gpu,
            },
            ResourceMode::Hybrid {
                compute_threads,
                data_threads,
                streams,
                kernel,
            }
            | ResourceMode::AdaptiveHybrid {
                compute_threads,
                data_threads,
                streams,
                kernel,
            } => Lanes {
                compute_threads,
                data_threads,
                streams,
                kernel,
                policy: if matches!(mode, ResourceMode::AdaptiveHybrid { .. }) {
                    SplitPolicy::Adaptive
                } else {
                    SplitPolicy::Hybrid
                },
            },
        };
        NodeRun::new(self, spec, lanes, rec, ctx).run(n_tasks)
    }

    /// CPU-only: data work and compute share the same worker threads, so
    /// the two phases serialize (closed form; no pipeline to simulate).
    fn simulate_cpu_only<R: Recorder>(
        &self,
        spec: &WorkloadSpec,
        n_tasks: u64,
        threads: usize,
        rec: &mut R,
        ctx: &mut FaultCtx,
    ) -> NodeReport {
        // The only fault class that touches a CPU-only node is the
        // slow-node straggler; `scale(1.0)` is the identity, bit-exactly.
        let straggler = ctx.inj.straggler_multiplier();
        let compute = self
            .params
            .cpu
            .batch_time(
                n_tasks as usize,
                spec.task_flops_cpu(),
                spec.d,
                spec.k,
                spec.rank,
                threads,
            )
            .scale(straggler);
        let data_each = self.data_per_task(spec);
        let data = SimTime::from_secs_f64(
            data_each.as_secs_f64() * n_tasks as f64 / self.data_eff(threads),
        )
        .scale(straggler);
        ctx.summary.completed_cpu += n_tasks;
        if R::ENABLED {
            // The serialized phases, with the data time split 60/40 into
            // pre/post as in the pipelined path (post is the exact
            // complement so the spans tile [0, total] without a rounding
            // gap).
            let pre = data * 0.6;
            let post = data - pre;
            let t1 = pre.as_nanos();
            let t2 = t1 + compute.as_nanos();
            rec.span(Stage::Preprocess, 0, t1, 0);
            rec.span(Stage::CpuCompute, t1, t2, 0);
            rec.span(Stage::Postprocess, t2, t2 + post.as_nanos(), 0);
            rec.record(Event::Count("tasks_total", n_tasks));
            rec.record(Event::Count("tasks_cpu", n_tasks));
        }
        NodeReport {
            total: compute + data,
            cpu_compute: compute,
            data_busy: data,
            n_batches: n_tasks.div_ceil(self.params.batch.max_batch as u64),
            ..NodeReport::default()
        }
    }
}

/// Kind key of the learned dispatcher's cost model: the simulated
/// population is homogeneous, so every flush shares one.
const SIM_KIND: TaskKind = TaskKind::new(0x51D, 0);

/// One run of the pipelined modes: Fig. 3's stages as methods over the
/// run's inputs, what is derived from them once, the resources the
/// stages book and the ledgers the [`NodeReport`] is read from.
struct NodeRun<'a, R: Recorder> {
    params: &'a NodeParams,
    spec: &'a WorkloadSpec,
    lanes: Lanes,
    rec: &'a mut R,
    ctx: &'a mut FaultCtx,

    /// A straggler node runs everything slower — data threads,
    /// dispatcher, device, CPU workers. `scale(1.0)` is bit-exact
    /// identity, so a non-straggler plan perturbs nothing.
    straggler: f64,
    /// When the pinned staging buffers are page-locked — once, up front,
    /// on the device-management thread, concurrently with CPU-side work.
    /// Only the dispatcher's packing into those buffers (and hence
    /// everything downstream on the GPU) waits for it; preprocess and
    /// the CPU compute share never do. (Charging the setup to the whole
    /// pipeline made hybrid mode pay a 2 ms entry fee on microscopic
    /// workloads the dispatcher routes entirely to the CPU — the
    /// committed cc 48b56d… proptest regression.)
    pool_ready: SimTime,
    /// Per-task preprocess / postprocess time on one data lane.
    pre_each: SimTime,
    post_each: SimTime,
    flops_cpu: u64,
    /// The population is homogeneous: one shape task, from the thread's
    /// [`NodeWorkspace`], and every simulated GPU task is a clone of it
    /// — an `Arc` bump on its term table, which is also what lets the
    /// device see each flush as one run. The buffer is reused across
    /// flushes and retries.
    shape: TransformTask,
    gpu_tasks: Vec<TransformTask>,
    /// Steady-state estimate of a GPU batch (h blocks assumed cached) —
    /// what the a-priori dispatcher "knows" about relative GPU
    /// performance.
    gpu_estimate: BatchEstimate,

    data_res: FifoResource,
    dispatch_lane: FifoResource,
    /// Batches serialize on the device.
    gpu_res: FifoResource,
    /// CPU compute is one fluid lane.
    cpu_res: FifoResource,
    device: GpuDevice,
    /// The split, told the mode's policy once.
    dispatcher: Dispatcher,
    /// Most recent fault cause — labels device-lifecycle journal entries
    /// (quarantine, readmission) with what provoked them.
    last_fault_kind: FaultKind,

    n_batches: u64,
    split_acc: f64,
    cpu_busy: SimTime,
    gpu_busy: SimTime,
    /// `(ready at, tasks)` of every compute share awaiting postprocess.
    post_release: Vec<(SimTime, u64)>,
}

impl<'a, R: Recorder> NodeRun<'a, R> {
    fn new(
        node: &'a NodeSim,
        spec: &'a WorkloadSpec,
        lanes: Lanes,
        rec: &'a mut R,
        ctx: &'a mut FaultCtx,
    ) -> Self {
        let p = &node.params;
        let straggler = ctx.inj.straggler_multiplier();
        let device = NodeWorkspace::device(&p.gpu, lanes.streams.max(1));
        let pool = PinnedBufferPool::new(&p.gpu, 4, 32 << 20);
        let pool_ready = pool.setup_cost().scale(straggler);
        if R::ENABLED {
            // The page-lock DMA setup occupies the transfer path up front.
            rec.span(Stage::Transfer, 0, pool_ready.as_nanos(), 0);
            rec.record(Event::Gauge("pinned_pool_capacity_bytes", pool.capacity()));
        }
        let data_each = node.data_per_task(spec);
        let data_lanes = lanes.data_threads.clamp(1, DATA_THREADS_CAP);
        // Memory-bound data threads: lanes beyond the cap add nothing;
        // contention inside the cap comes from the CPU model.
        let lane_slowdown = data_lanes as f64 / p.cpu.effective_threads(data_lanes);
        let shape = NodeWorkspace::shape_task(spec);
        NodeRun {
            straggler,
            pool_ready,
            pre_each: (data_each * 0.6 * lane_slowdown).scale(straggler),
            post_each: (data_each * 0.4 * lane_slowdown).scale(straggler),
            flops_cpu: spec.task_flops_cpu(),
            gpu_estimate: device.estimate(lanes.kernel, &shape),
            shape,
            gpu_tasks: Vec::new(),
            data_res: FifoResource::new(data_lanes),
            dispatch_lane: FifoResource::new(1),
            gpu_res: FifoResource::new(1),
            cpu_res: FifoResource::new(1),
            device,
            dispatcher: Dispatcher::new(lanes.policy),
            last_fault_kind: FaultKind::StreamStall,
            n_batches: 0,
            split_acc: 0.0,
            cpu_busy: SimTime::ZERO,
            gpu_busy: SimTime::ZERO,
            post_release: Vec::new(),
            params: p,
            spec,
            lanes,
            rec,
            ctx,
        }
    }

    /// Runs `n_tasks > 0` (the caller answers an empty run itself)
    /// through the pipeline and reads the report off the ledgers. The
    /// loop is the one place a flush size is chosen: one kind today, so
    /// full batches and an end-of-run drain (ROADMAP item 7 (b)'s
    /// per-kind flush goes here).
    fn run(mut self, n_tasks: u64) -> NodeReport {
        if R::ENABLED {
            self.rec.record(Event::Count("tasks_total", n_tasks));
        }
        let batch_cap = self.params.batch.max_batch as u64;
        let mut remaining = n_tasks;
        while remaining > 0 {
            let b = remaining.min(batch_cap);
            remaining -= b;
            self.flush(b, b == batch_cap);
        }
        self.ctx.summary.quarantines = self.ctx.health.trips();
        self.ctx.summary.readmissions = self.ctx.health.closes();
        self.postprocess();
        let report = NodeReport {
            total: self
                .data_res
                .makespan()
                .max(self.dispatch_lane.makespan())
                .max(self.gpu_res.makespan())
                .max(self.cpu_res.makespan()),
            cpu_compute: self.cpu_busy,
            gpu_busy: self.gpu_busy,
            data_busy: self.data_res.busy_time(),
            dispatch_busy: self.dispatch_lane.busy_time(),
            n_batches: self.n_batches,
            mean_split_k: self.split_acc / self.n_batches as f64,
        };
        NodeWorkspace::give_back(self.device);
        report
    }

    /// One batch of `b` tasks through Fig. 3: preprocess → health gate →
    /// dispatcher split → GPU share ∥ CPU share → learned feedback. The
    /// GPU share is booked first: a remainder it hands back queues on
    /// the CPU lane ahead of this flush's planned share.
    fn flush(&mut self, b: u64, full: bool) {
        self.n_batches += 1;
        let release = self.preprocess(b, full);
        let gate = self.gate(release);
        let plan = self.split(b, gate);
        let (gpu_done, gpu_ns) = self.gpu_share(release, plan.gpu_tasks as u64);
        // The CPU share is handed straight to the worker queue — it
        // never touches the transfer buffers, so it costs the
        // dispatcher nothing.
        let cpu_ns = if plan.cpu_tasks > 0 {
            if R::ENABLED {
                self.rec
                    .record(Event::Count("tasks_cpu", plan.cpu_tasks as u64));
            }
            self.cpu_share(release, plan.cpu_tasks as u64).as_nanos()
        } else {
            0
        };
        // Close the loop: this flush's simulated batch times are the
        // learned dispatcher's measurements for the next one. Only tasks
        // that actually completed on the GPU count as GPU samples — a
        // flush whose GPU share all failed teaches the health ladder, not
        // the cost model.
        let (cpu, gpu) = ((plan.cpu_tasks, cpu_ns), (gpu_done as usize, gpu_ns));
        self.dispatcher.record(SIM_KIND, cpu, gpu);
    }

    /// Preprocesses the batch's tasks on the data lanes; returns when the
    /// last input is ready, which is when the batch flushes — by the
    /// size trigger at a `full` batch; the end-of-run remainder is a
    /// shutdown drain, not a timer expiry.
    fn preprocess(&mut self, b: u64, full: bool) -> SimTime {
        let release = self.data_lanes(Stage::Preprocess, SimTime::ZERO, self.pre_each, b);
        if R::ENABLED {
            self.rec.record(Event::Point(Point {
                stage: Stage::Batch,
                at_ns: release.as_nanos(),
                value: b,
            }));
            self.rec.record(Event::Count(
                if full {
                    "batch_flush_size"
                } else {
                    "batch_flush_drain"
                },
                1,
            ));
        }
        release
    }

    /// Device-health gate, asked of the ladder at `release`: a
    /// quarantine (open breaker) closes the GPU; an expired one
    /// (half-open) admits one probe task. A lost device is revived
    /// (driver reset) when its quarantine expires. Under an inert plan
    /// the breaker never leaves closed and the device is never lost, so
    /// this answers `Open`.
    fn gate(&mut self, release: SimTime) -> GpuGate {
        let gate = self.ctx.health.gate(release.as_nanos());
        if gate != GpuGate::Closed && self.device.is_lost() {
            self.device.revive();
        }
        gate
    }

    /// Split decision at batch-flush time, the runtime dispatcher's: the
    /// gate's override — Closed routes the flush to the CPU (one
    /// emergency host thread when the mode has no compute threads),
    /// Probe sends a single canary task to the GPU — else the learned
    /// split, the a-priori `k*` from the CPU model and the GPU estimate,
    /// or everything to the GPU.
    fn split(&mut self, b: u64, gate: GpuGate) -> SplitPlan {
        let (cpu, gpu) = (self.cpu_time(), &self.gpu_estimate);
        let apriori = || (cpu(b), gpu.time(b));
        let (plan, k) = self
            .dispatcher
            .plan(SIM_KIND, b as usize, gate, &mut *self.rec, apriori);
        self.split_acc += k;
        plan
    }

    /// The GPU share: the dispatcher rearranges it into the pinned
    /// transfer buffers (it must wait for the page-locks), then the
    /// device runs it. Under faults a batch may come back with failed
    /// tasks: those retry (whole failed remainder, after a jittered
    /// backoff) up to the policy's cap — unless the failure quarantined
    /// the device — then fall back to the CPU so no task is ever lost.
    /// Returns `(tasks completed on the GPU, device nanoseconds)`, the
    /// learned dispatcher's sample.
    fn gpu_share(&mut self, release: SimTime, gpu_n: u64) -> (u64, u64) {
        if gpu_n == 0 {
            return (0, 0);
        }
        let (disp_start, disp_end) = self.dispatch_lane.serve(
            release.max(self.pool_ready),
            (DISPATCH_PER_TASK * gpu_n).scale(self.straggler),
        );
        if R::ENABLED {
            self.rec.span(
                Stage::Dispatch,
                disp_start.as_nanos(),
                disp_end.as_nanos(),
                0,
            );
            self.rec.record(Event::Count("tasks_gpu", gpu_n));
        }
        let mut pending = gpu_n;
        let mut submit = disp_end;
        let mut attempt = 0u32;
        let mut done = 0u64;
        let mut busy_ns = 0u64;
        loop {
            let (gend, gtime, failed) = self.attempt(pending, submit);
            busy_ns += gtime.as_nanos();
            let n_failed = failed.len() as u64;
            if n_failed < pending {
                done += pending - n_failed;
                self.post_release.push((gend, pending - n_failed));
            }
            let at = gend.as_nanos();
            let Some(&(_, cause)) = failed.first() else {
                self.batch_ok(at, pending, gtime);
                break;
            };
            self.ctx.summary.gpu_task_failures += n_failed;
            self.last_fault_kind = cause.kind();
            let quarantined = self.batch_failed(at, n_failed);
            let policy = self.ctx.policy;
            if !quarantined && attempt < policy.max_retries {
                self.fault(FaultAction::Retried, at, n_failed);
                self.ctx.summary.gpu_retries += 1;
                submit = gend + SimTime::from_nanos(policy.backoff_ns(attempt, self.n_batches));
                attempt += 1;
                pending = n_failed;
                continue;
            }
            self.fault(FaultAction::CpuFallback, at, n_failed);
            self.ctx.summary.cpu_fallback_tasks += n_failed;
            self.cpu_share(gend, n_failed);
            break;
        }
        self.ctx.summary.completed_gpu += done;
        (done, busy_ns)
    }

    /// One device attempt at `pending` tasks submitted at `submit`,
    /// through the real device model (its write-once cache makes the
    /// first batch pay for the h blocks and later batches ride free).
    /// Returns when it ended, how long it held the device, and the
    /// tasks that did not complete.
    fn attempt(
        &mut self,
        pending: u64,
        submit: SimTime,
    ) -> (SimTime, SimTime, Vec<(usize, TaskError)>) {
        self.gpu_tasks.resize(pending as usize, self.shape.clone());
        // The device journals its own transfer/kernel spans; it needs
        // the batch's absolute start, which for the 1-lane GPU resource
        // is what `serve` will hand back below.
        let batch_start = self.gpu_res.next_start(submit);
        let out = self.device.execute_batch_injected(
            &self.gpu_tasks,
            self.lanes.kernel,
            ExecMode::Timing,
            batch_start,
            self.rec,
            &mut self.ctx.inj,
        );
        let gtime = out.time.scale(self.straggler);
        self.gpu_busy += gtime;
        let (gstart, gend) = self.gpu_res.serve(submit, gtime);
        debug_assert_eq!(gstart, batch_start);
        if R::ENABLED {
            self.rec.record(Event::Gauge(
                "pinned_pool_hwm_bytes",
                out.breakdown.bytes_s + out.breakdown.bytes_h,
            ));
        }
        (gend, gtime, out.failed)
    }

    /// A whole batch of `tasks` came back at `at_ns` (fault-aware runs
    /// only). One that blew the learned cost model's expectation is
    /// *detected* — a health penalty only, never a re-run: its tasks
    /// finished, re-executing them would break conservation. Any other
    /// counts as a success, which readmits a probing device.
    fn batch_ok(&mut self, at_ns: u64, tasks: u64, gtime: SimTime) {
        if !self.ctx.active {
            return;
        }
        if self
            .dispatcher
            .timed_out(SIM_KIND, tasks as usize, gtime.as_nanos())
        {
            self.ctx.summary.timeouts_detected += 1;
            self.rec.record(Event::Fault(FaultEvent {
                kind: FaultKind::StreamStall,
                action: FaultAction::Detected,
                at_ns,
                tasks,
            }));
            self.ctx.health.on_failure(at_ns);
        } else if self.ctx.health.on_success(at_ns) {
            self.fault(FaultAction::Readmitted, at_ns, tasks);
            // The device behind the old n̂ was reset; re-probe it.
            self.dispatcher.readmitted(SIM_KIND);
        }
    }

    /// A batch came back at `at_ns` with `n_failed` failures: a lost
    /// device is quarantined at once, any other failure counts toward
    /// the threshold. True when this one closed the gate.
    fn batch_failed(&mut self, at_ns: u64, n_failed: u64) -> bool {
        let before = self.ctx.health.trips();
        if self.device.is_lost() {
            self.ctx.health.trip(at_ns);
        } else {
            self.ctx.health.on_failure(at_ns);
        }
        let quarantined = self.ctx.health.trips() > before;
        if quarantined {
            self.fault(FaultAction::Quarantined, at_ns, n_failed);
        }
        quarantined
    }

    /// The one CPU-lane booking: `n` tasks handed to the workers at `at`
    /// — a flush's planned share, or a remainder the GPU gave up on.
    /// Returns the time booked.
    fn cpu_share(&mut self, at: SimTime, n: u64) -> SimTime {
        let dur = self.cpu_time()(n).scale(self.straggler);
        self.cpu_busy += dur;
        let (start, end) = self.cpu_res.serve(at, dur);
        if R::ENABLED {
            self.rec
                .span(Stage::CpuCompute, start.as_nanos(), end.as_nanos(), 0);
        }
        self.ctx.summary.completed_cpu += n;
        self.post_release.push((end, n));
        dur
    }

    /// Model time of `n` tasks on the mode's compute threads, as a
    /// function of `n` that borrows nothing of the run.
    fn cpu_time(&self) -> impl Fn(u64) -> SimTime + 'a {
        let (params, s, flops) = (self.params, self.spec, self.flops_cpu);
        let threads = self.lanes.compute_threads;
        move |n| {
            params
                .cpu
                .batch_time(n as usize, flops, s.d, s.k, s.rank, threads)
        }
    }

    /// Postprocess accumulations on the data lanes, each share's from
    /// when its compute finished.
    fn postprocess(&mut self) {
        for (release, count) in std::mem::take(&mut self.post_release) {
            self.data_lanes(Stage::Postprocess, release, self.post_each, count);
        }
    }

    /// Books `n` items of `each` released at `release` on the data lanes,
    /// journaling one `stage` span an item; returns when the last ends.
    fn data_lanes(&mut self, stage: Stage, release: SimTime, each: SimTime, n: u64) -> SimTime {
        let rec = &mut *self.rec;
        self.data_res
            .serve_many(release, each, n, |lane, start, end| {
                if R::ENABLED {
                    rec.span(stage, start.as_nanos(), end.as_nanos(), lane as u32);
                }
            })
    }

    /// Journals a recovery action under the most recent fault cause.
    fn fault(&mut self, action: FaultAction, at_ns: u64, tasks: u64) {
        self.rec.record(Event::Fault(FaultEvent {
            kind: self.last_fault_kind,
            action,
            at_ns,
            tasks,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_3d_k10() -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: 10,
            rank: 100,
            rr_mean_rank: None,
        }
    }

    fn sim() -> NodeSim {
        NodeSim::new(NodeParams::default())
    }

    #[test]
    fn zero_tasks_is_free() {
        let r = sim().simulate(&spec_3d_k10(), 0, ResourceMode::CpuOnly { threads: 16 });
        assert_eq!(r.total, SimTime::ZERO);
    }

    #[test]
    fn cpu_thread_scaling_shape_of_table1() {
        // Table I CPU column: t(1)/t(16) ≈ 6.7, monotone decreasing.
        let s = spec_3d_k10();
        let n = 24_000;
        let t = |p| {
            sim()
                .simulate(&s, n, ResourceMode::CpuOnly { threads: p })
                .total
                .as_secs_f64()
        };
        let t1 = t(1);
        let mut prev = t1;
        for p in [2, 4, 8, 16] {
            let tp = t(p);
            assert!(tp < prev, "no speedup at {p} threads");
            prev = tp;
        }
        let speedup = t1 / t(16);
        assert!(
            (5.0..8.0).contains(&speedup),
            "16-thread speedup {speedup:.2}"
        );
    }

    #[test]
    fn gpu_stream_scaling_saturates_at_five() {
        let s = spec_3d_k10();
        let n = 6_000;
        let t = |streams| {
            sim()
                .simulate(
                    &s,
                    n,
                    ResourceMode::GpuOnly {
                        streams,
                        kernel: KernelKind::CustomMtxmq,
                        data_threads: 12,
                    },
                )
                .total
                .as_secs_f64()
        };
        let t1 = t(1);
        let t5 = t(5);
        let t6 = t(6);
        assert!(t1 / t5 > 2.0, "stream scaling too weak: {}", t1 / t5);
        assert!((t6 - t5).abs() / t5 < 0.02, "no plateau: {t5} vs {t6}");
    }

    #[test]
    fn hybrid_beats_both_pure_modes() {
        // The paper's headline: hybrid < min(CPU-only, GPU-only).
        let s = spec_3d_k10();
        let n = 24_000;
        let sm = sim();
        let cpu = sm
            .simulate(&s, n, ResourceMode::CpuOnly { threads: 16 })
            .total;
        let gpu = sm
            .simulate(
                &s,
                n,
                ResourceMode::GpuOnly {
                    streams: 5,
                    kernel: KernelKind::CustomMtxmq,
                    data_threads: 12,
                },
            )
            .total;
        let hybrid = sm
            .simulate(
                &s,
                n,
                ResourceMode::Hybrid {
                    compute_threads: 10,
                    data_threads: 5,
                    streams: 5,
                    kernel: KernelKind::CustomMtxmq,
                },
            )
            .total;
        assert!(hybrid < cpu, "hybrid {hybrid} vs cpu {cpu}");
        assert!(hybrid < gpu, "hybrid {hybrid} vs gpu {gpu}");
    }

    #[test]
    fn hybrid_actual_lands_near_optimal_overlap() {
        let s = spec_3d_k10();
        let n = 24_000;
        let sm = sim();
        let m = sm
            .simulate(&s, n, ResourceMode::CpuOnly { threads: 10 })
            .total
            .as_secs_f64();
        let g = sm
            .simulate(
                &s,
                n,
                ResourceMode::GpuOnly {
                    streams: 5,
                    kernel: KernelKind::CustomMtxmq,
                    data_threads: 12,
                },
            )
            .total
            .as_secs_f64();
        let opt = madness_runtime::hybrid_optimal_time(m, g);
        let actual = sm
            .simulate(
                &s,
                n,
                ResourceMode::Hybrid {
                    compute_threads: 10,
                    data_threads: 5,
                    streams: 5,
                    kernel: KernelKind::CustomMtxmq,
                },
            )
            .total
            .as_secs_f64();
        // Table I: actual within ~±30 % of the formula's prediction.
        assert!(
            (actual / opt) > 0.7 && (actual / opt) < 1.5,
            "actual {actual:.2} vs optimal {opt:.2}"
        );
    }

    #[test]
    fn dispatcher_split_favors_faster_side() {
        let s = spec_3d_k10();
        let sm = sim();
        let r = sm.simulate(
            &s,
            6_000,
            ResourceMode::Hybrid {
                compute_threads: 10,
                data_threads: 5,
                streams: 5,
                kernel: KernelKind::CustomMtxmq,
            },
        );
        assert!(r.mean_split_k > 0.05 && r.mean_split_k < 0.95);
        assert!(r.n_batches == 100);
    }

    #[test]
    fn rank_reduction_speeds_cpu_only() {
        // §II-D: up to 2.5× on the CPU.
        let full = spec_3d_k10();
        let rr = WorkloadSpec {
            rr_mean_rank: Some(4),
            ..full
        };
        let sm = sim();
        let n = 6_000;
        let t_full = sm
            .simulate(&full, n, ResourceMode::CpuOnly { threads: 16 })
            .total;
        let t_rr = sm
            .simulate(&rr, n, ResourceMode::CpuOnly { threads: 16 })
            .total;
        let gain = t_full.as_secs_f64() / t_rr.as_secs_f64();
        assert!((1.5..2.6).contains(&gain), "rank-reduction gain {gain:.2}");
    }

    #[test]
    fn rank_reduction_does_not_speed_gpu_custom_kernel() {
        let full = spec_3d_k10();
        let rr = WorkloadSpec {
            rr_mean_rank: Some(4),
            ..full
        };
        let sm = sim();
        let mode = ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        };
        let t_full = sm.simulate(&full, 3_000, mode).total;
        let t_rr = sm.simulate(&rr, 3_000, mode).total;
        assert_eq!(t_full, t_rr, "custom kernel must ignore rank reduction");
    }

    const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;

    #[test]
    fn straggler_slows_the_whole_node() {
        let s = spec_3d_k10();
        let sm = sim();
        let clean = sm.simulate(&s, 4_000, HYBRID).total;
        let (slow, sum) = sm.simulate_faulty(
            &s,
            4_000,
            HYBRID,
            &FaultPlan::none().with_straggler(2.0),
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert!(sum.conserved(4_000), "{sum:?}");
        let ratio = slow.total.as_secs_f64() / clean.as_secs_f64();
        assert!(
            (1.5..2.5).contains(&ratio),
            "2× straggler must roughly double the node: {ratio:.2}"
        );
    }

    #[test]
    fn launch_failures_recover_and_conserve() {
        let s = spec_3d_k10();
        let (report, sum) = sim().simulate_faulty(
            &s,
            4_000,
            HYBRID,
            &FaultPlan::seeded(7).with_launch_fail_rate(0.2),
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert!(sum.conserved(4_000), "{sum:?}");
        assert!(sum.gpu_task_failures > 0, "{sum:?}");
        assert!(
            sum.gpu_retries > 0 || sum.cpu_fallback_tasks > 0,
            "failures must provoke recovery: {sum:?}"
        );
        assert_eq!(sum.lost, 0);
        assert!(report.total > SimTime::ZERO);
    }

    #[test]
    fn gpu_only_mode_falls_back_to_emergency_host_thread() {
        let s = spec_3d_k10();
        let mode = ResourceMode::GpuOnly {
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
            data_threads: 12,
        };
        // Every launch fails: retries are futile, everything must land
        // on the single emergency host thread — and still conserve.
        let (_, sum) = sim().simulate_faulty(
            &s,
            500,
            mode,
            &FaultPlan::seeded(1).with_launch_fail_rate(1.0),
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert!(sum.conserved(500), "{sum:?}");
        assert_eq!(sum.completed_gpu, 0, "{sum:?}");
        assert_eq!(sum.completed_cpu, 500, "{sum:?}");
        assert!(sum.cpu_fallback_tasks > 0);
    }

    #[test]
    fn device_lost_quarantines_then_readmits() {
        let s = spec_3d_k10();
        // Lose the device early; the run is long enough for the
        // quarantine to expire and a probe to re-admit the device.
        let (report, sum) = sim().simulate_faulty(
            &s,
            20_000,
            HYBRID,
            &FaultPlan::none().with_device_lost_at(1_000_000),
            RecoveryPolicy::default(),
            &mut NullRecorder,
        );
        assert!(sum.conserved(20_000), "{sum:?}");
        assert!(sum.quarantines >= 1, "{sum:?}");
        assert!(sum.readmissions >= 1, "{sum:?}");
        assert!(
            sum.completed_gpu > 0,
            "device must do work again after re-admission: {sum:?}"
        );
        assert!(report.total > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1]")]
    fn invalid_policy_rejected() {
        sim().simulate_faulty(
            &spec_3d_k10(),
            10,
            HYBRID,
            &FaultPlan::none(),
            RecoveryPolicy {
                jitter: 2.0,
                ..RecoveryPolicy::default()
            },
            &mut NullRecorder,
        );
    }

    #[test]
    fn fault_events_are_journaled() {
        use madness_trace::MemRecorder;
        let s = spec_3d_k10();
        let mut rec = MemRecorder::new();
        let (_, sum) = sim().simulate_faulty(
            &s,
            2_000,
            HYBRID,
            &FaultPlan::seeded(5).with_launch_fail_rate(0.3),
            RecoveryPolicy::default(),
            &mut rec,
        );
        assert!(sum.conserved(2_000));
        let ev: Vec<_> = rec.faults().collect();
        assert!(!ev.is_empty(), "faults must be journaled");
        assert!(
            ev.iter().any(|e| e.action == FaultAction::Injected),
            "injection events missing"
        );
        assert!(
            ev.iter()
                .any(|e| matches!(e.action, FaultAction::Retried | FaultAction::CpuFallback)),
            "recovery events missing"
        );
    }
}
