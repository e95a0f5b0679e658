//! The Apply operator: Green's-function convolution over a function tree.
//!
//! `apply_cpu_reference` is Algorithm 1/2 verbatim: walk every
//! coefficient node, and for every displacement compute
//! `r = Σ_μ c_μ · s ×₁ h^{(μ,1)} ×₂ … ×_d h^{(μ,d)}` (Formula 1) and
//! accumulate `r` into the neighbor.
//!
//! `apply_batched` is the paper's restructured pipeline (Algorithms 3–6):
//! *preprocess* resolves neighbors and operator-block addresses,
//! *compute* tasks batch per kind and are split between CPU threads and
//! the simulated GPU by the dispatcher's `k* = n/(m+n)` rule,
//! *postprocess* accumulates results. It is asynchronous: the calling
//! thread prepares each source's tasks as it pushes them and never waits
//! for a batch — the CPU share is spawned into the executor in chunks
//! cut where the source tensor changes, so a chunk may span flushes but
//! never cuts a source, and results commit in order as the chunks
//! retire. One run is an `ApplyRun` whose methods are those stages:
//! `dispatch` (preprocess fused into the push loop) → `flush` = `split`
//! → `cpu_share` ∥ `gpu_share`, with `Commit` as postprocess. Both
//! produce identical trees.
//!
//! On the host, both hand one source's displacement tasks to the tensor
//! crate side by side (`transform_sum_accumulate_group`): neighbouring
//! displacements keep their leading `h` blocks, so 41 of the 81 passes
//! a source's 27 tasks make per term are run and the other 40 reuse an
//! intermediate already there — every task's result bit for bit what it
//! computes alone. The walk makes that call itself; every job of the
//! pipeline, CPU chunk or GPU share, makes it through
//! `gpusim::kernel::execute_tasks`. The device still prices each task.

use madness_gpusim::kernel::{execute_tasks, kernel_cost};
use madness_gpusim::{
    ExecMode, GpuDevice, HBlock, KernelKind, SimTime, TransformTask, TransformTerm,
};
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::key::Key;
use madness_mra::ops::sum_down;
use madness_mra::tree::{FunctionTree, TreeForm};
use madness_runtime::{
    AdaptiveConfig, AdaptiveDispatcher, Batcher, BatcherConfig, CpuModel, SplitPlan, TaskKind,
};
use madness_tensor::{transform_sum_accumulate_group, Tensor, Term, Workspace};
use madness_trace::{NullRecorder, Recorder};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Which resources execute the compute batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyResource {
    /// CPU threads only (rayon pool).
    Cpu,
    /// Simulated GPU only.
    Gpu,
    /// Dispatcher-split CPU + GPU at the static a-priori optimum: `k*`
    /// from the calibrated CPU model and the device's kernel cost model
    /// (the paper's hybrid, told `m` and `n` in advance).
    Hybrid,
    /// Dispatcher-split CPU + GPU with the split **learned online**: a
    /// per-kind EWMA cost model fed by measured CPU wall time and
    /// simulated GPU batch time, bootstrapped by a 50/50 probe flush,
    /// with hysteresis and stream-queue backpressure
    /// ([`AdaptiveDispatcher`]). Never consults the a-priori models.
    Adaptive,
}

/// Configuration of a batched Apply run.
#[derive(Clone, Debug)]
pub struct ApplyConfig {
    /// Compute resource.
    pub resource: ApplyResource,
    /// Batch flush policy (the paper's experiments use 60).
    pub batch: BatcherConfig,
    /// GPU kernel implementation (`None` = auto-select by shape).
    pub kernel: Option<KernelKind>,
    /// CUDA streams for the GPU path.
    pub streams: usize,
    /// CPU compute threads assumed by the dispatcher's split estimate.
    pub threads: usize,
    /// Rank-reduction threshold for the CPU path (`None` = off).
    ///
    /// Rank reduction is an approximation; enabling it makes CPU results
    /// differ from the exact GPU results by O(eps), exactly as in
    /// MADNESS.
    pub rank_reduce_eps: Option<f64>,
}

impl Default for ApplyConfig {
    fn default() -> Self {
        ApplyConfig {
            resource: ApplyResource::Hybrid,
            batch: BatcherConfig::default(),
            kernel: None,
            streams: 5,
            threads: 10,
            rank_reduce_eps: None,
        }
    }
}

/// Statistics of a batched Apply run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyStats {
    /// Compute tasks executed (node × displacement pairs).
    pub tasks: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Tasks the CPU side computed.
    pub cpu_tasks: u64,
    /// Tasks the GPU side computed.
    pub gpu_tasks: u64,
    /// CPU chunks spawned: one executor job (run inline without a pool)
    /// and one commit segment each. A GPU share's job is not a chunk.
    pub chunks: u64,
    /// Host-side operator-cache hits/misses ((h) blocks): the growth of
    /// the operator's counters over this run. Those counters are
    /// cumulative over the operator's lifetime and shared by everything
    /// that uses it, so concurrent runs on one operator (every SCF step
    /// applies the same one to all its orbitals at once) see each
    /// other's lookups.
    pub host_cache: (u64, u64),
    /// Device-side write-once cache hits/misses/evictions.
    pub device_cache: (u64, u64, u64),
}

/// One prepared compute task: Algorithm 4's output.
struct PreparedTask {
    neighbor: Key,
    task: TransformTask,
}

impl std::borrow::Borrow<TransformTask> for PreparedTask {
    fn borrow(&self) -> &TransformTask {
        &self.task
    }
}

/// Stable id for an `h` block: (μ, level, 1-D displacement), packed into
/// disjoint bit fields (20 bits of displacement covers ±2^19 boxes, far
/// beyond any displacement policy; the assert guards the invariant).
fn h_block_id(mu: usize, level: u8, disp: i64) -> u64 {
    let biased = disp + (1 << 19);
    assert!(
        (0..(1i64 << 20)).contains(&biased),
        "displacement {disp} outside the id-packing range"
    );
    ((mu as u64) << 32) | ((level as u64) << 20) | biased as u64
}

/// "The memory address of the compute function" for the Apply kind.
const APPLY_OP_ID: u64 = 0xA991;

/// The operand contract both entry points share, and the hot-path
/// warm-up (one-time; a no-op afterwards): the executor and the
/// autotuned mtxmq kernel table are ready before any transform runs, so
/// the reference walk and the batched variants run on the same kernels
/// and their speedup ratios are kernel-for-kernel comparisons.
fn check_operands(op: &SeparatedConvolution, tree: &FunctionTree) {
    assert_eq!(tree.form(), TreeForm::Reconstructed, "Apply needs leaves");
    assert_eq!(tree.d(), op.d(), "operator/tree dimensionality mismatch");
    assert_eq!(tree.k(), op.k(), "operator/tree order mismatch");
    madness_runtime::initialize_hot_path();
}

/// The sources of an Apply — every leaf that carries coefficients — in
/// key order: the deterministic task order of both entry points.
fn sources(tree: &FunctionTree) -> Vec<(&Key, &Tensor)> {
    let mut sources: Vec<_> = tree.leaves().collect();
    sources.sort_unstable_by_key(|&(key, _)| *key);
    sources
}

/// Algorithm 1: the unmodified CPU walk. Returns the reconstructed
/// result tree (after `sum_down` of mixed-level accumulations).
///
/// # Panics
/// Panics if the tree is not reconstructed or shapes mismatch the
/// operator.
pub fn apply_cpu_reference(op: &SeparatedConvolution, tree: &FunctionTree) -> FunctionTree {
    check_operands(op, tree);
    // Parallel across sources (`filter_map`: what the executor's
    // `flatten` comes after).
    let contributions: Vec<(Key, Tensor)> = sources(tree)
        .par_iter()
        .filter_map(|&(key, s)| {
            Some(Workspace::with(|ws| {
                let displacements = op.displacements_at(key.level());
                // An `h` block depends on (μ, level, 1-D displacement)
                // only, so one fetch per source serves every one of its
                // displacement tasks: `M × width` cache lookups a source
                // instead of `M × d` a task, which is what kept the
                // walk's workers queueing on the operator's cache lock.
                let deltas = || displacements.iter().flat_map(|disp| &disp.delta[..op.d()]);
                let lo = deltas().copied().min().unwrap_or(0);
                let width = (deltas().copied().max().unwrap_or(0) - lo + 1) as usize;
                let blocks: Vec<Arc<Tensor>> = (0..op.rank() * width)
                    .map(|ix| op.get_h(ix / width, key.level(), lo + (ix % width) as i64))
                    .collect();
                // integral_operator (Algorithm 2) for every live
                // displacement of the source in one group call: the Σ_μ
                // loops side by side, so a leading pass two neighbouring
                // displacements have in common runs once.
                let live: Vec<(Key, &[i64])> = displacements
                    .iter()
                    .filter_map(|disp| Some((key.neighbor(&disp.delta)?, &disp.delta[..op.d()])))
                    .collect();
                let mut rs: Vec<Tensor> = live.iter().map(|_| Tensor::zeros(s.shape())).collect();
                let blocks = &blocks;
                let term = |task: usize, mu: usize| Term {
                    coeff: op.terms()[mu].coeff,
                    hs: live[task]
                        .1
                        .iter()
                        .map(move |delta| &*blocks[mu * width + (delta - lo) as usize]),
                    krs: None,
                };
                transform_sum_accumulate_group(s, op.rank(), term, ws.scratch(), &mut rs);
                live.iter()
                    .map(|&(neighbor, _)| neighbor)
                    .zip(rs)
                    .collect::<Vec<_>>()
            }))
        })
        .flatten()
        .collect();

    let mut result = FunctionTree::new(tree.d(), tree.k());
    for (neighbor, r) in contributions {
        result.accumulate(neighbor, 1.0, &r);
    }
    sum_down(&mut result);
    result
}

/// Algorithms 3–6: the batched hybrid Apply.
///
/// # Panics
/// Same contract as [`apply_cpu_reference`].
pub fn apply_batched(
    op: &SeparatedConvolution,
    tree: &FunctionTree,
    config: &ApplyConfig,
) -> (FunctionTree, ApplyStats) {
    apply_batched_recorded(op, tree, config, &mut NullRecorder)
}

/// [`apply_batched`] with tracing: in [`ApplyResource::Adaptive`] mode
/// every flush journals its split decision — `rec.observe_split(k)` plus
/// a full [`madness_trace::DispatchSample`] (`k`, `m̂`, `n̂`, probe flag)
/// via `rec.observe_dispatch` — so the split trajectory can be exported
/// and replayed. With [`NullRecorder`] this is exactly `apply_batched`.
///
/// # Panics
/// Same contract as [`apply_cpu_reference`].
pub fn apply_batched_recorded<R: Recorder>(
    op: &SeparatedConvolution,
    tree: &FunctionTree,
    config: &ApplyConfig,
    rec: &mut R,
) -> (FunctionTree, ApplyStats) {
    check_operands(op, tree);
    let commit = Commit::new(FunctionTree::new(op.d(), op.k()));
    let stats = ApplyRun::new(op, config, rec, &commit).run(tree);
    // Postprocess tail (Algorithm 6): accumulation overlapped compute;
    // only the segments that retired while another thread held the tree
    // are left, then `sum_down`.
    let mut result_tree = commit.finish();
    sum_down(&mut result_tree);
    (result_tree, stats)
}

/// One batched Apply: Fig. 3's stages as methods — under the names the
/// simulated clock's `NodeRun` (`madness-cluster`) gives them — over
/// what they share.
struct ApplyRun<'a, R: Recorder> {
    op: &'a SeparatedConvolution,
    config: &'a ApplyConfig,
    rec: &'a mut R,
    kernel: KernelKind,
    device: GpuDevice,
    stats: ApplyStats,
    /// The postprocess stage. Borrowed, not owned: every spawned chunk
    /// retires into it while the dispatcher holds `self` mutably.
    commit: &'a Commit,
    /// The CPU share no chunk holds yet.
    pending: PendingRun,
    /// `Some` iff [`ApplyResource::Adaptive`].
    learned: Option<Learned>,
}

/// CPU tasks flushes have handed over that no chunk holds yet: one
/// kind's, in task order. Chunks come off its front where
/// [`chunk_len`] cuts at a change of source; the tail — a source the
/// next flush may go on with — waits until the run is spawned whole.
struct PendingRun {
    /// `None` until the first flush.
    kind: Option<TaskKind>,
    /// What one of the kind's tasks costs: the grain's unit.
    task_flops: u64,
    tasks: Vec<PreparedTask>,
}

/// [`ApplyResource::Adaptive`]'s feedback state.
struct Learned {
    dispatcher: AdaptiveDispatcher,
    /// The simulated clock the in-flight stream-queue windows live on: it
    /// advances by each retired CPU chunk's throughput-equivalent time
    /// (the CPU keeps streaming), so a GPU batch whose simulated time
    /// outlives the CPU work dispatched beside it stays queued and builds
    /// the backpressure the dispatcher shrinks the GPU share on.
    sim_now: SimTime,
    workers: u64,
    /// Every spawned chunk sends its timing; `split` drains them.
    sample_tx: mpsc::Sender<ChunkSample>,
    sample_rx: mpsc::Receiver<ChunkSample>,
}

impl<'a, R: Recorder> ApplyRun<'a, R> {
    fn new(
        op: &'a SeparatedConvolution,
        config: &'a ApplyConfig,
        rec: &'a mut R,
        commit: &'a Commit,
    ) -> Self {
        ApplyRun {
            kernel: config
                .kernel
                .unwrap_or_else(|| KernelKind::auto_select(op.d(), op.k())),
            device: GpuDevice::new(madness_gpusim::DeviceSpec::default(), config.streams),
            stats: ApplyStats::default(),
            pending: PendingRun {
                kind: None,
                task_flops: 0,
                tasks: Vec::new(),
            },
            learned: matches!(config.resource, ApplyResource::Adaptive).then(|| {
                let (sample_tx, sample_rx) = mpsc::channel();
                Learned {
                    dispatcher: AdaptiveDispatcher::new(AdaptiveConfig::default()),
                    sim_now: SimTime::ZERO,
                    workers: rayon::configured_worker_threads().max(1) as u64,
                    sample_tx,
                    sample_rx,
                }
            }),
            op,
            config,
            rec,
            commit,
        }
    }

    /// This thread is the paper's dispatcher: it prepares each source's
    /// tasks as it pushes them, per flush plans the split, prices the GPU
    /// share on the simulated device itself and *spawns* the arithmetic
    /// of both shares — then moves on to the next push without waiting;
    /// the scope ends when the last job has retired.
    fn run(mut self, tree: &FunctionTree) -> ApplyStats {
        // The operator's cache counters are cumulative across its
        // lifetime; snapshot them so the stats report *this run's*
        // hits/misses.
        let (hits, misses) = self.op.cache_stats();
        rayon::scope(|scope| self.dispatch(scope, tree));
        let (hits_after, misses_after) = self.op.cache_stats();
        self.stats.host_cache = (hits_after - hits, misses_after - misses);
        self.stats.device_cache = self.device.cache().stats();
        self.stats
    }

    /// The `Σ_μ` terms of every task at `level` displaced by `delta`.
    fn term_table(&self, level: u8, delta: &[i64]) -> Vec<TransformTerm> {
        let op = self.op;
        (0..op.rank())
            .map(|mu| TransformTerm {
                coeff: op.terms()[mu].coeff,
                hs: delta
                    .iter()
                    .map(|&dl| HBlock::new(h_block_id(mu, level, dl), op.get_h(mu, level, dl)))
                    .collect(),
                effective_ranks: self.config.rank_reduce_eps.map(|eps| {
                    delta
                        .iter()
                        .map(|&dl| op.effective_rank(mu, level, dl, eps))
                        .collect()
                }),
            })
            .collect()
    }

    /// Algorithm 4 fused into batch per kind: each source's tasks —
    /// neighbors and operator-block addresses resolved — are built as one
    /// unit and pushed as they are built, so the first batches compute
    /// while later sources are still being prepared. A term table depends
    /// only on (level, displacement), never on the source key, so it is
    /// built the first time its pair comes up and shared (`Arc`) by every
    /// task with that pair: `M` term allocations plus `M × d` block
    /// lookups a task collapse to one table a pair. The one place a flush
    /// is triggered: by the size trigger at a full batch, then the
    /// end-of-run drain, after which what is pending is spawned whole.
    fn dispatch(&mut self, scope: &rayon::Scope<'a>, tree: &FunctionTree) {
        let (op, d) = (self.op, self.op.d());
        let mut batcher: Batcher<PreparedTask> = Batcher::new(self.config.batch);
        let mut term_tables: BTreeMap<u8, Vec<Option<Arc<Vec<TransformTerm>>>>> = BTreeMap::new();
        for (key, s) in sources(tree) {
            let level = key.level();
            let kind = TaskKind::new(APPLY_OP_ID, level as u64);
            let displacements = op.displacements_at(level);
            let tables = term_tables
                .entry(level)
                .or_insert_with(|| vec![None; displacements.len()]);
            let s = Arc::new(s.clone());
            for (disp, table) in displacements.iter().zip(tables.iter_mut()) {
                let Some(neighbor) = key.neighbor(&disp.delta) else {
                    continue;
                };
                let terms =
                    table.get_or_insert_with(|| Arc::new(self.term_table(level, &disp.delta[..d])));
                let task = TransformTask {
                    d,
                    k: op.k(),
                    s: Some(Arc::clone(&s)),
                    terms: Arc::clone(terms),
                };
                self.stats.tasks += 1;
                if let Some((kind, full)) = batcher.push(kind, PreparedTask { neighbor, task }) {
                    self.flush(scope, kind, full);
                }
            }
        }
        for (kind, rest) in batcher.drain() {
            self.flush(scope, kind, rest);
        }
        self.cpu_share(scope, true);
    }

    /// One batch through Fig. 3: dispatcher split → CPU share ∥ GPU
    /// share.
    fn flush(&mut self, scope: &rayon::Scope<'a>, kind: TaskKind, batch: Vec<PreparedTask>) {
        self.stats.batches += 1;
        // A batch is one kind: its first task's cost stands for all.
        let task_flops = batch.first().map_or(0, |p| p.task.flops_rank_reduced());
        let plan = self.split(kind, &batch, task_flops);
        self.hand_over(scope, kind, task_flops, batch, plan);
    }

    /// The split batch to its two sides: the first `plan.cpu_tasks` join
    /// the pending run, the rest are the GPU share. Commit order stays
    /// task order — the exact pre-pipeline accumulation order
    /// (bit-identical trees) — because the pending run is spawned whole
    /// before another kind joins it and before a GPU share mints its
    /// segment; otherwise only chunks that end at a change of source go.
    fn hand_over(
        &mut self,
        scope: &rayon::Scope<'a>,
        kind: TaskKind,
        task_flops: u64,
        batch: Vec<PreparedTask>,
        plan: SplitPlan,
    ) {
        self.stats.cpu_tasks += plan.cpu_tasks as u64;
        self.stats.gpu_tasks += plan.gpu_tasks as u64;
        if self.pending.kind != Some(kind) {
            self.cpu_share(scope, true);
            self.pending.kind = Some(kind);
            self.pending.task_flops = task_flops;
        }
        let mut tasks = batch.into_iter();
        self.pending
            .tasks
            .extend(tasks.by_ref().take(plan.cpu_tasks));
        self.cpu_share(scope, plan.gpu_tasks > 0);
        if plan.gpu_tasks > 0 {
            self.gpu_share(scope, kind, tasks.collect());
        }
    }

    /// Split decision at batch-flush time: everything to one side, the
    /// a-priori `k* = n/(m+n)` from the calibrated CPU model and the
    /// device's kernel cost model, or the learned dispatcher consulted
    /// with the device's in-flight queue depth (it is never told `m` or
    /// `n`).
    fn split(&mut self, kind: TaskKind, batch: &[PreparedTask], task_flops: u64) -> SplitPlan {
        let n = batch.len();
        match self.config.resource {
            ApplyResource::Cpu => SplitPlan::all_cpu(n),
            ApplyResource::Gpu => SplitPlan::all_gpu(n),
            ApplyResource::Hybrid => {
                let (op, threads) = (self.op, self.config.threads);
                let m = CpuModel::default()
                    .batch_time(n, task_flops, op.d(), op.k(), op.rank(), threads)
                    .as_secs_f64();
                let gcost = batch
                    .first()
                    .map(|p| kernel_cost(self.device.spec(), self.kernel, &p.task))
                    .unwrap_or_default();
                let conc = self.device.concurrency(gcost.sms_used).max(1) as f64;
                let gpu = gcost.duration.as_secs_f64() * n as f64 / conc;
                SplitPlan::for_times(n, m, gpu)
            }
            ApplyResource::Adaptive => {
                let learned = self.learned.as_mut().expect("Adaptive carries its state");
                // CPU feedback arrives whenever a chunk retires: a
                // chunk's busy time over the executor's width is what
                // the CPU side as a whole needs per task — the same
                // quantity a fork-join's wall time used to measure.
                for sample in learned.sample_rx.try_iter() {
                    let cpu_ns = sample.busy_ns / learned.workers;
                    learned
                        .dispatcher
                        .record(sample.kind, sample.tasks, cpu_ns, 0, 0);
                    learned.sim_now += SimTime::from_nanos(cpu_ns);
                }
                let depth = self.device.queue_depth(learned.sim_now);
                let decision = learned.dispatcher.plan(kind, n, depth);
                self.rec.observe_split(decision.k);
                self.rec.observe_dispatch(decision.sample());
                decision.plan
            }
        }
    }

    /// The CPU share (honours rank reduction): chunks off the front of
    /// the pending run — every one [`chunk_len`] ends at a change of
    /// source, and with `whole` the tail too — each [`ApplyRun::spawn`]ed
    /// with a [`ChunkSample`] of its kind. The schedule, not
    /// split-on-demand, owns the grain.
    fn cpu_share(&mut self, scope: &rayon::Scope<'a>, whole: bool) {
        let Some(kind) = self.pending.kind else {
            return;
        };
        while !self.pending.tasks.is_empty() {
            let len = chunk_len(&self.pending.tasks, self.pending.task_flops);
            if len == self.pending.tasks.len() && !whole {
                // Its last source may go on in the next flush.
                return;
            }
            let chunk: Vec<PreparedTask> = self.pending.tasks.drain(..len).collect();
            self.stats.chunks += 1;
            self.spawn(scope, chunk, true, Some(kind));
        }
    }

    /// The GPU share, the rest of the batch: priced (`Timing`) on the
    /// simulated device on this, the dispatcher's, thread — so in flush
    /// order, whatever the executor does — and its exact arithmetic
    /// [`ApplyRun::spawn`]ed with no sample (the model reads sim time).
    fn gpu_share(&mut self, scope: &rayon::Scope<'a>, kind: TaskKind, tasks: Vec<PreparedTask>) {
        let priced: Vec<TransformTask> = tasks.iter().map(|p| p.task.clone()).collect();
        let out = self
            .device
            .execute_batch(&priced, self.kernel, ExecMode::Timing);
        if let Some(learned) = &mut self.learned {
            // Simulated GPU batch time feeds the cost model, and the
            // batch occupies the stream queue for that long.
            let gpu_ns = out.time.as_nanos();
            learned.dispatcher.record(kind, 0, 0, tasks.len(), gpu_ns);
            let now = learned.sim_now;
            self.device
                .note_inflight(now, now + SimTime::from_nanos(gpu_ns));
        }
        self.spawn(scope, tasks, false, None);
    }

    /// Mints the next commit segment and spawns one job that runs `tasks`
    /// inside one workspace ([`execute_tasks`]) and retires the segment;
    /// with `sample`, an `Adaptive` run's job reports its busy time.
    fn spawn(
        &self,
        scope: &rayon::Scope<'a>,
        tasks: Vec<PreparedTask>,
        rank_reduced: bool,
        sample: Option<TaskKind>,
    ) {
        let (commit, seq) = (self.commit, self.commit.segment());
        let sample = sample.and_then(|kind| Some((kind, self.learned.as_ref()?.sample_tx.clone())));
        scope.spawn(move |_| {
            let t0 = Instant::now();
            let results = Workspace::with(|ws| execute_tasks(&tasks, rank_reduced, ws.scratch()));
            if let Some((kind, tx)) = sample {
                // The receiver outlives the scope; a failed send could
                // only lose feedback, never a result.
                let _ = tx.send(ChunkSample {
                    kind,
                    tasks: tasks.len(),
                    busy_ns: t0.elapsed().as_nanos() as u64,
                });
            }
            let neighbors = tasks.into_iter().map(|p| p.neighbor);
            commit.retire(seq, neighbors.zip(results).collect());
        });
    }
}

/// Cost grain of one spawned CPU chunk, in rank-reduced FLOPs: large
/// enough that queueing, waking and committing a chunk (a few µs) is
/// noise against running it (at k = 4, rank 34, 52,224 FLOPs a task,
/// the grain is 20 tasks, run on to the end of their last source — ≈ 28
/// a chunk on `apply-k4` — however many flushes they came in), small
/// enough that kernel-bound tasks (k = 10: ≈ 2 MFLOP each, so every
/// chunk is one source's run, at most 27 tasks and ≈ 4 ms) still spread
/// over every worker.
const CHUNK_FLOPS: u64 = 1_000_000;

/// How many of `tasks` (a pending run; not empty) the next chunk takes:
/// chunks are cut where the source changes, so a source's displacement
/// tasks stay side by side for the group call that shares their leading
/// passes — the first change of source at or past [`CHUNK_FLOPS`] of
/// work, which is at most one source's run past the grain. All of
/// `tasks` when there is no such change.
fn chunk_len(tasks: &[PreparedTask], task_flops: u64) -> usize {
    let grain = CHUNK_FLOPS.div_ceil(task_flops.max(1)).max(1);
    let mut len = tasks.len().min(grain as usize);
    while len < tasks.len() && tasks[len - 1].task.same_source(&tasks[len].task) {
        len += 1;
    }
    len
}

/// One retired CPU chunk's timing: [`ApplyResource::Adaptive`]'s CPU-side
/// feedback, sent to the dispatcher thread.
struct ChunkSample {
    kind: TaskKind,
    tasks: usize,
    busy_ns: u64,
}

/// The postprocess stage: results enter the result tree in segment order
/// (the order the dispatcher minted them: a kind's tasks in task order,
/// whether a chunk spans flushes or a GPU share follows the chunks that
/// hold the CPU tasks before it), whatever order the segments finish in,
/// so every target keeps its accumulation order and the tree is
/// bit-identical to a serial run.
struct Commit {
    /// Segments handed out so far; only the dispatcher thread mints.
    minted: AtomicUsize,
    ready: Mutex<ReadySegments>,
    /// Held by whoever is committing; never waited on while computing.
    tree: Mutex<FunctionTree>,
}

/// Retired segments waiting for their turn.
struct ReadySegments {
    /// The next segment the tree takes.
    next: usize,
    done: BTreeMap<usize, Vec<(Key, Tensor)>>,
}

impl Commit {
    fn new(tree: FunctionTree) -> Self {
        Commit {
            minted: AtomicUsize::new(0),
            ready: Mutex::new(ReadySegments {
                next: 0,
                done: BTreeMap::new(),
            }),
            tree: Mutex::new(tree),
        }
    }

    /// The next place in the commit order, for a share about to run.
    fn segment(&self) -> usize {
        self.minted.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands in segment `seq` and commits whatever is now in order —
    /// unless another thread is already committing, which will pick this
    /// segment up itself (or leave it to a later retire / `finish`).
    fn retire(&self, seq: usize, results: Vec<(Key, Tensor)>) {
        self.ready
            .lock()
            .expect("commit queue poisoned")
            .done
            .insert(seq, results);
        loop {
            // Busy, or poisoned by a panic the scope is about to rethrow.
            let Ok(mut tree) = self.tree.try_lock() else {
                return;
            };
            Self::drain(&self.ready, &mut tree);
            drop(tree);
            // A segment that became next-in-order while the lock was held
            // found it busy and left: look again before leaving.
            let ready = self.ready.lock().expect("commit queue poisoned");
            if !ready.done.contains_key(&ready.next) {
                return;
            }
        }
    }

    /// Accumulates every in-order ready segment; result tensors are freed
    /// as they commit.
    fn drain(ready: &Mutex<ReadySegments>, tree: &mut FunctionTree) {
        loop {
            let segment = {
                let mut ready = ready.lock().expect("commit queue poisoned");
                let next = ready.next;
                let Some(segment) = ready.done.remove(&next) else {
                    return;
                };
                ready.next += 1;
                segment
            };
            for (neighbor, r) in &segment {
                tree.accumulate(*neighbor, 1.0, r);
            }
        }
    }

    /// The final drain, once every segment has retired: returns the tree.
    ///
    /// # Panics
    /// Panics unless every minted segment was committed.
    fn finish(self) -> FunctionTree {
        let segments = self.minted.into_inner();
        let mut tree = self.tree.into_inner().expect("commit panicked");
        Self::drain(&self.ready, &mut tree);
        let ready = self.ready.into_inner().expect("commit queue poisoned");
        assert!(
            ready.next == segments && ready.done.is_empty(),
            "committed {} of {segments} segments",
            ready.next
        );
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coulomb::CoulombApp;
    use madness_mra::tree::Node;
    use madness_tensor::Shape;
    use std::sync::Barrier;

    /// One source per entry of `runs`, with that many tasks each.
    fn tasks_of(runs: &[usize]) -> Vec<PreparedTask> {
        let run = |&n: &usize| {
            let s = Arc::new(Tensor::zeros(Shape::cube(1, 1)));
            (0..n).map(move |_| PreparedTask {
                neighbor: Key::root(1),
                task: TransformTask {
                    d: 1,
                    k: 1,
                    s: Some(Arc::clone(&s)),
                    terms: Arc::new(Vec::new()),
                },
            })
        };
        runs.iter().flat_map(run).collect()
    }

    #[test]
    fn chunk_len_cuts_at_the_first_change_of_source_past_the_grain() {
        let tasks = tasks_of(&[27, 27, 27]);
        // Under the grain: the whole remainder, whatever its sources —
        // and a task that claims no work does not divide by zero.
        for task_flops in [0, 1, CHUNK_FLOPS / 82] {
            assert_eq!(chunk_len(&tasks, task_flops), 81);
            assert_eq!(chunk_len(&tasks[40..], task_flops), 41);
        }
        // A grain that ends inside a source runs on to its end …
        assert_eq!(chunk_len(&tasks, CHUNK_FLOPS / 10), 27);
        assert_eq!(chunk_len(&tasks, CHUNK_FLOPS.div_ceil(28)), 54);
        assert_eq!(chunk_len(&tasks[20..], 2 * CHUNK_FLOPS), 7);
        // … and one that ends on a change of source stops there.
        assert_eq!(chunk_len(&tasks, CHUNK_FLOPS.div_ceil(27)), 27);
        // Never empty, never past the remainder.
        for task_flops in [0, 1, CHUNK_FLOPS / 30, CHUNK_FLOPS, u64::MAX] {
            for rest in 0..tasks.len() {
                let len = chunk_len(&tasks[rest..], task_flops);
                assert!((1..=tasks.len() - rest).contains(&len));
            }
        }
    }

    /// One single-task source per value, every task `r = s` into one
    /// target (d = 1, k = 1, one term, `h = [1]`).
    fn valued(values: &[f64]) -> Vec<PreparedTask> {
        let terms = Arc::new(vec![TransformTerm {
            coeff: 1.0,
            hs: vec![HBlock::new(0, Arc::new(Tensor::identity(1)))],
            effective_ranks: None,
        }]);
        let task = |&x: &f64| PreparedTask {
            neighbor: Key::root(1),
            task: TransformTask {
                d: 1,
                k: 1,
                s: Some(Arc::new(Tensor::full(Shape::cube(1, 1), x))),
                terms: Arc::clone(&terms),
            },
        };
        values.iter().map(task).collect()
    }

    fn config(resource: ApplyResource) -> ApplyConfig {
        ApplyConfig {
            resource,
            kernel: Some(KernelKind::CustomMtxmq),
            ..ApplyConfig::default()
        }
    }

    #[test]
    fn a_pending_run_is_spawned_whole_before_a_gpu_share_mints_its_segment() {
        let op = SeparatedConvolution::gaussian_sum(1, 1, 1, 1.0, 1.0);
        let config = config(ApplyResource::Hybrid);
        let commit = Commit::new(FunctionTree::new(1, 1));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        let kind = TaskKind::new(APPLY_OP_ID, 0);
        let minted = || commit.minted.load(Ordering::Relaxed);
        rayon::scope(|scope| {
            // Under the grain: the first flush's CPU share waits …
            run.hand_over(scope, kind, 1, valued(&[1.0, 1e16]), SplitPlan::all_cpu(2));
            assert_eq!((run.pending.tasks.len(), minted()), (2, 0));
            // … until a GPU share comes: then it goes first.
            run.hand_over(scope, kind, 1, valued(&[-1e16, 1.0]), SplitPlan::all_gpu(2));
            assert_eq!((run.pending.tasks.len(), minted()), (0, 2));
        });
        assert_eq!(
            (run.stats.chunks, run.stats.cpu_tasks, run.stats.gpu_tasks),
            (1, 2, 2)
        );
        drop(run);
        // Task order, ((1 + 1e16) − 1e16) + 1; with the GPU share first
        // the sum would be 0.
        let tree = commit.finish();
        let sum = tree.get(&Key::root(1)).and_then(|n| n.coeffs.as_ref());
        assert_eq!(sum.map(|t| t.as_slice()[0]), Some(1.0));
    }

    #[test]
    fn a_pending_run_is_spawned_whole_on_a_change_of_kind() {
        let op = SeparatedConvolution::gaussian_sum(1, 1, 1, 1.0, 1.0);
        let config = config(ApplyResource::Adaptive);
        let commit = Commit::new(FunctionTree::new(1, 1));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        let (a, b) = (TaskKind::new(APPLY_OP_ID, 2), TaskKind::new(APPLY_OP_ID, 3));
        // A grain of 10 tasks over sources of 27: chunks end only where
        // the source changes, and the last source waits for more.
        let grain_10 = CHUNK_FLOPS / 10;
        rayon::scope(|scope| {
            run.hand_over(
                scope,
                a,
                grain_10,
                tasks_of(&[27, 27, 27]),
                SplitPlan::all_cpu(81),
            );
            assert_eq!((run.pending.tasks.len(), run.stats.chunks), (27, 2));
            // Another kind: the run goes whole, under its own grain, and
            // the new kind's tasks open a run with theirs.
            run.hand_over(scope, b, 1, tasks_of(&[2, 3]), SplitPlan::all_cpu(5));
            assert_eq!((run.pending.kind, run.pending.task_flops), (Some(b), 1));
            assert_eq!((run.pending.tasks.len(), run.stats.chunks), (5, 3));
            run.cpu_share(scope, true);
        });
        // Every chunk is one kind's, so Adaptive's samples stay per kind.
        let learned = run.learned.as_ref().expect("Adaptive");
        let mut samples: Vec<_> = learned
            .sample_rx
            .try_iter()
            .map(|s| (s.kind, s.tasks))
            .collect();
        samples.sort_unstable();
        assert_eq!(samples, [(a, 27), (a, 27), (a, 27), (b, 5)]);
    }

    /// What segment `seq` hands in: three tensors over two targets, their
    /// magnitudes spread so that the order of a sum shows in its bits.
    fn segment_results(seq: usize) -> Vec<(Key, Tensor)> {
        let result = |j: usize| {
            let x = ((3 * seq + j) as f64).sin() * 10f64.powi((seq % 7) as i32 - 3);
            let r = Tensor::from_vec(Shape::cube(1, 2), vec![x, 1.0 / x]);
            (Key::new(1, &[((seq + j) % 2) as i64]), r)
        };
        (0..3).map(result).collect()
    }

    fn serial_tree(order: impl Iterator<Item = usize>) -> Vec<(Key, Vec<u64>)> {
        let mut tree = FunctionTree::new(1, 2);
        for (neighbor, r) in order.flat_map(segment_results) {
            tree.accumulate(neighbor, 1.0, &r);
        }
        bits(&tree)
    }

    fn bits(tree: &FunctionTree) -> Vec<(Key, Vec<u64>)> {
        let of = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect();
        sources(tree)
            .into_iter()
            .map(|(key, t)| (*key, of(t)))
            .collect()
    }

    #[test]
    fn commit_keeps_segment_order_whatever_order_segments_retire_in() {
        const SEGMENTS: usize = 32;
        let commit = Commit::new(FunctionTree::new(1, 2));
        let minted: Vec<usize> = (0..SEGMENTS).map(|_| commit.segment()).collect();
        assert_eq!(minted, (0..SEGMENTS).collect::<Vec<_>>());
        // Four threads retire the segments last to first, four at a time.
        let round = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (commit, round) = (&commit, &round);
                s.spawn(move || {
                    for r in 0..SEGMENTS / 4 {
                        round.wait();
                        let seq = SEGMENTS - 1 - (4 * r + t);
                        commit.retire(seq, segment_results(seq));
                    }
                });
            }
        });
        let committed = bits(&commit.finish());
        assert_eq!(committed, serial_tree(0..SEGMENTS));
        assert_ne!(
            committed,
            serial_tree((0..SEGMENTS).rev()),
            "order is inert"
        );
    }

    #[test]
    #[should_panic(expected = "committed 1 of 2 segments")]
    fn commit_finish_panics_when_a_minted_segment_never_retired() {
        let commit = Commit::new(FunctionTree::new(1, 2));
        let (first, _lost) = (commit.segment(), commit.segment());
        commit.retire(first, segment_results(first));
        commit.finish();
    }

    #[test]
    fn sources_are_the_coefficient_leaves_in_key_order() {
        let leaf = || Node::leaf(Tensor::zeros(Shape::cube(1, 2)));
        let mut tree = FunctionTree::new(1, 2);
        for l in [3, 0, 2] {
            tree.insert(Key::new(2, &[l]), leaf());
        }
        let mut bare = leaf();
        bare.coeffs = None;
        tree.insert(Key::new(2, &[1]), bare);
        // An interior node may carry coefficients; it is still no source.
        let parent = tree.get_mut(&Key::new(1, &[0])).expect("connected");
        parent.coeffs = leaf().coeffs;
        let keys = |tree: &FunctionTree| -> Vec<Key> {
            sources(tree).iter().map(|&(key, _)| *key).collect()
        };
        assert_eq!(keys(&tree), [0, 2, 3].map(|l| Key::new(2, &[l])));

        // On a real tree: the filter over `sorted_keys()` it replaced.
        let tree = CoulombApp::small(4, 1e-3).tree;
        let mut old = tree.sorted_keys();
        old.retain(|key| {
            let node = tree.get(key).expect("listed key");
            node.is_leaf() && node.coeffs.is_some()
        });
        assert_eq!(keys(&tree), old);
        assert!(old.len() > 100 && old.len() < tree.len());
    }
}
