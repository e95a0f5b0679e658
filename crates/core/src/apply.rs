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
//! for a batch. The device's share is only priced: on a host-executed
//! device the split decides a task's simulated cost and whether its
//! arithmetic is rank-reduced, nothing else. Every task of both shares
//! joins one pending run in task order, which is spawned into the
//! executor in chunks cut between *stack groups* (below), so a chunk may
//! span flushes and shares but never cuts a group, and results commit
//! in order as the chunks retire. One run is an `ApplyRun` whose methods
//! are those stages: `dispatch` (preprocess fused into the push loop,
//! which cuts the batches in task order) → `flush` = `split` →
//! `hand_over` (`gpu_share` prices; the pending run, which `cpu_share`
//! spawns), with `Commit` as postprocess. Every `ApplyResource` takes
//! that one route — `Cpu`'s split is simply all-CPU. Both entry points
//! produce identical trees.
//!
//! On the host, both hand one source's displacement tasks to the tensor
//! crate side by side (`transform_sum_accumulate_group`): the operator
//! lists displacements lexicographically, `δx` slowest — the order of
//! the passes — so neighbouring tasks keep their leading `h` blocks, 3 + 9
//! of the 54 leading passes a source's 27 tasks make per term are run
//! (one a distinct `δx` and `(δx, δy)`) and the others reuse an
//! intermediate already there, and the `δz` siblings, whose stacked
//! last-pass operands are then identical, share one fused final span (9
//! spans instead of 27 a chunk of terms) — every task's result bit for
//! bit what it computes alone. At k = 10 the distinct leading passes run
//! as *leading fans* — a term's `δx` siblings in one span, each `δx`'s
//! `δy` siblings in one — so 1 + 3 spans a term. The walk makes that
//! call itself, one source at a time: it is the reference. The pipeline is
//! the paper's batch: every chunk makes the call through
//! `gpusim::kernel::execute_tasks` (once per run of tasks with equal
//! rank-reduction flags), which *stacks* up to eight consecutive
//! same-level sources whose task lists are identical — a term table
//! depends only on (level, displacement), so such sources use the same
//! blocks, coefficients and effective ranks — into one call. The stacked
//! sources share every leading span and every per-term step, so an
//! interior source's 408 leading spans at k = 4 are run once for up to
//! eight sources; boundary sources, with other lists, run alone.

use madness_gpusim::kernel::{execute_tasks, stack_groups};
use madness_gpusim::{
    ExecMode, GpuDevice, HBlock, KernelKind, SimTime, TransformTask, TransformTerm,
};
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::key::Key;
use madness_mra::ops::sum_down;
use madness_mra::tree::{FunctionTree, TreeForm};
use madness_runtime::{BatcherConfig, CpuModel, Dispatcher, GpuGate, SplitPlan, TaskKind};
use madness_tensor::{transform_sum_accumulate_group, Tensor, Term, Workspace};
use madness_trace::{NullRecorder, Recorder};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which resources execute the compute batches: the runtime
/// dispatcher's four policies, which the node simulator's modes name too.
pub use madness_runtime::SplitPolicy as ApplyResource;

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
    /// CPU compute threads the `CpuModel` prices a CPU share on: the
    /// `m` of `Hybrid`'s a-priori split and of `Adaptive`'s samples.
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
    /// Batches flushed, on every arm: `Σ` over kinds of `⌈n_kind ⁄
    /// max_batch⌉`, since each kind's tasks are cut in task order.
    pub batches: u64,
    /// Tasks the CPU side computed.
    pub cpu_tasks: u64,
    /// Tasks the split gave the GPU side: priced on the simulated device,
    /// computed exactly in the same jobs as the CPU side's.
    pub gpu_tasks: u64,
    /// Chunks spawned: one executor job (run inline without a pool) and
    /// one commit segment each, whichever shares their tasks came from.
    /// They are every job the run spawns.
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
    /// Set by the split: a CPU-share task with rank reduction in force.
    /// The device's share stays exact (paper §II-D).
    rank_reduced: bool,
}

impl std::borrow::Borrow<TransformTask> for PreparedTask {
    fn borrow(&self) -> &TransformTask {
        &self.task
    }
}

/// Stable id for an `h` block: (μ, level, 1-D displacement), packed into
/// disjoint bit fields (20 bits of displacement covers ±2^19 boxes, far
/// beyond any displacement radius; the assert guards the invariant).
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
    let displacements = op.displacements();
    let deltas = || displacements.iter().flat_map(|disp| &disp.delta[..op.d()]);
    let lo = deltas().copied().min().unwrap_or(0);
    let width = (deltas().copied().max().unwrap_or(0) - lo + 1) as usize;
    // Parallel across sources (`filter_map`: what the executor's
    // `flatten` comes after).
    let contributions: Vec<(Key, Tensor)> = sources(tree)
        .par_iter()
        .filter_map(|&(key, s)| {
            Some(Workspace::with(|ws| {
                // An `h` block depends on (μ, level, 1-D displacement)
                // only, so one fetch per source serves every one of its
                // displacement tasks: `M × width` cache lookups a source
                // instead of `M × d` a task, which is what kept the
                // walk's workers queueing on the operator's cache lock.
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
                transform_sum_accumulate_group(&[s], op.rank(), term, ws.scratch(), &mut rs);
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

/// [`apply_batched`] with tracing: in [`ApplyResource::Hybrid`] and
/// [`ApplyResource::Adaptive`] mode every flush journals its split `k`
/// as a [`madness_trace::Event::Split`], and `Adaptive` adds a full
/// [`madness_trace::DispatchSample`] (`k`, `m̂`, `n̂`, probe flag) as a
/// [`madness_trace::Event::Dispatch`], so the split trajectory can be
/// exported and replayed. With [`NullRecorder`] this is exactly
/// `apply_batched`.
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
    /// The tasks no chunk holds yet.
    pending: PendingRun,
    /// The split, told [`ApplyConfig::resource`] once.
    dispatcher: Dispatcher,
}

/// Tasks handed over — flushes' two shares — that no chunk holds yet:
/// one kind's, in task order. Chunks come off its front where
/// [`chunk_len`] cuts between stack groups; the tail — a source the next
/// batch may go on with, and the group it may join — waits until the run
/// is spawned whole.
struct PendingRun {
    /// What one of the kind's tasks costs: the grain's unit.
    task_flops: u64,
    tasks: Vec<PreparedTask>,
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
                task_flops: 0,
                tasks: Vec::new(),
            },
            dispatcher: Dispatcher::new(config.resource),
            op,
            config,
            rec,
            commit,
        }
    }

    /// This thread is the paper's dispatcher: it prepares each source's
    /// tasks as it pushes them, per flush plans the split, prices the GPU
    /// share on the simulated device itself and *spawns* the arithmetic
    /// of both shares as one job stream — then moves on to the next push
    /// without waiting; the scope ends when the last job has retired.
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
    /// lookups a task collapse to one table a pair. Every arm cuts its
    /// batches here, in task order, into one reused `Vec`: a batch is
    /// flushed when it holds `max_batch` tasks, when the kind changes and
    /// after the last source (`Cpu`'s split is all-CPU). On a change of
    /// kind, and after the last source, what is pending is spawned whole.
    ///
    /// # Panics
    /// Panics if `max_batch == 0`.
    fn dispatch(&mut self, scope: &rayon::Scope<'a>, tree: &FunctionTree) {
        let (op, d) = (self.op, self.op.d());
        let max_batch = self.config.batch.max_batch;
        assert!(max_batch > 0, "batch size must be positive");
        let mut batch = Vec::new();
        let mut open: Option<TaskKind> = None;
        let displacements = op.displacements();
        let mut term_tables: BTreeMap<u8, Vec<Option<Arc<Vec<TransformTerm>>>>> = BTreeMap::new();
        for (key, s) in sources(tree) {
            let level = key.level();
            let kind = TaskKind::new(APPLY_OP_ID, level as u64);
            // Sources are in key order and `Key` orders by level first, so
            // a kind never reopens: the last one goes now, whole.
            if let Some(last) = open.filter(|&last| last != kind) {
                self.flush(scope, last, &mut batch);
                self.cpu_share(scope, true);
            }
            open = Some(kind);
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
                batch.push(PreparedTask {
                    neighbor,
                    task,
                    rank_reduced: false,
                });
                if batch.len() == max_batch {
                    self.flush(scope, kind, &mut batch);
                }
            }
        }
        if let Some(last) = open {
            self.flush(scope, last, &mut batch);
        }
        self.cpu_share(scope, true);
    }

    /// One batch through Fig. 3 (nothing for an empty one): dispatcher
    /// split → both shares handed over, which leaves `batch` empty →
    /// under `Adaptive`, the learned feedback: both shares' simulated
    /// prices, recorded once, as `NodeRun::flush` records its simulated
    /// batch times.
    fn flush(&mut self, scope: &rayon::Scope<'a>, kind: TaskKind, batch: &mut Vec<PreparedTask>) {
        let Some(first) = batch.first() else {
            return;
        };
        self.stats.batches += 1;
        // A batch is one kind: its first task's cost stands for all.
        let task_flops = first.task.flops_rank_reduced();
        let plan = self.split(kind, batch, task_flops);
        let gpu_ns = self.hand_over(scope, task_flops, batch, plan);
        let cpu_ns = self.cpu_time()(plan.cpu_tasks, task_flops).as_nanos();
        self.dispatcher
            .record(kind, (plan.cpu_tasks, cpu_ns), (plan.gpu_tasks, gpu_ns));
    }

    /// The split batch to the back of the pending run, which it leaves
    /// empty: the first `plan.cpu_tasks` are the CPU share (rank-reduced
    /// when reduction is on), the rest the GPU share, priced here. Returns
    /// that price in nanoseconds. A batch that finds the run empty — a
    /// kind's first, since `dispatch` spawns the run whole on a change of
    /// kind — sets the run's grain. Commit order stays task order, the
    /// exact pre-pipeline accumulation order (bit-identical trees); only
    /// chunks that end between stack groups go.
    fn hand_over(
        &mut self,
        scope: &rayon::Scope<'a>,
        task_flops: u64,
        batch: &mut Vec<PreparedTask>,
        plan: SplitPlan,
    ) -> u64 {
        self.stats.cpu_tasks += plan.cpu_tasks as u64;
        self.stats.gpu_tasks += plan.gpu_tasks as u64;
        let (cpu, gpu) = batch.split_at_mut(plan.cpu_tasks);
        let rank_reduced = self.config.rank_reduce_eps.is_some();
        cpu.iter_mut().for_each(|p| p.rank_reduced = rank_reduced);
        let gpu_ns = self.gpu_share(gpu);
        if self.pending.tasks.is_empty() {
            self.pending.task_flops = task_flops;
        }
        self.pending.tasks.append(batch);
        self.cpu_share(scope, false);
        gpu_ns
    }

    /// Split decision at batch-flush time, the runtime dispatcher's:
    /// everything to one side, the learned split (it is never told `m` or
    /// `n`), or the a-priori `k* = n/(m+n)` from the calibrated CPU model
    /// and the device's estimate of the batch, both transfers included.
    /// No health ladder watches this device, so its gate is always open.
    fn split(&mut self, kind: TaskKind, batch: &[PreparedTask], task_flops: u64) -> SplitPlan {
        let n = batch.len();
        let (cpu, device, kernel) = (self.cpu_time(), &self.device, self.kernel);
        let gpu = || device.estimate(kernel, &batch[0].task).time(n as u64);
        let apriori = || (cpu(n, task_flops), gpu());
        self.dispatcher
            .plan(kind, n, GpuGate::Open, &mut *self.rec, apriori)
            .0
    }

    /// What the `CpuModel` prices `n` tasks of `task_flops` each at on
    /// [`ApplyConfig::threads`] — `Hybrid`'s `m` and `Adaptive`'s CPU
    /// sample — as a function that borrows nothing of the run.
    fn cpu_time(&self) -> impl Fn(usize, u64) -> SimTime + 'a {
        let (op, threads) = (self.op, self.config.threads);
        move |n, task_flops| {
            CpuModel::default().batch_time(n, task_flops, op.d(), op.k(), op.rank(), threads)
        }
    }

    /// The host's jobs, for both shares: chunks off the front of the
    /// pending run — every one [`chunk_len`] ends between stack groups,
    /// and with `whole` the tail too — each [`ApplyRun::spawn`]ed. The
    /// schedule, not split-on-demand, owns the grain.
    fn cpu_share(&mut self, scope: &rayon::Scope<'a>, whole: bool) {
        while !self.pending.tasks.is_empty() {
            let len = chunk_len(&self.pending.tasks, self.pending.task_flops, whole);
            if len == self.pending.tasks.len() && !whole {
                // Its last source, or the group that source may join,
                // may go on in the next batch.
                return;
            }
            let chunk: Vec<PreparedTask> = self.pending.tasks.drain(..len).collect();
            self.stats.chunks += 1;
            self.spawn(scope, chunk);
        }
    }

    /// The GPU share, the rest of the batch: priced (`Timing`) on the
    /// simulated device on this, the dispatcher's, thread — so in flush
    /// order, whatever the executor does. Returns the price in
    /// nanoseconds (0 for an empty share); its arithmetic rides the
    /// pending run.
    fn gpu_share(&mut self, tasks: &[PreparedTask]) -> u64 {
        let priced: Vec<TransformTask> = tasks.iter().map(|p| p.task.clone()).collect();
        let out = self
            .device
            .execute_batch(&priced, self.kernel, ExecMode::Timing);
        out.time.as_nanos()
    }

    /// Mints the next commit segment and spawns one job that runs `tasks`
    /// inside one workspace — one [`execute_tasks`] call per run of equal
    /// rank-reduction flags — and retires the segment.
    fn spawn(&self, scope: &rayon::Scope<'a>, tasks: Vec<PreparedTask>) {
        let (commit, seq) = (self.commit, self.commit.segment());
        scope.spawn(move |_| {
            let results = Workspace::with(|ws| {
                tasks
                    .chunk_by(|a, b| a.rank_reduced == b.rank_reduced)
                    .map(|run| execute_tasks(run, run[0].rank_reduced, ws.scratch()))
                    .reduce(|mut rs, more| {
                        rs.extend(more);
                        rs
                    })
                    .unwrap_or_default()
            });
            let neighbors = tasks.into_iter().map(|p| p.neighbor);
            commit.retire(seq, neighbors.zip(results).collect());
        });
    }
}

/// Cost grain of one spawned CPU chunk, in rank-reduced FLOPs: large
/// enough that queueing, waking and committing a chunk (a few µs) is
/// noise against running it (at k = 4, rank 34, 52,224 FLOPs a task,
/// the grain is 20 tasks, run on to the end of their last stack group —
/// however many flushes they came in), small enough that kernel-bound
/// tasks (k = 10: ≈ 2 MFLOP each, never stacked, so every chunk is one
/// source's run, at most 27 tasks and ≈ 4 ms) still spread over every
/// worker. A chunk may overshoot the grain by up to a whole group: at
/// k = 4 a group of eight interior sources is 216 tasks, ≈ 11 MFLOP, so
/// `apply-k4` runs ≈ 122 tasks a chunk, 155 chunks a pass. It was
/// measured with two workers; whether that many chunks keep more
/// workers busy was not.
const CHUNK_FLOPS: u64 = 1_000_000;

/// How many of `tasks` (a pending run; not empty) the next chunk takes:
/// chunks are cut between stack groups ([`stack_groups`], the cut
/// [`execute_tasks`] makes), so the sources of a group stay side by side
/// for the group call that stacks them — the first group boundary at or
/// past [`CHUNK_FLOPS`] of work, which is at most one group past the
/// grain. Unless the run is `whole`, its last source may go on in the
/// next batch, so a group it may still join does not end. All of `tasks`
/// when there is no such boundary.
fn chunk_len(tasks: &[PreparedTask], task_flops: u64, whole: bool) -> usize {
    let grain = CHUNK_FLOPS.div_ceil(task_flops.max(1)).max(1);
    let mut len = 0;
    for group in stack_groups(tasks, !whole) {
        len += group.len();
        if len as u64 >= grain {
            break;
        }
    }
    len
}

/// The postprocess stage: results enter the result tree in segment order
/// (the order the dispatcher minted them: a kind's tasks in task order,
/// however many flushes and shares a chunk holds), whatever order the
/// segments finish in, so every target keeps its accumulation order and
/// the tree is bit-identical to a serial run.
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
                rank_reduced: false,
            })
        };
        runs.iter().flat_map(run).collect()
    }

    #[test]
    fn chunk_len_cuts_at_the_first_change_of_source_past_the_grain() {
        // Three sources whose task lists differ: three stack groups.
        let tasks = tasks_of(&[27, 27, 27]);
        for whole in [false, true] {
            // Under the grain: the whole remainder, whatever its sources
            // — and a task that claims no work does not divide by zero.
            for task_flops in [0, 1, CHUNK_FLOPS / 82] {
                assert_eq!(chunk_len(&tasks, task_flops, whole), 81);
                assert_eq!(chunk_len(&tasks[40..], task_flops, whole), 41);
            }
            // A grain that ends inside a source runs on to its end …
            assert_eq!(chunk_len(&tasks, CHUNK_FLOPS / 10, whole), 27);
            assert_eq!(chunk_len(&tasks[20..], 2 * CHUNK_FLOPS, whole), 7);
            assert_eq!(chunk_len(&tasks, CHUNK_FLOPS.div_ceil(28), whole), 54);
            // … and one that ends on a change of source stops there.
            assert_eq!(chunk_len(&tasks, CHUNK_FLOPS.div_ceil(27), whole), 27);
        }
        // Never empty, never past the remainder.
        for task_flops in [0, 1, CHUNK_FLOPS / 30, CHUNK_FLOPS, u64::MAX] {
            for rest in 0..tasks.len() {
                for whole in [false, true] {
                    let len = chunk_len(&tasks[rest..], task_flops, whole);
                    assert!((1..=tasks.len() - rest).contains(&len));
                }
            }
        }
    }

    /// One source per entry of `lists`, source `i` running task list
    /// `lists[i]`: list `l` has `LISTS[l]` tasks, and every source on
    /// it shares their term tables.
    fn listed(lists: &[usize]) -> Vec<PreparedTask> {
        const LISTS: [usize; 3] = [27, 18, 5];
        let tables: Vec<Vec<Arc<Vec<TransformTerm>>>> = LISTS
            .iter()
            .map(|&n| (0..n).map(|_| Arc::new(Vec::new())).collect())
            .collect();
        let tables = &tables;
        let source = |&l: &usize| {
            let s = Arc::new(Tensor::zeros(Shape::cube(1, 1)));
            tables[l].iter().map(move |terms| PreparedTask {
                neighbor: Key::root(1),
                task: TransformTask {
                    d: 1,
                    k: 1,
                    s: Some(Arc::clone(&s)),
                    terms: Arc::clone(terms),
                },
                rank_reduced: false,
            })
        };
        lists.iter().flat_map(source).collect()
    }

    #[test]
    fn chunk_len_never_splits_a_stack_group() {
        // Three interior sources, a boundary one, ten interior — more
        // than one group holds — and two of a third list.
        let lists = [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2];
        let tasks = listed(&lists);
        let ends: Vec<usize> = stack_groups(&tasks, false)
            .scan(0, |end, group| {
                *end += group.len();
                Some(*end)
            })
            .collect();
        let s_max = madness_gpusim::kernel::S_MAX;
        let big = 99 + s_max * 27;
        assert_eq!(ends, [81, 99, big, 369, 379]);
        for task_flops in [0, 1, CHUNK_FLOPS / 100, CHUNK_FLOPS / 30, CHUNK_FLOPS] {
            for whole in [false, true] {
                let mut rest = 0;
                while rest < tasks.len() {
                    rest += chunk_len(&tasks[rest..], task_flops, whole);
                    assert!(ends.contains(&rest), "a chunk ends at {rest}");
                }
            }
        }
        // A source still going on may join the group before it while its
        // tasks so far are a prefix of the group's list: only a whole run
        // cuts there …
        let pending = &tasks[99..99 + 2 * 27 + 10];
        assert_eq!(chunk_len(pending, CHUNK_FLOPS, false), pending.len());
        assert_eq!(chunk_len(pending, CHUNK_FLOPS, true), 2 * 27);
        // … and once they are not, or the group is full, it cannot.
        let boundary = &tasks[54..99];
        assert_eq!(chunk_len(boundary, CHUNK_FLOPS, false), 27);
        let full = &tasks[99..big + 10];
        assert_eq!(chunk_len(full, CHUNK_FLOPS, false), s_max * 27);
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
            rank_reduced: false,
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
    fn a_gpu_share_joins_the_pending_run() {
        let op = SeparatedConvolution::gaussian_sum(1, 1, 1, 1.0, 1.0);
        let config = config(ApplyResource::Hybrid);
        let commit = Commit::new(FunctionTree::new(1, 1));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        let minted = || commit.minted.load(Ordering::Relaxed);
        rayon::scope(|scope| {
            // Under the grain: the first flush's CPU share waits …
            run.hand_over(scope, 1, &mut valued(&[1.0, 1e16]), SplitPlan::all_cpu(2));
            assert_eq!((run.pending.tasks.len(), minted()), (2, 0));
            // … and a GPU share joins it behind, minting nothing.
            run.hand_over(scope, 1, &mut valued(&[-1e16, 1.0]), SplitPlan::all_gpu(2));
            assert_eq!((run.pending.tasks.len(), minted()), (4, 0));
            run.cpu_share(scope, true);
            assert_eq!((run.pending.tasks.len(), minted()), (0, 1));
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
    fn a_kinds_first_batch_sets_the_pending_runs_grain() {
        let op = SeparatedConvolution::gaussian_sum(1, 1, 1, 1.0, 1.0);
        let config = config(ApplyResource::Adaptive);
        let commit = Commit::new(FunctionTree::new(1, 1));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        // A grain of 10 tasks over sources of 27 whose task lists differ:
        // chunks end only where the source changes, and the last source
        // waits for more.
        let grain_10 = CHUNK_FLOPS / 10;
        // A split inside the second source: its GPU tasks ride the same
        // chunk as its CPU ones.
        let split = SplitPlan {
            cpu_tasks: 40,
            gpu_tasks: 41,
        };
        let pending = |run: &ApplyRun<'_, NullRecorder>| {
            let p = &run.pending;
            (p.task_flops, p.tasks.len(), run.stats.chunks)
        };
        rayon::scope(|scope| {
            run.hand_over(scope, grain_10, &mut tasks_of(&[27, 27, 27]), split);
            assert_eq!(pending(&run), (grain_10, 27, 2));
            // A later batch of the kind keeps the grain …
            run.hand_over(scope, 1, &mut tasks_of(&[27]), SplitPlan::all_gpu(27));
            assert_eq!(pending(&run), (grain_10, 27, 3));
            // … until `dispatch`'s change of kind spawns the run whole:
            // the next kind's first batch opens a run under its own.
            run.cpu_share(scope, true);
            run.hand_over(scope, 1, &mut tasks_of(&[2, 3]), SplitPlan::all_gpu(5));
            assert_eq!(pending(&run), (1, 5, 4));
            run.cpu_share(scope, true);
        });
        assert_eq!((run.stats.cpu_tasks, run.stats.gpu_tasks), (40, 73));
        assert_eq!(run.stats.chunks, 5);
    }

    #[test]
    fn a_pass_spawns_each_kind_apart() {
        // Leaves on two levels whose tasks together are far under one
        // grain: only `dispatch`'s change of kind cuts the pass in two.
        let op = SeparatedConvolution::gaussian_sum(1, 2, 1, 1.0, 1.0);
        let mut tree = FunctionTree::new(1, 2);
        for key in [Key::new(1, &[0]), Key::new(2, &[2]), Key::new(2, &[3])] {
            tree.insert(key, Node::leaf(Tensor::full(Shape::cube(1, 2), 1.0)));
        }
        for resource in [
            ApplyResource::Cpu,
            ApplyResource::Gpu,
            ApplyResource::Hybrid,
            ApplyResource::Adaptive,
        ] {
            let (_, stats) = apply_batched(&op, &tree, &config(resource));
            assert_eq!((stats.batches, stats.chunks), (2, 2), "{resource:?}");
        }
    }

    /// One `Adaptive` probe flush teaches the dispatcher both shares'
    /// simulated prices: `m̂` is the `CpuModel`'s per CPU task, `n̂` the
    /// device's `Timing` price per GPU task, each floored at 50 ns.
    #[test]
    fn an_adaptive_flush_records_both_shares_prices() {
        let (d, k) = (3, 6);
        let op = SeparatedConvolution::gaussian_sum(d, k, 4, 1.0, 100.0);
        let config = config(ApplyResource::Adaptive);
        let commit = Commit::new(FunctionTree::new(d, k));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        let s = Tensor::from_fn(Shape::cube(d, k), |ix| (1 + ix[0] * k + ix[2]) as f64);
        let s = Some(Arc::new(s));
        let mut tasks: Vec<PreparedTask> = (0..4)
            .map(|l| PreparedTask {
                neighbor: Key::new(2, &[l, 0, 0]),
                task: TransformTask {
                    d,
                    k,
                    s: s.clone(),
                    terms: Arc::new(run.term_table(2, &[l, 0, 0])),
                },
                rank_reduced: false,
            })
            .collect();
        let task_flops = tasks[0].task.flops_rank_reduced();
        let cpu_ns = run.cpu_time()(2, task_flops).as_nanos();
        // The probe's GPU half, priced on a device as fresh as the run's.
        let gpu: Vec<TransformTask> = tasks[2..].iter().map(|p| p.task.clone()).collect();
        let gpu_ns = GpuDevice::new(madness_gpusim::DeviceSpec::default(), config.streams)
            .execute_batch(&gpu, run.kernel, ExecMode::Timing)
            .time
            .as_nanos();
        let kind = TaskKind::new(APPLY_OP_ID, 2);
        rayon::scope(|scope| {
            run.flush(scope, kind, &mut tasks);
            run.cpu_share(scope, true);
        });
        assert_eq!((run.stats.cpu_tasks, run.stats.gpu_tasks), (2, 2));
        let model = run.dispatcher.model(kind).expect("planned");
        assert!(model.steady, "one probe flush measures both sides");
        let per_task = |ns: u64| (ns as f64 / 2.0).max(50.0);
        assert_eq!(
            (model.m_hat_ns, model.n_hat_ns),
            (per_task(cpu_ns), per_task(gpu_ns)),
            "priced at {cpu_ns} and {gpu_ns} ns"
        );
    }

    #[test]
    fn a_chunk_runs_each_task_under_its_own_rank_reduction_flag() {
        let (d, k) = (2, 6);
        let op = SeparatedConvolution::gaussian_sum(d, k, 4, 1.0, 100.0);
        let config = ApplyConfig {
            rank_reduce_eps: Some(1e-2),
            ..config(ApplyResource::Hybrid)
        };
        let commit = Commit::new(FunctionTree::new(d, k));
        let mut rec = NullRecorder;
        let mut run = ApplyRun::new(&op, &config, &mut rec, &commit);
        // One source's tasks at four displacements: the first two are the
        // CPU share, rank-reduced, the last two the device's, exact.
        let s = Tensor::from_fn(Shape::cube(d, k), |ix| (1 + ix[0] * k + ix[1]) as f64);
        let s = Some(Arc::new(s));
        let mut tasks: Vec<PreparedTask> = (0..4)
            .map(|l| PreparedTask {
                neighbor: Key::new(2, &[l, 0]),
                task: TransformTask {
                    d,
                    k,
                    s: s.clone(),
                    terms: Arc::new(run.term_table(2, &[l, 0])),
                },
                rank_reduced: false,
            })
            .collect();
        let alone = |p: &PreparedTask, rank_reduced| {
            let task = std::slice::from_ref(p);
            Workspace::with(|ws| execute_tasks(task, rank_reduced, ws.scratch())).remove(0)
        };
        let mut expected = FunctionTree::new(d, k);
        for (l, p) in tasks.iter().enumerate() {
            expected.accumulate(p.neighbor, 1.0, &alone(p, l < 2));
        }
        assert_ne!(
            alone(&tasks[1], true),
            alone(&tasks[1], false),
            "inert flag"
        );
        let split = SplitPlan {
            cpu_tasks: 2,
            gpu_tasks: 2,
        };
        rayon::scope(|scope| {
            run.hand_over(scope, 1, &mut tasks, split);
            run.cpu_share(scope, true);
        });
        assert_eq!(run.stats.chunks, 1);
        drop(run);
        assert_eq!(bits(&commit.finish()), bits(&expected));
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
