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
//! thread dispatches and never waits for a batch — the CPU share is
//! spawned into the executor in chunks cut where the source tensor
//! changes, and results commit in order as the chunks retire.
//! Both produce identical trees.
//!
//! On the host, both hand one source's displacement tasks to the tensor
//! crate side by side (`transform_sum_accumulate_group`): neighbouring
//! displacements keep their leading `h` blocks, so 41 of the 81 passes
//! a source's 27 tasks make per term are run and the other 40 reuse an
//! intermediate already there — every task's result bit for bit what it
//! computes alone. The simulated device runs each task independently,
//! as the paper's does.

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
use madness_tensor::{transform_sum_accumulate_group, Tensor, Term, TransformScratch, Workspace};
use madness_trace::{NullRecorder, Recorder};
use rayon::prelude::*;
use std::collections::BTreeMap;
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
    /// Host-side operator-cache hits/misses ((h) blocks).
    pub host_cache: (u64, u64),
    /// Device-side write-once cache hits/misses/evictions.
    pub device_cache: (u64, u64, u64),
}

/// One preprocessed compute task: Algorithm 4's output.
struct PreparedTask {
    neighbor: Key,
    task: TransformTask,
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

/// Algorithm 1: the unmodified CPU walk. Returns the reconstructed
/// result tree (after `sum_down` of mixed-level accumulations).
///
/// # Panics
/// Panics if the tree is not reconstructed or shapes mismatch the
/// operator.
pub fn apply_cpu_reference(op: &SeparatedConvolution, tree: &FunctionTree) -> FunctionTree {
    assert_eq!(tree.form(), TreeForm::Reconstructed, "Apply needs leaves");
    assert_eq!(tree.d(), op.d(), "operator/tree dimensionality mismatch");
    assert_eq!(tree.k(), op.k(), "operator/tree order mismatch");
    // Same hot-path warm-up as the batched path: the reference walk and
    // the batched variants must run on the same autotuned kernels for
    // the speedup ratios to be kernel-for-kernel comparisons.
    madness_runtime::initialize_hot_path();

    // Deterministic task order (sorted keys), parallel across sources.
    let keys = tree.sorted_keys();
    let contributions: Vec<(Key, Tensor)> = keys
        .par_iter()
        .filter_map(|key| {
            let node = tree.get(key)?;
            if !node.is_leaf() {
                return None;
            }
            let s = node.coeffs.as_ref()?;
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
    assert_eq!(tree.form(), TreeForm::Reconstructed, "Apply needs leaves");
    assert_eq!(tree.d(), op.d(), "operator/tree dimensionality mismatch");
    assert_eq!(tree.k(), op.k(), "operator/tree order mismatch");
    // Warm the executor and the autotuned mtxmq kernel table before any
    // transform runs (one-time; no-op afterwards).
    madness_runtime::initialize_hot_path();
    let d = op.d();
    let k = op.k();
    let kernel = config
        .kernel
        .unwrap_or_else(|| KernelKind::auto_select(d, k));
    let mut device = GpuDevice::new(madness_gpusim::DeviceSpec::default(), config.streams);
    let cpu_model = CpuModel::default();
    let mut stats = ApplyStats::default();
    // The operator's cache counters are cumulative across its lifetime;
    // snapshot them so the stats report *this run's* hits/misses.
    let host_cache_before = op.cache_stats();

    // ---- preprocess (Algorithm 4): parallel, data-intensive ------------
    // A term table depends only on (level, displacement) — never on the
    // source key — so build each one once and share it (`Arc`) across all
    // tasks at that level/displacement. This removes the dominant
    // preprocess cost: `M` term allocations plus `M × d` block lookups
    // per task collapse to one table per distinct (level, displacement).
    let keys = tree.sorted_keys();
    let leaf_levels: std::collections::BTreeSet<u8> = keys
        .iter()
        .filter_map(|key| {
            let node = tree.get(key)?;
            (node.is_leaf() && node.coeffs.is_some()).then(|| key.level())
        })
        .collect();
    let mut term_tables: std::collections::HashMap<(u8, usize), Arc<Vec<TransformTerm>>> =
        std::collections::HashMap::new();
    for &level in &leaf_levels {
        for (di, disp) in op.displacements_at(level).iter().enumerate() {
            let terms: Vec<TransformTerm> = (0..op.rank())
                .map(|mu| {
                    let hs: Vec<HBlock> = (0..d)
                        .map(|dim| {
                            let delta = disp.delta[dim];
                            HBlock::new(h_block_id(mu, level, delta), op.get_h(mu, level, delta))
                        })
                        .collect();
                    let effective_ranks = config.rank_reduce_eps.map(|eps| {
                        (0..d)
                            .map(|dim| op.effective_rank(mu, level, disp.delta[dim], eps))
                            .collect()
                    });
                    TransformTerm {
                        coeff: op.terms()[mu].coeff,
                        hs,
                        effective_ranks,
                    }
                })
                .collect();
            term_tables.insert((level, di), Arc::new(terms));
        }
    }
    let prepared: Vec<PreparedTask> = keys
        .par_iter()
        .filter_map(|key| {
            let node = tree.get(key)?;
            if !node.is_leaf() {
                return None;
            }
            let s = node.coeffs.as_ref()?;
            let s = Arc::new(s.clone());
            let mut local = Vec::new();
            let displacements = op.displacements_at(key.level());
            for (di, disp) in displacements.iter().enumerate() {
                let Some(neighbor) = key.neighbor(&disp.delta) else {
                    continue;
                };
                local.push(PreparedTask {
                    neighbor,
                    task: TransformTask {
                        d,
                        k,
                        s: Some(Arc::clone(&s)),
                        terms: Arc::clone(&term_tables[&(key.level(), di)]),
                    },
                });
            }
            Some(local)
        })
        .flatten()
        .collect();
    stats.tasks = prepared.len() as u64;

    // ---- batch per kind, dispatch, compute, postprocess ------------------
    // This thread is the paper's dispatcher: per flush it plans the split,
    // runs the GPU share on the simulated device itself (flush order, so
    // the device's cache and stream clocks see the same sequence whatever
    // the executor does) and *spawns* the CPU share in cost-grained
    // chunks — then moves on to the next push without waiting. Every
    // chunk and every GPU share is one segment of the commit order.
    let commit = Commit::new(FunctionTree::new(d, k));
    let mut segments = 0usize;
    // Adaptive mode's feedback state. `sim_now` is the simulated clock the
    // in-flight stream-queue windows live on: it advances by each retired
    // CPU chunk's throughput-equivalent time (the CPU keeps streaming), so
    // a GPU batch whose simulated time outlives the CPU work dispatched
    // beside it stays queued and builds the backpressure the dispatcher
    // shrinks the GPU share on.
    let adaptive = matches!(config.resource, ApplyResource::Adaptive);
    let mut dispatcher = AdaptiveDispatcher::new(AdaptiveConfig::default());
    let mut sim_now = SimTime::ZERO;
    let workers = rayon::configured_worker_threads().max(1) as u64;
    let (sample_tx, sample_rx) = mpsc::channel::<ChunkSample>();
    let sample_tx = adaptive.then_some(&sample_tx);
    let mut batcher: Batcher<PreparedTask> = Batcher::new(config.batch);

    rayon::scope(|scope| {
        let commit = &commit;
        let mut flush = |kind: TaskKind, batch: Vec<PreparedTask>| {
            stats.batches += 1;
            // A batch is one kind: its first task's cost stands for all.
            let task_flops = batch.first().map_or(0, |p| p.task.flops_rank_reduced());
            let plan = match config.resource {
                ApplyResource::Cpu => SplitPlan::all_cpu(batch.len()),
                ApplyResource::Gpu => SplitPlan::all_gpu(batch.len()),
                ApplyResource::Hybrid => {
                    let m = cpu_model
                        .batch_time(batch.len(), task_flops, d, k, op.rank(), config.threads)
                        .as_secs_f64();
                    let gcost = batch
                        .first()
                        .map(|p| {
                            madness_gpusim::kernel::kernel_cost(device.spec(), kernel, &p.task)
                        })
                        .unwrap_or_default();
                    let conc = device.concurrency(gcost.sms_used).max(1) as f64;
                    let n = gcost.duration.as_secs_f64() * batch.len() as f64 / conc;
                    SplitPlan::for_times(batch.len(), m, n)
                }
                ApplyResource::Adaptive => {
                    // CPU feedback arrives whenever a chunk retires: a
                    // chunk's busy time over the executor's width is what
                    // the CPU side as a whole needs per task — the same
                    // quantity a fork-join's wall time used to measure.
                    for sample in sample_rx.try_iter() {
                        let cpu_ns = sample.busy_ns / workers;
                        dispatcher.record(sample.kind, sample.tasks, cpu_ns, 0, 0);
                        sim_now += SimTime::from_nanos(cpu_ns);
                    }
                    let depth = device.queue_depth(sim_now);
                    let decision = dispatcher.plan(kind, batch.len(), depth);
                    rec.observe_split(decision.k);
                    rec.observe_dispatch(decision.sample());
                    decision.plan
                }
            };
            stats.cpu_tasks += plan.cpu_tasks as u64;
            stats.gpu_tasks += plan.gpu_tasks as u64;
            // CPU side (honours rank reduction): ownership of the tasks
            // moves into the spawned chunk, which runs them in order
            // inside one workspace — each run of one source as one group
            // call — and retires as one commit segment. The schedule,
            // not split-on-demand, owns the grain.
            let mut tasks = batch.into_iter();
            let mut cpu_left = plan.cpu_tasks;
            while cpu_left > 0 {
                let len = chunk_len(&tasks.as_slice()[..cpu_left], task_flops);
                let chunk: Vec<PreparedTask> = tasks.by_ref().take(len).collect();
                cpu_left -= chunk.len();
                let seq = segments;
                segments += 1;
                scope.spawn(move |_| {
                    let t0 = Instant::now();
                    let results = Workspace::with(|ws| compute_cpu(&chunk, ws.scratch()));
                    if let Some(tx) = sample_tx {
                        // The receiver outlives the scope; a failed send
                        // could only lose feedback, never a result.
                        let _ = tx.send(ChunkSample {
                            kind,
                            tasks: chunk.len(),
                            busy_ns: t0.elapsed().as_nanos() as u64,
                        });
                    }
                    drop(chunk);
                    commit.retire(seq, results);
                });
            }

            // GPU side: the rest of the batch, after the CPU segments in
            // commit order — the exact pre-pipeline accumulation order
            // (bit-identical trees).
            if plan.gpu_tasks > 0 {
                let (neighbors, gpu_tasks): (Vec<Key>, Vec<TransformTask>) =
                    tasks.map(|p| (p.neighbor, p.task)).unzip();
                let out = device.execute_batch(&gpu_tasks, kernel, ExecMode::Full);
                if adaptive {
                    // Simulated GPU batch time feeds the cost model, and
                    // the batch occupies the stream queue for that long.
                    let gpu_ns = out.time.as_nanos();
                    dispatcher.record(kind, 0, 0, plan.gpu_tasks, gpu_ns);
                    device.note_inflight(sim_now, sim_now + SimTime::from_nanos(gpu_ns));
                }
                let results = neighbors
                    .into_iter()
                    .zip(out.results)
                    .map(|(neighbor, r)| (neighbor, r.expect("full mode returns results")))
                    .collect();
                let seq = segments;
                segments += 1;
                commit.retire(seq, results);
            }
        };

        for p in prepared {
            let kind = TaskKind::new(APPLY_OP_ID, p.neighbor.level() as u64);
            if let Some((flushed_kind, full)) = batcher.push(kind, p) {
                flush(flushed_kind, full);
            }
        }
        for (flushed_kind, rest) in batcher.drain() {
            flush(flushed_kind, rest);
        }
    });

    // ---- postprocess tail (Algorithm 6) ---------------------------------
    // Accumulation overlapped compute; only the segments that retired
    // while another thread held the tree are left, then `sum_down`.
    let mut result_tree = commit.finish(segments);
    sum_down(&mut result_tree);

    let host_cache_after = op.cache_stats();
    stats.host_cache = (
        host_cache_after.0 - host_cache_before.0,
        host_cache_after.1 - host_cache_before.1,
    );
    let (h, m, e) = device.cache().stats();
    stats.device_cache = (h, m, e);
    (result_tree, stats)
}

/// Cost grain of one spawned CPU chunk, in rank-reduced FLOPs: large
/// enough that queueing, waking and committing a chunk (a few µs) is
/// noise against running it (a whole 16-task batch at k = 4 is one
/// chunk), small enough that a batch of kernel-bound tasks (k = 10:
/// ≈ 2 MFLOP each, so every chunk is one source's run of the batch, at
/// most 27 tasks and ≈ 4 ms) still spreads over every worker.
const CHUNK_FLOPS: u64 = 1_000_000;

/// How many of `tasks` (the CPU share a flush has yet to spawn; not
/// empty) the next chunk takes: chunks are cut where the source
/// changes, so a source's displacement tasks stay side by side for the
/// group call that shares their leading passes — the first change of
/// source at or past [`CHUNK_FLOPS`] of work, which is at most one
/// source's run past the grain.
fn chunk_len(tasks: &[PreparedTask], task_flops: u64) -> usize {
    let grain = CHUNK_FLOPS.div_ceil(task_flops.max(1)).max(1);
    let mut len = tasks.len().min(grain as usize);
    while len < tasks.len() && same_source(&tasks[len - 1], &tasks[len]) {
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
/// (flush order; a flush's CPU chunks before its GPU share; task order
/// within), whatever order the segments finish in, so every target keeps
/// its accumulation order and the tree is bit-identical to a serial run.
struct Commit {
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
            ready: Mutex::new(ReadySegments {
                next: 0,
                done: BTreeMap::new(),
            }),
            tree: Mutex::new(tree),
        }
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
    /// Panics unless exactly `segments` segments were committed.
    fn finish(self, segments: usize) -> FunctionTree {
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

/// Whether two tasks transform the same source tensor (the same `Arc`,
/// which preprocess makes once per source).
fn same_source(a: &PreparedTask, b: &PreparedTask) -> bool {
    match (&a.task.s, &b.task.s) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// The CPU compute sub-tasks of one chunk, in order: every run of tasks
/// over one source is one group call, rank-reduced where the terms carry
/// effective ranks, exact otherwise.
fn compute_cpu(chunk: &[PreparedTask], scratch: &mut TransformScratch) -> Vec<(Key, Tensor)> {
    let mut rs: Vec<Tensor> = Vec::with_capacity(chunk.len());
    for run in chunk.chunk_by(same_source) {
        let first = &run[0].task;
        let s = first.s.as_ref().expect("full-fidelity task");
        let done = rs.len();
        rs.extend(run.iter().map(|_| Tensor::zeros(s.shape())));
        let term = |task: usize, mu| run[task].task.sum_term(mu, true);
        transform_sum_accumulate_group(s, first.rank(), term, scratch, &mut rs[done..]);
    }
    chunk.iter().map(|p| p.neighbor).zip(rs).collect()
}
