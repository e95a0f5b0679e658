//! A dependency-aware task graph: futures + completion-triggered
//! submission, the layer that turns one Apply into whole applications.
//!
//! MADNESS chains operators through *futures*: a task declares the
//! results it consumes, and the runtime submits it the moment its last
//! producer completes — there is no global barrier between pipeline
//! stages, so independent chains overlap freely (Harrison et al.,
//! arXiv:1507.01888). This module is that layer for the reproduction:
//!
//! * [`Future<T>`] — a write-once cell filled by exactly one task;
//! * [`TaskGraph::spawn`] — create a task with explicit predecessor
//!   [`TaskId`]s (acyclic *by construction*: dependencies must name
//!   already-spawned tasks, so a cycle cannot be expressed);
//! * [`TaskGraph::run`] — execute on a [`WorkerPool`]: initially-ready
//!   tasks are submitted immediately, every completion is reported back
//!   over a channel, and the driver decrements successor in-degrees and
//!   submits each task the instant it becomes ready. Ready tasks flow
//!   into the existing pool unchanged — batching/dispatch machinery
//!   downstream never knows a DAG exists.
//!
//! Determinism: the *values* computed are independent of execution
//! order because every inter-task communication goes through a
//! write-once [`Future`] whose producer is fixed at graph-construction
//! time. Scheduling order may vary run to run; results may not.
//! Panicked tasks still count as completed (their future stays empty),
//! so a failing task can never deadlock the graph — consumers observe
//! the missing value via [`Future::try_get`].

use crate::pool::WorkerPool;
use crossbeam::channel::unbounded;
use std::sync::{Arc, OnceLock};

/// Identifies a task within one [`TaskGraph`], in spawn order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

impl TaskId {
    /// Spawn-order index of the task inside its graph.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw spawn-order index — for schedulers that
    /// mirror a graph's dependency structure in their own task
    /// representation (the cluster DAG executor) and need to feed
    /// completions and fold-backs into a [`Frontier`].
    pub fn from_index(index: usize) -> TaskId {
        TaskId(index)
    }
}

/// A write-once result slot filled by exactly one task of a
/// [`TaskGraph`]. Cheap to clone; clones share the slot.
#[derive(Debug)]
pub struct Future<T> {
    cell: Arc<OnceLock<T>>,
    id: TaskId,
}

impl<T> Clone for Future<T> {
    fn clone(&self) -> Self {
        Future {
            cell: Arc::clone(&self.cell),
            id: self.id,
        }
    }
}

impl<T> Future<T> {
    /// The task that produces this future's value.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The value, if the producing task has completed successfully.
    /// `None` before completion or if the producer panicked.
    pub fn try_get(&self) -> Option<&T> {
        self.cell.get()
    }

    /// The value.
    ///
    /// # Panics
    /// Panics if the producer has not completed or panicked. Only call
    /// from tasks that declared the producer as a dependency (or after
    /// [`TaskGraph::run`] returned).
    pub fn get(&self) -> &T {
        self.cell
            .get()
            .expect("future read before its producing task completed")
    }
}

struct Node {
    job: Box<dyn FnOnce() + Send + 'static>,
    deps: Vec<usize>,
}

/// A cheap checkpoint of a partially-executed graph: how much has
/// completed, and the minimal cut needed to resume.
///
/// Because futures are write-once and producers are fixed at
/// construction time, a lost execution is recoverable from exactly this
/// plus the graph structure: re-run [`Frontier::pending`] in spawn
/// order and every future refills with identical values. The serving
/// cluster's node-loss recovery (checkpoint + delta ledger) is the
/// DES-side mirror of this snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// Tasks completed so far.
    pub completed: usize,
    /// Completed tasks that still have an incomplete successor — the
    /// results a resumed execution actually reads. Everything behind
    /// the frontier is dead weight and need not be retained.
    pub frontier: Vec<TaskId>,
}

impl FrontierSnapshot {
    /// Serializes the checkpoint as one line of JSON
    /// (`madness-frontier-v1`): what a node writes at an epoch boundary
    /// so a survivor can fold a crashed peer back to the cut.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"v\":\"madness-frontier-v1\",\"completed\":");
        let _ = write!(out, "{}", self.completed);
        out.push_str(",\"frontier\":[");
        for (i, id) in self.frontier.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", id.index());
        }
        out.push_str("]}");
        out
    }

    /// Parses a [`FrontierSnapshot::to_json`] line. Returns `None` on
    /// any malformed input (wrong version tag included) — a corrupt
    /// checkpoint must read as "no checkpoint", never as an empty one.
    pub fn from_json(s: &str) -> Option<FrontierSnapshot> {
        let s = s.trim();
        let body = s.strip_prefix("{\"v\":\"madness-frontier-v1\",\"completed\":")?;
        let body = body.strip_suffix("]}")?;
        let (completed, ids) = body.split_once(",\"frontier\":[")?;
        let completed = completed.parse().ok()?;
        let frontier = if ids.is_empty() {
            Vec::new()
        } else {
            ids.split(',')
                .map(|t| t.trim().parse().ok().map(TaskId))
                .collect::<Option<Vec<_>>>()?
        };
        Some(FrontierSnapshot {
            completed,
            frontier,
        })
    }
}

/// Completion tracker over a [`TaskGraph`]'s dependency structure: the
/// lineage ledger for crash recovery.
///
/// Built from a graph *before* it is consumed by
/// [`TaskGraph::run`]; completions are fed in as they are observed
/// (any dependency-respecting order), and [`Frontier::snapshot`] /
/// [`Frontier::pending`] answer "what survives a crash" and "what must
/// re-execute".
#[derive(Clone, Debug)]
pub struct Frontier {
    deps: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    done: Vec<bool>,
    completed: usize,
}

impl Frontier {
    /// A frontier over a raw dependency structure: `deps[i]` lists the
    /// predecessors of task `i`, each naming an earlier index. This is
    /// how schedulers that lower a graph to their own task
    /// representation (the cluster DAG executor's [`DagWorkload`])
    /// share the checkpoint/fold/replay machinery without owning a
    /// [`TaskGraph`].
    ///
    /// [`DagWorkload`]: ../../madness_cluster/dag/struct.DagWorkload.html
    ///
    /// # Panics
    /// Panics if any dependency does not name an earlier task (the
    /// structure would admit a cycle).
    pub fn from_deps(deps: Vec<Vec<usize>>) -> Frontier {
        let n = deps.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < i, "dependency {d} does not name an earlier task");
                succs[d].push(i);
            }
        }
        Frontier {
            deps,
            succs,
            done: vec![false; n],
            completed: 0,
        }
    }

    /// Tasks tracked.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether the tracked graph is empty.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Whether every task has completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.done.len()
    }

    /// The tasks that consume `id`'s value, once per dependency edge
    /// (a task listing `id` twice appears twice) — what a scheduler
    /// walks to release work when `id` completes.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succs[id.0].iter().map(|&s| TaskId(s))
    }

    /// Records the completion of `id`. Idempotent.
    ///
    /// # Panics
    /// Panics if `id` is out of range, or (debug builds) if a
    /// dependency of `id` has not completed — a completion order that
    /// violates the dependency structure is a driver bug, and a
    /// checkpoint taken from it would be unrecoverable.
    pub fn mark_complete(&mut self, id: TaskId) {
        assert!(id.0 < self.done.len(), "unknown task {id:?}");
        if self.done[id.0] {
            return;
        }
        debug_assert!(
            self.deps[id.0].iter().all(|&d| self.done[d]),
            "task {id:?} completed before its dependencies"
        );
        self.done[id.0] = true;
        self.completed += 1;
    }

    /// Folds lost completions back out of the ledger: each id in
    /// `lost` is marked incomplete again (idempotent — already-pending
    /// ids are ignored), so [`Frontier::pending`] grows to include the
    /// re-execution set. This is the crash fold: a node died holding
    /// values that never reached a checkpoint, and the work that
    /// produced them must run again. Completed *consumers* of a lost
    /// value stay completed — they hold their own results; only the
    /// lost producers re-execute.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn fold_back(&mut self, lost: &[TaskId]) {
        for id in lost {
            assert!(id.0 < self.done.len(), "unknown task {id:?}");
            if self.done[id.0] {
                self.done[id.0] = false;
                self.completed -= 1;
            }
        }
    }

    /// The checkpoint: completed count plus the completed tasks whose
    /// results a resumed execution still needs (those with at least one
    /// incomplete successor).
    pub fn snapshot(&self) -> FrontierSnapshot {
        let frontier = (0..self.done.len())
            .filter(|&i| self.done[i] && self.succs[i].iter().any(|&s| !self.done[s]))
            .map(TaskId)
            .collect();
        FrontierSnapshot {
            completed: self.completed,
            frontier,
        }
    }

    /// The re-execution set: incomplete tasks in spawn order, which is
    /// a valid topological order by construction.
    pub fn pending(&self) -> Vec<TaskId> {
        (0..self.done.len())
            .filter(|&i| !self.done[i])
            .map(TaskId)
            .collect()
    }

    /// Incomplete tasks whose dependencies have all completed — the
    /// immediately resumable wave.
    pub fn ready(&self) -> Vec<TaskId> {
        (0..self.done.len())
            .filter(|&i| !self.done[i] && self.deps[i].iter().all(|&d| self.done[d]))
            .map(TaskId)
            .collect()
    }
}

/// Statistics from one graph execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphRunStats {
    /// Tasks executed (every spawned task runs exactly once).
    pub tasks: usize,
    /// Dependency edges in the graph.
    pub edges: usize,
    /// Tasks that were ready at submission time with no predecessors.
    pub roots: usize,
    /// High-water mark of tasks simultaneously submitted-but-unfinished
    /// as seen by the driver — > 1 proves stages genuinely overlapped.
    pub max_in_flight: usize,
}

/// A directed acyclic graph of tasks communicating through futures.
///
/// Build with [`TaskGraph::spawn`], execute with [`TaskGraph::run`]
/// (parallel, completion-triggered) or [`TaskGraph::run_inline`]
/// (sequential spawn-order reference — the barrier-free determinism
/// baseline used by tests).
#[derive(Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Number of spawned tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no tasks have been spawned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A [`Frontier`] over this graph's current dependency structure,
    /// with nothing completed yet. Take it before [`TaskGraph::run`]
    /// consumes the graph.
    pub fn frontier(&self) -> Frontier {
        Frontier::from_deps(self.nodes.iter().map(|n| n.deps.clone()).collect())
    }

    /// Spawns a task that runs `f` once every task in `deps` has
    /// completed, and returns the [`Future`] its result fills.
    ///
    /// Dependencies must be ids previously returned by this graph's
    /// `spawn` — the graph is acyclic by construction because a task
    /// can only depend on tasks that already exist.
    ///
    /// # Panics
    /// Panics if a dependency id does not name an existing task.
    pub fn spawn<T, F>(&mut self, deps: &[TaskId], f: F) -> Future<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let id = TaskId(self.nodes.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "dependency {:?} does not name an earlier task",
                d
            );
        }
        let cell: Arc<OnceLock<T>> = Arc::new(OnceLock::new());
        let out = Arc::clone(&cell);
        self.nodes.push(Node {
            job: Box::new(move || {
                let _ = out.set(f());
            }),
            deps: deps.iter().map(|d| d.0).collect(),
        });
        Future { cell, id }
    }

    /// Executes the graph on `pool` with completion-triggered
    /// submission and no stage barriers, blocking until every task has
    /// run. Consumes the graph (each task runs exactly once).
    pub fn run(self, pool: &WorkerPool) -> GraphRunStats {
        let n = self.nodes.len();
        let mut stats = GraphRunStats {
            tasks: n,
            ..GraphRunStats::default()
        };
        if n == 0 {
            return stats;
        }

        // Successor lists + in-degrees from the per-node dep lists.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree: Vec<usize> = vec![0; n];
        for (i, node) in self.nodes.iter().enumerate() {
            indegree[i] = node.deps.len();
            stats.edges += node.deps.len();
            for &d in &node.deps {
                succs[d].push(i);
            }
        }

        // Workers report completions here; the guard fires even if the
        // job panics, so a failing task can never wedge the driver.
        let (done_tx, done_rx) = unbounded::<usize>();
        let mut jobs: Vec<Option<Box<dyn FnOnce() + Send>>> =
            self.nodes.into_iter().map(|node| Some(node.job)).collect();

        let mut in_flight = 0usize;
        let mut submit = |id: usize, in_flight: &mut usize, max: &mut usize| {
            let job = jobs[id].take().expect("task submitted twice");
            let tx = done_tx.clone();
            *in_flight += 1;
            *max = (*max).max(*in_flight);
            pool.submit(move || {
                struct Report(crossbeam::channel::Sender<usize>, usize);
                impl Drop for Report {
                    fn drop(&mut self) {
                        let _ = self.0.send(self.1);
                    }
                }
                let _report = Report(tx, id);
                job();
            });
        };

        for (id, &deg) in indegree.iter().enumerate() {
            if deg == 0 {
                stats.roots += 1;
                submit(id, &mut in_flight, &mut stats.max_in_flight);
            }
        }
        assert!(
            stats.roots > 0,
            "graph has tasks but no roots (impossible: acyclic by construction)"
        );

        let mut completed = 0usize;
        while completed < n {
            let id = done_rx.recv().expect("workers dropped the channel");
            completed += 1;
            in_flight -= 1;
            for &s in &succs[id] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    submit(s, &mut in_flight, &mut stats.max_in_flight);
                }
            }
        }
        stats
    }

    /// Executes every task on the calling thread in spawn order (which
    /// is a topological order by construction). The sequential
    /// reference: identical future values to [`TaskGraph::run`], no
    /// concurrency.
    pub fn run_inline(self) -> GraphRunStats {
        let n = self.nodes.len();
        let mut edges = 0;
        let mut roots = 0;
        for node in self.nodes {
            edges += node.deps.len();
            if node.deps.is_empty() {
                roots += 1;
            }
            (node.job)();
        }
        GraphRunStats {
            tasks: n,
            edges,
            roots,
            max_in_flight: usize::from(n > 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn diamond_propagates_values_through_futures() {
        let mut g = TaskGraph::new();
        let a = g.spawn(&[], || 2u64);
        let (a1, a2) = (a.clone(), a.clone());
        let b = g.spawn(&[a.id()], move || a1.get() * 3);
        let c = g.spawn(&[a.id()], move || a2.get() + 10);
        let (bb, cc) = (b.clone(), c.clone());
        let d = g.spawn(&[b.id(), c.id()], move || bb.get() + cc.get());
        let pool = WorkerPool::new(4);
        let stats = g.run(&pool);
        assert_eq!(*d.get(), 2 * 3 + 2 + 10);
        assert_eq!(stats.tasks, 4);
        assert_eq!(stats.edges, 4);
        assert_eq!(stats.roots, 1);
    }

    #[test]
    fn run_inline_matches_parallel_values() {
        fn build(g: &mut TaskGraph) -> Future<u64> {
            let mut prev = g.spawn(&[], || 1u64);
            for i in 1..20u64 {
                let p = prev.clone();
                prev = g.spawn(&[p.id()], move || p.get().wrapping_mul(31).wrapping_add(i));
            }
            prev
        }
        let mut g1 = TaskGraph::new();
        let f1 = build(&mut g1);
        g1.run_inline();
        let mut g2 = TaskGraph::new();
        let f2 = build(&mut g2);
        let pool = WorkerPool::new(3);
        g2.run(&pool);
        assert_eq!(f1.get(), f2.get());
    }

    #[test]
    fn wide_fanout_runs_every_task_once() {
        let mut g = TaskGraph::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let root = g.spawn(&[], || 7usize);
        let leaves: Vec<Future<usize>> = (0..100)
            .map(|i| {
                let r = root.clone();
                let c = Arc::clone(&counter);
                g.spawn(&[root.id()], move || {
                    c.fetch_add(1, Ordering::Relaxed);
                    r.get() + i
                })
            })
            .collect();
        let ids: Vec<TaskId> = leaves.iter().map(|l| l.id()).collect();
        let sum = g.spawn(&ids, move || leaves.iter().map(|l| *l.get()).sum::<usize>());
        let pool = WorkerPool::new(8);
        let stats = g.run(&pool);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(*sum.get(), 100 * 7 + (0..100).sum::<usize>());
        assert!(stats.max_in_flight > 1, "fan-out must actually overlap");
    }

    #[test]
    fn no_barrier_between_stages() {
        // X (a root) spins until Y — a *successor* of another root —
        // sets the flag. With 2 workers this only terminates if Y is
        // submitted while X still occupies a worker, i.e. if completion
        // of Z triggers Y with no "wait for all ready tasks" barrier.
        let flag = Arc::new(AtomicBool::new(false));
        let mut g = TaskGraph::new();
        let z = g.spawn(&[], || ());
        let fy = Arc::clone(&flag);
        let _y = g.spawn(&[z.id()], move || fy.store(true, Ordering::SeqCst));
        let fx = Arc::clone(&flag);
        let _x = g.spawn(&[], move || {
            while !fx.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
        let pool = WorkerPool::new(2);
        let stats = g.run(&pool);
        assert_eq!(stats.roots, 2);
        assert!(stats.max_in_flight >= 2);
    }

    #[test]
    fn panicking_task_completes_with_empty_future() {
        let mut g = TaskGraph::new();
        let bad: Future<u64> = g.spawn(&[], || panic!("task blew up"));
        let b = bad.clone();
        let after = g.spawn(&[bad.id()], move || b.try_get().copied().unwrap_or(42));
        let pool = WorkerPool::new(2);
        let stats = g.run(&pool); // must not deadlock
        assert_eq!(stats.tasks, 2);
        assert_eq!(bad.try_get(), None);
        assert_eq!(*after.get(), 42);
    }

    #[test]
    #[should_panic(expected = "does not name an earlier task")]
    fn forward_dependencies_are_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.spawn(&[TaskId(5)], || 0u64);
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let pool = WorkerPool::new(1);
        let stats = TaskGraph::new().run(&pool);
        assert_eq!(stats.tasks, 0);
        assert_eq!(TaskGraph::new().run_inline().tasks, 0);
    }

    /// a → b → d, a → c → d: the diamond used throughout.
    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.spawn(&[], || 1u64);
        let b = g.spawn(&[a.id()], || 2u64);
        let c = g.spawn(&[a.id()], || 3u64);
        let d = g.spawn(&[b.id(), c.id()], || 4u64);
        let ids = [a.id(), b.id(), c.id(), d.id()];
        (g, ids)
    }

    #[test]
    fn successors_list_one_entry_per_edge() {
        let (g, [a, b, c, d]) = diamond();
        let f = g.frontier();
        assert_eq!(f.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(f.successors(d).count(), 0);
        // A doubled edge is two entries: a consumer counting its
        // missing inputs by edge gets one release per edge.
        let twice = Frontier::from_deps(vec![vec![], vec![0, 0]]);
        assert_eq!(twice.successors(TaskId(0)).count(), 2);
    }

    #[test]
    fn frontier_tracks_the_minimal_resume_cut() {
        let (g, [a, b, c, d]) = diamond();
        let mut f = g.frontier();
        assert_eq!(f.len(), 4);
        assert!(!f.is_complete());
        assert_eq!(f.ready(), vec![a]);
        assert_eq!(f.snapshot(), FrontierSnapshot::default());

        f.mark_complete(a);
        // a is the frontier: both b and c still need its result.
        assert_eq!(f.snapshot().frontier, vec![a]);
        assert_eq!(f.ready(), vec![b, c]);
        assert_eq!(f.pending(), vec![b, c, d]);

        f.mark_complete(b);
        f.mark_complete(c);
        // a has fallen behind the frontier: every successor completed.
        let snap = f.snapshot();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.frontier, vec![b, c]);
        assert_eq!(f.ready(), vec![d]);

        f.mark_complete(d);
        assert!(f.is_complete());
        assert_eq!(f.snapshot().frontier, vec![], "nothing left to resume");
        assert_eq!(f.pending(), vec![]);
        // Idempotent completion.
        f.mark_complete(d);
        assert_eq!(f.completed(), 4);
    }

    #[test]
    fn frontier_pending_replays_to_identical_values() {
        // Crash after a topological prefix, resume by running exactly
        // `pending()` in order: the chain's final value must match an
        // uninterrupted run (lineage re-execution correctness).
        fn build(g: &mut TaskGraph) -> Vec<Future<u64>> {
            let mut futs: Vec<Future<u64>> = Vec::new();
            let root = g.spawn(&[], || 5u64);
            futs.push(root);
            for i in 1..12u64 {
                let p = futs[(i as usize) / 2].clone();
                futs.push(g.spawn(&[p.id()], move || p.get().wrapping_mul(31).wrapping_add(i)));
            }
            futs
        }
        let mut g_full = TaskGraph::new();
        let full = build(&mut g_full);
        g_full.run_inline();

        let mut g = TaskGraph::new();
        let futs = build(&mut g);
        let mut frontier = g.frontier();
        // "Crash" after the first 5 tasks: jobs are lost, values live
        // in the write-once futures behind the frontier.
        let mut jobs: Vec<Option<Box<dyn FnOnce() + Send>>> =
            g.nodes.into_iter().map(|n| Some(n.job)).collect();
        for (id, job) in jobs.iter_mut().enumerate().take(5) {
            (job.take().unwrap())();
            frontier.mark_complete(TaskId(id));
        }
        assert_eq!(frontier.snapshot().completed, 5);
        for id in frontier.pending() {
            (jobs[id.index()].take().unwrap())();
            frontier.mark_complete(id);
        }
        assert!(frontier.is_complete());
        for (a, b) in full.iter().zip(&futs) {
            assert_eq!(a.get(), b.get(), "resumed lineage diverged");
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert-gated ordering check")]
    #[should_panic(expected = "before its dependencies")]
    fn frontier_rejects_dependency_violating_completions() {
        let (g, [_, b, ..]) = diamond();
        let mut f = g.frontier();
        f.mark_complete(b); // b before a: an invalid checkpoint
    }

    #[test]
    fn frontier_from_deps_matches_taskgraph_frontier() {
        let (g, [a, b, c, d]) = diamond();
        let mut from_graph = g.frontier();
        let mut from_deps = Frontier::from_deps(vec![vec![], vec![0], vec![0], vec![1, 2]]);
        for id in [a, b, c] {
            from_graph.mark_complete(id);
            from_deps.mark_complete(id);
        }
        assert_eq!(from_graph.snapshot(), from_deps.snapshot());
        assert_eq!(from_graph.pending(), from_deps.pending());
        assert_eq!(from_deps.ready(), vec![d]);
    }

    #[test]
    #[should_panic(expected = "does not name an earlier task")]
    fn frontier_from_deps_rejects_forward_edges() {
        let _ = Frontier::from_deps(vec![vec![], vec![2], vec![]]);
    }

    #[test]
    fn fold_back_reopens_lost_work_idempotently() {
        let (g, [a, b, c, d]) = diamond();
        let mut f = g.frontier();
        for id in [a, b, c] {
            f.mark_complete(id);
        }
        // The crash loses b and c's values; a survives (checkpointed).
        f.fold_back(&[b, c, d]); // d was never complete: ignored
        assert_eq!(f.completed(), 1);
        assert_eq!(f.pending(), vec![b, c, d]);
        assert_eq!(f.snapshot().frontier, vec![a]);
        // Replaying pending in spawn order completes the graph again.
        for id in f.pending() {
            f.mark_complete(id);
        }
        assert!(f.is_complete());
        // Idempotent: folding back nothing-lost is a no-op.
        let snap = f.snapshot();
        f.fold_back(&[]);
        assert_eq!(f.snapshot(), snap);
    }

    #[test]
    fn snapshot_serialization_round_trips() {
        let (g, [a, b, c, _]) = diamond();
        let mut f = g.frontier();
        for id in [a, b, c] {
            f.mark_complete(id);
        }
        let snap = f.snapshot();
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"v\":\"madness-frontier-v1\",\"completed\":3,\"frontier\":[1,2]}"
        );
        assert_eq!(FrontierSnapshot::from_json(&json), Some(snap));
        // The empty checkpoint round-trips too.
        let empty = FrontierSnapshot::default();
        assert_eq!(FrontierSnapshot::from_json(&empty.to_json()), Some(empty));
        // Corrupt input reads as "no checkpoint", not as an empty one.
        for bad in [
            "",
            "{}",
            "{\"v\":\"madness-frontier-v2\",\"completed\":3,\"frontier\":[1]}",
            "{\"v\":\"madness-frontier-v1\",\"completed\":x,\"frontier\":[]}",
            "{\"v\":\"madness-frontier-v1\",\"completed\":3,\"frontier\":[1,]}",
        ] {
            assert_eq!(FrontierSnapshot::from_json(bad), None, "input: {bad:?}");
        }
    }
}
