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
    /// lower a graph to their own task representation and name its
    /// tasks by index (the cluster DAG executor's checkpoint cut).
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
}
