//! DAG-aware node execution: chained-operator workloads on the cluster.
//!
//! The batching pipeline of [`crate::node`] schedules one *flat* bag of
//! Apply tasks. Real MADNESS applications chain operators — an SCF
//! iteration applies the BSH Green's function, mixes, checks
//! convergence, and applies again — through a futures DAG with **no
//! global barrier between stages** (Harrison et al., arXiv:1507.01888).
//! This module executes such a [`DagWorkload`] on `N` simulated nodes
//! two ways:
//!
//! * [`DagMode::Dataflow`] — a task starts as soon as its predecessors
//!   have finished (plus a network hop when a value crosses nodes) and
//!   its chain's node is free; stages of different chains overlap
//!   freely, which is exactly the inter-stage overlap the trace
//!   sweep-line ([`madness_trace::stage_overlap_ns`]) measures;
//! * [`DagMode::Barrier`] — the bulk-synchronous baseline: tasks of
//!   global step `s` may not start until *every* task of step `s-1`
//!   has finished anywhere in the cluster. One stage runs at a time,
//!   so the overlap metric is zero by construction.
//!
//! Everything is simulated time on a calibrated [`NodeRate`] (the same
//! affine node model the serve/balance DES uses), so both modes — and
//! the seeded fault injection, which retries a failed attempt after a
//! backoff and quarantines a task's node assignment after repeated
//! failures — are bit-identical across runs with the same seed.
//!
//! # Survivable execution
//!
//! [`run_dag_survivable`] extends the Dataflow scheduler with
//! whole-node lifecycle faults ([`NodeFault`] via a resolved
//! [`NodeTimeline`]) and lineage-replay recovery:
//!
//! * **Frontier checkpoints** — the run's one completion ledger is its
//!   per-task `held` values: a commit fills one, a fold-back voids it,
//!   and the ready set, the in-degrees and the checkpoint cut are all
//!   read off it. The cut is quantised to
//!   [`DagSurvivalSpec::checkpoint_every`] boundaries. Values that
//!   finished at or before the last boundary are durable; values that
//!   finished after it die with their node.
//! * **Crash fold + replay** — when a node crashes, its post-cut
//!   values are voided, the in-degrees and the ready set are recounted
//!   from what still holds a value, and the cut is read off the result
//!   ([`FrontierSnapshot`]: the held values some pending task reads).
//!   The crashed node's chains are reassigned over the survivors with
//!   [`lpt_assign`] (weights = pending work per chain, bases = each
//!   survivor's backlog), and the voided tasks re-execute with fresh
//!   per-incarnation fault draws. Checkpointed
//!   frontier values still resident on a dead node migrate to the
//!   chain's new home through the contended [`Interconnect`]
//!   (journaled as [`Stage::Recover`] spans on the destination lane).
//! * **Tail speculation** — with
//!   [`DagSurvivalSpec::speculate_tails`], the chain tails on the
//!   static critical path launch a second copy on the least-loaded
//!   other node (state hop charged); first completion wins, ties go
//!   to the primary, and the loser is cancelled and accounted.
//!
//! The conservation law widens accordingly (see
//! [`SurvivableDagReport::conserved`]):
//!
//! ```text
//! tasks + injected + voided + speculative_copies
//!     == attempts_journaled + cancelled_copies
//! ```
//!
//! where `voided` counts attempt spans truncated by a crash plus
//! completions folded back to the checkpoint cut. An inert
//! [`DagSurvivalSpec`] is the identity: [`run_dag`] is exactly the
//! survivable engine with no timeline and no speculation.
//!
//! [`NodeFault`]: madness_faults::NodeFault
//! [`NodeTimeline`]: madness_faults::NodeTimeline
//! [`lpt_assign`]: madness_mra::procmap::lpt_assign
//! [`Stage::Recover`]: madness_trace::Stage::Recover

use crate::network::{Interconnect, NetworkModel};
use crate::node::NodeRate;
use madness_faults::{draw, NodeTimeline};
use madness_gpusim::SimTime;
use madness_mra::procmap::lpt_assign;
use madness_runtime::graph::TaskId;
use madness_trace::{
    stage_overlap_ns, Event, FaultAction, FaultEvent, FaultKind, Recorder, Span, Stage,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Salt for first-incarnation per-attempt failure draws.
const SALT_FAIL: u64 = 0xDA6_FA11;
/// Salt base for post-crash replay incarnations (combined with the
/// incarnation count so each replay redraws independently).
const SALT_REPLAY: u64 = 0xDA6_2EA1;
/// Salt base for speculative-copy attempt draws.
const SALT_COPY: u64 = 0xDA6_C0B1;

/// Bytes a chained value puts on the wire per unit of task cost when a
/// dependency crosses nodes (one coefficient block's worth).
const BYTES_PER_COST: u64 = 4096;

/// One task of a chained-operator workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagTask {
    /// Which operator chain (SCF orbital, BSH source) the task belongs
    /// to; chains are pinned to node `chain % nodes`.
    pub chain: u32,
    /// Global step index (iteration × phases + phase) — only consulted
    /// by the barrier baseline, which synchronizes between steps.
    pub step: u32,
    /// Pipeline stage the task's span is journaled as.
    pub stage: Stage,
    /// Work units; the task busies its node for `per_task × cost`.
    pub cost: u64,
    /// Indices of earlier tasks whose values this task consumes.
    pub deps: Vec<usize>,
}

/// A chained-operator workload: tasks plus dependency edges, acyclic by
/// construction (a task may only depend on previously pushed tasks).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagWorkload {
    tasks: Vec<DagTask>,
}

impl DagWorkload {
    /// An empty workload.
    pub fn new() -> Self {
        DagWorkload::default()
    }

    /// Appends a task and returns its index.
    ///
    /// Dependencies may sit in the same step as the task (push order
    /// already topologically orders them, and Dataflow mode only
    /// consults the edges); only a dependency in a *later* step is
    /// rejected. The stricter stratification the barrier baseline
    /// needs — every edge crossing strictly increasing steps — is
    /// checked by [`DagWorkload::is_barrier_stratified`] and enforced
    /// when a run actually requests [`DagMode::Barrier`].
    ///
    /// # Panics
    /// Panics if a dependency does not name an earlier task, or names
    /// a task in a later step.
    pub fn push(&mut self, task: DagTask) -> usize {
        let id = self.tasks.len();
        for &d in &task.deps {
            assert!(d < id, "dependency {d} does not name an earlier task");
            assert!(
                self.tasks[d].step <= task.step,
                "dependency {d} (step {}) is in a later step than {} (step {})",
                self.tasks[d].step,
                id,
                task.step
            );
        }
        self.tasks.push(task);
        id
    }

    /// Whether steps stratify the edges: every dependency sits in a
    /// strictly earlier step, so a global barrier between steps is a
    /// valid schedule. Same-step edges are fine for Dataflow mode but
    /// would deadlock a step-at-a-time barrier schedule that releases
    /// a whole step at once.
    pub fn is_barrier_stratified(&self) -> bool {
        self.tasks
            .iter()
            .all(|t| t.deps.iter().all(|&d| self.tasks[d].step < t.step))
    }

    /// The tasks, in push (topological) order.
    pub fn tasks(&self) -> &[DagTask] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total dependency edges.
    pub fn edges(&self) -> usize {
        self.tasks.iter().map(|t| t.deps.len()).sum()
    }

    /// Number of distinct chains.
    pub fn chains(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| t.chain as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// How the cluster executes the DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagMode {
    /// Completion-triggered: a task waits only for its own
    /// predecessors (futures semantics, no stage barrier).
    Dataflow,
    /// Bulk-synchronous baseline: a global barrier between steps.
    Barrier,
}

/// Seeded fault injection for DAG execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DagFaultSpec {
    /// Seed for the stateless per-attempt failure draws.
    pub seed: u64,
    /// Probability any single attempt fails.
    pub fail_rate: f64,
    /// Detection + re-submission delay charged per failed attempt.
    pub backoff: SimTime,
    /// Failed attempts tolerated before the task's node assignment is
    /// quarantined and the work moves to the next node.
    pub max_retries: u32,
}

impl DagFaultSpec {
    /// No faults.
    pub fn none() -> Self {
        DagFaultSpec {
            seed: 0,
            fail_rate: 0.0,
            backoff: SimTime::ZERO,
            max_retries: 2,
        }
    }
}

/// Whole-node lifecycle faults and recovery policy for
/// [`run_dag_survivable`].
#[derive(Clone, Debug)]
pub struct DagSurvivalSpec {
    /// When nodes crash, partition and rejoin.
    pub timeline: NodeTimeline,
    /// Checkpoint cadence: values completed at or before the last
    /// boundary `k × checkpoint_every` survive their node's crash.
    pub checkpoint_every: SimTime,
    /// Failure-detection delay: recovery (chain reassignment, value
    /// migration, replay release) starts this long after the crash.
    pub detect: SimTime,
    /// Launch a second copy of the critical-path chain tails on the
    /// least-loaded other node; first completion wins.
    pub speculate_tails: bool,
}

impl DagSurvivalSpec {
    /// The inert policy for `nodes` nodes: nothing crashes, nothing
    /// speculates — [`run_dag_survivable`] degenerates to [`run_dag`].
    pub fn none(nodes: usize) -> Self {
        DagSurvivalSpec {
            timeline: NodeTimeline::new(nodes),
            checkpoint_every: SimTime::from_millis(1),
            detect: SimTime::ZERO,
            speculate_tails: false,
        }
    }

    /// Whether this spec cannot perturb a run.
    pub fn is_inert(&self) -> bool {
        self.timeline.is_inert() && !self.speculate_tails
    }
}

/// Outcome of one DAG execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagRunReport {
    /// End-to-end simulated time.
    pub makespan: SimTime,
    /// Tasks executed.
    pub tasks: u64,
    /// Failed attempts injected by the fault plan.
    pub injected: u64,
    /// Re-submissions after a failed attempt (on the same node).
    pub retries: u64,
    /// Tasks whose node assignment was quarantined (moved off-node
    /// after exhausting retries).
    pub quarantines: u64,
    /// Final attempts that exhausted their retries with **nowhere to
    /// move** (single-node cluster, or every other node dead): the
    /// attempt reruns in place and is counted here, not as a
    /// quarantine.
    pub exhausted: u64,
    /// Simulated ns during which ≥ 2 distinct stages ran concurrently
    /// (the dataflow win; 0 for a barrier schedule by construction).
    pub overlap_ns: u64,
    /// Sum of all attempt spans (node busy time).
    pub busy_ns: u64,
    /// Longest dependency path (durations + cross-node hops), a lower
    /// bound on the makespan of any schedule.
    pub critical_path: SimTime,
    /// Per-node busy time.
    pub per_node_busy: Vec<SimTime>,
}

impl DagRunReport {
    /// Every attempt accounted: each injected failure was either
    /// retried in place, quarantined off-node, or exhausted with no
    /// neighbour to move to — and busy time fits inside
    /// `nodes × makespan`.
    pub fn conserved(&self, nodes: usize) -> bool {
        self.busy_ns <= self.makespan.as_nanos().saturating_mul(nodes as u64)
            && self.critical_path <= self.makespan
            && self.injected == self.retries + self.quarantines + self.exhausted
    }
}

/// Outcome of one survivable DAG execution: the base report plus the
/// crash/recovery/speculation ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SurvivableDagReport {
    /// The ordinary scheduling report (tasks, faults, overlap,
    /// critical path).
    pub base: DagRunReport,
    /// Node crashes processed.
    pub crashes: u64,
    /// Attempt spans voided by a crash: in-flight attempts truncated
    /// at the crash instant plus completions folded back to the
    /// checkpoint cut.
    pub voided: u64,
    /// Tasks re-executed after a fold-back.
    pub replayed: u64,
    /// Checkpointed frontier values migrated off dead nodes.
    pub migrated_values: u64,
    /// Bytes those migrations moved through the interconnect.
    pub migrated_bytes: u64,
    /// Simulated ns spent in recovery (crash instant → last migration
    /// arrival), summed over crashes.
    pub recovery_ns: u64,
    /// Speculative copies launched for critical-path chain tails.
    pub speculative_copies: u64,
    /// Copies cancelled by a first completion (one per speculated
    /// task: either the copy or the primary loses).
    pub cancelled_copies: u64,
    /// Attempt spans journaled (truncated crash partials included,
    /// cancelled speculation losers excluded — the journal is the
    /// committed history).
    pub attempts_journaled: u64,
    /// The frontier snapshot taken at the most recent crash (default
    /// if nothing crashed): what a survivor would resume from.
    pub last_checkpoint: FrontierSnapshot,
}

impl SurvivableDagReport {
    /// The widened conservation law:
    ///
    /// ```text
    /// tasks + injected + voided + speculative_copies
    ///     == attempts_journaled + cancelled_copies
    /// ```
    ///
    /// on top of the base invariants ([`DagRunReport::conserved`]).
    pub fn conserved(&self, nodes: usize) -> bool {
        self.base.conserved(nodes)
            && self.base.tasks + self.base.injected + self.voided + self.speculative_copies
                == self.attempts_journaled + self.cancelled_copies
    }
}

/// One planned slice of an attempt sequence.
#[derive(Clone, Copy, Debug)]
enum Piece {
    /// Chain-state migration hop onto an off-home node
    /// ([`Stage::Migrate`] span; wire time, not node busy time).
    Wire,
    /// A failed attempt; `last` marks retry exhaustion.
    Fail { last: bool },
    /// The completing attempt.
    Done,
}

/// One planned attempt run of a task on a node: an optional state hop,
/// the failing attempts with their backoff gaps, the completing attempt.
/// It is a handful of numbers, not a list: [`Attempt::pieces`] lays the
/// slices out wherever they are walked (the journal, the race's loser).
struct Attempt {
    node: usize,
    /// Whether retry exhaustion moved the work off its chain's home: a
    /// `Fail { last }` piece is then a quarantine, otherwise a rerun in
    /// place.
    moved: bool,
    launch: SimTime,
    end: SimTime,
    /// `node`'s crash instant, when it falls strictly inside the run:
    /// the journal truncates there and the task does not complete.
    cut: Option<SimTime>,
    /// The chain-state hop's wire time, paid first, when the run is not
    /// on its chain's home.
    wire: Option<SimTime>,
    /// Failing attempts before the completing one.
    failed: u32,
    /// Whether the last failing attempt exhausts the retries.
    exhausts: bool,
    /// One attempt's duration.
    dur: SimTime,
    /// The gap after each failing attempt.
    backoff: SimTime,
}

impl Attempt {
    /// The run's slices in time order: `(piece, start, end)`.
    fn pieces(&self) -> impl Iterator<Item = (Piece, SimTime, SimTime)> + '_ {
        let first = self.launch + self.wire.unwrap_or(SimTime::ZERO);
        let period = self.dur + self.backoff;
        let done = first + period * u64::from(self.failed);
        let wire = self
            .wire
            .map(|hop| (Piece::Wire, self.launch, self.launch + hop));
        let fails = (0..self.failed).map(move |a| {
            let last = self.exhausts && a + 1 == self.failed;
            let s = first + period * u64::from(a);
            (Piece::Fail { last }, s, s + self.dur)
        });
        wire.into_iter()
            .chain(fails)
            .chain(std::iter::once((Piece::Done, done, done + self.dur)))
    }
}

/// A task's live value.
#[derive(Clone, Copy)]
struct Held {
    /// The node it sits on.
    node: usize,
    /// When the task that produced it finished (what a checkpoint cut
    /// is compared against).
    finished: SimTime,
    /// When it can be read on `node`: `finished`, or its arrival after
    /// a recovery migration.
    avail: SimTime,
}

/// The checkpoint cut a crash leaves: how many tasks hold a value, and
/// the held values a resumed execution still reads.
///
/// Values are write-once and their producers fixed, so this plus the
/// dependency structure is all a survivor needs: every task without a
/// value re-executes, reading its inputs from the cut.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// Tasks holding a value.
    pub completed: usize,
    /// Tasks, in index order, that hold a value and have a successor
    /// that holds none. Values behind the frontier are read by no
    /// pending task and need not be retained.
    pub frontier: Vec<TaskId>,
}

/// A whole-node lifecycle event. At one instant rejoins sort before
/// crashes, so a simultaneous rejoin can absorb the crashed node's
/// chains.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lifecycle {
    Rejoin,
    Crash,
}

/// The ready tasks planned onto one node, ordered by planned start.
///
/// A task's *key* is `max(inputs_at, chain_ready)` on its node, fixed
/// until the next rebuild; it starts at `max(key, floor)`, where `floor`
/// is the node's `max(node_free, barrier_time)`. Both floors only rise
/// between rebuilds, so a task whose key is at or below the floor starts
/// at the floor from then on: it moves from `future` to `due` once, and
/// the node's soonest task is `(floor, lowest due task)`, or `future`'s
/// head while `due` is empty. Each entry carries the task's failing
/// attempt count; a committed task is dropped when it surfaces.
#[derive(Default)]
struct NodeQueue {
    /// `(key, task, failed)` for keys above the floor.
    future: BinaryHeap<Reverse<(SimTime, usize, u32)>>,
    /// `(task, failed)` for keys at or below the floor.
    due: BinaryHeap<Reverse<(usize, u32)>>,
}

/// Failure draws for one `(task, incarnation)`: how many attempts fail
/// before one sticks, under the given salt.
fn failed_attempts(faults: &DagFaultSpec, task: usize, salt: u64) -> u32 {
    let mut failed = 0u32;
    while failed < faults.max_retries
        && draw(faults.seed, salt, ((task as u64) << 8) | failed as u64) < faults.fail_rate
    {
        failed += 1;
    }
    failed
}

fn salt_for(incarnation: u32) -> u64 {
    if incarnation == 0 {
        SALT_FAIL
    } else {
        SALT_REPLAY.wrapping_add(incarnation as u64)
    }
}

/// Earliest instant `≥ from_ns` at which `a` and `b` are simultaneously
/// reachable, or `None` if that never happens again.
fn both_reachable_from(tl: &NodeTimeline, a: usize, b: usize, from_ns: u64) -> Option<u64> {
    let mut t = from_ns;
    loop {
        let ta = tl.reachable_from(a, t)?;
        let tb = tl.reachable_from(b, ta)?;
        if tb == ta {
            return Some(ta);
        }
        t = tb;
    }
}

/// The speculation targets: chain tails on the static critical path
/// (longest dependency path in cost units).
fn critical_tails(tasks: &[DagTask]) -> Vec<bool> {
    let n = tasks.len();
    let mut lp = vec![0u64; n];
    let mut has_succ = vec![false; n];
    for (i, t) in tasks.iter().enumerate() {
        let mut base = 0;
        for &d in &t.deps {
            base = base.max(lp[d]);
            has_succ[d] = true;
        }
        lp[i] = base + t.cost.max(1);
    }
    let lmax = (0..n)
        .filter(|&i| !has_succ[i])
        .map(|i| lp[i])
        .max()
        .unwrap_or(0);
    (0..n)
        .map(|i| !has_succ[i] && lp[i] == lmax && lmax > 0)
        .collect()
}

/// The timeline's crashes and rejoins, in firing order.
fn lifecycle_events(tl: &NodeTimeline) -> Vec<(SimTime, Lifecycle, usize)> {
    let mut events = Vec::new();
    for node in 0..tl.nodes() {
        if let Some(r) = tl.rejoin_at(node) {
            events.push((SimTime::from_nanos(r), Lifecycle::Rejoin, node));
        }
        if let Some(c) = tl.crash_at(node) {
            events.push((SimTime::from_nanos(c), Lifecycle::Crash, node));
        }
    }
    events.sort_unstable();
    events
}

/// Executes `workload` on `nodes` simulated nodes, journaling one span
/// per attempt (lane = node) plus fault events, and returns the run
/// report. Deterministic for a fixed `(workload, nodes, rate, net,
/// mode, faults)` tuple — replaying yields a bit-identical journal.
///
/// Equivalent to [`run_dag_survivable`] with an inert
/// [`DagSurvivalSpec`].
///
/// # Panics
/// Panics if `nodes == 0`, or in [`DagMode::Barrier`] if the workload
/// is not step-stratified ([`DagWorkload::is_barrier_stratified`]).
pub fn run_dag<R: Recorder>(
    workload: &DagWorkload,
    nodes: usize,
    rate: NodeRate,
    net: &NetworkModel,
    mode: DagMode,
    faults: &DagFaultSpec,
    rec: &mut R,
) -> DagRunReport {
    run_dag_survivable(
        workload,
        nodes,
        rate,
        net,
        mode,
        faults,
        &DagSurvivalSpec::none(nodes),
        rec,
    )
    .base
}

/// The survivable DAG engine: [`run_dag`] semantics plus whole-node
/// crash/partition/rejoin handling, frontier-checkpoint lineage replay
/// and optional tail speculation (see the module docs for the model).
///
/// # Panics
/// Panics if `nodes == 0`, if the survival timeline tracks a different
/// node count, if a non-inert spec is combined with
/// [`DagMode::Barrier`] (survivable execution is Dataflow-only), in
/// Barrier mode if the workload is not step-stratified, or if every
/// node crashes with work still pending.
#[allow(clippy::too_many_arguments)]
pub fn run_dag_survivable<R: Recorder>(
    workload: &DagWorkload,
    nodes: usize,
    rate: NodeRate,
    net: &NetworkModel,
    mode: DagMode,
    faults: &DagFaultSpec,
    survival: &DagSurvivalSpec,
    rec: &mut R,
) -> SurvivableDagReport {
    assert!(nodes > 0, "cluster must have nodes");
    assert_eq!(
        survival.timeline.nodes(),
        nodes,
        "survival timeline must track the cluster's node count"
    );
    assert!(
        mode == DagMode::Dataflow || survival.is_inert(),
        "survivable execution is Dataflow-only: the barrier baseline \
         has no frontier to fold back to"
    );
    let tasks = workload.tasks();
    let n = tasks.len();
    let mut steps: BTreeMap<u32, usize> = BTreeMap::new();
    if mode == DagMode::Barrier {
        assert!(
            workload.is_barrier_stratified(),
            "Barrier mode needs steps to stratify the edges: some \
             dependency shares its consumer's step (fine for Dataflow)"
        );
        for t in tasks {
            *steps.entry(t.step).or_default() += 1;
        }
    }
    let waiting: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
    // Successor lists in one flat array: task `d`'s consumers are
    // `succ[succ_at[d]..succ_at[d + 1]]`, in task order.
    let mut succ_at = vec![0; n + 1];
    for t in tasks {
        for &d in &t.deps {
            succ_at[d + 1] += 1;
        }
    }
    for d in 0..n {
        succ_at[d + 1] += succ_at[d];
    }
    let mut fill = succ_at.clone();
    let mut succ = vec![0; succ_at[n]];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            succ[fill[d]] = i;
            fill[d] += 1;
        }
    }
    DagRun {
        tasks,
        nodes,
        rate,
        net,
        faults,
        survival,
        rec,
        report: SurvivableDagReport {
            base: DagRunReport {
                tasks: n as u64,
                per_node_busy: vec![SimTime::ZERO; nodes],
                ..Default::default()
            },
            ..Default::default()
        },
        icn: Interconnect::new(net.clone()),
        succ_at,
        succ,
        spans: Vec::with_capacity(n),
        events: lifecycle_events(&survival.timeline),
        next_event: 0,
        held: vec![None; n],
        incarnation: vec![0; n],
        cp: vec![SimTime::ZERO; n],
        target: if survival.speculate_tails && nodes > 1 {
            critical_tails(tasks)
        } else {
            vec![false; n]
        },
        ready: (0..n).filter(|&i| waiting[i] == 0).collect(),
        waiting,
        remaining: n,
        dead: vec![false; nodes],
        node_free: vec![rate.startup; nodes],
        chain_home: (0..workload.chains()).map(|c| c % nodes).collect(),
        chain_ready: vec![SimTime::ZERO; workload.chains()],
        barrier_time: SimTime::ZERO,
        steps,
        queues: (0..nodes).map(|_| NodeQueue::default()).collect(),
        parked: BTreeMap::new(),
    }
    .run()
}

/// One survivable DAG execution: the run's inputs, the ledgers it
/// returns, and its scheduling state; the event arms are its methods.
struct DagRun<'a, R: Recorder> {
    tasks: &'a [DagTask],
    nodes: usize,
    rate: NodeRate,
    net: &'a NetworkModel,
    faults: &'a DagFaultSpec,
    survival: &'a DagSurvivalSpec,
    rec: &'a mut R,
    /// The report the run returns, tallied as things happen.
    report: SurvivableDagReport,
    /// The contended fabric recovery migrations cross, and the ledger
    /// the report's `migrated_*` fields are read from.
    icn: Interconnect,
    /// Per task `d`: the tasks that consume its value are
    /// `succ[succ_at[d]..succ_at[d + 1]]`, once per dependency edge (a
    /// task listing `d` twice appears twice, as `waiting` counts).
    succ_at: Vec<usize>,
    succ: Vec<usize>,
    /// Every journaled attempt span, for the stage-overlap sweep.
    spans: Vec<Span>,
    events: Vec<(SimTime, Lifecycle, usize)>,
    next_event: usize,
    /// Per task: the live value, if the task has completed and no
    /// crash has voided it since. The run's one completion ledger: the
    /// ready set, `waiting`, `remaining` and every checkpoint cut are
    /// read off it.
    held: Vec<Option<Held>>,
    /// Per task: completions voided or attempts cut down by a crash so
    /// far; each incarnation redraws its faults.
    incarnation: Vec<u32>,
    /// Per task: longest dependency path ending in it.
    cp: Vec<SimTime>,
    /// Per task: whether it is a speculation target.
    target: Vec<bool>,
    /// Per task: dependencies that hold no value. A commit releases
    /// work through `succs`; only a crash fold-back, which voids
    /// values, recounts.
    waiting: Vec<usize>,
    /// The ready frontier: value-less tasks whose dependencies all
    /// hold values, in index order. The scheduler picks from `queues`,
    /// which every rebuild re-plans from this set.
    ready: BTreeSet<usize>,
    /// Tasks without a value.
    remaining: usize,
    dead: Vec<bool>,
    node_free: Vec<SimTime>,
    /// Per chain: the node its tasks run on.
    chain_home: Vec<usize>,
    /// Per chain: replayed and reassigned work waits out detection.
    chain_ready: Vec<SimTime>,
    /// Tasks left per open step, in Barrier mode; empty in Dataflow.
    /// The smallest key is the step currently released; closing it
    /// raises `barrier_time` and releases the next one.
    steps: BTreeMap<u32, usize>,
    barrier_time: SimTime,
    /// Per node: the planned-start index of the ready tasks planned
    /// onto it (see [`NodeQueue`]).
    queues: Vec<NodeQueue>,
    /// Barrier mode: ready tasks of steps not yet open, by step; each
    /// step's tasks enter `queues` when it opens.
    parked: BTreeMap<u32, Vec<usize>>,
}

impl<R: Recorder> DagRun<'_, R> {
    /// Greedy earliest-start list scheduling: repeatedly run the ready
    /// task that can start soonest. Candidate starts are monotone
    /// non-decreasing, which is what lets lifecycle events interleave
    /// at the right instants: the next one fires as soon as nothing can
    /// start before it.
    fn run(mut self) -> SurvivableDagReport {
        self.rebuild();
        while self.remaining > 0 {
            let best = self.candidate();
            if let Some(&(at, what, node)) = self.events.get(self.next_event) {
                if best
                    .as_ref()
                    .is_none_or(|(_, soonest)| soonest.launch >= at)
                {
                    self.next_event += 1;
                    match what {
                        Lifecycle::Rejoin => self.rejoin(node, at),
                        Lifecycle::Crash => self.crash(node, at),
                    }
                    self.rebuild();
                    continue;
                }
            }
            let (task, primary) =
                best.expect("ready task must exist: DAG is acyclic and some node survives");
            let stage = self.tasks[task].stage;
            let won = match self.speculative_copy(task, &primary) {
                Some(copy) => self.race(stage, primary, copy),
                None => {
                    if self.journal(stage, &primary) {
                        // The node died mid-sequence: the task stays
                        // ready, redraws its faults, and replays after
                        // the crash event fires and reassigns its chain.
                        let cut = primary.cut.expect("truncation implies a crash cut");
                        self.node_free[primary.node] = self.node_free[primary.node].max(cut);
                        self.incarnation[task] += 1;
                        self.rebuild();
                        continue;
                    }
                    primary
                }
            };
            self.commit(task, &won);
        }
        self.report.base.overlap_ns = stage_overlap_ns(self.spans.iter());
        self.report.migrated_values = self.icn.tasks_moved();
        self.report.migrated_bytes = self.icn.bytes_moved();
        self.report
    }

    /// The ready task that can start soonest (ties to the lowest index,
    /// so the schedule is deterministic) and its planned run, read off
    /// the planned-start index: each node's soonest task is its queue's
    /// head (see [`NodeQueue`]), so a pick costs O(nodes), not a pass
    /// over the ready set. Debug builds check it against the scan it
    /// replaced (`scan_candidate`).
    fn candidate(&mut self) -> Option<(usize, Attempt)> {
        // (start, task, node, failing attempts)
        let mut best: Option<(SimTime, usize, usize, u32)> = None;
        for node in 0..self.nodes {
            if let Some((start, task, failed)) = self.soonest_on(node) {
                if best.is_none_or(|(soonest, first, ..)| (start, task) < (soonest, first)) {
                    best = Some((start, task, node, failed));
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            best,
            self.scan_candidate(),
            "the index's pick is the scan's"
        );
        let (start, task, node, failed) = best?;
        let moved = node != self.chain_home[self.tasks[task].chain as usize];
        Some((task, self.plan(task, node, start, failed, moved)))
    }

    /// The scan the index replaced, kept as its oracle: over the ready
    /// tasks of the open step, the soonest planned start, ties to the
    /// lowest index.
    #[cfg(debug_assertions)]
    fn scan_candidate(&self) -> Option<(SimTime, usize, usize, u32)> {
        let open_step = self.steps.keys().next().copied();
        let mut best: Option<(SimTime, usize, usize, u32)> = None;
        for &task in &self.ready {
            if open_step.is_some_and(|open| open != self.tasks[task].step) {
                continue;
            }
            let Some((key, node, failed)) = self.placement(task) else {
                continue;
            };
            let start = key.max(self.floor(node));
            if best.is_none_or(|(soonest, ..)| start < soonest) {
                best = Some((start, task, node, failed));
            }
        }
        best
    }

    /// Where a ready task runs and from when, as far as the task itself
    /// decides it: `(key, node, failing attempts)`, `key` being
    /// `max(inputs_at, chain_ready)`. `None` while the chain's home is
    /// dead (the crash arm reassigns it) or an input cannot reach the
    /// node. Only a crash, a rejoin or a truncated attempt changes it.
    fn placement(&self, task: usize) -> Option<(SimTime, usize, u32)> {
        let chain = self.tasks[task].chain as usize;
        let home = self.chain_home[chain];
        if self.dead[home] {
            return None;
        }
        let failed = failed_attempts(self.faults, task, salt_for(self.incarnation[task]));
        // Exhausted retries quarantine the assignment: the work moves to
        // the next alive node, or reruns in place (1-node cluster, every
        // neighbour dead).
        let node = if failed == self.faults.max_retries {
            (1..self.nodes)
                .map(|k| (home + k) % self.nodes)
                .find(|&cand| !self.dead[cand])
                .unwrap_or(home)
        } else {
            home
        };
        let inputs = self.inputs_at(task, node)?;
        Some((inputs.max(self.chain_ready[chain]), node, failed))
    }

    /// The earliest instant `node` can start anything: it is free and,
    /// in Barrier mode, the open step is released.
    fn floor(&self, node: usize) -> SimTime {
        self.node_free[node].max(self.barrier_time)
    }

    /// `node`'s soonest indexed task, `(start, task, failed)`: promotes
    /// the keys the floor has reached to `due` and drops committed
    /// tasks on the way.
    fn soonest_on(&mut self, node: usize) -> Option<(SimTime, usize, u32)> {
        let floor = self.floor(node);
        let (held, q) = (&self.held, &mut self.queues[node]);
        while let Some(&Reverse((key, task, failed))) = q.future.peek() {
            let live = held[task].is_none();
            if live && key > floor {
                break;
            }
            q.future.pop();
            if live {
                q.due.push(Reverse((task, failed)));
            }
        }
        while let Some(&Reverse((task, failed))) = q.due.peek() {
            if held[task].is_none() {
                return Some((floor, task, failed));
            }
            q.due.pop();
        }
        let &Reverse((key, task, failed)) = q.future.peek()?;
        Some((key, task, failed))
    }

    /// A task joins the ready set's index: parked until its step opens
    /// in Barrier mode; left out while [`DagRun::placement`] has none
    /// (the rebuild after the next crash or rejoin looks again);
    /// otherwise planned once and queued on its node.
    fn enter(&mut self, task: usize) {
        let step = self.tasks[task].step;
        if self.steps.keys().next().is_some_and(|&open| open != step) {
            self.parked.entry(step).or_default().push(task);
            return;
        }
        let Some((key, node, failed)) = self.placement(task) else {
            return;
        };
        let floor = self.floor(node);
        let q = &mut self.queues[node];
        if key <= floor {
            q.due.push(Reverse((task, failed)));
        } else {
            q.future.push(Reverse((key, task, failed)));
        }
    }

    /// Re-plans the index from the ready set: after a crash or a rejoin
    /// (liveness, homes, inputs and release times moved) and after a
    /// truncated attempt (its task redraws its faults).
    fn rebuild(&mut self) {
        for q in &mut self.queues {
            q.future.clear();
            q.due.clear();
        }
        self.parked.clear();
        let ready = std::mem::take(&mut self.ready);
        for &task in &ready {
            self.enter(task);
        }
        self.ready = ready;
    }

    /// Wire time for `task`'s value to cross nodes.
    fn hop(&self, task: usize) -> SimTime {
        let bytes = self.tasks[task].cost * BYTES_PER_COST;
        self.net.latency + self.net.transfer_time(1, bytes)
    }

    /// When every input of `task` can be read on `node`: a local value
    /// when it is available, a remote one a hop after both ends are
    /// next reachable. `None` while an input sits on a dead node (it
    /// migrates when the crash is processed) or behind a partition that
    /// never heals.
    fn inputs_at(&self, task: usize, node: usize) -> Option<SimTime> {
        let mut at = SimTime::ZERO;
        for &d in &self.tasks[task].deps {
            let v = self.held[d].expect("a ready task's dependencies hold values");
            if v.node == node {
                at = at.max(v.avail);
                continue;
            }
            if self.dead[v.node] {
                return None;
            }
            let tl = &self.survival.timeline;
            let both = both_reachable_from(tl, v.node, node, v.avail.as_nanos())?;
            at = at.max(SimTime::from_nanos(both) + self.hop(d));
        }
        Some(at)
    }

    /// Plans one attempt run of `task` on `node` from `launch`: the
    /// chain-state hop when `moved`, `failed` failing attempts with
    /// backoff gaps, then the completing attempt.
    fn plan(&self, task: usize, node: usize, launch: SimTime, failed: u32, moved: bool) -> Attempt {
        let dur = self.rate.per_task * self.tasks[task].cost.max(1);
        let backoff = self.faults.backoff;
        let wire = moved.then(|| self.hop(task));
        let end =
            launch + wire.unwrap_or(SimTime::ZERO) + (dur + backoff) * u64::from(failed) + dur;
        let cut = self
            .survival
            .timeline
            .crash_at(node)
            .map(SimTime::from_nanos)
            .filter(|&c| launch < c && c < end);
        Attempt {
            node,
            moved,
            launch,
            end,
            cut,
            wire,
            failed,
            exhausts: failed == self.faults.max_retries,
            dur,
            backoff,
        }
    }

    /// Journals one fault event.
    fn fault(&mut self, kind: FaultKind, action: FaultAction, at: SimTime, tasks: u64) {
        if R::ENABLED {
            self.rec.record(Event::Fault(FaultEvent {
                kind,
                action,
                at_ns: at.as_nanos(),
                tasks,
            }));
        }
    }

    /// Journals one attempt run up to its crash cut, booking busy time
    /// and the fault counters. Returns `true` when the run was
    /// truncated — the task did **not** complete.
    fn journal(&mut self, stage: Stage, a: &Attempt) -> bool {
        for (piece, s, e) in a.pieces() {
            if a.cut.is_some_and(|c| s >= c) {
                return true;
            }
            let cut = a.cut.filter(|&c| e > c);
            let end = cut.unwrap_or(e);
            let wire = matches!(piece, Piece::Wire);
            if R::ENABLED {
                let span_stage = if wire { Stage::Migrate } else { stage };
                self.rec
                    .span(span_stage, s.as_nanos(), end.as_nanos(), a.node as u32);
            }
            if !wire {
                self.spans.push(Span {
                    stage,
                    start_ns: s.as_nanos(),
                    end_ns: end.as_nanos(),
                    lane: a.node as u32,
                });
                self.report.attempts_journaled += 1;
                self.report.base.busy_ns += (end - s).as_nanos();
                self.report.base.per_node_busy[a.node] += end - s;
            }
            self.report.base.makespan = self.report.base.makespan.max(end);
            if cut.is_some() {
                // An attempt that died with its node is journaled as a
                // partial span, balanced by the voided counter.
                self.report.voided += u64::from(!wire);
                return true;
            }
            if let Piece::Fail { last } = piece {
                self.report.base.injected += 1;
                self.fault(FaultKind::KernelLaunchFail, FaultAction::Injected, end, 1);
                let base = &mut self.report.base;
                let (action, counter) = match (last, a.moved) {
                    (true, true) => (FaultAction::Quarantined, &mut base.quarantines),
                    (true, false) => (FaultAction::Retried, &mut base.exhausted),
                    (false, _) => (FaultAction::Retried, &mut base.retries),
                };
                *counter += 1;
                self.fault(FaultKind::KernelLaunchFail, action, end, 1);
            }
        }
        false
    }

    /// Tail speculation: plans a second copy of a critical-path tail on
    /// the least-loaded other node. `None` when `task` is no target,
    /// either run would be cut down by a crash, no other node is alive,
    /// or an input can never reach the copy.
    fn speculative_copy(&self, task: usize, primary: &Attempt) -> Option<Attempt> {
        if !self.target[task] || primary.cut.is_some() {
            return None;
        }
        let node = (0..self.nodes)
            .filter(|&x| !self.dead[x] && x != primary.node)
            .min_by_key(|&x| (self.node_free[x], x))?;
        let launch = self
            .inputs_at(task, node)?
            .max(self.node_free[node])
            .max(self.chain_ready[self.tasks[task].chain as usize]);
        let salt = SALT_COPY.wrapping_add(self.incarnation[task] as u64);
        let failed = failed_attempts(self.faults, task, salt);
        // The copy pays the state hop, but it is not a quarantine: a
        // copy that exhausts its retries reruns in place.
        let copy = Attempt {
            moved: false,
            ..self.plan(task, node, launch, failed, true)
        };
        copy.cut.is_none().then_some(copy)
    }

    /// Runs `primary` against its speculative `copy`: first completion
    /// wins (ties to the primary), only the winner's spans are
    /// journaled, and the loser occupies its node until then. Returns
    /// the winner.
    fn race(&mut self, stage: Stage, primary: Attempt, copy: Attempt) -> Attempt {
        // The copy launch is journaled whatever the outcome.
        self.fault(FaultKind::SlowNode, FaultAction::Hedged, copy.launch, 1);
        self.report.speculative_copies += 1;
        self.report.cancelled_copies += 1;
        let (winner, loser) = if copy.end < primary.end {
            (copy, primary)
        } else {
            (primary, copy)
        };
        let truncated = self.journal(stage, &winner);
        debug_assert!(!truncated);
        // The loser ran until the winner finished: that occupancy is
        // busy time but never journal history.
        let mut free = self.node_free[loser.node];
        for (piece, s, e) in loser.pieces() {
            let e = e.min(winner.end);
            if !matches!(piece, Piece::Wire) && s < e {
                self.report.base.busy_ns += (e - s).as_nanos();
                self.report.base.per_node_busy[loser.node] += e - s;
                free = free.max(e);
            }
        }
        self.node_free[loser.node] = free.max(loser.end.min(winner.end));
        winner
    }

    /// `task` completed with `won`: its value lives on that node from
    /// the run's end, and every successor it was the last missing input
    /// of becomes ready.
    fn commit(&mut self, task: usize, won: &Attempt) {
        debug_assert!(
            self.tasks[task]
                .deps
                .iter()
                .all(|&d| self.held[d].is_some()),
            "task {task} completed before its dependencies"
        );
        let (end, on) = (won.end, won.node);
        self.held[task] = Some(Held {
            node: on,
            finished: end,
            avail: end,
        });
        self.node_free[on] = end;
        self.remaining -= 1;
        self.ready.remove(&task);
        for e in self.succ_at[task]..self.succ_at[task + 1] {
            let s = self.succ[e];
            self.waiting[s] -= 1;
            // A successor that kept its own value through a fold-back
            // of this one has nothing to re-run.
            if self.waiting[s] == 0 && self.held[s].is_none() {
                self.ready.insert(s);
                self.enter(s);
            }
        }

        // Critical path: predecessors' paths + this task's total time
        // (failed attempts, backoffs and state hops included — faults
        // lengthen the chain no schedule can beat).
        let mut base = SimTime::ZERO;
        for &d in &self.tasks[task].deps {
            let local = self.held[d].is_some_and(|v| v.node == on);
            let hop = if local { SimTime::ZERO } else { self.hop(d) };
            base = base.max(self.cp[d] + hop);
        }
        self.cp[task] = base + (end - won.launch);
        self.report.base.critical_path = self.report.base.critical_path.max(self.cp[task]);

        // Barrier mode: close the open step once its last task finished.
        // Earlier steps closed before this one opened, so the latest
        // finish so far is this step's. The next step's parked tasks
        // enter the index.
        if let Some(mut open) = self.steps.first_entry() {
            *open.get_mut() -= 1;
            if *open.get() == 0 {
                self.barrier_time = self.report.base.makespan;
                open.remove();
                if let Some(next) = self.steps.keys().next() {
                    for task in self.parked.remove(next).unwrap_or_default() {
                        self.enter(task);
                    }
                }
            }
        }
    }

    /// `node` comes back cold.
    fn rejoin(&mut self, node: usize, at: SimTime) {
        self.dead[node] = false;
        self.node_free[node] = self.node_free[node].max(at + self.rate.startup);
        self.fault(FaultKind::NodeRejoin, FaultAction::Readmitted, at, 0);
    }

    /// `node` dies: fold its completions back to the checkpoint cut,
    /// reassign its chains, migrate the surviving frontier values.
    fn crash(&mut self, node: usize, at: SimTime) {
        self.dead[node] = true;
        self.report.crashes += 1;
        let lost = self.fold_back(node, at);
        let voided = lost.len() as u64;
        self.fault(FaultKind::NodeCrash, FaultAction::Injected, at, voided);
        let snap = self.checkpoint();
        let alive: Vec<usize> = (0..self.nodes).filter(|&x| !self.dead[x]).collect();
        assert!(
            !alive.is_empty(),
            "all nodes crashed with work pending: the workload cannot complete"
        );
        // Replay and reassigned work waits out detection.
        let release = at + self.survival.detect;
        let replayed = lost.iter().map(|&j| self.tasks[j].chain as usize);
        for c in replayed.chain(self.reassign(node, &alive, release)) {
            self.chain_ready[c] = self.chain_ready[c].max(release);
        }
        let recovered = self.migrate_values(&snap, release);
        self.report.recovery_ns += (recovered - at).as_nanos();
        self.fault(
            FaultKind::NodeCrash,
            FaultAction::Recovered,
            recovered,
            voided,
        );
        self.report.last_checkpoint = snap;
    }

    /// Voids the values `node` finished after the last checkpoint
    /// boundary at or before `at` and returns their tasks, which
    /// re-execute with fresh fault draws.
    fn fold_back(&mut self, node: usize, at: SimTime) -> Vec<usize> {
        let every = self.survival.checkpoint_every.as_nanos().max(1);
        let cut_ns = (at.as_nanos() / every) * every;
        let lost: Vec<usize> = (0..self.tasks.len())
            .filter(|&j| {
                self.held[j].is_some_and(|v| v.node == node && v.finished.as_nanos() > cut_ns)
            })
            .collect();
        for &j in &lost {
            self.held[j] = None;
            self.incarnation[j] += 1;
        }
        if !lost.is_empty() {
            // Voided values pull their consumers back out of the ready
            // set: recount from scratch.
            for (j, t) in self.tasks.iter().enumerate() {
                self.waiting[j] = t.deps.iter().filter(|&&d| self.held[d].is_none()).count();
            }
            self.ready = (0..self.tasks.len())
                .filter(|&j| self.held[j].is_none() && self.waiting[j] == 0)
                .collect();
        }
        self.report.voided += lost.len() as u64;
        self.report.replayed += lost.len() as u64;
        self.remaining += lost.len();
        lost
    }

    /// The checkpoint cut, read off `held`: the tasks holding a value,
    /// and those of them with a successor that holds none.
    fn checkpoint(&self) -> FrontierSnapshot {
        let holds = |j: usize| self.held[j].is_some();
        FrontierSnapshot {
            completed: self.tasks.len() - self.remaining,
            frontier: (0..self.tasks.len())
                .filter(|&j| {
                    holds(j)
                        && self.succ[self.succ_at[j]..self.succ_at[j + 1]]
                            .iter()
                            .any(|&s| !holds(s))
                })
                .map(TaskId::from_index)
                .collect(),
        }
    }

    /// Moves the chains homed on `node` onto the `alive` nodes — LPT by
    /// pending work against each survivor's backlog — and returns them.
    fn reassign(&mut self, node: usize, alive: &[usize], release: SimTime) -> Vec<usize> {
        let lost_chains: Vec<usize> = (0..self.chain_home.len())
            .filter(|&c| self.chain_home[c] == node)
            .collect();
        // Pending work per chain, in one pass over the tasks.
        let mut pending = vec![0u64; self.chain_home.len()];
        for (t, held) in self.tasks.iter().zip(&self.held) {
            let c = t.chain as usize;
            if held.is_none() && self.chain_home[c] == node {
                pending[c] += t.cost.max(1);
            }
        }
        let weights: Vec<u64> = lost_chains.iter().map(|&c| pending[c].max(1)).collect();
        let base_secs: Vec<f64> = alive
            .iter()
            .map(|&x| self.node_free[x].max(release).as_secs_f64())
            .collect();
        let per_unit = vec![self.rate.per_task.as_secs_f64(); alive.len()];
        let asg = lpt_assign(&weights, &base_secs, &per_unit);
        for (&c, &k) in lost_chains.iter().zip(&asg) {
            self.chain_home[c] = alive[k];
        }
        lost_chains
    }

    /// Migrates the checkpointed frontier values still on dead nodes
    /// (durable in the cut, readable by survivors) to their chain's new
    /// home through the contended fabric, from `release`. Returns the
    /// last arrival.
    fn migrate_values(&mut self, snap: &FrontierSnapshot, release: SimTime) -> SimTime {
        let mut last = release;
        for id in &snap.frontier {
            let j = id.index();
            let Some(v) = self.held[j].filter(|v| self.dead[v.node]) else {
                continue;
            };
            let dest = self.chain_home[self.tasks[j].chain as usize];
            let bytes = self.tasks[j].cost * BYTES_PER_COST;
            let (_link, sent, arrive) = self.icn.migrate(release, 1, bytes);
            if R::ENABLED {
                self.rec.span(
                    Stage::Recover,
                    sent.as_nanos(),
                    arrive.as_nanos(),
                    dest as u32,
                );
            }
            self.held[j] = Some(Held {
                node: dest,
                avail: arrive,
                ..v
            });
            last = last.max(arrive);
            self.report.base.makespan = self.report.base.makespan.max(arrive);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madness_faults::NodeFault;
    use madness_trace::MemRecorder;

    fn rate() -> NodeRate {
        NodeRate {
            startup: SimTime::from_micros(5),
            per_task: SimTime::from_micros(2),
        }
    }

    /// `chains` chained Apply→Update iterations with per-chain cost
    /// skew, the shape of the SCF scenario.
    fn chained(chains: u32, iters: u32) -> DagWorkload {
        let mut w = DagWorkload::new();
        let mut prev: Vec<Option<usize>> = vec![None; chains as usize];
        for it in 0..iters {
            for c in 0..chains {
                let deps: Vec<usize> = prev[c as usize].into_iter().collect();
                let apply = w.push(DagTask {
                    chain: c,
                    step: it * 2,
                    stage: Stage::CpuCompute,
                    cost: 40 + 25 * c as u64,
                    deps,
                });
                let upd = w.push(DagTask {
                    chain: c,
                    step: it * 2 + 1,
                    stage: Stage::Postprocess,
                    cost: 8 + 3 * c as u64,
                    deps: vec![apply],
                });
                prev[c as usize] = Some(upd);
            }
        }
        w
    }

    fn crash_spec(nodes: usize, node: usize, at_us: u64) -> DagSurvivalSpec {
        let mut tl = NodeTimeline::new(nodes);
        tl.add(node, NodeFault::CrashAt(at_us * 1_000));
        DagSurvivalSpec {
            timeline: tl,
            checkpoint_every: SimTime::from_micros(50),
            detect: SimTime::from_micros(20),
            speculate_tails: false,
        }
    }

    #[test]
    fn dataflow_overlaps_barrier_does_not() {
        let w = chained(4, 3);
        let net = NetworkModel::default();
        let mut rec = MemRecorder::new();
        let df = run_dag(
            &w,
            4,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut rec,
        );
        let ba = run_dag(
            &w,
            4,
            rate(),
            &net,
            DagMode::Barrier,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        assert!(df.overlap_ns > 0, "dataflow must overlap stages: {df:?}");
        assert_eq!(ba.overlap_ns, 0, "barrier must not overlap: {ba:?}");
        assert!(df.makespan <= ba.makespan, "{df:?} vs {ba:?}");
        assert!(df.conserved(4) && ba.conserved(4));
        assert_eq!(rec.spans().count() as u64, df.tasks + df.injected);
    }

    #[test]
    fn replay_is_bit_identical_including_faults() {
        let w = chained(3, 4);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed: 0xFA17,
            fail_rate: 0.2,
            backoff: SimTime::from_micros(30),
            max_retries: 2,
        };
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let a = run_dag(&w, 3, rate(), &net, DagMode::Dataflow, &faults, &mut rec_a);
        let b = run_dag(&w, 3, rate(), &net, DagMode::Dataflow, &faults, &mut rec_b);
        assert_eq!(a, b);
        assert_eq!(rec_a.to_json(), rec_b.to_json());
        assert!(a.injected > 0, "fail_rate 0.2 over 24 tasks must inject");
    }

    #[test]
    fn faults_retry_and_quarantine_without_deadlock() {
        let w = chained(2, 3);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed: 7,
            fail_rate: 0.7, // hot enough to exhaust retries somewhere
            backoff: SimTime::from_micros(10),
            max_retries: 2,
        };
        let mut rec = MemRecorder::new();
        let clean = run_dag(
            &w,
            2,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        let faulty = run_dag(&w, 2, rate(), &net, DagMode::Dataflow, &faults, &mut rec);
        assert!(faulty.injected > 0);
        assert!(faulty.quarantines > 0, "0.7³ per task must quarantine");
        assert_eq!(
            faulty.injected,
            faulty.retries + faulty.quarantines + faulty.exhausted
        );
        assert_eq!(faulty.exhausted, 0, "2 alive nodes: every move succeeds");
        assert!(faulty.makespan > clean.makespan);
        assert!(faulty.conserved(2));
        // Journal carries the fault story: one Injected per failure.
        let injected = rec
            .faults()
            .filter(|f| f.action == FaultAction::Injected)
            .count() as u64;
        assert_eq!(injected, faulty.injected);
        // The quarantined attempts moved off-home, so each paid a
        // chain-state migration hop, journaled as a Migrate span.
        let migrate_spans = rec.spans().filter(|s| s.stage == Stage::Migrate).count() as u64;
        assert_eq!(migrate_spans, faulty.quarantines);
    }

    #[test]
    fn fault_free_plan_is_identity() {
        let w = chained(3, 2);
        let net = NetworkModel::default();
        let mut rec = MemRecorder::new();
        let base = run_dag(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut rec,
        );
        let zero = run_dag(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec {
                seed: 99,
                fail_rate: 0.0,
                backoff: SimTime::from_micros(50),
                max_retries: 2,
            },
            &mut madness_trace::NullRecorder,
        );
        assert_eq!(base, zero);
        assert_eq!(base.injected, 0);
        // No quarantine ⇒ no off-home attempt ⇒ the state-migration
        // charge cannot perturb a fault-free run.
        assert_eq!(rec.spans().filter(|s| s.stage == Stage::Migrate).count(), 0);
    }

    #[test]
    fn single_node_exhaustion_is_not_a_quarantine() {
        let w = chained(2, 3);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed: 7,
            fail_rate: 0.7,
            backoff: SimTime::from_micros(10),
            max_retries: 2,
        };
        let mut rec = MemRecorder::new();
        let r = run_dag(&w, 1, rate(), &net, DagMode::Dataflow, &faults, &mut rec);
        assert!(r.injected > 0);
        assert!(
            r.exhausted > 0,
            "retries must exhaust somewhere at this rate: {r:?}"
        );
        assert_eq!(
            r.quarantines, 0,
            "a 1-node cluster has nowhere to move work: {r:?}"
        );
        assert!(r.conserved(1));
        // In place means no state migration hop either.
        assert_eq!(rec.spans().filter(|s| s.stage == Stage::Migrate).count(), 0);
    }

    #[test]
    fn cross_node_dependencies_pay_a_network_hop() {
        // Chain 1's combine step consumes chain 0's value: on 2 nodes
        // that edge crosses the interconnect and must cost more than
        // the same DAG on 1 node (where every edge is local) minus the
        // serialization effect — check the hop via the critical path.
        let mut w = DagWorkload::new();
        let a = w.push(DagTask {
            chain: 0,
            step: 0,
            stage: Stage::CpuCompute,
            cost: 10,
            deps: vec![],
        });
        let b = w.push(DagTask {
            chain: 1,
            step: 0,
            stage: Stage::CpuCompute,
            cost: 10,
            deps: vec![],
        });
        let _join = w.push(DagTask {
            chain: 1,
            step: 1,
            stage: Stage::Postprocess,
            cost: 5,
            deps: vec![a, b],
        });
        let net = NetworkModel::default();
        let local = run_dag(
            &w,
            1,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        let remote = run_dag(
            &w,
            2,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        assert!(remote.critical_path > local.critical_path);
    }

    #[test]
    #[should_panic(expected = "does not name an earlier task")]
    fn forward_dependency_rejected() {
        let mut w = DagWorkload::new();
        w.push(DagTask {
            chain: 0,
            step: 1,
            stage: Stage::CpuCompute,
            cost: 1,
            deps: vec![3],
        });
    }

    /// Three tasks in one step, each reading the one before; the last
    /// lists its dependency twice, so it is released once per edge.
    fn same_step_chain() -> DagWorkload {
        let task = |stage, deps| DagTask {
            chain: 0,
            step: 0,
            stage,
            cost: 1,
            deps,
        };
        let mut w = DagWorkload::new();
        let a = w.push(task(Stage::CpuCompute, vec![]));
        let b = w.push(task(Stage::Postprocess, vec![a]));
        w.push(task(Stage::Postprocess, vec![b, b]));
        w
    }

    #[test]
    fn same_step_dependency_accepted_and_runs_in_dataflow() {
        // Push order already topologically orders same-step edges;
        // only Dataflow consults the edges, so this must execute, the
        // doubled edge included.
        let w = same_step_chain();
        assert!(!w.is_barrier_stratified());
        let mut rec = MemRecorder::new();
        let r = run_dag(
            &w,
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut rec,
        );
        assert_eq!(r.tasks, 3);
        assert_eq!(rec.spans().count(), 3, "every task ran once");
        assert!(r.conserved(2));
    }

    #[test]
    #[should_panic(expected = "is in a later step")]
    fn later_step_dependency_rejected() {
        let mut w = DagWorkload::new();
        let a = w.push(DagTask {
            chain: 0,
            step: 2,
            stage: Stage::CpuCompute,
            cost: 1,
            deps: vec![],
        });
        w.push(DagTask {
            chain: 0,
            step: 1,
            stage: Stage::Postprocess,
            cost: 1,
            deps: vec![a],
        });
    }

    #[test]
    #[should_panic(expected = "Barrier mode needs steps to stratify")]
    fn barrier_rejects_unstratified_workload() {
        let w = same_step_chain();
        run_dag(
            &w,
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Barrier,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
    }

    #[test]
    fn barrier_starts_from_the_smallest_step_whatever_the_push_order() {
        // Independent tasks pushed out of step order: task 0 sits in
        // step 5, task 1 in step 2. The barrier schedule must open
        // step 2 first (it used to open task 0's step, find no later
        // one, and die with step 2 still pending).
        let mut w = DagWorkload::new();
        for (chain, step, stage) in [(0, 5, Stage::Postprocess), (1, 2, Stage::CpuCompute)] {
            w.push(DagTask {
                chain,
                step,
                stage,
                cost: 10,
                deps: vec![],
            });
        }
        assert!(w.is_barrier_stratified());
        let mut rec = MemRecorder::new();
        let r = run_dag(
            &w,
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Barrier,
            &DagFaultSpec::none(),
            &mut rec,
        );
        assert_eq!(r.tasks, 2);
        assert!(r.conserved(2));
        let span = |stage| {
            rec.spans()
                .find(|s| s.stage == stage)
                .expect("one span each")
        };
        assert!(
            span(Stage::CpuCompute).end_ns <= span(Stage::Postprocess).start_ns,
            "step 5 must wait for step 2 to close"
        );
    }

    #[test]
    fn empty_workload_is_trivial() {
        let r = run_dag(
            &DagWorkload::new(),
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        assert_eq!(r.tasks, 0);
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn inert_survival_is_the_identity() {
        let w = chained(3, 3);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed: 0xFA17,
            fail_rate: 0.15,
            backoff: SimTime::from_micros(25),
            max_retries: 2,
        };
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let plain = run_dag(&w, 3, rate(), &net, DagMode::Dataflow, &faults, &mut rec_a);
        let surv = run_dag_survivable(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &faults,
            &DagSurvivalSpec::none(3),
            &mut rec_b,
        );
        assert_eq!(plain, surv.base);
        assert_eq!(rec_a.to_json(), rec_b.to_json());
        assert_eq!(surv.crashes, 0);
        assert_eq!(surv.voided, 0);
        assert_eq!(surv.speculative_copies, 0);
        assert_eq!(
            surv.attempts_journaled,
            surv.base.tasks + surv.base.injected
        );
        assert!(surv.conserved(3));
    }

    #[test]
    fn crash_mid_schedule_completes_on_survivors() {
        let w = chained(4, 4);
        let net = NetworkModel::default();
        let mut rec = MemRecorder::new();
        let clean = run_dag(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        let r = run_dag_survivable(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &crash_spec(3, 1, 160),
            &mut rec,
        );
        assert_eq!(r.crashes, 1);
        assert!(r.replayed > 0, "node 1 completed work after the cut: {r:?}");
        assert!(r.conserved(3), "{r:?}");
        assert!(
            r.base.makespan >= clean.makespan,
            "losing a node cannot speed the run up: {r:?} vs {clean:?}"
        );
        assert!(
            r.migrated_values > 0,
            "a 50µs cadence leaves durable frontier values to migrate: {r:?}"
        );
        assert!(
            rec.spans().any(|s| s.stage == Stage::Recover),
            "value migration must journal Recover spans"
        );
        assert!(rec
            .faults()
            .any(|f| f.kind == FaultKind::NodeCrash && f.action == FaultAction::Recovered));
        // Nothing lands on the dead node after the crash instant.
        let crash_ns = 160_000;
        assert!(rec
            .spans()
            .filter(|s| s.lane == 1 && s.stage != Stage::Recover)
            .all(|s| s.start_ns < crash_ns));
        assert!(
            r.last_checkpoint.completed < w.len(),
            "the cut is mid-schedule: {:?}",
            r.last_checkpoint
        );
        assert!(!r.last_checkpoint.frontier.is_empty());
    }

    #[test]
    #[should_panic(expected = "all nodes crashed with work pending")]
    fn losing_every_node_with_work_pending_panics() {
        // Both nodes die before the schedule can finish and nothing
        // rejoins: the second crash leaves no survivor to reassign to.
        let mut tl = NodeTimeline::new(2);
        tl.add(0, NodeFault::CrashAt(100_000));
        tl.add(1, NodeFault::CrashAt(150_000));
        let spec = DagSurvivalSpec {
            timeline: tl,
            ..DagSurvivalSpec::none(2)
        };
        run_dag_survivable(
            &chained(4, 4),
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &spec,
            &mut madness_trace::NullRecorder,
        );
    }

    #[test]
    fn fold_back_pulls_consumers_out_of_the_ready_set_and_keeps_truncated_tasks_in() {
        // Node 0 is busy with L until 305 µs. On node 1, A finishes at
        // 85 µs — which makes B (node 0, consumes A) ready, queued
        // behind L — and T starts, to be cut down by the crash at
        // 150 µs. The 1 ms checkpoint cadence puts the cut at 0, so the
        // crash also voids A's value: B must leave the ready set until
        // A has replayed on the survivor, while T (no voided input)
        // stays ready and simply runs again.
        let mut w = DagWorkload::new();
        let task = |chain, stage, cost, deps| DagTask {
            chain,
            step: 0,
            stage,
            cost,
            deps,
        };
        w.push(task(0, Stage::CpuCompute, 150, vec![])); // L
        let a = w.push(task(1, Stage::Preprocess, 40, vec![]));
        w.push(task(0, Stage::Postprocess, 10, vec![a])); // B
        w.push(task(3, Stage::Dispatch, 100, vec![])); // T
        let mut spec = crash_spec(2, 1, 150);
        spec.checkpoint_every = SimTime::from_millis(1);
        let mut rec = MemRecorder::new();
        let r = run_dag_survivable(
            &w,
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &spec,
            &mut rec,
        );
        assert!(r.conserved(2), "{r:?}");
        assert_eq!((r.crashes, r.replayed, r.voided), (1, 1, 2), "{r:?}");
        let spans =
            |stage| -> Vec<Span> { rec.spans().filter(|s| s.stage == stage).copied().collect() };
        let (a_runs, b_runs, t_runs) = (
            spans(Stage::Preprocess),
            spans(Stage::Postprocess),
            spans(Stage::Dispatch),
        );
        assert_eq!(a_runs.len(), 2, "A ran, was voided, and replayed");
        assert_eq!((a_runs[0].lane, a_runs[1].lane), (1, 0));
        assert_eq!(b_runs.len(), 1);
        assert!(
            b_runs[0].start_ns >= a_runs[1].end_ns,
            "B started before its voided input was recomputed: {b_runs:?} vs {a_runs:?}"
        );
        assert_eq!(t_runs.len(), 2, "T's truncated attempt is retried");
        assert_eq!((t_runs[0].lane, t_runs[0].end_ns), (1, 150_000));
        assert_eq!(t_runs[1].lane, 0);
        assert_eq!(
            t_runs[1].end_ns - t_runs[1].start_ns,
            200_000,
            "the retry runs T in full"
        );
    }

    #[test]
    fn faulted_survivable_replay_is_bit_identical() {
        let w = chained(4, 4);
        let net = NetworkModel::default();
        let faults = DagFaultSpec {
            seed: 0xC4A5,
            fail_rate: 0.15,
            backoff: SimTime::from_micros(20),
            max_retries: 2,
        };
        let spec = crash_spec(3, 0, 250);
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let a = run_dag_survivable(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &faults,
            &spec,
            &mut rec_a,
        );
        let b = run_dag_survivable(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &faults,
            &spec,
            &mut rec_b,
        );
        assert_eq!(a, b);
        assert_eq!(rec_a.to_json(), rec_b.to_json());
        assert!(a.crashes == 1 && a.conserved(3), "{a:?}");
    }

    #[test]
    fn rejoined_node_comes_back_cold_and_helps() {
        let w = chained(4, 5);
        let net = NetworkModel::default();
        let mut tl = NodeTimeline::new(2);
        tl.add(1, NodeFault::CrashAt(200_000));
        tl.add(1, NodeFault::RejoinAt(400_000));
        let spec = DagSurvivalSpec {
            timeline: tl,
            checkpoint_every: SimTime::from_micros(50),
            detect: SimTime::from_micros(20),
            speculate_tails: false,
        };
        let mut rec = MemRecorder::new();
        let faults = DagFaultSpec {
            seed: 3,
            fail_rate: 0.6, // hot: quarantines look for an alive neighbour
            backoff: SimTime::from_micros(10),
            max_retries: 2,
        };
        let r = run_dag_survivable(
            &w,
            2,
            rate(),
            &net,
            DagMode::Dataflow,
            &faults,
            &spec,
            &mut rec,
        );
        assert_eq!(r.crashes, 1);
        assert!(r.conserved(2), "{r:?}");
        assert!(rec
            .faults()
            .any(|f| f.kind == FaultKind::NodeRejoin && f.action == FaultAction::Readmitted));
        // While node 1 was down, exhausted retries had nowhere to go.
        assert_eq!(
            r.base.injected,
            r.base.retries + r.base.quarantines + r.base.exhausted
        );
    }

    #[test]
    fn partition_delays_cross_node_values() {
        let mut w = DagWorkload::new();
        let a = w.push(DagTask {
            chain: 0,
            step: 0,
            stage: Stage::CpuCompute,
            cost: 10,
            deps: vec![],
        });
        w.push(DagTask {
            chain: 1,
            step: 1,
            stage: Stage::Postprocess,
            cost: 5,
            deps: vec![a],
        });
        let net = NetworkModel::default();
        let clean = run_dag(
            &w,
            2,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        // Partition node 0 across the instant its value would ship.
        let mut tl = NodeTimeline::new(2);
        tl.add(
            0,
            NodeFault::PartitionAt {
                at_ns: 0,
                duration_ns: 500_000,
            },
        );
        let spec = DagSurvivalSpec {
            timeline: tl,
            ..DagSurvivalSpec::none(2)
        };
        let r = run_dag_survivable(
            &w,
            2,
            rate(),
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &spec,
            &mut madness_trace::NullRecorder,
        );
        assert!(
            r.base.makespan > clean.makespan,
            "the cross-node edge must wait out the partition: {:?} vs {:?}",
            r.base.makespan,
            clean.makespan
        );
        assert!(r.base.makespan >= SimTime::from_nanos(500_000));
        assert!(r.conserved(2));
    }

    #[test]
    fn speculation_races_the_critical_tail() {
        // One long chain dominates; a fault plan that hammers its tail
        // lets the clean copy on the other node win the race.
        let w = chained(2, 4);
        let net = NetworkModel::default();
        let spec = DagSurvivalSpec {
            speculate_tails: true,
            ..DagSurvivalSpec::none(2)
        };
        let mut seeds_where_speculation_wins = 0;
        for seed in 0..60u64 {
            let faults = DagFaultSpec {
                seed,
                fail_rate: 0.35,
                backoff: SimTime::from_micros(400),
                max_retries: 2,
            };
            let plain = run_dag(
                &w,
                2,
                rate(),
                &net,
                DagMode::Dataflow,
                &faults,
                &mut madness_trace::NullRecorder,
            );
            let mut rec = MemRecorder::new();
            let spec_run = run_dag_survivable(
                &w,
                2,
                rate(),
                &net,
                DagMode::Dataflow,
                &faults,
                &spec,
                &mut rec,
            );
            assert!(spec_run.conserved(2), "{spec_run:?}");
            assert_eq!(
                spec_run.speculative_copies, spec_run.cancelled_copies,
                "exactly one of each pair is cancelled: {spec_run:?}"
            );
            if spec_run.speculative_copies > 0 {
                assert!(
                    rec.faults().any(|f| f.action == FaultAction::Hedged),
                    "copy launches must be journaled"
                );
            }
            if spec_run.base.makespan < plain.makespan {
                seeds_where_speculation_wins += 1;
            }
        }
        assert!(
            seeds_where_speculation_wins > 0,
            "some seed must fail the primary tail hard enough for the copy to win"
        );
    }

    #[test]
    fn widened_conservation_holds_under_crash_and_speculation() {
        let w = chained(3, 4);
        let net = NetworkModel::default();
        let mut spec = crash_spec(3, 2, 280);
        spec.speculate_tails = true;
        let faults = DagFaultSpec {
            seed: 0xBEEF,
            fail_rate: 0.25,
            backoff: SimTime::from_micros(30),
            max_retries: 2,
        };
        let mut rec = MemRecorder::new();
        let r = run_dag_survivable(
            &w,
            3,
            rate(),
            &net,
            DagMode::Dataflow,
            &faults,
            &spec,
            &mut rec,
        );
        assert!(r.conserved(3), "{r:?}");
        assert_eq!(
            r.base.tasks + r.base.injected + r.voided + r.speculative_copies,
            r.attempts_journaled + r.cancelled_copies,
            "{r:?}"
        );
        // Journaled attempt spans really do match the ledger (Migrate
        // and Recover wire spans are not attempts).
        let journal_attempts = rec
            .spans()
            .filter(|s| s.stage != Stage::Migrate && s.stage != Stage::Recover)
            .count() as u64;
        assert_eq!(journal_attempts, r.attempts_journaled);
    }
}
