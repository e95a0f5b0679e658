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
//! * **Frontier checkpoints** — completions feed a
//!   [`Frontier`] (`madness_runtime::graph`) over the same dependency
//!   structure; the checkpoint cut is quantised to
//!   [`DagSurvivalSpec::checkpoint_every`] boundaries. Values that
//!   finished at or before the last boundary are durable; values that
//!   finished after it die with their node.
//! * **Crash fold + replay** — when a node crashes, its post-cut
//!   completions are folded back ([`Frontier::fold_back`]), the
//!   crashed node's chains are reassigned over the survivors with
//!   [`lpt_assign`] (weights = pending work per chain, bases = each
//!   survivor's backlog), and the folded tasks re-execute in spawn
//!   order with fresh per-incarnation fault draws. Checkpointed
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
//! [`Frontier`]: madness_runtime::graph::Frontier
//! [`lpt_assign`]: madness_mra::procmap::lpt_assign
//! [`Stage::Recover`]: madness_trace::Stage::Recover

use crate::network::{Interconnect, NetworkModel};
use crate::node::NodeRate;
use madness_faults::{draw, NodeTimeline};
use madness_gpusim::SimTime;
use madness_mra::procmap::lpt_assign;
use madness_runtime::graph::{Frontier, FrontierSnapshot, TaskId};
use madness_trace::{stage_overlap_ns, FaultAction, FaultEvent, FaultKind, Recorder, Span, Stage};
use std::collections::{BTreeMap, BTreeSet};

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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// First alive node after `from` (cycling); `from` itself if no other
/// node is alive — the caller detects "nowhere to move" by equality.
fn next_alive(from: usize, nodes: usize, dead: &[bool]) -> usize {
    for k in 1..nodes {
        let cand = (from + k) % nodes;
        if !dead[cand] {
            return cand;
        }
    }
    from
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

/// Builds the planned sub-span sequence for one attempt run of `task`
/// on `node`: an optional state hop (when `node` differs from the
/// chain's resident home), `failed` failing attempts with backoff
/// gaps, then the completing attempt. Returns the pieces and the
/// sequence end.
fn build_sequence(
    task: &DagTask,
    start: SimTime,
    off_home: bool,
    failed: u32,
    faults: &DagFaultSpec,
    rate: NodeRate,
    net: &NetworkModel,
) -> (Vec<(Piece, SimTime, SimTime)>, SimTime) {
    let dur = rate.per_task * task.cost.max(1);
    let mut seq = Vec::with_capacity(failed as usize + 2);
    let mut at = start;
    if off_home {
        let hop = net.latency + net.transfer_time(1, task.cost * BYTES_PER_COST);
        seq.push((Piece::Wire, at, at + hop));
        at += hop;
    }
    for a in 0..failed {
        let end = at + dur;
        seq.push((
            Piece::Fail {
                last: a + 1 == faults.max_retries,
            },
            at,
            end,
        ));
        at = end + faults.backoff;
    }
    let end = at + dur;
    seq.push((Piece::Done, at, end));
    (seq, end)
}

/// Journals one attempt sequence, truncating at `cut` (the node's
/// crash instant) if the sequence crosses it. Updates the fault
/// counters (`moved` selects quarantine vs exhausted accounting for a
/// `Fail { last }` piece) and busy time. Returns `true` when the
/// sequence was truncated — the task did **not** complete.
#[allow(clippy::too_many_arguments)]
fn emit_sequence<R: Recorder>(
    rec: &mut R,
    spans: &mut Vec<Span>,
    report: &mut DagRunReport,
    attempts_journaled: &mut u64,
    voided: &mut u64,
    stage: Stage,
    node: usize,
    moved: bool,
    seq: &[(Piece, SimTime, SimTime)],
    cut: Option<SimTime>,
) -> bool {
    let mut truncated = false;
    for &(piece, s, e) in seq {
        if let Some(c) = cut {
            if s >= c {
                truncated = true;
                break;
            }
        }
        let (end, cutoff) = match cut {
            Some(c) if e > c => (c, true),
            _ => (e, false),
        };
        let wire = matches!(piece, Piece::Wire);
        let span_stage = if wire { Stage::Migrate } else { stage };
        if R::ENABLED {
            rec.span(span_stage, s.as_nanos(), end.as_nanos(), node as u32);
        }
        if !wire {
            spans.push(Span {
                stage,
                start_ns: s.as_nanos(),
                end_ns: end.as_nanos(),
                lane: node as u32,
            });
            *attempts_journaled += 1;
            report.busy_ns += (end.saturating_sub(s)).as_nanos();
            report.per_node_busy[node] += end.saturating_sub(s);
        }
        report.makespan = report.makespan.max(end);
        if cutoff {
            if !wire {
                // The attempt died with its node: journaled as a
                // partial span, balanced by the voided counter.
                *voided += 1;
            }
            truncated = true;
            break;
        }
        if let Piece::Fail { last } = piece {
            report.injected += 1;
            if R::ENABLED {
                rec.fault(FaultEvent {
                    kind: FaultKind::KernelLaunchFail,
                    action: FaultAction::Injected,
                    at_ns: end.as_nanos(),
                    tasks: 1,
                });
            }
            let (action, ctr) = if last {
                if moved {
                    (FaultAction::Quarantined, &mut report.quarantines)
                } else {
                    // Nowhere to move (1-node cluster or no alive
                    // neighbour): the rerun stays in place.
                    (FaultAction::Retried, &mut report.exhausted)
                }
            } else {
                (FaultAction::Retried, &mut report.retries)
            };
            *ctr += 1;
            if R::ENABLED {
                rec.fault(FaultEvent {
                    kind: FaultKind::KernelLaunchFail,
                    action,
                    at_ns: end.as_nanos(),
                    tasks: 1,
                });
            }
        }
    }
    truncated
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
    if mode == DagMode::Barrier {
        assert!(
            workload.is_barrier_stratified(),
            "Barrier mode needs steps to stratify the edges: some \
             dependency shares its consumer's step (fine for Dataflow)"
        );
    }
    let n = workload.tasks.len();
    let mut report = SurvivableDagReport {
        base: DagRunReport {
            makespan: SimTime::ZERO,
            tasks: n as u64,
            injected: 0,
            retries: 0,
            quarantines: 0,
            exhausted: 0,
            overlap_ns: 0,
            busy_ns: 0,
            critical_path: SimTime::ZERO,
            per_node_busy: vec![SimTime::ZERO; nodes],
        },
        crashes: 0,
        voided: 0,
        replayed: 0,
        migrated_values: 0,
        migrated_bytes: 0,
        recovery_ns: 0,
        speculative_copies: 0,
        cancelled_copies: 0,
        attempts_journaled: 0,
        last_checkpoint: FrontierSnapshot::default(),
    };
    if n == 0 {
        return report;
    }

    let tl = &survival.timeline;
    let n_chains = workload.chains();
    let mut icn = Interconnect::new(net.clone());
    let mut frontier = Frontier::from_deps(workload.tasks.iter().map(|t| t.deps.clone()).collect());

    // Static critical-path tails (cost units): the speculation targets.
    let mut target = vec![false; n];
    if survival.speculate_tails && nodes > 1 {
        let mut lp = vec![0u64; n];
        let mut has_succ = vec![false; n];
        for (i, t) in workload.tasks.iter().enumerate() {
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
        for i in 0..n {
            target[i] = !has_succ[i] && lp[i] == lmax && lmax > 0;
        }
    }

    // Lifecycle events, time-ordered (rejoins before crashes on ties,
    // so a simultaneous rejoin can absorb the crashed node's chains).
    let mut events: Vec<(u64, u8, usize)> = Vec::new();
    for node in 0..nodes {
        if let Some(r) = tl.rejoin_at(node) {
            events.push((r, 0, node));
        }
        if let Some(c) = tl.crash_at(node) {
            events.push((c, 1, node));
        }
    }
    events.sort_unstable();
    let mut ev_idx = 0;

    let mut chain_home: Vec<usize> = (0..n_chains).map(|c| c % nodes).collect();
    let mut chain_ready: Vec<SimTime> = vec![SimTime::ZERO; n_chains];
    let mut dead = vec![false; nodes];
    let mut finish: Vec<Option<SimTime>> = vec![None; n];
    let mut value_node: Vec<Option<usize>> = vec![None; n];
    let mut avail: Vec<SimTime> = vec![SimTime::ZERO; n];
    let mut incarnation: Vec<u32> = vec![0; n];
    let mut node_free: Vec<SimTime> = vec![rate.startup; nodes];
    let mut spans: Vec<Span> = Vec::with_capacity(n);
    let mut cp: Vec<SimTime> = vec![SimTime::ZERO; n];
    let mut remaining = n;

    // Barrier mode only: per open step, (tasks left, latest finish).
    // The smallest key is the step currently released; closing it
    // raises `barrier_time` and releases the next one.
    let mut barrier_time = SimTime::ZERO;
    let mut steps: BTreeMap<u32, (usize, SimTime)> = BTreeMap::new();
    if mode == DagMode::Barrier {
        for t in &workload.tasks {
            steps.entry(t.step).or_default().0 += 1;
        }
    }

    // The ready frontier: value-less tasks whose dependencies all hold
    // values, in index order. `waiting[i]` counts task `i`'s value-less
    // dependencies; a commit releases work through the frontier's
    // successor lists (built once, one entry per edge), and only a
    // crash fold-back (which voids values) recounts.
    let mut waiting: Vec<usize> = workload.tasks.iter().map(|t| t.deps.len()).collect();
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();

    // Greedy earliest-start list scheduling: repeatedly run the ready
    // task that can start soonest (ties broken by index, so the
    // schedule is deterministic). Candidate starts are monotone
    // non-decreasing, which is what lets lifecycle events interleave
    // at the right instants.
    while remaining > 0 {
        // (start, task, node, failed draws, moved-off-home)
        let mut best: Option<(SimTime, usize, usize, u32, bool)> = None;
        let open_step = steps.keys().next().copied();
        for &i in &ready {
            let t = &workload.tasks[i];
            if mode == DagMode::Barrier && Some(t.step) != open_step {
                continue;
            }
            let chain = t.chain as usize;
            let assigned = chain_home[chain];
            if dead[assigned] {
                continue; // reassigned when the crash event fires
            }
            let failed = failed_attempts(faults, i, salt_for(incarnation[i]));
            let (node, moved) = if failed == faults.max_retries {
                let q = next_alive(assigned, nodes, &dead);
                (q, q != assigned)
            } else {
                (assigned, false)
            };
            let mut inputs_at = SimTime::ZERO;
            let mut ok = true;
            for &d in &t.deps {
                let vn = value_node[d].expect("a ready task's dependencies hold values");
                if vn == node {
                    inputs_at = inputs_at.max(avail[d]);
                    continue;
                }
                if dead[vn] {
                    ok = false; // migrates at crash processing
                    break;
                }
                match both_reachable_from(tl, vn, node, avail[d].as_nanos()) {
                    Some(ts) => {
                        let hop = net.latency
                            + net.transfer_time(1, workload.tasks[d].cost * BYTES_PER_COST);
                        inputs_at = inputs_at.max(SimTime::from_nanos(ts) + hop);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let start = inputs_at
                .max(node_free[node])
                .max(barrier_time)
                .max(chain_ready[chain]);
            match best {
                Some((s, ..)) if s <= start => {}
                _ => best = Some((start, i, node, failed, moved)),
            }
        }

        // Fire the next lifecycle event if nothing can start before it.
        if ev_idx < events.len() {
            let (et, kind, en) = events[ev_idx];
            let fire = match best {
                None => true,
                Some((s, ..)) => s.as_nanos() >= et,
            };
            if fire {
                ev_idx += 1;
                if kind == 0 {
                    // Rejoin: the node comes back cold.
                    dead[en] = false;
                    node_free[en] = node_free[en].max(SimTime::from_nanos(et) + rate.startup);
                    if R::ENABLED {
                        rec.fault(FaultEvent {
                            kind: FaultKind::NodeRejoin,
                            action: FaultAction::Readmitted,
                            at_ns: et,
                            tasks: 0,
                        });
                    }
                    continue;
                }
                // Crash: fold to the checkpoint cut, reassign the dead
                // node's chains, migrate surviving frontier values.
                dead[en] = true;
                report.crashes += 1;
                let every = survival.checkpoint_every.as_nanos().max(1);
                let cut_ns = (et / every) * every;
                let lost: Vec<usize> = (0..n)
                    .filter(|&j| {
                        value_node[j] == Some(en)
                            && finish[j].is_some_and(|f| f.as_nanos() > cut_ns)
                    })
                    .collect();
                let lost_ids: Vec<TaskId> = lost.iter().map(|&j| TaskId::from_index(j)).collect();
                frontier.fold_back(&lost_ids);
                for &j in &lost {
                    finish[j] = None;
                    value_node[j] = None;
                    avail[j] = SimTime::ZERO;
                    incarnation[j] += 1;
                }
                if !lost.is_empty() {
                    // Voided values pull their consumers back out of
                    // the ready set: recount from scratch.
                    for (j, t) in workload.tasks.iter().enumerate() {
                        waiting[j] = t.deps.iter().filter(|&&d| value_node[d].is_none()).count();
                    }
                    ready = (0..n)
                        .filter(|&j| value_node[j].is_none() && waiting[j] == 0)
                        .collect();
                }
                report.voided += lost.len() as u64;
                report.replayed += lost.len() as u64;
                remaining += lost.len();
                if R::ENABLED {
                    rec.fault(FaultEvent {
                        kind: FaultKind::NodeCrash,
                        action: FaultAction::Injected,
                        at_ns: et,
                        tasks: lost.len() as u64,
                    });
                }
                let snap = frontier.snapshot();
                let alive: Vec<usize> = (0..nodes).filter(|&x| !dead[x]).collect();
                assert!(
                    !alive.is_empty(),
                    "all nodes crashed with work pending: the workload cannot complete"
                );
                let release = SimTime::from_nanos(et) + survival.detect;
                // Reassign the dead node's chains over the survivors:
                // LPT by pending work against each survivor's backlog.
                let lost_chains: Vec<usize> =
                    (0..n_chains).filter(|&c| chain_home[c] == en).collect();
                if !lost_chains.is_empty() {
                    let weights: Vec<u64> = lost_chains
                        .iter()
                        .map(|&c| {
                            workload
                                .tasks
                                .iter()
                                .enumerate()
                                .filter(|(j, t)| t.chain as usize == c && value_node[*j].is_none())
                                .map(|(_, t)| t.cost.max(1))
                                .sum::<u64>()
                                .max(1)
                        })
                        .collect();
                    let base_secs: Vec<f64> = alive
                        .iter()
                        .map(|&x| node_free[x].max(release).as_secs_f64())
                        .collect();
                    let per_unit: Vec<f64> = vec![rate.per_task.as_secs_f64(); alive.len()];
                    let asg = lpt_assign(&weights, &base_secs, &per_unit);
                    for (k, &c) in lost_chains.iter().enumerate() {
                        chain_home[c] = alive[asg[k]];
                    }
                }
                // Replay and reassigned work waits out detection.
                for &j in &lost {
                    let c = workload.tasks[j].chain as usize;
                    chain_ready[c] = chain_ready[c].max(release);
                }
                for &c in &lost_chains {
                    chain_ready[c] = chain_ready[c].max(release);
                }
                // Migrate checkpointed frontier values off dead nodes
                // (durable in the cut, readable by survivors) to their
                // chain's new home, through the contended fabric.
                let mut rec_end = release;
                for id in &snap.frontier {
                    let j = id.index();
                    let Some(vn) = value_node[j] else { continue };
                    if !dead[vn] {
                        continue;
                    }
                    let dest = chain_home[workload.tasks[j].chain as usize];
                    let bytes = workload.tasks[j].cost * BYTES_PER_COST;
                    let (_link, ms, arrive) = icn.migrate(release, 1, bytes);
                    if R::ENABLED {
                        rec.span(
                            Stage::Recover,
                            ms.as_nanos(),
                            arrive.as_nanos(),
                            dest as u32,
                        );
                    }
                    value_node[j] = Some(dest);
                    avail[j] = arrive;
                    rec_end = rec_end.max(arrive);
                    report.base.makespan = report.base.makespan.max(arrive);
                }
                report.recovery_ns += rec_end.saturating_sub(SimTime::from_nanos(et)).as_nanos();
                if R::ENABLED {
                    rec.fault(FaultEvent {
                        kind: FaultKind::NodeCrash,
                        action: FaultAction::Recovered,
                        at_ns: rec_end.as_nanos(),
                        tasks: lost.len() as u64,
                    });
                }
                report.last_checkpoint = snap;
                continue;
            }
        }

        let (start, i, node, failed, moved) =
            best.expect("ready task must exist: DAG is acyclic and some node survives");
        let t = &workload.tasks[i];
        let chain = t.chain as usize;
        let (seq, seq_end) = build_sequence(t, start, moved, failed, faults, rate, net);
        let cut = tl
            .crash_at(node)
            .map(SimTime::from_nanos)
            .filter(|&c| start < c && c < seq_end);

        // Tail speculation: race a copy on the least-loaded other node.
        // (end, node, launch) of the race's winner, when one ran.
        let mut won: Option<(SimTime, usize, SimTime)> = None;
        if target[i] && cut.is_none() {
            let copy_node = (0..nodes)
                .filter(|&x| !dead[x] && x != node)
                .min_by_key(|&x| (node_free[x], x));
            if let Some(cn) = copy_node {
                let mut cready = SimTime::ZERO;
                let mut ok = true;
                for &d in &t.deps {
                    let vn = value_node[d].expect("deps complete");
                    if vn == cn {
                        cready = cready.max(avail[d]);
                        continue;
                    }
                    match both_reachable_from(tl, vn, cn, avail[d].as_nanos()) {
                        Some(ts) => {
                            let hop = net.latency
                                + net.transfer_time(1, workload.tasks[d].cost * BYTES_PER_COST);
                            cready = cready.max(SimTime::from_nanos(ts) + hop);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let c_launch = cready.max(node_free[cn]).max(chain_ready[chain]);
                    let c_failed =
                        failed_attempts(faults, i, SALT_COPY.wrapping_add(incarnation[i] as u64));
                    let (c_seq, c_end) =
                        build_sequence(t, c_launch, true, c_failed, faults, rate, net);
                    let copy_cut_free = tl
                        .crash_at(cn)
                        .map(SimTime::from_nanos)
                        .filter(|&c| c_launch < c && c < c_end)
                        .is_none();
                    if copy_cut_free {
                        // The copy launch is journaled whatever the
                        // outcome; only the winner's spans commit.
                        if R::ENABLED {
                            rec.fault(FaultEvent {
                                kind: FaultKind::SlowNode,
                                action: FaultAction::Hedged,
                                at_ns: c_launch.as_nanos(),
                                tasks: 1,
                            });
                        }
                        report.speculative_copies += 1;
                        report.cancelled_copies += 1;
                        let copy_wins = c_end < seq_end; // tie → primary
                        let (w_seq, w_end, w_node, w_moved, w_launch) = if copy_wins {
                            (&c_seq, c_end, cn, false, c_launch)
                        } else {
                            (&seq, seq_end, node, moved, start)
                        };
                        let (l_seq, l_end, l_node) = if copy_wins {
                            (&seq, seq_end, node)
                        } else {
                            (&c_seq, c_end, cn)
                        };
                        let truncated = emit_sequence(
                            rec,
                            &mut spans,
                            &mut report.base,
                            &mut report.attempts_journaled,
                            &mut report.voided,
                            t.stage,
                            w_node,
                            w_moved,
                            w_seq,
                            None,
                        );
                        debug_assert!(!truncated);
                        // The loser ran until the winner finished:
                        // that occupancy is busy time but never
                        // journal history.
                        let mut l_free = node_free[l_node];
                        for &(piece, s, e) in l_seq {
                            if matches!(piece, Piece::Wire) {
                                continue;
                            }
                            let e2 = e.min(w_end);
                            if s < e2 {
                                report.base.busy_ns += (e2 - s).as_nanos();
                                report.base.per_node_busy[l_node] += e2 - s;
                                l_free = l_free.max(e2);
                            }
                        }
                        node_free[l_node] = l_free.max(l_end.min(w_end));
                        won = Some((w_end, w_node, w_launch));
                    }
                }
            }
        }

        let (end, on, launch) = match won {
            Some(winner) => winner,
            None => {
                let truncated = emit_sequence(
                    rec,
                    &mut spans,
                    &mut report.base,
                    &mut report.attempts_journaled,
                    &mut report.voided,
                    t.stage,
                    node,
                    moved,
                    &seq,
                    cut,
                );
                if truncated {
                    // The node died mid-sequence: the task stays ready
                    // and replays after the crash event fires and
                    // reassigns its chain.
                    let c = cut.expect("truncation implies a crash cut");
                    node_free[node] = node_free[node].max(c);
                    incarnation[i] += 1;
                    continue;
                }
                (seq_end, node, start)
            }
        };

        // Commit: the value lives on `on` from `end`, and every
        // successor it was the last missing input of becomes ready.
        report.base.makespan = report.base.makespan.max(end);
        finish[i] = Some(end);
        value_node[i] = Some(on);
        avail[i] = end;
        node_free[on] = end;
        frontier.mark_complete(TaskId::from_index(i));
        remaining -= 1;
        ready.remove(&i);
        for s in frontier
            .successors(TaskId::from_index(i))
            .map(TaskId::index)
        {
            waiting[s] -= 1;
            // A successor that kept its own value through a fold-back
            // of this one has nothing to re-run.
            if waiting[s] == 0 && value_node[s].is_none() {
                ready.insert(s);
            }
        }

        // Critical path: predecessors' paths + this task's total
        // time (failed attempts, backoffs and state hops included —
        // faults lengthen the chain no schedule can beat).
        let mut base = SimTime::ZERO;
        for &d in &t.deps {
            let hop = if value_node[d] == Some(on) {
                SimTime::ZERO
            } else {
                net.latency + net.transfer_time(1, workload.tasks[d].cost * BYTES_PER_COST)
            };
            base = base.max(cp[d] + hop);
        }
        cp[i] = base + (end.saturating_sub(launch));
        report.base.critical_path = report.base.critical_path.max(cp[i]);

        // Barrier mode: close the open step once its last task finished.
        if mode == DagMode::Barrier {
            let mut open = steps
                .first_entry()
                .expect("a committed task's step is still open");
            let (left, latest) = open.get_mut();
            *left -= 1;
            *latest = (*latest).max(end);
            if *left == 0 {
                barrier_time = barrier_time.max(*latest);
                open.remove();
            }
        }
    }

    report.base.overlap_ns = stage_overlap_ns(spans.iter());
    report.migrated_values = icn.tasks_moved();
    report.migrated_bytes = icn.bytes_moved();
    report
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

    fn same_step_pair() -> DagWorkload {
        let mut w = DagWorkload::new();
        let a = w.push(DagTask {
            chain: 0,
            step: 0,
            stage: Stage::CpuCompute,
            cost: 1,
            deps: vec![],
        });
        w.push(DagTask {
            chain: 0,
            step: 0,
            stage: Stage::Postprocess,
            cost: 1,
            deps: vec![a],
        });
        w
    }

    #[test]
    fn same_step_dependency_accepted_and_runs_in_dataflow() {
        // Push order already topologically orders same-step edges;
        // only Dataflow consults the edges, so this must execute.
        let w = same_step_pair();
        assert!(!w.is_barrier_stratified());
        let r = run_dag(
            &w,
            2,
            rate(),
            &NetworkModel::default(),
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut madness_trace::NullRecorder,
        );
        assert_eq!(r.tasks, 2);
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
        let w = same_step_pair();
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
