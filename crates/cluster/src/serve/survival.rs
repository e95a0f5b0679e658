//! The survival half of the serving DES: per-request copy accounting,
//! the node-loss [`Ledger`] (lineage checkpoint + delta journal, void,
//! failure detector, re-admission breakers), hedging and brownout.
//!
//! The plain loop in the parent module knows this file through a
//! handful of hooks it calls on *every* run (`route`, `copy_added` /
//! `copy_removed`, `deliver`, `shed_copy`, `service_rate`,
//! `overloaded`, `observe_sojourn`) and through the handlers of the
//! events only a planned [`NodeFault`] or a hedge timer schedules
//! (`heartbeat`, `node_*`, `hedge_check`). A run that schedules none
//! of those is the pre-survival serving loop, bit for bit.

use super::{Ev, Request, ServeCluster, ServeConfig, SurvivalConfig};
use crate::cluster::ClusterSim;
use crate::des::Des;
use crate::node::{NodeRate, ResourceMode};
use crate::workload::WorkloadSpec;
use madness_faults::{BreakerMap, FaultAction, FaultKind, FaultPlan, NodeFault, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_mra::procmap::lpt_assign;
use madness_runtime::TaskKind;
use madness_trace::{Event, Recorder, ServeOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// Hedge budget multiplier over the per-kind sojourn EWMA.
const HEDGE_BUDGET_FACTOR: f64 = 3.0;

/// Hedge budget floor, and the bootstrap budget before a kind has any
/// completions to estimate from.
const HEDGE_MIN_BUDGET: SimTime = SimTime::from_millis(2);

/// Hedge attempts allowed per request (1 = a classic tied request).
const MAX_HEDGES: u8 = 1;

/// Reduced mean separated rank served while browned out (the
/// [`WorkloadSpec::rr_mean_rank`] calibration hook).
const BROWNOUT_RR_RANK: usize = 8;

/// Brownout engages when `sojourn EWMA > BROWNOUT_ENGAGE × tightest
/// deadline` …
const BROWNOUT_ENGAGE: f64 = 1.0;

/// … and disengages when it falls below `BROWNOUT_DISENGAGE ×` that
/// deadline; the gap between the two is the hysteresis.
const BROWNOUT_DISENGAGE: f64 = 0.5;

/// Heartbeat interval: each beat folds the lineage delta journal into
/// the epoch-boundary checkpoint and counts missed beats for
/// unreachable nodes. (Re-admission after a declared death runs on the
/// one health ladder, [`CircuitBreaker`](madness_faults::CircuitBreaker),
/// and its constants: a 5 ms hold, then one probe per (tenant, node)
/// whose delivery closes the breaker.)
const HEARTBEAT: SimTime = SimTime::from_millis(1);

/// Missed heartbeats after which an unreachable node is declared dead
/// and its lineage re-executed on the survivors.
const MISSED_HEARTBEATS: u32 = 2;

/// One entry of the lineage delta journal: a request copy entered or
/// left a node's resident set since the last checkpoint.
#[derive(Clone, Copy, Debug)]
enum DeltaOp {
    Add(usize, u64),
    Del(usize, u64),
}

impl DeltaOp {
    fn node(self) -> usize {
        match self {
            DeltaOp::Add(n, _) | DeltaOp::Del(n, _) => n,
        }
    }

    /// Applies the op to its node's resident multiset — the one fold
    /// behind both the heartbeat checkpoint and the recovery replay.
    fn apply(self, resident: &mut BTreeMap<u64, u32>) {
        match self {
            DeltaOp::Add(_, id) => *resident.entry(id).or_insert(0) += 1,
            DeltaOp::Del(n, id) => match resident.get_mut(&id) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    resident.remove(&id);
                }
                None => debug_assert!(false, "request {id} was never resident on node {n}"),
            },
        }
    }
}

/// What surviving a *node loss* needs: the lineage ledger recovery
/// re-executes from (never the dead node's memory), the failure
/// detector's missed-beat counts, and the re-admission breakers.
///
/// It exists iff a plan schedules a [`NodeFault`]: without one no node
/// ever goes down, no heartbeat folds the journal and nothing reads
/// it, so nothing is recorded either.
pub(super) struct Ledger {
    /// Epoch-boundary checkpoint: per node, resident request copies.
    ckpt: Vec<BTreeMap<u64, u32>>,
    /// Residency changes since the last checkpoint; folded in at each
    /// heartbeat, replayed over the checkpoint for recovery.
    delta: Vec<DeltaOp>,
    /// Requests sent to a silently-down node: lost in transit until
    /// detection or heal relocates them.
    void: Vec<BTreeSet<u64>>,
    /// Missed heartbeats per node.
    missed: Vec<u32>,
    breakers: BreakerMap,
    /// Last planned fault instant: heartbeats keep running until then.
    last_fault_at: SimTime,
}

impl Ledger {
    /// Schedules every planned [`NodeFault`] and, if there is one, the
    /// first heartbeat; returns the ledger those events work on.
    pub(super) fn schedule(
        des: &mut Des<Ev>,
        plans: &[FaultPlan],
        cfg: &ServeConfig,
    ) -> Option<Ledger> {
        let mut last_fault = None;
        for (i, plan) in plans.iter().enumerate().take(cfg.nodes) {
            for nf in plan.node_faults() {
                match *nf {
                    NodeFault::CrashAt(t) => {
                        des.schedule(SimTime::from_nanos(t), Ev::NodeCrash(i));
                    }
                    NodeFault::PartitionAt { at_ns, duration_ns } => {
                        des.schedule(SimTime::from_nanos(at_ns), Ev::NodePartition(i));
                        des.schedule(
                            SimTime::from_nanos(at_ns.saturating_add(duration_ns)),
                            Ev::NodeHeal(i),
                        );
                    }
                    NodeFault::RejoinAt(t) => {
                        des.schedule(SimTime::from_nanos(t), Ev::NodeRejoin(i));
                    }
                }
                last_fault = last_fault.max(Some(SimTime::from_nanos(nf.at_ns())));
            }
        }
        let last_fault_at = last_fault?;
        des.schedule(HEARTBEAT, Ev::Heartbeat);
        // Prewarm every (tenant, node) breaker so `trip_node` at
        // detection time finds them all.
        let mut breakers = BreakerMap::default();
        for t in &cfg.tenants {
            for j in 0..cfg.nodes {
                let _ = breakers.get(t.id.0, j as u32);
            }
        }
        Some(Ledger {
            ckpt: vec![BTreeMap::new(); cfg.nodes],
            delta: Vec::new(),
            void: vec![BTreeSet::new(); cfg.nodes],
            missed: vec![0; cfg.nodes],
            breakers,
            last_fault_at,
        })
    }
}

/// Survival state every run has: per-request copy accounting, the
/// hedge and brownout latency models, and the node-loss [`Ledger`]. A
/// run with no planned node fault, hedging and brownout off is inert
/// because nothing here is ever *scheduled* — no heartbeat, no hedge
/// check, no engagement — not because it takes another path: its hooks
/// run on every request and cost three one-byte stores.
pub(super) struct Survival {
    hedge: bool,
    brownout: bool,
    /// Per-node reduced-rank per-task cost while browned out (empty
    /// when brownout is off).
    degraded: Vec<SimTime>,
    /// Request-level completion flag (first copy to finish wins).
    done: Vec<bool>,
    /// Live attempt copies per request.
    copies: Vec<u8>,
    /// Hedge attempts already launched per request.
    hedged: Vec<u8>,
    ledger: Option<Ledger>,
    /// Global completion-sojourn EWMA (ns) for the brownout controller.
    sojourn_ewma: f64,
    /// Tightest tenant deadline (ns) — the brownout threshold.
    deadline_ref: u64,
    brownout_on: bool,
}

impl Survival {
    pub(super) fn new(
        cfg: &ServeConfig,
        requests: usize,
        survival: &SurvivalConfig,
        degraded: Vec<SimTime>,
        ledger: Option<Ledger>,
    ) -> Survival {
        let deadlines = cfg.tenants.iter().map(|t| t.deadline.as_nanos());
        Survival {
            hedge: survival.hedge.is_some(),
            brownout: survival.brownout.is_some(),
            degraded,
            done: vec![false; requests],
            copies: vec![0; requests],
            hedged: vec![0; requests],
            ledger,
            sojourn_ewma: 0.0,
            deadline_ref: deadlines.min().unwrap_or(0).max(1),
            brownout_on: false,
        }
    }
}

impl ClusterSim {
    /// Brownout serves the reduced-rank Apply: calibrate the healthy
    /// degraded rate once and scale it by each node's own slowdown.
    pub(super) fn degraded_rates(
        &self,
        spec: &WorkloadSpec,
        mode: ResourceMode,
        policy: RecoveryPolicy,
        healthy: NodeRate,
        rates: &[NodeRate],
    ) -> Vec<SimTime> {
        let dspec = WorkloadSpec {
            rr_mean_rank: Some(BROWNOUT_RR_RANK),
            ..*spec
        };
        let drate = self
            .node()
            .calibrate(&dspec, mode, &FaultPlan::none(), policy);
        rates
            .iter()
            .map(|r| {
                let ratio =
                    r.per_task.as_nanos().max(1) as f64 / healthy.per_task.as_nanos().max(1) as f64;
                drate.per_task.scale(ratio)
            })
            .collect()
    }
}

/// Why the node-loss handlers may unwrap the ledger.
const LEDGER: &str = "node-fault events are only scheduled together with a ledger";

impl<R: Recorder> ServeCluster<'_, R> {
    // -- Hooks the plain loop calls on every run ----------------------

    /// Ledger hook: a copy of each of `reqs` became resident on `node`.
    pub(super) fn copy_added(&mut self, node: usize, reqs: &[Request]) {
        if let Some(l) = &mut self.surv.ledger {
            l.delta
                .extend(reqs.iter().map(|r| DeltaOp::Add(node, r.id)));
        }
    }

    /// Ledger hook: a copy of each of `reqs` left `node`.
    pub(super) fn copy_removed(&mut self, node: usize, reqs: &[Request]) {
        if let Some(l) = &mut self.surv.ledger {
            l.delta
                .extend(reqs.iter().map(|r| DeltaOp::Del(node, r.id)));
        }
    }

    /// One live copy of request `id` terminated; returns how many are
    /// left. Every path that ends a copy goes through here.
    fn copy_ended(&mut self, id: u64) -> u8 {
        let live = &mut self.surv.copies[id as usize];
        debug_assert!(*live > 0, "request {id} ended a copy it never had");
        *live -= 1;
        *live
    }

    /// Terminates one live copy of `req` at `now`: the first
    /// termination completes the request, every later one is an
    /// accounting-only cancelled hedge.
    fn finish_copy(&mut self, req: &Request, started: SimTime, now: SimTime) {
        self.copy_ended(req.id);
        let out = if std::mem::replace(&mut self.surv.done[req.id as usize], true) {
            ServeOutcome::CancelledHedge
        } else {
            ServeOutcome::Completed
        };
        self.record(req, started, now, out);
    }

    /// Terminates one queued copy of `req` by shedding: the request
    /// itself is shed only when this was its last live copy and it had
    /// not completed elsewhere.
    pub(super) fn shed_copy(&mut self, req: &Request, now: SimTime) {
        let left = self.copy_ended(req.id);
        let done = &mut self.surv.done[req.id as usize];
        let out = if *done || left > 0 {
            ServeOutcome::CancelledHedge
        } else {
            *done = true;
            ServeOutcome::Shed
        };
        self.record(req, req.arrival, now, out);
    }

    /// Terminates a copy of request `id` that no longer matters: its
    /// request completed elsewhere or another copy lives on.
    fn cancel_copy(&mut self, id: u64, now: SimTime) {
        self.copy_ended(id);
        let req = self.requests[id as usize];
        self.record(&req, now, now, ServeOutcome::CancelledHedge);
    }

    /// A copy of `req` finished service on `node` and its result
    /// reached the cluster: it leaves the ledger, counts as a success
    /// on the re-admission ladder, and terminates.
    pub(super) fn deliver(&mut self, node: usize, req: &Request, started: SimTime, now: SimTime) {
        if let Some(l) = &mut self.surv.ledger {
            l.delta.push(DeltaOp::Del(node, req.id));
            l.breakers
                .get(req.tenant.0, node as u32)
                .on_success(now.as_nanos());
        }
        self.finish_copy(req, started, now);
    }

    /// Admission hook: registers the first copy of request `idx`,
    /// starts its hedge timer, and returns the node it is sent to —
    /// its data's home, or, once the cluster has *declared* nodes dead,
    /// the first node from there on that the tenant's breaker ladder
    /// admits. Undetected failures are invisible here: `None` means the
    /// request was sent to a silently-down node and is lost in transit
    /// until detection or heal relocates it from the void ledger.
    pub(super) fn route(&mut self, idx: usize, now: SimTime) -> Option<usize> {
        let req = self.requests[idx];
        let home = self.home(&req);
        let mut target = home;
        if let Some(l) = &mut self.surv.ledger {
            let n = self.nodes.len();
            for j in (0..n).map(|off| (home + off) % n) {
                if !self.nodes[j].declared_dead
                    && l.breakers.get(req.tenant.0, j as u32).admit(now.as_nanos())
                {
                    target = j;
                    break;
                }
            }
        }
        self.surv.copies[idx] = 1;
        if self.surv.hedge {
            let budget = self.kind_row(req.kind).map_or(HEDGE_MIN_BUDGET, |k| {
                let e = self.kinds[k].ewma;
                SimTime::from_nanos((HEDGE_BUDGET_FACTOR * e).round() as u64).max(HEDGE_MIN_BUDGET)
            });
            self.des.schedule(now + budget, Ev::HedgeCheck { req: idx });
        }
        let nd = &self.nodes[target];
        if !nd.up || !nd.reachable {
            self.surv.ledger.as_mut().expect(LEDGER).void[target].insert(req.id);
            return None;
        }
        self.copy_added(target, &[req]);
        Some(target)
    }

    /// Brownout hook: the per-task cost `node` serves its next `tasks`
    /// tasks at — the calibrated rate, or the reduced-rank one while
    /// browned out.
    pub(super) fn service_rate(&mut self, node: usize, tasks: u64) -> SimTime {
        if self.surv.brownout_on {
            self.report.degraded_tasks += tasks;
            self.surv.degraded[node]
        } else {
            self.nodes[node].rate.per_task
        }
    }

    /// Brownout hook: an arrival found the bounded queue full. Brown
    /// out first — the controller cannot reclaim the slot this arrival
    /// needs, but degraded service drains the queue for the next ones —
    /// and only then shed.
    pub(super) fn overloaded(&mut self) {
        if self.surv.brownout && !self.surv.brownout_on {
            self.surv.brownout_on = true;
            self.report.brownout_engagements += 1;
        }
    }

    /// Feeds one completion sojourn of the kind in `kinds[row]` into the
    /// hedge-budget and brownout latency models.
    pub(super) fn observe_sojourn(&mut self, row: usize, sojourn_ns: u64) {
        let s = &mut self.surv;
        let x = sojourn_ns as f64;
        if s.hedge {
            // Tail-tracking EWMA: rises fast on a slow completion,
            // decays slowly, so the budget hugs the p99 region. A new
            // row starts at its first sojourn, which this leaves as is.
            let e = &mut self.kinds[row].ewma;
            let alpha = if x > *e { 0.25 } else { 0.05 };
            *e += alpha * (x - *e);
        }
        if s.brownout {
            if s.sojourn_ewma == 0.0 {
                s.sojourn_ewma = x;
            } else {
                s.sojourn_ewma += 0.2 * (x - s.sojourn_ewma);
            }
            let dl = s.deadline_ref as f64;
            if !s.brownout_on && s.sojourn_ewma > BROWNOUT_ENGAGE * dl {
                s.brownout_on = true;
                self.report.brownout_engagements += 1;
            } else if s.brownout_on && s.sojourn_ewma < BROWNOUT_DISENGAGE * dl {
                s.brownout_on = false;
            }
        }
    }

    // -- Handlers of the events only a planned fault or a hedge timer
    // -- schedules -----------------------------------------------------

    /// Heartbeat sweep: fold the delta journal into the checkpoint (the
    /// epoch boundary of the lineage ledger), advance per-node missed
    /// counters, and declare nodes dead once they exceed the budget.
    /// Reschedules itself while any fault is pending or unresolved.
    pub(super) fn heartbeat(&mut self, now: SimTime) {
        let l = self.surv.ledger.as_mut().expect(LEDGER);
        for op in l.delta.drain(..) {
            op.apply(&mut l.ckpt[op.node()]);
        }
        let mut declare: Vec<usize> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.up && n.reachable {
                l.missed[i] = 0;
            } else if !n.declared_dead {
                l.missed[i] += 1;
                if l.missed[i] >= MISSED_HEARTBEATS {
                    declare.push(i);
                }
            }
        }
        let last_fault = l.last_fault_at;
        for i in declare {
            self.declare_dead(i, now);
        }
        let unresolved = self
            .nodes
            .iter()
            .any(|n| (!n.up || !n.reachable) && !n.declared_dead);
        if now < last_fault || unresolved {
            self.des.schedule(now + HEARTBEAT, Ev::Heartbeat);
        }
    }

    /// The failure detector fires: journal the detection, trip every
    /// (tenant, node) breaker so admission routes around the corpse, and
    /// re-execute its resident lineage on the survivors.
    fn declare_dead(&mut self, node: usize, now: SimTime) {
        self.nodes[node].declared_dead = true;
        let crashed = !self.nodes[node].up;
        let kind = if crashed {
            FaultKind::NodeCrash
        } else {
            FaultKind::NodePartition
        };
        self.fault(kind, FaultAction::Detected, now, 0);
        let breakers = &mut self.surv.ledger.as_mut().expect(LEDGER).breakers;
        breakers.trip_node(node as u32, now.as_nanos());
        self.report.breaker_trips = breakers.total_trips();
        self.recover_node(node, now, !crashed);
    }

    /// Lineage re-execution from the checkpoint + delta journal — never
    /// from the dead node's memory.
    ///
    /// `frozen` = the node is partitioned but may still be computing: its
    /// resident work is *duplicated* (hedge semantics, first completion
    /// wins at heal). A crash (`!frozen`) instead *relocates* each sole
    /// surviving copy and cancels copies that exist elsewhere or whose
    /// request already finished. Void entries (lost in transit to the
    /// unreachable node) always follow the crash rule.
    fn recover_node(&mut self, node: usize, now: SimTime, frozen: bool) {
        let mut relocate: Vec<u64> = Vec::new();
        let mut duplicate: Vec<u64> = Vec::new();
        let mut cancels: Vec<u64> = Vec::new();
        let s = &mut self.surv;
        let l = s.ledger.as_mut().expect(LEDGER);
        let mut resident = l.ckpt[node].clone();
        for op in l.delta.iter().filter(|op| op.node() == node) {
            op.apply(&mut resident);
        }
        for (&id, &cnt) in &resident {
            let i = id as usize;
            if frozen {
                if !s.done[i] {
                    duplicate.push(id);
                }
                // Resident stays: the frozen node still holds the
                // originals; they fence at heal or cancel at crash.
                continue;
            }
            let live = u32::from(s.copies[i]);
            debug_assert!(
                cnt <= live,
                "request {id}: {cnt} copies resident on node {node}, {live} live"
            );
            if s.done[i] || live > cnt {
                cancels.extend((0..cnt).map(|_| id));
            } else {
                relocate.push(id);
                cancels.extend((1..cnt).map(|_| id));
            }
            l.delta.extend((0..cnt).map(|_| DeltaOp::Del(node, id)));
        }
        for id in std::mem::take(&mut l.void[node]) {
            let i = id as usize;
            if s.done[i] || s.copies[i] > 1 {
                cancels.push(id);
            } else {
                relocate.push(id);
            }
        }
        for id in cancels {
            self.cancel_copy(id, now);
        }
        self.report.hedges_launched += duplicate.len() as u64;
        for &id in &duplicate {
            self.surv.copies[id as usize] += 1;
        }
        self.report.recovered_requests += (relocate.len() + duplicate.len()) as u64;
        let kind = if frozen {
            FaultKind::NodePartition
        } else {
            FaultKind::NodeCrash
        };
        self.dispatch_recovery(node, relocate, now, kind, FaultAction::Recovered);
        self.dispatch_recovery(
            node,
            duplicate,
            now,
            FaultKind::NodePartition,
            FaultAction::Hedged,
        );
    }

    /// Ship re-executed lineage to the survivors: group by task kind,
    /// place groups by LPT over the survivors' estimated finish times,
    /// and pay real wire time per recovery batch.
    fn dispatch_recovery(
        &mut self,
        from: usize,
        ids: Vec<u64>,
        now: SimTime,
        kind: FaultKind,
        action: FaultAction,
    ) {
        if ids.is_empty() {
            return;
        }
        let mut groups: BTreeMap<TaskKind, Vec<Request>> = BTreeMap::new();
        for id in ids {
            let req = self.requests[id as usize];
            groups.entry(req.kind).or_default().push(req);
        }
        let targets: Vec<usize> = {
            let t: Vec<usize> = (0..self.nodes.len())
                .filter(|&j| j != from && self.can_balance(j))
                .collect();
            if t.is_empty() {
                vec![from]
            } else {
                t
            }
        };
        let weights: Vec<u64> = groups
            .values()
            .map(|reqs| reqs.iter().map(|r| r.tasks).sum())
            .collect();
        let base: Vec<f64> = targets
            .iter()
            .map(|&j| self.nodes[j].est(now).saturating_sub(now).as_secs_f64())
            .collect();
        let per_unit: Vec<f64> = targets
            .iter()
            .map(|&j| self.nodes[j].rate.per_task.as_secs_f64())
            .collect();
        let assign = lpt_assign(&weights, &base, &per_unit);
        for ((_kind, reqs), slot) in groups.into_iter().zip(assign) {
            let nreqs = reqs.len() as u64;
            let batch = self.new_batch(reqs, now);
            let tasks = batch.tasks;
            self.ship(targets[slot], vec![batch], None, now);
            self.fault(kind, action, now, tasks);
            if R::ENABLED {
                self.rec.record(Event::Count("recovered_requests", nreqs));
            }
        }
    }

    /// Planned crash: the node loses *everything* — queued batches, the
    /// batch it was serving, batcher contents, fenced results. Recovery
    /// reads only the ledger; `gen` fences any stale in-flight
    /// `BatchDone`.
    pub(super) fn node_crash(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up {
            return;
        }
        self.fault(FaultKind::NodeCrash, FaultAction::Injected, now, 0);
        self.report.node_crashes += 1;
        let n = &mut self.nodes[node];
        n.up = false;
        n.reachable = true;
        n.gen += 1;
        n.serving = None;
        if let Some(index) = &mut self.shed_index {
            for batch in &n.ready {
                index.remove(&batch.shed_key());
            }
        }
        n.ready.clear();
        n.ready_tasks = 0;
        self.backlog[node / 64] &= !(1 << (node % 64));
        n.fenced.clear();
        n.awaiting = false;
        let _ = n.batcher.drain();
        n.busy_until = now;
        self.mark_idle(node);
        if self.nodes[node].declared_dead {
            // A declared-dead partition that now truly crashes: the
            // frozen originals are gone for real — cancel them (the
            // hedge duplicates already cover completion).
            self.recover_node(node, now, false);
        }
    }

    /// Planned partition: the node keeps computing but nothing gets in
    /// or out until heal.
    pub(super) fn node_partition(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || !self.nodes[node].reachable {
            return;
        }
        self.nodes[node].reachable = false;
        self.fault(FaultKind::NodePartition, FaultAction::Injected, now, 0);
    }

    /// Partition heals: fenced results deliver now (first completion
    /// wins against any hedge duplicates), void requests that still need
    /// a copy are resent locally, and a declared-dead node re-admits
    /// through the breakers' probe ladder.
    pub(super) fn node_heal(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || self.nodes[node].reachable {
            self.nodes[node].reachable = true;
            return;
        }
        self.nodes[node].reachable = true;
        let was_declared = std::mem::take(&mut self.nodes[node].declared_dead);
        self.surv.ledger.as_mut().expect(LEDGER).missed[node] = 0;
        for (req, start) in std::mem::take(&mut self.nodes[node].fenced) {
            self.deliver(node, &req, start, now);
        }
        let void = std::mem::take(&mut self.surv.ledger.as_mut().expect(LEDGER).void[node]);
        let mut resend: BTreeMap<TaskKind, Vec<Request>> = BTreeMap::new();
        for id in void {
            let i = id as usize;
            if self.surv.done[i] || self.surv.copies[i] > 1 {
                self.cancel_copy(id, now);
            } else {
                let req = self.requests[i];
                self.copy_added(node, &[req]);
                resend.entry(req.kind).or_default().push(req);
            }
        }
        for (_, reqs) in resend {
            let tasks: u64 = reqs.iter().map(|r| r.tasks).sum();
            self.fault(FaultKind::NodePartition, FaultAction::Resent, now, tasks);
            self.enqueue_ready(node, reqs, now);
        }
        if was_declared {
            self.report.rejoins += 1;
            self.fault(FaultKind::NodePartition, FaultAction::Readmitted, now, 0);
        }
        self.maybe_start(node, now);
    }

    /// Planned rejoin after a crash: revive with a cold cache (full
    /// startup cost) and re-admit through the probe ladder. If the crash
    /// was never declared (heartbeats hadn't fired yet), recover its
    /// lineage first — nothing may be lost just because detection lagged.
    pub(super) fn node_rejoin(&mut self, node: usize, now: SimTime) {
        if self.nodes[node].up {
            return;
        }
        if !self.nodes[node].declared_dead {
            self.fault(FaultKind::NodeCrash, FaultAction::Detected, now, 0);
            self.recover_node(node, now, false);
        }
        let n = &mut self.nodes[node];
        n.up = true;
        n.reachable = true;
        n.declared_dead = false;
        n.busy_until = now + n.rate.startup; // cold cache: repay startup
        self.surv.ledger.as_mut().expect(LEDGER).missed[node] = 0;
        self.report.rejoins += 1;
        self.fault(FaultKind::NodeRejoin, FaultAction::Readmitted, now, 0);
        self.maybe_start(node, now);
    }

    /// Deadline-aware hedge: if the request is still unfinished when its
    /// per-kind tail budget expires, launch a second copy on the
    /// least-loaded other node. First completion wins; the loser is
    /// accounted as [`ServeOutcome::CancelledHedge`].
    pub(super) fn hedge_check(&mut self, idx: usize, now: SimTime) {
        let s = &self.surv;
        if s.done[idx] || s.copies[idx] == 0 || s.hedged[idx] >= MAX_HEDGES {
            return;
        }
        let req = self.requests[idx];
        let home = self.home(&req);
        let target = self
            .least_loaded_survivor(home, now)
            .or_else(|| self.can_balance(home).then_some(home));
        let Some(to) = target else { return };
        self.surv.hedged[idx] += 1;
        self.surv.copies[idx] += 1;
        self.report.hedges_launched += 1;
        let batch = self.new_batch(vec![req], now);
        self.ship(to, vec![batch], None, now);
        self.fault(FaultKind::SlowNode, FaultAction::Hedged, now, req.tasks);
        if R::ENABLED {
            self.rec.record(Event::Count("hedges_launched", 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{sim, survive, two_tenant_cfg, HYBRID, STEAL};
    use super::super::{generate_requests, BrownoutConfig, HedgeConfig, ServeReport, ShedPolicy};
    use super::*;
    use madness_trace::{MemRecorder, NullRecorder, Stage};

    /// Every *request* (not copy) terminates exactly once as
    /// completed, rejected, or shed — node loss must not leak any.
    fn assert_no_request_lost(report: &ServeReport) {
        assert!(report.conserved(), "{report:?}");
        assert_eq!(
            report.generated,
            report.completed + report.rejected + report.shed,
            "a request was lost or double-counted: {report:?}"
        );
        assert_eq!(
            report.cancelled_hedges, report.hedges_launched,
            "every extra copy must terminate as a cancelled hedge: {report:?}"
        );
    }

    #[test]
    fn inert_survival_config_is_bit_identical_to_run_served() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.7);
        let mut rec_a = MemRecorder::new();
        let mut rec_b = MemRecorder::new();
        let base = s.run_served(&cfg, HYBRID, STEAL, &mut rec_a);
        let surv = survive(&s, &cfg, &[], &SurvivalConfig::default(), &mut rec_b);
        assert_eq!(base, surv, "inert survival config must not perturb serving");
        assert_eq!(rec_a.to_json(), rec_b.to_json(), "journals must match");
        assert_eq!(surv.hedges_launched + surv.cancelled_hedges, 0);
        assert_eq!(surv.node_crashes + surv.rejoins + surv.breaker_trips, 0);
        assert_eq!(surv.brownout_engagements + surv.degraded_tasks, 0);
    }

    #[test]
    fn node_crash_under_live_traffic_loses_nothing_and_replays() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        let crash_at = SimTime::from_millis(20).as_nanos();
        let plans = vec![FaultPlan::none().with_node_crash_at(crash_at)];
        let run =
            |rec: &mut MemRecorder| survive(&s, &cfg, &plans, &SurvivalConfig::default(), rec);
        let mut rec_a = MemRecorder::new();
        let report = run(&mut rec_a);
        assert_no_request_lost(&report);
        assert_eq!(report.node_crashes, 1);
        assert!(
            report.recovered_requests > 0,
            "the crash must strand work to recover: {report:?}"
        );
        assert!(
            report.breaker_trips > 0,
            "detection must trip the dead node's breakers"
        );
        assert!(
            rec_a
                .faults()
                .any(|f| f.kind == FaultKind::NodeCrash && f.action == FaultAction::Detected),
            "heartbeats must detect the crash"
        );
        assert!(
            rec_a
                .faults()
                .any(|f| f.kind == FaultKind::NodeCrash && f.action == FaultAction::Recovered),
            "lineage re-execution must be journaled"
        );
        assert!(
            rec_a.spans().any(|sp| sp.stage == Stage::Recover),
            "recovery wire time must be journaled"
        );
        // Same seed, same plan: bit-identical replay.
        let mut rec_b = MemRecorder::new();
        let replay = run(&mut rec_b);
        assert_eq!(report, replay, "same-seed chaos replay diverged");
        assert_eq!(rec_a.to_json(), rec_b.to_json());
    }

    #[test]
    fn short_partition_fences_results_and_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        // One heartbeat long: heals before the 2-beat detection limit,
        // so nothing is declared dead and no duplicates launch.
        let plans =
            vec![FaultPlan::none()
                .with_node_partition(SimTime::from_millis(20).as_nanos(), 1_000_000)];
        let mut rec = MemRecorder::new();
        let report = survive(&s, &cfg, &plans, &SurvivalConfig::default(), &mut rec);
        assert_no_request_lost(&report);
        assert_eq!(
            report.hedges_launched, 0,
            "undetected partition: {report:?}"
        );
        assert_eq!(report.node_crashes, 0);
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Injected),
            "partition must be journaled"
        );
    }

    #[test]
    fn declared_dead_partition_duplicates_and_first_completion_wins() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        // Ten heartbeats: declared dead after two, heals much later —
        // the frozen work re-executes as duplicates, the fenced
        // originals lose the race and cancel.
        let plans =
            vec![FaultPlan::none()
                .with_node_partition(SimTime::from_millis(15).as_nanos(), 10_000_000)];
        let mut rec = MemRecorder::new();
        let report = survive(&s, &cfg, &plans, &SurvivalConfig::default(), &mut rec);
        assert_no_request_lost(&report);
        assert!(
            report.hedges_launched > 0,
            "declared-dead partition must duplicate its frozen work: {report:?}"
        );
        assert!(report.rejoins >= 1, "the heal must re-admit the node");
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Hedged),
            "partition duplicates must be journaled as hedges"
        );
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodePartition && f.action == FaultAction::Readmitted),
            "the heal re-admission must be journaled"
        );
    }

    #[test]
    fn crash_then_rejoin_recovers_and_readmits() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.6);
        let plans = vec![FaultPlan::none()
            .with_node_crash_at(SimTime::from_millis(15).as_nanos())
            .with_node_rejoin_at(SimTime::from_millis(30).as_nanos())];
        let mut rec = MemRecorder::new();
        let report = survive(&s, &cfg, &plans, &SurvivalConfig::default(), &mut rec);
        assert_no_request_lost(&report);
        assert_eq!(report.node_crashes, 1);
        assert!(report.rejoins >= 1, "{report:?}");
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::NodeRejoin && f.action == FaultAction::Readmitted),
            "rejoin must be journaled"
        );
        // The rejoined node must actually serve again: more capacity
        // than the crash-only run, never less.
        let crash_only =
            vec![FaultPlan::none().with_node_crash_at(SimTime::from_millis(15).as_nanos())];
        let base = survive(
            &s,
            &cfg,
            &crash_only,
            &SurvivalConfig::default(),
            &mut NullRecorder,
        );
        assert_no_request_lost(&base);
        assert!(
            report.makespan <= base.makespan,
            "rejoin must not slow the drain: {:?} vs {:?}",
            report.makespan,
            base.makespan
        );
    }

    #[test]
    fn hedging_duplicates_straggler_tails_and_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let plans = vec![FaultPlan::none().with_straggler(4.0)];
        let survival = SurvivalConfig {
            hedge: Some(HedgeConfig::default()),
            ..SurvivalConfig::default()
        };
        let mut rec = MemRecorder::new();
        let report = survive(&s, &cfg, &plans, &survival, &mut rec);
        assert_no_request_lost(&report);
        assert!(
            report.hedges_launched > 0,
            "a 4x straggler must trip the hedge budget: {report:?}"
        );
        assert!(
            rec.faults()
                .any(|f| f.kind == FaultKind::SlowNode && f.action == FaultAction::Hedged),
            "hedges must be journaled"
        );
    }

    #[test]
    fn brownout_engages_before_shedding_and_conserves() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        cfg.shed = ShedPolicy::DropOldest;
        let survival = SurvivalConfig {
            brownout: Some(BrownoutConfig::default()),
            ..SurvivalConfig::default()
        };
        let report = survive(&s, &cfg, &[], &survival, &mut NullRecorder);
        assert_no_request_lost(&report);
        assert!(
            report.brownout_engagements > 0,
            "3x overload must engage the brownout: {report:?}"
        );
        assert!(
            report.degraded_tasks > 0,
            "browned-out batches must serve at the degraded rate: {report:?}"
        );
    }

    #[test]
    fn the_ledger_exists_only_when_a_node_fault_is_planned() {
        // A hedge-only or brownout-only run used to journal a delta op
        // per residency change into a buffer no heartbeat folded and no
        // recovery read. Without a planned node fault there is no
        // ledger to journal into; with one there is.
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        cfg.shed = ShedPolicy::DropOldest;
        let crash = [FaultPlan::none().with_node_crash_at(SimTime::from_millis(10).as_nanos())];
        let hedge = SurvivalConfig {
            hedge: Some(HedgeConfig::default()),
            ..SurvivalConfig::default()
        };
        let brownout = SurvivalConfig {
            brownout: Some(BrownoutConfig::default()),
            ..SurvivalConfig::default()
        };
        let straggler = [FaultPlan::none().with_straggler(4.0)];
        for (plans, survival, expect) in [
            (&straggler[..], &hedge, false),
            (&[][..], &brownout, false),
            (&crash[..], &SurvivalConfig::default(), true),
        ] {
            let requests = generate_requests(&cfg);
            let (policy, mut rec) = (RecoveryPolicy::default(), NullRecorder);
            let mut cluster = s.serve_cluster(
                &cfg, &requests, HYBRID, STEAL, plans, policy, survival, &mut rec,
            );
            cluster.run();
            assert_eq!(cluster.surv.ledger.is_some(), expect, "{survival:?}");
            let report = cluster.into_report();
            assert_no_request_lost(&report);
            assert!(report.shed > 0, "the run must churn residency: {report:?}");
        }
    }

    #[test]
    fn crash_during_overload_shedding_conserves() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 16;
        for shed in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            cfg.shed = shed;
            let plans =
                vec![FaultPlan::none().with_node_crash_at(SimTime::from_millis(10).as_nanos())];
            let report = survive(
                &s,
                &cfg,
                &plans,
                &SurvivalConfig::default(),
                &mut NullRecorder,
            );
            assert_no_request_lost(&report);
            assert!(report.rejected > 0, "{shed:?} must bounce at 3x overload");
            assert_eq!(report.node_crashes, 1, "{shed:?}: {report:?}");
        }
    }
}
