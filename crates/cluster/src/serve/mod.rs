//! Online serving layer: arrival-process traffic, multi-tenant SLO
//! queueing, and latency-percentile reporting.
//!
//! Every other entry point in the workspace is *batch*: one closed
//! population in, one makespan out. Real MADNESS applications issue
//! continuous streams of small irregular Apply tasks, and a cluster
//! serving heavy traffic is judged by latency *distributions* — p50,
//! p99, p999 sojourn times and per-tenant SLO attainment — not by any
//! single completion time. This module adds that open-system view on
//! top of the PR-5 balance machinery:
//!
//! * **[`RateProfile`]** — seeded arrival processes (Poisson, bursty
//!   on/off, diurnal) generated by Lewis–Shedler thinning over a
//!   stateless splitmix draw, so the same seed always produces the
//!   bit-identical request trace;
//! * **[`ServeConfig`]** — the traffic contract: tenants with weights,
//!   deadlines and per-request fan-out, a bounded admission queue at the
//!   cluster boundary, and a [`ShedPolicy`] for overload;
//! * a serving loop that drives the balance-style cluster DES
//!   *incrementally*: requests are injected at their arrival `SimTime`,
//!   batched per [`TaskKind`] through the node's [`Batcher`] (timer and
//!   size flushes exactly as in the offline pipeline, one flush timer
//!   per batch a push opens), dequeued by strict tenant-weight
//!   priority, shed under [`ShedPolicy::DropOldest`] off one
//!   cluster-wide index in shed order, and stolen across nodes under
//!   the same profit guard as [`BalanceMode::Steal`] — preferring the
//!   highest-weight tenant's batches, so weight buys latency; a freed
//!   steal slot wakes only the nodes an index marks idle;
//! * **[`ServeReport`]** — exact (nearest-rank) latency percentiles per
//!   tenant and per kind, SLO attainment, admission accounting with a
//!   conservation law (`completed + rejected + shed == generated`), and
//!   the migration ledger.
//!
//! Every request outcome is journaled through `madness-trace` as a
//! [`ServeEvent`] plus a [`Stage::Sojourn`] span, and the fault injector
//! composes ([`ClusterSim::run_served_survivable`]): a straggler or a
//! flaky GPU calibrates slow, becomes a steal victim, and shows up as
//! p999 inflation rather than lost work.
//!
//! **Survivable serving** ([`ClusterSim::run_served_survivable`])
//! extends the open-system view to whole-node loss and graceful
//! degradation:
//!
//! * planned [`NodeFault`](madness_faults::NodeFault)s (crash / partition / rejoin) take nodes
//!   down mid-traffic; the cluster detects the loss by missed heartbeat
//!   beats, reconstructs the node's unfinished lineage from an
//!   epoch-boundary checkpoint plus a delta journal (never from the
//!   dead node's memory), and re-executes it on the survivors through
//!   the shared LPT placement — journaled as [`Stage::Recover`] spans;
//! * rejoining nodes come back cold (startup paid again) and re-admit
//!   through a per-(tenant, node)
//!   [`CircuitBreaker`](madness_faults::CircuitBreaker) — the same
//!   health ladder that quarantines a node's GPU device;
//! * [`HedgeConfig`] launches a duplicate attempt on another node once
//!   a request overstays its kind's p99-tracking latency budget —
//!   first completion wins, the loser is accounted as
//!   [`ServeOutcome::CancelledHedge`], and the conservation law
//!   generalizes to `completed + rejected + shed + cancelled_hedges ==
//!   generated + hedges_launched`;
//! * [`BrownoutConfig`] degrades service (reduced-rank Apply via
//!   [`WorkloadSpec::rr_mean_rank`]) when the sojourn EWMA crosses the
//!   tightest deadline, before the [`ShedPolicy`] starts dropping
//!   requests.
//!
//! Everything is seeded and event-driven, so a crashed run replays
//! bit-identically. There is one loop: every run carries the survival
//! state and calls its hooks (three one-byte stores of copy accounting
//! per request), and an inert [`SurvivalConfig`] with no planned node
//! fault is inert because no heartbeat, hedge check or node event is
//! ever *scheduled* and no lineage ledger exists — which keeps the
//! default run bit-identical to the pre-survival serving loop.

use crate::cluster::ClusterSim;
use crate::des::Des;
use crate::network::Interconnect;
use crate::node::{NodeRate, ResourceMode};
use crate::workload::WorkloadSpec;
use crate::BalanceMode;
use madness_faults::{draw, FaultAction, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
use madness_gpusim::SimTime;
use madness_runtime::{Batcher, TaskKind, TenantId};
use madness_trace::{BalanceKind, Event, Recorder, ServeEvent, ServeOutcome, Stage};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

mod survival;
use survival::{Ledger, Survival};

/// Operation id every serving request carries (requests are small Apply
/// invocations; the op identity is shared, kinds differ by tenant and
/// data shape).
pub const SERVE_OP_ID: u64 = 0x5E12;

/// Hard cap on generated requests per run — a mis-set rate cannot OOM
/// the generator; generation stops (and is reported) at the cap.
pub const MAX_REQUESTS: usize = 2_000_000;

// Distinct salts for the stateless splitmix draws (`madness_faults::draw`),
// one per decision stream, so reordering one stream can never perturb
// another; none equals a fault-injector salt.
const SALT_INTERARRIVAL: u64 = 0x5E12_AE01;
const SALT_THIN: u64 = 0x5E12_AE02;
const SALT_KIND: u64 = 0x5E12_AE03;
const SALT_HOME: u64 = 0x5E12_AE04;

/// Maps one uniform draw in `[0, 1]` onto a node index: scale and
/// *clamp*. The clamp (not a modulo) keeps a draw at the very top of
/// the unit interval — `u * n` rounding up to exactly `n` — on the
/// last node instead of silently wrapping it onto node 0, which would
/// bias placement toward node 0 for no physical reason.
fn home_index(u: f64, n: usize) -> usize {
    debug_assert!(n > 0, "cluster must have nodes");
    ((u * n as f64) as usize).min(n - 1)
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

/// The shape of one tenant's request-rate function λ(t), requests/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateProfile {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson {
        /// Requests per second.
        rate: f64,
    },
    /// Bursty on/off (interrupted Poisson): `rate_on` during the first
    /// `duty` fraction of each period, `rate_off` for the rest.
    OnOff {
        /// Requests per second while the source is on.
        rate_on: f64,
        /// Requests per second while the source is off.
        rate_off: f64,
        /// Length of one on+off cycle.
        period: SimTime,
        /// Fraction of the period spent on, in `[0, 1]`.
        duty: f64,
    },
    /// Diurnal: `base + amplitude · sin(2πt/period)`, floored at zero.
    Diurnal {
        /// Mean requests per second.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Length of one cycle.
        period: SimTime,
    },
}

impl RateProfile {
    /// Instantaneous rate λ(t), requests/s (never negative).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            RateProfile::Poisson { rate } => rate.max(0.0),
            RateProfile::OnOff {
                rate_on,
                rate_off,
                period,
                duty,
            } => {
                let p = period.as_nanos().max(1);
                let phase = (t.as_nanos() % p) as f64 / p as f64;
                if phase < duty.clamp(0.0, 1.0) {
                    rate_on.max(0.0)
                } else {
                    rate_off.max(0.0)
                }
            }
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let p = period.as_nanos().max(1);
                let phase = (t.as_nanos() % p) as f64 / p as f64;
                (base + amplitude * (2.0 * std::f64::consts::PI * phase).sin()).max(0.0)
            }
        }
    }

    /// Upper bound on λ(t) — the thinning envelope.
    pub fn peak_rate(&self) -> f64 {
        match *self {
            RateProfile::Poisson { rate } => rate.max(0.0),
            RateProfile::OnOff {
                rate_on, rate_off, ..
            } => rate_on.max(rate_off).max(0.0),
            RateProfile::Diurnal {
                base, amplitude, ..
            } => (base + amplitude.abs()).max(0.0),
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RateProfile::Poisson { .. } => "poisson",
            RateProfile::OnOff { .. } => "onoff",
            RateProfile::Diurnal { .. } => "diurnal",
        }
    }
}

/// One traffic source: identity, queueing weight, latency SLO, arrival
/// process, and the Apply fan-out of each request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant identity (tags every generated `TaskKind`).
    pub id: TenantId,
    /// Queueing weight: strict-priority dequeue and steal preference.
    /// Higher weight buys lower latency; must be positive.
    pub weight: f64,
    /// Per-request sojourn SLO (attainment = fraction under this).
    pub deadline: SimTime,
    /// Arrival process.
    pub profile: RateProfile,
    /// Apply tasks each request fans out into (small: a handful of
    /// (node × displacement) tasks, not a whole-tree batch job).
    pub tasks_per_request: u64,
}

/// What admission control does when the bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Bounce the incoming request ([`ServeOutcome::Rejected`]).
    RejectNew,
    /// Drop the oldest queued batch of the lowest-weight tenant to make
    /// room ([`ServeOutcome::Shed`] for its requests); falls back to
    /// rejecting when nothing is queued (everything already in
    /// service or still accumulating in a batcher).
    DropOldest,
}

impl ShedPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNew => "reject-new",
            ShedPolicy::DropOldest => "drop-oldest",
        }
    }
}

// ---------------------------------------------------------------------
// Survivable serving configuration
// ---------------------------------------------------------------------

/// Deadline-aware request hedging: once a request has been in the
/// system longer than its kind's latency budget, a duplicate attempt
/// is shipped to the least-loaded live node; the first completion wins
/// and the loser terminates as [`ServeOutcome::CancelledHedge`].
///
/// The budget is 3 × a per-kind tail-tracking EWMA of completion
/// sojourns (fast to rise, slow to decay, so one slow batch widens the
/// budget immediately but a lucky fast one does not collapse it),
/// floored at 2 ms, and a request is hedged at most once. The three
/// values are module constants: no caller ever set them, so the type
/// is a marker that turns hedging on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HedgeConfig {}

/// Overload brownout: when the completion-sojourn EWMA crosses the
/// tightest tenant deadline, every node switches to the reduced-rank
/// Apply rate (mean separated rank 8 through the
/// [`WorkloadSpec::rr_mean_rank`] calibration hook: cheaper, slightly
/// lossier results) *before* the [`ShedPolicy`] starts dropping whole
/// requests, and switches back once the EWMA falls under half that
/// deadline, so the controller does not flap. Rank and thresholds are
/// module constants; the type is a marker that turns brownout on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BrownoutConfig {}

/// The node-loss survival contract for
/// [`ClusterSim::run_served_survivable`]: which of the two optional
/// degradation modes run. Node-fault detection and recovery are not
/// configured here — they run whenever a plan schedules a
/// [`NodeFault`](madness_faults::NodeFault), on a 1 ms heartbeat.
///
/// The default config is **inert** when no plan schedules a node
/// fault: no heartbeats, hedges or brownout checks are ever scheduled,
/// and the run is bit-identical to [`ClusterSim::run_served`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SurvivalConfig {
    /// Hedged requests (off when `None`).
    pub hedge: Option<HedgeConfig>,
    /// Overload brownout (off when `None`).
    pub brownout: Option<BrownoutConfig>,
}

/// The serving workload contract: who sends traffic, to how many nodes,
/// for how long, under which admission bound.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shape of every Apply task behind the requests.
    pub spec: WorkloadSpec,
    /// The traffic sources.
    pub tenants: Vec<TenantSpec>,
    /// Compute nodes serving the traffic.
    pub nodes: usize,
    /// Seed for every stochastic decision (arrivals, thinning, kinds,
    /// home-node placement). The same seed replays bit-identically.
    pub seed: u64,
    /// Arrivals stop at this simulated instant; queued work drains.
    pub horizon: SimTime,
    /// Bound on requests in the system (admitted − completed − shed);
    /// an arrival that would exceed it triggers the shed policy.
    pub queue_capacity: usize,
    /// What to do at the bound.
    pub shed: ShedPolicy,
    /// Distinct data shapes per tenant (`data_hash ∈ [0, kinds)`);
    /// requests of different kinds never share a batch.
    pub kinds_per_tenant: u64,
}

/// One timestamped serving request, as generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Global arrival-order id (ties broken by tenant then draw order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Batch identity (op, data shape, tenant).
    pub kind: TaskKind,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Apply tasks this request fans out into.
    pub tasks: u64,
}

/// One tenant's thinned arrival stream, drawn lazily: Lewis–Shedler
/// thinning against the profile's peak-rate envelope, yielding each
/// kept `(arrival, draw index)` in that order until the horizon.
struct Arrivals<'a> {
    spec: &'a TenantSpec,
    peak: f64,
    seed: u64,
    horizon_s: f64,
    /// Seconds; the envelope process's clock.
    t: f64,
    /// Index of the next draw.
    i: u64,
}

/// Seed of `spec`'s decision streams (arrivals, thinning, kinds).
fn tenant_seed(cfg: &ServeConfig, spec: &TenantSpec) -> u64 {
    cfg.seed ^ (u64::from(spec.id.0)).rotate_left(32)
}

impl<'a> Arrivals<'a> {
    fn new(cfg: &ServeConfig, spec: &'a TenantSpec) -> Self {
        Arrivals {
            spec,
            peak: spec.profile.peak_rate(),
            seed: tenant_seed(cfg, spec),
            horizon_s: cfg.horizon.as_secs_f64(),
            t: 0.0,
            i: 0,
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = (SimTime, u64);

    fn next(&mut self) -> Option<(SimTime, u64)> {
        if self.peak <= 0.0 {
            return None;
        }
        loop {
            let i = self.i;
            let u = draw(self.seed, SALT_INTERARRIVAL, i);
            self.t += -(1.0 - u).ln() / self.peak;
            if self.t >= self.horizon_s {
                return None;
            }
            self.i += 1;
            let at = SimTime::from_secs_f64(self.t);
            if draw(self.seed, SALT_THIN, i) * self.peak <= self.spec.profile.rate_at(at) {
                return Some((at, i));
            }
        }
    }
}

/// Generates the full request trace for `cfg`: per-tenant Lewis–Shedler
/// thinning against each profile's peak-rate envelope, merged in
/// `(arrival, tenant, draw-index)` order and numbered globally.
/// Deterministic in `cfg.seed`; capped at [`MAX_REQUESTS`].
pub fn generate_requests(cfg: &ServeConfig) -> Vec<Request> {
    generate_capped(cfg, MAX_REQUESTS)
}

/// [`generate_requests`] under an explicit cap. Each tenant's stream is
/// already in `(arrival, draw)` order, so the trace is a merge of lazy
/// streams straight into the one output buffer — no per-tenant runs, no
/// sort. The cap is filled in configuration order (a first pass counts
/// each tenant's share; the draws are cheap and stateless).
fn generate_capped(cfg: &ServeConfig, cap: usize) -> Vec<Request> {
    let mut left = cap;
    let mut streams: Vec<_> = cfg
        .tenants
        .iter()
        .map(|spec| {
            let share = Arrivals::new(cfg, spec).take(left).count();
            left -= share;
            Arrivals::new(cfg, spec).take(share).peekable()
        })
        .collect();
    let mut out = Vec::with_capacity(cap - left);
    loop {
        let heads = streams.iter_mut().enumerate();
        let next = heads
            .filter_map(|(k, s)| s.peek().map(|&(at, i)| (at, cfg.tenants[k].id, i, k)))
            .min();
        let Some((at, _, i, k)) = next else {
            return out;
        };
        streams[k].next();
        let spec = &cfg.tenants[k];
        let shape = draw(tenant_seed(cfg, spec), SALT_KIND, i) * cfg.kinds_per_tenant.max(1) as f64;
        out.push(Request {
            id: out.len() as u64,
            tenant: spec.id,
            kind: TaskKind::for_tenant(SERVE_OP_ID, shape as u64, spec.id),
            arrival: at,
            tasks: spec.tasks_per_request.max(1),
        });
    }
}

// ---------------------------------------------------------------------
// Percentile sink
// ---------------------------------------------------------------------

/// Exact latency percentiles over one completion population.
///
/// Percentiles are **nearest-rank** over the sorted sojourn times
/// (`idx = ⌈q·n⌉ − 1`): exact order statistics, no interpolation, so a
/// replayed run reproduces them bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completions aggregated.
    pub count: u64,
    /// Median sojourn.
    pub p50: SimTime,
    /// 99th-percentile sojourn.
    pub p99: SimTime,
    /// 99.9th-percentile sojourn.
    pub p999: SimTime,
    /// Worst sojourn.
    pub max: SimTime,
    /// Mean sojourn.
    pub mean: SimTime,
}

impl LatencyStats {
    /// Aggregates a (not necessarily sorted) population of sojourn
    /// times. Empty input yields the all-zero stats.
    pub fn from_sojourns(mut ns: Vec<u64>) -> LatencyStats {
        let n = ns.len();
        if n == 0 {
            return LatencyStats::default();
        }
        let (max, sum) = ns.iter().fold((0, 0), |(m, s), &x| (x.max(m), s + x));
        // Three order statistics do not need a sort: select the highest
        // rank, then each lower one within the prefix that selection
        // left at or below it.
        let mut below = n;
        let mut rank = |q: f64| -> SimTime {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            let (_, &mut at, _) = ns[..below].select_nth_unstable(idx);
            below = idx + 1;
            SimTime::from_nanos(at)
        };
        let (p999, p99, p50) = (rank(0.999), rank(0.99), rank(0.50));
        LatencyStats {
            count: n as u64,
            p50,
            p99,
            p999,
            max: SimTime::from_nanos(max),
            mean: SimTime::from_nanos((sum as f64 / n as f64).round() as u64),
        }
    }
}

/// One tenant's serving outcome: admission accounting, SLO attainment,
/// and the latency distribution of its completions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantReport {
    /// Tenant identity.
    pub tenant: TenantId,
    /// Requests the generator produced for this tenant.
    pub generated: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests bounced at admission.
    pub rejected: u64,
    /// Requests shed from a queue after admission.
    pub shed: u64,
    /// Completions whose sojourn met the tenant's deadline.
    pub slo_met: u64,
    /// `slo_met / generated` — rejections and sheds count as misses
    /// (1.0 when the tenant generated nothing).
    pub slo_attainment: f64,
    /// Latency distribution over the completions.
    pub latency: LatencyStats,
}

/// Per-`TaskKind` latency distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KindLatency {
    /// The batch identity.
    pub kind: TaskKind,
    /// Latency distribution over the kind's completions.
    pub latency: LatencyStats,
}

/// Outcome of one serving run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests generated (== completed + rejected + shed).
    pub generated: u64,
    /// Requests admitted past the boundary queue.
    pub admitted: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests bounced at admission.
    pub rejected: u64,
    /// Requests shed after admission.
    pub shed: u64,
    /// Arrival horizon of the run.
    pub horizon: SimTime,
    /// When the last completion landed (the drain tail past the
    /// horizon).
    pub makespan: SimTime,
    /// Latency distribution over every completion.
    pub overall: LatencyStats,
    /// Per-tenant outcomes, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// Per-kind latency, in `TaskKind` order.
    pub kinds: Vec<KindLatency>,
    /// Committed steals.
    pub steals: u64,
    /// Steal attempts deferred by the in-flight cap.
    pub blocked_steals: u64,
    /// Tasks migrated between nodes.
    pub migrated_tasks: u64,
    /// Bytes those migrations put on the interconnect.
    pub migrated_bytes: u64,
    /// Aggregate wire time of the migrations.
    pub migration_wire: SimTime,
    /// Duplicate attempts launched (client hedges plus re-executions of
    /// work frozen behind a partition the cluster declared dead).
    pub hedges_launched: u64,
    /// Attempt copies that terminated without being the winning
    /// completion: their request had already completed elsewhere, they
    /// were shed while a sibling copy survived, or they were lost with
    /// a crashed node while another copy lived on.
    pub cancelled_hedges: u64,
    /// Requests re-executed from the lineage checkpoint after a node
    /// loss (relocations of sole copies plus partition duplicates).
    pub recovered_requests: u64,
    /// Node crashes injected by the fault plans.
    pub node_crashes: u64,
    /// Node readmissions: rejoin after a crash, or a partition healing
    /// after the cluster had declared the node dead.
    pub rejoins: u64,
    /// Circuit-breaker trips across every (tenant, node) pair.
    pub breaker_trips: u64,
    /// Times the brownout controller engaged.
    pub brownout_engagements: u64,
    /// Tasks served at the reduced-rank (browned-out) rate.
    pub degraded_tasks: u64,
}

impl ServeReport {
    /// The admission conservation law: every attempt — one per
    /// generated request plus one per launched hedge — leaves the
    /// system exactly once. With survival features off it reduces to
    /// the classic `completed + rejected + shed == generated`.
    pub fn conserved(&self) -> bool {
        self.completed + self.rejected + self.shed + self.cancelled_hedges
            == self.generated + self.hedges_launched
    }

    /// The report row for `tenant`, if it generated any traffic.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

// ---------------------------------------------------------------------
// The serving DES
// ---------------------------------------------------------------------

/// A flushed batch waiting in a node's ready queue (or in flight during
/// a migration).
#[derive(Clone, Debug)]
struct ReadyBatch {
    weight: f64,
    reqs: Vec<Request>,
    tasks: u64,
    ready_at: SimTime,
    /// Flush sequence, unique per batch (minted by `new_batch`, the
    /// only constructor) — what makes `priority` a total order.
    seq: u64,
    /// Stamp of the push that put it on its current queue: the heap
    /// forgets arrival order, and the repartition epoch moves the most
    /// recently *pushed* batch.
    pushed: u64,
}

impl ReadyBatch {
    /// FIFO within a weight class: ready time, then flush sequence.
    fn fifo(&self, other: &Self) -> Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }

    /// Service priority — dequeue and steal order: highest tenant
    /// weight first, FIFO within a weight class. (Shedding takes the
    /// *lowest* weight first, over the same FIFO.)
    fn priority(&self, other: &Self) -> Ordering {
        other.weight.total_cmp(&self.weight).then(self.fifo(other))
    }

    /// Shed order as a key, lowest shed first: tenant weight, then
    /// [`ReadyBatch::fifo`]; `seq` makes it unique. A weight is positive
    /// (tenant weights are floored at `f64::MIN_POSITIVE`, unknown
    /// tenants weigh 1), and positive floats' bits order as their values.
    fn shed_key(&self) -> ShedKey {
        debug_assert!(self.weight > 0.0, "weight {} is not positive", self.weight);
        (self.weight.to_bits(), self.ready_at, self.seq)
    }
}

/// A queued batch's place in [`ServeCluster::shed_index`].
type ShedKey = (u64, SimTime, u64);

/// `Ord` is [`ReadyBatch::priority`] seen from a max-heap: the greatest
/// batch is the next one served.
impl Ord for ReadyBatch {
    fn cmp(&self, other: &Self) -> Ordering {
        other.priority(self)
    }
}

impl PartialOrd for ReadyBatch {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ReadyBatch {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ReadyBatch {}

/// The batch a node is currently executing.
#[derive(Clone, Debug)]
struct Serving {
    batch: ReadyBatch,
    start: SimTime,
}

struct ServeNode {
    rate: NodeRate,
    batcher: Batcher<Request>,
    /// Flushed batches awaiting service, a heap in service order.
    /// Written only by [`ServeCluster::push_ready`] /
    /// [`ServeCluster::take_ready`] (and cleared by a crash), which keep
    /// `ready_tasks`, the cluster's backlog index and its shed index in
    /// step with it.
    ready: BinaryHeap<ReadyBatch>,
    /// Tasks across `ready`, so `est` does not re-sum the queue for
    /// every steal candidate.
    ready_tasks: u64,
    serving: Option<Serving>,
    /// When the batch in service completes; `startup` while cold.
    busy_until: SimTime,
    /// One inbound steal at a time.
    awaiting: bool,
    /// Host is running (false between a crash and its rejoin).
    up: bool,
    /// Host can exchange messages (false while partitioned).
    reachable: bool,
    /// The cluster has declared this node dead (missed-beat detection).
    declared_dead: bool,
    /// Bumped on every crash; fences stale `BatchDone` events so a
    /// rejoined node cannot complete a batch the crash already lost.
    gen: u32,
    /// Completions computed behind a partition, buffered until heal
    /// delivers them (or a crash loses them): `(request, start)`.
    fenced: Vec<(Request, SimTime)>,
}

impl ServeNode {
    /// Estimated absolute finish of everything queued here.
    fn est(&self, now: SimTime) -> SimTime {
        debug_assert_eq!(
            self.ready_tasks,
            self.ready.iter().map(|b| b.tasks).sum::<u64>(),
            "ready_tasks drifted from the ready queue"
        );
        self.busy_until.max(now) + self.rate.per_task * self.ready_tasks
    }
}

/// Heap events. Arrivals are not among them: they stream from the
/// arrival-sorted request trace (see [`ServeCluster::run`]).
enum Ev {
    /// The timer of a batch a push opened in `node`'s batcher: one per
    /// opened batch, since a kind ages from its oldest push. Sweeps the
    /// whole batcher, flushing every kind that has expired.
    FlushTimer(usize),
    /// The batch in service on `node` completed. `gen` fences
    /// completions that a crash invalidated (always 0 without faults).
    BatchDone { node: usize, gen: u32 },
    /// Stolen/repartitioned/recovered batches land on `to`. `steal`
    /// marks batches that occupy a steal in-flight slot.
    Migrated {
        to: usize,
        batches: Vec<ReadyBatch>,
        steal: bool,
    },
    /// Arrivals are over: drain every batcher.
    Drain,
    /// Repartition sync point.
    Epoch,
    /// A planned node crash fires.
    NodeCrash(usize),
    /// A planned partition starts.
    NodePartition(usize),
    /// A partition heals.
    NodeHeal(usize),
    /// A crashed node rejoins, cold.
    NodeRejoin(usize),
    /// Survival heartbeat: checkpoint the lineage ledger and count
    /// missed beats.
    Heartbeat,
    /// A request's latency budget expired: consider hedging it.
    HedgeCheck { req: usize },
}

/// Run state behind one [`ServeReport::tenants`] row.
struct TenantRow {
    weight: f64,
    deadline: SimTime,
    /// Completion sojourns, ns.
    sojourns: Vec<u64>,
}

/// Run state behind one [`ServeReport::kinds`] row, which is also the
/// kind's hedge budget. A row is born at the kind's first completion.
struct KindRow {
    kind: TaskKind,
    /// Completion sojourns, ns.
    sojourns: Vec<u64>,
    /// Tail-tracking sojourn EWMA (ns) behind the hedge budget; it moves
    /// only while hedging is on, and only then is it read.
    ewma: f64,
}

struct ServeCluster<'a, R: Recorder> {
    nodes: Vec<ServeNode>,
    des: Des<Ev>,
    /// The fabric, and the migration ledger the report's `migrated_*`
    /// fields are read from.
    net: Interconnect,
    requests: &'a [Request],
    mode: BalanceMode,
    bytes_per_task: u64,
    queue_capacity: usize,
    shed_policy: ShedPolicy,
    timer: SimTime,
    seed: u64,
    inflight: usize,
    seq: u64,
    /// Push stamps handed out so far (see [`ReadyBatch::pushed`]).
    pushes: u64,
    /// Bitset over the nodes: bit `j` is set iff `nodes[j].ready` is
    /// non-empty — the only nodes a steal or a shed can take from.
    backlog: Vec<u64>,
    /// Bitset over the nodes: bit `j` is set iff node `j` serves
    /// nothing, queues nothing and awaits no steal — the only nodes a
    /// freed steal slot can wake. Kept by [`ServeCluster::mark_idle`]
    /// wherever `serving`, `ready` or `awaiting` changes.
    idle: Vec<u64>,
    /// Under [`ShedPolicy::DropOldest`] (`None` otherwise): every queued
    /// batch across the cluster in shed order, keyed
    /// [`ReadyBatch::shed_key`] → its node. A shed takes the first entry
    /// on a balanceable node instead of scanning every queue. Kept by
    /// the writers of `ready`; a `RejectNew` run never sheds, so it
    /// pays nothing for it.
    shed_index: Option<BTreeMap<ShedKey, usize>>,
    /// The report the run returns, tallied as outcomes happen. Its
    /// `tenants` rows exist from the start, in tenant-id order.
    report: ServeReport,
    /// One per `report.tenants` row.
    tenants: Vec<TenantRow>,
    /// One row per kind that has completed a request, sorted by kind.
    kinds: Vec<KindRow>,
    surv: Survival,
    rec: &'a mut R,
}

impl<R: Recorder> ServeCluster<'_, R> {
    /// `tenant`'s row in `report.tenants` / `tenants`.
    fn row(&self, tenant: TenantId) -> Option<usize> {
        self.report.tenants.iter().position(|t| t.tenant == tenant)
    }

    fn weight_of(&self, tenant: TenantId) -> f64 {
        self.row(tenant).map_or(1.0, |i| self.tenants[i].weight)
    }

    /// Requests currently occupying the bounded queue: admitted but
    /// not yet completed or shed. (Rejections never occupied a slot,
    /// and a cancelled copy never frees one: its request departs with
    /// the winning copy.)
    fn in_system(&self) -> usize {
        let r = &self.report;
        debug_assert!(
            r.completed + r.shed <= r.admitted,
            "more requests completed or shed than were admitted: {} + {} > {}",
            r.completed,
            r.shed,
            r.admitted
        );
        (r.admitted - r.completed - r.shed) as usize
    }

    /// Journals one attempt copy's outcome and tallies it into the
    /// report — the only place outcomes are counted.
    fn record(&mut self, req: &Request, started: SimTime, finished: SimTime, out: ServeOutcome) {
        if R::ENABLED {
            self.rec.record(Event::Serve(ServeEvent {
                tenant: req.tenant.0,
                op: req.kind.op,
                data_hash: req.kind.data_hash,
                tasks: req.tasks,
                arrived_ns: req.arrival.as_nanos(),
                started_ns: started.as_nanos(),
                finished_ns: finished.as_nanos(),
                outcome: out,
            }));
            if out == ServeOutcome::Completed {
                self.rec.span(
                    Stage::Sojourn,
                    req.arrival.as_nanos(),
                    finished.as_nanos(),
                    req.tenant.0,
                );
            }
            self.rec.record(Event::Count(
                match out {
                    ServeOutcome::Completed => "serve_completed",
                    ServeOutcome::Rejected => "serve_rejected",
                    ServeOutcome::Shed => "serve_shed",
                    ServeOutcome::CancelledHedge => "serve_cancelled_hedge",
                },
                1,
            ));
        }
        self.report.makespan = self.report.makespan.max(finished);
        if out == ServeOutcome::CancelledHedge {
            // A losing attempt copy, not a request: it must not
            // inflate any tenant's generated/latency accounting.
            self.report.cancelled_hedges += 1;
            return;
        }
        let row = self.row(req.tenant).expect("outcome from unknown tenant");
        let tenant = &mut self.report.tenants[row];
        tenant.generated += 1;
        match out {
            ServeOutcome::Completed => {
                let sojourn = finished.saturating_sub(req.arrival);
                self.report.completed += 1;
                tenant.completed += 1;
                if sojourn <= self.tenants[row].deadline {
                    tenant.slo_met += 1;
                }
                let ns = sojourn.as_nanos();
                self.tenants[row].sojourns.push(ns);
                let k = self.kind_row(req.kind).unwrap_or_else(|k| {
                    let row = KindRow {
                        kind: req.kind,
                        sojourns: Vec::new(),
                        ewma: ns as f64,
                    };
                    self.kinds.insert(k, row);
                    k
                });
                self.kinds[k].sojourns.push(ns);
                self.observe_sojourn(k, ns);
            }
            ServeOutcome::Rejected => {
                self.report.rejected += 1;
                tenant.rejected += 1;
            }
            ServeOutcome::Shed => {
                self.report.shed += 1;
                tenant.shed += 1;
            }
            ServeOutcome::CancelledHedge => unreachable!("returned above"),
        }
    }

    /// `kind`'s index in `kinds`, or where its row would go.
    fn kind_row(&self, kind: TaskKind) -> Result<usize, usize> {
        self.kinds.binary_search_by_key(&kind, |row| row.kind)
    }

    /// Journals a survival fault event.
    fn fault(&mut self, kind: FaultKind, action: FaultAction, now: SimTime, tasks: u64) {
        if R::ENABLED {
            self.rec.record(Event::Fault(FaultEvent {
                kind,
                action,
                at_ns: now.as_nanos(),
                tasks,
            }));
        }
    }

    /// Whether `i` can take part in balancing, routing and recovery:
    /// running, reachable, and not declared dead. True for every node
    /// unless a planned node fault has fired.
    fn can_balance(&self, i: usize) -> bool {
        let n = &self.nodes[i];
        n.up && n.reachable && !n.declared_dead
    }

    /// The balanceable node other than `except` with the earliest
    /// estimated finish (ties to the lowest index).
    fn least_loaded_survivor(&self, except: usize, now: SimTime) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&j| j != except && self.can_balance(j))
            .min_by_key(|&j| self.nodes[j].est(now))
    }

    /// Deterministic home node: requests follow their data. The home is
    /// a splitmix hash of the `TaskKind` — the node that owns that
    /// function's coefficients — so every request of a kind lands on
    /// one node and hot kinds create hot nodes. That is the MADNESS
    /// affinity story, it keeps batches coalescing, and it is the
    /// placement skew the stealing mode exists to fix. Identical in
    /// every balance mode, so mode comparisons see the same placement.
    fn home(&self, req: &Request) -> usize {
        let key = req.kind.op
            ^ req.kind.data_hash.rotate_left(24)
            ^ u64::from(req.kind.tenant.0).rotate_left(48);
        home_index(draw(self.seed, SALT_HOME, key), self.nodes.len())
    }

    fn arrival(&mut self, idx: usize, now: SimTime) {
        let req = self.requests[idx];
        if self.in_system() >= self.queue_capacity.max(1) {
            self.overloaded();
            match self.shed_policy {
                ShedPolicy::RejectNew => {
                    self.record(&req, now, now, ServeOutcome::Rejected);
                    return;
                }
                ShedPolicy::DropOldest => {
                    if !self.shed_oldest(now) {
                        self.record(&req, now, now, ServeOutcome::Rejected);
                        return;
                    }
                }
            }
        }
        self.report.admitted += 1;
        let Some(target) = self.route(idx, now) else {
            return;
        };
        let batcher = &mut self.nodes[target].batcher;
        let kinds = batcher.pending_kinds();
        if let Some((_, reqs)) = batcher.push_at(req.kind, req, now) {
            self.enqueue_ready(target, reqs, now);
            self.maybe_start(target, now);
        } else if batcher.pending_kinds() > kinds {
            // The push opened its kind (a count, not a second search for
            // the kind): start the kind's timer. `flush_expired` ages a
            // kind from its oldest push, so no later push's timer could
            // flush it any earlier. With
            // `timer == ZERO` this lands in the same tick and flushes
            // the push immediately; `flush_expired` removes what it
            // flushes, so the timer of a kind flushed by size in the
            // meantime is a no-op (the pinned no-double-flush semantics).
            self.des.schedule(now + self.timer, Ev::FlushTimer(target));
        }
    }

    /// Queues `batch` for service on `node`.
    fn push_ready(&mut self, node: usize, mut batch: ReadyBatch) {
        batch.pushed = self.pushes;
        self.pushes += 1;
        if let Some(index) = &mut self.shed_index {
            index.insert(batch.shed_key(), node);
        }
        let n = &mut self.nodes[node];
        n.ready_tasks += batch.tasks;
        n.ready.push(batch);
        self.backlog[node / 64] |= 1 << (node % 64);
        self.mark_idle(node);
    }

    /// Re-derives `node`'s bit in `idle` from its state.
    fn mark_idle(&mut self, node: usize) {
        let n = &self.nodes[node];
        let bit = 1 << (node % 64);
        if n.serving.is_none() && n.ready.is_empty() && !n.awaiting {
            self.idle[node / 64] |= bit;
        } else {
            self.idle[node / 64] &= !bit;
        }
    }

    /// Takes one batch off `node`'s ready queue: the next in service
    /// order, or (`Some(seq)`) the queued batch with that flush
    /// sequence. `None` when the queue is empty.
    fn take_ready(&mut self, node: usize, seq: Option<u64>) -> Option<ReadyBatch> {
        let n = &mut self.nodes[node];
        let batch = match seq {
            None => {
                #[cfg(debug_assertions)]
                let scanned = n.ready.iter().min_by(|a, b| a.priority(b)).map(|b| b.seq);
                let head = n.ready.pop();
                #[cfg(debug_assertions)]
                assert_eq!(
                    head.as_ref().map(|b| b.seq),
                    scanned,
                    "the heap's head is not the priority scan's"
                );
                head?
            }
            Some(seq) => {
                let mut queue = std::mem::take(&mut n.ready).into_vec();
                let at = queue.iter().position(|b| b.seq == seq);
                let batch = queue.swap_remove(at.expect("take_ready names a queued batch"));
                n.ready = queue.into();
                batch
            }
        };
        n.ready_tasks -= batch.tasks;
        if n.ready.is_empty() {
            self.backlog[node / 64] &= !(1 << (node % 64));
        }
        if let Some(index) = &mut self.shed_index {
            index.remove(&batch.shed_key());
        }
        self.mark_idle(node);
        Some(batch)
    }

    /// The nodes with a non-empty ready queue, ascending.
    fn backlogged(&self) -> impl Iterator<Item = usize> + '_ {
        self.backlog.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&m| {
                Some(m & (m - 1)).filter(|&rest| rest != 0)
            })
            .map(move |m| w * 64 + m.trailing_zeros() as usize)
        })
    }

    /// Sheds the oldest ready batch of the lowest-weight tenant across
    /// the cluster (a dead node's queue cannot be reached into): the
    /// first entry of the shed index on a balanceable node. Returns
    /// false when nothing is queued to shed.
    fn shed_oldest(&mut self, now: SimTime) -> bool {
        let index = self
            .shed_index
            .as_ref()
            .expect("DropOldest keeps a shed index");
        let pick = index
            .iter()
            .find(|&(_, &ni)| self.can_balance(ni))
            .map(|(&(_, _, seq), &ni)| (ni, seq));
        #[cfg(debug_assertions)]
        assert_eq!(
            pick,
            self.scan_shed(),
            "the shed index and the all-queues scan disagree on the victim"
        );
        let Some((ni, seq)) = pick else { return false };
        let batch = self.take_ready(ni, Some(seq)).expect("just picked");
        self.copy_removed(ni, &batch.reqs);
        for req in &batch.reqs {
            self.shed_copy(req, now);
        }
        true
    }

    /// A batch of same-kind requests, ready at `now`, at its tenant's
    /// weight.
    fn new_batch(&mut self, reqs: Vec<Request>, now: SimTime) -> ReadyBatch {
        let seq = self.seq;
        self.seq += 1;
        ReadyBatch {
            weight: self.weight_of(reqs[0].kind.tenant),
            tasks: reqs.iter().map(|r| r.tasks).sum(),
            reqs,
            ready_at: now,
            seq,
            pushed: 0,
        }
    }

    fn enqueue_ready(&mut self, node: usize, reqs: Vec<Request>, now: SimTime) {
        let batch = self.new_batch(reqs, now);
        self.push_ready(node, batch);
    }

    fn maybe_start(&mut self, node: usize, now: SimTime) {
        if !self.nodes[node].up || self.nodes[node].serving.is_some() {
            return;
        }
        // Strict-priority dequeue.
        let Some(batch) = self.take_ready(node, None) else {
            return;
        };
        let per_task = self.service_rate(node, batch.tasks);
        let n = &mut self.nodes[node];
        let start = now.max(n.busy_until);
        let end = start + per_task * batch.tasks;
        n.busy_until = end;
        let gen = n.gen;
        n.serving = Some(Serving { batch, start });
        self.mark_idle(node);
        self.des.schedule(end, Ev::BatchDone { node, gen });
    }

    fn batch_done(&mut self, node: usize, now: SimTime) {
        let Some(Serving { batch, start }) = self.nodes[node].serving.take() else {
            return;
        };
        self.mark_idle(node);
        if !self.nodes[node].reachable {
            // Partitioned: the batch really ran, but its results cannot
            // reach anyone. Buffer them for delivery at heal (or loss
            // at a crash); the lineage ledger keeps the requests
            // resident meanwhile, and the node keeps chewing its queue.
            for req in batch.reqs {
                self.nodes[node].fenced.push((req, start));
            }
            self.maybe_start(node, now);
            return;
        }
        for req in &batch.reqs {
            self.deliver(node, req, start, now);
        }
        self.maybe_start(node, now);
        if self.nodes[node].serving.is_none() {
            self.try_steal(node, now);
        }
    }

    /// The in-flight steal cap, if this run steals at all.
    fn steal_cap(&self) -> Option<usize> {
        match self.mode {
            BalanceMode::Steal { max_inflight, .. } => Some(max_inflight.max(1)),
            _ => None,
        }
    }

    /// A steal attempt by drained `thief`: same profit guard as the
    /// balance DES (thief's finish including wire time must not exceed
    /// the victim's pre-steal estimate), but batch selection honors
    /// tenant weights — the highest-weight batches migrate first, so a
    /// weighty tenant's backlog is the first to find idle capacity.
    fn try_steal(&mut self, thief: usize, now: SimTime) {
        let Some(cap) = self.steal_cap() else {
            return;
        };
        if self.nodes[thief].awaiting
            || self.nodes[thief].serving.is_some()
            || !self.nodes[thief].ready.is_empty()
            || !self.can_balance(thief)
        {
            return;
        }
        if self.inflight >= cap {
            self.report.blocked_steals += 1;
            return;
        }
        // Victim: largest ready backlog (ties to the lowest index). Only
        // a backlogged node can be one, and the thief is not backlogged.
        let mut victim: Option<(usize, SimTime)> = None;
        for j in self.backlogged().filter(|&j| self.can_balance(j)) {
            let est = self.nodes[j].est(now);
            if victim.is_none_or(|(_, most)| est > most) {
                victim = Some((j, est));
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            victim.map(|(v, _)| v),
            self.scan_victim(thief, now),
            "the backlog index and the all-nodes scan disagree on the victim"
        );
        let Some((v, victim_est)) = victim else {
            return;
        };
        // Steal half the ready batches, highest tenant weight first.
        let mut order: Vec<&ReadyBatch> = self.nodes[v].ready.iter().collect();
        order.sort_unstable_by(|a, b| a.priority(b));
        let take = order.len().div_ceil(2);
        for take in [take, 1] {
            let tasks: u64 = order[..take].iter().map(|b| b.tasks).sum();
            if tasks == 0 {
                return;
            }
            let (_, arrive) = self.net.quote(now, tasks, self.bytes_per_task);
            let t = &self.nodes[thief];
            let thief_est = t.busy_until.max(arrive) + t.rate.per_task * tasks;
            if thief_est <= victim_est {
                // The heap hands them over in the same priority order.
                let batches: Vec<ReadyBatch> =
                    (0..take).map_while(|_| self.take_ready(v, None)).collect();
                debug_assert_eq!(batches.iter().map(|b| b.tasks).sum::<u64>(), tasks);
                for b in &batches {
                    self.copy_removed(v, &b.reqs);
                }
                debug_assert!(
                    self.nodes[v].serving.is_some(),
                    "a steal left its victim idle"
                );
                self.nodes[thief].awaiting = true;
                self.mark_idle(thief);
                self.inflight += 1;
                self.report.steals += 1;
                let booked = self.ship(thief, batches, Some((BalanceKind::Steal, v)), now);
                debug_assert_eq!(booked, arrive, "the quote must be what gets booked");
                return;
            }
            if take == 1 {
                break;
            }
        }
    }

    /// Repartition sync point: greedily move ready batches from the
    /// most- to the least-loaded node while each move closes more of
    /// the estimated-finish gap than it costs at the destination.
    /// Moved work is counted toward the destination's estimate
    /// immediately so the loop converges instead of over-draining.
    fn epoch(&mut self, now: SimTime) {
        let BalanceMode::Repartition { .. } = self.mode else {
            return;
        };
        let n = self.nodes.len();
        let elig: Vec<usize> = (0..n).filter(|&i| self.can_balance(i)).collect();
        if elig.len() < 2 {
            return;
        }
        let mut extra = vec![0u64; n]; // tasks virtually in flight to i
        let est = |nodes: &[ServeNode], extra: &[u64], i: usize| {
            nodes[i].est(now) + nodes[i].rate.per_task * extra[i]
        };
        let mut moves: Vec<(usize, usize, ReadyBatch)> = Vec::new();
        loop {
            let (mut hi, mut lo) = (elig[0], elig[0]);
            for &i in &elig[1..] {
                if est(&self.nodes, &extra, i) > est(&self.nodes, &extra, hi) {
                    hi = i;
                }
                if est(&self.nodes, &extra, i) < est(&self.nodes, &extra, lo) {
                    lo = i;
                }
            }
            if hi == lo || self.nodes[hi].ready.is_empty() {
                break;
            }
            let gap = est(&self.nodes, &extra, hi).saturating_sub(est(&self.nodes, &extra, lo));
            // The candidate is the batch pushed onto `hi` last.
            let queue = self.nodes[hi].ready.iter();
            let last = queue.max_by_key(|b| b.pushed).expect("checked non-empty");
            let cost = self.nodes[lo].rate.per_task * last.tasks;
            if gap <= cost {
                break;
            }
            let batch = self.take_ready(hi, Some(last.seq)).expect("just picked");
            extra[lo] += batch.tasks;
            moves.push((hi, lo, batch));
        }
        for (from, to, batch) in moves {
            self.copy_removed(from, &batch.reqs);
            self.ship(to, vec![batch], Some((BalanceKind::Repartition, from)), now);
        }
    }

    /// Puts `batches` on the wire to `to` at `now` and schedules their
    /// landing; returns the arrival time. A load-balancing move names
    /// its `(kind, source)` and is journaled by the interconnect as a
    /// [`Stage::Migrate`] span plus a balance event; a re-execution
    /// (recovery batch or hedge, `None`) occupies the same links under
    /// a [`Stage::Recover`] span. Only steals hold an in-flight slot.
    fn ship(
        &mut self,
        to: usize,
        batches: Vec<ReadyBatch>,
        balance: Option<(BalanceKind, usize)>,
        now: SimTime,
    ) -> SimTime {
        let tasks = batches.iter().map(|b| b.tasks).sum();
        let arrive = match balance {
            Some((kind, from)) => self.net.migrate_recorded(
                self.rec,
                kind,
                (from, to),
                tasks,
                self.bytes_per_task,
                now,
            ),
            None => {
                let (lane, start, arrive) = self.net.migrate(now, tasks, self.bytes_per_task);
                if R::ENABLED {
                    self.rec.span(
                        Stage::Recover,
                        start.as_nanos(),
                        arrive.as_nanos(),
                        lane as u32,
                    );
                }
                arrive
            }
        };
        let steal = matches!(balance, Some((BalanceKind::Steal, _)));
        self.des
            .schedule(arrive, Ev::Migrated { to, batches, steal });
        arrive
    }

    /// Land a migration (steal, epoch move, recovery batch, or hedge).
    ///
    /// Only steal migrations carry an in-flight slot / `awaiting` flag to
    /// release. If the destination died while the batch was on the wire,
    /// re-aim it at the least-loaded balanceable survivor — wire time was
    /// already paid, so landing is free. Then every idle node other than
    /// the destination may try to steal, in ascending order, read off
    /// the `idle` index; once a slot is free and nothing is queued the
    /// walk stops.
    fn migrated(&mut self, to: usize, batches: Vec<ReadyBatch>, steal: bool, now: SimTime) {
        if steal {
            debug_assert!(self.inflight > 0, "a steal landed without a slot");
            self.inflight -= 1;
            self.nodes[to].awaiting = false;
            self.mark_idle(to);
        }
        let dst = if self.can_balance(to) {
            to
        } else {
            // No survivor: land it anyway; a later declare-dead pass
            // re-executes from the ledger.
            self.least_loaded_survivor(to, now).unwrap_or(to)
        };
        for batch in batches {
            self.copy_added(dst, &batch.reqs);
            self.push_ready(dst, batch);
        }
        self.maybe_start(dst, now);
        // A freed in-flight slot may unblock the idle thieves, ascending.
        // A steal makes only its thief busy (its victim keeps serving),
        // never another node idle, so each word of the set can be read
        // once.
        let Some(cap) = self.steal_cap() else {
            return;
        };
        for w in 0..self.idle.len() {
            let mut word = self.idle[w];
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if i == dst {
                    continue;
                }
                if self.inflight < cap && self.backlog.iter().all(|&bits| bits == 0) {
                    // Nothing is queued (any more: a steal may have taken
                    // the last batch), so no thief left can find a
                    // victim, and none is blocked.
                    return;
                }
                self.try_steal(i, now);
            }
        }
    }

    /// Drives the run: the arrival-sorted request trace is merged with
    /// the event heap instead of being loaded into it, so the heap only
    /// ever holds live events. An arrival wins a timestamp tie — the
    /// order the pre-loaded arrivals had, holding the lowest sequence
    /// numbers.
    fn run(&mut self) {
        let mut next = 0;
        loop {
            if let Some(req) = self.requests.get(next) {
                if self.des.peek().is_none_or(|t| req.arrival <= t) {
                    self.des.advance_to(req.arrival);
                    self.arrival(next, req.arrival);
                    next += 1;
                    continue;
                }
            }
            let Some((now, ev)) = self.des.pop() else {
                break;
            };
            match ev {
                Ev::FlushTimer(node) => {
                    for (_, reqs) in self.nodes[node].batcher.flush_expired(now) {
                        self.enqueue_ready(node, reqs, now);
                    }
                    self.maybe_start(node, now);
                }
                Ev::BatchDone { node, gen } => {
                    if self.nodes[node].gen == gen {
                        self.batch_done(node, now);
                    }
                }
                Ev::Migrated { to, batches, steal } => self.migrated(to, batches, steal, now),
                Ev::Drain => {
                    for node in 0..self.nodes.len() {
                        for (_, reqs) in self.nodes[node].batcher.drain() {
                            self.enqueue_ready(node, reqs, now);
                        }
                        self.maybe_start(node, now);
                    }
                }
                Ev::Epoch => self.epoch(now),
                Ev::NodeCrash(node) => self.node_crash(node, now),
                Ev::NodePartition(node) => self.node_partition(node, now),
                Ev::NodeHeal(node) => self.node_heal(node, now),
                Ev::NodeRejoin(node) => self.node_rejoin(node, now),
                Ev::Heartbeat => self.heartbeat(now),
                Ev::HedgeCheck { req } => self.hedge_check(req, now),
            }
        }
    }

    /// Closes the tallied report: percentiles over the collected
    /// sojourns, and the migration ledger read off the interconnect.
    fn into_report(self) -> ServeReport {
        let mut report = self.report;
        let mut all = Vec::with_capacity(report.completed as usize);
        for (row, state) in report.tenants.iter_mut().zip(self.tenants) {
            row.slo_attainment = if row.generated == 0 {
                1.0
            } else {
                row.slo_met as f64 / row.generated as f64
            };
            all.extend_from_slice(&state.sojourns);
            row.latency = LatencyStats::from_sojourns(state.sojourns);
        }
        report.overall = LatencyStats::from_sojourns(all);
        report.kinds = self
            .kinds
            .into_iter()
            .map(|row| KindLatency {
                kind: row.kind,
                latency: LatencyStats::from_sojourns(row.sojourns),
            })
            .collect();
        report.migrated_tasks = self.net.tasks_moved();
        report.migrated_bytes = self.net.bytes_moved();
        report.migration_wire = self.net.busy_time();
        debug_assert!(report.conserved(), "conservation violated: {report:?}");
        report
    }
}

/// The scans the backlog, idle and shed indexes replaced, kept as their
/// oracles: wherever debug assertions are on, every steal attempt
/// checks the backlog index against the all-nodes victim scan, every
/// shed checks the shed index against the all-queues scan (and both
/// indexes against the queues), both check every node's idle bit
/// against its state, and `take_ready` checks the heap's head against
/// the priority scan it replaced.
#[cfg(debug_assertions)]
impl<R: Recorder> ServeCluster<'_, R> {
    fn assert_backlog_is_the_nonempty_queues(&self) {
        let nonempty = (0..self.nodes.len()).filter(|&j| !self.nodes[j].ready.is_empty());
        assert!(
            self.backlogged().eq(nonempty),
            "the backlog index drifted from the ready queues"
        );
        for (j, n) in self.nodes.iter().enumerate() {
            let idle = n.serving.is_none() && n.ready.is_empty() && !n.awaiting;
            assert_eq!(
                self.idle[j / 64] >> (j % 64) & 1 == 1,
                idle,
                "node {j}'s idle bit drifted from its state"
            );
        }
    }

    fn scan_victim(&self, thief: usize, now: SimTime) -> Option<usize> {
        self.assert_backlog_is_the_nonempty_queues();
        let mut victim: Option<usize> = None;
        for j in 0..self.nodes.len() {
            if j == thief || self.nodes[j].ready.is_empty() || !self.can_balance(j) {
                continue;
            }
            if victim.is_none_or(|v| self.nodes[j].est(now) > self.nodes[v].est(now)) {
                victim = Some(j);
            }
        }
        victim
    }

    /// The shed victim `(node, seq)`: the lowest-weight, oldest batch
    /// queued on a balanceable node.
    fn scan_shed(&self) -> Option<(usize, u64)> {
        self.assert_backlog_is_the_nonempty_queues();
        let queued: usize = self.nodes.iter().map(|n| n.ready.len()).sum();
        let indexed = self.shed_index.as_ref().map_or(0, BTreeMap::len);
        assert_eq!(
            indexed, queued,
            "the shed index drifted from the ready queues"
        );
        self.backlogged()
            .filter(|&ni| self.can_balance(ni))
            .flat_map(|ni| self.nodes[ni].ready.iter().map(move |b| (ni, b)))
            .min_by(|(_, a), (_, b)| a.weight.total_cmp(&b.weight).then(a.fifo(b)))
            .map(|(ni, b)| (ni, b.seq))
    }
}

impl ClusterSim {
    /// Serves `cfg`'s traffic on this cluster under `mode`/`bmode`:
    /// requests arrive at their generated instants, batch per kind
    /// through each home node's batcher, queue by tenant weight, and —
    /// under [`BalanceMode::Steal`] — migrate to drained nodes under
    /// the balance profit guard (highest-weight batches first).
    pub fn run_served<R: Recorder>(
        &self,
        cfg: &ServeConfig,
        mode: ResourceMode,
        bmode: BalanceMode,
        rec: &mut R,
    ) -> ServeReport {
        self.run_served_survivable(
            cfg,
            mode,
            bmode,
            &[],
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            rec,
        )
    }

    /// [`ClusterSim::run_served`] under per-node fault schedules and the
    /// survival contract.
    ///
    /// A faulty node calibrates with its plan active (stragglers are
    /// journaled as [`FaultKind::SlowNode`]), runs slow, and becomes a
    /// steal victim — degradation surfaces as p999 inflation and SLO
    /// misses, never as lost requests. On top of that, planned
    /// [`NodeFault`](madness_faults::NodeFault)s bring heartbeat-based
    /// failure detection, lineage re-execution from the checkpoint +
    /// delta ledger and per-(tenant, node) breaker re-admission, and
    /// `survival` turns on the optional hedging / brownout degradation
    /// modes of [`SurvivalConfig`].
    ///
    /// The conservation law generalizes: every attempt copy terminates
    /// exactly once, so `completed + rejected + shed + cancelled_hedges
    /// == generated + hedges_launched` — a node crash under live
    /// traffic loses **zero** requests, and the same seed replays
    /// bit-identically. With no node faults in any plan and hedging and
    /// brownout off, no survival event is ever scheduled and the run is
    /// bit-identical to [`ClusterSim::run_served`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_served_survivable<R: Recorder>(
        &self,
        cfg: &ServeConfig,
        mode: ResourceMode,
        bmode: BalanceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        survival: &SurvivalConfig,
        rec: &mut R,
    ) -> ServeReport {
        let requests = generate_requests(cfg);
        let mut cluster =
            self.serve_cluster(cfg, &requests, mode, bmode, plans, policy, survival, rec);
        cluster.run();
        cluster.into_report()
    }

    /// The serving DES, ready to run over an explicit request trace:
    /// arrival-sorted, `id` equal to the position (what
    /// [`generate_requests`] emits; the event-ordering pins hand-craft
    /// theirs).
    #[allow(clippy::too_many_arguments)]
    fn serve_cluster<'a, R: Recorder>(
        &self,
        cfg: &ServeConfig,
        requests: &'a [Request],
        mode: ResourceMode,
        bmode: BalanceMode,
        plans: &[FaultPlan],
        policy: RecoveryPolicy,
        survival: &SurvivalConfig,
        rec: &'a mut R,
    ) -> ServeCluster<'a, R> {
        assert!(cfg.nodes > 0, "cluster must have nodes");
        debug_assert!(
            requests
                .iter()
                .enumerate()
                .all(|(i, r)| r.id == i as u64 && (i == 0 || requests[i - 1].arrival <= r.arrival)),
            "the request trace must be arrival-sorted and numbered by position"
        );
        let (healthy, rates) =
            self.calibrate_nodes(&cfg.spec, mode, plans, policy, &vec![0; cfg.nodes], rec);
        let batch_config = self.node().params().batch;
        let mut des = Des::new();
        des.schedule(cfg.horizon, Ev::Drain);
        if let BalanceMode::Repartition { epochs } = bmode {
            let interval = cfg.horizon / (u64::from(epochs) + 1);
            if interval > SimTime::ZERO {
                for e in 0..epochs {
                    des.schedule(interval * (u64::from(e) + 1), Ev::Epoch);
                }
            }
        }
        let degraded = if survival.brownout.is_some() {
            self.degraded_rates(&cfg.spec, mode, policy, healthy, &rates)
        } else {
            Vec::new()
        };
        let ledger = Ledger::schedule(&mut des, plans, cfg);
        let surv = Survival::new(cfg, requests.len(), survival, degraded, ledger);
        let nodes: Vec<ServeNode> = rates
            .iter()
            .map(|&rate| ServeNode {
                rate,
                batcher: Batcher::new(batch_config),
                ready: BinaryHeap::new(),
                ready_tasks: 0,
                serving: None,
                busy_until: rate.startup,
                awaiting: false,
                up: true,
                reachable: true,
                declared_dead: false,
                gen: 0,
                fenced: Vec::new(),
            })
            .collect();
        let mut specs: Vec<&TenantSpec> = cfg.tenants.iter().collect();
        specs.sort_by_key(|t| t.id);
        let report = ServeReport {
            generated: requests.len() as u64,
            horizon: cfg.horizon,
            tenants: specs
                .iter()
                .map(|t| TenantReport {
                    tenant: t.id,
                    ..TenantReport::default()
                })
                .collect(),
            ..ServeReport::default()
        };
        let tenants = specs
            .iter()
            .map(|t| TenantRow {
                weight: t.weight.max(f64::MIN_POSITIVE),
                deadline: t.deadline,
                sojourns: Vec::new(),
            })
            .collect();
        ServeCluster {
            nodes,
            des,
            net: Interconnect::new(self.network().clone()),
            requests,
            mode: bmode,
            bytes_per_task: 8 * (cfg.spec.k as u64).pow(cfg.spec.d as u32),
            queue_capacity: cfg.queue_capacity,
            shed_policy: cfg.shed,
            timer: batch_config.timer,
            seed: cfg.seed,
            inflight: 0,
            seq: 0,
            pushes: 0,
            backlog: vec![0; cfg.nodes.div_ceil(64)],
            // Every node starts idle.
            idle: (0..cfg.nodes.div_ceil(64))
                .map(|w| match cfg.nodes - 64 * w {
                    64.. => u64::MAX,
                    rest => (1 << rest) - 1,
                })
                .collect(),
            shed_index: (cfg.shed == ShedPolicy::DropOldest).then(BTreeMap::new),
            report,
            tenants,
            kinds: Vec::new(),
            surv,
            rec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::node::{NodeParams, NodeSim};
    use madness_trace::{MemRecorder, NullRecorder};
    use proptest::prelude::*;

    pub(super) fn spec() -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: 10,
            rank: 100,
            rr_mean_rank: None,
        }
    }

    pub(super) fn sim() -> ClusterSim {
        ClusterSim::new(NodeSim::new(NodeParams::default()), NetworkModel::default())
    }

    pub(super) const HYBRID: ResourceMode = ResourceMode::TABLE1_HYBRID;

    pub(super) const STEAL: BalanceMode = BalanceMode::PINNED_STEAL;

    /// `run_served_survivable` under [`STEAL`] and the default recovery
    /// policy — what every survival pin runs.
    pub(super) fn survive<R: Recorder>(
        s: &ClusterSim,
        cfg: &ServeConfig,
        plans: &[FaultPlan],
        survival: &SurvivalConfig,
        rec: &mut R,
    ) -> ServeReport {
        let policy = RecoveryPolicy::default();
        s.run_served_survivable(cfg, HYBRID, STEAL, plans, policy, survival, rec)
    }

    /// Aggregate request rate (req/s) that loads `nodes` to `rho` given
    /// the calibrated per-task cost.
    pub(super) fn rate_for(
        sim: &ClusterSim,
        nodes: usize,
        tasks_per_request: u64,
        rho: f64,
    ) -> f64 {
        let rate = sim.node().calibrate(
            &spec(),
            HYBRID,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
        );
        let per_req = rate.per_task.as_secs_f64() * tasks_per_request as f64;
        rho * nodes as f64 / per_req.max(1e-12)
    }

    pub(super) fn two_tenant_cfg(sim: &ClusterSim, rho: f64) -> ServeConfig {
        let nodes = 4;
        let tasks_per_request = 4;
        let total = rate_for(sim, nodes, tasks_per_request, rho);
        ServeConfig {
            spec: spec(),
            tenants: vec![
                TenantSpec {
                    id: TenantId(1),
                    weight: 4.0,
                    deadline: SimTime::from_millis(5),
                    profile: RateProfile::Poisson { rate: total / 2.0 },
                    tasks_per_request,
                },
                TenantSpec {
                    id: TenantId(2),
                    weight: 1.0,
                    deadline: SimTime::from_millis(20),
                    profile: RateProfile::Poisson { rate: total / 2.0 },
                    tasks_per_request,
                },
            ],
            nodes,
            seed: 0xC0FFEE,
            horizon: SimTime::from_millis(50),
            queue_capacity: 1 << 20,
            shed: ShedPolicy::RejectNew,
            kinds_per_tenant: 4,
        }
    }

    #[test]
    fn request_trace_is_deterministic_and_ordered() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let a = generate_requests(&cfg);
        let b = generate_requests(&cfg);
        assert_eq!(a, b, "same seed must replay the identical trace");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.arrival < cfg.horizon));
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        // Both tenants actually produce traffic and tag their kinds.
        for t in [TenantId(1), TenantId(2)] {
            assert!(a.iter().any(|r| r.tenant == t && r.kind.tenant == t));
        }
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(generate_requests(&other), a, "seed must matter");
    }

    /// The trace as it was generated before the merge: every tenant's
    /// kept arrivals concatenated in configuration order, stopping at
    /// the cap, then sorted by `(arrival, tenant, draw)`.
    fn sorted_reference(cfg: &ServeConfig, cap: usize) -> Vec<Request> {
        let mut all: Vec<(SimTime, u32, u64, TaskKind, u64)> = Vec::new();
        for spec in &cfg.tenants {
            let peak = spec.profile.peak_rate();
            if peak <= 0.0 {
                continue;
            }
            let tseed = cfg.seed ^ (u64::from(spec.id.0)).rotate_left(32);
            let mut t = 0.0f64;
            let horizon_s = cfg.horizon.as_secs_f64();
            let mut i = 0u64;
            loop {
                let u = draw(tseed, SALT_INTERARRIVAL, i);
                t += -(1.0 - u).ln() / peak;
                if t >= horizon_s || all.len() >= cap {
                    break;
                }
                let at = SimTime::from_secs_f64(t);
                if draw(tseed, SALT_THIN, i) * peak <= spec.profile.rate_at(at) {
                    let shape =
                        (draw(tseed, SALT_KIND, i) * cfg.kinds_per_tenant.max(1) as f64) as u64;
                    let kind = TaskKind::for_tenant(SERVE_OP_ID, shape, spec.id);
                    all.push((at, spec.id.0, i, kind, spec.tasks_per_request.max(1)));
                }
                i += 1;
            }
        }
        all.sort_unstable_by_key(|&(at, tenant, i, _, _)| (at, tenant, i));
        all.into_iter()
            .enumerate()
            .map(|(id, (arrival, tenant, _, kind, tasks))| Request {
                id: id as u64,
                tenant: TenantId(tenant),
                kind,
                arrival,
                tasks,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The merged trace is the sorted one, request for request:
        /// tenants declared out of id order, one of them silent, at
        /// rates where arrivals collide on the same nanosecond across
        /// tenants (`crowded`), and under a cap that binds inside the
        /// first, a middle or the last tenant's share, on a share's
        /// edge, or not at all.
        #[test]
        fn merged_trace_equals_the_sorted_one(
            seed in any::<u64>(),
            shapes in (0u8..3, 0u8..3, 0u8..3),
            crowded in any::<bool>(),
            silent in 0usize..5,
        ) {
            // ≈ 300 arrivals per tenant either way: over 40 ms, or over
            // 600 ns where they can only share instants.
            let (horizon, rate) = if crowded {
                (SimTime::from_nanos(600), 5e8)
            } else {
                (SimTime::from_millis(40), 7.5e3)
            };
            let profile = |shape: u8| match shape {
                0 => RateProfile::Poisson { rate },
                1 => RateProfile::OnOff {
                    rate_on: 2.0 * rate,
                    rate_off: rate / 4.0,
                    period: horizon / 5,
                    duty: 0.5,
                },
                _ => RateProfile::Diurnal {
                    base: rate,
                    amplitude: rate / 2.0,
                    period: horizon / 3,
                },
            };
            let tenant = |id: u32, shape: u8| TenantSpec {
                id: TenantId(id),
                weight: 1.0,
                deadline: SimTime::from_millis(5),
                profile: profile(shape),
                tasks_per_request: u64::from(id),
            };
            let mut tenants = vec![
                tenant(3, shapes.0),
                tenant(1, shapes.1),
                tenant(4, shapes.2),
                tenant(2, shapes.0),
            ];
            if let Some(t) = tenants.get_mut(silent) {
                t.profile = RateProfile::Poisson { rate: 0.0 };
            }
            let cfg = ServeConfig {
                tenants,
                seed,
                horizon,
                kinds_per_tenant: 5,
                ..two_tenant_cfg(&sim(), 0.5)
            };
            let full = sorted_reference(&cfg, usize::MAX);
            prop_assert_eq!(&generate_requests(&cfg), &full);
            if crowded {
                let shared = full.windows(2).any(|w| w[0].arrival == w[1].arrival && w[0].tenant != w[1].tenant);
                prop_assert!(shared, "no two tenants shared an instant");
            }
            // Caps on and around every tenant's share boundary.
            let mut edge = 0;
            for spec in &cfg.tenants {
                let share = full.iter().filter(|r| r.tenant == spec.id).count();
                for cap in [edge, edge + 1, edge + share / 2, (edge + share).saturating_sub(1)] {
                    let capped = generate_capped(&cfg, cap);
                    prop_assert_eq!(capped.len(), cap.min(full.len()));
                    prop_assert!(capped == sorted_reference(&cfg, cap), "cap {cap}");
                }
                edge += share;
            }
            prop_assert_eq!(&generate_capped(&cfg, edge + 1), &full);
        }
    }

    #[test]
    fn onoff_respects_silent_phase_and_diurnal_floors_at_zero() {
        let period = SimTime::from_millis(10);
        let profile = RateProfile::OnOff {
            rate_on: 50_000.0,
            rate_off: 0.0,
            period,
            duty: 0.3,
        };
        let cfg = ServeConfig {
            spec: spec(),
            tenants: vec![TenantSpec {
                id: TenantId(7),
                weight: 1.0,
                deadline: SimTime::from_millis(10),
                profile,
                tasks_per_request: 1,
            }],
            nodes: 2,
            seed: 42,
            horizon: SimTime::from_millis(40),
            queue_capacity: 1 << 20,
            shed: ShedPolicy::RejectNew,
            kinds_per_tenant: 1,
        };
        let reqs = generate_requests(&cfg);
        assert!(!reqs.is_empty());
        let p = period.as_nanos();
        for r in &reqs {
            let phase = (r.arrival.as_nanos() % p) as f64 / p as f64;
            assert!(phase < 0.3, "arrival in the off phase: {:?}", r.arrival);
        }
        let diurnal = RateProfile::Diurnal {
            base: 10.0,
            amplitude: 50.0,
            period,
        };
        // 3/4 through the period the sine trough would be negative.
        assert_eq!(diurnal.rate_at(period * 3u64 / 4u64), 0.0);
        assert_eq!(diurnal.peak_rate(), 60.0);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let ns: Vec<u64> = (1..=1000).rev().collect();
        let stats = LatencyStats::from_sojourns(ns);
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.p50, SimTime::from_nanos(500));
        assert_eq!(stats.p99, SimTime::from_nanos(990));
        assert_eq!(stats.p999, SimTime::from_nanos(999));
        assert_eq!(stats.max, SimTime::from_nanos(1000));
        assert_eq!(LatencyStats::from_sojourns(vec![]), LatencyStats::default());
        // Singleton: every percentile is the one sample.
        let one = LatencyStats::from_sojourns(vec![17]);
        assert_eq!((one.p50, one.p999, one.max), (one.p99, one.p99, one.p99));
    }

    #[test]
    fn ample_capacity_completes_everything() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.4);
        let report = s.run_served(&cfg, HYBRID, BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert_eq!(report.generated, report.completed);
        assert_eq!(report.rejected + report.shed, 0);
        assert_eq!(report.admitted, report.generated);
        assert!(report.overall.count == report.completed);
        assert!(report.overall.p50 <= report.overall.p99);
        assert!(report.overall.p99 <= report.overall.p999);
        assert!(report.overall.p999 <= report.overall.max);
        assert!(report.makespan >= SimTime::from_nanos(1));
        assert!(!report.kinds.is_empty());
        for t in &report.tenants {
            assert!(t.slo_attainment >= 0.0 && t.slo_attainment <= 1.0);
        }
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        let report = s.run_served(&cfg, HYBRID, BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert!(report.rejected > 0, "overload must bounce requests");
        assert_eq!(report.shed, 0, "RejectNew never sheds admitted work");
        assert_eq!(report.admitted, report.completed + report.shed);
    }

    #[test]
    fn drop_oldest_sheds_low_weight_tenant_first() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 3.0);
        cfg.queue_capacity = 32;
        cfg.shed = ShedPolicy::DropOldest;
        let report = s.run_served(&cfg, HYBRID, BalanceMode::Static, &mut NullRecorder);
        assert!(report.conserved(), "{report:?}");
        assert!(report.shed > 0, "overload must shed queued work");
        let heavy = report.tenant(TenantId(1)).unwrap();
        let light = report.tenant(TenantId(2)).unwrap();
        assert!(
            light.shed >= heavy.shed,
            "low-weight tenant must bear the shedding: {light:?} vs {heavy:?}"
        );
    }

    #[test]
    fn weighted_stealing_helps_heavy_tenant_tail() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.7);
        let stat = s.run_served(&cfg, HYBRID, BalanceMode::Static, &mut NullRecorder);
        let dyn_ = s.run_served(&cfg, HYBRID, STEAL, &mut NullRecorder);
        assert!(stat.conserved() && dyn_.conserved());
        assert!(dyn_.steals > 0, "0.7x load must trigger steals");
        let heavy_static = stat.tenant(TenantId(1)).unwrap().latency.p99;
        let heavy_steal = dyn_.tenant(TenantId(1)).unwrap().latency.p99;
        assert!(
            heavy_steal < heavy_static,
            "weighted stealing must cut the heavy tenant's p99: {heavy_steal:?} vs {heavy_static:?}"
        );
    }

    #[test]
    fn repartition_epochs_migrate_and_conserve() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.9);
        let mut rec = MemRecorder::new();
        let report = s.run_served(
            &cfg,
            HYBRID,
            BalanceMode::Repartition { epochs: 4 },
            &mut rec,
        );
        assert!(report.conserved(), "{report:?}");
        assert_eq!(report.generated, report.completed);
        // Epoch moves are journaled as what they are, one event per
        // move, and the journal accounts for every migrated task.
        assert!(report.migrated_tasks > 0, "0.9x load must move work");
        assert!(rec
            .balance_events()
            .all(|e| e.kind == BalanceKind::Repartition));
        assert_eq!(
            rec.balance_events().map(|e| e.tasks).sum::<u64>(),
            report.migrated_tasks
        );
    }

    #[test]
    fn straggler_inflates_tail_but_conserves() {
        let s = sim();
        let cfg = two_tenant_cfg(&s, 0.5);
        let healthy = s.run_served(&cfg, HYBRID, STEAL, &mut NullRecorder);
        let plans = vec![FaultPlan::none().with_straggler(2.5), FaultPlan::none()];
        let mut rec = MemRecorder::new();
        let faulty = survive(&s, &cfg, &plans, &SurvivalConfig::default(), &mut rec);
        assert!(faulty.conserved(), "{faulty:?}");
        assert!(
            faulty.overall.p999 >= healthy.overall.p999,
            "a straggler must not improve the tail: {:?} vs {:?}",
            faulty.overall.p999,
            healthy.overall.p999
        );
        assert!(
            rec.faults().any(|f| f.kind == FaultKind::SlowNode),
            "straggler must be journaled"
        );
    }

    #[test]
    fn home_index_clamps_the_top_of_the_unit_interval() {
        // The regression: a draw whose scaled value rounds to exactly
        // `n` must land on the last node, not wrap onto node 0.
        for n in [1usize, 2, 3, 4, 7, 64] {
            assert_eq!(home_index(1.0, n), n - 1, "n = {n}");
            assert_eq!(home_index(0.0, n), 0, "n = {n}");
            // Just below the top: also the last node, same as the clamp.
            assert_eq!(home_index(1.0 - 1e-12, n), n - 1, "n = {n}");
        }
        // Interior draws are untouched by the clamp.
        assert_eq!(home_index(0.5, 4), 2);
        assert_eq!(home_index(0.2499, 4), 0);
        assert_eq!(home_index(0.75, 4), 3);
    }

    #[test]
    fn home_placement_counts_are_pinned() {
        // Placement is a pure function of (seed, kind): pin the
        // per-node counts for the boundary-exercising seed so any
        // change to the index arithmetic (clamp vs. modulo, rounding)
        // shows up as a diff here. Every kind must land in range.
        let nodes = 4usize;
        let seed = 0xB0DA_2013_u64;
        let mut counts = vec![0usize; nodes];
        for tenant in 1..=2u32 {
            for shape in 0..64u64 {
                let kind = TaskKind::for_tenant(SERVE_OP_ID, shape, TenantId(tenant));
                let key = kind.op
                    ^ kind.data_hash.rotate_left(24)
                    ^ u64::from(kind.tenant.0).rotate_left(48);
                let home = home_index(draw(seed, SALT_HOME, key), nodes);
                assert!(home < nodes);
                counts[home] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 128);
        assert_eq!(counts, vec![34, 38, 29, 27], "placement counts moved");
    }

    #[test]
    fn reject_while_full_and_shed_interleavings_conserve() {
        // Drive the bounded queue through both shed paths at heavy
        // overload: RejectNew bounces at the boundary, DropOldest sheds
        // queued batches and falls back to rejecting when nothing is
        // queued — the in-system accounting must stay exact (the
        // debug_assert! in `in_system` is live in `cargo test`).
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 4.0);
        cfg.queue_capacity = 8;
        for shed in [ShedPolicy::RejectNew, ShedPolicy::DropOldest] {
            cfg.shed = shed;
            let report = s.run_served(&cfg, HYBRID, BalanceMode::Static, &mut NullRecorder);
            assert!(report.conserved(), "{shed:?}: {report:?}");
            assert!(
                report.rejected > 0,
                "{shed:?} must bounce at 4x overload with an 8-slot queue"
            );
            assert_eq!(
                report.admitted,
                report.completed + report.shed,
                "{shed:?}: every admitted request completes or is shed"
            );
            assert_eq!(
                report.generated,
                report.admitted + report.rejected,
                "{shed:?}: every generated request is admitted or rejected"
            );
            if shed == ShedPolicy::RejectNew {
                assert_eq!(report.shed, 0, "RejectNew never sheds admitted work");
            } else {
                assert!(report.shed > 0, "DropOldest must shed queued batches");
            }
        }
        // The steal mode migrates ready batches mid-overload — the
        // interleaving of Migrated and shed events must also conserve.
        cfg.shed = ShedPolicy::DropOldest;
        let report = s.run_served(&cfg, HYBRID, STEAL, &mut NullRecorder);
        assert!(report.conserved(), "steal interleaving: {report:?}");
        assert_eq!(report.admitted, report.completed + report.shed);
    }

    #[test]
    fn serve_events_are_journaled_per_request() {
        let s = sim();
        let mut cfg = two_tenant_cfg(&s, 0.5);
        cfg.horizon = SimTime::from_millis(5);
        let mut rec = MemRecorder::new();
        let report = s.run_served(&cfg, HYBRID, STEAL, &mut rec);
        let events: Vec<_> = rec.serve_events().collect();
        assert_eq!(events.len() as u64, report.generated);
        let completed = events
            .iter()
            .filter(|e| e.outcome == ServeOutcome::Completed)
            .count() as u64;
        assert_eq!(completed, report.completed);
        for e in &events {
            assert!(e.finished_ns >= e.arrived_ns);
            assert!(e.started_ns >= e.arrived_ns || e.started_ns == e.arrived_ns);
        }
        let sojourns = rec.spans().filter(|sp| sp.stage == Stage::Sojourn).count() as u64;
        assert_eq!(sojourns, report.completed);
    }

    /// Serves one kind of tenant 1's requests, `tasks` each, arriving
    /// at `arrivals`, on `cfg` under `Static`; returns the report and
    /// the journaled outcomes.
    fn serve_one_kind(
        s: &ClusterSim,
        cfg: &ServeConfig,
        arrivals: &[SimTime],
        tasks: u64,
    ) -> (ServeReport, Vec<ServeEvent>) {
        let trace: Vec<Request> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival)| Request {
                id: i as u64,
                tenant: TenantId(1),
                kind: TaskKind::for_tenant(SERVE_OP_ID, 0, TenantId(1)),
                arrival,
                tasks,
            })
            .collect();
        let mut rec = MemRecorder::new();
        let mut cluster = s.serve_cluster(
            cfg,
            &trace,
            HYBRID,
            BalanceMode::Static,
            &[],
            RecoveryPolicy::default(),
            &SurvivalConfig::default(),
            &mut rec,
        );
        cluster.run();
        let report = cluster.into_report();
        (report, rec.serve_events().copied().collect())
    }

    #[test]
    fn arrival_wins_a_timestamp_tie_with_a_pending_heap_event() {
        // Arrivals stream from the trace instead of sitting in the heap;
        // on a tie the arrival must still go first, as it did when it
        // held a lower sequence number than any event scheduled later.
        let s = sim();
        let timer = s.node().params().batch.timer;
        assert!(timer > SimTime::ZERO);
        let mut cfg = two_tenant_cfg(&s, 0.5);
        cfg.nodes = 1;
        let serve = |cfg: &ServeConfig, arrivals: &[SimTime]| serve_one_kind(&s, cfg, arrivals, 4);
        let t0 = SimTime::from_millis(1);

        // FlushTimer tie: the second request arrives at the instant the
        // first one's batching timer fires. Arrival first ⇒ it joins
        // the open bucket and the sweep flushes both as one batch.
        let (report, events) = serve(&cfg, &[t0, t0 + timer]);
        assert_eq!(report.completed, 2);
        assert_eq!(events[0].started_ns, events[1].started_ns);
        assert_eq!(events[0].finished_ns, events[1].finished_ns);

        // BatchDone tie: with room for one request in the system, a
        // request arriving at the instant the first one's batch
        // completes finds the slot still taken and bounces.
        let (_, solo) = serve(&cfg, &[t0]);
        let done = SimTime::from_nanos(solo[0].finished_ns);
        cfg.queue_capacity = 1;
        let (report, _) = serve(&cfg, &[t0, done]);
        assert_eq!((report.completed, report.rejected), (1, 1), "{report:?}");
    }

    #[test]
    fn a_kind_reopened_after_a_size_flush_gets_its_own_timer() {
        // One node, one kind, batches of 3 on a 1 ms timer. The pushes
        // at 0, 0.1 and 0.2 ms flush by size; the one at 0.3 ms re-opens
        // the kind and the one at 0.6 ms joins it. Only the re-opening
        // push's timer (1.3 ms) can flush those two, together. A k = 4,
        // rank-10 Apply keeps start-up and service short enough that
        // the node is idle by then.
        let params = NodeParams {
            batch: madness_runtime::BatcherConfig {
                max_batch: 3,
                timer: SimTime::from_millis(1),
            },
            ..NodeParams::default()
        };
        let s = ClusterSim::new(NodeSim::new(params), NetworkModel::default());
        let mut cfg = two_tenant_cfg(&s, 0.5);
        cfg.nodes = 1;
        cfg.horizon = SimTime::from_millis(10);
        cfg.spec = WorkloadSpec {
            d: 3,
            k: 4,
            rank: 10,
            rr_mean_rank: None,
        };
        let arrivals = [0, 100, 200, 300, 600].map(SimTime::from_micros);
        let (report, events) = serve_one_kind(&s, &cfg, &arrivals, 1);
        assert_eq!(report.completed, 5, "{report:?}");
        let started: Vec<u64> = events.iter().map(|e| e.started_ns).collect();
        let finished: Vec<u64> = events.iter().map(|e| e.finished_ns).collect();
        assert_eq!(started[..3], [started[0]; 3], "the size flush is one batch");
        assert_eq!(started[3], started[4], "the re-opened kind is one batch");
        assert_eq!(finished[3], finished[4]);
        assert_eq!(
            started[3],
            SimTime::from_micros(1_300).as_nanos(),
            "{events:?}"
        );
    }
}
