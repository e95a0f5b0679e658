//! Structured tracing and metrics for the madness-rs simulators.
//!
//! The simulators (`madness-gpusim`, `madness-cluster`) account time on
//! simulated resources; this crate lets them *journal* that accounting —
//! which pipeline stage held which resource lane over which simulated
//! interval — and aggregate counters/gauges, without perturbing any of
//! the computed timings.
//!
//! Three pieces:
//!
//! * a [`Recorder`] trait the instrumented hot paths are generic over.
//!   [`NullRecorder`] compiles to nothing (`Recorder::ENABLED` is an
//!   associated `const`, so recording branches fold away), which is how
//!   the untraced entry points keep bit-identical results and zero cost;
//! * [`MemRecorder`], an in-memory journal of [`Span`]s/[`Event`]s plus a
//!   [`Metrics`] registry (monotonic counters, high-water-mark gauges,
//!   and the dispatcher's per-batch split-ratio history), with JSON
//!   export/import ([`MemRecorder::to_json`] / [`MemRecorder::from_json`]);
//! * [`StageBreakdown`], a sweep-line attribution of a journal's spans
//!   that charges every simulated nanosecond of the run to exactly one
//!   [`Stage`], so per-stage utilization sums to the run's total.
//!
//! Timestamps are plain `u64` nanoseconds (the representation of the
//! simulators' `SimTime`); this crate deliberately has no dependencies so
//! every other crate in the workspace can use it without cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod timeline;

pub use timeline::{stage_overlap_ns, StageBreakdown};

use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// The pipeline stage a journal record belongs to.
///
/// The first seven are the stages of the paper's Apply pipeline (Fig. 3:
/// preprocess → batch → dispatch → transfer/launch ∥ CPU compute →
/// postprocess); the cache and network stages tag point events from the
/// device's write-once `h` cache and the interconnect model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Data-intensive input resolution on the CPU data threads.
    Preprocess,
    /// Accumulation of compute tasks into per-kind batches.
    Batch,
    /// The dispatcher thread packing a batch into transfer buffers.
    Dispatch,
    /// Host↔device DMA (including the one-time page-lock of the pool).
    Transfer,
    /// Kernel execution on a GPU stream.
    KernelLaunch,
    /// Compute-intensive work on the CPU worker threads.
    CpuCompute,
    /// Data-intensive result accumulation on the CPU data threads.
    Postprocess,
    /// Operator block found resident in the device cache.
    CacheHit,
    /// Operator block absent from the device cache (must transfer).
    CacheMiss,
    /// Operator block evicted to stay within the device budget.
    CacheEvict,
    /// Remote accumulation traffic injected into the network.
    NetSend,
    /// Remote accumulation traffic received from the network.
    NetRecv,
    /// Task-batch migration in flight on the interconnect (work stealing
    /// or a repartition epoch moving whole batches between nodes).
    Migrate,
    /// Lineage re-execution after a node loss: the interval in which a
    /// surviving node rebuilds and re-runs work reconstructed from the
    /// last epoch-boundary checkpoint of a crashed peer.
    Recover,
    /// A serving request's whole life in the system: admission to
    /// completion (queue wait + service). Sojourn spans cover every
    /// other stage of the request by construction, so they carry the
    /// lowest attribution priority — they label latency, never claim
    /// simulated time from the pipeline stages.
    Sojourn,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 15] = [
        Stage::Preprocess,
        Stage::Batch,
        Stage::Dispatch,
        Stage::Transfer,
        Stage::KernelLaunch,
        Stage::CpuCompute,
        Stage::Postprocess,
        Stage::CacheHit,
        Stage::CacheMiss,
        Stage::CacheEvict,
        Stage::NetSend,
        Stage::NetRecv,
        Stage::Migrate,
        Stage::Recover,
        Stage::Sojourn,
    ];

    /// Stable name used in the JSON journal and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Preprocess => "Preprocess",
            Stage::Batch => "Batch",
            Stage::Dispatch => "Dispatch",
            Stage::Transfer => "Transfer",
            Stage::KernelLaunch => "KernelLaunch",
            Stage::CpuCompute => "CpuCompute",
            Stage::Postprocess => "Postprocess",
            Stage::CacheHit => "CacheHit",
            Stage::CacheMiss => "CacheMiss",
            Stage::CacheEvict => "CacheEvict",
            Stage::NetSend => "NetSend",
            Stage::NetRecv => "NetRecv",
            Stage::Migrate => "Migrate",
            Stage::Recover => "Recover",
            Stage::Sojourn => "Sojourn",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Index into [`Stage::ALL`].
    pub(crate) fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("in ALL")
    }

    /// Attribution priority: when several stages overlap a simulated
    /// instant, the instant is charged to the scarcest resource — device
    /// work first, then the single dispatcher thread, then CPU compute,
    /// then the data threads. Higher wins.
    pub(crate) fn priority(self) -> u8 {
        match self {
            Stage::KernelLaunch => 12,
            Stage::Transfer => 11,
            Stage::Dispatch => 10,
            Stage::CpuCompute => 9,
            Stage::Preprocess => 8,
            Stage::Postprocess => 7,
            Stage::Batch => 6,
            Stage::Migrate => 13,
            Stage::Recover => 14,
            Stage::NetSend => 5,
            Stage::NetRecv => 4,
            Stage::CacheMiss => 3,
            Stage::CacheHit => 2,
            Stage::CacheEvict => 1,
            Stage::Sojourn => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

/// A stage holding a resource lane over a simulated interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Pipeline stage.
    pub stage: Stage,
    /// Simulated start, nanoseconds.
    pub start_ns: u64,
    /// Simulated end, nanoseconds (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Which lane of the stage's resource (data thread, stream, …).
    pub lane: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An instantaneous occurrence carrying one value (bytes, task count, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Pipeline stage.
    pub stage: Stage,
    /// Simulated timestamp, nanoseconds.
    pub at_ns: u64,
    /// Stage-specific payload.
    pub value: u64,
}

/// One journal entry, in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record {
    /// An interval record.
    Span(Span),
    /// A point record.
    Event(Event),
    /// A fault-path record (injection, detection, recovery).
    Fault(FaultEvent),
    /// A load-balancing decision (steal or repartition migration).
    Balance(BalanceEvent),
    /// A serving-layer request outcome (completion, rejection, shed).
    Serve(ServeEvent),
}

/// How a serving request left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServeOutcome {
    /// The request was admitted, executed, and finished.
    Completed,
    /// Admission control bounced the request at arrival (queue full).
    Rejected,
    /// The request was admitted but dropped from a queue later to make
    /// room (load shedding).
    Shed,
    /// A duplicate hedge attempt whose sibling finished first; the copy
    /// was cancelled and its work discarded. The request itself still
    /// counts exactly once as [`ServeOutcome::Completed`].
    CancelledHedge,
}

impl ServeOutcome {
    /// Every outcome, in declaration order.
    pub const ALL: [ServeOutcome; 4] = [
        ServeOutcome::Completed,
        ServeOutcome::Rejected,
        ServeOutcome::Shed,
        ServeOutcome::CancelledHedge,
    ];

    /// Stable name used in the JSON journal and reports.
    pub fn name(self) -> &'static str {
        match self {
            ServeOutcome::Completed => "Completed",
            ServeOutcome::Rejected => "Rejected",
            ServeOutcome::Shed => "Shed",
            ServeOutcome::CancelledHedge => "CancelledHedge",
        }
    }

    /// Inverse of [`ServeOutcome::name`].
    pub fn from_name(name: &str) -> Option<ServeOutcome> {
        ServeOutcome::ALL.into_iter().find(|o| o.name() == name)
    }
}

/// One serving request's journey through the online layer: when it
/// arrived, when service started, and when (and how) it left.
///
/// For [`ServeOutcome::Rejected`] the request never entered a queue:
/// `started_ns == finished_ns == arrived_ns`. For [`ServeOutcome::Shed`]
/// `finished_ns` is the shed instant and `started_ns == arrived_ns`
/// (service never began). Sojourn time — the latency the percentile
/// sink aggregates — is `finished_ns - arrived_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeEvent {
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// Operation id of the request's `TaskKind`.
    pub op: u64,
    /// Data-shape hash of the request's `TaskKind`.
    pub data_hash: u64,
    /// Apply tasks the request fans out into.
    pub tasks: u64,
    /// Simulated arrival instant, nanoseconds.
    pub arrived_ns: u64,
    /// Simulated instant service began (batch execution start).
    pub started_ns: u64,
    /// Simulated instant the request left the system.
    pub finished_ns: u64,
    /// How the request left.
    pub outcome: ServeOutcome,
}

impl ServeEvent {
    /// Sojourn time: queue wait + service, nanoseconds.
    pub fn sojourn_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.arrived_ns)
    }
}

/// Which dynamic-load-balancing mechanism moved work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BalanceKind {
    /// An idle node pulled batched work from the most-loaded node.
    Steal,
    /// A sync-epoch repartition pushed queued batches to faster nodes.
    Repartition,
}

impl BalanceKind {
    /// Every kind, in declaration order.
    pub const ALL: [BalanceKind; 2] = [BalanceKind::Steal, BalanceKind::Repartition];

    /// Stable name used in the JSON journal and reports.
    pub fn name(self) -> &'static str {
        match self {
            BalanceKind::Steal => "Steal",
            BalanceKind::Repartition => "Repartition",
        }
    }

    /// Inverse of [`BalanceKind::name`].
    pub fn from_name(name: &str) -> Option<BalanceKind> {
        BalanceKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One migration decision of the cluster-level load balancer: whole task
/// batches moving from one compute node to another, with the traffic
/// they put on the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BalanceEvent {
    /// Which mechanism decided the move.
    pub kind: BalanceKind,
    /// Node shedding the work (the steal victim / repartition source).
    pub from_node: u32,
    /// Node receiving the work (the thief / repartition target).
    pub to_node: u32,
    /// Whole tasks migrated (always full batches, never fractions).
    pub tasks: u64,
    /// Input bytes the migration injects into the interconnect.
    pub bytes: u64,
    /// Simulated decision instant, nanoseconds.
    pub at_ns: u64,
}

/// The fault taxonomy shared by the injector (`madness-faults`) and the
/// journal. It lives here — not in `madness-faults` — so the journal can
/// record fault events without a dependency cycle; `madness-faults`
/// re-exports it as the canonical vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A kernel failed to launch (`cudaErrorLaunchFailure`-class).
    KernelLaunchFail,
    /// A host↔device DMA exceeded its deadline and was re-issued.
    TransferTimeout,
    /// A CUDA stream stopped draining for a while (transient stall).
    StreamStall,
    /// The device fell off the bus (`cudaErrorDeviceLost`-class).
    DeviceLost,
    /// A whole node runs slower than its peers by a multiplier.
    SlowNode,
    /// A network message was dropped and had to be retransmitted.
    DroppedMessage,
    /// A whole node crashed: its queues, in-flight batches and chain
    /// state are lost and must be rebuilt from the last checkpoint.
    NodeCrash,
    /// A node was partitioned from the interconnect for a while; its
    /// local state survives but nothing reaches it until the partition
    /// heals (and the cluster may have declared it dead meanwhile).
    NodePartition,
    /// A previously crashed or partitioned node rejoined the cluster
    /// (cold caches, re-admitted through the probe ladder).
    NodeRejoin,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::KernelLaunchFail,
        FaultKind::TransferTimeout,
        FaultKind::StreamStall,
        FaultKind::DeviceLost,
        FaultKind::SlowNode,
        FaultKind::DroppedMessage,
        FaultKind::NodeCrash,
        FaultKind::NodePartition,
        FaultKind::NodeRejoin,
    ];

    /// Stable name used in the JSON journal and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::KernelLaunchFail => "KernelLaunchFail",
            FaultKind::TransferTimeout => "TransferTimeout",
            FaultKind::StreamStall => "StreamStall",
            FaultKind::DeviceLost => "DeviceLost",
            FaultKind::SlowNode => "SlowNode",
            FaultKind::DroppedMessage => "DroppedMessage",
            FaultKind::NodeCrash => "NodeCrash",
            FaultKind::NodePartition => "NodePartition",
            FaultKind::NodeRejoin => "NodeRejoin",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What the fault-handling machinery did at a [`FaultEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultAction {
    /// The fault fired (injected by the plan).
    Injected,
    /// Detection tripped (batch timeout or queue-depth watchdog) without
    /// a hard error — the affected tasks still completed.
    Detected,
    /// The failed share was re-submitted to the device after backoff.
    Retried,
    /// The failed share was re-routed to the CPU workers.
    CpuFallback,
    /// The device was taken out of rotation.
    Quarantined,
    /// A probe batch succeeded and the device rejoined the rotation.
    Readmitted,
    /// A dropped message was retransmitted.
    Resent,
    /// Lost lineage was reconstructed from the last checkpoint and
    /// re-executed on surviving nodes.
    Recovered,
    /// A duplicate hedge attempt was launched on another node after the
    /// per-kind latency budget expired.
    Hedged,
}

impl FaultAction {
    /// Every action, in declaration order.
    pub const ALL: [FaultAction; 9] = [
        FaultAction::Injected,
        FaultAction::Detected,
        FaultAction::Retried,
        FaultAction::CpuFallback,
        FaultAction::Quarantined,
        FaultAction::Readmitted,
        FaultAction::Resent,
        FaultAction::Recovered,
        FaultAction::Hedged,
    ];

    /// Stable name used in the JSON journal and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Injected => "Injected",
            FaultAction::Detected => "Detected",
            FaultAction::Retried => "Retried",
            FaultAction::CpuFallback => "CpuFallback",
            FaultAction::Quarantined => "Quarantined",
            FaultAction::Readmitted => "Readmitted",
            FaultAction::Resent => "Resent",
            FaultAction::Recovered => "Recovered",
            FaultAction::Hedged => "Hedged",
        }
    }

    /// Inverse of [`FaultAction::name`].
    pub fn from_name(name: &str) -> Option<FaultAction> {
        FaultAction::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// One fault-path occurrence: a fault firing, its detection, or a
/// recovery step, with the simulated instant and affected task count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which fault class.
    pub kind: FaultKind,
    /// What happened / what recovery did.
    pub action: FaultAction,
    /// Simulated timestamp, nanoseconds.
    pub at_ns: u64,
    /// Tasks (or messages, for network faults) affected.
    pub tasks: u64,
}

/// One flush decision of the adaptive feedback dispatcher: the chosen CPU
/// share `k` plus the cost-model state (EWMA per-task times) it was
/// derived from, and whether the flush was a bootstrap probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchSample {
    /// CPU share of the batch, in `[0, 1]`.
    pub k: f64,
    /// EWMA estimate of CPU nanoseconds per task (`0` while unprobed).
    pub m_hat_ns: f64,
    /// EWMA estimate of GPU nanoseconds per task (`0` while unprobed).
    pub n_hat_ns: f64,
    /// True while the dispatcher is still bootstrapping its cost model
    /// (the 50/50 probe flushes), false in the steady feedback state.
    pub probe: bool,
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Aggregated counters, gauges and the dispatcher split history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    k_history: Vec<f64>,
    dispatch_history: Vec<DispatchSample>,
}

impl Metrics {
    /// Adds `delta` to the named monotonic counter.
    pub fn add(&mut self, counter: &str, delta: u64) {
        *self.counters.entry(counter.to_owned()).or_insert(0) += delta;
    }

    /// Raises the named gauge to `value` if it is a new high-water mark.
    pub fn gauge_hwm(&mut self, gauge: &str, value: u64) {
        let g = self.gauges.entry(gauge.to_owned()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Appends one dispatcher split ratio `k*` to the history.
    pub fn observe_split(&mut self, k: f64) {
        self.k_history.push(k);
    }

    /// Appends one adaptive-dispatcher flush decision to the trajectory.
    /// Deliberately independent of [`Metrics::observe_split`] — callers
    /// that want `k` in both histories emit both (the JSON import replays
    /// each history separately).
    pub fn observe_dispatch(&mut self, sample: DispatchSample) {
        self.dispatch_history.push(sample);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The dispatcher's per-batch `k*` history, in batch order.
    pub fn k_history(&self) -> &[f64] {
        &self.k_history
    }

    /// The adaptive dispatcher's per-flush trajectory, in flush order.
    pub fn dispatch_history(&self) -> &[DispatchSample] {
        &self.dispatch_history
    }

    /// Mean of the split history (0 when empty).
    pub fn mean_split(&self) -> f64 {
        if self.k_history.is_empty() {
            0.0
        } else {
            self.k_history.iter().sum::<f64>() / self.k_history.len() as f64
        }
    }

    /// `h`-cache hit rate from the `cache_hit`/`cache_miss` counters
    /// (`None` before any cache access).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let h = self.counter("cache_hit");
        let m = self.counter("cache_miss");
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }
}

// ---------------------------------------------------------------------
// Recorders
// ---------------------------------------------------------------------

/// Sink for journal records and metrics, threaded through the simulators'
/// hot paths as a generic parameter.
///
/// Call sites guard every emission with `if R::ENABLED { … }`; with
/// [`NullRecorder`] that constant is `false`, so the instrumented code
/// monomorphizes to exactly the uninstrumented code.
pub trait Recorder {
    /// Whether this recorder keeps anything at all.
    const ENABLED: bool;

    /// Journals an interval record.
    fn span(&mut self, stage: Stage, start_ns: u64, end_ns: u64, lane: u32);

    /// Journals a point record.
    fn event(&mut self, stage: Stage, at_ns: u64, value: u64);

    /// Adds to a monotonic counter.
    fn add(&mut self, counter: &str, delta: u64);

    /// Raises a high-water-mark gauge.
    fn gauge_hwm(&mut self, gauge: &str, value: u64);

    /// Observes one dispatcher split ratio.
    fn observe_split(&mut self, k: f64);

    /// Observes one adaptive-dispatcher flush decision.
    fn observe_dispatch(&mut self, sample: DispatchSample);

    /// Journals a fault-path record.
    fn fault(&mut self, ev: FaultEvent);

    /// Journals a load-balancing decision.
    fn balance_event(&mut self, ev: BalanceEvent);

    /// Journals a serving-request outcome.
    fn serve(&mut self, ev: ServeEvent);
}

/// The disabled recorder: every method is a no-op and `ENABLED = false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span(&mut self, _: Stage, _: u64, _: u64, _: u32) {}
    #[inline(always)]
    fn event(&mut self, _: Stage, _: u64, _: u64) {}
    #[inline(always)]
    fn add(&mut self, _: &str, _: u64) {}
    #[inline(always)]
    fn gauge_hwm(&mut self, _: &str, _: u64) {}
    #[inline(always)]
    fn observe_split(&mut self, _: f64) {}
    #[inline(always)]
    fn observe_dispatch(&mut self, _: DispatchSample) {}
    #[inline(always)]
    fn fault(&mut self, _: FaultEvent) {}
    #[inline(always)]
    fn balance_event(&mut self, _: BalanceEvent) {}
    #[inline(always)]
    fn serve(&mut self, _: ServeEvent) {}
}

/// In-memory recorder: journal in emission order + metrics registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemRecorder {
    journal: Vec<Record>,
    metrics: Metrics,
}

impl MemRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MemRecorder::default()
    }

    /// The journal, in emission order.
    pub fn journal(&self) -> &[Record] {
        &self.journal
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// All interval records, in emission order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.journal.iter().filter_map(|r| match r {
            Record::Span(s) => Some(s),
            _ => None,
        })
    }

    /// All point records, in emission order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.journal.iter().filter_map(|r| match r {
            Record::Event(e) => Some(e),
            _ => None,
        })
    }

    /// All fault-path records, in emission order.
    pub fn faults(&self) -> impl Iterator<Item = &FaultEvent> {
        self.journal.iter().filter_map(|r| match r {
            Record::Fault(f) => Some(f),
            _ => None,
        })
    }

    /// All load-balancing records, in emission order.
    pub fn balance_events(&self) -> impl Iterator<Item = &BalanceEvent> {
        self.journal.iter().filter_map(|r| match r {
            Record::Balance(b) => Some(b),
            _ => None,
        })
    }

    /// All serving-request records, in emission order.
    pub fn serve_events(&self) -> impl Iterator<Item = &ServeEvent> {
        self.journal.iter().filter_map(|r| match r {
            Record::Serve(s) => Some(s),
            _ => None,
        })
    }

    /// Attributes `[0, total_ns)` to stages from this journal's spans.
    pub fn breakdown(&self, total_ns: u64) -> StageBreakdown {
        StageBreakdown::from_spans(self.spans(), total_ns)
    }

    /// Serializes journal + metrics to the JSON timeline format.
    pub fn to_json(&self) -> String {
        json::export(self)
    }

    /// Parses a JSON timeline back into a recorder.
    pub fn from_json(text: &str) -> Result<MemRecorder, json::JsonError> {
        json::import(text)
    }
}

impl Recorder for MemRecorder {
    const ENABLED: bool = true;

    fn span(&mut self, stage: Stage, start_ns: u64, end_ns: u64, lane: u32) {
        debug_assert!(end_ns >= start_ns, "span ends before it starts");
        self.journal.push(Record::Span(Span {
            stage,
            start_ns,
            end_ns,
            lane,
        }));
    }

    fn event(&mut self, stage: Stage, at_ns: u64, value: u64) {
        self.journal.push(Record::Event(Event {
            stage,
            at_ns,
            value,
        }));
    }

    fn add(&mut self, counter: &str, delta: u64) {
        self.metrics.add(counter, delta);
    }

    fn gauge_hwm(&mut self, gauge: &str, value: u64) {
        self.metrics.gauge_hwm(gauge, value);
    }

    fn observe_split(&mut self, k: f64) {
        self.metrics.observe_split(k);
    }

    fn observe_dispatch(&mut self, sample: DispatchSample) {
        self.metrics.observe_dispatch(sample);
    }

    fn fault(&mut self, ev: FaultEvent) {
        self.journal.push(Record::Fault(ev));
    }

    fn balance_event(&mut self, ev: BalanceEvent) {
        self.journal.push(Record::Balance(ev));
    }

    fn serve(&mut self, ev: ServeEvent) {
        self.journal.push(Record::Serve(ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("NotAStage"), None);
    }

    #[test]
    fn counters_aggregate_across_sources() {
        let mut rec = MemRecorder::new();
        rec.add("cache_hit", 3);
        rec.add("cache_miss", 1);
        rec.add("cache_hit", 7);
        assert_eq!(rec.metrics().counter("cache_hit"), 10);
        assert_eq!(rec.metrics().counter("cache_miss"), 1);
        assert_eq!(rec.metrics().counter("never_touched"), 0);
        assert_eq!(rec.metrics().cache_hit_rate(), Some(10.0 / 11.0));
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let mut rec = MemRecorder::new();
        rec.gauge_hwm("pool", 100);
        rec.gauge_hwm("pool", 40);
        rec.gauge_hwm("pool", 250);
        rec.gauge_hwm("pool", 5);
        assert_eq!(rec.metrics().gauge("pool"), 250);
    }

    #[test]
    fn split_history_preserves_order_and_mean() {
        let mut rec = MemRecorder::new();
        for k in [0.25, 0.5, 0.75] {
            rec.observe_split(k);
        }
        assert_eq!(rec.metrics().k_history(), &[0.25, 0.5, 0.75]);
        assert!((rec.metrics().mean_split() - 0.5).abs() < 1e-15);
        assert_eq!(Metrics::default().mean_split(), 0.0);
    }

    #[test]
    fn dispatch_history_preserves_order_and_state() {
        let mut rec = MemRecorder::new();
        rec.observe_dispatch(DispatchSample {
            k: 0.5,
            m_hat_ns: 0.0,
            n_hat_ns: 0.0,
            probe: true,
        });
        rec.observe_dispatch(DispatchSample {
            k: 0.25,
            m_hat_ns: 3_000.0,
            n_hat_ns: 1_000.0,
            probe: false,
        });
        let h = rec.metrics().dispatch_history();
        assert_eq!(h.len(), 2);
        assert!(h[0].probe && !h[1].probe);
        assert_eq!(h[1].m_hat_ns, 3_000.0);
        // observe_dispatch must not leak into the plain split history.
        assert!(rec.metrics().k_history().is_empty());
    }

    #[test]
    fn journal_preserves_emission_order() {
        let mut rec = MemRecorder::new();
        rec.span(Stage::Preprocess, 0, 10, 0);
        rec.event(Stage::Batch, 10, 60);
        rec.span(Stage::KernelLaunch, 10, 30, 2);
        assert_eq!(rec.journal().len(), 3);
        assert_eq!(rec.spans().count(), 2);
        assert_eq!(rec.events().count(), 1);
        let Record::Event(e) = rec.journal()[1] else {
            panic!("second record must be the event");
        };
        assert_eq!((e.stage, e.at_ns, e.value), (Stage::Batch, 10, 60));
    }

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        const { assert!(MemRecorder::ENABLED) };
        // The no-op methods must be callable without effect.
        let mut n = NullRecorder;
        n.span(Stage::Transfer, 0, 5, 0);
        n.add("x", 1);
        n.observe_split(0.5);
        n.fault(FaultEvent {
            kind: FaultKind::DeviceLost,
            action: FaultAction::Quarantined,
            at_ns: 7,
            tasks: 60,
        });
    }

    #[test]
    fn balance_names_round_trip() {
        for k in BalanceKind::ALL {
            assert_eq!(BalanceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(BalanceKind::from_name("NotABalanceKind"), None);
    }

    #[test]
    fn balance_records_interleave_in_order() {
        let mut rec = MemRecorder::new();
        rec.span(Stage::Migrate, 5, 25, 0);
        rec.balance_event(BalanceEvent {
            kind: BalanceKind::Steal,
            from_node: 3,
            to_node: 7,
            tasks: 120,
            bytes: 960_000,
            at_ns: 5,
        });
        rec.balance_event(BalanceEvent {
            kind: BalanceKind::Repartition,
            from_node: 0,
            to_node: 1,
            tasks: 60,
            bytes: 480_000,
            at_ns: 40,
        });
        assert_eq!(rec.balance_events().count(), 2);
        let bs: Vec<_> = rec.balance_events().collect();
        assert_eq!(bs[0].kind, BalanceKind::Steal);
        assert_eq!((bs[0].from_node, bs[0].to_node), (3, 7));
        assert_eq!(bs[1].kind, BalanceKind::Repartition);
        // Balance records never leak into the stage attribution.
        let bd = rec.breakdown(25);
        assert_eq!(bd.attributed_total_ns(), 25);
    }

    #[test]
    fn serve_outcome_names_round_trip() {
        for o in ServeOutcome::ALL {
            assert_eq!(ServeOutcome::from_name(o.name()), Some(o));
        }
        assert_eq!(ServeOutcome::from_name("NotAnOutcome"), None);
    }

    #[test]
    fn serve_records_interleave_and_measure_sojourn() {
        let mut rec = MemRecorder::new();
        rec.span(Stage::Sojourn, 100, 900, 0);
        rec.serve(ServeEvent {
            tenant: 1,
            op: 0x5E12,
            data_hash: 3,
            tasks: 8,
            arrived_ns: 100,
            started_ns: 400,
            finished_ns: 900,
            outcome: ServeOutcome::Completed,
        });
        rec.serve(ServeEvent {
            tenant: 2,
            op: 0x5E12,
            data_hash: 3,
            tasks: 8,
            arrived_ns: 150,
            started_ns: 150,
            finished_ns: 150,
            outcome: ServeOutcome::Rejected,
        });
        let evs: Vec<_> = rec.serve_events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].sojourn_ns(), 800);
        assert_eq!(evs[1].sojourn_ns(), 0);
        assert_eq!(evs[1].outcome, ServeOutcome::Rejected);
        // Sojourn spans cover the pipeline by construction; they must
        // never win attribution from a real stage.
        rec.span(Stage::CpuCompute, 400, 900, 0);
        let bd = rec.breakdown(900);
        assert_eq!(bd.stage_ns(Stage::CpuCompute), 500);
        assert_eq!(bd.stage_ns(Stage::Sojourn), 300);
    }

    #[test]
    fn fault_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        for a in FaultAction::ALL {
            assert_eq!(FaultAction::from_name(a.name()), Some(a));
        }
        assert_eq!(FaultKind::from_name("NotAFault"), None);
        assert_eq!(FaultAction::from_name("NotAnAction"), None);
    }

    #[test]
    fn fault_records_interleave_with_spans_in_order() {
        let mut rec = MemRecorder::new();
        rec.span(Stage::KernelLaunch, 0, 10, 0);
        rec.fault(FaultEvent {
            kind: FaultKind::KernelLaunchFail,
            action: FaultAction::Injected,
            at_ns: 10,
            tasks: 3,
        });
        rec.fault(FaultEvent {
            kind: FaultKind::KernelLaunchFail,
            action: FaultAction::CpuFallback,
            at_ns: 12,
            tasks: 3,
        });
        rec.span(Stage::CpuCompute, 12, 40, 0);
        assert_eq!(rec.journal().len(), 4);
        assert_eq!(rec.spans().count(), 2);
        assert_eq!(rec.faults().count(), 2);
        let fs: Vec<_> = rec.faults().collect();
        assert_eq!(fs[0].action, FaultAction::Injected);
        assert_eq!(fs[1].action, FaultAction::CpuFallback);
        // Fault records never leak into the stage attribution.
        let bd = rec.breakdown(40);
        assert_eq!(bd.attributed_total_ns(), 40);
    }
}
