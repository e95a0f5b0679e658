//! Fault plans and the injector that walks them.

use crate::draw;
use madness_trace::FaultKind;
use std::fmt;

/// Why one task (or one batch-level operation) failed.
///
/// The per-task error vocabulary the fallible GPU batch path
/// (`GpuDevice::execute_batch_injected`) reports and the recovery layers
/// consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskError {
    /// The task's kernel failed to launch; the task did not run.
    LaunchFailed,
    /// The batch's DMA timed out and was re-issued (tasks still run,
    /// late) — reported when the retried transfer also failed.
    TransferTimedOut,
    /// The task's stream stalled past the detection deadline.
    StreamStalled,
    /// The device was lost mid-batch; nothing on it completed.
    DeviceLost,
}

impl TaskError {
    /// The fault class this error belongs to.
    pub fn kind(self) -> FaultKind {
        match self {
            TaskError::LaunchFailed => FaultKind::KernelLaunchFail,
            TaskError::TransferTimedOut => FaultKind::TransferTimeout,
            TaskError::StreamStalled => FaultKind::StreamStall,
            TaskError::DeviceLost => FaultKind::DeviceLost,
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            TaskError::LaunchFailed => "kernel launch failed",
            TaskError::TransferTimedOut => "host-device transfer timed out",
            TaskError::StreamStalled => "stream stalled past deadline",
            TaskError::DeviceLost => "device lost",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TaskError {}

/// When an explicit [`Injection`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The `n`-th occurrence (0-based) of the fault's injection point —
    /// the `n`-th kernel launch, `n`-th DMA, `n`-th message, …
    AtCount(u64),
    /// The first occurrence of the injection point at or after this
    /// simulated nanosecond. Fires once.
    AtTime(u64),
}

/// One explicitly planned fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Which fault fires.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

/// A whole-node lifecycle fault, scheduled at an absolute simulated
/// instant. Unlike the per-operation faults above, these describe the
/// node itself disappearing (or coming back): the serving and balance
/// simulations consume them to drive crash detection, lineage
/// re-execution and probe-ladder re-admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// The node crashes at this instant: queues, in-flight batches and
    /// chain state are lost; only the last checkpoint survives.
    CrashAt(u64),
    /// The node is cut off the interconnect for `duration_ns` starting
    /// at `at_ns`. Local state survives, but peers may declare it dead
    /// and fence its results before the partition heals.
    PartitionAt {
        /// Partition start, simulated nanoseconds.
        at_ns: u64,
        /// How long the node stays unreachable.
        duration_ns: u64,
    },
    /// A previously crashed node rejoins at this instant with cold
    /// caches, re-admitted through the probe ladder.
    RejoinAt(u64),
}

impl NodeFault {
    /// The instant the fault fires.
    pub fn at_ns(self) -> u64 {
        match self {
            NodeFault::CrashAt(t) | NodeFault::RejoinAt(t) => t,
            NodeFault::PartitionAt { at_ns, .. } => at_ns,
        }
    }

    /// The journal vocabulary this fault maps to.
    pub fn kind(self) -> FaultKind {
        match self {
            NodeFault::CrashAt(_) => FaultKind::NodeCrash,
            NodeFault::PartitionAt { .. } => FaultKind::NodePartition,
            NodeFault::RejoinAt(_) => FaultKind::NodeRejoin,
        }
    }
}

/// A deterministic, seeded description of everything that goes wrong in
/// a run.
///
/// Two layers compose:
///
/// * **explicit injections** — exact count- or time-triggered faults for
///   pinning regressions ("the 3rd kernel launch fails");
/// * **seeded rates** — per-injection-point failure probabilities drawn
///   from the stateless `(seed, point, index)` hash for chaos sweeps.
///
/// [`FaultPlan::none`] (= `Default`) is inert: no query ever reports a
/// fault and the fault-aware simulation paths stay bit-identical to the
/// fault-free ones.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    launch_fail_rate: f64,
    transfer_timeout_rate: f64,
    stream_stall_rate: f64,
    stall_ns: u64,
    device_lost_at_ns: Option<u64>,
    straggler_multiplier: f64,
    message_drop_rate: f64,
    window: Option<(u64, u64)>,
    injections: Vec<Injection>,
    node_faults: Vec<NodeFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            launch_fail_rate: 0.0,
            transfer_timeout_rate: 0.0,
            stream_stall_rate: 0.0,
            stall_ns: 2_000_000, // 2 ms, a few batches' worth
            device_lost_at_ns: None,
            straggler_multiplier: 1.0,
            message_drop_rate: 0.0,
            window: None,
            injections: Vec::new(),
            node_faults: Vec::new(),
        }
    }
}

/// Sanitizes a probability: NaN becomes 0, everything else is clamped to
/// `[0, 1]`. Debug builds still reject out-of-range inputs loudly so
/// plan-construction bugs surface in tests.
fn sanitize_rate(rate: f64) -> f64 {
    debug_assert!(
        !rate.is_nan() && (0.0..=1.0).contains(&rate),
        "rate must be in [0, 1]"
    );
    if rate.is_nan() {
        0.0
    } else {
        rate.clamp(0.0, 1.0)
    }
}

impl FaultPlan {
    /// The inert plan: nothing ever fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying `seed` for the rate draws.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-kernel-launch failure probability. NaN is treated
    /// as 0 and out-of-range values are clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Debug builds panic if `rate` is NaN or not in `[0, 1]`.
    pub fn with_launch_fail_rate(mut self, rate: f64) -> Self {
        self.launch_fail_rate = sanitize_rate(rate);
        self
    }

    /// Sets the per-DMA timeout probability. NaN is treated as 0 and
    /// out-of-range values are clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Debug builds panic if `rate` is NaN or not in `[0, 1]`.
    pub fn with_transfer_timeout_rate(mut self, rate: f64) -> Self {
        self.transfer_timeout_rate = sanitize_rate(rate);
        self
    }

    /// Sets the per-batch stream-stall probability and the stall length.
    /// NaN is treated as 0 and out-of-range values are clamped to
    /// `[0, 1]`.
    ///
    /// # Panics
    /// Debug builds panic if `rate` is NaN or not in `[0, 1]`.
    pub fn with_stream_stalls(mut self, rate: f64, stall_ns: u64) -> Self {
        self.stream_stall_rate = sanitize_rate(rate);
        self.stall_ns = stall_ns;
        self
    }

    /// The device falls off the bus at this simulated nanosecond.
    pub fn with_device_lost_at(mut self, at_ns: u64) -> Self {
        self.device_lost_at_ns = Some(at_ns);
        self
    }

    /// Marks the node a straggler: every simulated duration on it is
    /// inflated by `multiplier`.
    ///
    /// # Panics
    /// Panics if `multiplier < 1.0` or is non-finite.
    pub fn with_straggler(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier >= 1.0 && multiplier.is_finite(),
            "straggler multiplier must be finite and >= 1"
        );
        self.straggler_multiplier = multiplier;
        self
    }

    /// Sets the per-message network drop probability. NaN is treated as
    /// 0 and out-of-range values are clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Debug builds panic if `rate` is NaN or not in `[0, 1]`.
    pub fn with_message_drop_rate(mut self, rate: f64) -> Self {
        self.message_drop_rate = sanitize_rate(rate);
        self
    }

    /// Confines all *rate-drawn* faults to the simulated window
    /// `[start_ns, end_ns)`. Explicit injections and the straggler
    /// multiplier are unaffected.
    ///
    /// # Panics
    /// Panics if `end_ns <= start_ns`.
    pub fn with_window(mut self, start_ns: u64, end_ns: u64) -> Self {
        assert!(end_ns > start_ns, "fault window must be non-empty");
        self.window = Some((start_ns, end_ns));
        self
    }

    /// Adds one explicit injection.
    pub fn with_injection(mut self, kind: FaultKind, trigger: Trigger) -> Self {
        self.injections.push(Injection { kind, trigger });
        self
    }

    /// Adds one whole-node lifecycle fault.
    ///
    /// # Panics
    /// Panics if a partition has zero duration.
    pub fn with_node_fault(mut self, fault: NodeFault) -> Self {
        if let NodeFault::PartitionAt { duration_ns, .. } = fault {
            assert!(duration_ns > 0, "partition must have non-zero duration");
        }
        self.node_faults.push(fault);
        self
    }

    /// The node crashes at this simulated nanosecond.
    pub fn with_node_crash_at(self, at_ns: u64) -> Self {
        self.with_node_fault(NodeFault::CrashAt(at_ns))
    }

    /// The node is partitioned off the interconnect for `duration_ns`
    /// starting at `at_ns`.
    pub fn with_node_partition(self, at_ns: u64, duration_ns: u64) -> Self {
        self.with_node_fault(NodeFault::PartitionAt { at_ns, duration_ns })
    }

    /// The node rejoins (cold) at this simulated nanosecond.
    pub fn with_node_rejoin_at(self, at_ns: u64) -> Self {
        self.with_node_fault(NodeFault::RejoinAt(at_ns))
    }

    /// The planned whole-node lifecycle faults, in insertion order.
    pub fn node_faults(&self) -> &[NodeFault] {
        &self.node_faults
    }

    /// The straggler multiplier (1.0 = keeps pace).
    pub fn straggler_multiplier(&self) -> f64 {
        self.straggler_multiplier
    }

    /// True when no query on this plan can ever report a fault.
    pub fn is_empty(&self) -> bool {
        self.launch_fail_rate == 0.0
            && self.transfer_timeout_rate == 0.0
            && self.stream_stall_rate == 0.0
            && self.device_lost_at_ns.is_none()
            && self.straggler_multiplier == 1.0
            && self.message_drop_rate == 0.0
            && self.injections.is_empty()
            && self.node_faults.is_empty()
    }
}

// Salts separating the stateless draw streams per injection point.
const SALT_LAUNCH: u64 = 0x4c41_554e; // "LAUN"
const SALT_TRANSFER: u64 = 0x5452_4e53; // "TRNS"
const SALT_STALL: u64 = 0x5354_4c4c; // "STLL"
const SALT_MESSAGE: u64 = 0x4d53_4753; // "MSGS"

/// Walks a [`FaultPlan`] at the simulators' injection points.
///
/// Holds only occurrence counters and consumed-injection flags; all
/// randomness is the plan's stateless hash, so two injectors over the
/// same plan asked the same questions give the same answers.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    launches: u64,
    transfers: u64,
    batches: u64,
    messages: u64,
    consumed: Vec<bool>,
    device_lost_fired: bool,
}

impl FaultInjector {
    /// An injector over a copy of `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            consumed: vec![false; plan.injections.len()],
            plan: plan.clone(),
            launches: 0,
            transfers: 0,
            batches: 0,
            messages: 0,
            device_lost_fired: false,
        }
    }

    /// The plan being walked.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan is empty — every query will answer "no fault".
    pub fn is_inert(&self) -> bool {
        self.plan.is_empty()
    }

    fn in_window(&self, now_ns: u64) -> bool {
        match self.plan.window {
            Some((start, end)) => now_ns >= start && now_ns < end,
            None => true,
        }
    }

    /// Fires any un-consumed explicit injection of `kind` matching the
    /// occurrence `index` or the time `now_ns`.
    fn explicit(&mut self, kind: FaultKind, index: u64, now_ns: u64) -> bool {
        for (i, inj) in self.plan.injections.iter().enumerate() {
            if self.consumed[i] || inj.kind != kind {
                continue;
            }
            let fire = match inj.trigger {
                Trigger::AtCount(n) => n == index,
                Trigger::AtTime(t) => now_ns >= t,
            };
            if fire {
                self.consumed[i] = true;
                return true;
            }
        }
        false
    }

    fn rate_hit(&self, salt: u64, index: u64, rate: f64, now_ns: u64) -> bool {
        rate > 0.0 && self.in_window(now_ns) && draw(self.plan.seed, salt, index) < rate
    }

    /// Queries the next kernel launch at simulated time `now_ns`.
    pub fn kernel_launch(&mut self, now_ns: u64) -> Option<TaskError> {
        let idx = self.launches;
        self.launches += 1;
        if self.explicit(FaultKind::KernelLaunchFail, idx, now_ns)
            || self.rate_hit(SALT_LAUNCH, idx, self.plan.launch_fail_rate, now_ns)
        {
            Some(TaskError::LaunchFailed)
        } else {
            None
        }
    }

    /// Books the next `n` kernel launches at simulated time `now_ns` in
    /// one step when none of them can fail, and returns true: no launch
    /// rate is in force at `now_ns` and no un-consumed launch injection
    /// would fire on one of them. Otherwise books nothing and returns
    /// false; the caller then asks [`FaultInjector::kernel_launch`] once
    /// a launch. Either way the answers are those of `n` such calls.
    pub fn launches_fault_free(&mut self, n: u64, now_ns: u64) -> bool {
        let range = self.launches..self.launches + n;
        let armed = self
            .plan
            .injections
            .iter()
            .zip(&self.consumed)
            .any(|(inj, &used)| {
                !used
                    && inj.kind == FaultKind::KernelLaunchFail
                    && match inj.trigger {
                        Trigger::AtCount(at) => range.contains(&at),
                        Trigger::AtTime(t) => now_ns >= t,
                    }
            });
        if armed || (self.plan.launch_fail_rate > 0.0 && self.in_window(now_ns)) {
            return false;
        }
        self.launches += n;
        true
    }

    /// Queries the next host↔device DMA at simulated time `now_ns`.
    pub fn transfer(&mut self, now_ns: u64) -> Option<TaskError> {
        let idx = self.transfers;
        self.transfers += 1;
        if self.explicit(FaultKind::TransferTimeout, idx, now_ns)
            || self.rate_hit(SALT_TRANSFER, idx, self.plan.transfer_timeout_rate, now_ns)
        {
            Some(TaskError::TransferTimedOut)
        } else {
            None
        }
    }

    /// Queries whether this batch's streams stall; returns the stall
    /// length. Checked once per batch.
    pub fn stream_stall(&mut self, now_ns: u64) -> Option<u64> {
        let idx = self.batches;
        self.batches += 1;
        if self.explicit(FaultKind::StreamStall, idx, now_ns)
            || self.rate_hit(SALT_STALL, idx, self.plan.stream_stall_rate, now_ns)
        {
            Some(self.plan.stall_ns)
        } else {
            None
        }
    }

    /// True when the device is lost at or before `now_ns`. Fires once;
    /// after the driver-level reset (`GpuDevice::revive`) the plan's
    /// loss instant is spent.
    pub fn device_lost(&mut self, now_ns: u64) -> bool {
        if self.device_lost_fired {
            return false;
        }
        let planned = self.plan.device_lost_at_ns.is_some_and(|t| now_ns >= t);
        if planned || self.explicit(FaultKind::DeviceLost, 0, now_ns) {
            self.device_lost_fired = true;
            return true;
        }
        false
    }

    /// Queries the next outbound network message; true = dropped.
    pub fn message_dropped(&mut self, now_ns: u64) -> bool {
        let idx = self.messages;
        self.messages += 1;
        self.explicit(FaultKind::DroppedMessage, idx, now_ns)
            || self.rate_hit(SALT_MESSAGE, idx, self.plan.message_drop_rate, now_ns)
    }

    /// Counts dropped messages among the next `n_msgs` sends.
    pub fn dropped_messages(&mut self, n_msgs: u64, now_ns: u64) -> u64 {
        if self.is_inert() {
            // Keep the counter advancing without a per-message loop on
            // the fault-free path.
            self.messages += n_msgs;
            return 0;
        }
        (0..n_msgs).filter(|_| self.message_dropped(now_ns)).count() as u64
    }

    /// The node's straggler multiplier (1.0 = keeps pace).
    pub fn straggler_multiplier(&self) -> f64 {
        self.plan.straggler_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.is_inert());
        for t in [0, 1_000, u64::MAX] {
            assert_eq!(inj.kernel_launch(t), None);
            assert_eq!(inj.transfer(t), None);
            assert_eq!(inj.stream_stall(t), None);
            assert!(!inj.device_lost(t));
            assert!(!inj.message_dropped(t));
        }
        assert_eq!(inj.dropped_messages(1_000, 0), 0);
        assert_eq!(inj.straggler_multiplier(), 1.0);
    }

    #[test]
    fn seeded_rates_are_replayable() {
        let plan = FaultPlan::seeded(42)
            .with_launch_fail_rate(0.2)
            .with_transfer_timeout_rate(0.1);
        assert!(!plan.is_empty());
        let run = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..500)
                .map(|i| (inj.kernel_launch(i).is_some(), inj.transfer(i).is_some()))
                .collect::<Vec<_>>()
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same plan must inject identically");
        let launches = a.iter().filter(|(l, _)| *l).count();
        let transfers = a.iter().filter(|(_, t)| *t).count();
        assert!(
            (60..140).contains(&launches),
            "rate 0.2 → ~100, got {launches}"
        );
        assert!(
            (20..80).contains(&transfers),
            "rate 0.1 → ~50, got {transfers}"
        );
        // A different seed injects at different places.
        let c = run(&FaultPlan::seeded(43).with_launch_fail_rate(0.2));
        assert_ne!(
            a.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            c.iter().map(|(l, _)| *l).collect::<Vec<_>>()
        );
    }

    #[test]
    fn explicit_count_trigger_fires_exactly_once() {
        let plan =
            FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(2));
        let mut inj = FaultInjector::new(&plan);
        let hits: Vec<bool> = (0..6).map(|_| inj.kernel_launch(0).is_some()).collect();
        assert_eq!(hits, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn fault_free_launches_answer_as_one_query_each() {
        // (plan, n, now): which batched queries may skip the draws.
        let cases = [
            (FaultPlan::none(), 50, 0, true),
            // A rate outside its window is not in force.
            (
                FaultPlan::seeded(5)
                    .with_launch_fail_rate(0.3)
                    .with_window(1_000, 2_000),
                50,
                2_000,
                true,
            ),
            (
                FaultPlan::seeded(5).with_launch_fail_rate(0.3),
                50,
                0,
                false,
            ),
            // A count injection fires only inside the booked range.
            (
                FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(50)),
                50,
                0,
                true,
            ),
            (
                FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtCount(49)),
                50,
                0,
                false,
            ),
            // A time injection fires once its instant has come.
            (
                FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtTime(10)),
                50,
                9,
                true,
            ),
            (
                FaultPlan::none().with_injection(FaultKind::KernelLaunchFail, Trigger::AtTime(10)),
                50,
                10,
                false,
            ),
            // Other kinds never touch launches.
            (
                FaultPlan::none().with_injection(FaultKind::TransferTimeout, Trigger::AtCount(3)),
                50,
                0,
                true,
            ),
        ];
        for (plan, n, now, quiet) in cases {
            let mut batched = FaultInjector::new(&plan);
            let mut single = FaultInjector::new(&plan);
            assert_eq!(batched.launches_fault_free(n, now), quiet, "{plan:?}");
            let draws: Vec<_> = (0..n).map(|_| single.kernel_launch(now)).collect();
            if quiet {
                assert!(draws.iter().all(Option::is_none), "{plan:?}");
            } else {
                // Nothing was booked: the per-launch queries come next.
                for &want in &draws {
                    assert_eq!(batched.kernel_launch(now), want, "{plan:?}");
                }
            }
            // Both stand at launch `n` now.
            for _ in 0..60 {
                assert_eq!(batched.kernel_launch(now), single.kernel_launch(now));
            }
        }
    }

    #[test]
    fn explicit_time_trigger_fires_at_first_opportunity() {
        let plan =
            FaultPlan::none().with_injection(FaultKind::TransferTimeout, Trigger::AtTime(1_000));
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.transfer(500), None);
        assert_eq!(inj.transfer(1_500), Some(TaskError::TransferTimedOut));
        assert_eq!(inj.transfer(2_000), None, "time triggers are one-shot");
    }

    #[test]
    fn window_confines_rate_faults() {
        let plan = FaultPlan::seeded(7)
            .with_launch_fail_rate(1.0)
            .with_window(1_000, 2_000);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.kernel_launch(500), None, "before the window");
        assert!(inj.kernel_launch(1_000).is_some(), "window start inclusive");
        assert!(inj.kernel_launch(1_999).is_some());
        assert_eq!(inj.kernel_launch(2_000), None, "window end exclusive");
    }

    #[test]
    fn device_lost_fires_once_at_its_instant() {
        let plan = FaultPlan::none().with_device_lost_at(5_000);
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.device_lost(4_999));
        assert!(inj.device_lost(5_000));
        assert!(!inj.device_lost(6_000), "loss is one-shot (driver reset)");
    }

    #[test]
    fn stream_stall_reports_configured_length() {
        let plan = FaultPlan::seeded(3).with_stream_stalls(1.0, 77);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.stream_stall(0), Some(77));
    }

    #[test]
    fn message_drops_follow_rate() {
        let plan = FaultPlan::seeded(11).with_message_drop_rate(0.5);
        let mut inj = FaultInjector::new(&plan);
        let dropped = inj.dropped_messages(1_000, 0);
        assert!(
            (400..600).contains(&dropped),
            "rate 0.5 → ~500, got {dropped}"
        );
    }

    #[test]
    fn straggler_is_not_inert_but_injects_nothing() {
        let plan = FaultPlan::none().with_straggler(3.0);
        assert!(!plan.is_empty());
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.straggler_multiplier(), 3.0);
        assert_eq!(inj.kernel_launch(0), None);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rates are clamped in release")]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::none().with_launch_fail_rate(1.5);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rates are clamped in release")]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn nan_rate_rejected() {
        let _ = FaultPlan::none().with_message_drop_rate(f64::NAN);
    }

    #[test]
    fn boundary_rates_accepted() {
        // 0 and 1 are legal for every probability builder; 0 keeps the
        // plan inert, 1 fires on every draw.
        let inert = FaultPlan::none()
            .with_launch_fail_rate(0.0)
            .with_transfer_timeout_rate(0.0)
            .with_stream_stalls(0.0, 10)
            .with_message_drop_rate(0.0);
        assert!(inert.is_empty());
        let hot = FaultPlan::seeded(1)
            .with_launch_fail_rate(1.0)
            .with_transfer_timeout_rate(1.0)
            .with_stream_stalls(1.0, 10)
            .with_message_drop_rate(1.0);
        let mut inj = FaultInjector::new(&hot);
        assert!(inj.kernel_launch(0).is_some());
        assert!(inj.transfer(0).is_some());
        assert!(inj.stream_stall(0).is_some());
        assert!(inj.message_dropped(0));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_range_rates_clamp_in_release() {
        let mut inj = FaultInjector::new(&FaultPlan::seeded(1).with_launch_fail_rate(1.5));
        assert!(inj.kernel_launch(0).is_some(), "clamped to 1.0");
        let nan = FaultPlan::none().with_message_drop_rate(f64::NAN);
        assert!(nan.is_empty(), "NaN sanitized to 0.0");
    }

    #[test]
    fn node_faults_are_kept_in_order_and_break_inertness() {
        let plan = FaultPlan::none()
            .with_node_crash_at(5_000)
            .with_node_partition(9_000, 2_000)
            .with_node_rejoin_at(20_000);
        assert!(!plan.is_empty());
        let nf = plan.node_faults();
        assert_eq!(nf.len(), 3);
        assert_eq!(nf[0], NodeFault::CrashAt(5_000));
        assert_eq!(nf[0].at_ns(), 5_000);
        assert_eq!(nf[0].kind(), FaultKind::NodeCrash);
        assert_eq!(nf[1].at_ns(), 9_000);
        assert_eq!(nf[1].kind(), FaultKind::NodePartition);
        assert_eq!(nf[2].kind(), FaultKind::NodeRejoin);
        // Node faults never leak into the per-operation injector paths.
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.kernel_launch(6_000), None);
        assert!(!inj.message_dropped(6_000));
    }

    #[test]
    #[should_panic(expected = "partition must have non-zero duration")]
    fn zero_duration_partition_rejected() {
        let _ = FaultPlan::none().with_node_partition(1_000, 0);
    }

    #[test]
    fn task_errors_map_to_their_fault_kinds() {
        assert_eq!(TaskError::LaunchFailed.kind(), FaultKind::KernelLaunchFail);
        assert_eq!(
            TaskError::TransferTimedOut.kind(),
            FaultKind::TransferTimeout
        );
        assert_eq!(TaskError::StreamStalled.kind(), FaultKind::StreamStall);
        assert_eq!(TaskError::DeviceLost.kind(), FaultKind::DeviceLost);
        assert_eq!(TaskError::DeviceLost.to_string(), "device lost");
    }
}
