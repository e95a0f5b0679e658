//! The adaptive feedback dispatcher: `k*` learned from measurements.
//!
//! [`crate::dispatch::SplitPlan::for_times`] needs the CPU and GPU batch
//! times `m` and `n` **a priori**. Real MADNESS does not have them — it
//! measures. This module closes the loop: a per-[`TaskKind`] cost model
//! (EWMA nanoseconds per task for each backend) is fed by measured span
//! timings, bootstrapped by a 50/50 probe flush, and re-derives
//! `k* = n̂/(m̂+n̂)` at every flush with three robustness guards:
//!
//! * **hysteresis** — the split moves at most [`AdaptiveConfig::max_step`]
//!   per flush, so one noisy measurement cannot slam all work to one side;
//! * **degenerate-measurement floor** — samples pass through
//!   [`crate::dispatch::measured_split`]'s minimum-time floor, so an
//!   empty or sub-clock-resolution probe reads "very fast", never
//!   "infinitely fast" (which would starve the other backend forever);
//! * **backpressure** — when the device's in-flight stream queue exceeds
//!   a depth threshold, the GPU share shrinks multiplicatively until the
//!   queue drains, bounding the memory pinned under outstanding batches.
//!
//! A starvation refresh re-routes one task to a backend that rounding
//! has kept idle for `REFRESH_EVERY` (16) consecutive
//! flushes, so its cost estimate can never go permanently stale.

use crate::batcher::TaskKind;
use crate::dispatch::{measured_split, SplitPlan};
use madness_faults::GpuGate;
use madness_trace::DispatchSample;
use std::collections::HashMap;

/// Minimum nanoseconds-per-task a measurement can report (the
/// degenerate-measurement floor).
const FLOOR_NS: f64 = 50.0;

/// Multiplicative GPU-share shrink per batch of excess queue depth.
const BACKPRESSURE_SHRINK: f64 = 0.5;

/// A backend left idle by rounding for this many consecutive flushes is
/// refreshed with one task so its estimate cannot go stale.
const REFRESH_EVERY: u64 = 16;

/// Consecutive over-depth observations before the watchdog trips.
const WATCHDOG_STRIKES: u32 = 3;

/// A GPU batch is declared timed out when its measured duration exceeds
/// this multiple of the cost model's expectation (only once the model is
/// steady — an unprobed model predicts nothing).
const TIMEOUT_FACTOR: f64 = 4.0;

/// Tuning knobs of the feedback loop.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// EWMA weight of a new measurement, in `(0, 1]` (1 = no smoothing).
    pub alpha: f64,
    /// Hysteresis: maximum change of `k` per flush, in `(0, 1]`.
    pub max_step: f64,
    /// In-flight GPU batches above which backpressure engages.
    pub backpressure_depth: usize,
    /// Queue depth at which the watchdog counts a strike. Deliberately
    /// above [`AdaptiveConfig::backpressure_depth`]: backpressure is the
    /// normal regulator, the watchdog only fires when backpressure has
    /// visibly failed to drain the device (a wedged stream, a dead
    /// device) — healthy runs must never trip it.
    pub watchdog_depth: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            alpha: 0.3,
            max_step: 0.15,
            backpressure_depth: 2,
            watchdog_depth: 6,
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        assert!(
            self.max_step > 0.0 && self.max_step <= 1.0,
            "max_step must be in (0, 1]"
        );
        assert!(
            self.watchdog_depth > self.backpressure_depth,
            "watchdog_depth must exceed backpressure_depth — backpressure \
             regulates first, the watchdog only catches its failure"
        );
    }
}

/// Which regime produced a [`DispatchDecision`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPhase {
    /// Cost model still bootstrapping: the flush is split 50/50 so both
    /// backends get measured.
    Probe,
    /// Both backends measured: `k*` comes from the EWMA cost model.
    Steady,
    /// GPU quarantined ([`GpuGate::Closed`]): everything routes to CPU.
    Quarantined,
    /// Quarantine expired ([`GpuGate::Probe`]): one probe task rides to
    /// the GPU, the rest stays on CPU until the probe succeeds.
    Readmitting,
}

/// One flush's split decision plus the model state it came from.
#[derive(Clone, Copy, Debug)]
pub struct DispatchDecision {
    /// The concrete task split (always conserves the batch).
    pub plan: SplitPlan,
    /// Continuous CPU share the plan was rounded from, in `[0, 1]`.
    pub k: f64,
    /// EWMA CPU nanoseconds per task (`0.0` while unprobed).
    pub m_hat_ns: f64,
    /// EWMA GPU nanoseconds per task (`0.0` while unprobed).
    pub n_hat_ns: f64,
    /// Probe or steady state.
    pub phase: DispatchPhase,
}

impl DispatchDecision {
    /// The decision as a trace-journal sample.
    pub fn sample(&self) -> DispatchSample {
        DispatchSample {
            k: self.k,
            m_hat_ns: self.m_hat_ns,
            n_hat_ns: self.n_hat_ns,
            probe: self.phase == DispatchPhase::Probe,
        }
    }
}

/// Per-kind model state.
#[derive(Clone, Copy, Debug, Default)]
struct KindModel {
    /// EWMA CPU ns/task (`None` until the first CPU measurement).
    m_hat: Option<f64>,
    /// EWMA GPU ns/task (`None` until the first GPU measurement).
    n_hat: Option<f64>,
    /// Last flush's continuous `k` (hysteresis anchor).
    k_prev: f64,
    /// Consecutive flushes rounding gave the CPU zero tasks.
    cpu_idle: u64,
    /// Consecutive flushes rounding gave the GPU zero tasks.
    gpu_idle: u64,
}

/// Snapshot of one kind's cost model (for reports and tests).
#[derive(Clone, Copy, Debug)]
pub struct ModelSnapshot {
    /// EWMA CPU nanoseconds per task (`0.0` while unprobed).
    pub m_hat_ns: f64,
    /// EWMA GPU nanoseconds per task (`0.0` while unprobed).
    pub n_hat_ns: f64,
    /// Whether both backends have been measured at least once.
    pub steady: bool,
}

/// The adaptive online dispatcher: one EWMA cost model per [`TaskKind`].
#[derive(Clone, Debug)]
pub struct AdaptiveDispatcher {
    config: AdaptiveConfig,
    models: HashMap<TaskKind, KindModel>,
    /// Consecutive over-[`AdaptiveConfig::watchdog_depth`] observations.
    watchdog_count: u32,
}

impl AdaptiveDispatcher {
    /// A dispatcher with the given tuning.
    ///
    /// # Panics
    /// Panics on out-of-range tuning values.
    pub fn new(config: AdaptiveConfig) -> Self {
        config.validate();
        AdaptiveDispatcher {
            config,
            models: HashMap::new(),
            watchdog_count: 0,
        }
    }

    /// The tuning knobs.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The current cost model for `kind`, if any flush has planned it.
    pub fn model(&self, kind: TaskKind) -> Option<ModelSnapshot> {
        self.models.get(&kind).map(|m| ModelSnapshot {
            m_hat_ns: m.m_hat.unwrap_or(0.0),
            n_hat_ns: m.n_hat.unwrap_or(0.0),
            steady: m.m_hat.is_some() && m.n_hat.is_some(),
        })
    }

    /// Decides the split for a flush of `n_tasks` tasks of `kind`, given
    /// the device's current in-flight queue depth.
    ///
    /// Until both backends are measured this is a 50/50 probe (a batch
    /// of one routes to whichever backend is unmeasured, CPU first);
    /// afterwards `k*` comes from the EWMA model with backpressure and
    /// hysteresis applied. The returned plan always conserves `n_tasks`.
    pub fn plan(
        &mut self,
        kind: TaskKind,
        n_tasks: usize,
        gpu_queue_depth: usize,
    ) -> DispatchDecision {
        self.plan_gated(kind, n_tasks, gpu_queue_depth, GpuGate::Open)
    }

    /// [`AdaptiveDispatcher::plan`] under a device-health gate: with
    /// [`GpuGate::Open`] this **is** `plan` (same state updates, same
    /// decision); [`GpuGate::Closed`] routes the whole flush to the CPU
    /// without touching the model; [`GpuGate::Probe`] sends exactly one
    /// task to the GPU so a recovering device proves itself on minimal
    /// exposure.
    pub fn plan_gated(
        &mut self,
        kind: TaskKind,
        n_tasks: usize,
        gpu_queue_depth: usize,
        gate: GpuGate,
    ) -> DispatchDecision {
        let cfg = self.config;
        let model = self.models.entry(kind).or_default();
        let m_hat_ns = model.m_hat.unwrap_or(0.0);
        let n_hat_ns = model.n_hat.unwrap_or(0.0);
        if let Some((plan, k)) = SplitPlan::gated(gate, n_tasks) {
            return DispatchDecision {
                plan,
                k,
                m_hat_ns,
                n_hat_ns,
                phase: if gate == GpuGate::Closed {
                    DispatchPhase::Quarantined
                } else {
                    DispatchPhase::Readmitting
                },
            };
        }

        if model.m_hat.is_none() || model.n_hat.is_none() {
            // --- probe phase -------------------------------------------
            let k = 0.5;
            let mut plan = SplitPlan::for_share(n_tasks, k);
            if n_tasks == 1 {
                // Can't probe both sides; feed the unmeasured one.
                plan = if model.m_hat.is_none() {
                    SplitPlan::all_cpu(1)
                } else {
                    SplitPlan::all_gpu(1)
                };
            }
            model.k_prev = k;
            return DispatchDecision {
                plan,
                k,
                m_hat_ns,
                n_hat_ns,
                phase: DispatchPhase::Probe,
            };
        }

        // --- steady state: model → backpressure → hysteresis -----------
        let mut k = measured_split(m_hat_ns, n_hat_ns, FLOOR_NS);
        if gpu_queue_depth > cfg.backpressure_depth {
            let excess = (gpu_queue_depth - cfg.backpressure_depth) as i32;
            let gpu_share = (1.0 - k) * BACKPRESSURE_SHRINK.powi(excess);
            k = 1.0 - gpu_share;
        }
        k = k
            .clamp(model.k_prev - cfg.max_step, model.k_prev + cfg.max_step)
            .clamp(0.0, 1.0);
        model.k_prev = k;

        let mut plan = SplitPlan::for_share(n_tasks, k);
        // Starvation refresh: rounding may zero out a side for many
        // flushes; hand it one task before its estimate fossilizes.
        if n_tasks >= 2 {
            if plan.cpu_tasks == 0 {
                model.cpu_idle += 1;
                if model.cpu_idle >= REFRESH_EVERY {
                    plan = SplitPlan {
                        cpu_tasks: 1,
                        gpu_tasks: n_tasks - 1,
                    };
                }
            }
            if plan.gpu_tasks == 0 {
                model.gpu_idle += 1;
                if model.gpu_idle >= REFRESH_EVERY {
                    plan = SplitPlan {
                        cpu_tasks: n_tasks - 1,
                        gpu_tasks: 1,
                    };
                }
            }
        }
        if plan.cpu_tasks > 0 {
            model.cpu_idle = 0;
        }
        if plan.gpu_tasks > 0 {
            model.gpu_idle = 0;
        }

        DispatchDecision {
            plan,
            k,
            m_hat_ns,
            n_hat_ns,
            phase: DispatchPhase::Steady,
        }
    }

    /// Feeds back one flush's measured timings: `cpu_ns` spent computing
    /// `cpu_tasks` tasks on the CPU side, `gpu_ns` for `gpu_tasks` on the
    /// GPU side. A side with zero tasks contributes no sample. Samples
    /// are floored at [`FLOOR_NS`] per task (degenerate-
    /// measurement guard) before the EWMA update.
    pub fn record(
        &mut self,
        kind: TaskKind,
        cpu_tasks: usize,
        cpu_ns: u64,
        gpu_tasks: usize,
        gpu_ns: u64,
    ) {
        let cfg = self.config;
        let model = self.models.entry(kind).or_default();
        if cpu_tasks > 0 {
            let sample = (cpu_ns as f64 / cpu_tasks as f64).max(FLOOR_NS);
            model.m_hat = Some(ewma(model.m_hat, sample, cfg.alpha));
        }
        if gpu_tasks > 0 {
            let sample = (gpu_ns as f64 / gpu_tasks as f64).max(FLOOR_NS);
            model.n_hat = Some(ewma(model.n_hat, sample, cfg.alpha));
        }
    }

    /// Feeds the queue-depth watchdog one observation; returns `true`
    /// when [`WATCHDOG_STRIKES`] consecutive
    /// observations exceeded [`AdaptiveConfig::watchdog_depth`] — the
    /// backpressure regulator has failed to drain the device, so the
    /// caller should treat the device as stalled (quarantine it). The
    /// strike counter resets on every trip and on every healthy
    /// observation.
    pub fn queue_watchdog(&mut self, gpu_queue_depth: usize) -> bool {
        if gpu_queue_depth > self.config.watchdog_depth {
            self.watchdog_count += 1;
            if self.watchdog_count >= WATCHDOG_STRIKES {
                self.watchdog_count = 0;
                return true;
            }
        } else {
            self.watchdog_count = 0;
        }
        false
    }

    /// Whether a GPU batch of `gpu_tasks` tasks taking `actual_ns` blew
    /// past the cost model's expectation by more than
    /// [`TIMEOUT_FACTOR`]. Detection only — the batch
    /// already ran; callers must **not** re-execute its tasks (they
    /// completed, late), only penalize the device's health. Answers
    /// `false` while the model is unprobed: no expectation, no timeout.
    pub fn batch_timed_out(&self, kind: TaskKind, gpu_tasks: usize, actual_ns: u64) -> bool {
        if gpu_tasks == 0 {
            return false;
        }
        let Some(n_hat) = self.models.get(&kind).and_then(|m| m.n_hat) else {
            return false;
        };
        // The degenerate-measurement floor is per *task*, not per batch:
        // flooring the whole-batch expectation would under-floor large
        // batches of a fast kind and flag a healthy device as timed out.
        let expected = n_hat.max(FLOOR_NS) * gpu_tasks as f64;
        actual_ns as f64 > TIMEOUT_FACTOR * expected
    }

    /// Forgets the GPU side of `kind`'s cost model. Called on
    /// re-admission after a quarantine: the device behind the estimate
    /// was reset (cold cache, possibly different clocks), so the next
    /// flush re-probes it instead of trusting a dead device's history.
    pub fn reset_gpu_model(&mut self, kind: TaskKind) {
        if let Some(model) = self.models.get_mut(&kind) {
            model.n_hat = None;
            model.gpu_idle = 0;
        }
    }
}

fn ewma(prev: Option<f64>, sample: f64, alpha: f64) -> f64 {
    match prev {
        None => sample,
        Some(p) => alpha * sample + (1.0 - alpha) * p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::hybrid_optimal_time;

    const KIND: TaskKind = TaskKind::new(0xAD, 0);

    fn dispatcher() -> AdaptiveDispatcher {
        AdaptiveDispatcher::new(AdaptiveConfig::default())
    }

    /// Drives `flushes` batches of `b` tasks against true per-task costs
    /// `(mc, nc)` ns; returns the last decision.
    fn drive(
        d: &mut AdaptiveDispatcher,
        b: usize,
        flushes: usize,
        mc: f64,
        nc: f64,
    ) -> DispatchDecision {
        let mut last = None;
        for _ in 0..flushes {
            let dec = d.plan(KIND, b, 0);
            d.record(
                KIND,
                dec.plan.cpu_tasks,
                (dec.plan.cpu_tasks as f64 * mc) as u64,
                dec.plan.gpu_tasks,
                (dec.plan.gpu_tasks as f64 * nc) as u64,
            );
            last = Some(dec);
        }
        last.expect("at least one flush")
    }

    #[test]
    fn first_flush_is_a_5050_probe() {
        let mut d = dispatcher();
        let dec = d.plan(KIND, 60, 0);
        assert_eq!(dec.phase, DispatchPhase::Probe);
        assert_eq!(dec.plan.cpu_tasks, 30);
        assert_eq!(dec.plan.gpu_tasks, 30);
        assert_eq!((dec.m_hat_ns, dec.n_hat_ns), (0.0, 0.0));
        assert!(dec.sample().probe);
    }

    #[test]
    fn single_task_probe_feeds_the_unmeasured_side() {
        let mut d = dispatcher();
        let dec = d.plan(KIND, 1, 0);
        assert_eq!(dec.plan.cpu_tasks, 1, "CPU is probed first");
        d.record(KIND, 1, 5_000, 0, 0);
        let dec = d.plan(KIND, 1, 0);
        assert_eq!(dec.phase, DispatchPhase::Probe);
        assert_eq!(dec.plan.gpu_tasks, 1, "GPU still unmeasured");
    }

    #[test]
    fn converges_to_within_10pct_of_hybrid_optimal() {
        // Known per-backend costs the dispatcher is never told: CPU
        // 2500 ns/task, GPU 800 ns/task ⇒ k* = 800/3300 ≈ 0.242.
        let (mc, nc) = (2_500.0, 800.0);
        let b = 60;
        let mut d = dispatcher();
        let dec = drive(&mut d, b, 12, mc, nc);
        assert_eq!(dec.phase, DispatchPhase::Steady);
        let makespan = (dec.plan.cpu_tasks as f64 * mc).max(dec.plan.gpu_tasks as f64 * nc);
        let optimal = hybrid_optimal_time(b as f64 * mc, b as f64 * nc);
        assert!(
            makespan <= 1.10 * optimal,
            "converged makespan {makespan} vs optimal {optimal}"
        );
        assert!((dec.k - 800.0 / 3_300.0).abs() < 0.05, "k = {}", dec.k);
    }

    #[test]
    fn convergence_survives_measurement_noise() {
        // ±30 % deterministic “noise” on every sample.
        let (mc, nc) = (4_000.0, 1_000.0);
        let b = 60;
        let mut d = dispatcher();
        let mut dec = d.plan(KIND, b, 0);
        for i in 0..40 {
            let wobble = 1.0 + 0.3 * ((i * 2_654_435_761_u64 % 200) as f64 / 100.0 - 1.0);
            d.record(
                KIND,
                dec.plan.cpu_tasks,
                (dec.plan.cpu_tasks as f64 * mc * wobble) as u64,
                dec.plan.gpu_tasks,
                (dec.plan.gpu_tasks as f64 * nc * (2.0 - wobble)) as u64,
            );
            dec = d.plan(KIND, b, 0);
        }
        let k_star = nc / (mc + nc);
        assert!(
            (dec.k - k_star).abs() < 0.1,
            "k = {} vs k* = {k_star}",
            dec.k
        );
    }

    #[test]
    fn hysteresis_bounds_the_step_size() {
        let mut d = dispatcher();
        let max_step = d.config().max_step;
        // Probe at k = 0.5, then a wildly lopsided measurement.
        let dec = d.plan(KIND, 60, 0);
        d.record(
            KIND,
            dec.plan.cpu_tasks,
            1,
            dec.plan.gpu_tasks,
            u64::MAX / 2,
        );
        let dec2 = d.plan(KIND, 60, 0);
        assert!(
            (dec2.k - dec.k).abs() <= max_step + 1e-12,
            "step {} exceeded hysteresis {max_step}",
            (dec2.k - dec.k).abs()
        );
    }

    #[test]
    fn zero_ns_probe_does_not_starve_a_backend() {
        let mut d = dispatcher();
        let dec = d.plan(KIND, 60, 0);
        // GPU probe returns 0 ns (below clock resolution).
        d.record(KIND, dec.plan.cpu_tasks, 150_000, dec.plan.gpu_tasks, 0);
        // Even after many flushes of the same degenerate feedback the CPU
        // keeps getting tasks: the floor reads the GPU as "very fast",
        // not "infinitely fast", and hysteresis limits each step.
        for _ in 0..50 {
            let dec = d.plan(KIND, 60, 0);
            assert!(
                dec.plan.cpu_tasks > 0,
                "CPU starved at k = {} despite the floor",
                dec.k
            );
            d.record(
                KIND,
                dec.plan.cpu_tasks,
                dec.plan.cpu_tasks as u64 * 2_500,
                dec.plan.gpu_tasks,
                0,
            );
        }
    }

    #[test]
    fn starvation_refresh_reprobes_an_idle_side() {
        let cfg = AdaptiveConfig {
            max_step: 1.0, // let k jump straight to the extreme
            ..AdaptiveConfig::default()
        };
        let mut d = AdaptiveDispatcher::new(cfg);
        let dec = d.plan(KIND, 8, 0);
        // CPU measures 100× slower: k* ≈ 0.0099 rounds to 0 of 8 tasks.
        d.record(
            KIND,
            dec.plan.cpu_tasks,
            dec.plan.cpu_tasks as u64 * 500_000,
            dec.plan.gpu_tasks,
            dec.plan.gpu_tasks as u64 * 5_000,
        );
        let mut refreshed = false;
        for _ in 0..(REFRESH_EVERY + 2) {
            let dec = d.plan(KIND, 8, 0);
            if dec.plan.cpu_tasks > 0 {
                refreshed = true;
                break;
            }
            d.record(
                KIND,
                0,
                0,
                dec.plan.gpu_tasks,
                dec.plan.gpu_tasks as u64 * 5_000,
            );
        }
        assert!(refreshed, "idle CPU was never refreshed");
    }

    #[test]
    fn backpressure_shrinks_the_gpu_share() {
        let (mc, nc) = (2_500.0, 800.0);
        let mut d = dispatcher();
        drive(&mut d, 60, 12, mc, nc);
        let calm = d.clone().plan(KIND, 60, 0);
        let pressured = d.plan(KIND, 60, 8);
        assert!(
            pressured.plan.gpu_tasks < calm.plan.gpu_tasks,
            "queue depth 8 must shrink the GPU share: {} vs {}",
            pressured.plan.gpu_tasks,
            calm.plan.gpu_tasks
        );
        assert!(pressured.k > calm.k);
        assert_eq!(pressured.plan.total(), 60);
    }

    #[test]
    fn kinds_learn_independently() {
        let other = TaskKind::new(0xBEEF, 7);
        let mut d = dispatcher();
        drive(&mut d, 60, 10, 2_500.0, 800.0);
        // A fresh kind must re-probe, not inherit KIND's model.
        let dec = d.plan(other, 60, 0);
        assert_eq!(dec.phase, DispatchPhase::Probe);
        assert!(d.model(other).is_some_and(|m| !m.steady));
        assert!(d.model(KIND).is_some_and(|m| m.steady));
    }

    #[test]
    fn open_gate_is_plain_plan() {
        let mut a = dispatcher();
        let mut b = dispatcher();
        drive(&mut a, 60, 8, 2_500.0, 800.0);
        drive(&mut b, 60, 8, 2_500.0, 800.0);
        let pa = a.plan(KIND, 60, 1);
        let pb = b.plan_gated(KIND, 60, 1, GpuGate::Open);
        assert_eq!(pa.plan, pb.plan);
        assert_eq!(pa.k, pb.k);
        assert_eq!(pa.phase, pb.phase);
    }

    #[test]
    fn closed_gate_routes_everything_to_cpu() {
        let mut d = dispatcher();
        drive(&mut d, 60, 8, 2_500.0, 800.0);
        let dec = d.plan_gated(KIND, 60, 0, GpuGate::Closed);
        assert_eq!(dec.phase, DispatchPhase::Quarantined);
        assert_eq!(dec.plan, SplitPlan::all_cpu(60));
        assert_eq!(dec.k, 1.0);
        // The model survives the quarantine untouched.
        let after = d.plan(KIND, 60, 0);
        assert_eq!(after.phase, DispatchPhase::Steady);
    }

    #[test]
    fn probe_gate_sends_exactly_one_task() {
        let mut d = dispatcher();
        drive(&mut d, 60, 8, 2_500.0, 800.0);
        let dec = d.plan_gated(KIND, 60, 0, GpuGate::Probe);
        assert_eq!(dec.phase, DispatchPhase::Readmitting);
        assert_eq!(dec.plan.gpu_tasks, 1);
        assert_eq!(dec.plan.total(), 60);
        let empty = d.plan_gated(KIND, 0, 0, GpuGate::Probe);
        assert_eq!(empty.plan.total(), 0);
        let single = d.plan_gated(KIND, 1, 0, GpuGate::Probe);
        assert_eq!(single.plan.gpu_tasks, 1);
    }

    #[test]
    fn watchdog_needs_consecutive_strikes() {
        let mut d = dispatcher();
        let deep = d.config().watchdog_depth + 1;
        assert!(!d.queue_watchdog(deep));
        assert!(!d.queue_watchdog(deep));
        assert!(d.queue_watchdog(deep), "third consecutive strike trips");
        // Counter reset after the trip.
        assert!(!d.queue_watchdog(deep));
        // A healthy observation breaks the streak.
        assert!(!d.queue_watchdog(deep));
        assert!(!d.queue_watchdog(0));
        assert!(!d.queue_watchdog(deep));
        assert!(!d.queue_watchdog(deep));
    }

    #[test]
    fn watchdog_never_trips_at_backpressure_depths() {
        // Depths the backpressure regulator handles must not count as
        // strikes — otherwise healthy bursty runs would quarantine a
        // working device.
        let mut d = dispatcher();
        let bp = d.config().backpressure_depth + 1;
        assert!(bp <= d.config().watchdog_depth);
        for _ in 0..100 {
            assert!(!d.queue_watchdog(bp));
        }
    }

    #[test]
    fn timeout_needs_a_steady_model() {
        let mut d = dispatcher();
        assert!(
            !d.batch_timed_out(KIND, 10, u64::MAX),
            "no model, no expectation, no timeout"
        );
        drive(&mut d, 60, 8, 2_500.0, 800.0);
        // ~800 ns/task × 10 tasks: 8 µs expected, factor 4 ⇒ 32 µs line.
        assert!(!d.batch_timed_out(KIND, 10, 8_000));
        assert!(!d.batch_timed_out(KIND, 10, 30_000));
        assert!(d.batch_timed_out(KIND, 10, 60_000));
        assert!(
            !d.batch_timed_out(KIND, 0, u64::MAX),
            "no GPU tasks, no timeout"
        );
    }

    #[test]
    fn timeout_floor_is_per_task_at_the_boundary() {
        // A kind whose GPU probes measure below the clock floor: record
        // floors the sample, so n̂ sits exactly at floor_ns. The timeout
        // line must then scale as floor · tasks — a large batch gets the
        // full per-task floor, not one floor for the whole batch.
        let mut d = dispatcher();
        let floor = FLOOR_NS;
        let factor = TIMEOUT_FACTOR;
        d.record(KIND, 0, 0, 60, 0); // 0 ns for 60 tasks → floored
        let m = d.model(KIND).expect("model exists");
        assert_eq!(m.n_hat_ns, floor, "record floors per task");
        // 1000-task batch: line = factor · floor · 1000 = 200 µs.
        let line = (factor * floor * 1_000.0) as u64;
        assert!(!d.batch_timed_out(KIND, 1_000, line));
        assert!(d.batch_timed_out(KIND, 1_000, line + 1));
        // Single task: line = factor · floor.
        let line1 = (factor * floor) as u64;
        assert!(!d.batch_timed_out(KIND, 1, line1));
        assert!(d.batch_timed_out(KIND, 1, line1 + 1));
    }

    #[test]
    fn reset_gpu_model_forces_reprobe() {
        let mut d = dispatcher();
        drive(&mut d, 60, 8, 2_500.0, 800.0);
        assert!(d.model(KIND).is_some_and(|m| m.steady));
        d.reset_gpu_model(KIND);
        let m = d.model(KIND).expect("model exists");
        assert!(!m.steady);
        assert!(m.m_hat_ns > 0.0, "CPU side survives the reset");
        assert_eq!(m.n_hat_ns, 0.0);
        assert_eq!(d.plan(KIND, 60, 0).phase, DispatchPhase::Probe);
    }

    #[test]
    #[should_panic(expected = "watchdog_depth must exceed backpressure_depth")]
    fn watchdog_below_backpressure_rejected() {
        AdaptiveDispatcher::new(AdaptiveConfig {
            watchdog_depth: 1,
            backpressure_depth: 2,
            ..AdaptiveConfig::default()
        });
    }

    #[test]
    fn plans_always_conserve_tasks() {
        let mut d = dispatcher();
        for n in [0usize, 1, 2, 3, 59, 60, 61, 1000] {
            let dec = d.plan(KIND, n, 3);
            assert_eq!(dec.plan.total(), n);
            d.record(KIND, dec.plan.cpu_tasks, 1_000, dec.plan.gpu_tasks, 500);
        }
    }
}
