//! The dispatcher's CPU/GPU work split.
//!
//! "Consider that a CPU-only run takes time `m` and a GPU-only run takes
//! time `n`. The minimal computation time can be achieved by an optimal
//! CPU-GPU computation overlap … minimizing `max(mk, n(1−k))` …
//! The optimal CPU-GPU work overlap is achieved when `mk = n(1−k)`, so
//! `k = n/(m+n)`. The minimal runtime is thus `m·n/(m+n)`." (paper §II-A)

use crate::adaptive::{AdaptiveConfig, AdaptiveDispatcher, ModelSnapshot};
use crate::batcher::TaskKind;
use madness_faults::GpuGate;
use madness_gpusim::SimTime;
use madness_trace::{DispatchSample, Event, Recorder};

/// The closed form's domain. Every caller derives `m` and `n` from `u64`
/// nanoseconds (model batch times, EWMA'd measurements), so a NaN, an
/// infinity or a negative duration is a caller bug, not a numerical
/// artifact to be clamped away.
fn assert_times(m: f64, n: f64) {
    assert!(
        m.is_finite() && n.is_finite() && m >= 0.0 && n >= 0.0,
        "times must be finite and non-negative: m = {m}, n = {n}"
    );
}

/// Optimal fraction `k* = n/(m+n)` of tasks to send to the **CPU**, given
/// CPU-only time `m` and GPU-only time `n` for the whole batch.
///
/// Degenerate inputs: if both are zero the split is irrelevant (returns
/// 0.5); a zero `m` sends everything to the CPU (it is infinitely fast),
/// and symmetrically for `n`. The returned fraction is always in
/// `[0, 1]`.
///
/// # Panics
/// Panics on negative or non-finite inputs.
pub fn optimal_split(m: f64, n: f64) -> f64 {
    assert_times(m, n);
    if m + n == 0.0 {
        return 0.5;
    }
    n / (m + n)
}

/// [`optimal_split`] for **measured** times: both inputs are clamped to
/// a minimum floor before the closed form is applied.
///
/// The closed form treats a zero time as "that side is infinitely fast"
/// and routes everything to it — correct for a priori model times,
/// wrong for online measurements, where a zero means the probe was
/// empty or below the clock's resolution. A floored measurement reads
/// as "very fast" instead, so the split stays strictly inside `(0, 1)`
/// and a degenerate probe can never starve a backend forever.
///
/// # Panics
/// Panics on a non-positive or non-finite floor, or on negative or
/// non-finite times (same contract as [`optimal_split`] — checked
/// before flooring, which would otherwise turn a NaN into the floor).
pub fn measured_split(m: f64, n: f64, floor: f64) -> f64 {
    assert!(
        floor > 0.0 && floor.is_finite(),
        "measurement floor must be positive and finite"
    );
    assert_times(m, n);
    optimal_split(m.max(floor), n.max(floor))
}

/// The paper's ideal hybrid runtime `m·n/(m+n)` (assumes a 100 %
/// compute-intensive workload — the tables' "Optimal CPU-GPU Overlap"
/// column, which real runs sometimes beat and sometimes miss).
pub fn hybrid_optimal_time(m: f64, n: f64) -> f64 {
    assert_times(m, n);
    if m + n == 0.0 {
        return 0.0;
    }
    m * n / (m + n)
}

/// A concrete split of a task batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitPlan {
    /// Tasks the CPU threads take.
    pub cpu_tasks: usize,
    /// Tasks the GPU takes.
    pub gpu_tasks: usize,
}

impl SplitPlan {
    /// Rounds the continuous CPU share `k` to the nearest task — the one
    /// place a fraction becomes a conserving task split.
    pub(crate) fn for_share(n_tasks: usize, k: f64) -> SplitPlan {
        let cpu = (((n_tasks as f64) * k).round() as usize).min(n_tasks);
        SplitPlan {
            cpu_tasks: cpu,
            gpu_tasks: n_tasks - cpu,
        }
    }

    /// Everything on the CPU.
    pub fn all_cpu(n_tasks: usize) -> SplitPlan {
        SplitPlan {
            cpu_tasks: n_tasks,
            gpu_tasks: 0,
        }
    }

    /// Everything on the GPU.
    pub fn all_gpu(n_tasks: usize) -> SplitPlan {
        SplitPlan {
            cpu_tasks: 0,
            gpu_tasks: n_tasks,
        }
    }
}

/// Which resources compute a batch, and so which arm of [`Dispatcher`]
/// splits it. The real Apply pipeline takes it as its `ApplyResource`;
/// the node simulator's `GpuOnly`, `Hybrid` and `AdaptiveHybrid` modes
/// are `Gpu`, `Hybrid` and `Adaptive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPolicy {
    /// CPU threads only.
    Cpu,
    /// Simulated GPU only.
    Gpu,
    /// Dispatcher-split CPU + GPU at the static a-priori optimum: `k*`
    /// from the calibrated CPU model's `m` and the device's
    /// [`madness_gpusim::BatchEstimate`] `n` — kernels over the streams
    /// plus both transfers, the paper's GPU-only time (the paper's
    /// hybrid, told `m` and `n` in advance).
    Hybrid,
    /// Dispatcher-split CPU + GPU with the split **learned online**: a
    /// per-kind EWMA cost model fed, once per flush, by what both shares
    /// took on the simulated clock, bootstrapped by a 50/50 probe flush,
    /// with hysteresis ([`AdaptiveDispatcher`]). The dispatcher is never
    /// told `m` or `n`.
    Adaptive,
}

/// Fig. 3's dispatcher, for both clocks — the real Apply pipeline and
/// the node simulator make the same calls: told its [`SplitPolicy`]
/// once, it splits every flush, and under `Adaptive` owns the learned
/// cost model that the flushes feed back.
#[derive(Clone, Debug)]
pub struct Dispatcher {
    policy: SplitPolicy,
    /// `Some` iff [`SplitPolicy::Adaptive`].
    learned: Option<AdaptiveDispatcher>,
}

impl Dispatcher {
    /// A dispatcher for `policy` (the learned arm with default tuning).
    pub fn new(policy: SplitPolicy) -> Self {
        Dispatcher {
            policy,
            learned: (policy == SplitPolicy::Adaptive)
                .then(|| AdaptiveDispatcher::new(AdaptiveConfig::default())),
        }
    }

    /// Splits a flush of `n` tasks of `kind`; returns the plan and the
    /// CPU share `k` it amounts to. `Cpu` keeps everything. Otherwise,
    /// in order: the device-health `gate` overrides ([`GpuGate::Closed`]
    /// sends everything to the CPU, [`GpuGate::Probe`] one task to the
    /// GPU); the learned arm plans from its model; `Hybrid` asks
    /// `apriori` — only then — for the batch's CPU-only and GPU-only
    /// times `(m, n)` and takes `k* = n/(m+n)`; `Gpu` sends everything to
    /// the device. The learned arm journals its model as it stands after
    /// each flush's plan (a gated flush does not touch it) as an
    /// [`Event::Dispatch`], and the two policies with a share to decide
    /// journal `k` as an [`Event::Split`].
    pub fn plan<R: Recorder>(
        &mut self,
        kind: TaskKind,
        n: usize,
        gate: GpuGate,
        rec: &mut R,
        apriori: impl FnOnce() -> (SimTime, SimTime),
    ) -> (SplitPlan, f64) {
        let gated = match (self.policy, gate) {
            (SplitPolicy::Cpu, _) | (_, GpuGate::Closed) => Some(0),
            (_, GpuGate::Probe) => Some(n.min(1)),
            (_, GpuGate::Open) => None,
        };
        let (plan, k) = match (gated, &mut self.learned) {
            (Some(gpu_tasks), _) => {
                // The share rounds back to exactly `n - gpu_tasks` tasks.
                let cpu = n - gpu_tasks;
                let k = if n > 0 { cpu as f64 / n as f64 } else { 1.0 };
                (SplitPlan::for_share(n, k), k)
            }
            (None, Some(learned)) => {
                let decision = learned.plan(kind, n, 0);
                (decision.plan, decision.k)
            }
            (None, None) if self.policy == SplitPolicy::Hybrid => {
                let (m, gpu) = apriori();
                let k = optimal_split(m.as_secs_f64(), gpu.as_secs_f64());
                (SplitPlan::for_share(n, k), k)
            }
            (None, None) => (SplitPlan::all_gpu(n), 0.0),
        };
        if R::ENABLED {
            if let Some(learned) = &self.learned {
                let model = learned.model(kind).unwrap_or_default();
                rec.record(Event::Dispatch(DispatchSample {
                    k,
                    m_hat_ns: model.m_hat_ns,
                    n_hat_ns: model.n_hat_ns,
                    probe: gated.is_none() && !model.steady,
                }));
            }
            if matches!(self.policy, SplitPolicy::Hybrid | SplitPolicy::Adaptive) {
                rec.record(Event::Split(k));
            }
        }
        (plan, k)
    }

    /// Feeds back what a flush's shares took, `(tasks, nanoseconds)` a
    /// side ([`AdaptiveDispatcher::record`]). Only the learned arm learns.
    pub fn record(&mut self, kind: TaskKind, cpu: (usize, u64), gpu: (usize, u64)) {
        if let Some(learned) = &mut self.learned {
            learned.record(kind, cpu.0, cpu.1, gpu.0, gpu.1);
        }
    }

    /// Whether a GPU batch of `gpu_tasks` taking `gpu_ns` blew past the
    /// learned model's expectation, 4 × its per-task `n̂` (floored at
    /// 50 ns) a task — detection only: the batch ran, and its tasks must
    /// not be re-run. Without a learned GPU estimate there is no
    /// expectation and no timeout.
    pub fn timed_out(&self, kind: TaskKind, gpu_tasks: usize, gpu_ns: u64) -> bool {
        self.learned
            .as_ref()
            .is_some_and(|learned| learned.batch_timed_out(kind, gpu_tasks, gpu_ns))
    }

    /// A quarantined device was readmitted: the learned arm forgets its
    /// GPU side of `kind` and re-probes it.
    pub fn readmitted(&mut self, kind: TaskKind) {
        if let Some(learned) = &mut self.learned {
            learned.reset_gpu_model(kind);
        }
    }

    /// The learned arm's cost model for `kind`, if it has planned it.
    pub fn model(&self, kind: TaskKind) -> Option<ModelSnapshot> {
        self.learned.as_ref()?.model(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madness_trace::NullRecorder;

    #[test]
    fn equal_times_split_in_half() {
        assert_eq!(optimal_split(10.0, 10.0), 0.5);
        assert_eq!(hybrid_optimal_time(10.0, 10.0), 5.0);
    }

    #[test]
    fn faster_gpu_gets_more_work() {
        // GPU 3× faster (n = m/3) ⇒ CPU keeps k = (m/3)/(4m/3) = 1/4.
        let k = optimal_split(12.0, 4.0);
        assert!((k - 0.25).abs() < 1e-12);
    }

    #[test]
    fn optimal_time_beats_both_sides() {
        let (m, n) = (24.3, 24.3); // Table I: 10 CPU threads / 5 streams
        let opt = hybrid_optimal_time(m, n);
        assert!(opt < m && opt < n);
        assert!((opt - 12.15).abs() < 1e-9); // paper prints 12.1
    }

    #[test]
    fn table5_optimal_column_reproduced() {
        // Table V, 6 nodes: CPU-only 201 s, GPU-only 35 s ⇒ optimal ≈ 30 s.
        let opt = hybrid_optimal_time(201.0, 35.0);
        assert!((opt - 29.8).abs() < 0.2, "{opt}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(optimal_split(0.0, 0.0), 0.5);
        assert_eq!(optimal_split(0.0, 5.0), 1.0); // CPU free ⇒ all CPU
        assert_eq!(optimal_split(5.0, 0.0), 0.0); // GPU free ⇒ all GPU
        assert_eq!(hybrid_optimal_time(0.0, 0.0), 0.0);
    }

    #[test]
    fn split_plan_rounds_and_conserves() {
        let p = SplitPlan::for_share(60, optimal_split(24.3, 24.3));
        assert_eq!((p.cpu_tasks, p.gpu_tasks), (30, 30));
        let p2 = SplitPlan::for_share(61, optimal_split(1.0, 3.0)); // k = 0.75 → 46 CPU
        assert_eq!((p2.cpu_tasks, p2.gpu_tasks), (46, 15));
    }

    /// Every policy under every gate: the plan, `k`, and whether the
    /// a-priori times were asked for — `Hybrid`'s `(m, n)` = (3 ms, 1 ms).
    #[test]
    fn every_policy_under_every_gate() {
        use GpuGate::{Closed, Open, Probe};
        use SplitPolicy::{Adaptive, Cpu, Gpu, Hybrid};
        const KIND: TaskKind = TaskKind::new(0xD15, 0);
        let times = || (SimTime::from_millis(3), SimTime::from_millis(1));
        // Each dispatcher is warmed by one flush; the learned arm's probe
        // measures m̂ = 3 µs, n̂ = 1 µs a task, so k* = 0.25, which
        // hysteresis holds one step below the probe's 0.5.
        let steady = 0.5 - AdaptiveConfig::default().max_step;
        let cases = [
            (Cpu, Open, 60, 60, 1.0),
            (Cpu, Closed, 60, 60, 1.0),
            (Cpu, Probe, 60, 60, 1.0),
            (Gpu, Open, 60, 0, 0.0),
            (Gpu, Closed, 60, 60, 1.0),
            (Gpu, Probe, 60, 59, 59.0 / 60.0),
            (Gpu, Probe, 1, 0, 0.0),
            (Gpu, Probe, 0, 0, 1.0),
            (Hybrid, Open, 60, 15, 0.25),
            (Hybrid, Closed, 60, 60, 1.0),
            (Hybrid, Probe, 60, 59, 59.0 / 60.0),
            (
                Adaptive,
                Open,
                60,
                SplitPlan::for_share(60, steady).cpu_tasks,
                steady,
            ),
            (Adaptive, Closed, 60, 60, 1.0),
            (Adaptive, Probe, 60, 59, 59.0 / 60.0),
            (Adaptive, Probe, 1, 0, 0.0),
        ];
        for (policy, gate, n, cpu_tasks, k) in cases {
            let case = format!("{policy:?} under {gate:?}, n = {n}");
            let mut d = Dispatcher::new(policy);
            d.plan(KIND, 60, Open, &mut NullRecorder, times);
            d.record(KIND, (30, 90_000), (30, 30_000));
            let before = d.model(KIND);
            assert_eq!(
                before.is_some_and(|m| m.steady),
                policy == Adaptive,
                "{case}"
            );
            let mut asked = false;
            let got = d.plan(KIND, n, gate, &mut NullRecorder, || {
                asked = true;
                times()
            });
            let gpu_tasks = n - cpu_tasks;
            assert_eq!(
                got,
                (
                    SplitPlan {
                        cpu_tasks,
                        gpu_tasks
                    },
                    k
                ),
                "{case}"
            );
            assert_eq!(asked, (policy, gate) == (Hybrid, Open), "{case}");
            if gate != Open {
                // A gated flush leaves the learned model as it was.
                assert_eq!(d.model(KIND), before, "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = optimal_split(-1.0, 1.0);
    }

    #[test]
    fn measured_split_floors_degenerate_inputs() {
        // A 0 ns measurement must read "very fast", never "infinitely
        // fast": the split stays strictly inside (0, 1).
        let k = measured_split(0.0, 5_000.0, 50.0);
        assert!(k > 0.98 && k < 1.0, "{k}");
        let k = measured_split(5_000.0, 0.0, 50.0);
        assert!(k > 0.0 && k < 0.02, "{k}");
        // Both degenerate ⇒ both floored ⇒ even split.
        assert_eq!(measured_split(0.0, 0.0, 50.0), 0.5);
        // Healthy measurements pass through unchanged.
        assert_eq!(measured_split(12.0, 4.0, 1.0), optimal_split(12.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "floor must be positive")]
    fn zero_floor_rejected() {
        let _ = measured_split(1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn non_finite_time_rejected() {
        // Checked before flooring: `NaN.max(floor)` would read as `floor`.
        let _ = measured_split(f64::NAN, 5_000.0, 50.0);
    }
}
