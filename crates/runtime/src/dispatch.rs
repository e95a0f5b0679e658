//! The dispatcher's CPU/GPU work split.
//!
//! "Consider that a CPU-only run takes time `m` and a GPU-only run takes
//! time `n`. The minimal computation time can be achieved by an optimal
//! CPU-GPU computation overlap … minimizing `max(mk, n(1−k))` …
//! The optimal CPU-GPU work overlap is achieved when `mk = n(1−k)`, so
//! `k = n/(m+n)`. The minimal runtime is thus `m·n/(m+n)`." (paper §II-A)

use madness_faults::GpuGate;

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
    /// Splits `n_tasks` by the optimal ratio for batch times `m` (CPU)
    /// and `n` (GPU).
    pub fn for_times(n_tasks: usize, m: f64, n: f64) -> SplitPlan {
        SplitPlan::for_share(n_tasks, optimal_split(m, n))
    }

    /// Rounds the continuous CPU share `k` to the nearest task — the one
    /// place a fraction becomes a conserving task split.
    pub fn for_share(n_tasks: usize, k: f64) -> SplitPlan {
        let cpu = (((n_tasks as f64) * k).round() as usize).min(n_tasks);
        SplitPlan {
            cpu_tasks: cpu,
            gpu_tasks: n_tasks - cpu,
        }
    }

    /// A device-health gate's override of whatever a dispatcher would
    /// plan, with the CPU share it amounts to: [`GpuGate::Closed`] routes
    /// the whole flush to the CPU, [`GpuGate::Probe`] sends exactly one
    /// canary task to the GPU, [`GpuGate::Open`] overrides nothing.
    pub fn gated(gate: GpuGate, n_tasks: usize) -> Option<(SplitPlan, f64)> {
        let gpu_tasks = match gate {
            GpuGate::Open => return None,
            GpuGate::Closed => 0,
            GpuGate::Probe => n_tasks.min(1),
        };
        let cpu_tasks = n_tasks - gpu_tasks;
        let k = if n_tasks == 0 {
            1.0
        } else {
            cpu_tasks as f64 / n_tasks as f64
        };
        Some((
            SplitPlan {
                cpu_tasks,
                gpu_tasks,
            },
            k,
        ))
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

    /// Total tasks covered by the plan.
    pub fn total(&self) -> usize {
        self.cpu_tasks + self.gpu_tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = SplitPlan::for_times(60, 24.3, 24.3);
        assert_eq!(p.total(), 60);
        assert_eq!(p.cpu_tasks, 30);
        let p2 = SplitPlan::for_times(61, 1.0, 3.0); // k = 0.75 → 46 CPU
        assert_eq!(p2.total(), 61);
        assert_eq!(p2.cpu_tasks, 46);
    }

    #[test]
    fn split_extremes() {
        assert_eq!(
            SplitPlan::all_cpu(7),
            SplitPlan {
                cpu_tasks: 7,
                gpu_tasks: 0
            }
        );
        assert_eq!(
            SplitPlan::all_gpu(7),
            SplitPlan {
                cpu_tasks: 0,
                gpu_tasks: 7
            }
        );
        let p = SplitPlan::for_times(10, 5.0, 0.0);
        assert_eq!(p.cpu_tasks, 0);
    }

    #[test]
    fn gate_overrides_the_plan() {
        assert_eq!(SplitPlan::gated(GpuGate::Open, 60), None);
        assert_eq!(
            SplitPlan::gated(GpuGate::Closed, 60),
            Some((SplitPlan::all_cpu(60), 1.0))
        );
        let probe = SplitPlan {
            cpu_tasks: 59,
            gpu_tasks: 1,
        };
        assert_eq!(
            SplitPlan::gated(GpuGate::Probe, 60),
            Some((probe, 59.0 / 60.0))
        );
        // A batch of one probes with its only task; an empty batch has
        // nothing to send.
        assert_eq!(
            SplitPlan::gated(GpuGate::Probe, 1),
            Some((SplitPlan::all_gpu(1), 0.0))
        );
        assert_eq!(
            SplitPlan::gated(GpuGate::Probe, 0),
            Some((SplitPlan::all_cpu(0), 1.0))
        );
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
