//! The `tablegen dispatch` report: the adaptive dispatcher's learning
//! trajectory on the Table I workload.
//!
//! Runs the single-node pipeline twice — once with the model-informed
//! static dispatcher (`ResourceMode::Hybrid`), once with the online
//! learned one (`ResourceMode::AdaptiveHybrid`) — and prints the
//! per-flush trajectory the feedback loop journals: the chosen CPU share
//! `k`, the EWMA cost estimates `m̂`/`n̂` behind it, and whether the
//! flush was still probing. The static run's `k*` is the yardstick the
//! trajectory should converge to.

use crate::tables;
use madness_cluster::node::{NodeSim, ResourceMode};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_trace::{DispatchSample, MemRecorder};

/// The two dispatchers' results on the same workload.
#[derive(Clone, Debug)]
pub struct DispatchReport {
    /// Per-flush samples from the adaptive run, in flush order.
    pub history: Vec<DispatchSample>,
    /// Mean `k*` the model-informed dispatcher chose.
    pub static_k: f64,
    /// Model-informed hybrid makespan (seconds).
    pub static_secs: f64,
    /// Adaptive hybrid makespan (seconds).
    pub adaptive_secs: f64,
    /// Total Apply tasks in the run.
    pub tasks: u64,
}

impl DispatchReport {
    /// Adaptive makespan relative to the model-informed one (1.0 =
    /// learned the optimum exactly; the convergence tests pin ≤ 1.10).
    pub fn ratio(&self) -> f64 {
        self.adaptive_secs / self.static_secs
    }
}

fn modes() -> (ResourceMode, ResourceMode) {
    (
        ResourceMode::Hybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
        ResourceMode::AdaptiveHybrid {
            compute_threads: 10,
            data_threads: 5,
            streams: 5,
            kernel: KernelKind::CustomMtxmq,
        },
    )
}

/// Runs the Table I workload under both dispatchers.
pub fn dispatch_table1() -> DispatchReport {
    let s = tables::coulomb_scenario(10, 1e-8, 4_000, None);
    let n_tasks = s.total_tasks();
    let node = NodeSim::new(s.node_params.clone());
    let (static_mode, adaptive_mode) = modes();
    let informed = node.simulate(&s.spec, n_tasks, static_mode);
    let mut rec = MemRecorder::new();
    let (learned, _) = node.simulate_faulty(
        &s.spec,
        n_tasks,
        adaptive_mode,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        &mut rec,
    );
    DispatchReport {
        history: rec.metrics().dispatch_history().to_vec(),
        static_k: informed.mean_split_k,
        static_secs: informed.total.as_secs_f64(),
        adaptive_secs: learned.total.as_secs_f64(),
        tasks: n_tasks,
    }
}

/// Flush indices to print: everything when short, otherwise the learning
/// head in full plus a uniform sample of the steady tail.
fn rows_to_show(len: usize) -> Vec<usize> {
    if len <= 48 {
        return (0..len).collect();
    }
    let mut rows: Vec<usize> = (0..16).collect();
    let stride = (len - 16) / 24 + 1;
    rows.extend((16..len).step_by(stride));
    rows.extend(len - 4..len);
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Renders the trajectory table `tablegen dispatch` prints.
pub fn render(r: &DispatchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}{:<8}{:>8}{:>14}{:>14}{:>10}",
        "flush", "state", "k", "m_hat (us)", "n_hat (us)", "k-k*"
    );
    let shown = rows_to_show(r.history.len());
    let mut last: Option<usize> = None;
    for &i in &shown {
        if let Some(prev) = last {
            if i != prev + 1 {
                let _ = writeln!(out, "{:<8}", "...");
            }
        }
        last = Some(i);
        let s = &r.history[i];
        let _ = writeln!(
            out,
            "{:<8}{:<8}{:>8.3}{:>14.2}{:>14.2}{:>+10.3}",
            i + 1,
            if s.probe { "probe" } else { "steady" },
            s.k,
            s.m_hat_ns / 1e3,
            s.n_hat_ns / 1e3,
            s.k - r.static_k,
        );
    }
    let _ = writeln!(
        out,
        "\nstatic k* = {:.3}; adaptive {:.1} s vs model-informed {:.1} s ({:.3}x)",
        r.static_k,
        r.adaptive_secs,
        r.static_secs,
        r.ratio(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_probes_then_converges() {
        let r = dispatch_table1();
        assert!(r.tasks > 0);
        assert!(!r.history.is_empty());
        assert!(r.history[0].probe, "first flush must probe");
        let final_k = r.history.last().expect("non-empty").k;
        assert!(
            (final_k - r.static_k).abs() < 0.1,
            "final k {final_k} vs static k* {}",
            r.static_k
        );
        assert!(r.ratio() <= 1.10, "adaptive ratio {:.3}", r.ratio());
    }

    #[test]
    fn render_shows_probe_steady_and_summary() {
        let r = dispatch_table1();
        let text = render(&r);
        assert!(text.contains("probe"));
        assert!(text.contains("steady"));
        assert!(text.contains("static k*"));
    }

    #[test]
    fn row_sampling_keeps_head_and_tail() {
        let rows = rows_to_show(400);
        assert_eq!(rows[0], 0);
        assert_eq!(*rows.last().expect("non-empty"), 399);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert!(rows.len() < 60, "condensed view stays readable");
        assert_eq!(rows_to_show(10), (0..10).collect::<Vec<_>>());
    }
}
