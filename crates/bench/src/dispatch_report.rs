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

use crate::report::Report;
use crate::tables;
use madness_cluster::node::{NodeSim, ResourceMode};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_trace::{DispatchSample, MemRecorder};
use std::fmt::Write as _;

/// The two dispatchers' results on the same workload.
struct Trajectory {
    /// Per-flush samples from the adaptive run, in flush order.
    history: Vec<DispatchSample>,
    /// Mean `k*` the model-informed dispatcher chose.
    static_k: f64,
    /// Model-informed hybrid makespan (seconds).
    static_secs: f64,
    /// Adaptive hybrid makespan (seconds).
    adaptive_secs: f64,
}

/// Runs the Table I workload under both dispatchers.
fn trajectory() -> Trajectory {
    let s = tables::coulomb_scenario(10, 1e-8, 4_000, None);
    let n_tasks = s.total_tasks();
    let node = NodeSim::new(s.node_params.clone());
    let informed = node.simulate(&s.spec, n_tasks, ResourceMode::TABLE1_HYBRID);
    let adaptive = ResourceMode::AdaptiveHybrid {
        compute_threads: 10,
        data_threads: 5,
        streams: 5,
        kernel: KernelKind::CustomMtxmq,
    };
    let mut rec = MemRecorder::new();
    let (learned, _) = node.simulate_faulty(
        &s.spec,
        n_tasks,
        adaptive,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        &mut rec,
    );
    Trajectory {
        history: rec.metrics().dispatch_history().to_vec(),
        static_k: informed.mean_split_k,
        static_secs: informed.total.as_secs_f64(),
        adaptive_secs: learned.total.as_secs_f64(),
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

/// `tablegen dispatch`: the per-flush trajectory table.
pub(crate) fn run() -> Report {
    let r = trajectory();
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
        r.adaptive_secs / r.static_secs,
    );
    Report::printed(out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_probes_then_converges() {
        let r = trajectory();
        assert!(!r.history.is_empty());
        assert!(r.history[0].probe, "first flush must probe");
        let final_k = r.history.last().expect("non-empty").k;
        assert!(
            (final_k - r.static_k).abs() < 0.1,
            "final k {final_k} vs static k* {}",
            r.static_k
        );
        // 1.0 = learned the model-informed optimum exactly.
        let ratio = r.adaptive_secs / r.static_secs;
        assert!(ratio <= 1.10, "adaptive ratio {ratio:.3}");
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
