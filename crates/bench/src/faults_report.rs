//! The `tablegen faults` report: graceful degradation under injected
//! faults on the Table I workload.
//!
//! Runs the single-node hybrid pipeline fault-free, then replays the
//! same workload under a ladder of deterministic fault schedules —
//! kernel-launch failures, transfer timeouts, stream stalls, a device
//! loss, a straggler — and prints each schedule's makespan degradation
//! next to the recovery ledger (retries, CPU fallbacks, quarantines,
//! re-admissions). The conservation column is the contract: every task
//! completes exactly once under every schedule.

use crate::report::Report;
use crate::tables;
use madness_cluster::node::{FaultSummary, NodeSim, ResourceMode};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_trace::NullRecorder;
use std::fmt::Write as _;

/// One fault schedule's outcome on the fixed workload.
struct FaultRow {
    /// Human label of the schedule.
    label: &'static str,
    /// Makespan under the schedule (seconds).
    secs: f64,
    /// Recovery ledger.
    summary: FaultSummary,
    /// Task conservation held (must always be true).
    conserved: bool,
}

/// The schedule ladder: fault-free first (the yardstick every other
/// row's degradation is measured against), then one fault class at a
/// time, then everything at once. Seeds are fixed so the report is
/// reproducible run to run.
fn schedules() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("(fault-free)", FaultPlan::none()),
        (
            "launch fail 5%",
            FaultPlan::seeded(101).with_launch_fail_rate(0.05),
        ),
        (
            "launch fail 20%",
            FaultPlan::seeded(102).with_launch_fail_rate(0.20),
        ),
        (
            "transfer timeout 10%",
            FaultPlan::seeded(103).with_transfer_timeout_rate(0.10),
        ),
        (
            "stream stalls 10% x 2 ms",
            FaultPlan::seeded(104).with_stream_stalls(0.10, 2_000_000),
        ),
        (
            "device lost @ 10 ms",
            FaultPlan::none().with_device_lost_at(10_000_000),
        ),
        ("straggler 2x", FaultPlan::none().with_straggler(2.0)),
        (
            "all of the above",
            FaultPlan::seeded(105)
                .with_launch_fail_rate(0.20)
                .with_transfer_timeout_rate(0.10)
                .with_stream_stalls(0.10, 2_000_000)
                .with_device_lost_at(10_000_000)
                .with_straggler(2.0),
        ),
    ]
}

/// Runs the ladder on the Table I workload; returns the task count of
/// every run and one row per schedule.
fn ladder() -> (u64, Vec<FaultRow>) {
    let s = tables::coulomb_scenario(10, 1e-8, 4_000, None);
    let n_tasks = s.total_tasks();
    let node = NodeSim::new(s.node_params.clone());
    let rows = schedules()
        .into_iter()
        .map(|(label, plan)| {
            let (report, summary) = node.simulate_faulty(
                &s.spec,
                n_tasks,
                ResourceMode::TABLE1_HYBRID,
                &plan,
                RecoveryPolicy::default(),
                &mut NullRecorder,
            );
            FaultRow {
                label,
                secs: report.total.as_secs_f64(),
                summary,
                conserved: summary.conserved(n_tasks),
            }
        })
        .collect();
    (n_tasks, rows)
}

/// `tablegen faults`: the degradation table.
pub(crate) fn run() -> Report {
    let (tasks, rows) = ladder();
    let clean_secs = rows[0].secs;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26}{:>9}{:>8}{:>8}{:>8}{:>9}{:>6}{:>7}{:>11}",
        "schedule",
        "time (s)",
        "xclean",
        "fails",
        "retry",
        "fallback",
        "quar",
        "readm",
        "conserved"
    );
    for row in &rows {
        let s = &row.summary;
        let _ = writeln!(
            out,
            "{:<26}{:>9.1}{:>8.2}{:>8}{:>8}{:>9}{:>6}{:>7}{:>11}",
            row.label,
            row.secs,
            row.secs / clean_secs,
            s.gpu_task_failures,
            s.gpu_retries,
            s.cpu_fallback_tasks,
            s.quarantines,
            s.readmissions,
            if row.conserved { "yes" } else { "LOST TASKS" },
        );
    }
    let _ = writeln!(
        out,
        "\n{tasks} tasks per run; every schedule is seeded and replays bit-identically"
    );
    Report::printed(out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_conserves_and_degrades_sanely() {
        let (_, rows) = ladder();
        let clean_secs = rows[0].secs;
        assert!(clean_secs > 0.0);
        assert_eq!(rows[0].summary.gpu_task_failures, 0, "row 0 is fault-free");
        for row in &rows {
            assert!(row.conserved, "{}: {:?}", row.label, row.summary);
            assert!(
                row.secs >= clean_secs * 0.95,
                "{} finished implausibly fast: {} vs clean {}",
                row.label,
                row.secs,
                clean_secs
            );
        }
        // The straggler row must roughly double the makespan.
        let straggler = &rows[6];
        let ratio = straggler.secs / clean_secs;
        assert!((1.5..2.5).contains(&ratio), "straggler ratio {ratio:.2}");
        // The kitchen-sink row must show actual recovery activity.
        let sink = &rows[7].summary;
        assert!(sink.gpu_task_failures > 0, "{sink:?}");
        assert!(sink.quarantines >= 1, "{sink:?}");
    }
}
