//! The `tablegen trace` experiment: per-stage utilization of the Table I
//! workload from the trace journal.
//!
//! One node runs the Table I Coulomb scenario (`d = 3, k = 10,
//! prec 1e-8`) in each of the three resource modes with a
//! [`MemRecorder`] attached; the journal's spans are swept into a
//! [`StageBreakdown`], whose rows — by construction — sum exactly to the
//! mode's `NodeReport.total`. The hybrid journal is also exported as a
//! JSON timeline.

use crate::pinned::TABLE1_GPU;
use crate::report::{Artifact, Report};
use crate::tables::coulomb_scenario;
use madness_cluster::node::{NodeReport, NodeSim, ResourceMode};
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_trace::{MemRecorder, StageBreakdown};
use std::fmt::Write as _;

/// One traced run: the report, its journal, and the stage attribution.
struct TracedRun {
    /// Mode label for the printed table.
    label: &'static str,
    /// The node report (`breakdown` attributes exactly `report.total`).
    report: NodeReport,
    /// The recorded journal + metrics.
    recorder: MemRecorder,
    /// Sweep-line attribution of `[0, report.total)` to stages.
    breakdown: StageBreakdown,
}

/// Runs the Table I workload in CPU-only, GPU-only and hybrid modes with
/// tracing enabled; returns the three traced runs (hybrid last).
fn traced_runs() -> Vec<TracedRun> {
    let s = coulomb_scenario(10, 1e-8, 4_000, None);
    let n_tasks = s.total_tasks();
    let node = NodeSim::new(s.node_params.clone());
    let modes: [(&'static str, ResourceMode); 3] = [
        (
            "CPU only (16 threads)",
            ResourceMode::CpuOnly { threads: 16 },
        ),
        ("GPU only (5 streams)", TABLE1_GPU),
        ("hybrid (10 thr + 5 str)", ResourceMode::TABLE1_HYBRID),
    ];
    modes
        .into_iter()
        .map(|(label, mode)| {
            let mut recorder = MemRecorder::new();
            let (report, _) = node.simulate_faulty(
                &s.spec,
                n_tasks,
                mode,
                &FaultPlan::none(),
                RecoveryPolicy::default(),
                &mut recorder,
            );
            let breakdown = recorder.breakdown(report.total.as_nanos());
            TracedRun {
                label,
                report,
                recorder,
                breakdown,
            }
        })
        .collect()
}

/// Renders one traced run as a utilization table.
fn render(run: &TracedRun) -> String {
    let mut out = String::new();
    let total_s = run.report.total.as_secs_f64();
    let _ = writeln!(out, "\n{} — total {:.1} s", run.label, total_s);
    let _ = writeln!(out, "  {:<16}{:>12}{:>9}", "stage", "time (s)", "share");
    let mut rows: Vec<(&str, u64)> = run
        .breakdown
        .nonzero()
        .into_iter()
        .map(|(stage, ns)| (stage.name(), ns))
        .collect();
    if run.breakdown.unattributed_ns > 0 {
        rows.push(("(idle)", run.breakdown.unattributed_ns));
    }
    for (name, ns) in rows {
        let secs = ns as f64 / 1e9;
        let _ = writeln!(
            out,
            "  {:<16}{:>12.2}{:>8.1}%",
            name,
            secs,
            100.0 * secs / total_s
        );
    }
    let m = run.recorder.metrics();
    let _ = writeln!(
        out,
        "  batches: {} by size, {} by timer, {} by drain; tasks: {} gpu / {} cpu",
        m.counter("batch_flush_size"),
        m.counter("batch_flush_timer"),
        m.counter("batch_flush_drain"),
        m.counter("tasks_gpu"),
        m.counter("tasks_cpu"),
    );
    if let Some(rate) = m.cache_hit_rate() {
        let _ = writeln!(
            out,
            "  h-cache hit rate: {:.1}%  |  kernel launches: {}  |  pinned pool HWM: {:.1} MB",
            100.0 * rate,
            m.counter("kernel_launches"),
            m.gauge("pinned_pool_hwm_bytes") as f64 / (1 << 20) as f64,
        );
    }
    if !m.k_history().is_empty() {
        let _ = writeln!(
            out,
            "  dispatcher split k*: mean {:.3} over {} batches",
            m.mean_split(),
            m.k_history().len()
        );
    }
    out
}

/// `tablegen trace`: the three utilization tables; the hybrid journal
/// is offered as a JSON timeline on every run.
pub(crate) fn run() -> Report {
    let runs = traced_runs();
    Report {
        text: runs.iter().map(render).collect(),
        artifact: runs.last().map(|hybrid| Artifact {
            path: "target/trace-table1.json",
            what: "hybrid timeline",
            contents: hybrid.recorder.to_json(),
            always: true,
        }),
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `tablegen trace` acceptance check: every mode's stage times
    /// (plus any idle residue) sum to exactly `NodeReport.total`, and the
    /// pipeline's journal accounts for essentially the whole timeline.
    #[test]
    fn stage_times_sum_to_node_report_total() {
        let runs = traced_runs();
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert_eq!(
                run.breakdown.attributed_total_ns(),
                run.report.total.as_nanos(),
                "{}: attribution must tile the total",
                run.label
            );
            assert!(
                run.breakdown.unattributed_ns <= run.report.total.as_nanos() / 50,
                "{}: more than 2% of the timeline is idle/unjournaled",
                run.label
            );
        }
        // The hybrid run must journal both compute stages and a split
        // history. (CpuCompute overlaps the GPU lanes, so it may get no
        // *attributed* time — check the journal, not the breakdown.)
        let hybrid = runs.last().unwrap();
        assert!(
            hybrid
                .breakdown
                .stage_ns(madness_trace::Stage::KernelLaunch)
                > 0
        );
        assert!(hybrid
            .recorder
            .spans()
            .any(|s| s.stage == madness_trace::Stage::CpuCompute));
        assert!(!hybrid.recorder.metrics().k_history().is_empty());
        let json = hybrid.recorder.to_json();
        let back = MemRecorder::from_json(&json).expect("timeline parses");
        assert_eq!(back.to_json(), json);
    }
}
