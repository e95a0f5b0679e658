//! The `tablegen dag` report: chained-operator workloads through the
//! DAG scheduler, dataflow vs. the barrier-synchronized baseline.
//!
//! The pinned workload is the two chained scenarios of `madness-core`
//! — a 3-orbital SCF fixed point and a 3-lane BSH operator chain —
//! lowered to timing-only [`DagWorkload`]s (costs from the real trees'
//! sizes and operator ranks) and executed on 2 calibrated nodes. The
//! matrix runs each scenario in [`DagMode::Dataflow`] and
//! [`DagMode::Barrier`], plus a faulted dataflow row.
//!
//! The chaos section (the `tablegen dag-chaos` banner prints the same
//! report) crashes a node one third into a 3-node SCF schedule,
//! recovers via frontier fold + lineage replay, compares against the
//! naive restart baseline, and races a copy of the critical tail on a
//! skewed two-chain workload.

use crate::pinned::{calibrated_rate, ms, SPEC};
use crate::report::{
    gate, gate_line, replay, Gate, Json, Obj, Report, CONSERVED, NODE_LOSS_CONSERVED,
    REPLAY_IDENTICAL,
};
use madness_cluster::dag::{
    run_dag, run_dag_survivable, DagFaultSpec, DagMode, DagRunReport, DagSurvivalSpec, DagTask,
    DagWorkload, SurvivableDagReport,
};
use madness_cluster::network::NetworkModel;
use madness_cluster::node::NodeRate;
use madness_cluster::workload::WorkloadSpec;
use madness_core::{BshChainApp, BshChainConfig, ScfApp, ScfConfig};
use madness_faults::{NodeFault, NodeTimeline};
use madness_gpusim::SimTime;
use madness_trace::{NullRecorder, Recorder, Stage};
use std::fmt::Write as _;

/// Nodes in the pinned cluster.
const NODES: usize = 2;

/// Nodes in the pinned chaos cluster (one crashes, two survive).
const CHAOS_NODES: usize = 3;

/// What every run of the matrix shares: the calibrated affine node rate
/// and the network.
struct Cluster {
    rate: NodeRate,
    net: NetworkModel,
}

impl Cluster {
    fn run<R: Recorder>(
        &self,
        w: &DagWorkload,
        nodes: usize,
        mode: DagMode,
        faults: &DagFaultSpec,
        rec: &mut R,
    ) -> DagRunReport {
        run_dag(w, nodes, self.rate, &self.net, mode, faults, rec)
    }

    fn run_survivable<R: Recorder>(
        &self,
        w: &DagWorkload,
        nodes: usize,
        faults: &DagFaultSpec,
        surv: &DagSurvivalSpec,
        rec: &mut R,
    ) -> SurvivableDagReport {
        let mode = DagMode::Dataflow;
        run_dag_survivable(w, nodes, self.rate, &self.net, mode, faults, surv, rec)
    }
}

/// The seeded fault draw of the faulted row and of the chaos section.
fn faults() -> DagFaultSpec {
    DagFaultSpec {
        seed: 0xDA6_0001,
        fail_rate: 0.08,
        backoff: SimTime::from_micros(50),
        max_retries: 2,
    }
}

/// The skewed two-chain workload the speculation race runs on: chain 1
/// is heavier, so its tail carries the static critical path and is the
/// speculation target.
fn skewed_tail_workload() -> DagWorkload {
    let mut w = DagWorkload::new();
    let mut prev: Vec<Option<usize>> = vec![None; 2];
    for it in 0..4u32 {
        for c in 0..2u32 {
            let deps: Vec<usize> = prev[c as usize].into_iter().collect();
            let apply = w.push(DagTask {
                chain: c,
                step: it * 2,
                stage: Stage::CpuCompute,
                cost: 40 + 25 * c as u64,
                deps,
            });
            let upd = w.push(DagTask {
                chain: c,
                step: it * 2 + 1,
                stage: Stage::Postprocess,
                cost: 8 + 3 * c as u64,
                deps: vec![apply],
            });
            prev[c as usize] = Some(upd);
        }
    }
    w
}

/// The `"chaos"` object of the document, and the section of the one
/// gate that lives in it.
const CHAOS: &str = "chaos";

/// The chaos section's outcome.
#[derive(Debug)]
struct Chaos {
    crash_node: usize,
    crash_at_ns: u64,
    checkpoint_every: SimTime,
    /// The 3-node schedule without the crash.
    clean: DagRunReport,
    /// The crashed and recovered run, the attempt spans its journal
    /// holds, and whether it replayed bit-identically.
    rep: SurvivableDagReport,
    journaled: u64,
    replayed: bool,
    /// The naive baseline: declare the whole run lost at the crash and
    /// start over on the two survivors.
    restart_makespan_ns: u64,
    /// The first fault draw where racing a copy of the critical tail
    /// strictly beats the unspeculated run, as (seed, raced makespan,
    /// plain makespan, copies, cancelled).
    race: Option<(u64, u64, u64, u64, u64)>,
}

impl Chaos {
    /// The section's gates as its line prints them: conservation, the
    /// section's own replay pin (a field of the `"chaos"` object; the
    /// document carries the others at top level), then the two races.
    fn gates(&self) -> [Vec<Gate>; 3] {
        let rep = &self.rep;
        // Node loss keeps the widened attempt law — every attempt is a
        // completion, an injected failure, a crash-voided span or a
        // speculation copy — and the journal's attempt spans match the
        // report ledger exactly.
        let conserved = gate(
            NODE_LOSS_CONSERVED,
            rep.crashes == 1
                && rep.conserved(CHAOS_NODES)
                && self.journaled == rep.attempts_journaled,
        );
        // The chaos run replayed bit-identically (report and journal).
        let replayed = Gate {
            section: CHAOS,
            ..gate(REPLAY_IDENTICAL, self.replayed)
        };
        let races = vec![
            // Frontier recovery beats abandoning the schedule and
            // restarting from scratch on the survivors.
            gate(
                "recovery_not_slower_than_restart",
                rep.base.makespan.as_nanos() <= self.restart_makespan_ns,
            ),
            // Some seed makes the speculated tail strictly faster (the
            // copy wins the race past a failing primary).
            gate(
                "speculation_trims_critical_path",
                self.race
                    .is_some_and(|(_, raced_ns, plain_ns, ..)| raced_ns < plain_ns),
            ),
        ];
        [vec![conserved], vec![replayed], races]
    }
}

/// Runs the pinned node-loss scenario and the speculation seed scan.
fn chaos(cluster: &Cluster, scf_w: &DagWorkload) -> Chaos {
    // Crash node 1 one third into the clean 3-node schedule.
    let dataflow = DagMode::Dataflow;
    let clean = cluster.run(scf_w, CHAOS_NODES, dataflow, &faults(), &mut NullRecorder);
    let crash_node = 1usize;
    let crash_at_ns = clean.makespan.as_nanos() / 3;
    let checkpoint_every = SimTime::from_micros(200);
    let mut timeline = NodeTimeline::new(CHAOS_NODES);
    timeline.add(crash_node, NodeFault::CrashAt(crash_at_ns));
    let surv = DagSurvivalSpec {
        timeline,
        checkpoint_every,
        detect: SimTime::from_micros(100),
        speculate_tails: false,
    };
    let ((rep, journaled), replayed) = replay(|rec| {
        let rep = cluster.run_survivable(scf_w, CHAOS_NODES, &faults(), &surv, rec);
        let attempts = rec
            .spans()
            .filter(|s| s.stage != Stage::Migrate && s.stage != Stage::Recover);
        (rep, attempts.count() as u64)
    });

    let restart = cluster.run(
        scf_w,
        CHAOS_NODES - 1,
        dataflow,
        &faults(),
        &mut NullRecorder,
    );
    let restart_makespan_ns = crash_at_ns + restart.makespan.as_nanos();

    // Deterministic seed scan.
    let sw = skewed_tail_workload();
    let spec = DagSurvivalSpec {
        speculate_tails: true,
        ..DagSurvivalSpec::none(NODES)
    };
    let race = (0..200u64).find_map(|seed| {
        let f = DagFaultSpec {
            seed,
            fail_rate: 0.35,
            backoff: SimTime::from_micros(400),
            max_retries: 2,
        };
        let plain = cluster.run(&sw, NODES, dataflow, &f, &mut NullRecorder);
        let raced = cluster.run_survivable(&sw, NODES, &f, &spec, &mut NullRecorder);
        (raced.base.makespan < plain.makespan).then(|| {
            let raced_ns = raced.base.makespan.as_nanos();
            let (copies, cancelled) = (raced.speculative_copies, raced.cancelled_copies);
            (seed, raced_ns, plain.makespan.as_nanos(), copies, cancelled)
        })
    });
    Chaos {
        crash_node,
        crash_at_ns,
        checkpoint_every,
        clean,
        rep,
        journaled,
        replayed,
        restart_makespan_ns,
        race,
    }
}

/// The chaos section's printed lines and its `"chaos"` JSON object.
fn render_chaos(c: &Chaos, [conserved, replayed, races]: &[Vec<Gate>; 3]) -> (String, Obj) {
    let rep = &c.rep;
    let seed = c.race.map(|(seed, ..)| seed);
    let (_, spec_ns, nospec_ns, copies, cancelled) = c.race.unwrap_or_default();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "\nchaos: node {} of {} crashed at {:.3} ms (checkpoint every {:.3} ms)",
        c.crash_node,
        CHAOS_NODES,
        c.crash_at_ns as f64 / 1e6,
        ms(c.checkpoint_every),
    );
    let _ = writeln!(
        text,
        "  recovered {:.3} ms vs clean {:.3} ms vs restart {:.3} ms; \
         voided {}, replayed {}, migrated {} values ({} B), recovery {:.3} ms",
        ms(rep.base.makespan),
        ms(c.clean.makespan),
        c.restart_makespan_ns as f64 / 1e6,
        rep.voided,
        rep.replayed,
        rep.migrated_values,
        rep.migrated_bytes,
        rep.recovery_ns as f64 / 1e6,
    );
    let _ = writeln!(
        text,
        "  speculation: seed {:?} trims {:.3} ms -> {:.3} ms ({} copies, {} cancelled)",
        seed,
        nospec_ns as f64 / 1e6,
        spec_ns as f64 / 1e6,
        copies,
        cancelled,
    );
    let _ = writeln!(
        text,
        "{}; {CHAOS} {}; {}",
        gate_line(conserved),
        gate_line(replayed),
        gate_line(races)
    );

    let json = Obj::new()
        .field("nodes", CHAOS_NODES)
        .field("crash_node", c.crash_node)
        .field("crash_at_ns", c.crash_at_ns)
        .field("checkpoint_every_ns", c.checkpoint_every.as_nanos())
        .field("makespan_ns", rep.base.makespan.as_nanos())
        .field("clean_makespan_ns", c.clean.makespan.as_nanos())
        .field("restart_makespan_ns", c.restart_makespan_ns)
        .field("crashes", rep.crashes)
        .field("voided", rep.voided)
        .field("replayed", rep.replayed)
        .field("migrated_values", rep.migrated_values)
        .field("migrated_bytes", rep.migrated_bytes)
        .field("recovery_ns", rep.recovery_ns)
        .field("speculative_copies", rep.speculative_copies)
        .field("cancelled_copies", rep.cancelled_copies)
        .field("attempts_journaled", rep.attempts_journaled)
        .gates(replayed)
        .field("speculation_seed", seed)
        .field("spec_makespan_ns", spec_ns)
        .field("nospec_makespan_ns", nospec_ns);
    (text, json)
}

/// The pinned cluster and the two chained workloads, SCF then BSH.
fn pinned() -> (Cluster, DagWorkload, DagWorkload) {
    let scf = ScfApp::small(ScfConfig {
        orbitals: 3,
        ..ScfConfig::default()
    });
    let bsh = BshChainApp::small(BshChainConfig {
        lanes: 3,
        ..BshChainConfig::default()
    });
    let spec = WorkloadSpec {
        k: scf.cfg.k,
        rank: scf.op.rank(),
        ..SPEC
    };
    let cluster = Cluster {
        rate: calibrated_rate(&spec),
        net: NetworkModel::default(),
    };
    (cluster, scf.dag_workload(), bsh.dag_workload())
}

/// The scenario × mode matrix and its replay pins.
struct Matrix {
    /// (scenario, mode, outcome).
    rows: Vec<(&'static str, &'static str, DagRunReport)>,
    /// Whether every fault-free dataflow row replayed bit-identically …
    replayed: bool,
    /// … and whether the faulted one did.
    faulted_replayed: bool,
}

impl Matrix {
    fn row(&self, scenario: &str, mode: &str) -> &DagRunReport {
        let found = self.rows.iter().find(|r| r.0 == scenario && r.1 == mode);
        &found.expect("matrix is fixed").2
    }

    fn gates(&self) -> Vec<Gate> {
        let (clean, faulted) = (
            self.row("scf", "dataflow"),
            self.row("scf", "dataflow+faults"),
        );
        vec![
            // Every dataflow row shows nonzero inter-stage overlap,
            // every barrier row exactly zero (the sweep-line metric is
            // what the paper's asynchrony argument is about).
            gate(
                "overlap_positive",
                self.rows
                    .iter()
                    .all(|(_, mode, rep)| (*mode == "barrier") == (rep.overlap_ns == 0)),
            ),
            // Removing the barrier never lengthens the makespan.
            gate(
                "dataflow_not_slower",
                ["scf", "bsh-chain"]
                    .iter()
                    .all(|s| self.row(s, "dataflow").makespan <= self.row(s, "barrier").makespan),
            ),
            // Busy time, critical path and fault accounting are
            // consistent in every row.
            gate(
                CONSERVED,
                self.rows.iter().all(|(_, _, rep)| rep.conserved(NODES)),
            ),
            // Fault-free dataflow rows replay bit-identically (report
            // and trace journal JSON) …
            gate(REPLAY_IDENTICAL, self.replayed),
            // … and so does the faulted one, fault injection included.
            gate("faulted_replay_identical", self.faulted_replayed),
            // The faulted row injected failures, accounted every one as
            // a retry, a quarantine or an in-place exhaustion, and the
            // graph still completed (chained tasks never deadlock on a
            // failed predecessor).
            gate(
                "faults_absorbed",
                faulted.injected > 0
                    && faulted.injected
                        == faulted.retries + faulted.quarantines + faulted.exhausted
                    && faulted.tasks == clean.tasks
                    && faulted.makespan >= clean.makespan,
            ),
        ]
    }
}

/// Runs the pinned scenario × mode matrix and its replay pins: every
/// dataflow row carries one.
fn matrix(cluster: &Cluster, scf_w: &DagWorkload, bsh_w: &DagWorkload) -> Matrix {
    let none = DagFaultSpec::none();
    let (dataflow, barrier) = (DagMode::Dataflow, DagMode::Barrier);
    let mut rows = Vec::new();
    let mut replayed = true;
    for (scenario, w) in [("scf", scf_w), ("bsh-chain", bsh_w)] {
        let (flow, same) = replay(|rec| cluster.run(w, NODES, dataflow, &none, rec));
        replayed &= same;
        rows.push((scenario, "dataflow", flow));
        let stepped = cluster.run(w, NODES, barrier, &none, &mut NullRecorder);
        rows.push((scenario, "barrier", stepped));
    }
    let (faulted, faulted_replayed) =
        replay(|rec| cluster.run(scf_w, NODES, dataflow, &faults(), rec));
    rows.push(("scf", "dataflow+faults", faulted));
    Matrix {
        rows,
        replayed,
        faulted_replayed,
    }
}

/// `tablegen dag` / `dag-chaos`: the matrix, the chaos section, their
/// gates and `BENCH_dag.json`.
pub(crate) fn run() -> Report {
    let (cluster, scf_w, bsh_w) = pinned();
    let m = matrix(&cluster, &scf_w, &bsh_w);
    let gates = m.gates();
    let c = chaos(&cluster, &scf_w);
    let chaos_gates = c.gates();
    let (chaos_text, chaos_json) = render_chaos(&c, &chaos_gates);
    let [chaos_conserved, chaos_replayed, chaos_races] = chaos_gates;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<11}{:<17}{:>7}{:>13}{:>13}{:>13}{:>9}{:>7}",
        "scenario",
        "mode",
        "tasks",
        "makespan(ms)",
        "critpath(ms)",
        "overlap(ms)",
        "inject",
        "retry"
    );
    let mut results = Vec::new();
    for (scenario, mode, rep) in &m.rows {
        let _ = writeln!(
            text,
            "{:<11}{:<17}{:>7}{:>13.3}{:>13.3}{:>13.3}{:>9}{:>7}",
            scenario,
            mode,
            rep.tasks,
            ms(rep.makespan),
            ms(rep.critical_path),
            rep.overlap_ns as f64 / 1e6,
            rep.injected,
            rep.retries + rep.quarantines,
        );
        results.push(
            Obj::new()
                .field("scenario", *scenario)
                .field("mode", *mode)
                .field("tasks", rep.tasks)
                .field("makespan_ns", rep.makespan.as_nanos())
                .field("critical_path_ns", rep.critical_path.as_nanos())
                .field("overlap_ns", rep.overlap_ns)
                .field("busy_ns", rep.busy_ns)
                .field("injected", rep.injected)
                .field("retries", rep.retries)
                .field("quarantines", rep.quarantines)
                .field("exhausted", rep.exhausted),
        );
    }
    let per_task_ns = cluster.rate.per_task.as_nanos();
    let _ = writeln!(text, "\n{NODES} nodes, {per_task_ns} ns/task calibrated");
    let _ = writeln!(text, "{}", gate_line(&gates));
    text.push_str(&chaos_text);

    let top_level = [gates, chaos_conserved, chaos_races].concat();
    let doc = Obj::new()
        .field("schema", "madness-bench-dag-v2")
        .field("workload", "scf3+bshchain3-2node")
        .field("nodes", NODES)
        .field("per_task_ns", per_task_ns)
        .gates(&top_level)
        .field(CHAOS, Json::Obj(chaos_json))
        .field("results", results);
    let gates = [top_level, chaos_replayed].concat();
    Report::bench(text, gates, "BENCH_dag.json", "dag trajectory point", &doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_matrix_meets_the_acceptance_bars() {
        let (cluster, scf_w, bsh_w) = pinned();
        let m = matrix(&cluster, &scf_w, &bsh_w);
        assert_eq!(m.rows.len(), 5);
        for g in m.gates() {
            assert!(g.ok, "{} is false; rows: {:#?}", g.name, m.rows);
        }
    }

    #[test]
    fn chaos_section_meets_the_acceptance_bars() {
        let (cluster, scf_w, _) = pinned();
        let c = chaos(&cluster, &scf_w);
        for g in c.gates().concat() {
            assert!(g.ok, "{} is false; chaos: {c:#?}", g.label());
        }
        assert!(
            c.rep.voided + c.rep.replayed > 0,
            "the crash must cost lineage: {c:#?}"
        );
        assert!(c.rep.migrated_values > 0, "state must move: {c:#?}");
        let (.., copies, cancelled) = c.race.expect("a seed trims the tail");
        assert_eq!(copies, cancelled);
    }
}
