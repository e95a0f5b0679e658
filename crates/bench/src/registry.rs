//! The one table of experiments and the one loop `tablegen` runs over
//! it: names, usage string, banners, `--json` writes and the exit code
//! all come from [`EXPERIMENTS`].

use crate::report::Report;
use crate::{
    ablation, balance_report, chaos_report, dag_report, dispatch_report, faults_report, figures,
    kernels_report, serve_report, tables, trace_report,
};
use std::path::Path;

/// One row of the registry: a name `tablegen` accepts and what it runs.
pub struct Experiment {
    /// The command-line name.
    pub name: &'static str,
    /// The heading printed between two rules above the report's text;
    /// `{tasks}` is replaced by [`Report::tasks`].
    pub banner: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Report,
    /// Runs only when asked for by name: a second banner over another
    /// row's `run`, which `all` has already printed once.
    pub by_name_only: bool,
}

const fn row(name: &'static str, banner: &'static str, run: fn() -> Report) -> Experiment {
    Experiment {
        name,
        banner,
        run,
        by_name_only: false,
    }
}

/// Every experiment, in the order `tablegen` runs them.
pub static EXPERIMENTS: [Experiment; 19] = [
    row(
        "table1",
        "Table I — Coulomb d=3 k=10 prec 1e-8, single node ({tasks} tasks)\n\
         paper: CPU 132.5 s (1 thr) → 19.9 s (16 thr); GPU 71.3 s (1 str)\n\
         → 24.3 s (5 str, saturates); hybrid actual 14.4 s, optimal 12.1 s",
        tables::table1_report,
    ),
    row(
        "table2",
        "Table II — Coulomb d=3 k=20 prec 1e-10 ({tasks} tasks)\n\
         paper: CPU-16 173.3 s | GPU 136.6 s | hybrid 99.0 s | optimal 76.2 s",
        tables::table2_report,
    ),
    row(
        "table3",
        "Table III — Coulomb d=3 k=10 prec 1e-10, even map ({tasks} tasks)\n\
         paper ratios: 2.80 / 2.25 / 2.29 / 2.21 (2→16 nodes)",
        || tables::shootout_report(tables::table3()),
    ),
    row(
        "table4",
        "Table IV — Coulomb d=3 k=10 prec 1e-11, even map ({tasks} tasks; paper: 154,468)\n\
         paper ratios: 1.56 / 1.61 / 1.52 / 1.44 (16→100 nodes)",
        || tables::shootout_report(tables::table4()),
    ),
    row(
        "table5",
        "Table V — Coulomb d=3 k=30 prec 1e-12, locality map ({tasks} tasks)\n\
         paper (2→8 nodes): CPU-rr 147/115/96/102 | CPU 447/299/201/205 |\n\
         GPU 212/90/35/37 | hybrid 172/60/25/25 | optimal 144/69/30/31",
        tables::table5_report,
    ),
    row(
        "table6",
        "Table VI — 4-D TDSE k=14 prec 1e-14, 100–500 nodes ({tasks} tasks; paper: 542,113)\n\
         paper: CPU 985→648 | GPU 873→339 | hybrid 664→277 | speedup 1.4→2.3",
        tables::table6_report,
    ),
    row(
        "fig5",
        "Figure 5 — (k²,k)×(k,k) batches of 60, custom vs cuBLAS\n\
         paper: custom ≈ 2.2× at small k; cuBLAS regime at large k",
        || figures::sweep_report(&figures::fig5()),
    ),
    row(
        "fig6",
        "Figure 6 — (k³,k)×(k,k) batches of 20 (4-D), custom vs cuBLAS\n\
         paper: cuBLAS preferred for 4-D work",
        || figures::sweep_report(&figures::fig6()),
    ),
    row(
        "future",
        "Future-work forecast (paper §VI) — Titan's Kepler upgrade,\n\
         GPU-only Coulomb d=3 k=10 (custom kernel, 5 streams)",
        tables::forecast_report,
    ),
    row("ablations", "Ablations (DESIGN.md §6)", ablation::report),
    row(
        "trace",
        "Trace — per-stage utilization, Table I workload\n\
         stage times + idle sum exactly to each mode's total (sweep-line\n\
         attribution over the SimTime-stamped journal)",
        trace_report::run,
    ),
    row(
        "kernels",
        "Kernels — per-(d,k) autotuned mtxmq kernel shootout, Apply hot path\n\
         scalar runtime-width / scalar const-width / AVX const-width /\n\
         cache-blocked candidates, bit-identity-gated, heuristic unless\n\
         beaten by 10 %; span counts from one counted Full-fidelity Apply run",
        kernels_report::run,
    ),
    row(
        "dispatch",
        "Dispatch — adaptive dispatcher trajectory, Table I workload\n\
         per-flush k / m_hat / n_hat from the EWMA feedback loop\n\
         (probe -> steady), against the model-informed static k*",
        dispatch_report::run,
    ),
    row(
        "faults",
        "Faults — graceful degradation under injected faults, Table I workload\n\
         seeded schedules: launch failures, transfer timeouts, stream stalls,\n\
         device loss, straggler; recovery = retry/backoff -> CPU fallback ->\n\
         quarantine -> probing re-admission; conservation must hold everywhere",
        faults_report::run,
    ),
    row(
        "balance",
        "Balance — dynamic load balancing, CostPartition-lumpy 16 nodes\n\
         depth-1 cost partition leaves half the cluster idle; steal and\n\
         epoch-repartition modes migrate whole batches over the shared\n\
         torus links; even control pins the no-regression contract",
        balance_report::run,
    ),
    row(
        "serve",
        "Serve — online serving, 2 Poisson tenants at 0.7x capacity, 4 nodes\n\
         requests batch per kind on their data-affine home node, queue by\n\
         tenant weight, and steal under the balance profit guard; exact\n\
         nearest-rank p50/p99/p999 sojourns and per-tenant SLO attainment",
        serve_report::run,
    ),
    row(
        "dag",
        "Dag — chained-operator futures DAG, SCF + BSH-chain workloads, 2 nodes\n\
         completion-triggered dataflow vs the barrier-stepped baseline;\n\
         sweep-line inter-stage overlap, seeded fault retry/quarantine,\n\
         bit-identical replay pins on report and trace journal",
        dag_report::run,
    ),
    Experiment {
        name: "dag-chaos",
        banner: "Dag-chaos — survivable DAG execution: a node crash one third into\n\
                 a 3-node SCF schedule; frontier checkpoints fold lost lineage,\n\
                 survivors replay it over contended links, and a copy of the\n\
                 critical tail races a failing primary (first completion wins)",
        run: dag_report::run,
        by_name_only: true,
    },
    row(
        "chaos-serve",
        "Chaos — survivable serving: node crash/partition/rejoin, hedged\n\
         requests, overload brownout; lineage re-executes from the epoch\n\
         checkpoint + delta ledger, every scenario conserves requests and\n\
         replays bit-identically on the same seed",
        chaos_report::run,
    ),
];

/// The usage line, listing every name of the registry.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!("usage: tablegen [--json] [all | {}]...", names.join(" | "))
}

/// The rows `names` ask for, in registry order: the named ones, plus —
/// for `all` or no name at all — every row not marked by-name-only.
/// `Err` carries the first name the registry does not know.
fn select<'a>(names: &[&'a str]) -> Result<Vec<&'static Experiment>, &'a str> {
    let known = |name: &str| name == "all" || EXPERIMENTS.iter().any(|e| e.name == name);
    if let Some(bad) = names.iter().find(|name| !known(name)) {
        return Err(bad);
    }
    let all = names.is_empty() || names.contains(&"all");
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.contains(&e.name) || (all && !e.by_name_only))
        .collect())
}

/// Runs `rows` in order. Each prints its banner and text, then writes
/// its artifact into `dir` if it is due (always, or `write_json`).
/// Returns the exit code: 1 if a write `write_json` asked for failed or
/// any gate of any row is false (named on stderr) — after everything
/// was printed and written — else 0. An always-written by-product that
/// cannot be written is reported on stderr and does not fail the run.
fn run_rows(rows: &[&Experiment], write_json: bool, dir: &Path) -> i32 {
    let rule = "================================================================";
    let mut failed = false;
    for e in rows {
        let report = (e.run)();
        let tasks = report.tasks.map_or(String::new(), |n| n.to_string());
        let banner = e.banner.replace("{tasks}", &tasks);
        print!("\n{rule}\n{banner}\n{rule}\n{}", report.text);
        if let Some(a) = report.artifact.filter(|a| a.always || write_json) {
            match std::fs::write(dir.join(a.path), &a.contents) {
                Ok(()) => println!("\n{} written to {}", a.what, a.path),
                Err(err) => {
                    eprintln!("\ncould not write {}: {err}", a.path);
                    failed |= !a.always;
                }
            }
        }
        for gate in report.gates.iter().filter(|g| !g.ok) {
            eprintln!("{}: gate {} is false", e.name, gate.label());
            failed = true;
        }
    }
    i32::from(failed)
}

/// The whole `tablegen` command line: `[--json] [all | <name>]...`,
/// running in the current directory. Returns the process exit code —
/// 2 (with the usage line on stderr) for a name the registry does not
/// know; otherwise 1 if a `--json` write failed or a gate of a requested
/// experiment is false (named on stderr), after everything was printed
/// and written; else 0.
pub fn tablegen(args: &[String]) -> i32 {
    let write_json = args.iter().any(|a| a == "--json");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--json")
        .collect();
    match select(&names) {
        Ok(rows) => run_rows(&rows, write_json, Path::new("")),
        Err(bad) => {
            eprintln!("unknown experiment '{bad}'");
            eprintln!("{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{gate, Artifact, Obj};

    fn names(rows: &[&Experiment]) -> Vec<&'static str> {
        rows.iter().map(|e| e.name).collect()
    }

    #[test]
    fn names_are_unique_and_all_in_the_usage_line() {
        let usage = usage();
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "{} listed twice",
                e.name
            );
            assert!(usage.contains(&format!(" {}", e.name)), "{usage}");
        }
        assert!(usage.starts_with("usage: tablegen [--json] [all | table1 | "));
    }

    #[test]
    fn all_runs_every_row_once_and_skips_the_second_dag_banner() {
        let all = select(&[]).expect("no name means all");
        assert_eq!(all.len(), EXPERIMENTS.len() - 1);
        assert!(!names(&all).contains(&"dag-chaos"));
        assert_eq!(names(&select(&["all"]).expect("known")), names(&all));
        assert_eq!(
            names(&select(&["table2", "all"]).expect("known")),
            names(&all)
        );
    }

    #[test]
    fn named_rows_run_in_registry_order_each_once() {
        let picked = select(&["dag-chaos", "fig5", "dag", "fig5"]).expect("known");
        assert_eq!(names(&picked), ["fig5", "dag", "dag-chaos"]);
    }

    #[test]
    fn unknown_names_exit_2() {
        assert_eq!(select(&["table1", "bench"]).err(), Some("bench"));
        // `bench` was a name once (the deleted wall-clock harness).
        assert_eq!(tablegen(&["bench".to_string()]), 2);
        assert_eq!(tablegen(&["--json".to_string(), "tabel1".to_string()]), 2);
    }

    fn passing() -> Report {
        let gates = vec![gate("holds", true)];
        let doc = Obj::new().gates(&gates);
        Report::bench(
            "body\n".into(),
            gates,
            "SYNTH.json",
            "synthetic point",
            &doc,
        )
    }

    fn failing() -> Report {
        Report {
            gates: vec![gate("holds", true), gate("breaks", false)],
            ..passing()
        }
    }

    /// Like the trace timeline: a best-effort by-product of every run.
    fn always() -> Report {
        Report {
            artifact: passing().artifact.map(|a| Artifact { always: true, ..a }),
            ..passing()
        }
    }

    /// The exit-code contract on synthetic reports: 0 only if every
    /// requested file landed and every gate holds; a false gate still
    /// prints and writes everything; a failed `--json` write never
    /// passes on a stale file.
    #[test]
    fn exit_code_is_1_on_a_false_gate_or_a_failed_write() {
        let synthetic = |run| row("synthetic", "Synthetic ({tasks} tasks)", run);
        let (pass, fail, timeline) = (synthetic(passing), synthetic(failing), synthetic(always));
        let dir = std::env::temp_dir().join(format!("tablegen-test-{}", std::process::id()));
        let file = dir.join("SYNTH.json");
        std::fs::create_dir_all(&dir).expect("temp dir");

        assert_eq!(run_rows(&[&pass], false, &dir), 0);
        assert!(!file.exists(), "no --json, no file");
        assert_eq!(run_rows(&[&timeline], false, &dir), 0);
        std::fs::remove_file(&file).expect("the by-product needs no --json");
        assert_eq!(run_rows(&[&fail, &pass], false, &dir), 1);
        assert_eq!(run_rows(&[&fail], true, &dir), 1);
        let written = std::fs::read_to_string(&file).expect("written despite the gate");
        assert_eq!(written, "{\n  \"holds\": true\n}\n");
        assert_eq!(run_rows(&[&pass], true, &dir), 0);

        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(run_rows(&[&pass], true, &dir), 1, "the write fails");
        assert_eq!(run_rows(&[&pass], false, &dir), 0, "nothing was due");
        assert_eq!(run_rows(&[&timeline], false, &dir), 0, "best-effort");
    }

    /// The contract of every deterministic experiment, from the one gate
    /// list (`kernels` is wall-clock; `bench_goldens.rs` covers it): every
    /// gate holds, and no two gates of a report fail under one label.
    #[test]
    fn every_simulated_experiment_passes_its_uniquely_labelled_gates() {
        let rows = select(&[]).expect("all");
        let mut gated = 0;
        for e in rows.iter().filter(|e| e.name != "kernels") {
            let gates = (e.run)().gates;
            for (i, gate) in gates.iter().enumerate() {
                assert!(gate.ok, "{}: gate {} is false", e.name, gate.label());
                let twice = gates[..i].iter().any(|g| g.label() == gate.label());
                assert!(!twice, "{}: two gates named {}", e.name, gate.label());
            }
            gated += gates.len();
        }
        assert_eq!(gated, 22, "the 22 booleans of the four BENCH files");
    }
}
