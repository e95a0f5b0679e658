//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p madness-bench --bin tablegen -- all
//! cargo run --release -p madness-bench --bin tablegen -- table1 fig5
//! ```

use madness_bench::{
    ablation, balance_report, chaos_report, dag_report, dispatch_report, faults_report, figures,
    kernels_report, serve_report, tables, trace_report,
};

fn hr(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    let t = tables::table1();
    hr(&format!(
        "Table I — Coulomb d=3 k=10 prec 1e-8, single node ({} tasks)\n\
         paper: CPU 132.5 s (1 thr) → 19.9 s (16 thr); GPU 71.3 s (1 str)\n\
         → 24.3 s (5 str, saturates); hybrid actual 14.4 s, optimal 12.1 s",
        t.tasks
    ));
    println!(
        "{:<14}{:>12}     {:<14}{:>12}",
        "CPU threads", "time (s)", "GPU streams", "time (s)"
    );
    for i in 0..t.cpu_rows.len().max(t.gpu_rows.len()) {
        let left = t
            .cpu_rows
            .get(i)
            .map(|(p, s)| format!("{p:<14}{s:>12.1}"))
            .unwrap_or_else(|| format!("{:<26}", ""));
        let right = t
            .gpu_rows
            .get(i)
            .map(|(st, s)| format!("{st:<14}{s:>12.1}"))
            .unwrap_or_default();
        println!("{left}     {right}");
    }
    println!(
        "\nhybrid (10 threads + 5 streams): actual {:.1} s, optimal overlap {:.1} s",
        t.hybrid_actual, t.hybrid_optimal
    );
}

fn table2() {
    let t = tables::table2();
    hr(&format!(
        "Table II — Coulomb d=3 k=20 prec 1e-10 ({} tasks)\n\
         paper: CPU-16 173.3 s | GPU 136.6 s | hybrid 99.0 s | optimal 76.2 s",
        t.tasks
    ));
    println!("CPU 16 threads        {:>10.1} s", t.cpu16);
    println!("GPU (cuBLAS)          {:>10.1} s", t.gpu);
    println!("CPU+GPU actual        {:>10.1} s", t.hybrid_actual);
    println!("CPU+GPU optimal       {:>10.1} s", t.hybrid_optimal);
}

fn shootout(rows: &[tables::KernelShootoutRow]) {
    println!(
        "{:<8}{:>16}{:>16}{:>10}",
        "nodes", "custom (s)", "cuBLAS (s)", "ratio"
    );
    for r in rows {
        println!(
            "{:<8}{:>16.1}{:>16.1}{:>10.2}",
            r.nodes,
            r.custom,
            r.cublas,
            r.ratio()
        );
    }
}

fn table3() {
    let (rows, tasks) = tables::table3();
    hr(&format!(
        "Table III — Coulomb d=3 k=10 prec 1e-10, even map ({tasks} tasks)\n\
         paper ratios: 2.80 / 2.25 / 2.29 / 2.21 (2→16 nodes)"
    ));
    shootout(&rows);
}

fn table4() {
    let (rows, tasks) = tables::table4();
    hr(&format!(
        "Table IV — Coulomb d=3 k=10 prec 1e-11, even map ({tasks} tasks; paper: 154,468)\n\
         paper ratios: 1.56 / 1.61 / 1.52 / 1.44 (16→100 nodes)"
    ));
    shootout(&rows);
}

fn table5() {
    let (rows, tasks) = tables::table5();
    hr(&format!(
        "Table V — Coulomb d=3 k=30 prec 1e-12, locality map ({tasks} tasks)\n\
         paper (2→8 nodes): CPU-rr 147/115/96/102 | CPU 447/299/201/205 |\n\
         GPU 212/90/35/37 | hybrid 172/60/25/25 | optimal 144/69/30/31"
    ));
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "nodes", "CPU rr (s)", "CPU (s)", "GPU (s)", "hybrid (s)", "optimal (s)"
    );
    for r in &rows {
        println!(
            "{:<8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>12.1}",
            r.nodes, r.cpu_rr, r.cpu_norr, r.gpu, r.hybrid_actual, r.hybrid_optimal
        );
    }
}

fn table6() {
    let (rows, tasks) = tables::table6();
    hr(&format!(
        "Table VI — 4-D TDSE k=14 prec 1e-14, 100–500 nodes ({tasks} tasks; paper: 542,113)\n\
         paper: CPU 985→648 | GPU 873→339 | hybrid 664→277 | speedup 1.4→2.3"
    ));
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "nodes", "CPU (s)", "GPU (s)", "hybrid (s)", "optimal (s)", "speedup"
    );
    for r in &rows {
        println!(
            "{:<8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>10.1}",
            r.nodes,
            r.cpu,
            r.gpu,
            r.hybrid_actual,
            r.hybrid_optimal,
            r.speedup()
        );
    }
}

fn fig(rows: &[figures::FigRow], title: &str) {
    hr(title);
    println!(
        "{:<6}{:>18}{:>18}{:>10}",
        "k", "custom (GFLOPS)", "cuBLAS (GFLOPS)", "ratio"
    );
    for r in rows {
        println!(
            "{:<6}{:>18.2}{:>18.2}{:>10.2}",
            r.k,
            r.custom_gflops,
            r.cublas_gflops,
            r.ratio()
        );
    }
}

fn future() {
    let f = tables::kepler_forecast();
    hr(
        "Future-work forecast (paper §VI) — Titan's Kepler upgrade,\n\
        GPU-only Coulomb d=3 k=10 (custom kernel, 5 streams)",
    );
    println!("Fermi M2090, full rank               {:>10.1} s", f.fermi);
    println!(
        "Fermi M2090, rank-reduced            {:>10.1} s   (no effect — §II-D)",
        f.fermi_rr
    );
    println!(
        "Kepler K20X, full rank               {:>10.1} s   ({:.2}× silicon)",
        f.kepler,
        f.fermi / f.kepler
    );
    println!(
        "Kepler K20X + dynamic-par. rank red. {:>10.1} s   ({:.2}× total)",
        f.kepler_rr,
        f.fermi / f.kepler_rr
    );
}

fn ablations() {
    hr("Ablations (DESIGN.md §6)");
    println!(
        "{:<52}{:>12}{:>12}{:>8}",
        "mechanism", "with (s)", "without (s)", "gain"
    );
    for a in ablation::all_ablations() {
        println!(
            "{:<52}{:>12.2}{:>12.2}{:>8.2}",
            a.name,
            a.with_mechanism,
            a.without_mechanism,
            a.gain()
        );
    }
}

fn trace() {
    hr("Trace — per-stage utilization, Table I workload\n\
         stage times + idle sum exactly to each mode's total (sweep-line\n\
         attribution over the SimTime-stamped journal)");
    let runs = trace_report::trace_table1();
    for run in &runs {
        print!("{}", trace_report::render(run));
    }
    if let Some(hybrid) = runs.last() {
        let json = hybrid.recorder.to_json();
        let path = std::path::Path::new("target").join("trace-table1.json");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("\nhybrid timeline written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn kernels(write_json: bool) {
    hr(
        "Kernels — per-(d,k) autotuned mtxmq kernel shootout, Apply hot path\n\
         scalar runtime-width / scalar const-width / AVX const-width /\n\
         cache-blocked candidates, bit-identity-gated, heuristic unless\n\
         beaten by 10 %; span counts from one counted Full-fidelity Apply run",
    );
    let r = kernels_report::kernels_table();
    print!("{}", kernels_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_kernels.json");
        match std::fs::write(path, kernels_report::to_json(&r)) {
            Ok(()) => println!("\nkernel shootout written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn dispatch() {
    hr(
        "Dispatch — adaptive dispatcher trajectory, Table I workload\n\
         per-flush k / m_hat / n_hat from the EWMA feedback loop\n\
         (probe -> steady), against the model-informed static k*",
    );
    let r = dispatch_report::dispatch_table1();
    print!("{}", dispatch_report::render(&r));
}

fn faults() {
    hr(
        "Faults — graceful degradation under injected faults, Table I workload\n\
         seeded schedules: launch failures, transfer timeouts, stream stalls,\n\
         device loss, straggler; recovery = retry/backoff -> CPU fallback ->\n\
         quarantine -> probing re-admission; conservation must hold everywhere",
    );
    let r = faults_report::faults_table1();
    print!("{}", faults_report::render(&r));
}

fn balance(write_json: bool) {
    hr(
        "Balance — dynamic load balancing, CostPartition-lumpy 16 nodes\n\
         depth-1 cost partition leaves half the cluster idle; steal and\n\
         epoch-repartition modes migrate whole batches over the shared\n\
         torus links; even control pins the no-regression contract",
    );
    let r = balance_report::balance_table();
    print!("{}", balance_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_cluster.json");
        match std::fs::write(path, balance_report::to_json(&r)) {
            Ok(()) => println!("\ncluster trajectory point written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn serve(write_json: bool) {
    hr(
        "Serve — online serving, 2 Poisson tenants at 0.7x capacity, 4 nodes\n\
         requests batch per kind on their data-affine home node, queue by\n\
         tenant weight, and steal under the balance profit guard; exact\n\
         nearest-rank p50/p99/p999 sojourns and per-tenant SLO attainment",
    );
    let r = serve_report::serve_table();
    print!("{}", serve_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_serve.json");
        match std::fs::write(path, serve_report::to_json(&r)) {
            Ok(()) => println!("\nserve trajectory point written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn dag(write_json: bool) {
    hr(
        "Dag — chained-operator futures DAG, SCF + BSH-chain workloads, 2 nodes\n\
         completion-triggered dataflow vs the barrier-stepped baseline;\n\
         sweep-line inter-stage overlap, seeded fault retry/quarantine,\n\
         bit-identical replay pins on report and trace journal",
    );
    let r = dag_report::dag_table();
    print!("{}", dag_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_dag.json");
        match std::fs::write(path, dag_report::to_json(&r)) {
            Ok(()) => println!("\ndag trajectory point written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn dag_chaos(write_json: bool) {
    hr(
        "Dag-chaos — survivable DAG execution: a node crash one third into\n\
         a 3-node SCF schedule; frontier checkpoints fold lost lineage,\n\
         survivors replay it over contended links, and a copy of the\n\
         critical tail races a failing primary (first completion wins)",
    );
    let r = dag_report::dag_table();
    print!("{}", dag_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_dag.json");
        match std::fs::write(path, dag_report::to_json(&r)) {
            Ok(()) => println!("\ndag trajectory point written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

fn chaos(write_json: bool) {
    hr(
        "Chaos — survivable serving: node crash/partition/rejoin, hedged\n\
         requests, overload brownout; lineage re-executes from the epoch\n\
         checkpoint + delta ledger, every scenario conserves requests and\n\
         replays bit-identically on the same seed",
    );
    let r = chaos_report::chaos_table();
    print!("{}", chaos_report::render(&r));
    if write_json {
        let path = std::path::Path::new("BENCH_chaos.json");
        match std::fs::write(path, chaos_report::to_json(&r)) {
            Ok(()) => println!("\nchaos trajectory point written to {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig5",
    "fig6",
    "future",
    "ablations",
    "trace",
    "kernels",
    "dispatch",
    "faults",
    "balance",
    "serve",
    "dag",
    "dag-chaos",
    "chaos-serve",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--json` affects `kernels` (writes BENCH_kernels.json), `balance`
    // (writes BENCH_cluster.json), `serve` (writes BENCH_serve.json),
    // `dag`/`dag-chaos` (both write the full BENCH_dag.json), and
    // `chaos-serve` (writes BENCH_chaos.json).
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !EXPERIMENTS.contains(&a.as_str()))
    {
        eprintln!("unknown experiment '{bad}'");
        eprintln!(
            "usage: tablegen [--json] [all | {}]...",
            EXPERIMENTS.join(" | ")
        );
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("table3") {
        table3();
    }
    if want("table4") {
        table4();
    }
    if want("table5") {
        table5();
    }
    if want("table6") {
        table6();
    }
    if want("fig5") {
        fig(
            &figures::fig5(),
            "Figure 5 — (k²,k)×(k,k) batches of 60, custom vs cuBLAS\n\
             paper: custom ≈ 2.2× at small k; cuBLAS regime at large k",
        );
    }
    if want("fig6") {
        fig(
            &figures::fig6(),
            "Figure 6 — (k³,k)×(k,k) batches of 20 (4-D), custom vs cuBLAS\n\
             paper: cuBLAS preferred for 4-D work",
        );
    }
    if want("future") {
        future();
    }
    if want("ablations") {
        ablations();
    }
    if want("trace") {
        trace();
    }
    if want("kernels") {
        kernels(json);
    }
    if want("dispatch") {
        dispatch();
    }
    if want("faults") {
        faults();
    }
    if want("balance") {
        balance(json);
    }
    if want("serve") {
        serve(json);
    }
    if want("dag") {
        dag(json);
    }
    // `all` already regenerates BENCH_dag.json via `dag`; only run the
    // chaos-focused banner when asked for by name.
    if !run_all && args.iter().any(|a| a == "dag-chaos") {
        dag_chaos(json);
    }
    if want("chaos-serve") {
        chaos(json);
    }
}
