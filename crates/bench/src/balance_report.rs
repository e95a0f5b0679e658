//! The `tablegen balance` report: dynamic load balancing on the lumpy
//! `CostPartition` cluster workload.
//!
//! A depth-1 `CostPartitionMap` on 16 nodes can place work on at most
//! `2^d = 8` subtree roots, leaving half the cluster idle — the lumpy
//! population the ISSUE 5 balancer exists for. The report runs that
//! population under every [`BalanceMode`] next to an evenly partitioned
//! control, printing makespan, cluster balance, and the migration
//! ledger.

use crate::pinned::{cluster, SPEC};
use crate::report::{gate, gate_line, Gate, Obj, Report};
use madness_cluster::balance::{BalanceMode, BalanceReport};
use madness_cluster::node::ResourceMode;
use madness_cluster::workload::TaskPopulation;
use madness_mra::procmap::CostPartitionMap;
use madness_mra::synth::{synthesize_tree, SynthTreeParams};
use madness_trace::NullRecorder;
use std::fmt::Write as _;

/// Nodes in the pinned cluster.
const NODES: usize = 16;

/// The lumpy population: the acceptance workload of ISSUE 5 — a
/// depth-1 `CostPartition` map over a clustered 4,000-leaf tree on 16
/// nodes, times the 27 displacement probes of a Coulomb apply.
fn lumpy_population(n: usize) -> TaskPopulation {
    let tree = synthesize_tree(
        3,
        10,
        &SynthTreeParams {
            target_leaves: 4_000,
            centers: vec![vec![0.3, 0.4, 0.5]],
            width: 0.12,
            level_decay: 0.5,
            seed: 11,
            with_coeffs: false,
        },
    );
    let map = CostPartitionMap::build(&tree, 1, n);
    TaskPopulation::from_tree(&tree, SPEC, &map, n, 27)
}

/// The even control: same total task count spread uniformly.
fn even_population(n: usize, total: u64) -> TaskPopulation {
    let base = total / n as u64;
    let mut per_node = vec![base; n];
    per_node[0] += total - base * n as u64;
    TaskPopulation {
        spec: SPEC,
        per_node,
    }
}

/// One population under one balance mode.
struct Row {
    workload: &'static str,
    mode: &'static str,
    /// Makespan, seconds.
    secs: f64,
    /// Cluster balance (mean / max per-node busy time).
    balance: f64,
    /// The migration ledger.
    moved: BalanceReport,
}

/// The mode matrix on the lumpy and even populations.
struct Matrix {
    tasks: u64,
    /// Max / mean per-node tasks of the lumpy population.
    imbalance: f64,
    rows: Vec<Row>,
}

impl Matrix {
    fn row(&self, workload: &str, mode: &str) -> &Row {
        let found = |r: &&Row| r.workload == workload && r.mode == mode;
        self.rows.iter().find(found).expect("mode matrix is fixed")
    }

    /// Fraction of the static lumpy makespan that stealing removes.
    fn improvement(&self) -> f64 {
        1.0 - self.row("lumpy", "steal").secs / self.row("lumpy", "static").secs
    }

    fn gates(&self) -> Vec<Gate> {
        // The profit guard makes `Steal` structurally unable to regress
        // below `Static` on either population, so a `false` here is a
        // real bug, not bench noise. (Exact SimTime comparison happened
        // in the simulator; here both sides went through the same f64
        // rounding.)
        let not_worse = |w: &&str| self.row(w, "steal").secs <= self.row(w, "static").secs;
        vec![gate(
            "steal_not_worse",
            ["lumpy", "even"].iter().all(not_worse),
        )]
    }
}

/// Runs the mode matrix on the lumpy and even 16-node populations.
fn matrix() -> Matrix {
    let lumpy = lumpy_population(NODES);
    let even = even_population(NODES, lumpy.total());
    let sim = cluster();
    let modes = [
        BalanceMode::Static,
        BalanceMode::PINNED_STEAL,
        BalanceMode::Repartition { epochs: 4 },
    ];
    let mut rows = Vec::new();
    for (workload, pop) in [("lumpy", &lumpy), ("even", &even)] {
        for mode in modes {
            let (report, moved) =
                sim.run_balanced(pop, ResourceMode::TABLE1_HYBRID, mode, &mut NullRecorder);
            rows.push(Row {
                workload,
                mode: mode.name(),
                secs: report.total.as_secs_f64(),
                balance: report.balance(),
                moved,
            });
        }
    }
    Matrix {
        tasks: lumpy.total(),
        imbalance: lumpy.imbalance(),
        rows,
    }
}

/// `tablegen balance`: the matrix, its gate and `BENCH_cluster.json`.
pub(crate) fn run() -> Report {
    let m = matrix();
    let gates = m.gates();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10}{:<13}{:>10}{:>9}{:>8}{:>9}{:>8}{:>11}{:>13}",
        "workload",
        "mode",
        "time (s)",
        "balance",
        "steals",
        "blocked",
        "epochs",
        "migrated",
        "bytes moved"
    );
    let mut results = Vec::new();
    for r in &m.rows {
        let _ = writeln!(
            text,
            "{:<10}{:<13}{:>10.3}{:>9.3}{:>8}{:>9}{:>8}{:>11}{:>13}",
            r.workload,
            r.mode,
            r.secs,
            r.balance,
            r.moved.steals,
            r.moved.blocked_steals,
            r.moved.repartitions,
            r.moved.migrated_tasks,
            r.moved.migrated_bytes,
        );
        results.push(
            Obj::new()
                .field("workload", r.workload)
                .field("mode", r.mode)
                .fixed("secs", r.secs, 6)
                .fixed("balance", r.balance, 6)
                .field("steals", r.moved.steals)
                .field("blocked_steals", r.moved.blocked_steals)
                .field("repartitions", r.moved.repartitions)
                .field("migrated_tasks", r.moved.migrated_tasks)
                .field("migrated_bytes", r.moved.migrated_bytes),
        );
    }
    let _ = writeln!(
        text,
        "\n{} nodes, {} tasks; lumpy imbalance {:.2} (max/mean per-node tasks)",
        NODES, m.tasks, m.imbalance
    );
    let _ = writeln!(
        text,
        "steal vs static on lumpy: {:+.1}% makespan; {}",
        100.0 * m.improvement(),
        gate_line(&gates)
    );

    let doc = Obj::new()
        .field("schema", "madness-bench-cluster-v1")
        .field("workload", "cost-partition-lumpy-16")
        .field("nodes", NODES)
        .field("tasks", m.tasks)
        .fixed("imbalance", m.imbalance, 4)
        .fixed("improvement", m.improvement(), 6)
        .gates(&gates)
        .field("results", results);
    Report::bench(
        text,
        gates,
        "BENCH_cluster.json",
        "cluster trajectory point",
        &doc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumpy_matrix_meets_the_acceptance_bars() {
        let m = matrix();
        assert_eq!(m.rows.len(), 6);
        assert!(m.imbalance >= 2.0, "imbalance {:.2}", m.imbalance);
        assert!(
            m.improvement() >= 0.25,
            "steal improvement {:.1}% below the 25% bar",
            100.0 * m.improvement()
        );
        assert!(m.gates().iter().all(|g| g.ok), "{:?}", m.gates());
        let steal = m.row("lumpy", "steal");
        assert!(steal.balance > 0.9, "balance {:.3}", steal.balance);
        assert!(steal.moved.steals > 0 && steal.moved.migrated_tasks > 0);
        // The even control gives the steal path nothing profitable to
        // move, so it must tie static (guarded by steal_not_worse) and
        // static itself must already be near-balanced.
        let even_static = m.row("even", "static");
        assert!(even_static.balance > 0.9, "{:.3}", even_static.balance);
    }
}
