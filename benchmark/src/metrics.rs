//! The metric vocabulary: every name the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` lists the same names (a unit
//! test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    /// Simulated (exact) metrics repeat bit-identically for one seed.
    pub exact: bool,
}

/// Every workload reports every one of these (untraced passes only).
///
/// The bounds cover what ten runs with ten seeds spread over on the
/// shared 2-vCPU sandbox this was sized on (inter-quartile distance ÷
/// median): host times 0.02–0.06 after the host-speed correction on a
/// calm host and up to 0.10 on a busy one, `sim_makespan_s` ≤ 0.03
/// (seed to seed; exact for one seed), `peak_rss_mb` ≤ 0.08.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: HIGHER,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_makespan_s",
        unit: "sim_s",
        better: LOWER,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: LOWER,
        bound: 0.25,
        exact: false,
    },
];

/// `(name, unit, better)` of every per-layer metric, from the traced
/// run. Host times are `s`/`ns`; simulated times carry `sim_` in name
/// and unit (`sim_s`, `sim_ms`, `sim_us`: what the modelled hardware
/// would take) and repeat exactly for one seed, as do counts.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // tensor
    ("tensor.mtxmq.ns_k10", "ns", LOWER),
    ("tensor.mtxmq.gflops_k10", "GFLOP/s", HIGHER),
    ("tensor.transform.ns_k10", "ns", LOWER),
    ("tensor.mtxmq.ns_k4", "ns", LOWER),
    ("tensor.transform.ns_k4", "ns", LOWER),
    ("tensor.kernel.calibrate_s", "s", LOWER),
    ("tensor.kernel.autotune_match_frac", "frac", HIGHER),
    ("tensor.kernel.dispatches", "count", LOWER),
    ("tensor.flops_per_task_k10", "count", LOWER),
    ("tensor.flops_per_task_k4", "count", LOWER),
    // mra
    ("mra.project.s", "s", LOWER),
    ("mra.convolution.build_s", "s", LOWER),
    ("mra.convolution.h_cache_hit_frac", "frac", HIGHER),
    ("mra.tree.accumulate_ns", "ns", LOWER),
    ("mra.ops.sum_down_s", "s", LOWER),
    ("mra.tree.leaves_k10", "count", LOWER),
    ("mra.tree.tasks_k10", "count", LOWER),
    ("mra.tree.leaves_k4", "count", LOWER),
    ("mra.tree.tasks_k4", "count", LOWER),
    // executor (vendor/rayon), deltas around one apply-k4 Cpu pass
    ("executor.tasks", "count", LOWER),
    ("executor.splits", "count", LOWER),
    ("executor.steals", "count", LOWER),
    ("executor.parks", "count", LOWER),
    ("executor.parked_frac", "frac", LOWER),
    ("executor.splits_per_task", "frac", LOWER),
    ("executor.empty_task_ns", "ns", LOWER),
    // runtime
    ("runtime.batcher.push_ns", "ns", LOWER),
    ("runtime.batcher.batches", "count", LOWER),
    ("runtime.batcher.mean_fill", "frac", HIGHER),
    ("runtime.adaptive.plan_ns", "ns", LOWER),
    ("runtime.dispatch.cpu_share", "frac", HIGHER),
    ("runtime.graph.task_ns", "ns", LOWER),
    ("runtime.pool.submit_ns", "ns", LOWER),
    // gpusim
    ("gpusim.device.full_ns_per_task", "ns", LOWER),
    ("gpusim.device.timing_ns_per_task", "ns", LOWER),
    ("gpusim.cache.hit_frac", "frac", HIGHER),
    ("gpusim.device.sim_batch_us", "sim_us", LOWER),
    // core
    ("core.apply.walk_s_k10", "s", LOWER),
    ("core.apply.batched_s_k10", "s", LOWER),
    ("core.apply.hybrid_s_k10", "s", LOWER),
    ("core.apply.batched_over_walk_k10", "frac", LOWER),
    ("core.apply.kernel_floor_frac_k10", "frac", HIGHER),
    ("core.apply.walk_s_k4", "s", LOWER),
    ("core.apply.batched_s_k4", "s", LOWER),
    ("core.apply.hybrid_s_k4", "s", LOWER),
    ("core.apply.batched_over_walk_k4", "frac", LOWER),
    ("core.apply.kernel_floor_frac_k4", "frac", HIGHER),
    ("core.apply.adaptive_s", "s", LOWER),
    ("core.apply.gpu_s", "s", LOWER),
    ("core.apply.rank_reduced_s", "s", LOWER),
    ("core.apply.max_abs_err", "abs", LOWER),
    ("core.scf.run_dag_s", "s", LOWER),
    ("core.scf.run_barrier_s", "s", LOWER),
    // cluster::node / cluster / balance
    ("cluster.node.simulate_cpu_s", "s", LOWER),
    ("cluster.node.simulate_gpu_s", "s", LOWER),
    ("cluster.node.simulate_hybrid_s", "s", LOWER),
    ("cluster.node.calibrate_s", "s", LOWER),
    ("cluster.cluster.run_s", "s", LOWER),
    ("cluster.balance.static_s", "s", LOWER),
    ("cluster.balance.steal_s", "s", LOWER),
    ("cluster.balance.repartition_s", "s", LOWER),
    ("cluster.balance.host_s_per_node", "s", LOWER),
    ("cluster.node.sim_hybrid_s", "sim_s", LOWER),
    ("cluster.cluster.sim_makespan_s", "sim_s", LOWER),
    ("cluster.balance.sim_static_s", "sim_s", LOWER),
    ("cluster.balance.sim_steal_s", "sim_s", LOWER),
    ("cluster.balance.sim_repartition_s", "sim_s", LOWER),
    ("cluster.balance.steals", "count", LOWER),
    ("cluster.balance.migrated_tasks", "count", LOWER),
    // cluster::serve / dag / des / network
    ("cluster.serve.generate_s", "s", LOWER),
    ("cluster.serve.static_s", "s", LOWER),
    ("cluster.serve.steal_s", "s", LOWER),
    ("cluster.serve.req_per_s_steal", "1/s", HIGHER),
    ("cluster.dag.dataflow_s", "s", LOWER),
    ("cluster.dag.barrier_s", "s", LOWER),
    ("cluster.dag.scaling_exp", "exp", LOWER),
    ("cluster.des.events_per_s", "1/s", HIGHER),
    ("cluster.network.migrate_ns", "ns", LOWER),
    ("cluster.serve.survivable_s", "s", LOWER),
    ("cluster.serve.brownout_s", "s", LOWER),
    ("cluster.dag.survivable_s", "s", LOWER),
    ("cluster.serve.sim_p50_ms", "sim_ms", LOWER),
    ("cluster.serve.sim_p99_ms", "sim_ms", LOWER),
    ("cluster.serve.sim_p999_ms", "sim_ms", LOWER),
    ("cluster.serve.sim_p99_survivable_ms", "sim_ms", LOWER),
    ("cluster.serve.steals", "count", LOWER),
    ("cluster.serve.hedges", "count", LOWER),
    ("cluster.serve.recovered", "count", LOWER),
    ("cluster.serve.breaker_trips", "count", LOWER),
    ("cluster.serve.completed_frac_brownout", "frac", HIGHER),
    ("cluster.dag.sim_dataflow_s", "sim_s", LOWER),
    ("cluster.dag.sim_barrier_s", "sim_s", LOWER),
    ("cluster.dag.sim_survivable_s", "sim_s", LOWER),
    ("cluster.dag.sim_overlap_ms", "sim_ms", HIGHER),
    ("cluster.dag.voided", "count", LOWER),
    ("cluster.dag.replayed", "count", LOWER),
    // trace / faults
    ("trace.recorder.span_ns", "ns", LOWER),
    ("trace.json.mb_per_s", "MB/s", HIGHER),
    ("trace.journal.events", "count", LOWER),
    ("trace.recorded_overhead_frac", "frac", LOWER),
    ("faults.injector.draw_ns", "ns", LOWER),
    ("faults.timeline.query_ns", "ns", LOWER),
    // bench: the selected workload's own traced pass
    ("bench.pass_s", "s", LOWER),
    ("bench.trace_overhead_frac", "frac", LOWER),
    ("bench.self_frac_bench", "frac", LOWER),
    ("bench.spans", "count", LOWER),
    ("bench.host_slowdown", "frac", LOWER),
    ("bench.host_cpus", "count", HIGHER),
    ("bench.workers", "count", HIGHER),
];

/// Values by metric name, printed in the declared order.
#[derive(Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, unit, value)` for each declared name; a missing or
    /// non-finite value is an error — the contract is every metric, as
    /// measured.
    pub fn ordered<'a>(
        &self,
        declared: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Vec<(&'a str, &'a str, f64)>, String> {
        declared
            .map(|(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok((name, unit, *v)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// Seconds one run measures for under the driver (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The command the driver appends `--workload … --trace …` to.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// file and the program cannot name different metrics
/// (`--print-benchmark-json` prints it; a unit test compares the file).
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Reads `name → value` back out of a [`result_line`] (what
/// `--repeat-check` does with its child runs' output).
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = BTreeMap::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let (head, tail) = entry.split_once("\": {\"value\": ")?;
        let name = head.rsplit_once('"')?.1;
        let value = tail.split_once(',')?.0.trim().parse().ok()?;
        out.insert(name.to_string(), value);
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            12,
            0,
            &[
                ("setup_s", "s", 0.8127),
                ("tasks_per_s", "1/s", 41234.56789),
            ],
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        let (correct, m) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["tasks_per_s"], 41234.56789);
        assert_eq!(m.len(), 2);
        let bad = result_line(3, 1, &[("setup_s", "s", 1.0)]);
        assert!(!parse_result_line(&bad).unwrap().0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let generated = benchmark_json(&crate::workloads::WORKLOADS);
        assert_eq!(
            file, generated,
            "regenerate with `--print-benchmark-json > BENCHMARK.json`"
        );
        assert!(generated.len() <= 64 * 1024);
        for (name, why) in crate::workloads::WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200 && !why.contains(['\n', '"']));
        }
    }

    #[test]
    fn ordered_refuses_missing_and_non_finite_values() {
        let mut m = MetricSet::default();
        m.set("a", 1.0);
        assert!(m.ordered([("a", "s"), ("b", "s")].into_iter()).is_err());
        m.set("b", f64::NAN);
        assert!(m.ordered([("a", "s"), ("b", "s")].into_iter()).is_err());
        m.set("b", 2.0);
        assert_eq!(
            m.ordered([("a", "s"), ("b", "s")].into_iter()).unwrap(),
            vec![("a", "s", 1.0), ("b", "s", 2.0)]
        );
    }
}
