//! The traced run: every layer measured once, under the span recorder.
//!
//! `--trace 1` tours all five workloads — set-up and one traced pass
//! each, so every leg of every layer gets a host time, its simulated
//! outputs and its counts — and runs the layer probes. The selected
//! workload's pass is additionally repeated untraced and traced in
//! alternation for `--seconds / 2`, which gives the tracing overhead
//! and where the benchmark's own time goes. End-to-end metrics never
//! come from here.

use crate::host::Host;
use crate::hostclock::{tick, NOMINAL_TICK_S};
use crate::metrics::MetricSet;
use crate::probes;
use crate::run::{check_repeats, set_up_with};
use crate::spans::{layer_self_ns, Layer, Tracer};
use crate::stats::median;
use crate::workloads::apply::{ApplyWorkload, K10, K4};
use crate::workloads::sim_batch::SimBatch;
use crate::workloads::sim_chaos::SimChaos;
use crate::workloads::sim_online::SimOnline;
use crate::workloads::{Checks, PassOutcome, Workload};
use std::time::{Duration, Instant};

/// What the traced run measured.
pub struct TourResult {
    pub metrics: MetricSet,
    pub checks: Checks,
    pub tracer: Tracer,
    pub text: String,
}

struct Tour<'a> {
    t: Tracer,
    m: MetricSet,
    checks: Checks,
    selected: &'a str,
    budget: Duration,
    text: String,
}

impl Tour<'_> {
    /// Sets `name` up and runs its traced pass (for the selected
    /// workload: alternating untraced/traced passes).
    fn visit<W: Workload>(
        &mut self,
        name: &'static str,
        build: impl FnOnce(&mut Tracer) -> W,
    ) -> (W, PassOutcome) {
        use std::fmt::Write as _;
        let (w, warm, _) = set_up_with(&mut self.t, build);
        self.checks.absorb(warm.checks.clone());
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        let started = Instant::now();
        let last = loop {
            if name == self.selected {
                let (out, secs) = Tracer::off().pass("bench.pass", |t| w.pass(t));
                check_repeats(&mut self.checks, &warm, &out);
                self.checks.absorb(out.checks);
                untraced.push(secs);
            }
            let (out, secs) = self.t.pass("bench.pass", |t| w.pass(t));
            check_repeats(&mut self.checks, &warm, &out);
            self.checks.absorb(out.checks.clone());
            traced.push(secs);
            if name != self.selected || (started.elapsed() >= self.budget && traced.len() >= 2) {
                break out;
            }
        };
        if name == self.selected {
            let root = self
                .t
                .last_named("bench.pass")
                .expect("a traced pass was just recorded");
            let spans = self.t.spans();
            let by_layer = layer_self_ns(spans, root);
            let total = spans[root].duration_ns().max(1) as f64;
            let _ = writeln!(
                self.text,
                "traced pass of {name}: {:.6} s, self time by layer:",
                total / 1e9
            );
            for (layer, ns) in &by_layer {
                let _ = writeln!(
                    self.text,
                    "  {:<18} {:>12.6} s  {:>6.2} %",
                    layer.name(),
                    *ns as f64 / 1e9,
                    100.0 * *ns as f64 / total
                );
            }
            self.m.set("bench.pass_s", median(&traced));
            self.m.set(
                "bench.trace_overhead_frac",
                median(&traced) / median(&untraced) - 1.0,
            );
            self.m.set(
                "bench.self_frac_bench",
                by_layer.get(&Layer::Bench).copied().unwrap_or(0) as f64 / total,
            );
        }
        (w, last)
    }

    /// Copies leg host seconds and exact values of a pass into metrics.
    fn record(&mut self, out: &PassOutcome, legs: &[(&str, &'static str)], exact: &[&'static str]) {
        for (leg, metric) in legs {
            self.m.set(metric, out.leg_secs(leg));
        }
        for name in exact {
            self.m.set(name, out.exact_value(name));
        }
    }

    /// Seconds of the most recent set-up span named `name`.
    fn span_secs(&self, name: &str) -> f64 {
        self.t
            .last_named(name)
            .map_or(f64::NAN, |i| self.t.spans()[i].duration_ns() as f64 / 1e9)
    }
}

fn record_apply(tour: &mut Tour, w: &ApplyWorkload, out: &PassOutcome, names: [&'static str; 5]) {
    let [walk, batched, hybrid, ratio, floor] = names;
    tour.record(
        out,
        &[
            ("core.apply_cpu_reference", walk),
            ("core.apply_batched[cpu]", batched),
            ("core.apply_batched[hybrid]", hybrid),
        ],
        &[],
    );
    let batched_s = out.leg_secs("core.apply_batched[cpu]");
    tour.m
        .set(ratio, batched_s / out.leg_secs("core.apply_cpu_reference"));
    // tasks × rank × (one term's transform) ÷ workers: the time the span
    // kernels alone would take. The rest of `batched_s` is overhead the
    // layers above `tensor` must explain.
    let transform_ns = tour
        .m
        .get(if w.shape.k == 10 {
            "tensor.transform.ns_k10"
        } else {
            "tensor.transform.ns_k4"
        })
        .unwrap_or(f64::NAN);
    let workers = rayon::configured_worker_threads().max(1) as f64;
    tour.m.set(
        floor,
        w.tasks as f64 * w.op.rank() as f64 * transform_ns * 1e-9 / workers / batched_s,
    );
}

/// Runs the traced tour; `selected` is the `--workload`.
pub fn traced(selected: &str, seed: u64, seconds: f64, host: &Host) -> TourResult {
    let mut tour = Tour {
        t: Tracer::on(),
        m: MetricSet::default(),
        checks: Checks::default(),
        selected,
        budget: Duration::from_secs_f64(seconds / 2.0),
        text: String::new(),
    };
    // How fast the host was while the tour ran: host times here are raw.
    let mut ticks = vec![tick()];
    tour.m.set("bench.host_cpus", host.cpus as f64);
    tour.m.set("bench.workers", host.workers as f64);
    tour.t.call("probes.tensor", Layer::Bench, |t| {
        probes::tensor(t, &mut tour.m, seed)
    });

    // --- apply-k10 / apply-k4 ------------------------------------------
    let (k10, out10) = tour.visit("apply-k10", |t| ApplyWorkload::setup(K10, seed, t));
    tour.m.set(
        "mra.convolution.build_s",
        tour.span_secs("mra.SeparatedConvolution::coulomb"),
    );
    record_apply(
        &mut tour,
        &k10,
        &out10,
        [
            "core.apply.walk_s_k10",
            "core.apply.batched_s_k10",
            "core.apply.hybrid_s_k10",
            "core.apply.batched_over_walk_k10",
            "core.apply.kernel_floor_frac_k10",
        ],
    );
    tour.record(&out10, &[], &["runtime.dispatch.cpu_share"]);
    let (k4, out4) = tour.visit("apply-k4", |t| ApplyWorkload::setup(K4, seed, t));
    record_apply(
        &mut tour,
        &k4,
        &out4,
        [
            "core.apply.walk_s_k4",
            "core.apply.batched_s_k4",
            "core.apply.hybrid_s_k4",
            "core.apply.batched_over_walk_k4",
            "core.apply.kernel_floor_frac_k4",
        ],
    );
    tour.record(&out4, &[], &["runtime.batcher.batches"]);
    tour.m.set(
        "core.apply.max_abs_err",
        out10
            .exact_value("core.apply.max_abs_err")
            .max(out4.exact_value("core.apply.max_abs_err")),
    );
    probes::computed_flops(&mut tour.m, &k10, &k4);
    tour.t.call("probes.apply-layers", Layer::Bench, |t| {
        probes::mra(t, &mut tour.m, &k10, &k4, seed);
        probes::executor_and_runtime(t, &mut tour.m, &mut tour.checks, &k4);
        probes::gpusim(t, &mut tour.m, &mut tour.checks, &k10, seed);
        probes::core(t, &mut tour.m, &mut tour.checks, &k4);
    });
    drop((k10, k4));

    ticks.push(tick());

    // --- sim-batch --------------------------------------------------------
    let (_batch, out) = tour.visit("sim-batch", |t| SimBatch::setup(seed, t));
    tour.record(
        &out,
        &[
            (
                "cluster.node.simulate[cpu16]",
                "cluster.node.simulate_cpu_s",
            ),
            ("cluster.node.simulate[gpu5]", "cluster.node.simulate_gpu_s"),
            (
                "cluster.node.simulate[hybrid]",
                "cluster.node.simulate_hybrid_s",
            ),
            ("cluster.cluster.run[tdse]", "cluster.cluster.run_s"),
            (
                "cluster.balance.run_balanced[static]",
                "cluster.balance.static_s",
            ),
            (
                "cluster.balance.run_balanced[steal]",
                "cluster.balance.steal_s",
            ),
            (
                "cluster.balance.run_balanced[repartition]",
                "cluster.balance.repartition_s",
            ),
        ],
        &[
            "cluster.node.sim_hybrid_s",
            "cluster.cluster.sim_makespan_s",
            "cluster.balance.sim_static_s",
            "cluster.balance.sim_steal_s",
            "cluster.balance.sim_repartition_s",
            "cluster.balance.steals",
            "cluster.balance.migrated_tasks",
        ],
    );

    ticks.push(tick());

    // --- sim-online -------------------------------------------------------
    let (online, out) = tour.visit("sim-online", |t| SimOnline::setup(seed, t));
    tour.m.set(
        "cluster.node.calibrate_s",
        tour.span_secs("cluster.node.calibrate"),
    );
    tour.m.set(
        "cluster.serve.generate_s",
        tour.span_secs("cluster.serve.generate_requests"),
    );
    tour.record(
        &out,
        &[
            ("cluster.serve.run_served[static]", "cluster.serve.static_s"),
            ("cluster.serve.run_served[steal]", "cluster.serve.steal_s"),
            ("cluster.dag.run_dag[dataflow]", "cluster.dag.dataflow_s"),
            ("cluster.dag.run_dag[barrier]", "cluster.dag.barrier_s"),
        ],
        &[
            "cluster.serve.sim_p50_ms",
            "cluster.serve.sim_p99_ms",
            "cluster.serve.sim_p999_ms",
            "cluster.serve.steals",
            "cluster.dag.sim_dataflow_s",
            "cluster.dag.sim_barrier_s",
            "cluster.dag.sim_overlap_ms",
        ],
    );
    tour.m.set(
        "cluster.serve.req_per_s_steal",
        online.requests as f64 / out.leg_secs("cluster.serve.run_served[steal]"),
    );
    tour.t.call("probes.sim-layers", Layer::Bench, |t| {
        probes::cluster(t, &mut tour.m, &online, seed);
        probes::trace_and_faults(t, &mut tour.m, &mut tour.checks, &online, seed);
    });
    drop(online);

    ticks.push(tick());

    // --- sim-chaos --------------------------------------------------------
    let (_chaos, out) = tour.visit("sim-chaos", |t| SimChaos::setup(seed, t));
    tour.record(
        &out,
        &[
            (
                "cluster.serve.run_served_survivable[faults+hedge]",
                "cluster.serve.survivable_s",
            ),
            (
                "cluster.serve.run_served_survivable[overload+brownout]",
                "cluster.serve.brownout_s",
            ),
            (
                "cluster.dag.run_dag_survivable[crash+faults+spec]",
                "cluster.dag.survivable_s",
            ),
        ],
        &[
            "cluster.serve.sim_p99_survivable_ms",
            "cluster.serve.hedges",
            "cluster.serve.recovered",
            "cluster.serve.breaker_trips",
            "cluster.serve.completed_frac_brownout",
            "cluster.dag.sim_survivable_s",
            "cluster.dag.voided",
            "cluster.dag.replayed",
        ],
    );

    ticks.push(tick());
    tour.m
        .set("bench.host_slowdown", median(&ticks) / NOMINAL_TICK_S);
    tour.m.set("bench.spans", tour.t.spans().len() as f64);
    TourResult {
        metrics: tour.m,
        checks: tour.checks,
        tracer: tour.t,
        text: tour.text,
    }
}
