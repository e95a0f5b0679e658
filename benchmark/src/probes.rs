//! Layer probes: small fixed measurements of one layer's public
//! functions, taken from outside in every traced run.
//!
//! Each probe is one span of its layer. Counts and simulated numbers
//! repeat exactly for one seed; host times are as measured.

use crate::metrics::MetricSet;
use crate::spans::{Layer, Tracer};
use crate::stats::median;
use crate::workloads::apply::{project, ApplyWorkload, Density};
use crate::workloads::sim_online::{new_cluster, steal_mode, synthetic_dag, SimOnline, DAG_NODES};
use crate::workloads::{coulomb_spec, hybrid_mode, Checks, Rng};
use madness_cluster::balance::BalanceMode;
use madness_cluster::dag::{run_dag, DagFaultSpec, DagMode};
use madness_cluster::des::Des;
use madness_cluster::network::{Interconnect, NetworkModel};
use madness_cluster::workload::TaskPopulation;
use madness_core::apply::{apply_batched, ApplyResource};
use madness_core::{ScfApp, ScfConfig};
use madness_faults::{FaultInjector, FaultPlan, NodeFault, NodeTimeline};
use madness_gpusim::{
    DeviceSpec, ExecMode, GpuDevice, HBlock, KernelKind, SimTime, TransformTask, TransformTerm,
};
use madness_mra::ops::sum_down;
use madness_mra::tree::FunctionTree;
use madness_runtime::{
    global_pool, AdaptiveConfig, AdaptiveDispatcher, Batcher, BatcherConfig, TaskGraph, TaskKind,
};
use madness_tensor::flops::{apply_task_flops, mtxmq_flops};
use madness_tensor::kernel::{KernelTable, DEFAULT_SHAPES};
use madness_tensor::{mtxmq, transform_accumulate_scaled, Shape, Tensor, TransformScratch};
use madness_trace::{MemRecorder, NullRecorder, Recorder, Stage};
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median nanoseconds per call of `f` over five timed batches of
/// `iters` calls (after one untimed batch).
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for batch in 0..6 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if batch > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&samples)
}

fn seeded_tensor(shape: Shape, rng: &mut Rng) -> Tensor {
    Tensor::from_fn(shape, |_| rng.unit() - 0.5)
}

/// `tensor`: the span kernel and one separated-rank term at order `k`.
pub fn tensor(t: &mut Tracer, m: &mut MetricSet, seed: u64) {
    for (k, mtxmq_name, transform_name, iters) in [
        (
            10usize,
            "tensor.mtxmq.ns_k10",
            "tensor.transform.ns_k10",
            2_000usize,
        ),
        (4, "tensor.mtxmq.ns_k4", "tensor.transform.ns_k4", 40_000),
    ] {
        let mut rng = Rng::new(seed, 0x7E45 + k as u64);
        let a = seeded_tensor(Shape::matrix(k, k * k), &mut rng);
        let b = seeded_tensor(Shape::matrix(k, k), &mut rng);
        let mut c = vec![0.0; k * k * k];
        let (ns, _) = t.call("tensor.mtxmq", Layer::Tensor, |_| {
            per_call_ns(iters, || {
                mtxmq(k * k, k, k, a.as_slice(), b.as_slice(), &mut c);
                black_box(&c);
            })
        });
        m.set(mtxmq_name, ns);
        if k == 10 {
            m.set(
                "tensor.mtxmq.gflops_k10",
                mtxmq_flops(k * k, k, k) as f64 / ns,
            );
        }
        let s = seeded_tensor(Shape::cube(3, k), &mut rng);
        let mut r = Tensor::zeros(Shape::cube(3, k));
        let mut scratch = TransformScratch::new();
        let (ns, _) = t.call("tensor.transform_accumulate_scaled", Layer::Tensor, |_| {
            per_call_ns(iters, || {
                transform_accumulate_scaled(&s, 0.5, &[&b, &b, &b], &mut scratch, &mut r);
                black_box(&r);
            })
        });
        m.set(transform_name, ns);
    }
    let (table, secs) = t.call("tensor.KernelTable::calibrate", Layer::Tensor, |_| {
        KernelTable::calibrate(&DEFAULT_SHAPES)
    });
    m.set("tensor.kernel.calibrate_s", secs);
    // How many shapes this calibration would have served with the same
    // kernel as the pinned (heuristic) table.
    let entries = table.entries();
    let agree = entries.iter().filter(|e| e.choice == e.heuristic).count();
    m.set(
        "tensor.kernel.autotune_match_frac",
        agree as f64 / entries.len().max(1) as f64,
    );
}

/// `mra`: projection, operator construction, accumulate and `sum_down`
/// on the Apply workloads' own trees.
pub fn mra(t: &mut Tracer, m: &mut MetricSet, k10: &ApplyWorkload, k4: &ApplyWorkload, seed: u64) {
    let density = Density::seeded(seed);
    let (tree, secs) = t.call("mra.project_adaptive", Layer::Mra, |_| {
        project(10, &density, k10.thresh)
    });
    black_box(tree.num_leaves());
    m.set("mra.project.s", secs);
    m.set("mra.tree.leaves_k10", k10.tree.num_leaves() as f64);
    m.set("mra.tree.tasks_k10", k10.tasks as f64);
    m.set("mra.tree.leaves_k4", k4.tree.num_leaves() as f64);
    m.set("mra.tree.tasks_k4", k4.tasks as f64);

    // Accumulate every leaf block at its own key and at its parent's,
    // twice over: first-touch inserts, then the `gaxpy` path, leaving
    // interior coefficients for `sum_down` to push to the leaves.
    let blocks: Vec<_> = k4.tree.leaves().map(|(key, c)| (*key, c.clone())).collect();
    let mut result = FunctionTree::new(3, 4);
    let (calls, secs) = t.call("mra.FunctionTree::accumulate", Layer::Mra, |_| {
        let mut calls = 0u64;
        for _ in 0..2 {
            for (key, c) in &blocks {
                result.accumulate(*key, 1.0, c);
                if let Some(parent) = key.parent() {
                    result.accumulate(parent, 0.5, c);
                }
                calls += 2;
            }
        }
        calls
    });
    m.set("mra.tree.accumulate_ns", secs * 1e9 / calls as f64);
    let (_, secs) = t.call("mra.ops.sum_down", Layer::Mra, |_| sum_down(&mut result));
    black_box(result.norm());
    m.set("mra.ops.sum_down_s", secs);
}

/// `executor` + `runtime` + `tensor.kernel.dispatches`: counter deltas
/// around one `apply-k4` `Cpu` pass, and empty-task overheads.
pub fn executor_and_runtime(
    t: &mut Tracer,
    m: &mut MetricSet,
    checks: &mut Checks,
    k4: &ApplyWorkload,
) {
    let table = madness_tensor::kernel::global();
    if let Some(table) = table {
        table.reset_dispatches();
        table.set_counting(true);
    }
    let cfg = k4.config(ApplyResource::Cpu);
    let before = rayon::executor_stats();
    let ((_, stats), secs) = t.call("core.apply_batched[cpu,counted]", Layer::Core, |_| {
        apply_batched(&k4.op, &k4.tree, &cfg)
    });
    let after = rayon::executor_stats();
    let dispatches = table.map_or(0, |table| {
        table.set_counting(false);
        table.entries().iter().map(|e| e.dispatches()).sum::<u64>()
    });
    m.set("tensor.kernel.dispatches", dispatches as f64);
    checks.check(stats.tasks == k4.tasks, || {
        "counted pass: task count moved".into()
    });
    m.set("executor.tasks", (after.tasks - before.tasks) as f64);
    m.set("executor.splits", (after.splits - before.splits) as f64);
    m.set("executor.steals", (after.steals - before.steals) as f64);
    m.set("executor.parks", (after.parks - before.parks) as f64);
    let workers = after.workers.max(1) as f64;
    m.set(
        "executor.parked_frac",
        (after.parked_ns - before.parked_ns) as f64 / (workers * secs * 1e9),
    );
    m.set(
        "executor.splits_per_task",
        (after.splits - before.splits) as f64 / stats.tasks.max(1) as f64,
    );
    let (hits, misses) = stats.host_cache;
    m.set(
        "mra.convolution.h_cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "runtime.batcher.mean_fill",
        stats.tasks as f64 / stats.batches.max(1) as f64 / k4.shape.max_batch as f64,
    );

    let items: Vec<u32> = (0..100_000).collect();
    let (ns, _) = t.call("rayon.par_iter[empty]", Layer::Executor, |_| {
        per_call_ns(1, || {
            black_box(items.par_iter().map(|x| *x).collect::<Vec<u32>>());
        }) / items.len() as f64
    });
    m.set("executor.empty_task_ns", ns);

    let n = 200_000u64;
    let (ns, _) = t.call("runtime.Batcher::push", Layer::Runtime, |_| {
        per_call_ns(1, || {
            let mut batcher: Batcher<u64> = Batcher::new(BatcherConfig::default());
            for i in 0..n {
                black_box(batcher.push(TaskKind::new(1, i % 8), i));
            }
            black_box(batcher.drain());
        }) / n as f64
    });
    m.set("runtime.batcher.push_ns", ns);

    let kind = TaskKind::new(1, 0);
    let mut dispatcher = AdaptiveDispatcher::new(AdaptiveConfig::default());
    for _ in 0..4 {
        let d = dispatcher.plan(kind, 60, 0);
        dispatcher.record(
            kind,
            d.plan.cpu_tasks,
            40_000 * d.plan.cpu_tasks as u64,
            d.plan.gpu_tasks,
            30_000 * d.plan.gpu_tasks as u64,
        );
    }
    let (ns, _) = t.call("runtime.AdaptiveDispatcher::plan", Layer::Runtime, |_| {
        per_call_ns(20_000, || {
            black_box(dispatcher.plan(kind, 60, 1));
        })
    });
    m.set("runtime.adaptive.plan_ns", ns);

    let pool = global_pool();
    let tasks = 2_000usize;
    let (ns, _) = t.call("runtime.TaskGraph::run[empty]", Layer::Runtime, |_| {
        per_call_ns(1, || {
            let mut g = TaskGraph::new();
            let mut prev = None;
            for i in 0..tasks {
                // 20 chains of dependent empty tasks.
                let deps: Vec<_> = if i >= 20 {
                    prev.into_iter().collect()
                } else {
                    vec![]
                };
                let f = g.spawn(&deps, move || i);
                prev = Some(f.id());
            }
            black_box(g.run(pool).tasks);
        }) / tasks as f64
    });
    m.set("runtime.graph.task_ns", ns);
    let jobs = 20_000usize;
    let (ns, _) = t.call("runtime.WorkerPool::submit[empty]", Layer::Runtime, |_| {
        per_call_ns(1, || {
            for _ in 0..jobs {
                pool.submit(|| {});
            }
            pool.wait_idle();
        }) / jobs as f64
    });
    m.set("runtime.pool.submit_ns", ns);
}

/// `gpusim`: one `Full` batch of real k = 10 tasks, and `Timing`
/// batches of the Table I shape.
pub fn gpusim(
    t: &mut Tracer,
    m: &mut MetricSet,
    checks: &mut Checks,
    k10: &ApplyWorkload,
    seed: u64,
) {
    let mut rng = Rng::new(seed, 0x6905);
    let op = &k10.op;
    let terms: Arc<Vec<TransformTerm>> = Arc::new(
        (0..op.rank())
            .map(|mu| TransformTerm {
                coeff: op.terms()[mu].coeff,
                hs: (0..3)
                    .map(|_| HBlock::new(mu as u64, op.get_h(mu, 2, 0)))
                    .collect(),
                effective_ranks: None,
            })
            .collect(),
    );
    let tasks: Vec<TransformTask> = (0..60)
        .map(|_| TransformTask {
            d: 3,
            k: 10,
            s: Some(Arc::new(seeded_tensor(Shape::cube(3, 10), &mut rng))),
            terms: Arc::clone(&terms),
        })
        .collect();
    let mut device = GpuDevice::new(DeviceSpec::default(), 5);
    let (out, secs) = t.call(
        "gpusim.GpuDevice::execute_batch[full]",
        Layer::Gpusim,
        |_| device.execute_batch(&tasks, KernelKind::CustomMtxmq, ExecMode::Full),
    );
    checks.check(
        out.all_ok() && out.results.iter().all(Option::is_some),
        || "gpusim Full batch dropped a result".into(),
    );
    m.set(
        "gpusim.device.full_ns_per_task",
        secs * 1e9 / tasks.len() as f64,
    );

    let shape_tasks: Vec<TransformTask> = (0..60)
        .map(|_| TransformTask::shape_only(3, 10, 100, 0))
        .collect();
    let mut device = GpuDevice::new(DeviceSpec::default(), 5);
    let first = device.execute_batch(&shape_tasks, KernelKind::CustomMtxmq, ExecMode::Timing);
    m.set("gpusim.device.sim_batch_us", first.time.as_secs_f64() * 1e6);
    let (ns, _) = t.call(
        "gpusim.GpuDevice::execute_batch[timing]",
        Layer::Gpusim,
        |_| {
            per_call_ns(200, || {
                black_box(
                    device
                        .execute_batch(&shape_tasks, KernelKind::CustomMtxmq, ExecMode::Timing)
                        .time,
                );
            }) / shape_tasks.len() as f64
        },
    );
    m.set("gpusim.device.timing_ns_per_task", ns);
    let (hits, misses, _) = device.cache().stats();
    m.set(
        "gpusim.cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// `core`: the Apply variants no workload's pass runs, and the SCF
/// fixed point through the real futures DAG.
pub fn core(t: &mut Tracer, m: &mut MetricSet, checks: &mut Checks, k4: &ApplyWorkload) {
    let walk_tasks = k4.tasks;
    for (name, metric, resource, rr) in [
        (
            "core.apply_batched[adaptive]",
            "core.apply.adaptive_s",
            ApplyResource::Adaptive,
            None,
        ),
        (
            "core.apply_batched[gpu]",
            "core.apply.gpu_s",
            ApplyResource::Gpu,
            None,
        ),
        (
            "core.apply_batched[rank-reduced]",
            "core.apply.rank_reduced_s",
            ApplyResource::Cpu,
            Some(1e-6),
        ),
    ] {
        let mut cfg = k4.config(resource);
        cfg.rank_reduce_eps = rr;
        let ((_, stats), secs) =
            t.call(name, Layer::Core, |_| apply_batched(&k4.op, &k4.tree, &cfg));
        checks.check(
            stats.tasks == walk_tasks && stats.cpu_tasks + stats.gpu_tasks == stats.tasks,
            || format!("{name}: task accounting off"),
        );
        m.set(metric, secs);
    }
    // Two iterations of the default two-orbital fixed point: enough to
    // chain Apply → mix → Apply through the graph, at half the cost.
    let app = ScfApp::small(ScfConfig {
        max_iters: 2,
        ..ScfConfig::default()
    });
    let cfg = k4.config(ApplyResource::Cpu);
    let pool = global_pool();
    let (dag, secs) = t.call("core.ScfApp::run_dag", Layer::Core, |_| {
        app.run_dag(pool, &cfg)
    });
    m.set("core.scf.run_dag_s", secs);
    let (barrier, secs) = t.call("core.ScfApp::run_barrier", Layer::Core, |_| {
        app.run_barrier(pool, &cfg)
    });
    m.set("core.scf.run_barrier_s", secs);
    checks.check(dag.orbitals == barrier.orbitals, || {
        "scf: dataflow and barrier schedules disagree on values".into()
    });
}

/// `cluster` scaling probes: balance host cost per node, the list
/// scheduler's growth exponent, the event queue and the interconnect.
pub fn cluster(t: &mut Tracer, m: &mut MetricSet, online: &SimOnline, seed: u64) {
    let sim = new_cluster();
    let mut host = [0.0f64; 2];
    // The same load on every node (seeded size), so the cluster grows
    // with the node count and the slope is the host cost of one node.
    let per_node = 2_000 + Rng::new(seed, 0xBA1).below(500);
    for (slot, nodes) in host.iter_mut().zip([16usize, 64]) {
        let pop = TaskPopulation::even(coulomb_spec(), per_node * nodes as u64, nodes);
        let (_, secs) = t.call(
            "cluster.balance.run_balanced[scaling]",
            Layer::Balance,
            |_| sim.run_balanced(&pop, hybrid_mode(), BalanceMode::Static, &mut NullRecorder),
        );
        *slot = secs;
    }
    m.set(
        "cluster.balance.host_s_per_node",
        (host[1] - host[0]) / 48.0,
    );

    let net = NetworkModel::default();
    let mut secs = [0.0f64; 2];
    for (slot, steps) in secs.iter_mut().zip([40u32, 80]) {
        let dag = synthetic_dag(seed, 64, steps);
        let (_, s) = t.call("cluster.dag.run_dag[scaling]", Layer::Dag, |_| {
            run_dag(
                &dag,
                DAG_NODES,
                online.rate,
                &net,
                DagMode::Dataflow,
                &DagFaultSpec::none(),
                &mut NullRecorder,
            )
        });
        *slot = s;
    }
    m.set("cluster.dag.scaling_exp", (secs[1] / secs[0]).log2());

    let n = 200_000u64;
    let (per_event, _) = t.call("cluster.des.Des::schedule+pop", Layer::Des, |_| {
        per_call_ns(1, || {
            let mut des: Des<u64> = Des::new();
            let mut rng = Rng::new(seed, 0xDE5);
            for i in 0..n {
                des.schedule(SimTime::from_nanos(rng.below(1 << 30)), i);
            }
            while let Some(ev) = des.pop() {
                black_box(ev);
            }
        }) / n as f64
    });
    m.set("cluster.des.events_per_s", 1e9 / per_event);

    let mut fabric = Interconnect::new(NetworkModel::default());
    let mut at = 0u64;
    let (ns, _) = t.call(
        "cluster.network.Interconnect::migrate",
        Layer::Network,
        |_| {
            per_call_ns(50_000, || {
                at += 1_000;
                black_box(fabric.migrate(SimTime::from_nanos(at), 60, 8_000));
            })
        },
    );
    m.set("cluster.network.migrate_ns", ns);
}

/// `trace` + `faults`: recorder and injector costs, and the recorded
/// serve run against the unrecorded one.
pub fn trace_and_faults(
    t: &mut Tracer,
    m: &mut MetricSet,
    checks: &mut Checks,
    online: &SimOnline,
    seed: u64,
) {
    let n = 200_000u64;
    let mut rec = MemRecorder::new();
    let (_, secs) = t.call("trace.MemRecorder::span", Layer::Trace, |_| {
        for i in 0..n {
            rec.span(Stage::CpuCompute, i, i + 10, (i % 16) as u32);
        }
    });
    m.set("trace.recorder.span_ns", secs * 1e9 / n as f64);
    let (json, secs) = t.call("trace.MemRecorder::to_json", Layer::Trace, |_| {
        rec.to_json()
    });
    m.set("trace.json.mb_per_s", json.len() as f64 / 1e6 / secs);

    let (plain, null_s) = t.call("cluster.serve.run_served[steal,null]", Layer::Serve, |_| {
        online
            .sim
            .run_served(&online.cfg, hybrid_mode(), steal_mode(), &mut NullRecorder)
    });
    let mut rec = MemRecorder::new();
    let (recorded, mem_s) = t.call(
        "cluster.serve.run_served[steal,recorded]",
        Layer::Serve,
        |_| {
            online
                .sim
                .run_served(&online.cfg, hybrid_mode(), steal_mode(), &mut rec)
        },
    );
    checks.check(plain == recorded, || {
        "serve: MemRecorder changed a simulated number".into()
    });
    m.set("trace.journal.events", rec.journal().len() as f64);
    m.set("trace.recorded_overhead_frac", mem_s / null_s - 1.0);

    let plan = FaultPlan::seeded(seed)
        .with_launch_fail_rate(0.01)
        .with_transfer_timeout_rate(0.01);
    let mut injector = FaultInjector::new(&plan);
    let mut now = 0u64;
    let (ns, _) = t.call("faults.FaultInjector::kernel_launch", Layer::Faults, |_| {
        per_call_ns(200_000, || {
            now += 1_000;
            black_box(injector.kernel_launch(now));
        })
    });
    m.set("faults.injector.draw_ns", ns);
    let mut timeline = NodeTimeline::new(64);
    for node in 0..16usize {
        timeline.add(node, NodeFault::CrashAt(1_000_000 * (node as u64 + 1)));
        timeline.add(
            node + 16,
            NodeFault::PartitionAt {
                at_ns: 500_000 * (node as u64 + 1),
                duration_ns: 250_000,
            },
        );
    }
    let mut i = 0u64;
    let (ns, _) = t.call("faults.NodeTimeline::reachable", Layer::Faults, |_| {
        per_call_ns(400_000, || {
            i += 1;
            black_box(timeline.reachable((i % 64) as usize, i * 37));
        })
    });
    m.set("faults.timeline.query_ns", ns);
}

/// Computed (not measured) FLOPs of one Apply task at each order.
pub fn computed_flops(m: &mut MetricSet, k10: &ApplyWorkload, k4: &ApplyWorkload) {
    m.set(
        "tensor.flops_per_task_k10",
        apply_task_flops(3, 10, k10.op.rank()) as f64,
    );
    m.set(
        "tensor.flops_per_task_k4",
        apply_task_flops(3, 4, k4.op.rank()) as f64,
    );
}
