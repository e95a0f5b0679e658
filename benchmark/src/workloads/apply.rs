//! `apply-k10` / `apply-k4`: the real-arithmetic Apply path.
//!
//! A seeded multi-Gaussian charge density is projected adaptively
//! (`project_adaptive`) and convolved with the Coulomb kernel three
//! ways per pass, interleaved: the plain walk (`apply_cpu_reference`,
//! the single-implementation baseline), `apply_batched` on `Cpu` (the
//! path `tasks_per_s` is defined on) and `apply_batched` on `Hybrid`,
//! whose GPU share `GpuDevice::execute_batch` really executes in `Full`
//! mode. k = 10 spends ~300 us of `mtxmq` per task, k = 4 ~6 us: the
//! two workloads sit on either side of the per-task-overhead wall. The
//! pass ends with the simulated Table I node running the same task
//! count under a seeded launch-fault plan (`NodeSim::simulate_faulty`).

use super::{hybrid_mode, PassOutcome, PassRec, Rng, Workload};
use crate::spans::{Layer, Tracer};
use madness_cluster::node::{NodeParams, NodeSim};
use madness_cluster::workload::WorkloadSpec;
use madness_core::apply::{
    apply_batched, apply_cpu_reference, ApplyConfig, ApplyResource, ApplyStats,
};
use madness_core::scenario::count_tasks;
use madness_faults::{FaultPlan, RecoveryPolicy};
use madness_gpusim::KernelKind;
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::project::{project_adaptive, ProjectParams};
use madness_mra::tree::FunctionTree;
use madness_runtime::BatcherConfig;
use madness_trace::NullRecorder;

/// Size of one Apply workload.
#[derive(Clone, Copy, Debug)]
pub struct ApplyShape {
    pub k: usize,
    /// Batch flush size (the paper's 60 at k = 10; 16 keeps several
    /// batches per kind on the small k = 4 tree).
    pub max_batch: usize,
    /// Leaves the projection threshold is searched for. The tree's size
    /// — not its shape — is pinned, so throughput, set-up time and
    /// memory stay comparable from seed to seed. A box that fails the
    /// refinement test sends all eight children one level down, so
    /// sizes come in steps of 56 leaves: 64, 120, 176, …
    pub target_leaves: usize,
}

/// ~2.2k tasks of ~300 us: a pass of three variants is ~1.2 s. At k = 10
/// the first box to fail is a level-1 octant, so every seed gives one
/// octant refined to level 3 — a different octant and different
/// coefficients, but by symmetry the same 2,206 tasks.
pub const K10: ApplyShape = ApplyShape {
    k: 10,
    max_batch: 60,
    target_leaves: 120,
};

/// ~19k tasks of ~6 us: a pass of three variants is ~0.65 s.
pub const K4: ApplyShape = ApplyShape {
    k: 4,
    max_batch: 16,
    target_leaves: 792,
};

pub struct ApplyWorkload {
    pub shape: ApplyShape,
    pub op: SeparatedConvolution,
    pub tree: FunctionTree,
    pub tasks: u64,
    pub thresh: f64,
    node: NodeSim,
    /// Seeded 0.5 % kernel-launch failures for the simulated node run:
    /// the retries move the makespan by a percent or two with the seed.
    plan: FaultPlan,
}

/// A sum of seeded Gaussians: `(centre, width, amplitude)` each.
pub struct Density(Vec<([f64; 3], f64, f64)>);

impl Density {
    pub fn seeded(seed: u64) -> Density {
        let mut rng = Rng::new(seed, 0xDE45);
        // Widths stay above 0.02: a narrower peak can fall between the
        // quadrature points of a coarse box and go unrefined.
        Density(
            (0..3)
                .map(|_| {
                    let c = [
                        rng.range(0.15, 0.85),
                        rng.range(0.15, 0.85),
                        rng.range(0.15, 0.85),
                    ];
                    (c, rng.range(0.02, 0.04), rng.range(0.5, 1.5))
                })
                .collect(),
        )
    }

    pub fn eval(&self, x: &[f64]) -> f64 {
        self.0
            .iter()
            .map(|(c, w, a)| {
                let r2: f64 = x.iter().zip(c).map(|(x, c)| (x - c).powi(2)).sum();
                a * (-r2 / (2.0 * w * w)).exp()
            })
            .sum()
    }
}

/// Projects `density` at one refinement threshold, from a refinement
/// floor of 64 level-2 boxes (so no octant is judged from one coarse
/// sample); every box below is refined on its own merit.
pub fn project(k: usize, density: &Density, thresh: f64) -> FunctionTree {
    let params = ProjectParams {
        thresh,
        initial_level: 1,
        max_level: 9,
    };
    project_adaptive(3, k, &|x: &[f64]| density.eval(x), &params)
}

/// Projects `density`, searching the refinement threshold (bisection in
/// log space; leaves fall monotonically as it rises) for the smallest
/// tree of at least `target_leaves` leaves.
pub fn project_to_size(k: usize, density: &Density, target_leaves: usize) -> (FunctionTree, f64) {
    let at = |log10_thresh: f64| {
        let thresh = 10f64.powf(log10_thresh);
        (project(k, density, thresh), thresh)
    };
    // Walk the threshold down a decade at a time until the tree is big
    // enough (never projecting a tree much larger than the target) …
    let mut hi = 0.0f64;
    let mut best = loop {
        let found = at(hi - 1.0);
        if found.0.num_leaves() >= target_leaves || hi < -13.0 {
            break found;
        }
        hi -= 1.0;
    };
    // … then bisect inside that decade, until within one step of it.
    let mut lo = hi - 1.0;
    for _ in 0..12 {
        if best.0.num_leaves() < target_leaves + 56 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let found = at(mid);
        if found.0.num_leaves() >= target_leaves {
            lo = mid;
            best = found;
        } else {
            hi = mid;
        }
    }
    best
}

impl ApplyWorkload {
    pub fn setup(shape: ApplyShape, seed: u64, t: &mut Tracer) -> Self {
        let density = Density::seeded(seed);
        let ((tree, thresh), _) = t.call("mra.project_adaptive[search]", Layer::Mra, |_| {
            project_to_size(shape.k, &density, shape.target_leaves)
        });
        let (op, _) = t.call("mra.SeparatedConvolution::coulomb", Layer::Mra, |_| {
            SeparatedConvolution::coulomb(3, shape.k, 1e-4, 1e-2)
        });
        let tasks = count_tasks(&tree, &op.displacements());
        ApplyWorkload {
            shape,
            op,
            tree,
            tasks,
            thresh,
            node: NodeSim::new(NodeParams::default()),
            plan: FaultPlan::seeded(seed).with_launch_fail_rate(0.005),
        }
    }

    pub fn config(&self, resource: ApplyResource) -> ApplyConfig {
        ApplyConfig {
            resource,
            batch: BatcherConfig {
                max_batch: self.shape.max_batch,
                ..BatcherConfig::default()
            },
            kernel: Some(KernelKind::CustomMtxmq),
            streams: 5,
            threads: 10,
            rank_reduce_eps: None,
        }
    }

    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            d: 3,
            k: self.shape.k,
            rank: self.op.rank(),
            rr_mean_rank: None,
        }
    }

    /// The correctness gate of one batched run against the walk.
    pub fn check_batched(
        &self,
        rec: &mut PassRec,
        label: &'static str,
        walk: &FunctionTree,
        walk_norm: f64,
        got: &FunctionTree,
        stats: &ApplyStats,
    ) -> f64 {
        let err = max_abs_err(walk, got);
        rec.check(err <= 1e-12 * walk_norm, || {
            format!("{label}: tree differs from the walk by {err:e} (norm {walk_norm:e})")
        });
        rec.check(stats.tasks == self.tasks, || {
            format!(
                "{label}: stats.tasks {} != task_count {}",
                stats.tasks, self.tasks
            )
        });
        rec.check(stats.cpu_tasks + stats.gpu_tasks == stats.tasks, || {
            format!(
                "{label}: cpu {} + gpu {} != tasks {}",
                stats.cpu_tasks, stats.gpu_tasks, stats.tasks
            )
        });
        err
    }
}

/// Largest coefficient difference between two result trees; infinite
/// when their coefficient nodes do not line up.
pub fn max_abs_err(reference: &FunctionTree, other: &FunctionTree) -> f64 {
    let coeff_nodes = |t: &FunctionTree| t.iter().filter(|(_, n)| n.coeffs.is_some()).count();
    if coeff_nodes(reference) != coeff_nodes(other) {
        return f64::INFINITY;
    }
    let mut err = 0.0f64;
    for (key, node) in reference.iter() {
        let Some(a) = node.coeffs.as_ref() else {
            continue;
        };
        let Some(b) = other.get(key).and_then(|n| n.coeffs.as_ref()) else {
            return f64::INFINITY;
        };
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            err = err.max((x - y).abs());
        }
    }
    err
}

impl Workload for ApplyWorkload {
    fn pass(&self, t: &mut Tracer) -> PassOutcome {
        let mut rec = PassRec::new(t);
        let tasks = self.tasks;
        let walk = rec.leg("core.apply_cpu_reference", Layer::Core, || {
            (apply_cpu_reference(&self.op, &self.tree), tasks)
        });
        let cpu_cfg = self.config(ApplyResource::Cpu);
        let (cpu, cpu_stats) = rec.leg("core.apply_batched[cpu]", Layer::Core, || {
            (apply_batched(&self.op, &self.tree, &cpu_cfg), tasks)
        });
        let hybrid_cfg = self.config(ApplyResource::Hybrid);
        let (hybrid, hybrid_stats) = rec.leg("core.apply_batched[hybrid]", Layer::Core, || {
            (apply_batched(&self.op, &self.tree, &hybrid_cfg), tasks)
        });
        // What the modelled Table I node would take for this Apply under
        // the seeded launch-fault plan.
        let spec = self.spec();
        let (sim, summary) = rec.leg("cluster.node.simulate_faulty[hybrid]", Layer::Node, || {
            let out = self.node.simulate_faulty(
                &spec,
                tasks,
                hybrid_mode(),
                &self.plan,
                RecoveryPolicy::default(),
                &mut NullRecorder,
            );
            (out, tasks)
        });
        rec.check(summary.conserved(tasks) && summary.lost == 0, || {
            format!("node: fault summary not conserved over {tasks} tasks: {summary:?}")
        });

        let norm = walk.norm();
        let err_cpu = self.check_batched(&mut rec, "cpu", &walk, norm, &cpu, &cpu_stats);
        let err_hybrid =
            self.check_batched(&mut rec, "hybrid", &walk, norm, &hybrid, &hybrid_stats);
        rec.check(cpu_stats.gpu_tasks == 0, || {
            "cpu: a Cpu run dispatched GPU tasks".into()
        });
        rec.check(hybrid_stats.gpu_tasks > 0, || {
            "hybrid: no task reached the GPU".into()
        });
        rec.check(norm.is_finite() && norm > 0.0, || {
            format!("walk: result norm {norm}")
        });

        rec.exact("core.apply.tasks", tasks as f64);
        rec.exact("core.apply.result_norm", norm);
        rec.exact("core.apply.max_abs_err", err_cpu.max(err_hybrid));
        rec.exact("runtime.batcher.batches", cpu_stats.batches as f64);
        rec.exact(
            "runtime.dispatch.cpu_share",
            hybrid_stats.cpu_tasks as f64 / hybrid_stats.tasks.max(1) as f64,
        );
        rec.exact("cluster.node.sim_faulty_s", sim.total.as_secs_f64());
        rec.exact(
            "cluster.node.gpu_task_failures",
            summary.gpu_task_failures as f64,
        );

        let mut out = rec.out;
        out.main_s = out.leg_secs("core.apply_batched[cpu]");
        out.tasks = tasks;
        out.sim_makespan_s = sim.total.as_secs_f64();
        out
    }

    fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let tree_hash = self
            .tree
            .sorted_keys()
            .iter()
            .fold(0u64, |h, k| h.rotate_left(5) ^ k.hash64());
        let coeff_hash = self.tree.norm().to_bits();
        vec![
            ("leaves", self.tree.num_leaves() as u64),
            ("tasks", self.tasks),
            ("max_depth", u64::from(self.tree.max_depth())),
            ("tree_hash", tree_hash),
            ("coeff_hash", coeff_hash),
        ]
    }
}
