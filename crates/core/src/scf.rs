//! An SCF-style fixed-point iteration driven by the futures DAG.
//!
//! MADNESS solves self-consistent field problems by iterating "apply
//! the BSH Green's function, mix with the previous iterate, test
//! convergence" per orbital — a *chain* of operator applications, not a
//! flat bag of tasks. This module reproduces that shape in full
//! numeric fidelity: each orbital runs a damped power iteration
//! `x ← normalize((1−β)·Ĝx + β·x)` with the bound-state Helmholtz
//! operator `G = e^{−µr}/r`, expressed as a
//! [`TaskGraph`] whose Apply and Update
//! tasks chain through futures. Orbital chains are independent, so
//! with completion-triggered submission the Update of one orbital
//! overlaps the Apply of another — the inter-stage overlap the paper's
//! asynchrony argument is about. A barrier-synchronized baseline (the
//! same graph plus cross-orbital join edges after every phase) computes
//! bit-identical values, which the tests assert.

use crate::apply::{apply_batched, ApplyConfig};
use madness_cluster::dag::{DagTask, DagWorkload};
use madness_mra::arith::{add, scale};
use madness_mra::convolution::SeparatedConvolution;
use madness_mra::project::{project_adaptive, ProjectParams};
use madness_mra::tree::FunctionTree;
use madness_runtime::graph::{Future, GraphRunStats, TaskGraph};
use madness_runtime::pool::WorkerPool;
use madness_trace::Stage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Knobs of the SCF scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScfConfig {
    /// Independent orbital chains.
    pub orbitals: usize,
    /// Polynomial order of the trees and operator.
    pub k: usize,
    /// Operator precision / projection threshold.
    pub precision: f64,
    /// BSH mass parameter µ (µ = 0 degenerates to Coulomb).
    pub mu: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on `‖x_{i+1} − x_i‖`.
    pub tol: f64,
    /// Damping β: the fraction of the old iterate kept at each step.
    pub mixing: f64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            orbitals: 2,
            k: 5,
            precision: 1e-3,
            mu: 2.0,
            max_iters: 4,
            tol: 1e-3,
            mixing: 0.3,
        }
    }
}

/// An SCF problem instance: one BSH operator + per-orbital start guesses.
pub struct ScfApp {
    /// The shared `e^{−µr}/r` Green's function.
    pub op: Arc<SeparatedConvolution>,
    /// Normalized initial orbital guesses (reconstructed trees).
    pub orbitals: Vec<Arc<FunctionTree>>,
    /// Scenario knobs.
    pub cfg: ScfConfig,
}

/// Per-orbital outcome of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct OrbitalResult {
    /// `‖x_{i+1} − x_i‖` per executed iteration (stops early once the
    /// chain converges — later tasks short-circuit).
    pub residuals: Vec<f64>,
    /// Whether the chain hit `tol` within the iteration cap.
    pub converged: bool,
    /// Norm of the final iterate (1 up to roundoff by construction).
    pub final_norm: f64,
}

/// Outcome of one SCF run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScfRun {
    /// Per-orbital convergence data, in orbital order.
    pub orbitals: Vec<OrbitalResult>,
    /// Graph execution statistics.
    pub stats: GraphRunStats,
}

/// One chain step's value: the iterate plus its convergence data.
struct StepValue {
    tree: Arc<FunctionTree>,
    residual: f64,
    /// False once the chain has converged and the step short-circuited.
    applied: bool,
}

impl ScfApp {
    /// A small full-fidelity instance: each orbital starts from a
    /// Gaussian guess at a distinct center (so the chains refine
    /// differently and drift out of lockstep — the irregularity the
    /// dataflow scheduler absorbs).
    pub fn small(cfg: ScfConfig) -> Self {
        assert!(cfg.orbitals >= 1 && cfg.k >= 2);
        assert!((0.0..1.0).contains(&cfg.mixing));
        let params = ProjectParams {
            thresh: cfg.precision.max(1e-6),
            initial_level: 2,
            max_level: 4,
        };
        let orbitals = (0..cfg.orbitals)
            .map(|o| {
                let f = o as f64 / cfg.orbitals.max(1) as f64;
                let (cx, cy, cz) = (0.35 + 0.3 * f, 0.5 - 0.15 * f, 0.45 + 0.2 * f);
                let w = 0.06 + 0.04 * f;
                let density = move |x: &[f64]| {
                    let r2 = (x[0] - cx).powi(2) + (x[1] - cy).powi(2) + (x[2] - cz).powi(2);
                    (-r2 / (2.0 * w * w)).exp()
                };
                let mut t = project_adaptive(3, cfg.k, &density, &params);
                let n = t.norm();
                assert!(n > 0.0, "orbital guess must not vanish");
                scale(&mut t, 1.0 / n);
                Arc::new(t)
            })
            .collect();
        ScfApp {
            op: Arc::new(SeparatedConvolution::bsh(
                3,
                cfg.k,
                cfg.mu,
                cfg.precision,
                1e-2,
            )),
            orbitals,
            cfg,
        }
    }

    /// Runs the fixed point through the futures DAG on `pool` with
    /// completion-triggered submission (no barrier between stages).
    pub fn run_dag(&self, pool: &WorkerPool, apply_cfg: &ApplyConfig) -> ScfRun {
        self.run_graph(pool, apply_cfg, false)
    }

    /// The bulk-synchronous baseline: the same graph plus a join task
    /// after every phase that *every* orbital's next step depends on —
    /// a global barrier expressed as edges. Values are bit-identical to
    /// [`ScfApp::run_dag`]; only the schedule differs.
    pub fn run_barrier(&self, pool: &WorkerPool, apply_cfg: &ApplyConfig) -> ScfRun {
        self.run_graph(pool, apply_cfg, true)
    }

    fn run_graph(&self, pool: &WorkerPool, apply_cfg: &ApplyConfig, barrier: bool) -> ScfRun {
        let mut g = TaskGraph::new();
        let n_orb = self.orbitals.len();
        let flags: Vec<Arc<AtomicBool>> = (0..n_orb)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        // Roots: the initial iterates.
        let mut state: Vec<Future<StepValue>> = self
            .orbitals
            .iter()
            .map(|t| {
                let t = Arc::clone(t);
                g.spawn(&[], move || StepValue {
                    tree: t,
                    residual: f64::INFINITY,
                    applied: false,
                })
            })
            .collect();
        let mut steps: Vec<Vec<Future<StepValue>>> = vec![Vec::new(); n_orb];

        for _iter in 0..self.cfg.max_iters {
            // Apply phase: y = G x (skipped once the chain converged).
            let applies: Vec<Future<Option<Arc<FunctionTree>>>> = (0..n_orb)
                .map(|o| {
                    let x = state[o].clone();
                    let op = Arc::clone(&self.op);
                    let cfg = apply_cfg.clone();
                    let flag = Arc::clone(&flags[o]);
                    // `x` is `state[o]`, so the barrier variant's deps
                    // (every orbital's previous step) already cover it.
                    let deps: Vec<_> = if barrier {
                        state.iter().map(|s| s.id()).collect()
                    } else {
                        vec![x.id()]
                    };
                    g.spawn(&deps, move || {
                        if flag.load(Ordering::Acquire) {
                            None
                        } else {
                            let (y, _stats) = apply_batched(&op, &x.get().tree, &cfg);
                            Some(Arc::new(y))
                        }
                    })
                })
                .collect();
            // The barrier between Apply and Update phases: a join task
            // every update waits on as well.
            let sync = barrier.then(|| {
                let ids: Vec<_> = applies.iter().map(|a| a.id()).collect();
                g.spawn(&ids, || ()).id()
            });
            for (o, y) in applies.iter().enumerate() {
                let mut deps = vec![y.id(), state[o].id()];
                deps.extend(sync);
                let next = self.spawn_update(
                    &mut g,
                    &deps,
                    state[o].clone(),
                    y.clone(),
                    Arc::clone(&flags[o]),
                );
                steps[o].push(next.clone());
                state[o] = next;
            }
        }

        let stats = g.run(pool);
        let orbitals = steps
            .into_iter()
            .map(|chain| {
                let residuals: Vec<f64> = chain
                    .iter()
                    .filter_map(|s| {
                        let v = s.get();
                        v.applied.then_some(v.residual)
                    })
                    .collect();
                let last = chain.last().expect("max_iters >= 1").get();
                OrbitalResult {
                    converged: residuals.last().is_some_and(|r| *r < self.cfg.tol),
                    final_norm: last.tree.norm(),
                    residuals,
                }
            })
            .collect();
        ScfRun { orbitals, stats }
    }

    fn spawn_update(
        &self,
        g: &mut TaskGraph,
        deps: &[madness_runtime::TaskId],
        x: Future<StepValue>,
        y: Future<Option<Arc<FunctionTree>>>,
        flag: Arc<AtomicBool>,
    ) -> Future<StepValue> {
        let beta = self.cfg.mixing;
        let tol = self.cfg.tol;
        g.spawn(deps, move || {
            let xv = x.get();
            match y.get() {
                None => StepValue {
                    tree: Arc::clone(&xv.tree),
                    residual: xv.residual,
                    applied: false,
                },
                Some(yt) => {
                    let ny = yt.norm();
                    assert!(ny > 0.0, "G x must not vanish for a Gaussian guess");
                    // x' = normalize((1−β)·y/‖y‖ + β·x)
                    let mut mixed = add((1.0 - beta) / ny, yt, beta, &xv.tree);
                    let nm = mixed.norm();
                    assert!(nm > 0.0, "mixed iterate must not vanish");
                    scale(&mut mixed, 1.0 / nm);
                    let residual = add(1.0, &mixed, -1.0, &xv.tree).norm();
                    if residual < tol {
                        flag.store(true, Ordering::Release);
                    }
                    StepValue {
                        tree: Arc::new(mixed),
                        residual,
                        applied: true,
                    }
                }
            }
        })
    }

    /// The scenario as a timing-only [`DagWorkload`] for the cluster
    /// simulator: one chain per orbital, Apply/Update costs taken from
    /// the orbital's tree size and the operator rank, so per-chain skew
    /// mirrors the real refinement irregularity.
    pub fn dag_workload(&self) -> DagWorkload {
        let mut w = DagWorkload::new();
        let rank = self.op.rank() as u64;
        for (o, tree) in self.orbitals.iter().enumerate() {
            let apply_cost = (tree.len() as u64 * rank / 16).max(1);
            let update_cost = (tree.num_leaves() as u64).max(1);
            let mut prev: Option<usize> = None;
            for it in 0..self.cfg.max_iters as u32 {
                let a = w.push(DagTask {
                    chain: o as u32,
                    step: it * 2,
                    stage: Stage::CpuCompute,
                    cost: apply_cost,
                    deps: prev.into_iter().collect(),
                });
                let u = w.push(DagTask {
                    chain: o as u32,
                    step: it * 2 + 1,
                    stage: Stage::Postprocess,
                    cost: update_cost,
                    deps: vec![a],
                });
                prev = Some(u);
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::ApplyResource;
    use madness_cluster::dag::{run_dag, DagFaultSpec, DagMode};
    use madness_cluster::network::NetworkModel;
    use madness_cluster::node::NodeRate;
    use madness_gpusim::SimTime;
    use madness_trace::NullRecorder;

    fn cpu_cfg() -> ApplyConfig {
        ApplyConfig {
            resource: ApplyResource::Cpu,
            ..ApplyConfig::default()
        }
    }

    #[test]
    fn scf_converges_and_dag_matches_barrier_bitwise() {
        let app = ScfApp::small(ScfConfig::default());
        let pool = WorkerPool::new(4);
        let dag = app.run_dag(&pool, &cpu_cfg());
        let bar = app.run_barrier(&pool, &cpu_cfg());
        assert_eq!(
            dag.orbitals, bar.orbitals,
            "schedule must not change values"
        );
        for orb in &dag.orbitals {
            assert!(!orb.residuals.is_empty());
            let first = orb.residuals[0];
            let last = *orb.residuals.last().unwrap();
            assert!(
                last < first,
                "fixed point must contract: {:?}",
                orb.residuals
            );
            assert!((orb.final_norm - 1.0).abs() < 1e-10, "{}", orb.final_norm);
        }
        // The barrier variant has strictly more edges (the join tasks).
        assert!(bar.stats.edges > dag.stats.edges);
    }

    #[test]
    fn scf_runs_are_bit_identical() {
        let app = ScfApp::small(ScfConfig::default());
        let pool = WorkerPool::new(4);
        let a = app.run_dag(&pool, &cpu_cfg());
        let b = app.run_dag(&pool, &cpu_cfg());
        assert_eq!(a.orbitals, b.orbitals);
    }

    #[test]
    fn scf_dag_workload_overlaps_on_the_cluster() {
        let app = ScfApp::small(ScfConfig {
            orbitals: 3,
            ..ScfConfig::default()
        });
        let w = app.dag_workload();
        assert_eq!(w.chains(), 3);
        assert_eq!(w.len(), 3 * 2 * app.cfg.max_iters);
        let rate = NodeRate {
            startup: SimTime::from_micros(5),
            per_task: SimTime::from_micros(1),
        };
        let net = NetworkModel::default();
        let df = run_dag(
            &w,
            3,
            rate,
            &net,
            DagMode::Dataflow,
            &DagFaultSpec::none(),
            &mut NullRecorder,
        );
        let ba = run_dag(
            &w,
            3,
            rate,
            &net,
            DagMode::Barrier,
            &DagFaultSpec::none(),
            &mut NullRecorder,
        );
        assert!(df.overlap_ns > 0, "{df:?}");
        assert_eq!(ba.overlap_ns, 0);
        assert!(df.makespan <= ba.makespan);
    }
}
