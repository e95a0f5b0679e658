//! The two GPU kernel implementations and their cost models.
//!
//! * [`KernelKind::CustomMtxmq`] — the paper's custom CUDA kernel
//!   (Algorithm 7): **one launch per task**, the whole rank-`M` loop of
//!   Formula 1 embedded in the kernel, running on 2–3 reserved SMs with
//!   an inter-block barrier between multiplication steps. Shared-memory
//!   locality between steps is what per-GEMM launches cannot have.
//! * [`KernelKind::CublasLike`] — the baseline: **one GEMM launch per
//!   multiplication step** (`M × d` launches per task), each spread over
//!   all 16 SMs, with occupancy (efficiency) growing with the GEMM size.
//!
//! Both kinds compute *identical* numerics ([`execute_tasks`], Formula
//! 1's one host implementation); only their time models differ.

use crate::clock::SimTime;
use crate::spec::DeviceSpec;
use crate::task::TransformTask;
use madness_tensor::{transform_sum_accumulate_group, Tensor, TransformScratch};
use std::borrow::Borrow;

/// Which kernel implementation services a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The paper's custom batched kernel (`cu_mtxm_kernel` in Figs. 5–6).
    CustomMtxmq,
    /// Per-GEMM cuBLAS 4.1-style launches.
    CublasLike,
}

impl KernelKind {
    /// The choice the paper's dispatcher makes: custom kernels for small
    /// 3-D tensors, cuBLAS in "the regime in which cuBLAS performs well"
    /// (k = 20 three-dimensional blocks, and all 4-D work).
    pub fn auto_select(d: usize, k: usize) -> KernelKind {
        if d <= 3 && k < 18 {
            KernelKind::CustomMtxmq
        } else {
            KernelKind::CublasLike
        }
    }
}

/// Cost of running one task under a kernel model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCost {
    /// Time the task occupies its stream (launch overheads included).
    pub duration: SimTime,
    /// Kernel launches performed.
    pub launches: u64,
    /// SMs the kernel holds while running (for concurrency limits).
    pub sms_used: usize,
}

/// Time model for one task under `kind`.
///
/// Rank reduction (`effective_ranks` on terms) shortens the *CPU* path
/// only; both GPU kinds deliberately ignore it, matching §II-D: the
/// custom kernel's "two or three SMs were already reserved" at launch,
/// and the paper's GPU code paths never implemented it for cuBLAS (a
/// skinnier inner dimension would run *less* efficiently anyway).
pub fn kernel_cost(spec: &DeviceSpec, kind: KernelKind, task: &TransformTask) -> KernelCost {
    let d = task.d;
    let k = task.k;
    match kind {
        KernelKind::CustomMtxmq => {
            let sms = spec.custom_kernel_sms(d, k);
            let rate = sms as f64 * spec.dp_gflops_per_sm * 1e9 * spec.custom_efficiency(d, k);
            if spec.dynamic_parallelism && task.terms.iter().any(|t| t.effective_ranks.is_some()) {
                // The paper's future work (§II-D/§VI): on Kepler, CUDA 5
                // dynamic parallelism lets the kernel launch sub-kernels
                // sized to the *reduced* multiplications, so rank
                // reduction finally pays on the GPU. Each multiplication
                // costs a cheap device-side sub-launch instead of an
                // inter-block barrier.
                let compute = SimTime::from_secs_f64(task.flops_rank_reduced() as f64 / rate);
                let sub_launches = SimTime::from_nanos(800) * task.num_multiplications();
                KernelCost {
                    duration: spec.kernel_launch_overhead + compute + sub_launches,
                    launches: 1,
                    sms_used: sms,
                }
            } else {
                // Fermi: GPU resources are allocated at launch — the
                // kernel always pays the full (non-reduced) FLOP count.
                let compute = SimTime::from_secs_f64(task.flops() as f64 / rate);
                let barriers = spec.interblock_barrier * task.num_multiplications();
                KernelCost {
                    duration: spec.kernel_launch_overhead + compute + barriers,
                    launches: 1,
                    sms_used: sms,
                }
            }
        }
        KernelKind::CublasLike => {
            let launches = task.num_multiplications();
            if launches == 0 {
                return KernelCost {
                    sms_used: 1,
                    ..KernelCost::default()
                };
            }
            // All `M × d` launches are the same `(k^{d-1}, k) × (k, k)`
            // GEMM. `SimTime` is integer nanoseconds, so pricing one and
            // multiplying is bit-identical to summing launch by launch.
            let fused = (k as u64).pow(d as u32 - 1) as usize;
            let flops = madness_tensor::flops::mtxmq_flops(fused, k, k);
            let (sms, rate) = spec.cublas_gemm(fused, k, k);
            let per_gemm =
                spec.kernel_launch_overhead + SimTime::from_secs_f64(flops as f64 / rate);
            KernelCost {
                duration: per_gemm * launches,
                launches,
                sms_used: sms,
            }
        }
    }
}

/// Executes every task's arithmetic (Formula 1): `r = Σ_μ c_μ ·
/// transform(s, h^{(μ,·)})`, results in task order. Each run of
/// consecutive tasks of one rank over one source
/// ([`TransformTask::same_source`]) is one
/// [`transform_sum_accumulate_group`] call: they share leading passes,
/// and each result is bit for bit what the task computes alone.
/// `rank_reduced` passes effective ranks on (the CPU path; paper §II-D).
///
/// # Panics
/// Panics on a timing-only task.
pub fn execute_tasks<T: Borrow<TransformTask>>(
    tasks: &[T],
    rank_reduced: bool,
    scratch: &mut TransformScratch,
) -> Vec<Tensor> {
    let mut rs: Vec<Tensor> = Vec::with_capacity(tasks.len());
    let same_run =
        |a: &T, b: &T| a.borrow().same_source(b.borrow()) && a.borrow().rank() == b.borrow().rank();
    for run in tasks.chunk_by(same_run) {
        let first = run[0].borrow();
        let s = first.s.as_ref().expect("a timing-only task has no source");
        let done = rs.len();
        rs.extend(run.iter().map(|_| Tensor::zeros(s.shape())));
        let term = |task: usize, mu| run[task].borrow().sum_term(mu, rank_reduced);
        transform_sum_accumulate_group(s, first.rank(), term, scratch, &mut rs[done..]);
    }
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{HBlock, TransformTerm};
    use madness_tensor::Shape;
    use std::sync::Arc;

    fn paper_task_3d_k10() -> TransformTask {
        TransformTask::shape_only(3, 10, 100, 0)
    }

    #[test]
    fn custom_kernel_is_single_launch_near_1ms() {
        // Paper §II-A: a typical 3-D custom kernel runs ~1 ms.
        let spec = DeviceSpec::default();
        let c = kernel_cost(&spec, KernelKind::CustomMtxmq, &paper_task_3d_k10());
        assert_eq!(c.launches, 1);
        let ms = c.duration.as_millis_f64();
        assert!((0.5..2.0).contains(&ms), "custom kernel {ms} ms");
    }

    #[test]
    fn cublas_pays_launch_per_multiplication() {
        let spec = DeviceSpec::default();
        let c = kernel_cost(&spec, KernelKind::CublasLike, &paper_task_3d_k10());
        assert_eq!(c.launches, 300);
        // A (100, 10) × (10, 10) GEMM occupies only 2 of the 16 SMs.
        assert_eq!(c.sms_used, 2);
    }

    #[test]
    fn custom_beats_cublas_at_small_k_by_paper_ratio() {
        // Tables III/IV & Fig. 5: ~2.2–2.8× at k = 10, 3-D.
        let spec = DeviceSpec::default();
        let t = paper_task_3d_k10();
        let custom = kernel_cost(&spec, KernelKind::CustomMtxmq, &t).duration;
        let cublas = kernel_cost(&spec, KernelKind::CublasLike, &t).duration;
        let ratio = cublas.as_secs_f64() / custom.as_secs_f64();
        assert!(
            (1.8..3.5).contains(&ratio),
            "custom/cuBLAS ratio {ratio:.2} outside paper band"
        );
    }

    #[test]
    fn cublas_cost_is_the_launch_by_launch_sum() {
        // The closed form must equal the `rank × d`-term sum it
        // replaced, written out here, to the nanosecond.
        let spec = DeviceSpec::default();
        for d in [3usize, 4] {
            for k in [4usize, 10, 14, 20, 30] {
                for rank in [0usize, 1, 34, 100] {
                    for rr in [false, true] {
                        let task = if rr {
                            TransformTask::shape_only_rr(d, k, rank, 0, 3)
                        } else {
                            TransformTask::shape_only(d, k, rank, 0)
                        };
                        let fused = k.pow(d as u32 - 1);
                        let mut want = KernelCost {
                            sms_used: 1,
                            ..KernelCost::default()
                        };
                        for _term in 0..rank {
                            for _dim in 0..d {
                                let flops = madness_tensor::flops::mtxmq_flops(fused, k, k);
                                let (sms, rate) = spec.cublas_gemm(fused, k, k);
                                want.sms_used = want.sms_used.max(sms);
                                want.duration += spec.kernel_launch_overhead
                                    + SimTime::from_secs_f64(flops as f64 / rate);
                                want.launches += 1;
                            }
                        }
                        let got = kernel_cost(&spec, KernelKind::CublasLike, &task);
                        assert_eq!(got, want, "d={d} k={k} rank={rank} rr={rr}");
                    }
                }
            }
        }
    }

    #[test]
    fn cublas_wins_at_k20() {
        // Table II: k = 20 is "the regime in which cuBLAS performs well".
        let spec = DeviceSpec::default();
        let t = TransformTask::shape_only(3, 20, 100, 0);
        let custom = kernel_cost(&spec, KernelKind::CustomMtxmq, &t).duration;
        let cublas = kernel_cost(&spec, KernelKind::CublasLike, &t).duration;
        assert!(cublas < custom, "cuBLAS {cublas} vs custom {custom}");
    }

    #[test]
    fn cublas_wins_for_4d() {
        let spec = DeviceSpec::default();
        let t = TransformTask::shape_only(4, 14, 100, 0);
        let custom = kernel_cost(&spec, KernelKind::CustomMtxmq, &t).duration;
        let cublas = kernel_cost(&spec, KernelKind::CublasLike, &t).duration;
        assert!(cublas < custom);
    }

    #[test]
    fn auto_select_matches_paper_choices() {
        assert_eq!(KernelKind::auto_select(3, 10), KernelKind::CustomMtxmq);
        assert_eq!(KernelKind::auto_select(3, 20), KernelKind::CublasLike);
        assert_eq!(KernelKind::auto_select(4, 14), KernelKind::CublasLike);
    }

    #[test]
    fn rank_reduction_does_not_change_gpu_costs() {
        // §II-D: "did not have a noticeable effect on performance" —
        // GPU resources are allocated at kernel launch time.
        let spec = DeviceSpec::default();
        let mut t = paper_task_3d_k10();
        let custom_full = kernel_cost(&spec, KernelKind::CustomMtxmq, &t);
        let cublas_full = kernel_cost(&spec, KernelKind::CublasLike, &t);
        for term in Arc::make_mut(&mut t.terms) {
            term.effective_ranks = Some(vec![4, 4, 4]);
        }
        assert_eq!(
            kernel_cost(&spec, KernelKind::CustomMtxmq, &t).duration,
            custom_full.duration
        );
        assert_eq!(
            kernel_cost(&spec, KernelKind::CublasLike, &t).duration,
            cublas_full.duration
        );
    }

    #[test]
    fn kepler_dynamic_parallelism_unlocks_gpu_rank_reduction() {
        // The paper's future work realized: on a K20X with dynamic
        // parallelism, rank-reduced tasks genuinely run faster.
        let kepler = DeviceSpec::kepler_k20x();
        assert!(kepler.dynamic_parallelism);
        let mut t = paper_task_3d_k10();
        let full = kernel_cost(&kepler, KernelKind::CustomMtxmq, &t).duration;
        for term in Arc::make_mut(&mut t.terms) {
            term.effective_ranks = Some(vec![4, 4, 4]);
        }
        let reduced = kernel_cost(&kepler, KernelKind::CustomMtxmq, &t).duration;
        let gain = full.as_secs_f64() / reduced.as_secs_f64();
        assert!(
            (1.3..2.6).contains(&gain),
            "Kepler rank-reduction gain {gain:.2}"
        );
        // While the Fermi default still ignores it entirely.
        let fermi = DeviceSpec::default();
        let fermi_full = kernel_cost(&fermi, KernelKind::CustomMtxmq, &t).duration;
        let mut t2 = paper_task_3d_k10();
        t2.terms = t.terms.clone();
        for term in Arc::make_mut(&mut t2.terms) {
            term.effective_ranks = None;
        }
        let fermi_norr = kernel_cost(&fermi, KernelKind::CustomMtxmq, &t2).duration;
        assert_eq!(fermi_full, fermi_norr);
    }

    #[test]
    fn kepler_is_faster_silicon() {
        let kepler = DeviceSpec::kepler_k20x();
        let fermi = DeviceSpec::default();
        assert!(kepler.peak_flops() > 1.8 * fermi.peak_flops());
        let t = paper_task_3d_k10();
        let tk = kernel_cost(&kepler, KernelKind::CustomMtxmq, &t).duration;
        let tf = kernel_cost(&fermi, KernelKind::CustomMtxmq, &t).duration;
        assert!(tk < tf);
    }

    #[test]
    fn execute_task_identity_blocks_reproduce_scaled_sum() {
        // Two identity terms with coefficients 2 and 3 ⇒ r = 5 s.
        let k = 4;
        let s = Arc::new(Tensor::from_fn(Shape::cube(3, k), |ix| {
            (ix[0] * 16 + ix[1] * 4 + ix[2]) as f64
        }));
        let ident = Arc::new(Tensor::identity(k));
        let mk_term = |c: f64| TransformTerm {
            coeff: c,
            hs: (0..3)
                .map(|i| HBlock::new(i as u64, Arc::clone(&ident)))
                .collect(),
            effective_ranks: None,
        };
        let task = TransformTask {
            d: 3,
            k,
            s: Some(Arc::clone(&s)),
            terms: Arc::new(vec![mk_term(2.0), mk_term(3.0)]),
        };
        let mut scratch = TransformScratch::new();
        let r = execute_tasks(&[task], false, &mut scratch);
        let want = &*s * 5.0;
        assert!(r[0].distance(&want) < 1e-12);
    }

    #[test]
    fn timing_only_task_returns_none() {
        // `execute_tasks` has nothing to compute a timing-only task from;
        // a `Full` batch hands it back without a result.
        let out = crate::GpuDevice::new(DeviceSpec::default(), 5).execute_batch(
            &[paper_task_3d_k10()],
            KernelKind::CustomMtxmq,
            crate::ExecMode::Full,
        );
        assert!(out.all_ok() && out.results[0].is_none());
    }

    #[test]
    #[should_panic(expected = "a timing-only task has no source")]
    fn execute_tasks_rejects_a_timing_only_task() {
        execute_tasks(&[paper_task_3d_k10()], false, &mut TransformScratch::new());
    }
}
