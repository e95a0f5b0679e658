//! Reproductions of Figures 5 and 6: batched small-GEMM GFLOPS, custom
//! kernel (`cu_mtxm_kernel`) vs cuBLAS 4.1.
//!
//! Figure 5 measures batches of **60** multiplications `(k², k) × (k, k)`
//! (= one rank-20, 3-D Apply task: 20 terms × 3 dimensions); Figure 6
//! batches of **20** multiplications `(k³, k) × (k, k)` (= one rank-5,
//! 4-D task). Reported GFLOPS is total batch FLOPs over simulated batch
//! time with a single kernel instance (custom) or one launch per GEMM
//! (cuBLAS) — the paper's original measurement ran on a GTX 480; the
//! shape, not the absolute height, is the reproduction target.

use crate::report::Report;
use madness_gpusim::kernel::kernel_cost;
use madness_gpusim::{DeviceSpec, KernelKind, TransformTask};
use std::fmt::Write as _;

/// One point of a kernel-GFLOPS sweep.
#[derive(Clone, Copy, Debug)]
pub struct FigRow {
    /// Tensor size per dimension.
    pub k: usize,
    /// Custom-kernel GFLOPS.
    pub custom_gflops: f64,
    /// cuBLAS-like GFLOPS.
    pub cublas_gflops: f64,
}

impl FigRow {
    /// custom / cuBLAS throughput ratio.
    pub fn ratio(&self) -> f64 {
        self.custom_gflops / self.cublas_gflops
    }
}

fn sweep(d: usize, rank: usize, ks: &[usize]) -> Vec<FigRow> {
    let spec = DeviceSpec::default();
    ks.iter()
        .map(|&k| {
            let task = TransformTask::shape_only(d, k, rank, 0);
            let flops = task.flops() as f64;
            let gflops =
                |kind| flops / kernel_cost(&spec, kind, &task).duration.as_secs_f64() / 1e9;
            FigRow {
                k,
                custom_gflops: gflops(KernelKind::CustomMtxmq),
                cublas_gflops: gflops(KernelKind::CublasLike),
            }
        })
        .collect()
}

/// Figure 5: 3-D products, batches of 60 multiplications, k = 10…28.
pub fn fig5() -> Vec<FigRow> {
    sweep(3, 20, &[10, 12, 14, 16, 18, 20, 22, 24, 26, 28])
}

/// Figure 6: 4-D products, batches of 20 multiplications, k = 8…20.
pub fn fig6() -> Vec<FigRow> {
    sweep(4, 5, &[8, 10, 12, 14, 16, 18, 20])
}

/// `tablegen fig5` / `fig6`: one sweep's GFLOPS table.
pub(crate) fn sweep_report(rows: &[FigRow]) -> Report {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6}{:>18}{:>18}{:>10}",
        "k", "custom (GFLOPS)", "cuBLAS (GFLOPS)", "ratio"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6}{:>18.2}{:>18.2}{:>10.2}",
            r.k,
            r.custom_gflops,
            r.cublas_gflops,
            r.ratio()
        );
    }
    Report::printed(out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_custom_wins_small_k_by_paper_factor() {
        let rows = fig5();
        let k10 = rows.iter().find(|r| r.k == 10).unwrap();
        // Abstract: "a speedup of 2.2-times by using a custom CUDA kernel
        // rather than a cuBLAS-based kernel" for smaller matrices.
        assert!(
            (1.8..3.2).contains(&k10.ratio()),
            "k=10 ratio {:.2}",
            k10.ratio()
        );
    }

    #[test]
    fn fig5_cublas_takes_over_at_large_k() {
        let rows = fig5();
        let k28 = rows.iter().find(|r| r.k == 28).unwrap();
        assert!(
            k28.ratio() < 1.0,
            "cuBLAS must win at k=28, ratio {:.2}",
            k28.ratio()
        );
        // There is a crossover somewhere in the sweep.
        assert!(rows.first().unwrap().ratio() > 1.0);
    }

    #[test]
    fn fig5_cublas_monotone_in_k() {
        let rows = fig5();
        for w in rows.windows(2) {
            assert!(
                w[1].cublas_gflops >= w[0].cublas_gflops * 0.99,
                "cuBLAS GFLOPS should grow with k"
            );
        }
    }

    #[test]
    fn fig6_cublas_dominates_4d() {
        // The paper used cuBLAS for all 4-D work; the custom kernel
        // spills shared memory there.
        let rows = fig6();
        let k14 = rows.iter().find(|r| r.k == 14).unwrap();
        assert!(
            k14.ratio() < 1.0,
            "cuBLAS must win 4-D k=14, ratio {:.2}",
            k14.ratio()
        );
    }

    #[test]
    fn gflops_are_physically_plausible() {
        // Nothing exceeds the M2090's 665 DP GFLOPS peak.
        for r in fig5().iter().chain(fig6().iter()) {
            assert!(r.custom_gflops < 665.0 && r.cublas_gflops < 665.0);
            assert!(r.custom_gflops > 0.1 && r.cublas_gflops > 0.1);
        }
    }
}
