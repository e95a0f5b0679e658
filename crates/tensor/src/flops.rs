//! Floating-point-operation accounting.
//!
//! The discrete-event simulators (CPU roofline, simulated GPU) convert
//! work into time through FLOP counts; keeping the counting next to the
//! kernels guarantees the models and the arithmetic stay in sync.

/// FLOPs of one `mtxmq`/GEMM `C(i,j) (+)= Σ_k A(k,i)B(k,j)`:
/// one multiply + one add per inner-product term.
#[inline]
pub fn mtxmq_flops(dimi: usize, dimj: usize, dimk: usize) -> u64 {
    2 * (dimi as u64) * (dimj as u64) * (dimk as u64)
}

/// FLOPs of a full `d`-pass [`crate::transform()`] on a `k^d` cube with
/// square `(k,k)` operators: `d` passes of `(k^{d-1}, k) × (k, k)`.
#[inline]
pub fn transform_flops(d: usize, k: usize) -> u64 {
    let fused = (k as u64).pow((d as u32) - 1) as usize;
    (d as u64) * mtxmq_flops(fused, k, k)
}

/// FLOPs of a rank-reduced transform where pass `p` contracts only
/// `krs[p]` of the `k` entries (paper §II-D).
pub fn transform_rr_flops(d: usize, k: usize, krs: &[usize]) -> u64 {
    assert_eq!(krs.len(), d, "need one effective rank per dimension");
    let fused = (k as u64).pow((d as u32) - 1) as usize;
    krs.iter().map(|&kr| mtxmq_flops(fused, k, kr.min(k))).sum()
}

/// FLOPs of one full rank-`m` Apply task: `m` separated-rank terms, each a
/// `d`-pass transform (Formula 1).
#[inline]
pub fn apply_task_flops(d: usize, k: usize, m: usize) -> u64 {
    (m as u64) * transform_flops(d, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtxmq_flops_is_2ijk() {
        assert_eq!(mtxmq_flops(100, 10, 10), 20_000);
    }

    #[test]
    fn transform_flops_is_2dk_pow_d_plus_1() {
        // d=3, k=10: 3 * 2 * 10^4 ... careful: 2 * k^{d-1} * k * k * d
        // = 2 d k^{d+1} = 2*3*10^4 = 60_000.
        assert_eq!(transform_flops(3, 10), 60_000);
        assert_eq!(transform_flops(4, 14), 8 * 14u64.pow(5));
    }

    #[test]
    fn rank_reduced_flops_below_full() {
        let full = transform_flops(3, 10);
        let rr = transform_rr_flops(3, 10, &[4, 4, 4]);
        assert_eq!(rr, full * 4 / 10);
    }

    #[test]
    fn apply_task_scales_with_rank() {
        assert_eq!(apply_task_flops(3, 10, 100), 100 * transform_flops(3, 10));
    }
}
