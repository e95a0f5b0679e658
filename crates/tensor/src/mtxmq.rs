//! The `mtxmq` kernel: matrix-transpose × matrix products.
//!
//! MADNESS's hot inner kernel computes `C = Aᵀ·B` where `A` is stored as a
//! `(dimk, dimi)` row-major matrix, `B` as `(dimk, dimj)` and `C` as
//! `(dimi, dimj)`:
//!
//! ```text
//! C(i,j) = Σ_k A(k,i) · B(k,j)
//! ```
//!
//! In the Apply operator `A` is the coefficient tensor viewed as a
//! `(k, k^{d-1})` matrix (so `Aᵀ` is the paper's `(k^{d-1}, k)` operand)
//! and `B` is a small `(k, k)` operator block `h^{(μ,i)}`. The loop order
//! below (`i` outer, `k` middle, `j` inner) streams `B` and `C` rows
//! contiguously so the compiler can vectorize the inner loop; this is the
//! safe-Rust analogue of the assembly kernels the paper's CPU baseline
//! uses.

/// Computes `C(i,j) = Σ_k A(k,i)·B(k,j)` (overwrites `c`).
///
/// * `a` — row-major `(dimk, dimi)`;
/// * `b` — row-major `(dimk, dimj)`;
/// * `c` — row-major `(dimi, dimj)`, fully overwritten.
///
/// # Panics
/// Panics if slice lengths do not match the stated dimensions.
pub fn mtxmq(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    mtxmq_acc(dimi, dimj, dimk, a, b, c);
}

/// Computes `C(i,j) += Σ_k A(k,i)·B(k,j)` (accumulates into `c`).
///
/// Same layout contract as [`mtxmq`].
///
/// # Panics
/// Panics if slice lengths do not match the stated dimensions.
pub fn mtxmq_acc(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), dimk * dimi, "A must be (dimk, dimi)");
    assert_eq!(b.len(), dimk * dimj, "B must be (dimk, dimj)");
    assert_eq!(c.len(), dimi * dimj, "C must be (dimi, dimj)");
    mtxmq_acc_rows(dimi, dimj, dimk, a, b, c);
}

/// Shared inner kernel: `C(i,j) += Σ_{k < kr} A(k,i)·B(k,j)` with the
/// length asserts already done by the caller. The kernel choice — the
/// runtime-width scalar loop, a width-specialized const loop, the
/// row-blocked AVX loop (where the host has AVX), or the cache-blocked
/// loop — comes from the autotuned [`crate::kernel`] table (heuristic
/// fallback when no table is installed). Every candidate performs the
/// identical operations in the identical order, so results are
/// bit-identical across them.
#[inline]
fn mtxmq_acc_rows(dimi: usize, dimj: usize, kr: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    crate::kernel::resolve(dimi, dimj).run_span(dimi, 0, dimi, dimj, kr, a, b, c);
}

/// Rank-reduced `mtxmq`: `C(i,j) = Σ_{k < kr} A(k,i)·B(k,j)`.
///
/// Implements the paper's *rank reduction* (Fig. 4): rows of `Aᵀ`'s
/// contraction index and the matching rows of `B` beyond the effective
/// rank `kr` are known to be negligible and are skipped. The output shape
/// is unchanged ("reducing the rows and columns does not change the
/// dimension of the result matrix").
///
/// # Panics
/// Panics if `kr > dimk` or slice lengths do not match.
pub fn mtxmq_rr(
    dimi: usize,
    dimj: usize,
    dimk: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    c.fill(0.0);
    mtxmq_rr_acc(dimi, dimj, dimk, kr, a, b, c);
}

/// Accumulating rank-reduced kernel: `C(i,j) += Σ_{k < kr} A(k,i)·B(k,j)`.
///
/// Same contract as [`mtxmq_rr`] without the initial zeroing of `c`.
///
/// # Panics
/// Panics if `kr > dimk` or slice lengths do not match.
pub fn mtxmq_rr_acc(
    dimi: usize,
    dimj: usize,
    dimk: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    assert!(kr <= dimk, "effective rank {kr} exceeds dimk {dimk}");
    assert_eq!(a.len(), dimk * dimi, "A must be (dimk, dimi)");
    assert_eq!(b.len(), dimk * dimj, "B must be (dimk, dimj)");
    assert_eq!(c.len(), dimi * dimj, "C must be (dimi, dimj)");
    mtxmq_acc_rows(dimi, dimj, kr, a, b, c);
}

/// Reference (naive, obviously-correct) implementation used by tests and
/// property checks.
pub fn mtxmq_reference(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; dimi * dimj];
    for i in 0..dimi {
        for j in 0..dimj {
            let mut acc = 0.0;
            for k in 0..dimk {
                acc += a[k * dimi + i] * b[k * dimj + j];
            }
            c[i * dimj + j] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect()
    }

    #[test]
    fn matches_reference_small() {
        let (dimi, dimj, dimk) = (4, 5, 3);
        let a = seq(dimk * dimi);
        let b = seq(dimk * dimj);
        let mut c = vec![1.0; dimi * dimj]; // garbage to confirm overwrite
        mtxmq(dimi, dimj, dimk, &a, &b, &mut c);
        assert_eq!(c, mtxmq_reference(dimi, dimj, dimk, &a, &b));
    }

    #[test]
    fn matches_reference_paper_shapes() {
        // (k^2, k) × (k, k) with k = 10: the 3-D Apply shape.
        let k = 10;
        let (dimi, dimj, dimk) = (k * k, k, k);
        let a = seq(dimk * dimi);
        let b = seq(dimk * dimj);
        let mut c = vec![0.0; dimi * dimj];
        mtxmq(dimi, dimj, dimk, &a, &b, &mut c);
        let r = mtxmq_reference(dimi, dimj, dimk, &a, &b);
        for (x, y) in c.iter().zip(&r) {
            assert!((x - y).abs() < 1e-9 * y.abs().max(1.0));
        }
    }

    #[test]
    fn acc_accumulates_on_top() {
        let (dimi, dimj, dimk) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity stored (k,i)
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![100.0; 4];
        mtxmq_acc(dimi, dimj, dimk, &a, &b, &mut c);
        assert_eq!(c, vec![105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn identity_a_copies_b() {
        let k = 6;
        let ident: Vec<f64> = (0..k * k)
            .map(|x| if x / k == x % k { 1.0 } else { 0.0 })
            .collect();
        let b = seq(k * k);
        let mut c = vec![0.0; k * k];
        mtxmq(k, k, k, &ident, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn rank_reduced_with_full_rank_equals_plain() {
        let (dimi, dimj, dimk) = (9, 3, 3);
        let a = seq(dimk * dimi);
        let b = seq(dimk * dimj);
        let mut c1 = vec![0.0; dimi * dimj];
        let mut c2 = vec![0.0; dimi * dimj];
        mtxmq(dimi, dimj, dimk, &a, &b, &mut c1);
        mtxmq_rr(dimi, dimj, dimk, dimk, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn rank_reduced_ignores_tail_rows() {
        let (dimi, dimj, dimk, kr) = (3, 3, 4, 2);
        let mut a = seq(dimk * dimi);
        let mut b = seq(dimk * dimj);
        let mut c1 = vec![0.0; dimi * dimj];
        mtxmq_rr(dimi, dimj, dimk, kr, &a, &b, &mut c1);
        // Zeroing the skipped rows must not change the result.
        for row in kr..dimk {
            for x in &mut a[row * dimi..(row + 1) * dimi] {
                *x = f64::NAN;
            }
            for x in &mut b[row * dimj..(row + 1) * dimj] {
                *x = f64::NAN;
            }
        }
        let mut c2 = vec![0.0; dimi * dimj];
        mtxmq_rr(dimi, dimj, dimk, kr, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "effective rank")]
    fn rank_above_dimk_panics() {
        let mut c = vec![0.0; 4];
        mtxmq_rr(2, 2, 2, 3, &[0.0; 4], &[0.0; 4], &mut c);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn bad_a_length_panics() {
        let mut c = vec![0.0; 4];
        mtxmq(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
