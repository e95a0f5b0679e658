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
/// The kernel choice — the runtime-width scalar loop, a
/// width-specialized const loop, the row-blocked AVX loop (where the
/// host has AVX), or the cache-blocked loop — comes from the autotuned
/// [`crate::kernel`] table (heuristic fallback when no table is
/// installed). Every candidate performs the identical operations in the
/// identical order, so results are bit-identical across them.
///
/// # Panics
/// Panics if slice lengths do not match the stated dimensions.
pub fn mtxmq(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), dimk * dimi, "A must be (dimk, dimi)");
    assert_eq!(b.len(), dimk * dimj, "B must be (dimk, dimj)");
    assert_eq!(c.len(), dimi * dimj, "C must be (dimi, dimj)");
    c.fill(0.0);
    crate::kernel::resolve(dimi, dimj).run_span(dimi, 0, dimi, dimj, dimk, a, b, c);
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
    #[should_panic(expected = "A must be")]
    fn bad_a_length_panics() {
        let mut c = vec![0.0; 4];
        mtxmq(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
