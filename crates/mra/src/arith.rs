//! Function arithmetic on trees: `αf + βg` and scaling.
//!
//! MADNESS exposes these as `gaxpy` on functions; the SCF and BSH-chain
//! applications chain them between Apply calls. Trees may have different
//! refinement structures — addition reconciles them through mixed-level
//! accumulation + `sum_down`.

use crate::key::Key;
use crate::ops::sum_down;
use crate::tree::{FunctionTree, TreeForm};

/// `αa + βb` as a new reconstructed tree. The result is refined wherever
/// either input is (union structure).
///
/// # Panics
/// Panics if the trees differ in `d`/`k` or either is not reconstructed.
pub fn add(alpha: f64, a: &FunctionTree, beta: f64, b: &FunctionTree) -> FunctionTree {
    assert_eq!(a.d(), b.d(), "dimensionality mismatch");
    assert_eq!(a.k(), b.k(), "order mismatch");
    assert_eq!(a.form(), TreeForm::Reconstructed, "a must be reconstructed");
    assert_eq!(b.form(), TreeForm::Reconstructed, "b must be reconstructed");
    let mut out = FunctionTree::new(a.d(), a.k());
    for (key, coeffs) in a.leaves() {
        out.accumulate(*key, alpha, coeffs);
    }
    for (key, coeffs) in b.leaves() {
        out.accumulate(*key, beta, coeffs);
    }
    // Mixed-level contributions (a leaf of `a` may be an ancestor of a
    // leaf of `b`) are pushed down to the union leaves.
    sum_down(&mut out);
    out
}

/// Scales every coefficient of `t` in place (valid in either form —
/// both bases are linear).
pub fn scale(t: &mut FunctionTree, alpha: f64) {
    let keys: Vec<Key> = t.iter().map(|(k, _)| *k).collect();
    for key in keys {
        if let Some(node) = t.get_mut(&key) {
            if let Some(c) = &mut node.coeffs {
                c.scale(alpha);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{eval_at, project_adaptive, ProjectParams};

    fn project(f: impl Fn(&[f64]) -> f64 + Sync, thresh: f64) -> FunctionTree {
        project_adaptive(
            1,
            8,
            &f,
            &ProjectParams {
                thresh,
                initial_level: 2,
                max_level: 12,
            },
        )
    }

    fn g1(x: &[f64]) -> f64 {
        (-(x[0] - 0.35) * (x[0] - 0.35) / 0.004).exp()
    }

    fn g2(x: &[f64]) -> f64 {
        (-(x[0] - 0.7) * (x[0] - 0.7) / 0.01).exp()
    }

    #[test]
    fn add_matches_pointwise_sum() {
        let a = project(g1, 1e-8);
        let b = project(g2, 1e-8);
        let s = add(2.0, &a, -0.5, &b);
        for i in 0..50 {
            let x = [(i as f64 + 0.5) / 50.0];
            let got = eval_at(&s, &x).unwrap();
            let want = 2.0 * g1(&x) - 0.5 * g2(&x);
            assert!((got - want).abs() < 1e-6, "at {x:?}: {got} vs {want}");
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn add_handles_different_refinement_depths() {
        // Sharp vs smooth: very different tree shapes.
        let a = project(g1, 1e-9);
        let b = project(|_: &[f64]| 0.25, 1e-4);
        assert_ne!(a.len(), b.len());
        let s = add(1.0, &a, 1.0, &b);
        for i in [3, 17, 31, 47] {
            let x = [(i as f64 + 0.5) / 50.0];
            let got = eval_at(&s, &x).unwrap();
            assert!((got - (g1(&x) + 0.25)).abs() < 1e-6);
        }
    }

    #[test]
    fn scale_scales_norm() {
        let mut a = project(g1, 1e-8);
        let n0 = a.norm();
        scale(&mut a, -3.0);
        assert!((a.norm() - 3.0 * n0).abs() < 1e-12 * (1.0 + n0));
    }
}
