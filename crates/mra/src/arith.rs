//! Function arithmetic on trees: `αf + βg`, scaling, inner products.
//!
//! MADNESS exposes these as `gaxpy`/`inner` on functions; applications
//! chain them between Apply calls (e.g. building densities, computing
//! energies). Trees may have different refinement structures — addition
//! reconciles them through mixed-level accumulation + `sum_down`, and
//! inner products exploit the orthonormality of the multiwavelet basis
//! in the compressed form.

use crate::key::Key;
use crate::ops::{compress, sum_down};
use crate::quadrature::Quadrature;
use crate::tree::{FunctionTree, TreeForm};
use crate::twoscale::{insert_s_corner, scatter_children, TwoScale};
use madness_tensor::{transform, Shape, Tensor};

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

/// The L² inner product `⟨a, b⟩`, computed in the compressed form where
/// the basis is orthonormal across levels: `⟨a,b⟩ = Σ_keys ⟨blocks⟩`
/// (missing blocks are zero).
///
/// # Panics
/// Panics if the trees differ in `d`/`k` or either is not reconstructed.
pub fn inner(a: &FunctionTree, b: &FunctionTree) -> f64 {
    assert_eq!(a.d(), b.d(), "dimensionality mismatch");
    assert_eq!(a.k(), b.k(), "order mismatch");
    assert_eq!(a.form(), TreeForm::Reconstructed, "a must be reconstructed");
    assert_eq!(b.form(), TreeForm::Reconstructed, "b must be reconstructed");
    let mut ca = a.clone();
    compress(&mut ca);
    // ⟨a, a⟩ needs only one clone + compress.
    let cb_storage;
    let cb = if std::ptr::eq(a, b) {
        &ca
    } else {
        let mut t = b.clone();
        compress(&mut t);
        cb_storage = t;
        &cb_storage
    };
    let mut total = 0.0;
    for (key, node) in ca.iter() {
        let Some(x) = &node.coeffs else { continue };
        let Some(y) = cb.get(key).and_then(|n| n.coeffs.as_ref()) else {
            continue;
        };
        total += x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(p, q)| p * q)
            .sum::<f64>();
    }
    total
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

    #[test]
    fn inner_of_self_is_norm_squared() {
        let a = project(g1, 1e-8);
        let n = a.norm();
        let ip = inner(&a, &a);
        assert!((ip - n * n).abs() < 1e-10 * (1.0 + n * n));
    }

    #[test]
    fn inner_matches_analytic_gaussian_overlap() {
        // ⟨g1, g2⟩ = ∫ e^{−(x−c1)²/w1} e^{−(x−c2)²/w2} dx has a closed
        // form; the supports barely overlap so it is tiny but nonzero.
        let a = project(g1, 1e-10);
        let b = project(g2, 1e-10);
        let ip = inner(&a, &b);
        // Brute-force quadrature reference.
        let mut want = 0.0;
        let n = 20_000;
        for i in 0..n {
            let x = [(i as f64 + 0.5) / n as f64];
            want += g1(&x) * g2(&x) / n as f64;
        }
        assert!(
            (ip - want).abs() < 1e-8 + 1e-4 * want.abs(),
            "{ip} vs {want}"
        );
    }

    #[test]
    fn inner_is_bilinear() {
        let a = project(g1, 1e-8);
        let b = project(g2, 1e-8);
        let s = add(1.0, &a, 1.0, &b);
        let lhs = inner(&s, &a);
        let rhs = inner(&a, &a) + inner(&b, &a);
        assert!((lhs - rhs).abs() < 1e-8 * (1.0 + rhs.abs()));
    }

    #[test]
    fn cauchy_schwarz() {
        let a = project(g1, 1e-8);
        let b = project(g2, 1e-8);
        let ip = inner(&a, &b).abs();
        assert!(ip <= a.norm() * b.norm() * (1.0 + 1e-10));
    }
}

/// Scaling coefficients of the function represented by `tree` on the box
/// `key`, refining down from the covering leaf with the two-scale
/// relation when `key` is deeper than the stored leaf. Returns `None`
/// when no ancestor-or-self leaf covers the box (zero region).
///
/// # Panics
/// Panics if the tree is not reconstructed or `key` has the wrong
/// dimensionality.
pub fn coeffs_at(tree: &FunctionTree, key: &Key, ts: &TwoScale) -> Option<madness_tensor::Tensor> {
    assert_eq!(tree.form(), TreeForm::Reconstructed, "need leaves");
    assert_eq!(key.ndim(), tree.d(), "key dimensionality mismatch");
    // Find the covering leaf (self or ancestor with coefficients).
    let mut anc = *key;
    let mut path: Vec<usize> = Vec::new();
    loop {
        if let Some(node) = tree.get(&anc) {
            if let Some(c) = &node.coeffs {
                if node.is_leaf() {
                    // Refine down along the recorded path.
                    let mut cur = c.clone();
                    for &which in path.iter().rev() {
                        let k = tree.k();
                        let mut block = Tensor::zeros(Shape::cube(tree.d(), 2 * k));
                        // s in the corner, d = 0: pure two-scale refine.
                        insert_s_corner(k, &mut block, &cur);
                        let mut kids = scatter_children(k, &ts.unfilter(&block));
                        cur = kids.swap_remove(which);
                    }
                    return Some(cur);
                }
            }
        }
        path.push(if anc.level() > 0 {
            anc.index_in_parent()
        } else {
            0
        });
        anc = anc.parent()?;
    }
}

/// Pointwise product `a·b` as a new reconstructed tree on the *union*
/// refinement: each union leaf converts both operands to quadrature-point
/// values, multiplies, and projects back.
///
/// Like MADNESS's `multiply`, this is exact only when the product's
/// polynomial degree stays below `k` per box; otherwise it commits the
/// standard quadrature-projection error (refine the inputs to push it
/// below any tolerance).
///
/// # Panics
/// Panics on `d`/`k` mismatch or non-reconstructed inputs.
pub fn multiply(a: &FunctionTree, b: &FunctionTree) -> FunctionTree {
    assert_eq!(a.d(), b.d(), "dimensionality mismatch");
    assert_eq!(a.k(), b.k(), "order mismatch");
    assert_eq!(a.form(), TreeForm::Reconstructed, "a must be reconstructed");
    assert_eq!(b.form(), TreeForm::Reconstructed, "b must be reconstructed");
    let d = a.d();
    let k = a.k();
    let ts = TwoScale::for_k(k);
    let quad = Quadrature::new(k);
    // quad_phi is (q, i) = φ_i(x_q); coeffs→values needs h_{i q} = φ_i(x_q).
    let phi_t = Tensor::from_fn(Shape::matrix(k, k), |ix| {
        quad.quad_phi().at(&[ix[1], ix[0]])
    });

    // Union leaf set: leaves of either tree that are not covered by a
    // deeper leaf of the other.
    let mut union_leaves: Vec<Key> = Vec::new();
    for (key, node) in a.iter() {
        if node.is_leaf() && node.coeffs.is_some() {
            let covered_deeper = b.get(key).map(|n| n.has_children).unwrap_or(false);
            if !covered_deeper {
                union_leaves.push(*key);
            }
        }
    }
    for (key, node) in b.iter() {
        if node.is_leaf() && node.coeffs.is_some() {
            let covered_deeper = a.get(key).map(|n| n.has_children).unwrap_or(false);
            let already = a
                .get(key)
                .map(|n| n.is_leaf() && n.coeffs.is_some())
                .unwrap_or(false);
            if !covered_deeper && !already {
                union_leaves.push(*key);
            }
        }
    }

    let mut out = FunctionTree::new(d, k);
    let phis: Vec<&Tensor> = (0..d).map(|_| &phi_t).collect();
    let phiws: Vec<&Tensor> = (0..d).map(|_| quad.quad_phiw()).collect();
    for key in union_leaves {
        let (Some(ca), Some(cb)) = (coeffs_at(a, &key, &ts), coeffs_at(b, &key, &ts)) else {
            continue;
        };
        let scale = (1u64 << key.level()) as f64;
        let vol = scale.powf(d as f64 / 2.0); // 2^{nd/2}
                                              // Values at the tensor-product quadrature grid.
        let mut va = transform(&ca, &phis);
        va.scale(vol);
        let mut vb = transform(&cb, &phis);
        vb.scale(vol);
        for (x, y) in va.as_mut_slice().iter_mut().zip(vb.as_slice()) {
            *x *= y;
        }
        // Back to coefficients.
        let mut c = transform(&va, &phiws);
        c.scale(1.0 / vol);
        out.insert(key, crate::tree::Node::leaf(c));
    }
    out
}

#[cfg(test)]
mod multiply_tests {
    use super::*;
    use crate::project::{eval_at, project_adaptive, ProjectParams};

    fn project(f: impl Fn(&[f64]) -> f64 + Sync, thresh: f64, k: usize) -> FunctionTree {
        project_adaptive(
            1,
            k,
            &f,
            &ProjectParams {
                thresh,
                initial_level: 2,
                max_level: 12,
            },
        )
    }

    #[test]
    fn multiply_low_degree_polynomials_is_exact() {
        // (1 + x)(2 − x) has degree 2 < k = 8: representable exactly.
        let a = project(|x: &[f64]| 1.0 + x[0], 1e-10, 8);
        let b = project(|x: &[f64]| 2.0 - x[0], 1e-10, 8);
        let p = multiply(&a, &b);
        for i in 0..40 {
            let x = [(i as f64 + 0.5) / 40.0];
            let got = eval_at(&p, &x).unwrap();
            let want = (1.0 + x[0]) * (2.0 - x[0]);
            assert!((got - want).abs() < 1e-9, "at {x:?}: {got} vs {want}");
        }
    }

    #[test]
    fn multiply_by_constant_matches_scale() {
        let a = project(
            |x: &[f64]| (-(x[0] - 0.5) * (x[0] - 0.5) / 0.01).exp(),
            1e-8,
            8,
        );
        let c = project(|_: &[f64]| 1.5, 1e-8, 8);
        let p = multiply(&a, &c);
        for i in [5usize, 15, 25, 35] {
            let x = [(i as f64 + 0.5) / 40.0];
            let got = eval_at(&p, &x).unwrap();
            let want = 1.5 * eval_at(&a, &x).unwrap();
            assert!((got - want).abs() < 1e-7, "at {x:?}: {got} vs {want}");
        }
    }

    #[test]
    fn multiply_handles_mismatched_refinement() {
        // A sharp feature times a smooth one: very different trees.
        let a = project(
            |x: &[f64]| (-(x[0] - 0.3) * (x[0] - 0.3) / 0.002).exp(),
            1e-8,
            8,
        );
        let b = project(|x: &[f64]| 0.5 + 0.25 * x[0], 1e-8, 8);
        assert_ne!(a.len(), b.len());
        let p = multiply(&a, &b);
        p.check_invariants().unwrap();
        for i in 0..40 {
            let x = [(i as f64 + 0.5) / 40.0];
            let got = eval_at(&p, &x).unwrap_or(0.0);
            let want = eval_at(&a, &x).unwrap() * eval_at(&b, &x).unwrap();
            assert!((got - want).abs() < 1e-6, "at {x:?}: {got} vs {want}");
        }
    }

    #[test]
    fn coeffs_at_descends_exactly() {
        // Downsampling a leaf to its children then evaluating must match
        // evaluating the parent directly.
        let a = project(|x: &[f64]| x[0] * x[0] - 0.3 * x[0], 1e-10, 6);
        let ts = TwoScale::new(6);
        // Pick a leaf and descend two levels below it.
        let (leaf, _) = a.leaves().next().expect("has leaves");
        let deep = leaf.child(0).child(1);
        let c = coeffs_at(&a, &deep, &ts).expect("covered");
        // Evaluate via the downsampled coefficients against eval_at.
        let quad = Quadrature::new(6);
        let x_local = quad.points()[2];
        let scale = (1u64 << deep.level()) as f64;
        let x_global = (deep.translations()[0] as f64 + x_local) / scale;
        let mut phi = vec![0.0; 6];
        crate::quadrature::scaling_functions(6, x_local, &mut phi);
        let val: f64 = (0..6).map(|i| c.as_slice()[i] * phi[i]).sum::<f64>() * scale.sqrt();
        let want = eval_at(&a, &[x_global]).unwrap();
        assert!((val - want).abs() < 1e-9, "{val} vs {want}");
    }
}
