//! Adaptive projection of analytic functions onto the multiwavelet basis.
//!
//! This is how the irregular trees of Figures 1–2 of the paper arise: a
//! box is refined exactly where the function has structure, measured by
//! the norm of the wavelet (difference) coefficients the box would
//! discard. Smooth regions stay coarse; cusps and peaks refine deeply.

use crate::key::Key;
use crate::quadrature::Quadrature;
use crate::tree::{FunctionTree, Node, TreeForm};
use crate::twoscale::{d_norm, gather_children, TwoScale};
use madness_tensor::{transform, Shape, Tensor};
use rayon::prelude::*;

/// A real-valued function over `[0,1]^d`, evaluated pointwise.
pub trait ScalarFunction: Sync {
    /// Evaluates the function at `x` (`x.len()` = mesh dimensionality).
    fn eval(&self, x: &[f64]) -> f64;
}

impl<F: Fn(&[f64]) -> f64 + Sync> ScalarFunction for F {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// Controls for [`project_adaptive`].
#[derive(Clone, Debug)]
pub struct ProjectParams {
    /// Per-box wavelet-norm acceptance threshold (the application's
    /// "precision" input).
    pub thresh: f64,
    /// Refinement floor: always refine down to at least this level, so no
    /// part of the domain is judged from a single coarse sample.
    pub initial_level: u8,
    /// Refinement ceiling (guards against non-smooth inputs).
    pub max_level: u8,
}

impl Default for ProjectParams {
    fn default() -> Self {
        ProjectParams {
            thresh: 1e-6,
            initial_level: 2,
            max_level: 20,
        }
    }
}

/// Projects one box: evaluates `f` on the tensor-product quadrature grid
/// of `key`'s box and transforms point values to scaling coefficients.
///
/// `s_i = 2^{-nd/2} Σ_q w_q φ_i(u_q) f((u_q + l)/2^n)` per dimension.
pub fn project_box(f: &dyn ScalarFunction, key: &Key, quad: &Quadrature) -> Tensor {
    let d = key.ndim();
    let k = quad.k();
    let n = key.level();
    let scale = (1u64 << n) as f64;
    let pts = quad.points();
    let mut x = vec![0.0; d];
    let fvals = Tensor::from_fn(Shape::cube(d, k), |qi| {
        for (dim, &q) in qi.iter().enumerate() {
            x[dim] = (pts[q] + key.translations()[dim] as f64) / scale;
        }
        f.eval(&x)
    });
    let hs: Vec<&Tensor> = (0..d).map(|_| quad.quad_phiw()).collect();
    let mut s = transform(&fvals, &hs);
    s.scale(scale.powf(-(d as f64) / 2.0)); // 2^{-nd/2}
    s
}

/// Adaptively projects `f` onto a reconstructed [`FunctionTree`].
///
/// Starting from the root, each box computes its `2^d` children's scaling
/// coefficients, filters them, and accepts the children as leaves when the
/// wavelet norm is below `params.thresh` (else recurses). The result is
/// the unbalanced tree the Apply operator walks.
pub fn project_adaptive(
    d: usize,
    k: usize,
    f: &dyn ScalarFunction,
    params: &ProjectParams,
) -> FunctionTree {
    let quad = Quadrature::new(k);
    let ts = TwoScale::for_k(k);
    let mut tree = FunctionTree::new(d, k);
    tree.set_form(TreeForm::Reconstructed);
    let produced = refine(f, &Key::root(d), &quad, &ts, params);
    for (key, node) in produced {
        tree.insert(key, node);
    }
    debug_assert!(tree.check_invariants().is_ok());
    tree
}

/// Recursive worker: returns the nodes contributed by `key`'s subtree.
fn refine(
    f: &dyn ScalarFunction,
    key: &Key,
    quad: &Quadrature,
    ts: &TwoScale,
    params: &ProjectParams,
) -> Vec<(Key, Node)> {
    let k = quad.k();
    let d = key.ndim();
    let child_keys: Vec<Key> = key.children().collect();
    let child_s: Vec<Tensor> = child_keys
        .par_iter()
        .map(|c| project_box(f, c, quad))
        .collect();
    let refs: Vec<Option<&Tensor>> = child_s.iter().map(Some).collect();
    let gathered = gather_children(k, d, &refs);
    let sd = ts.filter(&gathered);
    let dn = d_norm(k, &sd);

    let must_refine = key.level() < params.initial_level;
    // Children live at key.level() + 1; recursing would create leaves at
    // key.level() + 2, so the ceiling must bind one level early.
    let may_refine = key.level() + 1 < params.max_level;
    if (must_refine || dn > params.thresh) && may_refine {
        // Recurse into every child in parallel; keep this box interior.
        let mut out: Vec<(Key, Node)> = child_keys
            .par_iter()
            .map(|c| refine(f, c, quad, ts, params))
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        out.push((*key, Node::interior()));
        out
    } else {
        // Accept the children as leaves (their scaling blocks represent f
        // to within thresh on this box).
        let mut out: Vec<(Key, Node)> = child_keys
            .into_iter()
            .zip(child_s)
            .map(|(c, s)| (c, Node::leaf(s)))
            .collect();
        out.push((*key, Node::interior()));
        out
    }
}

/// Evaluates the reconstructed tree at a point by locating the containing
/// leaf and summing its scaling functions.
///
/// Returns `None` when `x` lies outside `[0,1)^d` or no leaf covers it.
///
/// # Panics
/// Panics if `x.len()` mismatches the tree's dimensionality or the tree
/// is not reconstructed.
pub fn eval_at(tree: &FunctionTree, x: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), tree.d(), "point dimensionality mismatch");
    assert_eq!(
        tree.form(),
        TreeForm::Reconstructed,
        "eval_at requires the reconstructed form"
    );
    if x.iter().any(|&xi| !(0.0..1.0).contains(&xi)) {
        return None;
    }
    let d = tree.d();
    let k = tree.k();
    // Walk down from the root following the bits of x.
    let mut key = Key::root(d);
    loop {
        let node = tree.get(&key)?;
        if node.is_leaf() {
            let coeffs = node.coeffs.as_ref()?;
            let n = key.level();
            let scale = (1u64 << n) as f64;
            // Local coordinates within the box.
            let mut phis = vec![vec![0.0; k]; d];
            for dim in 0..d {
                let u = x[dim] * scale - key.translations()[dim] as f64;
                crate::quadrature::scaling_functions(k, u, &mut phis[dim]);
            }
            // f(x) = 2^{nd/2} Σ_i s_i Π φ_{i_dim}(u_dim).
            let mut total = 0.0;
            let mut idx = vec![0usize; d];
            for flat in 0..coeffs.len() {
                let mut term = coeffs.as_slice()[flat];
                for dim in 0..d {
                    term *= phis[dim][idx[dim]];
                }
                total += term;
                for i in (0..d).rev() {
                    idx[i] += 1;
                    if idx[i] < k {
                        break;
                    }
                    idx[i] = 0;
                }
            }
            return Some(total * scale.powf(d as f64 / 2.0));
        }
        // Descend into the child whose box contains x.
        let n1 = key.level() + 1;
        let scale1 = (1u64 << n1) as f64;
        let mut which = 0usize;
        for dim in 0..d {
            let t1 = (x[dim] * scale1) as i64;
            let bit = (t1 - 2 * key.translations()[dim]) as usize;
            which |= (bit & 1) << dim;
        }
        key = key.child(which);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_1d_factory(center: f64, width: f64) -> impl Fn(&[f64]) -> f64 {
        move |x: &[f64]| {
            let r2: f64 = x.iter().map(|&xi| (xi - center) * (xi - center)).sum();
            (-r2 / (2.0 * width * width)).exp()
        }
    }

    #[test]
    fn projects_polynomial_exactly() {
        // degree < k polynomials are exactly representable: the tree stays
        // at the initial level and evaluation is exact.
        let f = |x: &[f64]| 1.0 + 2.0 * x[0] - 0.5 * x[0] * x[0] + x[1];
        let params = ProjectParams {
            thresh: 1e-10,
            initial_level: 1,
            max_level: 8,
        };
        let tree = project_adaptive(2, 6, &f, &params);
        assert_eq!(tree.max_depth(), 2, "polynomial should not refine deep");
        for &p in &[[0.3, 0.7], [0.11, 0.52], [0.97, 0.03]] {
            let got = eval_at(&tree, &p).unwrap();
            let want = f(&p);
            assert!((got - want).abs() < 1e-9, "at {p:?}: {got} vs {want}");
        }
    }

    #[test]
    fn refines_near_sharp_feature() {
        // A narrow Gaussian refines deeply near its center and stays
        // coarse far away — the unbalanced tree of the paper's Fig. 1.
        let f = gaussian_1d_factory(0.5, 0.02);
        let params = ProjectParams {
            thresh: 1e-6,
            initial_level: 2,
            max_level: 12,
        };
        let tree = project_adaptive(1, 8, &f, &params);
        assert!(tree.max_depth() >= 4, "depth {}", tree.max_depth());
        // The deepest leaves cluster near x = 0.5.
        let deepest = tree.max_depth();
        for (key, _) in tree.leaves() {
            if key.level() == deepest {
                let lo = key.lower_corner()[0];
                assert!(
                    (lo - 0.5).abs() < 0.25,
                    "deep leaf at {lo} far from feature"
                );
            }
        }
    }

    #[test]
    fn evaluation_accuracy_tracks_threshold() {
        let f = gaussian_1d_factory(0.45, 0.1);
        for (thresh, tol) in [(1e-4, 1e-3), (1e-7, 1e-6)] {
            let params = ProjectParams {
                thresh,
                initial_level: 2,
                max_level: 14,
            };
            let tree = project_adaptive(1, 8, &f, &params);
            let mut worst: f64 = 0.0;
            for i in 0..200 {
                let x = [(i as f64 + 0.5) / 200.0];
                let got = eval_at(&tree, &x).unwrap();
                worst = worst.max((got - f(&x)).abs());
            }
            assert!(worst < tol, "thresh {thresh}: worst error {worst}");
        }
    }

    #[test]
    fn tighter_threshold_gives_bigger_tree() {
        let f = gaussian_1d_factory(0.3, 0.05);
        let mk = |thresh| {
            let params = ProjectParams {
                thresh,
                initial_level: 2,
                max_level: 14,
            };
            project_adaptive(1, 6, &f, &params).len()
        };
        let coarse = mk(1e-3);
        let fine = mk(1e-8);
        assert!(
            fine > coarse,
            "expected monotone growth: {coarse} vs {fine}"
        );
    }

    #[test]
    fn projection_2d_gaussian_norm_is_plausible() {
        // ‖f‖_{L²} of exp(−r²/2σ²) in 2-D is σ√π; compare tree norm.
        let sigma = 0.08;
        let f = gaussian_1d_factory(0.5, sigma);
        let params = ProjectParams {
            thresh: 1e-7,
            initial_level: 2,
            max_level: 12,
        };
        let tree = project_adaptive(2, 8, &f, &params);
        let want = sigma * std::f64::consts::PI.sqrt();
        let got = tree.norm();
        assert!(
            (got - want).abs() < 1e-3 * want,
            "norm {got} vs analytic {want}"
        );
    }

    #[test]
    fn eval_outside_domain_is_none() {
        let f = |_: &[f64]| 1.0;
        let tree = project_adaptive(2, 4, &f, &ProjectParams::default());
        assert!(eval_at(&tree, &[1.5, 0.2]).is_none());
        assert!(eval_at(&tree, &[-0.1, 0.2]).is_none());
    }
}
