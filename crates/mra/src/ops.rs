//! The framework tree operators: Compress, Reconstruct, Truncate, SumDown.
//!
//! These are three of the four operators the paper names (§I); they are
//! data-intensive tree walks. The fourth — the compute-intensive `Apply` —
//! lives in `madness-core` because it is the subject of the paper's
//! CPU-GPU extensions.

use crate::key::Key;
use crate::tree::{FunctionTree, Node, TreeForm};
use crate::twoscale::{
    d_norm, extract_s_corner, gather_children, insert_s_corner, scatter_children, zero_s_corner,
    TwoScale,
};
use madness_tensor::{Shape, Tensor};

/// Compress: reconstructed (scaling coefficients at leaves) → compressed
/// (wavelet `d` blocks at interior nodes, `s`+`d` at the root).
///
/// Walks the tree bottom-up applying the two-scale filter; after the call
/// every interior node holds a `(2k)^d` block whose `[0,k)^d` corner is
/// zero (except the root, which also keeps the global `s`).
///
/// # Panics
/// Panics if the tree is not in reconstructed form.
pub fn compress(tree: &mut FunctionTree) {
    assert_eq!(
        tree.form(),
        TreeForm::Reconstructed,
        "compress requires the reconstructed form"
    );
    let ts = TwoScale::for_k(tree.k());
    let root = Key::root(tree.d());
    if tree.get(&root).is_some() {
        let s_root = compress_rec(tree, &root, &ts);
        // Root keeps its s corner inside the sd block.
        let k = tree.k();
        let d = tree.d();
        match tree.get_mut(&root) {
            Some(node) => {
                let mut block = match node.coeffs.take() {
                    Some(b) => b,
                    None => Tensor::zeros(Shape::cube(d, 2 * k)),
                };
                insert_s_corner(k, &mut block, &s_root);
                node.coeffs = Some(block);
            }
            None => unreachable!("root disappeared during compress"),
        }
    }
    tree.set_form(TreeForm::Compressed);
}

/// Recursive bottom-up filter; returns the `s` block of `key` and leaves
/// the wavelet part (corner zeroed) stored at `key` when it is interior.
fn compress_rec(tree: &mut FunctionTree, key: &Key, ts: &TwoScale) -> Tensor {
    let k = tree.k();
    let d = tree.d();
    let node_is_leaf = tree.get(key).map(|n| n.is_leaf()).unwrap_or(true);
    if node_is_leaf {
        // Take the leaf's scaling coefficients; leaf stores nothing in
        // compressed form.
        let coeffs = tree
            .get_mut(key)
            .and_then(|n| n.coeffs.take())
            .unwrap_or_else(|| Tensor::zeros(Shape::cube(d, k)));
        return coeffs;
    }
    let child_keys: Vec<Key> = key.children().collect();
    let child_s: Vec<Tensor> = child_keys
        .iter()
        .map(|c| {
            if tree.contains(c) {
                compress_rec(tree, c, ts)
            } else {
                Tensor::zeros(Shape::cube(d, k))
            }
        })
        .collect();
    let refs: Vec<Option<&Tensor>> = child_s.iter().map(Some).collect();
    let gathered = gather_children(k, d, &refs);
    let mut sd = ts.filter(&gathered);
    let s = extract_s_corner(k, &sd);
    zero_s_corner(k, &mut sd);
    if let Some(node) = tree.get_mut(key) {
        node.coeffs = Some(sd);
    }
    s
}

/// Reconstruct: compressed → reconstructed. Exact inverse of [`compress`]
/// (up to floating-point rounding).
///
/// # Panics
/// Panics if the tree is not in compressed form.
pub fn reconstruct(tree: &mut FunctionTree) {
    assert_eq!(
        tree.form(),
        TreeForm::Compressed,
        "reconstruct requires the compressed form"
    );
    let ts = TwoScale::for_k(tree.k());
    let root = Key::root(tree.d());
    let k = tree.k();
    let d = tree.d();
    if tree.contains(&root) {
        // Pull the root's s out of its block, then descend.
        let s_root = match tree.get_mut(&root).and_then(|n| n.coeffs.take()) {
            Some(mut block) => {
                let s = extract_s_corner(k, &block);
                zero_s_corner(k, &mut block);
                // Put the d-part back for the shared descent path.
                tree.get_mut(&root).unwrap().coeffs = Some(block);
                s
            }
            None => Tensor::zeros(Shape::cube(d, k)),
        };
        reconstruct_rec(tree, &root, s_root, &ts);
    }
    tree.set_form(TreeForm::Reconstructed);
}

fn reconstruct_rec(tree: &mut FunctionTree, key: &Key, s: Tensor, ts: &TwoScale) {
    let k = tree.k();
    let is_leaf = tree.get(key).map(|n| n.is_leaf()).unwrap_or(true);
    if is_leaf {
        if let Some(node) = tree.get_mut(key) {
            node.coeffs = Some(s);
        }
        return;
    }
    // Interior: add s into the stored d block and unfilter to children.
    let mut block = tree
        .get_mut(key)
        .and_then(|n| n.coeffs.take())
        .unwrap_or_else(|| Tensor::zeros(Shape::cube(key.ndim(), 2 * k)));
    insert_s_corner(k, &mut block, &s);
    let child_blocks = scatter_children(k, &ts.unfilter(&block));
    for (which, cs) in child_blocks.into_iter().enumerate() {
        let ckey = key.child(which);
        if tree.contains(&ckey) {
            reconstruct_rec(tree, &ckey, cs, ts);
        }
        // Children absent from the tree carry no coefficients; their mass
        // is zero by construction of compress.
    }
}

/// Truncate: in the compressed form, discard wavelet blocks of norm ≤
/// `tol` at nodes whose children are all leaves, coarsening the tree
/// bottom-up (this is how MADNESS bounds tree growth after arithmetic).
///
/// Returns the number of removed nodes.
///
/// # Panics
/// Panics if the tree is not in compressed form.
pub fn truncate(tree: &mut FunctionTree, tol: f64) -> usize {
    assert_eq!(
        tree.form(),
        TreeForm::Compressed,
        "truncate requires the compressed form"
    );
    let root = Key::root(tree.d());
    let before = tree.len();
    if tree.contains(&root) {
        truncate_rec(tree, &root, tol);
    }
    before - tree.len()
}

/// Returns true if `key` is (now) a leaf.
fn truncate_rec(tree: &mut FunctionTree, key: &Key, tol: f64) -> bool {
    let is_leaf = tree.get(key).map(|n| n.is_leaf()).unwrap_or(true);
    if is_leaf {
        return true;
    }
    let mut all_leaves = true;
    for c in key.children() {
        if tree.contains(&c) && !truncate_rec(tree, &c, tol) {
            all_leaves = false;
        }
    }
    // The root can never be truncated away (it carries the global s).
    if !all_leaves || key.level() == 0 {
        return false;
    }
    let k = tree.k();
    let dn = tree
        .get(key)
        .and_then(|n| n.coeffs.as_ref())
        .map(|b| d_norm(k, b))
        .unwrap_or(0.0);
    if dn <= tol {
        // Drop the wavelet block and the (coefficient-free) leaf children.
        for c in key.children() {
            tree.remove(&c);
        }
        if let Some(node) = tree.get_mut(key) {
            node.coeffs = None;
            node.has_children = false;
        }
        true
    } else {
        false
    }
}

/// SumDown: pushes scaling coefficients stored at interior nodes down to
/// the leaves (two-scale upsampling with zero wavelet part,
/// [`TwoScale::push_down`]), restoring the reconstructed-form invariant
/// after Apply has accumulated contributions at mixed levels.
///
/// # Panics
/// Panics if the tree is not in reconstructed form.
pub fn sum_down(tree: &mut FunctionTree) {
    assert_eq!(
        tree.form(),
        TreeForm::Reconstructed,
        "sum_down requires the reconstructed form"
    );
    let ts = TwoScale::for_k(tree.k());
    let root = Key::root(tree.d());
    if tree.contains(&root) {
        sum_down_rec(tree, &root, None, &ts);
    }
}

fn sum_down_rec(tree: &mut FunctionTree, key: &Key, inherited: Option<Tensor>, ts: &TwoScale) {
    // Combine anything stored here with what the parent pushed down.
    let own = tree.get_mut(key).and_then(|n| n.coeffs.take());
    let combined = match (own, inherited) {
        (Some(mut a), Some(b)) => {
            a.gaxpy(1.0, &b);
            Some(a)
        }
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    };
    let is_leaf = tree.get(key).map(|n| n.is_leaf()).unwrap_or(true);
    if is_leaf {
        if let (Some(c), Some(node)) = (combined, tree.get_mut(key)) {
            node.coeffs = Some(c);
        }
        return;
    }
    // Interior: upsample combined s (d = 0) and push to children.
    let mut pushes = combined
        .map_or_else(Vec::new, |s| ts.push_down(&s))
        .into_iter();
    for ckey in key.children() {
        let push = pushes.next();
        if tree.contains(&ckey) {
            sum_down_rec(tree, &ckey, push, ts);
        } else if let Some(p) = push {
            // Contribution lands in a box the tree never refined: create
            // the leaf so no mass is lost — poisoned mass included (a NaN
            // norm is not `> 0`, but it is `!= 0`).
            if p.normf() != 0.0 {
                tree.insert(ckey, Node::leaf(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{eval_at, project_adaptive, ProjectParams};

    fn sharp_gaussian(d: usize) -> impl Fn(&[f64]) -> f64 {
        move |x: &[f64]| {
            let r2: f64 = x.iter().map(|&xi| (xi - 0.4) * (xi - 0.4)).sum();
            (-r2 / (2.0 * 0.05f64.powi(2))).exp() * (d as f64)
        }
    }

    fn build(d: usize, k: usize, thresh: f64) -> FunctionTree {
        let f = sharp_gaussian(d);
        let params = ProjectParams {
            thresh,
            initial_level: 2,
            max_level: 12,
        };
        project_adaptive(d, k, &f, &params)
    }

    #[test]
    fn compress_reconstruct_round_trip_1d() {
        let tree = build(1, 8, 1e-8);
        let mut t = tree.clone();
        let norm0 = t.norm();
        compress(&mut t);
        assert_eq!(t.form(), TreeForm::Compressed);
        // Parseval: compressed coefficients carry the same norm.
        assert!((t.norm_all_coeffs() - norm0).abs() < 1e-10 * (1.0 + norm0));
        reconstruct(&mut t);
        assert_eq!(t.form(), TreeForm::Reconstructed);
        // Same leaves, same coefficients.
        assert_eq!(t.len(), tree.len());
        for (key, c) in tree.leaves() {
            let c2 = t.get(key).unwrap().coeffs.as_ref().unwrap();
            assert!(c.distance(c2) < 1e-10, "leaf {key:?} changed");
        }
    }

    #[test]
    fn compress_reconstruct_round_trip_2d() {
        let tree = build(2, 6, 1e-5);
        let mut t = tree.clone();
        compress(&mut t);
        reconstruct(&mut t);
        for (key, c) in tree.leaves() {
            let c2 = t.get(key).unwrap().coeffs.as_ref().unwrap();
            assert!(c.distance(c2) < 1e-10);
        }
    }

    #[test]
    fn compressed_leaves_carry_no_coeffs() {
        let mut t = build(1, 6, 1e-6);
        compress(&mut t);
        for (key, node) in t.iter() {
            if node.is_leaf() {
                assert!(node.coeffs.is_none(), "leaf {key:?} still has coeffs");
            } else if key.level() > 0 {
                let b = node.coeffs.as_ref().expect("interior needs d block");
                // Corner must be zero for non-root interior nodes.
                let s = extract_s_corner(t.k(), b);
                assert!(s.normf() < 1e-12, "{key:?} corner not zeroed");
            }
        }
    }

    #[test]
    fn truncate_coarsens_and_bounds_error() {
        let f = sharp_gaussian(1);
        let tree = build(1, 8, 1e-10);
        let mut t = tree.clone();
        compress(&mut t);
        let tol = 1e-4;
        let removed = truncate(&mut t, tol);
        assert!(removed > 0, "nothing truncated");
        reconstruct(&mut t);
        assert!(t.check_invariants().is_ok());
        // Pointwise error stays small (bounded by the discarded norm).
        let mut worst: f64 = 0.0;
        for i in 0..100 {
            let x = [(i as f64 + 0.5) / 100.0];
            let got = eval_at(&t, &x).unwrap();
            worst = worst.max((got - f(&x)).abs());
        }
        assert!(worst < 5e-3, "worst error after truncate: {worst}");
    }

    #[test]
    fn truncate_zero_tol_removes_nothing_substantial() {
        let mut t = build(1, 6, 1e-6);
        let leaves_before = t.num_leaves();
        compress(&mut t);
        let removed = truncate(&mut t, 0.0);
        reconstruct(&mut t);
        // d blocks are never exactly zero for a Gaussian, so nothing goes.
        assert_eq!(removed, 0);
        assert_eq!(t.num_leaves(), leaves_before);
    }

    #[test]
    fn sum_down_moves_interior_mass_to_leaves() {
        let mut t = build(1, 6, 1e-6);
        let f = sharp_gaussian(1);
        let x = [0.37];
        let before = eval_at(&t, &x).unwrap();
        // Inject an interior contribution equal to zero function (empty
        // tensor of zeros) plus push existing root value: emulate Apply
        // accumulating at an interior node.
        let root = Key::root(1);
        let bump = Tensor::full(Shape::cube(1, 6), 0.0);
        t.accumulate(root, 1.0, &bump);
        sum_down(&mut t);
        let after = eval_at(&t, &x).unwrap();
        assert!((before - after).abs() < 1e-10, "zero bump changed value");
        assert!((after - f(&x)).abs() < 1e-4);
        // No interior node retains coefficients.
        for (_, node) in t.iter() {
            if !node.is_leaf() {
                assert!(node.coeffs.is_none());
            }
        }
    }

    #[test]
    fn sum_down_pushes_non_finite_mass_into_an_unrefined_box() {
        // The root and its lower child carry coefficients; the upper
        // child was never refined.
        let (lower, upper) = (Key::new(1, &[0]), Key::new(1, &[1]));
        let tree_with = |root: Tensor| {
            let mut t = FunctionTree::new(1, 2);
            t.accumulate(Key::root(1), 1.0, &root);
            t.accumulate(lower, 1.0, &Tensor::full(Shape::cube(1, 2), 1.0));
            assert!(!t.contains(&upper));
            sum_down(&mut t);
            t
        };
        let coeffs = |t: &FunctionTree, key: &Key| t.get(key).and_then(|n| n.coeffs.clone());
        let mut poisoned = Tensor::zeros(Shape::cube(1, 2));
        poisoned.as_mut_slice()[0] = f64::NAN;
        let t = tree_with(poisoned);
        // Both halves get the NaN: the existing child and a new leaf.
        for key in [lower, upper] {
            let c = coeffs(&t, &key).expect("a leaf holding the push");
            assert!(c.as_slice().iter().any(|x| x.is_nan()), "{key:?}");
        }
        assert!(t.check_invariants().is_ok());
        // A push of exact zeros still makes no leaf.
        let t = tree_with(Tensor::full(Shape::cube(1, 2), -0.0));
        assert!(coeffs(&t, &lower).is_some() && !t.contains(&upper));
    }

    #[test]
    fn sum_down_constant_shift_everywhere() {
        // Accumulate c·φ_0 at the root: the function gains a constant c
        // everywhere after sum_down.
        let mut t = build(1, 6, 1e-6);
        let f = sharp_gaussian(1);
        let c = 0.75;
        let mut bump = Tensor::zeros(Shape::cube(1, 6));
        bump.as_mut_slice()[0] = c; // φ_0 ≡ 1 on [0,1]
        t.accumulate(Key::root(1), 1.0, &bump);
        sum_down(&mut t);
        for i in [5, 33, 61, 99] {
            let x = [(i as f64 + 0.5) / 100.0];
            let got = eval_at(&t, &x).unwrap();
            let want = f(&x) + c;
            assert!((got - want).abs() < 1e-4, "at {x:?}: {got} vs {want}");
        }
    }
}
