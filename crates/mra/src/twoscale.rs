//! Two-scale (filter) relations of the multiwavelet basis.
//!
//! The `k` scaling functions of a parent box are exactly representable in
//! the `2k` scaling functions of its two children (per dimension):
//! `φ_i = Σ_j h0_{ij} ψ⁰_j + h1_{ij} ψ¹_j` where
//! `ψ^c_j(x) = √2 φ_j(2x − c)`. Stacking `H = [h0 | h1]` (k × 2k) and
//! completing it with an orthonormal wavelet block `G` yields the
//! orthogonal two-scale matrix `W = [H; G]` (2k × 2k).
//!
//! `filter` maps the `2^d` child coefficient blocks (gathered into a
//! `(2k)^d` tensor) to the parent's *sum + difference* coefficients: the
//! `[0,k)^d` corner holds the parent scaling coefficients `s`, everything
//! else the wavelet (difference) coefficients `d` whose norm drives both
//! adaptive refinement and Truncate. `unfilter` is its exact inverse.
//!
//! Real MADNESS uses the Alpert multiwavelets for `G`; any orthonormal
//! completion spans the same complement space, so we build `G` by
//! Gram-Schmidt from canonical vectors — every framework invariant
//! (orthogonality, losslessness, polynomial vanishing moments of `d`)
//! holds identically.

use crate::quadrature::{gauss_legendre, scaling_functions};
use madness_tensor::{transform, transform_sum_accumulate_group, Shape, Tensor, Term, Workspace};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Precomputed two-scale matrices for one polynomial order `k`.
#[derive(Clone, Debug)]
pub struct TwoScale {
    k: usize,
    /// `W` (2k × 2k), rows 0..k = scaling (`H`), rows k..2k = wavelet (`G`).
    w: Tensor,
    /// `Wᵀ`.
    wt: Tensor,
    /// `h0` and `h1`, the two k × k column halves of `H`: what `unfilter`
    /// applies to a parent's `s` along a dimension in which the child is
    /// the lower or the upper half.
    h_halves: [Tensor; 2],
}

impl TwoScale {
    /// Builds the two-scale matrices for order `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or the Gram-Schmidt completion fails to find `k`
    /// independent wavelet rows (cannot happen for valid `H`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "polynomial order must be positive");
        let two_k = 2 * k;
        // Quadrature exact through degree 2k−1 ≥ deg(φ_i(u/2)·φ_j(u)).
        let (x, wq) = gauss_legendre(k + 1);
        let mut phi_half = vec![0.0; k]; // φ_i evaluated at u/2 or (u+1)/2
        let mut phi = vec![0.0; k];

        let mut h = vec![vec![0.0; two_k]; k];
        for (&u, &w) in x.iter().zip(&wq) {
            scaling_functions(k, u, &mut phi);
            // Left child: h0_{ij} += w φ_i(u/2) φ_j(u) / √2.
            scaling_functions(k, u / 2.0, &mut phi_half);
            for i in 0..k {
                for j in 0..k {
                    h[i][j] += w * phi_half[i] * phi[j] / std::f64::consts::SQRT_2;
                }
            }
            // Right child: h1_{ij} += w φ_i((u+1)/2) φ_j(u) / √2.
            scaling_functions(k, (u + 1.0) / 2.0, &mut phi_half);
            for i in 0..k {
                for j in 0..k {
                    h[i][k + j] += w * phi_half[i] * phi[j] / std::f64::consts::SQRT_2;
                }
            }
        }

        // Gram-Schmidt completion: orthogonalize canonical vectors against
        // the H rows (already orthonormal) and accepted G rows.
        let mut rows: Vec<Vec<f64>> = h;
        let mut accepted = 0usize;
        for cand in 0..two_k {
            if accepted == k {
                break;
            }
            let mut v = vec![0.0; two_k];
            v[cand] = 1.0;
            for _ in 0..2 {
                // Twice for numerical re-orthogonalization.
                for row in &rows {
                    let dot: f64 = row.iter().zip(&v).map(|(a, b)| a * b).sum();
                    for (vi, ri) in v.iter_mut().zip(row) {
                        *vi -= dot * ri;
                    }
                }
            }
            let norm: f64 = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm > 1e-8 {
                for vi in &mut v {
                    *vi /= norm;
                }
                rows.push(v);
                accepted += 1;
            }
        }
        assert_eq!(accepted, k, "Gram-Schmidt completion failed");

        let mut w = Tensor::zeros(Shape::matrix(two_k, two_k));
        for (r, row) in rows.iter().enumerate() {
            for (c, &val) in row.iter().enumerate() {
                *w.at_mut(&[r, c]) = val;
            }
        }
        let wt = Tensor::from_fn(Shape::matrix(two_k, two_k), |ix| w.at(&[ix[1], ix[0]]));
        let half =
            |c: usize| Tensor::from_fn(Shape::matrix(k, k), |ix| w.at(&[ix[0], c * k + ix[1]]));
        TwoScale {
            k,
            h_halves: [half(0), half(1)],
            w,
            wt,
        }
    }

    /// The two-scale matrices for order `k`, built by [`TwoScale::new`]
    /// the first time the process asks for that order and shared from
    /// then on: every tree operation needs them, none changes them.
    ///
    /// # Panics
    /// As [`TwoScale::new`].
    pub fn for_k(k: usize) -> Arc<TwoScale> {
        static MEMO: Mutex<BTreeMap<usize, Arc<TwoScale>>> = Mutex::new(BTreeMap::new());
        let memo = || MEMO.lock().expect("nothing panics holding the memo");
        if let Some(ts) = memo().get(&k) {
            return Arc::clone(ts);
        }
        // Built outside the lock; a racing second build of the same
        // order yields the same values and loses to the first insert.
        let ts = Arc::new(TwoScale::new(k));
        Arc::clone(memo().entry(k).or_insert(ts))
    }

    /// Polynomial order `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The orthogonal two-scale matrix `W = [H; G]` (2k × 2k).
    #[inline]
    pub fn w(&self) -> &Tensor {
        &self.w
    }

    /// `Wᵀ` — fed to `transform` for [`TwoScale::filter`].
    #[inline]
    pub fn wt(&self) -> &Tensor {
        &self.wt
    }

    /// Child-to-parent change of basis on a gathered `(2k)^d` block:
    /// output corner `[0,k)^d` = parent `s`, rest = wavelet `d`.
    ///
    /// # Panics
    /// Panics unless `child_block` is a `(2k)^d` cube.
    pub fn filter(&self, child_block: &Tensor) -> Tensor {
        let two_k = 2 * self.k;
        assert!(
            child_block.shape().is_cube(two_k),
            "filter input must be a (2k)^d cube, got {}",
            child_block.shape()
        );
        let hs: Vec<&Tensor> = (0..child_block.ndim()).map(|_| &self.wt).collect();
        transform(child_block, &hs)
    }

    /// Parent-to-child change of basis; exact inverse of [`TwoScale::filter`].
    ///
    /// # Panics
    /// Panics unless `sd_block` is a `(2k)^d` cube.
    pub fn unfilter(&self, sd_block: &Tensor) -> Tensor {
        let two_k = 2 * self.k;
        assert!(
            sd_block.shape().is_cube(two_k),
            "unfilter input must be a (2k)^d cube, got {}",
            sd_block.shape()
        );
        let hs: Vec<&Tensor> = (0..sd_block.ndim()).map(|_| &self.w).collect();
        transform(sd_block, &hs)
    }

    /// The `2^d` child blocks of a parent whose scaling coefficients are
    /// `s` and whose wavelet part is zero, in [`crate::key::Key::child`]
    /// order: `scatter_children(k, unfilter(s in a zero (2k)^d block))`
    /// bit for bit, without the block. The kernels skip exact-zero
    /// operands (`a == 0.0`), so the full unfilter only ever adds `s`
    /// terms, through `H`'s column half for the child's side in each
    /// dimension, in the order this runs them. One group call on the
    /// thread's workspace: the children go dimension 0's half slowest,
    /// so neighbours share their leading passes — 2 + 4 + … + 2^d passes
    /// in all.
    ///
    /// # Panics
    /// Panics unless `s` is a `k^d` cube.
    pub fn push_down(&self, s: &Tensor) -> Vec<Tensor> {
        assert!(s.shape().is_cube(self.k), "s must be k^d");
        let d = s.ndim();
        // Task `t` is the child whose dimension-`p` bit is `t`'s bit
        // `d − 1 − p`; the map is its own inverse.
        let child = move |t: usize| t.reverse_bits() >> (usize::BITS as usize - d);
        let term = |t: usize, _| Term {
            coeff: 1.0,
            hs: (0..d).map(move |p| &self.h_halves[(child(t) >> p) & 1]),
            krs: None,
        };
        let mut pushes = vec![Tensor::zeros(s.shape()); 1 << d];
        Workspace::with(|ws| transform_sum_accumulate_group(s, 1, term, ws.scratch(), &mut pushes));
        for t in 0..pushes.len() {
            if t < child(t) {
                pushes.swap(t, child(t));
            }
        }
        pushes
    }
}

/// Gathers the `2^d` child coefficient blocks (`k^d` each, indexed by the
/// child's [`crate::key::Key::index_in_parent`]) into one `(2k)^d` tensor.
/// Missing children contribute zeros.
///
/// # Panics
/// Panics if `children.len() != 2^d` for the `d` implied by `ndim`, or a
/// present child is not a `k^d` cube.
pub fn gather_children(k: usize, ndim: usize, children: &[Option<&Tensor>]) -> Tensor {
    assert_eq!(children.len(), 1 << ndim, "need 2^d child slots");
    let big = Shape::cube(ndim, 2 * k);
    let mut out = Tensor::zeros(big);
    let mut idx = vec![0usize; ndim];
    for (which, child) in children.iter().enumerate() {
        let Some(c) = child else { continue };
        assert!(c.shape().is_cube(k), "child {which} must be k^d");
        // Copy child into the corner offset by k along dims where the
        // child bit is set.
        let n = c.len();
        idx.iter_mut().for_each(|v| *v = 0);
        let mut big_idx = vec![0usize; ndim];
        for flat in 0..n {
            for dim in 0..ndim {
                big_idx[dim] = idx[dim] + if (which >> dim) & 1 == 1 { k } else { 0 };
            }
            *out.at_mut(&big_idx) = c.as_slice()[flat];
            for i in (0..ndim).rev() {
                idx[i] += 1;
                if idx[i] < k {
                    break;
                }
                idx[i] = 0;
            }
        }
    }
    out
}

/// Splits a `(2k)^d` block back into its `2^d` child `k^d` blocks
/// (inverse of [`gather_children`]).
///
/// # Panics
/// Panics unless `block` is a `(2k)^d` cube.
pub fn scatter_children(k: usize, block: &Tensor) -> Vec<Tensor> {
    let ndim = block.ndim();
    assert!(block.shape().is_cube(2 * k), "block must be (2k)^d");
    let mut out = Vec::with_capacity(1 << ndim);
    let mut idx = vec![0usize; ndim];
    let mut big_idx = vec![0usize; ndim];
    for which in 0..(1usize << ndim) {
        let mut child = Tensor::zeros(Shape::cube(ndim, k));
        idx.iter_mut().for_each(|v| *v = 0);
        for flat in 0..child.len() {
            for dim in 0..ndim {
                big_idx[dim] = idx[dim] + if (which >> dim) & 1 == 1 { k } else { 0 };
            }
            child.as_mut_slice()[flat] = block.at(&big_idx);
            for i in (0..ndim).rev() {
                idx[i] += 1;
                if idx[i] < k {
                    break;
                }
                idx[i] = 0;
            }
        }
        out.push(child);
    }
    out
}

/// Extracts the `[0,k)^d` scaling corner of a filtered `(2k)^d` block.
///
/// # Panics
/// Panics unless `block` is a `(2k)^d` cube.
pub fn extract_s_corner(k: usize, block: &Tensor) -> Tensor {
    let ndim = block.ndim();
    assert!(block.shape().is_cube(2 * k), "block must be (2k)^d");
    let mut out = Tensor::zeros(Shape::cube(ndim, k));
    let mut idx = vec![0usize; ndim];
    for flat in 0..out.len() {
        out.as_mut_slice()[flat] = block.at(&idx);
        for i in (0..ndim).rev() {
            idx[i] += 1;
            if idx[i] < k {
                break;
            }
            idx[i] = 0;
        }
    }
    out
}

/// Writes `s` into the `[0,k)^d` scaling corner of a `(2k)^d` block
/// (inverse of [`extract_s_corner`] on that corner).
///
/// # Panics
/// Panics unless `block` is a `(2k)^d` cube and `s` a `k^d` cube.
pub fn insert_s_corner(k: usize, block: &mut Tensor, s: &Tensor) {
    let d = block.ndim();
    assert!(block.shape().is_cube(2 * k), "block must be (2k)^d");
    assert!(s.shape().is_cube(k), "corner must be k^d");
    let mut idx = vec![0usize; d];
    for flat in 0..s.len() {
        *block.at_mut(&idx) = s.as_slice()[flat];
        for i in (0..d).rev() {
            idx[i] += 1;
            if idx[i] < k {
                break;
            }
            idx[i] = 0;
        }
    }
}

/// Zeroes the `[0,k)^d` scaling corner of a `(2k)^d` block.
///
/// # Panics
/// Panics unless `block` is a `(2k)^d` cube.
pub fn zero_s_corner(k: usize, block: &mut Tensor) {
    let d = block.ndim();
    assert!(block.shape().is_cube(2 * k), "block must be (2k)^d");
    let mut idx = vec![0usize; d];
    let n = k.pow(d as u32);
    for _ in 0..n {
        *block.at_mut(&idx) = 0.0;
        for i in (0..d).rev() {
            idx[i] += 1;
            if idx[i] < k {
                break;
            }
            idx[i] = 0;
        }
    }
}

/// Norm of the wavelet (difference) part of a filtered block:
/// `‖block‖² − ‖s-corner‖²`, clamped at zero against rounding.
///
/// # Panics
/// Panics unless `block` is a `(2k)^d` cube.
pub fn d_norm(k: usize, block: &Tensor) -> f64 {
    let total = block.normf();
    let s = extract_s_corner(k, block).normf();
    (total * total - s * s).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_is_orthogonal() {
        for k in [1, 3, 6, 10] {
            let ts = TwoScale::new(k);
            let two_k = 2 * k;
            for r in 0..two_k {
                for c in 0..two_k {
                    let dot: f64 = (0..two_k)
                        .map(|m| ts.w().at(&[r, m]) * ts.w().at(&[c, m]))
                        .sum();
                    let want = if r == c { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-11, "k={k}: WWᵀ[{r}][{c}] = {dot}");
                }
            }
        }
    }

    #[test]
    fn for_k_shares_one_build_per_order_with_news_values() {
        let ts = TwoScale::for_k(7);
        assert!(Arc::ptr_eq(&ts, &TwoScale::for_k(7)));
        assert!(!Arc::ptr_eq(&ts, &TwoScale::for_k(5)));
        let fresh = TwoScale::new(7);
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ts.w()), bits(fresh.w()));
        assert_eq!(bits(ts.wt()), bits(fresh.wt()));
    }

    #[test]
    fn filter_unfilter_round_trip_2d() {
        let k = 4;
        let ts = TwoScale::new(k);
        let block = Tensor::from_fn(Shape::cube(2, 2 * k), |ix| {
            ((ix[0] * 17 + ix[1] * 3) % 13) as f64 - 6.0
        });
        let rt = ts.unfilter(&ts.filter(&block));
        assert!(rt.distance(&block) < 1e-11);
    }

    #[test]
    fn filter_unfilter_round_trip_3d() {
        let k = 3;
        let ts = TwoScale::new(k);
        let block = Tensor::from_fn(Shape::cube(3, 2 * k), |ix| {
            (ix[0] as f64).sin() + (ix[1] as f64 * 0.7).cos() * (ix[2] as f64 + 1.0)
        });
        let rt = ts.unfilter(&ts.filter(&block));
        assert!(rt.distance(&block) < 1e-11);
    }

    #[test]
    fn filter_preserves_norm() {
        // W orthogonal ⇒ the change of basis is an isometry.
        let k = 5;
        let ts = TwoScale::new(k);
        let block = Tensor::from_fn(Shape::cube(2, 2 * k), |ix| {
            1.0 / (1.0 + (ix[0] + 3 * ix[1]) as f64)
        });
        let f = ts.filter(&block);
        assert!((f.normf() - block.normf()).abs() < 1e-11);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let k = 3;
        let d = 3;
        let kids: Vec<Tensor> = (0..(1usize << d))
            .map(|w| {
                Tensor::from_fn(Shape::cube(d, k), |ix| {
                    (w * 100 + ix[0] * 9 + ix[1] * 3 + ix[2]) as f64
                })
            })
            .collect();
        let refs: Vec<Option<&Tensor>> = kids.iter().map(Some).collect();
        let block = gather_children(k, d, &refs);
        let back = scatter_children(k, &block);
        for (a, b) in kids.iter().zip(&back) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn missing_children_gather_as_zero() {
        let k = 2;
        let d = 2;
        let c0 = Tensor::full(Shape::cube(d, k), 1.0);
        let refs: Vec<Option<&Tensor>> = vec![Some(&c0), None, None, None];
        let block = gather_children(k, d, &refs);
        assert_eq!(block.sum(), (k * k) as f64);
    }

    /// Constant functions (degree 0 < k) have zero wavelet coefficients:
    /// the two-scale basis reproduces low-degree polynomials exactly.
    #[test]
    fn constant_function_has_zero_difference() {
        let k = 4;
        let d = 2;
        let ts = TwoScale::new(k);
        // A constant f ≡ c has child coefficients s^c = [c·2^{-n d/2}
        // √(box volume) …, 0, …] ∝ e_0 in each child. Build children whose
        // only nonzero coefficient is φ_0 (the constant basis function),
        // all with the SAME value (same function in every child box).
        let mut child = Tensor::zeros(Shape::cube(d, k));
        child.as_mut_slice()[0] = 2.5;
        let refs: Vec<Option<&Tensor>> = (0..4).map(|_| Some(&child)).collect();
        let block = gather_children(k, d, &refs);
        let sd = ts.filter(&block);
        let dn = d_norm(k, &sd);
        assert!(dn < 1e-12, "difference norm {dn}");
        // And the parent s-corner carries the whole norm.
        let s = extract_s_corner(k, &sd);
        assert!((s.normf() - block.normf()).abs() < 1e-12);
    }

    /// The upsample `sum_down` ran before [`TwoScale::push_down`]: `s`
    /// into the corner of a zero `(2k)^d` block, the full unfilter, the
    /// children cut out.
    fn upsample(ts: &TwoScale, s: &Tensor) -> Vec<Tensor> {
        let (k, d) = (ts.k(), s.ndim());
        let mut block = Tensor::zeros(Shape::cube(d, 2 * k));
        insert_s_corner(k, &mut block, s);
        scatter_children(k, &ts.unfilter(&block))
    }

    #[test]
    fn push_down_is_the_upsample_bit_for_bit() {
        const SPECIAL: [f64; 7] = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
        ];
        // NaN payloads are IEEE-unspecified: every NaN reads as one.
        let bits = |ts: &[Tensor]| -> Vec<u64> {
            let of = |x: &f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
            ts.iter()
                .flat_map(|t| t.as_slice().iter().map(of))
                .collect()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for k in (1..=10).chain([14]) {
            let ts = TwoScale::new(k);
            for d in 1..=4 {
                let shape = Shape::cube(d, k);
                // Plain values; every special value scattered through
                // them (one each); one special value alone; each special
                // value everywhere.
                let mut cases = vec![Tensor::from_fn(shape, |_| uniform())];
                let mut scattered = Tensor::from_fn(shape, |_| uniform());
                let n = scattered.len();
                for (i, &x) in SPECIAL.iter().enumerate() {
                    scattered.as_mut_slice()[(i * 7919 + 3) % n] = x;
                }
                cases.push(scattered);
                for &x in &SPECIAL {
                    let mut alone = Tensor::from_fn(shape, |_| uniform());
                    alone.as_mut_slice()[n / 2] = x;
                    cases.push(alone);
                    cases.push(Tensor::full(shape, x));
                }
                for s in &cases {
                    assert_eq!(
                        bits(&ts.push_down(s)),
                        bits(&upsample(&ts, s)),
                        "k = {k}, d = {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn d_norm_pythagoras() {
        let k = 3;
        let block = Tensor::from_fn(Shape::cube(2, 2 * k), |ix| (ix[0] + ix[1]) as f64);
        let s = extract_s_corner(k, &block).normf();
        let dn = d_norm(k, &block);
        let total = block.normf();
        assert!((s * s + dn * dn - total * total).abs() < 1e-9);
    }
}
