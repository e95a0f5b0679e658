//! Separated-rank convolution operators: the `h^{(μ,i)}` blocks of
//! Formula 1.
//!
//! The Apply operator evaluates a Green's-function convolution
//! `(T f)(x) = ∫ K(x−y) f(y) dy` whose kernel admits a *separated
//! representation* as a sum of `M` products of 1-D Gaussians:
//!
//! ```text
//! K(z) ≈ Σ_{μ=1..M} c_μ · Π_{dim} exp(−t_μ z_dim²)
//! ```
//!
//! For the Coulomb kernel `1/r` this comes from discretizing
//! `1/r = (2/√π) ∫ e^{−r²e^{2s}} e^s ds` on a geometric grid — the rank
//! `M ≈ 100` the paper quotes. Each term × dimension × displacement gives
//! one small `(k, k)` operator block `h`, obtained by quadrature; these
//! are exactly the hundreds of small matrices a single Apply task
//! multiplies by, and what the paper's *write-once software cache* stores.

use crate::hashing::FxHashMap;
use crate::quadrature::{gauss_legendre, scaling_functions};
use madness_tensor::{Shape, Tensor};
use parking_lot::Mutex;
use std::sync::Arc;

/// One Gaussian term of a separated kernel: `coeff · exp(−exponent · z²)`
/// per dimension (the coefficient applies once to the d-dim product).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianTerm {
    /// Multiplicative coefficient `c_μ` of the d-dimensional product.
    pub coeff: f64,
    /// Gaussian exponent `t_μ` (same in every dimension).
    pub exponent: f64,
}

/// A same-level box displacement, `δ ∈ ℤ^d`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Displacement {
    /// Integer offset per dimension.
    pub delta: Vec<i64>,
}

/// Cache key for one 1-D operator block: (level, 1-D displacement, term).
type HKey = (u8, i64, u32);

/// A separated-rank Gaussian convolution over `[0,1]^d`, with the
/// write-once software cache of its `(k, k)` operator blocks.
///
/// The cache mirrors the CPU-side cache MADNESS ships ("a write-once
/// software cache containing the already transferred 2-D tensors");
/// `madness-gpusim` layers the *device-side* copy on top of this.
pub struct SeparatedConvolution {
    d: usize,
    k: usize,
    terms: Vec<GaussianTerm>,
    /// ∞-norm radius of the displacement box (default 1).
    max_disp: i64,
    /// Quadrature points/φ values used to assemble blocks, precomputed.
    qpts: Vec<f64>,
    qwts: Vec<f64>,
    qphi: Vec<Vec<f64>>, // qphi[q][i] = φ_i(x_q)
    cache: Mutex<FxHashMap<HKey, Arc<Tensor>>>,
    /// Memoized effective ranks: recomputing row norms per Apply task
    /// made the rank-reduced path slower than full rank.
    rank_cache: Mutex<FxHashMap<(HKey, u64), usize>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SeparatedConvolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeparatedConvolution")
            .field("d", &self.d)
            .field("k", &self.k)
            .field("rank", &self.terms.len())
            .field("max_disp", &self.max_disp)
            .finish()
    }
}

impl SeparatedConvolution {
    /// Builds an operator from explicit Gaussian terms.
    ///
    /// # Panics
    /// Panics on empty terms, non-positive exponents, or unsupported
    /// `d`/`k`.
    pub fn from_terms(d: usize, k: usize, terms: Vec<GaussianTerm>) -> Self {
        assert!((1..=crate::MAX_DIMS).contains(&d), "unsupported d");
        assert!(k >= 1, "k must be positive");
        assert!(!terms.is_empty(), "need at least one term");
        assert!(
            terms.iter().all(|t| t.exponent > 0.0),
            "exponents must be positive"
        );
        // 2k-point rule integrates φ_i·φ_j exactly and resolves moderate
        // Gaussian sharpness; blocks are smooth in the regime we apply
        // them (sharper terms vanish under the displacement cutoff).
        let npt = 2 * k;
        let (qpts, qwts) = gauss_legendre(npt);
        let mut phi = vec![0.0; k];
        let qphi: Vec<Vec<f64>> = qpts
            .iter()
            .map(|&x| {
                scaling_functions(k, x, &mut phi);
                phi.clone()
            })
            .collect();
        SeparatedConvolution {
            d,
            k,
            terms,
            max_disp: 1,
            qpts,
            qwts,
            qphi,
            cache: Mutex::new(FxHashMap::default()),
            rank_cache: Mutex::new(FxHashMap::default()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The Coulomb operator `1/r` to roughly `precision`, via geometric
    /// quadrature of its Gaussian integral representation. `r_min` is the
    /// smallest inter-box distance that must be resolved (sets the
    /// sharpest Gaussian retained).
    pub fn coulomb(d: usize, k: usize, precision: f64, r_min: f64) -> Self {
        assert!(precision > 0.0 && precision < 1.0, "bad precision");
        assert!(r_min > 0.0 && r_min < 1.0, "bad r_min");
        let eps = precision;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        // Truncation points of ∫ e^{−r²e^{2s}} e^s ds (see module docs).
        let s_lo = (eps / two_over_sqrt_pi).ln();
        let s_hi = 0.5 * (1.0f64.max((1.0 / eps).ln())).ln() - r_min.ln() + 1.0;
        // Trapezoid step tuned to the target precision (empirical rule
        // from the multiwavelet literature).
        let h = 1.0 / (0.2 + 0.47 * (1.0 / eps).log10());
        let m = ((s_hi - s_lo) / h).ceil() as usize;
        let terms: Vec<GaussianTerm> = (0..m)
            .map(|i| {
                let s = s_lo + (i as f64 + 0.5) * h;
                GaussianTerm {
                    coeff: two_over_sqrt_pi * s.exp() * h,
                    exponent: (2.0 * s).exp(),
                }
            })
            .collect();
        Self::from_terms(d, k, terms)
    }

    /// The bound-state Helmholtz (BSH) kernel `e^{−μr}/r` to roughly
    /// `precision`, via the same geometric quadrature as
    /// [`SeparatedConvolution::coulomb`]: under `t = e^s` the integral
    /// representation
    /// `e^{−μr}/r = (2/√π) ∫ exp(−r²e^{2s} − μ²e^{−2s}/4) e^s ds`
    /// differs from Coulomb's only by the `exp(−μ²e^{−2s}/4)` factor,
    /// which damps the diffuse (small-`s`) terms — the operator is the
    /// Green's function MADNESS applies in every SCF iteration to
    /// invert `(−∇²/2 + μ²/2)`. `μ = 0` recovers Coulomb exactly.
    pub fn bsh(d: usize, k: usize, mu: f64, precision: f64, r_min: f64) -> Self {
        assert!(mu >= 0.0, "bsh needs a nonnegative µ");
        assert!(precision > 0.0 && precision < 1.0, "bad precision");
        assert!(r_min > 0.0 && r_min < 1.0, "bad r_min");
        let eps = precision;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let s_lo = (eps / two_over_sqrt_pi).ln();
        let s_hi = 0.5 * (1.0f64.max((1.0 / eps).ln())).ln() - r_min.ln() + 1.0;
        let h = 1.0 / (0.2 + 0.47 * (1.0 / eps).log10());
        let m = ((s_hi - s_lo) / h).ceil() as usize;
        // The µ-damping factor sends the most diffuse terms to ~0; drop
        // any term it suppresses below the precision budget so the
        // separation rank (and every per-task cost that scales with it)
        // reflects the real operator rather than Coulomb's. At µ = 0
        // the factor is identically 1 and nothing is dropped.
        let terms: Vec<GaussianTerm> = (0..m)
            .filter_map(|i| {
                let s = s_lo + (i as f64 + 0.5) * h;
                let damping = (-(mu * mu) * (-2.0 * s).exp() / 4.0).exp();
                (damping > eps * 1e-2).then(|| GaussianTerm {
                    coeff: two_over_sqrt_pi * s.exp() * damping * h,
                    exponent: (2.0 * s).exp(),
                })
            })
            .collect();
        Self::from_terms(d, k, terms)
    }

    /// A synthetic rank-`m` Gaussian family with exponents spread
    /// geometrically over `[t_min, t_max]` and unit total weight.
    ///
    /// Used for the 4-D TDSE experiments: the complex free-particle
    /// propagator has the same separated rank-M × small-matrix structure;
    /// this real Gaussian family exercises the identical code path
    /// (documented substitution, DESIGN.md §2).
    pub fn gaussian_sum(d: usize, k: usize, m: usize, t_min: f64, t_max: f64) -> Self {
        assert!(m >= 1 && t_min > 0.0 && t_max >= t_min);
        let terms: Vec<GaussianTerm> = (0..m)
            .map(|i| {
                let f = if m == 1 {
                    0.0
                } else {
                    i as f64 / (m - 1) as f64
                };
                GaussianTerm {
                    coeff: 1.0 / m as f64,
                    exponent: t_min * (t_max / t_min).powf(f),
                }
            })
            .collect();
        Self::from_terms(d, k, terms)
    }

    /// Mesh dimensionality.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Polynomial order.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Separation rank `M`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.terms.len()
    }

    /// The Gaussian terms.
    #[inline]
    pub fn terms(&self) -> &[GaussianTerm] {
        &self.terms
    }

    /// Sets the displacement radius (default 1).
    pub fn set_max_disp(&mut self, r: i64) {
        assert!(r >= 0, "radius must be non-negative");
        self.max_disp = r;
    }

    /// Evaluates the separated kernel at squared radius `r²` (the tests
    /// check it against the exact kernel).
    pub fn kernel_at(&self, r2: f64) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coeff * (-t.exponent * r2).exp())
            .sum()
    }

    /// `(hits, misses)` of the write-once block cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// The 1-D operator block `h^{(μ)}(n, δ)` — a `(k, k)` tensor stored
    /// transform-ready (`h[j][i] = T_{ij}`), fetched through the
    /// write-once cache.
    ///
    /// `T_{ij} = 2^{-n} ∬ φ_i(u) · exp(−t_μ (2^{-n}(u − v + δ))²) · φ_j(v) du dv`
    ///
    /// # Panics
    /// Panics if `mu ≥ rank`.
    pub fn get_h(&self, mu: usize, level: u8, disp: i64) -> Arc<Tensor> {
        assert!(mu < self.terms.len(), "term index out of range");
        let key: HKey = (level, disp, mu as u32);
        {
            let cache = self.cache.lock();
            if let Some(t) = cache.get(&key) {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Arc::clone(t);
            }
        }
        let block = Arc::new(self.build_h(mu, level, disp));
        let mut cache = self.cache.lock();
        // Write-once: first writer wins; racing builders drop their copy.
        // Count the miss only for the entry that actually populated the
        // cache, so hit/miss statistics stay deterministic under races.
        match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Arc::clone(v.insert(block))
            }
        }
    }

    fn build_h(&self, mu: usize, level: u8, disp: i64) -> Tensor {
        let k = self.k;
        let t = self.terms[mu];
        let scale = (1u64 << level) as f64;
        let inv = 1.0 / scale;
        let mut h = Tensor::zeros(Shape::matrix(k, k));
        // Double quadrature over (u, v) ∈ [0,1]².
        for (qu, &u) in self.qpts.iter().enumerate() {
            for (qv, &v) in self.qpts.iter().enumerate() {
                let z = (u - v + disp as f64) * inv;
                let g = (-t.exponent * z * z).exp();
                if g == 0.0 {
                    continue;
                }
                let w = self.qwts[qu] * self.qwts[qv] * g * inv;
                for i in 0..k {
                    let wi = w * self.qphi[qu][i];
                    for j in 0..k {
                        // store transposed: h[j][i] = T_{ij}
                        *h.at_mut(&[j, i]) += wi * self.qphi[qv][j];
                    }
                }
            }
        }
        h
    }

    /// The full ∞-norm-radius-`max_disp` displacement box, the same at
    /// every level (the paper's "Obtain displacements" step), in
    /// lexicographic order, `δ_1` slowest and `δ_d` fastest. That is the
    /// order of a transform's passes (pass `p` contracts dimension `p`
    /// with the block of `δ_p`), so every prefix `(δ_1 … δ_p)` is
    /// contiguous: a source's tasks run side by side in it compute each
    /// distinct leading intermediate once a term (3 + 9 of the 2 × 27
    /// leading passes of a radius-1 box at d = 3) and fan every `δ_d`
    /// triple.
    pub fn displacements(&self) -> Vec<Displacement> {
        let r = self.max_disp;
        let side = (2 * r + 1) as usize;
        (0..side.pow(self.d as u32))
            .map(|flat| {
                let mut rem = flat;
                let mut delta = vec![0; self.d];
                for dl in delta.iter_mut().rev() {
                    *dl = (rem % side) as i64 - r;
                    rem /= side;
                }
                Displacement { delta }
            })
            .collect()
    }

    /// Effective rank of the block for *rank reduction* (paper §II-D,
    /// Fig. 4): the number of leading rows whose norm exceeds
    /// `eps · max_row_norm`. Tail rows beyond it are negligible and the
    /// CPU path skips them.
    pub fn effective_rank(&self, mu: usize, level: u8, disp: i64, eps: f64) -> usize {
        // Memoized: the rank depends only on the (immutable) block and
        // eps, but Apply asks for it once per source task — thousands of
        // times per run for the same handful of blocks.
        let key = ((level, disp, mu as u32), eps.to_bits());
        if let Some(&kr) = self.rank_cache.lock().get(&key) {
            return kr;
        }
        let kr = self.compute_effective_rank(mu, level, disp, eps);
        // Racing computations insert the same deterministic value.
        self.rank_cache.lock().insert(key, kr);
        kr
    }

    fn compute_effective_rank(&self, mu: usize, level: u8, disp: i64, eps: f64) -> usize {
        let h = self.get_h(mu, level, disp);
        let k = self.k;
        let mut row_norms = vec![0.0f64; k];
        for j in 0..k {
            let mut s = 0.0;
            for i in 0..k {
                let x = h.at(&[j, i]);
                s += x * x;
            }
            row_norms[j] = s.sqrt();
        }
        let max = row_norms.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return 1;
        }
        let cut = eps * max;
        let mut kr = 1;
        for (j, &n) in row_norms.iter().enumerate() {
            if n > cut {
                kr = j + 1;
            }
        }
        kr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coulomb_separated_representation_accuracy() {
        let op = SeparatedConvolution::coulomb(3, 10, 1e-6, 1e-2);
        for &r in &[0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5] {
            let got = op.kernel_at(r * r);
            let want = 1.0 / r;
            let rel = (got - want).abs() / want;
            assert!(rel < 1e-4, "r={r}: {got} vs {want} (rel {rel:.2e})");
        }
    }

    #[test]
    fn coulomb_rank_near_paper_magnitude() {
        // The paper quotes M ≈ 100 for typical precisions.
        let op = SeparatedConvolution::coulomb(3, 10, 1e-8, 1e-2);
        let m = op.rank();
        assert!(
            (60..=220).contains(&m),
            "rank {m} far from the paper's M ≈ 100"
        );
    }

    #[test]
    fn bsh_separated_representation_accuracy() {
        let mu = 2.0;
        let op = SeparatedConvolution::bsh(3, 10, mu, 1e-6, 1e-2);
        for &r in &[0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5] {
            let got = op.kernel_at(r * r);
            let want = (-mu * r).exp() / r;
            let rel = (got - want).abs() / want;
            assert!(rel < 1e-3, "r={r}: {got} vs {want} (rel {rel:.2e})");
        }
    }

    #[test]
    fn bsh_at_zero_mu_matches_coulomb() {
        let bsh = SeparatedConvolution::bsh(3, 8, 0.0, 1e-6, 1e-2);
        let clb = SeparatedConvolution::coulomb(3, 8, 1e-6, 1e-2);
        assert_eq!(bsh.rank(), clb.rank());
        for &r2 in &[1e-4, 1e-2, 0.25, 1.0] {
            let (a, b) = (bsh.kernel_at(r2), clb.kernel_at(r2));
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn bsh_damping_trims_diffuse_terms() {
        // A bound µ kills the small-exponent (long-range) Gaussians, so
        // the rank must strictly drop relative to Coulomb and keep
        // dropping as µ grows.
        let clb = SeparatedConvolution::coulomb(3, 10, 1e-6, 1e-2).rank();
        let soft = SeparatedConvolution::bsh(3, 10, 1.0, 1e-6, 1e-2).rank();
        let hard = SeparatedConvolution::bsh(3, 10, 30.0, 1e-6, 1e-2).rank();
        assert!(soft < clb, "µ=1 rank {soft} not below Coulomb {clb}");
        assert!(hard < soft, "µ=30 rank {hard} not below µ=1 {soft}");
        assert!(hard >= 1);
    }

    #[test]
    fn rank_grows_with_precision() {
        let lo = SeparatedConvolution::coulomb(3, 10, 1e-4, 1e-2).rank();
        let hi = SeparatedConvolution::coulomb(3, 10, 1e-10, 1e-2).rank();
        assert!(hi > lo, "{hi} vs {lo}");
    }

    #[test]
    fn cache_is_write_once_and_hit_after_first() {
        let op = SeparatedConvolution::gaussian_sum(3, 6, 4, 1.0, 100.0);
        let a = op.get_h(2, 3, 1);
        let b = op.get_h(2, 3, 1);
        assert!(Arc::ptr_eq(&a, &b), "cache returned distinct blocks");
        let (hits, misses) = op.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn h_block_matches_brute_force_integral() {
        // Check one entry against dense Riemann integration.
        let op = SeparatedConvolution::gaussian_sum(1, 4, 1, 7.0, 7.0);
        let h = op.get_h(0, 1, 1); // level 1, displacement 1
        let t = 7.0;
        let inv = 0.5;
        let n = 400;
        let mut phi_u = vec![0.0; 4];
        let mut phi_v = vec![0.0; 4];
        let (i, j) = (2usize, 3usize);
        let mut want = 0.0;
        for a in 0..n {
            let u = (a as f64 + 0.5) / n as f64;
            scaling_functions(4, u, &mut phi_u);
            for b in 0..n {
                let v = (b as f64 + 0.5) / n as f64;
                scaling_functions(4, v, &mut phi_v);
                let z = (u - v + 1.0) * inv;
                want += phi_u[i] * phi_v[j] * (-t * z * z).exp();
            }
        }
        want *= inv / (n * n) as f64;
        let got = h.at(&[j, i]); // transposed storage
        assert!(
            (got - want).abs() < 1e-6,
            "h[{j}][{i}] = {got}, brute force {want}"
        );
    }

    #[test]
    fn smooth_term_is_nearly_rank_one() {
        // A very wide Gaussian is ≈ constant over the box: effective rank
        // collapses — the fuel for the CPU's 2.5× rank-reduction win.
        let op = SeparatedConvolution::gaussian_sum(3, 10, 1, 1e-4, 1e-4);
        let kr = op.effective_rank(0, 0, 0, 1e-3);
        assert!(kr <= 2, "effective rank {kr} for near-constant kernel");
    }

    #[test]
    fn sharp_term_keeps_high_rank() {
        let op = SeparatedConvolution::gaussian_sum(3, 10, 1, 300.0, 300.0);
        let kr = op.effective_rank(0, 0, 0, 1e-10);
        assert!(kr >= 8, "effective rank {kr} for sharp kernel");
    }

    #[test]
    fn effective_rank_is_memoized() {
        let op = SeparatedConvolution::gaussian_sum(3, 8, 2, 1.0, 50.0);
        let first = op.effective_rank(1, 2, 1, 1e-6);
        let stats_after_first = op.cache_stats();
        let second = op.effective_rank(1, 2, 1, 1e-6);
        assert_eq!(first, second);
        assert_eq!(
            op.cache_stats(),
            stats_after_first,
            "memoized call should not touch the block cache"
        );
        // A different eps is a different memo entry, not a stale answer.
        let loose = op.effective_rank(1, 2, 1, 0.5);
        assert!(loose <= first);
    }

    #[test]
    fn displacement_list_full_box() {
        let op = SeparatedConvolution::gaussian_sum(3, 4, 1, 1.0, 1.0);
        let disps = op.displacements();
        assert_eq!(disps.len(), 27);
        // Strictly lexicographic, `δ_1` slowest: the order of the passes.
        assert!(disps.windows(2).all(|w| w[0].delta < w[1].delta));
        assert!(disps.iter().flat_map(|d| &d.delta).all(|dl| dl.abs() <= 1));
    }

    #[test]
    fn displacement_radius_configurable() {
        let mut op = SeparatedConvolution::gaussian_sum(2, 4, 1, 1.0, 1.0);
        op.set_max_disp(2);
        assert_eq!(op.displacements().len(), 25);
        op.set_max_disp(0);
        assert_eq!(op.displacements().len(), 1);
    }

    #[test]
    fn blocks_decay_with_displacement() {
        // For a moderately sharp Gaussian the |δ|=1 block is much weaker
        // than the δ=0 block at fine levels — the basis of displacement
        // cutoffs.
        let op = SeparatedConvolution::gaussian_sum(1, 6, 1, 50.0, 50.0);
        let n0 = op.get_h(0, 0, 0).normf();
        let n1 = op.get_h(0, 0, 1).normf();
        assert!(n1 < n0 * 0.5, "no decay: {n0} vs {n1}");
    }
}
