//! Property-based tests for the tensor kernels.

use madness_tensor::mtxmq::mtxmq_reference;
use madness_tensor::{
    mtxmq, transform, transform_rr_accumulate_scaled, Shape, Tensor, TransformScratch,
};
use proptest::prelude::*;

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized kernel agrees with the naive triple loop on random
    /// shapes and data.
    #[test]
    fn mtxmq_matches_reference(
        dimi in 1usize..20,
        dimj in 1usize..20,
        dimk in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let a: Vec<f64> = (0..dimk * dimi).map(|_| next()).collect();
        let b: Vec<f64> = (0..dimk * dimj).map(|_| next()).collect();
        let mut c = vec![f64::NAN; dimi * dimj];
        mtxmq(dimi, dimj, dimk, &a, &b, &mut c);
        let r = mtxmq_reference(dimi, dimj, dimk, &a, &b);
        prop_assert!(close(&c, &r, 1e-10));
    }

    /// A rank-reduced pass at full rank is exact; at partial rank it
    /// equals the reference sum truncated to `kr` terms. (The second
    /// pass is a full-rank identity: it only rotates the product back.)
    #[test]
    fn rank_reduction_truncates_contraction(
        dimi in 1usize..10,
        dimj in 1usize..10,
        dimk in 2usize..10,
        frac in 0.0f64..1.0,
    ) {
        let kr = ((dimk as f64 * frac) as usize).clamp(1, dimk);
        let a: Vec<f64> = (0..dimk * dimi).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let b: Vec<f64> = (0..dimk * dimj).map(|i| ((i * 5 + 1) % 13) as f64 - 6.0).collect();
        let t = Tensor::from_vec(Shape::matrix(dimk, dimi), a);
        let h = Tensor::from_vec(Shape::matrix(dimk, dimj), b);
        let mut c = Tensor::zeros(Shape::matrix(dimj, dimi));
        transform_rr_accumulate_scaled(
            &t, 1.0, &[&h, &Tensor::identity(dimi)], &[kr, dimi], &mut TransformScratch::new(), &mut c,
        );
        // Reference: contract only kr rows; `c` holds its transpose.
        let (a, b) = (&t.as_slice()[..kr * dimi], &h.as_slice()[..kr * dimj]);
        let r = mtxmq_reference(dimi, dimj, kr, a, b);
        let c: Vec<f64> = (0..dimi * dimj).map(|ij| c.at(&[ij % dimj, ij / dimj])).collect();
        prop_assert!(close(&c, &r, 1e-12));
    }

    /// Transform is linear in its tensor argument.
    #[test]
    fn transform_is_linear(k in 2usize..6, alpha in -3.0f64..3.0) {
        let t1 = Tensor::from_fn(Shape::cube(3, k), |ix| (ix[0] + 2 * ix[1] + 3 * ix[2]) as f64);
        let t2 = Tensor::from_fn(Shape::cube(3, k), |ix| (ix[0] * ix[1]) as f64 - ix[2] as f64);
        let h: Vec<Tensor> = (0..3)
            .map(|d| Tensor::from_fn(Shape::matrix(k, k), |ix| {
                ((ix[0] * (d + 2) + ix[1]) as f64).sin()
            }))
            .collect();
        let hr: Vec<&Tensor> = h.iter().collect();
        let lhs = transform(&(&(&t1 * alpha) + &t2), &hr);
        let rhs = &(&transform(&t1, &hr) * alpha) + &transform(&t2, &hr);
        prop_assert!(lhs.distance(&rhs) < 1e-9 * (1.0 + rhs.normf()));
    }

    /// Composing two transforms equals transforming by the matrix products:
    /// transform(transform(t, A), B) == transform(t, A·B) where
    /// (A·B)_{j i} = Σ_m A_{j m} B_{m i}.
    #[test]
    fn transform_composes(k in 2usize..5) {
        let t = Tensor::from_fn(Shape::cube(3, k), |ix| {
            1.0 / (1.0 + (ix[0] + ix[1] * 2 + ix[2] * 4) as f64)
        });
        let mk = |s: usize| Tensor::from_fn(Shape::matrix(k, k), |ix| {
            (((ix[0] * 31 + ix[1] * 17 + s) % 7) as f64 - 3.0) / 3.0
        });
        let a: Vec<Tensor> = (0..3).map(mk).collect();
        let b: Vec<Tensor> = (3..6).map(mk).collect();
        let ab: Vec<Tensor> = (0..3).map(|d| {
            Tensor::from_fn(Shape::matrix(k, k), |ix| {
                (0..k).map(|m| a[d].at(&[ix[0], m]) * b[d].at(&[m, ix[1]])).sum()
            })
        }).collect();
        let ar: Vec<&Tensor> = a.iter().collect();
        let br: Vec<&Tensor> = b.iter().collect();
        let abr: Vec<&Tensor> = ab.iter().collect();
        let two_step = transform(&transform(&t, &ar), &br);
        let one_step = transform(&t, &abr);
        prop_assert!(two_step.distance(&one_step) < 1e-9 * (1.0 + one_step.normf()));
    }

    /// Rectangular transforms produce the documented output shape.
    #[test]
    fn rectangular_output_shape(n in 1usize..5, m in 1usize..5, p in 1usize..5, q in 1usize..5) {
        let t = Tensor::full(Shape::new(&[n, p]), 1.0);
        let h1 = Tensor::full(Shape::matrix(n, m), 0.5);
        let h2 = Tensor::full(Shape::matrix(p, q), 0.25);
        let r = transform(&t, &[&h1, &h2]);
        let shape = r.shape();
        prop_assert_eq!(shape.dims(), &[m, q][..]);
        // Every entry is n*p * 1 * 0.5 * 0.25.
        let want = (n * p) as f64 * 0.125;
        prop_assert!(r.as_slice().iter().all(|&x| (x - want).abs() < 1e-12));
    }

    /// normf is absolutely homogeneous: ‖αt‖ = |α|·‖t‖.
    #[test]
    fn normf_homogeneous(alpha in -5.0f64..5.0, k in 1usize..6) {
        let t = Tensor::from_fn(Shape::cube(2, k), |ix| (ix[0] as f64) - (ix[1] as f64) * 0.5);
        let lhs = (&t * alpha).normf();
        let rhs = alpha.abs() * t.normf();
        prop_assert!((lhs - rhs).abs() < 1e-10 * (1.0 + rhs));
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation workspace variants
// ---------------------------------------------------------------------------

mod workspace {
    use madness_tensor::{
        transform, transform_accumulate_scaled, transform_rr_accumulate_scaled, Shape, Tensor,
        TransformScratch, Workspace,
    };
    use proptest::prelude::*;

    /// Deterministic tensor fill from a seed (xorshift, same idiom the
    /// unit tests use).
    fn det_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// Random (shape, operators) pair: d ∈ 1..=4 dims of extents 1..6,
    /// with possibly rectangular operators.
    fn random_problem(
        d: usize,
        extents: &[usize],
        outs: &[usize],
        seed: u64,
    ) -> (Tensor, Vec<Tensor>) {
        let t = det_tensor(Shape::new(&extents[..d]), seed);
        let hs: Vec<Tensor> = (0..d)
            .map(|i| {
                det_tensor(
                    Shape::matrix(extents[i], outs[i]),
                    seed ^ ((i as u64 + 1) * 7919),
                )
            })
            .collect();
        (t, hs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A reused scratch is bit-identical to the allocating
        /// `transform` (a fresh one) across dims, shapes, and rectangular
        /// operators — including back-to-back reuse of the same scratch.
        #[test]
        fn scratch_reuse_bit_identical_across_shapes(
            d in 1usize..5,
            e1 in 1usize..6, e2 in 1usize..6, e3 in 1usize..6, e4 in 1usize..6,
            o1 in 1usize..6, o2 in 1usize..6, o3 in 1usize..6, o4 in 1usize..6,
            seed in any::<u64>(),
        ) {
            let extents = [e1, e2, e3, e4];
            let outs = [o1, o2, o3, o4];
            let mut scratch = TransformScratch::new();
            // Two different problems back to back through one scratch:
            // reuse must never leak state between calls.
            for round in 0..2u64 {
                let (t, hs) = random_problem(d, &extents, &outs, seed ^ round);
                let hr: Vec<&Tensor> = hs.iter().collect();
                let want = transform(&t, &hr);
                let mut got = Tensor::zeros(want.shape());
                transform_accumulate_scaled(&t, 1.0, &hr, &mut scratch, &mut got);
                prop_assert_eq!(got.as_slice(), want.as_slice());
            }
        }

        /// The fused-coefficient accumulate equals pre-scaling the
        /// tensor and accumulating, bit for bit.
        #[test]
        fn scaled_accumulate_bit_identical(
            d in 1usize..5,
            k in 1usize..6,
            coeff in -4.0f64..4.0,
            seed in any::<u64>(),
        ) {
            let t = det_tensor(Shape::cube(d, k), seed);
            let hs: Vec<Tensor> = (0..d)
                .map(|i| det_tensor(Shape::matrix(k, k), seed ^ (i as u64 + 1)))
                .collect();
            let hr: Vec<&Tensor> = hs.iter().collect();
            let mut scratch = TransformScratch::new();
            let mut scaled = t.clone();
            scaled.scale(coeff);
            let base = det_tensor(Shape::cube(d, k), seed ^ 0xABCD);
            let mut want = base.clone();
            let mut got = base.clone();
            transform_accumulate_scaled(&scaled, 1.0, &hr, &mut scratch, &mut want);
            transform_accumulate_scaled(&t, coeff, &hr, &mut scratch, &mut got);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }

        /// Rank-reduced: fused-coefficient accumulate equals pre-scaled
        /// accumulate bit for bit, for every effective-rank pattern.
        #[test]
        fn scaled_rr_accumulate_bit_identical(
            d in 1usize..5,
            k in 1usize..6,
            coeff in -4.0f64..4.0,
            kr1 in 1usize..6, kr2 in 1usize..6, kr3 in 1usize..6, kr4 in 1usize..6,
            seed in any::<u64>(),
        ) {
            let t = det_tensor(Shape::cube(d, k), seed);
            let hs: Vec<Tensor> = (0..d)
                .map(|i| det_tensor(Shape::matrix(k, k), seed ^ (i as u64 + 11)))
                .collect();
            let hr: Vec<&Tensor> = hs.iter().collect();
            let krs_all = [kr1.min(k), kr2.min(k), kr3.min(k), kr4.min(k)];
            let krs = &krs_all[..d];
            let mut scratch = TransformScratch::new();
            let mut scaled = t.clone();
            scaled.scale(coeff);
            let base = det_tensor(Shape::cube(d, k), seed ^ 0x1234);
            let mut want = base.clone();
            let mut got = base.clone();
            transform_rr_accumulate_scaled(&scaled, 1.0, &hr, krs, &mut scratch, &mut want);
            transform_rr_accumulate_scaled(&t, coeff, &hr, krs, &mut scratch, &mut got);
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }

        /// The thread-local `Workspace` gives the same bits as a fresh
        /// scratch, no matter how many differently-shaped transforms
        /// have been run through it before.
        #[test]
        fn workspace_reuse_bit_identical(
            d in 1usize..5,
            k in 1usize..6,
            warm_d in 1usize..5,
            warm_k in 1usize..6,
            seed in any::<u64>(),
        ) {
            // Warm the workspace with a differently-shaped problem.
            let (wt, whs) = {
                let t = det_tensor(Shape::cube(warm_d, warm_k), seed ^ 0xFEED);
                let hs: Vec<Tensor> = (0..warm_d)
                    .map(|i| det_tensor(Shape::matrix(warm_k, warm_k), seed ^ (i as u64 + 41)))
                    .collect();
                (t, hs)
            };
            let whr: Vec<&Tensor> = whs.iter().collect();
            Workspace::with(|ws| {
                let mut out = Tensor::zeros(Shape::cube(warm_d, warm_k));
                transform_accumulate_scaled(&wt, 1.0, &whr, ws.scratch(), &mut out);
            });
            // Now the real check.
            let t = det_tensor(Shape::cube(d, k), seed);
            let hs: Vec<Tensor> = (0..d)
                .map(|i| det_tensor(Shape::matrix(k, k), seed ^ (i as u64 + 71)))
                .collect();
            let hr: Vec<&Tensor> = hs.iter().collect();
            let want = transform(&t, &hr);
            let got = Workspace::with(|ws| {
                let mut out = Tensor::zeros(Shape::cube(d, k));
                transform_accumulate_scaled(&t, 1.0, &hr, ws.scratch(), &mut out);
                out
            });
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel candidates (the autotuned per-(d,k) table)
// ---------------------------------------------------------------------------

mod kernels {
    use madness_tensor::kernel::{self, KernelId};
    use proptest::prelude::*;

    /// Calibration-style deterministic fill with exact zeros sprinkled
    /// in, so the `aki == 0.0` skip path is exercised.
    fn det_fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(31) {
                    0.0
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                }
            })
            .collect()
    }

    fn full_pass(
        id: KernelId,
        dimi: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        b: &[f64],
    ) -> Vec<f64> {
        let mut c = vec![0.0; dimi * dimj];
        kernel::run_span(id, dimi, 0, dimi, dimj, kr, a, b, &mut c);
        c
    }

    fn bits_equal(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every available candidate (scalar const-width, AVX, blocked)
        /// is **bit-identical** to the scalar runtime-width reference on
        /// every Table I `(d, k)` pass shape, including rank-reduced
        /// contractions — the table can swap kernels without perturbing
        /// a single bit of any determinism pin.
        #[test]
        fn candidates_bit_identical_on_table1_shapes(
            shape_ix in 0usize..kernel::DEFAULT_SHAPES.len(),
            frac in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let (d, k) = kernel::DEFAULT_SHAPES[shape_ix];
            let dimi = k.pow(d as u32 - 1);
            let (dimj, dimk) = (k, k);
            let kr = ((dimk as f64 * frac) as usize).min(dimk);
            let a = det_fill(dimk * dimi, seed);
            let b = det_fill(dimk * dimj, seed ^ 0xB0B);
            let want = full_pass(KernelId::ScalarRuntime, dimi, dimj, kr, &a, &b);
            for id in KernelId::ALL {
                if kernel::candidate_available(id, dimj) {
                    let got = full_pass(id, dimi, dimj, kr, &a, &b);
                    prop_assert!(
                        bits_equal(&got, &want),
                        "kernel {} diverged from scalar on d={} k={} kr={}",
                        id.name(), d, k, kr
                    );
                }
            }
        }

        /// Running a pass as consecutive row spans (any tile size, not
        /// just `pass_tile_rows`) composes bit-identically to the
        /// one-shot full pass, for every candidate.
        #[test]
        fn tiled_spans_compose_bit_identically(
            dimi in 1usize..48,
            dimj in 1usize..21,
            dimk in 1usize..12,
            tile in 1usize..9,
            seed in any::<u64>(),
        ) {
            let a = det_fill(dimk * dimi, seed);
            let b = det_fill(dimk * dimj, seed ^ 0xF00D);
            for id in KernelId::ALL {
                if kernel::candidate_available(id, dimj) {
                    let want = full_pass(id, dimi, dimj, dimk, &a, &b);
                    let mut c = vec![0.0; dimi * dimj];
                    let mut i0 = 0;
                    while i0 < dimi {
                        let i1 = (i0 + tile).min(dimi);
                        kernel::run_span(
                            id, dimi, i0, i1, dimj, dimk,
                            &a, &b, &mut c[i0 * dimj..i1 * dimj],
                        );
                        i0 = i1;
                    }
                    prop_assert!(
                        bits_equal(&c, &want),
                        "kernel {} tiled pass (tile={}) diverged at {}x{}x{}",
                        id.name(), tile, dimi, dimj, dimk
                    );
                }
            }
        }

        /// The AVX kernel agrees bit-for-bit with both scalar variants on
        /// every specialized width, for arbitrary (non-square) row and
        /// contraction extents. Vacuous on non-AVX hosts or scalar-only
        /// builds, where `candidate_available` reports the AVX kernel out.
        #[test]
        fn simd_matches_scalar_on_specialized_widths(
            w_ix in 0usize..kernel::SPECIALIZED_WIDTHS.len(),
            dimi in 1usize..64,
            dimk in 1usize..16,
            seed in any::<u64>(),
        ) {
            let dimj = kernel::SPECIALIZED_WIDTHS[w_ix];
            if kernel::candidate_available(KernelId::SimdConst, dimj) {
                let a = det_fill(dimk * dimi, seed);
                let b = det_fill(dimk * dimj, seed ^ 0xCAFE);
                let scalar = full_pass(KernelId::ScalarRuntime, dimi, dimj, dimk, &a, &b);
                let scalar_const = full_pass(KernelId::ScalarConst, dimi, dimj, dimk, &a, &b);
                let simd = full_pass(KernelId::SimdConst, dimi, dimj, dimk, &a, &b);
                prop_assert!(
                    bits_equal(&simd, &scalar),
                    "AVX kernel diverged from scalar-runtime at {}x{}x{}", dimi, dimj, dimk
                );
                prop_assert!(
                    bits_equal(&simd, &scalar_const),
                    "AVX kernel diverged from scalar-const at {}x{}x{}", dimi, dimj, dimk
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The task-level Σ_μ kernel
// ---------------------------------------------------------------------------

mod task_kernel {
    use madness_tensor::kernel::{self, KernelId};
    use madness_tensor::{
        transform_accumulate_scaled, transform_rr_accumulate_scaled, transform_sum_accumulate,
        transform_sum_accumulate_group, Shape, Tensor, Term, TransformScratch,
    };
    use proptest::prelude::*;

    /// The orders the issue names: every k up to 10, then 14 and 20.
    const ORDERS: [usize; 11] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 20];

    struct Xorshift(u64);

    impl Xorshift {
        fn new(seed: u64) -> Self {
            Xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.next() >> 11) % n as u64) as usize
        }

        /// Uniform in [-0.5, 0.5), with one value in `one_in` replaced
        /// by an exact zero, a negative zero, a NaN or an infinity.
        fn value(&mut self, one_in: usize) -> f64 {
            const SPECIALS: [f64; 6] = [0.0, -0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            if self.below(one_in) == 0 {
                SPECIALS[self.below(SPECIALS.len())]
            } else {
                ((self.next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }
        }
    }

    struct TaskTerm {
        coeff: f64,
        hs: Vec<Tensor>,
        krs: Option<Vec<usize>>,
    }

    /// Bit-for-bit, except that two NaNs match whatever their payloads:
    /// which operand's payload an add of two NaNs keeps is the code
    /// generator's choice, not part of the chain contract.
    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// `out += c · transform(s, hs)` for one term from the scalar
    /// reference span kernel alone: no code shared with `transform.rs`.
    fn reference_term(s: &Tensor, term: &TaskTerm, out: &mut [f64]) {
        let d = s.ndim();
        let mut cur: Vec<f64> = s.as_slice().iter().map(|x| term.coeff * x).collect();
        for (p, h) in term.hs.iter().enumerate() {
            let (dimk, dimj) = (h.shape().dim(0), h.shape().dim(1));
            let dimi = cur.len() / dimk;
            let kr = term.krs.as_ref().map_or(dimk, |krs| krs[p].min(dimk));
            let mut next = vec![0.0; dimi * dimj];
            let c = if p + 1 == d { &mut *out } else { &mut next[..] };
            kernel::run_span(
                KernelId::ScalarRuntime,
                dimi,
                0,
                dimi,
                dimj,
                kr,
                &cur,
                h.as_slice(),
                c,
            );
            cur = next;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One `transform_sum_accumulate` call equals the per-term
        /// `transform_accumulate_scaled` / `transform_rr_accumulate_scaled`
        /// loop — and an independent scalar pipeline — bit for bit: cubes
        /// of every order and rectangular operands, ranks on both sides
        /// of the chunk length, rank-reduced and exact terms mixed, a
        /// non-zero initial `out`, and exact zeros, ±0.0, NaN and ±∞ in
        /// the source and the blocks (the zero-skip contract).
        #[test]
        fn sum_equals_per_term_loop_bit_for_bit(
            d in 2usize..5,
            cube in any::<bool>(),
            k_ix in 0usize..ORDERS.len(),
            rank in 1usize..41,
            specials in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = Xorshift::new(seed);
            let (ins, outs): (Vec<usize>, Vec<usize>) = if cube {
                (vec![ORDERS[k_ix]; d], vec![ORDERS[k_ix]; d])
            } else {
                let top = if d == 4 { 7 } else { 13 };
                (0..d).map(|_| (1 + rng.below(top), 1 + rng.below(top))).unzip()
            };
            // Keep a case under ~1M multiply-adds per pass.
            let len: usize = ins.iter().product::<usize>().max(outs.iter().product());
            let rank = rank.min((400_000 / len).max(2));
            let one_in = if specials { 23 } else { usize::MAX };

            let mut s = Tensor::from_fn(Shape::new(&ins), |_| rng.value(one_in));
            if specials {
                // Zero a slab of the last dimension: those rows of the
                // last pass's operand are exactly zero in every term, so
                // a NaN/∞ in the matching block row must be skipped.
                let slab = rng.below(ins[d - 1]);
                let n_last = ins[d - 1];
                for (ix, x) in s.as_mut_slice().iter_mut().enumerate() {
                    if ix % n_last == slab {
                        *x = 0.0;
                    }
                }
            }
            let terms: Vec<TaskTerm> = (0..rank)
                .map(|_| TaskTerm {
                    coeff: rng.value(usize::MAX) * 4.0,
                    hs: (0..d)
                        .map(|p| Tensor::from_fn(Shape::matrix(ins[p], outs[p]), |_| rng.value(one_in)))
                        .collect(),
                    krs: (rng.below(3) == 0)
                        .then(|| ins.iter().map(|&n| 1 + rng.below(n)).collect()),
                })
                .collect();
            let base = Tensor::from_fn(Shape::new(&outs), |_| rng.value(usize::MAX));

            let mut reference = base.clone();
            for term in &terms {
                reference_term(&s, term, reference.as_mut_slice());
            }

            let mut scratch = TransformScratch::new();
            let mut looped = base.clone();
            for term in &terms {
                let hr: Vec<&Tensor> = term.hs.iter().collect();
                match &term.krs {
                    Some(krs) => transform_rr_accumulate_scaled(
                        &s, term.coeff, &hr, krs, &mut scratch, &mut looped,
                    ),
                    None => transform_accumulate_scaled(&s, term.coeff, &hr, &mut scratch, &mut looped),
                }
            }

            let mut summed = base.clone();
            transform_sum_accumulate(
                &s,
                terms.len(),
                |mu| Term {
                    coeff: terms[mu].coeff,
                    hs: terms[mu].hs.iter(),
                    krs: terms[mu].krs.as_deref(),
                },
                &mut scratch,
                &mut summed,
            );

            prop_assert!(
                same_bits(summed.as_slice(), looped.as_slice()),
                "sum diverged from the per-term loop: ins {:?} outs {:?} rank {}", ins, outs, rank
            );
            prop_assert!(
                same_bits(summed.as_slice(), reference.as_slice()),
                "sum diverged from the scalar reference: ins {:?} outs {:?} rank {}", ins, outs, rank
            );
        }

        /// One group call equals one `transform_sum_accumulate` call per
        /// task — and the independent scalar pipeline — bit for bit.
        /// Every task picks each dimension's block from that
        /// dimension's small pool, as a displacement does, so in sorted
        /// order neighbouring tasks share long prefixes and in shuffled
        /// order some, a few or none; ranks 1 to 4, cubes and
        /// rectangular operands, term counts on both sides of the chunk
        /// length, ranks exact, uniformly reduced or reduced per block
        /// or per task (which moves the slots' places in the stacked
        /// operand from task to task), and coefficients per term or per
        /// task and term.
        #[test]
        fn group_equals_one_task_calls_bit_for_bit(
            d in 1usize..5,
            cube in any::<bool>(),
            k_ix in 0usize..ORDERS.len(),
            n_tasks in 0usize..31,
            pool in 1usize..4,
            terms_at in 0usize..6,
            kr_mode in 0usize..4,
            sorted in any::<bool>(),
            task_coeffs in any::<bool>(),
            specials in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = Xorshift::new(seed);
            let (ins, outs): (Vec<usize>, Vec<usize>) = if cube {
                (vec![ORDERS[k_ix]; d], vec![ORDERS[k_ix]; d])
            } else {
                let top = if d == 4 { 5 } else { 9 };
                (0..d).map(|_| (1 + rng.below(top), 1 + rng.below(top))).unzip()
            };
            // The loop's chunk length: STACK_ELEMS over one last-pass
            // operand.
            let term_len = ins[d - 1] * outs[..d - 1].iter().product::<usize>();
            let chunk = (4096 / term_len).max(1);
            let n_terms = [1, chunk.saturating_sub(1), chunk, chunk + 1, 2 * chunk + 1, 1 + rng.below(7)]
                [terms_at];
            // Keep a case under ~30M multiply-adds.
            let len: usize = ins.iter().product::<usize>().max(outs.iter().product());
            let widest = ins.iter().chain(&outs).copied().max().unwrap_or(1);
            let n_terms = n_terms.min((1_000_000 / (len * widest * d)).max(2)).min(600);
            let one_in = if specials { 23 } else { usize::MAX };

            let s = Tensor::from_fn(Shape::new(&ins), |_| rng.value(one_in));
            // blocks[mu][p][j], with the rows a rank-reduced pass keeps.
            let blocks: Vec<Vec<Vec<(Tensor, usize)>>> = (0..n_terms)
                .map(|_| {
                    (0..d)
                        .map(|p| {
                            (0..pool)
                                .map(|_| {
                                    let h = Tensor::from_fn(Shape::matrix(ins[p], outs[p]), |_| {
                                        rng.value(one_in)
                                    });
                                    (h, 1 + rng.below(ins[p]))
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let coeffs: Vec<f64> = (0..n_terms).map(|_| rng.value(usize::MAX) * 4.0).collect();
            let scales: Vec<f64> = (0..n_tasks)
                .map(|_| if task_coeffs && rng.below(2) == 0 { -2.0 } else { 1.0 })
                .collect();
            let uniform: Vec<usize> = ins.iter().map(|&n| 1 + rng.below(n)).collect();
            let mut picks: Vec<Vec<usize>> = (0..n_tasks)
                .map(|_| (0..d).map(|_| rng.below(pool)).collect())
                .collect();
            if sorted {
                picks.sort();
            }
            let krs: Vec<Vec<Vec<usize>>> = picks
                .iter()
                .map(|pick| {
                    (0..n_terms)
                        .map(|mu| {
                            (0..d)
                                .map(|p| match kr_mode {
                                    3 => 1 + rng.below(ins[p]),
                                    _ => blocks[mu][p][pick[p]].1,
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let (blocks, picks) = (&blocks, &picks);
            let term = |task: usize, mu: usize| Term {
                coeff: coeffs[mu] * scales[task],
                hs: (0..d).map(move |p| &blocks[mu][p][picks[task][p]].0),
                krs: match kr_mode {
                    0 => None,
                    1 => Some(&uniform[..]),
                    _ => Some(&krs[task][mu][..]),
                },
            };
            let bases: Vec<Tensor> = (0..n_tasks)
                .map(|_| Tensor::from_fn(Shape::new(&outs), |_| rng.value(usize::MAX)))
                .collect();

            let mut scratch = TransformScratch::new();
            let mut grouped = bases.clone();
            transform_sum_accumulate_group(&[&s], n_terms, term, &mut scratch, &mut grouped);

            for (task, base) in bases.iter().enumerate() {
                let mut single = base.clone();
                transform_sum_accumulate(&s, n_terms, |mu| term(task, mu), &mut scratch, &mut single);
                prop_assert!(
                    same_bits(grouped[task].as_slice(), single.as_slice()),
                    "task {} of {} diverged from its one-task call: ins {:?} outs {:?} terms {} picks {:?}",
                    task, n_tasks, ins, outs, n_terms, picks
                );
                let mut reference = base.clone();
                for mu in 0..n_terms {
                    let Term { coeff, hs, krs } = term(task, mu);
                    let term = TaskTerm {
                        coeff,
                        hs: hs.cloned().collect(),
                        krs: krs.map(<[usize]>::to_vec),
                    };
                    reference_term(&s, &term, reference.as_mut_slice());
                }
                prop_assert!(
                    same_bits(grouped[task].as_slice(), reference.as_slice()),
                    "task {} of {} diverged from the scalar reference: ins {:?} outs {:?} terms {}",
                    task, n_tasks, ins, outs, n_terms
                );
            }
        }

        /// A stacked group call equals one `transform_sum_accumulate`
        /// call per source and task, bit for bit: `S` = 1 to 8 sources of
        /// one cube shape (d = 2 or 3; k = 4 or 10, the widths with fan
        /// bodies), each with its own random zero pattern — ±0 slabs of
        /// the first and last dimensions, each there or not, and
        /// scattered zeros, NaN and ±∞ — over one task list whose blocks
        /// come from a radius-1 pool in sorted order, as Apply's
        /// displacements do (a few at random, or the whole box with
        /// random holes, so that leading passes fan), with term counts
        /// about the chunk length and ranks exact, uniformly reduced or
        /// reduced per block.
        #[test]
        fn stacked_group_equals_one_source_calls_bit_for_bit(
            n_src in 1usize..9,
            d in 2usize..4,
            wide in any::<bool>(),
            n_tasks in 1usize..9,
            boxed in any::<bool>(),
            terms_at in 0usize..4,
            kr_mode in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = Xorshift::new(seed);
            let k = if wide { 10 } else { 4 };
            let shape = Shape::cube(d, k);
            let chunk = (4096 / shape.len()).max(1);
            let n_terms = [1, chunk, chunk + 1, 1 + rng.below(2 * chunk + 1)][terms_at].min(60);
            let slab_len = shape.len() / k;
            let sources: Vec<Tensor> = (0..n_src)
                .map(|_| {
                    let mut t = Tensor::from_fn(shape, |_| rng.value(23));
                    let first = (rng.below(2) == 0).then(|| rng.below(k));
                    let last = (rng.below(2) == 0).then(|| rng.below(k));
                    for (ix, x) in t.as_mut_slice().iter_mut().enumerate() {
                        if first == Some(ix / slab_len) || last == Some(ix % k) {
                            *x = if ix % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                    t
                })
                .collect();
            // blocks[mu][p][δ], with the rows a rank-reduced pass keeps.
            let blocks: Vec<Vec<Vec<(Tensor, usize)>>> = (0..n_terms)
                .map(|_| {
                    (0..d)
                        .map(|_| {
                            (0..3)
                                .map(|_| {
                                    let h = Tensor::from_fn(Shape::matrix(k, k), |_| rng.value(23));
                                    (h, 1 + rng.below(k))
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let coeffs: Vec<f64> = (0..n_terms).map(|_| rng.value(usize::MAX) * 4.0).collect();
            let uniform: Vec<usize> = (0..d).map(|_| 1 + rng.below(k)).collect();
            // `n_tasks` random displacements, or the whole radius-1 box
            // with random holes (about one in four), whose siblings fan.
            let mut picks: Vec<Vec<usize>> = if boxed {
                let digits = |ix: usize| {
                    (0..d).map(|p| ix / 3usize.pow((d - 1 - p) as u32) % 3).collect()
                };
                let kept: Vec<Vec<usize>> = (0..3usize.pow(d as u32))
                    .filter(|_| rng.below(4) != 0)
                    .map(digits)
                    .collect();
                if kept.is_empty() { vec![vec![1; d]] } else { kept }
            } else {
                (0..n_tasks).map(|_| (0..d).map(|_| rng.below(3)).collect()).collect()
            };
            picks.sort();
            let n_tasks = picks.len();
            let krs: Vec<Vec<Vec<usize>>> = picks
                .iter()
                .map(|pick| {
                    (0..n_terms)
                        .map(|mu| (0..d).map(|p| blocks[mu][p][pick[p]].1).collect())
                        .collect()
                })
                .collect();
            let (blocks, picks) = (&blocks, &picks);
            let term = |task: usize, mu: usize| Term {
                coeff: coeffs[mu],
                hs: (0..d).map(move |p| &blocks[mu][p][picks[task][p]].0),
                krs: match kr_mode {
                    0 => None,
                    1 => Some(&uniform[..]),
                    _ => Some(&krs[task][mu][..]),
                },
            };
            let bases: Vec<Tensor> = (0..n_src * n_tasks)
                .map(|_| Tensor::from_fn(shape, |_| rng.value(usize::MAX)))
                .collect();

            let sources: Vec<&Tensor> = sources.iter().collect();
            let mut scratch = TransformScratch::new();
            let mut stacked = bases.clone();
            transform_sum_accumulate_group(&sources, n_terms, term, &mut scratch, &mut stacked);

            for (out, base) in bases.iter().enumerate() {
                let (source, task) = (out / n_tasks, out % n_tasks);
                let mut single = base.clone();
                let term = |mu| term(task, mu);
                transform_sum_accumulate(sources[source], n_terms, term, &mut scratch, &mut single);
                prop_assert!(
                    same_bits(stacked[out].as_slice(), single.as_slice()),
                    "source {} of {}, task {} of {} diverged from its one-task call: d {} k {} terms {} kr_mode {}",
                    source, n_src, task, n_tasks, d, k, n_terms, kr_mode
                );
            }
        }
    }

    /// A rank-3 cube source, `n` blocks per dimension and a base output.
    fn cube_case(k: usize, n: usize) -> (Tensor, Vec<Tensor>, Tensor) {
        let mut rng = Xorshift::new(k as u64 * 31 + n as u64);
        let s = Tensor::from_fn(Shape::cube(3, k), |_| rng.value(usize::MAX));
        let hs = (0..n)
            .map(|_| Tensor::from_fn(Shape::matrix(k, k), |_| rng.value(usize::MAX)))
            .collect();
        let base = Tensor::from_fn(Shape::cube(3, k), |_| rng.value(usize::MAX));
        (s, hs, base)
    }

    #[test]
    fn a_group_of_no_tasks_does_nothing() {
        let (s, _, _) = cube_case(4, 0);
        let mut scratch = TransformScratch::new();
        let term = |_, _| -> Term<'_, std::iter::Empty<&Tensor>> {
            panic!("no task, no term");
        };
        transform_sum_accumulate_group(&[&s], 5, term, &mut scratch, &mut []);
    }

    #[test]
    fn a_group_of_one_task_is_the_one_task_call() {
        let (s, hs, base) = cube_case(5, 6);
        let term = |_, mu: usize| Term {
            coeff: 0.5 + mu as f64,
            hs: hs[mu * 3..][..3].iter(),
            krs: None,
        };
        let mut scratch = TransformScratch::new();
        let mut grouped = [base.clone()];
        transform_sum_accumulate_group(&[&s], 2, term, &mut scratch, &mut grouped);
        let mut reference = base;
        for mu in 0..2 {
            let term = TaskTerm {
                coeff: 0.5 + mu as f64,
                hs: hs[mu * 3..][..3].to_vec(),
                krs: None,
            };
            reference_term(&s, &term, reference.as_mut_slice());
        }
        assert!(same_bits(grouped[0].as_slice(), reference.as_slice()));
    }

    #[test]
    #[should_panic(expected = "operator 1 rows must match tensor dim 1")]
    fn a_shape_mismatch_in_the_second_task_panics() {
        let (s, hs, base) = cube_case(4, 3);
        let wrong = Tensor::zeros(Shape::matrix(3, 4));
        let term = |task: usize, _| Term {
            coeff: 1.0,
            hs: [&hs[0], if task == 1 { &wrong } else { &hs[1] }, &hs[2]],
            krs: None,
        };
        let mut outs = [base.clone(), base];
        transform_sum_accumulate_group(&[&s], 1, term, &mut TransformScratch::new(), &mut outs);
    }

    /// Blocks are told apart by address, never by value: two tensors
    /// with equal contents are two blocks, and a task using the copies
    /// still gets its own one-task result. (That the copies share no
    /// pass is a count: `crates/core/tests/shared_pass_count.rs`.)
    #[test]
    fn equal_contents_in_distinct_tensors_are_distinct_blocks() {
        let (s, hs, base) = cube_case(4, 3);
        let copies = hs.clone();
        let term = |task: usize, _| Term {
            coeff: -1.25,
            hs: if task == 0 { hs.iter() } else { copies.iter() },
            krs: None,
        };
        let mut scratch = TransformScratch::new();
        let mut grouped = [base.clone(), base.clone()];
        transform_sum_accumulate_group(&[&s], 1, term, &mut scratch, &mut grouped);
        let mut single = base;
        transform_sum_accumulate(&s, 1, |mu| term(0, mu), &mut scratch, &mut single);
        assert!(same_bits(grouped[0].as_slice(), single.as_slice()));
        assert!(same_bits(grouped[1].as_slice(), single.as_slice()));
    }
}
