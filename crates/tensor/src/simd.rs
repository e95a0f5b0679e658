//! Explicit AVX vectorization of the `mtxmq` span kernel (x86_64 only,
//! chosen at runtime by `is_x86_feature_detected!("avx")`).
//!
//! The kernel is **row-blocked**: `R` consecutive rows of `C` live in
//! vector registers across the whole `k` loop. Per `k` it loads row `k`
//! of `B` once and reads the `R` contiguous coefficients
//! `a[k·dimi + i .. i + R]`, so `B` traffic drops by `R×` against a
//! row-at-a-time loop and the `R` independent add chains hide the add
//! latency that a single row's chain exposes. `R` is picked so the
//! accumulators, one row of `B` and a broadcast fit the 16 `ymm`
//! registers: 8 / 4 / 4 / 2 rows for 1 / 2 / 3 / ≥ 4 vectors per row;
//! the rows left over after the last full block run with `R = 1`.
//!
//! Per element the kernel performs exactly the scalar loop's
//! `c[j] += a[k*dimi+i] * b[k*dimj+j]` — one IEEE multiply followed by
//! one IEEE add, `k` ascending, with the same skip of `a(k,i) == 0.0`
//! rows. FMA is deliberately **not** used: a fused multiply-add rounds
//! once where the scalar loop rounds twice, and the kernel-table
//! contract is that every candidate is bit-identical to the scalar
//! reference. Vectorizing across `j` and blocking across `i` reorder no
//! element's accumulation chain, so the results match the scalar
//! kernels bit for bit — including signed zeros, infinities and NaNs (a
//! zero `a(k,i)` is skipped before any lane of its row touches `b`,
//! same as the scalar loops).
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (AVX intrinsics and the raw-pointer loads/stores behind them); the
//! crate root denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
mod imp {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_setzero_pd,
        _mm_storeu_pd,
    };
    use std::sync::OnceLock;

    /// Whether the host can run the AVX kernel (cached after first call).
    pub(crate) fn available() -> bool {
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }

    /// One block of `R` rows (`i .. i + R`) of a pass of width
    /// `W = 4·V (+ 2 if TAIL)`: the block's `R × V` 256-bit accumulators
    /// (plus `R` 128-bit tails) stay in registers for the whole `k`
    /// loop; `c` points at row `i`'s first element.
    ///
    /// # Safety
    /// AVX must be available; `a` must cover `kr * dimi` elements with
    /// `i + R <= dimi`, `b` must cover `kr * W` and `c` must cover
    /// `R * W`.
    #[target_feature(enable = "avx")]
    unsafe fn block<const V: usize, const TAIL: bool, const R: usize>(
        dimi: usize,
        i: usize,
        kr: usize,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let w = 4 * V + if TAIL { 2 } else { 0 };
        // SAFETY (every load/store below): offsets stay inside the
        // extents the caller guarantees — row `r < R` of `c` spans
        // `r*w .. (r+1)*w`, row `k < kr` of `b` spans `k*w .. (k+1)*w`,
        // and `a[k*dimi + i + r]` has `k < kr`, `i + r < dimi`.
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        let mut tac = [_mm_setzero_pd(); R];
        for r in 0..R {
            for v in 0..V {
                acc[r][v] = unsafe { _mm256_loadu_pd(c.add(r * w + 4 * v)) };
            }
            if TAIL {
                tac[r] = unsafe { _mm_loadu_pd(c.add(r * w + 4 * V)) };
            }
        }
        let mut ap = unsafe { a.add(i) };
        let mut bp = b;
        for _ in 0..kr {
            // Row k of B: loaded once, shared by the block's R rows.
            let mut vb = [_mm256_setzero_pd(); V];
            for v in 0..V {
                vb[v] = unsafe { _mm256_loadu_pd(bp.add(4 * v)) };
            }
            let tb = if TAIL {
                unsafe { _mm_loadu_pd(bp.add(4 * V)) }
            } else {
                _mm_setzero_pd()
            };
            for r in 0..R {
                let aki = unsafe { *ap.add(r) };
                // Same sparsity skip as the scalar loops: a zero
                // coefficient contributes nothing and must not turn a
                // NaN/∞ in b into a NaN in c.
                if aki != 0.0 {
                    let va = _mm256_set1_pd(aki);
                    for v in 0..V {
                        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(va, vb[v]));
                    }
                    if TAIL {
                        tac[r] = _mm_add_pd(tac[r], _mm_mul_pd(_mm_set1_pd(aki), tb));
                    }
                }
            }
            ap = unsafe { ap.add(dimi) };
            bp = unsafe { bp.add(w) };
        }
        for r in 0..R {
            for v in 0..V {
                unsafe { _mm256_storeu_pd(c.add(r * w + 4 * v), acc[r][v]) };
            }
            if TAIL {
                unsafe { _mm_storeu_pd(c.add(r * w + 4 * V), tac[r]) };
            }
        }
    }

    /// Rows `i0..i1` of the pass in blocks of `R`, the remainder one row
    /// at a time.
    ///
    /// # Safety
    /// AVX must be available; `a` must cover `kr * dimi` elements with
    /// `i1 <= dimi`, `b` must cover `kr * W` and `c` must cover
    /// `(i1 - i0) * W`, for `W = 4·V (+ 2 if TAIL)`.
    #[target_feature(enable = "avx")]
    unsafe fn span_body<const V: usize, const TAIL: bool, const R: usize>(
        dimi: usize,
        i0: usize,
        i1: usize,
        kr: usize,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let w = 4 * V + if TAIL { 2 } else { 0 };
        let mut i = i0;
        // SAFETY: each block covers rows `i .. i + R <= i1 <= dimi` and
        // its `c` pointer is offset by the rows already done, so the
        // caller's extents cover everything `block` touches.
        while i + R <= i1 {
            unsafe { block::<V, TAIL, R>(dimi, i, kr, a, b, c.add((i - i0) * w)) };
            i += R;
        }
        while i < i1 {
            unsafe { block::<V, TAIL, 1>(dimi, i, kr, a, b, c.add((i - i0) * w)) };
            i += 1;
        }
    }

    /// Safe entry: accumulate rows `i0..i1` of a width-`dimj` pass into
    /// `c` (which covers exactly those rows). Returns `false` — having
    /// touched nothing — if AVX is unavailable or `dimj` has no
    /// specialization, so the caller can fall back to a scalar kernel.
    ///
    /// # Panics
    /// Panics if the slices do not cover the stated span.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn span(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) -> bool {
        if !available() {
            return false;
        }
        let covers = |len: usize, rows: usize, width: usize| {
            rows.checked_mul(width).is_some_and(|n| len >= n)
        };
        assert!(i0 <= i1 && i1 <= dimi, "row span out of range");
        assert!(covers(a.len(), kr, dimi), "A must cover (kr, dimi)");
        assert!(covers(b.len(), kr, dimj), "B must cover (kr, dimj)");
        assert!(covers(c.len(), i1 - i0, dimj), "C must cover the span rows");
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: AVX was detected above, the asserts above establish
        // the extents `span_body` requires, and each arm's `4·V (+ 2)`
        // equals the `dimj` it serves.
        unsafe {
            match dimj {
                4 => span_body::<1, false, 8>(dimi, i0, i1, kr, a, b, c),
                6 => span_body::<1, true, 4>(dimi, i0, i1, kr, a, b, c),
                8 => span_body::<2, false, 4>(dimi, i0, i1, kr, a, b, c),
                10 => span_body::<2, true, 4>(dimi, i0, i1, kr, a, b, c),
                14 => span_body::<3, true, 2>(dimi, i0, i1, kr, a, b, c),
                20 => span_body::<5, false, 2>(dimi, i0, i1, kr, a, b, c),
                _ => return false,
            }
        }
        true
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    /// No SIMD kernel on this architecture.
    pub(crate) fn available() -> bool {
        false
    }

    /// Always `false`: the caller falls back to a scalar kernel.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn span(
        _dimi: usize,
        _i0: usize,
        _i1: usize,
        _dimj: usize,
        _kr: usize,
        _a: &[f64],
        _b: &[f64],
        _c: &mut [f64],
    ) -> bool {
        false
    }
}

pub(crate) use imp::{available, span};
