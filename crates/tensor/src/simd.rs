//! Explicit AVX and AVX-512 vectorization of the `mtxmq` span kernel
//! (x86_64 only, each instruction set chosen at runtime by
//! `is_x86_feature_detected!`).
//!
//! The kernel is **row-blocked**: `R` consecutive rows of `C` live in
//! vector registers across the whole `k` loop. Per `k` it loads row `k`
//! of `B` once and reads the `R` contiguous coefficients
//! `a[k·dimi + i .. i + R]`, so `B` traffic drops by `R×` against a
//! row-at-a-time loop and the `R` independent add chains hide the add
//! latency that a single row's chain exposes. With an even `R` one vector
//! compare tells whether any of the block's `R` coefficients at this `k`
//! is zero; when none is, the rows run with no per-row branch, otherwise
//! each row is tested on its own. The rows left over after the last full
//! block run with `R = 1`.
//!
//! **AVX** (16 `ymm` registers) serves every single-output span. A row of
//! `C` takes `n` registers — its 256-bit vectors, plus one for a 128-bit
//! tail when the width is not a multiple of 4 — and `R` is picked so the
//! `R·n` accumulators, one row of `B`, the broadcast and the zero compare
//! fit: `R·n + n + 2 ≤ 16`, which gives 8 / 4 / 2 rows for 1 / 2 / 3–4
//! registers a row (width 20, five registers, runs 2 rows one over).
//! Width 10 is two vectors and a tail, so 2 rows: at 4 its 12
//! accumulators, 3-register `B` row, broadcast and compare spill.
//!
//! A **fan** body serves `N` passes that share the operand `A` (the
//! stacked last-pass operand of `N` tasks whose stacks are identical,
//! each with its own `B` panel and its own `C`): per `k` it loads the
//! `N` rows of `B` once and broadcasts each coefficient once for all `N`
//! accumulators, so one pass over `A` feeds every output.
//!
//! * The **AVX fan** keeps the outputs apart and has to fit
//!   `R·N·n + N·n + 1 ≤ 16` registers, which only width 4 does usefully:
//!   `N = 2, 3` at `R = 4` (`N = 3`: 12 accumulators, 3 rows of `B` and a
//!   broadcast). It keeps the per-row zero test: a vector compare's extra
//!   register would spill at `N = 3`.
//! * The **AVX-512 fan** (`avx512f`, 32 `zmm` registers) serves width 10,
//!   `N = 2, 3`. It **packs** the `N` outputs' rows side by side as `N·10`
//!   contiguous lanes of `V = ⌈N·10 / 8⌉` `zmm`: 20 of 24 lanes do work
//!   at `N = 2`, 30 of 32 at `N = 3`, so a row of all `N` outputs is `V`
//!   registers where kept apart it would be `3·N` `ymm`. Once per span
//!   the `N` panel rows of each `k` are packed into a `(kr, 8·V)` stack
//!   buffer whose pad lanes are zero, [`PACK_ROWS`] contraction rows at a
//!   time (a longer `kr` runs in `k` blocks, `C` going through memory
//!   between them — an exact round trip); at block entry and exit each
//!   row of `C` goes through an `8·V`-lane tile. The pad lanes only ever
//!   accumulate products with zero and are never stored. The budget is
//!   `R·V + V + 2 ≤ 32`: `R = 8` at `N = 2` (29 registers), `R = 4` at
//!   `N = 3` (22; `R = 6` fits as well but measured slower).
//!
//! A single width-10 span stays on AVX: a one-`zmm`-one-`xmm` row body
//! measured about 7 % slower than the AVX body's 2 rows on a Xeon
//! (Sapphire Rapids) host — only the packed fan fills the wide lanes.
//!
//! Per element the kernel performs exactly the scalar loop's
//! `c[j] += a[k*dimi+i] * b[k*dimj+j]` — one IEEE multiply followed by
//! one IEEE add, `k` ascending, with the same skip of `a(k,i) == 0.0`
//! rows. FMA is deliberately **not** used: a fused multiply-add rounds
//! once where the scalar loop rounds twice, and the kernel-table
//! contract is that every candidate is bit-identical to the scalar
//! reference. Vectorizing across `j`, blocking across `i`, packing and
//! fanning across outputs and cutting `k` into blocks reorder no
//! element's accumulation chain, so the results match the scalar kernels
//! bit for bit — including signed zeros, infinities and NaNs (a zero
//! `a(k,i)` is skipped before any lane of its row touches `b`, same as
//! the scalar loops; the vector compare is ordered, so a NaN coefficient
//! is not zero there either).
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (AVX / AVX-512 intrinsics and the raw-pointer loads/stores behind
//! them); the crate root denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

/// Contraction rows the AVX-512 fan packs at a time (10 KiB of stack at
/// `N = 3`); a longer `kr` runs in blocks of this many. A `d = 3`,
/// `k = 10` chunk of terms contracts 40 rows, so the Apply's final passes
/// pack in one block.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) const PACK_ROWS: usize = 40;

/// One instruction set's span entry points, for tests that run every
/// body the host has (the dispatching [`span`] and [`fan_span`] pick one
/// instruction set per width).
#[cfg(test)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Isa {
    pub(crate) name: &'static str,
    /// Whether the host can run it.
    pub(crate) present: fn() -> bool,
    /// [`span`] through this instruction set's bodies alone, if it has
    /// single-output bodies.
    #[allow(clippy::type_complexity)]
    pub(crate) span:
        Option<fn(usize, usize, usize, usize, usize, &[f64], &[f64], &mut [f64]) -> bool>,
    /// [`fan_span`] through this instruction set's bodies alone.
    #[allow(clippy::type_complexity)]
    pub(crate) fan_span:
        fn(usize, usize, usize, usize, usize, &[f64], &[&[f64]], &mut [&mut [f64]]) -> bool,
    /// The width its fan body serves (for `N = 2, 3`).
    pub(crate) fan_width: usize,
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::PACK_ROWS;
    use core::arch::x86_64::{
        __m128d, __m256d, __m512d, _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd,
        _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd, _mm_add_pd, _mm_cmpeq_pd, _mm_loadu_pd, _mm_movemask_pd, _mm_mul_pd,
        _mm_set1_pd, _mm_setzero_pd, _mm_storeu_pd, _CMP_EQ_OQ,
    };
    use std::ptr::copy_nonoverlapping;
    use std::sync::OnceLock;

    /// Whether the host can run the AVX kernel (cached after first call).
    pub(crate) fn available() -> bool {
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }

    /// Whether the host can run the AVX-512 fan (cached after first
    /// call).
    fn avx512_available() -> bool {
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }

    /// One row's step `c += aki · b`: one IEEE multiply, then one IEEE
    /// add, on every lane of the row's `V` vectors (and its tail).
    #[inline]
    #[target_feature(enable = "avx")]
    fn axpy<const V: usize, const TAIL: bool>(
        acc: &mut [__m256d; V],
        tac: &mut __m128d,
        aki: f64,
        vb: &[__m256d; V],
        tb: __m128d,
    ) {
        let va = _mm256_set1_pd(aki);
        for v in 0..V {
            acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(va, vb[v]));
        }
        if TAIL {
            *tac = _mm_add_pd(*tac, _mm_mul_pd(_mm_set1_pd(aki), tb));
        }
    }

    /// [`axpy`] on a row of `V` 512-bit vectors.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn axpy512<const V: usize>(acc: &mut [__m512d; V], aki: f64, vb: &[__m512d; V]) {
        let va = _mm512_set1_pd(aki);
        for v in 0..V {
            acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(va, vb[v]));
        }
    }

    /// Row `k` of a width-`4·V (+ 2 if TAIL)` `B`: its `V` vectors and
    /// its tail (zero without one).
    ///
    /// # Safety
    /// AVX must be available and `bp` must cover one row.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn load_row<const V: usize, const TAIL: bool>(
        bp: *const f64,
    ) -> ([__m256d; V], __m128d) {
        // SAFETY (both loads): the row's `4·V (+ 2)` elements are the
        // ones the caller guarantees `bp` covers.
        let mut vb = [_mm256_setzero_pd(); V];
        for v in 0..V {
            vb[v] = unsafe { _mm256_loadu_pd(bp.add(4 * v)) };
        }
        let tb = if TAIL {
            unsafe { _mm_loadu_pd(bp.add(4 * V)) }
        } else {
            _mm_setzero_pd()
        };
        (vb, tb)
    }

    /// Whether any of the `R` (even) coefficients at `ap` is an exact
    /// zero of either sign, four and then two lanes to a compare.
    ///
    /// # Safety
    /// AVX must be available, `R` must be even and `ap` must cover `R`
    /// elements.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn any_zero<const R: usize>(ap: *const f64) -> bool {
        // SAFETY (both loads): lanes `r .. r + 4 <= R` and, `R` being
        // even, `r .. r + 2 == R`, which the caller guarantees `ap`
        // covers.
        let mut mask = 0;
        let mut r = 0;
        while r + 4 <= R {
            let v = unsafe { _mm256_loadu_pd(ap.add(r)) };
            mask |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(v, _mm256_setzero_pd()));
            r += 4;
        }
        if r < R {
            let v = unsafe { _mm_loadu_pd(ap.add(r)) };
            mask |= _mm_movemask_pd(_mm_cmpeq_pd(v, _mm_setzero_pd()));
        }
        mask != 0
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
            let (vb, tb) = unsafe { load_row::<V, TAIL>(bp) };
            if R.is_multiple_of(2) && !unsafe { any_zero::<R>(ap) } {
                // No coefficient of the block is zero: no row skips.
                for r in 0..R {
                    axpy::<V, TAIL>(&mut acc[r], &mut tac[r], unsafe { *ap.add(r) }, &vb, tb);
                }
            } else {
                for r in 0..R {
                    let aki = unsafe { *ap.add(r) };
                    // Same sparsity skip as the scalar loops: a zero
                    // coefficient contributes nothing and must not turn
                    // a NaN/∞ in b into a NaN in c.
                    if aki != 0.0 {
                        axpy::<V, TAIL>(&mut acc[r], &mut tac[r], aki, &vb, tb);
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

    /// One block of `R` rows of `N` passes over the same `a`: pass `n`
    /// reads `b[n]` and accumulates into `c[n]` (each pointing at the
    /// block's first row). Per `k` the `N` rows of `B` are loaded once
    /// and each coefficient is read and tested once for all `N` outputs.
    ///
    /// # Safety
    /// As [`block`], for every `b[n]` and `c[n]`.
    #[target_feature(enable = "avx")]
    unsafe fn fan_block<const V: usize, const TAIL: bool, const R: usize, const N: usize>(
        dimi: usize,
        i: usize,
        kr: usize,
        a: *const f64,
        b: [*const f64; N],
        c: [*mut f64; N],
    ) {
        let w = 4 * V + if TAIL { 2 } else { 0 };
        // SAFETY (every load/store below): as in `block`, per output.
        let mut acc = [[[_mm256_setzero_pd(); V]; R]; N];
        let mut tac = [[_mm_setzero_pd(); R]; N];
        for n in 0..N {
            for r in 0..R {
                for v in 0..V {
                    acc[n][r][v] = unsafe { _mm256_loadu_pd(c[n].add(r * w + 4 * v)) };
                }
                if TAIL {
                    tac[n][r] = unsafe { _mm_loadu_pd(c[n].add(r * w + 4 * V)) };
                }
            }
        }
        let mut ap = unsafe { a.add(i) };
        let mut vb = [[_mm256_setzero_pd(); V]; N];
        let mut tb = [_mm_setzero_pd(); N];
        for k in 0..kr {
            // Row k of each output's B: loaded once, shared by R rows.
            for n in 0..N {
                (vb[n], tb[n]) = unsafe { load_row::<V, TAIL>(b[n].add(k * w)) };
            }
            for r in 0..R {
                let aki = unsafe { *ap.add(r) };
                if aki != 0.0 {
                    for n in 0..N {
                        axpy::<V, TAIL>(&mut acc[n][r], &mut tac[n][r], aki, &vb[n], tb[n]);
                    }
                }
            }
            ap = unsafe { ap.add(dimi) };
        }
        for n in 0..N {
            for r in 0..R {
                for v in 0..V {
                    unsafe { _mm256_storeu_pd(c[n].add(r * w + 4 * v), acc[n][r][v]) };
                }
                if TAIL {
                    unsafe { _mm_storeu_pd(c[n].add(r * w + 4 * V), tac[n][r]) };
                }
            }
        }
    }

    /// The width the AVX-512 fan serves.
    const FAN512_WIDTH: usize = 10;

    /// One block of `R` rows of `N` width-10 passes over the same `a`,
    /// packed: the block's rows of every `c[n]` are copied side by side
    /// into a tile of `8·V` lanes a row (pad lanes zero), accumulated as
    /// `R × V` 512-bit registers against the packed `B` at `pack` (row
    /// `k` is lanes `k·8·V ..`), and copied back; pad lanes are never
    /// stored.
    ///
    /// # Safety
    /// AVX-512F must be available and `N·10 <= 8·V`; `a` must cover
    /// `kr * dimi` elements with `i + R <= dimi`, `pack` must cover `kr`
    /// rows of `8·V` and every `c[n]` must cover `R * 10` elements.
    #[target_feature(enable = "avx512f")]
    unsafe fn fan_block512<const V: usize, const R: usize, const N: usize>(
        dimi: usize,
        i: usize,
        kr: usize,
        a: *const f64,
        pack: *const f64,
        c: [*mut f64; N],
    ) {
        const W: usize = FAN512_WIDTH;
        let lanes = 8 * V;
        let mut tile = [[[0.0f64; 8]; V]; R];
        let tp = tile.as_mut_ptr().cast::<f64>();
        // SAFETY (every copy, load and store below): row `r < R` of
        // `c[n]` is the caller's `r*10 .. (r+1)*10`, and its lanes in the
        // tile, `r*lanes + n*10 .. + 10` with `N·10 <= lanes`, lie inside
        // the tile's `R` rows; pack row `k < kr` spans `k*lanes ..
        // (k+1)*lanes` and `a[k*dimi + i + r]` has `k < kr`, `i + r <
        // dimi`.
        for r in 0..R {
            for n in 0..N {
                unsafe { copy_nonoverlapping(c[n].add(r * W), tp.add(r * lanes + n * W), W) };
            }
        }
        let mut acc = [[_mm512_setzero_pd(); V]; R];
        for r in 0..R {
            for v in 0..V {
                acc[r][v] = unsafe { _mm512_loadu_pd(tp.add(r * lanes + 8 * v)) };
            }
        }
        let mut ap = unsafe { a.add(i) };
        let mut bp = pack;
        for _ in 0..kr {
            // Packed row k of every output's B: loaded once, shared by
            // the block's R rows.
            let mut vb = [_mm512_setzero_pd(); V];
            for v in 0..V {
                vb[v] = unsafe { _mm512_loadu_pd(bp.add(8 * v)) };
            }
            if R.is_multiple_of(2) && !unsafe { any_zero::<R>(ap) } {
                for r in 0..R {
                    axpy512::<V>(&mut acc[r], unsafe { *ap.add(r) }, &vb);
                }
            } else {
                for r in 0..R {
                    let aki = unsafe { *ap.add(r) };
                    if aki != 0.0 {
                        axpy512::<V>(&mut acc[r], aki, &vb);
                    }
                }
            }
            ap = unsafe { ap.add(dimi) };
            bp = unsafe { bp.add(lanes) };
        }
        for r in 0..R {
            for v in 0..V {
                unsafe { _mm512_storeu_pd(tp.add(r * lanes + 8 * v), acc[r][v]) };
            }
            for n in 0..N {
                unsafe { copy_nonoverlapping(tp.add(r * lanes + n * W), c[n].add(r * W), W) };
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

    /// [`span_body`] for `N` outputs sharing `a`, through [`fan_block`].
    ///
    /// # Safety
    /// As [`span_body`], for every `b[n]` and `c[n]`.
    #[target_feature(enable = "avx")]
    unsafe fn fan_body<const V: usize, const TAIL: bool, const R: usize, const N: usize>(
        dimi: usize,
        i0: usize,
        i1: usize,
        kr: usize,
        a: *const f64,
        b: [*const f64; N],
        c: [*mut f64; N],
    ) {
        let w = 4 * V + if TAIL { 2 } else { 0 };
        // SAFETY (the offsets and both block calls): as in `span_body`,
        // output by output — row `i < i1` of every `c[n]` is inside the
        // `(i1 - i0) * W` elements the caller guarantees.
        let at = |i: usize| c.map(|cn| unsafe { cn.add((i - i0) * w) });
        let mut i = i0;
        while i + R <= i1 {
            unsafe { fan_block::<V, TAIL, R, N>(dimi, i, kr, a, b, at(i)) };
            i += R;
        }
        while i < i1 {
            unsafe { fan_block::<V, TAIL, 1, N>(dimi, i, kr, a, b, at(i)) };
            i += 1;
        }
    }

    /// Rows `i0..i1` of `N` width-10 passes sharing `a`, through
    /// [`fan_block512`]: for each block of up to [`PACK_ROWS`]
    /// contraction rows, the `N` panels' rows are packed side by side
    /// into a stack buffer, then every row block of the span runs over
    /// them.
    ///
    /// # Safety
    /// AVX-512F must be available and `N·10 <= 8·V`; `a` must cover
    /// `kr * dimi` elements with `i1 <= dimi`, every `b[n]` must cover
    /// `kr * 10` and every `c[n]` `(i1 - i0) * 10`.
    #[target_feature(enable = "avx512f")]
    unsafe fn fan_body512<const V: usize, const R: usize, const N: usize>(
        dimi: usize,
        i0: usize,
        i1: usize,
        kr: usize,
        a: *const f64,
        b: [*const f64; N],
        c: [*mut f64; N],
    ) {
        const W: usize = FAN512_WIDTH;
        let lanes = 8 * V;
        let mut pack = [[[0.0f64; 8]; V]; PACK_ROWS];
        let pp = pack.as_mut_ptr().cast::<f64>();
        // SAFETY (the offsets, every copy and both block calls): rows
        // `k0 + k < kr` of every `b[n]`, rows `i < i1` of every `c[n]`
        // and rows `k0 ..` of `a` are inside the extents the caller
        // guarantees; pack row `k < kb <= PACK_ROWS` has lanes
        // `n*10 .. + 10 <= 8·V`, and its pad lanes stay zero.
        let at = |i: usize| c.map(|cn| unsafe { cn.add((i - i0) * W) });
        let mut k0 = 0;
        while k0 < kr {
            let kb = (kr - k0).min(PACK_ROWS);
            for k in 0..kb {
                for n in 0..N {
                    let src = unsafe { b[n].add((k0 + k) * W) };
                    unsafe { copy_nonoverlapping(src, pp.add(k * lanes + n * W), W) };
                }
            }
            let ak = unsafe { a.add(k0 * dimi) };
            let mut i = i0;
            while i + R <= i1 {
                unsafe { fan_block512::<V, R, N>(dimi, i, kb, ak, pp, at(i)) };
                i += R;
            }
            while i < i1 {
                unsafe { fan_block512::<V, 1, N>(dimi, i, kb, ak, pp, at(i)) };
                i += 1;
            }
            k0 += kb;
        }
    }

    /// Asserts that `a`, `b` and `c` cover rows `i0..i1` of a
    /// `(kr, dimi) × (kr, dimj)` pass.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    fn check(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        b: &[f64],
        c: &[f64],
    ) {
        let covers = |len: usize, rows: usize, width: usize| {
            rows.checked_mul(width).is_some_and(|n| len >= n)
        };
        assert!(i0 <= i1 && i1 <= dimi, "row span out of range");
        assert!(covers(a.len(), kr, dimi), "A must cover (kr, dimi)");
        assert!(covers(b.len(), kr, dimj), "B must cover (kr, dimj)");
        assert!(covers(c.len(), i1 - i0, dimj), "C must cover the span rows");
    }

    /// [`check`] for every output of a fan.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    fn check_fan(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        bs: &[&[f64]],
        cs: &[&mut [f64]],
    ) {
        assert_eq!(bs.len(), cs.len(), "one B per output");
        for (b, c) in bs.iter().zip(cs) {
            check(dimi, i0, i1, dimj, kr, a, b, c);
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
        check(dimi, i0, i1, dimj, kr, a, b, c);
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: AVX was detected above, `check` establishes the
        // extents `span_body` requires, and each arm's `4·V (+ 2)`
        // equals the `dimj` it serves.
        unsafe {
            match dimj {
                4 => span_body::<1, false, 8>(dimi, i0, i1, kr, a, b, c),
                6 => span_body::<1, true, 4>(dimi, i0, i1, kr, a, b, c),
                8 => span_body::<2, false, 4>(dimi, i0, i1, kr, a, b, c),
                10 => span_body::<2, true, 2>(dimi, i0, i1, kr, a, b, c),
                14 => span_body::<3, true, 2>(dimi, i0, i1, kr, a, b, c),
                20 => span_body::<5, false, 2>(dimi, i0, i1, kr, a, b, c),
                _ => return false,
            }
        }
        true
    }

    /// Whether this host has an `N`-output fan body (`N = 2, 3`) at width
    /// `dimj`: the AVX fan at width 4, the AVX-512 fan at width 10. The
    /// one test of where [`fan_span`] fuses.
    pub(crate) fn has_fan(dimj: usize) -> bool {
        match dimj {
            4 => available(),
            FAN512_WIDTH => avx512_available(),
            _ => false,
        }
    }

    /// Safe entry for a fan: rows `i0..i1` of `bs.len()` width-`dimj`
    /// passes over the one operand `a`, pass `n` reading `bs[n]` and
    /// accumulating into `cs[n]`, through the AVX-512 fan (width 10) or
    /// the AVX fan (width 4). Returns `false` — having touched nothing —
    /// unless [`has_fan`] at `dimj` and `N = 2, 3`.
    ///
    /// # Panics
    /// Panics if `bs` and `cs` differ in length or a slice does not
    /// cover the stated span.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn fan_span(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        bs: &[&[f64]],
        cs: &mut [&mut [f64]],
    ) -> bool {
        if !has_fan(dimj) {
            return false;
        }
        if dimj == 4 {
            fan_span_avx(dimi, i0, i1, dimj, kr, a, bs, cs)
        } else {
            fan_span_avx512(dimi, i0, i1, dimj, kr, a, bs, cs)
        }
    }

    /// [`fan_span`] through the AVX fan alone (width 4).
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    fn fan_span_avx(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        bs: &[&[f64]],
        cs: &mut [&mut [f64]],
    ) -> bool {
        if dimj != 4 || !matches!(cs.len(), 2 | 3) || !available() {
            return false;
        }
        check_fan(dimi, i0, i1, dimj, kr, a, bs, cs);
        let a = a.as_ptr();
        // SAFETY: AVX was detected above, `check_fan` establishes every
        // output's extents, and `4·V` is the width 4 both arms serve.
        unsafe {
            match cs.len() {
                2 => fan_body::<1, false, 4, 2>(
                    dimi,
                    i0,
                    i1,
                    kr,
                    a,
                    std::array::from_fn(|n| bs[n].as_ptr()),
                    std::array::from_fn(|n| cs[n].as_mut_ptr()),
                ),
                _ => fan_body::<1, false, 4, 3>(
                    dimi,
                    i0,
                    i1,
                    kr,
                    a,
                    std::array::from_fn(|n| bs[n].as_ptr()),
                    std::array::from_fn(|n| cs[n].as_mut_ptr()),
                ),
            }
        }
        true
    }

    /// [`fan_span`] through the AVX-512 packed fan alone (width 10).
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    fn fan_span_avx512(
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        bs: &[&[f64]],
        cs: &mut [&mut [f64]],
    ) -> bool {
        if dimj != FAN512_WIDTH || !matches!(cs.len(), 2 | 3) || !avx512_available() {
            return false;
        }
        check_fan(dimi, i0, i1, dimj, kr, a, bs, cs);
        let a = a.as_ptr();
        // SAFETY: AVX-512F was detected above, `check_fan` establishes
        // every output's extents, and each arm's `N·10` lanes fit its
        // `8·V`: 20 <= 24, 30 <= 32.
        unsafe {
            match cs.len() {
                2 => fan_body512::<3, 8, 2>(
                    dimi,
                    i0,
                    i1,
                    kr,
                    a,
                    std::array::from_fn(|n| bs[n].as_ptr()),
                    std::array::from_fn(|n| cs[n].as_mut_ptr()),
                ),
                _ => fan_body512::<4, 4, 3>(
                    dimi,
                    i0,
                    i1,
                    kr,
                    a,
                    std::array::from_fn(|n| bs[n].as_ptr()),
                    std::array::from_fn(|n| cs[n].as_mut_ptr()),
                ),
            }
        }
        true
    }

    /// The AVX and AVX-512 entries, each on its own bodies.
    #[cfg(test)]
    pub(crate) const ISAS: [super::Isa; 2] = [
        super::Isa {
            name: "avx",
            present: available,
            span: Some(span),
            fan_span: fan_span_avx,
            fan_width: 4,
        },
        super::Isa {
            name: "avx512",
            present: avx512_available,
            span: None,
            fan_span: fan_span_avx512,
            fan_width: FAN512_WIDTH,
        },
    ];
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    /// No SIMD kernel on this architecture.
    pub(crate) fn available() -> bool {
        false
    }

    /// No fan body on this architecture.
    pub(crate) fn has_fan(_dimj: usize) -> bool {
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

    /// Always `false`: the caller runs one span per output.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn fan_span(
        _dimi: usize,
        _i0: usize,
        _i1: usize,
        _dimj: usize,
        _kr: usize,
        _a: &[f64],
        _bs: &[&[f64]],
        _cs: &mut [&mut [f64]],
    ) -> bool {
        false
    }

    /// No instruction set to test on this architecture.
    #[cfg(test)]
    pub(crate) const ISAS: [super::Isa; 0] = [];
}

#[cfg(test)]
pub(crate) use imp::ISAS;
pub(crate) use imp::{available, fan_span, has_fan, span};
