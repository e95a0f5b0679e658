//! Multidimensional transforms built from cycling [`mtxmq`] passes.
//!
//! [`mtxmq`]: crate::mtxmq::mtxmq
//!
//! One rank-`μ` term of the paper's Formula 1,
//!
//! ```text
//! r_{i1…id} = Σ_{j1…jd} s_{j1…jd} · h^{(μ,1)}_{j1 i1} · … · h^{(μ,d)}_{jd id},
//! ```
//!
//! factorizes into `d` successive matrix products. Viewing `s` as a
//! `(k, k^{d-1})` row-major matrix and multiplying by the `(k, k)` block
//! `h^{(μ,1)}` with [`mtxmq`] contracts dimension 1 and *rotates* it to the
//! end; `d` such passes contract every dimension and restore the original
//! axis order. Each pass is exactly one of the paper's
//! `(k^{d-1}, k) × (k, k)` multiplications.

use crate::kernel::{self, SpanKernel};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::MAX_DIMS;
use std::cell::RefCell;

/// Reusable scratch buffers for [`transform`]-family calls.
///
/// Apply evaluates hundreds of transforms per tree node; reusing the
/// buffers keeps the hot loop allocation-free (a requirement the perf
/// guides are emphatic about).
#[derive(Default, Debug)]
pub struct TransformScratch {
    /// `coeff · t`: the operand of pass 0.
    staged: Vec<f64>,
    /// The open chunk's intermediates after leading pass `p`, one per
    /// term slot, for every leading pass but the last (whose output is
    /// the slot's place in `stack`).
    levels: [Vec<f64>; MAX_DIMS - 2],
    /// What each term slot of the open chunk holds.
    slots: Vec<Slot>,
    /// The open chunk's last-pass operands, term after term: the
    /// intermediates entering the last pass…
    stack: Vec<f64>,
    /// …and the matching rows of each term's last operator block.
    panel: Vec<f64>,
}

/// Budget, in `f64`s, for the stack of last-pass intermediates a chunk
/// of terms builds before its fused final span: 32 KiB, so the stack
/// the span streams as its `A` operand is still in L1 when it runs.
/// Tasks whose single intermediate exceeds it run one term per chunk.
const STACK_ELEMS: usize = 4096;

/// The inputs that produced one term slot's leading intermediates: the
/// next task of a group skips leading pass `p` iff everything that
/// determines its output — the coefficient and, for every pass `≤ p`,
/// the operator block and the contraction rows — is what is recorded
/// here (and, for the pass that writes the stack, the rows are still
/// where the fused final span will look for them).
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Whether a task of the open chunk has filled the slot yet.
    filled: bool,
    coeff_bits: u64,
    /// `(address of the block, contraction rows)` of each leading pass.
    /// Blocks are `&Tensor`s borrowed for the whole group call, so an
    /// equal address is the same, unchanged tensor.
    passes: [(usize, usize); MAX_DIMS],
    /// First stack row of the slot, and how many the last pass reads.
    row: usize,
    kr_last: usize,
}

impl TransformScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers every rank uses for cube tensors of `len`
    /// elements (the chunk buffers to their upper bound: a full 32 KiB
    /// chunk or one term, whichever is larger); the per-level buffers
    /// of rank ≥ 3 depend on the rank and grow on first use.
    pub fn with_capacity(len: usize) -> Self {
        let chunk = len.max(STACK_ELEMS);
        TransformScratch {
            staged: Vec::with_capacity(len),
            stack: Vec::with_capacity(chunk),
            panel: Vec::with_capacity(chunk),
            ..Self::default()
        }
    }
}

/// Grows `buf` to at least `len` elements (never shrinks: a smaller
/// task must not make the next larger one re-fill the buffer).
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Per-thread reusable state for the allocation-free Apply hot path.
///
/// The Σ_μ task kernels (M ≈ 100 separated-rank terms per task) borrow
/// the calling thread's workspace through [`Workspace::with`] instead of
/// allocating scratch per call; in steady state the buffers reach their
/// high-water size once and every later task runs with **zero heap
/// allocations**.
#[derive(Default, Debug)]
pub struct Workspace {
    scratch: TransformScratch,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transform scratch.
    pub fn scratch(&mut self) -> &mut TransformScratch {
        &mut self.scratch
    }

    /// Runs `f` with the calling thread's workspace.
    ///
    /// Re-entrant calls (e.g. `f` itself ends up back here through
    /// nested parallelism on the same thread) fall back to a fresh
    /// temporary workspace rather than aliasing the borrowed one.
    pub fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        WORKSPACE.with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => f(&mut ws),
            Err(_) => f(&mut Workspace::new()),
        })
    }
}

/// The output shape of transforming `t` by `hs`: dimension `i` takes
/// the column count of `hs[i]`.
fn out_shape(t: &Tensor, hs: &[&Tensor]) -> Shape {
    let d = t.ndim();
    assert_eq!(
        hs.len(),
        d,
        "need one operator matrix per dimension ({d}), got {}",
        hs.len()
    );
    let mut dims = [0usize; MAX_DIMS];
    for (dim, h) in dims.iter_mut().zip(hs) {
        *dim = h.shape().dim(1);
    }
    Shape::new(&dims[..d])
}

/// Transforms every dimension of `t` by the corresponding matrix in `hs`
/// (`r_{i…} = Σ t_{j…} Π h^{(dim)}_{j i}`), returning a fresh tensor.
///
/// Operators may be rectangular `(n_dim, m_dim)`; the result dimension
/// `dim` then has extent `m_dim`. The common Apply case is every `h`
/// `(k, k)`.
///
/// # Panics
/// Panics if `hs.len() != t.ndim()` or operator rows mismatch extents.
pub fn transform(t: &Tensor, hs: &[&Tensor]) -> Tensor {
    let mut out = Tensor::zeros(out_shape(t, hs));
    transform_accumulate_scaled(t, 1.0, hs, &mut TransformScratch::new(), &mut out);
    out
}

/// `out += transform(coeff · t, hs)` without allocating the intermediate
/// result, the coefficient multiply fused into the scratch staging copy:
/// the Σ_μ inner statement of Algorithm 5
/// (`r += c_μ · Π h^{(μ,dim)} s`) without materializing `c_μ · s`.
///
/// Bit-identical to scaling `t` elementwise first and then calling this
/// with `coeff = 1.0`. A whole Σ_μ loop of these is one
/// [`transform_sum_accumulate`] call.
///
/// # Panics
/// Panics if `out` does not match the transform's output shape, or on the
/// operand mismatches of [`transform`].
pub fn transform_accumulate_scaled(
    t: &Tensor,
    coeff: f64,
    hs: &[&Tensor],
    scratch: &mut TransformScratch,
    out: &mut Tensor,
) {
    one_term(t, coeff, hs, None, scratch, out);
}

/// One separated-rank term `c_μ · Π_dim h^{(μ,dim)}` of a
/// [`transform_sum_accumulate`] task.
pub struct Term<'a, I> {
    /// The expansion coefficient `c_μ`, folded into the staging copy of
    /// the source tensor.
    pub coeff: f64,
    /// The operator blocks `h^{(μ,1)} … h^{(μ,d)}`, one per dimension in
    /// order, each borrowed for the whole call: a group call tells that
    /// two tasks contract with the same block by its address.
    pub hs: I,
    /// Rank reduction (paper §II-D, Fig. 4): if `Some`, pass `p`
    /// contracts only the first `krs[p]` rows.
    pub krs: Option<&'a [usize]>,
}

/// The task-level kernel: `out += Σ_μ c_μ · transform(t, h^{(μ,·)})`,
/// the whole rank-`M` loop of Formula 1 in one call (the CPU counterpart
/// of the paper's custom GPU kernel, which embeds the same loop in one
/// launch).
///
/// `term(μ)` is called once for each `μ < n_terms`, in order. Shapes
/// are validated, the span kernels selected and the scratch sized once
/// per task rather than once per term. Each term runs its passes
/// `1..d−1` alone; the **last** dimension of a whole chunk of terms is
/// then contracted in one span: the chunk's last-pass intermediates,
/// stacked, form one `(Σ kr_μ, k^{d−1})` operand and the matching rows
/// of their `h^{(μ,d)}` blocks one `(Σ kr_μ, k)` panel, so
/// `out(i,j) += Σ_{(μ,k)} A(μk,i)·B(μk,j)` with `(μ, k)` ascending.
/// That is, element by element, exactly the multiply-then-add chain
/// (and the `a == 0.0` skips) that `n_terms` successive
/// [`transform_accumulate_scaled`] / [`transform_rr_accumulate_scaled`]
/// calls produce — the result is bit-identical to that loop, while
/// `out` is loaded and stored once per chunk instead of once per term.
/// It is the one-task case of [`transform_sum_accumulate_group`].
///
/// Allocation-free once `scratch` has reached its high-water size.
///
/// # Panics
/// Panics if `out`'s rank differs from `t`'s, a term does not yield
/// exactly one `(t.dim(p), out.dim(p))` matrix per dimension `p`, or
/// `krs` does not have one entry per dimension.
pub fn transform_sum_accumulate<'a, I>(
    t: &Tensor,
    n_terms: usize,
    mut term: impl FnMut(usize) -> Term<'a, I>,
    scratch: &mut TransformScratch,
    out: &mut Tensor,
) where
    I: IntoIterator<Item = &'a Tensor>,
{
    let outs = std::slice::from_mut(out);
    transform_sum_accumulate_group(t, n_terms, |_, mu| term(mu), scratch, outs);
}

/// The one-term, one-task case of [`transform_sum_accumulate_group`]
/// behind the slice-of-operators entry points.
fn one_term(
    t: &Tensor,
    coeff: f64,
    hs: &[&Tensor],
    krs: Option<&[usize]>,
    scratch: &mut TransformScratch,
    out: &mut Tensor,
) {
    let term = |_| Term {
        coeff,
        hs: hs.iter().copied(),
        krs,
    };
    transform_sum_accumulate(t, 1, term, scratch, out);
}

/// The staging copy `dst = coeff · t`, folding the separated-expansion
/// coefficient into the operand of the first pass: the same elementwise
/// product as materializing a scaled temporary, so results stay
/// bit-identical.
fn stage(coeff: f64, t: &Tensor, dst: &mut [f64]) {
    for (x, &s) in dst.iter_mut().zip(t.as_slice()) {
        *x = coeff * s;
    }
}

/// Geometry of pass `p`, fixed for the task: it contracts the current
/// leading dimension (`dimk` rows of the `(dimk, dimi)` intermediate)
/// with a `(dimk, dimj)` block and rotates the new extent to the end.
#[derive(Clone, Copy)]
struct Pass {
    dimk: usize,
    dimi: usize,
    dimj: usize,
    /// Row tile for a full-rank pass (see [`kernel::pass_tile_rows`]).
    tile: usize,
    kernel: SpanKernel,
}

impl Pass {
    /// Runs the pass over `kr` contraction rows as consecutive row
    /// tiles, zeroing each tile of `c` first unless `accumulate`. Small
    /// shapes are a single tile; tiles run in row order and every
    /// candidate kernel preserves the per-element k-ascending chain, so
    /// the result is bit-identical to one untiled span — and to every
    /// other candidate.
    fn run(&self, kr: usize, tile: usize, accumulate: bool, a: &[f64], b: &[f64], c: &mut [f64]) {
        let (dimi, dimj) = (self.dimi, self.dimj);
        let mut i0 = 0;
        while i0 < dimi {
            let i1 = (i0 + tile).min(dimi);
            let span = &mut c[i0 * dimj..i1 * dimj];
            if !accumulate {
                span.fill(0.0);
            }
            self.kernel.run_span(dimi, i0, i1, dimj, kr, a, b, span);
            i0 = i1;
        }
    }
}

/// A *group* of [`transform_sum_accumulate`] tasks over one source
/// tensor: `outs[task] += Σ_μ c_μ · transform(t, h^{(task,μ,·)})` for
/// every task, each output bit-identical to its own one-task call.
/// This is the one pass loop behind every `transform*` entry point.
///
/// The tasks of one Apply source differ only in their displacement, and
/// consecutive displacements mostly keep their leading blocks, so the
/// loop runs chunk-of-terms outer, task inner and keeps, for each term
/// slot of the open chunk, the intermediate after every leading pass
/// `0 … d−2`. The next task skips pass `p` of a term iff the term's
/// coefficient and, for every pass `≤ p`, its block (the same
/// `&Tensor`) and contraction rows are the ones that produced what the
/// slot holds — and, for pass `d−2`, whose output is the slot's place
/// in the stacked last-pass operand, iff the task packs the slot at the
/// same row with the same last-pass rows and has not run over it (a
/// rank-reduced slot starts `kr` rows after its predecessor, inside the
/// predecessor's full intermediate). A skipped pass would have written
/// the values already there from the same inputs by the same chain, so
/// what reaches each `out` element is the one-task call's `(μ, k)`-
/// ascending chain exactly. A source's 27 radius-1 displacements in
/// `(δx, δy, δz)` order need 4 + 10 of their 2 × 27 leading passes per
/// term.
///
/// `term(task, μ)` is called once per pair: for each chunk of terms in
/// order, for each task in order, for each `μ` of the chunk in order.
/// With no outputs the call does nothing.
///
/// Allocation-free once `scratch` has reached its high-water size.
///
/// # Panics
/// As [`transform_sum_accumulate`] for every task, and if the outputs
/// differ in shape.
pub fn transform_sum_accumulate_group<'a, I>(
    t: &Tensor,
    n_terms: usize,
    mut term: impl FnMut(usize, usize) -> Term<'a, I>,
    scratch: &mut TransformScratch,
    outs: &mut [Tensor],
) where
    I: IntoIterator<Item = &'a Tensor>,
{
    let Some(out) = outs.first() else {
        return;
    };
    let d = t.ndim();
    assert_eq!(out.ndim(), d, "output rank must match the tensor's");
    let out_shape = out.shape();
    assert!(
        outs.iter().all(|out| out.shape() == out_shape),
        "the outputs of a group must share one shape"
    );

    // After pass p the intermediate has dims (n_{p+1}, …, n_d, m_1, …,
    // m_p): pass p sees it as a (n_p, len / n_p) matrix.
    let pass_at = |p: usize, len: usize| {
        let dimk = t.shape().dim(p);
        let (dimi, dimj) = (len / dimk, out_shape.dim(p));
        Pass {
            dimk,
            dimi,
            dimj,
            tile: kernel::pass_tile_rows(dimi, dimj, dimk),
            kernel: kernel::resolve(dimi, dimj),
        }
    };
    let mut passes = [pass_at(0, t.len()); MAX_DIMS];
    for p in 1..d {
        passes[p] = pass_at(p, passes[p - 1].dimi * passes[p - 1].dimj);
    }
    let last = passes[d - 1];
    let term_len = last.dimk * last.dimi;
    let chunk = (STACK_ELEMS / term_len).clamp(1, n_terms.max(1));

    let TransformScratch {
        staged,
        levels,
        slots,
        stack,
        panel,
    } = scratch;
    grow(staged, t.len());
    for (level, pass) in levels.iter_mut().zip(&passes[..d.saturating_sub(2)]) {
        grow(level, chunk * pass.dimi * pass.dimj);
    }
    if slots.len() < chunk {
        slots.resize(chunk, Slot::default());
    }
    grow(stack, chunk * term_len);
    grow(panel, chunk * last.dimk * last.dimj);

    for chunk_start in (0..n_terms).step_by(chunk) {
        let chunk_terms = chunk_start..(chunk_start + chunk).min(n_terms);
        // A new chunk of terms takes over the slots.
        for slot in &mut slots[..chunk_terms.len()] {
            slot.filled = false;
        }
        for (task, out) in outs.iter_mut().enumerate() {
            // Contraction rows stacked so far, and the end of the stack
            // rows this task has rewritten.
            let (mut rows, mut rewritten) = (0, 0);
            for (ix, slot) in slots[..chunk_terms.len()].iter_mut().enumerate() {
                let Term { coeff, hs, krs } = term(task, chunk_terms.start + ix);
                if let Some(krs) = krs {
                    assert_eq!(krs.len(), d, "need one effective rank per dimension");
                }
                let kr_of = |p: usize| krs.map_or(passes[p].dimk, |krs| krs[p].min(passes[p].dimk));
                let mut hs = hs.into_iter();
                let mut block = |p: usize| {
                    let h = hs.next().unwrap_or_else(|| {
                        panic!("need one operator matrix per dimension ({d}), got {p}")
                    });
                    assert_eq!(h.ndim(), 2, "operator {p} must be a matrix");
                    assert_eq!(
                        h.shape().dim(0),
                        passes[p].dimk,
                        "operator {p} rows must match tensor dim {p}"
                    );
                    assert_eq!(
                        h.shape().dim(1),
                        passes[p].dimj,
                        "operator {p} columns must match output dim {p}"
                    );
                    h
                };

                // This term's place in the stack: where its last-pass
                // operand lands, written by the staging copy (d = 1) or
                // by pass d−2.
                let place = rows * last.dimi..rows * last.dimi + term_len;
                let kr_last = kr_of(d - 1);
                let mut held = slot.filled && slot.coeff_bits == coeff.to_bits();
                for (p, pass) in passes[..d - 1].iter().enumerate() {
                    let h = block(p);
                    let key = (std::ptr::from_ref(h) as usize, kr_of(p));
                    held &= slot.passes[p] == key;
                    if p + 2 == d {
                        held &= (slot.row, slot.kr_last) == (rows, kr_last) && rows >= rewritten;
                    }
                    if held {
                        continue;
                    }
                    slot.passes[p] = key;
                    let (below, at) = levels.split_at_mut(p);
                    let src_len = pass.dimk * pass.dimi;
                    let src = match below.last() {
                        Some(level) => &level[ix * src_len..][..src_len],
                        None => {
                            stage(coeff, t, staged);
                            &staged[..src_len]
                        }
                    };
                    let dst = if p + 2 == d {
                        rewritten = rows + last.dimk;
                        &mut stack[place.clone()]
                    } else {
                        let dst_len = pass.dimi * pass.dimj;
                        &mut at[0][ix * dst_len..][..dst_len]
                    };
                    pass.run(key.1, pass.tile, false, src, h.as_slice(), dst);
                }
                if d == 1 {
                    stage(coeff, t, &mut stack[place]);
                }
                *slot = Slot {
                    filled: true,
                    coeff_bits: coeff.to_bits(),
                    row: rows,
                    kr_last,
                    ..*slot
                };

                let h = block(d - 1);
                assert!(
                    hs.next().is_none(),
                    "need one operator matrix per dimension ({d}), got more"
                );
                panel[rows * last.dimj..(rows + kr_last) * last.dimj]
                    .copy_from_slice(&h.as_slice()[..kr_last * last.dimj]);
                rows += kr_last;
            }
            // The chunk's fused final pass: one (μ, k)-ascending chain
            // per output element, straight into `out`.
            let tile = kernel::pass_tile_rows(last.dimi, last.dimj, rows);
            let (a, b) = (&stack[..rows * last.dimi], &panel[..rows * last.dimj]);
            last.run(rows, tile, true, a, b, out.as_mut_slice());
        }
    }
}

/// `out += transform(coeff · t, hs)` rank-reduced (paper §II-D, Fig. 4):
/// pass `p` contracts only the first `krs[p]` entries of the
/// corresponding dimension (at most its extent), skipping the negligible
/// rows of `s` and `h`. Output shape is unchanged. The rank-reduced
/// counterpart of [`transform_accumulate_scaled`].
///
/// # Panics
/// Panics if `krs.len() != t.ndim()`, or as
/// [`transform_accumulate_scaled`].
pub fn transform_rr_accumulate_scaled(
    t: &Tensor,
    coeff: f64,
    hs: &[&Tensor],
    krs: &[usize],
    scratch: &mut TransformScratch,
    out: &mut Tensor,
) {
    one_term(t, coeff, hs, Some(krs), scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(k^{2d}) evaluation of Formula 1 for one μ.
    fn reference_transform(t: &Tensor, hs: &[&Tensor]) -> Tensor {
        let d = t.ndim();
        let mut out_dims = vec![0usize; d];
        for (i, h) in hs.iter().enumerate() {
            out_dims[i] = h.shape().dim(1);
        }
        let out_shape = Shape::new(&out_dims);
        Tensor::from_fn(out_shape, |oi| {
            // Sum over all input multi-indices.
            let mut total = 0.0;
            let mut ji = vec![0usize; d];
            let n = t.len();
            for _ in 0..n {
                let mut term = t.at(&ji);
                for (dim, h) in hs.iter().enumerate() {
                    term *= h.at(&[ji[dim], oi[dim]]);
                }
                total += term;
                for i in (0..d).rev() {
                    ji[i] += 1;
                    if ji[i] < t.shape().dim(i) {
                        break;
                    }
                    ji[i] = 0;
                }
            }
            total
        })
    }

    fn det_tensor(shape: Shape, seed: u64) -> Tensor {
        // Small deterministic pseudo-random fill (no rand dep needed here).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    /// `transform(t, hs)` with pass `p` contracting `krs[p]` rows.
    fn transform_rr(t: &Tensor, hs: &[&Tensor], krs: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(out_shape(t, hs));
        transform_rr_accumulate_scaled(t, 1.0, hs, krs, &mut TransformScratch::new(), &mut out);
        out
    }

    #[test]
    fn transform_matches_reference_3d() {
        let k = 5;
        let t = det_tensor(Shape::cube(3, k), 7);
        let h1 = det_tensor(Shape::matrix(k, k), 11);
        let h2 = det_tensor(Shape::matrix(k, k), 13);
        let h3 = det_tensor(Shape::matrix(k, k), 17);
        let got = transform(&t, &[&h1, &h2, &h3]);
        let want = reference_transform(&t, &[&h1, &h2, &h3]);
        assert!(got.distance(&want) < 1e-12, "d={}", got.distance(&want));
    }

    #[test]
    fn transform_matches_reference_4d() {
        let k = 4;
        let t = det_tensor(Shape::cube(4, k), 3);
        let hs: Vec<Tensor> = (0..4)
            .map(|i| det_tensor(Shape::matrix(k, k), 100 + i))
            .collect();
        let hrefs: Vec<&Tensor> = hs.iter().collect();
        let got = transform(&t, &hrefs);
        let want = reference_transform(&t, &hrefs);
        assert!(got.distance(&want) < 1e-12);
    }

    #[test]
    fn rectangular_operators_change_output_shape() {
        let t = det_tensor(Shape::new(&[3, 4]), 5);
        let h1 = det_tensor(Shape::matrix(3, 6), 6);
        let h2 = det_tensor(Shape::matrix(4, 2), 8);
        let got = transform(&t, &[&h1, &h2]);
        assert_eq!(got.shape().dims(), &[6, 2]);
        let want = reference_transform(&t, &[&h1, &h2]);
        assert!(got.distance(&want) < 1e-12);
    }

    #[test]
    fn identity_transform_is_noop() {
        let k = 6;
        let t = det_tensor(Shape::cube(3, k), 9);
        let i = Tensor::identity(k);
        let got = transform(&t, &[&i, &i, &i]);
        assert!(got.distance(&t) < 1e-13);
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let k = 4;
        let t = det_tensor(Shape::cube(3, k), 2);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 40 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let base = det_tensor(Shape::cube(3, k), 99);
        let mut acc = base.clone();
        let mut scratch = TransformScratch::new();
        transform_accumulate_scaled(&t, 1.0, &hr, &mut scratch, &mut acc);
        let want = &base + &transform(&t, &hr);
        assert!(acc.distance(&want) < 1e-12);
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        let k = 4;
        let mut scratch = TransformScratch::with_capacity(k * k * k);
        let t1 = det_tensor(Shape::cube(3, k), 1);
        let t2 = det_tensor(Shape::cube(3, k), 2);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 60 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let mut out1 = Tensor::zeros(Shape::cube(3, k));
        let mut out2 = Tensor::zeros(Shape::cube(3, k));
        transform_accumulate_scaled(&t1, 1.0, &hr, &mut scratch, &mut out1);
        transform_accumulate_scaled(&t2, 1.0, &hr, &mut scratch, &mut out2);
        assert!(out2.distance(&transform(&t2, &hr)) < 1e-12);
    }

    #[test]
    fn rank_reduced_full_rank_matches_plain() {
        let k = 5;
        let t = det_tensor(Shape::cube(3, k), 31);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 70 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let full = transform(&t, &hr);
        let rr = transform_rr(&t, &hr, &[k, k, k]);
        assert!(full.distance(&rr) < 1e-12);
    }

    #[test]
    fn rank_reduction_error_vanishes_when_tail_is_zero() {
        // Build operators whose rows beyond kr are exactly zero; then the
        // reduced contraction is exact.
        let k = 6;
        let kr = 3;
        let t = det_tensor(Shape::cube(3, k), 5);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut h = det_tensor(Shape::matrix(k, k), 80 + i);
                for r in kr..k {
                    for c in 0..k {
                        *h.at_mut(&[r, c]) = 0.0;
                    }
                }
                h
            })
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        // Plain transform also sees the zero rows, but the reduced one must
        // be identical while touching only kr rows of t... except pass ≥ 2
        // contracts dims of the intermediate; only pass 1 skips rows of t
        // itself. Keep the check on full equality.
        let full = transform(&t, &hr);
        let rr = transform_rr(&t, &hr, &[kr, kr, kr]);
        assert!(full.distance(&rr) < 1e-12);
    }

    #[test]
    fn rank_reduced_ignores_tail_rows() {
        // Both passes contract two rows: what lies past them in the
        // source, the intermediate and the blocks is never read.
        let krs = [2, 2];
        let mut t = det_tensor(Shape::new(&[4, 3]), 61);
        let mut h1 = det_tensor(Shape::matrix(4, 3), 62);
        let mut h2 = det_tensor(Shape::matrix(3, 3), 63);
        let want = transform_rr(&t, &[&h1, &h2], &krs);
        for col in 0..3 {
            for row in 2..4 {
                *t.at_mut(&[row, col]) = f64::NAN;
                *h1.at_mut(&[row, col]) = f64::NAN;
            }
            *h2.at_mut(&[2, col]) = f64::NAN;
        }
        // Column 2 of the source is row 2 of the intermediate.
        *t.at_mut(&[0, 2]) = f64::NAN;
        *t.at_mut(&[1, 2]) = f64::NAN;
        let got = transform_rr(&t, &[&h1, &h2], &krs);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn rank_reduced_rectangular_operators_grow_intermediates() {
        // Regression: growing intermediates (rectangular operators) used
        // to overflow the rank-reduced scratch, which was sized per pass
        // against the original tensor instead of cumulatively.
        let t = det_tensor(Shape::cube(3, 2), 77);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(2, 4), 80 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let full = transform(&t, &hr);
        let rr = transform_rr(&t, &hr, &[2, 2, 2]);
        assert_eq!(rr.shape().dims(), &[4, 4, 4]);
        assert!(full.distance(&rr) < 1e-12);
    }

    #[test]
    fn rank_reduced_accumulate_adds() {
        let k = 4;
        let t = det_tensor(Shape::cube(3, k), 11);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 90 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let base = det_tensor(Shape::cube(3, k), 5);
        let mut acc = base.clone();
        let mut scratch = TransformScratch::new();
        transform_rr_accumulate_scaled(&t, 1.0, &hr, &[2, 3, 4], &mut scratch, &mut acc);
        let want = &base + &transform_rr(&t, &hr, &[2, 3, 4]);
        assert!(acc.distance(&want) < 1e-12);
    }

    #[test]
    fn scaled_accumulate_is_bit_identical_to_prescale() {
        let k = 4;
        let t = det_tensor(Shape::cube(3, k), 13);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 50 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let coeff = -1.75;
        let mut scratch = TransformScratch::new();
        // Materialize scaled = coeff * t, then accumulate.
        let mut scaled = t.clone();
        scaled.scale(coeff);
        let mut want = det_tensor(Shape::cube(3, k), 8);
        let mut got = want.clone();
        transform_accumulate_scaled(&scaled, 1.0, &hr, &mut scratch, &mut want);
        transform_accumulate_scaled(&t, coeff, &hr, &mut scratch, &mut got);
        assert_eq!(got.as_slice(), want.as_slice(), "must be bit-identical");
    }

    #[test]
    fn scaled_rr_accumulate_is_bit_identical_to_prescale() {
        let k = 5;
        let t = det_tensor(Shape::cube(3, k), 23);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 150 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let krs = [3, 5, 2];
        let coeff = 0.375;
        let mut scratch = TransformScratch::new();
        let mut scaled = t.clone();
        scaled.scale(coeff);
        let mut want = det_tensor(Shape::cube(3, k), 4);
        let mut got = want.clone();
        transform_rr_accumulate_scaled(&scaled, 1.0, &hr, &krs, &mut scratch, &mut want);
        transform_rr_accumulate_scaled(&t, coeff, &hr, &krs, &mut scratch, &mut got);
        assert_eq!(got.as_slice(), want.as_slice(), "must be bit-identical");
    }

    #[test]
    fn workspace_with_reuses_and_tolerates_reentrancy() {
        let k = 4;
        let t = det_tensor(Shape::cube(3, k), 3);
        let hs: Vec<Tensor> = (0..3)
            .map(|i| det_tensor(Shape::matrix(k, k), 120 + i))
            .collect();
        let hr: Vec<&Tensor> = hs.iter().collect();
        let want = transform(&t, &hr);
        let got = Workspace::with(|ws| {
            // Re-entrant borrow on the same thread must not panic.
            let inner = Workspace::with(|ws2| {
                let mut out = Tensor::zeros(Shape::cube(3, k));
                transform_accumulate_scaled(&t, 1.0, &hr, ws2.scratch(), &mut out);
                out
            });
            let mut out = Tensor::zeros(Shape::cube(3, k));
            transform_accumulate_scaled(&t, 1.0, &hr, ws.scratch(), &mut out);
            assert_eq!(inner.as_slice(), out.as_slice());
            out
        });
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    #[should_panic(expected = "one operator matrix per dimension")]
    fn wrong_operator_count_panics() {
        let t = Tensor::zeros(Shape::cube(3, 3));
        let h = Tensor::identity(3);
        let _ = transform(&t, &[&h, &h]);
    }
}
