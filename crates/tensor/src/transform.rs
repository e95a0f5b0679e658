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

use crate::kernel::{self, SpanKernel, FAN};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::MAX_DIMS;
use std::cell::RefCell;
use std::ops::Range;

/// Reusable scratch buffers for [`transform`]-family calls.
///
/// Apply evaluates hundreds of transforms per tree node; reusing the
/// buffers keeps the hot loop allocation-free (a requirement the perf
/// guides are emphatic about).
#[derive(Default, Debug)]
pub struct TransformScratch {
    /// A group call's `S > 1` sources interleaved once a call, unscaled,
    /// with the source index innermost (`interleaved[x·S + s] = t_s[x]`):
    /// what every staging copy of the call scales. Only its first `S`
    /// times one source's elements are the call's; a call with `S = 1`
    /// reads its source in place and leaves it alone.
    interleaved: Vec<f64>,
    /// `coeff · t`: the operand of pass 0, staged once a leading fan.
    staged: Vec<f64>,
    /// The open chunk's intermediates after leading pass `p`, for every
    /// leading pass but the last (whose output goes to `stack`): `W`
    /// regions a term slot, one for each task of a leading fan, where `W`
    /// is the call's region count — [`FAN`] where it runs leading fans,
    /// else one.
    levels: [Vec<f64>; MAX_DIMS - 2],
    /// What each region of each term slot's leading levels holds:
    /// `slots[(ix · (d − 1) + p) · W + g]` is region `g` of slot `ix`
    /// after pass `p`.
    slots: Vec<Slot>,
    /// The last stamp a [`Slot`] took.
    stamp: u64,
    /// The stamp of the last write to each row of each stack region: a
    /// slot of a region still holds its rows iff they all carry its
    /// stamp.
    row_stamps: Vec<u64>,
    /// The open chunk's last-pass operands, term after term, in `W`
    /// regions, one for each task of a fan of the last leading pass: the
    /// intermediates entering the last pass…
    stack: Vec<f64>,
    /// …and the matching rows of each term's last operator block, one
    /// region per task of the pending final fan.
    panel: Vec<f64>,
}

/// Budget, in `f64`s, for one source's stack region of last-pass
/// intermediates a chunk of terms builds before its fused final span:
/// 32 KiB, the `A` operand one final span streams (a group of `S`
/// sources stacks `S` such budgets side by side). A call that runs
/// leading fans keeps [`FAN`] stack regions, 96 KiB at `S = 1`: in L2,
/// not L1. Tasks whose single intermediate exceeds the budget run one
/// term per chunk.
///
/// No measurement chose 4,096; the 32 KiB operand did (64 terms a chunk
/// at k = 4, 4 at k = 10, 1 from k = 16), and no other budget has been
/// timed.
const STACK_ELEMS: usize = 4096;

/// The fewest multiply-adds a group call's leading pass does (over all
/// its sources) for the call to run leading fans: a `d = 3`, `k = 10`
/// source's. At k = 4 a fan did not pay for the scan that finds its
/// members and the regions' bookkeeping at any size measured, up to the
/// 8,192 of a stack of eight `d = 4` sources (1.00–1.07× the time without
/// fans); at `d = 3`, `k = 10` it took 0.84–0.91× the time.
const FAN_PASS_MACS: usize = 10_000;

/// Whether a group call whose pass 0 is `pass` runs leading fans: the
/// pass does at least [`FAN_PASS_MACS`] multiply-adds and its kernel runs
/// a fan at its width as one span. Where the kernel has no fan body, a
/// fan is one span per member plus the scan and the bookkeeping: on a
/// 2-vCPU AVX-512F Xeon with the AVX-512 fan masked, a `d = 3`, `k = 10`
/// Apply ran at 0.961× the tasks per second it ran without leading fans.
///
/// Two other shapes the crate runs keep one region on every host:
/// ScfApp's d = 3, k = 5 source, because its pass 0 does 5·25·5 = 625
/// multiply-adds, and the TDSE d = 4, k = 14 shape, because no kernel has
/// a fan body at width 14, though its pass 0 does 14⁵ = 537,824.
fn leading_fans_pay(pass: &Pass) -> bool {
    pass.dimk * pass.dimi * pass.dimj >= FAN_PASS_MACS && pass.kernel.fans(pass.dimj)
}

/// What one region of one term slot holds after leading pass `p`. A task
/// finds its intermediate there iff the region records its input to pass
/// `p` — the stamp of the region it reads, or at pass 0 its coefficient
/// — and its block and contraction rows at `p`; and, at the pass that
/// writes the stack, the row the task packs the slot at and the rows its
/// last pass reads, all of them still carrying the slot's stamp. Every
/// write takes a fresh stamp, so a slot whose input region has been
/// rewritten since never matches: a match is the task's whole chain of
/// inputs, pass by pass.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Which write filled the region: unique and increasing within a
    /// scratch, so a slot written before the open chunk began holds
    /// nothing of it.
    stamp: u64,
    /// The stamp of the region pass `p` read, or the coefficient's bits
    /// at pass 0.
    input: u64,
    /// `(address of the block, contraction rows)` of pass `p`. Blocks
    /// are `&Tensor`s borrowed for the whole group call, so an equal
    /// address is the same, unchanged tensor.
    pass: (usize, usize),
    /// In a stack region: the slot's first row, and how many the last
    /// pass reads.
    row: usize,
    kr_last: usize,
}

impl TransformScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers every rank uses for cube tensors of `len`
    /// elements (the stack and the panel to their upper bound: three
    /// regions of a full 32 KiB chunk or of one term, whichever is
    /// larger, as a call that runs leading fans needs); the per-level
    /// buffers of rank ≥ 3 depend on the rank and grow on first use.
    pub fn with_capacity(len: usize) -> Self {
        let chunk = len.max(STACK_ELEMS);
        TransformScratch {
            staged: Vec::with_capacity(len),
            stack: Vec::with_capacity(FAN * chunk),
            panel: Vec::with_capacity(FAN * chunk),
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
/// Runs in the calling thread's [`Workspace`], so once that has grown
/// the result is the call's only allocation.
///
/// # Panics
/// Panics if `hs.len() != t.ndim()` or operator rows mismatch extents.
pub fn transform(t: &Tensor, hs: &[&Tensor]) -> Tensor {
    let mut out = Tensor::zeros(out_shape(t, hs));
    Workspace::with(|ws| transform_accumulate_scaled(t, 1.0, hs, ws.scratch(), &mut out));
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
/// `term(μ)` must be pure, as the group call's `term` must (it may ask
/// for a pair ahead of order or again); one task asks for each
/// `μ < n_terms` once, in order. Shapes
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
    transform_sum_accumulate_group(&[t], n_terms, |_, mu| term(mu), scratch, outs);
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

/// The sources of a group call as one unscaled operand of pass 0, the
/// source index innermost (`src[x·S + s] = t_s[x]`): one source in place,
/// `S > 1` interleaved into `buf` once a call, so that every staging copy
/// of the call is one contiguous [`stage`].
fn interleave<'b>(sources: &[&'b Tensor], buf: &'b mut Vec<f64>) -> &'b [f64] {
    let (t, n) = (sources[0], sources.len());
    if n == 1 {
        return t.as_slice();
    }
    let len = n * t.len();
    grow(buf, len);
    for (s, t) in sources.iter().enumerate() {
        for (row, &v) in buf[..len].chunks_exact_mut(n).zip(t.as_slice()) {
            row[s] = v;
        }
    }
    &buf[..len]
}

/// The staging copy `dst = coeff · src` of a group call's [`interleave`]d
/// sources, folding the separated-expansion coefficient into the operand
/// of the first pass: the same elementwise product as materializing a
/// scaled temporary, so results stay bit-identical.
fn stage(coeff: f64, src: &[f64], dst: &mut [f64]) {
    for (x, &v) in dst.iter_mut().zip(src) {
        *x = coeff * v;
    }
}

/// Geometry of pass `p`, fixed for the group: it contracts the current
/// leading dimension (`dimk` rows of the `(dimk, dimi)` intermediate of
/// every source, stacked) with a `(dimk, dimj)` block and rotates the new
/// extent to the end.
#[derive(Clone, Copy)]
struct Pass {
    dimk: usize,
    /// Rows of all the group's sources: `S` times one source's.
    dimi: usize,
    dimj: usize,
    /// Row tile for a full-rank pass (see [`kernel::pass_tile_rows`]).
    tile: usize,
    /// Resolved on one source's shape `(dimi / S, dimj)`, the calibrated
    /// entry, whose dispatch counter each span bumps once.
    kernel: SpanKernel,
}

impl Pass {
    /// Runs the pass over `kr` contraction rows into `c` as consecutive
    /// row tiles, zeroing each tile first. Small shapes are a single
    /// tile; tiles run in row order and every candidate kernel preserves
    /// the per-element k-ascending chain, so the result is bit-identical
    /// to one untiled span — and to every other candidate.
    fn run(&self, kr: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        let (dimi, dimj) = (self.dimi, self.dimj);
        let mut i0 = 0;
        while i0 < dimi {
            let i1 = (i0 + self.tile).min(dimi);
            let span = &mut c[i0 * dimj..i1 * dimj];
            span.fill(0.0);
            self.kernel.run_span(dimi, i0, i1, dimj, kr, a, b, span);
            i0 = i1;
        }
    }

    /// [`Pass::run`] over the shared operand `a` into every `cs[n]`,
    /// contracting with `bs[n]`: a *leading fan*, each tile one span for
    /// every output where the kernel has a body that wide. Every fan body
    /// preserves each output's per-element chain, so each output is
    /// bit-identical to its own [`Pass::run`].
    fn run_leading(&self, kr: usize, a: &[f64], bs: &[&[f64]], cs: &mut [&mut [f64]]) {
        let (dimi, dimj, n) = (self.dimi, self.dimj, cs.len());
        let mut i0 = 0;
        while i0 < dimi {
            let i1 = (i0 + self.tile).min(dimi);
            let mut tiles: [&mut [f64]; FAN] = Default::default();
            for (tile, c) in tiles.iter_mut().zip(cs.iter_mut()) {
                *tile = &mut c[i0 * dimj..i1 * dimj];
                tile.fill(0.0);
            }
            self.kernel
                .run_fan(dimi, i0, i1, dimj, kr, a, bs, &mut tiles[..n]);
            i0 = i1;
        }
    }

    /// The fused final pass of a fan, for every source: `outs[s][g] +=
    /// A_s · B_g` over `kr` contraction rows of the shared operand `a`,
    /// with `A_s` source `s`'s row block of it, `outs[s]` that source's
    /// outputs of the fan and `B_g` the `kr` rows at region `g` of
    /// `panel`. Each source's rows go straight into its own outputs, in
    /// row tiles as in [`Pass::run`]; each tile is one span for every
    /// output where the kernel has a body that wide.
    fn run_fan<'o>(
        &self,
        kr: usize,
        a: &[f64],
        panel: &[f64],
        region: usize,
        outs: impl ExactSizeIterator<Item = &'o mut [Tensor]>,
    ) {
        let (dimj, rows) = (self.dimj, self.dimi / outs.len());
        let tile = kernel::pass_tile_rows(rows, dimj, kr);
        let a = &a[..kr * self.dimi];
        let bs: [&[f64]; FAN] = std::array::from_fn(|g| &panel[g * region..][..kr * dimj]);
        for (s, outs) in outs.enumerate() {
            let n = outs.len();
            let mut r0 = 0;
            while r0 < rows {
                let r1 = (r0 + tile).min(rows);
                let mut cs: [&mut [f64]; FAN] = Default::default();
                for (c, out) in cs.iter_mut().zip(outs.iter_mut()) {
                    *c = &mut out.as_mut_slice()[r0 * dimj..r1 * dimj];
                }
                let (i0, i1) = (s * rows + r0, s * rows + r1);
                self.kernel
                    .run_fan(self.dimi, i0, i1, dimj, kr, a, &bs[..n], &mut cs[..n]);
                r0 = r1;
            }
        }
    }
}

/// A *group* of [`transform_sum_accumulate`] tasks over `S` source
/// tensors of one shape, every source running the same task list:
/// `outs[s·T + task] += Σ_μ c_μ · transform(t_s, h^{(task,μ,·)})` for
/// each source `s` and each of the `T = outs.len() / S` tasks (outputs
/// source-major), each output bit-identical to its own one-task call.
/// This is the one pass loop behind every `transform*` entry point; they
/// and most callers pass one source.
///
/// The sources are *stacked*: interleaved once a call with the source
/// index innermost, `(n_1, …, n_d, S)`, which each staging copy of
/// `coeff · t` then scales in one contiguous sweep. Each pass moves the
/// dimension it contracts to the end, so the source index rides through
/// every pass — each pass is one `(n_p, S·rest)` operand, `S` times the
/// rows of one source's — and comes out leading, `(S, m_1, …, m_d)`: the
/// fused final pass runs each source's row block straight into that
/// source's outputs. An element of a stacked pass is the same chain over
/// the same values as in its own source's pass, so everything below
/// holds per source, while all `S` share every leading span and every
/// per-term step.
///
/// The tasks of one Apply source differ only in their displacement, so
/// many share a leading intermediate. The loop runs chunk-of-terms
/// outer, task inner and keeps, for each term slot of the open chunk and
/// each leading pass `0 … d−2`, *regions* of intermediates — one, or
/// three where the call runs leading fans — each recording what it
/// holds. A task skips pass `p` of a term iff a region holds the output
/// of its coefficient and, for every pass `≤ p`, its block (the same
/// `&Tensor`) and contraction rows — and, for pass `d−2`, whose output
/// is the slot's place in a stack region (the stacked last-pass
/// operand), iff it also packs the slot at the same row with the same
/// last-pass rows and nothing has run over those rows since (a
/// rank-reduced slot starts `kr` rows after its predecessor, inside the
/// predecessor's full intermediate, and fans write into regions other
/// tasks left in layouts of their own, so each stack row carries the
/// stamp of its last write). A skipped pass would have written the
/// values already there from the same inputs by the same chain, so what
/// reaches each `out` element is the one-task call's `(μ, k)`-ascending
/// chain exactly. Apply lists a source's displacements
/// lexicographically, `δx` slowest — the order of the passes — so a
/// source's 27 radius-1 displacements need 3 + 9 of their 2 × 27 leading
/// passes a term.
///
/// Where a leading pass does at least 10,000 multiply-adds (a `d = 3`,
/// `k = 10` source's) and its span kernel runs a fan that wide as one
/// span, a task that has to run pass `p` runs it as a *leading fan*: one
/// pass over the shared input for itself and the later tasks (two at
/// most) of the list that contract the same input with the same rows
/// through blocks not yet in the fan, each output in a region of its own
/// (one span for all; each output's chain is still its single span's),
/// and the later tasks find theirs there. A task's slots all sit in one
/// stack region — where its first slot is found, else region 0 — and a
/// slot it does not find there it rewrites there. A term's `δx` siblings
/// then share one pass-0 fan and each `δx`'s `δy` siblings one pass-1
/// fan: the 3 + 9 leading passes run as 1 + 3 spans, and `coeff · s` is
/// staged once a fan.
///
/// A task whose every slot is held through pass `d−2` in the stack
/// region the previous task used finds that region exactly as the
/// previous task left it, so consecutive such tasks form a *final fan*
/// (at most three) whose fused final passes run as one span: one pass
/// over the shared stack region feeds each task's own `out` from its own
/// panel region (or one span per task where the span kernel has no body
/// that wide; either way each element's chain is the one-task call's).
/// The pending final fan runs just before a task would rewrite its
/// region — that task's panel rows so far move to panel region 0 and it
/// starts the next fan — when a task's slots sit in another region, when
/// the fan is full, and at the end of the chunk. `d = 1` never fans: its
/// staging copy rewrites the stack every task. The 27 displacements then
/// need 9 final spans per chunk instead of 27: one `δz` triple a
/// `(δx, δy)`.
///
/// `term(task, μ)` may be called ahead of order and more than once a
/// pair — a leading fan asks later tasks for their term `μ` — so it must
/// be pure: the same pair always yields the same coefficient, blocks and
/// ranks. With no outputs the call does nothing.
///
/// Allocation-free once `scratch` has reached its high-water size (which
/// grows with `S`).
///
/// # Panics
/// As [`transform_sum_accumulate`] for every task, if the sources or the
/// outputs differ in shape, and unless there is a source and the outputs
/// are a whole number of tasks per source.
pub fn transform_sum_accumulate_group<'a, I>(
    sources: &[&Tensor],
    n_terms: usize,
    term: impl FnMut(usize, usize) -> Term<'a, I>,
    scratch: &mut TransformScratch,
    outs: &mut [Tensor],
) where
    I: IntoIterator<Item = &'a Tensor>,
{
    group(
        sources,
        n_terms,
        term,
        scratch,
        outs,
        kernel::resolve,
        leading_fans_pay,
    );
}

/// [`transform_sum_accumulate_group`] with the span kernel of each pass
/// shape `(dimi, dimj)` from `resolve`, running leading fans in [`FAN`]
/// regions where `fans(pass 0)` says so and one region elsewhere: the
/// region count is the only thing the choice sets.
fn group<'a, I>(
    sources: &[&Tensor],
    n_terms: usize,
    term: impl FnMut(usize, usize) -> Term<'a, I>,
    scratch: &mut TransformScratch,
    outs: &mut [Tensor],
    resolve: fn(usize, usize) -> SpanKernel,
    fans: fn(&Pass) -> bool,
) where
    I: IntoIterator<Item = &'a Tensor>,
{
    let Some(out) = outs.first() else {
        return;
    };
    let (&t, n_src) = (
        sources.first().expect("a group needs a source"),
        sources.len(),
    );
    assert!(
        outs.len().is_multiple_of(n_src),
        "{} outputs are not one task list for each of {n_src} sources",
        outs.len()
    );
    assert!(
        sources.iter().all(|s| s.shape() == t.shape()),
        "the sources of a group must share one shape"
    );
    let n_tasks = outs.len() / n_src;
    let d = t.ndim();
    assert_eq!(out.ndim(), d, "output rank must match the tensor's");
    let out_shape = out.shape();
    assert!(
        outs.iter().all(|out| out.shape() == out_shape),
        "the outputs of a group must share one shape"
    );

    // After pass p a source's intermediate has dims (n_{p+1}, …, n_d, m_1,
    // …, m_p), and the stack's (n_{p+1}, …, n_d, S, m_1, …, m_p): pass p
    // sees it as a (n_p, len / n_p) matrix.
    let pass_at = |p: usize, len: usize| {
        let dimk = t.shape().dim(p);
        let (dimi, dimj) = (len / dimk, out_shape.dim(p));
        Pass {
            dimk,
            dimi,
            dimj,
            tile: kernel::pass_tile_rows(dimi, dimj, dimk),
            kernel: resolve(dimi / n_src, dimj),
        }
    };
    let mut passes = [pass_at(0, n_src * t.len()); MAX_DIMS];
    for p in 1..d {
        passes[p] = pass_at(p, passes[p - 1].dimi * passes[p - 1].dimj);
    }
    let last = passes[d - 1];
    // The budget holds one source's chunk, so a chunk has as many terms,
    // and a source as many final spans, whatever `S` is.
    let chunk = (STACK_ELEMS / (last.dimk * last.dimi / n_src)).clamp(1, n_terms.max(1));
    let plan = Plan {
        passes,
        d,
        n_tasks,
        chunk,
    };
    // A leading fan needs two tasks, a leading pass and one worth sharing.
    if n_tasks > 1 && d > 1 && fans(&passes[0]) {
        run::<_, _, FAN>(&plan, sources, n_terms, term, scratch, outs);
    } else {
        run::<_, _, 1>(&plan, sources, n_terms, term, scratch, outs);
    }
}

/// Each source's outputs of the tasks `fan` of a group call with
/// `n_tasks` tasks, source by source.
fn fan_outs(
    outs: &mut [Tensor],
    n_tasks: usize,
    fan: Range<usize>,
) -> impl ExactSizeIterator<Item = &mut [Tensor]> {
    outs.chunks_mut(n_tasks)
        .map(move |outs| &mut outs[fan.clone()])
}

/// The geometry of one group call.
struct Plan {
    /// Pass `p` for each `p < d`.
    passes: [Pass; MAX_DIMS],
    d: usize,
    n_tasks: usize,
    /// Terms a chunk.
    chunk: usize,
}

/// The pass loop of a group call planned as `plan`, with `W` regions a
/// term slot and leading level: [`FAN`] where the call runs leading fans,
/// else one. `W` is a constant so that the one-region loop compiles
/// without the member scan and the region arithmetic.
fn run<'a, I, F, const W: usize>(
    plan: &Plan,
    sources: &[&Tensor],
    n_terms: usize,
    mut term: F,
    scratch: &mut TransformScratch,
    outs: &mut [Tensor],
) where
    I: IntoIterator<Item = &'a Tensor>,
    F: FnMut(usize, usize) -> Term<'a, I>,
{
    let &Plan {
        d, n_tasks, chunk, ..
    } = plan;
    let passes = &plan.passes[..d];
    let last = passes[d - 1];
    let term_len = last.dimk * last.dimi;
    // The panel rows of one task's chunk, at most.
    let region = chunk * last.dimk * last.dimj;
    let TransformScratch {
        interleaved,
        staged,
        levels,
        slots,
        stamp,
        row_stamps,
        stack,
        panel,
    } = scratch;
    // The leading passes, the last of which writes the stack.
    let lead = d - 1;
    let (stack_len, stack_rows) = (chunk * term_len, chunk * last.dimk);
    let source = interleave(sources, interleaved);
    grow(staged, source.len());
    for (level, pass) in levels.iter_mut().zip(&passes[..d.saturating_sub(2)]) {
        grow(level, W * chunk * pass.dimi * pass.dimj);
    }
    if slots.len() < W * chunk * lead {
        slots.resize(W * chunk * lead, Default::default());
    }
    if row_stamps.len() < W * stack_rows {
        row_stamps.resize(W * stack_rows, 0);
    }
    grow(stack, W * stack_len);
    grow(panel, FAN * region);

    for chunk_start in (0..n_terms).step_by(chunk) {
        let chunk_terms = chunk_start..(chunk_start + chunk).min(n_terms);
        // A new chunk of terms takes over the slots: only what is
        // written from here on, with a later stamp, counts.
        let fresh = *stamp;
        // The pending final fan is tasks `fan..task`, task `fan + g` with
        // its panel in region `g`; each packs `fan_rows` contraction rows
        // of stack region `fan_region`.
        let (mut fan, mut fan_rows, mut fan_region) = (0, 0, 0);
        for task in 0..n_tasks {
            // Contraction rows stacked so far, and the task's stack region.
            let (mut rows, mut home) = (0, 0);
            // The term's block and rows at each leading pass so far.
            let mut keys = [(0, 0); MAX_DIMS];
            for (ix, mu) in chunk_terms.clone().enumerate() {
                let Term { coeff, hs, krs } = term(task, mu);
                check_ranks(krs, passes);
                let mut hs = hs.into_iter();
                // This term's place in a stack region: where its last-pass
                // operand lands, written by pass d−2 (or, at d = 1, by the
                // staging copy).
                let place = rows * last.dimi..rows * last.dimi + term_len;
                let kr_last = kr_of(krs, d - 1, passes);
                // The input of the next pass: the stamp of the region it
                // reads (the coefficient's bits at pass 0) and that region.
                let (mut input, mut from) = (coeff.to_bits(), 0);
                for (p, pass) in passes[..lead].iter().enumerate() {
                    let h = block(hs.next(), p, passes);
                    keys[p] = (address(h), kr_of(krs, p, passes));
                    let at_stack = p + 1 == lead;
                    let (row, kr_read) = if at_stack { (rows, kr_last) } else { (0, 0) };
                    let here = (ix * lead + p) * W;
                    let level = &slots[here..here + W];
                    // A rank-reduced slot starts `kr` rows after its
                    // predecessor, inside the predecessor's full
                    // intermediate, so a slot holds only while nothing has
                    // run over its rows since.
                    let holds = |g: usize| {
                        let slot = &level[g];
                        slot.stamp > fresh
                            && (slot.input, slot.pass) == (input, keys[p])
                            && (slot.row, slot.kr_last) == (row, kr_read)
                            && row_stamps[g * stack_rows + row..][..kr_read]
                                .iter()
                                .all(|&s| s == slot.stamp)
                    };
                    // A task's slots all sit in its stack region: where its
                    // first slot is found, else region 0.
                    let found = if at_stack && ix > 0 {
                        holds(home).then_some(home)
                    } else {
                        (0..W).find(|&g| holds(g))
                    };
                    if at_stack && ix == 0 {
                        home = found.unwrap_or(0);
                        if task > fan && home != fan_region {
                            // The pending fan reads another region, so this
                            // task cannot join it: it runs now.
                            let a = &stack[fan_region * stack_len..][..stack_len];
                            let outs = fan_outs(outs, n_tasks, fan..task);
                            last.run_fan(fan_rows, a, panel, region, outs);
                            fan = task;
                        }
                        fan_region = home;
                    }
                    if let Some(g) = found {
                        (input, from) = (level[g].stamp, g);
                        continue;
                    }

                    let mut members = [h; W];
                    let n = if W > 1 {
                        let lead = Lead {
                            coeff: coeff.to_bits(),
                            keys: &keys[..=p],
                            kr_last,
                            at_stack,
                        };
                        let later = task + 1..n_tasks;
                        let term = &mut term as &mut dyn FnMut(usize, usize) -> Term<'a, I>;
                        leading_fan(term, mu, later, &lead, passes, &mut members)
                    } else {
                        1
                    };

                    // Member `j` writes region `first + j` (mod W): the
                    // task its own stack region, at every other level
                    // region 0 first.
                    let first = if at_stack { home } else { 0 };
                    let (below, at) = levels.split_at_mut(p);
                    let src_len = pass.dimk * pass.dimi;
                    let src = match below.last() {
                        Some(level) => &level[(from * chunk + ix) * src_len..][..src_len],
                        None => {
                            stage(coeff, source, staged);
                            &staged[..src_len]
                        }
                    };
                    // Member `j`'s output: region `first + j` of the
                    // regions, `stride` apart, at `range` within each.
                    let (buf, stride, range) = if at_stack {
                        if task > fan {
                            // The pending fan still reads the region this
                            // task is about to rewrite: it runs first, and
                            // this task starts the next fan at panel region 0.
                            let a = &stack[home * stack_len..][..stack_len];
                            let outs = fan_outs(outs, n_tasks, fan..task);
                            last.run_fan(fan_rows, a, panel, region, outs);
                            let g = (task - fan) * region;
                            panel.copy_within(g..g + rows * last.dimj, 0);
                            fan = task;
                        }
                        (&mut stack[..], stack_len, place.clone())
                    } else {
                        let dst_len = pass.dimi * pass.dimj;
                        let range = ix * dst_len..(ix + 1) * dst_len;
                        (&mut at[0][..], chunk * dst_len, range)
                    };
                    let kr = keys[p].1;
                    if n == 1 {
                        pass.run(kr, src, h.as_slice(), &mut buf[first * stride..][range]);
                    } else {
                        let mut cs: [&mut [f64]; FAN] = Default::default();
                        let regions = buf[..W * stride].chunks_exact_mut(stride);
                        for (g, r) in regions.enumerate() {
                            cs[(g + W - first) % W] = &mut r[range.clone()];
                        }
                        let mut bs: [&[f64]; FAN] = [&[]; FAN];
                        for (b, h) in bs.iter_mut().zip(&members[..n]) {
                            *b = h.as_slice();
                        }
                        pass.run_leading(kr, src, &bs[..n], &mut cs[..n]);
                    }

                    for (j, h) in members[..n].iter().enumerate() {
                        let g = (first + j) % W;
                        *stamp += 1;
                        if at_stack {
                            // The rewrite covers `last.dimk` rows from `row`.
                            row_stamps[g * stack_rows + row..][..last.dimk].fill(*stamp);
                        }
                        slots[here + g] = Slot {
                            stamp: *stamp,
                            input,
                            pass: (address(h), kr),
                            row,
                            kr_last: kr_read,
                        };
                    }
                    (input, from) = (slots[here + first].stamp, first);
                }
                if d == 1 {
                    // Every task's final pass has run (below), so nothing
                    // reads the stack this copy rewrites.
                    stage(coeff, source, &mut stack[place]);
                }

                let h = block(hs.next(), d - 1, passes);
                assert!(
                    hs.next().is_none(),
                    "need one operator matrix per dimension ({d}), got more"
                );
                let at = (task - fan) * region + rows * last.dimj;
                panel[at..at + kr_last * last.dimj]
                    .copy_from_slice(&h.as_slice()[..kr_last * last.dimj]);
                rows += kr_last;
            }
            fan_rows = rows;
            // The chunk's fused final pass: one (μ, k)-ascending chain
            // per output element, straight into each `out` of the fan. At
            // d = 1 the next task's staging copy rewrites the stack, so
            // the pass runs after every task.
            if d == 1 || task + 1 - fan == FAN {
                let a = &stack[fan_region * stack_len..][..stack_len];
                let outs = fan_outs(outs, n_tasks, fan..task + 1);
                last.run_fan(rows, a, panel, region, outs);
                fan = task + 1;
            }
        }
        if fan < n_tasks {
            let a = &stack[fan_region * stack_len..][..stack_len];
            let outs = fan_outs(outs, n_tasks, fan..n_tasks);
            last.run_fan(fan_rows, a, panel, region, outs);
        }
    }
}

/// Operator `p` of a term, checked against the shape of pass `p` of
/// `passes` (one per dimension).
#[inline]
fn block<'a>(h: Option<&'a Tensor>, p: usize, passes: &[Pass]) -> &'a Tensor {
    let d = passes.len();
    let h = h.unwrap_or_else(|| panic!("need one operator matrix per dimension ({d}), got {p}"));
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
}

/// Panics unless the rank reduction `krs` of a term has one entry per
/// pass of `passes`: checked once a term, so [`kr_of`] need not.
#[inline]
fn check_ranks(krs: Option<&[usize]>, passes: &[Pass]) {
    if let Some(krs) = krs {
        assert_eq!(
            krs.len(),
            passes.len(),
            "need one effective rank per dimension"
        );
    }
}

/// The rows pass `p` of `passes` contracts under the rank reduction
/// `krs`, which [`check_ranks`] has matched to the passes.
#[inline]
fn kr_of(krs: Option<&[usize]>, p: usize, passes: &[Pass]) -> usize {
    krs.map_or(passes[p].dimk, |krs| krs[p].min(passes[p].dimk))
}

/// A block's identity within a group call.
fn address(h: &Tensor) -> usize {
    std::ptr::from_ref(h) as usize
}

/// What a task that runs leading pass `p` of a term asks of the tasks
/// that would join its fan there.
struct Lead<'k> {
    /// The term's coefficient, as bits.
    coeff: u64,
    /// `(address of the block, contraction rows)` of passes `0..=p`.
    keys: &'k [(usize, usize)],
    /// The rows the task's last pass reads.
    kr_last: usize,
    /// Whether pass `p` writes the stack.
    at_stack: bool,
}

/// Fills `members[1..n]` with the blocks of the tasks of `later` that
/// join a leading fan at pass `p = lead.keys.len() − 1` of term `mu`,
/// whose first member is the asking task, and returns `n`, at most
/// `members.len()`. A task joins if it contracts the same input with the
/// same rows, with a block not yet in the fan — and at the stack's level
/// only with as many last-pass rows, so that a rank reduction set by the
/// displacement alone packs the slot at the asking task's row. The scan
/// stops at the first task that no longer shares the input. Kept out of
/// line: the group loop's own call of `term` stays its only inlined one.
#[inline(never)]
fn leading_fan<'a, I>(
    term: &mut dyn FnMut(usize, usize) -> Term<'a, I>,
    mu: usize,
    later: Range<usize>,
    lead: &Lead,
    passes: &[Pass],
    members: &mut [&'a Tensor],
) -> usize
where
    I: IntoIterator<Item = &'a Tensor>,
{
    let p = lead.keys.len() - 1;
    let mut n = 1;
    for next in later {
        if n == members.len() {
            break;
        }
        let other = term(next, mu);
        if other.coeff.to_bits() != lead.coeff {
            break;
        }
        check_ranks(other.krs, passes);
        let mut hs = other.hs.into_iter();
        let mut key = |q: usize| {
            let h = block(hs.next(), q, passes);
            (h, (address(h), kr_of(other.krs, q, passes)))
        };
        if (0..p).any(|q| key(q).1 != lead.keys[q]) {
            break;
        }
        let (h, (at, kr)) = key(p);
        let kr_last = kr_of(other.krs, passes.len() - 1, passes);
        let joins = kr == lead.keys[p].1
            && (!lead.at_stack || kr_last == lead.kr_last)
            && members[..n].iter().all(|&m| address(m) != at);
        if joins {
            members[n] = h;
            n += 1;
        }
    }
    n
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
    use crate::kernel::KernelId;

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

    /// `group`'s resolver pinned to each candidate kernel in turn.
    const PINNED: [fn(usize, usize) -> SpanKernel; 4] = [
        |_, _| kernel::pinned(KernelId::ScalarRuntime),
        |_, _| kernel::pinned(KernelId::ScalarConst),
        |_, _| kernel::pinned(KernelId::SimdConst),
        |_, _| kernel::pinned(KernelId::Blocked),
    ];

    /// What the tests plant in panels and prior outputs.
    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    /// One task of a group, term by term: the coefficient, the block of
    /// each dimension (an index into the pool) and the rank reduction.
    type Task = Vec<(f64, Vec<usize>, Option<Vec<usize>>)>;

    /// The most sources [`check_group`] stacks.
    const STACKED: usize = 8;

    /// `n` sources of `s`'s shape for a stacked call: `s` itself, then
    /// sources of their own values, source `j` with its own zero slabs
    /// (±0) — slab `j mod n_d` of the last dimension and slab `j mod n_1`
    /// of the first — so the stacked spans meet a different pattern of
    /// zero coefficients in each source's rows, and a source whose zero
    /// slab is not the one facing the panel's specials takes them in.
    fn sources_like(s: &Tensor, n: usize) -> Vec<Tensor> {
        let shape = s.shape();
        let (first, last) = (shape.dim(0), shape.dim(s.ndim() - 1));
        let slab_len = s.len() / first;
        let own = |j: usize| {
            let mut t = det_tensor(shape, 700 + j as u64);
            for (ix, x) in t.as_mut_slice().iter_mut().enumerate() {
                if ix % last == j % last || ix / slab_len == j % first {
                    *x = if ix % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            t
        };
        std::iter::once(s.clone()).chain((1..n).map(own)).collect()
    }

    /// Leading fans at every pass size under every kernel, so each loop
    /// runs under every candidate.
    const FORCED: fn(&Pass) -> bool = |_| true;

    /// Runs `tasks` as one group call under every candidate kernel and
    /// under the installed table, over `s` alone and then stacked over
    /// `S` = 2..=8 distinct sources (`s` and [`sources_like`] it), with
    /// leading fans [`FORCED`] and where [`leading_fans_pay`] puts them,
    /// and checks each source's output of each task against that task's
    /// own one-task call on that source, bit for bit.
    fn check_group(s: &Tensor, pool: &[Tensor], tasks: &[Task]) {
        let (n_terms, n_tasks) = (tasks[0].len(), tasks.len());
        let term = |task: usize, mu: usize| {
            let (coeff, hs, krs) = &tasks[task][mu];
            Term {
                coeff: *coeff,
                hs: hs.iter().map(|&b| &pool[b]),
                krs: krs.as_deref(),
            }
        };
        let sources = sources_like(s, STACKED);
        // Prior outputs, source-major (the source's shape: every block
        // is square) with every special value in them.
        let bases: Vec<Tensor> = (0..STACKED * n_tasks)
            .map(|out| {
                let mut base = det_tensor(s.shape(), 500 + out as u64);
                for (ix, x) in base.as_mut_slice().iter_mut().enumerate().step_by(7) {
                    *x = SPECIALS[(ix / 7 + out) % SPECIALS.len()];
                }
                base
            })
            .collect();
        let mut scratch = TransformScratch::new();
        let want: Vec<Tensor> = bases
            .iter()
            .enumerate()
            .map(|(out, base)| {
                let (source, task) = (&sources[out / n_tasks], out % n_tasks);
                let mut out = base.clone();
                let term = |mu| term(task, mu);
                transform_sum_accumulate(source, n_terms, term, &mut scratch, &mut out);
                out
            })
            .collect();
        let sources: Vec<&Tensor> = sources.iter().collect();
        let resolves = PINNED.into_iter().chain([kernel::resolve as _]);
        for (pick, resolve) in resolves.enumerate() {
            for n_src in 1..=STACKED {
                for (rule, fans) in [("forced", FORCED), ("by rule", leading_fans_pay)] {
                    let mut outs = bases[..n_src * n_tasks].to_vec();
                    let sources = &sources[..n_src];
                    group(
                        sources,
                        n_terms,
                        term,
                        &mut scratch,
                        &mut outs,
                        resolve,
                        fans,
                    );
                    for (out, (got, want)) in outs.iter().zip(&want).enumerate() {
                        let (source, task) = (out / n_tasks, out % n_tasks);
                        let same = kernel::same_bits(got.as_slice(), want.as_slice());
                        assert!(
                            same,
                            "kernel {pick}, {n_src} sources, fans {rule}: \
                             source {source}, task {task}"
                        );
                    }
                }
            }
        }
    }

    /// A `d = 3`, `k = 4` source and a pool of `3 · d` blocks per term
    /// (`δ = 0, 1, 2` in each dimension, as a radius-1 Apply has): block
    /// `(μ, p, δ)` is `pool[(μ·d + p)·3 + δ]`. Term `μ`'s stack is an
    /// exact zero at every row `i ≡ μ (mod 4)` — its second blocks have
    /// that column zeroed — so over four terms every row position of a
    /// 4-row block has one. The source's last-dimension slab 1 is zero,
    /// so is stack row 1 of every term, and that is the one row of the
    /// last blocks (the panel) that carries ±0, NaN and ±∞.
    fn displacement_case(rank: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
        let (d, k, slab) = (3, 4, 1);
        let mut s = det_tensor(Shape::cube(d, k), seed);
        for (ix, x) in s.as_mut_slice().iter_mut().enumerate() {
            if ix % k == slab {
                *x = if ix % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let mut pool: Vec<Tensor> = (0..rank * d * 3)
            .map(|ix| det_tensor(Shape::matrix(k, k), seed + 1 + ix as u64))
            .collect();
        for mu in 0..rank {
            for delta in 0..3 {
                let h = &mut pool[(mu * d + 1) * 3 + delta];
                for r in 0..k {
                    *h.at_mut(&[r, mu % k]) = if r % 2 == 0 { 0.0 } else { -0.0 };
                }
                let h = &mut pool[(mu * d + 2) * 3 + delta];
                for c in 0..k {
                    *h.at_mut(&[slab, c]) = SPECIALS[(mu + delta + c) % SPECIALS.len()];
                }
            }
        }
        (s, pool)
    }

    /// The task of displacement `δ` over [`displacement_case`]'s pool.
    fn displacement_task(
        rank: usize,
        delta: [usize; 3],
        krs: impl Fn(usize) -> Option<Vec<usize>>,
    ) -> Task {
        (0..rank)
            .map(|mu| {
                let hs = (0..3).map(|p| (mu * 3 + p) * 3 + delta[p]).collect();
                (0.75 - 0.125 * mu as f64, hs, krs(mu))
            })
            .collect()
    }

    /// One scratch runs group calls of 8, 3, 1 and then 8 sources, each
    /// call over values of its own, with and without leading fans: every
    /// call's outputs are a fresh scratch's bits, so no source an earlier
    /// call interleaved reaches a later call, whatever its `S`.
    #[test]
    fn a_scratch_interleaves_each_calls_sources_afresh() {
        let rank = 4;
        let (_, pool) = displacement_case(rank, 100);
        let tasks: Vec<Task> = [[0, 0, 0], [0, 0, 1], [1, 1, 1], [2, 1, 0]]
            .iter()
            .map(|&delta| displacement_task(rank, delta, |_| None))
            .collect();
        let term = |task: usize, mu: usize| {
            let (coeff, hs, _) = &tasks[task][mu];
            Term {
                coeff: *coeff,
                hs: hs.iter().map(|&b| &pool[b]),
                krs: None,
            }
        };
        let shape = Shape::cube(3, 4);
        let mut shared = TransformScratch::new();
        for (call, n_src) in [8, 3, 1, 8].into_iter().enumerate() {
            let sources: Vec<Tensor> = (0..n_src)
                .map(|j| det_tensor(shape, (1000 * call + j) as u64))
                .collect();
            let sources: Vec<&Tensor> = sources.iter().collect();
            for fans in [FORCED, leading_fans_pay] {
                let run = |scratch: &mut TransformScratch| {
                    let mut outs = vec![Tensor::zeros(shape); n_src * tasks.len()];
                    group(
                        &sources,
                        rank,
                        term,
                        scratch,
                        &mut outs,
                        kernel::resolve,
                        fans,
                    );
                    outs
                };
                let (got, want) = (run(&mut shared), run(&mut TransformScratch::new()));
                for (out, (got, want)) in got.iter().zip(&want).enumerate() {
                    let same = kernel::same_bits(got.as_slice(), want.as_slice());
                    assert!(same, "call {call} ({n_src} sources): output {out}");
                }
            }
        }
    }

    /// Runs of `δz` siblings one, three, two and one long make fans of
    /// every width, each output its one-task call's bits.
    #[test]
    fn fans_of_one_two_and_three_match_one_task_calls() {
        let rank = 6;
        let (s, pool) = displacement_case(rank, 100);
        let deltas = [
            [1, 1, 1],
            [0, 0, 0],
            [0, 0, 1],
            [0, 0, 2],
            [0, 1, 0],
            [0, 1, 2],
            [2, 2, 2],
        ];
        let tasks: Vec<Task> = deltas
            .iter()
            .map(|&delta| displacement_task(rank, delta, |_| None))
            .collect();
        check_group(&s, &pool, &tasks);
    }

    /// Rank-reduced siblings whose last-pass rows differ — in the last
    /// term, where nothing after it moves a slot, and in a middle one —
    /// do not share a stack, so the fan breaks there.
    #[test]
    fn siblings_with_other_last_pass_rows_break_the_fan() {
        let rank = 5;
        let (s, pool) = displacement_case(rank, 200);
        let krs = |last_at: usize, kr: usize| {
            move |mu: usize| Some(vec![4, 3, if mu == last_at { kr } else { 4 }])
        };
        let tasks = [
            displacement_task(rank, [0, 0, 0], krs(rank - 1, 4)),
            displacement_task(rank, [0, 0, 1], krs(rank - 1, 2)),
            displacement_task(rank, [0, 0, 2], krs(rank - 1, 2)),
            displacement_task(rank, [0, 0, 0], krs(2, 3)),
            displacement_task(rank, [0, 0, 1], krs(2, 3)),
            displacement_task(rank, [0, 0, 2], krs(2, 1)),
        ];
        check_group(&s, &pool, &tasks);
    }

    /// A pending fan of two is cut in the middle of the next task, at
    /// the first term whose stack that task rewrites: the fan must see
    /// the stack as it was, and the task's panel rows written so far
    /// move to region 0. The cut lands on a middle term, then on the
    /// last.
    #[test]
    fn a_fan_cut_mid_task_by_a_stack_rewrite() {
        let rank = 6;
        let (s, pool) = displacement_case(rank, 300);
        // Task `δ` with term `μ`'s block of dimension `p` swapped, for
        // each `(μ, p)` of `swaps`.
        let swapped = |delta: [usize; 3], swaps: &[(usize, usize)]| {
            let mut task = displacement_task(rank, delta, |_| None);
            for &(mu, p) in swaps {
                task[mu].1[p] = (mu * 3 + p) * 3 + (delta[p] + 1) % 3;
            }
            task
        };
        let (mid, last) = ((3, 0), (rank - 1, 1));
        let tasks = [
            swapped([0, 0, 0], &[]),
            swapped([0, 0, 1], &[]),
            swapped([0, 0, 2], &[mid]),
            swapped([0, 0, 0], &[mid]),
            swapped([0, 0, 1], &[mid, last]),
            swapped([0, 0, 2], &[mid, last]),
        ];
        check_group(&s, &pool, &tasks);
    }

    /// At k = 10 a chunk holds four terms, so rank 34 is nine chunks of
    /// up to 40 contraction rows, and the `δz` siblings fan: on an
    /// AVX-512 host each fan of two or three runs as one packed span,
    /// elsewhere as one span per task.
    #[test]
    fn a_k10_group_over_nine_chunks_fans_on_avx512_hosts() {
        let (d, k, rank) = (3, 10, 34usize);
        assert_eq!(rank.div_ceil(STACK_ELEMS / (k * k * k)), 9);
        let pool: Vec<Tensor> = (0..rank * d * 3)
            .map(|ix| det_tensor(Shape::matrix(k, k), 400 + ix as u64))
            .collect();
        let s = det_tensor(Shape::cube(d, k), 4);
        let deltas = [
            [0, 0, 0],
            [0, 0, 1],
            [0, 0, 2],
            [1, 0, 0],
            [1, 0, 1],
            [2, 1, 2],
        ];
        let tasks: Vec<Task> = deltas
            .iter()
            .map(|&delta| {
                (0..rank)
                    .map(|mu| {
                        let hs = (0..d).map(|p| (mu * d + p) * 3 + delta[p]).collect();
                        (1.0 + mu as f64, hs, None)
                    })
                    .collect()
            })
            .collect();
        check_group(&s, &pool, &tasks);
    }

    /// A `d`-dimensional, `k = 4` source and a pool of `width` blocks a
    /// term and dimension (`δ = 0 … width − 1`, as a radius-`(width −
    /// 1)/2` Apply has): block `(μ, p, δ)` is `pool[(μ·d + p)·width + δ]`.
    /// The source's first slab is an exact zero, which every pass meets.
    fn box_case(d: usize, rank: usize, width: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
        let k = 4;
        let mut s = det_tensor(Shape::cube(d, k), seed);
        let slab = s.len() / k;
        for (ix, x) in s.as_mut_slice()[..slab].iter_mut().enumerate() {
            *x = if ix % 2 == 0 { 0.0 } else { -0.0 };
        }
        let pool = (0..rank * d * width)
            .map(|ix| det_tensor(Shape::matrix(k, k), seed + 1 + ix as u64))
            .collect();
        (s, pool)
    }

    /// The task of every displacement of a `width`-wide `d`-box that
    /// `keep` keeps, `δ_1` slowest as Apply lists them, over
    /// [`box_case`]'s pool, with the rank reduction `krs(μ, δ)`.
    fn box_tasks(
        d: usize,
        rank: usize,
        width: usize,
        keep: impl Fn(&[usize]) -> bool,
        krs: impl Fn(usize, &[usize]) -> Option<Vec<usize>>,
    ) -> Vec<Task> {
        let deltas = (0..width.pow(d as u32)).map(|ix| {
            let digit = |p: usize| ix / width.pow((d - 1 - p) as u32) % width;
            (0..d).map(digit).collect::<Vec<_>>()
        });
        deltas
            .filter(|delta| keep(delta))
            .map(|delta| {
                let term = |mu: usize| {
                    let hs = (0..d).map(|p| (mu * d + p) * width + delta[p]).collect();
                    (0.5 + 0.25 * mu as f64, hs, krs(mu, &delta))
                };
                (0..rank).map(term).collect()
            })
            .collect()
    }

    /// One group call over `tasks` on `s` alone into zeroed outputs, with
    /// the span kernels from `resolve` and leading fans where `fans` puts
    /// them; returns the scratch it left.
    fn run_group(
        s: &Tensor,
        pool: &[Tensor],
        tasks: &[Task],
        resolve: fn(usize, usize) -> SpanKernel,
        fans: fn(&Pass) -> bool,
    ) -> TransformScratch {
        let term = |task: usize, mu: usize| {
            let (coeff, hs, krs) = &tasks[task][mu];
            Term {
                coeff: *coeff,
                hs: hs.iter().map(|&b| &pool[b]),
                krs: krs.as_deref(),
            }
        };
        let mut outs = vec![Tensor::zeros(s.shape()); tasks.len()];
        let mut scratch = TransformScratch::new();
        group(
            &[s],
            tasks[0].len(),
            term,
            &mut scratch,
            &mut outs,
            resolve,
            fans,
        );
        scratch
    }

    /// Span dispatches of one group call over `tasks` on `s` alone under
    /// the SIMD kernel, which runs a width-4 fan as one span on an AVX
    /// host (`None` elsewhere), with leading fans at every pass size.
    fn simd_spans(s: &Tensor, pool: &[Tensor], tasks: &[Task]) -> Option<u64> {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;
        static SPANS: AtomicU64 = AtomicU64::new(0);
        static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
        if !kernel::simd_available() {
            return None;
        }
        let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        SPANS.store(0, Ordering::Relaxed);
        let counted = |_, _| kernel::counted(KernelId::SimdConst, &SPANS);
        run_group(s, pool, tasks, counted, FORCED);
        Some(SPANS.load(Ordering::Relaxed))
    }

    /// Whether one group call over `tasks` on `s` alone under `resolve`,
    /// with leading fans where [`leading_fans_pay`] puts them, kept
    /// [`FAN`] regions a term slot: its fresh scratch holds one slot
    /// record a region of each of `chunk` slots and `d − 1` levels.
    fn runs_fans(
        s: &Tensor,
        pool: &[Tensor],
        tasks: &[Task],
        resolve: fn(usize, usize) -> SpanKernel,
    ) -> bool {
        let chunk = (STACK_ELEMS / s.len()).clamp(1, tasks[0].len());
        let slots = run_group(s, pool, tasks, resolve, leading_fans_pay).slots;
        slots.len() / (chunk * (s.ndim() - 1)) == FAN
    }

    /// A `d`-dimensional source of order `k` and the tasks of its three
    /// siblings along the last dimension (`δ_1 … δ_{d−1} = 0`), two terms
    /// each: pass 0 does `k^{d+1}` multiply-adds, 10,000 at `d = 3`,
    /// `k = 10`.
    fn siblings(d: usize, k: usize) -> (Tensor, Vec<Tensor>, Vec<Task>) {
        let (rank, width) = (2, 3);
        let pool = (0..rank * d * width)
            .map(|ix| det_tensor(Shape::matrix(k, k), 600 + ix as u64))
            .collect();
        let leading_zero = |delta: &[usize]| delta[..d - 1].iter().all(|&x| x == 0);
        let tasks = box_tasks(d, rank, width, leading_zero, |_, _| None);
        (det_tensor(Shape::cube(d, k), 6), pool, tasks)
    }

    /// Where the span kernel has no fan body, a fan would be one span per
    /// member, so a k = 10 call runs no leading fans however large its
    /// passes.
    #[test]
    fn a_k10_call_under_a_scalar_kernel_runs_no_leading_fans() {
        let (s, pool, tasks) = siblings(3, 10);
        let scalar = |_, _| kernel::pinned(KernelId::ScalarRuntime);
        assert!(!runs_fans(&s, &pool, &tasks, scalar));
    }

    /// Under the SIMD kernel a k = 10 call runs leading fans exactly where
    /// the host has the width-10 fan body. No host fans a k = 4 call,
    /// whose passes are too small, ScfApp's d = 3, k = 5 source, whose
    /// pass 0 does 5·25·5 = 625 multiply-adds, or the TDSE d = 4, k = 14
    /// shape, which has no fan body at width 14.
    #[test]
    fn leading_fans_run_where_the_simd_kernel_fans_that_wide() {
        let simd = |_, _| kernel::pinned(KernelId::SimdConst);
        let (s, pool, tasks) = siblings(3, 10);
        assert_eq!(runs_fans(&s, &pool, &tasks, simd), crate::simd::has_fan(10));
        let (s, pool) = box_case(3, 2, 3, 50);
        let tasks = box_tasks(3, 2, 3, |_| true, |_, _| None);
        assert!(!runs_fans(&s, &pool, &tasks, simd));
        assert!(5 * 25 * 5 < FAN_PASS_MACS && !crate::simd::has_fan(14));
        for (d, k) in [(3, 5), (4, 14)] {
            let (s, pool, tasks) = siblings(d, k);
            assert!(!runs_fans(&s, &pool, &tasks, simd), "d = {d}, k = {k}");
        }
    }

    /// A full box at d = 2, 3 and 4: each leading pass runs its `width`
    /// siblings as fans of three — `⌈w/3⌉` spans at pass 0, `w·⌈w/3⌉`
    /// at pass 1, `w²·⌈w/3⌉` at pass 2 — and each output keeps its
    /// one-task call's bits, every source of a stack.
    #[test]
    fn leading_fans_over_full_boxes_at_d2_d3_d4() {
        let (rank, w) = (3, 3u64);
        for d in 2..=4 {
            let (s, pool) = box_case(d, rank, w as usize, 10 * d as u64);
            let tasks = box_tasks(d, rank, w as usize, |_| true, |_, _| None);
            check_group(&s, &pool, &tasks);
            // One chunk of terms at k = 4; a `δ_d` triple a final fan.
            let leading: u64 = (0..d as u32 - 1).map(|p| w.pow(p)).sum();
            let want = rank as u64 * leading + w.pow(d as u32 - 1);
            if let Some(spans) = simd_spans(&s, &pool, &tasks) {
                assert_eq!(spans, want, "d = {d}");
            }
        }
    }

    /// At d = 1 a group call has no leading pass: each task stages every
    /// term of the chunk straight into the stack, so its final pass runs
    /// before the next task's staging copy, one span a task, fans forced
    /// or not. Term 2 keeps as many rows as its displacement says.
    #[test]
    fn a_d1_group_runs_each_tasks_final_pass_alone() {
        let (d, rank, w) = (1, 5, 3);
        let (s, pool) = box_case(d, rank, w, 80);
        let krs = |mu: usize, delta: &[usize]| (mu == 2).then(|| vec![2 + delta[0]]);
        let tasks = box_tasks(d, rank, w, |_| true, krs);
        check_group(&s, &pool, &tasks);
        if let Some(spans) = simd_spans(&s, &pool, &tasks) {
            assert_eq!(spans, w as u64);
        }
    }

    /// A radius-2 box has five siblings a pass, more than a fan holds:
    /// a fan of three and one of two, the second reusing the regions the
    /// first filled once its tasks are done with them.
    #[test]
    fn a_radius_2_box_reuses_the_regions() {
        let (d, rank, w) = (3, 2, 5);
        let (s, pool) = box_case(d, rank, w, 40);
        let tasks = box_tasks(d, rank, w, |_| true, |_, _| None);
        check_group(&s, &pool, &tasks);
        if let Some(spans) = simd_spans(&s, &pool, &tasks) {
            assert_eq!(spans, (rank * (2 + w * 2) + w * w * 2) as u64);
        }
    }

    /// Rank-reduced siblings contract as many rows as their own
    /// displacement keeps: where two siblings' rows differ at a pass they
    /// run apart, and where their last-pass rows differ they pack their
    /// stacks apart; the rest still fan. In a list with holes.
    #[test]
    fn rank_reduced_siblings_fan_only_with_their_own_rows() {
        let (d, rank, w) = (3, 5, 3);
        let (s, pool) = box_case(d, rank, w, 50);
        let krs = |mu: usize, delta: &[usize]| {
            let kr = |p: usize| {
                if (delta[p] + mu + p).is_multiple_of(3) {
                    2
                } else {
                    4 - delta[p] % 2
                }
            };
            Some((0..d).map(kr).collect())
        };
        let holes = |delta: &[usize]| delta != [1, 1, 1] && delta != [2, 0, 1];
        let tasks = box_tasks(d, rank, w, holes, krs);
        check_group(&s, &pool, &tasks);
    }

    /// A fan writes a mate's slot into a region another layout left:
    /// at d = 2 task (0, 0) fans both its slots with (1, 0) into region
    /// 1, rows 0..4 and 4..8; task (0, 1), whose term 0 keeps two
    /// last-pass rows, fans its slot 1 with (1, 0) there too, at rows
    /// 2..6 — over (1, 0)'s slot 0, whose record still matches. Only the
    /// row stamps tell (1, 0) to run its slot 0 again.
    #[test]
    fn a_fan_over_rows_another_layout_left_is_seen_by_their_stamps() {
        let (d, rank, w) = (2, 2, 2);
        let (s, pool) = box_case(d, rank, w, 70);
        let krs = |mu: usize, delta: &[usize]| {
            let short = mu == 0 && delta == [0, 1];
            Some(vec![4, if short { 2 } else { 4 }])
        };
        let tasks = box_tasks(d, rank, w, |delta| delta != [1, 1], krs);
        check_group(&s, &pool, &tasks);
    }

    /// Sibling runs that do not line up across terms: in term 1 the
    /// `δ = 1` and `δ = 2` blocks of the first two dimensions are one
    /// tensor, so that term's fans are narrower than the others', and a
    /// task's fan mates of one term are not those of the next.
    #[test]
    fn sibling_runs_that_differ_from_term_to_term() {
        let (d, rank, w) = (3, 4, 3);
        let (s, pool) = box_case(d, rank, w, 60);
        let mut tasks = box_tasks(d, rank, w, |delta| delta[2] != 1, |_, _| None);
        for task in &mut tasks {
            for p in 0..2 {
                let block = &mut task[1].1[p];
                if *block % w == 2 {
                    *block -= 1;
                }
            }
        }
        check_group(&s, &pool, &tasks);
    }

    /// A final pass too tall for one tile runs each source's row block
    /// in tiles of its own: at `(100, 200) × 200` a tile is 80 rows, so
    /// every source's block is two spans, the second starting mid-block.
    #[test]
    fn a_stacked_final_pass_tiles_inside_each_sources_rows() {
        let (ins, outs) = ([2, 200], [100, 200]);
        assert_eq!(kernel::pass_tile_rows(outs[0], outs[1], ins[1]), 80);
        let s = det_tensor(Shape::new(&ins), 31);
        let pool: Vec<Tensor> = (0..2)
            .map(|p| det_tensor(Shape::matrix(ins[p], outs[p]), 32 + p as u64))
            .collect();
        let term = |_, _| Term {
            coeff: 0.5,
            hs: pool.iter(),
            krs: None,
        };
        let sources = sources_like(&s, 3);
        let mut scratch = TransformScratch::new();
        let want: Vec<Tensor> = sources
            .iter()
            .map(|source| {
                let mut out = det_tensor(Shape::new(&outs), 33);
                transform_sum_accumulate(source, 1, |mu| term(0, mu), &mut scratch, &mut out);
                out
            })
            .collect();
        let mut got = vec![det_tensor(Shape::new(&outs), 33); 3];
        let sources: Vec<&Tensor> = sources.iter().collect();
        transform_sum_accumulate_group(&sources, 1, term, &mut scratch, &mut got);
        for (source, (got, want)) in got.iter().zip(&want).enumerate() {
            assert!(
                kernel::same_bits(got.as_slice(), want.as_slice()),
                "source {source}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "5 outputs are not one task list for each of 2 sources")]
    fn outputs_that_are_not_whole_task_lists_panic() {
        let t = Tensor::zeros(Shape::cube(2, 3));
        let h = Tensor::identity(3);
        let term = |_, _| Term {
            coeff: 1.0,
            hs: [&h, &h],
            krs: None,
        };
        let mut outs = vec![t.clone(); 5];
        transform_sum_accumulate_group(&[&t, &t], 1, term, &mut TransformScratch::new(), &mut outs);
    }

    #[test]
    #[should_panic(expected = "the sources of a group must share one shape")]
    fn sources_of_two_shapes_panic() {
        let (t, u) = (
            Tensor::zeros(Shape::cube(2, 3)),
            Tensor::zeros(Shape::new(&[3, 2])),
        );
        let h = Tensor::identity(3);
        let term = |_, _| Term {
            coeff: 1.0,
            hs: [&h, &h],
            krs: None,
        };
        let mut outs = vec![t.clone(); 2];
        transform_sum_accumulate_group(&[&t, &u], 1, term, &mut TransformScratch::new(), &mut outs);
    }

    #[test]
    #[should_panic(expected = "need one effective rank per dimension")]
    fn wrong_rank_count_panics() {
        let t = Tensor::zeros(Shape::cube(3, 3));
        let (h, mut out) = (Tensor::identity(3), t.clone());
        let mut scratch = TransformScratch::new();
        transform_rr_accumulate_scaled(&t, 1.0, &[&h, &h, &h], &[3, 3], &mut scratch, &mut out);
    }

    /// A later task's rank reduction with too few entries is caught when
    /// an earlier task's leading fan asks for its term.
    #[test]
    #[should_panic(expected = "need one effective rank per dimension")]
    fn a_wrong_rank_count_met_by_a_leading_fan_panics() {
        let (s, pool) = box_case(3, 1, 3, 60);
        let mut tasks = box_tasks(3, 1, 3, |_| true, |_, _| Some(vec![4, 4, 4]));
        tasks[1][0].2 = Some(vec![4, 4]);
        let scalar = |_, _| kernel::pinned(KernelId::ScalarRuntime);
        run_group(&s, &pool, &tasks, scalar, FORCED);
    }

    #[test]
    #[should_panic(expected = "one operator matrix per dimension")]
    fn wrong_operator_count_panics() {
        let t = Tensor::zeros(Shape::cube(3, 3));
        let h = Tensor::identity(3);
        let _ = transform(&t, &[&h, &h]);
    }
}
