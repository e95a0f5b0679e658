//! # madness-tensor
//!
//! Dense small-tensor kernels for the madness-rs workspace.
//!
//! MADNESS (Multiresolution ADaptive Numerical Environment for Scientific
//! Simulation) represents functions as trees of *small* `d`-dimensional
//! coefficient tensors with `k` values per dimension (`k` typically 10–28,
//! `d` = 3 or 4). Every heavy operator in the framework reduces to many
//! multiplications of a `(k^{d-1}, k)` matrix (a tensor with one dimension
//! "rotated" to the end) by a small `(k, k)` operator matrix — the kernel
//! the CLUSTER 2012 paper calls `mtxm`/`cu_mtxm`.
//!
//! This crate provides:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f64` tensor of up to
//!   [`MAX_DIMS`] dimensions;
//! * [`mtxmq`] — the transpose-times-matrix kernel
//!   `C(i,j) = Σ_k A(k,i)·B(k,j)` with cache-friendly loop order;
//! * [`transform`] — applies one `(k,k)` matrix per dimension by cycling
//!   `mtxmq`-shaped passes `d` times (Formula 1 of the paper for a single
//!   rank-`μ` term), cache-blocked so large `(k^{d-1}, k)` passes stream
//!   through L2 in row tiles; [`transform_accumulate_scaled`] and its
//!   rank-reduced twin [`transform_rr_accumulate_scaled`] (the paper's
//!   *rank reduction*, Fig. 4: a pass contracts only the leading rows)
//!   are the one-term `out += c_μ · …` statement;
//! * [`transform_sum_accumulate`] — the task-level kernel: the whole
//!   rank-`M` Σ_μ loop of Formula 1 in one call, with the last dimension
//!   of a chunk of terms contracted in one long span;
//! * [`transform_sum_accumulate_group`] — the same loop over every
//!   displacement task of one source at once: a leading pass whose
//!   inputs the previous task already contracted is not run again
//!   (41 of a source's 81 passes per term are), bit for bit the
//!   one-task results;
//! * [`kernel`] — the per-`(d, k)` autotuned kernel table: candidate span
//!   kernels (runtime-width scalar, const-width scalar, row-blocked AVX
//!   where the host has it, cache-blocked) microbenchmarked at startup
//!   with the pick dispatched per pass shape — all candidates
//!   bit-identical;
//! * FLOP accounting ([`flops`]) used by the simulators' cost models.
//!
//! All arithmetic is deterministic `f64`; the simulated-GPU crate executes
//! these same kernels so CPU and "GPU" results are directly comparable.

#![warn(missing_docs)]
// `unsafe` is denied everywhere except the explicitly-vectorized
// kernels: `src/simd.rs` (and only that module) opts back in for the
// AVX intrinsic loads/stores.
#![deny(unsafe_code)]
// Index loops over multiple parallel arrays are the clearest idiom for
// the numeric kernels here; the iterator rewrites clippy suggests hurt
// readability without changing codegen.
#![allow(clippy::needless_range_loop)]

pub mod flops;
pub mod kernel;
pub mod mtxmq;
pub mod shape;
mod simd;
pub mod tensor;
pub mod transform;

pub use flops::{mtxmq_flops, transform_flops};
pub use kernel::{KernelId, KernelTable};
pub use mtxmq::mtxmq;
pub use shape::Shape;
pub use tensor::Tensor;
pub use transform::{
    transform, transform_accumulate_scaled, transform_rr_accumulate_scaled,
    transform_sum_accumulate, transform_sum_accumulate_group, Term, TransformScratch, Workspace,
};

/// Maximum tensor dimensionality supported by [`Shape`].
///
/// The paper only needs `d ∈ {3, 4}`; 6 leaves headroom for the
/// separated-rank bookkeeping without heap-allocating shapes.
pub const MAX_DIMS: usize = 6;
