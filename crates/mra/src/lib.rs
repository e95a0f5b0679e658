//! # madness-mra
//!
//! The multiresolution-analysis (MRA) substrate of madness-rs.
//!
//! MADNESS represents a function `f : [0,1]^d → ℝ` in an orthonormal
//! multiwavelet basis over an *adaptively refined* dyadic mesh: the
//! simulation volume is a telescoping series of grids (Fig. 1 of the
//! paper), realized as a highly unbalanced `2^d`-ary tree whose nodes
//! carry small `k^d` coefficient tensors. This crate builds that substrate
//! from scratch:
//!
//! * [`key::Key`] — (level, translation) addresses with child / parent /
//!   neighbor arithmetic;
//! * [`quadrature`] — Gauss-Legendre nodes/weights and Legendre scaling
//!   functions (the basis MADNESS uses);
//! * [`twoscale`] — the orthogonal two-scale (filter) matrices connecting
//!   a parent box to its children, built by Gram-Schmidt completion of the
//!   scaling-function rows;
//! * [`tree::FunctionTree`] — the distributed-hash-table-style node store;
//! * [`project`] — adaptive projection of analytic functions (refine until
//!   the wavelet norm falls below the requested precision);
//! * [`ops`] — the framework operators the paper names: Compress,
//!   Reconstruct, Truncate (Apply lives in `madness-core`);
//! * [`convolution`] — separated-rank Gaussian convolutions: the `h^{(μ,i)}`
//!   operator blocks of Formula 1, their software cache, the fixed box of
//!   displacements every source visits, and per-block effective ranks for
//!   rank reduction;
//! * [`synth`] — synthetic tree generation for cluster-scale,
//!   timing-only experiments (matching the paper's task counts);
//! * [`procmap`] — MADNESS-style process maps (tree-node → compute-node);
//! * [`arith`] — function arithmetic: `αf + βg` and scaling (MADNESS's
//!   `gaxpy`), which the SCF and BSH-chain apps call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index loops over multiple parallel arrays are the clearest idiom for
// the numeric kernels here; the iterator rewrites clippy suggests hurt
// readability without changing codegen.
#![allow(clippy::needless_range_loop)]

pub mod arith;
pub mod convolution;
pub mod hashing;
pub mod key;
pub mod ops;
pub mod procmap;
pub mod project;
pub mod quadrature;
pub mod synth;
pub mod tree;
pub mod twoscale;

pub use convolution::{Displacement, SeparatedConvolution};
pub use key::Key;
pub use procmap::{EvenMap, ProcessMap, SubtreeMap};
pub use project::project_adaptive;
pub use tree::{FunctionTree, Node};
pub use twoscale::TwoScale;

/// Maximum mesh dimensionality (re-exported from `madness-tensor`).
pub use madness_tensor::MAX_DIMS;
