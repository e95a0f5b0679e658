//! # madness-runtime
//!
//! The MADNESS-style task runtime plus the paper's **library extensions
//! for asynchronous batching** — the central contribution of
//! "Adapting Irregular Computations to Large CPU-GPU Clusters in the
//! MADNESS Framework" (§II).
//!
//! MADNESS employs *many small tasks*; launching a GPU kernel per task is
//! hopeless (launch overhead, transfer latency, occupancy). The extension
//! layer lets an algorithm developer split a task into
//! `preprocess → compute → postprocess` sub-tasks. This crate holds the
//! mechanisms; the two pipelines built from them are the real one,
//! `madness_core::apply`, and the simulated one,
//! `madness_cluster::node`. Between the sub-tasks the runtime:
//!
//! * runs `preprocess`/`postprocess` on CPU worker threads
//!   ([`pool::WorkerPool`]);
//! * aggregates `compute` inputs into **per-kind batches**
//!   ([`batcher::Batcher`]), where a kind combines the compute function's
//!   identity with a user hash of the input data;
//! * flushes batches on a (simulated) timer or size trigger; and
//! * has a **dispatcher** split each flushed batch between CPU threads
//!   and the GPU at the optimal ratio `k* = n/(m+n)`
//!   ([`dispatch::optimal_split`]), for minimal time `m·n/(m+n)` — one
//!   [`dispatch::Dispatcher`], whose plan both pipelines call, behind
//!   the device-health gate and beside a learned arm
//!   ([`adaptive::AdaptiveDispatcher`]).
//!
//! [`cpu::CpuModel`] provides the calibrated 16-core AMD Interlagos
//! timing model used for the CPU-side estimates and the Table I–VI
//! reproductions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod batcher;
pub mod cpu;
pub mod dispatch;
pub mod graph;
pub mod pool;

pub use adaptive::{AdaptiveConfig, AdaptiveDispatcher, DispatchDecision};
pub use batcher::{Batcher, BatcherConfig, TaskKind, TenantId};
pub use cpu::CpuModel;
pub use dispatch::{
    hybrid_optimal_time, measured_split, optimal_split, Dispatcher, SplitPlan, SplitPolicy,
};
pub use graph::{Future, GraphRunStats, TaskGraph, TaskId};
/// The device-health gate [`Dispatcher::plan`] obeys.
pub use madness_faults::GpuGate;
pub use pool::{global_pool, initialize_hot_path, WorkerPool};
