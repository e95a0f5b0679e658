//! # madness-bench
//!
//! The experiment harness: every table and figure of the CLUSTER 2012
//! paper's evaluation, regenerated over the simulated cluster
//! (`tablegen` binary), plus ablation studies of the design choices.
//! Everything here reports simulated time except the span-kernel
//! shootout (`tablegen kernels`); wall-clock performance of the real
//! Apply path and of the simulators is measured by the standalone
//! `benchmark/` package (`BENCHMARK.json`), not by this crate.
//!
//! One model serves every experiment: a row of [`EXPERIMENTS`] names it,
//! carries its banner and runs it to a [`Report`] — printed text, named
//! gates, and at most one file (a `BENCH_*.json` trajectory point built
//! as an ordered JSON object and laid out by the crate's one printer,
//! `report::Obj::pretty`). [`tablegen`] is the whole command line: it
//! loops over the table, and its exit code is the gate (0 = everything
//! printed, every due file written, every gate true; 1 = a write failed
//! or a gate is false; 2 = unknown experiment name). The per-experiment
//! index is DESIGN.md §4.
//!
//! The paper tables' and figures' *data* stay a public API
//! ([`tables::table1`] … [`tables::table6`], [`figures::fig5`],
//! [`figures::fig6`]): `tests/paper_goldens.rs` pins their values, and
//! `tests/bench_goldens.rs` pins what the report experiments print and
//! write.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod balance_report;
mod chaos_report;
mod dag_report;
mod dispatch_report;
mod faults_report;
pub mod figures;
mod kernels_report;
mod pinned;
mod registry;
mod report;
mod serve_report;
pub mod tables;
mod trace_report;

pub use registry::{tablegen, Experiment, EXPERIMENTS};
pub use report::{Artifact, Gate, Report};
