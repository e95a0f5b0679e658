//! # madness-bench
//!
//! The experiment harness: every table and figure of the CLUSTER 2012
//! paper's evaluation, regenerated over the simulated cluster
//! (`tablegen` binary), plus ablation studies of the design choices.
//! Everything here reports simulated time except the span-kernel
//! shootout ([`kernels_report`]); wall-clock performance of the real
//! Apply path and of the simulators is measured by the standalone
//! `benchmark/` package (`BENCHMARK.json`), not by this crate.
//!
//! Experiment ↔ module map (per-experiment index in DESIGN.md §4):
//!
//! | experiment | function |
//! |---|---|
//! | Table I    | [`tables::table1`] |
//! | Table II   | [`tables::table2`] |
//! | Table III  | [`tables::table3`] |
//! | Table IV   | [`tables::table4`] |
//! | Table V    | [`tables::table5`] |
//! | Table VI   | [`tables::table6`] |
//! | Figure 5   | [`figures::fig5`] |
//! | Figure 6   | [`figures::fig6`] |
//! | Ablations  | [`ablation`] |
//! | Trace      | [`trace_report::trace_table1`] |
//! | Kernels    | [`kernels_report::kernels_table`] |
//! | Dispatch   | [`dispatch_report::dispatch_table1`] |
//! | Faults     | [`faults_report::faults_table1`] |
//! | Balance    | [`balance_report::balance_table`] |
//! | Serve      | [`serve_report::serve_table`] |
//! | Dag        | [`dag_report::dag_table`] |
//! | Chaos      | [`chaos_report::chaos_table`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod balance_report;
pub mod chaos_report;
pub mod dag_report;
pub mod dispatch_report;
pub mod faults_report;
pub mod figures;
pub mod kernels_report;
pub mod serve_report;
pub mod tables;
pub mod trace_report;
