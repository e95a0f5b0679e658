//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p madness-bench --bin tablegen -- all
//! cargo run --release -p madness-bench --bin tablegen -- table1 fig5
//! cargo run --release -p madness-bench --bin tablegen -- --json serve dag
//! ```
//!
//! `--json` also writes the `BENCH_*.json` trajectory point of each
//! experiment that has one. Exit code 1: a gate of a requested
//! experiment is false or a file could not be written; 2: unknown name.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(madness_bench::tablegen(&args));
}
