//! The repo benchmark: one command, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --repeat-check
//! ```
//!
//! A run prints the host block, every metric by name with its unit,
//! checks the outputs, and ends with one JSON result line; a failed
//! check makes the exit code non-zero. See `benchmark/README.md`.

mod host;
mod hostclock;
mod metrics;
mod probes;
mod repeat;
mod run;
mod spans;
mod stats;
mod tour;
mod workloads;

use host::Host;
use metrics::{result_line, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Checks, DEFAULT_SEED, WORKLOADS};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub repeat_check: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: madness-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-out FILE]\n       madness-benchmark --repeat-check [--seed N] [--seconds S]",
        names.join("|")
    )
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.repeat_check && !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Where a traced run leaves its spans unless told otherwise: beside
/// the executable, which is inside the build directory of the checkout.
fn default_trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("trace-{workload}.json"))
}

/// Prints the metrics and the result line; returns the exit code.
fn report(checks: &Checks, metrics: Result<Vec<(&str, &str, f64)>, String>) -> ExitCode {
    for note in &checks.notes {
        println!("FAILED CHECK: {note}");
    }
    let ordered = match metrics {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    for (name, unit, value) in &ordered {
        println!("{name:<44} {value:>20.6} {unit}");
    }
    println!("{}", result_line(checks.attempted, checks.failed, &ordered));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-benchmark-json"] {
        print!("{}", metrics::benchmark_json(&WORKLOADS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::detect(args.seed);
    println!("host: {}", host.to_json());
    if host.oversubscribed() {
        eprintln!(
            "refusing to report: {} executor workers on {} detected CPUs (unset RAYON_NUM_THREADS)",
            host.workers, host.cpus
        );
        return ExitCode::from(2);
    }
    if args.repeat_check {
        return repeat::repeat_check(&args);
    }
    host::pin_kernel_table();
    println!(
        "workload: {} (seed {:#x}, {} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        let result = tour::traced(&args.workload, args.seed, args.seconds, &host);
        print!("{}", result.text);
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(&args.workload));
        match std::fs::write(&path, result.tracer.to_json(&host.to_json())) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                result.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write the trace to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        let ordered = result.metrics.ordered(PER_LAYER.iter().map(|m| (m.0, m.1)));
        report(&result.checks, ordered)
    } else {
        let result = run::end_to_end(&args.workload, args.seed, args.seconds);
        print!("{}", result.text);
        let ordered = result
            .metrics
            .ordered(END_TO_END.iter().map(|m| (m.name, m.unit)));
        report(&result.checks, ordered)
    }
}
