//! `--repeat-check`: do two sets of runs of the same code agree?
//!
//! Each set runs every workload three times, each run a child process
//! of this very executable (so peak memory and lazy set-up start fresh,
//! exactly as they do under the driver), and keeps the median. For
//! every end-to-end metric × workload the two sets must agree within
//! the metric's bound; simulated (exact) metrics must be equal.

use crate::metrics::{parse_result_line, END_TO_END};
use crate::stats::median;
use crate::workloads::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

fn run_child(args: &Args, workload: &str) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| format!("{workload}: cannot start the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let (correct, metrics) = parse_result_line(line)
        .ok_or_else(|| format!("{workload}: no result line (exit {:?})", out.status.code()))?;
    if !correct || !out.status.success() {
        return Err(format!("{workload}: the run failed its checks"));
    }
    Ok(metrics)
}

/// Whether `b` agrees with `a` for a metric of the given bound.
pub fn agrees(a: f64, b: f64, bound: f64, exact: bool) -> bool {
    if exact {
        a.to_bits() == b.to_bits()
    } else {
        (a - b).abs() <= bound * a.abs().max(b.abs())
    }
}

/// Runs per workload in a set; a set's value is their median, so one
/// run caught by a busy host does not decide the verdict.
const RUNS_PER_SET: usize = 3;

/// One set: the median over [`RUNS_PER_SET`] runs of every metric of
/// every workload.
fn run_set(
    args: &Args,
    set: usize,
) -> Result<BTreeMap<&'static str, BTreeMap<String, f64>>, String> {
    let mut by_workload = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        println!(
            "set {set}: {RUNS_PER_SET} runs of {workload}, {} s each",
            args.seconds
        );
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..RUNS_PER_SET {
            for (name, value) in run_child(args, workload)? {
                samples.entry(name).or_default().push(value);
            }
        }
        let medians = samples
            .into_iter()
            .map(|(name, values)| (name, median(&values)))
            .collect();
        by_workload.insert(workload, medians);
    }
    Ok(by_workload)
}

pub fn repeat_check(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for set in 1..=2 {
        match run_set(args, set) {
            Ok(by_workload) => sets.push(by_workload),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{:<12}{:<18}{:>18}{:>18}{:>9}{:>8}  verdict",
        "workload", "metric", "set 1", "set 2", "diff %", "bound %"
    );
    let mut disagreements = 0;
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let (a, b) = (
                sets[0][workload][metric.name],
                sets[1][workload][metric.name],
            );
            let ok = agrees(a, b, metric.bound, metric.exact);
            disagreements += usize::from(!ok);
            println!(
                "{:<12}{:<18}{:>18.6}{:>18.6}{:>9.2}{:>8}  {}",
                workload,
                metric.name,
                a,
                b,
                100.0 * (b - a) / a,
                if metric.exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}", 100.0 * metric.bound)
                },
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if disagreements == 0 {
        println!("repeat-check: the two sets agree on every metric");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check: {disagreements} metric(s) disagree");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::agrees;

    #[test]
    fn exact_metrics_must_be_equal_and_timings_within_the_bound() {
        assert!(agrees(3.5, 3.5, 0.05, true));
        assert!(!agrees(3.5, 3.500000001, 0.05, true));
        assert!(agrees(100.0, 109.0, 0.10, false));
        assert!(agrees(109.0, 100.0, 0.10, false));
        assert!(!agrees(100.0, 112.0, 0.10, false));
    }
}
