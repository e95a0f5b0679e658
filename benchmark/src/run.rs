//! The end-to-end run: set up, warm up, then timed untraced passes.

use crate::host::peak_rss_mb;
use crate::hostclock::{slowdown, tick_on};
use crate::metrics::MetricSet;
use crate::spans::{Layer, Tracer};
use crate::stats::{hi_percentile, median, percentile};
use crate::workloads::{self, Checks, PassOutcome, Workload};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, so the one-time work of
/// the first (thread pool, kernel autotune) does not set the figure.
pub const SETUPS: usize = 3;

/// Fewest timed passes a run reports a median over.
pub const MIN_PASSES: usize = 5;

/// Builds a workload and runs the untimed warm-up pass that fills the
/// lazy `get_h` blocks, the kernel table and the pool. Returns the
/// seconds all of that took.
pub fn set_up_with<W: Workload>(
    t: &mut Tracer,
    build: impl FnOnce(&mut Tracer) -> W,
) -> (W, PassOutcome, f64) {
    let ((w, warm), secs) = t.call("bench.setup", Layer::Bench, |t| {
        let w = build(t);
        t.call("runtime.initialize_hot_path", Layer::Runtime, |_| {
            madness_runtime::initialize_hot_path()
        });
        let (warm, _) = t.pass("bench.warmup_pass", |t| w.pass(t));
        (w, warm)
    });
    (w, warm, secs)
}

/// Compares a pass's exact values with the first pass's, bit for bit.
pub fn check_repeats(checks: &mut Checks, first: &PassOutcome, pass: &PassOutcome) {
    let same = first.exact.len() == pass.exact.len()
        && first
            .exact
            .iter()
            .zip(&pass.exact)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    checks.check(same, || {
        let diff = first
            .exact
            .iter()
            .zip(&pass.exact)
            .find(|(a, b)| a.1.to_bits() != b.1.to_bits())
            .map_or("their number".to_string(), |(a, b)| {
                format!("{}: {} then {}", a.0, a.1, b.1)
            });
        format!("a simulated number or count moved between passes ({diff})")
    });
}

/// What the end-to-end run measured.
pub struct RunResult {
    pub metrics: MetricSet,
    pub checks: Checks,
    pub text: String,
}

/// Measures workload `name` for `seconds`.
///
/// Every timed interval sits between two reference ticks (on as many
/// threads as the workload keeps busy) and is divided by the host's
/// slowdown over it (see [`crate::hostclock`]); the raw medians are
/// printed beside the corrected ones.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> RunResult {
    use std::fmt::Write as _;
    let mut off = Tracer::off();
    let threads = workloads::threads(name);
    let tick = || tick_on(threads);
    let mut last_tick = tick();
    let mut setup_raw = Vec::with_capacity(SETUPS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (w, warm, secs) = set_up_with(&mut off, |t| {
            workloads::build(name, seed, t).expect("workload name was validated")
        });
        let after = tick();
        setup_raw.push(secs);
        setup_s.push(secs / slowdown(last_tick, after));
        last_tick = after;
        built = Some((w, warm));
    }
    let (w, warm) = built.expect("SETUPS > 0");
    let mut checks = warm.checks.clone();

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut main_raw = Vec::new();
    let mut main_s = Vec::new();
    let mut slowdowns = Vec::new();
    let mut leg_s: Vec<Vec<f64>> = vec![Vec::new(); warm.legs.len()];
    while started.elapsed() < budget || main_s.len() < MIN_PASSES {
        let (out, _) = off.pass("bench.pass", |t| w.pass(t));
        let after = tick();
        let slow = slowdown(last_tick, after);
        last_tick = after;
        check_repeats(&mut checks, &warm, &out);
        checks.absorb(out.checks);
        for (samples, leg) in leg_s.iter_mut().zip(&out.legs) {
            samples.push(leg.secs);
        }
        main_raw.push(out.main_s);
        main_s.push(out.main_s / slow);
        slowdowns.push(slow);
    }

    let mut metrics = MetricSet::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("tasks_per_s", warm.tasks as f64 / median(&main_s));
    metrics.set("sim_makespan_s", warm.sim_makespan_s);
    match peak_rss_mb() {
        Some(mb) => metrics.set("peak_rss_mb", mb),
        None => checks.check(false, || "VmHWM unreadable: no peak_rss_mb".into()),
    }

    let mut text = String::new();
    if let Some(table) = madness_tensor::kernel::global() {
        // Which span kernel serves each pass shape is part of what
        // produced these numbers (pinned, see `host::pin_kernel_table`).
        let choices: Vec<String> = table
            .entries()
            .iter()
            .map(|e| format!("d{}k{}={}", e.d, e.k, e.choice.name()))
            .collect();
        let _ = writeln!(text, "span kernels: {}", choices.join(" "));
    }
    let _ = writeln!(
        text,
        "passes: {} timed after {SETUPS} set-ups with a warm-up pass each; {} tasks on the main path per pass",
        main_s.len(),
        warm.tasks
    );
    let _ = writeln!(
        text,
        "host slowdown against the reference tick: median {:.3} (min {:.3}, max {:.3})",
        median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max)
    );
    let _ = writeln!(
        text,
        "main path: median {:.6} s corrected, {:.6} s raw ({:.1} tasks/s raw)",
        median(&main_s),
        median(&main_raw),
        warm.tasks as f64 / median(&main_raw)
    );
    let _ = writeln!(
        text,
        "main path: quartiles {:.6} s / {:.6} s corrected over {} samples",
        percentile(&main_s, 0.25),
        percentile(&main_s, 0.75),
        main_s.len()
    );
    if let Some((q, v)) = hi_percentile(&main_s) {
        let _ = writeln!(
            text,
            "main path: p{:.1} {v:.6} s corrected (highest percentile with 10 samples beyond it)",
            q * 100.0
        );
    }
    let _ = writeln!(
        text,
        "set-up: median {:.6} s corrected, {:.6} s raw",
        median(&setup_s),
        median(&setup_raw)
    );
    for (leg, samples) in warm.legs.iter().zip(&leg_s) {
        let _ = writeln!(
            text,
            "  leg {:<58} {:>9} tasks  median {:.6} s raw",
            leg.name,
            leg.tasks,
            median(samples)
        );
    }
    for (k, v) in w.fingerprint() {
        let _ = writeln!(text, "  input {k} = {v}");
    }
    for (k, v) in &warm.exact {
        let _ = writeln!(text, "  exact {k} = {v}");
    }
    RunResult {
        metrics,
        checks,
        text,
    }
}
