//! The `tablegen kernels` experiment: the per-`(d, k)` autotuned mtxmq
//! kernel shootout behind the Apply hot path.
//!
//! Calibrates (or reuses) the global [`madness_tensor::kernel`] table,
//! runs a small Full-fidelity Apply with dispatch counting enabled so
//! every shape's entry shows how often the hot path actually consulted
//! it, journals one [`madness_trace::KernelEvent`] per entry, and
//! evaluates the two CI gates:
//!
//! * `autotuned_not_slower` — every winner is at least as fast as the
//!   scalar runtime-width fallback on its own calibration data. This is
//!   structural (the pick is the argmin, which includes the fallback,
//!   or a heuristic that measured no slower than the fallback), so the
//!   `kernels-smoke` CI step gating on it is noise-free.
//! * `autotuned_beats_hardcoded` — at least one Table I `(d, k)` shape
//!   measured strictly faster than the pre-table hard-coded
//!   specialization would have run. It holds on an AVX host (the
//!   vectorized candidates are detected at runtime) and degrades
//!   gracefully (to `false`, not to an error) on hosts without AVX.

use madness_core::apply::{apply_batched, ApplyConfig, ApplyResource};
use madness_core::coulomb::CoulombApp;
use madness_gpusim::KernelKind;
use madness_runtime::BatcherConfig;
use madness_tensor::kernel::{self, KernelId, KernelTable};
use madness_trace::{KernelChoice, KernelEvent, MemRecorder, Recorder};

/// The Table I / Table VI Apply variants: the shapes the acceptance
/// gate `autotuned_beats_hardcoded` quantifies over.
pub const TABLE1_SHAPES: [(usize, usize); 6] =
    [(3, 10), (3, 14), (3, 20), (3, 30), (4, 10), (4, 14)];

/// The full `tablegen kernels` result.
pub struct KernelsReport {
    /// Snapshot of the calibrated table (including dispatch counts from
    /// the counted Apply run).
    pub table: KernelTable,
    /// One [`KernelEvent`] per entry, in table order.
    pub recorder: MemRecorder,
    /// Whether the host CPU actually supports the SIMD kernels.
    pub simd_available: bool,
    /// Every winner ≤ the scalar runtime-width fallback (structural).
    pub autotuned_not_slower: bool,
    /// Some Table I shape beats the pre-table hard-coded choice.
    pub autotuned_beats_hardcoded: bool,
    /// Spans the counted Apply run issued through the table.
    pub apply_dispatches: u64,
}

fn choice_of(id: KernelId) -> KernelChoice {
    // The trace mirror enum uses the same canonical spellings.
    KernelChoice::from_name(id.name()).expect("KernelChoice mirrors KernelId")
}

fn small_apply_config() -> ApplyConfig {
    ApplyConfig {
        resource: ApplyResource::Cpu,
        batch: BatcherConfig {
            max_batch: 16,
            ..BatcherConfig::default()
        },
        kernel: Some(KernelKind::CustomMtxmq),
        streams: 5,
        threads: 10,
        rank_reduce_eps: None,
    }
}

/// Runs the kernel shootout: calibrate, count a small Apply, journal,
/// and evaluate the gates.
pub fn kernels_table() -> KernelsReport {
    // Warm the executor and make sure a table is installed (unless the
    // user disabled autotuning via MADNESS_AUTOTUNE=off).
    madness_runtime::initialize_hot_path();

    let apply_dispatches = match kernel::global() {
        Some(global) => {
            // Count the spans the hot path issues per entry across one
            // steady-state Apply (after an uncounted warm-up).
            let app = CoulombApp::small(4, 1e-3);
            let cfg = small_apply_config();
            apply_batched(&app.op, &app.tree, &cfg);
            global.reset_dispatches();
            global.set_counting(true);
            apply_batched(&app.op, &app.tree, &cfg);
            global.set_counting(false);
            global.entries().iter().map(|e| e.dispatches()).sum()
        }
        None => 0,
    };

    // Snapshot the installed table (dispatch counts included), or
    // calibrate locally when autotuning was disabled so the report is
    // still complete.
    let table = match kernel::global() {
        Some(global) => global.clone_table(),
        None => KernelTable::calibrate(&kernel::DEFAULT_SHAPES),
    };

    let mut recorder = MemRecorder::new();
    for e in table.entries() {
        recorder.kernel_event(KernelEvent {
            d: e.d as u32,
            k: e.k as u32,
            dimi: e.dimi as u64,
            dimj: e.dimj as u64,
            dimk: e.dimk as u64,
            choice: choice_of(e.choice),
            best_ns: e.time_ns(e.choice).unwrap_or(0),
            scalar_ns: e.time_ns(KernelId::ScalarRuntime).unwrap_or(0),
            dispatches: e.dispatches(),
        });
    }

    let autotuned_not_slower = table.entries().iter().all(|e| {
        match (e.time_ns(e.choice), e.time_ns(KernelId::ScalarRuntime)) {
            (Some(best), Some(scalar)) => best <= scalar,
            _ => false,
        }
    });
    let autotuned_beats_hardcoded = table.entries().iter().any(|e| {
        TABLE1_SHAPES.contains(&(e.d, e.k))
            && matches!(
                (e.time_ns(e.choice), e.time_ns(e.hardcoded())),
                (Some(best), Some(hard)) if best < hard
            )
    });

    KernelsReport {
        table,
        recorder,
        simd_available: kernel::simd_available(),
        autotuned_not_slower,
        autotuned_beats_hardcoded,
        apply_dispatches,
    }
}

/// Renders the report as the table `tablegen kernels` prints.
pub fn render(report: &KernelsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}{:<8}{:>12}{:>12}{:>12}{:>12}{:>16}{:>9}{:>10}",
        "(d,k)",
        "dimj",
        "scalar-rt",
        "scalar-c",
        "simd-c",
        "blocked",
        "choice",
        "vs hard",
        "dispatch"
    );
    for e in report.table.entries() {
        let cell = |id: KernelId| match e.time_ns(id) {
            Some(ns) => format!("{ns} ns"),
            None => "-".to_string(),
        };
        let vs_hard = match (e.time_ns(e.hardcoded()), e.time_ns(e.choice)) {
            (Some(hard), Some(best)) if best > 0 => format!("{:.2}x", hard as f64 / best as f64),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<8}{:<8}{:>12}{:>12}{:>12}{:>12}{:>16}{:>9}{:>10}",
            format!("({},{})", e.d, e.k),
            e.dimj,
            cell(KernelId::ScalarRuntime),
            cell(KernelId::ScalarConst),
            cell(KernelId::SimdConst),
            cell(KernelId::Blocked),
            e.choice.name(),
            vs_hard,
            e.dispatches(),
        );
    }
    let _ = writeln!(
        out,
        "\nsimd: host {}; apply spans dispatched: {}",
        report.simd_available, report.apply_dispatches
    );
    let _ = writeln!(
        out,
        "gates: autotuned_not_slower {} | autotuned_beats_hardcoded {}",
        report.autotuned_not_slower, report.autotuned_beats_hardcoded
    );
    out
}

/// Serializes the report as the `BENCH_kernels.json` trajectory point.
pub fn to_json(report: &KernelsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"madness-bench-kernels-v2\",\n");
    let _ = writeln!(out, "  \"simd_available\": {},", report.simd_available);
    let _ = writeln!(
        out,
        "  \"autotuned_not_slower\": {},\n  \"autotuned_beats_hardcoded\": {},",
        report.autotuned_not_slower, report.autotuned_beats_hardcoded
    );
    let _ = writeln!(out, "  \"apply_dispatches\": {},", report.apply_dispatches);
    out.push_str("  \"entries\": [\n");
    let entries = report.table.entries();
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let ns = |id: KernelId| {
            e.time_ns(id)
                .map_or_else(|| "null".to_string(), |t| t.to_string())
        };
        let _ = writeln!(
            out,
            "    {{\"d\": {}, \"k\": {}, \"dimi\": {}, \"dimj\": {}, \"dimk\": {}, \
             \"choice\": \"{}\", \"hardcoded\": \"{}\", \"scalar_runtime_ns\": {}, \
             \"scalar_const_ns\": {}, \"simd_const_ns\": {}, \"blocked_ns\": {}, \
             \"dispatches\": {}}}{comma}",
            e.d,
            e.k,
            e.dimi,
            e.dimj,
            e.dimk,
            e.choice.name(),
            e.hardcoded().name(),
            ns(KernelId::ScalarRuntime),
            ns(KernelId::ScalarConst),
            ns(KernelId::SimdConst),
            ns(KernelId::Blocked),
            e.dispatches(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full shootout: every default shape gets an entry and a
    /// journaled event, the structural gate holds, and the JSON carries
    /// both gates plus the schema tag.
    #[test]
    fn kernels_smoke_calibrates_and_gates() {
        let report = kernels_table();
        assert!(
            report.table.entries().len() >= kernel::DEFAULT_SHAPES.len() - 1,
            "expected an entry per distinct default shape"
        );
        assert_eq!(
            report.recorder.kernel_events().count(),
            report.table.entries().len(),
            "one journaled KernelEvent per table entry"
        );
        assert!(
            report.autotuned_not_slower,
            "the pick can never lose to the scalar fallback it is measured against"
        );
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"madness-bench-kernels-v2\""));
        assert!(json.contains("\"autotuned_not_slower\": true"));
        assert!(json.contains("\"autotuned_beats_hardcoded\": "));
        let rendered = render(&report);
        assert!(rendered.contains("gates:"));
        for (d, k) in TABLE1_SHAPES {
            assert!(
                report.table.entries().iter().any(|e| e.d == d && e.k == k),
                "Table I shape ({d},{k}) missing from the calibrated table"
            );
        }
    }

    /// On an AVX host the acceptance gate must hold: some Table I shape
    /// beats the hard-coded pick.
    #[test]
    fn simd_build_beats_hardcoded_on_avx_hosts() {
        let report = kernels_table();
        if report.simd_available {
            assert!(
                report.autotuned_beats_hardcoded,
                "an AVX host should beat the scalar specialization \
                 on at least one Table I shape"
            );
        }
    }
}
