//! Cross-commit golden pins for the experiment harness's reports
//! (ISSUE 18), on the `paper_goldens.rs` recipe.
//!
//! The constants and the committed `BENCH_*.json` files were captured on
//! the commit *before* `crates/bench` grew its one `Report` model, when
//! every experiment still had its own result struct, text renderer and
//! hand-rolled `to_json` (this file called those directly then). Only
//! [`simulated_reports`] and [`kernels_json`] — the expressions that
//! *obtain* text and JSON, now a loop over `EXPERIMENTS` — changed with
//! the harness; the constants and the committed files pin what it
//! prints and writes:
//!
//! * the four simulated-time `BENCH_*.json` files, byte for byte (which
//!   pins every gate in them to `true`: tier-1 now exercises the
//!   contract CI used to `grep` for);
//! * FNV-1a of the text each deterministic experiment prints under its
//!   banner, gate lines included — the seven report modules hashed from
//!   their `render(..)` on that commit, the ten paper tables, figures,
//!   forecast and ablations (whose printers lived in the binary then)
//!   from that commit's `tablegen` stdout; `dag-chaos` prints `dag`'s
//!   text under a second banner;
//! * for the wall-clock `kernels` shootout only what is stable across
//!   hosts: the schema tag, the key set of the document and of every
//!   entry, and the structural `autotuned_not_slower` gate.
//!
//! A change that *means* to move a printed number regenerates the hash
//! table with
//!
//! ```bash
//! cargo test --test bench_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and the committed files with `tablegen all --json`, and says why in
//! its PR.

use madness_bench::{Experiment, EXPERIMENTS};
use std::sync::OnceLock;

/// One deterministic report: `(experiment name, text printed under the
/// banner, contents of its `BENCH_*.json` if it has one)`.
type Rendered = (&'static str, String, Option<String>);

fn experiment(name: &str) -> &'static Experiment {
    let found = EXPERIMENTS.iter().find(|e| e.name == name);
    found.unwrap_or_else(|| panic!("{name} left the registry"))
}

/// Every simulated-time experiment, run once per test process.
fn simulated_reports() -> &'static [Rendered] {
    static REPORTS: OnceLock<Vec<Rendered>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        TEXT_GOLDENS
            .iter()
            .map(|&(name, _)| {
                let report = (experiment(name).run)();
                let json = report.artifact.filter(|a| !a.always).map(|a| a.contents);
                (name, report.text, json)
            })
            .collect()
    })
}

/// The `BENCH_kernels.json` document of one (wall-clock) shootout.
fn kernels_json() -> String {
    let artifact = (experiment("kernels").run)().artifact;
    artifact.expect("kernels offers a file").contents
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed trajectory point of each experiment that writes one.
fn committed(name: &str) -> Option<&'static str> {
    match name {
        "balance" => Some(include_str!("../BENCH_cluster.json")),
        "serve" => Some(include_str!("../BENCH_serve.json")),
        "dag" => Some(include_str!("../BENCH_dag.json")),
        "chaos-serve" => Some(include_str!("../BENCH_chaos.json")),
        _ => None,
    }
}

#[test]
fn bench_files_regenerate_byte_identically() {
    let mut compared = 0;
    for (name, _, json) in simulated_reports() {
        assert_eq!(
            json.as_deref(),
            committed(name),
            "{name}: regenerated JSON differs from the committed file"
        );
        compared += usize::from(json.is_some());
    }
    assert_eq!(compared, 4, "four simulated-time BENCH files");
}

#[test]
fn report_text_matches_the_per_module_writer_commit() {
    let reports = simulated_reports();
    assert_eq!(reports.len(), TEXT_GOLDENS.len(), "report count changed");
    for ((name, text, _), &(g_name, g_hash)) in reports.iter().zip(TEXT_GOLDENS) {
        assert_eq!(*name, g_name, "report order changed");
        assert_eq!(fnv1a(text), g_hash, "{name}: printed text moved:\n{text}");
    }
}

/// The JSON keys of one line, in order: every quoted token directly
/// followed by a colon.
fn keys(line: &str) -> Vec<&str> {
    let tokens: Vec<&str> = line.split('"').collect();
    (1..tokens.len().saturating_sub(1))
        .step_by(2)
        .filter(|&i| tokens[i + 1].starts_with(':'))
        .map(|i| tokens[i])
        .collect()
}

/// Keys of the document's own (two-space-indented) lines, in order.
fn document_keys(doc: &str) -> Vec<&str> {
    doc.lines()
        .filter(|l| l.starts_with("  \""))
        .flat_map(keys)
        .collect()
}

/// The row lines of the document's one array.
fn entry_lines(doc: &str) -> Vec<&str> {
    doc.lines().filter(|l| l.starts_with("    {")).collect()
}

#[test]
fn kernels_json_keeps_its_schema_and_key_set() {
    let fresh = kernels_json();
    let pinned = include_str!("../BENCH_kernels.json");
    let schema = "  \"schema\": \"madness-bench-kernels-v2\",";
    assert_eq!(fresh.lines().nth(1), Some(schema));
    assert_eq!(pinned.lines().nth(1), Some(schema));
    assert!(
        fresh.contains("\n  \"autotuned_not_slower\": true,\n"),
        "the pick can never lose to the scalar fallback it is measured against:\n{fresh}"
    );
    // Same document keys in the same order and the same twelve keys in
    // every entry; the timings differ by host, and so may the entry
    // count (a calibration can skip a shape).
    assert_eq!(document_keys(&fresh), document_keys(pinned));
    let entry_keys = keys(entry_lines(pinned)[0]);
    assert_eq!(entry_keys.len(), 12);
    let entries = entry_lines(&fresh);
    assert!(!entries.is_empty(), "no entries:\n{fresh}");
    for line in entries {
        assert_eq!(keys(line), entry_keys, "entry keys moved: {line}");
    }
    assert!(fresh.starts_with("{\n") && fresh.ends_with("\n  ]\n}\n"));
}

/// Prints the text-hash table for pasting below.
#[test]
#[ignore = "regenerates the golden table; run with --ignored --nocapture"]
fn print_goldens() {
    println!("const TEXT_GOLDENS: &[(&str, u64)] = &[");
    for (name, text, _) in simulated_reports() {
        println!("    ({name:?}, {:#018x}),", fnv1a(text));
    }
    println!("];");
}

const TEXT_GOLDENS: &[(&str, u64)] = &[
    ("trace", 0xd566ed56c9b10e23),
    ("dispatch", 0x529bfbe70cc5ae09),
    ("faults", 0x5cfe5b1850db5f5c),
    ("balance", 0xe53c0c8c80acc5f8),
    ("serve", 0xd428d0728a5b1bf0),
    ("dag", 0x146db2ba89f00b11),
    ("chaos-serve", 0x0ae98d2d520ee54e),
    ("table1", 0x7bd5eb6a8c4d881f),
    ("table2", 0x8a10296dadf46341),
    ("table3", 0x3f2037398f28610f),
    ("table4", 0x7874eea2e8316f72),
    ("table5", 0x4554ff9e7e008827),
    ("table6", 0x0a1c8de0acc710c3),
    ("fig5", 0x5df44111f68a9230),
    ("fig6", 0x2f20857d155026d2),
    ("future", 0x1236369eaaae8a01),
    ("ablations", 0xcb8020431c017fbe),
];
