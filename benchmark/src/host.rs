//! The host-honesty block: what machine and build produced the numbers.

use std::path::Path;

/// Everything a reader needs to interpret a timing.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs the host advertises (`available_parallelism`).
    pub cpus: usize,
    /// Worker threads the executor is configured to run.
    pub workers: usize,
    /// Whether the explicit-AVX kernels are compiled in and usable.
    pub simd: bool,
    pub rustc: &'static str,
    /// `HEAD` of the checkout, or `unknown` outside a git repository.
    pub commit: String,
    pub seed: u64,
}

impl Host {
    pub fn detect(seed: u64) -> Host {
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: rayon::configured_worker_threads(),
            simd: madness_tensor::kernel::simd_available(),
            rustc: env!("MADNESS_BENCH_RUSTC"),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// More workers than CPUs time-slices the pipelines: the mistake
    /// baked into the committed `BENCH_apply.json`. Such a run reports
    /// nothing.
    pub fn oversubscribed(&self) -> bool {
        self.workers > self.cpus
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"simd\": {}, \"rustc\": \"{}\", \
             \"commit\": \"{}\", \"seed\": {}}}",
            self.cpus, self.workers, self.simd, self.rustc, self.commit, self.seed
        )
    }
}

/// Installs the shape-free `heuristic` span kernel for every default
/// shape, before the first Apply would autotune the table by timing.
///
/// The autotuner's pick is a coin the host flips: on this sandbox whole
/// processes came up with `blocked` or `scalar-runtime` for the d=3 k=4
/// pass, which is 1.4× slower in situ than `scalar-const` (`apply-k4`
/// read 68k or 97k tasks/s depending on nothing but that pick). A
/// benchmark has to hold it still; `tensor.kernel.autotune_match_frac`
/// reports how often a fresh calibration agrees with the pinned table.
pub fn pin_kernel_table() {
    use madness_tensor::kernel::{heuristic, install, KernelTable, DEFAULT_SHAPES, TABLE_SCHEMA};
    use std::fmt::Write as _;
    let mut text = format!("{TABLE_SCHEMA}\n");
    for (d, k) in DEFAULT_SHAPES {
        let (dimi, name) = (k.pow(d as u32 - 1), heuristic(k).name());
        let _ = writeln!(text, "{d} {k} {dimi} {k} {k} {name} {name} - - - -");
    }
    let table = KernelTable::from_text(&text).expect("the pinned table is well-formed");
    assert!(
        install(table),
        "a kernel table was installed before the pin"
    );
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// Process high-water resident set, MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
