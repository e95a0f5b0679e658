//! Per-shape autotuned kernel table for the `mtxmq` hot path.
//!
//! The paper's CPU baseline leans on hand-tuned assembly `mtxmq`
//! kernels picked per problem shape. Our reproduction used to hard-code
//! one specialization list (`match dimj { 4 | 6 | … }`); following the
//! task-based tensor-computations argument (arXiv:2504.07004) this
//! module instead treats the inner kernel as a *choice* made per
//! `(d, k)` shape by measurement:
//!
//! * **Candidates** — [`KernelId`]: the runtime-width scalar loop, the
//!   const-width scalar loop (specialized `dimj`), the row-blocked AVX
//!   const-width loop (x86_64, detected at runtime — no cargo feature),
//!   and a cache-blocked scalar loop that re-tiles the `i` dimension.
//! * **Calibration** — [`KernelTable::calibrate`] microbenchmarks every
//!   available candidate on each requested `(d, k)` pass shape with
//!   deterministic data, verifies the candidates are **bit-identical**
//!   to the scalar reference, and records the pick: the [`heuristic`]
//!   candidate unless another beats it by a fixed margin.
//! * **Dispatch** — [`select`] looks the current pass shape up in the
//!   installed global table (heuristic fallback for unlisted shapes)
//!   and [`run_span`] runs the chosen kernel over a row span. Both are
//!   allocation-free: lookups are a binary search over a pre-sorted
//!   slice, so the steady-state Apply path stays zero-alloc. The
//!   transform layer resolves each pass shape once per task and reuses
//!   the choice for every span of that shape.
//!
//! Every candidate performs, per output element, the identical
//! multiply-add chain in the identical `k`-ascending order as the
//! scalar reference (no FMA, same `a(k,i) == 0.0` skip), so the table
//! may pick *any* candidate without perturbing a single bit of any
//! result — the repo-wide determinism pins hold regardless of choice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The `dimj` widths with const-generic specializations (scalar and
/// AVX). These are the paper's `k` values plus the small test sizes.
pub const SPECIALIZED_WIDTHS: [usize; 6] = [4, 6, 8, 10, 14, 20];

/// One candidate inner kernel for a `C(i,j) += Σ_k A(k,i)·B(k,j)` pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelId {
    /// The runtime-width i-k-j scalar loop (always available; the
    /// bit-exact reference every other candidate is checked against).
    ScalarRuntime,
    /// The const-width scalar loop: fixed-size row views elide bounds
    /// checks so the compiler fully unrolls/vectorizes the inner loop.
    /// Available only for [`SPECIALIZED_WIDTHS`].
    ScalarConst,
    /// The explicit AVX const-width loop (x86_64 with runtime AVX
    /// detection). A block of 2–8 rows of `C` lives in 256-bit
    /// registers across the whole `k` loop.
    SimdConst,
    /// Cache-blocked scalar loop: `i` re-tiled in micro-tiles of 8 rows
    /// with `k` outermost inside the tile, so each strided `A` row
    /// segment is read once per tile instead of once per output row.
    Blocked,
}

impl KernelId {
    /// Every candidate, in calibration/serialization order.
    pub const ALL: [KernelId; 4] = [
        KernelId::ScalarRuntime,
        KernelId::ScalarConst,
        KernelId::SimdConst,
        KernelId::Blocked,
    ];

    /// Stable position in [`KernelId::ALL`] (and in timing arrays).
    pub fn index(self) -> usize {
        match self {
            KernelId::ScalarRuntime => 0,
            KernelId::ScalarConst => 1,
            KernelId::SimdConst => 2,
            KernelId::Blocked => 3,
        }
    }

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::ScalarRuntime => "scalar-runtime",
            KernelId::ScalarConst => "scalar-const",
            KernelId::SimdConst => "simd-const",
            KernelId::Blocked => "blocked",
        }
    }

    /// Inverse of [`KernelId::name`].
    pub fn from_name(s: &str) -> Option<KernelId> {
        KernelId::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// Whether the AVX kernel can run here (x86_64 with AVX detected at
/// runtime).
pub fn simd_available() -> bool {
    crate::simd::available()
}

/// Whether `id` can serve a pass of width `dimj` on this host.
pub fn candidate_available(id: KernelId, dimj: usize) -> bool {
    match id {
        KernelId::ScalarRuntime | KernelId::Blocked => true,
        KernelId::ScalarConst => SPECIALIZED_WIDTHS.contains(&dimj),
        KernelId::SimdConst => SPECIALIZED_WIDTHS.contains(&dimj) && simd_available(),
    }
}

/// The choice the pre-table hard-coded `match dimj` dispatch made:
/// const-width scalar for specialized widths, runtime-width scalar
/// otherwise. `tablegen kernels` reports the autotuned win against
/// exactly this baseline.
pub fn hardcoded(dimj: usize) -> KernelId {
    if SPECIALIZED_WIDTHS.contains(&dimj) {
        KernelId::ScalarConst
    } else {
        KernelId::ScalarRuntime
    }
}

/// Shape-free fallback used for passes the calibrated table has no
/// entry for: the best candidate we can predict without measuring.
pub fn heuristic(dimj: usize) -> KernelId {
    if SPECIALIZED_WIDTHS.contains(&dimj) {
        if simd_available() {
            KernelId::SimdConst
        } else {
            KernelId::ScalarConst
        }
    } else {
        KernelId::ScalarRuntime
    }
}

// ---------------------------------------------------------------------------
// Span kernels. A "span" is rows `i0..i1` of one transform pass:
// `c[(i-i0)*dimj + j] += Σ_{k<kr} a[k*dimi + i] · b[k*dimj + j]`, with
// `a` the full pass operand (stride `dimi`) and `c` covering only the
// span's rows. Running consecutive spans in order is bit-identical to
// one full pass: each element's k-ascending accumulation chain is
// untouched by the row partition.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn check_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &[f64],
) {
    assert!(
        i0 <= i1 && i1 <= dimi,
        "row span {i0}..{i1} out of 0..{dimi}"
    );
    assert!(a.len() >= kr * dimi, "A must cover (kr, dimi)");
    assert!(b.len() >= kr * dimj, "B must cover (kr, dimj)");
    assert_eq!(c.len(), (i1 - i0) * dimj, "C must cover the span rows");
}

/// Runtime-width scalar span kernel (the bit-exact reference).
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn scalar_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in i0..i1 {
        let crow = &mut c[(i - i0) * dimj..(i - i0 + 1) * dimj];
        for k in 0..kr {
            let aki = a[k * dimi + i];
            if aki == 0.0 {
                continue;
            }
            let brow = &b[k * dimj..(k + 1) * dimj];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aki * bj;
            }
        }
    }
}

/// Const-width scalar span kernel: fixed-size row views elide every
/// bounds check so the inner loop fully unrolls.
fn scalar_const_w<const W: usize>(
    dimi: usize,
    i0: usize,
    i1: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in i0..i1 {
        let r = i - i0;
        let crow: &mut [f64; W] = (&mut c[r * W..r * W + W]).try_into().expect("row width");
        for k in 0..kr {
            let aki = a[k * dimi + i];
            if aki == 0.0 {
                continue;
            }
            let brow: &[f64; W] = (&b[k * W..k * W + W]).try_into().expect("row width");
            for j in 0..W {
                crow[j] += aki * brow[j];
            }
        }
    }
}

/// Dispatches to the const-width loop; `false` if `dimj` has no
/// specialization.
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn scalar_const_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> bool {
    match dimj {
        4 => scalar_const_w::<4>(dimi, i0, i1, kr, a, b, c),
        6 => scalar_const_w::<6>(dimi, i0, i1, kr, a, b, c),
        8 => scalar_const_w::<8>(dimi, i0, i1, kr, a, b, c),
        10 => scalar_const_w::<10>(dimi, i0, i1, kr, a, b, c),
        14 => scalar_const_w::<14>(dimi, i0, i1, kr, a, b, c),
        20 => scalar_const_w::<20>(dimi, i0, i1, kr, a, b, c),
        _ => return false,
    }
    true
}

/// Cache-blocked scalar span kernel: `i` re-tiled in micro-tiles with
/// `k` outermost inside each tile. Each strided `A` row segment
/// `a[k*dimi + t0..t1]` is then one or two cache lines read once per
/// tile, and `B`'s row stays hot across the tile's rows. Per output
/// element the `k` chain still ascends, so the result is bit-identical
/// to [`scalar_span`].
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn blocked_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    const TI: usize = 8;
    let mut t0 = i0;
    while t0 < i1 {
        let t1 = (t0 + TI).min(i1);
        for k in 0..kr {
            let arow = &a[k * dimi..k * dimi + dimi];
            let brow = &b[k * dimj..(k + 1) * dimj];
            for i in t0..t1 {
                let aki = arow[i];
                if aki == 0.0 {
                    continue;
                }
                let crow = &mut c[(i - i0) * dimj..(i - i0 + 1) * dimj];
                for (cj, bj) in crow.iter_mut().zip(brow) {
                    *cj += aki * bj;
                }
            }
        }
        t0 = t1;
    }
}

/// Runs kernel `id` over the row span `i0..i1` of one pass,
/// accumulating into `c` (which covers exactly those rows). Falls back
/// down the candidate ladder (SIMD → const scalar → runtime scalar) if
/// `id` cannot serve this width on this host, so any `KernelId` is
/// always safe to request. Allocation-free.
///
/// # Panics
/// Panics if the slice lengths do not cover the stated span.
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
pub fn run_span(
    id: KernelId,
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    check_span(dimi, i0, i1, dimj, kr, a, b, c);
    match id {
        KernelId::Blocked => blocked_span(dimi, i0, i1, dimj, kr, a, b, c),
        KernelId::SimdConst => {
            if !crate::simd::span(dimi, i0, i1, dimj, kr, a, b, c)
                && !scalar_const_span(dimi, i0, i1, dimj, kr, a, b, c)
            {
                scalar_span(dimi, i0, i1, dimj, kr, a, b, c);
            }
        }
        KernelId::ScalarConst => {
            if !scalar_const_span(dimi, i0, i1, dimj, kr, a, b, c) {
                scalar_span(dimi, i0, i1, dimj, kr, a, b, c);
            }
        }
        KernelId::ScalarRuntime => scalar_span(dimi, i0, i1, dimj, kr, a, b, c),
    }
}

/// Rows per tile for a pass of shape `(dimi, dimj)` contracting `dimk`
/// rows: sized so one tile's working set (strided `A` reads + the `C`
/// rows; `B` is shared) streams through ~256 KiB of cache, rounded to a
/// multiple of the blocked kernel's 8-row micro-tile. Shapes that fit
/// outright get a single full-width tile, so small-`k` transforms run
/// exactly as before.
pub fn pass_tile_rows(dimi: usize, dimj: usize, dimk: usize) -> usize {
    const TARGET_BYTES: usize = 256 * 1024;
    let per_row = 8 * (dimk + dimj);
    let rows = (TARGET_BYTES / per_row.max(1)).max(8) & !7;
    rows.min(dimi).max(1)
}

// ---------------------------------------------------------------------------
// The calibrated table.
// ---------------------------------------------------------------------------

/// Marker for "candidate unavailable on this host" in timing arrays.
pub const UNAVAILABLE: u64 = u64::MAX;

/// One calibrated `(d, k)` pass shape: the measured candidate timings
/// and the winning kernel.
#[derive(Debug)]
pub struct KernelEntry {
    /// Transform dimensionality the shape came from.
    pub d: usize,
    /// Polynomial order (`dimj = k`, `dimi = k^{d-1}` for square passes).
    pub k: usize,
    /// Pass rows (`k^{d-1}` fused remaining dims).
    pub dimi: usize,
    /// Pass width (output columns).
    pub dimj: usize,
    /// Contraction extent.
    pub dimk: usize,
    /// The measured winner; what [`select`] returns for this shape.
    pub choice: KernelId,
    /// What [`heuristic`] would have picked without measuring.
    pub heuristic: KernelId,
    /// Best-of-reps nanoseconds per kernel invocation, indexed by
    /// [`KernelId::index`]; [`UNAVAILABLE`] if the candidate cannot run.
    pub timings_ns: [u64; 4],
    dispatches: AtomicU64,
}

impl KernelEntry {
    /// How many **spans** of this shape the hot path has issued while
    /// counting was enabled: one per [`run_span`] the `mtxmq` and
    /// transform entry points make, not one per [`select`] (a task
    /// selects each pass shape once and then issues many spans). A
    /// rank-`M` Apply task of dimension `d` issues `(d−1)·M` spans for
    /// the leading passes plus one per chunk of terms (× row tiles) for
    /// the fused final pass.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// The pre-table hard-coded choice for this width.
    pub fn hardcoded(&self) -> KernelId {
        hardcoded(self.dimj)
    }

    /// Best-of-reps time of `id`, if it was available.
    pub fn time_ns(&self, id: KernelId) -> Option<u64> {
        let t = self.timings_ns[id.index()];
        (t != UNAVAILABLE).then_some(t)
    }

    fn clone_entry(&self) -> KernelEntry {
        KernelEntry {
            d: self.d,
            k: self.k,
            dimi: self.dimi,
            dimj: self.dimj,
            dimk: self.dimk,
            choice: self.choice,
            heuristic: self.heuristic,
            timings_ns: self.timings_ns,
            dispatches: AtomicU64::new(self.dispatches()),
        }
    }
}

/// A calibrated per-shape kernel registry.
///
/// Entries are sorted by `(dimj, dimi)` so the hot-path [`select`]
/// lookup is an allocation-free binary search. Install one globally
/// with [`install`] (or let [`ensure_autotuned`] calibrate and install
/// lazily); until then every pass uses the [`heuristic`] fallback.
#[derive(Debug)]
pub struct KernelTable {
    entries: Vec<KernelEntry>,
    counting: AtomicBool,
}

/// Text-serialization schema tag (first line of [`KernelTable::to_text`]).
pub const TABLE_SCHEMA: &str = "madness-kernel-table-v1";

/// The `(d, k)` shapes [`ensure_autotuned`] calibrates: the Table I
/// Apply variants (d=3 k∈{10,14,20,30}, d=4 k∈{10,14}) plus the small
/// orders the tests and micro-workloads use.
pub const DEFAULT_SHAPES: [(usize, usize); 9] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 10),
    (3, 14),
    (3, 20),
    (3, 30),
    (4, 10),
    (4, 14),
];

impl KernelTable {
    /// Microbenchmarks every available candidate on each `(d, k)` pass
    /// shape (square passes: `dimi = k^{d-1}`, `dimj = dimk = k`) with
    /// deterministic data and records the per-shape winner.
    ///
    /// Candidates whose output is not **bit-identical** to the scalar
    /// reference on the calibration data are marked [`UNAVAILABLE`] and
    /// can never be chosen — a safety net under the determinism pins.
    pub fn calibrate(shapes: &[(usize, usize)]) -> KernelTable {
        let mut entries: Vec<KernelEntry> = Vec::with_capacity(shapes.len());
        for &(d, k) in shapes {
            let dimi = k.pow(d as u32 - 1);
            let (dimj, dimk) = (k, k);
            if entries.iter().any(|e| e.dimi == dimi && e.dimj == dimj) {
                continue;
            }
            let a = det_fill(dimk * dimi, 0x5EED ^ ((d as u64) << 32 | k as u64));
            let b = det_fill(dimk * dimj, 0xB0B ^ ((k as u64) << 16 | d as u64));
            let mut reference = vec![0.0f64; dimi * dimj];
            scalar_span(dimi, 0, dimi, dimj, dimk, &a, &b, &mut reference);
            let mut scratch = vec![0.0f64; dimi * dimj];
            let eligible = KernelId::ALL.map(|id| {
                if !candidate_available(id, dimj) {
                    return false;
                }
                scratch.fill(0.0);
                run_span(id, dimi, 0, dimi, dimj, dimk, &a, &b, &mut scratch);
                // Not bit-identical: never eligible.
                bits_equal(&scratch, &reference)
            });
            let timings_ns = time_candidates(eligible, dimi, dimj, dimk, &a, &b, &mut scratch);
            let heuristic = heuristic(dimj);
            entries.push(KernelEntry {
                d,
                k,
                dimi,
                dimj,
                dimk,
                choice: pick(&timings_ns, heuristic),
                heuristic,
                timings_ns,
                dispatches: AtomicU64::new(0),
            });
        }
        entries.sort_by_key(|e| (e.dimj, e.dimi));
        KernelTable {
            entries,
            counting: AtomicBool::new(false),
        }
    }

    /// The calibrated entries, sorted by `(dimj, dimi)`.
    pub fn entries(&self) -> &[KernelEntry] {
        &self.entries
    }

    /// Finds the entry for an exact pass shape, if calibrated.
    pub fn lookup(&self, dimi: usize, dimj: usize) -> Option<&KernelEntry> {
        self.entries
            .binary_search_by_key(&(dimj, dimi), |e| (e.dimj, e.dimi))
            .ok()
            .map(|ix| &self.entries[ix])
    }

    /// Enables/disables per-entry dispatch counting (one relaxed atomic
    /// increment per pass when on; a single relaxed load when off).
    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Ordering::Relaxed);
    }

    /// Zeroes every entry's dispatch counter.
    pub fn reset_dispatches(&self) {
        for e in &self.entries {
            e.dispatches.store(0, Ordering::Relaxed);
        }
    }

    /// Serializes the table (schema [`TABLE_SCHEMA`]): one line per
    /// entry, `-` for unavailable timings. Deterministic.
    pub fn to_text(&self) -> String {
        let mut s = String::from(TABLE_SCHEMA);
        s.push('\n');
        for e in &self.entries {
            s.push_str(&format!(
                "{} {} {} {} {} {} {}",
                e.d,
                e.k,
                e.dimi,
                e.dimj,
                e.dimk,
                e.choice.name(),
                e.heuristic.name()
            ));
            for t in e.timings_ns {
                if t == UNAVAILABLE {
                    s.push_str(" -");
                } else {
                    s.push_str(&format!(" {t}"));
                }
            }
            s.push('\n');
        }
        s
    }

    /// Parses [`KernelTable::to_text`] output. Entries whose choice
    /// cannot run on *this* host (e.g. a SIMD pick loaded on a non-AVX
    /// machine) are demoted to the best locally-available candidate.
    pub fn from_text(text: &str) -> Result<KernelTable, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty kernel table")?;
        if header.trim() != TABLE_SCHEMA {
            return Err(format!("unknown kernel-table schema: {header:?}"));
        }
        let mut entries = Vec::new();
        for (n, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 11 {
                return Err(format!(
                    "line {}: expected 11 fields, got {}",
                    n + 2,
                    f.len()
                ));
            }
            let num = |s: &str| {
                s.parse::<usize>()
                    .map_err(|e| format!("line {}: {e}", n + 2))
            };
            let (d, k) = (num(f[0])?, num(f[1])?);
            let (dimi, dimj, dimk) = (num(f[2])?, num(f[3])?, num(f[4])?);
            let mut choice = KernelId::from_name(f[5])
                .ok_or_else(|| format!("line {}: unknown kernel {:?}", n + 2, f[5]))?;
            let heuristic = KernelId::from_name(f[6])
                .ok_or_else(|| format!("line {}: unknown kernel {:?}", n + 2, f[6]))?;
            let mut timings_ns = [UNAVAILABLE; 4];
            for (ix, s) in f[7..].iter().enumerate() {
                if *s != "-" {
                    timings_ns[ix] = s
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: {e}", n + 2))?;
                }
            }
            if !candidate_available(choice, dimj) {
                choice = KernelId::ALL
                    .into_iter()
                    .filter(|id| candidate_available(*id, dimj))
                    .min_by_key(|id| timings_ns[id.index()])
                    .unwrap_or(KernelId::ScalarRuntime);
            }
            entries.push(KernelEntry {
                d,
                k,
                dimi,
                dimj,
                dimk,
                choice,
                heuristic,
                timings_ns,
                dispatches: AtomicU64::new(0),
            });
        }
        entries.sort_by_key(|e| (e.dimj, e.dimi));
        Ok(KernelTable {
            entries,
            counting: AtomicBool::new(false),
        })
    }

    /// Deep copy (dispatch counters included).
    pub fn clone_table(&self) -> KernelTable {
        KernelTable {
            entries: self.entries.iter().map(|e| e.clone_entry()).collect(),
            counting: AtomicBool::new(self.counting.load(Ordering::Relaxed)),
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic xorshift fill in [-0.5, 0.5) with a sprinkling of
/// exact zeros, so calibration also exercises the `aki == 0.0` skip.
fn det_fill(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(31) {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }
        })
        .collect()
}

/// The calibrated pick for one shape: the `heuristic` candidate keeps
/// the shape unless the fastest candidate beats it by at least
/// [`PICK_MARGIN_PCT`] percent, so run-to-run timing noise between
/// near-equal candidates cannot flip the choice from one process to
/// the next (ties go to the heuristic). A heuristic that measured
/// slower than the scalar reference never keeps the shape: the pick is
/// never slower than the fallback it replaces.
fn pick(timings_ns: &[u64; 4], heuristic: KernelId) -> KernelId {
    let fastest = KernelId::ALL
        .into_iter()
        .min_by_key(|id| timings_ns[id.index()])
        .expect("scalar reference always available");
    let (best, held) = (timings_ns[fastest.index()], timings_ns[heuristic.index()]);
    let within_margin = best as u128 * 100 > held as u128 * (100 - PICK_MARGIN_PCT);
    if held != UNAVAILABLE && within_margin && held <= timings_ns[KernelId::ScalarRuntime.index()] {
        heuristic
    } else {
        fastest
    }
}

/// How much faster (percent) than the [`heuristic`] candidate another
/// candidate must measure before calibration prefers it.
const PICK_MARGIN_PCT: u128 = 10;

/// Best-of-[`TIMING_ROUNDS`] nanoseconds per invocation for every
/// eligible candidate ([`UNAVAILABLE`] for the rest). The candidates
/// take turns inside each round, so a noisy stretch of the host slows
/// one rep of each rather than every rep of one; the iteration count is
/// probed to target ~200 µs per rep so the Instant resolution is
/// negligible even for tiny shapes.
fn time_candidates(
    eligible: [bool; 4],
    dimi: usize,
    dimj: usize,
    dimk: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> [u64; 4] {
    const TARGET_NS: u64 = 200_000;
    const TIMING_ROUNDS: usize = 5;
    let mut time = |id: KernelId, iters: u64| {
        c.fill(0.0);
        let t = Instant::now();
        for _ in 0..iters {
            run_span(id, dimi, 0, dimi, dimj, dimk, a, b, c);
        }
        (t.elapsed().as_nanos() as u64 / iters).max(1)
    };
    // Probe: one timed call per candidate to size its measurement loop.
    let iters = KernelId::ALL.map(|id| {
        if eligible[id.index()] {
            (TARGET_NS / time(id, 1)).clamp(1, 10_000)
        } else {
            0
        }
    });
    let mut best = [UNAVAILABLE; 4];
    for _ in 0..TIMING_ROUNDS {
        for id in KernelId::ALL {
            let ix = id.index();
            if eligible[ix] {
                best[ix] = best[ix].min(time(id, iters[ix]));
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Global installation and hot-path selection.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<KernelTable> = OnceLock::new();

/// Installs `table` as the process-wide kernel table. Returns `false`
/// if one was already installed (first install wins; the hot path
/// caches `&'static` references).
pub fn install(table: KernelTable) -> bool {
    GLOBAL.set(table).is_ok()
}

/// The installed table, if any.
pub fn global() -> Option<&'static KernelTable> {
    GLOBAL.get()
}

/// Calibrates and installs the default table exactly once per process.
///
/// * `MADNESS_AUTOTUNE=off` (or `0`) skips calibration entirely — every
///   pass then uses the [`heuristic`] fallback;
/// * `MADNESS_KERNEL_TABLE=<path>` loads a serialized calibration
///   ([`KernelTable::to_text`]) instead of measuring, for reproducible
///   runs and cold-start-sensitive deployments.
///
/// Called lazily by the runtime before the first Apply; ~10–20 ms of
/// one-time microbenchmarks on the [`DEFAULT_SHAPES`].
pub fn ensure_autotuned() {
    static DONE: OnceLock<()> = OnceLock::new();
    DONE.get_or_init(|| {
        if matches!(
            std::env::var("MADNESS_AUTOTUNE").as_deref(),
            Ok("off") | Ok("0")
        ) {
            return;
        }
        if let Ok(path) = std::env::var("MADNESS_KERNEL_TABLE") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(table) = KernelTable::from_text(&text) {
                    install(table);
                    return;
                }
            }
        }
        install(KernelTable::calibrate(&DEFAULT_SHAPES));
    });
}

/// Picks the kernel for a pass of shape `(dimi, dimj)`: the calibrated
/// pick when the installed table has the exact shape, the
/// [`heuristic`] otherwise. Allocation-free (a binary search).
pub fn select(dimi: usize, dimj: usize) -> KernelId {
    resolve(dimi, dimj).id
}

/// The kernel serving one pass shape, resolved once (per `mtxmq` call,
/// per transform task) and then used for every span of that shape.
#[derive(Clone, Copy)]
pub(crate) struct SpanKernel {
    id: KernelId,
    /// The shape's dispatch counter, when the installed table has the
    /// shape and was counting at resolve time.
    counter: Option<&'static AtomicU64>,
}

/// [`select`] plus the dispatch counter the spans should bump.
pub(crate) fn resolve(dimi: usize, dimj: usize) -> SpanKernel {
    if let Some(table) = global() {
        if let Some(e) = table.lookup(dimi, dimj) {
            let counting = table.counting.load(Ordering::Relaxed);
            return SpanKernel {
                id: e.choice,
                counter: counting.then_some(&e.dispatches),
            };
        }
    }
    SpanKernel {
        id: heuristic(dimj),
        counter: None,
    }
}

impl SpanKernel {
    /// [`run_span`] with the resolved kernel, counted as one dispatch.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn run_span(
        &self,
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        if let Some(counter) = self.counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        run_span(self.id, dimi, i0, i1, dimj, kr, a, b, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ref(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; dimi * dimj];
        scalar_span(dimi, 0, dimi, dimj, dimk, a, b, &mut c);
        c
    }

    #[test]
    fn every_candidate_is_bit_identical_to_scalar() {
        for &(dimi, dimj, dimk) in &[
            (100usize, 10usize, 10usize),
            (196, 14, 14),
            (25, 5, 5),
            (49, 7, 7),
            (16, 4, 4),
            (400, 20, 20),
        ] {
            let a = det_fill(dimk * dimi, 17 + dimi as u64);
            let b = det_fill(dimk * dimj, 91 + dimj as u64);
            let want = span_ref(dimi, dimj, dimk, &a, &b);
            for id in KernelId::ALL {
                let mut c = vec![0.0; dimi * dimj];
                run_span(id, dimi, 0, dimi, dimj, dimk, &a, &b, &mut c);
                assert!(
                    bits_equal(&c, &want),
                    "{} diverged on ({dimi},{dimj},{dimk})",
                    id.name()
                );
            }
        }
    }

    #[test]
    fn spans_compose_to_full_pass_bit_identically() {
        let (dimi, dimj, dimk) = (121usize, 11usize, 11usize);
        let a = det_fill(dimk * dimi, 5);
        let b = det_fill(dimk * dimj, 6);
        let want = span_ref(dimi, dimj, dimk, &a, &b);
        for id in KernelId::ALL {
            let mut c = vec![0.0; dimi * dimj];
            let mut i0 = 0;
            while i0 < dimi {
                let i1 = (i0 + 40).min(dimi);
                run_span(
                    id,
                    dimi,
                    i0,
                    i1,
                    dimj,
                    dimk,
                    &a,
                    &b,
                    &mut c[i0 * dimj..i1 * dimj],
                );
                i0 = i1;
            }
            assert!(bits_equal(&c, &want), "{} span split diverged", id.name());
        }
    }

    /// The row-blocked AVX body on spans that do not line up with its
    /// row blocks: a start row in mid-pass and every remainder `r < R`
    /// (R is at most 8), so full blocks and the one-row tail both run.
    #[test]
    fn row_blocked_spans_match_scalar_off_the_block_grid() {
        for dimj in SPECIALIZED_WIDTHS {
            let (dimi, dimk, i0) = (37usize, 9usize, 3usize);
            let a = det_fill(dimk * dimi, 7 + dimj as u64);
            let b = det_fill(dimk * dimj, 70 + dimj as u64);
            for rows in 1..=2 * 8 + 7 {
                let i1 = i0 + rows;
                let init = det_fill(rows * dimj, rows as u64);
                let mut want = init.clone();
                scalar_span(dimi, i0, i1, dimj, dimk, &a, &b, &mut want);
                let mut got = init;
                run_span(
                    KernelId::SimdConst,
                    dimi,
                    i0,
                    i1,
                    dimj,
                    dimk,
                    &a,
                    &b,
                    &mut got,
                );
                assert!(bits_equal(&got, &want), "width {dimj}, rows {i0}..{i1}");
            }
        }
    }

    /// A d = 4 pass big enough that `pass_tile_rows` really tiles it,
    /// with a contraction as long as a fused chunk's: the tiled AVX pass
    /// equals one untiled scalar span.
    #[test]
    fn tiled_d4_pass_matches_untiled_scalar() {
        let (dimi, dimj, dimk) = (14usize.pow(3), 14usize, 3 * 14usize);
        let tile = pass_tile_rows(dimi, dimj, dimk);
        assert!(tile < dimi, "shape no longer tiles: {tile}");
        let a = det_fill(dimk * dimi, 41);
        let b = det_fill(dimk * dimj, 42);
        let want = span_ref(dimi, dimj, dimk, &a, &b);
        let mut got = vec![0.0; dimi * dimj];
        for (t, span) in got.chunks_mut(tile * dimj).enumerate() {
            let i0 = t * tile;
            let i1 = i0 + span.len() / dimj;
            run_span(KernelId::SimdConst, dimi, i0, i1, dimj, dimk, &a, &b, span);
        }
        assert!(bits_equal(&got, &want));
    }

    /// The margin rule, case by case.
    #[test]
    fn pick_keeps_the_heuristic_unless_clearly_beaten() {
        let h = KernelId::SimdConst;
        // Near-ties, either way round, stay with the heuristic…
        assert_eq!(pick(&[200, 150, 100, 95], h), h);
        assert_eq!(pick(&[200, 150, 100, 100], h), h);
        assert_eq!(pick(&[200, 150, 100, 91], h), h);
        // …a 10 % win takes the shape…
        assert_eq!(pick(&[200, 150, 100, 90], h), KernelId::Blocked);
        // …and so does anything when the heuristic cannot run or lost
        // to the scalar reference.
        assert_eq!(
            pick(&[200, 150, UNAVAILABLE, 190], h),
            KernelId::ScalarConst
        );
        assert_eq!(pick(&[99, 150, 100, 120], h), KernelId::ScalarRuntime);
    }

    /// Two calibrations in one process agree wherever the first one had
    /// the heuristic candidate clearly ahead (the near-ties a bare argmin
    /// used to flip are `pick`'s to hold still, pinned above on exact
    /// timings; this one runs the real clock, so it only judges shapes
    /// whose lead is well clear of timing noise).
    #[test]
    fn back_to_back_calibrations_agree() {
        let shapes = [(3, 4), (3, 6), (3, 10), (3, 14)];
        let first = KernelTable::calibrate(&shapes);
        let second = KernelTable::calibrate(&shapes);
        for (x, y) in first.entries().iter().zip(second.entries()) {
            let held = x
                .time_ns(x.heuristic)
                .expect("heuristic candidates always run");
            let clear_lead = KernelId::ALL
                .into_iter()
                .filter(|id| *id != x.heuristic)
                .filter_map(|id| x.time_ns(id))
                .all(|other| other * 10 >= held * 13);
            if clear_lead {
                assert_eq!(
                    x.choice, x.heuristic,
                    "d{}k{} left a clear leader",
                    x.d, x.k
                );
                assert_eq!(y.choice, x.choice, "d{}k{} flipped", x.d, x.k);
            }
        }
    }

    #[test]
    fn calibration_produces_sorted_winning_entries() {
        let table = KernelTable::calibrate(&[(3, 4), (3, 5), (3, 10)]);
        assert_eq!(table.entries().len(), 3);
        let keys: Vec<_> = table.entries().iter().map(|e| (e.dimj, e.dimi)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        for e in table.entries() {
            // The winner must be an available, measured candidate…
            let best = e.time_ns(e.choice).expect("choice must have a timing");
            // …and by construction no slower than the scalar reference.
            assert!(best <= e.time_ns(KernelId::ScalarRuntime).unwrap());
        }
    }

    #[test]
    fn table_text_round_trips() {
        let table = KernelTable::calibrate(&[(3, 4), (3, 10), (4, 10)]);
        let text = table.to_text();
        let back = KernelTable::from_text(&text).expect("round trip");
        assert_eq!(back.entries().len(), table.entries().len());
        for (x, y) in table.entries().iter().zip(back.entries()) {
            assert_eq!(
                (x.d, x.k, x.dimi, x.dimj, x.dimk),
                (y.d, y.k, y.dimi, y.dimj, y.dimk)
            );
            assert_eq!(x.choice, y.choice);
            assert_eq!(x.heuristic, y.heuristic);
            assert_eq!(x.timings_ns, y.timings_ns);
        }
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed() {
        assert!(KernelTable::from_text("").is_err());
        assert!(KernelTable::from_text("bogus-schema\n").is_err());
        let good = KernelTable::calibrate(&[(3, 4)]).to_text();
        let truncated = good.replace(" blocked", "");
        // Either a field-count or kernel-name error — just not a parse.
        if truncated != good {
            assert!(KernelTable::from_text(&truncated).is_err());
        }
        let bad_kernel = good.replace("scalar-const", "scalar-warp");
        if bad_kernel != good {
            assert!(KernelTable::from_text(&bad_kernel).is_err());
        }
    }

    #[test]
    fn lookup_and_select_fall_back_for_unknown_shapes() {
        let table = KernelTable::calibrate(&[(3, 4)]);
        assert!(table.lookup(16, 4).is_some());
        assert!(table.lookup(17, 4).is_none());
        assert!(table.lookup(16, 5).is_none());
        // select() (global table) must at minimum return a runnable id.
        let id = select(12345, 7);
        assert!(candidate_available(id, 7) || id == KernelId::ScalarRuntime);
    }

    #[test]
    fn dispatch_counting_counts_only_when_enabled() {
        let table = KernelTable::calibrate(&[(3, 6)]);
        let e = table.lookup(36, 6).expect("calibrated shape");
        assert_eq!(e.dispatches(), 0);
        // Counting path exercised through the table directly (the global
        // may already be installed by another test).
        table.set_counting(true);
        if table.counting.load(Ordering::Relaxed) {
            e.dispatches.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(e.dispatches(), 1);
        table.reset_dispatches();
        assert_eq!(e.dispatches(), 0);
    }

    #[test]
    fn hardcoded_matches_pre_table_dispatch() {
        assert_eq!(hardcoded(10), KernelId::ScalarConst);
        assert_eq!(hardcoded(7), KernelId::ScalarRuntime);
    }

    #[test]
    fn pass_tile_rows_only_tiles_large_shapes() {
        // Small Apply shapes fit in one tile: no behavior change.
        assert_eq!(pass_tile_rows(100, 10, 10), 100);
        assert_eq!(pass_tile_rows(16, 4, 4), 16);
        // The big k=30 d=3 pass tiles.
        let t = pass_tile_rows(900, 30, 30);
        assert!(t < 900 && t.is_multiple_of(8) && t >= 8, "tile {t}");
    }
}
